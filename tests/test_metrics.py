"""Quasi-norms and the shared-reference Hellinger / total-variation
estimators, checked against quadrature oracles for Gaussian pairs."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import integrate

from stableinfer import (
    MismatchedReferenceError,
    OutOfRangeError,
    QuasiNormSpec,
    StableParams,
    WeightedSampleMeasure,
    cauchy_pdf,
    expectation_gap_bound_check,
    hellinger_empirical,
    hellinger_with_error,
    normal_pdf,
    quasi_norm,
    sample_stable,
    total_variation_empirical,
)
from stableinfer.metrics import rowwise_quasi_norm


class TestQuasiNorm:
    def test_ell1_pair(self):
        assert quasi_norm([1.0, 1.0], QuasiNormSpec(q=1.0)) == 2.0

    def test_half_exponent_pair(self):
        assert quasi_norm([1.0, 1.0], QuasiNormSpec(q=0.5)) == pytest.approx(4.0)

    def test_sup_norm(self):
        assert quasi_norm([1.0, -3.0, 2.0], QuasiNormSpec(q=math.inf)) == 3.0

    def test_grid_norm_uses_spacing(self):
        spec = QuasiNormSpec(q=2.0, domain="grid", grid_spacing=0.25)
        assert quasi_norm([1.0, 1.0, 1.0, 1.0], spec) == pytest.approx(1.0)

    def test_homogeneity_exact(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(50)
        for q in (0.5, 1.0, 2.0, math.inf):
            spec = QuasiNormSpec(q=q)
            assert quasi_norm(3.5 * v, spec) == pytest.approx(3.5 * quasi_norm(v, spec), rel=1e-12)

    def test_quasi_triangle_inequality_half(self):
        rng = np.random.default_rng(1)
        spec = QuasiNormSpec(q=0.5)
        c = spec.quasi_triangle_constant
        assert c == pytest.approx(2.0)
        for _ in range(1000):
            u = rng.standard_normal(8)
            v = rng.standard_normal(8)
            assert quasi_norm(u + v, spec) <= c * (quasi_norm(u, spec) + quasi_norm(v, spec)) + 1e-12

    def test_plain_triangle_for_q_at_least_one(self):
        rng = np.random.default_rng(2)
        for q in (1.0, 1.5, 2.0):
            spec = QuasiNormSpec(q=q)
            assert spec.quasi_triangle_constant == 1.0
            for _ in range(200):
                u = rng.standard_normal(6)
                v = rng.standard_normal(6)
                assert quasi_norm(u + v, spec) <= quasi_norm(u, spec) + quasi_norm(v, spec) + 1e-12

    def test_invalid_exponent(self):
        with pytest.raises(OutOfRangeError):
            QuasiNormSpec(q=0.0)

    def test_empty_vector_has_norm_zero(self):
        for q in (0.5, 2.0, math.inf):
            assert quasi_norm([], QuasiNormSpec(q=q)) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.integers(1, 40), elements=st.floats(-1e6, 1e6)),
           st.one_of(st.floats(0.05, 8.0), st.just(math.inf)),
           st.sampled_from(["sequence", "grid"]))
    def test_vector_norm_is_the_one_row_batch_norm(self, v, q, domain):
        spec = QuasiNormSpec(q=q, domain=domain, grid_spacing=1.0 / v.size)
        one = quasi_norm(v, spec)
        assert np.float64(one).tobytes() == rowwise_quasi_norm(v[None, :], spec)[0].tobytes()


@pytest.fixture(scope="module")
def gaussian_pair_on_cauchy_reference():
    n = 4 * 10 ** 5
    u = sample_stable(StableParams.cauchy(0, 1), n, 2024)
    ref = cauchy_pdf(0, 1, u)
    mu = WeightedSampleMeasure("shared", normal_pdf(0, 1, u) / ref)
    nu = WeightedSampleMeasure("shared", normal_pdf(1, 1, u) / ref)
    return u, mu, nu


class TestHellinger:
    def test_identical_weights(self):
        w = np.abs(np.random.default_rng(3).standard_normal(100)) + 0.1
        mu = WeightedSampleMeasure("r", w)
        nu = WeightedSampleMeasure("r", w.copy())
        assert hellinger_empirical(mu, nu) == 0.0

    def test_disjoint_supports_maximal(self):
        w = np.array([1.0, 1.0, 0.0, 0.0])
        v = np.array([0.0, 0.0, 1.0, 1.0])
        d = hellinger_empirical(WeightedSampleMeasure("r", w), WeightedSampleMeasure("r", v))
        assert d == pytest.approx(math.sqrt(2.0))

    def test_gaussian_pair_against_quadrature(self, gaussian_pair_on_cauchy_reference):
        _, mu, nu = gaussian_pair_on_cauchy_reference
        d, se = hellinger_with_error(mu, nu)
        oracle_sq, _ = integrate.quad(
            lambda x: (math.sqrt(normal_pdf(0, 1, x)) - math.sqrt(normal_pdf(1, 1, x))) ** 2,
            -30, 30,
        )
        assert abs(d - math.sqrt(oracle_sq)) < 3.0 * se

    def test_mismatched_reference_rejected(self):
        mu = WeightedSampleMeasure("a", np.ones(4))
        nu = WeightedSampleMeasure("b", np.ones(4))
        with pytest.raises(MismatchedReferenceError):
            hellinger_empirical(mu, nu)

    def test_symmetry_exact(self, gaussian_pair_on_cauchy_reference):
        _, mu, nu = gaussian_pair_on_cauchy_reference
        assert hellinger_empirical(mu, nu) == hellinger_empirical(nu, mu)

    def test_stderr_matches_replicate_spread(self):
        # the spread of d over independent reference samples, against the
        # mean reported stderr; leaving out the noise of the two plug-in
        # means made the stderr 18% and 23% too small here
        rng = np.random.default_rng(2024)
        for eps in (0.4, 0.05):
            ds, ses = [], []
            for _ in range(400):
                u = rng.standard_cauchy(20000)
                mu = WeightedSampleMeasure("r", np.exp(-0.5 * (u - 0.5) ** 2))
                nu = WeightedSampleMeasure("r", np.exp(-0.5 * (u - 0.5 - eps) ** 2))
                d, se = hellinger_with_error(mu, nu)
                ds.append(d)
                ses.append(se)
            assert 0.87 < np.mean(ses) / np.std(ds, ddof=1) < 1.15

    def test_triangle_inequality_on_empirical_triples(self):
        rng = np.random.default_rng(8)
        n = 10 ** 4
        x = rng.standard_normal(n)
        measures = [
            WeightedSampleMeasure("t", normal_pdf(m, 1, x) / normal_pdf(0, 1, x))
            for m in (0.0, 0.4, 1.0)
        ]
        d01 = hellinger_empirical(measures[0], measures[1])
        d12 = hellinger_empirical(measures[1], measures[2])
        d02 = hellinger_empirical(measures[0], measures[2])
        assert d02 <= d01 + d12 + 3.0 / math.sqrt(n)


class TestTotalVariation:
    def test_identical_weights(self):
        w = np.linspace(0.1, 1.0, 10)
        assert total_variation_empirical(
            WeightedSampleMeasure("r", w), WeightedSampleMeasure("r", w.copy())
        ) == 0.0

    def test_disjoint_supports(self):
        w = np.array([2.0, 0.0])
        v = np.array([0.0, 2.0])
        assert total_variation_empirical(
            WeightedSampleMeasure("r", w), WeightedSampleMeasure("r", v)
        ) == pytest.approx(1.0)

    def test_gaussian_pair_against_quadrature(self, gaussian_pair_on_cauchy_reference):
        _, mu, nu = gaussian_pair_on_cauchy_reference
        tv = total_variation_empirical(mu, nu)
        oracle, _ = integrate.quad(
            lambda x: 0.5 * abs(normal_pdf(0, 1, x) - normal_pdf(1, 1, x)), -30, 30,
        )
        assert abs(tv - oracle) < 5e-3

    def test_kraft_ordering_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            w = rng.random(200)
            v = rng.random(200)
            mu = WeightedSampleMeasure("r", w)
            nu = WeightedSampleMeasure("r", v)
            tv = total_variation_empirical(mu, nu)
            dh = hellinger_empirical(mu, nu)
            assert tv <= dh + 1e-12
            assert dh <= math.sqrt(2.0) + 1e-12


class TestExpectationGapBound:
    def test_constant_function(self):
        rng = np.random.default_rng(5)
        mu = WeightedSampleMeasure("r", rng.random(100))
        nu = WeightedSampleMeasure("r", rng.random(100))
        out = expectation_gap_bound_check(np.full(100, 7.0), mu, nu)
        assert out.lhs == pytest.approx(0.0, abs=1e-12)
        assert out.holds

    def test_equal_measures_zero_both_sides(self):
        w = np.linspace(0.5, 1.5, 64)
        mu = WeightedSampleMeasure("r", w)
        nu = WeightedSampleMeasure("r", w.copy())
        out = expectation_gap_bound_check(np.arange(64.0), mu, nu)
        assert out.lhs == pytest.approx(0.0, abs=1e-12)
        assert out.rhs == pytest.approx(0.0, abs=1e-12)
        assert out.holds

    def test_indicator_on_gaussian_pair(self, gaussian_pair_on_cauchy_reference):
        u, mu, nu = gaussian_pair_on_cauchy_reference
        out = expectation_gap_bound_check((u > 0).astype(float), mu, nu)
        assert out.holds
        assert out.lhs <= out.rhs
        assert out.lhs <= out.rhs_sup_bound

    def test_weight_validation(self):
        with pytest.raises(OutOfRangeError):
            WeightedSampleMeasure("r", np.array([1.0, -0.5]))
        with pytest.raises(OutOfRangeError):
            WeightedSampleMeasure("r", np.zeros(3))


# ---------------------------------------------------------------------------
# the fused distance kernel and the weight validation, pinned to the
# textbook expressions bit for bit
# ---------------------------------------------------------------------------

def _bits(x) -> str:
    x = float(x)
    return "nan" if math.isnan(x) else x.hex()


def _textbook_distances(w, v):
    """Hellinger, its stderr and TV as plain numpy expressions; the stderr
    is the delta method's, that of psi = g - (d^2/2)(p + q)."""
    mw, mv = float(w.mean()), float(v.mean())
    a = np.sqrt(w / mw)
    b = np.sqrt(v / mv)
    g = (a - b) ** 2
    d2 = g.mean()
    d = math.sqrt(max(float(d2), 0.0))
    if d <= 0.0 or g.size < 2:
        se = 0.0
    else:
        psi = g - (d2 / 2) * (w / mw + v / mv)
        se = float(psi.std(ddof=1) / math.sqrt(g.size)) / (2.0 * d)
    tv = float(0.5 * np.abs(w / mw - v / mv).mean())
    return d, se, tv


_weight = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=2.2250738585072014e-308),  # subnormal
    st.floats(min_value=0.0, max_value=1e300),
)


def _weights(n):
    """Weights whose mean does not underflow to 0, which is rejected."""
    return arrays(np.float64, n, elements=_weight).filter(lambda a: a.sum() / a.size > 0)


def _bounded_weights(n):
    """Weights whose mean cannot underflow (a zero mean makes both distances nan)."""
    elements = st.one_of(st.just(0.0), st.floats(1e-6, 1e6))
    return arrays(np.float64, n, elements=elements).filter(lambda a: a.any())


@st.composite
def weight_pairs(draw):
    n = draw(st.integers(1, 40))
    w = draw(_weights(n))
    v = w.copy() if draw(st.booleans()) else draw(_weights(n))
    return w, v


class TestFusedKernel:
    @settings(max_examples=300, deadline=None)
    @given(weight_pairs())
    @example(([3.0], [0.5]))
    @example(([1.0, 0.0], [0.0, 1.0]))
    @example(([1.0, 2.0], [1.0, 2.0]))
    @example(([5e-324, 1.0], [1.0, 5e-324]))
    @example(([0.0, 0.0, 7.0], [1e300, 0.0, 1e-300]))
    def test_distances_match_textbook_bits(self, pair):
        w, v = (np.array(x, dtype=float) for x in pair)
        mu, nu = WeightedSampleMeasure("r", w), WeightedSampleMeasure("r", v)
        with np.errstate(all="ignore"):
            want = _textbook_distances(w, v)
            d, se = hellinger_with_error(mu, nu)
            tv = total_variation_empirical(mu, nu)
        assert [_bits(x) for x in (d, se, tv)] == [_bits(x) for x in want]

    @settings(max_examples=200, deadline=None)
    @given(weight_pairs())
    def test_normalization_matches_textbook_bits(self, pair):
        w, _ = pair
        mu = WeightedSampleMeasure("r", w)
        assert _bits(mu.normalization) == _bits(w.mean())
        assert mu.normalized().tobytes() == (w / w.sum()).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 60).flatmap(lambda n: st.tuples(_bounded_weights(n),
                                                          _bounded_weights(n))))
    def test_total_variation_below_hellinger_below_root_two(self, pair):
        mu, nu = (WeightedSampleMeasure("r", x) for x in pair)
        tv = total_variation_empirical(mu, nu)
        dh = hellinger_empirical(mu, nu)
        assert tv <= dh + 1e-12
        assert dh <= math.sqrt(2.0) + 1e-12


class TestWeightValidation:
    @pytest.mark.parametrize("w", [
        [1.0, -0.5], [2.0, -1.0], [-0.0, -1e-300, 3.0], [1.0, math.nan],
        [math.nan], [1.0, math.inf], [math.inf, -math.inf], [1.0, -math.inf],
        [0.0, 0.0, 0.0], [-0.0],
    ])
    def test_rejected(self, w):
        with pytest.raises(OutOfRangeError):
            WeightedSampleMeasure("r", np.array(w))

    def test_mean_underflowing_to_zero_rejected(self):
        # accepted, and both distances were then nan from w / 0
        with pytest.raises(OutOfRangeError, match="underflows"):
            WeightedSampleMeasure("a", [5e-324, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(OutOfRangeError):
            WeightedSampleMeasure("r", np.array([]))

    def test_finite_weights_whose_sum_overflows_accepted(self):
        mu = WeightedSampleMeasure("r", np.array([1e308, 1e308]))
        assert mu.normalization == math.inf
        with np.errstate(over="ignore"):
            want = mu.weights / mu.weights.sum()
        assert mu.normalized().tobytes() == want.tobytes()

    def test_negative_zero_weights_accepted(self):
        mu = WeightedSampleMeasure("r", np.array([-0.0, 2.0]))
        assert mu.normalization == 1.0
