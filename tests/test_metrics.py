"""Quasi-norms and the shared-reference Hellinger / total-variation
estimator, checked against quadrature oracles for Gaussian pairs."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import integrate

from stableinfer import (
    MismatchedReferenceError,
    OutOfRangeError,
    QuasiNormSpec,
    StableParams,
    WeightedSampleMeasure,
    cauchy_pdf,
    distances,
    expectation_gap_bound_check,
    normal_pdf,
    sample_stable,
)
from stableinfer import metrics
from stableinfer.metrics import _tree_sums, rowwise_quasi_norm
from textbook import bits as _bits, textbook_distances


class TestQuasiNorm:
    def test_ell1_pair(self):
        assert rowwise_quasi_norm([1.0, 1.0], QuasiNormSpec(q=1.0))[0] == 2.0

    def test_half_exponent_pair(self):
        assert rowwise_quasi_norm([1.0, 1.0], QuasiNormSpec(q=0.5))[0] == pytest.approx(4.0)

    def test_sup_norm(self):
        assert rowwise_quasi_norm([1.0, -3.0, 2.0], QuasiNormSpec(q=math.inf))[0] == 3.0

    def test_homogeneity_exact(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(50)
        for q in (0.5, 1.0, 2.0, math.inf):
            norm = rowwise_quasi_norm(np.stack([v, 3.5 * v]), QuasiNormSpec(q=q))
            assert norm[1] == pytest.approx(3.5 * norm[0], rel=1e-12)

    def test_quasi_triangle_inequality_half(self):
        rng = np.random.default_rng(1)
        spec = QuasiNormSpec(q=0.5)
        c = max(1.0, 2.0 ** (1.0 / spec.q - 1.0))
        assert c == pytest.approx(2.0)
        u, v = rng.standard_normal((2, 1000, 8))
        norm = rowwise_quasi_norm(np.concatenate([u + v, u, v]), spec).reshape(3, -1)
        assert np.all(norm[0] <= c * (norm[1] + norm[2]) + 1e-12)

    def test_plain_triangle_for_q_at_least_one(self):
        rng = np.random.default_rng(2)
        for q in (1.0, 1.5, 2.0):
            assert max(1.0, 2.0 ** (1.0 / q - 1.0)) == 1.0
            u, v = rng.standard_normal((2, 200, 6))
            spec = QuasiNormSpec(q=q)
            norm = rowwise_quasi_norm(np.concatenate([u + v, u, v]), spec).reshape(3, -1)
            assert np.all(norm[0] <= norm[1] + norm[2] + 1e-12)

    def test_invalid_exponent(self):
        with pytest.raises(OutOfRangeError):
            QuasiNormSpec(q=0.0)

    @pytest.mark.parametrize("q", [0.25, 0.5, 1.0, 2.0, 3.0, math.inf])
    def test_one_column_has_the_bits_of_the_row_reduction(self, q):
        column = np.r_[np.random.default_rng(4).standard_cauchy(2 ** 12),
                       0.0, -0.0, 5e-324, 1e-160, -1e-160, 1e200, -1e200][:, None]
        m = np.abs(column)
        with np.errstate(over="ignore"):  # 1e200 ** 2 is inf, and so is its norm
            want = m.max(axis=1) if math.isinf(q) else (m ** q).sum(axis=1) ** (1.0 / q)
            got = rowwise_quasi_norm(column, QuasiNormSpec(q=q))
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 40), cols=st.integers(1, 300),
           q=st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.7, math.inf]), seed=st.integers(0, 2 ** 32))
    def test_prefix_norms_of_one_power_array_are_the_rowwise_norms(self, rows, cols, q, seed):
        # flom raises a block's |c|^q once and takes its cuts from prefix
        # views of the powers: each cut's norms have the bits of the
        # norms of the cut columns, and the powers are left as they are
        block = np.random.default_rng(seed).standard_cauchy((rows, cols))
        powers = metrics._powers(block, q)
        before = powers.copy()
        for cut in sorted({1, max(cols // 4, 1), max(cols // 2, 1), cols}):
            got = metrics._norms_of_powers(powers[:, :cut], q)
            want = rowwise_quasi_norm(block[:, :cut], QuasiNormSpec(q=q))
            assert got.tobytes() == want.tobytes()
        assert powers.tobytes() == before.tobytes()


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
        assert distances(mu, nu).hellinger == 0.0

    def test_disjoint_supports_maximal(self):
        w = np.array([1.0, 1.0, 0.0, 0.0])
        v = np.array([0.0, 0.0, 1.0, 1.0])
        d = distances(WeightedSampleMeasure("r", w), WeightedSampleMeasure("r", v)).hellinger
        assert d == pytest.approx(math.sqrt(2.0))

    def test_gaussian_pair_against_quadrature(self, gaussian_pair_on_cauchy_reference):
        _, mu, nu = gaussian_pair_on_cauchy_reference
        d, se, _ = distances(mu, nu)
        oracle_sq, _ = integrate.quad(
            lambda x: (math.sqrt(normal_pdf(0, 1, x)) - math.sqrt(normal_pdf(1, 1, x))) ** 2,
            -30, 30,
        )
        assert abs(d - math.sqrt(oracle_sq)) < 3.0 * se

    def test_mismatched_reference_rejected(self):
        mu = WeightedSampleMeasure("a", np.ones(4))
        nu = WeightedSampleMeasure("b", np.ones(4))
        with pytest.raises(MismatchedReferenceError):
            distances(mu, nu)

    def test_symmetry_exact(self, gaussian_pair_on_cauchy_reference):
        _, mu, nu = gaussian_pair_on_cauchy_reference
        assert distances(mu, nu).hellinger == distances(nu, mu).hellinger

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
                d, se, _ = distances(mu, nu)
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
        d01 = distances(measures[0], measures[1]).hellinger
        d12 = distances(measures[1], measures[2]).hellinger
        d02 = distances(measures[0], measures[2]).hellinger
        assert d02 <= d01 + d12 + 3.0 / math.sqrt(n)


class TestTotalVariation:
    def test_identical_weights(self):
        w = np.linspace(0.1, 1.0, 10)
        assert distances(
            WeightedSampleMeasure("r", w), WeightedSampleMeasure("r", w.copy())
        ).total_variation == 0.0

    def test_disjoint_supports(self):
        w = np.array([2.0, 0.0])
        v = np.array([0.0, 2.0])
        assert distances(
            WeightedSampleMeasure("r", w), WeightedSampleMeasure("r", v)
        ).total_variation == pytest.approx(1.0)

    def test_gaussian_pair_against_quadrature(self, gaussian_pair_on_cauchy_reference):
        _, mu, nu = gaussian_pair_on_cauchy_reference
        tv = distances(mu, nu).total_variation
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
            dh, _, tv = distances(mu, nu)
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

    def test_matches_the_textbook_expressions_to_the_bit(self, gaussian_pair_on_cauchy_reference):
        # more than one leaf of `metrics._tree_sums`, and an f of both signs
        u, mu, nu = gaussian_pair_on_cauchy_reference
        f = np.tanh(u)
        out = expectation_gap_bound_check(f, mu, nu)
        d_h = textbook_distances(mu.weights, nu.weights)[0]
        wm, wn = mu.normalized(), nu.normalized()
        e_mu, e_nu = float(wm @ f), float(wn @ f)
        se = math.sqrt(float(wm ** 2 @ (f - e_mu) ** 2)) + math.sqrt(float(wn ** 2 @ (f - e_nu) ** 2))
        rhs = math.sqrt(2.0) * math.sqrt(float(wm @ f ** 2) + float(wn @ f ** 2)) * d_h
        lhs = abs(e_mu - e_nu)
        assert [_bits(v) for v in (out.lhs, out.rhs, out.rhs_sup_bound)] == [
            _bits(v) for v in (lhs, rhs, 2.0 * float(np.abs(f).max()) * d_h)]
        assert out.holds is (lhs <= rhs + 3.0 * se)

    @pytest.mark.parametrize("n", [2 ** 18, 10 ** 6])
    def test_working_memory_is_below_three_vectors(self, traced_peak, n):
        # the distance takes the first pass of the distance kernel alone,
        # with no psi buffer, and each measure's moments are taken in turn
        rng = np.random.default_rng(8)
        mu = WeightedSampleMeasure("r", rng.random(n))
        nu = WeightedSampleMeasure("r", rng.random(n))
        f = rng.standard_normal(n)
        assert traced_peak(expectation_gap_bound_check, f, mu, nu) < 3 * 8 * n + 2 ** 20

    def test_weight_validation(self):
        with pytest.raises(OutOfRangeError):
            WeightedSampleMeasure("r", np.array([1.0, -0.5]))
        with pytest.raises(OutOfRangeError):
            WeightedSampleMeasure("r", np.zeros(3))


# ---------------------------------------------------------------------------
# the fused distance kernel and the weight validation, pinned to the
# textbook expressions bit for bit
# ---------------------------------------------------------------------------

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


def _seeded_weights(gen, n, decades):
    """Weights spread over 10^-decades..10^decades, a tenth of them zero and
    a twentieth subnormal."""
    w = 10.0 ** (decades * gen.uniform(-1.0, 1.0, n))
    w[gen.random(n) < 0.1] = 0.0
    subnormal = gen.random(n) < 0.05
    w[subnormal] = gen.uniform(0.0, 2.2e-308, subnormal.sum())
    return w


@st.composite
def several_leaf_pairs(draw):
    """Pairs over 1 to 6 leaves of 128 rows plus a remainder, built from a
    seed (hypothesis draws too few floats for arrays this long): equal,
    slightly perturbed as in a sweep, or independent."""
    n = 128 * draw(st.integers(1, 6)) + draw(st.integers(0, 127))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    decades = draw(st.sampled_from([0.5, 5.0, 300.0]))
    w = _seeded_weights(gen, n, decades)
    kind = draw(st.sampled_from(["equal", "perturbed", "independent"]))
    if kind == "equal":
        return w, w.copy()
    if kind == "perturbed":
        return w, w * np.exp(0.01 * gen.standard_normal(n))
    return w, _seeded_weights(gen, n, decades)


@st.composite
def leaves_and_values(draw):
    """A leaf size and up to 20 leaves of Cauchy values at one of three
    scales, with zeros, subnormals and 1e300 put in; one case in ten also
    holds a nan or an infinity."""
    leaf = draw(st.sampled_from([128, 1000, metrics._LEAF]))
    n = max(1, leaf * draw(st.integers(0, 19)) + draw(st.integers(0, leaf)))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = gen.standard_cauchy(n) * draw(st.sampled_from([1e-310, 1.0, 1e290]))
    special = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300])
    values = draw(st.lists(st.tuples(st.integers(0, n - 1), special), max_size=8))
    if draw(st.integers(0, 9)) == 0:
        nonfinite = st.sampled_from([math.nan, math.inf, -math.inf])
        values += draw(st.lists(st.tuples(st.integers(0, n - 1), nonfinite),
                                min_size=1, max_size=2))
    for position, value in values:
        x[position] = value
    return leaf, x


class TestTreeSums:
    """`_tree_sums` against numpy's own `arr.sum()`: this pins the order of
    numpy's pairwise summation, which every reported sum relies on."""

    @settings(max_examples=150, deadline=None)
    @given(leaves_and_values())
    @example((128, np.r_[np.ones(300), math.inf, -math.inf, np.ones(40)]))
    @example((128, np.r_[np.ones(500), math.nan]))
    def test_sums_have_the_bits_of_numpy_sum(self, case):
        leaf, x = case
        with mock.patch.object(metrics, "_LEAF", leaf), np.errstate(all="ignore"):
            got = _tree_sums(x.size, lambda a, b: (x[a:b].sum(), np.square(x[a:b]).sum()))
            want = (x.sum(), np.square(x).sum())
        assert [_bits(v) for v in got] == [_bits(v) for v in want]

    def test_leaf_below_numpy_block_rejected(self):
        with mock.patch.object(metrics, "_LEAF", 127), pytest.raises(ValueError, match="128"):
            _tree_sums(1000, lambda a, b: (1.0,))


# the small_leaf fixture patches a constant, the same for every example
_FIXTURE_OK = [HealthCheck.function_scoped_fixture]


class TestFusedKernel:
    @settings(max_examples=300, deadline=None, suppress_health_check=_FIXTURE_OK)
    @given(st.one_of(weight_pairs(), several_leaf_pairs()))
    @example(([3.0], [0.5]))
    @example(([1.0, 0.0], [0.0, 1.0]))
    @example(([1.0, 2.0], [1.0, 2.0]))
    @example(([5e-324, 1.0], [1.0, 5e-324]))
    @example(([0.0, 0.0, 7.0], [1e300, 0.0, 1e-300]))
    def test_distances_match_textbook_bits(self, small_leaf, pair):
        w, v = (np.array(x, dtype=float) for x in pair)
        mu, nu = WeightedSampleMeasure("r", w), WeightedSampleMeasure("r", v)
        with np.errstate(all="ignore"):
            want = textbook_distances(w, v)
            got = distances(mu, nu)
        assert [_bits(x) for x in got] == [_bits(x) for x in want]

    @settings(max_examples=200, deadline=None, suppress_health_check=_FIXTURE_OK)
    @given(st.one_of(weight_pairs(), several_leaf_pairs()))
    def test_normalization_matches_textbook_bits(self, small_leaf, pair):
        w, _ = pair
        mu = WeightedSampleMeasure("r", w)
        assert _bits(mu.normalization) == _bits(w.mean())
        assert mu.normalized().tobytes() == (w / w.sum()).tobytes()

    @settings(max_examples=200, deadline=None, suppress_health_check=_FIXTURE_OK)
    @given(several_leaf_pairs())
    def test_psi_written_over_the_weights_keeps_the_textbook_bits(self, small_leaf, pair):
        # as in the sweeps: the kernel's psi terms go into the buffer that
        # holds the second measure's weights
        w, v = pair
        buffer = v.copy()
        with np.errstate(all="ignore"):
            want = textbook_distances(w, v)
            got = metrics._distances(w / w.mean(), buffer, float(v.mean()), buffer)
        assert [_bits(x) for x in got] == [_bits(x) for x in want]

    def test_weights_left_untouched(self, small_leaf):
        gen = np.random.default_rng(7)
        w, v = _seeded_weights(gen, 700, 5.0), _seeded_weights(gen, 700, 5.0)
        mu, nu = WeightedSampleMeasure("r", w.copy()), WeightedSampleMeasure("r", v.copy())
        d = distances(mu, nu).hellinger
        assert d > 0.0  # so the kernel wrote its psi terms
        assert mu.weights.tobytes() == w.tobytes()
        assert nu.weights.tobytes() == v.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 60).flatmap(lambda n: st.tuples(_bounded_weights(n),
                                                          _bounded_weights(n))))
    def test_total_variation_below_hellinger_below_root_two(self, pair):
        mu, nu = (WeightedSampleMeasure("r", x) for x in pair)
        dh, _, tv = distances(mu, nu)
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

    @pytest.mark.parametrize("bad", [-1e-300, math.nan, -math.inf, math.inf])
    @pytest.mark.parametrize("position", [0, 300, 999])
    def test_rejected_in_any_leaf(self, small_leaf, bad, position):
        w = np.ones(1000)
        w[position] = bad
        with pytest.raises(OutOfRangeError):
            WeightedSampleMeasure("r", w)

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
