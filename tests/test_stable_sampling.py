"""Sampler correctness: KS against analytic distribution functions,
agreement between independent constructions, and the characteristic
function as an end-to-end oracle for the skewed cases."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special, stats

from stableinfer import (
    StableParams,
    cauchy_cdf,
    char_fn,
    convolve,
    sample_cauchy_via_circle,
    sample_cauchy_via_ratio,
    sample_stable,
    validate_params,
)
from stableinfer.gof import (
    ks_critical_value,
    ks_statistic,
    ks_two_sample_critical_value,
    ks_two_sample_statistic,
)
from stableinfer.stable import _cos, _sin, _sin_quadrant, standard_stable_from_uniforms

N = 10 ** 5


def normal_cdf(mean, std, u):
    return 0.5 * (1.0 + special.erf((np.asarray(u) - mean) / (std * math.sqrt(2.0))))


class TestSampleStable:
    def test_empty(self):
        assert sample_stable(StableParams.cauchy(0, 1), 0, 1).size == 0

    def test_point_mass(self):
        draws = sample_stable(validate_params(1.5, 0.2, 0.0, 4.0), 100, 1)
        assert np.all(draws == 4.0)

    def test_deterministic_in_seed(self):
        p = validate_params(1.5, 0.2, 1.0, 0.0)
        assert np.array_equal(sample_stable(p, 1000, 42), sample_stable(p, 1000, 42))

    def test_cauchy_ks(self):
        draws = sample_stable(StableParams.cauchy(0.5, 2.0), N, 101)
        d = ks_statistic(draws, lambda u: cauchy_cdf(0.5, 2.0, u))
        assert d < ks_critical_value(N, 0.01)

    def test_gaussian_ks_against_erf(self):
        p = StableParams.normal(-1.0, 2.0)
        draws = sample_stable(p, N, 102)
        d = ks_statistic(draws, lambda u: normal_cdf(-1.0, 2.0, u))
        assert d < ks_critical_value(N, 0.01)

    @pytest.mark.parametrize("alpha,beta", [(1.5, 0.5), (0.8, -0.3), (1.0, 0.4)])
    def test_empirical_charfn_matches(self, alpha, beta):
        # the sampler and the closed-form characteristic function are
        # independent routes to the same law
        p = validate_params(alpha, beta, 1.0, 0.0)
        draws = sample_stable(p, 10 ** 6, 103)
        for t in (0.5, 1.0, 2.0):
            emp = np.exp(1j * t * draws).mean()
            se = 3.0 / math.sqrt(draws.size)
            assert abs(emp - char_fn(p, t)) < se


def _ulps(got, x, exact=mpmath.sin):
    """|got - f(x)| in units in the last place of f(x), f in 40-digit mpmath."""
    with mpmath.workdps(40):
        errs = []
        for g, v in zip(np.ravel(got).tolist(), np.ravel(x).tolist()):
            want = exact(mpmath.mpf(v))
            unit = np.spacing(abs(float(want))) if want else 2.0 ** -1074
            errs.append(float(abs(mpmath.mpf(g) - want) / unit))
        return max(errs)


_PIO2, _PI = 1.5707963267948966, 3.141592653589793


class TestSineKernel:
    """The CMS sampler's sine and cosine: one odd polynomial on [0, pi/2],
    within 2 ulp of the exact value (about 1% of points are past 1 ulp;
    libm's are within 1)."""

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, _PIO2))
    def test_quadrant_within_two_ulp(self, r):
        assert _ulps(_sin_quadrant(np.array([r])), [r]) <= 2.0

    def test_quadrant_within_two_ulp_on_a_dense_grid(self):
        r = np.concatenate([np.linspace(0.0, _PIO2, 20001), np.geomspace(1e-12, _PIO2, 2000)])
        assert _ulps(_sin_quadrant(r), r) <= 2.0

    def test_quadrant_at_its_ends(self):
        r = np.array([0.0, 5e-324, 2.0 ** -30, _PIO2])
        got = _sin_quadrant(r)
        assert got[:2].tolist() == [0.0, 5e-324] and got[3] == 1.0
        assert _ulps(got, r) <= 2.0

    def test_folded_arguments_near_half_pi_and_pi(self):
        # sin x past pi/2 is sin((pi - |x|)), cos x is sin(pi/2 - |x|); the
        # differences are exact, and the second half of each constant keeps
        # the relative precision of a small result
        near = [_PIO2, np.nextafter(_PIO2, 0.0), np.nextafter(_PIO2, 4.0), 2.0, _PI - 2.0 ** -20,
                np.nextafter(_PI, 0.0), _PI, 0.5, 2.0 ** -30]
        x = np.array(near + [-v for v in near])
        assert _ulps(_sin(x), x) <= 2.0
        c = x[np.abs(x) <= _PIO2]
        assert _ulps(_cos(c), c, mpmath.cos) <= 2.0
        assert _cos(np.array([0.0, -0.0])).tolist() == [1.0, 1.0]
        assert _cos(_PIO2) == pytest.approx(6.123233995736766e-17, rel=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-_PI, _PI))
    def test_sine_and_cosine_on_the_sampler_domains(self, x):
        # the measured worst cases on dense grids are 1.8 (sine) and 1.9 ulp (cosine)
        assert _ulps(_sin(np.array([x])), [x]) <= 2.0
        if abs(x) <= _PIO2:
            assert _ulps(_cos(np.array([x])), [x], mpmath.cos) <= 2.0


def _general_alpha_one(beta, u1, u2):
    """The alpha = 1 Chambers-Mallows-Stuck expression, every term kept,
    on the sampler's own cosine."""
    v = math.pi * (u1 - 0.5)
    w = np.clip(-np.log1p(-u2), 1e-300, None)
    b = math.pi / 2.0 + beta * v
    return (2.0 / math.pi) * (
        b * np.tan(v) - beta * np.log((math.pi / 2.0) * w * _cos(v) / b)
    )


class TestSymmetricCauchyShortcut:
    ALPHAS = (1.0, 1.0 + 9e-9, 1.0 - 9e-9)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("beta", [0.0, -0.0, np.zeros((1, 3))])
    def test_edge_uniforms_bitwise(self, alpha, beta):
        top = 1.0 - 2.0 ** -53
        u1, u2 = np.meshgrid([0.0, 0.5, top, 2.0 ** -53, 0.5 + 2.0 ** -53], [0.0, top, 0.5])
        u1 = np.repeat(u1.reshape(-1, 1), 3, axis=1)
        u2 = np.repeat(u2.reshape(-1, 1), 3, axis=1)
        got = standard_stable_from_uniforms(alpha, beta, u1, u2)
        want = _general_alpha_one(np.asarray(beta), u1, u2)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_random_uniforms_bitwise(self, alpha):
        u = np.random.default_rng(31).random((10 ** 5, 2, 2))
        beta = np.zeros((1, 2))
        got = standard_stable_from_uniforms(alpha, beta, u[:, :, 0], u[:, :, 1])
        assert got.tobytes() == _general_alpha_one(beta, u[:, :, 0], u[:, :, 1]).tobytes()

    def test_mixed_skewness_takes_the_general_path(self):
        u = np.random.default_rng(32).random((1000, 4, 2))
        beta = np.array([[0.0, 0.5, 0.0, -0.3]])
        got = standard_stable_from_uniforms(1.0, beta, u[:, :, 0], u[:, :, 1])
        assert got.tobytes() == _general_alpha_one(beta, u[:, :, 0], u[:, :, 1]).tobytes()

    def test_zero_skewness_broadcasting_beyond_the_uniforms(self):
        u = np.random.default_rng(33).random((5, 2))
        beta = np.zeros((3, 5))
        got = standard_stable_from_uniforms(1.0, beta, u[:, 0], u[:, 1])
        assert got.shape == (3, 5)
        assert got.tobytes() == _general_alpha_one(beta, u[:, 0], u[:, 1]).tobytes()


def _exponential(alpha, u2):
    """-log(1 - u2), floored as the transform floors it."""
    floor = max(1e-300, 10.0 ** (-290.0 * alpha / (1.0 - alpha))) if alpha < 1.0 else 1e-300
    return np.clip(-np.log1p(-u2), floor, None)


def _general(alpha, beta, u1, u2):
    """The alpha != 1 Chambers-Mallows-Stuck expression, every term kept,
    on the sampler's own sine and cosine."""
    v = math.pi * (u1 - 0.5)
    w = _exponential(alpha, u2)
    zeta = beta * math.tan(math.pi * alpha / 2.0)
    t0 = np.arctan(zeta) / alpha
    z = (
        _sin(alpha * (v + t0))
        / (_cos(alpha * t0) * _cos(v)) ** (1.0 / alpha)
        * (_cos(alpha * t0 + (alpha - 1.0) * v) / w) ** ((1.0 - alpha) / alpha)
    )
    return z - zeta


_TOP = 1.0 - 2.0 ** -53
_UNIFORMS = (st.sampled_from([0.0, 0.5, _TOP, 2.0 ** -53, 0.5 - 2.0 ** -54, 0.5 + 2.0 ** -53])
             | st.floats(0.0, 1.0, exclude_max=True))


class TestUnskewedInPlace:
    @settings(max_examples=300, deadline=None)
    @given(alpha=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True).filter(
               lambda a: abs(a - 1.0) >= 1e-8) | st.sampled_from([0.05, 0.5, 2.0 / 3.0, 1.5]),
           beta=st.sampled_from([0.0, -0.0, "row"]),
           u=arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 4), st.just(2)),
                    elements=_UNIFORMS))
    def test_matches_the_general_expression(self, alpha, beta, u):
        # alpha < 1 includes the range where the floor of w is active
        beta = np.zeros((1, u.shape[1])) if beta == "row" else beta
        with np.errstate(all="ignore"):  # edge uniforms overflow both alike
            got = standard_stable_from_uniforms(alpha, beta, u[:, :, 0], u[:, :, 1])
            want = _general(alpha, beta, u[:, :, 0], u[:, :, 1])
        assert got.shape == want.shape
        # below alpha = 1 the non-finite draws are formed again from logs
        # (TestEdgeUniformsBelowOne); every finite one keeps its bits
        kept = np.isfinite(want) if alpha < 1.0 else np.ones(want.shape, bool)
        assert got[kept].tobytes() == want[kept].tobytes()
        assert not np.isnan(got).any()

    @pytest.mark.parametrize("beta", [0.0, -0.0])
    def test_underflowed_draw_keeps_its_signed_zero(self, beta):
        # at alpha = 0.001 the w power underflows, so z is -0 for u1 < 0.5;
        # zeta = -0 for beta = -0, and z - zeta is then +0
        u1, u2 = np.array([0.25, 0.75]), np.array([_TOP, _TOP])
        got = standard_stable_from_uniforms(0.001, beta, u1, u2)
        want = _general(0.001, beta, u1, u2)
        assert not want.any()
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("alpha", [1.5, 0.7])
    def test_zero_skewness_broadcasting_beyond_the_uniforms(self, alpha):
        u = np.random.default_rng(34).random((5, 2))
        beta = np.zeros((3, 5))
        got = standard_stable_from_uniforms(alpha, beta, u[:, 0], u[:, 1])
        assert got.shape == (3, 5)
        assert got.tobytes() == _general(alpha, beta, u[:, 0], u[:, 1]).tobytes()

    @pytest.mark.parametrize("alpha", [1.5, 0.7])
    def test_mixed_skewness_takes_the_general_path(self, alpha):
        u = np.random.default_rng(35).random((1000, 4, 2))
        beta = np.array([[0.0, 0.5, 0.0, -0.3]])
        got = standard_stable_from_uniforms(alpha, beta, u[:, :, 0], u[:, :, 1])
        assert got.tobytes() == _general(alpha, beta, u[:, :, 0], u[:, :, 1]).tobytes()

    def test_gaussian_branch_matches_the_textbook_expression(self):
        u = np.random.default_rng(36).random((1000, 4, 2))
        u[0, :, 0] = [0.0, 0.5, _TOP, 2.0 ** -53]
        u[0, :, 1] = [0.0, 0.5, _TOP, 2.0 ** -53]
        v = math.pi * (u[:, :, 0] - 0.5)
        want = 2.0 * _sin(v) * np.sqrt(_exponential(2.0, u[:, :, 1]))
        got = standard_stable_from_uniforms(2.0, 0.0, u[:, :, 0], u[:, :, 1])
        assert got.tobytes() == want.tobytes()


def _exact_below_one(alpha, beta, u1, u2):
    """The alpha < 1 expression in 40-digit arithmetic, at the float
    arguments the transform forms (so an argument rounded near pi/2 is
    judged as the transform sees it); the last cosine is floored at 0 as
    in exact arithmetic."""
    v = math.pi * (u1 - 0.5)
    w = _exponential(alpha, u2)
    zeta = beta * math.tan(math.pi * alpha / 2.0)
    t0 = np.arctan(zeta) / alpha
    head, mid, last = alpha * (v + t0), alpha * t0, alpha * t0 + (alpha - 1.0) * v
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        return [mpmath.sin(h) / (mpmath.cos(m) * mpmath.cos(x)) ** (1 / a)
                * (max(mpmath.cos(c), 0) / y) ** ((1 - a) / a) - z
                for h, m, x, c, y, z in zip(*(np.broadcast_to(q, v.shape).ravel().tolist()
                                               for q in (head, mid, v, last, w, zeta)))]


class TestEdgeUniformsBelowOne:
    """At alpha < 1, cos(v)^(-1/alpha) and the w power overflow and
    underflow apart near u1 = 0 and 1; a draw is +-inf only where the
    exact value leaves the float range, and never nan."""

    EDGES = [0.0, 2.0 ** -53, 0.25, 0.5, _TOP]

    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.1, 0.5, 0.9])
    @pytest.mark.parametrize("beta", [0.0, -1.0, 0.5])
    def test_edge_draws_follow_the_exact_value(self, alpha, beta):
        u1, u2 = (g.ravel() for g in np.meshgrid(self.EDGES, self.EDGES))
        with np.errstate(all="ignore"):
            got = standard_stable_from_uniforms(alpha, beta, u1, u2)
        for g, want in zip(got.tolist(), _exact_below_one(alpha, beta, u1, u2)):
            if abs(want) > np.finfo(float).max:
                assert g == math.copysign(math.inf, want)
            else:
                assert g == pytest.approx(float(want), rel=1e-9, abs=1e-300)

    def test_half_at_the_lowest_uniforms(self):
        # the exact value, -1.3e322 at the floored w, is past the float range
        with np.errstate(over="ignore"):
            assert standard_stable_from_uniforms(0.5, 0.0, 0.0, 0.0) == -math.inf

    @pytest.mark.parametrize("alpha,beta", [(0.001, 0.0), (0.5, 0.0), (0.1, -1.0), (0.9, 0.5)])
    def test_repaired_edge_draws_raise_no_warning(self, alpha, beta):
        # the first pass's divide, overflow and invalid-value warnings are
        # about draws formed again from logs, which the suite makes errors
        u1, u2 = (g.ravel() for g in np.meshgrid(self.EDGES, self.EDGES))
        got = standard_stable_from_uniforms(alpha, beta, u1, u2)
        assert not np.isnan(got).any()
        assert standard_stable_from_uniforms(0.001, 0.0, 0.0, 0.5) == -math.inf

    @pytest.mark.parametrize("u1", [0.0, 2.0 ** -53, _TOP])
    def test_no_nan_at_alpha_one_thousandth(self, u1):
        u2 = np.array([0.0, 2.0 ** -53, 0.5, _TOP])
        with np.errstate(all="ignore"):
            got = standard_stable_from_uniforms(0.001, 0.0, np.full(4, u1), u2)
        assert np.all(got == (math.inf if u1 > 0.5 else -math.inf))

    @pytest.mark.parametrize("alpha,beta", [(0.3, 0.0), (0.7, -0.4), (0.05, 0.9)])
    def test_interior_draws_keep_their_bits(self, alpha, beta):
        u = np.random.default_rng(38).random((10 ** 4, 2))
        got = standard_stable_from_uniforms(alpha, beta, u[:, 0], u[:, 1])
        assert np.isfinite(got).all()
        assert got.tobytes() == _general(alpha, beta, u[:, 0], u[:, 1]).tobytes()


@pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (2.0, 0.0), (1.0, 0.4), (1.5, 0.0),
                                        (1.5, -0.3), (0.7, 0.5), (0.7, 0.0)])
def test_uniforms_are_left_unmodified(alpha, beta):
    # strided views into one array, as the coefficient sampler passes them
    u = np.random.default_rng(37).random((100, 3, 2))
    before = u.copy()
    standard_stable_from_uniforms(alpha, beta, u[:, :, 0], u[:, :, 1])
    u1, u2 = before[:, :, 0].copy(), before[:, :, 1].copy()
    standard_stable_from_uniforms(alpha, beta, u1, u2)
    assert u.tobytes() == before.tobytes()
    assert u1.tobytes() == before[:, :, 0].tobytes()
    assert u2.tobytes() == before[:, :, 1].tobytes()


@pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (2.0, 0.0), (1.0, 0.4), (1.5, 0.0),
                                        (1.5, -0.3), (0.7, 0.5)])
def test_scalar_uniforms_match_one_element_arrays(alpha, beta):
    # every branch of the transform; scalars raised TypeError from the
    # in-place floor of the exponential draw
    scalar = standard_stable_from_uniforms(alpha, beta, 0.3, 0.7)
    array = standard_stable_from_uniforms(alpha, beta, np.array([0.3]), np.array([0.7]))
    assert np.ndim(scalar) == 0 and array.shape == (1,)
    assert np.float64(scalar).tobytes() == array.tobytes()


class TestCharFn:
    def test_gaussian_value(self):
        assert char_fn(validate_params(2, 0, 1 / math.sqrt(2), 0), 1.0) == pytest.approx(
            math.exp(-0.5)
        )

    def test_symmetric_cauchy_value(self):
        assert char_fn(StableParams.cauchy(0, 1), 2.0) == pytest.approx(math.exp(-2.0))

    @pytest.mark.parametrize("alpha,beta", [(0.6, 0.4), (1.0, -0.7), (1.4, 0.9), (2.0, 0.0)])
    def test_conjugate_symmetry_and_modulus(self, alpha, beta):
        p = validate_params(alpha, beta, 1.3, 0.7)
        t = np.linspace(-4, 4, 41)
        vals = char_fn(p, t)
        assert np.allclose(char_fn(p, -t), np.conj(vals), rtol=1e-13)
        assert np.allclose(np.abs(vals), np.exp(-np.abs(p.gamma * t) ** alpha), rtol=1e-13)

    def test_point_mass_phase(self):
        p = validate_params(1.0, 0.5, 0.0, 2.0)
        assert char_fn(p, 3.0) == pytest.approx(complex(np.exp(1j * 6.0)))


class _StubGenerator:
    """Duck-typed generator returning queued arrays, for pinning draws."""

    def __init__(self, batches):
        self.batches = list(batches)

    def standard_normal(self, n):
        out = np.asarray(self.batches.pop(0), dtype=float)
        assert out.size == n
        return out

    def random(self, *a, **k):  # pragma: no cover - seam completeness
        raise NotImplementedError

    def uniform(self, *a, **k):  # pragma: no cover
        raise NotImplementedError


class TestRatioConstruction:
    def test_ks_against_analytic(self):
        draws = sample_cauchy_via_ratio(1.0, 0.0, N, 201)
        assert ks_statistic(draws, lambda u: cauchy_cdf(0.0, 1.0, u)) < ks_critical_value(N)

    def test_two_sample_against_direct(self):
        a = sample_cauchy_via_ratio(1.0, 0.0, N, 202)
        b = sample_stable(StableParams.cauchy(0.0, 1.0), N, 203)
        assert ks_two_sample_statistic(a, b) < ks_two_sample_critical_value(N, N)

    def test_forced_unit_denominator(self):
        stub = _StubGenerator([[0.3, -1.2, 4.0], [1.0, 1.0, 1.0]])
        draws = sample_cauchy_via_ratio(2.0, 5.0, 3, stub)
        assert np.allclose(draws, 5.0 + 2.0 * np.array([0.3, -1.2, 4.0]))

    def test_zero_denominator_redrawn(self):
        stub = _StubGenerator([[1.0, 2.0], [0.0, 1.0], [3.0]])
        draws = sample_cauchy_via_ratio(1.0, 0.0, 2, stub)
        assert np.allclose(draws, [1.0 / 3.0, 2.0])

    def test_median_centres_on_delta(self):
        draws = sample_cauchy_via_ratio(2.0, 5.0, N, 204)
        # median of n Cauchy draws has asymptotic std (pi/2) gamma / sqrt(n)
        se = (math.pi / 2.0) * 2.0 / math.sqrt(N)
        assert abs(np.median(draws) - 5.0) < 3.0 * se


class TestCircleProjection:
    def test_ks_against_analytic(self):
        draws = sample_cauchy_via_circle(1.0, N, 301)
        assert ks_statistic(draws, lambda u: cauchy_cdf(0.0, 1.0, u)) < ks_critical_value(N)

    def test_axis_maps_to_foot_point(self):
        assert 1.0 * math.tan(0.0) == 0.0

    def test_scale_equivariance_same_seed(self):
        a = sample_cauchy_via_circle(1.0, 1000, 302)
        b = sample_cauchy_via_circle(3.0, 1000, 302)
        assert np.allclose(b, 3.0 * a, rtol=1e-12)


class TestConvolutionSampling:
    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (1.5, 0.3), (1.5, -0.3), (0.8, 0.0)])
    def test_closure_two_sample_ks(self, alpha, beta):
        p1 = validate_params(alpha, beta, 1.0, 0.2)
        p2 = validate_params(alpha, beta, 0.7, -0.4)
        summed = sample_stable(p1, N, 401) + sample_stable(p2, N, 402)
        direct = sample_stable(convolve(p1, p2), N, 403)
        assert ks_two_sample_statistic(summed, direct) < ks_two_sample_critical_value(N, N)

    def test_mixed_skewness_closure(self):
        p1 = validate_params(1.5, 0.5, 1.0, 0.0)
        p2 = validate_params(1.5, -0.5, 2.0, 0.0)
        summed = sample_stable(p1, N, 404) + sample_stable(p2, N, 405)
        direct = sample_stable(convolve(p1, p2), N, 406)
        assert ks_two_sample_statistic(summed, direct) < ks_two_sample_critical_value(N, N)


def test_ks_utilities_agree_with_scipy():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(4000)
    b = rng.standard_normal(5000) * 1.05
    ours = ks_two_sample_statistic(a, b)
    assert ours == pytest.approx(stats.ks_2samp(a, b).statistic, abs=1e-12)
    one = ks_statistic(a, lambda u: normal_cdf(0, 1, u))
    assert one == pytest.approx(stats.kstest(a, "norm").statistic, abs=1e-12)
