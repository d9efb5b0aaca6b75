"""Densities: closed forms, the Fourier-inversion path, and the
divergence-detecting KL integral."""

import math
import warnings
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from stableinfer import (
    MomentValue,
    OutOfRangeError,
    QuadratureFailureError,
    StableParams,
    cauchy_cdf,
    cauchy_logpdf,
    cauchy_pdf,
    kl_divergence_1d,
    normal_logpdf,
    normal_pdf,
    stable_pdf,
    validate_params,
)
from stableinfer.stable import _StandardNumericDensity, _standard_sf


def fourier_pdf(p: StableParams, u: float) -> float:
    """The density of p at u by the QUADPACK Fourier-inversion reference."""
    standard = _StandardNumericDensity(p.alpha, p.beta)
    return standard((u - p.delta) / p.gamma) / p.gamma


class TestCauchyClosedForms:
    def test_pdf_at_centre(self):
        assert cauchy_pdf(0.0, 1.0, 0.0) == pytest.approx(1.0 / math.pi)

    def test_cdf_at_one_width(self):
        # arctan(1) = pi/4
        assert cauchy_cdf(0.0, 1.0, 1.0) == pytest.approx(0.75)

    def test_pdf_mass_near_one_on_huge_window(self):
        # piecewise adaptive quadrature over [-1e6, 1e6]; the heavy tail
        # leaves ~2/(pi*1e6) outside the window
        val = sum(
            integrate.quad(lambda u: cauchy_pdf(0.0, 1.0, u), a, b, limit=200)[0]
            for a, b in ((-1e6, -10.0), (-10.0, 10.0), (10.0, 1e6))
        )
        assert abs(val - 1.0) < 1e-5

    def test_cdf_monotone_with_correct_limits(self):
        u = np.linspace(-50, 50, 1001)
        c = cauchy_cdf(0.3, 2.0, u)
        assert np.all(np.diff(c) > 0)
        assert cauchy_cdf(0.3, 2.0, -1e12) < 1e-10
        assert cauchy_cdf(0.3, 2.0, 1e12) > 1 - 1e-10

    @pytest.mark.parametrize("s", [-1e3, -1e10, -1e15, -1e17, -1e300])
    def test_cdf_lower_tail_against_mpmath(self, s):
        # 1/2 + arctan(s)/pi cancels for s << 0; enough digits to resolve it
        with mp.workdps(400):
            exact = mp.mpf(1) / 2 + mp.atan(mp.mpf(s)) / mp.pi
            assert abs(cauchy_cdf(0.0, 1.0, s) / exact - 1) < 4 * np.finfo(float).eps

    def test_cdf_and_survival_at_subnormal_points(self):
        # 1/|s| overflows to inf there, which must warn of nothing
        tiny = np.array([-1e-310, 1e-310])
        assert np.array_equal(cauchy_cdf(0.0, 1.0, tiny), [0.5, 0.5])
        assert np.array_equal(_standard_sf(1.0, 0.0, tiny), [0.5, 0.5])

    def test_cdf_derivative_matches_pdf(self):
        probes = np.linspace(-8.0, 8.0, 100)
        h = 1e-5
        numeric = (cauchy_cdf(0.1, 1.3, probes + h) - cauchy_cdf(0.1, 1.3, probes - h)) / (2 * h)
        assert np.allclose(numeric, cauchy_pdf(0.1, 1.3, probes), atol=1e-6)

    def test_logpdf_consistency(self):
        u = np.linspace(-30, 30, 11)
        assert np.allclose(np.exp(cauchy_logpdf(0.5, 2.0, u)), cauchy_pdf(0.5, 2.0, u))
        assert np.allclose(np.exp(normal_logpdf(0.5, 2.0, u)), normal_pdf(0.5, 2.0, u))

    def test_zero_width_rejected(self):
        with pytest.raises(OutOfRangeError):
            cauchy_pdf(0.0, 0.0, 1.0)

    def test_logpdf_finite_where_the_square_overflows(self):
        # s^2 overflows past |s| = 1.3e154; the log density stays finite
        assert cauchy_logpdf(0.0, 1.0, 1e200) == pytest.approx(-922.1787670834677, rel=1e-15)
        u = np.array([-1e300, -2e154, -1e151, 1e150, 3e150, 1.5e154, 1e200, 1e300])
        for delta, gamma in ((0.0, 1.0), (2.5, 1e-3), (-1.0, 7.0)):
            want = [float(-mp.log1p(((mp.mpf(x) - delta) / gamma) ** 2) - mp.log(mp.pi * gamma))
                    for x in u]
            assert np.allclose(cauchy_logpdf(delta, gamma, u), want, rtol=1e-15, atol=0.0)
        assert cauchy_logpdf(0.0, 1.0, np.array([np.inf, -np.inf])).tolist() == [-np.inf] * 2

    def test_logpdf_below_the_switch_keeps_the_textbook_bits(self):
        u = np.concatenate([np.linspace(-1e3, 1e3, 2001), [0.0, -0.0, 1e150, -1e150, np.nan]])
        s = (u - 0.25) / 1.5
        want = -np.log1p(s * s) - math.log(1.5 * math.pi)
        assert cauchy_logpdf(0.25, 1.5, u).tobytes() == want.tobytes()

    def test_normal_logpdf_where_the_square_overflows(self):
        # s^2 overflows past |s| = 1.3e154: the log density rounds to -inf,
        # with no overflow warning, scalar or array
        big = np.finfo(float).max
        u = np.array([1e155, -1e200, big, -big])
        for x in u:
            assert normal_logpdf(0.0, 1.0, x) == -np.inf
        assert normal_logpdf(0.0, 1.0, u).tolist() == [-np.inf] * 4
        below = np.array([0.0, 2.5, -1e100, 1e154])
        s = (below - 0.25) / 1.5
        want = -0.5 * s * s - math.log(1.5 * math.sqrt(2.0 * math.pi))
        assert normal_logpdf(0.25, 1.5, below).tobytes() == want.tobytes()

    def test_standardised_point_past_the_float_range(self):
        # (u - loc)/scale overflows in the divide or in the subtract: each
        # closed form returns its limit, with no overflow warning
        big = np.finfo(float).max
        for loc, scale, u in ((0.0, 0.5, big), (0.0, 0.5, -big), (-big, 1.0, big),
                              (big, 1.0, -big), (0.0, 0.5, np.array([big, -big]))):
            for pdf, logpdf in ((normal_pdf, normal_logpdf), (cauchy_pdf, cauchy_logpdf)):
                assert np.all(pdf(loc, scale, u) == 0.0)
                assert np.all(logpdf(loc, scale, u) == -np.inf)
            assert np.array_equal(cauchy_cdf(loc, scale, u), np.asarray(u) > 0.0)


class TestNumericDensity:
    def test_raises_where_its_error_estimate_misses_the_tolerance(self):
        # returned 0.0271909 against mpmath's 0.0271187: QUADPACK's two
        # estimates add up to 7.9e-4 there, and were discarded
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(QuadratureFailureError, match="error estimate"):
                _StandardNumericDensity(0.5, -0.9)(0.95817)

    @pytest.mark.parametrize("u", [0.0, 0.7, -3.0, 25.0])
    def test_matches_closed_form_cauchy(self, u):
        p = StableParams.cauchy(0.3, 1.7)
        assert fourier_pdf(p, u) == pytest.approx(stable_pdf(p, u), rel=1e-10)

    def test_matches_closed_form_gaussian(self):
        p = StableParams.normal(0.5, 2.0)
        for u in (0.0, 1.0, -4.0):
            assert fourier_pdf(p, u) == pytest.approx(stable_pdf(p, u), rel=1e-10)

    def test_general_alpha_integrates_to_one(self):
        p = validate_params(1.5, 0.3, 1.0, 0.0)
        val, _ = integrate.quad(lambda u: stable_pdf(p, u), -200, 200,
                                points=[0.0], limit=100, epsrel=1e-8)
        # remaining tail mass is O(200^-1.5)
        assert abs(val - 1.0) < 2e-3

    def test_location_scale_consistency(self):
        base = validate_params(1.3, -0.4, 1.0, 0.0)
        moved = validate_params(1.3, -0.4, 2.0, 1.5)
        u = 0.8
        assert stable_pdf(moved, u) == pytest.approx(
            stable_pdf(base, (u - 1.5) / 2.0) / 2.0, rel=1e-9
        )

    def test_skewed_alpha_one_integrates_to_one(self):
        # the log-phase branch of the inversion, off the symmetric special case
        p = validate_params(1.0, 0.4, 1.0, 0.0)
        val, _ = integrate.quad(lambda u: stable_pdf(p, u), -300, 300,
                                points=[0.0], limit=100, epsrel=1e-8)
        assert abs(val - 1.0) < 3e-3

    def test_sampler_agrees_with_inverted_density(self):
        # two independent routes to one skewed law: exact transform sampling
        # vs a CDF assembled from the Fourier-inverted density plus
        # power-law tail mass; KS at the 1% level ties them together
        from scipy.interpolate import PchipInterpolator

        from stableinfer import sample_stable, tail_asymptote
        from stableinfer.gof import ks_critical_value, ks_statistic

        p = validate_params(1.5, 0.5, 1.0, 0.0)
        grid = np.linspace(-60.0, 60.0, 1201)
        pdf = stable_pdf(p, grid)
        cdf = np.concatenate([[0.0], np.cumsum(np.diff(grid) * (pdf[1:] + pdf[:-1]) / 2.0)])
        mirrored = validate_params(p.alpha, -p.beta, p.gamma, 0.0)
        cdf += tail_asymptote(mirrored, 60.0).survival  # mass left of the window
        interp = PchipInterpolator(grid, np.clip(cdf, 0.0, 1.0))

        n = 10 ** 5
        draws = sample_stable(p, n, 777)
        d = ks_statistic(draws, lambda u: np.clip(interp(np.clip(u, -60.0, 60.0)), 0.0, 1.0))
        assert d < ks_critical_value(n, 0.01)


# KL(N(0, 1) || C(0, 1)) by mpmath quadrature at 40 digits
KL_NORMAL_CAUCHY = 0.2592445324888622636


class TestKLDivergence:
    def test_identical_densities(self):
        normal = partial(normal_logpdf, 0, 1)
        out = kl_divergence_1d(normal, normal, (-8, 8))
        assert out.is_finite
        assert out.value == 0.0

    def test_normal_against_cauchy_is_finite(self):
        out = kl_divergence_1d(partial(normal_logpdf, 0, 1), partial(cauchy_logpdf, 0, 1), (-8, 8))
        assert out.is_finite
        assert out.value == pytest.approx(KL_NORMAL_CAUCHY, rel=1e-9)

    def test_normal_against_cauchy_against_mpmath(self):
        # the constant above, recomputed
        with mp.workdps(40):
            def f(u):
                lp = -u * u / 2 - mp.log(2 * mp.pi) / 2
                return mp.exp(lp) * (lp + mp.log(mp.pi * (1 + u * u)))
            want = 2 * mp.quad(f, [0, 2, 4, 8, 16, mp.inf])
        assert float(want) == pytest.approx(KL_NORMAL_CAUCHY, rel=1e-15)

    def test_cauchy_against_normal_diverges(self):
        out = kl_divergence_1d(partial(cauchy_logpdf, 0, 1), partial(normal_logpdf, 0, 1), (-8, 8))
        assert out.is_infinite

    def test_divergence_detected_where_q_vanishes(self):
        # q uniform on [-10, 10]: log q is -inf on the first shell, where p has mass
        def uniform(u):
            return np.where(np.abs(u) <= 10.0, -math.log(20.0), -np.inf)

        out = kl_divergence_1d(partial(cauchy_logpdf, 0, 1), uniform, (-8, 8))
        assert out.is_infinite

    def test_unresolved_integrand_raises(self):
        # a spike of width 1e-3 falls between the nodes of unit-width panels
        narrow = partial(normal_logpdf, 0.3, 1e-3)
        with pytest.raises(QuadratureFailureError, match="error estimate"):
            kl_divergence_1d(narrow, partial(normal_logpdf, 0, 1), (-16, 16))

    def test_nan_integrand_raises(self):
        with pytest.raises(QuadratureFailureError):
            kl_divergence_1d(partial(normal_logpdf, 0, 1), lambda u: np.full(np.shape(u), np.nan),
                             (-8, 8))

    def test_momentvalue_helpers(self):
        assert MomentValue.finite(2.0).is_finite
        assert MomentValue.infinite().is_infinite
        assert not MomentValue.infinite().is_finite
        assert not MomentValue.finite(2.0).is_infinite
