"""Fractional moments, power-law tails, and truncated Cauchy moments,
each checked against an independent quadrature oracle."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from stableinfer import (
    OutOfRangeError,
    PowerLaw,
    StableParams,
    cauchy_cdf,
    cauchy_pdf,
    fractional_moment,
    stable_pdf,
    tail_asymptote,
    three_series_check,
    truncated_cauchy_moments,
    validate_params,
)


class TestFractionalMoment:
    def test_cauchy_first_moment_infinite(self):
        assert fractional_moment(StableParams.cauchy(0, 1), 1.0).is_infinite

    def test_order_above_alpha_infinite(self):
        assert fractional_moment(validate_params(1.5, 0.2, 1.0, 0.0), 1.7).is_infinite

    def test_cauchy_half_moment_against_quadrature(self):
        out = fractional_moment(StableParams.cauchy(0, 1), 0.5)
        oracle, _ = integrate.quad(
            lambda u: math.sqrt(abs(u)) * cauchy_pdf(0, 1, u), -np.inf, np.inf,
        )
        assert out.is_finite
        assert out.value == pytest.approx(oracle, rel=1e-6)
        assert out.value == pytest.approx(math.sqrt(2.0), rel=1e-6)

    @pytest.mark.parametrize("alpha,beta,p", [(1.0, 0.0, 0.5), (1.5, 0.3, 0.75)])
    def test_scale_law(self, alpha, beta, p):
        # E|gamma u|^p = gamma^p E|u|^p: homogeneity of order p
        v1 = fractional_moment(validate_params(alpha, beta, 1.0, 0.0), p).value
        v2 = fractional_moment(validate_params(alpha, beta, 2.0, 0.0), p).value
        assert v2 / v1 == pytest.approx(2.0 ** p, rel=1e-3)

    def test_gaussian_all_orders_finite(self):
        p = StableParams.normal(0.0, 1.0)
        second = fractional_moment(p, 2.0)
        assert second.is_finite
        assert second.value == pytest.approx(1.0, rel=1e-8)
        fourth = fractional_moment(p, 4.0)
        assert fourth.value == pytest.approx(3.0, rel=1e-8)

    def test_point_mass(self):
        out = fractional_moment(validate_params(1.0, 0.0, 0.0, -2.0), 0.5)
        assert out.value == pytest.approx(math.sqrt(2.0))

    @pytest.mark.parametrize("alpha,beta,p", [(1.5, 0.3, 0.75), (0.6, -0.8, 0.5), (1.9, 0.9, 1.0)])
    def test_strictly_stable_closed_form(self, alpha, beta, p):
        # Samorodnitsky & Taqqu 1.2.17 in its original form, with the
        # integral of u^(-p-1) sin^2 u over (0, inf) in mpmath; past u = 1
        # it is split by sin^2 u = (1 - cos 2u)/2
        gamma = 2.0
        tan = math.tan(math.pi * alpha / 2.0)
        params = validate_params(alpha, beta, gamma, beta * gamma * tan)
        with mp.workdps(30):
            head = mp.quad(lambda u: u ** (-p - 1) * mp.sin(u) ** 2, [0, 1])
            wave = mp.quadosc(lambda u: u ** (-p - 1) * mp.cos(2 * u), [1, mp.inf], period=mp.pi)
            sine = head + 1 / (2 * mp.mpf(p)) - wave / 2
            want = (2 ** (p - 1) * mp.gamma(1 - p / alpha) / (p * sine)
                    * (1 + beta ** 2 * tan ** 2) ** (p / (2 * alpha))
                    * mp.cos(p / alpha * mp.atan(beta * tan)) * gamma ** p)
        assert fractional_moment(params, p).value == pytest.approx(float(want), rel=1e-12)

    @pytest.mark.parametrize("alpha,beta,p", [(1.5, 0.3, 0.75), (0.6, -0.8, 0.5)])
    def test_numeric_path_meets_closed_form(self, alpha, beta, p):
        # a location 1e-9 off the strictly stable one takes the quadrature path
        delta = beta * math.tan(math.pi * alpha / 2.0)
        closed = fractional_moment(validate_params(alpha, beta, 1.0, delta), p).value
        numeric = fractional_moment(validate_params(alpha, beta, 1.0, delta + 1e-9), p).value
        assert numeric == pytest.approx(closed, rel=1e-8)

    @pytest.mark.parametrize("alpha,beta,p,delta", [(1.5, 0.3, 0.75, 0.0), (1.0, 0.4, 0.5, 3.0)])
    def test_numeric_path_against_quadrature(self, alpha, beta, p, delta):
        # adaptive quadrature: |u|^p against the density on [-L, L] and, past
        # +-L, p|u|^(p-1) against the tail probabilities (integration by parts)
        from stableinfer.stable import _standard_pdf, _standard_sf

        def quad(f, lo, hi):
            return integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-11, limit=400)[0]

        L = 1e3
        body = sum(quad(lambda u: abs(u) ** p * float(_standard_pdf(alpha, beta, u - delta)), lo, hi)
                   for lo, hi in ((-L, 0.0), (0.0, delta), (delta, L)))
        right = L ** p * float(_standard_sf(alpha, beta, L - delta)) + quad(
            lambda u: p * u ** (p - 1) * float(_standard_sf(alpha, beta, u - delta)), L, np.inf)
        left = L ** p * float(_standard_sf(alpha, -beta, L + delta)) + quad(
            lambda u: p * u ** (p - 1) * float(_standard_sf(alpha, -beta, u + delta)), L, np.inf)
        out = fractional_moment(validate_params(alpha, beta, 1.0, delta), p)
        assert out.value == pytest.approx(body + right + left, rel=1e-8)

    @pytest.mark.parametrize("alpha,beta,gamma,delta,p", [
        (0.7, -0.5, 2.0, 1.0, 0.5), (0.7, -0.5, 1.0, 0.5, 0.3), (0.6, -0.8, 1.0, 0.3, 0.5)])
    def test_skewed_numeric_path_against_quadrature(self, alpha, beta, gamma, delta, p):
        # as above, with breakpoints at 0, delta and delta + gamma zeta, where
        # Nolan's integrals switch sides
        from stableinfer.stable import _standard_pdf, _standard_sf

        def quad(f, lo, hi):
            return integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-11, limit=400)[0]

        def sf(skew, x):
            return float(_standard_sf(alpha, skew, x / gamma))

        L = 1e3
        switch = delta - beta * gamma * math.tan(math.pi * alpha / 2.0)
        cuts = sorted([-L, 0.0, delta, switch, L])
        body = sum(quad(lambda u: abs(u) ** p * float(_standard_pdf(alpha, beta, (u - delta) / gamma))
                        / gamma, lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]))
        right = L ** p * sf(beta, L - delta) + quad(
            lambda u: p * u ** (p - 1) * sf(beta, u - delta), L, np.inf)
        left = L ** p * sf(-beta, L + delta) + quad(
            lambda u: p * u ** (p - 1) * sf(-beta, u + delta), L, np.inf)
        out = fractional_moment(validate_params(alpha, beta, gamma, delta), p)
        assert out.value == pytest.approx(body + right + left, rel=1e-8)

    def test_skewed_moment_with_a_slowly_falling_tail(self):
        # alpha - p = 0.05: r ran from 10.7 to 8.5e12 inside one tail panel,
        # whose error estimate of 3.6e-6 raised.  The oracle integrates
        # p u^p P[|u - delta| > u] in log u up to 1e60, and beyond it the
        # leading tail term, c (1 +- beta) gamma^alpha u^-alpha
        from stableinfer.stable import _standard_pdf, _standard_sf, _tail_constant

        alpha, beta, gamma, delta, p = 0.5, 0.5, 1e-3, 1.0, 0.45

        def quad(f, lo, hi):
            return integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-11, limit=400)[0]

        def sf(skew, x):
            return float(_standard_sf(alpha, skew, x / gamma))

        L, big = 1e3, 1e60
        switch = delta - beta * gamma * math.tan(math.pi * alpha / 2.0)
        cuts = sorted([-L, 0.0, delta, switch, L])
        body = sum(quad(lambda u: abs(u) ** p * float(_standard_pdf(alpha, beta, (u - delta) / gamma))
                        / gamma, lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]))
        far = p * _tail_constant(alpha) * gamma ** alpha * big ** (p - alpha) / (alpha - p)
        tails = sum(L ** p * sf(skew, L - shift) + (1.0 + skew) * far + quad(
            lambda s: p * math.exp(p * s) * sf(skew, math.exp(s) - shift), math.log(L), math.log(big))
            for skew, shift in ((beta, delta), (-beta, -delta)))
        out = fractional_moment(validate_params(alpha, beta, gamma, delta), p)
        assert out.value == pytest.approx(body + tails, rel=1e-8)

    def test_skewed_alpha_one_moment_near_one(self):
        # p = 0.9 puts the tail nodes past 1e15, where the alpha = 1 survival
        # function once stopped following the tail.  The oracle integrates
        # p r^(p-1) P[|u| > r] in log r up to R = 1e12; beyond R, P[|u| > r]
        # is 2/(pi r) to a relative O(log R/R + delta/R), which integrates to
        # 2 p R^(p-1)/(pi (1 - p))
        from stableinfer.stable import _standard_sf

        beta, delta, p, big = 0.4, 3.0, 0.9, 1e12

        def tails(r):
            return float(_standard_sf(1.0, beta, r - delta) + _standard_sf(1.0, -beta, r + delta))

        near = integrate.quad(lambda s: p * math.exp(p * s) * tails(math.exp(s)), -60.0,
                              math.log(big), epsabs=0.0, epsrel=1e-11, limit=400)[0]
        far = 2.0 * p * big ** (p - 1.0) / (math.pi * (1.0 - p))
        out = fractional_moment(validate_params(1.0, beta, 1.0, delta), p)
        assert out.value == pytest.approx(near + far, rel=1e-8)

    @pytest.mark.parametrize("delta,gamma,p", [(0.7, 1.0, 0.5), (-3.0, 0.4, 1.7),
                                               (25.0, 1.0, 3.0), (1e-3, 2.0, 0.1)])
    def test_gaussian_closed_form_against_mpmath(self, delta, gamma, p):
        std = gamma * math.sqrt(2.0)
        with mp.workdps(30):
            want = mp.quad(lambda u: abs(u) ** p * mp.npdf(u, delta, std),
                           [-mp.inf, *sorted({0.0, delta}), mp.inf])
        out = fractional_moment(validate_params(2.0, 0.0, gamma, delta), p)
        assert out.value == pytest.approx(float(want), rel=1e-13)

    @pytest.mark.parametrize("delta,gamma,p", [(-3.0, 0.5, 0.9), (1.5, 1.0, 0.5),
                                               (100.0, 3.0, 0.99), (0.2, 1e-3, 0.3)])
    def test_shifted_cauchy_closed_form_against_mpmath(self, delta, gamma, p):
        # (1/pi) int_{-pi/2}^{pi/2} |delta + gamma tan t|^p dt, split where the
        # integrand vanishes, t0 = -atan(delta/gamma); each piece is taken from
        # its end at +-pi/2, s = pi/2 -+ t, with s = v^k, k = 1/(1 - p), which
        # turns the s^-p endpoint singularity into a bounded integrand
        with mp.workdps(30):
            d, g, pp = mp.mpf(delta), mp.mpf(gamma), mp.mpf(p)
            t0 = -mp.atan(d / g)
            k = 1 / (1 - pp)

            def piece(sign, length):
                return mp.quad(lambda v: abs(d + sign * g * mp.cot(v ** k)) ** pp
                               * k * v ** (k - 1), [0, length ** (1 / k)])

            want = (piece(1, mp.pi / 2 - t0) + piece(-1, mp.pi / 2 + t0)) / mp.pi
        out = fractional_moment(StableParams.cauchy(delta, gamma), p)
        assert out.value == pytest.approx(float(want), rel=1e-13)

    def test_shifted_cauchy_against_quadrature(self):
        out = fractional_moment(StableParams.cauchy(1.5, 1.0), 0.5)
        oracle, _ = integrate.quad(
            lambda u: math.sqrt(abs(u)) * cauchy_pdf(1.5, 1.0, u), -np.inf, np.inf,
        )
        assert out.value == pytest.approx(oracle, rel=1e-6)


class TestTailAsymptote:
    def test_tail_constant_exact(self):
        from stableinfer.stable import _tail_constant

        assert _tail_constant(1.0) == pytest.approx(1.0 / math.pi, rel=1e-15)
        with mp.workdps(30):
            want = mp.gamma(mp.mpf(1) / 2) * mp.sin(mp.pi / 4) / mp.pi
        assert _tail_constant(0.5) == pytest.approx(float(want), rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.5, 1.3])
    def test_density_approaches_asymptote(self, alpha):
        # the leading term's relative error falls like x^-min(alpha, 1)
        p = validate_params(alpha, 0.4, 1.0, 0.0)
        for x in (1e6, 1e10):
            rho = stable_pdf(p, x)
            assert abs(rho / tail_asymptote(p, x).pdf - 1.0) < 5.0 * x ** -min(alpha, 1.0)

    def test_power_law_doubling_ratio_exact(self):
        p = validate_params(1.5, 0.3, 2.0, 0.0)
        a = tail_asymptote(p, 40.0)
        b = tail_asymptote(p, 80.0)
        assert b.survival / a.survival == pytest.approx(2.0 ** -1.5, rel=1e-13)

    def test_pdf_to_survival_ratio_exact(self):
        p = validate_params(0.8, 0.0, 1.0, 0.0)
        x = 60.0
        t = tail_asymptote(p, x)
        assert t.pdf / t.survival == pytest.approx(p.alpha / x, rel=1e-13)

    def test_cauchy_survival_within_two_percent(self):
        t = tail_asymptote(StableParams.cauchy(0, 1), 50.0)
        exact = 1.0 - cauchy_cdf(0, 1, 50.0)
        assert abs(t.survival / exact - 1.0) < 0.02

    def test_skewness_reweights_tail(self):
        sym = tail_asymptote(validate_params(1.5, 0.0, 1.0, 0.0), 50.0)
        skew = tail_asymptote(validate_params(1.5, 0.5, 1.0, 0.0), 50.0)
        assert skew.survival / sym.survival == pytest.approx(1.5, rel=1e-12)

    def test_gaussian_rejected(self):
        with pytest.raises(Exception):
            tail_asymptote(StableParams.normal(0, 1), 10.0)


def _oracle_truncated(gamma, cut):
    tail, _ = integrate.quad(lambda u: cauchy_pdf(0, gamma, u), cut, np.inf)
    m1, _ = integrate.quad(lambda u: abs(u) * cauchy_pdf(0, gamma, u), -cut, cut,
                           points=[0.0], epsabs=1e-13, limit=200)
    m2, _ = integrate.quad(lambda u: u * u * cauchy_pdf(0, gamma, u), -cut, cut,
                           points=[0.0], epsabs=1e-13, limit=200)
    return 2.0 * tail, m1, m2


class TestTruncatedCauchyMoments:
    def test_unit_case_closed_values(self):
        p, m1, m2 = truncated_cauchy_moments(1.0, 1.0)
        assert p == pytest.approx(0.5, abs=1e-15)
        assert m1 == pytest.approx(math.log(2.0) / math.pi, abs=1e-15)
        assert m2 == pytest.approx(2.0 / math.pi - 0.5, abs=1e-15)

    def test_second_moment_respects_probability_bound(self):
        # E[u^2; |u| < A] can never exceed A^2 P[|u| < A]
        for gamma in (0.1, 1.0, 3.0):
            for cut in (0.5, 1.0, 8.0):
                p, _, m2 = truncated_cauchy_moments(gamma, cut)
                assert m2 <= cut * cut * (1.0 - p) + 1e-15

    def test_vanishing_width_gives_zero(self):
        assert truncated_cauchy_moments(0.0, 2.0) == (0.0, 0.0, 0.0)
        terms = truncated_cauchy_moments(np.array([0.0, 1.0]), 2.0)
        assert [float(t[0]) for t in terms] == [0.0, 0.0, 0.0]  # no 0 * log1p(inf) NaN

    def test_scalar_width_gives_floats(self):
        assert all(type(t) is float for t in truncated_cauchy_moments(0.3, 2.0))

    def test_negative_width_rejected(self):
        with pytest.raises(OutOfRangeError):
            truncated_cauchy_moments(np.array([1.0, -1e-300]), 2.0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.just(0.0), st.floats(1e-60, 1e60)), min_size=1, max_size=40),
           st.floats(1e-60, 1e60))
    def test_vectorised_equals_scalar_elementwise(self, widths, cut):
        batch = truncated_cauchy_moments(np.array(widths), cut)
        for i, g in enumerate(widths):
            for whole, alone in zip(batch, truncated_cauchy_moments(g, cut)):
                assert whole[i].tobytes() == np.float64(alone).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_overflow_where_the_squared_ratio_would(self):
        # (gamma/pi) log1p((A/gamma)^2) gave inf here
        # widths on both sides of where the form switches, and far beyond
        widths = np.array([1.0001e-154, 0.9999e-154, 1e-300])
        with mp.workdps(30):
            want = [float(mp.mpf(g) / mp.pi * mp.log1p(1 / mp.mpf(g) ** 2)) for g in widths]
        assert truncated_cauchy_moments(widths, 1.0).m1 == pytest.approx(want, rel=1e-14)
        assert truncated_cauchy_moments(1e-300, 1.0).m1 == pytest.approx(4.3976e-298, rel=1e-4)
        assert math.isfinite(three_series_check(PowerLaw(1e-200, 1.0), 1.0, 1.0, 1.0, depth=1024).s1)

    def test_against_quadrature_oracle(self):
        p, m1, m2 = truncated_cauchy_moments(0.3, 2.0)
        op, om1, om2 = _oracle_truncated(0.3, 2.0)
        assert p == pytest.approx(op, abs=1e-10)
        assert m1 == pytest.approx(om1, abs=1e-10)
        assert m2 == pytest.approx(om2, abs=1e-10)
