"""Fractional moments, power-law tails, and truncated Cauchy moments,
each checked against an independent quadrature oracle."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import integrate

from stableinfer import (
    OutOfRangeError,
    PowerLaw,
    QuadratureFailureError,
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
        assert v2 / v1 == pytest.approx(2.0 ** p, rel=1e-13)

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
        out = fractional_moment(validate_params(alpha, beta, gamma, delta), p)
        assert out.value == pytest.approx(_density_moment(alpha, beta, gamma, delta, p), rel=1e-8)

    @pytest.mark.parametrize("alpha,beta,gamma,delta,p,want", [
        (1.5, 0.3, 1e-300, 3.0, 0.5, math.sqrt(3.0)),
        (0.3, 0.2, 1.0, 1e255, 0.2, 1e51),
        (1.5, 0.3, 1e-300, 1e10, 0.5, 1e5),
        (1.5, 0.3, 1e-10, 3.0, 0.5, math.sqrt(3.0) * (1.0 + 5e-12)),
    ])
    def test_tiny_scale_against_the_location(self, alpha, beta, gamma, delta, p, want):
        # E|u|^p = |delta|^p (1 + p m/delta) to a relative O((gamma/delta)^alpha),
        # with m = -beta gamma tan(pi alpha/2) = 3e-11 the mean of u - delta at
        # gamma = 1e-10 (and no m term for alpha < 1).  Panels graded from
        # delta in steps of gamma 2^k gave 4.40e284, 1.96e-21 and an
        # OverflowError for the first three, and raised for the last
        out = fractional_moment(validate_params(alpha, beta, gamma, delta), p)
        assert out.value == pytest.approx(want, rel=1e-10)

    def test_moment_past_the_float_range_is_out_of_range(self):
        # about 1e360; it raised a bare OverflowError
        with pytest.raises(OutOfRangeError):
            fractional_moment(validate_params(1.9, 0.5, 1.0, 1e200), 1.8)

    @pytest.mark.parametrize("alpha,beta,gamma,delta,p", [
        (1.9, 0.5, 1e200, None, 1.8),  # strictly stable, about 1e360
        (1.0, 0.0, 0.0, 1e200, 1.8),  # point mass, 1e360
        (2.0, 0.0, 1e200, 0.0, 4.0),  # Gaussian, about 1e801
    ])
    def test_closed_form_past_the_float_range_is_out_of_range(self, alpha, beta, gamma, delta, p):
        # each raised a bare OverflowError
        if delta is None:  # the strictly stable location
            delta = beta * gamma * math.tan(math.pi * alpha / 2.0)
        with pytest.raises(OutOfRangeError):
            fractional_moment(validate_params(alpha, beta, gamma, delta), p)

    def test_shifted_cauchy_near_the_float_range_stays_finite(self):
        # gamma^2 + delta^2 overflowed and the moment came back as inf; by
        # scaling, E|u|^p = gamma^p E|C(1, 1)|^p, here about 6.6e180.  The
        # oracle takes the tails |u - 1| > 9 through u = 1 +- s^-10, where
        # they are smooth in s
        def f(u):
            return abs(u) ** mp.mpf(0.9) / (mp.pi * (1 + (u - 1) ** 2))

        with mp.workdps(30):
            unit = mp.quad(f, [-8, 0, 1, 10]) + sum(
                mp.quad(lambda s: f(1 + side * s ** -10) * 10 * s ** -11, [0, mp.mpf(9) ** -0.1])
                for side in (1, -1))
        out = fractional_moment(validate_params(1.0, 0.0, 1e200, 1e200), 0.9)
        assert out.value == pytest.approx(float(unit * mp.mpf(1e200) ** mp.mpf(0.9)), rel=1e-13)

    def test_skewed_alpha_one_tenth_against_survival_functions(self):
        # the density is a spike 7.9e5 high at delta + gamma zeta, where panels
        # graded down to 2^-24 gamma left an error estimate of 0.017.  The
        # oracle integrates survival functions, which are bounded and continuous
        # there (the density against quadrature, as above, ran minutes and
        # missed by 3e-9 where QUADPACK warned); test_stable_zolotarev checks
        # both kernels next to zeta against mpmath
        out = fractional_moment(validate_params(0.1, 0.5, 1.0, 2.0), 0.05)
        assert out.value == pytest.approx(_survival_moment(0.1, 0.5, 2.0, 0.05), rel=1e-10)

    def test_skewed_moment_near_its_order_against_quadrature(self):
        # alpha = 1.2 and p = 1.1: the body's error estimate, 9.1e-8, missed
        # its tolerance of 7.5e-8 by a little, and the moment raised
        with warnings.catch_warnings():
            warnings.simplefilter("error", integrate.IntegrationWarning)
            want = _density_moment(1.2, 0.9, 1.0, -2.0, 1.1)
        out = fractional_moment(validate_params(1.2, 0.9, 1.0, -2.0), 1.1)
        assert out.value == pytest.approx(want, rel=1e-10)

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


def _density_moment(alpha, beta, gamma, delta, p):
    """E|u|^p for u ~ S(alpha, beta, gamma, delta; 0) by QUADPACK: |u|^p against
    the density on [-L, L], cut at 0, delta and delta + gamma zeta, and past
    +-L, p|u|^(p-1) against the tail probabilities (integration by parts)."""
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
    return body + right + left


def _survival_moment(alpha, beta, delta, p):
    """E|u|^p = Int_0^inf P[|u|^p > s] ds for u ~ S(alpha, beta, 1, delta; 0), by
    QUADPACK on the two survival functions at s^(1/p), with cuts where u
    passes 0, delta and delta + zeta; IntegrationWarning raises."""
    from stableinfer.stable import _standard_sf

    def tails(s):
        x = s ** (1.0 / p)
        return float(_standard_sf(alpha, beta, x - delta) + _standard_sf(alpha, -beta, x + delta))

    switch = delta - beta * math.tan(math.pi * alpha / 2.0)
    cuts = sorted({0.0, abs(switch) ** p, abs(delta) ** p, 2.0, 10.0}) + [np.inf]
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        return sum(integrate.quad(tails, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                   for lo, hi in zip(cuts[:-1], cuts[1:]))


# skewed laws off their strictly stable location, which take the numeric path
_alphas = st.floats(0.3, 1.9)
_betas = st.floats(0.1, 0.9)
_deltas = st.floats(-5.0, 5.0)
_shares = st.floats(0.1, 0.9)  # p/alpha


class TestNumericMoment:
    @staticmethod
    def _density_points(monkeypatch):
        """The sizes of the batch density's calls from here on."""
        from stableinfer import stable

        points = []
        original = stable._standard_pdf
        monkeypatch.setattr(stable, "_standard_pdf", lambda a, b, z: points.append(z.size) or original(a, b, z))
        return points

    @settings(max_examples=8, deadline=None)
    @given(_alphas, _betas, st.floats(0.5, 2.0), _deltas, _shares, st.integers(-900, 900))
    def test_scale_by_a_power_of_two(self, alpha, beta, gamma, delta, share, k):
        # (gamma, delta) -> 2^k (gamma, delta) is u -> 2^k u; panels graded in
        # the units of u lost their grading to rounding at extreme k.  The
        # moments stay normal floats, away from overflow and subnormals
        p = share * alpha
        assume(abs(k * p) < 1000.0)
        v1 = fractional_moment(validate_params(alpha, beta, gamma, delta), p).value
        v2 = fractional_moment(validate_params(alpha, beta, gamma * 2.0 ** k, delta * 2.0 ** k), p).value
        assert v2 == pytest.approx(v1 * (2.0 ** k) ** p, rel=1e-13)  # 2^(k p) would round k p

    @settings(max_examples=8, deadline=None)
    @given(_alphas, _betas, _deltas, _shares)
    def test_reflection(self, alpha, beta, delta, share):
        # u -> -u is (beta, delta) -> (-beta, -delta), and leaves |u| as it is
        p = share * alpha
        v1 = fractional_moment(validate_params(alpha, beta, 1.0, delta), p).value
        v2 = fractional_moment(validate_params(alpha, -beta, 1.0, -delta), p).value
        assert v2 == pytest.approx(v1, rel=1e-13)

    @pytest.mark.parametrize("work", [
        lambda: fractional_moment(validate_params(1.5, 0.3, 1.0, 0.5), 0.5),
        lambda: three_series_check(PowerLaw(1.0, 1.0), 1.5, 1.0, 1.0, 2 ** 14),
    ], ids=["moment", "table"])
    def test_a_density_that_is_not_finite_raises_at_once(self, monkeypatch, work):
        # a NaN error estimate is never accepted: halving every such panel
        # would double the panels on every pass
        from stableinfer import stable

        calls = []
        original = stable._standard_pdf

        def poisoned(alpha, beta, z):
            calls.append(z.size)
            out = original(alpha, beta, z)
            out.flat[0] = math.nan
            return out

        monkeypatch.setattr(stable, "_standard_pdf", poisoned)
        with pytest.raises(QuadratureFailureError, match="not finite"):
            work()
        assert len(calls) == 1

    # the numeric moments the tests above take, and the density points each may use
    @pytest.mark.parametrize("params,p", [
        ((1.5, 0.3, 1.0, 0.0), 0.75), ((1.5, 0.3, 2.0, 0.0), 0.75), ((1.5, 0.3, 1.0, 0.5), 0.5),
        ((1.5, 0.3, 1.0, 0.3 * math.tan(0.75 * math.pi) + 1e-9), 0.75),
        ((0.6, -0.8, 1.0, -0.8 * math.tan(0.3 * math.pi) + 1e-9), 0.5),
        ((1.0, 0.4, 1.0, 3.0), 0.5), ((1.0, 0.4, 1.0, 3.0), 0.9), ((0.7, -0.5, 2.0, 1.0), 0.5),
        ((0.7, -0.5, 1.0, 0.5), 0.3), ((0.6, -0.8, 1.0, 0.3), 0.5), ((0.5, 0.5, 1e-3, 1.0), 0.45),
        ((1.5, 0.3, 1e-10, 3.0), 0.5), ((0.1, 0.5, 1.0, 2.0), 0.05), ((1.2, 0.9, 1.0, -2.0), 1.1),
    ])
    def test_density_points(self, monkeypatch, params, p):
        points = self._density_points(monkeypatch)
        fractional_moment(validate_params(*params), p)
        assert sum(points) <= 6000

    def test_skewed_alpha_one_twentieth_raises_or_meets_its_oracle(self, monkeypatch):
        # the spike at zeta is sharper than at alpha = 0.1, and the halvings
        # may run out; then the moment raises after a bounded amount of work
        points = self._density_points(monkeypatch)
        try:
            value = fractional_moment(validate_params(0.05, 0.3, 1.0, 5.0), 0.02).value
        except QuadratureFailureError:
            assert sum(points) <= 50000
            return
        assert value == pytest.approx(_survival_moment(0.05, 0.3, 5.0, 0.02), rel=1e-8)


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
