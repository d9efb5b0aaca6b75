"""The batch Zolotarev-integral density and distribution function:
independent oracles (convergent series, mpmath, the Fourier-inversion
path), failure reporting, and invariants checked with hypothesis."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from stableinfer import (
    OutOfRangeError,
    PowerLaw,
    QuadratureFailureError,
    StableParams,
    cauchy_logpdf,
    fractional_moment,
    kl_divergence_1d,
    normal_logpdf,
    stable_pdf,
    three_series_check,
    validate_params,
)
from stableinfer import stable
from textbook import textbook_gk_panel, textbook_jacobian, textbook_log_v, textbook_ts


def _symmetric_series(z: float, alpha: float, want: str = "pdf") -> float:
    """(1/(pi alpha)) sum_k (-1)^k Gamma((2k+1)/alpha) z^(2k) / (2k)!, the
    convergent power series of the symmetric density for alpha > 1, or
    ("sf") its survival function 1/2 - (1/(pi alpha)) sum_k (-1)^k
    Gamma((2k+1)/alpha) z^(2k+1) / (2k+1)!, at 40 digits."""
    sf = want == "sf"
    with mp.workdps(40):
        total, k = mp.mpf(0), 0
        while True:
            n = 2 * k + (1 if sf else 0)
            term = (-1) ** k * mp.gamma(mp.mpf(2 * k + 1) / alpha) * mp.mpf(z) ** n / mp.factorial(n)
            total += term
            if k > 2 and abs(term) <= mp.mpf(10) ** -40 * abs(total):
                total /= mp.pi * alpha
                return float(mp.mpf(0.5) - total if sf else total)
            k += 1


def _fourier_density(x: float, alpha: float, beta: float, want: str = "pdf") -> float:
    """(1/pi) int_0^inf exp(-t^alpha) cos(x t + phase(t)) dt in mpmath, with
    phase(t) = beta tan(pi alpha/2) (t - t^alpha), or beta (2/pi) t log t at
    alpha = 1, on pieces that grow like t^2 up to where exp(-t^alpha) < 1e-17;
    or ("sf") the survival function 1/2 - (1/pi) int_0^inf exp(-t^alpha)
    sin(x t + phase(t))/t dt (Gil-Pelaez)."""
    with mp.workdps(20):
        a, b = mp.mpf(alpha), mp.mpf(beta)
        if alpha == 1.0:
            phase = lambda t: b * 2 / mp.pi * t * mp.log(t) if t > 0 else mp.mpf(0)
        else:
            tan = mp.tan(mp.pi * a / 2)
            phase = lambda t: b * tan * (t - t ** a)
        top = mp.mpf(40) ** (1 / a)
        if want == "pdf":
            f = lambda t: mp.exp(-t ** a) * mp.cos(x * t + phase(t))
        else:
            f = lambda t: -mp.exp(-t ** a) * mp.sin(x * t + phase(t)) / t
        integral = mp.quad(f, [top * (k / 200.0) ** 2 for k in range(201)]) / mp.pi
        return float(integral if want == "pdf" else 0.5 + integral)


class TestAgainstOracles:
    @pytest.mark.parametrize("z", [0.0, 1e-3, 1e-2, 0.05])
    def test_symmetric_density_near_zero(self, z):
        # the Fourier-inversion path returned 5e-21 here at z = 1e-3
        p = validate_params(1.5, 0.0, 1.0, 0.0)
        assert stable_pdf(p, z) == pytest.approx(_symmetric_series(z, 1.5), rel=1e-10)

    def test_skewed_density_where_fourier_quadrature_fails(self):
        # the QUADPACK path warns and is off by 2.7e-3 at this point; mpmath is not
        p = validate_params(0.5, -0.9, 1.0, 0.0)
        z = 0.9581723581247718
        assert stable_pdf(p, z) == pytest.approx(_fourier_density(z, 0.5, -0.9), rel=1e-10)

    @pytest.mark.parametrize("alpha,beta", [(1.5, 0.3), (1.0, 0.4), (0.8, -0.5)])
    def test_density_against_mpmath(self, alpha, beta):
        p = validate_params(alpha, beta, 1.0, 0.0)
        for x in (-4.0, 0.7, 9.0):
            assert stable_pdf(p, x) == pytest.approx(_fourier_density(x, alpha, beta), rel=1e-10)

    @pytest.mark.parametrize("alpha,beta", [(0.7, 0.4), (1.0, -0.6), (1.3, 0.0), (1.8, -0.5)])
    def test_survival_is_the_integral_of_the_density(self, alpha, beta):
        # P[X > x] - P[X > y] = int_x^y f, by adaptive quadrature of the density
        from scipy import integrate

        for x, y in ((-3.0, -0.5), (-0.5, 0.25), (0.25, 4.0), (4.0, 60.0)):
            sf = stable._standard_sf(alpha, beta, np.array([x, y]))
            mass, _ = integrate.quad(lambda u: float(stable._standard_pdf(alpha, beta, u)),
                                     x, y, epsabs=0.0, epsrel=1e-12, limit=200)
            assert sf[0] - sf[1] == pytest.approx(mass, rel=1e-10)

    def test_survival_far_in_the_tail(self):
        # P[X > x] ~ c (1 + beta) x^-alpha with relative correction O(x^-alpha)
        alpha, beta, x = 1.2, 0.3, 1e9
        c = math.gamma(alpha) * math.sin(math.pi * alpha / 2.0) / math.pi
        sf = float(stable._standard_sf(alpha, beta, x))
        assert sf == pytest.approx(c * (1.0 + beta) * x ** -alpha, rel=1e-9)


    @pytest.mark.parametrize("beta", [0.4, 0.125, -0.125, 0.9, 0.01])
    def test_alpha_one_survival_follows_the_tail(self, beta):
        # P[X > z] = (1 + beta)/(pi z) + O(log z/z^2): the leading term is the
        # survival function to 1e-14 at these z (its correction is 2.2e-15 at
        # 1e16 and beta = 0.9), and to double precision from 1e18 on
        z = np.array([1e16, 1e17, 1e20, 1e50, 1e100, 1e151, 1e200, 1e300])
        sf = stable._standard_sf(1.0, beta, z)
        assert sf == pytest.approx((1.0 + beta) / (math.pi * z), rel=1e-14, abs=0.0)
        assert (stable._standard_sf(1.0, beta, -z) == 1.0).all()  # 1 - (1 - beta)/(pi z)

    @pytest.mark.parametrize("beta", [0.4, 0.125, -0.125, 0.9, 0.01])
    def test_alpha_one_density_follows_the_tail(self, beta):
        # the density's twin: (1 + beta sgn z)/(pi z^2), below 2^-1074 past
        # 1e162; its correction is 4.2e-15 at 1e16 and beta = 0.9
        z = np.array([1e16, 1e17, 1e20, 1e50, 1e100, 1e151, 1e200, 1e300])
        want = (1.0 + beta) / math.pi / z / z
        assert stable_pdf(validate_params(1.0, beta, 1.0, 0.0), z) == pytest.approx(
            want, rel=1e-14, abs=0.0)
        assert stable._standard_pdf(1.0, -beta, -z) == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("beta", [0.4, 0.125, 0.9, 0.01])
    def test_alpha_one_tail_against_mpmath(self, beta):
        # past 1e7 the density is the first two terms of the tail expansion,
        # past 1e9 so is the survival function; from 1e12 to 1e17 Nolan's
        # integral gave the density off by 1e-4 to 100%
        near, far = np.array([1.01e7, 1e8]), np.array([1e9, 1e12, 1e15, 1e16, 1e17])
        for side in (1.0, -1.0):
            for z, rel in ((near, 3e-12), (far, 1e-15)):
                want = [float(_alpha_one_tail(side * x, beta)[0]) for x in z]
                assert stable._standard_pdf(1.0, beta, side * z) == pytest.approx(
                    want, rel=rel, abs=0.0)
        z = np.concatenate([[1e8], far])
        want = [float(_alpha_one_tail(x, beta)[1]) for x in z]
        assert stable._standard_sf(1.0, beta, z) == pytest.approx(want, rel=1e-15, abs=0.0)


_PARITY_ALPHAS = [0.5, 0.8, 0.99, 1.0, 1.01, 1.3, 1.5, 1.7, 1.95]
_PARITY_LAWS = [(a, b) for a in _PARITY_ALPHAS for b in (0.0, 0.5, -0.9) if not (a == 1.0 and b == 0.0)]
_PARITY_Z = np.array([s * v for v in (0.1, 0.3, 1.0, 2.5, 6.0, 15.0, 50.0) for s in (1.0, -1.0)])


@pytest.mark.parametrize("alpha,beta", _PARITY_LAWS)
def test_parity_with_fourier_inversion(alpha, beta):
    """The batch kernel either agrees with the QUADPACK Fourier path to
    1e-8 relative or raises; it never returns an unchecked value.  Where the
    QUADPACK path misses its own tolerance (z = +-15 at (0.5, 0.5)), the
    mpmath Fourier integral stands in."""
    p = validate_params(alpha, beta, 1.0, 0.0)
    try:
        batch = stable_pdf(p, _PARITY_Z)
    except QuadratureFailureError:
        return
    numeric = stable._StandardNumericDensity(p.alpha, p.beta)
    reference = []
    for z in _PARITY_Z:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                reference.append(numeric(z))
        except QuadratureFailureError:
            reference.append(_fourier_density(z, alpha, beta))
    assert np.allclose(batch, reference, rtol=1e-8, atol=0.0)


_INTEGRALS = {
    "pdf": lambda: stable_pdf(validate_params(1.5, 0.3, 1.0, 0.0), np.array([0.5, 3.0])),
    "sf": lambda: stable._standard_sf(1.5, 0.3, np.array([2.0])),
    # not strictly stable (delta != beta gamma tan(pi alpha/2)): the numeric path
    "moment": lambda: fractional_moment(validate_params(1.5, 0.3, 1.0, 0.5), 0.5),
    "kl": lambda: kl_divergence_1d(lambda u: normal_logpdf(0.0, 1.0, u),
                                   lambda u: cauchy_logpdf(0.0, 1.0, u), (-5.0, 5.0)),
}


class TestFailures:
    @pytest.mark.parametrize("name", list(_INTEGRALS))
    def test_unreachable_tolerance_raises(self, name, monkeypatch):
        _INTEGRALS[name]()  # meets the fixed tolerance
        monkeypatch.setattr(stable, "_ABS_TOL", 0.0)
        monkeypatch.setattr(stable, "_REL_TOL", 1e-300)
        with pytest.raises(QuadratureFailureError):
            _INTEGRALS[name]()


class TestTotallySkewedCauchy:
    @pytest.mark.parametrize("beta", [1.0, -1.0])
    @pytest.mark.parametrize("want", ["pdf", "sf"])
    def test_alpha_one_with_beta_one_is_out_of_range(self, beta, want):
        # ZeroDivisionError: the tail panel's rate 0.25 pi (1 - |beta|)/|beta| is 0
        with pytest.raises(OutOfRangeError) as info:
            stable._standard(1.0, beta, np.array([0.5, 3.0]), want)
        assert info.value.parameter == "beta"


class TestNaNPoints:
    def test_survival_rejects_nan(self):
        # returned a tiny number silently
        for alpha, beta in ((1.5, 0.0), (0.7, 0.3), (1.0, 0.0)):
            with pytest.raises(OutOfRangeError, match="NaN"):
                stable._standard_sf(alpha, beta, np.array([np.nan]))

    def test_density_rejects_nan(self):
        # raised QuadratureFailureError with "error estimate 0.0"
        with pytest.raises(OutOfRangeError, match="NaN"):
            stable_pdf(validate_params(1.5, 0.3, 1.0, 0.0), [0.0, np.nan])

    @pytest.mark.parametrize("params", [StableParams.cauchy(0.0, 1.0), StableParams.normal(0.0, 1.0)],
                             ids=["cauchy", "normal"])
    @pytest.mark.parametrize("u", [np.nan, [0.0, np.nan]], ids=["scalar", "array"])
    def test_closed_form_densities_reject_nan(self, params, u):
        # returned NaN silently
        with pytest.raises(OutOfRangeError, match="NaN"):
            stable_pdf(params, u)


class TestNearAlphaOne:
    """Nolan's forms lose precision as alpha -> 1 and, at alpha = 1, as
    beta -> 0; there the values are interpolated from nearby laws."""

    @pytest.mark.parametrize("alpha,beta", [(1.0 + 1e-6, 0.5), (1.0 - 2e-3, -0.9), (1.0, 1e-3), (1.0, -2.5e-3)])
    def test_against_fourier_inversion(self, alpha, beta):
        p = validate_params(alpha, beta, 1.0, 0.0)
        z = np.array([-30.0, -1.0, 0.0, 0.4, 5.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reference = stable._StandardNumericDensity(p.alpha, p.beta)(z)
        assert np.allclose(stable_pdf(p, z), reference, rtol=1e-8, atol=0.0)

    def test_vanishing_skewness_is_cauchy(self):
        z = np.array([-40.0, -1.0, 0.0, 2.0, 40.0])
        cauchy = 1.0 / (math.pi * (1.0 + z * z))
        assert np.allclose(stable_pdf(validate_params(1.0, 1e-200, 1.0, 0.0), z), cauchy,
                           rtol=1e-13, atol=0.0)
        upper = np.arctan2(1.0, z) / math.pi
        assert np.allclose(stable._standard_sf(1.0, -1e-200, z), upper, rtol=1e-13, atol=0.0)


class TestLimits:
    """The density is 0 at +-inf, the survival function 0 at +inf and 1 at
    -inf, and the survival function never leaves [0, 1]."""

    @pytest.mark.parametrize("alpha,beta", [(1.5, 0.0), (1.0, 0.4), (0.7, -0.5), (1.001, 0.2),
                                            (1.0, 0.002), (2.0, 0.0), (1.0, 0.0)])
    def test_values_at_infinity(self, alpha, beta):
        p = validate_params(alpha, beta, 1.0, 0.0)
        z = np.array([math.inf, -math.inf])
        assert stable_pdf(p, z).tolist() == [0.0, 0.0]
        assert stable_pdf(p, -math.inf) == 0.0
        assert stable._standard_sf(p.alpha, p.beta, z).tolist() == [0.0, 1.0]

    def test_survival_beyond_the_float_range_is_zero(self):
        sf = stable._standard_sf(1.5, 0.0, np.array([math.inf, 1e300, -1e300, -math.inf]))
        assert sf.tolist() == [0.0, 0.0, 1.0, 1.0]

    @pytest.mark.parametrize("beta", [0.125, -0.125, 0.95])
    def test_alpha_one_survival_where_the_scale_overflows(self, beta):
        # pi z / (2 beta) overflows a double for these z
        big = np.finfo(float).max
        z = np.array([1.4305587428785142e307, big, -1.4305587428785142e307, -big])
        sf = stable._standard_sf(1.0, beta, z)
        assert np.all(sf[:2] < 1e-15)
        assert np.all((sf[2:] > 1.0 - 1e-15) & (sf[2:] <= 1.0))

    @pytest.mark.parametrize("alpha,beta", [(0.5, 0.3), (0.5, 0.0), (1.5, -0.9), (1.5, 0.0),
                                            (2.0, 0.0), (2.0, 0.5)])
    def test_density_where_the_scale_overflows(self, alpha, beta):
        # pi |alpha - 1| z, or z^2 for the normal law, overflows a double
        # for these z; the tail term c |z|^(-alpha-1) is below the smallest
        # subnormal at every one of them
        big = np.finfo(float).max
        z = np.array([1e300, 1.4305587428785142e307, big])
        z = np.concatenate([z, -z])
        assert stable._standard_pdf(alpha, beta, z).tolist() == [0.0] * 6
        assert stable_pdf(validate_params(alpha, beta, 1.0, 0.0), z).tolist() == [0.0] * 6

    @pytest.mark.parametrize("alpha,beta", [(1.5, 0.3), (0.7, -0.5), (1.0, 0.4)])
    def test_density_where_the_standardised_point_overflows(self, alpha, beta):
        # (u - delta)/gamma passes the float range; it warned of an overflow
        # in the division for every law without a closed form
        p = validate_params(alpha, beta, 1e-300, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert stable_pdf(p, [1e10, -1e10]).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_subnormal_density_where_the_scale_overflows_follows_the_tail(self, beta):
        # at alpha = 0.01 the density at finfo.max is a subnormal, about
        # 2e-314, and the leading tail term is within x^-alpha ~ 1e-3 of it
        p = validate_params(0.01, beta, 1.0, 0.0)
        big = np.finfo(float).max
        pdf = stable._standard_pdf(0.01, beta, np.array([big]))[0]
        assert pdf == pytest.approx(stable.tail_asymptote(p, big).pdf, rel=1e-2)

    def test_tiny_alpha_raises_no_overflow(self):
        # Gamma(1 + 1/alpha), which the density at zeta takes, passes the
        # float range below alpha ~ 1/170.6; it raised OverflowError at every
        # point.  The density at zeta is then inf, its rounded value; away
        # from zeta the quadrature may still miss its tolerance
        p = validate_params(0.005, 0.0, 1.0, 0.0)
        try:
            stable_pdf(p, [1.0])
        except QuadratureFailureError:
            pass
        assert stable_pdf(p, [0.0]).tolist() == [math.inf]

    def test_three_series_with_infinite_cuts_has_no_negative_sum(self):
        from stableinfer.sequences import PowerLaw, three_series_check

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = three_series_check(PowerLaw(1e-320, 1.0), 1.5, 1.0, 1.0, depth=1024)
        assert result.s0 == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.5, 2.0), st.floats(-0.95, 0.95),
           st.lists(st.floats(allow_nan=False), min_size=1, max_size=8))
    def test_survival_stays_in_the_unit_interval(self, alpha, beta, z):
        sf = stable._standard_sf(alpha, beta, np.array(z))
        assert np.all((sf >= 0.0) & (sf <= 1.0))

    @pytest.mark.parametrize("beta", [-0.8671875, -0.9])
    def test_skewed_alpha_one_survival_near_zero(self, beta):
        # the refined pass judged the integral it took, 1 - P[X > z] = 0.615,
        # whose error estimate met the tolerance where that of P[X > z] =
        # 0.385 did not, so these points raised QuadratureFailureError
        z = [0.0, 1e-300, -1e-300, -1e-12]
        want = [_fourier_density(x, 1.0, beta, "sf") for x in z]
        assert stable._standard_sf(1.0, beta, np.array(z)) == pytest.approx(want, rel=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-0.999, 0.999), st.lists(st.floats(-1e308, 1e308), min_size=1, max_size=8))
    def test_skewed_alpha_one_stays_finite(self, beta, z):
        # Nolan's alpha = 1 form takes pi z/(2 beta), which passes the float
        # range only far beyond the tail expansion's switch (|z| = 1e7 for the
        # density, 1e9 for the survival function)
        z = np.array(z)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            pdf = stable._standard_pdf(1.0, beta, z)
            sf = stable._standard_sf(1.0, beta, z)
        assert np.all(np.isfinite(pdf))
        assert np.all((sf >= 0.0) & (sf <= 1.0))


_alphas = st.floats(0.5, 2.0)
_betas = st.floats(-0.95, 0.95)
_points = st.floats(-50.0, 50.0)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(_alphas, _betas, _points)
    def test_reflection(self, alpha, beta, z):
        # X ~ S(alpha, beta) gives -X ~ S(alpha, -beta)
        p = validate_params(alpha, beta, 1.0, 0.0)
        q = validate_params(alpha, -beta, 1.0, 0.0)
        assert stable_pdf(p, z) == pytest.approx(stable_pdf(q, -z), rel=1e-12, abs=1e-300)

    @settings(max_examples=60, deadline=None)
    @given(_alphas, _betas, _points, st.floats(0.1, 10.0), st.floats(-20.0, 20.0))
    def test_location_scale(self, alpha, beta, u, gamma, delta):
        p = validate_params(alpha, beta, gamma, delta)
        base = validate_params(alpha, beta, 1.0, 0.0)
        assert stable_pdf(p, u) == pytest.approx(
            stable_pdf(base, (u - delta) / gamma) / gamma, rel=1e-12, abs=1e-300
        )

    @settings(max_examples=25, deadline=None)
    @given(_alphas, _betas, _points, st.integers(0, 3 * stable._CHUNK - 1))
    def test_point_alone_equals_point_in_batch(self, alpha, beta, z, where):
        # a batch spanning several chunks, with the point at any position
        p = validate_params(alpha, beta, 1.0, 0.0)
        batch = np.linspace(-60.0, 60.0, 3 * stable._CHUNK)
        batch[where] = z
        # the Gauss-Kronrod sums run row by row, so the point keeps its bits
        assert stable_pdf(p, batch)[where] == stable_pdf(p, z)


def _nolan_tail(alpha: float, beta: float, x: float, zeta: float = None):
    """Density and survival function of S(alpha, beta, 1, 0; 0) at x > zeta,
    alpha != 1, by Nolan's (1997) integrals in mpmath at 50 digits; a float
    `zeta` replaces the exact -beta tan(pi alpha/2) in y = x - zeta:

        rho(x) = alpha / (pi |alpha - 1| y) Int g e^-g dtheta,
        P[X > x] = (1/pi) Int e^-g dtheta (alpha > 1), (1/pi) Int (1 - e^-g) (alpha < 1),

    y = x - zeta, g = y^(alpha/(alpha-1)) V(theta), theta in (-theta0, pi/2).
    g crosses 1 where pi/2 - theta is about y^-alpha, so the integrals run
    over u = log(pi/2 - theta), split around that point and taken relative
    to e^u there (mpmath's convergence test is absolute)."""
    with mp.workdps(50):
        a, b, x = mp.mpf(alpha), mp.mpf(beta), mp.mpf(x)
        tpa = mp.tan(mp.pi * a / 2)
        theta0 = mp.atan(b * tpa) / a
        top = mp.log(mp.pi / 2 + theta0)
        y, e = x - (-b * tpa if zeta is None else mp.mpf(zeta)), 1 / (a - 1)
        head = a * e * mp.log(y) + e * mp.log(mp.cos(a * theta0))
        peak = -a * mp.log(y)
        memo = {}

        def log_g(u):
            # V in the distances s = pi/2 - theta and t = theta + theta0
            if u not in memo:
                s = mp.exp(u)
                t = mp.exp(top) - s
                memo[u] = None if t <= 0 else (
                    head + e * mp.log(mp.sin(s)) - a * e * mp.log(mp.sin(a * t))
                    + mp.log(mp.cos(theta0 + (a - 1) * t)))
            return memo[u]

        def density(u):
            lg = log_g(u)
            return 0 if lg is None else mp.exp(lg - mp.exp(lg) + u - peak)

        def survival(u):
            lg = log_g(u)
            if lg is None:
                return 0
            g = mp.exp(lg)
            return (-mp.expm1(-g) if a < 1 else mp.exp(-g)) * mp.exp(u - peak)

        cuts = [u for u in (peak - 120, peak - 10, peak, peak + 10) if u < top] + [top]
        return (a / (mp.pi * abs(a - 1) * y) * mp.quad(density, cuts) * mp.exp(peak),
                mp.quad(survival, cuts) * mp.exp(peak) / mp.pi)


def _alpha_one_tail(x: float, beta: float):
    """The density at x of S(1, beta, 1, 0; 0), |x| >= 1e3, and its mass
    beyond x (P[X > x] for x > 0, P[X < x] for x < 0), in mpmath: the
    Fourier inversion with its path turned onto the imaginary axis, t = -i
    r sgn x, and r = u/y, y = |x|,

        f(x) = (1/(pi y)) Int_0^inf e^(-u (1 + c log(u/y)/y)) sin((1 + b) u/y) du,

    b = beta sgn x, c = 2b/pi; the mass drops the 1/y and divides the
    integrand by u.  For b < 0 the turned integrand grows again only past
    u = y e^(y/|c|), far beyond the quadrature's range."""
    b = beta * (1.0 if x > 0 else -1.0)
    with mp.workdps(40):
        y, c = mp.mpf(abs(x)), 2 * mp.mpf(b) / mp.pi

        def integrand(u):
            return mp.exp(-u * (1 + c * mp.log(u / y) / y)) * mp.sin((1 + b) * u / y)

        ends = [0, 1, 10, 60, 200]
        return (mp.quad(integrand, ends) / (mp.pi * y),
                mp.quad(lambda u: integrand(u) / u, ends) / mp.pi)


def _bergstrom_density(x: float, alpha: float) -> float:
    """Bergstrom's series of the symmetric density for alpha < 1, summed in
    mpmath: (1/(pi x)) sum_k (-1)^(k+1) Gamma(k alpha + 1) sin(k pi alpha/2)
    x^(-k alpha)/k!.  The terms can exceed the sum by hundreds of digits (at
    alpha = 0.3 and x = 1e-8 the largest is about 1e109), so the working
    precision is set from the largest; a term whose sine is 0 (k alpha/2 an
    integer, to the rounding of alpha) does not end the sum."""
    log_size = [math.lgamma(k * alpha + 1.0) - math.lgamma(k + 1.0) - k * alpha * math.log(x)
                for k in range(1, 4000)]
    peak = max(range(len(log_size)), key=log_size.__getitem__) + 1
    with mp.workdps(30 + max(0, math.ceil(log_size[peak - 1] / math.log(10.0)))):
        a, y = mp.mpf(alpha), mp.mpf(x)
        total, k = mp.mpf(0), 0
        while True:
            k += 1
            sine = mp.sin(mp.pi * k * a / 2)
            term = (-1) ** (k + 1) * mp.gamma(k * a + 1) * sine * y ** (-k * a) / mp.factorial(k)
            total += term
            if k > peak and abs(sine) > 1e-10 and abs(term) < mp.mpf(10) ** -30 * abs(total):
                return float(total / (mp.pi * y))


class TestFarTailSeries:
    """Past the crossover x* of Bergström's series the density and the
    survival function are the series, not Nolan's integrals."""

    @pytest.mark.parametrize("alpha", [0.05, 0.7, 1.5, 1.9])
    @pytest.mark.parametrize("beta", [0.0, 0.5, -0.5, 0.9, -0.9])
    def test_against_nolan_in_mpmath(self, alpha, beta):
        # at alpha = 0.05 the series starts about 4e-8 past zeta, where the
        # density's condition number in x is |zeta|/y, about 2e6: the oracle
        # takes the kernel's rounded zeta, so that both see the same y
        zeta = -beta * math.tan(math.pi * alpha / 2.0)
        crossover = math.exp(stable._bergstrom(alpha, beta).log_crossover)
        for x in (zeta + crossover, zeta + 10.0 * crossover, 1e100):
            pdf, sf = (float(v) for v in _nolan_tail(alpha, beta, x, zeta))
            z = np.array([x])
            assert stable._standard_pdf(alpha, beta, z)[0] == pytest.approx(pdf, rel=1e-13)
            assert stable._standard_sf(alpha, beta, z)[0] == pytest.approx(sf, rel=1e-13)
            # the lower tail of the mirrored law, by reflection
            assert stable._standard_pdf(alpha, -beta, -z)[0] == pytest.approx(pdf, rel=1e-13)

    @pytest.mark.parametrize("y", [1e-2, 1e-5, 1e-11])
    @pytest.mark.parametrize("beta", [0.5, -0.5])
    def test_skewed_alpha_one_tenth_next_to_zeta(self, beta, y):
        # the spike of S(0.1, 0.5) on either side of zeta, 7.9e5 high, which
        # the numeric moment integrates and its oracle's survival function
        # crosses; the oracle takes the kernel's rounded zeta, as above
        zeta = -beta * math.tan(math.pi * 0.1 / 2.0)
        pdf, sf = (float(v) for v in _nolan_tail(0.1, beta, zeta + y, zeta))
        z = np.array([zeta + y])
        assert stable._standard_pdf(0.1, beta, z)[0] == pytest.approx(pdf, rel=1e-12)
        assert stable._standard_sf(0.1, beta, z)[0] == pytest.approx(sf, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1.0 + stable._NEAR_ONE, 1.999), _betas)
    def test_terms_shrink_at_the_crossover(self, alpha, beta):
        # for alpha > 1 the series is asymptotic: at x* its terms, sines taken
        # as 1, still shrink up to the first omitted one (with 64 terms they
        # stop shrinking near k = 44 at alpha = 1.9)
        zeta = -beta * math.tan(math.pi * alpha / 2.0)
        k = np.arange(1.0, stable._TAIL_TERMS + 2.0)
        log_size = (np.array([math.lgamma(j * alpha + 1.0) - math.lgamma(j + 1.0) for j in k])
                    + 0.5 * k * math.log1p(zeta * zeta)
                    - k * alpha * stable._bergstrom(alpha, beta).log_crossover)
        assert (np.diff(log_size) < 0.0).all()

    def test_crossover_where_no_trial_point_passes_the_cancellation_test(self, monkeypatch):
        # x* then goes to the last of the 64 trial points u = y^-alpha, not
        # back to the first: 64^(1/alpha) past the first-omitted-term x*,
        # which binds at alpha = 1.5 otherwise
        first = stable._bergstrom(1.5, 0.0).log_crossover
        monkeypatch.setattr(stable, "_TAIL_CONDITION", 0.0)
        assert stable._bergstrom(1.5, 0.0).log_crossover == pytest.approx(
            first + math.log(64.0) / 1.5, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.05, 0.1])
    def test_small_alpha_density_against_mpmath(self, alpha):
        # at alpha = 0.05 the series starts at x* = 4.9e-8; Nolan's
        # integrals raised at z = 0.005 while x* lay at 4e28
        z = np.concatenate([[0.005, 0.01], 10.0 ** np.arange(-8.0, 8.5, 0.5)])
        want = [_bergstrom_density(x, alpha) for x in z]
        for values in (stable._standard_pdf(alpha, 0.0, z), stable._standard_pdf(alpha, 0.0, -z)):
            assert values == pytest.approx(want, rel=1e-13, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.5, 1.99).filter(lambda a: abs(a - 1.0) >= stable._NEAR_ONE), _betas,
           st.sampled_from([1.0, -1.0]))
    def test_continuous_at_the_crossover(self, alpha, beta, side):
        # y = x - zeta just below x* takes Nolan's integrals, just above the series
        zeta = -side * beta * math.tan(math.pi * alpha / 2.0)  # of the law on this side
        y = math.exp(stable._bergstrom(alpha, side * beta).log_crossover) * np.array(
            [1.0 - 2.0 ** -40, 1.0 + 2.0 ** -40])
        z = side * (zeta + y)
        for values in (stable._standard_pdf(alpha, beta, z), stable._standard_sf(alpha, beta, z)):
            assert values[1] == pytest.approx(values[0], rel=1e-10)


def _series_switch(alpha: float, want: str, side: float):
    """Two neighbouring points side*x, x in (0, 4), the first where
    `_power_series` is exact and the second where it is not, or None."""
    x = side * np.linspace(0.0, stable._NEAR_BOUND, 4001)[1:]
    _, exact = stable._power_series(alpha, x, want)
    if exact.all():
        return None
    i = int(np.argmin(exact))
    lo, hi = x[i - 1], x[i]
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return np.array([lo, hi])
        if stable._power_series(alpha, np.array([mid]), want)[1][0]:
            lo = mid
        else:
            hi = mid


class TestNearEndSeries:
    """Near zero the symmetric law with 1 < alpha < 2 is its convergent
    power series, not Nolan's integrals, wherever the series is exact."""

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_density_near_zero_is_rho0_to_the_bit(self, alpha):
        rho0 = stable._gamma(1.0 + 1.0 / alpha) / math.pi
        z = np.array([1e-149, 1e-100, 1e-60, 1e-30])
        for values in (stable._standard_pdf(alpha, 0.0, z), stable._standard_pdf(alpha, 0.0, -z)):
            assert [v.hex() for v in values] == [rho0.hex()] * z.size

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.sampled_from([1.0 + stable._NEAR_ONE, 1.999]),
                     st.floats(1.0, 2.0, exclude_min=True, exclude_max=True)),
           st.lists(st.floats(-stable._NEAR_BOUND, stable._NEAR_BOUND, exclude_min=True,
                              exclude_max=True), min_size=1, max_size=8))
    def test_against_mpmath(self, alpha, points):
        x = np.array(points)
        for want in ("pdf", "sf"):
            series, exact = stable._power_series(alpha, x, want)
            assert exact[np.abs(x) <= 1e-150].all()
            taken = x[exact]
            got = stable._zolotarev(alpha, 0.0, taken, want)
            assert _bits(got) == _bits(series[exact])
            for z, value in zip(taken, got):
                assert value == pytest.approx(_symmetric_series(z, alpha, want), rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_against_fourier_inversion(self, alpha):
        z = np.array([0.1, 0.3, -0.5])
        assert stable._power_series(alpha, z, "pdf")[1].all()
        pdf = stable._standard_pdf(alpha, 0.0, z)
        assert pdf == pytest.approx([_fourier_density(x, alpha, 0.0) for x in z], rel=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(1.0 + stable._NEAR_ONE, 1.999), st.sampled_from(["pdf", "sf"]),
           st.sampled_from([1.0, -1.0]))
    def test_continuous_at_the_switch(self, alpha, want, side):
        # of two neighbouring points the first takes the series, the second Nolan's integrals
        z = _series_switch(alpha, want, side)
        assume(z is not None)
        values = stable._standard(alpha, 0.0, z, want)
        assert values[1] == pytest.approx(values[0], rel=1e-14)


class TestTableWork:
    """The integrals behind the alpha = 1.5 three-series table and the
    benchmark's skewed alpha = 1.5 density grid."""

    def _table(self, monkeypatch, name, record,
               work=lambda: three_series_check(PowerLaw(1.0, 1.0), 1.5, 1.0, 1.0, 2 ** 14)):
        original = getattr(stable, name)

        def counted(law, *args, **kwargs):
            record(*args)
            return original(law, *args, **kwargs)

        monkeypatch.setattr(stable, name, counted)
        work()

    def test_most_points_take_a_series(self, monkeypatch):
        # 653 on the Simpson grid of 4,097 points
        points = []
        self._table(monkeypatch, "_zolotarev_integral", lambda x, *rest: points.append(x.size))
        assert 0 < sum(points) <= 200

    def test_survival_comes_from_the_panels(self, monkeypatch):
        # Nolan's survival integral ran at every cut below x*
        calls = []
        self._table(monkeypatch, "_upper_lower", lambda x: calls.append(x.size))
        assert calls == []

    def test_skewed_grid_past_the_crossovers_takes_the_series(self, monkeypatch):
        # the benchmark's (1.5, 0.3) grid: 41 of its 200 points lie past x*
        points = []
        grid = np.array([-10.0 + 20.0 * i / 199 for i in range(200)])
        self._table(monkeypatch, "_zolotarev_integral", lambda x, *rest: points.append(x.size),
                    lambda: stable_pdf(validate_params(1.5, 0.3, 1.0, 0.0), grid))
        assert sum(points) == 159

    def test_no_panel_has_zero_width_on_every_row(self, monkeypatch):
        widths = []

        def record(log_scale, va, vb, *rest):
            if vb is not None:
                widths.append(np.max(vb - va))

        self._table(monkeypatch, "_gk_panel", record)
        assert widths and min(widths) > 0.0


_KERNEL_LAWS = ([(a, b) for a in (0.5, 1.5, 1.9) for b in (0.0, 0.7, -0.6)]
                + [(1.0, b) for b in (0.05, 0.4, 0.9)])


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _coordinates(law, rng, shape):
    """Coordinates v of both signs over the whole range the panels reach."""
    return np.sinh(rng.uniform(-1.0, 1.0, shape) * math.asinh(law.v_max))


class TestKernelBits:
    """The kernel's node quantities keep the bits of the whole-array
    expressions in tests/textbook.py, and no helper writes into its
    arguments."""

    @pytest.mark.parametrize("alpha,beta", _KERNEL_LAWS)
    def test_node_quantities(self, alpha, beta):
        law = stable._Zolotarev(alpha, beta)
        v = _coordinates(law, np.random.default_rng(31), (257, 15))
        v[0, :4] = (0.0, -0.0, law.v_max, -law.v_max)
        with np.errstate(all="ignore"):
            t, s = law.ts(v)
            want_t, want_s = textbook_ts(law, v)
            assert (_bits(t), _bits(s)) == (_bits(want_t), _bits(want_s))
            assert _bits(law.log_v(t, s)) == _bits(textbook_log_v(law, want_t, want_s))
            assert (_bits(t), _bits(s)) == (_bits(want_t), _bits(want_s))  # left as they were
            assert _bits(law.jacobian(t, s)) == _bits(textbook_jacobian(law, want_t, want_s))

    @pytest.mark.parametrize("integrand", ["g*exp(-g)", "exp(-g)", "1-exp(-g)"])
    @pytest.mark.parametrize("alpha,beta", _KERNEL_LAWS)
    def test_panels(self, alpha, beta, integrand):
        law = stable._Zolotarev(alpha, beta)
        rng = np.random.default_rng(32)
        # points above zeta; at alpha = 1 (zeta = 0) on both sides
        side = rng.choice([-1.0, 1.0], 300) if alpha == 1.0 else 1.0
        x = law.zeta + side * np.exp(rng.uniform(-4.0, 4.0, 300))
        log_scale = law.log_scale(x)
        ends = np.sort(_coordinates(law, rng, (300, 2)), axis=1)
        for rows in (slice(None), slice(7, 8)):  # a many-row pass and a one-row pass
            lo, hi, ls = ends[rows, 0], ends[rows, 1], log_scale[rows]
            for va, vb, tail in ((lo, hi, 0.0), (lo, None, -1.0), (hi, None, 1.0)):
                with np.errstate(all="ignore"):
                    got = stable._gk_panel(law, ls, va, vb, integrand, tail)
                    want = textbook_gk_panel(law, ls, va, vb, integrand, tail)
                assert [_bits(a) for a in got] == [_bits(a) for a in want]

    @pytest.mark.parametrize("alpha,beta", _KERNEL_LAWS)
    def test_helpers_leave_their_arguments_as_they_are(self, alpha, beta):
        # jacobian formed its value in the storage of t and s, and _gk_sum
        # overwrote f
        law = stable._Zolotarev(alpha, beta)
        rng = np.random.default_rng(33)
        v = _coordinates(law, rng, (64, 15))
        lo, hi = np.sort(_coordinates(law, rng, (2, 64)), axis=0)
        log_scale = law.log_scale(law.zeta + np.exp(rng.uniform(-4.0, 4.0, 64)))
        with np.errstate(all="ignore"):
            t, s = law.ts(v)
        calls = [(law.ts, v), (law.log_v, t, s), (law.jacobian, t, s), (stable._gk_nodes, lo, hi),
                 (stable._gk_sum, rng.standard_normal((64, 15)), hi - lo)]
        calls += [(stable._gk_panel, law, log_scale, lo, end, integrand, tail)
                  for integrand in ("g*exp(-g)", "exp(-g)", "1-exp(-g)")
                  for end, tail in ((hi, 0.0), (None, -1.0), (None, 1.0))]
        for fn, *args in calls:
            arrays = [a for a in args if isinstance(a, np.ndarray)]
            before = [_bits(a) for a in arrays]
            with np.errstate(all="ignore"):
                fn(*args)
            assert [_bits(a) for a in arrays] == before, fn.__name__

    def test_benchmark_outputs_do_not_depend_on_the_pass_size(self, monkeypatch):
        # the alpha = 1.5 three-series table and the benchmark's two density
        # grids give the same bytes in passes of 512 points as in the default
        points = np.array([-10.0 + 20.0 * i / 199 for i in range(200)])

        def outputs():
            r = three_series_check(PowerLaw(1.0, 1.0), 1.5, 1.0, 1.0, 2 ** 14)
            pdfs = [stable_pdf(validate_params(a, b, 1.0, 0.0), points)
                    for a, b in ((1.5, 0.3), (1.0, 0.4))]
            return [_bits(r.traces[k]) for k in ("s0", "s1", "s2")] + [_bits(p) for p in pdfs]

        assert stable._CHUNK == 1024
        default = outputs()
        monkeypatch.setattr(stable, "_CHUNK", 512)
        assert outputs() == default
