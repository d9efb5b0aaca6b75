"""The batch Zolotarev-integral density and distribution function:
independent oracles (convergent series, mpmath, the Fourier-inversion
path), failure reporting, and invariants checked with hypothesis."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stableinfer import (
    OutOfRangeError,
    QuadratureFailureError,
    StableParams,
    cauchy_logpdf,
    fractional_moment,
    kl_divergence_1d,
    normal_logpdf,
    stable_pdf,
    validate_params,
)
from stableinfer import stable


def _symmetric_series(z: float, alpha: float) -> float:
    """(1/(pi alpha)) sum_k (-1)^k Gamma((2k+1)/alpha) z^(2k) / (2k)!,
    the convergent power series of the symmetric density for alpha > 1."""
    with mp.workdps(30):
        total, k = mp.mpf(0), 0
        while True:
            term = (-1) ** k * mp.gamma(mp.mpf(2 * k + 1) / alpha) * mp.mpf(z) ** (2 * k) / mp.factorial(2 * k)
            total += term
            if k > 2 and abs(term) < mp.mpf(10) ** -25:
                return float(total / (mp.pi * alpha))
            k += 1


def _fourier_density(x: float, alpha: float, beta: float) -> float:
    """(1/pi) int_0^inf exp(-t^alpha) cos(x t + phase(t)) dt in mpmath, with
    phase(t) = beta tan(pi alpha/2) (t - t^alpha), or beta (2/pi) t log t at
    alpha = 1, on pieces that grow like t^2 up to where exp(-t^alpha) < 1e-17."""
    with mp.workdps(20):
        a, b = mp.mpf(alpha), mp.mpf(beta)
        if alpha == 1.0:
            phase = lambda t: b * 2 / mp.pi * t * mp.log(t) if t > 0 else mp.mpf(0)
        else:
            tan = mp.tan(mp.pi * a / 2)
            phase = lambda t: b * tan * (t - t ** a)
        top = mp.mpf(40) ** (1 / a)
        f = lambda t: mp.exp(-t ** a) * mp.cos(x * t + phase(t))
        return float(mp.quad(f, [top * (k / 200.0) ** 2 for k in range(201)]) / mp.pi)


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


_PARITY_ALPHAS = [0.5, 0.8, 0.99, 1.0, 1.01, 1.3, 1.5, 1.7, 1.95]
_PARITY_LAWS = [(a, b) for a in _PARITY_ALPHAS for b in (0.0, 0.5, -0.9) if not (a == 1.0 and b == 0.0)]
_PARITY_Z = np.array([s * v for v in (0.1, 0.3, 1.0, 2.5, 6.0, 15.0, 50.0) for s in (1.0, -1.0)])


@pytest.mark.parametrize("alpha,beta", _PARITY_LAWS)
def test_parity_with_fourier_inversion(alpha, beta):
    """The batch kernel either agrees with the QUADPACK Fourier path to
    1e-8 relative or raises; it never returns an unchecked value."""
    p = validate_params(alpha, beta, 1.0, 0.0)
    try:
        batch = stable_pdf(p, _PARITY_Z)
    except QuadratureFailureError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reference = stable._StandardNumericDensity(p.alpha, p.beta)(_PARITY_Z)
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
        assert stable_pdf(p, batch)[where] == pytest.approx(stable_pdf(p, z), rel=1e-14, abs=1e-300)
