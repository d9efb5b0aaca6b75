"""Parameter validation and the closure arithmetic (affine maps, sums)."""

import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

from stableinfer import (
    AlphaMismatchError,
    OutOfRangeError,
    StableParams,
    ZeroScaleError,
    affine_transform,
    char_fn,
    convolve,
    validate_params,
)


class TestValidateParams:
    def test_normal_identification(self):
        # S(2, 0, sigma/sqrt2, m) is N(m, sigma^2)
        sigma, m = 1.7, -0.4
        p = validate_params(2.0, 0.0, sigma / math.sqrt(2.0), m)
        assert p == StableParams.normal(m, sigma)

    def test_cauchy_identification(self):
        p = validate_params(1.0, 0.0, 2.5, 0.7)
        assert p == StableParams.cauchy(0.7, 2.5)

    def test_beta_endpoint_rejected(self):
        with pytest.raises(OutOfRangeError, match="beta") as err:
            validate_params(1.0, 1.0, 1.0, 0.0)
        assert "supported" in str(err.value)

    @pytest.mark.parametrize(
        "alpha,beta,gamma,delta,param",
        [
            (0.0, 0.0, 1.0, 0.0, "alpha"),
            (2.5, 0.0, 1.0, 0.0, "alpha"),
            (-1.0, 0.0, 1.0, 0.0, "alpha"),
            (1.0, -1.0, 1.0, 0.0, "beta"),
            (1.0, 1.5, 1.0, 0.0, "beta"),
            (1.0, 0.0, -0.1, 0.0, "gamma"),
            (1.0, 0.0, math.inf, 0.0, "gamma"),
            (1.0, 0.0, 1.0, math.nan, "delta"),
        ],
    )
    def test_out_of_range(self, alpha, beta, gamma, delta, param):
        with pytest.raises(OutOfRangeError) as err:
            validate_params(alpha, beta, gamma, delta)
        assert err.value.parameter == param

    def test_gaussian_zeroes_skewness(self):
        assert validate_params(2.0, 0.6, 1.0, 0.0).beta == 0.0

    def test_alpha_snaps_to_one(self):
        assert validate_params(1.0 + 1e-10, 0.2, 1.0, 0.0).alpha == 1.0

    def test_zero_scale_is_allowed(self):
        # point mass at delta, needed for coefficient sequences with zeros
        assert validate_params(1.0, 0.0, 0.0, 3.0).gamma == 0.0


class TestAffineTransform:
    def test_identity(self):
        p = validate_params(1.3, 0.4, 2.0, -1.0)
        assert affine_transform(p, 1.0, 0.0) == p

    def test_reflection_flips_skewness(self):
        p = validate_params(1.3, 0.4, 2.0, -1.0)
        q = affine_transform(p, -1.0, 0.0)
        assert (q.alpha, q.beta, q.gamma, q.delta) == (1.3, -0.4, 2.0, 1.0)

    def test_direct_substitution(self):
        q = affine_transform(validate_params(1.5, 0.3, 2.0, 1.0), 2.0, 3.0)
        assert (q.alpha, q.beta, q.gamma, q.delta) == (1.5, 0.3, 4.0, 5.0)

    def test_zero_scale_rejected(self):
        with pytest.raises(ZeroScaleError):
            affine_transform(validate_params(1.5, 0.0, 1.0, 0.0), 0.0, 1.0)

    @pytest.mark.parametrize("alpha,beta", [(0.7, 0.0), (1.0, 0.5), (1.6, -0.3), (2.0, 0.0)])
    @pytest.mark.parametrize("a,b", [(2.0, 3.0), (-0.5, 1.0), (7.0, -2.0)])
    def test_roundtrip_inverse(self, alpha, beta, a, b):
        p = validate_params(alpha, beta, 1.3, 0.4)
        q = affine_transform(affine_transform(p, a, b), 1.0 / a, -b / a)
        assert q.alpha == p.alpha
        assert q.beta == pytest.approx(p.beta, abs=1e-15)
        assert q.gamma == pytest.approx(p.gamma, rel=1e-14)
        assert q.delta == pytest.approx(p.delta, rel=1e-13, abs=1e-13)


class TestConvolve:
    def test_two_gaussians(self):
        p = convolve(StableParams.normal(1.0, math.sqrt(2.0)),
                     StableParams.normal(-3.0, math.sqrt(2.0)))
        assert p.alpha == 2.0
        assert p.beta == 0.0
        assert p.gamma == pytest.approx(math.sqrt(2.0))
        assert p.delta == pytest.approx(-2.0)

    def test_two_cauchys(self):
        p = convolve(StableParams.cauchy(0.0, 1.0), StableParams.cauchy(0.0, 1.0))
        assert (p.alpha, p.beta, p.gamma, p.delta) == (1.0, 0.0, 2.0, 0.0)

    def test_skewed_combination(self):
        p = convolve(validate_params(1.5, 0.5, 1.0, 0.0),
                     validate_params(1.5, -0.5, 2.0, 0.0))
        g2a = 2.0 ** 1.5
        beta = (0.5 - 0.5 * g2a) / (1.0 + g2a)
        gamma = (1.0 + g2a) ** (1.0 / 1.5)
        assert p.beta == pytest.approx(beta)
        assert p.gamma == pytest.approx(gamma)
        delta = math.tan(math.pi * 1.5 / 2.0) * (beta * gamma - 0.5 * 1.0 - (-0.5) * 2.0)
        assert p.delta == pytest.approx(delta)

    def test_alpha_mismatch(self):
        with pytest.raises(AlphaMismatchError):
            convolve(StableParams.cauchy(0, 1), StableParams.normal(0, 1))

    def test_point_masses(self):
        p = convolve(validate_params(1.0, 0.0, 0.0, 2.0),
                     validate_params(1.0, 0.0, 0.0, 3.0))
        assert (p.gamma, p.delta) == (0.0, 5.0)

    def test_locations_add_through_symmetric_sums(self):
        p = convolve(StableParams.cauchy(1.0, 1.0), StableParams.cauchy(2.0, 3.0))
        assert p.delta == pytest.approx(3.0)
        assert p.gamma == pytest.approx(4.0)


# both alpha branches of parametrisation 0, alpha = 1 itself included, but
# not the neighbourhood of 1 where validate_params snaps alpha to 1
_alpha = st.one_of(st.sampled_from([1.0, 2.0]),
                   st.floats(0.1, 2.0).filter(lambda a: abs(a - 1.0) >= 1e-3))
_beta = st.floats(-0.99, 0.99)
_gamma = st.floats(0.0, 3.0)
_shift = st.floats(-5.0, 5.0)
_t = st.floats(-3.0, 3.0)


class TestClosureAgainstCharFn:
    """The closure arithmetic against the characteristic functions it
    must produce, location corrections and the x log x term at alpha = 1
    included."""

    @settings(max_examples=300, deadline=None)
    @given(_alpha, _beta, _gamma, _shift, _beta, _gamma, _shift, _t)
    def test_sum_has_the_product_char_fn(self, alpha, b1, g1, d1, b2, g2, d2, t):
        p1, p2 = validate_params(alpha, b1, g1, d1), validate_params(alpha, b2, g2, d2)
        want = char_fn(p1, t) * char_fn(p2, t)
        assert abs(char_fn(convolve(p1, p2), t) - want) <= 1e-12

    def test_sum_with_a_subnormal_scale_keeps_its_skewness(self):
        # 0.75 * 5e-324 rounds to 5e-324, which made the weighted skewness 1
        p1 = validate_params(1.0, 0.75, 5e-324, 0.0)
        assert convolve(p1, validate_params(1.0, 0.0, 0.0, 0.0)).beta == 0.75

    @settings(max_examples=300, deadline=None)
    @given(_alpha, _beta, _gamma, _shift, st.floats(-3.0, 3.0).filter(lambda a: a != 0.0),
           _shift, _t)
    def test_affine_map_has_the_shifted_char_fn(self, alpha, beta, gamma, delta, a, b, t):
        p = validate_params(alpha, beta, gamma, delta)
        want = cmath.exp(1j * b * t) * char_fn(p, a * t)
        assert abs(char_fn(affine_transform(p, a, b), t) - want) <= 1e-12
