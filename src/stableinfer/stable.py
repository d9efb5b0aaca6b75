"""Univariate stable-distribution kernel.

Four-parameter stable laws in the continuous ("parametrisation 0")
convention: S(alpha, beta, gamma, delta; 0) has characteristic function

    E exp(itu) = exp(i*delta*t - |gamma*t|^alpha
                     * [1 + i*beta*tan(pi*alpha/2)*sgn(t)*(|gamma*t|^(1-alpha) - 1)])

for alpha != 1, with the log form at alpha = 1 (and the 0*log(0) = 0
convention).  Special members: S(2, 0, sigma/sqrt(2), m) is normal with
mean m and standard deviation sigma, and S(1, 0, gamma, delta) is Cauchy
with location delta and width gamma.

The module provides validation, exact rejection-free sampling (the
Chambers-Mallows-Stuck transform in parametrisation 0, its sines and cosines
one polynomial of + and * alone, `_sin_quadrant`), closed-form Cauchy/normal
densities, the closure rules under affine maps and independent sums,
fractional absolute moments, power-law tail asymptotics, truncated Cauchy
moments, the survival and truncated-moment tables of the symmetric law
behind the three-series test (`_symmetric_truncated_term_tables`, on
16-point Gauss-Legendre panels in log s), and a one-dimensional KL
divergence with divergence detection.

Every numerical integral runs on numpy arrays of 7/15-point Gauss-Kronrod
panels (`_gk_sum`), with QUADPACK's error estimate and
QuadratureFailureError where it misses the tolerance: Nolan's (1997)
finite-interval form of Zolotarev's integral for the densities and
distribution functions without a closed form, the numeric fractional
moments and the KL divergence.  The numeric moments and the three-series
tables halve their panels by one rule (`_halving`).  Far in the tails the
densities and distribution functions are Bergström's (1952) series instead
(`_bergstrom`, for alpha != 1 or beta = 0, with 32 terms), past a crossover
computed from its coefficients, or for skewed alpha = 1 two terms of its tail
expansion past |x| = 1e7 (density) and 1e9 (distribution function), and near
zero those of symmetric laws with 1 < alpha < 2 are their convergent power
series (`_power_series`), wherever a per-point test finds it exact; this
module alone decides which points take a series.  The tolerance is fixed,
absolute _ABS_TOL = 1e-10 and relative _REL_TOL = 1e-8, and one helper,
`_good_enough`, applies it.  QUADPACK serves only the Fourier-inversion
reference `_StandardNumericDensity`, which inverts `char_fn` and is kept
for the tests, so `scipy.integrate` is imported on its first call rather
than with the module; importing this module loads numpy only.  Moments
of strictly stable laws and the tail constant are closed forms
(Samorodnitsky & Taqqu 1994, Properties 1.2.15 and 1.2.17).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    AlphaMismatchError,
    OutOfRangeError,
    QuadratureFailureError,
    ZeroScaleError,
)
from .rng import make_rng

__all__ = [
    "StableParams",
    "MomentValue",
    "TailAsymptote",
    "TruncatedCauchyMoments",
    "validate_params",
    "char_fn",
    "sample_stable",
    "standard_stable_from_uniforms",
    "sample_cauchy_via_ratio",
    "sample_cauchy_via_circle",
    "cauchy_pdf",
    "cauchy_logpdf",
    "cauchy_cdf",
    "normal_pdf",
    "normal_logpdf",
    "stable_pdf",
    "affine_transform",
    "convolve",
    "fractional_moment",
    "tail_asymptote",
    "truncated_cauchy_moments",
    "kl_divergence_1d",
]

# alpha values this close to 1 are snapped onto the alpha = 1 branch:
# tan(pi*alpha/2) blows up while the two branches agree in distribution.
_ALPHA_ONE_SNAP = 1e-8

# the tolerance of every numerical integral below
_ABS_TOL = 1e-10
_REL_TOL = 1e-8


def _good_enough(value, err):
    """err <= max(_ABS_TOL, _REL_TOL*|value|), elementwise; a NaN fails."""
    return err <= np.maximum(_ABS_TOL, _REL_TOL * np.abs(value))


@dataclass(frozen=True)
class StableParams:
    """Validated (alpha, beta, gamma, delta) record; build via `validate_params`."""

    alpha: float
    beta: float
    gamma: float
    delta: float

    @classmethod
    def normal(cls, mean: float, std: float) -> "StableParams":
        """The normal N(mean, std^2) as a stable law."""
        return validate_params(2.0, 0.0, std / math.sqrt(2.0), mean)

    @classmethod
    def cauchy(cls, delta: float, gamma: float) -> "StableParams":
        """The Cauchy law with location delta and width gamma."""
        return validate_params(1.0, 0.0, gamma, delta)

    @property
    def is_gaussian(self) -> bool:
        return self.alpha == 2.0

    @property
    def is_symmetric_cauchy(self) -> bool:
        return self.alpha == 1.0 and self.beta == 0.0


@dataclass(frozen=True)
class MomentValue:
    """A moment that is a finite number or infinite."""

    kind: str  # "finite" | "infinite"
    value: Optional[float] = None

    @classmethod
    def finite(cls, value: float) -> "MomentValue":
        return cls("finite", float(value))

    @classmethod
    def infinite(cls) -> "MomentValue":
        return cls("infinite")

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @property
    def is_infinite(self) -> bool:
        return self.kind == "infinite"


class TailAsymptote(NamedTuple):
    survival: float
    pdf: float


class TruncatedCauchyMoments(NamedTuple):
    p_exceed: float
    m1: float
    m2: float


def validate_params(alpha, beta, gamma, delta) -> StableParams:
    """Validate raw parameters and return a normalized `StableParams`.

    Constraints: 0 < alpha <= 2, -1 < beta < 1, gamma >= 0, delta finite.
    The skewness endpoints beta = +-1 are rejected: those one-sided laws
    are not supported on the whole real line and the closure arithmetic
    here assumes full support.  gamma = 0 is allowed as the point mass at
    delta.  alpha within 1e-8 of 1 is snapped to exactly 1, and alpha = 2
    stores beta as 0 (skewness has no effect in the Gaussian case).
    """
    alpha, beta, gamma, delta = float(alpha), float(beta), float(gamma), float(delta)
    if not (0.0 < alpha <= 2.0) or not math.isfinite(alpha):
        raise OutOfRangeError("alpha", f"stability index must lie in (0, 2], got {alpha!r}")
    if not (-1.0 < beta < 1.0):
        raise OutOfRangeError("beta", f"skewness must lie strictly inside (-1, 1), got {beta!r}; the "
                              "endpoint values give totally skewed laws that are not supported "
                              "on all of R and are excluded")
    if not (gamma >= 0.0) or not math.isfinite(gamma):
        raise OutOfRangeError("gamma", f"scale must be a finite number >= 0, got {gamma!r}")
    if not math.isfinite(delta):
        raise OutOfRangeError("delta", f"location must be finite, got {delta!r}")
    if abs(alpha - 1.0) < _ALPHA_ONE_SNAP:
        alpha = 1.0
    if alpha == 2.0:
        beta = 0.0
    return StableParams(alpha, beta, gamma, delta)


# ---------------------------------------------------------------------------
# characteristic function
# ---------------------------------------------------------------------------

def char_fn(params: StableParams, t):
    """Characteristic function E exp(itu) in parametrisation 0.

    Vectorized in t; returns a complex scalar for scalar input.  Total on
    valid parameters, including gamma = 0 (point mass: exp(i*delta*t)).
    """
    t_arr = np.asarray(t, dtype=float)
    gt = np.abs(params.gamma * t_arr)
    if params.alpha == 1.0:
        # 0*log(0) convention: the skew term vanishes with gamma*|t|
        glg = np.where(gt > 0.0, gt * np.log(np.where(gt > 0.0, gt, 1.0)), 0.0)
        exponent = (1j * params.delta * t_arr - gt
                    - 1j * params.beta * (2.0 / math.pi) * np.sign(t_arr) * glg)
    else:
        # |gt|^alpha * (|gt|^(1-alpha) - 1) rewritten as gt - gt^alpha,
        # which stays finite at gt = 0 for every alpha
        ga = gt ** params.alpha
        exponent = (1j * params.delta * t_arr - ga - 1j * params.beta
                    * math.tan(math.pi * params.alpha / 2.0) * np.sign(t_arr) * (gt - ga))
    out = np.exp(exponent)
    return complex(out) if np.ndim(t) == 0 else out


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

# sin r = r + r*(z*P(z)), z = r^2, on [0, pi/2]; P (highest power first) is the least-squares
# relative fit, in 40-digit mpmath, on 400 Chebyshev nodes in z.  Cody-Waite pairs for pi/2, pi
_SIN_P = (2.721066875073698e-15, -7.642980306560046e-13, 1.6058939232146187e-10, -2.5052106862247402e-08,
          2.7557319211005384e-06, -0.0001984126984120831, 0.008333333333333191, -0.16666666666666666)
_PIO2, _PI = (1.5707963267948966, 6.123233995736766e-17), (3.141592653589793, 1.2246467991473532e-16)


def _sin_quadrant(r, out=None):
    """sin r for r in [0, pi/2] within 2 ulp, odd, from + and * alone; out must not be r."""
    z = r * r
    p = np.multiply(z, _SIN_P[0], out=out)
    for c in _SIN_P[1:]:
        p += c
        p *= z
    p *= r
    p += r
    return p


def _sin(x, out=None):
    """sin x for |x| <= pi; past pi/2 it is sin(pi - |x|), an exact difference."""
    a = np.abs(x)
    return _sin_quadrant(np.copysign(np.minimum(a, (_PI[0] - a) + _PI[1]), x), out)


def _cos(x, out=None):
    """cos x = sin(pi/2 - |x|) for |x| <= pi/2, and a little past it (negative)."""
    return _sin_quadrant((_PIO2[0] - np.abs(x)) + _PIO2[1], out)


def standard_stable_from_uniforms(alpha: float, beta, u1, u2) -> np.ndarray:
    """Chambers-Mallows-Stuck transform of uniform pairs, parametrisation 0.

    Maps u1, u2 ~ U[0,1) to draws Z with gamma*Z + delta distributed as
    S(alpha, beta, gamma, delta; 0).  beta may be an array broadcastable
    against u1/u2, which is how a whole coefficient matrix with per-index
    skewness is transformed in one call.  The uniforms are only read.  At
    alpha < 1 a draw is +-inf only where its value leaves the float range,
    and never nan.
    """
    u1, u2 = np.broadcast_arrays(np.asarray(u1, dtype=float), np.asarray(u2, dtype=float))
    beta = np.asarray(beta, dtype=float)
    # v and w are fresh arrays (0-d for scalar uniforms), so the routes
    # below can transform them in place with out=
    v = np.subtract(u1, 0.5, out=np.empty(u1.shape))
    v *= math.pi
    alpha_one = abs(alpha - 1.0) < _ALPHA_ONE_SNAP
    # beta = +-0 everywhere, without broadcasting the uniforms to a larger shape
    unskewed = not beta.any() and np.broadcast_shapes(beta.shape, v.shape) == v.shape
    if alpha_one and unskewed:
        # symmetric Cauchy: b below is exactly pi/2, and the log term is
        # +-0 times a finite number (w >= 1e-300 and cos v >= 6e-17 for
        # u1, u2 in [0, 1)), so dropping both leaves every bit as it is
        np.tan(v, out=v)
        v *= math.pi / 2.0
        v *= 2.0 / math.pi
        return v[()]
    w = np.negative(u2, out=np.empty(u2.shape))
    np.log1p(w, out=w)
    np.negative(w, out=w)
    # floor the exponential draw so the 1/w power below cannot overflow
    # to inf (and poison products with 0); the floor has probability mass
    # below 1e-290, far under any Monte Carlo resolution
    if alpha < 1.0:
        w_floor = max(1e-300, 10.0 ** (-290.0 * alpha / (1.0 - alpha)))
    else:
        w_floor = 1e-300
    np.clip(w, w_floor, None, out=w)
    if alpha == 2.0:
        _sin(v, out=v)
        v *= 2.0
        np.sqrt(w, out=w)
        v *= w
        return v[()]
    if alpha_one:
        b = math.pi / 2.0 + beta * v
        z = (2.0 / math.pi) * (
            b * np.tan(v) - beta * np.log((math.pi / 2.0) * w * _cos(v) / b)
        )
        return z
    # at alpha < 1 every non-finite draw of this pass is formed again from
    # logs below, so its divide, overflow and invalid-value warnings would
    # speak of draws that are never returned
    quiet = dict(divide="ignore", over="ignore", invalid="ignore") if alpha < 1.0 else {}
    with np.errstate(**quiet):
        if unskewed and not np.signbit(beta).any():
            # t0 = +-0 and zeta = +-0 below: alpha*(v + t0) is alpha*v, cos(alpha*t0)
            # is 1 and z - zeta is z, bit for bit (v is never -0).  A -0 beta
            # would give zeta = -0 at alpha < 1, and z - zeta turns an
            # underflowed -0 into +0, so it takes the general expression
            z = np.multiply(alpha - 1.0, v, out=np.empty(v.shape))
            _cos(z, out=z)
            np.divide(z, w, out=w)
            w **= (1.0 - alpha) / alpha  # the ** operator's own rounding, as below
            np.multiply(alpha, v, out=z)
            _sin(z, out=z)
            _cos(v, out=v)
            v **= 1.0 / alpha
            z /= v
            z *= w
        else:
            zeta = beta * math.tan(math.pi * alpha / 2.0)
            t0 = np.arctan(zeta) / alpha
            z = np.asarray(
                _sin(alpha * (v + t0))
                / (_cos(alpha * t0) * _cos(v)) ** (1.0 / alpha)
                * (_cos(alpha * t0 + (alpha - 1.0) * v) / w) ** ((1.0 - alpha) / alpha)
                - zeta
            )
    if alpha < 1.0:
        # near u1 = 0 or 1, cos(v)^(-1/alpha) and the w power can overflow
        # and underflow apart, giving +-inf or nan (inf * 0) where the draw
        # is finite or has a sign; only those draws are recomputed
        edge = np.flatnonzero(~np.isfinite(z))
        if edge.size:
            beta, u1, u2 = (np.broadcast_to(a, z.shape).reshape(-1)[edge] for a in (beta, u1, u2))
            z.reshape(-1)[edge] = _cms_from_logs(alpha, beta, u1, u2, w_floor)
    return z[()]


def _cms_from_logs(alpha: float, beta, u1, u2, w_floor: float) -> np.ndarray:
    """The alpha < 1 Chambers-Mallows-Stuck draws formed from the logs of
    their factors: +-inf only where |z + zeta| leaves the float range, and
    never nan."""
    v = math.pi * (u1 - 0.5)
    w = np.clip(-np.log1p(-u2), w_floor, None)
    zeta = beta * math.tan(math.pi * alpha / 2.0)
    t0 = np.arctan(zeta) / alpha
    head = _sin(alpha * (v + t0))
    # cos v > 0 for u1 in [0, 1) and |alpha * t0| < pi/2, so the bracket is
    # finite or -inf (the last cosine is >= 0 in exact arithmetic); one
    # division by alpha keeps a tiny alpha from making inf - inf
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_rest = ((1.0 - alpha)
                    * (np.log(np.maximum(_cos(alpha * t0 + (alpha - 1.0) * v), 0.0)) - np.log(w))
                    - np.log(_cos(alpha * t0)) - np.log(_cos(v))) / alpha
        size = np.exp(np.log(np.abs(head)) + log_rest)
    size[head == 0.0] = 0.0  # sin = 0 makes the draw -zeta, whatever the rest
    return np.copysign(size, head) - zeta


def sample_stable(params: StableParams, n: int, rng) -> np.ndarray:
    """n i.i.d. draws from S(alpha, beta, gamma, delta; 0).

    Exact and rejection-free; each draw consumes one uniform pair.  The
    shift that moves the raw Chambers-Mallows-Stuck output into
    parametrisation 0 is applied internally.  Deterministic given the rng
    state; gamma = 0 returns the constant delta.
    """
    if n < 0:
        raise OutOfRangeError("n", "sample count must be >= 0")
    if n == 0:
        return np.empty(0)
    if params.gamma == 0.0:
        return np.full(n, params.delta)
    u = make_rng(rng).random((n, 2))
    z = standard_stable_from_uniforms(params.alpha, params.beta, u[:, 0], u[:, 1])
    return params.gamma * z + params.delta


def sample_cauchy_via_ratio(gamma: float, delta: float, n: int, rng) -> np.ndarray:
    """Cauchy draws as delta + x/z with x ~ N(0, gamma^2), z ~ N(0, 1).

    The quotient of independent centred Gaussians is Cauchy; an exactly
    zero denominator (probability zero, but representable) is redrawn.
    Draw order is fixed: the numerator batch first, then the denominator,
    so a stub generator can pin either one in tests.
    """
    if not gamma > 0.0:
        raise OutOfRangeError("gamma", "width must be > 0 for the ratio construction")
    if n == 0:
        return np.empty(0)
    gen = make_rng(rng)
    x = gamma * np.asarray(gen.standard_normal(n), dtype=float)
    z = np.asarray(gen.standard_normal(n), dtype=float)
    while (bad := z == 0.0).any():
        z[bad] = gen.standard_normal(int(bad.sum()))
    return delta + x / z


def sample_cauchy_via_circle(gamma: float, n: int, rng) -> np.ndarray:
    """Cauchy C(0, gamma) draws by radial projection of a uniform angle.

    A point at uniform angle theta on a circle, projected radially onto a
    line at distance gamma from the centre, lands at gamma*tan(theta).
    """
    if not gamma > 0.0:
        raise OutOfRangeError("gamma", "width must be > 0")
    theta = make_rng(rng).uniform(-math.pi / 2.0, math.pi / 2.0, n)
    return gamma * np.tan(theta)


# ---------------------------------------------------------------------------
# closed-form densities
# ---------------------------------------------------------------------------

def _standardised(loc: float, scale: float, u, name: str, what: str):
    """(u - loc) / scale as floats, once scale > 0 is checked; a quotient
    or difference past the float range is +-inf, whose limits the closed
    forms below return (density 0, log density -inf, distribution 0 or 1)."""
    if not scale > 0.0:
        raise OutOfRangeError(name, what)
    with np.errstate(over="ignore"):
        return (np.asarray(u, dtype=float) - loc) / scale


def cauchy_pdf(delta: float, gamma: float, u):
    """Density of C(delta, gamma): 1/(gamma*pi) / (1 + ((u-delta)/gamma)^2)."""
    s = _standardised(delta, gamma, u, "gamma", "width must be > 0")
    with np.errstate(over="ignore"):  # s*s = inf past 1.3e154 gives the density 0
        return 1.0 / (gamma * math.pi * (1.0 + s * s))


def cauchy_logpdf(delta: float, gamma: float, u):
    s = np.abs(_standardised(delta, gamma, u, "gamma", "width must be > 0"))
    far = s > 1e150
    # past 1e150, log1p(s^2) = 2 log s + log1p(s^-2) keeps s^2 from overflowing
    r = np.where(far, s, 1.0)
    near = np.where(far, 0.0, s)
    log1p_s2 = np.where(far, 2.0 * np.log(r) + np.log1p(r ** -2.0), np.log1p(near * near))
    return -log1p_s2 - math.log(gamma * math.pi)


def cauchy_cdf(delta: float, gamma: float, u):
    """Distribution function 1/2 + arctan(s)/pi at s = (u-delta)/gamma; below
    s = 0 as arctan(1/|s|)/pi, which keeps its relative precision."""
    s = _standardised(delta, gamma, u, "gamma", "width must be > 0")
    with np.errstate(divide="ignore", over="ignore"):  # |s| = 0 or subnormal: 1/|s| = inf
        lower = np.arctan(1.0 / np.abs(s)) / math.pi
    out = np.where(s < 0.0, lower, 0.5 + np.arctan(s) / math.pi)
    return float(out) if np.ndim(u) == 0 else out


def normal_pdf(mean: float, std: float, u):
    s = _standardised(mean, std, u, "std", "standard deviation must be > 0")
    with np.errstate(over="ignore"):  # s*s = inf past 1.3e154 gives the density 0
        return np.exp(-0.5 * s * s) / (std * math.sqrt(2.0 * math.pi))


def normal_logpdf(mean: float, std: float, u):
    s = _standardised(mean, std, u, "std", "standard deviation must be > 0")
    with np.errstate(over="ignore"):  # s*s = inf past 1.3e154 gives the log density -inf
        return -0.5 * s * s - math.log(std * math.sqrt(2.0 * math.pi))


# ---------------------------------------------------------------------------
# reference density by Fourier inversion
# ---------------------------------------------------------------------------

# QUADPACK's subinterval budget in the reference below
_QUAD_LIMIT = 200


class _LazyIntegrate:
    """`scipy.integrate`, imported on the first attribute looked up, so
    that only the reference below pays for importing it."""

    def __getattr__(self, name):
        from scipy import integrate as module

        return getattr(module, name)


integrate = _LazyIntegrate()


class _StandardNumericDensity:
    """Density of the standardised law S(alpha, beta, 1, 0; 0) by Fourier
    inversion of its characteristic function phi = `char_fn`.

    rho(u) = (1/pi) Integral_0^inf [Re(phi) cos(ut) + Im(phi) sin(ut)] dt,
    evaluated point by point with QUADPACK's oscillatory-weight
    quadrature, whose `scipy.integrate` module is imported on the first
    point.  A point whose summed error estimate misses the tolerance
    (`_good_enough`) raises QuadratureFailureError.  It serves as an
    independent check on the Zolotarev path below; it goes wrong near the
    centre for alpha > 1 (at |u| < 0.02 for alpha = 1.5) and fails at some
    points of skewed laws with alpha < 1.
    """

    def __init__(self, alpha: float, beta: float):
        params = validate_params(alpha, beta, 1.0, 0.0)
        self._params = params
        self._re = lambda t: char_fn(params, t).real
        self._im = lambda t: char_fn(params, t).imag

    def _point(self, u: float) -> float:
        if u == 0.0:
            val, err = integrate.quad(self._re, 0.0, np.inf, epsabs=1e-12, limit=_QUAD_LIMIT)
        else:
            options = dict(wvar=abs(u), epsabs=1e-12, limit=_QUAD_LIMIT, limlst=120)
            (c, c_err), (s, s_err) = (integrate.quad(f, 0.0, np.inf, weight=kind, **options)
                                      for f, kind in ((self._re, "cos"), (self._im, "sin")))
            val, err = c + (s if u > 0 else -s), c_err + s_err
        val, err = val / math.pi, err / math.pi
        if not _good_enough(val, err):
            raise QuadratureFailureError(f"Fourier-inversion density of {self._params} at z={u!r}: "
                                         f"value {val!r} with error estimate {err!r}")
        return max(val, 0.0)

    def __call__(self, u):
        u_arr = np.asarray(u, dtype=float)
        out = np.array([self._point(float(ui)) for ui in u_arr.ravel()]).reshape(u_arr.shape)
        return float(out) if np.ndim(u) == 0 else out


# ---------------------------------------------------------------------------
# batch density and distribution function by Zolotarev's integral
# ---------------------------------------------------------------------------

# Gauss-Kronrod 7/15-point rule on [-1, 1] (the abscissae and weights of
# QUADPACK's qk15); the 7-point Gauss rule uses every other node.
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG7 = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
])
_GK_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_GK_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
_G7_WEIGHTS = np.zeros(15)
_G7_WEIGHTS[1::2] = np.concatenate([_WG7[:-1], _WG7[::-1]])

# Panel cuts.  g*e^-g peaks at log g = 0 and is below 1e-17 of its peak
# past the top level, so the integrals stop there.  Below the lowest level
# the cuts step on at multiples of 1/slope (slope: that of log g between
# the two lowest crossings), and a semi-infinite panel takes the rest.
# Fixed cuts split the bulk of the interval and grade towards every factor
# of V that nearly vanishes at an end.
_LOG_G_LEVELS = np.array([-3.0, -1.5, 0.0, 1.2, 2.4, 3.0, 3.8])
_LOW_SIDE_STEPS = np.array([1.5, 4.0, 8.0, 14.0, 24.0, 36.0])
_BULK_FRACTIONS = (1.0 / 16.0, 0.25, 0.5, 0.75, 15.0 / 16.0)
# crossings: bracketed on a coarse grid, then bisected and finished by
# false position
_CROSSING_GRID = 33
_BISECTIONS = 6
_FALSE_POSITIONS = 2
# points that miss the tolerance are integrated again with every panel
# split this many ways before a failure is raised
_REFINE = 4
# points per vectorised pass, which bounds the working memory (a panel peaks
# at about eight _CHUNK x 15 arrays for alpha != 1 and twelve for alpha = 1,
# 1.0 and 1.5 MB at 1024).  Larger passes pay numpy's call cost less often:
# an alpha = 1.5 three-series table took 67 ms against 75 ms at 512 points
# (medians, 12 fresh processes, one vCPU of a Xeon VM); 2048 ran 7% faster
# but 4% slower where glibc maps each array afresh (below).
_CHUNK = 1024

# glibc's malloc returns the top of its heap to the system whenever more
# than its trim threshold lies free there, and maps afresh each block past
# its mmap threshold: 128 KB each at start, then raised by the largest block
# yet freed from an mmap (mallopt(3), M_MMAP_THRESHOLD).  Freeing one 4 MB
# block raises them to 8 and 4 MB.  The density passes run as fast without
# it; the CSV writer does not: a 13-level figure2 gallery took about 60,000
# minor faults instead of 1,000, and a third longer.  Under another
# allocator this line only allocates and frees.
np.empty(1 << 19)


class _Zolotarev:
    """Nolan's (1997, Theorem 1) integrands for S(alpha, beta, 1, 0; 0)
    at points x > zeta (the other side follows by reflection).

    For alpha != 1, with zeta = -beta tan(pi alpha/2) and
    theta0 = arctan(beta tan(pi alpha/2))/alpha,

        f(x) = alpha / (pi |alpha - 1| (x - zeta)) Int g e^-g dtheta,
        g = (x - zeta)^(alpha/(alpha-1)) V(theta),  theta in (-theta0, pi/2);

    for alpha = 1 and beta > 0, f(x) = (1/(2 beta)) Int g e^-g dtheta with
    g = exp(-pi x/(2 beta)) V(theta) on (-pi/2, pi/2).  g is monotone in
    theta, so g e^-g has one peak, at g = 1.  The distribution function
    integrates e^-g or 1 - e^-g over the same interval.

    A point theta is held as its distances t from the left end and s from
    the right end, so both ends keep full relative precision, and
    integrals run over a coordinate v on the whole line: v = log(t/s)
    for alpha != 1, where V behaves like a power of t or s at the ends,
    and v = 1/s - 1/t for alpha = 1, where it behaves like exp(-c/t).
    """

    def __init__(self, alpha: float, beta: float):
        self.alpha = alpha
        self.beta = beta
        if alpha == 1.0:
            if beta >= 1.0:  # the left end's exp(-c|v|) has c = 0: no tail panel fits
                raise OutOfRangeError("beta", f"alpha = 1 needs |beta| < 1, got |beta| = {beta!r}")
            self.zeta = 0.0
            self.width = math.pi
            self.v_max = 1e150
            self.increasing = True
            # exp(-c|v|) at the left end; half of it keeps the tail panel smooth
            self.tail_rate = 0.25 * math.pi * (1.0 - beta) / beta
            # pi/2 + beta theta nearly vanishes at the left end as beta -> 1
            layers = [("t", 0.5 * math.pi * (1.0 - beta) / beta)]
        else:
            tpa = math.tan(math.pi * alpha / 2.0)
            self.zeta = -beta * tpa
            self.theta0 = math.atan(beta * tpa) / alpha
            self.width = math.pi / 2.0 + self.theta0
            self.v_max = 700.0
            self.increasing = alpha < 1.0
            self.tail_rate = 0.5
            self.exponent = alpha / (alpha - 1.0)
            self.log_c = math.log(math.cos(alpha * self.theta0)) / (alpha - 1.0)
            w = self.width
            cot0 = 1.0 / math.tan(self.theta0) if self.theta0 != 0.0 else math.inf
            # distance from an end at which sin(s), sin(alpha t) or
            # cos(theta0 + (alpha - 1) t) stops being near its end value
            layers = [
                ("t", abs(math.tan(w))),
                ("s", abs(math.tan(alpha * w)) / alpha),
                ("t", abs(cot0) / abs(alpha - 1.0)),
                ("s", abs(1.0 / math.tan(self.theta0 + (alpha - 1.0) * w)) / abs(alpha - 1.0)),
            ]
        edge = _BULK_FRACTIONS[0] * self.width
        cuts = [self.v_at("t", f * self.width) for f in _BULK_FRACTIONS]
        for side, d in layers:
            d *= math.exp(-2.0)
            while 0.0 < d < edge:
                cuts.append(self.v_at(side, d))
                d *= math.exp(2.0)
        self.fixed_cuts = np.array(sorted(cuts))
        self.grid = np.sinh(np.linspace(-1.0, 1.0, _CROSSING_GRID) * math.asinh(self.v_max))
        self.grid_log_v = self.log_v(*self.ts(self.grid))

    def ts(self, v):
        """Distances (t, s) of the point at coordinate v from the two ends."""
        w = self.width
        if self.alpha == 1.0:
            # the distance from the nearer end, free of cancellation
            y = np.abs(v) * w
            small = 2.0 * w / (2.0 + y + np.hypot(y, 2.0))
            big = w - small
        else:
            e = np.exp(-np.abs(v))
            small = w * e / (1.0 + e)
            big = w / (1.0 + e)
        return np.where(v < 0, small, big), np.where(v < 0, big, small)

    def jacobian(self, t, s):
        """dtheta/dv."""
        if self.alpha == 1.0:
            t2, s2 = t * t, s * s
            return t2 * s2 / (t2 + s2)
        return t * s / self.width

    def v_at(self, side: str, d: float) -> float:
        t, s = (d, self.width - d) if side == "t" else (self.width - d, d)
        if self.alpha == 1.0:
            return 1.0 / s - 1.0 / t
        return math.log(t / s)

    def log_v(self, t, s):
        """log V at the points (t, s)."""
        a = self.alpha
        if a == 1.0:
            b = self.beta
            right = s < t
            near = np.where(right, s, t)  # the distance from the nearer end
            cos_theta = np.sin(near)
            c = np.cos(near)
            sin_theta = np.where(right, c, -c)
            lin = np.where(right, 0.5 * math.pi * (1.0 + b) - b * s,
                           0.5 * math.pi * (1.0 - b) + b * t)
            return (math.log(2.0 / math.pi) + np.log(lin / cos_theta)
                    + lin * sin_theta / (cos_theta * b))
        return (self.log_c + np.log(np.sin(s)) / (a - 1.0)
                - self.exponent * np.log(np.sin(a * t))
                + np.log(np.cos(self.theta0 + (a - 1.0) * t)))

    def log_scale(self, x):
        """log g - log V at the points x."""
        if self.alpha == 1.0:
            return -math.pi * x / (2.0 * self.beta)
        return self.exponent * np.log(x - self.zeta)


def _crossings(law: _Zolotarev, log_scale: np.ndarray) -> np.ndarray:
    """Coordinates v where log g crosses each of `_LOG_G_LEVELS`, per point."""
    sign = 1.0 if law.increasing else -1.0
    target = sign * (_LOG_G_LEVELS[None, :] - log_scale[:, None])
    above = sign * law.grid_log_v
    idx = (above[None, None, :] < target[:, :, None]).sum(axis=2)
    lo_i = np.clip(idx - 1, 0, _CROSSING_GRID - 1)
    hi_i = np.clip(idx, 0, _CROSSING_GRID - 1)
    lo, hi = law.grid[lo_i], law.grid[hi_i]
    f_lo, f_hi = above[lo_i], above[hi_i]

    def false_position():
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = (target - f_lo) / (f_hi - f_lo)
        return lo + np.where(np.isfinite(frac), np.clip(frac, 0.0, 1.0), 0.5) * (hi - lo)

    for step in range(_BISECTIONS + _FALSE_POSITIONS):
        mid = 0.5 * (lo + hi) if step < _BISECTIONS else false_position()
        val = sign * law.log_v(*law.ts(mid))
        up = val > target
        hi, f_hi = np.where(up, mid, hi), np.where(up, val, f_hi)
        lo, f_lo = np.where(up, lo, mid), np.where(up, f_lo, val)
    return false_position()


def _gk_nodes(a: np.ndarray, b: np.ndarray):
    """`_GK_NODES` on each panel [a, b], one row per panel, and half-widths."""
    half = 0.5 * (b - a)
    return (a + half)[:, None] + half[:, None] * _GK_NODES, half


def _gk_sum(f: np.ndarray, half: np.ndarray):
    """Gauss-Kronrod value and QUADPACK's error estimate for the integrand
    values f at `_GK_NODES` (last axis) on panels of half-width `half`."""
    kronrod = np.einsum("...i,i", f, _GK_WEIGHTS)  # row by row, unlike BLAS, whatever the batch
    err = np.abs(kronrod - np.einsum("...i,i", f, _G7_WEIGHTS))
    resasc = np.einsum("...i,i", np.abs(f - 0.5 * kronrod[..., None]), _GK_WEIGHTS)
    with np.errstate(invalid="ignore", divide="ignore"):
        err = np.where(resasc > 0.0, resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5), err)
    err = np.maximum(err, 50.0 * np.finfo(float).eps * np.abs(kronrod))
    return half * kronrod, half * err


def _gk_panel(law: _Zolotarev, log_scale, va, vb, integrand: str, tail: float = 0.0):
    """Gauss-Kronrod integral over dv on [va, vb] per point, with QUADPACK's
    error estimate.  With `tail` = +-1 the panel runs from va to +-infinity
    through v = va - tail*log(w)/tail_rate, w in (0, 1)."""
    if tail:
        w = 0.5 * (1.0 + _GK_NODES)
        v = va[:, None] - (tail / law.tail_rate) * np.log(w)
        half = np.full(va.shape, 0.5 / law.tail_rate)
        dv = 1.0 / w
    else:
        v, half = _gk_nodes(va, vb)
        dv = 1.0
    t, s = law.ts(v)
    log_g = log_scale[:, None] + law.log_v(t, s)
    g = np.exp(log_g)
    if integrand == "g*exp(-g)":
        f = np.exp(log_g - g)
    elif integrand == "exp(-g)":
        f = np.exp(-g)
    else:
        f = -np.expm1(-g)
    f *= law.jacobian(t, s) * dv
    return _gk_sum(f, half)


def _zolotarev_panels(law: _Zolotarev, x: np.ndarray, integrand: str, split: int = 1):
    """Integral of `integrand` over theta, and its error estimate, per point."""
    log_scale = law.log_scale(x)
    crossing = _crossings(law, log_scale)
    down = -1.0 if law.increasing else 1.0  # towards the end where g -> 0
    gap = np.abs(crossing[:, 1] - crossing[:, 0])
    slope = (_LOG_G_LEVELS[1] - _LOG_G_LEVELS[0]) / np.maximum(gap, 1e-300)
    low = np.clip(crossing[:, :1] + down * _LOW_SIDE_STEPS / slope[:, None], -law.v_max, law.v_max)
    top = crossing[:, -1]
    end = down * law.v_max
    fixed = np.clip(law.fixed_cuts, np.minimum(top, end)[:, None], np.maximum(top, end)[:, None])
    cuts = np.sort(np.hstack([crossing, low, fixed]), axis=1)
    last = cuts[:, 0] if law.increasing else cuts[:, -1]
    if split > 1:
        parts = np.arange(split) / split
        inner = cuts[:, :-1, None] + np.diff(cuts, axis=1)[:, :, None] * parts
        cuts = np.hstack([inner.reshape(x.size, -1), cuts[:, -1:]])
    # one panel at a time keeps the working arrays small enough for the cache
    total = np.zeros(x.size)
    err = np.zeros(x.size)
    for i in range(cuts.shape[1] - 1):
        if np.array_equal(cuts[:, i], cuts[:, i + 1]):
            continue  # clipped cuts repeat; a panel of zero width adds +0 to both sums
        val, e = _gk_panel(law, log_scale, cuts[:, i], cuts[:, i + 1], integrand)
        total += val
        err += e
    t, s = law.ts(last)
    if integrand == "exp(-g)":
        # e^-g -> 1 past the last cut: integrate 1 exactly and the decaying rest
        val, e = _gk_panel(law, log_scale, last, None, "1-exp(-g)", tail=down)
        total += (t if law.increasing else s) - val
    else:
        val, e = _gk_panel(law, log_scale, last, None, integrand, tail=down)
        total += val
    err += e
    if integrand == "1-exp(-g)":
        # 1 - e^-g = 1 to double precision beyond the top crossing
        t, s = law.ts(top)
        total += s if law.increasing else t
    return total, err


def _zolotarev_integral(law: _Zolotarev, x: np.ndarray, integrand: str, scale, whole=None):
    """scale * Integral for each point in chunks, or whole - scale * Integral
    where whole is given, with a refined second pass for the points whose
    error estimate misses the tolerance of that value."""
    scale = np.broadcast_to(scale, x.shape)
    val = np.empty_like(x)
    err = np.empty_like(x)
    for start in range(0, x.size, _CHUNK):
        part = slice(start, start + _CHUNK)
        xs, sc = x[part], scale[part]
        with np.errstate(all="ignore"):
            total, e = _zolotarev_panels(law, xs, integrand)
            v, e = sc * total, sc * e
            redo = ~_good_enough(v if whole is None else whole - v, e)
            if redo.any():
                total, e2 = _zolotarev_panels(law, xs[redo], integrand, split=_REFINE)
                v[redo], e[redo] = sc[redo] * total, sc[redo] * e2
        val[part], err[part] = v, e
    return (val if whole is None else whole - val), err


def _upper_lower(law: _Zolotarev, x: np.ndarray, upper: bool):
    """(1/pi) Int (1 - e^-g) if upper, else (1/pi) Int e^-g, with the error
    estimate, per point; the two add up to width/pi.  Of the two integrands
    the one that is small over the bulk of the interval (around t = s) is
    integrated and the other follows, so that the smaller value keeps its
    precision; the refined pass judges the value returned."""
    total = law.width / math.pi
    bulk_low = law.log_scale(x) + law.log_v(*law.ts(np.zeros(1))) < 0.0  # at t = s
    val = np.empty_like(x)
    err = np.empty_like(x)
    for low in (True, False):
        pick = bulk_low == low
        if pick.any():
            val[pick], err[pick] = _zolotarev_integral(
                law, x[pick], "1-exp(-g)" if low else "exp(-g)", 1.0 / math.pi,
                None if low == upper else total)
    return val, err


# the terms of Bergström's series, and the largest sum_k |t_k| / |sum_k t_k|,
# about the ulps its float sum loses, where it is taken
_TAIL_TERMS = 32
_TAIL_CONDITION = 100.0


class _FarTail(NamedTuple):
    """Bergström's (1952) series for the upper tail of S(alpha, beta, 1, 0; 0),
    alpha != 1 or beta = 0 (Zolotarev 1986, section 2.5): at y = x - zeta
    past the crossover x*,

        rho(x) = sum_k a_k y^(-k alpha - 1),  P[X > x] = sum_k a_k y^(-k alpha)/(k alpha),
        a_k = (-1)^(k+1) Gamma(k alpha + 1) (1 + zeta^2)^(k/2) sin(k alpha (pi/2 + theta0)) / (pi k!),

    k <= _TAIL_TERMS, zeta and theta0 as in `_Zolotarev`; it converges for
    alpha < 1 and is asymptotic for alpha > 1, where its terms still shrink
    at x* (by at least 0.69 a step).  x* is where the first omitted term,
    its sine taken as 1, falls to 2^-53 of the leading term, or further out
    where the float sum would cancel (alpha <= 0.3 only; Nolan's integrals
    are within 4e-14 of mpmath on the way): at beta = 0 it is 4.9e-8,
    1.8e-4, 0.37, 2.41, 7.75 and 12.3 for alpha = 0.05, 0.1, 0.5, 0.9, 1.5
    and 1.9 (8 terms gave 4e28, 1e14, 1.2e3, 126, 54 and 48.4).  The lower
    tail is the upper tail of S(alpha, -beta) at -x.  alpha = 2 has no power
    tail (every a_k is 0), and its x* = 2 sqrt(1022 log 2) is where the
    normal density and tail fall below 2^-1022."""

    alpha: float
    coefficients: np.ndarray  # a_1 ... a_K
    log_crossover: float  # log x*

    def __call__(self, log_y, want: str, y=None):
        """The density ("pdf") or survival function ("sf") at y = e^log_y,
        which may pass the float range; given y, the leading power is taken
        of y itself, to the last bit."""
        sf = want == "sf"
        terms = self.coefficients / (np.arange(1, self.coefficients.size + 1) * self.alpha if sf else 1.0)
        power = np.exp(-self.alpha * np.asarray(log_y))
        total = terms[-1]
        for term in terms[-2::-1]:
            total = total * power + term
        lead = self.alpha + (0.0 if sf else 1.0)
        return (np.exp(-lead * log_y) if y is None else y ** -lead) * total


def _bergstrom(alpha: float, beta: float) -> _FarTail:
    """The far-tail series (`_FarTail`) of S(alpha, beta, 1, 0; 0), _TAIL_TERMS
    terms, with x* from the first omitted term and the sum's cancellation."""
    if alpha == 2.0:
        return _FarTail(alpha, np.zeros(1), math.log(2.0 * math.sqrt(1022.0 * math.log(2.0))))
    tpa = math.tan(math.pi * alpha / 2.0)  # at alpha = 1 beta is 0, and so is zeta
    zeta = -beta * tpa
    # alpha (pi/2 + theta0) is psi, or psi + pi for alpha > 1, with psi from
    # factors that keep their precision as 1 + beta -> 0, and so does a_1
    psi = math.atan2((1.0 + beta) * tpa, 1.0 - beta * tpa * tpa)
    k = np.arange(1.0, _TAIL_TERMS + 2.0)
    log_size = (np.array([math.lgamma(j * alpha + 1.0) - math.lgamma(j + 1.0) for j in k])
                + 0.5 * k * math.log1p(zeta * zeta) - math.log(math.pi))
    a = (-1.0 if alpha > 1.0 else (-1.0) ** (k + 1.0)) * np.exp(log_size) * np.sin(k * psi)
    log_crossover = (53.0 * math.log(2.0) + log_size[-1] - math.log(a[0])) / (_TAIL_TERMS * alpha)
    # further out where the float sum would lose more than _TAIL_CONDITION ulps:
    # at the first u = y^-alpha from x* on where sum |a_k| u^k <= that |sum a_k u^k|
    shrink = np.linspace(1.0, 0.0, 64, endpoint=False)  # u/x*^-alpha
    terms = a[:-1] * (math.exp(-alpha * log_crossover) * shrink[:, None]) ** k[:-1]
    sound = np.abs(terms).sum(axis=1) <= _TAIL_CONDITION * np.abs(terms.sum(axis=1))
    j = int(np.argmax(sound)) if sound.any() else shrink.size - 1
    return _FarTail(alpha, a[:-1], log_crossover - math.log(shrink[j]) / alpha)


def _gamma(x: float) -> float:
    """Gamma(x), or inf where it passes the float range (x past 171.62)."""
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


# the terms of the near-end power series, and the bound on |x| below which
# it is formed: every power up to x^(2 _NEAR_TERMS + 1) stays in the float range
_NEAR_TERMS = 32
_NEAR_BOUND = 4.0


def _power_series(alpha: float, x: np.ndarray, want: str):
    """The convergent power series of the symmetric law S(alpha, 0, 1, 0; 0),
    1 < alpha < 2 (Zolotarev 1986, section 2.4), at the points x, |x| < _NEAR_BOUND:

        rho(x) = sum_k c_k x^(2k),  P[X > x] = 1/2 - sum_k c_k x^(2k+1)/(2k+1),
        c_k = (-1)^k Gamma((2k+1)/alpha) / (pi alpha (2k)!),

    k < _NEAR_TERMS, with c_0 = Gamma(1 + 1/alpha)/pi, rho(0) to the bit.
    Returns the values and where they are exact: where the first omitted
    term is at most 2^-53 of the value, and the terms' absolute values (the
    1/2 of the survival function among them) add up to at most twice it."""
    sf = want == "sf"
    c = [_gamma(1.0 + 1.0 / alpha) / math.pi] + [
        (-1.0) ** k * _gamma((2 * k + 1) / alpha) / (math.pi * alpha * math.factorial(2 * k))
        / (2 * k + 1 if sf else 1) for k in range(1, _NEAR_TERMS + 1)]
    x2 = x * x
    total = np.full(x.shape, c[-2])
    size = np.full(x.shape, abs(c[-2]))
    for c_k in c[-3::-1]:  # Horner's rule in x^2, for the sum and its absolute terms
        total *= x2
        total += c_k
        size *= x2
        size += abs(c_k)
    omitted = abs(c[-1]) * x2 ** _NEAR_TERMS
    if sf:
        total = 0.5 - x * total
        size = 0.5 + np.abs(x) * size
        omitted *= np.abs(x)
    magnitude = np.abs(total)
    return total, (omitted <= 2.0 ** -53 * magnitude) & (size <= 2.0 * magnitude)


# Gauss-Legendre 16-point rule on [-1, 1]: the positive nodes, and their weights
_XGL = np.array([0.9894009349916499, 0.9445750230732326, 0.8656312023878318, 0.755404408355003,
                 0.6178762444026438, 0.45801677765722737, 0.2816035507792589, 0.09501250983763744])
_WGL = np.array([0.027152459411754096, 0.062253523938647894, 0.09515851168249279, 0.12462897125553388,
                 0.14959598881657674, 0.16915651939500254, 0.18260341504492358, 0.1894506104550685])
_GL_NODES = np.concatenate([-_XGL, _XGL[::-1]])


def _legendre(x, n: int) -> np.ndarray:
    """P_0(x) ... P_n(x) by Bonnet's recursion, stacked on a new first axis."""
    p = [np.ones_like(x), x]
    for k in range(1, n):
        p.append(((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1))
    return np.array(p)


# a_k = (k + 1/2) sum_i w_i P_k(x_i) f_i: the Legendre coefficients of the
# polynomial through the values f_i at the nodes x_i
_GL_TO_LEGENDRE = (np.arange(16) + 0.5)[:, None] * _legendre(_GL_NODES, 15) * np.append(_WGL, _WGL[::-1])

# the three-series tables' panels in t = log s, from where rho is flat to
# _START_ERROR: at most _PANEL long, and halved, at most _PANEL_HALVINGS
# times, while their last two Legendre coefficients pass _PANEL_TOL of the first
_START_ERROR = 1e-10
_PANEL = 0.45
_PANEL_TOL = 1e-12
_PANEL_HALVINGS = 10
# below this alpha the density misses its tolerance near 0 (at 0.045, at 145
# of the table's 2,688 points), so the tables refuse it
_TABLE_ALPHA_FLOOR = 0.05


def _halving(a, b, evaluate, accept, halvings: int, what: str):
    """Panels [a, b], halved until they pass: `evaluate`(a, b) gives arrays with a row
    per panel, `accept`(*rows) the mask of the panels to keep, and the others are halved
    and evaluated again, at most `halvings` times.  Returns a, b and the rows of the
    kept panels, in order of a.  Raises QuadratureFailureError at once where a row is
    not finite, and where panels are left after the last halving (`what` names the
    integral)."""
    done = []
    for _ in range(halvings + 1):
        rows = evaluate(a, b)
        if not all(np.isfinite(row).all() for row in rows):
            raise QuadratureFailureError(f"{what}: not finite on a panel in [{a.min()!r}, {b.max()!r}]")
        fine = accept(*rows)
        done.append((a[fine], b[fine], *(row[fine] for row in rows)))
        if fine.all():
            parts = [np.concatenate(part) for part in zip(*done)]
            return [part[np.argsort(parts[0])] for part in parts]
        mid = 0.5 * (a + b)[~fine]
        a, b = np.append(a[~fine], mid), np.append(mid, b[~fine])
    raise QuadratureFailureError(f"{what}: {a.size} panels miss after {halvings} halvings, "
                                 f"the first [{float(a[0])!r}, {float(b[0])!r}]")


def _table_panels(alpha: float, orders, t0: float, top: float):
    """Panels [a, b] in t = log s that cover [t0, top], in order, and the
    log peak of s^(m+1) rho(s) on each, m in `orders`, and the Legendre
    coefficients of s^(m+1) rho(s) / peak: arrays (panel, m[, k])."""
    n = max(1, math.ceil((top - t0) / _PANEL))
    edges = t0 + (top - t0) * np.arange(n + 1) / n

    def panels(a, b):
        t = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * _GL_NODES
        log_rho = np.log(_standard_pdf(alpha, 0.0, np.exp(t)))
        log_f = log_rho[:, None] + np.add(orders, 1.0)[:, None] * t[:, None]
        peak = log_f.max(axis=2)
        return peak, np.einsum("pmi,ki->pmk", np.exp(log_f - peak[..., None]), _GL_TO_LEGENDRE)

    def accept(peak, coef):
        return (np.abs(coef[..., -2:]).max(axis=2) <= _PANEL_TOL * coef[..., 0]).all(axis=1)

    return _halving(edges[:-1], edges[1:], panels, accept, _PANEL_HALVINGS,
                    f"three-series table at alpha={alpha}: the density's Legendre series in log s")


def _symmetric_truncated_term_tables(alpha: float, q: float, log_cuts: np.ndarray):
    """P[|u| > c] and the bounded ratios G_m(c) = E[|u|^m; |u| <= c] / c^m in
    [0, 1], m = q and 2q, for the standardised symmetric stable law at the
    cuts c = e^log_cut, taken as logs so that cuts past 1e308 keep their value.

    With F_m(t) = Int_0^(e^t) s^m rho(s) ds, G_m(e^t) = 2 F_m(t) e^(-mt).  As
    0 <= 1 - rho(s)/rho(0) <= c2 s^2, F_m starts at e^t0, where c2 s^2 =
    _START_ERROR, from rho(0) s^(m+1)/(m+1), and G = 2 rho(0) c/(m+1) at
    cuts below it: e^t0 is 1.6e-5 at alpha = 1.5 and 4.2e-37 at 0.05.  From
    there to the crossover x* of Bergström's series (`_bergstrom`) the
    integrand s^(m+1) rho(s) dt lies on the 16-point Gauss-Legendre panels
    in t of `_table_panels`, whatever the cuts, and a cut inside a panel
    integrates the Legendre series through the panel's 16 values, with
    Int P_k = (P_(k+1) - P_(k-1))/(2k+1).  log F_m adds the panels by
    `np.logaddexp.accumulate`, so that neither F nor a panel of it leaves
    the float range, and P[|u| > c] = 2 (P[u > x*] + Int_c^x* rho) sums them
    from x* down.  rho is `_standard_pdf`: 480 points at alpha = 1.5, of
    which 75 take Nolan's integrals and the rest the power series.  Past
    x* rho is Bergström's series, so F goes on termwise in closed form:
    sum_k a_k (c^d - x*^d)/d, d = m - k alpha, through expm1 for the few
    d > -alpha/2 (d = 0 gives its limit a_k log(c/x*)), and for the rest by
    Horner's rule in z = (x*/c)^alpha, with their common power of x* and c
    one exponent, so that nothing overflows at cuts near 1e300; P is the
    series' survival function there.  Against mpmath the relative error is
    at most 2e-15 for alpha in {0.7, 1.2, 1.5, 1.9}, q in {0.5, 1} and cuts
    1 to 0.99 x*, and 7e-14 for alpha in {0.05, 0.1, 0.2, 0.3}, q = 0.33 and
    cuts 1e-3 to 1e300.  An infinite cut (a zero scale) gives G = 0.  Below
    alpha = _TABLE_ALPHA_FLOOR the tables raise OutOfRangeError.
    """
    if alpha < _TABLE_ALPHA_FLOOR:
        raise OutOfRangeError("alpha", f"the tables need alpha >= {_TABLE_ALPHA_FLOOR}, got {alpha!r}")
    tail = _bergstrom(alpha, 0.0)
    top = tail.log_crossover
    # 0 <= rho(0) - rho(s) <= rho(0) c2 s^2 (1 - cos u <= u^2/2 under the
    # Fourier integral), c2 = Gamma(3/alpha)/(2 Gamma(1/alpha))
    t0 = 0.5 * (math.log(_START_ERROR) - math.lgamma(3.0 / alpha) + math.lgamma(1.0 / alpha)
                + math.log(2.0))
    rho0 = math.gamma(1.0 + 1.0 / alpha) / math.pi  # rho(0)
    a, b, peak, coef = _table_panels(alpha, (0.0, q, 2.0 * q), t0, top)
    half = 0.5 * (b - a)
    below, within = log_cuts < t0, (log_cuts >= t0) & (log_cuts <= top)
    past = (log_cuts > top) & (log_cuts < np.inf)
    # each cut's panel i, its place x in [-1, 1] there, and Int_-1^x P_k, k >= 1
    log_w = log_cuts[within]
    i = np.clip(np.searchsorted(a, log_w, side="right") - 1, 0, a.size - 1)
    x = np.clip((log_w - a[i]) / half[i] - 1.0, -1.0, 1.0)
    p = _legendre(x, 16)
    span = (p[2:] - p[:-2]) / (2.0 * np.arange(1, 16) + 1.0)[:, None]

    def inside(c_i, side):  # Int dt from a to the cut (side = 1) or from the cut to b (-1)
        return half[i] * (c_i[:, 0] * (1.0 + side * x) + side * np.einsum("ck,kc->c", c_i[:, 1:], span))

    log_c = log_cuts[past]
    delta = log_c - top
    z = np.exp(-alpha * delta)
    k = np.arange(1, tail.coefficients.size + 1)
    ratios = []
    for j, m in ((1, q), (2, 2.0 * q)):
        value = np.zeros(log_cuts.shape)  # an infinite cut gives 0
        log_start = math.log(rho0 / (m + 1.0)) + (m + 1.0) * t0
        log_big_f = np.logaddexp.accumulate(
            np.concatenate([[log_start], peak[:, j] + np.log(2.0 * half * coef[:, j, 0])]))
        # log F_m(c) = log F_m(a) + log1p(Int_a^c / F_m(a))
        growth = inside(coef[i, j], 1.0) * np.exp(peak[i, j] - log_big_f[i])
        value[within] = 2.0 * np.exp(log_big_f[i] + np.log1p(growth) - m * log_w)
        value[below] = 2.0 * rho0 * np.exp(log_cuts[below]) / (m + 1.0)
        # 2 (F(x*) + sum_k a_k Int_x*^c s^(d-1) ds) / c^m, d = m - k alpha
        past_value = 2.0 * np.exp(log_big_f[-1] - m * log_c)
        d = m - k * alpha
        near = d > -0.5 * alpha  # termwise: a 1/d near 1/0 would cancel in the sum below
        for a_k, d_k in zip(tail.coefficients[near], d[near]):
            span_k = delta if d_k == 0.0 else -np.expm1(-abs(d_k) * delta) / abs(d_k)
            power = np.exp(d_k * (log_c if d_k > 0.0 else top) - m * log_c)
            past_value += 2.0 * a_k * power * span_k
        if not near.all():
            # sum_k b_k (1 - e^(d_k delta)) e^(d_k1 top - m log c), from the first
            # d_k1 <= -alpha/2 on, with e^(d_k delta) = e^(d_k1 delta) z^(k - k1)
            d1 = d[~near][0]
            b_k = 2.0 * tail.coefficients[~near] * np.exp((d[~near] - d1) * top) / -d[~near]
            horner = np.polyval(b_k[::-1], z)
            past_value += np.exp(d1 * top - m * log_c) * (b_k.sum() - np.exp(d1 * delta) * horner)
        value[past] = past_value
        ratios.append(value)
    # P[u > c] = P[u > x*] + Int_c^x* rho: the panels above c's, and Int_c^b
    coef_0 = coef[:, 0] * np.exp(peak[:, :1])
    upper = tail(top, "sf") + np.append(np.cumsum(2.0 * half[:0:-1] * coef_0[:0:-1, 0])[::-1], 0.0)
    survival = np.zeros(log_cuts.shape)
    survival[within] = 2.0 * (upper[i] + inside(coef_0[i], -1.0))
    mass_to = np.exp(math.log(rho0) + np.append(t0, log_cuts[below]))  # rho(0) c, c <= e^t0
    survival[below] = 2.0 * (upper[0] + 2.0 * half[0] * coef_0[0, 0] + mass_to[0] - mass_to[1:])
    survival[past] = 2.0 * tail(log_c, "sf")
    if alpha == 2.0:
        # the normal tail falls faster than the last panels resolve: erfc(c/2)
        low = log_cuts <= top
        survival[low] = 2.0 * _standard_sf(2.0, 0.0, np.exp(log_cuts[low]))
    # the panels' mass and rho(0) c add up to 1 to a few ulps, which may pass it
    return np.minimum(survival, 1.0), ratios[0], ratios[1]


# past these |x| the skewed alpha = 1 law is two terms of its tail expansion
# (Zolotarev 1986, section 2.5), y = |x|, b = beta sgn x: the density
# (1 + b)/(pi y^2) (1 + 4b (log y - psi(3))/(pi y)), the mass beyond x (1 + b)/(pi y)
# (1 + 2b (log y + 1/2 - psi(3))/(pi y)), within 2.2e-12 of the density at 1e7
# (Nolan's integral is off by 5e-10 or more there) and 2^-53 of the mass at 1e9
_ALPHA_ONE_FAR = {"pdf": 1e7, "sf": 1e9}


def _zolotarev(alpha: float, beta: float, x: np.ndarray, want: str):
    """Density (`want` = "pdf") or survival function P[X > x] ("sf") of
    S(alpha, beta, 1, 0; 0) at every point of the flat array x, by Nolan's
    integrals; alpha = 1 needs beta != 0 (the form divides by beta).

    The survival function is (1/pi) Int (1 - e^-g) for alpha < 1 and for
    alpha = 1 with beta > 0, and (1/pi) Int e^-g for alpha > 1; alpha = 1
    with beta < 0 gives the distribution function at -x of the mirrored
    law, (1/pi) Int e^-g again.  For alpha != 1, points beyond the
    crossover of Bergström's series (`_bergstrom`) take the series
    instead, for alpha = 1 those past |x| = _ALPHA_ONE_FAR two terms of
    the tail expansion, and for beta = 0 and alpha > 1 so do the points
    with |x| < _NEAR_BOUND where the power series (`_power_series`) is
    exact: the integrals run only on the points between the two.  Raises
    QuadratureFailureError where an error estimate misses the tolerance
    (`_good_enough`).
    """
    val = np.empty_like(x)
    err = np.zeros_like(x)
    if alpha == 1.0:
        far = np.abs(x) > _ALPHA_ONE_FAR[want]
        y = np.abs(x[far])
        b = beta * np.sign(x[far])
        log_y = np.log(y) - 1.5 + np.euler_gamma  # log|x| - psi(3)
        mass = (1.0 + b) / math.pi / y * (1.0 + 2.0 * b * (log_y + 0.5) / math.pi / y)
        pdf = (1.0 + b) / math.pi / y / y * (1.0 + 4.0 * b * log_y / math.pi / y)
        val[far] = pdf if want == "pdf" else np.where(x[far] > 0.0, mass, 1.0 - mass)
        near = ~far
        law = _Zolotarev(1.0, abs(beta))
        xs = x[near] if beta > 0.0 else -x[near]
        if want == "pdf":
            val[near], err[near] = _zolotarev_integral(law, xs, "g*exp(-g)", 0.5 / abs(beta))
        else:
            val[near], err[near] = _upper_lower(law, xs, upper=beta > 0.0)
    else:
        law = _Zolotarev(alpha, beta)
        # closer than this to zeta the density is its value at zeta to
        # double precision, and log(x - zeta) would leave the coordinate grid
        at = np.abs(x - law.zeta) <= 1e-150 * (1.0 + abs(law.zeta))
        done = at.copy()
        if beta == 0.0 and alpha > 1.0:
            near = np.flatnonzero(~at & (np.abs(x) < _NEAR_BOUND))
            v, exact = _power_series(alpha, x[near], want)
            val[near[exact]] = v[exact]
            done[near[exact]] = True
        for mirror in (False, True):
            side = _Zolotarev(alpha, -beta) if mirror else law
            pick = ~done & ((x < law.zeta) if mirror else (x > law.zeta))
            if not pick.any():
                continue
            xs = -x[pick] if mirror else x[pick]
            y = xs - side.zeta
            log_y = np.log(y)
            tail = _bergstrom(alpha, -beta if mirror else beta)
            far = log_y > tail.log_crossover
            v, e = np.empty(y.shape), np.zeros(y.shape)
            v[far] = tail(log_y[far], want, y[far])
            near = ~far
            if want == "pdf":
                v[near], e[near] = _zolotarev_integral(
                    side, xs[near], "g*exp(-g)", alpha / (math.pi * abs(alpha - 1.0) * y[near]))
            else:
                v[near], e[near] = _upper_lower(side, xs[near], upper=alpha < 1.0)
                if mirror:
                    v = 1.0 - v  # P[X > x] = 1 - P[X' > -x] for the mirrored X'
            val[pick], err[pick] = v, e
        if want == "pdf":
            val[at] = (_gamma(1.0 + 1.0 / alpha) * math.cos(law.theta0)
                       / (math.pi * (1.0 + law.zeta ** 2) ** (0.5 / alpha)))
        else:
            val[at] = law.width / math.pi
    bad = ~_good_enough(val, err)
    if bad.any():
        worst = int(np.argmax(np.where(bad, err / np.maximum(np.abs(val), 1e-300), 0.0)))
        raise QuadratureFailureError(
            f"stable {want} at alpha={alpha}, beta={beta}: {int(bad.sum())} of {x.size} "
            f"points miss the tolerance; at z={x[worst]!r} the value is {val[worst]!r} "
            f"with error estimate {err[worst]!r}"
        )
    return val


# Nolan's alpha != 1 form loses precision as alpha -> 1 (the exponents
# scale with 1/(alpha - 1)) and the alpha = 1 form as beta -> 0 (its
# exponents scale with 1/beta), while the law itself is analytic in both.
# Within _NEAR_ONE of those points the value is interpolated through
# five nodes spaced _NEAR_ONE apart, with the closed-form Cauchy law at
# the centre when beta = 0; the interpolation error is O(_NEAR_ONE^5).
_NEAR_ONE = 4e-3
_NEAR_ONE_OFFSETS = (-2.0, -1.0, 0.0, 1.0, 2.0)


def _lagrange_weights(u: float) -> np.ndarray:
    """Weights of the interpolant through the nodes `_NEAR_ONE_OFFSETS` at u."""
    k = _NEAR_ONE_OFFSETS
    return np.array([math.prod((u - kj) / (ki - kj) for kj in k if kj != ki) for ki in k])


def _points(z) -> np.ndarray:
    """z as a float array; NaN points raise OutOfRangeError."""
    z = np.asarray(z, dtype=float)
    if np.isnan(z).any():
        raise OutOfRangeError("z", "points must not be NaN")
    return z


def _standard(alpha: float, beta: float, z, want: str):
    """Density ("pdf") or survival function ("sf") of S(alpha, beta, 1, 0; 0)
    at z: the limits 0 (and survival 1 at -inf) at infinite z, closed forms
    for the normal and the symmetric Cauchy law, the interpolation above
    near alpha = 1, and otherwise `_zolotarev`: Nolan's integrals, with
    Bergström's series far out and, for symmetric alpha > 1, the power
    series near zero.  The survival function is clipped to [0, 1], which
    rounding in the integrals can leave by a few ulps of 0 or 1.  NaN
    points raise OutOfRangeError."""
    z = _points(z)
    infinite = np.isinf(z)
    if infinite.any():
        out = np.where(z > 0.0, 0.0, 1.0) if want == "sf" else np.zeros(z.shape)
        out[~infinite] = _standard(alpha, beta, z[~infinite], want)
        return out
    if alpha == 2.0:
        if want == "pdf":
            return normal_pdf(0.0, math.sqrt(2.0), z)
        from scipy.special import erfc

        return 0.5 * erfc(z / 2.0)
    if alpha == 1.0 and beta == 0.0:
        if want == "pdf":
            return cauchy_pdf(0.0, 1.0, z)
        # arctan(1/z)/pi keeps its relative precision for large z
        with np.errstate(divide="ignore", over="ignore"):  # z = 0 or subnormal: 1/|z| = inf
            upper = np.arctan(1.0 / np.abs(z)) / math.pi
        return np.where(z > 0.0, upper, 1.0 - upper)
    h = _NEAR_ONE
    if 0.0 < abs(alpha - 1.0) < _NEAR_ONE:
        nodes = [_standard(1.0 + h * k, beta, z, want) for k in _NEAR_ONE_OFFSETS]
        val = np.tensordot(_lagrange_weights((alpha - 1.0) / h), nodes, axes=1)
    elif alpha == 1.0 and abs(beta) < _NEAR_ONE:
        nodes = [_standard(1.0, h * k, z, want) for k in _NEAR_ONE_OFFSETS]
        val = np.tensordot(_lagrange_weights(beta / h), nodes, axes=1)
    else:
        val = _zolotarev(alpha, beta, z.ravel(), want).reshape(z.shape)
    return np.clip(val, 0.0, 1.0) if want == "sf" else val


def _standard_pdf(alpha: float, beta: float, z):
    """Density of S(alpha, beta, 1, 0; 0) (`_standard`)."""
    return _standard(alpha, beta, z, "pdf")


def _standard_sf(alpha: float, beta: float, z):
    """P[X > z] for X ~ S(alpha, beta, 1, 0; 0), accurate far into the
    upper tail (`_standard`)."""
    return _standard(alpha, beta, z, "sf")


def stable_pdf(params: StableParams, u):
    """Density of S(alpha, beta, gamma, delta; 0) at u.

    Cauchy and Gaussian parameters use their closed forms.  Every other
    law goes through Nolan's (1997) finite-interval integral, evaluated
    for the whole array of points at once with a fixed Gauss-Kronrod
    rule on panels placed around the peak of the integrand; a point whose
    error estimate misses the fixed tolerance is integrated again on finer
    panels and raises QuadratureFailureError if it still misses; far in
    the tails the density is Bergström's series, and near the centre of a
    symmetric law with 1 < alpha < 2 its convergent power series, wherever
    that is exact to double precision.  Within 4e-3 of alpha = 1,
    and of beta = 0 at alpha = 1, where Nolan's forms lose precision, the value is
    interpolated from laws at and beyond that distance.  The density is 0
    at u = +-inf and wherever (u - delta)/gamma passes the float range; NaN
    points raise OutOfRangeError.  Requires gamma > 0.
    """
    z = _standardised(params.delta, params.gamma, u, "gamma",
                      "density requires a non-degenerate scale")
    out = _standard_pdf(params.alpha, params.beta, z) / params.gamma
    return float(out) if np.ndim(u) == 0 else out


# ---------------------------------------------------------------------------
# closure arithmetic
# ---------------------------------------------------------------------------

def affine_transform(params: StableParams, a: float, b: float) -> StableParams:
    """Law of a*u + b: S(alpha, sgn(a)*beta, |a|*gamma, a*delta + b; 0)."""
    if a == 0.0:
        raise ZeroScaleError("affine map with a = 0 collapses the law to a point mass")
    sgn = 1.0 if a > 0 else -1.0
    return validate_params(params.alpha, sgn * params.beta, abs(a) * params.gamma, a * params.delta + b)


def _xlogx(x: float) -> float:
    return x * math.log(x) if x > 0.0 else 0.0


def convolve(p1: StableParams, p2: StableParams) -> StableParams:
    """Law of the sum of independent draws from p1 and p2 (equal alpha).

    The scales combine through gamma^alpha = gamma1^alpha + gamma2^alpha,
    the skewness is the gamma^alpha-weighted average, and the location
    picks up a deterministic correction that differs between the alpha = 1
    and alpha != 1 branches of parametrisation 0.
    """
    if p1.alpha != p2.alpha:
        raise AlphaMismatchError(f"cannot convolve stability indices {p1.alpha} and {p2.alpha}")
    a = p1.alpha
    g1a = p1.gamma ** a
    g2a = p2.gamma ** a
    ga = g1a + g2a
    if ga == 0.0:
        return validate_params(a, 0.0, 0.0, p1.delta + p2.delta)
    # a weighted mean of the two skewnesses; with subnormal weights the
    # rounding of beta_i * g_i^alpha can carry it past both, even onto +-1
    beta = (p1.beta * g1a + p2.beta * g2a) / ga
    beta = min(max(beta, min(p1.beta, p2.beta)), max(p1.beta, p2.beta))
    gamma = ga ** (1.0 / a)
    if a == 1.0:
        corr = (2.0 / math.pi) * (
            beta * _xlogx(gamma) - p1.beta * _xlogx(p1.gamma) - p2.beta * _xlogx(p2.gamma)
        )
    else:
        corr = math.tan(math.pi * a / 2.0) * (
            beta * gamma - p1.beta * p1.gamma - p2.beta * p2.gamma
        )
    return validate_params(a, beta, gamma, p1.delta + p2.delta + corr)


# ---------------------------------------------------------------------------
# moments and tails
# ---------------------------------------------------------------------------

def _tail_constant(alpha: float) -> float:
    """c(alpha) = Gamma(alpha) sin(pi alpha/2) / pi, the constant in
    P[u > x] ~ c gamma^alpha (1 + beta) x^-alpha as x -> infinity, for
    0 < alpha < 2 (Samorodnitsky & Taqqu 1994, Property 1.2.15)."""
    return math.gamma(alpha) * math.sin(math.pi * alpha / 2.0) / math.pi


def tail_asymptote(params: StableParams, x: float) -> TailAsymptote:
    """Power-law approximations P[u > x] and rho(x) for large positive x.

    Returns (c*gamma^alpha*(1+beta)*x^-alpha,
             c*alpha*gamma^alpha*(1+beta)*x^-(alpha+1)) with the exact
    constant c(alpha) = Gamma(alpha) sin(pi alpha/2)/pi.  These are the
    leading terms of the tail expansion, so their relative error falls
    like x^-min(alpha, 1); valid for 0 < alpha < 2 and x large compared to
    gamma and delta (the caller picks the probe point).  The left tail is the
    same expression with (1 - beta).
    """
    if not (0.0 < params.alpha < 2.0):
        raise OutOfRangeError("alpha", "power-law tails require 0 < alpha < 2")
    if params.gamma == 0.0:
        return TailAsymptote(0.0, 0.0)
    c = _tail_constant(params.alpha)
    scale = c * params.gamma ** params.alpha * (1.0 + params.beta)
    return TailAsymptote(scale * x ** (-params.alpha),
                         scale * params.alpha * x ** (-(params.alpha + 1.0)))


def truncated_cauchy_moments(gamma, a_cut: float) -> TruncatedCauchyMoments:
    """Exceedance probability and truncated first/second absolute moments
    of a centred Cauchy draw with width gamma at cutoff a_cut; gamma may be
    an array of widths (arrays out), a scalar gives floats.

    For u ~ C(0, gamma):
        P[|u| >= A]          = 1 - (2/pi) arctan(A/gamma)
        E[|u|   ; |u| < A]   = (gamma/pi) log(1 + A^2/gamma^2)
        E[|u|^2 ; |u| < A]   = (2/pi) gamma (A - gamma arctan(A/gamma))
    (the log as 2 log(A/gamma) + log(1 + gamma^2/A^2) where A/gamma > 1e154).
    The second moment is bounded by A^2 P[|u| < A], which pins its sign
    pattern; all three are verified against quadrature in the tests.
    gamma = 0 (point mass at 0) gives (0, 0, 0).
    """
    if not a_cut > 0.0:
        raise OutOfRangeError("A", "truncation level must be > 0")
    widths = np.asarray(gamma, dtype=float)
    if np.any(widths < 0.0):
        raise OutOfRangeError("gamma", "width must be >= 0")
    pos = np.atleast_1d(widths) > 0.0
    g = np.atleast_1d(widths)[pos]
    ratio = a_cut / g
    at = np.arctan(ratio)
    with np.errstate(over="ignore"):  # ratio^2 = inf is not taken
        log_term = np.where(ratio > 1e154, 2.0 * (math.log(a_cut) - np.log(g))
                            + np.log1p((g / a_cut) ** 2), np.log1p(ratio * ratio))
    terms = np.zeros((3,) + pos.shape)
    terms[0, pos] = 1.0 - (2.0 / math.pi) * at
    terms[1, pos] = (g / math.pi) * log_term
    terms[2, pos] = (2.0 / math.pi) * g * (a_cut - g * at)
    if widths.ndim == 0:
        return TruncatedCauchyMoments(*terms[:, 0].tolist())
    return TruncatedCauchyMoments(*terms)


# The body of a numeric moment integral in standard units, |z| <= R: R is the first power
# of 2 from max(_MOMENT_BODY, 2|delta/gamma|), at most 2^1000, and its panels are halved at
# most _MOMENT_HALVINGS times.  The tails beyond _MOMENT_FAR gammas from delta integrate as
# the leading tail term, the survival function there to double precision for alpha >= 0.1
_MOMENT_BODY = 1e4
_MOMENT_HALVINGS = 50
_MOMENT_SHARE = 2.0 ** -10
_MOMENT_FAR = 1e250


def _strictly_stable_moment(params: StableParams, p: float) -> float:
    """E|u|^p for a strictly stable law, 0 < p < alpha (Samorodnitsky &
    Taqqu 1994, Property 1.2.17, with the sine integral there in closed
    form): gamma^p (2/pi) Gamma(1 - p/alpha) Gamma(p) sin(pi p/2)
    (1 + z^2)^(p/(2 alpha)) cos(arctan(z) p/alpha), z = beta tan(pi alpha/2)."""
    a = params.alpha
    z = params.beta * math.tan(math.pi * a / 2.0) if a != 1.0 else 0.0
    return (params.gamma ** p * (2.0 / math.pi) * math.gamma(1.0 - p / a) * math.gamma(p)
            * math.sin(math.pi * p / 2.0) * (1.0 + z * z) ** (p / (2.0 * a))
            * math.cos(math.atan(z) * p / a))


def _numeric_moment(params: StableParams, p: float) -> float:
    """E|u|^p = unit^p Int |d + g z|^p rho(z) dz, z = (u - delta)/gamma, with unit =
    max(gamma, |delta|), d = delta/unit and g = gamma/unit, so that no power of delta/gamma
    is formed, and rho the batch density.  The body |z| <= R starts from panels between
    0, +-2^k, the kink z = -delta/gamma and the side switch zeta of Nolan's integrals,
    and `_halving` halves each panel whose error estimate passes _MOMENT_SHARE of the
    first pass's tolerance.  Each tail, by parts, is p |d + g z|^(p-1) g against the batch
    survival function, which keeps its relative precision far out where the density of
    an alpha = 1 law does not, through r = |z| = R w^(-1/(alpha - p)), w in (0, 1]: the
    integrand tends to p c (1 +- beta) g^p R^(p - alpha)/(alpha - p), c the exact tail
    constant, and each panel in w covers a factor of 10 in r, so that it stays smooth
    however small alpha - p is.  A moment past the float range is inf."""
    a, b, gamma, delta = params.alpha, params.beta, params.gamma, params.delta
    unit = max(gamma, abs(delta))
    d, g = delta / unit, gamma / unit
    k = math.ceil(min(math.log2(max(_MOMENT_BODY, 2.0 * abs(delta) / gamma)), 1000.0))
    steps = 2.0 ** np.arange(k + 1.0)
    body = steps[-1]
    switch = -b * math.tan(math.pi * a / 2.0) if a != 1.0 else 0.0
    edges = np.concatenate([[0.0, -delta / gamma, switch], -steps, steps])
    edges = np.unique(np.clip(edges, -body, body))
    # log(r/body) at the tail panels' edges, out to where the integrand is `lead`; w > e^-700
    top = max(0.0, min(math.log(_MOMENT_FAR / body), 700.0 / (a - p)))
    w_edges = np.exp(-(a - p) * np.append(np.arange(0.0, top, math.log(10.0)), top)[::-1])
    w, w_half = _gk_nodes(w_edges[:-1], w_edges[1:])
    r = body * w ** (-1.0 / (a - p))
    total = error = 0.0
    for sign in (1.0, -1.0):  # P[z > r] on the right, P[z < -r] on the left
        skew = sign * b
        lead = p * _tail_constant(a) * (1.0 + skew) * g ** p * body ** (p - a) / (a - p)
        f = p * np.abs(d + sign * g * r) ** (p - 1.0) * _standard_sf(a, skew, r) * g * r / (w * (a - p))
        val, err = _gk_sum(f, w_half)
        total += abs(d + sign * g * body) ** p * float(_standard_sf(a, skew, body))
        total += val.sum() + lead * w_edges[0]
        error += err.sum()
    tol = None

    def panels(lo, hi):
        z, half = _gk_nodes(lo, hi)
        return _gk_sum(np.abs(d + g * z) ** p * _standard_pdf(a, b, z), half)

    def accept(val, err):
        nonlocal tol
        if tol is None:  # the first pass sets the tolerance
            tol = _MOMENT_SHARE * max(_ABS_TOL, _REL_TOL * abs(total + val.sum()))
        return err <= tol

    what = f"fractional moment of order {p} of {params}"
    val, err = _halving(edges[:-1], edges[1:], panels, accept, _MOMENT_HALVINGS, what)[2:]
    total, error = total + val.sum(), error + err.sum()
    if not _good_enough(total, error):
        raise QuadratureFailureError(f"{what}: value {total!r} with error estimate {error!r}")
    with np.errstate(over="ignore"):
        return float(np.float64(unit) ** p * total)


def fractional_moment(params: StableParams, p: float) -> MomentValue:
    """Absolute moment E|u|^p.

    Infinite when p >= alpha for alpha < 2.  Strictly stable laws (zero
    location in parametrisation 1, i.e. delta = beta gamma tan(pi alpha/2)
    for alpha != 1, delta = beta = 0 for alpha = 1) use the closed form of
    Samorodnitsky & Taqqu 1994, Property 1.2.17.  Gaussian laws (a
    confluent hypergeometric function of the location) and shifted
    symmetric Cauchy laws have closed forms too; every other law integrates it
    against the batch Zolotarev density on adaptive Gauss-Kronrod panels
    in standard units (`_numeric_moment`), with the tails mapped onto a
    finite interval; it raises QuadratureFailureError if the error estimate
    misses the tolerance, and OutOfRangeError past the float range.
    gamma = 0 is the point mass, with exact moment |delta|^p.
    """
    if not p > 0.0:
        raise OutOfRangeError("p", "moment order must be > 0")
    if params.gamma > 0.0 and params.alpha < 2.0 and p >= params.alpha:
        return MomentValue.infinite()
    try:
        value = _finite_moment(params, p)
    except OverflowError:  # a float power or gamma function of a closed form
        value = math.inf
    if value == math.inf:
        raise OutOfRangeError("p", f"the fractional moment of order {p} of {params} passes "
                                   "the float range")
    return MomentValue.finite(value)


def _finite_moment(params: StableParams, p: float) -> float:
    """E|u|^p where it is finite, or inf where it passes the float range."""
    if params.gamma == 0.0:
        return abs(params.delta) ** p
    if params.is_gaussian:
        # N(m, s^2): E|X|^p = s^p 2^(p/2) Gamma((p+1)/2)/sqrt(pi) 1F1(-p/2; 1/2; -m^2/(2 s^2))
        from scipy.special import hyp1f1
        std = params.gamma * math.sqrt(2.0)
        return (std ** p * 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)
                * float(hyp1f1(-p / 2.0, 0.5, -params.delta ** 2 / (2.0 * std * std))))
    if params.alpha == 1.0:
        shift = params.delta if params.beta == 0.0 else math.inf
    else:
        shift = params.delta - params.beta * params.gamma * math.tan(math.pi * params.alpha / 2.0)
    # a shift at rounding level of the location counts as strictly stable;
    # the moment moves by a relative O(shift/gamma) with it
    if abs(shift) <= 1e-12 * (abs(params.delta) + params.gamma):
        return _strictly_stable_moment(params, p)
    if params.is_symmetric_cauchy:
        # C(delta, gamma), p < 1: E|X|^p = Re[(gamma + i delta)^p] / cos(p pi/2)
        g, d = params.gamma, params.delta
        return math.hypot(g, d) ** p * math.cos(p * math.atan2(d, g)) / math.cos(p * math.pi / 2.0)
    return _numeric_moment(params, p)


# ---------------------------------------------------------------------------
# KL divergence with divergence detection
# ---------------------------------------------------------------------------

# Gauss-Kronrod panels per piece of the KL integral: across the initial
# domain, and across each doubling shell (half of them on either side)
_KL_PANELS = 32
_MAX_DOUBLINGS = 40


def _kl_panels(logpdf_p: Callable, logpdf_q: Callable, a: np.ndarray, b: np.ndarray):
    """Integral of p log(p/q) over the panels [a, b], and its error
    estimate, from one call of each log density on all their nodes."""
    u, half = _gk_nodes(a, b)
    lp = np.asarray(logpdf_p(u), dtype=float)
    lq = np.asarray(logpdf_q(u), dtype=float)
    p = np.exp(lp)
    with np.errstate(invalid="ignore"):
        f = np.where(p > 0.0, p * (lp - lq), 0.0)
        val, err = _gk_sum(f, half)
    return val.sum(), err.sum()


def kl_divergence_1d(logpdf_p: Callable, logpdf_q: Callable, domain: tuple) -> MomentValue:
    """Integral of p*log(p/q), from the log densities of p and q (called
    on arrays), with detection of an infinite divergence.

    Integrates the initial `domain`, then keeps adding shells that double
    the half-width, each on `_KL_PANELS` Gauss-Kronrod panels.  Finite
    verdict: the last shell's contribution, taken as an error of the
    total, meets the tolerance (`_good_enough`).  Infinite verdict: shell
    contributions keep growing past it for three consecutive doublings,
    or log q is -inf where p has mass, or the doubling budget runs out.
    Raises QuadratureFailureError when the summed error estimate misses
    the tolerance (a NaN integrand included).
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise OutOfRangeError("domain", "domain must satisfy lo < hi")
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    edges = np.linspace(lo, hi, _KL_PANELS + 1)
    total, error = _kl_panels(logpdf_p, logpdf_q, edges[:-1], edges[1:])
    shells = []
    while True:
        if total == math.inf:
            return MomentValue.infinite()
        if not _good_enough(total, error):
            raise QuadratureFailureError(
                f"KL integral over [{center - half}, {center + half}]: value {total!r} "
                f"with error estimate {error!r}"
            )
        if shells and _good_enough(total, shells[-1]):
            return MomentValue.finite(total)
        if len(shells) == _MAX_DOUBLINGS or len(shells) >= 4 and all(
            shells[-k] > shells[-k - 1] and not _good_enough(total, shells[-k]) for k in (1, 2, 3)
        ):
            return MomentValue.infinite()
        steps = np.linspace(half, 2.0 * half, _KL_PANELS // 2 + 1)
        a = np.concatenate([center - steps[1:], center + steps[:-1]])
        b = np.concatenate([center - steps[:-1], center + steps[1:]])
        shell, e = _kl_panels(logpdf_p, logpdf_q, a, b)
        half *= 2.0
        total += shell
        error += e
        shells.append(abs(shell))
