"""Univariate stable-distribution kernel.

Four-parameter stable laws in the continuous ("parametrisation 0")
convention: S(alpha, beta, gamma, delta; 0) has characteristic function

    E exp(itu) = exp(i*delta*t - |gamma*t|^alpha
                     * [1 + i*beta*tan(pi*alpha/2)*sgn(t)*(|gamma*t|^(1-alpha) - 1)])

for alpha != 1, with the log form at alpha = 1 (and the 0*log(0) = 0
convention).  Special members: S(2, 0, sigma/sqrt(2), m) is normal with
mean m and standard deviation sigma, and S(1, 0, gamma, delta) is Cauchy
with location delta and width gamma.

The module provides validation, exact rejection-free sampling
(Chambers-Mallows-Stuck transform mapped into parametrisation 0),
closed-form Cauchy/normal densities, the closure rules under affine maps
and independent sums, fractional absolute moments, power-law tail
asymptotics, truncated Cauchy moments, and a one-dimensional KL
divergence with divergence detection.

Every numerical integral runs on numpy arrays of fixed 7/15-point
Gauss-Kronrod panels (`_gk_sum`), with QUADPACK's error estimate and
QuadratureFailureError where it misses the tolerance: Nolan's (1997)
finite-interval form of Zolotarev's integral for the densities and
distribution functions without a closed form, the numeric fractional
moments and the KL divergence.  The tolerance is fixed, absolute
_ABS_TOL = 1e-10 and relative _REL_TOL = 1e-8, and one helper,
`_good_enough`, applies it.  QUADPACK serves only the Fourier-inversion
reference `_StandardNumericDensity`, kept for the tests, so
`scipy.integrate` is imported on its first call rather than with the
module; importing this module loads numpy only.  Moments of strictly
stable laws and the tail constant are closed forms (Samorodnitsky &
Taqqu 1994, Properties 1.2.15 and 1.2.17).
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
    """A moment that is a finite number, infinite, or undefined."""

    kind: str  # "finite" | "infinite" | "undefined"
    value: Optional[float] = None

    @classmethod
    def finite(cls, value: float) -> "MomentValue":
        return cls("finite", float(value))

    @classmethod
    def infinite(cls) -> "MomentValue":
        return cls("infinite")

    @classmethod
    def undefined(cls) -> "MomentValue":
        return cls("undefined")

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
    alpha = float(alpha)
    beta = float(beta)
    gamma = float(gamma)
    delta = float(delta)
    if not (0.0 < alpha <= 2.0) or not math.isfinite(alpha):
        raise OutOfRangeError("alpha", f"stability index must lie in (0, 2], got {alpha!r}")
    if not (-1.0 < beta < 1.0):
        raise OutOfRangeError(
            "beta",
            f"skewness must lie strictly inside (-1, 1), got {beta!r}; the "
            "endpoint values give totally skewed laws that are not supported "
            "on all of R and are excluded",
        )
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
        exponent = (
            1j * params.delta * t_arr
            - gt
            - 1j * params.beta * (2.0 / math.pi) * np.sign(t_arr) * glg
        )
    else:
        # |gt|^alpha * (|gt|^(1-alpha) - 1) rewritten as gt - gt^alpha,
        # which stays finite at gt = 0 for every alpha
        ga = gt ** params.alpha
        exponent = (
            1j * params.delta * t_arr
            - ga
            - 1j * params.beta * math.tan(math.pi * params.alpha / 2.0) * np.sign(t_arr) * (gt - ga)
        )
    out = np.exp(exponent)
    if np.isscalar(t) or np.ndim(t) == 0:
        return complex(out)
    return out


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def standard_stable_from_uniforms(alpha: float, beta, u1, u2) -> np.ndarray:
    """Chambers-Mallows-Stuck transform of uniform pairs, parametrisation 0.

    Maps u1, u2 ~ U[0,1) to draws Z with gamma*Z + delta distributed as
    S(alpha, beta, gamma, delta; 0).  beta may be an array broadcastable
    against u1/u2, which is how a whole coefficient matrix with per-index
    skewness is transformed in one call.
    """
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    beta = np.asarray(beta, dtype=float)
    v = math.pi * (u1 - 0.5)
    alpha_one = abs(alpha - 1.0) < _ALPHA_ONE_SNAP
    if (alpha_one and not beta.any()
            and np.broadcast_shapes(beta.shape, v.shape, u2.shape) == v.shape):
        # symmetric Cauchy: b below is exactly pi/2, and the log term is
        # +-0 times a finite number (w >= 1e-300 and cos v >= 6e-17 for
        # u1, u2 in [0, 1)), so dropping both leaves every bit as it is
        return (2.0 / math.pi) * ((math.pi / 2.0) * np.tan(v))
    w = np.asarray(-np.log1p(-u2))  # an array for scalar uniforms too, for out= below
    # floor the exponential draw so the 1/w power below cannot overflow
    # to inf (and poison products with 0); the floor has probability mass
    # below 1e-290, far under any Monte Carlo resolution
    if alpha < 1.0:
        w_floor = max(1e-300, 10.0 ** (-290.0 * alpha / (1.0 - alpha)))
    else:
        w_floor = 1e-300
    np.clip(w, w_floor, None, out=w)
    if alpha == 2.0:
        return 2.0 * np.sin(v) * np.sqrt(w)
    if alpha_one:
        b = math.pi / 2.0 + beta * v
        z = (2.0 / math.pi) * (
            b * np.tan(v) - beta * np.log((math.pi / 2.0) * w * np.cos(v) / b)
        )
        return z
    zeta = beta * math.tan(math.pi * alpha / 2.0)
    t0 = np.arctan(zeta) / alpha
    z = (
        np.sin(alpha * (v + t0))
        / (np.cos(alpha * t0) * np.cos(v)) ** (1.0 / alpha)
        * (np.cos(alpha * t0 + (alpha - 1.0) * v) / w) ** ((1.0 - alpha) / alpha)
    )
    return z - zeta


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
    while True:
        bad = z == 0.0
        if not bad.any():
            break
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

def cauchy_pdf(delta: float, gamma: float, u):
    """Density of C(delta, gamma): 1/(gamma*pi) / (1 + ((u-delta)/gamma)^2)."""
    if not gamma > 0.0:
        raise OutOfRangeError("gamma", "width must be > 0")
    u = np.asarray(u, dtype=float)
    s = (u - delta) / gamma
    with np.errstate(over="ignore"):  # s*s = inf past 1.3e154 gives the density 0
        return 1.0 / (gamma * math.pi * (1.0 + s * s))


def cauchy_logpdf(delta: float, gamma: float, u):
    if not gamma > 0.0:
        raise OutOfRangeError("gamma", "width must be > 0")
    u = np.asarray(u, dtype=float)
    s = (u - delta) / gamma
    return -np.log1p(s * s) - math.log(gamma * math.pi)


def cauchy_cdf(delta: float, gamma: float, u):
    """Distribution function 1/2 + arctan((u-delta)/gamma)/pi."""
    if not gamma > 0.0:
        raise OutOfRangeError("gamma", "width must be > 0")
    u = np.asarray(u, dtype=float)
    out = 0.5 + np.arctan((u - delta) / gamma) / math.pi
    return float(out) if np.ndim(u) == 0 else out


def normal_pdf(mean: float, std: float, u):
    if not std > 0.0:
        raise OutOfRangeError("std", "standard deviation must be > 0")
    u = np.asarray(u, dtype=float)
    s = (u - mean) / std
    return np.exp(-0.5 * s * s) / (std * math.sqrt(2.0 * math.pi))


def normal_logpdf(mean: float, std: float, u):
    if not std > 0.0:
        raise OutOfRangeError("std", "standard deviation must be > 0")
    u = np.asarray(u, dtype=float)
    s = (u - mean) / std
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
    inversion of the characteristic function.

    rho(u) = (1/pi) Integral_0^inf [Re(phi) cos(ut) + Im(phi) sin(ut)] dt,
    evaluated point by point with QUADPACK's oscillatory-weight
    quadrature, whose `scipy.integrate` module is imported on the first
    point; its error estimates are discarded.  It serves as an independent
    check on the Zolotarev path below; it goes wrong near the centre for
    alpha > 1 (at |u| < 0.02 for alpha = 1.5) and warns at some points of
    skewed laws with alpha < 1.
    """

    def __init__(self, alpha: float, beta: float):
        if abs(alpha - 1.0) < _ALPHA_ONE_SNAP:
            def phase(t):
                return -beta * (2.0 / math.pi) * np.where(t > 0, t * np.log(np.where(t > 0, t, 1.0)), 0.0)
        else:
            tanpa = math.tan(math.pi * alpha / 2.0)

            def phase(t):
                return -beta * tanpa * (t - t ** alpha)

        self._re = lambda t: np.exp(-np.abs(t) ** alpha) * np.cos(phase(np.abs(t)))
        self._im = lambda t: np.exp(-np.abs(t) ** alpha) * np.sin(phase(np.abs(t)))

    def _point(self, u: float) -> float:
        if u == 0.0:
            val, _ = integrate.quad(self._re, 0.0, np.inf, epsabs=1e-12, limit=_QUAD_LIMIT)
            return val / math.pi
        w = abs(u)
        c, _ = integrate.quad(
            self._re, 0.0, np.inf, weight="cos", wvar=w,
            epsabs=1e-12, limit=_QUAD_LIMIT, limlst=120,
        )
        sign = 1.0 if u > 0 else -1.0
        s, _ = integrate.quad(
            self._im, 0.0, np.inf, weight="sin", wvar=w,
            epsabs=1e-12, limit=_QUAD_LIMIT, limlst=120,
        )
        val = (c + sign * s) / math.pi
        return max(val, 0.0)

    def __call__(self, u):
        u_arr = np.asarray(u, dtype=float)
        out = np.array([self._point(float(ui)) for ui in u_arr.ravel()]).reshape(u_arr.shape)
        if np.ndim(u) == 0:
            return float(out)
        return out


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
# points per vectorised pass, which bounds the working memory
_CHUNK = 512

# glibc's malloc returns the top of its heap to the system whenever more
# than its trim threshold lies free there: 128 KB at start, then twice the
# largest block yet freed from an mmap (mallopt(3), M_MMAP_THRESHOLD).
# Each panel of a pass below frees about 0.5 MB of temporaries, so at the
# start threshold every panel faults its memory back in: 50,000 page
# faults and a quarter more time per alpha = 1.5 three-series table.
# Freeing one 4 MB block raises the threshold to 8 MB; under another
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
            self.zeta = 0.0
            self.width = math.pi
            self.v_max = 1e15
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
            def near(y):
                return 2.0 * w / (2.0 - y * w + np.hypot(y * w, 2.0))
            return near(v), near(-v)
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
        """log V at the point (t, s)."""
        a = self.alpha
        if a == 1.0:
            b = self.beta
            right = s < t
            cos_theta = np.sin(np.where(right, s, t))
            sin_theta = np.where(right, np.cos(s), -np.cos(t))
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


def _gk_sum(f: np.ndarray, half: np.ndarray):
    """Gauss-Kronrod value and QUADPACK's error estimate for the integrand
    values f at `_GK_NODES` (last axis) on panels of half-width `half`."""
    kronrod = f @ _GK_WEIGHTS
    err = np.abs(kronrod - f @ _G7_WEIGHTS)
    resasc = np.abs(f - 0.5 * kronrod[..., None]) @ _GK_WEIGHTS
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
        half = 0.5 * (vb - va)
        v = (va + half)[:, None] + half[:, None] * _GK_NODES
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


def _zolotarev_integral(law: _Zolotarev, x: np.ndarray, integrand: str, scale):
    """scale * Integral for each point in chunks, with a refined second pass
    for the points whose error estimate misses the tolerance."""
    scale = np.broadcast_to(scale, x.shape)
    val = np.empty_like(x)
    err = np.empty_like(x)
    for start in range(0, x.size, _CHUNK):
        part = slice(start, start + _CHUNK)
        xs, sc = x[part], scale[part]
        with np.errstate(all="ignore"):
            total, e = _zolotarev_panels(law, xs, integrand)
            v, e = sc * total, sc * e
            redo = ~_good_enough(v, e)
            if redo.any():
                total, e2 = _zolotarev_panels(law, xs[redo], integrand, split=_REFINE)
                v[redo], e[redo] = sc[redo] * total, sc[redo] * e2
        val[part], err[part] = v, e
    return val, err


def _upper_lower(law: _Zolotarev, x: np.ndarray):
    """(1/pi) Int (1 - e^-g) and (1/pi) Int e^-g, which add up to width/pi,
    with the error estimate, per point.  Of the two integrands the one that
    is small over the bulk of the interval (around t = s) is integrated and
    the other follows, so that the smaller value keeps its precision."""
    total = law.width / math.pi
    bulk_low = law.log_scale(x) + law.log_v(0.5 * law.width, 0.5 * law.width) < 0.0
    upper = np.empty_like(x)
    lower = np.empty_like(x)
    err = np.empty_like(x)
    for low in (True, False):
        pick = bulk_low == low
        if pick.any():
            v, e = _zolotarev_integral(law, x[pick], "1-exp(-g)" if low else "exp(-g)",
                                       1.0 / math.pi)
            upper[pick] = v if low else total - v
            lower[pick] = total - v if low else v
            err[pick] = e
    return upper, lower, err


def _zolotarev(alpha: float, beta: float, x: np.ndarray, want: str):
    """Density (`want` = "pdf") or survival function P[X > x] ("sf") of
    S(alpha, beta, 1, 0; 0) at every point of the flat array x, by Nolan's
    integrals; alpha = 1 needs beta != 0 (the form divides by beta).

    The survival function is (1/pi) Int (1 - e^-g) for alpha < 1 and for
    alpha = 1 with beta > 0, and (1/pi) Int e^-g for alpha > 1; alpha = 1
    with beta < 0 gives the distribution function at -x of the mirrored
    law, (1/pi) Int e^-g again.  Raises QuadratureFailureError where an
    error estimate misses the tolerance (`_good_enough`).
    """
    val = np.empty_like(x)
    err = np.zeros_like(x)
    if alpha == 1.0:
        law = _Zolotarev(1.0, abs(beta))
        xs = x if beta > 0.0 else -x
        if want == "pdf":
            val[:], err[:] = _zolotarev_integral(law, xs, "g*exp(-g)", 0.5 / abs(beta))
        else:
            upper, lower, err[:] = _upper_lower(law, xs)
            val[:] = upper if beta > 0.0 else lower
    else:
        law = _Zolotarev(alpha, beta)
        # closer than this to zeta the density is its value at zeta to
        # double precision, and log(x - zeta) would leave the coordinate grid
        at = np.abs(x - law.zeta) <= 1e-150 * (1.0 + abs(law.zeta))
        for mirror in (False, True):
            side = _Zolotarev(alpha, -beta) if mirror else law
            pick = ~at & ((x < law.zeta) if mirror else (x > law.zeta))
            if not pick.any():
                continue
            xs = -x[pick] if mirror else x[pick]
            if want == "pdf":
                scale = alpha / (math.pi * abs(alpha - 1.0) * (xs - side.zeta))
                v, e = _zolotarev_integral(side, xs, "g*exp(-g)", scale)
            else:
                upper, lower, e = _upper_lower(side, xs)
                v = upper if alpha < 1.0 else lower
                if mirror:
                    v = 1.0 - v  # P[X > x] = 1 - P[X' > -x] for the mirrored X'
            val[pick], err[pick] = v, e
        if want == "pdf":
            val[at] = (math.gamma(1.0 + 1.0 / alpha) * math.cos(law.theta0)
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
    near alpha = 1, Nolan's integrals otherwise.  The survival function is
    clipped to [0, 1], which rounding in the integrals can leave by a few
    ulps of 0 or 1.  NaN points raise OutOfRangeError."""
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
        with np.errstate(divide="ignore"):
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
    """Density of S(alpha, beta, 1, 0; 0): closed forms for the normal and
    the symmetric Cauchy law, Nolan's integral otherwise."""
    return _standard(alpha, beta, z, "pdf")


def _standard_sf(alpha: float, beta: float, z):
    """P[X > z] for X ~ S(alpha, beta, 1, 0; 0), accurate far into the
    upper tail: closed forms for the normal and the symmetric Cauchy law,
    Nolan's integral otherwise."""
    return _standard(alpha, beta, z, "sf")


def stable_pdf(params: StableParams, u):
    """Density of S(alpha, beta, gamma, delta; 0) at u.

    Cauchy and Gaussian parameters use their closed forms.  Every other
    law goes through Nolan's (1997) finite-interval integral, evaluated
    for the whole array of points at once with a fixed Gauss-Kronrod
    rule on panels placed around the peak of the integrand; a point whose
    error estimate misses the fixed tolerance is integrated again on finer
    panels and raises QuadratureFailureError if it still misses.  Within 4e-3 of alpha = 1, and of beta = 0 at
    alpha = 1, where Nolan's forms lose precision, the value is
    interpolated from laws at and beyond that distance.  The density is 0
    at u = +-inf; NaN points raise OutOfRangeError.  Requires gamma > 0.
    """
    if not params.gamma > 0.0:
        raise OutOfRangeError("gamma", "density requires a non-degenerate scale")
    points = _points(u)
    if params.is_gaussian:
        return normal_pdf(params.delta, params.gamma * math.sqrt(2.0), u)
    if params.is_symmetric_cauchy:
        return cauchy_pdf(params.delta, params.gamma, u)
    z = (points - params.delta) / params.gamma
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
    return validate_params(
        params.alpha, sgn * params.beta, abs(a) * params.gamma, a * params.delta + b
    )


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
        raise AlphaMismatchError(
            f"cannot convolve stability indices {p1.alpha} and {p2.alpha}"
        )
    a = p1.alpha
    g1a = p1.gamma ** a
    g2a = p2.gamma ** a
    ga = g1a + g2a
    if ga == 0.0:
        return validate_params(a, 0.0, 0.0, p1.delta + p2.delta)
    beta = (p1.beta * g1a + p2.beta * g2a) / ga
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
    return TailAsymptote(
        scale * x ** (-params.alpha),
        scale * params.alpha * x ** (-(params.alpha + 1.0)),
    )


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


# The body of a numeric moment integral: panels graded by factors of 2
# from 2^-24 gamma towards u = 0 and u = delta, out to |u - delta| = R,
# R = max(_MOMENT_BODY gamma, 2|delta|).
_MOMENT_BODY = 1e4
_MOMENT_FINEST = -24
# tail nodes beyond this many gammas from delta take the leading tail term
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
    """E|u|^p on fixed Gauss-Kronrod panels: |u|^p against the batch
    density on the body |u - delta| <= R, and on each tail, integrated by
    parts, p |u|^(p-1) against the batch survival function, which keeps
    its relative precision far out where the density of an alpha = 1 law
    does not.  Each tail runs through r = |u - delta| = R w^(-1/(alpha - p)),
    w in (0, 1], under which its power-law integrand tends to the constant
    p c (1 +- beta) gamma^alpha R^(p - alpha)/(alpha - p), with c the exact
    tail constant; nodes beyond `_MOMENT_FAR` gammas take that limit."""
    a, b, g, d = params.alpha, params.beta, params.gamma, params.delta
    body = max(_MOMENT_BODY * g, 2.0 * abs(d))
    steps = g * 2.0 ** np.arange(_MOMENT_FINEST, math.ceil(math.log2(body / g)) + 1)
    edges = np.concatenate([[0.0, d - body, d + body], d - steps, d + steps, -steps, steps])
    edges = np.unique(edges[np.abs(edges - d) <= body])
    half = 0.5 * np.diff(edges)
    u = (edges[:-1] + half)[:, None] + half[:, None] * _GK_NODES
    f = np.abs(u) ** p * _standard_pdf(a, b, (u - d) / g) / g
    val, err = _gk_sum(f, half)
    total, error = val.sum(), err.sum()
    # two panels in w on each tail
    w_edges = np.array([0.0, 0.25, 1.0])
    w_half = 0.5 * np.diff(w_edges)
    w = (w_edges[:-1] + w_half)[:, None] + w_half[:, None] * _GK_NODES
    log_r = math.log(body) - np.log(w) / (a - p)
    far = log_r > math.log(_MOMENT_FAR * g)
    r = np.exp(np.minimum(log_r, math.log(_MOMENT_FAR * g)))
    c = _tail_constant(a)
    for sign in (1.0, -1.0):
        # P[u - delta > r] on the right, P[u - delta < -r] on the left
        skew = sign * b
        edge_sf = float(_standard_sf(a, skew, body / g))
        tail_sf = _standard_sf(a, skew, r / g)
        lead = p * c * (1.0 + skew) * g ** a * body ** (p - a) / (a - p)
        f = np.where(far, lead, p * np.abs(d + sign * r) ** (p - 1.0) * tail_sf * r / (w * (a - p)))
        val, err = _gk_sum(f, w_half)
        total += abs(d + sign * body) ** p * edge_sf + val.sum()
        error += err.sum()
    if not _good_enough(total, error):
        raise QuadratureFailureError(
            f"fractional moment of order {p} of {params}: value {total!r} "
            f"with error estimate {error!r}"
        )
    return float(total)


def fractional_moment(params: StableParams, p: float) -> MomentValue:
    """Absolute moment E|u|^p.

    Infinite when p >= alpha for alpha < 2.  Strictly stable laws (zero
    location in parametrisation 1, i.e. delta = beta gamma tan(pi alpha/2)
    for alpha != 1, delta = beta = 0 for alpha = 1) use the closed form of
    Samorodnitsky & Taqqu 1994, Property 1.2.17.  Gaussian laws (a
    confluent hypergeometric function of the location) and shifted
    symmetric Cauchy laws have closed forms too; every other law integrates it
    against the batch Zolotarev density on fixed Gauss-Kronrod panels,
    with the tails mapped onto a finite interval, and raises
    QuadratureFailureError if the error estimate misses the tolerance.
    gamma = 0 is the point mass, with exact moment |delta|^p.
    """
    if not p > 0.0:
        raise OutOfRangeError("p", "moment order must be > 0")
    if params.gamma == 0.0:
        return MomentValue.finite(abs(params.delta) ** p)
    if params.alpha < 2.0 and p >= params.alpha:
        return MomentValue.infinite()
    if params.is_gaussian:
        # N(m, s^2): E|X|^p = s^p 2^(p/2) Gamma((p+1)/2)/sqrt(pi) 1F1(-p/2; 1/2; -m^2/(2 s^2))
        from scipy.special import hyp1f1
        std = params.gamma * math.sqrt(2.0)
        return MomentValue.finite(
            std ** p * 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)
            * float(hyp1f1(-p / 2.0, 0.5, -params.delta ** 2 / (2.0 * std * std)))
        )
    if params.alpha == 1.0:
        shift = params.delta if params.beta == 0.0 else math.inf
    else:
        shift = params.delta - params.beta * params.gamma * math.tan(math.pi * params.alpha / 2.0)
    # a shift at rounding level of the location counts as strictly stable;
    # the moment moves by a relative O(shift/gamma) with it
    if abs(shift) <= 1e-12 * (abs(params.delta) + params.gamma):
        return MomentValue.finite(_strictly_stable_moment(params, p))
    if params.is_symmetric_cauchy:
        # C(delta, gamma), p < 1: E|X|^p = Re[(gamma + i delta)^p] / cos(p pi/2)
        g, d = params.gamma, params.delta
        return MomentValue.finite(
            (g * g + d * d) ** (p / 2.0) * math.cos(p * math.atan2(d, g))
            / math.cos(p * math.pi / 2.0)
        )
    return MomentValue.finite(_numeric_moment(params, p))


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
    half = 0.5 * (b - a)
    u = (a + half)[:, None] + half[:, None] * _GK_NODES
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
