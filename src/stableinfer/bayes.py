"""Generalised-Bayes posteriors over sampled priors, and their stress tests.

A posterior against a prior ensemble is represented by self-normalised
importance weights w_i proportional to exp(-Phi(u_i; y)): this realises
the density exp(-Phi)/Z of the posterior with respect to the prior
directly, one weight evaluation per sample, with no sampler tuning.  All
perturbation comparisons reuse the same ensemble (common random
numbers), so estimated Hellinger distances reflect the perturbation and
not resampling noise.

Misfit potentials carry declared growth envelopes: a lower bound
M1_r(t) and log-Lipschitz factors M2_r(t) (data) and M3_r(t)
(likelihood approximation), all as evaluable functions of the field
norm t.  The engine estimates the integrability quantities these
envelopes control, fits Hellinger-vs-perturbation slopes, and checks the
growth-rate tradeoff that keeps a heavy-tailed prior usable: envelopes
may grow logarithmically with a coefficient below the prior's finite
moment order, and no faster.

One misfit evaluation per sample gives a posterior its weights, the
normalising constant Z with its standard error, and the effective sample
size (`ZEstimate.ess`), each evaluated once (an ESS below the fixed floor
`_MIN_ESS` = 10 raises DegenerateWeightsError).  A misfit is row-local,
so it is evaluated leaf by leaf, on row ranges of at most
`metrics._LEAF` rows, straight into the one n-length buffer that then
holds the weights; no n-length misfit vector is formed.  Two passes over
the cache-sized leaves of `metrics._tree_sums` follow: the first turns
the misfits into weights in place and sums w and w^2, which give the
mean, Z and the ESS; the second sums the squared deviations behind the
standard error, and only `posterior`, which reports it, takes it.
The results keep the bits of the textbook numpy expressions (w.mean(),
w.std(ddof=1)).  A posterior's weighted measure validates and sums its
weights on construction, as any `WeightedSampleMeasure` does, and its
total has the bits of the first pass's.  Both perturbation sweeps weigh
their perturbed posteriors one at a time, without building a weighted
measure for them or a standard error of Z.
The sweeps compare each with the unperturbed posterior, whose density
w / mean w is computed once per sweep; one fused kernel in `metrics`
gives the Hellinger distance, its standard error and the total variation
of each pair, taking the density's root leaf by leaf and writing its
psi terms over the perturbed weights, and a log-log fit of distance
against perturbation size closes the sweep.  Beyond the ensemble, a
sweep holds two n-length vectors at most: the base density and one
perturbation's weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from hashlib import sha1
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateWeightsError,
    DimensionMismatchError,
    MomentOrderTooHighError,
    OutOfRangeError,
)
from .metrics import (
    QuasiNormSpec,
    WeightedSampleMeasure,
    _deviation,
    _distances,
    _leaf_buffer,
    _leaf_ranges,
    _self_normalised_mean,
    _tree_sums,
    rowwise_quasi_norm,
)
from .series import FieldEnsemble

__all__ = [
    "PotentialSpec",
    "IdentityForward",
    "LinearForward",
    "gaussian_additive_potential",
    "log_growth_envelopes",
    "ZEstimate",
    "PosteriorEstimate",
    "evaluate_misfit_batch",
    "posterior",
    "posterior_expectation",
    "EstimateTrace",
    "IntegrabilityReport",
    "integrability_estimates",
    "WellPosednessReport",
    "data_lipschitz_sweep",
    "likelihood_perturbation_sweep",
    "AdmissibilityReport",
    "growth_admissibility",
]

_MIN_ESS = 10.0
# an integrability estimate whose doubled-prefix values move by more than
# this fraction is flagged: infinite-mean Monte Carlo averages never settle
_INSTABILITY_FRACTION = 0.20


@dataclass
class PotentialSpec:
    """A misfit Phi(u; y) with declared growth envelopes.

    misfit maps a (n_samples, dim_u) batch and a data vector to the n
    misfit values.  It must be row-local, misfit(u[a:b], y) equal to
    misfit(u, y)[a:b], because a posterior evaluates it on row ranges.
    The envelopes are declared, not inferred: m1(r, t) lower-bounds Phi
    when ||y|| < r; exp(m2(r, t)) is a Lipschitz factor of Phi in y; and
    exp(m3(r, t)) scales a likelihood-approximation error.  The engine
    estimates their consequences under the prior
    (`integrability_estimates`); it cannot verify them pointwise over an
    infinite domain.
    """

    misfit: Callable[[np.ndarray, np.ndarray], np.ndarray]
    u_norm: QuasiNormSpec = field(default_factory=QuasiNormSpec)
    m1: Callable[[float, np.ndarray], np.ndarray] = lambda r, t: np.zeros_like(t)
    m2: Callable[[float, np.ndarray], np.ndarray] = lambda r, t: np.zeros_like(t)
    m3: Callable[[float, np.ndarray], np.ndarray] = lambda r, t: np.zeros_like(t)


class IdentityForward:
    """G(u) = u; growth bounds are exact."""

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return u

    def g_plus(self, t):
        return np.asarray(t, dtype=float)


class LinearForward:
    """G(u) = u @ A.T for a fixed matrix A; growth via singular values."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        self._smax = float(np.linalg.svd(self.matrix, compute_uv=False).max())

    def __call__(self, u: np.ndarray) -> np.ndarray:
        if u.shape[1] != self.matrix.shape[1]:
            raise DimensionMismatchError(
                f"forward matrix expects dimension {self.matrix.shape[1]}, "
                f"got {u.shape[1]}"
            )
        return u @ self.matrix.T

    def g_plus(self, t):
        return self._smax * np.asarray(t, dtype=float)


def gaussian_additive_potential(forward=None, noise_variance=1.0,
                                u_norm: Optional[QuasiNormSpec] = None) -> PotentialSpec:
    """Misfit of the additive-noise model y = G(u) + noise.

    Phi(u; y) = (1/2) || Sigma^(-1/2) (y - G(u)) ||_2^2 with diagonal
    noise covariance.  The quadratic form is nonnegative, so the trivial
    lower envelope m1 = 0 is always valid; the data-Lipschitz envelope
    comes from the gradient bound sigma_plus * (r + g_plus(t)).
    """
    forward = forward or IdentityForward()
    var = np.atleast_1d(np.asarray(noise_variance, dtype=float))
    if np.any(var <= 0):
        raise OutOfRangeError("noise_variance", "noise variances must be > 0")
    inv_sd = 1.0 / np.sqrt(var)
    sigma_plus = float((1.0 / var).max())

    def misfit(u: np.ndarray, y: np.ndarray) -> np.ndarray:
        g = forward(np.atleast_2d(np.asarray(u, dtype=float)))
        y_vec = np.atleast_1d(np.asarray(y, dtype=float))
        if y_vec.size != g.shape[1]:
            raise DimensionMismatchError(
                f"data has dimension {y_vec.size} but the forward map "
                f"produces {g.shape[1]} components"
            )
        if var.size not in (1, g.shape[1]):
            raise DimensionMismatchError(
                f"noise covariance has {var.size} entries for "
                f"{g.shape[1]} data components"
            )
        resid = np.subtract(y_vec[None, :], g)
        resid *= inv_sd
        np.square(resid, out=resid)
        # one component: the squared residual column is its own row sum
        total = resid.reshape(-1) if resid.shape[1] == 1 else resid.sum(axis=1)
        total *= 0.5
        return total

    def m2(r: float, t: np.ndarray) -> np.ndarray:
        return np.log(sigma_plus * (r + forward.g_plus(t)))

    return PotentialSpec(misfit=misfit, u_norm=u_norm or QuasiNormSpec(q=2.0), m2=m2)


def log_growth_envelopes(kappa: float, c_plus: float, c_minus: float,
                         sigma_minus: float):
    """Envelope pair (m1, m2) for the slow-growth forward-map family.

    With ||G(u)|| between sqrt(c_minus * log ||u||) and c_plus ||u||^kappa
    and the noise precision bounded below by sigma_minus, the misfit
    admits m1_r(t) = sigma_minus * c_minus * log t (clamped at t = 1) and
    m2_r(t) = log(r + c_plus * t^kappa).  The combination 2*m2 - m1 then
    grows like (2*kappa - sigma_minus*c_minus) * log t, the exponent the
    admissibility check compares against the prior's moment order.
    """

    def m1(r: float, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return sigma_minus * c_minus * np.log(np.maximum(t, 1.0))

    def m2(r: float, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.log(r + c_plus * t ** kappa)

    return m1, m2


# ---------------------------------------------------------------------------
# weights, normalisation, posterior
# ---------------------------------------------------------------------------

def _coerce_batch(u) -> np.ndarray:
    """The sample matrix of an ensemble or raw array."""
    if isinstance(u, FieldEnsemble):
        return np.atleast_2d(u.coefficients)
    return np.atleast_2d(np.asarray(u, dtype=float))


def evaluate_misfit_batch(potential: PotentialSpec, u, y) -> np.ndarray:
    """Phi(u_i; y) for every sample in the batch; values must be finite."""
    batch = _coerce_batch(u)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    values = np.asarray(potential.misfit(batch, y), dtype=float)
    if values.shape != (batch.shape[0],):
        raise DimensionMismatchError(
            f"misfit returned shape {values.shape} for {batch.shape[0]} samples"
        )
    # a finite total proves every value finite; a non-finite one may be
    # finite values whose sum overflows
    with np.errstate(over="ignore", invalid="ignore"):
        total = values.sum()
    if not math.isfinite(total) and not np.all(np.isfinite(values)):
        raise DimensionMismatchError("misfit produced non-finite values")
    return values


@dataclass
class ZEstimate:
    """Normalising-constant estimate Z = E_prior[exp(-Phi)].

    The sample mean is taken after shifting the misfits by their minimum
    (recorded in `shift`), which prevents exponential underflow without
    changing any normalised quantity; z and log_z undo the shift.  ess is
    the effective sample size (sum w)^2 / sum w^2 of the weights.  When
    the shift is below about -709.78, exp(-shift) overflows: z and stderr
    are then inf and underflow_flagged is set, while log_z stays finite.
    """

    z: float
    stderr: float
    log_z: float
    shift: float
    ess: float
    underflow_flagged: bool


def _weigh(potential: PotentialSpec, batch, y) -> tuple[np.ndarray, float, float, float]:
    """Shifted weights exp(-(Phi - min Phi)), their total, the shift and the
    ESS, in one n-length buffer that first holds the misfits, formed leaf
    by leaf; the shift, the least of the leaf minima, is the minimum of
    all n, and the total over n is w.mean() to the bit."""
    batch = _coerce_batch(batch)
    n = batch.shape[0]
    if n == 0:
        raise OutOfRangeError("ensemble", "need at least one sample")
    w = np.empty(n)
    shift = math.inf
    for a, b in _leaf_ranges(n):
        leaf = w[a:b]
        leaf[...] = evaluate_misfit_batch(potential, batch[a:b], y)
        shift = min(shift, float(leaf.min()))
    scratch = _leaf_buffer(n)

    def weights_and_squares(a, b):
        # shift - Phi is -(Phi - shift) to the bit, but for the sign of a
        # zero, which exp ignores
        leaf = np.subtract(shift, w[a:b], out=w[a:b])
        np.exp(leaf, out=leaf)
        return leaf.sum(), np.square(leaf, out=scratch[:b - a]).sum()

    s, s2 = _tree_sums(n, weights_and_squares)
    ess = float(s * s / s2)
    if ess < _MIN_ESS:
        raise DegenerateWeightsError(
            f"effective sample size {ess:.2f} < {_MIN_ESS}: weights are "
            "carried by too few samples"
        )
    return w, float(s), shift, ess


def _scale(shift: float) -> float:
    """exp(-shift), the factor from shifted weights to Z; inf where Z is
    beyond the largest double (log_z is not)."""
    try:
        return math.exp(-shift)
    except OverflowError:
        return math.inf


def _z_estimate(w: np.ndarray, total: float, shift: float, ess: float) -> ZEstimate:
    """The Z estimate of `_weigh`'s results.  Its standard error takes a
    second pass over the weights, the squared deviations in the order of
    w.std(ddof=1); the sweeps, which report Z alone, skip it."""
    n = w.size
    mean_w = total / n
    scale = _scale(shift)
    z = scale * mean_w
    stderr = 0.0
    if math.isinf(scale):
        stderr = math.inf
    elif n > 1:
        stderr = scale * _deviation(w, mean_w, _leaf_buffer(n)) / math.sqrt(n)
    return ZEstimate(
        z=z, stderr=stderr, log_z=-shift + math.log(mean_w), shift=shift, ess=ess,
        underflow_flagged=bool(z == 0.0 or not math.isfinite(z)),
    )


@dataclass
class PosteriorEstimate:
    """A posterior realised as weights over the prior ensemble."""

    y: np.ndarray
    z: ZEstimate
    measure: WeightedSampleMeasure


def posterior(potential: PotentialSpec, ensemble, y) -> PosteriorEstimate:
    """Posterior weights w_i = exp(-Phi(u_i; y)) / (n Z-hat) over the prior.

    The weighted measure realises the posterior density exp(-Phi)/Z with
    respect to the prior at the sample level; additive constants in Phi
    cancel exactly.
    """
    batch = _coerce_batch(ensemble)
    w, total, shift, ess = _weigh(potential, batch, y)
    z = _z_estimate(w, total, shift, ess)
    if isinstance(ensemble, FieldEnsemble):
        ref_id = ensemble.reference_id()
    else:
        # the buffer of the C-order batch: the bytes of batch.tobytes(),
        # copied only when the batch is not C-contiguous
        ref_id = "array:" + sha1(np.ascontiguousarray(batch)).hexdigest()[:16]
    return PosteriorEstimate(y=np.atleast_1d(np.asarray(y, dtype=float)),
                             z=z, measure=WeightedSampleMeasure(ref_id, w))


def posterior_expectation(f_values, post: PosteriorEstimate) -> tuple[float, float]:
    """Self-normalised estimate of E_posterior[f] with delta-method stderr."""
    f = np.asarray(f_values, dtype=float).ravel()
    w = post.measure.normalized()
    if f.size != w.size:
        raise DimensionMismatchError(
            f"f has {f.size} values for {w.size} posterior samples"
        )
    return _self_normalised_mean(w, f, np.empty(w.size))


# ---------------------------------------------------------------------------
# integrability of the growth envelopes under the prior
# ---------------------------------------------------------------------------

@dataclass
class EstimateTrace:
    value: float
    stderr: float
    unstable: bool
    prefix_estimates: tuple


@dataclass
class IntegrabilityReport:
    s1: EstimateTrace
    s12: EstimateTrace
    s13: EstimateTrace

    @property
    def any_unstable(self) -> bool:
        return self.s1.unstable or self.s12.unstable or self.s13.unstable


def _traced_mean(values: np.ndarray) -> EstimateTrace:
    n = values.size
    prefixes = []
    k = n
    while k >= max(n // 8, 2):
        prefixes.append(k)
        k //= 2
    prefixes = sorted(prefixes)
    ests = tuple((int(k), float(values[:k].mean())) for k in prefixes)
    unstable = False
    for (_, a), (_, b) in zip(ests, ests[1:]):
        denom = max(abs(a), abs(b), 1e-300)
        if abs(b - a) / denom > _INSTABILITY_FRACTION:
            unstable = True
    return EstimateTrace(
        value=float(values.mean()),
        stderr=float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
        unstable=unstable,
        prefix_estimates=ests,
    )


def integrability_estimates(potential: PotentialSpec, ensemble, r: float) -> IntegrabilityReport:
    """Estimates of E[exp(-M1)], E[exp(2 M2 - M1)], E[exp(2 M3 - M1)]
    under the prior, with heavy-tail instability flags.

    Each estimate is recomputed on doubled sample prefixes; if
    consecutive values move by more than 20%, the mean is flagged as
    unstable, the desk-scale signature of an integrand with no finite
    mean under a heavy-tailed prior.
    """
    batch = _coerce_batch(ensemble)
    t = rowwise_quasi_norm(batch, potential.u_norm)
    m1 = np.asarray(potential.m1(r, t), dtype=float)
    m2 = np.asarray(potential.m2(r, t), dtype=float)
    m3 = np.asarray(potential.m3(r, t), dtype=float)
    return IntegrabilityReport(
        s1=_traced_mean(np.exp(-m1)),
        s12=_traced_mean(np.exp(2.0 * m2 - m1)),
        s13=_traced_mean(np.exp(2.0 * m3 - m1)),
    )


# ---------------------------------------------------------------------------
# perturbation sweeps
# ---------------------------------------------------------------------------

@dataclass
class WellPosednessReport:
    """Distances against perturbation size, with a fitted log-log slope."""

    kind: str  # "data" | "likelihood"
    perturbation_sizes: np.ndarray
    distances: np.ndarray
    distance_stderrs: np.ndarray
    tv_distances: np.ndarray
    z_values: np.ndarray
    slope: float
    intercept: float
    slope_ci: tuple
    fit_residual: float
    verdicts: dict
    seed: Optional[int]
    n_samples: int

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "perturbation_sizes": [float(x) for x in self.perturbation_sizes],
            "estimates": {
                "hellinger": [float(x) for x in self.distances],
                "total_variation": [float(x) for x in self.tv_distances],
                "z": [float(x) for x in self.z_values],
            },
            "stderrs": {"hellinger": [float(x) for x in self.distance_stderrs]},
            # null where fewer than two positive distances leave no fit
            "slope": _finite_or_none(self.slope),
            "intercept": _finite_or_none(self.intercept),
            "slope_ci": [_finite_or_none(self.slope_ci[0]), _finite_or_none(self.slope_ci[1])],
            "fit_residual": _finite_or_none(self.fit_residual),
            "verdicts": self.verdicts,
            "seed": self.seed,
            "n_samples": self.n_samples,
        }


def _finite_or_none(x: float) -> Optional[float]:
    """x, or None (JSON null) where x is not finite."""
    return float(x) if math.isfinite(x) else None


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, tuple, float]:
    mask = (x > 0) & (y > 0)
    if mask.sum() < 2:
        return math.nan, math.nan, (math.nan, math.nan), math.nan
    lx = np.log(x[mask])
    ly = np.log(y[mask])
    design = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, _, _ = np.linalg.lstsq(design, ly, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    fitted = design @ coef
    resid = float(np.sqrt(np.mean((ly - fitted) ** 2)))
    dof = max(lx.size - 2, 1)
    sx = float(np.sum((lx - lx.mean()) ** 2))
    se = math.sqrt(max(np.sum((ly - fitted) ** 2) / dof, 0.0) / sx) if sx > 0 else math.nan
    return slope, intercept, (slope - 2.0 * se, slope + 2.0 * se), resid


def _sweep(kind: str, potential: PotentialSpec, ensemble, y, perturbed,
           sizes) -> WellPosednessReport:
    """Compare the posterior at (potential, y) with the posterior at each
    (potential, y) pair that `perturbed` yields, built one at a time, and
    fit the Hellinger distances against the perturbation sizes.

    The posteriors are weighed directly, with no weighted measure: their
    weights lie in [0, 1] with a maximum of exactly 1 by construction, and
    `_weigh` raises below the ESS floor.
    """
    batch = _coerce_batch(ensemble)
    w, total, _, _ = _weigh(potential, batch, y)
    n_samples = w.size
    # the sweep needs only the base's density
    density = np.divide(w, total / n_samples, out=w)

    def column(pert_potential, pert_y):
        """(hellinger, its stderr, total variation, Z) of one perturbation;
        its weights, dead once their mean is taken, hold the kernel's psi
        terms and are freed before the next perturbation is weighed."""
        w, total, shift, _ = _weigh(pert_potential, batch, pert_y)
        normalization = total / w.size
        return (*_distances(density, w, normalization, w), _scale(shift) * normalization)

    columns = [column(*pair) for pair in perturbed]
    distances, stderrs, tvs, zs = np.array(columns, dtype=float).reshape(-1, 4).T
    sizes = np.asarray(sizes, dtype=float)
    slope, intercept, ci, resid = _loglog_fit(sizes, distances)
    verdicts = {
        "slope_near_one": bool(0.9 <= slope <= 1.1) if math.isfinite(slope) else False,
        "kraft_ordering": bool(np.all(tvs <= distances + 1e-12)),
        "distances_bounded": bool(np.all(distances <= math.sqrt(2.0) + 1e-12)),
    }
    return WellPosednessReport(
        kind=kind,
        perturbation_sizes=sizes,
        distances=distances,
        distance_stderrs=stderrs,
        tv_distances=tvs,
        z_values=zs,
        slope=slope,
        intercept=intercept,
        slope_ci=ci,
        fit_residual=resid,
        verdicts=verdicts,
        seed=ensemble.seed if isinstance(ensemble, FieldEnsemble) else None,
        n_samples=n_samples,
    )


def data_lipschitz_sweep(potential: PotentialSpec, ensemble, y,
                         epsilons: Sequence[float], direction) -> WellPosednessReport:
    """Hellinger distance between posteriors at y and y + eps*direction.

    All posteriors share the prior ensemble (common random numbers), so
    the per-eps distances are smooth in eps and the fitted log-log slope
    is meaningful; a slope near one certifies the Lipschitz dependence of
    the posterior on the data at the empirical level.
    """
    direction = np.atleast_1d(np.asarray(direction, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    perturbed = ((potential, y + eps * direction) for eps in epsilons)
    return _sweep("data", potential, ensemble, y, perturbed, epsilons)


def likelihood_perturbation_sweep(potential: PotentialSpec, perturbation_family,
                                  psi: Callable[[int], float], ensemble, y,
                                  n_list: Sequence[int]) -> WellPosednessReport:
    """Hellinger distance between the posterior and its approximations.

    perturbation_family(N) returns the approximate misfit; psi(N) is the
    declared approximation-error scale.  Distances are computed on the
    shared ensemble and fitted against psi(N): a slope near one certifies
    that the posterior inherits the approximation rate of the misfit.
    """
    perturbed = ((replace(potential, misfit=perturbation_family(n)), y)
                 for n in n_list)
    return _sweep("likelihood", potential, ensemble, y, perturbed, [psi(n) for n in n_list])


# ---------------------------------------------------------------------------
# growth-rate admissibility
# ---------------------------------------------------------------------------

@dataclass
class AdmissibilityReport:
    admissible: bool
    margin: float
    exponent: float  # 2*kappa - sigma_minus*c_minus


def growth_admissibility(kappa: float, c_minus: float, sigma_minus: float,
                         p: float, alpha: float) -> AdmissibilityReport:
    """Growth tradeoff for the slow-growth forward family.

    The envelope combination 2*M2 - M1 grows like
    (2*kappa - sigma_minus*c_minus) * log t, and its exponential is
    prior-integrable when that exponent is at most a moment order p the
    prior actually has, i.e. p < alpha (any p when alpha = 2).  Admissible iff
    2*kappa - sigma_minus*c_minus <= p (the inequality is not strict);
    margin is p minus the exponent.
    """
    for name, v in (("kappa", kappa), ("c_minus", c_minus),
                    ("sigma_minus", sigma_minus), ("p", p)):
        if v < 0:
            raise OutOfRangeError(name, "must be >= 0")
    if alpha < 2.0 and p >= alpha:
        raise MomentOrderTooHighError(
            f"admissibility needs a prior moment order p < alpha, got "
            f"p={p}, alpha={alpha}"
        )
    exponent = 2.0 * kappa - sigma_minus * c_minus
    return AdmissibilityReport(
        admissible=bool(exponent <= p),
        margin=float(p - exponent),
        exponent=float(exponent),
    )
