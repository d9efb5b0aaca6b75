"""Quasi-norms and empirical probability metrics.

The ell^q and grid L^q functionals for any q > 0 (quasi-norms when
q < 1, where the triangle inequality only holds with the constant
2^(1/q - 1)), and estimators of Hellinger and total-variation distance
between two measures given by importance weights over one shared
reference sample.  With the reference sample playing the dominating
measure, both estimators are plain averages:

    d_H^2 ~ mean_i (sqrt(w_i / mean w) - sqrt(v_i / mean v))^2
    d_TV  ~ (1/2) mean_i |w_i / mean w - v_i / mean v|

The plug-in normalisation makes them self-normalised; the O(1/n) bias is
dwarfed by the Monte Carlo standard errors these tools report.

Both distances, and the standard error of the Hellinger one, come from
one kernel that takes the first measure as its density w / mean w and the
root of that density.  A caller comparing one measure with many (the
perturbation sweeps in `bayes`) computes that pair once and reuses it;
each comparison then works in two n-length scratch buffers.  A measure
validates its weights once, on construction, and keeps their total for
`normalization` and `normalized()`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import MismatchedReferenceError, OutOfRangeError

__all__ = [
    "QuasiNormSpec",
    "quasi_norm",
    "rowwise_quasi_norm",
    "WeightedSampleMeasure",
    "hellinger_empirical",
    "hellinger_with_error",
    "total_variation_empirical",
    "GapBoundCheck",
    "expectation_gap_bound_check",
]


@dataclass(frozen=True)
class QuasiNormSpec:
    """An ell^q or grid-function L^q (quasi-)norm.

    q may be any positive exponent or inf; grid functionals integrate
    with the declared spacing.  The attached constant C(q) is the factor
    in the weakened triangle inequality ||u+v|| <= C(||u|| + ||v||).
    """

    q: float = 2.0
    domain: str = "sequence"  # "sequence" | "grid"
    grid_spacing: Optional[float] = None

    def __post_init__(self):
        if not self.q > 0.0:
            raise OutOfRangeError("q", "exponent must be > 0")
        if self.domain not in ("sequence", "grid"):
            raise OutOfRangeError("domain", "must be 'sequence' or 'grid'")
        if self.domain == "grid" and not (self.grid_spacing or 0) > 0:
            raise OutOfRangeError("grid_spacing", "grid norms need a positive spacing")

    @property
    def quasi_triangle_constant(self) -> float:
        if math.isinf(self.q):
            return 1.0
        return max(1.0, 2.0 ** (1.0 / self.q - 1.0))


def rowwise_quasi_norm(matrix: np.ndarray, spec: QuasiNormSpec) -> np.ndarray:
    """(sum |v|^q)^(1/q) of every row v of a batch, max |v| for q = inf,
    with the sum weighted by the grid spacing on grids."""
    m = np.abs(np.atleast_2d(np.asarray(matrix, dtype=float)))
    if math.isinf(spec.q):
        return m.max(axis=1)
    total = (m ** spec.q).sum(axis=1)
    if spec.domain == "grid":
        total = total * spec.grid_spacing
    return total ** (1.0 / spec.q)


def quasi_norm(values, spec: QuasiNormSpec) -> float:
    """rowwise_quasi_norm of the flattened values; 0 for no values."""
    v = np.asarray(values, dtype=float).ravel()
    return float(rowwise_quasi_norm(v[None, :], spec)[0]) if v.size else 0.0


@dataclass
class WeightedSampleMeasure:
    """Non-negative weights over a shared reference sample.

    reference_id ties the weights to the ensemble they were evaluated on;
    two measures are only comparable when the ids match (the estimators
    integrate against that common sample).  The weights' total is taken
    once, on construction, so the weights must not be changed in place
    afterwards.
    """

    reference_id: str
    weights: np.ndarray
    _total: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.weights = w = np.asarray(self.weights, dtype=float).ravel()
        if w.size == 0:
            raise OutOfRangeError("weights", "need at least one sample")
        # the minimum is nan when a weight is nan; a total of +inf is either
        # an infinite weight or finite weights whose sum overflows
        if not w.min() >= 0:
            raise OutOfRangeError("weights", "weights must be finite and >= 0")
        with np.errstate(over="ignore"):
            total = w.sum()
        if total == math.inf and np.isinf(w).any():
            raise OutOfRangeError("weights", "weights must be finite and >= 0")
        if total / w.size == 0:
            raise OutOfRangeError("weights", "all weights are zero, or their mean underflows to 0")
        self._total = total

    @property
    def normalization(self) -> float:
        """Plug-in estimate of the normalising constant (mean raw weight)."""
        return float(self._total / self.weights.size)

    def normalized(self) -> np.ndarray:
        """Weights scaled to sum to one."""
        return self.weights / self._total


def _check_shared_reference(mu: WeightedSampleMeasure, nu: WeightedSampleMeasure):
    if mu.reference_id != nu.reference_id or mu.weights.size != nu.weights.size:
        raise MismatchedReferenceError(
            f"measures live on different reference samples: "
            f"{mu.reference_id!r} (n={mu.weights.size}) vs "
            f"{nu.reference_id!r} (n={nu.weights.size})"
        )


def _density_and_root(mu: WeightedSampleMeasure) -> tuple[np.ndarray, np.ndarray]:
    """The density w / mean w of mu against the reference sample, and its root."""
    density = mu.weights / mu.normalization
    return density, np.sqrt(density)


def _distances(density: np.ndarray, root: np.ndarray,
               nu: WeightedSampleMeasure) -> tuple[float, float, float]:
    """Hellinger distance, its Monte Carlo standard error and the total
    variation between the measure of (density, root) and nu.

    With densities p, q and g = (sqrt p - sqrt q)^2, the delta method over
    both plug-in means (d^2/2 = 1 - mean sqrt(pq)) gives d^2 = mean g the
    standard error of psi = g - (d^2/2)(p + q).  Works in two n-length
    scratch buffers with the operations, and their order, of sqrt(mean g),
    std(psi, ddof=1) / sqrt(n) and mean |p - q| / 2, so the results are
    those textbook expressions' bits.
    """
    n = density.size
    q = nu.weights / nu.normalization
    buf = np.subtract(density, q)
    np.abs(buf, out=buf)
    tv = float(0.5 * (buf.sum() / n))
    np.add(density, q, out=buf)
    g = np.sqrt(q, out=q)
    np.subtract(root, g, out=g)
    np.square(g, out=g)
    d2 = g.sum() / n
    d = math.sqrt(max(float(d2), 0.0))
    if d <= 0.0 or n < 2:
        return d, 0.0, tv
    np.multiply(buf, d2 / 2, out=buf)
    psi = np.subtract(g, buf, out=buf)
    np.subtract(psi, psi.sum() / n, out=psi)
    np.square(psi, out=psi)
    se_d2 = math.sqrt(psi.sum() / (n - 1)) / math.sqrt(n)
    return d, se_d2 / (2.0 * d), tv


def hellinger_with_error(mu: WeightedSampleMeasure,
                         nu: WeightedSampleMeasure) -> tuple[float, float]:
    """Empirical Hellinger distance and its Monte Carlo standard error."""
    _check_shared_reference(mu, nu)
    return _distances(*_density_and_root(mu), nu)[:2]


def hellinger_empirical(mu: WeightedSampleMeasure, nu: WeightedSampleMeasure) -> float:
    """Hellinger distance between the weighted measures; in [0, sqrt(2)]."""
    return hellinger_with_error(mu, nu)[0]


def total_variation_empirical(mu: WeightedSampleMeasure,
                              nu: WeightedSampleMeasure) -> float:
    """Total-variation distance between the weighted measures; in [0, 1]."""
    _check_shared_reference(mu, nu)
    return _distances(*_density_and_root(mu), nu)[2]


@dataclass
class GapBoundCheck:
    lhs: float
    rhs: float
    holds: bool
    rhs_sup_bound: Optional[float] = None


def expectation_gap_bound_check(f_values, mu: WeightedSampleMeasure,
                                nu: WeightedSampleMeasure) -> GapBoundCheck:
    """Check |E_mu f - E_nu f| <= sqrt(2) sqrt(E_mu f^2 + E_nu f^2) d_H.

    Expectations are square-root-density-weighted sample averages; holds
    is evaluated with three-standard-error slack on the left side so
    Monte Carlo noise cannot flip a true inequality.  For bounded f the
    cruder bound 2 ||f||_inf d_H is reported alongside.
    """
    _check_shared_reference(mu, nu)
    f = np.asarray(f_values, dtype=float).ravel()
    if f.size != mu.weights.size:
        raise MismatchedReferenceError(
            f"f has {f.size} values for {mu.weights.size} reference samples"
        )
    wm = mu.normalized()
    wn = nu.normalized()
    e_mu = float(wm @ f)
    e_nu = float(wn @ f)
    lhs = abs(e_mu - e_nu)
    second = float(wm @ f ** 2) + float(wn @ f ** 2)
    d_h, _ = hellinger_with_error(mu, nu)
    rhs = math.sqrt(2.0) * math.sqrt(max(second, 0.0)) * d_h
    se_mu = math.sqrt(float(wm ** 2 @ (f - e_mu) ** 2))
    se_nu = math.sqrt(float(wn ** 2 @ (f - e_nu) ** 2))
    slack = 3.0 * (se_mu + se_nu)
    sup_bound = 2.0 * float(np.abs(f).max()) * d_h if f.size else None
    return GapBoundCheck(
        lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + slack), rhs_sup_bound=sup_bound,
    )
