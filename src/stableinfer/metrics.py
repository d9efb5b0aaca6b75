"""Quasi-norms and empirical probability metrics.

The ell^q functionals for any q > 0 (quasi-norms when q < 1, where
the triangle inequality only holds with the constant 2^(1/q - 1)), and
estimators of Hellinger and total-variation distance
between two measures given by importance weights over one shared
reference sample.  With the reference sample playing the dominating
measure, both estimators are plain averages:

    d_H^2 ~ mean_i (sqrt(w_i / mean w) - sqrt(v_i / mean v))^2
    d_TV  ~ (1/2) mean_i |w_i / mean w - v_i / mean v|

The plug-in normalisation makes them self-normalised; the O(1/n) bias is
dwarfed by the Monte Carlo standard errors these tools report.

Both distances, and the standard error of the Hellinger one, come from
one kernel that takes the first measure as its density w / mean w and
takes that density's root leaf by leaf, so no root is stored.  A caller
comparing one measure with many (the perturbation sweeps in `bayes`)
computes the density once and reuses it.  Each comparison writes the
terms of the standard error into an n-length buffer the caller passes:
the sweeps pass the perturbed weights themselves, which are dead once
their mean is taken, and `distances` a fresh one, so it never writes
into a measure's weights.  A measure validates
its weights once, on construction, with two numpy reductions (their sum
and their minimum), and keeps their total for `normalization` and
`normalized()`.

Every sum over the samples is numpy's pairwise sum.  A sum of elementwise
work is taken by `_tree_sums` over the leaves of numpy's own summation
tree, so the work between two reductions runs on a cache-sized leaf while
each sum keeps the bits of `arr.sum()` over the whole array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import MismatchedReferenceError, OutOfRangeError

__all__ = [
    "QuasiNormSpec",
    "rowwise_quasi_norm",
    "WeightedSampleMeasure",
    "Distances",
    "distances",
    "GapBoundCheck",
    "expectation_gap_bound_check",
]


# Rows in a leaf of `_tree_sums`: 256 KB of doubles, so the elementwise work
# on a leaf stays in the cache between its reductions.  numpy sums a node of
# up to 128 values (its PW_BLOCKSIZE) without splitting it, so a smaller leaf
# would not be a node of numpy's tree.
_LEAF = 1 << 15


def _tree_sums(n: int, fn) -> tuple:
    """Sums over rows [0, n) of the tuples that fn(a, b) returns for row
    ranges [a, b), with the bits of numpy's pairwise `arr.sum()`.

    The ranges are leaves of numpy's pairwise-summation tree: a node of
    more than _LEAF rows splits where numpy splits it, at n // 2 rounded
    down to a multiple of 8, and the leaves' sums are added up the tree as
    numpy adds its partial sums.  fn must take each sum with numpy's
    `.sum()` over its whole range.
    """
    if _LEAF < 128:
        raise ValueError(f"a leaf of {_LEAF} rows would split numpy's 128-value blocks")
    return _node_sums(fn, 0, n)


def _node_sums(fn, a: int, b: int) -> tuple:
    # a module function, not a closure that calls itself: such a closure is
    # a reference cycle, which would keep fn and its arrays alive until the
    # garbage collector runs
    if b - a <= _LEAF:
        return fn(a, b)
    h = (b - a) // 2
    h -= h % 8
    return tuple(x + y for x, y in zip(_node_sums(fn, a, a + h), _node_sums(fn, a + h, b)))


def _leaf_ranges(n: int) -> list:
    """Consecutive row ranges [a, b) of at most _LEAF rows covering [0, n),
    for elementwise work that takes no sum."""
    return [(a, min(a + _LEAF, n)) for a in range(0, n, _LEAF)]


def _leaf_buffer(n: int) -> np.ndarray:
    """Scratch for the rows of any one leaf of `_tree_sums` over n rows."""
    return np.empty(min(n, _LEAF))


@dataclass(frozen=True)
class QuasiNormSpec:
    """The ell^q (quasi-)norm of a coefficient sequence, for any positive
    exponent q or inf."""

    q: float = 2.0

    def __post_init__(self):
        if not self.q > 0.0:
            raise OutOfRangeError("q", "exponent must be > 0")


def rowwise_quasi_norm(matrix: np.ndarray, spec: QuasiNormSpec) -> np.ndarray:
    """(sum |v|^q)^(1/q) of every row v of a batch, max |v| for q = inf."""
    return _norms_of_powers(_powers(matrix, spec.q), spec.q)


def _powers(matrix: np.ndarray, q: float) -> np.ndarray:
    """|v|^q of every entry of a batch of rows, |v| for q = inf."""
    m = np.abs(np.atleast_2d(np.asarray(matrix, dtype=float)))
    if not math.isinf(q):
        m **= q  # in place
    return m


def _norms_of_powers(m: np.ndarray, q: float) -> np.ndarray:
    """The row norms of the batch whose `_powers` are m, which it leaves as
    they are: a prefix view m[:, :k] gives the norms of the rows' first k
    entries, to the bit."""
    # a one-entry row is its own maximum and sum (same bits)
    if math.isinf(q):
        return m[:, 0] if m.shape[1] == 1 else m.max(axis=1)
    if m.shape[1] == 1:
        return m[:, 0] ** (1.0 / q)
    norms = m.sum(axis=1)
    norms **= 1.0 / q
    return norms


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

        # weights of both signs of infinity make the total nan, with a warning
        with np.errstate(over="ignore", invalid="ignore"):
            total = w.sum()
        # a nan weight fails the minimum; a total of +inf is either an
        # infinite weight or finite weights whose sum overflows
        if not w.min() >= 0 or (total == math.inf and np.isinf(w).any()):
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


class Distances(NamedTuple):
    hellinger: float
    hellinger_stderr: float
    total_variation: float


def _deviation(x: np.ndarray, mean: float, scratch: np.ndarray) -> float:
    """x.std(ddof=1) to the bit, from x.mean(), each leaf of `_tree_sums` in scratch."""
    n = x.size

    def squared_deviations(a, b):
        dev = np.subtract(x[a:b], mean, out=scratch[:b - a])
        return (np.square(dev, out=dev).sum(),)

    return math.sqrt(_tree_sums(n, squared_deviations)[0] / (n - 1))


def _q_and_g(density: np.ndarray, weights: np.ndarray, normalization: float, scratch: list):
    """The leaf function of the distance passes: for rows [a, b) it returns
    q = weights / normalization and g = (sqrt p - sqrt q)^2, in the three
    leaf buffers of scratch, which every call reuses.  The root of p is
    taken leaf by leaf, with the bits of the whole-array root."""
    r, s, t = scratch

    def q_and_g(a, b):
        root, q, g = r[:b - a], s[:b - a], t[:b - a]
        np.divide(weights[a:b], normalization, out=q)
        np.sqrt(q, out=g)
        np.sqrt(density[a:b], out=root)
        np.subtract(root, g, out=g)
        np.square(g, out=g)
        return q, g

    return q_and_g


def _hellinger_and_tv(density: np.ndarray, weights: np.ndarray, normalization: float,
                      scratch: Optional[list] = None) -> tuple:
    """(d^2, d, tv) for the measures of `_distances`, from its first pass
    alone: one sum of |p - q| and of g over the leaves of `_tree_sums`, in
    the three leaf buffers of scratch (new ones when None), with no
    n-length buffer."""
    n = density.size
    q_and_g = _q_and_g(density, weights, normalization,
                       scratch or [_leaf_buffer(n) for _ in range(3)])

    def moduli_and_g(a, b):
        q, g = q_and_g(a, b)
        np.subtract(density[a:b], q, out=q)
        return np.abs(q, out=q).sum(), g.sum()

    abs_sum, g_sum = _tree_sums(n, moduli_and_g)
    d2 = g_sum / n
    return d2, math.sqrt(max(float(d2), 0.0)), float(0.5 * (abs_sum / n))


def _distances(density: np.ndarray, weights: np.ndarray, normalization: float,
               psi: np.ndarray) -> Distances:
    """The distances between the measure of the density and the measure of
    the given weights and normalization (their mean).

    With densities p, q and g = (sqrt p - sqrt q)^2, the delta method over
    both plug-in means (d^2/2 = 1 - mean sqrt(pq)) gives d^2 = mean g the
    standard error of psi = g - (d^2/2)(p + q).  Three passes over the
    leaves of `_tree_sums`: the first (`_hellinger_and_tv`) sums |p - q|
    and g, the second writes psi into the n-length `psi` and sums it, the
    third (`_deviation`) sums (psi - mean psi)^2.  Each leaf repeats the
    elementwise operations, in their order, of sqrt(mean g),
    std(psi, ddof=1) / sqrt(n) and mean |p - q| / 2, so the results are
    those textbook expressions' bits.  A leaf reads its weights before it
    writes its psi, so `psi` may be `weights` itself, which are then
    overwritten.
    """
    n = density.size
    scratch = [_leaf_buffer(n) for _ in range(3)]
    d2, d, tv = _hellinger_and_tv(density, weights, normalization, scratch)
    if d <= 0.0 or n < 2:
        return Distances(d, 0.0, tv)
    q_and_g = _q_and_g(density, weights, normalization, scratch)

    def psi_leaf(a, b):
        q, g = q_and_g(a, b)
        leaf = np.add(density[a:b], q, out=psi[a:b])
        np.multiply(leaf, d2 / 2, out=leaf)
        return (np.subtract(g, leaf, out=leaf).sum(),)

    mean_psi = _tree_sums(n, psi_leaf)[0] / n
    return Distances(d, _deviation(psi, mean_psi, scratch[0]) / math.sqrt(n) / (2.0 * d), tv)


def _density(mu: WeightedSampleMeasure, nu: WeightedSampleMeasure) -> np.ndarray:
    """mu's weights over their mean, once the two measures are checked to
    live on one reference sample."""
    if mu.reference_id != nu.reference_id or mu.weights.size != nu.weights.size:
        raise MismatchedReferenceError(
            f"measures live on different reference samples: "
            f"{mu.reference_id!r} (n={mu.weights.size}) vs "
            f"{nu.reference_id!r} (n={nu.weights.size})"
        )
    return mu.weights / mu.normalization


def distances(mu: WeightedSampleMeasure, nu: WeightedSampleMeasure) -> Distances:
    """Empirical Hellinger distance (in [0, sqrt(2)]), its Monte Carlo standard
    error and total variation (in [0, 1]) of two measures on one sample."""
    density = _density(mu, nu)
    return _distances(density, nu.weights, nu.normalization, np.empty(density.size))


def _self_normalised_mean(w: np.ndarray, f: np.ndarray, scratch: np.ndarray) -> tuple[float, float]:
    """Sum w_i f_i for weights w summing to one, and its delta-method
    stderr; w is squared in place and the n-length scratch overwritten."""
    value = float(w @ f)
    np.subtract(f, value, out=scratch)
    return value, math.sqrt(float(np.square(w, out=w) @ np.square(scratch, out=scratch)))


@dataclass
class GapBoundCheck:
    lhs: float
    rhs: float
    holds: bool
    rhs_sup_bound: float


def expectation_gap_bound_check(f_values, mu: WeightedSampleMeasure,
                                nu: WeightedSampleMeasure) -> GapBoundCheck:
    """Check |E_mu f - E_nu f| <= sqrt(2) sqrt(E_mu f^2 + E_nu f^2) d_H.

    Expectations are square-root-density-weighted sample averages; holds
    is evaluated with three-standard-error slack on the left side so
    Monte Carlo noise cannot flip a true inequality.  For bounded f the
    cruder bound 2 ||f||_inf d_H is reported alongside.
    """
    d_h = _hellinger_and_tv(_density(mu, nu), nu.weights, nu.normalization)[1]
    f = np.asarray(f_values, dtype=float).ravel()
    if f.size != mu.weights.size:
        raise MismatchedReferenceError(
            f"f has {f.size} values for {mu.weights.size} reference samples"
        )
    scratch = np.empty(f.size)

    def moments(measure):
        # one measure at a time: beyond f, its weights and the scratch
        w = measure.normalized()
        second = float(w @ np.square(f, out=scratch))
        return (*_self_normalised_mean(w, f, scratch), second)

    (e_mu, se_mu, second_mu), (e_nu, se_nu, second_nu) = moments(mu), moments(nu)
    lhs = abs(e_mu - e_nu)
    rhs = math.sqrt(2.0) * math.sqrt(max(second_mu + second_nu, 0.0)) * d_h
    slack = 3.0 * (se_mu + se_nu)
    return GapBoundCheck(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + slack),
                         rhs_sup_bound=2.0 * float(np.abs(f, out=scratch).max()) * d_h)
