"""Coefficient sequences and convergence verdicts for random series.

A scale sequence (gamma_n), shift sequence (delta_n), or skewness
sequence (beta_n) is described either in closed form (`PowerLaw`,
`PowerLogLaw`) or as an explicit list with a declared tail rule
(`Explicit`).  Every sequence is a finite explicit head followed by a
closed form (zeros past a list with no tail), and a finite head never
changes whether a series converges, so every summability, three-series
and membership verdict is the exact integral-test answer for that
closed tail.  Partial sums at doubling depths are reported alongside,
as data.  The three-series terms come from `stable` (the truncated
Cauchy moments and the symmetric law's tables); this module evaluates
no stable law.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import DivisionByZeroScaleError, OutOfRangeError
from .stable import _symmetric_truncated_term_tables, truncated_cauchy_moments

__all__ = [
    "PowerLaw",
    "PowerLogLaw",
    "Explicit",
    "CoefficientSequence",
    "sequence_values",
    "as_sequence",
    "SeriesVerdict",
    "SummabilityVerdict",
    "Membership",
    "SummabilityReport",
    "ThreeSeriesResult",
    "HilbertScaleReport",
    "summability_report",
    "three_series_check",
    "hilbert_scale_membership",
    "cameron_martin_shift_admissible",
]

# the fewest terms a reported partial-sum trace may cover
_MIN_PROBE_DEPTH = 1000


@dataclass(frozen=True)
class PowerLaw:
    """value_n = amplitude * n**(-exponent); exponent 0 gives a constant."""

    amplitude: float
    exponent: float


@dataclass(frozen=True)
class PowerLogLaw:
    """value_n = amplitude * n**(-exponent) * (log n)**(-log_exponent).

    Defined for n >= 2; the n = 1 entry reuses the n = 2 log factor so
    every index is evaluable (heads never affect summability).
    """

    amplitude: float
    exponent: float
    log_exponent: float


@dataclass(frozen=True)
class Explicit:
    """A finite list of leading values plus a declared tail rule.

    ``tail=None`` means the sequence is zero beyond the list; a tail,
    itself possibly explicit, is indexed like the whole sequence.
    """

    values: tuple
    tail: Optional[CoefficientSequence] = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(map(float, self.values)))

    def __repr__(self):
        # the dataclass repr, which `spec_hash` hashes, with each distinct
        # nonzero value formatted once: a Haar gallery's 2^(L+1) - 1 scales
        # hold L + 1 values.  Zeros are formatted where they stand, since
        # 0.0 and -0.0 are one key and print apart.
        texts = {v: repr(v) for v in set(self.values) if v}
        values = ", ".join([texts.get(v) or repr(v) for v in self.values])
        if len(self.values) == 1:
            values += ","
        return f"{type(self).__qualname__}(values=({values}), tail={self.tail!r})"


CoefficientSequence = Union[PowerLaw, PowerLogLaw, Explicit]


def as_sequence(obj) -> CoefficientSequence:
    """Coerce a scalar (constant sequence) or array (explicit) to a sequence."""
    if isinstance(obj, (PowerLaw, PowerLogLaw, Explicit)):
        return obj
    if np.isscalar(obj):
        return PowerLaw(float(obj), 0.0)
    return Explicit(tuple(np.asarray(obj, dtype=float).ravel()))


def sequence_values(seq: CoefficientSequence, n: int) -> np.ndarray:
    """First n values (index starting at 1) as a float array."""
    if n < 0:
        raise OutOfRangeError("n", "length must be >= 0")
    idx = np.arange(1, n + 1, dtype=float)
    if isinstance(seq, PowerLaw):
        return seq.amplitude * idx ** (-seq.exponent)
    if isinstance(seq, PowerLogLaw):
        logs = np.log(np.maximum(idx, 2.0))
        return seq.amplitude * idx ** (-seq.exponent) * logs ** (-seq.log_exponent)
    if isinstance(seq, Explicit):
        head = np.asarray(seq.values, dtype=float)[:n]
        if head.size >= n:
            return head.copy()
        if seq.tail is None:
            return np.concatenate([head, np.zeros(n - head.size)])
        tail = sequence_values(seq.tail, n)[head.size:]
        return np.concatenate([head, tail])
    raise TypeError(f"not a coefficient sequence: {seq!r}")


def _log_exponent(seq: Union[PowerLaw, PowerLogLaw]) -> float:
    """The log exponent of a closed form; a power law is a power-log law with 0."""
    return getattr(seq, "log_exponent", 0.0)


def _closed_tail(seq: CoefficientSequence) -> tuple:
    """(length of the longest explicit head, the closed form past it).

    Nested `Explicit` tails are followed down to their `PowerLaw` or
    `PowerLogLaw`; a list with no tail ends in zeros, PowerLaw(0, 0).
    """
    head = 0
    while isinstance(seq, Explicit):
        head = max(head, len(seq.values))
        seq = PowerLaw(0.0, 0.0) if seq.tail is None else seq.tail
    return head, seq


def _summable(seq: CoefficientSequence, p: float, orlicz: bool = False) -> bool:
    """Exact integral-test answer to sum |v_n|^p < inf, or with orlicz to
    the log-weighted sum |v_n^p log v_n| < inf that the series theorems
    need at the resonant indices.

    Only the closed tail matters, a finite head never does; at
    exponent * p = 1 (to within 1e-12) the term is
    n^-1 (log n)^-(log_exponent p), one more power of the log with orlicz.
    """
    seq = _closed_tail(seq)[1]
    if seq.amplitude == 0.0:
        return True
    # a ratio's exponent is a float difference: within rounding of 1/p it
    # is the resonance, as in `_three_series_exact`
    rp = seq.exponent * p
    if not math.isclose(rp, 1.0, rel_tol=1e-12):
        return rp > 1.0
    return _log_exponent(seq) * p > 1.0 + orlicz


class SeriesVerdict(enum.Enum):
    CONVERGENT = "convergent"
    DIVERGENT = "divergent"


class SummabilityVerdict(enum.Enum):
    SATISFIES = "satisfies"
    FAILS_ELL_ALPHA = "fails_ell_alpha"
    FAILS_ORLICZ = "fails_orlicz"


class Membership(enum.Enum):
    MEMBER = "member"
    NOT_MEMBER = "not_member"


def _doubling_depths(depth: int) -> np.ndarray:
    depths = [64]
    while depths[-1] * 2 <= depth:
        depths.append(depths[-1] * 2)
    return np.asarray(depths, dtype=int)


def _partial_sums_at(terms: np.ndarray, depths: np.ndarray) -> np.ndarray:
    csum = np.cumsum(terms)
    return csum[depths - 1]


def _fit_decay_exponent(values: np.ndarray) -> Optional[float]:
    n = values.size
    lo = n // 4
    idx = np.arange(lo + 1, n + 1, dtype=float)
    vals = values[lo:]
    mask = vals > 0
    if mask.sum() < 8:
        return None
    x = np.log(idx[mask])
    y = np.log(vals[mask])
    slope = np.polyfit(x, y, 1)[0]
    return float(-slope)


@dataclass
class SummabilityReport:
    depths: np.ndarray
    alpha_partial_sums: np.ndarray
    orlicz_partial_sums: np.ndarray
    fitted_decay_exponent: Optional[float]
    regime: str  # "alpha=q" | "alpha=2q" | "neither"
    verdict: SummabilityVerdict


def summability_report(gamma_seq, alpha: float, q: float,
                       probe_depth: int = 2 ** 14) -> SummabilityReport:
    """Summability diagnostics for a scale sequence.

    Reports partial sums of sum gamma_n^alpha and of the log-weighted
    sum |gamma_n^alpha log gamma_n| at doubling depths, a fitted tail
    decay exponent, the resonance regime (the log-weighted condition is
    only required when alpha equals q or 2q), and a verdict.  The verdict
    is the integral test on the sequence's closed tail: ell^alpha first,
    then, at a resonance, the log-weighted condition; probe_depth sizes
    only the reported partial sums.
    """
    if probe_depth < _MIN_PROBE_DEPTH:
        raise OutOfRangeError("probe_depth", f"need at least {_MIN_PROBE_DEPTH}")
    gamma_seq = as_sequence(gamma_seq)
    vals = np.abs(sequence_values(gamma_seq, probe_depth))
    depths = _doubling_depths(probe_depth)
    terms_alpha = vals ** alpha
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(vals > 0, np.log(vals), 0.0)
    terms_orlicz = np.abs(terms_alpha * logs)
    sums_alpha = _partial_sums_at(terms_alpha, depths)
    sums_orlicz = _partial_sums_at(terms_orlicz, depths)

    if math.isclose(alpha, q, rel_tol=1e-12):
        regime = "alpha=q"
    elif math.isclose(alpha, 2.0 * q, rel_tol=1e-12):
        regime = "alpha=2q"
    else:
        regime = "neither"

    if not _summable(gamma_seq, alpha):
        verdict = SummabilityVerdict.FAILS_ELL_ALPHA
    elif regime != "neither" and not _summable(gamma_seq, alpha, orlicz=True):
        verdict = SummabilityVerdict.FAILS_ORLICZ
    else:
        verdict = SummabilityVerdict.SATISFIES

    return SummabilityReport(
        depths=depths,
        alpha_partial_sums=sums_alpha,
        orlicz_partial_sums=sums_orlicz,
        fitted_decay_exponent=_fit_decay_exponent(vals),
        regime=regime,
        verdict=verdict,
    )


@dataclass
class ThreeSeriesResult:
    """Partial sums of the three convergence-test series and a verdict.

    s0 sums the exceedance probabilities P[|gamma_n u_n|^q > A], s1 and
    s2 the truncated first and second moments, each traced at doubling
    depths.  The verdict is the exact integral-test answer for the scale
    sequence's closed tail; the sums are data, not evidence for it.
    """

    s0: float
    s1: float
    s2: float
    verdict: SeriesVerdict
    failing_series: tuple = ()
    depths: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    traces: dict = field(default_factory=dict)


def three_series_check(gamma_seq, alpha: float, q: float, a_cut: float,
                       depth: int = 2 ** 14) -> ThreeSeriesResult:
    """Convergence test for sum_n |gamma_n u_n|^q via its three series.

    With u_n standardised symmetric draws of index alpha, the random
    series converges almost surely exactly when the exceedance series and
    the two truncated-moment series are all finite.  For alpha = 1, q = 1
    the terms are the closed-form truncated Cauchy moments; otherwise
    A G_q and A^2 G_2q, from the bounded tables G_m(c) = E[|u|^m; |u| <= c]
    / c^m at the cuts c = A^(1/q)/gamma_n, and the exceedance probabilities.
    The verdict is DIVERGENT exactly when one of the three series fails
    the integral test on the scale sequence's closed tail; depth sizes
    only the reported partial sums.  The threshold A must be finite and > 0.
    """
    if not 0.0 < a_cut < math.inf:
        raise OutOfRangeError("A", "threshold must be finite and > 0")
    if depth < _MIN_PROBE_DEPTH:
        raise OutOfRangeError("depth", f"need at least {_MIN_PROBE_DEPTH}")
    gamma_seq = as_sequence(gamma_seq)
    gam = np.abs(sequence_values(gamma_seq, depth))
    depths = _doubling_depths(depth)

    if alpha == 1.0 and q == 1.0:
        t0, t1, t2 = truncated_cauchy_moments(gam, a_cut)
    else:
        with np.errstate(divide="ignore"):  # gamma_n = 0 gives an infinite cut
            log_cuts = math.log(a_cut) / q - np.log(gam)
        # gamma^q = A / cut^q makes the truncated moments A G_q and A^2 G_2q
        t0, g1, g2 = _symmetric_truncated_term_tables(alpha, q, log_cuts)
        t1 = a_cut * g1
        t2 = a_cut * (a_cut * g2)

    traces = {
        "s0": _partial_sums_at(t0, depths),
        "s1": _partial_sums_at(t1, depths),
        "s2": _partial_sums_at(t2, depths),
    }

    failing = tuple(name for name, converges in _three_series_exact(gamma_seq, alpha, q).items()
                    if not converges)
    return ThreeSeriesResult(
        s0=float(traces["s0"][-1]),
        s1=float(traces["s1"][-1]),
        s2=float(traces["s2"][-1]),
        verdict=SeriesVerdict.DIVERGENT if failing else SeriesVerdict.CONVERGENT,
        failing_series=failing,
        depths=depths,
        traces=traces,
    )


def _three_series_exact(gamma_seq, alpha: float, q: float) -> dict:
    """Exact convergence answers for the three series.

    Termwise asymptotics as gamma_n -> 0: the exceedance term scales like
    gamma^alpha; a truncated moment of order m*q scales like gamma^{m q}
    when m q < alpha, like gamma^alpha when m q > alpha, and like
    gamma^alpha |log gamma| at the resonance m q = alpha.
    """
    def moment_series(order: float) -> bool:
        if math.isclose(order, alpha, rel_tol=1e-12):
            return _summable(gamma_seq, alpha, orlicz=True)
        return _summable(gamma_seq, min(order, alpha))

    return {"s0": _summable(gamma_seq, alpha), "s1": moment_series(q),
            "s2": moment_series(2.0 * q)}


@dataclass
class HilbertScaleReport:
    gamma_condition: Membership
    delta_condition: Membership

    @property
    def member(self) -> bool:
        return (
            self.gamma_condition is Membership.MEMBER
            and self.delta_condition is Membership.MEMBER
        )


def _ratio_membership(num, den, s: float, p: float) -> Membership:
    """Is (num_n / den_n^s) in ell^p?  The integral test on the ratio of
    the two closed tails; a nonzero numerator over a zero scale, in the
    explicit heads or the tails, is an error."""
    (num_head, num_tail), (den_head, den_tail) = _closed_tail(num), _closed_tail(den)
    head = max(num_head, den_head)
    bad = (sequence_values(num, head) != 0.0) & (sequence_values(den, head) == 0.0)
    if bad.any():
        raise DivisionByZeroScaleError("numerator is nonzero where the scale vanishes "
                                       f"(first index {int(np.argmax(bad)) + 1})")
    if num_tail.amplitude == 0.0:
        return Membership.MEMBER
    if den_tail.amplitude == 0.0:
        raise DivisionByZeroScaleError("numerator is nonzero where the scale vanishes")
    ratio = PowerLogLaw(num_tail.amplitude / den_tail.amplitude ** s,
                        num_tail.exponent - s * den_tail.exponent,
                        _log_exponent(num_tail) - s * _log_exponent(den_tail))
    return Membership.MEMBER if _summable(ratio, p) else Membership.NOT_MEMBER


def hilbert_scale_membership(gamma_seq, delta_seq, lambda_seq, s: float,
                             alpha: float) -> HilbertScaleReport:
    """Does the random field land in the smoothness-s scale space?

    Against an eigenbasis with eigenvalues lambda_n decreasing to zero,
    membership needs (gamma_n / lambda_n^s) in ell^alpha and
    (delta_n / lambda_n^s) in ell^2.  Each is settled exactly by the
    integral test on the ratio of the closed tails.

    The eigenvalues must be positive and non-increasing, which is checked
    exactly: on the explicit head and the closed tail's first two values,
    and past them by the sign of the tail's log-derivative.
    """
    gamma_seq = as_sequence(gamma_seq)
    delta_seq = as_sequence(delta_seq)
    lambda_seq = as_sequence(lambda_seq)
    head, tail = _closed_tail(lambda_seq)
    lam = sequence_values(lambda_seq, head + 2)
    # a n^-e (log n)^-l has log-derivative -(e log x + l) / (x log x) for x >= 2:
    # it falls on [head + 2, inf) when e log(head + 2) + l >= 0, and to zero
    # when e > 0, or e = 0 and l > 0
    e, l = tail.exponent, _log_exponent(tail)
    falls = (e > 0.0 or (e == 0.0 and l > 0.0)) and e * math.log(head + 2) + l >= 0.0
    if not falls or np.any(np.diff(lam) > 0) or np.any(lam <= 0):
        raise OutOfRangeError("lambda_seq", "eigenvalues must be positive and decrease to zero")
    return HilbertScaleReport(
        gamma_condition=_ratio_membership(gamma_seq, lambda_seq, s, alpha),
        delta_condition=_ratio_membership(delta_seq, lambda_seq, s, 2.0),
    )


def cameron_martin_shift_admissible(h_seq, gamma_seq) -> Membership:
    """Is the shift (h_n) an equivalence-preserving translation?

    Shifting the n-th coefficient location by h_n leaves the law of the
    series mutually absolutely continuous exactly when (h_n / gamma_n)
    lies in ell^2.  Zero shifts are always admissible; a nonzero shift
    against a vanishing scale is an error.
    """
    return _ratio_membership(as_sequence(h_seq), as_sequence(gamma_seq), 1.0, 2.0)
