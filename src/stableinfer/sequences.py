"""Coefficient sequences and convergence diagnostics for random series.

A scale sequence (gamma_n), shift sequence (delta_n), or skewness
sequence (beta_n) is described either in closed form (`PowerLaw`,
`PowerLogLaw`) or as an explicit list with a declared tail rule
(`Explicit`).  Every convergence question is judged by one rule: the
integral test gives the exact answer where the tail is a closed form,
and otherwise partial sums are probed at doubling depths, a finite-depth
diagnostic, not a proof.  Summability reports probe explicit data with a
tail; memberships of a ratio are exact only when both sides are closed.
The three-series terms come from `stable` (the truncated Cauchy moments
and the symmetric law's tables); this module evaluates no stable law.
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

# Finite-depth numeric thresholds: a partial-sum trace counts as settled
# when its last doubling increment is below CONVERGED_TOL, and as
# divergent when the increments refuse to shrink (ratio above
# SUSTAINED_GROWTH_RATIO) for three consecutive doublings.
CONVERGED_TOL = 1e-6
SUSTAINED_GROWTH_RATIO = 0.95
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

    ``tail=None`` means the sequence is zero beyond the list.
    """

    values: tuple
    tail: Optional[Union[PowerLaw, PowerLogLaw]] = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))


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


def _summable(seq: CoefficientSequence, p: float, orlicz: bool = False) -> Optional[bool]:
    """Exact integral-test answer to sum |v_n|^p < inf, or with orlicz to
    the log-weighted sum |v_n^p log v_n| < inf that the series theorems
    need at the resonant indices; None where the tail is explicit data.

    A finite head never matters; at exponent * p = 1 (to within 1e-12)
    the term is n^-1 (log n)^-(log_exponent p), one more power of the log
    with orlicz.
    """
    if isinstance(seq, Explicit):
        if seq.tail is None:
            return True
        seq = seq.tail
        if isinstance(seq, Explicit):
            return None
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
    INCONCLUSIVE = "inconclusive"


class SummabilityVerdict(enum.Enum):
    SATISFIES = "satisfies"
    FAILS_ELL_ALPHA = "fails_ell_alpha"
    FAILS_ORLICZ = "fails_orlicz"
    INCONCLUSIVE = "inconclusive"


class Membership(enum.Enum):
    MEMBER = "member"
    NOT_MEMBER = "not_member"
    INCONCLUSIVE = "inconclusive"


def _doubling_depths(depth: int) -> np.ndarray:
    depths = [64]
    while depths[-1] * 2 <= depth:
        depths.append(depths[-1] * 2)
    return np.asarray(depths, dtype=int)


def _partial_sums_at(terms: np.ndarray, depths: np.ndarray) -> np.ndarray:
    csum = np.cumsum(terms)
    return csum[depths - 1]


def _numeric_verdict(partial_sums: np.ndarray) -> SeriesVerdict:
    inc = np.diff(partial_sums)
    if inc.size == 0:
        return SeriesVerdict.INCONCLUSIVE
    if abs(inc[-1]) <= CONVERGED_TOL:
        return SeriesVerdict.CONVERGENT
    if inc.size >= 3:
        tail = inc[-3:]
        if np.all(tail > CONVERGED_TOL) and np.all(
            tail[1:] >= SUSTAINED_GROWTH_RATIO * tail[:-1]
        ):
            return SeriesVerdict.DIVERGENT
    return SeriesVerdict.INCONCLUSIVE


def _verdict(exact: Optional[bool], partial_sums: np.ndarray) -> SeriesVerdict:
    """The exact answer where there is one, else the doubling diagnostic."""
    if exact is None:
        return _numeric_verdict(partial_sums)
    return SeriesVerdict.CONVERGENT if exact else SeriesVerdict.DIVERGENT


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


def _numeric(gamma_seq: CoefficientSequence) -> bool:
    """Explicit data with a continuation takes the doubling diagnostic."""
    return isinstance(gamma_seq, Explicit) and gamma_seq.tail is not None


def _ell_alpha_verdict(gamma_seq: CoefficientSequence, alpha: float, probe_depth: int,
                       sums_alpha: Optional[np.ndarray] = None) -> SeriesVerdict:
    """Is (gamma_n) in ell^alpha?  The integral test, else the doubling diagnostic
    on the partial sums of gamma_n^alpha to probe_depth, `sums_alpha` if given."""
    if not _numeric(gamma_seq):
        return _verdict(_summable(gamma_seq, alpha), None)
    if sums_alpha is None:
        terms = np.abs(sequence_values(gamma_seq, probe_depth)) ** alpha
        sums_alpha = _partial_sums_at(terms, _doubling_depths(probe_depth))
    return _numeric_verdict(sums_alpha)


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
    only required when alpha equals q or 2q), and a verdict.  The integral
    test settles closed forms and finite lists exactly; explicit data with
    a tail gets the finite-depth numeric verdict.
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

    ell = _ell_alpha_verdict(gamma_seq, alpha, probe_depth, sums_alpha)
    orl = (_verdict(None if _numeric(gamma_seq) else _summable(gamma_seq, alpha, orlicz=True),
                    sums_orlicz)
           if regime != "neither" else SeriesVerdict.CONVERGENT)
    if ell is SeriesVerdict.DIVERGENT:
        verdict = SummabilityVerdict.FAILS_ELL_ALPHA
    elif ell is SeriesVerdict.CONVERGENT and orl is SeriesVerdict.DIVERGENT:
        verdict = SummabilityVerdict.FAILS_ORLICZ
    elif ell is SeriesVerdict.CONVERGENT and orl is SeriesVerdict.CONVERGENT:
        verdict = SummabilityVerdict.SATISFIES
    else:
        verdict = SummabilityVerdict.INCONCLUSIVE

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
    s2 the truncated first and second moments.  The verdict is a numeric
    diagnostic (exact for closed-form sequences, finite-depth otherwise),
    not a proof.
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
    Scale sequences with a closed-form tail (or none) get the exact
    integral-test verdict; a nested explicit tail gets the finite-depth
    doubling diagnostic.  The threshold A must be finite and > 0.
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

    verdicts = {name: _verdict(exact, traces[name])
                for name, exact in _three_series_exact(gamma_seq, alpha, q).items()}
    failing = [name for name, v in verdicts.items() if v is SeriesVerdict.DIVERGENT]
    if failing:
        verdict = SeriesVerdict.DIVERGENT
    elif all(v is SeriesVerdict.CONVERGENT for v in verdicts.values()):
        verdict = SeriesVerdict.CONVERGENT
    else:
        verdict = SeriesVerdict.INCONCLUSIVE

    return ThreeSeriesResult(
        s0=float(traces["s0"][-1]),
        s1=float(traces["s1"][-1]),
        s2=float(traces["s2"][-1]),
        verdict=verdict,
        failing_series=tuple(failing),
        depths=depths,
        traces=traces,
    )


def _three_series_exact(gamma_seq, alpha: float, q: float) -> dict:
    """Exact convergence answers for the three series (None: explicit tail).

    Termwise asymptotics as gamma_n -> 0: the exceedance term scales like
    gamma^alpha; a truncated moment of order m*q scales like gamma^{m q}
    when m q < alpha, like gamma^alpha when m q > alpha, and like
    gamma^alpha |log gamma| at the resonance m q = alpha.
    """
    def moment_series(order: float) -> Optional[bool]:
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


def _ratio_membership(num, den, s: float, p: float, depth: int) -> Membership:
    """Is (num_n / den_n^s) in ell^p?  Exact when both are closed forms,
    else the doubling diagnostic on the first `depth` ratios; a nonzero
    numerator over a zero scale is an error."""
    exact = sums = None
    if isinstance(num, (PowerLaw, PowerLogLaw)) and isinstance(den, (PowerLaw, PowerLogLaw)):
        if num.amplitude != 0.0 and den.amplitude == 0.0:
            raise DivisionByZeroScaleError("numerator is nonzero where the scale vanishes")
        exact = num.amplitude == 0.0 or _summable(
            PowerLogLaw(num.amplitude / den.amplitude ** s, num.exponent - s * den.exponent,
                        _log_exponent(num) - s * _log_exponent(den)), p)
    else:
        top = np.abs(sequence_values(num, depth))
        bottom = np.abs(sequence_values(den, depth)) ** s
        bad = (top != 0.0) & (bottom == 0.0)
        if bad.any():
            raise DivisionByZeroScaleError("numerator is nonzero where the scale vanishes "
                                           f"(first index {int(np.argmax(bad)) + 1})")
        ratio = np.divide(top, bottom, out=np.zeros_like(top), where=bottom > 0.0)
        sums = _partial_sums_at(ratio ** p, _doubling_depths(depth))
    return {
        SeriesVerdict.CONVERGENT: Membership.MEMBER,
        SeriesVerdict.DIVERGENT: Membership.NOT_MEMBER,
        SeriesVerdict.INCONCLUSIVE: Membership.INCONCLUSIVE,
    }[_verdict(exact, sums)]


def hilbert_scale_membership(gamma_seq, delta_seq, lambda_seq, s: float,
                             alpha: float, probe_depth: int = 2 ** 14) -> HilbertScaleReport:
    """Does the random field land in the smoothness-s scale space?

    Against an eigenbasis with eigenvalues lambda_n decreasing to zero,
    membership needs (gamma_n / lambda_n^s) in ell^alpha and
    (delta_n / lambda_n^s) in ell^2.  Closed-form inputs are settled
    exactly; otherwise the ratio sequences are probed numerically.
    """
    gamma_seq = as_sequence(gamma_seq)
    delta_seq = as_sequence(delta_seq)
    lambda_seq = as_sequence(lambda_seq)
    lam_head = sequence_values(lambda_seq, 16)
    if np.any(np.diff(lam_head) > 0) or np.any(lam_head <= 0):
        raise OutOfRangeError("lambda_seq", "eigenvalues must be positive and decreasing")
    return HilbertScaleReport(
        gamma_condition=_ratio_membership(gamma_seq, lambda_seq, s, alpha, probe_depth),
        delta_condition=_ratio_membership(delta_seq, lambda_seq, s, 2.0, probe_depth),
    )


def cameron_martin_shift_admissible(h_seq, gamma_seq,
                                    probe_depth: int = 2 ** 14) -> Membership:
    """Is the shift (h_n) an equivalence-preserving translation?

    Shifting the n-th coefficient location by h_n leaves the law of the
    series mutually absolutely continuous exactly when (h_n / gamma_n)
    lies in ell^2.  Zero shifts are always admissible; a nonzero shift
    against a vanishing scale is an error.
    """
    return _ratio_membership(as_sequence(h_seq), as_sequence(gamma_seq), 1.0, 2.0, probe_depth)
