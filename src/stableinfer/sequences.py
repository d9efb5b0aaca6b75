"""Coefficient sequences and convergence diagnostics for random series.

A scale sequence (gamma_n), shift sequence (delta_n), or skewness
sequence (beta_n) is described either in closed form (`PowerLaw`,
`PowerLogLaw`) or as an explicit list with a declared tail rule
(`Explicit`).  Closed-form kinds admit exact integral-test verdicts for
the summability questions that decide whether the associated random
series converges; explicit kinds are probed numerically at doubling
depths, and those verdicts are finite-depth diagnostics, not proofs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import DivisionByZeroScaleError, OutOfRangeError
from .stable import _standard_pdf, _standard_sf, _tail_constant, truncated_cauchy_moments

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


def _lp_summable(seq: CoefficientSequence, p: float) -> Optional[bool]:
    """Exact integral-test answer to sum |v_n|^p < inf, or None if the
    sequence has no usable closed form."""
    if isinstance(seq, (PowerLaw, PowerLogLaw)):
        if seq.amplitude == 0.0:
            return True
        rp = seq.exponent * p
        if rp > 1.0:
            return True
        if rp == 1.0:
            return _log_exponent(seq) * p > 1.0
        return False
    if isinstance(seq, Explicit):
        if seq.tail is None:
            return True
        return _lp_summable(seq.tail, p)
    return None


def _orlicz_summable(seq: CoefficientSequence, alpha: float) -> Optional[bool]:
    """Exact answer to sum |v_n^alpha * log v_n| < inf (the extra condition
    the series theorems need at the resonant indices)."""
    if isinstance(seq, (PowerLaw, PowerLogLaw)):
        if seq.amplitude == 0.0:
            return True
        ra = seq.exponent * alpha
        if ra > 1.0:
            return True
        if ra == 1.0:
            # term ~ n^-1 (log n)^(1 - s a)
            return _log_exponent(seq) * alpha > 2.0
        return False
    if isinstance(seq, Explicit):
        if seq.tail is None:
            return True
        return _orlicz_summable(seq.tail, alpha)
    return None


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
    only required when alpha equals q or 2q), and a verdict.  Closed-form
    sequences are settled exactly by the integral test; explicit ones get
    the finite-depth numeric verdict.
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

    ell = _lp_summable(gamma_seq, alpha)
    orl = _orlicz_summable(gamma_seq, alpha) if regime != "neither" else True
    if isinstance(gamma_seq, Explicit) and gamma_seq.tail is not None:
        # numeric route for explicit data with a nontrivial continuation
        ell_v = _numeric_verdict(sums_alpha)
        orl_v = _numeric_verdict(sums_orlicz) if regime != "neither" else SeriesVerdict.CONVERGENT
        if ell_v is SeriesVerdict.DIVERGENT:
            verdict = SummabilityVerdict.FAILS_ELL_ALPHA
        elif ell_v is SeriesVerdict.CONVERGENT and orl_v is SeriesVerdict.DIVERGENT:
            verdict = SummabilityVerdict.FAILS_ORLICZ
        elif ell_v is SeriesVerdict.CONVERGENT and orl_v is SeriesVerdict.CONVERGENT:
            verdict = SummabilityVerdict.SATISFIES
        else:
            verdict = SummabilityVerdict.INCONCLUSIVE
    elif ell is False:
        verdict = SummabilityVerdict.FAILS_ELL_ALPHA
    elif ell is True and orl is False:
        verdict = SummabilityVerdict.FAILS_ORLICZ
    elif ell is True and orl is True:
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


# The truncated-moment tables: a uniform grid in log s from _TABLE_START,
# whose steps and their midpoints are the density points; _TABLE_STEPS
# steps, more where a step would be wider than _TABLE_MAX_STEP (2048
# steps reach 1.3e12 with it)
_TABLE_START = 1e-3
_TABLE_STEPS = 2048
_TABLE_MAX_STEP = 0.017


def _symmetric_truncated_term_tables(alpha: float, q: float, log_cuts: np.ndarray):
    """P[|u| > c] and the bounded ratios G_m(c) = E[|u|^m; |u| <= c] / c^m in
    [0, 1], m = q and 2q, for the standardised symmetric stable law at the
    cuts c = e^log_cut, taken as logs so that cuts past 1e308 keep their value.

    P comes from the distribution function, and past the float range from
    its tail term 2 k c^-alpha (k: the tail constant).  With
    F(t) = Int_0^(e^t) s^m rho(s) ds, G_m(e^t) = 2 F(t) e^(-mt), and
    dG/dt = 2 s rho(s) - m G.  log F starts at _TABLE_START from the exact
    rho(0) s^(m+1)/(m+1) (rho is flat to O(s^2) at 0) and adds Simpson's
    rule over each step of the grid, which ends at the largest finite cut,
    by `np.logaddexp.accumulate`, so that neither F nor a step of it leaves
    the float range; between nodes G is the cubic Hermite interpolant of G
    and its derivative.  Where rho leaves the normal float range
    (alpha < 2), log rho is its leading tail term alpha k s^-(alpha+1),
    exact to double precision so far out.  Against mpmath at cuts 1 to
    1e12, alpha in {0.7, 1.5, 1.9}, q = 1, the relative error is at most
    1.7e-9, and the step bound keeps it so at larger cuts.  Below
    _TABLE_START G is 2 rho(0) c/(m+1); an infinite cut (a zero scale)
    gives G = 0.
    """
    top = max(float(log_cuts[np.isfinite(log_cuts)].max(initial=0.0)), 0.0)
    t0 = math.log(_TABLE_START)
    steps = max(_TABLE_STEPS, math.ceil((top - t0) / _TABLE_MAX_STEP))
    h = (top - t0) / steps
    t = t0 + 0.5 * h * np.arange(2 * steps + 1)
    with np.errstate(over="ignore"):  # inf past e^709, where rho is its tail term
        rho = _standard_pdf(alpha, 0.0, np.exp(t))
        cuts = np.exp(log_cuts)
    with np.errstate(divide="ignore"):
        log_rho = np.log(rho)
    if alpha < 2.0:
        far = rho < np.finfo(float).tiny
        log_rho[far] = math.log(alpha * _tail_constant(alpha)) - (alpha + 1.0) * t[far]
    two_s_rho = 2.0 * np.exp(t[::2] + log_rho[::2])
    rho0 = math.gamma(1.0 + 1.0 / alpha) / math.pi  # rho(0)
    # position of each cut on the grid: step i, fraction x of the step
    pos = (np.clip(log_cuts, t0, top) - t0) / h
    i = np.clip(pos.astype(int), 0, steps - 1)
    x = np.clip(pos - i, 0.0, 1.0)
    below = log_cuts < t0
    ratios = []
    for m in (q, 2.0 * q):
        log_f = (m + 1.0) * t + log_rho
        log_steps = math.log(h / 6.0) + np.logaddexp(
            np.logaddexp(log_f[:-2:2], log_f[2::2]), math.log(4.0) + log_f[1::2])
        log_start = math.log(rho0 / (m + 1.0)) + (m + 1.0) * t0
        log_big_f = np.logaddexp.accumulate(np.concatenate([[log_start], log_steps]))
        g = 2.0 * np.exp(log_big_f - m * t[::2])
        dg = h * (two_s_rho - m * g)
        value = ((1.0 + 2.0 * x) * (1.0 - x) ** 2 * g[i] + x * (1.0 - x) ** 2 * dg[i]
                 + x * x * (3.0 - 2.0 * x) * g[i + 1] - x * x * (1.0 - x) * dg[i + 1])
        value[below] = 2.0 * rho0 * cuts[below] / (m + 1.0)
        value[log_cuts == np.inf] = 0.0
        ratios.append(value)
    survival = 2.0 * _standard_sf(alpha, 0.0, cuts)
    if alpha < 2.0:  # the leading tail term again, past the float range
        far = np.isinf(cuts) & (log_cuts < np.inf)
        survival[far] = 2.0 * _tail_constant(alpha) * np.exp(-alpha * log_cuts[far])
    return survival, ratios[0], ratios[1]


def three_series_check(gamma_seq, alpha: float, q: float, a_cut: float,
                       depth: int = 2 ** 14) -> ThreeSeriesResult:
    """Convergence test for sum_n |gamma_n u_n|^q via its three series.

    With u_n standardised symmetric draws of index alpha, the random
    series converges almost surely exactly when the exceedance series and
    the two truncated-moment series are all finite.  For alpha = 1, q = 1
    the terms are the closed-form truncated Cauchy moments; otherwise
    A G_q and A^2 G_2q, from the bounded tables G_m(c) = E[|u|^m; |u| <= c]
    / c^m at the cuts c = A^(1/q)/gamma_n, and the exceedance probabilities.
    Closed-form scale sequences get the exact integral-test verdict;
    explicit data gets the finite-depth doubling diagnostic.  The
    threshold A must be finite and > 0.
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

    analytic = _three_series_analytic(gamma_seq, alpha, q)
    failing = []
    if analytic is not None:
        for name, ok in analytic.items():
            if not ok:
                failing.append(name)
        verdict = SeriesVerdict.CONVERGENT if not failing else SeriesVerdict.DIVERGENT
    else:
        verdicts = {name: _numeric_verdict(tr) for name, tr in traces.items()}
        failing = [n for n, v in verdicts.items() if v is SeriesVerdict.DIVERGENT]
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


def _three_series_analytic(gamma_seq, alpha: float, q: float) -> Optional[dict]:
    """Exact convergence answers for the three series, or None.

    Termwise asymptotics as gamma_n -> 0: the exceedance term scales like
    gamma^alpha; a truncated moment of order m*q scales like gamma^{m q}
    when m q < alpha, like gamma^alpha when m q > alpha, and like
    gamma^alpha |log gamma| at the resonance m q = alpha.
    """
    tail = gamma_seq.tail if isinstance(gamma_seq, Explicit) else gamma_seq
    if tail is not None and not isinstance(tail, (PowerLaw, PowerLogLaw)):
        return None

    def moment_series_ok(order: float) -> Optional[bool]:
        if math.isclose(order, alpha, rel_tol=1e-12):
            return _orlicz_summable(gamma_seq, alpha)
        if order < alpha:
            return _lp_summable(gamma_seq, order)
        return _lp_summable(gamma_seq, alpha)

    answers = {
        "s0": _lp_summable(gamma_seq, alpha),
        "s1": moment_series_ok(q),
        "s2": moment_series_ok(2.0 * q),
    }
    if any(v is None for v in answers.values()):
        return None
    return answers


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


def _divide_by_eigen_power(seq, lam, s: float):
    """Closed form of v_n / lambda_n^s when both sides are closed-form."""
    if isinstance(seq, (PowerLaw, PowerLogLaw)) and isinstance(lam, (PowerLaw, PowerLogLaw)):
        return PowerLogLaw(seq.amplitude / lam.amplitude ** s,
                           seq.exponent - s * lam.exponent,
                           _log_exponent(seq) - s * _log_exponent(lam))
    return None


def _membership(seq_or_values, p: float, probe_depth: int) -> Membership:
    if isinstance(seq_or_values, (PowerLaw, PowerLogLaw, Explicit)):
        ans = _lp_summable(seq_or_values, p)
        if ans is True:
            return Membership.MEMBER
        if ans is False:
            return Membership.NOT_MEMBER
        values = np.abs(sequence_values(seq_or_values, probe_depth))
    else:
        values = np.abs(np.asarray(seq_or_values, dtype=float))
    depths = _doubling_depths(values.size)
    verdict = _numeric_verdict(_partial_sums_at(values ** p, depths))
    return {
        SeriesVerdict.CONVERGENT: Membership.MEMBER,
        SeriesVerdict.DIVERGENT: Membership.NOT_MEMBER,
        SeriesVerdict.INCONCLUSIVE: Membership.INCONCLUSIVE,
    }[verdict]


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

    def condition(seq, p):
        closed = _divide_by_eigen_power(seq, lambda_seq, s)
        if closed is not None:
            return _membership(closed, p, probe_depth)
        vals = sequence_values(seq, probe_depth)
        lam = sequence_values(lambda_seq, probe_depth)
        return _membership(vals / lam ** s, p, probe_depth)

    return HilbertScaleReport(
        gamma_condition=condition(gamma_seq, alpha),
        delta_condition=condition(delta_seq, 2.0),
    )


def cameron_martin_shift_admissible(h_seq, gamma_seq,
                                    probe_depth: int = 2 ** 14) -> Membership:
    """Is the shift (h_n) an equivalence-preserving translation?

    Shifting the n-th coefficient location by h_n leaves the law of the
    series mutually absolutely continuous exactly when (h_n / gamma_n)
    lies in ell^2.  Zero shifts are always admissible; a nonzero shift
    against a vanishing scale is an error.
    """
    h_seq = as_sequence(h_seq)
    gamma_seq = as_sequence(gamma_seq)
    # closed-form ratio when both are pure power laws
    if isinstance(h_seq, PowerLaw) and isinstance(gamma_seq, PowerLaw):
        if h_seq.amplitude == 0.0:
            return Membership.MEMBER
        if gamma_seq.amplitude == 0.0:
            raise DivisionByZeroScaleError("shift is nonzero where the scale vanishes")
        ratio = PowerLaw(h_seq.amplitude / gamma_seq.amplitude,
                         h_seq.exponent - gamma_seq.exponent)
        return _membership(ratio, 2.0, probe_depth)
    h = sequence_values(h_seq, probe_depth)
    g = np.abs(sequence_values(gamma_seq, probe_depth))
    bad = (h != 0.0) & (g == 0.0)
    if bad.any():
        raise DivisionByZeroScaleError(
            f"shift is nonzero where the scale vanishes (first index {int(np.argmax(bad)) + 1})"
        )
    ratio = np.zeros_like(h)
    nz = g > 0
    ratio[nz] = h[nz] / g[nz]
    return _membership(ratio, 2.0, probe_depth)
