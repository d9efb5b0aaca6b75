"""Coefficient sequences: summability reports, the three-series test,
scale-space membership, and shift admissibility."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import erf, erfc

from stableinfer import (
    DivisionByZeroScaleError,
    Explicit,
    Membership,
    OutOfRangeError,
    PowerLaw,
    PowerLogLaw,
    SeriesVerdict,
    SummabilityVerdict,
    cameron_martin_shift_admissible,
    hilbert_scale_membership,
    sequence_values,
    summability_report,
    three_series_check,
    truncated_cauchy_moments,
)


def _working_digits(log_sizes) -> int:
    """40 decimal digits past the largest of the terms whose natural logs
    are `log_sizes`."""
    return 40 + max(0, math.ceil(max(log_sizes) / math.log(10.0)))


def _truncated_moment(alpha: float, m: float, cut: float):
    """E[|u|^m; |u| <= cut] for the standardised symmetric stable law in
    mpmath, m >= 0.  For alpha > 1 and cut < 8, where its terms stay below
    1e60: the convergent power series of the density, (1/(pi alpha)) sum_k
    (-1)^k Gamma((2k+1)/alpha) s^(2k)/(2k)!, integrated termwise.
    Otherwise: Bergstrom's series of the density, sum_k a_k s^(-alpha k -
    1) with a_k = (-1)^(k+1) Gamma(alpha k + 1) sin(pi alpha k/2)/(pi k!),
    integrated termwise beyond the cut, which gives the Mellin transform
    (1/pi) Gamma(1 - m/alpha) Gamma(m) sin(pi m/2) of the density
    (continued analytically past m = alpha; 1/2 at m = 0) plus sum_k a_k
    cut^(m - alpha k)/(m - alpha k); the series converges for alpha < 1
    and is asymptotic for alpha > 1, where it is summed while its terms
    shrink; a term whose sine is 0 (alpha k/2 an integer, to the rounding
    of alpha) does not end the sum.  Each series is summed past its
    largest term, at a working precision set from that term: the power
    series' is 1e455 at alpha = 1.2 and cut 5; at alpha = 0.4, q = 0.33 and
    cut 1e-3 Bergstrom's is 4e11, at k = 53, and the terms fall below 1e-30
    of the sum only from k = 199 (99 terms at 40 digits gave 2.2e7 for
    1.59e-3).  Returns an mpmath number, which need not fit a float."""
    log_c = math.log(cut)
    sizes = [math.lgamma((2 * k + 1) / alpha) - math.lgamma(2 * k + 1.0) + (2 * k + m + 1) * log_c
             for k in range(4000)]
    if alpha > 1 and cut < 8 and max(sizes) < 60 * math.log(10.0):
        peak = max(range(len(sizes)), key=sizes.__getitem__)
        with mp.workdps(_working_digits(sizes)):
            a, c = mp.mpf(alpha), mp.mpf(cut)
            half, k = mp.mpf(0), 0
            while True:
                term = ((-1) ** k * mp.gamma((2 * k + 1) / a) * c ** (2 * k + m + 1)
                        / (mp.factorial(2 * k) * (2 * k + m + 1)))
                half += term
                if k > peak and abs(term) < mp.mpf(10) ** -40 * abs(half):
                    return 2 * half / (mp.pi * a)
                k += 1
    # the terms of Bergstrom's series; for alpha > 1 the first is the largest summed
    sizes = [math.lgamma(alpha * k + 1.0) - math.lgamma(k + 1.0) + (m - alpha * k) * log_c
             - math.log(max(abs(m - alpha * k), 1e-300)) for k in range(1, 4000)]
    peak = max(range(len(sizes)), key=sizes.__getitem__) + 1 if alpha < 1 else 1
    assert peak < len(sizes), "Bergstrom's series does not turn within 4000 terms"
    with mp.workdps(_working_digits(sizes[:peak])):
        a, c = mp.mpf(alpha), mp.mpf(cut)
        half = mp.gamma(1 - m / a) * mp.gamma(m) * mp.sin(mp.pi * m / 2) / mp.pi if m else mp.mpf(0.5)
        last = mp.inf
        for k in range(1, 4000):
            sine = mp.sin(mp.pi * a * k / 2)
            term = ((-1) ** (k + 1) * mp.gamma(a * k + 1) * sine
                    / (mp.pi * mp.factorial(k)) * c ** (m - a * k) / (m - a * k))
            if abs(sine) < 1e-10:
                half += term
                continue
            if k > peak and (abs(term) < mp.mpf(10) ** -30 * abs(half)
                             or (alpha > 1 and abs(term) > last)):
                break
            half, last = half + term, abs(term)
        return 2 * half


def _tail_survival(alpha: float, cut: float):
    """P[|u| > cut] for the standardised symmetric stable law with alpha < 1
    in mpmath: Bergstrom's series of the density integrated beyond the cut,
    2 sum_k a_k cut^(-alpha k)/(alpha k), which converges."""
    with mp.workdps(40):
        a, c = mp.mpf(alpha), mp.mpf(cut)
        return 2 * mp.nsum(lambda k: (-1) ** (k + 1) * mp.gamma(a * k + 1) * mp.sin(mp.pi * a * k / 2)
                           / (mp.pi * mp.factorial(k)) * c ** (-a * k) / (a * k), [1, mp.inf])


class TestSequenceValues:
    def test_power_law(self):
        assert np.allclose(sequence_values(PowerLaw(2.0, 1.0), 4), [2, 1, 2 / 3, 0.5])

    def test_power_log_law_first_entry_finite(self):
        vals = sequence_values(PowerLogLaw(1.0, 1.0, 2.0), 3)
        assert np.all(np.isfinite(vals))
        assert vals[1] == pytest.approx(0.5 / np.log(2.0) ** 2)

    def test_explicit_with_zero_tail(self):
        assert np.allclose(sequence_values(Explicit((3.0, 2.0)), 4), [3, 2, 0, 0])

    def test_explicit_with_tail_rule(self):
        vals = sequence_values(Explicit((9.0,), tail=PowerLaw(1.0, 2.0)), 3)
        assert np.allclose(vals, [9.0, 0.25, 1.0 / 9.0])

    # floats with the ones whose texts differ although they compare equal
    # (0.0 and -0.0), compare unequal although their texts agree (nan), or
    # are extreme (infinities and subnormals)
    _FLOAT = (st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                               5e-324, -5e-324, 2.5e-310])
              | st.floats(allow_subnormal=True))
    # lengths 0 and 1, and long lists drawn from a few values, as a Haar
    # gallery's scales are
    _VALUES = (st.lists(_FLOAT, max_size=1)
               | st.lists(_FLOAT, min_size=1, max_size=4).flatmap(
                   lambda pool: st.lists(st.sampled_from(pool), max_size=300)))
    _TAIL = st.deferred(lambda: st.none() | st.builds(PowerLaw, TestSequenceValues._FLOAT,
                                                      TestSequenceValues._FLOAT)
                        | st.builds(Explicit, TestSequenceValues._VALUES, TestSequenceValues._TAIL))

    @settings(max_examples=300, deadline=None)
    @given(values=_VALUES, tail=_TAIL)
    @example(values=[0.0, -0.0, 1.5, -0.0, 0.0, 1.5], tail=None)
    @example(values=[math.nan, -math.nan, math.nan], tail=Explicit((0.25,) * 3, PowerLaw(1.0, 2.0)))
    def test_explicit_repr_is_the_dataclass_repr(self, values, tail):
        # `spec_hash` hashes this text, so it must not move by a byte
        assert repr(Explicit(values, tail)) == (
            "Explicit(values=" + repr(tuple(values)) + ", tail=" + repr(tail) + ")")


class TestSummabilityReport:
    def test_square_decay_satisfies(self):
        rep = summability_report(PowerLaw(1.0, 2.0), 1.0, 1.0)
        assert rep.verdict is SummabilityVerdict.SATISFIES
        assert rep.regime == "alpha=q"

    def test_log_family_fails_only_log_condition(self):
        rep = summability_report(PowerLogLaw(1.0, 1.0, 2.0), 1.0, 1.0)
        assert rep.verdict is SummabilityVerdict.FAILS_ORLICZ

    def test_harmonic_fails_ell_alpha(self):
        rep = summability_report(PowerLaw(1.0, 1.0), 1.0, 1.0)
        assert rep.verdict is SummabilityVerdict.FAILS_ELL_ALPHA

    def test_zero_sequence(self):
        rep = summability_report(PowerLaw(0.0, 0.0), 1.0, 1.0)
        assert rep.verdict is SummabilityVerdict.SATISFIES
        assert rep.alpha_partial_sums[-1] == 0.0
        assert rep.orlicz_partial_sums[-1] == 0.0

    def test_off_resonance_skips_log_condition(self):
        # alpha not in {q, 2q}: the log-weighted sum is not required
        rep = summability_report(PowerLogLaw(1.0, 1.0, 2.0), 1.0, 0.7)
        assert rep.regime == "neither"
        assert rep.verdict is SummabilityVerdict.SATISFIES

    def test_fitted_decay_matches_power(self):
        rep = summability_report(PowerLaw(1.0, 2.0), 1.0, 1.0)
        assert rep.fitted_decay_exponent == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("r", [0.5, 1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("s", [0.0, 1.0, 2.0])
    def test_numeric_never_contradicts_analytic(self, r, s):
        seq = PowerLaw(1.0, r) if s == 0.0 else PowerLogLaw(1.0, r, s)
        rep = summability_report(seq, 1.0, 1.0)
        inc = np.diff(rep.alpha_partial_sums)
        if rep.verdict is SummabilityVerdict.SATISFIES:
            # a convergent series must show shrinking increments
            assert inc[-1] < inc[0] or inc[-1] < 1e-6
        if rep.verdict is SummabilityVerdict.FAILS_ELL_ALPHA:
            assert inc[-1] > 1e-4


    @pytest.mark.parametrize("seq,alpha,q,expected", [
        # explicit data with a tail: the integral test on the closed tail
        (Explicit((3.0, 2.0), tail=PowerLaw(1.0, 2.0)), 1.0, 1.0, SummabilityVerdict.SATISFIES),
        (Explicit((3.0, 2.0), tail=PowerLaw(1.0, 1.0)), 1.0, 1.0, SummabilityVerdict.FAILS_ELL_ALPHA),
        (Explicit((3.0, 2.0), tail=PowerLaw(1.0, 0.5)), 1.0, 0.7, SummabilityVerdict.FAILS_ELL_ALPHA),
        (Explicit((3.0, 2.0), tail=PowerLogLaw(1.0, 1.0, 3.0)), 1.0, 1.0,
         SummabilityVerdict.SATISFIES),
        (Explicit((3.0, 2.0), tail=PowerLaw(0.0, 0.0)), 1.5, 0.75, SummabilityVerdict.SATISFIES),
        (Explicit((2.0,), tail=Explicit((1.0, 0.5), tail=PowerLaw(1.0, 2.0))), 1.0, 1.0,
         SummabilityVerdict.SATISFIES),
        # resonances alpha = q and alpha = 2q: the log-weighted integral test
        (PowerLogLaw(1.0, 1.0, 3.0), 1.0, 1.0, SummabilityVerdict.SATISFIES),
        (PowerLogLaw(1.0, 1.0, 2.0), 1.0, 0.5, SummabilityVerdict.FAILS_ORLICZ),
        (PowerLogLaw(1.0, 0.5, 1.0), 2.0, 1.0, SummabilityVerdict.FAILS_ORLICZ),
        (PowerLogLaw(1.0, 0.5, 2.0), 2.0, 1.0, SummabilityVerdict.SATISFIES),
        (PowerLaw(1.0, 0.5), 2.0, 1.0, SummabilityVerdict.FAILS_ELL_ALPHA),
        # zero amplitudes
        (PowerLogLaw(0.0, 0.5, -1.0), 1.5, 0.75, SummabilityVerdict.SATISFIES),
        (PowerLaw(0.0, 0.0), 0.5, 0.5, SummabilityVerdict.SATISFIES),
    ])
    def test_verdicts_on_a_grid(self, seq, alpha, q, expected):
        assert summability_report(seq, alpha, q).verdict is expected


class TestThreeSeries:
    @pytest.mark.parametrize("r,expected", [
        (0.5, SeriesVerdict.DIVERGENT),
        (1.0, SeriesVerdict.DIVERGENT),
        (1.5, SeriesVerdict.CONVERGENT),
        (2.0, SeriesVerdict.CONVERGENT),
        (3.0, SeriesVerdict.CONVERGENT),
    ])
    def test_power_law_cauchy_verdicts(self, r, expected):
        out = three_series_check(PowerLaw(1.0, r), 1.0, 1.0, 1.0)
        assert out.verdict is expected

    def test_zero_sequence_converges_off_the_cauchy_case(self):
        # no positive scale leaves no cut to tabulate the stable terms at
        out = three_series_check(PowerLaw(0.0, 0.0), 1.5, 1.0, 1.0, depth=1024)
        assert out.verdict is SeriesVerdict.CONVERGENT
        assert (out.s0, out.s1, out.s2) == (0.0, 0.0, 0.0)

    def test_cut_past_float_range_is_infinite(self):
        # threshold^(1/q) = 10^500: nothing exceeds the cut, and the truncated
        # moments are the full moments gamma^m E|u|^m, m = q, 2q (they were 0
        # once the cut overflowed to inf, and before that the moments up to 1)
        q = 0.002
        out = three_series_check(PowerLaw(1.0, 2.0), 1.5, q, 10.0, depth=1024)
        assert abs(out.s0) < 1e-300
        gam = sequence_values(PowerLaw(1.0, 2.0), 64)
        for m, name in ((q, "s1"), (2.0 * q, "s2")):
            with mp.workdps(30):
                a, p = mp.mpf(1.5), mp.mpf(m)
                moment = 2 / mp.pi * mp.gamma(1 - p / a) * mp.gamma(p) * mp.sin(mp.pi * p / 2)
                want = moment * mp.fsum(mp.mpf(g) ** p for g in gam)
            assert out.traces[name][0] == pytest.approx(float(want), rel=1e-8)

    @pytest.mark.parametrize("a_cut", [0.0, -1.0, math.inf, math.nan])
    def test_threshold_must_be_finite_and_positive(self, a_cut):
        # an infinite threshold gave nan terms from inf * 0
        with pytest.raises(OutOfRangeError):
            three_series_check(PowerLaw(1.0, 2.0), 1.5, 1.0, a_cut, depth=1024)

    def test_log_family_diverges_through_first_moment(self):
        out = three_series_check(PowerLogLaw(1.0, 1.0, 2.0), 1.0, 1.0, 1.0)
        assert out.verdict is SeriesVerdict.DIVERGENT
        assert out.failing_series == ("s1",)

    def test_zero_sequence(self):
        out = three_series_check(PowerLaw(0.0, 0.0), 1.0, 1.0, 1.0)
        assert (out.s0, out.s1, out.s2) == (0.0, 0.0, 0.0)
        assert out.verdict is SeriesVerdict.CONVERGENT

    def test_terms_reproduce_closed_forms(self):
        out = three_series_check(PowerLaw(1.0, 2.0), 1.0, 1.0, 1.0, depth=1024)
        gam = sequence_values(PowerLaw(1.0, 2.0), 1024)
        s0 = s1 = s2 = 0.0
        for g in gam:
            p, m1, m2 = truncated_cauchy_moments(g, 1.0)
            s0 += p
            s1 += m1
            s2 += m2
        assert out.s0 == pytest.approx(s0, abs=1e-12)
        assert out.s1 == pytest.approx(s1, abs=1e-12)
        assert out.s2 == pytest.approx(s2, abs=1e-12)

    def test_general_alpha_path(self):
        out = three_series_check(PowerLaw(1.0, 2.0), 1.5, 1.0, 1.0, depth=1024)
        assert out.verdict is SeriesVerdict.CONVERGENT
        assert out.s0 > 0 and out.s1 > 0 and out.s2 > 0

    def test_gaussian_terms_against_truncated_normal(self):
        # alpha = 2 is N(0, 2): P[|u| > c] = erfc(c/2),
        # E[|u|; |u| <= c] = (2/sqrt(pi))(1 - e^(-c^2/4)),
        # E[u^2; |u| <= c] = 2 erf(c/2) - (2c/sqrt(pi)) e^(-c^2/4)
        depth = 2 ** 14
        out = three_series_check(PowerLaw(1.0, 1.0), 2.0, 1.0, 1.0, depth=depth)
        n = np.arange(1, depth + 1, dtype=float)
        c = n  # cut = threshold / gamma_n
        m1 = (2.0 / math.sqrt(math.pi)) * (1.0 - np.exp(-c * c / 4.0))
        m2 = 2.0 * erf(c / 2.0) - (2.0 * c / math.sqrt(math.pi)) * np.exp(-c * c / 4.0)
        assert out.s0 == pytest.approx(erfc(c / 2.0).sum(), rel=1e-12)
        assert out.s1 == pytest.approx((m1 / n).sum(), rel=1e-5)
        assert out.s2 == pytest.approx((m2 / n ** 2).sum(), rel=1e-5)

    def test_stable_survival_against_series(self):
        # P[|u| > c] for the symmetric alpha = 1.5 law in mpmath: 1 - 2 int_0^c f
        # by its convergent power series below 8, by the asymptotic tail series above
        from stableinfer.stable import _symmetric_truncated_term_tables

        alpha = mp.mpf(3) / 2
        cuts = np.array([0.5, 2.0, 20.0, 1000.0])
        survival = _symmetric_truncated_term_tables(1.5, 1.0, np.log(cuts))[0]
        for cut, got in zip(cuts, survival):
            with mp.workdps(40):
                x = mp.mpf(cut)
                if cut < 8:
                    cdf = mp.nsum(lambda k: (-1) ** k * mp.gamma((2 * k + 1) / alpha) * x ** (2 * k + 1)
                                  / (mp.factorial(2 * k) * (2 * k + 1)), [0, mp.inf]) / (mp.pi * alpha)
                    want = 1 - 2 * cdf
                else:
                    # 2 sum_k a_k x^(-alpha k)/(alpha k), a_k = (-1)^(k+1) Gamma(alpha k + 1)
                    # sin(pi alpha k/2)/(pi k!), summed while the terms shrink
                    want, last = mp.mpf(0), mp.inf
                    for k in range(1, 60):
                        term = (2 * (-1) ** (k + 1) * mp.gamma(alpha * k + 1) * mp.sin(mp.pi * alpha * k / 2)
                                / (mp.pi * mp.factorial(k)) * x ** (-alpha * k) / (alpha * k))
                        size = mp.gamma(alpha * k + 1) / mp.factorial(k) * x ** (-alpha * k)
                        if size > last:
                            break
                        want, last = want + term, size
            assert got == pytest.approx(float(want), rel=1e-11)

    @pytest.mark.parametrize("alpha", [0.7, 1.5, 1.9])
    def test_truncated_moments_against_mpmath(self, alpha):
        # the tables were capped at cut 1e8 and good to a few parts in 1e6;
        # they hold the moments over cut^m
        from stableinfer.stable import _symmetric_truncated_term_tables

        cuts = np.array([1.0, 1e4, 1e8, 1e12])
        _, first, second = _symmetric_truncated_term_tables(alpha, 1.0, np.log(cuts))
        for m, got in ((1, first), (2, second)):
            want = [float(_truncated_moment(alpha, m, cut) / mp.mpf(cut) ** m) for cut in cuts]
            assert got == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("alpha", [1.5, 1.9])
    def test_truncated_moments_at_small_cuts_against_mpmath(self, alpha):
        # cuts below and near the panels' start, where rho is flat to 1e-10
        from stableinfer.stable import _symmetric_truncated_term_tables

        cuts = np.array([1e-6, 1e-4, 1e-2, 0.3])
        _, first, second = _symmetric_truncated_term_tables(alpha, 1.0, np.log(cuts))
        for m, got in ((1, first), (2, second)):
            want = [float(_truncated_moment(alpha, m, cut) / mp.mpf(cut) ** m) for cut in cuts]
            assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.7, 1.5, 1.9])
    def test_truncated_moments_past_the_crossover_against_mpmath(self, alpha):
        # past the crossover x* of Bergstrom's series the tables continue in
        # closed form; at 1e300 a moment ratio below the float range is 0
        from stableinfer.stable import _symmetric_truncated_term_tables

        cuts = np.array([1e100, 1e300])
        _, first, second = _symmetric_truncated_term_tables(alpha, 1.0, np.log(cuts))
        for m, got in ((1, first), (2, second)):
            want = [float(_truncated_moment(alpha, m, cut) / mp.mpf(cut) ** m) for cut in cuts]
            for g, w in zip(got, want):
                assert g == (pytest.approx(w, rel=1.7e-9) if w else 0.0)

    def test_small_alpha_tables_past_the_crossover_against_mpmath(self):
        # at alpha = 0.1 the crossover x* is 1.8e-4 and the panels start at
        # 2.9e-18; q = 0.33 keeps the oracle off the poles of Gamma(1 - m/alpha)
        from stableinfer.stable import _symmetric_truncated_term_tables

        cuts = np.array([1e100, 1e300])
        _, first, second = _symmetric_truncated_term_tables(0.1, 0.33, np.log(cuts))
        for m, got in ((0.33, first), (0.66, second)):
            want = [float(_truncated_moment(0.1, m, cut) / mp.mpf(cut) ** m) for cut in cuts]
            assert got == pytest.approx(want, rel=1.7e-9)

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2, 0.3])
    def test_small_alpha_tables_against_mpmath(self, alpha):
        # the panels start where rho is flat to 1e-10, 4.2e-37 at alpha = 0.05;
        # from 1e-3 the tables were off by 1.7e3 at alpha = 0.1 and cut 1
        from stableinfer.stable import _symmetric_truncated_term_tables

        cuts = np.array([1e-3, 1.0, 1e4, 1e12, 1e100, 1e300])
        _, first, second = _symmetric_truncated_term_tables(alpha, 0.33, np.log(cuts))
        for m, got in ((0.33, first), (0.66, second)):
            want = [float(_truncated_moment(alpha, m, cut) / mp.mpf(cut) ** m) for cut in cuts]
            assert got == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("alpha,q", [(0.1, 0.3), (0.2, 0.3), (0.1, 0.35), (0.1, 0.7)])
    def test_tables_where_a_tail_power_is_one_rounding_from_constant(self, alpha, q):
        # m - k alpha rounds to about 1e-17 for some k and m in (q, 2q), so
        # its term of the integral past x* is a_k log(c/x*); with 1/(m - k
        # alpha) inside a sum of terms it was lost to rounding, off by up to
        # 10x.  The oracle's pole of Gamma(1 - m/alpha) cancels that 1/(m -
        # k alpha), whose size sets its working precision
        from stableinfer.stable import _symmetric_truncated_term_tables

        cuts = np.array([1e-3, 1.0, 1e2, 1e4, 1e12, 1e100])
        _, first, second = _symmetric_truncated_term_tables(alpha, q, np.log(cuts))
        for m, got in ((q, first), (2.0 * q, second)):
            want = [float(_truncated_moment(alpha, m, cut) / mp.mpf(cut) ** m) for cut in cuts]
            assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("q", [0.5, 1.0])
    @pytest.mark.parametrize("alpha", [0.7, 1.2, 1.5, 1.9])
    def test_tables_within_1e13_of_mpmath(self, alpha, q):
        # cuts inside the panels and near the crossover x*; the Simpson grid
        # with Hermite interpolation between its nodes was off by 1e-11 to 1.5e-10
        from stableinfer.stable import _bergstrom, _symmetric_truncated_term_tables

        cuts = np.array([1.0, 2.0, 5.0, 0.99 * math.exp(_bergstrom(alpha, 0.0).log_crossover)])
        survival, first, second = _symmetric_truncated_term_tables(alpha, q, np.log(cuts))
        want = [float(1 - _truncated_moment(alpha, 0, cut)) for cut in cuts]
        assert survival == pytest.approx(want, rel=1e-13, abs=0.0)
        for m, got in ((q, first), (2.0 * q, second)):
            want = [float(_truncated_moment(alpha, m, cut) / mp.mpf(cut) ** m) for cut in cuts]
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.3, 1.5, 1.9])
    def test_a_cut_keeps_its_bits_whatever_cuts_share_the_call(self, alpha):
        # the panels run from the flat start to x* whatever the cuts; the
        # grid ended at the largest cut
        from stableinfer.stable import _symmetric_truncated_term_tables

        log_cuts = np.log([1e-30, 1e-3, 0.5, 1.0, 2.0, 5.0, 7.0, 1e3, 1e300])
        together = _symmetric_truncated_term_tables(alpha, 1.0, log_cuts)
        # at 1e-30 the survival function is 1, not an ulp above
        assert all(((t >= 0.0) & (t <= 1.0)).all() for t in together)
        for j, log_cut in enumerate(log_cuts):
            for others, at in ((log_cuts[j:j + 1], 0), (log_cuts[:j + 1], j),
                               (np.append(log_cut, log_cuts[::-1]), 0)):
                got = _symmetric_truncated_term_tables(alpha, 1.0, others)
                assert [t[at] for t in got] == [t[j] for t in together]

    def test_a_panel_that_is_not_a_polynomial_raises(self, monkeypatch):
        from stableinfer import QuadratureFailureError, stable

        monkeypatch.setattr(stable, "_PANEL_TOL", 1e-20)
        monkeypatch.setattr(stable, "_PANEL_HALVINGS", 1)
        with pytest.raises(QuadratureFailureError, match="Legendre"):
            stable._symmetric_truncated_term_tables(1.5, 1.0, np.log([1.0, 2.0]))

    def test_survival_past_the_float_range_against_mpmath(self):
        from stableinfer.stable import _symmetric_truncated_term_tables

        log_cuts = np.array([100.0, 300.0, 400.0]) * math.log(10.0)
        survival = _symmetric_truncated_term_tables(0.7, 1.0, log_cuts)[0]
        with mp.workdps(40):
            want = [float(_tail_survival(0.7, mp.mpf(10) ** e)) for e in (100, 300, 400)]
        assert survival == pytest.approx(want, rel=1e-12)

    def test_tiny_scale_table_stops_at_the_crossover(self, monkeypatch):
        # gamma_n = 1e-300/n puts every cut past 1e300; the density panels stop
        # at the crossover x* of Bergstrom's series, not at the largest cut
        # (which took about 82,000 points on a uniform grid)
        from stableinfer import stable

        points = []

        def counted(alpha, beta, z):
            points.append(np.size(z))
            return pdf(alpha, beta, z)

        pdf = stable._standard_pdf
        monkeypatch.setattr(stable, "_standard_pdf", counted)
        seq = PowerLaw(1e-300, 1.0)
        out = three_series_check(seq, 1.9, 0.5, 1.0, depth=1024)
        assert sum(points) <= 4097
        gam = sequence_values(seq, 64)
        for m, name in ((0.5, "s1"), (1.0, "s2")):
            want = mp.fsum(mp.mpf(g) ** m * _truncated_moment(1.9, m, 1.0 / g) for g in gam)
            assert out.traces[name][0] == pytest.approx(float(want), rel=1e-8, abs=0.0)

    def test_tiny_scales_keep_moment_terms(self):
        # gamma_n = 1e-200/n, alpha = 0.7, q = 1: gamma^2 underflows and the
        # density at the cuts 1e200 n leaves the float range; s2 was 0 and s1
        # a thousand times too small, against terms of about gamma^alpha
        seq = PowerLaw(1e-200, 1.0)
        out = three_series_check(seq, 0.7, 1.0, 1.0, depth=1024)
        gam = sequence_values(seq, 64)
        for m, name in ((1, "s1"), (2, "s2")):
            want = mp.fsum(mp.mpf(g) ** m * _truncated_moment(0.7, m, 1.0 / g) for g in gam)
            assert out.traces[name][0] == pytest.approx(float(want), rel=1e-8, abs=0.0)

    def test_large_moment_orders_stay_finite(self):
        # gamma_n = 1e-100/n, alpha = 0.7, q = 2: the fourth moments at the
        # cuts 1e100 n pass the float range, and s2 was nan with overflow warnings
        seq = PowerLaw(1e-100, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = three_series_check(seq, 0.7, 2.0, 1.0, depth=1024)
        assert all(math.isfinite(s) and s > 0.0 for s in (out.s0, out.s1, out.s2))
        gam = sequence_values(seq, 64)
        want = {
            "s0": mp.fsum(_tail_survival(0.7, 1.0 / g) for g in gam),
            "s1": mp.fsum(mp.mpf(g) ** 2 * _truncated_moment(0.7, 2, 1.0 / g) for g in gam),
            "s2": mp.fsum(mp.mpf(g) ** 4 * _truncated_moment(0.7, 4, 1.0 / g) for g in gam),
        }
        for name, value in want.items():
            assert out.traces[name][0] == pytest.approx(float(value), rel=1e-8, abs=0.0)

    @settings(max_examples=3, deadline=None)
    @given(st.sampled_from([0.7, 1.0, 1.5, 1.9]), st.floats(0.25, 2.0),
           st.floats(-300.0, 0.0), st.floats(0.01, 100.0))
    @example(0.7, 2.0, -300.0, 1.0)
    @example(1.9, 0.25, -300.0, 0.01)
    def test_tiny_scales_give_bounded_tables(self, alpha, q, log_scale, a_cut):
        # the terms are P[|u| > cut], A G_q(cut) and A^2 G_2q(cut), so with
        # every tabulated value in [0, 1] each term is finite and >= 0
        from stableinfer.stable import _symmetric_truncated_term_tables

        log_cuts = math.log(a_cut) / q - log_scale * math.log(10.0) + np.log(np.arange(1.0, 1001.0))
        for table in _symmetric_truncated_term_tables(alpha, q, log_cuts):
            assert np.all((table >= 0.0) & (table <= 1.0))

    def test_explicit_finite_data_converges(self):
        out = three_series_check(Explicit((1.0, 0.5, 0.25)), 1.0, 1.0, 1.0)
        assert out.verdict is SeriesVerdict.CONVERGENT

    @pytest.mark.parametrize("seq,alpha,q,expected,failing", [
        # a nested explicit tail: the integral test on the closed tail
        (Explicit((2.0,), tail=Explicit((1.0, 0.5), tail=PowerLaw(1.0, 2.0))), 1.0, 1.0,
         SeriesVerdict.CONVERGENT, ()),
        (Explicit((2.0,), tail=Explicit((1.0, 0.5), tail=PowerLaw(1.0, 1.0))), 1.0, 1.0,
         SeriesVerdict.DIVERGENT, ("s0", "s1", "s2")),
        (Explicit((2.0,), tail=Explicit((1.0, 0.5))), 1.0, 1.0, SeriesVerdict.CONVERGENT, ()),
        # a closed-form tail and the resonances m q = alpha
        (Explicit((3.0, 2.0), tail=PowerLogLaw(1.0, 1.0, 2.0)), 1.0, 1.0,
         SeriesVerdict.DIVERGENT, ("s1",)),
        (PowerLogLaw(1.0, 1.0, 3.0), 1.0, 1.0, SeriesVerdict.CONVERGENT, ()),
        (PowerLogLaw(1.0, 1.0, 2.0), 1.0, 0.5, SeriesVerdict.DIVERGENT, ("s1", "s2")),
        (PowerLogLaw(1.0, 2.0, 1.0), 1.0, 0.5, SeriesVerdict.DIVERGENT, ("s1",)),
        (PowerLogLaw(1.0, 2.0 / 3.0, 2.0), 1.5, 0.75, SeriesVerdict.DIVERGENT, ("s1",)),
        # zero amplitudes
        (PowerLaw(0.0, 1.0), 1.5, 0.75, SeriesVerdict.CONVERGENT, ()),
        (PowerLogLaw(0.0, 0.5, -1.0), 1.0, 1.0, SeriesVerdict.CONVERGENT, ()),
    ])
    def test_verdicts_on_a_grid(self, seq, alpha, q, expected, failing):
        out = three_series_check(seq, alpha, q, 1.0, depth=1024)
        assert (out.verdict, out.failing_series) == (expected, failing)


class TestHilbertScale:
    def test_harmonic_ratio_not_member(self):
        rep = hilbert_scale_membership(PowerLaw(1.0, 2.0), PowerLaw(0.0, 0.0),
                                       PowerLaw(1.0, 1.0), 1.0, 1.0)
        assert rep.gamma_condition is Membership.NOT_MEMBER

    def test_cubic_decay_member(self):
        rep = hilbert_scale_membership(PowerLaw(1.0, 3.0), PowerLaw(0.0, 0.0),
                                       PowerLaw(1.0, 1.0), 1.0, 1.0)
        assert rep.gamma_condition is Membership.MEMBER
        assert rep.member

    def test_zero_shift_sequence_member(self):
        rep = hilbert_scale_membership(PowerLaw(1.0, 3.0), PowerLaw(0.0, 0.0),
                                       PowerLaw(1.0, 1.0), 1.0, 1.0)
        assert rep.delta_condition is Membership.MEMBER

    def test_increasing_eigenvalues_rejected(self):
        with pytest.raises(Exception):
            hilbert_scale_membership(PowerLaw(1, 2), PowerLaw(0, 0),
                                     PowerLaw(1.0, -1.0), 1.0, 1.0)

    @pytest.mark.parametrize("lam", [
        # the first 16 values fall, the tail from index 17 grows like n
        Explicit(tuple(1.0 / n for n in range(1, 17)), tail=PowerLaw(1.0, -1.0)),
        # zero past the 17th value
        Explicit(tuple(1.0 / n for n in range(1, 18))),
        # the tail falls to zero only after rising to its peak at n = e^20
        PowerLogLaw(1.0, 1.0, -20.0),
        # constant: never falls to zero
        Explicit((2.0,), tail=PowerLaw(1.0, 0.0)),
        # a rise in the middle of a nested explicit tail
        Explicit((1.0, 0.5), tail=Explicit((9.0, 9.0, 0.4, 0.45), tail=PowerLaw(1.0, 1.0))),
    ], ids=["growing_tail", "finite_list", "late_peak", "constant", "nested_rise"])
    def test_eigenvalues_are_checked_past_the_head(self, lam):
        with pytest.raises(OutOfRangeError):
            hilbert_scale_membership(PowerLaw(1.0, 2.0), PowerLaw(0.0, 0.0), lam, 1.0, 1.0)

    @pytest.mark.parametrize("lam", [
        Explicit(tuple(1.0 / n for n in range(1, 17)), tail=PowerLaw(1.0, 1.0)),
        PowerLogLaw(1.0, 1.0, -0.5),  # falls from n = 2 on: log 2 > 0.5
        PowerLogLaw(1.0, 0.0, 1.0),  # 1 / log n, slowly to zero
        Explicit((3.0, 2.0), tail=PowerLaw(1.0, 0.5)),
    ], ids=["head_then_tail", "log_rise_before_two", "inverse_log", "short_head"])
    def test_falling_eigenvalues_are_accepted(self, lam):
        rep = hilbert_scale_membership(PowerLaw(1.0, 3.0), PowerLaw(0.0, 0.0), lam, 1.0, 1.0)
        assert isinstance(rep.gamma_condition, Membership)

    def test_resonant_ratio_one_ulp_off(self):
        # gamma_n / lambda_n = n^-0.5000000000000001, whose alpha = 2 power is n^-1
        rep = hilbert_scale_membership(PowerLaw(1.0, 1.1), PowerLaw(0.0, 0.0),
                                       PowerLaw(1.0, 0.6), 1.0, 2.0)
        assert rep.gamma_condition is Membership.NOT_MEMBER


class TestCameronMartinShift:
    def test_equal_sequences_not_member(self):
        assert cameron_martin_shift_admissible(
            PowerLaw(1.0, 2.0), PowerLaw(1.0, 2.0)
        ) is Membership.NOT_MEMBER

    def test_one_extra_power_member(self):
        assert cameron_martin_shift_admissible(
            PowerLaw(1.0, 3.0), PowerLaw(1.0, 2.0)
        ) is Membership.MEMBER

    def test_zero_shift_member(self):
        assert cameron_martin_shift_admissible(
            PowerLaw(0.0, 0.0), PowerLaw(1.0, 2.0)
        ) is Membership.MEMBER

    def test_log_laws_settled_exactly(self):
        # (h/gamma)^2 = n^-2 log^8 n is summable, though its partial sums
        # are still climbing at depth 2^14
        assert cameron_martin_shift_admissible(
            PowerLogLaw(1.0, 3.0, -1.0), PowerLogLaw(1.0, 2.0, 3.0)
        ) is Membership.MEMBER

    @pytest.mark.parametrize("h,gamma,expected", [
        # (h/gamma)^2 = n^-1 with 1.1 - 0.6 = 0.5000000000000001: not in ell^2
        (PowerLaw(1.0, 1.1), PowerLaw(1.0, 0.6), Membership.NOT_MEMBER),
        # (h/gamma)^2 = n^-1 log^-2 n with 0.7 - 0.2 = 0.49999999999999994: in ell^2
        (PowerLogLaw(1.0, 0.7, 1.0), PowerLaw(1.0, 0.2), Membership.MEMBER),
    ])
    def test_resonance_one_ulp_off(self, h, gamma, expected):
        assert cameron_martin_shift_admissible(h, gamma) is expected

    def test_shift_against_vanishing_scale(self):
        with pytest.raises(DivisionByZeroScaleError):
            cameron_martin_shift_admissible(Explicit((1.0, 1.0)), Explicit((1.0, 0.0)))


def _closed_forms(amplitudes):
    exponents = st.sampled_from([0.0, 0.25, 0.5, 2.0 / 3.0, 0.75, 1.0, 1.5, 2.0, 3.0])
    log_exponents = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0])
    return st.one_of(st.builds(PowerLaw, amplitudes, exponents),
                     st.builds(PowerLogLaw, amplitudes, exponents, log_exponents))


def _wrapped(data, tail, head_values):
    # the tail behind 0-2 levels of explicit heads, each of 0-5 values
    for head in data.draw(st.lists(st.lists(head_values, max_size=5), max_size=2)):
        tail = Explicit(tuple(head), tail)
    return tail


@settings(max_examples=150, deadline=None)
@given(data=st.data(), h=_closed_forms(st.sampled_from([0.0, 0.5, 1.0, 3.0])),
       gamma=_closed_forms(st.sampled_from([0.5, 1.0, 3.0])),
       alpha=st.sampled_from([0.5, 1.0, 1.5, 2.0]), q=st.sampled_from([0.5, 0.75, 1.0]))
def test_a_finite_head_never_changes_a_verdict(data, h, gamma, alpha, q):
    wrapped_h = _wrapped(data, h, st.sampled_from([0.0, 0.5, 2.0, 7.0]))
    wrapped_gamma = _wrapped(data, gamma, st.sampled_from([0.5, 2.0, 7.0]))  # no zero scale
    for bare, seq in ((h, wrapped_h), (gamma, wrapped_gamma)):
        assert (summability_report(seq, alpha, q).verdict
                is summability_report(bare, alpha, q).verdict)
        assert (three_series_check(seq, 1.0, 1.0, 1.0).verdict
                is three_series_check(bare, 1.0, 1.0, 1.0).verdict)
    assert (cameron_martin_shift_admissible(wrapped_h, wrapped_gamma)
            is cameron_martin_shift_admissible(h, gamma))
