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


def _truncated_moment(alpha: float, m: int, cut: float):
    """E[|u|^m; |u| <= cut] for the standardised symmetric stable law in
    mpmath.  For alpha > 1 and cut < 8: the convergent power series of the
    density, (1/(pi alpha)) sum_k (-1)^k Gamma((2k+1)/alpha) s^(2k)/(2k)!,
    integrated termwise.  Otherwise: Bergstrom's series of the density,
    sum_k a_k s^(-alpha k - 1) with a_k = (-1)^(k+1) Gamma(alpha k + 1)
    sin(pi alpha k/2)/(pi k!), integrated termwise beyond the cut, which
    gives the Mellin transform (1/pi) Gamma(1 - m/alpha) Gamma(m) sin(pi m/2)
    of the density (continued analytically past m = alpha) plus
    sum_k a_k cut^(m - alpha k)/(m - alpha k); the series converges for
    alpha < 1 and is asymptotic for alpha > 1, where it is summed while
    its terms shrink.  Returns an mpmath number, which need not fit a float."""
    with mp.workdps(40):
        a, c = mp.mpf(alpha), mp.mpf(cut)
        if alpha > 1 and cut < 8:
            half = mp.nsum(lambda k: (-1) ** k * mp.gamma((2 * k + 1) / a) * c ** (2 * k + m + 1)
                           / (mp.factorial(2 * k) * (2 * k + m + 1)), [0, mp.inf]) / (mp.pi * a)
            return 2 * half
        half = mp.gamma(1 - m / a) * mp.gamma(m) * mp.sin(mp.pi * m / 2) / mp.pi
        last = mp.inf
        for k in range(1, 100):
            term = ((-1) ** (k + 1) * mp.gamma(a * k + 1) * mp.sin(mp.pi * a * k / 2)
                    / (mp.pi * mp.factorial(k)) * c ** (m - a * k) / (m - a * k))
            if abs(term) < mp.mpf(10) ** -30 * abs(half) or (alpha > 1 and abs(term) > last):
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
        from stableinfer.sequences import _symmetric_truncated_term_tables

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
        from stableinfer.sequences import _symmetric_truncated_term_tables

        cuts = np.array([1.0, 1e4, 1e8, 1e12])
        _, first, second = _symmetric_truncated_term_tables(alpha, 1.0, np.log(cuts))
        for m, got in ((1, first), (2, second)):
            want = [float(_truncated_moment(alpha, m, cut) / mp.mpf(cut) ** m) for cut in cuts]
            assert got == pytest.approx(want, rel=1e-8)

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
        from stableinfer.sequences import _symmetric_truncated_term_tables

        log_cuts = math.log(a_cut) / q - log_scale * math.log(10.0) + np.log(np.arange(1.0, 1001.0))
        for table in _symmetric_truncated_term_tables(alpha, q, log_cuts):
            assert np.all((table >= 0.0) & (table <= 1.0))

    def test_explicit_finite_data_converges(self):
        out = three_series_check(Explicit((1.0, 0.5, 0.25)), 1.0, 1.0, 1.0)
        assert out.verdict is SeriesVerdict.CONVERGENT


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

    def test_shift_against_vanishing_scale(self):
        with pytest.raises(DivisionByZeroScaleError):
            cameron_martin_shift_admissible(Explicit((1.0, 1.0)), Explicit((1.0, 0.0)))
