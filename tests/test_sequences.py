"""Coefficient sequences: summability reports, the three-series test,
scale-space membership, and shift admissibility."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import erf, erfc

from stableinfer import (
    DivisionByZeroScaleError,
    Explicit,
    Membership,
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
        # moments are the moments on the tabulated range
        with pytest.warns(RuntimeWarning, match="overflow"):
            out = three_series_check(PowerLaw(1.0, 2.0), 1.5, 0.002, 10.0, depth=1024)
        assert abs(out.s0) < 1e-300
        assert np.isfinite(out.s1) and np.isfinite(out.s2)

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
        survival = _symmetric_truncated_term_tables(1.5, 1.0, cuts)(cuts)[0]
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
