"""Acceptance suite.

Twelve numbered criteria covering the whole stack at their contractual
tolerances, one test per criterion, each printing a pass line (run with
``pytest -s tests/test_acceptance.py`` to see them).  A failing assert
is the fail line for its criterion.
"""

import json
import math
from functools import partial

import numpy as np
import pytest
from scipy import integrate

import stableinfer as si
from stableinfer.cli import run as cli_run, validate_config
from stableinfer.gof import (
    ks_critical_value,
    ks_statistic,
    ks_two_sample_critical_value,
    ks_two_sample_statistic,
)
from stableinfer.metrics import rowwise_quasi_norm

N_KS = 10 ** 5
N_MC = 10 ** 6


def _pass(number: int, label: str) -> None:
    print(f"[criterion {number:02d}] {label}: PASS")


def scalar_prior_ensemble(kind: str, n: int, seed: int):
    if kind == "cauchy":
        spec = si.StableFieldSpec.make(1.0, si.Explicit((1.0,)),
                                       si.EuclideanSequence(q=1.0), 1)
    else:
        spec = si.StableFieldSpec.make(2.0, si.Explicit((1.0 / math.sqrt(2.0),)),
                                       si.EuclideanSequence(q=2.0), 1)
    return si.sample_coefficients(spec, n, seed)


def test_criterion_01_kl_asymmetry():
    normal = partial(si.normal_logpdf, 0, 1)
    cauchy = partial(si.cauchy_logpdf, 0, 1)
    forward = si.kl_divergence_1d(normal, cauchy, (-8, 8))
    assert forward.is_finite
    # mpmath quadrature at 40 digits
    assert forward.value == pytest.approx(0.2592445324888622636, rel=1e-9)
    reverse = si.kl_divergence_1d(cauchy, normal, (-8, 8))
    assert reverse.is_infinite
    _pass(1, "KL asymmetry 0.2592 / infinite")


def test_criterion_02_truncated_cauchy_moments():
    for gamma in (0.1, 0.3, 1.0, 3.0):
        for cut in (0.5, 1.0, 2.0, 8.0):
            p, m1, m2 = si.truncated_cauchy_moments(gamma, cut)
            tail, _ = integrate.quad(lambda u: si.cauchy_pdf(0, gamma, u),
                                     cut, np.inf, epsabs=1e-13)
            om1, _ = integrate.quad(lambda u: abs(u) * si.cauchy_pdf(0, gamma, u),
                                    -cut, cut, points=[0.0], epsabs=1e-13, limit=200)
            om2, _ = integrate.quad(lambda u: u * u * si.cauchy_pdf(0, gamma, u),
                                    -cut, cut, points=[0.0], epsabs=1e-13, limit=200)
            assert abs(p - 2.0 * tail) <= 1e-10
            assert abs(m1 - om1) <= 1e-10
            assert abs(m2 - om2) <= 1e-10
    p, m1, m2 = si.truncated_cauchy_moments(1.0, 1.0)
    assert p == pytest.approx(0.5, abs=1e-14)
    assert m1 == pytest.approx(math.log(2.0) / math.pi, abs=1e-14)
    # analytically (2/pi) gamma (A - gamma arctan(A/gamma)) = 2/pi - 1/2;
    # the truncated second moment cannot exceed A^2 P[|u| < A] = 1/2
    assert m2 == pytest.approx(2.0 / math.pi - 0.5, abs=1e-14)
    _pass(2, "truncated Cauchy moments vs quadrature at 1e-10")


def test_criterion_03_three_cauchy_constructions():
    cdf = lambda u: si.cauchy_cdf(0.0, 1.0, u)
    crit = ks_critical_value(N_KS, 0.01)
    samples = {
        "direct": si.sample_stable(si.StableParams.cauchy(0, 1), N_KS, 3101),
        "ratio": si.sample_cauchy_via_ratio(1.0, 0.0, N_KS, 3102),
        "circle": si.sample_cauchy_via_circle(1.0, N_KS, 3103),
    }
    for name, draws in samples.items():
        assert ks_statistic(draws, cdf) < crit, name
    two_crit = ks_two_sample_critical_value(N_KS, N_KS, 0.01)
    names = list(samples)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            d = ks_two_sample_statistic(samples[names[i]], samples[names[j]])
            assert d < two_crit, (names[i], names[j])
    _pass(3, "Cauchy constructions pass KS at 1%")


@pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (1.5, 0.3), (1.5, -0.3), (0.8, 0.0)])
def test_criterion_04_convolution_closure(alpha, beta):
    p1 = si.validate_params(alpha, beta, 1.0, 0.3)
    p2 = si.validate_params(alpha, beta, 2.0, -0.7)
    summed = si.sample_stable(p1, N_KS, 4100) + si.sample_stable(p2, N_KS, 4200)
    direct = si.sample_stable(si.convolve(p1, p2), N_KS, 4300)
    d = ks_two_sample_statistic(summed, direct)
    assert d < ks_two_sample_critical_value(N_KS, N_KS, 0.01)
    _pass(4, f"convolution closure alpha={alpha} beta={beta}")


def test_criterion_05_three_series_verdicts():
    for r in (1.5, 2.0, 3.0):
        out = si.three_series_check(si.PowerLaw(1.0, r), 1.0, 1.0, 1.0)
        assert out.verdict is si.SeriesVerdict.CONVERGENT, r
    for r in (0.5, 1.0):
        out = si.three_series_check(si.PowerLaw(1.0, r), 1.0, 1.0, 1.0)
        assert out.verdict is si.SeriesVerdict.DIVERGENT, r
    sharp = si.three_series_check(si.PowerLogLaw(1.0, 1.0, 2.0), 1.0, 1.0, 1.0)
    assert sharp.verdict is si.SeriesVerdict.DIVERGENT
    assert sharp.failing_series == ("s1",)
    _pass(5, "three-series verdicts incl. log-family sharpness")


def test_criterion_06_flom_truncation_stability():
    spec = si.StableFieldSpec.make(1.0, si.PowerLaw(1.0, 2.0),
                                   si.EuclideanSequence(q=1.0), 256)
    out = si.flom_estimate(spec, N_KS, 6001, 0.5, 1.0)
    (n1, e1), (n2, e2), (n3, e3) = out.truncation_trace
    assert (n1, n2, n3) == (64, 128, 256)
    assert abs(e3 - e2) < abs(e2 - e1)
    _pass(6, "field-norm moment trace contracts in truncation")


def test_criterion_07_wavelet_gallery(tmp_path):
    cfg = validate_config(json.dumps({
        "experiment": "figure2",
        "seed": 20260808,
        "params": {"levels": 10, "n_samples": 20, "grid_size": 2 ** 14},
    }))
    cli_run(cfg, tmp_path / "a")
    cli_run(cfg, tmp_path / "b")
    for name in ("cauchy_fields.csv", "gaussian_fields.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    summary = json.loads((tmp_path / "a" / "gallery_summary.json").read_text())
    ratio = summary["extreme_coefficient_ratio_cauchy_over_gaussian"]
    assert ratio > 1.0
    for name in ("cauchy_fields.csv", "gaussian_fields.csv"):
        rows = (tmp_path / "a" / name).read_text().splitlines()
        values = np.array([[float(x) for x in row.split(",")] for row in rows[2:]])
        assert values.min() == 0.0 and values.max() == 1.0
    _pass(7, f"wavelet gallery deterministic, tail contrast {ratio:.1f}x")


def test_criterion_08_conjugate_bayes_oracle():
    y = 1.0
    ens = scalar_prior_ensemble("gaussian", N_MC, 8001)
    potential = si.gaussian_additive_potential(u_norm=si.QuasiNormSpec(q=2.0))
    post = si.posterior(potential, ens, np.array([y]))
    exact_z = math.exp(-y * y / 4.0) / math.sqrt(2.0)
    assert abs(post.z.z / exact_z - 1.0) < 0.01
    mean, se = si.posterior_expectation(ens.coefficients[:, 0], post)
    assert abs(mean - y / 2.0) < 3.0 * se
    _pass(8, "conjugate Gaussian Z within 1%, mean within 3 se")


def test_criterion_09_data_perturbation_lipschitz():
    eps = [0.2, 0.1, 0.05, 0.025]
    potential = si.gaussian_additive_potential(u_norm=si.QuasiNormSpec(q=1.0))
    cauchy_ens = scalar_prior_ensemble("cauchy", N_MC, 9001)
    report = si.data_lipschitz_sweep(potential, cauchy_ens, np.array([0.0]),
                                     eps, np.array([1.0]))
    assert 0.9 <= report.slope <= 1.1
    gauss_ens = scalar_prior_ensemble("gaussian", N_MC, 9002)
    conj = si.data_lipschitz_sweep(potential, gauss_ens, np.array([0.0]),
                                   eps, np.array([1.0]))
    sd = 1.0 / math.sqrt(2.0)
    for e, d, se in zip(eps, conj.distances, conj.distance_stderrs):
        osq, _ = integrate.quad(
            lambda x: (math.sqrt(si.normal_pdf(0.0, sd, x))
                       - math.sqrt(si.normal_pdf(e / 2.0, sd, x))) ** 2,
            -20, 20,
        )
        assert abs(d - math.sqrt(osq)) < 3.0 * se, e
    test_criterion_09_data_perturbation_lipschitz.reports = (report, conj)
    _pass(9, f"data-perturbation slope {report.slope:.3f} in [0.9, 1.1]")


def test_criterion_10_likelihood_perturbation_rate():
    potential = si.gaussian_additive_potential(u_norm=si.QuasiNormSpec(q=1.0))
    ens = scalar_prior_ensemble("cauchy", N_MC, 10001)

    def family(n_approx):
        def approx(u, y):
            t = rowwise_quasi_norm(u, potential.u_norm)
            return potential.misfit(u, y) + np.sin(t) / n_approx
        return approx

    report = si.likelihood_perturbation_sweep(
        potential, family, lambda n: 1.0 / n, ens, np.array([0.0]), [4, 8, 16, 32])
    assert 0.9 <= report.slope <= 1.1

    def shifted(n_approx):
        return lambda u, y: potential.misfit(u, y) + 1.0 / n_approx

    const = si.likelihood_perturbation_sweep(
        potential, shifted, lambda n: 1.0 / n, ens, np.array([0.0]), [4, 8, 16, 32])
    # the constant cancels exactly in the normalisation; the distances can
    # only carry the rounding of (phi + c) inside the family callable
    assert np.all(const.distances <= 1e-14)
    test_criterion_10_likelihood_perturbation_rate.reports = (report,)
    _pass(10, f"likelihood-perturbation slope {report.slope:.3f}, constant shift cancels")


def test_criterion_11_metric_inequalities():
    # regenerate the criterion 9/10 posterior pairs and check the metric
    # orderings and the expectation-gap bound on indicator probes
    potential = si.gaussian_additive_potential(u_norm=si.QuasiNormSpec(q=1.0))
    ens = scalar_prior_ensemble("cauchy", N_MC, 9001)
    u = ens.coefficients[:, 0]
    base = si.posterior(potential, ens, np.array([0.0]))
    pairs = []
    for e in (0.2, 0.1, 0.05, 0.025):
        pairs.append(si.posterior(potential, ens, np.array([e])))
    for n_approx in (4, 8, 16, 32):
        pert = si.PotentialSpec(
            misfit=lambda uu, yy, n=n_approx: potential.misfit(uu, yy)
            + np.sin(rowwise_quasi_norm(uu, potential.u_norm)) / n,
            u_norm=potential.u_norm,
        )
        pairs.append(si.posterior(pert, ens, np.array([0.0])))
    indicator = (u > 0).astype(float)
    for post in pairs:
        dh, _, tv = si.distances(base.measure, post.measure)
        assert tv <= dh <= math.sqrt(2.0) + 1e-12
        gap = si.expectation_gap_bound_check(indicator, base.measure, post.measure)
        assert gap.holds
    _pass(11, "TV <= Hellinger <= sqrt(2) and gap bound on all pairs")


def test_criterion_12_growth_admissibility_table():
    table = [
        ((0.5, 1.0, 1.0, 0.5, 1.0), True),    # 2k - sc = 0 <= p
        ((1.0, 0.0, 0.0, 0.5, 1.0), False),   # 2k - sc = 2 > p
        ((0.75, 1.0, 1.0, 0.5, 1.0), True),   # boundary: exponent = p exactly
    ]
    for args, expected in table:
        out = si.growth_admissibility(*args)
        assert out.admissible is expected, args
    boundary = si.growth_admissibility(0.75, 1.0, 1.0, 0.5, 1.0)
    assert boundary.margin == pytest.approx(0.0, abs=1e-15)

    ens = scalar_prior_ensemble("cauchy", N_MC, 12001)
    p_order = 0.5
    for kappa, c_minus, sigma_minus, _, _ in (table[0][0], table[1][0]):
        m1, m2 = si.log_growth_envelopes(kappa, 1.0, c_minus, sigma_minus)
        pot = si.PotentialSpec(misfit=lambda u, y: np.zeros(u.shape[0]),
                               u_norm=si.QuasiNormSpec(q=1.0), m1=m1, m2=m2)
        rep = si.integrability_estimates(pot, ens, r=1.0)
        exponent = 2.0 * kappa - sigma_minus * c_minus
        assert rep.s12.unstable is (exponent > p_order), (kappa, c_minus)
    _pass(12, "growth admissibility truth table and instability flags")
