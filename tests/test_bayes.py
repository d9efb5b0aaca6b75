"""Posteriors over prior ensembles: normalisation, expectations,
integrability of growth envelopes, perturbation sweeps, admissibility."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import integrate

from stableinfer import (
    DegenerateWeightsError,
    DimensionMismatchError,
    EuclideanSequence,
    Explicit,
    IdentityForward,
    InvalidMomentOrderError,
    LinearForward,
    PotentialSpec,
    QuasiNormSpec,
    StableFieldSpec,
    cauchy_pdf,
    data_lipschitz_sweep,
    evaluate_misfit_batch,
    gaussian_additive_potential,
    growth_admissibility,
    hellinger_with_error,
    integrability_estimates,
    likelihood_perturbation_sweep,
    log_growth_envelopes,
    normal_pdf,
    normalization_constant,
    posterior,
    posterior_expectation,
    sample_coefficients,
    spot_check_envelopes,
    total_variation_empirical,
    z_lipschitz_check,
)
from stableinfer import bayes
from stableinfer.metrics import rowwise_quasi_norm


def fixed_misfit(values) -> PotentialSpec:
    """A potential whose misfit is the given values, whatever u and y are."""
    values = np.asarray(values, dtype=float)
    return PotentialSpec(misfit=lambda u, y: values)


def scalar_prior(kind: str, n: int, seed: int):
    if kind == "cauchy":
        spec = StableFieldSpec.make(1.0, Explicit((1.0,)), EuclideanSequence(q=1.0), 1)
    else:
        spec = StableFieldSpec.make(2.0, Explicit((1.0 / math.sqrt(2.0),)),
                                    EuclideanSequence(q=2.0), 1)
    return sample_coefficients(spec, n, seed)


@pytest.fixture(scope="module")
def gaussian_ensemble():
    return scalar_prior("gaussian", 2 * 10 ** 5, 1717)


@pytest.fixture(scope="module")
def cauchy_ensemble():
    return scalar_prior("cauchy", 2 * 10 ** 5, 2718)


@pytest.fixture(scope="module")
def potential():
    return gaussian_additive_potential(IdentityForward(), 1.0,
                                       u_norm=QuasiNormSpec(q=1.0))


class TestMisfitBatch:
    def test_zero_residual(self, potential, gaussian_ensemble):
        u0 = gaussian_ensemble.coefficients[0, 0]
        vals = evaluate_misfit_batch(potential, np.array([[u0]]), np.array([u0]))
        assert vals[0] == 0.0

    def test_scalar_value(self, potential):
        vals = evaluate_misfit_batch(potential, np.array([[0.0]]), np.array([2.0]))
        assert vals[0] == pytest.approx(2.0)

    def test_linear_forward_matches_scalar_loop(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 2))
        pot = gaussian_additive_potential(LinearForward(a), np.array([1.0, 2.0, 0.5]))
        u = rng.standard_normal((40, 2))
        y = rng.standard_normal(3)
        vals = evaluate_misfit_batch(pot, u, y)
        for i in range(40):
            resid = y - a @ u[i]
            expected = 0.5 * float(resid @ (resid / np.array([1.0, 2.0, 0.5])))
            assert vals[i] == pytest.approx(expected, rel=1e-14)

    def test_dimension_mismatch(self):
        pot = gaussian_additive_potential(LinearForward(np.eye(2)), np.ones(2))
        with pytest.raises(DimensionMismatchError):
            evaluate_misfit_batch(pot, np.ones((5, 3)), np.ones(2))

    def test_non_finite_misfit_rejected(self):
        pot = PotentialSpec(misfit=lambda u, y: np.full(u.shape[0], np.inf))
        with pytest.raises(DimensionMismatchError):
            evaluate_misfit_batch(pot, np.ones((3, 1)), np.zeros(1))

    @pytest.mark.parametrize("values", [[1.0, math.nan, 2.0], [1.0, math.inf, 2.0],
                                        [1.0, -math.inf, 2.0], [math.inf, -math.inf]])
    def test_each_non_finite_value_rejected(self, values):
        with pytest.raises(DimensionMismatchError):
            evaluate_misfit_batch(fixed_misfit(values), np.ones((len(values), 1)),
                                  np.zeros(1))

    @pytest.mark.parametrize("values", [[1e308, 1e308], [-1e308, -1e308, 3.0]])
    def test_finite_values_whose_sum_overflows_accepted(self, values):
        out = evaluate_misfit_batch(fixed_misfit(values), np.ones((len(values), 1)),
                                    np.zeros(1))
        assert out.tolist() == values

    @pytest.mark.parametrize("var", [1.0, 0.3, [0.5, 2.0]])
    def test_gaussian_misfit_matches_textbook_bits(self, var):
        rng = np.random.default_rng(12)
        var = np.atleast_1d(np.asarray(var, dtype=float))
        dim = 2 if var.size == 2 else 1
        u = rng.standard_cauchy((1000, dim))
        y = rng.standard_normal(dim)
        pot = gaussian_additive_potential(IdentityForward(), var)
        resid = (y[None, :] - u) * (1.0 / np.sqrt(var))[None, :]
        want = 0.5 * (resid ** 2).sum(axis=1)
        assert evaluate_misfit_batch(pot, u, y).tobytes() == want.tobytes()

    def test_data_dimension_checked(self, potential):
        # scalar field against two-component data must not broadcast
        with pytest.raises(DimensionMismatchError):
            evaluate_misfit_batch(potential, np.ones((4, 1)), np.array([1.0, 2.0]))


class TestNormalizationConstant:
    def test_flat_misfit_gives_unit_mass(self, gaussian_ensemble):
        pot = PotentialSpec(misfit=lambda u, y: np.zeros(u.shape[0]))
        out = normalization_constant(pot, gaussian_ensemble, np.zeros(1))
        assert out.z == 1.0
        assert out.stderr == 0.0

    def test_conjugate_oracle(self, potential, gaussian_ensemble):
        y = 1.3
        out = normalization_constant(potential, gaussian_ensemble, np.array([y]))
        exact = math.exp(-y * y / 4.0) / math.sqrt(2.0)
        assert abs(out.z - exact) < 4.0 * out.stderr
        assert abs(out.z / exact - 1.0) < 0.01

    def test_cauchy_prior_against_quadrature(self, potential, cauchy_ensemble):
        out = normalization_constant(potential, cauchy_ensemble, np.array([0.0]))
        oracle, _ = integrate.quad(
            lambda u: math.exp(-0.5 * u * u) * cauchy_pdf(0, 1, u), -np.inf, np.inf,
        )
        assert abs(out.z - oracle) < 3.0 * out.stderr

    def test_overflowing_z_is_flagged_not_raised(self):
        # every misfit is below -709.78, so exp(-shift) overflows a double
        u = np.linspace(0, 1, 100)[:, None]
        pot = PotentialSpec(misfit=lambda u, y: u[:, 0] - 1000.0)
        out = normalization_constant(pot, u, [0.0])
        assert out.z == math.inf
        assert out.stderr == math.inf
        assert out.underflow_flagged
        assert out.shift == -1000.0
        assert out.log_z == pytest.approx(1000.0 + math.log(np.exp(-u[:, 0]).mean()),
                                          rel=1e-15)
        # the weights and the normalised posterior are unaffected
        post = posterior(pot, u, [0.0])
        assert post.z == out
        phi = u[:, 0] - 1000.0
        assert post.measure.weights.tobytes() == np.exp(-(phi + 1000.0)).tobytes()

    def test_degenerate_weights_raise(self, potential):
        ens = scalar_prior("gaussian", 10 ** 4, 5)
        with pytest.raises(DegenerateWeightsError):
            normalization_constant(potential, ens, np.array([3000.0]))


class TestPosterior:
    def test_flat_misfit_gives_uniform_weights(self, gaussian_ensemble):
        pot = PotentialSpec(misfit=lambda u, y: np.zeros(u.shape[0]))
        post = posterior(pot, gaussian_ensemble, np.zeros(1))
        w = post.measure.normalized()
        assert np.allclose(w, 1.0 / w.size)
        assert post.z.ess == pytest.approx(w.size)

    def test_conjugate_posterior_mean(self, potential, gaussian_ensemble):
        y = 1.0
        post = posterior(potential, gaussian_ensemble, np.array([y]))
        mean, se = posterior_expectation(gaussian_ensemble.coefficients[:, 0], post)
        assert abs(mean - y / 2.0) < 3.0 * se

    def test_symmetric_case_centres_at_zero(self, potential, cauchy_ensemble):
        post = posterior(potential, cauchy_ensemble, np.array([0.0]))
        mean, se = posterior_expectation(cauchy_ensemble.coefficients[:, 0], post)
        assert abs(mean) < 3.0 * se
        half, se_half = posterior_expectation(
            (cauchy_ensemble.coefficients[:, 0] > 0).astype(float), post)
        assert abs(half - 0.5) < 3.0 * se_half

    def test_unit_function_integrates_to_one(self, potential, gaussian_ensemble):
        post = posterior(potential, gaussian_ensemble, np.array([0.5]))
        val, _ = posterior_expectation(np.ones(gaussian_ensemble.n_samples), post)
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_posteriors_from_different_ensembles_not_comparable(self, potential):
        from stableinfer import MismatchedReferenceError, hellinger_empirical
        a = posterior(potential, scalar_prior("gaussian", 1000, 1), np.zeros(1))
        b = posterior(potential, scalar_prior("gaussian", 1000, 2), np.zeros(1))
        with pytest.raises(MismatchedReferenceError):
            hellinger_empirical(a.measure, b.measure)

    def test_one_misfit_evaluation_per_posterior(self, potential, gaussian_ensemble):
        calls = []

        def counted(u, y):
            calls.append(len(u))
            return potential.misfit(u, y)

        y = np.array([0.4])
        post = posterior(dataclasses.replace(potential, misfit=counted), gaussian_ensemble, y)
        assert calls == [gaussian_ensemble.n_samples]
        # the posterior's Z is the one normalization_constant computes, bit for bit
        z = normalization_constant(potential, gaussian_ensemble, y)
        assert post.z == z

    def test_weights_invariant_under_misfit_shift(self, gaussian_ensemble):
        # the shift cancels in the internal normalisation; the only residue
        # is the rounding of (phi + 57) itself inside the caller's function
        pot1 = gaussian_additive_potential()
        pot2 = PotentialSpec(misfit=lambda u, y: pot1.misfit(u, y) + 57.0)
        p1 = posterior(pot1, gaussian_ensemble, np.array([0.7]))
        p2 = posterior(pot2, gaussian_ensemble, np.array([0.7]))
        assert np.allclose(p1.measure.weights, p2.measure.weights, rtol=1e-12)


def _textbook_z(phi):
    """Z, its stderr, log Z and the ESS as plain numpy expressions."""
    shift = float(phi.min())
    w = np.exp(-(phi - shift))
    n = w.size
    mean_w = float(w.mean())
    z = math.exp(-shift) * mean_w
    stderr = math.exp(-shift) * float(w.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    log_z = -shift + math.log(mean_w)
    s = w.sum()
    ess = float(s * s / (w ** 2).sum())
    return w, (z, stderr, log_z, ess)


class TestSinglePassWeights:
    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.integers(1, 50), elements=st.one_of(
        st.floats(-700.0, 800.0), st.sampled_from([0.0, -700.0, 745.0, 745.2]))))
    @example(np.array([3.0]))
    @example(np.array([-709.0, -709.0]))
    @example(np.array([0.0, 744.5, 745.1]))  # weights down to subnormals and zero
    def test_weights_and_z_match_textbook_bits(self, phi):
        w, (z, stderr, log_z, ess) = _textbook_z(phi)
        with mock.patch.object(bayes, "_MIN_ESS", 0.0):
            post = posterior(fixed_misfit(phi), np.zeros((phi.size, 1)), [0.0])
        got = post.z
        assert (got.z, got.stderr, got.log_z, got.ess) == (z, stderr, log_z, ess)
        assert post.measure.weights.tobytes() == w.tobytes()
        assert post.measure.normalization == float(w.mean())
        assert post.measure.normalized().tobytes() == (w / w.sum()).tobytes()
        assert got.shift == float(phi.min())

    def test_misfit_values_left_untouched(self, monkeypatch):
        phi = np.array([2.0, 0.5, 7.0])
        monkeypatch.setattr(bayes, "_MIN_ESS", 0.0)
        posterior(fixed_misfit(phi), np.zeros((3, 1)), [0.0])
        assert phi.tolist() == [2.0, 0.5, 7.0]


class TestIntegrability:
    def test_zero_envelopes_give_unit_estimates(self, cauchy_ensemble):
        pot = PotentialSpec(misfit=lambda u, y: np.zeros(u.shape[0]),
                            u_norm=QuasiNormSpec(q=1.0))
        rep = integrability_estimates(pot, cauchy_ensemble, r=1.0)
        assert rep.s1.value == 1.0
        assert rep.s12.value == 1.0
        assert not rep.any_unstable

    def test_superlinear_growth_flagged_under_cauchy(self, cauchy_ensemble):
        # 2*m2 - m1 ~ 2 log t: the integrand is t^2, infinite mean at alpha=1
        m1, m2 = log_growth_envelopes(kappa=1.0, c_plus=1.0, c_minus=0.0, sigma_minus=0.0)
        pot = PotentialSpec(misfit=lambda u, y: np.zeros(u.shape[0]),
                            u_norm=QuasiNormSpec(q=1.0), m1=m1, m2=m2)
        rep = integrability_estimates(pot, cauchy_ensemble, r=1.0)
        assert rep.s12.unstable

    def test_half_log_growth_stable_and_matches_quadrature(self, cauchy_ensemble):
        # 2*m2 - m1 = 0.5 log t: estimates E|u|^(1/2) = sqrt(2)
        pot = PotentialSpec(
            misfit=lambda u, y: np.zeros(u.shape[0]),
            u_norm=QuasiNormSpec(q=1.0),
            m2=lambda r, t: 0.25 * np.log(np.maximum(t, 1e-300)),
        )
        rep = integrability_estimates(pot, cauchy_ensemble, r=1.0)
        assert not rep.s12.unstable
        assert abs(rep.s12.value - math.sqrt(2.0)) < 4.0 * rep.s12.stderr


class TestZLipschitz:
    def test_zero_epsilon_gives_zero(self, potential, gaussian_ensemble):
        ratios, _ = z_lipschitz_check(potential, gaussian_ensemble, np.array([0.5]),
                                      [0.0])
        assert ratios[0] == 0.0

    def test_conjugate_derivative(self, potential, gaussian_ensemble):
        y = 1.0
        ratios, holds = z_lipschitz_check(
            potential, gaussian_ensemble, np.array([y]), [0.2, 0.1, 0.05, 0.025])
        z_exact = math.exp(-y * y / 4.0) / math.sqrt(2.0)
        assert holds
        assert ratios[-1] == pytest.approx(0.5 * y * z_exact, rel=0.05)

    def test_data_independent_misfit(self, gaussian_ensemble):
        pot = PotentialSpec(misfit=lambda u, y: 0.5 * u[:, 0] ** 2)
        ratios, holds = z_lipschitz_check(pot, gaussian_ensemble, np.array([0.0]),
                                          [0.2, 0.1])
        assert np.all(ratios == 0.0)
        assert holds


class TestDataSweep:
    def test_zero_perturbation_distance_is_zero(self, potential, gaussian_ensemble):
        p0 = posterior(potential, gaussian_ensemble, np.array([0.4]))
        p1 = posterior(potential, gaussian_ensemble, np.array([0.4]))
        from stableinfer import hellinger_empirical
        assert hellinger_empirical(p0.measure, p1.measure) == 0.0

    def test_conjugate_distances_match_quadrature(self, potential, gaussian_ensemble):
        y = 0.0
        eps = [0.2, 0.1, 0.05, 0.025]
        report = data_lipschitz_sweep(potential, gaussian_ensemble, np.array([y]),
                                      eps, np.array([1.0]))
        sd = 1.0 / math.sqrt(2.0)
        for e, d, se in zip(eps, report.distances, report.distance_stderrs):
            osq, _ = integrate.quad(
                lambda x: (math.sqrt(normal_pdf(y / 2, sd, x))
                           - math.sqrt(normal_pdf((y + e) / 2, sd, x))) ** 2,
                -20, 20,
            )
            assert abs(d - math.sqrt(osq)) < 3.0 * se

    def test_cauchy_prior_slope_near_one(self, potential, cauchy_ensemble):
        report = data_lipschitz_sweep(potential, cauchy_ensemble, np.array([0.0]),
                                      [0.2, 0.1, 0.05, 0.025], np.array([1.0]))
        assert 0.9 <= report.slope <= 1.1
        assert report.verdicts["slope_near_one"]
        assert report.verdicts["kraft_ordering"]

    def test_crn_distances_monotone_in_epsilon(self, potential, gaussian_ensemble):
        report = data_lipschitz_sweep(potential, gaussian_ensemble, np.array([0.0]),
                                      [0.2, 0.1, 0.05, 0.025], np.array([1.0]))
        assert np.all(np.diff(report.distances) < 0)  # epsilons decrease

    def test_report_serialization(self, potential, gaussian_ensemble):
        report = data_lipschitz_sweep(potential, gaussian_ensemble, np.array([0.0]),
                                      [0.2, 0.1], np.array([1.0]))
        payload = report.to_json_dict()
        assert set(payload) >= {"estimates", "stderrs", "slope", "slope_ci",
                                "verdicts", "seed", "n_samples"}
        assert payload["seed"] == gaussian_ensemble.seed
        assert payload["perturbation_sizes"] == [0.2, 0.1]
        assert len(payload["stderrs"]["hellinger"]) == 2

    def test_columns_are_the_pairwise_distances_to_the_bit(self, potential, cauchy_ensemble):
        y, eps, direction = np.array([0.3]), [0.2, 0.05, 0.0], np.array([1.0])
        report = data_lipschitz_sweep(potential, cauchy_ensemble, y, eps, direction)
        base = posterior(potential, cauchy_ensemble, y)
        for k, e in enumerate(eps):
            pert = posterior(potential, cauchy_ensemble, y + e * direction)
            d, se = hellinger_with_error(base.measure, pert.measure)
            tv = total_variation_empirical(base.measure, pert.measure)
            assert (report.distances[k], report.distance_stderrs[k],
                    report.tv_distances[k], report.z_values[k]) == (d, se, tv, pert.z.z)


class TestLikelihoodSweep:
    def test_identical_family_gives_zero(self, potential, gaussian_ensemble):
        report = likelihood_perturbation_sweep(
            potential, lambda n: potential.misfit, lambda n: 1.0 / n,
            gaussian_ensemble, np.array([0.3]), [4, 8],
        )
        assert np.all(report.distances == 0.0)

    def test_constant_shift_cancels(self, potential, gaussian_ensemble):
        # cancellation is exact in the normalisation; what remains is the
        # IEEE rounding of (phi + c) inside the family callable, twelve
        # orders below any real distance in these sweeps
        def family(n):
            return lambda u, y: potential.misfit(u, y) + 1.0 / n
        report = likelihood_perturbation_sweep(
            potential, family, lambda n: 1.0 / n,
            gaussian_ensemble, np.array([0.3]), [4, 8, 16],
        )
        assert np.all(report.distances <= 1e-14)

    def test_sinusoidal_family_slope(self, potential, cauchy_ensemble):
        def family(n):
            def approx(u, y):
                t = rowwise_quasi_norm(u, QuasiNormSpec(q=1.0))
                return potential.misfit(u, y) + np.sin(t) / n
            return approx
        report = likelihood_perturbation_sweep(
            potential, family, lambda n: 1.0 / n,
            cauchy_ensemble, np.array([0.0]), [4, 8, 16, 32],
        )
        assert 0.9 <= report.slope <= 1.1

    def test_columns_are_the_pairwise_distances_to_the_bit(self, potential, gaussian_ensemble):
        def family(n):
            return lambda u, y: potential.misfit(u, y) + np.cos(u[:, 0]) / n
        y, n_list = np.array([0.2]), [4, 16]
        report = likelihood_perturbation_sweep(potential, family, lambda n: 1.0 / n,
                                               gaussian_ensemble, y, n_list)
        base = posterior(potential, gaussian_ensemble, y)
        for k, n in enumerate(n_list):
            pert = posterior(dataclasses.replace(potential, misfit=family(n)),
                             gaussian_ensemble, y)
            d, se = hellinger_with_error(base.measure, pert.measure)
            tv = total_variation_empirical(base.measure, pert.measure)
            assert (report.distances[k], report.distance_stderrs[k],
                    report.tv_distances[k], report.z_values[k]) == (d, se, tv, pert.z.z)


class TestGrowthAdmissibility:
    def test_balanced_case_admissible(self):
        out = growth_admissibility(0.5, 1.0, 1.0, 0.5, 1.0)
        assert out.admissible
        assert out.margin == pytest.approx(0.5)

    def test_unchecked_growth_not_admissible(self):
        out = growth_admissibility(1.0, 0.0, 0.0, 0.5, 1.0)
        assert not out.admissible

    def test_boundary_is_admissible(self):
        out = growth_admissibility(0.75, 1.0, 1.0, 0.5, 1.0)
        assert out.exponent == pytest.approx(0.5)
        assert out.admissible
        assert out.margin == pytest.approx(0.0)

    def test_moment_order_guard(self):
        with pytest.raises(InvalidMomentOrderError):
            growth_admissibility(0.5, 1.0, 1.0, 1.0, 1.0)


def test_envelope_spot_check_clean(gaussian_ensemble):
    pot = gaussian_additive_potential(IdentityForward(), 1.0,
                                      u_norm=QuasiNormSpec(q=2.0))
    rep = spot_check_envelopes(pot, gaussian_ensemble, r=3.0, y_dim=1,
                               n_probes=500, seed=9)
    assert rep.clean
