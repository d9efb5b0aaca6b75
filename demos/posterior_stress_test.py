"""Stress-testing a posterior against a heavy-tailed prior.

The posterior against a sampled prior is carried by importance weights
exp(-Phi(u_i; y)) over one fixed ensemble, so perturbing the data or the
likelihood and re-weighting the same samples (common random numbers)
measures exactly the perturbation's effect.  Three experiments:

  1. sanity against the conjugate Gaussian case, where the normalising
     constant and posterior mean are known in closed form;
  2. data perturbation under a Cauchy prior: Hellinger distance against
     perturbation size on a log-log grid should fit a slope near one
     (Lipschitz dependence on the data);
  3. likelihood perturbation Phi + sin(||u||)/N: the posterior inherits
     the 1/N approximation rate.

Alongside, the growth-tradeoff check: envelope growth
2*kappa - sigma_minus*c_minus must stay below a moment order the prior
actually has, and the Monte Carlo instability flag detects exactly the
inadmissible regime.
"""

import math

import numpy as np

from stableinfer import (
    EuclideanSequence,
    Explicit,
    PotentialSpec,
    QuasiNormSpec,
    StableFieldSpec,
    data_lipschitz_sweep,
    gaussian_additive_potential,
    growth_admissibility,
    integrability_estimates,
    likelihood_perturbation_sweep,
    log_growth_envelopes,
    posterior,
    posterior_expectation,
    sample_coefficients,
)
from stableinfer.metrics import rowwise_quasi_norm

N = 2 * 10 ** 5


def scalar_ensemble(kind, seed):
    if kind == "cauchy":
        spec = StableFieldSpec.make(1.0, Explicit((1.0,)), EuclideanSequence(q=1.0), 1)
    else:
        spec = StableFieldSpec.make(2.0, Explicit((1.0 / math.sqrt(2.0),)),
                                    EuclideanSequence(q=2.0), 1)
    return sample_coefficients(spec, N, seed)


potential = gaussian_additive_potential(u_norm=QuasiNormSpec(q=1.0))

print("=== 1. conjugate Gaussian sanity check (y = 1) ===")
gauss = scalar_ensemble("gaussian", 101)
post = posterior(potential, gauss, np.array([1.0]))
exact_z = math.exp(-0.25) / math.sqrt(2.0)
mean, se = posterior_expectation(gauss.coefficients[:, 0], post)
print(f"  Z estimate {post.z.z:.5f} vs closed form {exact_z:.5f}")
print(f"  posterior mean {mean:.4f} +- {se:.4f} vs closed form 0.5000")
print(f"  effective sample size {post.z.ess:,.0f} of {N:,}")

print("\n=== 2. data perturbation, Cauchy prior ===")
cauchy = scalar_ensemble("cauchy", 202)
eps = [0.2, 0.1, 0.05, 0.025]
report = data_lipschitz_sweep(potential, cauchy, np.array([0.0]), eps, np.array([1.0]))
for e, d in zip(report.perturbation_sizes, report.distances):
    print(f"  eps = {e:5.3f}: d_H = {d:.5f}   d_H/eps = {d / e:.4f}")
print(f"  fitted log-log slope {report.slope:.4f} "
      f"(ci {report.slope_ci[0]:.4f}..{report.slope_ci[1]:.4f})")
print(f"  verdicts: {report.verdicts}")

print("\n=== 3. likelihood perturbation Phi + sin(||u||)/N ===")


def family(n_approx):
    def approx(u, y):
        t = rowwise_quasi_norm(u, potential.u_norm)
        return potential.misfit(u, y) + np.sin(t) / n_approx
    return approx


lreport = likelihood_perturbation_sweep(
    potential, family, lambda n: 1.0 / n, cauchy, np.array([0.0]), [4, 8, 16, 32])
for psi, d in zip(lreport.perturbation_sizes, lreport.distances):
    print(f"  psi = {psi:7.5f}: d_H = {d:.5f}")
print(f"  fitted slope {lreport.slope:.4f}")

print("\n=== 4. growth tradeoff under the Cauchy prior (moment order p = 0.5) ===")
for kappa, c_minus, sigma_minus in [(0.5, 1.0, 1.0), (0.75, 1.0, 1.0), (1.0, 0.0, 0.0)]:
    verdict = growth_admissibility(kappa, c_minus, sigma_minus, p=0.5, alpha=1.0)
    m1, m2 = log_growth_envelopes(kappa, 1.0, c_minus, sigma_minus)
    pot = PotentialSpec(misfit=lambda u, y: np.zeros(u.shape[0]),
                        u_norm=QuasiNormSpec(q=1.0), m1=m1, m2=m2)
    rep = integrability_estimates(pot, cauchy, r=1.0)
    print(f"  kappa={kappa:4.2f} sigma-*c- = {sigma_minus * c_minus:3.1f}: "
          f"exponent {verdict.exponent:+.2f}, admissible={verdict.admissible}, "
          f"MC instability flag={rep.s12.unstable}")
print("  the flag fires exactly where the growth exponent escapes the")
print("  prior's finite-moment range.")
