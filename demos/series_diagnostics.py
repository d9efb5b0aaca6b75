"""When does a heavy-tailed random series define a function-space object?

A series sum_n gamma_n u_n psi_n with independent Cauchy coefficients
converges almost surely when the scales are summable together with the
log-weighted sum |gamma_n log gamma_n| -- and that extra log condition
has teeth: gamma_n = n^-1 (log n)^-2 is summable, yet the series
diverges, through the truncated first-moment series of the three-series
test.  Polynomial decay n^-r is safe exactly when r > 1.

The script walks the standard families through the summability report
and the three-series check, then demonstrates the smoothness-scale and
shift-admissibility diagnostics, and the fractional lower-order moment
of the field norm with its truncation trace.
"""

from stableinfer import (
    EuclideanSequence,
    PowerLaw,
    PowerLogLaw,
    StableFieldSpec,
    cameron_martin_shift_admissible,
    flom_estimate,
    hilbert_scale_membership,
    summability_report,
    three_series_check,
)

print("=== summability of the scale sequence (alpha = 1, q = 1) ===")
for label, seq in [
    ("gamma_n = n^-2          ", PowerLaw(1.0, 2.0)),
    ("gamma_n = n^-1          ", PowerLaw(1.0, 1.0)),
    ("gamma_n = n^-1 log^-2 n ", PowerLogLaw(1.0, 1.0, 2.0)),
]:
    rep = summability_report(seq, alpha=1.0, q=1.0)
    print(f"  {label} -> {rep.verdict.value:16s} (regime {rep.regime}, "
          f"fitted decay {rep.fitted_decay_exponent:.2f})")

print("\n=== three-series verdicts for sum |gamma_n u_n|, Cauchy u_n ===")
for label, seq in [
    ("n^-0.5         ", PowerLaw(1.0, 0.5)),
    ("n^-1           ", PowerLaw(1.0, 1.0)),
    ("n^-1 log^-2 n  ", PowerLogLaw(1.0, 1.0, 2.0)),
    ("n^-1.5         ", PowerLaw(1.0, 1.5)),
    ("n^-2           ", PowerLaw(1.0, 2.0)),
]:
    out = three_series_check(seq, alpha=1.0, q=1.0, a_cut=1.0)
    failing = f" (fails through {', '.join(out.failing_series)})" if out.failing_series else ""
    print(f"  gamma_n = {label} -> {out.verdict.value}{failing}")
print("  note the log family: summable scales, divergent series.")

print("\n=== values in a smoothness scale (eigenvalues lambda_n = n^-1) ===")
for r in (2.0, 3.0):
    rep = hilbert_scale_membership(PowerLaw(1.0, r), PowerLaw(0.0, 0.0),
                                   PowerLaw(1.0, 1.0), s=1.0, alpha=1.0)
    print(f"  gamma_n = n^-{r:.0f}: scale-space member = {rep.member}")

print("\n=== admissible location shifts h against scales gamma_n = n^-2 ===")
for label, h in [("h = gamma    ", PowerLaw(1.0, 2.0)),
                 ("h = gamma / n", PowerLaw(1.0, 3.0))]:
    verdict = cameron_martin_shift_admissible(h, PowerLaw(1.0, 2.0))
    print(f"  {label} -> {verdict.value}")

print("\n=== fractional moment of the field norm, gamma_n = n^-2 ===")
spec = StableFieldSpec.make(1.0, PowerLaw(1.0, 2.0), EuclideanSequence(q=1.0), 256)
out = flom_estimate(spec, 10 ** 5, seed=6001, p=0.5, q=1.0)
print(f"  E ||u||^(1/2) ~ {out.estimate:.4f} (tail index alpha/p = {out.tail_index:g})")
print(f"  no error bar: {out.stderr_reason}")
print("  truncation trace (should contract):")
for n_trunc, est in out.truncation_trace:
    print(f"    N = {n_trunc:3d}: {est:.5f}")
