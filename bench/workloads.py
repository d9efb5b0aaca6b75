"""The benchmark's workloads: the operations each round runs, the inputs
they get from the workload seed, and the checks on their outputs.

Each check returns a list of problems; an empty list means the output
agrees with the independent oracles in oracles.py.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

CONFIGS = Path(__file__).resolve().parent / "configs"

SIGMAS = 4.0  # Monte Carlo estimates must lie within four standard errors
KS_LEVEL = 1e-6  # KS false alarms happen for one seed in a million
PARSEVAL_RTOL = 1e-12  # per-row grid energy against the coefficient energy
QUAD_RTOL = 1e-8  # the relative tolerance the program asks QUADPACK for
MOMENT_RTOL = 1e-6  # window integral at 1e-7 plus power-law tail corrections
CAUCHY_SERIES_RTOL = 1e-9  # same closed forms, different summation
STABLE_SERIES_RTOL = 1e-4  # tables from a correct density reach ~2e-6 on s1, s2


@dataclass(frozen=True)
class Op:
    """One operation: `spec` goes to child.py, `check` judges the output."""

    name: str
    spec: dict
    check: Callable[["Op", Path, dict], list]


def _demo(name: str) -> dict:
    return json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))


def _cli(name, config, check, seed_override=None) -> Op:
    return Op(name, {"kind": "cli", "config": config, "seed_override": seed_override}, check)


def _program_seed(gen: np.random.Generator) -> int:
    return int(gen.integers(0, 2 ** 31))


# --- shared checks ------------------------------------------------------------

def _within(problems, what, got, want, tol):
    if not abs(got - want) <= tol:
        problems.append(f"{what}: {got!r} vs expected {want!r} (allowed {tol:.3g})")


def _close(problems, what, got, want, rtol, atol=0.0):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        problems.append(f"{what}: shape {got.shape} vs {want.shape}")
        return
    bad = ~(np.abs(got - want) <= atol + rtol * np.abs(want))
    if bad.any():
        i = int(np.argmax(bad))
        problems.append(f"{what}: {int(bad.sum())} of {bad.size} values off, first at {i}: "
                        f"{got.flat[i]!r} vs {want.flat[i]!r}")


def manifest_problems(out: Path) -> list:
    """Every file the manifest lists exists and has the recorded sha256."""
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    problems = []
    for entry in manifest["files"]:
        digest = hashlib.sha256((out / entry["name"]).read_bytes()).hexdigest()
        if digest != entry["sha256"]:
            problems.append(f"manifest hash of {entry['name']} does not match the file")
    return problems


def _sweep_common(problems, report, sizes, n, oracle_h, oracle_z, oracle_z_se, csv_rows):
    _close(problems, "perturbation sizes", report["perturbation_sizes"], sizes, 1e-15)
    if report["n_samples"] != n:
        problems.append(f"n_samples {report['n_samples']} != {n}")
    est = report["estimates"]
    for i, size in enumerate(sizes):
        h, tv, se = est["hellinger"][i], est["total_variation"][i], report["stderrs"]["hellinger"][i]
        _within(problems, f"Z at size {size}", est["z"][i], oracle_z(i), SIGMAS * oracle_z_se(i))
        _within(problems, f"Hellinger at size {size}", h, oracle_h(i), SIGMAS * se)
        if not tv <= h <= math.sqrt(2.0):
            problems.append(f"at size {size}: not TV {tv} <= Hellinger {h} <= sqrt 2")
    if not 0.9 <= report["slope"] <= 1.1:
        problems.append(f"slope {report['slope']} outside [0.9, 1.1]")
    expected_rows = np.column_stack([sizes, est["hellinger"], report["stderrs"]["hellinger"]])
    _close(problems, "CSV rows", csv_rows, expected_rows, 0.0)


def check_data_sweep(op, out, result):
    p = op.spec["config"]["params"]
    y, n = float(p.get("y", 0.0)), int(p["n_samples"])
    eps = [float(e) for e in p["epsilons"]]
    problems = manifest_problems(out)
    report = json.loads((out / "data_sweep.json").read_text(encoding="utf-8"))
    _, rows = oracles.read_csv(out / "hellinger_vs_epsilon.csv")
    _sweep_common(
        problems, report, eps, n,
        oracle_h=lambda i: oracles.hellinger_data(y, eps[i]),
        oracle_z=lambda i: oracles.z_exact(y + eps[i]),
        oracle_z_se=lambda i: oracles.z_stderr(y + eps[i], n),
        csv_rows=rows,
    )
    return problems


def check_likelihood_sweep(op, out, result):
    p = op.spec["config"]["params"]
    y, n = float(p.get("y", 0.0)), int(p["n_samples"])
    n_list = [int(k) for k in p["n_list"]]
    problems = manifest_problems(out)
    report = json.loads((out / "likelihood_sweep.json").read_text(encoding="utf-8"))
    _, rows = oracles.read_csv(out / "hellinger_vs_psi.csv")
    _sweep_common(
        problems, report, [1.0 / k for k in n_list], n,
        oracle_h=lambda i: oracles.hellinger_likelihood(y, n_list[i]),
        oracle_z=lambda i: oracles.likelihood_z(y, n_list[i]),
        oracle_z_se=lambda i: oracles.likelihood_z_stderr(y, n_list[i], n),
        csv_rows=rows,
    )
    return problems


def check_gallery(op, out, result):
    p = op.spec["config"]["params"]
    levels, n, size = int(p["levels"]), int(p["n_samples"]), int(p["grid_size"])
    m = 2 ** (levels + 1) - 1
    scale = oracles.gallery_level_scale(m)
    problems = manifest_problems(out)
    largest = {}
    for family, cdf in (("cauchy", oracles.cauchy_cdf), ("gaussian", oracles.normal_cdf)):
        header, coeffs, grid = oracles.read_sfe1(out / f"{family}_fields.sfe1")
        if coeffs.shape != (n, m) or grid is None or grid.shape != (n, size):
            problems.append(f"{family}: SFE1 shapes {coeffs.shape}, "
                            f"{None if grid is None else grid.shape}")
            continue
        ks = oracles.ks_statistic(coeffs / scale, cdf)
        if ks > oracles.ks_critical(coeffs.size, KS_LEVEL):
            problems.append(f"{family}: KS {ks:.5f} of standardised coefficients")
        energy = (grid * grid).sum(axis=1) / size
        coeff_energy = (coeffs * coeffs).sum(axis=1)
        _close(problems, f"{family}: Parseval per row", energy, coeff_energy, PARSEVAL_RTOL)
        _, shown = oracles.read_csv(out / f"{family}_fields.csv")
        lo, hi = grid.min(), grid.max()
        if shown.size and (shown.min() != 0.0 or shown.max() != 1.0):
            problems.append(f"{family}: rescaled CSV spans [{shown.min()}, {shown.max()}]")
        _close(problems, f"{family}: rescaled CSV", shown, (grid - lo) / (hi - lo), 0.0, 1e-15)
        largest[family] = np.abs(coeffs).max()
    summary = json.loads((out / "gallery_summary.json").read_text(encoding="utf-8"))
    if (summary["levels"], summary["n_samples"], summary["grid_size"]) != (levels, n, size):
        problems.append(f"summary dimensions {summary}")
    if len(largest) == 2:
        _close(problems, "extreme coefficient ratio",
               summary["extreme_coefficient_ratio_cauchy_over_gaussian"],
               largest["cauchy"] / largest["gaussian"], 1e-15)
    return problems


def check_flom(op, out, result):
    p = op.spec["config"]["params"]
    prior, order = p["prior"], float(p["p"])
    if float(p["q"]) != order or prior["gamma"]["kind"] != "power":
        raise ValueError("the closed form needs p = q and a power-law scale")
    gamma = prior["gamma"]["amplitude"] * np.arange(1, prior["truncation"] + 1,
                                                    dtype=float) ** -prior["gamma"]["exponent"]
    # with p = q, ||u||_q^p = sum |u_n|^p, so E = sum gamma_n^p E|X|^p
    exact = float((gamma ** order).sum()) * oracles.stable_abs_moment(
        float(prior["alpha"]), 0.0, 1.0, order)
    problems = manifest_problems(out)
    report = json.loads((out / "flom.json").read_text(encoding="utf-8"))
    _within(problems, "flom estimate", report["estimate"], exact, SIGMAS * report["stderr"])
    trace = report["truncation_trace"]
    t = prior["truncation"]
    if [row[0] for row in trace] != [t // 4, t // 2, t] or trace[-1][1] != report["estimate"]:
        problems.append(f"truncation trace {trace}")
    _, rows = oracles.read_csv(out / "truncation_trace.csv")
    _close(problems, "trace CSV", rows, np.asarray(trace, dtype=float), 0.0)
    return problems


def check_kl(op, out, result):
    problems = manifest_problems(out)
    report = json.loads((out / "kl_table.json").read_text(encoding="utf-8"))
    want = oracles.reference("constants.json")["kl_normal_cauchy"]
    got = report["normal_vs_cauchy"]
    if not isinstance(got, float):
        problems.append(f"KL(N||C) = {got!r}")
    else:
        _within(problems, "KL(N||C)", got, want, QUAD_RTOL * want)
    if report["cauchy_vs_normal"] != "infinite":
        problems.append(f"KL(C||N) = {report['cauchy_vs_normal']!r}, not infinite")
    return problems


def _check_three_series(out, expected_traces, rtol):
    """Both configs diverge through s1 alone: for gamma_n = 1/n at alpha 1.5
    the first truncated moment is summed at order q = 1 < alpha, sum 1/n;
    for 1/(n log^2 n) at alpha = q = 1 it is the resonant sum
    gamma log(1/gamma) ~ 1/(n log n).  s0 and s2 converge in both."""
    problems = manifest_problems(out)
    report = json.loads((out / "three_series.json").read_text(encoding="utf-8"))
    if report["verdict"] != "divergent" or report["failing_series"] != ["s1"]:
        problems.append(f"verdict {report['verdict']} with failing {report['failing_series']}")
    names, rows = oracles.read_csv(out / "partial_sums.csv")
    depths = expected_traces["depths"]
    if names != ["depth", "s0", "s1", "s2"] or rows[:, 0].tolist() != depths:
        problems.append(f"partial sums at depths {rows[:, 0].tolist()} under {names}")
        return problems
    for col, key in enumerate(("s0", "s1", "s2"), start=1):
        _close(problems, f"{key} partial sums", rows[:, col], expected_traces[key], rtol)
        if report[key] != rows[-1, col]:
            problems.append(f"{key} in the report is not the last partial sum")
    return problems


def check_three_series_cauchy(op, out, result):
    p = op.spec["config"]["params"]
    seq, depth, a_cut = p["sequence"], int(p["depth"]), float(p["threshold"])
    gamma = oracles.power_log_sequence(seq["amplitude"], seq["exponent"], seq["log_exponent"],
                                       depth)
    depths = [64 * 2 ** k for k in range(int(math.log2(depth // 64)) + 1)]
    sums = [np.cumsum(t)[np.asarray(depths) - 1]
            for t in oracles.truncated_cauchy_terms(gamma, a_cut)]
    return _check_three_series(out, {"depths": depths, "s0": sums[0], "s1": sums[1],
                                     "s2": sums[2]}, CAUCHY_SERIES_RTOL)


def check_three_series_stable(op, out, result):
    return _check_three_series(out, oracles.reference("three_series_alpha1.5.json"),
                               STABLE_SERIES_RTOL)


def _check_pdf(index):
    def check(op, out, result):
        case = oracles.reference("densities.json")["cases"][index]
        problems = []
        _close(problems, f"density at ({case['alpha']}, {case['beta']})", result["values"],
               case["pdf"], QUAD_RTOL)
        return problems
    return check


def check_moment(op, out, result):
    alpha, beta, gamma, _ = op.spec["params"]
    if result["moment"]["kind"] != "finite":
        return [f"moment is {result['moment']['kind']}"]
    want = oracles.stable_abs_moment(alpha, beta, gamma, op.spec["p"])
    problems = []
    _within(problems, "E|X|^p", result["moment"]["value"], want, MOMENT_RTOL * want)
    return problems


# --- workloads ----------------------------------------------------------------

def posterior_sweep(seed: int) -> list:
    """Cauchy prior, Gaussian misfit: one data sweep from the demo config,
    a larger data sweep (many y, one misfit) and a likelihood sweep (many
    misfits, one y)."""
    gen = np.random.default_rng(seed)
    demo = _demo("data_sweep_cauchy")
    prior = demo["params"]["prior"]
    data = {"experiment": "data_sweep", "seed": _program_seed(gen), "params": {
        "prior": prior, "y": round(float(gen.uniform(-1.0, 1.0)), 3),
        "epsilons": [0.4 / 2 ** k for k in range(8)], "n_samples": 4 * 10 ** 6}}
    likelihood = {"experiment": "likelihood_sweep", "seed": _program_seed(gen), "params": {
        "prior": prior, "y": round(float(gen.uniform(-1.0, 1.0)), 3),
        "n_list": [4, 8, 16, 32], "n_samples": 2 * 10 ** 6}}
    return [
        _cli("data_sweep_cauchy", demo, check_data_sweep, seed_override=_program_seed(gen)),
        _cli("data_sweep_8eps", data, check_data_sweep),
        _cli("likelihood_sweep_4N", likelihood, check_likelihood_sweep),
    ]


def field_gallery(seed: int) -> list:
    """Matched Cauchy/Gaussian Haar galleries (demo size and 13 levels) and
    fractional moments of a symmetric alpha = 1.5 field."""
    gen = np.random.default_rng(seed)
    demo = _demo("gallery")
    big = {"experiment": "figure2", "seed": _program_seed(gen),
           "params": {"levels": 13, "n_samples": 50, "grid_size": 2 ** 14}}
    flom = {"experiment": "flom", "seed": _program_seed(gen), "params": {
        "prior": {"alpha": 1.5, "gamma": {"kind": "power", "amplitude": 1.0, "exponent": 1.0},
                  "truncation": 64},
        "p": 0.5, "q": 0.5, "n_samples": 2 * 10 ** 5}}
    return [
        _cli("gallery_demo", demo, check_gallery, seed_override=_program_seed(gen)),
        _cli("gallery_13_levels", big, check_gallery),
        _cli("flom_alpha1.5", flom, check_flom),
    ]


def density_series(seed: int) -> list:
    """Fourier-inversion density driven three ways: three-series tables,
    200-point grids and adaptive moment integrals.  The density work
    depends strongly on where the points fall, so the points, laws and
    sequences are fixed; the seed only reaches the CLI runs' seeds, which
    these experiments do not use."""
    gen = np.random.default_rng(seed)
    densities = oracles.reference("densities.json")
    ts = oracles.reference("three_series_alpha1.5.json")
    # the alpha = 1.5 run fails its check today (see CHANGES.md); its input
    # must not depend on the seed, so that it fails in every run
    stable_series = {"experiment": "three_series", "seed": 1, "params": {
        "sequence": ts["sequence"], "alpha": ts["alpha"], "q": ts["q"],
        "threshold": ts["threshold"], "depth": ts["depths"][-1]}}
    ops = [
        _cli("kl_table", _demo("kl_table"), check_kl, seed_override=_program_seed(gen)),
        _cli("three_series_log_family", _demo("three_series_log_family"),
             check_three_series_cauchy, seed_override=_program_seed(gen)),
        _cli("three_series_alpha1.5", stable_series, check_three_series_stable),
    ]
    for i, case in enumerate(densities["cases"]):
        ops.append(Op(f"stable_pdf_{case['alpha']}_{case['beta']}", {
            "kind": "api", "call": "stable_pdf",
            "params": [case["alpha"], case["beta"], densities["gamma"], densities["delta"]],
            "points": densities["points"]}, _check_pdf(i)))
    alpha, beta, gamma = 1.5, 0.3, 2.0
    ops.append(Op("fractional_moment", {
        "kind": "api", "call": "fractional_moment", "p": 0.75,
        "params": [alpha, beta, gamma, oracles.strictly_stable_location(alpha, beta, gamma)]},
        check_moment))
    return ops


WORKLOADS = {
    "posterior_sweep": posterior_sweep,
    "field_gallery": field_gallery,
    "density_series": density_series,
}
