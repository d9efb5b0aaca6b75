"""Configuration-driven experiment runner.

One experiment per invocation, described by a JSON config file:

    {"experiment": "data_sweep", "seed": 123, "params": {...}}

``stableinfer validate --config cfg.json`` parses the config once into
the typed inputs its experiment uses and cross-checks them, so every
malformed value is a config error before anything runs.  ``stableinfer
run --config cfg.json [--out DIR] [--seed N]`` executes the experiment
on those inputs and writes CSV/JSON artifacts plus a manifest (file
list with hashes, wall time, config hash).  Identical configs produce
byte-identical numeric artifacts; every CSV carries a comment line with
the config hash and seed.  Exit codes: 0 success, 2 config error,
3 runtime/numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import bayes, ensemble_io, gof, metrics, sequences, series, stable
from .errors import ConfigError, StableInferError

__all__ = ["ExperimentConfig", "validate_config", "run", "main", "EXPERIMENT_KINDS"]

_SEED_MAX = 2 ** 128 - 1  # Philox keys are 128-bit
# checking a prior evaluates its sequences over the whole truncation; the bound
# also keeps a row's uniforms inside sample_coefficients' 2^24-double block
_MAX_TRUNCATION = 2 ** 23
_MAX_LEVELS = 22  # 2^(levels + 1) - 1 functions, at most _MAX_TRUNCATION


@dataclass
class ExperimentConfig:
    """A validated config: raw ``params`` (hashed) and the typed ``inputs``."""

    experiment: str
    seed: int
    params: dict
    inputs: SimpleNamespace

    def canonical_json(self) -> str:
        payload = {"experiment": self.experiment, "seed": self.seed, "params": self.params}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# parsing: JSON values to typed inputs
# ---------------------------------------------------------------------------
# Each converter takes (value, where, ...) and returns the typed value or
# raises ConfigError naming where the value sits in the config.

def _number(value, where: str, low=-math.inf, high=math.inf) -> float:
    """A finite number in (low, high]."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
            low < value <= high and abs(value) <= sys.float_info.max):
        raise ConfigError(f"{where}: expected a finite number in ({low}, {high}], got {value!r}")
    return float(value)


def _integer(value, where: str, low: int = 1, high=math.inf) -> int:
    """An integer in [low, high]; integral floats such as 1e6 count."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value <= high:
        raise ConfigError(f"{where}: expected an integer in [{low}, {high}], got {value!r}")
    return value


def _list(value, where: str, item, **kwargs) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list, got {value!r}")
    return [item(v, where, **kwargs) for v in value]


def _vector(value, where: str, sizes) -> np.ndarray:
    """A number or a list of numbers with one of the allowed sizes."""
    values = _list(value if isinstance(value, list) else [value], where, _number)
    if len(values) not in sizes:
        raise ConfigError(f"{where}: expected {' or '.join(map(str, sizes))} entries "
                          f"(one per prior coefficient), got {len(values)}")
    return np.array(values)


_REQUIRED = object()


class _Params:
    """Reads one JSON object, keeping each converted value on `inputs`."""

    def __init__(self, obj, where: str):
        if not isinstance(obj, dict):
            raise ConfigError(f"{where}: expected an object, got {obj!r}")
        self.obj = obj
        self.where = where
        self.inputs = SimpleNamespace()

    def read(self, name: str, convert, default=_REQUIRED, **kwargs):
        if name not in self.obj and default is _REQUIRED:
            raise ConfigError(f"{self.where}: missing required parameter {name!r}")
        value = convert(self.obj.get(name, default), f"{self.where}.{name}", **kwargs)
        setattr(self.inputs, name, value)
        return value


def _parse_sequence(obj, where: str):
    if not isinstance(obj, dict):
        return sequences.PowerLaw(_number(obj, where), 0.0)
    r = _Params(obj, where)
    kind = obj.get("kind")
    if kind == "power":
        return sequences.PowerLaw(r.read("amplitude", _number), r.read("exponent", _number))
    if kind == "powerlog":
        return sequences.PowerLogLaw(r.read("amplitude", _number), r.read("exponent", _number),
                                     r.read("log_exponent", _number))
    if kind == "explicit":
        return sequences.Explicit(tuple(r.read("values", _list, item=_number)),
                                  r.read("tail", _parse_sequence) if obj.get("tail") else None)
    raise ConfigError(f"{where}: unknown sequence kind {kind!r} "
                      "(expected power | powerlog | explicit)")


def _parse_basis(obj, where: str):
    if obj is None:
        return series.EuclideanSequence(q=2.0)
    r = _Params(obj, where)
    kind = obj.get("kind")
    if kind == "euclidean":
        return series.EuclideanSequence(q=r.read("q", _number, 2.0, low=0))
    if kind in ("haar", "hat"):
        family = series.HaarWavelet if kind == "haar" else series.HatHierarchical
        return family(r.read("levels", _integer, low=0, high=_MAX_LEVELS),
                      r.read("grid_size", _integer, 2 ** 14))
    if kind == "eigen":
        return series.Eigenbasis()
    raise ConfigError(f"{where}: unknown basis kind {kind!r} "
                      "(expected euclidean | haar | hat | eigen)")


def _parse_prior(obj, where: str) -> series.StableFieldSpec:
    r = _Params(obj, where)
    return series.StableFieldSpec.make(
        r.read("alpha", _number), r.read("gamma", _parse_sequence),
        r.read("basis", _parse_basis, None),
        r.read("truncation", _integer, high=_MAX_TRUNCATION),
        delta_seq=r.read("delta", _parse_sequence, 0.0),
        beta_seq=r.read("beta", _parse_sequence, 0.0),
    )


def _parse_figure2(r: _Params) -> None:
    r.read("levels", _integer, 10)
    r.read("n_samples", _integer, 20)
    r.read("grid_size", _integer, 2 ** 14)


def _parse_projection_demo(r: _Params) -> None:
    r.read("gamma", _number, 1.0, low=0)
    r.read("delta", _number, 0.0)
    r.read("n", _integer, 10 ** 5)


def _parse_three_series(r: _Params) -> None:
    r.read("sequence", _parse_sequence)
    r.read("alpha", _number, low=0, high=2)
    r.read("q", _number, 1.0, low=0)
    r.read("threshold", _number, 1.0, low=0)
    r.read("depth", _integer, 2 ** 14)


def _parse_summability(r: _Params) -> None:
    r.read("sequence", _parse_sequence)
    r.read("alpha", _number, low=0, high=2)
    r.read("q", _number, 1.0, low=0)
    r.read("probe_depth", _integer, 2 ** 14)


def _parse_flom(r: _Params) -> None:
    alpha = r.read("prior", _parse_prior).alpha
    r.read("n_samples", _integer, 10 ** 5)
    p, q = r.read("p", _number), r.read("q", _number, 1.0)
    if alpha < 2.0 and p >= alpha:
        raise ConfigError(
            f"{r.where}: p={p} >= alpha={alpha}; fractional moments "
            "of order at or above the stability index are infinite, so "
            "the estimator cannot converge (need p < alpha)"
        )
    if not 0 < p <= q:
        raise ConfigError(f"{r.where}: need 0 < p <= q, got p={p}, q={q}")


def _parse_posterior(r: _Params) -> None:
    """Prior ensemble, Gaussian-noise potential (identity forward map), data y."""
    dim = r.read("prior", _parse_prior).truncation
    r.read("n_samples", _integer, 10 ** 5)
    r.inputs.potential = bayes.gaussian_additive_potential(
        bayes.IdentityForward(),
        noise_variance=r.read("noise_variance", _vector, 1.0, sizes=(1, dim)),
        u_norm=metrics.QuasiNormSpec(q=r.read("u_norm_q", _number, 2.0, low=0)),
    )
    r.read("y", _vector, 0.0, sizes=(dim,))


def _parse_data_sweep(r: _Params) -> None:
    _parse_posterior(r)
    y = r.inputs.y
    r.read("direction", _vector, [1.0] * y.size, sizes=(y.size,))
    eps = r.read("epsilons", _list, item=_number, low=0)
    if not eps or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ConfigError(f"{r.where}: epsilons must be a non-empty, strictly decreasing list")
    if r.obj.get("r_bound") is not None:
        r_bound = r.read("r_bound", _number)
        reach = float(np.sqrt((y ** 2).sum())) + max(eps)
        if reach >= r_bound:
            raise ConfigError(
                f"{r.where}: data plus largest perturbation reaches "
                f"{reach}, outside the declared radius r_bound={r_bound} "
                "on which the envelopes hold"
            )


def _parse_likelihood_sweep(r: _Params) -> None:
    _parse_posterior(r)
    if not r.read("n_list", _list, item=_integer):
        raise ConfigError(f"{r.where}: n_list must not be empty")


def _parse_kl_table(r: _Params) -> None:
    r.read("initial_halfwidth", _number, 8.0, low=0)


def validate_config(text: str) -> ExperimentConfig:
    """Parse a JSON experiment configuration into its typed inputs.

    Raises ConfigError, and nothing else, for any text that is not a
    well-formed config.
    """
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
        raise ConfigError(f"not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("top level must be a JSON object")
    experiment = raw.get("experiment")
    if not isinstance(experiment, str) or experiment not in _EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment kind {experiment!r}; expected one of "
            + " | ".join(EXPERIMENT_KINDS)
        )
    seed = _integer(raw.get("seed", 0), "seed", 0, _SEED_MAX)
    params = raw.get("params", {})
    reader = _Params(params, f"params ({experiment})")
    try:
        _EXPERIMENTS[experiment][0](reader)
    except ConfigError:
        raise
    except StableInferError as exc:
        raise ConfigError(f"params ({experiment}): {exc}") from exc
    return ExperimentConfig(experiment, seed, params, reader.inputs)


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def _json_dump(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_table_and_report(out: Path, comment: str, table: str, columns, rows,
                            report: str, payload: dict) -> list:
    ensemble_io.write_matrix_csv(out / table, rows, columns, comment)
    _json_dump(out / report, payload)
    return [out / table, out / report]


def _run_figure2(cfg: ExperimentConfig, out: Path, comment: str):
    x = cfg.inputs
    files = []
    galleries = {}
    for family in ("cauchy", "gaussian"):
        g = series.wavelet_gallery_ensemble(family, x.levels, x.n_samples, cfg.seed, x.grid_size)
        galleries[family] = g
        path = out / f"{family}_fields.csv"
        ensemble_io.write_matrix_csv(
            path, g.rescaled_grid, [f"x{j}" for j in range(g.rescaled_grid.shape[1])],
            f"{comment} family={family} spec_hash={g.ensemble.spec_hash}",
        )
        files.append(path)
        binary = out / f"{family}_fields.sfe1"
        ensemble_io.write_sfe1(binary, g.ensemble)
        files.append(binary)
    contrast = float(
        np.abs(galleries["cauchy"].ensemble.coefficients).max()
        / np.abs(galleries["gaussian"].ensemble.coefficients).max()
    )
    summary = out / "gallery_summary.json"
    _json_dump(summary, {
        "levels": x.levels,
        "n_samples": x.n_samples,
        "grid_size": x.grid_size,
        "extreme_coefficient_ratio_cauchy_over_gaussian": contrast,
        "rescaled_range": [0.0, 1.0],
    })
    files.append(summary)
    return files


def _run_projection_demo(cfg: ExperimentConfig, out: Path, comment: str, kind: str):
    x = cfg.inputs
    if kind == "radial":
        draws = stable.sample_cauchy_via_circle(x.gamma, x.n, cfg.seed) + x.delta
    else:
        draws = stable.sample_cauchy_via_ratio(x.gamma, x.delta, x.n, cfg.seed)
    ks = gof.ks_statistic(draws, lambda u: stable.cauchy_cdf(x.delta, x.gamma, u))
    crit = gof.ks_critical_value(x.n, 0.01)
    return _write_table_and_report(
        out, comment, "samples.csv", ["draw"], draws, "ks_report.json", {
            "construction": "circle_projection" if kind == "radial" else "gaussian_ratio",
            "gamma": x.gamma, "delta": x.delta, "n": x.n,
            "ks_statistic": ks, "ks_critical_1pct": crit, "passes": bool(ks < crit),
        })


def _run_three_series(cfg: ExperimentConfig, out: Path, comment: str):
    x = cfg.inputs
    result = sequences.three_series_check(x.sequence, x.alpha, x.q, x.threshold, depth=x.depth)
    rows = np.column_stack([
        result.depths, result.traces["s0"], result.traces["s1"], result.traces["s2"],
    ])
    return _write_table_and_report(
        out, comment, "partial_sums.csv", ["depth", "s0", "s1", "s2"], rows,
        "three_series.json", {
            "s0": result.s0, "s1": result.s1, "s2": result.s2,
            "verdict": result.verdict.value,
            "failing_series": list(result.failing_series),
            "note": "finite-depth numeric diagnostic, not a proof",
        })


def _run_summability(cfg: ExperimentConfig, out: Path, comment: str):
    x = cfg.inputs
    rep = sequences.summability_report(x.sequence, x.alpha, x.q, probe_depth=x.probe_depth)
    rows = np.column_stack([rep.depths, rep.alpha_partial_sums, rep.orlicz_partial_sums])
    return _write_table_and_report(
        out, comment, "partial_sums.csv", ["depth", "sum_gamma_alpha", "sum_orlicz"], rows,
        "summability.json", {
            "verdict": rep.verdict.value,
            "regime": rep.regime,
            "fitted_decay_exponent": rep.fitted_decay_exponent,
        })


def _run_flom(cfg: ExperimentConfig, out: Path, comment: str):
    x = cfg.inputs
    ens = series.sample_coefficients(x.prior, x.n_samples, cfg.seed)
    est = series.flom_estimate(ens, x.p, x.q)
    return _write_table_and_report(
        out, comment, "truncation_trace.csv", ["truncation", "estimate"],
        np.asarray(est.truncation_trace), "flom.json", {
            "estimate": est.estimate, "stderr": est.stderr,
            "truncation_trace": [[int(n), v] for n, v in est.truncation_trace],
        })


def _run_bayes_run(cfg: ExperimentConfig, out: Path, comment: str):
    x = cfg.inputs
    ens = series.sample_coefficients(x.prior, x.n_samples, cfg.seed)
    post = bayes.posterior(x.potential, ens, x.y)
    mean, mean_se = bayes.posterior_expectation(ens.coefficients[:, 0], post)
    report_path = out / "posterior.json"
    _json_dump(report_path, {
        "z": post.z.z, "z_stderr": post.z.stderr, "log_z": post.z.log_z,
        "ess": post.z.ess,
        "posterior_mean_first_coefficient": mean,
        "posterior_mean_stderr": mean_se,
    })
    return [report_path]


def _run_data_sweep(cfg: ExperimentConfig, out: Path, comment: str):
    x = cfg.inputs
    ens = series.sample_coefficients(x.prior, x.n_samples, cfg.seed)
    report = bayes.data_lipschitz_sweep(x.potential, ens, x.y, x.epsilons, x.direction)
    return _write_sweep(out, comment, report, "epsilon", "data_sweep.json")


def _write_sweep(out: Path, comment: str, report, size: str, name: str) -> list:
    rows = np.column_stack([report.perturbation_sizes, report.distances,
                            report.distance_stderrs])
    return _write_table_and_report(out, comment, f"hellinger_vs_{size}.csv",
                                   [size, "d_hellinger", "stderr"], rows, name,
                                   report.to_json_dict())


def _run_likelihood_sweep(cfg: ExperimentConfig, out: Path, comment: str):
    x = cfg.inputs
    ens = series.sample_coefficients(x.prior, x.n_samples, cfg.seed)

    def family(n_approx):
        def approx(u, yy):
            t = metrics.rowwise_quasi_norm(u, x.potential.u_norm)
            return x.potential.misfit(u, yy) + np.sin(t) / n_approx
        return approx

    report = bayes.likelihood_perturbation_sweep(
        x.potential, family, lambda n: 1.0 / n, ens, x.y, x.n_list,
    )
    return _write_sweep(out, comment, report, "psi", "likelihood_sweep.json")


def _run_kl_table(cfg: ExperimentConfig, out: Path, comment: str):
    half = cfg.inputs.initial_halfwidth
    normal = partial(stable.normal_logpdf, 0.0, 1.0)
    cauchy = partial(stable.cauchy_logpdf, 0.0, 1.0)
    fwd = stable.kl_divergence_1d(normal, cauchy, (-half, half))
    rev = stable.kl_divergence_1d(cauchy, normal, (-half, half))
    report_path = out / "kl_table.json"
    _json_dump(report_path, {
        "normal_vs_cauchy": fwd.value if fwd.is_finite else "infinite",
        "cauchy_vs_normal": rev.value if rev.is_finite else "infinite",
    })
    return [report_path]


# kind -> (builds the typed inputs from params, runs the experiment on them)
_EXPERIMENTS = {
    "figure2": (_parse_figure2, _run_figure2),
    "radial_demo": (_parse_projection_demo, partial(_run_projection_demo, kind="radial")),
    "ratio_demo": (_parse_projection_demo, partial(_run_projection_demo, kind="ratio")),
    "three_series": (_parse_three_series, _run_three_series),
    "summability": (_parse_summability, _run_summability),
    "flom": (_parse_flom, _run_flom),
    "bayes_run": (_parse_posterior, _run_bayes_run),
    "data_sweep": (_parse_data_sweep, _run_data_sweep),
    "likelihood_sweep": (_parse_likelihood_sweep, _run_likelihood_sweep),
    "kl_table": (_parse_kl_table, _run_kl_table),
}
EXPERIMENT_KINDS = tuple(_EXPERIMENTS)
_RUNNERS = {kind: runner for kind, (_, runner) in _EXPERIMENTS.items()}


def run(config: ExperimentConfig, out_dir, seed_override=None) -> Path:
    """Execute the experiment; returns the manifest path.

    All numeric artifacts are deterministic functions of the config
    (including its seed); the manifest additionally records wall time
    and per-file content hashes.  A seed_override outside [0, 2^128)
    raises ConfigError.
    """
    if seed_override is not None:
        config = replace(config, seed=_integer(seed_override, "seed override", 0, _SEED_MAX))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    comment = f"config={config.config_hash()} seed={config.seed}"
    started = time.perf_counter()
    files = _RUNNERS[config.experiment](config, out, comment)
    elapsed = time.perf_counter() - started
    manifest = {
        "experiment": config.experiment,
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "wall_time_s": elapsed,
        "files": [
            {
                "name": f.name,
                "sha256": hashlib.sha256(Path(f).read_bytes()).hexdigest(),
            }
            for f in files
        ],
    }
    manifest_path = out / "manifest.json"
    _json_dump(manifest_path, manifest)
    return manifest_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stableinfer",
        description="Heavy-tailed stable field sampling and Bayesian "
                    "well-posedness experiments, driven by JSON configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("--config", required=True, help="path to the JSON config")
    run_p.add_argument("--out", default="stableinfer_out", help="output directory")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    val_p = sub.add_parser("validate", help="parse and cross-check a config")
    val_p.add_argument("--config", required=True)
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = validate_config(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print(f"ok: {config.experiment} (config hash {config.config_hash()})")
        return 0
    try:
        manifest = run(config, args.out, seed_override=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StableInferError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io failure: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {manifest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
