"""Configuration-driven experiment runner.

One experiment per invocation, described by a JSON config file:

    {"experiment": "data_sweep", "seed": 123, "params": {...}}

``stableinfer validate --config cfg.json`` parses the config once into
the typed inputs its experiment uses and cross-checks them, so every
malformed value, and every key the experiment does not read, is a
config error before anything runs.  ``stableinfer run --config cfg.json
[--out DIR] [--seed N]`` executes the experiment on those inputs and
writes strict-JSON and CSV artifacts plus a manifest (file list with
hashes, wall time, config hash).  Identical configs produce
byte-identical numeric artifacts; every CSV carries a comment line with
the config hash and seed.  Exit codes: 0 success, 2 config error,
3 runtime/numeric failure.

Importing this module loads numpy and, of the package, `errors`, `rng`,
`stable` and `ensemble_io` only.  The other layers an experiment kind
runs on (`sequences`, `series`, `metrics`, `bayes`, `gof`) are imported
by the kind's parser, that is, while its config is validated; so `run`
loads no module of the package and its time is the experiment's own.
"""

from __future__ import annotations

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

from . import ensemble_io, stable
from .errors import ConfigError, StableInferError

__all__ = ["ExperimentConfig", "validate_config", "run", "main", "EXPERIMENT_KINDS"]

_SEED_MAX = 2 ** 128 - 1  # Philox keys are 128-bit
# checking a prior evaluates its sequences over the whole truncation; the bound
# also bounds a row, and sample_coefficients' blocks are never shorter than a
# row: a row of 2^23 coefficients is one block of 2^24 uniforms (128 MB)
_MAX_TRUNCATION = 2 ** 23
_MAX_LEVELS = 22  # 2^(levels + 1) - 1 functions, at most _MAX_TRUNCATION
# every other count a run allocates by (a sample count, a depth, a grid size),
# and every samples-by-row matrix it holds, has at most 2^28 entries, 2 GiB of
# doubles (figure2 streams its matrices to its files a row block at a time,
# so for it the bound bounds the files; likelihood_sweep's matrix has a
# sin(||u||) column beside each row).  Measured peaks are about 17 bytes per
# matrix entry for the posterior kinds (likelihood_sweep at one coefficient:
# 65 MB above the imports for 2 x 2*10^6 entries), 24 per flom sample and 120
# per three_series term, so whether a run below the bound fits in memory
# depends on the machine.
_MAX_ENTRIES = 2 ** 28


@dataclass
class ExperimentConfig:
    """A validated config: raw ``params`` (hashed) and the typed ``inputs``."""

    experiment: str
    seed: int
    params: dict
    inputs: SimpleNamespace

    def config_hash(self) -> str:
        """16 hex digits of the sha256 of the canonical JSON config."""
        payload = {"experiment": self.experiment, "seed": self.seed, "params": self.params}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


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
    """Reads one JSON object, keeping each converted value on `inputs` and
    the name of every key it consults on `seen`."""

    def __init__(self, obj, where: str):
        if not isinstance(obj, dict):
            raise ConfigError(f"{where}: expected an object, got {obj!r}")
        self.obj = obj
        self.where = where
        self.inputs = SimpleNamespace()
        self.seen = set()

    def get(self, name: str, default=None):
        self.seen.add(name)
        return self.obj.get(name, default)

    def read(self, name: str, convert, default=_REQUIRED, **kwargs):
        if name not in self.obj and default is _REQUIRED:
            raise ConfigError(f"{self.where}: missing required parameter {name!r}")
        value = convert(self.get(name, default), f"{self.where}.{name}", **kwargs)
        setattr(self.inputs, name, value)
        return value

    def done(self, value=None):
        """value, once no key of the object is left unconsulted: a key that
        no parser reads is a typo, or a parameter of another kind."""
        unknown = sorted(set(self.obj) - self.seen)
        if unknown:
            raise ConfigError(f"{self.where}: unknown key {', '.join(map(repr, unknown))}")
        return value


def _parse_sequence(obj, where: str):
    from . import sequences

    if not isinstance(obj, dict):
        return sequences.PowerLaw(_number(obj, where), 0.0)
    r = _Params(obj, where)
    kind = r.get("kind")
    if kind == "power":
        seq = sequences.PowerLaw(r.read("amplitude", _number), r.read("exponent", _number))
    elif kind == "powerlog":
        seq = sequences.PowerLogLaw(r.read("amplitude", _number), r.read("exponent", _number),
                                    r.read("log_exponent", _number))
    elif kind == "explicit":
        seq = sequences.Explicit(tuple(r.read("values", _list, item=_number)),
                                 r.read("tail", _parse_sequence) if r.get("tail") else None)
    else:
        raise ConfigError(f"{where}: unknown sequence kind {kind!r} "
                          "(expected power | powerlog | explicit)")
    return r.done(seq)


def _parse_basis(obj, where: str):
    from . import series

    if obj is None:
        return series.EuclideanSequence(q=2.0)
    r = _Params(obj, where)
    kind = r.get("kind")
    if kind == "euclidean":
        return r.done(series.EuclideanSequence(q=r.read("q", _number, 2.0, low=0)))
    if kind in ("haar", "hat"):
        family = series.HaarWavelet if kind == "haar" else series.HatHierarchical
        return r.done(family(r.read("levels", _integer, low=0, high=_MAX_LEVELS),
                             r.read("grid_size", _integer, 2 ** 14)))
    if kind == "eigen":
        return r.done(series.Eigenbasis())
    raise ConfigError(f"{where}: unknown basis kind {kind!r} "
                      "(expected euclidean | haar | hat | eigen)")


def _parse_prior(obj, where: str):
    from . import series

    r = _Params(obj, where)
    return r.done(series.StableFieldSpec.make(
        r.read("alpha", _number), r.read("gamma", _parse_sequence),
        r.read("basis", _parse_basis, None),
        r.read("truncation", _integer, high=_MAX_TRUNCATION),
        delta_seq=r.read("delta", _parse_sequence, 0.0),
        beta_seq=r.read("beta", _parse_sequence, 0.0),
    ))


# A kind's parser imports every module its runner uses (see the module
# docstring); the runner's own import then finds it loaded.

def _parse_figure2(r: _Params) -> None:
    from . import series  # noqa: F401

    levels = r.read("levels", _integer, 10, high=_MAX_LEVELS)
    grid_size = r.read("grid_size", _integer, 2 ** 14, high=_MAX_ENTRIES)
    # a row of a family's grid values, and of its 2^(levels + 1) Haar half-cells
    r.read("n_samples", _integer, 20, high=_MAX_ENTRIES // max(grid_size, 2 ** (levels + 1)))


def _parse_projection_demo(r: _Params) -> None:
    from . import gof  # noqa: F401

    r.read("gamma", _number, 1.0, low=0)
    r.read("delta", _number, 0.0)
    r.read("n", _integer, 10 ** 5, high=_MAX_ENTRIES)


def _parse_sequence_test(r: _Params, depth: str) -> None:
    """The sequence, alpha and q of a sequence test, and its depth, read as
    `depth` and no less than `sequences` accepts."""
    from . import sequences

    r.read("sequence", _parse_sequence)
    r.read("alpha", _number, low=0, high=2)
    r.read("q", _number, 1.0, low=0)
    r.read(depth, _integer, 2 ** 14, low=sequences._MIN_PROBE_DEPTH, high=_MAX_ENTRIES)


def _parse_three_series(r: _Params) -> None:
    _parse_sequence_test(r, "depth")
    r.read("threshold", _number, 1.0, low=0)


def _parse_flom(r: _Params) -> None:
    from . import series

    alpha = r.read("prior", _parse_prior).alpha
    r.read("n_samples", _integer, 10 ** 5, high=_MAX_ENTRIES)  # no matrix is held
    series._check_flom_orders(alpha, r.read("p", _number), r.read("q", _number, 1.0))


def _parse_posterior(r: _Params, extra_columns: int = 0) -> None:
    """Prior ensemble, Gaussian-noise potential (identity forward map), data
    y; the runner holds a row of the coefficients and extra_columns more
    entries per sample."""
    from . import bayes, metrics

    dim = r.read("prior", _parse_prior).truncation
    r.read("n_samples", _integer, 10 ** 5, high=_MAX_ENTRIES // (dim + extra_columns))
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
    if r.get("r_bound") is not None:
        r_bound = r.read("r_bound", _number)
        reach = float(np.sqrt((y ** 2).sum())) + max(eps)
        if reach >= r_bound:
            raise ConfigError(
                f"{r.where}: data plus largest perturbation reaches "
                f"{reach}, outside the declared radius r_bound={r_bound} "
                "on which the envelopes hold"
            )


def _parse_likelihood_sweep(r: _Params) -> None:
    _parse_posterior(r, extra_columns=1)  # each row's sin(||u||)
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
    top = _Params(raw, "top level")
    experiment = top.get("experiment")
    if not isinstance(experiment, str) or experiment not in _EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment kind {experiment!r}; expected one of "
            + " | ".join(EXPERIMENT_KINDS)
        )
    seed = _integer(top.get("seed", 0), "seed", 0, _SEED_MAX)
    params = top.get("params", {})
    top.done()
    reader = _Params(params, f"params ({experiment})")
    try:
        _EXPERIMENTS[experiment][0](reader)
        reader.done()
    except ConfigError:
        raise
    except StableInferError as exc:
        raise ConfigError(f"params ({experiment}): {exc}") from exc
    return ExperimentConfig(experiment, seed, params, reader.inputs)


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def _json_dump(path: Path, payload: dict) -> None:
    # strict JSON: a non-finite float is a writer's bug, not an artifact
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _write_table_and_report(out: Path, comment: str, table: str, columns, rows,
                            report: str, payload: dict) -> list:
    ensemble_io.write_matrix_csv(out / table, rows, columns, comment)
    _json_dump(out / report, payload)
    return [out / table, out / report]


def _run_figure2(cfg: ExperimentConfig, out: Path, comment: str):
    from . import series

    x = cfg.inputs
    files = []
    extreme = {}  # max |c| per family
    columns = [f"x{j}" for j in range(x.grid_size)]  # both families' header
    for family in ("cauchy", "gaussian"):
        # one pass over the row blocks writes the SFE1 file and finds the
        # grid's range; the CSV is then written from the file's grid rows,
        # rescaled a block at a time, so no family is ever held whole
        blocks = series._GalleryBlocks(family, x.levels, x.n_samples, cfg.seed, x.grid_size)
        spec_hash = blocks.spec.spec_hash()
        binary = out / f"{family}_fields.sfe1"
        ensemble_io.write_sfe1(binary, spec_hash, cfg.seed,
                               (x.n_samples, blocks.spec.truncation, x.grid_size), blocks)
        lo, span = blocks.offset_and_scale()
        path = out / f"{family}_fields.csv"
        ensemble_io.write_matrix_csv(
            path, ((g - lo) / span for g in ensemble_io._grid_blocks(binary)),
            columns, f"{comment} family={family} spec_hash={spec_hash}",
        )
        files += [path, binary]
        extreme[family] = blocks.extreme
    contrast = float(extreme["cauchy"] / extreme["gaussian"])
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
    from . import gof

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
    from . import sequences

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
            # describes the partial sums; the verdict itself is exact
            "note": "finite-depth numeric diagnostic, not a proof",
        })


def _run_summability(cfg: ExperimentConfig, out: Path, comment: str):
    from . import sequences

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
    from . import series

    x = cfg.inputs
    # sampled and reduced one row block at a time: the rows are never all held
    est = series.flom_estimate(x.prior, x.n_samples, cfg.seed, x.p, x.q)
    return _write_table_and_report(
        out, comment, "truncation_trace.csv", ["truncation", "estimate"],
        np.asarray(est.truncation_trace), "flom.json", {
            "estimate": est.estimate, "stderr": est.stderr,
            "stderr_reason": est.stderr_reason, "tail_index": est.tail_index,
            "truncation_trace": [[int(n), v] for n, v in est.truncation_trace],
        })


def _run_bayes_run(cfg: ExperimentConfig, out: Path, comment: str):
    from . import bayes, series

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
    from . import bayes, series

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
    from . import bayes, metrics, series

    x = cfg.inputs
    d = x.prior.truncation
    # row i holds sample i's coefficients and, in column d, its sin(||u||),
    # formed once per sample from each sampled block while it is in the
    # cache; the perturbation sin(||u||)/N travels as a column of the rows,
    # so every misfit stays row-local and no N forms it again.  Rows of one
    # coefficient are stored by column, so a misfit reads contiguous memory;
    # longer rows stay row-major, so numpy sums each as it sums an ensemble row
    rows = np.empty((x.n_samples, d + 1), order="F" if d == 1 else "C")
    series._warn_unless_summable(x.prior)
    for start, block in series._sampled_blocks(x.prior, x.n_samples, cfg.seed, rows[:, :d]):
        np.sin(metrics.rowwise_quasi_norm(block, x.potential.u_norm),
               out=rows[start:start + len(block), d])
    misfit = x.potential.misfit

    def base(r, yy):
        return misfit(r[:, :d], yy)

    def family(n_approx):
        return lambda r, yy: base(r, yy) + r[:, d] / n_approx

    report = bayes.likelihood_perturbation_sweep(
        replace(x.potential, misfit=base), family, lambda n: 1.0 / n, rows, x.y, x.n_list,
    )
    report.seed = cfg.seed  # the sweep sees bare rows; they are sampled from this seed
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
    "summability": (partial(_parse_sequence_test, depth="probe_depth"), _run_summability),
    "flom": (_parse_flom, _run_flom),
    "bayes_run": (_parse_posterior, _run_bayes_run),
    "data_sweep": (_parse_data_sweep, _run_data_sweep),
    "likelihood_sweep": (_parse_likelihood_sweep, _run_likelihood_sweep),
    "kl_table": (_parse_kl_table, _run_kl_table),
}
EXPERIMENT_KINDS = tuple(_EXPERIMENTS)
_RUNNERS = {kind: runner for kind, (_, runner) in _EXPERIMENTS.items()}


def _file_sha256(path) -> str:
    """The sha256 of a file, read 1 MB at a time (an artifact can be tens
    of MB; hashlib.file_digest needs Python 3.11)."""
    digest = hashlib.sha256()
    buffer = bytearray(1 << 20)
    view = memoryview(buffer)
    with open(path, "rb") as fh:
        while size := fh.readinto(buffer):
            digest.update(view[:size])
    return digest.hexdigest()


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
    config_hash = config.config_hash()
    comment = f"config={config_hash} seed={config.seed}"
    started = time.perf_counter()
    files = _RUNNERS[config.experiment](config, out, comment)
    elapsed = time.perf_counter() - started
    manifest = {
        "experiment": config.experiment,
        "config_hash": config_hash,
        "seed": config.seed,
        "wall_time_s": elapsed,
        "files": [
            {
                "name": f.name,
                "sha256": _file_sha256(f),
            }
            for f in files
        ],
    }
    manifest_path = out / "manifest.json"
    _json_dump(manifest_path, manifest)
    return manifest_path


def main(argv=None) -> int:
    import argparse

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
