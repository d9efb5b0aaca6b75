"""End-to-end benchmark of stableinfer, measured from outside the program.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each operation of a workload runs in a
fresh Python process, one at a time, against the package in ./src, and
its outputs are checked against bench/oracles.py.  A run repeats whole
rounds of the workload's operations until S seconds have passed and at
least two rounds have run, and reports, for each operation, its median
over the rounds, summed over the workload's operations.  Times are
scaled to a reference host speed by a probe process (bench/probe.py)
run between the operations.

--trace 0 reports the end-to-end metrics (wall_s, setup_s, work_s,
peak_rss_mb); --trace 1 runs the same rounds with bench/tracer.py
installed in every child and reports the per-layer metrics instead.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
RUN_DEADLINE_S = 170.0  # a run must end within 180 s, whatever its children do
MIN_ROUNDS = 2

END_TO_END = {"wall_s": "s", "setup_s": "s", "work_s": "s", "peak_rss_mb": "MB"}
TIMES = ("wall_s", "setup_s", "work_s")
# The host's speed swings by tens of percent over seconds to minutes.  A
# reference process (bench/probe.py: numpy, scipy and fixed work of the
# operations' kinds, no stableinfer) runs before and after every
# operation, on the same CPU; the operation's times are scaled by
# PROBE_REF_S over the mean of those two probe times, that is, to a host
# on which the probe takes PROBE_REF_S.
PROBE_REF_S = 1.25

# per-layer self times: metric -> span names whose self times it sums
SELF_TIMES = {
    "cli.validate.s": ("cli.validate_config",),
    "rng.uniform_rows.s": ("rng.uniform_rows",),
    "stable.cms.s": ("stable.standard_stable_from_uniforms",),
    "stable.density.s": ("stable.density",),
    "stable.fractional_moment.s": ("stable.fractional_moment",),
    "stable.kl.s": ("stable.kl_divergence_1d",),
    "sequences.three_series.s": ("sequences.three_series_check",),
    "sequences.summability.s": ("sequences.summability_report",),
    "series.sample_coefficients.s": ("series.sample_coefficients",),
    "series.synthesize.s": ("series.synthesize", "series.synthesize_ensemble"),
    "series.flom.s": ("series.flom_estimate",),
    "bayes.misfit.s": ("bayes.evaluate_misfit_batch",),
    "bayes.posterior.s": ("bayes.posterior", "bayes.normalization_constant"),
    "bayes.sweep.s": ("bayes.data_lipschitz_sweep", "bayes.likelihood_perturbation_sweep"),
    "metrics.hellinger.s": ("metrics.hellinger_with_error", "metrics.hellinger_empirical"),
    "metrics.tv.s": ("metrics.total_variation_empirical",),
    "metrics.quasi_norm.s": ("metrics.quasi_norm", "metrics.rowwise_quasi_norm"),
    "ensemble_io.csv.s": ("ensemble_io.write_matrix_csv", "ensemble_io.write_ensemble_csv"),
    "ensemble_io.sfe1.s": ("ensemble_io.write_sfe1",),
    "cli.runner.s": ("cli.runner",),
    "cli.manifest.s": ("cli.run",),  # run() minus the runner: hashing and the manifest
}
COUNTS = {
    "rng.uniforms": "count", "stable.cms.draws": "count", "stable.density.points": "count",
    "stable.quad.calls": "count", "stable.quad.warnings": "count",
    "series.coefficients": "count", "series.grid_values": "count",
    "bayes.misfit.rows": "count", "bayes.posteriors": "count",
    "ensemble_io.csv.bytes": "bytes", "ensemble_io.sfe1.bytes": "bytes",
    "cli.artifact_bytes": "bytes",
}
PER_LAYER = {
    "import.stableinfer.s": "s", "import.scipy.s": "s",
    **{name: "s" for name in SELF_TIMES}, **COUNTS, "bayes.misfit.useful_ratio": "ratio",
}


def now() -> float:
    # CLOCK_MONOTONIC is shared by every process, so it compares with child.py
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Record:
    """One operation run: its timings, peak memory, check result and trace."""

    name: str
    wall_s: float
    peak_rss_mb: float
    setup_s: float = 0.0
    work_s: float = 0.0
    problems: list = field(default_factory=list)
    digest: str = ""
    layers: dict = field(default_factory=dict)
    scale: float = 1.0  # host speed factor from the probes around it

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one process at a time, each on one thread
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(cmd: list, stderr_path: Path, timeout_s: float) -> tuple[int, float, float]:
    """Run cmd to completion; returns (exit code, spawn time, exit time)."""
    with open(stderr_path, "wb") as err:
        started = now()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=child_env(), cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        timer = threading.Timer(max(timeout_s, 1.0), _kill, (pidfd,))
        timer.start()
        try:
            _, status = os.waitpid(proc.pid, 0)
            ended = now()
        finally:
            timer.cancel()
            timer.join()
            os.close(pidfd)
    # reaped here, at the exit time noted; tell Popen, so that it does not wait again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, started, ended


def probe(work: Path, timeout_s: float) -> float:
    """Wall time of one reference process (bench/probe.py), spawned as the
    operations are."""
    code, started, ended = spawn([sys.executable, str(HERE / "probe.py")],
                                 work / "probe-stderr.txt", timeout_s)
    if code != 0:
        raise RuntimeError(f"probe process exited with code {code}")
    return ended - started


def _kill(pidfd: int) -> None:
    try:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
    except ProcessLookupError:
        pass


def execute(op: workloads.Op, op_dir: Path, trace: bool, timeout_s: float) -> tuple[Record, dict]:
    """Run one operation in a fresh process; returns its record and result."""
    op_dir.mkdir(parents=True)
    spec = dict(op.spec, name=op.name, trace=trace, out=str(op_dir / "out"))
    if spec["kind"] == "cli":
        config_path = op_dir / "config.json"
        config_path.write_text(json.dumps(spec.pop("config"), indent=1), encoding="utf-8")
        spec["config_path"] = str(config_path)
    (op_dir / "op.json").write_text(json.dumps(spec), encoding="utf-8")
    result_path = op_dir / "result.json"
    cmd = [sys.executable, *(["-X", "importtime"] if trace else []),
           str(HERE / "child.py"), str(op_dir / "op.json"), str(result_path)]
    code, started, ended = spawn(cmd, op_dir / "stderr.txt", timeout_s)
    record = Record(op.name, wall_s=ended - started, peak_rss_mb=0.0)
    if code != 0 or not result_path.exists():
        tail = (op_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
        record.problems.append(f"exit code {code}: {' | '.join(tail)}")
        return record, {}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    record.setup_s = result["work_start"] - started
    record.work_s = result["work_end"] - result["work_start"]
    record.peak_rss_mb = result["peak_rss_kb"] / 1024.0
    if trace:
        record.layers = layer_values(result["trace"], (op_dir / "stderr.txt").read_text(),
                                     op_dir / "out")
    return record, result


def verify(op: workloads.Op, op_dir: Path, result: dict, record: Record) -> None:
    """Check the outputs and fingerprint them for the reproducibility check."""
    out = op_dir / "out"
    try:
        record.problems.extend(op.check(op, out, result))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        record.problems.append(f"unreadable output: {exc!r}")
    if (out / "manifest.json").is_file():
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        fingerprint = json.dumps(manifest["files"], sort_keys=True)
    else:
        measured = ("work_start", "work_end", "peak_rss_kb", "trace")
        fingerprint = json.dumps({k: v for k, v in result.items() if k not in measured},
                                 sort_keys=True)
    record.digest = hashlib.sha256(fingerprint.encode()).hexdigest()


def layer_values(trace: dict, stderr_text: str, out: Path) -> dict:
    values = {name: sum(trace["self_s"].get(span, 0.0) for span in spans)
              for name, spans in SELF_TIMES.items()}
    values.update({name: trace["counts"].get(name, 0) for name in COUNTS})
    values.update(tracer.import_times(stderr_text))
    if (out / "manifest.json").exists():
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        values["cli.artifact_bytes"] = sum((out / f["name"]).stat().st_size
                                           for f in manifest["files"])
    values["bayes.posterior.rows"] = trace["counts"].get("bayes.posterior.rows", 0)
    return values


def summarise(rounds: list, trace: bool, scaled: bool = True) -> dict:
    """Each operation's median over the rounds, summed over the workload's
    operations (peak_rss_mb: the largest); times scaled by Record.scale."""
    if trace:
        names = (*(n for n in PER_LAYER if n != "bayes.misfit.useful_ratio"), "bayes.posterior.rows")
        value = lambda r, name: r.layers.get(name, 0)  # noqa: E731
    else:
        names = tuple(END_TO_END)
        value = lambda r, name: getattr(r, name) * (  # noqa: E731
            r.scale if scaled and name in TIMES else 1.0)
    per_op = [{name: statistics.median(value(r, name) for r in column) for name in names}
              for column in zip(*rounds)]
    total = {name: sum(op[name] for op in per_op) for name in names}
    if not trace:
        total["peak_rss_mb"] = max(op["peak_rss_mb"] for op in per_op)
        return total
    rows = total.pop("bayes.posterior.rows")
    total["bayes.misfit.useful_ratio"] = rows / total["bayes.misfit.rows"] \
        if total["bayes.misfit.rows"] else 0.0
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stableinfer" / "__init__.py").is_file():
        print(f"error: no src/stableinfer under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2

    ops = workloads.WORKLOADS[args.workload](args.seed)
    trace = bool(args.trace)
    # the two vCPUs slow down independently, so the probes measure the
    # speed of the operations only on the same one: pin this process and,
    # by inheritance, every child to one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    started = now()
    rounds: list[list[Record]] = []
    try:
        work.mkdir(parents=True)
        last_probe = None if trace else probe(work, RUN_DEADLINE_S)
        while len(rounds) < MIN_ROUNDS or now() - started < args.seconds:
            records = []
            for i, op in enumerate(ops):
                op_dir = work / f"round{len(rounds)}-{i}"
                record, result = execute(op, op_dir, trace, started + RUN_DEADLINE_S - now())
                if result:
                    verify(op, op_dir, result, record)
                shutil.rmtree(op_dir)
                records.append(record)
                if not trace:
                    next_probe = probe(work, started + RUN_DEADLINE_S - now())
                    record.scale = PROBE_REF_S / ((last_probe + next_probe) / 2.0)
                    last_probe = next_probe
                print(f"round {len(rounds)} {op.name}: wall {record.wall_s:.3f} s, setup "
                      f"{record.setup_s:.3f} s, work {record.work_s:.3f} s, peak "
                      f"{record.peak_rss_mb:.0f} MB, scale {record.scale:.3f}"
                      + (f", FAILED: {record.problems}" if record.failed else ""), flush=True)
            rounds.append(records)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    # the program is deterministic in its inputs: every round must
    # reproduce the first bit for bit
    reproducible = all(r.digest == first.digest for records in rounds
                       for r, first in zip(records, rounds[0]) if not r.failed)
    values = summarise(rounds, trace)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in (PER_LAYER if trace else END_TO_END).items()}
    attempted = sum(len(records) for records in rounds)
    failed = sum(r.failed for records in rounds for r in records)
    # with --trace 1 this is the traced work_s, for the tracing overhead
    work_s = sum(statistics.median(r.work_s for r in column) for column in zip(*rounds))
    raw = summarise(rounds, trace, scaled=False)
    print(f"{args.workload}: {len(rounds)} rounds of {len(ops)} operations in "
          f"{now() - started:.1f} s; unscaled work_s {work_s:.3f}"
          + ("" if trace else f", wall_s {raw['wall_s']:.3f}, setup_s {raw['setup_s']:.3f}")
          + ("" if reproducible else "; outputs differ between rounds"))
    print(json.dumps({"correct": reproducible, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
