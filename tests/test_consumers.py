"""The package's outside users run against it: the benchmark's tracer
binds every public name of every layer, every config the benchmark runs
validates and the benchmark's oracles pass their self-test, each demo script runs clean
(the series diagnostics printing the text they always printed), and
`stableinfer run` writes the artifacts it always wrote for each config in
demos/configs."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args, cwd, *paths, timeout=120):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(ROOT / p) for p in paths))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=timeout)


# -B: importing the tracer writes no bytecode under bench/
_INSTALL = """
import importlib
import tracer
for layer in tracer.LAYERS:
    module = importlib.import_module("stableinfer." + layer)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, (layer, missing)
tracer.install(tracer.Tracer("t"))
"""


def test_benchmark_tracer_installs(tmp_path):
    proc = _run(["-B", "-c", _INSTALL], tmp_path, "src", "bench")
    assert proc.returncode == 0, proc.stderr


# every config the benchmark runs: its config files, each `cli` operation
# of each workload for two seeds, and the demo configs it copies
_VALIDATE_BENCHMARK_CONFIGS = """
import json, pathlib, sys
import workloads
from stableinfer.cli import validate_config
from stableinfer.errors import ConfigError
root = pathlib.Path(sys.argv[1])
texts = {str(p): p.read_text(encoding="utf-8")
         for d in ("bench/configs", "demos/configs") for p in sorted((root / d).glob("*.json"))}
for name, workload in workloads.WORKLOADS.items():
    for seed in (1, 2):
        for op in workload(seed):
            if op.spec["kind"] == "cli":
                texts[f"{name}/{seed}/{op.name}"] = json.dumps(op.spec["config"])
assert len(texts) > 10, sorted(texts)
for where, text in texts.items():
    try:
        validate_config(text)
    except ConfigError as exc:
        raise SystemExit(f"{where}: {exc}")
"""


def test_every_benchmark_config_validates(tmp_path):
    proc = _run(["-B", "-c", _VALIDATE_BENCHMARK_CONFIGS, str(ROOT)], tmp_path, "src", "bench")
    assert proc.returncode == 0, proc.stderr


def test_benchmark_oracles_pass_their_selftest():
    # from the repository root, as the benchmark runs; its perturbation
    # tests work in a temporary directory under the git-ignored .bench_out/
    proc = _run(["-B", "bench/selftest.py"], ROOT, "src", timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    # a copy, so the files a demo writes next to itself land in tmp_path
    script = shutil.copy(demo, tmp_path)
    proc = _run(["-W", "error::RuntimeWarning", script], tmp_path, "src")
    assert proc.returncode == 0, proc.stderr
    if demo.stem == "series_diagnostics":
        # it prints every kind of sequences verdict, and prints it deterministically
        assert proc.stdout == (ROOT / "tests" / "series_diagnostics.stdout").read_text()


CONFIGS = sorted((ROOT / "demos" / "configs").glob("*.json"))


@pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_demo_config_artifacts_keep_their_digests(tmp_path, config):
    # every artifact is a deterministic function of the config, so it keeps
    # the digest in tests/demo_configs.sha256 (`sha256sum` format); the
    # manifest, which records the wall time, is left out
    proc = _run(["-W", "error::RuntimeWarning", "-m", "stableinfer.cli", "run", "--config",
                 str(config), "--out", str(tmp_path / config.stem)], tmp_path, "src")
    assert proc.returncode == 0, proc.stderr
    want = {}
    for line in (ROOT / "tests" / "demo_configs.sha256").read_text().splitlines():
        digest, name = line.split("  ")
        if name.startswith(config.stem + "/"):
            want[name] = digest
    assert want
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in want}
    assert got == want
    written = {f"{config.stem}/{p.name}" for p in (tmp_path / config.stem).iterdir()}
    assert written - set(want) == {f"{config.stem}/manifest.json"}
    # every artifact the run reports is pinned, so a new one must be added to the digests
    manifest = json.loads((tmp_path / config.stem / "manifest.json").read_text())
    assert {f"{config.stem}/{f['name']}": f["sha256"] for f in manifest["files"]} == want
