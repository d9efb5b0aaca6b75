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

import numpy as np
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


# The CMS sampler's sines and cosines are built from +, - and * alone, so
# glibc's FMA and AVX2 variants of sin and cos, masked here, no longer move
# the gallery or the alpha = 1.5 flom run.  numpy's AVX-512 loops
# (NPY_DISABLE_CPU_FEATURES) still move the galleries, through tan and log1p,
# so that mask is not tried; where those loops are off, numpy takes tan,
# log1p and ** from glibc, whose FMA variants this mask moves, and the test
# does not apply.  A glibc that ignores the tunable runs its default
# setting, which must match as well.
_GLIBC_FMA_MASK = "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX2_Usable,-FMA_Usable,-AVX512F"
_NUMPY_AVX512 = (getattr(np, "_core", None) or np.core)._multiarray_umath.__cpu_features__["AVX512_SKX"]
_DIGESTS = """
import json, sys
from stableinfer.cli import run, validate_config
digests = {}
for name, text in json.loads(sys.argv[1]).items():
    manifest = json.loads(run(validate_config(text), name).read_text())
    digests.update({name + "/" + f["name"]: f["sha256"] for f in manifest["files"]})
print(json.dumps(digests))
"""


@pytest.mark.skipif(not _NUMPY_AVX512, reason="numpy's tan, log1p and ** come from glibc here")
def test_sampler_digests_hold_under_glibc_fma_mask(tmp_path):
    configs = json.dumps({
        "gallery": (ROOT / "demos" / "configs" / "gallery.json").read_text(),
        # the 13-level gallery of test_cli's test_gallery_13_levels_digests
        "gallery_13_levels": json.dumps({"experiment": "figure2", "seed": 11, "params": {
            "levels": 13, "n_samples": 2, "grid_size": 2 ** 14}}),
        "flom_alpha1.5": json.dumps({"experiment": "flom", "seed": 5, "params": {
            "prior": {"alpha": 1.5, "gamma": {"kind": "power", "amplitude": 1.0, "exponent": 1.0},
                      "truncation": 64},
            "p": 0.5, "q": 0.5, "n_samples": 2 * 10 ** 4}}),
    })
    digests = []
    for mask in (None, _GLIBC_FMA_MASK):
        env = {k: v for k, v in os.environ.items() if k != "GLIBC_TUNABLES"}
        env["PYTHONPATH"] = str(ROOT / "src")
        if mask:
            env["GLIBC_TUNABLES"] = mask
        out = tmp_path / ("masked" if mask else "default")
        out.mkdir()
        proc = subprocess.run([sys.executable, "-c", _DIGESTS, configs], cwd=out, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(json.loads(proc.stdout))
    assert len(digests[0]) == 12  # five files per gallery, two for flom
    assert digests[1] == digests[0]
