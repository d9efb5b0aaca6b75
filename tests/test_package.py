"""The package loads lazily: a fresh process imports only the modules its
work calls, and the lazy public API is the eager one."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import stableinfer
from stableinfer.cli import EXPERIMENT_KINDS

SRC = Path(__file__).resolve().parents[1] / "src"

_POWER = {"kind": "power", "amplitude": 1.0, "exponent": 2.0}
_PRIOR = {"alpha": 1.0, "gamma": _POWER, "truncation": 2}
_POSTERIOR = {"prior": _PRIOR, "n_samples": 200, "y": [0.5, -0.5]}
# one small config per experiment kind
SMALL_PARAMS = {
    "figure2": {"levels": 2, "n_samples": 2, "grid_size": 16},
    "radial_demo": {"n": 200},
    "ratio_demo": {"n": 200},
    "three_series": {"sequence": _POWER, "alpha": 1.0, "depth": 1024},
    "summability": {"sequence": _POWER, "alpha": 1.0, "probe_depth": 1024},
    "flom": {"prior": _PRIOR, "p": 0.5, "n_samples": 200},
    "bayes_run": _POSTERIOR,
    "data_sweep": dict(_POSTERIOR, epsilons=[0.2, 0.1]),
    "likelihood_sweep": dict(_POSTERIOR, n_list=[4, 8]),
    "kl_table": {},
}


def _python(script: str, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_every_kind_has_a_small_config():
    assert set(SMALL_PARAMS) == set(EXPERIMENT_KINDS)


def test_importing_the_cli_loads_no_layer_it_does_not_call(tmp_path):
    proc = _python("""
        import json
        import sys

        import stableinfer
        from stableinfer import cli, stable

        print(json.dumps([m for m in sys.modules if m.split(".")[0] in ("stableinfer", "argparse")]))
    """, tmp_path)
    assert proc.returncode == 0, proc.stderr
    # no sequences, series, metrics, bayes or gof, and no argparse
    assert sorted(json.loads(proc.stdout)) == [
        "stableinfer", "stableinfer.cli", "stableinfer.ensemble_io", "stableinfer.errors",
        "stableinfer.rng", "stableinfer.stable"]


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_run_imports_nothing_after_validation(tmp_path, kind):
    # a kind's modules load while its config is validated, so none is
    # imported inside the timed run; each kind gets a fresh process, so
    # no earlier kind's imports can hide a missing one
    config = json.dumps({"experiment": kind, "seed": 3, "params": SMALL_PARAMS[kind]})
    proc = _python(f"""
        import sys

        from stableinfer import cli

        def loaded():
            return {{m for m in sys.modules if m.split(".")[0] == "stableinfer"}}

        config = cli.validate_config({config!r})
        before = loaded()
        cli.run(config, "out")
        assert loaded() == before, sorted(loaded() - before)
    """, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_lazy_names_are_the_home_modules_objects(tmp_path):
    # in a fresh process, where every name goes through the package's
    # __getattr__ on first access
    proc = _python("""
        import importlib

        import stableinfer
        assert stableinfer.bayes is importlib.import_module("stableinfer.bayes")
        for name in stableinfer.__all__:
            home = stableinfer._HOME.get(name, "errors")
            module = importlib.import_module("stableinfer." + home)
            assert name in module.__all__, (home, name)
            assert getattr(stableinfer, name) is getattr(module, name), name
        try:
            stableinfer.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("an unknown name resolved")
        assert not hasattr(stableinfer, "no_such_name")
    """, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_star_import_gives_every_public_name(tmp_path):
    proc = _python("""
        from stableinfer import *
        import stableinfer

        missing = [name for name in stableinfer.__all__ if name not in globals()]
        assert not missing, missing
        assert stable_pdf is stableinfer.stable.stable_pdf
        assert ConfigError is stableinfer.errors.ConfigError
    """, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_dir_covers_the_public_names_and_submodules():
    listed = set(dir(stableinfer))
    assert set(stableinfer.__all__) <= listed
    assert {"bayes", "cli", "series", "stable"} <= listed
    assert len(stableinfer.__all__) == len(set(stableinfer.__all__))


def test_lazy_imports_show_in_importtime(tmp_path):
    # the benchmark's import.stableinfer.s layer reads `python -X importtime`,
    # which sees imports through the import statement's machinery only
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import stableinfer; stableinfer.bayes; stableinfer.stable_pdf"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    reported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert {"stableinfer", "stableinfer.bayes", "stableinfer.stable"} <= reported


def test_manifest_records_the_versions_without_importing_scipy(tmp_path):
    # the last bits of the artifacts depend on these (README: host classes)
    config = json.dumps({"experiment": "flom", "seed": 3, "params": SMALL_PARAMS["flom"]})
    proc = _python(f"""
        import json
        import os
        import sys

        import numpy as np
        from numpy._core._multiarray_umath import __cpu_features__
        from stableinfer import cli

        def versions(out):
            return json.loads(cli.run(cli.validate_config({config!r}), out).read_text())["versions"]

        first = versions("a")
        assert "scipy" not in sys.modules and "scipy" not in first, first
        assert first == {{
            "python": sys.version, "numpy": np.__version__,
            "glibc": os.confstr("CS_GNU_LIBC_VERSION"),
            "numpy_cpu_features": sorted(k for k, on in __cpu_features__.items() if on)}}
        import scipy
        assert versions("b") == dict(first, scipy=scipy.__version__)
    """, tmp_path)
    assert proc.returncode == 0, proc.stderr
