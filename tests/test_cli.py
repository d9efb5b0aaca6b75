"""Config validation, experiment artifacts, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from stableinfer.cli import EXPERIMENT_KINDS, main, run, validate_config
from stableinfer.errors import ConfigError
from stableinfer.series import Eigenbasis, StableFieldSpec


def cfg_text(experiment, params=None, seed=11):
    return json.dumps({"experiment": experiment, "seed": seed, "params": params or {}})


DEMO_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "demos" / "configs").glob("*.json"))

CAUCHY_SCALAR_PRIOR = {
    "alpha": 1.0,
    "gamma": {"kind": "explicit", "values": [1.0]},
    "truncation": 1,
    "basis": {"kind": "euclidean", "q": 1.0},
}


class TestValidateConfig:
    def test_minimal_gallery_config(self):
        cfg = validate_config(cfg_text("figure2"))
        assert cfg.experiment == "figure2"
        assert cfg.config_hash() == validate_config(cfg_text("figure2")).config_hash()

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            validate_config(cfg_text("nonsense"))

    def test_bad_json_reports_location(self):
        with pytest.raises(ConfigError, match="line"):
            validate_config("{not json")

    @pytest.mark.parametrize("text", [
        '{"experiment": "kl_table", "seed": ' + "1" * 5000 + "}",
        '{"experiment": "kl_table", "params": ' + "[" * 10 ** 5 + "]" * 10 ** 5 + "}",
    ])
    def test_json_the_parser_cannot_hold_is_a_config_error(self, text):
        with pytest.raises(ConfigError, match="not valid JSON"):
            validate_config(text)

    def test_flom_moment_condition(self):
        params = {"prior": CAUCHY_SCALAR_PRIOR, "p": 1.5, "q": 2.0}
        with pytest.raises(ConfigError, match="p < alpha"):
            validate_config(cfg_text("flom", params))

    def test_epsilons_must_decrease(self):
        params = {"prior": CAUCHY_SCALAR_PRIOR, "epsilons": [0.1, 0.2]}
        with pytest.raises(ConfigError, match="decreasing"):
            validate_config(cfg_text("data_sweep", params))

    def test_sweep_radius_checked(self):
        params = {"prior": CAUCHY_SCALAR_PRIOR, "y": 1.0,
                  "epsilons": [0.5, 0.25], "r_bound": 1.2}
        with pytest.raises(ConfigError, match="r_bound"):
            validate_config(cfg_text("data_sweep", params))

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            validate_config(json.dumps({"experiment": "kl_table", "seed": -1}))

    @pytest.mark.parametrize("seed", [True, 2 ** 128, 1.5, "7"])
    def test_seed_must_be_a_philox_key(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            validate_config(json.dumps({"experiment": "kl_table", "seed": seed}))
        assert validate_config(json.dumps({"experiment": "kl_table",
                                           "seed": 2 ** 128 - 1})).seed == 2 ** 128 - 1

    def test_inputs_are_typed(self):
        cfg = validate_config(cfg_text("data_sweep", {
            "prior": CAUCHY_SCALAR_PRIOR, "y": 0.5, "epsilons": [0.2, 0.1],
            "n_samples": 1e3}))
        x = cfg.inputs
        assert isinstance(x.prior, StableFieldSpec)
        assert x.y.tolist() == [0.5] and x.direction.tolist() == [1.0]
        assert x.epsilons == [0.2, 0.1]
        assert x.n_samples == 1000 and isinstance(x.n_samples, int)

    def test_data_needs_one_entry_per_coefficient(self):
        with pytest.raises(ConfigError, match=r"\.y: expected 1 entries"):
            validate_config(cfg_text("bayes_run", {"prior": CAUCHY_SCALAR_PRIOR,
                                                   "y": [0.0, 1.0]}))
        with pytest.raises(ConfigError, match=r"\.direction: expected 1 entries"):
            validate_config(cfg_text("data_sweep", {
                "prior": CAUCHY_SCALAR_PRIOR, "y": 0.0, "direction": [1.0, 1.0],
                "epsilons": [0.2, 0.1]}))

    def test_eigen_basis_needs_no_eigenvalues(self):
        prior = dict(CAUCHY_SCALAR_PRIOR, basis={"kind": "eigen"})
        cfg = validate_config(cfg_text("flom", {"prior": prior, "p": 0.5}))
        assert cfg.inputs.prior.basis == Eigenbasis()

    def test_malformed_values_are_config_errors(self):
        bad_basis = dict(CAUCHY_SCALAR_PRIOR, basis="haar")
        with pytest.raises(ConfigError, match="basis"):
            validate_config(cfg_text("flom", {"prior": bad_basis, "p": 0.5}))
        bad_alpha = dict(CAUCHY_SCALAR_PRIOR, alpha="fast")
        with pytest.raises(ConfigError):
            validate_config(cfg_text("flom", {"prior": bad_alpha, "p": 0.5}))

    def test_all_kinds_are_registered(self):
        from stableinfer.cli import _RUNNERS
        assert set(_RUNNERS) == set(EXPERIMENT_KINDS)


class TestRunExperiments:
    def test_gallery_determinism(self, tmp_path):
        cfg = validate_config(cfg_text(
            "figure2", {"levels": 4, "n_samples": 5, "grid_size": 256}))
        m1 = run(cfg, tmp_path / "a")
        m2 = run(cfg, tmp_path / "b")
        for name in ("cauchy_fields.csv", "gaussian_fields.csv",
                     "cauchy_fields.sfe1", "gaussian_fields.sfe1",
                     "gallery_summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        h1 = {f["name"]: f["sha256"] for f in json.loads(m1.read_text())["files"]}
        h2 = {f["name"]: f["sha256"] for f in json.loads(m2.read_text())["files"]}
        assert h1 == h2

    def test_gallery_csv_format(self, tmp_path):
        cfg = validate_config(cfg_text(
            "figure2", {"levels": 3, "n_samples": 4, "grid_size": 128}))
        run(cfg, tmp_path)
        lines = (tmp_path / "cauchy_fields.csv").read_text().splitlines()
        assert lines[0].startswith("# config=")
        assert "seed=11" in lines[0]
        assert lines[1].split(",")[0] == "x0"
        assert len(lines) == 2 + 4

    def test_seed_override_changes_artifacts(self, tmp_path):
        cfg = validate_config(cfg_text(
            "figure2", {"levels": 3, "n_samples": 4, "grid_size": 128}))
        run(cfg, tmp_path / "a", seed_override=99)
        run(cfg, tmp_path / "b")
        a = (tmp_path / "a" / "cauchy_fields.csv").read_text().splitlines()[2]
        b = (tmp_path / "b" / "cauchy_fields.csv").read_text().splitlines()[2]
        assert a != b

    def test_kl_table_values(self, tmp_path):
        cfg = validate_config(cfg_text("kl_table"))
        run(cfg, tmp_path)
        table = json.loads((tmp_path / "kl_table.json").read_text())
        assert table["cauchy_vs_normal"] == "infinite"
        # mpmath quadrature at 40 digits
        assert table["normal_vs_cauchy"] == pytest.approx(0.2592445324888622636, rel=1e-9)

    @pytest.mark.parametrize("kind", ["radial_demo", "ratio_demo"])
    def test_projection_demos_pass_ks(self, tmp_path, kind):
        cfg = validate_config(cfg_text(kind, {"gamma": 1.0, "n": 20000}))
        run(cfg, tmp_path)
        report = json.loads((tmp_path / "ks_report.json").read_text())
        assert report["passes"]

    def test_three_series_artifact(self, tmp_path):
        cfg = validate_config(cfg_text("three_series", {
            "sequence": {"kind": "power", "amplitude": 1.0, "exponent": 2.0},
            "alpha": 1.0, "q": 1.0, "threshold": 1.0, "depth": 2048,
        }))
        run(cfg, tmp_path)
        report = json.loads((tmp_path / "three_series.json").read_text())
        assert report["verdict"] == "convergent"
        rows = (tmp_path / "partial_sums.csv").read_text().splitlines()
        assert rows[1] == "depth,s0,s1,s2"

    def test_kl_and_stable_series_use_no_scipy_quadrature(self, tmp_path):
        # in a fresh process: importing the CLI loads no scipy module; the
        # demo configs, the alpha = 1.5 three-series run, two skewed 200-point
        # densities and a strictly stable moment never import scipy.integrate
        # (and scipy.integrate.quad refuses to run) nor scipy.interpolate; the
        # QUADPACK reference still evaluates, importing scipy.integrate then
        configs = [path.read_text() for path in DEMO_CONFIGS] + [cfg_text("three_series", {
            "sequence": {"kind": "power", "amplitude": 1.0, "exponent": 1.0},
            "alpha": 1.5, "q": 1.0, "threshold": 1.0, "depth": 1024,
        })]
        script = textwrap.dedent(f"""
            import math
            import sys
            from pathlib import Path

            import stableinfer.cli

            loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
            assert not loaded, f"import stableinfer.cli loaded {{len(loaded)}} scipy modules"

            import numpy as np
            from stableinfer import stable
            from stableinfer.cli import run, validate_config

            def refuse(*args, **kwargs):
                raise AssertionError("scipy.integrate.quad was called")

            stable.integrate.quad = refuse
            for i, text in enumerate({configs!r}):
                run(validate_config(text), Path({str(tmp_path)!r}) / str(i))
            for alpha, beta in ((1.5, 0.3), (1.0, 0.4)):
                stable.stable_pdf(stable.validate_params(alpha, beta, 1.0, 0.0), np.linspace(-20, 20, 200))
            delta = 0.3 * 2.0 * math.tan(math.pi * 1.5 / 2.0)  # strictly stable
            stable.fractional_moment(stable.validate_params(1.5, 0.3, 2.0, delta), 0.75)
            for name in ("scipy.integrate", "scipy.interpolate"):
                assert name not in sys.modules, f"{{name}} was imported"

            del stable.integrate.quad
            cauchy = stable._StandardNumericDensity(1.0, 0.0)
            assert math.isclose(cauchy(1.0), 1.0 / (2.0 * math.pi), rel_tol=1e-10)
            assert "scipy.integrate" in sys.modules
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        last = tmp_path / str(len(configs) - 1) / "three_series.json"
        assert json.loads(last.read_text())["verdict"] == "divergent"

    def test_summability_artifact(self, tmp_path):
        cfg = validate_config(cfg_text("summability", {
            "sequence": {"kind": "powerlog", "amplitude": 1.0, "exponent": 1.0,
                         "log_exponent": 2.0},
            "alpha": 1.0, "q": 1.0, "probe_depth": 4096,
        }))
        run(cfg, tmp_path)
        report = json.loads((tmp_path / "summability.json").read_text())
        assert report["verdict"] == "fails_orlicz"

    def test_flom_artifact(self, tmp_path):
        cfg = validate_config(cfg_text("flom", {
            "prior": {"alpha": 1.0, "gamma": {"kind": "power", "amplitude": 1.0,
                                              "exponent": 2.0},
                      "truncation": 32, "basis": {"kind": "euclidean", "q": 1.0}},
            "p": 0.5, "q": 1.0, "n_samples": 5000,
        }))
        run(cfg, tmp_path)
        report = json.loads((tmp_path / "flom.json").read_text())
        assert len(report["truncation_trace"]) == 3

    def test_bayes_run_artifact(self, tmp_path):
        cfg = validate_config(cfg_text("bayes_run", {
            "prior": CAUCHY_SCALAR_PRIOR, "y": 0.0, "n_samples": 20000,
        }))
        run(cfg, tmp_path)
        report = json.loads((tmp_path / "posterior.json").read_text())
        assert report["z"] > 0
        assert report["ess"] > 1000

    def test_data_sweep_artifact(self, tmp_path):
        cfg = validate_config(cfg_text("data_sweep", {
            "prior": CAUCHY_SCALAR_PRIOR, "y": 0.0,
            "epsilons": [0.2, 0.1, 0.05], "n_samples": 50000,
        }))
        run(cfg, tmp_path)
        report = json.loads((tmp_path / "data_sweep.json").read_text())
        assert 0.8 < report["slope"] < 1.2
        rows = (tmp_path / "hellinger_vs_epsilon.csv").read_text().splitlines()
        assert rows[1] == "epsilon,d_hellinger,stderr"

    def test_likelihood_sweep_artifact(self, tmp_path):
        cfg = validate_config(cfg_text("likelihood_sweep", {
            "prior": CAUCHY_SCALAR_PRIOR, "y": 0.0,
            "n_list": [4, 8, 16], "n_samples": 50000,
        }))
        run(cfg, tmp_path)
        report = json.loads((tmp_path / "likelihood_sweep.json").read_text())
        assert 0.8 < report["slope"] < 1.2


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(cfg_text("kl_table"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_validate_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(cfg_text("figure2"))
        assert main(["validate", "--config", str(cfg)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_config_error_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(cfg_text("nonsense"))
        assert main(["validate", "--config", str(cfg)]) == 2

    def test_missing_file_is_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("cfg", DEMO_CONFIGS, ids=[c.stem for c in DEMO_CONFIGS])
    def test_repeated_runs_are_byte_identical(self, tmp_path, cfg):
        manifests = []
        for out in (tmp_path / "t1", tmp_path / "t2"):
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            manifests.append(json.loads((out / "manifest.json").read_text()))
            del manifests[-1]["wall_time_s"]
        assert manifests[0] == manifests[1]  # the same files with the same sha256
        for entry in manifests[0]["files"]:
            name = entry["name"]
            assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()

    @pytest.mark.parametrize("experiment,params,seed_override", [
        ("three_series", {"sequence": 1.0, "alpha": 1.0, "depth": "x"}, None),
        ("flom", {"prior": CAUCHY_SCALAR_PRIOR, "p": 0.5, "n_samples": "many"}, None),
        ("data_sweep", {"prior": CAUCHY_SCALAR_PRIOR, "y": "abc",
                        "epsilons": [0.2, 0.1]}, None),
        ("figure2", {"grid_size": "big"}, None),
        ("radial_demo", {"n": -5}, None),
        ("kl_table", {}, "-1"),
        ("flom", {"prior": dict(CAUCHY_SCALAR_PRIOR, truncation=math.inf), "p": 0.5}, None),
    ])
    def test_malformed_config_exits_2_before_running(self, tmp_path, capsys,
                                                     experiment, params, seed_override):
        # each of these used to validate and then fail in run with a traceback
        cfg = tmp_path / "c.json"
        cfg.write_text(cfg_text(experiment, params))
        if seed_override is None:
            assert main(["validate", "--config", str(cfg)]) == 2
        else:
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                         "--seed", seed_override]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


# Configs from a grammar of the config schema in which any value may be
# replaced by an arbitrary JSON value (including Infinity and NaN, which
# Python's json module reads and writes)
_ANY = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=10,
)
_NUMBER = (st.integers(-2, 40) | st.floats() | st.integers()
           | st.sampled_from([math.inf, -math.inf, math.nan, 1e300, 0.5, True]))


def _or_any(strategy):
    """Mostly the schema's own kind of value, sometimes any JSON value."""
    return st.integers(0, 3).flatmap(lambda k: _ANY if k == 3 else strategy)


def _object(kinds, **fields):
    return st.fixed_dictionaries(
        {"kind": _or_any(st.sampled_from(kinds))},
        optional={name: _or_any(value) for name, value in fields.items()},
    )


_SEQUENCE = st.deferred(lambda: _or_any(_NUMBER | _object(
    ["power", "powerlog", "explicit"], amplitude=_NUMBER, exponent=_NUMBER,
    log_exponent=_NUMBER, values=st.lists(_NUMBER, max_size=3), tail=_SEQUENCE)))
_PRIOR = st.fixed_dictionaries({
    "alpha": _or_any(_NUMBER), "gamma": _SEQUENCE, "truncation": _or_any(_NUMBER),
}, optional={
    "delta": _SEQUENCE, "beta": _SEQUENCE,
    "basis": _or_any(_object(["euclidean", "haar", "hat", "eigen"],
                             q=_NUMBER, levels=_NUMBER, grid_size=_NUMBER)),
})
_SCALARS = ["levels", "grid_size", "n_samples", "q", "r_bound", "u_norm_q",
            "threshold", "depth", "probe_depth", "n", "gamma", "delta",
            "initial_halfwidth", "y", "direction", "noise_variance"]
_PARAMS = st.fixed_dictionaries({
    "prior": _or_any(_PRIOR), "sequence": _SEQUENCE, "alpha": _or_any(_NUMBER),
    "p": _or_any(_NUMBER), "epsilons": _or_any(st.lists(_NUMBER, max_size=4)),
    "n_list": _or_any(st.lists(_NUMBER, max_size=4)),
}, optional={name: _or_any(_NUMBER | st.lists(_NUMBER, max_size=3)) for name in _SCALARS})


@settings(max_examples=400, deadline=None)
@given(experiment=st.sampled_from(EXPERIMENT_KINDS), seed=_or_any(st.integers(0, 2 ** 64)),
       params=_or_any(_PARAMS))
@example(experiment="flom", seed=0, params={"prior": dict(CAUCHY_SCALAR_PRIOR, truncation=math.inf),
                                            "p": 0.5})
def test_validate_raises_only_config_errors(experiment, seed, params):
    text = json.dumps({"experiment": experiment, "seed": seed, "params": params})
    try:
        validate_config(text)
    except ConfigError:
        pass
