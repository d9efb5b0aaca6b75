"""Config validation, experiment artifacts, determinism, exit codes."""

import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stableinfer import (
    flom_estimate,
    likelihood_perturbation_sweep,
    metrics,
    sample_coefficients,
)
from stableinfer.cli import EXPERIMENT_KINDS, _file_sha256, main, run, validate_config
from stableinfer.ensemble_io import write_matrix_csv, write_sfe1
from stableinfer.errors import ConfigError
from stableinfer.series import (
    Eigenbasis,
    StableFieldSpec,
    SummabilityWarning,
    _block_rows,
    _gallery_spec,
    wavelet_gallery_ensemble,
)


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

    def test_gallery_13_levels_digests(self, tmp_path):
        # at 13 levels on 2^14 points every grid value is its own Haar cell,
        # so the CSV encoder formats each one rather than repeating a run's
        # text, and the scale list holds 2^14 - 1 values of 14 distinct ones
        cfg = validate_config(cfg_text(
            "figure2", {"levels": 13, "n_samples": 2, "grid_size": 2 ** 14}))
        manifest = json.loads(run(cfg, tmp_path).read_text())
        assert {f["name"]: f["sha256"] for f in manifest["files"]} == {
            "cauchy_fields.csv": "12a58ecc0ac6c1f5e90e43140ddab1a7666e37d675605317c3a62a3841e6d7b2",
            "cauchy_fields.sfe1": "f1abab25c24962bbe034790254fab341e23f6b0d6765588157f6a04dea543b19",
            "gaussian_fields.csv": "61ace1e73373a7c59bc129de105ce308e8fb0bba37233a899726c222b35dd322",
            "gaussian_fields.sfe1": "5aa0b569a24afb53e3a581d36b7ae6396da6701e7bdcb2a9ec6ef1ef18816ab8",
            "gallery_summary.json": "80a11559d2436249941f67ec35199a3fcd1562889546febb28022be298a7bc72",
        }
        hashes = {family: _gallery_spec(family, 13, 2 ** 14).spec_hash()
                  for family in ("cauchy", "gaussian")}
        assert hashes == {"cauchy": "b09973677051c88b", "gaussian": "e26742f9310c8cd0"}

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
        # (and scipy.integrate.quad refuses to run), scipy.interpolate nor
        # numpy.polynomial (2.5-6 ms to import); the
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
            for name in ("scipy.integrate", "scipy.interpolate", "numpy.polynomial"):
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

    def test_flom_is_the_estimate_of_the_sampled_matrix(self, tmp_path):
        prior = {"alpha": 1.5, "gamma": {"kind": "power", "amplitude": 1.0, "exponent": 1.0},
                 "truncation": 64}
        cfg = validate_config(cfg_text("flom", {"prior": prior, "p": 0.5, "q": 0.5,
                                                "n_samples": 1000}))
        run(cfg, tmp_path)
        report = json.loads((tmp_path / "flom.json").read_text())
        want = flom_estimate(cfg.inputs.prior, 1000, cfg.seed, 0.5, 0.5)
        assert report["truncation_trace"] == [[n, v] for n, v in want.truncation_trace]
        # the benchmark's setting: tail index 3, so the textbook statistics
        # of the sampled matrix stand, to the bit
        ens = sample_coefficients(cfg.inputs.prior, 1000, cfg.seed)
        vals = metrics.rowwise_quasi_norm(ens.coefficients, metrics.QuasiNormSpec(0.5)) ** 0.5
        assert report["estimate"].hex() == float(vals.mean()).hex()
        assert report["stderr"].hex() == float(vals.std(ddof=1) / math.sqrt(1000)).hex()
        assert (report["tail_index"], report["stderr_reason"]) == (3.0, None)

    def test_flom_reports_no_stderr_when_the_variance_is_infinite(self, tmp_path):
        prior = {"alpha": 1.5, "gamma": {"kind": "power", "amplitude": 1.0, "exponent": 1.0},
                 "truncation": 16}
        cfg = validate_config(cfg_text("flom", {"prior": prior, "p": 1.0, "n_samples": 1000}))
        run(cfg, tmp_path)
        report = json.loads((tmp_path / "flom.json").read_text())
        assert report["stderr"] is None and "infinite" in report["stderr_reason"]
        assert report["tail_index"] == 1.5
        want = flom_estimate(cfg.inputs.prior, 1000, cfg.seed, 1.0, 1.0)
        assert report["estimate"] == want.estimate

    @pytest.mark.parametrize("experiment,params", [
        ("data_sweep", {"prior": CAUCHY_SCALAR_PRIOR, "epsilons": [0.1], "n_samples": 1000}),
        ("likelihood_sweep", {"prior": CAUCHY_SCALAR_PRIOR, "n_list": [4],
                              "n_samples": 1000}),
    ], ids=["data_sweep.one_epsilon", "likelihood_sweep.one_n"])
    def test_a_sweep_without_a_fit_writes_strict_json(self, tmp_path, experiment, params):
        # one perturbation leaves no log-log fit: its fields are null, not NaN
        run(validate_config(cfg_text(experiment, params)), tmp_path)

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        reports = {path.name: json.loads(path.read_text(), parse_constant=refuse)
                   for path in tmp_path.glob("*.json")}
        report = reports[f"{experiment}.json"]
        assert (report["slope"], report["intercept"], report["slope_ci"],
                report["fit_residual"]) == (None, None, [None, None], None)

    def test_flom_of_one_sample_reports_no_stderr(self, tmp_path):
        # p = 0.5 < alpha / 2, yet one sample has no sample deviation
        prior = {"alpha": 1.5, "gamma": {"kind": "power", "amplitude": 1.0, "exponent": 1.0},
                 "truncation": 16}
        cfg = validate_config(cfg_text("flom", {"prior": prior, "p": 0.5, "n_samples": 1}))
        run(cfg, tmp_path)
        report = json.loads((tmp_path / "flom.json").read_text())
        assert report["stderr"] is None and "one sample" in report["stderr_reason"]
        assert report["estimate"] == report["truncation_trace"][-1][1]

    @pytest.mark.parametrize("n,truncation", [(20_000, 64), (80_000, 64), (20_000, 256)])
    def test_flom_working_memory_does_not_grow_with_the_ensemble(
            self, tmp_path, traced_peak, n, truncation):
        # the rows are sampled and reduced a block at a time: beyond the
        # three n-length statistics and the standard deviation's temporary,
        # a fixed allowance; the n x T matrix alone would be 10 to 40 MB
        cfg = validate_config(cfg_text("flom", {
            "prior": {"alpha": 1.5, "gamma": {"kind": "power", "amplitude": 1.0,
                                              "exponent": 1.0},
                      "truncation": truncation},
            "p": 0.5, "q": 0.5, "n_samples": n,
        }))
        assert traced_peak(run, cfg, tmp_path) - 4 * 8 * n < 2 * 2 ** 20

    def test_gallery_working_memory_is_one_gallery(self, tmp_path, traced_peak):
        # each family is streamed a row block at a time: the peak is a row
        # block's synthesis, the CSV writer's pass of 2^14 values (about
        # 2.6 MB) and the manifest's 1 MB read buffer, whatever the sample
        # count; one 80-sample family's grid alone is 10 MB
        peaks = []
        for n_samples in (20, 80):
            cfg = validate_config(cfg_text("figure2", {
                "levels": 13, "n_samples": n_samples, "grid_size": 2 ** 14}))
            peaks.append(traced_peak(run, cfg, tmp_path / str(n_samples)))
        assert max(peaks) < 8 * 2 ** 20
        assert abs(peaks[1] - peaks[0]) < 2 ** 20

    @pytest.mark.parametrize("grid_size", [128, 1000], ids=["half_cells", "gathered"])
    def test_gallery_files_are_those_of_the_held_gallery(self, tmp_path, grid_size):
        # 300 samples of 127 coefficients are three sampler blocks; a grid
        # of 128 points is the half-cell midpoints of 6 levels, 1000 points
        # are gathered from them
        levels, n_samples = 6, 300
        assert _block_rows(2 ** (levels + 1) - 1) < n_samples // 2
        cfg = validate_config(cfg_text("figure2", {
            "levels": levels, "n_samples": n_samples, "grid_size": grid_size}))
        run(cfg, tmp_path / "streamed")
        held = tmp_path / "held"
        held.mkdir()
        for family in ("cauchy", "gaussian"):
            g = wavelet_gallery_ensemble(family, levels, n_samples, cfg.seed, grid_size)
            ens = g.ensemble
            write_sfe1(held / f"{family}_fields.sfe1", ens.spec_hash, ens.seed,
                       (n_samples, ens.coefficients.shape[1], grid_size),
                       [(ens.coefficients, ens.grid_values)])
            write_matrix_csv(held / f"{family}_fields.csv", g.rescaled_grid,
                             [f"x{j}" for j in range(grid_size)],
                             f"config={cfg.config_hash()} seed={cfg.seed} family={family} "
                             f"spec_hash={ens.spec_hash}")
            for name in (f"{family}_fields.sfe1", f"{family}_fields.csv"):
                assert (tmp_path / "streamed" / name).read_bytes() == (held / name).read_bytes()

    def test_manifest_digests_are_the_sha256_of_the_files(self, tmp_path):
        # the gallery CSVs are several MB, so they are hashed in several reads
        cfg = validate_config(cfg_text(
            "figure2", {"levels": 10, "n_samples": 20, "grid_size": 2 ** 14}))
        manifest = json.loads(run(cfg, tmp_path).read_text())
        assert max((tmp_path / f["name"]).stat().st_size for f in manifest["files"]) > 3 * 2 ** 20
        for entry in manifest["files"]:
            data = (tmp_path / entry["name"]).read_bytes()
            assert entry["sha256"] == hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("size", [0, 1, 2 ** 20 - 1, 2 ** 20, 2 ** 20 + 1, 3 * 2 ** 20 + 5])
    def test_file_digest_across_read_ends(self, tmp_path, size):
        data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
        (tmp_path / "blob").write_bytes(data)
        assert _file_sha256(tmp_path / "blob") == hashlib.sha256(data).hexdigest()

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

    def test_likelihood_sweep_matches_the_per_n_misfit_to_the_bit(self, tmp_path):
        # the runner forms sin(||u||) once per sample, as a column of its
        # rows; its report is to the bit that of the family below, which
        # forms sin(||u||) from the rows it is given for every N
        cfg = validate_config(cfg_text("likelihood_sweep", {
            "prior": CAUCHY_SCALAR_PRIOR, "y": 0.5,
            "n_list": [2, 5, 9, 40], "n_samples": 20000,
        }))
        run(cfg, tmp_path)
        x = cfg.inputs

        def family(n_approx):
            def approx(u, yy):
                t = metrics.rowwise_quasi_norm(u, x.potential.u_norm)
                return x.potential.misfit(u, yy) + np.sin(t) / n_approx
            return approx

        ens = sample_coefficients(x.prior, x.n_samples, cfg.seed)
        want = likelihood_perturbation_sweep(x.potential, family, lambda n: 1.0 / n, ens,
                                             x.y, x.n_list)
        got = json.loads((tmp_path / "likelihood_sweep.json").read_text())
        assert got == json.loads(json.dumps(want.to_json_dict()))
        table = (tmp_path / "hellinger_vs_psi.csv").read_text().splitlines()[2:]
        assert [[float(v) for v in row.split(",")] for row in table] == np.column_stack(
            [want.perturbation_sizes, want.distances, want.distance_stderrs]).tolist()

    @pytest.mark.parametrize("d", [3, 9])
    def test_likelihood_sweep_rows_match_the_per_n_misfit_to_the_bit(self, tmp_path, d):
        # as above for rows of several coefficients; from 8 entries on numpy
        # sums a row pairwise, so the rows must keep the ensemble's layout
        cfg = validate_config(cfg_text("likelihood_sweep", {
            "prior": dict(CAUCHY_SCALAR_PRIOR, truncation=d,
                          gamma={"kind": "power", "amplitude": 1.0, "exponent": 2.0}),
            "y": [0.25] * d, "n_list": [3, 7], "n_samples": 5000,
        }))
        run(cfg, tmp_path)
        x = cfg.inputs

        def family(n_approx):
            def approx(u, yy):
                t = metrics.rowwise_quasi_norm(u, x.potential.u_norm)
                return x.potential.misfit(u, yy) + np.sin(t) / n_approx
            return approx

        ens = sample_coefficients(x.prior, x.n_samples, cfg.seed)
        want = likelihood_perturbation_sweep(x.potential, family, lambda n: 1.0 / n, ens,
                                             x.y, x.n_list)
        got = json.loads((tmp_path / "likelihood_sweep.json").read_text())
        assert got == json.loads(json.dumps(want.to_json_dict()))

    def test_likelihood_sweep_warning_names_the_runners_call(self, tmp_path):
        # the runner warns as the sampler does, and the warning points at its
        # own call, not at the line of `run` that dispatches to the runner
        from stableinfer import cli
        cfg = validate_config(cfg_text("likelihood_sweep", {
            "prior": dict(CAUCHY_SCALAR_PRIOR, gamma=1.0, truncation=3), "y": [0.0] * 3,
            "n_list": [2], "n_samples": 100,
        }))
        with pytest.warns(SummabilityWarning) as record:
            run(cfg, tmp_path)
        assert len(record) == 1
        lines, first = inspect.getsourcelines(cli._run_likelihood_sweep)
        (call,) = [first + i for i, line in enumerate(lines) if "_warn_unless_summable(" in line]
        assert (record[0].filename, record[0].lineno) == (cli.__file__, call)

    def test_likelihood_sweep_forms_each_norm_once(self, tmp_path, monkeypatch):
        # sin(||u||) is formed once per sample from the sampler's blocks, not
        # once per sample and N, and the runner still warns as the sampler does
        normed = []

        def counted(matrix, spec):
            normed.append(len(matrix))
            return rowwise_quasi_norm(matrix, spec)

        rowwise_quasi_norm = metrics.rowwise_quasi_norm
        monkeypatch.setattr(metrics, "rowwise_quasi_norm", counted)
        cfg = validate_config(cfg_text("likelihood_sweep", {
            "prior": dict(CAUCHY_SCALAR_PRIOR, gamma=1.0, truncation=3), "y": [0.0] * 3,
            "noise_variance": 100.0, "n_list": [2, 4, 8], "n_samples": 20000,
        }))
        with pytest.warns(SummabilityWarning):  # a constant scale is not summable
            run(cfg, tmp_path)
        assert sum(normed) == 20000

    def test_likelihood_sweep_working_memory_is_the_rows_and_two_vectors(self, tmp_path,
                                                                        traced_peak):
        # the n x (d + 1) rows (coefficients and sin(||u||)), the base density
        # and one perturbation's weights, and a fixed allowance for leaf and
        # block temporaries and the manifest's 1 MB read buffer
        d = 2
        for n in (100_000, 400_000):
            cfg = validate_config(cfg_text("likelihood_sweep", {
                "prior": dict(CAUCHY_SCALAR_PRIOR, truncation=d,
                              gamma={"kind": "explicit", "values": [1.0, 0.5]}),
                "y": [0.0] * d, "n_list": [4, 8], "n_samples": n,
            }))
            assert traced_peak(run, cfg, tmp_path / str(n)) - 8 * n * (d + 3) < 2 * 2 ** 20


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

    def test_tiny_alpha_three_series_exits_without_a_traceback(self, tmp_path, capsys):
        # below alpha ~ 1/170.6 the density at 0, Gamma(1 + 1/alpha)/pi, passes
        # the float range; it raised OverflowError
        cfg = tmp_path / "c.json"
        cfg.write_text(cfg_text("three_series", {
            "sequence": {"kind": "power", "amplitude": 1.0, "exponent": 1.0},
            "alpha": 0.005, "q": 1.0, "threshold": 1.0, "depth": 1024}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) in (0, 3)

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

    # a key no parser reads is rejected by name, at the top level and in
    # every object; it used to be ignored, and its default used instead
    _POWER = {"kind": "power", "amplitude": 1.0, "exponent": 2.0}

    @pytest.mark.parametrize("config,key", [
        ({"experiment": "kl_table", "sead": 5, "params": {"initial_halfwidth": 3.0}}, "sead"),
        ({"experiment": "kl_table", "params": {"initial_halfwidht": 3.0}}, "initial_halfwidht"),
        ({"experiment": "flom", "params": {"prior": CAUCHY_SCALAR_PRIOR, "p": 0.5,
                                           "n_sample": 10}}, "n_sample"),
        ({"experiment": "flom", "params": {"prior": dict(CAUCHY_SCALAR_PRIOR, aplha=1.5),
                                           "p": 0.5}}, "aplha"),
        ({"experiment": "flom", "params": {"prior": dict(
            CAUCHY_SCALAR_PRIOR, basis={"kind": "haar", "levels": 2, "grid_szie": 64}),
            "p": 0.5}}, "grid_szie"),
        ({"experiment": "flom", "params": {"prior": dict(
            CAUCHY_SCALAR_PRIOR, basis={"kind": "eigen", "grid_size": 64}), "p": 0.5}},
         "grid_size"),
        ({"experiment": "flom", "params": {"prior": dict(
            CAUCHY_SCALAR_PRIOR, gamma=dict(_POWER, exponnet=3.0)), "p": 0.5}}, "exponnet"),
        ({"experiment": "flom", "params": {"prior": dict(
            CAUCHY_SCALAR_PRIOR, gamma={"kind": "explicit", "values": [1.0],
                                        "tail": dict(_POWER, log_exponent=1.0)}),
            "p": 0.5}}, "log_exponent"),
        ({"experiment": "three_series", "params": {"sequence": dict(_POWER, tail=_POWER),
                                                   "alpha": 1.0}}, "tail"),
    ], ids=["top", "params", "params.flom", "prior", "basis.haar", "basis.eigen",
            "sequence", "sequence.tail", "sequence.power_tail"])
    def test_unknown_keys_are_config_errors(self, tmp_path, capsys, config, key):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert main(["validate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"unknown key {key!r}" in err

    def test_every_key_a_parser_consults_is_known(self):
        # the euclidean q, an explicit sequence's null tail and a null
        # r_bound are read, so they are no unknown keys
        prior = {"alpha": 1.0, "truncation": 1, "basis": {"kind": "euclidean", "q": 1.0},
                 "gamma": {"kind": "explicit", "values": [1.0], "tail": None}}
        validate_config(json.dumps({"experiment": "data_sweep", "seed": 1, "params": {
            "prior": prior, "epsilons": [0.1], "r_bound": None}}))

    # (kind, key, a value rejected at the bound, the value accepted at or
    # next to it): validate rejects what run would reject, and no more
    _SEQUENCE_TEST = {"sequence": {"kind": "power", "amplitude": 1.0, "exponent": 1.0},
                      "alpha": 1.5}
    # a posterior over two coefficients: its n_samples x 2 coefficient matrix
    _PAIR_PRIOR = {"alpha": 1.0, "gamma": {"kind": "explicit", "values": [1.0, 0.5]},
                   "truncation": 2}
    _BASE = {"three_series": _SEQUENCE_TEST, "summability": _SEQUENCE_TEST, "figure2": {},
             "flom": {"prior": CAUCHY_SCALAR_PRIOR, "p": 0.5}, "radial_demo": {},
             "bayes_run": {"prior": _PAIR_PRIOR, "y": [0.0, 0.0]},
             "likelihood_sweep": {"prior": _PAIR_PRIOR, "y": [0.0, 0.0], "n_list": [4]}}
    BOUNDS = [
        ("three_series", "depth", 999, 1000),
        ("summability", "probe_depth", 999, 1000),
        ("figure2", "levels", 23, 22),  # validated only: 22 levels are not run here
        ("flom", "p", 1.0, 0.99),  # p = alpha
        ("flom", "q", 0.49, 0.5),  # p > q
    ]
    # every other count is at most 2^28, and so is every matrix a run holds;
    # validated only, none of these is run at the bound
    MAX_COUNTS = [
        ("three_series", "depth", 1e13, 2 ** 28),
        ("summability", "probe_depth", 2 ** 28 + 1, 2 ** 28),
        ("flom", "n_samples", 1e12, 2 ** 28),
        ("radial_demo", "n", 2 ** 28 + 1, 2 ** 28),
        ("figure2", "grid_size", 2 ** 28 // 20 + 1, 2 ** 28 // 20),  # x 20 samples
        ("figure2", "n_samples", 2 ** 14 + 1, 2 ** 14),  # x 2^14 grid values
        ("bayes_run", "n_samples", 2 ** 27 + 1, 2 ** 27),  # x 2 coefficients
        ("likelihood_sweep", "n_samples", 2 ** 28 // 3 + 1, 2 ** 28 // 3),  # x 2 and sin
    ]

    @pytest.mark.parametrize("experiment,key,rejected,accepted", BOUNDS + MAX_COUNTS,
                             ids=[f"{kind}.{key}" for kind, key, _, _ in BOUNDS]
                             + [f"{kind}.{key}.max" for kind, key, _, _ in MAX_COUNTS])
    def test_validate_enforces_the_bounds_run_needs(self, tmp_path, capsys, experiment, key,
                                                    rejected, accepted):
        cfg = tmp_path / "c.json"
        cfg.write_text(cfg_text(experiment, dict(self._BASE[experiment], **{key: rejected})))
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err
        cfg.write_text(cfg_text(experiment, dict(self._BASE[experiment], **{key: accepted})))
        assert main(["validate", "--config", str(cfg)]) == 0

    # large but ordinary configs, at their default n_samples, validate
    @pytest.mark.parametrize("experiment,params", [
        ("bayes_run", {"prior": dict(_PAIR_PRIOR, gamma=1.0, truncation=500),
                       "y": [0.0] * 500}),  # 10^5 x 500 coefficients
        ("data_sweep", {"prior": dict(_PAIR_PRIOR, gamma=1.0, truncation=2684),
                        "y": [0.0] * 2684, "epsilons": [0.1]}),  # 10^5 x 2684, the most
        ("figure2", {"levels": 18}),  # 20 x 2^19 Haar half-cells; 22 levels: BOUNDS
    ], ids=["bayes_run.truncation500", "data_sweep.truncation2684", "figure2.levels18"])
    def test_validate_accepts_large_ordinary_configs(self, tmp_path, experiment, params):
        cfg = tmp_path / "c.json"
        cfg.write_text(cfg_text(experiment, params))
        assert main(["validate", "--config", str(cfg)]) == 0


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
