"""Self-tests of the benchmark's oracles and checks.

    python3 bench/selftest.py      (from the repository root)

The oracle tests reproduce known constants.  The perturbation tests run
real operations at small sizes, change one value in an artifact, and
require the operation to count as failed, both when the manifest hash
gives the change away and when the manifest is rewritten to match, so
that the oracle alone has to catch it.
"""

import hashlib
import json
import math
import struct
import tempfile
import unittest
from pathlib import Path

import mpmath as mp
import numpy as np
from scipy import integrate, special, stats

import oracles
import run
import workloads

BENCH = Path(__file__).resolve().parent


class OracleConstants(unittest.TestCase):
    def test_z_at_zero_is_scaled_erfc(self):
        self.assertAlmostEqual(oracles.z_exact(0.0),
                               math.exp(0.5) * math.erfc(1.0 / math.sqrt(2.0)), places=15)

    def test_z_and_its_second_moment_by_quadrature(self):
        for y in (-0.7, 0.0, 1.3):
            for power in (1, 2):
                direct, _ = integrate.quad(
                    lambda u: math.exp(-power * 0.5 * (y - u) ** 2) / (math.pi * (1 + u * u)),
                    -np.inf, np.inf, epsabs=1e-14)
                wofz = special.wofz((y + 1j) / math.sqrt(2.0) if power == 1 else y + 1j).real
                self.assertAlmostEqual(direct, wofz, places=12)
            self.assertAlmostEqual(oracles.likelihood_z(y, 10 ** 15), oracles.z_exact(y),
                                   places=13)

    def test_hellinger_quadrature_matches_bhattacharyya_form(self):
        for y in (-0.9, 0.0, 0.4):
            for eps in (0.4, 0.05, 0.003125):
                self.assertAlmostEqual(oracles.hellinger_data(y, eps),
                                       oracles.hellinger_data_closed_form(y, eps), delta=1e-9)

    def test_stable_abs_moment_special_cases(self):
        # Cauchy: E|X|^p = 1/cos(pi p/2); normal N(0, 2 sigma^2) for alpha = 2
        self.assertAlmostEqual(oracles.stable_abs_moment(1.0, 0.0, 1.0, 0.5),
                               math.sqrt(2.0), places=13)
        sigma, p = 0.7, 0.5
        normal = (math.sqrt(2.0) * sigma) ** p * 2 ** (p / 2) * math.gamma((p + 1) / 2) \
            / math.sqrt(math.pi)
        self.assertAlmostEqual(oracles.stable_abs_moment(2.0, 0.0, sigma, p), normal, places=13)

    def test_sin_squared_integral_closed_form(self):
        # sin^2 u = (1 - cos 2u)/2: the non-oscillating half integrates in
        # closed form beyond 1, only the cosine half needs quadosc
        p = mp.mpf(0.75)
        mp.mp.dps = 20
        direct = (mp.quad(lambda u: u ** (-p - 1) * mp.sin(u) ** 2, [0, 1]) + 1 / (2 * p)
                  - mp.quadosc(lambda u: u ** (-p - 1) * mp.cos(2 * u) / 2, [1, mp.inf], omega=2))
        p = float(p)
        closed = 2 ** (p - 1) * math.gamma(1 - p) * math.cos(math.pi * p / 2) / p
        self.assertAlmostEqual(float(direct), closed, places=12)

    def test_kl_reference(self):
        ref = oracles.reference("constants.json")["kl_normal_cauchy"]
        self.assertEqual(str(ref)[:14], "0.259244532488")
        direct, _ = integrate.quad(
            lambda x: stats.norm.pdf(x) * (stats.norm.logpdf(x) - stats.cauchy.logpdf(x)),
            -40, 40, epsabs=1e-14, limit=200)
        self.assertAlmostEqual(direct, ref, places=12)

    def test_truncated_cauchy_terms_by_quadrature(self):
        gamma, a_cut = np.array([0.3, 2.0]), 1.0
        p0, m1, m2 = oracles.truncated_cauchy_terms(gamma, a_cut)
        for i, g in enumerate(gamma):
            dens = lambda v: 1.0 / (math.pi * g * (1 + (v / g) ** 2))  # noqa: E731
            self.assertAlmostEqual(p0[i], 2 * integrate.quad(dens, a_cut, np.inf)[0], places=12)
            self.assertAlmostEqual(m1[i], 2 * integrate.quad(lambda v: v * dens(v), 0, a_cut)[0],
                                   places=12)
            self.assertAlmostEqual(m2[i], 2 * integrate.quad(lambda v: v * v * dens(v),
                                                             0, a_cut)[0], places=12)

    def test_ks_statistic_matches_scipy(self):
        sample = np.random.default_rng(3).standard_cauchy(500)
        self.assertAlmostEqual(oracles.ks_statistic(sample, oracles.cauchy_cdf),
                               stats.kstest(sample, "cauchy").statistic, places=14)

    def test_gallery_level_scale(self):
        j = np.array([0, 1, 1, 2, 2, 2, 2])
        np.testing.assert_array_equal(oracles.gallery_level_scale(7), (j + 1.0) ** -2 * 0.5 ** j)

    def test_sfe1_reader(self):
        coeffs, grid = np.arange(6.0).reshape(2, 3), -np.arange(8.0).reshape(2, 4)
        header = json.dumps({"n_samples": 2, "n_coefficients": 3, "grid_size": 4}).encode()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.sfe1"
            path.write_bytes(b"SFE1" + struct.pack("<I", len(header)) + header
                             + coeffs.astype("<f8").tobytes() + grid.astype("<f8").tobytes())
            _, c, g = oracles.read_sfe1(path)
        np.testing.assert_array_equal(c, coeffs)
        np.testing.assert_array_equal(g, grid)

    def test_benchmark_json_lists_every_metric(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))


def _rewrite_manifest(out: Path) -> None:
    manifest = json.loads((out / "manifest.json").read_text())
    for entry in manifest["files"]:
        entry["sha256"] = hashlib.sha256((out / entry["name"]).read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest))


def _bump_json(key_path):
    def perturb(out: Path, name: str) -> None:
        report = json.loads((out / name).read_text())
        node = report
        for key in key_path[:-1]:
            node = node[key]
        node[key_path[-1]] *= 1.5
        (out / name).write_text(json.dumps(report))
    return perturb


def _bump_csv(row, col):
    def perturb(out: Path, name: str) -> None:
        lines = (out / name).read_text().splitlines()
        cells = lines[2 + row].split(",")
        cells[col] = repr(float(cells[col]) * (1 + 1e-6) + 1e-9)
        lines[2 + row] = ",".join(cells)
        (out / name).write_text("\n".join(lines) + "\n")
    return perturb


class PerturbedArtifactsFail(unittest.TestCase):
    prior = {"alpha": 1.0, "gamma": {"kind": "explicit", "values": [1.0]}, "truncation": 1}
    cases = [
        ("data_sweep", {"experiment": "data_sweep", "seed": 7, "params": {
            "prior": prior, "y": 0.2, "epsilons": [0.2, 0.1, 0.05], "n_samples": 200000}},
         workloads.check_data_sweep, "data_sweep.json",
         _bump_json(["estimates", "hellinger", 1])),
        ("gallery", {"experiment": "figure2", "seed": 7,
                     "params": {"levels": 5, "n_samples": 6, "grid_size": 256}},
         workloads.check_gallery, "cauchy_fields.csv", _bump_csv(3, 17)),
        ("flom", {"experiment": "flom", "seed": 7, "params": {
            "prior": {"alpha": 1.5, "gamma": {"kind": "power", "amplitude": 1.0,
                                              "exponent": 1.0}, "truncation": 8},
            "p": 0.5, "q": 0.5, "n_samples": 20000}},
         workloads.check_flom, "flom.json", _bump_json(["estimate"])),
        ("log_family", json.loads((BENCH / "configs" / "three_series_log_family.json")
                                  .read_text()),
         workloads.check_three_series_cauchy, "partial_sums.csv", _bump_csv(4, 2)),
    ]

    def test_one_perturbed_value_fails_the_operation(self):
        (run.ROOT / ".bench_out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_out") as tmp:
            for name, config, check, artifact, perturb in self.cases:
                with self.subTest(name):
                    op = workloads.Op(name, {"kind": "cli", "config": config,
                                             "seed_override": None}, check)
                    op_dir = Path(tmp) / name
                    record, result = run.execute(op, op_dir, False, 120.0)
                    run.verify(op, op_dir, result, record)
                    self.assertFalse(record.failed, record.problems)
                    for rewrite in (False, True):
                        perturb(op_dir / "out", artifact)
                        if rewrite:
                            _rewrite_manifest(op_dir / "out")
                        record = run.Record(name, 0.0, 0.0)
                        run.verify(op, op_dir, result, record)
                        self.assertTrue(record.failed)
                        if rewrite:
                            self.assertFalse(any("manifest" in p for p in record.problems),
                                             record.problems)

    def test_perturbed_density_value_fails(self):
        op = workloads.density_series(0)[3]
        case = oracles.reference("densities.json")["cases"][0]
        values = list(case["pdf"])
        record = run.Record(op.name, 0.0, 0.0)
        run.verify(op, Path("missing"), {"values": values}, record)
        self.assertFalse(record.failed, record.problems)
        values[57] *= 1 + 1e-6
        record = run.Record(op.name, 0.0, 0.0)
        run.verify(op, Path("missing"), {"values": values}, record)
        self.assertTrue(record.failed)


if __name__ == "__main__":
    unittest.main()
