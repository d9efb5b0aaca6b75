"""Field ensembles: deterministic counter-based sampling, synthesis,
the matched two-family gallery, and field-norm moments."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from stableinfer import (
    DimensionMismatchError,
    Eigenbasis,
    EuclideanSequence,
    Explicit,
    HaarWavelet,
    HatHierarchical,
    InvalidSpecError,
    MomentOrderTooHighError,
    PowerLaw,
    PowerLogLaw,
    StableFieldSpec,
    StableParams,
    SummabilityVerdict,
    flom_estimate,
    sample_coefficients,
    sample_stable,
    summability_report,
    synthesize,
    wavelet_gallery_ensemble,
)
from stableinfer import rng as srng, series
from stableinfer.metrics import QuasiNormSpec, rowwise_quasi_norm
from stableinfer.series import (
    SummabilityWarning,
    _block_rows,
    _coefficients_from_uniforms,
    _sampled_blocks,
)
from stableinfer.gof import ks_two_sample_critical_value, ks_two_sample_statistic


def _midpoints(size):
    """The midpoints of size equal cells of [0, 1]: `synthesize`'s default grid."""
    return (np.arange(size) + 0.5) / size


def cauchy_field_spec(truncation, exponent=2.0):
    return StableFieldSpec.make(
        1.0, PowerLaw(1.0, exponent), EuclideanSequence(q=1.0), truncation,
    )


class TestSpecValidation:
    def test_truncation_beyond_basis(self):
        with pytest.raises(InvalidSpecError):
            StableFieldSpec.make(1.0, PowerLaw(1, 2), HaarWavelet(2), 8)

    def test_negative_scale_rejected(self):
        with pytest.raises(InvalidSpecError):
            StableFieldSpec.make(1.0, Explicit((1.0, -0.5)), EuclideanSequence(), 2)

    def test_skewness_bounds(self):
        with pytest.raises(InvalidSpecError):
            StableFieldSpec.make(1.0, PowerLaw(1, 2), EuclideanSequence(), 2,
                                 beta_seq=Explicit((0.0, 1.0)))

    def test_hash_stability(self):
        a = cauchy_field_spec(8)
        b = cauchy_field_spec(8)
        assert a.spec_hash() == b.spec_hash()
        assert a.spec_hash() != cauchy_field_spec(9).spec_hash()


class TestSampling:
    def test_bitwise_determinism(self):
        spec = cauchy_field_spec(16)
        a = sample_coefficients(spec, 200, 9)
        b = sample_coefficients(spec, 200, 9)
        assert np.array_equal(a.coefficients, b.coefficients)

    def test_rows_are_counter_addressable(self):
        # any row range regenerated from its stream offset matches the batch
        full = srng.uniform_rows(77, 0, 64, 5)
        for lo, hi in ((0, 10), (13, 37), (63, 64)):
            assert np.array_equal(srng.uniform_rows(77, lo, hi, 5), full[lo:hi])

    @pytest.mark.parametrize("truncation", [1, 3, 64])
    @pytest.mark.parametrize("case", ["below", "at", "past", "several"])
    def test_each_block_is_drawn_as_uniform_rows_of_its_range(self, truncation, case):
        # the sampler draws its blocks in turn from one stream; each block
        # must be the counter-addressed rows of its own range
        rows = _block_rows(truncation)
        n = {"below": rows - 1, "at": rows, "past": rows + 1,
             "several": 3 * rows + rows // 2 + 1}[case]
        spec = cauchy_field_spec(truncation)
        draw = srng._row_stream(5, 0, truncation)
        starts = []
        for start, block in _sampled_blocks(spec, n, 5):
            stop = start + block.shape[0]
            u = srng.uniform_rows(5, start, stop, truncation)
            assert np.array_equal(draw(stop - start), u)
            want = _coefficients_from_uniforms(spec, u)
            assert np.array_equal(block.view(np.int64), want.view(np.int64))
            starts.append(start)
        assert starts == list(range(0, n, rows))

    def test_chunking_invariance(self):
        # the sampler chunks internally; a one-shot transform must agree
        spec = cauchy_field_spec(3)
        ens = sample_coefficients(spec, 50, 21)
        u = srng.uniform_rows(21, 0, 50, 3)
        from stableinfer.series import _coefficients_from_uniforms
        assert np.array_equal(ens.coefficients, _coefficients_from_uniforms(spec, u))

    def test_marginal_column_distribution(self):
        n = 10 ** 5
        spec = StableFieldSpec.make(
            1.0, Explicit((0.7, 0.2)), EuclideanSequence(q=1.0), 2,
            delta_seq=Explicit((0.5, 0.0)), beta_seq=Explicit((0.0, 0.3)),
        )
        ens = sample_coefficients(spec, n, 33)
        for col, params in [
            (0, StableParams.cauchy(0.5, 0.7)),
            (1, (1.0, 0.3, 0.2, 0.0)),
        ]:
            if isinstance(params, tuple):
                from stableinfer import validate_params
                params = validate_params(*params)
            ref = sample_stable(params, n, 1000 + col)
            d = ks_two_sample_statistic(ens.coefficients[:, col], ref)
            assert d < ks_two_sample_critical_value(n, n)

    def test_zero_scales_broadcast_locations(self):
        spec = StableFieldSpec.make(
            1.0, PowerLaw(0.0, 0.0), EuclideanSequence(q=1.0), 3,
            delta_seq=Explicit((1.0, -2.0, 3.0)),
        )
        ens = sample_coefficients(spec, 10, 5)
        assert np.array_equal(ens.coefficients, np.tile([1.0, -2.0, 3.0], (10, 1)))

    def test_zero_scale_survives_extreme_draws(self):
        # at small alpha a once-in-2^53 exponential draw overflows the
        # transform; a point-mass column must still come out as delta
        from stableinfer.series import _coefficients_from_uniforms
        spec = StableFieldSpec.make(
            0.25, Explicit((0.0, 1.0)), EuclideanSequence(q=1.0), 2,
            delta_seq=Explicit((5.0, 0.0)),
        )
        u = np.full((2, 2, 2), 0.5)
        u[:, :, 1] = 0.0  # forces the clipped-w branch
        coeffs = _coefficients_from_uniforms(spec, u)
        assert np.all(coeffs[:, 0] == 5.0)
        assert np.all(np.isfinite(coeffs))  # the live column stays finite too

    def test_divergent_scales_warn(self):
        spec = StableFieldSpec.make(1.0, PowerLaw(1.0, 0.5), EuclideanSequence(q=1.0), 4)
        with pytest.warns(SummabilityWarning) as record:
            sample_coefficients(spec, 5, 1)
        assert len(record) == 1
        assert record[0].filename == __file__  # the warning names the caller

    # (alpha, scale sequence, whether it fails ell^alpha): each kind of
    # sequence, on both sides, all judged by the integral test on the
    # closed tail; a finite list, however long, is summable
    SCALES = {
        "power": (1.0, PowerLaw(1.0, 0.5), True),
        "power_summable": (1.5, PowerLaw(1.0, 1.0), False),
        "powerlog": (1.0, PowerLogLaw(1.0, 1.0, 0.5), True),
        "powerlog_summable": (1.0, PowerLogLaw(1.0, 1.0, 2.0), False),
        "finite": (1.0, Explicit((1.0, 0.5, 0.25)), False),
        "power_tail": (1.0, Explicit((1.0, 0.5), PowerLaw(1.0, 0.5)), True),
        "power_tail_summable": (1.5, Explicit((1.0, 0.5), PowerLaw(1.0, 2.0)), False),
        "explicit_tail": (1.0, Explicit((1.0,), Explicit((1.0,) * 30_000)), False),
        "explicit_tail_summable": (1.0, Explicit((1.0,), Explicit((0.5,) * 8)), False),
        "nested_power_tail": (1.0, Explicit((1.0,), Explicit((0.5,), PowerLaw(1.0, 0.5))), True),
    }

    @pytest.mark.parametrize("truncation", [4, 20_000])
    @pytest.mark.parametrize("draw", [
        lambda spec: sample_coefficients(spec, 2, 1),
        lambda spec: flom_estimate(spec, 2, 1, 0.5, 1.0),
    ], ids=["sample_coefficients", "flom_estimate"])
    @pytest.mark.parametrize("scale", SCALES)
    def test_warns_exactly_when_the_report_fails_ell_alpha(self, scale, draw, truncation):
        alpha, gamma, fails = self.SCALES[scale]
        spec = StableFieldSpec.make(alpha, gamma, EuclideanSequence(q=1.0), truncation)
        report = summability_report(gamma, alpha, 2.0, probe_depth=max(1024, truncation))
        assert (report.verdict is SummabilityVerdict.FAILS_ELL_ALPHA) is fails
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", SummabilityWarning)
            draw(spec)
        assert sum(issubclass(w.category, SummabilityWarning) for w in caught) == fails

    @settings(max_examples=80, deadline=None)
    @given(alpha=st.sampled_from([0.7, 1.0, 1.5, 2.0]),
           truncation=st.sampled_from([1, 2, 7, 64, 20_000]),
           beta=st.sampled_from([0.0, 0.5, -0.9]),
           zero_scale=st.booleans(),
           case=st.sampled_from(["below", "at", "past", "several"]),
           seed=st.integers(0, 2 ** 64))
    def test_row_blocks_match_one_transform_bit_for_bit(
            self, alpha, truncation, beta, zero_scale, case, seed):
        # n around and across the sampler's row blocks; T = 1 pads each
        # row to a whole Philox block, and T = 20000 makes a block of one row
        rows = _block_rows(truncation)
        n = {"below": rows - 1, "at": rows, "past": rows + 1,
             "several": 3 * rows + rows // 2 + 1}[case]
        gam = np.arange(1, truncation + 1) ** -1.5
        if zero_scale:
            gam[::3] = 0.0
        spec = StableFieldSpec.make(
            alpha, Explicit(tuple(gam)), EuclideanSequence(q=1.0), truncation,
            delta_seq=0.25, beta_seq=beta,
        )
        got = sample_coefficients(spec, n, seed).coefficients
        want = _coefficients_from_uniforms(spec, srng.uniform_rows(seed, 0, n, truncation))
        assert got.shape == (n, truncation)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("truncation", [8, 20_000])
    def test_working_memory_is_bounded(self, traced_peak, truncation):
        # beyond the output matrix, a fixed allowance at n and at 4n
        spec = StableFieldSpec.make(1.5, PowerLaw(1.0, 1.0), EuclideanSequence(q=1.0),
                                    truncation)
        for n in (50_000 * 8 // truncation, 200_000 * 8 // truncation):
            peak = traced_peak(sample_coefficients, spec, n, 3)
            assert peak - 8 * n * truncation < 4 * 2 ** 20


class TestSynthesize:
    def test_haar_single_mother_coefficient(self):
        basis = HaarWavelet(2, grid_size=8)
        coeffs = np.zeros(7)
        coeffs[0] = 1.0
        field = synthesize(basis, coeffs)
        assert np.array_equal(field, [1, 1, 1, 1, -1, -1, -1, -1])

    def test_zero_coefficients(self):
        basis = HaarWavelet(3, grid_size=64)
        assert not synthesize(basis, np.zeros(15)).any()

    @pytest.mark.parametrize("basis", [HaarWavelet(2, grid_size=8), HatHierarchical(2, grid_size=8)],
                             ids=["haar", "hat"])
    def test_empty_batch(self, basis):
        # the Haar half-cells took their width from the batch, which an
        # empty batch leaves undefined
        assert synthesize(basis, np.zeros((0, 7))).shape == (0, 8)
        spec = StableFieldSpec.make(1.0, Explicit((1.0,) * 7), basis, 7)
        assert synthesize(basis, sample_coefficients(spec, 0, 8).coefficients).shape == (0, 8)

    def test_points_outside_unit_interval_get_zero(self):
        basis = HaarWavelet(1, grid_size=8)
        field = synthesize(basis, np.ones(3), np.array([-0.5, 0.25, 1.0, 1.5]))
        assert field[0] == 0.0
        assert field[2] == 0.0
        assert field[3] == 0.0
        assert field[1] != 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            synthesize(HaarWavelet(2), np.zeros(5))

    def test_parseval_against_direct_summation(self):
        # independent oracle: accumulate 2^{j/2} psi(2^j x - k) terms by loop
        basis = HaarWavelet(4, grid_size=2 ** 14)
        rng = np.random.default_rng(2)
        coeffs = rng.standard_normal(31)
        grid = _midpoints(basis.grid_size)
        direct = np.zeros_like(grid)
        idx = 0
        for j in range(5):
            for k in range(2 ** j):
                y = 2.0 ** j * grid - k
                psi = np.where((y >= 0) & (y < 0.5), 1.0,
                               np.where((y >= 0.5) & (y < 1.0), -1.0, 0.0))
                direct += coeffs[idx] * 2.0 ** (j / 2.0) * psi
                idx += 1
        field = synthesize(basis, coeffs, grid)
        assert np.allclose(field, direct)
        l2_grid = math.sqrt(float((field ** 2).mean()))
        l2_coeff = math.sqrt(float((coeffs ** 2).sum()))
        assert abs(l2_grid - l2_coeff) < 1e-3

    def test_truncation_refinement_shrinks(self):
        # fix one sample at the finest level; zeroing levels above J gives
        # the level-J synthesis, and successive refinements must shrink in L1
        levels = 6
        n = 2 ** (levels + 1) - 1
        spec = StableFieldSpec.make(
            1.0,
            Explicit(tuple(1.0 / (k + 1.0) ** 2 for k in range(n))),
            HaarWavelet(levels, grid_size=2 ** 12),
            n,
        )
        ens = sample_coefficients(spec, 20, 3)
        fields = []
        for j_keep in range(2, levels + 1):
            c = ens.coefficients.copy()
            c[:, 2 ** (j_keep + 1) - 1:] = 0.0
            fields.append(synthesize(spec.basis, c))
        gaps = [np.abs(b - a).mean() for a, b in zip(fields, fields[1:])]
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_hat_basis_is_continuous_tent(self):
        basis = HatHierarchical(0, grid_size=1024)
        field = synthesize(basis, np.array([1.0]))
        peak = np.argmax(field)
        assert abs(peak / 1024 - 0.5) < 0.01
        assert field.min() >= 0.0

    def test_eigenbasis_modes_orthonormal_on_grid(self):
        basis = Eigenbasis(grid_size=2 ** 12)
        f1 = synthesize(basis, np.array([1.0, 0.0]))
        f2 = synthesize(basis, np.array([0.0, 1.0]))
        assert (f1 * f2).mean() == pytest.approx(0.0, abs=1e-6)
        assert (f1 * f1).mean() == pytest.approx(1.0, abs=1e-6)

    def test_sequence_basis_passthrough(self):
        c = np.array([1.0, -2.0])
        assert np.array_equal(synthesize(EuclideanSequence(q=1.0), c), c)

    @settings(max_examples=200, deadline=None)
    @given(levels=st.integers(0, 6), unit_norm=st.booleans(), n=st.integers(1, 3),
           data=st.data())
    def test_haar_matches_the_per_level_loop_bit_for_bit(self, levels, unit_norm, n, data):
        # arbitrary grids: points outside [0, 1), 0, 1, dyadic points and
        # their float neighbours, tiny and subnormal points
        special = [0.0, -0.0, 1.0, -0.5, 1.5, 1e300, -np.inf, np.inf, 1.0 - 2.0 ** -53,
                   5e-324, 2.0 ** -60] + [k / 2.0 ** m for m in range(1, 9) for k in (1, 3)]
        points = (st.sampled_from(special) | st.floats(0.0, 1.0)
                  | st.floats(-2.0, 3.0) | st.floats(allow_nan=False))
        grid = data.draw(arrays(np.float64, st.integers(1, 40), elements=points))
        coeffs = data.draw(arrays(np.float64, (n, 2 ** (levels + 1) - 1),
                                  elements=st.floats(-1e300, 1e300)))
        basis = HaarWavelet(levels, unit_norm=unit_norm)
        # the largest float steps to inf, huge coefficients sum to +-inf, and
        # the loop casts inf and huge points to int64
        with np.errstate(over="ignore", invalid="ignore"):
            grid = np.concatenate([grid, np.nextafter(grid, np.inf), np.nextafter(grid, -np.inf)])
            got = synthesize(basis, coeffs, grid)
            want = _haar_per_level(coeffs, grid, levels, unit_norm)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("levels", [0, 1, 4, 7])
    def test_haar_on_the_half_cell_midpoints_keeps_the_loop_bits(self, levels):
        basis = HaarWavelet(levels, grid_size=2 ** (levels + 1), unit_norm=levels % 2 == 0)
        coeffs = np.random.default_rng(levels).standard_cauchy((3, 2 ** (levels + 1) - 1))
        want = _haar_per_level(coeffs, _midpoints(basis.grid_size), levels, basis.unit_norm)
        assert synthesize(basis, coeffs).tobytes() == want.tobytes()

    def test_haar_on_the_half_cell_midpoints_gathers_no_copy(self, traced_peak):
        # one grid point per finest half-cell: the half-cells are the field,
        # so the peak is the output and the next coarser level (1.5 fields),
        # not a second, gathered field (2 fields)
        basis = HaarWavelet(13, grid_size=2 ** 14)
        coeffs = np.random.default_rng(5).standard_normal((50, 2 ** 14 - 1))
        grid = _midpoints(basis.grid_size)
        field_bytes = 8 * coeffs.shape[0] * grid.size
        assert traced_peak(synthesize, basis, coeffs, grid) < 1.6 * field_bytes


def _haar_per_level(coeffs, grid, levels, unit_norm):
    """Haar synthesis by the textbook loop: one pass over the grid per level."""
    out = np.zeros((coeffs.shape[0], grid.size))
    inside = (grid >= 0.0) & (grid < 1.0)
    for j in range(levels + 1):
        scaled = 2.0 ** j * grid
        k = np.floor(scaled).astype(np.int64)  # any index outside [0, 1), zeroed below
        np.clip(k, 0, 2 ** j - 1, out=k)
        shape = np.where(scaled - k < 0.5, 1.0, -1.0) * inside
        amp = 2.0 ** (j / 2.0) if unit_norm else 1.0
        out += amp * shape[None, :] * coeffs[:, 2 ** j - 1 + k]
    return out


class TestGallery:
    def test_rescaled_to_unit_interval(self):
        g = wavelet_gallery_ensemble("cauchy", 5, 12, 404, grid_size=1024)
        assert g.rescaled_grid.min() == 0.0
        assert g.rescaled_grid.max() == 1.0

    def test_deterministic_rerun(self):
        a = wavelet_gallery_ensemble("cauchy", 4, 6, 7, grid_size=256)
        b = wavelet_gallery_ensemble("cauchy", 4, 6, 7, grid_size=256)
        assert np.array_equal(a.rescaled_grid, b.rescaled_grid)

    def test_families_share_base_draws(self):
        # the gaussian coefficients must be recoverable from the same
        # uniforms that generated the cauchy ones
        seed, levels, n_samples = 31, 4, 6
        g_gauss = wavelet_gallery_ensemble("gaussian", levels, n_samples, seed, 256)
        n = 2 ** (levels + 1) - 1
        u = srng.uniform_rows(seed, 0, n_samples, n)
        v = math.pi * (u[:, :, 0] - 0.5)
        w = -np.log1p(-u[:, :, 1])
        js = np.floor(np.log2(np.arange(1, n + 1))).astype(int)
        scale = (js + 1.0) ** -2.0 * 2.0 ** (-js.astype(float))
        std_normal = math.sqrt(2.0) * np.sin(v) * np.sqrt(w)
        assert np.allclose(g_gauss.ensemble.coefficients, scale * std_normal, rtol=1e-12)

    def test_heavy_tail_contrast(self):
        g_c = wavelet_gallery_ensemble("cauchy", 6, 20, 2026, grid_size=1024)
        g_g = wavelet_gallery_ensemble("gaussian", 6, 20, 2026, grid_size=1024)
        ratio = np.abs(g_c.ensemble.coefficients).max() / np.abs(g_g.ensemble.coefficients).max()
        assert ratio > 1.0

    @pytest.mark.parametrize("grid_size,formed", [(1000, 1), (128, 0)],
                             ids=["gathered", "half_cells"])
    def test_grid_is_formed_once_per_family(self, monkeypatch, grid_size, formed):
        # 300 samples of 127 coefficients are three sampler blocks: the grid
        # and its half-cell index are formed once, not once per block, and
        # not at all where the default grid is the 128 half-cell midpoints
        assert _block_rows(127) < 150
        calls = []
        midpoints = series._midpoints
        monkeypatch.setattr(series, "_midpoints",
                            lambda size: calls.append(size) or midpoints(size))
        g = wavelet_gallery_ensemble("cauchy", 6, 300, 9, grid_size)
        assert len(calls) == formed
        ens = g.ensemble
        want = synthesize(ens.spec.basis, ens.coefficients, _midpoints(grid_size))
        assert ens.grid_values.tobytes() == want.tobytes()

    def test_needs_a_refinement_level(self):
        with pytest.raises(InvalidSpecError):
            wavelet_gallery_ensemble("cauchy", 0, 4, 1)

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidSpecError):
            wavelet_gallery_ensemble("laplace", 3, 4, 1)


class TestFlom:
    def test_single_term_cauchy_half_moment(self):
        # |X|^(1/2) of a standard Cauchy X has tail index 2, so its variance
        # is infinite and no standard error is reported.  The mean of n
        # draws then errs by about sqrt(E[|X|; |X| < n] / n), the truncated
        # second moment being (1/pi) log(1 + n^2)
        n = 10 ** 5
        spec = StableFieldSpec.make(1.0, Explicit((1.0,)), EuclideanSequence(q=1.0), 1)
        out = flom_estimate(spec, n, 55, 0.5, 1.0)
        assert out.stderr is None and "infinite" in out.stderr_reason
        assert out.tail_index == 2.0
        spread = math.sqrt(math.log1p(float(n) ** 2) / math.pi / n)
        assert abs(out.estimate - math.sqrt(2.0)) < 3.0 * spread

    def test_location_only_field_is_exact(self):
        spec = StableFieldSpec.make(
            1.0, PowerLaw(0.0, 0.0), EuclideanSequence(q=1.0), 2,
            delta_seq=Explicit((3.0, 4.0)),
        )
        out = flom_estimate(spec, 100, 1, 0.5, 1.0)
        assert out.estimate == pytest.approx(7.0 ** 0.5)
        assert out.stderr == 0.0

    def test_moment_order_guard(self):
        with pytest.raises(MomentOrderTooHighError):
            flom_estimate(cauchy_field_spec(4), 100, 1, 1.0, 1.0)

    @settings(max_examples=80, deadline=None)
    @given(truncation=st.sampled_from([1, 2, 3, 5, 7, 64, 20_000]),
           case=st.sampled_from(["below", "at", "past", "several"]),
           p=st.sampled_from([0.3, 0.5, 1.0]),
           q=st.sampled_from([0.5, 1.0, 2.0, 3.7, math.inf]),
           alpha=st.sampled_from([1.2, 1.5, 2.0]),
           seed=st.integers(0, 2 ** 64))
    def test_matches_the_textbook_statistic_bit_for_bit(self, truncation, case, p, q, alpha,
                                                        seed):
        # n at, below and past the ends of the sampler's row blocks (T = 20000
        # makes a block of one row, T = 1 one of 2^14 rows), T < 4 (where the
        # cuts coincide), p < q, and a skewed, shifted field; one sample has
        # no standard error, see below
        assume(p <= q)
        rows = _block_rows(truncation)
        n = max(2, {"below": rows - 1, "at": rows, "past": rows + 1,
                    "several": 3 * rows + rows // 2 + 1}[case])
        spec = StableFieldSpec.make(alpha, PowerLaw(1.0, 1.0), EuclideanSequence(q=q),
                                    truncation, delta_seq=0.25, beta_seq=0.5)
        out = flom_estimate(spec, n, seed, p, q)
        coeffs = sample_coefficients(spec, n, seed).coefficients
        trace = []
        for k in (max(truncation // 4, 1), max(truncation // 2, 1), truncation):
            vals = rowwise_quasi_norm(coeffs[:, :k], QuasiNormSpec(q)) ** p
            trace.append((k, float(vals.mean()).hex()))
        assert [(k, e.hex()) for k, e in out.truncation_trace] == trace
        assert out.estimate.hex() == trace[-1][1]
        assert out.tail_index == (alpha / p if alpha < 2.0 else None)
        if alpha < 2.0 and 2 * p >= alpha:  # Var ||u||^p is infinite
            assert out.stderr is None and "infinite" in out.stderr_reason
        else:
            assert out.stderr.hex() == float(vals.std(ddof=1) / math.sqrt(n)).hex()
            assert out.stderr_reason is None

    def test_one_sample_has_no_stderr_and_none_is_an_error(self):
        # at p = 0.5 the variance is finite, yet one sample has no deviation
        spec = StableFieldSpec.make(1.5, PowerLaw(1.0, 1.0), EuclideanSequence(q=1.0), 8)
        out = flom_estimate(spec, 1, 3, 0.5, 1.0)
        row = sample_coefficients(spec, 1, 3).coefficients
        assert out.estimate == rowwise_quasi_norm(row, QuasiNormSpec(1.0))[0] ** 0.5
        assert out.stderr is None and "one sample" in out.stderr_reason
        with pytest.raises(InvalidSpecError):
            flom_estimate(spec, 0, 3, 0.5, 1.0)

    def test_working_memory_does_not_grow_with_the_ensemble(self, traced_peak):
        # the rows are drawn and reduced a block at a time: beyond the three
        # n-length statistics and the standard deviation's n-length
        # temporary, one block of rows; the n x T matrix is never held
        spec = StableFieldSpec.make(1.5, PowerLaw(1.0, 1.0), EuclideanSequence(q=1.0), 32)
        for n in (25_000, 100_000):
            peak = traced_peak(flom_estimate, spec, n, 4, 0.5, 1.0)
            assert peak - 4 * 8 * n < 2 * 2 ** 20

    def test_warns_once_then_checks_the_order(self):
        spec = StableFieldSpec.make(1.0, PowerLaw(1.0, 0.5), EuclideanSequence(q=1.0), 4)
        with pytest.warns(SummabilityWarning) as record:
            flom_estimate(spec, 50, 1, 0.5, 1.0)
        assert len(record) == 1
        assert record[0].filename == __file__  # the warning names the caller
        with pytest.warns(SummabilityWarning), pytest.raises(MomentOrderTooHighError):
            flom_estimate(spec, 50, 1, 1.0, 1.0)
        with pytest.raises(InvalidSpecError):
            flom_estimate(cauchy_field_spec(4), -1, 1, 0.5, 1.0)

    def test_trace_contracts_with_truncation(self):
        spec = cauchy_field_spec(256)
        out = flom_estimate(spec, 10 ** 4, 12, 0.5, 1.0)
        (n1, e1), (n2, e2), (n3, e3) = out.truncation_trace
        assert (n1, n2, n3) == (64, 128, 256)
        assert abs(e3 - e2) < abs(e2 - e1)

