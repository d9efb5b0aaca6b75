"""Function-space stable random fields via truncated random series.

A field is u = sum_n u_n psi_n with independent stable coefficients
u_n ~ S(alpha, beta_n, gamma_n, delta_n; 0) against a declared basis.
This module holds the basis descriptions, the field specification, the
deterministic counter-based sampler, grid synthesis, and the Monte Carlo
diagnostic that probes the convergence and moment theory: fractional
lower-order moments of the field norm.

Wavelet coefficients are ordered lexicographically in (level j,
translate k), i.e. sequence index n = 2^j + k, which makes scalar
sequences gamma_n and level-indexed tables gamma_{j,k} interconvertible.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Optional, Union

import numpy as np

from . import rng as rng_mod
from .errors import (
    DimensionMismatchError,
    InvalidSpecError,
    MomentOrderTooHighError,
    OutOfRangeError,
)
from .metrics import _deviation, _leaf_buffer, _norms_of_powers, _powers
from .sequences import (
    CoefficientSequence,
    Explicit,
    _summable,
    as_sequence,
    sequence_values,
)
from .stable import standard_stable_from_uniforms, validate_params

__all__ = [
    "EuclideanSequence",
    "HaarWavelet",
    "HatHierarchical",
    "Eigenbasis",
    "BasisSpec",
    "StableFieldSpec",
    "FieldEnsemble",
    "SummabilityWarning",
    "basis_size",
    "sample_coefficients",
    "synthesize",
    "GalleryEnsemble",
    "wavelet_gallery_ensemble",
    "FlomEstimate",
    "flom_estimate",
]


class SummabilityWarning(UserWarning):
    """The scale sequence fails the summability needed for convergence."""


@dataclass(frozen=True)
class EuclideanSequence:
    """Sequence-space 'basis': coefficients are the field values; the
    natural norm is the ell^q quasi-norm."""

    q: float = 2.0


@dataclass(frozen=True)
class HaarWavelet:
    """Step wavelets on [0, 1), levels j = 0..levels, translates k < 2^j.

    With unit_norm the translate at level j carries the 2^(j/2) factor
    making the family orthonormal in L^2[0, 1].
    """

    levels: int
    grid_size: int = 2 ** 14
    unit_norm: bool = True


@dataclass(frozen=True)
class HatHierarchical:
    """Hierarchical hat (tent) functions on the same dyadic layout as the
    Haar family; visually smooth but not orthogonal."""

    levels: int
    grid_size: int = 2 ** 14
    unit_norm: bool = True


@dataclass(frozen=True)
class Eigenbasis:
    """Normalised sine eigenfunctions sqrt(2) sin(n pi x), for
    smoothness-scale experiments."""

    grid_size: int = 2 ** 14


BasisSpec = Union[EuclideanSequence, HaarWavelet, HatHierarchical, Eigenbasis]


def basis_size(basis: BasisSpec) -> Optional[int]:
    """Number of basis functions, or None when unbounded (sequence bases)."""
    if isinstance(basis, (HaarWavelet, HatHierarchical)):
        return 2 ** (basis.levels + 1) - 1
    return None


@dataclass(frozen=True)
class StableFieldSpec:
    """A truncated series specification for a stable random field."""

    alpha: float
    gamma_seq: CoefficientSequence
    delta_seq: CoefficientSequence
    beta_seq: CoefficientSequence
    basis: BasisSpec
    truncation: int

    def __post_init__(self):
        if self.truncation < 1:
            raise InvalidSpecError("truncation must be at least 1")
        size = basis_size(self.basis)
        if size is not None and self.truncation > size:
            raise InvalidSpecError(
                f"truncation {self.truncation} exceeds the {size} functions "
                f"of the declared basis"
            )
        validate_params(self.alpha, 0.0, 1.0, 0.0)  # range-check alpha alone
        gam = sequence_values(self.gamma_seq, self.truncation)
        if np.any(gam < 0) or not np.all(np.isfinite(gam)):
            raise InvalidSpecError("scale sequence must be finite and >= 0")
        bet = sequence_values(self.beta_seq, self.truncation)
        if np.any(np.abs(bet) >= 1):
            raise InvalidSpecError("skewness sequence must lie inside (-1, 1)")
        if not np.all(np.isfinite(sequence_values(self.delta_seq, self.truncation))):
            raise InvalidSpecError("location sequence must be finite")

    @classmethod
    def make(cls, alpha, gamma_seq, basis, truncation,
             delta_seq=0.0, beta_seq=0.0) -> "StableFieldSpec":
        return cls(
            alpha=float(alpha),
            gamma_seq=as_sequence(gamma_seq),
            delta_seq=as_sequence(delta_seq),
            beta_seq=as_sequence(beta_seq),
            basis=basis,
            truncation=int(truncation),
        )

    def spec_hash(self) -> str:
        payload = repr(self).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


@dataclass
class FieldEnsemble:
    """A seeded batch of coefficient draws (and optional grid synthesis).

    Regenerable bit-exactly from (spec, seed): row i of the coefficient
    matrix is a pure function of (seed, i) through the counter-based
    stream layout of `rng.uniform_rows`.
    """

    spec: StableFieldSpec
    seed: int
    coefficients: np.ndarray  # (n_samples, truncation)
    grid_values: Optional[np.ndarray] = None  # (n_samples, grid_size)

    @property
    def n_samples(self) -> int:
        return self.coefficients.shape[0]

    @property
    def spec_hash(self) -> str:
        return self.spec.spec_hash()

    def reference_id(self) -> str:
        return f"{self.spec_hash}:{self.seed}:{self.n_samples}"


# Rows are sampled, and their flom statistics taken, in blocks of about
# 2^15 uniforms, so each CMS work array (128-256 KB) stays in the cache.  A
# block's bounds cannot change a draw, because every row owns a fixed
# counter-addressed stretch of the stream.  Smaller blocks (2^13) were
# slower from per-call overhead; 2^15 to 2^18 measured alike.
_BLOCK_UNIFORMS = 1 << 15


def _block_rows(truncation: int) -> int:
    """Rows per block: one row when a row alone holds more uniforms."""
    return max(1, _BLOCK_UNIFORMS // (2 * truncation))


def _columns(spec: StableFieldSpec) -> tuple:
    """(gamma_n, delta_n, beta_n) over the truncation, and the indices of
    the point-mass columns (gamma_n = 0)."""
    gam, det, bet = (sequence_values(s, spec.truncation)
                     for s in (spec.gamma_seq, spec.delta_seq, spec.beta_seq))
    return gam, det, bet, np.flatnonzero(gam == 0.0)


def _transform_rows(alpha: float, columns: tuple, u: np.ndarray, out: np.ndarray) -> None:
    """gamma_n Z + delta_n for the uniform pairs u, written into out."""
    gam, det, bet, zero = columns
    z = standard_stable_from_uniforms(alpha, bet[None, :], u[:, :, 0], u[:, :, 1])
    np.multiply(gam, z, out=out)
    out += det
    if zero.size:
        # point-mass columns must not inherit 0 * inf from an extreme draw
        out[:, zero] = det[zero]


def _coefficients_from_uniforms(spec: StableFieldSpec, u: np.ndarray) -> np.ndarray:
    """The coefficient matrix of the uniform pairs u in one transform."""
    out = np.empty(u.shape[:2])
    _transform_rows(spec.alpha, _columns(spec), u, out)
    return out


def _warn_unless_summable(spec: StableFieldSpec, stacklevel: int = 1) -> None:
    """Warn unless the scale sequence is ell^alpha-summable.  The warning
    names the line stacklevel frames above this one: 1 is the line that
    calls this function, 2 the call of the public sampler that does."""
    if not _summable(spec.gamma_seq, spec.alpha):
        warnings.warn(
            "scale sequence is not ell^alpha-summable: the untruncated "
            "series would diverge almost surely",
            SummabilityWarning,
            stacklevel=stacklevel + 1,
        )


def _sampled_blocks(spec: StableFieldSpec, n_samples: int, seed: int,
                    out: Optional[np.ndarray] = None):
    """Yield (start, block) for the sampler's row blocks: block holds the
    coefficient rows start, start + 1, ... of the ensemble.

    Each block is written into its rows of out, the whole coefficient
    matrix, when out is given; otherwise every block is written into one
    reused block-sized buffer, which must be read before the next block
    is drawn.  Beyond out, the working memory is one block of rows, about
    1 MB, or one row's uniforms and CMS arrays when a row is longer.
    """
    columns = _columns(spec)
    rows = _block_rows(spec.truncation)
    reuse = out is None
    if reuse:
        out = np.empty((min(rows, n_samples), spec.truncation))
    # one Philox stream for all the blocks, each drawn where the last ended
    draw = rng_mod._row_stream(seed, 0, spec.truncation)
    for start in range(0, n_samples, rows):
        stop = min(start + rows, n_samples)
        block = out[:stop - start] if reuse else out[start:stop]
        _transform_rows(spec.alpha, columns, draw(stop - start), block)
        yield start, block


def sample_coefficients(spec: StableFieldSpec, n_samples: int, seed: int) -> FieldEnsemble:
    """Draw n_samples independent coefficient vectors for the spec.

    Coefficient (i, n) is S(alpha, beta_n, gamma_n, delta_n; 0),
    independent across samples and indices, and a deterministic function
    of (spec, seed, i, n).  If the scale sequence fails ell^alpha
    summability (so the untruncated series would diverge), a warning is
    attached but sampling proceeds: truncated draws are always finite.
    """
    if n_samples < 0:
        raise InvalidSpecError("n_samples must be >= 0")
    _warn_unless_summable(spec, stacklevel=2)
    coeffs = np.empty((n_samples, spec.truncation))
    for _ in _sampled_blocks(spec, n_samples, seed, coeffs):
        pass
    return FieldEnsemble(spec=spec, seed=int(seed), coefficients=coeffs)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def _midpoints(grid_size: int) -> np.ndarray:
    """`synthesize`'s default grid: the midpoints of grid_size equal cells of [0, 1]."""
    return (np.arange(grid_size) + 0.5) / grid_size


def _haar_cells(coeffs: np.ndarray, amps: list) -> np.ndarray:
    """The Haar sum of whole levels 0..len(amps) - 1 on its 2^len(amps)
    finest half-cells, one row per coefficient row."""
    n = coeffs.shape[0]
    cells = np.zeros((n, 1))
    for j, amp in enumerate(amps):
        # half-cell 2k (2k + 1) of level j: the parent cell k plus (minus)
        # amp c_jk, formed in the level's own array; x - y has the bits of
        # x + (-y), and a row of 2^14 cells takes 2.5x less time this way
        # than by broadcasting against the pair (amp, -amp)
        level = np.empty((n, 2 ** j, 2))
        plus, minus = level[:, :, 0], level[:, :, 1]
        np.multiply(coeffs[:, 2 ** j - 1:2 ** (j + 1) - 1], amp, out=minus)
        np.add(cells, minus, out=plus)
        np.subtract(cells, minus, out=minus)
        cells = level.reshape(n, 2 ** (j + 1))
    return cells


def _dyadic_synthesis(basis: Union[HaarWavelet, HatHierarchical],
                      grid: Optional[np.ndarray] = None):
    """The synthesis of coefficient rows on the grid (by default
    `synthesize`'s), as a function of the rows: level j of the basis starts
    at column 2^j - 1.  What depends on the grid alone is formed here, once,
    so a caller that synthesizes many row blocks on one grid forms it once.

    Every translate is supported inside [0, 1); points outside get 0.  The
    Haar sum is built once per row on the 2^(levels+1) finest half-cells
    and gathered at h = floor(2^(levels+1) x); where h is 0, 1, ...,
    2^(levels+1) - 1 the half-cells are returned as they are.  On the
    default grid of 2^(levels+1) points h is that, since 2^(levels+1) x is
    i + 0.5 there, exactly, so no grid is formed.  This is exact on any
    grid: 2^j x, its floor k and frac = 2^j x - k are exact in binary
    floating point, so level j's translate k is h >> (levels + 1 - j) and
    frac < 0.5 is bit levels - j of h being 0.  The levels are added coarse
    to fine, as a per-level loop over the grid adds them, so every bit is
    the same.
    """
    amps = [2.0 ** (j / 2.0) if basis.unit_norm else 1.0 for j in range(basis.levels + 1)]
    cells = 2 ** (basis.levels + 1)
    if isinstance(basis, HaarWavelet) and grid is None and basis.grid_size == cells:
        return partial(_haar_cells, amps=amps)
    grid = _midpoints(basis.grid_size) if grid is None else grid
    inside = (grid >= 0.0) & (grid < 1.0)
    if isinstance(basis, HaarWavelet):
        h = np.floor(cells * np.where(inside, grid, 0.0)).astype(np.int64)
        if inside.all() and np.array_equal(h, np.arange(cells)):
            return partial(_haar_cells, amps=amps)  # one point per half-cell: no copy
        outside = ~inside

        def haar(coeffs):
            out = np.take(_haar_cells(coeffs, amps), h, axis=1)
            out[:, outside] = 0.0
            return out
        return haar

    def hat(coeffs):
        out = np.zeros((coeffs.shape[0], grid.size))
        for j, amp in enumerate(amps):
            scaled = 2.0 ** j * grid
            k = np.floor(scaled).astype(np.int64)
            np.clip(k, 0, 2 ** j - 1, out=k)
            frac = scaled - k
            shape = (1.0 - np.abs(2.0 * frac - 1.0)) * inside
            out += amp * shape[None, :] * coeffs[:, 2 ** j - 1 + k]
        return out
    return hat


def synthesize(basis: BasisSpec, coefficients: np.ndarray,
               grid: Optional[np.ndarray] = None) -> np.ndarray:
    """Evaluate the series sum_n c_n psi_n(x) on a grid, by default the
    midpoints of the basis's grid_size equal cells of [0, 1].

    coefficients may be a single vector or an (n_samples, N) batch; the
    output matches.  EuclideanSequence passes coefficients through
    unchanged (the sequence is the field).  Wavelet coefficients must
    fill whole levels 0..J; Eigenbasis weights the sine eigenfunctions.
    """
    coeffs = np.atleast_2d(np.asarray(coefficients, dtype=float))
    single = np.asarray(coefficients).ndim == 1
    if isinstance(basis, EuclideanSequence):
        if grid is not None and len(grid) != coeffs.shape[1]:
            raise DimensionMismatchError(
                "sequence basis passes coefficients through; grid length "
                f"{len(grid)} != {coeffs.shape[1]} coefficients"
            )
        out = coeffs
    else:
        if grid is not None:
            grid = np.asarray(grid, dtype=float)
        if isinstance(basis, (HaarWavelet, HatHierarchical)):
            expected = basis_size(basis)
            if coeffs.shape[1] != expected:
                raise DimensionMismatchError(
                    f"basis with levels 0..{basis.levels} needs {expected} "
                    f"coefficients, got {coeffs.shape[1]}"
                )
            out = _dyadic_synthesis(basis, grid)(coeffs)
        elif isinstance(basis, Eigenbasis):
            grid = _midpoints(basis.grid_size) if grid is None else grid
            n = coeffs.shape[1]
            modes = np.arange(1, n + 1)
            phi = math.sqrt(2.0) * np.sin(np.pi * modes[:, None] * grid[None, :])
            out = coeffs @ phi
        else:
            raise TypeError(f"unknown basis {basis!r}")
    return out[0] if single else out


# ---------------------------------------------------------------------------
# matched heavy-tail / light-tail wavelet gallery
# ---------------------------------------------------------------------------

@dataclass
class GalleryEnsemble:
    """A synthesized wavelet ensemble rescaled for side-by-side display."""

    family: str
    ensemble: FieldEnsemble
    rescaled_grid: np.ndarray
    offset: float
    scale: float


def _gallery_spec(family: str, levels: int, grid_size: int) -> StableFieldSpec:
    n = 2 ** (levels + 1) - 1
    js = np.floor(np.log2(np.arange(1, n + 1))).astype(int)
    level_scale = (js + 1.0) ** -2.0 * 2.0 ** (-js.astype(float))
    if family == "cauchy":
        alpha, gam = 1.0, level_scale
    elif family == "gaussian":
        # scale / sqrt(2) makes the coefficient exactly scale * N(0,1)
        alpha, gam = 2.0, level_scale / math.sqrt(2.0)
    else:
        raise InvalidSpecError(f"family must be 'cauchy' or 'gaussian', got {family!r}")
    return StableFieldSpec.make(
        alpha, Explicit(gam.tolist()), HaarWavelet(levels, grid_size), n,
    )


class _GalleryBlocks:
    """The row blocks of one gallery family, (coefficient rows, grid rows),
    drawn and synthesized one sampler block at a time; the coefficient
    rows lie in a reused buffer, to be read before the next block.

    Iterating them tracks the grid's min and max and the largest |c|, each
    an exact reduction, so once every block has been read they are those
    of the whole ensemble.
    """

    def __init__(self, family: str, levels: int, n_samples: int, seed: int, grid_size: int):
        if levels < 1:
            raise InvalidSpecError("the gallery needs at least one refinement level")
        if n_samples < 1:
            raise InvalidSpecError("the gallery needs n_samples >= 1")
        self.spec = _gallery_spec(family, levels, grid_size)
        self.n_samples, self.seed = n_samples, seed
        self._synthesis = _dyadic_synthesis(self.spec.basis)  # the grid's arrays, once
        self.lo, self.hi, self.extreme = np.inf, -np.inf, 0.0

    def __iter__(self):
        for _, c in _sampled_blocks(self.spec, self.n_samples, self.seed):
            g = self._synthesis(c)
            # np.minimum and np.maximum pass a nan on, as the whole-array reductions do
            self.lo = np.minimum(self.lo, g.min())
            self.hi = np.maximum(self.hi, g.max())
            self.extreme = np.maximum(self.extreme, np.maximum(c.max(), -c.min()))  # max |c|
            yield c, g

    def offset_and_scale(self) -> tuple[float, float]:
        """(lo, span) of the affine map (g - lo) / span onto [0, 1]."""
        lo, hi = float(self.lo), float(self.hi)
        return lo, hi - lo if hi > lo else 1.0


def wavelet_gallery_ensemble(family: str, levels: int, n_samples: int, seed: int,
                             grid_size: int = 2 ** 14) -> GalleryEnsemble:
    """Sample a wavelet ensemble with per-level scale (j+1)^-2 2^-j times a
    standard Cauchy or standard normal coefficient, synthesize it, and
    rescale the whole ensemble affinely onto [0, 1].

    The two families consume the identical underlying uniform draws for a
    given seed, so their samples are transformations of the same noise
    and the galleries are directly comparable.  Rescaling uses the global
    ensemble min/max (per-sample scaling would destroy comparability
    across samples); the raw coefficients are kept on the ensemble.
    """
    blocks = _GalleryBlocks(family.lower(), levels, n_samples, seed, grid_size)
    coeffs = np.empty((n_samples, blocks.spec.truncation))
    grid = np.empty((n_samples, grid_size))
    row = 0
    for c, g in blocks:
        coeffs[row:row + len(c)] = c
        grid[row:row + len(c)] = g
        row += len(c)
    lo, span = blocks.offset_and_scale()
    return GalleryEnsemble(
        family=family.lower(),
        ensemble=FieldEnsemble(blocks.spec, int(seed), coeffs, grid),
        rescaled_grid=(grid - lo) / span, offset=lo, scale=span,
    )


# ---------------------------------------------------------------------------
# fractional lower-order moments of the field norm
# ---------------------------------------------------------------------------

@dataclass
class FlomEstimate:
    estimate: float
    stderr: Optional[float]  # None, for stderr_reason, when Var ||u||^p is infinite
    truncation_trace: tuple  # ((N, estimate), ...) at N/4, N/2, N
    tail_index: Optional[float]  # alpha / p for alpha < 2 (P(||u||^p > x) ~ C x^-(alpha/p))
    stderr_reason: Optional[str]


def _check_flom_orders(alpha: float, p: float, q: float) -> None:
    """Raise unless 0 < p <= q and, for alpha < 2, p < alpha: absolute
    moments of order >= alpha are infinite, so the estimator would diverge."""
    if not 0.0 < p <= q:
        raise OutOfRangeError("p", f"need 0 < p <= q, got p={p}, q={q}")
    if alpha < 2.0 and p >= alpha:
        raise MomentOrderTooHighError(
            f"moment order p={p} >= alpha={alpha}: E||u||^p is infinite (need p < alpha)")


def flom_estimate(spec: StableFieldSpec, n_samples: int, seed: int,
                  p: float, q: float) -> FlomEstimate:
    """Monte Carlo estimate of E ||u||^p with the ell^q coefficient norm,
    over the n_samples rows of sample_coefficients(spec, n_samples, seed).

    Requires 0 < p <= q and p below the spec's stability index (absolute
    moments of order >= alpha are infinite, so the estimator would
    diverge).  Alongside the full estimate, the same statistic is
    computed at quarter and half truncation as a convergence trace: the
    partial sums converge in p-th mean, so successive differences should
    shrink.

    ||u||^p has tail index alpha/p when alpha < 2.  The standard error,
    the sample deviation over sqrt(n), is reported only where that index
    exceeds 2 and there are two samples or more; otherwise `stderr` is
    None with the reason in `stderr_reason`.

    Each row block is drawn and reduced to its rows' statistics before the
    next is drawn, so the coefficient matrix is never held: beyond the
    three n-length statistics the working memory is one block of rows,
    about 1 MB, and the standard error's leaf of at most 2^15 values.
    Warns as sample_coefficients does.
    """
    if n_samples < 1:
        raise InvalidSpecError("the flom estimate needs n_samples >= 1")
    _warn_unless_summable(spec, stacklevel=2)
    alpha, n_total = spec.alpha, spec.truncation
    _check_flom_orders(alpha, p, q)
    cuts = (max(n_total // 4, 1), max(n_total // 2, 1), n_total)
    # the statistic of each row at each cut, taken block by block so that
    # the |c|^q temporaries stay block-sized; each block's |c|^q is raised
    # once, and each cut's norms are taken from its prefix columns
    stats = [np.empty(n_samples) for _ in cuts]
    for start, block in _sampled_blocks(spec, n_samples, seed):
        powers = _powers(block, q)
        for cut, vals in zip(cuts, stats):
            vals[start:start + block.shape[0]] = _norms_of_powers(powers[:, :cut], q) ** p
    trace = [(cut, float(vals.mean())) for cut, vals in zip(cuts, stats)]
    est = trace[-1][1]
    vals = stats[-1]
    tail_index = alpha / p if alpha < 2.0 else None
    stderr, reason = 0.0, None  # constant statistic (e.g. location-only field)
    if n_samples == 1:
        stderr, reason = None, "one sample has no sample deviation, so no standard error"
    elif vals.max() > vals.min():
        if tail_index is not None and tail_index <= 2.0:
            stderr, reason = None, (
                f"Var ||u||^p is infinite for 2p = {2 * p:g} >= alpha = {alpha:g}, so the "
                "sample deviation over sqrt(n) is no standard error")
        else:
            stderr = _deviation(vals, est, _leaf_buffer(vals.size)) / math.sqrt(vals.size)
    return FlomEstimate(estimate=est, stderr=stderr, truncation_trace=tuple(trace),
                        tail_index=tail_index, stderr_reason=reason)
