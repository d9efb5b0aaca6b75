"""Counter-based random streams with a fixed (sample, coefficient) layout.

All sampling in this package draws from a Philox counter-based generator.
Philox produces blocks of four 64-bit words per counter tick and numpy's
``Generator.random`` consumes one word per double, so ``advance(b)`` skips
exactly ``4 * b`` doubles.  We exploit this to give every sample row a
fixed, addressable region of the stream: results are identical whether an
ensemble is generated in one vectorised call, in row chunks, or row by
row, which is what makes parallel generation reproducible.

Layout: each (sample i, coefficient j) pair owns two doubles, stored at
row-local positions (2j, 2j + 1).  Rows are padded to a whole number of
Philox blocks, so row i starts at block offset ``i * blocks_per_row(n)``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "make_rng",
    "blocks_per_row",
    "uniform_rows",
]

_WORDS_PER_BLOCK = 4  # Philox4x64: one counter tick -> four uint64 -> four doubles


def make_rng(seed) -> np.random.Generator:
    """Coerce ``seed`` into a generator.

    Accepts an integer key (Philox stream), an existing Generator, or any
    duck-typed object with the Generator drawing methods (the test seam
    for pinning individual draws).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if hasattr(seed, "standard_normal") and hasattr(seed, "random"):
        return seed
    return np.random.Generator(np.random.Philox(key=seed))


def blocks_per_row(n_coefficients: int) -> int:
    """Philox counter blocks reserved per sample row (2 doubles per coefficient)."""
    doubles = 2 * n_coefficients
    return -(-doubles // _WORDS_PER_BLOCK)


def _row_stream(seed, row_start: int, n_coefficients: int):
    """draw(n_rows): the uniforms of the next n_rows sample rows from
    row_start on, as `uniform_rows` gives them.  One generator serves every
    draw: a row is a whole number of Philox blocks, so each draw starts
    where an advance to its first row would."""
    bpr = blocks_per_row(n_coefficients)
    stride = bpr * _WORDS_PER_BLOCK
    bg = np.random.Philox(key=seed)
    if row_start:
        bg.advance(row_start * bpr)
    gen = np.random.Generator(bg)

    def draw(n_rows: int) -> np.ndarray:
        raw = gen.random(n_rows * stride)
        raw = raw.reshape(n_rows, stride)[:, : 2 * n_coefficients]
        return raw.reshape(n_rows, n_coefficients, 2)

    return draw


def uniform_rows(seed, row_start: int, row_stop: int, n_coefficients: int) -> np.ndarray:
    """Uniform[0,1) draws for sample rows [row_start, row_stop), shape (rows,
    n_coefficients, 2); element (i, j, k) is fixed by (seed, row_start + i, j, k).

    The result is a view into the drawn buffer, not a copy: with an odd
    n_coefficients, whose rows are padded, it is strided."""
    n_rows = row_stop - row_start
    if n_rows <= 0 or n_coefficients <= 0:
        return np.empty((max(n_rows, 0), max(n_coefficients, 0), 2))
    return _row_stream(seed, row_start, n_coefficients)(n_rows)
