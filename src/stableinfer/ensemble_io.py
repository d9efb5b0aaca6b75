"""Serialization of field ensembles.

Binary layout ("SFE1"): the 4 magic bytes, a little-endian uint32 header
length, a UTF-8 JSON header carrying spec hash, seed, and dimensions,
then the coefficient matrix and (if present) the grid matrix as
little-endian float64 in row-major order.

CSV layout (`write_matrix_csv`, the one writer of every CSV table the
package produces): a comment line, a header row naming the columns, then
one row per sample, each value written as `"%.17g" % v` writes it (17
significant digits, which read back as the same float).

Both writers stream.  `write_sfe1` takes an ensemble's rows a block at a
time, in order, and writes each block into its rows of both sections,
whose offsets the header fixes; a held ensemble is one block.
`write_matrix_csv` takes a table, or an iterator of its row blocks, and
encodes each block as it comes.  So the `figure2` runner writes a
gallery family without holding it: its row blocks go to the SFE1 file as
they are drawn and synthesized, and the CSV table is then written from
the file's grid rows (`_grid_blocks`), read back and rescaled a block at
a time.  `read_sfe1` reads each matrix straight into its own array.

The writer produces those bytes without formatting one value at a time.
It takes about 2^14 values per pass, as float64 (which is what `%`
applies to an integer or float32).  A value x whose decade
e = floor(log10|x|) lies in [-4, 16], where `%.17g` uses fixed notation,
is encoded in numpy:

- Its 17-digit significand is d = round(|x| * 10^p) with p = 16 - e.
  10^p is an exact double for p <= 22, and Dekker's product of Veltkamp
  halves (Dekker, Numer. Math. 18, 1971) gives |x| * 10^p exactly as
  h + err.  Where d lies in [10^16, 10^17), h >= 2^53 is an even integer,
  so d = h + rint(err) rounds the exact product half to even, as the
  correctly rounded conversion behind `%` does (Gay 1990).
- d's digits come from a table of the 10^4 four-digit groups.  Sign,
  integer digits, point and fraction are laid out with slices, one
  (decade, sign) group at a time, and trailing fraction zeros (with a
  bare point) are dropped through each text's length.

The other values are formatted by `%` itself: 0 and -0, inf and nan,
values in exponent notation, and values whose d leaves [10^16, 10^17)
because log10 rounded across a power of ten.  A sampled field has few of
them.  A run of equal bit patterns (a Haar field is piecewise constant)
is encoded once and its text repeated.  Commas and newlines go after the
texts, a keep-mask selects the bytes, and each pass is one write.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, InvalidSpecError

__all__ = ["MAGIC", "write_sfe1", "read_sfe1", "write_matrix_csv"]

MAGIC = b"SFE1"
_FLOAT_FMT = "%.17g"


def write_sfe1(path, spec_hash: str, seed: int, shape: tuple, blocks: Iterable) -> None:
    """Write an ensemble of shape (n_samples, n_coefficients, grid_size),
    grid_size 0 for none, from its row blocks in row order: each block is
    (coefficient rows, grid rows), grid rows None when grid_size is 0.  A
    held ensemble is one block, `[(coefficients, grid_values)]`."""
    n, m, g = (int(v) for v in shape)
    header = {"spec_hash": spec_hash, "seed": seed, "n_samples": n,
              "n_coefficients": m, "grid_size": g}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    start = len(MAGIC) + 4 + len(blob)
    # the header fixes where every row of both sections lies, so each block
    # is written straight into its rows of each
    sections = [(start, m)] + ([(start + 8 * n * m, g)] if g else [])
    row = 0
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for block in blocks:
            if (block[1] is None) != (g == 0):
                raise DimensionMismatchError("grid rows must be given exactly when grid_size > 0")
            rows = len(block[0])
            for (offset, width), part in zip(sections, block):
                if np.shape(part) != (rows, width) or row + rows > n:
                    raise DimensionMismatchError(
                        f"a block of shape {np.shape(part)} at row {row} of an SFE1 "
                        f"section of shape {(n, width)}")
                fh.seek(offset + 8 * row * width)
                # through the buffer protocol: a C-contiguous little-endian
                # array is written as it lies, with no bytes copy
                fh.write(np.ascontiguousarray(part, dtype="<f8"))
            row += rows
    if row != n:
        raise DimensionMismatchError(f"the blocks hold {row} of the {n} rows")


def _read_header(fh) -> dict:
    magic = fh.read(4)
    if magic != MAGIC:
        raise InvalidSpecError(f"not an SFE1 file (magic {magic!r})")
    size = fh.read(4)
    if len(size) < 4:
        raise InvalidSpecError("SFE1 file cut short in its header")
    return json.loads(fh.read(struct.unpack("<I", size)[0]).decode("utf-8"))


def _read_into(fh, out: np.ndarray) -> None:
    """Fill the C-contiguous little-endian float64 array out from the file."""
    if fh.readinto(memoryview(out).cast("B")) != out.nbytes:
        raise InvalidSpecError(f"SFE1 file cut short in a section of shape {out.shape}")


def read_sfe1(path) -> tuple[dict, np.ndarray, Optional[np.ndarray]]:
    """Read back (header, coefficients, grid-or-None), each matrix read
    straight into its own array."""
    with open(path, "rb") as fh:
        header = _read_header(fh)
        n, g = header["n_samples"], header.get("grid_size", 0)
        coeffs = np.empty((n, header["n_coefficients"]), dtype="<f8")
        _read_into(fh, coeffs)
        grid = None
        if g:
            grid = np.empty((n, g), dtype="<f8")
            _read_into(fh, grid)
        if fh.read(1):
            raise InvalidSpecError("SFE1 file runs on past its sections")
    return header, coeffs, grid


def _grid_blocks(path) -> Iterator[np.ndarray]:
    """Yield the grid section of an SFE1 file in order, a block of rows of
    about one CSV pass at a time, each read into one reused buffer (read
    it before the next)."""
    with open(path, "rb") as fh:
        header = _read_header(fh)
        n, g = header["n_samples"], header["grid_size"]
        fh.seek(8 * n * header["n_coefficients"], 1)
        buffer = np.empty((min(n, max(1, _CHUNK // max(g, 1))), g), dtype="<f8")
        for start in range(0, n, len(buffer)):
            block = buffer[:n - start]
            _read_into(fh, block)
            yield block


# Values encoded per pass (whole rows; a longer row is a pass by itself).
# A pass holds about 160 bytes of temporaries per value, 2.6 MB here, and
# frees them at its end.  With 2^17 values (21 MB) glibc returned them to
# the system after each pass and the next pass faulted them in again: a
# 13-level gallery table (50 x 16384) took 30,000 minor faults per write,
# and 0 from the second write on with 2^14 to 2^16, at equal or shorter
# times (2-vCPU host, pinned, fresh processes).
_CHUNK = 1 << 14
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant


def _veltkamp(x):
    """Split x exactly into hi + lo, each holding half of its significand."""
    t = x * _SPLIT
    hi = t - (t - x)
    return hi, x - hi


# the four ASCII digits of k < 10^4 as one native uint32, and their
# trailing zeros
_QUADS = np.empty((10,) * 4 + (4,), np.uint8)
for _j in range(4):
    _QUADS[..., _j] = np.arange(ord("0"), ord("9") + 1).reshape((10,) + (1,) * (3 - _j))
_QUADS = _QUADS.reshape(-1, 4).view(np.uint32)[:, 0]
_QUAD_ZEROS = np.zeros(10 ** 4, np.uint8)
for _j in range(4):
    _QUAD_ZEROS[::10 ** (_j + 1)] += 1
del _j
_GROUPS = [(e, neg) for e in range(-4, 17) for neg in (0, 1)]  # key 2 (e + 4) + neg


def _format17(x: np.ndarray):
    """The `%.17g` texts of the float64 values x, as (text, length, order):
    row i of the uint8 matrix text holds the text of x[order[i]],
    left-aligned in length[i] bytes, with at least one column to spare."""
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    slow = ~((e >= -4) & (e <= 16))  # true for 0, inf and nan
    a[slow] = 1.0
    e[slow] = 0.0
    e += 4.0
    e *= 2.0
    e += np.signbit(x)
    key = e.astype(np.uint8)
    order = np.argsort(key, kind="stable")
    a = a[order]
    slow = slow[order]
    # each group's rows, where the sorted keys step past it
    ends = np.searchsorted(key[order], np.arange(len(_GROUPS) + 1, dtype=np.uint8)).tolist()
    groups = [(slice(start, end), *_GROUPS[g])
              for g, (start, end) in enumerate(zip(ends, ends[1:])) if end > start]
    # the 17-digit significand d = round(a * 10^p), p = 16 - e (see the
    # module docstring for why it is exact)
    d = np.empty(x.size, np.int64)
    for rows, exp, _ in groups:
        c = 10.0 ** (16 - exp)
        c_hi, c_lo = _veltkamp(c)
        a_hi, a_lo = _veltkamp(a[rows])
        h = a[rows] * c
        err = a_hi * c_hi
        err -= h
        err += a_hi * c_lo
        err += a_lo * c_hi
        err += a_lo * c_lo
        d[rows] = h
        d[rows] += np.rint(err).astype(np.int64)
    slow |= (d < 10 ** 16) | (d >= 10 ** 17)  # a decade missed, or a carry to 10^17
    slow_at = np.flatnonzero(slow)
    d[slow_at] = 10 ** 16
    texts = (_FLOAT_FMT + "\n") * slow_at.size % tuple(x[order[slow_at]].tolist())
    slow_len = np.array([len(t) for t in texts.split("\n")[:-1]], dtype=np.uint8)
    # the digits: a leading one, then four groups of four
    top = d // 10 ** 8
    low = (d - top * 10 ** 8).astype(np.uint32)
    lead = top // 10 ** 8
    mid = (top - lead * 10 ** 8).astype(np.uint32)
    fours = []  # the four-digit groups below the leading digit
    for eight in (mid, low):
        hi = eight // 10 ** 4
        fours += [hi, eight - hi * 10 ** 4]
    quads = np.empty((x.size, 5), np.uint32)
    for col, index in enumerate([lead] + fours):
        # np.take, not [], which gathers 2x slower by a uint32 index; the
        # indices are in range, and mode "clip" spares the buffered copy of
        # a strided out that the default mode makes
        np.take(_QUADS, index, out=quads[:, col], mode="clip")
    digits = quads.view(np.uint8)[:, 3:]
    # trailing zeros, four digits at a time while the groups are zero
    tz = np.take(_QUAD_ZEROS, fours[-1])
    at = np.flatnonzero(fours[-1] == 0)
    for more in fours[-2::-1]:
        part = more[at]
        tz[at] += np.take(_QUAD_ZEROS, part)
        at = at[part == 0]
    width = 1 + max([neg + 18 - min(exp, 0) for _, exp, neg in groups]
                    + [int(slow_len.max(initial=0))])
    text = np.empty((x.size, width), np.uint8)
    length = np.empty(x.size, np.uint8)
    for rows, exp, neg in groups:
        out, dig = text[rows], digits[rows]
        if neg:
            out[:, 0] = ord("-")
        if exp >= 0:
            out[:, neg:neg + exp + 1] = dig[:, :exp + 1]
            out[:, neg + exp + 1] = ord(".")
            out[:, neg + exp + 2:neg + 18] = dig[:, exp + 1:]
            # with no fraction digits left, the point goes too
            length[rows] = np.where(tz[rows] >= 16 - exp, neg + exp + 1, neg + 18 - tz[rows])
        else:
            lead_in = np.frombuffer(b"0." + b"0" * (-exp - 1), np.uint8)
            out[:, neg:neg + lead_in.size] = lead_in
            out[:, neg + lead_in.size:neg + lead_in.size + 17] = dig
            length[rows] = neg + 18 - exp - tz[rows]
    if slow_at.size:
        length[slow_at] = slow_len
        keep = np.arange(width) < slow_len[:, None]
        block = text[slow_at]
        block[keep] = np.frombuffer(texts.replace("\n", "").encode("ascii"), np.uint8)
        text[slow_at] = block
    return text, length, order


def _encode(values: np.ndarray, n_cols: int) -> np.ndarray:
    """The CSV bytes of whole rows, given as their row-major float64 values."""
    bits = values.view(np.int64)
    first = np.empty(values.size, bool)
    first[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    # a run of equal bit patterns (a Haar field is piecewise constant) is
    # formatted once and its text repeated, across row ends too
    starts = np.flatnonzero(first)
    text, length, order = _format17(values[starts])
    rank = np.empty(starts.size, np.intp)
    rank[order] = np.arange(starts.size)
    if starts.size < values.size:
        rank = np.repeat(rank, np.diff(starts, append=values.size))
    width = text.shape[1]
    text = np.take(text.view(f"V{width}")[:, 0], rank).view(np.uint8)
    length = np.take(length, rank)
    ends = np.arange(0, text.size, width) + length
    text[ends] = ord(",")
    text[ends[n_cols - 1::n_cols]] = ord("\n")
    # each text's keep-mask row, gathered from the rows of the (width + 1)
    # possible ones: three times faster than comparing length to each column
    keep = np.arange(width) <= np.arange(width + 1)[:, None]
    return text[np.take(keep, length.astype(np.intp), axis=0).reshape(-1)]


def _table_rows(block, n_cols: int) -> np.ndarray:
    """A block of table rows as a 2-D array, checked against the header."""
    block = np.asarray(block)
    if block.dtype.kind in "cSU":  # numpy would drop imaginary parts and parse text
        raise TypeError(f"a CSV table holds real numbers, not {block.dtype}")
    if block.ndim == 1:
        block = block[:, None]
    if block.shape[1] != n_cols:
        raise DimensionMismatchError(f"{n_cols} column names for a table of {block.shape[1]} columns")
    return block


def write_matrix_csv(path, matrix, columns: Sequence[str], comment: str) -> None:
    """Write a table as CSV: comment line, header row of the column names,
    one row per sample; a 1-D array is one column.  The bytes are those of
    `"%.17g" % v` for each value v, joined by commas.

    matrix is the table, or an iterator of its row blocks in order, which
    are encoded as they come, so a streamed table is never held whole."""
    n_cols = len(columns)
    blocks = (_table_rows(block, n_cols) for block in
              (matrix if isinstance(matrix, Iterator) else [matrix]))
    # the first block is checked before the file is opened
    first = next(blocks, None)
    step = max(1, _CHUNK // max(n_cols, 1))
    with open(path, "wb") as fh:
        fh.write(f"# {comment}\n{','.join(columns)}\n".encode("utf-8"))
        for block in chain([] if first is None else [first], blocks):
            if n_cols == 0:
                fh.write(b"\n" * len(block))
                continue
            for r in range(0, len(block), step):
                rows = np.array(block[r:r + step], dtype=np.float64, order="C")
                fh.write(_encode(rows.reshape(-1), n_cols))
