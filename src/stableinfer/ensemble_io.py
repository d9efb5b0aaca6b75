"""Serialization of field ensembles.

Binary layout ("SFE1"): the 4 magic bytes, a little-endian uint32 header
length, a UTF-8 JSON header carrying spec hash, seed, and dimensions,
then the coefficient matrix and (if present) the grid matrix as
little-endian float64 in row-major order.

CSV layout (`write_matrix_csv`, the one writer of every CSV table the
package produces): a comment line, a header row naming the columns, then
one row per sample in 17-significant-digit decimals, which read back as
the same floats.  Ensemble files carry the spec hash and seed in the
comment.  Each row is formatted by one precomposed format string; in a row
holding runs of equal values (a Haar field is piecewise constant), each
run of equal bit patterns is formatted once and its text repeated, which
writes the same bytes.
"""

from __future__ import annotations

import json
import operator
import struct
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidSpecError
from .series import FieldEnsemble

__all__ = ["MAGIC", "write_sfe1", "read_sfe1", "write_ensemble_csv", "write_matrix_csv"]

MAGIC = b"SFE1"
_FLOAT_FMT = "%.17g"


def write_sfe1(path, ensemble: FieldEnsemble) -> None:
    header = {
        "spec_hash": ensemble.spec_hash,
        "seed": ensemble.seed,
        "n_samples": int(ensemble.coefficients.shape[0]),
        "n_coefficients": int(ensemble.coefficients.shape[1]),
        "grid_size": int(ensemble.grid_values.shape[1]) if ensemble.grid_values is not None else 0,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(ensemble.coefficients, dtype="<f8").tobytes())
        if ensemble.grid_values is not None:
            fh.write(np.ascontiguousarray(ensemble.grid_values, dtype="<f8").tobytes())


def read_sfe1(path) -> tuple[dict, np.ndarray, Optional[np.ndarray]]:
    """Read back (header, coefficients, grid-or-None)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise InvalidSpecError(f"not an SFE1 file (magic {magic!r})")
        (hlen,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        n, m = header["n_samples"], header["n_coefficients"]
        coeffs = np.frombuffer(fh.read(8 * n * m), dtype="<f8").reshape(n, m).copy()
        grid = None
        g = header.get("grid_size", 0)
        if g:
            grid = np.frombuffer(fh.read(8 * n * g), dtype="<f8").reshape(n, g).copy()
    return header, coeffs, grid


def write_matrix_csv(path, matrix: np.ndarray, columns: Sequence[str],
                     comment: str) -> None:
    """Write a table as CSV: comment line, header row of the column names,
    one row per sample; a 1-D array is one column."""
    matrix = np.asarray(matrix)
    if matrix.ndim == 1:
        matrix = matrix[:, None]
    # equal bit patterns (not equal values: -0.0 and 0.0 print apart, and
    # int64 above 2^53 must not meet a float cast) print the same text
    bits = matrix.view(f"V{matrix.itemsize}")
    repeats = bits[:, 1:] == bits[:, :-1]
    has_runs = repeats.any(axis=1)
    row_fmt = ",".join([_FLOAT_FMT] * matrix.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {comment}\n")
        fh.write(",".join(columns) + "\n")
        for row, runs, rep in zip(matrix, has_runs, repeats):
            if not runs:
                fh.write(row_fmt % tuple(row.tolist()))
                continue
            starts = np.flatnonzero(np.concatenate(([True], ~rep)))
            counts = np.diff(starts, append=row.size).tolist()
            cells = ((_FLOAT_FMT + ",\n") * starts.size % tuple(row[starts].tolist())).split("\n")
            line = "".join(map(operator.mul, cells, counts))
            fh.write(line[:-1] + "\n")


def write_ensemble_csv(path, ensemble: FieldEnsemble, which: str = "coefficients") -> None:
    if which == "coefficients":
        mat, prefix = ensemble.coefficients, "c"
    elif which == "grid":
        if ensemble.grid_values is None:
            raise InvalidSpecError("ensemble has no grid synthesis")
        mat, prefix = ensemble.grid_values, "x"
    else:
        raise InvalidSpecError(f"unknown section {which!r}")
    comment = f"spec_hash={ensemble.spec_hash} seed={ensemble.seed}"
    write_matrix_csv(path, mat, [f"{prefix}{j}" for j in range(mat.shape[1])], comment)
