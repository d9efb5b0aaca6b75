"""Round trips and format checks for the ensemble file layouts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from stableinfer import (
    EuclideanSequence,
    Explicit,
    HaarWavelet,
    InvalidSpecError,
    StableFieldSpec,
    sample_coefficients,
    synthesize_ensemble,
)
from stableinfer.ensemble_io import (
    MAGIC,
    read_sfe1,
    write_ensemble_csv,
    write_matrix_csv,
    write_sfe1,
)


@pytest.fixture
def ensemble():
    spec = StableFieldSpec.make(1.0, Explicit((1.0, 0.5, 0.25)), HaarWavelet(1, 64), 3)
    return synthesize_ensemble(sample_coefficients(spec, 7, 99))


def test_binary_round_trip(tmp_path, ensemble):
    path = tmp_path / "ens.sfe1"
    write_sfe1(path, ensemble)
    header, coeffs, grid = read_sfe1(path)
    assert header["spec_hash"] == ensemble.spec_hash
    assert header["seed"] == 99
    assert header["n_samples"] == 7
    assert np.array_equal(coeffs, ensemble.coefficients)
    assert np.array_equal(grid, ensemble.grid_values)


def test_binary_layout_starts_with_magic(tmp_path, ensemble):
    path = tmp_path / "ens.sfe1"
    write_sfe1(path, ensemble)
    assert path.read_bytes()[:4] == MAGIC == b"SFE1"


def test_payload_is_little_endian_float64(tmp_path, ensemble):
    path = tmp_path / "ens.sfe1"
    write_sfe1(path, ensemble)
    raw = path.read_bytes()
    import json
    import struct
    (hlen,) = struct.unpack("<I", raw[4:8])
    json.loads(raw[8:8 + hlen])
    first = np.frombuffer(raw[8 + hlen:8 + hlen + 8], dtype="<f8")[0]
    assert first == ensemble.coefficients[0, 0]


def test_magic_is_checked(tmp_path):
    path = tmp_path / "bogus.sfe1"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(InvalidSpecError):
        read_sfe1(path)


def test_csv_layout(tmp_path, ensemble):
    path = tmp_path / "ens.csv"
    write_ensemble_csv(path, ensemble, which="coefficients")
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# spec_hash=")
    assert f"seed={ensemble.seed}" in lines[0]
    assert lines[1] == "c0,c1,c2"
    assert len(lines) == 2 + ensemble.n_samples
    row = np.array([float(x) for x in lines[2].split(",")])
    assert np.array_equal(row, ensemble.coefficients[0])


def test_csv_grid_requires_synthesis(tmp_path):
    spec = StableFieldSpec.make(1.0, Explicit((1.0,)), EuclideanSequence(q=1.0), 1)
    ens = sample_coefficients(spec, 3, 1)
    with pytest.raises(InvalidSpecError):
        write_ensemble_csv(tmp_path / "x.csv", ens, which="grid")


def _read_table(path):
    comment, header, *rows = path.read_text(encoding="utf-8").splitlines()
    return comment, header, np.array([[float(x) for x in row.split(",")] for row in rows])


_floats = st.floats(allow_nan=False, width=64)


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.integers(0, 30), elements=_floats))
def test_csv_column_round_trips_every_float(tmp_path_factory, column):
    path = tmp_path_factory.mktemp("csv") / "column.csv"
    write_matrix_csv(path, column, ["draw"], "one column")
    comment, header, table = _read_table(path)
    assert (comment, header) == ("# one column", "draw")
    assert table.reshape(-1).tobytes() == column.tobytes()  # -0.0 and inf included


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 6)), elements=_floats))
def test_csv_table_round_trips_every_float(tmp_path_factory, matrix):
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    columns = [f"col{j}" for j in range(matrix.shape[1])]
    write_matrix_csv(path, matrix, columns, "a table")
    _, header, table = _read_table(path)
    assert header == ",".join(columns)
    assert table.shape == matrix.shape
    assert table.tobytes() == matrix.tobytes()


def _textbook_csv(matrix, columns, comment):
    """The bytes of the plain writer: one '%.17g' per value, joined by commas."""
    rows = np.asarray(matrix)
    if rows.ndim == 1:
        rows = rows[:, None]
    lines = [f"# {comment}", ",".join(columns)]
    lines += [",".join("%.17g" % v for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


# NaNs with distinct payloads and signs, next to +-0 and +-inf
_NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123,
                  0x7FF0000000000001], dtype=np.uint64).view(np.float64).tolist()
_FLOAT_POOL = [0.0, -0.0, 1.5, -2.0 ** -1074, np.inf, -np.inf] + _NANS
# above 2^53, neighbours differ in bits but print alike through a float cast
_INT_POOL = [0, -1, 2 ** 53, 2 ** 53 + 1, 2 ** 60, 2 ** 60 + 1, 2 ** 63 - 1, -2 ** 63]


@st.composite
def _csv_matrices(draw):
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int64, np.bool_]))
    if dtype is np.bool_:
        elements = st.booleans()
    elif dtype is np.int64:
        elements = st.sampled_from(_INT_POOL) | st.integers(-2 ** 63, 2 ** 63 - 1)
    else:
        pool = _FLOAT_POOL if dtype is np.float64 else [0.0, -0.0, 1.5, np.inf, np.nan]
        elements = st.sampled_from(pool) | st.floats(width=np.dtype(dtype).itemsize * 8)
    shape = draw(st.integers(0, 6) | st.tuples(st.integers(0, 5), st.integers(1, 12)))
    # small pools make runs of equal values common
    matrix = draw(arrays(dtype, shape, elements=elements))
    return matrix[:, ::-1] if matrix.ndim == 2 and draw(st.booleans()) else matrix  # a strided view


@settings(max_examples=300, deadline=None)
@given(_csv_matrices())
def test_csv_bytes_match_the_textbook_writer(tmp_path_factory, matrix):
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    columns = [f"c{j}" for j in range(1 if matrix.ndim == 1 else matrix.shape[1])]
    write_matrix_csv(path, matrix, columns, "pinned")
    assert path.read_bytes() == _textbook_csv(matrix, columns, "pinned")


def test_csv_runs_are_written_in_full(tmp_path):
    # piecewise-constant rows, as a Haar field on a fine grid gives them
    row = np.repeat([0.25, -0.0, 0.0, 0.0, np.nan, 1.0 / 3.0], [8, 1, 3, 1, 2, 5])
    matrix = np.stack([row, row[::-1], np.arange(row.size, dtype=float)])
    columns = [f"x{j}" for j in range(row.size)]
    write_matrix_csv(tmp_path / "runs.csv", matrix, columns, "runs")
    assert (tmp_path / "runs.csv").read_bytes() == _textbook_csv(matrix, columns, "runs")
    line = (tmp_path / "runs.csv").read_text().splitlines()[2]
    assert line == ",".join(["0.25"] * 8 + ["-0"] + ["0"] * 4 + ["nan"] * 2
                            + ["0.33333333333333331"] * 5)
