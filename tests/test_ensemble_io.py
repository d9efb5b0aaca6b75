"""Round trips and format checks for the ensemble file layouts."""

import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from stableinfer import (
    DimensionMismatchError,
    Explicit,
    HaarWavelet,
    InvalidSpecError,
    StableFieldSpec,
    sample_coefficients,
    synthesize,
)
from stableinfer.ensemble_io import (
    MAGIC,
    read_sfe1,
    write_matrix_csv,
    write_sfe1,
)


@pytest.fixture
def ensemble():
    spec = StableFieldSpec.make(1.0, Explicit((1.0, 0.5, 0.25)), HaarWavelet(1, 64), 3)
    ens = sample_coefficients(spec, 7, 99)
    ens.grid_values = synthesize(spec.basis, ens.coefficients)
    return ens


def _write_held(path, ensemble):
    """write_sfe1 of an ensemble held in memory: one block."""
    grid = ensemble.grid_values
    shape = (*ensemble.coefficients.shape, 0 if grid is None else grid.shape[1])
    write_sfe1(path, ensemble.spec_hash, ensemble.seed, shape, [(ensemble.coefficients, grid)])


def test_binary_round_trip(tmp_path, ensemble):
    path = tmp_path / "ens.sfe1"
    _write_held(path, ensemble)
    header, coeffs, grid = read_sfe1(path)
    assert header["spec_hash"] == ensemble.spec_hash
    assert header["seed"] == 99
    assert header["n_samples"] == 7
    assert np.array_equal(coeffs, ensemble.coefficients)
    assert np.array_equal(grid, ensemble.grid_values)


def test_binary_layout_starts_with_magic(tmp_path, ensemble):
    path = tmp_path / "ens.sfe1"
    _write_held(path, ensemble)
    assert path.read_bytes()[:4] == MAGIC == b"SFE1"


def _sfe1_by_copies(ensemble) -> bytes:
    """The SFE1 bytes as built from `tobytes()` copies of the arrays."""
    header = {
        "spec_hash": ensemble.spec_hash,
        "seed": ensemble.seed,
        "n_samples": int(ensemble.coefficients.shape[0]),
        "n_coefficients": int(ensemble.coefficients.shape[1]),
        "grid_size": int(ensemble.grid_values.shape[1]) if ensemble.grid_values is not None else 0,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    out = MAGIC + struct.pack("<I", len(blob)) + blob
    out += np.ascontiguousarray(ensemble.coefficients, dtype="<f8").tobytes()
    if ensemble.grid_values is not None:
        out += np.ascontiguousarray(ensemble.grid_values, dtype="<f8").tobytes()
    return out


@pytest.mark.parametrize("layout", ["c", "fortran", "strided", "big_endian", "no_grid", "no_rows"])
def test_sfe1_bytes_are_those_of_the_array_copies(tmp_path, ensemble, layout):
    # the arrays go to the file through the buffer protocol, in any memory
    # layout or byte order they come in
    coeffs, grid = ensemble.coefficients, ensemble.grid_values
    if layout == "fortran":
        coeffs, grid = np.asfortranarray(coeffs), np.asfortranarray(grid)
    elif layout == "strided":
        coeffs, grid = np.repeat(coeffs, 2, axis=1)[:, ::2], grid[:, ::-1]
    elif layout == "big_endian":
        coeffs, grid = coeffs.astype(">f8"), grid.astype(">f8")
    elif layout == "no_grid":
        grid = None
    elif layout == "no_rows":
        coeffs, grid = coeffs[:0], grid[:0]
    case = dataclasses.replace(ensemble, coefficients=coeffs, grid_values=grid)
    _write_held(tmp_path / "ens.sfe1", case)
    assert (tmp_path / "ens.sfe1").read_bytes() == _sfe1_by_copies(case)


def test_payload_is_little_endian_float64(tmp_path, ensemble):
    path = tmp_path / "ens.sfe1"
    _write_held(path, ensemble)
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[4:8])
    json.loads(raw[8:8 + hlen])
    first = np.frombuffer(raw[8 + hlen:8 + hlen + 8], dtype="<f8")[0]
    assert first == ensemble.coefficients[0, 0]


def test_magic_is_checked(tmp_path):
    path = tmp_path / "bogus.sfe1"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(InvalidSpecError):
        read_sfe1(path)


@pytest.mark.parametrize("grid", [True, False])
def test_sfe1_from_row_blocks_is_the_held_file(tmp_path, ensemble, grid):
    # blocks of 3, 0, 1 and 3 rows go to their rows of both sections
    held = ensemble if grid else dataclasses.replace(ensemble, grid_values=None)
    _write_held(tmp_path / "held.sfe1", held)
    c, g = held.coefficients, held.grid_values
    cuts = [(0, 3), (3, 3), (3, 4), (4, 7)]
    blocks = [(c[a:b], None if g is None else g[a:b]) for a, b in cuts]
    shape = (7, 3, 64 if grid else 0)
    write_sfe1(tmp_path / "blocks.sfe1", held.spec_hash, held.seed, shape, iter(blocks))
    assert (tmp_path / "blocks.sfe1").read_bytes() == (tmp_path / "held.sfe1").read_bytes()


@pytest.mark.parametrize("blocks", [
    lambda c, g: [(c, g[:, :-1])],  # a grid row too short
    lambda c, g: [(c[:, :2], g)],  # a coefficient row too short
    lambda c, g: [(c, None)],  # no grid rows for a grid section
    lambda c, g: [(c[:4], g[:4])],  # rows missing
    lambda c, g: [(c, g), (c[:1], g[:1])],  # rows past the end
], ids=["grid_width", "coefficient_width", "no_grid", "short", "long"])
def test_sfe1_blocks_must_fill_the_declared_shape(tmp_path, ensemble, blocks):
    with pytest.raises(DimensionMismatchError):
        write_sfe1(tmp_path / "bad.sfe1", ensemble.spec_hash, ensemble.seed, (7, 3, 64),
                   blocks(ensemble.coefficients, ensemble.grid_values))


@pytest.mark.parametrize("change", [-8, -1, 1, 8])
def test_sfe1_of_the_wrong_length_is_rejected(tmp_path, ensemble, change):
    path = tmp_path / "ens.sfe1"
    _write_held(path, ensemble)
    raw = path.read_bytes()
    path.write_bytes(raw[:change] if change < 0 else raw + b"\x00" * change)
    with pytest.raises(InvalidSpecError):
        read_sfe1(path)


def test_read_sfe1_reads_each_matrix_once(tmp_path, traced_peak):
    # each section is read straight into its own array: no bytes object and
    # no copy of it beside the matrices
    rng = np.random.default_rng(3)
    coeffs, grid = rng.standard_normal((200, 2500)), rng.standard_normal((200, 2500))
    path = tmp_path / "big.sfe1"
    write_sfe1(path, "hash", 1, (200, 2500, 2500), [(coeffs, grid)])
    assert traced_peak(read_sfe1, path) < 1.1 * (coeffs.nbytes + grid.nbytes)
    _, c, g = read_sfe1(path)
    assert np.array_equal(c, coeffs) and np.array_equal(g, grid)


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


def _neighbours(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


# where the encoder's decade and rounding are decided: powers of ten from
# 1e-5 to 1e17 and their neighbours, 99999999999999992 (the double 1e17),
# exact 18-digit ties (they go to the even digit), values just below 1e-4,
# and 2^53 ... 1e17, where a 17-digit significand outgrows a double's
# integers
_DECIMAL_EDGES = sorted({float(v) for k in range(-5, 18) for v in _neighbours(10.0 ** k)}
                        | {99999999999999992.0, 9.9999999999999999e-5, 9.999999999999999e-5,
                           1234567890123456.75, 1234567890123456.25, 1e15 + 0.25, 1e14 + 0.375,
                           2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 56 + 16, 0.1, 1.0 / 3.0,
                           1.234567801234, 1.2340000050000001, 10203040506070809.0})


@st.composite
def _edge_matrices(draw):
    raw = st.integers(0, 2 ** 64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))
    # n + k/8 with n of 15 digits, or n + k/4 with n of 16: the 18th
    # significant digit is 0 or 5, and nothing follows it
    tie = st.builds(lambda n, k, wide: 10 ** 15 + 10 * n + k / 4 if wide else 10 ** 14 + n + k / 8,
                    st.integers(0, 10 ** 14 - 1), st.integers(0, 7), st.booleans())
    # short decimals end in zeros, four at a time and across inner zeros
    short = st.builds(lambda n, j: n / 10.0 ** j, st.integers(1, 10 ** 13), st.integers(0, 21))
    edge = st.sampled_from(_DECIMAL_EDGES)
    elements = raw | st.tuples(tie | short | edge, st.sampled_from([1.0, -1.0])).map(
        lambda p: p[0] * p[1])
    shape = draw(st.integers(0, 6) | st.tuples(st.integers(0, 5), st.integers(1, 12)))
    return draw(arrays(np.float64, shape, elements=elements))


@settings(max_examples=300, deadline=None)
@given(_edge_matrices())
def test_csv_bytes_match_the_textbook_writer_at_decimal_edges(tmp_path_factory, matrix):
    path = tmp_path_factory.mktemp("csv") / "edges.csv"
    columns = [f"c{j}" for j in range(1 if matrix.ndim == 1 else matrix.shape[1])]
    write_matrix_csv(path, matrix, columns, "edges")
    assert path.read_bytes() == _textbook_csv(matrix, columns, "edges")


def test_csv_decimal_edges_in_one_column(tmp_path):
    column = np.concatenate([_DECIMAL_EDGES, np.negative(_DECIMAL_EDGES)])
    write_matrix_csv(tmp_path / "edges.csv", column, ["v"], "edges")
    assert (tmp_path / "edges.csv").read_bytes() == _textbook_csv(column, ["v"], "edges")
    lines = (tmp_path / "edges.csv").read_text().splitlines()
    for value, want in [(1234567890123456.75, "1234567890123456.8"),
                        (1234567890123456.25, "1234567890123456.2"),
                        (99999999999999992.0, "1e+17"), (-1e-5, "-1.0000000000000001e-05"),
                        (9.999999999999999e-5, "9.9999999999999991e-05"), (1e-4, "0.0001")]:
        assert lines[2 + column.tolist().index(value)] == want


@pytest.mark.parametrize("table", [np.array([1.5 + 2j]), np.array(["1.5"]), np.array([b"1.5"])])
def test_csv_rejects_what_percent_formatting_rejects(tmp_path, table):
    with pytest.raises(TypeError):
        "%.17g" % table.tolist()[0]
    with pytest.raises(TypeError):
        write_matrix_csv(tmp_path / "bad.csv", table, ["v"], "bad")


@pytest.mark.parametrize("columns", [["a"], ["a", "b", "c", "d"], []])
def test_csv_rejects_a_header_of_the_wrong_width(tmp_path, columns):
    path = tmp_path / "bad.csv"
    with pytest.raises(DimensionMismatchError):
        write_matrix_csv(path, np.ones((2, 3)), columns, "c")
    assert not path.exists()


def test_csv_runs_cross_row_and_chunk_ends(tmp_path):
    # 9 x 40000 values take several encoding passes (a row longer than a
    # pass is a pass by itself); runs of equal values straddle the row ends
    # and the ends of the passes
    rng = np.random.default_rng(5)
    values = np.repeat(rng.standard_cauchy(60), rng.integers(1, 20_000, 60))
    values = np.resize(values, 9 * 40_000)
    values[::7919] = rng.standard_normal(values[::7919].size)  # runs of one
    values[39_990:40_010] = values[110_000:130_000] = values[239_999:240_001] = np.pi
    matrix = values.reshape(9, 40_000)
    columns = [f"x{j}" for j in range(matrix.shape[1])]
    write_matrix_csv(tmp_path / "big.csv", matrix, columns, "big")
    assert (tmp_path / "big.csv").read_bytes() == _textbook_csv(matrix, columns, "big")


def test_csv_passes_of_several_rows(tmp_path):
    # 3 x 20000 values: passes of several whole rows, the last one short,
    # with runs across the row and pass ends
    rng = np.random.default_rng(8)
    values = np.repeat(rng.standard_normal(400), rng.integers(1, 300, 400))
    matrix = np.resize(values, (20_000, 3))
    columns = ["a", "b", "c"]
    write_matrix_csv(tmp_path / "rows.csv", matrix, columns, "rows")
    assert (tmp_path / "rows.csv").read_bytes() == _textbook_csv(matrix, columns, "rows")


@pytest.mark.parametrize("n_cols", [3, 40_000])
def test_csv_of_row_blocks_is_the_held_table(tmp_path, n_cols):
    # blocks shorter and longer than a pass, and an empty one, give the
    # held table's bytes
    rng = np.random.default_rng(9)
    matrix = np.repeat(rng.standard_cauchy((30, 1)), n_cols, axis=1)
    matrix[:, ::3] = rng.standard_normal(matrix[:, ::3].shape)
    columns = [f"x{j}" for j in range(n_cols)]
    write_matrix_csv(tmp_path / "held.csv", matrix, columns, "c")
    cuts = [0, 1, 1, 7, 30]
    blocks = (matrix[a:b] for a, b in zip(cuts, cuts[1:]))
    write_matrix_csv(tmp_path / "blocks.csv", blocks, columns, "c")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "held.csv").read_bytes()


def test_csv_of_row_blocks_checks_every_block(tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(DimensionMismatchError):
        write_matrix_csv(path, iter([np.ones((2, 2))]), ["a", "b", "c"], "c")
    assert not path.exists()  # the first block is checked before the file is opened
    with pytest.raises(DimensionMismatchError):
        write_matrix_csv(path, iter([np.ones((2, 3)), np.ones((2, 2))]), ["a", "b", "c"], "c")


def test_csv_writer_memory_is_bounded(tmp_path, traced_peak):
    # a 50 x 16384 gallery table is 6.5 MB of floats and about 17 MB of
    # text; the writer encodes it a bounded block of rows at a time
    matrix = np.random.default_rng(6).standard_cauchy((50, 16384))
    columns = [f"x{j}" for j in range(matrix.shape[1])]
    peak = traced_peak(write_matrix_csv, tmp_path / "gallery.csv", matrix, columns, "memory")
    assert peak < 32 * 2 ** 20
