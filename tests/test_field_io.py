"""Tests for grid construction, CSV field serialization, and difference reports."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delayheat.field as field_module
from delayheat import (
    GridSpec,
    InputError,
    SolutionField,
    field_difference_report,
    read_field_csv,
)
from delayheat.cli import _fd_field, _solve_field
from delayheat.config import load_config
from delayheat.field import csv_rows
from shipped_configs import CONFIGS, run_configs


def _sample_field(nx=4, nt=3, with_u=False):
    x = np.linspace(0.0, 1.0, nx + 1)
    t = np.linspace(0.0, 0.5, nt + 1)
    v = np.sin(np.outer(t + 1.0, x))
    u = (v * 0.5) if with_u else None
    return SolutionField(x=x, t=t, v=v, u=u)


# ---------------------------------------------------------------------------
# GridSpec
# ---------------------------------------------------------------------------


def test_grid_x_points():
    grid = GridSpec(nx=4, nt=2)
    np.testing.assert_allclose(grid.x_points(2.0), [0.0, 0.5, 1.0, 1.5, 2.0])


def test_grid_plain_time_rows():
    grid = GridSpec(nx=4, nt=5)
    np.testing.assert_allclose(grid.t_points(1.0), np.linspace(0.0, 1.0, 6))
    assert grid.time_step(1.0) == pytest.approx(0.2)


def test_grid_delay_time_rows_start_at_minus_tau():
    tau = 0.5
    grid = GridSpec(nx=4, nt_per_tau=4)
    t = grid.t_points(1.0, tau=tau)
    # dt divides the delay exactly; the rows start at -tau and end at the
    # smallest grid multiple covering the horizon.
    assert t[0] == pytest.approx(-tau)
    assert t[-1] == pytest.approx(1.0)
    np.testing.assert_allclose(np.diff(t), tau / 4.0)
    # -tau, 0, and tau all land exactly on grid rows.
    for knot in (-tau, 0.0, tau):
        assert np.min(np.abs(t - knot)) < 1e-15


def test_grid_delay_rows_cover_ragged_horizon():
    tau = 0.3
    grid = GridSpec(nx=4, nt_per_tau=3)
    t = grid.t_points(1.0, tau=tau)  # 1.0 / 0.1 = 10 steps exactly
    assert t[-1] >= 1.0 - 1e-12
    t2 = grid.t_points(0.95, tau=tau)  # needs rounding up to a grid multiple
    assert t2[-1] >= 0.95 - 1e-12
    assert t2[-1] - (tau / 3.0) < 0.95


def test_grid_validation():
    with pytest.raises(InputError):
        GridSpec(nx=1, nt=10)
    with pytest.raises(InputError):
        GridSpec(nx=4)
    with pytest.raises(InputError):
        GridSpec(nx=4, nt=0)
    with pytest.raises(InputError):
        GridSpec(nx=4, nt_per_tau=0)
    grid = GridSpec(nx=4, nt_per_tau=4)
    with pytest.raises(InputError):
        grid.t_points(1.0)  # delay resolution without a delay


# ---------------------------------------------------------------------------
# SolutionField and CSV round trip
# ---------------------------------------------------------------------------


def test_field_shape_validation():
    x = np.linspace(0.0, 1.0, 5)
    t = np.linspace(0.0, 1.0, 3)
    with pytest.raises(InputError):
        SolutionField(x=x, t=t, v=np.zeros((5, 3)))
    with pytest.raises(InputError):
        SolutionField(x=x, t=t, v=np.zeros((3, 5)), u=np.zeros((2, 5)))


def test_csv_round_trip(tmp_path):
    field = _sample_field()
    path = tmp_path / "field.csv"
    field.write_csv(path)
    back = read_field_csv(path)
    np.testing.assert_array_equal(back.x, field.x)
    np.testing.assert_array_equal(back.t, field.t)
    np.testing.assert_array_equal(back.v, field.v)
    assert back.u is None


def test_csv_round_trip_with_reduced_frame(tmp_path):
    field = _sample_field(with_u=True)
    path = tmp_path / "field.csv"
    field.write_csv(path)
    back = read_field_csv(path)
    np.testing.assert_array_equal(back.u, field.u)


def test_csv_layout_is_t_major_with_full_precision(tmp_path):
    field = _sample_field(nx=2, nt=1)
    path = tmp_path / "field.csv"
    field.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,t,v"
    assert len(lines) == 1 + field.t.size * field.x.size
    # Row order: all x at t[0], then all x at t[1].
    first = [float(part) for part in lines[1].split(",")]
    assert first[0] == field.x[0] and first[1] == field.t[0]
    fourth = [float(part) for part in lines[4].split(",")]
    assert fourth[0] == field.x[0] and fourth[1] == field.t[1]
    # 17 significant digits reproduce doubles exactly.
    third = float(lines[3].split(",")[2])
    assert third == field.v[0, 2]


def test_csv_writes_are_deterministic(tmp_path):
    field = _sample_field(with_u=True)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    field.write_csv(p1)
    field.write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def _per_row_csv(field):
    """The row-at-a-time writer the block writer replaced: the reference."""
    cols = "x,t,v,u" if field.u is not None else "x,t,v"
    lines = [cols]
    for j in range(field.t.size):
        tj = field.t[j]
        for i in range(field.x.size):
            row = f"{field.x[i]:.17g},{tj:.17g},{field.v[j, i]:.17g}"
            if field.u is not None:
                row += f",{field.u[j, i]:.17g}"
            lines.append(row)
    return ("\n".join(lines) + "\n").encode()


# Values where %.17g and repr differ or formatting has edge cases.
_AWKWARD = [-0.0, 5e-324, 2.2250738585072014e-309, 1e300, -1e300, 3.0, 1e16,
            -7.0, 0.1, 1.0 / 3.0]


@pytest.mark.parametrize("nx, n_times, with_u, block", [
    (400, 101, False, None),   # 40 time rows per block: blocks of 40, 40, 21
    (400, 101, True, None),
    (12, 1, False, None),      # a single time row
    (12, 1, True, None),
    (6, 9, True, 16),          # 2 time rows per block, odd row count
    (6, 5, False, 3),          # block smaller than a time row
])
def test_block_writer_matches_per_row_writer(tmp_path, monkeypatch, nx,
                                             n_times, with_u, block):
    if block is not None:
        monkeypatch.setattr(field_module, "_CSV_BLOCK_CELLS", block)
    rng = np.random.default_rng(nx + n_times)
    x = np.linspace(0.0, 1.0, nx + 1)
    t = np.linspace(-0.5, 1.5, n_times)
    v = rng.standard_normal((n_times, nx + 1)) * 10.0 ** rng.integers(-8, 8)
    v.flat[:len(_AWKWARD)] = _AWKWARD
    u = -np.flip(v) if with_u else None
    field = SolutionField(x=x, t=t, v=v, u=u)
    path = tmp_path / "field.csv"
    field.write_csv(path)
    assert path.read_bytes() == _per_row_csv(field)


def test_shipped_solver_fields_match_per_row_writer(tmp_path):
    # Real fields: delay grids start at t = -tau, the boundary columns hold
    # exact zeros, and every shipped config writes a u column.
    for path in run_configs():
        field = _solve_field(load_config(path))
        out = tmp_path / (path.stem + ".csv")
        field.write_csv(out)
        assert out.read_bytes() == _per_row_csv(field), path.name


def test_writer_holds_little_memory(tmp_path):
    # The nodelay_field benchmark shape: 401 x 801 cells with a u column.
    x = np.linspace(0.0, np.pi, 401)
    t = np.linspace(0.0, 2.0, 801)
    v = np.sin(np.outer(1.0 + t, x)) * np.exp(-t)[:, None]
    field = SolutionField(x=x, t=t, v=v, u=v * np.exp(t)[:, None])
    tracemalloc.start()
    try:
        field.write_csv(tmp_path / "field.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("name, solver", [
    # The nodelay_field benchmark shape: blocks of 5 rows of 801 cells, so
    # the 401 rows are 80 blocks and one row.
    ("nodelay_manufactured.json", {"modes": 16, "nx": 800, "nt": 400}),
    # Blocks of 6 rows of 601 cells: the 129 rows of phi (t <= 0) end
    # inside block 21, and the 385 rows are 64 blocks and one row.
    ("delay_smooth_sweep.json", {"modes": 32}),
])
def test_streamed_and_materialised_fields_agree(tmp_path, name, solver):
    cfg = load_config(CONFIGS / name)
    for key, value in solver.items():
        setattr(cfg.solver, key, value)
    field = _solve_field(cfg)
    rows = field_module._CSV_BLOCK_CELLS // field.x.size
    assert field.t.size % rows == 1
    if cfg.kind == "delay":
        assert np.sum(field.t <= 0.0) % rows != 0
    oracle = _fd_field(cfg)
    # The series field is read block by block first, and only then
    # assembled into the arrays of a field that holds them.
    report = field_difference_report(field, oracle)
    field.write_csv(tmp_path / "streamed.csv")
    held = SolutionField(x=field.x, t=field.t, v=field.v, u=field.u)
    held.write_csv(tmp_path / "held.csv")
    assert ((tmp_path / "streamed.csv").read_bytes()
            == (tmp_path / "held.csv").read_bytes())
    assert field_difference_report(held, oracle) == report


def test_a_failed_write_leaves_no_file(tmp_path):
    # Rows past the first block cannot be computed: the error reaches the
    # caller, and neither the output nor a temporary file is left behind.
    x = np.linspace(0.0, 1.0, 3)
    t = np.linspace(0.0, 1.0, 2 * field_module._CSV_BLOCK_CELLS)

    def rows(j0, j1):
        if j0 > 0:
            raise InputError("no rows past the first block")
        values = np.ones((j1 - j0, x.size))
        return values, values

    field = SolutionField(x=x, t=t, rows=rows)
    with pytest.raises(InputError, match="past the first block"):
        field.write_csv(tmp_path / "field.csv")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# The %.17g kernel
# ---------------------------------------------------------------------------


def _reference_rows(values):
    return b"".join(b"%.17g\n" % x for x in np.asarray(values).tolist())


def _powers_and_neighbours():
    p = np.array([float(f"1e{k}") for k in range(-300, 301)])
    return np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])


_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max,
    np.finfo(float).tiny, np.inf, -np.inf, np.nan,
    # Where %.17g switches between fixed point and exponent notation.
    1e-5, 1e-4, np.nextafter(1e-5, 0.0), np.nextafter(1e-4, 0.0),
    1e16, 1e17, np.nextafter(1e16, 0.0), np.nextafter(1e16, np.inf),
    np.nextafter(1e17, 0.0), np.nextafter(1e17, np.inf),
    # Integer values with trailing zeros keep them: "100", "1e+21".
    100.0, -2000.0, 1e21, 2.0**60, 10.0, 120.5,
    # The scaled product's high word is exactly 1e16, its low word negative.
    9.9999999999999992e22,
    # Exact ties at the 18th digit: the kernel hands them to Python's %.
    1234567890123456.25, -1234567890123456.75,
    # The kernel's own range ends.
    1e-270, 1e270, np.nextafter(1e-270, 0.0), np.nextafter(1e270, np.inf),
]


def test_kernel_matches_percent_format_on_edge_values():
    values = np.concatenate([_EDGES, _powers_and_neighbours(), _AWKWARD])
    assert csv_rows(values) == _reference_rows(values)


def test_kernel_writes_columns_row_by_row():
    t = np.array([0.0, 0.5, 1e-7])
    v = np.array([-1.0 / 3.0, np.nan, 1e300])
    expected = b"".join(b"%.17g,%.17g\n" % pair
                        for pair in zip(t.tolist(), v.tolist()))
    assert csv_rows(t, v) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_kernel_matches_percent_format_on_bit_patterns(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert csv_rows(values) == _reference_rows(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                          allow_subnormal=True), min_size=1, max_size=64))
def test_kernel_matches_percent_format_on_floats(values):
    assert csv_rows(values) == _reference_rows(values)


def _block_of_values():
    """One writer block (4096 values) that visits every exponent row in
    [-300, 300], every place of the point in fixed notation, and 0 to 3
    zero groups at the end of the 17 digits."""
    rng = np.random.default_rng(4096)
    rows = np.arange(-300, 301)
    by_row = rng.uniform(1.0, 10.0, rows.size) * 10.0**rows
    fixed = rng.uniform(1.0, 10.0, 1495) * 10.0**rng.integers(-4, 17, 1495)
    # Integers of 1 to 15 digits over 1 to 8: exact decimals, whose 17
    # digits end in zero groups.
    size = rng.integers(1, 16, 2000)
    exact = rng.integers(10**(size - 1), 10**size) / 2.0**rng.integers(0, 4, 2000)
    values = np.concatenate([by_row, fixed, exact])
    return values * rng.choice([-1.0, 1.0], values.size)


def _digits_layout(x):
    """(e, zero groups, digits before the point) of ``"%.17g" % x``."""
    mantissa, e = ("%.16e" % abs(x)).split("e")
    e, rest = int(e), mantissa.replace(".", "")[1:]
    zero_groups = min((len(rest) - len(rest.rstrip("0"))) // 4, 3)
    return e, zero_groups, max(e + 1, 0) if -4 <= e < 17 else 1


def test_kernel_matches_percent_format_on_a_whole_block():
    values = _block_of_values()
    assert values.size == field_module._CSV_BLOCK_CELLS
    exps, zero_groups, points = map(set, zip(*map(_digits_layout, values.tolist())))
    assert exps >= set(range(-300, 301))
    assert zero_groups == {0, 1, 2, 3}
    assert points == set(range(18))
    assert csv_rows(values) == _reference_rows(values)


def test_kernel_tables_stay_small():
    # The kernel's lookup tables, built once per process.
    assert sum(t.nbytes for t in field_module._g17_tables()) <= 696_288


def test_read_rejects_partial_grid(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("x,t,v\n0,0,1\n1,0,2\n0,1,3\n")
    with pytest.raises(InputError):
        read_field_csv(path)


# ---------------------------------------------------------------------------
# Difference reports
# ---------------------------------------------------------------------------


def test_difference_report_norms():
    x = np.linspace(0.0, 1.0, 11)
    t = np.linspace(0.0, 1.0, 5)
    base = np.zeros((5, 11))
    other = np.zeros((5, 11))
    other[2, 3] = 0.25  # a single bump
    fa = SolutionField(x=x, t=t, v=base, source="spectral")
    fb = SolutionField(x=x, t=t, v=other, source="fd")
    report = field_difference_report(fa, fb)
    assert report["sup"] == pytest.approx(0.25)
    dx, dt = 0.1, 0.25
    assert report["l2"] == pytest.approx(math.sqrt(dt * dx * 0.25**2))
    assert report["sources"] == ["spectral", "fd"]
    assert len(report["slices"]) == 5
    trow = report["slices"][2]
    assert trow[0] == pytest.approx(0.5)
    assert trow[1] == pytest.approx(0.25)


def test_difference_report_requires_matching_grids():
    fa = _sample_field(nx=4)
    fb = _sample_field(nx=5)
    with pytest.raises(InputError):
        field_difference_report(fa, fb)
    fc = _sample_field(nx=4)
    fc.t = fc.t + 0.125  # same shape, shifted rows
    with pytest.raises(InputError):
        field_difference_report(fa, fc)
