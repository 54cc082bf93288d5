"""CLI behavior: subcommands, grids, formats, and exit codes."""

import array
import math
import os
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracadm import adm, cli
from fracadm.adm import ProblemSpec, solve
from fracadm.cli import MAX_GRID_POINTS, parse_grid, run, UsageError
from fracadm.parser import parse_series
from fracadm.problems import CLASSICAL_PAIR, builtin_problem, exact_solution, make_table
from fracadm.series import FracSeries, FracTerm
from oracles import grouped_evaluate_oracle


def S(*terms):
    return FracSeries(FracTerm(c, px, py) for c, px, py in terms)


def _rows(output):
    lines = output.strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def _no_work():
    """Patch out the solver entry points of the CLI: calling one fails the test."""
    return mock.patch.multiple(
        cli,
        **{
            name: mock.Mock(side_effect=AssertionError(f"{name} called"))
            for name in ("solve", "make_table", "truncation_scan")
        },
    )


# -- grid parsing ---------------------------------------------------------------


def test_grid_list_form():
    xs, ys = parse_grid("x=0.3,0.6,0.9;y=0.01,0.05,0.1")
    assert list(xs) == [0.3, 0.6, 0.9]
    assert list(ys) == [0.01, 0.05, 0.1]


def test_grid_range_form():
    xs, ys = parse_grid("x=0.1:0.5:0.2;y=0.1")
    assert list(xs) == pytest.approx([0.1, 0.3, 0.5])
    assert list(ys) == [0.1]
    # floor((stop - start) / step) + 1 points, counted on the decimals: a stop
    # just short of 3 does not reach 3, and 0.3 / 0.1 is 3 although in floats
    # it is 2.9999999999999996
    xs, _ = parse_grid("x=0:2.9999999999:1;y=0")
    assert list(xs) == [0.0, 1.0, 2.0]
    xs, _ = parse_grid("x=0:0.3:0.1;y=0")
    assert len(xs) == 4
    # the dense and deep grids of the corpus: 8600 and 4300 rows
    xs, ys = parse_grid("x=0.05:0.9:0.01;y=0.001:0.1:0.001")
    assert (len(xs), len(ys)) == (86, 100)
    xs, ys = parse_grid("x=0.05:0.9:0.01;y=0.001:0.05:0.001")
    assert (len(xs), len(ys)) == (86, 50)
    # and each point is the decimal start + k*step, correctly rounded: the
    # third tenth is 0.3, not 0 + 3*0.1 = 0.30000000000000004
    xs, _ = parse_grid("x=0:1:0.1;y=0")
    assert list(xs) == [k / 10 for k in range(11)]


def test_grid_mixed_forms():
    xs, ys = parse_grid("y=0.0:1.0:0.25;x=0.5")
    assert list(xs) == [0.5]
    assert list(ys) == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])


@pytest.mark.parametrize(
    "spec",
    ["x=0.5", "y=0.1", "x=0.5;y=", "x=a;y=0.1", "x=1:0:0.1;y=0.1", "x=0:1:-1;y=0.1", "z=1;y=1",
     "x=0:inf:1;y=0.1", "x=nan;y=0.1", "x=0:1:nan;y=0.1", "x=1;x=2;y=0.1", "x=0:1;y=0.1",
     "x;y=0.1"],
)
def test_grid_rejects_malformed_specs(spec):
    with pytest.raises(UsageError):
        parse_grid(spec)


@pytest.mark.parametrize(
    "spec, message",
    [("x=0:1;y=0.1", "grid range for x must be start:stop:step"),
     ("x;y=0.1", "grid component 'x' is not axis=values")],
)
def test_grid_names_what_is_malformed(spec, message):
    with pytest.raises(UsageError) as raised:
        parse_grid(spec)
    assert str(raised.value) == message


def test_grid_skips_empty_components():
    assert parse_grid("x=0.5;;y=0.1") == parse_grid("x=0.5;y=0.1")


def test_grid_point_cap():
    xs, ys = parse_grid("x=0:999:1;y=0:999:1")
    assert len(xs) * len(ys) == MAX_GRID_POINTS
    with pytest.raises(UsageError, match="1000x1001"):
        parse_grid("x=0:999:1;y=0:1000:1")
    with pytest.raises(UsageError, match="range for x"):
        parse_grid("x=0:1000000:1;y=0.5")
    # a count too large for an int is refused the same way
    with pytest.raises(UsageError, match="range for y"):
        parse_grid("x=0.5;y=-1e308:1e308:1e-300")


def test_oversized_grid_exits_1_promptly(capsys):
    started = time.perf_counter()
    code = run(["solve", "--ic", "1+x", "--terms", "2", "--grid", "x=0:1e9:1e-9;y=0.1"])
    assert code == 1
    assert time.perf_counter() - started < 5.0  # no list of 1e18 points is built
    assert "more than 1000000 points" in capsys.readouterr().err


# -- solve ------------------------------------------------------------------------


def test_solve_custom_smoke(capsys):
    code = run(
        [
            "solve",
            "--ic", "x",
            "--g", "0",
            "--alpha", "0.5",
            "--beta", "0.5",
            "--terms", "3",
            "--grid", "x=0.5;y=0.1",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    header, rows = _rows(captured.out)
    assert header == ["y", "x", "alpha", "beta", "approx", "exact", "abs_error"]
    assert len(rows) == 1
    assert math.isfinite(float(rows[0][4]))
    assert rows[0][5] == "" and rows[0][6] == ""


def test_solve_dump_series_example3(capsys):
    code = run(
        ["solve", "--example", "3", "--alpha", "1", "--beta", "1", "--terms", "2",
         "--dump-series"]
    )
    captured = capsys.readouterr()
    assert code == 0
    dumped = parse_series(captured.out.strip())
    expect = S((1, 0, 0), (1, 1, 0), (-1, 0, 1), (-1, 1, 1))
    assert len(dumped) == len(expect)
    for got, want in zip(dumped, expect):
        assert got.coeff == pytest.approx(want.coeff, rel=1e-12)
        assert (got.px, got.py) == (want.px, want.py)


def test_solve_example_has_exact_columns_at_classical_orders(capsys):
    assert run(["solve", "--example", "4", "--terms", "6"]) == 0
    header, rows = _rows(capsys.readouterr().out)
    assert len(rows) == 9
    for row in rows:
        assert row[5] != "" and row[6] != ""
    first = rows[0]
    assert float(first[0]) == 0.01 and float(first[1]) == 0.3
    assert float(first[4]) == pytest.approx(0.29703, abs=1e-5)


def test_solve_fractional_orders_have_empty_exact_columns(capsys):
    assert run(["solve", "--example", "4", "--alpha", "0.5", "--beta", "0.5"]) == 0
    _, rows = _rows(capsys.readouterr().out)
    assert all(row[5] == "" and row[6] == "" for row in rows)


def test_solve_tsv_format(capsys):
    assert run(["solve", "--example", "4", "--terms", "2", "--format", "tsv"]) == 0
    out = capsys.readouterr().out
    assert "\t" in out.splitlines()[0]
    assert "," not in out.splitlines()[0]


def test_solve_out_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    assert run(["solve", "--example", "4", "--terms", "2", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().startswith("y,x,alpha,beta,approx,exact,abs_error")


def test_solve_digits_flag(capsys):
    assert run(["solve", "--example", "4", "--terms", "6", "--digits", "6"]) == 0
    _, rows = _rows(capsys.readouterr().out)
    assert rows[0][4] == "0.29703"


@pytest.mark.parametrize("command", ["solve", "table", "scan"])
@pytest.mark.parametrize("digits", ["-1", "0", "1.5", "x", "2147483648"])
def test_bad_digits_exit_1_before_any_work(command, digits, capsys):
    # rejected while parsing: no solve, table or scan is started
    with _no_work():
        code = run([command, "--example", "4", "--terms", "2", "--digits", digits])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""  # not even a header
    assert "--digits" in err and "integer >= 1" in err


# Runs the CLI on its argv in an address space of 400 MB.
_UNDER_400_MB = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (400 * 2**20, 400 * 2**20))
from fracadm import cli
sys.exit(cli.run(sys.argv[1:]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds the address space on Linux")
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--example", "4", "--terms", "2", "--grid", "x=1;y=0.1"],
        ["solve", "--example", "4", "--terms", "2", "--dump-series"],
        ["table", "--example", "4", "--terms", "2"],
        ["scan", "--example", "4", "--terms", "2"],
    ],
    ids=["grid", "dump-series", "table", "scan"],
)
def test_digits_above_767_print_as_767_in_bounded_memory(argv):
    # format reserves about a byte per digit of precision: at 2**31 - 1 each
    # of these calls ran out of memory, the grid after writing its header
    runs = [
        subprocess.run([sys.executable, "-c", _UNDER_400_MB, *argv, "--digits", digits],
                       capture_output=True, timeout=60)
        for digits in ("2147483647", "767")
    ]
    assert runs[0].returncode == 0, runs[0].stderr
    assert (runs[0].stdout, runs[0].stderr, runs[0].returncode) == (
        runs[1].stdout, runs[1].stderr, runs[1].returncode)


def test_solve_grid_prints_signed_zeros_as_given(capsys):
    # 0.0 and -0.0 are equal but print as 0 and -0: each cell shows its own value
    grid = "x=-0.0,0.0,0.5;y=0.0,-0.0,0.1"
    assert run(["solve", "--ic", "1+x", "--terms", "3", "--grid", grid]) == 0
    phi = solve(ProblemSpec(1.0, 1.0, S((1, 0, 0), (1, 1, 0)), FracSeries(), 3))
    phi = phi.partial_sum(3)
    lines = ["y,x,alpha,beta,approx,exact,abs_error"]
    for y in (0.0, -0.0, 0.1):
        for x in (-0.0, 0.0, 0.5):
            cells = (y, x, 1.0, 1.0, phi.evaluate(x, y))
            lines.append(",".join(format(v, ".17g") for v in cells) + ",,")
    out = capsys.readouterr().out
    assert out == "\n".join(lines) + "\n"
    assert out.splitlines()[4].startswith("-0,-0,1,1,")


def _blocks_of(points):
    """Patch the CLI's block size: solve evaluates and writes about this many
    points at a time."""
    return mock.patch.object(cli, "_BLOCK_POINTS", points)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.integers(1, 12), st.integers(1, 100))
def test_blocks_cover_the_rows_once_in_row_order(nx, ny, block_points):
    with _blocks_of(block_points):
        blocks = list(cli._blocks(nx, ny))
    points = [(y, x) for y0, y1, x0, x1 in blocks for y in range(y0, y1) for x in range(x0, x1)]
    assert points == [(y, x) for y in range(ny) for x in range(nx)]
    for y0, y1, x0, x1 in blocks:
        assert 0 < (y1 - y0) * (x1 - x0) <= block_points
        assert y1 - y0 == 1 or (x0, x1) == (0, nx)


@pytest.mark.parametrize(
    "block_points, problem, fmt, digits",
    [
        pytest.param(n, problem, fmt, digits,
                     id=f"{label}{n}" + ("" if (fmt, digits) == ("tsv", 5) else f"-{fmt}-{digits}"))
        for label, problem in (("", ("--example", "1")), ("no-exact-", ("--ic", "1", "--g", "x")))
        for n in (cli._BLOCK_POINTS, 7, 2, 1)
        for fmt in ("tsv", "csv")
        for digits in (5, 1, 17, 767)
    ],
)
def test_solve_grid_is_the_same_text_in_any_blocks(block_points, problem, fmt, digits, tmp_path, capsys):
    # 3 x values and 8 y values: with blocks of 7 points, that is 2 y rows a
    # block and a short last block; with 2, each row in pieces of 2 and 1 x
    # values; with 1, one point a block.  Example 1 spelled as expressions is
    # the same series, without the exact columns: its rows end in two empty
    # cells.  Each cell is checked against format, at every --digits: the
    # rows are written through '%.{d}g' templates
    xs, ys = (0.0, 0.3, 0.9), (0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0)
    grid = "x=0,0.3,0.9;y=0,0.01,0.05,0.1,0.2,0.5,1,2"
    argv = ["solve", *problem, "--alpha", "1", "--beta", "1", "--terms", "6",
            "--format", fmt, "--digits", str(digits), "--grid", grid]
    target = tmp_path / "out.tsv"
    with _blocks_of(block_points):
        assert run(argv) == 0
        stdout = capsys.readouterr().out
        assert run([*argv, "--out", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == stdout
    phi = solve(builtin_problem(1, 1.0, 1.0, 6)).partial_sum(6)
    sep, spec = {"tsv": "\t", "csv": ","}[fmt], f".{digits}g"
    lines = [sep.join(["y", "x", "alpha", "beta", "approx", "exact", "abs_error"])]
    for y in ys:
        for x in xs:
            approx = phi.evaluate(x, y)
            cells = [format(v, spec) for v in (y, x, 1.0, 1.0, approx)] + ["", ""]
            if problem[0] == "--example":
                exact = exact_solution(1, x, y)
                cells[5:] = [format(exact, spec), format(abs(exact - approx), spec)]
            lines.append(sep.join(cells))
    assert stdout == "\n".join(lines) + "\n"


def test_solve_grid_abs_error_is_unsigned_where_approx_is_above_exact(capsys):
    # at depth 3, example 1's partial sum lies above the exact solution at
    # (0.3, 0.5): exact - approx < 0, and abs_error is its magnitude
    assert run(["solve", "--example", "1", "--terms", "3", "--grid", "x=0.3;y=0.5"]) == 0
    cells = capsys.readouterr().out.splitlines()[1].split(",")
    approx, exact = float(cells[4]), float(cells[5])
    assert exact < approx
    assert cells[6] == format(abs(exact - approx), ".17g")


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), st.integers(1, 767))
@example(-0.0, 1)
@example(5e-324, 767)
@example(-math.inf, 17)
@example(1.7976931348623157e308, 767)
def test_percent_template_prints_a_double_as_format(value, digits):
    # a grid row is one '%.{d}g' template: each value prints as format does
    assert ("%." + str(digits) + "g") % value == format(value, f".{digits}g")


def test_solve_failing_at_the_exact_column_writes_nothing(tmp_path, capsys):
    # example 2 is singular at y = 1: every approx value is computed, and the
    # exact column fails at its second row
    argv = ["solve", "--example", "2", "--terms", "3", "--grid", "x=0.5;y=0.5,1"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fracadm: numeric error: example 2 is singular at y = 1\n"
    target = tmp_path / "out.csv"
    assert run([*argv, "--out", str(target)]) == 2
    assert capsys.readouterr().out == ""
    assert not target.exists()


def test_solve_failing_in_a_later_block_writes_nothing(tmp_path, capsys):
    # one y row a block: the first failing point, y = -0.2, is in the fourth
    # block, after three blocks that evaluate
    xs, ys = (0.5, 0.25), (0.1, 0.2, 0.3, -0.2, 0.4, -0.1)
    grid = "x=0.5,0.25;y=0.1,0.2,0.3,-0.2,0.4,-0.1"
    argv = ["solve", "--ic", "1+x", "--g", "1", "--alpha", "0.6", "--beta", "0.7",
            "--terms", "4", "--grid", grid]
    phi = solve(ProblemSpec(0.6, 0.7, S((1, 0, 0), (1, 1, 0)), S((1, 0, 0)), 4))
    phi = phi.partial_sum(4)
    with pytest.raises(ValueError) as first:  # EvaluationDomainError
        for y in ys:
            for x in xs:
                grouped_evaluate_oracle(phi, x, y)
    target = tmp_path / "out.csv"
    block_sizes = []
    evaluate_grid = FracSeries.evaluate_grid

    def counted(series, xs, ys):
        block_sizes.append(len(ys))
        return evaluate_grid(series, xs, ys)

    with _blocks_of(2), mock.patch.object(FracSeries, "evaluate_grid", counted):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert run([*argv, "--out", str(target)]) == 2
    assert block_sizes == [1, 1, 1, 1] * 2
    assert captured.out == ""
    assert captured.err == f"fracadm: numeric error: {first.value}\n"
    assert str(first.value) == "y must be >= 0, got -0.2"
    assert not target.exists()


def test_solve_cuts_a_wide_row_into_pieces_in_row_order(capsys):
    # rows of 5 points in blocks of 2: pieces of 2, 2 and 1 x values.  The
    # first failing point in row order, (x=0, y=0.1), is in the second piece
    # and raises there, before the row y = -0.2, which fails too, is reached
    argv = ["solve", "--ic", "1+x", "--g", "1", "--alpha", "0.6", "--beta", "0.7",
            "--terms", "6", "--grid", "x=0.5,0.25,0,0.75,1;y=0.1,-0.2"]
    pieces = []
    evaluate_grid = FracSeries.evaluate_grid

    def counted(series, xs, ys):
        pieces.append((list(xs), list(ys)))
        return evaluate_grid(series, xs, ys)

    with _blocks_of(2), mock.patch.object(FracSeries, "evaluate_grid", counted):
        assert run(argv) == 2
    assert pieces == [([0.5, 0.25], [0.1]), ([0.0, 0.75], [0.1])]
    assert capsys.readouterr() == (
        "", "fracadm: numeric error: x = 0 with negative exponent -2.5\n"
    )


@pytest.mark.parametrize(
    "ys, first",
    [("0.1,0.2,0.3,0.4,-0.2,-0.1", "-0.2"), ("0.1,-0.3,0.3,0.4,0.5,0.6", "-0.3"),
     ("0.1,-0.3,0.3,0.4,-0.2,0.6", "-0.3")],
    ids=["late", "early", "both"],
)
def test_solve_grid_reports_the_first_failing_row(ys, first, tmp_path, capsys):
    # the first failing point in row order is reported, wherever the other
    # failures are, and no --out file is left
    argv = ["solve", "--ic", "1+x", "--g", "1", "--alpha", "0.6", "--beta", "0.7",
            "--terms", "4", "--grid", f"x=0.5,0.25;y={ys}"]
    target = tmp_path / "out.csv"
    for out in ([], ["--out", str(target)]):
        assert run([*argv, *out]) == 2
        assert capsys.readouterr() == ("", f"fracadm: numeric error: y must be >= 0, got {first}\n")
    assert not target.exists()


def test_an_approx_failure_outranks_an_exact_one_in_an_earlier_row(capsys):
    # one point a block: the rows y = 0.5 and 1 evaluate first, and example
    # 2's exact solution is singular at y = 1, but the approx value fails at
    # y = -0.1.  Every approx value is computed before any exact one
    argv = ["solve", "--example", "2", "--terms", "3", "--grid", "x=0.5;y=0.5,1,0.2,-0.1"]
    with _blocks_of(1):
        assert run(argv) == 2
    assert capsys.readouterr() == ("", "fracadm: numeric error: y must be >= 0, got -0.1\n")


def test_memory_running_out_exits_2(capsys):
    with mock.patch.object(cli, "make_table", side_effect=MemoryError):
        assert run(["table", "--example", "4", "--terms", "2"]) == 2
    assert capsys.readouterr() == ("", "fracadm: error: out of memory\n")


_EIGHT_ROWS = "x=0,0.3,0.9;y=0,0.01,0.05,0.1,0.2,0.5,1,2"


def test_no_memory_for_the_grid_values_exits_2(capsys):
    # each block's values are copied into an array of doubles; refusing the
    # first block's copy is running out of memory, as refusing any other
    # allocation is, and no later block is evaluated
    real_array, evaluate_grid = array.array, FracSeries.evaluate_grid
    evaluated = []

    def evaluate(series, xs, ys):
        evaluated.append(evaluate_grid(series, xs, ys))
        return evaluated[-1]

    def allocate(typecode, values=()):
        if any(values is block for block in evaluated):
            raise MemoryError
        return real_array(typecode, values)

    with _blocks_of(7), mock.patch.object(FracSeries, "evaluate_grid", evaluate), \
            mock.patch("array.array", allocate):
        assert run(["solve", "--example", "4", "--terms", "2", "--grid", _EIGHT_ROWS]) == 2
    assert len(evaluated) == 1
    assert capsys.readouterr() == ("", "fracadm: error: out of memory\n")


@pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
def test_a_failing_evaluation_writes_nothing(error, capsys):
    # running out of memory exits 2; an interrupt is not caught
    argv = ["solve", "--example", "1", "--terms", "6", "--grid", _EIGHT_ROWS]
    with mock.patch.object(FracSeries, "evaluate_grid", side_effect=error):
        if error is MemoryError:
            assert run(argv) == 2
        else:
            with pytest.raises(KeyboardInterrupt):
                run(argv)
    err = "fracadm: error: out of memory\n" if error is MemoryError else ""
    assert capsys.readouterr() == ("", err)


_GRID_BLOCKS = cli._grid_blocks  # the original, for _fail_after_header


def _fail_after_header(*args):
    yield next(_GRID_BLOCKS(*args))
    raise MemoryError


_ONE_POINT = ["solve", "--example", "4", "--terms", "2", "--grid", "x=0.5;y=0.1"]


def test_memory_running_out_while_writing_exits_2(tmp_path, capsys):
    # the first block, the header, is written before memory runs out: stdout
    # keeps it, and the partial --out file is removed
    argv = ["solve", "--example", "4", "--terms", "2", "--grid", "x=0.5;y=0.1,0.2"]
    target = tmp_path / "out.csv"
    with mock.patch.object(cli, "_grid_blocks", _fail_after_header):
        assert run(argv) == 2
        stdout = capsys.readouterr()
        assert run([*argv, "--out", str(target)]) == 2
        out_file = capsys.readouterr()
    assert stdout == ("y,x,alpha,beta,approx,exact,abs_error\n", "fracadm: error: out of memory\n")
    assert out_file == ("", "fracadm: error: out of memory\n")
    assert not target.exists()


@pytest.mark.parametrize("kind", ["device", "symlink"])
def test_failed_write_removes_no_device_and_no_symlink(tmp_path, capsys, kind):
    # os.remove is patched, so a wrong removal is seen and cannot happen
    if kind == "device":
        out = os.devnull
    else:
        out = str(tmp_path / "link.csv")
        os.symlink(tmp_path / "real.csv", out)
    with mock.patch.object(cli, "_grid_blocks", _fail_after_header), \
            mock.patch.object(cli.os, "remove") as remove:
        assert run([*_ONE_POINT, "--out", out]) == 2
    remove.assert_not_called()
    assert capsys.readouterr() == ("", "fracadm: error: out of memory\n")
    assert os.path.lexists(out)


def test_failed_removal_keeps_the_failure_that_caused_it(tmp_path, capsys):
    target = tmp_path / "out.csv"
    with mock.patch.object(cli, "_grid_blocks", _fail_after_header), \
            mock.patch.object(cli.os, "remove", side_effect=PermissionError) as remove:
        assert run([*_ONE_POINT, "--out", str(target)]) == 2
    remove.assert_called_once_with(str(target))
    assert capsys.readouterr() == ("", "fracadm: error: out of memory\n")


def test_broken_stdout_pipe_exits_1(capsys):
    stdout = mock.Mock()
    stdout.writelines.side_effect = BrokenPipeError(32, "Broken pipe")
    with mock.patch.object(cli.sys, "stdout", stdout):
        assert run(_ONE_POINT) == 1
    stdout.writelines.assert_called_once()
    assert capsys.readouterr().err == "fracadm: error: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        # fits in stdout's buffer: only a flush can fail
        ["table", "--example", "4", "--terms", "6"],
        # about 15 kB, past the 8 kB buffer: a write fails with bytes left in it
        ["solve", "--ic", "1+x", "--terms", "2", "--grid", "x=0:99:1;y=0:9:1"],
    ],
    ids=["in-buffer", "past-buffer"],
)
def test_full_stdout_exits_1_with_buffered_stdout(argv):
    # PYTHONUNBUFFERED would write every line at once and hide the exit flush,
    # which failed on the buffered bytes again and exited 120
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "fracadm.cli", *argv], env=env,
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("fracadm: error: ")
    assert "Exception ignored" not in proc.stderr


def test_missing_stdout_exits_1(capsys):
    # with descriptor 1 closed at start-up, Python sets sys.stdout to None
    with mock.patch.object(cli.sys, "stdout", None):
        assert run(["table", "--example", "4", "--terms", "2"]) == 1
    assert capsys.readouterr().err == "fracadm: error: standard output is closed\n"


def test_closed_stdout_exits_1_with_one_error_line():
    proc = subprocess.run([sys.executable, "-m", "fracadm.cli", "table", "--example", "4",
                           "--terms", "2"],
                          preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE, text=True,
                          timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "fracadm: error: standard output is closed\n"


def test_closed_stdout_with_out_file_exits_0(tmp_path):
    # with descriptor 1 closed, sys.stdout is None; --out needs no stdout
    target = tmp_path / "out.csv"
    proc = subprocess.run([sys.executable, "-m", "fracadm.cli", "table", "--example", "4",
                           "--terms", "2", "--out", str(target)],
                          preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert len(target.read_text().splitlines()) == 28


def test_main_freezes_the_heap_once_before_run():
    # then it ends the process by os._exit with run's code; patched here, as
    # called for real it would end the test process
    calls = []
    with mock.patch.object(cli.gc, "freeze", lambda: calls.append("freeze")), \
            mock.patch.object(cli, "run", lambda: calls.append("run") or 2), \
            mock.patch.object(cli.os, "_exit", lambda code: calls.append(("_exit", code))):
        cli.main()
    assert calls == ["freeze", "run", ("_exit", 2)]


def test_os_exit_loses_no_output(tmp_path):
    # main() ends by os._exit, which skips the interpreter's exit flush: a
    # numeric error's whole line still reaches stderr, and an --out file all
    # of its lines
    target = tmp_path / "out.csv"
    procs = [subprocess.run([sys.executable, "-m", "fracadm.cli", *argv], capture_output=True,
                            text=True, timeout=60)
             for argv in (["table", "--example", "1", "--terms", "6"],
                          ["table", "--example", "4", "--terms", "6", "--out", str(target)])]
    assert (procs[0].returncode, procs[0].stdout) == (2, "")
    assert procs[0].stderr.startswith("fracadm: numeric error: ")
    assert "u_5" in procs[0].stderr and procs[0].stderr.endswith("\n")
    assert procs[0].stderr.count("\n") == 1
    assert (procs[1].returncode, procs[1].stdout, procs[1].stderr) == (0, "", "")
    assert len(target.read_text().splitlines()) == 28


def test_run_never_freezes(capsys):
    with mock.patch.object(cli.gc, "freeze", side_effect=AssertionError("frozen")) as freeze:
        assert run(["table", "--example", "4", "--terms", "2"]) == 0
    freeze.assert_not_called()


def test_solve_grid_memory_does_not_grow_with_the_output(capsys):
    # the text is written one block at a time, so a 250,000-point solve holds
    # its values (2 MB as doubles) and one block's text, not the whole output:
    # tracemalloc measured a peak of 6.2 MB on 500 x 500, against 60.8 MB when
    # the whole text was built before it was written.  A row wider than a
    # block is cut into pieces: 120,000 x 1 peaked at 24.1 MB as one piece
    # (100,000 x 1 at 19.9 MB) and at 16.7 MB in pieces
    for grid in ("x=0:499:1;y=0:499:1", "x=0:119999:1;y=0"):
        argv = ["solve", "--ic", "1+x", "--terms", "2", "--grid", grid, "--out", os.devnull]
        tracemalloc.start()
        try:
            assert run(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == ""
        assert peak < 20 * 2**20, grid


# -- table and scan -----------------------------------------------------------------


def test_table_matches_make_table_exactly(capsys):
    assert run(["table", "--example", "4", "--terms", "6"]) == 0
    header, rows = _rows(capsys.readouterr().out)
    cells = make_table(4, 6)
    assert len(rows) == len(cells)
    for row, cell in zip(rows, cells):
        assert float(row[0]) == cell.y and float(row[1]) == cell.x
        assert float(row[4]) == cell.approx  # 17 significant digits round-trip
        if (cell.alpha, cell.beta) == CLASSICAL_PAIR:
            assert float(row[5]) == cell.exact
            assert float(row[6]) == cell.abs_error
        else:
            assert row[5] == "" and row[6] == ""


def test_table_reference_cell(capsys):
    assert run(["table", "--example", "4", "--terms", "6"]) == 0
    _, rows = _rows(capsys.readouterr().out)
    classical = [r for r in rows if float(r[2]) == 1.0 and float(r[3]) == 1.0]
    first = classical[0]
    assert float(first[0]) == 0.01 and float(first[1]) == 0.3
    assert float(first[4]) == pytest.approx(0.29703, abs=1e-5)


def test_output_is_deterministic(capsys):
    run(["table", "--example", "2", "--terms", "4"])
    first = capsys.readouterr().out
    run(["table", "--example", "2", "--terms", "4"])
    second = capsys.readouterr().out
    assert first == second


def test_scan_output(capsys):
    assert run(["scan", "--example", "4", "--terms", "8"]) == 0
    header, rows = _rows(capsys.readouterr().out)
    assert header == ["n", "max_rel_deviation", "error_column_deviation"]
    assert len(rows) == 8
    best = min(rows, key=lambda r: float(r[2]))
    assert int(best[0]) == 6


# -- exit codes ----------------------------------------------------------------------


def test_usage_error_unknown_flag():
    assert run(["solve", "--example", "4", "--nope"]) == 1


def test_usage_error_no_problem():
    assert run(["solve"]) == 1


def test_usage_error_example_and_ic_conflict():
    assert run(["solve", "--example", "1", "--ic", "x"]) == 1


def test_usage_error_custom_needs_grid():
    assert run(["solve", "--ic", "x", "--terms", "2"]) == 1


def test_usage_error_table_needs_example():
    assert run(["table"]) == 1
    assert run(["scan", "--terms", "3"]) == 1


_SOLVE_ONLY_OPTIONS = [
    ["--ic", "x"], ["--g", "x"], ["--alpha", "0.5"], ["--beta", "0.5"],
    ["--grid", "x=1;y=0.1"], ["--dump-series"],
]


@pytest.mark.parametrize(
    "argv",
    [[command, "--example", "4", *option]
     for command in ("table", "scan") for option in _SOLVE_ONLY_OPTIONS]
    + [["solve", "--example", "4", "--g", "x", "--grid", "x=0.5;y=0.1"],
       ["solve", "--ic", "x", "--dump-series", "--grid", "x=1;y=0.1"],
       ["solve", "--example", "3", "--terms", "2", "--dump-series", "--format", "tsv"]]
    # the grid is read before the solve: u_5 hits a pole at (0.75, 0.75)
    + [["solve", "--ic", "1+x", "--g", "1", "--alpha", "0.75", "--beta", "0.75",
        "--terms", "8", *grid]
       for grid in ([], ["--grid", "x=1"], ["--grid", "x=0:1e9:1e-9;y=0"])]
    + [[command, "--example", "4", "--terms", "0"] for command in ("table", "scan", "solve")]
    # argv itself: no command or an unknown one, an unknown or abbreviated
    # option, a missing value or one that reads as an option, a flag given a
    # value, and values out of their choices or not numbers
    + [[], ["bogus"], ["--terms", "6"], ["table", "--example", "4", "--bogus", "1"],
       ["table", "--example", "4", "--ter", "6"], ["table", "--example"],
       ["table", "--example", "4", "--out"], ["solve", "--example", "--terms", "2"],
       ["solve", "--ic", "-x", "--grid", "x=1;y=0.1"], ["solve", "--example", "4", "--dump-series=1"],
       ["table", "--example", "5"], ["solve", "--example", "x"], ["scan", "--example=0"],
       ["solve", "--example", "4", "--alpha", "x"], ["solve", "--example", "4", "--alpha="],
       ["table", "--example", "4", "--format", "json"], ["scan", "--example", "4", "--format=CSV"],
       ["table", "--example", "4", "extra"]],
    ids=lambda argv: " ".join(argv) or "no-argv",
)
def test_unread_option_exits_1_before_any_work(argv, capsys):
    # table and scan take only the options they read; solve refuses --g with
    # a built-in example, and a grid or a --format with --dump-series; a
    # missing or bad grid and a --terms below 1 are refused before any solve
    with _no_work():
        assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fracadm: error: ")


@pytest.mark.parametrize("command", ["table", "scan", "solve"])
def test_an_option_and_its_value_may_be_joined_by_equals(command, capsys):
    spelled = [[command, "--example", "4", *terms] for terms in (["--terms", "6"], ["--terms=6"])]
    outputs = [(run(argv), capsys.readouterr()) for argv in spelled]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and outputs[0][1].out


def _help_cases():
    # fracadm's own help names every command, and a command's every option
    cases = [(["-h"], cli._COMMANDS), (["--help"], cli._COMMANDS)]
    for command, (_, _, options, _) in cli._COMMANDS.items():
        cases += [([command, flag], options) for flag in ("-h", "--help")]
    # help wins over the required --example missing from a call
    cases.append((["table", "--terms", "3", "-h"], cli._COMMANDS["table"][2]))
    return [pytest.param(argv, names, id=" ".join(argv)) for argv, names in cases]


@pytest.mark.parametrize("argv, names", _help_cases())
def test_help_exits_0_and_names_every_option(argv, names, capsys):
    with _no_work():
        assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("usage: fracadm")
    for name in names:
        assert name in captured.out


def test_unwritable_out_exits_1(tmp_path, capsys):
    target = tmp_path / "missing" / "t.csv"
    assert run(["table", "--example", "4", "--terms", "2", "--out", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fracadm: error: ")
    assert str(target) in captured.err
    assert not target.exists()


@pytest.mark.parametrize("out", [["--out", ""], ["--out="]], ids=" ".join)
def test_empty_out_exits_1_before_any_work(out, capsys):
    # an empty path is refused, not taken for stdout
    with _no_work():
        assert run(["table", "--example", "4", "--terms", "2", *out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fracadm: error: argument --out: expected a path, got ''\n"


def test_parse_error_exits_1(capsys):
    assert run(["solve", "--ic", "x^-1", "--grid", "x=0.5;y=0.1"]) == 1
    assert "non-negative" in capsys.readouterr().err


def test_bad_order_exits_1():
    assert run(["solve", "--example", "1", "--alpha", "0"]) == 1


def test_y_dependent_ic_exits_1(capsys):
    assert run(["solve", "--ic", "y", "--grid", "x=0.5;y=0.1"]) == 1


def test_numeric_error_exits_2(capsys):
    # x = 0 meets a negative power of x at fractional orders, depth >= 3
    code = run(
        ["solve", "--example", "1", "--alpha", "0.75", "--beta", "0.75",
         "--terms", "4", "--grid", "x=0;y=0.1"]
    )
    assert code == 2
    assert "numeric error" in capsys.readouterr().err


@pytest.mark.parametrize("ic", ["1e400", "x^1e400"])
def test_non_finite_expression_exits_1(ic, capsys):
    assert run(["solve", "--ic", ic, "--terms", "3", "--grid", "x=0.5;y=0.1"]) == 1
    assert "out of range at offset" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--ic", "1e308*x + 1e308*x", "--terms", "1"],
        ["--ic", "1e308*x + 1e308*x", "--terms", "3", "--grid", "x=0.5;y=0.1"],
        ["--ic", "1", "--g", "x - 1e308*y - 1e308*y", "--grid", "x=0.5;y=0.1"],
    ],
    ids=" ".join,
)
def test_overflowing_expression_exits_1_before_any_work(argv, capsys):
    # the merged coefficient of x (or y) is past the double range: the
    # expression is refused as input, before the grid is read or a solve runs
    with _no_work():
        assert run(["solve", *argv]) == 1
    err = capsys.readouterr().err
    option = "--g" if "--g" in argv else "--ic"
    assert err.startswith(f"fracadm: error: {option}: coefficient of ")
    assert "overflows at offset 0" in err


@pytest.mark.parametrize(
    "ic, g, option",
    [("1", "x^-1", "--g"), ("x^-1", "1", "--ic")],
)
def test_parse_error_names_its_option(ic, g, option, capsys):
    assert run(["solve", "--ic", ic, "--g", g, "--grid", "x=1;y=0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"fracadm: error: {option}: exponents must be non-negative at offset 2\n"
    )


def test_coefficient_overflow_exits_2(capsys):
    # u_0 = a*x + b*x^2 puts 2ab and ab on x^2 in A_0; their sum overflows
    code = run(
        ["solve", "--ic", "1e154*x + 6e153*x^2", "--terms", "3", "--grid", "x=0.5;y=0.1"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "fracadm: numeric error:" in err
    assert "component u_1: coefficient of x^2.0*y^0.0 overflows" in err


def test_overflow_at_u0_exits_2(capsys):
    # J_y^0.5 of the forcing puts 1.7e308 / Gamma(1.5) on y^0.5
    argv = ["solve", "--ic", "1", "--g", "1.7e308", "--alpha", "0.5", "--terms", "3",
            "--grid", "x=1;y=0.1"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "fracadm: numeric error: component u_0: coefficient of x^0.0*y^0.5 is inf\n"
    )


def test_gamma_ratio_overflow_exits_2_naming_its_arguments(capsys):
    # D_x x^1e306 needs Gamma(1e306 + 1)/Gamma(1e306), whose lgamma overflows
    argv = ["solve", "--ic", "x^1e306", "--terms", "2", "--grid", "x=1;y=1"]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", (
        "fracadm: numeric error: component u_1: gamma_ratio(1e+306, 1e+306) cannot be "
        "formed in doubles: log Gamma of an argument is past the double range\n"
    ))


@pytest.mark.parametrize(
    "ic, terms, grid",
    [
        # the two terms evaluate to inf and -inf at x = 1e10
        ("1e300*x - 1e300*x^1.5", "1", "x=1e10;y=0"),
        # A_0 puts inf and -inf on x^2 of u_1
        ("10 + 1e154*x - 1e200*x^2 + 5e307*x^3", "2", "x=0.5;y=0.1"),
    ],
)
def test_opposite_infinities_exit_2(ic, terms, grid, capsys):
    assert run(["solve", "--ic", ic, "--terms", terms, "--grid", grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fracadm: numeric error:")


def test_solver_pole_error_exits_2(capsys):
    code = run(
        ["solve", "--example", "3", "--alpha", "0.75", "--beta", "0.75",
         "--terms", "6", "--grid", "x=0.5;y=0.1"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "u_5" in err  # depth context reaches the user


@pytest.mark.parametrize("terms, code", [(11, 0), (12, 2)])
def test_exact_pole_at_alpha_06_beta_09(terms, code, capsys):
    # u_11 reaches Gamma(-6) exactly: 10 x 0.9 is 9 as a decimal, and only an
    # exact exponent lattice finds that pole without a tolerance
    argv = ["solve", "--example", "1", "--alpha", "0.6", "--beta", "0.9",
            "--terms", str(terms), "--grid", "x=0.3;y=0.1"]
    assert run(argv) == code
    err = capsys.readouterr().err
    if code:
        assert err == (
            "fracadm: numeric error: component u_11: "
            "gamma_ratio numerator has a pole at z = -6.0\n"
        )
    else:
        assert err == ""


def test_table_pole_names_u5(capsys):
    assert run(["table", "--example", "1", "--terms", "6"]) == 2
    assert "component u_5:" in capsys.readouterr().err


def test_a_solve_past_the_work_budget_exits_2_promptly(capsys):
    # example 1 at generic orders forms 1,429,275 raw products up to u_75, and
    # u_76 would pass the budget: on a 2-core x86 VM the call took 0.8 s
    argv = ["solve", "--example", "1", "--alpha", "0.897148293561466",
            "--beta", "0.7433369009864794", "--terms", "400", "--dump-series"]
    started = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - started < 10
    assert capsys.readouterr() == ("", (
        "fracadm: numeric error: component u_76: would take the solve to "
        "1505427 raw products, past its budget of 1500000\n"
    ))


def test_past_the_work_budget_table_exits_2_and_scan_keeps_the_depths_reached(capsys):
    # with a budget of 10 raw products, example 4 at (0.5, 0.5) stops at u_5
    with mock.patch.object(adm, "_WORK_BUDGET", 10):
        assert run(["table", "--example", "4", "--terms", "6"]) == 2
        assert capsys.readouterr() == ("", (
            "fracadm: numeric error: component u_5: would take the solve to "
            "15 raw products, past its budget of 10\n"
        ))
        assert run(["scan", "--example", "4", "--terms", "6"]) == 0
    _, rows = _rows(capsys.readouterr().out)
    assert [math.isinf(float(r[1])) for r in rows] == [False] * 5 + [True]


def test_a_solve_with_no_products_exits_2_at_the_budget(capsys):
    # --ic 1 forms no product at any depth; each pair still counts as one
    argv = ["solve", "--ic", "1", "--terms", "50", "--grid", "x=1;y=1"]
    with mock.patch.object(adm, "_WORK_BUDGET", 10):
        assert run(argv) == 2
    assert capsys.readouterr() == ("", (
        "fracadm: numeric error: component u_5: would take the solve to "
        "15 raw products, past its budget of 10\n"
    ))


def test_a_grid_past_the_evaluation_budget_exits_2_before_any_evaluation(capsys):
    # 2 points of example 4's 2-term Phi_2: 4 point-terms
    argv = ["solve", "--example", "4", "--terms", "2", "--grid", "x=0.5,0.6;y=0.1"]
    with mock.patch.object(cli, "_GRID_WORK_BUDGET", 4):
        assert run(argv) == 0
    assert capsys.readouterr().out.count("\n") == 3
    evaluate_grid = mock.Mock(side_effect=AssertionError("evaluated"))
    with mock.patch.object(cli, "_GRID_WORK_BUDGET", 3), \
            mock.patch.object(FracSeries, "evaluate_grid", evaluate_grid):
        assert run(argv) == 2
    assert capsys.readouterr() == ("", (
        "fracadm: numeric error: 2 points x 2 terms = 4 point-terms "
        "is past the grid evaluation budget of 3\n"
    ))


def test_a_scan_ends_at_the_first_depth_no_pair_reached(capsys):
    # every pair stops at u_5, so the scan's last row is depth 6, not 10^9
    with mock.patch.object(adm, "_WORK_BUDGET", 10):
        assert run(["scan", "--example", "4", "--terms", "1000000000"]) == 0
    _, rows = _rows(capsys.readouterr().out)
    assert [r[0] for r in rows] == ["1", "2", "3", "4", "5", "6"]
    assert rows[-1] == ["6", "inf", "inf"]


def test_domain_error_reports_first_failing_point(capsys):
    # (x=0, y=0.1) meets x^-2.5 in row order before (x=0.5, y=-0.2) is reached
    code = run(
        ["solve", "--ic", "1+x", "--g", "1", "--alpha", "0.6", "--beta", "0.7",
         "--terms", "6", "--grid", "x=0.5,0;y=0.1,-0.2"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == "fracadm: numeric error: x = 0 with negative exponent -2.5\n"


@pytest.mark.parametrize(
    "ic, g, value",
    [
        # 1 + 1e300*x*y is 1 at y = 0, but its term (1e300*x)*y is inf * 0
        ("1", "1e300*x", "nan"),
        # 1e300*x is past the double range at x = 1e10
        ("1e300*x", "0", "inf"),
    ],
)
def test_a_grid_value_that_is_not_finite_exits_2(ic, g, value, capsys):
    assert run(["solve", "--ic", ic, "--g", g, "--terms", "1", "--grid", "x=1e10;y=0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"fracadm: numeric error: value at x = 10000000000.0, y = 0.0 is {value}\n"
    )


def test_an_overflowing_power_exits_2_naming_itself(capsys):
    assert run(["solve", "--ic", "x^2", "--terms", "1", "--grid", "x=1e300;y=0"]) == 2
    assert capsys.readouterr() == (
        "", "fracadm: numeric error: x = 1e+300 with exponent 2.0 overflows\n"
    )


def test_example_1_has_its_exact_column_where_cosh_overflows(capsys):
    # sech(711) is about 3.3e-309: the exact solution is x*tanh(y) = 0.5
    assert run(["solve", "--example", "1", "--terms", "6", "--grid", "x=0.5;y=711"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _rows(captured.out)[1][0][5] == "0.5"


@pytest.mark.parametrize("grid, exact", [("x=1e308;y=3", 5e307), ("x=1;y=1e200", 5e199)])
def test_example_2_has_its_exact_column_where_its_closed_form_overflows(grid, exact, capsys):
    # 2x overflows at x = 1e308 and y^2 at y = 1e200; the exact values do not
    assert run(["solve", "--example", "2", "--terms", "1", "--grid", grid]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert float(_rows(captured.out)[1][0][5]) == exact


def test_an_exact_value_past_the_double_range_exits_2(capsys):
    # example 2's solution at (1e308, 0.5) is -2e308; approx, -1e308, is finite
    assert run(["solve", "--example", "2", "--terms", "1", "--grid", "x=1e308;y=0.5"]) == 2
    assert capsys.readouterr() == (
        "", "fracadm: numeric error: exact value at x = 1e+308, y = 0.5 is -inf\n"
    )


def test_exponent_next_to_0_is_not_0(capsys):
    # x^1e-13 is 0 at x = 0, not x^0 = 1, and the dump keeps the term
    assert run(["solve", "--ic", "x^1e-13", "--terms", "1", "--grid", "x=0;y=0"]) == 0
    _, rows = _rows(capsys.readouterr().out)
    assert float(rows[0][4]) == 0.0
    assert run(["solve", "--ic", "1 + x^1e-13", "--terms", "1", "--dump-series"]) == 0
    assert capsys.readouterr().out == "1 + 1*x^1e-13\n"


def test_exponent_next_to_an_integer_at_negative_x_exits_2(capsys):
    code = run(
        ["solve", "--ic", "x^2.0000000000001", "--terms", "1", "--grid", "x=-1;y=0"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "fracadm: numeric error: "
        "x = -1.0 < 0 with non-integer exponent 2.0000000000001\n"
    )


def test_non_finite_product_coefficient_exits_2(capsys):
    # u_1 = -1e400*x*y overflows; it used to vanish and leave u_0 alone
    code = run(["solve", "--ic", "1e200*x", "--terms", "3", "--grid", "x=0.5;y=0.1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "u_1" in captured.err and "inf" in captured.err
