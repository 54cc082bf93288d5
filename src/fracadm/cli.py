"""Command-line front end: solve problems, emit report tables and scans.

Subcommands:

    solve   evaluate the truncated solution on a grid (or dump the series)
    table   reference-style report table for a built-in example
    scan    truncation-depth scan against the stored reference table

Exit codes: 0 success; 1 when the input is refused, always before any work
(a UsageError), or when the output cannot be written; 2 when the computation
fails (any ArithmeticError or ValueError after the input is read) or memory
runs out.  Every value is computed before the first byte is written; if the
writing itself fails, a partial --out file is removed.

solve evaluates a large grid in slices of whole y rows across the CPUs the
process may run on, one forked child per slice after the first.  The output
is byte-identical to one process's, and the rows of a child that fails are
evaluated again here, so a failure is reported as in one process.  A child
whose calling process is gone exits before its next block.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence

from .adm import ProblemSpec, solve
from .parser import parse_series
from .problems import (
    CLASSICAL_PAIR,
    EXAMPLE_IDS,
    X_GRID,
    Y_GRID,
    builtin_problem,
    exact_solution,
    make_table,
    truncation_scan,
)
from .series import FracSeries, _decimal, format_series

__all__ = ["build_parser", "run", "main"]


# Largest grid `solve --grid` accepts, in points (x values times y values).
MAX_GRID_POINTS = 1_000_000
# `solve --grid` evaluates and writes whole y rows, about this many points at
# a time, or pieces of this many points of a wider row: enough for
# evaluate_grid's x rows to amortize, few enough that the formatted text of a
# block stays small.
_BLOCK_POINTS = 65_536
# `solve --grid` splits its evaluation across CPUs only into slices of at
# least this many point-terms (grid points times series terms).  On a 2-core
# x86 VM, forking a child, piping its values back and reaping it took 2.0-3.8
# ms, and evaluation 58-78 ns a point-term.  Split in two, 100,000 point-terms
# took as long as serial evaluation, and 200,000 and 400,000 took 0.81 and
# 0.69 of its time: so the smallest split grid is about 12-16 ms of serial
# work, several times the cost of a fork.
_SPLIT_POINT_TERMS = 100_000


class UsageError(Exception):
    """The input is refused (exit 1); raised only while the input is read."""


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is 1
    def error(self, message):
        raise UsageError(message)


def _positive_int(text: str) -> int:
    """An integer >= 1, checked while parsing, before any work is done."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _add_output_options(cmd: argparse.ArgumentParser) -> None:
    """--terms and the output options, which every subcommand takes."""
    cmd.add_argument(
        "--terms",
        type=_positive_int,
        default=6,
        help="truncation depth (scan: max depth)",
    )
    cmd.add_argument("--format", choices=("csv", "tsv"), help="default csv")
    cmd.add_argument("--out", metavar="FILE", help="write output here")
    cmd.add_argument(
        "--digits",
        type=_positive_int,
        default=17,
        help="significant digits in output (at least 1)",
    )


def build_parser() -> _ArgumentParser:
    """solve takes a problem, orders and a grid; table and scan take only a
    built-in example, since their orders and grid are the reference tables'."""
    parser = _ArgumentParser(
        prog="fracadm",
        description="Decomposition-series solver for D_y^a u + u*D_x^b u = g(x).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve_cmd = sub.add_parser("solve", help="solve and evaluate on a grid")
    solve_cmd.add_argument(
        "--example", type=int, choices=EXAMPLE_IDS, help="built-in problem id"
    )
    solve_cmd.add_argument("--ic", metavar="EXPR", help="initial condition f(x)")
    solve_cmd.add_argument("--g", metavar="EXPR", help="forcing g(x) (default 0)")
    solve_cmd.add_argument("--alpha", type=float, default=1.0, help="order of D_y")
    solve_cmd.add_argument("--beta", type=float, default=1.0, help="order of D_x")
    shown = solve_cmd.add_mutually_exclusive_group()
    shown.add_argument(
        "--grid",
        metavar="SPEC",
        help="evaluation grid, e.g. 'x=0.1:0.9:0.2;y=0.01,0.05,0.1'",
    )
    shown.add_argument(
        "--dump-series",
        action="store_true",
        help="print the truncated series instead of grid values",
    )
    _add_output_options(solve_cmd)

    for name, text in (
        ("table", "report table over the standard order pairs"),
        ("scan", "truncation-depth scan against the reference table"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument(
            "--example",
            type=int,
            choices=EXAMPLE_IDS,
            required=True,
            help="built-in problem id",
        )
        _add_output_options(cmd)
    return parser


def _parse_axis(spec: str, axis: str) -> tuple[int, Callable[[], Sequence[float]]]:
    """(point count, function building the values as doubles): a range is
    counted, not built."""
    from array import array  # solve's grid path alone imports it

    if ":" in spec:
        fields = spec.split(":")
        if len(fields) != 3:
            raise UsageError(f"grid range for {axis} must be start:stop:step")
        start, stop, step = _parse_numbers(fields, axis, spec)
        if step <= 0:
            raise UsageError(f"grid step for {axis} must be positive")
        if stop < start:
            raise UsageError(f"grid range for {axis} is empty")
        # floor((stop - start) / step) + 1 points, counted and built on the
        # exact decimals: point k is (a + k*s) / den, correctly rounded
        parts = [_decimal(v) for v in (start, stop, step)]
        den = max(d for _, d in parts)
        a, b, s = (n * (den // d) for n, d in parts)
        count = (b - a) // s + 1
        if count > MAX_GRID_POINTS:
            raise UsageError(
                f"grid range for {axis} has more than {MAX_GRID_POINTS} points"
            )
        return count, lambda: array("d", ((a + k * s) / den for k in range(count)))
    values = _parse_numbers([f for f in spec.split(",") if f.strip()], axis, spec)
    return len(values), lambda: array("d", values)


def _parse_numbers(fields: list[str], axis: str, spec: str) -> list[float]:
    try:
        values = [float(f) for f in fields]
    except ValueError:
        raise UsageError(f"bad number in grid for {axis}: {spec!r}")
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"grid values for {axis} must be finite: {spec!r}")
    return values


def parse_grid(spec: str) -> tuple[Sequence[float], Sequence[float]]:
    """Parse 'x=...;y=...' with range (a:b:step) or list (v1,v2) forms into
    two ``array('d')`` axes.

    A grid of more than MAX_GRID_POINTS points is a usage error, found from
    the point counts before any range is built.
    """
    axes: dict[str, tuple[int, Callable[[], Sequence[float]]]] = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"grid component {part!r} is not axis=values")
        axis, _, values = part.partition("=")
        axis = axis.strip()
        if axis not in ("x", "y"):
            raise UsageError(f"unknown grid axis {axis!r}")
        if axis in axes:
            raise UsageError(f"grid axis {axis} is given more than once")
        axes[axis] = _parse_axis(values.strip(), axis)
    if "x" not in axes or "y" not in axes:
        raise UsageError("grid must specify both x and y")
    (nx, xs), (ny, ys) = axes["x"], axes["y"]
    if not nx or not ny:
        raise UsageError("grid axes must be non-empty")
    if nx * ny > MAX_GRID_POINTS:
        raise UsageError(
            f"grid has {nx}x{ny} = {nx * ny} points, more than {MAX_GRID_POINTS}"
        )
    return xs(), ys()


def _formatter(digits: int) -> Callable[[object], str]:
    """Cell formatter: None is empty, and an int (a scan's depth) prints whole
    at any --digits."""
    spec = f".{digits}g"

    def fmt(value) -> str:
        if value is None:
            return ""
        if isinstance(value, int):
            return str(value)
        return format(value, spec)

    return fmt


def _separator(args) -> str:
    return "\t" if args.format == "tsv" else ","


def _render(header: str, rows, args) -> list[str]:
    """CSV/TSV text as one block: the comma-separated header, then one line
    per row of values."""
    sep = _separator(args)
    fmt = _formatter(args.digits)
    lines = [header.replace(",", sep)]
    lines.extend(sep.join(map(fmt, row)) for row in rows)
    return ["\n".join(lines) + "\n"]


def _build_problem(args) -> ProblemSpec:
    """The problem the options name; a bad expression or order is refused."""
    if args.example is not None and (args.ic is not None or args.g is not None):
        raise UsageError("give either --example or --ic/--g, not both")
    if args.example is None and args.ic is None:
        raise UsageError("either --example or --ic is required")
    try:
        if args.example is not None:
            return builtin_problem(args.example, args.alpha, args.beta, args.terms)
        ic = _parse_expression(args.ic, "--ic")
        forcing = FracSeries.zero()
        if args.g is not None:
            forcing = _parse_expression(args.g, "--g")
        return ProblemSpec(args.alpha, args.beta, ic, forcing, args.terms)
    except ValueError as exc:  # ProblemSpec's checks
        raise UsageError(str(exc)) from exc


def _parse_expression(text: str, option: str) -> FracSeries:
    """The series an option spells; a parse error names the option."""
    try:
        return parse_series(text)
    except ValueError as exc:  # SeriesParseError
        raise UsageError(f"{option}: {exc}") from exc


def _grid_for(args) -> tuple[Sequence[float], Sequence[float]]:
    if args.grid is not None:
        return parse_grid(args.grid)
    if args.example is not None:
        return list(X_GRID), list(Y_GRID)
    raise UsageError("--grid is required for custom problems")


_GRID_HEADER = "y,x,alpha,beta,approx,exact,abs_error"


def _cmd_solve(args) -> Iterable[str]:
    """Phi_{--terms} on the grid, one row per point with y outer and x inner.

    The problem and the grid are read before the solve.  Everything that can
    fail is computed before any text is formed: the approx values (see
    ``_evaluate``), and then the exact column, which examples at the classical
    orders also get.  The text comes one block of y rows at a time.
    """
    if args.dump_series and args.format is not None:
        raise UsageError("argument --format: not allowed with argument --dump-series")
    problem = _build_problem(args)
    grid = None if args.dump_series else _grid_for(args)
    phi = solve(problem).partial_sum(problem.n_terms)
    if grid is None:
        return [format_series(phi, args.digits) + "\n"]
    # an extension module: imported here, so table and scan start without it
    from array import array

    xs, ys = grid
    block_rows = max(1, _BLOCK_POINTS // len(xs))
    approx = _evaluate(phi, xs, ys, block_rows)
    exact = None
    if args.example is not None and (args.alpha, args.beta) == CLASSICAL_PAIR:
        exact = array("d", (exact_solution(args.example, x, y) for y in ys for x in xs))
    return _grid_blocks(xs, ys, block_rows, approx, exact, args)


def _evaluate(phi: FracSeries, xs, ys, block_rows: int):
    """phi on the grid as ``array('d')``, y outer and x inner: bit for bit one
    ``evaluate_grid`` call per block of ``block_rows`` y rows, or, in a row
    wider than ``_BLOCK_POINTS``, per piece of that many x values.

    The y rows are cut into k contiguous slices, k at most the CPUs this
    process may run on, the y rows, and the work in ``_SPLIT_POINT_TERMS``
    units.  Each of k - 1 forked children evaluates one slice and sends its
    doubles down a pipe; this process evaluates the first slice, then reads
    the others in row order and reaps each child.  A child sends its values
    only once it has them all, so a slice whose child fails, is killed or
    was never forked arrives short and is evaluated here: a failure raises
    what the serial evaluation raises, at the first failing point in row
    order.  A failure or an interrupt here kills and reaps every child left;
    a child whose parent is gone, even killed outright, exits before its
    next block.  The library never forks: its callers may have threads.
    """
    from array import array

    parent = os.getpid()
    width = min(len(xs), _BLOCK_POINTS)  # block_rows is 1 if a row is cut

    def rows(part) -> array:
        values = array("d")
        for start in range(0, len(part), block_rows):
            for x0 in range(0, len(xs), width):
                if os.getpid() != parent and os.getppid() != parent:
                    os._exit(1)  # a child whose parent is gone: no one reads on
                values.extend(
                    phi.evaluate_grid(xs[x0 : x0 + width], part[start : start + block_rows])
                )
        return values

    k = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        work = len(xs) * len(ys) * len(phi) // _SPLIT_POINT_TERMS
        k = max(1, min(len(os.sched_getaffinity(0)), len(ys), work))
    cuts = [len(ys) * i // k for i in range(k + 1)]
    children = []  # (pid, read end, first row, end row) of each slice not reaped
    try:
        for first, end in zip(cuts[1:-1], cuts[2:]):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: a slice whose child sends nothing
                pid = None
            if pid == 0:  # the child: whatever happens, it exits here
                status = 1
                try:
                    os.close(read_end)
                    with open(write_end, "wb") as fh:
                        rows(ys[first:end]).tofile(fh)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            children.append((pid, open(read_end, "rb"), first, end))
        approx = rows(ys[: cuts[1]])
        while children:
            pid, fh, first, end = children[0]
            part = array("d")
            try:
                part.fromfile(fh, (end - first) * len(xs))
            except EOFError:  # no child, or one that failed before it sent all
                part = None
            fh.close()
            # the child has sent all it will send: it has exited or is exiting
            if pid is not None:
                os.waitpid(pid, 0)
            del children[0]
            approx.extend(rows(ys[first:end]) if part is None else part)
    except BaseException:
        import signal

        for pid, fh, _, _ in children:
            fh.close()
            # an interrupt can land between waitpid and del: the child is gone
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                if pid is not None:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
        raise
    return approx


def _grid_blocks(xs, ys, block_rows, approx, exact, args) -> Iterator[str]:
    """The header, then the text of each block of ``block_rows`` y rows, or of
    each piece of ``_BLOCK_POINTS`` x values of a wider row."""
    sep = _separator(args)
    spec = f".{args.digits}g"
    yield _GRID_HEADER.replace(",", sep) + "\n"
    # a line is y_cell + prefix + approx + tail: the x, alpha and beta cells are
    # joined once per x, by position, not by value (0.0 and -0.0 are equal but
    # print differently)
    orders = sep + format(args.alpha, spec) + sep + format(args.beta, spec) + sep
    nx = len(xs)
    width = min(nx, _BLOCK_POINTS)
    empty_tail = sep + sep + "\n"
    for start in range(0, len(ys), block_rows):
        for x0 in range(0, nx, width):
            x1 = min(x0 + width, nx)
            prefixes = [sep + format(x, spec) + orders for x in xs[x0:x1]]
            block = []  # one string per y row, so a block holds few pieces
            for iy in range(start, min(start + block_rows, len(ys))):
                y_cell = format(ys[iy], spec)
                at = slice(iy * nx + x0, iy * nx + x1)
                row = approx[at]
                if exact is None:
                    lines = [y_cell + p + format(v, spec) + empty_tail for p, v in zip(prefixes, row)]
                else:
                    lines = [
                        y_cell + p + format(v, spec) + sep + format(e, spec)
                        + sep + format(abs(e - v), spec) + "\n"
                        for p, v, e in zip(prefixes, row, exact[at])
                    ]
                block.append("".join(lines))
            yield "".join(block)


def _cmd_table(args) -> list[str]:
    # a TableCell's fields are the _GRID_HEADER columns, in order
    return _render(_GRID_HEADER, make_table(args.example, args.terms).cells, args)


def _cmd_scan(args) -> list[str]:
    rows = truncation_scan(args.example, args.terms)
    return _render("n,max_rel_deviation,error_column_deviation", rows, args)


_COMMANDS = {"solve": _cmd_solve, "table": _cmd_table, "scan": _cmd_scan}


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # every value is computed here, so a failure writes nothing; solve's
        # blocks are formatted as they are written
        blocks = _COMMANDS[args.command](args)
        if not args.out:
            # looked up now: callers may have redirected sys.stdout
            sys.stdout.writelines(blocks)
            return 0
        # opened before the try: a file that cannot be opened is not removed
        fh = open(args.out, "w", encoding="utf-8")
        try:
            with fh:
                fh.writelines(blocks)
        except BaseException:
            # remove a partial regular file, never a device (/dev/null) or a
            # symlink; a failed removal must not hide the failure behind it
            with contextlib.suppress(OSError):
                if os.path.isfile(args.out) and not os.path.islink(args.out):
                    os.remove(args.out)
            raise
    except (UsageError, OSError) as exc:
        print(f"fracadm: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("fracadm: error: out of memory", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError) as exc:
        print(f"fracadm: numeric error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
