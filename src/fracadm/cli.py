"""Command-line front end: solve problems, emit report tables and scans.

Subcommands:

    solve   evaluate the truncated solution on a grid (or dump the series)
    table   reference-style report table for a built-in example
    scan    truncation-depth scan against the stored reference table

Exit codes: 0 success; 1 when the input is refused, always before any work
(a UsageError, such as a --digits past 2**31 - 1), or when the output cannot
be written; 2 when the computation fails (any ArithmeticError or ValueError
after the input is read, such as a grid past the evaluation budget) or memory
runs out.  Every value is computed before the first byte is written; if the
writing itself fails, a partial --out file is removed.

solve evaluates a grid in this one process, then forms and writes its text
one block at a time (see ``_grid_blocks``).

main() freezes the start-up heap before the call, so that no collection walks
it again, and ends the process by os._exit once stdout and stderr are
flushed: nothing runs at interpreter exit, so a wrapper such as ``python -m
cProfile -m fracadm.cli`` prints no profile (profile ``cli.run`` instead).
"""

import contextlib
import gc
import math
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain, repeat
from operator import sub
from types import SimpleNamespace

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

__all__ = ["run", "main"]


# Largest grid `solve --grid` accepts, in points (x values times y values).
MAX_GRID_POINTS = 1_000_000
# `solve --grid` evaluates and writes whole y rows, about this many points at
# a time, or pieces of this many points of a wider row: enough for
# evaluate_grid's factor rows to amortize, few enough that the formatted text
# of a block stays small.
_BLOCK_POINTS = 65_536
# `solve --grid` evaluates at most this many point-terms, checked after the
# solve and before any evaluation: a round value above 1,000,000 points of
# example 1's 130-term series at (0.5, 0.5) (130,000,000 point-terms).  With
# --out /dev/null on a 2-core x86 VM, Python 3.11, that call took 1.57-1.62 s
# end to end at 37 MB peak RSS, and 51,000 points of example 1's 2,927-term
# series at the generic orders of the CI workflow's deep solve (149,277,000)
# took 1.17-1.20 s at 33 MB.
_GRID_WORK_BUDGET = 150_000_000


class UsageError(Exception):
    """The input is refused (exit 1); raised only while the input is read."""


def _positive_int(text: str) -> int:
    """An integer >= 1, checked while parsing, before any work is done."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"expected an integer >= 1, got {text!r}")
    return value


def _digits(text: str) -> int:
    """--digits: an integer >= 1 and at most 2**31 - 1, format's largest
    precision, checked while parsing; a value above 767 is 767."""
    value = _positive_int(text)
    if value >= 2**31:
        raise ValueError(f"expected an integer >= 1 and < 2**31, got {text!r}")
    # format reserves about a byte per digit of precision, but a double's exact
    # decimal has at most 767 significant digits and an exponent within +-324,
    # so "g" prints the same bytes at any precision from 767 up
    return min(value, 767)


def _path(text: str) -> str:
    """--out: a path, checked while parsing; an empty one is refused, not
    taken for stdout."""
    if not text:
        raise ValueError("expected a path, got ''")
    return text


def _choice(convert: Callable[[str], object], choices: Sequence) -> Callable[[str], object]:
    """A converter that refuses a converted value not among ``choices``."""

    def parse(text: str):
        if (value := convert(text)) not in choices:
            raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(map(str, choices))})")
        return value

    return parse


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


def _separator(args) -> str:
    return "\t" if args.format == "tsv" else ","


def _render(header: str, rows, args) -> list[str]:
    """CSV/TSV text as one block: the comma-separated header, then one line
    per row of values, where None is empty and an int (a scan's depth) prints
    whole at any --digits."""
    sep, spec = _separator(args), f".{args.digits}g"

    def fmt(value) -> str:
        if value is None:
            return ""
        return str(value) if isinstance(value, int) else format(value, spec)

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
        forcing = FracSeries()
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

    The problem and the grid are read before the solve, and a grid past
    ``_GRID_WORK_BUDGET`` fails after it.  The grid's text comes one block of
    y rows at a time, from ``_grid_blocks``, which computes every value before
    it forms the first block: the approx values, and then the exact column,
    which examples at the classical orders also get.
    """
    problem = _build_problem(args)
    grid = None if args.dump_series else _grid_for(args)
    phi = solve(problem).partial_sum(problem.n_terms)
    if grid is None:
        return [format_series(phi, args.digits) + "\n"]
    xs, ys = grid
    points = len(xs) * len(ys)
    if points * len(phi) > _GRID_WORK_BUDGET:
        raise ArithmeticError(
            f"{points} points x {len(phi)} terms = {points * len(phi)} point-terms "
            f"is past the grid evaluation budget of {_GRID_WORK_BUDGET}"
        )
    classical = args.example is not None and (args.alpha, args.beta) == CLASSICAL_PAIR
    return _grid_blocks(phi, xs, ys, args.example if classical else None, args)


def _blocks(nx: int, ny: int) -> Iterator[tuple[int, int, int, int]]:
    """The blocks of a grid of nx x values and ny y rows, in row order, as
    (y0, y1, x0, x1): whole y rows of about ``_BLOCK_POINTS`` points, or pieces
    of that many x values of a wider row; either is contiguous."""
    block_rows = max(1, _BLOCK_POINTS // nx)
    width = min(nx, _BLOCK_POINTS)  # block_rows is 1 if a row is cut
    for y0 in range(0, ny, block_rows):
        for x0 in range(0, nx, width):
            yield y0, min(y0 + block_rows, ny), x0, min(x0 + width, nx)


def _grid_blocks(phi: FracSeries, xs, ys, example: int | None, args) -> Iterator[str]:
    """The header, then the text of each block of ``_blocks`` in row order;
    every row's cells after approx are its exact and abs_error, the solution
    of ``example`` (None for none), or empty.

    Nothing is yielded before every value is computed: all of phi's, bit for
    bit one ``evaluate_grid`` call per block, then all of the exact solution,
    so an approx failure anywhere outranks an exact one.  The values are held
    as doubles, and the text is formed one block at a time as it is written.
    """
    from array import array  # an extension module: table and scan start without it

    blocks = list(_blocks(len(xs), len(ys)))
    approx = [array("d", phi.evaluate_grid(xs[x0:x1], ys[y0:y1])) for y0, y1, x0, x1 in blocks]
    exact = None if example is None else [
        array("d", (exact_solution(example, x, y) for y in ys[y0:y1] for x in xs[x0:x1]))
        for y0, y1, x0, x1 in blocks]
    yield _GRID_HEADER.replace(",", _separator(args)) + "\n"
    yield from _text(xs, ys, blocks, approx, exact, args)


def _text(xs, ys, blocks: list, approx: list, exact: list | None, args) -> Iterator[str]:
    """The text of ``blocks`` from their values, one string per block and one
    %-template per y row: y, x, alpha and beta are formatted once, by position,
    not by value (0.0 and -0.0 print differently), and '%.{d}g' fills in
    approx, exact and abs_error as format(v, '.{d}g') would."""
    sep = _separator(args)
    spec = f".{args.digits}g"
    orders = sep + format(args.alpha, spec) + sep + format(args.beta, spec) + sep
    tail = (sep + "%" + spec) * 2 + "\n" if exact else sep + sep + "\n"
    for (y0, y1, x0, x1), values, exact_values in zip(blocks, approx, exact or repeat(None)):
        cells = [sep + format(x, spec) + orders + "%" + spec + tail for x in xs[x0:x1]]
        width = x1 - x0
        block = []  # one string per y row, so a block holds few pieces
        for at, y in zip(range(0, len(values), width), ys[y0:y1]):
            row = values[at : at + width]
            if exact_values is not None:
                e_row = exact_values[at : at + width]
                row = chain.from_iterable(zip(row, e_row, map(abs, map(sub, e_row, row))))
            y_cell = format(y, spec)
            block.append((y_cell + y_cell.join(cells)) % tuple(row))
        yield "".join(block)


def _cmd_table(args) -> list[str]:
    # a TableCell's fields are the _GRID_HEADER columns, in order
    return _render(_GRID_HEADER, make_table(args.example, args.terms), args)


def _cmd_scan(args) -> list[str]:
    rows = truncation_scan(args.example, args.terms)
    return _render("n,max_rel_deviation,error_column_deviation", rows, args)


# Every option: name -> (converter, default, help); a flag has no converter.
_OPTIONS = {
    "--example": (_choice(int, EXAMPLE_IDS), None, "built-in problem id, 1 to 4"),
    "--ic": (str, None, "initial condition f(x)"),
    "--g": (str, None, "forcing g(x) (default 0)"),
    "--alpha": (float, 1.0, "order of D_y (default 1)"),
    "--beta": (float, 1.0, "order of D_x (default 1)"),
    "--grid": (str, None, "evaluation grid, e.g. 'x=0.1:0.9:0.2;y=0.01,0.05,0.1'"),
    "--dump-series": (None, False, "print the truncated series instead of grid values"),
    "--terms": (_positive_int, 6, "truncation depth (scan: max depth; default 6)"),
    "--format": (_choice(str, ("csv", "tsv")), None, "csv (the default) or tsv"),
    "--out": (_path, None, "write output here"),
    "--digits": (_digits, 17, "significant digits in output (default 17; above 767 prints as 767)"),
}
# Each command: (its function, its summary, the options it takes, those it
# requires).  solve takes a problem, orders and a grid; table and scan take
# only a built-in example, since their orders and grid are the reference tables'.
_TABLE = ("--example", "--terms", "--format", "--out", "--digits")
_COMMANDS = {
    "solve": (_cmd_solve, "solve and evaluate on a grid", tuple(_OPTIONS), ()),
    "table": (_cmd_table, "report table over the standard order pairs", _TABLE, ("--example",)),
    "scan": (_cmd_scan, "truncation-depth scan against the reference table", _TABLE, ("--example",)),
}


def _parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The command argv names and each option it takes, given or defaulted;
    or, for -h/--help, only the help text.  A value follows its option, as the
    next argument or after "=".  A next argument that starts with "-" is a
    value only as "-", a negative number, or text with a space and no "=" that
    does not start with "-h": argparse (7 ms a call to import and set up)
    refused every other one too, but for a few with a space and "=".
    """
    command, *rest = list(argv) or [""]
    if command in ("-h", "--help"):
        return SimpleNamespace(help=_help(None), out=None)
    if command not in _COMMANDS:
        raise UsageError(f"expected a command ({', '.join(_COMMANDS)}), got {command!r}")
    _, _, names, required = _COMMANDS[command]
    values = {name: _OPTIONS[name][1] for name in names}
    rest = iter(rest)
    for arg in rest:
        if arg in ("-h", "--help"):
            return SimpleNamespace(help=_help(command), out=None)
        name, given, value = arg.partition("=")
        if name not in values:
            raise UsageError(f"unrecognized argument {arg!r}")
        convert = _OPTIONS[name][0]
        if convert is None:
            if given:
                raise UsageError(f"argument {name}: ignored explicit argument {value!r}")
            values[name] = True
            continue
        if not given:
            value = next(rest, None)
            if value is None or value[:1] == "-":
                import re  # a dash-led value alone needs it: most calls start without re

                if value is None or not re.fullmatch(r"-|-\d+|-\d*\.\d+|-(?!h)[^=]* [^=]*", value):
                    raise UsageError(f"argument {name}: expected one argument")
        try:
            values[name] = convert(value)
        except ValueError as exc:
            raise UsageError(f"argument {name}: {exc}") from None
    for name in required:
        if values[name] is None:
            raise UsageError(f"the following arguments are required: {name}")
    if values.get("--dump-series") and (values["--grid"], values["--format"]) != (None, None):
        raise UsageError("argument --dump-series: not allowed with argument --grid or --format")
    fields = {name[2:].replace("-", "_"): value for name, value in values.items()}
    return SimpleNamespace(command=command, help=None, **fields)


def _help(command: str | None) -> str:
    """The -h/--help text of a command, or of fracadm for None."""
    if command is None:
        lines = [f"usage: fracadm {{{','.join(_COMMANDS)}}} [-h] [options]", "",
                 "Decomposition-series solver for D_y^a u + u*D_x^b u = g(x).", ""]
        lines += [f"  {name:<8}{summary}" for name, (_, summary, _, _) in _COMMANDS.items()]
    else:
        _, summary, names, required = _COMMANDS[command]
        spelled = {n: f"{n} {n[2:].upper()}" if _OPTIONS[n][0] else n for n in names}
        usage = [s if n in required else f"[{s}]" for n, s in spelled.items()]
        lines = [f"usage: fracadm {command} [-h] {' '.join(usage)}", "", summary, ""]
        lines += [f"  {spelled[n]:<20}{_OPTIONS[n][2]}" for n in names]
    return "\n".join(lines) + "\n"


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        blocks = iter([args.help] if args.help else _COMMANDS[args.command][0](args))
        # every value is computed by the time the first block is formed, so a
        # failure writes nothing; solve's later blocks are formed as they are written
        first = next(blocks)
        if args.out is None:
            # looked up now: callers may have redirected sys.stdout, and it is
            # None when descriptor 1 was closed at start-up
            if sys.stdout is None:
                raise OSError("standard output is closed")
            sys.stdout.write(first)
            sys.stdout.writelines(blocks)
            # a write that fails must fail here, not in the exit flush
            sys.stdout.flush()
            return 0
        # opened before the try: a file that cannot be opened is not removed
        fh = open(args.out, "w", encoding="utf-8")
        try:
            with fh:
                fh.write(first)
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
    # every object made so far lives until exit: frozen, it is walked by no
    # collection
    gc.freeze()
    code = run()
    # os._exit skips the exit flush: run() flushed stdout, so bytes left there
    # are a failed write's, and they are dropped, not written again
    for stream in filter(None, (sys.stdout, sys.stderr)):  # None: closed at start-up
        with contextlib.suppress(OSError):
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
