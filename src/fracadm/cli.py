"""Command-line front end: solve problems, emit report tables and scans.

Subcommands:

    solve   evaluate the truncated solution on a grid (or dump the series)
    table   reference-style report table for a built-in example
    scan    truncation-depth scan against the stored reference table

Exit codes: 0 success, 1 usage or expression-parse error, 2 numeric or
domain error during computation.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Callable, Sequence

from .adm import ProblemSpec, SolveError, solve
from .gammafn import GammaPoleError
from .parser import SeriesParseError, parse_series
from .problems import (
    CLASSICAL_PAIR,
    X_GRID,
    Y_GRID,
    SingularPointError,
    exact_solution,
    make_table,
    truncation_scan,
)
from .series import (
    EvaluationDomainError,
    FracSeries,
    NonIntegrableTermError,
    TermCapError,
    format_series,
)

__all__ = ["build_parser", "run", "main"]

_NUMERIC_ERRORS = (
    SolveError,
    GammaPoleError,
    EvaluationDomainError,
    NonIntegrableTermError,
    TermCapError,
    SingularPointError,
    OverflowError,
)


# Largest grid `solve --grid` accepts, in points (x values times y values).
MAX_GRID_POINTS = 1_000_000


class UsageError(Exception):
    pass


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


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="fracadm",
        description="Decomposition-series solver for D_y^a u + u*D_x^b u = g(x).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--example", type=int, choices=(1, 2, 3, 4), help="built-in problem id"
    )
    common.add_argument("--ic", metavar="EXPR", help="initial condition f(x)")
    common.add_argument(
        "--g", metavar="EXPR", default=None, help="forcing g(x) (default 0)"
    )
    common.add_argument("--alpha", type=float, default=1.0, help="order of D_y")
    common.add_argument("--beta", type=float, default=1.0, help="order of D_x")
    common.add_argument(
        "--terms", type=int, default=6, help="truncation depth (scan: max depth)"
    )
    common.add_argument(
        "--grid",
        metavar="SPEC",
        help="evaluation grid, e.g. 'x=0.1:0.9:0.2;y=0.01,0.05,0.1'",
    )
    common.add_argument("--format", choices=("csv", "tsv"), default="csv")
    common.add_argument("--out", metavar="FILE", help="write output here")
    common.add_argument(
        "--digits",
        type=_positive_int,
        default=17,
        help="significant digits in output (at least 1)",
    )
    common.add_argument(
        "--dump-series",
        action="store_true",
        help="solve: print the truncated series instead of grid values",
    )

    sub.add_parser(
        "solve", parents=[common], help="solve and evaluate on a grid"
    )
    sub.add_parser(
        "table",
        parents=[common],
        help="report table over the standard order pairs (built-in examples)",
    )
    sub.add_parser(
        "scan",
        parents=[common],
        help="truncation-depth scan against the reference table",
    )
    return parser


def _parse_axis(spec: str, axis: str) -> tuple[int, Callable[[], list[float]]]:
    """(point count, function building the values): a range is counted, not built."""
    if ":" in spec:
        fields = spec.split(":")
        if len(fields) != 3:
            raise UsageError(f"grid range for {axis} must be start:stop:step")
        start, stop, step = _parse_numbers(fields, axis, spec)
        if step <= 0:
            raise UsageError(f"grid step for {axis} must be positive")
        if stop < start:
            raise UsageError(f"grid range for {axis} is empty")
        steps = (stop - start) / step + 1e-9  # may be inf
        if steps >= MAX_GRID_POINTS:  # the count, int(steps) + 1, would exceed it
            raise UsageError(
                f"grid range for {axis} has more than {MAX_GRID_POINTS} points"
            )
        count = int(steps) + 1
        return count, lambda: [start + k * step for k in range(count)]
    values = _parse_numbers([f for f in spec.split(",") if f.strip()], axis, spec)
    return len(values), lambda: values


def _parse_numbers(fields: list[str], axis: str, spec: str) -> list[float]:
    try:
        values = [float(f) for f in fields]
    except ValueError:
        raise UsageError(f"bad number in grid for {axis}: {spec!r}")
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"grid values for {axis} must be finite: {spec!r}")
    return values


def parse_grid(spec: str) -> tuple[list[float], list[float]]:
    """Parse 'x=...;y=...' with range (a:b:step) or list (v1,v2) forms.

    A grid of more than MAX_GRID_POINTS points is a usage error, found from
    the point counts before any range is built.
    """
    axes: dict[str, tuple[int, Callable[[], list[float]]]] = {}
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
    """Cell formatter: None is empty, a str is a cell formatted already, and an
    int (a scan's depth) prints whole at any --digits."""
    spec = f".{digits}g"

    def fmt(value) -> str:
        if value is None:
            return ""
        if isinstance(value, (int, str)):
            return str(value)
        return format(value, spec)

    return fmt


def _render(header: str, rows, args) -> str:
    """CSV/TSV text: the comma-separated header, then one line per row of values."""
    sep = "," if args.format == "csv" else "\t"
    fmt = _formatter(args.digits)
    lines = [header.replace(",", sep)]
    lines.extend(sep.join(map(fmt, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _build_problem(args) -> ProblemSpec:
    if args.example is not None and args.ic is not None:
        raise UsageError("give either --example or --ic/--g, not both")
    if args.example is not None:
        from .problems import builtin_problem

        return builtin_problem(args.example, args.alpha, args.beta, args.terms)
    if args.ic is None:
        raise UsageError("either --example or --ic is required")
    ic = parse_series(args.ic)
    forcing = parse_series(args.g) if args.g is not None else FracSeries.zero()
    return ProblemSpec(args.alpha, args.beta, ic, forcing, args.terms)


def _grid_for(args) -> tuple[list[float], list[float]]:
    if args.grid is not None:
        return parse_grid(args.grid)
    if args.example is not None:
        return list(X_GRID), list(Y_GRID)
    raise UsageError("--grid is required for custom problems")


_GRID_HEADER = "y,x,alpha,beta,approx,exact,abs_error"


def _cmd_solve(args) -> str:
    """Phi_{--terms} on the grid, one row per point with y outer and x inner.

    The whole grid is evaluated by one ``FracSeries.evaluate_grid`` call;
    examples at the classical orders also get exact and error columns.
    """
    problem = _build_problem(args)
    sol = solve(problem)
    phi = sol.partial_sum(problem.n_terms)
    if args.dump_series:
        return format_series(phi, args.digits) + "\n"
    xs, ys = _grid_for(args)
    with_exact = args.example is not None and (args.alpha, args.beta) == CLASSICAL_PAIR
    # grid coordinates and orders repeat across rows: format each once, by
    # position, not by value (0.0 and -0.0 are equal but print differently)
    fmt = _formatter(args.digits)
    orders = (fmt(args.alpha), fmt(args.beta))
    x_cells = [fmt(x) for x in xs]
    values = iter(phi.evaluate_grid(xs, ys))
    rows = []
    for y in ys:
        y_cell = fmt(y)
        for x, x_cell in zip(xs, x_cells):
            approx = next(values)
            exact = abs_err = None
            if with_exact:
                exact = exact_solution(args.example, x, y)
                abs_err = abs(exact - approx)
            rows.append((y_cell, x_cell, *orders, approx, exact, abs_err))
    return _render(_GRID_HEADER, rows, args)


def _cmd_table(args) -> str:
    if args.example is None:
        raise UsageError("table requires --example (reference layout)")
    report = make_table(args.example, args.terms)
    rows = (
        (c.y, c.x, c.alpha, c.beta, c.approx, c.exact, c.abs_error)
        for c in report.cells
    )
    return _render(_GRID_HEADER, rows, args)


def _cmd_scan(args) -> str:
    if args.example is None:
        raise UsageError("scan requires --example (reference tables)")
    rows = truncation_scan(args.example, args.terms)
    return _render("n,max_rel_deviation,error_column_deviation", rows, args)


_COMMANDS = {"solve": _cmd_solve, "table": _cmd_table, "scan": _cmd_scan}


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"fracadm: error: {exc}", file=sys.stderr)
        return 1
    try:
        output = _COMMANDS[args.command](args)
    except _NUMERIC_ERRORS as exc:
        print(f"fracadm: numeric error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, SeriesParseError, ValueError) as exc:
        print(f"fracadm: error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(output)
    else:
        sys.stdout.write(output)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
