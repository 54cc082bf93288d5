#!/usr/bin/env python3
"""Regenerate the reference accuracy tables and report how closely they match.

For each benchmark problem the script scans truncation depths against the
stored reference table, rebuilds the table at the recovered depth, and
prints a side-by-side comparison of every cell plus the worst deviations.
Each fractional column is then compared at that depth twice: at its label,
and at the orders of REFERENCE_ORDERS that reproduce it.

Usage:
    python scripts/reproduce_tables.py                # all four problems
    python scripts/reproduce_tables.py --example 4
    python scripts/reproduce_tables.py --max-depth 10
"""

import argparse
import math

from fracadm.adm import solve
from fracadm.problems import (
    CLASSICAL_PAIR,
    ORDER_PAIRS,
    REFERENCE_ORDERS,
    REFERENCE_TABLES,
    X_GRID,
    Y_GRID,
    _best_depth,
    _error_resolvable,
    builtin_problem,
    exact_solution,
    make_table,
    truncation_scan,
)


def column_deviation(example: int, col: int, orders, depth: int) -> float:
    """The largest relative deviation of Phi_depth at ``orders`` from column
    ``col`` of the reference table, over the grid."""
    phi = solve(builtin_problem(example, *orders, depth)).partial_sum(depth)
    values = phi.evaluate_grid(X_GRID, Y_GRID)
    ref = REFERENCE_TABLES[example]
    points = [(y, x) for y in Y_GRID for x in X_GRID]
    return max(abs(v - ref[p][col]) / abs(ref[p][col]) for v, p in zip(values, points))


def report_example(example: int, max_depth: int) -> None:
    print(f"\n=== problem {example} ===")
    rows = truncation_scan(example, max_depth)
    print("depth scan (n, max deviation over all columns, error-column deviation):")
    for r in rows:
        print(
            f"  n={r.n_terms:<2d} max_dev={r.max_deviation:<12.4g} "
            f"err_dev={r.error_column_deviation:.4g}"
        )
    depth = _best_depth(rows)
    print(f"recovered depth: {depth}")

    cells = {(c.y, c.x, (c.alpha, c.beta)): c for c in make_table(example, depth)}
    ref = REFERENCE_TABLES[example]
    print(f"{'y':>5} {'x':>4} | {'approx(1,1)':>18} {'reference':>12} "
          f"| {'abs err':>12} {'ref err':>12} {'ratio':>8}")
    worst_approx = 0.0
    worst_ratio = 1.0
    for (y, x), row in ref.items():
        cell = cells[y, x, CLASSICAL_PAIR]
        dev = abs(cell.approx - row[2]) / abs(row[2])
        worst_approx = max(worst_approx, dev)
        if _error_resolvable(row[4], exact_solution(example, x, y)):
            ratio = cell.abs_error / row[4]
            worst_ratio = max(worst_ratio, ratio, 1.0 / ratio)
        else:
            ratio = math.nan  # below double resolution (table 1 at y = 0.01)
        print(
            f"{y:>5} {x:>4} | {cell.approx:>18.10g} {row[2]:>12.6g} "
            f"| {cell.abs_error:>12.4g} {row[4]:>12.4g} {ratio:>8.3g}"
        )
    print(f"worst classical-column deviation: {worst_approx:.3g}")
    print(f"worst resolvable error ratio:     {worst_ratio:.3g}")

    # each fractional column at its label and at the orders that reproduce
    # it to the table's rounding; example 1's first column is the beta -> 1/2
    # limit, approached from both sides
    print(f"fractional columns at depth {depth} (max relative deviation):")
    for col, label in enumerate(ORDER_PAIRS[:2]):
        recovered = [REFERENCE_ORDERS[example][1 + col]]
        if (example, col) == (1, 0):
            recovered.insert(0, (0.5, 0.5 - 1e-7))
        print(f"  column {label} at its label: "
              f"{column_deviation(example, col, label, depth):.3g}")
        for orders in recovered:
            print(f"  column {label} at recovered orders {orders}: "
                  f"{column_deviation(example, col, orders, depth):.3g}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--example", type=int, choices=(1, 2, 3, 4), default=None)
    parser.add_argument("--max-depth", type=int, default=8)
    args = parser.parse_args()
    examples = (args.example,) if args.example else (1, 2, 3, 4)
    for example in examples:
        report_example(example, args.max_depth)


if __name__ == "__main__":
    main()
