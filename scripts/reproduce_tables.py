#!/usr/bin/env python3
"""Regenerate the reference accuracy tables and report how closely they match.

For each benchmark problem the script scans truncation depths against the
stored reference table, rebuilds the table at the recovered depth, and
prints a side-by-side comparison of every cell plus the worst deviations.

Usage:
    python scripts/reproduce_tables.py                # all four problems
    python scripts/reproduce_tables.py --example 4
    python scripts/reproduce_tables.py --max-depth 10
"""

import argparse
import math

from fracadm.problems import (
    CLASSICAL_PAIR,
    ORDER_PAIRS,
    REFERENCE_TABLES,
    _best_depth,
    _error_resolvable,
    exact_solution,
    make_table,
    truncation_scan,
)


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

    print("fractional columns (reported only; no independent ground truth):")
    for pair in ORDER_PAIRS[:2]:
        col = ORDER_PAIRS.index(pair)
        devs = [
            abs(cells[y, x, pair].approx - row[col]) / abs(row[col])
            for (y, x), row in ref.items()
        ]
        print(f"  orders {pair}: max deviation {max(devs):.3g}")


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
