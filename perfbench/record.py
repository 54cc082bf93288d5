#!/usr/bin/env python3
"""Record the reference outputs that perfbench checks calls against.

Run from the repository root, at the commit whose outputs are the reference:

    PYTHONPATH=src python3 perfbench/record.py

It writes perfbench/reference.json with, for every fixed argv of the
paper_tables, depth_scan and deep_generic workloads, the exit code and the
output rows; and for dense_grid the truncated series Phi_n and Phi_{n-1}.
A value is kept for checking only if

* it is rounding-stable: rerunning with every gamma ratio perturbed by a
  relative 1e-13 (20x the gap between two good gamma implementations) and
  every evaluated series value by 1e-14 (~45 ulps) moves it by at most
  TOL/100, and
* for the approx and abs_error columns of `table`/`solve`, the truncated
  series has converged there: |Phi_n - Phi_{n-1}| <= TOL/100 * |Phi_n|.

Other values are stored as null and skipped by the check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

GAMMA_PERTURBATION = 1e-13
VALUE_PERTURBATION = 1e-14
STABLE = workloads.TOL / 100
SERIES_COLUMNS = (4, 6)  # approx, abs_error


def run_cli(argv):
    from fracadm.cli import run

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(argv)
    return rc, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def perturbed_rounding():
    """Perturb every gamma ratio and every evaluated value at rounding level."""
    import fracadm.series as series

    rng = random.Random(0)
    gamma_ratio, evaluate = series.gamma_ratio, series.FracSeries.evaluate

    def noise(scale):
        return 1.0 + scale * rng.uniform(-1.0, 1.0)

    series.gamma_ratio = lambda num, den: gamma_ratio(num, den) * noise(GAMMA_PERTURBATION)
    series.FracSeries.evaluate = lambda s, x, y: evaluate(s, x, y) * noise(VALUE_PERTURBATION)
    try:
        yield
    finally:
        series.gamma_ratio, series.FracSeries.evaluate = gamma_ratio, evaluate


def _rows(stdout):
    lines = stdout.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _moved(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    if math.isinf(x) or math.isinf(y):
        return x != y
    return abs(x - y) > STABLE * abs(x)


def record_call(argv) -> dict:
    rc, out, err = run_cli(argv)
    if rc != 0:
        if argv != list(workloads.PAPER_FAILING_TABLE) or workloads.PAPER_FAILING_COMPONENT not in err:
            raise SystemExit(f"unexpected failure of {argv}: {err}")
        return {"rc": rc, "stderr_has": workloads.PAPER_FAILING_COMPONENT}
    with perturbed_rounding():
        _, out_perturbed, _ = run_cli(argv)
    header, rows = _rows(out)
    _, rows_perturbed = _rows(out_perturbed)
    rows_prev = None
    if argv[0] in ("table", "solve"):
        at = argv.index("--terms") + 1
        _, rows_prev = _rows(run_cli([*argv[:at], str(int(argv[at]) - 1), *argv[at + 1:]])[1])
    kept = []
    for r, row in enumerate(rows):
        out_row = []
        for c, cell in enumerate(row):
            if cell == "":
                out_row.append("")
                continue
            unstable = _moved(cell, rows_perturbed[r][c])
            unconverged = (rows_prev is not None and c in SERIES_COLUMNS
                           and _moved(row[4], rows_prev[r][4]))
            out_row.append(None if unstable or unconverged else float(cell))
        kept.append(out_row)
    return {"rc": 0, "header": header, "rows": kept}


def generic_pool() -> list[list]:
    rng = random.Random("deep_generic pool")
    lo, hi = workloads.GENERIC_ORDER_RANGE
    return [[kind, rng.uniform(lo, hi), rng.uniform(lo, hi)]
            for kind in ("example", "custom") for _ in range(workloads.GENERIC_POOL_SIZE)]


def dense_series() -> dict:
    from fracadm import builtin_problem, solve

    alpha, beta = workloads.DENSE_ORDERS
    n = workloads.DENSE_TERMS
    sol = solve(builtin_problem(1, alpha, beta, n))
    return {name: [[t.coeff, t.px, t.py] for t in sol.partial_sum(k)]
            for name, k in (("phi", n), ("phi_prev", n - 1))}


def main() -> None:
    pool = generic_pool()
    argvs = [*workloads.paper_argvs(), *workloads.scan_argvs(),
             *(workloads.generic_argv(*entry) for entry in pool)]
    calls = {}
    for argv in argvs:
        calls[workloads.reference_key(argv)] = record_call(argv)
        expect = calls[workloads.reference_key(argv)]
        checked = sum(v is not None and v != "" for row in expect.get("rows", ()) for v in row)
        print(f"{checked:4d} values kept  {' '.join(argv)}", file=sys.stderr)
    reference = {"calls": calls, "generic_pool": pool, "dense_series": dense_series()}
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=None, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
