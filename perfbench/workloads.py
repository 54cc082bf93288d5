"""Seeded CLI argv streams for the four workloads, and the checks on their output.

A workload is an endless stream of passes; a pass is a list of `Call`s.
Pass ``i`` of workload ``w`` under seed ``s`` depends only on ``(w, s, i)``,
so the untimed traced replay and the timed subprocess loop see the same
argv lists.  The program only ever sees the argv.

Every call carries what its output must look like.  Expectations come from
two places the benchmark holds itself: the closed-form classical solutions
of the four built-in problems, and ``reference.json``, recorded at the seed
commit by ``record.py``.  Values are compared with the relative tolerance
``TOL``, which passes rounding-level changes such as another gamma
implementation; ``record.py`` keeps only values that are rounding-stable
and, for truncated series, converged.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("paper_tables", "depth_scan", "deep_generic", "dense_grid")

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Relative tolerance on every checked value.
TOL = 1e-7

# Recovered depths of the four reference tables.
PAPER_TABLE_DEPTHS = {1: 4, 2: 4, 3: 4, 4: 6}
PAPER_SCAN_DEPTH = 8
# At (0.75, 0.75) examples 1-3 hit a Caputo pole in u_5, so this table exits 2.
PAPER_FAILING_TABLE = ("table", "--example", "1", "--terms", "6")
PAPER_FAILING_COMPONENT = "u_5"

# Scan depths with roughly equal compute per example (0.2-0.3 s each on a
# 2-core x86 VM); fixed so that every seed costs the same.
SCAN_DEPTHS = {1: 20, 2: 20, 3: 20, 4: 28}

# deep_generic: generic orders share few exponents, so each solve keeps most
# of its terms.  The pool of order pairs is drawn by record.py.
GENERIC_ORDER_RANGE = (0.45, 0.95)
GENERIC_POOL_SIZE = 8  # per problem kind
GENERIC_GRID = "x=0.3,0.6,0.9;y=0.001,0.005,0.02"
GENERIC_EXAMPLE_TERMS = 40
GENERIC_CUSTOM = ("1 + x", "1")  # (--ic, --g)
GENERIC_CUSTOM_TERMS = 20

# dense_grid: evaluation and output formatting dominate; the recursion is tiny.
DENSE_ORDERS = (0.5, 0.5)
DENSE_TERMS = 20
DENSE_POINTS = 8000
DENSE_SHAPES = tuple((nx, DENSE_POINTS // nx) for nx in (40, 50, 64, 80, 100, 125, 160, 200))
DENSE_CALLS_PER_PASS = 4
DENSE_SAMPLED_ROWS = 64
# Example 1 spelled as expressions; parses to the identical series.
DENSE_SPELLINGS = (("--example", "1"), ("--ic", "1", "--g", "x"))

SOLVE_HEADER = ["y", "x", "alpha", "beta", "approx", "exact", "abs_error"]


@dataclass
class Call:
    """One CLI invocation and what its output must satisfy."""

    argv: list[str]
    expect: dict = field(repr=False)

    @property
    def sep(self) -> str:
        fmt = self.argv[self.argv.index("--format") + 1] if "--format" in self.argv else "csv"
        return "\t" if fmt == "tsv" else ","


def reference_key(argv) -> str:
    """argv without the output-format flag, which does not change values."""
    out, skip = [], False
    for a in argv:
        if skip:
            skip = False
        elif a == "--format":
            skip = True
        else:
            out.append(a)
    return " ".join(out)


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- argv generation -----------------------------------------------------------


def paper_argvs() -> list[list[str]]:
    argvs = [
        ["table", "--example", str(k), "--terms", str(d)]
        for k, d in PAPER_TABLE_DEPTHS.items()
    ]
    argvs += [
        ["scan", "--example", str(k), "--terms", str(PAPER_SCAN_DEPTH)] for k in (1, 2, 3, 4)
    ]
    argvs.append(list(PAPER_FAILING_TABLE))
    return argvs


def scan_argvs() -> list[list[str]]:
    return [["scan", "--example", str(k), "--terms", str(n)] for k, n in SCAN_DEPTHS.items()]


def generic_argv(kind: str, alpha: float, beta: float) -> list[str]:
    if kind == "example":
        problem = ["--example", "1", "--terms", str(GENERIC_EXAMPLE_TERMS)]
    else:
        ic, g = GENERIC_CUSTOM
        problem = ["--ic", ic, "--g", g, "--terms", str(GENERIC_CUSTOM_TERMS)]
    return ["solve", *problem, "--alpha", repr(alpha), "--beta", repr(beta),
            "--grid", GENERIC_GRID]


def _with_format(rng: random.Random, argv: list[str]) -> list[str]:
    return [*argv, "--format", rng.choice(("csv", "tsv"))]


def _range_spec(start: float, step: float, count: int) -> tuple[str, list[float]]:
    # stop sits half a step past the last point, so the CLI's count is exact
    stop = start + (count - 0.5) * step
    spec = f"{start!r}:{stop!r}:{step!r}"
    return spec, [start + k * step for k in range(count)]


def _dense_call(rng: random.Random, series: dict, spelling: tuple[str, ...]) -> Call:
    nx, ny = rng.choice(DENSE_SHAPES)
    x0 = rng.uniform(0.01, 0.1)
    y0 = rng.uniform(0.0005, 0.005)
    x_spec, xs = _range_spec(x0, (rng.uniform(0.8, 1.0) - x0) / (nx - 1), nx)
    y_spec, ys = _range_spec(y0, (rng.uniform(0.08, 0.1) - y0) / (ny - 1), ny)
    argv = ["solve", *spelling,
            "--alpha", repr(DENSE_ORDERS[0]), "--beta", repr(DENSE_ORDERS[1]),
            "--terms", str(DENSE_TERMS), "--grid", f"x={x_spec};y={y_spec}"]
    rows = rng.sample(range(nx * ny), DENSE_SAMPLED_ROWS)
    return Call(_with_format(rng, argv),
                {"kind": "dense", "xs": xs, "ys": ys, "rows": rows, "series": series})


def make_pass(workload: str, seed: int, index: int, reference: dict) -> list[Call]:
    """Pass `index` of `workload` under `seed`: the calls in their run order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}:{index}")
    calls = reference["calls"]
    if workload == "dense_grid":
        # every pass spells the problem both ways, so the parser layer always runs
        spellings = [DENSE_SPELLINGS[i % len(DENSE_SPELLINGS)] for i in range(DENSE_CALLS_PER_PASS)]
        rng.shuffle(spellings)
        return [_dense_call(rng, reference["dense_series"], s) for s in spellings]
    if workload == "paper_tables":
        argvs = paper_argvs()
    elif workload == "depth_scan":
        argvs = scan_argvs()
    else:
        argvs = [generic_argv(*entry) for entry in reference["generic_pool"]]
    rng.shuffle(argvs)
    return [Call(_with_format(rng, a), calls[reference_key(a)]) for a in argvs]


def call_stream(workload: str, seed: int, reference: dict):
    """Endless stream of calls: pass 0, then pass 1, ..."""
    index = 0
    while True:
        yield from make_pass(workload, seed, index, reference)
        index += 1


# -- output checks ---------------------------------------------------------------


def _close(got: float, want: float) -> bool:
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= TOL * max(abs(got), abs(want), 1e-300)


def exact_solution(example: int, x: float, y: float) -> float:
    """Closed-form classical (alpha = beta = 1) solutions of the built-in problems."""
    if example == 1:
        return x * math.tanh(y) + 1.0 / math.cosh(y)
    if example == 2:
        return (2.0 * x - 2.0 * y + y * y) / (2.0 * (y - 1.0))
    if example == 3:
        return (1.0 + x) / (1.0 + y)
    return x / (1.0 + y)


def series_value(terms, x: float, y: float) -> tuple[float, float]:
    """(sum of c*x^p*y^q, sum of its absolute terms) with 0**0 = 1."""
    parts = [c * (math.pow(x, px) if px else 1.0) * (math.pow(y, py) if py else 1.0)
             for c, px, py in terms]
    return math.fsum(parts), math.fsum(abs(p) for p in parts)


def _split_rows(call: Call, stdout: str):
    lines = stdout.splitlines()
    if not lines:
        return None, []
    return lines[0].split(call.sep), [line.split(call.sep) for line in lines[1:]]


def _check_recorded(call: Call, header, rows) -> str | None:
    expect = call.expect
    if header != expect["header"]:
        return f"header {header!r}"
    if len(rows) != len(expect["rows"]):
        return f"{len(rows)} rows, expected {len(expect['rows'])}"
    for r, (got_row, want_row) in enumerate(zip(rows, expect["rows"])):
        if len(got_row) != len(want_row):
            return f"row {r} has {len(got_row)} fields"
        for c, (got, want) in enumerate(zip(got_row, want_row)):
            if want is None:
                continue
            if want == "" or got == "":
                if got != want:
                    return f"row {r} col {c}: {got!r}, expected {want!r}"
            elif not _close(float(got), want):
                return f"row {r} col {c}: {got}, expected {want!r}"
    return None


def _check_classical(call: Call, header, rows) -> str | None:
    """Rows at alpha = beta = 1 must carry the closed-form exact value."""
    if "--example" not in call.argv or "exact" not in header:
        return None
    example = int(call.argv[call.argv.index("--example") + 1])
    for r, row in enumerate(rows):
        y, x, alpha, beta, approx, exact, abs_error = row
        if (float(alpha), float(beta)) != (1.0, 1.0):
            continue
        approx, exact, abs_error = float(approx), float(exact), float(abs_error)
        want = exact_solution(example, float(x), float(y))
        if not _close(exact, want):
            return f"row {r}: exact {exact!r}, closed form {want!r}"
        if abs(abs_error - abs(exact - approx)) > TOL * abs(want):
            return f"row {r}: abs_error {abs_error!r} is not |exact - approx|"
        if abs(approx - want) > 1e-3 * abs(want):
            return f"row {r}: approx {approx!r} is far from the closed form {want!r}"
    return None


def _check_dense(call: Call, header, rows) -> str | None:
    expect = call.expect
    xs, ys = expect["xs"], expect["ys"]
    if header != SOLVE_HEADER:
        return f"header {header!r}"
    if len(rows) != len(xs) * len(ys):
        return f"{len(rows)} rows, expected {len(xs) * len(ys)}"
    phi, phi_prev = expect["series"]["phi"], expect["series"]["phi_prev"]
    alpha, beta = DENSE_ORDERS
    for r in expect["rows"]:
        row = rows[r]
        y, x = ys[r // len(xs)], xs[r % len(xs)]
        if len(row) != 7 or row[5] != "" or row[6] != "":
            return f"row {r}: {row!r}"
        if not all(_close(float(g), w) for g, w in zip(row[:4], (y, x, alpha, beta))):
            return f"row {r}: point {row[:4]!r}, expected {(y, x, alpha, beta)!r}"
        want, magnitude = series_value(phi, x, y)
        prev, _ = series_value(phi_prev, x, y)
        converged = abs(want - prev) <= TOL / 100 * abs(want)
        well_conditioned = magnitude <= 1e3 * abs(want)
        if converged and well_conditioned and not _close(float(row[4]), want):
            return f"row {r}: approx {row[4]}, expected {want!r} at ({x!r}, {y!r})"
    return None


def check(call: Call, returncode: int, stdout: str, stderr: str) -> str | None:
    """None if the call's output is right, else why it is not."""
    want_rc = call.expect.get("rc", 0)
    if returncode != want_rc:
        return f"exit code {returncode}, expected {want_rc}: {stderr.strip()[-200:]}"
    if want_rc != 0:
        needle = call.expect["stderr_has"]
        return None if needle in stderr else f"stderr does not name {needle}: {stderr!r}"
    header, rows = _split_rows(call, stdout)
    try:
        if call.expect.get("kind") == "dense":
            return _check_dense(call, header, rows)
        return _check_recorded(call, header, rows) or _check_classical(call, header, rows)
    except (ValueError, IndexError) as exc:
        return f"unparseable output: {exc}"
