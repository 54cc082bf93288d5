"""Acceptance gate: the binding accuracy criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Randomized criteria use fixed seeds so the suite is
deterministic.
"""

import math
import random

import mpmath
import pytest

from fracadm.adm import solve
from fracadm.gammafn import gamma_ratio
from fracadm.problems import (
    CLASSICAL_PAIR,
    REFERENCE_TABLES,
    X_GRID,
    Y_GRID,
    builtin_problem,
    exact_solution,
    make_table,
    recovered_depth,
)
from fracadm.series import (
    Axis,
    FracSeries,
    FracTerm,
    caputo_deriv,
    rl_integral,
)
from helpers import cells_by_key, random_series
from oracles import adomian_lambda_oracle, adomian_polynomial, caputo_quadrature_oracle

mpmath.mp.dps = 50

G = math.gamma


def _report(num: int, description: str, passed: bool):
    print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {num} failed: {description}"


def _printed_tolerance(value: float) -> float:
    text = repr(float(value))
    decimals = len(text.split(".")[1]) if "." in text else 0
    return 1.01 * 10.0 ** (-decimals)


def _sig_tolerance(value: float, digits: int) -> float:
    return 1.01 * 10.0 ** (math.floor(math.log10(abs(value))) - digits + 1)


def _hp_phi(phi: FracSeries, x: float, y: float) -> mpmath.mpf:
    return mpmath.fsum(
        mpmath.mpf(t.coeff) * mpmath.mpf(x) ** mpmath.mpf(t.px) * mpmath.mpf(y) ** mpmath.mpf(t.py)
        for t in phi
    )


def _hp_exact(example: int, x: float, y: float) -> mpmath.mpf:
    x, y = mpmath.mpf(x), mpmath.mpf(y)
    if example == 1:
        return x * mpmath.tanh(y) + mpmath.sech(y)
    if example == 2:
        return (2 * x - 2 * y + y * y) / (2 * (y - 1))
    if example == 3:
        return (1 + x) / (1 + y)
    return x / (1 + y)


def test_criterion_1_exact_columns():
    """Closed-form solutions reproduce every tabulated exact entry."""
    ok = True
    for example, table in REFERENCE_TABLES.items():
        for (y, x), row in table.items():
            ref = row[3]
            if abs(exact_solution(example, x, y) - ref) > _printed_tolerance(ref):
                ok = False
    _report(1, "exact columns of all four reference tables", ok)


def test_criterion_2_table4_error_column():
    """Depth recovered for problem 4 is 6; all 9 errors within 5% relative."""
    depth = recovered_depth(4, 8)
    ok = depth == 6
    cells = cells_by_key(make_table(4, 6))
    for (y, x), row in REFERENCE_TABLES[4].items():
        mine = cells[y, x, CLASSICAL_PAIR].abs_error
        if abs(mine - row[4]) > 0.05 * row[4]:
            ok = False
    _report(2, f"table-4 error column at recovered depth {depth}", ok)


def test_criterion_3_table3_error_column():
    """Depth recovered for problem 3 is 4; all 9 errors within 5% relative."""
    depth = recovered_depth(3, 8)
    ok = depth == 4
    cells = cells_by_key(make_table(3, 4))
    for (y, x), row in REFERENCE_TABLES[3].items():
        mine = cells[y, x, CLASSICAL_PAIR].abs_error
        if abs(mine - row[4]) > 0.05 * row[4]:
            ok = False
    _report(3, f"table-3 error column at recovered depth {depth}", ok)


def test_criterion_4_tables_1_and_2():
    """Classical approx columns to 5 significant digits; errors within 10x.

    The y = 0.01 errors of table 1 sit below double-precision resolution of
    the values themselves, so the error column is measured by evaluating
    the solver's series coefficients in extended precision.
    """
    ok = True
    for example in (1, 2):
        depth = recovered_depth(example, 8)
        cells = cells_by_key(make_table(example, depth))
        phi = solve(builtin_problem(example, 1.0, 1.0, depth)).partial_sum(depth)
        for (y, x), row in REFERENCE_TABLES[example].items():
            approx = cells[y, x, CLASSICAL_PAIR].approx
            if abs(approx - row[2]) > _sig_tolerance(row[2], 5):
                ok = False
            hp_err = float(abs(_hp_exact(example, x, y) - _hp_phi(phi, x, y)))
            ratio = hp_err / row[4]
            if not 0.1 <= ratio <= 10.0:
                ok = False
    _report(4, "tables 1-2 classical columns and error magnitudes", ok)


def test_criterion_5_printed_components():
    """Leading components match their closed forms at random orders."""
    rng = random.Random(20240501)
    ok = True
    for _ in range(20):
        a = rng.uniform(0.05, 1.0)
        b = rng.uniform(0.05, 0.95)
        x = rng.uniform(0.2, 1.5)
        y = rng.uniform(0.1, 1.2)
        sqrt_pi = math.sqrt(math.pi)

        u = solve(builtin_problem(2, a, b, 3)).components
        u0 = -x + y**a / G(a + 1)
        u1 = x ** (1 - b) * y**a * (G(a + 1) * y**a - x * G(2 * a + 1)) / (
            G(a + 1) * G(2 * a + 1) * G(2 - b)
        )
        u2 = x ** (1 - 2 * b) * y ** (2 * a) * (
            x * x * ((b - 2) / G(3 - 2 * b) - 1 / G(2 - b) ** 2) / G(2 * a + 1)
            + x
            * y**a
            * (
                -(4**a) * (b - 2) * G(a + 0.5) / (sqrt_pi * G(a + 1) * G(3 - 2 * b))
                + 1 / G(2 - b) ** 2
                + 1 / G(2 - 2 * b)
            )
            / G(3 * a + 1)
            - G(3 * a + 1)
            * y ** (2 * a)
            / (G(a + 1) * G(2 * a + 1) * G(4 * a + 1) * G(2 - 2 * b))
        )
        for mine, closed in ((u[0], u0), (u[1], u1), (u[2], u2)):
            if abs(mine.evaluate(x, y) - closed) > 1e-10 * abs(closed):
                ok = False

        u1_ex3 = solve(builtin_problem(3, a, b, 2)).components[1]
        closed = -(x + 1) * y**a * x ** (1 - b) / (G(a + 1) * G(2 - b))
        if abs(u1_ex3.evaluate(x, y) - closed) > 1e-10 * abs(closed):
            ok = False

        u1_ex4 = solve(builtin_problem(4, a, b, 2)).components[1]
        closed = -(y**a) * x ** (2 - b) / (G(a + 1) * G(2 - b))
        if abs(u1_ex4.evaluate(x, y) - closed) > 1e-10 * abs(closed):
            ok = False
    _report(5, "closed-form component checks at randomized orders", ok)


def test_criterion_6_operator_properties():
    """Inversion, semigroup, commutation, linearity, quadrature agreement."""
    rng = random.Random(20240502)
    ok = True

    # D^a(J^a s) = s at 10 random points, 200 random series
    for _ in range(200):
        s = random_series(rng)
        order = rng.uniform(1e-6, 1.0)
        diff = caputo_deriv(rl_integral(s, order, Axis.Y), order, Axis.Y) - s
        for _ in range(10):
            x, y = rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)
            if abs(diff.evaluate(x, y)) > 1e-10:
                ok = False

    def close(a: FracSeries, b: FracSeries, rel=1e-12) -> bool:
        if len(a) != len(b):
            return False
        return all(
            abs(ta.px - tb.px) <= 1e-9
            and abs(ta.py - tb.py) <= 1e-9
            and abs(ta.coeff - tb.coeff) <= rel * max(abs(ta.coeff), abs(tb.coeff))
            for ta, tb in zip(a, b)
        )

    for _ in range(200):
        s = random_series(rng)
        p, q = rng.uniform(1e-6, 1.0), rng.uniform(1e-6, 1.0)
        jp_jq = rl_integral(rl_integral(s, p, Axis.Y), q, Axis.Y)
        if not close(jp_jq, rl_integral(s, p + q, Axis.Y)):
            ok = False  # semigroup
        if not close(jp_jq, rl_integral(rl_integral(s, q, Axis.Y), p, Axis.Y)):
            ok = False  # commutation

        t = random_series(rng)
        # c times a series is its product with the constant series c
        c = FracSeries([FracTerm(rng.uniform(-3.0, 3.0))])
        combo = s + t * c
        if not close(
            rl_integral(combo, p, Axis.Y),
            rl_integral(s, p, Axis.Y) + rl_integral(t, p, Axis.Y) * c,
        ):
            ok = False  # linearity of J
        if not close(
            caputo_deriv(combo, p, Axis.X),
            caputo_deriv(s, p, Axis.X) + caputo_deriv(t, p, Axis.X) * c,
        ):
            ok = False  # linearity of D

        classical = FracSeries(
            FracTerm(term.coeff * term.px, term.px - 1.0, term.py)
            for term in s
            if abs(term.px) > 1e-12
        )
        if not close(caputo_deriv(s, 1.0, Axis.X), classical):
            ok = False  # integer-order agreement

    for _ in range(50):
        p = rng.uniform(0.1, 4.0)
        order = rng.uniform(0.05, 0.95)
        x = rng.uniform(0.1, 3.0)
        rule = gamma_ratio(p + 1.0, p + 1.0 - order) * x ** (p - order)
        if abs(caputo_quadrature_oracle(p, order, x) - rule) > 1e-8:
            ok = False  # quadrature consistency

    _report(6, "fractional operator properties over randomized trials", ok)


def test_criterion_7_adomian_oracle():
    """Convolution polynomials match the lambda oracle on all problems."""
    rng = random.Random(20240503)
    probes = [(rng.uniform(0.2, 1.2), rng.uniform(0.1, 0.9)) for _ in range(20)]
    ok = True
    for example in (1, 2, 3, 4):
        sol = solve(builtin_problem(example, 1.0, 1.0, 6))
        for n in range(5):
            direct = adomian_polynomial(sol.components, n, 1.0)
            oracle = adomian_lambda_oracle(sol.components, n, 1.0, probes)
            for (x, y), val in zip(probes, oracle):
                if abs(direct.evaluate(x, y) - val) > 1e-9:
                    ok = False
    _report(7, "convolution polynomials vs lambda oracle, n <= 4", ok)


def test_criterion_8_error_decreases_with_depth():
    """|Phi_{n+1} - u| <= |Phi_n - u| for n in [2, 6] at small y."""
    ok = True
    for example in (1, 2, 3, 4):
        sol = solve(builtin_problem(example, 1.0, 1.0, 7))
        for y in Y_GRID:
            for x in X_GRID:
                exact = exact_solution(example, x, y)
                errs = [
                    abs(sol.partial_sum(n).evaluate(x, y) - exact) for n in range(2, 8)
                ]
                for earlier, later in zip(errs, errs[1:]):
                    if later > earlier + 1e-15:
                        ok = False
    _report(8, "monotone error decay in depth at small y", ok)
