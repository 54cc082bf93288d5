"""Benchmark catalogue, closed-form solutions, tables, and depth recovery."""

import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from fracadm import adm, problems
from fracadm.problems import (
    CLASSICAL_PAIR,
    EXAMPLE_IDS,
    ORDER_PAIRS,
    REFERENCE_ORDERS,
    REFERENCE_TABLES,
    ScanRow,
    X_GRID,
    Y_GRID,
    SingularPointError,
    TableCell,
    builtin_problem,
    exact_solution,
    make_table,
    recovered_depth,
    truncation_scan,
)
from fracadm.adm import ProblemSpec, SolveError, solve
from fracadm.gammafn import GammaPoleError
from fracadm.parser import parse_series
from fracadm.series import FracSeries, FracTerm
from helpers import assert_series_close, cells_by_key
from oracles import grouped_evaluate_oracle, per_depth_scan_oracle, similarity_series_oracle

G = math.gamma


def S(*terms):
    return FracSeries(FracTerm(c, px, py) for c, px, py in terms)


# -- catalogue -----------------------------------------------------------------


def test_catalogue_contents():
    p1 = builtin_problem(1, 0.5, 0.5, 2)
    assert p1.ic == S((1, 0, 0))
    assert p1.forcing == S((1, 1, 0))
    p2 = builtin_problem(2)
    assert p2.ic == S((-1, 1, 0))
    assert p2.forcing == S((1, 0, 0))
    p3 = builtin_problem(3, 1.0, 1.0, 4)
    assert p3.ic == S((1, 0, 0), (1, 1, 0))
    assert p3.forcing == FracSeries()
    p4 = builtin_problem(4, 1.0, 1.0, 6)
    assert p4.ic == S((1, 1, 0))
    assert p4.forcing == FracSeries()


def test_unknown_example_rejected():
    with pytest.raises(ValueError):
        builtin_problem(5)
    with pytest.raises(ValueError):
        exact_solution(0, 0.3, 0.1)


# -- exact solutions -------------------------------------------------------------


def test_exact_solution_closed_forms():
    assert exact_solution(1, 0.0, 0.0) == pytest.approx(1.0)
    assert exact_solution(4, 0.3, 0.1) == pytest.approx(0.3 / 1.1, rel=1e-15)
    assert exact_solution(3, 0.9, 0.05) == pytest.approx(1.9 / 1.05, rel=1e-15)
    assert exact_solution(2, 0.3, 0.05) == pytest.approx(
        (0.6 - 0.1 + 0.0025) / (2 * (0.05 - 1.0)), rel=1e-15
    )
    x, y = 0.7, 0.25
    assert exact_solution(1, x, y) == pytest.approx(
        x * math.tanh(y) + 1.0 / math.cosh(y), rel=1e-15
    )


def test_example_1_is_finite_where_cosh_overflows():
    # sech is finite for every finite y, and past y = 710.4759 cosh overflows:
    # there it equals mpmath's correctly rounded sech at these points, and
    # below it is 1 / cosh(y) bit for bit
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(200):
        for y in (710.5, 720.0, 745.0, 800.0):
            with pytest.raises(OverflowError):
                math.cosh(y)
            sech = float(mpmath.sech(mpmath.mpf(y)))
            assert exact_solution(1, 0.0, y) == sech, y
            assert exact_solution(1, 0.5, y) == 0.5 * math.tanh(y) + sech, y
    assert exact_solution(1, 0.0, 745.0) == 5e-324  # 2.0 * math.exp(-745) is 1e-323
    for y in (0.0, 0.3, 1.0, 20.0, 355.0, 700.0, 710.0, 710.4758):
        assert exact_solution(1, 0.0, y) == 1.0 / math.cosh(y), y
        assert exact_solution(1, 0.7, y) == 0.7 * math.tanh(y) + 1.0 / math.cosh(y), y


@pytest.mark.parametrize("x, y", [(1e308, 3.0), (1.0, 1e200), (-1e308, 3.0), (-1e308, 1e200),
                                  (1e308, -5.0), (1.5e308, 1e154)])
def test_example_2_is_finite_where_its_closed_form_overflows(x, y):
    # 2x overflows at |x| = 1e308 and y^2 at y = 1e154; the solution is
    # finite there, and (y - 1)/2 + (x - 0.5)/(y - 1) gives it to 2**-52 relative
    mpmath = pytest.importorskip("mpmath")
    assert not math.isfinite((2.0 * x - 2.0 * y + y * y) / (2.0 * (y - 1.0)))
    with mpmath.workprec(200):
        x_, y_ = mpmath.mpf(x), mpmath.mpf(y)
        want = (2 * x_ - 2 * y_ + y_ * y_) / (2 * (y_ - 1))
        got = exact_solution(2, x, y)
        assert abs(got - want) <= 2 * 2.0**-53 * abs(want), (got, want)


def test_example_2_past_the_double_range_names_its_point():
    # the solution at (1e308, 0.5) is -2e308 + 0.75
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(200):
        x_, y_ = mpmath.mpf(1e308), mpmath.mpf(0.5)
        assert (2 * x_ - 2 * y_ + y_ * y_) / (2 * (y_ - 1)) < -1.7976931348623157e308
    with pytest.raises(OverflowError, match=r"^exact value at x = 1e\+308, y = 0\.5 is -inf$"):
        exact_solution(2, 1e308, 0.5)


def test_exact_solution_singular_points():
    with pytest.raises(SingularPointError):
        exact_solution(2, 0.5, 1.0)
    with pytest.raises(SingularPointError):
        exact_solution(3, 0.5, -1.0)
    with pytest.raises(SingularPointError):
        exact_solution(4, 0.5, -1.0)


def _printed_tolerance(value: float) -> float:
    text = repr(float(value))
    decimals = len(text.split(".")[1]) if "." in text else 0
    return 1.01 * 10.0 ** (-decimals)


def test_exact_solution_reproduces_reference_columns():
    for example, table in REFERENCE_TABLES.items():
        for (y, x), row in table.items():
            ref_exact = row[3]
            assert exact_solution(example, x, y) == pytest.approx(
                ref_exact, abs=_printed_tolerance(ref_exact)
            )


# -- component identification at classical orders ---------------------------------


def test_example4_components_are_geometric():
    sol = solve(builtin_problem(4, 1.0, 1.0, 9))
    for n, u in enumerate(sol.components):
        assert_series_close(u, S(((-1.0) ** n, 1, n)), rel=1e-12)


def test_example3_components_are_geometric_with_offset():
    sol = solve(builtin_problem(3, 1.0, 1.0, 9))
    for n, u in enumerate(sol.components):
        expect = S(((-1.0) ** n, 0, n), ((-1.0) ** n, 1, n))
        assert_series_close(u, expect, rel=1e-12)


def test_example1_phi4_low_order_taylor():
    phi = solve(builtin_problem(1, 1.0, 1.0, 4)).partial_sum(4)
    low = {(t.px, t.py): t.coeff for t in phi if t.py <= 3.0 + 1e-9}
    expect = {(0.0, 0.0): 1.0, (1.0, 1.0): 1.0, (0.0, 2.0): -0.5, (1.0, 3.0): -1.0 / 3.0}
    assert set(low) == set(expect)
    for key, val in expect.items():
        assert low[key] == pytest.approx(val, rel=1e-12, abs=1e-12)


def test_printed_first_components_fractional_orders():
    # the catalogued problems have known closed forms for u_1 and u_2
    import random

    rng = random.Random(21)
    for _ in range(10):
        a = rng.uniform(0.1, 1.0)
        b = rng.uniform(0.1, 0.95)
        x = rng.uniform(0.2, 1.4)
        y = rng.uniform(0.1, 1.2)

        u = solve(builtin_problem(4, a, b, 3)).components
        u1_closed = -(y**a) * x ** (2 - b) / (G(a + 1) * G(2 - b))
        assert u[1].evaluate(x, y) == pytest.approx(u1_closed, rel=1e-10)
        u2_closed = (
            ((2 - b) / G(3 - 2 * b) + 1 / G(2 - b) ** 2)
            * y ** (2 * a)
            * x ** (3 - 2 * b)
            / G(2 * a + 1)
        )
        assert u[2].evaluate(x, y) == pytest.approx(u2_closed, rel=1e-10)

        u = solve(builtin_problem(3, a, b, 3)).components
        u1_closed = -(x + 1) * y**a * x ** (1 - b) / (G(a + 1) * G(2 - b))
        assert u[1].evaluate(x, y) == pytest.approx(u1_closed, rel=1e-10)
        u2_closed = (
            (x + 1)
            * y ** (2 * a)
            * x ** (1 - 2 * b)
            * (x / G(2 - b) ** 2 + (2 * (x + 1) - b * (x + 2)) / G(3 - 2 * b))
            / G(2 * a + 1)
        )
        assert u[2].evaluate(x, y) == pytest.approx(u2_closed, rel=1e-10)


# -- tables ------------------------------------------------------------------------


def test_make_table_layout_and_invariants():
    cells = make_table(2, 3)
    assert type(cells) is tuple
    assert all(type(cell) is TableCell for cell in cells)
    assert len(cells) == len(Y_GRID) * len(X_GRID) * len(ORDER_PAIRS)
    for cell in cells:
        if (cell.alpha, cell.beta) == CLASSICAL_PAIR:
            assert cell.exact is not None
            assert cell.abs_error == abs(cell.exact - cell.approx)
        else:
            assert cell.exact is None and cell.abs_error is None


def test_make_table_depth1_is_initial_condition():
    cells = cells_by_key(make_table(4, 1))
    for y in Y_GRID:
        for x in X_GRID:
            cell = cells[y, x, CLASSICAL_PAIR]
            assert cell.approx == pytest.approx(x, rel=1e-12)


def test_make_table_reference_cells():
    cell = cells_by_key(make_table(4, 6))[0.01, 0.3, CLASSICAL_PAIR]
    assert cell.approx == pytest.approx(0.29703, abs=1e-5)
    assert cell.abs_error == pytest.approx(2.97029e-13, rel=0.05)
    cell3 = cells_by_key(make_table(3, 4))[0.1, 0.3, CLASSICAL_PAIR]
    assert cell3.abs_error == pytest.approx(1.18182e-4, rel=0.05)


@pytest.mark.parametrize("example, n_terms", [(1, 4), (2, 4), (3, 4), (4, 4), (4, 6)])
def test_make_table_matches_pointwise_evaluation(example, n_terms):
    cells = make_table(example, n_terms)
    phis = {
        pair: solve(builtin_problem(example, *pair, n_terms)).partial_sum(n_terms)
        for pair in ORDER_PAIRS
    }
    expected = []
    for y in Y_GRID:
        for x in X_GRID:
            for pair in ORDER_PAIRS:
                approx = grouped_evaluate_oracle(phis[pair], x, y)
                exact = error = None
                if pair == CLASSICAL_PAIR:
                    exact = exact_solution(example, x, y)
                    error = abs(exact - approx)
                expected.append((y, x, *pair, approx, exact, error))
    got = [
        (c.y, c.x, c.alpha, c.beta, c.approx, c.exact, c.abs_error) for c in cells
    ]
    assert repr(got) == repr(expected)  # bit for bit


def test_reference_tables_run_over_the_grid_in_row_order():
    # each reference table covers the grid, point by point in row order
    for table in REFERENCE_TABLES.values():
        assert list(table) == [(y, x) for y in Y_GRID for x in X_GRID]


def test_reference_error_columns_match_geometric_tails():
    # the stored reference errors for problems 3 and 4 are exactly the
    # geometric remainders (1+x)*y^4/(1+y) and x*y^6/(1+y)
    for (y, x), row in REFERENCE_TABLES[4].items():
        assert row[4] == pytest.approx(x * y**6 / (1 + y), rel=1e-4)
    for (y, x), row in REFERENCE_TABLES[3].items():
        assert row[4] == pytest.approx((1 + x) * y**4 / (1 + y), rel=1e-4)


# -- the paper's fractional columns ----------------------------------------------------

# Each fractional column of REFERENCE_TABLES is Phi_N at the depth N of its
# example's classical column, at the orders REFERENCE_ORDERS records.
# A deviation this small is what rounding to the table's six digits leaves.
ROUNDING_LEVEL = 5e-6


def _column_deviation(example, column, alpha, beta, problem=None):
    """The largest relative deviation of Phi_N from a fractional column of
    the reference table over its nine cells."""
    depth = REFERENCE_ORDERS[example][0]
    phi = solve(problem or builtin_problem(example, alpha, beta, depth)).partial_sum(depth)
    return max(abs(phi.evaluate(x, y) - row[column]) / abs(row[column])
               for (y, x), row in REFERENCE_TABLES[example].items())


@pytest.mark.parametrize("beta", [0.5 - 1e-7, 0.5 + 1e-7])
def test_example_1_first_column_is_the_beta_half_limit(beta):
    """Within 4.3e-6 at (0.5, 0.5 - 1e-7) and at (0.5, 0.5 + 1e-7) alike."""
    assert _column_deviation(1, 0, 0.5, beta) < ROUNDING_LEVEL


def test_example_1_first_column_is_off_at_beta_half_exactly():
    """5.3e-3 off at beta = 0.5 itself, where the x-constant in u_2 has a
    zero derivative."""
    assert _column_deviation(1, 0, 0.5, 0.5) > 5e-3


def test_example_1_first_column_is_not_a_near_constant_initial_condition():
    """The limit is not taken on the initial condition: with ``--ic
    x^0.000001 --g x`` in place of 1 at (0.5, 0.5), Phi_4 is 4.5e3 off."""
    problem = ProblemSpec(0.5, 0.5, parse_series("x^0.000001"), parse_series("x"), 4)
    assert _column_deviation(1, 0, 0.5, 0.5, problem) > 1e3


@pytest.mark.parametrize("example, column, measured", [
    (1, 1, 4.5e-6), (2, 0, 4.8e-6), (2, 1, 1.7e-6), (3, 0, 4.3e-6), (3, 1, 3.1e-6),
    (4, 0, 1.5e-6), (4, 1, 1.4e-6),
])
def test_a_fractional_column_at_its_recovered_orders(example, column, measured):
    """Measured: example 1's second column 4.5e-6 at (0.75, 0.75); examples
    2, 3 and 4 at (0.5, 0.75) 4.8e-6, 4.3e-6 and 1.5e-6, and at (0.75, 0.9)
    1.7e-6, 3.1e-6 and 1.4e-6 (the ``measured`` parameter)."""
    deviation = _column_deviation(example, column, *REFERENCE_ORDERS[example][1 + column])
    assert deviation < ROUNDING_LEVEL
    assert deviation == pytest.approx(measured, rel=0.05)


@pytest.mark.parametrize("example", [2, 3, 4])
def test_examples_2_to_4_are_not_reproduced_at_their_labels_or_near_the_recovered_orders(example):
    """At their labels the columns of examples 2-4 are 0.019 (example 4 at
    (0.75, 0.75)) to 0.13 (example 2 at (0.5, 0.5)) off, and with alpha or
    beta moved by 0.01 either way from the recovered orders at least 1.2e-3
    (1.17e-3, example 4's second column)."""
    for column, label in enumerate(ORDER_PAIRS[:2]):
        assert _column_deviation(example, column, *label) > 1e-3
        alpha, beta = REFERENCE_ORDERS[example][1 + column]
        for moved in ((alpha + 0.01, beta), (alpha - 0.01, beta),
                      (alpha, beta + 0.01), (alpha, beta - 0.01)):
            assert _column_deviation(example, column, *moved) > 1e-3, moved


@pytest.mark.parametrize("example, column", [(1, 1), (2, 0), (2, 1), (3, 0), (3, 1)])
def test_five_fractional_columns_take_a_formal_derivative(example, column):
    """At the recovered orders u_2 carries x^(1 - 2 beta), x^-0.5 or x^-0.8,
    so the u_3 inside Phi_4 is built from its formal (Riemann-Liouville)
    derivative."""
    depth, *orders = REFERENCE_ORDERS[example]
    alpha, beta = orders[column]
    u2 = solve(builtin_problem(example, alpha, beta, depth)).components[2]
    lowest = min(t.px for t in u2.terms)
    assert lowest == pytest.approx(1 - 2 * beta)
    assert -1 < lowest < 0


@pytest.mark.parametrize("column", [0, 1])
def test_example_4_columns_are_caputo_series(column):
    """No component of Phi_6 at example 4's recovered orders has an
    x-exponent below 1."""
    depth, *orders = REFERENCE_ORDERS[4]
    sol = solve(builtin_problem(4, *orders[column], depth))
    assert min(t.px for u in sol.components for t in u.terms) == 1.0


# -- where the series stops being a Caputo series ---------------------------------

# u_n carries x^(1 - n beta), and the Caputo derivative of an x-constant is 0,
# so the chain of exponents ends only where 1/beta is an integer.  Otherwise
# u_{floor(1/beta) + 1} is the first component with a negative x-exponent,
# and every later one is built from a formal derivative.  Each case solves to
# 30 terms at alpha = 0.5.


def _components_to_30(example, beta):
    """u_0..u_29 of the example at (0.5, beta), or the components a solve
    finished before it stopped, and the SolveError it stopped on or None."""
    try:
        return solve(builtin_problem(example, 0.5, beta, 30)).components, None
    except SolveError as exc:
        return exc.solution.components, exc


def _first_negative_x_exponent(components):
    return next((n for n, u in enumerate(components) if any(t.px < 0 for t in u.terms)), None)


@pytest.mark.parametrize("example", [1, 2, 3])
@pytest.mark.parametrize("beta, first, pole", [(0.3, 4, 11), (0.4, 3, 11), (0.6, 2, 6), (0.75, 2, 5)])
def test_examples_1_to_3_leave_the_caputo_domain_at_u_floor_1_over_beta_plus_1(example, beta, first, pole):
    """The first negative x-exponent is in u_4, u_3, u_2 and u_2 at beta =
    0.3, 0.4, 0.6 and 0.75, and those solves stop at a Gamma pole at u_11,
    u_11, u_6 and u_5."""
    components, err = _components_to_30(example, beta)
    assert first == math.floor(1 / beta) + 1
    assert _first_negative_x_exponent(components) == first
    assert isinstance(err.__cause__, GammaPoleError)
    assert err.depth == pole


@pytest.mark.parametrize("example, beta", [
    *((example, beta) for example in (1, 2, 3) for beta in (0.25, 0.5, 1.0)),
    *((4, beta) for beta in (0.25, 0.3, 0.4, 0.5, 0.6, 0.75, 1.0)),
])
def test_a_series_stays_caputo_to_30_terms(example, beta):
    """Examples 1-3 where 1/beta is an integer, and example 4 at every beta."""
    components, err = _components_to_30(example, beta)
    assert err is None
    assert _first_negative_x_exponent(components) is None


# -- example 4's radius of convergence ---------------------------------------------

# Example 4's solution is x * sum_n c_n zeta^n with zeta = x^(1 - beta) y^alpha
# (ic = x, no forcing), so its radius R in zeta comes from the c_n alone.  Two
# estimates from the similarity oracle's c_0..c_60: the ratio |c_58/c_59|, and
# a Domb-Sykes least-squares fit of c_n/c_{n-1} against 1/n over n = 30..59,
# R = 1/|intercept|.  Measured, to four places (ratio, Domb-Sykes):
EXAMPLE_4_RADII = {
    (0.5, 0.5): (0.2758, 0.2701),  # the labels
    (0.75, 0.75): (0.4210, 0.4124),
    (0.5, 0.75): (0.2654, 0.2558),  # the recovered orders
    (0.75, 0.9): (0.4853, 0.4743),
}
# The cells of example 4's fractional columns outside the radius, as (column,
# y, x), by both estimates.  The paper printed Phi_6 there, 0.442692 and
# 0.624414: partial sums of a series that diverges at those points.
OUTSIDE_THE_RADIUS = {(0, 0.1, 0.6), (0, 0.1, 0.9)}


def _radius_estimates(alpha, beta):
    """(ratio, Domb-Sykes) estimates of example 4's radius in zeta."""
    c = [row.coeff for row in similarity_series_oracle(1, 1, alpha, beta, 61)]
    inv_n = [1 / n for n in range(30, 60)]
    steps = [float(c[n] / c[n - 1]) for n in range(30, 60)]
    _, intercept = statistics.linear_regression(inv_n, steps)
    return float(abs(c[58] / c[59])), 1 / abs(intercept)


@pytest.mark.parametrize("orders", list(EXAMPLE_4_RADII))
def test_example_4_radius_estimates(orders):
    """Within 5e-5 of the four-place figures; the ratio estimate is the
    larger, an upper bound on R here."""
    ratio, domb_sykes = _radius_estimates(*orders)
    assert (ratio, domb_sykes) == pytest.approx(EXAMPLE_4_RADII[orders], abs=5e-5)
    assert ratio > domb_sykes


@pytest.mark.parametrize("column", [0, 1])
def test_example_4_cells_inside_and_outside_the_radius(column):
    """At the recovered orders (0.5, 0.75) of the column labelled (0.5, 0.5),
    zeta/R at y = 0.1 and x = 0.3, 0.6, 0.9 is 0.91, 1.09 and 1.20 by
    Domb-Sykes and 0.88, 1.05 and 1.16 by the ratio; at (0.75, 0.9) of the
    other column it is at most 0.371 (0.363 by the ratio) on all nine cells."""
    alpha, beta = REFERENCE_ORDERS[4][1 + column]
    radii = _radius_estimates(alpha, beta)
    reach = {(y, x): [x ** (1 - beta) * y ** alpha / r for r in radii] for y, x in REFERENCE_TABLES[4]}
    for (y, x), over in reach.items():
        assert [q > 1 for q in over] == [(column, y, x) in OUTSIDE_THE_RADIUS] * 2, (y, x)
    if column == 0:
        at_y_01 = [reach[0.1, x] for x in X_GRID]
        assert at_y_01 == [pytest.approx([r, d], abs=5e-3) for r, d in
                           ((0.88, 0.91), (1.05, 1.09), (1.16, 1.20))]
        assert [REFERENCE_TABLES[4][0.1, x][0] for x in X_GRID[1:]] == [0.442692, 0.624414]
    else:
        assert max(q for over in reach.values() for q in over) == pytest.approx(0.371, abs=5e-4)


def test_the_table_script_compares_example_4_at_its_recovered_orders():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "reproduce_tables.py"), "--example", "4"],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "recovered depth: 6" in lines
    recovered = [float(line.rsplit(":", 1)[1]) for line in lines
                 if "at recovered orders" in line]
    assert len(recovered) == 2
    assert max(recovered) < ROUNDING_LEVEL


# -- truncation scan -----------------------------------------------------------------


def test_truncation_scan_recovers_depths():
    assert recovered_depth(1, 8) == 4
    assert recovered_depth(2, 8) == 4
    assert recovered_depth(3, 8) == 4
    assert recovered_depth(4, 8) == 6


def test_truncation_scan_shallow_depth_deviates():
    rows = truncation_scan(4, 2)
    assert rows[0].n_terms == 1
    assert rows[0].max_deviation > 100.0


def test_truncation_scan_survives_fractional_failures():
    # depths >= 6 cannot be computed at (0.75, 0.75) for this problem; the
    # scan must keep going and still report the classical error column
    rows = truncation_scan(3, 8)
    assert len(rows) == 8
    by_n = {r.n_terms: r for r in rows}
    assert math.isinf(by_n[8].max_deviation)
    assert math.isfinite(by_n[8].error_column_deviation)
    assert by_n[4].error_column_deviation < 1e-3


@pytest.mark.parametrize("example", EXAMPLE_IDS)
def test_truncation_scan_matches_one_solve_per_depth(example):
    # examples 1-3 fail at u_5 for (0.75, 0.75), so this covers the depths a
    # failed pair still supplies and the ones it cannot; 20 and 28 are the
    # depths the depth_scan workload runs
    for n_max in (8, 28 if example == 4 else 20):
        assert truncation_scan(example, n_max) == per_depth_scan_oracle(example, n_max)


def test_truncation_scan_ends_at_the_first_depth_no_pair_reached():
    with mock.patch.object(adm, "_WORK_BUDGET", 10):
        rows = truncation_scan(4, 50)
        assert rows == per_depth_scan_oracle(4, 6)
    assert rows[-1] == ScanRow(6, math.inf, math.inf)


def test_truncation_scan_reads_the_reference_by_point():
    want = truncation_scan(4, 8)
    reordered = {e: dict(reversed(t.items())) for e, t in REFERENCE_TABLES.items()}
    with mock.patch.object(problems, "REFERENCE_TABLES", reordered):
        assert truncation_scan(4, 8) == want


def test_truncation_scan_validation():
    with pytest.raises(ValueError):
        truncation_scan(9, 4)
    with pytest.raises(ValueError):
        truncation_scan(1, 0)
