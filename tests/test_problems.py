"""Benchmark catalogue, closed-form solutions, tables, and depth recovery."""

import math
from unittest import mock

import pytest

from fracadm import adm, problems
from fracadm.problems import (
    CLASSICAL_PAIR,
    EXAMPLE_IDS,
    ORDER_PAIRS,
    REFERENCE_TABLES,
    ScanRow,
    X_GRID,
    Y_GRID,
    SingularPointError,
    builtin_problem,
    exact_solution,
    make_table,
    recovered_depth,
    truncation_scan,
)
from fracadm.adm import solve
from fracadm.series import FracSeries, FracTerm
from helpers import assert_series_close
from oracles import per_depth_scan_oracle, pointwise_evaluate_oracle

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
    assert p3.forcing == FracSeries.zero()
    p4 = builtin_problem(4, 1.0, 1.0, 6)
    assert p4.ic == S((1, 1, 0))
    assert p4.forcing == FracSeries.zero()


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
    report = make_table(2, 3)
    assert report._fields == ("example", "n_terms", "cells")
    assert report.example == 2
    assert report.n_terms == 3
    assert len(report.cells) == len(Y_GRID) * len(X_GRID) * len(ORDER_PAIRS)
    for cell in report.cells:
        if (cell.alpha, cell.beta) == CLASSICAL_PAIR:
            assert cell.exact is not None
            assert cell.abs_error == abs(cell.exact - cell.approx)
        else:
            assert cell.exact is None and cell.abs_error is None


def test_make_table_depth1_is_initial_condition():
    report = make_table(4, 1)
    for y in Y_GRID:
        for x in X_GRID:
            cell = report.cell(y, x, CLASSICAL_PAIR)
            assert cell.approx == pytest.approx(x, rel=1e-12)


def test_make_table_reference_cells():
    report = make_table(4, 6)
    cell = report.cell(0.01, 0.3, CLASSICAL_PAIR)
    assert cell.approx == pytest.approx(0.29703, abs=1e-5)
    assert cell.abs_error == pytest.approx(2.97029e-13, rel=0.05)
    report3 = make_table(3, 4)
    cell3 = report3.cell(0.1, 0.3, CLASSICAL_PAIR)
    assert cell3.abs_error == pytest.approx(1.18182e-4, rel=0.05)


@pytest.mark.parametrize("example, n_terms", [(1, 4), (2, 4), (3, 4), (4, 4), (4, 6)])
def test_make_table_matches_pointwise_evaluation(example, n_terms):
    report = make_table(example, n_terms)
    phis = {
        pair: solve(builtin_problem(example, *pair, n_terms)).partial_sum(n_terms)
        for pair in ORDER_PAIRS
    }
    expected = []
    for y in Y_GRID:
        for x in X_GRID:
            for pair in ORDER_PAIRS:
                approx = pointwise_evaluate_oracle(phis[pair], x, y)
                exact = error = None
                if pair == CLASSICAL_PAIR:
                    exact = exact_solution(example, x, y)
                    error = abs(exact - approx)
                expected.append((y, x, *pair, approx, exact, error))
    got = [
        (c.y, c.x, c.alpha, c.beta, c.approx, c.exact, c.abs_error) for c in report.cells
    ]
    assert repr(got) == repr(expected)  # bit for bit


def test_reference_tables_run_over_the_grid_in_row_order():
    # each reference table covers the grid, point by point in row order
    for table in REFERENCE_TABLES.values():
        assert list(table) == [(y, x) for y in Y_GRID for x in X_GRID]


def test_make_table_missing_cell_lookup():
    report = make_table(4, 2)
    with pytest.raises(KeyError):
        report.cell(0.5, 0.5, CLASSICAL_PAIR)


def test_reference_error_columns_match_geometric_tails():
    # the stored reference errors for problems 3 and 4 are exactly the
    # geometric remainders (1+x)*y^4/(1+y) and x*y^6/(1+y)
    for (y, x), row in REFERENCE_TABLES[4].items():
        assert row[4] == pytest.approx(x * y**6 / (1 + y), rel=1e-4)
    for (y, x), row in REFERENCE_TABLES[3].items():
        assert row[4] == pytest.approx((1 + x) * y**4 / (1 + y), rel=1e-4)


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
    # failed pair still supplies and the ones it cannot
    assert truncation_scan(example, 8) == per_depth_scan_oracle(example, 8)


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
