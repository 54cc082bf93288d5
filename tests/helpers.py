"""Shared assertion and generation helpers for the test suite."""

from __future__ import annotations

import random

from fracadm.series import FracSeries, FracTerm


def assert_series_close(
    a: FracSeries,
    b: FracSeries,
    rel: float = 1e-12,
    abs_tol: float = 0.0,
    exp_tol: float = 1e-9,
):
    """Term-for-term comparison of two normalized series."""
    assert len(a) == len(b), f"term counts differ: {a} vs {b}"
    for ta, tb in zip(a, b):
        assert abs(ta.px - tb.px) <= exp_tol, f"px mismatch: {ta} vs {tb}"
        assert abs(ta.py - tb.py) <= exp_tol, f"py mismatch: {ta} vs {tb}"
        bound = rel * max(abs(ta.coeff), abs(tb.coeff)) + abs_tol
        assert abs(ta.coeff - tb.coeff) <= bound, f"coeff mismatch: {ta} vs {tb}"


def cells_by_key(cells) -> dict:
    """A table's cells keyed by (y, x, (alpha, beta))."""
    return {(c.y, c.x, (c.alpha, c.beta)): c for c in cells}


def random_series(
    rng: random.Random,
    max_terms: int = 5,
    exp_hi: float = 5.0,
    coeff_hi: float = 3.0,
    x_only: bool = False,
) -> FracSeries:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        coeff = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, coeff_hi)
        px = rng.uniform(0.0, exp_hi)
        py = 0.0 if x_only else rng.uniform(0.0, exp_hi)
        terms.append(FracTerm(coeff, px, py))
    return FracSeries(terms)


def random_point(rng: random.Random, lo: float = 0.1, hi: float = 1.0):
    return rng.uniform(lo, hi), rng.uniform(lo, hi)
