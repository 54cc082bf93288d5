"""Series algebra, fractional operators, and the quadrature cross-check."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracadm.gammafn import gamma_ratio
from fracadm.series import (
    Axis,
    EvaluationDomainError,
    FracSeries,
    FracTerm,
    NonIntegrableTermError,
    TermCapError,
    caputo_deriv,
    _normalize,
    format_series,
    rl_integral,
    sum_of_products,
)
from helpers import assert_series_close, random_series
from oracles import caputo_quadrature_oracle, sort_cluster_normalize_oracle

X, Y = Axis.X, Axis.Y


def S(*terms):
    return FracSeries(FracTerm(c, px, py) for c, px, py in terms)


# -- normalization and plain algebra ----------------------------------------


def test_normalize_merges_duplicates():
    assert S((1, 1, 0), (2, 1, 0)) == S((3, 1, 0))


def test_normalize_drops_zero_terms():
    assert S((0, 2, 0)) == FracSeries.zero()
    assert not S((0, 2, 0))


def test_normalize_cancellation():
    assert S((1, 0.5, 1), (-1, 0.5, 1)) == FracSeries.zero()


def test_normalize_is_idempotent():
    s = S((2, 0.5, 0), (-1, 1, 2), (3, 0.5, 0))
    assert FracSeries(s.terms) == s


def test_normalize_merge_within_tolerance():
    s = S((1, 1.0, 2.0), (1, 1.0 + 1e-14, 2.0 - 1e-14))
    assert len(s) == 1
    assert s.terms[0].coeff == pytest.approx(2.0)


# Exponents that stress the bucketed merge: exact duplicates, both zeros, and
# chains whose links are 0.9 * EXPONENT_TOL apart (each link merges with its
# predecessor, but the chain splits once it is more than EXPONENT_TOL long).
_exp_bases = st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.5, -1.25, 2.0])
_exponents = st.one_of(
    _exp_bases,
    st.builds(lambda b, k: b + k * 0.9e-12 if k else b, _exp_bases, st.integers(0, 4)),
    st.floats(min_value=-3.0, max_value=3.0),
)
_raw_coeffs = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3),
    st.sampled_from([0.0, -0.0, 1e-16, -1e-16, 1e-12]),
)
_raw_terms = st.lists(st.builds(FracTerm, _raw_coeffs, _exponents, _exponents), max_size=40)


@settings(max_examples=300, deadline=None)
@given(_raw_terms)
# the representative zero is the first by (exponent, input order) ...
@example([FracTerm(1.0, 0.0, 1.0), FracTerm(1.0, -0.0, 0.5)])
# ... also for py across the px values of one run
@example([FracTerm(1.0, 1.0, 0.0), FracTerm(1.0, 1.0 + 0.9e-12, -0.0)])
def test_bucketed_normalize_matches_sort_and_cluster(terms):
    # repr tells -0.0 from 0.0, so this is a bit-for-bit comparison
    assert repr(_normalize(terms)) == repr(sort_cluster_normalize_oracle(terms))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_raw_terms.map(lambda ts: ts[:12]), _raw_terms), max_size=4))
def test_sum_of_products_normalizes_all_raw_products_once(pairs):
    series_pairs = [(FracSeries(a), FracSeries(b)) for a, b in pairs]
    raw = [
        FracTerm(s.coeff * t.coeff, s.px + t.px, s.py + t.py)
        for a, b in series_pairs
        for s in a
        for t in b
    ]
    got = sum_of_products(series_pairs).terms
    assert repr(got) == repr(sort_cluster_normalize_oracle(raw))


def test_sum_of_products_caps_each_product():
    big = FracSeries(FracTerm(1.0, float(i), 0.0) for i in range(10))
    assert len(sum_of_products([(big, big)] * 3, term_cap=100)) == 19
    with pytest.raises(TermCapError):
        sum_of_products([(big, big), (big, big.mul(big))], term_cap=100)


def test_terms_sorted_lexicographically():
    s = S((1, 2, 0), (1, 0, 1), (1, 0, 0), (1, 2, -1))
    assert [(t.px, t.py) for t in s] == [(0, 0), (0, 1), (2, -1), (2, 0)]


def test_add_identity_and_cancellation():
    s = S((1, 0, 0), (1, 1, 0))
    assert S((1, 0, 0)) + S((1, 1, 0)) == s
    assert s + FracSeries.zero() == s
    assert S((1, 1, 0)) + S((-1, 1, 0)) == FracSeries.zero()


def test_scale():
    assert S((1, 1, 0)).scale(-1.0) == S((-1, 1, 0))
    assert S((1, 1, 0), (2, 0, 3)).scale(0.0) == FracSeries.zero()
    assert S((2, 0.5, 0)).scale(0.5) == S((1, 0.5, 0))
    assert 2 * S((1, 1, 1)) == S((2, 1, 1))


def test_mul_examples():
    assert S((1, 1, 0)) * S((1, 1, 0)) == S((1, 2, 0))
    assert S((1, 0, 0), (1, 1, 0)) * S((1, 0, 0), (-1, 1, 0)) == S((1, 0, 0), (-1, 2, 0))
    assert S((1, 0.5, 0)) * S((2, 0, 0.5)) == S((2, 0.5, 0.5))


def test_mul_term_cap():
    a = FracSeries(FracTerm(1.0, float(i), 0.0) for i in range(101))
    b = FracSeries(FracTerm(1.0, 0.0, float(i)) for i in range(101))
    with pytest.raises(TermCapError) as err:
        a.mul(b, term_cap=10_000)
    assert err.value.would_be == 101 * 101
    assert a.mul(b, term_cap=10_201)  # exactly at the cap passes


def test_immutability():
    s = S((1, 1, 0))
    with pytest.raises(AttributeError):
        s.terms = ()


# -- evaluation ---------------------------------------------------------------


def test_evaluate_examples():
    assert S((1, 0, 0), (1, 1, 1)).evaluate(0.3, 0.1) == pytest.approx(1.03)
    assert S((1, 0.5, 0)).evaluate(0.25, 0.0) == pytest.approx(0.5)


def test_evaluate_zero_conventions():
    assert S((1, 0, 0)).evaluate(0.0, 0.0) == 1.0  # 0**0 = 1
    assert S((1, 2, 0)).evaluate(0.0, 0.5) == 0.0
    assert S((1, 0, 1.5)).evaluate(0.5, 0.0) == 0.0


def test_evaluate_domain_errors():
    with pytest.raises(EvaluationDomainError):
        S((1, -1, 0)).evaluate(0.0, 0.0)
    with pytest.raises(EvaluationDomainError):
        S((1, 0.5, 0)).evaluate(-1.0, 0.0)
    with pytest.raises(EvaluationDomainError):
        S((1, 0, 0)).evaluate(0.5, -0.1)


def test_evaluate_negative_x_integer_exponents():
    assert S((1, 2, 0)).evaluate(-0.5, 0.0) == pytest.approx(0.25)
    assert S((1, 3, 0)).evaluate(-0.5, 0.0) == pytest.approx(-0.125)


# -- Caputo derivative --------------------------------------------------------


def test_caputo_classical_derivative():
    assert_series_close(caputo_deriv(S((1, 1, 0)), 1.0, X), S((1, 0, 0)))


def test_caputo_constant_vanishes():
    assert caputo_deriv(S((1, 0, 0)), 0.5, X) == FracSeries.zero()
    assert caputo_deriv(S((3, 0, 2)), 0.5, X) == FracSeries.zero()  # constant in x


def test_caputo_half_derivative_of_x():
    d = caputo_deriv(S((1, 1, 0)), 0.5, X)
    assert len(d) == 1
    assert d.terms[0].px == pytest.approx(0.5, abs=1e-15)
    assert d.terms[0].coeff == pytest.approx(1.1283791670955126, abs=1e-10)


def test_caputo_order_validation():
    with pytest.raises(ValueError):
        caputo_deriv(S((1, 1, 0)), 0.0, X)
    with pytest.raises(ValueError):
        caputo_deriv(S((1, 1, 0)), 1.5, X)


def test_caputo_acts_on_chosen_axis_only():
    s = S((2, 1, 3))
    dx = caputo_deriv(s, 1.0, X)
    assert [(t.px, t.py) for t in dx] == [(0.0, 3.0)]
    dy = caputo_deriv(s, 1.0, Y)
    assert [(t.px, t.py) for t in dy] == [(1.0, 2.0)]
    assert dy.terms[0].coeff == pytest.approx(6.0, rel=1e-13)


def test_caputo_formal_rule_negative_exponent():
    # the defining integral diverges for p <= 0; the formal rule is policy
    d = caputo_deriv(S((1, -0.5, 0)), 0.75, X)
    expect = gamma_ratio(0.5, -0.25)
    assert d.terms[0].px == pytest.approx(-1.25, abs=1e-14)
    assert d.terms[0].coeff == pytest.approx(expect, rel=1e-13)


# -- Riemann-Liouville integral ----------------------------------------------


def test_rl_classical_integration():
    assert_series_close(rl_integral(S((1, 0, 0)), 1.0, Y), S((1, 0, 1)))
    assert_series_close(rl_integral(S((1, 0, 1)), 1.0, Y), S((0.5, 0, 2)))


def test_rl_half_integral_of_x():
    j = rl_integral(S((1, 1, 0)), 0.5, Y)
    assert len(j) == 1
    assert (j.terms[0].px, j.terms[0].py) == (1.0, 0.5)
    assert j.terms[0].coeff == pytest.approx(1.1283791670955126, abs=1e-10)


def test_rl_order_validation():
    with pytest.raises(ValueError):
        rl_integral(S((1, 0, 0)), 0.0, Y)
    with pytest.raises(ValueError):
        rl_integral(S((1, 0, 0)), -0.5, Y)


def test_rl_non_integrable_exponent():
    with pytest.raises(NonIntegrableTermError):
        rl_integral(S((1, -1, 0)), 0.5, X)
    with pytest.raises(NonIntegrableTermError):
        rl_integral(S((1, -1.5, 0)), 0.5, X)


# -- operator properties (randomized) ------------------------------------------

_coeffs = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False).filter(
    lambda c: abs(c) > 1e-3
)
_expos = st.integers(min_value=0, max_value=40).map(lambda k: k / 8.0)
_orders = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


@st.composite
def series_strategy(draw, max_terms=4):
    n = draw(st.integers(min_value=1, max_value=max_terms))
    return FracSeries(
        FracTerm(draw(_coeffs), draw(_expos), draw(_expos)) for _ in range(n)
    )


@given(series_strategy(), series_strategy())
def test_mul_commutative(a, b):
    assert_series_close(a * b, b * a, rel=1e-12)


@settings(max_examples=50)
@given(series_strategy(3), series_strategy(3), series_strategy(3))
def test_mul_associative(a, b, c):
    assert_series_close((a * b) * c, a * (b * c), rel=1e-12)


@given(series_strategy(), series_strategy(), _orders)
def test_operators_are_linear(a, b, order):
    combo = a + b.scale(3.5)
    assert_series_close(
        rl_integral(combo, order, Y),
        rl_integral(a, order, Y) + rl_integral(b, order, Y).scale(3.5),
        rel=1e-12,
    )
    assert_series_close(
        caputo_deriv(combo, order, Y),
        caputo_deriv(a, order, Y) + caputo_deriv(b, order, Y).scale(3.5),
        rel=1e-12,
    )


@given(series_strategy(), _orders)
def test_derivative_inverts_integral(s, order):
    assert_series_close(caputo_deriv(rl_integral(s, order, Y), order, Y), s, rel=1e-12)


@given(series_strategy(), _orders, _orders)
def test_integral_semigroup_and_commutation(s, a, b):
    both = rl_integral(rl_integral(s, a, Y), b, Y)
    assert_series_close(both, rl_integral(s, a + b, Y), rel=1e-12)
    assert_series_close(both, rl_integral(rl_integral(s, b, Y), a, Y), rel=1e-12)


@given(series_strategy())
def test_integer_order_matches_classical_rule(s):
    classical = FracSeries(
        FracTerm(t.coeff * t.px, t.px - 1.0, t.py) for t in s if abs(t.px) > 1e-12
    )
    assert_series_close(caputo_deriv(s, 1.0, X), classical, rel=1e-12)


def test_power_rule_matches_quadrature_oracle():
    rng = random.Random(99)
    for _ in range(12):
        p = rng.uniform(0.1, 4.0)
        order = rng.uniform(0.05, 0.95)
        x = rng.uniform(0.1, 3.0)
        rule = gamma_ratio(p + 1.0, p + 1.0 - order) * x ** (p - order)
        assert caputo_quadrature_oracle(p, order, x) == pytest.approx(rule, abs=1e-8)


def test_quadrature_oracle_known_values():
    assert caputo_quadrature_oracle(1.0, 0.5, 1.0) == pytest.approx(
        1.1283791671, abs=1e-9
    )
    assert caputo_quadrature_oracle(2.0, 0.5, 1.0) == pytest.approx(
        gamma_ratio(3.0, 2.5), abs=1e-9
    )
    assert caputo_quadrature_oracle(1.0, 0.25, 4.0) == pytest.approx(
        gamma_ratio(2.0, 1.75) * 4.0**0.75, abs=1e-8
    )


def test_quadrature_oracle_validation():
    with pytest.raises(ValueError):
        caputo_quadrature_oracle(-1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        caputo_quadrature_oracle(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        caputo_quadrature_oracle(1.0, 0.5, 0.0)


# -- display -------------------------------------------------------------------


def test_format_zero():
    assert format_series(FracSeries.zero()) == "0"


def test_format_examples():
    assert format_series(S((1, 0, 0), (1, 1, 0))) == "1 + 1*x"
    assert format_series(S((-1, 1, 0))) == "-1*x"
    assert format_series(S((2, 1.5, 0))) == "2*x^1.5"
    assert format_series(S((1, 0, 0), (-2, 1, 2))) == "1 - 2*x*y^2"


def test_format_digits_control():
    s = S((1 / 3, 1, 0))
    assert format_series(s, digits=3) == "0.333*x"


def test_random_series_evaluation_linear_in_coefficients():
    rng = random.Random(7)
    for _ in range(20):
        a = random_series(rng)
        b = random_series(rng)
        x, y = rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)
        assert (a + b).evaluate(x, y) == pytest.approx(
            a.evaluate(x, y) + b.evaluate(x, y), rel=1e-10, abs=1e-12
        )
