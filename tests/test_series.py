"""Series algebra, fractional operators, and the quadrature cross-check."""

import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fracadm import series
from fracadm.adm import ProblemSpec, solve
from fracadm.gammafn import gamma_ratio
from fracadm.parser import parse_series
from fracadm.series import (
    Axis,
    EvaluationDomainError,
    FracSeries,
    FracTerm,
    NonIntegrableTermError,
    caputo_deriv,
    _normalize,
    format_series,
    rl_integral,
    sum_of_products,
)
from helpers import assert_series_close, random_series
from oracles import (
    caputo_quadrature_oracle,
    exact_exponent,
    pointwise_evaluate_oracle,
    sort_merge_normalize_oracle,
)

X, Y = Axis.X, Axis.Y


def S(*terms):
    return FracSeries(FracTerm(c, px, py) for c, px, py in terms)


def M(coeff, px=0.0, py=0.0):
    return FracSeries.monomial(coeff, px, py)


# -- normalization and plain algebra ----------------------------------------


def test_normalize_merges_duplicates():
    assert S((1, 1, 0), (2, 1, 0)) == S((3, 1, 0))


def test_normalize_drops_zero_terms():
    assert S((0, 2, 0)) == FracSeries.zero()
    assert not S((0, 2, 0))


def test_drop_rule_is_four_ulps_of_the_magnitudes():
    # |coefficients| sum to just under 4, where an ulp is 2**-51: a residue
    # of 4 ulps is dropped, one of 5 ulps is kept
    for k, kept in ((4, 0), (5, 1)):
        s = S((2.0, 0.5, 0), (-2.0 + k * 2.0**-51, 0.5, 0))
        assert [t.coeff for t in s] == [k * 2.0**-51] * kept


def test_drop_rule_scales_among_subnormals():
    # two equal terms do not cancel, however small; and a residue of one
    # unit in a subnormal magnitude sum is far above its 4 ulps
    for c in (5e-324, 1.5e-323):
        assert [t.coeff for t in S((c, 0, 0), (c, 0, 0))] == [2 * c]
    assert [t.coeff for t in S((1.5e-323, 0, 0), (-1e-323, 0, 0))] == [5e-324]


def test_single_terms_are_never_dropped():
    # the old cutoff was 1e-15 times the largest coefficient, or 1e-15
    for c in (1e-16, 1e-300, 5e-324, -5e-324):
        assert [t.coeff for t in M(c, 1.0)] == [c]
    assert len(S((1000, 0, 0), (1e-13, 2, 0))) == 2
    assert len(S((1e20, 0, 0), (1.0, 1, 0)).mul(S((1e20, 0, 0), (1.0, 2, 0)))) == 4


def test_normalize_cancellation():
    assert S((1, 0.5, 1), (-1, 0.5, 1)) == FracSeries.zero()


def test_normalize_is_idempotent():
    s = S((2, 0.5, 0), (-1, 1, 2), (3, 0.5, 0))
    assert FracSeries(s.terms) == s


def _bits(terms):
    return [(float(t.coeff).hex(), float(t.px).hex(), float(t.py).hex()) for t in terms]


def test_normalize_merges_equal_decimals_only():
    # 1e-14 apart: distinct decimals stay distinct terms
    s = S((1, 1.0, 2.0), (1, 1.0 + 1e-14, 2.0 - 1e-14))
    assert _bits(s) == _bits([FracTerm(1.0, 1.0, 2.0), FracTerm(1.0, 1.0 + 1e-14, 2.0 - 1e-14)])
    # 0.1 + 0.2 prints as 0.30000000000000004, another decimal than 0.3
    assert len(S((1, 0.3, 0), (1, 0.1 + 0.2, 0))) == 2


def test_exponent_sums_are_exact_decimals():
    # 3 x 0.1 = 0.3, where 0.1 + 0.1 + 0.1 != 0.3 in binary
    cube = M(1.0, 0.1).mul(M(1.0, 0.1)).mul(M(1.0, 0.1))
    assert _bits(cube + M(1.0, 0.3)) == _bits(M(2.0, 0.3))
    # 10 x 0.9 = 9
    power = M(1.0)
    for _ in range(10):
        power = power.mul(M(1.0, 0.9))
    assert _bits(power + M(1.0, 9.0)) == _bits(M(2.0, 9.0))
    # beta = 1 meets an input exponent 1: D^1 x^2 = 2x merges with x
    assert _bits(caputo_deriv(M(1.0, 2.0), 1.0, X) + M(1.0, 1.0)) == _bits(M(3.0, 1.0))
    # beta = 0.9 takes x^1.9 exactly to x^1 (1.9 - 0.9 != 1 in binary)
    d = caputo_deriv(M(1.0, 1.9), 0.9, X)
    assert [t.px for t in d] == [1.0]
    assert len(d + M(1.0, 1.0)) == 1
    # alpha = beta = 0.5 on one axis: J^0.5 then D^0.5 returns to y^1 exactly
    round_trip = caputo_deriv(rl_integral(M(1.0, 0.0, 1.0), 0.5, Y), 0.5, Y)
    assert [(t.px, t.py) for t in round_trip] == [(0.0, 1.0)]
    # beta = 0.1 three times takes x^0.3 exactly to a constant, which then vanishes
    s = M(1.0, 0.3)
    for _ in range(3):
        s = caputo_deriv(s, 0.1, X)
    assert [t.px for t in s] == [0.0]
    assert caputo_deriv(s, 0.1, X) == FracSeries.zero()


# Exponents that stress exact merging: both zeros, decimals whose binary
# sums differ from their decimal sums (0.1 + 0.2 against 0.3), decimals
# 4e-17 and 1e-14 apart, and generic floats.
_exp_bases = st.sampled_from(
    [0.0, -0.0, 0.1, 0.2, 0.3, 0.1 + 0.2, 0.3 + 1e-14, 0.7, 0.9, 1.0, -1.25, 2.0]
)
_exponents = st.one_of(_exp_bases, st.floats(min_value=-3.0, max_value=3.0))
_raw_coeffs = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3),
    st.sampled_from([0.0, -0.0, 1e-16, -1e-16, 1e-12]),
)
_raw_terms = st.lists(st.builds(FracTerm, _raw_coeffs, _exponents, _exponents), max_size=40)


@settings(max_examples=300, deadline=None)
@given(_raw_terms)
# the zero exponent is one key, however it is spelled
@example([FracTerm(1.0, 0.0, 1.0), FracTerm(1.0, -0.0, 1.0)])
# an exact cancellation, rounding residue (0.1 + 0.2 - 0.3 is 2.8e-17 in
# binary), and a pair that leaves more than rounding residue
@example([FracTerm(0.1, 0.3, 0.0), FracTerm(-0.1, 0.3, 0.0), FracTerm(1e-12, 0.7, 0.0), FracTerm(-1e-12 + 1e-20, 0.7, 0.0)])
@example([FracTerm(0.1, 0.9, 1.0), FracTerm(0.2, 0.9, 1.0), FracTerm(-0.3, 0.9, 1.0)])
def test_normalize_matches_sort_and_merge(terms):
    assert _bits(_normalize(terms)) == _bits(sort_merge_normalize_oracle(terms))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_raw_terms.map(lambda ts: ts[:12]), _raw_terms), max_size=4))
def test_sum_of_products_normalizes_all_raw_products_once(pairs):
    series_pairs = [(FracSeries(a), FracSeries(b)) for a, b in pairs]
    raw = [
        FracTerm(
            s.coeff * t.coeff,
            exact_exponent(s.px) + exact_exponent(t.px),
            exact_exponent(s.py) + exact_exponent(t.py),
        )
        for a, b in series_pairs
        for s in a
        for t in b
    ]
    got = sum_of_products(series_pairs).terms
    assert _bits(got) == _bits(sort_merge_normalize_oracle(raw))


@settings(max_examples=200, deadline=None)
@given(_raw_terms, st.randoms(use_true_random=False))
def test_normalize_is_permutation_invariant(terms, rnd):
    shuffled = list(terms)
    rnd.shuffle(shuffled)
    assert _bits(FracSeries(shuffled)) == _bits(FracSeries(terms))


@settings(max_examples=200, deadline=None)
@given(_raw_terms, st.integers(min_value=-99, max_value=99))
# twelve zeros and the smallest subnormal: math.ulp of the magnitudes stops
# shrinking there, and a rule built on it dropped this cell but kept it x8
@example([FracTerm(0.0)] * 12 + [FracTerm(5e-324)], 3)
def test_scale_by_power_of_two_commutes_with_normalization(terms, k):
    # 2**k with |k| <= 99 spans [1.6e-30, 6.3e29] and scales every normal
    # value exactly; a subnormal scaled down may round, and then the two
    # orders round different sums
    c = 2.0**k
    scaled = [FracTerm(c * t.coeff, t.px, t.py) for t in terms]
    assume(all(s.coeff / c == t.coeff for s, t in zip(scaled, terms)))
    assert _bits(FracSeries(scaled)) == _bits(FracSeries(terms).scale(c))


_int_coeffs = st.integers(min_value=-20, max_value=20).map(float)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.builds(FracTerm, _int_coeffs, _exp_bases, _exp_bases), max_size=40),
    st.floats(min_value=1e-30, max_value=1e30),
)
def test_scale_commutes_with_normalization(terms, c):
    # Integer coefficients sum exactly, so every cluster either cancels
    # exactly (scaled, rounding residue that the drop rule removes) or sums
    # to at least 1 in 800: the same terms survive at any scale, and their
    # coefficients agree to the rounding of c * n_i.
    scaled = FracSeries(FracTerm(c * t.coeff, t.px, t.py) for t in terms)
    expect = FracSeries(terms).scale(c)
    assert [(t.px, t.py) for t in scaled] == [(t.px, t.py) for t in expect]
    for got, want in zip(scaled, expect):
        assert got.coeff == pytest.approx(want.coeff, rel=1e-11)


def test_sum_of_products_merges_across_products():
    # 3 x 100 x 100 raw products of x^0..x^99 merge onto x^0..x^198
    big = FracSeries(FracTerm(1.0, float(i), 0.0) for i in range(100))
    assert len(sum_of_products([(big, big)] * 3)) == 199


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


@settings(max_examples=300, deadline=None)
@given(_raw_terms)
@example([FracTerm(1.0, -0.0, 0.0), FracTerm(-2.0, 1.0, -0.0), FracTerm(0.0, 2.0, 0.0)])
# three exponents 0.9e-12 apart stay three terms; negation keeps all three
@example([FracTerm(1.0, 1.0, 0.0), FracTerm(1.0, 1.0 + 0.9e-12, 0.0), FracTerm(1.0, 1.0 + 1.8e-12, 0.0)])
def test_negation_is_scale_by_minus_one(terms):
    s = FracSeries(terms)

    def bits(series):
        return [(t.coeff.hex(), t.px.hex(), t.py.hex()) for t in series.terms]

    assert bits(-s) == bits(s.scale(-1.0))


def test_mul_examples():
    assert S((1, 1, 0)) * S((1, 1, 0)) == S((1, 2, 0))
    assert S((1, 0, 0), (1, 1, 0)) * S((1, 0, 0), (-1, 1, 0)) == S((1, 0, 0), (-1, 2, 0))
    assert S((1, 0.5, 0)) * S((2, 0, 0.5)) == S((2, 0.5, 0.5))


def test_plain_value_types():
    # a term is a named tuple whose exponents default to 0; an axis is the
    # string naming its variable
    t = FracTerm(2.0, py=0.5)
    assert (t.coeff, t.px, t.py) == (2.0, 0.0, 0.5)
    assert t == (2.0, 0.0, 0.5)
    assert (Axis.X, Axis.Y) == ("x", "y")


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


# -- grid evaluation against the pointwise oracle -----------------------------


def _outcome(compute):
    """Values as float.hex strings (so -0.0 and nan compare), or the error."""
    try:
        return [v.hex() for v in compute()]
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _grid_vs_oracle(s, xs, ys):
    got = _outcome(lambda: s.evaluate_grid(xs, ys))
    want = _outcome(lambda: [pointwise_evaluate_oracle(s, x, y) for y in ys for x in xs])
    return got, want


# Exponents at 0 and at integers, others 1e-13 or 5e-13 from them (which are
# used as they are: only 0.0 is dropped, and a negative base takes only whole
# exponents), negative ones and generic ones; terms are taken as given
# (duplicates, any order), with coefficients large enough for fsum to
# overflow or meet inf - inf.
_grid_exponents = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 1e-13, -1e-13, 1.0, 2.0, 3.0, -1.0, -2.5, 0.5,
         1.0 + 5e-13, 2.0 - 5e-13, 1.0 + 2e-12]
    ),
    st.floats(min_value=-3.0, max_value=3.0),
)
_grid_coeffs = st.one_of(
    st.floats(min_value=-10.0, max_value=10.0),
    st.sampled_from([0.0, -0.0, 1e308, -1e308]),
)
_grid_series = st.lists(
    st.builds(FracTerm, _grid_coeffs, _grid_exponents, _grid_exponents), max_size=12
).map(lambda terms: FracSeries._from_normalized(tuple(terms)))
_grid_xs = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, -0.5, -1.0, -2.0, 1e200, -1e200]),
        st.floats(min_value=-3.0, max_value=3.0),
    ),
    max_size=8,
)
_grid_ys = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 1e200, -0.25]),
        st.floats(min_value=0.0, max_value=3.0),
    ),
    max_size=6,
)


@settings(max_examples=400, deadline=None)
@given(_grid_series, _grid_xs, _grid_ys, st.sampled_from([1, 2, 3, 256]))
def test_evaluate_grid_matches_pointwise_oracle(s, xs, ys, block_rows):
    # small blocks make the grid wider than one block of x rows
    with mock.patch.object(series, "_GRID_BLOCK_TERMS", block_rows * len(s)):
        got, want = _grid_vs_oracle(s, xs, ys)
    assert got == want


def test_evaluate_grid_wider_than_one_block():
    rng = random.Random(7)
    s = random_series(rng, max_terms=8)
    xs = [rng.uniform(0.0, 2.0) for _ in range(2 * 256 + 17)]
    ys = [0.0, 0.3, 1.1]
    with mock.patch.object(series, "_GRID_BLOCK_TERMS", 256 * len(s)):
        got, want = _grid_vs_oracle(s, xs, ys)
    assert got == want
    assert len(got) == len(xs) * len(ys)


def test_evaluate_grid_memory_is_bounded_by_held_products():
    # x rows of a long series are held a block of products at a time: on 2,000
    # terms x 256 x values tracemalloc measured a peak of 15.9 MiB holding 256
    # whole x rows, and 4.1 MiB holding 65,536 products
    s = FracSeries(FracTerm(1.0, k / 1000) for k in range(2000))
    xs = [0.5 + k / 4096 for k in range(256)]
    tracemalloc.start()
    try:
        got = s.evaluate_grid(xs, [0.1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert got[::85] == [pointwise_evaluate_oracle(s, x, 0.1) for x in xs[::85]]


def test_evaluate_grid_reads_the_lattice():
    # the float view of the terms is built only when a point fails
    s = S((1, 0.5, 0), (2, 1, 0.3), (-1, 0.5, 0.3))
    got = s.evaluate_grid([0.3, 0.6], [0.0, 0.1])
    assert s._terms is None
    assert got == [pointwise_evaluate_oracle(s, x, y) for y in (0.0, 0.1) for x in (0.3, 0.6)]


def test_evaluate_grid_empty_axes():
    s = S((1, 0, 0))
    assert s.evaluate_grid([], [0.1]) == []
    assert s.evaluate_grid([0.1], []) == []
    assert s.evaluate_grid([], [-1.0]) == []  # errors arise at points only


@pytest.mark.parametrize(
    "terms, xs, ys",
    [
        # x = 0 with a negative px, after a good point
        (((1, 1, 0), (1, -0.5, 0)), (0.5, 0.0), (0.1,)),
        # negative x with a non-integer px
        (((1, 2, 0), (1, 0.5, 0)), (0.3, -0.4), (0.1,)),
        # y < 0 fails before any term
        (((1, -1, 0),), (0.5, 0.0), (0.1, -0.2)),
        # y = 0 with a negative py; term order decides between x and y
        (((1, 0, -1), (1, -1, 0)), (0.0,), (0.0,)),
        (((1, -1, 0), (1, 0, -1)), (0.0,), (0.0,)),
        # a power that overflows comes before a later term's domain error
        (((1, 2, 0), (1, -1, 0)), (0.0, 1e200), (0.5,)),
        (((1, 2, 0), (1, 0, -1)), (1e200,), (0.0,)),
        # fsum overflows partway through a point, before a later term's
        # power fails at the same point
        (((1e308, 0, 0), (1e308, 0, 0), (1, 0, -1)), (0.0,), (0.0,)),
        # fsum meets inf - inf
        (((1e308, 1, 0), (-1e308, 2, 0)), (0.5, 3.0), (1.0,)),
        # fsum overflows at (1, 0) in row order; x block (2.0,) meets
        # inf - inf at (2, 2) first, and must not win
        (((1e308, 1, 0), (-1e308, 0, 1), (1e308, 0, 0)), (2.0, 1.0), (0.0, 2.0)),
    ],
)
def test_evaluate_grid_raises_like_first_failing_point(terms, xs, ys):
    s = FracSeries._from_normalized(tuple(FracTerm(*t) for t in terms))
    for block_rows in (1, 256):
        with mock.patch.object(series, "_GRID_BLOCK_TERMS", block_rows * len(s)):
            got, want = _grid_vs_oracle(s, xs, ys)
        assert isinstance(want, tuple), "case must fail"
        assert got == want


def test_evaluate_grid_two_failure_grid_reports_first_point():
    # (x=0, y=0.1) meets x^-2.5 before (x=0.5, y=-0.2) is reached
    sol = solve(ProblemSpec(0.6, 0.7, parse_series("1+x"), parse_series("1"), 6))
    phi = sol.partial_sum(6)
    with pytest.raises(EvaluationDomainError, match=r"^x = 0 with negative exponent -2\.5$"):
        phi.evaluate_grid((0.5, 0.0), (0.1, -0.2))
    got, want = _grid_vs_oracle(phi, (0.5, 0.0), (0.1, -0.2))
    assert got == want


def test_merge_rejects_non_finite_coefficients():
    big = S((1e200, 1, 0))
    with pytest.raises(OverflowError, match="inf"):
        big.mul(big)
    with pytest.raises(OverflowError, match="nan"):
        S((float("nan"), 1, 0))
    # fsum refuses inf + -inf; the cell is non-finite like any other
    with pytest.raises(OverflowError, match=r"x\^1\.0\*y\^0\.0 is nan"):
        S((float("inf"), 1, 0), (float("-inf"), 1, 0))
    # finite terms whose sum fsum cannot hold: the key is named all the same
    with pytest.raises(OverflowError, match=r"^coefficient of x\^1\.0\*y\^0\.0 overflows$"):
        S((1e308, 1, 0), (1e308, 1, 0))


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
    with pytest.raises(NonIntegrableTermError, match="exponent -1.5 on axis y is not"):
        rl_integral(S((1, 0, -1.5)), 0.5, Y)


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
