"""Recursion mechanics: polynomials, oracle agreement, solver invariants."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracadm import adm, series
from fracadm.adm import ProblemSpec, SolutionSeries, SolveError, solve
from fracadm.parser import parse_series
from fracadm.problems import ORDER_PAIRS, builtin_problem
from fracadm.series import Axis, FracSeries, FracTerm, caputo_deriv
from fracadm.gammafn import gamma_ratio
from helpers import assert_series_close, random_series
from oracles import (
    adomian_lambda_oracle,
    adomian_polynomial,
    nested_partial_sums_oracle,
    ordered_pairs_components,
    residual_oracle,
)

G = math.gamma


def S(*terms):
    return FracSeries(FracTerm(c, px, py) for c, px, py in terms)


def M(coeff, px=0.0, py=0.0):
    return FracSeries([FracTerm(coeff, px, py)])


def _bits(s):
    return [(t.coeff.hex(), t.px.hex(), t.py.hex()) for t in s.terms]


# -- problem validation --------------------------------------------------------


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.5), (1.2, 0.5), (0.5, 0.0), (0.5, -1.0)])
def test_problem_rejects_bad_orders(alpha, beta):
    with pytest.raises(ValueError):
        ProblemSpec(alpha, beta, S((1, 0, 0)), FracSeries(), 3)


def test_problem_rejects_y_dependence():
    with pytest.raises(ValueError):
        ProblemSpec(1.0, 1.0, S((1, 0, 1)), FracSeries(), 3)
    with pytest.raises(ValueError):
        ProblemSpec(1.0, 1.0, S((1, 1, 0)), S((1, 0, 0.5)), 3)


def test_problem_rejects_bad_depth():
    with pytest.raises(ValueError):
        ProblemSpec(1.0, 1.0, S((1, 1, 0)), FracSeries(), 0)


# -- Adomian polynomials ---------------------------------------------------------


def test_a0_of_linear_component():
    beta = 0.6
    a0 = adomian_polynomial([S((1, 1, 0))], 0, beta)
    assert len(a0) == 1
    assert a0.terms[0].px == pytest.approx(2.0 - beta)
    assert a0.terms[0].coeff == pytest.approx(gamma_ratio(2.0, 2.0 - beta), rel=1e-13)


def test_a0_of_constant_vanishes():
    assert adomian_polynomial([S((1, 0, 0))], 0, 0.5) == FracSeries()


def test_a1_matches_hand_expansion():
    rng = random.Random(11)
    u0, u1 = random_series(rng), random_series(rng)
    beta = 0.7
    hand = u0 * caputo_deriv(u1, beta, Axis.X) + u1 * caputo_deriv(u0, beta, Axis.X)
    assert_series_close(adomian_polynomial([u0, u1], 1, beta), hand, rel=1e-12)


def test_a2_matches_hand_expansion():
    rng = random.Random(12)
    u = [random_series(rng, max_terms=3) for _ in range(3)]
    beta = 0.45
    d = [caputo_deriv(ui, beta, Axis.X) for ui in u]
    hand = u[0] * d[2] + u[1] * d[1] + u[2] * d[0]
    assert_series_close(adomian_polynomial(u, 2, beta), hand, rel=1e-12)


def test_polynomial_depends_only_on_prefix():
    rng = random.Random(13)
    u = [random_series(rng, max_terms=3) for _ in range(5)]
    beta = 0.8
    assert adomian_polynomial(u[:3], 2, beta) == adomian_polynomial(u, 2, beta)


# -- A_n from unordered pairs ------------------------------------------------------


def _exact_bits(s):
    return [(c.hex(), Fraction(x, s._den), Fraction(y, s._den))
            for c, x, y in zip(s._coeffs, s._xs, s._ys)]


def _outcome(compute):
    """A series' coefficients as float.hex strings and its exact exponents, or
    the error."""
    return _value_or_error(lambda: _exact_bits(compute()))


def _value_or_error(compute):
    """compute(), or the type and message of the error it raises."""
    try:
        return compute()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _split_frame(components, beta):
    """A frame that holds the components, their derivatives and beta."""
    return series._frame([*components, M(1.0, beta)])


def _splits(components, beta):
    """The splits of the components as ``adm.solve`` forms them, their frame
    and beta's packed x-step."""
    frame = _split_frame(components, beta)
    shift = series._x_key(beta, *frame)
    return [adm._split(u, beta, frame) for u in components], frame, shift


def _paired_polynomial(components, n, beta):
    """A_n as ``adm.solve`` forms it, from the splits of u_0..u_n."""
    return adm._convolve(*_splits(components[: n + 1], beta))


@st.composite
def _convolution_cases(draw):
    """Components u_0..u_n, n and beta.  The x-exponents include 0, whose
    terms have no derivative, negative ones, and beta - 1, whose derivative
    coefficient 1/Gamma(0) is 0; tiny coefficients give products that
    underflow, huge ones products and sums that overflow."""
    beta, p_zero = draw(st.sampled_from(
        [(0.5, -0.5), (0.75, -0.25), (0.3, -0.7), (0.9, -0.1), (1.0, 0.0)]
    ))
    px = st.one_of(st.sampled_from([0.0, p_zero, -0.5, 0.5, 1.0, 2.0, 1.25]),
                   st.floats(min_value=-0.9, max_value=3.0))
    py = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.7]), st.floats(min_value=0.0, max_value=3.0))
    coeff = st.one_of(st.floats(min_value=-10.0, max_value=10.0),
                      st.sampled_from([1e-170, -3e-165, 5e-324, 1e200, -2e154]))
    n = draw(st.integers(min_value=0, max_value=5))
    terms = st.lists(st.builds(FracTerm, coeff, px, py), max_size=6)
    return [FracSeries(draw(terms)) for _ in range(n + 1)], n, beta


@settings(max_examples=300, deadline=None)
@given(_convolution_cases())
# n = 0: an x-constant, the beta - 1 term and two with derivatives
@example(([S((1, 0, 0), (2, -0.25, 0), (3, 1.5, 0.5), (-0.5, 2, 1))], 0, 0.75))
# n odd and even, with lone terms on both sides of a pair and on the diagonal
@example(([S((1, 0, 0), (1, 1, 0)), S((-1, 0, 1), (2, 0.5, 1)), S((3, 0, 2), (1, -0.5, 2))], 1, 0.5))
@example(([S((1, 0, 0), (1, 1, 0)), S((-1, 0, 1), (2, 0.5, 1)), S((3, 0, 2), (1, -0.5, 2))], 2, 0.5))
# products that underflow to 0 and to subnormals, and cancel in one cell
@example(([S((1e-170, 1, 0), (3e-160, 2, 0)), S((-1e-170, 1, 1), (1e-150, 0.5, 1))], 1, 1.0))
# x^1 gets 0.30000000000000004 twice and -0.6: rounding residue, dropped
@example(([S((1, 1, 0), (1, 2, 0)), S((-0.3, 0, 1), (0.1 + 0.2, 1, 1))], 1, 1.0))
# a cell whose products overflow to inf, and one that holds inf and -inf
@example(([S((1e200, 1, 0), (-1e200, 2, 0))], 0, 1.0))
def test_paired_polynomial_matches_the_ordered_pairs(case):
    components, n, beta = case
    want = _outcome(lambda: adomian_polynomial(components, n, beta))
    assert _outcome(lambda: _paired_polynomial(components, n, beta)) == want


def test_paired_polynomial_drops_rounding_residue():
    u = [S((1, 1, 0), (1, 2, 0)), S((-0.3, 0, 1), (0.1 + 0.2, 1, 1))]
    assert [t.px for t in _paired_polynomial(u, 1, 1.0)] == [0.0, 2.0]


def test_a_term_without_an_image_gets_zero():
    # 1 has no derivative, x^-0.25 at beta = 0.75 has 1/Gamma(0) = 0, and the
    # image of 5e-324*x^0.01 underflows: Gamma(1.01)/Gamma(0.26) is about 0.29
    u = S((1, 0, 0), (2, -0.25, 0), (5e-324, 0.01, 0), (3, 1.5, 0))
    du = caputo_deriv(u, 0.75, Axis.X)
    terms, imaged, u_max, d_max = adm._split(u, 0.75, series._frame([u, du]))
    assert [(c, d) for _, c, d in terms] == [(3.0, du._coeffs[0]), (2.0, 0.0), (1.0, 0.0), (5e-324, 0.0)]
    assert imaged == terms[:1] and len(imaged) == len(du) == 1
    assert (u_max, d_max) == (3.0, abs(du._coeffs[0]))


def _split_by_derivative(u, beta, frame):
    """The split as a solve formed it from the series D_x^beta u: each term's
    image looked up by its key less beta's x-step, or 0.0."""
    du = caputo_deriv(u, beta, Axis.X)
    shift = series._x_key(beta, *frame)
    u_terms, u_max = series._packed(u, *frame)
    d_terms, d_max = series._packed(du, *frame)
    images = dict(d_terms)
    terms = [(k, c, images.get(k - shift, 0.0)) for k, c in u_terms]
    if len(d_terms) < len(terms):  # those with an image first
        terms = [t for t in terms if t[2]] + [t for t in terms if not t[2]]
    return terms, terms[: len(d_terms)], u_max, d_max


def _split_bits(split):
    """A split with each float as float.hex, so that -0.0 is not 0.0."""
    terms, imaged, u_max, d_max = split
    return ([(k, c.hex(), d.hex()) for k, c, d in terms], [(k, c.hex(), d.hex()) for k, c, d in imaged],
            u_max.hex(), d_max.hex())


@settings(max_examples=300, deadline=None)
@given(_convolution_cases())
# a pole at x^-1 (Gamma(0)/Gamma(-0.5)), after terms that differentiate
@example(([S((1, 0, 0), (2, 0.5, 0), (3, -1, 1))], 0, 0.5))
# an image past the double range: 1e308 * Gamma(3)/Gamma(2) on x^1 at beta = 1
@example(([S((1, 0, 0), (1e308, 2, 0), (-1e308, 3, 1))], 0, 1.0))
# an image that underflows to 0 and one that is subnormal
@example(([S((5e-324, 0.01, 0), (-1e-320, 1.5, 0))], 0, 1.0))
def test_the_split_takes_each_image_from_the_power_rule(case):
    # bit for bit the split of the derivative series, or the same error
    components, _, beta = case
    frame = _split_frame(components, beta)
    for u in components:
        want = _value_or_error(lambda: _split_bits(_split_by_derivative(u, beta, frame)))
        assert _value_or_error(lambda: _split_bits(adm._split(u, beta, frame))) == want


@settings(max_examples=150, deadline=None)
@given(_convolution_cases())
# every term of u_0 without an image (p * 5e-324 underflows at beta = 1): the
# diagonal forms their squares and no product of two of them
@example(([S((5e-324, 0.001, 0), (5e-324, 0.002, 0), (5e-324, 0.005, 0), (2, 0, 0))], 0, 1.0))
@example(([S((1, 0, 0), (1, 1, 0)), S((-1, 0, 1), (2, 0.5, 1)), S((3, 0, 2), (1, -0.5, 2))], 2, 0.5))
# x^-d for a subnormal d at beta = 1: Gamma(-d) overflows, but the image
# coefficient Gamma(1)/Gamma(-d) = -d does not
@example(([S((1, -2.2250738585072034e-309, 0))], 0, 1.0))
def test_a_term_without_an_image_meets_only_imaged_terms(case):
    # the products _convolve forms: the counted ones, one zero with each
    # imaged term for a term without an image, and on the diagonal its square
    components, n, beta = case
    splits, frame, shift = _splits(components, beta)
    for (terms, imaged, _, _), u in zip(splits, components):
        assert len(imaged) == len(caputo_deriv(u, beta, Axis.X)) and imaged == terms[: len(imaged)]
        assert all(d for *_, d in imaged) and not any(d for *_, d in terms[len(imaged) :])
    lengths = [(len(t), len(m)) for t, m, _, _ in splits]
    want = sum(lu * mj + mi * (lj - mj) for (lu, mi), (lj, mj) in zip(lengths, reversed(lengths)))
    if n % 2 == 0:
        want += lengths[n // 2][0] - lengths[n // 2][1]
    with mock.patch.object(adm, "_merge", side_effect=lambda cells, *_: cells) as merge:
        adm._convolve(splits, frame, shift)
    assert sum(map(len, merge.call_args.args[0].values())) == want


# -- lambda oracle ---------------------------------------------------------------


def test_lambda_oracle_n0_is_plain_product():
    rng = random.Random(14)
    u0 = random_series(rng)
    pts = [(0.4, 0.3), (1.1, 0.7)]
    direct = u0 * caputo_deriv(u0, 0.5, Axis.X)
    for (x, y), val in zip(pts, adomian_lambda_oracle([u0], 0, 0.5, pts)):
        assert val == pytest.approx(direct.evaluate(x, y), abs=1e-12)


def test_lambda_oracle_zero_components():
    zeros = [FracSeries()] * 4
    assert adomian_lambda_oracle(zeros, 3, 0.5, [(0.5, 0.5)]) == [0.0]


def test_lambda_oracle_agrees_with_convolution():
    rng = random.Random(15)
    pts = [(rng.uniform(0.2, 1.2), rng.uniform(0.1, 0.9)) for _ in range(10)]
    for example, pair in [(1, (1.0, 1.0)), (4, (0.5, 0.5)), (4, (0.75, 0.75))]:
        sol = solve(builtin_problem(example, *pair, n_terms=6))
        for n in range(5):
            direct = adomian_polynomial(sol.components, n, pair[1])
            oracle = adomian_lambda_oracle(sol.components, n, pair[1], pts)
            for (x, y), val in zip(pts, oracle):
                assert val == pytest.approx(direct.evaluate(x, y), abs=1e-9)


# -- solver ---------------------------------------------------------------------


def test_solve_zeroth_components():
    rng = random.Random(16)
    for _ in range(10):
        alpha = rng.uniform(0.1, 1.0)
        x, y = rng.uniform(0.2, 1.4), rng.uniform(0.1, 1.1)
        u0_ex1 = solve(builtin_problem(1, alpha, 0.5, 1)).components[0]
        assert u0_ex1.evaluate(x, y) == pytest.approx(
            1.0 + x * y**alpha / G(1.0 + alpha), rel=1e-12
        )
        u0_ex2 = solve(builtin_problem(2, alpha, 0.5, 1)).components[0]
        assert u0_ex2.evaluate(x, y) == pytest.approx(
            -x + y**alpha / G(alpha + 1.0), rel=1e-12
        )


def test_solve_example4_classical_components():
    sol = solve(builtin_problem(4, 1.0, 1.0, 6))
    assert_series_close(sol.components[1], S((-1, 1, 1)), rel=1e-12)
    for n, u in enumerate(sol.components):
        assert_series_close(u, S(((-1.0) ** n, 1, n)), rel=1e-12)


def test_partial_sums_cached_and_consistent():
    sol = solve(builtin_problem(3, 0.75, 0.5, 5))
    acc = FracSeries()
    for n in range(1, 6):
        acc = acc + sol.components[n - 1]
        assert sol.partial_sum(n) == acc  # same fold order, bit-identical
    assert sol.partial_sum(1) == sol.components[0]
    with pytest.raises(IndexError):
        sol.partial_sum(0)
    with pytest.raises(IndexError):
        sol.partial_sum(6)


# examples 1-4 at the standard pairs, and the benchmark's first deep generic pair
@pytest.mark.parametrize(
    "example,pairs,depth",
    [(k, ORDER_PAIRS, 16) for k in (1, 2, 3, 4)]
    + [(1, ((0.897148293561466, 0.7433369009864794),), 40)],
)
def test_partial_sums_match_nested_fold(example, pairs, depth):
    for alpha, beta in pairs:
        try:
            sol = solve(builtin_problem(example, alpha, beta, depth))
        except SolveError as err:
            sol = err.solution  # the (0.75, 0.75) pole: u_0..u_4 still count
        nested = nested_partial_sums_oracle(sol.components)
        for n in range(1, len(sol.components) + 1):
            assert _bits(sol.partial_sum(n)) == _bits(nested[n - 1]), (alpha, beta, n)


def test_partial_sum_is_correctly_rounded():
    # the fold rounds 1e16 + 1 to 1e16 twice; one fsum rounds 1e16 + 2 once
    components = (M(1e16, 1.0), M(1.0, 1.0), M(1.0, 1.0))
    sol = SolutionSeries(components)
    assert sol.partial_sum(3) == M(1.0000000000000002e16, 1.0)
    assert nested_partial_sums_oracle(components)[2] == M(1e16, 1.0)


def test_partial_sum_overflow_names_component():
    components = (M(1e308, 1.0), M(1e308, 1.0))
    sol = SolutionSeries(components)
    assert sol.partial_sum(1) == components[0]
    with pytest.raises(SolveError) as err:
        sol.partial_sum(2)
    assert err.value.depth == 1
    assert str(err.value).startswith("component u_1: ")
    assert "overflow" in str(err.value)
    assert err.value.solution == SolutionSeries(components[:1])


def test_deep_partial_sums_keep_their_constant_term():
    # Phi_50 has coefficients up to 2e17; a drop cutoff relative to the
    # largest one deleted its constant term and printed -0.0079675
    phi = solve(builtin_problem(4, 0.5, 1.0, 50)).partial_sum(50)
    assert phi.evaluate(1.0, 0.1) == pytest.approx(0.7671901, abs=1e-6)
    # two deep generic pairs printed -3.2e-30 and -9.5e-22 where u is near 1
    for alpha, beta, value in (
        (0.4525175241105589, 0.6466404870016967, 1.0134648),
        (0.5679258844476471, 0.5730997272665646, 1.0064212),
    ):
        phi = solve(builtin_problem(1, alpha, beta, 40)).partial_sum(40)
        assert phi.evaluate(0.3, 0.001) == pytest.approx(value, abs=1e-6)


def test_partial_sum_example4_depth2():
    sol = solve(builtin_problem(4, 1.0, 1.0, 2))
    assert_series_close(sol.partial_sum(2), S((1, 1, 0), (-1, 1, 1)), rel=1e-12)


def test_depth_locality():
    for example in (1, 2, 3, 4):
        shallow = solve(builtin_problem(example, 0.5, 0.5, 4))
        deep = solve(builtin_problem(example, 0.5, 0.5, 5))
        assert deep.components[:4] == shallow.components  # bit-identical


def test_component_y_exponents_grow():
    for example in (1, 2, 3, 4):
        for alpha, beta in ((0.5, 0.5), (0.75, 0.75), (1.0, 1.0), (0.3, 0.9)):
            n_terms = 4 if beta == 0.75 else 6
            sol = solve(builtin_problem(example, alpha, beta, n_terms))
            for n, u in enumerate(sol.components):
                for t in u:
                    assert t.py >= -1e-12
                    assert t.py >= n * alpha - 1e-12
                if n > 0 and u:
                    assert min(t.py for t in u) > 0.0


def test_solve_error_carries_depth():
    # u_0 = x^-0.5 gives u_1 ~ x^-2 y, whose formal derivative needs the
    # non-representable Gamma(-1)/Gamma(-2) coefficient
    problem = ProblemSpec(0.5, 1.0, S((1, -0.5, 0)), FracSeries(), 4)
    with pytest.raises(SolveError) as err:
        solve(problem)
    assert err.value.depth == 2


def test_solve_error_carries_finished_components():
    problem = builtin_problem(1, 0.75, 0.75, 6)
    with pytest.raises(SolveError) as err:
        solve(problem)
    assert err.value.depth == 5
    done = err.value.solution
    shallow = solve(builtin_problem(1, 0.75, 0.75, 5))
    assert done.components == shallow.components
    assert done.partial_sum(5) == shallow.partial_sum(5)
    assert done == shallow


def test_solve_error_at_u0_carries_no_components():
    # u_0 = 1 + 1.7e308 * y^0.5 / Gamma(1.5), and the coefficient is past the
    # double range
    problem = ProblemSpec(0.5, 1.0, parse_series("1"), parse_series("1.7e308"), 3)
    with pytest.raises(SolveError) as err:
        solve(problem)
    assert err.value.depth == 0
    assert err.value.solution == SolutionSeries(())
    assert str(err.value) == "component u_0: coefficient of x^0.0*y^0.5 is inf"


@pytest.mark.parametrize(
    "problem, depth",
    [
        # A_0 overflows on x^2
        (ProblemSpec(1.0, 1.0, S((1e154, 1, 0), (6e153, 2, 0)), FracSeries(), 3), 1),
        # the Caputo pole of the x^-1 chain
        (builtin_problem(1, 0.75, 0.75, 8), 5),
        # the exact pole at Gamma(-6)
        (builtin_problem(1, 0.6, 0.9, 14), 11),
    ],
    ids=["u_1", "u_5", "u_11"],
)
def test_failed_solve_carries_a_shallower_solve(problem, depth):
    with pytest.raises(SolveError) as err:
        solve(problem)
    assert err.value.depth == depth
    alpha, beta, ic, forcing, _ = problem
    assert err.value.solution == solve(ProblemSpec(alpha, beta, ic, forcing, depth))


def test_solve_overflow_error_carries_depth():
    # u_0 = a*x + b*x^2 puts 2ab and ab on x^2 in A_0; their sum overflows
    problem = ProblemSpec(1.0, 1.0, S((1e154, 1, 0), (6e153, 2, 0)), FracSeries(), 3)
    with pytest.raises(SolveError) as err:
        solve(problem)
    assert err.value.depth == 1
    assert "overflow" in str(err.value)
    assert "coefficient of x^2.0*y^0.0 overflows" in str(err.value)
    assert err.value.solution.components == (problem.ic,)


def test_solve_opposite_infinities_carry_depth():
    # A_0 puts inf and -inf on x^2, which fsum refuses as a ValueError
    ic = S((10, 0, 0), (1e154, 1, 0), (-1e200, 2, 0), (5e307, 3, 0))
    problem = ProblemSpec(1.0, 1.0, ic, FracSeries(), 2)
    with pytest.raises(SolveError, match=r"^component u_1: .* is nan$") as err:
        solve(problem)
    assert err.value.depth == 1
    assert err.value.solution.components == (problem.ic,)


# -- one packing frame per solve ---------------------------------------------------

_DEEP_PAIR = (0.897148293561466, 0.7433369009864794)
_FRAME_SOLVES = {
    **{
        f"ex{k}@{a}": builtin_problem(k, a, a, 20)
        for k in (1, 2, 3, 4)
        for a in (0.5, 0.75, 1.0)
    },
    "ex1@deep": builtin_problem(1, *_DEEP_PAIR, 40),
    "custom@deep": ProblemSpec(*_DEEP_PAIR, parse_series("1 + x"), parse_series("1"), 20),
}
_frame_solves = pytest.mark.parametrize(
    "problem", list(_FRAME_SOLVES.values()), ids=list(_FRAME_SOLVES)
)


def _components(problem):
    try:
        return solve(problem).components
    except SolveError as err:  # the (0.75, 0.75) pole of examples 1-3 at u_5
        return err.solution.components


@_frame_solves
def test_component_y_exponents_within_the_frame_bound(problem):
    # py(u_n) <= (2n+1) * alpha, which sizes the frame's y field
    alpha = Fraction(repr(problem.alpha))
    for n, u in enumerate(_components(problem)):
        assert Fraction(max(u._ys, default=0), u._den) <= (2 * n + 1) * alpha


def test_the_frame_bound_is_reached():
    u = _components(_FRAME_SOLVES["ex1@deep"])[20]
    assert Fraction(max(u._ys), u._den) == 41 * Fraction(repr(_DEEP_PAIR[0]))


def _spy_packing(monkeypatch):
    """The series that each later sum, product or split packs, once per packing."""
    packed = []
    pack = series._packed

    def spy(s, den, width):
        if s._packed is None or s._packed[:2] != (den, width):
            packed.append(s)  # held, so that no two entries share an id
        return pack(s, den, width)

    monkeypatch.setattr(series, "_packed", spy)
    monkeypatch.setattr(adm, "_packed", spy)  # the split of each component
    return packed


@_frame_solves
def test_a_solve_frames_once_and_packs_each_series_once(problem, monkeypatch):
    frames = mock.Mock(wraps=series._frame)
    monkeypatch.setattr(series, "_frame", frames)
    solve_frames = mock.Mock(wraps=adm._solve_frame)
    monkeypatch.setattr(adm, "_solve_frame", solve_frames)
    # the split takes each term's image from the power rule: no D_x^beta u_n
    # series is formed, through adm or through series
    assert not hasattr(adm, "caputo_deriv")
    derive = mock.Mock(wraps=series.caputo_deriv)
    monkeypatch.setattr(series, "caputo_deriv", derive)
    packed = _spy_packing(monkeypatch)
    components = _components(problem)
    assert (frames.call_count, solve_frames.call_count, derive.call_count) == (0, 1, 0)
    ids = list(map(id, packed))
    assert len(set(ids)) == len(ids)
    # u_0..u_{N-2}, each exactly once; u_{N-1} is never split
    assert set(map(id, components[:-1])) <= set(ids)


@_frame_solves
def test_the_solve_frame_holds_every_component_and_derivative(problem):
    den, width = adm._solve_frame(problem)
    components = _components(problem)
    derivs = [caputo_deriv(u, problem.beta, Axis.X) for u in components[:-1]]
    assert all(den % s._den == 0 for s in components + tuple(derivs))
    assert width >= series._frame(components + tuple(derivs))[1]


@_frame_solves
def test_one_frame_per_solve_matches_a_frame_per_call(problem):
    # the reference recursion forms each A_n over the ordered pairs, each sum
    # and product in a frame of its own
    expect = ordered_pairs_components(problem)
    assert list(map(_bits, _components(problem))) == list(map(_bits, expect))


# the 16 deep_generic solves of the benchmark, built as its argvs build them
_POOL_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
_POOL = {
    f"{kind}@{alpha}": (
        builtin_problem(1, alpha, beta, 40)
        if kind == "example"
        else ProblemSpec(alpha, beta, parse_series("1 + x"), parse_series("1"), 20)
    )
    for kind, alpha, beta in json.loads(_POOL_PATH.read_text())["generic_pool"]
}


# (examples 1-4 at the ORDER_PAIRS are _FRAME_SOLVES, checked the same way above)
@pytest.mark.parametrize("problem", list(_POOL.values()), ids=list(_POOL))
def test_components_match_the_ordered_pairs_recursion(problem):
    expect = ordered_pairs_components(problem)
    assert list(map(_exact_bits, _components(problem))) == list(map(_exact_bits, expect))


def test_partial_sums_pack_each_component_once(monkeypatch):
    sol = solve(_FRAME_SOLVES["ex1@deep"])
    packed = _spy_packing(monkeypatch)
    phis = [sol.partial_sum(n) for n in range(1, len(sol.components) + 1)]
    # at most once each: a component the solve packed in an equal frame is not
    # packed again
    ids = list(map(id, packed))
    assert len(set(ids)) == len(ids)
    assert set(ids) <= set(map(id, sol.components))
    assert phis[-1] == nested_partial_sums_oracle(sol.components)[-1]


def _reach_problem(n_terms):
    # u_0 = 1 + y^0.3 / Gamma(1.3) has no x, so every pair counts as one product
    return ProblemSpec(0.3, 0.5, parse_series("1"), parse_series("1"), n_terms)


@pytest.mark.parametrize("budget", [1, 6, 9, 5050])
def test_the_frame_stops_at_the_deepest_component_the_budget_allows(budget):
    with _budget(budget):
        with pytest.raises(SolveError) as err:
            solve(_reach_problem(10**9))
        depth = err.value.depth
        assert adm._solve_frame(_reach_problem(10**9)) == adm._solve_frame(_reach_problem(depth))
    # at the real budget, 1 + 2 + ... + 1731 products reach u_1731
    assert adm._solve_frame(_reach_problem(10**9)) == adm._solve_frame(_reach_problem(1732))


# -- the scaling symmetry ---------------------------------------------------------
# If u solves the problem with data (f, g), then 2^k u(x, 2^(k/alpha) y) solves
# it with data (2^k f, 2^(2k) g), and the recursion keeps this term by term:
# the coefficient of x^p y^q in u_n scales by 2^k * 2^(kq/alpha), q/alpha an
# integer.  Each float multiply and fsum commutes with a power-of-two scale
# away from the ends of the double range, and the drop rule with it.


def _scaled_problem(problem, k):
    """The problem with ic scaled by 2^k and the forcing by 2^(2k), exactly."""
    alpha, beta, ic, forcing, n_terms = problem

    def scaled(s, e):
        return FracSeries._lattice(tuple(math.ldexp(c, e) for c in s._coeffs), s._xs, s._ys, s._den)

    return ProblemSpec(alpha, beta, scaled(ic, k), scaled(forcing, 2 * k), n_terms)


def _solve_outcome(problem):
    """The components a solve finishes, and the message of its SolveError or None."""
    try:
        return solve(problem).components, None
    except SolveError as err:
        return err.solution.components, str(err)


def _assert_scales(problem, k):
    components, failure = _solve_outcome(problem)
    scaled, scaled_failure = _solve_outcome(_scaled_problem(problem, k))
    assert scaled_failure == failure  # names the same component
    assert len(scaled) == len(components)
    alpha = Fraction(repr(problem.alpha))
    for u, w in zip(components, scaled):
        assert [Fraction(n, w._den) for n in w._xs + w._ys] == [Fraction(n, u._den) for n in u._xs + u._ys]
        for c, q, c_w in zip(u._coeffs, u._ys, w._coeffs):
            m = Fraction(q, u._den) / alpha
            assert m.denominator == 1
            assert c_w.hex() == math.ldexp(c, k + k * m.numerator).hex()


_symmetry_orders = st.one_of(
    st.sampled_from([0.3, 0.45, 0.5, 0.6, 0.75, 0.743, 0.897, 0.9, 1.0]),
    st.floats(min_value=0.1, max_value=1.0),
)
# x-exponents are 0 or at least 0.01.  One next to 0 makes an image
# coefficient about that small (p * x^(p-1) at beta = 1, 1/Gamma(p) next to
# the pole), and at 5e-324 products underflow and ldexp rounds: past the end
# of the double range, where the symmetry need not hold bit for bit (two such
# inputs are pinned below).  Over 1,500 draws of this domain every
# coefficient of both solves lay in 1.3e-33 .. 6.4e31.
_symmetry_terms = st.lists(st.builds(
    FracTerm,
    st.one_of(st.floats(min_value=0.1, max_value=4.0), st.floats(min_value=-4.0, max_value=-0.1)),
    st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0]), st.floats(min_value=0.01, max_value=3.0)),
), max_size=4)


@settings(max_examples=100, deadline=None)
@given(
    _symmetry_orders,
    _symmetry_orders,
    _symmetry_terms.filter(bool),
    _symmetry_terms.map(lambda ts: ts[:3]),
    st.integers(min_value=2, max_value=10),
    st.sampled_from([-3, -2, -1, 1, 2, 3]),
)
def test_solve_keeps_the_scaling_symmetry(alpha, beta, ic, forcing, n_terms, k):
    _assert_scales(ProblemSpec(alpha, beta, FracSeries(ic), FracSeries(forcing), n_terms), k)


def _exact_terms(s):
    """{(px, py) as exact fractions: coefficient} of a series."""
    return {(Fraction(x, s._den), Fraction(y, s._den)): c for c, x, y in zip(s._coeffs, s._xs, s._ys)}


# An exponent of 5e-324 makes an image coefficient about 5e-324 times a
# normal one, and the symmetry breaks where coefficients turn subnormal.
@pytest.mark.parametrize("problem, ks", [
    # p * x^(p-1) at beta = 1: u_1 is subnormal
    (ProblemSpec(0.3, 1.0, S((1, 0, 0)), S((1, 5e-324, 0)), 2), (1, -3)),
    # 1/Gamma(5e-324) at beta = 0.5: u_2 holds a subnormal term, and at depth
    # 4 both solves fail at u_3, naming gamma_ratio(5e-324, -0.5) or, where
    # that term underflowed to 0, gamma_ratio(1e-323, -0.5)
    (ProblemSpec(0.3, 0.5, S((1, 0, 0), (1, 5e-324, 0)), FracSeries(), 3), (1, -3, 3)),
    (ProblemSpec(0.3, 0.5, S((1, 0, 0), (1, 5e-324, 0)), FracSeries(), 4), (1, -3, 3)),
], ids=["beta=1", "beta=0.5,depth=3", "beta=0.5,depth=4"])
def test_subnormal_coefficients_break_only_their_own_scaling(problem, ks):
    # what holds there: the same components finish and fail, each component
    # before the first subnormal coefficient scales bit for bit, and so does
    # every coefficient normal in both solves; a subnormal one does not
    alpha = Fraction(repr(problem.alpha))
    components, failure = _solve_outcome(problem)
    for k in ks:
        scaled, scaled_failure = _solve_outcome(_scaled_problem(problem, k))
        assert len(scaled) == len(components)
        assert (scaled_failure or "").split(":")[0] == (failure or "").split(":")[0]
        pairs = list(zip(components, scaled))
        first = min(n for n, (u, w) in enumerate(pairs) if min(map(abs, u._coeffs + w._coeffs), default=1.0) < 2.0**-1022)
        same = []
        for u, w in pairs:
            got = _exact_terms(w)
            want = {(p, q): math.ldexp(c, k + k * int(q / alpha)) for (p, q), c in _exact_terms(u).items()}
            normal = [key for key in want.keys() & got.keys() if min(abs(want[key]), abs(got[key])) >= 2.0**-1022]
            assert [got[key] for key in normal] == [want[key] for key in normal]
            same.append(got == want)
        assert all(same[:first]) and not all(same)


@pytest.mark.parametrize("pair", [(0.5, 0.5), (0.75, 0.75), (1.0, 1.0), (0.897, 0.743),
                                  (0.6, 0.9), (0.3, 0.45)], ids=str)
@pytest.mark.parametrize("example", [1, 2, 3, 4])
def test_the_examples_keep_the_scaling_symmetry(example, pair):
    # at (0.75, 0.75) examples 1-3 fail at u_5 in both solves
    for k in (1, -2, 3):
        _assert_scales(builtin_problem(example, *pair, 16), k)


@pytest.mark.parametrize("example", [1, 2, 3])
def test_the_u5_pole_keeps_its_message(example):
    with pytest.raises(SolveError) as err:
        solve(builtin_problem(example, 0.75, 0.75, 8))
    assert str(err.value) == "component u_5: gamma_ratio numerator has a pole at z = 0.0"


# -- the work budget --------------------------------------------------------------

# u_0 = 1 + x and D_x u_0 = 1: A_0 forms 2 x 1 raw products.  u_1 = -y - x*y and
# D_x u_1 = -y: A_1 forms 2 x 1 + 2 x 1 more, 6 in all
_BUDGET_PROBLEM = ProblemSpec(1.0, 1.0, S((1, 0, 0), (1, 1, 0)), FracSeries(), 3)


def _budget(value):
    return mock.patch.object(adm, "_WORK_BUDGET", value)


def test_solve_over_budget_raises_with_its_count():
    with _budget(5), mock.patch.object(adm, "_convolve", wraps=adm._convolve) as products:
        with pytest.raises(
            SolveError,
            match=r"^component u_2: would take the solve to 6 raw products, "
            r"past its budget of 5$",
        ):
            solve(_BUDGET_PROBLEM)
    # A_0 was formed; A_1, which would pass the budget, was not
    assert products.call_count == 1


def test_solve_at_exactly_the_budget_passes():
    with _budget(6):
        sol = solve(_BUDGET_PROBLEM)
    assert sol.components[2] == S((1, 0, 2), (1, 1, 2))


@pytest.mark.parametrize("budget, depth", [(1, 1), (5, 2)])
def test_solve_budget_error_carries_depth(budget, depth):
    with _budget(budget), pytest.raises(SolveError) as err:
        solve(_BUDGET_PROBLEM)
    assert err.value.depth == depth
    alpha, beta, ic, forcing, _ = _BUDGET_PROBLEM
    assert err.value.solution == solve(ProblemSpec(alpha, beta, ic, forcing, depth))


def test_a_pair_with_no_products_counts_as_one():
    # D_x 1 = 0, so u_1, u_2, ... are 0 and no A_n has a product; A_n's n + 1
    # pairs count one each, 1 + 2 + 3 + 4 = 10 up to u_4, and u_5 would make 15
    ic = S((1, 0, 0))
    with _budget(10), pytest.raises(
        SolveError,
        match=r"^component u_5: would take the solve to 15 raw products, "
        r"past its budget of 10$",
    ) as err:
        solve(ProblemSpec(1.0, 1.0, ic, FracSeries(), 50))
    assert err.value.solution.components == (ic,) + (FracSeries(),) * 4


# -- residual ---------------------------------------------------------------------


def test_residual_zero_problem():
    problem = ProblemSpec(0.5, 0.5, FracSeries(), FracSeries(), 1)
    sol = solve(problem)
    assert residual_oracle(problem, sol.partial_sum(1), [(0.3, 0.2), (1.0, 0.5)]) == 0.0


def test_residual_of_u0_is_a0():
    problem = builtin_problem(3, 0.6, 0.7, 1)
    sol = solve(problem)
    u0 = sol.components[0]
    a0 = adomian_polynomial([u0], 0, 0.7)
    for pt in [(0.3, 0.1), (0.8, 0.4), (1.2, 0.9)]:
        assert residual_oracle(problem, u0, [pt]) == pytest.approx(
            abs(a0.evaluate(*pt)), rel=1e-12
        )


def test_residual_example4_closed_form():
    # for the classical geometric solution the residual of Phi_n is exactly
    # x*y^(n-1) * (n*(1+y) + y*(1-y^n)) / (1+y)^2
    for n in (4, 8):
        problem = builtin_problem(4, 1.0, 1.0, n)
        phi = solve(problem).partial_sum(n)
        for x, y in [(0.5, 0.5), (0.3, 0.1), (0.1, 0.4)]:
            closed = x * y ** (n - 1) * (n * (1 + y) + y * (1 - y**n)) / (1 + y) ** 2
            got = residual_oracle(problem, phi, [(x, y)])
            assert got == pytest.approx(closed, rel=1e-10)


def test_residual_small_y_bound_example4():
    problem = builtin_problem(4, 1.0, 1.0, 8)
    phi = solve(problem).partial_sum(8)
    pts = [(x, y) for x in (0.1, 0.3, 0.5) for y in (0.1, 0.2, 0.3)]
    assert residual_oracle(problem, phi, pts) <= 1e-3


def test_residual_monotone_at_small_y():
    pts = [(x, y) for x in (0.3, 0.6, 0.9) for y in (0.01, 0.05, 0.1)]
    for example in (1, 2, 3, 4):
        problem = builtin_problem(example, 1.0, 1.0, 8)
        sol = solve(problem)
        values = [
            residual_oracle(problem, sol.partial_sum(n), pts) for n in range(1, 8)
        ]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-15
