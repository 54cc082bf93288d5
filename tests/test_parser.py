"""Expression grammar, error offsets, and display round-trips."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fracadm.parser import SeriesParseError, parse_series
from fracadm.series import FracSeries, FracTerm, format_series


def S(*terms):
    return FracSeries(FracTerm(c, px, py) for c, px, py in terms)


def test_basic_expressions():
    assert parse_series("1 + x") == S((1, 0, 0), (1, 1, 0))
    assert parse_series("-x") == S((-1, 1, 0))
    assert parse_series("2*x^1.5") == S((2, 1.5, 0))
    assert parse_series("0") == FracSeries()


def test_whitespace_insensitive():
    assert parse_series(" 1+2*x ^ 0.5 ") == parse_series("1 + 2 * x^0.5")


def test_star_is_optional():
    assert parse_series("2x") == parse_series("2*x")
    assert parse_series("3x y") == S((3, 1, 1))
    assert parse_series("xy") == S((1, 1, 1))


def test_repeated_variables_multiply():
    assert parse_series("x*x") == S((1, 2, 0))
    assert parse_series("x^0.5*x") == S((1, 1.5, 0))
    assert parse_series("x*y^2*x^0.25") == S((1, 1.25, 2))


def test_repeated_variable_exponents_add_as_decimals():
    # in binary 0.1 + 0.2 is 0.30000000000000004, another monomial than x^0.3
    assert parse_series("x^0.1*x^0.2 + x^0.3") == S((2, 0.3, 0))
    assert parse_series("y^0.7*y^0.2*x") == S((1, 1, 0.9))


def test_duplicate_monomials_merge():
    assert parse_series("x + x") == S((2, 1, 0))
    assert parse_series("x - x") == FracSeries()
    assert parse_series("1 + x - 1") == S((1, 1, 0))


def test_leading_sign_forms():
    assert parse_series("-1 + x") == S((-1, 0, 0), (1, 1, 0))
    assert parse_series("+x") == S((1, 1, 0))
    assert parse_series("- 2.5y") == S((-2.5, 0, 1))


def test_scientific_notation_coefficients():
    assert parse_series("1e-3*x") == S((1e-3, 1, 0))
    assert parse_series("2.5E2") == S((250.0, 0, 0))


def test_bare_number_and_variable():
    assert parse_series("7") == S((7, 0, 0))
    assert parse_series("y") == S((1, 0, 1))


@pytest.mark.parametrize(
    "text,offset_hint",
    [
        ("", 0),
        ("x +", 3),
        ("* x", 0),
        ("2 *", 3),
        ("x ^", 3),
        ("x z", 2),
        ("x 2", 2),
        ("1 + + x", 4),
    ],
)
def test_parse_errors_carry_offsets(text, offset_hint):
    with pytest.raises(SeriesParseError) as err:
        parse_series(text)
    assert err.value.offset == offset_hint


@pytest.mark.parametrize(
    "text,offset",
    [
        ("1e400", 0),
        ("x + 2e400*y", 4),
        ("x^1e400", 2),
        # each exponent is finite, their sum is not
        ("x^1e308*x^1e308", 0),
        ("1 + y^1e308*y^1e308", 4),
    ],
)
def test_non_finite_numbers_rejected(text, offset):
    with pytest.raises(SeriesParseError, match="out of range") as err:
        parse_series(text)
    assert err.value.offset == offset


@pytest.mark.parametrize(
    "text, key",
    [
        ("1e308*x + 1e308*x", "x^1.0*y^0.0"),
        ("1 - 1e308*x*y - 1e308*y*x", "x^1.0*y^1.0"),
    ],
)
def test_overflowing_merged_coefficient_rejected(text, key):
    # each literal is finite, the sum of the merged monomial is not
    with pytest.raises(SeriesParseError, match="overflows") as err:
        parse_series(text)
    assert f"coefficient of {key} overflows" in str(err.value)
    assert err.value.offset == 0


def test_negative_exponent_rejected():
    with pytest.raises(SeriesParseError) as err:
        parse_series("x^-1")
    assert "non-negative" in str(err.value)


def test_mid_expression_sign_on_number_rejected():
    with pytest.raises(SeriesParseError):
        parse_series("1 + -2*x")


_coeffs = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
).filter(lambda c: abs(c) > 1e-6)
# any non-negative exponent: display elides exactly 0.0 and prints exactly
# 1.0 bare, so an exponent next to 0 or to an integer keeps its own value
_expos = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 1e-13, 1.0 + 5e-13, 2.0 - 5e-13, 5e-324]),
    st.floats(min_value=0.0, max_value=9.0),
)


@st.composite
def grammar_series(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    return FracSeries(
        FracTerm(draw(_coeffs), draw(_expos), draw(_expos)) for _ in range(n)
    )


@given(grammar_series())
@example(FracSeries([FracTerm(1.0), FracTerm(2.0, 1e-13, 1.0 + 5e-13)]))
@example(FracSeries([FracTerm(-3.0, 2.0 - 5e-13), FracTerm(0.5, 1.0, 1e-13)]))
def test_display_round_trip(s):
    assert parse_series(format_series(s)) == s


@given(grammar_series())
def test_display_round_trip_is_stable(s):
    text = format_series(s)
    assert format_series(parse_series(text)) == text
