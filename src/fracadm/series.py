"""Finite generalized power series in x and y with fractional calculus rules.

The universal value type is :class:`FracSeries`: a normalized, immutable
sum of monomials ``c * x**px * y**py`` whose exponents are arbitrary reals
(py stays >= 0 in solver output; px may go negative at fractional orders).
On top of the plain algebra (add, negate, Cauchy product) the module
provides the two operators the solver is built from:

* ``caputo_deriv`` -- term-wise Caputo fractional derivative,
* ``rl_integral`` -- term-wise Riemann-Liouville fractional integral,

both reduced to the power rule ``x**p -> Gamma(p+1)/Gamma(p+1 -+ order)
* x**(p -+ order)``.  The test suite validates the power rule against the
Caputo integral definition evaluated by adaptive quadrature
(``tests/oracles.py``), so the runtime needs nothing beyond the standard
library.

Exponents are exact.  A float exponent or order stands for the decimal its
``repr`` prints, and a series keeps every exponent as an integer numerator
over one power-of-ten denominator, so sums and shifts of exponents are
integer additions and two monomials merge exactly when their exponents are
equal decimals (``0.3`` and three times ``0.1`` do; ``0.3`` and
``0.3 + 1e-14`` do not).  The float exponents of ``FracSeries.terms`` and
the gamma arguments of the operators are rounded once, from those exact
values.  Evaluation and display use those floats as they are, so
``x^1e-13`` is not the constant ``1``.

Sums and products are normalized once over all their raw terms by
``sum_series``; a product is the sum of one factor scaled and shifted by
each term of the other (``_products``).  Each raw term's exponents are
packed into one integer key in a frame ``(den, width)``, the coefficients
are gathered per key, and ``_merge`` takes one fsum per key in key order.
A series keeps its packed terms and its largest |coefficient| for the last
frame it was packed in, so callers that fix one frame, as ``adm.solve``
does for a whole solve, pack each series once.  The merge screens each
cell of several terms by one magnitude bound per call before the exact
cancellation test; the screen never changes a decision.  A cell's merged
coefficient does not depend on the order of its floats: where an fsum
overflows partway, the exact sum decides (``_exact_sum``).  So
``adm.solve`` can put the two raw products u_i[a] * D_x^beta u_j[b] and
u_j[b] * D_x^beta u_i[a], which share one key because D_x^beta shifts every
x-exponent by the same -beta, into one cell by one lookup, and get the A_n
that one ``sum_series`` of ``_products`` over the ordered pairs gets.
The operators compute one gamma ratio per distinct exponent on their axis.

Evaluation groups the terms by their exponent on the axis with fewer
distinct ones, and sums each group's terms before it multiplies by that
variable's power (``FracSeries.evaluate``).  A grid then costs one factor
row per x value, one per y value, and an fsum over the groups per point.
"""

import math
import operator
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat

from .gammafn import gamma_ratio

__all__ = [
    "Axis",
    "FracTerm",
    "FracSeries",
    "EvaluationDomainError",
    "NonIntegrableTermError",
    "caputo_deriv",
    "rl_integral",
    "sum_series",
    "format_series",
    "DROP_ULPS",
]

# A merged coefficient of several terms is cancellation residue, and dropped,
# when it is at most this many ulps of the sum of their magnitudes (an ulp
# of a magnitude in [2**(e-1), 2**e) taken as 2**(e-53), subnormal or not).
DROP_ULPS = 4
# Every finite double is a whole number of units of 2**-1074.
_UNIT_BITS = 1074
_UNIT_SCALE = 1 << _UNIT_BITS
# evaluate_grid builds factor rows for at most this many values times terms
# at a time, and for at least one value.
_GRID_BLOCK_TERMS = 65_536


class Axis:
    """The two variables, as the strings the operators and messages use."""

    X = "x"
    Y = "y"


class EvaluationDomainError(ValueError):
    """Evaluation point outside the domain of some monomial."""


class NonIntegrableTermError(ValueError):
    """Fractional integral applied to an exponent <= -1 on that axis."""


FracTerm = namedtuple("FracTerm", "coeff px py", defaults=(0.0, 0.0))
FracTerm.__doc__ = "One monomial coeff * x**px * y**py."


# -- exact exponents -------------------------------------------------------


def _decimal(value: float) -> tuple[int, int]:
    """(n, d) with n / d the decimal ``repr(value)`` prints, d a power of ten.

    Integer arithmetic on the repr string; ``fractions`` would do the same
    but costs every CLI start an import of ``decimal`` and ``numbers``.
    """
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"exponent must be finite, got {value!r}")
    digits, _, expo = repr(value).partition("e")
    whole, _, frac = digits.partition(".")
    frac = frac.rstrip("0")
    places = len(frac) - int(expo or 0)
    n = int(whole + frac)
    if places <= 0:
        return n * 10**-places, 1
    return n, 10**places


def _decimal_sum(values: Iterable[float]) -> float:
    """The float nearest the exact sum of the decimals the values print as."""
    parts = [_decimal(v) for v in values]
    den = max((d for _, d in parts), default=1)
    return sum(n * (den // d) for n, d in parts) / den


def _frame(series: Sequence["FracSeries"]) -> tuple[int, int]:
    """(den, width) to pack these series' exponents, and sums of two of them.

    ``den`` is the largest denominator, a multiple of every other one.  A
    packed key is ``(x << width) + y`` with x and y numerators over ``den``;
    the y field is signed and wide enough that a sum of two keys never
    carries into x, so adding keys adds exponents, and keys sort like
    ``(x, y)`` pairs.  This is the default frame of one sum or product;
    ``adm.solve`` fixes one frame for all of its own, so that each series is
    packed once.
    """
    den = max([s._den for s in series], default=1)
    y_max = max([s._y_max * (den // s._den) for s in series], default=0)
    return den, _width(y_max)


def _width(y_max: int) -> int:
    """The key width whose y field holds a sum of two |y| numerators <= y_max."""
    return (2 * y_max).bit_length() + 1


def _packed(s: "FracSeries", den: int, width: int) -> tuple[tuple[tuple[int, float], ...], float]:
    """s's (packed key, coefficient) pairs in this frame, and its largest
    |coefficient|; s keeps the last ones."""
    packed = s._packed
    if packed is not None and packed[0] == den and packed[1] == width:
        return packed[2]
    f = den // s._den
    keys = [(x * f << width) + y * f for x, y in zip(s._xs, s._ys)]
    packing = tuple(zip(keys, s._coeffs)), max(map(abs, s._coeffs), default=0.0)
    object.__setattr__(s, "_packed", (den, width, packing))
    return packing


def _x_key(order: float, den: int, width: int) -> int:
    """The x-exponent ``order`` as a packed key in a frame whose den is a
    multiple of order's: shifting every x-exponent by -order takes each key
    k to k less this, as ``caputo_deriv`` on x does."""
    n, d = _decimal(order)
    return n * (den // d) << width


def _overflow(what: str, x: int, y: int, den: int) -> OverflowError:
    # the drop rule would compare inf or nan and keep or drop it silently
    return OverflowError(f"coefficient of x^{x / den!r}*y^{y / den!r} {what}")


def _exact_sum(cell: list[float]) -> float:
    """The sum of a cell whose fsum overflowed partway, whatever its order.

    Which partial sum of fsum overflows depends on the order: 1e308 + 1e308
    - 1e308 fails, 1e308 - 1e308 + 1e308 does not.  Here the finite floats
    are summed exactly and rounded once by int true division, which raises
    OverflowError only past the double range; an inf or nan in the cell
    decides the sum, as in fsum, and inf with -inf makes nan.
    """
    if not all(map(math.isfinite, cell)):
        return sum(c for c in cell if not math.isfinite(c))
    return _units(cell) / _UNIT_SCALE


def _magnitude_exponent(cell: list[float]) -> int:
    """e with fsum(|cell|) = m * 2**e, 1/2 <= m < 1; from the exact sum's
    bit length where that fsum overflows (every float in it is finite)."""
    try:
        return math.frexp(math.fsum(map(abs, cell)))[1]
    except OverflowError:
        return _units(map(abs, cell)).bit_length() - _UNIT_BITS


def _units(values: Iterable[float]) -> int:
    """The exact sum of finite floats, in units of 2**-1074."""
    total = 0
    for c in values:
        n, d = c.as_integer_ratio()
        total += n * (_UNIT_SCALE // d)
    return total


def _merge(cells: dict[int, list[float]], den: int, width: int, bound: float) -> "FracSeries":
    """The normalized series of packed-key cells: one fsum per key, in key order.

    A cell of several coefficients is dropped when its sum is within
    DROP_ULPS ulps of the sum of their magnitudes, which is what rounding
    leaves of terms that cancel; a single coefficient is dropped only when
    it is zero.  The rule never looks at other keys, and it compares
    exponents, not math.ulp, whose fixed floor among subnormals would make
    it depend on scale there; so it depends neither on the scale of the
    series nor on the order of its terms.  ``bound`` is at least the
    magnitude of every coefficient in the cells, as a float: the caller's
    one bound serves only to skip the exact test where it cannot drop,
    and each keep-or-drop decision is still made per key, by that test.
    """
    half = 1 << (width - 1)
    full = half << 1
    coeffs, xs, ys = [], [], []
    for key in sorted(cells):
        cell = cells[key]
        x, y = divmod(key + half, full)
        y -= half
        try:
            coeff = math.fsum(cell)
        except OverflowError:  # a partial sum overflowed, in this order
            try:
                coeff = _exact_sum(cell)
            except OverflowError:  # finite terms whose exact sum is past the range
                raise _overflow("overflows", x, y, den) from None
        except ValueError:  # fsum refuses a cell holding both inf and -inf
            coeff = math.nan
        if not math.isfinite(coeff):
            raise _overflow(f"is {coeff!r}", x, y, den)
        if coeff == 0.0 or (
            len(cell) > 1
            # The screen never changes a decision.  With F = fsum(|cell|) =
            # m * 2**e, 1/2 <= m < 1, a drop means |coeff| <= DROP_ULPS *
            # 2**(e-53) <= 2 * DROP_ULPS * 2**-53 * F.  Each |c| <= bound, so
            # F <= fl(len * bound) = t by monotone rounding, and ulp(t) >
            # 2**-53 * t for every finite t >= 0, subnormal or 0: a drop
            # passes the screen with a factor of 2 to spare (t = inf passes
            # every cell on to the exact test; it is inf wherever F would
            # overflow, and there e comes from the exact sum).
            and abs(coeff) <= 4 * DROP_ULPS * math.ulp(len(cell) * bound)
            and math.ldexp(abs(coeff), 53 - _magnitude_exponent(cell)) <= DROP_ULPS
        ):
            continue
        coeffs.append(coeff)
        xs.append(x)
        ys.append(y)
    return FracSeries._lattice(tuple(coeffs), tuple(xs), tuple(ys), den)


def _normalize(terms: Iterable[FracTerm]) -> "FracSeries":
    # the raw terms as one unmerged series, then one merge
    return sum_series((FracSeries._from_normalized(terms),))


def sum_series(
    series: Iterable["FracSeries"], frame: tuple[int, int] | None = None
) -> "FracSeries":
    """The sum of the series, normalized once over all their terms.

    ``frame`` is the (den, width) to pack them in, ``_frame(series)`` by
    default; a wider one that holds them all gives the same sum.
    """
    series = tuple(series)
    den, width = frame or _frame(series)
    cells: dict[int, list[float]] = {}
    get = cells.get
    bound = 0.0
    for s in series:
        terms, c_max = _packed(s, den, width)
        if c_max > bound:  # not max(): a call per series shows on long scans
            bound = c_max
        for key, c in terms:
            cell = get(key)
            if cell is None:
                cells[key] = [c]
            else:
                cell.append(c)
    return _merge(cells, den, width, bound)


def _products(a: "FracSeries", b: "FracSeries") -> Iterator["FracSeries"]:
    """The raw products of a and b as one series per term c * x^p * y^q of a,
    in term order: b's terms, each coefficient d as ``c * d``, shifted by
    (p, q), over ``max(a._den, b._den)``; unmerged, as ``sum_series`` takes
    them."""
    den = max(a._den, b._den)
    fa, fb = den // a._den, den // b._den
    xs, ys = [x * fb for x in b._xs], [y * fb for y in b._ys]
    for c, p, q in zip(a._coeffs, a._xs, a._ys):
        p, q = p * fa, q * fa
        yield FracSeries._lattice(
            tuple(c * d for d in b._coeffs), tuple(x + p for x in xs), tuple(y + q for y in ys), den
        )


class FracSeries:
    """Immutable normalized sum of FracTerm monomials.

    The constructor *is* the normalization: terms with equal exact exponents
    are merged by one fsum, sorted lexicographically by (px, py), and
    cancellation residue and zeros are dropped.  The empty series is the
    zero series.  A series is its coefficients and the exact numerators of
    its exponents over one denominator, and two series are equal when those
    are; ``terms`` is a float view of that, built each time it is asked for.
    """

    __slots__ = ("_coeffs", "_xs", "_ys", "_den", "_y_max", "_packed")

    def __new__(cls, terms: Iterable[FracTerm] = ()):
        return _normalize(terms)

    def __setattr__(self, name, value):
        raise AttributeError("FracSeries is immutable")

    @classmethod
    def _lattice(
        cls,
        coeffs: tuple[float, ...],
        xs: tuple[int, ...],
        ys: tuple[int, ...],
        den: int,
    ) -> "FracSeries":
        """A series of normalized terms coeffs[i] * x^(xs[i]/den) * y^(ys[i]/den)."""
        s = object.__new__(cls)
        init = object.__setattr__
        init(s, "_coeffs", coeffs)
        init(s, "_xs", xs)
        init(s, "_ys", ys)
        init(s, "_den", den)
        init(s, "_y_max", max(map(abs, ys), default=0))
        init(s, "_packed", None)
        return s

    @classmethod
    def _from_normalized(cls, terms: Iterable[FracTerm]) -> "FracSeries":
        """A series of exactly these terms: no merge, no drop, no reordering."""
        terms = tuple(terms)
        px = [_decimal(t.px) for t in terms]
        py = [_decimal(t.py) for t in terms]
        den = max((d for _, d in px + py), default=1)
        return cls._lattice(
            tuple(float(t.coeff) for t in terms),
            tuple(n * (den // d) for n, d in px),
            tuple(n * (den // d) for n, d in py),
            den,
        )

    @property
    def terms(self) -> tuple[FracTerm, ...]:
        """The terms with float exponents, each rounded once from its exact value."""
        d = self._den
        return tuple(FracTerm(c, x / d, y / d) for c, x, y in zip(self._coeffs, self._xs, self._ys))

    # -- container protocol --------------------------------------------------

    def __iter__(self) -> Iterator[FracTerm]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FracSeries)
            and self._coeffs == other._coeffs
            and [n * other._den for n in self._xs + self._ys]
            == [n * self._den for n in other._xs + other._ys]
        )

    def __hash__(self) -> int:
        # equal exact exponents round to equal floats
        return hash(self.terms)

    def __repr__(self) -> str:
        return f"FracSeries({format_series(self)})"

    def __str__(self) -> str:
        return format_series(self)

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "FracSeries") -> "FracSeries":
        if not isinstance(other, FracSeries):
            return NotImplemented
        return sum_series((self, other))

    def __neg__(self) -> "FracSeries":
        # the drop rule is symmetric in sign: negated, the terms need no new merge
        return FracSeries._lattice(
            tuple(-c for c in self._coeffs), self._xs, self._ys, self._den
        )

    def __sub__(self, other: "FracSeries") -> "FracSeries":
        if not isinstance(other, FracSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "FracSeries") -> "FracSeries":
        if not isinstance(other, FracSeries):
            return NotImplemented
        return self.mul(other)

    def mul(self, other: "FracSeries") -> "FracSeries":
        """Full Cauchy product: the sum of other scaled and shifted by each
        term of self, normalized once over all of its raw terms."""
        return sum_series(_products(self, other))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x: float, y: float) -> float:
        """The value at (x, y): the fsum over groups g of ``S_g * v**g``.

        The grouping variable v is the axis with fewer distinct exact
        exponents (y on a tie), and w is the other one.  The terms whose
        v-exponent is g form group g, and S_g is the fsum of ``coeff * w**p``
        over them, in term order; groups come in ascending order of g.
        Powers are taken at the float exponents of ``terms``, with 0**0 = 1.
        The grouping depends only on the series, so a grid's points share
        each x and y value's factors: ``evaluate_grid`` equals this bit for
        bit.  A term meets two powers (each within an ulp), two multiplies
        and its group's fsum, and the value one more fsum, so to first order
        the value is within 8 * 2**-53 * sum(|terms|) of the exact sum.

        y must be >= 0, 0 has no negative powers and a negative x only
        integer ones; otherwise EvaluationDomainError.  A value that is not
        finite raises OverflowError.  A failing point raises what the
        term-order sum of ``coeff * x**px * y**py`` raises there, if that
        fails too: the first failing power in term order names itself.
        """
        return self.evaluate_grid((x,), (y,))[0]

    def evaluate_grid(self, xs: Iterable[float], ys: Iterable[float]) -> list[float]:
        """``[self.evaluate(x, y) for y in ys for x in xs]``, bit for bit.

        Each x value gets one factor row, each y value one, each built by
        ``_Factors.row`` one value at a time, and each point is one ``fsum``
        of their products.  Rows are held for at most ``_GRID_BLOCK_TERMS``
        values times terms at a time, and for at least one value: the x
        values a block at a time, and the y values once per call if they fit
        in a block's room, else once per block of x values.  A point that
        fails gets nan, and a failing grid raises what its first non-finite
        point in row order raises.
        """
        xs, ys = tuple(xs), tuple(ys)
        if not xs or not ys:
            return []
        x_factors, y_factors = _grouped(self)
        nx, ny = len(xs), len(ys)
        out = [0.0] * (nx * ny)
        block = max(1, _GRID_BLOCK_TERMS // max(1, len(self._coeffs)))
        y_rows = _factor_rows(y_factors, ys) if ny <= block else None
        for x0 in range(0, nx, block):
            x_rows = _factor_rows(x_factors, xs[x0 : x0 + block])
            for y0 in range(0, ny, block):
                rows = y_rows or _factor_rows(y_factors, ys[y0 : y0 + block])
                for iy, y_row in enumerate(rows, y0):
                    at = iy * nx + x0
                    out[at : at + len(x_rows)] = _dots(x_rows, y_row, ys[iy])
        if not all(map(math.isfinite, out)):
            i = list(map(math.isfinite, out)).index(False)
            raise self._failure(xs[i % nx], ys[i // nx], x_factors, y_factors)
        return out

    def _failure(self, x: float, y: float, x_factors: "_Factors", y_factors: "_Factors") -> Exception:
        """The error of (x, y), a point whose value fails."""
        if y < 0.0:
            return EvaluationDomainError(f"y must be >= 0, got {y!r}")
        d = self._den
        try:
            value = math.fsum(
                c * _power(x, n / d, "x") * _power(y, m / d, "y")
                for c, n, m in zip(self._coeffs, self._xs, self._ys)
            )
            if math.isfinite(value):  # no power fails: a sum does
                value = math.fsum(map(operator.mul, x_factors.row(x), y_factors.row(y)))
        except (ArithmeticError, ValueError) as exc:
            return exc
        return OverflowError(f"value at x = {x!r}, y = {y!r} is {value!r}")


def _power(base: float, expo: float, var: str) -> float:
    # the exponent is exact: only 0.0 is 0, and only whole floats are integers
    if expo == 0.0:
        return 1.0  # includes the 0**0 = 1 convention
    if base == 0.0:
        if expo > 0.0:
            return 0.0
        raise EvaluationDomainError(f"{var} = 0 with negative exponent {expo!r}")
    if base < 0.0 and not expo.is_integer():
        raise EvaluationDomainError(
            f"{var} = {base!r} < 0 with non-integer exponent {expo!r}"
        )
    try:
        return math.pow(base, expo)
    except OverflowError:  # math.pow's own message names nothing
        raise OverflowError(f"{var} = {base!r} with exponent {expo!r} overflows") from None


class _Factors:
    """The factor rows of one variable: its powers at ``exponents``, or,
    with ``coeffs``, per term i ``coeffs[i] * value**exponents[slots[i]]``,
    where ``groups`` holds the slice of terms in each group, in group order,
    or is None for a group per term.

    A value's row holds, per group, the fsum of its terms; a group of one
    term is that term.  Without ``coeffs`` (the grouping variable) the row
    is the powers themselves.  Powers are math.pow's: where ``_power``
    raises, math.pow raises too or, at a base of -inf, gives a value that
    is not finite, and the sign of a zero power or factor never reaches a
    point's value, whose fsum drops zeros.  ``row`` raises if a power or an
    fsum does.
    """

    def __init__(self, exponents: list[float], coeffs: Sequence[float] | None = None,
                 slots: Sequence[int] = (), groups: list[slice] | None = None):
        self.exponents = exponents
        self.coeffs = coeffs
        self.slots = slots
        self.groups = groups

    def row(self, value: float) -> list[float]:
        powers = list(map(math.pow, [value] * len(self.exponents), self.exponents))
        if self.coeffs is None:
            return powers
        products = list(map(operator.mul, self.coeffs, map(powers.__getitem__, self.slots)))
        if self.groups is None:
            return products
        return list(map(math.fsum, map(products.__getitem__, self.groups)))


def _grouped(s: FracSeries) -> tuple[_Factors, _Factors]:
    """The x and y factors of s, grouped as ``FracSeries.evaluate`` says: the
    grouping variable's factors are its powers at the group exponents."""
    by_x = len(set(s._xs)) < len(set(s._ys))
    on, off, coeffs = (s._xs, s._ys, s._coeffs) if by_x else (s._ys, s._xs, s._coeffs)
    if any(map(operator.gt, on, on[1:])):  # sort the terms by on, stably
        order = sorted(range(len(on)), key=on.__getitem__)
        on, off, coeffs = (list(map(seq.__getitem__, order)) for seq in (on, off, coeffs))
    groups = list(dict.fromkeys(on))
    slices = None
    if len(groups) < len(on):
        starts, i = [], 0
        for g in groups:  # each group is a run of on
            i = on.index(g, i)
            starts.append(i)
        slices = list(map(slice, starts, [*starts[1:], len(on)]))
    index = dict(zip(dict.fromkeys(off), range(len(off))))
    d = s._den
    w = _Factors([p / d for p in index], coeffs, list(map(index.__getitem__, off)), slices)
    v = _Factors([g / d for g in groups])
    return (v, w) if by_x else (w, v)


def _factor_rows(factors: _Factors, values: Sequence[float]) -> list[list[float]]:
    """The row of each value, and a row of nans for each value where that fails."""
    return _each(lambda some: list(map(factors.row, some)), values,
                 [math.nan] * len(factors.groups or factors.coeffs or factors.exponents))


def _dots(x_rows: list[Sequence[float]], y_row: Sequence[float], y: float) -> list[float]:
    """The fsum of each x row times the y row, as one ``map`` over the rows:
    nan where that fails, or y < 0."""
    if y < 0.0:
        return [math.nan] * len(x_rows)
    return _each(lambda rows: list(map(math.fsum, map(map, repeat(operator.mul), rows, repeat(y_row)))),
                 x_rows, math.nan)


def _each(f, items: Sequence, failed) -> list:
    """``f(items)``, a list of one result per item; where that raises,
    ``f`` of each item alone, and ``failed`` for an item where that raises."""
    try:
        return f(items)
    except (ArithmeticError, ValueError):
        out = []
        for item in items:
            try:
                out += f((item,))
            except (ArithmeticError, ValueError):
                out.append(failed)
        return out


# -- fractional operators ------------------------------------------------


def _ordered(
    coeffs: Sequence[float], on: Sequence[int], off: Sequence[int], den: int, axis: Axis
) -> FracSeries:
    """The normalized series of distinct, ordered terms, by exponents on and off axis.

    Nothing merges, so, as in a merge, zeros are dropped and a non-finite
    coefficient raises.
    """
    xs, ys = (on, off) if axis == Axis.X else (off, on)
    kept = []
    for c, x, y in zip(coeffs, xs, ys):
        if not math.isfinite(c):
            raise _overflow(f"is {c!r}", x, y, den)
        if c != 0.0:
            kept.append((c, x, y))
    coeffs, xs, ys = zip(*kept) if kept else ((), (), ())
    return FracSeries._lattice(coeffs, xs, ys, den)


def _power_rule(s: FracSeries, order: float, axis: Axis, sign: int):
    """``_ordered``'s arguments for the power rule of order on one axis, sign
    -1 for a derivative and +1 for an integral: each term c * x^p becomes
    c * Gamma(p+1)/Gamma(p+1+sign*order) * x^(p+sign*order), in term order,
    and a derivative maps an axis constant to 0.0."""
    n, d = _decimal(order)
    den = max(s._den, d)
    f = den // s._den
    xs, ys = s._xs, s._ys
    if f != 1:
        xs, ys = [x * f for x in xs], [y * f for y in ys]
    on, off = (xs, ys) if axis == Axis.X else (ys, xs)
    step = sign * n * (den // d)
    ratios = {}
    for p in dict.fromkeys(on):  # in term order: the first failing term raises
        p1 = p + den
        if sign > 0 and p1 <= 0:
            raise NonIntegrableTermError(
                f"exponent {p / den!r} on axis {axis} is not integrable"
            )
        ratios[p] = gamma_ratio(p1 / den, (p1 + step) / den) if p or sign > 0 else 0.0
    coeffs = list(map(operator.mul, s._coeffs, map(ratios.__getitem__, on)))
    return coeffs, [p + step for p in on], off, den, axis


def caputo_deriv(s: FracSeries, order: float, axis: Axis) -> FracSeries:
    """Term-wise Caputo fractional derivative of order in (0, 1] on one axis.

    Constants on the axis vanish; every other exponent p (negative ones
    included, formally) maps to Gamma(p+1)/Gamma(p+1-order) * x**(p-order).
    Both gamma arguments are rounded once from exact values, so a pole is
    hit exactly when one is a non-positive integer.  Terms that share an
    exponent share its gamma ratio, and a failing one raises for the first
    term in term order that holds it.
    """
    if not 0.0 < order <= 1.0:
        raise ValueError(f"Caputo order must be in (0, 1], got {order!r}")
    return _ordered(*_power_rule(s, order, axis, -1))


def rl_integral(s: FracSeries, order: float, axis: Axis) -> FracSeries:
    """Term-wise Riemann-Liouville fractional integral of positive order.

    One gamma ratio per distinct exponent, as in ``caputo_deriv``; the first
    term in term order whose exponent is <= -1 raises NonIntegrableTermError.
    """
    if order <= 0.0:
        raise ValueError(f"integral order must be > 0, got {order!r}")
    return _ordered(*_power_rule(s, order, axis, 1))


# -- display ---------------------------------------------------------------


def _term_body(t: FracTerm, digits: int) -> str:
    parts = [f"{abs(t.coeff):.{digits}g}"]
    for var, expo in (("x", t.px), ("y", t.py)):
        if expo == 1.0:
            parts.append(var)
        elif expo != 0.0:
            parts.append(f"{var}^{expo:.{digits}g}")
    return "*".join(parts)


def format_series(s: FracSeries, digits: int = 17) -> str:
    """Render as ``c*x^p*y^q`` terms joined by signed ``+``/``-``.

    The output re-parses to the same series whenever all exponents are
    non-negative (the expression grammar does not admit negative powers) and
    each exact exponent is the decimal its float's ``repr`` prints.
    """
    terms = s.terms
    if not terms:
        return "0"
    pieces = []
    for i, t in enumerate(terms):
        body = _term_body(t, digits)
        if i == 0:
            pieces.append(body if t.coeff >= 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if t.coeff >= 0 else f" - {body}")
    return "".join(pieces)
