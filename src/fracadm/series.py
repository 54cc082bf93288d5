"""Finite generalized power series in x and y with fractional calculus rules.

The universal value type is :class:`FracSeries`: a normalized, immutable
sum of monomials ``c * x**px * y**py`` whose exponents are arbitrary reals
(py stays >= 0 in solver output; px may go negative at fractional orders).
On top of the plain algebra (add, scale, Cauchy product) the module
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
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence

from .gammafn import gamma_ratio

__all__ = [
    "Axis",
    "FracTerm",
    "FracSeries",
    "EvaluationDomainError",
    "NonIntegrableTermError",
    "caputo_deriv",
    "rl_integral",
    "sum_of_products",
    "sum_series",
    "format_series",
    "DROP_ULPS",
]

# A merged coefficient of several terms is cancellation residue, and dropped,
# when it is at most this many ulps of the sum of their magnitudes (an ulp
# of a magnitude in [2**(e-1), 2**e) taken as 2**(e-53), subnormal or not).
DROP_ULPS = 4
# evaluate_grid holds at most this many products coeff * x**px at a time, in
# whole x rows, and at least one row.
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
    ``(x, y)`` pairs.
    """
    den = max([s._den for s in series], default=1)
    y_max = max([s._y_max * (den // s._den) for s in series], default=0)
    return den, (2 * y_max).bit_length() + 1


def _packed(s: "FracSeries", den: int, width: int) -> tuple[tuple[int, float], ...]:
    """s's (packed key, coefficient) pairs in this frame; s keeps the last ones."""
    packed = s._packed
    if packed is not None and packed[0] == den and packed[1] == width:
        return packed[2]
    f = den // s._den
    keys = [(x * f << width) + y * f for x, y in zip(s._xs, s._ys)]
    terms = tuple(zip(keys, s._coeffs))
    object.__setattr__(s, "_packed", (den, width, terms))
    return terms


def _overflow(what: str, x: int, y: int, den: int) -> OverflowError:
    # the drop rule would compare inf or nan and keep or drop it silently
    return OverflowError(f"coefficient of x^{x / den!r}*y^{y / den!r} {what}")


def _merge(cells: dict[int, list[float]], den: int, width: int) -> "FracSeries":
    """The normalized series of packed-key cells: one fsum per key, in key order.

    A cell of several coefficients is dropped when its sum is within
    DROP_ULPS ulps of the sum of their magnitudes, which is what rounding
    leaves of terms that cancel; a single coefficient is dropped only when
    it is zero.  The rule never looks at other keys, and it compares
    exponents, not math.ulp, whose fixed floor among subnormals would make
    it depend on scale there; so it depends neither on the scale of the
    series nor on the order of its terms.
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
        except OverflowError:  # finite terms whose exact sum is past the range
            raise _overflow("overflows", x, y, den) from None
        except ValueError:  # fsum refuses a cell holding both inf and -inf
            coeff = math.nan
        if not math.isfinite(coeff):
            raise _overflow(f"is {coeff!r}", x, y, den)
        if coeff == 0.0 or (
            len(cell) > 1
            # a plain sum() of the magnitudes is within a factor 2 of their
            # fsum, and cheaper: it screens out all but near-cancellations
            and abs(coeff) <= 2 * DROP_ULPS * math.ulp(sum(map(abs, cell)))
            and math.ldexp(abs(coeff), 53 - math.frexp(math.fsum(map(abs, cell)))[1])
            <= DROP_ULPS
        ):
            continue
        coeffs.append(coeff)
        xs.append(x)
        ys.append(y)
    return FracSeries._lattice(tuple(coeffs), tuple(xs), tuple(ys), den)


def _normalize(terms: Iterable[FracTerm]) -> "FracSeries":
    # the raw terms as one unmerged series, then one merge
    return sum_series((FracSeries._from_normalized(terms),))


def sum_series(series: Iterable["FracSeries"]) -> "FracSeries":
    """The sum of the series, normalized once over all their terms."""
    series = tuple(series)
    den, width = _frame(series)
    cells: dict[int, list[float]] = {}
    get = cells.get
    for s in series:
        for key, c in _packed(s, den, width):
            cell = get(key)
            if cell is None:
                cells[key] = [c]
            else:
                cell.append(c)
    return _merge(cells, den, width)


def sum_of_products(
    pairs: Iterable[tuple["FracSeries", "FracSeries"]],
) -> "FracSeries":
    """sum of a*b over the pairs, normalized once over all raw product terms.

    A raw product is one int add of packed exponent keys, one float multiply
    and one dict lookup; no FracTerm is built.  Nothing here bounds the work:
    ``adm.solve`` counts its products before it asks for them.
    """
    pairs = tuple(pairs)
    den, width = _frame([s for pair in pairs for s in pair])
    cells: dict[int, list[float]] = {}
    get = cells.get
    for a, b in pairs:
        b_terms = _packed(b, den, width)
        for key, c in _packed(a, den, width):
            for k, d in b_terms:
                k += key
                cell = get(k)
                if cell is None:
                    cells[k] = [c * d]
                else:
                    cell.append(c * d)
    return _merge(cells, den, width)


class FracSeries:
    """Immutable normalized sum of FracTerm monomials.

    The constructor *is* the normalization: terms with equal exact exponents
    are merged by one fsum, sorted lexicographically by (px, py), and
    cancellation residue and zeros are dropped.  The empty series is the
    zero series.  Inside, a series is its coefficients and the exact
    numerators of its exponents over one denominator; ``terms`` is a float
    view of that, built when first asked for.
    """

    __slots__ = ("_coeffs", "_xs", "_ys", "_den", "_y_max", "_terms", "_packed")

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
        init(s, "_terms", None)
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
        terms = self._terms
        if terms is None:
            den = self._den
            px = {x: x / den for x in set(self._xs)}
            py = {y: y / den for y in set(self._ys)}
            terms = tuple(
                map(FracTerm, self._coeffs, map(px.get, self._xs), map(py.get, self._ys))
            )
            object.__setattr__(self, "_terms", terms)
        return terms

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "FracSeries":
        return cls()

    @classmethod
    def monomial(cls, coeff: float, px: float = 0.0, py: float = 0.0) -> "FracSeries":
        return cls((FracTerm(coeff, px, py),))

    # -- container protocol --------------------------------------------------

    def __iter__(self) -> Iterator[FracTerm]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, FracSeries) and self.terms == other.terms

    def __hash__(self) -> int:
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
        # the drop rule is symmetric in sign: the same terms as scale(-1.0)
        return FracSeries._lattice(
            tuple(-c for c in self._coeffs), self._xs, self._ys, self._den
        )

    def __sub__(self, other: "FracSeries") -> "FracSeries":
        if not isinstance(other, FracSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, c: float) -> "FracSeries":
        return _ordered([c * a for a in self._coeffs], self._xs, self._ys, self._den)

    def __mul__(self, other: FracSeries | float | int) -> "FracSeries":
        if isinstance(other, FracSeries):
            return self.mul(other)
        if isinstance(other, (int, float)):
            return self.scale(float(other))
        return NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

    def mul(self, other: "FracSeries") -> "FracSeries":
        """Full Cauchy product, normalized once over its raw terms."""
        return sum_of_products(((self, other),))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x: float, y: float) -> float:
        """Sum coeff * x**px * y**py with the 0**0 = 1 convention.

        y must be >= 0, 0 has no negative powers and a negative x only
        integer ones; otherwise EvaluationDomainError.
        This is the one-point case of ``evaluate_grid``.
        """
        return self.evaluate_grid((x,), (y,))[0]

    def evaluate_grid(self, xs: Iterable[float], ys: Iterable[float]) -> list[float]:
        """``[evaluate(x, y) for y in ys for x in xs]``, bit for bit.

        Each power is computed once per grid value and distinct exponent, not
        once per point and term: a row ``coeff * x**px`` is formed once per x
        and each point is one ``fsum`` of that row times the y powers, which
        rounds as ``(coeff * x**px) * y**py`` just like the pointwise sum.  At
        most ``_GRID_BLOCK_TERMS`` products, or one x row, are held at a time.
        A failing grid raises what the first failing point, in row order and
        then term order, raises when evaluated alone.
        """
        xs, ys = tuple(xs), tuple(ys)
        if not xs or not ys:
            return []
        coeffs = self._coeffs
        x_powers = _Powers(self._xs, self._den, "x")
        y_powers = _Powers(self._ys, self._den, "y")
        nx = len(xs)
        out = [0.0] * (nx * len(ys))
        try:
            if any(y < 0.0 for y in ys):
                raise EvaluationDomainError("y must be >= 0")
            block = max(1, _GRID_BLOCK_TERMS // max(1, len(coeffs)))
            for start in range(0, nx, block):
                cx_rows = [
                    list(map(operator.mul, coeffs, x_powers.row(x)))
                    for x in xs[start : start + block]
                ]
                for iy, y in enumerate(ys):
                    y_row = y_powers.row(y)
                    at = iy * nx + start
                    out[at : at + len(cx_rows)] = [
                        math.fsum(map(operator.mul, cx_row, y_row)) for cx_row in cx_rows
                    ]
        except (ArithmeticError, ValueError):
            # Blocks run out of row order, and fsum can overflow partway through
            # a point's terms, before a later term's power fails: re-evaluate
            # term by term in row order, so the first failing point raises.
            for y in ys:
                for x in xs:
                    _evaluate_point(self.terms, x, y)
            raise
        return out

    def min_exponent(self, axis: Axis) -> float:
        """Smallest exponent on the chosen axis (0.0 for the zero series)."""
        return min(self._xs if axis == Axis.X else self._ys, default=0) / self._den


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
    return math.pow(base, expo)


class _Powers:
    """Powers of one variable at the exponents of a series' terms, in term order.

    The exponents are numerators over ``den``.  Each distinct one is computed
    once per value, at the float ``n / den`` that ``FracSeries.terms`` holds.
    """

    def __init__(self, numerators: Sequence[int], den: int, var: str):
        slots: dict[int, int] = {}
        self.slot = [slots.setdefault(n, len(slots)) for n in numerators]
        self.exponents = [n / den for n in slots]
        self.var = var

    def row(self, value: float) -> list[float]:
        """value**p for each term's exponent p."""
        distinct = [_power(value, p, self.var) for p in self.exponents]
        return list(map(distinct.__getitem__, self.slot))


def _evaluate_point(terms: tuple[FracTerm, ...], x: float, y: float) -> float:
    """One point, a power per term: the order in which a failing grid fails."""
    if y < 0.0:
        raise EvaluationDomainError(f"y must be >= 0, got {y!r}")
    return math.fsum(t.coeff * _power(x, t.px, "x") * _power(y, t.py, "y") for t in terms)


# -- fractional operators ------------------------------------------------


def _ordered(
    coeffs: Sequence[float], xs: Sequence[int], ys: Sequence[int], den: int
) -> FracSeries:
    """The normalized series of terms whose exponents are distinct and in order.

    Nothing merges, so, as in a merge, zeros are dropped and a non-finite
    coefficient raises.
    """
    kept = []
    for c, x, y in zip(coeffs, xs, ys):
        if not math.isfinite(c):
            raise _overflow(f"is {c!r}", x, y, den)
        if c != 0.0:
            kept.append((c, x, y))
    coeffs, xs, ys = zip(*kept) if kept else ((), (), ())
    return FracSeries._lattice(coeffs, xs, ys, den)


def _on_axis(s: FracSeries, order: float, axis: Axis):
    """(den, step, on-axis numerators, off-axis numerators) of s and the order."""
    n, d = _decimal(order)
    den = max(s._den, d)
    f = den // s._den
    xs, ys = s._xs, s._ys
    if f != 1:
        xs, ys = [x * f for x in xs], [y * f for y in ys]
    step = n * (den // d)
    return (den, step, xs, ys) if axis == Axis.X else (den, step, ys, xs)


def caputo_deriv(s: FracSeries, order: float, axis: Axis) -> FracSeries:
    """Term-wise Caputo fractional derivative of order in (0, 1] on one axis.

    Constants on the axis vanish; every other exponent p (negative ones
    included, formally) maps to Gamma(p+1)/Gamma(p+1-order) * x**(p-order).
    Both gamma arguments are rounded once from exact values, so a pole is
    hit exactly when one is a non-positive integer.
    """
    if not 0.0 < order <= 1.0:
        raise ValueError(f"Caputo order must be in (0, 1], got {order!r}")
    den, step, on, off = _on_axis(s, order, axis)
    coeffs, new_on, new_off = [], [], []
    for c, p, q in zip(s._coeffs, on, off):
        if p == 0:
            continue  # derivative of a constant on this axis
        p1 = p + den
        coeffs.append(c * gamma_ratio(p1 / den, (p1 - step) / den))
        new_on.append(p - step)
        new_off.append(q)
    if axis == Axis.X:
        return _ordered(coeffs, new_on, new_off, den)
    return _ordered(coeffs, new_off, new_on, den)


def rl_integral(s: FracSeries, order: float, axis: Axis) -> FracSeries:
    """Term-wise Riemann-Liouville fractional integral of positive order."""
    if order <= 0.0:
        raise ValueError(f"integral order must be > 0, got {order!r}")
    den, step, on, off = _on_axis(s, order, axis)
    coeffs = []
    for c, p in zip(s._coeffs, on):
        p1 = p + den
        if p1 <= 0:
            raise NonIntegrableTermError(
                f"exponent {p / den!r} on axis {axis} is not integrable"
            )
        coeffs.append(c * gamma_ratio(p1 / den, (p1 + step) / den))
    on = [p + step for p in on]
    if axis == Axis.X:
        return _ordered(coeffs, on, off, den)
    return _ordered(coeffs, off, on, den)


# -- display ---------------------------------------------------------------


def _format_number(v: float, digits: int) -> str:
    return format(v, f".{digits}g")


def _term_body(t: FracTerm, digits: int) -> str:
    parts = [_format_number(abs(t.coeff), digits)]
    for var, expo in (("x", t.px), ("y", t.py)):
        if expo == 1.0:
            parts.append(var)
        elif expo != 0.0:
            parts.append(f"{var}^{_format_number(expo, digits)}")
    return "*".join(parts)


def format_series(s: FracSeries, digits: int = 17) -> str:
    """Render as ``c*x^p*y^q`` terms joined by signed ``+``/``-``.

    The output re-parses to the same series whenever all exponents are
    non-negative (the expression grammar does not admit negative powers).
    """
    if not s.terms:
        return "0"
    pieces = []
    for i, t in enumerate(s.terms):
        body = _term_body(t, digits)
        if i == 0:
            pieces.append(body if t.coeff >= 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if t.coeff >= 0 else f" - {body}")
    return "".join(pieces)
