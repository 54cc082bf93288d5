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
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Iterable, Iterator, Union

from .gammafn import gamma_ratio

__all__ = [
    "Axis",
    "FracTerm",
    "FracSeries",
    "TermCapError",
    "EvaluationDomainError",
    "NonIntegrableTermError",
    "caputo_deriv",
    "rl_integral",
    "sum_of_products",
    "format_series",
    "EXPONENT_TOL",
    "COEFF_DROP_REL",
    "DEFAULT_TERM_CAP",
]

# Exponents closer than this (per variable) denote the same monomial.
EXPONENT_TOL = 1e-12
# Terms with |coeff| <= COEFF_DROP_REL * max(1, largest |coeff|) are dropped,
# so cancellation residue from gamma arithmetic never leaks into results.
COEFF_DROP_REL = 1e-15
# Cauchy products larger than this raise instead of silently blowing up.
DEFAULT_TERM_CAP = 10_000
# evaluate_grid holds at most this many x rows of coeff * x**px at a time.
_GRID_BLOCK_ROWS = 256


class Axis(Enum):
    X = "x"
    Y = "y"


class TermCapError(ArithmeticError):
    """A product would exceed the term cap."""

    def __init__(self, would_be: int, cap: int):
        self.would_be = would_be
        self.cap = cap
        super().__init__(f"product would create {would_be} terms (cap {cap})")


class EvaluationDomainError(ValueError):
    """Evaluation point outside the domain of some monomial."""


class NonIntegrableTermError(ValueError):
    """Fractional integral applied to an exponent <= -1 on that axis."""


@dataclass(frozen=True)
class FracTerm:
    """One monomial coeff * x**px * y**py."""

    coeff: float
    px: float = 0.0
    py: float = 0.0


def _cluster(values: Iterable[float]) -> list[list[float]]:
    """Sort distinct values and group runs within EXPONENT_TOL of each run's first."""
    groups: list[list[float]] = []
    for v in sorted(values):
        if groups and v - groups[-1][0] <= EXPONENT_TOL:
            groups[-1].append(v)
        else:
            groups.append([v])
    return groups


# Exact-exponent buckets: px -> py -> coefficients, each level in insertion
# order, so an exponent keeps the spelling (e.g. -0.0 vs 0.0) it first had.
_Buckets = dict[float, dict[float, list[float]]]


def _merge(buckets: _Buckets) -> tuple[FracTerm, ...]:
    """Normalized terms from exact-exponent buckets.

    Two-level clustering over the distinct exponent values: runs in px first,
    then py inside each run, so near-equal px values cannot be split apart by
    differing py ordering.  A cluster is represented by its smallest exponent
    and sums its coefficients with one fsum, which is what sorting and
    clustering every raw term gives, since fsum ignores input order.
    """
    merged = []
    for px_run in _cluster(buckets):
        px_rep = px_run[0]
        row = buckets[px_rep]
        if len(px_run) > 1:
            row = {}
            for px in px_run:
                for py, coeffs in buckets[px].items():
                    row.setdefault(py, []).extend(coeffs)
        for py_run in _cluster(row):
            if len(py_run) == 1:
                coeff = math.fsum(row[py_run[0]])
            else:
                coeff = math.fsum(chain.from_iterable(row[py] for py in py_run))
            if not math.isfinite(coeff):
                # the cutoff below would be inf or nan and drop it silently
                raise OverflowError(
                    f"coefficient of x^{px_rep!r}*y^{py_run[0]!r} is {coeff!r}"
                )
            merged.append(FracTerm(coeff, px_rep, py_run[0]))
    if not merged:
        return ()
    cutoff = COEFF_DROP_REL * max(1.0, max(abs(t.coeff) for t in merged))
    # clusters come out in (px, py) order already
    return tuple(t for t in merged if abs(t.coeff) > cutoff)


def _normalize(terms: Iterable[FracTerm]) -> tuple[FracTerm, ...]:
    buckets: _Buckets = {}
    for t in terms:
        row = buckets.get(t.px)
        if row is None:
            buckets[t.px] = {t.py: [t.coeff]}
            continue
        cell = row.get(t.py)
        if cell is None:
            row[t.py] = [t.coeff]
        else:
            cell.append(t.coeff)
    return _merge(buckets)


def sum_of_products(
    pairs: Iterable[tuple["FracSeries", "FracSeries"]],
    term_cap: int = DEFAULT_TERM_CAP,
) -> "FracSeries":
    """sum of a*b over the pairs, normalized once over all raw product terms.

    Each Cauchy product is checked against the term cap on its own; the raw
    terms go straight into exact-exponent buckets, never into FracTerms.
    """
    buckets: _Buckets = {}
    for a, b in pairs:
        would_be = len(a.terms) * len(b.terms)
        if would_be > term_cap:
            raise TermCapError(would_be, term_cap)
        for s in a.terms:
            c, px, py = s.coeff, s.px, s.py
            for t in b.terms:
                row = buckets.get(px + t.px)
                if row is None:
                    buckets[px + t.px] = {py + t.py: [c * t.coeff]}
                    continue
                cell = row.get(py + t.py)
                if cell is None:
                    row[py + t.py] = [c * t.coeff]
                else:
                    cell.append(c * t.coeff)
    return FracSeries._from_normalized(_merge(buckets))


class FracSeries:
    """Immutable normalized sum of FracTerm monomials.

    The constructor *is* the normalization: terms are merged within
    EXPONENT_TOL per exponent, sorted lexicographically by (px, py), and
    negligible coefficients dropped.  The empty series is the zero series.
    ``sum_of_products`` is the one other way in; it runs the same merge.
    """

    __slots__ = ("terms",)

    terms: tuple[FracTerm, ...]

    def __init__(self, terms: Iterable[FracTerm] = ()):
        object.__setattr__(self, "terms", _normalize(terms))

    def __setattr__(self, name, value):
        raise AttributeError("FracSeries is immutable")

    @classmethod
    def _from_normalized(cls, terms: tuple[FracTerm, ...]) -> "FracSeries":
        s = object.__new__(cls)
        object.__setattr__(s, "terms", terms)
        return s

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "FracSeries":
        return cls()

    @classmethod
    def monomial(cls, coeff: float, px: float = 0.0, py: float = 0.0) -> "FracSeries":
        return cls((FracTerm(coeff, px, py),))

    @classmethod
    def constant(cls, value: float) -> "FracSeries":
        return cls.monomial(value)

    # -- container protocol --------------------------------------------------

    def __iter__(self) -> Iterator[FracTerm]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

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
        return FracSeries(self.terms + other.terms)

    def __neg__(self) -> "FracSeries":
        # a sign flip keeps every cluster and the drop cutoff, so the terms
        # stay normalized: the same bits as scale(-1.0), with no merge
        return FracSeries._from_normalized(
            tuple(FracTerm(-t.coeff, t.px, t.py) for t in self.terms)
        )

    def __sub__(self, other: "FracSeries") -> "FracSeries":
        if not isinstance(other, FracSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, c: float) -> "FracSeries":
        return FracSeries(FracTerm(c * t.coeff, t.px, t.py) for t in self.terms)

    def __mul__(self, other: Union["FracSeries", float, int]) -> "FracSeries":
        if isinstance(other, FracSeries):
            return self.mul(other)
        if isinstance(other, (int, float)):
            return self.scale(float(other))
        return NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

    def mul(self, other: "FracSeries", term_cap: int = DEFAULT_TERM_CAP) -> "FracSeries":
        """Full Cauchy product, guarded by the term cap."""
        return sum_of_products(((self, other),), term_cap)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x: float, y: float) -> float:
        """Sum coeff * x**px * y**py with the 0**0 = 1 convention.

        y must be >= 0, 0 has no negative powers and a negative x only
        integer ones (within EXPONENT_TOL); otherwise EvaluationDomainError.
        This is the one-point case of ``evaluate_grid``.
        """
        return self.evaluate_grid((x,), (y,))[0]

    def evaluate_grid(self, xs: Iterable[float], ys: Iterable[float]) -> list[float]:
        """``[evaluate(x, y) for y in ys for x in xs]``, bit for bit.

        Each power is computed once per grid value and distinct exponent, not
        once per point and term: a row ``coeff * x**px`` is formed once per x
        and each point is one ``fsum`` of that row times the y powers, which
        rounds as ``(coeff * x**px) * y**py`` just like the pointwise sum.  At
        most ``_GRID_BLOCK_ROWS`` x rows are held at a time.  A failing grid
        raises what the first failing point, in row order and then term order,
        raises when evaluated alone.
        """
        xs, ys = tuple(xs), tuple(ys)
        if not xs or not ys:
            return []
        coeffs = [t.coeff for t in self.terms]
        x_powers = _Powers([t.px for t in self.terms], "x")
        y_powers = _Powers([t.py for t in self.terms], "y")
        nx = len(xs)
        out = [0.0] * (nx * len(ys))
        try:
            if any(y < 0.0 for y in ys):
                raise EvaluationDomainError("y must be >= 0")
            for start in range(0, nx, _GRID_BLOCK_ROWS):
                cx_rows = [
                    list(map(operator.mul, coeffs, x_powers.row(x)))
                    for x in xs[start : start + _GRID_BLOCK_ROWS]
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

    def max_abs_coeff(self) -> float:
        return max((abs(t.coeff) for t in self.terms), default=0.0)

    def min_exponent(self, axis: Axis) -> float:
        """Smallest exponent on the chosen axis (0.0 for the zero series)."""
        if not self.terms:
            return 0.0
        if axis is Axis.X:
            return min(t.px for t in self.terms)
        return min(t.py for t in self.terms)


def _power(base: float, expo: float, var: str) -> float:
    if abs(expo) <= EXPONENT_TOL:
        return 1.0  # includes the 0**0 = 1 convention
    if base == 0.0:
        if expo > 0.0:
            return 0.0
        raise EvaluationDomainError(f"{var} = 0 with negative exponent {expo!r}")
    if base < 0.0:
        nearest = round(expo)
        if abs(expo - nearest) <= EXPONENT_TOL:
            return math.pow(base, nearest)
        raise EvaluationDomainError(
            f"{var} = {base!r} < 0 with non-integer exponent {expo!r}"
        )
    return math.pow(base, expo)


class _Powers:
    """Powers of one variable at the exponents of a series' terms, in term order.

    Each distinct exponent is computed once per value.
    """

    def __init__(self, exponents: list[float], var: str):
        slots: dict[float, int] = {}
        self.slot = [slots.setdefault(p, len(slots)) for p in exponents]
        self.exponents = list(slots)
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


def _split_axis(term: FracTerm, axis: Axis) -> tuple[float, float]:
    return (term.px, term.py) if axis is Axis.X else (term.py, term.px)


def _rebuild(coeff: float, on_axis: float, off_axis: float, axis: Axis) -> FracTerm:
    if axis is Axis.X:
        return FracTerm(coeff, on_axis, off_axis)
    return FracTerm(coeff, off_axis, on_axis)


def caputo_deriv(s: FracSeries, order: float, axis: Axis) -> FracSeries:
    """Term-wise Caputo fractional derivative of order in (0, 1] on one axis.

    Constants on the axis vanish; every other exponent p (negative ones
    included, formally) maps to Gamma(p+1)/Gamma(p+1-order) * x**(p-order).
    """
    if not 0.0 < order <= 1.0:
        raise ValueError(f"Caputo order must be in (0, 1], got {order!r}")
    out = []
    for t in s:
        p, q = _split_axis(t, axis)
        if abs(p) <= EXPONENT_TOL:
            continue  # derivative of a constant on this axis
        coeff = t.coeff * gamma_ratio(p + 1.0, p + 1.0 - order)
        out.append(_rebuild(coeff, p - order, q, axis))
    return FracSeries(out)


def rl_integral(s: FracSeries, order: float, axis: Axis) -> FracSeries:
    """Term-wise Riemann-Liouville fractional integral of positive order."""
    if order <= 0.0:
        raise ValueError(f"integral order must be > 0, got {order!r}")
    out = []
    for t in s:
        p, q = _split_axis(t, axis)
        if p <= -1.0 + EXPONENT_TOL:
            raise NonIntegrableTermError(
                f"exponent {p!r} on axis {axis.value} is not integrable"
            )
        coeff = t.coeff * gamma_ratio(p + 1.0, p + 1.0 + order)
        out.append(_rebuild(coeff, p + order, q, axis))
    return FracSeries(out)


# -- display ---------------------------------------------------------------


def _format_number(v: float, digits: int) -> str:
    return format(v, f".{digits}g")


def _term_body(t: FracTerm, digits: int) -> str:
    parts = [_format_number(abs(t.coeff), digits)]
    for var, expo in (("x", t.px), ("y", t.py)):
        if abs(expo) <= EXPONENT_TOL:
            continue
        if abs(expo - 1.0) <= EXPONENT_TOL:
            parts.append(var)
        else:
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
