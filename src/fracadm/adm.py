"""Decomposition-series solver for D_y^alpha u + u * D_x^beta u = g(x).

The unknown is expanded as u = sum_n u_n and the bilinear nonlinearity
N(u) = u * D_x^beta u as a sum of convolution polynomials

    A_n = sum_{i=0}^{n} u_i * D_x^beta u_{n-i},

after which the recursion is

    u_0     = f(x) + J_y^alpha g(x)
    u_{n+1} = -J_y^alpha A_n.

D_x^beta takes c * x^p * y^q to d * x^(p-beta) * y^q, so it shifts every
x-exponent by the same -beta.  Term a of u_i times term b of D_x^beta u_j,
and term b of u_j times term a of D_x^beta u_i, therefore land on one
exponent,

    (p_a + p_b - beta, q_a + q_b),

and ``solve`` forms A_n over the unordered pairs i <= n - i: one key add and
one cell lookup per pair of terms, with both raw products put in that cell
(on the diagonal i = n - i, over the pairs of terms a <= b).  Each cell holds
the same floats as the sum over the ordered pairs (u_i, D_x^beta u_{n-i}),
and the merge does not depend on their order, so A_n is the same to the bit.
(Adomian polynomials of a bilinear term are symmetric in this way: Abbaoui
and Cherruault, Math. Comput. Modelling 20(9), 1994.)

For a bilinear nonlinearity the convolution is identical to the classical
lambda-derivative construction of the decomposition polynomials; the test
suite keeps that construction (``tests/oracles.py``) as an independent
numerical check.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .series import (
    Axis,
    FracSeries,
    _decimal,
    _frame,
    _merge,
    _packed,
    _width,
    _x_key,
    caputo_deriv,
    rl_integral,
    sum_series,
)

__all__ = ["ProblemSpec", "SolutionSeries", "SolveError", "solve"]

# A solve forms at most this many raw products, one per pair of terms of u_i
# and D_x^beta u_j, over all its A_n; a pair of series with no products counts
# as one.  A step that would pass it fails before it forms any.  The largest
# benchmark solve forms 137,256.  On a 2-core x86 VM with Python 3.11, example
# 1 at generic orders stops at u_76 after 0.21 s of solve and 18.3 MB peak RSS
# (in process); one A_0 of 1,224 x 1,224 products on nearly distinct
# exponents, the worst case for memory, took 2.8-3.6 s and 284 MB.
_WORK_BUDGET = 1_500_000


class SolveError(ArithmeticError):
    """Numeric failure during the recursion; carries the offending depth.

    ``solution`` is the SolutionSeries of the components u_0..u_{depth-1}
    finished before the failure, what a solve to that depth returns; it has
    no components when u_0 itself failed.  ``depth`` is its length.
    """

    def __init__(self, message: str, solution: SolutionSeries):
        self.depth = len(solution.components)
        self.solution = solution
        super().__init__(f"component u_{self.depth}: {message}")


class ProblemSpec(namedtuple("ProblemSpec", "alpha beta ic forcing n_terms")):
    """One initial-value problem D_y^alpha u + u*D_x^beta u = g, u(x,0) = f.

    Orders live in (0, 1], so the initial-condition sum collapses to the
    single value u(x, 0); ic and forcing are series in x alone.  Every
    construction validates, so build a changed copy with ``ProblemSpec(...)``,
    not ``_replace``, which bypasses ``__new__``.
    """

    __slots__ = ()

    def __new__(
        cls,
        alpha: float,
        beta: float,
        ic: FracSeries,
        forcing: FracSeries,
        n_terms: int,
    ):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {beta!r}")
        if n_terms < 1:
            raise ValueError(f"n_terms must be >= 1, got {n_terms!r}")
        for name, s in (("ic", ic), ("forcing", forcing)):
            if s._y_max != 0:
                raise ValueError(f"{name} must not depend on y: {s}")
        return super().__new__(cls, alpha, beta, ic, forcing, n_terms)


class SolutionSeries(namedtuple("SolutionSeries", "components")):
    """Solver output: components u_0..u_{N-1}; partial sums are formed on request."""

    __slots__ = ()

    def partial_sum(self, n: int) -> FracSeries:
        """Phi_n = u_0 + ... + u_{n-1} for 1 <= n <= len(components).

        One normalization over the raw terms of u_0..u_{n-1}, so each merged
        coefficient is one correctly rounded fsum.  Not cached: each call
        normalizes again, but in the packing frame of all the components,
        so the calls of a scan pack each component once.  A coefficient
        that overflows raises SolveError naming u_{n-1}, the last component
        it adds, and carrying u_0..u_{n-2}.
        """
        if not 1 <= n <= len(self.components):
            raise IndexError(
                f"partial sum index {n} outside 1..{len(self.components)}"
            )
        try:
            return sum_series(self.components[:n], _frame(self.components))
        except OverflowError as exc:
            raise SolveError(str(exc), SolutionSeries(self.components[: n - 1])) from exc


def _solve_frame(problem: ProblemSpec) -> tuple[int, int]:
    """The one packing frame (den, width) of every sum and product of a solve.

    den is the largest denominator of ic, forcing, alpha and beta, and so of
    every component and derivative.  The width holds py(u_n) <= (2n+1)*alpha:
    ic and g are y-free, so u_0 is at most alpha, a product adds its two
    exponents (A_n at most (2n+2)*alpha) and J_y^alpha adds alpha.  It is
    tight: example 1's u_20 at generic orders reaches 41*alpha.  n stops at
    the deepest component the work budget lets a solve form: the step to
    u_{n+1} forms at least n+1 more products, so u_m needs m(m+1)/2 in all.
    """
    (a, da), (_, db) = _decimal(problem.alpha), _decimal(problem.beta)
    den = max(problem.ic._den, problem.forcing._den, da, db)
    reach = (math.isqrt(8 * _WORK_BUDGET + 1) - 1) // 2
    depth = min(problem.n_terms - 1, reach)
    return den, _width((2 * depth + 1) * a * (den // da))


def _split(u: FracSeries, du: FracSeries, frame: tuple[int, int], shift: int) -> tuple:
    """(paired, lone, |u|max, |du|max): u's terms packed in the frame, split
    by whether du = D_x^beta u has their image, and the largest |coefficient|
    of u and of du.

    A term whose image d * x^(p-beta) * y^q is in du is paired as (key, c,
    d); one that has none is lone, (key, c): an x-constant, or a term whose
    image's coefficient the derivative dropped as 0 (at p = beta - 1, say).
    shift is beta's x-step as a packed key, so an image's key is its term's
    less shift.
    """
    u_terms, u_max = _packed(u, *frame)
    d_terms, d_max = _packed(du, *frame)
    images = dict(d_terms)
    paired, lone = [], []
    for k, c in u_terms:
        d = images.get(k - shift)
        if d is None:
            lone.append((k, c))
        else:
            paired.append((k, c, d))
    return paired, lone, u_max, d_max


def _convolve(splits: list[tuple], frame: tuple[int, int], shift: int) -> FracSeries:
    """A_n = sum_{i+j=n} u_i * D_x^beta u_j from the splits of u_0..u_n, normalized once.

    Over each unordered pair i <= j = n - i, a pair of paired terms a of u_i
    and b of u_j puts u_i[a] * D u_j[b] and u_j[b] * D u_i[a] in the one cell
    of key k_a + k_b - shift; on the diagonal i = j a term meets itself once
    and each other paired term of u_i once.  A lone term of either has only
    its products with the other's images.  Each raw product is the float
    multiply of the ordered pairs' sum, and the merge's bound is that sum's:
    the largest |u_i|max * |D u_j|max.
    """
    n = len(splits) - 1
    cells: dict[int, list[float]] = {}
    get = cells.get
    bound = 0.0
    for (_, _, u_max, _), (_, _, _, d_max) in zip(splits, reversed(splits)):
        if u_max * d_max > bound:
            bound = u_max * d_max
    for i in range(n // 2 + 1):
        paired, lone, _, _ = splits[i]
        other, other_lone, _, _ = splits[n - i]
        diagonal = 2 * i == n
        for a, (ka, c, d) in enumerate(paired):
            base = ka - shift
            inner = other
            if diagonal:  # the term meets itself once, and each later term
                k = base + ka
                cell = get(k)
                if cell is None:
                    cells[k] = [c * d]
                else:
                    cell.append(c * d)
                inner = inner[a + 1 :]
            for kb, e, f in inner:
                k = base + kb
                cell = get(k)
                if cell is None:
                    cells[k] = [c * f, e * d]
                else:
                    cell.append(c * f)
                    cell.append(e * d)
        if lone:
            _one_sided(cells, lone, other, shift)
        if other_lone and not diagonal:
            _one_sided(cells, other_lone, paired, shift)
    return _merge(cells, *frame, bound)


def _one_sided(cells: dict[int, list[float]], lone: list, paired: list, shift: int) -> None:
    """Put each lone term's products with the paired terms' images in the cells."""
    get = cells.get
    for ka, c in lone:
        base = ka - shift
        for kb, _, f in paired:
            k = base + kb
            cell = get(k)
            if cell is None:
                cells[k] = [c * f]
            else:
                cell.append(c * f)


def solve(problem: ProblemSpec) -> SolutionSeries:
    """Run the recursion to problem.n_terms components.

    Only the components are built; a partial sum is formed when asked for.
    Components do not depend on n_terms, so partial_sum(n) of this solution
    equals partial_sum(n) of a solve to depth n.  Any ArithmeticError or
    ValueError while building u_n is raised as a SolveError whose
    ``solution`` holds u_0..u_{n-1}: what a solve to depth n returns.  So is
    a step whose raw products would take the solve past ``_WORK_BUDGET``.
    """
    alpha, beta = problem.alpha, problem.beta
    components: list[FracSeries] = []
    splits: list[tuple] = []
    work = 0
    frame = _solve_frame(problem)
    shift = _x_key(beta, *frame)
    try:
        u0 = (problem.ic, rl_integral(problem.forcing, alpha, Axis.Y))
        components.append(sum_series(u0, frame))
        for n in range(problem.n_terms - 1):
            # differentiate lazily: u_{N-1} itself is never differentiated
            du = caputo_deriv(components[n], beta, Axis.X)
            splits.append(_split(components[n], du, frame, shift))
            # counted per ordered pair (u_i, D u_{n-i}) of terms; D u_j has a
            # term for each paired term of u_j
            work += sum(
                max(1, len(u) * len(t[0])) for u, t in zip(components, reversed(splits))
            )
            if work > _WORK_BUDGET:
                raise ArithmeticError(
                    f"would take the solve to {work} raw products, "
                    f"past its budget of {_WORK_BUDGET}"
                )
            components.append(-rl_integral(_convolve(splits, frame, shift), alpha, Axis.Y))
    except (ArithmeticError, ValueError) as exc:
        raise SolveError(str(exc), SolutionSeries(tuple(components))) from exc
    return SolutionSeries(tuple(components))
