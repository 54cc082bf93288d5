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
(on the diagonal i = n - i, over the pairs of terms a <= b).  A term with no
image in D_x^beta u pairs with 0.0.  Its products c * 0.0 aside, which the
merge ignores, each cell holds the floats of the sum over the ordered pairs
(u_i, D_x^beta u_{n-i}), in any order, so A_n is the same to the bit.
(Adomian polynomials of a bilinear term are symmetric in this way: Abbaoui
and Cherruault, Math. Comput. Modelling 20(9), 1994.)

For a bilinear nonlinearity the convolution is identical to the classical
lambda-derivative construction of the decomposition polynomials; the test
suite keeps that construction (``tests/oracles.py``) as an independent
numerical check.
"""

import math
from collections import namedtuple

from .series import (
    Axis,
    FracSeries,
    _decimal,
    _frame,
    _merge,
    _ordered,
    _packed,
    _power_rule,
    _width,
    _x_key,
    rl_integral,
    sum_series,
)

__all__ = ["ProblemSpec", "SolutionSeries", "SolveError", "solve"]

# A solve counts at most this many raw products, as ``_convolve`` counts them
# over all its A_n; a step that would pass it fails before it forms any, and
# one whose products are all zero leaves the next component empty.  The
# largest benchmark solve counts 137,256.  On a 2-core x86 VM with Python
# 3.11, example 1 at generic orders stops at u_76 after 0.21 s of solve and
# 18.3 MB peak RSS (in process); one A_0 of 1,224 x 1,224 products on nearly
# distinct exponents, the worst case for memory, took 2.8-3.6 s and 284 MB.
_WORK_BUDGET = 1_500_000


class SolveError(ArithmeticError):
    """Numeric failure during the recursion; carries the offending depth.

    ``solution`` is the SolutionSeries of the components u_0..u_{depth-1}
    finished before the failure, what a solve to that depth returns; it has
    no components when u_0 itself failed.  ``depth`` is its length.
    """

    def __init__(self, message: str, solution: "SolutionSeries"):
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
    every component and of each term's D_x^beta image, which ``_split``
    takes as a coefficient: no derivative is formed as a series.  The width
    holds py(u_n) <= (2n+1)*alpha: ic and g are y-free, so u_0 is at most
    alpha, a product adds its two exponents (A_n at most (2n+2)*alpha) and
    J_y^alpha adds alpha.  It is tight: example 1's u_20 at generic orders
    reaches 41*alpha.  n stops at the deepest component the work budget lets
    a solve form: the step to u_{n+1} forms at least n+1 more products, so
    u_m needs m(m+1)/2 in all.
    """
    (a, da), (_, db) = _decimal(problem.alpha), _decimal(problem.beta)
    den = max(problem.ic._den, problem.forcing._den, da, db)
    reach = (math.isqrt(8 * _WORK_BUDGET + 1) - 1) // 2
    depth = min(problem.n_terms - 1, reach)
    return den, _width((2 * depth + 1) * a * (den // da))


def _split(u: FracSeries, beta: float, frame: tuple[int, int]) -> tuple:
    """(terms, imaged, |u|max, |du|max) of u in the frame, du = D_x^beta u:
    u's terms as (key, c, d), d the coefficient of the image d * x^(p-beta) *
    y^q that the power rule gives the term, the prefix of those with an
    image, and the largest |c| and |d|.  d is 0.0 for a term with no image:
    an x-constant, or one whose image is 0 (at p = beta - 1, say).  No
    series du is formed; a non-finite d raises as ``caputo_deriv`` would.
    """
    u_terms, u_max = _packed(u, *frame)
    rule = _power_rule(u, beta, Axis.X, -1)
    images = rule[0]
    if not all(map(math.isfinite, images)):
        _ordered(*rule)  # raises for the first, in term order
    terms = [(k, c, d or 0.0) for (k, c), d in zip(u_terms, images)]
    imaged = [t for t in terms if t[2]]
    if len(imaged) < len(terms):  # those with an image first
        terms = imaged + [t for t in terms if not t[2]]
    return terms, imaged, u_max, max(map(abs, images), default=0.0)


def _convolve(splits: list[tuple], frame: tuple[int, int], shift: int, work: int) -> tuple:
    """(A_n, work): A_n = sum_{i+j=n} u_i * D_x^beta u_j from the splits of
    u_0..u_n, normalized once, and the solve's raw product count after it.

    One walk over the ordered pairs (u_i, D u_{n-i}) adds to work a raw
    product per pair of a term of u_i and an imaged term of u_{n-i}, or one
    for a pair with none, and takes the merge's bound, the largest |u_i|max *
    |D u_j|max.  Past ``_WORK_BUDGET`` it raises before forming any product.
    Over each unordered pair i <= j = n - i, term a of u_i and term b of u_j
    put u_i[a] * D u_j[b] and u_j[b] * D u_i[a] in the one cell of key k_a +
    k_b - shift; on the diagonal i = j a term meets itself once and each
    later term once.  A term without an image meets only those with one, so
    each of its uncounted zero products comes with a raw product, or is its
    square.  Each raw product is the float multiply of the ordered pairs' sum.
    """
    n = len(splits) - 1
    cells: dict[int, list[float]] = {}
    get = cells.get
    bound = 0.0
    for (terms, _, u_max, _), (_, imaged, _, d_max) in zip(splits, reversed(splits)):
        work += max(1, len(terms) * len(imaged))
        if u_max * d_max > bound:
            bound = u_max * d_max
    if work > _WORK_BUDGET:
        raise ArithmeticError(
            f"would take the solve to {work} raw products, past its budget of {_WORK_BUDGET}"
        )
    for i in range(n // 2 + 1):
        terms, (other, imaged, _, _) = splits[i][0], splits[n - i]
        diagonal = 2 * i == n
        for a, (ka, c, d) in enumerate(terms):
            base = ka - shift
            inner = other if d else imaged
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
    return _merge(cells, *frame, bound), work


def solve(problem: ProblemSpec) -> SolutionSeries:
    """Run the recursion to problem.n_terms components.

    Only the components are built; a partial sum is formed when asked for.
    Components do not depend on n_terms, so partial_sum(n) of this solution
    equals partial_sum(n) of a solve to depth n.  Any ArithmeticError or
    ValueError while building u_n is raised as a SolveError whose
    ``solution`` holds u_0..u_{n-1}: what a solve to depth n returns.  So is
    a step whose raw products would pass the budget that ``_convolve`` checks.
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
            # split lazily: u_{N-1} itself is never split
            splits.append(_split(components[n], beta, frame))
            a_n, work = _convolve(splits, frame, shift, work)
            components.append(-rl_integral(a_n, alpha, Axis.Y))
    except (ArithmeticError, ValueError) as exc:
        raise SolveError(str(exc), SolutionSeries(tuple(components))) from exc
    return SolutionSeries(tuple(components))
