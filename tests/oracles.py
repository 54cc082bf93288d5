"""Independent reference implementations the test suite checks fracadm against.

Each oracle takes another route than the code it checks:

* ``caputo_quadrature_oracle`` evaluates the Caputo integral definition by
  adaptive quadrature, not by the power rule ``caputo_deriv`` applies;
* ``adomian_lambda_oracle`` builds A_n by the lambda-coefficient
  construction, not by the convolution ``adomian_polynomial`` sums;
* ``sort_merge_normalize_oracle`` normalizes by sorting every raw term on
  ``Fraction`` exponents, not through packed integer keys;
* ``per_depth_scan_oracle`` solves afresh for every truncation depth, not
  once per order pair;
* ``grouped_evaluate_oracle`` evaluates one point by plain loops over the
  groups of terms, not a whole grid from factor rows shared per grid value;
* ``pointwise_evaluate_oracle`` evaluates one point term by term: the sum
  that names the error of a failing point;
* ``nested_partial_sums_oracle`` folds the partial sums by ``+``, one
  normalization per component, not one normalization per partial sum;
* ``residual_oracle`` evaluates the equation's residual by differentiating
  a truncated series itself, not from the products of its components.
* ``similarity_series_oracle`` gives the components of a monomial initial
  condition with no forcing one scalar at a time, from the scaling symmetry
  and 60-digit gamma functions, not by series algebra in doubles.

``sum_of_products`` and ``adomian_polynomial`` are no oracles.
``sum_of_products`` sums the raw products of several pairs in one
``sum_series``, as ``FracSeries.mul`` sums those of one pair (through
``series._products``).  ``adomian_polynomial`` is the convolution it sums
over the ordered pairs (u_i, D_x^beta u_{n-i}), for the tests that check
A_n, and ``ordered_pairs_components`` steps the recursion by it.
``adm.solve`` forms the same A_n over unordered pairs of terms, and the
tests hold the two bit-identical.

They live here, not in the package: quadrature needs scipy, which the
runtime does without, and the runtime keeps one implementation of each step.
(The runtime does without ``fractions`` too: importing it costs every CLI
start an import of ``decimal``.)
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from fractions import Fraction
from itertools import groupby
from typing import Iterable, Sequence

import mpmath
from scipy.integrate import quad

from fracadm.adm import ProblemSpec, SolveError, solve
from fracadm.problems import (
    CLASSICAL_PAIR,
    ORDER_PAIRS,
    REFERENCE_TABLES,
    ScanRow,
    _error_resolvable,
    _rel_dev,
    builtin_problem,
    exact_solution,
)
from fracadm.series import (
    DROP_ULPS,
    Axis,
    EvaluationDomainError,
    FracSeries,
    FracTerm,
    _products,
    caputo_deriv,
    rl_integral,
    sum_series,
)


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to reach the requested accuracy."""


def caputo_quadrature_oracle(p: float, order: float, x: float) -> float:
    """Caputo derivative of x**p straight from its defining integral.

    Evaluates (1/Gamma(1-order)) * int_0^x (x-e)**(-order) * p*e**(p-1) de
    by adaptive quadrature with the endpoint singularities handled by an
    algebraic weight.
    """
    if p <= 0.0:
        raise ValueError(f"oracle requires p > 0, got {p!r}")
    if not 0.0 < order < 1.0:
        raise ValueError(f"oracle requires order in (0, 1), got {order!r}")
    if x <= 0.0:
        raise ValueError(f"oracle requires x > 0, got {x!r}")
    # weight (e-0)**(p-1) * (x-e)**(-order) carries both singular factors
    value, abserr = quad(
        lambda _e: 1.0,
        0.0,
        x,
        weight="alg",
        wvar=(p - 1.0, -order),
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    if abserr > 1e-10:
        raise QuadratureError(
            f"quadrature error estimate {abserr!r} exceeds 1e-10 "
            f"for p={p!r}, order={order!r}, x={x!r}"
        )
    # 1 - order lies in (0, 1), never a pole of Gamma
    return p * (1.0 / math.gamma(1.0 - order)) * value


def sum_of_products(pairs: Iterable[tuple[FracSeries, FracSeries]]) -> FracSeries:
    """sum of a*b over the pairs, normalized once over all raw products."""
    return sum_series(p for a, b in pairs for p in _products(a, b))


def adomian_polynomial(
    components: Sequence[FracSeries], n: int, beta: float
) -> FracSeries:
    """A_n for the bilinear nonlinearity, sum_{i+j=n} u_i * D_x^beta u_j, over
    the ordered pairs (u_i, D_x^beta u_{n-i}) in a frame of its own.

    ``adm.solve`` forms the same cells from unordered pairs of terms, and so
    the same A_n to the bit.
    """
    derivs = [caputo_deriv(u, beta, Axis.X) for u in components[: n + 1]]
    return sum_of_products(zip(components, reversed(derivs)))


def ordered_pairs_components(problem: ProblemSpec) -> tuple[FracSeries, ...]:
    """The components of the recursion with each A_n from ``adomian_polynomial``.

    Every sum and product takes a frame of its own.  The recursion stops at
    the first component whose step fails, so it gives the components
    ``adm.solve`` finishes, short of the work budget.
    """
    alpha, beta = problem.alpha, problem.beta
    components = []
    try:
        components.append(problem.ic + rl_integral(problem.forcing, alpha, Axis.Y))
        for n in range(problem.n_terms - 1):
            a_n = adomian_polynomial(components, n, beta)
            components.append(-rl_integral(a_n, alpha, Axis.Y))
    except (ArithmeticError, ValueError):
        pass
    return tuple(components)


def adomian_lambda_oracle(
    components: Sequence[FracSeries],
    n: int,
    beta: float,
    probe_points: Iterable[tuple[float, float]],
) -> list[float]:
    """A_n via the lambda-coefficient construction, evaluated pointwise.

    N(sum_i lambda**i u_i) is a polynomial of degree 2n in lambda; sampling
    it at the (n+1)-st roots of unity and averaging against lambda**(-n)
    recovers the lambda**n coefficient exactly, because the only aliased
    coefficient indices (n + k*(n+1) for k >= 1) exceed the degree.
    """
    if len(components) < n + 1:
        raise ValueError(
            f"A_{n} needs {n + 1} components, only {len(components)} given"
        )
    m = n + 1
    nodes = [cmath.exp(2j * math.pi * k / m) for k in range(m)]
    if len(set(nodes)) != m:
        raise ValueError("duplicate lambda samples")
    derivs = [caputo_deriv(u, beta, Axis.X) for u in components[:m]]
    results = []
    for x, y in probe_points:
        u_vals = [u.evaluate(x, y) for u in components[:m]]
        du_vals = [d.evaluate(x, y) for d in derivs]
        acc = 0j
        for lam in nodes:
            pu = sum(v * lam**i for i, v in enumerate(u_vals))
            pdu = sum(v * lam**i for i, v in enumerate(du_vals))
            acc += pu * pdu * lam ** (-n)
        results.append((acc / m).real)
    return results


def exact_exponent(value) -> Fraction:
    """The exact value a float exponent stands for: the decimal its repr prints."""
    if isinstance(value, Fraction):
        return value
    return Fraction(repr(float(value)))


def sort_merge_normalize_oracle(terms: Iterable[FracTerm]) -> tuple[FracTerm, ...]:
    """Normalization by sorting every raw term on exact exponents.

    A term's exponents may be floats, standing for the decimals their reprs
    print, or Fractions.  Runs of equal exponent pairs are summed by one
    fsum; a run of several terms is dropped when its sum is within
    DROP_ULPS ulps of the fsum of their magnitudes, a single term only when
    it is zero.  The ulp of a magnitude in [2**(e-1), 2**e) is the exact
    2**(e-53), also below the smallest normal float, where ``math.ulp``
    stops shrinking.  ``series._normalize`` must agree bit for bit.
    """

    def key(t):
        return exact_exponent(t.px), exact_exponent(t.py)

    merged = []
    for (px, py), run in groupby(sorted(terms, key=key), key=key):
        coeffs = [float(t.coeff) for t in run]
        coeff = math.fsum(coeffs)
        if coeff == 0.0:
            continue
        magnitude = math.fsum(abs(c) for c in coeffs)
        ulp = Fraction(2) ** (math.frexp(magnitude)[1] - 53)
        if len(coeffs) > 1 and Fraction(abs(coeff)) <= DROP_ULPS * ulp:
            continue
        merged.append(FracTerm(coeff, float(px), float(py)))
    return tuple(merged)


def per_depth_scan_oracle(example: int, n_max: int) -> list[ScanRow]:
    """``truncation_scan`` by one fresh solve per depth and order pair.

    This is the O(n_max^3) algorithm the scan replaced by one solve per
    order pair; the rows must agree exactly.
    """
    ref = REFERENCE_TABLES[example]
    rows = []
    for n in range(1, n_max + 1):
        phis = {}
        for pair in ORDER_PAIRS:
            try:
                sol = solve(builtin_problem(example, pair[0], pair[1], n))
                phis[pair] = sol.partial_sum(n)
            except SolveError:
                phis[pair] = None
        devs = []
        err_devs = []
        for (y, x), row in ref.items():
            exact = exact_solution(example, x, y)
            for col, pair in enumerate(ORDER_PAIRS):
                phi = phis[pair]
                if phi is None:
                    devs.append(math.inf)
                    continue
                approx = grouped_evaluate_oracle(phi, x, y)
                devs.append(_rel_dev(approx, row[col]))
                if pair == CLASSICAL_PAIR and _error_resolvable(row[4], exact):
                    err_dev = _rel_dev(abs(exact - approx), row[4])
                    devs.append(err_dev)
                    err_devs.append(err_dev)
        rows.append(ScanRow(n, max(devs), max(err_devs, default=math.inf)))
    return rows


def grouped_evaluate_oracle(s: FracSeries, x: float, y: float) -> float:
    """One point of a series as ``FracSeries.evaluate`` defines it, by plain loops.

    The terms are grouped by their exact exponent (a numerator over the
    series' denominator) on the axis with fewer distinct ones (y on a tie),
    groups in ascending order of it; a group's factor is the fsum of
    coeff * w**p over its terms, in term order, with w the other variable,
    and the value is the fsum of each factor times v**g.  Powers are taken
    at the float exponents of ``terms``.  A point fails when y < 0, a power
    or an fsum fails, or the value is not finite; it then raises what
    ``pointwise_evaluate_oracle`` raises there, or its own failure if that
    sum is finite.
    """
    exact = list(zip(s._xs, s._ys))
    by_x = len({n for n, _ in exact}) < len({m for _, m in exact})
    (v, v_var), (w, w_var) = ((x, "x"), (y, "y")) if by_x else ((y, "y"), (x, "x"))
    groups: dict[int, tuple[float, list[tuple[float, float]]]] = {}
    for t, (n, m) in zip(s.terms, exact):
        key, g, p = (n, t.px, t.py) if by_x else (m, t.py, t.px)
        groups.setdefault(key, (g, []))[1].append((t.coeff, p))
    groups = [groups[key] for key in sorted(groups)]
    try:
        if y < 0.0:
            raise EvaluationDomainError(f"y must be >= 0, got {y!r}")
        factors = [math.fsum([c * _power_oracle(w, p, w_var) for c, p in terms])
                   for _, terms in groups]
        powers = [_power_oracle(v, g, v_var) for g, _ in groups]
        value = math.fsum([f * q for f, q in zip(factors, powers)])
        failure = None
    except (ArithmeticError, ValueError) as exc:
        value, failure = None, exc
    if failure is None and math.isfinite(value):
        return value
    pointwise_evaluate_oracle(s, x, y)
    if failure is not None:
        raise failure
    raise OverflowError(f"value at x = {x!r}, y = {y!r} is {value!r}")


def pointwise_evaluate_oracle(s: FracSeries, x: float, y: float) -> float:
    """One point of a series, a power per term: the term-order sum.

    It was the definition of a value before evaluation grouped the terms.
    A point that fails raises what this raises there, if it fails: the first
    failing power in term order, or an fsum that fails before it.  A value
    that is not finite is a failure, as it is for ``evaluate``.
    """
    if y < 0.0:
        raise EvaluationDomainError(f"y must be >= 0, got {y!r}")
    value = math.fsum(
        t.coeff * _power_oracle(x, t.px, "x") * _power_oracle(y, t.py, "y")
        for t in s.terms
    )
    if not math.isfinite(value):
        raise OverflowError(f"value at x = {x!r}, y = {y!r} is {value!r}")
    return value


def _power_oracle(base: float, expo: float, var: str) -> float:
    # exact exponents: 0**0 = 1, and a negative base takes whole exponents only
    if expo == 0.0:
        return 1.0
    if base == 0.0:
        if expo > 0.0:
            return 0.0
        raise EvaluationDomainError(f"{var} = 0 with negative exponent {expo!r}")
    if base < 0.0 and expo != math.floor(expo):
        raise EvaluationDomainError(
            f"{var} = {base!r} < 0 with non-integer exponent {expo!r}"
        )
    try:
        return math.pow(base, expo)
    except OverflowError:
        raise OverflowError(f"{var} = {base!r} with exponent {expo!r} overflows") from None


def nested_partial_sums_oracle(components: Sequence[FracSeries]) -> list[FracSeries]:
    """[Phi_1, ..., Phi_N] by Phi_{n+1} = Phi_n + u_n: the fold ``solve`` dropped.

    ``SolutionSeries.partial_sum`` normalizes the raw terms of u_0..u_{n-1}
    once instead.  The fold rounds a merged coefficient at every step and the
    one-shot sum only once, so the two agree bit for bit unless an
    intermediate rounding changes the result.
    """
    sums = [components[0]]
    for u in components[1:]:
        sums.append(sums[-1] + u)
    return sums


def residual_oracle(
    problem: ProblemSpec,
    s: FracSeries,
    points: Iterable[tuple[float, float]],
) -> float:
    """Max |D_y^alpha s + s * D_x^beta s - g| over the given points."""
    lhs = (
        caputo_deriv(s, problem.alpha, Axis.Y)
        + s.mul(caputo_deriv(s, problem.beta, Axis.X))
        - problem.forcing
    )
    return max(abs(lhs.evaluate(x, y)) for x, y in points)


SimilarityRow = namedtuple("SimilarityRow", "px py coeff cell")


def similarity_series_oracle(
    c: float, p: float, alpha: float, beta: float, n_terms: int
) -> list[SimilarityRow]:
    """u_0..u_{n_terms-1} for ic = c*x^p and no forcing, one monomial each.

    The scaling symmetry makes u_k = c_k x^(p_k) y^(k alpha), with
    p_k = p + k (p - beta), and the recursion a scalar one:

        A_k = sum_{i+j=k} c_i c_j Gamma(p_j + 1) / Gamma(p_j + 1 - beta),
        c_{k+1} = -Gamma(k alpha + 1) / Gamma((k + 1) alpha + 1) * A_k.

    Row k holds p_k and k alpha exactly, as Fractions of the decimals the
    arguments print as, and c_k and A_k (the one cell of A_k, from which
    u_{k+1} is read) as 60-digit mpf, computed from those decimals with one
    gamma ratio per j and one gamma function per k.  Needs p >= beta, so
    that every p_j is positive.
    """
    c, p, alpha, beta = map(exact_exponent, (c, p, alpha, beta))
    if not 0 < beta <= p:
        raise ValueError(f"needs 0 < beta <= p, got beta={beta}, p={p}")
    with mpmath.workdps(60):
        def mp(value: Fraction) -> mpmath.mpf:
            return mpmath.mpf(value.numerator) / value.denominator

        pxs = [p + k * (p - beta) for k in range(n_terms)]
        ratios = [mpmath.gamma(mp(q) + 1) * mpmath.rgamma(mp(q - beta) + 1) for q in pxs]
        gammas = [mpmath.gamma(mp(k * alpha) + 1) for k in range(n_terms + 1)]
        coeffs, cells = [mp(c)], []
        for k in range(n_terms):
            cells.append(mpmath.fsum(coeffs[k - j] * coeffs[j] * ratios[j] for j in range(k + 1)))
            coeffs.append(-gammas[k] / gammas[k + 1] * cells[k])
        return [SimilarityRow(pxs[k], k * alpha, coeffs[k], cells[k]) for k in range(n_terms)]
