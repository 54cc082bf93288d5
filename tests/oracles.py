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
* ``pointwise_evaluate_oracle`` evaluates one point term by term, not a
  whole grid from powers shared per grid value;
* ``nested_partial_sums_oracle`` folds the partial sums by ``+``, one
  normalization per component, not one normalization per partial sum;
* ``residual_oracle`` evaluates the equation's residual by differentiating
  a truncated series itself, not from the products of its components.

``adomian_polynomial`` is no oracle: it is the solver's own convolution,
on its own, for the tests that check A_n.

They live here, not in the package: quadrature needs scipy, which the
runtime does without, and the runtime keeps one implementation of each step.
(The runtime does without ``fractions`` too: importing it costs every CLI
start an import of ``decimal``.)
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import groupby
from typing import Iterable, Sequence

from scipy.integrate import quad

from fracadm.adm import ProblemSpec, SolveError, solve
from fracadm.gammafn import rgamma
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
    caputo_deriv,
    sum_of_products,
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
    return p * rgamma(1.0 - order) * value


def adomian_polynomial(
    components: Sequence[FracSeries], n: int, beta: float
) -> FracSeries:
    """A_n for the bilinear nonlinearity, sum_{i+j=n} u_i * D_x^beta u_j, as
    ``adm.solve`` forms it from its pair list."""
    derivs = [caputo_deriv(u, beta, Axis.X) for u in components[: n + 1]]
    return sum_of_products(zip(components, reversed(derivs)))


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
                approx = pointwise_evaluate_oracle(phi, x, y)
                devs.append(_rel_dev(approx, row[col]))
                if pair == CLASSICAL_PAIR and _error_resolvable(row[4], exact):
                    err_dev = _rel_dev(abs(exact - approx), row[4])
                    devs.append(err_dev)
                    err_devs.append(err_dev)
        rows.append(ScanRow(n, max(devs), max(err_devs, default=math.inf)))
    return rows


def pointwise_evaluate_oracle(s: FracSeries, x: float, y: float) -> float:
    """One point of a series, a power per term: the loop ``evaluate_grid`` replaced.

    ``FracSeries.evaluate_grid`` must return these values bit for bit and,
    on a failing grid, raise what this raises at the first failing point.
    """
    if y < 0.0:
        raise EvaluationDomainError(f"y must be >= 0, got {y!r}")
    return math.fsum(
        t.coeff * _power_oracle(x, t.px, "x") * _power_oracle(y, t.py, "y")
        for t in s.terms
    )


def _power_oracle(base: float, expo: float, var: str) -> float:
    # exact exponents: 0**0 = 1, and a negative base takes whole exponents only
    if expo == 0.0:
        return 1.0
    if base == 0.0:
        if expo > 0.0:
            return 0.0
        raise EvaluationDomainError(f"{var} = 0 with negative exponent {expo!r}")
    if base < 0.0:
        if expo == math.floor(expo):
            return math.pow(base, expo)
        raise EvaluationDomainError(
            f"{var} = {base!r} < 0 with non-integer exponent {expo!r}"
        )
    return math.pow(base, expo)


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
