"""Independent reference implementations the test suite checks fracadm against.

Neither oracle shares code with the path it validates:

* ``caputo_quadrature_oracle`` evaluates the Caputo integral definition by
  adaptive quadrature, not by the power rule ``caputo_deriv`` applies;
* ``adomian_lambda_oracle`` builds A_n by the lambda-coefficient
  construction, not by the convolution ``adomian_polynomial`` sums.

They live here, not in the package, because quadrature needs scipy and the
runtime depends on the standard library alone.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Sequence

from scipy.integrate import quad

from fracadm.gammafn import rgamma
from fracadm.series import Axis, FracSeries, caputo_deriv


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
