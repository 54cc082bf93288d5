"""Real-argument gamma machinery with pole-safe reciprocals and ratios.

Every fractional power rule in this package carries a coefficient of the
shape Gamma(num)/Gamma(den), and `den` routinely lands exactly on a pole
of Gamma (e.g. 2 - 2*beta at beta = 1).  Those coefficients must vanish
cleanly rather than blow up, so the reciprocal 1/Gamma is treated as the
entire function it is: exactly zero at non-positive integers.

Values come from the standard library's ``math.gamma`` and
``math.lgamma``.  The wrappers here add what those lack: a non-positive
integer is a pole (``math.gamma`` raises ValueError there), gamma
saturates to inf past the double range (``math.gamma`` raises
OverflowError), and ratios of large arguments go through log space so
they survive where both factors overflow.  The pole test has no
tolerance: the series operators round each gamma argument once from its
exact decimal value, so an argument whose exact value is a non-positive
integer arrives as that integer (as does one within half an ulp of it).
"""

from __future__ import annotations

import math

__all__ = [
    "GammaPoleError",
    "gamma",
    "log_gamma",
    "rgamma",
    "gamma_ratio",
]

# Above this, gamma_ratio evaluates both factors in log space.
_LOG_RATIO_CUTOFF = 20.0

# Gamma exceeds the double range just past this argument.
_OVERFLOW_CUTOFF = 171.6


class GammaPoleError(ArithmeticError):
    """Gamma evaluated at a non-positive integer."""

    def __init__(self, z: float, context: str = "gamma"):
        self.z = z
        super().__init__(f"{context} has a pole at z = {z!r}")


def _is_pole(z: float) -> bool:
    return z <= 0.0 and z == math.floor(z)


def gamma(z: float) -> float:
    """Gamma(z) for real z, raising GammaPoleError at non-positive integers."""
    if _is_pole(z):
        raise GammaPoleError(z)
    if z > _OVERFLOW_CUTOFF:
        return math.inf
    return math.gamma(z)


def log_gamma(z: float) -> float:
    """log|Gamma(z)| for z > 0."""
    if z <= 0.0:
        raise ValueError(f"log_gamma requires z > 0, got {z!r}")
    return math.lgamma(z)


def rgamma(z: float) -> float:
    """1/Gamma(z), entire in z: exactly 0.0 at non-positive integers."""
    if _is_pole(z):
        return 0.0
    g = gamma(z)
    if g == 0.0:
        # Gamma underflows to a signed zero far down the negative axis, where
        # 1/Gamma is beyond double range anyway: saturate with its sign
        return math.copysign(math.inf, g)
    return 1.0 / g


def gamma_ratio(num: float, den: float) -> float:
    """Gamma(num)/Gamma(den), pole-safe in the denominator.

    A denominator pole yields exactly 0.0; a numerator pole (with a finite
    denominator) has no finite value and raises.  Large arguments on both
    sides are combined in log space so the ratio survives even where the
    individual factors would overflow.
    """
    num_pole = _is_pole(num)
    den_pole = _is_pole(den)
    if num_pole and not den_pole:
        raise GammaPoleError(num, context="gamma_ratio numerator")
    if den_pole:
        # num_pole too would be 0/0; the recursion never produces it, and
        # the denominator zero of 1/Gamma dominates by convention.
        if num_pole:
            raise GammaPoleError(num, context="gamma_ratio numerator")
        return 0.0
    if num > _LOG_RATIO_CUTOFF and den > _LOG_RATIO_CUTOFF:
        return math.exp(math.lgamma(num) - math.lgamma(den))
    return gamma(num) * rgamma(den)
