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


def _gamma(z: float) -> float:
    """Gamma(z) at a z that is not a pole; inf past the double range."""
    if z > _OVERFLOW_CUTOFF:
        return math.inf
    return math.gamma(z)


def gamma(z: float) -> float:
    """Gamma(z) for real z, raising GammaPoleError at non-positive integers."""
    if _is_pole(z):
        raise GammaPoleError(z)
    return _gamma(z)


def rgamma(z: float) -> float:
    """1/Gamma(z), entire in z: exactly 0.0 at non-positive integers."""
    return gamma_ratio(1.0, z)


def gamma_ratio(num: float, den: float) -> float:
    """Gamma(num)/Gamma(den), pole-safe in the denominator.

    A numerator pole has no finite value and raises, whatever the
    denominator; otherwise a denominator pole yields exactly 0.0.  Large
    arguments on both sides are combined in log space so the ratio survives
    even where the individual factors would overflow; below that it is
    Gamma(num) * (1/Gamma(den)).
    """
    if _is_pole(num):
        raise GammaPoleError(num, context="gamma_ratio numerator")
    if _is_pole(den):
        return 0.0
    if num > _LOG_RATIO_CUTOFF and den > _LOG_RATIO_CUTOFF:
        return math.exp(math.lgamma(num) - math.lgamma(den))
    num_gamma, den_gamma = _gamma(num), _gamma(den)
    if den_gamma == 0.0:
        # Gamma underflows to a signed zero far down the negative axis, where
        # 1/Gamma is beyond double range anyway: saturate with its sign
        return num_gamma * math.copysign(math.inf, den_gamma)
    return num_gamma * (1.0 / den_gamma)
