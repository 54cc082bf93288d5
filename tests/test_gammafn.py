"""Gamma machinery: classical identities plus an mpmath accuracy sweep."""

import math
import random
import struct
import sys

import mpmath
import pytest

from fracadm.gammafn import GammaPoleError, gamma_ratio

mpmath.mp.dps = 40


def test_classical_values():
    # Gamma(1) = 1: over 1 the ratio is Gamma itself, under 1 its reciprocal
    assert gamma_ratio(1.0, 1.0) == 1.0
    assert gamma_ratio(0.5, 1.0) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert gamma_ratio(1.0, 0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)
    assert gamma_ratio(4.0, 1.0) == pytest.approx(6.0, rel=1e-13)
    assert gamma_ratio(7.5, 1.0) == pytest.approx(float(mpmath.gamma(7.5)), rel=1e-13)


@pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -37.0])
def test_gamma_pole_raises(z):
    # a numerator pole raises, over a regular denominator or a pole
    for den in (1.0, 0.5, z):
        with pytest.raises(GammaPoleError):
            gamma_ratio(z, den)


@pytest.mark.parametrize("z", [5e-13, -3.0 - 9e-13, -12.0 + 4e-13])
def test_gamma_near_pole_is_finite(z):
    # only a non-positive integer is a pole; next to one, Gamma is large but
    # finite and 1/Gamma small but not zero
    assert gamma_ratio(z, 1.0) == math.gamma(z)
    assert gamma_ratio(1.0, z) == 1.0 / math.gamma(z)
    assert gamma_ratio(1.0, z) != 0.0


def test_accuracy_against_mpmath():
    # the reciprocal 1/Gamma(z) = gamma_ratio(1, z) over the double range
    rng = random.Random(20240811)
    for _ in range(1500):
        z = rng.uniform(-170.0, 170.0)
        if z <= 0.5 and abs(z - round(z)) < 1e-6:
            continue
        ref = mpmath.rgamma(z)
        rel = abs((mpmath.mpf(gamma_ratio(1.0, z)) - ref) / ref)
        assert rel <= 1e-13, f"1/Gamma({z}) off by {float(rel)}"


def test_recurrence_identity():
    # Gamma(z + 1) = z * Gamma(z)
    rng = random.Random(1)
    for _ in range(1000):
        z = rng.uniform(0.1, 50.0)
        assert gamma_ratio(z + 1.0, z) == pytest.approx(z, rel=1e-12)


def test_reflection_identity():
    # 1/(Gamma(z) * Gamma(1 - z)) = sin(pi z) / pi
    rng = random.Random(2)
    for _ in range(500):
        z = rng.uniform(1e-3, 1.0 - 1e-3)
        value = gamma_ratio(1.0, z) * gamma_ratio(1.0, 1.0 - z) * math.pi / math.sin(math.pi * z)
        assert value == pytest.approx(1.0, abs=1e-10)


def test_rgamma_is_total_and_zero_at_poles():
    # the reciprocal 1/Gamma(z) = gamma_ratio(1, z) is entire
    assert gamma_ratio(1.0, 0.0) == 0.0
    assert gamma_ratio(1.0, -1.0) == 0.0
    assert gamma_ratio(1.0, -6.0) == 0.0
    assert gamma_ratio(1.0, -12.0) == 0.0
    assert gamma_ratio(1.0, 1.0) == pytest.approx(1.0, rel=1e-13)
    assert gamma_ratio(1.0, 500.0) == 0.0  # beyond double range, saturates cleanly


def test_rgamma_saturates_where_gamma_underflows():
    # Gamma(-250.5) underflows to -0.0, so 1/Gamma is beyond double range
    assert gamma_ratio(1.0, -250.5) == -math.inf
    assert gamma_ratio(1.0, -199.5) == math.inf


def test_rgamma_inverts_gamma():
    rng = random.Random(3)
    for _ in range(500):
        z = rng.uniform(-30.0, 30.0)
        if z <= 0.5 and abs(z - round(z)) < 1e-3:
            continue
        assert gamma_ratio(1.0, z) * math.gamma(z) == pytest.approx(1.0, abs=1e-12)


def test_gamma_ratio_values():
    assert gamma_ratio(2.0, 1.5) == pytest.approx(1.1283791670955126, rel=1e-13)
    assert gamma_ratio(2.0, 1.5) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-13)
    assert gamma_ratio(3.0, 3.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma_ratio(2.0, 0.0) == 0.0
    assert gamma_ratio(5.5, -3.0) == 0.0


def test_gamma_ratio_numerator_pole_raises():
    with pytest.raises(GammaPoleError):
        gamma_ratio(0.0, 1.5)
    with pytest.raises(GammaPoleError):
        gamma_ratio(-2.0, 0.5)
    with pytest.raises(GammaPoleError):
        gamma_ratio(-1.0, -1.0)  # 0/0 has no sensible finite value


def test_gamma_ratio_log_space_branch():
    # below overflow the ratio is the direct product; it matches the log form
    rng = random.Random(4)
    for _ in range(300):
        num = rng.uniform(21.0, 170.0)
        den = rng.uniform(21.0, 170.0)
        ref = math.exp(math.lgamma(num) - math.lgamma(den))
        assert gamma_ratio(num, den) == pytest.approx(ref, rel=1e-11)


def _is_pole(z):
    return z <= 0.0 and z.is_integer()


def _outcome(f, *args):
    """The bits of f's value, or the type and message of what it raises."""
    try:
        return struct.pack("<d", f(*args))
    except ArithmeticError as exc:
        return type(exc), str(exc)


def _overflows(z, f=math.gamma):
    try:
        f(z)
    except OverflowError:
        return True
    return False


def _reciprocal(g):
    return 1.0 / g if g else math.copysign(math.inf, g)


# exp overflows past the log of the largest double
_LOG_MAX = math.log(sys.float_info.max)


def _reference_ratio(num, den):
    if _is_pole(num):
        raise GammaPoleError(num)
    if _is_pole(den):
        return 0.0
    if not (_overflows(num) or _overflows(den)):
        return math.gamma(num) * _reciprocal(math.gamma(den))
    # Gamma(z) = Gamma(1+z)/z for each z in (-1, 1); where a factor still
    # overflows, |Gamma| in log space with mpmath's signs
    n, s = (1.0 + num, num) if abs(num) < 1.0 else (num, 1.0)
    d, t = (1.0 + den, den) if abs(den) < 1.0 else (den, 1.0)
    if _overflows(n) or _overflows(d):
        if _overflows(num, math.lgamma) or _overflows(den, math.lgamma):
            raise OverflowError(
                f"gamma_ratio({num!r}, {den!r}) cannot be formed in doubles: "
                "log Gamma of an argument is past the double range"
            )
        sign = float(mpmath.sign(mpmath.gamma(num)) * mpmath.sign(mpmath.gamma(den)))
        log_ratio = math.lgamma(num) - math.lgamma(den)
        value = sign * math.exp(log_ratio) if log_ratio <= _LOG_MAX else math.inf
    else:
        n_gamma, d_gamma = math.gamma(n), math.gamma(d)
        value = n_gamma / d_gamma * t / s if d_gamma != 0.0 else math.inf
    if not math.isfinite(value):
        raise OverflowError(f"gamma_ratio({num!r}, {den!r}) is past the double range")
    return value


def test_gamma_ratio_is_its_factors_bit_for_bit():
    # poles (-0.0 too), on both sides of where Gamma overflows, far down the
    # negative axis where Gamma underflows to a signed zero, next to poles,
    # subnormals of both signs whose Gamma overflows, the old log-space
    # cutoff at 20, and both sides of where lgamma overflows
    args = [0.0, -0.0, -1.0, -7.0, -170.0, 171.61, 171.7, 200.0, -3.25, -180.5,
            -250.5, 5e-13, -3.0 - 9e-13, -12.0 + 4e-13, 1e-310, -1e-310, 20.0,
            20.5, 0.5, 1.0, 2.5e305, 1e306]
    rng = random.Random(6)
    args += [rng.uniform(-40.0, 200.0) for _ in range(60)]
    args += [float(rng.randint(-40, 3)) for _ in range(10)]
    for z in args:
        for w in args:
            got = _outcome(gamma_ratio, z, w)
            assert got == _outcome(_reference_ratio, z, w), (z, w)


@pytest.mark.parametrize("num, den, why", [
    (300.0, 1.5, "is past the double range"),
    (200.0, 0.5, "is past the double range"),
    (-1e-310, 2.5, "is past the double range"),
    # lgamma overflows, though Gamma(1e306)/Gamma(1e306) is 1
    (1e306, 1e306, "cannot be formed in doubles: log Gamma of an argument is past the double range"),
    (1.0, 1e306, "cannot be formed in doubles: log Gamma of an argument is past the double range"),
])
def test_every_overflow_names_both_arguments(num, den, why):
    # math.lgamma and math.exp raised a bare 'math range error' for the last
    # four before the named check could run
    with pytest.raises(OverflowError) as err:
        gamma_ratio(num, den)
    assert str(err.value) == f"gamma_ratio({num!r}, {den!r}) {why}"
    assert gamma_ratio(2.5e305, 2.5e305) == 1.0  # just below, log space holds


def test_gamma_ratio_survives_overflowing_factors():
    # both factors overflow a double; the ratio is tame
    for num, den in ((250.5, 249.7), (172.0, 173.0), (1e-310, 200.0)):
        for z in (num, den):
            with pytest.raises(OverflowError):
                math.gamma(z)
        ref = mpmath.gamma(num) / mpmath.gamma(den)
        assert gamma_ratio(num, den) == pytest.approx(float(ref), rel=1e-11)


def test_gamma_ratio_next_to_zero_against_mpmath():
    # Gamma overflows next to 0 as 1/z does, but the ratio need not:
    # Gamma(1)/Gamma(-d) = -d.  A ratio past the double range still raises.
    assert gamma_ratio(1.0, -1e-310) == -1e-310
    assert gamma_ratio(1e-310, -1e-310) == -1.0
    with pytest.raises(OverflowError):
        gamma_ratio(-1e-310, 2.5)
    tiny = [1e-310, -1e-310, 5e-324, -5e-324, -2.2250738585072034e-309, 3e-309]
    others = [1.0, 0.5, -0.5, 2.5, -3.25, -0.999, 20.5, 170.0, -170.5, 1e-200, -1e-200]
    for z in tiny:
        for w in tiny + others:
            for num, den in ((z, w), (w, z)):
                ref = mpmath.gamma(num) / mpmath.gamma(den)
                if abs(ref) > sys.float_info.max:
                    with pytest.raises(OverflowError):
                        gamma_ratio(num, den)
                    continue
                # relative 1e-12 (lgamma near 745 in log space), and a few
                # units of a subnormal
                assert abs(gamma_ratio(num, den) - ref) <= 1e-12 * abs(ref) + 2e-323, (num, den)


@pytest.mark.parametrize("num, den", [(1e-310, 2e-310), (1.0, 3e-309), (2e-310, 1e-310),
                                      (3e-309, 3.0), (5e-324, 1e-320), (1e-310, 170.5)])
def test_gamma_ratio_of_positive_arguments_next_to_zero_against_mpmath(num, den):
    # Gamma(z) overflows for positive z below 5.6e-309; taken as Gamma(1+z)/z
    # the ratio is within 2 ulps of mpmath (log space was 5.5e-14 off:
    # gamma_ratio(1e-310, 2e-310) gave 1.99999999999989)
    ref = mpmath.gamma(num) / mpmath.gamma(den)
    assert abs(gamma_ratio(num, den) - ref) <= 2 * math.ulp(float(ref))


@pytest.mark.parametrize("num, den", [(-1e-310, 200.0), (200.0, -1e-310), (175.0, -1e-10),
                                      (-1e-10, 175.0), (172.5, -3.0000000000000004),
                                      (-2.5, 172.0), (-0.5, 250.0)])
def test_gamma_ratio_far_from_zero_over_an_argument_below_zero_against_mpmath(num, den):
    # one factor overflows past 171.6 and the other argument is <= 0: signed
    # log space, within 1e-12 relative of mpmath (lgamma near 860 has an ulp
    # of 1.1e-13) and a few units of a subnormal; before, these raised
    # OverflowError, though gamma_ratio(-1e-310, 200.0) is -2.5e-63 and
    # gamma_ratio(200.0, -1e-310) is -3.9e62
    ref = mpmath.gamma(num) / mpmath.gamma(den)
    got = gamma_ratio(num, den)
    assert abs(got - ref) <= 1e-12 * abs(ref) + 2e-323
    assert math.copysign(1.0, got) == mpmath.sign(ref)


def test_gamma_ratio_power_rule_pairs_against_mpmath():
    # the coefficients of the Caputo and Riemann-Liouville power rules,
    # Gamma(p+1)/Gamma(p+1-+a) with a in (0, 1]; log space was off by 8.2e-14
    rng = random.Random(7)
    worst = 0.0
    for _ in range(2000):
        num = rng.uniform(20.0, 60.0)
        den = num + rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 1.0)
        ref = mpmath.gamma(num) / mpmath.gamma(den)
        worst = max(worst, abs(float((gamma_ratio(num, den) - ref) / ref)))
    assert worst <= 4e-15, worst


def test_duplication_identity_through_ratio():
    rng = random.Random(5)
    for _ in range(500):
        a = rng.uniform(1e-3, 1.0)
        lhs = gamma_ratio(2.0 * a + 1.0, a + 1.0)
        rhs = 4.0**a * math.gamma(a + 0.5) / math.sqrt(math.pi)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_gamma_overflow_saturates():
    # where Gamma overflows a double, its reciprocal is taken in log space
    assert gamma_ratio(1.0, 200.0) == 0.0
    # math.gamma's own range decides, not a cutoff below it
    assert math.gamma(171.61) == 1.6695813546313734e308
    assert gamma_ratio(1.0, 171.61) == 1.0 / math.gamma(171.61)
    # next to 0, where math.gamma overflows too, 1/Gamma(z) is about z
    assert gamma_ratio(1.0, 1e-310) == pytest.approx(1e-310, rel=1e-9)
