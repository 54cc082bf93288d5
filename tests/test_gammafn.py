"""Gamma machinery: classical identities plus an mpmath accuracy sweep."""

import math
import random

import mpmath
import pytest

from fracadm.gammafn import (
    GammaPoleError,
    gamma,
    gamma_ratio,
    log_gamma,
    rgamma,
)

mpmath.mp.dps = 40


def test_classical_values():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-13)
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert gamma(4.0) == pytest.approx(6.0, rel=1e-13)
    assert gamma(7.5) == pytest.approx(float(mpmath.gamma(7.5)), rel=1e-13)


@pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -37.0])
def test_gamma_pole_raises(z):
    with pytest.raises(GammaPoleError):
        gamma(z)


@pytest.mark.parametrize("z", [5e-13, -3.0 - 9e-13, -12.0 + 4e-13])
def test_gamma_near_pole_is_finite(z):
    # only a non-positive integer is a pole; next to one, gamma is large but
    # finite and 1/gamma small but not zero
    assert gamma(z) == math.gamma(z)
    assert rgamma(z) == 1.0 / math.gamma(z)
    assert rgamma(z) != 0.0


def test_accuracy_against_mpmath():
    rng = random.Random(20240811)
    for _ in range(1500):
        z = rng.uniform(-170.0, 170.0)
        if z <= 0.5 and abs(z - round(z)) < 1e-6:
            continue
        ref = mpmath.gamma(z)
        rel = abs((mpmath.mpf(gamma(z)) - ref) / ref)
        assert rel <= 1e-13, f"gamma({z}) off by {float(rel)}"


def test_recurrence_identity():
    rng = random.Random(1)
    for _ in range(1000):
        z = rng.uniform(0.1, 50.0)
        lhs = gamma(z + 1.0)
        assert abs(lhs - z * gamma(z)) <= 1e-12 * abs(lhs)


def test_reflection_identity():
    rng = random.Random(2)
    for _ in range(500):
        z = rng.uniform(1e-3, 1.0 - 1e-3)
        value = gamma(z) * gamma(1.0 - z) * math.sin(math.pi * z) / math.pi
        assert value == pytest.approx(1.0, abs=1e-10)


def test_rgamma_is_total_and_zero_at_poles():
    assert rgamma(0.0) == 0.0
    assert rgamma(-1.0) == 0.0
    assert rgamma(-6.0) == 0.0
    assert rgamma(-12.0) == 0.0
    assert rgamma(1.0) == pytest.approx(1.0, rel=1e-13)
    assert rgamma(500.0) == 0.0  # beyond double range, saturates cleanly


def test_rgamma_saturates_where_gamma_underflows():
    # Gamma(-250.5) underflows to -0.0, so 1/Gamma is beyond double range
    assert rgamma(-250.5) == -math.inf
    assert rgamma(-199.5) == math.inf


def test_rgamma_inverts_gamma():
    rng = random.Random(3)
    for _ in range(500):
        z = rng.uniform(-30.0, 30.0)
        if z <= 0.5 and abs(z - round(z)) < 1e-3:
            continue
        assert rgamma(z) * gamma(z) == pytest.approx(1.0, abs=1e-12)


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
    rng = random.Random(4)
    for _ in range(300):
        num = rng.uniform(21.0, 170.0)
        den = rng.uniform(21.0, 170.0)
        ref = math.exp(math.lgamma(num) - math.lgamma(den))
        assert gamma_ratio(num, den) == pytest.approx(ref, rel=1e-11)


def test_gamma_ratio_survives_overflowing_factors():
    # both factors overflow a double; the ratio is tame
    ref = math.exp(math.lgamma(168.0) - math.lgamma(167.0))
    assert gamma_ratio(168.0, 167.0) == pytest.approx(ref, rel=1e-11)


def test_duplication_identity_through_ratio():
    rng = random.Random(5)
    for _ in range(500):
        a = rng.uniform(1e-3, 1.0)
        lhs = gamma_ratio(2.0 * a + 1.0, a + 1.0)
        rhs = 4.0**a * gamma(a + 0.5) / math.sqrt(math.pi)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_log_gamma():
    assert log_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-14)
    assert log_gamma(0.25) == pytest.approx(math.lgamma(0.25), rel=1e-13)
    with pytest.raises(ValueError):
        log_gamma(-1.5)


def test_gamma_overflow_saturates():
    assert gamma(200.0) == math.inf
    assert gamma(171.61) == math.inf
