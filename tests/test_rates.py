"""Rate families: exactness, dyadic fractional powers, partial sums."""

import sys
from fractions import Fraction

import pytest

from orbitcount._rationals import (
    DECIMAL_MAX_DIGITS,
    DYADIC_SCALE,
    as_fraction,
    format_fraction,
    iroot,
)
from orbitcount.rates import (
    RateValidationError,
    constant_rate,
    power_rate,
    psi_partial_sums,
    psi_sum,
    table_rate,
    target_main_term_sums,
)

F = Fraction


def test_as_fraction_parsing():
    assert as_fraction("3/4") == F(3, 4)
    assert as_fraction("-2/6") == F(-1, 3)
    assert as_fraction(5) == F(5)
    assert format_fraction(F(1, 3)) == "1/3"
    assert format_fraction(F(4, 2)) == "2"
    with pytest.raises(ValueError):
        as_fraction("0.5")


def test_format_fraction_past_the_digit_limit():
    """Parts past ``DECIMAL_MAX_DIGITS`` switch both parts to hex."""
    limit = DECIMAL_MAX_DIGITS
    widest = F(-(10**limit - 1), 2)  # a numerator of exactly `limit` digits
    assert format_fraction(widest) == f"-{'9' * limit}/2"
    for value in (F(10**limit, 3), F(3, 10**limit + 1), F(-(7**9000), 2**20001 + 1), F(10**limit)):
        text = format_fraction(value)
        assert all(part.lstrip("-").startswith("0x") for part in text.split("/"))
        parts = [int(part, 16) for part in text.split("/")]
        assert F(*parts) == value


@pytest.mark.parametrize("limit", [0, 5000])
def test_format_fraction_ignores_the_process_digit_limit(limit):
    """The switch to hex is fixed, not taken from ``sys.get_int_max_str_digits()``."""
    values = (F(-(10**DECIMAL_MAX_DIGITS - 1), 2), F(3, 10**DECIMAL_MAX_DIGITS + 1))
    want = [format_fraction(v) for v in values]
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        assert [format_fraction(v) for v in values] == want
    finally:
        sys.set_int_max_str_digits(saved)


def test_iroot():
    assert iroot(0, 3) == 0
    assert iroot(26, 3) == 2
    assert iroot(27, 3) == 3
    assert iroot(10**12, 2) == 10**6
    big = (1 << 128) - 1
    r = iroot(big, 2)
    assert r * r <= big < (r + 1) * (r + 1)


def test_power_rate_integer_exponent_exact():
    rate = power_rate("1/2", 1)
    assert [rate.psi(0, n) for n in (1, 2, 3, 10)] == [F(1, 2), F(1, 4), F(1, 6), F(1, 20)]


def test_power_rate_half_exponent_dyadic():
    rate = power_rate("1/2", "1/2")
    v = rate.psi(0, 2)  # ~ 1/(2 sqrt 2)
    assert v.denominator <= 2 * DYADIC_SCALE
    true = 0.5 / 2**0.5
    assert abs(float(v) - true) < 1e-15
    # perfect squares hit the dyadic grid exactly
    assert rate.psi(0, 4) == F(1, 4)
    assert rate.psi(0, 16) == F(1, 8)


def test_negative_c_rejected():
    with pytest.raises(RateValidationError):
        power_rate("-1/2", 1)
    with pytest.raises(RateValidationError):
        constant_rate("-1")
    with pytest.raises(RateValidationError):
        table_rate(["1/2", "-1/8"])


def test_psi_sum_examples():
    # d=1, psi = 1/(2n), N=4: 2 * (1/2)(1 + 1/2 + 1/3 + 1/4) = 25/12
    assert psi_sum(power_rate("1/2", 1), 4) == F(25, 12)
    # d=2 constants 1/2, N=3: 4 * 3 * 1/4 = 3
    assert psi_sum(constant_rate("1/2", dimension=2), 3) == 3
    assert psi_sum(constant_rate(0), 10) == 0


def test_psi_partial_sums_match_psi_sum():
    rate = power_rate("1/2", "1/2")
    ckpts = [10, 100, 1000]
    sums = psi_partial_sums(rate, ckpts)
    assert sums == [psi_sum(rate, N) for N in ckpts]


def test_table_rate_bounds():
    rate = table_rate(["1/4", "1/8"])
    assert rate.psi(0, 2) == F(1, 8)
    with pytest.raises(RateValidationError):
        rate.psi(0, 3)


def test_psi_sum_large_sqrt_scale():
    # Psi(10^6) for psi(n) = 1/(2 sqrt n) is near 2 sqrt(N) - 1.46
    rate = power_rate("1/2", "1/2")
    psi = psi_sum(rate, 10**6)
    assert isinstance(psi, F)
    assert abs(float(psi) - 1998.54) < 0.02


def test_target_main_term_clipping():
    # center 0: ball [0, psi], so the sum is sum psi(n) (half the free-ball mass)
    rate = constant_rate("1/4")
    sums = target_main_term_sums(rate, ["0"], [4])
    assert sums == [4 * F(1, 4)]
    # interior center: full 2*psi per n
    sums = target_main_term_sums(rate, ["1/2"], [4])
    assert sums == [4 * F(1, 2)]


def test_min_positive_radius():
    rate = power_rate("1/2", 1)
    assert rate.min_positive_radius(100) == F(1, 200)
    assert constant_rate(0).min_positive_radius(50) is None
    assert table_rate(["1/4", "0", "1/16"]).min_positive_radius(3) == F(1, 16)
