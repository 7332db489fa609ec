"""Small exact-arithmetic helpers shared across modules.

Everything here is pure integer / Fraction math; no floats are produced
except by the explicit ``*_float`` formatters.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

import numpy as np

RationalLike = Union[Fraction, int, str]

#: Fixed dyadic scale used when a rate family needs an irrational value
#: (n^{-p} for fractional p, log powers).  2**64 keeps the rounding error
#: far below anything the statistics can see while staying exact.
DYADIC_BITS = 64
DYADIC_SCALE = 1 << DYADIC_BITS


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions and "p/q" strings to Fraction.

    Strings must be integers or "p/q" with integer p, q; plain decimals are
    rejected on purpose so configs can never smuggle in binary rounding.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            return Fraction(int(num.strip()), int(den.strip()))
        return Fraction(int(text))
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


#: Widest part, in decimal digits, that ``format_fraction`` writes in
#: decimal: CPython's default ``str(int)`` limit, fixed here so that the
#: output does not depend on the process's ``sys.get_int_max_str_digits()``.
DECIMAL_MAX_DIGITS = 4300
_DECIMAL_BOUND = 10**DECIMAL_MAX_DIGITS


def format_fraction(value: Fraction) -> str:
    """Render a Fraction as the canonical "p/q" (or "p" when integral).

    When a part has more than ``DECIMAL_MAX_DIGITS`` decimal digits, both
    parts are written in hexadecimal instead ("0x.../0x...", read back by
    ``int(part, 16)``): exact, and linear in the size, where decimal
    conversion is quadratic.
    """
    parts = (value.numerator,) if value.denominator == 1 else (value.numerator, value.denominator)
    wide = any(abs(part) >= _DECIMAL_BOUND for part in parts)
    return "/".join(map(hex if wide else str, parts))


def floor_div(value: Fraction) -> int:
    """Exact floor of a rational."""
    return value.numerator // value.denominator


def ceil_div(value: Fraction) -> int:
    """Exact ceiling of a rational."""
    return -((-value.numerator) // value.denominator)


def iroot(n: int, k: int) -> int:
    """Exact floor(n ** (1/k)) for non-negative integer n, k >= 1."""
    if n < 0:
        raise ValueError("iroot of negative integer")
    if k == 1 or n in (0, 1):
        return n
    if k == 2:
        import math

        return math.isqrt(n)
    # Newton iteration on integers; converges from above.
    x = 1 << (-(-n.bit_length() // k))
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    return x


def dyadic_pow(n: int, p: Fraction) -> Fraction:
    """Deterministic exact-rational stand-in for n**(-p), p >= 0 rational.

    Integer exponents give the exact value 1/n^p.  Fractional exponents
    give floor(2^64 * n^{-p}) / 2^64, computed purely with integer roots,
    so the result is always a dyadic rational within 2^-64 of the real
    number and identical on every platform.  Keeping the denominator a
    divisor of 2^64 makes million-term sums of these values cheap and
    exact.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if p < 0:
        raise ValueError("exponent must be >= 0")
    u, v = p.numerator, p.denominator
    if v == 1:
        return Fraction(1, n**u)
    return Fraction(dyadic_mantissa(n, u, v), DYADIC_SCALE)


def dyadic_mantissa(n: int, u: int, v: int) -> int:
    """floor(2^64 * n^(-u/v)) for n >= 1, as floor((2^(64 v) / n^u)^(1/v)).

    Flooring the radicand first changes nothing: an integer k is at most
    x^(1/v) exactly when k^v <= floor(x).
    """
    return iroot((1 << (DYADIC_BITS * v)) // n**u, v)


def dyadic_log_pow(n: int, q: Fraction) -> Fraction:
    """Deterministic dyadic value of log(n+1)^{-q} (natural log), q >= 0.

    Evaluated with mpmath at 192-bit precision and floored to 64 fractional
    bits, so the value is an exact rational and reproducible.
    """
    if q == 0:
        return Fraction(1)
    import mpmath

    with mpmath.workprec(192):
        value = mpmath.log(n + 1) ** (-mpmath.mpf(q.numerator) / q.denominator)
        mantissa = int(mpmath.floor(value * DYADIC_SCALE))
    return Fraction(mantissa, DYADIC_SCALE)


def splitmix64(x):
    """One output of the SplitMix64 mixer for a 64-bit state: an int, or a
    uint64 array, whose arithmetic wraps as the masks do."""
    mask = (1 << 64) - 1
    x = (x + 0x9E3779B97F4A7C15) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


def derive_point_seed(master_seed: int, point_index: int) -> int:
    """Per-point 64-bit seed: SplitMix64 hash of (master_seed, point_index).

    Documented stream-derivation rule: two SplitMix64 rounds, the first
    keyed by the master seed, the second by the point index.
    """
    mask = (1 << 64) - 1
    return splitmix64(splitmix64(master_seed & mask) ^ (point_index & mask))


def derive_point_seeds(master_seed: int, count: int) -> np.ndarray:
    """uint64 ``derive_point_seed(master_seed, i)`` for i < ``count``, the
    second round on the whole array."""
    first = splitmix64(master_seed & ((1 << 64) - 1))
    return splitmix64(np.arange(count, dtype=np.uint64) ^ np.uint64(first))
