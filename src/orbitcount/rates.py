"""Per-axis radius sequences psi_i(n) and their exact partial sums.

A rate is a family of non-negative exact rationals indexed by n >= 1, one
family per coordinate axis.  Available families:

* ``power``      c * n^{-p}          (p rational >= 0; fractional p is
                                      realized at fixed 64-bit dyadic
                                      precision, see ``dyadic_pow``)
* ``power-log``  c * n^{-p} * log(n+1)^{-q}
* ``constant``   c
* ``table``      explicit list of rationals

Evaluation is deterministic and exact, and so are the partial sums
(``_segment_sums``), by one of three paths picked from the rate's type:

* axes with a fixed denominator D (fractional powers, constants, tables)
  stream the integers psi(n) * D into one exact integer sum.  A
  fractional power p = u/v streams the mantissas floor(2^64 n^-p) of
  ``dyadic_pow`` from ``dyadic_mantissas``, a float kernel run on blocks
  of ``_MANTISSA_BLOCK`` n: a float root, the residual 1 - n^u y0^v in
  double-double arithmetic and one series step put 2^64 n^-p within
  2^-33 of a float pair, whose floor is kept only when it lies more than
  ``_MANTISSA_MARGIN`` = 2^-20 from an integer.  Every other n -- those
  near an integer, n = 1, n^u >= 2^53, v outside 2, 3, 4 -- takes the
  exact integer root ``dyadic_mantissa``, so the integers are the same.
  A one-axis sum adds each block of these uint64 mantissas in numpy as two
  32-bit halves; a product of axes multiplies them per n.  Target balls
  of a fractional power past its first unclipped n are 2 psi(n) long, or
  psi(n) at a center 0 or 1, with no per-n clipping;
* product rates whose axes are all ``power`` with an integer p, not all
  0, have terms C / n^P (C the product of the c_i, P > 0 the sum of the
  p_i).  They are summed by binary splitting over lcm denominators: each
  node of the split is a pair (A, L) with sum n^-P = A / L^P over its
  range and L the lcm of the range, so a merge needs only L / L1 and
  L / L2, from one gcd on L1 and L2, never a gcd on L^P, and a Fraction is
  reduced only once per checkpoint.  Target balls take the same sum from
  the first n at which no axis is clipped;
* every other rate sums exact Fraction terms by pairwise (binary-tree)
  reduction (``sum_terms``, plain ``fractions.Fraction``), which is also
  the reference the fast paths are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterator, Sequence

import numpy as np

from ._rationals import (
    DYADIC_BITS,
    DYADIC_SCALE,
    RationalLike,
    as_fraction,
    ceil_div,
    dyadic_log_pow,
    dyadic_mantissa,
    dyadic_pow,
    floor_div,
    iroot,
)


class RateValidationError(ValueError):
    """A rate family has invalid parameters."""


# ---------------------------------------------------------------------------
# Dyadic power mantissas
# ---------------------------------------------------------------------------


#: n per block of ``dyadic_mantissas``: bounds its temporaries, which stay
#: in cache at this size (2^12 to 2^16 all give the same values).
_MANTISSA_BLOCK = 1 << 12

#: A float mantissa is kept only when its corrected value 2^64 y lies
#: farther than this from an integer: 2^13 times the 2^-33 error bound.
_MANTISSA_MARGIN = 2.0**-20

#: Largest |1 - n^u y0^v| under which the error bound holds.
_RESIDUAL_CAP = 2.0**-46

#: Veltkamp's splitter 2^27 + 1: a * _SPLITTER cuts a float into two
#: halves of 26 bits whose pairwise products are exact.
_SPLITTER = 134217729.0

#: The v-th root of a float array for each v the kernel covers.
_ROOTS = {2: np.sqrt, 3: np.cbrt, 4: lambda x: np.sqrt(np.sqrt(x))}


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi + lo = a exactly, each of at most 26 bits."""
    hi = a * _SPLITTER
    hi -= hi - a
    return hi, a - hi


def _float_mantissas(u: int, v: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(m, sure): uint64 candidates for floor(2^64 n^(-u/v)), lo <= n < hi,
    and the mask of those that are certified.

    Needs 2 <= lo, (hi - 1)^u < 2^53 and v in ``_ROOTS``.  Each step is its
    own ufunc call, so nothing is contracted into a fused multiply-add.

    1. n^u is exact in int64 and in float64, and y0 = 1 / root_v(n^u) is
       a float near y = n^(-u/v), with 2^-27 < y0 < 1.  Nothing rests on
       the accuracy of the root: a poor y0 fails the cap of step 3.
    2. The residual e = 1 - n^u y0^v is taken from the double-double
       product h + l of n^u and v factors y0: each step splits
       h * y0 exactly into fl(h * y0) plus a low part (Dekker's two_prod
       on Veltkamp halves) and adds l * y0 to that low part.  With
       |l| <= 4 * 2^-53 |h|, the v <= 4 steps lose at most 2^-102 of the
       product, and 1 - h is exact (Sterbenz), so e is within
       2^-102 + 2^-53 |e| of the true residual E.
    3. y = y0 (1 - E)^(-1/v) = y0 (1 + t) with t = E/v + (v+1) E^2 / (2 v^2)
       + O(E^3); one step takes t from e.  Past |e| > 2^-46
       (``_RESIDUAL_CAP``) nothing below is certified.  Under the cap the
       error of e over v (2^-99.8) and the roundings of e / v and of the
       sum (2^-100 each) keep t within 2^-98.3 of the series at E, whose
       cubic term and the rounding of its square term are below 2^-137;
       y0 * t adds a rounding of 2^-100 y0.
    4. 2^64 y0 is split exactly into F0 = floor(2^64 y0) and its fraction,
       and r = fraction + 2^64 y0 t, |r| < 2^18, rounds by at most 2^-36.

    So 2^64 y lies within 2^64 * 2^-97.9 + 2^-36 < 2^-33 of F0 + r.
    Where the fraction of r is farther than ``_MANTISSA_MARGIN`` from 0 and
    1, floor(2^64 y) is F0 + floor(r), exact in wrapping uint64 arithmetic
    since it is below 2^64.  An n where 2^64 y is an integer (n = 4^j at
    p = 1/2) always lands inside the margin.
    """
    nu = np.arange(lo, hi, dtype=np.int64)
    if u > 1:
        nu **= u
    nu = nu.astype(np.float64)
    y0 = _ROOTS[v](nu)
    np.divide(1.0, y0, out=y0)
    y_hi, y_lo = _split(y0)
    h, l = nu, None
    for _ in range(v):
        # Dekker: h * y0 - p = ((h_hi y_hi - p) + h_hi y_lo + h_lo y_hi) + h_lo y_lo
        p = h * y0
        h_hi, h_lo = _split(h)
        low = h_hi * y_hi - p
        low += h_hi * y_lo
        low += h_lo * y_hi
        low += h_lo * y_lo
        if l is not None:
            l *= y0
            low += l
        h, l = p, low
    e = np.subtract(1.0, h, out=h)
    e -= l
    t = e * e
    t *= (v + 1) / (2 * v * v)
    t += e / v
    t *= y0
    t *= 2.0**64
    y0 *= 2.0**64
    f0 = np.floor(y0)
    r = np.subtract(y0, f0, out=y0)
    r += t
    r_floor = np.floor(r)
    r -= r_floor
    sure = np.abs(e) <= _RESIDUAL_CAP
    sure &= r > _MANTISSA_MARGIN
    sure &= r < 1.0 - _MANTISSA_MARGIN
    m = f0.astype(np.uint64)
    m += r_floor.astype(np.int64).view(np.uint64)
    return m, sure


def dyadic_mantissas(u: int, v: int, lo: int, hi: int) -> np.ndarray:
    """``dyadic_mantissa(n, u, v)`` = floor(2^64 n^(-u/v)) for 2 <= lo <= n
    < hi, as a uint64 array (n >= 2 keeps each below 2^64).

    The n in the kernel's certified domain (n^u < 2^53 and v in ``_ROOTS``,
    which also keeps n^(-u/v) above 2^-27) take the float kernel
    ``_float_mantissas``; every n it does not certify, and every n outside
    that domain, takes the exact integer root.  One call holds arrays of
    hi - lo entries: callers pass blocks of ``_MANTISSA_BLOCK``.
    """
    # [lo, b): the part of [lo, hi) inside the kernel's domain
    b = max(lo, min(hi, iroot((1 << 53) - 1, u) + 1)) if v in _ROOTS else lo
    out = np.empty(hi - lo, dtype=np.uint64)
    if lo < b:
        m, sure = _float_mantissas(u, v, lo, b)
        for i in np.flatnonzero(~sure).tolist():
            m[i] = dyadic_mantissa(lo + i, u, v)
        out[: b - lo] = m
    out[b - lo :] = [dyadic_mantissa(n, u, v) for n in range(b, hi)]
    return out


def _uint64_sum(m: np.ndarray) -> int:
    """Exact sum of a uint64 array of at most 2^32 entries: each 32-bit
    half sums below 2^64 in uint64."""
    return (int((m >> 32).sum()) << 32) + int((m & 0xFFFFFFFF).sum())


def _float(x: Fraction) -> float:
    """Correctly rounded float of ``x``; inf past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class AxisRate:
    """One axis family; subclasses implement ``value``."""

    def value(self, n: int) -> Fraction:
        raise NotImplementedError

    def max_index(self) -> int | None:
        """Largest valid n, or None when unbounded."""
        return None

    def nonincreasing(self) -> bool:
        """True when value(n) is known to be nonincreasing in n."""
        return False

    def fixed_denominator(self) -> int | None:
        """D with value(n)*D integral for every n, or None (e.g. exact 1/n^p)."""
        return None

    def scaled_value(self, n: int, D: int) -> int:
        """value(n) * D as an exact integer (D a multiple of fixed_denominator)."""
        v = self.value(n)
        return v.numerator * (D // v.denominator)

    def scaled_values(self, lo: int, hi: int, D: int) -> Iterator[int]:
        """scaled_value(n, D) for lo <= n < hi, in order."""
        return (self.scaled_value(n, D) for n in range(lo, hi))

    def scaled_sum(self, lo: int, hi: int, D: int) -> int:
        """The sum of ``scaled_values(lo, hi, D)``."""
        return sum(self.scaled_values(lo, hi, D))

    def float_values(self, lo: int, hi: int) -> np.ndarray:
        """float64 psi(n) for lo <= n < hi, for certified threshold cuts.

        Entries of at least 2^-1000 are within relative error 2^-42 of
        value(n), plus the absolute ``float_abs_error()``; smaller entries
        carry no bound.  The default rounds the exact value correctly.
        """
        return np.array([_float(self.value(n)) for n in range(lo, hi)], dtype=np.float64)

    def float_abs_error(self) -> float:
        """Absolute error bound of ``float_values`` on top of the relative one."""
        return 0.0

    def min_positive(self, n_max: int) -> Fraction | None:
        """Smallest nonzero value over n <= n_max, None if every one is zero.

        A nonincreasing rate reads n = n_max and n = 1, and when only the
        first is zero (a dyadic floor reaches 0 before n_max) finds the
        last positive n by bisection.
        """
        if not self.nonincreasing():
            return min((v for v in map(self, range(1, n_max + 1)) if v > 0), default=None)
        lo, hi = 1, n_max
        if self(hi) > 0 or self(lo) == 0:
            return self(hi) or None
        while hi - lo > 1:  # psi(lo) > 0 = psi(hi)
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if self(mid) > 0 else (lo, mid)
        return self(lo)

    def __call__(self, n: int) -> Fraction:
        if n < 1:
            raise ValueError("rates are indexed from n = 1")
        m = self.max_index()
        if m is not None and n > m:
            raise RateValidationError(f"rate table has no entry for n = {n}")
        return self.value(n)


@dataclass(frozen=True)
class PowerRate(AxisRate):
    c: Fraction
    p: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", as_fraction(self.c))
        object.__setattr__(self, "p", as_fraction(self.p))
        if self.c < 0:
            raise RateValidationError("psi must be >= 0: c must be >= 0")
        if self.p < 0:
            raise RateValidationError("power exponent p must be >= 0")

    def value(self, n: int) -> Fraction:
        return self.c * dyadic_pow(n, self.p)

    def nonincreasing(self) -> bool:
        return True

    def fixed_denominator(self) -> int | None:
        if self.p.denominator == 1:
            return None  # exact 1/n^p has unbounded denominators
        return self.c.denominator * DYADIC_SCALE

    # scaled_values and scaled_sum are only called for fractional p
    # (fixed_denominator is None otherwise): the mantissas of dyadic_pow,
    # without building a Fraction per n

    def _mantissas(self, lo: int, hi: int, D: int) -> tuple[int, list[int], Iterator]:
        """(k, head, blocks): psi(n) D = k floor(2^64 n^-p) for lo <= n < hi,
        with n = 1 in the list ``head`` (2^64 is one past uint64) and the
        other n in ``dyadic_mantissas`` blocks."""
        u, v = self.p.numerator, self.p.denominator
        k = self.c.numerator * (D // (self.c.denominator * DYADIC_SCALE))
        head = [dyadic_mantissa(1, u, v)] if lo == 1 < hi else []
        blocks = (
            dyadic_mantissas(u, v, b, min(b + _MANTISSA_BLOCK, hi))
            for b in range(max(lo, 2), hi, _MANTISSA_BLOCK)
        )
        return k, head, blocks

    def scaled_values(self, lo: int, hi: int, D: int) -> Iterator[int]:
        k, head, blocks = self._mantissas(lo, hi, D)
        mantissas = chain(head, chain.from_iterable(block.tolist() for block in blocks))
        return mantissas if k == 1 else map(k.__mul__, mantissas)

    def scaled_sum(self, lo: int, hi: int, D: int) -> int:
        k, head, blocks = self._mantissas(lo, hi, D)
        return k * (sum(head) + sum(map(_uint64_sum, blocks)))

    def float_values(self, lo: int, hi: int) -> np.ndarray:
        # libm pow, the products and the rounding of c and p stay far inside
        # 2^-42: once n^-p >= 2^-1000, p * ln(n) < 700, so rounding p costs
        # below 2^-43.  Smaller powers are set to 0, which no caller trusts.
        x = np.power(np.arange(lo, hi, dtype=np.float64), -_float(self.p))
        x[x < 2.0**-1000] = 0.0
        return _float(self.c) * x

    def float_abs_error(self) -> float:
        # fractional p: value(n) is c * n^-p floored to a multiple of c * 2^-64
        return 0.0 if self.p.denominator == 1 else _float(self.c) * 2.0**-63


@dataclass(frozen=True)
class PowerLogRate(AxisRate):
    c: Fraction
    p: Fraction
    q: Fraction

    def __post_init__(self):
        for name in ("c", "p", "q"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if self.c < 0:
            raise RateValidationError("psi must be >= 0: c must be >= 0")
        if self.p < 0 or self.q < 0:
            raise RateValidationError("exponents must be >= 0")

    def value(self, n: int) -> Fraction:
        return self.c * dyadic_pow(n, self.p) * dyadic_log_pow(n, self.q)

    def nonincreasing(self) -> bool:
        return True

    def fixed_denominator(self) -> int | None:
        if self.p.denominator == 1:
            return None
        return self.c.denominator * DYADIC_SCALE * DYADIC_SCALE

    def float_values(self, lo: int, hi: int) -> np.ndarray:
        # Both factors are at most 1 for n >= 2 (n = 1 gives n^-p = 1), so a
        # product of at least 2^-1000 has normal factors and
        # p * ln(n) + q * ln(ln(n+1)) < 700: rounding p and q costs below
        # 2^-43 together, and the log's few-ulp error, times q <= 16, below
        # 2^-45.  Smaller products are set to 0, which no caller trusts; a
        # larger q takes the exact values.
        if self.q > _FLOAT_MAX_LOG_EXPONENT:
            return super().float_values(lo, hi)
        n = np.arange(lo, hi, dtype=np.float64)
        x = np.power(n, -_float(self.p)) * np.power(np.log(n + 1.0), -_float(self.q))
        x[x < 2.0**-1000] = 0.0
        return _float(self.c) * x

    def float_abs_error(self) -> float:
        # value(n) = c * P * L with P = n^-p and L = log(n+1)^-q each floored
        # to a multiple of 2^-64 (exact when p is an integer or q = 0), so
        # c * n^-p * log(n+1)^-q - value(n) is at most c * 2^-64 * L for the
        # floor of P plus c * 2^-64 for that of L, and L <= log(2)^-q.  Twice
        # each covers the rounding of the bound.  The exact values taken
        # past the q limit are rounded correctly.
        if self.q > _FLOAT_MAX_LOG_EXPONENT:
            return 0.0
        per_floor = _float(self.c) * 2.0**-63
        log_floor = 0.0 if self.q == 0 else per_floor
        pow_floor = 0.0 if self.p.denominator == 1 else per_floor * math.log(2) ** -_float(self.q)
        return pow_floor + log_floor


#: Largest log exponent q whose ``PowerLogRate.float_values`` are computed
#: in float64.
_FLOAT_MAX_LOG_EXPONENT = 16


@dataclass(frozen=True)
class ConstantRate(AxisRate):
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", as_fraction(self.c))
        if self.c < 0:
            raise RateValidationError("psi must be >= 0: c must be >= 0")

    def value(self, n: int) -> Fraction:
        return self.c

    def nonincreasing(self) -> bool:
        return True

    def fixed_denominator(self) -> int | None:
        return self.c.denominator


@dataclass(frozen=True)
class TableRate(AxisRate):
    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(as_fraction(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise RateValidationError("rate table is empty")
        if any(v < 0 for v in vals):
            raise RateValidationError("psi must be >= 0: table has a negative entry")

    def __hash__(self) -> int:
        # hashed once, on first use, as RateFunction is: the caches keyed by it hash it per lookup
        if "_hash" not in self.__dict__:
            object.__setattr__(self, "_hash", hash(self.values))
        return self._hash

    def value(self, n: int) -> Fraction:
        return self.values[n - 1]

    def max_index(self) -> int | None:
        return len(self.values)

    def fixed_denominator(self) -> int | None:
        d = 1
        for v in self.values:
            d = math.lcm(d, v.denominator)
        return d


@dataclass(frozen=True)
class RateFunction:
    """Product rate: one AxisRate per coordinate axis."""

    axes: tuple[AxisRate, ...]

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        if not self.axes:
            raise RateValidationError("a rate needs at least one axis")

    def __hash__(self) -> int:
        # hashed once, on first use: the per-call counter cache hashes its
        # key on every call, and a long table takes a hash per entry
        if "_hash" not in self.__dict__:
            object.__setattr__(self, "_hash", hash(self.axes))
        return self._hash

    @property
    def dimension(self) -> int:
        return len(self.axes)

    def psi(self, axis: int, n: int) -> Fraction:
        return self.axes[axis](n)

    def radii(self, n: int) -> tuple[Fraction, ...]:
        return tuple(a(n) for a in self.axes)

    def product(self, n: int) -> Fraction:
        out = Fraction(1)
        for a in self.axes:
            out *= a(n)
        return out

    def max_index(self) -> int | None:
        bounds = [a.max_index() for a in self.axes if a.max_index() is not None]
        return min(bounds) if bounds else None

    def min_positive_radius(self, n_max: int) -> Fraction | None:
        """Smallest nonzero psi_i(n) over axes and n <= n_max (None if all zero)."""
        radii = [a.min_positive(n_max) for a in self.axes]
        return min((v for v in radii if v is not None), default=None)


def constant_rate(c: RationalLike, dimension: int = 1) -> RateFunction:
    return RateFunction(axes=tuple(ConstantRate(as_fraction(c)) for _ in range(dimension)))


def power_rate(c: RationalLike, p: RationalLike, dimension: int = 1) -> RateFunction:
    return RateFunction(
        axes=tuple(PowerRate(as_fraction(c), as_fraction(p)) for _ in range(dimension))
    )


def table_rate(values: Sequence[RationalLike]) -> RateFunction:
    return RateFunction(axes=(TableRate(tuple(as_fraction(v) for v in values)),))


#: Terms per leaf of the binary-tree sums.
_LEAF = 32


def sum_terms(term: Callable[[int], Fraction], lo: int, hi: int) -> Fraction:
    """Exact sum of term(n) for lo <= n < hi by pairwise reduction.

    Pairwise reduction keeps large-denominator arithmetic at the top of the
    tree, where only O(log) additions happen, instead of in every step.
    """
    if hi - lo <= _LEAF:
        return sum((term(n) for n in range(lo, hi)), Fraction(0))
    mid = (lo + hi) // 2
    return sum_terms(term, lo, mid) + sum_terms(term, mid, hi)


def _clipped_parts(
    axis_rate: AxisRate, center: Fraction | None, D: int, lo: int, hi: int
) -> tuple[Iterator[int], int, int]:
    """(clipped, k, split): the terms for lo <= n < hi of one axis of a
    fixed-denominator sum, D the axis's fixed denominator.  Below ``split``
    they are the entries of ``clipped``, from it on k * psi(n) * D.

    With no center every term is psi(n) * D.  With a center p/q they are
    (q*D) * |[center - psi(n), center + psi(n)] clipped to [0,1]|, which is
    k = 2q times psi(n) D (q at a center 0 or 1) from the first unclipped n.
    """
    if center is None:
        return iter(()), 1, lo
    q = center.denominator
    P, Q = center.numerator * D, q * D
    split = hi
    if isinstance(axis_rate, PowerRate):
        split = min(hi, max(lo, _first_unclipped(axis_rate, center)))
    clipped = (
        max(0, min(Q, P + s * q) - max(0, P - s * q))
        for s in axis_rate.scaled_values(lo, split, D)
    )
    return clipped, q if center in (0, 1) else 2 * q, split


def _inverse_power_split(lo: int, hi: int, P: int) -> tuple[int, int]:
    """(A, L) with sum_{lo<=n<hi} n^-P = A / L^P, L = lcm(lo, ..., hi-1).

    The halves are merged over the lcm of their denominators, which takes
    one gcd on L1 and L2, where adding Fractions would run two on L^P.  An
    empty range gives A = 0 and L = 1.
    """
    if hi - lo <= _LEAF:
        L = math.lcm(*range(lo, hi))
        return sum((L // n) ** P for n in range(lo, hi)), L
    mid = (lo + hi) // 2
    left = _inverse_power_split(lo, mid, P)
    return _merge_inverse_powers(left, _inverse_power_split(mid, hi, P), P)


def _merge_inverse_powers(left: tuple, right: tuple, P: int) -> tuple[int, int]:
    """The ``_inverse_power_split`` node of two adjacent ranges' nodes."""
    (A1, L1), (A2, L2) = left, right
    g = math.gcd(L1, L2)
    u, v = L2 // g, L1 // g
    return A1 * u**P + A2 * v**P, L1 * u


def _first_unclipped(axis_rate: PowerRate, x: Fraction) -> int | float:
    """Smallest n from which the ball of radius psi(n) around x is unclipped.

    That is psi(n) <= min(x, 1 - x) inside (0, 1), or psi(n) <= 1 at x = 0
    or 1, where the clipped length is psi(n) instead of 2 psi(n).  inf when
    no n qualifies (p = 0 and c too large).
    """
    m = 1 if x in (0, 1) else min(x, 1 - x)
    if axis_rate.c <= m:
        return 1
    if axis_rate.p == 0:
        return math.inf
    u, v = axis_rate.p.numerator, axis_rate.p.denominator
    if v > 1:
        # psi(n) = c * floor(2^64 n^-p) / 2^64 <= m  <=>  floor(2^64 n^-p) <= T
        # = floor(2^64 m / c)  <=>  n^u (T + 1)^v > 2^(64 v), n^u an integer
        T = floor_div(m * DYADIC_SCALE / axis_rate.c)
        return iroot((1 << (DYADIC_BITS * v)) // (T + 1) ** v, u) + 1
    # c / n^p <= m  <=>  n^p >= ceil(c / m), n^p being an integer
    t, p = ceil_div(axis_rate.c / m), int(axis_rate.p)
    n = iroot(t, p)
    return n if n**p >= t else n + 1


def _inverse_power_sums(
    rate: RateFunction, ordered: Sequence[int], center: Sequence[Fraction] | None
) -> dict[int, Fraction]:
    """``_segment_sums`` of a rate whose axes are all integer-p ``PowerRate``
    with P = sum p_i > 0.

    The terms are C / n^P, or (prod k_i) C / n^P for target balls from the
    first n at which no axis clips (k_i = 2, or 1 at a center 0 or 1); the
    clipped terms before that n are summed per n as ``ball_volume``.
    """
    C = math.prod(a.c for a in rate.axes)
    P = sum(int(a.p) for a in rate.axes)
    start: int | float = 1
    if center is not None:
        C *= math.prod(1 if x in (0, 1) else 2 for x in center)
        start = max(_first_unclipped(a, x) for a, x in zip(rate.axes, center))
    sums: dict[int, Fraction] = {}
    head, node = Fraction(0), None
    done = 1
    for N in ordered:
        split = max(done, min(N + 1, start))
        if split > done:
            head += sum_terms(lambda n: ball_volume(center, rate.radii(n)), done, split)
        if split <= N:
            segment = _inverse_power_split(split, N + 1, P)
            node = segment if node is None else _merge_inverse_powers(node, segment, P)
        done = N + 1
        sums[N] = head if node is None else head + Fraction(C * node[0], node[1] ** P)
    return sums


def _segment_sums(
    rate: RateFunction,
    checkpoints: Sequence[int],
    center: Sequence[Fraction] | None = None,
) -> dict[int, Fraction]:
    """sum_{n<=N} prod_i psi_i(n) for each requested N, one shared pass.

    With a ``center`` the terms are the clipped ball volumes
    ``ball_volume(center, rate.radii(n))`` instead.  When every axis has a
    fixed denominator the terms are streamed as integers into one exact
    integer sum (``_clipped_parts``), by blocks on one axis and per n across
    axes; when every axis is an integer-p power and some p > 0, they
    are summed over lcm denominators (``_inverse_power_sums``); otherwise
    each term is an exact Fraction.
    """
    ordered = sorted(set(checkpoints))
    if all(isinstance(a, PowerRate) and a.p.denominator == 1 for a in rate.axes) and any(
        a.p for a in rate.axes
    ):
        return _inverse_power_sums(rate, ordered, center)
    sums: dict[int, Fraction] = {}
    done = 1
    D_axes = [a.fixed_denominator() for a in rate.axes]
    if all(d is not None for d in D_axes):
        centers = center or (None,) * rate.dimension
        D = math.prod(D_axes) * math.prod(c.denominator for c in center or ())
        running = 0
        for N in ordered:
            parts = [_clipped_parts(*axis, done, N + 1) for axis in zip(rate.axes, centers, D_axes)]
            if len(parts) == 1:  # one axis: its unclipped terms are summed by blocks
                clipped, k, split = parts[0]
                running += sum(clipped) + k * rate.axes[0].scaled_sum(split, N + 1, D_axes[0])
            else:
                streams = []
                for (clipped, k, split), a, d in zip(parts, rate.axes, D_axes):
                    tail = a.scaled_values(split, N + 1, d)
                    streams.append(chain(clipped, tail if k == 1 else map(k.__mul__, tail)))
                running += sum(map(math.prod, zip(*streams)))
            done = N + 1
            sums[N] = Fraction(running, D)
        return sums
    if center is None:
        term = rate.product
    else:
        term = lambda n: ball_volume(center, rate.radii(n))
    running = Fraction(0)
    for N in ordered:
        running += sum_terms(term, done, N + 1)
        done = N + 1
        sums[N] = running
    return sums


def psi_sum(rate: RateFunction, N: int) -> Fraction:
    """The divergence-side main term: 2^d * sum_{n<=N} prod_i psi_i(n), exact."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return (1 << rate.dimension) * _segment_sums(rate, [N])[N]


def psi_partial_sums(rate: RateFunction, checkpoints: Sequence[int]) -> list[Fraction]:
    """psi_sum at each checkpoint, sharing one pass over segments."""
    sums = _segment_sums(rate, checkpoints)
    return [(1 << rate.dimension) * sums[N] for N in checkpoints]


def ball_volume(center: Sequence[Fraction], radii: Sequence[Fraction]) -> Fraction:
    """Volume of the coordinate-parallel ball around ``center`` clipped to [0,1]^d."""
    v = Fraction(1)
    for c, r in zip(center, radii):
        lo = max(Fraction(0), c - r)
        hi = min(Fraction(1), c + r)
        if hi <= lo:
            return Fraction(0)
        v *= hi - lo
    return v


def target_main_term_sums(
    rate: RateFunction, center: Sequence[RationalLike], checkpoints: Sequence[int]
) -> list[Fraction]:
    """sum_{n<=N} vol(B(center, psi(n)) clipped) at each checkpoint, exact.

    By invariance of Lebesgue measure this equals the exact measure sum of
    the pullback events, so it serves as the shrinking-target main term at
    any N without enumerating cylinders.
    """
    sums = _segment_sums(rate, checkpoints, tuple(as_fraction(x) for x in center))
    return [sums[N] for N in checkpoints]
