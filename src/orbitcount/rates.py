"""Per-axis radius sequences psi_i(n) and their exact partial sums.

A rate is a family of non-negative exact rationals indexed by n >= 1, one
family per coordinate axis.  Available families:

* ``power``      c * n^{-p}          (p rational >= 0; fractional p is
                                      realized at fixed 64-bit dyadic
                                      precision, see ``dyadic_pow``)
* ``power-log``  c * n^{-p} * log(n+1)^{-q}
* ``constant``   c
* ``table``      explicit list of rationals

Evaluation is deterministic and exact.  Partial sums are computed by
pairwise (binary-tree) reduction so that rates with unbounded denominators
(for example exact 1/(2n)) stay feasible up to N in the millions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import repeat
from typing import Callable, Iterator, Sequence

import numpy as np

from ._rationals import (
    DYADIC_BITS,
    DYADIC_SCALE,
    RationalLike,
    as_fraction,
    dyadic_log_pow,
    dyadic_pow,
    iroot,
)


class RateValidationError(ValueError):
    """A rate family has invalid parameters."""


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

    def scaled_values(self, lo: int, hi: int, D: int) -> Iterator[int]:
        # only called for fractional p (fixed_denominator is None otherwise):
        # the mantissa of dyadic_pow, without building a Fraction per n
        u, v = self.p.numerator, self.p.denominator
        k = self.c.numerator * (D // (self.c.denominator * DYADIC_SCALE))
        powers = range(lo, hi) if u == 1 else map(pow, range(lo, hi), repeat(u))
        radicands = map((1 << (DYADIC_BITS * v)).__floordiv__, powers)
        mantissas = (
            map(math.isqrt, radicands) if v == 2 else map(iroot, radicands, repeat(v))
        )
        return mantissas if k == 1 else map(k.__mul__, mantissas)

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
        best: Fraction | None = None
        for a in self.axes:
            if a.nonincreasing():
                candidates = (a(n_max), a(1))
            else:
                candidates = (a(n) for n in range(1, n_max + 1))
            for v in candidates:
                if v > 0 and (best is None or v < best):
                    best = v
        return best


def constant_rate(c: RationalLike, dimension: int = 1) -> RateFunction:
    return RateFunction(axes=tuple(ConstantRate(as_fraction(c)) for _ in range(dimension)))


def power_rate(c: RationalLike, p: RationalLike, dimension: int = 1) -> RateFunction:
    return RateFunction(
        axes=tuple(PowerRate(as_fraction(c), as_fraction(p)) for _ in range(dimension))
    )


def table_rate(values: Sequence[RationalLike]) -> RateFunction:
    return RateFunction(axes=(TableRate(tuple(as_fraction(v) for v in values)),))


try:  # GMP-backed rationals make million-term exact sums feasible
    from gmpy2 import mpq as _mpq
except ImportError:  # pragma: no cover
    _mpq = None


def _sum_tree(term: Callable[[int], Fraction], lo: int, hi: int):
    if hi - lo <= 32:
        total = _mpq(0) if _mpq is not None else Fraction(0)
        for n in range(lo, hi):
            v = term(n)
            total += _mpq(v.numerator, v.denominator) if _mpq is not None else v
        return total
    mid = (lo + hi) // 2
    return _sum_tree(term, lo, mid) + _sum_tree(term, mid, hi)


def sum_terms(term: Callable[[int], Fraction], lo: int, hi: int) -> Fraction:
    """Exact sum of term(n) for lo <= n < hi by pairwise reduction.

    Pairwise reduction keeps large-denominator arithmetic at the top of the
    tree, where only O(log) additions happen, instead of in every step.
    """
    if hi <= lo:
        return Fraction(0)
    total = _sum_tree(term, lo, hi)
    return Fraction(total.numerator, total.denominator)


def _clipped_lengths(
    axis_rate: AxisRate, center: Fraction, D: int, lo: int, hi: int
) -> Iterator[int]:
    """(q*D) * |[center - psi(n), center + psi(n)] clipped to [0,1]| for
    lo <= n < hi, where center = p/q and D is the rate's fixed denominator."""
    q = center.denominator
    P, Q = center.numerator * D, q * D
    return (
        max(0, min(Q, P + s * q) - max(0, P - s * q))
        for s in axis_rate.scaled_values(lo, hi, D)
    )


def _segment_sums(
    rate: RateFunction,
    checkpoints: Sequence[int],
    center: Sequence[Fraction] | None = None,
) -> dict[int, Fraction]:
    """sum_{n<=N} prod_i psi_i(n) for each requested N, one shared pass.

    With a ``center`` the terms are the clipped ball volumes
    ``ball_volume(center, rate.radii(n))`` instead.  When every axis has a
    fixed denominator the terms are streamed as integers into one exact
    integer sum; otherwise each term is an exact Fraction.
    """
    ordered = sorted(set(checkpoints))
    sums: dict[int, Fraction] = {}
    done = 1
    D_axes = [a.fixed_denominator() for a in rate.axes]
    if all(d is not None for d in D_axes):
        if center is None:
            streams = [partial(a.scaled_values, D=d) for a, d in zip(rate.axes, D_axes)]
            D = math.prod(D_axes)
        else:
            streams = [
                partial(_clipped_lengths, a, c, d)
                for a, c, d in zip(rate.axes, center, D_axes)
            ]
            D = math.prod(c.denominator * d for c, d in zip(center, D_axes))
        running = 0
        for N in ordered:
            gens = [stream(done, N + 1) for stream in streams]
            running += sum(gens[0]) if len(gens) == 1 else sum(map(math.prod, zip(*gens)))
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
