"""Lebesgue-generic sample points as lazy random itineraries.

A point is represented by one branch-symbol stream per axis.  Symbols are
drawn with probability equal to the branch domain length, so the induced
distribution of the point is Lebesgue; the depth-k prefix pins the point
inside a depth-k cylinder whose width shrinks by at least the expansion
factor per symbol.  Orbit positions T^n(x) are read off the same stream
shifted by n, which is what makes exact distance comparisons at n up to
10^6 feasible: no orbit is ever simulated in floating point.

One exact comparison serves every axis: ``axis_distance_outcome`` on
integer enclosures over one denominator (``_axis_enclosure``).
``point_outcome`` combines the axes; it is the per-n reference path of
``distance_predicate`` and of both counting engines.

Randomness contract (bit-exact, documented in the README): per-axis streams
are the raw 64-bit outputs of numpy's PCG64 seeded with
``SeedSequence(entropy=seed, spawn_key=(axis,))``.  A single point takes the
seed words from ``np.random.SeedSequence`` itself, the reference; a plan
computes the same words for all its points at once in numpy
(``seed_states``) and hands each point its row.  A raw output u is mapped
to the symbol s = #{j : B_j <= u}, the number of cuts B_j = ceil(cum_j * 2^64)
at or below u, where cum_j are the exact cumulative branch lengths of the
first b - 1 branches.  So s is the branch with cum_s <= u/2^64 < cum_{s+1}
up to the rounding of the cuts.  Per-point seeds in experiments are derived
as ``derive_point_seed(master_seed, point_index)`` (two SplitMix64 rounds).
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

logger = logging.getLogger(__name__)

from ._rationals import as_fraction, derive_point_seed  # noqa: F401
from .maps import MapSpec, word_interval

#: Extra symbols a predicate may consume past its initial window before
#: giving up and reporting Unresolved.
REFINE_EXTRA = 256

DEFAULT_DEPTH_LIMIT = 2_000_000


class PrecisionBudgetError(RuntimeError):
    """A query needs more realized symbols than the configured budget."""


class Outcome(enum.Enum):
    HIT = "hit"
    MISS = "miss"
    UNRESOLVED = "unresolved"


def symbol_thresholds(map_spec: MapSpec, axis: int) -> np.ndarray:
    """uint64 cut points for drawing axis symbols from raw 64-bit values.

    B_s = ceil(cum_s * 2^64) for s = 1..b-1, where cum_s, the total length
    of the first s branches, is the left end of branch s (the branches
    partition [0,1) in order); the cuts increase and are at least 1.  Raw
    value u maps to the symbol #{s : B_s <= u}, the number of cuts at or
    below u.  Built once with the map (``MapSpec.draw_tables``), read-only.
    """
    return map_spec.draw_tables(axis)[0]


#: numpy's ``SeedSequence`` hash constants (M. E. O'Neill's seed_seq_fe).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashes(init: int, mult: int, ks) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) uint32 columns of hashes ``ks``: hash k xors with
    init mult^k and multiplies by init mult^(k+1), mod 2^32."""
    return tuple(
        np.array([[init * mult ** (k + d) % 2**32] for k in ks], dtype=np.uint32) for d in (0, 1)
    )


#: Hashes 0-3 fill the pool of four words; round s (hashes 4 + 3s to 6 + 3s)
#: mixes a hash of pool word s into each other word j, in order of j, while
#: row s keeps its word (its column is a placeholder); hashes 16-19 mix the
#: spawn word into all four.  Output word 4a + b hashes pool word b.
_FILL = _hashes(_INIT_A, _MULT_A, range(4))
_ROUNDS = [_hashes(_INIT_A, _MULT_A, [4 + 3 * s + j - (j > s) for j in range(4)]) for s in range(4)]
_SPAWN = _hashes(_INIT_A, _MULT_A, range(16, 20))
_OUTPUT = tuple(c.reshape(2, 4, 1) for c in _hashes(_INIT_B, _MULT_B, range(8)))


def _hashmix(values, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """One hash per row of the constants (``values`` broadcast against them)."""
    h = values ^ xor
    h *= mult
    h ^= h >> 16
    return h


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The mixer's (L x - R y) mod 2^32, xorshifted."""
    h = x * _MIX_L
    h -= y * _MIX_R
    h ^= h >> 16
    return h


def seed_states(seeds: np.ndarray, axis: int) -> np.ndarray:
    """(S, 4) uint64 (a transposed view): row i is ``SeedSequence(entropy=seeds[i],
    spawn_key=(axis,)).generate_state(4, np.uint64)``, for uint64 seeds.

    With a spawn key numpy pads the entropy of a seed to the pool of four
    words, so every seed below 2^64 mixes the five words (lo, hi, 0, 0,
    axis), lo and hi its uint32 halves.  No hash constant depends on the
    data, so each step is one array operation over all seeds: filling the
    pool, each of the four mixing rounds, the spawn word and the eight
    output words, paired low word first into uint64.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & np.uint64(0xFFFFFFFF)
    pool[1] = seeds >> np.uint64(32)
    pool = _hashmix(pool, *_FILL)
    for s, hashes in enumerate(_ROUNDS):
        mixed = _mix(pool, _hashmix(pool[s], *hashes))
        mixed[s] = pool[s]
        pool = mixed
    pool = _mix(pool, _hashmix(np.uint32(axis), *_SPAWN))
    words = _hashmix(pool, *_OUTPUT).astype(np.uint64).reshape(8, -1)
    words[1::2] <<= np.uint64(32)
    return (words[0::2] | words[1::2]).T


@lru_cache(maxsize=1)
def _seed_words_type() -> type:
    """The seed sequence that gives ``np.random.PCG64`` one axis's four
    uint64 words of ``seed_states``.  Made on first use, so that importing
    the package does not import ``numpy.random`` (about 6 MiB)."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("precomputed seed words are four uint64 words")
            return np.ascontiguousarray(self.words, dtype=np.uint64)

    return SeedWords


#: Raw values per block of ``_PrngSource.draw``.
_DRAW_BLOCK = 1 << 16


class _PrngSource:
    def __init__(self, map_spec: MapSpec, axis: int, seed: int, words=None):
        if words is None:
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(axis,))
        else:
            ss = _seed_words_type()(words)
        self._bits = np.random.PCG64(ss)
        root, *self._levels = map_spec.draw_tables(axis)[1]
        self._root = root[0]

    def draw(self, count: int) -> np.ndarray:
        """Symbols of the next ``count`` raw values: one vectorized pass per
        tree level, ceil(log2 b) in all, in blocks whose temporaries stay in
        cache (the raw stream does not depend on the block sizes)."""
        out = np.empty(count, dtype=np.uint32)
        for lo in range(0, count, _DRAW_BLOCK):
            raw = self._bits.random_raw(min(_DRAW_BLOCK, count - lo))
            s = raw > self._root
            if self._levels:
                s = s.astype(np.intp)  # gathers index fastest with intp
                for level in self._levels:
                    right = raw > level[s]
                    s <<= 1
                    s += right
            out[lo : lo + len(raw)] = s
        return out


class _CycleSource:
    def __init__(self, cycle: Sequence[int]):
        self._cycle = np.asarray(cycle, dtype=np.uint32)
        self._pos = 0

    def draw(self, count: int) -> np.ndarray:
        idx = (self._pos + np.arange(count)) % len(self._cycle)
        self._pos += count
        return self._cycle[idx]


@dataclass(frozen=True)
class Enclosure:
    """Per-axis exact interval around the point at some realized depth."""

    depth: int
    intervals: tuple[tuple[Fraction, Fraction], ...]


class GenericPoint:
    """A lazily realized point; confine each instance to one worker at a time.

    Extension is append-only: realized symbols never change, so any two
    query schedules over the same point observe the same stream.
    """

    def __init__(self, map_spec: MapSpec, sources, seed=None, depth_limit=DEFAULT_DEPTH_LIMIT):
        self.map = map_spec
        self.seed = seed
        self.depth_limit = depth_limit
        self._sources = sources
        self._symbols = [np.empty(0, dtype=np.uint32) for _ in sources]
        self._counts = [0] * len(sources)

    @property
    def realized_depth(self) -> int:
        return max(self._counts) if self._counts else 0

    def symbols(self, axis: int, count: int) -> np.ndarray:
        """First ``count`` symbols of the axis stream, extending lazily."""
        if count > self.depth_limit:
            raise PrecisionBudgetError(
                f"depth {count} exceeds the precision budget {self.depth_limit}"
            )
        have = self._counts[axis]
        if count > have:
            grow = max(count - have, 64, have // 2)
            grow = min(grow, self.depth_limit - have)
            fresh = self._sources[axis].draw(grow)
            # a first draw is stored as it is, not copied onto an empty array
            self._symbols[axis] = (
                np.concatenate([self._symbols[axis][:have], fresh]) if have else fresh
            )
            self._counts[axis] = have + len(fresh)
        return self._symbols[axis][:count]

    def word(self, axis: int, start: int, stop: int) -> tuple[int, ...]:
        return tuple(int(s) for s in self.symbols(axis, stop)[start:stop])


def sample_point(
    map_spec: MapSpec,
    seed: int,
    depth_limit: int = DEFAULT_DEPTH_LIMIT,
    states: np.ndarray | None = None,
) -> GenericPoint:
    """A Lebesgue-distributed point determined entirely by (map, seed).

    ``states[axis]``, when given, is the axis's row of ``seed_states`` for
    this seed: the words ``np.random.SeedSequence`` would give, computed
    for a whole plan at once.
    """
    sources = [
        _PrngSource(map_spec, axis, seed, None if states is None else states[axis])
        for axis in range(map_spec.dimension)
    ]
    return GenericPoint(map_spec, sources, seed=seed, depth_limit=depth_limit)


def forced_point(
    map_spec: MapSpec,
    cycles: Sequence[Sequence[int]],
    depth_limit: int = DEFAULT_DEPTH_LIMIT,
) -> GenericPoint:
    """Test constructor: per-axis periodic symbol streams."""
    if len(cycles) != map_spec.dimension:
        raise ValueError("need one symbol cycle per axis")
    for axis, cyc in enumerate(cycles):
        limit = len(map_spec.axes[axis])
        if any(not 0 <= s < limit for s in cyc):
            raise ValueError(f"axis {axis}: symbol out of range")
    sources = [_CycleSource(c) for c in cycles]
    return GenericPoint(map_spec, sources, seed=None, depth_limit=depth_limit)


def enclose(point: GenericPoint, depth: int) -> Enclosure:
    """The depth-k cylinder rectangle containing the point (monotone in k)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    ends = (_axis_enclosure(point, axis, 0, depth) for axis in range(point.map.dimension))
    ivs = tuple((Fraction(lo, B), Fraction(hi, B)) for lo, hi, B in ends)
    return Enclosure(depth=depth, intervals=ivs)


def _axis_enclosure(
    point: GenericPoint, axis: int, start: int, depth: int
) -> tuple[int, int, int]:
    """(lo, hi, B): the exact interval around T^start(x)_axis from ``depth``
    symbols, as integers over the denominator B > 0.

    An axis with integer slopes and offsets composes its tables in Python
    ints, exact at any depth; any other axis puts the Fraction ends of
    ``word_interval`` over one denominator.  B depends on the word, so two
    enclosures of one axis need not share it.
    """
    tables = point.map.axis_int_tables(axis)
    if tables is None:
        lo, hi, _, _ = word_interval(point.map.axes[axis], point.word(axis, start, start + depth))
        B = math.lcm(lo.denominator, hi.denominator)
        return lo.numerator * (B // lo.denominator), hi.numerator * (B // hi.denominator), B
    slopes, offsets = tables
    K, z = 1, 0
    for s in point.symbols(axis, start + depth)[start : start + depth].tolist():
        K = slopes[s] * K
        z = slopes[s] * z + offsets[s]
    if K > 0:
        return z, z + 1, K
    return -(z + 1), -z, -K


def _ceil_log_expansion(lam: Fraction, value: Fraction) -> int:
    """Smallest k >= 0 with lam^k >= value (lam > 1); estimated past 2 DEFAULT_DEPTH_LIMIT."""
    if (k := _approx_log_expansion(lam, value)) > 2 * DEFAULT_DEPTH_LIMIT:
        return k
    k = 0
    power = Fraction(1)
    while power < value:
        power *= lam
        k += 1
    return k


def _approx_log_expansion(lam: Fraction, value: Fraction) -> int:
    """Fast ~ceil(log_lam(value)); off-by-one is harmless (it only shifts
    the refinement start depth, never the exactness of a comparison)."""
    if value <= 1:
        return 0
    log_v = math.log(value.numerator) - math.log(value.denominator)
    log_l = math.log(lam.numerator) - math.log(lam.denominator)
    if log_l == 0.0:  # lam within float resolution of 1
        log_l = math.log1p((lam.numerator - lam.denominator) / lam.denominator)
    return max(0, math.ceil(log_v / log_l))


def _refine_schedule(base: int) -> list[int]:
    return [base + 8, base + 24, base + 56, base + 120, base + REFINE_EXTRA]


def axis_distance_outcome(
    point: GenericPoint,
    axis: int,
    n: int,
    psi: Fraction,
    metric: str = "interval",
    center: Fraction | None = None,
) -> Outcome:
    """Decide dist(T^n(x)_axis, ref) < psi for ref = x_axis or a fixed center.

    Works on shrinking exact interval enclosures of T^n(x) (the shifted
    stream) and of the reference, refined until the strict comparison is
    decisive or the refinement budget is exhausted.  Both enclosures are
    integers over their own denominators (``_axis_enclosure``), so each
    comparison is cross-multiplied over the product of the two.
    """
    if psi <= 0:
        return Outcome.MISS
    lam = point.map.axis_expansion(axis)
    start_depth = _approx_log_expansion(lam, Fraction(psi.denominator, psi.numerator))
    p, q = psi.numerator, psi.denominator
    for depth in _refine_schedule(start_depth):
        try:
            y_lo, y_hi, By = _axis_enclosure(point, axis, n, depth)
            if center is None:
                x_lo, x_hi, Bx = _axis_enclosure(point, axis, 0, depth)
            else:
                x_lo = x_hi = center.numerator
                Bx = center.denominator
        except PrecisionBudgetError:
            logger.warning(
                "precision budget hit deciding axis %d at n=%d (depth %d); "
                "reporting Unresolved",
                axis,
                n,
                depth,
            )
            return Outcome.UNRESOLVED
        den = By * Bx
        y_lo, y_hi = y_lo * Bx, y_hi * Bx
        x_lo, x_hi = x_lo * By, x_hi * By
        hi = max(y_hi - x_lo, x_hi - y_lo)
        lo = max(0, y_lo - x_hi, x_lo - y_hi)
        if metric == "torus":
            hi, lo = min(hi, den - lo), min(lo, den - hi)
        if hi * q < p * den:
            return Outcome.HIT
        if lo * q >= p * den:
            return Outcome.MISS
    return Outcome.UNRESOLVED


def point_outcome(
    point: GenericPoint,
    n: int,
    radius: Callable[[int], Fraction],
    metric: str = "interval",
    center: Sequence[Fraction] | None = None,
) -> Outcome:
    """Hit iff ``axis_distance_outcome`` is a hit on every axis: the exact
    per-n reference of every counting engine.  The first miss decides, so
    ``radius(axis)``, the axis's psi(n), is read only for the axes reached;
    unresolved when no axis misses and one is unresolved."""
    unresolved = False
    for axis in range(point.map.dimension):
        out = axis_distance_outcome(
            point,
            axis,
            n,
            radius(axis),
            metric=metric,
            center=None if center is None else center[axis],
        )
        if out is Outcome.MISS:
            return Outcome.MISS
        if out is Outcome.UNRESOLVED:
            unresolved = True
    return Outcome.UNRESOLVED if unresolved else Outcome.HIT


def distance_predicate(
    map_spec: MapSpec,
    point: GenericPoint,
    n: int,
    radii: Sequence,
    metric: str = "interval",
    center: Sequence | None = None,
) -> Outcome:
    """Hit iff dist(T^n(x)_i, ref_i) < psi_i on every axis (strict).

    ``center=None`` gives the recurrence predicate (reference is the point
    itself); otherwise the shrinking-target predicate around the center.
    Unresolved is returned only when an axis comparison stays undecided at
    the refinement cap; callers count it as a miss and tally it.
    """
    if point.map is not map_spec and point.map != map_spec:
        raise ValueError("point was sampled from a different map")
    if n < 1:
        raise ValueError("n must be >= 1")
    cen = [as_fraction(c) for c in center] if center is not None else None
    return point_outcome(point, n, lambda axis: as_fraction(radii[axis]), metric, cen)
