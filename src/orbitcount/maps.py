"""Expanding piecewise-linear full-branch maps on [0,1]^d and their cylinder sets.

A map is a product of one-dimensional maps, one per coordinate axis.  Each
axis map is given by an ordered list of affine branches x -> slope*x - offset
on half-open domains [left, right) that partition [0,1), every branch mapping
its domain onto the full interval (possibly orientation-reversed, as in the
tent map).  Compositions of branches along an itinerary are again affine;
``Cylinder`` records the depth-m domain rectangle together with the composed
slope and offset per axis.

All arithmetic is exact (``fractions.Fraction``); every object is immutable
and every function is pure.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from ._rationals import RationalLike, as_fraction

ZERO = Fraction(0)
ONE = Fraction(1)

#: The usual cap of ``check_depth``: no enumeration has more cylinders.
DEFAULT_CYLINDER_CAP = 1 << 24


class MapValidationError(ValueError):
    """A branch list fails the full-branch / partition invariants."""


class DepthCapError(RuntimeError):
    """A requested depth would enumerate more cylinders than the cap allows."""


@dataclass(frozen=True)
class Branch1D:
    """One affine branch x -> slope*x - offset on [left, right).

    The branch must send its domain onto [0,1] exactly: |slope|*(right-left)
    must equal 1, with image endpoints {0, 1} in either orientation.
    """

    left: Fraction
    right: Fraction
    slope: Fraction
    offset: Fraction

    def __post_init__(self):
        for name in ("left", "right", "slope", "offset"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if not (ZERO <= self.left < self.right <= ONE):
            raise MapValidationError(
                f"branch domain [{self.left},{self.right}) is not inside [0,1]"
            )
        if abs(self.slope) <= 1:
            raise MapValidationError(f"branch slope {self.slope} is not expanding")
        if abs(self.slope) * (self.right - self.left) != 1:
            raise MapValidationError(
                f"branch image is not [0,1]: |{self.slope}|*({self.right}-{self.left}) != 1"
            )
        lo = self.slope * self.left - self.offset
        hi = self.slope * self.right - self.offset
        if {lo, hi} != {ZERO, ONE}:
            raise MapValidationError(
                f"branch image is [{min(lo, hi)},{max(lo, hi)}], expected [0,1]"
            )

    def __call__(self, x: Fraction) -> Fraction:
        return self.slope * x - self.offset


def _validate_axis(branches: Sequence[Branch1D], axis: int) -> None:
    if not branches:
        raise MapValidationError(f"axis {axis}: empty branch list")
    cursor = ZERO
    for j, b in enumerate(branches):
        if b.left != cursor:
            raise MapValidationError(
                f"axis {axis}: branch domains do not partition [0,1) "
                f"(gap or overlap at {cursor})"
            )
        if (1 - b.left) * (1 << 64) < 1:  # its symbol cut ceil(left 2^64) must fit uint64
            raise MapValidationError(f"axis {axis}: branch {j} starts within 2^-64 of 1")
        cursor = b.right
    if cursor != ONE:
        raise MapValidationError(f"axis {axis}: branch domains stop at {cursor} != 1")
    total = sum(Fraction(1) / abs(b.slope) for b in branches)
    if total != 1:
        raise MapValidationError(
            f"axis {axis}: sum of 1/|slope| is {total} != 1 (not measure preserving)"
        )


@dataclass(frozen=True)
class MapSpec:
    """A product of full-branch axis maps; the whole object is immutable."""

    axes: tuple[tuple[Branch1D, ...], ...]

    def __post_init__(self):
        axes = tuple(tuple(a) for a in self.axes)
        object.__setattr__(self, "axes", axes)
        if not axes:
            raise MapValidationError("a map needs at least one axis")
        for i, branches in enumerate(axes):
            _validate_axis(branches, i)
        object.__setattr__(
            self, "_lefts", tuple(tuple(b.left for b in a) for a in axes)
        )
        tables = []
        for branches in axes:
            if all(
                b.slope.denominator == 1 and b.offset.denominator == 1 for b in branches
            ):
                tables.append(
                    (
                        tuple(int(b.slope) for b in branches),
                        tuple(int(b.offset) for b in branches),
                    )
                )
            else:
                tables.append(None)
        object.__setattr__(self, "_int_tables", tuple(tables))
        # slope +-b on every branch: the validator then forces domains j/b and b >= 2
        object.__setattr__(
            self,
            "_signed_bases",
            tuple(
                None
                if t is None or len({abs(k) for k in t[0]}) != 1
                else (abs(t[0][0]), tuple(k < 0 for k in t[0]))
                for t in tables
            ),
        )
        object.__setattr__(self, "_draw_tables", tuple(_draw_tables(a) for a in axes))
        object.__setattr__(
            self, "_expansion", min(abs(b.slope) for a in axes for b in a)
        )
        object.__setattr__(
            self, "_axis_expansions", tuple(min(abs(b.slope) for b in a) for a in axes)
        )
        # hashed once: the per-call counter cache hashes its key on every call
        object.__setattr__(self, "_hash", hash(axes))

    def __hash__(self) -> int:
        return self._hash

    @property
    def dimension(self) -> int:
        return len(self.axes)

    @property
    def expansion(self) -> Fraction:
        """The uniform expansion constant: min |slope| over all branches."""
        return self._expansion

    def axis_expansion(self, axis: int) -> Fraction:
        return self._axis_expansions[axis]

    def branch_counts(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.axes)

    def cylinder_count(self, depth: int) -> int:
        return math.prod(n**depth for n in self.branch_counts())

    def branch_index(self, axis: int, x: Fraction) -> int:
        """Index of the branch whose half-open domain contains x; x=1 -> last."""
        if x == 1:
            return len(self.axes[axis]) - 1
        return bisect_right(self._lefts[axis], x) - 1

    def axis_signed_base(self, axis: int) -> tuple[int, tuple[bool, ...]] | None:
        """(b, flips) if every branch on the axis has slope +b or -b (integer b),
        flips[j] true where branch j has -b, else None: a base-b expansion read
        through a parity automaton (``counting._DigitWindows``)."""
        return self._signed_bases[axis]

    def axis_int_tables(self, axis: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """(slopes, offsets) as plain ints when every branch of the axis has an
        integer slope and an integer offset (any signs and sizes), else None."""
        return self._int_tables[axis]

    def draw_tables(self, axis: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """(cuts, levels) of the axis's symbol draw, built with the map
        (``_draw_tables``; ``points`` documents the draw)."""
        return self._draw_tables[axis]


def _draw_tables(branches: Sequence[Branch1D]) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """(cuts, levels): the symbol cuts of an axis (``points.symbol_thresholds``)
    and their complete binary search tree, by depth.

    The tree keys are B_s - 1 (every cut is at least 1), padded with
    2^64 - 1 to 2^L - 1 entries for L = ceil(log2 b); node i at depth j
    holds sorted key ((2i + 1) << (L - 1 - j)) - 1, a strided slice of them.
    Stepping right exactly when u > key, the L path bits spell the number of
    keys below u, which is the number of cuts <= u: no u exceeds the
    padding.  Every array is read-only, since all points of the map share it.
    """
    cuts = np.array(
        [-((-b.left.numerator << 64) // b.left.denominator) for b in branches[1:]],
        dtype=np.uint64,
    )
    L = len(cuts).bit_length()
    keys = np.full((1 << L) - 1, np.iinfo(np.uint64).max, dtype=np.uint64)
    keys[: len(cuts)] = cuts - 1
    cuts.flags.writeable = keys.flags.writeable = False
    return cuts, tuple(keys[(1 << (L - 1 - j)) - 1 :: 1 << (L - j)] for j in range(L))


@dataclass(frozen=True)
class Cylinder:
    """Depth-m rectangle of linearity with its composed affine data.

    Per axis i the m-fold composition acts as x -> slopes[i]*x - offsets[i]
    on the interval [lows[i], highs[i]]; |slopes[i]| equals the reciprocal of
    the interval length.  Boundary membership follows the half-open orbit
    convention, which ``locate`` implements; the stored endpoints are exact.
    """

    depth: int
    words: tuple[tuple[int, ...], ...]
    lows: tuple[Fraction, ...]
    highs: tuple[Fraction, ...]
    slopes: tuple[Fraction, ...]
    offsets: tuple[Fraction, ...]

    def volume(self) -> Fraction:
        return math.prod((hi - lo for lo, hi in zip(self.lows, self.highs)), start=ONE)

    def apply(self, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Evaluate the composed affine map at a point of the cylinder."""
        return tuple(k * xi - z for k, z, xi in zip(self.slopes, self.offsets, x))


def compose_word(branches: Sequence[Branch1D], word: Sequence[int]) -> tuple[Fraction, Fraction]:
    """Composed (slope, offset) of the branch word, applied in orbit order.

    Extending a word by one symbol s composes branch s on the outside:
    (k, w) after (K, z) gives (k*K, k*z + w).
    """
    K, z = ONE, ZERO
    for s in word:
        b = branches[s]
        K, z = b.slope * K, b.slope * z + b.offset
    return K, z


def word_interval(
    branches: Sequence[Branch1D], word: Sequence[int]
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(lo, hi, K, z) for the 1-dim cylinder of a branch word."""
    K, z = compose_word(branches, word)
    a = z / K
    b = (1 + z) / K
    return (a, b, K, z) if a <= b else (b, a, K, z)


def cylinder_for_words(map_spec: MapSpec, words: Sequence[Sequence[int]]) -> Cylinder:
    """Build the Cylinder for explicit per-axis symbol words of equal length."""
    depth = len(words[0])
    if any(len(w) != depth for w in words):
        raise ValueError("all axis words must have the same length")
    lows, highs, slopes, offsets = [], [], [], []
    for axis, word in enumerate(words):
        lo, hi, K, z = word_interval(map_spec.axes[axis], word)
        lows.append(lo)
        highs.append(hi)
        slopes.append(K)
        offsets.append(z)
    return Cylinder(
        depth=depth,
        words=tuple(tuple(w) for w in words),
        lows=tuple(lows),
        highs=tuple(highs),
        slopes=tuple(slopes),
        offsets=tuple(offsets),
    )


def eval_map(map_spec: MapSpec, x: Sequence[RationalLike]) -> tuple[Fraction, ...]:
    """Apply the map once to an exact rational point of [0,1]^d."""
    point = tuple(as_fraction(c) for c in x)
    if len(point) != map_spec.dimension:
        raise ValueError("point dimension does not match the map")
    out = []
    for axis, c in enumerate(point):
        if not ZERO <= c <= ONE:
            raise ValueError(f"coordinate {c} outside [0,1]")
        b = map_spec.axes[axis][map_spec.branch_index(axis, c)]
        out.append(b(c))
    return tuple(out)


def iterate_map(map_spec: MapSpec, x: Sequence[RationalLike], n: int) -> tuple[Fraction, ...]:
    """Apply the map n times (exact orbit of a rational point)."""
    point = tuple(as_fraction(c) for c in x)
    for _ in range(n):
        point = eval_map(map_spec, point)
    return point


def within_cap(map_spec: MapSpec, depth: int, cap: int) -> bool:
    """True when depth ``depth`` has at most ``cap`` cylinders.  Every axis
    has two branches or more, so a depth of ``cap.bit_length()`` or more has
    at least 2^depth > cap cylinders: it is decided without forming b^depth."""
    return depth < cap.bit_length() and map_spec.cylinder_count(depth) <= cap


def check_depth(map_spec: MapSpec, depth: int, cap: int) -> None:
    """The one depth rule of the cylinder enumerations and the oracle: raise
    ValueError for a depth below 1 and DepthCapError past ``within_cap``."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not within_cap(map_spec, depth, cap):
        raise DepthCapError(f"depth {depth} has more cylinders than the cap {cap}")


def cylinders(
    map_spec: MapSpec, depth: int, cap: int = DEFAULT_CYLINDER_CAP
) -> Iterator[Cylinder]:
    """Stream every depth-m cylinder exactly once, in lexicographic word order.

    The stream is pure and order-stable, so it may be sliced by index range
    for parallel consumption.  It is one lazy product over the d*m symbols,
    axis 0's word leading, so it holds one word at a time.  Raises
    ``check_depth``'s errors when called, before the first cylinder.
    """
    check_depth(map_spec, depth, cap)
    symbols = [range(b) for b in map_spec.branch_counts() for _ in range(depth)]
    return (
        cylinder_for_words(map_spec, [word[i : i + depth] for i in range(0, len(word), depth)])
        for word in product(*symbols)
    )


def itinerary(
    map_spec: MapSpec, x: Sequence[RationalLike], depth: int
) -> tuple[tuple[int, ...], ...]:
    """Per-axis branch words of length ``depth`` for a rational point."""
    point = tuple(as_fraction(c) for c in x)
    words: list[list[int]] = [[] for _ in range(map_spec.dimension)]
    for _ in range(depth):
        nxt = []
        for axis, c in enumerate(point):
            idx = map_spec.branch_index(axis, c)
            words[axis].append(idx)
            nxt.append(map_spec.axes[axis][idx](c))
        point = tuple(nxt)
    return tuple(tuple(w) for w in words)


def locate(
    map_spec: MapSpec,
    x: Sequence[RationalLike],
    depth: int,
    cap: int = DEFAULT_CYLINDER_CAP,
) -> Cylinder:
    """The unique depth-m cylinder containing x under the half-open convention."""
    check_depth(map_spec, depth, cap)
    return cylinder_for_words(map_spec, itinerary(map_spec, x, depth))


# ---------------------------------------------------------------------------
# Built-in maps
# ---------------------------------------------------------------------------


def base_map(b: int) -> MapSpec:
    """x -> b*x mod 1 with b >= 2 equal branches."""
    if b < 2:
        raise MapValidationError("base must be >= 2")
    branches = tuple(
        Branch1D(Fraction(j, b), Fraction(j + 1, b), Fraction(b), Fraction(j))
        for j in range(b)
    )
    return MapSpec(axes=(branches,))


def doubling_map() -> MapSpec:
    return base_map(2)


def tent_map() -> MapSpec:
    branches = (
        Branch1D(ZERO, Fraction(1, 2), Fraction(2), ZERO),
        Branch1D(Fraction(1, 2), ONE, Fraction(-2), Fraction(-2)),
    )
    return MapSpec(axes=(branches,))


def luroth_map(branch_count: int) -> MapSpec:
    """Truncated Lüroth map with ``branch_count`` full branches.

    The classical branches n(n+1)x - n on [1/(n+1), 1/n) are kept for
    n = 1..branch_count-1; the tail [0, 1/branch_count) is merged into one
    linear full branch of slope branch_count.  This is an approximation of
    the countable-branch map that preserves the full-branch structure.
    """
    if branch_count < 2:
        raise MapValidationError("need at least 2 branches")
    K = branch_count
    branches = [Branch1D(ZERO, Fraction(1, K), Fraction(K), ZERO)]
    for n in range(K - 1, 0, -1):
        branches.append(
            Branch1D(Fraction(1, n + 1), Fraction(1, n), Fraction(n * (n + 1)), Fraction(n))
        )
    return MapSpec(axes=(tuple(branches),))


def toral_diag_map(factors: Sequence[int]) -> MapSpec:
    """Diagonal toral endomorphism x_i -> a_i x_i mod 1 as a product map."""
    if not factors:
        raise MapValidationError("need at least one factor")
    return MapSpec(axes=tuple(base_map(a).axes[0] for a in factors))


_TORAL_RE = re.compile(r"^toral-diag\(([0-9,\s]+)\)$")

#: The largest b, K or toral factor of a built-in map name: every branch is
#: checked in exact arithmetic, so base-16384 already takes about 0.5 s.
MAX_NAMED_BRANCHES = 1 << 14


def _branch_count(text: str) -> int:
    if (count := int(text)) > MAX_NAMED_BRANCHES:
        raise MapValidationError(f"{count} branches, over the {MAX_NAMED_BRANCHES} limit")
    return count


def map_from_name(name: str) -> MapSpec:
    """Resolve a built-in map name.

    Accepted forms: "doubling", "tent", "base-<b>", "luroth-trunc-<K>",
    "toral-diag(a_1,...,a_d)", with b, K and every a_i at most
    ``MAX_NAMED_BRANCHES``.
    """
    name = name.strip()
    if name == "doubling":
        return doubling_map()
    if name == "tent":
        return tent_map()
    if name.startswith("base-"):
        return base_map(_branch_count(name[len("base-"):]))
    if name.startswith("luroth-trunc-"):
        return luroth_map(_branch_count(name[len("luroth-trunc-"):]))
    m = _TORAL_RE.match(name)
    if m:
        factors = [_branch_count(part) for part in m.group(1).split(",") if part.strip()]
        return toral_diag_map(factors)
    raise MapValidationError(f"unknown built-in map {name!r}")
