"""Exact rational measures of recurrence / target events by cylinder decomposition.

Within a depth-n cylinder the n-fold map acts as x -> K_i x_i - z_i per
axis, so the recurrence event {dist(x_i, T^n(x)_i) < psi_i(n) for all i}
meets the cylinder in a coordinate-parallel rectangle: per axis the open
interval solving |(K_i - 1) x_i - z_i| < psi_i(n), clipped to the cylinder.
Pullbacks of rectangles meet cylinders in affine-preimage rectangles.
Summing exact rectangle volumes over all cylinders gives ground-truth
measures for mu(A_n), mu(E_n), mu(A_m [intersect] A_n), Phi(N) and mixing
deficits, with no rounding anywhere.

Events over product maps factorize per axis.  Every measure is a sum, over
the events' rectangle choices, of products of per-axis overlap sums
(``_axis_overlaps``): the length of a depth-m window on each cylinder's
ancestor intersected with a depth-n window on the cylinder itself.  A
plain measure has no ancestor window; ``measure_within`` and mixing
deficits use a rectangle as a depth-0 window.  Each axis window is one
``_Window`` description, which both lanes read:

* the integer lane takes every axis whose branches all have integer slopes
  and integer offsets, of any signs and sizes (doubling, base-b, tent,
  Lüroth-trunc, toral factors).  It composes the branch tables into
  per-leaf (K, z) arrays and sums window numerators over per-leaf
  denominators, in int64 when an a-priori bound allows and in Python-int
  object arrays otherwise;
* the Fraction lane is one walker of the branch tree (``_axis_walk``),
  which takes the same windows as the integer lane and solves them with
  ``_Window.solve``.  It serves every other axis and is the reference the
  integer lane is tested against.

Both lanes compute the same exact values; ``axis_lanes`` reports which one
each axis takes.  ``maps.check_depth`` caps every event's product depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from ._rationals import RationalLike, as_fraction
from .maps import DEFAULT_CYLINDER_CAP, Branch1D, Cylinder, MapSpec, check_depth, cylinders
from .rates import RateFunction

ZERO = Fraction(0)
ONE = Fraction(1)

Interval = tuple[Fraction, Fraction]
Rect = tuple[Interval, ...]

#: The integer lane runs in int64 only while every value it forms stays below this.
_INT64_GUARD = 1 << 62
_BFS_CHUNK = 1 << 14


# ---------------------------------------------------------------------------
# Event sets and their per-axis windows
# ---------------------------------------------------------------------------


class _Window(NamedTuple):
    """One axis of an event, as it meets each cylinder x -> Kx - z of its depth.

    With ``psi`` set: the recurrence window |(K - 1)x - z| < psi.  Otherwise
    the preimage of [lo, hi] under the cylinder map.  Either is clipped to
    the cylinder.  The Fraction lane reads it through ``solve``, the
    integer lane through ``_int_window``.
    """

    lo: Fraction = ZERO
    hi: Fraction = ONE
    psi: Fraction | None = None

    def solve(self, K: Fraction, z: Fraction, jlo: Fraction, jhi: Fraction) -> Interval | None:
        """The window on the cylinder [jlo, jhi] of x -> Kx - z; None when empty."""
        if self.psi is None:
            e1, e2 = (self.lo + z) / K, (self.hi + z) / K
        elif self.psi > 0:
            e1, e2 = (z - self.psi) / (K - 1), (z + self.psi) / (K - 1)
        else:
            return None
        lo, hi = (e1, e2) if e1 <= e2 else (e2, e1)
        lo = max(lo, jlo)
        hi = min(hi, jhi)
        return (lo, hi) if lo < hi else None


@dataclass(frozen=True)
class EventSet:
    """A depth-n event described cylinder-by-cylinder.

    kind "recurrence": the orbit returns psi-close to the start at time n.
    kind "target":     the orbit enters the clipped ball around ``center``.
    kind "pullback":   preimage T^{-n} of an explicit union of rectangles.
    """

    map: MapSpec
    depth: int
    kind: str
    radii: tuple[Fraction, ...] | None = None
    center: tuple[Fraction, ...] | None = None
    rects: tuple[Rect, ...] | None = None
    cap: int = DEFAULT_CYLINDER_CAP

    def pieces(self) -> Iterator[tuple[Cylinder, Rect | None]]:
        """Yield (cylinder, rectangle) for every depth-n cylinder, lex order."""
        for cyl in cylinders(self.map, self.depth, cap=self.cap):
            rect = self._rect_in(cyl)
            yield cyl, rect

    def _rect_in(self, cyl: Cylinder) -> Rect | None:
        if self.kind == "pullback":
            # union of preimages; only meaningful piece-by-piece
            raise ValueError("pullback events have one rectangle per (cylinder, rect)")
        (windows,) = _event_windows(self)
        out = []
        for axis, window in enumerate(windows):
            win = window.solve(
                cyl.slopes[axis], cyl.offsets[axis], cyl.lows[axis], cyl.highs[axis]
            )
            if win is None:
                return None
            out.append(win)
        return tuple(out)


def _event_windows(event: EventSet) -> list[tuple[_Window, ...]]:
    """Per-axis windows of each rectangle choice of the event (one unless pullback)."""
    if event.kind == "recurrence":
        return [tuple(_Window(psi=r) for r in event.radii)]
    if event.kind == "target":
        return [
            tuple(
                _Window(max(ZERO, c - r), min(ONE, c + r))
                for c, r in zip(event.center, event.radii)
            )
        ]
    if event.kind == "pullback":
        return [_rect_windows(r) for r in event.rects]
    raise ValueError(f"unknown event kind {event.kind!r}")


def _rect_windows(rect: Rect) -> tuple[_Window, ...]:
    return tuple(_Window(lo, hi) for lo, hi in rect)


def event_recurrence(
    map_spec: MapSpec, rate: RateFunction, n: int, cap: int = DEFAULT_CYLINDER_CAP
) -> EventSet:
    """The time-n recurrence event A_n = {x : dist(x_i, T^n(x)_i) < psi_i(n)}."""
    check_depth(map_spec, n, cap)
    if rate.dimension != map_spec.dimension:
        raise ValueError("rate and map dimensions differ")
    return EventSet(map=map_spec, depth=n, kind="recurrence", radii=rate.radii(n), cap=cap)


def event_target(
    map_spec: MapSpec,
    rate: RateFunction,
    target,
    n: int,
    cap: int = DEFAULT_CYLINDER_CAP,
) -> EventSet:
    """The time-n target event E_n = T^{-n} B(center, psi(n)), balls clipped to the cube."""
    check_depth(map_spec, n, cap)
    center = tuple(as_fraction(c) for c in getattr(target, "center", target))
    if len(center) != map_spec.dimension:
        raise ValueError("target center dimension does not match the map")
    return EventSet(
        map=map_spec, depth=n, kind="target", radii=rate.radii(n), center=center, cap=cap
    )


def event_pullback(
    map_spec: MapSpec,
    rects: Sequence[Sequence[Sequence[RationalLike]]],
    n: int,
    cap: int = DEFAULT_CYLINDER_CAP,
) -> EventSet:
    """T^{-n} of a union of coordinate rectangles that meet at most on a side.

    Raises ValueError when two of them meet in positive measure: the
    measure sums the rectangles one by one, so it would count their
    overlap twice.
    """
    check_depth(map_spec, n, cap)
    normalized = tuple(_normalize_rect(map_spec.dimension, r) for r in rects)
    if problem := overlap_problem(normalized):
        raise ValueError(problem)
    return EventSet(map=map_spec, depth=n, kind="pullback", rects=normalized, cap=cap)


def _normalize_rect(dimension: int, rect) -> Rect:
    out = []
    for axis_iv in rect:
        lo, hi = as_fraction(axis_iv[0]), as_fraction(axis_iv[1])
        if not (ZERO <= lo <= hi <= ONE):
            raise ValueError(f"rectangle side [{lo},{hi}] not inside [0,1]")
        out.append((lo, hi))
    if len(out) != dimension:
        raise ValueError("rectangle dimension does not match the map")
    return tuple(out)


def overlap_problem(rects) -> str | None:
    """What is wrong with a union of rectangles that two of them meet in
    positive measure, or None when any two meet at most on a side."""
    for j, b in enumerate(rects):
        for i, a in enumerate(rects[:j]):
            if all(max(lo_a, lo_b) < min(hi_a, hi_b) for (lo_a, hi_a), (lo_b, hi_b) in zip(a, b)):
                return f"rectangles {i} and {j} overlap in positive measure"
    return None


def rect_volume(rect: Rect) -> Fraction:
    return math.prod((hi - lo for lo, hi in rect), start=ONE)


# ---------------------------------------------------------------------------
# Fraction lane: the branch-tree walk
# ---------------------------------------------------------------------------


def _axis_walk(
    branches: Sequence[Branch1D], m: int, n: int, win_a: _Window | None, win_b: _Window
) -> Fraction:
    """Sum over the depth-n cylinders of one axis of |win_a ∩ win_b|, win_a
    taken on each cylinder's depth-m ancestor (None: no ancestor window) and
    win_b on the cylinder itself: ``_axis_overlaps_int`` for one pair of
    windows, by a walk of the branch tree in exact Fractions."""

    def rec(level: int, K: Fraction, z: Fraction, anc: Interval) -> Fraction:
        if level in (m, n):
            a, b = z / K, (1 + z) / K
            jlo, jhi = (a, b) if a <= b else (b, a)
            if level == m and win_a is not None:
                anc = win_a.solve(K, z, jlo, jhi)
                if anc is None:
                    return ZERO
            if level == n:
                win = win_b.solve(K, z, jlo, jhi)
                if win is None:
                    return ZERO
                lo, hi = max(win[0], anc[0]), min(win[1], anc[1])
                return hi - lo if lo < hi else ZERO
        total = ZERO
        for br in branches:
            total += rec(level + 1, br.slope * K, br.slope * z + br.offset, anc)
        return total

    return rec(0, ONE, ZERO, (ZERO, ONE))


# ---------------------------------------------------------------------------
# Integer lane: leaf tables of axes with integer slopes and offsets
# ---------------------------------------------------------------------------


def _compose(K: np.ndarray, z: np.ndarray, Ks: np.ndarray, zs: np.ndarray):
    """Each leaf map x -> Kx - z followed by each word (Ks, zs): K Ks and Ks z + zs.

    The children of a leaf stay one contiguous block, in lex order.
    """
    return np.multiply.outer(K, Ks).ravel(), (np.multiply.outer(z, Ks) + zs).ravel()


def _words(tables, depth: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(K, z) of every word of ``depth`` symbols, lex order."""
    K, z = np.ones(1, dtype=dtype), np.zeros(1, dtype=dtype)
    slopes, offsets = (np.array(t, dtype=dtype) for t in tables)
    for _ in range(depth):
        K, z = _compose(K, z, slopes, offsets)
    return K, z


def _leaf_tables(tables, depth: int, dtype) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(K, z) of every word of ``depth`` symbols, lex order, in chunks of at
    most _BFS_CHUNK leaves: one chunk per prefix, one shared suffix table."""
    suffix = 0
    while suffix < depth and len(tables[0]) ** (suffix + 1) <= _BFS_CHUNK:
        suffix += 1
    Ks, zs = _words(tables, suffix, dtype)
    Kp, zp = _words(tables, depth - suffix, dtype)
    for i in range(len(Kp)):
        yield _compose(Kp[i : i + 1], zp[i : i + 1], Ks, zs)


def _ancestor_chunks(tables, m: int, n: int, dtype):
    """Yield (Ka, za, Kn, zn): depth-m leaves and all their depth-n descendants,
    each ancestor's descendants one contiguous block of equal length."""
    reps = len(tables[0]) ** (n - m)
    if reps <= _BFS_CHUNK:
        Ks, zs = _words(tables, n - m, dtype)
        step = _BFS_CHUNK // reps
        for Km, zm in _leaf_tables(tables, m, dtype):
            for i in range(0, len(Km), step):
                Ka, za = Km[i : i + step], zm[i : i + step]
                yield (Ka, za, *_compose(Ka, za, Ks, zs))
        return
    for Km, zm in _leaf_tables(tables, m, dtype):
        for i in range(len(Km)):
            Ka, za = Km[i : i + 1], zm[i : i + 1]
            for Ks, zs in _leaf_tables(tables, n - m, dtype):
                yield (Ka, za, *_compose(Ka, za, Ks, zs))


def _int_window(win: _Window, K: np.ndarray, z: np.ndarray):
    """Numerators (lo, hi) over the denominator den of the window on each leaf
    x -> Kx - z, clipped to the leaf's cylinder (empty where lo >= hi)."""
    absK = np.abs(K)
    if win.psi is not None:
        # (z -+ psi)/(K - 1) over q|K - 1||K|; K - 1 has the sign of K as |K| >= 2
        p, q = win.psi.numerator, win.psi.denominator
        scale = K - 1
        scale *= q
        hi = z * q
        hi *= K  # the centre z q K, then the upper end
        half = absK * p
        lo = hi - half
        hi += half
    else:
        # (lo + z)/K and (hi + z)/K over e|K|, e the common denominator of lo, hi
        e = math.lcm(win.lo.denominator, win.hi.denominator)
        rlo, rhi = int(win.lo * e), int(win.hi * e)
        scale = np.sign(K) * e
        ze = z * e
        lo = np.where(K > 0, rlo + ze, -(rhi + ze))
        hi = np.where(K > 0, rhi + ze, -(rlo + ze))
    # the cylinder between z/K and (z+1)/K over the same denominator
    jlo = z * scale
    jlo += np.minimum(scale, 0)
    np.maximum(lo, jlo, out=lo)
    width = np.abs(scale)
    jlo += width
    np.minimum(hi, jlo, out=hi)
    width *= absK
    return lo, hi, width


def _int_bound(tables, depth: int, win: _Window) -> tuple[int, int]:
    """A-priori (largest denominator, largest magnitude) of what ``_int_window``
    forms at this depth: |z| <= |K| because the cylinder lies in [0, 1]."""
    K = max(abs(k) for k in tables[0]) ** depth
    if win.psi is not None:
        p, q = abs(win.psi.numerator), win.psi.denominator
        return q * (K + 1) * K, (K + 1) ** 2 * (q + p)
    e = math.lcm(win.lo.denominator, win.hi.denominator)
    return e * K, (K + 1) * e + max(abs(win.lo), abs(win.hi)) * e


def _add_by_denominator(sums: dict, num: np.ndarray, den: np.ndarray) -> None:
    """sums[d] += the numerators over d, for every distinct denominator d."""
    lo, hi = den.min(), den.max()
    if lo == hi:
        sums[int(lo)] = sums.get(int(lo), 0) + int(num.sum())
        return
    at_lo = den == lo
    if np.count_nonzero(at_lo | (den == hi)) == len(den):
        # two denominators (uniform |slope| of both signs, as tent): no sort
        part = int(num @ at_lo)
        sums[int(lo)] = sums.get(int(lo), 0) + part
        sums[int(hi)] = sums.get(int(hi), 0) + int(num.sum()) - part
        return
    dens, where = np.unique(den, return_inverse=True)
    parts = np.zeros(len(dens), dtype=num.dtype)
    np.add.at(parts, where, num)
    for d, s in zip(dens.tolist(), parts.tolist()):
        sums[d] = sums.get(d, 0) + s


def _axis_overlaps_int(tables, m: int, n: int, wins_a, wins_b) -> dict:
    """Integer lane of ``_axis_overlaps``: one vectorized pass over the leaves
    serves every pair of windows.

    Overlaps with an ancestor window are cross-multiplied over den_a * den_b.
    Clipped numerators stay below the magnitude bound, so every product is
    smaller than max(raw_a * den_b, raw_b * den_a); only when that is under
    2^62 does the lane use int64, and Python-int object arrays otherwise.
    """
    den_a, raw_a = map(max, zip(*(_int_bound(tables, m, a or _Window()) for a in wins_a)))
    den_b, raw_b = map(max, zip(*(_int_bound(tables, n, b) for b in wins_b)))
    dtype = np.int64 if max(raw_a * den_b, raw_b * den_a) < _INT64_GUARD else object
    sums: dict = {(a, b): {} for a in wins_a for b in wins_b}
    for Ka, za, Kn, zn in _ancestor_chunks(tables, m, n, dtype):
        reps = len(Kn) // len(Ka)
        leaf = [(b, _int_window(b, Kn, zn)) for b in wins_b]
        for a in wins_a:
            if a is not None:
                lo_a, hi_a, d_a = (np.repeat(v, reps) for v in _int_window(a, Ka, za))
            for b, (lo, hi, den) in leaf:
                if a is not None:
                    lo = np.maximum(lo_a * den, lo * d_a)
                    hi = np.minimum(hi_a * den, hi * d_a)
                    den = d_a * den
                length = hi - lo
                _add_by_denominator(sums[a, b], np.maximum(length, 0, out=length), den)
    return {
        key: sum((Fraction(s, d) for d, s in parts.items() if s), ZERO)
        for key, parts in sums.items()
    }


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------


def axis_lanes(map_spec: MapSpec) -> tuple[tuple[str, str], ...]:
    """(lane, reason) of each axis, as the oracle measures it.

    * ``("integer", "integer-slopes")`` -- every branch has an integer slope
      and an integer offset: vectorized leaf tables;
    * ``("fraction", "non-integer-slopes")`` -- anything else: the Fraction
      branch-tree walk.
    """
    return tuple(
        ("integer", "integer-slopes")
        if map_spec.axis_int_tables(axis) is not None
        else ("fraction", "non-integer-slopes")
        for axis in range(map_spec.dimension)
    )


def _axis_overlaps(map_spec: MapSpec, axis: int, m: int, n: int, wins_a, wins_b) -> dict:
    """{(win_a, win_b): sum over the depth-n cylinders of one axis of
    |win_a ∩ win_b|}, win_a taken on each cylinder's depth-m ancestor (None:
    no ancestor window), for every pair of the given windows."""
    tables = map_spec.axis_int_tables(axis)
    if tables is not None:
        return _axis_overlaps_int(tables, m, n, wins_a, wins_b)
    return {
        (a, b): _axis_walk(map_spec.axes[axis], m, n, a, b)
        for a in wins_a
        for b in wins_b
    }


def _joint(
    map_spec: MapSpec,
    m: int,
    choices_a: Sequence[tuple[_Window, ...] | None],
    n: int,
    choices_b: Sequence[tuple[_Window, ...]],
) -> Fraction:
    """Sum over pairs of rectangle choices of the product of their axis overlaps."""
    if not (choices_a and choices_b):
        return ZERO  # a pullback of no rectangles
    overlaps = [
        _axis_overlaps(
            map_spec,
            axis,
            m,
            n,
            list(dict.fromkeys(None if wa is None else wa[axis] for wa in choices_a)),
            list(dict.fromkeys(wb[axis] for wb in choices_b)),
        )
        for axis in range(map_spec.dimension)
    ]
    total = ZERO
    for wa in choices_a:
        for wb in choices_b:
            total += math.prod(
                ov[None if wa is None else wa[axis], wb[axis]] for axis, ov in enumerate(overlaps)
            )
    return total


def measure(event: EventSet) -> Fraction:
    """Exact measure of the event, summed over its cylinder decomposition."""
    return _joint(event.map, 0, [None], event.depth, _event_windows(event))


def measure_within(event: EventSet, rect) -> Fraction:
    """Exact measure of (event ∩ rect) for a coordinate rectangle."""
    clip = _rect_windows(_normalize_rect(event.map.dimension, rect))
    return _joint(event.map, 0, [clip], event.depth, _event_windows(event))


def measure_intersection(a: EventSet, b: EventSet) -> Fraction:
    """Exact measure of the intersection of two events on the same map.

    The shallower event's windows are repeated onto the deeper partition,
    axis by axis.
    """
    if a.map is not b.map and a.map != b.map:
        raise ValueError("events live on different maps")
    if a.depth > b.depth:
        a, b = b, a
    return _joint(a.map, a.depth, _event_windows(a), b.depth, _event_windows(b))


def phi_values(
    map_spec: MapSpec, rate: RateFunction, N: int, cap: int = DEFAULT_CYLINDER_CAP
) -> list[Fraction]:
    """Exact mu(A_n) for n = 1..N."""
    return [measure(event_recurrence(map_spec, rate, n, cap=cap)) for n in range(1, N + 1)]


def phi_sum(
    map_spec: MapSpec, rate: RateFunction, N: int, cap: int = DEFAULT_CYLINDER_CAP
) -> Fraction:
    """Exact Phi(N) = sum_{n<=N} mu(A_n)."""
    return sum(phi_values(map_spec, rate, N, cap=cap), ZERO)


# ---------------------------------------------------------------------------
# Mixing deficit
# ---------------------------------------------------------------------------


def _normalize_f(map_spec: MapSpec, f) -> list[Rect]:
    if isinstance(f, EventSet):
        if f.kind != "pullback":
            raise ValueError("pass pullback events or rectangle lists as F")
        return list(f.rects)
    f = list(f)
    if f and not isinstance(f[0][0], (tuple, list)):
        f = [f]  # a single rectangle was passed
    return [_normalize_rect(map_spec.dimension, r) for r in f]


def mixing_deficit(
    map_spec: MapSpec,
    e_rect,
    f,
    n: int,
    cap: int = DEFAULT_CYLINDER_CAP,
) -> Fraction:
    """Exact mu(E ∩ T^{-n}F) - mu(E) mu(F) for a rectangle E and a union F of
    rectangles that meet at most on a side (ValueError otherwise).

    E is the depth-0 window on every depth-n cylinder of T^{-n}F.
    """
    check_depth(map_spec, n, cap)
    e = _normalize_rect(map_spec.dimension, e_rect)
    rects = _normalize_f(map_spec, f)
    if problem := overlap_problem(rects):
        raise ValueError(problem)
    mu_f = sum((rect_volume(r) for r in rects), ZERO)
    joint = _joint(map_spec, 0, [_rect_windows(e)], n, [_rect_windows(r) for r in rects])
    return joint - rect_volume(e) * mu_f
