"""Counting functions R(x,N) and W(x,N) with checkpointing.

Two engines produce identical results:

* window engine -- on axes where every branch has an integer slope and an
  integer offset, the n-fold map on a window of the axis stream is an
  integer affine map, so T^n(x) lies in an interval read off integer
  windows of the stream.  Each axis takes one of two window kinds:

  - digit windows, where every branch has slope +b or -b (doubling, tent):
    the stream, read through a parity automaton, is a base-b expansion, and
    a W-digit window (W ~ log_b(1/psi) plus guard digits, at most what
    int64 holds) gives an integer distance, compared in int64;
  - signed windows, for any other integer slopes (Lüroth-trunc, mixed
    sizes): the per-symbol (slope, offset) tables composed over a
    fixed-length window in int64, compared in float64.

  Both kinds are built by doubling (windows of lengths 1, 2, 4, ...,
  chained to W) in O(log W) array passes and compared with one certified
  radius bound (``_axis_thresholds``): psi(n) widened by the window's own
  error, in float64 or as integer cuts.  Digit windows take two stages:
  the leading P digits of every window (base^P <= 2^16, a uint32 pyramid)
  bound its distance from below by d R - (R - 1), R = base^(W - P), and
  a prefix cut on d rules out as certain misses almost every n (a hit has
  probability about 2 psi(n)); the full int64 window is chained only at
  the n left open.  Short blocks take every window by one correlation.
  Axes with other slopes settle nothing by themselves.  Only the handful
  of n that no axis settles fall back to exact interval refinement, one n
  at a time, by ``points.point_outcome``.

  The engine runs one loop per point over blocks of ``_COUNT_BLOCK`` n.
  For each block it composes every window axis over the block's symbols,
  compares the windows with the block's slice of the bounds, combines the
  axes and refines the block's open n, so its temporaries stay in cache
  and none of them is N long.  Window 0, the recurrence reference, is
  composed with the first block, once per point.
* interval engine -- maps with no integer-slope axis: ``points.point_outcome``
  at every n, the exact comparison of ``points.distance_predicate``.  It
  is also the reference path the window engine is tested against.

Everything that depends only on (map, rate, n_max, target, metric) is built
once into a ``HitCounter``: the engines, and per window axis its length W,
its tables and its radius bounds.  Applied to a point, the counter
composes that point's windows, compares them and refines what they leave
open, nothing more.  ``hit_indicators`` builds a counter and applies it
once; the harness builds one per plan and applies it to every point, on any
number of threads.

Unresolved comparisons (possible only when the true distance equals the
radius, a measure-zero event) count as misses and are tallied per record.
An axis whose radius is zero at every n makes every n a miss unrefined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from ._rationals import as_fraction, floor_div, format_fraction, iroot
from .maps import MapSpec
from .points import GenericPoint, Outcome, point_outcome
from .rates import AxisRate, RateFunction, psi_partial_sums, target_main_term_sums

#: Guard bits appended to every digit window; the chance that a single
#: comparison needs refinement is ~2^-(guard) per time step.
GUARD_BITS = 16

_INT64_WINDOW_LIMIT = 1 << 62


@dataclass(frozen=True)
class TargetSpec:
    """Fixed center of the shrinking balls."""

    center: tuple[Fraction, ...]

    def __post_init__(self):
        c = tuple(as_fraction(x) for x in self.center)
        object.__setattr__(self, "center", c)
        if any(not 0 <= x <= 1 for x in c):
            raise ValueError("target center must lie in [0,1]^d")


@dataclass(frozen=True)
class CountRecord:
    """Hit counts of one point at increasing checkpoints."""

    seed: int | None
    kind: str
    checkpoints: tuple[int, ...]
    counts: tuple[int, ...]
    main_terms: tuple[Fraction, ...] | None
    unresolved: tuple[int, ...]
    hits: np.ndarray | None = None

    def csv_rows(self) -> list[list]:
        rows = []
        for i, N in enumerate(self.checkpoints):
            if self.main_terms is None:
                exact, approx = "", ""
            else:
                exact = format_fraction(self.main_terms[i])
                approx = repr(float(self.main_terms[i]))
            rows.append([self.seed, N, self.counts[i], exact, approx, self.unresolved[i]])
        return rows


CSV_HEADER = ["seed", "N", "R", "Psi_exact", "Psi_float", "unresolved"]


def geometric_checkpoints(n_max: int, minimum: int = 1) -> list[int]:
    """ceil(10^(j/4)) for j = 0,1,..., deduplicated, clipped to [minimum, n_max]."""
    out = []
    j = 0
    while True:
        power = 10**j
        root = iroot(power, 4)
        value = root if root**4 == power else root + 1
        if value > n_max:
            break
        if value >= minimum and (not out or value != out[-1]):
            out.append(value)
        j += 1
    if not out or out[-1] != n_max:
        out.append(n_max)
    out = [v for v in out if v >= minimum]
    if not out:
        raise ValueError(f"no checkpoints in [{minimum}, {n_max}]")
    return out


# ---------------------------------------------------------------------------
# Window composition and radius bounds
# ---------------------------------------------------------------------------


def _compose_windows(k: np.ndarray, w: np.ndarray, W: int) -> tuple[np.ndarray, np.ndarray]:
    """(K, z) of every length-W window of the int64 per-symbol tables k, w.

    Entry i composes symbols i..i+W-1 in orbit order: window A followed by
    window B is (K_B * K_A, K_B * z_A + z_B).  Windows are built by doubling
    (lengths 1, 2, 4, ...) and the powers of two in W are chained, so the
    work is O(log W) array passes.  Every window is exact in int64: the
    caller keeps max|k|^W below 2^62, and |z| <= |K| because the window's
    interval [z/K, (z+1)/K] lies in [0,1], so K_B * z_A and z_B are each
    below 2^62 and their sum below 2^63.
    """
    K = z = None
    acc, span = 0, 1
    while True:
        if W & span:
            if K is None:
                K, z = k, w
            else:
                m = len(w) - acc
                K = k[acc:] * K[:m]
                z = z[:m] * k[acc:]
                z += w[acc:]
            acc += span
        if 2 * span > W:
            return K, z
        doubled = w[:-span] * k[span:]
        doubled += w[span:]
        k, w = k[span:] * k[:-span], doubled
        span *= 2


#: Entries per block of the float radius pass; bounds its temporaries.
_THRESHOLD_BLOCK = 1 << 12

#: Relative slack around psi(n): 2^-40 is the margin the exact path needs
#: (see ``_axis_thresholds``), the rest covers the 2^-42 error bound of
#: ``AxisRate.float_values`` and the roundings of bounds and comparisons.
_WINDOW_REL_SLACK = 2.0**-39

#: Smallest psi(n) whose float carries the ``float_values`` error bound.
_FLOAT_PSI_MIN = 2.0**-1000


@lru_cache(maxsize=4)
def _axis_thresholds(axis_rate: AxisRate, n_max: int, unit: float, scale: int | None = None):
    """(lower, upper) over n = 1..n_max: psi(n) -/+ slack, slack = psi(n) 2^-39
    + 2 ``float_abs_error`` + ``unit``, for window distances within ``unit``
    of the true one.  float64, or with a scale B the int64 cuts
    ceil(lower B) - 1 and floor(upper B) + 1 clipped to [-1, 2^62], so an
    integer distance D is at most the first exactly when D < lower B and at
    least the second exactly when D > upper B.  With a scale the unit is a
    whole number u of steps 1/B and is added to the cuts as u after the
    product: added to psi in float, a rounded 1/B times B can fall short of
    1 and lose the step once psi B is below the float resolution of 1.

    A distance below lower is a certain hit, one above upper a certain miss,
    each at least 2^-40 psi(n) from psi(n) in true distance, so the exact
    path returns the same HIT or MISS, never UNRESOLVED: it refines to depth
    start_depth + 56 (``points.axis_distance_outcome``), where enclosures of
    at most lam^-55 psi <= 2^-55 psi per end (start_depth ~ log_lam(1/psi),
    off by at most one) put its distance bound within 2^-54 psi of the true
    one.  A zero radius is a certain miss (-inf, -inf); radii below 2^-1000
    (outside the ``float_values`` bound) and non-finite ones settle nothing.
    """
    lower = np.empty(n_max, dtype=np.float64 if scale is None else np.int64)
    upper = np.empty_like(lower)
    u = None if scale is None else round(unit * scale)  # the unit in steps of 1/B
    abs_slack = 2 * axis_rate.float_abs_error() + (unit if scale is None else 0.0)
    for lo in range(1, n_max + 1, _THRESHOLD_BLOCK):
        hi = min(lo + _THRESHOLD_BLOCK, n_max + 1)
        psi = axis_rate.float_values(lo, hi)
        trusted = (psi >= _FLOAT_PSI_MIN) & np.isfinite(psi)
        psi[~trusted] = 0.0  # no inf - inf below
        slack = psi * _WINDOW_REL_SLACK + abs_slack
        low = np.where(trusted, psi - slack, -np.inf)
        high = np.where(trusted, psi + slack, np.inf)
        high[[i for i in np.flatnonzero(~trusted).tolist() if axis_rate(lo + i) == 0]] = -np.inf
        if scale is not None:
            low = np.clip(np.ceil(low * float(scale)) - 1 - u, -1, _INT64_WINDOW_LIMIT)
            high = np.clip(np.floor(high * float(scale)) + 1 + u, -1, _INT64_WINDOW_LIMIT)
        lower[lo - 1 : hi - 1], upper[lo - 1 : hi - 1] = low, high
    return lower, upper


# ---------------------------------------------------------------------------
# Digit windows
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _axis_window_digits(axis_rate: AxisRate, n_max: int, base: int) -> int:
    """The least W with base^W >= 2^GUARD_BITS / min positive psi, at most the
    int64 limit ``_signed_window_length((base,))``."""
    need = Fraction(1 << GUARD_BITS) / axis_rate.min_positive(n_max)
    W, cap = 1, _signed_window_length((base,))
    while base**W < need and W < cap:
        W += 1
    return W


#: Largest base^P of a prefix window: the P-digit windows of stage 1 and
#: every level of the pyramid below them fit in uint32 products.
_PREFIX_LIMIT = 1 << 16

#: Blocks of fewer n skip stage 1 and take every full window by one
#: correlation, whose cost grows with W per n: below this size the pyramid,
#: the index list and the gathers cost more than they save.  On one thread
#: the two break even near 1,500 n for doubling at W = 26 and base 3 at
#: W = 17 (psi = n^-1/2 / 2), and near 800 n for doubling at W = 61, the
#: int64 cap.  A 12-step orbit is one block of 12.
_PREFIX_MIN_BLOCK = 1024


def _prefix_span(base: int) -> int:
    """P, the largest power of two with base^P <= 2^16 (1 past 2^16)."""
    P = 1
    while base ** (2 * P) <= _PREFIX_LIMIT:
        P *= 2
    return P


def _digit_pyramid(digits: np.ndarray, base: int, top: int) -> list[np.ndarray]:
    """The windows of spans 1, 2, 4, ..., top (a power of two) over
    ``digits``: level k holds the base-b number of the 2^k digits from each
    position.  The levels keep the dtype of the digits, so with uint32
    digits base^top must stay below 2^32."""
    levels, span = [digits], 1
    while span < top:
        level = digits[:-span] * base**span
        level += digits[span:]
        levels.append(level)
        digits, span = level, 2 * span
    return levels


def _digit_windows(levels: list[np.ndarray], base: int, W: int, at: np.ndarray) -> np.ndarray:
    """int64 base-b numbers of the W digits from the positions ``at`` of a
    ``_digit_pyramid``, by gathers: the top level's span, repeated, then the
    smaller powers of two in what remains, leading digits first, so a
    window below 2^62 stays exact in int64 at every step."""
    k_top = len(levels) - 1
    rest = W % (1 << k_top)
    D, acc = None, 0
    for k in [k_top] * (W >> k_top) + [k for k in reversed(range(k_top)) if rest >> k & 1]:
        part = levels[k][at + acc]
        if D is None:
            D = part.astype(np.int64)
        else:
            D *= base ** (1 << k)
            D += part
        acc += 1 << k
    return D


class _DigitWindows:
    """Per-plan data of a digit axis: the W-digit windows of base ``base``,
    B = base^W, the ``_axis_thresholds`` cuts at scale B and, for a target,
    floor(c * B).  D/B, D the windows' integer distance (min(D, B - D) on
    the torus), is within 1/B of the distance, so the cuts take unit 1/B;
    their float rounding stays inside the 2^-39 slack.

    Slopes of -b are read through a parity automaton (the kneading parity
    rule).  With p_k the parity of the negative-slope symbols among s_1..s_k,
    x has the base-b digits d_k = s_k, or b - 1 - s_k where p_(k-1) is odd,
    and T^n(x) those from place n + 1 on, each complemented where p_n is odd:
    window n is that of the d_k, or B - 1 minus it (b^P - 1 - Q its prefix).
    Flipping every p_k complements each digit and each window once more, so
    window n depends on s_(n+1)..s_(n+W) alone: every block counts from 0.

    The windows of a block are read in two stages.  Stage 1 builds the
    ``_digit_pyramid`` of the block's digits up to span P, the largest
    power of two with base^P <= 2^16, and takes each window's leading P
    digits Q and the reference's Q0 = ref // R, R = base^(W - P): with d =
    |Q - Q0| (min(d, base^P - d) on the torus) the distance is at least
    d R - (R - 1), so every n with d >= ``prefix_cut`` = ceil((miss_cut +
    R - 1) / R) is a certain miss.  Stage 2 chains the full windows from
    the pyramid (``_digit_windows``) only at the other n, and compares them
    with the cuts.  A stage-1 miss is a miss of the full comparison, which
    never sets a hit there, so the flags are those of the full windows at
    every n.  Blocks shorter than ``_PREFIX_MIN_BLOCK``, and axes with W <=
    P, take every full window at once: the correlation of the digits with
    base^(W-1), ..., base, 1, exact in int64 since every partial sum is at
    most the window.
    """

    def __init__(self, map_spec, axis, axis_rate, n_max, center, metric):
        base, flips = map_spec.axis_signed_base(axis)
        W = _axis_window_digits(axis_rate, n_max, base)
        self.axis, self.base, self.W, self.B = axis, base, W, base**W
        # flips[s]: symbol s has slope -b (None: a +b axis).  Two branches of opposite slopes
        # (tent) are a Gray code, -b symbols s != flips[0] and d_k = p_k ^ flips[0]: no table
        # read, no decode (the table path takes 1.17-1.25 times as long per tent point)
        self.flips = np.array(flips) if any(flips) else None
        self.gray = base == 2 and flips[0] != flips[1]
        self.hit_cut, self.miss_cut = _axis_thresholds(axis_rate, n_max, 1 / self.B, self.B)
        # None: each point's own window 0
        self.ref = None if center is None else floor_div(center * self.B)
        self.length = n_max + W
        self.torus = metric == "torus"
        self.powers = np.array([base**j for j in reversed(range(W))], dtype=np.int64)
        P = _prefix_span(base)
        self.P, self.R, self.prefix_cut = P, base ** max(W - P, 0), None
        if P < W and base**P <= _PREFIX_LIMIT:
            # ceil((m + R - 1) / R) = (m - 2) // R + 2 for integers m, and
            # no d reaches a cut past base^P
            cut = self.miss_cut - 2
            cut //= self.R
            np.minimum(cut, base**P - 1, out=cut)
            self.prefix_cut = (cut + 2).astype(np.int32)

    def _flags(self, D: np.ndarray, ref: int, hit_cut, miss_cut, flip) -> tuple:
        """(certain_hit, certain_miss) of the windows D, complemented where ``flip``, in place."""
        D -= ref
        if flip is not None:  # |B - 1 - D - ref| = |D - ref - (B - 1 - 2 ref)|
            D -= flip * (self.B - 1 - 2 * ref)  # int64: |B - 1 - 2 ref| < B
        np.abs(D, out=D)
        if self.torus:
            np.minimum(D, self.B - D, out=D)
        return D <= hit_cut, D >= miss_cut

    def block_flags(self, point: GenericPoint, lo: int, hi: int, ref):
        """(certain_hit, certain_miss, ref) over n = lo+1..hi.

        ``ref`` is the reference window: the target's floor(c * B), the
        point's window 0 returned by an earlier block, or None on the first
        block of a recurrence, which then composes window 0 too.
        """
        head = int(ref is None)  # window 0 leads the block
        digits, flip = point.symbols(self.axis, self.length)[lo + 1 - head : hi + self.W], None
        if self.flips is not None:
            # p[j]: the parity of the -b symbols among digits 0..j-1
            p = np.zeros(len(digits) + 1, dtype=bool)
            if self.gray:  # d_k = p_k ^ flips[0]
                np.not_equal(digits, self.flips[0], out=p[1:])
                np.logical_xor.accumulate(p, out=p)
                digits = np.bitwise_xor(p[1:].view(np.uint8), self.flips[0], dtype=np.uint32)
            else:  # d_k = |s_k - (b - 1) p_(k-1)|
                np.take(self.flips, digits, out=p[1:])
                np.logical_xor.accumulate(p, out=p)
                digits = digits.view(np.int32) - p[:-1] * np.int32(self.base - 1)
                digits = np.abs(digits, out=digits).view(np.uint32)
            flip = p[head : head + hi - lo]  # p_n of window n = lo + 1, ..., hi
        if self.prefix_cut is None or hi - lo < _PREFIX_MIN_BLOCK:
            D = np.correlate(digits.astype(np.int64), self.powers)
            if ref is None:
                ref, D = int(D[0]), D[1:]
            hit, miss = self._flags(D, ref, self.hit_cut[lo:hi], self.miss_cut[lo:hi], flip)
            return hit, miss, ref
        if ref is None:
            ref = int(digits[: self.W] @ self.powers)
        levels = _digit_pyramid(digits, self.base, self.P)
        # stage 1: Q < 2^16, so the uint32 prefix windows read as int32
        d = levels[-1][head : head + hi - lo].view(np.int32) - (Q0 := ref // self.R)
        if flip is not None:  # as in _flags: b^P - 1 - Q - Q0 = -(d - (b^P - 1 - 2 Q0))
            d -= flip * np.int32(self.base**self.P - 1 - 2 * Q0)
        np.abs(d, out=d)
        if self.torus:
            np.minimum(d, self.base**self.P - d, out=d)
        miss = d >= self.prefix_cut[lo:hi]
        # stage 2: the full windows of the n stage 1 left open
        open_n = (~miss).nonzero()[0]
        hit = np.zeros(hi - lo, dtype=bool)
        cuts = lo + open_n
        D = _digit_windows(levels, self.base, self.W, open_n + head)
        hit[open_n], miss[open_n] = self._flags(
            D, ref, self.hit_cut[cuts], self.miss_cut[cuts], None if flip is None else flip[open_n]
        )
        return hit, miss, ref


# ---------------------------------------------------------------------------
# Signed windows
# ---------------------------------------------------------------------------

#: Absolute error bound of every float64 distance bound of a signed window:
#: each endpoint z/K or (z+1)/K lies in [0,1] and carries at most three
#: roundings (two int64-to-float conversions and the division), a center
#: one, every subtraction one more; 2^-49 is twice the sum of them all.
_WINDOW_ABS_ERROR = 2.0**-49


def _signed_window_length(slopes: Sequence[int]) -> int:
    """Largest W with max|slope|^W < 2^62 (0 when even one symbol does not fit).

    W < 62 / log2(top) <= W + 1; the float quotient is within one of it.
    """
    top = max(abs(k) for k in slopes)
    W = int(62 / math.log2(top))
    if top**W >= _INT64_WINDOW_LIMIT:
        return W - 1
    return W + 1 if top ** (W + 1) < _INT64_WINDOW_LIMIT else W


def _window_ends(K: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) float64 ends of the intervals between z/K and (z+1)/K.

    Adds 1 to z in place.  Given the arrays of ``_compose_windows`` with no
    other name on them, it frees them on return, before the distances are
    taken.
    """
    a = z / K
    z += 1
    b = z / K
    return np.minimum(a, b), np.maximum(a, b, out=b)


class _SignedWindows:
    """Per-plan data of a signed-window axis: the int64 branch tables, the
    window length W and the float ``_axis_thresholds``.

    T^n(x) lies in the interval between z_n/K_n and (z_n+1)/K_n, where
    (K_n, z_n) composes the branches of symbols n..n+W-1; window 0 encloses
    x itself.  Distance bounds are taken in float64, whose error
    ``_WINDOW_ABS_ERROR`` bounds, and compared with the radius bounds.
    """

    def __init__(self, map_spec, axis, axis_rate, n_max, center, metric):
        slopes, offsets = map_spec.axis_int_tables(axis)
        self.axis, self.W = axis, _signed_window_length(slopes)
        self.slopes = np.array(slopes, dtype=np.int64)
        self.offsets = np.array(offsets, dtype=np.int64)
        self.lower, self.upper = _axis_thresholds(axis_rate, n_max, _WINDOW_ABS_ERROR)
        # None: each point's own window 0
        self.ref = None if center is None else (float(center),) * 2
        self.length = n_max + self.W
        self.torus = metric == "torus"

    def block_flags(self, point: GenericPoint, lo: int, hi: int, ref):
        """(certain_hit, certain_miss, ref) over n = lo+1..hi.

        ``ref`` is the reference interval (x_lo, x_hi): the target center
        twice, the point's window 0 returned by an earlier block, or None on
        the first block of a recurrence, which then composes window 0 too.
        """
        first = 0 if ref is None else lo + 1
        symbols = point.symbols(self.axis, self.length)[first : hi + self.W]
        y_lo, y_hi = _window_ends(
            *_compose_windows(self.slopes[symbols], self.offsets[symbols], self.W)
        )
        if ref is None:
            ref = y_lo[0], y_hi[0]
            y_lo, y_hi = y_lo[1:], y_hi[1:]
        x_lo, x_hi = ref
        d_hi = np.maximum(y_hi - x_lo, x_hi - y_lo)
        # the block's own arrays, not needed again: d_lo is taken in place
        y_lo -= x_hi
        d_lo = np.maximum(y_lo, np.subtract(x_lo, y_hi, out=y_hi), out=y_lo)
        np.maximum(d_lo, 0.0, out=d_lo)
        if self.torus:
            d_hi, d_lo = np.minimum(d_hi, 1.0 - d_lo), np.minimum(d_lo, 1.0 - d_hi)
        return d_hi < self.lower[lo:hi], d_lo > self.upper[lo:hi], ref


# ---------------------------------------------------------------------------
# Window engine
# ---------------------------------------------------------------------------


def axis_engines(map_spec: MapSpec) -> tuple[tuple[str, str], ...]:
    """(engine, reason) of each axis, as ``hit_indicators`` counts it.

    * ``("digit", "uniform-base")`` -- every branch has slope +b;
    * ``("digit", "uniform-signed-base")`` -- every branch has slope +b or
      -b, some -b (tent): digit windows read through the parity automaton;
    * ``("window", "integer-slopes")`` -- integer slopes and offsets of
      either sign and mixed sizes;
    * ``("interval", "non-integer-slopes")`` -- anything else (a slope of
      2^62 or more too): the axis settles no n by itself.  A map with no
      other kind of axis runs the interval engine; otherwise its window axes
      settle what they can.
    """
    out = []
    for axis in range(map_spec.dimension):
        tables, signed = map_spec.axis_int_tables(axis), map_spec.axis_signed_base(axis)
        if tables is None or _signed_window_length(tables[0]) == 0:
            out.append(("interval", "non-integer-slopes"))
        elif signed is not None:
            out.append(("digit", "uniform-signed-base" if any(signed[1]) else "uniform-base"))
        else:
            out.append(("window", "integer-slopes"))
    return tuple(out)


class HitCounter:
    """``hit_indicators`` of one (map, rate, n_max, target, metric).

    Building it does the per-plan work once: the engines of ``axis_engines``
    and, for each digit axis, W, B = b^W, the ``_axis_thresholds`` cuts at
    scale B, their prefix cuts and the target's floor(c * B); for each
    signed axis, the int64 branch tables, W and the float
    ``_axis_thresholds``.  Calling it on a point does only that point's
    work: its windows, the comparisons and the exact refinement of the n no
    axis settles.  It holds no per-point state, so one counter serves any
    number of points on any threads.
    """

    def __init__(
        self,
        map_spec: MapSpec,
        rate: RateFunction,
        n_max: int,
        target: TargetSpec | None = None,
        metric: str = "interval",
    ):
        if rate.dimension != map_spec.dimension:
            raise ValueError("rate and map dimensions differ")
        limit = rate.max_index()
        if limit is not None and n_max > limit:
            raise ValueError(f"rate is only defined up to n = {limit}")
        self.map, self.rate, self.n_max, self.metric = map_spec, rate, n_max, metric
        self.center = None if target is None else target.center
        engines = [engine for engine, _ in axis_engines(map_spec)]
        self.interval_only = all(engine == "interval" for engine in engines)
        self.has_interval_axis = "interval" in engines
        # an identically zero radius on any axis makes every n a miss
        self.zero_radius = any(a.min_positive(n_max) is None for a in rate.axes)
        centers = self.center or (None,) * map_spec.dimension
        kinds = {"digit": _DigitWindows, "window": _SignedWindows}
        self.windows = () if self.zero_radius else tuple(
            kinds[engine](map_spec, axis, rate.axes[axis], n_max, centers[axis], metric)
            for axis, engine in enumerate(engines)
            if engine in kinds
        )

    def __call__(self, point: GenericPoint) -> tuple[np.ndarray, np.ndarray]:
        """Boolean (hits, unresolved) over n = 1..n_max for one point."""
        if self.zero_radius:
            return np.zeros(self.n_max, dtype=bool), np.zeros(self.n_max, dtype=bool)
        if self.interval_only:
            return _count_with_intervals(self.rate, point, self.n_max, self.center, self.metric)
        return _count_with_digits(self, point)

    def record(
        self,
        point: GenericPoint,
        checkpoints: tuple[int, ...],
        main_terms: Sequence[Fraction] | None,
        keep_hits: int = 0,
    ) -> CountRecord:
        """The point's CountRecord at ``checkpoints`` (``_checked_checkpoints``)."""
        hits, unresolved = self(point)
        kind = "recurrence" if self.center is None else "target"
        return _make_record(kind, point, checkpoints, hits, unresolved, main_terms, keep_hits)


#: n per block of ``_count_with_digits``: a block's windows, distances and
#: flags stay in cache, and no per-point temporary is N long.
_COUNT_BLOCK = 1 << 16


def _count_with_digits(counter: HitCounter, point: GenericPoint) -> tuple[np.ndarray, np.ndarray]:
    """(hits, unresolved) boolean arrays over n = 1..n_max for one point.

    The window engine, one block of ``_COUNT_BLOCK`` n at a time: each digit
    or signed axis of ``counter`` gives the block's certain-hit and
    certain-miss flags (interval axes settle nothing); an n is a hit when
    every axis is a certain hit, a miss when one axis is a certain miss, and
    decided by ``points.point_outcome`` otherwise.  A point of one block returns
    that block's hit array itself.
    """
    n_max = counter.n_max
    unresolved = np.zeros(n_max, dtype=bool)
    refs = [windows.ref for windows in counter.windows]
    hits = None
    for lo in range(0, n_max, _COUNT_BLOCK):
        hi = min(lo + _COUNT_BLOCK, n_max)
        all_hit = any_miss = None
        for i, windows in enumerate(counter.windows):
            hit, miss, refs[i] = windows.block_flags(point, lo, hi, refs[i])
            if all_hit is None:
                all_hit, any_miss = hit, miss
            else:
                all_hit &= hit
                any_miss |= miss
        if counter.has_interval_axis:
            all_hit[:] = False
        # flags of one axis are never both set, so all_hit and any_miss are
        # never both set either: an n where they are equal (both unset) is
        # neither a certain hit on every axis nor a certain miss on one
        for i in (all_hit == any_miss).nonzero()[0].tolist():
            n = lo + i + 1
            outcome = point_outcome(
                point, n, lambda axis: counter.rate.axes[axis](n), counter.metric, counter.center
            )
            if outcome is Outcome.HIT:
                all_hit[i] = True
            elif outcome is Outcome.UNRESOLVED:
                unresolved[lo + i] = True
        if hi - lo == n_max:
            return all_hit, unresolved
        if hits is None:
            hits = np.empty(n_max, dtype=bool)
        hits[lo:hi] = all_hit
    return hits, unresolved


# ---------------------------------------------------------------------------
# Interval engine
# ---------------------------------------------------------------------------


def _count_with_intervals(
    rate: RateFunction,
    point: GenericPoint,
    n_max: int,
    center: tuple[Fraction, ...] | None,
    metric: str,
) -> tuple[np.ndarray, np.ndarray]:
    hits = np.zeros(n_max, dtype=bool)
    unresolved = np.zeros(n_max, dtype=bool)
    for n in range(1, n_max + 1):
        out = point_outcome(point, n, lambda axis: rate.axes[axis](n), metric, center)
        if out is Outcome.HIT:
            hits[n - 1] = True
        elif out is Outcome.UNRESOLVED:
            unresolved[n - 1] = True
    return hits, unresolved


# ---------------------------------------------------------------------------
# Public counting operations
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4)
def _cached_counter(
    map_spec: MapSpec,
    rate: RateFunction,
    n_max: int,
    target: TargetSpec | None,
    metric: str,
) -> HitCounter:
    """The ``HitCounter`` of the per-call operations: repeated calls with one
    (map, rate, n_max, target, metric), all frozen, share one."""
    return HitCounter(map_spec, rate, n_max, target, metric)


def hit_indicators(
    map_spec: MapSpec,
    rate: RateFunction,
    point: GenericPoint,
    n_max: int,
    target: TargetSpec | None = None,
    metric: str = "interval",
) -> tuple[np.ndarray, np.ndarray]:
    """Boolean (hits, unresolved) over n = 1..n_max: the ``HitCounter`` of
    these arguments (``_cached_counter``) applied to the point."""
    return _cached_counter(map_spec, rate, n_max, target, metric)(point)


def _checked_checkpoints(checkpoints: Sequence[int]) -> tuple[int, ...]:
    ckpts = tuple(checkpoints)
    if not ckpts or list(ckpts) != sorted(set(ckpts)) or ckpts[0] < 1:
        raise ValueError("checkpoints must be strictly increasing positive integers")
    return ckpts


def _make_record(
    kind: str,
    point: GenericPoint,
    checkpoints: tuple[int, ...],
    hits: np.ndarray,
    unresolved: np.ndarray,
    main_terms: Sequence[Fraction] | None,
    keep_hits: int,
) -> CountRecord:
    """The record of one point; ``checkpoints`` from ``_checked_checkpoints``."""
    # the number of flagged n <= N is the number of flagged indices below N
    counts, unres = (
        flags.nonzero()[0].searchsorted(checkpoints).tolist() for flags in (hits, unresolved)
    )
    return CountRecord(
        seed=point.seed,
        kind=kind,
        checkpoints=checkpoints,
        counts=tuple(counts),
        main_terms=None if main_terms is None else tuple(main_terms),
        unresolved=tuple(unres),
        hits=hits[:keep_hits].copy() if keep_hits else None,
    )


def count_recurrence(
    map_spec: MapSpec,
    rate: RateFunction,
    point: GenericPoint,
    checkpoints: Sequence[int],
    metric: str = "interval",
    main_terms: Sequence[Fraction] | None = None,
    with_main_terms: bool = True,
    keep_hits: int = 0,
) -> CountRecord:
    """R(x, N_j) = #{n <= N_j : dist(x_i, T^n(x)_i) < psi_i(n) on all axes}."""
    ckpts = _checked_checkpoints(checkpoints)
    counter = _cached_counter(map_spec, rate, ckpts[-1], None, metric)
    if main_terms is None and with_main_terms:
        main_terms = psi_partial_sums(rate, list(ckpts))
    return counter.record(point, ckpts, main_terms, keep_hits)


def count_shrinking_target(
    map_spec: MapSpec,
    rate: RateFunction,
    target: TargetSpec,
    point: GenericPoint,
    checkpoints: Sequence[int],
    metric: str = "interval",
    main_terms: Sequence[Fraction] | None = None,
    with_main_terms: bool = True,
    keep_hits: int = 0,
) -> CountRecord:
    """W(x, N_j) = #{n <= N_j : dist(T^n(x)_i, center_i) < psi_i(n) on all axes}."""
    ckpts = _checked_checkpoints(checkpoints)
    counter = _cached_counter(map_spec, rate, ckpts[-1], target, metric)
    if main_terms is None and with_main_terms:
        main_terms = target_main_term_sums(rate, target.center, list(ckpts))
    return counter.record(point, ckpts, main_terms, keep_hits)
