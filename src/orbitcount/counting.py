"""Counting functions R(x,N) and W(x,N) with checkpointing.

One window engine counts every map, and the per-n interval engine
(``_count_with_intervals``: ``points.point_outcome``, the exact comparison of
``points.distance_predicate``, at every n) is its reference.  Each axis takes
one of two window kinds, chosen by the map alone (``axis_engines``):

* digit windows, where every branch has slope +b or -b (doubling, tent): the
  stream, read through a parity automaton, is a base-b expansion, and a
  W-digit window (at most what int64 holds) gives an integer distance;
* affine windows, on every other axis (Lüroth-trunc, non-integer slopes): the
  float64 inverse branches composed over W symbols enclose T^n(x) in an
  interval whose ends carry a proved error (``_affine_end_error``).

Both are built by doubling in O(log W) array passes, W from the axis's
weakest expansion and smallest radius (``_window_length``), and compared with
one certified radius bound per n (``_axis_thresholds``): psi(n) widened by
the window's own error.  Digit windows take two stages: the leading P digits
of every window (base^P <= 2^16, a uint32 pyramid) bound its distance from
below, and a prefix cut rules out as certain misses almost every n (a hit has
probability about 2 psi(n)); the full int64 window is chained only at the n
left open, and short blocks take every window by one correlation.  Only the
handful of n that no axis settles fall back to exact interval refinement,
one n at a time, by ``points.point_outcome``.

The engine runs one loop per point over blocks of ``_COUNT_BLOCK`` n, so its
temporaries stay in cache and none of them is N long; window 0, the
recurrence reference, is composed with the first block.  Everything that
depends only on (map, rate, n_max, target, metric) is built once into a
``HitCounter``; applied to a point, it composes that point's windows,
compares them and refines what they leave open.  ``hit_indicators`` builds
a counter (cached per arguments) and applies it once; the harness builds one
per plan and applies it to every point, on any number of threads.

Unresolved comparisons (possible only when the true distance equals the
radius, a measure-zero event) count as misses and are tallied per record.
An axis whose radius is zero at every n makes every n a miss unrefined.
"""

from __future__ import annotations

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


def _compose_windows(a: np.ndarray, c: np.ndarray, W: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, C) of every length-W window of the float64 per-symbol pairs a, c.

    Entry i composes the inverse branches y -> a_s y + c_s of symbols
    i..i+W-1, the first outermost: y -> A y + C sends T^(i+W)(x) back to
    T^i(x).  Window P followed by window Q is (a_P a_Q, a_P c_Q + c_P).
    Windows are built by doubling (lengths 1, 2, 4, ...) and the powers of
    two in W are chained, so the work is O(log W) array passes; each window
    is one tree of W leaves and W - 1 compositions, whose rounding
    ``_affine_end_error`` bounds.
    """
    A = C = None
    acc, span = 0, 1
    while True:
        if W & span:
            if A is None:
                A, C = a, c
            else:
                m = len(c) - acc
                A, C = A[:m] * a[acc:], A[:m] * c[acc:] + C[:m]
            acc += span
        if 2 * span > W:
            return A, C
        doubled = a[:-span] * c[span:]
        doubled += c[:-span]
        a, c = a[:-span] * a[span:], doubled
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
def _window_length(axis_rate: AxisRate, n_max: int, lam: Fraction, cap: int) -> int | None:
    """The least W with lam^W >= 2^GUARD_BITS / min positive psi(n), n <=
    n_max, at most ``cap`` (None if psi is 0 at every n): W symbols of slopes
    at least lam in size make a window at most lam^-W wide.  The only reader
    of ``AxisRate.min_positive``, so a second counter on a rate reads none."""
    psi_min = axis_rate.min_positive(n_max)
    if psi_min is None:
        return None
    need, W, power = Fraction(1 << GUARD_BITS) / psi_min, 1, lam
    while power < need and W < cap:
        W, power = W + 1, power * lam
    return W


@lru_cache(maxsize=16)
def _axis_window_digits(axis_rate: AxisRate, n_max: int, base: int) -> int | None:
    """``_window_length`` of a base-b digit axis, at most the largest W with
    base^W < 2^62, the longest digit window int64 holds."""
    cap = max(W for W in range(1, 63) if base**W < _INT64_WINDOW_LIMIT)
    return _window_length(axis_rate, n_max, base, cap)


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

    @staticmethod
    def length(map_spec: MapSpec, axis: int, axis_rate: AxisRate, n_max: int) -> int | None:
        return _axis_window_digits(axis_rate, n_max, map_spec.axis_signed_base(axis)[0])

    def __init__(self, map_spec, axis, axis_rate, n_max, W, center, metric):
        base, flips = map_spec.axis_signed_base(axis)
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
# Affine windows
# ---------------------------------------------------------------------------

#: Longest affine window.  Its rounding bound grows with W, and n_max + W
#: symbols stay inside the n_max + ``points.REFINE_EXTRA`` (256) that the
#: config validator budgets for the exact refinement anyway.
_AFFINE_MAX_WINDOW = 128

_U = 2.0**-53  # the unit roundoff of float64


def _affine_end_error(W: int) -> float:
    """6 W 2^-53, a bound on the absolute error of each float64 end, C and
    A + C, of a window of W <= 256 symbols from ``_compose_windows``.

    Model (N. J. Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., 2002, ch. 2-3), gradual underflow included: fl(x op y) = (x op
    y)(1 + d) + e, |d| <= u = 2^-53, |e| <= t = 2^-1074, e = 0 for sums; so
    a slope past 2^1074, whose inverse rounds to 0, needs no other path.
    Let E(f) = max(|C' - C|, |A' + C' - A - C|), the largest error on [0, 1]
    of the computed map A' y + C' of an exact window f(y) = A y + C.  Every
    window maps [0, 1] into itself: |A| <= 1, C and A + C in [0, 1].
    * A leaf, 1/slope and offset/slope correctly rounded: E <= 2u + 2t.
    * f = g o h, g = (a1, c1), h = (a2, c2), as A' = fl(a1' a2') and C' =
      fl(fl(a1' c2') + c1'): before its three roundings this is g' o h', and
      |g'(h'(y)) - g(h(y))| <= |(g' - g)(h'(y))| + |a1| |h'(y) - h(y)| <=
      E(g)(1 + 2 E(h)) + E(h) on [0, 1], as h'(y) is within E(h) of [0, 1].
      The roundings add u |a1| (|a2| + |c2|) + u |C| + 2t <= 3u + 2t, up to
      terms in u E: E(f) <= E(g) + E(h) + 3u + 2t + 2 E(g) E(h) + O(u E).
    * A window is a tree of W leaves and W - 1 compositions: E <= (5W - 3) u
      + (4W - 2) t, and as E < 2^-42 the second-order terms add < 2^-74.
    C' is then within E of C and fl(A' + C') within E + u (1 + E) of A + C,
    each end within (5W - 2) u + 2^-73 <= 6 W u.
    """
    return 6 * W * _U


def _affine_unit(W: int) -> float:
    """The ``_axis_thresholds`` unit of an affine window: twice the 2 e + 3u
    by which its distance bounds can be off (``_AffineWindows``)."""
    return 2 * (2 * _affine_end_error(W) + 3 * _U)


class _AffineWindows:
    """Per-plan data of an affine axis: the float64 inverse branches phi_j(y)
    = alpha_j y + beta_j, alpha_j = 1 / slope_j and beta_j = offset_j /
    slope_j (each correctly rounded), W and the float ``_axis_thresholds``.

    T^n(x) = phi_(s_(n+1)) o ... o phi_(s_(n+W))(T^(n+W)(x)) lies between
    C_n and A_n + C_n (``_compose_windows``); window 0 encloses x itself.
    Distance bounds between two such intervals, or one and the target's float
    center, are within 2 e + 3u of the true ones: e = ``_affine_end_error``
    per end, one rounding u per subtraction and one more for the torus 1 - d.
    """

    @staticmethod
    def length(map_spec: MapSpec, axis: int, axis_rate: AxisRate, n_max: int) -> int | None:
        return _window_length(axis_rate, n_max, map_spec.axis_expansion(axis), _AFFINE_MAX_WINDOW)

    def __init__(self, map_spec, axis, axis_rate, n_max, W, center, metric):
        branches = map_spec.axes[axis]
        self.axis, self.W = axis, W
        self.alpha = np.array([float(1 / b.slope) for b in branches])
        self.beta = np.array([float(b.offset / b.slope) for b in branches])
        self.lower, self.upper = _axis_thresholds(axis_rate, n_max, _affine_unit(W))
        # None: each point's own window 0
        self.ref = None if center is None else (float(center),) * 2
        self.length = n_max + W
        self.torus = metric == "torus"

    def block_flags(self, point: GenericPoint, lo: int, hi: int, ref):
        """(certain_hit, certain_miss, ref) over n = lo+1..hi.

        ``ref`` is the reference interval (x_lo, x_hi): the target center
        twice, the point's window 0 returned by an earlier block, or None on
        the first block of a recurrence, which then composes window 0 too.
        """
        first = 0 if ref is None else lo + 1
        symbols = point.symbols(self.axis, self.length)[first : hi + self.W]
        A, C = _compose_windows(self.alpha[symbols], self.beta[symbols], self.W)
        A += C  # the block's own arrays: the ends C and A + C in place
        y_lo, y_hi = np.minimum(A, C), np.maximum(A, C, out=A)
        if ref is None:
            ref = y_lo[0], y_hi[0]
            y_lo, y_hi = y_lo[1:], y_hi[1:]
        x_lo, x_hi = ref
        d_hi = np.maximum(y_hi - x_lo, x_hi - y_lo)
        y_lo -= x_hi
        d_lo = np.maximum(y_lo, np.subtract(x_lo, y_hi, out=y_hi), out=y_lo)
        np.maximum(d_lo, 0.0, out=d_lo)
        if self.torus:
            d_hi, d_lo = np.minimum(d_hi, 1.0 - d_lo), np.minimum(d_lo, 1.0 - d_hi)
        return d_hi < self.lower[lo:hi], d_lo > self.upper[lo:hi], ref


# ---------------------------------------------------------------------------
# Window engine
# ---------------------------------------------------------------------------

_WINDOW_KINDS = {"digit": _DigitWindows, "affine": _AffineWindows}


def axis_engines(map_spec: MapSpec) -> tuple[tuple[str, str], ...]:
    """(engine, reason) of each axis, as ``hit_indicators`` counts it.

    * ``("digit", "uniform-base")`` -- every branch has slope +b;
    * ``("digit", "uniform-signed-base")`` -- every branch has slope +b or
      -b, some -b (tent): digit windows read through the parity automaton;
    * ``("affine", "mixed-slopes")`` -- any other axis, whose slopes then
      differ in size (Lüroth-trunc, non-integer slopes or offsets): float64
      affine windows.
    """
    return tuple(
        ("affine", "mixed-slopes") if signed is None
        else ("digit", "uniform-signed-base" if any(signed[1]) else "uniform-base")
        for signed in map(map_spec.axis_signed_base, range(map_spec.dimension))
    )


class HitCounter:
    """``hit_indicators`` of one (map, rate, n_max, target, metric).

    Building it does the per-plan work once: the engines of ``axis_engines``,
    each axis's W (``_window_length``, None on an axis whose radius is 0 at
    every n), tables and radius bounds.  Calling it on a point does only that
    point's work: its windows, the comparisons and the exact refinement of
    the n no axis settles.  It holds no per-point state, so one counter
    serves any number of points on any threads.
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
        kinds = [_WINDOW_KINDS[engine] for engine, _ in axis_engines(map_spec)]
        lengths = [k.length(map_spec, i, rate.axes[i], n_max) for i, k in enumerate(kinds)]
        # an identically zero radius on any axis makes every n a miss
        self.zero_radius = None in lengths
        centers = self.center or (None,) * map_spec.dimension
        self.windows = () if self.zero_radius else tuple(
            kind(map_spec, axis, rate.axes[axis], n_max, W, centers[axis], metric)
            for axis, (kind, W) in enumerate(zip(kinds, lengths))
        )

    def __call__(self, point: GenericPoint) -> tuple[np.ndarray, np.ndarray]:
        """Boolean (hits, unresolved) over n = 1..n_max for one point."""
        if self.zero_radius:
            return np.zeros(self.n_max, dtype=bool), np.zeros(self.n_max, dtype=bool)
        return _count_with_digits(self, point)

    def record(
        self,
        point: GenericPoint,
        checkpoints: tuple[int, ...],
        main_terms: Sequence[Fraction] | None,
        keep_hits: int = 0,
        cuts: np.ndarray | None = None,
    ) -> CountRecord:
        """The point's CountRecord at ``checkpoints`` (``_checked_checkpoints``)."""
        hits, unresolved = self(point)
        kind = "recurrence" if self.center is None else "target"
        return _make_record(kind, point, checkpoints, hits, unresolved, main_terms, keep_hits, cuts)


#: n per block of ``_count_with_digits``: a block's windows, distances and
#: flags stay in cache, and no per-point temporary is N long.
_COUNT_BLOCK = 1 << 16


def _count_with_digits(counter: HitCounter, point: GenericPoint) -> tuple[np.ndarray, np.ndarray]:
    """(hits, unresolved) boolean arrays over n = 1..n_max for one point.

    The window engine, one block of ``_COUNT_BLOCK`` n at a time: each axis
    of ``counter``, digit or affine, gives the block's certain-hit and
    certain-miss flags; an n is a hit when every axis is a certain hit, a
    miss when one axis is a certain miss, and decided by
    ``points.point_outcome`` otherwise.  A point of one block returns that
    block's hit array itself.
    """
    n_max = counter.n_max
    unresolved = np.zeros(n_max, dtype=bool)
    refs = [windows.ref for windows in counter.windows]
    hits = None
    for lo in range(0, n_max, _COUNT_BLOCK):
        hi = min(lo + _COUNT_BLOCK, n_max)
        all_hit, any_miss, refs[0] = counter.windows[0].block_flags(point, lo, hi, refs[0])
        for i, windows in enumerate(counter.windows[1:], 1):
            hit, miss, refs[i] = windows.block_flags(point, lo, hi, refs[i])
            all_hit &= hit
            any_miss |= miss
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
    """The exact reference of the window engine: ``points.point_outcome`` at
    every n, (hits, unresolved) over n = 1..n_max."""
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
    cuts: np.ndarray | None = None,
) -> CountRecord:
    """One point's record at ``checkpoints`` (``_checked_checkpoints``; ``cuts``: as int64)."""
    # the number of flagged n <= N is the number of flagged indices below N
    cuts = checkpoints if cuts is None else cuts
    counts, unres = (
        tuple(i.searchsorted(cuts).tolist()) if (i := f.nonzero()[0]).size else (0,) * len(cuts)
        for f in (hits, unresolved)
    )
    return CountRecord(
        seed=point.seed,
        kind=kind,
        checkpoints=checkpoints,
        counts=counts,
        main_terms=None if main_terms is None else tuple(main_terms),
        unresolved=unres,
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
