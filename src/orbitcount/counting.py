"""Counting functions R(x,N) and W(x,N) with checkpointing.

Two engines produce identical results:

* window engine -- on axes where every branch has an integer slope and an
  integer offset, the n-fold map on a window of the axis stream is an
  integer affine map, so T^n(x) lies in an interval read off integer
  windows of the stream, vectorized over all n <= N at once.  Each axis
  takes one of two window kinds:

  - digit windows, where every branch has the same positive slope b: the
    stream is a base-b digit expansion and a W-digit window (W ~ log_b(1/psi)
    plus guard digits) is compared with exact integer cuts;
  - signed windows, for any other integer slopes (tent, Lüroth-trunc,
    orientation flips): the per-symbol (slope, offset) tables composed over
    a fixed-length window in int64, compared in float64 with a certified
    slack.

  Both kinds are built by the same doubling composition
  (``_compose_windows``) in O(log W) array passes.  Axes with other slopes
  settle nothing by themselves.  Only the handful of n that no axis
  settles fall back to exact interval refinement, one n at a time.
* interval engine -- maps with no integer-slope axis: exact rational
  interval enclosures per n, as in ``points.distance_predicate``.  It is
  also the reference path the window engine is tested against.

Unresolved comparisons (possible only when the true distance equals the
radius, a measure-zero event) count as misses and are tallied per record.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from ._rationals import as_fraction, floor_div, format_fraction, iroot
from .maps import MapSpec
from .points import GenericPoint, Outcome, axis_distance_outcome
from .rates import AxisRate, RateFunction, psi_partial_sums

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


def write_records_csv(records: Sequence[CountRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerows(rec.csv_rows())


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
# Window composition
# ---------------------------------------------------------------------------


def _compose_windows(k: np.ndarray | int, w: np.ndarray, W: int) -> tuple:
    """(K, z) of every length-W window of the per-symbol tables k, w.

    Entry i composes symbols i..i+W-1 in orbit order: window A followed by
    window B is (K_B * K_A, K_B * z_A + z_B).  ``k`` is an int64 array of
    per-symbol slopes, or one Python int b when every symbol has slope b:
    then K is the Python int b^W and z the base-b number whose digits are
    the W offsets (digit windows).  Windows are built by doubling (lengths
    1, 2, 4, ...) and the powers of two in W are chained, so the work is
    O(log W) array passes.  Every window is exact in int64: the caller
    keeps max|k|^W below 2^62, and |z| <= |K| because the window's interval
    [z/K, (z+1)/K] lies in [0,1], so K_B * z_A and z_B are each below 2^62
    and their sum below 2^63.
    """
    uniform = isinstance(k, int)
    K = z = None
    acc, span = 0, 1
    while True:
        if W & span:
            if K is None:
                K, z = k, w
            else:
                m = len(w) - acc
                k_b = k if uniform else k[acc:]
                K = k_b * (K if uniform else K[:m])
                z = z[:m] * k_b
                z += w[acc:]
            acc += span
        if 2 * span > W:
            return K, z
        k_b = k if uniform else k[span:]
        doubled = w[:-span] * k_b
        doubled += w[span:]
        k, w = k_b * (k if uniform else k[:-span]), doubled
        span *= 2


# ---------------------------------------------------------------------------
# Digit windows
# ---------------------------------------------------------------------------


#: Entries per block of the float threshold pass; bounds its temporaries.
_THRESHOLD_BLOCK = 1 << 12

#: Relative slack around the float t_n = psi(n) * scale: four times the
#: 2^-42 error bound of ``AxisRate.float_values``, which is itself
#: thousands of ulp above what libm and the roundings can do.
_FLOAT_REL_SLACK = 2.0**-40

#: Floats at or above this no longer resolve every integer.
_FLOAT_INT_LIMIT = 2.0**52

#: Smallest psi(n) whose float carries the ``float_values`` error bound.
_FLOAT_PSI_MIN = 2.0**-1000


def _exact_cuts(axis_rate: AxisRate, n: int, scale: int) -> tuple[int, int]:
    """(hit, miss) cuts of one n from the exact value; the reference path."""
    v = axis_rate(n)
    if v == 0:
        return -1, 0
    t_num, t_den = v.numerator * scale, v.denominator
    fl = t_num // t_den
    ce = -((-t_num) // t_den)
    return min(ce - 2, _INT64_WINDOW_LIMIT), min(fl + 2, _INT64_WINDOW_LIMIT)


@lru_cache(maxsize=4)
def _axis_thresholds(axis_rate: AxisRate, n_max: int, scale: int) -> tuple:
    """Per-n integer cut points for window comparisons at denominator ``scale``.

    For t_n = psi(n) * scale: a window distance D is a certain hit when
    D <= ceil(t_n) - 2, a certain miss when D >= floor(t_n) + 2 (or always
    when psi(n) = 0); anything between needs refinement.  D is within one
    unit of the true distance times ``scale`` -- exactly one only when a
    stream ends in a run of the top digit, so that its point is the closed
    right end of every window -- and the cuts keep the comparison strict
    even then: at an integer t_n a distance of exactly psi(n) is left to
    refinement, which reports it UNRESOLVED.

    t_n is taken from float64 values and bracketed by a certified slack.
    Where no integer lies in the bracket, floor(t_n) is the bracket's floor
    and ceil(t_n) one more; every other n (a zero radius, a bracket that
    holds an integer, floats too large to resolve integers) gets the same
    cuts from ``_exact_cuts``.
    """
    hit = np.empty(n_max, dtype=np.int64)
    miss = np.empty(n_max, dtype=np.int64)
    scale_f = float(scale)
    abs_slack = axis_rate.float_abs_error() * scale_f
    for lo in range(1, n_max + 1, _THRESHOLD_BLOCK):
        hi = min(lo + _THRESHOLD_BLOCK, n_max + 1)
        psi = axis_rate.float_values(lo, hi)
        t = psi * scale_f
        slack = t * _FLOAT_REL_SLACK + abs_slack
        upper = t + slack
        fl = np.floor(upper)
        sure = (psi >= _FLOAT_PSI_MIN) & (upper < _FLOAT_INT_LIMIT)
        sure[sure] = fl[sure] < t[sure] - slack[sure]  # finite there: no inf - inf
        cut = np.where(sure, fl, 0.0).astype(np.int64)
        hit[lo - 1 : hi - 1] = cut - 1
        miss[lo - 1 : hi - 1] = cut + 2
        for i in np.flatnonzero(~sure).tolist():
            hit[lo + i - 1], miss[lo + i - 1] = _exact_cuts(axis_rate, lo + i, scale)
    return hit, miss


@lru_cache(maxsize=16)
def _axis_window_digits(axis_rate: AxisRate, n_max: int, base: int) -> int | None:
    """Window length W with base^W >= 2^GUARD_BITS / min positive psi."""
    if axis_rate.nonincreasing():
        candidates = [axis_rate(n_max), axis_rate(1)]
    else:
        candidates = [axis_rate(n) for n in range(1, n_max + 1)]
    positive = [v for v in candidates if v > 0]
    if not positive:
        return None
    need = Fraction(1 << GUARD_BITS) / min(positive)
    W = 1
    power = Fraction(base)
    while power < need:
        power *= base
        W += 1
    return W


def _axis_digit_flags(
    point: GenericPoint,
    axis: int,
    n_max: int,
    axis_rate: AxisRate,
    center: Fraction | None,
    metric: str,
    base: int,
) -> tuple[np.ndarray, np.ndarray] | None:
    """(certain_hit, certain_miss) boolean arrays over n = 1..n_max, or None
    when the axis radius is identically zero (then every n is a miss)."""
    W = _axis_window_digits(axis_rate, n_max, base)
    if W is None:
        return None
    # int64 before any product: a Python int times a uint32 array stays uint32
    B, v = _compose_windows(base, point.symbols(axis, n_max + W).astype(np.int64), W)
    if center is None:
        ref = int(v[0])
    else:
        ref = floor_div(center * B)
    D = v[1:]  # v is this call's own array: take the distances in place
    D -= ref
    np.abs(D, out=D)
    hit_cut, miss_cut = _axis_thresholds(axis_rate, n_max, B)
    hit = D <= hit_cut
    miss = D >= miss_cut
    if metric == "torus":
        D2 = B - D
        hit |= D2 <= hit_cut
        miss &= D2 >= miss_cut
    return hit, ~hit & miss


# ---------------------------------------------------------------------------
# Signed windows
# ---------------------------------------------------------------------------

#: Absolute error bound of every float64 distance bound of a signed window:
#: each endpoint z/K or (z+1)/K lies in [0,1] and carries at most three
#: roundings (two int64-to-float conversions and the division), a center
#: one, every subtraction one more; 2^-49 is twice the sum of them all.
_WINDOW_ABS_ERROR = 2.0**-49

#: Relative slack around psi(n): 2^-40 is the margin the exact path needs
#: (see ``_axis_radius_bounds``), the rest covers the 2^-42 error bound of
#: ``AxisRate.float_values`` and the roundings of the comparison itself.
_WINDOW_REL_SLACK = 2.0**-39


def _signed_window_length(slopes: Sequence[int]) -> int:
    """Largest W with max|slope|^W < 2^62 (0 when even one symbol does not fit)."""
    top = max(abs(k) for k in slopes)
    W, power = 0, top
    while power < _INT64_WINDOW_LIMIT:
        W += 1
        power *= top
    return W


@lru_cache(maxsize=4)
def _axis_radius_bounds(axis_rate: AxisRate, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) float64 arrays over n = 1..n_max.

    A window distance bound d_hi < lower[n] makes n a certain hit, and
    d_lo > upper[n] a certain miss, with a margin of at least 2^-40 psi(n)
    on the true distance.  That margin is why the exact path returns the
    same HIT or MISS, never UNRESOLVED: ``points.axis_distance_outcome``
    refines to depth start_depth + 56, where its enclosures are at most
    lam^-55 psi <= 2^-55 psi wide per end (start_depth ~ log_lam(1/psi),
    off by at most one), so its distance bound sits within 2^-54 psi of the
    true distance, well inside the margin.  Zero radii, radii below 2^-1000
    (outside the ``float_values`` error bound) and non-finite ones get
    -inf and +inf: no window settles them.
    """
    psi = axis_rate.float_values(1, n_max + 1)
    trusted = (psi >= _FLOAT_PSI_MIN) & np.isfinite(psi)
    psi = psi[trusted]
    slack = psi * _WINDOW_REL_SLACK + (2 * axis_rate.float_abs_error() + _WINDOW_ABS_ERROR)
    lower = np.full(n_max, -np.inf)
    upper = np.full(n_max, np.inf)
    lower[trusted] = psi - slack
    upper[trusted] = psi + slack
    return lower, upper


def _axis_window_flags(
    point: GenericPoint,
    axis: int,
    n_max: int,
    axis_rate: AxisRate,
    center: Fraction | None,
    metric: str,
) -> tuple[np.ndarray, np.ndarray]:
    """(certain_hit, certain_miss) over n = 1..n_max from signed windows.

    T^n(x) lies in the interval between z_n/K_n and (z_n+1)/K_n, where
    (K_n, z_n) composes the branches of symbols n..n+W-1; window 0 encloses
    x itself.  Distance bounds are taken in float64, whose error
    ``_WINDOW_ABS_ERROR`` bounds, and compared with ``_axis_radius_bounds``.
    """
    slopes, offsets = point.map.axis_int_tables(axis)
    W = _signed_window_length(slopes)
    symbols = point.symbols(axis, n_max + W)
    K, z = _compose_windows(
        np.array(slopes, dtype=np.int64)[symbols],
        np.array(offsets, dtype=np.int64)[symbols],
        W,
    )
    a, b = z / K, (z + 1) / K
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    if center is None:
        x_lo, x_hi = lo[0], hi[0]
    else:
        x_lo = x_hi = float(center)
    y_lo, y_hi = lo[1:], hi[1:]
    d_hi = np.maximum(y_hi - x_lo, x_hi - y_lo)
    d_lo = np.maximum(np.maximum(y_lo - x_hi, x_lo - y_hi), 0.0)
    if metric == "torus":
        d_hi, d_lo = np.minimum(d_hi, 1.0 - d_lo), np.minimum(d_lo, 1.0 - d_hi)
    lower, upper = _axis_radius_bounds(axis_rate, n_max)
    hit = d_hi < lower
    return hit, ~hit & (d_lo > upper)


# ---------------------------------------------------------------------------
# Window engine
# ---------------------------------------------------------------------------


def axis_engines(
    map_spec: MapSpec, rate: RateFunction, n_max: int
) -> tuple[tuple[str, str], ...]:
    """(engine, reason) of each axis, as ``hit_indicators`` counts it.

    * ``("digit", "uniform-base")`` -- every branch has slope +b;
    * ``("window", "digit-overflow")`` -- the same, but the digit window
      b^W the radii need does not fit int64;
    * ``("window", "integer-slopes")`` -- integer slopes and offsets of
      either sign and mixed sizes;
    * ``("interval", "non-integer-slopes")`` -- anything else (a slope of
      2^62 or more too): the axis settles no n by itself.  A map with no other kind of axis runs the
      interval engine; otherwise its window axes settle what they can.
    """
    out = []
    for axis in range(map_spec.dimension):
        base = map_spec.axis_uniform_base(axis)
        tables = map_spec.axis_int_tables(axis)
        if base is not None:
            W = _axis_window_digits(rate.axes[axis], n_max, base)
            if W is None or base**W < _INT64_WINDOW_LIMIT:
                out.append(("digit", "uniform-base"))
                continue
        if tables is None or _signed_window_length(tables[0]) == 0:
            out.append(("interval", "non-integer-slopes"))
        else:
            out.append(("window", "digit-overflow" if base is not None else "integer-slopes"))
    return tuple(out)


def _count_with_digits(
    map_spec: MapSpec,
    rate: RateFunction,
    point: GenericPoint,
    engines: Sequence[tuple[str, str]],
    n_max: int,
    center: tuple[Fraction, ...] | None,
    metric: str,
) -> tuple[np.ndarray, np.ndarray]:
    """(hits, unresolved) boolean arrays over n = 1..n_max for one point.

    The window engine: each axis gives certain-hit and certain-miss flags
    from digit or signed windows (``engines``, from ``axis_engines``;
    interval axes settle nothing); an n is a hit when every axis is a
    certain hit, a miss when one axis is a certain miss, and decided by
    ``_exact_outcome`` otherwise.
    """
    all_hit = np.ones(n_max, dtype=bool)
    any_miss = np.zeros(n_max, dtype=bool)
    per_axis_unknown = np.zeros(n_max, dtype=bool)
    for axis, (engine, _) in enumerate(engines):
        if engine == "interval":
            all_hit[:] = False
            per_axis_unknown[:] = True
            continue
        args = (
            point,
            axis,
            n_max,
            rate.axes[axis],
            None if center is None else center[axis],
            metric,
        )
        if engine == "digit":
            flags = _axis_digit_flags(*args, map_spec.axis_uniform_base(axis))
        else:
            flags = _axis_window_flags(*args)
        if flags is None:
            return np.zeros(n_max, dtype=bool), np.zeros(n_max, dtype=bool)
        hit, miss = flags
        all_hit &= hit
        any_miss |= miss
        per_axis_unknown |= ~hit & ~miss
    undecided = ~all_hit & ~any_miss & per_axis_unknown
    unresolved = np.zeros(n_max, dtype=bool)
    for n_idx in np.nonzero(undecided)[0]:
        n = int(n_idx) + 1
        outcome = _exact_outcome(map_spec, rate, point, n, center, metric)
        if outcome is Outcome.HIT:
            all_hit[n_idx] = True
        elif outcome is Outcome.UNRESOLVED:
            unresolved[n_idx] = True
    return all_hit, unresolved


def _exact_outcome(map_spec, rate, point, n, center, metric) -> Outcome:
    unresolved = False
    for axis in range(map_spec.dimension):
        out = axis_distance_outcome(
            point,
            axis,
            n,
            rate.axes[axis](n),
            metric=metric,
            center=None if center is None else center[axis],
        )
        if out is Outcome.MISS:
            return Outcome.MISS
        if out is Outcome.UNRESOLVED:
            unresolved = True
    return Outcome.UNRESOLVED if unresolved else Outcome.HIT


# ---------------------------------------------------------------------------
# Interval engine
# ---------------------------------------------------------------------------


def _count_with_intervals(
    map_spec: MapSpec,
    rate: RateFunction,
    point: GenericPoint,
    n_max: int,
    center: tuple[Fraction, ...] | None,
    metric: str,
) -> tuple[np.ndarray, np.ndarray]:
    hits = np.zeros(n_max, dtype=bool)
    unresolved = np.zeros(n_max, dtype=bool)
    for n in range(1, n_max + 1):
        out = _exact_outcome(map_spec, rate, point, n, center, metric)
        if out is Outcome.HIT:
            hits[n - 1] = True
        elif out is Outcome.UNRESOLVED:
            unresolved[n - 1] = True
    return hits, unresolved


# ---------------------------------------------------------------------------
# Public counting operations
# ---------------------------------------------------------------------------


def hit_indicators(
    map_spec: MapSpec,
    rate: RateFunction,
    point: GenericPoint,
    n_max: int,
    target: TargetSpec | None = None,
    metric: str = "interval",
) -> tuple[np.ndarray, np.ndarray]:
    """Boolean (hits, unresolved) over n = 1..n_max; engines from ``axis_engines``."""
    if rate.dimension != map_spec.dimension:
        raise ValueError("rate and map dimensions differ")
    limit = rate.max_index()
    if limit is not None and n_max > limit:
        raise ValueError(f"rate is only defined up to n = {limit}")
    center = target.center if target is not None else None
    engines = axis_engines(map_spec, rate, n_max)
    if all(engine == "interval" for engine, _ in engines):
        return _count_with_intervals(map_spec, rate, point, n_max, center, metric)
    return _count_with_digits(map_spec, rate, point, engines, n_max, center, metric)


def _make_record(
    kind: str,
    point: GenericPoint,
    checkpoints: Sequence[int],
    hits: np.ndarray,
    unresolved: np.ndarray,
    main_terms: Sequence[Fraction] | None,
    keep_hits: int,
) -> CountRecord:
    ckpts = list(checkpoints)
    if ckpts != sorted(ckpts) or len(set(ckpts)) != len(ckpts) or ckpts[0] < 1:
        raise ValueError("checkpoints must be strictly increasing positive integers")
    # the number of flagged n <= N is the number of flagged indices below N
    counts, unres = (
        np.searchsorted(np.flatnonzero(flags), ckpts).tolist() for flags in (hits, unresolved)
    )
    return CountRecord(
        seed=point.seed,
        kind=kind,
        checkpoints=tuple(ckpts),
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
    n_max = max(checkpoints)
    hits, unresolved = hit_indicators(map_spec, rate, point, n_max, metric=metric)
    if main_terms is None and with_main_terms:
        main_terms = psi_partial_sums(rate, list(checkpoints))
    return _make_record(
        "recurrence", point, checkpoints, hits, unresolved, main_terms, keep_hits
    )


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
    n_max = max(checkpoints)
    hits, unresolved = hit_indicators(
        map_spec, rate, point, n_max, target=target, metric=metric
    )
    if main_terms is None and with_main_terms:
        from .rates import target_main_term_sums

        main_terms = target_main_term_sums(rate, target.center, list(checkpoints))
    return _make_record(
        "target", point, checkpoints, hits, unresolved, main_terms, keep_hits
    )
