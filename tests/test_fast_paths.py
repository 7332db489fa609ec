"""Fast paths against their exact per-n reference paths (property-based).

* ``counting._axis_thresholds`` (float cuts with a certified slack) against
  ``counting._exact_cuts`` at every n;
* ``rates._segment_sums`` (streamed scaled integers) against the per-n sum
  of ``AxisRate.scaled_value``, and against the per-n ``ball_volume`` sum
  for target main terms;
* the window engine on signed integer-slope axes (``hit_indicators``)
  against the per-n ``_exact_outcome`` loop (``_count_with_intervals``);
* the exact oracle's integer leaf-table lane (``measure``,
  ``measure_intersection``, ``measure_within``, ``mixing_deficit``) against
  the Fraction branch-tree walker.
"""

import math
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcount import counting, exact_measure
from orbitcount.counting import (
    TargetSpec,
    _axis_thresholds,
    _compose_windows,
    _count_with_intervals,
    _exact_cuts,
    _signed_window_length,
    axis_engines,
    hit_indicators,
)
from orbitcount.maps import Branch1D, MapSpec, compose_word, luroth_map, tent_map
from orbitcount.points import REFINE_EXTRA, GenericPoint, forced_point, sample_point
from orbitcount.rates import (
    ConstantRate,
    PowerRate,
    RateFunction,
    TableRate,
    _segment_sums,
    ball_volume,
    sum_terms,
    target_main_term_sums,
)

SETTINGS = settings(max_examples=60, deadline=None)

coefficients = st.builds(
    Fraction, st.integers(min_value=0, max_value=64), st.integers(min_value=1, max_value=96)
)
exponents = st.builds(
    Fraction, st.integers(min_value=0, max_value=12), st.sampled_from([1, 2, 3, 4])
)
power_rates = st.builds(PowerRate, coefficients, exponents)
constant_rates = st.builds(ConstantRate, coefficients)


@st.composite
def table_rates(draw, base=2, size=st.integers(min_value=1, max_value=200)):
    """Tables with zeros and with entries whose scaled value is an integer."""
    entry = st.one_of(
        st.just(Fraction(0)),
        st.builds(
            Fraction, st.integers(min_value=0, max_value=10**6), st.integers(1, 10**4)
        ),
        st.builds(
            lambda m, j: Fraction(m, base**j),
            st.integers(min_value=0, max_value=1 << 20),
            st.integers(min_value=0, max_value=24),
        ),
    )
    return TableRate(tuple(draw(st.lists(entry, min_size=1, max_size=draw(size)))))


@st.composite
def threshold_cases(draw):
    base = draw(st.integers(min_value=2, max_value=5))
    rate = draw(st.one_of(power_rates, constant_rates, table_rates(base=base)))
    n_max = draw(st.integers(min_value=1, max_value=rate.max_index() or 400))
    max_w = int(61 / math.log2(base))  # base**W < 2^62, as in the digit engine
    scale = base ** draw(st.integers(min_value=1, max_value=max_w))
    return rate, n_max, scale


@SETTINGS
@given(threshold_cases())
def test_float_thresholds_match_exact_cuts(case):
    rate, n_max, scale = case
    hit, miss = _axis_thresholds.__wrapped__(rate, n_max, scale)
    for n in range(1, n_max + 1):
        assert (int(hit[n - 1]), int(miss[n - 1])) == _exact_cuts(rate, n, scale), n


def test_float_thresholds_match_on_long_ranges():
    """psi = n^-p / 2 against the exact cuts at every n.  At p = 5/2 and a
    2^61 scale the 2^-64 dyadic floor of psi moves t_n by up to 1/16, far
    more than the relative slack: only the absolute slack covers it."""
    for p, scale, n_max in (
        (Fraction(1, 2), 2**50, 10**5),
        (Fraction(2), 2**50, 10**5),
        (Fraction(5, 2), 2**61, 10**4),
    ):
        rate = PowerRate(Fraction(1, 2), p)
        hit, miss = _axis_thresholds.__wrapped__(rate, n_max, scale)
        for n in range(1, n_max + 1):
            assert (int(hit[n - 1]), int(miss[n - 1])) == _exact_cuts(rate, n, scale), (p, n)


fixed_axes = st.one_of(
    st.builds(
        PowerRate,
        coefficients,
        st.builds(
            Fraction, st.integers(min_value=1, max_value=9), st.sampled_from([2, 3, 4])
        ).filter(lambda p: p.denominator > 1),
    ),
    constant_rates,
    table_rates(size=st.just(300)),
)


def _reference_sums(rate: RateFunction, checkpoints) -> dict:
    dens = [a.fixed_denominator() for a in rate.axes]
    out, running = {}, 0
    for n in range(1, max(checkpoints) + 1):
        running += math.prod(a.scaled_value(n, d) for a, d in zip(rate.axes, dens))
        if n in checkpoints:
            out[n] = Fraction(running, math.prod(dens))
    return out


@SETTINGS
@given(
    st.lists(fixed_axes, min_size=1, max_size=2),
    st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=4),
)
def test_segment_sums_match_per_n_scaled_values(axes, checkpoints):
    rate = RateFunction(tuple(axes))
    limit = rate.max_index()
    checkpoints = [min(N, limit) if limit else N for N in checkpoints]
    assert _segment_sums(rate, checkpoints) == _reference_sums(rate, set(checkpoints))



def _reference_ball_sums(rate: RateFunction, center, checkpoints) -> list:
    out, running, done = {}, Fraction(0), 1
    for N in sorted(set(checkpoints)):
        running += sum_terms(lambda n: ball_volume(center, rate.radii(n)), done, N + 1)
        done = N + 1
        out[N] = running
    return [out[N] for N in checkpoints]


centers = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2)]),
    st.builds(Fraction, st.integers(min_value=0, max_value=7), st.just(7)),
)


@SETTINGS
@given(
    st.lists(st.tuples(fixed_axes, centers), min_size=1, max_size=2),
    st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=4),
)
def test_target_main_terms_match_per_n_ball_volumes(axes, checkpoints):
    rate = RateFunction(tuple(a for a, _ in axes))
    center = tuple(c for _, c in axes)
    limit = rate.max_index()
    checkpoints = [min(N, limit) if limit else N for N in checkpoints]
    want = _reference_ball_sums(rate, center, checkpoints)
    assert target_main_term_sums(rate, center, checkpoints) == want


# ---------------------------------------------------------------------------
# Window engine on signed integer-slope axes
# ---------------------------------------------------------------------------


def flipped_base_axis(flips) -> tuple:
    """x -> b x mod 1 with branch j orientation-reversed where flips[j]."""
    b = len(flips)
    return tuple(
        Branch1D(Fraction(j, b), Fraction(j + 1, b), -b, -(j + 1))
        if flip
        else Branch1D(Fraction(j, b), Fraction(j + 1, b), b, j)
        for j, flip in enumerate(flips)
    )


window_axes = st.one_of(
    st.just(tent_map().axes[0]),
    st.builds(lambda K: luroth_map(K).axes[0], st.integers(min_value=2, max_value=8)),
    st.builds(flipped_base_axis, st.lists(st.booleans(), min_size=2, max_size=5)),
)

window_rates = st.builds(
    PowerRate,
    st.builds(Fraction, st.integers(min_value=0, max_value=12), st.sampled_from([1, 2, 3, 8, 64])),
    st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(min_value=1, max_value=3)),
        st.builds(Fraction, st.integers(min_value=1, max_value=9), st.sampled_from([2, 3, 4])),
    ),
)


@st.composite
def window_cases(draw):
    axes = tuple(draw(st.lists(window_axes, min_size=1, max_size=2)))
    m = MapSpec(axes=axes)
    rate = RateFunction(tuple(draw(window_rates) for _ in axes))
    kind = draw(st.sampled_from(["recurrence", "fixed", "endpoint"]))
    if kind == "recurrence":
        center = None
    elif kind == "fixed":
        center = tuple(draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2)])) for _ in axes)
    else:
        center = tuple(draw(st.sampled_from([b.left for b in a] + [Fraction(1)])) for a in axes)
    metric = draw(st.sampled_from(["interval", "torus"]))
    n_max = draw(st.integers(min_value=1, max_value=300))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return m, rate, center, metric, n_max, seed


def _engines_agree(m, rate, make_point, n_max, center, metric):
    target = None if center is None else TargetSpec(center)
    fast = hit_indicators(m, rate, make_point(), n_max, target=target, metric=metric)
    slow = _count_with_intervals(m, rate, make_point(), n_max, center, metric)
    assert np.array_equal(fast[0], slow[0])
    assert np.array_equal(fast[1], slow[1])
    return slow


@SETTINGS
@given(window_cases())
def test_window_engine_matches_per_n_reference(case):
    m, rate, center, metric, n_max, seed = case
    assert all(engine != "interval" for engine, _ in axis_engines(m, rate, n_max))
    _engines_agree(m, rate, lambda: sample_point(m, seed), n_max, center, metric)


def _stream_point(m: MapSpec, cycles) -> tuple[Fraction, ...]:
    """The exact point whose per-axis symbol streams repeat ``cycles``."""
    out = []
    for branches, cycle in zip(m.axes, cycles):
        K, z = compose_word(branches, cycle)
        out.append(z / (K - 1))  # the fixed point K x - z = x of the cycle
    return tuple(out)


symbols = st.integers(min_value=0, max_value=7)
#: Short cycles give distances of order one; a long run of one symbol puts x
#: and its orbit near that branch's fixed point, where psi gets small.
cycles = st.one_of(
    st.lists(symbols, min_size=1, max_size=5),
    st.builds(
        lambda s, run, tail: [s] * run + tail,
        symbols,
        st.integers(min_value=8, max_value=40),
        st.lists(symbols, min_size=1, max_size=3),
    ),
)


@SETTINGS
@given(
    st.lists(st.tuples(window_axes, cycles), min_size=1, max_size=2),
    st.integers(min_value=1, max_value=9),
    st.sampled_from(["interval", "torus"]),
    st.booleans(),
)
def test_window_engine_on_exact_ties(axes, lag, metric, use_center):
    """Periodic points with psi equal to an exact orbit distance: the strict
    comparison is undecidable there and the reference reports UNRESOLVED."""
    m = MapSpec(axes=tuple(a for a, _ in axes))
    cycles = [tuple(s % len(a) for s in cyc) for a, cyc in axes]
    x = _stream_point(m, cycles)
    shifted = _stream_point(m, [cyc[lag % len(cyc):] + cyc[: lag % len(cyc)] for cyc in cycles])
    center = tuple(Fraction(1, 2) for _ in cycles) if use_center else None
    ref = center or x
    dist = [abs(y - r) for y, r in zip(shifted, ref)]
    if metric == "torus":
        dist = [min(d, 1 - d) for d in dist]
    rate = RateFunction(tuple(ConstantRate(d) for d in dist))
    _engines_agree(m, rate, lambda: forced_point(m, cycles), 30, center, metric)


def test_engines_report_unresolved_ties():
    m = tent_map()  # x = 2/5 has period 2: |T x - x| = 2/5 at every odd n
    reference = _engines_agree(
        m, RateFunction((ConstantRate(Fraction(2, 5)),)), lambda: forced_point(m, [(0, 1)]),
        12, None, "interval",
    )
    assert reference[1].tolist() == [True, False] * 6
    assert reference[0].tolist() == [False, True] * 6
    # digit windows: the stream 111... is x = 1, the closed end of every
    # window, at distance exactly 1/2 from the center 1/2
    m = luroth_map(2)  # the doubling map
    assert axis_engines(m, RateFunction((ConstantRate(Fraction(1, 2)),)), 12)[0][0] == "digit"
    for c in (Fraction(1, 2), Fraction(1, 4)):
        reference = _engines_agree(
            m, RateFunction((ConstantRate(c),)), lambda: forced_point(m, [(1,)]),
            12, (1 - c,), "interval",
        )
        assert reference[1].all()


@SETTINGS
@given(
    window_axes,
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=200),
    st.integers(min_value=1, max_value=70),
)
def test_compose_windows_match_compose_word(axis, symbols, W):
    m = MapSpec(axes=(axis,))
    slopes, offsets = m.axis_int_tables(0)
    W = min(W, _signed_window_length(slopes))
    sym = np.array([s % len(axis) for s in symbols] * W)
    K, z = _compose_windows(np.array(slopes)[sym], np.array(offsets)[sym], W)
    assert len(K) == len(sym) - W + 1
    for i in range(0, len(K), max(1, len(K) // 20)):
        word = sym[i : i + W].tolist()
        assert (int(K[i]), int(z[i])) == compose_word(axis, word)


def test_non_integer_offsets_take_the_per_n_path(monkeypatch):
    # slopes 4, 2, 4 are integers, but the middle branch 2x - 1/2 is not
    axis = (
        Branch1D(0, Fraction(1, 4), 4, 0),
        Branch1D(Fraction(1, 4), Fraction(3, 4), 2, Fraction(1, 2)),
        Branch1D(Fraction(3, 4), 1, 4, 3),
    )
    m = MapSpec(axes=(axis,))
    rate = RateFunction((PowerRate(Fraction(1, 2), Fraction(1, 2)),))
    assert axis_engines(m, rate, 200) == (("interval", "non-integer-slopes"),)

    def no_windows(*args):
        raise AssertionError("the window engine ran on a non-integer axis")

    monkeypatch.setattr(counting, "_axis_window_flags", no_windows)
    _engines_agree(m, rate, lambda: sample_point(m, 4), 200, None, "interval")
    # next to a window axis it settles nothing itself: the other axis does
    m2 = MapSpec(axes=(axis, tent_map().axes[0]))
    rate2 = RateFunction(rate.axes * 2)
    assert axis_engines(m2, rate2, 200)[1] == ("window", "integer-slopes")
    monkeypatch.undo()
    _engines_agree(m2, rate2, lambda: sample_point(m2, 4), 200, None, "interval")


@pytest.mark.parametrize(
    "axis",
    [tent_map().axes[0], flipped_base_axis([True, False, True])]
    + [luroth_map(K).axes[0] for K in range(2, 9)],
)
def test_window_symbols_stay_inside_the_validated_budget(axis, monkeypatch):
    """The windows read at most n_max + REFINE_EXTRA symbols, so a point
    with the tightest budget the config validator allows never raises."""
    m = MapSpec(axes=(axis,))
    rate = RateFunction((PowerRate(Fraction(1, 2), Fraction(1, 2)),))
    n_max = 400
    requested = []
    symbols = GenericPoint.symbols

    def spy(self, ax, count):
        requested.append(count)
        return symbols(self, ax, count)

    monkeypatch.setattr(GenericPoint, "symbols", spy)
    point = sample_point(m, 8)
    counting._axis_window_flags(point, 0, n_max, rate.axes[0], None, "interval")
    assert max(requested) <= n_max + REFINE_EXTRA
    monkeypatch.undo()
    # the validator's budget: n_max + log_lam(1/psi_min) + REFINE_EXTRA symbols
    window = math.ceil(math.log(2 * math.sqrt(n_max)) / math.log(m.expansion))
    limit = n_max + window + REFINE_EXTRA
    _engines_agree(
        m, rate, lambda: sample_point(m, 8, depth_limit=limit), n_max, None, "interval"
    )


# ---------------------------------------------------------------------------
# Exact oracle: integer leaf tables against the Fraction walker
# ---------------------------------------------------------------------------


@st.composite
def refined_axes(draw):
    """A base-b split whose pieces may split again (slopes b*c), each branch
    orientation-reversed or not: integer offsets, signed and mixed slopes."""
    b = draw(st.integers(min_value=2, max_value=4))
    branches = []
    for j in range(b):
        c = draw(st.sampled_from([1, 1, 2, 3]))
        s = b * c
        for k in range(c):
            left = Fraction(j * c + k, s)
            if draw(st.booleans()):
                branches.append(Branch1D(left, left + Fraction(1, s), -s, -s * left - 1))
            else:
                branches.append(Branch1D(left, left + Fraction(1, s), s, s * left))
    return tuple(branches)


#: slopes 3/2 and -3: the Fraction lane's own production axis
non_integer_axis = (
    Branch1D(0, Fraction(2, 3), Fraction(3, 2), 0),
    Branch1D(Fraction(2, 3), 1, -3, -3),
)

oracle_axes = st.one_of(window_axes, refined_axes())


@st.composite
def oracle_maps(draw):
    first = draw(oracle_axes)
    second = draw(st.sampled_from(["none", "integer", "non-integer"]))
    if second == "none":
        return MapSpec(axes=(first,))
    other = non_integer_axis if second == "non-integer" else draw(oracle_axes)
    return MapSpec(axes=(first, other) if draw(st.booleans()) else (other, first))


unit_points = st.fractions(min_value=0, max_value=1, max_denominator=40)


@st.composite
def rect_unions(draw, dimension):
    """Pairwise-disjoint rectangles: disjoint sides on the first axis."""
    cuts = sorted(draw(st.lists(unit_points, min_size=2, max_size=6)))
    rects = []
    for lo, hi in zip(cuts[::2], cuts[1::2]):
        rest = [tuple(sorted(draw(st.tuples(unit_points, unit_points)))) for _ in range(dimension - 1)]
        rects.append(((lo, hi), *rest))
    return rects


@st.composite
def oracle_events(draw, m: MapSpec, depth: int):
    kind = draw(st.sampled_from(["recurrence", "target", "pullback"]))
    rate = RateFunction(tuple(draw(window_rates) for _ in m.axes))
    if kind == "recurrence":
        return exact_measure.event_recurrence(m, rate, depth)
    if kind == "target":
        center = tuple(
            draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2)] + [b.left for b in a]))
            for a in m.axes
        )
        return exact_measure.event_target(m, rate, center, depth)
    return exact_measure.event_pullback(m, draw(rect_unions(m.dimension)), depth)


def _max_depth(m: MapSpec, leaves: int = 600) -> int:
    """Deepest level at which every axis has at most ``leaves`` cylinders."""
    b = max(m.branch_counts())
    return max(1, int(math.log(leaves, b)))


@contextmanager
def fraction_lane_only():
    """Send every axis to the Fraction walker: the reference path."""
    with mock.patch.object(MapSpec, "axis_int_tables", lambda self, axis: None):
        yield


#: small chunks put every axis through the prefix and per-ancestor branches
chunk_sizes = st.sampled_from([1, 3, 16, exact_measure._BFS_CHUNK])


@SETTINGS
@given(st.data(), oracle_maps(), chunk_sizes)
def test_oracle_lanes_agree(data, m, chunk):
    n = data.draw(st.integers(min_value=1, max_value=_max_depth(m)))
    k = data.draw(st.integers(min_value=1, max_value=n))
    a, b = data.draw(oracle_events(m, k)), data.draw(oracle_events(m, n))
    rect = data.draw(rect_unions(m.dimension))[0]
    e_rect = data.draw(rect_unions(m.dimension))[0]
    f_rects = data.draw(rect_unions(m.dimension))
    computations = (
        lambda: exact_measure.measure(b),
        lambda: exact_measure.measure_intersection(a, b),
        lambda: exact_measure.measure_within(b, rect),
        lambda: exact_measure.mixing_deficit(m, e_rect, f_rects, n),
    )
    with mock.patch.object(exact_measure, "_BFS_CHUNK", chunk):
        fast = [f() for f in computations]
    with fraction_lane_only():
        slow = [f() for f in computations]
    assert fast == slow
    assert 0 <= fast[1] <= min(fast[0], exact_measure.measure(a))


def test_oracle_lanes_agree_past_the_int64_guard(monkeypatch):
    """Lüroth-trunc-4 pairs at depth 6 need cross-products past 2^62: the
    object-dtype lane runs there and matches the walker exactly."""
    m = luroth_map(4)
    assert exact_measure.axis_lanes(m) == (("integer", "integer-slopes"),)
    rate = RateFunction((PowerRate(Fraction(1, 2), Fraction(1)),))
    events = {n: exact_measure.event_recurrence(m, rate, n) for n in range(1, 7)}
    dtypes = []
    chunks = exact_measure._ancestor_chunks

    def spy(tables, lo, hi, dtype):
        dtypes.append(dtype)
        return chunks(tables, lo, hi, dtype)

    monkeypatch.setattr(exact_measure, "_ancestor_chunks", spy)
    pairs = [(i, j) for i in range(1, 7) for j in range(i, 7)]
    fast = [exact_measure.measure_intersection(events[i], events[j]) for i, j in pairs]
    assert np.int64 in dtypes and object in dtypes
    with fraction_lane_only():
        slow = [exact_measure.measure_intersection(events[i], events[j]) for i, j in pairs]
    assert fast == slow

