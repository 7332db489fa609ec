"""Fast paths against their exact per-n reference paths (property-based).

* ``counting._axis_thresholds`` (float cuts with a certified slack) against
  ``counting._exact_cuts`` at every n, and ``counting._axis_radius_bounds``
  against the exact radii;
* the symbol draw of ``points.sample_point`` (a search-tree pass per level)
  against ``np.searchsorted`` over ``points.symbol_thresholds``;
* digit windows composed by doubling (``counting._compose_windows``)
  against the W-pass Horner loop, and the checkpoint counts of
  ``counting._make_record`` against cumulative sums;
* ``rates._segment_sums`` (streamed scaled integers) against the per-n sum
  of ``AxisRate.scaled_value``, and against the per-n ``ball_volume`` sum
  for target main terms;
* the lcm binary splitting of integer-power main terms
  (``rates._inverse_power_split``, ``psi_partial_sums``,
  ``target_main_term_sums``) against per-n ``sum_terms``;
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

from orbitcount import counting, exact_measure, points
from orbitcount.counting import (
    _WINDOW_ABS_ERROR,
    _WINDOW_REL_SLACK,
    TargetSpec,
    _axis_radius_bounds,
    _axis_thresholds,
    _compose_windows,
    _count_with_intervals,
    _exact_cuts,
    _make_record,
    _signed_window_length,
    axis_engines,
    hit_indicators,
)
from orbitcount.maps import Branch1D, MapSpec, base_map, compose_word, luroth_map, tent_map
from orbitcount.points import (
    REFINE_EXTRA,
    GenericPoint,
    _PrngSource,
    forced_point,
    sample_point,
    symbol_thresholds,
)
from orbitcount.rates import (
    ConstantRate,
    PowerLogRate,
    PowerRate,
    RateFunction,
    TableRate,
    _inverse_power_split,
    _segment_sums,
    ball_volume,
    psi_partial_sums,
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
#: q = 0 and integer p make one dyadic floor or both exact; q = 17 and
#: q = 2000 (log(2)^-q past the float range) take the exact values
log_exponents = st.one_of(
    st.builds(Fraction, st.integers(min_value=0, max_value=6), st.sampled_from([1, 2, 3])),
    st.sampled_from([Fraction(17), Fraction(2000)]),
)
power_log_rates = st.builds(PowerLogRate, coefficients, exponents, log_exponents)


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
    rate = draw(st.one_of(power_rates, power_log_rates, constant_rates, table_rates(base=base)))
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


def test_power_log_thresholds_match_on_long_ranges():
    """psi = n^-p log(n+1)^-q / 2 with both factors floored to 2^-64.  At a
    2^61 scale the floor of n^-5/2, and with q = 12 that of log(n+1)^-q,
    moves t_n by more than the relative slack: only the absolute slack
    covers them."""
    for p, q, scale, n_max in (
        (Fraction(1, 2), Fraction(1), 2**50, 3000),
        (Fraction(1), Fraction(3, 2), 2**61, 3000),
        (Fraction(5, 2), Fraction(1), 2**61, 3000),
        (Fraction(0), Fraction(12), 2**61, 3000),
    ):
        rate = PowerLogRate(Fraction(1, 2), p, q)
        hit, miss = _axis_thresholds.__wrapped__(rate, n_max, scale)
        for n in range(1, n_max + 1):
            assert (int(hit[n - 1]), int(miss[n - 1])) == _exact_cuts(rate, n, scale), (p, q, n)


@SETTINGS
@given(
    st.one_of(power_rates, power_log_rates, constant_rates, table_rates()),
    st.integers(min_value=1, max_value=400),
)
def test_radius_bounds_keep_the_certified_margin(rate, n_max):
    """A window distance bound settles n only at least 2^-40 psi(n) away
    from the exact psi(n).  The float distance bounds are within half of
    ``_WINDOW_ABS_ERROR`` (twice the sum of their roundings) of the true
    ones; the other half covers the roundings of the radius bounds."""
    n_max = min(n_max, rate.max_index() or n_max)
    lower, upper = _axis_radius_bounds.__wrapped__(rate, n_max)
    margin = Fraction(_WINDOW_REL_SLACK) / 2
    error = Fraction(_WINDOW_ABS_ERROR) / 2
    for n in range(1, n_max + 1):
        psi = rate(n)
        if math.isfinite(lower[n - 1]):
            assert Fraction(lower[n - 1]) + error <= psi * (1 - margin), n
        if math.isfinite(upper[n - 1]):
            assert Fraction(upper[n - 1]) - error >= psi * (1 + margin), n


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


integer_power_rates = st.builds(
    PowerRate, coefficients, st.integers(min_value=0, max_value=4).map(Fraction)
)
#: 32 terms make a leaf of the split, so these end segments inside, at and
#: just past leaf boundaries
power_checkpoints = st.lists(
    st.one_of(
        st.sampled_from([1, 31, 32, 33, 64, 65]), st.integers(min_value=1, max_value=300)
    ),
    min_size=1,
    max_size=5,
)


@SETTINGS
@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=0, max_value=150),
    st.integers(min_value=0, max_value=6),
)
def test_inverse_power_split_matches_sum_terms(lo, length, P):
    hi = lo + length
    A, L = _inverse_power_split(lo, hi, P)
    assert L == math.lcm(*range(lo, hi))
    assert Fraction(A, L**P) == sum_terms(lambda n: Fraction(1, n**P), lo, hi)


@SETTINGS
@given(st.lists(integer_power_rates, min_size=1, max_size=2), power_checkpoints)
def test_integer_power_sums_match_sum_terms(axes, checkpoints):
    rate = RateFunction(tuple(axes))
    want, running, done = {}, Fraction(0), 1
    for N in sorted(set(checkpoints)):
        running += sum_terms(rate.product, done, N + 1)
        done = N + 1
        want[N] = (1 << rate.dimension) * running
    assert psi_partial_sums(rate, checkpoints) == [want[N] for N in checkpoints]


power_centers = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2)]),
    st.builds(Fraction, st.integers(min_value=0, max_value=11), st.just(11)),
)


@SETTINGS
@given(
    st.lists(st.tuples(integer_power_rates, power_centers), min_size=1, max_size=2),
    power_checkpoints,
)
def test_integer_power_target_sums_match_ball_volumes(axes, checkpoints):
    rate = RateFunction(tuple(a for a, _ in axes))
    center = tuple(c for _, c in axes)
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
    rate = RateFunction(tuple(draw(st.one_of(window_rates, power_log_rates)) for _ in axes))
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


def _horner_windows(digits: np.ndarray, base: int, W: int) -> np.ndarray:
    """The base-b number of every W consecutive digits, one pass per digit."""
    v = np.zeros(len(digits) - W + 1, dtype=np.int64)
    for j in range(W):
        v = v * base + digits[j : j + len(v)]
    return v


def _max_digit_window(base: int) -> int:
    """Largest W with base^W < 2^62."""
    return _signed_window_length([base])


@SETTINGS
@given(st.data(), st.integers(min_value=2, max_value=16))
def test_digit_windows_match_horner(data, base):
    W = data.draw(st.integers(min_value=1, max_value=_max_digit_window(base)))
    digit = st.integers(min_value=0, max_value=base - 1)
    tail = data.draw(st.lists(digit, min_size=1, max_size=100))
    run = data.draw(st.sampled_from([0, base - 1]))
    # a run of the top digit gives the largest window, b^W - 1
    digits = np.array([run] * W + tail, dtype=np.uint32).astype(np.int64)
    K, z = _compose_windows(base, digits, W)
    assert K == base**W and isinstance(K, int)
    assert z.dtype == np.int64
    assert np.array_equal(z, _horner_windows(digits, base, W))


def test_digit_windows_at_the_largest_length():
    for base in range(2, 17):
        W = _max_digit_window(base)
        assert base**W < 2**62 <= base ** (W + 1)
        digits = np.random.default_rng(base).integers(0, base, W + 500)
        digits[: 2 * W] = base - 1
        K, z = _compose_windows(base, digits, W)
        assert K == base**W
        assert np.array_equal(z, _horner_windows(digits, base, W))
        assert int(z[0]) == base**W - 1


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
# Symbol draw and checkpoint counts
# ---------------------------------------------------------------------------


class _FixedBits:
    """Stands in for PCG64: hands out the given raw values in order."""

    def __init__(self, raw: np.ndarray):
        self.raw, self.pos = raw, 0

    def random_raw(self, count: int) -> np.ndarray:
        out = self.raw[self.pos : self.pos + count]
        assert len(out) == count
        self.pos += count
        return out


draw_maps = {f"base-{b}": base_map(b) for b in range(2, 17)}
draw_maps.update({f"luroth-trunc-{K}": luroth_map(K) for K in range(2, 65)})


@pytest.mark.parametrize("m", draw_maps.values(), ids=draw_maps.keys())
def test_symbol_draw_matches_searchsorted(m):
    cuts = symbol_thresholds(m, 0)
    lengths = [b.right - b.left for b in m.axes[0]]
    assert cuts.tolist() == [math.ceil(sum(lengths[:s]) * 2**64) for s in range(1, len(lengths))]
    edges = [0, 2**64 - 1] + [int(c) + d for c in cuts for d in (-1, 0, 1)]
    rng = np.random.default_rng(len(cuts))
    raw = np.concatenate(
        [np.array(edges, dtype=np.uint64), rng.integers(0, 2**64, 3000, dtype=np.uint64, endpoint=False)]
    )
    raw = np.concatenate([raw, raw[::-1]])
    source = _PrngSource(m, 0, 0)
    source._bits = _FixedBits(raw)
    # two draws: the second starts mid-stream and inside a block
    got = np.concatenate([source.draw(5), source.draw(len(raw) - 5)])
    assert got.dtype == np.uint32
    assert np.array_equal(got, np.searchsorted(cuts, raw, "right"))


def test_symbol_draw_across_blocks():
    """A draw longer than a block reads the same raw stream in order."""
    m = luroth_map(5)
    cuts = symbol_thresholds(m, 0)
    n = 3 * points._DRAW_BLOCK + 17
    raw = np.random.PCG64(np.random.SeedSequence(entropy=7, spawn_key=(0,))).random_raw(n)
    assert np.array_equal(sample_point(m, 7).symbols(0, n), np.searchsorted(cuts, raw, "right"))


@SETTINGS
@given(st.data(), st.integers(min_value=1, max_value=400))
def test_record_counts_match_cumsums(data, n_max):
    flags = st.lists(st.booleans(), min_size=n_max, max_size=n_max)
    hits = np.array(data.draw(flags), dtype=bool)
    unresolved = np.array(data.draw(flags), dtype=bool)
    inner = data.draw(st.sets(st.integers(min_value=1, max_value=n_max), max_size=8))
    checkpoints = sorted(inner | {1, n_max})
    point = forced_point(luroth_map(2), [(0,)])
    rec = _make_record("recurrence", point, checkpoints, hits, unresolved, None, 0)
    assert rec.counts == tuple(int(np.cumsum(hits)[N - 1]) for N in checkpoints)
    assert rec.unresolved == tuple(int(np.cumsum(unresolved)[N - 1]) for N in checkpoints)
    assert all(type(c) is int for c in rec.counts + rec.unresolved)


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

