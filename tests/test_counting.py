"""Counting records: hand orbits, checkpoint consistency, engine agreement."""

from fractions import Fraction

import numpy as np
import pytest

from orbitcount import counting
from orbitcount.counting import (
    CSV_HEADER,
    HitCounter,
    TargetSpec,
    axis_engines,
    count_recurrence,
    count_shrinking_target,
    geometric_checkpoints,
    hit_indicators,
    _count_with_intervals,
)
from orbitcount.maps import doubling_map, tent_map, toral_diag_map
from orbitcount.points import forced_point, sample_point
from orbitcount.rates import constant_rate, power_rate

F = Fraction


def test_recurrence_hand_orbit_fifth():
    m = doubling_map()
    p = forced_point(m, [(0, 0, 1, 1)])  # x = 1/5
    rec = count_recurrence(m, constant_rate("1/10"), p, [4])
    assert rec.counts == (1,)  # only n=4 hits
    assert rec.unresolved == (0,)
    assert rec.main_terms == (2 * 4 * F(1, 10),)


def test_recurrence_hand_orbit_tent():
    m = tent_map()
    p = forced_point(m, [(0, 1)])  # x = 2/5, period 2
    rec = count_recurrence(m, constant_rate("1/100"), p, [4])
    assert rec.counts == (2,)  # n = 2, 4


def test_zero_rate_counts_zero():
    m = doubling_map()
    p = sample_point(m, 11)
    rec = count_recurrence(m, constant_rate(0), p, [10, 100])
    assert rec.counts == (0, 0)


def test_target_hand_orbit_third():
    m = doubling_map()
    p = forced_point(m, [(0, 1)])  # x = 1/3: orbit 2/3, 1/3, ...
    rec = count_shrinking_target(
        m, constant_rate("2/5"), TargetSpec(center=(F(0),)), p, [4]
    )
    assert rec.counts == (2,)  # n = 2 and n = 4


def test_target_fixed_point_every_n_hits():
    m = doubling_map()
    p = forced_point(m, [(0,)])  # x = 0, fixed point
    rec = count_shrinking_target(
        m, constant_rate("1/1000"), TargetSpec(center=(F(0),)), p, [25]
    )
    assert rec.counts == (25,)


def test_target_zero_rate():
    m = doubling_map()
    p = forced_point(m, [(0,)])
    rec = count_shrinking_target(m, constant_rate(0), TargetSpec(center=(F(0),)), p, [5])
    assert rec.counts == (0,)


def test_checkpoint_consistency():
    m = doubling_map()
    rate = power_rate("1/2", "1/2")
    for seed in (3, 1234):
        r_both = count_recurrence(m, rate, sample_point(m, seed), [1000, 10**4])
        r_last = count_recurrence(m, rate, sample_point(m, seed), [10**4])
        assert r_both.counts[-1] == r_last.counts[0]
        assert r_both.counts[0] <= r_both.counts[1]


def test_ball_monotonicity():
    m = doubling_map()
    for seed in (5, 17, 901):
        p1 = sample_point(m, seed)
        p2 = sample_point(m, seed)
        small = count_recurrence(m, power_rate("1/4", "1/2"), p1, [2000])
        big = count_recurrence(m, power_rate("1/2", "1/2"), p2, [2000])
        assert big.counts[0] >= small.counts[0]


def test_digit_engine_matches_interval_engine():
    m = doubling_map()
    rate = power_rate("1/2", "1/2")
    for seed in (1, 2, 3, 4, 5):
        p1 = sample_point(m, seed)
        hits_fast, unres_fast = hit_indicators(m, rate, p1, 10**4)
        p2 = sample_point(m, seed)
        hits_slow, unres_slow = _count_with_intervals(rate, p2, 10**4, None, "interval")
        assert np.array_equal(hits_fast, hits_slow)
        assert np.array_equal(unres_fast, unres_slow)


def test_digit_engine_matches_interval_engine_target_and_2d():
    rate2 = power_rate("1/3", "1/4", dimension=2)
    m2 = toral_diag_map([2, 3])
    for seed in (8, 44):
        pa = sample_point(m2, seed)
        pb = sample_point(m2, seed)
        fast = hit_indicators(m2, rate2, pa, 500)
        slow = _count_with_intervals(rate2, pb, 500, None, "interval")
        assert np.array_equal(fast[0], slow[0])
    m = doubling_map()
    rate = power_rate("1/2", "1/2")
    center = (F(1, 2),)
    for seed in (10, 20):
        pa = sample_point(m, seed)
        pb = sample_point(m, seed)
        fast = hit_indicators(m, rate, pa, 2000, target=TargetSpec(center))
        slow = _count_with_intervals(rate, pb, 2000, center, "interval")
        assert np.array_equal(fast[0], slow[0])


def test_torus_metric_engines_agree():
    m = doubling_map()
    rate = power_rate("1/2", "1/2")
    for seed in (21, 22):
        pa = sample_point(m, seed)
        pb = sample_point(m, seed)
        fast = hit_indicators(m, rate, pa, 2000, metric="torus")
        slow = _count_with_intervals(rate, pb, 2000, None, "torus")
        assert np.array_equal(fast[0], slow[0])
    # torus hits dominate interval hits (the torus distance is never larger)
    p1, p2 = sample_point(m, 50), sample_point(m, 50)
    torus = hit_indicators(m, rate, p1, 2000, metric="torus")[0]
    plain = hit_indicators(m, rate, p2, 2000)[0]
    assert np.all(torus[plain])


def test_target_torus_engines_agree():
    m = doubling_map()
    rate = power_rate("1/2", "1/2")
    center = (F(0),)  # boundary center: torus and interval genuinely differ
    for seed in (31, 32):
        pa, pb = sample_point(m, seed), sample_point(m, seed)
        fast = hit_indicators(m, rate, pa, 1500, target=TargetSpec(center), metric="torus")
        slow = _count_with_intervals(rate, pb, 1500, center, "torus")
        assert np.array_equal(fast[0], slow[0])
    # and the two metrics really differ for a boundary center
    p1, p2 = sample_point(m, 33), sample_point(m, 33)
    torus = hit_indicators(m, rate, p1, 1500, target=TargetSpec(center), metric="torus")[0]
    plain = hit_indicators(m, rate, p2, 1500, target=TargetSpec(center))[0]
    assert torus.sum() > plain.sum()


def test_mixed_product_map_counting():
    from orbitcount.maps import MapSpec, tent_map

    m = MapSpec(axes=(doubling_map().axes[0], tent_map().axes[0]))
    rate = constant_rate("1/6", dimension=2)
    p = sample_point(m, 77)
    rec = count_recurrence(m, rate, p, [300], with_main_terms=False)
    assert 0 <= rec.counts[0] <= 300
    # periodic product point: both axes return exactly at even times
    q = forced_point(m, [(0, 1), (0, 1)])  # x = (1/3, 2/5)
    rec = count_recurrence(m, constant_rate("1/50", dimension=2), q, [8])
    assert rec.counts == (4,)


def test_luroth_counting_generic_engine():
    from orbitcount.maps import luroth_map

    m = luroth_map(4)
    # forced stream cycling branch 3 ([1/2,1), slope 2): the fixed point of
    # 2x - 1 is 1, approached from inside; distances to the start stay large
    p = forced_point(m, [(3, 3, 3, 3)])
    rec = count_recurrence(m, constant_rate("1/100"), p, [4])
    assert rec.counts == (4,)  # stream of a fixed branch: x is its fixed point
    # sampled point sanity: counts are finite, on affine windows
    rec = count_recurrence(m, constant_rate("1/20"), sample_point(m, 3), [200])
    assert 0 <= rec.counts[0] <= 200


def test_digit_overflow_falls_back_to_intervals():
    m = doubling_map()
    # the 96 digits this radius asks for overflow int64: the window keeps the
    # 61 that fit and every n goes to the exact path
    tiny = constant_rate(F(1, 2**80))
    assert axis_engines(m) == (("digit", "uniform-base"),)
    p = sample_point(m, 9)
    rec = count_recurrence(m, tiny, p, [50])
    assert rec.counts == (0,)
    assert rec.unresolved == (0,)


def test_checkpoint_consistency_at_1e6():
    m = doubling_map()
    rate = power_rate("1/2", "1/2")
    both = count_recurrence(
        m, rate, sample_point(m, 271828), [10**3, 10**6], with_main_terms=False
    )
    last = count_recurrence(
        m, rate, sample_point(m, 271828), [10**6], with_main_terms=False
    )
    assert both.counts[-1] == last.counts[0]


def test_counts_bounded_by_n():
    m = doubling_map()
    rec = count_recurrence(m, constant_rate("1"), sample_point(m, 2), [10, 50])
    assert rec.counts == (10, 50)  # radius 1: every n hits


def test_keep_hits():
    m = doubling_map()
    p = forced_point(m, [(0, 0, 1, 1)])
    rec = count_recurrence(m, constant_rate("1/10"), p, [8], keep_hits=8)
    assert rec.hits.tolist() == [False, False, False, True, False, False, False, True]


def test_geometric_checkpoints():
    cs = geometric_checkpoints(10**6, minimum=100)
    assert cs[0] == 100
    assert cs[-1] == 10**6
    assert all(a < b for a, b in zip(cs, cs[1:]))
    assert geometric_checkpoints(10)[-1] == 10
    # ceil(10^(j/4)): 1, 2, 4, 6, 10, 18, 32, 57, 100, ...
    assert geometric_checkpoints(100) == [1, 2, 4, 6, 10, 18, 32, 57, 100]


def test_csv_roundtrip():
    m = doubling_map()
    rate = constant_rate("1/10")
    p = forced_point(m, [(0, 0, 1, 1)])
    rec = count_recurrence(m, rate, p, [4, 8])
    rows = rec.csv_rows()
    assert len(rows) == 2 and all(len(row) == len(CSV_HEADER) for row in rows)
    first = rows[0]
    assert first[1] == 4 and first[2] == 1
    assert first[3] == "4/5"  # Psi(4) = 2*4*(1/10)
    assert first[4] == "0.8"


def test_invalid_checkpoints():
    m = doubling_map()
    p = sample_point(m, 1)
    with pytest.raises(ValueError):
        count_recurrence(m, constant_rate("1/10"), p, [10, 5])


def test_per_call_counting_shares_one_counter_per_arguments():
    """``hit_indicators``, ``count_recurrence`` and ``count_shrinking_target``
    build a counter once per (map, rate, n_max, target, metric), equal
    arguments built anew included, and keep at most four."""
    counting._cached_counter.cache_clear()
    m, rate = tent_map(), power_rate("1/2", 1)
    fresh = HitCounter(m, rate, 10)
    for seed in range(5):
        got = hit_indicators(tent_map(), power_rate("1/2", 1), sample_point(m, seed), 10)
        want = fresh(sample_point(m, seed))
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    count_recurrence(m, rate, sample_point(m, 5), [3, 10])
    target = TargetSpec((F(1, 3),))
    for _ in range(2):
        count_shrinking_target(m, rate, target, sample_point(m, 6), [10], metric="torus")
    info = counting._cached_counter.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (2, 6, 4)


def test_a_second_counter_on_a_long_table_hashes_no_entry(monkeypatch):
    """A ``TableRate`` is hashed once: the threshold and window-length caches
    keyed by it look it up again on every counter build, and a long table
    would otherwise hash every entry per lookup."""
    from orbitcount.rates import RateFunction, TableRate

    values = tuple(F(1, n + 2) for n in range(4000))
    m, rate = doubling_map(), RateFunction((TableRate(values),))
    HitCounter(m, rate, 4000)
    hashed = []
    fraction_hash = F.__hash__
    monkeypatch.setattr(F, "__hash__", lambda self: hashed.append(self) or fraction_hash(self))
    HitCounter(m, rate, 4000)
    assert hashed == []
    # an equal table built anew hashes its entries once, then no more
    fresh = RateFunction((TableRate(values),))
    HitCounter(m, fresh, 4000)
    assert len(hashed) == len(values)
    HitCounter(m, fresh, 4000)
    assert len(hashed) == len(values)


def test_a_second_counter_reads_no_minimum_radius(monkeypatch):
    """The smallest radius of a rate (``AxisRate.min_positive``, a scan of
    every entry of a table) is read through its cache only: a second counter
    on the same rate, digit or affine axis, zero radius or not, reads it
    zero times.  The cache is cleared per rate, as equal tables share it."""
    from orbitcount.maps import luroth_map
    from orbitcount.rates import RateFunction, TableRate, cached_min_positive

    calls = []
    min_positive = TableRate.min_positive
    monkeypatch.setattr(
        TableRate, "min_positive", lambda self, n: calls.append(n) or min_positive(self, n)
    )
    values = tuple(F(1, (n % 97) + 2) for n in range(10**4))
    for m, table in (
        (doubling_map(), values),
        (luroth_map(4), values),
        (luroth_map(4), (F(0),) * 10**4),
    ):
        rate = RateFunction((TableRate(table),))
        cached_min_positive.cache_clear()
        HitCounter(m, rate, 10**4)
        assert len(calls) == 1
        second = HitCounter(m, rate, 10**4)
        assert len(calls) == 1
        assert second.zero_radius == (table[0] == 0)
        calls.clear()
