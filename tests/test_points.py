"""Sampled points: determinism, enclosures, exact distance predicates."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from orbitcount.maps import (
    Branch1D,
    MapSpec,
    doubling_map,
    iterate_map,
    tent_map,
    toral_diag_map,
    word_interval,
)
from orbitcount.points import (
    Outcome,
    PrecisionBudgetError,
    _approx_log_expansion,
    derive_point_seed,
    distance_predicate,
    enclose,
    forced_point,
    sample_point,
    seed_states,
    symbol_thresholds,
)
from orbitcount._rationals import derive_point_seeds
from orbitcount.harness import ExperimentPlan, _plan_points
from orbitcount.maps import map_from_name
from orbitcount.rates import power_rate

F = Fraction


def test_same_seed_same_stream():
    m = doubling_map()
    p1 = sample_point(m, 12345)
    p2 = sample_point(m, 12345)
    # different query schedules must observe the same symbols
    p1.symbols(0, 10)
    p1.symbols(0, 200)
    p2.symbols(0, 200)
    assert np.array_equal(p1.symbols(0, 200), p2.symbols(0, 200))
    e1 = enclose(p1, 64)
    e2 = enclose(p2, 64)
    assert e1 == e2


def test_distinct_seeds_distinct_enclosures():
    m = doubling_map()
    differing = 0
    for s in range(40):
        a = enclose(sample_point(m, derive_point_seed(1, s)), 64)
        b = enclose(sample_point(m, derive_point_seed(2, s)), 64)
        if a != b:
            differing += 1
    assert differing >= 39  # collisions at depth 64 are essentially impossible


#: The reproducibility contract in literals: ``derive_point_seed`` of
#: (master, i), a master of 2^64 or more among them ...
GOLDEN_SEEDS = {
    (0, 0): 12035550249420947055,
    (1, 0): 6791897765849424158,
    (0, 1): 627405149472732430,
    (9090, 7): 2564804302866122668,
    (2**64 + 5, 3): 7485121835981390325,
    (2**70 - 1, 2**12 + 2): 7826478846770032414,
}
#: ... and the first 8 symbols of axes 0 and 1 of toral-diag(2,3) at seeds on
#: the edges of the seed words and at the seed of (9090, 7).  Axis 0 has the
#: doubling map's branches, so it is the doubling map's stream too.
GOLDEN_SYMBOLS = {
    0: ([1, 0, 1, 0, 0, 1, 0, 1], [2, 0, 1, 1, 2, 2, 1, 2]),
    1: ([1, 0, 1, 0, 0, 1, 0, 1], [1, 1, 0, 0, 1, 0, 2, 1]),
    2**32 - 1: ([0, 0, 0, 0, 1, 0, 0, 0], [1, 1, 2, 1, 1, 0, 1, 2]),
    2**32: ([1, 0, 1, 0, 1, 0, 0, 1], [0, 1, 0, 1, 0, 0, 0, 1]),
    2**64 - 1: ([0, 0, 1, 1, 0, 0, 1, 1], [1, 0, 0, 2, 1, 0, 2, 1]),
    2564804302866122668: ([0, 1, 1, 1, 1, 1, 1, 0], [2, 2, 2, 1, 2, 2, 2, 0]),
}


def test_derived_seeds_match_their_recorded_values():
    for (master, i), seed in GOLDEN_SEEDS.items():
        assert derive_point_seed(master, i) == seed
        assert derive_point_seeds(master, i + 1)[i] == seed


def _axis_symbols(point, axes) -> tuple[list[int], ...]:
    return tuple(point.symbols(axis, 8).tolist() for axis in axes)


def test_symbol_streams_match_their_recorded_values():
    """The ``SeedSequence`` path of a single point and the per-plan seed words
    give the recorded symbols."""
    toral, doubling = map_from_name("toral-diag(2,3)"), doubling_map()
    table = np.array(list(GOLDEN_SYMBOLS), dtype=np.uint64)
    states = np.stack([seed_states(table, axis) for axis in (0, 1)], axis=1)
    for (seed, want), row in zip(GOLDEN_SYMBOLS.items(), states):
        assert _axis_symbols(sample_point(toral, seed), (0, 1)) == want
        assert _axis_symbols(sample_point(toral, seed, states=row), (0, 1)) == want
        assert _axis_symbols(sample_point(doubling, seed), (0,)) == want[:1]
        assert _axis_symbols(sample_point(doubling, seed, states=row[:1]), (0,)) == want[:1]
    # a plan's seventh point of master seed 9090
    for m, axes in ((toral, (0, 1)), (doubling, (0,))):
        plan = ExperimentPlan(m, power_rate("1/2", 1, m.dimension), "recurrence", 10, 8, 9090)
        point = _plan_points(plan)(7)
        assert point.seed == GOLDEN_SEEDS[9090, 7]
        assert _axis_symbols(point, axes) == GOLDEN_SYMBOLS[point.seed][: len(axes)]


def test_forced_stream_converges_to_third():
    m = doubling_map()
    p = forced_point(m, [(0, 1)])
    for depth in (2, 8, 20, 40):
        lo, hi = enclose(p, depth).intervals[0]
        assert lo <= F(1, 3) <= hi
        assert hi - lo == F(1, 2**depth)
    lo, hi = enclose(p, 2).intervals[0]
    assert (lo, hi) == (F(1, 4), F(1, 2))


def test_enclosure_depth_zero_and_nesting():
    m = tent_map()
    p = sample_point(m, 7)
    assert enclose(p, 0).intervals == ((F(0), F(1)),)
    prev = enclose(p, 0).intervals[0]
    for depth in range(1, 12):
        lo, hi = enclose(p, depth).intervals[0]
        assert prev[0] <= lo and hi <= prev[1]
        assert hi - lo <= F(1, 2) ** depth
        prev = (lo, hi)


def test_symbol_distribution_matches_branch_lengths():
    # base-3: each symbol should appear ~1/3 of the time
    m = toral_diag_map([3])
    p = sample_point(m, 99)
    syms = p.symbols(0, 30000)
    freq = np.bincount(syms, minlength=3) / 30000
    assert np.all(np.abs(freq - 1 / 3) < 0.02)


def test_symbol_thresholds_exact_cuts():
    m = doubling_map()
    cuts = symbol_thresholds(m, 0)
    assert cuts.tolist() == [1 << 63]


def test_distance_predicate_period4_point():
    # x = 1/5 has binary expansion 0011 repeating: orbit 1/5,2/5,4/5,3/5,...
    m = doubling_map()
    p = forced_point(m, [(0, 0, 1, 1)])
    assert distance_predicate(m, p, 4, [F(1, 10)]) is Outcome.HIT
    assert distance_predicate(m, p, 1, [F(1, 10)]) is Outcome.MISS
    assert distance_predicate(m, p, 1, [F(1, 5) + F(1, 100)]) is Outcome.HIT


def test_zero_radius_always_miss():
    m = doubling_map()
    p = forced_point(m, [(0, 0, 1, 1)])
    assert distance_predicate(m, p, 4, [F(0)]) is Outcome.MISS
    q = sample_point(m, 5)
    assert distance_predicate(m, q, 3, [F(0)]) is Outcome.MISS


def test_periodic_hits_at_multiples_of_period():
    m = tent_map()
    p = forced_point(m, [(0, 1)])  # 2/5 -> 4/5 -> 2/5 under the tent map
    for n in (2, 4, 6, 8):
        assert distance_predicate(m, p, n, [F(1, 100)]) is Outcome.HIT
    for n in (1, 3, 5):
        assert distance_predicate(m, p, n, [F(1, 100)]) is Outcome.MISS


def test_monotone_in_radius():
    m = doubling_map()
    rng = np.random.default_rng(3)
    for seed in rng.integers(0, 2**63, size=10):
        p = sample_point(m, int(seed))
        for n in range(1, 30):
            small = distance_predicate(m, p, n, [F(1, 37)])
            big = distance_predicate(m, p, n, [F(2, 37)])
            if small is Outcome.HIT:
                assert big is Outcome.HIT


#: slopes 3/2 and -3, and slopes 4, 2, 4 with the offset 1/2: axes whose
#: enclosures are Fractions, put over one denominator to be compared
SLOPE_3_2 = MapSpec(axes=((Branch1D(0, F(2, 3), F(3, 2), 0), Branch1D(F(2, 3), 1, -3, -3)),))
OFFSET_1_2 = MapSpec(axes=((
    Branch1D(0, F(1, 4), 4, 0), Branch1D(F(1, 4), F(3, 4), 2, F(1, 2)), Branch1D(F(3, 4), 1, 4, 3)
),))


@pytest.mark.parametrize("metric", ["interval", "torus"])
@pytest.mark.parametrize(
    "m", [doubling_map(), SLOPE_3_2, OFFSET_1_2], ids=["doubling", "slope-three-halves", "offset-half"]
)
def test_oracle_agreement_with_midpoint(m, metric):
    # Compare against the exact orbit of the midpoint of the depth-D
    # enclosure.  x and the midpoint share D symbols, so T^n(x) and T^n(mid)
    # lie in one depth-(D - n) cylinder: where the midpoint's distance lies
    # further from psi than that cylinder's width plus the enclosure's, the
    # point's decision is the midpoint's.
    depth = 120
    checked = 0
    for s in range(50):
        p = sample_point(m, derive_point_seed(77, s))
        lo, hi = enclose(p, depth).intervals[0]
        mid = y = (lo + hi) / 2
        for n in range(1, 31):
            psi = F(1, 2 * n)
            y = iterate_map(m, (y,), 1)[0]
            dist = abs(y - mid)
            if metric == "torus":
                dist = min(dist, 1 - dist)
            y_lo, y_hi, _, _ = word_interval(m.axes[0], p.word(0, n, depth))
            if abs(dist - psi) <= (y_hi - y_lo) + (hi - lo):
                continue
            expected = Outcome.HIT if dist < psi else Outcome.MISS
            assert distance_predicate(m, p, n, [psi], metric=metric) is expected
            checked += 1
    assert checked > 1000


def test_target_predicate():
    m = doubling_map()
    p = forced_point(m, [(0, 1)])  # x = 1/3: orbit 2/3, 1/3, 2/3, ...
    center = [F(0)]
    assert distance_predicate(m, p, 2, [F(2, 5)], center=center) is Outcome.HIT
    assert distance_predicate(m, p, 1, [F(2, 5)], center=center) is Outcome.MISS


def test_torus_metric():
    m = doubling_map()
    p = forced_point(m, [(0, 1)])  # x = 1/3, T x = 2/3
    # interval distance 1/3; torus distance also 1/3
    assert distance_predicate(m, p, 1, [F(1, 3) + F(1, 50)], metric="torus") is Outcome.HIT
    # target at 0: T x = 2/3 has torus distance 1/3 from 0, interval distance 2/3
    assert (
        distance_predicate(m, p, 1, [F(2, 5)], center=[F(0)], metric="torus")
        is Outcome.HIT
    )
    assert distance_predicate(m, p, 1, [F(2, 5)], center=[F(0)]) is Outcome.MISS


def test_budget_exceeded():
    m = doubling_map()
    p = sample_point(m, 1, depth_limit=100)
    with pytest.raises(PrecisionBudgetError):
        p.symbols(0, 200)
    # predicates surface the budget as Unresolved rather than raising
    assert distance_predicate(m, p, 95, [F(1, 10**9)]) is Outcome.UNRESOLVED


def test_log_expansion_estimate_of_a_slope_within_float_resolution_of_1():
    # log(lam) rounds to 0.0 as a difference of logs; log1p keeps its size
    lam = 1 + F(1, 2**66)
    assert _approx_log_expansion(lam, F(2)) == math.ceil(math.log(2) * 2**66)
    assert _approx_log_expansion(F(3, 2), F(10**6)) == 35  # other slopes as before


def test_product_map_predicate():
    m = toral_diag_map([2, 3])
    p = sample_point(m, 42)
    out = distance_predicate(m, p, 5, [F(1, 4), F(1, 4)])
    assert out in (Outcome.HIT, Outcome.MISS)
    # radius 1 on one axis cannot turn a hit into a miss
    big = distance_predicate(m, p, 5, [F(2), F(1, 4)])
    if out is Outcome.HIT:
        assert big is Outcome.HIT


def test_importing_the_package_leaves_numpy_random_unloaded():
    """The per-plan seed words need ``numpy.random`` only when a point is
    sampled, so an oracle-only run does not pay its import."""
    code = "import sys, orbitcount; sys.exit('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
