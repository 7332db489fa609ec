"""Oracle hand values, invariance, intersections, mixing, and lane agreement."""

import random
import time
from fractions import Fraction

import pytest

from orbitcount.maps import (
    Branch1D,
    DepthCapError,
    MapSpec,
    base_map,
    cylinders,
    doubling_map,
    luroth_map,
    tent_map,
    toral_diag_map,
)
from orbitcount.exact_measure import (
    _axis_overlaps_int,
    _axis_walk,
    _Window,
    event_pullback,
    event_recurrence,
    event_target,
    measure,
    measure_intersection,
    measure_within,
    mixing_deficit,
    phi_sum,
    phi_values,
    rect_volume,
)
from orbitcount.rates import constant_rate, power_rate, table_rate

F = Fraction


def test_recurrence_measure_hand_values():
    m = doubling_map()
    assert measure(event_recurrence(m, constant_rate("1/4"), 1)) == F(1, 2)
    assert measure(event_recurrence(m, constant_rate("1/8"), 2)) == F(1, 4)


def test_recurrence_windows_depth2():
    m = doubling_map()
    ev = event_recurrence(m, constant_rate("1/8"), 2)
    lengths = []
    for _, rect in ev.pieces():
        lengths.append(rect[0][1] - rect[0][0] if rect else F(0))
    assert lengths == [F(1, 24), F(1, 12), F(1, 12), F(1, 24)]


def test_a_depth_far_past_the_cap_is_refused_at_once():
    # 2^20000 cylinders: the rule decides without forming that power or printing it
    m, rate = doubling_map(), power_rate("1/2", 1)
    calls = (lambda: cylinders(m, 20000), lambda: event_recurrence(m, rate, 20000),
             lambda: event_target(m, rate, ["1/3"], 20000))
    for call in calls:
        start = time.perf_counter()
        with pytest.raises(DepthCapError, match="depth 20000 has more cylinders than the cap"):
            call()
        assert time.perf_counter() - start < 1


def test_recurrence_zero_rate():
    ev = event_recurrence(doubling_map(), constant_rate(0), 3)
    assert measure(ev) == 0
    assert all(rect is None for _, rect in ev.pieces())


def test_target_measures():
    m = doubling_map()
    rate = constant_rate("1/4")
    for n in (1, 2, 5):
        assert measure(event_target(m, rate, ("1/2",), n)) == F(1, 2)
    assert measure(event_target(m, rate, ("0",), 3)) == F(1, 4)
    assert measure(event_target(m, constant_rate(0), ("1/2",), 2)) == 0


def test_intersection_hand_value():
    m = doubling_map()
    a = event_recurrence(m, table_rate(["1/4", "1/8"]), 1)
    b = event_recurrence(m, table_rate(["1/4", "1/8"]), 2)
    assert measure_intersection(a, b) == F(1, 12)


def test_intersection_disjoint_targets():
    m = doubling_map()
    rate = constant_rate("1/8")
    a = event_target(m, rate, ("0",), 2)
    b = event_target(m, rate, ("1",), 2)
    assert measure_intersection(a, b) == 0


def test_intersection_with_full_space():
    m = doubling_map()
    a = event_recurrence(m, constant_rate("1/8"), 2)
    b = event_recurrence(m, constant_rate("2"), 3)  # psi >= 1: window is all of J
    assert measure(b) == 1
    assert measure_intersection(a, b) == measure(a)


def test_phi_sum_hand_value():
    m = doubling_map()
    rate = table_rate(["1/4", "1/8"])
    values = phi_values(m, rate, 2)
    assert values == [F(1, 2), F(1, 4)]
    assert phi_sum(m, rate, 2) == F(3, 4)


def test_phi_oracle_self_consistency_n1():
    m = tent_map()
    rate = constant_rate("1/5")
    assert phi_sum(m, rate, 1) == measure(event_recurrence(m, rate, 1))


def test_invariance_random_rectangles():
    rng = random.Random(31)
    for m in (doubling_map(), tent_map()):
        for _ in range(20):
            a = F(rng.randint(0, 900), 1024)
            b = a + F(rng.randint(1, 1024 - int(a * 1024)), 1024)
            n = rng.randint(1, 10)
            ev = event_pullback(m, [[(a, b)]], n)
            assert measure(ev) == b - a


def test_mixing_hand_values():
    m = doubling_map()
    assert mixing_deficit(m, [("0", "1/2")], [[("0", "1/2")]], 1) == 0
    assert mixing_deficit(m, [("0", "1/3")], [[("0", "1/2")]], 1) == F(1, 12)
    # F = full space: deficit 0 for any E, n
    for n in (1, 2, 4):
        assert mixing_deficit(m, [("1/7", "3/7")], [[("0", "1")]], n) == 0


def test_mixing_generic_matches_uniform():
    rng = random.Random(5)
    mixed = MapSpec(
        axes=(
            (
                Branch1D(F(0), F(1, 2), F(2), F(0)),
                Branch1D(F(1, 2), F(3, 4), F(4), F(2)),
                Branch1D(F(3, 4), F(1), F(4), F(3)),
            ),
        )
    )
    for m in (doubling_map(), tent_map(), mixed):
        lam = m.expansion
        for _ in range(25):
            a = F(rng.randint(0, 200), 256)
            b = a + F(rng.randint(1, 256 - int(a * 256)), 256)
            n = rng.randint(1, 8)
            f_lo = F(rng.randint(0, 100), 128)
            f_hi = f_lo + F(rng.randint(1, 128 - int(f_lo * 128)), 128)
            deficit = mixing_deficit(m, [(a, b)], [[(f_lo, f_hi)]], n)
            bound = 4 * (1 / lam) ** n * (f_hi - f_lo)
            assert abs(deficit) <= bound


def test_mixing_bound_cylinder_unions():
    rng = random.Random(17)
    for m in (doubling_map(), tent_map()):
        lam = m.expansion
        for trial in range(20):
            # F: union of random depth-j dyadic intervals (disjoint)
            j = rng.randint(2, 5)
            count = rng.randint(1, 2**j // 2)
            starts = sorted(rng.sample(range(2**j), count))
            f_rects = [[(F(s, 2**j), F(s + 1, 2**j))] for s in starts]
            mu_f = F(count, 2**j)
            a = F(rng.randint(0, 900), 1024)
            b = a + F(rng.randint(1, 1024 - int(a * 1024)), 1024)
            n = rng.randint(1, 9)
            deficit = mixing_deficit(m, [(a, b)], f_rects, n)
            assert abs(deficit) <= 4 * (1 / lam) ** n * mu_f


def test_sandwich_small():
    # window sandwich around a rectangle I of radius r < psi(m)
    m = doubling_map()
    rate = constant_rate("1/8")
    depth = 3
    center, r = F(5, 16), F(1, 32)
    I = [(center - r, center + r)]
    psi = rate.psi(0, depth)
    inner = event_pullback(m, [[(center - (psi - r), center + (psi - r))]], depth)
    outer = event_pullback(m, [[(center - (psi + r), center + (psi + r))]], depth)
    mid = event_recurrence(m, rate, depth)
    lo = measure_within(inner, I)
    mi = measure_within(mid, I)
    hi = measure_within(outer, I)
    assert lo <= mi <= hi


def test_integer_lane_matches_generic():
    rng = random.Random(8)
    for m in (doubling_map(), tent_map(), base_map(3), luroth_map(4)):
        branches = m.axes[0]
        for _ in range(15):
            n = rng.randint(1, 7)
            psi = F(rng.randint(0, 40), 97)
            win = _Window(psi=psi)
            via_int = _axis_overlaps_int(m.axis_int_tables(0), 0, n, [None], [win])[None, win]
            via_frac = _axis_walk(branches, 0, n, None, win)
            assert via_int == via_frac


def test_generic_lane_nonuniform_map():
    m = luroth_map(4)
    rate = constant_rate("1/10")
    v1 = measure(event_recurrence(m, rate, 1))
    # brute force over the 4 depth-1 cylinders by hand windows
    total = F(0)
    for c in m.axes[0]:
        K, z = c.slope, c.offset
        lo = (z - F(1, 10)) / (K - 1)
        hi = (z + F(1, 10)) / (K - 1)
        lo, hi = min(lo, hi), max(lo, hi)
        lo, hi = max(lo, c.left), min(hi, c.right)
        if hi > lo:
            total += hi - lo
    assert v1 == total


def test_product_map_event_measure():
    m = toral_diag_map([2, 3])
    rate = constant_rate("1/8", dimension=2)
    v = measure(event_recurrence(m, rate, 2))
    # product structure: measure = (axis-2 sum) * (axis-3 sum)
    ax2 = _axis_walk(m.axes[0], 0, 2, None, _Window(psi=F(1, 8)))
    ax3 = _axis_walk(m.axes[1], 0, 2, None, _Window(psi=F(1, 8)))
    assert v == ax2 * ax3
    assert 0 <= v <= 1


def test_intersection_matches_piecewise_refinement():
    # independent route: intersect the explicit piece lists cylinder by
    # cylinder (every depth-n piece lies inside one depth-m piece's cylinder)
    for m_spec in (doubling_map(), tent_map()):
        rate = power_rate("1/2", 1)
        for mm, nn in ((1, 3), (2, 4), (3, 3)):
            a = event_recurrence(m_spec, rate, mm)
            b = event_recurrence(m_spec, rate, nn)
            total = F(0)
            a_pieces = [r for _, r in a.pieces()]
            a_cyls = [c for c, _ in a.pieces()]
            for cyl_b, rect_b in b.pieces():
                if rect_b is None:
                    continue
                for cyl_a, rect_a in zip(a_cyls, a_pieces):
                    if rect_a is None:
                        continue
                    piece = F(1)
                    for ax in range(m_spec.dimension):
                        lo = max(rect_a[ax][0], rect_b[ax][0])
                        hi = min(rect_a[ax][1], rect_b[ax][1])
                        piece *= max(F(0), hi - lo)
                    total += piece
            assert measure_intersection(a, b) == total


def test_mixed_product_map_measures():
    # one doubling axis and one tent axis: lanes differ per axis
    m = MapSpec(axes=(doubling_map().axes[0], tent_map().axes[0]))
    rate = constant_rate("1/8", dimension=2)
    v = measure(event_recurrence(m, rate, 3))
    ax_d = _axis_walk(m.axes[0], 0, 3, None, _Window(psi=F(1, 8)))
    ax_t = _axis_walk(m.axes[1], 0, 3, None, _Window(psi=F(1, 8)))
    assert v == ax_d * ax_t
    ev = event_pullback(m, [[(F(1, 5), F(2, 5)), (F(0), F(1, 3))]], 4)
    assert measure(ev) == F(1, 5) * F(1, 3)


def _forward_image_joint(branches, e_iv, f_iv, n):
    """mu(E ∩ T^{-n}F) in one dimension via forward images of E ∩ J.

    T^n is a bijection from each cylinder J onto [0,1] scaling measure by
    |K|, so mu(E ∩ J ∩ T^{-n}F) = mu(T^n(E ∩ J) ∩ F) / |K|: an independent
    route to the preimage windows the oracle sums.
    """

    def rec(level, K, z):
        if level == n:
            a, b = sorted((z / K, (1 + z) / K))
            xlo, xhi = max(a, e_iv[0]), min(b, e_iv[1])
            if xhi <= xlo:
                return F(0)
            y1, y2 = sorted((K * xlo - z, K * xhi - z))
            total = sum((max(F(0), min(y2, hi) - max(y1, lo)) for lo, hi in f_iv), F(0))
            return total / abs(K)
        return sum((rec(level + 1, br.slope * K, br.slope * z + br.offset) for br in branches), F(0))

    return rec(0, F(1), F(0))


def test_mixing_lanes_agree():
    rng = random.Random(44)
    for m in (doubling_map(), tent_map()):
        for _ in range(15):
            a = F(rng.randint(0, 200), 243)
            b = a + F(rng.randint(1, 243 - int(a * 243)), 243)
            f_iv = [(F(1, 5), F(2, 5)), (F(3, 5), F(4, 5))]
            n = rng.randint(1, 7)
            via_int = mixing_deficit(m, [(a, b)], [[p] for p in f_iv], n)
            joint = _forward_image_joint(m.axes[0], (a, b), sorted(f_iv), n)
            via_frac = joint - (b - a) * F(2, 5)
            assert via_int == via_frac


def test_mixing_full_space_luroth():
    m = luroth_map(4)
    for n in (1, 2, 3):
        assert mixing_deficit(m, [(F(1, 7), F(3, 7))], [[(F(0), F(1))]], n) == 0


def test_phi_vs_psi_increments():
    # |Phi(N) - Psi(N)| grows monotonically and each increment obeys the
    # exact bound 2 psi/(lambda^n - 1) + 4 psi^2 (the first term is the
    # fixed-point window excess, the second caps boundary clipping; the
    # clipping term is essential: the excess alone is violated from napprox8).
    m = doubling_map()
    rate = power_rate("1/2", 1)
    values = phi_values(m, rate, 16)
    prev_gap = F(0)
    for n in range(1, 17):
        psi = rate.psi(0, n)
        diff = abs(values[n - 1] - 2 * psi)
        assert diff <= 2 * psi / (2**n - 1) + 4 * psi**2
        gap = prev_gap + (2 * psi - values[n - 1])  # increments are one-signed here
        assert gap >= prev_gap
        prev_gap = gap


def test_pullback_of_union_measure():
    m = doubling_map()
    rects = [[(F(0), F(1, 8))], [(F(1, 2), F(5, 8))]]
    ev = event_pullback(m, rects, 4)
    assert measure(ev) == F(1, 4)
    assert rect_volume(rects[0]) == F(1, 8)
    # the empty union
    empty = event_pullback(m, [], 3)
    assert measure(empty) == 0
    assert measure_intersection(empty, ev) == 0
    assert mixing_deficit(m, [(F(0), F(1, 2))], [], 3) == 0


def test_overlapping_rectangles_are_rejected():
    # the sum over rectangles would count their overlap twice: 1/6 and 1
    # here, where the unions give 1/12 and 3/4
    m = doubling_map()
    half = [(F(0), F(1, 2))]
    with pytest.raises(ValueError, match="overlap"):
        mixing_deficit(m, [(F(0), F(1, 3))], [half, half], 1)
    with pytest.raises(ValueError, match="overlap"):
        event_pullback(m, [half, [(F(1, 4), F(3, 4))]], 1)
    # rectangles that share only a side, or meet in a segment of a 2-d map,
    # are a union of measure-disjoint pieces
    assert measure(event_pullback(m, [half, [(F(1, 2), F(1))]], 1)) == 1
    assert mixing_deficit(m, [(F(0), F(1, 3))], [half, [(F(1, 2), F(3, 4))]], 1) == (
        mixing_deficit(m, [(F(0), F(1, 3))], [[(F(0), F(3, 4))]], 1)
    )
    m2 = toral_diag_map([2, 3])
    rects = [[(F(0), F(1, 2)), (F(0), F(1))], [(F(1, 4), F(1)), (F(1), F(1))]]
    assert measure(event_pullback(m2, rects, 1)) == F(1, 2)
