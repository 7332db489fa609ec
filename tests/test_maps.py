"""Map and cylinder algebra: branch validation, composition, partitions."""

import random
from fractions import Fraction

import pytest

from orbitcount.maps import (
    Branch1D,
    DepthCapError,
    MapSpec,
    MapValidationError,
    base_map,
    cylinders,
    doubling_map,
    eval_map,
    iterate_map,
    locate,
    luroth_map,
    map_from_name,
    tent_map,
    toral_diag_map,
)

F = Fraction


def mixed_slope_map():
    """Branches of slopes 2, 4, 4: lengths 1/2, 1/4, 1/4."""
    return MapSpec(
        axes=(
            (
                Branch1D(F(0), F(1, 2), F(2), F(0)),
                Branch1D(F(1, 2), F(3, 4), F(4), F(2)),
                Branch1D(F(3, 4), F(1), F(4), F(3)),
            ),
        )
    )


def test_eval_doubling():
    assert eval_map(doubling_map(), (F(3, 8),)) == (F(3, 4),)


def test_eval_tent():
    assert eval_map(tent_map(), (F(4, 5),)) == (F(2, 5),)


def test_eval_fixed_point_zero():
    for m in (doubling_map(), tent_map(), base_map(3), mixed_slope_map()):
        assert eval_map(m, (F(0),)) == (F(0),)


def test_eval_x_equal_one_uses_last_branch():
    assert eval_map(doubling_map(), (F(1),)) == (F(1),)
    assert eval_map(tent_map(), (F(1),)) == (F(0),)


def test_cylinders_doubling_depth2():
    got = [(c.lows[0], c.highs[0], c.slopes[0], c.offsets[0]) for c in cylinders(doubling_map(), 2)]
    assert got == [
        (F(0), F(1, 4), F(4), F(0)),
        (F(1, 4), F(1, 2), F(4), F(1)),
        (F(1, 2), F(3, 4), F(4), F(2)),
        (F(3, 4), F(1), F(4), F(3)),
    ]


def test_cylinders_tent_depth1():
    got = [(c.lows[0], c.highs[0], c.slopes[0], c.offsets[0]) for c in cylinders(tent_map(), 1)]
    assert got == [
        (F(0), F(1, 2), F(2), F(0)),
        (F(1, 2), F(1), F(-2), F(-2)),
    ]


@pytest.mark.parametrize("m", [doubling_map(), tent_map(), base_map(3), mixed_slope_map(), luroth_map(5)])
def test_depth1_partition(m):
    cyls = list(cylinders(m, 1))
    assert len(cyls) == len(m.axes[0])
    assert sum(c.highs[0] - c.lows[0] for c in cyls) == 1


@pytest.mark.parametrize("m", [doubling_map(), tent_map(), mixed_slope_map(), luroth_map(4)])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_partition_and_expansion_invariants(m, depth):
    total = F(0)
    inv_slope_total = F(0)
    lam = m.expansion
    for c in cylinders(m, depth):
        length = c.highs[0] - c.lows[0]
        assert abs(c.slopes[0]) * length == 1
        assert abs(c.slopes[0]) >= lam**depth
        total += length
        inv_slope_total += 1 / abs(c.slopes[0])
    assert total == 1
    assert inv_slope_total == 1


def test_affine_correctness_random_points():
    rng = random.Random(7)
    maps = [doubling_map(), tent_map(), mixed_slope_map(), toral_diag_map([2, 3])]
    for _ in range(100):
        m = rng.choice(maps)
        depth = rng.randint(1, 8)
        x = tuple(F(rng.randint(0, 997), 998) for _ in range(m.dimension))
        cyl = locate(m, x, depth)
        assert cyl.apply(x) == iterate_map(m, x, depth)
        for axis in range(m.dimension):
            assert cyl.lows[axis] <= x[axis] < cyl.highs[axis] or (
                x[axis] == cyl.highs[axis]
            )


def test_locate_examples():
    c = locate(doubling_map(), (F(1, 3),), 2)
    assert (c.lows[0], c.highs[0], c.slopes[0], c.offsets[0]) == (F(1, 4), F(1, 2), F(4), F(1))
    for depth in (1, 3, 6):
        c = locate(doubling_map(), (F(0),), depth)
        assert (c.lows[0], c.highs[0], c.offsets[0]) == (F(0), F(1, 2**depth), F(0))
    c = locate(tent_map(), (F(3, 4),), 1)
    assert (c.lows[0], c.highs[0], c.slopes[0], c.offsets[0]) == (F(1, 2), F(1), F(-2), F(-2))


def test_locate_agrees_with_cylinders():
    rng = random.Random(13)
    for m in (doubling_map(), tent_map(), mixed_slope_map()):
        for _ in range(20):
            x = (F(rng.randint(1, 996), 997),)
            depth = rng.randint(1, 6)
            by_locate = locate(m, x, depth)
            matches = [
                c
                for c in cylinders(m, depth)
                if c.lows[0] <= x[0] < c.highs[0]
            ]
            assert len(matches) == 1
            assert matches[0] == by_locate


def test_measure_preservation_depth1():
    rng = random.Random(99)
    for m in (doubling_map(), tent_map(), mixed_slope_map(), luroth_map(6)):
        for _ in range(10):
            a = F(rng.randint(0, 500), 1000)
            b = a + F(rng.randint(1, 499), 1000)
            total = F(0)
            for c in cylinders(m, 1):
                # preimage of [a,b] inside this branch
                K, z = c.slopes[0], c.offsets[0]
                e1, e2 = (a + z) / K, (b + z) / K
                lo, hi = (e1, e2) if e1 <= e2 else (e2, e1)
                lo, hi = max(lo, c.lows[0]), min(hi, c.highs[0])
                if hi > lo:
                    total += hi - lo
            assert total == b - a


def test_depth_cap():
    with pytest.raises(DepthCapError):
        list(cylinders(doubling_map(), 10, cap=100))
    with pytest.raises(DepthCapError):
        locate(doubling_map(), (F(1, 3),), 10, cap=100)


def test_validation_errors():
    with pytest.raises(MapValidationError):
        Branch1D(F(0), F(1, 2), F(3, 2), F(0))  # image != [0,1]
    with pytest.raises(MapValidationError):
        Branch1D(F(0), F(1), F(1), F(0))  # not expanding
    with pytest.raises(MapValidationError):
        MapSpec(axes=((Branch1D(F(0), F(1, 2), F(2), F(0)),),))  # gap at 1/2
    with pytest.raises(MapValidationError):
        # domains partition but offsets wrong: image at left endpoint not 0/1
        Branch1D(F(1, 2), F(1), F(2), F(0))


def test_builtin_names():
    assert map_from_name("doubling").axes == doubling_map().axes
    assert map_from_name("tent").axes == tent_map().axes
    assert map_from_name("base-5").axes == base_map(5).axes
    assert map_from_name("luroth-trunc-7").axes == luroth_map(7).axes
    assert map_from_name("toral-diag(2,3)").axes == toral_diag_map([2, 3]).axes
    with pytest.raises(MapValidationError):
        map_from_name("gauss")


def test_luroth_structure():
    m = luroth_map(4)
    # merged tail branch [0, 1/4) with slope 4, then 12x-3 on [1/4,1/3), etc.
    b0 = m.axes[0][0]
    assert (b0.left, b0.right, b0.slope) == (F(0), F(1, 4), F(4))
    assert [b.slope for b in m.axes[0]] == [F(4), F(12), F(6), F(2)]
    assert m.expansion == 2


def test_uniform_base_detection():
    assert doubling_map().axis_signed_base(0) == (2, (False, False))
    assert base_map(3).axis_signed_base(0) == (3, (False, False, False))
    assert tent_map().axis_signed_base(0) == (2, (False, True))
    assert mixed_slope_map().axis_signed_base(0) is None
    assert tent_map().axis_int_tables(0) == ((2, -2), (0, -2))
    assert mixed_slope_map().axis_int_tables(0) == ((2, 4, 4), (0, 2, 3))
    t = toral_diag_map([2, 3])
    assert t.axis_signed_base(0)[0] == 2 and t.axis_signed_base(1)[0] == 3


def test_toral_product_cylinders():
    m = toral_diag_map([2, 3])
    cyls = list(cylinders(m, 1))
    assert len(cyls) == 6
    assert sum(c.volume() for c in cyls) == 1
