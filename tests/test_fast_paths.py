"""Fast paths against their exact per-n reference paths (property-based).

* ``counting._axis_thresholds`` (radius bounds with a certified slack, in
  float64 and as int64 cuts at a digit scale) against the exact radii;
* the symbol draw of ``points.sample_point`` (a search-tree pass per level)
  against ``np.searchsorted`` over ``points.symbol_thresholds``;
* affine windows composed by doubling (``counting._compose_windows``) on
  random rational axes, slopes past 2^64 and 2^1100 among them, against
  ``maps.word_interval`` within ``counting._affine_end_error``; digit
  windows gathered from the doubling
  pyramid (``counting._digit_pyramid``, ``_digit_windows``) against the
  W-pass Horner loop; each block's flags of ``counting._DigitWindows``, in
  two stages and by one correlation, against Python-int Horner windows, on
  slopes of +b and, through the parity automaton, of +b and -b (whose
  windows are also checked against ``maps.word_interval``), and the
  word-wise running parity against ``np.logical_xor.accumulate``;
  and the checkpoint counts of ``counting._make_record`` against
  cumulative sums;
* ``rates._segment_sums`` (streamed scaled integers) against the per-n sum
  of ``AxisRate.scaled_value``, and against the per-n ``ball_volume`` sum
  for target main terms, whose unclipped tail starts at
  ``rates._first_unclipped``;
* the float kernel of fractional-power mantissas
  (``rates.dyadic_mantissas`` through ``PowerRate.scaled_values``) against
  integer roots: every n up to 2^20 at p = 1/2, random windows across block
  boundaries and the kernel's n^u < 2^53 edge, exact powers, and a run
  where every n takes the exact fall-back;
* the large-prime splitting of integer-power main terms
  (``rates._large_prime_split``, ``psi_partial_sums``,
  ``target_main_term_sums``) against per-n ``sum_terms``;
* the window engine on affine and digit axes (``hit_indicators``)
  against the per-n ``points.point_outcome`` loop (``_count_with_intervals``);
* one ``counting.HitCounter`` per plan on the harness pool
  (``harness.count_points``, ``harness.dichotomy_check``) against that loop
  run on each point sampled on its own;
* the window engine in blocks of ``counting._COUNT_BLOCK`` = 1, 7, W and
  2^16 n against one block and that loop, and the allocation peak of one
  point, which keeps no N-long int64 array;
* the exact oracle's integer leaf-table lane (``measure``,
  ``measure_intersection``, ``measure_within``, ``mixing_deficit``) against
  the Fraction branch-tree walker;
* the per-plan seeds and PCG64 seed words (``_rationals.derive_point_seeds``,
  ``points.seed_states``) against ``derive_point_seed`` and
  ``np.random.SeedSequence`` seed by seed;
* the blocked bootstrap of ``harness.fit_error_exponent`` (blocks of
  ``harness._FIT_BLOCK`` = 1, S C - 1, 7 S C + 1 and its default) against
  one row draw, median and polyfit per resample: the same row indices,
  point estimate, flag and errors, and the band to 1e-12.
"""

import math
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitcount import counting, exact_measure, harness, points, rates
from orbitcount._rationals import (
    DYADIC_SCALE,
    derive_point_seed,
    derive_point_seeds,
    dyadic_mantissa,
    iroot,
)
from orbitcount.counting import (
    _AFFINE_MAX_WINDOW,
    _WINDOW_REL_SLACK,
    TargetSpec,
    _affine_end_error,
    _affine_unit,
    _axis_thresholds,
    _compose_windows,
    _count_with_intervals,
    _digit_pyramid,
    _digit_windows,
    _prefix_span,
    _make_record,
    axis_engines,
    hit_indicators,
)
from orbitcount.harness import ExperimentPlan, Thresholds
from orbitcount.maps import (
    Branch1D,
    MapSpec,
    base_map,
    compose_word,
    luroth_map,
    tent_map,
    word_interval,
)
from orbitcount.points import (
    REFINE_EXTRA,
    GenericPoint,
    _PrngSource,
    forced_point,
    sample_point,
    seed_states,
    symbol_thresholds,
)
from orbitcount.rates import (
    ConstantRate,
    PowerLogRate,
    PowerRate,
    RateFunction,
    TableRate,
    _first_unclipped,
    _MANTISSA_BLOCK,
    _large_prime_split,
    _primes_to,
    _segment_sums,
    ball_volume,
    psi_partial_sums,
    sum_terms,
    target_main_term_sums,
)

#: 60 examples under hypothesis's default profile (100), and as many times
#: more as the loaded profile has (``conftest.py``)
SETTINGS = settings(max_examples=60 * settings.default.max_examples // 100, deadline=None)

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


def _max_digit_window(base: int) -> int:
    """Largest W with base^W < 2^62, the longest digit window int64 holds."""
    W = 1
    while base ** (W + 1) < 2**62:
        W += 1
    return W


@st.composite
def threshold_cases(draw):
    """A rate, n_max, a digit scale B = b^W, W up to the int64 cap, and an
    affine window length up to its cap."""
    base = draw(st.integers(min_value=2, max_value=5))
    rate = draw(st.one_of(power_rates, power_log_rates, constant_rates, table_rates(base=base)))
    n_max = draw(st.integers(min_value=1, max_value=rate.max_index() or 400))
    W = draw(st.integers(min_value=1, max_value=_max_digit_window(base)))
    return rate, n_max, base**W, draw(st.integers(min_value=1, max_value=_AFFINE_MAX_WINDOW))


def _assert_certified_margin(rate, n_max, scale, affine_W=_AFFINE_MAX_WINDOW):
    """Both forms of ``_axis_thresholds`` settle n only at least 2^-40 psi(n)
    away from the exact psi(n), and a zero radius is a certain miss.

    The float bounds of an affine window of ``affine_W`` symbols: its float
    distance bounds are within half of ``_affine_unit`` of the true ones;
    the other half covers the roundings of the radius bounds.  The int64
    cuts at scale B: a window distance D/B is within 1/B of the true one, so
    D <= hit_cut puts it below (hit_cut + 1)/B and D >= miss_cut above
    (miss_cut - 1)/B; a miss cut of 2^62 is past every D."""
    unit = _affine_unit(affine_W)
    lower, upper = _axis_thresholds.__wrapped__(rate, n_max, unit)
    hit_cut, miss_cut = _axis_thresholds.__wrapped__(rate, n_max, 1 / scale, scale)
    assert hit_cut.dtype == miss_cut.dtype == np.int64
    margin = Fraction(_WINDOW_REL_SLACK) / 2
    error = Fraction(unit) / 2
    for n in range(1, n_max + 1):
        psi = rate(n)
        if psi == 0:
            assert (upper[n - 1], miss_cut[n - 1]) == (-math.inf, -1), n
            continue
        if math.isfinite(lower[n - 1]):
            assert Fraction(lower[n - 1]) + error <= psi * (1 - margin), n
        if math.isfinite(upper[n - 1]):
            assert Fraction(upper[n - 1]) - error >= psi * (1 + margin), n
        assert Fraction(int(hit_cut[n - 1]) + 1, scale) <= psi * (1 - margin), n
        if miss_cut[n - 1] < 2**62:
            assert Fraction(int(miss_cut[n - 1]) - 1, scale) >= psi * (1 + margin), n


@SETTINGS
@given(threshold_cases())
@example((TableRate((Fraction(1, 3), Fraction(0), Fraction(5, 2))), 3, 3**38, 1))
# psi(67) 5^21 is about 1e-16, and the float 1/5^21 times 5^21 is 1 - 2^-53:
# the window's unit must be added to the cuts as a whole step
@example((PowerLogRate(Fraction(1), Fraction(11), Fraction(17)), 67, 5**21, 128))
def test_radius_bounds_keep_the_certified_margin(case):
    _assert_certified_margin(*case)


HALF = Fraction(1, 2)


def test_float_thresholds_match_on_long_ranges():
    """psi = n^-p / 2 keeps the certified margin at every n.  At a 2^61
    scale the 2^-64 dyadic floor of n^-5/2 moves psi(n) B by more than the
    relative slack: only the absolute slack covers it."""
    for rate, scale, n_max in (
        (PowerRate(HALF, Fraction(1, 2)), 2**50, 10**5),
        (PowerRate(HALF, Fraction(2)), 2**50, 10**5),
        (PowerRate(HALF, Fraction(5, 2)), 2**61, 10**4),
    ):
        _assert_certified_margin(rate, n_max, scale)


def test_power_log_thresholds_match_on_long_ranges():
    """psi = n^-p log(n+1)^-q / 2 keeps the certified margin at every n;
    with q = 12 at a 2^61 scale the dyadic floor of log(n+1)^-q is covered
    only by the absolute slack."""
    for rate, scale, n_max in (
        (PowerLogRate(HALF, Fraction(1, 2), Fraction(1)), 2**50, 3000),
        (PowerLogRate(HALF, Fraction(1), Fraction(3, 2)), 2**61, 3000),
        (PowerLogRate(HALF, Fraction(5, 2), Fraction(1)), 2**61, 3000),
        (PowerLogRate(HALF, Fraction(0), Fraction(12)), 2**61, 3000),
    ):
        _assert_certified_margin(rate, n_max, scale)


#: exponents up to 45: from p = 15/2 on, a fractional power's dyadic floor
#: reaches 0 before n = 400
steep_exponents = st.builds(
    Fraction, st.integers(min_value=0, max_value=90), st.sampled_from([1, 2, 3, 4])
)


@SETTINGS
@given(
    st.one_of(
        st.builds(PowerRate, coefficients, steep_exponents),
        st.builds(PowerLogRate, coefficients, steep_exponents, log_exponents),
        constant_rates,
    ),
    st.integers(min_value=1, max_value=400),
)
def test_min_positive_matches_every_n(axis_rate, n_max):
    want = min((v for v in map(axis_rate, range(1, n_max + 1)) if v > 0), default=None)
    assert axis_rate.min_positive(n_max) == want


def test_min_positive_past_the_last_nonzero_radius():
    """psi(n) = n^-7/2 / 2 floors to 0 from n = 319558 on: up to 10^6 the
    smallest nonzero radius is psi(319557) = 2^-65, so the doubling window
    takes the int64 cap W = 61, not the W = 17 of psi(1) = 1/2."""
    rate = PowerRate(HALF, Fraction(7, 2))
    assert (rate(319557), rate(319558)) == (Fraction(1, 2**65), 0)
    assert rate.min_positive(10**6) == Fraction(1, 2**65)
    assert counting._axis_window_digits(rate, 10**6, 2) == 61


fractional_exponents = st.builds(
    Fraction, st.integers(min_value=1, max_value=9), st.sampled_from([2, 3, 4])
).filter(lambda p: p.denominator > 1)
fixed_axes = st.one_of(
    st.builds(PowerRate, coefficients, fractional_exponents),
    constant_rates,
    table_rates(size=st.just(300)),
)
#: up to 300, and just past one block of ``rates.dyadic_mantissas``
fixed_checkpoints = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=_MANTISSA_BLOCK - 2, max_value=_MANTISSA_BLOCK + 300),
    ),
    min_size=1,
    max_size=4,
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
@given(st.lists(fixed_axes, min_size=1, max_size=2), fixed_checkpoints)
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
@given(st.lists(st.tuples(fixed_axes, centers), min_size=1, max_size=2), fixed_checkpoints)
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
#: 32 terms make a leaf of ``sum_terms``, and the split's smooth bound
#: isqrt(N) steps at squares, so these end segments at and around both
power_checkpoints = st.lists(
    st.one_of(
        st.sampled_from([1, 2, 3, 4, 31, 32, 33, 48, 49, 64, 65]),
        st.integers(min_value=1, max_value=300),
    ),
    min_size=1,
    max_size=5,
)


def _check_large_prime_split(lo, hi, P):
    """``_large_prime_split`` over [lo, hi), given primes past hi - 1, against
    ``sum_terms``, and its L against lcm(1, ..., hi - 1)."""
    A, L = _large_prime_split(lo, hi, P, _primes_to(hi + 7))
    assert L == math.lcm(*range(1, hi))
    assert Fraction(A, L**P) == sum_terms(lambda n: Fraction(1, n**P), lo, hi)


@SETTINGS
@given(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=0, max_value=6),
)
def test_large_prime_split_matches_sum_terms(lo, length, P):
    _check_large_prime_split(lo, lo + length, P)


@pytest.mark.parametrize("P", [1, 2, 5])
@pytest.mark.parametrize(
    "lo, m",
    [(1, 0), (1, 1), (1, 2), (2, 2), (1, 3), (3, 3)]  # m = 0 to 3
    + [(1, 97), (50, 97), (97, 97)]  # m prime
    + [(1, 121), (1, 120), (1, 49), (2, 48)]  # m = p^2 and p^2 - 1
    + [(600, 1000), (900, 1000), (1000, 1000)],  # lo > m / 2: primes in (m / 2, lo) weigh 0
)
def test_large_prime_split_edge_ranges(lo, m, P):
    _check_large_prime_split(lo, m + 1, P)


def test_primes_to():
    assert [_primes_to(n) for n in (-1, 0, 1, 2, 3)] == [[], [], [], [2], [2, 3]]
    assert _primes_to(100) == [n for n in range(2, 101) if all(n % d for d in range(2, n))]


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


@SETTINGS
@given(st.builds(PowerRate, coefficients, fractional_exponents), centers)
def test_first_unclipped_fractional_power(axis_rate, x):
    m = 1 if x in (0, 1) else min(x, 1 - x)
    n = _first_unclipped(axis_rate, x)
    assert axis_rate(n) <= m
    assert n == 1 or axis_rate(n - 1) > m


# ---------------------------------------------------------------------------
# Dyadic power mantissas: the float kernel against integer roots
# ---------------------------------------------------------------------------


def _mantissa_stream(u: int, v: int, lo: int, hi: int):
    """floor(2^64 n^(-u/v)) for lo <= n < hi through ``PowerRate.scaled_values``
    (blocks of ``_MANTISSA_BLOCK`` joined)."""
    return PowerRate(Fraction(1), Fraction(u, v)).scaled_values(lo, hi, DYADIC_SCALE)


def _root_mantissas(u: int, v: int, lo: int, hi: int) -> list[int]:
    return [iroot((1 << (64 * v)) // n**u, v) for n in range(lo, hi)]


def test_half_power_mantissas_match_isqrt_exhaustively():
    N = 1 << 20
    with mock.patch.object(rates, "dyadic_mantissa", wraps=dyadic_mantissa) as exact:
        got = _mantissa_stream(1, 2, 1, N + 1)
        first_bad = next(
            (n for n, m in zip(range(1, N + 1), got) if m != math.isqrt((1 << 128) // n)), None
        )
    assert first_bad is None
    # n = 1, the 4^j where 2^64 n^-1/2 is an integer, and a few more
    assert exact.call_count <= 32


#: coprime (u, v) with u <= 9 and v in 2, 3, 4
coprime_exponents = st.sampled_from(
    [(u, v) for v in (2, 3, 4) for u in range(1, 10) if math.gcd(u, v) == 1]
)


@st.composite
def mantissa_windows(draw):
    """Windows anywhere up to 2^40, in the kernel's domain, and across its
    edge at n^u = 2^53; long ones cross a block boundary."""
    u, v = draw(coprime_exponents)
    length = draw(
        st.one_of(
            st.integers(min_value=1, max_value=64),
            st.integers(min_value=_MANTISSA_BLOCK + 1, max_value=_MANTISSA_BLOCK + 200),
        )
    )
    edge = iroot((1 << 53) - 1, u)  # the last n with n^u < 2^53
    lo = draw(
        st.one_of(
            st.integers(min_value=1, max_value=1 << 40),
            st.integers(min_value=1, max_value=edge),
            st.integers(min_value=max(1, edge - length - 16), max_value=edge + 16),
        )
    )
    return u, v, lo, lo + length


@SETTINGS
@given(mantissa_windows())
def test_mantissas_match_integer_roots(window):
    assert list(_mantissa_stream(*window)) == _root_mantissas(*window)


@pytest.mark.parametrize("u, v", [(1, 2), (1, 4), (3, 2), (3, 4), (1, 3), (2, 5)])
def test_mantissas_at_exact_powers(u, v):
    """n = 1, 4^j and 16^j, where 2^64 n^(-u/v) is often an integer; v = 5
    is outside the kernel's roots, so there every n takes the integer root."""
    for base in (4, 16):
        for j in range(0, 31):
            n = base**j
            lo = max(1, n - 2)
            assert list(_mantissa_stream(u, v, lo, n + 3)) == _root_mantissas(u, v, lo, n + 3)
    for j in range(0, 27):  # n^(-1/2) at 4^j and n^(-1/4) at 16^j: exactly 2^-j
        assert list(_mantissa_stream(1, 2, 4**j, 4**j + 1)) == [1 << (64 - j)]
        assert list(_mantissa_stream(1, 4, 16**j, 16**j + 1)) == [1 << (64 - j)]


@pytest.mark.parametrize("u, v", [(1, 2), (1, 4), (2, 3)])
def test_mantissas_unchanged_when_every_n_falls_back(u, v):
    lo, hi = 1, 2 * _MANTISSA_BLOCK + 7
    want = list(_mantissa_stream(u, v, lo, hi))
    with mock.patch.object(rates, "_MANTISSA_MARGIN", 0.5), mock.patch.object(
        rates, "dyadic_mantissa", wraps=dyadic_mantissa
    ) as exact:
        got = list(_mantissa_stream(u, v, lo, hi))
    assert exact.call_count == hi - lo
    assert got == want == _root_mantissas(u, v, lo, hi)


# ---------------------------------------------------------------------------
# Window engine on signed integer-slope axes
# ---------------------------------------------------------------------------


def signed_axis(slopes) -> tuple:
    """Branches of integer slopes k, left to right, each on 1/|k| of [0, 1)
    and onto [0, 1]: x -> k x - offset, orientation-reversed where k < 0."""
    out, left = [], Fraction(0)
    for k in slopes:
        right = left + Fraction(1, abs(k))
        out.append(Branch1D(left, right, k, k * (left if k > 0 else right)))
        left = right
    return tuple(out)


def flipped_base_axis(flips) -> tuple:
    """x -> b x mod 1 with branch j orientation-reversed where flips[j]."""
    return signed_axis([-len(flips) if flip else len(flips) for flip in flips])


#: slopes of mixed sizes, some orientation-reversed (2, -4, 4 and the like),
#: each branch on a cell j/|k| so the offsets are integers: the affine windows
#: read negative slopes on these, as tent and the flipped base axes take the
#: digit windows
mixed_flipped_axes = st.builds(
    lambda sizes, flips: signed_axis([-k if flip else k for k, flip in zip(sizes, flips)]),
    st.sampled_from([(2, 4, 4), (4, 4, 2), (2, 4, 8, 8), (8, 8, 4, 2), (3, 3, 6, 6), (2, 6, 6, 6)]),
    st.lists(st.booleans(), min_size=4, max_size=4),
).filter(lambda axis: any(b.slope < 0 for b in axis))

window_axes = st.one_of(
    st.just(tent_map().axes[0]),
    st.builds(lambda K: luroth_map(K).axes[0], st.integers(min_value=2, max_value=8)),
    st.builds(flipped_base_axis, st.lists(st.booleans(), min_size=2, max_size=5)),
    mixed_flipped_axes,
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
    slow = _count_with_intervals(rate, make_point(), n_max, center, metric)
    assert np.array_equal(fast[0], slow[0])
    assert np.array_equal(fast[1], slow[1])
    return slow


@SETTINGS
@given(window_cases())
def test_window_engine_matches_per_n_reference(case):
    m, rate, center, metric, n_max, seed = case
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
# the fixed point of a -3 branch next to +3 and +6 ones: the affine windows
# compose A < 0, whose window ends C and A + C come in reverse order
@example([(signed_axis([-3, 3, 6, 6]), [0])], 1, "interval", True)
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
    assert axis_engines(m)[0][0] == "digit"
    for c in (Fraction(1, 2), Fraction(1, 4)):
        reference = _engines_agree(
            m, RateFunction((ConstantRate(c),)), lambda: forced_point(m, [(1,)]),
            12, (1 - c,), "interval",
        )
        assert reference[1].all()


def affine_axis(lengths, flips) -> tuple:
    """Branches on cells of [0, 1) in proportion to ``lengths``, left to
    right, each onto [0, 1] and orientation-reversed where ``flips``."""
    total, left, out = sum(lengths), Fraction(0), []
    for length, flip in zip(lengths, flips):
        right = left + Fraction(length) / total
        k = 1 / (right - left)
        out.append(Branch1D(left, right, -k, -k * right) if flip else Branch1D(left, right, k, k * left))
        left = right
    return tuple(out)


@st.composite
def rational_axes(draw):
    """A full-branch axis on a random rational partition of [0, 1) in
    proportion to 2 to 6 weights, branches of either orientation, so offsets
    that are rarely integers: weights of 1 to 8, and some of 2^-40 to
    2^-70, so slopes past 2^64; with some examples one of 2^-1101, a slope
    past 2^1100 whose inverse rounds to 0.  Two weights of 1 to 8, one of
    them last, keep every slope at least 9/8 and the last branch long: the
    exact refinement cannot take a slope within float64 resolution of 1,
    and ``MapSpec`` cannot build the symbol cut of a left end within 2^-64
    of 1."""
    plain = st.integers(min_value=1, max_value=8)
    tiny = st.sampled_from([Fraction(1, 2**40), Fraction(3, 2**66), Fraction(1, 2**70)])
    lengths = draw(st.lists(st.one_of(plain, tiny), max_size=3))
    extra = [draw(plain)] + [Fraction(1, 2**1101)] * draw(st.integers(min_value=0, max_value=1))
    for length in extra:
        lengths.insert(draw(st.integers(min_value=0, max_value=len(lengths))), length)
    lengths.append(draw(plain))
    flips = draw(st.lists(st.booleans(), min_size=len(lengths), max_size=len(lengths)))
    return affine_axis(lengths, flips)


#: a reversed branch of slope past 2^1100 between ones of slope about 3 and
#: 3/2: its inverse is 0 in float64, and so is A on every window through it
HUGE_SLOPE_AXIS = affine_axis([Fraction(1, 3), Fraction(1, 2**1101), Fraction(2, 3)], [0, 1, 0])


@SETTINGS
@given(
    st.one_of(window_axes, rational_axes()),
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=30),
    st.integers(min_value=1, max_value=_AFFINE_MAX_WINDOW),
)
# the reversed branch x -> -5 x + 11/3 on [8/15, 11/15): 1/slope and
# offset/slope round by about half a unit each, and the end A + C lands
# 1.07 units (2^-53) from the exact one, past a bound of W units
@example(affine_axis([2, 6, 3, 4], [1, 1, 1, 1]), [2], 1)
@example(HUGE_SLOPE_AXIS, [1], _AFFINE_MAX_WINDOW)
@example(HUGE_SLOPE_AXIS, [0, 1, 2, 2, 0], 1)
@example(HUGE_SLOPE_AXIS, [2, 2, 2, 1, 0, 0], 40)
def test_compose_windows_match_compose_word(axis, symbols, W):
    """Each float end, C and A + C, of every window of ``_compose_windows``
    on the affine windows' own tables is within ``_affine_end_error(W)`` of
    the exact end of its cylinder, ``maps.word_interval``: the window
    encloses T^n(x) with that margin, past float underflow too."""
    windows = counting._AffineWindows(MapSpec(axes=(axis,)), 0, ConstantRate(HALF), 1, W, None, "interval")
    sym = np.array([s % len(axis) for s in symbols] * W)
    A, C = _compose_windows(windows.alpha[sym], windows.beta[sym], W)
    assert len(A) == len(sym) - W + 1
    ends = np.minimum(A + C, C), np.maximum(A + C, C)
    error = Fraction(_affine_end_error(W))
    for i in range(0, len(A), max(1, len(A) // 4)):
        lo, hi, _, _ = word_interval(axis, sym[i : i + W].tolist())
        assert abs(Fraction(ends[0][i]) - lo) <= error, i
        assert abs(Fraction(ends[1][i]) - hi) <= error, i


def _horner_windows(digits: np.ndarray, base: int, W: int) -> np.ndarray:
    """The base-b number of every W consecutive digits, one pass per digit."""
    v = np.zeros(len(digits) - W + 1, dtype=np.int64)
    for j in range(W):
        v = v * base + digits[j : j + len(v)]
    return v


def _pyramid_windows(digits: np.ndarray, base: int, W: int) -> list:
    """Every W-digit window of ``digits`` by ``_digit_windows``, gathered
    from pyramids of each height up to the prefix span, uint32 digits."""
    digits = digits.astype(np.uint32)
    at = np.arange(len(digits) - W + 1)
    tops = [1 << k for k in range(_prefix_span(base).bit_length())]
    return [_digit_windows(_digit_pyramid(digits, base, top), base, W, at) for top in tops]


@SETTINGS
@given(st.data(), st.integers(min_value=2, max_value=16))
def test_digit_windows_match_horner(data, base):
    W = data.draw(st.integers(min_value=1, max_value=_max_digit_window(base)))
    digit = st.integers(min_value=0, max_value=base - 1)
    tail = data.draw(st.lists(digit, min_size=1, max_size=100))
    run = data.draw(st.sampled_from([0, base - 1]))
    # a run of the top digit gives the largest window, b^W - 1
    digits = np.array([run] * W + tail, dtype=np.uint32).astype(np.int64)
    want = _horner_windows(digits, base, W)
    for z in _pyramid_windows(digits, base, W):
        assert z.dtype == np.int64
        assert np.array_equal(z, want)


def test_digit_windows_at_the_largest_length():
    for base in range(2, 17):
        W, P = _max_digit_window(base), _prefix_span(base)
        assert base**W < 2**62 <= base ** (W + 1)
        assert base**P <= 2**16 < base ** (2 * P)
        digits = np.random.default_rng(base).integers(0, base, W + 500)
        digits[: 2 * W] = base - 1
        want = _horner_windows(digits, base, W)
        for z in _pyramid_windows(digits, base, W):
            assert np.array_equal(z, want)
            assert int(z[0]) == base**W - 1


class _DigitStream:
    """A point stand-in that serves a fixed digit stream to ``block_flags``."""

    def __init__(self, digits):
        self.digits = np.array(digits, dtype=np.uint32)

    def symbols(self, axis, count):
        assert count <= len(self.digits)
        return self.digits[:count]


def _horner_window(digits, base: int, W: int, i: int) -> int:
    """The Python-int base-b number of digits i..i+W-1."""
    D = 0
    for digit in digits[i : i + W]:
        D = D * base + digit
    return D


def _horner_distances(digits, base, W, center, torus) -> list[int]:
    """Python-int window distances |D_n - ref| (min(d, B - d) on the torus),
    n = 1, 2, ..., ref the target's floor(c B) or window 0."""
    B = base**W
    windows = [_horner_window(digits, base, W, i) for i in range(len(digits) - W + 1)]
    ref = windows[0] if center is None else center.numerator * B // center.denominator
    dist = [abs(D - ref) for D in windows[1:]]
    return [min(d, B - d) for d in dist] if torus else dist


@st.composite
def digit_flag_cases(draw):
    """A digit stream, W up to the int64 cap, a recurrence or a target on
    either metric, and per-n cuts: at the clip values -1 and 2^62, random,
    or where the prefix bound d R - (R - 1) meets the miss cut exactly."""
    base = draw(st.integers(min_value=2, max_value=16))
    W = draw(st.integers(min_value=1, max_value=_max_digit_window(base)))
    n_max = draw(st.integers(min_value=1, max_value=60))
    digit = st.integers(min_value=0, max_value=base - 1)
    if draw(st.booleans()):  # periodic: windows equal to the reference
        cycle = draw(st.lists(digit, min_size=1, max_size=3))
        digits = (cycle * (n_max + W))[: n_max + W]
    else:
        digits = draw(st.lists(digit, min_size=n_max + W, max_size=n_max + W))
    B, P = base**W, _prefix_span(base)
    R = base ** max(W - P, 0)
    center = draw(
        st.one_of(
            st.none(),
            st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2)]),
            st.builds(Fraction, st.integers(min_value=0, max_value=999), st.just(999)),
            # a target window Q0 R + r0 whose last digits are all 0 or all top
            st.builds(
                lambda q, r: Fraction(q * R + r, B),
                st.integers(min_value=0, max_value=B // R - 1),
                st.sampled_from([0, R - 1]),
            ),
        )
    )
    torus = draw(st.booleans())
    ref = None if center is None else center.numerator * B // center.denominator
    hit_cut, miss_cut = [], []
    for n in range(1, n_max + 1):
        kind = draw(st.sampled_from(["low", "high", "random", "miss-high", "hit-low", "bound"]))
        if kind in ("low", "high"):
            hit_cut.append(-1 if kind == "low" else 2**62)
            miss_cut.append(hit_cut[-1])
            continue
        miss = draw(st.integers(min_value=0, max_value=B))
        if kind == "miss-high":
            miss = 2**62
        elif kind == "bound":  # d R - (R - 1) of this n, or one more
            d = _prefix_distance(digits, base, W, P, n, ref, torus)
            miss = max(-1, d * R - (R - 1) + draw(st.sampled_from([0, 1])))
        hit = -1
        if kind != "hit-low":
            hit = draw(st.integers(min_value=-1, max_value=max(-1, miss - 1)))
        hit_cut.append(hit)
        miss_cut.append(miss)
    block = draw(st.integers(min_value=1, max_value=n_max))
    return base, W, digits, center, torus, hit_cut, miss_cut, block


def _prefix_distance(digits, base, W, P, n, ref, torus) -> int:
    """d = |Q_n - Q0| of the leading P digits (min(d, base^P - d) on the
    torus), Q0 = ref // base^(W - P), ref window 0 when None."""
    R = base ** max(W - P, 0)
    ref = _horner_window(digits, base, W, 0) if ref is None else ref
    d = abs(_horner_window(digits, base, W, n) // R - ref // R)
    return min(d, base**P - d) if torus else d


def _digit_block_flags(case, prefix_min_block, axis_map=None):
    """Each block's (hit, miss) flags of a ``_DigitWindows`` on the case's
    stream and cuts, joined, with ``_PREFIX_MIN_BLOCK`` patched; the axis
    of ``axis_map`` (the base-b map by default) reads the stream."""
    base, W, digits, center, torus, hit_cut, miss_cut, block = case
    n_max = len(hit_cut)
    cuts = (np.array(hit_cut, dtype=np.int64), np.array(miss_cut, dtype=np.int64))
    with mock.patch.object(counting, "_axis_thresholds", lambda *_: cuts), mock.patch.object(
        counting, "_PREFIX_MIN_BLOCK", prefix_min_block
    ):
        windows = counting._DigitWindows(
            axis_map or base_map(base), 0, ConstantRate(HALF), n_max, W, center,
            "torus" if torus else "interval",
        )
        point, ref, hits, misses = _DigitStream(digits), windows.ref, [], []
        for lo in range(0, n_max, block):
            hit, miss, ref = windows.block_flags(point, lo, min(lo + block, n_max), ref)
            hits.append(hit)
            misses.append(miss)
    return windows, np.concatenate(hits), np.concatenate(misses)


#: base 2, W = 20: P = 16, R = 16.  The target 15/2^20 is the window 15
#: (Q0 = 0, its last four digits 1111); the window of n = 1 is 3 * 16 = 48
#: (Q = 3, last four digits 0000), so d = 3 and the distance 33 is exactly
#: d R - (R - 1).  A miss cut of 33 is met by the prefix, one of 34 is not.
_BOUND_DIGITS = [0] * 15 + [1, 1] + [0] * 4 + [1] * 3
_BOUND_TARGET = Fraction(15, 2**20)


@SETTINGS
@given(digit_flag_cases())
@example((2, 20, _BOUND_DIGITS, _BOUND_TARGET, False, [32, 30, -1, -1], [33, 34, 2**62, 0], 1))
@example((2, 20, _BOUND_DIGITS, _BOUND_TARGET, False, [-1, 33, 2**62, -1], [34, 34, 2**62, -1], 3))
# window 1 is the target 15 itself (Q = 0, Q0 = 0, r0 = R - 1): no miss at cut 1
@example((2, 20, [0] * 17 + [1] * 4, _BOUND_TARGET, False, [-1], [1], 1))
# a periodic recurrence at the int64 cap: every distance is 0
@example((3, 39, [2] * 41, None, True, [-1, 2**62], [-1, 2**62], 2))
def test_digit_block_flags_match_horner(case):
    """Both stages (short-block constant 1) and the one-stage correlation
    give every block the flags of Python-int Horner windows at every n."""
    base, W, digits, center, torus, hit_cut, miss_cut, _ = case
    dist = _horner_distances(digits, base, W, center, torus)
    want_hit = [d <= h for d, h in zip(dist, hit_cut)]
    want_miss = [d >= m for d, m in zip(dist, miss_cut)]
    for prefix_min_block in (1, len(hit_cut) + 1):
        windows, hit, miss = _digit_block_flags(case, prefix_min_block)
        assert hit.tolist() == want_hit
        assert miss.tolist() == want_miss
        assert not (hit & miss).any()
    if W > windows.P:  # the prefix cut is ceil((miss_cut + R - 1) / R), clipped
        R = base ** (W - windows.P)
        want_cut = [min(-(-(m + R - 1) // R), base**windows.P + 1) for m in miss_cut]
        assert windows.prefix_cut.tolist() == want_cut


def test_digit_prefix_bound_is_met_exactly():
    """The ``_BOUND_DIGITS`` stream: n = 1 sits exactly on the prefix bound,
    so a miss cut of 33 is a stage-1 miss (prefix cut 3 = d) and one of 34
    is left to stage 2 (prefix cut 4), which finds no miss."""
    assert _horner_distances(_BOUND_DIGITS, 2, 20, _BOUND_TARGET, False)[0] == 33
    assert _prefix_distance(_BOUND_DIGITS, 2, 20, 16, 1, 15, False) == 3
    for cut, prefix_cut, want in ((33, 3, True), (34, 4, False)):
        case = (2, 20, _BOUND_DIGITS, _BOUND_TARGET, False, [-1] * 4, [cut] * 4, 4)
        windows, _, miss = _digit_block_flags(case, 1)
        assert windows.prefix_cut[0] == prefix_cut
        assert miss[0] == want


def _flipped_windows(symbols, base, flips, W) -> list[int]:
    """Python-int windows of a +-b stream read through the parity automaton:
    the digits d_k = s_k, or b - 1 - s_k where the parity p_(k-1) of the
    flipped symbols before s_k is odd, and window n the Horner window of
    d_(n+1)..d_(n+W), or B - 1 minus it where p_n is odd."""
    digits, parities = [], [0]
    for s in symbols:
        digits.append(base - 1 - s if parities[-1] else s)
        parities.append(parities[-1] ^ flips[s])
    B = base**W
    windows = [_horner_window(digits, base, W, n) for n in range(len(digits) - W + 1)]
    return [B - 1 - w if p else w for w, p in zip(windows, parities)]


@st.composite
def flipped_flag_cases(draw):
    """An orientation table of b = 2..16 or 40 branches with at least one
    slope -b, a symbol stream, W up to the int64 cap, a recurrence or a
    target on either metric, and per-n cuts: at the clip values, random, or
    where the prefix bound d R - (R - 1) of the complemented prefix meets
    the miss cut."""
    base = draw(st.one_of(st.just(2), st.integers(min_value=2, max_value=16), st.just(40)))
    flips = draw(st.lists(st.booleans(), min_size=base, max_size=base).filter(any))
    W = draw(st.integers(min_value=1, max_value=_max_digit_window(base)))
    n_max = draw(st.integers(min_value=1, max_value=60))
    symbol = st.integers(min_value=0, max_value=base - 1)
    if draw(st.booleans()):  # periodic: windows equal to the reference
        cycle = draw(st.lists(symbol, min_size=1, max_size=3))
        symbols = (cycle * (n_max + W))[: n_max + W]
    else:
        symbols = draw(st.lists(symbol, min_size=n_max + W, max_size=n_max + W))
    B, R = base**W, base ** max(W - _prefix_span(base), 0)
    center = draw(
        st.one_of(
            st.none(),
            st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2)]),
            st.builds(Fraction, st.integers(min_value=0, max_value=999), st.just(999)),
        )
    )
    torus = draw(st.booleans())
    windows = _flipped_windows(symbols, base, flips, W)
    ref = windows[0] if center is None else center.numerator * B // center.denominator
    hit_cut, miss_cut = [], []
    for D in windows[1:]:
        kind = draw(st.sampled_from(["low", "high", "random", "bound"]))
        if kind in ("low", "high"):
            hit_cut.append(-1 if kind == "low" else 2**62)
            miss_cut.append(hit_cut[-1])
            continue
        miss = draw(st.integers(min_value=0, max_value=B))
        if kind == "bound":  # d R - (R - 1) of this n, or one more
            d = abs(D // R - ref // R)
            d = min(d, B // R - d) if torus else d
            miss = max(-1, d * R - (R - 1) + draw(st.sampled_from([0, 1])))
        hit_cut.append(draw(st.integers(min_value=-1, max_value=max(-1, miss - 1))))
        miss_cut.append(miss)
    block = draw(st.integers(min_value=1, max_value=n_max))
    return flips, (base, W, symbols, center, torus, hit_cut, miss_cut, block)


def _tight_flipped_case(flips, W, symbols, center, block):
    """A recurrence or target case whose cuts sit next to every window
    distance d, in turn (d - 1, d), (d, d + 1) and (d - 1, d + 1): a miss,
    a hit and neither, each by one step."""
    base, B = len(flips), len(flips) ** W
    windows = _flipped_windows(symbols, base, flips, W)
    ref = windows[0] if center is None else center.numerator * B // center.denominator
    dist = [abs(D - ref) for D in windows[1:]]
    hit_cut = [d - (n % 3 != 1) for n, d in enumerate(dist)]
    miss_cut = [d + (n % 3 != 0) for n, d in enumerate(dist)]
    return flips, (base, W, symbols, center, False, hit_cut, miss_cut, block)


_TIGHT_SYMBOLS = np.random.default_rng(5).integers(0, 3, 60).tolist()


@SETTINGS
@given(flipped_flag_cases())
# tent, both two-branch tables that are not tent, and tables of 3 and 40
# branches, in blocks of 7 with odd parities at block starts: each window is
# its own, whatever parity its block starts from
@example(_tight_flipped_case([False, True], 20, [s % 2 for s in _TIGHT_SYMBOLS], None, 7))
@example(_tight_flipped_case([True, False], 20, [s % 2 for s in _TIGHT_SYMBOLS], HALF, 7))
@example(_tight_flipped_case([True, True], 20, [s % 2 for s in _TIGHT_SYMBOLS], None, 7))
@example(_tight_flipped_case([True, False, True], 12, _TIGHT_SYMBOLS, Fraction(1, 3), 7))
@example(
    _tight_flipped_case([j % 3 == 1 for j in range(40)], 6, [7 * s + 1 for s in _TIGHT_SYMBOLS], None, 7)
)
def test_flipped_digit_block_flags_match_horner(case):
    """Both stages and the one-stage correlation, in any blocks, give the
    flags of Python-int Horner windows of the digits decoded from the first
    symbol on; and each window is exactly the cylinder of its W symbols."""
    flips, case = case
    base, W, symbols, center, torus, hit_cut, miss_cut, _ = case
    axis = flipped_base_axis(flips)
    windows = _flipped_windows(symbols, base, flips, W)
    B = base**W
    for n in range(0, len(windows), max(1, len(windows) // 8)):
        lo, hi, _, _ = word_interval(axis, symbols[n : n + W])
        assert (lo, hi) == (Fraction(windows[n], B), Fraction(windows[n] + 1, B)), n
    ref = windows[0] if center is None else center.numerator * B // center.denominator
    dist = [abs(D - ref) for D in windows[1:]]
    dist = [min(d, B - d) for d in dist] if torus else dist
    for prefix_min_block in (1, len(hit_cut) + 1):
        _, hit, miss = _digit_block_flags(case, prefix_min_block, MapSpec(axes=(axis,)))
        assert hit.tolist() == [d <= h for d, h in zip(dist, hit_cut)]
        assert miss.tolist() == [d >= m for d, m in zip(dist, miss_cut)]


#: slopes 4, 2, 4 are integers, but the middle branch 2x - 1/2 is not
NON_INTEGER_AXIS = (
    Branch1D(0, Fraction(1, 4), 4, 0),
    Branch1D(Fraction(1, 4), Fraction(3, 4), 2, Fraction(1, 2)),
    Branch1D(Fraction(3, 4), 1, 4, 3),
)


def test_non_integer_offsets_take_affine_windows(monkeypatch):
    """An axis with a non-integer offset, alone or next to a digit axis,
    takes affine windows, which leave fewer than 1 % of the n to the exact
    refinement, and gives what the per-n reference gives."""
    m = MapSpec(axes=(NON_INTEGER_AXIS,))
    rate = RateFunction((PowerRate(Fraction(1, 2), Fraction(1, 2)),))
    assert axis_engines(m) == (("affine", "mixed-slopes"),)
    m2 = MapSpec(axes=(NON_INTEGER_AXIS, base_map(3).axes[0]))
    assert axis_engines(m2) == (("affine", "mixed-slopes"), ("digit", "uniform-base"))
    block_flags, point_outcome = counting._AffineWindows.block_flags, counting.point_outcome
    for m, center, metric in ((m, None, "interval"), (m2, (Fraction(1, 3),) * 2, "torus")):
        rate = RateFunction(rate.axes[:1] * m.dimension)
        axes_run, refined = [], []
        monkeypatch.setattr(
            counting._AffineWindows, "block_flags",
            lambda windows, *block: axes_run.append(windows.axis) or block_flags(windows, *block),
        )
        monkeypatch.setattr(counting, "point_outcome", lambda *a: refined.append(a) or point_outcome(*a))
        target = None if center is None else TargetSpec(center)
        fast = hit_indicators(m, rate, sample_point(m, 4), 3000, target=target, metric=metric)
        monkeypatch.undo()
        assert axes_run == [0] and len(refined) < 30
        slow = _count_with_intervals(rate, sample_point(m, 4), 3000, center, metric)
        assert np.array_equal(fast[0], slow[0]) and np.array_equal(fast[1], slow[1])


@pytest.mark.parametrize(
    "axes",
    [tent_map().axes, luroth_map(4).axes, (NON_INTEGER_AXIS,), (tent_map().axes[0], NON_INTEGER_AXIS)],
    ids=["tent", "luroth", "non-integer", "tent-then-non-integer"],
)
def test_a_zero_rate_on_any_axis_needs_no_refinement(axes):
    """psi = 0 n^-1/2 on the last axis (1/2 n^-1/2 on any other): every n is
    a miss, as the per-n reference finds, and no ``point_outcome`` runs."""
    m = MapSpec(axes=axes)
    rate = RateFunction(
        (PowerRate(Fraction(1, 2), Fraction(1, 2)),) * (len(axes) - 1)
        + (PowerRate(Fraction(0), Fraction(1, 2)),)
    )
    for target in (None, TargetSpec(tuple(Fraction(1, 3) for _ in axes))):
        center = None if target is None else target.center
        reference = _count_with_intervals(rate, sample_point(m, 6), 300, center, "interval")
        assert not reference[0].any() and not reference[1].any()
        with mock.patch.object(counting, "point_outcome", side_effect=AssertionError):
            hits, unresolved = hit_indicators(m, rate, sample_point(m, 6), 300, target)
        assert np.array_equal(hits, reference[0])
        assert np.array_equal(unresolved, reference[1])


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
    (windows,) = counting.HitCounter(m, rate, n_max).windows
    ref = windows.ref
    for lo in range(0, n_max, 7):  # the blocks of the engine at a block size of 7
        _, _, ref = windows.block_flags(point, lo, min(lo + 7, n_max), ref)
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



# ---------------------------------------------------------------------------
# Per-plan counter on the harness pool
# ---------------------------------------------------------------------------

digit_axes = st.builds(lambda b: base_map(b).axes[0], st.integers(min_value=2, max_value=5))
engine_axes = {"digit": digit_axes, "mixed": window_axes, "non-integer": st.just(non_integer_axis)}
#: every axis kind alone, and every mix of two, the non-integer axis among them
plan_axis_kinds = st.sampled_from(
    [("digit",), ("mixed",), ("non-integer",), ("digit", "digit"), ("digit", "mixed"),
     ("mixed", "digit"), ("digit", "non-integer"), ("non-integer", "mixed")]
)


@st.composite
def plans(draw):
    axes = tuple(draw(engine_axes[kind]) for kind in draw(plan_axis_kinds))
    m = MapSpec(axes=axes)
    rate = RateFunction(tuple(draw(window_rates) for _ in axes))
    n_max = draw(st.integers(min_value=1, max_value=40))
    inner = draw(st.sets(st.integers(min_value=1, max_value=n_max), max_size=4))
    kind = draw(st.sampled_from(["recurrence", "target"]))
    target = None
    if kind == "target":
        centers = [st.sampled_from([Fraction(0), Fraction(1, 2)] + [b.left for b in a]) for a in axes]
        target = TargetSpec(tuple(draw(c) for c in centers))
    threads = draw(st.integers(min_value=1, max_value=3))
    # fewer samples than threads, and counts that are not multiples of them
    samples = draw(st.integers(min_value=1, max_value=7))
    return ExperimentPlan(
        map=m,
        rate=rate,
        kind=kind,
        n_max=n_max,
        samples=samples,
        master_seed=draw(st.integers(min_value=0, max_value=2**32)),
        target=target,
        checkpoints=tuple(sorted(inner | {n_max})),
        metric=draw(st.sampled_from(["interval", "torus"])),
        threads=threads,
        keep_hits=draw(st.integers(min_value=0, max_value=n_max)),
        thresholds=Thresholds(dichotomy_sum_bound=Fraction(10**9)),
    )


def _reference_flags(plan: ExperimentPlan):
    """(point, hits, unresolved) of every sample, each point decided per n."""
    center = None if plan.kind == "recurrence" else plan.target.center
    for i in range(plan.samples):
        point = sample_point(plan.map, derive_point_seed(plan.master_seed, i))
        flags = _count_with_intervals(plan.rate, point, plan.n_max, center, plan.metric)
        yield point, *flags


@SETTINGS
@given(plans())
# a digit and a signed recurrence axis with radii near 1/3: each point's own
# window 0 decides many n on both axes, so one point's x reused for another shows
@example(
    ExperimentPlan(
        map=MapSpec(axes=(base_map(2).axes[0], tent_map().axes[0])),
        rate=RateFunction((ConstantRate(Fraction(1, 3)), ConstantRate(Fraction(1, 3)))),
        kind="recurrence",
        n_max=40,
        samples=5,
        master_seed=11,
        checkpoints=(10, 40),
        threads=2,
        keep_hits=12,
        thresholds=Thresholds(dichotomy_sum_bound=Fraction(10**9)),
    )
)
def test_plan_counter_matches_per_point_reference(plan):
    """One counter per plan on the shared-index pool gives, point by point,
    what the per-n reference gives for each point sampled on its own."""
    ckpts = plan.checkpoints
    mains = harness.main_terms(plan)
    want = [
        _make_record(plan.kind, point, ckpts, hits, unresolved, mains, plan.keep_hits)
        for point, hits, unresolved in _reference_flags(plan)
    ]
    got = harness.count_points(plan, mains)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.seed, g.kind, g.checkpoints, g.counts, g.unresolved, g.main_terms) == (
            w.seed, w.kind, w.checkpoints, w.counts, w.unresolved, w.main_terms
        )
        assert (g.hits is None) == (w.hits is None)
        if w.hits is not None:
            assert np.array_equal(g.hits, w.hits)
    if plan.samples < 2:  # below the dichotomy's sample minimum
        return
    report = harness.dichotomy_check(plan)
    finals, lasts, unresolved_total = [], [], 0
    for _, hits, unresolved in _reference_flags(plan):
        finals.append(int(hits.sum()))
        lasts.append(int(np.flatnonzero(hits)[-1]) + 1 if hits.any() else 0)
        unresolved_total += int(unresolved.sum())
    assert report.final_counts == tuple(finals)
    assert report.last_hits == tuple(lasts)
    assert report.unresolved_total == unresolved_total


# ---------------------------------------------------------------------------
# Block-streamed counting
# ---------------------------------------------------------------------------

#: the engine each axis kind must take
block_engines = {
    "digit": ("digit", "uniform-base"),
    "flipped": ("digit", "uniform-signed-base"),
    "mixed": ("affine", "mixed-slopes"),
    "overflow": ("digit", "uniform-base"),
    "non-integer": ("affine", "mixed-slopes"),
    "rational": ("affine", "mixed-slopes"),
}
#: window axes of slopes +-b with some -b (tent among them), and the others
#: (Lüroth-trunc-2 and an unflipped base axis are the doubling and base maps)
block_axes = dict(
    engine_axes,
    # orientation tables of 2 to 16 branches, and longer ones of 33 to 36
    flipped=st.one_of(
        st.just(tent_map().axes[0]),
        st.builds(flipped_base_axis, st.lists(st.booleans(), min_size=2, max_size=16).filter(any)),
        st.builds(flipped_base_axis, st.lists(st.booleans(), min_size=33, max_size=36).filter(any)),
    ),
    mixed=window_axes.filter(lambda a: axis_engines(MapSpec(axes=(a,)))[0][0] == "affine"),
    # random rational cells, slopes past 2^64 and 2^1100 among them
    rational=rational_axes().filter(lambda a: MapSpec(axes=(a,)).axis_signed_base(0) is None),
)
#: each axis kind alone, and mixes of two, a non-integer axis among them
block_axis_kinds = st.sampled_from(
    [("digit",), ("mixed",), ("overflow",), ("flipped",), ("digit", "mixed"),
     ("overflow", "digit"), ("mixed", "overflow"), ("digit", "non-integer"),
     ("non-integer", "mixed"), ("flipped", "digit"), ("mixed", "flipped"),
     ("non-integer", "flipped"), ("non-integer",), ("rational",), ("rational", "digit")]
)


@st.composite
def overflow_rates(draw, n_max):
    """Tables of radii of order one with one entry of 2^-60: the digit window
    that entry needs is past int64, so a base-b axis keeps the longest window
    int64 holds."""
    entries = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(3, 8), Fraction(1, 10)])
    values = draw(st.lists(entries, min_size=n_max, max_size=n_max))
    values[draw(st.integers(min_value=0, max_value=n_max - 1))] = Fraction(1, 2**60)
    return TableRate(tuple(values))


@st.composite
def block_cases(draw):
    kinds = draw(block_axis_kinds)
    n_max = draw(st.integers(min_value=2, max_value=150))
    axes, rates = [], []
    for kind in kinds:
        if kind == "overflow":
            axes.append(draw(digit_axes))
            rates.append(draw(overflow_rates(n_max)))
        else:
            axes.append(draw(block_axes[kind]))
            rates.append(draw(window_rates))
    m = MapSpec(axes=tuple(axes))
    rate = RateFunction(tuple(rates))
    assert axis_engines(m) == tuple(block_engines[k] for k in kinds)
    target = None
    if draw(st.booleans()):
        centers = [st.sampled_from([Fraction(0), Fraction(1, 2)] + [b.left for b in a]) for a in axes]
        target = TargetSpec(tuple(draw(c) for c in centers))
    metric = draw(st.sampled_from(["interval", "torus"]))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    block = draw(st.sampled_from([1, 7, "W"]))
    if block == "W":  # the first window axis's W
        windows = counting.HitCounter(m, rate, n_max, target, metric).windows
        block = windows[0].W if windows else 1
    if block > 1 and n_max % block == 0:
        n_max -= 1  # not a multiple of the block: the last block is short
    keep_hits = draw(st.integers(min_value=0, max_value=n_max))
    return m, rate, n_max, target, metric, seed, keep_hits, block


def _blocks_agree(m, rate, n_max, target, metric, make_point, keep_hits, block):
    """Counts in blocks of ``block`` n equal counts in one block and the
    per-n reference: the flags, and the records with ``keep_hits``."""
    counter = counting.HitCounter(m, rate, n_max, target, metric)
    center = None if target is None else target.center
    reference = _count_with_intervals(rate, make_point(), n_max, center, metric)
    checkpoints = tuple(sorted({1, (n_max + 1) // 2, n_max}))
    kind = "recurrence" if target is None else "target"
    want = _make_record(kind, make_point(), checkpoints, *reference, None, keep_hits)
    for size in (n_max, block):
        with mock.patch.object(counting, "_COUNT_BLOCK", size):
            hits, unresolved = counter(make_point())
            record = counter.record(make_point(), checkpoints, None, keep_hits)
        assert np.array_equal(hits, reference[0]), size
        assert np.array_equal(unresolved, reference[1]), size
        assert (record.counts, record.unresolved) == (want.counts, want.unresolved)
        assert (record.hits is None) == (want.hits is None)
        if want.hits is not None:
            assert np.array_equal(record.hits, want.hits)
    return reference


@SETTINGS
@given(block_cases())
# a digit and a signed recurrence axis with radii near 1/3 in blocks of 7:
# each point's window 0 decides many n on both axes after the first block
@example(
    (
        MapSpec(axes=(base_map(2).axes[0], tent_map().axes[0])),
        RateFunction((ConstantRate(Fraction(1, 3)), ConstantRate(Fraction(1, 3)))),
        100, None, "interval", 11, 60, 7,
    )
)
def test_blocked_counts_match_one_block_and_the_reference(case):
    m, rate, n_max, target, metric, seed, keep_hits, block = case
    _blocks_agree(m, rate, n_max, target, metric, lambda: sample_point(m, seed), keep_hits, block)


def test_blocked_counts_keep_unresolved_ties():
    """Exact ties (the ``test_engines_report_unresolved_ties`` points) are
    UNRESOLVED at the same n in every block."""
    m = tent_map()  # x = 2/5 has period 2: |T x - x| = 2/5 at every odd n
    rate = RateFunction((ConstantRate(Fraction(2, 5)),))
    reference = _blocks_agree(m, rate, 30, None, "interval", lambda: forced_point(m, [(0, 1)]), 30, 7)
    assert reference[1].tolist() == [True, False] * 15
    m = base_map(2)  # the stream 111... is x = 1, at distance 1/2 from 1/2
    rate = RateFunction((ConstantRate(Fraction(1, 2)),))
    target = TargetSpec((Fraction(1, 2),))
    reference = _blocks_agree(m, rate, 30, target, "interval", lambda: forced_point(m, [(1,)]), 0, 7)
    assert reference[1].all()


def _overflow_table(n_max: int) -> TableRate:
    values = [(Fraction(1, 2), Fraction(1, 3), Fraction(3, 8), Fraction(1, 10))[n % 4] for n in range(n_max)]
    values[n_max // 3] = Fraction(1, 2**60)
    return TableRate(tuple(values))


@pytest.mark.parametrize(
    "axes, rate, target, metric",
    [
        ((base_map(2).axes[0],), None, None, "torus"),
        ((luroth_map(4).axes[0],), None, TargetSpec((Fraction(1, 3),)), "interval"),
        ((base_map(3).axes[0], luroth_map(4).axes[0]), None, None, "interval"),
        ((base_map(2).axes[0],), "overflow", None, "interval"),
        ((tent_map().axes[0],), None, None, "torus"),
        ((flipped_base_axis([True, False, True]),), None, TargetSpec((Fraction(1, 3),)), "interval"),
        ((signed_axis([2, -4, 4]),), None, None, "torus"),
    ],
    ids=["digit", "signed-target", "digit-signed", "overflow", "tent", "flipped-target", "mixed-flipped"],
)
def test_blocked_counts_past_one_full_block(axes, rate, target, metric):
    """A full block of the default size, then a short one."""
    n_max = (1 << 16) + 1003
    m = MapSpec(axes=axes)
    if rate == "overflow":
        rate = RateFunction((_overflow_table(n_max),))
        assert axis_engines(m) == (("digit", "uniform-base"),)
    else:
        rate = RateFunction(tuple(PowerRate(Fraction(1, 2), Fraction(1, 2)) for _ in axes))
    _blocks_agree(m, rate, n_max, target, metric, lambda: sample_point(m, 5), 3000, 1 << 16)


@pytest.mark.parametrize("m", [base_map(2), tent_map()], ids=["doubling", "tent"])
def test_counting_keeps_no_n_long_int64_temporary(m):
    """Counting one point of realised symbols allocates less than one int64
    per n at its peak: the two bool results and one block's temporaries."""
    n_max = 1 << 20
    counter = counting.HitCounter(m, RateFunction((PowerRate(Fraction(1, 2), Fraction(1, 2)),)), n_max)
    point = sample_point(m, 3)
    point.symbols(0, n_max + 1024)  # past every symbol the windows and the refinement read
    tracemalloc.start()
    try:
        hits, _ = counter(point)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hits.any()
    assert point.realized_depth == n_max + 1024
    assert peak < 8 * n_max, peak / n_max


# ---------------------------------------------------------------------------
# Exponent-fit bootstrap: blocked resamples against one polyfit per resample
# ---------------------------------------------------------------------------


def _loop_fit_error_exponent(
    mains,
    counts: np.ndarray,
    rng_seed: int = 0,
    bootstrap: int = 200,
    min_checkpoints: int = 8,
    min_main: float = 10.0,
) -> harness.ExponentFit:
    """The per-resample reference: one row draw, median and polyfit each."""
    mains_f = np.array([float(m) for m in mains])
    counts = np.asarray(counts, dtype=np.float64)
    absdev = np.abs(counts - mains_f[None, :])
    medians = np.median(absdev, axis=0)
    eligible = mains_f >= min_main
    if medians[eligible].size and np.all(medians[eligible] == 0):
        return harness.ExponentFit(0.0, 0.0, 0.0, 0.0, flag="zero-residual")
    usable = eligible & (medians > 0)
    if int(usable.sum()) < min_checkpoints:
        raise harness.InsufficientCheckpointsError(
            f"need {min_checkpoints} checkpoints with main >= {min_main} "
            f"and positive residual, have {int(usable.sum())}"
        )
    log_x = np.log(mains_f[usable])

    def slope_of(matrix: np.ndarray) -> tuple[float, float]:
        med = np.median(np.abs(matrix - mains_f[None, :]), axis=0)[usable]
        med = np.maximum(med, 1e-12)
        coef = np.polyfit(log_x, np.log(med), 1)
        return float(coef[0]), float(coef[1])

    slope, intercept = slope_of(counts)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(rng_seed, spawn_key=(0xF17,))))
    slopes = np.empty(bootstrap)
    S = counts.shape[0]
    for b in range(bootstrap):
        rows = rng.integers(0, S, size=S)
        slopes[b], _ = slope_of(counts[rows])
    return harness.ExponentFit(
        slope=slope,
        intercept=intercept,
        band_low=float(np.quantile(slopes, 0.025)),
        band_high=float(np.quantile(slopes, 0.975)),
        used_checkpoints=int(usable.sum()),
    )


class _RowSpy(np.random.Generator):
    """A generator that keeps every index array it draws."""

    draws: list = []

    def integers(self, *args, **kwargs):
        out = super().integers(*args, **kwargs)
        _RowSpy.draws.append(out)
        return out


def _fit_and_rows(fit, mains, counts, **kwargs):
    """(the fit or the message of the error it raised, its row indices)."""
    _RowSpy.draws = []
    with mock.patch.object(np.random, "Generator", _RowSpy):
        try:
            out = fit(mains, counts, **kwargs)
        except harness.InsufficientCheckpointsError as exc:
            out = str(exc)
    return out, np.concatenate([d.ravel() for d in _RowSpy.draws] or [np.zeros(0, int)])


@st.composite
def fit_cases(draw):
    """(mains, counts, seed, bootstrap, block): S points by C checkpoints, the
    first ``small`` below ``min_main``; in ``zero`` columns more than half the
    counts equal an integer main term, so their median residual is zero."""
    S = draw(st.integers(min_value=1, max_value=300))
    C = draw(st.integers(min_value=8, max_value=30))
    small = draw(st.integers(min_value=0, max_value=draw(st.sampled_from([3, C]))))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    mains = np.concatenate([
        np.sort(rng.uniform(1, 10, small)),
        np.geomspace(10, 10 ** rng.uniform(1.5, 7), C - small),
    ])
    counts = rng.poisson(mains, size=(S, C)).astype(np.float64)
    shape = draw(st.sampled_from(["noisy"] * 2 + ["zero-median"] * 2 + ["zero-residual"]))
    zero = {"noisy": [], "zero-median": rng.choice(C, rng.integers(1, C // 3), replace=False),
            "zero-residual": np.arange(small, C)}[shape]
    for j in zero:
        mains[j] = np.round(mains[j])
        counts[rng.choice(S, S // 2 + 1, replace=False), j] = mains[j]
    block = draw(st.sampled_from([1, S * C - 1, S * C * 7 + 1, harness._FIT_BLOCK]))
    bootstrap = draw(st.sampled_from([1, 2, 37, 200]))
    return mains.tolist(), counts, draw(st.integers(min_value=0, max_value=2**16)), bootstrap, block


@SETTINGS
@given(fit_cases())
def test_blocked_bootstrap_matches_the_per_resample_loop(case):
    mains, counts, seed, bootstrap, block = case
    kwargs = {"rng_seed": seed, "bootstrap": bootstrap}
    want, want_rows = _fit_and_rows(_loop_fit_error_exponent, mains, counts, **kwargs)
    with mock.patch.object(harness, "_FIT_BLOCK", block):
        got, got_rows = _fit_and_rows(harness.fit_error_exponent, mains, counts, **kwargs)
    assert np.array_equal(got_rows, want_rows)
    if isinstance(want, str):
        assert got == want
        return
    assert (got.slope, got.intercept, got.flag, got.used_checkpoints) == (
        want.slope, want.intercept, want.flag, want.used_checkpoints
    )
    assert abs(got.band_low - want.band_low) <= 1e-12
    assert abs(got.band_high - want.band_high) <= 1e-12


#: Seeds at the edges of numpy's entropy words: zero, the widest one-word
#: seed, the smallest two-word seed and the largest uint64.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


@SETTINGS
@given(
    st.integers(min_value=0, max_value=2**70),
    st.integers(min_value=1, max_value=2**12 + 3),
    st.integers(min_value=0, max_value=3),
)
@example(2**64 - 1, 2**12 + 3, 3)
def test_plan_seed_words_match_seed_sequence(master, count, axis):
    """Every derived seed, and the seed words of the first, the last and 30
    spread-out points and of the edge seeds, equal the per-seed reference."""
    seeds = derive_point_seeds(master, count)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [derive_point_seed(master, i) for i in range(count)]
    checked = np.unique(np.linspace(0, count - 1, 32).astype(np.int64))
    table = np.concatenate([seeds[checked], np.array(EDGE_SEEDS, dtype=np.uint64)])
    words = seed_states(table, axis)
    assert words.shape == (len(table), 4) and words.dtype == np.uint64
    want = [
        np.random.SeedSequence(entropy=int(s), spawn_key=(axis,)).generate_state(4, np.uint64)
        for s in table
    ]
    assert np.array_equal(words, np.array(want))
    # the whole table row by row, as the plan hands it to its points
    assert np.array_equal(seed_states(seeds, axis)[checked], words[: len(checked)])
