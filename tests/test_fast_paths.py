"""Fast paths against their exact per-n reference paths (property-based).

* ``counting._axis_thresholds`` (float cuts with a certified slack) against
  ``counting._exact_cuts`` at every n;
* ``rates._segment_sums`` (streamed scaled integers) against the per-n sum
  of ``AxisRate.scaled_value``.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcount.counting import _axis_thresholds, _exact_cuts
from orbitcount.rates import (
    ConstantRate,
    PowerRate,
    RateFunction,
    TableRate,
    _segment_sums,
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

