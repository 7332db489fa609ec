"""Counting orbit returns with guaranteed-correct comparisons.

Points are lazy random itineraries: the orbit position T^n(x) is the same
symbol stream shifted by n, so distances can be compared against psi(n)
exactly, through integer digit windows on base-b axes and exact interval
refinement everywhere else.  No floating-point orbit ever exists, so there
is no shadowing error to worry about.
"""

from fractions import Fraction as F

from orbitcount import (
    count_recurrence,
    count_shrinking_target,
    doubling_map,
    forced_point,
    sample_point,
    tent_map,
)
from orbitcount.counting import TargetSpec, geometric_checkpoints
from orbitcount.rates import constant_rate, power_rate

m = doubling_map()

print("== a forced rational point: x = 1/5 (binary 0011 repeating) ==")
p = forced_point(m, [(0, 0, 1, 1)])
rec = count_recurrence(m, constant_rate("1/10"), p, [4, 8, 12])
print("  orbit: 1/5 -> 2/5 -> 4/5 -> 3/5 -> 1/5 (period 4)")
print("  R at N=4,8,12 with psi=1/10:", rec.counts, " (hits exactly at multiples of 4)")

print("\n== shrinking target around x0 = 0 from x = 1/3 ==")
p = forced_point(m, [(0, 1)])
rec = count_shrinking_target(m, constant_rate("2/5"), TargetSpec(center=(F(0),)), p, [4])
print("  orbit alternates 2/3, 1/3; hits the ball at even n:", rec.counts)

print("\n== a sampled point on the doubling map, N = 10^5 ==")
ckpts = geometric_checkpoints(10**5, minimum=100)
rate = power_rate("1/2", "1/2")  # psi(n) ~ 1/(2 sqrt n): divergent sum
point = sample_point(m, seed=123456789)
rec = count_recurrence(m, rate, point, ckpts)
print(f"  {'N':>7} {'R':>6} {'Psi(N)':>10} {'R - Psi':>8}")
for N, R, psi in zip(rec.checkpoints, rec.counts, rec.main_terms):
    print(f"  {N:>7} {R:>6} {float(psi):>10.2f} {R - float(psi):>8.2f}")
print("  unresolved comparisons:", rec.unresolved[-1])

print("\n== same machinery on the tent map (digit windows, parity automaton) ==")
t = tent_map()
rec = count_recurrence(t, rate, sample_point(t, 99), [100, 1000])
print("  R at N=100, 1000:", rec.counts, " vs Psi:", [round(float(x), 1) for x in rec.main_terms])
