"""The four benchmark workloads and the checks on their outputs.

Each workload drives orbitcount through its public entry points only
(``run_experiment``, ``dichotomy_check``, ``measure``,
``measure_intersection``), looked up on their modules at call time so that
the tracer's wrappers are the ones called.  ``Run`` counts operations:

* every sampled point of an entry call (an entry call that raises fails
  all its points, a point whose count disagrees with the reference check
  fails too);
* every exact oracle query;
* every report rendering (``to_json_dict`` plus ``json.dumps``);
* every statistical verdict.

A disagreement with a reference (the exact re-decision of a point through
``points.distance_predicate``, an oracle identity, or a recorded digest)
also makes the rep incorrect.  A statistical verdict is a probabilistic
check, so when it fails the operation fails but the output is not marked
wrong.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from orbitcount import exact_measure, harness, points
from orbitcount.counting import TargetSpec, geometric_checkpoints
from orbitcount.harness import ExperimentPlan, Thresholds
from orbitcount.maps import doubling_map, luroth_map, tent_map
from orbitcount.rates import power_rate

HERE = Path(__file__).resolve().parent

#: psi(n) = n^(-1/2) / 2, realized at the 64-bit dyadic convention.
HALF_SQRT = power_rate("1/2", "1/2")
#: psi(n) = 1/(2n), exact; mu(A_n) is about 1/n.
HARMONIC = power_rate("1/2", 1)
#: psi(n) = n^(-2) / 2, exact; summable, so the dichotomy applies.
INVERSE_SQUARE = power_rate("1/2", 2)

# Acceptance thresholds per workload.  The library defaults are sized for
# 200 points; at these sample counts the bootstrap band of the exponent fit
# is wider.  Each pair below was checked on 1000 random subsets of
# pre-computed points (24 of 160 on digit-long, 48 of 200 on the target
# run, 8 of 100 on tent): none failed, the worst relative errors being
# 0.024, 0.042 and 0.106 and the worst bands 0.87, 0.95 and 1.57.  The first
# two now draw 48 and 192 points, which narrows both.  The interval maps at
# N = 10^4 are guarded against gross errors only; the exact check there is
# the reference re-decision.  Lüroth draws 4 points, not 2, because single
# points converge slowly: one in 106 had R(10^4) at 0.56 of the main term
# (confirmed by the reference re-decision), which alone puts the median of 2
# past 0.25.  On 2000 subsets of 4 of those 106, a third of them holding
# that point, the worst relative error was 0.171 and the worst band 1.57.
DIGIT_LONG = Thresholds(slope_band_max=1.0)
TARGET = Thresholds(rel_err=0.08, slope_band_max=1.25)
INTERVAL = Thresholds(rel_err=0.25, slope_band_max=2.0)

SIZES = {
    "full": {
        "digit-long": {"n_max": 10**6, "samples": 48, "check_points": 4},
        "exact-main-terms": {
            "n_max": 10**5,
            "dichotomy_samples": 16,
            "target_samples": 192,
            "check_points": 2,
            "dichotomy_check_n": 1000,
        },
        "interval-maps": {
            "n_max": 10**4,
            "tent_samples": 8,
            "luroth_samples": 4,
            "check_points": 2,
        },
        "mc-vs-oracle": {
            "depth": 12,
            "luroth_depth": 6,
            "samples": 1500,
            "luroth_samples": 200,
            "check_points": 20,
        },
    },
    "tiny": {
        "digit-long": {"n_max": 3000, "samples": 4, "check_points": 2},
        "exact-main-terms": {
            "n_max": 3000,
            "dichotomy_samples": 4,
            "target_samples": 4,
            "check_points": 2,
            "dichotomy_check_n": 300,
        },
        "interval-maps": {
            "n_max": 300,
            "tent_samples": 2,
            "luroth_samples": 2,
            "check_points": 1,
        },
        "mc-vs-oracle": {
            "depth": 5,
            "luroth_depth": 3,
            "samples": 200,
            "luroth_samples": 50,
            "check_points": 5,
        },
    },
}

#: Digests of the full-size outputs.  ``exact`` (main terms, oracle values)
#: does not depend on the seed; ``counts`` is recorded at ``seed``.
RECORDED = json.loads((HERE / "recorded.json").read_text())

#: Every point is re-decided up to this checkpoint through the reference path.
CHECK_N = 100


def _fraction_bytes(value: Fraction) -> bytes:
    # str() of a Fraction fails past 4300 digits; bytes have no limit.
    out = b""
    for part in (value.numerator, value.denominator):
        out += part.to_bytes(part.bit_length() // 8 + 1, "big", signed=True) + b"/"
    return out


class Run:
    """Operation counts, checks and output digests of one rep."""

    def __init__(self, workload: str, seed: int, threads: int, scale: str, instrument):
        self.workload = workload
        self.seed = seed
        self.threads = threads
        self.scale = scale
        self.size = SIZES[scale][workload]
        self.instrument = instrument
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.mismatches: list[str] = []
        self.point_n = 0
        self.unresolved = 0
        self.worst_sigma: dict[str, float] = {}
        self._counts = hashlib.sha256()
        self._exact = hashlib.sha256()

    def master(self, part: int) -> int:
        """Master seed of one part of the workload, derived from the run seed."""
        return self.seed * 16 + part

    def span(self, name: str):
        tracer = self.instrument.tracer
        return contextlib.nullcontext() if tracer is None else tracer.span(name)

    # -- operations ---------------------------------------------------------

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.failures.append(why)

    def mismatch(self, why: str) -> None:
        self.fail(1, why)
        self.mismatches.append(why)

    def call(self, entry, plan: ExperimentPlan):
        """One entry call over ``plan.samples`` points; None when it raised."""
        self.attempted += plan.samples
        self.point_n += plan.samples * plan.n_max
        with self.instrument.entry():
            try:
                return entry(plan)
            except Exception as exc:  # any failure of the call fails its points
                self.fail(plan.samples, f"{entry.__name__}: {exc!r}")
                return None

    def query(self, fn, *events) -> Fraction | None:
        self.attempted += 1
        try:
            return fn(*events)
        except Exception as exc:  # an oracle query that raises is one failure
            self.fail(1, f"{fn.__name__}: {exc!r}")
            return None

    def render(self, label: str, report) -> None:
        self.attempted += 1
        try:
            json.dumps(report.to_json_dict())
        except Exception as exc:  # the report of this operation is lost
            self.fail(1, f"{label} render: {type(exc).__name__}: {str(exc)[:80]}")

    def verdict(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.fail(1, f"{label}: statistical verdict failed")

    # -- checks ---------------------------------------------------------------

    def reference_hits(self, plan: ExperimentPlan, seed: int, n_max: int):
        """(hits, unresolved) for n = 1..n_max, decided one n at a time."""
        point = points.sample_point(plan.map, seed)
        center = None if plan.target is None else plan.target.center
        outcomes = [
            points.distance_predicate(
                plan.map, point, n, plan.rate.radii(n), metric=plan.metric, center=center
            )
            for n in range(1, n_max + 1)
        ]
        hits = np.array([o is points.Outcome.HIT for o in outcomes])
        unresolved = np.array([o is points.Outcome.UNRESOLVED for o in outcomes])
        return hits, unresolved

    def check_counts(self, label: str, plan: ExperimentPlan, report) -> None:
        j = report.checkpoints.index(CHECK_N)
        with self.span("bench.verify"):
            for i in range(min(self.size["check_points"], plan.samples)):
                hits, unresolved = self.reference_hits(plan, report.seeds[i], CHECK_N)
                want = (int(hits.sum()), int(unresolved.sum()))
                got = (int(report.counts[i, j]), int(report.unresolved[i, j]))
                if got != want:
                    self.mismatch(f"{label} point {i}: R({CHECK_N}) = {got}, reference {want}")

    def check_hits(self, label: str, plan: ExperimentPlan, report) -> None:
        with self.span("bench.verify"):
            for i in range(min(self.size["check_points"], plan.samples)):
                hits, _ = self.reference_hits(plan, report.seeds[i], plan.keep_hits)
                if not np.array_equal(report.hits_matrix[i].astype(bool), hits):
                    self.mismatch(f"{label} point {i}: hit indicators differ from reference")

    def digest_counts(self, *arrays) -> None:
        for a in arrays:
            self._counts.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())

    def digest_exact(self, values) -> None:
        for v in values:
            self._exact.update(_fraction_bytes(v))

    def finish_experiment(self, label: str, plan: ExperimentPlan, report) -> None:
        """Render, verdict, reference check and digests of a run_experiment report."""
        self.render(label, report)
        self.verdict(label, bool(report.passed["all"]))
        self.check_counts(label, plan, report)
        self.digest_counts(report.counts, report.unresolved)
        self.digest_exact(report.mains)
        self.unresolved += report.unresolved_total

    def digests(self) -> dict[str, str]:
        return {"counts": self._counts.hexdigest(), "exact": self._exact.hexdigest()}

    def check_recorded(self) -> None:
        """Compare digests with the recorded full-size outputs."""
        recorded = RECORDED.get(self.workload)
        if self.scale != "full" or recorded is None:
            return
        got = self.digests()
        if got["exact"] != recorded["exact"]:
            self.mismatches.append("exact values differ from the recorded digest")
        if self.seed == recorded["seed"] and got["counts"] != recorded["counts"]:
            self.mismatches.append(f"counts at seed {self.seed} differ from the recorded digest")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def digit_long(run: Run) -> None:
    """Doubling-map recurrence at N = 10^6: the acceptance-scale run."""
    n_max = run.size["n_max"]
    plan = ExperimentPlan(
        map=doubling_map(),
        rate=HALF_SQRT,
        kind="recurrence",
        n_max=n_max,
        samples=run.size["samples"],
        master_seed=run.master(0),
        checkpoints=tuple(geometric_checkpoints(n_max, minimum=CHECK_N)),
        threads=run.threads,
        thresholds=DIGIT_LONG,
    )
    report = run.call(harness.run_experiment, plan)
    if report is not None:
        run.finish_experiment("digit-long", plan, report)


def exact_main_terms(run: Run) -> None:
    """Doubling map at N = 10^5 where exact main-term sums dominate."""
    n_max = run.size["n_max"]
    dichotomy = ExperimentPlan(
        map=doubling_map(),
        rate=INVERSE_SQUARE,
        kind="recurrence",
        n_max=n_max,
        samples=run.size["dichotomy_samples"],
        master_seed=run.master(1),
        threads=run.threads,
    )
    report = run.call(harness.dichotomy_check, dichotomy)
    if report is not None:
        run.render("dichotomy", report)
        run.verdict("dichotomy", report.passed)
        check_dichotomy(run, dichotomy, report)
        run.digest_counts(report.final_counts, report.last_hits)
        run.digest_exact([report.main_sum])
        run.unresolved += report.unresolved_total

    target = ExperimentPlan(
        map=doubling_map(),
        rate=HALF_SQRT,
        kind="target",
        target=TargetSpec((Fraction(1, 2),)),
        n_max=n_max,
        samples=run.size["target_samples"],
        master_seed=run.master(2),
        threads=run.threads,
        thresholds=TARGET,
    )
    report = run.call(harness.run_experiment, target)
    if report is not None:
        run.finish_experiment("target", target, report)


def check_dichotomy(run: Run, plan: ExperimentPlan, report) -> None:
    """Re-decide points whose last hit is early, up to ``dichotomy_check_n``."""
    n_ref = run.size["dichotomy_check_n"]
    chosen = [i for i, last in enumerate(report.last_hits) if last <= n_ref]
    with run.span("bench.verify"):
        for i in chosen[: run.size["check_points"]]:
            seed = points.derive_point_seed(plan.master_seed, i)
            hits, unresolved = run.reference_hits(plan, seed, n_ref)
            last = int(np.nonzero(hits)[0][-1]) + 1 if hits.any() else 0
            want = (int(hits.sum()), last)
            got = (report.final_counts[i], report.last_hits[i])
            if got != want or unresolved.any():
                run.mismatch(f"dichotomy point {i}: (count, last) = {got}, reference {want}")


def interval_maps(run: Run) -> None:
    """Tent and Lüroth-trunc-4 at N = 10^4, counted by the interval engine."""
    maps = (
        ("tent", tent_map(), run.size["tent_samples"]),
        ("luroth-trunc-4", luroth_map(4), run.size["luroth_samples"]),
    )
    for part, (label, map_spec, samples) in enumerate(maps):
        plan = ExperimentPlan(
            map=map_spec,
            rate=HALF_SQRT,
            kind="recurrence",
            n_max=run.size["n_max"],
            samples=samples,
            master_seed=run.master(3 + part),
            threads=run.threads,
            thresholds=INTERVAL,
        )
        report = run.call(harness.run_experiment, plan)
        if report is not None:
            run.finish_experiment(label, plan, report)


def mc_vs_oracle(run: Run) -> None:
    """Exact oracle values, then short sampled orbits checked against them."""
    depth = run.size["depth"]
    maps = (
        ("doubling", doubling_map(), depth, True, run.size["samples"]),
        ("tent", tent_map(), depth, True, run.size["samples"]),
        ("luroth-trunc-4", luroth_map(4), run.size["luroth_depth"], False, run.size["luroth_samples"]),
    )
    with run.instrument.entry():  # the exact reference is the set-up
        oracles = [oracle(run, m, n, pairs) for _, m, n, pairs, _ in maps]
    for part, ((label, map_spec, _, _, samples), exact) in enumerate(zip(maps, oracles)):
        plan = ExperimentPlan(
            map=map_spec,
            rate=HARMONIC,
            kind="recurrence",
            n_max=depth,
            samples=samples,
            master_seed=run.master(6 + part),
            threads=run.threads,
            keep_hits=depth,
        )
        report = run.call(harness.run_experiment, plan)
        if report is None:
            continue
        run.render(label, report)
        ok, worst = within_4_sigma(report.hits_matrix, *exact)
        run.worst_sigma[label] = worst
        run.verdict(f"{label} Monte Carlo vs oracle", ok)
        run.check_hits(label, plan, report)
        run.digest_counts(report.hits_matrix, report.unresolved)
        run.unresolved += report.unresolved_total


def oracle(run: Run, map_spec, depth: int, pairs: bool):
    """Exact mu(A_n), n <= depth, and mu(A_m ∩ A_n), m < n <= depth."""
    events = {n: exact_measure.event_recurrence(map_spec, HARMONIC, n) for n in range(1, depth + 1)}
    singles = {n: run.query(exact_measure.measure, e) for n, e in events.items()}
    joint = {}
    if pairs:
        for a in range(1, depth + 1):
            for b in range(a + 1, depth + 1):
                joint[a, b] = run.query(exact_measure.measure_intersection, events[a], events[b])
    values = [v for v in [*singles.values(), *joint.values()] if v is not None]
    run.digest_exact(values)
    inconsistent = [v for v in values if not 0 <= v <= 1]
    for (a, b), v in joint.items():
        if None not in (v, singles[a], singles[b]) and v > min(singles[a], singles[b]):
            inconsistent.append(v)
    if inconsistent:
        run.mismatch("oracle values violate 0 <= mu(A_m ∩ A_n) <= min(mu(A_m), mu(A_n)) <= 1")
    return singles, joint


def within_4_sigma(hits: np.ndarray, singles: dict, joint: dict) -> tuple[bool, float]:
    """Every single and pair hit frequency within 4 sigma of its exact value."""
    h = hits.astype(np.int64)
    S = len(h)
    single_freq = h.sum(axis=0) / S
    pair_freq = (h.T @ h) / S
    checks = [(single_freq[n - 1], mu) for n, mu in singles.items()]
    checks += [(pair_freq[a - 1, b - 1], mu) for (a, b), mu in joint.items()]
    ok, worst = True, 0.0
    for freq, mu in checks:
        if mu is None:
            ok = False
            continue
        mu = float(mu)
        sigma = (mu * (1 - mu) / S) ** 0.5
        if sigma == 0.0:  # mu is 0 or 1: every point must agree
            ok &= freq == mu
            continue
        worst = max(worst, abs(freq - mu) / sigma)
    return ok and worst <= 4.0, worst


WORKLOADS = {
    "digit-long": digit_long,
    "exact-main-terms": exact_main_terms,
    "interval-maps": interval_maps,
    "mc-vs-oracle": mc_vs_oracle,
}
