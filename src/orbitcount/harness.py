"""Monte Carlo experiments over sampled points and the acceptance statistics.

The counting asymptotic under test says that for almost every point the
hit count R(x,N) tracks the main term (Psi for recurrence, the exact ball
measure sum for targets) with error O(sqrt(main) * polylog).  The harness
realizes this as falsifiable desk-scale checks:

* ``run_experiment``     -- S seeded points, per-checkpoint count statistics,
                            relative-error and envelope checks, exponent fit.
* ``variance_statistic`` -- the empirical second moment of the centered
                            partial sums of hit indicators, compared with a
                            linear bound (the quantitative Borel-Cantelli
                            hypothesis).
* ``fit_error_exponent`` -- least squares slope of log median |R - main|
                            against log main, with a bootstrap band.
* ``dichotomy_check``    -- the convergence regime: summable main term
                            forces uniformly bounded final counts.

Determinism contract: everything is a pure function of the configuration
including the master seed; worker threads only parallelize independent
points and results are reassembled by index.  ``threads`` is an upper
bound: plans with n_max <= ``SERIAL_N_MAX`` count on the calling thread
(``point_workers``), since their points make many small numpy calls that
hold the interpreter lock, and 2 threads were 0.36-0.72 times as fast as
1 there on every engine (README, "Thread policy").
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from ._rationals import derive_point_seeds, format_fraction
from .counting import (CountRecord, HitCounter, TargetSpec, _checked_checkpoints,
                       geometric_checkpoints)
from .exact_measure import event_recurrence, measure
from .maps import MapSpec
from .points import GenericPoint, sample_point, seed_states
from .rates import RateFunction, psi_partial_sums, target_main_term_sums

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """An experiment plan fails validation."""


@dataclass(frozen=True)
class Thresholds:
    """Acceptance cut-offs; engineering defaults frozen for CI."""

    rel_err: float = 0.05
    envelope_coeff: float = 4.0
    envelope_log_exp: float = 1.6
    envelope_const: float = 50.0
    envelope_frac: float = 0.95
    slope_band_max: float = 0.75
    dichotomy_max_final: int = 20
    dichotomy_sum_bound: Fraction = Fraction(10)


@dataclass(frozen=True)
class ExperimentPlan:
    map: MapSpec
    rate: RateFunction
    kind: str  # "recurrence" | "target"
    n_max: int
    samples: int
    master_seed: int
    target: TargetSpec | None = None
    checkpoints: tuple[int, ...] | None = None
    metric: str = "interval"
    threads: int = 0
    keep_hits: int = 0
    thresholds: Thresholds = field(default_factory=Thresholds)

    def resolved_checkpoints(self) -> list[int]:
        if self.checkpoints is not None:
            return list(self.checkpoints)
        return geometric_checkpoints(self.n_max)


def default_threads() -> int:
    """``ORBITCOUNT_THREADS``, else min(4, the CPUs this process may run on)."""
    env = os.environ.get("ORBITCOUNT_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"ORBITCOUNT_THREADS must be an integer, got {env!r}") from None
    if hasattr(os, "sched_getaffinity"):
        return min(4, len(os.sched_getaffinity(0)))
    return min(4, os.cpu_count() or 1)


def validate_plan(plan: ExperimentPlan) -> None:
    if plan.samples < 2:
        raise ConfigError("samples must be >= 2")
    if plan.kind not in ("recurrence", "target"):
        raise ConfigError(f"unknown experiment kind {plan.kind!r}")
    if plan.kind == "target" and plan.target is None:
        raise ConfigError("target experiments need a target center")
    if plan.rate.dimension != plan.map.dimension:
        raise ConfigError("rate and map dimensions differ")
    limit = plan.rate.max_index()
    if limit is not None and plan.n_max > limit:
        raise ConfigError(f"rate table too short for n_max = {plan.n_max}")
    try:
        if _checked_checkpoints(plan.resolved_checkpoints())[-1] != plan.n_max:
            raise ValueError("checkpoints must end at n_max")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    band_low: float
    band_high: float
    flag: str = ""
    used_checkpoints: int = 0


class InsufficientCheckpointsError(RuntimeError):
    pass


@dataclass(frozen=True)
class CheckpointStats:
    N: int
    main_exact: Fraction
    mean_count: float
    var_count: float
    median_absdev: float
    q90_absdev: float
    envelope_fraction: float
    unresolved_total: int


@dataclass(frozen=True)
class ExperimentReport:
    kind: str
    checkpoints: tuple[int, ...]
    stats: tuple[CheckpointStats, ...]
    counts: np.ndarray  # (samples, checkpoints) int64
    unresolved: np.ndarray  # (samples, checkpoints) int64, cumulative
    mains: tuple[Fraction, ...]
    seeds: tuple[int, ...]
    fit: ExponentFit | None
    unresolved_total: int
    thresholds: Thresholds
    passed: dict
    hits_matrix: np.ndarray | None = None

    def records(self) -> list[CountRecord]:
        """The CountRecord of each point (without its hits), from the count arrays."""
        return [
            CountRecord(seed, self.kind, self.checkpoints, tuple(c), self.mains, tuple(u))
            for seed, c, u in zip(self.seeds, self.counts.tolist(), self.unresolved.tolist())
        ]

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "sample_size": len(self.seeds),
            "checkpoints": [asdict(s) | _exact_and_float("main", s.main_exact) for s in self.stats],
            "exponent_fit": None if self.fit is None else asdict(self.fit),
            "unresolved_total": self.unresolved_total,
            "passed": self.passed,
            "per_point_counts": self.counts.tolist(),
        }


def _exact_and_float(name: str, value: Fraction) -> dict:
    """The JSON fields of an exact value: ``<name>_exact`` as "p/q" and ``<name>_float``."""
    return {f"{name}_exact": format_fraction(value), f"{name}_float": float(value)}


#: The longest orbit whose points are counted on the calling thread.
SERIAL_N_MAX = 10_000


def point_workers(plan: ExperimentPlan) -> tuple[int, str]:
    """(workers, reason): the threads that count the plan's points, and why."""
    if plan.n_max <= SERIAL_N_MAX:
        return 1, "short-orbits"
    return min(plan.threads or default_threads(), plan.samples), "requested"


def _run_points(plan: ExperimentPlan, worker: Callable[[int], CountRecord]) -> list[CountRecord]:
    """[worker(i) for i in range(plan.samples)], on ``point_workers(plan)`` threads.

    One task per thread takes the next index whenever it is free, so an
    index costs a lock round instead of a future.  After a worker raises, no
    task starts another index, and the exception propagates.
    """
    threads = point_workers(plan)[0]
    if threads <= 1:
        return [worker(i) for i in range(plan.samples)]
    results: list = [None] * plan.samples
    indices = iter(range(plan.samples))
    lock = threading.Lock()
    failed = threading.Event()

    def drain() -> None:
        while not failed.is_set():
            with lock:
                i = next(indices, None)
            if i is None:
                return
            try:
                results[i] = worker(i)
            except BaseException:
                failed.set()
                raise

    with ThreadPoolExecutor(max_workers=threads) as pool:
        tasks = [pool.submit(drain) for _ in range(threads)]
    for task in tasks:
        task.result()
    return results


def envelope_bound(main: float, thresholds: Thresholds) -> float:
    """The tolerated deviation at main-term value ``main``."""
    if main <= 1.0:
        return thresholds.envelope_const
    return (thresholds.envelope_coeff * main**0.5 * np.log(main) ** thresholds.envelope_log_exp
            + thresholds.envelope_const)


def main_terms(plan: ExperimentPlan) -> list[Fraction]:
    """Exact main terms at the plan's checkpoints: Psi(N) for recurrence,
    the clipped ball-volume sum around the center for targets."""
    ckpts = plan.resolved_checkpoints()
    if plan.kind == "recurrence":
        return psi_partial_sums(plan.rate, ckpts)
    return target_main_term_sums(plan.rate, plan.target.center, ckpts)


def _plan_points(plan: ExperimentPlan) -> Callable[[int], GenericPoint]:
    """point(i), the plan's i-th point: ``sample_point`` at seed
    ``derive_point_seed(master_seed, i)``.  The seeds and every axis's PCG64
    seed words (``seed_states``) are computed for all points at once."""
    seeds = derive_point_seeds(plan.master_seed, plan.samples)
    states = np.empty((plan.samples, plan.map.dimension, 4), dtype=np.uint64)
    for axis in range(plan.map.dimension):
        states[:, axis] = seed_states(seeds, axis)
    seeds = seeds.tolist()

    def point(i: int) -> GenericPoint:
        return sample_point(plan.map, seeds[i], states=states[i])

    return point


def count_points(plan: ExperimentPlan, mains: Sequence[Fraction]) -> list[CountRecord]:
    """One CountRecord per sampled point, in index order, on the plan's workers."""
    ckpts = _checked_checkpoints(plan.resolved_checkpoints())
    cuts = np.array(ckpts, dtype=np.int64)
    counter = _plan_counter(plan, ckpts[-1])
    mains = tuple(mains)
    point = _plan_points(plan)

    def worker(i: int) -> CountRecord:
        return counter.record(point(i), ckpts, mains, plan.keep_hits, cuts)

    return _run_points(plan, worker)


def _plan_counter(plan: ExperimentPlan, n_max: int) -> HitCounter:
    target = plan.target if plan.kind == "target" else None
    return HitCounter(plan.map, plan.rate, n_max, target, plan.metric)


def run_experiment(plan: ExperimentPlan) -> ExperimentReport:
    """Sample S points, count hits, and aggregate checkpoint statistics."""
    validate_plan(plan)
    ckpts = plan.resolved_checkpoints()
    mains = main_terms(plan)
    records = count_points(plan, mains)
    counts = np.array([r.counts for r in records], dtype=np.int64)
    unres = np.array([r.unresolved for r in records], dtype=np.int64)
    mains_f = np.array([float(m) for m in mains])
    absdev = np.abs(counts - mains_f)
    within = absdev <= np.array([envelope_bound(m, plan.thresholds) for m in mains_f])
    stats = tuple(
        CheckpointStats(
            N=N,
            main_exact=mains[j],
            mean_count=float(counts[:, j].mean()),
            var_count=float(counts[:, j].var(ddof=1)),
            median_absdev=float(np.median(absdev[:, j])),
            q90_absdev=float(np.quantile(absdev[:, j], 0.9)),
            envelope_fraction=float(within[:, j].mean()),
            unresolved_total=int(unres[:, j].sum()),
        )
        for j, N in enumerate(ckpts)
    )

    fit: ExponentFit | None
    try:
        fit = fit_error_exponent(mains, counts, rng_seed=plan.master_seed)
    except InsufficientCheckpointsError:
        fit = None

    envelope_ok = float(within.mean())
    final_rel = (
        float(np.median(absdev[:, -1])) / float(mains_f[-1]) if mains_f[-1] > 0 else 0.0
    )
    passed = {
        "final_relative_error": final_rel,
        "final_relative_error_ok": final_rel <= plan.thresholds.rel_err,
        "envelope_fraction": envelope_ok,
        "envelope_ok": envelope_ok >= plan.thresholds.envelope_frac,
        "slope_band_high": None if fit is None else fit.band_high,
        "slope_ok": True
        if fit is None or fit.flag == "zero-residual"
        else fit.band_high <= plan.thresholds.slope_band_max,
    }
    passed["all"] = bool(
        passed["final_relative_error_ok"] and passed["envelope_ok"] and passed["slope_ok"]
    )

    return ExperimentReport(
        kind=plan.kind,
        checkpoints=tuple(ckpts),
        stats=stats,
        counts=counts,
        unresolved=unres,
        mains=tuple(mains),
        seeds=tuple(r.seed for r in records),
        fit=fit,
        unresolved_total=int(unres[:, -1].sum()),
        thresholds=plan.thresholds,
        passed=passed,
        hits_matrix=np.stack([r.hits for r in records]) if plan.keep_hits else None,
    )


# ---------------------------------------------------------------------------
# Exponent fit
# ---------------------------------------------------------------------------


#: residuals gathered per bootstrap block of ``fit_error_exponent``, 128 KiB
#: of float64 sorted in place (a block holds at least one resample of S C).
_FIT_BLOCK = 1 << 14


def fit_error_exponent(
    mains: Sequence[Fraction | float],
    counts: np.ndarray,
    rng_seed: int = 0,
    bootstrap: int = 200,
    min_checkpoints: int = 8,
    min_main: float = 10.0,
) -> ExponentFit:
    """Least-squares slope of log(median |count - main|) against log(main).

    The median is taken across sampled points at each checkpoint; the band
    is a bootstrap 95% interval over ``bootstrap`` resamples of the points.
    Checkpoints with main < ``min_main`` are ignored; checkpoints whose
    median residual is zero are dropped (all-zero residuals return the
    "zero-residual" flag).  For S points and C usable checkpoints the
    resamples run b = max(1, ``_FIT_BLOCK`` // (S C)) at a time: one (b, S)
    draw of rows (the stream of b draws of S), one (C, b, S) gather sorted
    along the points, and one least-squares solve with b right-hand sides,
    whose rounding can differ from b solves in the last bits of the band.
    """
    if bootstrap < 1:
        raise ValueError(f"bootstrap must be at least 1, got {bootstrap}")
    mains_f = np.array([float(m) for m in mains])
    counts = np.asarray(counts, dtype=np.float64)
    absdev = np.abs(counts - mains_f[None, :])
    medians = np.median(absdev, axis=0)
    eligible = mains_f >= min_main
    if medians[eligible].size and np.all(medians[eligible] == 0):
        return ExponentFit(0.0, 0.0, 0.0, 0.0, flag="zero-residual")
    usable = eligible & (medians > 0)
    if int(usable.sum()) < min_checkpoints:
        raise InsufficientCheckpointsError(
            f"need {min_checkpoints} checkpoints with main >= {min_main} "
            f"and positive residual, have {int(usable.sum())}"
        )
    log_x = np.log(mains_f[usable])
    slope, intercept = np.polyfit(log_x, np.log(np.maximum(medians[usable], 1e-12)), 1)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(rng_seed, spawn_key=(0xF17,))))
    columns = absdev[:, usable].T
    C, S = columns.shape
    block = max(1, _FIT_BLOCK // (S * C))
    slopes = np.empty(bootstrap)
    for lo in range(0, bootstrap, block):
        rows = rng.integers(0, S, size=(min(block, bootstrap - lo), S))
        ordered = np.take(columns, rows, axis=1)
        ordered.sort(axis=-1)
        med = ordered[..., S // 2] if S % 2 else ordered[..., S // 2 - 1 : S // 2 + 1].mean(-1)
        slopes[lo : lo + len(rows)] = np.polyfit(log_x, np.log(np.maximum(med, 1e-12)), 1)[0]
    return ExponentFit(
        slope=float(slope),
        intercept=float(intercept),
        band_low=float(np.quantile(slopes, 0.025)),
        band_high=float(np.quantile(slopes, 0.975)),
        used_checkpoints=int(usable.sum()),
    )


# ---------------------------------------------------------------------------
# Variance statistic (quantitative Borel-Cantelli hypothesis)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QbcInstance:
    """Centering sequence c_n (= phi_n) for the variance condition.

    c_n is the exact event measure while the cylinder count stays under the
    cap and the 2^d * prod psi_i(n) proxy beyond; ``proxy_from`` marks the
    first proxied index (None when everything is exact).
    """

    kind: str
    c: tuple[Fraction, ...]
    proxy_from: int | None

    def floats(self) -> np.ndarray:
        return np.array([float(v) for v in self.c])


def qbc_instance(
    map_spec: MapSpec,
    rate: RateFunction,
    n_max: int,
    oracle_cap: int = 1 << 20,
) -> QbcInstance:
    c: list[Fraction] = []
    proxy_from = None
    for n in range(1, n_max + 1):
        if map_spec.cylinder_count(n) <= oracle_cap:
            c.append(measure(event_recurrence(map_spec, rate, n, cap=oracle_cap)))
        else:
            if proxy_from is None:
                proxy_from = n
            c.append((1 << map_spec.dimension) * rate.product(n))
    return QbcInstance(kind="recurrence", c=tuple(c), proxy_from=proxy_from)


def variance_statistic(
    hits_matrix: np.ndarray,
    c_values: Sequence[Fraction | float],
    a: int,
    b: int,
) -> dict:
    """Mean over points of (sum_{n=a..b} (f_n - c_n))^2 plus the linear bound.

    ``hits_matrix`` holds per-point indicators f_n for n = 1..n_keep
    (columns), as produced by counting with ``keep_hits``.
    """
    if not 1 <= a <= b <= hits_matrix.shape[1]:
        raise ValueError("need 1 <= a <= b <= retained indicator range")
    c = np.array([float(v) for v in c_values])[a - 1 : b]
    block = hits_matrix[:, a - 1 : b].astype(np.float64)
    sums = (block - c[None, :]).sum(axis=1)
    statistic = float((sums**2).mean())
    phi_total = float(np.sum(c))
    return {
        "statistic": statistic,
        "phi_sum": phi_total,
        "ratio": statistic / phi_total if phi_total > 0 else 0.0,
        "sample_size": hits_matrix.shape[0],
        "per_point_sums": sums,
    }


# ---------------------------------------------------------------------------
# Dichotomy (convergence regime)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DichotomyReport:
    kind: str
    sample_size: int
    n_max: int
    main_sum: Fraction
    final_counts: tuple[int, ...]
    last_hits: tuple[int, ...]
    max_final: int
    bound: int
    passed: bool
    unresolved_total: int

    def to_json_dict(self) -> dict:
        payload = {"schema_version": SCHEMA_VERSION} | asdict(self)
        main_sum = payload.pop("main_sum")
        return payload | _exact_and_float("main_sum", main_sum)


def dichotomy_check(plan: ExperimentPlan) -> DichotomyReport:
    """Convergent main term: every sampled point must stop hitting early.

    Precondition: the full main-term sum up to n_max (the target main term
    for a shrinking-target plan) stays below the configured bound (otherwise
    the rate is not in the convergence regime and the check is meaningless).
    """
    validate_plan(plan)
    total = main_terms(replace(plan, checkpoints=(plan.n_max,)))[-1]
    if total > plan.thresholds.dichotomy_sum_bound:
        raise ConfigError(
            f"main-term sum {float(total):.3f} exceeds the convergence bound "
            f"{float(plan.thresholds.dichotomy_sum_bound):.3f}; "
            "dichotomy_check needs a summable rate"
        )
    counter = _plan_counter(plan, plan.n_max)
    point = _plan_points(plan)

    def worker(i: int) -> tuple[int, int, int]:
        hits, unresolved = counter(point(i))
        nz = np.nonzero(hits)[0]
        last = int(nz[-1]) + 1 if nz.size else 0
        return int(hits.sum()), last, int(unresolved.sum())

    finals, lasts, unresolved = zip(*_run_points(plan, worker))
    bound = plan.thresholds.dichotomy_max_final
    return DichotomyReport(
        kind=plan.kind,
        sample_size=plan.samples,
        n_max=plan.n_max,
        main_sum=total,
        final_counts=finals,
        last_hits=lasts,
        max_final=max(finals),
        bound=bound,
        passed=max(finals) <= bound,
        unresolved_total=sum(unresolved),
    )
