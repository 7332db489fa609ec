"""Experiment aggregation, determinism, variance statistic, exponent fit."""

import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from orbitcount import harness
from orbitcount._rationals import derive_point_seed
from orbitcount.counting import TargetSpec, count_recurrence
from orbitcount.harness import (
    ConfigError,
    ExperimentPlan,
    InsufficientCheckpointsError,
    Thresholds,
    _run_points,
    dichotomy_check,
    fit_error_exponent,
    qbc_instance,
    run_experiment,
    variance_statistic,
)
from orbitcount.maps import doubling_map
from orbitcount.points import sample_point
from orbitcount.rates import constant_rate, power_rate, psi_partial_sums

F = Fraction


def small_plan(**kw):
    defaults = dict(
        map=doubling_map(),
        rate=power_rate("1/2", "1/2"),
        kind="recurrence",
        n_max=1000,
        samples=8,
        master_seed=2024,
        checkpoints=(10, 100, 1000),
    )
    defaults.update(kw)
    return ExperimentPlan(**defaults)


def test_experiment_matches_individual_counts():
    plan = small_plan()
    report = run_experiment(plan)
    mains = psi_partial_sums(plan.rate, list(plan.checkpoints))
    for i in range(plan.samples):
        seed = derive_point_seed(plan.master_seed, i)
        rec = count_recurrence(
            plan.map, plan.rate, sample_point(plan.map, seed), list(plan.checkpoints),
            main_terms=mains,
        )
        assert tuple(report.counts[i]) == rec.counts


def test_zero_rate_experiment():
    plan = small_plan(rate=constant_rate(0), samples=4)
    report = run_experiment(plan)
    assert np.all(report.counts == 0)
    assert all(s.var_count == 0 for s in report.stats)


def test_experiment_determinism_byte_identical():
    plan = small_plan(samples=6, threads=2)
    a = json.dumps(run_experiment(plan).to_json_dict(), sort_keys=True)
    b = json.dumps(run_experiment(plan).to_json_dict(), sort_keys=True)
    assert a == b
    # single-threaded run agrees with the threaded one
    c = json.dumps(run_experiment(small_plan(samples=6, threads=1)).to_json_dict(), sort_keys=True)
    assert a == c


def test_invalid_plans():
    with pytest.raises(ConfigError):
        run_experiment(small_plan(samples=1))
    with pytest.raises(ConfigError):
        run_experiment(small_plan(kind="target"))  # no center
    with pytest.raises(ConfigError):
        run_experiment(small_plan(checkpoints=(10, 5, 1000)))
    # a repeated checkpoint fails before any main term is computed
    with mock.patch.object(harness, "main_terms", side_effect=AssertionError):
        with pytest.raises(ConfigError, match="strictly increasing"):
            run_experiment(small_plan(checkpoints=(10, 10, 1000)))
    with pytest.raises(ConfigError):
        run_experiment(small_plan(kind="banana"))


def test_variance_statistic_centered_is_zero():
    # all-hit indicators with c_n = 1: perfectly centered
    hits = np.ones((5, 40), dtype=bool)
    c = [F(1)] * 40
    out = variance_statistic(hits, c, 1, 40)
    assert out["statistic"] == 0.0


def test_variance_statistic_independent_coins():
    rng = np.random.default_rng(7)
    S, n = 4000, 120
    c = rng.uniform(0.05, 0.6, size=n)
    hits = rng.random((S, n)) < c[None, :]
    out = variance_statistic(hits, list(c), 1, n)
    expected = float(np.sum(c * (1 - c)))
    se = float(np.std(out["per_point_sums"] ** 2, ddof=1) / np.sqrt(S))
    assert abs(out["statistic"] - expected) <= 4 * se


def test_variance_linearity_identity():
    plan = small_plan(samples=40, n_max=600, checkpoints=(600,), keep_hits=600)
    report = run_experiment(plan)
    hits = report.hits_matrix
    c = [plan.rate.product(n) * 2 for n in range(1, 601)]
    a, b, cc = 50, 300, 600
    s_ab = variance_statistic(hits, c, a, b)
    s_bc = variance_statistic(hits, c, b + 1, cc)
    s_ac = variance_statistic(hits, c, a, cc)
    cross = float((s_ab["per_point_sums"] * s_bc["per_point_sums"]).mean())
    assert s_ac["statistic"] == pytest.approx(
        s_ab["statistic"] + s_bc["statistic"] + 2 * cross, abs=1e-9
    )


def test_variance_cross_term_small_after_mixing():
    plan = ExperimentPlan(
        map=doubling_map(),
        rate=power_rate("1/2", 1),
        kind="recurrence",
        n_max=600,
        samples=600,
        master_seed=99,
        checkpoints=(600,),
        keep_hits=600,
    )
    report = run_experiment(plan)
    hits = report.hits_matrix
    c = [plan.rate.product(n) * 2 for n in range(1, 601)]
    a, b, cc = 50, 300, 600
    s_ab = variance_statistic(hits, c, a, b)
    s_bc = variance_statistic(hits, c, b + 1, cc)
    s_ac = variance_statistic(hits, c, a, cc)
    cross = abs(float((s_ab["per_point_sums"] * s_bc["per_point_sums"]).mean()))
    assert cross <= 0.10 * s_ac["statistic"]


def test_fit_synthetic_sqrt_power_law():
    mains = [float(10 * 2**k) for k in range(12)]
    counts = np.array([[m + m**0.5 for m in mains]] * 20)
    fit = fit_error_exponent(mains, counts, rng_seed=1)
    assert abs(fit.slope - 0.5) < 1e-6
    assert abs(fit.band_low - 0.5) < 1e-6 and abs(fit.band_high - 0.5) < 1e-6


def test_fit_zero_residual_flag():
    mains = [float(10 * 2**k) for k in range(12)]
    counts = np.array([[m for m in mains]] * 20)
    fit = fit_error_exponent(mains, counts, rng_seed=1)
    assert fit.flag == "zero-residual"


def test_fit_insufficient_checkpoints():
    mains = [100.0, 200.0]
    counts = np.array([[110.0, 190.0]] * 5)
    with pytest.raises(InsufficientCheckpointsError):
        fit_error_exponent(mains, counts)


@pytest.mark.parametrize("bootstrap", [0, -3])
def test_fit_needs_one_resample(bootstrap):
    mains = [float(10 * 2**k) for k in range(12)]
    counts = np.array([[m + (1 + i) * m**0.5 for m in mains] for i in range(5)])
    with pytest.raises(ValueError, match="bootstrap"):
        fit_error_exponent(mains, counts, bootstrap=bootstrap)
    fit = fit_error_exponent(mains, counts, bootstrap=1)
    assert fit.band_low == fit.band_high


def test_parity_recurrence_vs_target_constant_rate():
    # with a constant rate and centers sampled like the points, W and R have
    # the same main term; means must agree within 4 joint standard errors
    S, N = 80, 2000
    rate = constant_rate("1/10")
    m = doubling_map()
    rec = run_experiment(
        ExperimentPlan(
            map=m, rate=rate, kind="recurrence", n_max=N, samples=S,
            master_seed=5, checkpoints=(N,),
        )
    )
    rng = np.random.default_rng(5)
    w_finals = []
    for i in range(S):
        center = (F(int(rng.integers(1, 2**40 - 1)), 2**40),)
        from orbitcount.counting import count_shrinking_target

        point = sample_point(m, derive_point_seed(1005, i))
        w = count_shrinking_target(
            m, rate, TargetSpec(center=center), point, [N], with_main_terms=False
        )
        w_finals.append(w.counts[0])
    w_finals = np.array(w_finals)
    r_finals = rec.counts[:, -1]
    se = np.sqrt(r_finals.var(ddof=1) / S + w_finals.var(ddof=1) / S)
    assert abs(r_finals.mean() - w_finals.mean()) <= 4 * se


def test_qbc_instance_proxy_flag():
    m = doubling_map()
    rate = power_rate("1/2", 1)
    inst = qbc_instance(m, rate, 12, oracle_cap=2**8)
    assert inst.proxy_from == 9  # 2^9 cylinders exceed the cap
    assert inst.c[0] == F(1)  # mu(A_1) with psi(1) = 1/2 is 1
    assert inst.c[11] == 2 * rate.product(12)  # proxied
    # exact and proxy agree closely where both make sense
    exact_8 = inst.c[7]
    assert abs(float(exact_8) - float(2 * rate.product(8))) < 0.01


def test_dichotomy_convergent_case():
    plan = ExperimentPlan(
        map=doubling_map(),
        rate=power_rate("1/2", 2),
        kind="recurrence",
        n_max=3000,
        samples=40,
        master_seed=123,
        checkpoints=(3000,),
    )
    report = dichotomy_check(plan)
    assert report.passed
    assert report.max_final <= 20
    assert max(report.last_hits) <= 3000


def test_dichotomy_rejects_divergent_rate():
    plan = ExperimentPlan(
        map=doubling_map(),
        rate=power_rate("1/2", "1/2"),
        kind="recurrence",
        n_max=10000,
        samples=5,
        master_seed=1,
        checkpoints=(10000,),
    )
    with pytest.raises(ConfigError):
        dichotomy_check(plan)


def test_envelope_and_relative_error_small_run():
    plan = ExperimentPlan(
        map=doubling_map(),
        rate=power_rate("1/2", "1/2"),
        kind="recurrence",
        n_max=20000,
        samples=30,
        master_seed=31337,
        checkpoints=tuple(c for c in [100, 178, 317, 563, 1000, 1779, 3163, 5624, 10000, 20000]),
        thresholds=Thresholds(rel_err=0.2),
    )
    report = run_experiment(plan)
    assert report.passed["final_relative_error_ok"]
    assert report.passed["envelope_ok"]
    assert report.unresolved_total == 0


# ---------------------------------------------------------------------------
# The shared-index pool
# ---------------------------------------------------------------------------

POOL_SIZES = pytest.mark.parametrize("threads", [1, 2, 3, 4])
POOL_SAMPLES = pytest.mark.parametrize("samples", [1, 2, 5, 7])


@contextmanager
def short_switch_interval():
    """Switch threads as often as the interpreter can, so races show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@POOL_SIZES
@POOL_SAMPLES
def test_run_points_runs_every_index_once_in_index_order(threads, samples):
    plan = SimpleNamespace(threads=threads, samples=samples, n_max=harness.SERIAL_N_MAX + 1)
    lock = threading.Lock()
    calls, workers = [], set()

    def worker(i):
        with lock:
            calls.append(i)
            workers.add(threading.get_ident())
        time.sleep(0.002 * ((5 * i) % 3))  # finish out of index order
        return ("record", i)

    with short_switch_interval():
        records = _run_points(plan, worker)
    assert records == [("record", i) for i in range(samples)]
    assert sorted(calls) == list(range(samples))
    assert len(workers) <= min(threads, samples)


@POOL_SIZES
@POOL_SAMPLES
def test_run_points_propagates_a_worker_exception(threads, samples):
    plan = SimpleNamespace(threads=threads, samples=samples, n_max=harness.SERIAL_N_MAX + 1)
    bad = samples // 2

    def worker(i):
        if i == bad:
            raise KeyError(i)
        return i

    with short_switch_interval(), pytest.raises(KeyError):
        _run_points(plan, worker)


def test_run_points_starts_no_index_after_a_worker_raises():
    plan = SimpleNamespace(threads=2, samples=50, n_max=harness.SERIAL_N_MAX + 1)
    started = []

    def worker(i):
        started.append(i)
        if i == 0:
            raise KeyError(i)
        time.sleep(0.01)
        return i

    with pytest.raises(KeyError):
        _run_points(plan, worker)
    assert len(started) < 10


# ---------------------------------------------------------------------------
# Short orbits on the calling thread
# ---------------------------------------------------------------------------

AROUND_SERIAL_BOUND = pytest.mark.parametrize(
    "n_max", [harness.SERIAL_N_MAX, harness.SERIAL_N_MAX + 1]
)


def entry_point_outputs(plan):
    """count_points, run_experiment and dichotomy_check (at n^-2 / 2) of ``plan``."""
    records = harness.count_points(plan, harness.main_terms(plan))
    report = json.dumps(run_experiment(plan).to_json_dict(), sort_keys=True)
    return records, report, dichotomy_check(replace(plan, rate=power_rate("1/2", 2)))


@AROUND_SERIAL_BOUND
def test_entry_points_agree_on_1_and_3_threads_around_the_serial_bound(n_max):
    one, three = (small_plan(n_max=n_max, samples=5, checkpoints=None, threads=t) for t in (1, 3))
    assert entry_point_outputs(one) == entry_point_outputs(three)


@AROUND_SERIAL_BOUND
def test_orbits_up_to_the_serial_bound_start_no_worker_thread(n_max):
    plan = small_plan(n_max=n_max, samples=5, checkpoints=None, threads=3)
    pools, pool = [], harness.ThreadPoolExecutor

    def spy(max_workers):
        pools.append(max_workers)
        return pool(max_workers=max_workers)

    with mock.patch.object(harness, "ThreadPoolExecutor", spy):
        entry_point_outputs(plan)
    short = n_max <= harness.SERIAL_N_MAX
    assert pools == ([] if short else [3, 3, 3])
    assert harness.point_workers(plan) == ((1, "short-orbits") if short else (3, "requested"))
    # the plan's threads bound the workers from above, and so do its samples
    assert harness.point_workers(replace(plan, threads=1))[0] == 1
    assert harness.point_workers(replace(plan, threads=8))[0] == (1 if short else 5)
