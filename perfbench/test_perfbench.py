"""Tests of the benchmark's own code, at tiny workload sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import rep  # noqa: E402

rep.import_library()

import instrument  # noqa: E402
import workloads  # noqa: E402
from orbitcount import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_workload_emits_every_named_metric(workload, trace):
    proc = bench(
        f"--workload={workload}", "--seed=3", "--seconds=1", f"--trace={trace}", "--scale=tiny"
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert math.isfinite(m["value"])


@pytest.mark.parametrize("threads", [1, 2])
def test_traced_self_times_are_non_negative_and_cover_the_wall(tmp_path, threads):
    spans_file = tmp_path / "spans.npz"
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "rep.py"),
            "--workload=mc-vs-oracle",
            "--seed=5",
            f"--threads={threads}",
            "--trace=1",
            "--scale=tiny",
            f"--spans={spans_file}",
        ],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(proc.stdout.splitlines()[-1])["layers"]
    with np.load(spans_file) as data:
        spans = {k: data[k] for k in data.files if k != "names"}
        names = list(data["names"])
    own = instrument.self_times(spans)
    assert own.min() >= -1e-9
    root = spans["parent"] < 0
    assert [names[i] for i in spans["name"][root]] == ["bench.rep"]
    wall = float((spans["t1"] - spans["t0"])[root].sum())
    assert layers["trace.wall_s"] == pytest.approx(wall)
    modules = sum(
        layers[f"{m}.self_s"]
        for m in ("points", "counting", "rates", "exact_measure", "harness", "bench")
    )
    # Leaf spans: their self time is their whole time.
    modules += layers["harness.fit_s"] + layers["harness.render_s"] + layers["maps.word_interval_s"]
    assert modules == pytest.approx(own.sum(), rel=1e-9)
    if threads == 1:
        assert own.sum() == pytest.approx(wall, rel=1e-9)
    else:  # the points of the pool overlap, so their self times add up past the wall
        assert own.sum() >= wall * (1 - 1e-9)


def test_self_times_merge_overlapping_children():
    spans = {
        "sid": np.array([0, 1, 2, 3]),
        "parent": np.array([-1, 0, 0, 2]),
        "t0": np.array([0.0, 1.0, 2.0, 2.5]),
        "t1": np.array([10.0, 4.0, 5.0, 3.0]),
    }
    assert instrument.self_times(spans).tolist() == pytest.approx([6.0, 3.0, 2.5, 0.5])


def make_run(workload: str, seed: int = 7, scale: str = "tiny") -> workloads.Run:
    probe = instrument.Instrument(trace=False)
    probe.remove()  # these tests look at the checks only
    return workloads.Run(workload, seed, 1, scale, probe)


def corrupt_results(monkeypatch, corrupt) -> None:
    """Make every run_experiment report pass through ``corrupt`` first."""
    run_experiment = harness.run_experiment

    def corrupted(plan):
        report = run_experiment(plan)
        corrupt(report)
        return report

    monkeypatch.setattr(harness, "run_experiment", corrupted)


def test_a_flipped_hit_in_a_count_is_a_failure(monkeypatch):
    def flip(report):
        report.counts[0, :] += 1  # one miss at some n <= 100 turned into a hit

    corrupt_results(monkeypatch, flip)
    run = make_run("digit-long")
    workloads.digit_long(run)
    assert len(run.mismatches) == 1 and run.mismatches[0].startswith("digit-long point 0:")
    assert run.failed >= 1


def test_a_flipped_hit_indicator_is_a_failure(monkeypatch):
    def flip(report):
        report.hits_matrix[3, 2] ^= True

    corrupt_results(monkeypatch, flip)
    run = make_run("mc-vs-oracle")
    workloads.mc_vs_oracle(run)
    assert run.mismatches == [
        f"{label} point 3: hit indicators differ from reference"
        for label in ("doubling", "tent", "luroth-trunc-4")
    ]


def test_the_render_failure_of_huge_exact_sums_is_counted():
    run = make_run("exact-main-terms")

    class Unrenderable:
        def to_json_dict(self):
            return {"main_sum_exact": str(10**5000)}

    run.render("dichotomy", Unrenderable())
    assert (run.attempted, run.failed) == (1, 1)
    assert run.mismatches == []  # a lost report is a failure, not a wrong value


def test_a_digest_that_differs_from_the_recorded_one_is_wrong():
    run = make_run("interval-maps", seed=0, scale="full")
    run.digest_counts([1, 2, 3])
    run.check_recorded()
    assert run.mismatches == [
        "exact values differ from the recorded digest",
        "counts at seed 0 differ from the recorded digest",
    ]


@pytest.mark.parametrize(
    "owner, attr",
    [("counting", "_axis_thresholds"), ("points", "axis_distance_outcome"), ("rates.AxisRate", "__call__")],
)
def test_a_hook_the_library_no_longer_has_fails_instead_of_reading_zero(monkeypatch, owner, attr):
    from orbitcount import counting, points, rates

    target = {"counting": counting, "points": points, "rates.AxisRate": rates.AxisRate}[owner]
    monkeypatch.delattr(target, attr)
    sample_point = points.sample_point
    with pytest.raises(instrument.MissingHook, match=attr):
        instrument.Instrument(trace=True)
    assert points.sample_point is sample_point  # what was installed before is taken out


def test_the_threshold_count_needs_the_cache(monkeypatch):
    from orbitcount import counting

    monkeypatch.setattr(counting, "_axis_thresholds", counting._axis_thresholds.__wrapped__)
    with pytest.raises(instrument.MissingHook, match="cache_info"):
        instrument.Instrument(trace=False)


def test_without_the_library_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload=digit-long", "--seed=1", "--seconds=1", "--trace=0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
