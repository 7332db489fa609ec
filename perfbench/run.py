"""orbitcount benchmark: one workload, repeated in fresh processes, checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; orbitcount is imported from its ``src/``.
Each rep runs the whole workload once in a new process (``rep.py``), so the
library's one-off set-up (main-term sums, the lazily cached threshold
table, the exact oracle) is paid and timed in every rep.  Reps repeat until
the next one would end after ``--seconds``, with at least ``MIN_REPS``.

``--trace 0`` reports the end-to-end metrics, each the median over reps:

* ``wall_s``        entry call to verified, rendered result, whole input set;
* ``setup_s``       one-off work: time before per-point work starts, plus the
                    first point call's excess over the median point call
                    (see ``Instrument.probe``);
* ``ops_per_s``     sampled points per second of wall time outside set-up;
* ``peak_rss_mb``   ``ru_maxrss`` of the rep's process;
* ``verified_frac`` operations that succeeded over operations attempted (the
                    complement of the failed fraction, which is 0 on a
                    healthy run; ``attempted`` and ``failed`` are printed).

``--trace 1`` alternates traced and untraced reps (traced first) and reports
the per-layer metrics of ``instrument.LAYER_METRICS``, medians over the
traced reps; ``trace.overhead_s`` is the traced minus the untraced median
wall time.  The last line of standard output is the JSON result; lines
before it, starting with ``#``, give the run metadata and every rep.  The
full record, and the spans of every traced rep, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("digit-long", "exact-main-terms", "interval-maps", "mc-vs-oracle")

MIN_REPS = 2
#: Every run, builds included, must end within 180 s; stop starting reps here.
HARD_LIMIT_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("ops_per_s", "points/s"),
    ("peak_rss_mb", "MiB"),
    ("verified_frac", "ratio"),
)


def default_threads() -> int:
    """The harness's own default, min(4, CPUs), fixed so the environment cannot move it."""
    return min(4, len(os.sched_getaffinity(0)))


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("ORBITCOUNT_THREADS", "PYTHONPATH")}
    # numpy's BLAS threads would compete with the harness threads.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_one(args, traced: bool, rep: int, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "rep.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--threads={default_threads()}",
        f"--trace={int(traced)}",
        f"--scale={args.scale}",
    ]
    if traced:
        cmd.append(f"--spans={OUT / f'spans-{args.workload}-seed{args.seed}-rep{rep}.npz'}")
    started = time.perf_counter()
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - started),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"rep {rep} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["process_s"] = time.perf_counter() - started
    return result


def end_to_end(reps: list[dict]) -> dict:
    untraced = [r for r in reps if not r["traced"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "setup_s": statistics.median(r["setup_s"] for r in untraced),
        "ops_per_s": statistics.median(
            r["points"] / (r["wall_s"] - r["setup_s"]) for r in untraced
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "verified_frac": (attempted - failed) / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(reps: list[dict]) -> dict:
    from instrument import LAYER_METRICS

    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    values = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name, _ in LAYER_METRICS
        if name in traced[0]["layers"]
    }
    # Probe numbers come from the untraced reps, free of tracing cost.
    values["counting.first_call_excess_s"] = statistics.median(
        r["first_call_excess_s"] for r in untraced
    )
    values["harness.cpu_per_wall"] = statistics.median(r["cpu_per_wall"] for r in untraced)
    plain = statistics.median(r["wall_s"] for r in untraced)
    values["trace.overhead_s"] = values["trace.wall_s"] - plain
    values["trace.overhead_frac"] = values["trace.overhead_s"] / plain
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}


def correct(reps: list[dict]) -> bool:
    """No output disagreed with a reference, and every rep gave the same outputs."""
    digests = {json.dumps(r["digests"], sort_keys=True) for r in reps}
    return len(digests) == 1 and not any(r["mismatches"] for r in reps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)

    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    reps: list[dict] = []
    while True:
        elapsed = time.perf_counter() - start
        expected = statistics.median(r["process_s"] for r in reps) if reps else 0.0
        if len(reps) >= MIN_REPS and elapsed + expected > args.seconds:
            break
        if reps and elapsed + expected > HARD_LIMIT_S:
            if len(reps) >= MIN_REPS:
                break
            print(f"{len(reps)} reps took {elapsed:.0f} s; cannot finish {MIN_REPS}", file=sys.stderr)
            return 1
        traced = bool(args.trace) and len(reps) % 2 == 0
        try:
            reps.append(run_one(args, traced, len(reps), deadline))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1

    metrics = per_layer(reps) if args.trace else end_to_end(reps)
    result = {
        "correct": correct(reps),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }
    meta = dict(
        reps[0]["meta"],
        workload=args.workload,
        seed=args.seed,
        nproc=len(os.sched_getaffinity(0)),
        threads=default_threads(),
        scale=args.scale,
        trace=args.trace,
    )
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "reps": reps, "result": result}, indent=1)
    )
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for i, r in enumerate(reps):
        kind = "traced" if r["traced"] else "untraced"
        print(
            f"# rep {i} {kind} wall_s={r['wall_s']:.4f} setup_s={r['setup_s']:.4f} "
            f"points={r['points']} peak_rss_mb={r['peak_rss_mb']:.1f} "
            f"threshold_builds={r['threshold_builds']} failed={r['failed']}/{r['attempted']}"
        )
        for why in r["failures"]:
            print(f"#   failure: {why}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
