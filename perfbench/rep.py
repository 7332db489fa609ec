"""One repetition of one workload, in a fresh process.

    python3 perfbench/rep.py --workload NAME --seed N --threads T --trace 0|1
                             [--scale full|tiny] [--spans FILE]

Imports orbitcount from ``src/`` of the checkout this file sits in, runs the
workload once with the probe (and, with ``--trace 1``, the tracer)
installed, and prints one JSON object with the rep's timings, operation
counts, checks and digests.  ``run.py`` starts one such process per rep, so
every rep pays the library's lazy set-up again.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class MissingLibrary(RuntimeError):
    pass


def import_library():
    """Import orbitcount from this checkout's sources, never from elsewhere."""
    package = SRC / "orbitcount"
    if not (package / "__init__.py").is_file():
        raise MissingLibrary(f"no orbitcount sources at {package}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import orbitcount

    if Path(orbitcount.__file__).resolve().parent != package:
        raise MissingLibrary(f"orbitcount was imported from {orbitcount.__file__}")
    return orbitcount


def run_rep(workload: str, seed: int, threads: int, trace: bool, scale: str, spans=None) -> dict:
    orbitcount = import_library()
    import numpy

    from instrument import Instrument, layer_metrics
    from workloads import WORKLOADS, Run

    instrument = Instrument(trace)
    run = Run(workload, seed, threads, scale, instrument)
    try:
        t0 = time.perf_counter()
        with run.span("bench.rep"):
            WORKLOADS[workload](run)
        wall = time.perf_counter() - t0
    finally:
        instrument.remove()
    run.check_recorded()
    probe = instrument.probe()
    result = {
        "workload": workload,
        "seed": seed,
        "threads": threads,
        "traced": trace,
        "wall_s": wall,
        "setup_s": probe["setup_s"],
        "points": probe["points"],
        "first_call_excess_s": probe["first_call_excess_s"],
        "cpu_per_wall": probe["cpu_per_wall"],
        "threshold_builds": probe["threshold_builds"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "mismatches": run.mismatches,
        "unresolved": run.unresolved,
        "worst_sigma": run.worst_sigma,
        "digests": run.digests(),
        "meta": {
            "orbitcount": orbitcount.__version__,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "gmpy2_importable": importlib.util.find_spec("gmpy2") is not None,
        },
    }
    if trace:
        result["layers"] = layer_metrics(instrument.tracer, probe, run.point_n, run.unresolved)
        if spans is not None:
            instrument.tracer.write(spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    try:
        result = run_rep(args.workload, args.seed, args.threads, bool(args.trace), args.scale, args.spans)
    except MissingLibrary as exc:
        print(exc, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
