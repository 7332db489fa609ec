"""Command-line interface: YAML configs in, CSV/JSON/SVG artifacts out.

Subcommands: count, target, measure, intersect, mixing, experiment, fit,
dichotomy.  Exact rationals cross this boundary as "p/q" strings; every run
writes a manifest with a stable hash of the canonicalized config (output
paths, thread counts and formats are execution details and excluded from
the hash).  Exit codes: 0 success, 1 error, 2 acceptance-threshold failure
(experiment and dichotomy modes).
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import platform
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from ._rationals import as_fraction, format_fraction
from .counting import TargetSpec, axis_engines, geometric_checkpoints, write_records_csv
from .exact_measure import (
    axis_lanes,
    event_recurrence,
    event_target,
    measure,
    measure_intersection,
    mixing_deficit,
)
from .harness import (
    SCHEMA_VERSION,
    ConfigError,
    ExperimentPlan,
    Thresholds,
    count_points,
    default_threads,
    dichotomy_check,
    fit_error_exponent,
    main_terms,
    run_experiment,
    InsufficientCheckpointsError,
)
from .maps import (
    DEFAULT_CYLINDER_CAP,
    Branch1D,
    MapSpec,
    MapValidationError,
    map_from_name,
)
from .points import DEFAULT_DEPTH_LIMIT, REFINE_EXTRA, _ceil_log_expansion
from .rates import (
    ConstantRate,
    PowerLogRate,
    PowerRate,
    RateFunction,
    RateValidationError,
    TableRate,
)
from .svgchart import Series, write_chart

MODES = ("count", "target", "measure", "intersect", "mixing", "experiment", "fit", "dichotomy")

#: Modes that count sampled orbits (and so need the precision budget).
ORBIT_MODES = ("count", "target", "experiment", "dichotomy")
#: Modes that run the exact cylinder-decomposition oracle.
ORACLE_MODES = ("measure", "intersect", "mixing")


class ConfigValidationError(ValueError):
    """Carries a list of per-key validation problems."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid config:\n" + "\n".join(f"  {p}" for p in self.problems))


@dataclass
class RunConfig:
    canonical: dict
    mode: str
    map: MapSpec
    rate: RateFunction
    n_max: int
    checkpoints: list[int]
    samples: int
    seed: int
    metric: str
    oracle_cap: int
    target: TargetSpec | None
    thresholds: Thresholds
    keep_hits: int
    charts: bool
    measure_kind: str
    measure_ns: list[int]
    intersect_pairs: list[tuple[int, int]]
    mixing_e: list
    mixing_f: list
    mixing_ns: list[int]
    fit_report: str | None

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _rat(doc, key, problems, default=None):
    raw = doc.get(key, default)
    if raw is None:
        return None
    try:
        return as_fraction(raw if isinstance(raw, (int, str)) else str(raw))
    except (ValueError, TypeError):
        problems.append(f"{key}: cannot parse {raw!r} as an exact rational \"p/q\"")
        return None


def _parse_map(doc, problems) -> MapSpec | None:
    raw = doc.get("map")
    if raw is None:
        problems.append("map: missing")
        return None
    try:
        if isinstance(raw, str):
            return map_from_name(raw)
        if isinstance(raw, dict) and "axes" in raw:
            axes = []
            for axis in raw["axes"]:
                branches = [
                    Branch1D(
                        as_fraction(str(b["left"])),
                        as_fraction(str(b["right"])),
                        as_fraction(str(b["slope"])),
                        as_fraction(str(b["offset"])),
                    )
                    for b in axis
                ]
                axes.append(tuple(branches))
            return MapSpec(axes=tuple(axes))
        problems.append("map: expected a built-in name or {axes: [[branch, ...], ...]}")
    except (MapValidationError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"map: {exc}")
    return None


_FAMILIES = {"power", "power-log", "constant", "table"}


def _parse_rate(doc, dimension, problems) -> RateFunction | None:
    raw = doc.get("rate")
    if raw is None:
        problems.append("rate: missing")
        return None
    if isinstance(raw, dict):
        raw = [raw] * (dimension or 1)
    if not isinstance(raw, list) or (dimension and len(raw) != dimension):
        problems.append(f"rate: need one family per axis ({dimension} axes)")
        return None
    axes = []
    for i, fam in enumerate(raw):
        key = f"rate[{i}]"
        try:
            family = fam.get("family")
            if family == "power":
                axes.append(PowerRate(as_fraction(str(fam["c"])), as_fraction(str(fam.get("p", 0)))))
            elif family == "power-log":
                axes.append(
                    PowerLogRate(
                        as_fraction(str(fam["c"])),
                        as_fraction(str(fam.get("p", 0))),
                        as_fraction(str(fam.get("q", 0))),
                    )
                )
            elif family == "constant":
                axes.append(ConstantRate(as_fraction(str(fam["c"]))))
            elif family == "table":
                axes.append(TableRate(tuple(as_fraction(str(v)) for v in fam["values"])))
            else:
                problems.append(f"{key}: family must be one of {sorted(_FAMILIES)}")
                return None
        except (RateValidationError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{key}: {exc}")
            return None
    try:
        return RateFunction(axes=tuple(axes))
    except RateValidationError as exc:
        problems.append(f"rate: {exc}")
        return None


def _canonical_rect(rect) -> list:
    return [[format_fraction(as_fraction(str(lo))), format_fraction(as_fraction(str(hi)))] for lo, hi in rect]


def _parse_rect(raw, dimension, key, problems):
    try:
        rect = [(as_fraction(str(lo)), as_fraction(str(hi))) for lo, hi in raw]
        if len(rect) != dimension:
            problems.append(f"{key}: rectangle must have {dimension} axis intervals")
            return None
        return rect
    except (ValueError, TypeError):
        problems.append(f"{key}: cannot parse rectangle {raw!r}")
        return None


def parse_config(document) -> RunConfig:
    """Validate a config document (YAML text or dict) into a RunConfig.

    Raises ConfigValidationError listing every offending key.
    """
    if isinstance(document, (str, bytes)):
        try:
            doc = yaml.safe_load(document)
        except yaml.YAMLError as exc:
            raise ConfigValidationError([f"(document): YAML parse error: {exc}"])
    else:
        doc = document
    if not isinstance(doc, dict):
        raise ConfigValidationError(["(document): top level must be a mapping"])

    problems: list[str] = []
    mode = doc.get("mode")
    if mode not in MODES:
        problems.append(f"mode: must be one of {MODES}, got {mode!r}")

    map_spec = _parse_map(doc, problems)
    dimension = map_spec.dimension if map_spec else 0
    rate = _parse_rate(doc, dimension, problems)

    n_max = doc.get("n_max", 0)
    if not isinstance(n_max, int) or n_max < 1:
        problems.append(f"n_max: must be a positive integer, got {n_max!r}")
        n_max = 1

    samples = doc.get("samples", 2)
    if not isinstance(samples, int) or samples < 1:
        problems.append(f"samples: must be a positive integer, got {samples!r}")
        samples = 1
    if mode in ("experiment", "dichotomy", "count", "target") and samples < 2:
        problems.append("samples: experiments need samples >= 2")

    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        problems.append(f"seed: must be a non-negative integer, got {seed!r}")
        seed = 0

    metric = doc.get("metric", "interval")
    if metric not in ("interval", "torus"):
        problems.append(f"metric: must be interval or torus, got {metric!r}")
    elif metric == "torus" and mode in ORACLE_MODES:
        problems.append("metric: the exact measure oracle is defined for the interval metric only")

    inequality = doc.get("inequality", "strict")
    if inequality != "strict":
        problems.append(f"inequality: fixed to \"strict\", got {inequality!r}")

    oracle_cap = doc.get("oracle_cap", DEFAULT_CYLINDER_CAP)
    if not isinstance(oracle_cap, int) or oracle_cap < 2:
        problems.append(f"oracle_cap: must be an integer >= 2, got {oracle_cap!r}")
        oracle_cap = DEFAULT_CYLINDER_CAP

    raw_ckpts = doc.get("checkpoints", "geometric")
    if raw_ckpts == "geometric":
        checkpoints = geometric_checkpoints(n_max)
    elif isinstance(raw_ckpts, list) and all(isinstance(c, int) for c in raw_ckpts):
        checkpoints = sorted(set(raw_ckpts))
        if not checkpoints or checkpoints[0] < 1 or checkpoints[-1] > n_max:
            problems.append("checkpoints: must be positive integers <= n_max")
        elif checkpoints[-1] != n_max:
            checkpoints.append(n_max)
    else:
        problems.append(f"checkpoints: must be \"geometric\" or a list of integers")
        checkpoints = [n_max]

    target = None
    if "target" in doc:
        raw_center = doc["target"].get("center") if isinstance(doc["target"], dict) else None
        if raw_center is None:
            problems.append("target.center: missing")
        else:
            try:
                center = tuple(as_fraction(str(c)) for c in raw_center)
                if dimension and len(center) != dimension:
                    problems.append(f"target.center: need {dimension} coordinates")
                else:
                    target = TargetSpec(center=center)
            except (ValueError, TypeError) as exc:
                problems.append(f"target.center: {exc}")
    if mode == "target" and target is None:
        problems.append("target.center: required for target mode")

    exp_doc = doc.get("experiment", {}) or {}
    thr_doc = exp_doc.get("thresholds", {}) or {}
    dich_doc = doc.get("dichotomy", {}) or {}
    try:
        thresholds = Thresholds(
            rel_err=float(thr_doc.get("rel_err", 0.05)),
            envelope_coeff=float(thr_doc.get("envelope_coeff", 4.0)),
            envelope_log_exp=float(thr_doc.get("envelope_log_exp", 1.6)),
            envelope_const=float(thr_doc.get("envelope_const", 50.0)),
            envelope_frac=float(thr_doc.get("envelope_frac", 0.95)),
            slope_band_max=float(thr_doc.get("slope_band_max", 0.75)),
            dichotomy_max_final=int(dich_doc.get("max_final", 20)),
            dichotomy_sum_bound=as_fraction(str(dich_doc.get("sum_bound", 10))),
        )
    except (ValueError, TypeError) as exc:
        problems.append(f"experiment.thresholds: {exc}")
        thresholds = Thresholds()

    exp_kind = exp_doc.get("kind", "target" if mode == "target" else "recurrence")
    if exp_kind not in ("recurrence", "target"):
        problems.append(f"experiment.kind: must be recurrence or target, got {exp_kind!r}")
    if mode in ("experiment", "dichotomy") and exp_kind == "target" and target is None:
        problems.append("target.center: required for target experiments")
    keep_hits = exp_doc.get("keep_hits", 0)
    if not isinstance(keep_hits, int) or keep_hits < 0:
        problems.append("experiment.keep_hits: must be a non-negative integer")
        keep_hits = 0
    charts = bool(exp_doc.get("charts", True))

    meas_doc = doc.get("measure", {}) or {}
    measure_kind = meas_doc.get("kind", "recurrence")
    if measure_kind not in ("recurrence", "target"):
        problems.append("measure.kind: must be recurrence or target")
    measure_ns = meas_doc.get("ns", list(range(1, min(n_max, 10) + 1)))
    if not (isinstance(measure_ns, list) and all(isinstance(n, int) and n >= 1 for n in measure_ns)):
        problems.append("measure.ns: must be a list of positive integers")
        measure_ns = []
    if mode == "measure" and measure_kind == "target" and target is None:
        problems.append("target.center: required for measure.kind = target")

    inter_doc = doc.get("intersect", {}) or {}
    pairs_raw = inter_doc.get("pairs", [])
    intersect_pairs = []
    for pair in pairs_raw:
        if (
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(v, int) and v >= 1 for v in pair)
        ):
            intersect_pairs.append((pair[0], pair[1]))
        else:
            problems.append(f"intersect.pairs: bad pair {pair!r}")
    if mode == "intersect" and not intersect_pairs:
        problems.append("intersect.pairs: required for intersect mode")

    mix_doc = doc.get("mixing", {}) or {}
    mixing_e = mixing_f = None
    mixing_ns = mix_doc.get("ns", [])
    if mode == "mixing":
        if "e" not in mix_doc:
            problems.append("mixing.e: required")
        else:
            mixing_e = _parse_rect(mix_doc["e"], dimension, "mixing.e", problems)
        if "f" not in mix_doc:
            problems.append("mixing.f: required")
        else:
            mixing_f = [
                r
                for i, raw in enumerate(mix_doc["f"])
                if (r := _parse_rect(raw, dimension, f"mixing.f[{i}]", problems)) is not None
            ]
        if not (isinstance(mixing_ns, list) and all(isinstance(n, int) and n >= 1 for n in mixing_ns) and mixing_ns):
            problems.append("mixing.ns: need a list of positive integers")

    fit_report = (doc.get("fit", {}) or {}).get("report")

    # precision budget: orbit modes must fit within the realized-depth limit
    if mode in ORBIT_MODES and map_spec and rate:
        limit = rate.max_index()
        if limit is not None and n_max > limit:
            problems.append(f"rate: table covers n <= {limit} < n_max = {n_max}")
        else:
            psi_min = rate.min_positive_radius(n_max)
            if psi_min is not None:
                window = _ceil_log_expansion(map_spec.expansion, 1 / psi_min)
                needed = n_max + window + REFINE_EXTRA
                if needed > DEFAULT_DEPTH_LIMIT:
                    problems.append(
                        f"n_max: precision budget exceeded "
                        f"({needed} > {DEFAULT_DEPTH_LIMIT} realized symbols)"
                    )

    if problems:
        raise ConfigValidationError(problems)

    canonical = _canonicalize(
        doc, mode, map_spec, rate, n_max, checkpoints, samples, seed, metric,
        oracle_cap, target, thresholds, exp_kind, keep_hits, charts,
        measure_kind, measure_ns, intersect_pairs, mixing_e, mixing_f,
        mixing_ns, fit_report,
    )
    return RunConfig(
        canonical=canonical,
        mode=mode,
        map=map_spec,
        rate=rate,
        n_max=n_max,
        checkpoints=checkpoints,
        samples=samples,
        seed=seed,
        metric=metric,
        oracle_cap=oracle_cap,
        target=target,
        thresholds=thresholds,
        keep_hits=keep_hits,
        charts=charts,
        measure_kind=measure_kind,
        measure_ns=measure_ns,
        intersect_pairs=intersect_pairs,
        mixing_e=mixing_e,
        mixing_f=mixing_f,
        mixing_ns=mixing_ns,
        fit_report=fit_report,
    )


def _canonical_map(doc, map_spec: MapSpec):
    raw = doc.get("map")
    if isinstance(raw, str):
        return raw
    return {
        "axes": [
            [
                {
                    "left": format_fraction(b.left),
                    "right": format_fraction(b.right),
                    "slope": format_fraction(b.slope),
                    "offset": format_fraction(b.offset),
                }
                for b in axis
            ]
            for axis in map_spec.axes
        ]
    }


def _canonical_rate(rate: RateFunction):
    out = []
    for a in rate.axes:
        if isinstance(a, PowerRate):
            out.append({"family": "power", "c": format_fraction(a.c), "p": format_fraction(a.p)})
        elif isinstance(a, PowerLogRate):
            out.append(
                {
                    "family": "power-log",
                    "c": format_fraction(a.c),
                    "p": format_fraction(a.p),
                    "q": format_fraction(a.q),
                }
            )
        elif isinstance(a, ConstantRate):
            out.append({"family": "constant", "c": format_fraction(a.c)})
        else:
            out.append({"family": "table", "values": [format_fraction(v) for v in a.values]})
    return out


def _canonicalize(
    doc, mode, map_spec, rate, n_max, checkpoints, samples, seed, metric,
    oracle_cap, target, thresholds, exp_kind, keep_hits, charts,
    measure_kind, measure_ns, intersect_pairs, mixing_e, mixing_f,
    mixing_ns, fit_report,
) -> dict:
    canonical = {
        "schema_version": SCHEMA_VERSION,
        "mode": mode,
        "map": _canonical_map(doc, map_spec),
        "rate": _canonical_rate(rate),
        "n_max": n_max,
        "checkpoints": checkpoints,
        "samples": samples,
        "seed": seed,
        "metric": metric,
        "oracle_cap": oracle_cap,
    }
    if target is not None:
        canonical["target"] = {"center": [format_fraction(c) for c in target.center]}
    if mode in ("experiment", "count", "target", "dichotomy"):
        canonical["experiment"] = {
            "kind": exp_kind,
            "keep_hits": keep_hits,
            "charts": charts,
            "thresholds": {
                "rel_err": thresholds.rel_err,
                "envelope_coeff": thresholds.envelope_coeff,
                "envelope_log_exp": thresholds.envelope_log_exp,
                "envelope_const": thresholds.envelope_const,
                "envelope_frac": thresholds.envelope_frac,
                "slope_band_max": thresholds.slope_band_max,
            },
        }
    if mode == "dichotomy":
        canonical["dichotomy"] = {
            "max_final": thresholds.dichotomy_max_final,
            "sum_bound": format_fraction(thresholds.dichotomy_sum_bound),
        }
    if mode == "measure":
        canonical["measure"] = {"kind": measure_kind, "ns": measure_ns}
    if mode == "intersect":
        canonical["intersect"] = {"pairs": [list(p) for p in intersect_pairs]}
    if mode == "mixing":
        canonical["mixing"] = {
            "e": _canonical_rect(mixing_e),
            "f": [_canonical_rect(r) for r in mixing_f],
            "ns": mixing_ns,
        }
    if mode == "fit" and fit_report:
        canonical["fit"] = {"report": fit_report}
    return canonical


def emit_config(config: RunConfig) -> str:
    """Canonical YAML form; parse_config(emit_config(c)) round-trips."""
    return yaml.safe_dump(config.canonical, sort_keys=True)


def write_manifest(config: RunConfig, out_dir: Path, summary: dict) -> Path:
    """manifest.json: the canonical config and its hash, the run summary,
    the library, Python and numpy versions and a ``trace`` block, all but
    the config outside the hash: for orbit counts the trace holds the
    counting engine of each axis, for oracle modes the oracle lane of each
    axis, each with the reason it was chosen."""
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "library_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "mode": config.mode,
        "config_hash": config.config_hash(),
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": config.canonical,
        "summary": summary,
    }
    if config.mode in ORBIT_MODES or (config.mode == "fit" and not config.fit_report):
        engines = axis_engines(config.map, config.rate, config.n_max)
        manifest["trace"] = {
            "engines": [
                {"axis": axis, "engine": engine, "reason": reason}
                for axis, (engine, reason) in enumerate(engines)
            ]
        }
    if config.mode in ORACLE_MODES:
        manifest["trace"] = {
            "lanes": [
                {"axis": axis, "lane": lane, "reason": reason}
                for axis, (lane, reason) in enumerate(axis_lanes(config.map))
            ]
        }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def _write_table(out_dir: Path, name: str, header: list[str], rows: list[list], fmt: str) -> Path:
    if fmt == "json":
        path = out_dir / f"{name}.json"
        payload = [dict(zip(header, row)) for row in rows]
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    else:
        import csv

        path = out_dir / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    return path


def _experiment_plan(config: RunConfig, kind: str, threads: int) -> ExperimentPlan:
    return ExperimentPlan(
        map=config.map,
        rate=config.rate,
        kind=kind,
        n_max=config.n_max,
        samples=config.samples,
        master_seed=config.seed,
        target=config.target,
        checkpoints=tuple(config.checkpoints),
        metric=config.metric,
        threads=threads,
        keep_hits=config.keep_hits,
        thresholds=config.thresholds,
    )


def _write_charts(report, out_dir: Path) -> None:
    ns = [float(n) for n in report.checkpoints]
    mains = np.array([float(m) for m in report.mains])
    counts = np.asarray(report.counts, dtype=np.float64)
    dev = counts - mains[None, :]
    med = np.median(dev, axis=0)
    q10 = np.quantile(dev, 0.1, axis=0)
    q90 = np.quantile(dev, 0.9, axis=0)
    write_chart(
        out_dir / "deviation.svg",
        [
            Series("median R - main", ns, med.tolist()),
            Series("q10", ns, q10.tolist(), dashed=True),
            Series("q90", ns, q90.tolist(), dashed=True),
        ],
        title="count deviation from the main term",
        xlabel="N (log)",
        ylabel="R - main",
        logx=True,
    )
    absmed = np.median(np.abs(dev), axis=0)
    ref = np.sqrt(mains) * np.maximum(np.log(np.maximum(mains, 1.0)), 1e-9) ** 1.5
    write_chart(
        out_dir / "envelope.svg",
        [
            Series("median |R - main|", ns, absmed.tolist()),
            Series("sqrt(main) log^1.5(main)", ns, ref.tolist(), dashed=True),
        ],
        title="deviation against the theoretical envelope",
        xlabel="N (log)",
        ylabel="|R - main| (log)",
        logx=True,
        logy=True,
    )


def run(config: RunConfig, out_dir, threads: int = 0, fmt: str = "csv") -> int:
    """Execute the configured mode; returns the process exit code."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    threads = threads or default_threads()
    summary: dict = {}
    code = 0

    if config.mode in ("count", "target"):
        kind = "target" if config.mode == "target" else "recurrence"
        plan = _experiment_plan(config, kind, threads)
        mains = main_terms(plan)
        records = count_points(plan, mains)
        if fmt == "json":
            rows = [row for r in records for row in r.csv_rows()]
            _write_table(out_dir, "counts", ["seed", "N", "R", "Psi_exact", "Psi_float", "unresolved"], rows, fmt)
        else:
            write_records_csv(records, out_dir / "counts.csv")
        final = [r.counts[-1] for r in records]
        summary = {
            "samples": config.samples,
            "final_mean_count": float(np.mean(final)),
            "final_main": float(mains[-1]),
            "unresolved_total": int(sum(r.unresolved[-1] for r in records)),
        }

    elif config.mode == "measure":
        rows = []
        for n in config.measure_ns:
            if config.measure_kind == "recurrence":
                ev = event_recurrence(config.map, config.rate, n, cap=config.oracle_cap)
            else:
                ev = event_target(config.map, config.rate, config.target, n, cap=config.oracle_cap)
            value = measure(ev)
            rows.append([config.measure_kind, n, format_fraction(value), float(value)])
        _write_table(out_dir, "measure", ["kind", "n", "measure_exact", "measure_float"], rows, fmt)
        summary = {"rows": len(rows)}

    elif config.mode == "intersect":
        rows = []
        for m, n in config.intersect_pairs:
            a = event_recurrence(config.map, config.rate, m, cap=config.oracle_cap)
            b = event_recurrence(config.map, config.rate, n, cap=config.oracle_cap)
            value = measure_intersection(a, b)
            rows.append(["intersection", m, n, format_fraction(value), float(value)])
        _write_table(
            out_dir, "intersect", ["kind", "m", "n", "measure_exact", "measure_float"], rows, fmt
        )
        summary = {"rows": len(rows)}

    elif config.mode == "mixing":
        rows = []
        for n in config.mixing_ns:
            value = mixing_deficit(config.map, config.mixing_e, config.mixing_f, n, cap=config.oracle_cap)
            rows.append(["mixing", n, format_fraction(value), float(value)])
        _write_table(out_dir, "mixing", ["kind", "n", "deficit_exact", "deficit_float"], rows, fmt)
        summary = {"rows": len(rows)}

    elif config.mode == "experiment":
        kind = config.canonical["experiment"]["kind"]
        plan = _experiment_plan(config, kind, threads)
        report = run_experiment(plan)
        payload = report.to_json_dict()
        payload["config_hash"] = config.config_hash()
        (out_dir / "report.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
        rows = []
        for i, seed in enumerate(report.seeds):
            for j, N in enumerate(report.checkpoints):
                rows.append(
                    [
                        seed,
                        N,
                        int(report.counts[i, j]),
                        format_fraction(report.mains[j]),
                        repr(float(report.mains[j])),
                        int(report.unresolved[i, j]),
                    ]
                )
        _write_table(out_dir, "counts", ["seed", "N", "R", "Psi_exact", "Psi_float", "unresolved"], rows, fmt)
        if config.charts:
            _write_charts(report, out_dir)
        summary = report.passed
        code = 0 if report.passed["all"] else 2

    elif config.mode == "fit":
        if config.fit_report:
            payload = json.loads(Path(config.fit_report).read_text())
        else:
            kind = config.canonical.get("experiment", {}).get("kind", "recurrence")
            plan = _experiment_plan(config, kind, threads)
            payload = run_experiment(plan).to_json_dict()
        mains = [c["main_float"] for c in payload["checkpoints"]]
        counts = np.array(payload["per_point_counts"], dtype=np.float64)
        try:
            fit = fit_error_exponent(mains, counts, rng_seed=config.seed)
            summary = {
                "slope": fit.slope,
                "intercept": fit.intercept,
                "band_low": fit.band_low,
                "band_high": fit.band_high,
                "flag": fit.flag,
                "used_checkpoints": fit.used_checkpoints,
            }
        except InsufficientCheckpointsError as exc:
            summary = {"error": str(exc)}
            code = 1
        (out_dir / "fit.json").write_text(json.dumps(summary, indent=2, sort_keys=True))

    elif config.mode == "dichotomy":
        kind = config.canonical["experiment"]["kind"]
        plan = _experiment_plan(config, kind, threads)
        report = dichotomy_check(plan)
        (out_dir / "dichotomy.json").write_text(
            json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
        )
        summary = {
            "max_final": report.max_final,
            "bound": report.bound,
            "passed": report.passed,
        }
        code = 0 if report.passed else 2

    write_manifest(config, out_dir, summary)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="orbitcount",
        description="exact counting experiments for expanding piecewise-linear maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"run in {mode} mode")
        p.add_argument("--config", required=True, help="YAML config path")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=0, help="worker threads (0 = auto)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args(argv)

    try:
        doc = yaml.safe_load(Path(args.config).read_text())
        if not isinstance(doc, dict):
            raise ConfigValidationError(["(document): top level must be a mapping"])
        doc.setdefault("mode", args.command)
        if doc["mode"] != args.command:
            raise ConfigValidationError(
                [f"mode: config says {doc['mode']!r} but the subcommand is {args.command!r}"]
            )
        if args.seed is not None:
            doc["seed"] = args.seed
        config = parse_config(doc)
    except ConfigValidationError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1

    out_dir = args.out or doc.get("out") or "orbitcount-out"
    threads = args.threads or int(doc.get("threads", 0) or 0)
    try:
        return run(config, out_dir, threads=threads, fmt=args.format)
    except (ConfigError, ConfigValidationError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
