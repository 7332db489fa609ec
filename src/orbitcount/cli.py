"""Command-line interface: YAML configs in, CSV/JSON/SVG artifacts out.

Subcommands: count, target, measure, intersect, mixing, experiment, fit,
dichotomy.  ``KEYS`` states every config key once; a key it does not know
is a problem, and so is each of ``harness.plan_problems`` for a run that
counts orbits.  Exact rationals cross this boundary as "p/q" strings; every
run writes a manifest with a stable hash of the canonicalized config (output
paths, thread counts and formats are execution details and excluded from
the hash).  ``run`` runs the config as given, ``threads`` key included, and
builds the plan of an orbit count once.  It produces each result in one
place: the oracle tables of ``_oracle_table``, the experiment and dichotomy
reports, and one orbit count that ``count`` and ``target`` write and
``fit`` fits.  Exit codes: 0 success, 1 error, 2 acceptance-threshold
failure (experiment and dichotomy modes).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import difflib
import hashlib
import json
import logging
import platform
import sys
import time
from dataclasses import asdict, dataclass, fields, is_dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np
import yaml

from . import __version__
from ._rationals import as_fraction, format_fraction
from .counting import CSV_HEADER, METRICS, TargetSpec, axis_engines, geometric_checkpoints
from .exact_measure import (
    axis_lanes,
    event_recurrence,
    event_target,
    measure,
    measure_intersection,
    mixing_deficit,
    overlap_problem,
)
from .harness import (
    SCHEMA_VERSION,
    SERIAL_N_MAX,
    ConfigError,
    ExperimentPlan,
    Thresholds,
    count_points,
    dichotomy_check,
    fit_error_exponent,
    main_terms,
    point_workers,
    run_experiment,
    InsufficientCheckpointsError,
    plan_problems,
)
from .maps import DEFAULT_CYLINDER_CAP, Branch1D, MapSpec, map_from_name, within_cap
from .rates import ConstantRate, PowerLogRate, PowerRate, RateFunction, TableRate
from .svgchart import Series, write_chart

#: named, not ``__name__``: run as ``python -m orbitcount.cli`` this module is ``__main__``
logger = logging.getLogger("orbitcount.cli")

MODES = ("count", "target", "measure", "intersect", "mixing", "experiment", "fit", "dichotomy")

#: Modes that count sampled orbits; their plans must pass ``harness.plan_problems``.
ORBIT_MODES = ("count", "target", "experiment", "dichotomy")
#: Modes that run the exact cylinder-decomposition oracle.
ORACLE_MODES = ("measure", "intersect", "mixing")

#: ``--log-level`` values: the level of the library's loggers (``orbitcount.*``)
LOG_LEVELS = ("debug", "info", "warning", "error")


class ConfigValidationError(ValueError):
    """Carries a list of per-key validation problems."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid config:\n" + "\n".join(f"  {p}" for p in self.problems))


class _Unparsed(AttributeError):
    """A later row or rule read an unset key without a default: a required
    key of another mode, or one that did not parse (its problem is listed)."""


class RunConfig(SimpleNamespace):
    """A validated config: the parsed value of each ``KEYS`` row as an
    attribute, plus ``canonical``, the dict that is hashed and emitted."""

    def __getattr__(self, name):
        """An unset key, one that did not parse, reads as its ``KEYS`` default
        (``parse_config`` drops a rule's problems that name it); one whose
        default is ``REQUIRED`` or None skips the row or rule that reads it."""
        raw = _ATTRIBUTES[name].default if name in _ATTRIBUTES else None
        raw = raw(self) if callable(raw) else raw
        if raw is REQUIRED or raw is None:
            raise _Unparsed(name)
        return _ATTRIBUTES[name].parse(raw, self)

    @property
    def thresholds(self) -> Thresholds:
        return Thresholds(**{f.name: getattr(self, f.name) for f in fields(Thresholds)})

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


#: ``Key.default`` of a key that has no default.
REQUIRED = object()


def _exact(value, raw=None):
    """The canonical form of a parsed value: rationals as "p/q" strings, lists
    and tuples entry by entry, dataclasses as a mapping of their fields,
    anything else as it is."""
    if is_dataclass(value):
        return {f.name: _exact(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    return format_fraction(value) if isinstance(value, Fraction) else value


@dataclass(frozen=True)
class Key:
    """One row of ``KEYS``: a config key, stated once.

    ``path`` places the key in the document, sections joined by dots; the
    parsed value is the RunConfig attribute ``name``, by default the path
    with dots as underscores.  ``parse(raw, config)`` validates the YAML
    value, reading the keys of earlier rows from ``config``, and raises
    ValueError or TypeError saying what is wrong.  An absent or null key
    takes ``default`` (called with ``config`` when callable) through
    ``parse``.  A ``REQUIRED`` key is missing in ``modes`` and left unset in
    the other modes; a None default makes the key optional.

    The canonical form: in each mode of ``modes`` a value that is not None
    is written at ``path`` of the canonical dict as ``canonical(value, raw)``
    (by default ``_exact``), which ``parse`` reads back to the same value.
    That dict is what ``emit_config`` writes and ``config_hash`` hashes, so a
    key with no modes is an execution detail outside the hash.
    """

    path: str
    parse: Callable[[Any, RunConfig], Any]
    default: Any = REQUIRED
    modes: tuple[str, ...] = MODES
    canonical: Callable[[Any, Any], Any] = _exact
    name: str = ""


def _check(ok: Callable[[Any], bool], what: str):
    """A parser that keeps a raw value for which ``ok`` holds."""

    def parse(raw, config):
        if not ok(raw):
            raise ValueError(f"must be {what}, got {raw!r}")
        return raw

    return parse


# type(v) is int, not isinstance: booleans are not integers
def _int(lo: int | None = None):
    what = "an integer" if lo is None else f"an integer >= {lo}"
    return _check(lambda v: type(v) is int and (lo is None or v >= lo), what)


def _one_of(*options):
    ok = lambda v: any(type(v) is type(o) and v == o for o in options)  # noqa: E731
    return _check(ok, f"one of {', '.join(map(str, options))}")


_bool = _check(lambda v: type(v) is bool, "true or false")
_text = _check(lambda v: type(v) is str and v != "", "a non-empty string")
_mapping = _check(lambda v: type(v) is dict, "a mapping")
_number = _check(lambda v: type(v) is not bool, "a number")
_KINDS = _one_of("recurrence", "target")


def _float(raw, config) -> float:
    return float(_number(raw, config))


def _rational(raw, config=None) -> Fraction:
    """An exact rational from an integer or a "p/q" string; decimals are rejected."""
    try:
        return as_fraction(str(raw))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse {raw!r} as an exact rational \"p/q\"") from None


def _unknown_key(name, known) -> str:
    """The problem of a name that is not in ``known``, with the closest known name."""
    close = difflib.get_close_matches(str(name), known, n=1)
    return f"{name}: unknown key" + (f"; did you mean {close[0]}?" if close else "")


def _known_fields(raw, config, known) -> dict:
    """A mapping whose every field is in ``known``."""
    unknown = [_unknown_key(name, known) for name in _mapping(raw, config) if name not in known]
    if unknown:
        raise ValueError("; ".join(unknown))
    return raw


def _list(item, nonempty: bool = False, length: int | None = None):
    """A parser of a YAML list whose entries ``item`` parses."""

    def parse(raw, config):
        if type(raw) is not list or (nonempty and not raw) or length not in (None, len(raw)):
            what = "non-empty " if nonempty else "" if length is None else f"{length}-entry "
            raise ValueError(f"must be a {what}list, got {raw!r}")
        return [item(v, config) for v in raw]

    return parse


#: The fields of one inline map branch, in ``Branch1D`` order.
BRANCH_FIELDS = tuple(f.name for f in fields(Branch1D))


def _parse_branch(raw, config) -> Branch1D:
    if not set(BRANCH_FIELDS) <= _known_fields(raw, config, BRANCH_FIELDS).keys():
        raise ValueError(f"a branch needs {', '.join(BRANCH_FIELDS)}, got {raw!r}")
    return Branch1D(*(_rational(raw[k]) for k in BRANCH_FIELDS))


def _parse_map(raw, config) -> MapSpec:
    if type(raw) is str:
        return map_from_name(raw)
    axes = _list(_list(_parse_branch, nonempty=True), nonempty=True)
    raw = _known_fields(raw, config, ["axes"]).get("axes")
    return MapSpec(axes=tuple(map(tuple, axes(raw, config))))


#: Rate family -> (axis class, defaults of its optional parameters).  The
#: parameters are the class's fields: rationals, a list of them for a tuple.
RATE_FAMILIES = {
    "power": (PowerRate, {"p": 0}),
    "power-log": (PowerLogRate, {"p": 0, "q": 0}),
    "constant": (ConstantRate, {}),
    "table": (TableRate, {}),
}
_FAMILY = {cls: family for family, (cls, _) in RATE_FAMILIES.items()}


def _parse_axis_rate(raw, config):
    family = _mapping(raw, config).get("family")
    if type(family) is not str or family not in RATE_FAMILIES:
        raise ValueError(f"family must be one of {', '.join(RATE_FAMILIES)}, got {family!r}")
    cls, defaults = RATE_FAMILIES[family]
    _known_fields(raw, config, ["family", *(f.name for f in fields(cls))])
    params = {f: raw.get(f.name, defaults.get(f.name)) for f in fields(cls)}
    missing = [f.name for f, v in params.items() if v is None]
    if missing:
        raise ValueError(f"a {family} rate needs {', '.join(missing)}, got {raw!r}")
    rationals = _list(_rational)
    return cls(**{
        f.name: tuple(rationals(v, config)) if "tuple" in str(f.type) else _rational(v)
        for f, v in params.items()
    })


def _parse_rate(raw, config) -> RateFunction:
    """One family per axis; a single mapping serves every axis."""
    dimension = config.map.dimension
    raw = [raw] * dimension if type(raw) is dict else raw
    return RateFunction(axes=tuple(_list(_parse_axis_rate, length=dimension)(raw, config)))


def _parse_checkpoints(raw, config) -> list[int]:
    if raw == "geometric":
        return geometric_checkpoints(config.n_max)
    checkpoints = set(_list(_int(1), nonempty=True)(raw, config))
    if max(checkpoints) > config.n_max:
        raise ValueError(f"must be \"geometric\" or integers <= n_max, got {raw!r}")
    return sorted(checkpoints | {config.n_max})


def _parse_rect(raw, config) -> list[list[Fraction]]:
    """A coordinate rectangle inside the unit cube: one [lo, hi] per axis."""
    rect = _list(_list(_rational, length=2), length=config.map.dimension)(raw, config)
    if not all(0 <= lo <= hi <= 1 for lo, hi in rect):
        raise ValueError(f"rectangle sides must lie in [0, 1], got {raw!r}")
    return rect


def _threshold_key(f) -> Key:
    """The row of one ``Thresholds`` field: the ``dichotomy_`` fields sit in
    the ``dichotomy`` section, the others in ``experiment.thresholds``."""
    in_dichotomy = f.name.startswith("dichotomy_")
    path = f.name.replace("_", ".", 1) if in_dichotomy else f"experiment.thresholds.{f.name}"
    parse = {float: _float, int: _int(), Fraction: _rational}[type(f.default)]
    modes = ("dichotomy",) if in_dichotomy else ORBIT_MODES
    return Key(path, parse, f.default, modes, name=f.name)


#: Every config key, in parse order: a default or a parser reads only the
#: keys above it.
KEYS = (
    Key("mode", _one_of(*MODES)),
    Key("schema_version", _one_of(SCHEMA_VERSION), SCHEMA_VERSION),
    Key("map", _parse_map, canonical=lambda spec, raw: raw if type(raw) is str else _exact(spec)),
    Key("rate", _parse_rate,
        canonical=lambda rate, raw: [{"family": _FAMILY[type(a)]} | _exact(a) for a in rate.axes]),
    Key("n_max", _int(1)),
    Key("checkpoints", _parse_checkpoints, "geometric"),
    Key("samples", _int(1), 2),
    Key("seed", _int(0), 0),
    Key("metric", _one_of(*METRICS), "interval"),
    Key("oracle_cap", _int(2), DEFAULT_CYLINDER_CAP),
    Key("target.center",
        lambda raw, c: TargetSpec(tuple(_list(_rational, length=c.map.dimension)(raw, c))),
        None, canonical=lambda t, raw: _exact(t.center), name="target"),
    Key("experiment.kind", _KINDS, lambda c: "target" if c.mode == "target" else "recurrence",
        ORBIT_MODES, name="kind"),
    Key("experiment.keep_hits", _int(), 0, ORBIT_MODES, name="keep_hits"),
    Key("experiment.charts", _bool, True, ORBIT_MODES, name="charts"),
    *map(_threshold_key, fields(Thresholds)),
    Key("measure.kind", _KINDS, "recurrence", ("measure",)),
    Key("measure.ns", _list(_int(1)), lambda c: list(range(1, min(c.n_max, 10) + 1)),
        ("measure",)),
    Key("intersect.pairs", _list(_list(_int(1), length=2), nonempty=True), modes=("intersect",)),
    Key("mixing.e", _parse_rect, modes=("mixing",)),
    Key("mixing.f", _list(_parse_rect), modes=("mixing",)),
    Key("mixing.ns", _list(_int(1), nonempty=True), modes=("mixing",)),
    Key("fit.report", _text, None, ("fit",)),
    Key("inequality", _one_of("strict"), "strict", ()),
    Key("out", _text, "orbitcount-out", ()),
    Key("threads", _int(), 0, ()),
)

#: Each row of KEYS by the RunConfig attribute it sets, in KEYS order.
_ATTRIBUTES = {key.name or key.path.replace(".", "_"): key for key in KEYS}

#: Every section of KEYS; each must be a mapping (or null) in a document.
_SECTIONS = sorted({key.path.rpartition(".")[0] for key in KEYS} - {""})


def _counts_orbits(config) -> bool:
    """True when the run counts sampled orbits: the orbit modes, fit without a report."""
    return config.mode in ORBIT_MODES or (config.mode == "fit" and config.fit_report is None)


def _oracle_depth(config) -> str | None:
    """The deepest event of an oracle run must fit the cylinder cap and the rate table."""
    if config.mode not in ORACLE_MODES:
        return None
    path = "intersect.pairs" if config.mode == "intersect" else f"{config.mode}.ns"
    depths = np.ravel(getattr(config, path.replace(".", "_")))
    n, cap, limit = int(max(depths, default=0)), config.oracle_cap, config.rate.max_index()
    if not within_cap(config.map, n, cap):
        return f"{path}: depth {n} has more cylinders than oracle_cap = {cap}"
    if limit is not None and n > limit:
        return f"{path}: rate table covers n <= {limit} < {n}"
    return None


#: The experiment kind that count, target and fit runs count.
_FIXED_KIND = {"count": "recurrence", "target": "target", "fit": "recurrence"}

#: Rules across keys.  Each returns a problem, a list of them or a false
#: value; a rule that reads a key that did not parse is skipped.
RULES = (
    lambda c: c.mode in _FIXED_KIND and c.kind != _FIXED_KIND[c.mode]
    and f"experiment.kind: {c.mode} mode counts {_FIXED_KIND[c.mode]} only, got {c.kind!r}",
    lambda c: _counts_orbits(c) and plan_problems(_experiment_plan(c)),
    lambda c: c.mode == "measure" and c.measure_kind == "target" and c.target is None
    and "target.center: required to count or measure a target",
    lambda c: c.metric == "torus" and c.mode in ORACLE_MODES
    and "metric: the exact measure oracle is defined for the interval metric only",
    _oracle_depth,
    lambda c: c.mode == "mixing" and (problem := overlap_problem(c.mixing_f))
    and f"mixing.f: {problem}; their union would be counted twice",
)


def _load(document) -> dict:
    if isinstance(document, (str, bytes)):
        try:
            document = yaml.safe_load(document)
        except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int past str() limits
            raise ConfigValidationError([f"(document): YAML parse error: {exc}"]) from None
    if not isinstance(document, dict):
        raise ConfigValidationError(["(document): top level must be a mapping"])
    return document


def _lookup(doc: dict, path: str):
    """The raw value at ``path``; None when absent or under a non-mapping section."""
    for part in path.split("."):
        doc = doc.get(part) if type(doc) is dict else None
    return doc


def _section_problems(doc: dict):
    """A problem for each section that is not a mapping (or null), and for each
    name in the document or in a section that KEYS does not know, with the
    closest known name.  Only sections are walked, never the value of a key
    (``map``, ``rate``, ``mixing.e``, ...)."""
    for section in ("", *_SECTIONS):
        node = _lookup(doc, section) if section else doc
        if type(node) not in (dict, type(None)):
            yield f"{section}: must be a mapping, got {node!r}"
        prefix = f"{section}." if section else ""
        known = {k.path[len(prefix):].split(".")[0] for k in KEYS if k.path.startswith(prefix)}
        for name in node if type(node) is dict else ():
            if name not in known:
                yield prefix + _unknown_key(name, known)


def parse_config(document) -> RunConfig:
    """Validate a config document (YAML text or dict) into a RunConfig.

    Raises ConfigValidationError listing every offending key.
    """
    doc = _load(document)
    problems = dict.fromkeys(_section_problems(doc))  # a dict keeps the order, drops repeats
    config, canonical = RunConfig(), {}
    for name, key in _ATTRIBUTES.items():
        raw = _lookup(doc, key.path)
        try:
            if raw is None:
                raw = key.default(config) if callable(key.default) else key.default
            if raw is REQUIRED:
                if key.modes == MODES or config.mode in key.modes:
                    raise ValueError("missing")
                continue
            value = None if raw is None else key.parse(raw, config)
        except _Unparsed:
            continue
        except (ValueError, TypeError) as exc:
            problems[f"{key.path}: {exc}"] = None
            continue
        setattr(config, name, value)
        if getattr(config, "mode", None) in key.modes and value is not None:
            *parents, leaf = key.path.split(".")
            node = canonical
            for section in parents:
                node = node.setdefault(section, {})
            node[leaf] = key.canonical(value, raw)
    failed = {problem.partition(":")[0] for problem in problems}
    for rule in RULES:
        try:
            found = rule(config)
        except _Unparsed:
            continue
        found = [found] if isinstance(found, str) else found or ()
        problems.update(dict.fromkeys(p for p in found if p.partition(":")[0] not in failed))
    if problems:
        raise ConfigValidationError(problems)
    config.canonical = canonical
    return config


def emit_config(config: RunConfig) -> str:
    """Canonical YAML form; parse_config(emit_config(c)) round-trips."""
    return yaml.safe_dump(config.canonical, sort_keys=True)


def _peak_rss_mb() -> float | None:
    """Peak resident set size of this process in MiB; None without ``resource``."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB; bytes on macOS
    return round(peak / (1 << 20 if sys.platform == "darwin" else 1 << 10), 3)


def write_manifest(config: RunConfig, out_dir: Path, summary: dict, wall_s: float,
                   plan: ExperimentPlan | None):
    """manifest.json: the canonical config and its hash, the run summary,
    the library, Python and numpy versions and a ``trace`` block, all but
    the config outside the hash.  The trace holds the run's wall time and
    the process's peak RSS; for the orbit count ``plan`` also the counting
    engine of each axis and its ``point_workers``, for oracle modes the
    oracle lane of each axis, each with its reason."""
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
    manifest["trace"] = {"wall_s": round(wall_s, 6), "peak_rss_mb": _peak_rss_mb()}
    trace = None
    if plan is not None:
        workers, reason = point_workers(plan)
        manifest["trace"]["workers"] = {"count": workers, "reason": reason}
        trace = "engines", "engine", axis_engines(config.map)
    elif config.mode in ORACLE_MODES:
        trace = "lanes", "lane", axis_lanes(config.map)
    if trace:
        block, field, choices = trace
        manifest["trace"][block] = [
            {"axis": axis, field: choice, "reason": reason}
            for axis, (choice, reason) in enumerate(choices)
        ]
    _write_json(out_dir / "manifest.json", manifest)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))


def _write_table(out_dir: Path, name: str, header: list[str], rows: list[list], fmt: str) -> Path:
    if fmt == "json":
        path = out_dir / f"{name}.json"
        _write_json(path, [dict(zip(header, row)) for row in rows])
    else:
        path = out_dir / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    return path


def _write_counts(out_dir: Path, records, fmt: str) -> Path:
    rows = [row for record in records for row in record.csv_rows()]
    return _write_table(out_dir, "counts", CSV_HEADER, rows, fmt)


def _event(config: RunConfig, kind: str, n: int):
    """The exact recurrence or target event of depth ``n``, under the config's cylinder cap."""
    if kind == "recurrence":
        return event_recurrence(config.map, config.rate, n, cap=config.oracle_cap)
    return event_target(config.map, config.rate, config.target, n, cap=config.oracle_cap)


def _oracle_table(config: RunConfig) -> tuple[list[str], list[list]]:
    """The header and rows of an oracle mode's table; each row ends in the
    exact value that the last two columns give as "p/q" and as a float."""
    if config.mode == "measure":
        kind = config.measure_kind
        return ["kind", "n", "measure_exact", "measure_float"], [
            [kind, n, measure(_event(config, kind, n))] for n in config.measure_ns
        ]
    if config.mode == "intersect":
        event = partial(_event, config, "recurrence")
        return ["kind", "m", "n", "measure_exact", "measure_float"], [
            ["intersection", m, n, measure_intersection(event(m), event(n))]
            for m, n in config.intersect_pairs
        ]
    e, f, cap = config.mixing_e, config.mixing_f, config.oracle_cap
    return ["kind", "n", "deficit_exact", "deficit_float"], [
        ["mixing", n, mixing_deficit(config.map, e, f, n, cap=cap)] for n in config.mixing_ns
    ]


def _fit_inputs(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The main terms and per-point counts of the experiment report at ``path``."""
    try:
        payload = json.loads(Path(path).read_text())
        mains = np.array([c["main_float"] for c in payload["checkpoints"]], dtype=object)
        counts = np.array(payload["per_point_counts"], dtype=object)
        for name, values in (("main_float", mains), ("per_point_counts", counts)):
            if not all(type(v) in (int, float) and np.isfinite(v) for v in values.flat):
                raise ValueError(f"{name} are not all finite numbers")
        if counts.ndim != 2 or counts.shape[1] != len(mains):
            raise ValueError("per_point_counts do not match the checkpoints")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"fit.report: cannot read {path!r}: {exc}") from None
    return mains.astype(np.float64), counts.astype(np.float64)


def _experiment_plan(config: RunConfig) -> ExperimentPlan:
    """The plan of an orbit count; its other fields are the config's of the same name."""
    shared = {f.name for f in fields(ExperimentPlan)} - {"master_seed", "checkpoints"}
    return ExperimentPlan(
        **{name: getattr(config, name) for name in shared},
        master_seed=config.seed,
        checkpoints=tuple(config.checkpoints),
    )


def _write_charts(report, out_dir: Path) -> None:
    """deviation.svg, the spread of R - main, and envelope.svg, its median size
    against sqrt(main) log^1.5(main), both over log N."""
    ns = [float(n) for n in report.checkpoints]
    mains = np.array([float(m) for m in report.mains])
    dev = np.asarray(report.counts, dtype=np.float64) - mains[None, :]
    ref = np.sqrt(mains) * np.maximum(np.log(np.maximum(mains, 1.0)), 1e-9) ** 1.5
    write_chart(out_dir / "deviation.svg", [
        Series("median R - main", ns, np.median(dev, axis=0).tolist()),
        Series("q10", ns, np.quantile(dev, 0.1, axis=0).tolist(), dashed=True),
        Series("q90", ns, np.quantile(dev, 0.9, axis=0).tolist(), dashed=True),
    ], "count deviation from the main term", "N (log)", "R - main", logx=True)
    write_chart(out_dir / "envelope.svg", [
        Series("median |R - main|", ns, [s.median_absdev for s in report.stats]),
        Series("sqrt(main) log^1.5(main)", ns, ref.tolist(), dashed=True),
    ], "deviation against the theoretical envelope", "N (log)", "|R - main| (log)",
        logx=True, logy=True)


def run(config: RunConfig, out_dir, fmt: str = "csv") -> int:
    """Execute the configured mode; returns the process exit code."""
    start = time.perf_counter()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    plan = _experiment_plan(config) if _counts_orbits(config) else None
    code = 0
    if config.mode in ORACLE_MODES:
        header, rows = _oracle_table(config)
        rows = [[*row[:-1], format_fraction(row[-1]), float(row[-1])] for row in rows]
        _write_table(out_dir, config.mode, header, rows, fmt)
        summary = {"rows": len(rows)}
    elif config.mode == "experiment":
        report = run_experiment(plan)
        payload = report.to_json_dict() | {"config_hash": config.config_hash()}
        _write_json(out_dir / "report.json", payload)
        _write_counts(out_dir, report.records(), fmt)
        if config.charts:
            _write_charts(report, out_dir)
        summary = report.passed
        code = 0 if report.passed["all"] else 2
    elif config.mode == "dichotomy":
        report = dichotomy_check(plan)
        _write_json(out_dir / "dichotomy.json", report.to_json_dict())
        summary = {key: getattr(report, key) for key in ("max_final", "bound", "passed")}
        code = 0 if report.passed else 2
    elif config.mode == "fit" and config.fit_report:
        mains, counts = _fit_inputs(config.fit_report)
    else:
        mains = main_terms(plan)
        records = count_points(plan, mains)
        counts = np.array([r.counts for r in records])
        if config.mode != "fit":
            _write_counts(out_dir, records, fmt)
            summary = {
                "samples": config.samples,
                "final_mean_count": float(np.mean(counts[:, -1])),
                "final_main": float(mains[-1]),
                "unresolved_total": int(sum(r.unresolved[-1] for r in records)),
            }
    if config.mode == "fit":
        try:
            summary = asdict(fit_error_exponent(mains, counts, rng_seed=config.seed))
        except InsufficientCheckpointsError as exc:
            summary, code = {"error": str(exc)}, 1
        _write_json(out_dir / "fit.json", summary)
    write_manifest(config, out_dir, summary, time.perf_counter() - start, plan)
    logger.info("%s: wrote %s (config %s)", config.mode, out_dir, config.config_hash())
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
        p.add_argument("--threads", type=int, default=0, help="most worker threads (0 = auto)"
                       f"; counting is serial for n_max <= {SERIAL_N_MAX}")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument(
            "--log-level", choices=LOG_LEVELS, default="warning",
            help="level of the library's log messages on standard error",
        )
    args = parser.parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("orbitcount").setLevel(args.log_level.upper())

    try:
        doc = _load(Path(args.config).read_bytes())
        doc.setdefault("mode", args.command)
        if doc["mode"] != args.command:
            raise ConfigValidationError(
                [f"mode: config says {doc['mode']!r} but the subcommand is {args.command!r}"]
            )
        if args.seed is not None:
            doc["seed"] = args.seed
        doc["threads"] = args.threads or doc.get("threads")
        config = parse_config(doc)
        out_dir = args.out or config.out
        return run(config, out_dir, fmt=args.format)
    except (ConfigError, ConfigValidationError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
