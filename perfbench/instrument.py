"""Timing probes and span tracing around orbitcount, installed from outside.

Nothing under ``src/`` is changed.  Every wrapper is installed by rebinding
the name wherever an orbitcount module holds the original object in its
globals (``harness`` looks up ``sample_point``, ``psi_partial_sums`` and
friends in its own namespace, so patching only the defining module would
miss the calls made inside the harness thread pool), or on the class for
methods.  ``Instrument.remove`` restores every binding.

Two levels:

* the probe, always on, wraps ``harness._run_points`` only.  It gives the
  start of per-point work, each point call's duration and the process CPU
  time over the points phase: what ``setup_s``, ``ops_per_s`` and
  ``cpu_per_wall`` need, at two clock reads per point;
* the tracer (``trace=True``) also records one span per call of every
  function in ``TRACED``, kept in memory per thread as
  (span id, parent id, name, start, end, thread) and written out at exit.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import resource
import statistics
import sys
import threading
import time
from array import array

import numpy as np

clock = time.perf_counter

#: (span name, module, attribute) of every traced function, rebound in every
#: orbitcount module that holds it.  The two engine functions and the
#: threshold table are private, looked up through ``counting``'s globals;
#: the engines attribute refinement calls to the digit engine.  A name the
#: library no longer has raises ``MissingHook``: its metrics would otherwise
#: read 0 and show a gain, so a refactor of these internals has to update
#: this table in the same change.
TRACED = (
    ("points.sample_point", "points", "sample_point"),
    ("points.axis_distance_outcome", "points", "axis_distance_outcome"),
    ("maps.word_interval", "maps", "word_interval"),
    ("counting.hit_indicators", "counting", "hit_indicators"),
    ("counting.count_recurrence", "counting", "count_recurrence"),
    ("counting.count_shrinking_target", "counting", "count_shrinking_target"),
    ("counting.digit_engine", "counting", "_count_with_digits"),
    ("counting.interval_engine", "counting", "_count_with_intervals"),
    ("counting.thresholds", "counting", "_axis_thresholds"),
    ("rates.psi_partial_sums", "rates", "psi_partial_sums"),
    ("rates.psi_sum", "rates", "psi_sum"),
    ("rates.target_main_term_sums", "rates", "target_main_term_sums"),
    ("exact_measure.measure", "exact_measure", "measure"),
    ("exact_measure.measure_intersection", "exact_measure", "measure_intersection"),
    ("harness.run_experiment", "harness", "run_experiment"),
    ("harness.dichotomy_check", "harness", "dichotomy_check"),
    ("harness.fit_error_exponent", "harness", "fit_error_exponent"),
)

#: (span name, module, class, method) of every traced method.
TRACED_METHODS = (
    ("points.symbols", "points", "GenericPoint", "symbols"),
    ("rates.eval", "rates", "AxisRate", "__call__"),
    ("harness.render", "harness", "ExperimentReport", "to_json_dict"),
    ("harness.render", "harness", "DichotomyReport", "to_json_dict"),
)

#: Entries with fewer points than this add no first-call excess to set-up:
#: the median of so few calls is no reference (see ``Instrument.probe``).
EXCESS_MIN_POINTS = 16

MAIN_TERM_SPANS = ("rates.psi_partial_sums", "rates.psi_sum", "rates.target_main_term_sums")

#: Spans whose subtree is the benchmark's own checking, left out of the
#: per-layer numbers (it calls the reference path of ``points``).
VERIFY_SPAN = "bench.verify"

#: Per-layer metrics of the traced run: (name, unit).
LAYER_METRICS = (
    ("points.sample_point_s", "s"),
    ("points.symbols_s", "s"),
    ("points.symbols_drawn", "count"),
    ("points.distance_calls", "count"),
    ("points.distance_s", "s"),
    ("points.self_s", "s"),
    ("maps.word_interval_calls", "count"),
    ("maps.word_interval_s", "s"),
    ("counting.hit_indicators_self_s", "s"),
    ("counting.thresholds_s", "s"),
    ("counting.threshold_builds", "count"),
    ("counting.first_call_excess_s", "s"),
    ("counting.refine_frac", "ratio"),
    ("counting.unresolved", "count"),
    ("counting.self_s", "s"),
    ("rates.main_terms_s", "s"),
    ("rates.main_terms_bits", "count"),
    ("rates.eval_calls", "count"),
    ("rates.eval_s", "s"),
    ("rates.self_s", "s"),
    ("exact_measure.measure_calls", "count"),
    ("exact_measure.measure_s", "s"),
    ("exact_measure.intersection_calls", "count"),
    ("exact_measure.intersection_s", "s"),
    ("exact_measure.self_s", "s"),
    ("harness.self_s", "s"),
    ("harness.fit_s", "s"),
    ("harness.render_s", "s"),
    ("harness.cpu_per_wall", "ratio"),
    ("bench.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
)


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class _Buffer:
    """One thread's spans and counters; only that thread appends to it."""

    def __init__(self) -> None:
        self.tid = threading.get_ident()
        self.stack: list[int] = []
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}

    def record(self, sid: int, nid: int, t0: float, t1: float) -> None:
        stack = self.stack
        self.sid.append(sid)
        self.parent.append(stack[-1] if stack else -1)
        self.name.append(nid)
        self.t0.append(t0)
        self.t1.append(t1)


class Tracer:
    """In-memory span recorder; spans nest per thread through a stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()

    def buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def current(self) -> int:
        stack = self.buffer().stack
        return stack[-1] if stack else -1

    def add(self, counter: str, value: int) -> None:
        counts = self.buffer().counts
        counts[counter] = counts.get(counter, 0) + value

    def maximize(self, counter: str, value: int) -> None:
        maxima = self.buffer().maxima
        maxima[counter] = max(maxima.get(counter, value), value)

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(result)`` runs on success."""
        nid = self.name_id(name)
        ids = self._ids
        buffer = self.buffer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = buffer()
            stack = buf.stack
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                buf.record(sid, nid, t0, t1)
            if after is not None:
                after(result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        nid = self.name_id(name)
        buf = self.buffer()
        sid = next(self._ids)
        buf.stack.append(sid)
        t0 = clock()
        try:
            yield
        finally:
            t1 = clock()
            buf.stack.pop()
            buf.record(sid, nid, t0, t1)

    def spans(self) -> dict[str, np.ndarray]:
        """All closed spans as parallel arrays ordered by span id."""
        cols: dict[str, list[np.ndarray]] = {
            k: [] for k in ("sid", "parent", "name", "t0", "t1", "tid")
        }
        for buf in self._buffers:
            for key in ("sid", "parent", "name", "t0", "t1"):
                cols[key].append(np.array(getattr(buf, key)))
            cols["tid"].append(np.full(len(buf.sid), buf.tid, dtype=np.int64))
        out = {k: np.concatenate(v) for k, v in cols.items()}
        order = np.argsort(out["sid"], kind="stable")
        return {k: v[order] for k, v in out.items()}

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for buf in self._buffers:
            for key, value in buf.counts.items():
                total[key] = total.get(key, 0) + value
        return total

    def maxima(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for buf in self._buffers:
            for key, value in buf.maxima.items():
                total[key] = max(total.get(key, value), value)
        return total

    def write(self, path) -> None:
        """Write every span, with the name table, as one ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self.spans())


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Children in one thread never overlap; the points of a thread pool do,
    so every parent's child intervals are merged before they are counted.
    """
    sid, t0, t1 = spans["sid"], spans["t0"], spans["t1"]
    parent_pos = np.searchsorted(sid, spans["parent"])
    has_parent = spans["parent"] >= 0
    covered = [0.0] * len(sid)
    order = np.lexsort((t0, np.where(has_parent, parent_pos, -1)))
    starts, ends, parents = t0.tolist(), t1.tolist(), parent_pos.tolist()
    current, lo, hi = -1, 0.0, 0.0
    for i in order[np.count_nonzero(~has_parent):].tolist():
        p = parents[i]
        a, b = max(starts[i], starts[p]), min(ends[i], ends[p])
        if p != current:
            if current >= 0:
                covered[current] += hi - lo
            current, lo, hi = p, a, b
        elif a > hi:
            covered[current] += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if current >= 0:
        covered[current] += hi - lo
    return (t1 - t0) - np.array(covered)


def layer_metrics(tracer: Tracer, probe: dict, point_n: int, unresolved: int) -> dict:
    """Per-layer numbers of one traced rep (see ``LAYER_METRICS``).

    Spans under ``bench.verify`` (the benchmark's reference checks) count
    only toward ``bench.self_s``.
    """
    spans = tracer.spans()
    names = tracer.names
    own = self_times(spans)
    dur = spans["t1"] - spans["t0"]
    name = spans["name"]
    parent_pos = np.searchsorted(spans["sid"], spans["parent"])
    verify = tracer.name_id(VERIFY_SPAN)
    checking = [False] * len(name)
    for i, (nid, p, pos) in enumerate(zip(name.tolist(), spans["parent"].tolist(), parent_pos.tolist())):
        checking[i] = nid == verify or (p >= 0 and checking[pos])
    checking = np.array(checking, dtype=bool)
    kept = ~checking
    module = np.array([n.split(".", 1)[0] for n in names])[name] if len(name) else name

    def of(span_name: str) -> np.ndarray:
        return kept & (name == tracer.name_id(span_name))

    def module_self(mod: str, skip: tuple[str, ...] = ()) -> float:
        mask = kept & (module == mod)
        for s in skip:
            mask &= ~of(s)
        return float(own[mask].sum())

    digit = tracer.name_id("counting.digit_engine")
    refine = of("points.axis_distance_outcome") & (name[parent_pos] == digit)
    root = name == tracer.name_id("bench.rep")
    hit_self = sum(
        float(own[of(s)].sum())
        for s in ("counting.hit_indicators", "counting.digit_engine", "counting.interval_engine")
    )
    maxima, counts = tracer.maxima(), tracer.counts()
    return {
        "points.sample_point_s": float(dur[of("points.sample_point")].sum()),
        "points.symbols_s": float(own[of("points.symbols")].sum()),
        "points.symbols_drawn": counts.get("points.symbols_drawn", 0),
        "points.distance_calls": int(of("points.axis_distance_outcome").sum()),
        "points.distance_s": float(dur[of("points.axis_distance_outcome")].sum()),
        "points.self_s": module_self("points"),
        "maps.word_interval_calls": int(of("maps.word_interval").sum()),
        "maps.word_interval_s": float(dur[of("maps.word_interval")].sum()),
        "counting.hit_indicators_self_s": hit_self,
        "counting.thresholds_s": float(dur[of("counting.thresholds")].sum()),
        "counting.threshold_builds": probe["threshold_builds"],
        "counting.first_call_excess_s": probe["first_call_excess_s"],
        "counting.refine_frac": int(refine.sum()) / point_n if point_n else 0.0,
        "counting.unresolved": unresolved,
        "counting.self_s": module_self("counting"),
        "rates.main_terms_s": sum(float(dur[of(s)].sum()) for s in MAIN_TERM_SPANS),
        "rates.main_terms_bits": maxima.get("rates.main_terms_bits", 0),
        "rates.eval_calls": int(of("rates.eval").sum()),
        "rates.eval_s": float(dur[of("rates.eval")].sum()),
        "rates.self_s": module_self("rates"),
        "exact_measure.measure_calls": int(of("exact_measure.measure").sum()),
        "exact_measure.measure_s": float(dur[of("exact_measure.measure")].sum()),
        "exact_measure.intersection_calls": int(of("exact_measure.measure_intersection").sum()),
        "exact_measure.intersection_s": float(dur[of("exact_measure.measure_intersection")].sum()),
        "exact_measure.self_s": module_self("exact_measure"),
        "harness.self_s": module_self("harness", ("harness.fit_error_exponent", "harness.render")),
        "harness.fit_s": float(dur[of("harness.fit_error_exponent")].sum()),
        "harness.render_s": float(dur[of("harness.render")].sum()),
        "harness.cpu_per_wall": probe["cpu_per_wall"],
        "bench.self_s": float(own[(module == "bench") | checking].sum()),
        "trace.wall_s": float(dur[root].sum()),
        "trace.spans": int(len(name)),
    }


class MissingHook(RuntimeError):
    """The library no longer has a function or table the benchmark measures."""


def _hook(owner, attr: str):
    value = getattr(owner, attr, None)
    if value is None:
        name = getattr(owner, "__name__", owner)
        raise MissingHook(f"{name}.{attr} is gone; update perfbench/instrument.py")
    return value


def _bits(result) -> int:
    values = result if isinstance(result, list) else [result]
    return max((v.denominator.bit_length() for v in values), default=0)


class Instrument:
    """The probe, and the tracer when ``trace`` is set, installed until ``remove``."""

    def __init__(self, trace: bool) -> None:
        from orbitcount import counting, harness

        self.tracer = Tracer() if trace else None
        self.entries: list[dict] = []
        self._entry: dict | None = None
        self._patches: list[tuple[object, str, object]] = []
        # The lazily cached threshold table; its misses count the builds.
        self._threshold_info = _hook(_hook(counting, "_axis_thresholds"), "cache_info")
        self._run_points = harness._run_points
        run_points = self._probe_run_points
        if self.tracer is not None:
            try:
                self._install_tracing()
            except MissingHook:
                self.remove()
                raise
            run_points = self.tracer.wrap("harness._run_points", run_points)
        self._rebind(self._run_points, run_points)

    # -- installing -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "orbitcount" and not mod_name.startswith("orbitcount."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def _install_tracing(self) -> None:
        tracer = self.tracer
        modules = {
            name.rsplit(".", 1)[-1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("orbitcount.")
        }

        def bits(result) -> None:
            tracer.maximize("rates.main_terms_bits", _bits(result))

        for span, mod, attr in TRACED:
            original = _hook(modules[mod], attr)
            after = bits if span in MAIN_TERM_SPANS else None
            self._rebind(original, tracer.wrap(span, original, after))
        for span, mod, cls, meth in TRACED_METHODS:
            klass = _hook(modules[mod], cls)
            if meth not in klass.__dict__:
                raise MissingHook(f"{cls}.{meth} is gone; update perfbench/instrument.py")
            method = klass.__dict__[meth]
            if span == "points.symbols":
                method = self._counting_symbols(method)
            self._set(klass, meth, tracer.wrap(span, method))

    def _counting_symbols(self, symbols):
        tracer = self.tracer

        def counted(point, axis, count):
            before = point.realized_depth
            out = symbols(point, axis, count)
            tracer.add("points.symbols_drawn", point.realized_depth - before)
            return out

        return counted

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- probe ----------------------------------------------------------------

    @contextlib.contextmanager
    def entry(self):
        """Time one call into the library; per-point work inside it is probed."""
        rec = {"start": clock(), "points_start": None, "durations": []}
        self.entries.append(rec)
        self._entry = rec
        try:
            yield
        finally:
            rec["end"] = clock()
            self._entry = None

    def _probe_run_points(self, plan, worker):
        rec = self._entry
        durations = [0.0] * plan.samples
        tracer = self.tracer
        if tracer is not None:
            parent = tracer.current()
            traced = tracer.wrap("harness.point", worker)

            def worker(i, traced=traced):
                buf = tracer.buffer()
                saved, buf.stack = buf.stack, [parent]
                try:
                    return traced(i)
                finally:
                    buf.stack = saved

        def timed(i):
            t0 = clock()
            try:
                return worker(i)
            finally:
                durations[i] = clock() - t0

        cpu0 = cpu_seconds()
        rec["points_start"] = clock()
        try:
            return self._run_points(plan, timed)
        finally:
            rec["points_end"] = clock()
            rec["cpu_s"] = cpu_seconds() - cpu0
            rec["durations"] = durations

    def probe(self) -> dict:
        """Set-up time, points and points-phase CPU over every entry so far.

        The first point call's excess over the median call (the lazy
        threshold build) is counted as set-up in every entry of at least
        ``EXCESS_MIN_POINTS`` points.  Below that the excess is mostly
        point-to-point variation, which on a few slow points (the interval
        maps) would swamp a set-up of a few milliseconds.
        """
        setup = excess = points_wall = cpu = 0.0
        points = 0
        for rec in self.entries:
            if rec["points_start"] is None:
                setup += rec["end"] - rec["start"]
                continue
            d = rec["durations"]
            typical = statistics.median(d)
            excess += max(0.0, d[0] - typical)
            lazy = max(0.0, d[0] - typical) if len(d) >= EXCESS_MIN_POINTS else 0.0
            setup += rec["points_start"] - rec["start"] + lazy
            points += len(d)
            points_wall += rec["points_end"] - rec["points_start"]
            cpu += rec["cpu_s"]
        return {
            "setup_s": setup,
            "points": points,
            "first_call_excess_s": excess,
            "cpu_per_wall": cpu / points_wall if points_wall else 0.0,
            "threshold_builds": self._threshold_info().misses,
        }
