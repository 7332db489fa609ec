"""Config parsing, validation messages, round-trips, artifacts, exit codes."""

import contextlib
import copy
import csv
import hashlib
import json
import logging
import platform
import signal
import xml.etree.ElementTree as ET
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from orbitcount import cli
from orbitcount.cli import (
    KEYS,
    MODES,
    ConfigValidationError,
    emit_config,
    main,
    parse_config,
    run,
)
from orbitcount.counting import TargetSpec
from orbitcount.harness import (SERIAL_N_MAX, ConfigError, ExperimentPlan, plan_problems,
                               validate_plan)
from orbitcount.maps import DEFAULT_CYLINDER_CAP, doubling_map
from orbitcount.points import DEFAULT_DEPTH_LIMIT, REFINE_EXTRA
from orbitcount.rates import constant_rate, table_rate


def base_doc(**kw):
    doc = {
        "mode": "experiment",
        "map": "doubling",
        "rate": {"family": "power", "c": "1/2", "p": "1"},
        "n_max": 100,
        "samples": 4,
        "seed": 7,
    }
    doc.update(kw)
    return doc


def test_happy_path_parse():
    cfg = parse_config(base_doc())
    assert cfg.mode == "experiment"
    assert cfg.map.dimension == 1
    assert cfg.checkpoints[-1] == 100
    assert cfg.canonical["rate"][0] == {"family": "power", "c": "1/2", "p": "1"}


def test_invalid_branch_reports_key():
    doc = base_doc(
        map={
            "axes": [
                [
                    {"left": "0", "right": "1/2", "slope": "3/2", "offset": "0"},
                    {"left": "1/2", "right": "1", "slope": "2", "offset": "1"},
                ]
            ]
        }
    )
    with pytest.raises(ConfigValidationError) as err:
        parse_config(doc)
    assert any("map:" in p and "image" in p for p in err.value.problems)


def test_negative_rate_reports_key():
    doc = base_doc(rate={"family": "power", "c": "-1/2", "p": "1"})
    with pytest.raises(ConfigValidationError) as err:
        parse_config(doc)
    assert any("rate" in p and ">= 0" in p for p in err.value.problems)


def test_zero_samples_invalid():
    with pytest.raises(ConfigValidationError) as err:
        parse_config(base_doc(samples=0))
    assert any(p.startswith("samples") for p in err.value.problems)


def test_multiple_problems_collected():
    with pytest.raises(ConfigValidationError) as err:
        parse_config(base_doc(samples=0, metric="euclidean", n_max=-3))
    keys = {p.split(":")[0] for p in err.value.problems}
    assert {"samples", "metric", "n_max"} <= keys


def test_roundtrip_canonical():
    cfg = parse_config(base_doc())
    text = emit_config(cfg)
    cfg2 = parse_config(yaml.safe_load(text))
    assert cfg2.canonical == cfg.canonical
    assert cfg2.config_hash() == cfg.config_hash()


def test_hash_changes_on_meaningful_fields_only():
    cfg = parse_config(base_doc())
    assert parse_config(base_doc(seed=8)).config_hash() != cfg.config_hash()
    assert (
        parse_config(base_doc(rate={"family": "power", "c": "1/3", "p": "1"})).config_hash()
        != cfg.config_hash()
    )
    # out/threads/format are execution details, absent from the canonical form
    assert parse_config(base_doc(out="elsewhere/")).config_hash() == cfg.config_hash()
    assert "out" not in cfg.canonical


def test_measure_mode_artifacts(tmp_path):
    doc = base_doc(
        mode="measure",
        rate={"family": "constant", "c": "1/4"},
        measure={"kind": "recurrence", "ns": [1]},
    )
    cfg = parse_config(doc)
    code = run(cfg, tmp_path, fmt="csv")
    assert code == 0
    rows = list(csv.reader(open(tmp_path / "measure.csv")))
    assert rows[0] == ["kind", "n", "measure_exact", "measure_float"]
    assert rows[1] == ["recurrence", "1", "1/2", "0.5"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config_hash"] == cfg.config_hash()


def test_mixing_mode_artifacts(tmp_path):
    doc = base_doc(
        mode="mixing",
        mixing={"e": [["0", "1/3"]], "f": [[["0", "1/2"]]], "ns": [1]},
    )
    cfg = parse_config(doc)
    assert run(cfg, tmp_path) == 0
    rows = list(csv.reader(open(tmp_path / "mixing.csv")))
    assert rows[1][2] == "1/12"


def test_intersect_mode(tmp_path):
    doc = base_doc(
        mode="intersect",
        rate={"family": "table", "values": ["1/4", "1/8"]},
        n_max=2,
        intersect={"pairs": [[1, 2]]},
    )
    cfg = parse_config(doc)
    assert run(cfg, tmp_path) == 0
    rows = list(csv.reader(open(tmp_path / "intersect.csv")))
    assert rows[1] == ["intersection", "1", "2", "1/12", str(1 / 12)]


def test_experiment_mode_artifacts_and_charts(tmp_path):
    doc = base_doc(
        n_max=2000,
        samples=12,
        # log factors dominate at this tiny scale; keep thresholds loose
        experiment={"kind": "recurrence", "thresholds": {"rel_err": 0.5, "slope_band_max": 3.0}},
        rate={"family": "power", "c": "1/2", "p": "1/2"},
    )
    cfg = parse_config(doc)
    code = run(cfg, tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["schema_version"] == 1
    assert len(report["checkpoints"]) == len(cfg.checkpoints)
    assert (tmp_path / "counts.csv").exists()
    for chart in ("deviation.svg", "envelope.svg"):
        tree = ET.parse(tmp_path / chart)  # well-formed XML
        assert tree.getroot().tag.endswith("svg")


def test_count_mode_csv(tmp_path):
    doc = base_doc(mode="count", n_max=50, samples=3)
    cfg = parse_config(doc)
    assert run(cfg, tmp_path) == 0
    rows = list(csv.reader(open(tmp_path / "counts.csv")))
    assert rows[0][0] == "seed"
    assert len(rows) == 1 + 3 * len(cfg.checkpoints)


def test_target_mode_requires_center():
    with pytest.raises(ConfigValidationError):
        parse_config(base_doc(mode="target"))
    cfg = parse_config(base_doc(mode="target", target={"center": ["1/2"]}))
    assert cfg.target.center == (pytest.approx(0.5),)


def test_dichotomy_mode_exit_codes(tmp_path):
    doc = base_doc(
        mode="dichotomy",
        rate={"family": "power", "c": "1/2", "p": "2"},
        n_max=500,
        samples=6,
    )
    cfg = parse_config(doc)
    assert run(cfg, tmp_path) == 0
    report = json.loads((tmp_path / "dichotomy.json").read_text())
    assert report["passed"] is True
    # an impossible bound forces exit code 2
    doc["dichotomy"] = {"max_final": -1}
    cfg2 = parse_config(doc)
    assert run(cfg2, tmp_path / "fail") == 2


def test_dichotomy_mode_runs_the_configured_kind(tmp_path):
    from fractions import Fraction

    from orbitcount.rates import power_rate, target_main_term_sums

    doc = base_doc(
        mode="dichotomy",
        rate={"family": "power", "c": "1/2", "p": "2"},
        n_max=300,
        samples=4,
        target={"center": ["1/3"]},
        experiment={"kind": "target"},
    )
    assert run(parse_config(doc), tmp_path) == 0
    report = json.loads((tmp_path / "dichotomy.json").read_text())
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert report["kind"] == manifest["config"]["experiment"]["kind"] == "target"
    # the convergence precondition uses the target main term, not psi_sum
    main = target_main_term_sums(power_rate("1/2", 2), [Fraction(1, 3)], [300])[-1]
    assert report["main_sum_exact"] == f"{main.numerator}/{main.denominator}"


def _huge_main_term_config(tmp_path, mode):
    """Psi(20000) of psi = n^-2 / 2 has a denominator of about 17,000
    decimal digits, past the 4300 that ``format_fraction`` writes in decimal."""
    doc = base_doc(mode=mode, rate={"family": "power", "c": "1/2", "p": 2}, n_max=20000, samples=2)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def _hex_fraction(text):
    num, den = (int(part, 16) for part in text.split("/"))
    return Fraction(num, den)


def _huge_main_term():
    """Psi(20000) = 2 sum_{n<=20000} n^-2 / 2 by the per-n ``sum_terms``
    reference, not by the integer-power path the runs take."""
    from orbitcount.rates import sum_terms

    return sum_terms(lambda n: Fraction(1, n * n), 1, 20001)


def test_count_renders_main_terms_past_the_digit_limit(tmp_path):
    config = _huge_main_term_config(tmp_path, "count")
    assert main(["count", "--config", config, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "manifest.json").exists()
    rows = list(csv.reader(open(tmp_path / "out" / "counts.csv")))
    last = rows[-1]
    assert last[1] == "20000"
    assert _hex_fraction(last[3]) == _huge_main_term()


def test_dichotomy_renders_main_terms_past_the_digit_limit(tmp_path):
    config = _huge_main_term_config(tmp_path, "dichotomy")
    assert main(["dichotomy", "--config", config, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "manifest.json").exists()
    report = json.loads((tmp_path / "out" / "dichotomy.json").read_text())
    assert _hex_fraction(report["main_sum_exact"]) == _huge_main_term()


@pytest.mark.parametrize("mode", ["experiment", "dichotomy"])
def test_a_run_reads_each_minimum_radius_once(tmp_path, monkeypatch, mode):
    """The plan rules (``plan_problems``, at parse and again before the run)
    and every axis's window length read the smallest radius of a table
    (``TableRate.min_positive``, a scan of every entry) once per axis."""
    from orbitcount.rates import TableRate

    calls = []
    min_positive = TableRate.min_positive
    monkeypatch.setattr(
        TableRate, "min_positive", lambda self, n: calls.append(self) or min_positive(self, n)
    )
    # tables of their own per mode, so no other run has read them
    c = {"experiment": (3, 7), "dichotomy": (5, 11)}[mode]
    rate = [{"family": "table", "values": [f"{c[axis]}/{(k + 13) ** 3}" for k in range(300)]}
            for axis in (0, 1)]
    doc = {"mode": mode, "map": TWO_D_INLINE, "rate": rate, "n_max": 300, "samples": 2, "seed": 3}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc))
    # exit 2: the experiment's acceptance thresholds fail on two samples
    assert main([mode, "--config", str(path), "--out", str(tmp_path / "out")]) in (0, 2)
    assert len(calls) == 2 and calls[0] != calls[1]


def test_dichotomy_target_requires_center():
    doc = base_doc(mode="dichotomy", experiment={"kind": "target"})
    with pytest.raises(ConfigValidationError) as err:
        parse_config(doc)
    assert any(p.startswith("target.center") for p in err.value.problems)


def test_fit_mode_from_report(tmp_path):
    doc = base_doc(
        n_max=50000,
        samples=10,
        rate={"family": "power", "c": "1/2", "p": "1/2"},
        experiment={"kind": "recurrence"},
    )
    cfg = parse_config(doc)
    run(cfg, tmp_path)
    fit_doc = base_doc(mode="fit", fit={"report": str(tmp_path / "report.json")})
    fit_cfg = parse_config(fit_doc)
    assert run(fit_cfg, tmp_path / "fit") == 0
    fit = json.loads((tmp_path / "fit" / "fit.json").read_text())
    assert "slope" in fit


def test_main_entrypoint(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(
        yaml.safe_dump(
            base_doc(
                mode="measure",
                rate={"family": "constant", "c": "1/4"},
                measure={"kind": "recurrence", "ns": [1, 2]},
            )
        )
    )
    code = main(["measure", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "measure.csv").exists()
    # mismatched subcommand is a validation error
    assert main(["mixing", "--config", str(cfg_path)]) == 1


def test_log_level_sets_the_library_loggers_and_changes_no_output(tmp_path, caplog):
    """``--log-level`` sets the level of the ``orbitcount`` loggers: at info
    a run logs what it wrote, at the default (warning) it does not, and the
    counts, the config and its hash are the same at every level."""
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(base_doc(mode="count", n_max=50)))
    library = logging.getLogger("orbitcount")
    outputs = []
    try:
        for level in ("warning", "info", "debug", "error"):
            caplog.clear()
            out = tmp_path / level
            flag = [] if level == "warning" else ["--log-level", level]
            assert main(["count", "--config", str(path), "--out", str(out), *flag]) == 0
            assert library.level == getattr(logging, level.upper())
            wrote = [r for r in caplog.records if r.name == "orbitcount.cli"]
            assert len(wrote) == (level in ("info", "debug"))
            manifest = json.loads((out / "manifest.json").read_text())
            counts = (out / "counts.csv").read_bytes()
            outputs.append((counts, manifest["config"], manifest["config_hash"]))
        with pytest.raises(SystemExit):
            main(["count", "--config", str(path), "--log-level", "loud"])
    finally:
        library.setLevel(logging.NOTSET)
    assert all(output == outputs[0] for output in outputs)


def test_main_bad_config_returns_1(tmp_path):
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(yaml.safe_dump(base_doc(samples=0)))
    assert main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1


def test_inequality_key_fixed_to_strict():
    cfg = parse_config(base_doc(inequality="strict"))
    assert cfg.mode == "experiment"
    with pytest.raises(ConfigValidationError) as err:
        parse_config(base_doc(inequality="non-strict"))
    assert any(p.startswith("inequality") for p in err.value.problems)


def test_oracle_modes_reject_torus_metric():
    doc = base_doc(
        mode="measure",
        metric="torus",
        rate={"family": "constant", "c": "1/4"},
        measure={"kind": "recurrence", "ns": [1]},
    )
    with pytest.raises(ConfigValidationError) as err:
        parse_config(doc)
    assert any("oracle" in p for p in err.value.problems)


def test_experiment_threshold_failure_exit_2(tmp_path):
    doc = base_doc(
        n_max=500,
        samples=4,
        rate={"family": "power", "c": "1/2", "p": "1/2"},
        experiment={"kind": "recurrence", "thresholds": {"rel_err": 0.0}},
    )
    cfg = parse_config(doc)
    assert run(cfg, tmp_path) == 2


def test_threads_env_default(monkeypatch):
    from orbitcount.harness import default_threads

    monkeypatch.setenv("ORBITCOUNT_THREADS", "3")
    assert default_threads() == 3
    monkeypatch.delenv("ORBITCOUNT_THREADS")
    assert default_threads() >= 1


def test_default_threads_counts_the_cpus_the_process_may_run_on(monkeypatch):
    from orbitcount.harness import default_threads

    monkeypatch.delenv("ORBITCOUNT_THREADS", raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    assert default_threads() == 1
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(6)))
    assert default_threads() == 4


def test_threads_env_not_integer_exits_1(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    doc = base_doc(mode="dichotomy", rate={"family": "power", "c": "1/2", "p": "2"})
    cfg_path.write_text(yaml.safe_dump(doc))
    monkeypatch.setenv("ORBITCOUNT_THREADS", "two")
    code = main(["dichotomy", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "ORBITCOUNT_THREADS" in err


def test_json_format(tmp_path):
    doc = base_doc(
        mode="measure",
        rate={"family": "constant", "c": "1/4"},
        measure={"kind": "recurrence", "ns": [1]},
    )
    cfg = parse_config(doc)
    run(cfg, tmp_path, fmt="json")
    payload = json.loads((tmp_path / "measure.json").read_text())
    assert payload[0]["measure_exact"] == "1/2"


def test_count_csv_identical_across_thread_counts(tmp_path):
    for mode, extra in (("count", {}), ("target", {"target": {"center": ["1/3"]}})):
        outputs = []
        for threads in (1, 2):
            doc = base_doc(mode=mode, map="tent", n_max=400, samples=5, threads=threads, **extra)
            out = tmp_path / f"{mode}-{threads}"
            assert run(parse_config(doc), out) == 0
            outputs.append((out / "counts.csv").read_bytes())
        assert outputs[0] == outputs[1]


def artifact_doc(mode, **kw):
    doc = {"mode": mode, "map": "doubling", "rate": {"family": "power", "c": "1/2", "p": "1/2"},
           "n_max": 20000, "samples": 6, "seed": 7}
    return doc | kw


TENT_AXIS = [
    {"left": "0", "right": "1/2", "slope": "2", "offset": "0"},
    {"left": "1/2", "right": "1", "slope": "-2", "offset": "-2"},
]
#: slopes 3/2 and -3
NON_INTEGER_AXIS = [
    {"left": "0", "right": "2/3", "slope": "3/2", "offset": "0"},
    {"left": "2/3", "right": "1", "slope": "-3", "offset": "-3"},
]
DOUBLING_AXIS = [
    {"left": "0", "right": "1/2", "slope": "2", "offset": "0"},
    {"left": "1/2", "right": "1", "slope": "2", "offset": "1"},
]
POWER_HALF = {"family": "power", "c": "1/2", "p": "1/2"}
LOOSE = {"thresholds": {"rel_err": 0.5, "slope_band_max": 3.0}}
CONVERGENT = {"family": "power", "c": "1/2", "p": "2"}

#: SHA-256 of the artifacts these configs wrote before the reports were
#: rendered from their dataclasses and the charts set up each axis through
#: one routine: (document, --format, {file: digest}).  The two counts on the
#: inline non-integer axis were recorded when the per-n interval engine
#: counted it, before affine windows did.
RECORDED_ARTIFACTS = (
    (artifact_doc("count", map="tent", n_max=3000), "csv",
     {"counts.csv": "6c90be7ac04532eca23bbab33b26d08b2dd5aa4e703bfda88c998c05a9ef1918"}),
    (artifact_doc("count", map="tent", n_max=3000), "json",
     {"counts.json": "17cd09002deb4836518a253e253771c1e5ce032f20b37336cff980eccaa11ff2"}),
    (artifact_doc("target", map="luroth-trunc-4", n_max=3000, target={"center": ["1/3"]}), "csv",
     {"counts.csv": "670f4ec509d0ac8de88d3e795fdbaa34b4abf232c9b92887be355adea8a9a7a5"}),
    (artifact_doc("target", n_max=3000, target={"center": ["1/3"]}), "json",
     {"counts.json": "b6fef106ce57ee4d530f4129cc403630a7f554bd45742845cd3ec5f469a86b24"}),
    (artifact_doc("experiment", experiment=LOOSE), "csv", {
        "counts.csv": "e979219847f1a14fc56bf7f4246390eb17fd626b079b0038f68d784708520bac",
        "deviation.svg": "cdfedd51ed1663df1a980f65160dfee1eb45de962c684c8bb6bd5cc73a7043b0",
        "envelope.svg": "a08e70ec56cd51a5c98927728b893bcaa0c9ba3cf4ec94163a91bb73f0b1e850",
    }),
    (artifact_doc("experiment", map="tent", target={"center": ["1/3"]},
                  experiment=LOOSE | {"kind": "target"}), "csv", {
        "counts.csv": "dc4945d41c64709fac040763365e9e08874d97a8936ed203535e787d7a088e67",
        "deviation.svg": "9fca4f66bfb0a30ec473d86df9bad2582097fd95bf819a19f006692918cb2679",
        "envelope.svg": "75a50fb5a10d16aa1a463716611043668432efa77af186168f0112e47a9cbe65",
    }),
    (artifact_doc("dichotomy", rate=CONVERGENT, n_max=3000), "csv",
     {"dichotomy.json": "cb6f7496c9e3448ebd289312ba53191923fb3d86469a10b93d182a91c214cf6c"}),
    (artifact_doc("dichotomy", rate=CONVERGENT, n_max=3000, target={"center": ["1/3"]},
                  experiment={"kind": "target"}), "csv",
     {"dichotomy.json": "082a25fba6ab64b0c96d29d5c11f2dae5c1378e5c30435e35f74668bcbe35d84"}),
    (artifact_doc("count", map={"axes": [NON_INTEGER_AXIS]}, rate=[POWER_HALF], n_max=2000,
                  samples=4), "csv",
     {"counts.csv": "6c8babb5d0447601ff6179ac2c895e011806567590dd5981759d8e46c9b98f55"}),
    (artifact_doc("count", map={"axes": [NON_INTEGER_AXIS, DOUBLING_AXIS]},
                  rate=[POWER_HALF, POWER_HALF], n_max=2000, samples=4), "csv",
     {"counts.csv": "37922b956971555c6e5319de199eef869ce4a4dc77a75f67b403df12c217ecfe"}),
)


@pytest.mark.parametrize("doc, fmt, digests", RECORDED_ARTIFACTS)
def test_artifacts_match_their_recorded_digests(tmp_path, doc, fmt, digests):
    assert run(parse_config(doc), tmp_path, fmt=fmt) == 0
    written = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in digests}
    assert written == digests


def test_fit_without_a_report_matches_the_experiment_report(tmp_path):
    assert run(parse_config(artifact_doc("experiment", experiment=LOOSE)), tmp_path / "e") == 0
    assert run(parse_config(artifact_doc("fit")), tmp_path / "f") == 0
    report = json.loads((tmp_path / "e" / "report.json").read_text())
    fit = json.loads((tmp_path / "f" / "fit.json").read_text())
    assert report["exponent_fit"] is not None and fit == report["exponent_fit"]


#: Config hashes of these documents before the manifest gained its trace block.
RECORDED_HASHES = (
    (
        {"mode": "count", "map": "tent", "n_max": 300, "samples": 3, "seed": 5,
         "rate": {"family": "power", "c": "1/2", "p": "1/2"}},
        "f050e512c3d6bb8ad7b10f4bf2d3d7945de39c2b623e9976e356595b46f4c296",
        [("digit", "uniform-signed-base")],
    ),
    (
        {"mode": "target", "map": "luroth-trunc-4", "n_max": 300, "samples": 3, "seed": 5,
         "rate": {"family": "power", "c": "1/2", "p": "1/2"}, "target": {"center": ["1/2"]}},
        "8c1f680b9be522cae47156481aaeeac38075236d51f9ef2a632d0c3051720f37",
        [("affine", "mixed-slopes")],
    ),
    (
        base_doc(),
        "96417df07e13bc86eeb8235e3ca1dd91b41b3591261229e386d266d8bab37689",
        [("digit", "uniform-base")],
    ),
)


def test_manifest_records_engines_outside_the_hash(tmp_path):
    for i, (doc, digest, engines) in enumerate(RECORDED_HASHES):
        cfg = parse_config(doc)
        assert cfg.config_hash() == digest
        run(cfg, tmp_path / str(i))
        manifest = json.loads((tmp_path / str(i) / "manifest.json").read_text())
        assert manifest["config_hash"] == digest
        assert [(e["engine"], e["reason"]) for e in manifest["trace"]["engines"]] == engines
    # integer slopes 4, 2, 4 with a half-integer offset: affine windows
    doc = base_doc(
        mode="count",
        n_max=40,
        rate=[{"family": "constant", "c": "1/9"}, {"family": "power", "c": "1/2", "p": "1/2"}],
        map={
            "axes": [
                [
                    {"left": "0", "right": "1/4", "slope": "4", "offset": "0"},
                    {"left": "1/4", "right": "3/4", "slope": "2", "offset": "1/2"},
                    {"left": "3/4", "right": "1", "slope": "4", "offset": "3"},
                ],
                [
                    {"left": "0", "right": "1/2", "slope": "2", "offset": "0"},
                    {"left": "1/2", "right": "1", "slope": "2", "offset": "1"},
                ],
            ]
        },
    )
    run(parse_config(doc), tmp_path / "mixed")
    manifest = json.loads((tmp_path / "mixed" / "manifest.json").read_text())
    assert manifest["trace"]["engines"] == [
        {"axis": 0, "engine": "affine", "reason": "mixed-slopes"},
        {"axis": 1, "engine": "digit", "reason": "uniform-base"},
    ]
    # modes without orbit counts have no engines to report
    run(parse_config(base_doc(mode="measure", measure={"ns": [1]})), tmp_path / "m")
    assert "engines" not in json.loads((tmp_path / "m" / "manifest.json").read_text())["trace"]


def test_manifest_records_wall_time_and_peak_rss_outside_the_hash(tmp_path):
    runs = [(doc, digest) for doc, digest, _ in RECORDED_HASHES]
    runs += [(doc, digest) for doc, digest, _, _ in RECORDED_ORACLE_RUNS[:1]]
    for i, (doc, digest) in enumerate(runs):
        cfg = parse_config(doc)
        assert cfg.config_hash() == digest
        run(cfg, tmp_path / str(i))
        manifest = json.loads((tmp_path / str(i) / "manifest.json").read_text())
        assert manifest["config_hash"] == digest
        trace = manifest["trace"]
        assert trace["wall_s"] > 0 and trace["peak_rss_mb"] > 1
    assert [json.loads((tmp_path / str(i) / "manifest.json").read_text())["mode"]
            for i in range(len(runs))] == ["count", "target", "experiment", "measure"]


def test_manifest_records_the_workers_outside_the_hash(tmp_path):
    long_orbits = base_doc(mode="count", n_max=SERIAL_N_MAX + 1, samples=3)
    cases = (
        (base_doc(), 3, {"count": 1, "reason": "short-orbits"}),
        (long_orbits, 2, {"count": 2, "reason": "requested"}),
        (long_orbits, 8, {"count": 3, "reason": "requested"}),  # no more than the samples
    )
    hashes = []
    for i, (doc, threads, workers) in enumerate(cases):
        run(parse_config(doc | {"threads": threads}), tmp_path / str(i))
        manifest = json.loads((tmp_path / str(i) / "manifest.json").read_text())
        assert manifest["trace"]["workers"] == workers
        hashes.append(manifest["config_hash"])
    # base_doc()'s recorded hash, and one hash for both thread counts
    assert hashes[0] == RECORDED_HASHES[-1][1] and hashes[1] == hashes[2]
    run(parse_config(base_doc(mode="measure", measure={"ns": [1]})), tmp_path / "m")
    assert "workers" not in json.loads((tmp_path / "m" / "manifest.json").read_text())["trace"]


def test_manifest_records_versions_outside_the_hash(tmp_path):
    for i, (doc, digest, _) in enumerate(RECORDED_HASHES):
        run(parse_config(doc), tmp_path / str(i))
        manifest = json.loads((tmp_path / str(i) / "manifest.json").read_text())
        assert manifest["config_hash"] == digest
        assert manifest["python_version"] == platform.python_version()
        assert manifest["numpy_version"] == np.__version__


INTEGER = ("integer", "integer-slopes")

#: Oracle configs with the config hash and the SHA-256 of the table each one
#: wrote before the oracle had a leaf-table lane for intersections and mixed
#: slopes: the new lane must give byte-identical tables.
RECORDED_ORACLE_RUNS = (
    (
        {"mode": "measure", "map": "luroth-trunc-4", "n_max": 6, "samples": 1, "seed": 1,
         "rate": {"family": "power", "c": "1/2", "p": "1"},
         "measure": {"kind": "recurrence", "ns": [1, 2, 3, 4, 5, 6]}},
        "ac51c173614337c7c415fca325709a0c53c2a6c25f5661ba092b36cca25e3beb",
        ("measure.csv", "7bc6f8850840e466ebf89ff255781a0106f839eed182328666a557579f712711"),
        [INTEGER],
    ),
    (
        {"mode": "measure", "map": "tent", "n_max": 9, "samples": 1, "seed": 1,
         "rate": {"family": "power", "c": "1/2", "p": "1/2"},
         "measure": {"kind": "target", "ns": [3, 9]}, "target": {"center": ["1/3"]}},
        "157e5a40f5d557ab283b43cdda5a121575e3052e0d8643fec684c524d58905ff",
        ("measure.csv", "f3215024f5100761ca83a3604c4c0129046cc8c8c5afc278452e67e9f3b7c5bc"),
        [INTEGER],
    ),
    (
        {"mode": "intersect", "map": "doubling", "n_max": 12, "samples": 1, "seed": 1,
         "rate": {"family": "power", "c": "1/2", "p": "1"},
         "intersect": {"pairs": [[1, 12], [5, 9], [7, 7]]}},
        "e294e418cd2c661342dfa92facfe8780a3dfd8871e7f861c0c616f554ec7c4f7",
        ("intersect.csv", "c2bf800469a0ec302d9834de90cf55ea79704bf9a767c8cdbf9c999127ea3501"),
        [INTEGER],
    ),
    (
        {"mode": "mixing", "map": {"axes": [NON_INTEGER_AXIS, TENT_AXIS]}, "n_max": 5,
         "samples": 1, "seed": 1,
         "rate": [{"family": "constant", "c": "1/4"}, {"family": "constant", "c": "1/4"}],
         "mixing": {"e": [["0", "1/3"], ["1/5", "1"]],
                    "f": [[["0", "1/2"], ["0", "1/7"]], [["1/2", "1"], ["2/7", "5/7"]]],
                    "ns": [1, 4]}},
        "83c8024e863cb9ffa6d6f932787ac916f80ca5c85d9ac7b9fb56c7b0f8fb25af",
        ("mixing.csv", "87f55a20932edbe756b18100796a7487d311ef93ef58e3bdc41affbd723c2b2d"),
        [("fraction", "non-integer-slopes"), INTEGER],
    ),
)


def test_oracle_manifest_records_lanes_outside_the_hash(tmp_path):
    for i, (doc, digest, (table, table_digest), lanes) in enumerate(RECORDED_ORACLE_RUNS):
        cfg = parse_config(doc)
        assert cfg.config_hash() == digest
        assert run(cfg, tmp_path / str(i)) == 0
        manifest = json.loads((tmp_path / str(i) / "manifest.json").read_text())
        assert manifest["config_hash"] == digest
        assert [(e["lane"], e["reason"]) for e in manifest["trace"]["lanes"]] == lanes
        written = (tmp_path / str(i) / table).read_bytes()
        assert hashlib.sha256(written).hexdigest() == table_digest


TWO_D_INLINE = {"axes": [
    [{"left": "0", "right": "1/2", "slope": "2", "offset": "0"},
     {"left": "1/2", "right": "1", "slope": "2", "offset": "1"}],
    TENT_AXIS,
]}

#: Config hash and SHA-256 of the ``emit_config`` text of documents covering
#: what the tables above lack, recorded before the config keys were stated
#: in one table.
RECORDED_CANONICAL = (
    (
        base_doc(target={"center": ["1/3"]}, experiment={"kind": "target"}),
        "75bae4e6526603ff31fe0f41bcc036ce3b3b26a60c3f61d6dd9aa4bb1dd67a8c",
        "0019215ca02a606ce59c2a09986b997f0e3f0614ce4098704b93780379f027c0",
    ),
    (
        base_doc(experiment={"thresholds": {
            "rel_err": 0.25, "envelope_coeff": 3, "envelope_log_exp": 1.5,
            "envelope_const": 40.0, "envelope_frac": 0.9, "slope_band_max": 2}}),
        "9343ca1b1bc488f962b6752c1d0f2e8264693907b64defa8086720a736c723c9",
        "8f5864664aba61ce6eedc198556ccd60f694f669c25ec6b02f8dccaa853854a2",
    ),
    (
        base_doc(experiment={"keep_hits": 10, "charts": False}),
        "5fa5304c89dc956d8f168f260ded5426d09c58ccff796db7a28879a1f698ac68",
        "66b60995bcb31eae441360d14ad225f31a3e1db22ebcd95032be4dd9368bdd50",
    ),
    (
        base_doc(mode="dichotomy", rate={"family": "power", "c": "1/2", "p": "2"},
                 dichotomy={"max_final": 5, "sum_bound": "7/2"}),
        "684df199bafd4d2ba57234361d3480d992800614990487fb23737ad888d483af",
        "0d7a6b35792f9321d2b5506ab1d117124b1db077fe9d14933c8be73af204304b",
    ),
    (
        base_doc(mode="dichotomy", rate={"family": "power", "c": "1/2", "p": "2"}),
        "bc5aa6bcbe401db2853a90e761ca22e545c8bdab28cfdfc5c9c485c4ed49bfee",
        "40714c9c330b2507affc5726ef890393995d786fbffb41e5af46493df084b211",
    ),
    (
        base_doc(mode="fit", fit={"report": "out/report.json"}),
        "762125edb1b84fe00b0650a4072f47daf613449cf52281ad284da4939e12b6ea",
        "2f31b1cc34e661cc63be84b40d126d2c7e880c3dabc4d8c0442d2d157e45dfe9",
    ),
    (
        base_doc(mode="fit"),
        "5a324d242da5860189b049a73bf44a50333f59d4fa44cef12b77b8944747e8ab",
        "d3b8ef1d0d771f7eb8709621a02290b761d39cb6524d97d8b0cb5ec0331eca34",
    ),
    (
        base_doc(mode="measure", rate={"family": "constant", "c": "1/4"}),
        "931c42a01ddc4d496e1d70cd84b9d9671495b7d050e54bb82f21b2647785a34c",
        "82dc1fd49a828ed686ba3f48b9130cf8b4d42ff76aceb2a4c3ce42b5b51319bc",
    ),
    (
        base_doc(mode="measure", n_max=6, rate={"family": "constant", "c": "1/4"},
                 measure={"kind": "recurrence"}),
        "ee17b19df1e095236327718c60988e736e5961d925cac7270f6916ba2b3a5505",
        "2716cf832383a6d6682e42b1777c1812c33f0bad9ef069db6a1f0c42c0e2e6cf",
    ),
    (
        {"mode": "count", "map": TWO_D_INLINE, "metric": "torus", "n_max": 20, "samples": 2,
         "seed": 11, "checkpoints": [3, 10, 20],
         "rate": [{"family": "power-log", "c": "1/2", "p": "1/2", "q": "1"},
                  {"family": "table", "values": [f"1/{k + 3}" for k in range(20)]}]},
        "a37ef7faab47d844d71d2b2ee86f776f3fa1c33e541f6e474a478a1567b451b5",
        "797044812a783c8b4819b3ca835f53174cb59826c0ce9093392b49043ecc1bbe",
    ),
    (
        # execution keys stay outside the hash: the same hash as base_doc()
        base_doc(out="elsewhere/", threads=2, inequality="strict"),
        "96417df07e13bc86eeb8235e3ca1dd91b41b3591261229e386d266d8bab37689",
        "8b71f5205128c093cc5f33287f7aee13993a68b97f9ee3afb5d5b53db0ea72fd",
    ),
)


def test_recorded_hashes_and_emitted_text():
    for doc, digest, text_digest in RECORDED_CANONICAL:
        cfg = parse_config(doc)
        assert cfg.config_hash() == digest
        assert hashlib.sha256(emit_config(cfg).encode()).hexdigest() == text_digest


def _run_main(tmp_path, doc, capsys, *extra):
    """Exit code and stderr of ``orbitcount <mode>`` on ``doc`` written as YAML."""
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc))
    code = main([doc["mode"], "--config", str(path), "--out", str(tmp_path / "out"), *extra])
    return code, capsys.readouterr().err


def increasing_axis(*lengths) -> list[dict]:
    """An inline axis of increasing branches with lengths in proportion to ``lengths``."""
    axis, left = [], Fraction(0)
    for length in lengths:
        right = left + Fraction(length) / sum(lengths)
        slope = 1 / (right - left)
        axis.append({"left": str(left), "right": str(right), "slope": str(slope),
                     "offset": str(slope * left)})
        left = right
    return axis


#: Configs that the validator let through, or that escaped it, to end in a
#: traceback: each must exit 1 with a message naming the key.
TRACEBACK_CASES = (
    (base_doc(experiment=5), "experiment"),
    (base_doc(mode="measure", measure=3), "measure"),
    (base_doc(rate=["power"]), "rate"),
    (base_doc(mode="intersect", intersect={"pairs": 5}), "intersect.pairs"),
    (base_doc(mode="mixing", mixing={"e": [["0", "1/3"]], "f": 5, "ns": [1]}), "mixing.f"),
    (base_doc(mode="mixing", mixing={"e": [["0", "2"]], "f": [], "ns": [1]}), "mixing.e"),
    (base_doc(threads="abc"), "threads"),
    (base_doc(mode="measure", measure={"ns": [30]}), "measure.ns"),
    (base_doc(mode="intersect", n_max=3, rate={"family": "table", "values": ["1/4", "1/8"]},
              intersect={"pairs": [[1, 3]]}), "intersect.pairs"),
    (base_doc(mode="measure", n_max=2, rate={"family": "table", "values": ["1/4", "1/8"]},
              measure={"ns": [1, 5]}), "measure.ns"),
    (base_doc(mode="fit", fit={"report": "no/such/report.json"}), "fit.report"),
    (base_doc(rate={"family": "power", "c": "1/0", "p": 1}), "rate"),
    # the default measure.ns reaches depth 10, where toral-diag(2,3) has 6^10 > 2^24 cylinders
    (base_doc(mode="measure", map="toral-diag(2,3)", n_max=10), "measure.ns"),
    # F = [0, 1/2] twice: the deficit would count the overlap twice (1/6, not 1/12)
    (base_doc(mode="mixing", mixing={"e": [["0", "1/3"]], "f": [[["0", "1/2"]], [["0", "1/2"]]],
                                     "ns": [1]}), "mixing.f"),
    (base_doc(mode="mixing", mixing={"e": [["0", "1/3"]], "f": [[["0", "1/2"]], [["1/4", "3/4"]]],
                                     "ns": [1]}), "mixing.f"),
    # the second branch starts within 2^-64 of 1: its symbol cut would be 2^64
    (base_doc(map={"axes": [increasing_axis(Fraction(1), Fraction(1, 2**70))]}), "map"),
)


def test_a_slope_within_float_resolution_of_1_exceeds_the_budget_at_once():
    # slope 1 + 2^-66: about 2^66 steps of lam to reach 1 / psi, so the
    # exact search would not return; the float estimate decides
    doc = base_doc(map={"axes": [increasing_axis(Fraction(1, 2**66), Fraction(1))]})

    def give_up(signum, frame):
        raise TimeoutError("parse_config did not return within 5 s")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(5)
    try:
        with pytest.raises(ConfigValidationError) as err:
            parse_config(doc)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert [p.split(" (")[0] for p in err.value.problems] == ["n_max: precision budget exceeded"]


def _within_1_s(call):
    """call(), failing if it does not return within 1 s."""

    def give_up(signum, frame):
        raise TimeoutError("did not return within 1 s")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(1)
    try:
        return call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("first, second, rate, problems", (
    # about 727,000 steps of lam = 1 + 2^-20 reach 1 / psi = 2: an exact
    # search multiplied Fractions for minutes; the float bound decides
    (Fraction(1), Fraction(2**20), {"family": "constant", "c": "1/2"}, []),
    # slope 1 + 2^-1100: its log underflows a float to 0 (ZeroDivisionError
    # once); the bound, over 2^62 steps, is given as 2^62
    (Fraction(1, 2**1100), Fraction(1), {"family": "power", "c": "1/2", "p": "1"},
     [f"n_max: precision budget exceeded (at least {100 + 2**62 + REFINE_EXTRA} > 2000000"
      " realized symbols)"]),
))
def test_the_budget_of_a_slope_near_1_is_decided_within_1_s(first, second, rate, problems):
    doc = base_doc(map={"axes": [increasing_axis(first, second)]}, rate=rate)
    try:
        _within_1_s(lambda: parse_config(doc))
        found = []
    except ConfigValidationError as err:
        found = err.problems
    assert found == problems


def _exact_depth(lam: Fraction, value: Fraction) -> int:
    """The smallest k with lam^k >= value, by the exact loop the budget once took."""
    k, power = 0, Fraction(1)
    while power < value:
        power *= lam
        k += 1
    return k


@pytest.mark.parametrize("lengths, c", (
    ((1, 1), Fraction(1, 2**3000)),  # lam^k = 1 / psi exactly
    ((1, 1), Fraction(1, 2**3000 + 1)),
    ((2, 3), Fraction(3**1500, 5**1500)),
    ((2, 3), Fraction(1, 10**300)),
    ((1, 1024), Fraction(1, 2)),
    ((1, 1024), Fraction(1, 100)),
    # 1 / psi = 2^100 (1 + m), m about 2^-100: ln(1 / psi) is 100 ln(2) + m, not m
    ((1, 1), Fraction(2**100 - 1, 2**200 + 1)),
    # weakest slope (2^101 + 1) / (2^100 - 3) = 2 (1 + m), m about 3.5 2^-101:
    # ln(lam) is ln(2) + m, not m, so the budget is not put near 2^62 steps
    ((7, 2**100 - 3, 2**100 - 3), Fraction(1, 10**30)),
))
def test_the_budget_decides_as_the_exact_loop_at_its_edge(lengths, c):
    axis = increasing_axis(*lengths)
    doc = base_doc(map={"axes": [axis]}, rate={"family": "constant", "c": str(c)}, samples=2)
    lam = parse_config(doc).map.expansion
    edge = DEFAULT_DEPTH_LIMIT - _exact_depth(lam, 1 / c) - REFINE_EXTRA
    assert parse_config({**doc, "n_max": edge}).n_max == edge
    with pytest.raises(ConfigValidationError) as err:
        parse_config({**doc, "n_max": edge + 1})
    budget = f"n_max: precision budget exceeded ({DEFAULT_DEPTH_LIMIT + 1} > {DEFAULT_DEPTH_LIMIT}"
    assert [p.replace("at least ", "") for p in err.value.problems] == [budget + " realized symbols)"]


@pytest.mark.parametrize("mode", ("count", "experiment"))
def test_negative_threads_flag_exits_1(tmp_path, capsys, mode):
    code, err = _run_main(tmp_path, base_doc(mode=mode), capsys, "--threads", "-1")
    assert code == 1
    assert err.splitlines() == ["invalid config:", "  threads: must be an integer >= 0, got -1"]


@pytest.mark.parametrize("unparsed", (
    {"seed": -1},
    {"experiment": {"thresholds": {"rel_err": True}}},
))
def test_a_seed_or_threshold_that_does_not_parse_hides_no_plan_problem(unparsed):
    # the plan's rules read neither, so they still report its problems
    with pytest.raises(ConfigValidationError) as err:
        parse_config(base_doc(samples=1, n_max=2_000_000, checkpoints=[2_000_000], **unparsed))
    assert [p.split(":")[0] for p in err.value.problems] == [
        *(["seed"] if "seed" in unparsed else ["experiment.thresholds.rel_err"]),
        "samples", "n_max",
    ]


def test_count_past_the_budget_exits_1_before_its_main_terms(tmp_path, capsys):
    doc = base_doc(mode="count", rate={"family": "power", "c": "1/2", "p": "1/2"},
                   n_max=2_000_000, samples=2)
    with mock.patch.object(cli, "main_terms", side_effect=AssertionError):
        code, err = _run_main(tmp_path, doc, capsys)
    assert code == 1
    assert err.splitlines() == [
        "invalid config:", "  n_max: precision budget exceeded (2000268 > 2000000 realized symbols)"
    ]


@st.composite
def orbit_plans(draw):
    """An orbit-mode document and the ``ExperimentPlan`` of the same fields:
    table rates shorter and longer than n_max, or n_max one step either side
    of the precision budget (doubling, psi = 2^-j, so 1 / psi takes j steps)."""
    if draw(st.booleans()):
        n_max = draw(st.integers(1, 40))
        values = ["1/4"] * max(1, n_max + draw(st.integers(-1, 1)))
        rate, rate_doc = table_rate(values), {"family": "table", "values": values}
    else:
        j = draw(st.integers(1, 40))
        n_max = DEFAULT_DEPTH_LIMIT - REFINE_EXTRA - j + draw(st.integers(0, 1))
        rate, rate_doc = constant_rate(Fraction(1, 2**j)), {"family": "constant", "c": f"1/{2**j}"}
    fields = {
        "samples": draw(st.integers(1, 3)),
        "kind": draw(st.sampled_from(["recurrence", "target"])),
        "metric": draw(st.sampled_from(["interval", "torus", "banana"])),
        "keep_hits": draw(st.sampled_from([-1, 0, 3])),
        "threads": draw(st.sampled_from([-1, 0, 2])),
    }
    center = draw(st.sampled_from([None, ["1/3"]]))
    doc = {"mode": "experiment", "map": "doubling", "rate": rate_doc, "n_max": n_max,
           "samples": fields["samples"], "metric": fields["metric"], "threads": fields["threads"],
           "experiment": {"kind": fields["kind"], "keep_hits": fields["keep_hits"]}}
    if center:
        doc["target"] = {"center": center}
    plan = ExperimentPlan(map=doubling_map(), rate=rate, n_max=n_max, master_seed=0,
                          target=center and TargetSpec(tuple(center)), **fields)
    return doc, plan


@settings(max_examples=100, deadline=None)
@given(orbit_plans())
def test_validate_plan_rejects_what_parse_config_rejects(doc_and_plan):
    doc, plan = doc_and_plan
    try:
        parse_config(doc)
        problems = []
    except ConfigValidationError as err:
        problems = err.problems
    library = plan_problems(plan)
    with pytest.raises(ConfigError) if library else contextlib.nullcontext():
        validate_plan(plan)
    assert bool(problems) == bool(library)
    # a metric that the key table rejects reads as its default, "interval", in
    # the plan rule, so its problem leads the plan's others; otherwise every
    # problem is the same
    metric = "metric: must be one of interval, torus, got 'banana'"
    interval = [metric, *plan_problems(replace(plan, metric="interval"))]
    assert problems == (interval if plan.metric == "banana" else library)
    assert metric in library or plan.metric != "banana"


def test_an_oracle_depth_far_past_the_cap_is_one_problem():
    with pytest.raises(ConfigValidationError) as err:
        parse_config(base_doc(mode="measure", measure={"ns": [20000]}))
    assert err.value.problems == [
        f"measure.ns: depth 20000 has more cylinders than oracle_cap = {DEFAULT_CYLINDER_CAP}"]


def test_a_key_that_does_not_parse_reads_as_its_default_in_the_rules():
    # samples reads as 2, so the plan rule still reports the budget
    doc = base_doc(samples=0, n_max=2_000_000, checkpoints=[2_000_000])
    with pytest.raises(ConfigValidationError) as err:
        parse_config(doc)
    assert [p.split(" (")[0] for p in err.value.problems] == [
        "samples: must be an integer >= 1, got 0", "n_max: precision budget exceeded"]
    # measure.ns reads as its default, depth 10, past the cap of toral-diag(2,3);
    # that problem would name the key that did not parse, so it is dropped
    doc = base_doc(mode="measure", map="toral-diag(2,3)", n_max=10, measure={"ns": "bad"})
    with pytest.raises(ConfigValidationError) as err:
        parse_config(doc)
    assert err.value.problems == ["measure.ns: must be a list, got 'bad'"]


def test_run_counts_on_the_threads_of_the_config(tmp_path, monkeypatch):
    # the default would be 3 workers; the config's threads key caps them at 1
    monkeypatch.setenv("ORBITCOUNT_THREADS", "3")
    doc = base_doc(mode="count", n_max=SERIAL_N_MAX + 1, samples=3, threads=1)
    assert run(parse_config(doc), tmp_path) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["trace"]["workers"] == {"count": 1, "reason": "requested"}


@pytest.mark.parametrize("doc, key", TRACEBACK_CASES)
def test_bad_config_exits_1_naming_the_key(tmp_path, capsys, doc, key):
    code, err = _run_main(tmp_path, doc, capsys)
    assert code == 1
    assert f"{key}:" in err and "Traceback" not in err


#: Configs with a key that the schema does not know, and the problem each one reports.
UNKNOWN_KEYS = (
    (base_doc(sample=200), "sample: unknown key; did you mean samples?"),
    (base_doc(experiment={"thresholds": {"rel_errr": 0.1}}),
     "experiment.thresholds.rel_errr: unknown key; did you mean rel_err?"),
    (base_doc(target={"centre": ["1/3"]}), "target.centre: unknown key; did you mean center?"),
    (base_doc(zzz=1), "zzz: unknown key"),
    (base_doc(rate={"family": "power", "c": "1/2", "pp": 2}), "rate: pp: unknown key; did you mean p?"),
    (base_doc(map={"axes": [[{"left": "0", "right": "1", "slope": "1", "ofset": "0"}]]}),
     "map: ofset: unknown key; did you mean offset?"),
)


@pytest.mark.parametrize("doc, problem", UNKNOWN_KEYS)
def test_unknown_keys_exit_1_with_the_closest_key(tmp_path, capsys, doc, problem):
    code, err = _run_main(tmp_path, doc, capsys)
    assert code == 1
    assert err.splitlines()[1:] == [f"  {problem}"]


def test_values_of_keys_are_not_walked_for_unknown_keys():
    # a mapping that is the value of a key is not a section: an inline map's
    # branches and a rate family's parameters are checked by the key's own
    # parser, so the problem is the key's, not a section path's
    doc = base_doc(rate={"family": "power", "c": "1/2", "p": "1", "note": "x"})
    with pytest.raises(ConfigValidationError) as err:
        parse_config(doc)
    assert list(err.value.problems) == ["rate: note: unknown key"]
    doc = base_doc(map={"axes": [[{"left": "0", "right": "1/2", "slope": "2", "offset": "0", "x": 1},
                                  {"left": "1/2", "right": "1", "slope": "2", "offset": "1"}]]})
    with pytest.raises(ConfigValidationError) as err:
        parse_config(doc)
    assert list(err.value.problems) == ["map: x: unknown key"]


#: Built-in map names past the bound on branches and toral factors, and the count each names.
TOO_MANY_BRANCHES = (("base-65536", 65536), ("luroth-trunc-16385", 16385),
                     ("toral-diag(2, 16385)", 16385))


@pytest.mark.parametrize("name, count", TOO_MANY_BRANCHES)
def test_built_in_maps_are_bounded(tmp_path, capsys, name, count):
    code, err = _run_main(tmp_path, base_doc(map=name), capsys)
    assert code == 1
    assert err.splitlines()[1:] == [f"  map: {count} branches, over the 16384 limit"]


def test_unreadable_report_exits_1(tmp_path, capsys):
    (tmp_path / "report.json").write_text('{"checkpoints": [{"main_float": 1.0}]}')
    doc = base_doc(mode="fit", fit={"report": str(tmp_path / "report.json")})
    code, err = _run_main(tmp_path, doc, capsys)
    assert code == 1 and "fit.report:" in err


def _fit_report(first_main=10.0, first_count=None) -> dict:
    """A report of 10 checkpoints and 6 points whose fit succeeds, with the
    first main term, and the first count if given, replaced."""
    mains = [10.0 * 2**k for k in range(10)]
    counts = [[round(m + (1 + i / 10) * m**0.5) for m in mains] for i in range(6)]
    if first_count is not None:
        counts[0][0] = first_count
    checkpoints = [{"main_float": m} for m in [first_main, *mains[1:]]]
    return {"checkpoints": checkpoints, "per_point_counts": counts}


#: Report values that reached the fit and ended in a traceback (ValueError,
#: TypeError, LinAlgError), or that a float64 array would read as numbers
#: (a numeric string, a boolean), and non-finite counts: each is a
#: fit.report problem.
BAD_REPORTS = (
    _fit_report("abc"), _fit_report(None), _fit_report(float("inf")), _fit_report("10.0"),
    _fit_report(True), _fit_report(first_count=float("nan")),
    _fit_report(first_count=float("-inf")), _fit_report(first_count=False),
    _fit_report(first_count=[3]),
)


@pytest.mark.parametrize("report", BAD_REPORTS)
def test_report_values_that_are_not_finite_numbers_exit_1(tmp_path, capsys, report):
    (tmp_path / "report.json").write_text(json.dumps(_fit_report()))
    doc = base_doc(mode="fit", fit={"report": str(tmp_path / "report.json")})
    assert _run_main(tmp_path, doc, capsys)[0] == 0
    (tmp_path / "report.json").write_text(json.dumps(report))
    code, err = _run_main(tmp_path, doc, capsys)
    assert code == 1 and "fit.report:" in err and "not all finite numbers" in err


def test_unwritable_output_exits_1(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    doc = base_doc(mode="measure", measure={"ns": [1]})
    code, err = _run_main(tmp_path, doc, capsys, "--out", str(tmp_path / "file" / "out"))
    assert code == 1 and "file" in err


#: Configs whose recorded experiment kind differs from the kind the mode counts.
KIND_CONFLICTS = (
    base_doc(mode="count", target={"center": ["1/3"]}, experiment={"kind": "target"}),
    base_doc(mode="target", target={"center": ["1/3"]}, experiment={"kind": "recurrence"}),
    base_doc(mode="fit", target={"center": ["1/3"]}, experiment={"kind": "target"}),
    base_doc(mode="fit", fit={"report": "r.json"}, experiment={"kind": "target"}),
)


@pytest.mark.parametrize("doc", KIND_CONFLICTS)
def test_kind_conflicts_are_problems(doc):
    with pytest.raises(ConfigValidationError) as err:
        parse_config(doc)
    assert [p.split(":")[0] for p in err.value.problems] == ["experiment.kind"]


def test_stated_kinds_that_agree_keep_the_hash():
    for doc, digest, _ in RECORDED_HASHES[:2]:
        kind = "target" if doc["mode"] == "target" else "recurrence"
        assert parse_config({**doc, "experiment": {"kind": kind}}).config_hash() == digest
    assert parse_config(base_doc(mode="fit", experiment={"kind": "recurrence"})).config_hash() == (
        RECORDED_CANONICAL[6][1]
    )


@pytest.mark.parametrize(
    "doc, key",
    (
        (base_doc(seed=True), "seed"),
        (base_doc(n_max=True), "n_max"),
        (base_doc(samples=True), "samples"),
        (base_doc(experiment={"keep_hits": True}), "experiment.keep_hits"),
        (base_doc(experiment={"charts": "false"}), "experiment.charts"),
        (base_doc(experiment={"thresholds": {"rel_err": True}}), "experiment.thresholds.rel_err"),
        (base_doc(mode="dichotomy", dichotomy={"max_final": 2.7}), "dichotomy.max_final"),
        (base_doc(checkpoints=[True, 100]), "checkpoints"),
        (base_doc(schema_version=2), "schema_version"),
    ),
)
def test_no_silent_coercion(doc, key):
    with pytest.raises(ConfigValidationError) as err:
        parse_config(doc)
    assert [p.split(":")[0] for p in err.value.problems] == [key]


def test_max_final_has_no_lower_bound():
    cfg = parse_config(base_doc(mode="dichotomy", dichotomy={"max_final": -5}))
    assert cfg.thresholds.dichotomy_max_final == -5


def test_readme_config_block_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme[readme.index("### Config schema"):]
    block = section[section.index("```yaml") + len("```yaml"):section.index("```\n", 8)]
    cfg = parse_config(block)
    assert cfg.mode == "experiment" and cfg.target.center == (Fraction(1, 2),)


# -- property tests over generated documents of every mode ----------------------------

#: (map, dimension, cylinders per level: depth k has this to the k cylinders)
MAPS = (("doubling", 1, 2), ("tent", 1, 2), ("base-3", 1, 3), ("luroth-trunc-3", 1, 3),
        ("toral-diag(2,3)", 2, 6), (TWO_D_INLINE, 2, 4))
RATIONALS = st.builds(lambda p, q: f"{p}/{q}", st.integers(0, 5), st.integers(1, 9))


@st.composite
def axis_rates(draw):
    family = draw(st.sampled_from(["power", "power-log", "constant", "table"]))
    if family == "table":
        return {"family": family, "values": draw(st.lists(RATIONALS, min_size=60, max_size=60))}
    rate = {"family": family, "c": draw(RATIONALS)}
    for param in {"power": ["p"], "power-log": ["p", "q"], "constant": []}[family]:
        if draw(st.booleans()):
            rate[param] = draw(st.sampled_from(["1/2", "1", 2, "3/2"]))
    return rate


@st.composite
def rects(draw, dimension):
    sides = []
    for _ in range(dimension):
        lo, hi = sorted(draw(st.lists(st.integers(0, 8), min_size=2, max_size=2)))
        sides.append([f"{lo}/8", f"{hi}/8"])
    return sides


@st.composite
def disjoint_rects(draw, dimension):
    """Up to two rectangles whose first sides meet at most at an end."""
    union = [draw(rects(dimension)) for _ in range(draw(st.integers(0, 2)))]
    ends = sorted(draw(st.lists(st.integers(0, 8), min_size=2 * len(union),
                                max_size=2 * len(union))))
    for i, rect in enumerate(union):
        rect[0] = [f"{ends[2 * i]}/8", f"{ends[2 * i + 1]}/8"]
    return union


@st.composite
def documents(draw):
    """A valid config document of a drawn mode."""
    mode = draw(st.sampled_from(MODES))
    map_doc, dimension, branches = draw(st.sampled_from(MAPS))
    n_max = draw(st.integers(1, 50))
    shared = draw(st.booleans())  # one family for every axis, or one per axis
    rate = draw(axis_rates()) if shared else [draw(axis_rates()) for _ in range(dimension)]
    doc = {"mode": mode, "map": map_doc, "rate": rate, "n_max": n_max}
    depths = st.lists(st.integers(1, 8), max_size=3)
    optional = {
        "checkpoints": st.sampled_from(["geometric", sorted({1, n_max})]),
        "samples": st.integers(2, 5),
        "seed": st.integers(0, 2**64),
        "metric": st.sampled_from(["interval"] if mode in ("measure", "intersect", "mixing")
                                  else ["interval", "torus"]),
        "oracle_cap": st.integers(10**8, 10**9),
        "inequality": st.just("strict"),
        "out": st.just("somewhere/"),
        "threads": st.integers(0, 3),
        "dichotomy": st.fixed_dictionaries({}, optional={
            "max_final": st.integers(-3, 30), "sum_bound": RATIONALS}),
        "measure": st.fixed_dictionaries({}, optional={
            "kind": st.just("recurrence"), "ns": depths}),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            doc[key] = draw(values)
    # the default measure.ns, 1..min(n_max, 10), may pass the default cylinder cap
    if (mode == "measure" and "ns" not in doc.get("measure", {}) and "oracle_cap" not in doc
            and branches ** min(n_max, 10) > DEFAULT_CYLINDER_CAP):
        if draw(st.booleans()):
            doc["oracle_cap"] = draw(optional["oracle_cap"])
        else:
            doc.setdefault("measure", {})["ns"] = draw(depths)
    kind = {"count": "recurrence", "target": "target", "fit": "recurrence"}.get(
        mode, draw(st.sampled_from(["recurrence", "target"])))
    if mode == "target" or kind == "target" or draw(st.booleans()):
        doc["target"] = {"center": [draw(RATIONALS.filter(lambda r: Fraction(r) <= 1))
                                    for _ in range(dimension)]}
    doc["experiment"] = draw(st.fixed_dictionaries({}, optional={
        "kind": st.just(kind),
        "keep_hits": st.integers(0, 10),
        "charts": st.booleans(),
        "thresholds": st.fixed_dictionaries({}, optional={
            "rel_err": st.floats(0, 1), "envelope_coeff": st.integers(1, 5),
            "slope_band_max": st.floats(0.5, 3)}),
    }))
    if mode == "intersect":
        doc["intersect"] = {"pairs": draw(st.lists(
            st.lists(st.integers(1, 8), min_size=2, max_size=2), min_size=1, max_size=3))}
    if mode == "mixing":
        doc["mixing"] = {"e": draw(rects(dimension)),
                         "f": draw(disjoint_rects(dimension)),
                         "ns": draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))}
    if mode == "fit" and draw(st.booleans()):
        doc["fit"] = {"report": "out/report.json"}
    return doc


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents())
def test_parse_emit_parse_keeps_the_canonical_config(doc):
    cfg = parse_config(doc)
    text = emit_config(cfg)
    again = parse_config(text)
    assert again.canonical == cfg.canonical
    assert again.config_hash() == cfg.config_hash()
    assert emit_config(again) == text


#: Every section and key path of the schema.
PATHS = sorted({key.path for key in KEYS} | {
    key.path.rsplit(".", i)[0] for key in KEYS for i in range(1, key.path.count(".") + 1)})
#: Misspelt keys and sections, in the document and in its sections.
UNKNOWN_PATHS = ["sample", "n-max", "experiments", "experiment.kinds", "experiment.threshold",
                 "experiment.thresholds.rel_errr", "mixing.fs", "dichotomy.max", "fit.reports"]
#: Misspelt fields inside the value of ``rate`` (every axis) and of an inline
#: map (its first branch), as "key.field".
FIELD_PATHS = ["rate.pp", "rate.famly", "rate.value", "map.slop", "map.note"]
#: (path, replacement) pairs that are valid and so not malformed.
VALID_REPLACEMENTS = (("experiment.charts", True), ("experiment.charts", False),
                      ("out", "zzz"), ("fit.report", "zzz"))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents(), st.sampled_from(PATHS + UNKNOWN_PATHS + FIELD_PATHS),
       st.sampled_from(["zzz", [1, "x"], True, False]))
def test_malformed_sections_and_keys_are_validation_errors(doc, path, bad):
    if (path, bad) in VALID_REPLACEMENTS:
        return
    if path in FIELD_PATHS:
        key, field = path.split(".")
        assume(key == "rate" or type(doc["map"]) is dict)
        doc[key] = copy.deepcopy(doc[key])
        value = doc["rate"] if key == "rate" else doc["map"]["axes"][0][:1]
        for mapping in [value] if type(value) is dict else value:
            mapping[field] = bad
        with pytest.raises(ConfigValidationError) as err:
            parse_config(doc)
        assert any(p.startswith(f"{key}: {field}: unknown key") for p in err.value.problems)
        return
    *sections, leaf = path.split(".")
    node = doc
    for section in sections:
        if not isinstance(node.get(section), dict):
            node[section] = {}
        node = node[section]
    node[leaf] = bad
    with pytest.raises(ConfigValidationError) as err:
        parse_config(doc)
    assert any(p.startswith(path) for p in err.value.problems)
