"""Config parsing, validation messages, round-trips, artifacts, exit codes."""

import csv
import hashlib
import json
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
import yaml

from orbitcount.cli import (
    ConfigValidationError,
    emit_config,
    main,
    parse_config,
    run,
)


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


def test_count_renders_main_terms_past_the_digit_limit(tmp_path):
    from orbitcount.rates import power_rate, psi_sum

    config = _huge_main_term_config(tmp_path, "count")
    assert main(["count", "--config", config, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "manifest.json").exists()
    rows = list(csv.reader(open(tmp_path / "out" / "counts.csv")))
    last = rows[-1]
    assert last[1] == "20000"
    assert _hex_fraction(last[3]) == psi_sum(power_rate("1/2", 2), 20000)


def test_dichotomy_renders_main_terms_past_the_digit_limit(tmp_path):
    from orbitcount.rates import power_rate, psi_sum

    config = _huge_main_term_config(tmp_path, "dichotomy")
    assert main(["dichotomy", "--config", config, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "manifest.json").exists()
    report = json.loads((tmp_path / "out" / "dichotomy.json").read_text())
    assert _hex_fraction(report["main_sum_exact"]) == psi_sum(power_rate("1/2", 2), 20000)


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
        cfg = parse_config(base_doc(mode=mode, map="tent", n_max=400, samples=5, **extra))
        outputs = []
        for threads in (1, 2):
            out = tmp_path / f"{mode}-{threads}"
            assert run(cfg, out, threads=threads) == 0
            outputs.append((out / "counts.csv").read_bytes())
        assert outputs[0] == outputs[1]


#: Config hashes of these documents before the manifest gained its trace block.
RECORDED_HASHES = (
    (
        {"mode": "count", "map": "tent", "n_max": 300, "samples": 3, "seed": 5,
         "rate": {"family": "power", "c": "1/2", "p": "1/2"}},
        "f050e512c3d6bb8ad7b10f4bf2d3d7945de39c2b623e9976e356595b46f4c296",
        [("window", "integer-slopes")],
    ),
    (
        {"mode": "target", "map": "luroth-trunc-4", "n_max": 300, "samples": 3, "seed": 5,
         "rate": {"family": "power", "c": "1/2", "p": "1/2"}, "target": {"center": ["1/2"]}},
        "8c1f680b9be522cae47156481aaeeac38075236d51f9ef2a632d0c3051720f37",
        [("window", "integer-slopes")],
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
    # integer slopes 4, 2, 4 with a half-integer offset: the per-n interval engine
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
        {"axis": 0, "engine": "interval", "reason": "non-integer-slopes"},
        {"axis": 1, "engine": "digit", "reason": "uniform-base"},
    ]
    # modes without orbit counts have no engines to report
    run(parse_config(base_doc(mode="measure", measure={"ns": [1]})), tmp_path / "m")
    assert "engines" not in json.loads((tmp_path / "m" / "manifest.json").read_text())["trace"]


TENT_AXIS = [
    {"left": "0", "right": "1/2", "slope": "2", "offset": "0"},
    {"left": "1/2", "right": "1", "slope": "-2", "offset": "-2"},
]
#: slopes 3/2 and -3
NON_INTEGER_AXIS = [
    {"left": "0", "right": "2/3", "slope": "3/2", "offset": "0"},
    {"left": "2/3", "right": "1", "slope": "-3", "offset": "-3"},
]
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
