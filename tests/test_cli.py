"""End-to-end CLI behavior: stage wiring, exit codes, determinism."""

import csv
import dataclasses
import functools
import importlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
import tomllib
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gridres
import gridres.cli as cli
from gridres import runner, synth
from gridres.cli import main
from gridres.config import Config, canonical_hazard, parse_config
from gridres.errors import FitError
from gridres.ingest import format_instant, parse_instant
from gridres.reference import materialize_reference_workspace
from gridres import workspace
from gridres.workspace import Workspace

from conftest import TINY_SPEC


def seed_inputs(root, bundle):
    (root / "inputs").mkdir(parents=True, exist_ok=True)
    for name, data in bundle.items():
        target = root / name if name == "truth.json" else root / "inputs" / name
        target.write_bytes(data)


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

def test_pipeline_writes_expected_artifacts(tiny_ws):
    for name in [
        "clean_outages.csv", "report_outages.json",
        "clean_weather.csv", "report_weather.json",
        "clean_stations.csv", "clean_severe.csv", "report_severe.json",
        "zones_wind.geojson", "zones_precipitation.geojson",
        "density.csv", "density.json",
        "events_global.csv", "events_wind.csv", "events_precipitation.csv",
        "fragility_wind.csv", "fragility_precipitation.csv",
        "models_wind.json", "models_precipitation.json",
        "predictions_wind_20.csv", "choropleth_wind_20.geojson",
        "manifest.json",
    ]:
        assert (tiny_ws / name).exists(), name
    svgs = list((tiny_ws / "plots").glob("*.svg"))
    assert len(svgs) == 12  # 6 zones x (fragility + restoration)


def test_models_json_has_both_kinds_per_zone(tiny_ws):
    doc = json.loads((tiny_ws / "models_wind.json").read_text())
    assert doc["hazard_class"] == "wind"
    for zone_id, kinds in doc["zones"].items():
        assert set(kinds) == {"fragility", "restoration"}, zone_id
        assert kinds["fragility"]["diagnostics"]["n_samples"] >= 3


def test_choropleth_references_scenario(tiny_ws):
    doc = json.loads((tiny_ws / "choropleth_wind_20.geojson").read_text())
    assert doc["scenario"] == {"hazard_class": "wind", "intensity": 20.0,
                               "label": ""}
    assert len(doc["features"]) == 2


# ---------------------------------------------------------------------------
# Freshness and force
# ---------------------------------------------------------------------------

def test_second_ingest_is_noop(tiny_ws, capsys):
    assert main(["ingest", "--workspace", str(tiny_ws)]) == 0
    assert "up to date, skipping" in capsys.readouterr().err


def test_force_reruns_fresh_stage(tiny_ws, capsys):
    assert main(["ingest", "--workspace", str(tiny_ws), "--force"]) == 0
    err = capsys.readouterr().err
    assert "up to date" not in err
    assert "kept" in err


@pytest.fixture
def private_ws(tiny_ws, tmp_path):
    """A copy of the tiny workspace that a test may rerun stages in."""
    return Path(shutil.copytree(tiny_ws, tmp_path / "ws"))


def _output_inodes(ws):
    """Per manifest stage, the inode of each recorded output. A stage that
    reruns replaces its outputs, so their inodes change."""
    manifest = json.loads((ws / "manifest.json").read_text())
    return {stage: {rel: (ws / rel).stat().st_ino for rel in record["outputs"]}
            for stage, record in manifest["stages"].items()}


WIND_20 = {"hazard": "wind", "intensity": 20.0}


@pytest.mark.parametrize("edit, must_rerun, may_rerun", [
    ({"scenarios": [WIND_20, {"hazard": "wind", "intensity": 30.0}]},
     {"predict_wind_30"}, set()),
    ({"density_cell_size": 0.05}, {"zones"}, set()),
    ({"precip_intensity_mode": "peak"}, {"link"}, set()),
    ({"scenarios": [dict(WIND_20, label="design storm")]},
     {"predict_wind_20_design-storm"}, set()),
    ({**dataclasses.asdict(Config()), "scenarios": [WIND_20]}, set(), set()),
], ids=["add-scenario", "density-cell-size", "precip-intensity-mode",
        "scenario-label", "spelled-out-defaults"])
def test_config_edit_reruns_only_stages_reading_it(private_ws, tmp_path, edit,
                                                   must_rerun, may_rerun):
    cfg = tmp_path / "cfg.json"

    def run_with(doc):
        cfg.write_text(json.dumps(doc))
        for command in ("run-all", "render"):
            assert main([command, "--workspace", str(private_ws),
                         "--config", str(cfg)]) == 0

    run_with({"scenarios": [WIND_20]})
    before = _output_inodes(private_ws)
    run_with({"scenarios": [WIND_20], **edit})
    after = _output_inodes(private_ws)
    rerun = {stage for stage, inodes in after.items()
             if inodes != before.get(stage)}
    assert must_rerun <= rerun <= must_rerun | may_rerun


def test_record_with_one_config_digest_reruns_once(private_ws, capsys):
    """Records that hold a single `__config__` digest, as manifests written
    before config fields were recorded one by one do, read as stale: each
    stage reruns once, without error, and is then fresh."""
    path = private_ws / "manifest.json"
    manifest = json.loads(path.read_text())
    for record in manifest["stages"].values():
        inputs = record["inputs"]
        for key in [k for k in inputs if k.startswith("__") and k != "__code__"]:
            del inputs[key]
        inputs["__config__"] = "0" * 64
    path.write_text(json.dumps(manifest))
    for command in (PREDICT_WIND + ["20"], ["render"]):
        for rerun in (True, False):
            assert main(command + ["--workspace", str(private_ws)]) == 0
            assert ("up to date" not in capsys.readouterr().err) == rerun, command


def test_numpy_version_file_change_reruns_every_stage(private_ws, tmp_path,
                                                      monkeypatch):
    """`__code__` covers the version.py of the numpy that an import would
    find. The tiny_ws fixture's fits loaded numpy, so the stand-in put
    first on the path is found but never imported."""
    stand_in = tmp_path / "site" / "numpy"
    stand_in.mkdir(parents=True)
    (stand_in / "__init__.py").write_text("")
    (stand_in / "version.py").write_text('version = "0.0.0"\n')
    stages = {"ingest", "zones", "extract-events", "link", "fit",
              "predict_wind_20", "render", "truth-comparison"}
    before = _output_inodes(private_ws)
    monkeypatch.syspath_prepend(str(stand_in.parent))
    # A fresh cache, so the fingerprint is taken again with the stand-in.
    monkeypatch.setattr(runner, "code_fingerprint",
                        functools.cache(runner.code_fingerprint.__wrapped__))
    for command in (["run-all"], PREDICT_WIND + ["20"], ["render"]):
        assert main(command + ["--workspace", str(private_ws)]) == 0
    after = _output_inodes(private_ws)
    assert {stage for stage in stages if after[stage] != before[stage]} == stages


def test_code_change_reruns_fresh_stage(private_ws, monkeypatch, capsys):
    assert main(["ingest", "--workspace", str(private_ws)]) == 0
    assert "up to date, skipping" in capsys.readouterr().err
    monkeypatch.setattr(runner, "code_fingerprint", lambda: "0" * 64)
    assert main(["ingest", "--workspace", str(private_ws)]) == 0
    err = capsys.readouterr().err
    assert "up to date" not in err
    assert "kept" in err


def _changed_outputs(root):
    """Per manifest stage, its recorded outputs that hash otherwise now:
    their sha256, None if missing; stages with none are left out."""
    ws = Workspace(root)
    return {stage: changed for stage, record in ws.load_manifest()["stages"].items()
            if (changed := ws._changed(record["outputs"]))}


def test_run_stopped_before_its_record_leaves_the_stage_stale(private_ws,
                                                              monkeypatch, capsys):
    """A crash between writing a stage's outputs and recording them leaves
    the last record in the manifest. Once the input is back as that record
    has it, only the output digests tell that the stage must rerun."""
    outages = private_ws / "inputs" / "outages.csv"
    original, clean = outages.read_bytes(), (private_ws / "clean_outages.csv").read_bytes()
    assert main(["ingest", "--workspace", str(private_ws)]) == 0

    def crash(*args, **kwargs):
        raise RuntimeError("stopped")

    outages.write_bytes(original[:original.rindex(b"\n", 0, -1) + 1])  # one row fewer
    monkeypatch.setattr(Workspace, "record_stage", crash)
    assert main(["ingest", "--workspace", str(private_ws)]) == 1
    assert (private_ws / "clean_outages.csv").read_bytes() != clean
    monkeypatch.undo()

    outages.write_bytes(original)
    now = Workspace(private_ws).hash_inputs(["clean_outages.csv", "report_outages.json"])
    assert None not in now.values()  # both there, neither as recorded
    assert _changed_outputs(private_ws) == {"ingest": now}
    capsys.readouterr()
    assert main(["ingest", "--workspace", str(private_ws)]) == 0
    assert "up to date" not in capsys.readouterr().err
    assert (private_ws / "clean_outages.csv").read_bytes() == clean
    assert _changed_outputs(private_ws) == {}


def test_predict_reruns_when_intensity_differs_below_file_name_precision(
        private_ws):
    for intensity in ("20", "20.000001"):
        assert main(["predict", "--workspace", str(private_ws), "--hazard",
                     "wind", "--intensity", intensity]) == 0
    with (private_ws / "predictions_wind_20.csv").open() as fh:
        assert {row["intensity"] for row in csv.DictReader(fh)} == {"20.000001"}


def test_labelled_scenario_and_bare_predict_keep_separate_outputs(private_ws,
                                                                 tmp_path):
    """A labelled config scenario and a bare predict at the same intensity
    have their own stage keys and files: once both have run, alternating
    them reruns nothing and neither choropleth loses its label."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"scenarios": [dict(WIND_20, label="design storm")]}))

    def alternate():
        for command in (["run-all", "--config", str(cfg)], PREDICT_WIND + ["20"]):
            assert main(command + ["--workspace", str(private_ws)]) == 0

    alternate()
    before = _output_inodes(private_ws)
    alternate()
    assert _output_inodes(private_ws) == before
    for name, label in [("choropleth_wind_20_design-storm.geojson",
                         "design storm"), ("choropleth_wind_20.geojson", "")]:
        doc = json.loads((private_ws / name).read_text())
        assert doc["scenario"]["label"] == label


def test_label_without_letters_or_digits_exits_3(private_ws, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenarios": [dict(WIND_20, label=" -- ")]}))
    assert main(["run-all", "--workspace", str(private_ws),
                 "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert "label" in err


def test_copied_workspace_stays_fresh(private_ws, capsys):
    assert main(["run-all", "--workspace", str(private_ws)]) == 0
    out = capsys.readouterr().out
    rows = [line.split(None, 2) for line in out.strip().split("\n")[1:]]
    for name, status, detail in rows:
        assert detail == "up to date", name
    for command in (PREDICT_WIND + ["20"], ["render"]):
        assert main(command + ["--workspace", str(private_ws)]) == 0
        assert "up to date, skipping" in capsys.readouterr().err


def test_noop_run_all_rewrites_nothing_but_the_manifest(private_ws, monkeypatch):
    monkeypatch.setattr(workspace, "time_ns",
                        lambda: time.time_ns() + 2 * workspace.RACY_WINDOW_NS)

    def stats():
        return {p: (st.st_ino, st.st_mtime_ns) for p in private_ws.rglob("*")
                if p.is_file() and p.name != "manifest.json" for st in [p.stat()]}

    for _ in range(2):
        assert main(["run-all", "--workspace", str(private_ws)]) == 0
    before = stats()
    assert main(["run-all", "--workspace", str(private_ws)]) == 0
    assert stats() == before


def test_config_spelling_out_every_default_leaves_run_all_up_to_date(
        private_ws, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**dataclasses.asdict(Config()),
                               "boundary_path": "inputs/boundary.geojson"}))
    assert main(["run-all", "--workspace", str(private_ws)]) == 0
    capsys.readouterr()
    assert main(["run-all", "--workspace", str(private_ws),
                 "--config", str(cfg)]) == 0
    rows = [line.split(None, 2)
            for line in capsys.readouterr().out.strip().split("\n")[1:]]
    assert [name for name, _, _ in rows] == [
        "ingest", "zones", "extract-events", "link", "fit", "truth-comparison"]
    for name, status, detail in rows:
        assert detail == "up to date", name


def test_noop_reruns_hash_each_recorded_file_at_most_once(private_ws, monkeypatch,
                                                        capsys):
    """A copied workspace (new inodes) hashes each file that run-all's
    stages recorded once; the next no-op run-all hashes nothing."""
    hashed, real = [], workspace.sha256_file
    monkeypatch.setattr(workspace, "sha256_file",
                        lambda path: hashed.append(Path(path)) or real(path))
    # The copy was just made; let the table take its files as settled.
    monkeypatch.setattr(workspace, "time_ns",
                        lambda: time.time_ns() + 2 * workspace.RACY_WINDOW_NS)
    assert main(["run-all", "--workspace", str(private_ws)]) == 0
    stages = json.loads((private_ws / "manifest.json").read_text())["stages"]
    recorded = {private_ws / key
                for stage in ("ingest", "zones", "extract-events", "link", "fit",
                              "truth-comparison")
                for part in ("inputs", "outputs")
                for key, digest in stages[stage][part].items()
                if digest is not None and not key.startswith("__")}
    assert sorted(hashed) == sorted(recorded)
    hashed.clear()
    assert main(["run-all", "--workspace", str(private_ws)]) == 0
    assert hashed == []
    capsys.readouterr()


def test_manifest_keys_inputs_by_workspace_path(private_ws, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"boundary_path": str(private_ws / "inputs" / "boundary.geojson")}))
    assert main(["zones", "--workspace", str(private_ws),
                 "--config", str(cfg)]) == 0
    manifest = json.loads((private_ws / "manifest.json").read_text())
    for stage, record in manifest["stages"].items():
        for key in record["inputs"]:
            assert not Path(key).is_absolute(), (stage, key)
    assert set(manifest["stages"]["zones"]["inputs"]) == {
        "clean_stations.csv", "inputs/boundary.geojson", "clean_outages.csv",
        "__code__", "__args__", "__config__.boundary_path",
        "__config__.density_cell_size"}


def _stage_opens(monkeypatch, ws):
    """Per stage, the workspace files its body opens for reading and for
    writing (temp names mapped to their targets)."""
    opens: dict[str, tuple[set, set]] = {}
    real_open = Path.open
    root = ws.resolve()

    for name in cli.STAGES:
        attr = "stage_" + name.replace("-", "_")
        body = getattr(cli, attr)

        def traced(*args, _body=body, _name=name):
            reads, writes = opens.setdefault(_name, (set(), set()))

            def spy(path, mode="r", *rest, **kwargs):
                p = Path(path).resolve()
                if p.is_relative_to(root):
                    rel = p.relative_to(root).as_posix()
                    if any(c in mode for c in "wax+"):
                        writes.add(re.sub(r"\.\d+\.[0-9a-f]+\.tmp$", "", rel))
                    else:
                        reads.add(rel)
                return real_open(path, mode, *rest, **kwargs)
            monkeypatch.setattr(Path, "open", spy)
            try:
                return _body(*args)
            finally:
                monkeypatch.setattr(Path, "open", real_open)
        monkeypatch.setattr(cli, attr, traced)
    return opens


def test_recorded_inputs_cover_every_file_a_stage_opens(private_ws,
                                                        monkeypatch):
    opens = _stage_opens(monkeypatch, private_ws)
    commands = {"ingest": [], "zones": [], "extract-events": [], "link": [],
                "fit": [], "predict_wind_20": PREDICT_WIND[1:] + ["20"],
                "render": [], "truth-comparison": []}
    for key, args in commands.items():
        command = key.split("_")[0]
        assert main([command, "--force", "--workspace", str(private_ws),
                     *args]) == 0
    manifest = json.loads((private_ws / "manifest.json").read_text())
    for key in commands:
        record = manifest["stages"][key]
        reads, writes = opens[key.split("_")[0]]
        assert reads, key
        assert reads <= set(record["inputs"]), key
        assert writes == set(record["outputs"]), key


@pytest.mark.parametrize("command", ["fit", "render"])
def test_optional_input_appearing_or_vanishing_reruns(private_ws, capsys,
                                                      command):
    argv = [command, "--workspace", str(private_ws)]
    fragility = private_ws / "fragility_wind.csv"
    data = fragility.read_bytes()

    def reran():
        assert main(argv) == 0
        return "up to date" not in capsys.readouterr().err

    assert not reran()
    fragility.unlink()
    assert reran()
    assert not reran()
    manifest = json.loads((private_ws / "manifest.json").read_text())
    assert manifest["stages"][command]["inputs"]["fragility_wind.csv"] is None
    fragility.write_bytes(data)
    assert reran()
    assert not reran()


@pytest.mark.parametrize("command, missing", [
    ("zones", "clean_outages.csv"),
    ("extract-events", "clean_stations.csv"),
])
def test_missing_input_exits_2_before_any_write(private_ws, command, missing):
    (private_ws / missing).unlink()
    before = {p: p.stat().st_ino for p in private_ws.rglob("*")}
    assert main([command, "--workspace", str(private_ws)]) == 2
    assert {p: p.stat().st_ino for p in private_ws.rglob("*")} == before


def test_log_lines_are_level_stage_message(tiny_ws, capsys):
    main(["zones", "--workspace", str(tiny_ws)])
    err = capsys.readouterr().err
    for line in err.strip().split("\n"):
        assert re.match(r"^(INFO|WARNING|ERROR)\t[a-z-]+\t\S", line), line


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_missing_inputs_exit_2(tmp_path):
    assert main(["ingest", "--workspace", str(tmp_path)]) == 2


def test_fit_before_extract_events_exit_2(tmp_path, tiny_bundle):
    seed_inputs(tmp_path, tiny_bundle)
    assert main(["fit", "--workspace", str(tmp_path)]) == 2


def test_corrupt_outages_exit_3(tmp_path, tiny_bundle, capsys):
    """A bad header is named by its workspace path, in an input file and in
    a clean one."""
    seed_inputs(tmp_path, tiny_bundle)
    (tmp_path / "inputs" / "outages.csv").write_bytes(
        b"outage_id,oops\nO1,x\n")
    assert main(["ingest", "--workspace", str(tmp_path)]) == 3
    assert f"{tmp_path / 'inputs' / 'outages.csv'}: header is missing column(s) " \
        in capsys.readouterr().err
    seed_inputs(tmp_path, tiny_bundle)
    assert main(["ingest", "--workspace", str(tmp_path)]) == 0
    (tmp_path / "clean_outages.csv").write_bytes(b"oops\n")
    assert main(["zones", "--workspace", str(tmp_path)]) == 3
    assert f"{tmp_path / 'clean_outages.csv'}: header is missing column(s) " \
        in capsys.readouterr().err


def test_byte_order_mark_before_the_header_is_ignored(tmp_path, tiny_bundle, tiny_ws):
    """A UTF-8 byte-order mark opens a quote-free outages.csv, a weather.csv
    with every cell quoted (read by the csv module) and stations.csv, and
    the clean files match those of the plain inputs byte for byte."""
    quoted = io.StringIO()
    csv.writer(quoted, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(
        csv.reader(io.StringIO(tiny_bundle["weather.csv"].decode())))
    assert b'"' not in tiny_bundle["outages.csv"]
    seed_inputs(tmp_path, {**tiny_bundle, "weather.csv": quoted.getvalue().encode()})
    for name in ("outages.csv", "weather.csv", "stations.csv"):
        path = tmp_path / "inputs" / name
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert main(["ingest", "--workspace", str(tmp_path)]) == 0
    for name in ("clean_outages.csv", "clean_weather.csv", "clean_stations.csv"):
        assert (tmp_path / name).read_bytes() == (tiny_ws / name).read_bytes(), name


def test_unknown_hazard_exit_3(tiny_ws):
    assert main(["predict", "--workspace", str(tiny_ws),
                 "--hazard", "snow", "--intensity", "1"]) == 3


def test_negative_intensity_exit_3(tiny_ws):
    assert main(["predict", "--workspace", str(tiny_ws),
                 "--hazard", "wind", "--intensity", "-3"]) == 3


def test_negative_zero_intensity_is_the_zero_scenario(private_ws):
    assert main(["predict", "--workspace", str(private_ws),
                 "--hazard", "wind", "--intensity", "-0"]) == 0
    stages = json.loads((private_ws / "manifest.json").read_text())["stages"]
    assert "predict_wind_0" in stages and "predict_wind_-0" not in stages
    assert (private_ws / "predictions_wind_0.csv").is_file()
    assert not (private_ws / "predictions_wind_-0.csv").exists()


@pytest.mark.parametrize("args", [
    ["--hazard", "wind", "--intensity", "abc"],
    ["--intensity", "3"],  # no --hazard
    ["--hazard", "wind", "--intensity", "-1e3"],  # argparse reads an option
])
def test_argument_errors_exit_3(tiny_ws, capsys, args):
    with pytest.raises(SystemExit) as stop:
        main(["predict", "--workspace", str(tiny_ws), *args])
    assert stop.value.code == 3
    assert "usage: gridres predict" in capsys.readouterr().err
    with pytest.raises(SystemExit) as stop:
        main(["predict", "--help"])
    assert stop.value.code == 0


def test_bad_config_exit_3(tiny_ws, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_knob": 1}))
    assert main(["zones", "--workspace", str(tiny_ws),
                 "--config", str(cfg)]) == 3


PREDICT_WIND = ["predict", "--hazard", "wind", "--intensity"]


def _polygon(coordinates) -> bytes:
    """A boundary.geojson holding one Polygon with these coordinates."""
    return json.dumps({"type": "Polygon", "coordinates": coordinates}).encode()


# (command, config document or raw config bytes, replaced input file, text
# the error line must contain)
@pytest.mark.parametrize("command, config, input_file, needle", [
    (["ingest"], {"max_customers": "abc"}, None, "max_customers"),
    (["ingest"], {"max_customers": True}, None, "max_customers"),
    (["zones"], {"density_cell_size": [1]}, None, "density_cell_size"),
    (["zones"], b'{"density_cell_size": NaN}', None, "density_cell_size"),
    (["fit"], {"solver": {"max_iterations": 200}}, None, "solver"),
    (["link"], {"hazard_mapping": {"hail": ["wind"]}}, None, "hail"),
    (["run-all"], {"scenarios": [{"hazard": "wind", "intensity": "abc"}]},
     None, "scenarios[0].intensity"),
    (["ingest"], b'{"max_customers": 5}\xff', None, "cfg.json"),
    (PREDICT_WIND + ["nan"], None, None, "finite"),
    (PREDICT_WIND + ["inf"], None, None, "finite"),
    (PREDICT_WIND + ["1e6"], None, None, "overflowed"),
    (["ingest"], None, ("inputs/outages.csv", b"outage_id\xff,\n"),
     "outages.csv"),
    (["ingest"], None, ("inputs/severe_events.csv", b"\xfe\xff"),
     "severe_events.csv"),
    (["zones"], None, ("inputs/boundary.geojson", b'{"type": "\xff"}'),
     "inputs/boundary.geojson"),
    (["extract-events"], None, ("clean_outages.csv", b"outage_id\xff,\n"),
     "clean_outages.csv"),
    (["zones"], None, ("inputs/boundary.geojson", b"[]"),
     "inputs/boundary.geojson"),
    (["zones"], None, ("inputs/boundary.geojson",
                       _polygon([[[0, 0], ["1", 0], [1, 1], [0, 0]]])),
     "inputs/boundary.geojson"),
    (["zones"], None, ("inputs/boundary.geojson", _polygon(5)),
     "inputs/boundary.geojson"),
    (["zones"], None, ("inputs/boundary.geojson",
                       _polygon([[[0, 0], [1], [1, 1], [0, 0]]])),
     "inputs/boundary.geojson"),
    (["zones"], None, ("manifest.json", b"[]"), "manifest.json"),
    (["zones"], None, ("manifest.json", b'{"stages": []}'), "manifest.json"),
    (["zones"], None, ("manifest.json", b'{"stages": {"zones": 1}}'),
     "manifest.json"),
    (["run-all"], None, ("truth.json", b"{"), "truth.json"),
    (["run-all"], None, ("truth.json", b"{}"), "truth.json"),
    (["run-all"], None, ("truth.json", json.dumps({"zones": {"wind:0": {
        "hazard_class": "wind", "fragility": {"b": 0}, "restoration": {"c": 1},
    }}}).encode()), "truth.json"),
    (["ingest"], None, ("inputs/severe_events.csv", (
        "event_id,event_type,start,end,latitude,longitude,description\n"
        "E1,Tornado,2012-06-29T14:00:00Z,2012-06-29T15:00:00Z,39.7,-86.1,"
        f'"{"x" * 200_000}"\n').encode()), "severe_events.csv line 2"),
    (["ingest"], None, ("inputs/severe_events.csv", (
        "event_id,event_type,start,end,latitude,longitude,description\n"
        "E1,Tornado,2012-06-29T14:00:00Z,2012-06-29T15:00:00Z,39.7,-86.1,"
        f'{"x" * 200_000}\n').encode()),
     "severe_events.csv line 2: field larger than field limit (131072)"),
    (["zones"], {"density_cell_size": 1e-6}, None, "density_cell_size 1e-06"),
    (["zones"], None, ("inputs/boundary.geojson",
                       _polygon([[[0, 0], [400, 95], [1, 1], [0, 0]]])),
     "position [400, 95] is out of range"),
    (["run-all"], None, ("inputs/boundary.geojson", _polygon([[
        [-86.35, 39.6], [-85.9, 39.6], [-85.9, 139.95], [-86.35, 39.95],
        [-86.35, 39.6]]])), "inputs/boundary.geojson"),
    (["ingest"], None, ("inputs/stations.csv",
                        b"station_id,latitude,longitude,capabilities\n"
                        b"WS00,95,400,wind;precipitation\n"),
     "stations.csv line 2: latitude 95.0 or longitude 400.0 out of range"),
    (["link"], {"hazard_mapping": {"Hail": "wind", "hail ": "excluded"}}, None,
     "'Hail' and 'hail '"),
    (["synth", "--seed", "-1"], None, None, "seed"),
], ids=["customers-string", "customers-bool", "cell-size-list",
        "cell-size-nan", "solver-unknown-key", "mapping-list",
        "scenario-intensity-string", "config-not-utf8", "intensity-nan",
        "intensity-inf", "intensity-overflow", "outages-not-utf8",
        "severe-not-utf8", "boundary-not-utf8", "clean-outages-not-utf8",
        "boundary-list", "boundary-coordinate-string", "boundary-coordinates-number",
        "boundary-short-position", "manifest-list", "manifest-stages-list",
        "manifest-stage-number", "truth-not-json", "truth-no-zones",
        "truth-zero-value", "severe-cell-past-field-limit",
        "severe-unquoted-cell-past-field-limit", "density-grid-too-fine",
        "boundary-out-of-range", "boundary-latitude-139", "station-out-of-range",
        "mapping-labels-collide", "synth-negative-seed"])
def test_malformed_input_exits_3(private_ws, tmp_path, capsys, command,
                                 config, input_file, needle):
    argv = command + ["--workspace", str(private_ws)]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(config if isinstance(config, bytes)
                        else json.dumps(config).encode())
        argv += ["--config", str(cfg)]
    if input_file is not None:
        name, data = input_file
        (private_ws / name).write_bytes(data)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert needle in err


def test_directory_in_place_of_an_input_exits_2(private_ws, capsys):
    boundary = private_ws / "inputs" / "boundary.geojson"
    boundary.unlink()
    boundary.mkdir()
    assert main(["zones", "--workspace", str(private_ws)]) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert "missing input" in err and "boundary.geojson" in err


def test_stray_directory_at_a_temp_name_is_no_obstacle(private_ws):
    """A directory where an older version put its fixed temp file."""
    (private_ws / "clean_outages.csv.tmp").mkdir()
    assert main(["ingest", "--force", "--workspace", str(private_ws)]) == 0
    assert [p.name for p in private_ws.glob("*.tmp")] == ["clean_outages.csv.tmp"]


def test_boundary_altitudes_are_ignored(private_ws):
    zones = {c: (private_ws / f"zones_{c}.geojson").read_bytes()
             for c in ("wind", "precipitation")}
    boundary = private_ws / "inputs" / "boundary.geojson"
    doc = json.loads(boundary.read_text())
    rings = doc["geometry"]["coordinates"]
    doc["geometry"]["coordinates"] = [[[*p, 250.0] for p in ring] for ring in rings]
    boundary.write_text(json.dumps(doc))
    assert main(["zones", "--workspace", str(private_ws)]) == 0
    assert zones == {c: (private_ws / f"zones_{c}.geojson").read_bytes()
                     for c in zones}


def test_directory_at_manifest_exits_3(private_ws, capsys):
    manifest = private_ws / "manifest.json"
    manifest.unlink()
    manifest.mkdir()
    assert main(["zones", "--workspace", str(private_ws)]) == 3
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert str(manifest) in err


def test_config_directory_exits_3(private_ws, tmp_path, capsys):
    assert main(["ingest", "--workspace", str(private_ws),
                 "--config", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert str(tmp_path) in err


@pytest.mark.parametrize("command", [["synth"], ["ingest"], PREDICT_WIND + ["20"],
                                     ["run-all"]], ids=lambda c: c[0])
@pytest.mark.parametrize("relative", ["afile", "afile/sub"])
def test_workspace_through_a_file_exits_3(tmp_path, capsys, command, relative):
    (tmp_path / "afile").write_bytes(b"")
    assert main(command + ["--workspace", str(tmp_path / relative)]) == 3
    err = capsys.readouterr().err
    assert "internal error" not in err and "missing input" not in err
    assert str(tmp_path / relative) in err


def _wind_fragility(doc):
    return doc["zones"]["wind:0"]["fragility"]


# Hand edits of models_wind.json: each leaves valid JSON of the wrong shape.
@pytest.mark.parametrize("edit", [
    lambda doc: _wind_fragility(doc)["params"].update(a="abc"),
    lambda doc: _wind_fragility(doc).pop("params"),
    lambda doc: doc.update(zones=list(doc["zones"].values())),
    lambda doc: _wind_fragility(doc)["params"].update(a=float("nan")),
    lambda doc: _wind_fragility(doc)["params"].update(c=1.0),
    lambda doc: _wind_fragility(doc).update(fit_domain=[0.0, True]),
    lambda doc: _wind_fragility(doc).pop("fit_domain"),
    lambda doc: doc.update(hazard_class="precipitation"),
    lambda doc: doc["zones"].update({"wind:0": {
        "fragility": doc["zones"]["wind:0"]["restoration"],
        "restoration": doc["zones"]["wind:0"]["fragility"]}}),
], ids=["string-param", "missing-params", "zones-list", "nan-param",
        "extra-param", "bool-domain", "missing-domain", "other-class", "swapped-kinds"])
def test_malformed_model_store_exits_3(private_ws, capsys, edit):
    store = private_ws / "models_wind.json"
    doc = json.loads(store.read_text())
    edit(doc)
    store.write_text(json.dumps(doc))
    assert main(PREDICT_WIND + ["20", "--workspace", str(private_ws)]) == 3
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert str(store) in err


# Keys the documents below use, so drawn objects reach past the top level.
_JSON_KEYS = st.sampled_from([
    "type", "features", "geometry", "coordinates", "stages", "inputs",
    "outputs", "zones", "hazard_class", "fragility", "restoration", "form",
    "params", "fit_domain", "diagnostics", "a", "b", "c", "scenarios",
    "hazard", "intensity", "boundary_path"]) | st.text(max_size=5)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000)
    | st.floats(-1000.0, 1000.0) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_JSON_KEYS, inner, max_size=4),
    max_leaves=12)

# document -> (its path, the command that reads it); the config's path is
# passed with --config
_DRAWN_DOCUMENTS = {
    "config": ("cfg.json", PREDICT_WIND + ["20"]),
    "boundary": ("inputs/boundary.geojson", PREDICT_WIND + ["20"]),
    "models": ("models_wind.json", PREDICT_WIND + ["20"]),
    "manifest": ("manifest.json", PREDICT_WIND + ["20"]),
    "truth": ("truth.json", ["run-all"]),
}


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(document=st.sampled_from(sorted(_DRAWN_DOCUMENTS)), value=_JSON_VALUES)
def test_drawn_json_document_exits_0_2_or_3(private_ws, capsys, document, value):
    relative, command = _DRAWN_DOCUMENTS[document]
    argv = command + ["--workspace", str(private_ws)]
    if document == "config":
        argv += ["--config", str(private_ws / relative)]
    # Put back what a run may change, so every example starts alike.
    kept = {p: p.read_bytes() for p in (private_ws / relative,
                                        private_ws / "manifest.json") if p.exists()}
    (private_ws / relative).write_text(json.dumps(value))
    try:
        assert main(argv) in (0, 2, 3)
    finally:
        (private_ws / relative).unlink()
        for path, data in kept.items():
            path.write_bytes(data)
    assert "internal error" not in capsys.readouterr().err


# Cells that the csv module, the decoder, the number parser or the instant
# parser each treat apart, written into the file as raw bytes.
_DRAWN_CELLS = st.sampled_from([
    b'"', b'x"y', b"\r", b"\x00", b"\xff", b"nan", b"-inf", b"1e309", b"",
    b"0001-01-01T00:00:00Z", b"9999-12-31T23:59:59Z", b"9999-12-31T23:59:59-05:00",
    b"0001-01-01T00:00:00+14:00", b"10000-01-01T00:00:00Z", b"1970-01-01"])


@pytest.fixture
def short_ws(tmp_path, tiny_bundle):
    """A workspace holding the first rows of each tiny input file."""
    keep = {"outages.csv": 60, "weather.csv": 60, "severe_events.csv": 12}
    seed_inputs(tmp_path, {
        name: b"".join(data.splitlines(keepends=True)[:1 + keep[name]])
        if name in keep else data for name, data in tiny_bundle.items()})
    return tmp_path


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(["outages.csv", "weather.csv", "stations.csv",
                             "severe_events.csv"]),
       edits=st.lists(st.tuples(st.integers(0, 100), st.integers(0, 8), _DRAWN_CELLS),
                      min_size=1, max_size=4),
       duplicates=st.lists(st.integers(0, 100), max_size=3))
def test_drawn_csv_cells_exit_0_2_or_3(short_ws, capsys, name, edits, duplicates):
    path = short_ws / "inputs" / name
    kept = path.read_bytes()
    header, *rows = kept.splitlines()
    rows = [row.split(b",") for row in rows]
    for row, column, cell in edits:
        cells = rows[row % len(rows)]
        cells[column % len(cells)] = cell
    rows += [rows[i % len(rows)] for i in duplicates]
    path.write_bytes(b"\n".join([header, *map(b",".join, rows)]) + b"\n")
    try:
        assert main(["run-all", "--workspace", str(short_ws)]) in (0, 2, 3)
    finally:
        path.write_bytes(kept)
    assert "internal error" not in capsys.readouterr().err


def _csv_rows(path):
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def _drop_column(path, column):
    rows = _csv_rows(path)
    i = rows[0].index(column)
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(r[:i] + r[i + 1:] for r in rows)


@pytest.mark.parametrize("sample_file, edit", [
    ("events_wind.csv", lambda p: _edit_first_row(p, "n_outages", "many")),
    ("events_wind.csv", lambda p: _edit_first_row(p, "n_outages", "nan")),
    ("events_wind.csv", lambda p: _drop_column(p, "total_restoration_hours")),
    ("fragility_wind.csv", lambda p: _edit_first_row(p, "intensity", "")),
    ("fragility_wind.csv", lambda p: _drop_column(p, "outage_count")),
], ids=["events-word", "events-nan", "events-missing-column",
        "fragility-empty", "fragility-missing-column"])
def test_malformed_sample_file_exits_3(private_ws, capsys, sample_file, edit):
    edit(private_ws / sample_file)
    for command in ("fit", "render"):
        assert main([command, "--workspace", str(private_ws)]) == 3
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert sample_file in err


def test_render_skips_blank_sample_rows_and_kinds_without_a_model(private_ws):
    """A blank line in a sample file is no sample; a zone with one fitted
    kind gets that kind's plot alone."""
    plots = private_ws / "plots"
    before = {p.name: p.read_bytes() for p in plots.glob("*.svg")}
    events = private_ws / "events_wind.csv"
    header, rest = events.read_bytes().split(b"\n", 1)
    events.write_bytes(header + b"\n\n" + rest)
    store = private_ws / "models_wind.json"
    doc = json.loads(store.read_text())
    del doc["zones"]["wind:0"]["restoration"]
    store.write_text(json.dumps(doc))
    shutil.rmtree(plots)
    assert main(["render", "--workspace", str(private_ws)]) == 0
    del before["restoration_wind_0.svg"]
    assert {p.name: p.read_bytes() for p in plots.glob("*.svg")} == before


def test_carriage_return_in_a_severe_event_id_survives_the_pipeline(private_ws):
    """A "\\r" inside a severe event id reaches fragility_*.csv through the
    linked windows; every stage that writes or reads it must agree."""
    severe = private_ws / "inputs" / "severe_events.csv"
    rows = _csv_rows(severe)
    for row in rows[1:]:
        row[0] = row[0][:2] + "\r" + row[0][2:]
    with severe.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows(rows)

    assert main(["run-all", "--workspace", str(private_ws)]) == 0
    assert main(["fit", "--force", "--workspace", str(private_ws)]) == 0
    with (private_ws / "fragility_wind.csv").open(newline="") as fh:
        linked = [row["source_event_ids"] for row in csv.DictReader(fh)]
    assert linked and all("\r" in ids for ids in linked)


# ---------------------------------------------------------------------------
# Clean-data reload
# ---------------------------------------------------------------------------

def _edit_first_row(path, column, value):
    header, first, *rest = path.read_text().split("\n")
    cells = first.split(",")
    cells[header.split(",").index(column)] = value
    path.write_text("\n".join([header, ",".join(cells), *rest]))


@pytest.mark.parametrize("column, value, config", [
    ("customers", "15000000", {"max_customers": 20_000_000}),
    ("end", "2019-12-31T00:00:00Z", {"max_outage_days": 1000.0}),
], ids=["customers", "duration"])
def test_clean_reload_keeps_every_row_ingest_kept(private_ws, tmp_path,
                                                  column, value, config):
    """A row within the configured caps but past the defaults reaches the
    events: the reload of clean_outages.csv applies no caps."""
    _edit_first_row(private_ws / "inputs" / "outages.csv", column, value)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    for command in ("ingest", "extract-events"):
        assert main([command, "--workspace", str(private_ws),
                     "--config", str(cfg)]) == 0
    with (private_ws / "clean_outages.csv").open() as fh:
        kept = sum(1 for _ in csv.DictReader(fh))
    with (private_ws / "events_global.csv").open() as fh:
        members = sum(int(row["n_outages"]) for row in csv.DictReader(fh))
    assert members == kept


def _outputs(ws):
    return {p.relative_to(ws).as_posix(): p.read_bytes()
            for p in ws.rglob("*") if p.is_file() and p.name != "manifest.json"}


def test_run_all_parses_each_file_once_and_reparse_agrees(private_ws,
                                                         monkeypatch):
    """Ingest hands its records to the later stages of the same command;
    a stage run on its own parses the clean files and writes the same."""
    calls = dict.fromkeys(["parse_outages", "parse_weather", "parse_severe",
                           "parse_stations"], 0)
    for name in calls:
        def counted(*args, _name=name, _parse=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _parse(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    assert main(["run-all", "--force", "--workspace", str(private_ws)]) == 0
    assert calls == dict.fromkeys(calls, 1)

    handed_over = _outputs(private_ws)
    for command in ("zones", "extract-events", "link", "fit"):
        assert main([command, "--force", "--workspace", str(private_ws)]) == 0
    assert calls["parse_outages"] == 4
    assert _outputs(private_ws) == handed_over


def test_clean_row_failing_a_rule_exits_3(private_ws, capsys):
    path = private_ws / "clean_outages.csv"
    with path.open() as fh:
        start = next(csv.DictReader(fh))["start"]
    for end in (start, "2000-01-01T00:00:00Z"):    # at, then before, its start
        _edit_first_row(path, "end", end)
        assert main(["extract-events", "--workspace", str(private_ws)]) == 3
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert "clean_outages.csv" in err and "1 row(s)" in err


# ---------------------------------------------------------------------------
# predict / synth wiring
# ---------------------------------------------------------------------------

def test_predict_writes_csv_and_geojson(tiny_ws):
    assert main(["predict", "--workspace", str(tiny_ws),
                 "--hazard", "precip", "--intensity", "1.5"]) == 0
    assert (tiny_ws / "predictions_precipitation_1.5.csv").exists()
    assert (tiny_ws / "choropleth_precipitation_1.5.geojson").exists()


_LIGHT_PATH = """
import sys
from gridres.cli import main
reference, fresh = sys.argv[1:]
assert main(["predict", "--workspace", reference, "--hazard", "wind",
             "--intensity", "35"]) == 0
assert main(["render", "--workspace", reference]) == 0
assert main(["run-all", "--workspace", fresh]) == 0
assert "numpy.linalg" not in sys.modules, "numpy was loaded"
"""


def test_predict_render_and_fresh_rerun_do_not_load_numpy(private_ws, tmp_path):
    """numpy loads on first use. Its __init__ imports numpy.linalg, while
    the unloaded stub sits under the name "numpy" itself."""
    materialize_reference_workspace(tmp_path / "reference")
    assert main(["run-all", "--workspace", str(private_ws)]) == 0
    src = str(Path(gridres.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", _LIGHT_PATH,
                             str(tmp_path / "reference"), str(private_ws)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stderr.count("up to date, skipping") >= 5


_ENTRY_POINT = """
import json, runpy, sys
try:
    runpy.run_module("gridres.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("gridres")),
                  "numpy.linalg" in sys.modules]))
"""
LIGHT_MODULES = ["gridres", "gridres.config", "gridres.errors", "gridres.runner",
                 "gridres.workspace"]


def _entry_point(*argv):
    """One command run as `python -m gridres.cli` runs it: its exit code, the
    gridres modules it loaded, and whether it loaded numpy."""
    src = str(Path(gridres.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", _ENTRY_POINT, *argv], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_fresh_commands_through_the_entry_point_load_no_stage_module(private_ws,
                                                                     tmp_path):
    """A command whose stages are all fresh checks that before any stage
    module loads; a cold predict still loads neither synth nor reference."""
    reference = str(tmp_path / "reference")
    materialize_reference_workspace(reference)
    predict = ["predict", "--workspace", reference, "--hazard", "wind",
               "--intensity", "35"]
    code, modules, _ = _entry_point(*predict)
    assert code == 0 and "gridres.cli" in modules
    assert not {"gridres.synth", "gridres.reference"} & set(modules)
    assert _entry_point("render", "--workspace", reference)[0] == 0
    assert main(["run-all", "--workspace", str(private_ws)]) == 0
    for command in (predict, ["render", "--workspace", reference],
                    ["run-all", "--workspace", str(private_ws)]):
        assert _entry_point(*command) == [0, LIGHT_MODULES, False], command[0]


def test_console_script_takes_the_light_path():
    """The installed `gridres` script is the same main, in a module that a
    fresh command loads anyway."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["gridres"]
    module, _, name = target.partition(":")
    assert module in LIGHT_MODULES
    assert getattr(importlib.import_module(module), name) is main


def test_lazy_numpy_is_the_one_already_imported():
    """A numpy imported before gridres is used as it is, not loaded twice."""
    import numpy
    assert gridres._lazy("numpy") is numpy
    src = str(Path(gridres.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", "import numpy, gridres; assert gridres.np is numpy"],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_lazy_missing_module_fails_at_import():
    with pytest.raises(ModuleNotFoundError, match="gridres_no_such_module"):
        gridres._lazy("gridres_no_such_module")


def test_synth_stage_writes_and_then_skips(tmp_path, tiny_bundle, monkeypatch,
                                           capsys):
    monkeypatch.setattr(
        synth, "SynthSpec",
        lambda seed: dataclasses.replace(TINY_SPEC, seed=seed))
    assert main(["synth", "--workspace", str(tmp_path), "--seed", "4242"]) == 0
    assert (tmp_path / "inputs" / "outages.csv").read_bytes() \
        == tiny_bundle["outages.csv"]
    assert (tmp_path / "truth.json").read_bytes() == tiny_bundle["truth.json"]
    capsys.readouterr()
    assert main(["synth", "--workspace", str(tmp_path), "--seed", "4242"]) == 0
    assert "up to date" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run-all
# ---------------------------------------------------------------------------

def test_run_all_summary_and_truth_comparison(tiny_ws, capsys):
    assert main(["run-all", "--workspace", str(tiny_ws)]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].startswith("stage")
    stages = [line.split()[0] for line in lines[1:]]
    assert stages[:5] == ["ingest", "zones", "extract-events", "link", "fit"]
    assert "truth-comparison" in stages

    # tight recovery bounds only hold at full scale; here check structure
    doc = json.loads((tiny_ws / "truth_comparison.json").read_text())
    assert 0.0 <= doc["max_fragility_b_rel_error"] < 1.0
    assert doc["max_restoration_c_rel_error"] >= 0.0
    for zone_doc in doc["zones"].values():
        assert zone_doc["fragility_b"]["rel_error"] >= 0.0
        assert zone_doc["restoration_c"]["rel_error"] >= 0.0


def test_truth_comparison_alone_writes_what_run_all_writes(private_ws, tiny_outputs,
                                                          capsys):
    """The fixture ran truth-comparison as a command of its own."""
    compared = private_ws / "truth_comparison.json"
    alone = compared.read_bytes()
    assert alone == tiny_outputs["truth_comparison.json"]

    def reran():
        assert main(["truth-comparison", "--workspace", str(private_ws)]) == 0
        return "up to date" not in capsys.readouterr().err

    assert not reran()
    truth = private_ws / "truth.json"
    doc = json.loads(truth.read_text())
    doc["zones"]["wind:0"]["fragility"]["b"] *= 1.5
    truth.write_text(json.dumps(doc))
    assert reran()
    assert compared.read_bytes() != alone
    assert not reran()
    compared.unlink()
    assert reran()
    assert compared.is_file()


def _truth_errors_by_station(ws):
    truth = json.loads((ws / "truth.json").read_text())["zones"]
    compared = json.loads((ws / "truth_comparison.json").read_text())["zones"]
    return {(zone["hazard_class"], zone["station_id"]): compared[zone_id]
            for zone_id, zone in truth.items()}


def _params_by_station(ws):
    """Each fitted model's params, keyed by (class, station, kind) through the
    station_id of its zone in zones_<class>.geojson."""
    params = {}
    for hazard_class in ("wind", "precipitation"):
        features = json.loads((ws / f"zones_{hazard_class}.geojson").read_text())["features"]
        station = {f["properties"]["zone_id"]: f["properties"]["station_id"]
                   for f in features}
        zones = json.loads((ws / f"models_{hazard_class}.json").read_text())["zones"]
        params.update({(hazard_class, station[zone_id], kind): record["params"]
                       for zone_id, kinds in zones.items()
                       for kind, record in kinds.items()})
    return params


def test_truth_comparison_pairs_zones_by_station(private_ws, tmp_path, tiny_bundle):
    """Zone ids follow the row order of stations.csv; reversing its data rows
    renumbers the zones but fits each station's zone to the same params and
    pairs it with the same truth."""
    header, *rows = tiny_bundle["stations.csv"].splitlines(keepends=True)
    reversed_ws = tmp_path / "reversed"
    seed_inputs(reversed_ws, {**tiny_bundle,
                              "stations.csv": b"".join([header, *rows[::-1]])})
    for ws in (private_ws, reversed_ws):
        assert main(["run-all", "--workspace", str(ws)]) == 0
    assert (reversed_ws / "zones_wind.geojson").read_bytes() \
        != (private_ws / "zones_wind.geojson").read_bytes()
    params = _params_by_station(private_ws)
    assert len(params) == 12  # 6 zones x (fragility + restoration)
    assert _params_by_station(reversed_ws) == params
    errors = _truth_errors_by_station(private_ws)
    assert all(errors.values())
    assert _truth_errors_by_station(reversed_ws) == errors


# ---------------------------------------------------------------------------
# Metamorphic relations: input changes that must leave outputs as they are
# ---------------------------------------------------------------------------

_DATA_FILES = ("outages.csv", "weather.csv", "severe_events.csv")
_INSTANT_COLUMNS = {"outages.csv": ("start", "end"), "weather.csv": ("timestamp",),
                    "severe_events.csv": ("start", "end")}


def _run_all_outputs(root, bundle, tmp_path):
    """The outputs of run-all on `bundle`, with one scenario per hazard."""
    seed_inputs(root, bundle)
    cfg = tmp_path / "scenarios.json"
    cfg.write_text(json.dumps({"scenarios": [
        WIND_20, {"hazard": "precipitation", "intensity": 1.5}]}))
    assert main(["run-all", "--workspace", str(root), "--config", str(cfg)]) == 0
    return {name: data for name, data in _outputs(root).items()
            if not name.startswith("inputs/")}


@pytest.fixture(scope="module")
def tiny_outputs(tiny_bundle, tmp_path_factory):
    root = tmp_path_factory.mktemp("metamorphic")
    return _run_all_outputs(root / "ws", tiny_bundle, root)


def test_shuffled_data_rows_change_only_clean_outages(tiny_bundle, tiny_outputs,
                                                      tmp_path):
    """clean_outages.csv keeps input order; every other output is sorted
    or aggregated, so the order of the data rows does not reach it."""
    def shuffled(data):
        header, *rows = data.splitlines(keepends=True)
        random.Random(7).shuffle(rows)
        return b"".join([header, *rows])
    outputs = _run_all_outputs(tmp_path / "ws", {
        name: shuffled(data) if name in _DATA_FILES else data
        for name, data in tiny_bundle.items()}, tmp_path)
    assert outputs.keys() == tiny_outputs.keys()
    assert {name for name in outputs if outputs[name] != tiny_outputs[name]} \
        == {"clean_outages.csv"}


def test_whole_day_time_shift_keeps_models_predictions_and_truth(tiny_bundle,
                                                                 tiny_outputs,
                                                                 tmp_path):
    """Every instant in the inputs ten years (3,653 days) later: durations,
    times of day and the weather each outage meets are unchanged."""
    def shifted(name, data):
        rows = list(csv.reader(io.StringIO(data.decode())))
        at = [rows[0].index(column) for column in _INSTANT_COLUMNS[name]]
        for row in rows[1:]:
            for i in at:
                row[i] = format_instant(parse_instant(row[i]) + timedelta(days=3653))
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        return out.getvalue().encode()
    outputs = _run_all_outputs(tmp_path / "ws", {
        name: shifted(name, data) if name in _DATA_FILES else data
        for name, data in tiny_bundle.items()}, tmp_path)
    kept = [name for name in tiny_outputs if name.startswith(("models_", "predictions_"))
            or name == "truth_comparison.json"]
    assert len(kept) == 5
    assert outputs["clean_outages.csv"] != tiny_outputs["clean_outages.csv"]
    assert {name: outputs[name] for name in kept} \
        == {name: tiny_outputs[name] for name in kept}


def test_run_all_rows_name_each_scenario_by_its_stem(private_ws, tmp_path,
                                                    capsys):
    long_label = "a long design storm label for the summary"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenarios": [
        WIND_20, dict(WIND_20, label="design storm"),
        dict(WIND_20, label=long_label)]}))
    assert main(["run-all", "--workspace", str(private_ws),
                 "--config", str(cfg)]) == 0
    header, *lines = capsys.readouterr().out.strip().split("\n")
    width = header.index("status")
    names = [line[:width].rstrip() for line in lines]
    assert all(len(name) + 2 <= width for name in names)
    predict = {name: line[width:].split(None, 1)
               for name, line in zip(names, lines) if name.startswith("predict")}
    assert list(predict) == ["predict wind_20", "predict wind_20_design-storm",
                             "predict wind_20_a-long-design-storm-label-for-the-summary"]
    assert all(status == "ok" for status, _ in predict.values())
    details = [detail for _, detail in predict.values()]
    assert len(set(details)) == 3
    assert "'design storm'" in details[1] and repr(long_label) in details[2]


def test_empty_severe_completes_with_scenario_skip(tmp_path, tiny_bundle,
                                                   capsys):
    seed_inputs(tmp_path, tiny_bundle)
    header = tiny_bundle["severe_events.csv"].split(b"\n")[0]
    (tmp_path / "inputs" / "severe_events.csv").write_bytes(header + b"\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"scenarios": [{"hazard": "wind", "intensity": 20.0}]}))

    assert main(["run-all", "--workspace", str(tmp_path),
                 "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert "skipped" in captured.out
    assert "skipping fragility fit" in captured.err

    # restoration models still fitted from the full event set
    doc = json.loads((tmp_path / "models_wind.json").read_text())
    for kinds in doc["zones"].values():
        assert "restoration" in kinds
        assert "fragility" not in kinds
    assert not (tmp_path / "choropleth_wind_20.geojson").exists()


def _fail_both_fits_in_wind_zone_0(ws, monkeypatch):
    def failing(fit):
        def wrapped(samples, **kwargs):
            if kwargs["zone_id"] == "wind:0":
                raise FitError("no usable samples")
            return fit(samples, **kwargs)
        return wrapped

    for name in ("fit_exponential", "fit_restoration"):
        monkeypatch.setattr(cli, name, failing(getattr(cli, name)))
    (ws / "models_wind.json").unlink()  # so fit reruns
    return "wind", "20"


def _drop_precipitation_stations(ws, monkeypatch):
    # models_precipitation.json stays behind from the earlier run
    stations = ws / "inputs" / "stations.csv"
    lines = stations.read_text().splitlines(keepends=True)
    stations.write_text("".join(line for line in lines
                                if "precipitation" not in line))
    return "precip", "2.5"


@pytest.mark.parametrize("setup", [_fail_both_fits_in_wind_zone_0,
                                   _drop_precipitation_stations],
                         ids=["zone-without-fits", "class-without-stations"])
def test_unserved_scenario_is_skipped_by_run_all_and_fails_predict(
        private_ws, tmp_path, capsys, monkeypatch, setup):
    hazard, intensity = setup(private_ws, monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenarios": [{"hazard": hazard,
                                              "intensity": float(intensity)}]}))
    assert main(["run-all", "--workspace", str(private_ws),
                 "--config", str(cfg)]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert [row.split()[:3] for row in rows if row.startswith("predict")] \
        == [["predict", f"{canonical_hazard(hazard)}_{intensity}", "skipped"]]

    assert main(["predict", "--hazard", hazard, "--intensity", intensity,
                 "--workspace", str(private_ws)]) == 3
    assert "internal error" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_pipeline_outputs_byte_identical(tmp_path, tiny_bundle):
    outputs = {}
    for run in ("a", "b"):
        root = tmp_path / run
        seed_inputs(root, tiny_bundle)
        for cmd in (["ingest"], ["zones"], ["extract-events"], ["link"],
                    ["fit"],
                    ["predict", "--hazard", "wind", "--intensity", "20"],
                    ["render"]):
            assert main(cmd + ["--workspace", str(root)]) == 0
        outputs[run] = {
            p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*")
            if p.is_file() and p.name != "manifest.json"
        }
    assert outputs["a"].keys() == outputs["b"].keys()
    for name in outputs["a"]:
        assert outputs["a"][name] == outputs["b"][name], f"{name} differs"


# ---------------------------------------------------------------------------
# Documentation
# ---------------------------------------------------------------------------

def test_readme_input_table_matches_cli_inputs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Inputs\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `([^`]+)` \|", section, re.MULTILINE))
    assert documented == {Path(p).name for p in
                          [*cli.INPUTS.values(), Config().boundary_path]}


def _readme_section(title):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_config_example_parses_and_sets_every_field():
    example = re.search(r"```json\n(.*?)```", _readme_section("Configuration"),
                        re.DOTALL).group(1)
    parse_config(example)
    assert set(json.loads(example)) == {f.name for f in dataclasses.fields(Config)}


def test_readme_freshness_table_matches_stage_reads(tiny_ws, tmp_path,
                                                    monkeypatch):
    """The table lists, per stage, the config fields that its runs recorded
    reading: those of the tiny pipeline, and of a synth run."""
    monkeypatch.setattr(
        synth, "SynthSpec",
        lambda seed: dataclasses.replace(TINY_SPEC, seed=seed))
    assert main(["synth", "--workspace", str(tmp_path)]) == 0
    recorded: dict[str, set[str]] = {}
    for ws in (tiny_ws, tmp_path):
        manifest = json.loads((ws / "manifest.json").read_text())
        for key, record in manifest["stages"].items():
            recorded.setdefault(key.split("_")[0], set()).update(
                field.removeprefix("__config__.") for field in record["inputs"]
                if field.startswith("__config__."))
    rows = dict(re.findall(r"^\| `([a-z-]+)` \| (.*) \|$",
                           _readme_section("Configuration"), re.MULTILINE))
    assert set(rows) == set(recorded) == set(cli.STAGES)
    for name, cell in rows.items():
        documented = {value for value in re.findall(r"`([^`]+)`", cell)
                      if not value.startswith("-")}
        assert documented == recorded[name], name
