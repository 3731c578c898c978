"""Workspace hashing and stage manifest behavior."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridres
from gridres.errors import MissingInputError, ValidationError
from gridres.workspace import Workspace, sha256_bytes


def test_sha256_matches_hashlib():
    assert sha256_bytes(b"abc") == hashlib.sha256(b"abc").hexdigest()


def test_write_read_round_trip(tmp_path):
    ws = Workspace(tmp_path)
    ws.write_bytes("sub/dir/file.bin", b"\x00\x01payload")
    assert ws.read_bytes("sub/dir/file.bin") == b"\x00\x01payload"
    ws.write_text("note.txt", "hello\n")
    assert ws.read_bytes("note.txt") == b"hello\n"


def test_require_missing_is_exit2_error(tmp_path):
    ws = Workspace(tmp_path)
    with pytest.raises(MissingInputError):
        ws.require("absent.csv")


def test_writes_record_the_digest_of_the_bytes_written(tmp_path):
    ws = Workspace(tmp_path)
    ws.write_bytes("a.csv", b"one\n")
    ws.write_text("b.txt", "two\n")
    ws.write_bytes("a.csv", b"three\n")
    assert ws.writes == {"a.csv": sha256_bytes(b"three\n"),
                         "b.txt": sha256_bytes(b"two\n")}


def test_write_needs_no_fixed_temp_name_and_follows_the_umask(tmp_path):
    ws = Workspace(tmp_path)
    (tmp_path / "a.csv.tmp").mkdir()  # a stray directory at a fixed temp name
    ws.write_bytes("a.csv", b"one\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "a.csv.tmp"]
    umask = os.umask(0o022)
    os.umask(umask)
    assert (tmp_path / "a.csv").stat().st_mode & 0o777 == 0o666 & ~umask


def test_failed_write_removes_its_temp_file(tmp_path):
    ws = Workspace(tmp_path)
    (tmp_path / "d.csv").mkdir()  # os.replace cannot put a file there
    with pytest.raises(OSError):
        ws.write_bytes("d.csv", b"one\n")
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]
    assert "d.csv" not in ws.writes


# The non-file hashes a stage runner stores next to its recorded reads.
META = {"__code__": "c" * 64, "__config__": "k" * 64}


def _record_demo(ws, *probes):
    """Run a stage body's reads the way run_stage does: read in.csv, probe
    `probes`, write out.csv, record what was read and written."""
    ws.reads.clear()
    ws.writes.clear()
    ws.read_bytes("in.csv")
    for relative in probes:
        if ws.exists(relative):
            ws.read_bytes(relative)
    ws.write_bytes("out.csv", b"result\n")
    ws.record_stage("demo", {**ws.reads, **META}, ws.writes, 0.25)


def test_reads_are_recorded_by_relative_path(tmp_path):
    ws = Workspace(tmp_path)
    ws.write_bytes("sub/in.csv", b"x\n")
    ws.read_bytes("sub/in.csv")
    assert not ws.exists("gone.csv")
    assert ws.reads == {"sub/in.csv": sha256_bytes(b"x\n"), "gone.csv": None}
    # An absolute path inside the workspace is keyed relative to it, one
    # outside by its resolved path.
    assert ws.key(str(tmp_path / "sub" / "in.csv")) == "sub/in.csv"
    outside = tmp_path.parent / "elsewhere.geojson"
    assert ws.key(str(outside)) == str(outside.resolve())


def test_read_text_maps_bad_utf8_to_validation_error(tmp_path):
    ws = Workspace(tmp_path)
    ws.write_bytes("bad.json", b"\xff{}")
    with pytest.raises(ValidationError, match="bad.json"):
        ws.read_text("bad.json")
    ws.write_text("good.json", "{\"é\": 1}")
    assert ws.read_text("good.json") == "{\"é\": 1}"


def test_stage_freshness_lifecycle(tmp_path):
    ws = Workspace(tmp_path)
    ws.write_bytes("in.csv", b"a,b\n1,2\n")
    assert not ws.stage_fresh("demo", META)
    _record_demo(ws)
    assert ws.stage_fresh("demo", META)
    assert not ws.stage_fresh("demo", {**META, "__config__": "0" * 64})

    # input content change invalidates; restoring the content revalidates
    ws.write_bytes("in.csv", b"a,b\n1,3\n")
    assert ws.hash_inputs(["in.csv", "absent.csv"]) == {
        "in.csv": sha256_bytes(b"a,b\n1,3\n"), "absent.csv": None}
    assert not ws.stage_fresh("demo", META)
    ws.write_bytes("in.csv", b"a,b\n1,2\n")
    assert ws.stage_fresh("demo", META)

    # output tampering invalidates even with original inputs
    ws.write_bytes("out.csv", b"tampered\n")
    assert not ws.stage_fresh("demo", META)
    problems = ws.verify()
    assert len(problems) == 1 and "out.csv" in problems[0]

    ws.path("out.csv").unlink()
    assert not ws.stage_fresh("demo", META)
    assert any("missing output" in p for p in ws.verify())


def test_probed_file_appearing_or_vanishing_invalidates(tmp_path):
    ws = Workspace(tmp_path)
    ws.write_bytes("in.csv", b"x\n")
    _record_demo(ws, "optional.csv")
    assert ws.load_manifest()["stages"]["demo"]["inputs"]["optional.csv"] is None
    assert ws.stage_fresh("demo", META)
    ws.write_bytes("optional.csv", b"now here\n")
    assert not ws.stage_fresh("demo", META)

    _record_demo(ws, "optional.csv")
    assert ws.stage_fresh("demo", META)
    ws.path("optional.csv").unlink()
    assert not ws.stage_fresh("demo", META)


def test_manifest_timestamps_not_compared(tmp_path):
    ws = Workspace(tmp_path)
    ws.write_bytes("in.csv", b"x\n")
    _record_demo(ws)

    manifest = ws.load_manifest()
    assert manifest["stages"]["demo"]["duration_s"] == 0.25
    manifest["stages"]["demo"]["completed_at"] = "1999-01-01T00:00:00Z"
    manifest["stages"]["demo"]["duration_s"] = 9999.0
    ws.save_manifest(manifest)
    assert ws.stage_fresh("demo", META)
    del manifest["stages"]["demo"]["duration_s"]
    ws.save_manifest(manifest)
    assert ws.stage_fresh("demo", META)


def test_manifest_is_valid_json(tmp_path):
    ws = Workspace(tmp_path)
    ws.write_bytes("in.csv", b"x\n")
    _record_demo(ws)
    doc = json.loads((tmp_path / "manifest.json").read_text())
    assert "tool_version" not in doc
    assert doc["stages"]["demo"]["outputs"]["out.csv"] == sha256_bytes(b"result\n")
    assert doc["stages"]["demo"]["inputs"] == {
        "in.csv": sha256_bytes(b"x\n"), **META}


def test_directory_in_place_of_a_file_counts_as_absent(tmp_path):
    ws = Workspace(tmp_path)
    ws.write_bytes("in.csv", b"x\n")
    _record_demo(ws, "optional.csv")
    ws.path("in.csv").unlink()
    ws.path("in.csv").mkdir()
    ws.path("optional.csv").mkdir()
    assert not ws.stage_fresh("demo", META)
    assert ws.hash_inputs(["in.csv"]) == {"in.csv": None}
    assert not ws.exists("optional.csv")
    with pytest.raises(MissingInputError, match="in.csv"):
        ws.read_bytes("in.csv")


# Records argv[3] stages named argv[2]0, argv[2]1, ... in the workspace at
# argv[1].
_RECORDER = """
import sys
from gridres.workspace import Workspace
ws = Workspace(sys.argv[1])
for i in range(int(sys.argv[3])):
    ws.record_stage(f"{sys.argv[2]}{i}", {}, {}, 0.0)
"""


def test_concurrent_stage_records_are_all_kept(tmp_path):
    src = str(Path(gridres.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    procs = [subprocess.Popen([sys.executable, "-c", _RECORDER, str(tmp_path),
                               name, "150"], env=env) for name in ("a", "b")]
    assert [proc.wait(timeout=120) for proc in procs] == [0, 0]
    assert set(Workspace(tmp_path).load_manifest()["stages"]) == {
        f"{name}{i}" for name in ("a", "b") for i in range(150)}
    assert not list(tmp_path.glob("*.tmp"))
