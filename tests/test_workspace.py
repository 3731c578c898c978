"""Workspace hashing and stage manifest behavior."""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gridres
from gridres import workspace
from gridres.errors import MissingInputError, ValidationError
from gridres.workspace import RACY_WINDOW_NS, Workspace, peak_rss_mb, sha256_bytes


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
        ws.read_bytes("absent.csv")


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


# The current non-file hashes a stage runner passes to stage_fresh, and
# stores next to its recorded reads: code, arguments, a config field read.
META = {"__code__": "c" * 64, "__args__": "a" * 64, "__config__.mode": "k" * 64}


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
    ws.record_stage("demo", {**ws.reads, **META}, ws.writes, 0.25, peak_rss_mb())


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
    assert not ws.stage_fresh("demo", {**META, "__config__.mode": "0" * 64})
    # a value the record does not hold is not compared; one it holds is
    assert ws.stage_fresh("demo", {**META, "__config__.other": "0" * 64})
    assert not ws.stage_fresh("demo", {k: v for k, v in META.items()
                                       if k != "__config__.mode"})

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
    outputs = ws.load_manifest()["stages"]["demo"]["outputs"]
    assert ws._changed(outputs) == {"out.csv": sha256_bytes(b"tampered\n")}

    ws.path("out.csv").unlink()
    assert not ws.stage_fresh("demo", META)
    assert ws._changed(outputs) == {"out.csv": None}


def test_record_without_code_hash_is_stale(tmp_path):
    ws = Workspace(tmp_path)
    ws.write_bytes("in.csv", b"a,b\n1,2\n")
    ws.reads.clear()
    ws.read_bytes("in.csv")
    ws.record_stage("demo", dict(ws.reads), {}, 0.0, 0.0)
    assert not ws.stage_fresh("demo", META)


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
    assert manifest["stages"]["demo"]["peak_rss_mb"] > 0
    assert manifest["stages"]["demo"]["peak_rss_rise_mb"] >= 0
    manifest["stages"]["demo"]["completed_at"] = "1999-01-01T00:00:00Z"
    manifest["stages"]["demo"]["duration_s"] = 9999.0
    manifest["stages"]["demo"]["peak_rss_mb"] = 123456.7
    manifest["stages"]["demo"]["peak_rss_rise_mb"] = 4321.0
    ws.save_manifest(manifest)
    assert ws.stage_fresh("demo", META)
    del manifest["stages"]["demo"]["duration_s"]
    del manifest["stages"]["demo"]["peak_rss_mb"]
    del manifest["stages"]["demo"]["peak_rss_rise_mb"]
    ws.save_manifest(manifest)
    assert ws.stage_fresh("demo", META)


# Holds 100 MB, then execs a fresh interpreter that prints its peak_rss_mb()
# and its ru_maxrss in MB.
_EXEC_AFTER_PEAK = """
import os, sys
held = b"x" * (100 << 20)
os.execv(sys.executable, [sys.executable, "-c",
         "import resource; from gridres.workspace import peak_rss_mb; "
         "print(peak_rss_mb(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)"])
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc")
def test_peak_rss_is_the_process_own_after_exec():
    """Linux carries ru_maxrss across exec, so a command started by a larger
    process would report that process's peak; VmHWM starts afresh."""
    src = str(Path(gridres.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", _EXEC_AFTER_PEAK], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    peak, ru_maxrss = map(float, result.stdout.split())
    assert ru_maxrss > 100.0
    assert 0.0 < peak < 60.0


def test_peak_rss_falls_back_to_ru_maxrss_without_proc(monkeypatch):
    def unreadable(*args, **kwargs):
        raise OSError("no /proc here")

    monkeypatch.setattr(workspace, "open", unreadable, raising=False)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert before <= peak_rss_mb() <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


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


# -- the stat-checked digest table ------------------------------------------

def _count_hashes(monkeypatch) -> list[str]:
    """Route sha256_file through a recorder; returns the names it hashes."""
    hashed, real = [], workspace.sha256_file
    monkeypatch.setattr(workspace, "sha256_file",
                        lambda path: hashed.append(Path(path).name) or real(path))
    return hashed


def _clock_past_window(monkeypatch):
    """Run the table's clock two racy windows ahead, so files written just
    now count as settled."""
    monkeypatch.setattr(workspace, "time_ns",
                        lambda: time.time_ns() + 2 * RACY_WINDOW_NS)


def _fresh_and_saved(ws) -> bool:
    """stage_fresh on the demo stage, then the update_manifest({}) call
    that run_stage makes to save the digests a check learned."""
    fresh = ws.stage_fresh("demo", META)
    if ws.added:
        ws.update_manifest({})
    return fresh


def test_same_size_rewrite_inside_the_racy_window_is_stale(tmp_path, monkeypatch):
    # A filesystem whose timestamps have not ticked since the files were
    # written: every mtime and ctime reads as one instant, and the clock
    # stands half a window past it.
    tick, real_stat = time.time_ns(), workspace._stat
    monkeypatch.setattr(workspace, "_stat",
                        lambda path: [real_stat(path)[0], tick, tick, *real_stat(path)[3:]])
    monkeypatch.setattr(workspace, "time_ns", lambda: tick + RACY_WINDOW_NS // 2)
    hashed = _count_hashes(monkeypatch)
    ws = Workspace(tmp_path)
    ws.write_bytes("in.csv", b"a,b\n1,2\n")
    _record_demo(ws)
    assert _fresh_and_saved(ws)
    assert ws.load_manifest()["files"] == {}
    # In place and the same size, so the stat above stays the same.
    ws.path("in.csv").write_bytes(b"a,b\n1,3\n")
    assert not _fresh_and_saved(ws)
    assert hashed == ["in.csv", "out.csv", "in.csv"]


def test_touch_without_change_stays_fresh_after_one_rehash(tmp_path, monkeypatch):
    _clock_past_window(monkeypatch)
    hashed = _count_hashes(monkeypatch)
    ws = Workspace(tmp_path)
    ws.write_bytes("in.csv", b"x\n")
    _record_demo(ws)
    assert _fresh_and_saved(ws)
    assert hashed == ["in.csv", "out.csv"]
    assert set(ws.load_manifest()["files"]) == {"in.csv", "out.csv"}
    hashed.clear()
    assert _fresh_and_saved(ws)
    assert hashed == []

    mtime = os.stat(ws.path("in.csv")).st_mtime_ns + 10**9
    os.utime(ws.path("in.csv"), ns=(mtime, mtime))  # touch, one second on
    assert _fresh_and_saved(ws)
    assert hashed == ["in.csv"]
    hashed.clear()
    assert _fresh_and_saved(ws)
    assert hashed == []


def test_rewrite_with_its_mtime_set_back_is_stale(tmp_path, monkeypatch):
    _clock_past_window(monkeypatch)
    ws = Workspace(tmp_path)
    ws.write_bytes("in.csv", b"a,b\n1,2\n")
    _record_demo(ws)
    assert _fresh_and_saved(ws)
    path = ws.path("in.csv")
    old = os.stat(path)
    assert ws.load_manifest()["files"]["in.csv"][:5] == workspace._stat(path)
    time.sleep(0.05)  # past the kernel's timestamp tick, so the ctime moves
    path.write_bytes(b"a,b\n1,3\n")
    os.utime(path, ns=(old.st_atime_ns, old.st_mtime_ns))
    new = os.stat(path)
    assert (new.st_size, new.st_mtime_ns, new.st_ino, new.st_dev) == (
        old.st_size, old.st_mtime_ns, old.st_ino, old.st_dev)
    assert new.st_ctime_ns != old.st_ctime_ns
    assert not _fresh_and_saved(ws)


def test_file_rewritten_while_hashed_stays_out_of_the_table(tmp_path, monkeypatch):
    _clock_past_window(monkeypatch)
    real, writes = workspace.sha256_file, [b"a,b\n1,3\n"]

    def hash_then_rewrite(path):
        digest = real(path)
        if Path(path).name == "in.csv" and writes:
            Path(path).write_bytes(writes.pop())  # lands while the file is read
        return digest

    monkeypatch.setattr(workspace, "sha256_file", hash_then_rewrite)
    ws = Workspace(tmp_path)
    ws.write_bytes("in.csv", b"a,b\n1,2\n")
    _record_demo(ws)
    assert _fresh_and_saved(ws)
    assert set(ws.load_manifest()["files"]) == {"out.csv"}
    assert not _fresh_and_saved(ws)


def test_stage_fresh_writes_nothing(tmp_path, monkeypatch):
    _clock_past_window(monkeypatch)
    ws = Workspace(tmp_path)
    ws.write_bytes("in.csv", b"x\n")
    _record_demo(ws)
    manifest = ws.path("manifest.json")
    before, inode = manifest.read_bytes(), manifest.stat().st_ino
    assert ws.stage_fresh("demo", META)
    assert set(ws.added) == {"in.csv", "out.csv"}
    assert manifest.read_bytes() == before
    assert manifest.stat().st_ino == inode


@pytest.mark.parametrize("table", [
    "deleted", None, [], "files", 7, {"in.csv": "0" * 64}, {"in.csv": [1, 2]},
    "stat-only", "stat-and-number", "stat-and-two-digests",
], ids=["deleted", "null", "list", "string", "number", "entry-string",
        "entry-short", "entry-stat-only", "entry-number-digest",
        "entry-too-long"])
def test_bad_digest_table_gives_the_freshness_of_none(tmp_path, monkeypatch, table):
    _clock_past_window(monkeypatch)
    ws = Workspace(tmp_path)
    ws.write_bytes("in.csv", b"a,b\n1,2\n")
    _record_demo(ws)
    stat = workspace._stat(ws.path("in.csv"))
    table = {"stat-only": {"in.csv": stat},
             "stat-and-number": {"in.csv": stat + [7]},
             "stat-and-two-digests": {"in.csv": stat + ["0" * 64, "0" * 64]},
             }.get(table, table) if isinstance(table, str) else table
    manifest = ws.load_manifest()
    del manifest["files"]
    if table != "deleted":
        manifest["files"] = table
    ws.save_manifest(manifest)
    assert _fresh_and_saved(ws)
    assert isinstance(json.loads(ws.path("manifest.json").read_text())["files"], dict)
    ws.path("in.csv").write_bytes(b"a,b\n1,3\n")
    assert not _fresh_and_saved(ws)


# Records argv[3] stages named argv[2]0, argv[2]1, ... in the workspace at
# argv[1], each with a digest-table entry of the same name.
_RECORDER = """
import sys
from gridres.workspace import Workspace
ws = Workspace(sys.argv[1])
for i in range(int(sys.argv[3])):
    ws.added[f"{sys.argv[2]}{i}"] = [0, 0, 0, 0, 0, "0" * 64]
    ws.record_stage(f"{sys.argv[2]}{i}", {}, {}, 0.0, 0.0)
"""


def test_concurrent_stage_records_are_all_kept(tmp_path):
    src = str(Path(gridres.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    procs = [subprocess.Popen([sys.executable, "-c", _RECORDER, str(tmp_path),
                               name, "150"], env=env) for name in ("a", "b")]
    assert [proc.wait(timeout=120) for proc in procs] == [0, 0]
    manifest = Workspace(tmp_path).load_manifest()
    assert set(manifest["stages"]) == set(manifest["files"]) == {
        f"{name}{i}" for name in ("a", "b") for i in range(150)}
    assert not list(tmp_path.glob("*.tmp"))
