"""Workspace directory handling: recorded reads, atomic writes and a stage
manifest.

A workspace is a directory with an `inputs/` subdirectory for raw data and
a flat collection of stage outputs at its root. Stages read and write only
through the Workspace, which records the sha256 of what they touch: of the
bytes each read returns and each write stores, so no output is read back to
be hashed. `manifest.json` keeps, per stage, the sha256 of every file read
(null for one found absent; anything but a regular file counts as absent),
keyed by workspace-relative path, of each input the caller keys with `__`
(code, arguments, each config field read), and of every output. Hence:

  - reruns with unchanged inputs are no-ops (unless forced), and
  - `stage_fresh` calls a stage stale when a recorded output is missing
    or no longer hashes as recorded.

`manifest.json` also maps keys at "files" to [size, mtime_ns, ctime_ns,
inode, device, sha256], and `hash_inputs` reuses a digest while all five
stat fields match. A digest enters only if the stat was the same before
and after hashing and its mtime and ctime were older than RACY_WINDOW_NS
(git's racy-file rule), so no later write can leave that stat behind; a
file just written is racy, so the writer never feeds the table. A table
or entry that is not well formed counts as missing, never as an error:
records still hold content digests, and the table only saves reads.
`stage_fresh` never writes: the digests it learns stay in `added` until
`update_manifest` saves them, with a stage record or on their own.

Every write lands in a temp file first and is renamed into place, so a
crash cannot leave a half-written output that hashes differently than the
manifest claims. Recording a stage holds an exclusive flock on the
workspace directory while it reads, changes and rewrites the manifest, so
concurrent commands on one workspace keep each other's records.

`parsed` memoizes parsed file contents for one command, keyed by manifest
key and sha256. A stage that writes a file may put the records it wrote
there under the written digest, so a later stage that reads those same
bytes back skips the parse; a file changed in between hashes differently
and is parsed.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
import resource
from datetime import datetime, timezone
from pathlib import Path
from time import time_ns

from .errors import MissingInputError, ValidationError, decoded, json_object, json_text

MANIFEST_NAME = "manifest.json"
# How much older than the clock a file's mtime and ctime must be for its
# digest to enter the table; above common filesystems' timestamp granularity.
RACY_WINDOW_NS = 1_000_000_000


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path) -> str:
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS so far in MB: VmHWM, as Linux's ru_maxrss spans exec; else ru_maxrss."""
    try:
        with open("/proc/self/status", "rb") as f:
            kib = next(line.split()[1] for line in f if line.startswith(b"VmHWM:"))
    except (OSError, StopIteration):
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(kib) / 1024


def _stat(path: Path) -> list[int]:
    st = os.stat(path)
    return [st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino, st.st_dev]


class Workspace:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        # Made on first write, so only the nearest existing ancestor can be wrong.
        existing = next(p for p in (self.root, *self.root.parents) if p.exists())
        if not existing.is_dir():
            raise ValidationError(f"workspace {self.root}: {existing} is not a directory")
        # Since the last clear: key -> sha256 (None: absent) of each file
        # read, and relative path -> sha256 of each file written.
        self.reads: dict[str, str | None] = {}
        self.writes: dict[str, str] = {}
        # Parsed contents by (manifest key, sha256), for one command.
        self.parsed: dict[tuple[str, str], object] = {}
        # The digest table `stage_fresh` last loaded, and its unsaved entries.
        self.files: dict = {}
        self.added: dict[str, list] = {}

    # -- paths and recorded reads ------------------------------------------

    def path(self, relative: str) -> Path:
        return self.root / relative

    def key(self, relative: str) -> str:
        """The manifest's name for a file: its workspace-relative path, or
        its resolved path when it lies outside the workspace."""
        p = Path(relative)
        if not p.is_absolute():
            return p.as_posix()
        p, root = p.resolve(), self.root.resolve()
        return p.relative_to(root).as_posix() if p.is_relative_to(root) else str(p)

    def exists(self, relative: str) -> bool:
        """Whether a regular file exists there; an absent one is recorded
        as None, so its appearance makes the reading stage stale."""
        if self.path(relative).is_file():
            return True
        self.reads[self.key(relative)] = None
        return False

    def read_bytes(self, relative: str) -> bytes:
        p = self.path(relative)
        if not p.is_file():
            raise MissingInputError(str(p))
        data = p.read_bytes()
        self.reads[self.key(relative)] = sha256_bytes(data)
        return data

    def read_text(self, relative: str) -> str:
        return decoded(self.read_bytes(relative), str(self.path(relative)))

    def write_bytes(self, relative: str, data: bytes) -> None:
        """Atomic write: a new temp file (umask permissions) in the same
        directory, then rename; the temp file is removed if either fails."""
        target = self.path(relative)
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_name(f"{target.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
        f = tmp.open("xb")
        try:
            with f:
                f.write(data)
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self.writes[relative] = sha256_bytes(data)

    def write_text(self, relative: str, text: str) -> None:
        self.write_bytes(relative, text.encode("utf-8"))

    # -- manifest ---------------------------------------------------------

    def load_manifest(self) -> dict:
        p = self.path(MANIFEST_NAME)
        if not p.exists():
            return {"stages": {}, "files": {}}
        if not p.is_file():
            raise ValidationError(f"{p}: manifest is not a regular file")
        doc = json_object(decoded(p.read_bytes(), str(p)), str(p))
        stages = doc.setdefault("stages", {})
        if not isinstance(stages, dict) or not all(
                isinstance(r, dict) and isinstance(r.get("inputs", {}), dict)
                and isinstance(r.get("outputs", {}), dict) for r in stages.values()):
            raise ValidationError(f"{p}: stages must map each stage to an object "
                                  f"with object inputs and outputs")
        if not isinstance(doc.get("files"), dict):
            doc["files"] = {}  # a damaged digest table only costs rehashing
        return doc

    def save_manifest(self, manifest: dict) -> None:
        self.write_text(MANIFEST_NAME, json_text(manifest))

    def hash_inputs(self, keys) -> dict[str, str | None]:
        """The current sha256 of each named file, None when absent."""
        return {key: self._digest(key) if self.path(key).is_file() else None
                for key in keys}

    def _digest(self, key: str) -> str:
        """The digest from the table if the stat matches; else hashed, and
        added to the table (saved by `update_manifest`) unless racy."""
        path = self.path(key)
        before = _stat(path)
        entry = self.files.get(key)
        if (isinstance(entry, list) and len(entry) == 6
                and entry[:5] == before and isinstance(entry[5], str)):
            return entry[5]
        now = time_ns()
        digest = sha256_file(path)
        if _stat(path) == before and max(before[1:3]) < now - RACY_WINDOW_NS:
            self.files[key] = self.added[key] = before + [digest]
        return digest

    def _changed(self, recorded: dict[str, str | None]) -> dict[str, str | None]:
        """The recorded files that hash otherwise now: their sha256, None if absent."""
        return {key: digest for key, digest in self.hash_inputs(recorded).items()
                if digest != recorded[key]}

    def stage_fresh(self, stage: str, meta: dict[str, str]) -> bool:
        """True when the stage's record has `__code__`, each of its `__` keys
        holds the hash `meta` gives now, and every file it read or wrote
        still hashes as recorded (None: absent)."""
        manifest = self.load_manifest()
        record = manifest["stages"].get(stage)
        if record is None:
            return False
        self.files = manifest["files"]
        inputs, outputs = record.get("inputs", {}), record.get("outputs", {})
        files = {key: digest for key, digest in inputs.items()
                 if not key.startswith("__")}
        return ("__code__" in inputs
                and all(meta.get(key) == inputs[key] for key in inputs.keys() - files)
                and not self._changed(files)
                and not self._changed(outputs))

    def record_stage(self, stage: str, input_hashes: dict[str, str | None],
                     outputs: dict[str, str], duration_s: float,
                     peak_before_mb: float) -> None:
        peak = peak_rss_mb()  # peak_before_mb: what this read as the stage began
        record = {
            "inputs": input_hashes,
            "outputs": dict(outputs),
            # informational only; never hashed or compared
            "completed_at": datetime.now(timezone.utc)
            .strftime("%Y-%m-%dT%H:%M:%SZ"),
            "duration_s": round(duration_s, 3),
            # the process's peak RSS so far (a high-water mark), and the rise
            "peak_rss_mb": round(peak, 1),
            "peak_rss_rise_mb": round(peak - peak_before_mb, 1),
        }
        self.update_manifest({stage: record})

    def update_manifest(self, records: dict) -> None:
        """Add stage records and unsaved table entries to the manifest, which
        is reloaded under the flock so concurrent commands keep each other's."""
        self.root.mkdir(parents=True, exist_ok=True)
        lock = os.open(self.root, os.O_RDONLY)
        try:
            fcntl.flock(lock, fcntl.LOCK_EX)
            manifest = self.load_manifest()
            manifest["stages"].update(records)
            manifest["files"].update(self.added)
            self.save_manifest(manifest)
        finally:
            os.close(lock)  # releases the flock
        self.added = {}
