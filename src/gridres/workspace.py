"""Workspace directory handling: recorded reads, atomic writes and a stage
manifest.

A workspace is a directory with an `inputs/` subdirectory for raw data and
a flat collection of stage outputs at its root. Stages read and write only
through the Workspace, which records the sha256 of what they touch: of the
bytes each read returns and each write stores, so no output is read back to
be hashed. `manifest.json` keeps, per stage, the sha256 of every file read
(null for one found absent; anything but a regular file counts as absent),
keyed by workspace-relative path, and of every output, which gives two
properties:

  - reruns with unchanged inputs are no-ops (unless forced), and
  - a manifest-vs-disk check can prove the workspace is internally
    consistent.

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
from datetime import datetime, timezone
from pathlib import Path

from .errors import MissingInputError, ValidationError, decoded, json_object, json_text

MANIFEST_NAME = "manifest.json"


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path) -> str:
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


class Workspace:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        # Since the last clear: key -> sha256 (None: absent) of each file
        # read, and relative path -> sha256 of each file written.
        self.reads: dict[str, str | None] = {}
        self.writes: dict[str, str] = {}
        # Parsed contents by (manifest key, sha256), for one command.
        self.parsed: dict[tuple[str, str], object] = {}

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

    def require(self, relative: str) -> Path:
        p = self.path(relative)
        if not p.is_file():
            raise MissingInputError(str(p))
        return p

    def exists(self, relative: str) -> bool:
        """Whether a regular file exists there; an absent one is recorded
        as None, so its appearance makes the reading stage stale."""
        if self.path(relative).is_file():
            return True
        self.reads[self.key(relative)] = None
        return False

    def read_bytes(self, relative: str) -> bytes:
        data = self.require(relative).read_bytes()
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
            return {"stages": {}}
        if not p.is_file():
            raise ValidationError(f"{p}: manifest is not a regular file")
        doc = json_object(decoded(p.read_bytes(), str(p)), str(p))
        stages = doc.setdefault("stages", {})
        if not isinstance(stages, dict) or not all(
                isinstance(r, dict) and isinstance(r.get("inputs", {}), dict)
                and isinstance(r.get("outputs", {}), dict) for r in stages.values()):
            raise ValidationError(f"{p}: stages must map each stage to an object "
                                  f"with object inputs and outputs")
        return doc

    def save_manifest(self, manifest: dict) -> None:
        self.write_text(MANIFEST_NAME, json_text(manifest))

    def hash_inputs(self, keys) -> dict[str, str | None]:
        """The current sha256 of each named file, None when absent."""
        return {key: sha256_file(p) if (p := self.path(key)).is_file() else None
                for key in keys}

    def _changed(self, recorded: dict[str, str | None]) -> dict[str, str | None]:
        """The recorded files that hash otherwise now: their sha256, None if absent."""
        return {key: digest for key, digest in self.hash_inputs(recorded).items()
                if digest != recorded[key]}

    def stage_fresh(self, stage: str, meta: dict[str, str]) -> bool:
        """True when the stage last ran with these `meta` hashes, every file
        it read then still hashes the same (or is still absent), and all
        of its recorded outputs still exist with matching content."""
        record = self.load_manifest()["stages"].get(stage)
        if record is None:
            return False
        inputs, outputs = record.get("inputs", {}), record.get("outputs", {})
        files = {key: digest for key, digest in inputs.items()
                 if key not in meta}
        return (all(inputs.get(key) == value for key, value in meta.items())
                and not self._changed(files)
                and not self._changed(outputs))

    def record_stage(self, stage: str, input_hashes: dict[str, str | None],
                     outputs: dict[str, str], duration_s: float) -> None:
        record = {
            "inputs": input_hashes,
            "outputs": dict(outputs),
            # informational only; never hashed or compared
            "completed_at": datetime.now(timezone.utc)
            .strftime("%Y-%m-%dT%H:%M:%SZ"),
            "duration_s": round(duration_s, 3),
        }
        self.root.mkdir(parents=True, exist_ok=True)
        lock = os.open(self.root, os.O_RDONLY)
        try:
            fcntl.flock(lock, fcntl.LOCK_EX)
            manifest = self.load_manifest()
            manifest["stages"][stage] = record
            self.save_manifest(manifest)
        finally:
            os.close(lock)  # releases the flock

    def verify(self) -> list[str]:
        """Return problems (missing/mismatched outputs) across all stages."""
        problems = []
        for stage, record in self.load_manifest()["stages"].items():
            for relative, digest in self._changed(record.get("outputs", {})).items():
                if digest is None:
                    problems.append(f"{stage}: missing output {relative}")
                else:
                    problems.append(f"{stage}: output {relative} does not "
                                    f"match its recorded hash")
        return problems
