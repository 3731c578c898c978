"""Workspace directory handling: atomic writes and a stage manifest.

A workspace is a directory with an `inputs/` subdirectory for raw data and
a flat collection of stage outputs at its root. `manifest.json` records,
per stage, the sha256 of every input consumed and output produced, which
gives two properties:

  - reruns with unchanged inputs are no-ops (unless forced), and
  - a manifest-vs-disk check can prove the workspace is internally
    consistent.

Every write lands in a temp file first and is renamed into place, so a
crash cannot leave a half-written output that hashes differently than the
manifest claims.
"""

from __future__ import annotations

import hashlib
import json
import os
from datetime import datetime, timezone
from pathlib import Path

from .errors import MissingInputError, ValidationError

MANIFEST_NAME = "manifest.json"


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Workspace:
    def __init__(self, root: str | Path):
        self.root = Path(root)

    # -- paths ------------------------------------------------------------

    def path(self, relative: str) -> Path:
        return self.root / relative

    def require(self, relative: str) -> Path:
        p = self.path(relative)
        if not p.exists():
            raise MissingInputError(str(p))
        return p

    def read_bytes(self, relative: str) -> bytes:
        return self.require(relative).read_bytes()

    def write_bytes(self, relative: str, data: bytes) -> None:
        """Atomic write: temp file in the same directory, then rename."""
        target = self.path(relative)
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, target)

    def write_text(self, relative: str, text: str) -> None:
        self.write_bytes(relative, text.encode("utf-8"))

    # -- manifest ---------------------------------------------------------

    def load_manifest(self) -> dict:
        p = self.path(MANIFEST_NAME)
        if not p.exists():
            return {"tool_version": _tool_version(), "stages": {}}
        try:
            doc = json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{p}: manifest is not valid JSON: {exc}") from exc
        doc.setdefault("stages", {})
        return doc

    def save_manifest(self, manifest: dict) -> None:
        manifest["tool_version"] = _tool_version()
        self.write_text(MANIFEST_NAME,
                        json.dumps(manifest, sort_keys=True, indent=2) + "\n")

    def hash_inputs(self, paths: dict[str, Path]) -> dict[str, str]:
        """Map logical input names to content hashes; missing file is fatal."""
        out = {}
        for name, p in paths.items():
            if not p.exists():
                raise MissingInputError(str(p))
            out[name] = sha256_file(p)
        return out

    def stage_fresh(self, stage: str, input_hashes: dict[str, str]) -> bool:
        """True when the stage ran on exactly these inputs and all of its
        recorded outputs still exist with matching content."""
        record = self.load_manifest()["stages"].get(stage)
        if record is None or record.get("inputs") != input_hashes:
            return False
        for relative, digest in record.get("outputs", {}).items():
            p = self.path(relative)
            if not p.exists() or sha256_file(p) != digest:
                return False
        return True

    def record_stage(self, stage: str, input_hashes: dict[str, str],
                     outputs: list[str]) -> None:
        manifest = self.load_manifest()
        manifest["stages"][stage] = {
            "inputs": input_hashes,
            "outputs": {rel: sha256_file(self.path(rel)) for rel in outputs},
            # informational only; never hashed or compared
            "completed_at": datetime.now(timezone.utc)
            .strftime("%Y-%m-%dT%H:%M:%SZ"),
        }
        self.save_manifest(manifest)

    def verify(self) -> list[str]:
        """Return problems (missing/mismatched outputs) across all stages."""
        problems = []
        manifest = self.load_manifest()
        for stage, record in manifest["stages"].items():
            for relative, digest in record.get("outputs", {}).items():
                p = self.path(relative)
                if not p.exists():
                    problems.append(f"{stage}: missing output {relative}")
                elif sha256_file(p) != digest:
                    problems.append(f"{stage}: output {relative} does not "
                                    f"match its recorded hash")
        return problems


def _tool_version() -> str:
    from . import __version__
    return __version__
