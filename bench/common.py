"""Pieces shared by the timed and traced passes: paths, child processes,
checks, digests and the workload table.

Nothing here imports gridres, so `run.py` can refuse to start before the
package is on the path.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PINS = Path(__file__).resolve().parent / "pins.json"

# Scenario list of the run-all config; the edit adds EDIT_SCENARIO.
SCENARIOS = [{"hazard": "wind", "intensity": 35.0},
             {"hazard": "precip", "intensity": 2.5}]
EDIT_SCENARIO = {"hazard": "wind", "intensity": 30.0}

# Truth-recovery limits of the acceptance gate's synthetic round trip.
MAX_TRUTH_B_ERR = 0.15
MAX_TRUTH_C_ERR = 0.20
# Allowed relative distance between a prediction and its closed form.
PREDICTION_RTOL = 0.005


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: bool      # run-all on a synthetic bundle, else a predict session
    synth: dict | None  # SynthSpec fields of the bundle, None for whatif
    dirty: bool         # append the benchmark's dirty rows to the bundle
    setups: int         # set-ups per run; setup_s is their median
    reps: int           # least number of cold / no-op / edit repetitions
    noops: int          # no-op reruns after each cold and after each edit


WORKLOADS = {w.name: w for w in [
    Workload("seed-pipeline", True, {"seed": 20240811}, False,
             setups=3, reps=1, noops=3),
    Workload("dirty-weather", True,
             {"seed": 20240811, "events_per_zone": 20,
              "background_outage_rate": 1.0}, True,
             setups=3, reps=1, noops=3),
    Workload("whatif", False, None, False, setups=25, reps=3, noops=1),
]}
# A whatif session: the two configured scenarios, then this many more
# seeded predict queries, then render.
SESSION_QUERIES = 6


@dataclass(frozen=True)
class ChildResult:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    log: Path


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


class Spawner:
    """Runs child interpreters through spawner.py, one at a time, and
    returns each one's wall time, CPU time and its own peak RSS."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT)

    def run(self, argv: list[str], log: Path) -> ChildResult:
        self._proc.stdin.write(json.dumps(
            {"argv": [sys.executable, *argv], "log": str(log)}) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("bench: spawner.py exited early")
        return ChildResult(**json.loads(reply), log=log)

    def cli(self, args: list[str], log: Path) -> ChildResult:
        return self.run(["-m", "gridres.cli", *args], log)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait(timeout=60)


class Checks:
    """Every correctness check is one attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"bench: check failed: {what}", file=sys.stderr)
        return ok

    def exited_ok(self, result: ChildResult, what: str) -> bool:
        return self.expect(result.returncode == 0,
                           f"{what} exited {result.returncode} (log {result.log})")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_files(files: dict[str, bytes]) -> str:
    """One digest over named contents, independent of dict order."""
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode("utf-8") + b"\0" + hashlib.sha256(files[name]).digest())
    return h.hexdigest()


def read_tree(root: Path) -> dict[str, bytes]:
    """Every file under root except manifest.json, whose completion times
    differ from run to run."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def snapshot(root: Path) -> dict[str, str]:
    """sha256 of every artifact that read_tree returns."""
    return {name: sha256_hex(data) for name, data in read_tree(root).items()}


def settle(root: Path) -> None:
    """fsync every file under root. Run untimed after an operation that
    wrote a lot, so the kernel's writeback of its output does not compete
    with the next timed operation for the two CPUs."""
    for p in root.rglob("*"):
        if p.is_file():
            fd = os.open(p, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def check_pin(workload: str, digest: str, checks: Checks) -> None:
    pinned = json.loads(PINS.read_text(encoding="utf-8"))[workload]
    checks.expect(digest == pinned,
                  f"{workload}: generated input bundle changed: sha256 {digest}, "
                  f"pinned {pinned} in {PINS.name}; the workload is no longer "
                  f"the one the baseline measured")


def write_config(path: Path, scenarios: list[dict]) -> Path:
    path.write_text(json.dumps({"scenarios": scenarios}, indent=2) + "\n",
                    encoding="utf-8")
    return path


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def p75(values: list[float]) -> float:
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=4)[2]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
