"""Command-line entry point: the stage table, the stage runner and main().

Subcommands mirror the pipeline stages:

  synth           generate a seeded synthetic input bundle
  ingest          parse and clean the four input CSV files
  zones           build Voronoi weather zones and the outage-density grid
  extract-events  sweep outages into outage-restoration events
  link            build fragility samples from severe-weather records
  fit             fit per-zone fragility and restoration models
  predict         evaluate one weather scenario into CSV + choropleth
  render          draw scatter/curve SVG plots for every fitted model
  truth-comparison  compare fitted models with a synthetic bundle's truth.json
  run-all         ingest through fit, predict per configured scenario and
                  truth-comparison (given truth.json), plus a summary table

Every stage is one row of STAGES; its body, `gridres.cli.stage_<name>`,
does all file I/O via the Workspace. run_stage() records in manifest.json
hashes of each file and Config field (`__config__.<field>`) the body read,
of each file it wrote, of the package source and numpy's version file
(`__code__`) and of the stage's arguments (`__args__`), and skips the body
while all are unchanged, absent files included (override with --force).
It also records the body's `duration_s`, the process's `peak_rss_mb` so far
(its VmHWM on Linux) and `peak_rss_rise_mb`, how far the body raised that
peak (0 if it did not), which are never compared. Exit codes:
0 success, 1 internal error, 2 missing input, 3 validation failure. Log
lines go to stderr as LEVEL<TAB>stage<TAB>message.

This module imports only config, errors and workspace. run_stage() imports
gridres.cli, and with it every stage module, only when a body must run, so
a command whose stages are all fresh loads neither numpy nor any stage
module.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import importlib.machinery
import json
import logging
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

from .config import Config, ScenarioSpec, canonical_hazard, load_config
from .errors import MissingInputError, UnservedScenario, ValidationError
from .workspace import Workspace, peak_rss_mb, sha256_bytes

log = logging.getLogger(__name__)

DEFAULT_SYNTH_SEED = 20240811


class _TabFormatter(logging.Formatter):
    stage = "cli"  # named by every line; the command, then each stage it runs

    def format(self, record: logging.LogRecord) -> str:
        return f"{record.levelname}\t{self.stage}\t{record.getMessage()}"


def _setup_logging() -> None:
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_TabFormatter())
    root = logging.getLogger()
    root.handlers[:] = [handler]
    root.setLevel(logging.INFO)


# ---------------------------------------------------------------------------
# Stage table and runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Stage:
    """One pipeline stage; its body is `gridres.cli.stage_<name>`."""
    name: str
    help: str
    done: str                                   # log verb before the detail
    key: str = ""   # manifest key, formatted with the args; the name if empty
    options: tuple[tuple[str, dict], ...] = ()  # subcommand flags
    args: Callable[[argparse.Namespace], tuple] = lambda ns: ()


STAGES = {stage.name: stage for stage in [
    Stage("synth", "generate a seeded synthetic input bundle",
          "wrote synthetic bundle:", key="synth_{0}",
          options=(("--seed", {"type": int, "default": DEFAULT_SYNTH_SEED}),),
          args=lambda ns: (ns.seed,)),
    Stage("ingest", "parse and clean the input CSV files", "kept"),
    Stage("zones", "build weather zones and the density grid", "built"),
    Stage("extract-events", "extract outage-restoration events", "extracted"),
    Stage("link", "build fragility samples from severe records", "linked"),
    Stage("fit", "fit fragility and restoration models", "fitted"),
    Stage("predict", "evaluate one weather scenario", "predicted",
          key="predict_{0.stem}",
          options=(("--hazard", {"required": True, "help": "wind or precip"}),
                   ("--intensity", {"type": float, "required": True,
                                    "help": "m/s for wind, inches for "
                                            "precipitation"})),
          args=lambda ns: (ScenarioSpec(hazard_class=canonical_hazard(ns.hazard),
                                        intensity=ns.intensity),)),
    Stage("render", "render model scatter/curve SVG plots", "rendered"),
    Stage("truth-comparison", "compare fitted models with truth.json",
          "compared with truth:"),
]}


@functools.cache
def code_fingerprint() -> str:
    """sha256 over the names and bytes of gridres's sources and numpy's version.py."""
    numpy = importlib.machinery.PathFinder.find_spec("numpy")  # never loads numpy
    h = hashlib.sha256()
    for path in [*sorted(Path(__file__).parent.glob("*.py")),
                 Path(numpy.origin).with_name("version.py")]:
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _digest(value) -> str:
    """sha256 of canonical JSON, so a spelled-out default hashes like an absent one."""
    return sha256_bytes(json.dumps(value, sort_keys=True, default=asdict).encode())


class _RecordedConfig:
    """The Config a body sees: it records each field read as `__config__.<field>`."""
    def __init__(self, cfg: Config, ws: Workspace):
        self._cfg, self._ws = cfg, ws

    def __getattr__(self, name: str):
        value = getattr(self._cfg, name)
        self._ws.reads["__config__." + name] = _digest(value)
        return value


def run_stage(name: str, ws: Workspace, cfg: Config, force: bool, *args) -> str:
    """Run one stage unless it already ran on exactly these inputs, code and
    arguments; return its detail line for the run-all summary."""
    stage = STAGES[name]
    _TabFormatter.stage = name
    meta = {"__code__": code_fingerprint(), "__args__": _digest(list(args))}
    config = {"__config__." + k: _digest(v) for k, v in asdict(cfg).items()}
    key = (stage.key or name).format(*args)
    if not force and ws.stage_fresh(key, {**meta, **config}):
        if ws.added:  # digests the check learned; a rerun saves them with its record
            ws.update_manifest({})
        log.info("outputs up to date, skipping")
        return "up to date"
    # Loaded only now, and looked up at call time, so a wrapper installed on
    # the name takes effect.
    body = getattr(importlib.import_module("gridres.cli"),
                   "stage_" + name.replace("-", "_"))
    ws.reads.clear()
    ws.writes.clear()
    start, peak = time.perf_counter(), peak_rss_mb()
    detail = body(ws, _RecordedConfig(cfg, ws), *args)
    ws.record_stage(key, {**ws.reads, **meta}, ws.writes,
                    time.perf_counter() - start, peak)
    log.info("%s %s", stage.done, detail)
    return detail


# ---------------------------------------------------------------------------
# run-all
# ---------------------------------------------------------------------------

def run_all(ws: Workspace, cfg: Config, force: bool) -> int:
    rows: list[tuple[str, str, str]] = []
    for name in ("ingest", "zones", "extract-events", "link", "fit"):
        rows.append((name, "ok", run_stage(name, ws, cfg, force)))

    for scenario in cfg.scenarios:
        name = f"predict {scenario.stem}"
        try:
            rows.append((name, "ok", run_stage("predict", ws, cfg, force, scenario)))
        except UnservedScenario as exc:
            log.warning("skipping scenario %s: %s", name, exc)
            rows.append((name, "skipped", str(exc)))

    if ws.exists("truth.json"):
        rows.append(("truth-comparison", "ok",
                     run_stage("truth-comparison", ws, cfg, force)))

    width = max(28, 2 + max(len(name) for name, _, _ in rows))
    print(f"{'stage':<{width}}{'status':<10}detail")
    for name, status, detail in rows:
        print(f"{name:<{width}}{status:<10}{detail}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 3, as invalid data does; subparsers inherit it
        self.exit(3, f"{self.format_usage()}{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workspace", default="workspace",
                        help="workspace directory (default: ./workspace)")
    common.add_argument("--config", default=None,
                        help="path to a JSON config file")
    common.add_argument("--force", action="store_true",
                        help="rerun even when outputs are up to date")

    parser = _ArgumentParser(
        prog="gridres",
        description="Zone-level outage fragility and restoration analytics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for stage in STAGES.values():
        command = sub.add_parser(stage.name, parents=[common], help=stage.help)
        for flag, kwargs in stage.options:
            command.add_argument(flag, **kwargs)
    sub.add_parser("run-all", parents=[common],
                   help="run the whole pipeline plus configured scenarios")
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    _TabFormatter.stage = args.command

    try:
        ws = Workspace(args.workspace)
        cfg = load_config(args.config)
        if args.command == "run-all":
            return run_all(ws, cfg, args.force)
        stage = STAGES[args.command]
        run_stage(stage.name, ws, cfg, args.force, *stage.args(args))
        return 0
    except MissingInputError as exc:
        log.error("missing input: %s", exc)
        return 2
    except ValidationError as exc:
        log.error("%s", exc)
        return 3
    except Exception as exc:  # noqa: BLE001 - last-resort exit-code mapping
        log.error("internal error: %s: %s", type(exc).__name__, exc)
        return 1
