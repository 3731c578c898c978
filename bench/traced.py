"""The traced pass: per-layer numbers from spans recorded in this process.

The tracer replaces public names that the CLI and the modules look up in
their own namespaces (for example `gridres.cli.parse_outages` or
`gridres.events.assign_many`) with wrappers that record one span per call,
then calls `gridres.cli.main` in-process. A name that no longer exists is
reported as missing and the pass goes on, so it survives refactors.

Spans stay in memory and are written to `.bench_work/results/` at the end.
A layer's self time is its spans' durations minus the time their direct
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

from common import (
    EDIT_SCENARIO,
    SCENARIOS,
    SESSION_QUERIES,
    Checks,
    Workload,
    check_pin,
    digest_files,
    median,
    metric,
    p75,
    read_tree,
    Spawner,
    write_config,
)
from workloads import (
    check_predictions,
    fitted_params,
    prepare,
    query_plan,
    reference_params,
    sequence,
    session,
)

LAYERS = ("cli", "ingest", "zoning", "events", "linkage", "fitting", "scenario",
          "workspace")
STAGES = ("synth", "ingest", "zones", "extract-events", "link", "fit", "predict",
          "render")
ROOT_SPAN = "cli.main"
# Enough queries for ten samples beyond p75.
LATENCY_QUERIES = 44
LATENCY_RENDERS = 5


def _samples(result) -> int:
    return sum(len(v) for zones in result.values() for v in zones.values())


# (owner, attribute, span name, counter hook). The owner is a module, or
# "module:Class" for a method. The span name's first part is its layer.
WRAPS = [
    *[("gridres.cli", f"stage_{s.replace('-', '_')}", f"cli.stage_{s}", None)
      for s in STAGES],
    ("gridres.cli", "parse_outages", "ingest.parse_outages", None),
    ("gridres.cli", "parse_weather", "ingest.parse_weather", None),
    ("gridres.cli", "parse_stations", "ingest.parse_stations", None),
    ("gridres.cli", "parse_severe", "ingest.parse_severe", None),
    *[("gridres.cli", f"write_{k}_csv", "ingest.write_clean", None)
      for k in ("outages", "weather", "stations", "severe")],
    ("gridres.cli", "build_partition", "zoning.build_partition", None),
    ("gridres.cli", "load_boundary_geojson", "zoning.load_boundary_geojson", None),
    ("gridres.cli", "partition_to_geojson", "zoning.partition_to_geojson", None),
    ("gridres.cli", "density_grid", "zoning.density_grid", None),
    ("gridres.cli", "density_grid_csv", "zoning.density_grid_csv", None),
    *[(module, "assign_many", "zoning.assign_many",
       lambda c, a, r: c.add(points=len(a[1])))
      for module in ("gridres.events", "gridres.linkage")],
    *[(module, "extract_events", "events.extract_events",
       lambda c, a, r: c.add(intervals=len(a[0]), events=len(r)))
      for module in ("gridres.cli", "gridres.events")],
    ("gridres.cli", "extract_events_by_zone", "events.extract_events_by_zone", None),
    ("gridres.cli", "events_csv", "events.events_csv", None),
    ("gridres.cli", "build_fragility_samples", "linkage.build_fragility_samples",
     lambda c, a, r: c.add(samples=_samples(r))),
    ("gridres.linkage", "merge_windows", "linkage.merge_windows",
     lambda c, a, r: c.add(windows=len(r))),
    ("gridres.cli", "fragility_csv", "linkage.fragility_csv", None),
    *[("gridres.cli", f"fit_{kind}", f"fitting.fit_{kind}",
       lambda c, a, r: c.add(iterations=r[1].iterations,
                                unconverged=int(not r[1].converged)))
      for kind in ("exponential", "restoration")],
    ("gridres.fitting", "levenberg_marquardt", "fitting.levenberg_marquardt", None),
    ("gridres.cli", "predict_all", "scenario.predict_all", None),
    ("gridres.cli", "predictions_csv", "scenario.predictions_csv", None),
    ("gridres.cli", "emit_choropleth", "scenario.emit_choropleth", None),
    ("gridres.cli", "emit_scatter", "scenario.emit_scatter", None),
    ("gridres.workspace", "sha256_file", "workspace.sha256_file",
     lambda c, a, r: c.add(bytes_hashed=os.path.getsize(a[0]))),
    ("gridres.workspace:Workspace", "hash_inputs", "workspace.hash_inputs", None),
    ("gridres.workspace:Workspace", "stage_fresh", "workspace.stage_fresh", None),
    ("gridres.workspace:Workspace", "read_bytes", "workspace.read_bytes", None),
    ("gridres.workspace:Workspace", "write_bytes", "workspace.write_bytes",
     lambda c, a, r: c.add(bytes_written=len(a[2]))),
    ("gridres.workspace:Workspace", "record_stage", "workspace.record_stage", None),
]


class _Counters(defaultdict):
    def __init__(self):
        super().__init__(float)

    def add(self, **amounts):
        for key, amount in amounts.items():
            self[key] += amount


class Tracer:
    """Records spans (name, start, end, parent, call number) in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters = _Counters()
        self.missing: list[str] = []
        self.phase = ""
        self._stack: list[int] = []
        self._calls: dict[str, int] = defaultdict(int)
        self._undo: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        self._calls[name] += 1
        record = {"id": len(self.spans), "name": name, "phase": self.phase,
                  "parent": self._stack[-1] if self._stack else None,
                  "call": self._calls[name]}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, original, name, hook):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = tracer.span(name, original, *args, **kwargs)
            if hook is not None and tracer.phase:
                try:
                    hook(tracer.counters, args, result)
                except Exception as exc:  # noqa: BLE001 - a counter must not stop the run
                    tracer.note_missing(f"{name} counter ({type(exc).__name__})")
            return result
        return wrapper

    def note_missing(self, what: str) -> None:
        if what not in self.missing:
            self.missing.append(what)

    def install(self) -> None:
        for owner_path, attr, name, hook in WRAPS:
            module_name, _, class_name = owner_path.partition(":")
            try:
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
            except (ImportError, AttributeError):
                self.note_missing(owner_path)
                continue
            original = owner.__dict__.get(attr)
            if not callable(original):
                self.note_missing(f"{owner_path}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, name, hook))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def main(self, argv: list[str], log) -> int:
        """One in-process CLI command as a root span."""
        from gridres import cli
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            return self.span(ROOT_SPAN, cli.main, argv)

    # -- summaries over one phase -----------------------------------------

    def summary(self, phase: str) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        spans = [s for s in self.spans if s["phase"] == phase]
        child_time = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict] = {}
        for s in spans:
            entry = out.setdefault(s["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
            duration = s["end"] - s["start"]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - child_time[s["id"]]
        return out


def _wrapper_cost_s(n: int = 20_000) -> float:
    """Cost of one wrapped call over a plain one, timed on a no-op."""
    def noop():
        return None
    probe = Tracer()
    wrapped = probe._wrap(noop, "probe", None)
    start = time.perf_counter()
    for _ in range(n):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(n):
        wrapped()
    return max((time.perf_counter() - start - plain) / n, 0.0)


def _inodes(ws: Path) -> dict[str, int]:
    return {str(p.relative_to(ws)): p.stat().st_ino
            for p in ws.rglob("*") if p.is_file()}


def _stages_rewritten(ws: Path, before: dict[str, int]) -> int:
    """Stages in the manifest with at least one output written anew since
    `before` was taken; a stage that skipped as fresh rewrites nothing."""
    manifest = json.loads((ws / "manifest.json").read_text())
    after = _inodes(ws)
    return sum(1 for record in manifest["stages"].values()
               if any(before.get(rel) != after.get(rel)
                      for rel in record.get("outputs", {})))


def _stage_pass(wl: Workload, spawner: Spawner, work: Path, ws: Path,
                checks: Checks) -> dict:
    """Each stage as its own child: wall, CPU and peak RSS per stage."""
    cfg = write_config(work / "stages.config.json", SCENARIOS)
    runs: dict[str, list] = defaultdict(list)
    if wl.pipeline and not wl.dirty:
        ws = work / "stages"
        result = spawner.cli(["synth", "--seed", str(wl.synth["seed"]),
                              "--workspace", str(ws)], work / "stage.log")
        checks.exited_ok(result, "stage pass: gridres synth")
        runs["synth"].append(result)
        bundle = {Path(name).name: data for name, data in read_tree(ws).items()}
        check_pin(wl.name, digest_files(bundle), checks)
    commands = [[s] for s in ("ingest", "zones", "extract-events", "link", "fit")] \
        if wl.pipeline else []
    commands += [["predict", "--hazard", s["hazard"], "--intensity",
                  repr(s["intensity"])] for s in SCENARIOS] + [["render"]]
    for args in commands:
        result = spawner.cli([*args, "--workspace", str(ws), "--config", str(cfg)],
                             work / "stage.log")
        checks.exited_ok(result, f"stage pass: gridres {args[0]}")
        runs[args[0]].append(result)
    out = {}
    for stage in STAGES:
        results = runs.get(stage, [])
        out[f"stage.{stage}.wall_s"] = metric(median([r.wall_s for r in results]), "s")
        out[f"stage.{stage}.cpu_s"] = metric(median([r.cpu_s for r in results]), "s")
        out[f"stage.{stage}.rss_mb"] = metric(median([r.rss_mb for r in results]), "MB")
    return out


def _import_s(spawner: Spawner, work: Path, checks: Checks, n: int = 5) -> float:
    code = ("import time; t = time.perf_counter(); import gridres.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(n):
        log = work / "import.log"
        result = spawner.run(["-c", code], log)
        if checks.exited_ok(result, "import gridres.cli"):
            times.append(float(log.read_text().split()[-1]))
    return median(times)


def _latency(wl: Workload, seed: int, spawner: Spawner, work: Path, ws: Path,
             checks: Checks) -> dict:
    """Per-command latency on the computed workspace, untraced: seeded
    predict queries that no session uses, and forced renders."""
    try:
        params = reference_params() if not wl.pipeline else fitted_params(ws)
    except (OSError, KeyError, ValueError) as exc:
        checks.expect(False, f"model stores unreadable: {exc!r}")
        params = {}
    plan = itertools.islice(query_plan(wl, seed), SESSION_QUERIES,
                            SESSION_QUERIES + LATENCY_QUERIES)
    queries = []
    for hazard, x in plan:
        result = spawner.cli(["predict", "--workspace", str(ws), "--hazard", hazard,
                              "--intensity", f"{x:.3f}"], work / "query.log")
        checks.exited_ok(result, "query: gridres predict")
        check_predictions(ws, hazard, x, params, checks)
        queries.append(result.wall_s)
    renders = []
    for _ in range(LATENCY_RENDERS):
        result = spawner.cli(["render", "--force", "--workspace", str(ws)],
                             work / "render.log")
        checks.exited_ok(result, "gridres render --force")
        renders.append(result.wall_s)
    return {"cli.query_p50_s": metric(median(queries), "s"),
            "cli.query_p75_s": metric(p75(queries), "s"),
            "cli.render_s": metric(median(renders), "s")}


def _reports(ws: Path) -> dict[str, float]:
    totals = {"rows_in": 0, "rows_kept": 0, "rows_dropped": 0}
    for path in sorted(ws.glob("report_*.json")):
        report = json.loads(path.read_text())
        totals["rows_in"] += report["total_rows"]
        totals["rows_kept"] += report["kept"]
    totals["rows_dropped"] = totals["rows_in"] - totals["rows_kept"]
    return totals


def traced_pass(wl: Workload, seed: int, spawner: Spawner, work: Path,
                checks: Checks) -> tuple[dict, dict]:
    """Set-ups as in the timed pass, then the cold sequence in-process with
    tracing on (plus a forced render on the pipelines, so plotting is
    traced too), the edit sequence untraced, per-command latency and the
    per-stage pass."""
    setups = [prepare(wl, work / f"ws{i}", seed, checks) for i in range(wl.setups)]
    import_s = _import_s(spawner, work, checks)

    ws = work / "ws0"
    cfg = write_config(work / "config0.json", SCENARIOS)
    queries = session(wl, seed)
    cold_cmds = [[*args, "--workspace", str(ws)] for args in sequence(wl, cfg, queries)]
    extra = [["render", "--force", "--workspace", str(ws)]] if wl.pipeline else []
    tracer = Tracer()
    tracer.install()
    try:
        with open(work / "traced.log", "w") as log:
            tracer.phase = "cold"
            for argv in cold_cmds:
                checks.expect(tracer.main(argv, log) == 0, f"traced gridres {argv[0]}")
            cold_s = sum(s["end"] - s["start"] for s in tracer.spans
                         if s["name"] == ROOT_SPAN)
            for argv in extra:
                checks.expect(tracer.main(argv, log) == 0, f"traced gridres {argv[0]}")
            tracer.phase = ""
    finally:
        tracer.uninstall()

    before = _inodes(ws)
    write_config(cfg, SCENARIOS + [EDIT_SCENARIO])
    for args in sequence(wl, cfg, queries):
        result = spawner.cli([*args, "--workspace", str(ws)], work / "edit.log")
        checks.exited_ok(result, f"edit: gridres {args[0]}")
    stages_on_edit = _stages_rewritten(ws, before)
    latency = _latency(wl, seed, spawner, work, ws, checks)

    by_name = tracer.summary("cold")
    c = tracer.counters

    def s(name):
        return by_name.get(name, {}).get("s", 0.0)

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    def ms_per_call(name):
        return 1000.0 * s(name) / calls(name) if calls(name) else 0.0

    total = s(ROOT_SPAN)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, entry in by_name.items():
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += entry["self_s"]
    wrapped_calls = sum(e["calls"] for n, e in by_name.items() if n != ROOT_SPAN)
    truth_path = ws / "truth_comparison.json"
    truth = json.loads(truth_path.read_text()) if truth_path.exists() else {}
    rows = _reports(ws)

    metrics = {
        "ingest.parse_outages.s": metric(s("ingest.parse_outages"), "s"),
        "ingest.parse_outages.calls": metric(calls("ingest.parse_outages"), "count"),
        "ingest.parse_weather.s": metric(s("ingest.parse_weather"), "s"),
        "ingest.parse_weather.calls": metric(calls("ingest.parse_weather"), "count"),
        "ingest.write_clean.s": metric(s("ingest.write_clean"), "s"),
        "ingest.rows_in": metric(rows["rows_in"], "count"),
        "ingest.rows_kept": metric(rows["rows_kept"], "count"),
        "ingest.rows_dropped": metric(rows["rows_dropped"], "count"),
        "zoning.build_partition.s": metric(s("zoning.build_partition"), "s"),
        "zoning.build_partition.calls": metric(calls("zoning.build_partition"), "count"),
        "zoning.assign_many.s": metric(s("zoning.assign_many"), "s"),
        "zoning.assign_many.points": metric(c["points"], "count"),
        "zoning.density_grid.s": metric(s("zoning.density_grid"), "s"),
        "events.extract_events.s": metric(s("events.extract_events"), "s"),
        "events.extract_events_by_zone.s":
            metric(s("events.extract_events_by_zone"), "s"),
        "events.intervals": metric(c["intervals"], "count"),
        "events.events": metric(c["events"], "count"),
        "linkage.build_fragility_samples.s":
            metric(s("linkage.build_fragility_samples"), "s"),
        "linkage.windows": metric(c["windows"], "count"),
        "linkage.samples": metric(c["samples"], "count"),
        "fitting.fit_exponential.ms_per_zone":
            metric(ms_per_call("fitting.fit_exponential"), "ms"),
        "fitting.fit_restoration.ms_per_zone":
            metric(ms_per_call("fitting.fit_restoration"), "ms"),
        "fitting.iterations": metric(c["iterations"], "count"),
        "fitting.restarts": metric(
            max(calls("fitting.levenberg_marquardt") - calls("fitting.fit_exponential")
                - calls("fitting.fit_restoration"), 0), "count"),
        "fitting.unconverged": metric(c["unconverged"], "count"),
        "fitting.truth_b_err":
            metric(truth.get("max_fragility_b_rel_error") or 0.0, "ratio"),
        "fitting.truth_c_err":
            metric(truth.get("max_restoration_c_rel_error") or 0.0, "ratio"),
        "scenario.predict_all.ms": metric(ms_per_call("scenario.predict_all"), "ms"),
        "scenario.emit_choropleth.ms":
            metric(ms_per_call("scenario.emit_choropleth"), "ms"),
        "scenario.emit_scatter.ms": metric(ms_per_call("scenario.emit_scatter"), "ms"),
        "scenario.emit_scatter.calls": metric(calls("scenario.emit_scatter"), "count"),
        "workspace.hash_inputs.s": metric(s("workspace.hash_inputs"), "s"),
        "workspace.bytes_hashed": metric(c["bytes_hashed"], "bytes"),
        "workspace.stage_fresh.s": metric(s("workspace.stage_fresh"), "s"),
        "workspace.write_bytes.s": metric(s("workspace.write_bytes"), "s"),
        "workspace.bytes_written": metric(c["bytes_written"], "bytes"),
        "cli.import.s": metric(import_s, "s"),
        **latency,
        "cli.stages_run_on_edit": metric(stages_on_edit, "count"),
        **_stage_pass(wl, spawner, work, work / "ws1", checks),
        "synth.generate.s": metric(median([x["generate_s"] for x in setups]), "s"),
        **{f"layer.{k}.self_s": metric(v, "s") for k, v in layer_self.items()},
        **{f"layer.{k}.share": metric(v / total if total else 0.0, "ratio")
           for k, v in layer_self.items()},
        "trace.cold_s": metric(cold_s, "s"),
        "trace.overhead_s": metric(wrapped_calls * _wrapper_cost_s(), "s"),
        "trace.wrapped_calls": metric(wrapped_calls, "count"),
        "trace.missing_names": metric(len(tracer.missing), "count"),
    }
    record = {"missing": tracer.missing, "summary": by_name, "spans": tracer.spans}
    return metrics, record
