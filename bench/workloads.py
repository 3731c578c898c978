"""Workload preparation, output checks and the timed (untraced) pass.

Every timed operation runs the real CLI as a child process, one at a time.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
import shutil
import time
from pathlib import Path

from gridres.reference import (
    PRECIP_FRAGILITY_SHARED,
    PRECIP_FRAGILITY_ZONE4,
    RESTORATION,
    WIND_FRAGILITY,
    materialize_reference_workspace,
)
from gridres.synth import SynthSpec, generate

from common import (
    EDIT_SCENARIO,
    MAX_TRUTH_B_ERR,
    MAX_TRUTH_C_ERR,
    PREDICTION_RTOL,
    SCENARIOS,
    SESSION_QUERIES,
    Checks,
    ChildResult,
    Workload,
    check_pin,
    digest_files,
    median,
    metric,
    read_tree,
    settle,
    Spawner,
    snapshot,
    write_config,
)

HAZARD_CLASS = {"wind": "wind", "precip": "precipitation"}
# Query intensities, in thousandths: wind 20-40 m/s, precip 0.5-4 in.
QUERY_RANGE = {"wind": (20_000, 40_000), "precip": (500, 4_000)}
DIRT_SHARE = 0.05  # extra rows appended to each dirty file, of its row count


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def add_dirt(bundle: dict[str, bytes], seed: int) -> tuple[dict[str, bytes], dict]:
    """Append 5% extra weather and outage rows, each of which ingest must
    drop. No generated row is altered, so the kept data is unchanged.

    Weather, split evenly: a duplicate station-hour with one blank field
    (fewer present fields, so it loses the dedup), a garbage cell, gust
    below average. Outages, with fresh ids, split evenly: missing cause,
    start and end swapped, longitude out of range.

    Returns the new bundle and the cleaning tallies ingest must report.
    """
    rng = random.Random(seed)
    out = dict(bundle)

    lines = bundle["weather.csv"].decode("utf-8").splitlines()
    rows = lines[1:]
    k = int(len(rows) * DIRT_SHARE) // 3
    extra = []
    for j, i in enumerate(rng.sample(range(len(rows)), 3 * k)):
        cells = rows[i].split(",")
        field = 2 + rng.randrange(5)
        if j % 3 == 0:
            cells[field] = ""
        elif j % 3 == 1:
            cells[field] = rng.choice(["n/a", "12..5", "#VALUE!", "--"])
        else:
            cells[2] = f"{float(cells[3]) + 1.5:.2f}"
        extra.append(",".join(cells))
    out["weather.csv"] = ("\n".join(lines + extra) + "\n").encode("utf-8")
    weather = {"total_rows": len(rows) + 3 * k, "kept": len(rows),
               "dropped_inconsistent_time": k, "dropped_missing_field": k,
               "dropped_out_of_bounds": k}

    lines = bundle["outages.csv"].decode("utf-8").splitlines()
    rows = lines[1:]
    k = int(len(rows) * DIRT_SHARE) // 3
    extra = []
    for j, i in enumerate(rng.sample(range(len(rows)), 3 * k)):
        cells = rows[i].split(",")
        cells[0] = f"DIRT{j:07d}"
        if j % 3 == 0:
            cells[8] = ""
        elif j % 3 == 1:
            cells[4], cells[5] = cells[5], cells[4]
        else:
            cells[3] = f"{rng.uniform(181.0, 359.0):.6f}"
        extra.append(",".join(cells))
    out["outages.csv"] = ("\n".join(lines + extra) + "\n").encode("utf-8")
    outages = {"total_rows": len(rows) + 3 * k, "kept": len(rows),
               "dropped_missing_field": k, "dropped_inconsistent_time": k,
               "dropped_out_of_bounds": k}
    return out, {"weather": weather, "outages": outages}


def prepare(wl: Workload, ws: Path, seed: int, checks: Checks) -> dict:
    """Build one workspace holding only the workload's inputs.

    Returns the set-up time, the time inside gridres.synth.generate and,
    for the dirty workload, the cleaning tallies ingest must report.
    """
    if ws.exists():
        shutil.rmtree(ws)
    start = time.perf_counter()
    if not wl.pipeline:
        materialize_reference_workspace(ws)
        setup_s = time.perf_counter() - start
        check_pin(wl.name, digest_files(read_tree(ws)), checks)
        return {"setup_s": setup_s, "generate_s": 0.0, "tallies": None}

    generated = generate(SynthSpec(**wl.synth))
    generate_s = time.perf_counter() - start
    bundle, tallies = add_dirt(generated, seed) if wl.dirty else (generated, None)
    (ws / "inputs").mkdir(parents=True)
    for name, data in bundle.items():
        target = ws / "truth.json" if name == "truth.json" else ws / "inputs" / name
        target.write_bytes(data)
    setup_s = time.perf_counter() - start
    settle(ws)
    check_pin(wl.name, digest_files(generated), checks)
    return {"setup_s": setup_s, "generate_s": generate_s, "tallies": tallies}


# ---------------------------------------------------------------------------
# Commands and output checks
# ---------------------------------------------------------------------------

def session(wl: Workload, seed: int) -> list[tuple[str, float]]:
    """The predict queries of one whatif session; empty for the pipelines."""
    if wl.pipeline:
        return []
    fixed = [(s["hazard"], s["intensity"]) for s in SCENARIOS]
    return fixed + list(itertools.islice(query_plan(wl, seed), SESSION_QUERIES))


def sequence(wl: Workload, cfg: Path, queries: list[tuple[str, float]]) -> list[list[str]]:
    """The command sequence that cold, no-op and edit each run once:
    run-all on the pipelines, the query session and render on whatif."""
    if wl.pipeline:
        return [["run-all", "--config", str(cfg)]]
    return [["predict", "--hazard", hazard, "--intensity", f"{x:.3f}", "--config", str(cfg)]
            for hazard, x in queries] + [["render", "--config", str(cfg)]]


def reference_params() -> dict[str, dict[str, tuple]]:
    """Published coefficients, straight from gridres.reference."""
    wind = {zone: (ab, RESTORATION) for zone, ab in WIND_FRAGILITY.items()}
    precip = {f"precipitation:{i}": (PRECIP_FRAGILITY_ZONE4 if i == 4
                                     else PRECIP_FRAGILITY_SHARED, RESTORATION)
              for i in range(6)}
    return {"wind": wind, "precipitation": precip}


def fitted_params(ws: Path) -> dict[str, dict[str, tuple]]:
    """Fitted coefficients, read from the model stores as plain JSON."""
    out = {}
    for hazard_class in HAZARD_CLASS.values():
        zones = json.loads((ws / f"models_{hazard_class}.json").read_text())["zones"]
        out[hazard_class] = {}
        for zone, kinds in zones.items():
            f, r = kinds["fragility"]["params"], kinds["restoration"]["params"]
            out[hazard_class][zone] = ((f["a"], f["b"]),
                                       (r["c"], r["a1"], r["b1"], r["a2"], r["b2"]))
    return out


def closed_form(fragility: tuple, restoration: tuple, x: float) -> tuple[float, float]:
    a, b = fragility
    c, a1, b1, a2, b2 = restoration
    outages = a * math.exp(b * x)
    hours = c - a1 * math.exp(-b1 * outages) - a2 * math.exp(-b2 * outages)
    return outages, max(hours, 0.0)


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= PREDICTION_RTOL * max(abs(want), 1e-9)


def check_predictions(ws: Path, hazard: str, x: float, params: dict,
                      checks: Checks) -> None:
    hazard_class = HAZARD_CLASS[hazard]
    path = ws / f"predictions_{hazard_class}_{x:g}.csv"
    what = f"{path.name}: predictions match the closed form within 0.5%"
    try:
        rows = list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))
    except OSError:
        checks.expect(False, what + " (file missing)")
        return
    zones = params.get(hazard_class, {})
    ok = bool(zones) and sorted(r["zone_id"] for r in rows) == sorted(zones)
    for r in rows if ok else []:
        outages, hours = closed_form(*zones[r["zone_id"]], x)
        ok = ok and _close(float(r["predicted_outages"]), outages) \
            and _close(float(r["predicted_restoration_hours"]), hours)
    checks.expect(ok, what)


def verify_cold(wl: Workload, ws: Path, tallies: dict | None,
                queries: list[tuple[str, float]], checks: Checks) -> dict:
    """Check a freshly computed workspace; returns the model parameters
    the benchmark predicts with."""
    if wl.pipeline:
        truth = json.loads((ws / "truth_comparison.json").read_text())
        b_err = truth["max_fragility_b_rel_error"]
        c_err = truth["max_restoration_c_rel_error"]
        checks.expect(b_err is not None and b_err <= MAX_TRUTH_B_ERR,
                      f"truth round trip: max b error {b_err} > {MAX_TRUTH_B_ERR}")
        checks.expect(c_err is not None and c_err <= MAX_TRUTH_C_ERR,
                      f"truth round trip: max c error {c_err} > {MAX_TRUTH_C_ERR}")
        for name, want in (tallies or {}).items():
            report = json.loads((ws / f"report_{name}.json").read_text())
            got = {key: report.get(key) for key in want}
            checks.expect(got == want, f"report_{name}.json tallies {got}, "
                                       f"expected {want}")
        params = fitted_params(ws)
    else:
        params = reference_params()
    for hazard, x in queries or [(s["hazard"], s["intensity"]) for s in SCENARIOS]:
        check_predictions(ws, hazard, x, params, checks)
    return params


def query_plan(wl: Workload, seed: int):
    """Endless seeded query sequence, alternating wind and precip, with
    every intensity distinct and none equal to a configured scenario."""
    rng = random.Random(f"{wl.name}:{seed}")
    taken = {round(s["intensity"] * 1000) for s in SCENARIOS + [EDIT_SCENARIO]}
    pools = {h: [v for v in rng.sample(range(lo, hi + 1), 2000) if v not in taken]
             for h, (lo, hi) in QUERY_RANGE.items()}
    for i in range(2 * min(len(p) for p in pools.values())):
        hazard = "wind" if i % 2 == 0 else "precip"
        yield hazard, pools[hazard][i // 2] / 1000.0


# ---------------------------------------------------------------------------
# Timed pass
# ---------------------------------------------------------------------------

class _Runner:
    def __init__(self, spawner: Spawner, work: Path, checks: Checks):
        self.spawner = spawner
        self.work = work
        self.checks = checks
        self.n = 0

    def cli(self, args: list[str], ws: Path, what: str) -> ChildResult:
        self.n += 1
        result = self.spawner.cli([*args, "--workspace", str(ws)],
                                  self.work / f"child{self.n % 4}.log")
        self.checks.exited_ok(result, f"{what}: gridres {args[0]}")
        return result

    def sequence(self, cmds: list[list[str]], ws: Path, what: str) -> tuple[float, float]:
        results = [self.cli(c, ws, what) for c in cmds]
        return sum(r.wall_s for r in results), max(r.rss_mb for r in results)


def timed_pass(wl: Workload, seed: int, seconds: float, spawner: Spawner,
               work: Path, checks: Checks) -> tuple[dict, dict]:
    """Untraced run: set-ups, then cold / no-op / edit repetitions, each on
    a fresh set-up. No-op reruns follow both the cold run and the edit, so
    their samples lie apart in time. whatif repeats until --seconds have
    passed since set-up ended; the pipelines run their repetitions once.

    Returns the end-to-end metrics and the sample counts behind them."""
    run = _Runner(spawner, work, checks)
    setups = [prepare(wl, work / f"ws{i}", seed, checks) for i in range(wl.setups)]
    start = time.perf_counter()
    queries = session(wl, seed)
    cold, noop, edit, rss, snaps = [], [], [], [], []

    def noops(ws: Path, cfg: Path, expected: dict) -> None:
        for _ in range(wl.noops):
            noop.append(run.sequence(sequence(wl, cfg, queries), ws, "no-op")[0])
            checks.expect(snapshot(ws) == expected,
                          "no-op rerun left every artifact byte-identical")

    for i in range(wl.setups):
        if i >= wl.reps and (wl.pipeline or time.perf_counter() - start >= seconds):
            break
        ws = work / f"ws{i}"
        cfg = write_config(work / f"config{i}.json", SCENARIOS)
        wall, peak = run.sequence(sequence(wl, cfg, queries), ws, "cold")
        cold.append(wall)
        rss.append(peak)
        settle(ws)
        before = snapshot(ws)
        snaps.append(before)
        if i == 0:
            try:
                params = verify_cold(wl, ws, setups[0]["tallies"], queries, checks)
            except (OSError, KeyError, ValueError) as exc:
                checks.expect(False, f"cold outputs unreadable: {exc!r}")
                params = {}
        noops(ws, cfg, before)

        write_config(cfg, SCENARIOS + [EDIT_SCENARIO])
        wall, peak = run.sequence(sequence(wl, cfg, queries), ws, "edit")
        edit.append(wall)
        rss.append(peak)
        settle(ws)
        after = snapshot(ws)
        checks.expect(all(after.get(k) == v for k, v in before.items()),
                      "edit rerun left every earlier artifact byte-identical")
        if wl.pipeline:
            check_predictions(ws, EDIT_SCENARIO["hazard"],
                              EDIT_SCENARIO["intensity"], params, checks)
        noops(ws, cfg, after)
    checks.expect(all(s == snaps[0] for s in snaps),
                  "every cold repetition produced byte-identical artifacts")

    metrics = {
        "setup_s": metric(median([s["setup_s"] for s in setups]), "s"),
        "cold_s": metric(median(cold), "s"),
        "noop_s": metric(median(noop), "s"),
        "edit_s": metric(median(edit), "s"),
        "peak_rss_mb": metric(max(rss), "MB"),
    }
    samples = {"setup_s": len(setups), "cold_s": len(cold), "noop_s": len(noop),
               "edit_s": len(edit), "measured_s": time.perf_counter() - start}
    return metrics, samples
