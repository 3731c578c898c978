"""Release acceptance gate.

One test per shipping criterion. Each prints a single visible
pass/fail line (capture is suspended for just that line) so a plain
`pytest -v` run shows the verdicts. Tolerances and runtime budgets are
pinned on purpose: loosening them is a release decision, not a
refactor.
"""

import csv
import io
import json
import time
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from gridres.cli import main
from gridres.events import extract_events
from gridres.fitting import (SaturatingRestorationModel, evaluate,
                             exponential_system, fit_exponential,
                             fit_restoration, restoration_system)
from gridres.ingest import OUTAGES_HEADER, Station, parse_outages
from gridres.reference import (RESTORATION, materialize_reference_workspace,
                               reference_partition, reference_wind_store)
from gridres.scenario import (ScenarioSpec, emit_choropleth, predict_all,
                              predict_zone)
from gridres.zoning import build_partition, assign_many
from oracles import OutageRecord, nearest_station_index, outage_table

UTC = timezone.utc
BASE = datetime(2015, 3, 1, tzinfo=UTC)
GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(capsys, number: int, label: str):
    """Wrap one criterion; print its verdict outside pytest's capture."""
    info: dict = {}
    t0 = time.perf_counter()
    try:
        yield info
    except BaseException:
        with capsys.disabled():
            print(f"\ncriterion {number} FAIL: {label}")
        raise
    dt = time.perf_counter() - t0
    detail = info.get("detail", "")
    suffix = f" [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"\ncriterion {number} PASS: {label}{suffix} ({dt:.2f} s)")


# ---------------------------------------------------------------------------
# 1. Published-coefficient predictions through the CLI
# ---------------------------------------------------------------------------

def _read_predictions(path: Path) -> dict[str, tuple[float, float]]:
    out = {}
    with path.open(newline="") as fh:
        for row in csv.DictReader(fh):
            out[row["zone_id"]] = (float(row["predicted_outages"]),
                                   float(row["predicted_restoration_hours"]))
    return out


def test_criterion_1_published_model_predictions(tmp_path, capsys):
    with criterion(capsys, 1,
                   "published-coefficient predictions within 0.5%") as info:
        ws = tmp_path / "ref_ws"
        materialize_reference_workspace(ws)

        t0 = time.perf_counter()
        assert main(["predict", "--hazard", "wind", "--intensity", "35",
                     "--workspace", str(ws)]) == 0
        assert main(["predict", "--hazard", "precip", "--intensity", "2.5",
                     "--workspace", str(ws)]) == 0
        predict_s = time.perf_counter() - t0
        assert predict_s < 1.0

        wind = _read_predictions(ws / "predictions_wind_35.csv")
        precip = _read_predictions(ws / "predictions_precipitation_2.5.csv")

        assert wind["wind:0"][0] == pytest.approx(77.1, rel=5e-3)
        assert wind["wind:1"][0] == pytest.approx(118.5, rel=5e-3)
        assert wind["wind:1"][1] == pytest.approx(39.6, rel=5e-3)
        # shared model everywhere except the zone with its own fit
        assert precip["precipitation:0"][0] == pytest.approx(66.3, rel=5e-3)
        assert precip["precipitation:4"][0] == pytest.approx(67.0, rel=5e-3)

        info["detail"] = (
            f"wind 77.1/118.5 outages, 39.6 h; precip 66.3/67.0; "
            f"predict {predict_s * 1000.0:.0f} ms")


# ---------------------------------------------------------------------------
# 2. Event extraction vs union-of-intervals oracle
# ---------------------------------------------------------------------------

def _union_oracle(intervals):
    """Merged half-open windows with member counts; touching windows fuse."""
    iv = sorted(intervals, key=lambda p: p[0])
    merged = []
    cur_s, cur_e, count = iv[0][0], iv[0][1], 1
    for s, e in iv[1:]:
        if s <= cur_e:
            count += 1
            if e > cur_e:
                cur_e = e
        else:
            merged.append((cur_s, cur_e, count))
            cur_s, cur_e, count = s, e, 1
    merged.append((cur_s, cur_e, count))
    return merged


def _records_from_hours(starts, durs) -> list[OutageRecord]:
    recs = []
    for i, (s, d) in enumerate(zip(starts, durs)):
        start = BASE + timedelta(hours=float(s))
        end = start + timedelta(hours=float(d))
        recs.append(OutageRecord(
            outage_id=f"O{i}", component_id=f"C{i}",
            latitude=39.7, longitude=-86.1, start=start, end=end,
            restore_minutes=(end - start).total_seconds() / 60.0,
            customers=1, cause_code="weather"))
    return recs


def test_criterion_2_event_extraction_oracle(capsys):
    with criterion(capsys, 2, "event extraction matches interval-union "
                              "oracle on 1000 seeded instances") as info:
        rng = np.random.default_rng(20240212)
        total = 0
        t0 = time.perf_counter()
        for case in range(1000):
            n = int(rng.integers(1, 51))
            starts = rng.uniform(0.0, 500.0, n)
            durs = rng.uniform(0.25, 48.0, n)
            if case % 2:
                # quarter-hour grid so exactly-touching windows occur often
                starts = np.round(starts * 4.0) / 4.0
                durs = np.round(durs * 4.0) / 4.0 + 0.25
            recs = _records_from_hours(starts, durs)
            events = extract_events(outage_table(recs))
            oracle = _union_oracle([(r.start, r.end) for r in recs])

            assert len(events) == len(oracle)
            for ev, (s, e, count) in zip(events, oracle):
                assert ev.first_start == s
                assert ev.last_restoration == e
                assert ev.n_outages == count
                assert ev.total_restoration_hours == \
                    (e - s).total_seconds() / 3600.0
            assert sum(ev.n_outages for ev in events) == n
            total += n
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        info["detail"] = f"{total} intervals"


# ---------------------------------------------------------------------------
# 3. Zone assignment vs brute-force nearest station
# ---------------------------------------------------------------------------

RECT = [(-86.35, 39.60), (-85.90, 39.60), (-85.90, 39.95), (-86.35, 39.95)]
TIE_TOL = 1e-12


def test_criterion_3_zone_assignment_oracle(capsys):
    with criterion(capsys, 3, "zone assignment matches brute-force nearest "
                              "station on 10000 points") as info:
        rng = np.random.default_rng(20240213)
        checked = 0
        layouts = 0
        t0 = time.perf_counter()
        while checked < 10_000:
            k = int(rng.integers(2, 13))
            lons = rng.uniform(-86.35, -85.90, k)
            lats = rng.uniform(39.60, 39.95, k)
            stations = [Station(station_id=f"S{i}", latitude=float(lats[i]),
                                longitude=float(lons[i]),
                                capabilities=frozenset({"wind"}))
                        for i in range(k)]
            part = build_partition(stations, "wind", RECT)
            layouts += 1

            m = min(500, 10_000 - checked)
            # draw from a box slightly larger than the territory so points
            # outside the boundary are exercised too
            plons = rng.uniform(-86.40, -85.85, m)
            plats = rng.uniform(39.55, 40.00, m)
            got = assign_many(part, plons, plats)

            proj = part.projection
            px = (plons - proj.lon0) * proj.cos_lat0
            py = plats - proj.lat0
            sites = np.asarray(part.sites)
            dx = px[:, None] - sites[None, :, 0]
            dy = py[:, None] - sites[None, :, 1]
            d = np.sqrt(dx * dx + dy * dy)
            for j in range(m):
                d_min = d[j].min()
                want = next(i for i in range(k) if d[j, i] <= d_min + TIE_TOL)
                assert got[j] == want
                if j % 25 == 0:  # scalar oracle agrees with the vector path
                    assert nearest_station_index(part, float(plons[j]),
                                                 float(plats[j])) == want
            checked += m
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0
        info["detail"] = f"{checked} points over {layouts} layouts"


# ---------------------------------------------------------------------------
# 4. Solver recovery and Jacobian correctness
# ---------------------------------------------------------------------------

def _central_fd(residuals, p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    r0 = residuals(p)
    J = np.empty((r0.size, p.size))
    for j in range(p.size):
        h = 1e-6 * max(1.0, abs(p[j]))
        up, dn = p.copy(), p.copy()
        up[j] += h
        dn[j] -= h
        J[:, j] = (residuals(up) - residuals(dn)) / (2.0 * h)
    return J


def _max_scaled_err(J: np.ndarray, J_fd: np.ndarray) -> float:
    return float(np.max(np.abs(J - J_fd) / np.maximum(1.0, np.abs(J))))


def test_criterion_4_solver_recovery(capsys):
    with criterion(capsys, 4, "noiseless curve recovery and analytic "
                              "Jacobians vs finite differences") as info:
        x = np.linspace(0.0, 10.0, 11)
        samples = [(float(v), float(3.0 * np.exp(0.2 * v))) for v in x]
        model, diag = fit_exponential(samples, zone_id="wind:0",
                                      hazard_class="wind")
        assert diag.converged
        assert model.a == pytest.approx(3.0, rel=1e-6)
        assert model.b == pytest.approx(0.2, rel=1e-6)

        c, a1, b1, a2, b2 = 200.0, 150.0, 0.01, 50.0, 0.05
        xr = np.arange(1.0, 301.0)
        yr = c - a1 * np.exp(-b1 * xr) - a2 * np.exp(-b2 * xr)
        rest, rdiag = fit_restoration(list(zip(map(float, xr),
                                               map(float, yr))),
                                      zone_id="wind:0")
        assert rdiag.converged
        for got, want in zip((rest.c, rest.a1, rest.b1, rest.a2, rest.b2),
                             (c, a1, b1, a2, b2)):
            assert got == pytest.approx(want, rel=1e-3)

        rng = np.random.default_rng(20240214)
        worst = 0.0
        xe = np.linspace(0.0, 10.0, 11)
        xd = np.linspace(1.0, 300.0, 30)
        for _ in range(50):
            p = np.array([rng.uniform(0.1, 5.0), rng.uniform(-0.5, 0.5)])
            residuals, jacobian = exponential_system(
                xe, rng.uniform(0.0, 50.0, xe.size))
            worst = max(worst, _max_scaled_err(jacobian(p),
                                               _central_fd(residuals, p)))
        for _ in range(50):
            p = np.array([rng.uniform(50.0, 300.0),
                          rng.uniform(1.0, 200.0), rng.uniform(1e-3, 0.5),
                          rng.uniform(1.0, 200.0), rng.uniform(1e-3, 0.5)])
            residuals, jacobian = restoration_system(
                xd, rng.uniform(0.0, 300.0, xd.size))
            worst = max(worst, _max_scaled_err(jacobian(p),
                                               _central_fd(residuals, p)))
        assert worst <= 1e-5
        info["detail"] = f"max Jacobian deviation {worst:.1e}"


# ---------------------------------------------------------------------------
# 5. Full-scale synthetic round trip
# ---------------------------------------------------------------------------

def _run_seeded_pipeline(ws: Path, cfg: Path) -> None:
    assert main(["synth", "--seed", "20240811",
                 "--workspace", str(ws), "--config", str(cfg)]) == 0
    assert main(["run-all", "--workspace", str(ws),
                 "--config", str(cfg)]) == 0


def test_criterion_5_synthetic_round_trip(tmp_path, capsys):
    with criterion(capsys, 5, "seeded synthetic round trip recovers truth "
                              "and reproduces bytes") as info:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenarios": [
            {"hazard": "wind", "intensity": 35.0},
            {"hazard": "precip", "intensity": 2.5},
        ]}))

        ws = tmp_path / "ws_a"
        t0 = time.perf_counter()
        _run_seeded_pipeline(ws, cfg)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0

        with (ws / "inputs" / "outages.csv").open() as fh:
            n_rows = sum(1 for _ in fh) - 1
        assert n_rows > 200_000

        comparison = json.loads((ws / "truth_comparison.json").read_text())
        # default territory: 2 wind stations + 4 precipitation stations
        assert len(comparison["zones"]) == 6
        b_err = comparison["max_fragility_b_rel_error"]
        c_err = comparison["max_restoration_c_rel_error"]
        assert b_err <= 0.15
        assert c_err <= 0.20

        # identical seed, fresh workspace: every artifact byte-identical
        # (manifest excluded; it records wall-clock completion times)
        ws2 = tmp_path / "ws_b"
        _run_seeded_pipeline(ws2, cfg)
        files_a = {p.relative_to(ws) for p in ws.rglob("*") if p.is_file()}
        files_b = {p.relative_to(ws2) for p in ws2.rglob("*") if p.is_file()}
        assert files_a == files_b
        for rel in sorted(files_a, key=str):
            if rel.name == "manifest.json":
                continue
            assert (ws / rel).read_bytes() == (ws2 / rel).read_bytes(), \
                f"output differs between identical-seed runs: {rel}"

        info["detail"] = (f"{n_rows} outage rows in {elapsed:.1f} s, "
                          f"max b err {b_err:.1%}, max c err {c_err:.1%}, "
                          f"{len(files_a)} artifacts byte-identical")


# ---------------------------------------------------------------------------
# 6. Choropleth shading contrast between the two wind zones
# ---------------------------------------------------------------------------

def test_criterion_6_choropleth_contrast(capsys):
    with criterion(capsys, 6, "wind zone 0 shaded darker (shorter hours) "
                              "than zone 1 at 35 m/s") as info:
        scenario = ScenarioSpec(hazard_class="wind", intensity=35.0)
        partition = reference_partition("wind")
        preds = predict_all(reference_wind_store(), partition, scenario)
        doc = json.loads(emit_choropleth(partition, preds, scenario))

        shade = {f["properties"]["zone_id"]: f["properties"]["shade"]
                 for f in doc["features"]}
        hours = {f["properties"]["zone_id"]:
                 f["properties"]["predicted_restoration_hours"]
                 for f in doc["features"]}
        assert doc["color_scale"]["darker_is_shorter"] is True
        assert hours["wind:0"] < hours["wind:1"]
        assert shade["wind:0"] < shade["wind:1"]
        info["detail"] = (f"{hours['wind:0']:.1f} h shade {shade['wind:0']:g}"
                          f" vs {hours['wind:1']:.1f} h shade "
                          f"{shade['wind:1']:g}")


# ---------------------------------------------------------------------------
# 7. Property-suite representatives
# ---------------------------------------------------------------------------

def _fuzz_outages_csv(rng) -> bytes:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(OUTAGES_HEADER)
    for i in range(int(rng.integers(0, 31))):
        start = BASE + timedelta(hours=float(rng.uniform(0.0, 400.0)))
        d_min = float(rng.uniform(30.0, 1440.0))
        end = start + timedelta(minutes=d_min)
        row = [f"O{i}", f"C{i}", f"{rng.uniform(39.6, 39.95):.4f}",
               f"{rng.uniform(-86.35, -85.9):.4f}",
               start.strftime("%Y-%m-%dT%H:%M:%SZ"),
               end.strftime("%Y-%m-%dT%H:%M:%SZ"),
               f"{d_min:.1f}", "5", "weather"]
        kind = int(rng.integers(0, 6))
        if kind == 1:
            row[int(rng.integers(0, 9))] = ""          # missing field
        elif kind == 2:
            row[4] = "never"                           # unparseable time
        elif kind == 3:
            row[2] = "95.0"                            # latitude bound
        elif kind == 4:
            row[6] = f"{d_min + 500.0:.1f}"            # restore mismatch
        elif kind == 5:
            row = row + ["x"] * int(rng.integers(1, 5))  # ragged width
        w.writerow(row)
    return out.getvalue().encode("utf-8")


def test_criterion_7_property_representatives(capsys):
    with criterion(capsys, 7, "property representatives: accounting, "
                              "monotonicity, conservation, composition, "
                              "goldens") as info:
        rng = np.random.default_rng(20240215)

        # cleaning-report accounting identity under fuzzed input
        for _ in range(150):
            records, report = parse_outages(_fuzz_outages_csv(rng))
            dropped = (report.dropped_missing_field
                       + report.dropped_inconsistent_time
                       + report.dropped_out_of_bounds)
            assert report.total_rows == report.kept + dropped
            assert report.kept == len(records)

        # restoration curve never decreases
        c, a1, b1, a2, b2 = RESTORATION
        model = SaturatingRestorationModel(c=c, a1=a1, b1=b1, a2=a2, b2=b2,
                                           zone_id="wind:1")
        ys = np.array([evaluate(model, float(v))
                       for v in np.linspace(0.0, 2000.0, 1000)])
        assert np.all(np.diff(ys) >= -1e-9)

        # event extraction conserves the outage count
        starts = rng.uniform(0.0, 2000.0, 2000)
        durs = rng.uniform(0.25, 72.0, 2000)
        events = extract_events(outage_table(_records_from_hours(starts, durs)))
        assert sum(ev.n_outages for ev in events) == 2000

        # prediction is the bitwise composition of the two model evaluations
        store = reference_wind_store()
        frag = store.zones["wind:1"]["fragility"].to_model("wind:1", "wind")
        rest = store.zones["wind:1"]["restoration"].to_model("wind:1", "wind")
        pred = predict_zone(frag, rest, 35.0)
        assert pred.predicted_outages == evaluate(frag, 35.0)
        assert pred.predicted_restoration_hours == \
            evaluate(rest, evaluate(frag, 35.0))

        # rendered artifacts still match their goldens
        scenario = ScenarioSpec(hazard_class="wind", intensity=35.0)
        partition = reference_partition("wind")
        preds = predict_all(store, partition, scenario)
        golden = (GOLDEN / "choropleth_wind_35.geojson").read_text()
        assert emit_choropleth(partition, preds, scenario) == golden

        info["detail"] = ("150 fuzzed reports, 1000-point grid, "
                          "2000 intervals conserved")
