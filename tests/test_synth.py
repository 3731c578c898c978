"""Synthetic bundle generation: determinism, cleanliness, statistics."""

import hashlib
import json
import math
from pathlib import Path

import pytest

from gridres.cli import main
from gridres.errors import ValidationError
from gridres import linkage
from gridres.ingest import (
    parse_instant,
    parse_outages,
    parse_stations,
    parse_weather,
)
from gridres.ingest import parse_severe as parse_severe_table
from gridres.linkage import StationIndex
from gridres.synth import SynthSpec, generate
from gridres.zoning import assign_many, build_partition, load_boundary_geojson
from conftest import OUTAGES_HEADER
from oracles import datetime64, outage_records, severe_records

SMALL = dict(years=1, events_per_zone=6, mean_outages_per_event=40.0)


def small_spec(seed=42, **kw):
    return SynthSpec(seed=seed, **{**SMALL, **kw})


def parse_severe(data):
    """ingest.parse_severe, with the kept rows as records."""
    table, report = parse_severe_table(data)
    return severe_records(table), report


def classify_hazard(record):
    """linkage.classify_hazard of a record's label."""
    return linkage.classify_hazard(record.event_type)


def intensity(index, station_id, window, hazard_class):
    """linkage.intensity with the window bounds as datetimes."""
    return linkage.intensity(index, station_id, tuple(map(datetime64, window)),
                             hazard_class)


def zone_of(partition, rec):
    """Zone id of a severe record's coordinates."""
    zi = int(assign_many(partition, [rec.longitude], [rec.latitude])[0])
    return partition.zones[zi].zone_id


@pytest.fixture(scope="module")
def bundle():
    return generate(small_spec())


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_same_seed_byte_identical(bundle):
    again = generate(small_spec())
    assert set(again) == set(bundle)
    for name in bundle:
        assert again[name] == bundle[name], f"{name} differs across runs"


def test_different_seed_differs(bundle):
    other = generate(small_spec(seed=43))
    assert other["outages.csv"] != bundle["outages.csv"]
    assert other["stations.csv"] != bundle["stations.csv"]


def test_seed_bundle_matches_benchmark_pin():
    # The digest rule of bench/common.digest_files: sha256 over each file's
    # name, a NUL and the sha256 of its bytes, in name order.
    pins = json.loads((Path(__file__).parents[1] / "bench" / "pins.json").read_text())
    h = hashlib.sha256()
    for name, data in sorted(generate(SynthSpec(seed=20240811)).items()):
        h.update(name.encode("utf-8") + b"\0" + hashlib.sha256(data).digest())
    assert h.hexdigest() == pins["seed-pipeline"]


# ---------------------------------------------------------------------------
# Bundle contents
# ---------------------------------------------------------------------------

def test_zero_events_leaves_only_background():
    out = generate(small_spec(events_per_zone=0))
    records = outage_records(parse_outages(out["outages.csv"])[0])
    assert records
    assert all(r.cause_code == "equipment" for r in records)
    severe, _ = parse_severe(out["severe_events.csv"])
    assert severe == []


def test_bundle_without_outages_has_a_header_only_outage_file(tmp_path):
    out = generate(SynthSpec(seed=7, years=1, events_per_zone=0,
                             background_outage_rate=0.0))
    assert out["outages.csv"] == (OUTAGES_HEADER + "\n").encode()
    (tmp_path / "inputs").mkdir()
    for name, data in out.items():
        (tmp_path / "inputs" / name).write_bytes(data)
    assert main(["ingest", "--workspace", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report_outages.json").read_text())
    assert report["total_rows"] == report["kept"] == 0


def test_raw_and_clean_files_share_one_format(tiny_ws):
    raw = (tiny_ws / "inputs" / "outages.csv").read_bytes()
    assert (tiny_ws / "clean_outages.csv").read_bytes() == raw
    header, *rows = (tiny_ws / "inputs" / "weather.csv").read_text().splitlines()
    by_station = sorted(rows, key=lambda row: row.split(",", 1)[0])
    assert (tiny_ws / "clean_weather.csv").read_text().splitlines() \
        == [header, *by_station]


def test_everything_passes_cleaning_with_zero_drops(bundle):
    _, outage_report = parse_outages(bundle["outages.csv"])
    assert outage_report.kept == outage_report.total_rows > 0
    _, weather_report = parse_weather(bundle["weather.csv"])
    assert weather_report.kept == weather_report.total_rows > 0
    _, severe_report = parse_severe(bundle["severe_events.csv"])
    assert severe_report.kept == severe_report.total_rows > 0
    stations = parse_stations(bundle["stations.csv"])
    assert len(stations) == 6


def test_truth_zone_ids_match_partition(bundle):
    truth = json.loads(bundle["truth.json"])
    stations = parse_stations(bundle["stations.csv"])
    ring = load_boundary_geojson(bundle["boundary.geojson"].decode())
    expected = {}
    for hazard_class in ("wind", "precipitation"):
        part = build_partition(stations, hazard_class, ring)
        for zone in part.zones:
            expected[zone.zone_id] = zone.station_id
    assert {z: v["station_id"] for z, v in truth["zones"].items()} == expected


def test_truth_records_spec_parameters(bundle):
    truth = json.loads(bundle["truth.json"])
    assert truth["seed"] == 42
    assert truth["years"] == 1
    assert truth["events_per_zone"] == 6
    assert truth["rng"] == "numpy-pcg64"
    for zone in truth["zones"].values():
        assert set(zone["fragility"]) == {"a", "b"}
        assert set(zone["restoration"]) == {"c", "a1", "b1", "a2", "b2"}


def test_custom_truth_override_lands_in_report():
    spec = small_spec(true_fragility={"wind:0": (0.1, 0.3)})
    truth = json.loads(generate(spec)["truth.json"])
    assert truth["zones"]["wind:0"]["fragility"] == {"a": 0.1, "b": 0.3}


# ---------------------------------------------------------------------------
# Injected weather is recoverable through the linkage chain
# ---------------------------------------------------------------------------

def test_severe_windows_have_in_range_intensity(bundle):
    truth = json.loads(bundle["truth.json"])
    stations = parse_stations(bundle["stations.csv"])
    ring = load_boundary_geojson(bundle["boundary.geojson"].decode())
    parts = {h: build_partition(stations, h, ring)
             for h in ("wind", "precipitation")}
    weather = StationIndex(parse_weather(bundle["weather.csv"])[0])
    severe, _ = parse_severe(bundle["severe_events.csv"])
    ranges = truth["intensity_ranges"]

    assert severe
    for rec in severe:
        hazard_class = classify_hazard(rec)
        assert hazard_class in parts
        zone_id = zone_of(parts[hazard_class], rec)
        station_id = truth["zones"][zone_id]["station_id"]
        got = intensity(weather, station_id, (rec.start, rec.end), hazard_class)
        assert got is not None
        lo, hi = ranges[hazard_class]
        assert lo <= got <= hi
        assert got == round(got, 2)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_rejects_wind_range_below_background_ceiling():
    with pytest.raises(ValidationError):
        generate(small_spec(wind_intensity_range=(5.0, 20.0)))


def test_rejects_infeasible_event_plan():
    with pytest.raises(ValidationError, match="years"):
        generate(small_spec(events_per_zone=500))


@pytest.mark.parametrize("bad, needle", [
    ({"restoration_noise_sigma": 0.9}, "sigma"),
    ({"seed": -1}, "seed"),
    ({"years": 0}, "years"),
    ({"events_per_zone": -1}, "events_per_zone"),
    ({"background_outage_rate": -1.0}, "background_outage_rate"),
    ({"wind_intensity_range": (28.0, 10.0)}, "wind intensity range"),
    ({"precip_intensity_range": (4.0, 0.3)}, "precip intensity range"),
], ids=["sigma", "seed", "years", "events-per-zone", "background-rate",
        "wind-range-reversed", "precip-range-reversed"])
def test_rejects_bad_spec(bad, needle):
    with pytest.raises(ValidationError, match=needle):
        generate(small_spec(**bad))


# ---------------------------------------------------------------------------
# Statistical sanity: outage counts are Poisson around the fragility mean
# ---------------------------------------------------------------------------

def test_mean_outage_count_tracks_fragility_curve():
    # pin x by collapsing the intensity ranges, drop background noise, and
    # shrink restoration tails so ~1000 events fit in two years
    tight_rest = (2.0, 1.0, 0.012, 0.5, 0.15)
    spec = SynthSpec(
        seed=1105,
        years=2,
        events_per_zone=170,
        mean_outages_per_event=20.0,
        background_outage_rate=0.0,
        wind_intensity_range=(10.0, 10.0001),
        precip_intensity_range=(2.0, 2.0001),
        true_restoration={z: tight_rest for z in
                          ("wind:0", "wind:1", "precipitation:0",
                           "precipitation:1", "precipitation:2",
                           "precipitation:3")},
    )
    out = generate(spec)
    truth = json.loads(out["truth.json"])
    stations = parse_stations(out["stations.csv"])
    ring = load_boundary_geojson(out["boundary.geojson"].decode())
    parts = {h: build_partition(stations, h, ring)
             for h in ("wind", "precipitation")}
    outages = outage_records(parse_outages(out["outages.csv"])[0])
    severe, _ = parse_severe(out["severe_events.csv"])
    assert len(severe) == 1020

    counts: dict[str, list[int]] = {}
    for rec in severe:
        hazard_class = classify_hazard(rec)
        zone_id = zone_of(parts[hazard_class], rec)
        n = sum(1 for o in outages if rec.start <= o.start <= rec.end)
        counts.setdefault(zone_id, []).append(n)

    x_at = {"wind": 10.0, "precipitation": 2.0}
    for zone_id, zone_counts in counts.items():
        info = truth["zones"][zone_id]
        lam = info["fragility"]["a"] * math.exp(
            info["fragility"]["b"] * x_at[info["hazard_class"]])
        mean = sum(zone_counts) / len(zone_counts)
        stderr = math.sqrt(lam / len(zone_counts))
        assert abs(mean - lam) <= 3.0 * stderr, (
            f"{zone_id}: mean {mean:.2f} vs lambda {lam:.2f} "
            f"({len(zone_counts)} events)")
