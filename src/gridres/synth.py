"""Seeded synthetic dataset generator with known ground-truth laws.

Generates the four input CSV files (outages, weather, stations, severe
events) plus truth.json, from per-zone fragility laws and a shared
restoration law, so the whole pipeline can be verified as a round trip:
generate -> ingest -> zones -> events -> link -> fit -> compare to truth.
Its 2 wind and 4 precipitation stations are drawn in reference.BOUNDARY.

Construction rules that make the round trip exact rather than hopeful:

  - Severe events occupy disjoint time slots (window plus worst-case
    restoration tail), so no two event outage chains can merge during
    event extraction and no window's outage count picks up a concurrent
    event's outages.
  - Each event's outages are placed inside the intersection of the target
    zone's cell and one cell of the other hazard class, so the chain stays
    a single connected event in both partitions. Because every zone shares
    one true restoration law, spillover samples still follow the truth.
  - Within an event, outage k stays active until outage k+1 begins, so the
    active count never returns to zero before the final restoration; the
    event's total duration is exactly rest(n) with log-normal noise of a
    fixed sigma, RESTORATION_NOISE_SIGMA.
  - Weather is hourly background noise (wind below every drawn wind
    intensity, zero precipitation) with each event's drawn intensity
    injected at its zone's station inside the window, so the measured
    intensity equals the drawn value exactly.

The outages, weather, stations and severe events are built as ingest's
tables and records and written by ingest's CSV writers, so the text format
of every input file is stated once, in ingest.

All randomness flows from one numpy PCG64 generator in a fixed draw order,
which makes bundles byte-identical for a given seed on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain

from . import np
from .errors import ValidationError, json_text
from .fitting import SaturatingRestorationModel, evaluate
from .ingest import (
    OutageTable,
    SevereTable,
    Station,
    WeatherTable,
    write_outages_csv,
    write_severe_csv,
    write_stations_csv,
    write_weather_csv,
)
from .reference import BOUNDARY
from .zoning import (
    HAZARD_PRECIPITATION,
    HAZARD_WIND,
    ZonePartition,
    _clip_halfplane,
    assign_many,
    boundary_to_geojson,
    build_partition,
    signed_area,
)

HORIZON_START = int(datetime(2018, 1, 1, tzinfo=timezone.utc).timestamp())
SECONDS_PER_YEAR = 365 * 24 * 3600

WIND_LABELS = ("Tornado", "High Wind")
PRECIP_LABELS = ("Flood", "Heavy Snow", "Snowstorm")

# chain geometry constants (seconds)
MIN_MEMBER_SECONDS = 60
WINDOW_HOURS = (3, 8)

# default shared restoration truth: c, a1, b1, a2, b2
DEFAULT_RESTORATION = (36.0, 28.0, 0.012, 6.0, 0.15)
# log-normal sigma of every restoration duration
RESTORATION_NOISE_SIGMA = 0.1

# background weather ceilings; drawn wind intensities must clear them
BG_WIND_AVG = (0.5, 4.0)
BG_WIND_GUST_FACTOR = (1.3, 2.2)
BG_WIND_CEILING = BG_WIND_AVG[1] * BG_WIND_GUST_FACTOR[1]


@dataclass
class SynthSpec:
    seed: int
    years: int = 6
    events_per_zone: int = 100
    background_outage_rate: float = 2.0  # outages per day, territory-wide
    mean_outages_per_event: float = 330.0
    wind_intensity_range: tuple[float, float] = (10.0, 28.0)
    precip_intensity_range: tuple[float, float] = (0.3, 4.0)
    # optional override, zone_id -> parameters
    true_restoration: dict[str, tuple[float, float, float, float, float]] | None = None

    def validate(self) -> None:
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")
        if self.years < 1:
            raise ValidationError("years must be at least 1")
        if self.events_per_zone < 0:
            raise ValidationError("events_per_zone must be nonnegative")
        if not 0.0 < self.mean_outages_per_event < math.inf:
            raise ValidationError("mean_outages_per_event must be positive and finite")
        if not 0.0 <= self.background_outage_rate < math.inf:
            raise ValidationError("background_outage_rate must be nonnegative and finite")
        lo, hi = self.wind_intensity_range
        if not 0.0 < lo <= hi:
            raise ValidationError("wind intensity range must be positive and ordered")
        if lo <= BG_WIND_CEILING + 1.0:
            raise ValidationError(
                f"wind intensities must stay above the background ceiling "
                f"({BG_WIND_CEILING + 1.0:g} m/s) so injected values dominate")
        lo, hi = self.precip_intensity_range
        if not 0.0 < lo <= hi:
            raise ValidationError("precip intensity range must be positive and ordered")


def _restoration_value(params: tuple[float, ...], n: float) -> float:
    return evaluate(SaturatingRestorationModel(*params), n)


def _default_fragility(index: int, hazard_class: str,
                       intensity_range: tuple[float, float],
                       mean_count: float) -> tuple[float, float]:
    """Pick (a, b) so the mean of a*e^(bx) over uniform x equals mean_count.

    b steps per zone index so every zone has a distinct recoverable rate.
    """
    if hazard_class == HAZARD_WIND:
        b = 0.22 + 0.03 * index
    else:
        b = 1.2 + 0.3 * index
    lo, hi = intensity_range
    if hi > lo:
        mean_factor = (math.exp(hi * b) - math.exp(lo * b)) / ((hi - lo) * b)
    else:
        mean_factor = math.exp(lo * b)
    return mean_count / mean_factor, b


# ---------------------------------------------------------------------------
# World construction (stations, partitions, truths)
# ---------------------------------------------------------------------------

@dataclass
class _World:
    stations: list[Station]
    partitions: dict[str, ZonePartition]
    fragility: dict[str, tuple[float, float]]
    restoration: dict[str, tuple[float, float, float, float, float]]
    # projected open CCW cell rings per class, aligned with partition zones
    cells: dict[str, list[list[tuple[float, float]]]]


def _build_world(spec: SynthSpec, rng: np.random.Generator) -> _World:
    (min_lon, min_lat), _, (max_lon, max_lat), _ = BOUNDARY

    # stations in a shrunk interior so every Voronoi cell has real area
    margin_lon = 0.12 * (max_lon - min_lon)
    margin_lat = 0.12 * (max_lat - min_lat)
    stations: list[Station] = []
    for prefix, count, capability in (
            ("WS", 2, HAZARD_WIND),
            ("PS", 4, HAZARD_PRECIPITATION)):
        for i in range(count):
            lon = round(float(rng.uniform(min_lon + margin_lon,
                                          max_lon - margin_lon)), 5)
            lat = round(float(rng.uniform(min_lat + margin_lat,
                                          max_lat - margin_lat)), 5)
            stations.append(Station(f"{prefix}{i:02d}", lat, lon,
                                    frozenset([capability])))
    if len({(s.latitude, s.longitude) for s in stations}) != len(stations):
        raise ValidationError("station placement collided; use another seed")

    partitions = {hazard_class: build_partition(stations, hazard_class, BOUNDARY)
                  for hazard_class in (HAZARD_WIND, HAZARD_PRECIPITATION)}

    fragility: dict[str, tuple[float, float]] = {}
    restoration: dict[str, tuple[float, float, float, float, float]] = {}
    for hazard_class, partition in partitions.items():
        intensity_range = (spec.wind_intensity_range
                           if hazard_class == HAZARD_WIND
                           else spec.precip_intensity_range)
        for i, zone in enumerate(partition.zones):
            fragility[zone.zone_id] = _default_fragility(
                i, hazard_class, intensity_range, spec.mean_outages_per_event)
            if spec.true_restoration and zone.zone_id in spec.true_restoration:
                restoration[zone.zone_id] = tuple(
                    spec.true_restoration[zone.zone_id])
            else:
                restoration[zone.zone_id] = DEFAULT_RESTORATION

    for zone_id, params in restoration.items():
        c, a1, b1, a2, b2 = params
        if min(c, a1, a2) < 0.0 or b1 <= 0.0 or b2 <= 0.0:
            raise ValidationError(
                f"true restoration parameters for {zone_id} violate sign "
                f"constraints")
        if _restoration_value(params, 1.0) < 0.5:
            raise ValidationError(
                f"true restoration for {zone_id} gives a single-outage event "
                f"under half an hour; chain construction needs more room")

    cells: dict[str, list[list[tuple[float, float]]]] = {}
    for hazard_class, partition in partitions.items():
        proj = partition.projection
        rings = []
        for zone in partition.zones:
            rings.append([proj.to_plane(lon, lat) for lon, lat in zone.polygon[:-1]])
        cells[hazard_class] = rings

    return _World(stations=stations, partitions=partitions,
                  fragility=fragility, restoration=restoration,
                  cells=cells)


# ---------------------------------------------------------------------------
# Convex-region sampling
# ---------------------------------------------------------------------------

def _clip_convex(poly: list[tuple[float, float]],
                 clipper: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Intersection of two open CCW convex rings via half-plane clipping."""
    out = list(poly)
    n = len(clipper)
    for i in range(n):
        px, py = clipper[i]
        qx, qy = clipper[(i + 1) % n]
        # interior of a CCW ring is the left side of each directed edge
        a = qy - py
        b = -(qx - px)
        c = a * px + b * py
        out = _clip_halfplane(out, a, b, c)
        if len(out) < 3:
            return []
    return out


def _sample_in_convex(
    rng: np.random.Generator,
    poly: list[tuple[float, float]],
    partition: ZonePartition,
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """n points uniform in a convex projected ring, as (lons, lats) rounded
    to 6 decimals with membership re-checked after rounding."""
    proj = partition.projection
    xs = np.array([p[0] for p in poly])
    ys = np.array([p[1] for p in poly])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    edges = [(xs[i], ys[i], xs[(i + 1) % len(poly)], ys[(i + 1) % len(poly)])
             for i in range(len(poly))]

    out_lon: list[np.ndarray] = []
    out_lat: list[np.ndarray] = []
    need = n
    stall = 0
    while need > 0:
        batch = max(4 * need, 64)
        cand_x = rng.uniform(x_lo, x_hi, batch)
        cand_y = rng.uniform(y_lo, y_hi, batch)
        lon, lat = np.round(proj.to_lonlat(cand_x, cand_y), 6)
        px, py = proj.to_plane(lon, lat)
        inside = np.ones(batch, dtype=bool)
        for ex0, ey0, ex1, ey1 in edges:
            inside &= (ex1 - ex0) * (py - ey0) - (ey1 - ey0) * (px - ex0) > 0.0
        hits = int(inside.sum())
        if hits == 0:
            stall += 1
            if stall > 200:
                raise ValidationError(
                    "could not place points inside a zone intersection; "
                    "the region is degenerate")
            continue
        stall = 0
        take = min(hits, need)
        out_lon.append(lon[inside][:take])
        out_lat.append(lat[inside][:take])
        need -= take
    return np.concatenate(out_lon), np.concatenate(out_lat)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _outage_table(batches: list[tuple]) -> OutageTable:
    """The emitted outage batches (lons, lats, start and end epoch seconds,
    customers, components, causes) joined in order, with ids O0000001...;
    no batch gives a table without rows."""
    empty = (np.empty(0), np.empty(0), *np.empty((4, 0), np.int64), [])
    *numbers, causes = zip(empty, *batches)
    lons, lats, starts, ends, customers, components = map(np.concatenate, numbers)
    return OutageTable(
        [f"O{i:07d}" for i in range(1, len(lons) + 1)],
        [f"C{c:05d}" for c in components.tolist()], lats, lons,
        starts.astype("datetime64[s]"), ends.astype("datetime64[s]"),
        ((ends - starts) // 60).astype(float), customers.astype(float),
        list(chain.from_iterable(causes)))


def generate(spec: SynthSpec) -> dict[str, bytes]:
    """Produce the dataset bundle as {filename: bytes}.

    Files: outages.csv, weather.csv, stations.csv, severe_events.csv,
    truth.json, boundary.geojson.
    """
    spec.validate()
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    world = _build_world(spec, rng)
    sigma = RESTORATION_NOISE_SIGMA

    horizon_sec = spec.years * SECONDS_PER_YEAR
    n_hours = spec.years * 365 * 24

    zone_cycle: list[tuple[str, int]] = []
    for hazard_class in (HAZARD_WIND, HAZARD_PRECIPITATION):
        for i in range(len(world.partitions[hazard_class].zones)):
            zone_cycle.append((hazard_class, i))
    total_events = spec.events_per_zone * len(zone_cycle)

    max_c = max(p[0] for p in world.restoration.values())
    tail_sec = int(max_c * math.exp(4.0 * sigma) * 3600) + 3600
    window_max_sec = WINDOW_HOURS[1] * 3600
    if total_events > 0:
        slot_sec = horizon_sec // total_events
        needed = window_max_sec + tail_sec + 2 * 3600
        if slot_sec < needed:
            raise ValidationError(
                f"infeasible generation plan: {total_events} events over "
                f"{spec.years} year(s) leaves {slot_sec / 3600:.1f} h per event "
                f"but isolation needs {needed / 3600:.1f} h; increase years or "
                f"reduce events_per_zone")

    other_class = {HAZARD_WIND: HAZARD_PRECIPITATION,
                   HAZARD_PRECIPITATION: HAZARD_WIND}

    outage_batches: list[tuple] = []  # see _outage_table
    severe_rows: list[tuple] = []  # SevereTable rows, instants in epoch seconds
    injections: dict[str, list[tuple[int, float]]] = \
        {s.station_id: [] for s in world.stations}
    label_counters = {HAZARD_WIND: 0, HAZARD_PRECIPITATION: 0}

    def emit_outages(lons: np.ndarray, lats: np.ndarray,
                     starts: np.ndarray, ends: np.ndarray, cause: str) -> None:
        n = len(lons)
        customers = rng.integers(1, 501, n)
        components = rng.integers(1, 30001, n)
        outage_batches.append((lons, lats, starts, ends, customers, components,
                               [cause] * n))

    for k in range(total_events):
        hazard_class, zi = zone_cycle[k % len(zone_cycle)]
        partition = world.partitions[hazard_class]
        zone = partition.zones[zi]
        intensity_range = (spec.wind_intensity_range
                           if hazard_class == HAZARD_WIND
                           else spec.precip_intensity_range)

        window_sec = int(rng.integers(WINDOW_HOURS[0], WINDOW_HOURS[1] + 1)) * 3600
        slot_start = HORIZON_START + k * slot_sec
        latest = slot_sec - window_sec - tail_sec
        w_start = slot_start + int(rng.integers(0, latest + 1))
        w_end = w_start + window_sec

        x = round(float(rng.uniform(*intensity_range)), 2)

        # epicenter inside the target cell; outages inside the intersection
        # with the other class's cell at that epicenter
        cell = world.cells[hazard_class][zi]
        region: list[tuple[float, float]] = []
        for _ in range(50):
            epi_lons, epi_lats = _sample_in_convex(rng, cell, partition, 1)
            epi_lon, epi_lat = float(epi_lons[0]), float(epi_lats[0])
            other = world.partitions[other_class[hazard_class]]
            wi = int(assign_many(other, epi_lons, epi_lats)[0])
            region = _clip_convex(cell, world.cells[other_class[hazard_class]][wi])
            if len(region) >= 3 and abs(signed_area(region)) > 1e-12:
                break
        else:
            raise ValidationError(
                f"zone {zone.zone_id} never yielded a usable cell "
                f"intersection; the layout is degenerate")

        labels = WIND_LABELS if hazard_class == HAZARD_WIND else PRECIP_LABELS
        label = labels[label_counters[hazard_class] % len(labels)]
        label_counters[hazard_class] += 1
        severe_rows.append((f"EV{k:05d}", label, w_start, w_end, epi_lat, epi_lon,
                            f"synthetic {label.lower()} affecting {zone.zone_id}"))

        hour_idx = -(-(w_start - HORIZON_START) // 3600)  # ceil division
        injections[zone.station_id].append((hour_idx, x))

        a, b = world.fragility[zone.zone_id]
        n = int(rng.poisson(a * math.exp(b * x)))
        if n == 0:
            continue

        rest_hours = _restoration_value(world.restoration[zone.zone_id], n)
        z = float(np.clip(rng.standard_normal(), -4.0, 4.0))
        t_sec = int(rest_hours * math.exp(sigma * z) * 3600)
        span = min(window_sec, int(0.8 * t_sec))
        starts = np.sort(w_start + rng.integers(0, span + 1, n))
        event_end = int(starts[0]) + t_sec
        ends = np.empty(n, dtype=np.int64)
        if n > 1:
            lower = np.maximum(starts[:-1] + MIN_MEMBER_SECONDS, starts[1:])
            ends[:-1] = rng.integers(lower, event_end + 1)
        ends[-1] = event_end

        lons, lats = _sample_in_convex(rng, region, partition, n)
        emit_outages(lons, lats, starts, ends, "weather")

    # background outages: sparse, territory-wide, singleton-scale durations
    if spec.background_outage_rate > 0.0:
        n_bg = int(rng.poisson(
            spec.background_outage_rate * horizon_sec / 86400.0))
        if n_bg > 0:
            bg_starts = np.sort(HORIZON_START
                                + rng.integers(0, horizon_sec, n_bg))
            rest_single = _restoration_value(
                next(iter(world.restoration.values())), 1.0)
            z = np.clip(rng.standard_normal(n_bg), -4.0, 4.0)
            durations = np.maximum(
                (rest_single * np.exp(sigma * z) * 3600).astype(np.int64),
                2 * MIN_MEMBER_SECONDS)
            proj = world.partitions[HAZARD_WIND].projection
            boundary_proj = [proj.to_plane(lon, lat) for lon, lat in BOUNDARY]
            lons, lats = _sample_in_convex(
                rng, boundary_proj, world.partitions[HAZARD_WIND], n_bg)
            emit_outages(lons, lats, bg_starts, bg_starts + durations,
                         "equipment")

    # hourly weather, station by station: background noise plus injected
    # intensities
    measures = np.zeros((3, len(world.stations), n_hours))  # avg, gust, precip
    for avg, gust, precip, station in zip(*measures, world.stations):
        avg[:] = np.round(rng.uniform(*BG_WIND_AVG, n_hours), 2)
        gust[:] = np.round(avg * rng.uniform(*BG_WIND_GUST_FACTOR, n_hours), 2)
        for hour_idx, x in injections[station.station_id]:
            if HAZARD_WIND in station.capabilities:
                gust[hour_idx] = x
                avg[hour_idx] = round(0.6 * x, 2)
            else:
                precip[hour_idx] = x
    hours = HORIZON_START + np.arange(n_hours, dtype=np.int64) * 3600
    no_snow = np.zeros(measures[0].size)
    weather = WeatherTable(
        list(chain.from_iterable([s.station_id] * n_hours for s in world.stations)),
        np.tile(hours.astype("datetime64[s]"), len(world.stations)),
        *(m.ravel() for m in measures), no_snow, no_snow)

    ids, labels, starts, ends, lats, lons, notes = list(zip(*severe_rows)) or [()] * 7
    severe = SevereTable(list(ids), list(labels), *(
        np.array(epochs, np.int64).astype("datetime64[s]") for epochs in (starts, ends)),
        np.array(lats, float), np.array(lons, float), list(notes))

    return {
        "outages.csv": write_outages_csv(_outage_table(outage_batches)),
        "weather.csv": write_weather_csv(weather),
        "stations.csv": write_stations_csv(world.stations),
        "severe_events.csv": write_severe_csv(severe),
        "truth.json": _truth_json(spec, world).encode("utf-8"),
        "boundary.geojson": boundary_to_geojson(BOUNDARY).encode("utf-8"),
    }


def _truth_json(spec: SynthSpec, world: _World) -> str:
    zones = {}
    for hazard_class, partition in world.partitions.items():
        for zone in partition.zones:
            a, b = world.fragility[zone.zone_id]
            c, a1, b1, a2, b2 = world.restoration[zone.zone_id]
            zones[zone.zone_id] = {
                "station_id": zone.station_id,
                "hazard_class": hazard_class,
                "fragility": {"a": a, "b": b},
                "restoration": {"c": c, "a1": a1, "b1": b1,
                                "a2": a2, "b2": b2},
            }
    doc = {
        "seed": spec.seed,
        "rng": "numpy-pcg64",
        # the territory rectangle: min lon, min lat, max lon, max lat
        "boundary": [*BOUNDARY[0], *BOUNDARY[2]],
        "years": spec.years,
        "horizon_start": HORIZON_START,
        "events_per_zone": spec.events_per_zone,
        "background_outage_rate": spec.background_outage_rate,
        "restoration_noise_sigma": RESTORATION_NOISE_SIGMA,
        "intensity_ranges": {
            HAZARD_WIND: list(spec.wind_intensity_range),
            HAZARD_PRECIPITATION: list(spec.precip_intensity_range),
        },
        "zones": zones,
    }
    return json_text(doc)
