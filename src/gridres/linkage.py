"""Link severe-weather records to zones, station measurements, and outages.

build_fragility_samples turns agency hazard logs into fragility samples:

  classify_hazard  label each record wind / precipitation / excluded
  assign_many      put each record and each outage in its nearest
                   station's zone
  merge_windows    union overlapping windows per zone so no outage
                   counts twice
  intensity        look up the zone station's measurements over the window

and counts the zone's outages whose start falls inside each window.
Counting is start-based because restorations may run long past the hazard.

Severe records carry no numeric magnitude, so intensity always comes from
the zone's own station: the max fastest-2-minute wind speed for wind
events, cumulative liquid-equivalent depth (precip + snowfall) for
precipitation events. Observation rows are hour-stamped while event starts
are minute-stamped, so the measurement range extends one hour before the
window start.

A window whose station has no usable observations is dropped with a logged
reason; it is never silently scored zero. Zero-outage windows are kept:
without them fragility curves bow upward at low intensity.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from .ingest import (OutageTable, SevereWeatherRecord, WeatherTable, csv_bytes,
                     datetime64, format_instant, utc_datetimes)
from .events import union_intervals
from .zoning import HAZARD_PRECIPITATION, HAZARD_WIND, ZonePartition, assign_many

log = logging.getLogger(__name__)

HAZARD_EXCLUDED = "excluded"

DEFAULT_HAZARD_MAPPING: dict[str, str] = {
    "tornado": HAZARD_WIND,
    "high wind": HAZARD_WIND,
    "flood": HAZARD_PRECIPITATION,
    "heavy snow": HAZARD_PRECIPITATION,
    "snowstorm": HAZARD_PRECIPITATION,
}

PRECIP_MODE_CUMULATIVE = "cumulative"
PRECIP_MODE_PEAK = "peak"

# hour-stamped observations cover minute-stamped window starts
INTENSITY_LOOKBACK = timedelta(hours=1)


@dataclass(frozen=True)
class MergedWindow:
    start: datetime
    end: datetime
    source_event_ids: tuple[str, ...]


@dataclass(frozen=True)
class FragilitySample:
    zone_id: str
    window_start: datetime
    window_end: datetime
    intensity: float
    outage_count: int
    source_event_ids: tuple[str, ...]


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def classify_hazard(
    record: SevereWeatherRecord, mapping: dict[str, str] | None = None,
) -> str:
    """Map an event_type label to wind / precipitation / excluded.

    Lookup is case-insensitive; labels absent from the mapping are excluded.
    """
    mapping = DEFAULT_HAZARD_MAPPING if mapping is None else mapping
    return mapping.get(record.event_type.strip().lower(), HAZARD_EXCLUDED)


# ---------------------------------------------------------------------------
# Window merging
# ---------------------------------------------------------------------------

def merge_windows(records: list[SevereWeatherRecord]) -> list[MergedWindow]:
    """Union overlapping or touching closed [start, end] windows.

    Records must already share a zone and hazard class. Output is
    chronological; each merged window carries every source event id.
    """
    ordered = sorted(records, key=lambda r: (r.start, r.event_id))
    first, stop, end = union_intervals(
        np.array([datetime64(r.start) for r in ordered], "datetime64[us]"),
        np.array([datetime64(r.end) for r in ordered], "datetime64[us]"))
    return [MergedWindow(ordered[a].start, window_end,
                         tuple(r.event_id for r in ordered[a:b]))
            for a, b, window_end in zip(first.tolist(), stop.tolist(),
                                        utc_datetimes(end))]


# ---------------------------------------------------------------------------
# Intensity lookup
# ---------------------------------------------------------------------------

class StationIndex:
    """Row numbers of a weather table per station, sorted by timestamp,
    for range lookup."""

    def __init__(self, weather: WeatherTable):
        self.weather = weather
        stations = list(dict.fromkeys(weather.station_id))
        code = np.fromiter(map({s: i for i, s in enumerate(stations)}.__getitem__,
                               weather.station_id), np.intp, len(weather))
        order = np.lexsort((weather.timestamp, code))
        bounds = np.searchsorted(code[order], np.arange(len(stations) + 1))
        self._rows = {station: order[bounds[i]:bounds[i + 1]]
                      for i, station in enumerate(stations)}
        # In microseconds, the unit window bounds are looked up in.
        self._times = {station: weather.timestamp[rows].astype("datetime64[us]")
                       for station, rows in self._rows.items()}

    def in_range(self, station_id: str, start: datetime, end: datetime,
                 ) -> np.ndarray:
        """Row numbers of the station's rows with start <= timestamp <= end,
        in time order."""
        times = self._times.get(station_id)
        if times is None:
            return np.empty(0, np.intp)
        lo = np.searchsorted(times, datetime64(start), side="left")
        hi = np.searchsorted(times, datetime64(end), side="right")
        return self._rows[station_id][lo:hi]


def intensity(
    index: StationIndex,
    station_id: str,
    window: tuple[datetime, datetime],
    hazard_class: str,
    precip_mode: str = PRECIP_MODE_CUMULATIVE,
) -> float | None:
    """Measured intensity over [window.start - 1h, window.end].

    Returns None when the station has no usable rows in range; callers must
    drop the sample and say why. Sums and maxima run left to right over
    the rows in time order, on Python floats.
    """
    start, end = window
    rows = index.in_range(station_id, start - INTENSITY_LOOKBACK, end)
    weather = index.weather
    if hazard_class == HAZARD_WIND:
        gusts = weather.wind_fastest_2min[rows]
        present = gusts[~np.isnan(gusts)].tolist()
        return max(present) if present else None
    if hazard_class == HAZARD_PRECIPITATION:
        precip, snowfall = weather.precip[rows], weather.snowfall[rows]
        reported = ~(np.isnan(precip) & np.isnan(snowfall))
        # An absent or zero measurement adds +0.0.
        depth = np.where(np.isnan(precip) | (precip == 0.0), 0.0, precip) \
            + np.where(np.isnan(snowfall) | (snowfall == 0.0), 0.0, snowfall)
        present = depth[reported].tolist()
        if not present:
            return None
        return sum(present) if precip_mode == PRECIP_MODE_CUMULATIVE \
            else max(present)
    raise ValueError(f"no intensity definition for hazard class {hazard_class!r}")


# ---------------------------------------------------------------------------
# Sample assembly
# ---------------------------------------------------------------------------

def build_fragility_samples(
    severe: list[SevereWeatherRecord],
    partitions: dict[str, ZonePartition],
    weather: WeatherTable,
    outages: OutageTable,
    mapping: dict[str, str] | None = None,
    precip_mode: str = PRECIP_MODE_CUMULATIVE,
) -> dict[str, dict[str, list[FragilitySample]]]:
    """Run the full linkage chain.

    Returns {hazard_class: {zone_id: [FragilitySample, ...]}} covering every
    zone of every supplied partition (empty lists included). Zone keys
    follow partition order; samples are chronological within a zone.
    """
    station_index = StationIndex(weather)

    excluded = 0
    by_class: dict[str, list[SevereWeatherRecord]] = {}
    for rec in severe:
        hazard = classify_hazard(rec, mapping)
        if hazard == HAZARD_EXCLUDED:
            excluded += 1
            continue
        by_class.setdefault(hazard, []).append(rec)
    if excluded:
        log.info("linkage: %d severe record(s) excluded by classification", excluded)

    result: dict[str, dict[str, list[FragilitySample]]] = {}
    for hazard_class, partition in partitions.items():
        records = by_class.get(hazard_class, [])
        per_zone: dict[str, list[SevereWeatherRecord]] = \
            {z.zone_id: [] for z in partition.zones}
        lons = np.array([r.longitude for r in records])
        lats = np.array([r.latitude for r in records])
        for rec, zi in zip(records, assign_many(partition, lons, lats)):
            per_zone[partition.zones[zi].zone_id].append(rec)

        out_zone = assign_many(partition, outages.longitude, outages.latitude)
        samples_by_zone: dict[str, list[FragilitySample]] = {}
        for zi, zone in enumerate(partition.zones):
            starts = np.sort(outages.start[out_zone == zi]).astype("datetime64[us]")
            samples: list[FragilitySample] = []
            for window in merge_windows(per_zone[zone.zone_id]):
                measured = intensity(
                    station_index, zone.station_id,
                    (window.start, window.end), hazard_class, precip_mode)
                if measured is None:
                    log.warning(
                        "linkage: dropping window %s..%s in %s: station %s has "
                        "no usable observations in range",
                        window.start.isoformat(), window.end.isoformat(),
                        zone.zone_id, zone.station_id)
                    continue
                in_window = np.searchsorted(starts, datetime64(window.end), "right") \
                    - np.searchsorted(starts, datetime64(window.start), "left")
                samples.append(FragilitySample(
                    zone_id=zone.zone_id,
                    window_start=window.start,
                    window_end=window.end,
                    intensity=measured,
                    outage_count=int(in_window),
                    source_event_ids=window.source_event_ids,
                ))
            samples_by_zone[zone.zone_id] = samples
        result[hazard_class] = samples_by_zone
    return result


FRAGILITY_HEADER = ["zone_id", "window_start", "window_end", "intensity",
                    "outage_count", "source_event_ids"]


def fragility_csv(samples_by_zone: dict[str, list[FragilitySample]]) -> bytes:
    return csv_bytes(FRAGILITY_HEADER, lambda w: w.writerows(
        [zone_id, format_instant(s.window_start), format_instant(s.window_end),
         repr(s.intensity), s.outage_count, ";".join(s.source_event_ids)]
        for zone_id, samples in samples_by_zone.items() for s in samples))
