"""Link severe-weather records to zones, station measurements, and outages.

build_fragility_samples turns agency hazard logs, a SevereTable, into
fragility samples by masks over its arrays, instants in datetime64[s]:

  classify_hazard  label each record wind / precipitation / excluded
  assign_many      put each record and each outage in its nearest
                   station's zone
  merge_windows    union overlapping windows per zone so no outage
                   counts twice
  intensity        look up the zone station's measurements over the window

and counts the zone's outages whose start falls inside each window.
Counting is start-based because restorations may run long past the hazard.

Severe events carry no numeric magnitude, so intensity always comes from
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

from . import np
from .config import (DEFAULT_HAZARD_MAPPING, HAZARD_EXCLUDED, HAZARD_WIND,
                     PRECIP_MODE_CUMULATIVE, PRECIP_MODE_PEAK)  # noqa: F401 (PEAK re-exported)
from .ingest import OutageTable, SevereTable, WeatherTable, _instant_cells, csv_bytes
from .events import union_intervals
from .zoning import ZonePartition, assign_many

log = logging.getLogger(__name__)

# hour-stamped observations cover minute-stamped window starts
INTENSITY_LOOKBACK_S = 3600


@dataclass(frozen=True)
class MergedWindow:
    start: np.datetime64
    end: np.datetime64
    source_event_ids: tuple[str, ...]


@dataclass(frozen=True)
class FragilitySample:
    zone_id: str
    window_start: np.datetime64
    window_end: np.datetime64
    intensity: float
    outage_count: int
    source_event_ids: tuple[str, ...]


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def classify_hazard(event_type: str, mapping: dict[str, str] | None = None) -> str:
    """Map an event_type label to wind / precipitation / excluded.

    Lookup is case-insensitive; labels absent from the mapping are excluded.
    """
    mapping = DEFAULT_HAZARD_MAPPING if mapping is None else mapping
    return mapping.get(event_type.strip().lower(), HAZARD_EXCLUDED)


# ---------------------------------------------------------------------------
# Window merging
# ---------------------------------------------------------------------------

def merge_windows(severe: SevereTable) -> list[MergedWindow]:
    """Union overlapping or touching closed [start, end] windows.

    The events must already share a zone and hazard class; they are taken
    in start order, ties in table order (parse_severe sorts ties by
    event_id). Output is chronological; each merged window carries every
    source event id.
    """
    severe = severe.take(np.argsort(severe.start, kind="stable"))
    first, stop, end = union_intervals(severe.start, severe.end)
    return [MergedWindow(severe.start[a], window_end, tuple(severe.event_id[a:b]))
            for a, b, window_end in zip(first.tolist(), stop.tolist(), end)]


# ---------------------------------------------------------------------------
# Intensity lookup
# ---------------------------------------------------------------------------

class StationIndex:
    """Row numbers of a weather table sorted by (station, timestamp), with
    each station's span of them, for range lookup."""

    def __init__(self, weather: WeatherTable):
        self.weather = weather
        stations = list(dict.fromkeys(weather.station_id))
        code = np.fromiter(map({s: i for i, s in enumerate(stations)}.__getitem__,
                               weather.station_id), np.intp, len(weather))
        self._rows = np.lexsort((weather.timestamp, code))
        self._times = weather.timestamp[self._rows]
        bounds = np.searchsorted(code[self._rows], np.arange(len(stations) + 1)).tolist()
        self._spans = {s: (bounds[i], bounds[i + 1]) for i, s in enumerate(stations)}

    def in_range(self, station_id: str, start: np.datetime64, end: np.datetime64,
                 ) -> np.ndarray:
        """Row numbers of the station's rows with start <= timestamp <= end,
        in time order."""
        first, stop = self._spans.get(station_id, (0, 0))
        times = self._times[first:stop]
        return self._rows[first + np.searchsorted(times, start, side="left"):
                          first + np.searchsorted(times, end, side="right")]


def intensity(
    index: StationIndex,
    station_id: str,
    window: tuple[np.datetime64, np.datetime64],
    hazard_class: str,
    precip_mode: str = PRECIP_MODE_CUMULATIVE,
) -> float | None:
    """Measured wind or precipitation intensity over [window.start - 1h, window.end].

    Returns None when the station has no usable rows in range; callers must
    drop the sample and say why. Sums and maxima run left to right over
    the rows in time order, on Python floats.
    """
    start, end = window
    rows = index.in_range(station_id, start - np.timedelta64(INTENSITY_LOOKBACK_S, "s"), end)
    weather = index.weather
    if hazard_class == HAZARD_WIND:
        gusts = weather.wind_fastest_2min[rows]
        present = gusts[~np.isnan(gusts)].tolist()
        return max(present) if present else None
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


# ---------------------------------------------------------------------------
# Sample assembly
# ---------------------------------------------------------------------------

def build_fragility_samples(
    severe: SevereTable,
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

    hazard = np.array([classify_hazard(label, mapping) for label in severe.event_type],
                      dtype=object)
    excluded = int(np.count_nonzero(hazard == HAZARD_EXCLUDED))
    if excluded:
        log.info("linkage: %d severe record(s) excluded by classification", excluded)

    result: dict[str, dict[str, list[FragilitySample]]] = {}
    for hazard_class, partition in partitions.items():
        records = severe.take(np.flatnonzero(hazard == hazard_class))
        record_zone = assign_many(partition, records.longitude, records.latitude)
        out_zone = assign_many(partition, outages.longitude, outages.latitude)
        samples_by_zone: dict[str, list[FragilitySample]] = {}
        for zi, zone in enumerate(partition.zones):
            starts = np.sort(outages.start[out_zone == zi])
            samples: list[FragilitySample] = []
            for window in merge_windows(records.take(np.flatnonzero(record_zone == zi))):
                measured = intensity(
                    station_index, zone.station_id,
                    (window.start, window.end), hazard_class, precip_mode)
                if measured is None:
                    log.warning(
                        "linkage: dropping window %s+00:00..%s+00:00 in %s: station "
                        "%s has no usable observations in range",
                        window.start, window.end, zone.zone_id, zone.station_id)
                    continue
                in_window = np.searchsorted(starts, window.end, "right") \
                    - np.searchsorted(starts, window.start, "left")
                samples.append(FragilitySample(zone.zone_id, window.start, window.end,
                                               measured, int(in_window),
                                               window.source_event_ids))
            samples_by_zone[zone.zone_id] = samples
        result[hazard_class] = samples_by_zone
    return result


FRAGILITY_HEADER = ["zone_id", "window_start", "window_end", "intensity",
                    "outage_count", "source_event_ids"]


def fragility_csv(samples_by_zone: dict[str, list[FragilitySample]]) -> bytes:
    return csv_bytes(FRAGILITY_HEADER, lambda w: w.writerows(
        [zone_id, *_instant_cells(np.array([s.window_start, s.window_end])),
         repr(s.intensity), s.outage_count, ";".join(s.source_event_ids)]
        for zone_id, samples in samples_by_zone.items() for s in samples))
