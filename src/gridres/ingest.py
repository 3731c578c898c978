"""Parse and validate the four input CSV datasets.

Input files and their headers:

  outages.csv        outage_id,component_id,latitude,longitude,start,end,
                     restore_minutes,customers,cause_code
  weather.csv        station_id,timestamp,wind_avg_ms,wind_fastest_2min_ms,
                     precip_in,snowfall_in,snow_depth_in
  stations.csv       station_id,latitude,longitude,capabilities
  severe_events.csv  event_id,event_type,start,end,latitude,longitude,description

Cleaning conventions:

  - All timestamps are ISO-8601 UTC ("2012-06-29T14:00:00Z" or "+00:00"
    offset; naive values are treated as UTC). Fractional seconds are
    truncated on parse, before any rule applies. An unparseable or empty
    timestamp counts as a missing key field.
  - Every row is tallied exactly once in the CleaningReport: it is either
    kept or attributed to the first cleaning rule it violates. Rules are
    checked in the order: missing/unparseable field, time inconsistency,
    out-of-bounds value.
  - Outage duration has a hard operational cap (default 30 days) and the
    customer count a sanity cap (default 10,000,000); both are configurable
    because utilities disagree on what "reasonable" means.
  - restore_minutes may exceed the start/end duration by at most 1 minute,
    absorbing the second-to-minute rounding done by outage management
    systems.
  - Empty weather measurement cells mean "sensor value absent", which is
    distinct from an explicit 0.0. Duplicate (station_id, timestamp) weather
    rows collapse to the row with the most present measurements (ties keep
    the last occurrence); the losing rows are tallied as
    dropped_inconsistent_time since they are competing claims about the
    same station-hour.

Parsing is a pure function of the input bytes, so the four files may be
parsed concurrently.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Callable, NamedTuple

from .errors import SchemaError, decoded

log = logging.getLogger(__name__)

OUTAGES_HEADER = [
    "outage_id", "component_id", "latitude", "longitude",
    "start", "end", "restore_minutes", "customers", "cause_code",
]
WEATHER_HEADER = [
    "station_id", "timestamp", "wind_avg_ms", "wind_fastest_2min_ms",
    "precip_in", "snowfall_in", "snow_depth_in",
]
STATIONS_HEADER = ["station_id", "latitude", "longitude", "capabilities"]
SEVERE_HEADER = [
    "event_id", "event_type", "start", "end", "latitude", "longitude", "description",
]

# The hazard classes, which are the station capabilities; zones, samples
# and models are kept per class.
HAZARD_WIND = "wind"
HAZARD_PRECIPITATION = "precipitation"
HAZARD_CLASSES = (HAZARD_WIND, HAZARD_PRECIPITATION)

DEFAULT_MAX_OUTAGE_DAYS = 30.0
DEFAULT_MAX_CUSTOMERS = 10_000_000

# restore_minutes may round up past the true duration by this much
RESTORE_ROUNDING_SLACK_MIN = 1.0


# ---------------------------------------------------------------------------
# Domain types. A file holds hundreds of thousands of outage and weather
# rows, so their records are plain named tuples, not dataclasses.
# ---------------------------------------------------------------------------

class OutageRecord(NamedTuple):
    """One component outage from the outage management system."""
    outage_id: str
    component_id: str
    latitude: float
    longitude: float
    start: datetime
    end: datetime
    restore_minutes: float
    customers: int
    cause_code: str


class WeatherObservation(NamedTuple):
    """One hourly station report; None marks an absent measurement."""
    station_id: str
    timestamp: datetime
    wind_avg: float | None
    wind_fastest_2min: float | None
    precip: float | None
    snowfall: float | None
    snow_depth: float | None


@dataclass(frozen=True)
class Station:
    station_id: str
    latitude: float
    longitude: float
    capabilities: frozenset[str]


class SevereWeatherRecord(NamedTuple):
    """Agency-logged hazard event; carries a window and a location but no
    numeric intensity."""
    event_id: str
    event_type: str
    start: datetime
    end: datetime
    latitude: float
    longitude: float
    description: str


@dataclass
class CleaningReport:
    """Row accounting for one parsed file: kept + all drop buckets = total."""
    total_rows: int = 0
    kept: int = 0
    dropped_missing_field: int = 0
    dropped_inconsistent_time: int = 0
    dropped_out_of_bounds: int = 0
    samples: dict[str, list[str]] = field(default_factory=lambda: {
        "missing_field": [], "inconsistent_time": [], "out_of_bounds": [],
    })

    def drop(self, rule: str, row_id: str) -> None:
        setattr(self, f"dropped_{rule}", getattr(self, f"dropped_{rule}") + 1)
        bucket = self.samples[rule]
        if len(bucket) < 10:
            bucket.append(row_id)

    def check(self) -> None:
        total_drops = (self.dropped_missing_field + self.dropped_inconsistent_time
                       + self.dropped_out_of_bounds)
        if self.kept + total_drops != self.total_rows:
            raise AssertionError(
                f"cleaning report does not balance: kept={self.kept} "
                f"drops={total_drops} total={self.total_rows}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Field-level parsing helpers
# ---------------------------------------------------------------------------

def parse_instant(text: str) -> datetime | None:
    """Parse an ISO-8601 UTC instant, truncated to whole seconds; returns
    None when unparseable."""
    text = text.strip()
    if not text:
        return None
    if text[-1] in "Zz":
        text = text[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(text)
    except ValueError:
        return None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    elif dt.tzinfo is not timezone.utc:
        dt = dt.astimezone(timezone.utc)
    # Clean files hold whole seconds, so every rule sees what gets written.
    return dt.replace(microsecond=0) if dt.microsecond else dt


def format_instant(dt: datetime) -> str:
    """Serialize a UTC instant in the canonical Z-suffixed second form."""
    if dt.tzinfo is not None:
        dt = dt.astimezone(timezone.utc)
    return dt.isoformat(timespec="seconds")[:19] + "Z"


def _parse_float(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


# An unparseable measurement cell, as opposed to an empty (absent) one.
_GARBAGE = object()


def _parse_optional_float(text: str) -> float | None | object:
    """Returns the number, None for an empty cell, and _GARBAGE otherwise."""
    text = text.strip()
    if not text:
        return None
    value = _parse_float(text)
    return _GARBAGE if value is None else value


def _row_id(row: list[str], line_no: int) -> str:
    """The id a dropped row is reported under: its first cell, else its line."""
    return row[0].strip() or f"row{line_no}"


def _reader(data: bytes, expected: list[str], filename: str) -> csv.reader:
    """CSV rows after a header that must match `expected`."""
    rows = csv.reader(io.StringIO(decoded(data, filename)))
    header = next(rows, None)
    if header is None:
        raise SchemaError(f"{filename}: file is empty, expected header {','.join(expected)}")
    got = [c.strip() for c in header]
    if got != expected:
        missing = [c for c in expected if c not in got]
        if missing:
            raise SchemaError(f"{filename}: header is missing column(s) {', '.join(missing)}")
        raise SchemaError(
            f"{filename}: header {','.join(got)} does not match expected order "
            f"{','.join(expected)}")
    return rows


# ---------------------------------------------------------------------------
# Outages
# ---------------------------------------------------------------------------

def parse_outages(
    data: bytes,
    max_outage_days: float = DEFAULT_MAX_OUTAGE_DAYS,
    max_customers: int = DEFAULT_MAX_CUSTOMERS,
    source: str = "outages.csv",
) -> tuple[list[OutageRecord], CleaningReport]:
    """Parse outages.csv, returning kept records and the cleaning tally.
    `source` names the parsed file in errors."""
    rows = _reader(data, OUTAGES_HEADER, source)

    report = CleaningReport()
    kept: list[OutageRecord] = []
    for line_no, row in enumerate(rows, start=2):
        if not row:
            continue
        report.total_rows += 1
        if len(row) != len(OUTAGES_HEADER):
            report.drop("missing_field", _row_id(row, line_no))
            continue
        outage_id, component_id = row[0].strip(), row[1].strip()
        lat = _parse_float(row[2])
        lon = _parse_float(row[3])
        start = parse_instant(row[4])
        end = parse_instant(row[5])
        restore = _parse_float(row[6])
        customers_f = _parse_float(row[7])
        cause = row[8].strip()
        if (not outage_id or not component_id or not cause
                or lat is None or lon is None or start is None or end is None
                or restore is None or customers_f is None):
            report.drop("missing_field", _row_id(row, line_no))
            continue
        customers = int(customers_f)

        duration_min = (end - start).total_seconds() / 60.0
        if start >= end or restore > duration_min + RESTORE_ROUNDING_SLACK_MIN:
            report.drop("inconsistent_time", _row_id(row, line_no))
            continue

        if (not -90.0 <= lat <= 90.0 or not -180.0 <= lon <= 180.0
                or restore < 0.0 or customers < 0 or customers > max_customers
                or duration_min > max_outage_days * 24.0 * 60.0):
            report.drop("out_of_bounds", _row_id(row, line_no))
            continue

        report.kept += 1
        kept.append(OutageRecord(outage_id, component_id, lat, lon,
                                 start, end, restore, customers, cause))
    report.check()
    return kept, report


def csv_bytes(header: list[str], write_rows: Callable[[csv.writer], None]) -> bytes:
    """The header, then what `write_rows(writer)` writes, as CSV with "\n"
    line ends. csv.writer leaves a cell holding a bare "\r" unquoted, which
    no reader parses back, so a file that holds a "\r" is written again
    with every cell quoted."""
    def text(quoting: int) -> str:
        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n", quoting=quoting)
        w.writerow(header)
        write_rows(w)
        return out.getvalue()

    written = text(csv.QUOTE_MINIMAL)
    if "\r" in written:
        written = text(csv.QUOTE_ALL)
    return written.encode("utf-8")


def write_outages_csv(records: list[OutageRecord]) -> bytes:
    def write_rows(w):
        for r in records:
            restore = int(r.restore_minutes) \
                if r.restore_minutes == int(r.restore_minutes) else r.restore_minutes
            w.writerow([r.outage_id, r.component_id, repr(r.latitude), repr(r.longitude),
                        format_instant(r.start), format_instant(r.end),
                        restore, r.customers, r.cause_code])
    return csv_bytes(OUTAGES_HEADER, write_rows)


# ---------------------------------------------------------------------------
# Weather observations
# ---------------------------------------------------------------------------

def parse_weather(
    data: bytes,
    source: str = "weather.csv",
) -> tuple[list[WeatherObservation], CleaningReport]:
    """Parse weather.csv: validate, then collapse duplicate station-hours.

    Output is sorted by (station_id, timestamp). kept counts the surviving
    observations. `source` names the parsed file in errors.
    """
    rows = _reader(data, WEATHER_HEADER, source)

    report = CleaningReport()
    # (station_id, timestamp) -> (obs, number of present measurements)
    best: dict[tuple[str, datetime], tuple[WeatherObservation, int]] = {}
    for line_no, row in enumerate(rows, start=2):
        if not row:
            continue
        report.total_rows += 1
        if len(row) != len(WEATHER_HEADER):
            report.drop("missing_field", _weather_row_id(row, line_no))
            continue
        station_id = row[0].strip()
        ts = parse_instant(row[1])
        if not station_id or ts is None:
            report.drop("missing_field", _weather_row_id(row, line_no))
            continue

        values = [_parse_optional_float(cell) for cell in row[2:]]
        if _GARBAGE in values:
            report.drop("missing_field", _weather_row_id(row, line_no))
            continue
        wind_avg, wind_fast, precip, snowfall, snow_depth = values

        present = [v for v in values if v is not None]
        if present and min(present) < 0.0:
            report.drop("out_of_bounds", _weather_row_id(row, line_no))
            continue
        if wind_avg is not None and wind_fast is not None and wind_fast < wind_avg:
            report.drop("out_of_bounds", _weather_row_id(row, line_no))
            continue

        key = (station_id, ts)
        prev = best.get(key)
        if prev is None:
            report.kept += 1
        else:
            # collapse duplicates: most present fields wins, ties keep the later row
            report.drop("inconsistent_time", _weather_row_id(row, line_no))
            if len(present) < prev[1]:
                continue
        best[key] = (WeatherObservation(station_id, ts, wind_avg, wind_fast,
                                        precip, snowfall, snow_depth),
                     len(present))
    report.check()

    return [best[key][0] for key in sorted(best)], report


def _weather_row_id(row: list[str], line_no: int) -> str:
    row_id = _row_id(row, line_no)
    timestamp = row[1].strip() if len(row) > 1 else ""
    return f"{row_id}@{timestamp}" if timestamp else row_id


def write_weather_csv(observations: list[WeatherObservation]) -> bytes:
    def cell(v: float | None) -> str:
        return "" if v is None else repr(v)

    # Every station reports the same hours: format each instant once.
    stamps: dict[datetime, str] = {}

    def write_rows(w):
        for o in observations:
            stamp = stamps.get(o.timestamp)
            if stamp is None:
                stamp = stamps[o.timestamp] = format_instant(o.timestamp)
            w.writerow([o.station_id, stamp,
                        cell(o.wind_avg), cell(o.wind_fastest_2min),
                        cell(o.precip), cell(o.snowfall), cell(o.snow_depth)])
    return csv_bytes(WEATHER_HEADER, write_rows)


# ---------------------------------------------------------------------------
# Stations
# ---------------------------------------------------------------------------

def parse_stations(data: bytes, source: str = "stations.csv") -> list[Station]:
    """Parse stations.csv; duplicate station ids are fatal. `source` names
    the parsed file in errors."""
    rows = _reader(data, STATIONS_HEADER, source)

    stations: list[Station] = []
    seen: set[str] = set()
    for line_no, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != len(STATIONS_HEADER):
            raise SchemaError(f"{source} line {line_no}: expected "
                              f"{len(STATIONS_HEADER)} columns, got {len(row)}")
        station_id = row[0].strip()
        lat = _parse_float(row[1])
        lon = _parse_float(row[2])
        caps_raw = [c.strip().lower() for c in row[3].split(";") if c.strip()]
        if not station_id or lat is None or lon is None:
            raise SchemaError(f"{source} line {line_no}: missing or "
                              f"unparseable station fields")
        if station_id in seen:
            raise SchemaError(f"{source}: duplicate station_id {station_id!r}")
        seen.add(station_id)
        unknown = [c for c in caps_raw if c not in HAZARD_CLASSES]
        if unknown:
            raise SchemaError(
                f"{source} line {line_no}: unknown capability {unknown[0]!r}")
        if not caps_raw:
            raise SchemaError(
                f"{source} line {line_no}: station {station_id!r} has no capabilities")
        stations.append(Station(station_id, lat, lon, frozenset(caps_raw)))

    for capability in sorted(HAZARD_CLASSES):
        if not any(capability in s.capabilities for s in stations):
            log.warning("%s: no station with capability %r", source, capability)
    return stations


def write_stations_csv(stations: list[Station]) -> bytes:
    return csv_bytes(STATIONS_HEADER, lambda w: w.writerows(
        [s.station_id, repr(s.latitude), repr(s.longitude),
         ";".join(sorted(s.capabilities))] for s in stations))


# ---------------------------------------------------------------------------
# Severe weather records
# ---------------------------------------------------------------------------

def parse_severe(
    data: bytes,
    source: str = "severe_events.csv",
) -> tuple[list[SevereWeatherRecord], CleaningReport]:
    """Parse severe_events.csv; output sorted by start instant.

    Unknown event_type labels are kept: hazard classification happens
    downstream. `source` names the parsed file in errors.
    """
    rows = _reader(data, SEVERE_HEADER, source)

    report = CleaningReport()
    kept: list[SevereWeatherRecord] = []
    for line_no, row in enumerate(rows, start=2):
        if not row:
            continue
        report.total_rows += 1
        if len(row) != len(SEVERE_HEADER):
            report.drop("missing_field", _row_id(row, line_no))
            continue
        event_id, event_type = row[0].strip(), row[1].strip()
        start = parse_instant(row[2])
        end = parse_instant(row[3])
        lat = _parse_float(row[4])
        lon = _parse_float(row[5])
        description = row[6]
        if not event_id or not event_type or start is None or end is None \
                or lat is None or lon is None:
            report.drop("missing_field", _row_id(row, line_no))
            continue
        if start >= end:
            report.drop("inconsistent_time", _row_id(row, line_no))
            continue
        if not -90.0 <= lat <= 90.0 or not -180.0 <= lon <= 180.0:
            report.drop("out_of_bounds", _row_id(row, line_no))
            continue
        report.kept += 1
        kept.append(SevereWeatherRecord(event_id, event_type, start, end,
                                        lat, lon, description))
    report.check()
    kept.sort(key=lambda r: (r.start, r.event_id))
    return kept, report


def write_severe_csv(records: list[SevereWeatherRecord]) -> bytes:
    return csv_bytes(SEVERE_HEADER, lambda w: w.writerows(
        [r.event_id, r.event_type, format_instant(r.start), format_instant(r.end),
         repr(r.latitude), repr(r.longitude), r.description] for r in records))
