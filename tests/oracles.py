"""Slow, obviously-correct reference implementations that tests compare the
pipeline's vectorised and indexed paths against: the row-at-a-time outage,
weather and severe-event parsers and writers with their records,
converters between those records and the pipeline's column tables, and a
brute-force rate grid for the curve fits."""

from __future__ import annotations

import math
from datetime import datetime, timezone
from itertools import combinations
from typing import NamedTuple

import numpy as np

from gridres.ingest import (
    DEFAULT_MAX_CUSTOMERS,
    DEFAULT_MAX_OUTAGE_DAYS,
    OUTAGES_HEADER,
    RESTORE_ROUNDING_SLACK_MIN,
    SEVERE_HEADER,
    WEATHER_HEADER,
    CleaningReport,
    OutageTable,
    SevereTable,
    WeatherTable,
    _parse_float,
    _reader,
    csv_bytes,
    format_instant,
    parse_instant,
    utc_datetimes,
)
from gridres.zoning import TIE_TOL, ZonePartition


# ---------------------------------------------------------------------------
# Row records and the row-at-a-time parsers and writers
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


class WeatherObservation(NamedTuple):
    """One hourly station report; None marks an absent measurement."""
    station_id: str
    timestamp: datetime
    wind_avg: float | None
    wind_fastest_2min: float | None
    precip: float | None
    snowfall: float | None
    snow_depth: float | None


def _row_id(row: list[str], line_no: int) -> str:
    """The id a dropped row is reported under: its first cell, else its line."""
    return row[0].strip() or f"row{line_no}"


def _drop(report: CleaningReport, rule: str, row_id: str) -> None:
    report.drop_rows(rule, [row_id], str)


# An unparseable measurement cell, as opposed to an empty (absent) one.
_GARBAGE = object()


def _parse_optional_float(text: str) -> float | None | object:
    """Returns the number, None for an empty cell, and _GARBAGE otherwise."""
    text = text.strip()
    if not text:
        return None
    value = _parse_float(text)
    return _GARBAGE if value is None else value


def parse_outage_rows(
    data: bytes,
    max_outage_days: float = DEFAULT_MAX_OUTAGE_DAYS,
    max_customers: int = DEFAULT_MAX_CUSTOMERS,
    source: str = "outages.csv",
) -> tuple[list[OutageRecord], CleaningReport]:
    """Parse outages.csv one row at a time."""
    rows = _reader(data, OUTAGES_HEADER, source)

    report = CleaningReport()
    kept: list[OutageRecord] = []
    for line_no, row in enumerate(rows, start=2):
        if not row:
            continue
        report.total_rows += 1
        if len(row) != len(OUTAGES_HEADER):
            _drop(report, "missing_field", _row_id(row, line_no))
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
            _drop(report, "missing_field", _row_id(row, line_no))
            continue
        customers = int(customers_f)

        duration_min = (end - start).total_seconds() / 60.0
        if start >= end or restore > duration_min + RESTORE_ROUNDING_SLACK_MIN:
            _drop(report, "inconsistent_time", _row_id(row, line_no))
            continue

        if (not -90.0 <= lat <= 90.0 or not -180.0 <= lon <= 180.0
                or restore < 0.0 or customers < 0 or customers > max_customers
                or duration_min > max_outage_days * 24.0 * 60.0):
            _drop(report, "out_of_bounds", _row_id(row, line_no))
            continue

        report.kept += 1
        kept.append(OutageRecord(outage_id, component_id, lat, lon,
                                 start, end, restore, customers, cause))
    report.check()
    return kept, report


def write_outage_rows(records: list[OutageRecord]) -> bytes:
    def write_rows(w):
        for r in records:
            restore = int(r.restore_minutes) \
                if r.restore_minutes == int(r.restore_minutes) else r.restore_minutes
            w.writerow([r.outage_id, r.component_id, repr(r.latitude), repr(r.longitude),
                        format_instant(r.start), format_instant(r.end),
                        restore, r.customers, r.cause_code])
    return csv_bytes(OUTAGES_HEADER, write_rows)


def parse_weather_rows(
    data: bytes,
    source: str = "weather.csv",
) -> tuple[list[WeatherObservation], CleaningReport]:
    """Parse weather.csv one row at a time, then collapse duplicate
    station-hours; sorted by (station_id, timestamp)."""
    rows = _reader(data, WEATHER_HEADER, source)

    report = CleaningReport()
    # (station_id, timestamp) -> (obs, number of present measurements)
    best: dict[tuple[str, datetime], tuple[WeatherObservation, int]] = {}
    for line_no, row in enumerate(rows, start=2):
        if not row:
            continue
        report.total_rows += 1
        if len(row) != len(WEATHER_HEADER):
            _drop(report, "missing_field", _weather_row_id(row, line_no))
            continue
        station_id = row[0].strip()
        ts = parse_instant(row[1])
        if not station_id or ts is None:
            _drop(report, "missing_field", _weather_row_id(row, line_no))
            continue

        values = [_parse_optional_float(cell) for cell in row[2:]]
        if _GARBAGE in values:
            _drop(report, "missing_field", _weather_row_id(row, line_no))
            continue
        wind_avg, wind_fast, precip, snowfall, snow_depth = values

        present = [v for v in values if v is not None]
        if present and min(present) < 0.0:
            _drop(report, "out_of_bounds", _weather_row_id(row, line_no))
            continue
        if wind_avg is not None and wind_fast is not None and wind_fast < wind_avg:
            _drop(report, "out_of_bounds", _weather_row_id(row, line_no))
            continue

        key = (station_id, ts)
        prev = best.get(key)
        if prev is None:
            report.kept += 1
        else:
            # collapse duplicates: most present fields wins, ties keep the later row
            _drop(report, "inconsistent_time", _weather_row_id(row, line_no))
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


def write_weather_rows(observations: list[WeatherObservation]) -> bytes:
    def cell(v: float | None) -> str:
        return "" if v is None else repr(v)

    def write_rows(w):
        for o in observations:
            w.writerow([o.station_id, format_instant(o.timestamp),
                        cell(o.wind_avg), cell(o.wind_fastest_2min),
                        cell(o.precip), cell(o.snowfall), cell(o.snow_depth)])
    return csv_bytes(WEATHER_HEADER, write_rows)


def parse_severe_rows(
    data: bytes,
    source: str = "severe_events.csv",
) -> tuple[list[SevereWeatherRecord], CleaningReport]:
    """Parse severe_events.csv one row at a time; sorted by start instant."""
    rows = _reader(data, SEVERE_HEADER, source)

    report = CleaningReport()
    kept: list[SevereWeatherRecord] = []
    for line_no, row in enumerate(rows, start=2):
        if not row:
            continue
        report.total_rows += 1
        if len(row) != len(SEVERE_HEADER):
            _drop(report, "missing_field", _row_id(row, line_no))
            continue
        event_id, event_type = row[0].strip(), row[1].strip()
        start = parse_instant(row[2])
        end = parse_instant(row[3])
        lat = _parse_float(row[4])
        lon = _parse_float(row[5])
        description = row[6]
        if not event_id or not event_type or start is None or end is None \
                or lat is None or lon is None:
            _drop(report, "missing_field", _row_id(row, line_no))
            continue
        if start >= end:
            _drop(report, "inconsistent_time", _row_id(row, line_no))
            continue
        if not -90.0 <= lat <= 90.0 or not -180.0 <= lon <= 180.0:
            _drop(report, "out_of_bounds", _row_id(row, line_no))
            continue
        report.kept += 1
        kept.append(SevereWeatherRecord(event_id, event_type, start, end,
                                        lat, lon, description))
    report.check()
    kept.sort(key=lambda r: (r.start, r.event_id))
    return kept, report


def write_severe_rows(records: list[SevereWeatherRecord]) -> bytes:
    return csv_bytes(SEVERE_HEADER, lambda w: w.writerows(
        [r.event_id, r.event_type, format_instant(r.start), format_instant(r.end),
         repr(r.latitude), repr(r.longitude), r.description] for r in records))


# ---------------------------------------------------------------------------
# Records <-> column tables
# ---------------------------------------------------------------------------

def datetime64(dt: datetime) -> np.datetime64:
    """An aware or UTC-naive instant as a datetime64 in microseconds."""
    if dt.tzinfo is not None:
        dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    return np.datetime64(dt, "us")


def utc_datetime(value: np.datetime64) -> datetime:
    """A datetime64 as an aware UTC datetime, to the microsecond."""
    return utc_datetimes(np.array([value]))[0]


def _datetime64s(instants: list[datetime]) -> np.ndarray:
    return np.array([datetime64(dt) for dt in instants], "datetime64[us]")


def outage_table(records: list[OutageRecord]) -> OutageTable:
    """The column table of outage records, instants to the microsecond."""
    return OutageTable(
        [r.outage_id for r in records], [r.component_id for r in records],
        np.array([r.latitude for r in records], float),
        np.array([r.longitude for r in records], float),
        _datetime64s([r.start for r in records]), _datetime64s([r.end for r in records]),
        np.array([r.restore_minutes for r in records], float),
        np.array([float(r.customers) for r in records], float),
        [r.cause_code for r in records])


def outage_records(table: OutageTable) -> list[OutageRecord]:
    return [OutageRecord(*row) for row in zip(
        table.outage_id, table.component_id, table.latitude.tolist(),
        table.longitude.tolist(), utc_datetimes(table.start), utc_datetimes(table.end),
        table.restore_minutes.tolist(), map(int, table.customers.tolist()),
        table.cause_code)]


def severe_table(records: list[SevereWeatherRecord]) -> SevereTable:
    """The column table of severe records, in their order; instants in
    whole seconds, as the parser gives them."""
    return SevereTable(
        [r.event_id for r in records], [r.event_type for r in records],
        _datetime64s([r.start for r in records]).astype("datetime64[s]"),
        _datetime64s([r.end for r in records]).astype("datetime64[s]"),
        np.array([r.latitude for r in records], float),
        np.array([r.longitude for r in records], float),
        [r.description for r in records])


def severe_records(table: SevereTable) -> list[SevereWeatherRecord]:
    return [SevereWeatherRecord(*row) for row in zip(
        table.event_id, table.event_type, utc_datetimes(table.start),
        utc_datetimes(table.end), table.latitude.tolist(), table.longitude.tolist(),
        table.description)]


_MEASURES = ("wind_avg", "wind_fastest_2min", "precip", "snowfall", "snow_depth")


def weather_table(observations: list[WeatherObservation]) -> WeatherTable:
    """The column table of observations: NaN for an absent measurement."""
    return WeatherTable(
        [o.station_id for o in observations],
        _datetime64s([o.timestamp for o in observations]),
        *(np.array([math.nan if getattr(o, name) is None else getattr(o, name)
                    for o in observations], float) for name in _MEASURES))


def weather_records(table: WeatherTable) -> list[WeatherObservation]:
    measures = [[None if math.isnan(v) else v for v in getattr(table, name).tolist()]
                for name in _MEASURES]
    return [WeatherObservation(*row) for row in zip(
        table.station_id, utc_datetimes(table.timestamp), *measures)]


# ---------------------------------------------------------------------------
# Zones, weather lookup and outage counting
# ---------------------------------------------------------------------------


def nearest_station_index(partition: ZonePartition, lon: float, lat: float) -> int:
    """Index of the nearest station, one point at a time; distance ties go to
    the lowest index."""
    x, y = partition.projection.to_plane(lon, lat)
    d_min = math.inf
    for sx, sy in partition.sites:
        dx, dy = x - sx, y - sy
        d = math.sqrt(dx * dx + dy * dy)
        if d < d_min:
            d_min = d
    for i, (sx, sy) in enumerate(partition.sites):
        dx, dy = x - sx, y - sy
        if math.sqrt(dx * dx + dy * dy) <= d_min + TIE_TOL:
            return i
    raise AssertionError("unreachable: no station within tolerance of minimum")


def observations_in_range(
    observations: list[WeatherObservation], station_id: str,
    lo: datetime, hi: datetime,
) -> list[WeatherObservation]:
    """One station's observations with lo <= timestamp <= hi, by list scan."""
    return [o for o in observations
            if o.station_id == station_id and lo <= o.timestamp <= hi]


def count_outages(
    outages: list[OutageRecord],
    window: tuple[datetime, datetime],
    zone_id: str,
    partition: ZonePartition,
) -> int:
    """Outages whose start instant falls in the closed window and whose
    location is nearest zone_id's station."""
    start, end = window
    count = 0
    for rec in outages:
        if start <= rec.start <= end:
            idx = nearest_station_index(partition, rec.longitude, rec.latitude)
            if partition.zones[idx].zone_id == zone_id:
                count += 1
    return count


# ---------------------------------------------------------------------------
# Curve fits: a brute-force rate grid, amplitudes >= 0 solved exactly
# ---------------------------------------------------------------------------

def nonnegative_sse(design: np.ndarray, y: np.ndarray) -> float:
    """The least SSE of design @ coef against y over coef >= 0: the SSE of
    least-squares on each subset of the columns whose solution is >= 0, the
    empty subset included, each summed from its residuals."""
    best = float(y @ y)
    for size in range(1, design.shape[1] + 1):
        for subset in combinations(range(design.shape[1]), size):
            coef, *_ = np.linalg.lstsq(design[:, subset], y, rcond=None)
            if np.all(coef >= 0.0):
                r = design[:, subset] @ coef - y
                best = min(best, float(r @ r))
    return best


def fragility_grid_sse(x: np.ndarray, y: np.ndarray,
                       rates=np.linspace(-3.0, 3.0, 6001)) -> float:
    """The least SSE of a * exp(b x), a >= 0, over b on the grid."""
    return min(nonnegative_sse(np.exp(b * x)[:, None], y) for b in rates)


def restoration_grid_sse(x: np.ndarray, y: np.ndarray,
                         rates=np.geomspace(1e-5, 1e2, 36)) -> float:
    """The least SSE of c - a1 exp(-b1 x) - a2 exp(-b2 x), (c, a1, a2) >= 0,
    over pairs b1 < b2 of grid rates."""
    return min(nonnegative_sse(np.column_stack(
        [np.ones_like(x), -np.exp(-b1 * x), -np.exp(-b2 * x)]), y)
        for b1, b2 in combinations(rates, 2))
