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

Outages, weather and severe events are parsed, cleaned and written one
column at a time, in chunks of rows: each rule is a boolean mask over a
chunk, and the kept rows become a column table (OutageTable, WeatherTable,
SevereTable). Stations, a dozen rows whose errors are fatal, stay records.

A file whose bytes hold no '"' and no "\r" needs none of the CSV quoting
rules: each record is one line and its cells are the line split at commas.
Such a file is cut into chunks at newlines and each chunk's lines are split
in one pass, without the csv module (after Mühlbauer et al., "Instant
Loading for Main Memory Databases", PVLDB 2013). Likewise a table is
written by joining its cells with commas and newlines while no cell holds
a ',', '"', "\n" or "\r". Every other file and table goes through the csv
reader and writer, which define the result: both ways give the same rows
and bytes, and the same error for a wrong header, a cell past the csv
field limit or a byte that is not UTF-8.

Parsing is a pure function of the input bytes, so the four files may be
parsed concurrently.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import re
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from itertools import chain, compress, islice, repeat
from typing import Callable, Iterator

from . import np
from .errors import SchemaError, ValidationError, decoded, json_text

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

# Rows parsed, or written, per chunk: bounds the per-row lists alive at once.
CHUNK_ROWS = 4096


# ---------------------------------------------------------------------------
# Domain types. Outages, weather and severe events are column tables: text
# columns are lists of str, the others numpy arrays, row i of every column
# is one row.
# ---------------------------------------------------------------------------

class _Table:
    """Column table base: len() is the row count."""

    def __len__(self) -> int:
        return len(getattr(self, fields(self)[0].name))

    def take(self, rows: slice | np.ndarray):
        """The table of a slice of rows, or of an array of row numbers in
        that order."""
        def part(column):
            if isinstance(column, np.ndarray) or isinstance(rows, slice):
                return column[rows]
            return list(map(column.__getitem__, rows.tolist()))
        return type(self)(*(part(getattr(self, f.name)) for f in fields(self)))


@dataclass(frozen=True, eq=False)
class OutageTable(_Table):
    """Component outages from the outage management system. Instants are
    datetime64 (whole seconds from the parser). customers holds whole
    numbers as float64, int(float(cell)) as a float, so a count past 2**63
    does not wrap."""
    outage_id: list[str]
    component_id: list[str]
    latitude: np.ndarray
    longitude: np.ndarray
    start: np.ndarray
    end: np.ndarray
    restore_minutes: np.ndarray
    customers: np.ndarray
    cause_code: list[str]


@dataclass(frozen=True, eq=False)
class WeatherTable(_Table):
    """Hourly station reports. NaN marks an absent measurement (a present
    one is always finite), so np.isnan is the absence mask."""
    station_id: list[str]
    timestamp: np.ndarray
    wind_avg: np.ndarray
    wind_fastest_2min: np.ndarray
    precip: np.ndarray
    snowfall: np.ndarray
    snow_depth: np.ndarray


@dataclass(frozen=True)
class Station:
    station_id: str
    latitude: float
    longitude: float
    capabilities: frozenset[str]


@dataclass(frozen=True, eq=False)
class SevereTable(_Table):
    """Agency-logged hazard events: a window and a location each, but no
    numeric intensity. Instants are datetime64[s]."""
    event_id: list[str]
    event_type: list[str]
    start: np.ndarray
    end: np.ndarray
    latitude: np.ndarray
    longitude: np.ndarray
    description: list[str]


# The rules in the order they are checked; a chunk's rule codes number them
# from 1, and 0 keeps the row.
RULES = ("missing_field", "inconsistent_time", "out_of_bounds")


@dataclass
class CleaningReport:
    """Row accounting for one parsed file: kept + all drop buckets = total."""
    total_rows: int = 0
    kept: int = 0
    dropped_missing_field: int = 0
    dropped_inconsistent_time: int = 0
    dropped_out_of_bounds: int = 0
    samples: dict[str, list[str]] = field(default_factory=lambda: {
        rule: [] for rule in RULES})

    def drop_rows(self, rule: str, rows: list, row_id: Callable[..., str]) -> None:
        """Tally `rows`, given in row order, under `rule`; the first ten
        dropped under a rule, as `row_id(row)`, are its samples."""
        setattr(self, f"dropped_{rule}", getattr(self, f"dropped_{rule}") + len(rows))
        bucket = self.samples[rule]
        bucket += map(row_id, rows[:10 - len(bucket)])

    def check(self) -> None:
        total_drops = (self.dropped_missing_field + self.dropped_inconsistent_time
                       + self.dropped_out_of_bounds)
        if self.kept + total_drops != self.total_rows:
            raise AssertionError(
                f"cleaning report does not balance: kept={self.kept} "
                f"drops={total_drops} total={self.total_rows}")

    def to_json(self) -> str:
        return json_text(asdict(self))


# ---------------------------------------------------------------------------
# Field-level parsing helpers
# ---------------------------------------------------------------------------

def parse_instant(text: str) -> datetime | None:
    """Parse an ISO-8601 UTC instant, truncated to whole seconds; returns
    None when unparseable or outside the years 1-9999 once in UTC."""
    text = text.strip()
    if not text:
        return None
    if text[-1] in "Zz":
        text = text[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(text)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        elif dt.tzinfo is not timezone.utc:
            dt = dt.astimezone(timezone.utc)
    except (ValueError, OverflowError):
        return None
    # Clean files hold whole seconds, so every rule sees what gets written.
    return dt.replace(microsecond=0) if dt.microsecond else dt


def format_instant(dt: datetime) -> str:
    """Serialize a UTC instant in the canonical Z-suffixed second form."""
    if dt.tzinfo is not None:
        dt = dt.astimezone(timezone.utc)
    return dt.isoformat(timespec="seconds")[:19] + "Z"


def utc_datetimes(values: np.ndarray) -> list[datetime]:
    """datetime64 values as aware UTC datetimes, to the microsecond."""
    return [dt.replace(tzinfo=timezone.utc)
            for dt in values.astype("datetime64[us]").tolist()]


def _parse_float(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def on_earth(latitude, longitude):
    """Whether latitude is in [-90, 90] and longitude in [-180, 180], of
    floats or elementwise of float arrays; NaN is in neither."""
    return (-90.0 <= latitude) & (latitude <= 90.0) \
        & (-180.0 <= longitude) & (longitude <= 180.0)


def _reader(data: bytes, expected: list[str], filename: str) -> Iterator[list[str]]:
    """CSV rows after a header that must match `expected`. A row the csv
    module cannot read is invalid data, named by file and line."""
    # Decoded as read, with no copy of the whole text; a byte-order mark is dropped.
    rows = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig",
                                       newline="\n"))
    try:
        header = next(rows, None)
        if header is None:
            raise SchemaError(f"{filename}: file is empty, expected header "
                              f"{','.join(expected)}")
        got = [c.strip() for c in header]
        if got != expected:
            missing = [c for c in expected if c not in got]
            if missing:
                raise SchemaError(
                    f"{filename}: header is missing column(s) {', '.join(missing)}")
            raise SchemaError(
                f"{filename}: header {','.join(got)} does not match expected order "
                f"{','.join(expected)}")
        yield from rows
    except UnicodeDecodeError:
        decoded(data, filename)  # raises the error naming the first bad byte
        raise
    except csv.Error as exc:
        raise ValidationError(f"{filename} line {rows.line_num}: {exc}") from None


# ---------------------------------------------------------------------------
# Column parsing: rows in chunks, cells a column at a time
# ---------------------------------------------------------------------------

def _chunks(data: bytes, header: list[str], source: str):
    """The rows after the header, CHUNK_ROWS at a time. Yields (lines,
    columns, malformed) per chunk: the line number of each non-blank row
    (CSV records, not text lines, counted from the header as 1, blank rows
    included), its cells as columns (sequences of str), and which rows had
    another number of cells than the header; those are cut or padded with
    blank cells to fit. The last chunk is short: no rows yield one empty.
    A file with no '"' and no "\\r" is split at commas and line ends, any
    other read by the csv reader."""
    plain = b'"' not in data and b"\r" not in data
    width, first = len(header), 2
    for size, rows, columns in (_line_chunks if plain else _record_chunks)(
            data, header, source):
        lines = np.arange(first, first + size)
        first += size
        malformed = np.zeros(size, bool)
        if columns is None:
            lengths = np.fromiter(map(len, rows), np.intp, size)
            malformed = lengths != width
            if malformed.any():
                for i in np.flatnonzero(malformed & (lengths > 0)).tolist():
                    rows[i] = (rows[i] + [""] * width)[:width]
                filled = (lengths > 0).tolist()
                rows = list(compress(rows, filled))
                lines, malformed = lines[filled], malformed[filled]
            columns = list(zip(*rows)) or [()] * width
        yield lines, columns, malformed


def _record_chunks(data: bytes, header: list[str], source: str):
    """Yields (size, rows, None) per chunk of CHUNK_ROWS records, as the
    csv reader reads them."""
    rows, size = _reader(data, header, source), CHUNK_ROWS
    while size == CHUNK_ROWS:
        chunk = list(islice(rows, CHUNK_ROWS))
        yield (size := len(chunk)), chunk, None


_NEWLINE = re.compile(b"\n")


def _line_chunks(data: bytes, header: list[str], source: str):
    """_record_chunks of a file with no '"' and no "\\r": each chunk of
    CHUNK_ROWS lines is cut from the bytes and decoded on its own. Yields
    (size, None, columns) where every line is a full row of cells no longer
    than the csv field limit, and otherwise (size, rows, None) with the
    lines as the csv reader reads them. Python 3.11's csv reader reads NUL
    as any other character, and so does this split."""
    next(_reader(data, header, source), None)  # the header, read as any file's
    width, limit = len(header), csv.field_size_limit()
    start = data.find(b"\n") + 1 or len(data)
    newlines = _NEWLINE.finditer(data, start)
    first, size = 2, CHUNK_ROWS
    while size == CHUNK_ROWS:
        last = next(islice(newlines, CHUNK_ROWS - 1, None), None)  # CHUNK_ROWS-th
        end = last.end() if last else len(data)
        try:
            text = data[start:end].decode("utf-8")
        except UnicodeDecodeError:
            decoded(data, source)  # raises the error naming the first bad byte
            raise
        lines = text.split("\n")
        if not lines[-1]:
            lines.pop()  # the piece after the last line end
        size = len(lines)
        # A blank line has no comma, and every header has several columns.
        if lines and max(map(len, lines)) <= limit \
                and set(map(str.count, lines, repeat(",", size))) == {width - 1}:
            flat = ",".join(lines).split(",")
            yield size, None, [flat[k::width] for k in range(width)]
        else:
            reader = csv.reader(lines)
            try:
                rows = list(reader)
            except csv.Error as exc:
                raise ValidationError(
                    f"{source} line {first + reader.line_num - 1}: {exc}") from None
            yield size, rows, None
        start, first = end, first + size


def _tally(report: CleaningReport, rule: np.ndarray,
           row_id: Callable[[int], str]) -> None:
    """Tally one chunk's rows: rule[i] numbers the first rule row i breaks
    (1 for RULES[0]), 0 keeps it."""
    report.total_rows += len(rule)
    for code, name in enumerate(RULES, start=1):
        report.drop_rows(name, np.flatnonzero(rule == code).tolist(), row_id)


def _stripped(cells: tuple[str, ...]) -> tuple[list[str], np.ndarray]:
    """The cells stripped, and which are not empty once stripped."""
    text = list(map(str.strip, cells))
    return text, np.fromiter(map(bool, text), bool, len(text))


def _floats(cells: tuple[str, ...]) -> np.ndarray:
    """float(cell) of each cell, NaN where that raises or is not finite."""
    try:
        values = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        values = np.array([math.nan if (v := _parse_float(c)) is None else v
                           for c in cells], np.float64)
    values[~np.isfinite(values)] = np.nan
    return values


def _measures(cells: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Optional measurement cells: the values, NaN where a cell is blank,
    and which cells are neither blank nor a finite number."""
    values = _floats(cells)
    garbage = np.zeros(len(cells), bool)
    unread = np.flatnonzero(np.isnan(values))
    garbage[unread] = [bool(cells[i].strip()) for i in unread.tolist()]
    return values, garbage


# The canonical instant YYYY-MM-DDTHH:MM:SSZ: its digit positions, the
# positions where its six two-digit numbers start, and its separators.
_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_NUMBERS = (0, 2, 5, 8, 11, 14, 17)
_SEPARATORS = {4: "-", 7: "-", 10: "T", 13: ":", 16: ":", 19: "Z"}


def _instants(cells: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """parse_instant of each cell as datetime64[s], NaT where it gives None,
    and which cells are canonical. A canonical cell holding a valid instant
    is converted in bulk; every other cell goes through parse_instant."""
    n = len(cells)
    code = np.array(cells, dtype="U20").view(np.uint32).reshape(n, 20).astype(np.int64)
    canonical = np.fromiter(map(len, cells), np.intp, n) == 20
    canonical &= ((code[:, _DIGITS] >= 48) & (code[:, _DIGITS] <= 57)).all(axis=1)
    for at, char in _SEPARATORS.items():
        canonical &= code[:, at] == ord(char)
    century, year, month, day, hour, minute, second = (
        (code[:, at] - 48) * 10 + code[:, at + 1] - 48 for at in _NUMBERS)
    year += century * 100
    months = ((year - 1970) * 12 + month - 1).astype("datetime64[M]")
    first_day = months.astype("datetime64[D]")
    month_days = ((months + 1).astype("datetime64[D]") - first_day).astype(np.int64)
    canonical &= ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
                  & (day <= month_days) & (hour <= 23) & (minute <= 59) & (second <= 59))
    values = first_day.astype("datetime64[s]") + (
        (day - 1) * 86400 + hour * 3600 + minute * 60 + second)
    for i in np.flatnonzero(~canonical).tolist():
        dt = parse_instant(cells[i])
        values[i] = np.datetime64("NaT") if dt is None \
            else np.datetime64(dt.replace(tzinfo=None), "s")
    return values, canonical


def _joined(parts: list[_Table]) -> _Table:
    """The rows of `parts`, one per chunk, in order as one table."""
    def column(name: str) -> np.ndarray | list:
        values = [getattr(part, name) for part in parts]
        if isinstance(values[0], np.ndarray):
            return np.concatenate(values)
        return list(chain.from_iterable(values))
    return type(parts[0])(*(column(f.name) for f in fields(parts[0])))


# ---------------------------------------------------------------------------
# Column writing
# ---------------------------------------------------------------------------

def csv_bytes(header: list[str], write_rows: Callable[[csv.writer], None]) -> bytes:
    """The header, then what `write_rows(writer)` writes, as CSV with "\n"
    line ends. csv.writer leaves a cell holding a bare "\r" unquoted, which
    no reader parses back, so a file that holds a "\r" is written again
    with every cell quoted."""
    def written(quoting: int) -> bytes:
        out = io.BytesIO()
        # Through a write-only buffer: over a readable one the wrapper keeps
        # a decoder and resets it on every write, once per row.
        text = io.TextIOWrapper(io.BufferedWriter(out), encoding="utf-8", newline="\n")
        w = csv.writer(text, lineterminator="\n", quoting=quoting)
        w.writerow(header)
        write_rows(w)
        text.flush()
        return out.getvalue()

    data = written(csv.QUOTE_MINIMAL)
    return written(csv.QUOTE_ALL) if b"\r" in data else data


def _write_table(header: list[str], table: _Table,
                 cells: Callable[[_Table], list]) -> bytes:
    """csv_bytes of `table`: `cells(part)` gives the text columns of each
    part of at most CHUNK_ROWS rows. A part's cells are joined with commas
    and newlines, which is what the csv writer writes while no cell holds a
    ',', '"', "\n" or "\r"; a part where one does sends the whole table
    through the csv writer."""
    def parts():
        for lo in range(0, len(table), CHUNK_ROWS):
            yield table.take(slice(lo, lo + CHUNK_ROWS))

    def write_rows(w):
        for part in parts():
            w.writerows(zip(*cells(part)))

    # One buffer, so that the output is never held twice.
    out, commas = io.BytesIO(), len(header) - 1
    out.write(",".join(header).encode())
    for part in parts():
        text = "\n".join(map(",".join, zip(*cells(part))))
        if text.count(",") != len(part) * commas or text.count("\n") != len(part) - 1 \
                or '"' in text or "\r" in text:
            return csv_bytes(header, write_rows)
        out.write(b"\n")
        out.write(text.encode())
    out.write(b"\n")
    return out.getvalue()


def _reprs(values: np.ndarray) -> list[str]:
    """repr of each float, for columns of mostly distinct values."""
    return list(map(repr, values.tolist()))


def _cells(values: np.ndarray, fmt: Callable[[float], str]) -> list[str]:
    """fmt(value) of each float, computed once per distinct bit pattern (so
    -0.0 keeps its sign), for columns that repeat. fmt gets Python floats,
    whose repr the clean files hold."""
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    text = np.array([fmt(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse].tolist()


def _instant_cells(values: np.ndarray) -> list[str]:
    """format_instant of each datetime64."""
    return np.datetime_as_string(values, unit="s", timezone="UTC").tolist()


def _minutes(value: float) -> str:
    return str(int(value)) if value.is_integer() else repr(value)


def _measure(value: float) -> str:
    return "" if math.isnan(value) else repr(value)


# ---------------------------------------------------------------------------
# Outages
# ---------------------------------------------------------------------------

def parse_outages(
    data: bytes,
    max_outage_days: float = DEFAULT_MAX_OUTAGE_DAYS,
    max_customers: int = DEFAULT_MAX_CUSTOMERS,
    source: str = "outages.csv",
) -> tuple[OutageTable, CleaningReport]:
    """Parse outages.csv, returning the kept rows and the cleaning tally.
    `source` names the parsed file in errors."""
    report = CleaningReport()
    kept: list[OutageTable] = []
    for lines, cols, malformed in _chunks(data, OUTAGES_HEADER, source):
        outage_id, has_id = _stripped(cols[0])
        component_id, has_component = _stripped(cols[1])
        cause_code, has_cause = _stripped(cols[8])
        lat, lon, restore = _floats(cols[2]), _floats(cols[3]), _floats(cols[6])
        customers = np.trunc(_floats(cols[7]))
        start, end = _instants(cols[4])[0], _instants(cols[5])[0]

        missing = malformed | np.isnat(start) | np.isnat(end) | ~(
            has_id & has_component & has_cause & np.isfinite(lat) & np.isfinite(lon)
            & np.isfinite(restore) & np.isfinite(customers))
        duration_min = (end - start) / np.timedelta64(1, "s") / 60.0
        inconsistent = (start >= end) \
            | (restore > duration_min + RESTORE_ROUNDING_SLACK_MIN)
        out_of_bounds = ~on_earth(lat, lon) | (restore < 0.0) | (customers < 0.0) \
            | (customers > float(max_customers)) \
            | (duration_min > max_outage_days * 24.0 * 60.0)
        rule = np.select([missing, inconsistent, out_of_bounds], [1, 2, 3], 0)
        _tally(report, rule, lambda i: outage_id[i] or f"row{lines[i]}")

        kept.append(OutageTable(outage_id, component_id, lat, lon, start, end, restore,
                                customers, cause_code).take(np.flatnonzero(rule == 0)))
    outages = _joined(kept)
    report.kept = len(outages)
    report.check()
    return outages, report


def write_outages_csv(outages: OutageTable) -> bytes:
    return _write_table(OUTAGES_HEADER, outages, lambda part: [
        part.outage_id, part.component_id,
        _reprs(part.latitude), _reprs(part.longitude),
        _instant_cells(part.start), _instant_cells(part.end),
        _cells(part.restore_minutes, _minutes),
        _cells(part.customers, lambda v: str(int(v))), part.cause_code])


# ---------------------------------------------------------------------------
# Weather observations
# ---------------------------------------------------------------------------

def parse_weather(
    data: bytes,
    source: str = "weather.csv",
) -> tuple[WeatherTable, CleaningReport]:
    """Parse weather.csv: validate, then collapse duplicate station-hours.

    Output is sorted by (station_id, timestamp). kept counts the surviving
    observations. `source` names the parsed file in errors.
    """
    report = CleaningReport()
    stations: dict[str, int] = {}  # station id -> code, in order of appearance
    # Per chunk, the rows that pass the row rules: line, station code,
    # timestamp and the five measurements.
    passed: list[tuple] = []
    # The stripped timestamp cell of each passing row not in canonical form.
    odd_stamps: dict[int, str] = {}
    for lines, cols, malformed in _chunks(data, WEATHER_HEADER, source):
        station_id, has_station = _stripped(cols[0])
        timestamp, canonical = _instants(cols[1])
        values, garbage = zip(*map(_measures, cols[2:]))
        values = np.column_stack(values)

        missing = malformed | ~has_station | np.isnat(timestamp) \
            | np.logical_or.reduce(garbage)
        out_of_bounds = (values < 0.0).any(axis=1) | (values[:, 1] < values[:, 0])
        rule = np.select([missing, out_of_bounds], [1, 3], 0)
        _tally(report, rule, lambda i: _weather_row_id(
            station_id[i] or f"row{lines[i]}", cols[1][i]))

        keep = np.flatnonzero(rule == 0)
        ids = list(map(station_id.__getitem__, keep.tolist()))
        for s in dict.fromkeys(ids):
            stations.setdefault(s, len(stations))
        for i in keep[~canonical[keep]].tolist():
            odd_stamps[int(lines[i])] = cols[1][i].strip()
        passed.append((lines[keep], np.fromiter(map(stations.__getitem__, ids), np.intp,
                                                len(ids)),
                       timestamp[keep], values[keep]))
    line, code, timestamp, values = map(np.concatenate, zip(*passed))

    # Group the station-hours, stations in id order. A group's first row in
    # line order counts as kept and each later one as a dropped duplicate;
    # the row with the most present fields wins, the later one on ties.
    names = list(stations)
    rank = np.empty(len(names), np.intp)
    rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    key = (timestamp, rank[code])
    by_line = np.lexsort((line, *key))
    by_fields = np.lexsort((line, (~np.isnan(values)).sum(axis=1), *key))
    group_code, group_time = rank[code][by_line], timestamp[by_line]
    first = np.ones(len(line), bool)
    first[1:] = (group_code[1:] != group_code[:-1]) | (group_time[1:] != group_time[:-1])
    last = np.ones(len(line), bool)
    last[:-1] = first[1:]

    def duplicate_id(i: int) -> str:
        stamp = odd_stamps.get(int(line[i])) \
            or str(np.datetime_as_string(timestamp[i], unit="s", timezone="UTC"))
        return _weather_row_id(names[code[i]], stamp)
    report.drop_rows("inconsistent_time", np.sort(by_line[~first]).tolist(), duplicate_id)

    winners = by_fields[last]
    observations = WeatherTable(list(map(names.__getitem__, code[winners].tolist())),
                                timestamp[winners], *values[winners].T.copy())
    report.kept = len(observations)
    report.check()
    return observations, report


def _weather_row_id(row_id: str, timestamp: str) -> str:
    timestamp = timestamp.strip()
    return f"{row_id}@{timestamp}" if timestamp else row_id


def write_weather_csv(observations: WeatherTable) -> bytes:
    return _write_table(WEATHER_HEADER, observations, lambda part: [
        part.station_id, _instant_cells(part.timestamp),
        *(_cells(values, _measure) for values in (
            part.wind_avg, part.wind_fastest_2min, part.precip, part.snowfall,
            part.snow_depth))])


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
        if not on_earth(lat, lon):
            raise SchemaError(f"{source} line {line_no}: latitude {lat!r} or "
                              f"longitude {lon!r} out of range")
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
) -> tuple[SevereTable, CleaningReport]:
    """Parse severe_events.csv; output sorted by (start, event_id), ties in
    line order.

    Unknown event_type labels are kept: hazard classification happens
    downstream. `source` names the parsed file in errors.
    """
    report = CleaningReport()
    kept: list[SevereTable] = []
    for lines, cols, malformed in _chunks(data, SEVERE_HEADER, source):
        event_id, has_id = _stripped(cols[0])
        event_type, has_type = _stripped(cols[1])
        start, end = _instants(cols[2])[0], _instants(cols[3])[0]
        lat, lon = _floats(cols[4]), _floats(cols[5])

        missing = malformed | np.isnat(start) | np.isnat(end) | ~(
            has_id & has_type & np.isfinite(lat) & np.isfinite(lon))
        rule = np.select([missing, start >= end, ~on_earth(lat, lon)], [1, 2, 3], 0)
        _tally(report, rule, lambda i: event_id[i] or f"row{lines[i]}")
        kept.append(SevereTable(event_id, event_type, start, end, lat, lon,
                                list(cols[6])).take(np.flatnonzero(rule == 0)))
    severe = _joined(kept)
    report.kept = len(severe)
    report.check()
    # A stable sort on str ids: a numpy str array would drop trailing NULs.
    keys = list(zip(severe.start.tolist(), severe.event_id))
    return severe.take(np.array(sorted(range(len(keys)), key=keys.__getitem__),
                                np.intp)), report


def write_severe_csv(severe: SevereTable) -> bytes:
    return _write_table(SEVERE_HEADER, severe, lambda part: [
        part.event_id, part.event_type, _instant_cells(part.start),
        _instant_cells(part.end), _reprs(part.latitude),
        _reprs(part.longitude), part.description])
