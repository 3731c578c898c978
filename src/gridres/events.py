"""Outage-restoration event extraction.

An event is a maximal span during which at least one outage is active:
a connected component of the union of the outage intervals. Outages are
taken in start order; one whose start is after every restoration seen so
far in the current event opens a new event. An outage beginning at the
exact instant the last active one ends continues the same event rather
than opening a new one.

Each event is summarized by its two model features: the number of member
outages and the total restoration time (last restoration minus first
start, in hours).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

from . import np
from .errors import ValidationError
from .ingest import OutageTable, csv_bytes, format_instant, utc_datetimes
from .zoning import ZonePartition, assign_many


@dataclass(frozen=True)
class OutageRestorationEvent:
    event_index: int
    first_start: datetime
    last_restoration: datetime
    n_outages: int
    total_restoration_hours: float
    zone_id: str = ""


def union_intervals(start: np.ndarray, end: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group (start, end) spans, sorted by start, into maximal unions.

    Span i joins the current group when its start is at or before the
    largest end among spans 0..i-1, so touching spans fuse. Returns arrays
    (first, stop, end) with one entry per group in order: spans
    first:stop are its members and end is their largest end.
    """
    latest = np.maximum.accumulate(end) if len(end) else end
    cuts = np.flatnonzero(start[1:] > latest[:-1]) + 1
    first, stop = (np.r_[0, cuts], np.r_[cuts, len(start)]) if len(start) else (cuts, cuts)
    return first, stop, latest[stop - 1]


def extract_events(outages: OutageTable, zone_id: str = "") -> list[OutageRestorationEvent]:
    """Union the outage intervals into events. Returns events in
    chronological order, indexed from 0.

    Outages are taken in start order (a stable sort, so ties keep table
    order) and grouped by union_intervals. Instants may have any
    datetime64 unit.
    """
    invalid = np.flatnonzero(outages.start >= outages.end)
    if invalid.size:
        raise ValidationError(
            f"outage {outages.outage_id[invalid[0]]!r} has start >= end; "
            f"run ingest cleaning first")

    order = np.argsort(outages.start, kind="stable")
    start = outages.start[order]
    first, stop, last = union_intervals(start, outages.end[order])
    first_start = start[first]
    hours = ((last - first_start) / np.timedelta64(1, "s") / 3600.0).tolist()
    return [OutageRestorationEvent(index, *event, zone_id=zone_id)
            for index, event in enumerate(zip(
                utc_datetimes(first_start), utc_datetimes(last),
                (stop - first).tolist(), hours))]


def extract_events_by_zone(
    outages: OutageTable, partition: ZonePartition,
) -> dict[str, list[OutageRestorationEvent]]:
    """Assign outages to zones, then extract each zone's events on its own.

    Every zone of the partition appears in the result, possibly with an
    empty list. Simultaneous bursts in different zones stay separate events.
    """
    zone = assign_many(partition, outages.longitude, outages.latitude)
    return {z.zone_id: extract_events(outages.take(np.flatnonzero(zone == i)),
                                      zone_id=z.zone_id)
            for i, z in enumerate(partition.zones)}


EVENTS_HEADER = ["event_index", "zone_id", "first_start", "last_restoration",
                 "n_outages", "total_restoration_hours"]


def events_csv(events: list[OutageRestorationEvent]) -> bytes:
    return csv_bytes(EVENTS_HEADER, lambda w: w.writerows(
        [e.event_index, e.zone_id, format_instant(e.first_start),
         format_instant(e.last_restoration), e.n_outages,
         repr(e.total_restoration_hours)] for e in events))
