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
from typing import Any

import numpy as np

from .errors import ValidationError
from .ingest import OutageRecord, csv_bytes, format_instant
from .zoning import ZonePartition, assign_many


@dataclass(frozen=True)
class OutageRestorationEvent:
    event_index: int
    first_start: datetime
    last_restoration: datetime
    n_outages: int
    total_restoration_hours: float
    zone_id: str = ""


def union_intervals(spans: list[tuple[Any, Any]]) -> list[tuple[int, int, Any]]:
    """Group (start, end) spans, sorted by start, into maximal unions.

    A span joins the current group when its start is at or before the
    largest end in the group, so touching spans fuse. Returns one
    (first, stop, end) per group in order: spans[first:stop] are its
    members and end is their largest end.
    """
    groups: list[tuple[int, int, Any]] = []
    first, group_end = 0, None
    for i, (start, end) in enumerate(spans):
        if i and start > group_end:
            groups.append((first, i, group_end))
            first, group_end = i, end
        elif i == 0 or end > group_end:
            group_end = end
    if spans:
        groups.append((first, len(spans), group_end))
    return groups


def extract_events(outages: list[OutageRecord], zone_id: str = "") -> list[OutageRestorationEvent]:
    """Union the outage intervals into events. Returns events in
    chronological order, indexed from 0."""
    for rec in outages:
        if rec.start >= rec.end:
            raise ValidationError(
                f"outage {rec.outage_id!r} has start >= end; run ingest cleaning first")

    ordered = sorted(outages, key=lambda r: r.start)
    events: list[OutageRestorationEvent] = []
    for first, stop, last in union_intervals([(r.start, r.end) for r in ordered]):
        first_start = ordered[first].start
        events.append(OutageRestorationEvent(
            event_index=len(events),
            first_start=first_start,
            last_restoration=last,
            n_outages=stop - first,
            total_restoration_hours=(last - first_start).total_seconds() / 3600.0,
            zone_id=zone_id,
        ))
    return events


def extract_events_by_zone(
    outages: list[OutageRecord], partition: ZonePartition,
) -> dict[str, list[OutageRestorationEvent]]:
    """Assign outages to zones, then extract each zone's events on its own.

    Every zone of the partition appears in the result, possibly with an
    empty list. Simultaneous bursts in different zones stay separate events.
    """
    by_zone: dict[str, list[OutageRecord]] = \
        {z.zone_id: [] for z in partition.zones}
    lons = np.array([r.longitude for r in outages])
    lats = np.array([r.latitude for r in outages])
    for rec, i in zip(outages, assign_many(partition, lons, lats)):
        by_zone[partition.zones[i].zone_id].append(rec)
    return {zone_id: extract_events(records, zone_id=zone_id)
            for zone_id, records in by_zone.items()}


EVENTS_HEADER = ["event_index", "zone_id", "first_start", "last_restoration",
                 "n_outages", "total_restoration_hours"]


def events_csv(events: list[OutageRestorationEvent]) -> bytes:
    return csv_bytes(EVENTS_HEADER, lambda w: w.writerows(
        [e.event_index, e.zone_id, format_instant(e.first_start),
         format_instant(e.last_restoration), e.n_outages,
         repr(e.total_restoration_hours)] for e in events))
