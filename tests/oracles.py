"""Slow, obviously-correct reference implementations that tests compare the
pipeline's vectorised and indexed paths against."""

from __future__ import annotations

import math
from datetime import datetime

from gridres.ingest import OutageRecord, WeatherObservation
from gridres.zoning import TIE_TOL, ZonePartition


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
