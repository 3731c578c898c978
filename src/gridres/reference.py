"""Bundled reference models from the Indianapolis case study.

The utility outage data behind the original case study is proprietary, so
this module ships the reported zone models as ready-made model stores:

  wind zone 0 fragility   y = 0.0002 * e^(0.3675 x)
  wind zone 1 fragility   y = 2.9214 * e^(0.1058 x)
  precip zones 0-3, 5     y = 0.0654 * e^(2.7683 x)  (shared curve)
  precip zone 4           y = 1.179  * e^(1.6159 x)
  restoration (wind 1)    y = 232.60 - 217.17 e^(-0.001 x) - 15.22 e^(-0.041 x)

Only one restoration curve was published with coefficients; it stands in
for every zone here, which preserves the documented wind-zone contrast
(zone 0 predicts fewer outages at a given wind speed, hence shorter
restoration through the shared curve).

Station coordinates and the service boundary below are a stand-in
rectangle over the Indianapolis area with two wind zones (north/south) and
six precipitation zones; the real territory shape is not public. They
exist so the prediction and rendering stages can run end to end on the
reference models.
"""

from __future__ import annotations

from .fitting import (
    FORM_EXPONENTIAL,
    FORM_RESTORATION,
    KIND_FRAGILITY,
    KIND_RESTORATION,
    ModelRecord,
    ModelStore,
)
from .ingest import Station, write_stations_csv
from .zoning import (
    HAZARD_PRECIPITATION,
    HAZARD_WIND,
    ZonePartition,
    boundary_to_geojson,
    build_partition,
)

WIND_FRAGILITY = {
    "wind:0": (0.0002, 0.3675),
    "wind:1": (2.9214, 0.1058),
}

PRECIP_FRAGILITY_SHARED = (0.0654, 2.7683)
PRECIP_FRAGILITY_ZONE4 = (1.179, 1.6159)

RESTORATION = (232.60, 217.17, 0.001, 15.22, 0.041)  # c, a1, b1, a2, b2

# x-ranges the published curves are plotted over; evaluations beyond these
# are flagged as extrapolation
WIND_DOMAIN = (0.0, 40.0)
PRECIP_DOMAIN = (0.0, 5.0)
RESTORATION_DOMAIN = (0.0, 2000.0)

_PUBLISHED = {"initializer": "published", "converged": True}

BOUNDARY = [
    (-86.35, 39.60),
    (-85.90, 39.60),
    (-85.90, 39.95),
    (-86.35, 39.95),
]

# wind zone 0 north, zone 1 south
_WIND_STATIONS = [
    ("WREF0", 39.87, -86.15),
    ("WREF1", 39.68, -86.12),
]
_PRECIP_STATIONS = [
    ("PREF0", 39.88, -86.28),
    ("PREF1", 39.90, -86.05),
    ("PREF2", 39.80, -85.96),
    ("PREF3", 39.74, -86.30),
    ("PREF4", 39.78, -86.16),
    ("PREF5", 39.66, -86.00),
]


def _restoration_rec() -> ModelRecord:
    params = dict(zip(("c", "a1", "b1", "a2", "b2"), RESTORATION))
    return ModelRecord(FORM_RESTORATION, params, dict(_PUBLISHED),
                       RESTORATION_DOMAIN)


def _fragility_rec(a: float, b: float, domain: tuple[float, float]) -> ModelRecord:
    return ModelRecord(FORM_EXPONENTIAL, {"a": a, "b": b}, dict(_PUBLISHED), domain)


def reference_wind_store() -> ModelStore:
    zones = {}
    for zone_id, (a, b) in WIND_FRAGILITY.items():
        zones[zone_id] = {
            KIND_FRAGILITY: _fragility_rec(a, b, WIND_DOMAIN),
            KIND_RESTORATION: _restoration_rec(),
        }
    return ModelStore(hazard_class=HAZARD_WIND, zones=zones)


def reference_precipitation_store() -> ModelStore:
    zones = {}
    for i in range(6):
        a, b = PRECIP_FRAGILITY_ZONE4 if i == 4 else PRECIP_FRAGILITY_SHARED
        zones[f"precipitation:{i}"] = {
            KIND_FRAGILITY: _fragility_rec(a, b, PRECIP_DOMAIN),
            KIND_RESTORATION: _restoration_rec(),
        }
    return ModelStore(hazard_class=HAZARD_PRECIPITATION, zones=zones)


def reference_stations() -> list[Station]:
    stations = [Station(sid, lat, lon, frozenset([HAZARD_WIND]))
                for sid, lat, lon in _WIND_STATIONS]
    stations += [Station(sid, lat, lon, frozenset([HAZARD_PRECIPITATION]))
                 for sid, lat, lon in _PRECIP_STATIONS]
    return stations


def reference_partition(hazard_class: str) -> ZonePartition:
    return build_partition(reference_stations(), hazard_class, BOUNDARY)


def materialize_reference_workspace(root) -> None:
    """Write the reference models and territory into a workspace directory
    so `predict` and `render` can run without any input data."""
    from pathlib import Path

    root = Path(root)
    (root / "inputs").mkdir(parents=True, exist_ok=True)
    (root / "inputs" / "boundary.geojson").write_text(
        boundary_to_geojson(BOUNDARY), encoding="utf-8")
    (root / "clean_stations.csv").write_bytes(
        write_stations_csv(reference_stations()))
    (root / "models_wind.json").write_text(
        reference_wind_store().to_json(), encoding="utf-8")
    (root / "models_precipitation.json").write_text(
        reference_precipitation_store().to_json(), encoding="utf-8")
