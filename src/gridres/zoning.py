"""Weather-zone construction and point-to-zone assignment.

The service territory is split into one zone per weather station of a given
capability: a point belongs to the station it is nearest to (a Voronoi
tessellation clipped to the territory boundary). With at most a dozen
stations the cells are built by successive half-plane clipping, which is
O(n^2) but numerically boring.

All geometry runs on an equirectangular projection about the boundary
centroid: x = (lon - lon0) * cos(lat0), y = lat - lat0, in degrees. At the
~50 km scale of a metro service territory the bisector displacement versus
great-circle distance is far below the station spacing, and the projection
keeps every operation linear.

Also hosts the outage-density grid used for heatmap-style summaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import np
from .config import HAZARD_CLASSES, HAZARD_PRECIPITATION, HAZARD_WIND  # noqa: F401 (re-exported)
from .errors import ValidationError, is_finite_number, json_object, json_text
from .ingest import Station, on_earth

# two points closer than this (projected degrees) are the same site
COINCIDENT_TOL = 1e-12
# assign_many distance tie tolerance, projected degrees
TIE_TOL = 1e-12
# The most cells a density grid may have (int64 counts: 8 MB)
DENSITY_MAX_CELLS = 1_000_000


@dataclass(frozen=True)
class Projection:
    """Equirectangular local projection about (lon0, lat0); elementwise on arrays."""
    lon0: float
    lat0: float
    cos_lat0: float

    def to_plane(self, lon: float, lat: float) -> tuple[float, float]:
        return (lon - self.lon0) * self.cos_lat0, lat - self.lat0

    def to_lonlat(self, x: float, y: float) -> tuple[float, float]:
        return x / self.cos_lat0 + self.lon0, y + self.lat0


@dataclass(frozen=True)
class WeatherZone:
    """One Voronoi cell. polygon is a closed counterclockwise
    (longitude, latitude) ring: first vertex == last vertex."""
    zone_id: str
    station_id: str
    polygon: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class ZonePartition:
    hazard_class: str
    zones: tuple[WeatherZone, ...]
    projection: Projection
    # projected station coordinates, aligned with zones
    sites: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class DensityGrid:
    bbox: tuple[float, float, float, float]
    cell_size: float
    counts: np.ndarray  # row-major, row 0 along min_lat


# ---------------------------------------------------------------------------
# Polygon primitives
# ---------------------------------------------------------------------------

def signed_area(ring: list[tuple[float, float]]) -> float:
    """Shoelace signed area; accepts open or closed rings."""
    total = 0.0
    n = len(ring)
    for i in range(n):
        x0, y0 = ring[i]
        x1, y1 = ring[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return 0.5 * total


def polygon_centroid(ring: list[tuple[float, float]]) -> tuple[float, float]:
    """Area centroid; the ring must enclose nonzero area."""
    area = signed_area(ring)
    if abs(area) < 1e-15:
        raise ValidationError("boundary polygon has zero area")
    cx = cy = 0.0
    n = len(ring)
    for i in range(n):
        x0, y0 = ring[i]
        x1, y1 = ring[(i + 1) % n]
        cross = x0 * y1 - x1 * y0
        cx += (x0 + x1) * cross
        cy += (y0 + y1) * cross
    return cx / (6.0 * area), cy / (6.0 * area)


def point_in_ring(ring: list[tuple[float, float]], x: float, y: float) -> bool:
    """Ray-casting point-in-polygon; accepts open or closed rings."""
    inside = False
    n = len(ring)
    for i in range(n):
        x0, y0 = ring[i]
        x1, y1 = ring[(i + 1) % n]
        if (y0 > y) != (y1 > y):
            t = (y - y0) / (y1 - y0)
            if x < x0 + t * (x1 - x0):
                inside = not inside
    return inside


def _open_ring(ring: list[tuple[float, float]]) -> list[tuple[float, float]]:
    if len(ring) >= 2 and ring[0] == ring[-1]:
        return list(ring[:-1])
    return list(ring)


def _close_ccw(ring: list[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    ring = _open_ring(ring)
    if signed_area(ring) < 0.0:
        ring.reverse()
    return tuple(ring) + (ring[0],)


def _clip_halfplane(
    poly: list[tuple[float, float]], a: float, b: float, c: float,
) -> list[tuple[float, float]]:
    """Clip an open convex ring to the half-plane a*x + b*y <= c."""
    out: list[tuple[float, float]] = []
    n = len(poly)
    for i in range(n):
        px, py = poly[i]
        qx, qy = poly[(i + 1) % n]
        p_val = a * px + b * py - c
        q_val = a * qx + b * qy - c
        if p_val <= 0.0:
            out.append((px, py))
            if q_val > 0.0:
                t = p_val / (p_val - q_val)
                out.append((px + t * (qx - px), py + t * (qy - py)))
        elif q_val <= 0.0:
            t = p_val / (p_val - q_val)
            out.append((px + t * (qx - px), py + t * (qy - py)))
    # drop near-duplicate consecutive vertices introduced by clipping
    cleaned: list[tuple[float, float]] = []
    for pt in out:
        if cleaned and abs(pt[0] - cleaned[-1][0]) < 1e-14 \
                and abs(pt[1] - cleaned[-1][1]) < 1e-14:
            continue
        cleaned.append(pt)
    if len(cleaned) >= 2 and abs(cleaned[0][0] - cleaned[-1][0]) < 1e-14 \
            and abs(cleaned[0][1] - cleaned[-1][1]) < 1e-14:
        cleaned.pop()
    return cleaned


# ---------------------------------------------------------------------------
# Partition construction
# ---------------------------------------------------------------------------

def build_partition(
    stations: list[Station],
    hazard_class: str,
    boundary: list[tuple[float, float]],
) -> ZonePartition:
    """Build the Voronoi partition of `boundary` for one station capability.

    Zone order (and therefore the index in zone_id "<class>:<index>")
    follows the input station order.
    """
    if hazard_class not in HAZARD_CLASSES:
        raise ValidationError(f"unknown hazard class {hazard_class!r}")
    qualifying = [s for s in stations if hazard_class in s.capabilities]
    if not qualifying:
        raise ValidationError(f"no station has capability {hazard_class!r}")

    boundary_open = _open_ring(list(boundary))
    if len(boundary_open) < 3:
        raise ValidationError("boundary polygon needs at least 3 vertices")
    lon0, lat0 = polygon_centroid(boundary_open)
    proj = Projection(lon0, lat0, math.cos(math.radians(lat0)))

    bnd = [proj.to_plane(lon, lat) for lon, lat in boundary_open]
    if signed_area(bnd) < 0.0:
        bnd.reverse()
    sites = [proj.to_plane(s.longitude, s.latitude) for s in qualifying]

    for i in range(len(sites)):
        for j in range(i + 1, len(sites)):
            dx = sites[i][0] - sites[j][0]
            dy = sites[i][1] - sites[j][1]
            if math.sqrt(dx * dx + dy * dy) < COINCIDENT_TOL:
                raise ValidationError(
                    f"stations {qualifying[i].station_id!r} and "
                    f"{qualifying[j].station_id!r} coincide; Voronoi bisector "
                    f"is degenerate")
    for s, (x, y) in zip(qualifying, sites):
        if not point_in_ring(bnd, x, y):
            raise ValidationError(
                f"station {s.station_id!r} lies outside the service boundary")

    zones: list[WeatherZone] = []
    for i, (six, siy) in enumerate(sites):
        cell = list(bnd)
        for j, (sjx, sjy) in enumerate(sites):
            if j == i:
                continue
            # keep |p - s_i|^2 <= |p - s_j|^2, rewritten as a linear half-plane
            a = 2.0 * (sjx - six)
            b = 2.0 * (sjy - siy)
            c = sjx * sjx + sjy * sjy - six * six - siy * siy
            cell = _clip_halfplane(cell, a, b, c)
            if len(cell) < 3:
                raise ValidationError(
                    f"station {qualifying[i].station_id!r} produced an empty "
                    f"Voronoi cell")
        ring = [proj.to_lonlat(x, y) for x, y in cell]
        zones.append(WeatherZone(
            zone_id=f"{hazard_class}:{i}",
            station_id=qualifying[i].station_id,
            polygon=_close_ccw(ring),
        ))

    return ZonePartition(
        hazard_class=hazard_class,
        zones=tuple(zones),
        projection=proj,
        sites=tuple(sites),
    )


# ---------------------------------------------------------------------------
# Assignment
# ---------------------------------------------------------------------------

def assign_many(
    partition: ZonePartition, lons: np.ndarray, lats: np.ndarray,
) -> np.ndarray:
    """Zone index of the nearest station for each point, inside the
    service boundary or not; distance ties go to the lowest index."""
    x, y = partition.projection.to_plane(np.asarray(lons, dtype=float),
                                         np.asarray(lats, dtype=float))
    sites = np.asarray(partition.sites, dtype=float)
    dx = x[:, None] - sites[None, :, 0]
    dy = y[:, None] - sites[None, :, 1]
    d = np.sqrt(dx * dx + dy * dy)
    d_min = d.min(axis=1)
    # first index within tolerance of the minimum = lowest-index tie-break
    return np.argmax(d <= (d_min + TIE_TOL)[:, None], axis=1)


# ---------------------------------------------------------------------------
# Density grid
# ---------------------------------------------------------------------------

def density_grid(
    lons: np.ndarray,
    lats: np.ndarray,
    bbox: tuple[float, float, float, float],
    cell_size: float,
) -> DensityGrid:
    """Count points per cell on a regular lon/lat grid over a closed bbox.

    Cells are half-open on their low edge side: a point on an interior
    shared edge counts toward the larger cell index. Points on the bbox
    maximum edges fold into the last cell so the closed bbox loses nothing.
    A grid of more than DENSITY_MAX_CELLS cells is refused before anything
    is allocated.
    """
    min_lon, min_lat, max_lon, max_lat = bbox
    if cell_size <= 0.0:
        raise ValidationError("cell_size must be positive")
    if max_lon <= min_lon or max_lat <= min_lat:
        raise ValidationError("bbox must satisfy min < max on both axes")
    spans = ((max_lat - min_lat) / cell_size, (max_lon - min_lon) / cell_size)
    # A side past the limit on its own stands for itself: it may be too
    # large (or infinite) to round up.
    nrows, ncols = (max(1, math.ceil(n - 1e-12)) if n <= DENSITY_MAX_CELLS
                    else DENSITY_MAX_CELLS + 1 for n in spans)
    if nrows * ncols > DENSITY_MAX_CELLS:
        raise ValidationError(
            f"density_cell_size {cell_size:g} asks for a {spans[0]:.4g} x "
            f"{spans[1]:.4g} density grid over the boundary; at most "
            f"{DENSITY_MAX_CELLS:,} cells are allowed")

    counts = np.zeros((nrows, ncols), dtype=np.int64)
    lons, lats = np.asarray(lons, dtype=float), np.asarray(lats, dtype=float)
    inside = ((lons >= min_lon) & (lons <= max_lon)
              & (lats >= min_lat) & (lats <= max_lat))
    cols = np.floor((lons[inside] - min_lon) / cell_size).astype(np.int64)
    rows = np.floor((lats[inside] - min_lat) / cell_size).astype(np.int64)
    np.clip(cols, 0, ncols - 1, out=cols)
    np.clip(rows, 0, nrows - 1, out=rows)
    flat = np.bincount(rows * ncols + cols, minlength=nrows * ncols)
    counts += flat.reshape(nrows, ncols)
    return DensityGrid(bbox=tuple(bbox), cell_size=cell_size, counts=counts)


def density_grid_csv(grid: DensityGrid) -> bytes:
    lines = [",".join(str(int(v)) for v in row) for row in grid.counts]
    return ("\n".join(lines) + "\n").encode("utf-8")


def density_grid_meta_json(grid: DensityGrid) -> str:
    doc = {
        "bbox": list(grid.bbox),
        "cell_size": grid.cell_size,
        "rows": int(grid.counts.shape[0]),
        "cols": int(grid.counts.shape[1]),
        "total": int(grid.counts.sum()),
    }
    return json_text(doc)


# ---------------------------------------------------------------------------
# GeoJSON
# ---------------------------------------------------------------------------

def load_boundary_geojson(text: str, source: str = "boundary GeoJSON",
                          ) -> list[tuple[float, float]]:
    """Extract the one Polygon exterior ring from a GeoJSON document. A
    position's values past longitude and latitude (an altitude) are
    ignored; errors name `source`."""
    def bad(what: str) -> ValidationError:
        return ValidationError(f"{source}: {what}")

    def array(value, what: str) -> list:
        if not isinstance(value, list):
            raise bad(f"{what} must be an array")
        return value

    doc = json_object(text, source)
    found = []  # the exterior ring of every polygon
    for node in array(doc.get("features", []), "features") \
            if doc.get("type") == "FeatureCollection" else [doc]:
        if isinstance(node, dict) and node.get("type") == "Feature":
            node = node.get("geometry") or {}  # null geometry: none
        if not isinstance(node, dict):
            raise bad("each feature and geometry must be an object")
        if node.get("type") in ("Polygon", "MultiPolygon"):
            coordinates = array(node.get("coordinates") or [], "coordinates")
            polygons = [coordinates] if node["type"] == "Polygon" else coordinates
            found += [array(poly, "coordinates")[0] for poly in polygons
                      if array(poly, "coordinates")]

    if not found:
        raise bad("contains no Polygon geometry")
    if len(found) > 1:
        raise bad(f"has {len(found)} polygons; only a single polygon is supported")
    ring = array(found[0], "the ring")
    if len(ring) < 4 or not all(isinstance(p, list) and len(p) >= 2
                                and all(map(is_finite_number, p)) for p in ring):
        raise bad("the ring needs at least 4 positions (3 distinct vertices), each "
                  "an array of at least two finite numbers")
    outside = [p[:2] for p in ring if not on_earth(p[1], p[0])]
    if outside:
        raise bad(f"position {outside[0]} is out of range: longitude must be in "
                  f"[-180, 180] and latitude in [-90, 90]")
    return [(float(p[0]), float(p[1])) for p in ring]


def polygon_feature(ring, properties: dict) -> dict:
    """A GeoJSON Feature of one Polygon whose exterior is `ring`."""
    return {"type": "Feature", "properties": properties,
            "geometry": {"type": "Polygon",
                         "coordinates": [[[lon, lat] for lon, lat in ring]]}}


def boundary_to_geojson(ring: list[tuple[float, float]]) -> str:
    doc = polygon_feature(_close_ccw(list(ring)), {"role": "service_boundary"})
    return json_text(doc, indent=None)


def partition_to_geojson(partition: ZonePartition) -> str:
    features = [polygon_feature(zone.polygon, {
        "zone_id": zone.zone_id,
        "station_id": zone.station_id,
        "hazard_class": partition.hazard_class,
    }) for zone in partition.zones]
    doc = {"type": "FeatureCollection", "features": features}
    return json_text(doc, indent=None)
