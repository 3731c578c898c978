"""Voronoi partitioning, point-to-zone assignment, density grid."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridres.errors import ValidationError
from gridres.ingest import Station
from gridres.zoning import (
    DENSITY_MAX_CELLS,
    _clip_halfplane,
    _open_ring,
    assign_many,
    boundary_to_geojson,
    build_partition,
    density_grid,
    density_grid_csv,
    density_grid_meta_json,
    load_boundary_geojson,
    partition_to_geojson,
    point_in_ring,
    signed_area,
)
from oracles import nearest_station_index

# an equator-centered rectangle keeps projected coordinates equal to degrees,
# so geometric expectations can be written directly
EQ_BOUNDARY = [(-5.0, -5.0), (15.0, -5.0), (15.0, 5.0), (-5.0, 5.0)]


def wind_station(sid, lat, lon):
    return Station(sid, lat, lon, frozenset({"wind"}))


def two_station_partition():
    stations = [wind_station("A", 0.0, 0.0), wind_station("B", 0.0, 10.0)]
    return build_partition(stations, "wind", EQ_BOUNDARY)


def zone_of(part, lon, lat):
    """Zone id assign_many gives one point."""
    return part.zones[int(assign_many(part, [lon], [lat])[0])].zone_id


def ring_area(ring):
    pts = list(ring)
    if pts[0] == pts[-1]:
        pts = pts[:-1]
    return abs(signed_area(pts))


# ---------------------------------------------------------------------------
# Partition construction
# ---------------------------------------------------------------------------

def test_two_stations_split_by_perpendicular_bisector():
    part = two_station_partition()
    assert len(part.zones) == 2
    # cells must be the two halves of the rectangle split by lon = 5
    left = [p for p in part.zones[0].polygon]
    right = [p for p in part.zones[1].polygon]
    assert max(lon for lon, _ in left) == pytest.approx(5.0, abs=1e-9)
    assert min(lon for lon, _ in right) == pytest.approx(5.0, abs=1e-9)
    assert ring_area(left) == pytest.approx(100.0, rel=1e-9)
    assert ring_area(right) == pytest.approx(100.0, rel=1e-9)


def test_single_station_owns_whole_boundary():
    part = build_partition([wind_station("A", 0.0, 3.0)], "wind", EQ_BOUNDARY)
    assert len(part.zones) == 1
    assert ring_area(part.zones[0].polygon) == pytest.approx(200.0, rel=1e-9)


def test_partition_sizes_follow_capabilities():
    stations = [
        Station("W0", 1.0, 1.0, frozenset({"wind"})),
        Station("W1", -1.0, 8.0, frozenset({"wind"})),
    ] + [
        Station(f"P{i}", -3.0 + i, 2.0 + 1.5 * i, frozenset({"precipitation"}))
        for i in range(6)
    ]
    wind = build_partition(stations, "wind", EQ_BOUNDARY)
    precip = build_partition(stations, "precipitation", EQ_BOUNDARY)
    assert len(wind.zones) == 2
    assert len(precip.zones) == 6
    assert [z.zone_id for z in wind.zones] == ["wind:0", "wind:1"]
    assert precip.zones[5].zone_id == "precipitation:5"


def test_zone_polygons_are_closed_ccw():
    part = two_station_partition()
    for zone in part.zones:
        assert zone.polygon[0] == zone.polygon[-1]
        assert signed_area(list(zone.polygon[:-1])) > 0.0


def test_coincident_stations_fatal():
    stations = [wind_station("A", 0.0, 0.0), wind_station("B", 0.0, 0.0)]
    with pytest.raises(ValidationError):
        build_partition(stations, "wind", EQ_BOUNDARY)


def test_station_outside_boundary_fatal():
    with pytest.raises(ValidationError):
        build_partition([wind_station("A", 40.0, 40.0)], "wind", EQ_BOUNDARY)


def test_unknown_hazard_class_fatal():
    with pytest.raises(ValidationError):
        build_partition([wind_station("A", 0.0, 0.0)], "shade", EQ_BOUNDARY)


def test_clockwise_boundary_gives_the_same_zones():
    stations = [wind_station("A", 0.0, 0.0), wind_station("B", 0.0, 10.0)]
    clockwise = build_partition(stations, "wind", EQ_BOUNDARY[::-1])
    assert clockwise == two_station_partition()


@pytest.mark.parametrize("stations, boundary, needle", [
    ([Station("P", 0.0, 0.0, frozenset({"precipitation"}))], EQ_BOUNDARY,
     "no station has capability 'wind'"),
    ([wind_station("A", 0.0, 0.0)], EQ_BOUNDARY[:2], "at least 3 vertices"),
    ([wind_station("A", 0.0, 0.0)], [(-5.0, -5.0), (0.0, 0.0), (5.0, 5.0)], "zero area"),
], ids=["no-capable-station", "two-vertices", "collinear"])
def test_degenerate_partition_input_fatal(stations, boundary, needle):
    with pytest.raises(ValidationError, match=needle):
        build_partition(stations, "wind", boundary)


def test_clip_through_two_corners_drops_repeated_vertices():
    """Both corners the clip line passes through come out once: as repeated
    neighbours, and as the last vertex repeating the first."""
    square = [(1.0, 1.0), (0.0, 1.0), (0.0, 0.0), (1.0, 0.0)]
    assert _clip_halfplane(square, 1.0, -1.0, 0.0) == [(1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]


def test_open_ring_drops_only_a_closing_vertex():
    """The last vertex is dropped only when it repeats the first."""
    triangle = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]
    assert _open_ring(triangle + [(0.0, 0.0)]) == triangle
    assert _open_ring(triangle) == triangle
    assert _open_ring(triangle + [(1.0, 0.0)]) == triangle + [(1.0, 0.0)]


def test_area_conservation():
    rng = np.random.default_rng(7)
    stations = [wind_station(f"S{i}", float(rng.uniform(-4, 4)),
                             float(rng.uniform(-4, 14))) for i in range(9)]
    part = build_partition(stations, "wind", EQ_BOUNDARY)
    total = sum(ring_area(z.polygon) for z in part.zones)
    assert total == pytest.approx(200.0, rel=1e-6)


# ---------------------------------------------------------------------------
# Assignment
# ---------------------------------------------------------------------------

def test_strictly_closer_point():
    part = two_station_partition()
    assert zone_of(part, 2.0, 1.0) == "wind:0"


def test_bisector_tie_goes_to_lower_index():
    part = two_station_partition()
    assert zone_of(part, 5.0, 0.0) == "wind:0"
    assert list(assign_many(part, [5.0, 5.0], [3.3, -4.9])) == [0, 0]


def test_outside_point_flagged():
    # a point outside the service boundary still gets its nearest station's
    # zone; only the boundary ring says it lies outside
    part = two_station_partition()
    assert list(assign_many(part, [2.0, -20.0, 30.0], [1.0, 0.0, 9.0])) \
        == [0, 0, 1]
    assert point_in_ring(EQ_BOUNDARY, 2.0, 1.0)
    assert not point_in_ring(EQ_BOUNDARY, -20.0, 0.0)


def test_assignment_matches_brute_force():
    rng = np.random.default_rng(11)
    stations = [wind_station(f"S{i}", float(rng.uniform(-4, 4)),
                             float(rng.uniform(-4, 14))) for i in range(7)]
    part = build_partition(stations, "wind", EQ_BOUNDARY)
    lons = rng.uniform(-5, 15, 2000)
    lats = rng.uniform(-5, 5, 2000)
    got = assign_many(part, lons, lats)
    for k in range(len(lons)):
        x, y = part.projection.to_plane(lons[k], lats[k])
        dists = [math.hypot(x - sx, y - sy) for sx, sy in part.sites]
        assert got[k] == dists.index(min(dists))


def test_assign_many_agrees_with_scalar_path():
    part = two_station_partition()
    rng = np.random.default_rng(3)
    lons = rng.uniform(-5, 15, 500)
    lats = rng.uniform(-5, 5, 500)
    vec = assign_many(part, lons, lats)
    scalar = [nearest_station_index(part, lon, lat)
              for lon, lat in zip(lons, lats)]
    assert list(vec) == scalar


def test_assignment_order_invariant():
    part = two_station_partition()
    pts = [(-1.0, 2.0), (9.0, -3.0), (5.0, 0.0), (4.999, 0.0)]
    forward = [zone_of(part, *p) for p in pts]
    backward = [zone_of(part, *p) for p in reversed(pts)]
    assert forward == list(reversed(backward))


def test_polygon_and_nearest_agree():
    # interior points away from cell edges must land in the polygon that
    # assign_many names
    rng = np.random.default_rng(19)
    stations = [wind_station(f"S{i}", float(rng.uniform(-4, 4)),
                             float(rng.uniform(-4, 14))) for i in range(5)]
    part = build_partition(stations, "wind", EQ_BOUNDARY)
    rings = {z.zone_id: [part.projection.to_plane(lon, lat)
                         for lon, lat in z.polygon[:-1]]
             for z in part.zones}
    checked = 0
    for _ in range(800):
        lon = float(rng.uniform(-5, 15))
        lat = float(rng.uniform(-5, 5))
        x, y = part.projection.to_plane(lon, lat)
        d = sorted(math.hypot(x - sx, y - sy) for sx, sy in part.sites)
        if d[1] - d[0] < 1e-6:  # too close to a bisector to trust either side
            continue
        zone_id = zone_of(part, lon, lat)
        assert point_in_ring(rings[zone_id], x, y)
        checked += 1
    assert checked > 700


# ---------------------------------------------------------------------------
# Density grid
# ---------------------------------------------------------------------------

BBOX = (-5.0, -5.0, 15.0, 5.0)


def test_density_no_points():
    grid = density_grid([], [], BBOX, 1.0)
    assert grid.counts.shape == (10, 20)
    assert grid.counts.sum() == 0


def test_density_identical_points_share_cell():
    grid = density_grid([0.25] * 5, [0.25] * 5, BBOX, 1.0)
    assert grid.counts.max() == 5
    assert grid.counts.sum() == 5


def test_density_sum_counts_inside_points():
    rng = np.random.default_rng(23)
    pts = [(float(rng.uniform(-10, 20)), float(rng.uniform(-10, 10)))
           for _ in range(1000)]
    grid = density_grid(*np.array(pts).T, BBOX, 0.5)
    inside = sum(1 for lon, lat in pts
                 if -5.0 <= lon <= 15.0 and -5.0 <= lat <= 5.0)
    assert int(grid.counts.sum()) == inside


def test_density_outputs_parse():
    grid = density_grid([0.0], [0.0], BBOX, 1.0)
    text = density_grid_csv(grid).decode()
    assert len(text.strip().split("\n")) == grid.counts.shape[0]
    meta = json.loads(density_grid_meta_json(grid))
    assert meta["cols"] == grid.counts.shape[1]
    assert meta["total"] == 1


@pytest.mark.parametrize("bbox, cell_size, needle", [
    (BBOX, 0.0, "cell_size must be positive"),
    ((15.0, -5.0, -5.0, 5.0), 1.0, "min < max"),
], ids=["zero-cell", "reversed-bbox"])
def test_density_grid_bad_layout_refused(bbox, cell_size, needle):
    with pytest.raises(ValidationError, match=needle):
        density_grid([0.0], [0.0], bbox, cell_size)


def test_density_grid_past_the_cell_limit_refused():
    assert density_grid([], [], (0.0, 0.0, 1000.0, 1000.0), 1.0).counts.size \
        == DENSITY_MAX_CELLS
    for bbox, cell_size in [((0.0, 0.0, 1000.5, 1000.0), 1.0),
                            ((-180.0, -89.0, 180.0, 89.0), 0.02),
                            (BBOX, 1e-300), (BBOX, 5e-324)]:
        with pytest.raises(ValidationError, match="density_cell_size"):
            density_grid([0.0], [0.0], bbox, cell_size)


# ---------------------------------------------------------------------------
# GeoJSON plumbing
# ---------------------------------------------------------------------------

def test_partition_geojson_round_trips_through_loader():
    part = two_station_partition()
    doc = json.loads(partition_to_geojson(part))
    assert doc["type"] == "FeatureCollection"
    assert [f["properties"]["zone_id"] for f in doc["features"]] \
        == ["wind:0", "wind:1"]
    ring = load_boundary_geojson(json.dumps(doc["features"][0]))
    assert ring_area(ring) == pytest.approx(100.0, rel=1e-9)


def test_clockwise_boundary_written_counter_clockwise():
    clockwise = [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)]
    ring = json.loads(boundary_to_geojson(clockwise))["geometry"]["coordinates"][0]
    assert ring[0] == ring[-1]
    assert signed_area([tuple(p) for p in ring[:-1]]) == 1.0


def test_load_boundary_rejects_nonsense():
    with pytest.raises(ValidationError):
        load_boundary_geojson("{\"type\": \"FeatureCollection\", \"features\": []}")
    with pytest.raises(ValidationError):
        load_boundary_geojson("not json")
    with pytest.raises(ValidationError, match="must be an object"):
        load_boundary_geojson('{"type": "FeatureCollection", "features": [1]}')


def test_boundary_multipolygon_needs_one_part():
    square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]
    far = [[lon + 5.0, lat] for lon, lat in square]
    one = {"type": "MultiPolygon", "coordinates": [[square]]}
    assert load_boundary_geojson(json.dumps(one)) == [tuple(p) for p in square]
    two = {"type": "Feature", "properties": {},
           "geometry": {"type": "MultiPolygon", "coordinates": [[square], [far]]}}
    with pytest.raises(ValidationError, match="2 polygons"):
        load_boundary_geojson(json.dumps(two))


def test_boundary_feature_collection_needs_one_polygon():
    square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]
    far = [[lon + 5.0, lat] for lon, lat in square]

    def collection(*rings):
        return json.dumps({"type": "FeatureCollection", "features": [
            {"type": "Feature", "properties": {},
             "geometry": {"type": "Polygon", "coordinates": [ring]}}
            for ring in rings]})

    assert load_boundary_geojson(collection(square)) == [tuple(p) for p in square]
    with pytest.raises(ValidationError, match="2 polygons"):
        load_boundary_geojson(collection(square, far))


@settings(max_examples=30, deadline=None)
@given(st.floats(-4.9, 14.9), st.floats(-4.9, 4.9))
def test_any_interior_point_gets_a_zone(lon, lat):
    part = two_station_partition()
    assert zone_of(part, lon, lat) in ("wind:0", "wind:1")
    assert point_in_ring(EQ_BOUNDARY, lon, lat)
