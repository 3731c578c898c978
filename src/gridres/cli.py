"""The stage bodies of the command-line pipeline, and their helpers.

Each `stage_<name>` is the body of a row of `gridres.runner.STAGES`, which
runs it only when it is stale. Tests and the benchmark's tracer patch the
names bound here (`parse_outages`, `fit_exponential`, `stage_*`).

The `__main__` guard sits above every other import, so that
`python -m gridres.cli` checks freshness before any stage module loads; the
runner imports this module again, as gridres.cli, only when a body must run.

A command parses each file content once: what a parser returns (column
tables for outages, weather and severe events, records for stations) is
memoized in `Workspace.parsed` by file and sha256. When ingest runs
inside a command (as in run-all), it hands the tables and records it
writes to that memo under the digest of the written bytes. Later stages
still read each clean file, so the manifest records its on-disk digest,
and they reuse what was handed over only while that digest matches; a
changed file goes through the same parser as ingest's input.
"""

from __future__ import annotations

if __name__ == "__main__":
    import sys
    from gridres.runner import main
    sys.exit(main())

import logging
import math
from typing import Any, Callable, NamedTuple

from .config import (HAZARD_CLASSES, HAZARD_PRECIPITATION, HAZARD_WIND, Config,
                     ScenarioSpec, predictions_filename)
from .errors import (
    MissingInputError,
    UnservedScenario,
    ValidationError,
    is_finite_number,
    json_object,
    json_text,
)
from .events import EVENTS_HEADER, events_csv, extract_events, extract_events_by_zone
from .fitting import (
    KIND_FRAGILITY,
    KIND_RESTORATION,
    FitError,
    ModelRecord,
    ModelStore,
    fit_exponential,
    fit_restoration,
)
from .ingest import (
    OutageTable,
    _parse_float,
    _reader,
    parse_outages,
    parse_severe,
    parse_stations,
    parse_weather,
    write_outages_csv,
    write_severe_csv,
    write_stations_csv,
    write_weather_csv,
)
from .linkage import FRAGILITY_HEADER, build_fragility_samples, fragility_csv
from .runner import STAGES, main  # noqa: F401 (re-exported)
from .scenario import (choropleth_filename, emit_choropleth, emit_scatter, predict_all,
                       predictions_csv)
from .workspace import Workspace
from .zoning import (
    build_partition,
    density_grid,
    density_grid_csv,
    density_grid_meta_json,
    load_boundary_geojson,
    partition_to_geojson,
)

log = logging.getLogger(__name__)

INPUTS = {
    "outages": "inputs/outages.csv",
    "weather": "inputs/weather.csv",
    "stations": "inputs/stations.csv",
    "severe": "inputs/severe_events.csv",
}
CLEAN = {
    "outages": "clean_outages.csv",
    "weather": "clean_weather.csv",
    "stations": "clean_stations.csv",
    "severe": "clean_severe.csv",
}


def _parsed(ws: Workspace, relative: str, parse: Callable[[bytes, str], Any]):
    """parse(file bytes, workspace path), once per content; each call
    still reads (records) the file."""
    data = ws.read_bytes(relative)
    key = ws.key(relative)
    memo = (key, ws.reads[key])
    if memo not in ws.parsed:
        ws.parsed[memo] = parse(data, str(ws.path(relative)))
    return ws.parsed[memo]


def _write_clean(ws: Workspace, name: str, rows, write: Callable) -> None:
    """Write one clean file, and hand its rows (a table or records) to
    later stages of this command as the parse of exactly the bytes
    written."""
    ws.write_bytes(CLEAN[name], write(rows))
    ws.parsed[(ws.key(CLEAN[name]), ws.writes[CLEAN[name]])] = rows


def _clean_records(ws: Workspace, name: str, parse: Callable):
    """The rows of one clean file. Ingest wrote only rows that pass every
    rule, so a row that fails one now is invalid data."""
    def checked(data: bytes, source: str):
        records, report = parse(data, source)
        if report.kept != report.total_rows:
            raise ValidationError(
                f"{source}: {report.total_rows - report.kept} "
                f"row(s) fail the cleaning rules; rerun ingest")
        return records
    return _parsed(ws, CLEAN[name], checked)


def _clean_outages(ws: Workspace) -> OutageTable:
    # Uncapped: ingest already applied the configured caps.
    return _clean_records(ws, "outages", lambda data, source: parse_outages(
        data, max_outage_days=math.inf, max_customers=math.inf, source=source))


def _load_partitions(ws: Workspace, cfg: Config) -> tuple[list, dict]:
    """The boundary ring, and a partition per class with capable stations."""
    stations = _parsed(ws, CLEAN["stations"], parse_stations)
    boundary = load_boundary_geojson(ws.read_text(cfg.boundary_path),
                                     str(ws.path(cfg.boundary_path)))
    partitions = {}
    for hazard_class in HAZARD_CLASSES:
        if any(hazard_class in s.capabilities for s in stations):
            partitions[hazard_class] = build_partition(
                stations, hazard_class, boundary)
        else:
            log.warning("no %s-capable stations; skipping that partition",
                        hazard_class)
    return boundary, partitions


def _zone_sort_key(zone_id: str):
    hazard_class, _, index = zone_id.partition(":")
    return (hazard_class, int(index)) if index.isdigit() else (hazard_class, -1)


def _classes_with(ws: Workspace, template: str) -> list[str]:
    """Classes whose `template.format(class)` exists; none is a missing input."""
    classes = [c for c in HAZARD_CLASSES if ws.exists(template.format(c))]
    if not classes:
        raise MissingInputError(str(ws.path(template.format(HAZARD_WIND))))
    return classes


class _ModelKind(NamedTuple):
    name: str
    samples: str                  # sample file: <samples>_<class>.csv
    header: list[str]             # its header, as its writer writes it
    cells: tuple[int, int, int]   # header positions of the zone id, x and y
    fit: Callable                 # (samples, zone_id, class) -> (model, diag)
    axes: Callable[[str], tuple[str, str]]  # plot axis labels for a class


_HAZARD_AXIS = {HAZARD_WIND: "wind speed (m/s)",
                HAZARD_PRECIPITATION: "precipitation depth (in)"}

# Fit functions are looked up at call time, so wrappers installed on this
# module's names see every call.
_MODEL_KINDS = (
    _ModelKind(KIND_FRAGILITY, "fragility", FRAGILITY_HEADER, (0, 3, 4),
               lambda samples, zone_id, hazard_class: fit_exponential(
                   samples, zone_id=zone_id, hazard_class=hazard_class),
               lambda hazard_class: (_HAZARD_AXIS[hazard_class], "outages")),
    _ModelKind(KIND_RESTORATION, "events", EVENTS_HEADER, (1, 4, 5),
               lambda samples, zone_id, hazard_class: fit_restoration(
                   samples, zone_id=zone_id),
               lambda hazard_class: ("outages in event", "restoration hours")),
)


def _read_samples(ws: Workspace, kind: _ModelKind,
                  hazard_class: str) -> dict[str, list[tuple[float, float]]]:
    """Per-zone (x, y) samples of one model kind; none when its file is
    absent. A malformed row is invalid data."""
    relative = f"{kind.samples}_{hazard_class}.csv"
    samples: dict[str, list[tuple[float, float]]] = {}
    if ws.exists(relative):
        zone, x, y = kind.cells
        source = str(ws.path(relative))
        rows = _reader(ws.read_bytes(relative), kind.header, source)
        for line_no, row in enumerate(rows, start=2):
            if not row:
                continue
            xy = (_parse_float(row[x]), _parse_float(row[y])) \
                if len(row) == len(kind.header) else (None,)
            if None in xy:
                raise ValidationError(
                    f"{source} line {line_no}: expected {len(kind.header)} "
                    f"cells with finite numbers at {kind.header[x]} and "
                    f"{kind.header[y]}")
            samples.setdefault(row[zone], []).append(xy)
    return samples


def _model_store(ws: Workspace, hazard_class: str) -> ModelStore:
    relative = f"models_{hazard_class}.json"
    source = str(ws.path(relative))
    store = ModelStore.from_json(ws.read_text(relative), source)
    if store.hazard_class != hazard_class:
        raise ValidationError(f"{source}: holds {store.hazard_class!r} models")
    return store


# ---------------------------------------------------------------------------
# Stage bodies: each reads every input before its first write, and returns
# a one-line detail
# ---------------------------------------------------------------------------

def stage_synth(ws: Workspace, cfg: Config, seed: int):
    from .synth import SynthSpec, generate  # here: no other stage loads synth or reference
    bundle = generate(SynthSpec(seed=seed))
    for name, data in bundle.items():
        ws.write_bytes("truth.json" if name == "truth.json" else f"inputs/{name}",
                       data)
    n_outages = bundle["outages.csv"].count(b"\n") - 1
    n_weather = bundle["weather.csv"].count(b"\n") - 1
    return f"{n_outages} outages, {n_weather} weather rows, seed {seed}"


def stage_ingest(ws: Workspace, cfg: Config):
    outages, outage_report = _parsed(ws, INPUTS["outages"], lambda data, source: (
        parse_outages(data, cfg.max_outage_days, cfg.max_customers, source)))
    # Written before weather is parsed: its bytes reuse what the outage parse freed.
    _write_clean(ws, "outages", outages, write_outages_csv)
    ws.write_text("report_outages.json", outage_report.to_json())
    weather, weather_report = _parsed(ws, INPUTS["weather"], parse_weather)
    stations = _parsed(ws, INPUTS["stations"], parse_stations)
    severe, severe_report = _parsed(ws, INPUTS["severe"], parse_severe)

    _write_clean(ws, "weather", weather, write_weather_csv)
    ws.write_text("report_weather.json", weather_report.to_json())
    _write_clean(ws, "stations", stations, write_stations_csv)
    _write_clean(ws, "severe", severe, write_severe_csv)
    ws.write_text("report_severe.json", severe_report.to_json())
    return (f"outages {outage_report.kept}/{outage_report.total_rows}, "
            f"weather {weather_report.kept}/{weather_report.total_rows}, "
            f"severe {severe_report.kept}/{severe_report.total_rows}, "
            f"{len(stations)} stations")


def stage_zones(ws: Workspace, cfg: Config):
    boundary, partitions = _load_partitions(ws, cfg)
    outages = _clean_outages(ws)
    lons = [lon for lon, _ in boundary]
    lats = [lat for _, lat in boundary]
    grid = density_grid(outages.longitude, outages.latitude,
                        (min(lons), min(lats), max(lons), max(lats)),
                        cfg.density_cell_size)
    counts = []
    for hazard_class, partition in partitions.items():
        ws.write_text(f"zones_{hazard_class}.geojson",
                      partition_to_geojson(partition))
        counts.append(f"{len(partition.zones)} {hazard_class}")
    ws.write_bytes("density.csv", density_grid_csv(grid))
    ws.write_text("density.json", density_grid_meta_json(grid))
    return " + ".join(counts) + " zones" if counts else "no partitions"


def stage_extract_events(ws: Workspace, cfg: Config):
    outages = _clean_outages(ws)
    _, partitions = _load_partitions(ws, cfg)
    global_events = extract_events(outages)
    ws.write_bytes("events_global.csv", events_csv(global_events))

    zone_totals = []
    for hazard_class, partition in partitions.items():
        by_zone = extract_events_by_zone(outages, partition)
        rows = []
        for zone in partition.zones:
            rows.extend(by_zone[zone.zone_id])
        ws.write_bytes(f"events_{hazard_class}.csv", events_csv(rows))
        zone_totals.append(f"{len(rows)} {hazard_class}")

    detail = f"{len(global_events)} global events"
    if zone_totals:
        detail += "; per-zone " + ", ".join(zone_totals)
    return detail


def stage_link(ws: Workspace, cfg: Config):
    severe = _clean_records(ws, "severe", parse_severe)
    weather = _clean_records(ws, "weather", parse_weather)
    outages = _clean_outages(ws)
    _, partitions = _load_partitions(ws, cfg)

    samples = build_fragility_samples(
        severe, partitions, weather, outages,
        mapping=cfg.hazard_mapping, precip_mode=cfg.precip_intensity_mode)

    counts = []
    for hazard_class in partitions:
        ws.write_bytes(f"fragility_{hazard_class}.csv",
                       fragility_csv(samples[hazard_class]))
        n = sum(len(v) for v in samples[hazard_class].values())
        counts.append(f"{n} {hazard_class}")
    return ", ".join(counts) + " samples" if counts else "no partitions"


def stage_fit(ws: Workspace, cfg: Config):
    samples_by_class = {
        c: {k.name: _read_samples(ws, k, c) for k in _MODEL_KINDS}
        for c in _classes_with(ws, "events_{}.csv")}
    details = []
    for hazard_class, samples in samples_by_class.items():
        zone_ids = sorted(set().union(*samples.values()), key=_zone_sort_key)
        store = ModelStore(hazard_class=hazard_class, zones={})
        for zone_id in zone_ids:
            records = {}
            for kind in _MODEL_KINDS:
                zone_samples = samples[kind.name].get(zone_id, [])
                try:
                    model, diag = kind.fit(zone_samples, zone_id, hazard_class)
                except FitError as exc:
                    log.warning("skipping %s fit: %s", kind.name, exc)
                    continue
                xs = [x for x, _ in zone_samples]
                records[kind.name] = ModelRecord.of(model, diag, (min(xs), max(xs)))
                if diag.stop_reason != "simplex":
                    log.warning("%s fit for %s stopped on %s", kind.name, zone_id,
                                diag.stop_reason)
            if records:
                store.zones[zone_id] = records

        ws.write_text(f"models_{hazard_class}.json", store.to_json())
        details.append(f"{hazard_class}: " + ", ".join(
            f"{sum(k.name in recs for recs in store.zones.values())} {k.name}"
            for k in _MODEL_KINDS))
    return "; ".join(details)


def stage_predict(ws: Workspace, cfg: Config, scenario: ScenarioSpec):
    hazard_class = scenario.hazard_class
    _, partitions = _load_partitions(ws, cfg)
    if hazard_class not in partitions:
        raise UnservedScenario(
            f"no {hazard_class}-capable stations; cannot build the partition")
    partition = partitions[hazard_class]
    store = _model_store(ws, hazard_class)

    predictions = predict_all(store, partition, scenario)
    ws.write_bytes(predictions_filename(scenario),
                   predictions_csv(scenario, predictions))
    ws.write_text(choropleth_filename(scenario),
                  emit_choropleth(partition, predictions, scenario))

    for p in predictions:
        log.info("%s: %.1f outages, %.1f h%s", p.zone_id, p.predicted_outages,
                 p.predicted_restoration_hours,
                 " (extrapolated)" if p.extrapolated else "")
    hours = [p.predicted_restoration_hours for p in predictions]
    label = f" {scenario.label!r}" if scenario.label else ""
    return (f"{hazard_class}@{scenario.intensity:g}{label}: {len(predictions)} "
            f"zones, {min(hours):.1f}-{max(hours):.1f} h")


def stage_render(ws: Workspace, cfg: Config):
    inputs = [(c, _model_store(ws, c),
               {k.name: _read_samples(ws, k, c) for k in _MODEL_KINDS})
              for c in _classes_with(ws, "models_{}.json")]
    plots = 0
    for hazard_class, store, samples in inputs:
        for zone_id in sorted(store.zones, key=_zone_sort_key):
            for kind in _MODEL_KINDS:
                rec = store.zones[zone_id].get(kind.name)
                if rec is None:
                    continue
                svg = emit_scatter(
                    samples[kind.name].get(zone_id, []), rec.to_model(zone_id),
                    *kind.axes(hazard_class), title=f"{zone_id} {kind.name}")
                ws.write_text(
                    f"plots/{kind.name}_{zone_id.replace(':', '_')}.svg", svg)
                plots += 1
    return f"{plots} plot(s)"


# The fitted parameter of each model kind compared with truth.json.
_TRUTH_PARAMS = {KIND_FRAGILITY: "b", KIND_RESTORATION: "c"}


def stage_truth_comparison(ws: Workspace, cfg: Config):
    """Compare each truth zone with the fitted zone of its hazard class and
    station, and write truth_comparison.json keyed by truth zone id."""
    source = str(ws.path("truth.json"))
    truth = json_object(ws.read_text("truth.json"), source).get("zones")
    if not isinstance(truth, dict) or not all(
            isinstance(zone, dict) and isinstance(zone.get("hazard_class"), str)
            and isinstance(zone.get("station_id"), str)
            and all(isinstance(zone.get(k), dict) and zone[k].get(p) != 0
                    and is_finite_number(zone[k].get(p))
                    for k, p in _TRUTH_PARAMS.items())
            for zone in truth.values()):
        raise ValidationError(
            f"{source}: each zone needs a hazard_class, a station_id and a "
            f"nonzero number at " + ", ".join(map(".".join, _TRUTH_PARAMS.items())))
    stores = {c: _model_store(ws, c) for c in HAZARD_CLASSES
              if ws.exists(f"models_{c}.json")}
    _, partitions = _load_partitions(ws, cfg)
    fitted_zone = {(c, zone.station_id): zone.zone_id
                   for c, partition in partitions.items() for zone in partition.zones}

    zones_doc = {}
    errors: dict[str, list[float]] = {kind: [] for kind in _TRUTH_PARAMS}
    for zone_id, zone_truth in sorted(truth.items()):
        hazard_class = zone_truth["hazard_class"]
        store = stores.get(hazard_class)
        fitted_id = fitted_zone.get((hazard_class, zone_truth["station_id"]))
        kinds = store.zones.get(fitted_id, {}) if store else {}
        entry: dict = {}
        for kind, param in _TRUTH_PARAMS.items():
            if kind in kinds:
                true, fitted = zone_truth[kind][param], kinds[kind].params[param]
                rel = abs(fitted - true) / abs(true)
                entry[f"{kind}_{param}"] = {"true": true, "fitted": fitted,
                                            "rel_error": rel}
                errors[kind].append(rel)
        zones_doc[zone_id] = entry

    doc = {"zones": zones_doc}
    parts = []
    for kind, param in _TRUTH_PARAMS.items():
        worst = max(errors[kind]) if errors[kind] else None
        doc[f"max_{kind}_{param}_rel_error"] = worst
        if worst is not None:
            parts.append(f"max {param} error {worst * 100.0:.1f}%")
    ws.write_text("truth_comparison.json", json_text(doc))
    return ", ".join(parts) if parts else "no fitted models to compare"
