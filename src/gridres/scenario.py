"""Scenario predictions and their renderings.

A scenario is a hazard class plus one intensity value ("wind at 35 m/s").
Per zone, the fragility model turns intensity into an expected outage
count, and that count feeds the zone's restoration model to give expected
restoration hours. Predictions keep fractional outages: the models are
continuous and rounding belongs to presentation, not to the composition.

Renderings are a GeoJSON choropleth (shade = normalized hours, 0 darkest =
shortest) and standalone SVG scatter-plus-curve charts. Both are built by
plain string assembly so their bytes are stable for golden-file testing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ScenarioSpec, predictions_filename  # noqa: F401 (re-exported)
from .errors import UnservedScenario, ValidationError, json_text
from .fitting import (
    KIND_FRAGILITY,
    KIND_RESTORATION,
    ExponentialModel,
    ModelStore,
    SaturatingRestorationModel,
    evaluate,
)
from .ingest import csv_bytes
from .zoning import ZonePartition, polygon_feature


@dataclass(frozen=True)
class ZonePrediction:
    zone_id: str
    predicted_outages: float
    predicted_restoration_hours: float
    extrapolated: bool


def _outside(x: float, domain: tuple[float, float] | None) -> bool:
    if domain is None:
        return False
    lo, hi = domain
    return x < lo or x > hi


def predict_zone(
    fragility: ExponentialModel,
    restoration: SaturatingRestorationModel,
    intensity: float,
    fragility_domain: tuple[float, float] | None = None,
    restoration_domain: tuple[float, float] | None = None,
) -> ZonePrediction:
    """Compose the two models: hours = restoration(fragility(intensity)).

    extrapolated marks either model being evaluated outside the x-range it
    was fitted on.
    """
    if fragility.zone_id and restoration.zone_id \
            and fragility.zone_id != restoration.zone_id:
        raise ValidationError(
            f"fragility model is for zone {fragility.zone_id!r} but "
            f"restoration model is for zone {restoration.zone_id!r}")
    outages = evaluate(fragility, intensity)
    hours = evaluate(restoration, outages)
    return ZonePrediction(
        zone_id=fragility.zone_id or restoration.zone_id,
        predicted_outages=outages,
        predicted_restoration_hours=hours,
        extrapolated=_outside(intensity, fragility_domain)
        or _outside(outages, restoration_domain),
    )


def predict_all(
    store: ModelStore, partition: ZonePartition, scenario: ScenarioSpec,
) -> list[ZonePrediction]:
    """One prediction per partition zone, in zone-index order."""
    if partition.hazard_class != scenario.hazard_class:
        raise ValidationError(
            f"partition is for {partition.hazard_class!r} but scenario asks "
            f"for {scenario.hazard_class!r}")
    if not partition.zones:
        raise ValidationError("partition has no zones")

    missing: list[str] = []
    for zone in partition.zones:
        for kind in (KIND_FRAGILITY, KIND_RESTORATION):
            if kind not in store.zones.get(zone.zone_id, {}):
                missing.append(f"{zone.zone_id} ({kind})")
    if missing:
        raise UnservedScenario("model store is missing: " + ", ".join(missing))

    predictions = []
    for zone in partition.zones:
        frag_rec = store.zones[zone.zone_id][KIND_FRAGILITY]
        rest_rec = store.zones[zone.zone_id][KIND_RESTORATION]
        predictions.append(predict_zone(
            frag_rec.to_model(zone.zone_id, partition.hazard_class),
            rest_rec.to_model(zone.zone_id),
            scenario.intensity,
            fragility_domain=frag_rec.fit_domain,
            restoration_domain=rest_rec.fit_domain,
        ))
    return predictions


def predictions_csv(scenario: ScenarioSpec, predictions: list[ZonePrediction]) -> bytes:
    return csv_bytes(
        ["zone_id", "intensity", "predicted_outages",
         "predicted_restoration_hours", "extrapolated"],
        lambda w: w.writerows(
            [p.zone_id, repr(float(scenario.intensity)), repr(p.predicted_outages),
             repr(p.predicted_restoration_hours),
             "true" if p.extrapolated else "false"] for p in predictions))


# ---------------------------------------------------------------------------
# Choropleth
# ---------------------------------------------------------------------------

def shade_for(hours: float, h_min: float, h_max: float) -> float:
    """Linear hours -> [0, 1]; 0 is darkest (shortest). Equal endpoints map
    everything to mid-shade."""
    if h_max <= h_min:
        return 0.5
    return (hours - h_min) / (h_max - h_min)


def emit_choropleth(
    partition: ZonePartition,
    predictions: list[ZonePrediction],
    scenario: ScenarioSpec,
) -> str:
    """GeoJSON FeatureCollection, one feature per zone, shaded by hours."""
    by_zone = {p.zone_id: p for p in predictions}
    missing = [z.zone_id for z in partition.zones if z.zone_id not in by_zone]
    if missing:
        raise ValidationError(
            "predictions missing for zone(s): " + ", ".join(missing))

    hours = [by_zone[z.zone_id].predicted_restoration_hours
             for z in partition.zones]
    h_min, h_max = min(hours), max(hours)

    features = []
    for zone in partition.zones:
        pred = by_zone[zone.zone_id]
        features.append(polygon_feature(zone.polygon, {
            "zone_id": zone.zone_id,
            "predicted_outages": pred.predicted_outages,
            "predicted_restoration_hours": pred.predicted_restoration_hours,
            "extrapolated": pred.extrapolated,
            "shade": shade_for(pred.predicted_restoration_hours, h_min, h_max),
        }))
    doc = {
        "type": "FeatureCollection",
        "features": features,
        "color_scale": {
            "min_hours": h_min,
            "max_hours": h_max,
            "darker_is_shorter": True,
        },
        "scenario": {
            "hazard_class": scenario.hazard_class,
            "intensity": scenario.intensity,
            "label": scenario.label,
        },
    }
    return json_text(doc, indent=None)


def choropleth_filename(scenario: ScenarioSpec) -> str:
    return f"choropleth_{scenario.stem}.geojson"


# ---------------------------------------------------------------------------
# SVG scatter + fitted curve
# ---------------------------------------------------------------------------

_SVG_W, _SVG_H = 800, 600
_M_LEFT, _M_RIGHT, _M_TOP, _M_BOTTOM = 70, 25, 45, 60
_CURVE_POINTS = 200


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:g}" if abs(v) < 1e6 else f"{v:.2e}"


def emit_scatter(
    samples: list[tuple[float, float]],
    model: ExponentialModel | SaturatingRestorationModel,
    x_label: str,
    y_label: str,
    title: str = "",
) -> str:
    """Standalone SVG: sample points plus the fitted curve.

    The x-axis spans [0, 1.05 * max x]; axes always cover every point.
    With no samples the curve is drawn alone over [0, 1] with a warning
    annotation.
    """
    x_hi = 1.05 * max((x for x, _ in samples), default=0.0)
    if x_hi <= 0.0:
        x_hi = 1.0

    xs_curve = [x_hi * i / (_CURVE_POINTS - 1) for i in range(_CURVE_POINTS)]
    ys_curve = [evaluate(model, x) for x in xs_curve]
    y_values = [y for _, y in samples] + ys_curve
    y_hi = max(y_values)
    y_hi = 1.05 * y_hi if y_hi > 0.0 else 1.0

    plot_w = _SVG_W - _M_LEFT - _M_RIGHT
    plot_h = _SVG_H - _M_TOP - _M_BOTTOM

    def px(x: float) -> float:
        return _M_LEFT + plot_w * (x / x_hi)

    def py(y: float) -> float:
        return _M_TOP + plot_h * (1.0 - y / y_hi)

    parts: list[str] = []
    parts.append('<?xml version="1.0" encoding="UTF-8"?>')
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">')
    parts.append('<rect width="100%" height="100%" fill="white"/>')
    if title:
        parts.append(
            f'<text x="{_SVG_W / 2:.0f}" y="26" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{title}</text>')

    # axes
    x0, y0 = _M_LEFT, _M_TOP + plot_h
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" '
                 f'stroke="black" stroke-width="1"/>')
    parts.append(f'<line x1="{x0}" y1="{_M_TOP}" x2="{x0}" y2="{y0}" '
                 f'stroke="black" stroke-width="1"/>')
    for i in range(6):
        frac = i / 5.0
        tx = x0 + plot_w * frac
        parts.append(f'<line x1="{_fmt(tx)}" y1="{y0}" x2="{_fmt(tx)}" '
                     f'y2="{y0 + 5}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(tx)}" y="{y0 + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">'
                     f'{_tick_label(x_hi * frac)}</text>')
        ty = y0 - plot_h * frac
        parts.append(f'<line x1="{x0 - 5}" y1="{_fmt(ty)}" x2="{x0}" '
                     f'y2="{_fmt(ty)}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{x0 - 8}" y="{_fmt(ty + 4)}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">'
                     f'{_tick_label(y_hi * frac)}</text>')
    parts.append(f'<text x="{x0 + plot_w / 2:.0f}" y="{_SVG_H - 18}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="13">{x_label}</text>')
    parts.append(f'<text x="20" y="{_M_TOP + plot_h / 2:.0f}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 20 {_M_TOP + plot_h / 2:.0f})">'
                 f'{y_label}</text>')

    for x, y in samples:
        parts.append(f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="3" '
                     f'fill="#2b6cb0" fill-opacity="0.7"/>')

    points = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}"
                      for x, y in zip(xs_curve, ys_curve))
    parts.append(f'<polyline points="{points}" fill="none" stroke="#c53030" '
                 f'stroke-width="2"/>')

    if not samples:
        parts.append(f'<text x="{x0 + plot_w / 2:.0f}" '
                     f'y="{_M_TOP + plot_h / 2:.0f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="14" fill="#999">'
                     f'no samples: curve shown without data</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
