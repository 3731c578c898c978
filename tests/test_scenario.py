"""Scenario prediction, choropleth, and plot rendering."""

import dataclasses
import json
import math

import pytest

from gridres.errors import ValidationError
from gridres.fitting import (
    ExponentialModel,
    ModelStore,
    SaturatingRestorationModel,
    evaluate,
)
from gridres.reference import (
    RESTORATION,
    reference_partition,
    reference_precipitation_store,
    reference_wind_store,
)
from gridres.scenario import (
    ScenarioSpec,
    choropleth_filename,
    emit_choropleth,
    emit_scatter,
    predict_all,
    predict_zone,
    predictions_csv,
    predictions_filename,
    shade_for,
)

WIND35 = ScenarioSpec(hazard_class="wind", intensity=35.0)
PRECIP25 = ScenarioSpec(hazard_class="precipitation", intensity=2.5)


def zone_pred(store, zone_id, intensity):
    """predict_zone wired up from store records, as predict_all does it."""
    frag = store.zones[zone_id]["fragility"]
    rest = store.zones[zone_id]["restoration"]
    return predict_zone(frag.to_model(zone_id, store.hazard_class),
                        rest.to_model(zone_id), intensity,
                        fragility_domain=frag.fit_domain,
                        restoration_domain=rest.fit_domain)


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def test_zone1_wind_at_35():
    store = reference_wind_store()
    pred = zone_pred(store, "wind:1", 35.0)
    assert pred.predicted_outages == pytest.approx(118.51777548690217)
    c, a1, b1, a2, b2 = RESTORATION
    expected = c - a1 * math.exp(-b1 * 118.51777548690217) \
        - a2 * math.exp(-b2 * 118.51777548690217)
    assert pred.predicted_restoration_hours == pytest.approx(expected)
    assert pred.predicted_restoration_hours == pytest.approx(39.6, abs=0.05)


def test_zero_intensity_yields_scale_parameter():
    pred = zone_pred(reference_wind_store(), "wind:0", 0.0)
    assert pred.predicted_outages == pytest.approx(0.0002)
    assert not pred.extrapolated


def test_extrapolation_flagged_beyond_fit_domain():
    store = reference_wind_store()
    assert not zone_pred(store, "wind:0", 39.0).extrapolated
    assert zone_pred(store, "wind:0", 41.0).extrapolated
    # the fit domain is (0, 40), ends included
    assert not zone_pred(store, "wind:0", 40.0).extrapolated
    assert not zone_pred(store, "wind:0", 0.0).extrapolated


def test_models_of_two_zones_do_not_compose():
    with pytest.raises(ValidationError, match="'wind:0' but restoration model is for zone 'wind:1'"):
        predict_zone(ExponentialModel(a=1.0, b=0.1, zone_id="wind:0"),
                     SaturatingRestorationModel(*RESTORATION, zone_id="wind:1"),
                     35.0)


def test_negative_intensity_rejected_at_spec_construction():
    with pytest.raises(ValidationError):
        ScenarioSpec(hazard_class="wind", intensity=-1.0)


def test_composition_is_bit_consistent():
    store = reference_wind_store()
    partition = reference_partition("wind")
    for pred in predict_all(store, partition, WIND35):
        frag = store.zones[pred.zone_id]["fragility"].to_model(pred.zone_id)
        rest = store.zones[pred.zone_id]["restoration"].to_model(pred.zone_id)
        outages = evaluate(frag, WIND35.intensity)
        assert pred.predicted_outages == outages  # bitwise
        assert pred.predicted_restoration_hours == evaluate(rest, outages)


def test_prediction_monotone_in_intensity():
    store = reference_wind_store()
    last = -1.0
    for x in [0.0, 10.0, 20.0, 30.0, 35.0, 39.0]:
        pred = zone_pred(store, "wind:1", x)
        assert pred.predicted_restoration_hours >= last
        last = pred.predicted_restoration_hours


# ---------------------------------------------------------------------------
# predict_all
# ---------------------------------------------------------------------------

def test_wind_store_ordering_matches_paper_contrast():
    preds = predict_all(reference_wind_store(), reference_partition("wind"),
                        WIND35)
    assert [p.zone_id for p in preds] == ["wind:0", "wind:1"]
    assert preds[0].predicted_restoration_hours \
        < preds[1].predicted_restoration_hours


def test_six_precipitation_zones_predict():
    preds = predict_all(reference_precipitation_store(),
                        reference_partition("precipitation"), PRECIP25)
    assert len(preds) == 6
    shared = [p.predicted_outages for p in preds if p.zone_id != "precipitation:4"]
    assert all(v == pytest.approx(66.25540056333226) for v in shared)
    zone4 = next(p for p in preds if p.zone_id == "precipitation:4")
    assert zone4.predicted_outages == pytest.approx(66.98151069662715)


def test_hazard_class_mismatch_fatal():
    with pytest.raises(ValidationError):
        predict_all(reference_wind_store(), reference_partition("wind"),
                    PRECIP25)


def test_partition_without_zones_fatal():
    empty = dataclasses.replace(reference_partition("wind"), zones=())
    with pytest.raises(ValidationError, match="no zones"):
        predict_all(reference_wind_store(), empty, WIND35)


def test_missing_models_reported_together():
    store = reference_wind_store()
    del store.zones["wind:1"]["restoration"]
    broken = ModelStore(hazard_class="wind",
                        zones={"wind:0": store.zones["wind:0"]})
    with pytest.raises(ValidationError) as err:
        predict_all(broken, reference_partition("wind"), WIND35)
    assert "wind:1" in str(err.value)


def test_predictions_csv_layout():
    preds = predict_all(reference_wind_store(), reference_partition("wind"),
                        WIND35)
    lines = predictions_csv(WIND35, preds).decode().strip().split("\n")
    assert lines[0] == ("zone_id,intensity,predicted_outages,"
                        "predicted_restoration_hours,extrapolated")
    assert lines[1].split(",")[0] == "wind:0"
    assert lines[1].split(",")[1] == "35.0"
    assert lines[1].split(",")[4] in ("true", "false")


# ---------------------------------------------------------------------------
# Shading
# ---------------------------------------------------------------------------

def test_shade_endpoints():
    assert shade_for(10.0, 10.0, 40.0) == 0.0
    assert shade_for(40.0, 10.0, 40.0) == 1.0
    assert shade_for(25.0, 10.0, 40.0) == pytest.approx(0.5)


def test_shade_degenerate_scale_is_half():
    assert shade_for(7.0, 7.0, 7.0) == 0.5


def test_shade_ranking_invariant_under_common_scale():
    hours = [12.0, 30.0, 18.5, 30.0, 44.0]
    base = [shade_for(h, min(hours), max(hours)) for h in hours]
    scaled_hours = [h * 3.7 for h in hours]
    scaled = [shade_for(h, min(scaled_hours), max(scaled_hours))
              for h in scaled_hours]
    assert sorted(range(5), key=lambda i: base[i]) \
        == sorted(range(5), key=lambda i: scaled[i])


# ---------------------------------------------------------------------------
# Choropleth document
# ---------------------------------------------------------------------------

def choropleth_doc(scenario=WIND35):
    partition = reference_partition(scenario.hazard_class)
    store = (reference_wind_store() if scenario.hazard_class == "wind"
             else reference_precipitation_store())
    preds = predict_all(store, partition, scenario)
    return json.loads(emit_choropleth(partition, preds, scenario))


def test_choropleth_zone0_darker_than_zone1():
    doc = choropleth_doc()
    shades = {f["properties"]["zone_id"]: f["properties"]["shade"]
              for f in doc["features"]}
    # shade 0 is darkest; zone 0 restores faster so it must be darker
    assert shades["wind:0"] < shades["wind:1"]
    assert doc["color_scale"]["darker_is_shorter"] is True


def test_choropleth_needs_every_zone_predicted():
    predictions = predict_all(reference_wind_store(), reference_partition("wind"), WIND35)
    with pytest.raises(ValidationError, match="missing for zone"):
        emit_choropleth(reference_partition("wind"), predictions[:1], WIND35)


def test_choropleth_feature_contract():
    doc = choropleth_doc()
    assert doc["type"] == "FeatureCollection"
    for f in doc["features"]:
        assert set(f["properties"]) == {
            "zone_id", "predicted_outages", "predicted_restoration_hours",
            "extrapolated", "shade"}
        ring = f["geometry"]["coordinates"][0]
        assert ring[0] == ring[-1]
    assert doc["scenario"]["intensity"] == 35.0


def test_choropleth_bytes_deterministic():
    partition = reference_partition("wind")
    preds = predict_all(reference_wind_store(), partition, WIND35)
    assert emit_choropleth(partition, preds, WIND35) \
        == emit_choropleth(partition, preds, WIND35)


def test_choropleth_filename_format():
    assert choropleth_filename(WIND35) == "choropleth_wind_35.geojson"
    assert choropleth_filename(PRECIP25) \
        == "choropleth_precipitation_2.5.geojson"
    assert choropleth_filename(ScenarioSpec(hazard_class="wind", intensity=-0.0)) \
        == "choropleth_wind_0.geojson"


def test_labelled_file_names_carry_the_label_slug():
    storm = ScenarioSpec(hazard_class="wind", intensity=35.0,
                         label="  Ice Storm #2 (Feb) ")
    assert storm.slug == "ice-storm-2-feb"
    assert choropleth_filename(storm) \
        == "choropleth_wind_35_ice-storm-2-feb.geojson"
    assert predictions_filename(storm) == "predictions_wind_35_ice-storm-2-feb.csv"
    with pytest.raises(ValidationError, match="label"):
        ScenarioSpec(hazard_class="wind", intensity=35.0, label=" #! ")


# ---------------------------------------------------------------------------
# SVG scatter plots
# ---------------------------------------------------------------------------

def test_scatter_markers_inside_plot_area():
    samples = [(2.0, 5.0), (10.0, 80.0), (30.0, 900.0), (38.0, 2500.0)]
    model = ExponentialModel(a=1.0, b=0.21)
    svg = emit_scatter(samples, model, "wind speed (m/s)", "outages")
    assert "<svg" in svg
    # every sample circle must sit inside the 800x600 canvas
    for part in svg.split("<circle ")[1:]:
        cx = float(part.split('cx="')[1].split('"')[0])
        cy = float(part.split('cy="')[1].split('"')[0])
        assert 0.0 <= cx <= 800.0
        assert 0.0 <= cy <= 600.0


def test_scatter_constant_model_draws_horizontal_curve():
    samples = [(1.0, 7.0), (5.0, 7.0), (9.0, 7.0)]
    model = SaturatingRestorationModel(c=7.0, a1=0.0, b1=0.001, a2=0.0, b2=1.0)
    svg = emit_scatter(samples, model, "outages", "hours")
    poly = svg.split('<polyline points="')[1].split('"')[0]
    ys = {pt.split(",")[1] for pt in poly.split()}
    assert len(ys) == 1  # flat line: single y coordinate repeated


def test_scatter_empty_samples_warns_and_still_renders():
    model = ExponentialModel(a=2.0, b=0.1)
    svg = emit_scatter([], model, "x", "y")
    assert "<polyline" in svg
    assert "no samples" in svg


def test_scatter_with_every_x_at_zero_spans_the_unit_axis():
    """As with no samples: the curve is drawn over [0, 1]."""
    model = ExponentialModel(a=2.0, b=0.1)

    def curve(samples):
        svg = emit_scatter(samples, model, "x", "y")
        return svg.split('<polyline points="')[1].split('"')[0]

    assert curve([(0.0, 1.0), (0.0, 2.0)]) == curve([])


def test_scatter_is_deterministic():
    samples = [(1.0, 3.0), (4.0, 9.0), (6.0, 20.0)]
    model = ExponentialModel(a=2.0, b=0.35)
    assert emit_scatter(samples, model, "x", "y") \
        == emit_scatter(samples, model, "x", "y")
