"""Config file schema: strict keys, validated values."""

import json

import pytest

from gridres.config import Config, canonical_hazard, load_config, parse_config
from gridres.errors import MissingInputError, ValidationError


def test_defaults_without_file():
    cfg = load_config(None)
    assert cfg.max_outage_days == 30.0
    assert cfg.precip_intensity_mode == "cumulative"
    assert cfg.scenarios == []
    assert cfg.hazard_mapping["tornado"] == "wind"


def test_missing_file_is_exit2_error(tmp_path):
    with pytest.raises(MissingInputError):
        load_config(tmp_path / "nope.json")


def test_unknown_top_level_key_rejected():
    with pytest.raises(ValidationError, match="max_outage_dayz"):
        parse_config(json.dumps({"max_outage_dayz": 10}))


def test_unknown_solver_key_rejected():
    with pytest.raises(ValidationError, match="solver"):
        parse_config(json.dumps({"solver": {"max_iters": 10}}))


def test_hazard_mapping_values_validated():
    cfg = parse_config(json.dumps({"hazard_mapping": {"Hail": "wind",
                                                      "fog": "excluded"}}))
    assert cfg.hazard_mapping == {"hail": "wind", "fog": "excluded"}
    with pytest.raises(ValidationError):
        parse_config(json.dumps({"hazard_mapping": {"hail": "storm"}}))


def test_hazard_mapping_labels_colliding_after_normalising_rejected():
    with pytest.raises(ValidationError, match="'Hail' and 'hail '"):
        parse_config(json.dumps({"hazard_mapping": {"Hail": "wind",
                                                    "hail ": "excluded"}}))


def test_scenarios_parse_and_validate():
    cfg = parse_config(json.dumps({"scenarios": [
        {"hazard": "wind", "intensity": 35.0},
        {"hazard": "precip", "intensity": 2.5, "label": "design storm"},
    ]}))
    assert cfg.scenarios[0].hazard_class == "wind"
    assert cfg.scenarios[1].hazard_class == "precipitation"
    assert cfg.scenarios[1].label == "design storm"
    with pytest.raises(ValidationError):
        parse_config(json.dumps({"scenarios": [{"hazard": "wind"}]}))
    with pytest.raises(ValidationError):
        parse_config(json.dumps({"scenarios": [{"hazard": "wind",
                                                "intensity": 1.0,
                                                "bonus": True}]}))
    # label and hazard are JSON strings, never coerced to one
    for key, value in [("label", None), ("label", 5), ("label", True),
                       ("label", ["x"]), ("hazard", None), ("hazard", 5),
                       ("hazard", ["wind"])]:
        entry = {"hazard": "wind", "intensity": 20, key: value}
        with pytest.raises(ValidationError, match=rf"scenarios\[1\]\.{key}"):
            parse_config(json.dumps({"scenarios": [
                {"hazard": "wind", "intensity": 35}, entry]}))


@pytest.mark.parametrize("second", [
    {"hazard": "wind", "intensity": 35.000001},
    {"hazard": "wind", "intensity": 35, "label": ""},
])
def test_scenarios_writing_one_output_rejected(second):
    with pytest.raises(ValidationError, match="predictions_wind_35.csv"):
        parse_config(json.dumps({"scenarios": [
            {"hazard": "wind", "intensity": 35.0}, second]}))


def test_labelled_scenarios_write_files_named_by_label_slug():
    cfg = parse_config(json.dumps({"scenarios": [
        {"hazard": "wind", "intensity": 35},
        {"hazard": "wind", "intensity": 35, "label": "Design Storm"}]}))
    assert [s.stem for s in cfg.scenarios] == ["wind_35", "wind_35_design-storm"]
    with pytest.raises(ValidationError,
                       match="predictions_wind_35_design-storm.csv"):
        parse_config(json.dumps({"scenarios": [
            {"hazard": "wind", "intensity": 35, "label": "Design Storm"},
            {"hazard": "wind", "intensity": 35, "label": "design storm!"}]}))


def test_value_range_validation():
    with pytest.raises(ValidationError):
        parse_config(json.dumps({"max_outage_days": 0}))
    with pytest.raises(ValidationError):
        parse_config(json.dumps({"density_cell_size": -0.5}))
    with pytest.raises(ValidationError):
        parse_config(json.dumps({"precip_intensity_mode": "median"}))
    for doc, needle in [({"max_customers": 0}, "max_customers"),
                        ({"hazard_mapping": ["hail", "wind"]}, "hazard_mapping"),
                        ({"boundary_path": 5}, "boundary_path"),
                        ({"scenarios": {"hazard": "wind"}}, "scenarios"),
                        ({"scenarios": [5]}, r"scenarios\[0\]")]:
        with pytest.raises(ValidationError, match=needle):
            parse_config(json.dumps(doc))
    with pytest.raises(ValidationError):
        parse_config("[1, 2]")
    with pytest.raises(ValidationError):
        parse_config("not json at all")


def test_canonical_hazard_tokens():
    assert canonical_hazard("wind") == "wind"
    assert canonical_hazard("precip") == "precipitation"
    assert canonical_hazard("Precipitation") == "precipitation"
    with pytest.raises(ValidationError):
        canonical_hazard("snow")


def test_config_defaults_are_isolated():
    a, b = Config(), Config()
    a.hazard_mapping["hail"] = "wind"
    assert "hail" not in b.hazard_mapping
