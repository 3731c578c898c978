"""Pipeline configuration: one JSON file, strict schema.

Every knob has a default, so a missing config file means "defaults
everywhere". Unknown keys are rejected rather than ignored; a typo that
silently falls back to a default is the worst kind of configuration bug.
Environment variables deliberately override nothing.

It also states, once, the vocabulary the stage modules share with it: the
hazard classes, the defaults, and the scenario spec and its file name. So
loading a config loads no stage module.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import MissingInputError, ValidationError, decoded, is_finite_number, json_object

# The hazard classes, which are the station capabilities; zones, samples
# and models are kept per class.
HAZARD_WIND = "wind"
HAZARD_PRECIPITATION = "precipitation"
HAZARD_CLASSES = (HAZARD_WIND, HAZARD_PRECIPITATION)

DEFAULT_MAX_OUTAGE_DAYS = 30.0
DEFAULT_MAX_CUSTOMERS = 10_000_000

HAZARD_EXCLUDED = "excluded"

DEFAULT_HAZARD_MAPPING: dict[str, str] = {
    "tornado": HAZARD_WIND,
    "high wind": HAZARD_WIND,
    "flood": HAZARD_PRECIPITATION,
    "heavy snow": HAZARD_PRECIPITATION,
    "snowstorm": HAZARD_PRECIPITATION,
}

PRECIP_MODE_CUMULATIVE = "cumulative"
PRECIP_MODE_PEAK = "peak"


def canonical_hazard(token: str) -> str:
    """Resolve CLI/config hazard tokens; "precip" is accepted shorthand."""
    token = token.strip().lower()
    if token == HAZARD_WIND:
        return HAZARD_WIND
    if token in (HAZARD_PRECIPITATION, "precip"):
        return HAZARD_PRECIPITATION
    raise ValidationError(f"unknown hazard class {token!r}; "
                          f"expected wind or precip")


@dataclass(frozen=True)
class ScenarioSpec:
    hazard_class: str
    intensity: float
    label: str = ""

    def __post_init__(self):
        if not 0.0 <= self.intensity < math.inf:
            raise ValidationError(f"scenario intensity must be finite and "
                                  f"nonnegative, got {self.intensity}")
        # -0.0 passes the check; as 0.0 it names the same outputs as 0
        object.__setattr__(self, "intensity", abs(self.intensity))
        if self.label and not self.slug:
            raise ValidationError(f"scenario label {self.label!r} needs a "
                                  f"letter or digit")

    @property
    def slug(self) -> str:
        """The label lowercased, each run of characters outside [a-z0-9]
        replaced by "-", then trimmed of "-"."""
        return re.sub(r"[^a-z0-9]+", "-", self.label.lower()).strip("-")

    @property
    def stem(self) -> str:
        """<class>_<intensity:g>, plus _<slug> when labelled: names the
        scenario's stage key and output files."""
        stem = f"{self.hazard_class}_{self.intensity:g}"
        return f"{stem}_{self.slug}" if self.label else stem


def predictions_filename(scenario: ScenarioSpec) -> str:
    return f"predictions_{scenario.stem}.csv"


@dataclass
class Config:
    max_outage_days: float = DEFAULT_MAX_OUTAGE_DAYS
    max_customers: int = DEFAULT_MAX_CUSTOMERS
    hazard_mapping: dict[str, str] = field(
        default_factory=lambda: dict(DEFAULT_HAZARD_MAPPING))
    precip_intensity_mode: str = PRECIP_MODE_CUMULATIVE
    boundary_path: str = "inputs/boundary.geojson"
    density_cell_size: float = 0.02
    scenarios: list[ScenarioSpec] = field(default_factory=list)


_TOP_KEYS = {f.name for f in fields(Config)}
_SCENARIO_KEYS = {"hazard", "intensity", "label"}


def _number(value, name: str, integral: bool = False) -> float | int:
    """A finite JSON number as float, or as int for a whole-number field;
    bools, strings and fractions for whole-number fields are rejected."""
    if not is_finite_number(value) or integral and not float(value).is_integer():
        kind = "a finite whole number" if integral else "a finite number"
        raise ValidationError(f"{name} must be {kind}, got {value!r}")
    return int(value) if integral else float(value)


def parse_config(text: str, source: str = "config") -> Config:
    """The Config a JSON document sets; errors name `source`."""
    doc = json_object(text, source)

    unknown = sorted(set(doc) - _TOP_KEYS)
    if unknown:
        raise ValidationError(f"unknown config key(s): {', '.join(unknown)}")

    cfg = Config()
    if "max_outage_days" in doc:
        cfg.max_outage_days = _number(doc["max_outage_days"], "max_outage_days")
        if cfg.max_outage_days <= 0.0:
            raise ValidationError("max_outage_days must be positive")
    if "max_customers" in doc:
        cfg.max_customers = _number(doc["max_customers"], "max_customers",
                                    integral=True)
        if cfg.max_customers < 1:
            raise ValidationError("max_customers must be at least 1")
    if "hazard_mapping" in doc:
        mapping = doc["hazard_mapping"]
        if not isinstance(mapping, dict):
            raise ValidationError("hazard_mapping must be an object")
        out = {}
        spelled: dict[str, str] = {}  # canonical label -> label as written
        valid = set(HAZARD_CLASSES) | {HAZARD_EXCLUDED}
        for label, hazard in mapping.items():
            if not isinstance(hazard, str) or hazard not in valid:
                raise ValidationError(
                    f"hazard_mapping[{label!r}] must be one of "
                    f"{sorted(valid)}, got {hazard!r}")
            key = label.strip().lower()
            if spelled.setdefault(key, label) != label:
                raise ValidationError(f"hazard_mapping labels {spelled[key]!r} and "
                                      f"{label!r} both read as {key!r}")
            out[key] = hazard
        cfg.hazard_mapping = out
    if "precip_intensity_mode" in doc:
        mode = doc["precip_intensity_mode"]
        if mode not in (PRECIP_MODE_CUMULATIVE, PRECIP_MODE_PEAK):
            raise ValidationError(
                f"precip_intensity_mode must be "
                f"{PRECIP_MODE_CUMULATIVE!r} or {PRECIP_MODE_PEAK!r}")
        cfg.precip_intensity_mode = mode
    if "boundary_path" in doc:
        if doc["boundary_path"] is not None \
                and not isinstance(doc["boundary_path"], str):
            raise ValidationError("boundary_path must be a string")
        if doc["boundary_path"]:  # null and "" mean the default
            cfg.boundary_path = doc["boundary_path"]
    if "density_cell_size" in doc:
        cfg.density_cell_size = _number(doc["density_cell_size"],
                                        "density_cell_size")
        if cfg.density_cell_size <= 0.0:
            raise ValidationError("density_cell_size must be positive")
    if "scenarios" in doc:
        if not isinstance(doc["scenarios"], list):
            raise ValidationError("scenarios must be an array")
        scenarios = []
        writers: dict[str, int] = {}
        for i, entry in enumerate(doc["scenarios"]):
            if not isinstance(entry, dict):
                raise ValidationError(f"scenarios[{i}] must be an object")
            unknown = sorted(set(entry) - _SCENARIO_KEYS)
            if unknown:
                raise ValidationError(
                    f"unknown scenarios[{i}] key(s): {', '.join(unknown)}")
            if "hazard" not in entry or "intensity" not in entry:
                raise ValidationError(
                    f"scenarios[{i}] needs hazard and intensity")
            for key in ("hazard", "label"):
                if not isinstance(entry.get(key, ""), str):
                    raise ValidationError(f"scenarios[{i}].{key} must be a string")
            scenario = ScenarioSpec(
                hazard_class=canonical_hazard(entry["hazard"]),
                intensity=_number(entry["intensity"],
                                  f"scenarios[{i}].intensity"),
                label=entry.get("label", ""),
            )
            # Output names round the intensity and slug the label, so two
            # scenarios can collide.
            name = predictions_filename(scenario)
            if name in writers:
                raise ValidationError(
                    f"scenarios[{writers[name]}] and scenarios[{i}] would both "
                    f"write {name}")
            writers[name] = i
            scenarios.append(scenario)
        cfg.scenarios = scenarios
    return cfg


def load_config(path: str | Path | None) -> Config:
    if path is None:
        return Config()
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"config file not found: {path}")
    if path.is_dir():
        raise ValidationError(f"config file {path} is a directory")
    return parse_config(decoded(path.read_bytes(), str(path)), str(path))
