"""Shared fixtures: CSV builders, a small station layout, one tiny synthetic
workspace that CLI-level tests reuse instead of regenerating."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

from gridres.cli import main
from gridres.synth import SynthSpec, generate

# Tier-1 draws the same examples on every run and replays none stored by an
# earlier one, so a commit has one verdict. `pytest --hypothesis-profile=search`
# draws new examples each run, and prints a reproduction blob for a failure.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("search", print_blob=True)
settings.load_profile("tier1")

OUTAGES_HEADER = ("outage_id,component_id,latitude,longitude,start,end,"
                  "restore_minutes,customers,cause_code")
WEATHER_HEADER = ("station_id,timestamp,wind_avg_ms,wind_fastest_2min_ms,"
                  "precip_in,snowfall_in,snow_depth_in")
STATIONS_HEADER = "station_id,latitude,longitude,capabilities"
SEVERE_HEADER = "event_id,event_type,start,end,latitude,longitude,description"


def csv_bytes(header: str, rows: list[str]) -> bytes:
    return ("\n".join([header] + rows) + "\n").encode()


def outage_row(oid: str, start: str, end: str, restore: str = "",
               lat: float = 39.7, lon: float = -86.1,
               customers: int = 10, cause: str = "weather") -> str:
    return f"{oid},C001,{lat},{lon},{start},{end},{restore},{customers},{cause}"


TINY_SPEC = SynthSpec(seed=4242, years=1, events_per_zone=8,
                      mean_outages_per_event=60.0)


@pytest.fixture(scope="session")
def tiny_bundle() -> dict[str, bytes]:
    return generate(TINY_SPEC)


@pytest.fixture(scope="session")
def tiny_ws(tiny_bundle, tmp_path_factory) -> Path:
    """A workspace with the tiny bundle run through every pipeline stage."""
    root = tmp_path_factory.mktemp("tiny_ws")
    (root / "inputs").mkdir()
    for name, data in tiny_bundle.items():
        target = root / name if name == "truth.json" else root / "inputs" / name
        target.write_bytes(data)
    for cmd in (["ingest"], ["zones"], ["extract-events"], ["link"], ["fit"],
                ["predict", "--hazard", "wind", "--intensity", "20"],
                ["render"], ["truth-comparison"]):
        rc = main(cmd + ["--workspace", str(root)])
        assert rc == 0, f"stage {cmd[0]} failed during fixture setup"
    return root
