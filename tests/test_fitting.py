"""Curve fits: both model forms, an oracle grid, metamorphic relations and
robustness; evaluation; the model store."""

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import fragility_grid_sse, restoration_grid_sse

from gridres.errors import EvaluationError, FitError, ValidationError
from gridres.fitting import (
    ExponentialModel,
    ModelRecord,
    ModelStore,
    SaturatingRestorationModel,
    evaluate,
    exponential_system,
    fit_exponential,
    fit_restoration,
    restoration_system,
)


def exp_samples(a, b, xs):
    return [(float(x), a * math.exp(b * x)) for x in xs]


def rest_samples(c, a1, b1, a2, b2, xs):
    return [(float(x), c - a1 * math.exp(-b1 * x) - a2 * math.exp(-b2 * x))
            for x in xs]


# ---------------------------------------------------------------------------
# Jacobians vs central finite differences
# ---------------------------------------------------------------------------

def central_fd(residuals, p):
    J = np.empty((len(residuals(p)), len(p)))
    for j in range(len(p)):
        h = 1e-6 * max(1.0, abs(p[j]))
        lo, hi = p.copy(), p.copy()
        lo[j] -= h
        hi[j] += h
        J[:, j] = (residuals(hi) - residuals(lo)) / (2.0 * h)
    return J


def test_exponential_jacobian_matches_fd():
    rng = np.random.default_rng(31)
    x = np.linspace(0.0, 10.0, 15)
    y = np.zeros_like(x)
    residuals, jacobian = exponential_system(x, y)
    for _ in range(100):
        p = np.array([rng.uniform(0.1, 10.0), rng.uniform(-0.5, 0.5)])
        J = jacobian(p)
        F = central_fd(residuals, p)
        scale = np.maximum(np.abs(F), 1.0)
        assert np.max(np.abs(J - F) / scale) < 1e-5


def test_restoration_jacobian_matches_fd():
    rng = np.random.default_rng(37)
    x = np.linspace(1.0, 300.0, 20)
    y = np.zeros_like(x)
    residuals, jacobian = restoration_system(x, y)
    for _ in range(100):
        p = np.array([
            rng.uniform(50.0, 300.0), rng.uniform(10.0, 200.0),
            rng.uniform(1e-3, 0.05), rng.uniform(1.0, 80.0),
            rng.uniform(0.01, 0.2),
        ])
        J = jacobian(p)
        F = central_fd(residuals, p)
        scale = np.maximum(np.abs(F), 1.0)
        assert np.max(np.abs(J - F) / scale) < 1e-5


# ---------------------------------------------------------------------------
# Exponential fits
# ---------------------------------------------------------------------------

def test_constant_data_gives_flat_exponential():
    model, diag = fit_exponential([(float(x), 5.0) for x in range(6)])
    assert abs(model.a - 5.0) < 1e-9
    assert abs(model.b) < 1e-9
    assert diag.converged


def test_recovers_published_wind_zone_coefficients():
    model, diag = fit_exponential(exp_samples(2.9214, 0.1058, range(0, 40, 2)))
    assert abs(model.a - 2.9214) / 2.9214 < 1e-6
    assert abs(model.b - 0.1058) / 0.1058 < 1e-6
    assert diag.r_squared > 0.999999


def test_noisy_recovery_within_ten_percent():
    rng = np.random.default_rng(412)
    xs = rng.uniform(0.0, 30.0, 200)
    samples = [(float(x), 2.0 * math.exp(0.15 * x)
                * (1.0 + 0.05 * float(rng.normal()))) for x in xs]
    model, _ = fit_exponential(samples)
    assert abs(model.a - 2.0) / 2.0 < 0.10
    assert abs(model.b - 0.15) / 0.15 < 0.10


def test_zero_counts_participate_in_fit():
    # zeros cannot enter the log-linear init but must shape the refinement
    samples = exp_samples(0.5, 0.3, range(4, 14)) + [(0.0, 0.0), (1.0, 0.0)]
    model, _ = fit_exponential(samples)
    assert abs(model.b - 0.3) / 0.3 < 0.2


def test_exponential_fit_failure_modes():
    with pytest.raises(FitError):
        fit_exponential([(1.0, 2.0), (2.0, 3.0)])           # too few
    with pytest.raises(FitError):
        fit_exponential([(1.0, 2.0)] * 5)                   # no x spread
    with pytest.raises(FitError):
        fit_exponential([(float(i), 0.0) for i in range(5)])  # all zero
    with pytest.raises(FitError):
        fit_exponential([(0.0, 4.0), (1.0, 0.0), (2.0, 0.0)])  # 1 positive


def test_fit_idempotence():
    model, _ = fit_exponential(exp_samples(1.7, 0.22, range(12)))
    again, _ = fit_exponential(exp_samples(model.a, model.b, range(12)))
    assert abs(again.a - model.a) < 1e-9 * max(1.0, model.a)
    assert abs(again.b - model.b) < 1e-9


# ---------------------------------------------------------------------------
# Restoration fits
# ---------------------------------------------------------------------------

TRUE_REST = (200.0, 150.0, 0.01, 50.0, 0.05)


def test_noiseless_restoration_recovery():
    samples = rest_samples(*TRUE_REST, range(1, 301))
    model, diag = fit_restoration(samples)
    got = (model.c, model.a1, model.b1, model.a2, model.b2)
    for g, t in zip(got, TRUE_REST):
        assert abs(g - t) / t < 1e-3
    assert diag.converged


def test_restoration_canonical_order():
    samples = rest_samples(*TRUE_REST, range(1, 301))
    model, _ = fit_restoration(samples)
    assert model.b1 <= model.b2


def test_published_restoration_value_at_100():
    model = SaturatingRestorationModel(c=232.60, a1=217.17, b1=0.001,
                                       a2=15.22, b2=0.041)
    expected = 232.60 - 217.17 * math.exp(-0.1) - 15.22 * math.exp(-4.1)
    assert evaluate(model, 100.0) == pytest.approx(expected)
    assert evaluate(model, 100.0) == pytest.approx(35.84422180551586)


def test_constant_restoration_data_saturates():
    samples = [(float(x), 42.0) for x in (1, 5, 20, 60, 120, 240)]
    model, _ = fit_restoration(samples)
    for x, _y in samples:
        assert abs(evaluate(model, x) - 42.0) < 1e-6


def test_restoration_monotone_on_grid():
    samples = rest_samples(*TRUE_REST, range(1, 301))
    model, _ = fit_restoration(samples)
    grid = np.linspace(1.0, 300.0, 1000)
    values = [evaluate(model, float(x)) for x in grid]
    assert all(v2 >= v1 - 1e-9 for v1, v2 in zip(values, values[1:]))


def test_restoration_needs_six_samples():
    with pytest.raises(FitError):
        fit_restoration(rest_samples(*TRUE_REST, range(1, 6)))


# ---------------------------------------------------------------------------
# Oracle grid, metamorphic relations, robustness
# ---------------------------------------------------------------------------

# The SSE of each tiny-bundle zone fit by the Levenberg-Marquardt solver with
# restarts that variable projection replaced.
PREVIOUS_SSE = {
    "wind:0": {"fragility": 241.31661266325477, "restoration": 167.53617022844568},
    "wind:1": {"fragility": 126.7185967099305, "restoration": 131.6587610015637},
    "precipitation:0": {"fragility": 225.68229253299077,
                        "restoration": 84.85402137595415},
    "precipitation:1": {"fragility": 248.90612395791126,
                        "restoration": 23.25472782782787},
    "precipitation:2": {"fragility": 28.071443258730763,
                        "restoration": 37.37069664100655},
    "precipitation:3": {"fragility": 965.3823110365955,
                        "restoration": 48.988735677325586},
}

# Per model kind: its sample file stem, x and y columns, the model's
# prediction from its stored params, and the oracle.
_KINDS = {
    "fragility": ("fragility", "intensity", "outage_count",
                  lambda p, x: p["a"] * np.exp(p["b"] * x), fragility_grid_sse),
    "restoration": ("events", "n_outages", "total_restoration_hours",
                    lambda p, x: p["c"] - p["a1"] * np.exp(-p["b1"] * x)
                    - p["a2"] * np.exp(-p["b2"] * x), restoration_grid_sse),
}


def _zone_samples(path, x_column, y_column):
    zones = {}
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            zones.setdefault(row["zone_id"], []).append(
                (float(row[x_column]), float(row[y_column])))
    return {zone_id: np.array(pairs).T for zone_id, pairs in zones.items()}


def test_tiny_bundle_fits_reach_the_oracle_grid_and_the_previous_solver(tiny_ws):
    seen = 0
    for hazard_class in ("wind", "precipitation"):
        zones = json.loads((tiny_ws / f"models_{hazard_class}.json").read_text())["zones"]
        for kind, (stem, x_column, y_column, predict, oracle) in _KINDS.items():
            samples = _zone_samples(tiny_ws / f"{stem}_{hazard_class}.csv",
                                    x_column, y_column)
            for zone_id, (x, y) in samples.items():
                r = predict(zones[zone_id][kind]["params"], x) - y
                bound = min(oracle(x, y), PREVIOUS_SSE[zone_id][kind])
                assert float(r @ r) <= bound * (1.0 + 1e-9), (zone_id, kind)
                seen += 1
    assert seen == 2 * len(PREVIOUS_SSE)


def _noisy(samples, sigma, seed):
    rng = np.random.default_rng(seed)
    return [(x, y * (1.0 + sigma * float(rng.normal()))) for x, y in samples]


NOISY_FRAGILITY = _noisy(exp_samples(2.0, 0.15, np.linspace(0.0, 30.0, 60)), 0.05, 412)
NOISY_RESTORATION = _noisy(rest_samples(*TRUE_REST, range(1, 301)), 0.02, 5)

# The amplitudes and the rates of each model form.
_AMPLITUDES = {ExponentialModel: ("a",), SaturatingRestorationModel: ("c", "a1", "a2")}
_RATES = {ExponentialModel: ("b",), SaturatingRestorationModel: ("b1", "b2")}


def test_scale_covariance():
    """Scaling y by k scales the amplitudes by k and leaves the rates. On
    noisy samples the search stops where SSE differences reach its rounding,
    which leaves parameters resolved to about 1e-8, so those inputs are
    held to 1e-6."""
    k = 7.5
    for fit, samples, rel in [
            (fit_exponential, exp_samples(2.0, 0.3, range(10)), 1e-8),
            (fit_exponential, NOISY_FRAGILITY, 1e-6),
            (fit_exponential,
             exp_samples(0.5, 0.3, range(4, 14)) + [(0.0, 0.0), (1.0, 0.0)], 1e-6),
            (fit_restoration, NOISY_RESTORATION, 1e-6)]:
        base, _ = fit(samples)
        scaled, _ = fit([(x, k * y) for x, y in samples])
        for name in _AMPLITUDES[type(base)]:
            assert getattr(scaled, name) == pytest.approx(k * getattr(base, name), rel=rel)
        for name in _RATES[type(base)]:
            assert getattr(scaled, name) == pytest.approx(getattr(base, name), rel=rel)


def test_shift_covariance():
    """Shifting fragility x by d multiplies a by exp(-b d) and leaves b, to
    the resolution of noisy samples (see test_scale_covariance)."""
    base, _ = fit_exponential(NOISY_FRAGILITY)
    for d in (5.0, 12.5):
        shifted, _ = fit_exponential([(x + d, y) for x, y in NOISY_FRAGILITY])
        assert shifted.b == pytest.approx(base.b, rel=1e-6)
        assert shifted.a == pytest.approx(base.a * math.exp(-base.b * d), rel=1e-6)


_EXTREME_X = st.one_of(st.sampled_from([0.0, 1.0, 1e6]), st.floats(0.0, 1e6))
_EXTREME_Y = st.one_of(st.sampled_from([0.0, 1e12]), st.floats(0.0, 1e12))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_EXTREME_X, _EXTREME_Y), min_size=3, max_size=30))
def test_extreme_samples_fit_finitely_or_raise_fit_error(samples):
    """Zeros, repeated x and values up to 1e6 (x) and 1e12 (y) give finite
    parameters, with (c, a1, a2) >= 0 and b1 <= b2, or a FitError, which the
    fit stage reports as a skipped zone."""
    for fit in (fit_exponential, fit_restoration):
        try:
            model, diag = fit(samples)
        except FitError:
            continue
        names = _AMPLITUDES[type(model)] + _RATES[type(model)]
        assert all(math.isfinite(getattr(model, name)) for name in names)
        assert math.isfinite(diag.sse)
        if fit is fit_restoration:
            assert min(model.c, model.a1, model.a2) >= 0.0
            assert model.b1 <= model.b2


def test_a_restoration_fit_loads_only_the_standard_library_and_numpy():
    """numpy is the one dependency: a module the fit loads from anywhere
    else (scipy, say) would be missing where only the package is installed."""
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "from gridres.fitting import fit_restoration\n"
            "fit_restoration([(float(x), 9.0 - 5.0 * 0.9 ** x) for x in range(1, 40)])\n"
            "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))\n")
    src = os.path.dirname(os.path.dirname(sys.modules["gridres.fitting"].__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert {"gridres", "numpy"} <= loaded
    assert loaded - set(sys.stdlib_module_names) - {"gridres", "numpy"} == set()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_evaluate_rejects_negative_intensity():
    model = ExponentialModel(a=1.0, b=0.1)
    with pytest.raises(ValidationError):
        evaluate(model, -1.0)


def test_evaluate_overflow_names_input():
    model = ExponentialModel(a=1.0, b=10.0)
    with pytest.raises(EvaluationError, match="1000"):
        evaluate(model, 1000.0)


def test_restoration_overflow_is_an_evaluation_error():
    model = SaturatingRestorationModel(c=1.0, a1=1.0, b1=-10.0, a2=0.0, b2=1.0)
    with pytest.raises(EvaluationError, match="1000"):
        evaluate(model, 1000.0)


def test_restoration_evaluation_clamped_nonnegative():
    model = SaturatingRestorationModel(c=1.0, a1=5.0, b1=0.001, a2=0.0, b2=1.0)
    assert evaluate(model, 0.0) == 0.0


# ---------------------------------------------------------------------------
# Model store
# ---------------------------------------------------------------------------

def store_with_one_zone():
    frag, fd = fit_exponential(exp_samples(2.9214, 0.1058, range(0, 40, 2)),
                               zone_id="wind:0", hazard_class="wind")
    rest, rd = fit_restoration(rest_samples(*TRUE_REST, range(1, 200, 2)),
                               zone_id="wind:0")
    return ModelStore(hazard_class="wind", zones={"wind:0": {
        "fragility": ModelRecord.of(frag, fd, (0.0, 38.0)),
        "restoration": ModelRecord.of(rest, rd, (1.0, 199.0)),
    }})


def test_store_round_trips_through_json():
    store = store_with_one_zone()
    text = store.to_json()
    again = ModelStore.from_json(text)
    assert again.to_json() == text
    rec = again.zones["wind:0"]["fragility"]
    assert rec.form == "exp"
    assert rec.params["a"] == pytest.approx(2.9214, rel=1e-6)
    assert rec.fit_domain == (0.0, 38.0)


def test_store_json_is_deterministic_and_parseable():
    store = store_with_one_zone()
    doc = json.loads(store.to_json())
    assert doc["hazard_class"] == "wind"
    assert set(doc["zones"]["wind:0"]) == {"fragility", "restoration"}
    assert store.to_json() == store.to_json()


def test_store_from_json_rejects_bad_documents():
    with pytest.raises(ValidationError):
        ModelStore.from_json("{not json")
    with pytest.raises(ValidationError):
        ModelStore.from_json(json.dumps({"hazard_class": "wind"}))
    bad = {"hazard_class": "wind", "zones": {
        "wind:0": {"fragility": {"form": "mystery", "params": {},
                                 "diagnostics": {}, "fit_domain": [0, 1]}}}}
    with pytest.raises(ValidationError):
        ModelStore.from_json(json.dumps(bad))

