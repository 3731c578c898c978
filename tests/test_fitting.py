"""Nonlinear least squares: solver core, both model forms, model store."""

import json
import math

import numpy as np
import pytest

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
    levenberg_marquardt,
    restoration_system,
)


def exp_samples(a, b, xs):
    return [(float(x), a * math.exp(b * x)) for x in xs]


def rest_samples(c, a1, b1, a2, b2, xs):
    return [(float(x), c - a1 * math.exp(-b1 * x) - a2 * math.exp(-b2 * x))
            for x in xs]


# ---------------------------------------------------------------------------
# Solver core
# ---------------------------------------------------------------------------

def test_zero_residual_init_is_fixed_point():
    x = np.arange(5.0)
    y = 2.0 * np.exp(0.3 * x)
    residuals, jacobian = exponential_system(x, y)
    p0 = np.array([2.0, 0.3])
    p, diag = levenberg_marquardt(
        residuals, jacobian, p0,
        (np.array([-np.inf, -np.inf]), np.array([np.inf, np.inf])))
    assert np.allclose(p, p0)
    assert diag.iterations == 0
    assert diag.converged
    assert diag.stop_reason == "gradient"


def test_linear_problem_matches_normal_equations():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(40, 3))
    y = rng.normal(size=40)

    def residuals(p):
        return A @ p - y

    def jacobian(_p):
        return A

    p, diag = levenberg_marquardt(
        residuals, jacobian, np.zeros(3),
        (np.full(3, -np.inf), np.full(3, np.inf)))
    expected = np.linalg.solve(A.T @ A, A.T @ y)
    assert np.max(np.abs(p - expected)) < 1e-10
    assert diag.converged


def test_noiseless_exponential_recovery():
    x = np.arange(11.0)
    y = 3.0 * np.exp(0.2 * x)
    residuals, jacobian = exponential_system(x, y)
    p, _ = levenberg_marquardt(
        residuals, jacobian, np.array([1.0, 0.05]),
        (np.array([1e-12, -np.inf]), np.array([np.inf, np.inf])))
    assert abs(p[0] - 3.0) / 3.0 < 1e-6
    assert abs(p[1] - 0.2) / 0.2 < 1e-6


def test_accepted_sse_sequence_nonincreasing():
    x = np.linspace(0.0, 10.0, 30)
    rng = np.random.default_rng(9)
    y = 2.0 * np.exp(0.25 * x) * (1.0 + 0.05 * rng.normal(size=30))
    residuals, jacobian = exponential_system(x, y)
    history = []

    def tracking_residuals(p):
        r = residuals(p)
        history.append((p.copy(), float(r @ r)))
        return r

    levenberg_marquardt(
        tracking_residuals, jacobian, np.array([1.0, 0.1]),
        (np.array([1e-12, -np.inf]), np.array([np.inf, np.inf])))
    # reconstruct the accepted subsequence: SSE evaluations that set a new low
    best = math.inf
    accepted = []
    for _, sse in history:
        if sse <= best:
            accepted.append(sse)
            best = sse
    assert accepted == sorted(accepted, reverse=True)
    assert len(accepted) >= 2


def test_bounds_are_respected():
    x = np.arange(8.0)
    y = 5.0 * np.exp(-0.5 * x)  # decaying data, but b is constrained >= 0
    residuals, jacobian = exponential_system(x, y)
    p, _ = levenberg_marquardt(
        residuals, jacobian, np.array([1.0, 0.2]),
        (np.array([1e-12, 0.0]), np.array([np.inf, np.inf])))
    assert p[1] >= 0.0


def test_nonfinite_init_is_fatal():
    x = np.array([0.0, 1.0, 2.0])
    y = np.array([1.0, 2.0, 3.0])
    residuals, jacobian = exponential_system(x, y)
    with pytest.raises(FitError):
        levenberg_marquardt(
            residuals, jacobian, np.array([1.0, 1e6]),
            (np.array([1e-12, -np.inf]), np.array([np.inf, np.inf])))


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


def test_scale_covariance():
    xs = list(range(10))
    base, _ = fit_exponential(exp_samples(2.0, 0.3, xs))
    scaled, _ = fit_exponential([(x, 7.5 * y) for x, y in exp_samples(2.0, 0.3, xs)])
    assert abs(scaled.a - 7.5 * base.a) / (7.5 * base.a) < 1e-8
    assert abs(scaled.b - base.b) < 1e-8


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

