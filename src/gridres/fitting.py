"""Curve fitting for zone fragility and restoration-time models.

Two model families:

  fragility     y(x) = a * exp(b * x)             x = weather intensity
  restoration   y(x) = c - a1 * exp(-b1 * x)
                       - a2 * exp(-b2 * x)        x = outages in the event

Both are fitted by damped Gauss-Newton (Levenberg-Marquardt) least squares
on the raw observations, with documented closed-form initializers. Raw
counts rather than log counts keep zero-outage samples usable and give the
big events the weight they deserve; the log-linear pass is initialization
only.

Bound constraints are enforced by projecting the iterate after each step,
which keeps the solver readable at the price of theoretical elegance.
The damping factor is multiplicative: divided by 10 after an accepted step,
multiplied by 10 after a rejected one.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable

from . import np
from .errors import (EvaluationError, FitError, ValidationError, is_finite_number,
                     json_object, json_text)

log = logging.getLogger(__name__)

FORM_EXPONENTIAL = "exp"
FORM_RESTORATION = "sat2exp"

# strictly-positive lower bounds use a tiny floor instead of an open interval
POSITIVE_FLOOR = 1e-12
RATE_FLOOR = 1e-9

# Levenberg-Marquardt stopping rules and starting damping
MAX_ITERATIONS = 200
GRADIENT_TOL = 1e-10
STEP_TOL = 1e-12
INITIAL_DAMPING = 1e-3


@dataclass(frozen=True)
class FitDiagnostics:
    n_samples: int
    sse: float
    r_squared: float
    iterations: int       # accepted steps
    converged: bool
    initializer: str
    gradient_norm: float
    stop_reason: str


@dataclass(frozen=True)
class ExponentialModel:
    a: float
    b: float
    zone_id: str = ""
    hazard_class: str = ""


@dataclass(frozen=True)
class SaturatingRestorationModel:
    c: float
    a1: float
    b1: float
    a2: float
    b2: float
    zone_id: str = ""


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

def levenberg_marquardt(
    residuals: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    init: np.ndarray,
    bounds: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, FitDiagnostics]:
    """Minimize ||residuals(p)||^2 from init, projecting onto [lo, hi].

    Convergence is declared when the gradient satisfies
    ||J^T r||_inf <= GRADIENT_TOL * max(1, sse), or when an accepted step
    moves the iterate by less than STEP_TOL * (1 + ||p||). A step is
    accepted only if it does not increase the objective, so the accepted
    SSE sequence is nonincreasing.
    """
    lo, hi = (np.asarray(b, dtype=float) for b in bounds)
    p = np.clip(np.asarray(init, dtype=float), lo, hi)

    with np.errstate(over="ignore", invalid="ignore"):
        r = np.asarray(residuals(p), dtype=float)
    if not np.all(np.isfinite(r)):
        raise FitError("residuals are not finite at the initial point")
    sse = float(r @ r)

    lam = INITIAL_DAMPING
    accepted = 0
    converged = False
    reason = "max_iterations"

    while accepted < MAX_ITERATIONS:
        J = np.asarray(jacobian(p), dtype=float)
        g = J.T @ r
        g_norm = float(np.max(np.abs(g))) if g.size else 0.0
        if g_norm <= GRADIENT_TOL * max(1.0, sse):
            converged = True
            reason = "gradient"
            break

        A = J.T @ J
        d = np.diag(A).copy()
        d[d <= 0.0] = 1e-30

        stepped = False
        while lam <= 1e12:
            try:
                step = np.linalg.solve(A + lam * np.diag(d), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_new = np.clip(p + step, lo, hi)
            with np.errstate(over="ignore", invalid="ignore"):
                r_new = np.asarray(residuals(p_new), dtype=float)
            if np.all(np.isfinite(r_new)):
                sse_new = float(r_new @ r_new)
                if sse_new <= sse:
                    moved = float(np.linalg.norm(p_new - p))
                    p, r, sse = p_new, r_new, sse_new
                    lam = max(lam / 10.0, 1e-12)
                    accepted += 1
                    stepped = True
                    if moved <= STEP_TOL * (1.0 + float(np.linalg.norm(p))):
                        converged = True
                        reason = "step"
                    break
            lam *= 10.0
        if not stepped:
            reason = "damping_limit"
            break
        if converged:
            break

    with np.errstate(over="ignore", invalid="ignore"):
        g_final = np.asarray(jacobian(p), dtype=float).T @ r
    diagnostics = FitDiagnostics(
        n_samples=int(r.size),
        sse=sse,
        r_squared=float("nan"),
        iterations=accepted,
        converged=converged,
        initializer="",
        gradient_norm=float(np.max(np.abs(g_final))) if g_final.size else 0.0,
        stop_reason=reason,
    )
    return p, diagnostics


def _restart_factors(n_params: int) -> list[np.ndarray]:
    """8 deterministic +-50% perturbation vectors, fixed order."""
    out = []
    for k in range(1, 9):
        out.append(np.array([0.5 if (k >> j) & 1 else 1.5
                             for j in range(n_params)]))
    return out


def _fit_with_restarts(
    residuals: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    init: np.ndarray,
    bounds: tuple[np.ndarray, np.ndarray],
    initializer_label: str,
) -> tuple[np.ndarray, FitDiagnostics]:
    """Run the solver; on non-convergence retry from perturbed initializers
    and keep the lowest-SSE result (first on ties)."""
    params, diag = levenberg_marquardt(residuals, jacobian, init, bounds)
    label = initializer_label
    if not diag.converged:
        best = (params, diag, label)
        for k, factors in enumerate(_restart_factors(len(init)), start=1):
            try:
                p_k, d_k = levenberg_marquardt(
                    residuals, jacobian, init * factors, bounds)
            except FitError:
                continue
            if d_k.sse < best[1].sse:
                best = (p_k, d_k, f"{initializer_label}+restart{k}")
        params, diag, label = best
    return params, replace(diag, initializer=label)


def exponential_system(x: np.ndarray, y: np.ndarray):
    """Residual and analytic-Jacobian closures for y_hat = a * exp(b*x).

    Parameter vector p = (a, b)."""
    def residuals(p: np.ndarray) -> np.ndarray:
        a, b = p
        return a * np.exp(b * x) - y

    def jacobian(p: np.ndarray) -> np.ndarray:
        a, b = p
        e = np.exp(b * x)
        return np.column_stack([e, a * x * e])

    return residuals, jacobian


def restoration_system(x: np.ndarray, y: np.ndarray):
    """Residual and analytic-Jacobian closures for
    y_hat = c - a1 * exp(-b1*x) - a2 * exp(-b2*x).

    Parameter vector p = (c, a1, b1, a2, b2)."""
    def residuals(p: np.ndarray) -> np.ndarray:
        c, a1, b1, a2, b2 = p
        return c - a1 * np.exp(-b1 * x) - a2 * np.exp(-b2 * x) - y

    def jacobian(p: np.ndarray) -> np.ndarray:
        c, a1, b1, a2, b2 = p
        e1 = np.exp(-b1 * x)
        e2 = np.exp(-b2 * x)
        return np.column_stack([
            np.ones_like(x), -e1, a1 * x * e1, -e2, a2 * x * e2,
        ])

    return residuals, jacobian


def _r_squared(y: np.ndarray, sse: float) -> float:
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst > 0.0:
        return 1.0 - sse / sst
    return 1.0 if sse <= 1e-30 else float("nan")


# ---------------------------------------------------------------------------
# Fragility: y = a * exp(b x)
# ---------------------------------------------------------------------------

def fit_exponential(
    samples: list[tuple[float, float]],
    zone_id: str = "",
    hazard_class: str = "",
) -> tuple[ExponentialModel, FitDiagnostics]:
    """Fit y = a*exp(b*x) to (intensity, outage_count) pairs.

    Initializer: ordinary least squares on (x, ln y) over the y > 0 subset.
    Refinement: bounded least squares on all samples, zeros included.
    """
    where = f" for zone {zone_id}" if zone_id else ""
    if len(samples) < 3:
        raise FitError(f"need at least 3 fragility samples{where}, "
                       f"got {len(samples)}")
    x = np.array([s[0] for s in samples], dtype=float)
    y = np.array([s[1] for s in samples], dtype=float)
    if len(np.unique(x)) < 2:
        raise FitError(f"fragility samples{where} have no intensity spread")
    pos = y > 0.0
    if int(pos.sum()) == 0:
        raise FitError(f"degenerate fragility data{where}: every sample "
                       f"has zero outages")
    if int(pos.sum()) < 2:
        raise FitError(f"fragility samples{where} need at least 2 nonzero "
                       f"outage counts")

    xp, yp = x[pos], y[pos]
    design = np.column_stack([xp, np.ones_like(xp)])
    coef, *_ = np.linalg.lstsq(design, np.log(yp), rcond=None)
    b0, log_a0 = float(coef[0]), float(coef[1])
    init = np.array([math.exp(log_a0), b0])

    residuals, jacobian = exponential_system(x, y)
    bounds = (np.array([POSITIVE_FLOOR, -np.inf]), np.array([np.inf, np.inf]))
    params, diag = _fit_with_restarts(
        residuals, jacobian, init, bounds, "loglinear-ols")
    model = ExponentialModel(a=float(params[0]), b=float(params[1]),
                             zone_id=zone_id, hazard_class=hazard_class)
    return model, replace(diag, r_squared=_r_squared(y, diag.sse))


# ---------------------------------------------------------------------------
# Restoration: y = c - a1 exp(-b1 x) - a2 exp(-b2 x)
# ---------------------------------------------------------------------------

def fit_restoration(
    samples: list[tuple[float, float]],
    zone_id: str = "",
) -> tuple[SaturatingRestorationModel, FitDiagnostics]:
    """Fit the saturating restoration curve to (n_outages, hours) pairs.

    Initializer: c0 = 1.05 * max(y); the gap c0 - min(y) split 90/10 into
    the slow and fast amplitudes; rates 1/max(x) and 10/max(x). Output is
    canonically ordered with b1 <= b2 (slow decay first).
    """
    where = f" for zone {zone_id}" if zone_id else ""
    if len(samples) < 6:
        raise FitError(f"need at least 6 restoration samples{where}, "
                       f"got {len(samples)}")
    x = np.array([s[0] for s in samples], dtype=float)
    y = np.array([s[1] for s in samples], dtype=float)
    if float(x.max()) < 10.0:
        log.warning("restoration samples%s span only x <= %g; saturation "
                    "level is weakly identified", where, float(x.max()))

    c0 = 1.05 * float(y.max())
    gap = c0 - float(y.min())
    init = np.array([c0, 0.9 * gap, 1.0 / float(x.max()),
                     0.1 * gap, 10.0 / float(x.max())])

    residuals, jacobian = restoration_system(x, y)
    bounds = (np.array([0.0, 0.0, RATE_FLOOR, 0.0, RATE_FLOOR]),
              np.full(5, np.inf))
    params, diag = _fit_with_restarts(
        residuals, jacobian, init, bounds, "saturating-heuristic")

    c, a1, b1, a2, b2 = (float(v) for v in params)
    if b1 > b2:
        a1, b1, a2, b2 = a2, b2, a1, b1
    model = SaturatingRestorationModel(c=c, a1=a1, b1=b1, a2=a2, b2=b2,
                                       zone_id=zone_id)
    return model, replace(diag, r_squared=_r_squared(y, diag.sse))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(model: ExponentialModel | SaturatingRestorationModel, x: float) -> float:
    """Closed-form model value at x >= 0.

    Restoration values are clamped at zero: the curve family can dip
    (harmlessly) below zero near the origin when y(0) < 0.
    """
    x = float(x)
    if x < 0.0:
        raise ValidationError(f"model evaluation needs x >= 0, got {x}")
    fragility = isinstance(model, ExponentialModel)
    try:
        value = model.a * math.exp(model.b * x) if fragility else (
            model.c - model.a1 * math.exp(-model.b1 * x)
            - model.a2 * math.exp(-model.b2 * x))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise EvaluationError(f"fragility model overflowed at x = {x}" if fragility
                              else f"restoration model is non-finite at x = {x}")
    return value if fragility else max(value, 0.0)


# ---------------------------------------------------------------------------
# Model store (JSON round trip)
# ---------------------------------------------------------------------------

KIND_FRAGILITY = "fragility"
KIND_RESTORATION = "restoration"


def diagnostics_doc(diag: FitDiagnostics) -> dict:
    """The stored diagnostics; an undefined R² is written as null."""
    r2 = diag.r_squared
    return {**asdict(diag), "r_squared": None if math.isnan(r2) else r2}


# Model class of each stored form; its fields other than the zone and hazard
# tags are the form's params.
_FORMS = {FORM_EXPONENTIAL: ExponentialModel,
          FORM_RESTORATION: SaturatingRestorationModel}
# The form each kind of entry is stored in.
_KIND_FORMS = {KIND_FRAGILITY: FORM_EXPONENTIAL, KIND_RESTORATION: FORM_RESTORATION}


def _param_names(form: str) -> list[str]:
    return [f.name for f in fields(_FORMS[form])
            if f.name not in ("zone_id", "hazard_class")]


@dataclass(frozen=True)
class ModelRecord:
    """One stored fit: functional form, parameters, diagnostics, x-range."""
    form: str
    params: dict[str, float]
    diagnostics: dict
    fit_domain: tuple[float, float]

    @classmethod
    def of(cls, model: ExponentialModel | SaturatingRestorationModel,
           diagnostics: FitDiagnostics, fit_domain: tuple[float, float],
           ) -> "ModelRecord":
        form = next(f for f, kind in _FORMS.items() if isinstance(model, kind))
        return cls(form, {name: getattr(model, name) for name in _param_names(form)},
                   diagnostics_doc(diagnostics), tuple(fit_domain))

    def to_model(self, zone_id: str = "", hazard_class: str = ""):
        if self.form == FORM_EXPONENTIAL:
            return ExponentialModel(**self.params, zone_id=zone_id,
                                    hazard_class=hazard_class)
        return SaturatingRestorationModel(**self.params, zone_id=zone_id)


@dataclass
class ModelStore:
    """All fitted models for one hazard class, keyed zone_id -> kind."""
    hazard_class: str
    zones: dict[str, dict[str, ModelRecord]]

    def to_json(self) -> str:
        return json_text(asdict(self))

    @classmethod
    def from_json(cls, text: str, source: str = "model store") -> "ModelStore":
        """Parse a stored document. Objects must sit where objects belong,
        and each entry must hold its kind's form with exactly its params,
        all finite numbers; anything else is a ValidationError naming `source`."""
        def bad(what: str) -> ValidationError:
            return ValidationError(f"{source}: {what}")

        doc = json_object(text, source)
        if not isinstance(doc.get("hazard_class"), str) \
                or not isinstance(doc.get("zones"), dict):
            raise bad("must carry a hazard_class string and a zones object")
        zones: dict[str, dict[str, ModelRecord]] = {}
        for zone_id, kinds in doc["zones"].items():
            if not isinstance(kinds, dict):
                raise bad(f"zone {zone_id!r} is not an object")
            zones[zone_id] = {}
            for kind, rec in kinds.items():
                where = f"zone {zone_id!r} {kind} entry"
                if kind not in _KIND_FORMS:
                    raise bad(f"zone {zone_id!r} has unknown entry {kind!r}")
                if not isinstance(rec, dict) or rec.get("form") != _KIND_FORMS[kind]:
                    raise bad(f"{where} is not an object of form {_KIND_FORMS[kind]!r}")
                names = _param_names(rec["form"])
                params = rec.get("params")
                if not isinstance(params, dict) or sorted(params) != sorted(names):
                    raise bad(f"{where} needs exactly the params {', '.join(names)}")
                domain = rec.get("fit_domain", [0.0, 0.0])
                diagnostics = rec.get("diagnostics", {})
                if not isinstance(domain, list) or len(domain) != 2 \
                        or not isinstance(diagnostics, dict):
                    raise bad(f"{where} needs a fit_domain pair and a "
                              f"diagnostics object")
                if not all(map(is_finite_number, [*params.values(), *domain])):
                    raise bad(f"{where} holds a value that is not a finite number")
                zones[zone_id][kind] = ModelRecord(
                    rec["form"], {k: float(v) for k, v in params.items()},
                    diagnostics, (float(domain[0]), float(domain[1])))
        return cls(hazard_class=doc["hazard_class"], zones=zones)
