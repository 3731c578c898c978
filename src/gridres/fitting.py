"""Curve fitting for zone fragility and restoration-time models.

Two model families:

  fragility     y(x) = a * exp(b * x)             x = weather intensity
  restoration   y(x) = c - a1 * exp(-b1 * x)
                       - a2 * exp(-b2 * x)        x = outages in the event

Both are least squares on the raw observations, whose zero counts stay usable
and whose big events get the weight they deserve. With its rates fixed each
model is linear in its amplitudes, so the amplitudes are solved exactly and
only the rates are searched (variable projection; Golub and Pereyra, 1973):
fragility's a has a closed form, restoration's (c, a1, a2) >= 0 is the exact
nonnegative least-squares solution. A Nelder-Mead search refines b from the
log-linear slope, and (log b1, log b2) from the best pair on a log-spaced
grid, within a range derived from the samples (RATE_SPAN).

`iterations` counts search iterations. `stop_reason` is "simplex" (the
simplex shrank within SIMPLEX_TOL), "rate_at_bound" (it shrank with a rate on
an edge of its range, so the data do not identify that rate) or
"max_evaluations" (MAX_EVALUATIONS ran out; the one unconverged outcome).
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, fields
from typing import Callable

from . import np
from .errors import (EvaluationError, FitError, ValidationError, is_finite_number,
                     json_object, json_text)

log = logging.getLogger(__name__)

FORM_EXPONENTIAL = "exp"
FORM_RESTORATION = "sat2exp"

# strictly-positive lower bounds use a tiny floor instead of an open interval
POSITIVE_FLOOR = 1e-12

# Rate search: the limits of rate * x (a decay much past e^-20 no longer moves the
# SSE), the restoration start's grid size, the simplex size that stops the search
# (log rate; b * max |x|) and its evaluations.
RATE_SPAN = (1e-4, 20.0)
GRID_RATES = 48
SIMPLEX_TOL = 1e-10
MAX_EVALUATIONS = 2000


@dataclass(frozen=True)
class FitDiagnostics:
    n_samples: int
    sse: float
    r_squared: float
    iterations: int       # search iterations
    converged: bool
    initializer: str
    gradient_norm: float  # max |J^T r| at the fitted parameters
    stop_reason: str      # "simplex", "rate_at_bound" or "max_evaluations"


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
# Rate search and the models' least-squares systems
# ---------------------------------------------------------------------------

def _simplex_search(objective: Callable[[np.ndarray], float], start: np.ndarray,
                    step: float, lo: np.ndarray, hi: np.ndarray,
                    ) -> tuple[np.ndarray, int, str]:
    """Nelder-Mead (reflection 1, expansion 2, contraction and shrink 1/2)
    over the box [lo, hi] from `start` and `start` plus `step` along each
    axis (minus where plus leaves the box); a trial point outside the box
    moves onto its edge. Returns the best vertex, iterations, stop reason."""
    step = np.where(start + step <= hi, step, -step)
    points = [np.clip(start + step * unit, lo, hi)
              for unit in np.eye(start.size + 1, start.size, -1)]
    evaluations = 0

    def value(point: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        return objective(point)

    def toward_worst(t: float) -> tuple[np.ndarray, float]:
        point = np.clip(centroid + t * (points[-1] - centroid), lo, hi)
        return point, value(point)

    values = [value(p) for p in points]
    iterations = 0
    while True:
        order = sorted(range(len(points)), key=values.__getitem__)
        points, values = [points[i] for i in order], [values[i] for i in order]
        best = points[0]
        if max(float(np.max(np.abs(p - best))) for p in points[1:]) <= SIMPLEX_TOL:
            at_edge = bool(np.any((best == lo) | (best == hi)))
            return best, iterations, "rate_at_bound" if at_edge else "simplex"
        if evaluations >= MAX_EVALUATIONS:
            return best, iterations, "max_evaluations"
        iterations += 1
        centroid = np.mean(points[:-1], axis=0)
        reflected, f_r = toward_worst(-1.0)
        if f_r < values[0]:
            expanded, f_e = toward_worst(-2.0)
            points[-1], values[-1] = (expanded, f_e) if f_e < f_r else (reflected, f_r)
        elif f_r < values[-2]:
            points[-1], values[-1] = reflected, f_r
        else:
            # contract outside if the reflection beat the worst vertex, else inside
            contracted, f_c = toward_worst(-0.5 if f_r < values[-1] else 0.5)
            if f_c < min(f_r, values[-1]):
                points[-1], values[-1] = contracted, f_c
            else:
                points = [best + 0.5 * (p - best) for p in points]
                values = [values[0]] + [value(p) for p in points[1:]]


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


def _diagnostics(system, params: np.ndarray, y: np.ndarray, iterations: int,
                 stop_reason: str, initializer: str, where: str) -> FitDiagnostics:
    """Diagnostics at `params` from the residuals of `system`; FitError if not finite."""
    residuals, jacobian = system
    r = residuals(params)
    sse = float(r @ r)
    if not all(map(math.isfinite, [*params.tolist(), sse])):
        raise FitError(f"fit{where} has no finite solution")
    sst = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - sse / sst if sst > 0.0 else (1.0 if sse <= 1e-30 else math.nan)
    return FitDiagnostics(
        n_samples=int(y.size), sse=sse, r_squared=r_squared,
        iterations=iterations, converged=stop_reason != "max_evaluations",
        initializer=initializer, stop_reason=stop_reason,
        gradient_norm=float(np.max(np.abs(jacobian(params).T @ r))))


# ---------------------------------------------------------------------------
# Fragility: y = a * exp(b x)
# ---------------------------------------------------------------------------

def fit_exponential(
    samples: list[tuple[float, float]],
    zone_id: str = "",
    hazard_class: str = "",
) -> tuple[ExponentialModel, FitDiagnostics]:
    """Fit y = a*exp(b*x) to (intensity, outage_count) pairs.

    Start: the slope of ordinary least squares on (x, ln y) over the y > 0
    subset. Search: b on all samples, zeros included, with a in closed form.
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

    design = np.column_stack([x[pos], np.ones(int(pos.sum()))])
    slope = float(np.linalg.lstsq(design, np.log(y[pos]), rcond=None)[0][0])
    scale = float(np.max(np.abs(x)))  # the search runs on u = b * scale
    system = exponential_system(x, y)

    def params(u: np.ndarray) -> np.ndarray:
        """(a, b) at b = u / scale, with a in closed form."""
        e = np.exp(u[0] / scale * x)
        return np.array([max(POSITIVE_FLOOR, float(y @ e) / float(e @ e)), u[0] / scale])

    span = np.array([RATE_SPAN[1]])
    u, *search = _simplex_search(lambda u: float(np.sum(system[0](params(u)) ** 2)),
                                 np.clip([slope * scale], -span, span), 0.1, -span, span)
    a, b = params(u).tolist()
    diag = _diagnostics(system, np.array([a, b]), y, *search, "loglinear-ols", where)
    return ExponentialModel(a=a, b=b, zone_id=zone_id, hazard_class=hazard_class), diag


# ---------------------------------------------------------------------------
# Restoration: y = c - a1 exp(-b1 x) - a2 exp(-b2 x)
# ---------------------------------------------------------------------------

def _columns(rates: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The restoration design, transposed: ones, then -exp(-rate * x) per rate."""
    return np.vstack([np.ones_like(x), -np.exp(-np.multiply.outer(rates, x))])


def _support_solutions(gram: np.ndarray, rhs: np.ndarray):
    """Least-squares (c, a1, a2) on each of the 8 supports of stacked normal
    equations gram (..., 3, 3), rhs (..., 3), by Cramer's rule on the support's
    block (the identity elsewhere), and which are feasible: finite (a singular
    block is not) and >= 0. Shapes (..., 8, 3) and (..., 8); infeasible ones 0."""
    on = np.array([[k >> j & 1 for j in range(3)] for k in range(8)], bool)
    m = np.where(on[:, :, None] & on[:, None, :], gram[..., None, :, :], np.eye(3))
    v = np.where(on, rhs[..., None, :], 0.0)
    # cofactor (i, j) of a 3x3 matrix, from rows i+1, i+2 and columns j+1, j+2 mod 3
    i1, i2 = np.array([[1], [2], [0]]), np.array([[2], [0], [1]])
    cofactor = m[..., i1, i1.T] * m[..., i2, i2.T] - m[..., i1, i2.T] * m[..., i2, i1.T]
    det = np.sum(m[..., 0, :] * cofactor[..., 0, :], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.einsum("...ji,...j->...i", cofactor, v) / det[..., None]
    feasible = np.all(np.isfinite(theta) & (theta >= 0.0), axis=-1)
    return np.where(feasible[..., None], theta, 0.0), feasible


def _grid_start(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The log-rate pair z[i] < z[j] of least SSE, each pair's SSE taken from
    its normal equations (one Gram column per rate): exact enough for a start."""
    columns = _columns(np.exp(z), x)
    gram, rhs = columns @ columns.T, columns @ y
    i, j = np.triu_indices(z.size, 1)
    pick = np.column_stack([np.zeros_like(i), i + 1, j + 1])
    g, v = gram[pick[:, :, None], pick[:, None, :]], rhs[pick]
    theta, feasible = _support_solutions(g, v)
    sse = float(y @ y) - 2.0 * np.einsum("psk,pk->ps", theta, v) \
        + np.einsum("psk,pkl,psl->ps", theta, g, theta)
    best = int(np.argmin(np.where(feasible, sse, np.inf).min(axis=1)))
    return np.array([z[i[best]], z[j[best]]])


def fit_restoration(
    samples: list[tuple[float, float]],
    zone_id: str = "",
) -> tuple[SaturatingRestorationModel, FitDiagnostics]:
    """Fit the saturating restoration curve to (n_outages, hours) pairs.

    Start: the best pair of a log-spaced rate grid. Search: (log b1, log b2)
    with (c, a1, a2) >= 0 solved exactly. Output is canonically ordered with
    b1 <= b2 (slow decay first).
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
    positive = x[x > 0.0]
    if positive.size == 0 or not RATE_SPAN[1] / float(positive.min()) < math.inf:
        raise FitError(f"restoration samples{where} need an outage count "
                       f"that bounds the rates: positive, not near zero")
    lo = math.log(RATE_SPAN[0] / float(positive.max()))
    hi = math.log(RATE_SPAN[1] / float(positive.min()))

    def solve(z: np.ndarray) -> tuple[float, np.ndarray]:
        """The least SSE of a feasible support at rates exp(z), and its (c, a1, a2)."""
        columns = _columns(np.exp(z), x)
        theta, feasible = _support_solutions(columns @ columns.T, columns @ y)
        sse = np.where(feasible, np.sum((theta @ columns - y) ** 2, axis=1), np.inf)
        k = int(np.argmin(sse))
        return float(sse[k]), theta[k]

    grid = np.linspace(lo, hi, GRID_RATES)
    z, *search = _simplex_search(lambda z: solve(z)[0], _grid_start(x, y, grid),
                                 grid[1] - grid[0], np.full(2, lo), np.full(2, hi))
    c, a1, a2 = solve(z)[1].tolist()
    b1, b2 = np.exp(z).tolist()
    if b1 > b2:
        a1, b1, a2, b2 = a2, b2, a1, b1
    diag = _diagnostics(restoration_system(x, y), np.array([c, a1, b1, a2, b2]), y,
                        *search, "rate-grid", where)
    return SaturatingRestorationModel(c=c, a1=a1, b1=b1, a2=a2, b2=b2,
                                      zone_id=zone_id), diag


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
