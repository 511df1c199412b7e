"""Conservativeness diagnostics for the reduced Riccati system.

A model is conservative exactly when F(0) = 0 and the trivial solution is the
only solution of the reduced system d g = R_I((g, 0)) with g(0) = 0.  The
dichotomy is exact, but numerics cannot certify uniqueness for arbitrary
quadrature-defined fields, so the verdict is three-valued and every claim is
backed by a machine-checkable artifact:

* Conservative      - a Lipschitz bound that the field states for itself
                      on a ball around the origin (unique by
                      Picard-Lindelof), or an Osgood divergence statement
                      in the scalar case.
* NonConservative   - the killing value F(0) != 0, or a non-trivial witness
                      trajectory from g(0) = 0 whose ODE defect is strictly
                      below 1e-6 and whose sup norm exceeds 1e-4.
* Inconclusive      - with the reason recorded.

The decision pipeline: killing fast paths, then one of three routes.  A
field that states a ``jacobian_bound`` (every model field does, through
``ReducedField.from_model``) runs the Lipschitz radius ladder first.  A
field without a certificate from that ladder goes, when m = 1, to the scalar
Osgood test (integral of 1 / |field| toward the origin after the
variance-removing substitution v = w^2), and when m > 1 to a probe ladder
started at -eps * 1 and Richardson-extrapolated toward the minimal branch.
Probes run on the negative side because non-trivial solutions from 0 are
bounded below by the minimal solution, so non-uniqueness materializes there.
No Lipschitz constant is ever estimated from samples of the field: a user
who wants a Lipschitz certificate for a bare field passes a
``jacobian_bound``.

Fixed constants of the pipeline:

* Lipschitz radii 0.5, 0.25, 0.1, 0.03, 0.01, tried in turn with the
  field's ``jacobian_bound``; the first finite bound is the certificate
  (``analytic-corner``).
* Osgood side scans start at |v| <= 0.25; the witness grid has 1201 points,
  graded quadratically over the horizon 3.  The integral ladder calls a
  side convergent when its last three decade ratios lie below 0.9 and
  divergent when they lie above 0.93.  A field that is Osgood only by a
  logarithm, such as v (1 + log(1/v)) with ratios rising from 0.47 to
  0.86, is called convergent; its witness then fails validation, so the
  verdict is Inconclusive, never NonConservative.  The decade ratios of
  sign(v)|v|^p are 10^{-(2-2p)}, so p = 0.99 is called divergent and gets
  a false Osgood certificate, though the field is not Osgood.  p = 0.98
  is ambiguous, and at p = 0.9 and 0.95 the escape stays below the 1e-4
  floor up to the horizon 3; those three are Inconclusive.
* The probe ladder and the forward witness run to the checkpoint time 1 on
  1201 points.  Their solves use rtol 1e-10, atol 1e-13 and a step cap of
  1/200 of the horizon; the Osgood witness tail caps steps at 1/300 of its
  span.  The probe ladder and ``minimal_reduced_trajectory`` start at the
  shifts of the minimal-branch ladder ``_LADDER`` (1e-5, 1e-7, 1e-9).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as _dataclass_field
from typing import Callable, Optional

import numpy as np
from scipy import integrate as _sint
from scipy.integrate import IntegrationWarning
from scipy.interpolate import PchipInterpolator

from .errors import ConfigError, DomainError, SolverError
from .model import AffineModel, eval_F, quiet_fp, reduced_R, validate_model
from .riccati import (_FIELD_ERRORS, _LADDER, SolveOptions, _check_reduced_start, _eps_ladder,
                      _field_values, _integrate, _ladder_limit, _real_finite, _richardson,
                      _write_csv)
from .riccati import solve_reduced  # noqa: F401  (perfbench/tracing.py wraps this name here)

__all__ = [
    "LipschitzCertificate",
    "OsgoodCertificate",
    "WitnessTrajectory",
    "ConservativenessVerdict",
    "ReducedField",
    "check_conservative",
    "check_reduced_uniqueness",
    "minimal_reduced_trajectory",
    "comparison_check",
    "ode_residual",
]

CONSERVATIVE = "Conservative"
NON_CONSERVATIVE = "NonConservative"
INCONCLUSIVE = "Inconclusive"

_WITNESS_RESIDUAL_TOL = 1e-6
_WITNESS_NONTRIVIAL = 1e-4
_COMPARISON_TOL = 1e-7

_RADIUS_LADDER = (0.5, 0.25, 0.1, 0.03, 0.01)
_OSGOOD_DELTA = 0.25
_CHECKPOINT_TIME = 1.0    # horizon of the probe ladder and the forward witness
_WITNESS_HORIZON = 3.0    # horizon of the Osgood witness
_WITNESS_POINTS = 1201
_RTOL = 1e-10
_ATOL = 1e-13

# errors of a whole-grid rows call after which the grid is evaluated row by
# row: those of a field undefined at some row, or TypeError (a family whose
# ``_mgf_integral`` rejects arrays)
_ROW_ERRORS = _FIELD_ERRORS + (TypeError,)


def _solve_options(T: float) -> SolveOptions:
    # step cap keeps the interpolation error of witness grids below the
    # 1e-6 residual budget
    return SolveOptions(T=T, rtol=_RTOL, atol=_ATOL, max_step=T / 200.0)


@dataclass(frozen=True)
class LipschitzCertificate:
    """A Lipschitz bound the field states (``ReducedField.jacobian_bound``)
    on the ball of this radius around 0."""

    radius: float
    bound: float

    def describe(self) -> str:
        return (f"reduced field is Lipschitz on the ball of radius {self.radius:g} "
                f"around 0 with constant {self.bound:.6g} (analytic-corner)")


@dataclass(frozen=True)
class OsgoodCertificate:
    sides: tuple  # per examined side: (label, "divergent"|"inward"|"undefined")

    def describe(self) -> str:
        parts = [f"{lab}: {verdict}" for lab, verdict in self.sides]
        return "Osgood integral of 1/|field| diverges toward 0 " \
               f"on every escape side ({'; '.join(parts)})"


@dataclass(frozen=True)
class WitnessTrajectory:
    ts: np.ndarray
    values: np.ndarray  # (k, m)
    residual: float
    source: str  # "osgood-inversion" | "probe-extrapolation" | "forward-solve"

    @property
    def max_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def to_csv(self, fh) -> None:
        """Trajectory CSV in the solver's format, with phi written as zeros."""
        columns = ["t", *(f"psi_{k + 1}" for k in range(self.values.shape[1])), "phi"]
        _write_csv(fh, columns, np.column_stack([self.ts, self.values, np.zeros(len(self.ts))]),
                   footer=f"status=Witness residual={self.residual:.3e} source={self.source}")


@dataclass(frozen=True)
class ConservativenessVerdict:
    kind: str
    certificate: object = None           # LipschitzCertificate | OsgoodCertificate
    witness: Optional[WitnessTrajectory] = None
    f0_witness: Optional[float] = None   # value of F(0) when it fails to vanish
    reason: Optional[str] = None

    @property
    def conservative(self) -> bool:
        return self.kind == CONSERVATIVE

    def report_lines(self):
        lines = [f"kind: {self.kind}"]
        if self.certificate is not None:
            lines.append(f"certificate: {self.certificate.describe()}")
        if self.f0_witness is not None:
            lines.append(f"witness: F(0) = {self.f0_witness:.17g} != 0")
        if self.witness is not None:
            lines.append(f"witness: trajectory from g(0)=0, sup-norm "
                         f"{self.witness.max_norm:.6g}, residual {self.witness.residual:.3e}, "
                         f"source {self.witness.source}")
        if self.reason:
            lines.append(f"reason: {self.reason}")
        return lines


@dataclass(frozen=True)
class ReducedField:
    """A reduced vector field R^m -> R^m with optional structure hints.

    ``jacobian_bound(rho)`` returns a Lipschitz constant valid on the closed
    ball of radius rho around 0, or None when no finite bound is available
    there.  It is the only source of a Lipschitz certificate: the field is
    never sampled for one.  A field without a ``jacobian_bound``, or whose
    bound is None at every radius, goes to the Osgood test when m = 1 and
    to the probe ladder when m > 1.  Evaluations outside the field's domain
    may raise or go non-finite; both are handled.  m must be a positive
    integer.

    ``_rows``, set by ``from_model``, maps (N, m) rows to their (N, m)
    values in one call.  A bare callable's (m,) contract says nothing about
    stacks, so its rows are evaluated one at a time.
    """

    fun: Callable
    m: int
    jacobian_bound: Optional[Callable] = None
    _rows: Optional[Callable] = _dataclass_field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 1):
            raise ConfigError(f"ReducedField.m must be a positive integer, got {self.m!r}")

    def __call__(self, v):
        """The value at v as a float array of shape (m,); a bare fun's value
        of any other shape raises ConfigError, except a scalar when m = 1."""
        if self._rows is not None:  # reduced_R, which returns float arrays already
            return self._rows(v)
        value = np.asarray(self.fun(np.asarray(v, dtype=float)), dtype=float)
        if value.shape != (self.m,):
            if value.shape or self.m != 1:
                raise ConfigError(f"ReducedField.fun must return shape ({self.m},), "
                                  f"got {value.shape}")
            value = value.reshape(1)
        return value

    @staticmethod
    def from_model(model: AffineModel) -> "ReducedField":
        m = model.shape.m

        def fun(v):  # reduced_R takes (m,) and (N, m) rows alike
            return reduced_R(model, v, check_domain=False)

        def jac_bound(rho):
            return _model_jacobian_bound(model, rho)

        return ReducedField(fun=fun, m=m, jacobian_bound=jac_bound, _rows=fun)

    @property
    def _solve_fn(self) -> Callable:
        """The function the solves call on one (m,) row: ``_rows`` when set
        (``reduced_R`` through this module's globals, whose values
        ``__call__`` returns as they are), else the field itself."""
        return self if self._rows is None else self._rows


def _model_jacobian_bound(model: AffineModel, rho: float):
    """Rigorous sup of the reduced Jacobian over the ball of radius rho, or
    None when no finite bound holds there.

    The jump contributions int xi_k e^{<v, xi>} mu_i are monotone in every
    coordinate for measures supported in D, so their extremes over the cube
    [-rho, rho]^m sit at the corners +-rho * 1.  A corner outside the range
    of an I-row measure mu_i (a DomainError) or a derivative that is not
    finite there gives None.  mu_0 enters F, not the reduced field, so its
    range plays no part.
    """
    shape = model.shape
    m = shape.m
    bound_rows = np.zeros((m, m))
    for i in shape.I:
        for k in shape.I:
            entry = abs(model.beta_I[i, k])
            if k == i:
                entry += 2.0 * model.alpha[i] * rho
            mu = model.mus[i]
            if not mu.is_zero and mu.axis == k:
                comp = model.measure_compensated(i)
                vals = []
                for sgn in (1.0, -1.0):
                    u = np.zeros(shape.d)
                    u[:m] = sgn * rho
                    try:
                        dv = mu.lk_derivative(u, compensated=comp)
                    except DomainError:
                        return None
                    if not np.isfinite(dv):
                        return None
                    vals.append(abs(dv))
                entry += max(vals)
            bound_rows[i, k] += entry
    return float(np.max(np.sum(bound_rows, axis=1)))


def _witness_grid(horizon: float) -> np.ndarray:
    """Quadratically graded grid: witnesses behave like fractional powers of
    t at the origin, where uniform spacing leaves a visible trapezoid defect."""
    return horizon * np.linspace(0.0, 1.0, _WITNESS_POINTS) ** 2


def ode_residual(ts, values, fun) -> float:
    """Max trapezoid defect |(g_{k+1} - g_k)/h - (f(g_k) + f(g_{k+1}))/2|.

    The field is evaluated only at the grid values themselves, so the defect
    stays meaningful for fields whose derivative blows up at the origin.
    Intervals with h <= 0 and intervals whose defect is NaN are skipped.
    A model-backed ReducedField evaluates the whole grid in one rows call;
    when that call raises or meets a non-finite value, the grid is evaluated
    row by row in order, so the residual is inf, or the field's exception is
    raised, at the first row where that happens.  Values that do not fit
    the grid raise ConfigError.
    """
    ts = np.asarray(ts, dtype=float)
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    if vals.shape[0] != ts.size:
        vals = vals.T
    if not (ts.ndim == 1 and vals.ndim == 2 and vals.shape[0] == ts.size):
        raise ConfigError("values must be (k, m) rows, or (m, k) columns, on the k times of ts")
    fs = None
    with quiet_fp():
        if getattr(fun, "_rows", None) is not None:
            try:
                fs = np.asarray(fun._rows(vals), dtype=float)
            except _ROW_ERRORS:
                pass
        if fs is None or not np.isfinite(fs).all():
            fs = np.empty_like(vals)
            for k in range(len(ts)):
                f = np.atleast_1d(np.asarray(fun(vals[k]), dtype=float))
                if not np.all(np.isfinite(f)):
                    return math.inf
                fs[k] = f
    h = np.diff(ts)
    step = h > 0
    with quiet_fp():    # infinite grid values give NaN defects, skipped below
        defect = np.abs((vals[1:][step] - vals[:-1][step]) / h[step, None]
                        - 0.5 * (fs[:-1][step] + fs[1:][step])).max(axis=1)
    defect = defect[~np.isnan(defect)]
    return float(defect.max(initial=0.0))


def _verified(residual: float) -> bool:
    return residual < _WITNESS_RESIDUAL_TOL  # strictly below the 1e-6 budget


def _accepted(witness: Optional[WitnessTrajectory]) -> bool:
    """A verified witness with sup norm above 1e-4 certifies non-uniqueness."""
    return witness is not None and _verified(witness.residual) \
        and witness.max_norm > _WITNESS_NONTRIVIAL


def _inconclusive(reason: str) -> ConservativenessVerdict:
    return ConservativenessVerdict(kind=INCONCLUSIVE, reason=reason)


# ---------------------------------------------------------------------------
# scalar Osgood machinery
# ---------------------------------------------------------------------------


def _osgood_scan_side(field: ReducedField, sign: int):
    """Classify one side of the origin for a scalar field.

    Returns (status, delta_used): status in {"escape", "inward", "undefined",
    "mixed"}.  Escape means the field points away from 0 on the whole side.
    """
    for dl in (_OSGOOD_DELTA, _OSGOOD_DELTA / 4.0, _OSGOOD_DELTA / 16.0):
        ws = np.geomspace(1e-7, math.sqrt(dl), 40)
        vals = []
        with quiet_fp():
            for w in ws:
                f = _field_values(field, np.array([sign * w * w]))
                if f is None:
                    vals = None
                    break
                vals.append(f[0])
        if vals is None:
            return "undefined", dl
        vals = np.asarray(vals)
        if np.all(sign * vals > 0):
            return "escape", dl
        if np.all(sign * vals < 0):
            return "inward", dl
        if np.all(sign * vals >= 0) or np.all(sign * vals <= 0):
            continue  # zeros among samples: shrink and retry
    return "mixed", _OSGOOD_DELTA


def _time_density(field: ReducedField, sign: int) -> Callable:
    """w -> 2w / |f(sign w^2)|, the Osgood time density in w = sqrt|v|.

    The substitution v = sign * w^2 removes square-root-type endpoint
    singularities; a zero or undefined field value gives +inf.
    """
    def density(w):
        f = _field_values(field, np.array([sign * w * w]))
        if f is None or f[0] == 0.0:
            return math.inf
        return 2.0 * w / abs(f[0])

    return density


def _osgood_integral_ladder(field: ReducedField, sign: int, delta: float):
    """Increments of the Osgood time integral over a shrinking lower cutoff.

    Returns (convergent: bool | None, increments, total).
    """
    w_hi = math.sqrt(delta)
    cuts = [w_hi] + [w_hi * 10.0 ** (-k) for k in range(1, 8)]
    density = _time_density(field, sign)
    incs = []
    with quiet_fp(), warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for lo, hi in zip(cuts[1:], cuts[:-1]):
            val, _ = _sint.quad(density, lo, hi, limit=200)
            incs.append(val)
            if not math.isfinite(val):
                return False, incs, math.inf
    ratios = [incs[k + 1] / incs[k] for k in range(len(incs) - 1) if incs[k] > 0]
    tail = ratios[-3:]
    if all(r < 0.9 for r in tail):
        r = max(tail)
        total = sum(incs) + incs[-1] * r / (1.0 - r)
        return True, incs, total
    if all(r > 0.93 for r in tail):
        return False, incs, math.inf
    return None, incs, math.nan


def _osgood_witness(field: ReducedField, sign: int) -> Optional[WitnessTrajectory]:
    """Minimal escaping solution from 0 via time-map inversion plus an RK tail.

    The layer near the origin inverts t(g) = int dv / f(v) in the w = sqrt|v|
    variable; once |g| clears the singular layer the trajectory is continued
    by the adaptive stepper, which carries the accuracy burden.
    """
    # cumulative time map on a graded w-mesh
    w_switch = 1e-4   # |g| = 1e-8 at the layer boundary
    mesh = np.concatenate([[0.0], np.geomspace(1e-9, w_switch, 60)])
    density = _time_density(field, sign)
    t_cum = [0.0]
    with quiet_fp(), warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for lo, hi in zip(mesh[:-1], mesh[1:]):
            seg, _ = _sint.quad(density, lo, hi, limit=200)
            t_cum.append(t_cum[-1] + seg)
            if not math.isfinite(t_cum[-1]):
                return None
    t_cum = np.asarray(t_cum)
    t_switch = float(t_cum[-1])
    g_switch = sign * w_switch ** 2

    # RK tail from the layer boundary
    tail_T = _WITNESS_HORIZON - t_switch
    if tail_T <= 0:
        return None
    sopts = SolveOptions(T=tail_T, rtol=_RTOL, atol=_ATOL,
                         max_step=tail_T / 300.0, blowup_threshold=1e10)
    try:
        tail = _integrate(field._solve_fn, np.array([g_switch]), sopts)
    except DomainError:
        return None

    grid = _witness_grid(min(_WITNESS_HORIZON, t_switch + tail.t_end))
    vals = np.empty((_WITNESS_POINTS, 1))
    layer = grid <= t_switch
    if np.any(layer):
        # invert the time map: w(t) is smooth through the origin
        w_of_t = PchipInterpolator(t_cum, mesh)
        vals[layer, 0] = sign * w_of_t(grid[layer]) ** 2
    if np.any(~layer):
        vals[~layer] = tail.eval(grid[~layer] - t_switch)
    residual = ode_residual(grid, vals, field)
    return WitnessTrajectory(ts=grid, values=vals, residual=residual,
                             source="osgood-inversion")


# ---------------------------------------------------------------------------
# probe ladder
# ---------------------------------------------------------------------------


def _crossing_time(grid, norms, level):
    """First time the (initially increasing) norm reaches the level."""
    idx = np.nonzero(norms >= level)[0]
    if idx.size == 0 or idx[0] == 0:
        return None
    k = idx[0]
    t0, t1 = grid[k - 1], grid[k]
    y0, y1 = norms[k - 1], norms[k]
    if y1 == y0:
        return float(t1)
    return float(t0 + (level - y0) / (y1 - y0) * (t1 - t0))


def _probe_field(field: ReducedField) -> ConservativenessVerdict:
    """Integrate from -eps * 1 over the ladder; detect a non-trivial limit.

    Probe runs track the minimal solution ahead of schedule: run k equals the
    limit shifted left by a lag c_k that vanishes with eps.  The witness is
    the finest run shifted right by its extrapolated lag; a time-shifted
    solution of an autonomous system carries no extra ODE defect, which a
    pointwise value extrapolation would near a non-Lipschitz origin.
    """
    m = field.m
    T = _CHECKPOINT_TIME
    sopts = _solve_options(T)

    def defined(start):  # start = -eps * 1
        with quiet_fp():
            if _field_values(field._solve_fn, start) is None:
                raise DomainError(f"probe at eps={-start[0]:g} started outside the field domain")

    try:
        sols = _eps_ladder(field._solve_fn, np.zeros(m), m, _LADDER, sopts, check=defined)
    except DomainError as exc:
        return _inconclusive(str(exc))
    sol = sols[-1]   # the finest run, or the one that missed the horizon
    if not sol.status.reached_horizon:
        eps = _LADDER[len(sols) - 1]
        return _inconclusive(f"probe at eps={eps:g} terminated with {sol.status.label()}")

    # uniform grid: the shifted-run construction is extrapolation-limited
    # near the origin, where a graded grid would amplify value error through
    # the unbounded field derivative
    grid = np.linspace(0.0, T, _WITNESS_POINTS)
    runs = [s.eval(grid) for s in sols]
    terminal = [float(np.max(np.abs(r[-1]))) for r in runs]
    if terminal[-1] < 1e-3:
        return _inconclusive("probe trajectories collapse to 0 but no Lipschitz certificate exists")
    d21 = float(np.max(np.abs(runs[1] - runs[0])))
    d32 = float(np.max(np.abs(runs[2] - runs[1])))
    if d21 > 0 and d32 / max(d21, 1e-300) > 1.0:
        return _inconclusive("probe trajectories do not converge along the ladder")

    # lag extrapolation from a shared level crossing
    level = 0.1 * terminal[-1]
    times = [_crossing_time(grid, np.max(np.abs(r), axis=1), level) for r in runs]
    shift = 0.0
    if all(t is not None for t in times) and times[0] < times[1] < times[2]:
        # the lag is the extrapolated crossing time minus the finest run's
        shift = _richardson(*times) - times[2]

    limit = np.zeros((len(grid), m))
    past = grid >= shift
    inside = past & (grid - shift <= sol.t_end)
    limit[inside] = sol.eval(grid[inside] - shift)
    if np.any(past & ~inside):
        limit[past & ~inside] = sol.psi_end
    residual = ode_residual(grid, limit, field)
    witness = WitnessTrajectory(ts=grid, values=limit, residual=residual,
                                source="probe-extrapolation")
    if _accepted(witness):
        return ConservativenessVerdict(kind=NON_CONSERVATIVE, witness=witness)
    return _inconclusive(f"probe limit failed witness validation "
                         f"(residual {witness.residual:.2e}, sup {witness.max_norm:.2e})")


# ---------------------------------------------------------------------------
# the verdict pipeline
# ---------------------------------------------------------------------------


def check_reduced_uniqueness(field: ReducedField, F0: float = 0.0) -> ConservativenessVerdict:
    """Decide whether g = 0 is the unique solution of d g = field(g), g(0) = 0."""
    m = field.m

    # killing fast paths: F(0) != 0, or 0 is not even an equilibrium
    if abs(F0) > 1e-12:
        return _constant_killing(F0)
    with quiet_fp():
        R0 = _field_values(field, np.zeros(m))
    if R0 is None:
        return _inconclusive("reduced field undefined at the origin")
    if float(np.max(np.abs(R0))) > 1e-12:
        return ConservativenessVerdict(kind=NON_CONSERVATIVE, witness=_forward_witness(field),
                                       reason="origin is not an equilibrium of the "
                                              "reduced field (linear killing)")

    # Lipschitz certificate on a shrinking ball, only from a bound the field states
    if field.jacobian_bound is not None:
        for rho in _RADIUS_LADDER:
            bound = field.jacobian_bound(rho)
            if bound is not None and math.isfinite(bound):
                return ConservativenessVerdict(
                    kind=CONSERVATIVE, certificate=LipschitzCertificate(radius=rho, bound=bound))

    # scalar Osgood route, else the multi-dimensional probe ladder
    if m == 1:
        return _scalar_osgood(field)
    return _probe_field(field)


def _constant_killing(F0: float) -> ConservativenessVerdict:
    return ConservativenessVerdict(kind=NON_CONSERVATIVE, f0_witness=F0,
                                   reason="constant killing rate (F(0) != 0)")


def _scalar_osgood(field: ReducedField) -> ConservativenessVerdict:
    sides = []
    for sign, label in ((-1, "negative side"), (1, "positive side")):
        status, delta = _osgood_scan_side(field, sign)
        if status == "mixed":
            return _inconclusive(f"reduced field changes sign arbitrarily close to 0 ({label})")
        if status in ("undefined", "inward"):
            sides.append((label, status))
            continue
        convergent, incs, total = _osgood_integral_ladder(field, sign, delta)
        if convergent is True:
            witness = _osgood_witness(field, sign)
            if not _accepted(witness):
                return _inconclusive("Osgood integral converges but witness construction failed")
            return ConservativenessVerdict(kind=NON_CONSERVATIVE, witness=witness)
        if convergent is False:
            sides.append((label, "divergent"))
        else:
            return _inconclusive(f"Osgood integral classification ambiguous ({label})")
    return ConservativenessVerdict(kind=CONSERVATIVE, certificate=OsgoodCertificate(tuple(sides)))


def _forward_witness(field: ReducedField):
    """Forward trajectory from 0 (used when 0 is not an equilibrium)."""
    try:
        sol = _integrate(field._solve_fn, np.zeros(field.m), _solve_options(_CHECKPOINT_TIME))
    except DomainError:
        return None
    grid = _witness_grid(sol.t_end)
    vals = sol.eval(grid)
    return WitnessTrajectory(ts=grid, values=vals,
                             residual=ode_residual(grid, vals, field),
                             source="forward-solve")


def check_conservative(model: AffineModel) -> ConservativenessVerdict:
    """Theorem-style conservativeness verdict for an affine model.

    A model without an I-block (m = 0) has an empty reduced system, so F(0)
    alone decides it: NonConservative with the killing value, or
    Conservative with the Lipschitz bound 0 of the empty field.
    """
    report = validate_model(model)
    if not report.ok:
        raise SolverError("model fails validation: " + "; ".join(report))
    F0 = eval_F(model, np.zeros(model.shape.d))
    if model.shape.m == 0:
        # the empty field, the zero map of R^0, is Lipschitz with constant 0
        if abs(F0) > 1e-12:
            return _constant_killing(F0)
        return ConservativenessVerdict(kind=CONSERVATIVE, certificate=LipschitzCertificate(
            radius=_RADIUS_LADDER[0], bound=0.0))
    field = ReducedField.from_model(model)
    try:
        return check_reduced_uniqueness(field, F0=F0)
    except SolverError as exc:
        return _inconclusive(f"solver failure: {exc}")


# ---------------------------------------------------------------------------
# minimal branch and the comparison property
# ---------------------------------------------------------------------------


def minimal_reduced_trajectory(model: AffineModel, uI, ts) -> np.ndarray:
    """Minimal solution of the reduced system from uI, on the given grid.

    Computed as the Richardson limit of solves started at uI - eps; at
    non-uniqueness boundary points a solve started exactly at uI follows the
    coexisting constant branch, while the minimal solution is the monotone
    limit from below.  uI must be a real finite vector of length m; the grid
    ts must be finite and nondecreasing, start at or after 0 and end after
    0.  Other inputs raise ConfigError.
    """
    ts = np.asarray(ts, dtype=float)
    if not (ts.ndim == 1 and ts.size and np.isfinite(ts).all() and ts[0] >= 0.0
            and ts[-1] > 0.0 and (np.diff(ts) >= 0.0).all()):
        raise ConfigError("the time grid ts must be finite and nondecreasing, "
                          "start at or after 0 and end after 0")
    m = model.shape.m
    uI = _real_finite(uI, "uI", m)
    field = ReducedField.from_model(model)._solve_fn
    sols = _eps_ladder(field, uI, m, _LADDER, _solve_options(float(ts[-1])),
                       check=lambda start: _check_reduced_start(model, start))
    if not sols[-1].status.reached_horizon:
        raise SolverError(f"minimal-branch probe terminated with {sols[-1].status.label()}")
    return _ladder_limit([sol.eval(ts) for sol in sols], ts, uI)


def comparison_check(model: AffineModel, uI, g_ts, g_values):
    """Check the comparison property g(t) >= psi_I(t, (uI, 0)) on the grid.

    ``g_values`` must be a verified solution of the reduced system from uI
    (ODE residual strictly below 1e-6).  Returns (ok, max_violation).
    """
    g_ts = np.asarray(g_ts, dtype=float)
    g_values = np.atleast_2d(np.asarray(g_values, dtype=float))
    if g_values.shape[0] != g_ts.size:
        g_values = g_values.T
    field = ReducedField.from_model(model)
    res = ode_residual(g_ts, g_values, field)
    if not _verified(res):
        raise SolverError(f"trajectory is not a verified solution (residual {res:.2e})")
    psi = minimal_reduced_trajectory(model, uI, g_ts)
    violation = float(np.max(psi - g_values))
    return violation <= _COMPARISON_TOL, max(violation, 0.0)
