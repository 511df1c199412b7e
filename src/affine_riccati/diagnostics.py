"""Conservativeness diagnostics for the reduced Riccati system.

A model is conservative exactly when F(0) = 0 and the trivial solution is the
only solution of the reduced system d g = R_I((g, 0)) with g(0) = 0.  The
dichotomy is exact, but numerics cannot certify uniqueness for arbitrary
quadrature-defined fields, so the verdict is three-valued and every claim is
backed by a machine-checkable artifact:

* Conservative      - a Lipschitz bound for the reduced field on a ball
                      around the origin (unique by Picard-Lindelof), or an
                      exact Osgood divergence statement in the scalar case.
* NonConservative   - the killing value F(0) != 0, or a non-trivial witness
                      trajectory from g(0) = 0 whose ODE defect is below
                      1e-6 and whose sup norm exceeds 1e-4.
* Inconclusive      - with the reason recorded.

The decision pipeline: killing fast paths, then the Lipschitz certificate,
then the exact scalar Osgood test (integral of 1 / |field| toward the origin
after the variance-removing substitution v = w^2), then a multi-dimensional
probe ladder started at -eps * 1 and Richardson-extrapolated toward the
minimal branch.  Probes run on the negative side because non-trivial
solutions from 0 are bounded below by the minimal solution, so non-uniqueness
materializes there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy import integrate as _sint
from scipy.interpolate import PchipInterpolator

from .errors import ConfigError, DomainError, SolverError
from .model import (AffineModel, StateShape, eval_F, in_domain_Y, quiet_fp, reduced_R,
                    validate_model)
from .riccati import (SolveOptions, _eval_or_none, _integrate, _richardson, _write_csv,
                      solve_reduced)

__all__ = [
    "leq_order",
    "DiagnosticsOptions",
    "LipschitzCertificate",
    "OsgoodCertificate",
    "WitnessTrajectory",
    "ConservativenessVerdict",
    "ReducedField",
    "check_conservative",
    "check_reduced_uniqueness",
    "minimal_reduced_trajectory",
    "comparison_check",
    "order_preservation_test",
    "ode_residual",
]

CONSERVATIVE = "Conservative"
NON_CONSERVATIVE = "NonConservative"
INCONCLUSIVE = "Inconclusive"

_WITNESS_RESIDUAL_TOL = 1e-6
_WITNESS_NONTRIVIAL = 1e-4
_COMPARISON_TOL = 1e-7


def leq_order(shape: StateShape, u, v, tol: float = 0.0) -> bool:
    """The cone partial order: u_i <= v_i on I and u_J = v_J (within tol)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    m = shape.m
    if np.any(u[:m] > v[:m] + tol):
        return False
    return bool(np.all(np.abs(u[m:] - v[m:]) <= tol))


@dataclass(frozen=True)
class DiagnosticsOptions:
    checkpoint_time: float = 1.0
    eps_ladder: tuple = (1e-5, 1e-7, 1e-9)
    radius_ladder: tuple = (0.5, 0.25, 0.1, 0.03, 0.01)
    osgood_delta: float = 0.25
    witness_horizon: float = 3.0
    witness_points: int = 1201
    rtol: float = 1e-10
    atol: float = 1e-13

    def __post_init__(self):
        # the ladder limit is a three-point Richardson extrapolation
        if len(self.eps_ladder) != 3:
            raise ConfigError("eps_ladder must have exactly three entries")

    def solve_options(self, T: float) -> SolveOptions:
        # step cap keeps the interpolation error of witness grids below the
        # 1e-6 residual budget
        return SolveOptions(T=T, rtol=self.rtol, atol=self.atol, max_step=T / 200.0)

    def refined(self, factor: float = 0.1) -> "DiagnosticsOptions":
        """The same options with the probe ladder refined by one decade."""
        return replace(self, eps_ladder=tuple(e * factor for e in self.eps_ladder))


@dataclass(frozen=True)
class LipschitzCertificate:
    radius: float
    bound: float
    method: str  # "analytic-corner" or "numeric-sampled"

    def describe(self) -> str:
        return (f"reduced field is Lipschitz on the ball of radius {self.radius:g} "
                f"around 0 with constant {self.bound:.6g} ({self.method})")


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
    there.  Evaluations outside the field's domain may raise or go
    non-finite; both are handled.
    """

    fun: Callable
    m: int
    jacobian_bound: Optional[Callable] = None
    label: str = "reduced field"

    def __call__(self, v):
        return np.atleast_1d(np.asarray(self.fun(np.asarray(v, dtype=float)), dtype=float))

    @staticmethod
    def from_model(model: AffineModel) -> "ReducedField":
        m = model.shape.m

        def fun(v):
            return reduced_R(model, v, check_domain=False)

        def jac_bound(rho):
            return _model_jacobian_bound(model, rho)

        return ReducedField(fun=fun, m=m, jacobian_bound=jac_bound, label="model reduced field")


def _model_jacobian_bound(model: AffineModel, rho: float):
    """Rigorous sup of the reduced Jacobian over the ball of radius rho.

    The jump contributions int xi_k e^{<v, xi>} mu_i are monotone in every
    coordinate for measures supported in D, so their extremes over the cube
    [-rho, rho]^m sit at the corners +-rho * 1.
    """
    shape = model.shape
    m = shape.m
    for sgn in (1.0, -1.0):
        probe = np.zeros(shape.d)
        probe[:m] = sgn * rho
        if not in_domain_Y(model, probe):
            return None
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
                    dv = mu.lk_derivative(u, compensated=comp)
                    if not np.isfinite(dv):
                        return None
                    vals.append(abs(dv))
                entry += max(vals)
            bound_rows[i, k] += entry
    return float(np.max(np.sum(bound_rows, axis=1)))


def _numeric_jacobian_bound(field: ReducedField, rho: float, safety: float = 2.0):
    """FD Jacobian bound at the cube corners plus interior samples, x safety."""
    m = field.m
    h = max(1e-7, 1e-7 * rho)
    pts = [np.full(m, rho), np.full(m, -rho), np.zeros(m)]
    rng = np.random.default_rng(12345)
    for _ in range(4 * m):
        pts.append(rng.uniform(-rho, rho, size=m))
    worst = 0.0
    with quiet_fp():
        for p in pts:
            rows = np.zeros((m, m))
            for k in range(m):
                e = np.zeros(m)
                e[k] = h
                fp = _eval_or_none(field, p + e)
                fm = _eval_or_none(field, p - e)
                if fp is None or fm is None:
                    return None
                rows[:, k] = (fp - fm) / (2 * h)
            worst = max(worst, float(np.max(np.sum(np.abs(rows), axis=1))))
    return safety * worst


def _witness_grid(horizon: float, points: int) -> np.ndarray:
    """Quadratically graded grid: witnesses behave like fractional powers of
    t at the origin, where uniform spacing leaves a visible trapezoid defect."""
    return horizon * np.linspace(0.0, 1.0, points) ** 2


def ode_residual(ts, values, fun) -> float:
    """Max trapezoid defect |(g_{k+1} - g_k)/h - (f(g_k) + f(g_{k+1}))/2|.

    The field is evaluated only at the grid values themselves, so the defect
    stays meaningful for fields whose derivative blows up at the origin.
    """
    ts = np.asarray(ts, dtype=float)
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    if vals.shape[0] != len(ts):
        vals = vals.T
    fs = np.empty_like(vals)
    with quiet_fp():
        for k in range(len(ts)):
            f = np.atleast_1d(np.asarray(fun(vals[k]), dtype=float))
            if not np.all(np.isfinite(f)):
                return math.inf
            fs[k] = f
    worst = 0.0
    for k in range(len(ts) - 1):
        h = ts[k + 1] - ts[k]
        if h <= 0:
            continue
        defect = np.max(np.abs((vals[k + 1] - vals[k]) / h - 0.5 * (fs[k] + fs[k + 1])))
        worst = max(worst, float(defect))
    return worst


# ---------------------------------------------------------------------------
# scalar Osgood machinery
# ---------------------------------------------------------------------------


def _osgood_scan_side(field: ReducedField, sign: int, delta: float):
    """Classify one side of the origin for a scalar field.

    Returns (status, delta_used): status in {"escape", "inward", "undefined",
    "mixed"}.  Escape means the field points away from 0 on the whole side.
    """
    for dl in (delta, delta / 4.0, delta / 16.0):
        ws = np.geomspace(1e-7, math.sqrt(dl), 40)
        vals = []
        with quiet_fp():
            for w in ws:
                f = _eval_or_none(field, np.array([sign * w * w]))
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
    return "mixed", delta


def _osgood_integral_ladder(field: ReducedField, sign: int, delta: float):
    """Increments of int 2w dw / |f(sign w^2)| over a shrinking lower cutoff.

    The substitution v = sign * w^2 removes square-root-type endpoint
    singularities.  Returns (convergent: bool | None, increments, total).
    """
    w_hi = math.sqrt(delta)
    cuts = [w_hi] + [w_hi * 10.0 ** (-k) for k in range(1, 8)]

    def integrand(w):
        f = _eval_or_none(field, np.array([sign * w * w]))
        if f is None or f[0] == 0.0:
            return math.inf
        return 2.0 * w / abs(f[0])

    incs = []
    with quiet_fp():
        for lo, hi in zip(cuts[1:], cuts[:-1]):
            val, _ = _sint.quad(integrand, lo, hi, limit=200)
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


def _osgood_witness(field: ReducedField, sign: int, delta: float,
                    opts: DiagnosticsOptions) -> Optional[WitnessTrajectory]:
    """Minimal escaping solution from 0 via time-map inversion plus an RK tail.

    The layer near the origin inverts t(g) = int dv / f(v) in the w = sqrt|v|
    variable; once |g| clears the singular layer the trajectory is continued
    by the adaptive stepper, which carries the accuracy burden.
    """
    horizon = opts.witness_horizon
    npts = opts.witness_points

    def speed(w):
        f = _eval_or_none(field, np.array([sign * w * w]))
        if f is None or f[0] == 0.0:
            return math.inf
        return 2.0 * w / abs(f[0])

    # cumulative time map on a graded w-mesh
    w_switch = 1e-4   # |g| = 1e-8 at the layer boundary
    mesh = np.concatenate([[0.0], np.geomspace(1e-9, w_switch, 60)])
    t_cum = [0.0]
    with quiet_fp():
        for lo, hi in zip(mesh[:-1], mesh[1:]):
            seg, _ = _sint.quad(speed, lo, hi, limit=200)
            t_cum.append(t_cum[-1] + seg)
            if not math.isfinite(t_cum[-1]):
                return None
    t_cum = np.asarray(t_cum)
    t_switch = float(t_cum[-1])
    g_switch = sign * w_switch ** 2

    # RK tail from the layer boundary
    tail_T = horizon - t_switch
    if tail_T <= 0:
        return None
    sopts = SolveOptions(T=tail_T, rtol=opts.rtol, atol=opts.atol,
                         max_step=tail_T / 300.0, blowup_threshold=1e10)
    try:
        tail = _integrate(field, np.array([g_switch]), sopts)
    except DomainError:
        return None

    grid = _witness_grid(min(horizon, t_switch + tail.t_end), npts)
    vals = np.empty((npts, 1))
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


def _probe_field(field: ReducedField, opts: DiagnosticsOptions):
    """Integrate from -eps * 1 over the ladder; detect a non-trivial limit.

    Probe runs track the minimal solution ahead of schedule: run k equals the
    limit shifted left by a lag c_k that vanishes with eps.  The witness is
    the finest run shifted right by its extrapolated lag; a time-shifted
    solution of an autonomous system carries no extra ODE defect, which a
    pointwise value extrapolation would near a non-Lipschitz origin.

    Returns ("nontrivial", witness) | ("collapsed", None) | ("failed", reason).
    """
    m = field.m
    T = opts.checkpoint_time
    # uniform grid: the shifted-run construction is extrapolation-limited
    # near the origin, where a graded grid would amplify value error through
    # the unbounded field derivative
    grid = np.linspace(0.0, T, opts.witness_points)
    runs = []
    for eps in opts.eps_ladder:
        try:
            sol = _integrate(field, np.full(m, -eps), opts.solve_options(T))
        except DomainError:
            return "failed", f"probe at eps={eps:g} started outside the field domain"
        if not sol.status.reached_horizon:
            return "failed", f"probe at eps={eps:g} terminated with {sol.status.label()}"
        runs.append(sol.eval(grid))

    terminal = [float(np.max(np.abs(r[-1]))) for r in runs]
    if terminal[-1] < 1e-3:
        return "collapsed", None
    d21 = float(np.max(np.abs(runs[1] - runs[0])))
    d32 = float(np.max(np.abs(runs[2] - runs[1])))
    if d21 > 0 and d32 / max(d21, 1e-300) > 1.0:
        return "failed", "probe trajectories do not converge along the ladder"

    # lag extrapolation from a shared level crossing
    level = 0.1 * terminal[-1]
    times = [_crossing_time(grid, np.max(np.abs(r), axis=1), level) for r in runs]
    shift = 0.0
    if all(t is not None for t in times) and times[0] < times[1] < times[2]:
        # the lag is the extrapolated crossing time minus the finest run's
        shift = _richardson(*times) - times[2]

    # sol is the finest run
    limit = np.zeros((len(grid), m))
    past = grid >= shift
    inside = past & (grid - shift <= sol.t_end)
    limit[inside] = sol.eval(grid[inside] - shift)
    if np.any(past & ~inside):
        limit[past & ~inside] = sol.psi_end
    residual = ode_residual(grid, limit, field)
    witness = WitnessTrajectory(ts=grid, values=limit, residual=residual,
                                source="probe-extrapolation")
    return "nontrivial", witness


# ---------------------------------------------------------------------------
# the verdict pipeline
# ---------------------------------------------------------------------------


def check_reduced_uniqueness(field: ReducedField, F0: float = 0.0,
                             opts: Optional[DiagnosticsOptions] = None) -> ConservativenessVerdict:
    """Decide whether g = 0 is the unique solution of d g = field(g), g(0) = 0."""
    if opts is None:
        opts = DiagnosticsOptions()
    m = field.m

    # killing fast paths: F(0) != 0, or 0 is not even an equilibrium
    if abs(F0) > 1e-12:
        return ConservativenessVerdict(kind=NON_CONSERVATIVE, f0_witness=F0,
                                       reason="constant killing rate (F(0) != 0)")
    with quiet_fp():
        R0 = _eval_or_none(field, np.zeros(m))
    if R0 is None:
        return ConservativenessVerdict(kind=INCONCLUSIVE,
                                       reason="reduced field undefined at the origin")
    if float(np.max(np.abs(R0))) > 1e-12:
        witness = _forward_witness(field, opts)
        return ConservativenessVerdict(kind=NON_CONSERVATIVE, witness=witness,
                                       reason="origin is not an equilibrium of the "
                                              "reduced field (linear killing)")

    # Lipschitz certificate on a shrinking ball
    for rho in opts.radius_ladder:
        bound = None
        if field.jacobian_bound is not None:
            bound = field.jacobian_bound(rho)
            method = "analytic-corner"
        if bound is None:
            bound = _numeric_jacobian_bound(field, rho)
            method = "numeric-sampled"
        if bound is not None and math.isfinite(bound):
            return ConservativenessVerdict(
                kind=CONSERVATIVE,
                certificate=LipschitzCertificate(radius=rho, bound=bound, method=method))

    # exact scalar route
    if m == 1:
        verdict = _scalar_osgood(field, opts)
        if verdict is not None:
            return verdict

    # multi-dimensional probe ladder
    outcome, witness = _probe_field(field, opts)
    if outcome == "nontrivial":
        if witness.residual < _WITNESS_RESIDUAL_TOL and witness.max_norm > _WITNESS_NONTRIVIAL:
            return ConservativenessVerdict(kind=NON_CONSERVATIVE, witness=witness)
        return ConservativenessVerdict(
            kind=INCONCLUSIVE,
            reason=f"probe limit failed witness validation "
                   f"(residual {witness.residual:.2e}, sup {witness.max_norm:.2e})")
    if outcome == "collapsed":
        return ConservativenessVerdict(
            kind=INCONCLUSIVE,
            reason="probe trajectories collapse to 0 but no Lipschitz certificate exists")
    return ConservativenessVerdict(kind=INCONCLUSIVE, reason=witness if isinstance(witness, str)
                                   else "probe failed")


def _scalar_osgood(field: ReducedField, opts: DiagnosticsOptions):
    sides = []
    for sign, label in ((-1, "negative side"), (1, "positive side")):
        status, delta = _osgood_scan_side(field, sign, opts.osgood_delta)
        if status == "mixed":
            return ConservativenessVerdict(
                kind=INCONCLUSIVE,
                reason=f"reduced field changes sign arbitrarily close to 0 ({label})")
        if status in ("undefined", "inward"):
            sides.append((label, status))
            continue
        convergent, incs, total = _osgood_integral_ladder(field, sign, delta)
        if convergent is True:
            witness = _osgood_witness(field, sign, delta, opts)
            if witness is None or witness.residual > _WITNESS_RESIDUAL_TOL \
                    or witness.max_norm <= _WITNESS_NONTRIVIAL:
                return ConservativenessVerdict(
                    kind=INCONCLUSIVE,
                    reason="Osgood integral converges but witness construction failed")
            return ConservativenessVerdict(kind=NON_CONSERVATIVE, witness=witness)
        if convergent is False:
            sides.append((label, "divergent"))
        else:
            return ConservativenessVerdict(
                kind=INCONCLUSIVE, reason=f"Osgood integral classification ambiguous ({label})")
    return ConservativenessVerdict(kind=CONSERVATIVE, certificate=OsgoodCertificate(tuple(sides)))


def _forward_witness(field: ReducedField, opts: DiagnosticsOptions):
    """Forward trajectory from 0 (used when 0 is not an equilibrium)."""
    try:
        sol = _integrate(field, np.zeros(field.m), opts.solve_options(opts.checkpoint_time))
    except DomainError:
        return None
    grid = _witness_grid(sol.t_end, opts.witness_points)
    vals = sol.eval(grid)
    return WitnessTrajectory(ts=grid, values=vals,
                             residual=ode_residual(grid, vals, field),
                             source="forward-solve")


def check_conservative(model: AffineModel,
                       opts: Optional[DiagnosticsOptions] = None) -> ConservativenessVerdict:
    """Theorem-style conservativeness verdict for an affine model."""
    report = validate_model(model)
    if not report.ok:
        raise SolverError("model fails validation: " + "; ".join(report))
    field = ReducedField.from_model(model)
    F0 = eval_F(model, np.zeros(model.shape.d))
    try:
        return check_reduced_uniqueness(field, F0=F0, opts=opts)
    except SolverError as exc:
        return ConservativenessVerdict(kind=INCONCLUSIVE, reason=f"solver failure: {exc}")


# ---------------------------------------------------------------------------
# minimal branch and the comparison property
# ---------------------------------------------------------------------------


def minimal_reduced_trajectory(model: AffineModel, uI, ts,
                               opts: Optional[DiagnosticsOptions] = None) -> np.ndarray:
    """Minimal solution of the reduced system from uI, on the given grid.

    Computed as the Richardson limit of solves started at uI - eps; at
    non-uniqueness boundary points a solve started exactly at uI follows the
    coexisting constant branch, while the minimal solution is the monotone
    limit from below.
    """
    if opts is None:
        opts = DiagnosticsOptions()
    ts = np.asarray(ts, dtype=float)
    m = model.shape.m
    uI = np.asarray(uI, dtype=float).reshape(m)
    T = float(ts[-1])
    runs = []
    for eps in opts.eps_ladder:
        sol = solve_reduced(model, uI - eps, opts.solve_options(T))
        if not sol.status.reached_horizon:
            raise SolverError(f"minimal-branch probe terminated with {sol.status.label()}")
        runs.append(sol.eval(ts))
    out = np.array(_richardson(*runs))
    if ts[0] == 0.0:
        out[0] = uI  # the ladder limit at t = 0 is exact
    return out


def comparison_check(model: AffineModel, uI, g_ts, g_values,
                     opts: Optional[DiagnosticsOptions] = None):
    """Check the comparison property g(t) >= psi_I(t, (uI, 0)) on the grid.

    ``g_values`` must be a verified solution of the reduced system from uI
    (ODE residual below 1e-6).  Returns (ok, max_violation).
    """
    if opts is None:
        opts = DiagnosticsOptions()
    g_ts = np.asarray(g_ts, dtype=float)
    g_values = np.atleast_2d(np.asarray(g_values, dtype=float))
    if g_values.shape[0] != len(g_ts):
        g_values = g_values.T
    field = ReducedField.from_model(model)
    res = ode_residual(g_ts, g_values, field)
    if res > _WITNESS_RESIDUAL_TOL:
        raise SolverError(f"trajectory is not a verified solution (residual {res:.2e})")
    psi = minimal_reduced_trajectory(model, uI, g_ts, opts)
    violation = float(np.max(psi - g_values))
    return violation <= _COMPARISON_TOL, max(violation, 0.0)


# ---------------------------------------------------------------------------
# order preservation sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderPreservationReport:
    samples: int
    counterexamples: tuple

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def order_preservation_test(model: AffineModel, samples: int = 1000,
                            rng_seed: int = 0) -> OrderPreservationReport:
    """Sample v in Y and u <= v; every u must lie in Y as well."""
    rng = np.random.default_rng(rng_seed)
    shape = model.shape
    d, m = shape.d, shape.m
    dom = model.domain
    bounds = [dom.axis_bound(k) for k in range(d)]
    bad = []
    for _ in range(samples):
        v = np.empty(d)
        for k in range(d):
            bound, closed = bounds[k]
            if math.isinf(bound):
                v[k] = rng.normal(scale=2.0)
            elif closed and rng.random() < 0.1:
                v[k] = bound
            else:
                v[k] = bound - rng.exponential(1.0) - (0.0 if closed else 1e-9)
        if not dom.contains(v):
            continue  # joint bounds can still reject; resample implicitly
        u = v.copy()
        u[:m] = v[:m] - rng.exponential(1.0, size=m)
        if not dom.contains(u):
            bad.append((u.copy(), v.copy()))
    return OrderPreservationReport(samples=samples, counterexamples=tuple(bad))
