"""Integration of the generalized Riccati systems.

The full system couples the state-linear and constant exponents,

    d psi / dt = R(psi),   psi(0) = u,
    d phi / dt = F(psi),   phi(0) = 0,

integrated jointly by an embedded Dormand-Prince 5(4) pair so that phi is
obtained by simultaneous quadrature of F along psi.  The reduced system drops
phi and restricts to the I-block at u_J = 0; the tilted system subtracts the
constant discounts (l, lambda) from (F, R).

Termination statuses:

* Completed    - the horizon T was reached within tolerance.
* BlowUp       - the magnitude passed ``blowup_threshold`` while growing
                 radially; the explosion time is estimated by extrapolating
                 1 / ||psi|| -> 0 over the last accepted steps.
* LeftDomain   - the step size collapsed near the domain boundary without
                 magnitude growth (field evaluations turn non-finite there;
                 such stages are rejected, so complex excursions of
                 square-root-type fields never propagate).
* Equilibrium  - ||R(psi)|| stayed below atol for 10 consecutive accepted
                 steps; the trajectory is continued to T as an exact constant
                 (phi continues linearly at its frozen rate).

Cost of a step: one ``model.quiet_fp`` (an np.errstate plus a flag that
tells ``eval_R``/``eval_F``/``reduced_R`` to skip their own) covers the
whole solve.  The seven stage derivatives of a step are rows of one array,
and the stage and error combinations reduce it along the stage axis in the
order of the tableau, so the trajectories are the same bits as a term-by-term
sum.  Fields call ``eval_R``/``eval_F``/``reduced_R`` through this module's
globals, and ``perfbench/tracing.py`` counts evaluations by wrapping them.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy.linalg import expm

from .errors import ConfigError, DomainError
from .model import AffineModel, eval_F, eval_R, in_domain_Y, quiet_fp, reduced_R

__all__ = [
    "SolveOptions",
    "SolveStatus",
    "RiccatiSolution",
    "solve_riccati",
    "solve_reduced",
    "solve_tilted",
    "solve_minimal",
    "psi_J_flow",
    "blowup_time",
]

_EQUILIBRIUM_RUN = 10  # consecutive accepted steps with ||R(psi)|| < atol

# start shifts of the minimal-branch ladder; three rungs, as its limit is a
# three-point Richardson extrapolation
_LADDER = (1e-5, 1e-7, 1e-9)


def _step_floor(T: float) -> float:
    return 1e-13 * max(1.0, T)  # shorter steps count as a step collapse


@dataclass(frozen=True)
class SolveOptions:
    """Stepper configuration for one solve; the step floor is 1e-13 * max(1, T)."""

    T: float
    rtol: float = 1e-9
    atol: float = 1e-12
    max_step: Optional[float] = None
    blowup_threshold: float = 1e8

    def __post_init__(self):
        for name in ("T", "rtol", "atol", "max_step", "blowup_threshold"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"SolveOptions.{name} must be finite")
        if self.T <= 0:
            raise ConfigError("SolveOptions.T must be > 0")
        if self.rtol <= 0 or self.atol <= 0:
            raise ConfigError("tolerances must be > 0")
        if self.blowup_threshold <= 0:
            raise ConfigError("blowup_threshold must be > 0")
        if _step_floor(self.T) >= self.effective_max_step:
            raise ConfigError("max_step must exceed the step floor 1e-13 * max(1, T)")

    @property
    def effective_max_step(self) -> float:
        if self.max_step is not None:
            return self.max_step
        return min(0.1, self.T / 20.0) if self.T > 2e-12 else self.T


@dataclass(frozen=True)
class SolveStatus:
    kind: str  # completed | blowup | left_domain | equilibrium
    t_event: Optional[float] = None

    COMPLETED = "completed"
    BLOWUP = "blowup"
    LEFT_DOMAIN = "left_domain"
    EQUILIBRIUM = "equilibrium"

    @property
    def completed(self) -> bool:
        return self.kind == self.COMPLETED

    @property
    def reached_horizon(self) -> bool:
        """Completed or analytically continued equilibrium."""
        return self.kind in (self.COMPLETED, self.EQUILIBRIUM)

    def label(self) -> str:
        if self.kind == self.COMPLETED:
            return "Completed"
        if self.kind == self.BLOWUP:
            return f"BlowUp t*≈{self.t_event:.6f}"
        if self.kind == self.LEFT_DOMAIN:
            return f"LeftDomain t_exit≈{self.t_event:.6f}"
        return f"Equilibrium t_eq≈{self.t_event:.6f}"


@dataclass(frozen=True)
class RiccatiSolution:
    """Time-gridded trajectory with stored derivatives for interpolation."""

    ts: np.ndarray
    psi: np.ndarray          # (k, dim)
    phi: Optional[np.ndarray]  # (k,) or None for the reduced system
    dpsi: np.ndarray
    dphi: Optional[np.ndarray]
    status: SolveStatus
    u0: np.ndarray
    T: float

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    @property
    def psi_end(self) -> np.ndarray:
        return self.psi[-1]

    @property
    def phi_end(self):
        """phi(T): a complex for complex solves, a float for real ones."""
        if self.phi is None:
            return None
        return complex(self.phi[-1]) if self.phi.dtype.kind == "c" else float(self.phi[-1])

    def eval(self, t) -> np.ndarray:
        """Cubic Hermite interpolation of psi at times t (scalar or array)."""
        return _hermite_eval(self.ts, self.psi, self.dpsi, t)

    def eval_phi(self, t):
        if self.phi is None:
            raise ValueError("this solution carries no phi component")
        return _hermite_eval(self.ts, self.phi[:, None], self.dphi[:, None], t)[..., 0]

    def to_csv(self, fh) -> None:
        """Trajectory CSV: header t,psi_1..psi_d,phi and a status footer.

        Floats carry 17 significant digits; phi is written as zeros when the
        solution carries none.
        """
        phi = np.zeros(len(self.ts)) if self.phi is None else np.real(self.phi)
        columns = ["t", *(f"psi_{k + 1}" for k in range(self.psi.shape[1])), "phi"]
        _write_csv(fh, columns, np.column_stack([self.ts, np.real(self.psi), phi]),
                   footer=f"status={self.status.label()}")


def _write_csv(fh, columns, table, footer=None) -> None:
    """Write a header line, one line per row of ``table`` with 17 significant
    digits, and an optional ``# footer`` line to a path or an open handle."""
    with (open(fh, "w") if isinstance(fh, (str, bytes)) else nullcontext(fh)) as out:
        out.write(",".join(columns) + "\n")
        for row in table.tolist():
            out.write(",".join(f"{x:.17g}" for x in row) + "\n")
        if footer is not None:
            out.write(f"# {footer}\n")


def _hermite_eval(ts, ys, fs, t):
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    tq = np.atleast_1d(t)
    if np.any(tq < ts[0] - 1e-12) or np.any(tq > ts[-1] + 1e-12):
        raise ValueError("interpolation time outside the computed trajectory")
    tq = np.clip(tq, ts[0], ts[-1])
    idx = np.clip(np.searchsorted(ts, tq, side="right") - 1, 0, len(ts) - 2)
    t0, t1 = ts[idx], ts[idx + 1]
    h = t1 - t0
    s = np.where(h > 0, (tq - t0) / np.where(h > 0, h, 1.0), 0.0)
    s2, s3 = s * s, s * s * s
    h00 = 2 * s3 - 3 * s2 + 1
    h10 = s3 - 2 * s2 + s
    h01 = -2 * s3 + 3 * s2
    h11 = s3 - s2
    y0, y1 = ys[idx], ys[idx + 1]
    f0, f1 = fs[idx], fs[idx + 1]
    out = (h00[:, None] * y0 + (h10 * h)[:, None] * f0
           + h01[:, None] * y1 + (h11 * h)[:, None] * f1)
    return out[0] if scalar else out


# Dormand-Prince 5(4) tableau (FSAL).
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_E = _B5 - _B4
# The same rows as columns, to weight a stacked (stages, dim) array.
_A_COLS = [row[:, None] for row in _A]
_E_COL = _E[:, None]


def _combine(weights, k):
    """sum_j weights[j] * k[j] over the leading stages of the stacked array.

    Adds the terms in stage order, starting from 0, as a Python sum would.
    Complex stages are reduced as (re, im) pairs of floats: numpy's complex
    reduction regroups four or more terms, the real one keeps the order.
    """
    stages = len(weights)
    terms = weights * k[:stages].view(float)
    return np.add.reduce(terms, axis=0, initial=0.0).view(k.dtype)


def _eval_or_none(field, y):
    """The field at y, or None when it raises or is non-finite.

    The caller holds ``quiet_fp`` (or its own np.errstate).
    """
    try:
        f = np.asarray(field(y))
    except (DomainError, FloatingPointError, ValueError, ZeroDivisionError, OverflowError):
        return None
    if not np.isfinite(f).all():
        return None
    return f


@quiet_fp()
def _integrate(field: Callable, y0: np.ndarray, opts: SolveOptions,
               rate_dim: Optional[int] = None) -> RiccatiSolution:
    """Adaptive DP5(4) loop shared by all solvers.

    ``rate_dim``: number of leading components whose rate decides
    equilibrium (and blow-up magnitude); defaults to all components.
    The whole state is returned as ``psi`` (with ``u0 = y0``), no phi.
    One ``quiet_fp`` covers the whole solve.
    """
    y = np.array(y0)
    dim = y.shape[0]
    nr = rate_dim if rate_dim is not None else dim
    f = _eval_or_none(field, y)
    if f is None:
        raise DomainError("vector field undefined at the initial condition")
    dtype = np.result_type(y, f, float)

    T = opts.T
    t_stop = T - 1e-14 * max(1.0, T)
    atol, rtol = opts.atol, opts.rtol
    hmax, hmin = opts.effective_max_step, _step_floor(T)
    ts = [0.0]
    ys = [y]
    fs = [f]
    t = 0.0
    h = min(hmax, T / 100.0)
    eq_run = 0
    status = None
    safety, order_exp = 0.9, 0.2

    while t < t_stop:
        h = min(h, T - t, hmax)
        if h < hmin:
            status = _classify_collapse(t, y, f, opts, nr, ts, ys)
            break

        # stage derivatives, stacked; a fresh array per step, so accepted
        # rows can be kept without copies
        k = np.empty((7, dim), dtype)
        k[0] = f
        failed = False
        for stage in range(1, 7):
            ystage = y + h * _combine(_A_COLS[stage], k)
            fstage = _eval_or_none(field, ystage)
            if fstage is None:
                failed = True
                break
            k[stage] = fstage
        if failed:
            h *= 0.3
            continue

        y_new = ystage  # stage 6 uses the b-row: FSAL
        err = h * _combine(_E_COL, k)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        en = math.sqrt((np.abs(err / scale) ** 2).sum() / dim)
        if not math.isfinite(en):
            h *= 0.3
            continue
        if en > 1.0:
            h *= min(1.0, max(0.2, safety * en ** (-order_exp)))
            continue

        # accepted
        t += h
        y = y_new
        f = k[6]
        ts.append(t)
        ys.append(y)
        fs.append(f)

        rate = float(np.abs(f[:nr]).max()) if nr else 0.0
        eq_run = eq_run + 1 if rate < atol else 0
        if eq_run >= _EQUILIBRIUM_RUN and t < T:
            status = SolveStatus(SolveStatus.EQUILIBRIUM, t_event=t)
            # analytic continuation: psi constant, phi linear at frozen rate
            f_cont = f.copy()
            f_cont[:nr] = 0.0
            ts.append(T)
            ys.append(y + (T - t) * f_cont)
            fs.append(f_cont)
            break

        mag = float(np.abs(y[:nr]).max()) if nr else 0.0
        if mag > opts.blowup_threshold:
            radial = float(np.real(np.vdot(y[:nr], f[:nr])))
            if radial > 0.0:
                status = SolveStatus(SolveStatus.BLOWUP,
                                     t_event=_extrapolate_blowup(ts, ys, nr))
                break

        if en == 0.0:
            h = hmax
        else:
            h *= min(5.0, max(0.2, safety * en ** (-order_exp)))

    if status is None:
        status = SolveStatus(SolveStatus.COMPLETED)

    return RiccatiSolution(ts=np.array(ts), psi=np.array(ys), phi=None, dpsi=np.array(fs),
                           dphi=None, status=status, u0=y0, T=opts.T)


def _classify_collapse(t, y, f, opts, nr, ts, ys):
    """Step collapse: blow-up when large and growing, domain exit otherwise."""
    mag = float(np.abs(y[:nr]).max()) if nr else 0.0
    radial = float(np.real(np.vdot(y[:nr], f[:nr])))
    if mag > 0.01 * opts.blowup_threshold and radial > 0.0:
        return SolveStatus(SolveStatus.BLOWUP, t_event=_extrapolate_blowup(ts, ys, nr))
    return SolveStatus(SolveStatus.LEFT_DOMAIN, t_event=t)


def _extrapolate_blowup(ts, ys, nr):
    """Root of a linear fit to w = 1 / ||psi|| over the last accepted steps."""
    pts = min(5, len(ts))
    tt = np.asarray(ts[-pts:], dtype=float)
    ww = np.array([1.0 / max(np.abs(y[:nr]).max(), 1e-300) for y in ys[-pts:]])
    if pts >= 2:
        des = np.vstack([np.ones_like(tt), tt]).T
        coef, *_ = np.linalg.lstsq(des, ww, rcond=None)
        a0, slope = coef
        if slope < 0:
            return float(-a0 / slope)
    return float(tt[-1])


def _as_initial(u0, d, name="u0"):
    u0 = np.atleast_1d(np.asarray(u0))
    if u0.shape != (d,):
        raise ConfigError(f"{name} must have length {d}")
    return u0.astype(complex) if u0.dtype.kind == "c" else u0.astype(float)


def solve_riccati(model: AffineModel, u0, opts: SolveOptions) -> RiccatiSolution:
    """Integrate d psi = R(psi), d phi = F(psi) from psi(0) = u0, phi(0) = 0."""
    return _solve_full(model, u0, opts, 0.0, np.zeros(model.shape.d))


def solve_tilted(model: AffineModel, l: float, lam, u0, opts: SolveOptions) -> RiccatiSolution:
    """Integrate the discounted system d psi = R(psi) - lambda, d phi = F(psi) - l."""
    return _solve_full(model, u0, opts, float(l), lam)


def _solve_full(model, u0, opts, l, lam):
    d = model.shape.d
    u0 = _as_initial(u0, d)
    lam = np.asarray(lam, dtype=float).reshape(d)
    if not in_domain_Y(model, u0):
        raise DomainError("u0 outside the effective domain Y")
    dtype = u0.dtype

    def field(z):
        psi = z[:d]
        out = np.empty(d + 1, dtype=dtype)
        out[:d] = eval_R(model, psi, check_domain=False) - lam
        out[d] = eval_F(model, psi, check_domain=False) - l
        return out

    z0 = np.zeros(d + 1, dtype=dtype)
    z0[:d] = u0
    sol = _integrate(field, z0, opts, rate_dim=d)
    return replace(sol, psi=sol.psi[:, :d], phi=sol.psi[:, d],
                   dpsi=sol.dpsi[:, :d], dphi=sol.dpsi[:, d], u0=u0)


def solve_reduced(model: AffineModel, g0, opts: SolveOptions) -> RiccatiSolution:
    """Integrate the reduced I-block system d g = R_I((g, 0)); no phi."""
    m = model.shape.m
    g0 = _as_initial(g0, m, name="g0")
    probe = np.zeros(model.shape.d)
    probe[:m] = np.real(g0)
    if not in_domain_Y(model, probe):
        raise DomainError("(g0, 0) outside the effective domain Y")

    def field(v):
        return reduced_R(model, v, check_domain=False)

    return _integrate(field, g0, opts)


def psi_J_flow(model: AffineModel, t: float, uJ) -> np.ndarray:
    """Closed J-block flow exp(beta_JJ^T t) u_J (scaling-and-squaring expm)."""
    if t < 0:
        raise ConfigError("psi_J_flow requires t >= 0")
    n = model.shape.n
    uJ = np.asarray(uJ, dtype=float).reshape(n)
    if n == 0:
        return uJ
    return expm(model.beta_JJ.T * t) @ uJ


def blowup_time(model: AffineModel, u0, Tmax: float, opts: Optional[SolveOptions] = None):
    """Estimated explosion time on [0, Tmax], or None if none is detected."""
    opts = SolveOptions(T=Tmax) if opts is None else replace(opts, T=Tmax)
    sol = solve_riccati(model, u0, opts)
    if sol.status.kind == SolveStatus.BLOWUP:
        return sol.status.t_event
    return None


def solve_minimal(model: AffineModel, u0, opts: SolveOptions, l: float = 0.0, lam=None):
    """Minimal-branch solve of the (optionally discounted) system from u0.

    At boundary points of Y where the field is not Lipschitz the flow started
    exactly at u0 can sit on a coexisting constant branch; the minimal
    solution is recovered as the monotone limit of solves started at
    u0 - eps on the I-coordinates, Richardson-extrapolated over the ladder.
    At interior points all ladder members agree and the limit is the
    ordinary solution.

    Returns (ts, psi (k,d), phi (k,), status of the finest member) on 201
    uniform times.
    """
    d, m = model.shape.d, model.shape.m
    u0 = np.asarray(u0, dtype=float).reshape(d)
    lam = np.zeros(d) if lam is None else np.asarray(lam, dtype=float).reshape(d)
    ts = np.linspace(0.0, opts.T, 201)
    # tight per-step tolerances: near a square-root boundary step errors act
    # as time shifts of the escaping branch and accumulate
    ladder_opts = SolveOptions(T=opts.T, rtol=1e-12, atol=1e-15,
                               max_step=opts.effective_max_step,
                               blowup_threshold=opts.blowup_threshold)
    sols = _eps_ladder(lambda start: solve_tilted(model, l, lam, start, ladder_opts),
                       u0, m, _LADDER)
    finest = sols[-1]
    if not finest.status.reached_horizon:
        # explosion/domain exit: the minimal solution diverges as well
        return finest.ts, finest.psi, finest.phi, finest.status
    psi = _richardson(*[sol.eval(ts) for sol in sols])
    phi = _richardson(*[sol.eval_phi(ts)[:, None] for sol in sols])[:, 0]
    psi[0] = u0  # the ladder limit at t = 0 is exact
    phi[0] = 0.0
    return ts, psi, phi, finest.status


def _eps_ladder(solve: Callable, u0: np.ndarray, m: int, eps_ladder) -> list:
    """``solve(start)`` at u0 - eps on the first m coordinates, for each eps.

    Stops at the first solution that misses the horizon, which is then the
    last one returned; exceptions of ``solve`` propagate.
    """
    sols = []
    for eps in eps_ladder:
        start = u0.copy()
        start[:m] -= eps
        sols.append(solve(start))
        if not sols[-1].status.reached_horizon:
            break
    return sols


def _richardson(g1, g2, g3):
    d21 = float(np.abs(g2 - g1).max())
    d32 = float(np.abs(g3 - g2).max())
    if d32 < 1e-14 or d21 < 1e-14:
        return g3
    r = min(d32 / d21, 0.9)
    return g3 + (g3 - g2) * (r / (1.0 - r))
