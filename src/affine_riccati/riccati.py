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

Cost of a step: one DP5(4) loop, ``_lanes``, advances N solves as lanes,
and a plain solve (``_integrate``) is its case N = 1.  Each lane keeps its
own t, step size, error control, equilibrium run and status in Python
floats, so each lane's steps and bits are those of its lone solve; the
three rungs of every epsilon ladder (``_eps_ladder``) run as three lanes of
one call.  The lanes' states lie end to end in one array: a pass of the loop
does the stage and error arithmetic of all lanes in one numpy call each, and
evaluates a stage of all lanes in one call of the field's ``rows`` function
on an (N, dim) stack, which ``eval_R``/``eval_F``/``reduced_R`` accept.  A
single lane calls the field on its 1-d row, which is cheaper than a stack of
one.  When a rows call raises (a family whose ``_mgf_integral`` rejects
arrays, or a lane outside the field's domain), the rows are evaluated one
at a time, so each lane's stage fails exactly where it would alone, and a
lane whose stage fails drops out of the pass's remaining stages.

One ``model.quiet_fp`` (an np.errstate plus a flag that tells
``eval_R``/``eval_F``/``reduced_R`` to skip their own) covers the whole run.
The seven stage derivatives of a pass are rows of one array, and the stage
and error combinations reduce it along the stage axis in the order of the
tableau, so the trajectories are the same bits as a term-by-term sum.
Fields call ``eval_R``/``eval_F``/``reduced_R`` through this module's
globals, and ``perfbench/tracing.py`` counts evaluations by wrapping them; a
rows call counts once.
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


# errors of a field evaluation that reject the stage (the field is undefined
# there); a stacked rows call that raises these, or TypeError (a family that
# rejects arrays), is redone row by row
_FIELD_ERRORS = (DomainError, FloatingPointError, ValueError, ZeroDivisionError, OverflowError)
_ROW_ERRORS = _FIELD_ERRORS + (TypeError,)


def _eval_or_none(field, y):
    """The field at y, or None when it raises or is non-finite.

    The caller holds ``quiet_fp`` (or its own np.errstate).
    """
    try:
        f = np.asarray(field(y))
    except _FIELD_ERRORS:
        return None
    if not np.isfinite(f).all():
        return None
    return f


def _field_rows(field, rows, ys, lanes):
    """The field at the rows of ``lanes`` lanes, laid end to end in ys.

    Returns the derivatives laid out the same way when the field is defined
    and finite at every row.  Otherwise returns a list with, per lane, its
    row's value, None (the field raised one of ``_FIELD_ERRORS`` or went
    non-finite: a rejected stage), or the exception of another kind that
    the field raised there.  A single lane's row is passed to ``field`` as
    the 1-d row it is.  Several rows go to ``rows`` as one (lanes, dim)
    stack, or, without ``rows`` or when that call raises ``_ROW_ERRORS``,
    to ``field`` one at a time, so that each row fails where it would alone.
    """
    if lanes == 1:
        try:
            f = _eval_or_none(field, ys)
        except Exception as exc:  # ends this lane only; raised by the caller
            return [exc]
        return [None] if f is None else f
    ys = ys.reshape(lanes, -1)
    if rows is not None:
        try:
            fs = np.asarray(rows(ys))
        except _ROW_ERRORS:
            pass
        else:
            finite = np.isfinite(fs)
            if finite.all():
                return fs.reshape(-1)
            return [f if ok else None for f, ok in zip(fs, finite.all(axis=1))]
    out = []
    for y in ys:
        try:
            out.append(_eval_or_none(field, y))
        except Exception as exc:
            out.append(exc)
    if any(f is None or isinstance(f, Exception) for f in out):
        return out
    return np.concatenate(out)


class _Lane:
    """The state of one solve in the lane loop."""

    __slots__ = ("u0", "y", "f", "t", "h", "eq_run", "ts", "ys", "fs", "status", "error")

    def __init__(self, u0, y, f, h):
        self.u0, self.y, self.f = u0, y, f
        self.t, self.h, self.eq_run = 0.0, h, 0
        self.ts, self.ys, self.fs = [0.0], [y], [f]
        self.status = self.error = None


@quiet_fp()
def _lanes(field: Callable, starts, opts: SolveOptions, rate_dim: Optional[int] = None,
           rows: Optional[Callable] = None) -> list:
    """Adaptive DP5(4) loop shared by all solvers, advancing one lane per start.

    Each lane is the solve that ``_integrate`` would make from its start,
    with the same steps and bits; a lane keeps its own t, step size, error
    control, equilibrium run and status, in Python floats.  One pass of the
    loop tries one step in every running lane.  The lanes' states lie end to
    end in one array, so the stage and error arithmetic of all lanes is one
    numpy call each, and ``_field_rows`` evaluates the stage of all lanes at
    once (``rows`` maps (L, dim) rows to their derivatives).  A lane whose
    stage fails drops out of the pass's remaining stages.  Returns per start
    its RiccatiSolution, or the exception that ended it (a DomainError when
    the field is undefined at the start).  One ``quiet_fp`` covers the run.
    """
    Y0 = np.array(starts)
    dim = Y0.shape[1]
    nr = rate_dim if rate_dim is not None else dim
    T = opts.T
    t_stop = T - 1e-14 * max(1.0, T)
    atol, rtol = opts.atol, opts.rtol
    hmax, hmin = opts.effective_max_step, _step_floor(T)
    safety, order_exp = 0.9, 0.2

    F0 = _field_rows(field, rows, Y0.reshape(-1), len(Y0))
    if isinstance(F0, np.ndarray):
        F0 = F0.reshape(len(Y0), dim)
    lanes, live = [], []
    for u0, y, f in zip(starts, Y0, F0):
        lane = _Lane(u0, y, f, min(hmax, T / 100.0))
        if f is None or isinstance(f, Exception):
            lane.error = f if f is not None else \
                DomainError("vector field undefined at the initial condition")
        else:
            live.append(lane)
        lanes.append(lane)
    dtype = np.result_type(Y0, *{lane.f.dtype for lane in live}, float)

    while live:
        running = []
        for lane in live:
            if lane.t >= t_stop:
                lane.status = SolveStatus(SolveStatus.COMPLETED)
                continue
            lane.h = min(lane.h, T - lane.t, hmax)
            if lane.h < hmin:
                lane.status = _classify_collapse(lane.t, lane.y, lane.f, opts, nr,
                                                 lane.ts, lane.ys)
                continue
            running.append(lane)
        live = running
        n = len(running)
        if not n:
            break

        # the lanes' states and derivatives end to end, and each lane's h once
        # per component (a float for one lane)
        if n == 1:
            y, h, f = running[0].y, running[0].h, running[0].f
        else:
            y = np.concatenate([lane.y for lane in running])
            h = np.repeat([lane.h for lane in running], dim)
            f = np.concatenate([lane.f for lane in running])
        # stage derivatives, one row per stage; a fresh array per pass, so
        # accepted rows can be kept without copies
        k = np.empty((7, n * dim), dtype)
        k[0] = f
        for stage in range(1, 7):
            ystage = y + h * _combine(_A_COLS[stage], k)
            fstage = _field_rows(field, rows, ystage, n)
            if fstage.__class__ is not list:
                k[stage] = fstage
                continue
            keep = []
            for j, value in enumerate(fstage):
                if value is None:
                    running[j].h *= 0.3
                elif isinstance(value, Exception):
                    running[j].error = value
                else:
                    keep.append(j)
            running = [running[j] for j in keep]
            if not keep:
                break
            # the remaining lanes go on with the stages done so far
            k = k.reshape(7, n, dim)[:, keep].reshape(7, -1)
            y = y.reshape(n, dim)[keep].reshape(-1)
            ystage = ystage.reshape(n, dim)[keep].reshape(-1)
            n = len(keep)
            h = running[0].h if n == 1 else np.repeat([lane.h for lane in running], dim)
            k[stage] = np.concatenate([fstage[j] for j in keep])

        if running:
            # stage 6 uses the b-row (FSAL): ystage is the new state
            err = h * _combine(_E_COL, k)
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(ystage))
            sq = np.abs(err / scale) ** 2
            # one sum of squares per lane, in the order of a 1-d sum
            sq = [np.add.reduce(sq)] if n == 1 else \
                np.add.reduce(sq.reshape(n, dim), axis=1).tolist()
            f_new = k[6]
            abs_y, abs_f = np.abs(ystage).tolist(), np.abs(f_new).tolist()
        for j, lane in enumerate(running):
            en = math.sqrt(sq[j] / dim)
            if not math.isfinite(en):
                lane.h *= 0.3
                continue
            if en > 1.0:
                lane.h *= min(1.0, max(0.2, safety * en ** (-order_exp)))
                continue

            # accepted
            lane.t += lane.h
            row = j * dim
            lane.y = y = ystage[row:row + dim]
            lane.f = f = f_new[row:row + dim]
            lane.ts.append(lane.t)
            lane.ys.append(y)
            lane.fs.append(f)

            rate = max(abs_f[row:row + nr], default=0.0)
            lane.eq_run = lane.eq_run + 1 if rate < atol else 0
            if lane.eq_run >= _EQUILIBRIUM_RUN and lane.t < T:
                lane.status = SolveStatus(SolveStatus.EQUILIBRIUM, t_event=lane.t)
                # analytic continuation: psi constant, phi linear at frozen rate
                f_cont = f.copy()
                f_cont[:nr] = 0.0
                lane.ts.append(T)
                lane.ys.append(y + (T - lane.t) * f_cont)
                lane.fs.append(f_cont)
                continue

            if max(abs_y[row:row + nr], default=0.0) > opts.blowup_threshold:
                radial = float(np.real(np.vdot(y[:nr], f[:nr])))
                if radial > 0.0:
                    lane.status = SolveStatus(SolveStatus.BLOWUP,
                                              t_event=_extrapolate_blowup(lane.ts, lane.ys, nr))
                    continue

            if en == 0.0:
                lane.h = hmax
            else:
                lane.h *= min(5.0, max(0.2, safety * en ** (-order_exp)))
        live = [lane for lane in live if lane.status is None and lane.error is None]

    return [lane.error if lane.error is not None else
            RiccatiSolution(ts=np.array(lane.ts), psi=np.array(lane.ys), phi=None,
                            dpsi=np.array(lane.fs), dphi=None,
                            status=lane.status or SolveStatus(SolveStatus.COMPLETED),
                            u0=lane.u0, T=T)
            for lane in lanes]


def _integrate(field: Callable, y0: np.ndarray, opts: SolveOptions,
               rate_dim: Optional[int] = None) -> RiccatiSolution:
    """One solve of d y = field(y) from y0: the lane loop with one lane.

    ``rate_dim``: number of leading components whose rate decides
    equilibrium (and blow-up magnitude); defaults to all components.
    The whole state is returned as ``psi`` (with ``u0 = y0``), no phi.
    """
    (sol,) = _lanes(field, [y0], opts, rate_dim)
    if isinstance(sol, Exception):
        raise sol
    return sol


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
    _check_start(model, u0)
    field, _ = _full_system(model, l, lam, u0.dtype)
    z0 = np.zeros(d + 1, dtype=u0.dtype)
    z0[:d] = u0
    sol = _integrate(field, z0, opts, rate_dim=d)
    return replace(sol, psi=sol.psi[:, :d], phi=sol.psi[:, d],
                   dpsi=sol.dpsi[:, :d], dphi=sol.dpsi[:, d], u0=u0)


def _check_start(model, u0):
    if not in_domain_Y(model, u0):
        raise DomainError("u0 outside the effective domain Y")


def _full_system(model, l, lam, dtype):
    """The discounted system z = (psi, phi) -> (R(psi) - lambda, F(psi) - l),
    as a field of 1-d rows and of (N, d + 1) rows."""
    d = model.shape.d

    def field(z):
        psi = z[:d]
        out = np.empty(d + 1, dtype=dtype)
        out[:d] = eval_R(model, psi, check_domain=False) - lam
        out[d] = eval_F(model, psi, check_domain=False) - l
        return out

    def rows(z):
        psi = z[:, :d]
        out = np.empty((len(z), d + 1), dtype=dtype)
        np.subtract(eval_R(model, psi, check_domain=False), lam, out=out[:, :d])
        np.subtract(eval_F(model, psi, check_domain=False), l, out=out[:, d])
        return out

    return field, rows


def solve_reduced(model: AffineModel, g0, opts: SolveOptions) -> RiccatiSolution:
    """Integrate the reduced I-block system d g = R_I((g, 0)); no phi."""
    m = model.shape.m
    g0 = _as_initial(g0, m, name="g0")
    _check_reduced_start(model, g0)

    def field(v):
        return reduced_R(model, v, check_domain=False)

    return _integrate(field, g0, opts)


def _check_reduced_start(model, g0):
    probe = np.zeros(model.shape.d)
    probe[:model.shape.m] = np.real(g0)
    if not in_domain_Y(model, probe):
        raise DomainError("(g0, 0) outside the effective domain Y")


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
    uniform times.  When a rung misses the horizon (explosion or domain
    exit) the ladder stops there, and the return is that rung's own time
    grid, trajectory and status instead: the minimal solution diverges as
    well.
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
    field, rows = _full_system(model, float(l), lam, u0.dtype)
    z0 = np.zeros(d + 1)
    z0[:d] = u0
    sols = _eps_ladder(field, z0, m, _LADDER, ladder_opts, rate_dim=d, rows=rows,
                       check=lambda z: _check_start(model, z[:d]))
    finest = sols[-1]
    if not finest.status.reached_horizon:
        return finest.ts, finest.psi[:, :d], finest.psi[:, d], finest.status
    runs = [sol.eval(ts) for sol in sols]
    psi = _ladder_limit([run[:, :d] for run in runs], ts, u0)
    phi = _ladder_limit([run[:, d] for run in runs], ts, 0.0)
    return ts, psi, phi, finest.status


def _eps_ladder(field: Callable, u0: np.ndarray, m: int, eps_ladder, opts: SolveOptions,
                rate_dim: Optional[int] = None, rows: Optional[Callable] = None,
                check: Optional[Callable] = None) -> list:
    """Solves of d y = field(y) from u0 - eps on the first m coordinates, one
    per eps, run as lanes of one ``_lanes`` call.

    ``check(start)`` may raise to refuse a start.  Returns the solutions in
    ladder order up to and including the first one that misses the horizon.
    A rung's exception is raised where a rung-by-rung ladder would raise it:
    at that rung, once every earlier rung has reached the horizon.
    """
    results, starts = [], []
    for eps in eps_ladder:
        start = u0.copy()
        start[:m] -= eps
        try:
            if check is not None:
                check(start)
        except Exception as exc:
            results.append(exc)
        else:
            results.append(len(starts))
            starts.append(start)
    solved = _lanes(field, starts, opts, rate_dim, rows) if starts else []
    sols = []
    for result in results:
        result = solved[result] if isinstance(result, int) else result
        if isinstance(result, Exception):
            raise result
        sols.append(result)
        if not result.status.reached_horizon:
            break
    return sols


def _ladder_limit(runs, ts, start) -> np.ndarray:
    """Richardson limit of the ladder's three runs sampled on ts, with the
    exact value ``start`` at t = 0, where the ladder's limit is its start."""
    out = np.array(_richardson(*runs))
    if ts[0] == 0.0:
        out[0] = start
    return out


def _richardson(g1, g2, g3):
    d21 = float(np.abs(g2 - g1).max())
    d32 = float(np.abs(g3 - g2).max())
    if d32 < 1e-14 or d21 < 1e-14:
        return g3
    r = min(d32 / d21, 0.9)
    return g3 + (g3 - g2) * (r / (1.0 - r))
