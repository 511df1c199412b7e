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
one call.  A pass of the loop evaluates a stage of all lanes in one call of
the field's ``rows`` function on an (N, dim) stack, which
``eval_R``/``eval_F``/``reduced_R`` accept.  A single lane calls the field
on its 1-d row, which is cheaper than a stack of one.  When a rows call
raises (a family whose ``_mgf_integral`` rejects arrays, or a lane outside
the field's domain), the rows are evaluated one at a time, so each lane's
stage fails exactly where it would alone, and a lane whose stage fails
drops out of the pass's remaining stages.

On the small systems the library meets, a step is bound by per-call cost,
not by arithmetic: about 1 us for a numpy ufunc or a matmul on a tiny
array, against 0.1-0.3 us for an operation on a numpy scalar.  So the
point evaluation of a lone lane (``_eval_or_none`` on the field, then
``eval_R``/``eval_F``/``reduced_R`` and ``lk_integral`` on the 1-d row) does
its arithmetic on numpy scalars (``u[i]``, np.float64, np.complex128).  It
allocates only its results, enters no errstate inside ``quiet_fp``, reads
the finiteness of the row's few entries as Python numbers, and keeps from
the rows path only the BLAS products ``beta_I[i] @ u``, ``u @ (a @ u)`` and
``b @ u``, for every d: for d >= 2 the BLAS dot fuses multiply-adds, so a
Python sum would round differently.  The field's arithmetic does not move
to Python numbers: Python's complex division rounds differently from
numpy's, and a Python float's ``x ** 2`` raises OverflowError where numpy
gives inf.

The stepper's own arithmetic does, in small passes.  A pass of at most
``_FLOAT_WIDTH`` = 7 floats (lanes x dim, complex entries counting twice),
which is every lone solve of the built-ins and every epsilon ladder on rows
of at most 2 entries, runs on Python numbers (``_float_pass``).  It reads
each stage derivative row once, with the ``tolist()`` that also serves its
finiteness test, and forms the stage sums component by component, term by
term from zero in the order of the tableau (``_tableau_sum``).  A real pass
does all of its arithmetic so, the error norm included.  A complex pass
sums Python complex numbers and leaves the products with h and the error
norm to numpy, whose complex arithmetic differs from the per-part float
arithmetic (numpy 2.4, x86-64 with AVX-512): ``h * z`` of a complex array
matches (h*re, h*im) on random values but not in the sign of a zero part or
where a part is inf; ``np.abs`` of a complex array differs from ``abs()``
of the scalar on 26-35% of 20,000 random values, and a complex array
divided by a float from the per-part quotients on about 42%. A wider pass
stays on stacked arrays (``_stacked_pass``): the seven stage derivatives
are rows of one array, and ``_combine`` reduces them along the stage axis
in the order of the tableau.  Both sides give the bits of a term-by-term
sum, and numpy's 1-d sum of fewer than 8 squares adds from left to right as
the float pass does, so a trajectory does not depend on the side that
stepped it.  Alternating both sides in one process, Python floats are
faster up to about 10 real floats, and slower from 8 floats of two complex
lanes.  On the ``perfbench`` ``transforms`` workload (10 alternating pairs
against the parent commit 17d8d63, 2-CPU x86_64), ``job_ms`` fell from 542
to 461 ms (0.85x, won 9 of 10; the parent's quartiles 487-607 ms).

One ``model.quiet_fp`` (an np.errstate plus a flag that tells
``eval_R``/``eval_F``/``reduced_R`` to skip their own) covers the whole run.
Fields call ``eval_R``/``eval_F``/``reduced_R`` through this module's
globals, and ``perfbench/tracing.py`` counts evaluations by wrapping them; a
rows call counts once.
"""

from __future__ import annotations

import cmath
import math
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

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
        """Cubic Hermite interpolation of psi at times t (scalar or array).

        Raises ConfigError for a time outside the computed trajectory, nan
        included.
        """
        return _hermite_eval(self.ts, self.psi, self.dpsi, t)

    def eval_phi(self, t):
        """Cubic Hermite interpolation of phi at times t (scalar or array).

        Raises ConfigError for a time outside the computed trajectory (nan
        included), or when the solution carries no phi (a ``solve_reduced``
        result).
        """
        if self.phi is None:
            raise ConfigError("this solution carries no phi component")
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
    # written so that a nan time fails too
    if not (np.all(tq >= ts[0] - 1e-12) and np.all(tq <= ts[-1] + 1e-12)):
        raise ConfigError("interpolation time outside the computed trajectory")
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
# A pass of at most this many floats (lanes x dim, doubled for complex) runs
# its stage arithmetic on Python numbers (``_float_pass``), a wider one on
# stacked arrays (``_stacked_pass``).  Measured: Python floats are faster up
# to about 10 real floats, and slower from 8 floats of two complex lanes.
# Seven also keeps a real lane's sum of squares below the 8 entries from
# which numpy's 1-d reduction stops adding from left to right.
_FLOAT_WIDTH = 7


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
    fv = _eval_values(field, y)
    return None if fv is None else fv[0]


def _eval_values(field, y):
    """``_eval_or_none`` with the entries of the field's value read as
    Python numbers: (f, f.tolist()), or None."""
    try:
        f = np.asarray(field(y))
    except _FIELD_ERRORS:
        return None
    # a 1-d row's entries read as Python numbers: cheaper than np.isfinite
    # and a reduction on the few entries of one point, and the one read a
    # float pass makes of a stage's derivatives
    values = f.tolist()
    if not (all(map(cmath.isfinite, values)) if f.ndim == 1 else np.isfinite(f).all()):
        return None
    return f, values


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
    loop tries one step in every running lane: ``_float_pass`` when the
    pass is at most ``_FLOAT_WIDTH`` floats wide, ``_stacked_pass``
    otherwise, with the same bits.  ``_field_rows`` evaluates the stage of
    all lanes at once (``rows`` maps (L, dim) rows to their derivatives).  A
    lane whose stage fails drops out of the pass's remaining stages.
    Returns per start its RiccatiSolution, or the exception that ended it (a
    DomainError when the field is undefined at the start).  One ``quiet_fp``
    covers the run.
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
    lane_width = dim * (2 if dtype.kind == "c" else 1)   # floats per lane

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
        if not running:
            break

        step = _float_pass if len(running) * lane_width <= _FLOAT_WIDTH else _stacked_pass
        running, ystage, f_new, sq, abs_y, abs_f = step(field, rows, running, dim, dtype,
                                                        atol, rtol)
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


def _drop_failed(running, fstage):
    """Apply a stage's per-lane outcomes (see ``_field_rows``) to the lanes:
    a rejected stage shrinks the lane's step, an exception ends the lane.
    Returns the indices of the lanes that go on."""
    keep = []
    for j, value in enumerate(fstage):
        if value is None:
            running[j].h *= 0.3
        elif isinstance(value, Exception):
            running[j].error = value
        else:
            keep.append(j)
    return keep


def _stacked_pass(field, rows, running, dim, dtype, atol, rtol):
    """One step of every running lane, the stage and error arithmetic of all
    lanes one numpy call each on their states laid end to end.

    Returns the lanes whose stages all succeeded, then, laid out the same
    way, their new states and derivatives, and per lane the sum of squares
    of the scaled error, and the magnitudes of the new state and derivative
    entries as lists.
    """
    n = len(running)
    # the lanes' states and derivatives end to end
    if n == 1:
        y, f = running[0].y, running[0].f
    else:
        y = np.concatenate([lane.y for lane in running])
        f = np.concatenate([lane.f for lane in running])
    h = _step_sizes(running, dim)
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
        keep = _drop_failed(running, fstage)
        running = [running[j] for j in keep]
        if not keep:
            return running, None, None, None, None, None
        # the remaining lanes go on with the stages done so far
        k = k.reshape(7, n, dim)[:, keep].reshape(7, -1)
        y = y.reshape(n, dim)[keep].reshape(-1)
        ystage = ystage.reshape(n, dim)[keep].reshape(-1)
        n = len(keep)
        h = _step_sizes(running, dim)
        k[stage] = np.concatenate([fstage[j] for j in keep])

    # stage 6 uses the b-row (FSAL): ystage is the new state
    sq, abs_y, abs_f = _error_norms(h * _combine(_E_COL, k), y, ystage, k[6], n, dim,
                                    atol, rtol)
    return running, ystage, k[6], sq, abs_y, abs_f


def _error_norms(err, y, ystage, f_new, n, dim, atol, rtol):
    """Per lane the sum of squares of err scaled by atol + rtol * max(|y|,
    |ystage|), and the magnitudes of ystage and f_new, on numpy arrays."""
    abs_y = np.abs(ystage)
    scale = atol + rtol * np.maximum(np.abs(y), abs_y)
    sq = np.abs(err / scale) ** 2
    # one sum of squares per lane, in the order of a 1-d sum
    sq = [np.add.reduce(sq)] if n == 1 else \
        np.add.reduce(sq.reshape(n, dim), axis=1).tolist()
    return sq, abs_y.tolist(), np.abs(f_new).tolist()


def _float_pass(field, rows, running, dim, dtype, atol, rtol):
    """``_stacked_pass`` for a pass of at most ``_FLOAT_WIDTH`` floats, with
    the same returns and bits: the stage combinations run on Python
    numbers, component by component in the order of the tableau.

    A real pass does its whole stage and error arithmetic so.  A complex
    one sums Python complex numbers, whose parts are the sums of
    ``_combine`` (see ``_tableau_sum``); the products with h and the error
    norm stay on numpy, whose complex multiply, division and magnitude can
    differ from the per-part float arithmetic.
    """
    n = len(running)
    cplx = dtype.kind == "c"
    sums = _TABLEAU_SUMS[dtype.kind]
    if n == 1:
        y, f = running[0].y, running[0].f
    else:
        y = np.concatenate([lane.y for lane in running])
        f = np.concatenate([lane.f for lane in running])
    k = [np.asarray(f, dtype).tolist()]   # the stage derivatives, as Python numbers
    if cplx:
        h = _step_sizes(running, dim)
    else:
        yv = np.asarray(y, dtype).tolist()
        hv = [lane.h for lane in running for _ in range(dim)]
    for stage in range(1, 7):
        acc = map(sums[stage], *k)
        if cplx:
            ystage = y + h * np.array(list(acc))
        else:
            ysv = [yc + hc * a for yc, hc, a in zip(yv, hv, acc)]
            ystage = np.array(ysv)
        if n == 1:
            try:
                fstage = _eval_values(field, ystage)
            except Exception as exc:  # ends the lane; raised by the caller
                fstage = exc
            if fstage is None or isinstance(fstage, Exception):
                _drop_failed(running, [fstage])
                return [], None, None, None, None, None
            # the one read of the row as Python numbers, made for its
            # finiteness test
            f_new, values = fstage
            if f_new.shape != (dim,) or f_new.dtype != dtype:
                f_new = _as_row(f_new, dim, dtype)
                values = f_new.tolist()
        else:
            fstage = _field_rows(field, rows, ystage, n)
            if fstage.__class__ is list:
                keep = _drop_failed(running, fstage)
                running = [running[j] for j in keep]
                if not keep:
                    return running, None, None, None, None, None
                # the remaining lanes go on with the stages done so far
                k = [_keep(row, keep, dim) for row in k]
                if cplx:
                    y = y.reshape(n, dim)[keep].reshape(-1)
                    ystage = ystage.reshape(n, dim)[keep].reshape(-1)
                    h = _step_sizes(running, dim)
                else:
                    yv, hv, ysv = (_keep(v, keep, dim) for v in (yv, hv, ysv))
                    ystage = np.array(ysv)
                n = len(keep)
                fstage = np.concatenate([fstage[j] for j in keep])
            f_new = _as_row(fstage, n * dim, dtype)
            values = f_new.tolist()
        k.append(values)

    # stage 6 uses the b-row (FSAL): ystage is the new state
    e = map(sums[7], *k)
    if cplx:
        sq, abs_y, abs_f = _error_norms(h * np.array(list(e)), y, ystage, f_new, n, dim,
                                        atol, rtol)
        return running, ystage, f_new, sq, abs_y, abs_f
    abs_y = list(map(abs, ysv))
    sq = []
    for j in range(n):
        s = None
        for c in range(j * dim, (j + 1) * dim):
            a, b = abs(yv[c]), abs_y[c]
            # |h * e / scale| ** 2, with the nan of np.maximum in the scale
            q = hv[c] * next(e) / (atol + rtol * (a if a >= b or a != a else b))
            s = q * q if s is None else s + q * q
        sq.append(s)
    return running, ystage, f_new, sq, abs_y, list(map(abs, values))


def _tableau_sum(weights, zero):
    """The function of len(weights) numbers k_j that returns
    zero + sum_j weights[j] * k_j, adding term by term as ``_combine`` does.

    Its code is generated with the weights as literals: the unrolled sum
    runs about twice as fast as a loop over the weights.  From ``0.0`` on
    floats it has the bits of ``_combine``.  From ``0j`` on Python complex
    numbers it has them on each part: a float times a complex number (as
    complex numbers before Python 3.14, part by part since) differs from the
    per-part products at most in the sign of a zero part, and the running
    sum, whose parts start from 0.0 and so are never -0.0, cannot see that
    sign.
    """
    args = ", ".join(f"k{j}" for j in range(len(weights)))
    terms = "".join(f" + {w!r} * k{j}" for j, w in enumerate(weights))
    return eval(f"lambda {args}: {zero}{terms}")


# By dtype kind, the stage sums of the tableau (stages 1 to 6) and its error
# sum (index 7), for the float passes.
_TABLEAU_SUMS = {kind: [None, *(_tableau_sum(row.tolist(), zero) for row in _A[1:]),
                        _tableau_sum(_E.tolist(), zero)]
                 for kind, zero in (("f", "0.0"), ("c", "0j"))}


def _as_row(f, size, dtype):
    """f as a 1-d array of size entries of dtype: f itself, or a fresh array
    that f is assigned to as to a row of the stacked stage array."""
    if f.shape == (size,) and f.dtype == dtype:
        return f
    out = np.empty(size, dtype)
    out[...] = f
    return out


def _step_sizes(running, dim):
    """Each lane's h once per component, lanes end to end; a float for one
    lane."""
    return running[0].h if len(running) == 1 else np.repeat([lane.h for lane in running], dim)


def _keep(values, keep, dim):
    """The dim-long blocks of values at the indices in keep."""
    return [x for j in keep for x in values[j * dim:(j + 1) * dim]]


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
    u0 = u0.astype(complex) if u0.dtype.kind == "c" else u0.astype(float)
    if not np.isfinite(u0).all():
        raise ConfigError(f"{name} must be finite")
    return u0


def solve_riccati(model: AffineModel, u0, opts: SolveOptions) -> RiccatiSolution:
    """Integrate d psi = R(psi), d phi = F(psi) from psi(0) = u0, phi(0) = 0."""
    return _solve_full(model, u0, opts, 0.0, np.zeros(model.shape.d))


def solve_tilted(model: AffineModel, l: float, lam, u0, opts: SolveOptions) -> RiccatiSolution:
    """Integrate the discounted system d psi = R(psi) - lambda, d phi = F(psi) - l.

    Raises ConfigError when l or lambda is complex or not finite.
    """
    d = model.shape.d
    return _solve_full(model, u0, opts, float(_real_finite(l, "l", ())),
                       _real_finite(lam, "lam", d))


def _solve_full(model, u0, opts, l, lam):
    d = model.shape.d
    u0 = _as_initial(u0, d)
    _check_start(model, u0)
    field, _ = _full_system(model, l, lam, u0.dtype)
    z0 = np.zeros(d + 1, dtype=u0.dtype)
    z0[:d] = u0
    sol = _integrate(field, z0, opts, rate_dim=d)
    return replace(sol, psi=sol.psi[:, :d], phi=sol.psi[:, d],
                   dpsi=sol.dpsi[:, :d], dphi=sol.dpsi[:, d], u0=u0)


def _real_finite(value, name, shape):
    """value as a float array of the given shape; ConfigError when it is
    complex or has a non-finite entry."""
    value = np.asarray(value)
    if value.dtype.kind == "c":
        raise ConfigError(f"{name} must be real")
    value = value.astype(float).reshape(shape)
    if not np.isfinite(value).all():
        raise ConfigError(f"{name} must be finite")
    return value


def _check_start(model, u0):
    if not in_domain_Y(model, u0):
        raise DomainError("u0 outside the effective domain Y")


def _full_system(model, l, lam, dtype):
    """The discounted system z = (psi, phi) -> (R(psi) - lambda, F(psi) - l),
    as a field of 1-d rows and of (N, d + 1) rows."""
    d = model.shape.d

    lams = tuple(lam)  # numpy scalars: the point path subtracts entry by entry

    def field(z):
        psi = z[:d]
        R = eval_R(model, psi, check_domain=False)
        out = np.empty(d + 1, dtype=dtype)
        for i, lam_i in enumerate(lams):
            out[i] = R[i] - lam_i
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
    well.  Raises ConfigError when u0, l or lambda is complex or not finite.
    """
    d, m = model.shape.d, model.shape.m
    u0 = _real_finite(u0, "u0", d)
    l = float(_real_finite(l, "l", ()))
    lam = np.zeros(d) if lam is None else _real_finite(lam, "lam", d)
    ts = np.linspace(0.0, opts.T, 201)
    # tight per-step tolerances: near a square-root boundary step errors act
    # as time shifts of the escaping branch and accumulate
    ladder_opts = SolveOptions(T=opts.T, rtol=1e-12, atol=1e-15,
                               max_step=opts.effective_max_step,
                               blowup_threshold=opts.blowup_threshold)
    field, rows = _full_system(model, l, lam, u0.dtype)
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
