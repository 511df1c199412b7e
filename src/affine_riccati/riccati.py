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
                 (phi continues linearly at its frozen rate).  Its time is
                 that of the first point of that run of points (the start
                 included), where the equilibrium began.

Cost of a step: one DP5(4) loop, ``_lanes``, advances N solves as lanes,
and a plain solve (``_integrate``) is its case N = 1.  Each lane keeps its
own t, step size, error control, equilibrium run and status in Python
floats.  A pass of the loop tries one step (``_step``) in each running
lane, and each stage of that step calls the field on the lane's own 1-d
row.  So each lane's steps and bits are those of its lone solve; the three
rungs of every epsilon ladder (``_eps_ladder``) run as three lanes of one
call.  A stage where the field raises one of ``_FIELD_ERRORS`` or goes
non-finite rejects that lane's step; an exception of another kind ends
that lane alone.  The ladders, 2 or 3 lanes a pass, are the loop's only
callers with more than one lane, and it has no path that batches the
stages of many lanes into one call: a run of 100 or 1,000 lanes costs
about what as many lone solves cost.

On the small systems the library meets, a step is bound by per-call cost,
not by arithmetic: about 1 us for a numpy ufunc or a matmul on a tiny
array, against 0.1-0.3 us for an operation on a numpy scalar.  So each
stage of a step makes one model call and little else.  The point
evaluation of a lane (``_lane_values`` on the field, then the model on the
1-d row) runs the model's point closures (``AffineModel._point_fns``: one
(R, F) pair per dtype kind, with every operand bound once) on numpy scalars
(``u[i]``, np.float64, np.complex128).  It allocates only its results,
enters no errstate inside ``quiet_fp``, and reads the finiteness of the
row's few entries as Python numbers.  A product of one term (every product
of a d = 1 model) is ``zero + y[0] * x[0]`` on numpy scalars, with the bits
of the BLAS call x @ y: the call's sum starts from +0.0, so a bare product
would keep a -0.0 that the call drops.  Measured on numpy 2.4.6 with
OpenBLAS on x86-64 with AVX-512, it matched the call on 200,000 random real
and 50,000 random complex pairs, on every pair of real special entries
(+-0, +-inf, +-NaN, +-1e300, +-5e-324), and on every pair of complex ones
in which no part is NaN or x is a real coefficient.  So R, and F on a real
row, have the call's bits everywhere; F on a complex row with a NaN part
can differ only in the sign of a NaN.  A product of two or more terms keeps
its BLAS call, whose fused multiply-adds round differently from a sum of
scalar products.  The field's arithmetic does not move to Python numbers:
Python's complex division rounds differently from numpy's, and a Python
float's ``x ** 2`` raises OverflowError where numpy gives inf.

The stepper's own arithmetic does, in one form for real and complex lanes.
``_step`` reads the state and each stage derivative row once as Python
numbers, with the ``tolist()`` that also serves a row's finiteness test,
and forms the stage states, error norm and magnitudes on them; the stage
states and error sums are generated code with the tableau's weights as
literals (``_tableau``).  A real lane has the
bits of float arithmetic throughout; a complex lane's products, quotients
and magnitudes round as Python's complex arithmetic and ``math.hypot`` do,
which differ from numpy's at the rounding level, and the closed-form tests
bound its trajectories.

One ``model.quiet_fp`` (an np.errstate plus a flag that tells
``eval_R``/``eval_F``/``reduced_R`` to skip their own) covers the whole run.
The model call of a field evaluation is ``eval_R`` (the full system) or
``reduced_R`` (a model's reduced field, through ``diagnostics``' globals),
called through the module globals, where ``perfbench/tracing.py`` counts
evaluations by wrapping them; each lane's call counts once.  The full
system takes F from the model's bound F closure, not from ``eval_F``: that
is the ``eval_F`` of a run inside ``quiet_fp`` without its shape check.
"""

from __future__ import annotations

import cmath
import math
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import cache
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DomainError
from .model import AffineModel, eval_R, in_domain_Y, quiet_fp, reduced_R

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
    """Stepper configuration for one solve; the step floor is 1e-13 * max(1, T).

    The first step is never shorter than the floor, and only a step that
    error control shrank below it, not a last step cut short by the
    horizon, counts as a step collapse.
    """

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
            return f"BlowUp t*≈{self.t_event:.6g}"
        if self.kind == self.LEFT_DOMAIN:
            return f"LeftDomain t_exit≈{self.t_event:.6g}"
        return f"Equilibrium t_eq≈{self.t_event:.6g}"


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
        solution carries none.  Raises ConfigError for a complex solution,
        since the columns are real.
        """
        if self.psi.dtype.kind == "c":
            raise ConfigError("to_csv writes real columns; this solution is complex")
        phi = np.zeros(len(self.ts)) if self.phi is None else self.phi
        columns = ["t", *(f"psi_{k + 1}" for k in range(self.psi.shape[1])), "phi"]
        _write_csv(fh, columns, np.column_stack([self.ts, self.psi, phi]),
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
# errors of a field evaluation that reject the stage (the field is undefined
# there)
_FIELD_ERRORS = (DomainError, FloatingPointError, ValueError, ZeroDivisionError, OverflowError)


def _lane_values(field, y):
    """The field at the 1-d row y, with its entries read as Python numbers:
    (f, f.tolist()); None when the field raises one of ``_FIELD_ERRORS`` or
    is non-finite there (a rejected stage); or the exception of another kind
    that it raised, which ends the lane.

    The caller holds ``quiet_fp`` (or its own np.errstate).
    """
    try:
        f = np.asarray(field(y))
    except _FIELD_ERRORS:
        return None
    except Exception as exc:  # ends this lane only; raised by the caller
        return exc
    # a 1-d row's entries read as Python numbers: cheaper than np.isfinite
    # and a reduction on the few entries of one point, and the one read the
    # stepper makes of a stage's derivatives
    values = f.tolist()
    if not (all(map(cmath.isfinite, values)) if f.ndim == 1 else np.isfinite(f).all()):
        return None
    return f, values


def _eval_or_none(field, y):
    """The field at y, or None when it raises one of ``_FIELD_ERRORS`` or is
    non-finite; other exceptions propagate.

    The caller holds ``quiet_fp`` (or its own np.errstate).
    """
    fv = _lane_values(field, y)
    if isinstance(fv, Exception):
        raise fv
    return None if fv is None else fv[0]


class _Lane:
    """The state of one solve in the lane loop."""

    __slots__ = ("u0", "y", "f", "t", "h", "eq_run", "eq_t", "ts", "ys", "fs", "status",
                 "error")

    def __init__(self, u0, y, f, h):
        self.u0, self.y, self.f = u0, y, f
        # eq_run counts the accepted steps of the current run of points whose
        # rate is below atol, and eq_t is the time of its first point (None
        # while the last point is not in such a run)
        self.t, self.h, self.eq_run, self.eq_t = 0.0, h, 0, None
        self.ts, self.ys, self.fs = [0.0], [y], [f]
        self.status = self.error = None


@quiet_fp()
def _lanes(field: Callable, starts, opts: SolveOptions, rate_dim: Optional[int] = None) -> list:
    """Adaptive DP5(4) loop shared by all solvers, advancing one lane per start.

    Each lane is the solve that ``_integrate`` would make from its start,
    with the same steps and bits; a lane keeps its own t, step size, error
    control, equilibrium run and status, in Python floats.  One pass of the
    loop tries one step (``_step``) in every running lane, which calls the
    field on the lane's own 1-d row.  Returns per start its RiccatiSolution,
    or the exception that ended it (a DomainError when the field is
    undefined at the start).  One ``quiet_fp`` covers the run.
    """
    Y0 = np.array(starts)
    dim = Y0.shape[1]
    nr = rate_dim if rate_dim is not None else dim
    T = opts.T
    t_stop = T - 1e-14 * T
    atol, rtol = opts.atol, opts.rtol
    hmax, hmin = opts.effective_max_step, _step_floor(T)
    safety, order_exp = 0.9, 0.2
    # a first step below the step floor would read as a collapse at t = 0
    h0 = min(hmax, max(T / 100.0, hmin))

    lanes, live = [], []
    for u0, y in zip(starts, Y0):
        fv = _lane_values(field, y)
        lane = _Lane(u0, y, fv[0] if fv.__class__ is tuple else None, h0)
        if lane.f is None:
            lane.error = fv if fv is not None else \
                DomainError("vector field undefined at the initial condition")
        else:
            if np.abs(lane.f[:nr]).max(initial=0.0) < atol:
                lane.eq_t = 0.0
            live.append(lane)
        lanes.append(lane)
    dtype = np.result_type(Y0, *{lane.f.dtype for lane in live}, float)

    while live:
        for lane in live:
            if lane.t >= t_stop:
                lane.status = SolveStatus(SolveStatus.COMPLETED)
                continue
            if lane.h < hmin:
                lane.status = _classify_collapse(lane.t, lane.y, lane.f, opts, nr,
                                                 lane.ts, lane.ys)
                continue
            # a last step shortened to the horizon may be below the floor
            lane.h = min(lane.h, T - lane.t, hmax)
            step = _step(field, lane, dim, dtype, atol, rtol)
            if step is None:
                continue
            y, f, sq, abs_y, abs_f = step
            en = math.sqrt(sq / dim)
            if not math.isfinite(en):
                lane.h *= 0.3
                continue
            if en > 1.0:
                lane.h *= min(1.0, max(0.2, safety * en ** (-order_exp)))
                continue

            # accepted
            lane.t += lane.h
            lane.y, lane.f = y, f
            lane.ts.append(lane.t)
            lane.ys.append(y)
            lane.fs.append(f)

            if max(abs_f[:nr], default=0.0) < atol:
                lane.eq_run += 1
                if lane.eq_t is None:
                    lane.eq_t = lane.t
            else:
                lane.eq_run, lane.eq_t = 0, None
            if lane.eq_run >= _EQUILIBRIUM_RUN and lane.t < T:
                # the equilibrium began at the first point of the run
                lane.status = SolveStatus(SolveStatus.EQUILIBRIUM, t_event=lane.eq_t)
                # analytic continuation: psi constant, phi linear at frozen rate
                f_cont = f.copy()
                f_cont[:nr] = 0.0
                lane.ts.append(T)
                lane.ys.append(y + (T - lane.t) * f_cont)
                lane.fs.append(f_cont)
                continue

            if max(abs_y[:nr], default=0.0) > opts.blowup_threshold:
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


def _step(field, lane, dim, dtype, atol, rtol):
    """One DP5(4) step of a lane from (lane.y, lane.f) with its step lane.h.

    Returns the new state and its derivative, the sum of squares of the
    error scaled by atol + rtol * max(|y|, |y_new|), and the magnitudes of
    the new state's and derivative's entries as lists.  Returns None when a
    stage failed: a rejected stage shrinks the lane's step, an exception of
    another kind becomes the lane's error.

    Real and complex lanes run the same lines on Python numbers: the stage
    states component by component, with the sums term by term from zero in
    the order of the tableau (``_tableau``), and the squares of the
    error norm added from left to right as ``q.real * q.real + q.imag *
    q.imag``, which is ``q * q + 0.0`` on a float.  The kinds differ only in
    the zero of the sums and in ``_MAGNITUDE``.
    """
    sums, mag = _tableau(dim, dtype.kind), _MAGNITUDE[dtype.kind]
    h = lane.h
    # the state and the stage derivatives, as Python numbers
    yv = np.asarray(lane.y, dtype).tolist()
    k = [np.asarray(lane.f, dtype).tolist()]
    for stage in range(1, 7):
        ysv = sums[stage](yv, h, *k)
        ystage = np.array(ysv)
        fstage = _lane_values(field, ystage)
        if fstage.__class__ is not tuple:
            if fstage is None:
                lane.h *= 0.3
            else:
                lane.error = fstage
            return None
        # the one read of the row as Python numbers, made for its
        # finiteness test
        f_new, values = fstage
        if f_new.shape != (dim,) or f_new.dtype != dtype:
            f_new = np.empty(dim, dtype)
            f_new[...] = fstage[0]
            values = f_new.tolist()
        k.append(values)

    # stage 6 uses the b-row (FSAL): ystage is the new state
    abs_y = list(map(mag, ysv))
    sq = 0.0
    for yc, b, ec in zip(yv, abs_y, sums[7](*k)):
        a = mag(yc)
        # |h * e / scale| ** 2, with the nan of np.maximum in the scale
        q = h * ec / (atol + rtol * (a if a >= b or a != a else b))
        sq += q.real * q.real + q.imag * q.imag
    return ystage, f_new, sq, abs_y, list(map(mag, values))


@cache
def _tableau(dim, kind):
    """The DP5(4) sums on states of dim entries of the dtype kind, as a tuple:
    at index s = 1 to 6 the function of (y, h, k_0, ..., k_{s-1}) that
    returns the stage state ``y[c] + h * (zero + sum_j a_sj * k_j[c])``, at
    index 7 the function of (k_0, ..., k_6) that returns the error sum
    ``zero + sum_j e_j * k_j[c]``, each as a list over the entries c, with
    the sums adding term by term in the order of the tableau.

    Their code is generated with the weights as literals and the entries
    unrolled: a stage state of two entries takes about 0.4 us, against
    0.9 us for a map of one sum function over the entries.  From ``0j`` on
    Python complex numbers each part of a sum has the bits of the float sum
    of that part: a float times a complex number (as complex numbers before
    Python 3.14, part by part since) differs from the per-part products at
    most in the sign of a zero part, and the running sum, whose parts start
    from 0.0 and so are never -0.0, cannot see that sign.  Built once per
    (dim, kind) and kept.
    """
    zero = "0j" if kind == "c" else "0.0"

    def terms(weights, c):
        return zero + "".join(f" + {w!r} * k{j}[{c}]" for j, w in enumerate(weights))

    def function(args, entries):
        return eval(f"lambda {', '.join(args)}: [{', '.join(entries)}]")

    fns = [None]
    for row in _A[1:]:
        w = row.tolist()
        fns.append(function(["y", "h", *(f"k{j}" for j in range(len(w)))],
                            (f"y[{c}] + h * ({terms(w, c)})" for c in range(dim))))
    e = _E.tolist()
    fns.append(function([f"k{j}" for j in range(len(e))], (terms(e, c) for c in range(dim))))
    return tuple(fns)


# By dtype kind, the magnitude of an entry.  On a complex number it is
# math.hypot of the parts, which returns inf where the magnitude overflows,
# as np.abs does; abs() raises OverflowError there.
_MAGNITUDE = {"f": abs, "c": lambda z: math.hypot(z.real, z.imag)}


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
    field = _full_system(model, l, lam, u0.dtype)
    z0 = np.zeros(d + 1, dtype=u0.dtype)
    z0[:d] = u0
    sol = _integrate(field, z0, opts, rate_dim=d)
    return replace(sol, psi=sol.psi[:, :d], phi=sol.psi[:, d],
                   dpsi=sol.dpsi[:, :d], dphi=sol.dpsi[:, d], u0=u0)


def _real_finite(value, name, shape):
    """value as a float array of the given shape; ConfigError when it is
    complex, has the wrong number of entries or a non-finite entry."""
    value = np.asarray(value)
    if value.dtype.kind == "c":
        raise ConfigError(f"{name} must be real")
    size = int(np.prod(shape))
    if value.size != size:
        raise ConfigError(f"{name} must have length {size}, got {value.size}")
    value = value.astype(float).reshape(shape)
    if not np.isfinite(value).all():
        raise ConfigError(f"{name} must be finite")
    return value


def _check_start(model, u0):
    if not in_domain_Y(model, u0):
        raise DomainError("u0 outside the effective domain Y")


def _full_system(model, l, lam, dtype):
    """The discounted system z = (psi, phi) -> (R(psi) - lambda, F(psi) - l)
    as a field of 1-d rows.

    R comes from ``eval_R`` through this module's globals, F from the
    model's bound F closure for the kind of dtype (the ``eval_F`` of a run
    inside ``quiet_fp``, less its shape check).  A lambda of +0.0 entries
    is not subtracted: ``x - 0.0`` keeps every bit of x.
    """
    d = model.shape.d
    F = model._point_fns[np.dtype(dtype).kind == "c"][1]
    # numpy scalars: the point path subtracts entry by entry; None when no
    # subtraction moves a bit (x - (-0.0) would turn -0.0 into +0.0)
    lams = tuple(enumerate(lam)) if lam.any() or np.signbit(lam).any() else None

    def field(z):
        psi = z[:d]
        out = np.empty(d + 1, dtype=dtype)
        out[:d] = eval_R(model, psi, check_domain=False)
        if lams is not None:
            for i, lam_i in lams:
                out[i] -= lam_i
        out[d] = F(psi) - l
        return out

    return field


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
    field = _full_system(model, l, lam, u0.dtype)
    z0 = np.zeros(d + 1)
    z0[:d] = u0
    sols = _eps_ladder(field, z0, m, _LADDER, ladder_opts, rate_dim=d,
                       check=lambda z: _check_start(model, z[:d]))
    finest = sols[-1]
    if not finest.status.reached_horizon:
        return finest.ts, finest.psi[:, :d], finest.psi[:, d], finest.status
    runs = [sol.eval(ts) for sol in sols]
    psi = _ladder_limit([run[:, :d] for run in runs], ts, u0)
    phi = _ladder_limit([run[:, d] for run in runs], ts, 0.0)
    return ts, psi, phi, finest.status


def _eps_ladder(field: Callable, u0: np.ndarray, m: int, eps_ladder, opts: SolveOptions,
                rate_dim: Optional[int] = None, check: Optional[Callable] = None) -> list:
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
    solved = _lanes(field, starts, opts, rate_dim) if starts else []
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
