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

Cost of a step: one DP5(4) loop runs every solve, generated once per state
size, dtype kind and rate size (``_solver``) and called by ``_integrate``,
which sets it up and finishes the status.  The loop keeps t, the step
size, the state and derivative entries and the equilibrium run as Python
numbers in locals, and appends the accepted states and derivatives as
lists of Python numbers.  Its six stages are unrolled: each makes one call
of the field on the list of its state and reads the value back as such
numbers, with no step call and no helper per stage.  A stage where the
field raises one of ``_FIELD_ERRORS`` or goes non-finite rejects the step;
an exception of another kind propagates at once.  An epsilon ladder
(``_eps_ladder``) solves its three rungs one after another and stops after
the first rung that misses the horizon.  No path batches the stages of
many solves into one call: 100 or 1,000 starts cost about what as many
lone solves cost.

On the small systems the library meets, a step is bound by per-call cost,
not by arithmetic: about 1 us for a numpy ufunc or a matmul on a tiny
array, 0.1-0.3 us for an operation on a numpy scalar, and a few tens of
nanoseconds for one on a Python float.  So a solve checks its start's
shape, kind and realness once, when it begins, and takes its field then:
the model's generated field on lists (``AffineModel._point_fns``), the
discounted full system with l and lambda bound (``_full_system``) or the
reduced field (``_reduced_field``).  A stage then makes that one call and
builds no numpy row: the field unpacks the list, forms its terms on
Python numbers, enters no errstate (``quiet_fp`` covers the run) and
returns a list, whose finiteness the stage reads on its few entries.
A product each of whose sums has at most one product that can round (a
row of beta_I, or b, with at most one nonzero entry; a J-block each of
whose rows has at most one; an a with at most one) is summed on Python
numbers in index order, ``zero + x0 * c_0 + x1 * c_1 + ...``, with every
term kept, so that a NaN or an infinity of the row propagates.  A sum of
exact zeros and one rounded product is that product in any order, with or
without a fused multiply-add, so the sum has the bits of the BLAS call on
any CPU, up to the sign of a zero and of a NaN: it starts from +0.0 as the
call's does, where a bare product would keep a -0.0 that the call drops.
On a complex row only such products of one term run so (every product of
a d = 1 model has one term); a two-term zdotu turned an infinite part into
NaN where Python's complex product keeps it.  Every other product keeps a
BLAS call, on one array of the row built inside the field, whose fused
multiply-adds round differently from a sum of scalar products.  The
one-term sum, measured on numpy 2.4.6 with OpenBLAS on x86-64 with
AVX-512, matched the call on 200,000 random real and 50,000 random complex
pairs, on every pair of real special entries (+-0, +-inf, +-NaN, +-1e300,
+-5e-324), and on every pair of complex ones in which no part is NaN or x
is a real coefficient.

The fields form each square (``x ** 2`` on a float, pow(), whose
OverflowError is read as inf; ``x * x`` on a complex number), each
product above as its sum from ``zero`` and each family's real closed form on
the float, keeping the np.exp, np.log1p and math.sqrt calls of the
families; a family's complex form still takes np.complex128 of its entry,
as Python's complex quotient rounds differently from numpy's.  A term that
is a numpy scalar is converted to a Python number before it enters a sum.
They are generated once per model structure (the shape, the measures'
axes and which products run on Python numbers) and kind
(``model._point_code``), so a tilted model of the same structure compiles
nothing.
``model._point_closures`` states the measurements behind these choices.

The loop's own arithmetic does, in one form for real and complex solves:
the six stages and the error norm are unrolled, with the tableau's weights
as literals, on the Python numbers of the state and stage derivatives.  A
field may also return a numpy array, which is read once with ``tolist()``
before its entries are unpacked and tested.  A real solve has the
bits of float arithmetic throughout; a complex solve's products, quotients
and magnitudes round as Python's complex arithmetic and ``math.hypot`` do,
which differ from numpy's at the rounding level, and the closed-form tests
bound its trajectories.

One ``model.quiet_fp`` (an np.errstate plus a flag that tells
``eval_R``/``eval_F``/``reduced_R`` to skip their own) covers the whole run.
The public evaluators call the same generated closures on the list of
their checked row, so a solve's field has their bits.
``perfbench/tracing.py`` counts evaluations by rebinding ``eval_R`` in
this module and ``reduced_R`` in this module and in ``diagnostics``.  A
solve that finds such a name rebound when it takes its field calls the
rebound name once per stage on the numpy row instead (with F from the
generated F closure), through the same generated loop and with the same
bits; so a traced run counts every stage, and times this path rather than
the generated field.
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
from . import model as _model
from .model import AffineModel, _compile, eval_R, in_domain_Y, quiet_fp, reduced_R

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
_COLLAPSE = "collapse"  # the end of a solve loop whose step size fell below the floor

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


# Dormand-Prince 5(4) tableau (FSAL): the weights of stages 1 to 6, the last
# row being the fifth-order weights, and the error weights b5 - b4.
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_E = tuple(b5 - b4 for b5, b4 in zip((*_A[-1], 0.0), _B4))
# errors of a field evaluation that reject the stage (the field is undefined
# there)
_FIELD_ERRORS = (DomainError, FloatingPointError, ValueError, ZeroDivisionError, OverflowError)


def _field_values(field, y):
    """The field's value at the point y (a list of Python numbers) as a list
    of Python numbers, or None when the field raises one of
    ``_FIELD_ERRORS`` or is non-finite there.  Other exceptions propagate.
    For the one-off calls: a solve's first evaluation, at its start, and
    the diagnostics' samples of a reduced field; the stages of the solve
    loop (``_solver``) make the same test inline.

    The one protocol of a field: it takes that list and returns such a list
    itself, or a numpy array of the point's length, which is read with
    ``tolist()``.  The caller holds ``quiet_fp`` (or its own np.errstate).
    """
    try:
        values = field(y)
    except _FIELD_ERRORS:
        return None
    if type(values) is not list:
        values = values.tolist()
    # on the few entries of one point, cheaper than np.isfinite and a reduction
    return values if all(map(cmath.isfinite, values)) else None


@quiet_fp()
def _integrate(field: Callable, y0: np.ndarray, opts: SolveOptions,
               rate_dim: Optional[int] = None) -> RiccatiSolution:
    """Adaptive DP5(4) solve of d y = field(y) from y0, the loop of every solver.

    The field takes and returns lists of Python numbers (``_field_values``
    states the protocol).  This function calls it once on ``y0.tolist()``
    to fix the solve's kind (complex when y0 or the field's value there
    is), then runs the loop generated for the state size, the kind and the
    rate size (``_solver``), which keeps t, the step size, the state and
    the derivative as Python numbers in locals and appends the accepted
    times, states and derivatives to ``ts``/``ys``/``fs``; they are turned
    into the ``psi``/``dpsi`` arrays once, at the end.  When the loop
    returns, this function finishes its status: it classifies a step
    collapse, continues an equilibrium to T and extrapolates the time of a
    blow-up.  ``rate_dim``: number of leading components whose rate
    decides equilibrium (and blow-up magnitude); defaults to all
    components.  The whole state is returned as ``psi`` (with ``u0 =
    y0``), no phi.  Raises DomainError when the field is undefined at y0;
    an exception of the field outside ``_FIELD_ERRORS`` propagates at once.
    One ``quiet_fp`` covers the run.
    """
    y = np.asarray(y0)
    dim = y.shape[0]
    nr = rate_dim if rate_dim is not None else dim
    T = opts.T
    atol = opts.atol
    hmax, hmin = opts.effective_max_step, _step_floor(T)

    f = _field_values(field, y.tolist())
    if f is None:
        raise DomainError("vector field undefined at the initial condition")
    f = np.array(f)
    dtype = np.result_type(y, f, float)
    y, f = y.astype(dtype).tolist(), f.astype(dtype).tolist()
    # a first step below the step floor would read as a collapse at t = 0;
    # eq_t is the time of the first point of the current run of points whose
    # rate is below atol (None while the last point is not in such a run)
    h = min(hmax, max(T / 100.0, hmin))
    eq_t = 0.0 if np.abs(f[:nr]).max(initial=0.0) < atol else None
    ts, ys, fs = [0.0], [y], [f]
    end, t, y, f, eq_t = _solver(dim, dtype.kind, nr)(
        field, y, f, h, eq_t, ts, ys, fs, T, T - 1e-14 * T, hmax, hmin, atol, opts.rtol,
        opts.blowup_threshold)

    if end == _COLLAPSE:
        status = _classify_collapse(t, y, f, opts, nr, ts, ys)
    elif end == SolveStatus.EQUILIBRIUM:
        # the equilibrium began at the first point of the run
        status = SolveStatus(end, t_event=eq_t)
        # analytic continuation: psi constant, phi linear at frozen rate
        f_cont = np.array(f)
        f_cont[:nr] = 0.0
        ts.append(T)
        ys.append(np.array(y) + (T - t) * f_cont)
        fs.append(f_cont)
    elif end == SolveStatus.BLOWUP:
        status = SolveStatus(end, t_event=_extrapolate_blowup(ts, ys, nr))
    else:
        status = SolveStatus(end)
    return RiccatiSolution(ts=np.array(ts), psi=np.array(ys), phi=None, dpsi=np.array(fs),
                           dphi=None, status=status, u0=y0, T=T)


@cache
def _solver(dim, kind, nr):
    """The adaptive DP5(4) loop on states of dim entries of the dtype kind
    ("f" or "c") whose first nr entries are the rates, generated once per
    (dim, kind, nr) and kept, under a file name of its own
    (``model._compile``).

    ``solve(field, y, f, h, eq_t, ts, ys, fs, T, t_stop, hmax, hmin, atol,
    rtol, blowup)`` runs from t = 0, the state y and its derivative f
    (lists of Python numbers) and the first step size h, appending each
    accepted time, state and derivative to ts, ys and fs.  It returns
    ``(end, t, y, f, eq_t)``: ``end`` is "completed" once t reaches
    t_stop, "collapse" once the step size is below hmin, "equilibrium"
    after ``_EQUILIBRIUM_RUN`` accepted steps in a row whose rates are all
    below atol (with eq_t the time of the first point of that run), and
    "blowup" after an accepted step whose rate entries' magnitudes pass
    ``blowup`` while the state grows radially; y and f are then the last
    accepted state and derivative and t their time.

    t, h, the state entries y0, y1, ... and the derivative entries k0_0,
    k0_1, ... are locals.  The six stages are unrolled.  Each makes one
    call of the field on the list of its state, inside a ``try`` whose
    ``except _FIELD_ERRORS`` rejects the step; a numpy value is read with
    ``tolist()``; the entries are unpacked (a value of another length
    raises ValueError) and each is tested with ``cmath.isfinite``, a
    non-finite one rejecting the step.  A rejected step retries with
    ``h *= 0.3``.  Other exceptions of the field propagate.  The stage
    state of stage 6 is the new state (FSAL), the list the field got.  With
    the error norm en, a non-finite en rejects the step as a stage does; an
    en above 1 rejects it with h scaled by ``min(1, max(0.2, 0.9 *
    en ** -0.2))``, and an accepted step scales h by ``min(5, max(0.2,
    ...))`` of the same factor, or sets it to hmax where en is 0.

    A stage state entry is ``y + h * (zero + sum_j a_j * k_j)``, the sum
    adding term by term in the order of the tableau, with the tableau's
    weights as literals, and the squares of the error norm add from left
    to right as ``q.real * q.real + q.imag * q.imag`` per entry, which is
    ``q * q`` on a float, where q is h * e / (atol + rtol * max(|y|,
    |y_new|)).  Real and complex solves differ only in the zero, ``0.0`` or
    ``0j``, and in the magnitude, ``abs`` or ``math.hypot`` of the parts
    (which returns inf where the magnitude overflows, as np.abs does;
    abs() raises OverflowError there).  From ``0j`` on Python complex
    numbers each part of a sum has the bits of the float sum of that part:
    a float times a complex number (as complex numbers before Python 3.14,
    part by part since) differs from the per-part products at most in the
    sign of a zero part, and the running sum, whose parts start from 0.0
    and so are never -0.0, cannot see that sign.  For the same reason a
    term of weight 0.0 is left out: on the finite derivatives of accepted
    stages it adds a zero that changes no bit.
    """
    zero = "0j" if kind == "c" else "0.0"

    def magnitude(x):
        return f"hypot({x}.real, {x}.imag)" if kind == "c" else f"abs({x})"

    def entries(pattern, count=dim):
        return ", ".join(pattern.format(c=c) for c in range(count))

    def weighted(weights):
        """The pattern of an entry's sum ``zero + w_0 * k0_c + ...``."""
        return zero + "".join(f" + {w!r} * k{j}_{{c}}" for j, w in enumerate(weights) if w)

    def largest(pattern):
        """max() of the rate entries of the pattern, 0.0 when there are none."""
        if nr <= 1:
            return pattern.format(c=0) if nr else "0.0"
        return f"max({entries(pattern, nr)})"

    reject = ["h *= 0.3", "continue"]
    body = ["if t >= t_stop:",
            f"    return {SolveStatus.COMPLETED!r}, t, y, f, eq_t",
            "if h < hmin:",
            f"    return {_COLLAPSE!r}, t, y, f, eq_t",
            # a last step shortened to the horizon may be below the floor
            "h = min(h, T - t, hmax)"]
    for s, row in enumerate(_A, 1):
        state = f"[{entries('y{c} + h * (' + weighted(row) + ')')}]"
        if s == len(_A):
            body.append(f"z = {state}")
            state = "z"
        finite = " and ".join(f"isfinite(k{s}_{c})" for c in range(dim))
        body += ["try:",
                 f"    k{s} = field({state})",
                 "except field_errors:",
                 *(f"    {line}" for line in reject),
                 f"if type(k{s}) is not list:",
                 f"    k{s} = k{s}.tolist()",
                 f"{entries(f'k{s}_{{c}}')}, = k{s}",
                 f"if not ({finite}):",
                 *(f"    {line}" for line in reject)]
    body.append(f"{entries('z{c}')}, = z")
    squares = []
    for c in range(dim):
        body += [f"a{c}, b{c} = {magnitude(f'y{c}')}, {magnitude(f'z{c}')}",
                 # h * e / scale, with the nan of np.maximum in the scale
                 f"q{c} = h * ({weighted(_E).format(c=c)})"
                 f" / (atol + rtol * (a{c} if a{c} >= b{c} or a{c} != a{c} else b{c}))"]
        squares.append(f"(q{c}.real * q{c}.real + q{c}.imag * q{c}.imag)" if kind == "c"
                       else f"q{c} * q{c}")
    last = len(_A)
    body += [f"en = math.sqrt(({' + '.join(squares)}) / {dim})",
             "if not math.isfinite(en):",
             *(f"    {line}" for line in reject),
             "if en > 1.0:",
             "    h *= min(1.0, max(0.2, 0.9 * en ** -0.2))",
             "    continue",
             # accepted
             "t += h",
             f"y, f = z, k{last}",
             f"{entries('y{c}')}, = {entries('z{c}')},",
             f"{entries('k0_{c}')}, = {entries(f'k{last}_{{c}}')},",
             "ts.append(t)",
             "ys.append(y)",
             "fs.append(f)",
             f"if {largest(magnitude(f'k{last}_{{c}}'))} < atol:",
             "    eq_run += 1",
             "    if eq_t is None:",
             "        eq_t = t",
             "else:",
             "    eq_run, eq_t = 0, None",
             f"if eq_run >= {_EQUILIBRIUM_RUN} and t < T:",
             f"    return {SolveStatus.EQUILIBRIUM!r}, t, y, f, eq_t",
             f"if {largest('b{c}')} > blowup and float(real(vdot(y[:{nr}], f[:{nr}]))) > 0.0:",
             f"    return {SolveStatus.BLOWUP!r}, t, y, f, eq_t",
             "if en == 0.0:",
             "    h = hmax",
             "else:",
             "    h *= min(5.0, max(0.2, 0.9 * en ** -0.2))"]
    code = ["def solve(field, y, f, h, eq_t, ts, ys, fs, T, t_stop, hmax, hmin, atol, rtol,",
            "          blowup):",
            f"    {entries('y{c}')}, = y",
            f"    {entries('k0_{c}')}, = f",
            "    t, eq_run = 0.0, 0",
            "    while True:",
            *(f"        {line}" for line in body)]
    namespace = _compile(code, f"DP5(4) solve {(dim, kind, nr)}",
                         {"__name__": __name__, "field_errors": _FIELD_ERRORS,
                          "isfinite": cmath.isfinite, "math": math, "hypot": math.hypot,
                          "real": np.real, "vdot": np.vdot})
    return namespace["solve"]


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
    of the kind of dtype, as a field of lists of Python numbers: the
    model's generated field with l and lambda bound (``full`` of
    ``AffineModel._point_fns``), which the solve calls with no check.

    Where this module's ``eval_R`` is not the model module's, as when
    ``perfbench/tracing.py`` wraps it to count evaluations, each call makes
    one ``eval_R`` call on the numpy row of psi instead, and takes F from
    the generated F closure, with the same bits.
    """
    lam = lam.tolist()
    _, F, _, full = model._point_fns[np.dtype(dtype).kind == "c"]
    if eval_R is _model.eval_R:
        return full(l, lam)
    d = model.shape.d

    def field(z):
        values = eval_R(model, np.array(z[:d]), check_domain=False).tolist()
        return [r - lam_i for r, lam_i in zip(values, lam)] + [F(z[:d]) - l]

    return field


def solve_reduced(model: AffineModel, g0, opts: SolveOptions) -> RiccatiSolution:
    """Integrate the reduced I-block system d g = R_I((g, 0)); no phi.

    Raises ConfigError for a model without an I-block (m = 0), whose reduced
    system is empty, and when g0 is complex, not finite or not of length m.
    """
    m = model.shape.m
    if m == 0:
        raise ConfigError("solve_reduced needs an I-block; the model has m = 0")
    g0 = _real_finite(_as_initial(g0, m, name="g0"), "g0", m)
    _check_reduced_start(model, g0)
    return _integrate(_reduced_field(model, reduced_R), g0, opts)


def _reduced_field(model, rebound):
    """The reduced field of the model as a solve calls it, on a list of m
    Python floats: the generated ``reduced`` closure of
    ``AffineModel._point_fns``.  Where ``rebound``, the caller module's
    ``reduced_R``, is not the model module's, as when
    ``perfbench/tracing.py`` wraps it to count evaluations, each call is
    one call of ``rebound`` on the numpy row instead, with the same bits."""
    if rebound is _model.reduced_R:
        return model._point_fns[0][2]
    return lambda v: rebound(model, np.array(v), check_domain=False)


def _check_reduced_start(model, g0):
    probe = np.zeros(model.shape.d)
    probe[:model.shape.m] = g0
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
    per eps, rung after rung through ``_integrate``.

    ``check(start)``, called just before its rung is solved, may raise to
    refuse a start.  Returns the solutions in ladder order up to and
    including the first one that misses the horizon; the later rungs are
    neither checked nor solved.  A rung's exception propagates from that
    rung, once every earlier rung has reached the horizon.
    """
    sols = []
    for eps in eps_ladder:
        start = u0.copy()
        start[:m] -= eps
        if check is not None:
            check(start)
        sols.append(_integrate(field, start, opts, rate_dim))
        if not sols[-1].status.reached_horizon:
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
