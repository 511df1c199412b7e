"""Path simulation of affine jump-diffusions and statistical oracles.

Scheme
------
Full-truncation Euler for the diffusion part: the nonnegative coordinates are
clamped at zero inside every coefficient evaluation and after every step.
Each jump source has one scheme, fixed by its family.

Tempered 1/2-stable sources, constant or state-linear, add their exact
subordinator increment over the step, with the intensity frozen at the left
endpoint X_{i,t-}: inverse Gaussian, or Levy-distributed when untempered.
The increment holds every jump, so its compensator enters the drift in full
and no truncation drift is added.  It costs the same at every state, also
for untempered linear jumps, on which a cascade would run arbitrarily long.
Its two uniforms per path come from the increment stream of its source index.

The other sources (compound Poisson and gamma) run the within-step jump
cascade.  Jumps with magnitude >= ``jump_trunc`` are sampled exactly -
compound-Poisson for the constant measure, Poisson thinning with the
intensity frozen at the left limit X_{i,t-} of each jump for the
state-linear measures.  Smaller jumps are replaced by their first-order
drift compensation: compensated coordinates lose the tail truncation drift,
uncompensated coordinates gain the mean of the discarded small jumps.  No
variance correction is added.  So ``jump_trunc`` truncates the jumps of
cascade sources (compound Poisson and gamma); tempered 1/2-stable sources
are exact and never truncated.

Randomness
----------
All draws derive from counter-based Philox streams keyed by
(seed, step, purpose, round).  Each stream yields one uniform per path (row
p always belongs to path p), and every variate is produced from uniforms by
inverse CDF, so a path's noise depends only on its own rows.  Because
Philox is counter-based, any row range of a table can be generated on its
own: a parallel worker draws only the rows of its block, and a cascade round
only the span of the rows still waiting.  A stream with one jump source
draws no pick table.  Each thread keeps one Philox generator and re-keys it
per table.  Reductions run in fixed path order, so parallel and serial runs
are bit-identical, as are reruns with identical options.

An ensemble runs on one worker thread per 10,000 paths, capped at the number
of CPUs the process may run on: ensembles below 20,000 paths run serially,
and so does a process pinned to one CPU (for example with ``taskset -c 0``).

Paths whose state magnitude passes 1e12 are flagged exploded and frozen, not
errored, also in the middle of a jump cascade; exponential-moment estimates
over an ensemble with exploded paths are reported as lower bounds.  A path
whose cascade runs out of rounds (CASCADE_ROUND_CAP) is frozen and flagged
exhausted, never exploded.

Estimating E[S~_T]
------------------
``martingale_gap`` reports two estimates of the mean of the discounted
exponential functional S~_T.  The plain sample mean over the base model's
paths is unbiased, but at the boundary of the domain its variance can be
infinite (for kr2014 at theta = 1, E[e^{2 X_T}] = oo), so its sample
standard error supports no interval.  The survival estimate
e^{<theta,x0>} Q~(tau > T), from the tilted model's paths, is a Bernoulli
mean with bounded variance; the gap statement and the comparison with the
minimal-solution prediction use it.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtri

from .errors import ConfigError, SolverError
from .esscher import TiltSpec, _identity_failure, tilt_model
from .model import AffineModel, TemperedStableHalf, validate_model
from .riccati import SolveOptions, _write_csv, solve_minimal, solve_riccati

__all__ = [
    "SimOptions",
    "PathEnsemble",
    "simulate_paths",
    "estimate_exp_moment",
    "affine_formula_check",
    "martingale_gap",
    "MomentEstimate",
    "FormulaReport",
    "GapReport",
]

EXPLOSION_CAP = 1e12

# stream purposes
_P_GAUSS_CONST = 1
_P_GAUSS_LIN = 2
_P_CASCADE_WAIT = 3
_P_CASCADE_PICK = 4
_P_INCREMENT = 5     # exact subordinator increments, keyed by source index
_P_SIZE = 200        # + jump source index

# rounds of the within-step jump cascade before a path is frozen as
# budget-exhausted (never as exploded)
CASCADE_ROUND_CAP = 10_000

# two threads measured 0.3-0.4x as fast as one at 500-1,000 paths each,
# 1.2-1.6x at 10,000 and 1.8-2.3x at 20,000-50,000
_ROWS_PER_WORKER = 10_000


def _workers(npaths: int) -> int:
    """Worker threads for an ensemble: one per _ROWS_PER_WORKER paths, at
    most one per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, npaths // _ROWS_PER_WORKER))


def _is_integer(x) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class SimOptions:
    """Euler scheme configuration; states are recorded every ``stride`` steps.

    ``jump_trunc`` truncates the jumps of cascade sources (compound Poisson
    and gamma); tempered 1/2-stable sources are exact and never truncated.
    """

    x0: np.ndarray
    T: float
    dt: float = 1e-3
    npaths: int = 10_000
    seed: int = 0
    jump_trunc: float = 1e-3

    def __post_init__(self):
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        object.__setattr__(self, "x0", x0)
        for name, value in (("x0", x0), ("T", self.T), ("dt", self.dt)):
            if not np.isfinite(value).all():
                raise ConfigError(f"SimOptions.{name} must be finite")
        if self.dt <= 0:
            raise ConfigError("dt must be > 0")
        if self.T <= 0:
            raise ConfigError("T must be > 0")
        if not _is_integer(self.npaths) or self.npaths < 1:
            raise ConfigError("SimOptions.npaths must be a positive integer")
        if not (0.0 < self.jump_trunc <= 1.0):
            raise ConfigError("jump_trunc must lie in (0, 1]")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ConfigError("SimOptions.seed must be a nonnegative integer")

    @property
    def nsteps(self) -> int:
        return max(1, math.ceil(self.T / self.dt))

    @property
    def stride(self) -> int:
        return max(1, self.nsteps // 100)


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated paths on a common grid plus per-path status flags.

    ``survived`` marks the paths simulated up to T.  Every other path was
    frozen at its last state on the grid, either because it crossed
    ``EXPLOSION_CAP`` (``exploded``) or because a jump cascade ran out of
    rounds (``exhausted``); the two sets are disjoint.
    """

    times: np.ndarray         # (k,)
    states: np.ndarray        # (npaths, k, d)
    survived: np.ndarray      # (npaths,) bool
    exhausted: np.ndarray     # (npaths,) bool
    seed: int
    options: SimOptions

    @property
    def npaths(self) -> int:
        return self.states.shape[0]

    @property
    def exploded(self) -> np.ndarray:
        return ~self.survived & ~self.exhausted

    @property
    def terminal(self) -> np.ndarray:
        return self.states[:, -1, :]

    def summary_csv(self, fh) -> None:
        """Ensemble summary: path,T,X_1..X_d,survived (survived is 1 or 0)."""
        columns = ["path", "T", *(f"X_{k + 1}" for k in range(self.states.shape[2])), "survived"]
        n = self.npaths
        _write_csv(fh, columns, np.column_stack(
            [np.arange(n), np.full(n, self.times[-1]), self.terminal, self.survived]))


def _words(x) -> tuple:
    """The uint32 words (least significant first) that numpy's SeedSequence
    makes of a nonnegative integer; 0 is one word."""
    x = int(x)
    if x < 1 << 32:
        return (x,)
    words = []
    while x:
        words.append(x & 0xFFFFFFFF)
        x >>= 32
    return tuple(words)


_thread = threading.local()


def _uniforms(seed, step: int, purpose: int, shape, extra=(), start: int = 0):
    """Rows ``start:start + shape[0]`` of the table of uniforms that the
    Philox stream keyed by (seed, step, purpose, *extra) fills row by row.

    The result is bit-identical to that slice of
    ``Generator(Philox(SeedSequence((seed, step, purpose, *extra)))).random``
    of a table that has ``shape[1:]`` per row.  ``seed`` is an integer or
    its ``_words``.  Each thread re-keys one generator: the key is the
    SeedSequence hash of the same uint32 entropy words, and the counter
    skips the 4-double Philox blocks before the first row.
    """
    words = list(seed if isinstance(seed, tuple) else _words(seed))
    for x in (step, purpose, *extra):
        words.extend(_words(x))
    try:
        gen, state = _thread.stream
    except AttributeError:
        gen = np.random.Generator(np.random.Philox(0))
        state = gen.bit_generator.state      # counter 0, empty buffer
        _thread.stream = gen, state
    shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    skip, drop = divmod(start * math.prod(shape[1:]), 4)
    state["state"]["key"] = np.random.SeedSequence(
        np.array(words, dtype=np.uint32)).generate_state(2, np.uint64)
    state["state"]["counter"][0] = skip
    gen.bit_generator.state = state
    if not drop:
        return gen.random(shape)
    return gen.random(math.prod(shape) + drop)[drop:].reshape(shape)


def _row_span(seed, step, purpose, rows, cols=None, extra=()):
    """The uniforms of table rows ``rows`` (ascending), drawn over their span."""
    first = int(rows[0])
    n = int(rows[-1]) - first + 1
    u = _uniforms(seed, step, purpose, n if cols is None else (n, cols), extra, first)
    return u[rows - first]


def _sample_tail_values(measure, eps, rows, seed, step, purpose, jump_round):
    """One tail jump size for each of the paths ``rows`` (ascending), by
    inverse CDF.

    The table has two columns, of which the families read the first, and is
    keyed by (jump_round, 0): the pinned seeded ensembles were drawn with
    this layout, and any other changes their bits.
    """
    u = _row_span(seed, step, purpose, rows, 2, extra=(jump_round, 0))
    return measure.tail_proposal(eps, u)


def _diffusion_factor(a2: np.ndarray) -> Optional[np.ndarray]:
    """Factor L with L L^T = a2 (symmetric PSD), None when a2 = 0."""
    if not np.any(a2):
        return None
    w, V = np.linalg.eigh(a2)
    w = np.clip(w, 0.0, None)
    return V * np.sqrt(w)


def simulate_paths(model: AffineModel, opts: SimOptions) -> PathEnsemble:
    """Simulate an ensemble of paths of the affine model."""
    return _simulate(model, opts)


def _simulate(model: AffineModel, opts: SimOptions) -> PathEnsemble:
    """The Euler scheme of the module docstring.  ``simulate_paths`` is its
    public name; perfbench/tracing.py wraps both names."""
    report = validate_model(model)
    if not report.ok:
        raise ConfigError("model fails validation: " + "; ".join(report))
    shape = model.shape
    d, m = shape.d, shape.m
    if opts.x0.shape != (d,):
        raise ConfigError(f"x0 must have length {d}")
    if np.any(opts.x0[:m] < 0):
        raise ConfigError("x0 must lie in the state space (nonnegative I-block)")

    nsteps = opts.nsteps
    h = opts.T / nsteps
    eps = opts.jump_trunc
    stride = opts.stride

    # precomputed scheme ingredients.  Cascade sources are (measure,
    # intensity coordinate or None for the constant part, tail mass above
    # eps); increment sources are (measure, intensity coordinate or None).
    sources = []
    increment_sources = []

    def add_source(mu, coord, compensated):
        if isinstance(mu, TemperedStableHalf):
            increment_sources.append((mu, coord))
            return mu.sim_drift_correction(0.0, compensated=compensated)
        lam = mu.tail_mass(eps)
        if lam > 0.0:
            sources.append((mu, coord, lam))
        return mu.sim_drift_correction(eps, compensated=compensated)

    drift_const = model.b.astype(float).copy()
    mu0 = model.mu0
    if not mu0.is_zero:
        drift_const[mu0.axis] += add_source(mu0, None, compensated=True)

    beta_sim = np.array(model.beta_I, copy=True)   # (m, d): per-unit-X_i drift
    for i in range(m):
        mu = model.mus[i]
        if mu.is_zero:
            continue
        beta_sim[i, mu.axis] += add_source(mu, i, compensated=model.measure_compensated(i))

    L = _diffusion_factor(2.0 * model.a)
    alpha = model.alpha
    has_alpha = bool(np.any(alpha > 0))
    sqrt_h = math.sqrt(h)

    rec_idx = list(range(0, nsteps + 1, stride))
    if rec_idx[-1] != nsteps:
        rec_idx.append(nsteps)
    rec_pos = {s: k for k, s in enumerate(rec_idx)}
    times = np.array([s * h for s in rec_idx])

    npaths = opts.npaths
    states = np.empty((npaths, len(rec_idx), d))
    survived = np.ones(npaths, dtype=bool)
    exhausted = np.zeros(npaths, dtype=bool)
    states[:, 0, :] = opts.x0
    nsrc = len(sources)
    seed = _words(opts.seed)

    def run_block(lo: int, hi: int):
        nb = hi - lo
        X = np.tile(opts.x0, (nb, 1))
        alive = np.ones(nb, dtype=bool)
        for step in range(nsteps):
            Xp = X.copy()
            Xp[:, :m] = np.maximum(Xp[:, :m], 0.0)
            drift = drift_const + Xp[:, :m] @ beta_sim
            if shape.n:
                drift[:, m:] += X[:, m:] @ model.beta_JJ.T
            X_new = X + h * drift

            if L is not None:
                Z = ndtri(_uniforms(seed, step, _P_GAUSS_CONST, (nb, d), start=lo))
                X_new += sqrt_h * (Z @ L.T)
            if has_alpha:
                Z2 = ndtri(_uniforms(seed, step, _P_GAUSS_LIN, (nb, m), start=lo))
                X_new[:, :m] += np.sqrt(2.0 * alpha * h * Xp[:, :m]) * Z2

            for s_idx, (mu, coord) in enumerate(increment_sources):
                t = np.full(nb, h) if coord is None else h * Xp[:, coord]
                u_inc = _uniforms(seed, step, _P_INCREMENT, (nb, 2), extra=(s_idx,), start=lo)
                X_new[:, mu.axis] += mu.increment(t, u_inc)

            blown = np.zeros(nb, dtype=bool)
            if nsrc:
                # exact within-step jump cascade: waiting times at the current
                # thinning intensity, re-frozen at each jump's left limit so
                # self-excitation inside the step is not lost.  A round works
                # on the rows still waiting (idx, ascending, and their
                # clocks tau) and draws the table rows lo + idx only.
                Xj = Xp.copy()
                idx = np.flatnonzero(alive)
                tau = np.zeros(idx.size)
                rnd = 0
                while idx.size:
                    if rnd >= CASCADE_ROUND_CAP:
                        exhausted[lo + idx] = True
                        alive[idx] = False
                        break
                    inten = np.empty((idx.size, nsrc))
                    for s_idx, (mu, coord, lam) in enumerate(sources):
                        inten[:, s_idx] = lam if coord is None else \
                            np.maximum(Xj[idx, coord], 0.0) * lam
                    itot = inten[:, 0] if nsrc == 1 else inten.sum(axis=1)
                    u_wait = _row_span(seed, step, _P_CASCADE_WAIT, lo + idx, extra=(rnd,))
                    dtau = np.full(idx.size, math.inf)
                    np.divide(-np.log1p(-u_wait), itot, out=dtau, where=itot > 0.0)
                    tau += dtau
                    jumping = tau < h
                    idx, tau = idx[jumping], tau[jumping]
                    if not idx.size:
                        break
                    if nsrc == 1:
                        # the only source takes every jump: no pick table
                        picked = [idx]
                    else:
                        u_pick = _row_span(seed, step, _P_CASCADE_PICK, lo + idx, extra=(rnd,))
                        cdf = np.cumsum(inten[jumping], axis=1) \
                            / np.maximum(itot[jumping], 1e-300)[:, None]
                        pick = np.sum(u_pick[:, None] > cdf, axis=1)
                        picked = [idx[pick == s_idx] for s_idx in range(nsrc)]
                    for s_idx, ((mu, coord, lam), rows) in enumerate(zip(sources, picked)):
                        if rows.size:
                            Xj[rows, mu.axis] += _sample_tail_values(
                                mu, eps, lo + rows, seed, step, _P_SIZE + s_idx, rnd)
                    # a path past the explosion cap leaves the cascade at once
                    over = np.max(np.abs(Xj[idx]), axis=1) > EXPLOSION_CAP
                    if over.any():
                        blown[idx[over]] = True
                        idx, tau = idx[~over], tau[~over]
                    rnd += 1
                X_new += Xj - Xp

            X_new[:, :m] = np.maximum(X_new[:, :m], 0.0)
            blow = blown | (np.max(np.abs(X_new), axis=1) > EXPLOSION_CAP)
            alive &= ~blow
            X = np.where(alive[:, None], X_new, X)

            if (step + 1) in rec_pos:
                states[lo:hi, rec_pos[step + 1], :] = X
        survived[lo:hi] = alive

    nworkers = _workers(npaths)
    if nworkers > 1:
        cuts = np.linspace(0, npaths, nworkers + 1, dtype=int)
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            list(pool.map(lambda c: run_block(c[0], c[1]), zip(cuts[:-1], cuts[1:])))
    else:
        run_block(0, npaths)

    return PathEnsemble(times=times, states=states, survived=survived,
                        exhausted=exhausted, seed=opts.seed, options=opts)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentEstimate:
    mean: float
    stderr: float
    exploded_fraction: float

    @property
    def lower_bound_only(self) -> bool:
        """Exploded paths count as +oo, so the mean is a lower bound."""
        return self.exploded_fraction > 0.0


def estimate_exp_moment(ensemble: PathEnsemble, u) -> MomentEstimate:
    """Sample mean and standard error of e^{<u, X_T>} over surviving paths.

    Raises SolverError when any path ran out of cascade rounds: its terminal
    value is unknown, and dropping it would bias the mean without a flag.
    """
    u = np.asarray(u, dtype=float)
    if np.any(ensemble.exhausted):
        raise SolverError(
            f"{int(ensemble.exhausted.sum())} paths ran out of jump cascade rounds; "
            "their terminal values are unknown, so no moment estimate is given")
    alive = ensemble.survived
    vals = np.exp(ensemble.terminal[alive] @ u)
    n = vals.size
    exploded_fraction = float(np.mean(ensemble.exploded))
    if n == 0:
        return MomentEstimate(mean=math.inf, stderr=math.inf,
                              exploded_fraction=exploded_fraction)
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MomentEstimate(mean=mean, stderr=stderr, exploded_fraction=exploded_fraction)


@dataclass(frozen=True)
class FormulaReport:
    applicable: bool
    mc_mean: float = math.nan
    mc_stderr: float = math.nan
    analytic: float = math.nan
    z: float = math.nan
    exploded_fraction: float = 0.0
    status: Optional[str] = None

    @property
    def flagged(self) -> bool:
        """Whether z is not a finite number within +-3 (NaN included: when
        every path explodes the estimate and its standard error are inf)."""
        return self.applicable and not abs(self.z) <= 3.0

    def report_lines(self):
        if not self.applicable:
            return [f"applicable: no", f"status: {self.status}"]
        return [
            "applicable: yes",
            f"mc_mean: {self.mc_mean:.17g}",
            f"mc_stderr: {self.mc_stderr:.17g}",
            f"analytic: {self.analytic:.17g}",
            f"z: {self.z:.17g}",
            f"exploded_fraction: {self.exploded_fraction:.17g}",
            f"flagged: {'yes' if self.flagged else 'no'}",
        ]


def affine_formula_check(model: AffineModel, opts: SimOptions, u) -> FormulaReport:
    """Monte Carlo check of E[e^{<u, X_T>}] = e^{phi + <psi, x0>}."""
    u = np.asarray(u, dtype=float)
    sol = solve_riccati(model, u, SolveOptions(T=opts.T))
    if not sol.status.reached_horizon:
        return FormulaReport(applicable=False,
                             status=f"formula not applicable at this (u, T): {sol.status.label()}")
    analytic = math.exp(sol.phi_end + float(np.real(sol.psi_end) @ opts.x0))
    ens = simulate_paths(model, opts)
    est = estimate_exp_moment(ens, u)
    gap = est.mean - analytic
    if est.stderr > 0:
        z = gap / est.stderr
    else:
        # no spread: any gap is infinitely many standard errors, on its own side
        z = math.copysign(math.inf, gap) if gap else 0.0
    return FormulaReport(applicable=True, mc_mean=est.mean, mc_stderr=est.stderr,
                         analytic=analytic, z=float(z),
                         exploded_fraction=est.exploded_fraction,
                         status=sol.status.label())


@dataclass(frozen=True)
class GapReport:
    """Two estimates of E[S~_T] against the martingale value and the prediction.

    ``mean``/``stderr`` are the plain sample mean of S~_T and its sample
    standard error, kept for the record: at the boundary of the domain the
    variance of S~_T can be infinite, and then that standard error supports
    no interval.  ``survival_mean``/``survival_stderr`` are
    e^{<theta,x0>} times the survival fraction of the tilted model and its
    Bernoulli standard error; ``excludes_martingale`` and ``z_vs_predicted``
    are computed from them.  When all tilted paths survive, or none does,
    that standard error is zero, and those two fields use the value of one
    path, e^{<theta,x0>} / npaths, in its place: a resolution floor chosen by
    convention, not a standard error and not a confidence bound.
    """

    mean: float
    stderr: float
    predicted: float
    martingale_value: float
    excludes_martingale: bool
    z_vs_predicted: float
    survival_mean: float
    survival_stderr: float

    def report_lines(self):
        return [
            f"mean: {self.mean:.17g}",
            f"stderr: {self.stderr:.17g}",
            f"predicted: {self.predicted:.17g}",
            f"martingale_value: {self.martingale_value:.17g}",
            f"excludes_martingale: {'yes' if self.excludes_martingale else 'no'}",
            f"z_vs_predicted: {self.z_vs_predicted:.17g}",
            f"survival_mean: {self.survival_mean:.17g}",
            f"survival_stderr: {self.survival_stderr:.17g}",
        ]


def martingale_gap(model: AffineModel, spec: TiltSpec, opts: SimOptions) -> GapReport:
    """Estimate E[S~_T] and compare against the martingale value e^{<theta,x0>}.

    The predicted mean comes from the minimal Riccati solution:
    e^{phi(T,theta) + <psi(T,theta), x0>}, which equals the martingale value
    exactly when the constant solution is the minimal one.

    Under F(theta) = l and R(theta) = lambda, S~ is the density process of
    the tilted law up to its explosion time tau, so
    E[S~_T] = e^{<theta,x0>} Q~(tau > T) (Kallsen & Muhle-Karbe 2010).  The
    tilted model is simulated with the same options and scheme as the base
    model (tempered 1/2-stable jumps by their exact increments, the other
    families by the cascade), and its surviving fraction gives a
    bounded-variance estimate of E[S~_T].
    That estimate decides ``excludes_martingale`` (at 3 standard errors)
    and ``z_vs_predicted``; where its Bernoulli standard error is
    zero, the resolution floor e^{<theta,x0>} / npaths takes its place (see
    GapReport).  The plain mean of S~_T over the base model's paths is
    reported alongside.  Raises SolverError when a tilted path runs out of
    cascade rounds, since its survival is then unknown.

    The tilted model must be path-sampled.  A jump measure that is not
    closed under tilting becomes an ExpTiltedMeasure, which has no path
    sampler, and the call raises ConfigError for it, plain estimate
    included; the built-in measure families are all closed under tilting.
    """
    theta = spec.theta.reshape(model.shape.d)
    failed = _identity_failure(model, spec)
    if failed is not None:
        raise ConfigError(f"spec fails the algebraic condition {failed[0]}")

    ts, psi_min, phi_min, _ = solve_minimal(model, theta, SolveOptions(T=opts.T),
                                            l=spec.l, lam=spec.lam)
    predicted = math.exp(float(phi_min[-1]) + float(psi_min[-1] @ opts.x0))
    martingale_value = math.exp(float(theta @ opts.x0))

    tilted = _simulate(tilt_model(model, theta), opts)
    if np.any(tilted.exhausted):
        raise SolverError(
            f"{int(tilted.exhausted.sum())} tilted paths ran out of jump cascade rounds; "
            "their survival is unknown, so no survival estimate is given")
    q = float(np.mean(tilted.survived))
    survival_mean = martingale_value * q
    survival_stderr = martingale_value * math.sqrt(q * (1.0 - q) / tilted.npaths)
    # when all tilted paths survive (or none does) the Bernoulli standard
    # error vanishes; the estimate still cannot resolve less than one path
    se = survival_stderr if survival_stderr > 0 else martingale_value / tilted.npaths
    excludes = abs(survival_mean - martingale_value) > 3.0 * se
    z_pred = (survival_mean - predicted) / se

    ens = simulate_paths(model, opts)
    alive = ens.survived
    path = ens.states[alive]
    Lvals = spec.l + path @ spec.lam
    dts = np.diff(ens.times)
    integral = np.sum(0.5 * (Lvals[:, 1:] + Lvals[:, :-1]) * dts, axis=1)
    S_T = np.exp(-integral + path[:, -1, :] @ theta)
    n = S_T.size
    mean = float(np.mean(S_T))
    stderr = float(np.std(S_T, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return GapReport(mean=mean, stderr=stderr, predicted=predicted,
                     martingale_value=martingale_value,
                     excludes_martingale=excludes, z_vs_predicted=float(z_pred),
                     survival_mean=survival_mean, survival_stderr=survival_stderr)
