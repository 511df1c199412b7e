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
draws no pick table.  A stream's key is numpy's SeedSequence hash of its
uint32 words, and the hash vectorizes over the step: the first table of a
stream family (one purpose and round, the step varying) in a chunk of
``_KEY_CHUNK`` steps computes the keys of the whole chunk in one pass
(``_StreamKeys``).  Workers run one chunk at a time and share its keys.
Each thread keeps one Philox generator and sets its key per table.
Reductions run in fixed path order, so parallel and serial runs are
bit-identical, as are reruns with identical options.

Layout
------
The Euler loop keeps its working state coordinate-major: row j holds
coordinate j of every path of a worker's block, so each step is a few
in-place passes over contiguous rows, on buffers allocated once per block.
The matrix products (drift, J-block drift, diffusion factor) are the
path-major BLAS calls on transposed views, and a drift product with one
term (m = 1) is its single exact product, so the bits do not depend on the
layout.  Recorded states wait in a buffer of ``_REC_BLOCK`` records and are
written to the ensemble a block at a time.  ``PathEnsemble.states`` keeps
its layout: a C-contiguous ``(npaths, k, d)`` array.

An ensemble runs on one worker thread per 10,000 paths, capped at the number
of CPUs the process may run on: ensembles below 20,000 paths run serially,
and so does a process pinned to one CPU (for example with ``taskset -c 0``).

Paths whose state magnitude passes 1e12 are flagged exploded and frozen, not
errored, also in the middle of a jump cascade; the estimators count an
exploded path in the cemetery, where every e^{<u, X_T>} and S~_T is 0.  A
path whose cascade runs out of rounds (CASCADE_ROUND_CAP) is frozen and
flagged exhausted, never exploded.

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
from .esscher import TiltSpec, _identity_failure, discounted_functional, tilt_model
from .model import AffineModel, TemperedStableHalf, validate_model
from .riccati import SolveOptions, _real_finite, _write_csv, solve_minimal, solve_riccati

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

# recorded states a worker buffers before it writes them to the ensemble, so
# that a flush writes a run of records of each path at once.  At 100,000
# paths (d = 1, one x86_64 CPU) a flush cost about 0.4 ms per record with
# 16, against about 1 ms for one record at a time, 1.1 ms with 4 and 0.3 ms
# with 32, which doubles the 12.8 MB buffer
_REC_BLOCK = 16

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


# the constants of numpy's SeedSequence hash (a 4-word pool)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(first: int, mult: int, n: int) -> np.ndarray:
    """The n + 1 hash constants first, first * mult, ... (mod 2**32), as a
    uint32 column."""
    out = [first]
    for _ in range(n):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)[:, None]


_GEN_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 4)
_OTHER_POOL_WORDS = [[j for j in range(4) if j != i] for i in range(4)]


def _hashmix(v: np.ndarray, c: np.ndarray) -> np.ndarray:
    """numpy's hashmix of the rows of v, row i with the constants c[i] (xor)
    and c[i + 1] (product)."""
    v = v ^ c[:-1]
    v *= c[1:]
    v ^= v >> 16
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_MULT_L)
    r -= y * np.uint32(_MIX_MULT_R)
    r ^= r >> 16
    return r


def _philox_keys(words) -> np.ndarray:
    """The Philox key ``SeedSequence(w).generate_state(2, np.uint64)`` of
    each column w of the (nwords, n) uint32 array ``words``, as (n, 2) uint64.

    numpy's hash, run on whole rows: the words are hashed into a 4-word pool,
    the pool words mix with each other, the words past the fourth mix into
    every pool word, and the pool is hashed into the 4 uint32 words of the
    key.  Every hash constant depends only on the number of words, so the n
    keys take one pass of uint32 array operations, which wrap as numpy's
    own do.
    """
    words = np.asarray(words, dtype=np.uint32)
    nwords, n = words.shape
    c = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * max(0, nwords - 4))
    pool = np.zeros((4, n), dtype=np.uint32)
    pool[:min(nwords, 4)] = words[:4]
    pool = _hashmix(pool, c[0:5])
    k = 4
    for i, others in enumerate(_OTHER_POOL_WORDS):
        pool[others] = _mix(pool[others], _hashmix(pool[i], c[k:k + 4]))
        k += 3
    for w in words[4:]:
        pool = _mix(pool, _hashmix(w, c[k:k + 5]))
        k += 4
    state = _hashmix(pool, _GEN_CONSTANTS)
    # numpy reads the uint32 words as little-endian uint64 pairs
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


# steps per key pass: a power of two, so that no chunk straddles a multiple
# of 2**32, where a step takes one more word
_KEY_CHUNK = 256


def _round_keyed(purpose: int) -> bool:
    """Whether the first extra word of the purpose's streams is a cascade
    round."""
    return purpose in (_P_CASCADE_WAIT, _P_CASCADE_PICK) or purpose >= _P_SIZE


class _StreamKeys:
    """The Philox keys of the streams (seed, step, purpose, *extra) of one
    simulation of ``nsteps`` steps, a chunk of ``_KEY_CHUNK`` steps at a time.

    The first key asked of a stream family (one (purpose, extra), the step
    varying) in a chunk builds the family's keys over the chunk's steps in
    one ``_philox_keys`` pass.  A cascade round builds, with its own, the
    keys of the other rounds of its block [0], [1], [2, 3], [4, 7], ...
    (the last block ends at ``CASCADE_ROUND_CAP``), so a cascade of r rounds
    takes about log2 r passes.  ``tables`` holds the keys of one chunk
    only, and a key of another chunk drops them: 16 bytes per step of the
    chunk for each family and each round of the blocks reached, whatever
    ``nsteps`` is.  Keys are built under a lock, so worker threads share
    them; ``_simulate`` keeps its workers in one chunk at a time.
    """

    def __init__(self, seed, nsteps: int):
        self.seed = _words(seed)
        self.nsteps = nsteps
        self.tables = {}
        self._lock = threading.Lock()

    def key(self, step: int, purpose: int, extra=()) -> np.ndarray:
        chunk, i = divmod(step, _KEY_CHUNK)
        table = self.tables.get((chunk, purpose, extra))
        if table is None:
            table = self._build(chunk, purpose, extra)
        return table[i]

    def _build(self, chunk, purpose, extra):
        with self._lock:
            family = (chunk, purpose, extra)
            if family in self.tables:
                return self.tables[family]
            first = chunk * _KEY_CHUNK
            n = min(_KEY_CHUNK, self.nsteps - first)
            if _round_keyed(purpose):
                r = int(extra[0])
                lo = 1 << (r.bit_length() - 1) if r else 0
                rounds = np.arange(lo, max(min(2 * lo, CASCADE_ROUND_CAP), r + 1),
                                   dtype=np.uint32)
                families = [(chunk, purpose, (int(q), *extra[1:])) for q in rounds]
                varying, constant = [np.repeat(rounds, n)], extra[1:]
            else:
                families, varying, constant = [family], [], extra
            # one column per (round, step), round-major; the chunk's steps
            # share every word but the lowest
            step_words = _words(first)
            steps = np.tile(np.arange(n, dtype=np.uint32) + step_words[0], len(families))
            rows = [*self.seed, steps, *step_words[1:], *_words(purpose), *varying,
                    *(w for x in constant for w in _words(x))]
            words = np.empty((len(rows), steps.size), dtype=np.uint32)
            for j, row in enumerate(rows):
                words[j] = row
            keys = _philox_keys(words).reshape(len(families), n, 2)
            tables = {f: t for f, t in self.tables.items() if f[0] == chunk}
            tables.update(zip(families, keys))
            self.tables = tables
            return tables[family]


_thread = threading.local()


def _uniforms(keys: _StreamKeys, step: int, purpose: int, shape, extra=(), start: int = 0):
    """Rows ``start:start + shape[0]`` of the table of uniforms that the
    Philox stream keyed by (seed, step, purpose, *extra) fills row by row.

    The result is bit-identical to that slice of
    ``Generator(Philox(SeedSequence((seed, step, purpose, *extra)))).random``
    of a table that has ``shape[1:]`` per row.  ``keys`` holds the seed and
    the precomputed key.  Each thread re-keys one generator with it, and the
    counter skips the 4-double Philox blocks before the first row.
    """
    try:
        gen, state = _thread.stream
    except AttributeError:
        gen = np.random.Generator(np.random.Philox(0))
        state = gen.bit_generator.state      # counter 0, empty buffer
        _thread.stream = gen, state
    shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    skip, drop = divmod(start * math.prod(shape[1:]), 4)
    state["state"]["key"] = keys.key(step, purpose, extra)
    state["state"]["counter"][0] = skip
    gen.bit_generator.state = state
    if not drop:
        return gen.random(shape)
    return gen.random(math.prod(shape) + drop)[drop:].reshape(shape)


def _row_span(keys, step, purpose, rows, cols=None, extra=()):
    """The uniforms of table rows ``rows`` (ascending), drawn over their span."""
    first = int(rows[0])
    n = int(rows[-1]) - first + 1
    u = _uniforms(keys, step, purpose, n if cols is None else (n, cols), extra, first)
    return u[rows - first]


def _sample_tail_values(measure, eps, rows, keys, step, purpose, jump_round):
    """One tail jump size for each of the paths ``rows`` (ascending), by
    inverse CDF.

    The table has two columns, of which the families read the first, and is
    keyed by (jump_round, 0): the pinned seeded ensembles were drawn with
    this layout, and any other changes their bits.
    """
    u = _row_span(keys, step, purpose, rows, 2, extra=(jump_round, 0))
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
    rec_steps = set(rec_idx[1:])
    times = np.array([s * h for s in rec_idx])

    npaths = opts.npaths
    states = np.empty((npaths, len(rec_idx), d))
    survived = np.ones(npaths, dtype=bool)
    exhausted = np.zeros(npaths, dtype=bool)
    states[:, 0, :] = opts.x0
    nsrc = len(sources)
    keys = _StreamKeys(opts.seed, nsteps)

    var_coef = 2.0 * alpha * h    # per-unit-X_i variance of the step, (m,)

    def run_block(lo: int, hi: int):
        """Paths lo:hi, a generator that stops after each chunk of
        _KEY_CHUNK steps, so that every worker draws from one chunk of keys
        at a time."""
        # coordinate-major rows; see Layout in the module docstring
        nb = hi - lo
        X = np.empty((d, nb))
        X[:] = opts.x0[:, None]
        Xp = np.empty_like(X)
        X_new = np.empty_like(X)
        tmp = np.empty((m, nb))
        mag = np.empty(nb)
        blow = np.empty(nb, dtype=bool)
        alive = survived[lo:hi]
        # recorded states wait here and go to `states` a block at a time
        block = np.empty((min(_REC_BLOCK, len(rec_idx) - 1), d, nb))
        filled = 0
        k0 = 1
        for step in range(nsteps):
            np.maximum(X[:m], 0.0, out=Xp[:m])
            Xp[m:] = X[m:]
            # X_new = X + h * drift, with drift = drift_const + Xp_I beta_sim
            # (+ X_J beta_JJ^T on the J rows), each operation in that order
            if m == 1:
                # one term: the matmul's single exact product, in one row pass
                # instead of a BLAS call about 12x its cost (about 0.65 ms per
                # 100,000-path step)
                np.multiply(Xp[:1], beta_sim.T, out=X_new)
                np.add(drift_const[:, None], X_new, out=X_new)
            else:
                np.add(drift_const[:, None], (Xp[:m].T @ beta_sim).T, out=X_new)
            if shape.n:
                X_new[m:] += (X[m:].T @ model.beta_JJ.T).T
            np.multiply(h, X_new, out=X_new)
            np.add(X, X_new, out=X_new)

            if L is not None:
                Z = ndtri(_uniforms(keys, step, _P_GAUSS_CONST, (nb, d), start=lo))
                G = Z @ L.T
                np.multiply(sqrt_h, G, out=G)
                X_new += G.T
            if has_alpha:
                Z2 = ndtri(_uniforms(keys, step, _P_GAUSS_LIN, (nb, m), start=lo))
                np.multiply(var_coef[:, None], Xp[:m], out=tmp)
                np.sqrt(tmp, out=tmp)
                tmp *= Z2.T
                X_new[:m] += tmp

            for s_idx, (mu, coord) in enumerate(increment_sources):
                t = np.full(nb, h) if coord is None else h * Xp[coord]
                u_inc = _uniforms(keys, step, _P_INCREMENT, (nb, 2), extra=(s_idx,), start=lo)
                X_new[mu.axis] += mu.increment(t, u_inc)

            if nsrc:
                # exact within-step jump cascade: waiting times at the current
                # thinning intensity, re-frozen at each jump's left limit so
                # self-excitation inside the step is not lost.  A round works
                # on the rows still waiting (idx, ascending, and their
                # clocks tau) and draws the table rows lo + idx only.
                blown = np.zeros(nb, dtype=bool)
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
                            np.maximum(Xj[coord, idx], 0.0) * lam
                    itot = inten[:, 0] if nsrc == 1 else inten.sum(axis=1)
                    u_wait = _row_span(keys, step, _P_CASCADE_WAIT, lo + idx, extra=(rnd,))
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
                        u_pick = _row_span(keys, step, _P_CASCADE_PICK, lo + idx, extra=(rnd,))
                        cdf = np.cumsum(inten[jumping], axis=1) \
                            / np.maximum(itot[jumping], 1e-300)[:, None]
                        pick = np.sum(u_pick[:, None] > cdf, axis=1)
                        picked = [idx[pick == s_idx] for s_idx in range(nsrc)]
                    for s_idx, ((mu, coord, lam), rows) in enumerate(zip(sources, picked)):
                        if rows.size:
                            Xj[mu.axis, rows] += _sample_tail_values(
                                mu, eps, lo + rows, keys, step, _P_SIZE + s_idx, rnd)
                    # a path past the explosion cap leaves the cascade at once
                    over = np.max(np.abs(Xj[:, idx]), axis=0) > EXPLOSION_CAP
                    if over.any():
                        blown[idx[over]] = True
                        idx, tau = idx[~over], tau[~over]
                    rnd += 1
                X_new += Xj - Xp

            np.maximum(X_new[:m], 0.0, out=X_new[:m])
            # a running maximum keeps np.max's NaN propagation
            np.abs(X_new[0], out=mag)
            for row in X_new[1:]:
                np.maximum(mag, np.abs(row), out=mag)
            np.greater(mag, EXPLOSION_CAP, out=blow)
            if nsrc:
                blow |= blown
            alive &= ~blow
            # explosions and exhausted cascades clear `alive`; while every path
            # of the block lives, a plain copy costs a fraction of the masked one
            if alive.all():
                np.copyto(X, X_new)
            else:
                np.copyto(X, X_new, where=alive)

            if step + 1 in rec_steps:
                block[filled] = X
                filled += 1
                if filled == len(block) or step + 1 == nsteps:
                    states[lo:hi, k0:k0 + filled] = block[:filled].transpose(2, 0, 1)
                    k0 += filled
                    filled = 0
            if (step + 1) % _KEY_CHUNK == 0 or step + 1 == nsteps:
                yield

    nworkers = _workers(npaths)
    if nworkers > 1:
        cuts = np.linspace(0, npaths, nworkers + 1, dtype=int)
        blocks = [run_block(a, b) for a, b in zip(cuts[:-1], cuts[1:])]
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            for _ in range(0, nsteps, _KEY_CHUNK):
                list(pool.map(next, blocks))
    else:
        for _ in run_block(0, npaths):
            pass

    return PathEnsemble(times=times, states=states, survived=survived, exhausted=exhausted)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def _refuse_exhausted(ens: PathEnsemble, paths: str, consequence: str):
    """SolverError when any path of ens ran out of cascade rounds."""
    if np.any(ens.exhausted):
        raise SolverError(f"{int(ens.exhausted.sum())} {paths} ran out of jump cascade rounds; "
                          + consequence)


def _cemetery_mean(ens: PathEnsemble, surviving: np.ndarray):
    """Sample mean and standard error over all paths of a value given on
    the surviving paths, 0 on the others, which sit in the cemetery."""
    vals = np.zeros(ens.npaths)
    vals[ens.survived] = surviving
    n = vals.size
    stderr = float(np.std(vals, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(np.mean(vals)), stderr


@dataclass(frozen=True)
class MomentEstimate:
    mean: float
    stderr: float
    exploded_fraction: float


def estimate_exp_moment(ensemble: PathEnsemble, u) -> MomentEstimate:
    """Sample mean and standard error of e^{<u, X_T>} over all paths, an
    exploded path counting as 0: it sits in the cemetery, as in
    ``martingale_gap``'s plain mean.

    Raises SolverError when any path ran out of cascade rounds: its terminal
    value is unknown, and dropping it would bias the mean without a flag.
    """
    u = _real_finite(u, "u", ensemble.states.shape[2])
    _refuse_exhausted(ensemble, "paths",
                      "their terminal values are unknown, so no moment estimate is given")
    mean, stderr = _cemetery_mean(ensemble, np.exp(ensemble.terminal[ensemble.survived] @ u))
    return MomentEstimate(mean=mean, stderr=stderr,
                          exploded_fraction=float(np.mean(ensemble.exploded)))


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
        """Whether z is not a finite number within +-3, NaN included (when
        every path explodes, the mean and its standard error are 0 and z is
        -inf)."""
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
    u = _real_finite(u, "u", model.shape.d)
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

    ``mean``/``stderr`` are the plain sample mean of S~_T over the base
    paths (0 on an exploded one) and its sample standard error, kept for the
    record: at the boundary of the domain the variance of S~_T can be
    infinite, and then that standard error supports no interval.
    ``survival_mean``/``survival_stderr`` are
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
    reported alongside: ``discounted_functional`` on a surviving path, and 0
    on an exploded one, which sits in the cemetery.  Raises SolverError when
    a tilted or a base path runs out of cascade rounds, since its survival
    is then unknown.

    The tilted model must be path-sampled.  A jump measure that is not
    closed under tilting becomes an ExpTiltedMeasure, which has no path
    sampler, and the call raises ConfigError for it, plain estimate
    included; the built-in measure families are all closed under tilting.
    """
    theta = _real_finite(spec.theta, "TiltSpec.theta", model.shape.d)
    failed = _identity_failure(model, spec)
    if failed is not None:
        raise ConfigError(f"spec fails the algebraic condition {failed[0]}")

    ts, psi_min, phi_min, _ = solve_minimal(model, theta, SolveOptions(T=opts.T),
                                            l=spec.l, lam=spec.lam)
    predicted = math.exp(float(phi_min[-1]) + float(psi_min[-1] @ opts.x0))
    martingale_value = math.exp(float(theta @ opts.x0))

    tilted = _simulate(tilt_model(model, theta), opts)
    _refuse_exhausted(tilted, "tilted paths",
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
    _refuse_exhausted(ens, "base paths", "their S~_T is unknown, so no plain mean is given")
    # an exploded path sits in the cemetery, where S~_T = 0
    mean, stderr = _cemetery_mean(
        ens, discounted_functional(spec, ens.times, ens.states[ens.survived]))
    return GapReport(mean=mean, stderr=stderr, predicted=predicted,
                     martingale_value=martingale_value,
                     excludes_martingale=excludes, z_vs_predicted=float(z_pred),
                     survival_mean=survival_mean, survival_stderr=survival_stderr)
