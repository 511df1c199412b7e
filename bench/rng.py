"""Costs of the Philox tables, the simulations of one mc-jumps and one
mc-diffusion job and default-size ensembles, parent against change.

    python3 bench/rng.py --parent ../parent/src --commit <sha>

Measures two source trees, ``--src`` (the change, default ``src``) and
``--parent`` (a ``git archive`` copy of the parent commit), in fresh
interpreters that alternate as ``bench/pairs.py`` sets out, ``PAIRS`` pairs.
Each pair runs, for each side:

* a measuring process that records, pinned to one CPU,
  - ``table_us``: microseconds per ``montecarlo._uniforms`` table of 1 row
    and of 1,000 rows, drawn as ``_simulate`` draws them (the key, the
    stream set-up and the draw): from a ``_StreamKeys`` made inside the
    timed round, its key passes included;
  - ``call_ms``: milliseconds of each call of one ``mc-jumps`` job of
    ``perfbench/workloads.py`` at seed ``SEED`` (kr2014 simulation,
    cir-jump simulation, ``martingale_gap``), median over ``JOBS`` jobs
    after one warm-up job, and ``job_ms``, their sum;
  - ``diffusion_ms``: the same for the four calls of one ``mc-diffusion``
    job (the 1,000- and 100,000-path feller ensembles and the two
    ``affine_formula_check`` calls), and ``diffusion_job_ms``, their sum;

  and then, on every CPU the process may run on,
  - ``default_ms``: milliseconds of each ensemble of ``DEFAULT`` with the
    default worker count (one per 10,000 paths, at most one per CPU),
    median over ``JOBS`` runs after one hashed run;
  - ``sha256``: the ensembles of ``DEFAULT``, beside those of ``HASHED``,
    hashed on one CPU;
* a process that runs only the untempered stall case (``STALL``) and
  records its seconds, its peak RSS, its exhausted paths and its sha256.

The records go to ``--out`` with each side's medians, the change/parent
ratios of those medians, the pairs the change won, and, digest by digest,
whether it is the same in every run.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import sys
import time

import pairs

SEED = 1       # seed of the mc-jumps job
PAIRS = 10     # parent/change pairs
JOBS = 3       # timed jobs per measuring process
TABLES = 2000  # tables per table_us round
# (model, jump_trunc) ensembles at seed 99, T 0.5, dt 2e-3, 2,000 paths,
# x0 = 1 (mixed: x0 = (0.8, 0.5, -0.2))
HASHED = [("cir-jump", 1e-3), ("kr2014", 1e-3), ("kr2014", 1e-4), ("two-source", 1e-3),
          ("feller", 1e-3), ("mixed", 1e-3)]
MIXED_X0 = [0.8, 0.5, -0.2]
# (model, jump_trunc, npaths) ensembles at seed 7, T 0.5, dt 5e-3: the sizes
# at which the default worker count is 1 and 2 on a two-CPU machine
DEFAULT = [("feller", 1e-3, 20_000), ("feller", 1e-3, 100_000),
           ("kr2014", 1e-4, 20_000), ("kr2014", 1e-4, 100_000)]
# tilted kr2014 with untempered linear jumps, sampled by exact increments
# (a jump cascade over them ran out of rounds on 3 of the 200 paths)
STALL = dict(x0=[1.0], T=0.3, dt=2e-3, npaths=200)


def _sha(ens):
    return hashlib.sha256(ens.states.tobytes() + ens.survived.tobytes()).hexdigest()


def _seconds(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _model(ar, name):
    """A model of HASHED: a built-in one, or the two-source or mixed model of
    the pinned ensembles in tests/."""
    if name == "two-source":
        return ar.AffineModel(shape=ar.StateShape(1, 0), a=[[0.0]], b=[0.5], alpha=[1.0],
                              beta_I=[[-1.0]],
                              mu0=ar.CompoundPoissonExp(rate=0.3, jump_rate=2.0, axis=0),
                              mus=(ar.TemperedStableHalf(scale=0.2, tempering=1.0, axis=0),))
    if name == "mixed":
        return ar.AffineModel(
            shape=ar.StateShape(1, 2),
            a=[[0.0, 0.0, 0.0], [0.0, 0.2, 0.05], [0.0, 0.05, 0.4]], b=[0.2, -0.1, 0.3],
            alpha=[0.5], beta_I=[[-0.7, 0.1, -0.2]], beta_JJ=[[-0.5, 0.2], [0.0, -0.3]],
            mu0=ar.CompoundPoissonPoint(rate=0.4, size=-0.8, axis=2),
            mus=(ar.GammaLevy(c=0.3, rho=2.0, axis=0),))
    return ar.builtin_model(name)


def _call_ms(calls):
    """Median milliseconds of each call over JOBS rounds, after one warm-up."""
    for fn in calls.values():
        fn()
    return {name: 1e3 * statistics.median(_seconds(fn) for _ in range(JOBS))
            for name, fn in calls.items()}


def measure(ar):
    from affine_riccati import montecarlo

    sys.path.insert(1, str(pairs.REPO / "perfbench"))
    import workloads

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    table_us = {}
    for rows in (1, 1000):
        def tables():
            keys = montecarlo._StreamKeys(123456, TABLES)
            for k in range(TABLES):
                montecarlo._uniforms(keys, k, 3, rows, extra=(5,))
        tables()
        table_us[f"{rows} rows"] = 1e6 * min(_seconds(tables) for _ in range(5)) / TABLES

    w = workloads.McJumps(SEED)
    call_ms = _call_ms({
        "kr2014 simulate": lambda: ar.simulate_paths(w.kr, w.kr_opts),
        "cir-jump simulate": lambda: ar.simulate_paths(w.cj, w.cj_opts),
        "martingale_gap": lambda: ar.martingale_gap(w.kr, w.spec, w.gap_opts),
    })
    v = workloads.McDiffusion(SEED)
    diffusion_ms = _call_ms({
        "feller small simulate": lambda: ar.simulate_paths(v.fe, v.small),
        "feller large simulate": lambda: ar.simulate_paths(v.fe, v.large),
        "affine_formula_check": lambda: ar.affine_formula_check(v.fe, v.check_opts, [-0.5]),
        "affine_formula_check c=0.5": lambda: ar.affine_formula_check(
            v.killed, v.killed_opts, [-0.5]),
    })

    sha = {}
    for name, trunc in HASHED:
        opts = ar.SimOptions(x0=MIXED_X0 if name == "mixed" else [1.0], T=0.5, dt=2e-3,
                             npaths=2000, seed=99, jump_trunc=trunc)
        sha[f"{name} {trunc:g}"] = _sha(ar.simulate_paths(_model(ar, name), opts))

    os.sched_setaffinity(0, cpus)
    default_ms = {}
    for name, trunc, npaths in DEFAULT:
        model = ar.builtin_model(name)
        opts = ar.SimOptions(x0=[1.0], T=0.5, dt=5e-3, npaths=npaths, seed=7, jump_trunc=trunc)
        key = f"{name} {trunc:g} {npaths}"
        sha[key] = _sha(ar.simulate_paths(model, opts))
        default_ms[key] = 1e3 * statistics.median(
            _seconds(lambda: ar.simulate_paths(model, opts)) for _ in range(JOBS))
    return {"table_us": table_us, "call_ms": call_ms, "job_ms": sum(call_ms.values()),
            "diffusion_ms": diffusion_ms, "diffusion_job_ms": sum(diffusion_ms.values()),
            "default_ms": default_ms, "sha256": sha}


def stall(ar):
    model = ar.tilt_model(ar.kr2014(), [1.0])
    ens = None

    def run():
        nonlocal ens
        ens = ar.simulate_paths(model, ar.SimOptions(**STALL))

    seconds = _seconds(run)
    return {"seconds": seconds, "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "exhausted": int(ens.exhausted.sum()), "sha256": _sha(ens)}


if __name__ == "__main__":
    sys.exit(pairs.main(
        __file__, {"measure": measure, "stall": stall},
        lambda r: {"sha256": r["sha256"], "stall.sha256": r["stall"]["sha256"],
                   "stall.exhausted": r["stall"]["exhausted"]},
        {"seed": SEED, "jobs": JOBS, "tables": TABLES, "hashed": HASHED, "default": DEFAULT,
         "stall": STALL, "one_cpu": ["table_us", "call_ms", "diffusion_ms", "sha256 of HASHED"]},
        PAIRS))
