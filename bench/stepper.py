"""Costs of the Riccati stepper, layer by layer, and a digest of its outputs.

    python3 bench/stepper.py --src src --label change
    python3 bench/stepper.py --src ../parent/src --label parent --commit <sha>

Imports ``affine_riccati`` from ``--src``, so that a checkout of another
commit (a ``git worktree`` or a ``git archive`` copy) is measured by the same
script, and records on one CPU:

* ``eval_us``: microseconds per ``eval_R`` + ``eval_F`` pair, called as the
  stepper calls them (``check_domain=False``), for each built-in jump family
  on a scalar model that carries it in both F and R, at a real and at a
  complex u;
* ``step_us``: microseconds per accepted DP5(4) step, for a real and a
  complex solve of each built-in model;
* ``solve_ms``: milliseconds per solve over the cases of the ``transforms``
  workload of ``perfbench/workloads.py`` at seed ``SEED``, in total and by kind;
* ``sha256``: a digest of every array and value those solves return, the
  proof that two labels compute the same trajectories.

Every time is the minimum over ``ROUNDS`` rounds (four times as many,
shorter ones for ``eval_us``).  The figures are merged
into ``--out`` under ``--label``; when the file holds both ``parent`` and
``change``, it also gets their ratios and whether the digests agree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

REPO = Path(__file__).resolve().parent.parent
SEED = 1      # seed of the transforms cases
ROUNDS = 15   # timing rounds per figure


def _best(fn, rounds):
    """Minimum over rounds of the seconds one call of fn takes."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _families(ar):
    tsh = ar.TemperedStableHalf(scale=0.3, tempering=1.2, axis=0)
    return {
        "zero": (ar.ZeroJumps(), True),
        "compound-poisson-exp": (ar.CompoundPoissonExp(rate=0.7, jump_rate=1.5, axis=0), True),
        "compound-poisson-point": (ar.CompoundPoissonPoint(rate=0.4, size=0.6, axis=0), True),
        "gamma": (ar.GammaLevy(c=0.5, rho=2.0, axis=0), True),
        "tempered-stable-half": (tsh, True),
        # quadrature-backed: real u only
        "exp-tilted-quadrature": (ar.ExpTiltedMeasure(tsh, 0.4), False),
    }


def eval_costs(ar, rounds):
    out = {}
    for name, (mu, complex_ok) in _families(ar).items():
        model = ar.AffineModel(shape=ar.StateShape(1, 0), a=[[0.0]], b=[0.5], alpha=[1.0],
                               beta_I=[[-1.0]], mu0=mu, mus=(mu,))
        us = {"real": np.array([-0.5])}
        if complex_ok:
            us["complex"] = np.array([-0.5 + 1.0j])
        for kind, u in us.items():
            n = 5 if name.startswith("exp-tilted") else 500

            def run():
                for _ in range(n):
                    ar.eval_R(model, u, check_domain=False)
                    ar.eval_F(model, u, check_domain=False)

            run()  # warm caches and imports
            # many short rounds: the minimum then misses the machine's slow spells
            out[f"{name} {kind}"] = 1e6 * _best(run, 4 * rounds) / n
    return out


def step_costs(ar, rounds):
    out = {}
    for name in ("feller", "kr2014", "cir-jump"):
        model = ar.builtin_model(name)
        for kind, u in (("real", -1.0), ("complex", 1.0j)):
            opts = ar.SolveOptions(T=2.0)
            steps = len(ar.solve_riccati(model, [u], opts).ts) - 1
            seconds = _best(lambda: ar.solve_riccati(model, [u], opts), rounds)
            out[f"{name} {kind}"] = 1e6 * seconds / steps
    return out


def _run_case(ar, models, case):
    _, kind, name, u, T, l, lam = case
    model, opts = models[name], ar.SolveOptions(T=T)
    if kind in ("solve", "phi_end"):
        sol = ar.solve_riccati(model, [u], opts)
    elif kind == "tilted":
        sol = ar.solve_tilted(model, l, [lam], [u], opts)
    elif kind == "blowup_time":
        return [ar.blowup_time(model, [u], T)]
    else:
        ts, psi, phi, status = ar.solve_minimal(model, [u], opts)
        return [ts, psi, phi, status.kind, status.t_event]
    return [sol.ts, sol.psi, sol.phi, sol.dpsi, sol.dphi, sol.status.kind, sol.status.t_event]


def _digest(values):
    h = hashlib.sha256()
    for v in values:
        if isinstance(v, np.ndarray):
            h.update(str(v.dtype).encode())
            h.update(np.ascontiguousarray(v).tobytes())
        else:
            h.update(repr(v).encode())
    return h.hexdigest()


def solve_costs(ar, seed, rounds):
    sys.path.insert(1, str(REPO / "perfbench"))
    import workloads

    cases = workloads.Transforms(seed).cases
    models = {name: ar.builtin_model(name) for name in ("feller", "kr2014", "cir-jump")}
    outputs = []
    for case in cases:
        outputs.extend(_run_case(ar, models, case))
    per_case = [_best(lambda: _run_case(ar, models, case), rounds) for case in cases]
    by_kind = {}
    for case, seconds in zip(cases, per_case):
        by_kind.setdefault(case[1], []).append(seconds)
    return {
        "cases": len(cases),
        "mean": 1e3 * sum(per_case) / len(cases),
        "by_kind": {k: 1e3 * sum(v) / len(v) for k, v in by_kind.items()},
    }, _digest(outputs)


def _summary(runs):
    parent, change = runs.get("parent"), runs.get("change")
    if parent is None or change is None:
        return None

    def ratios(a, b):
        return {k: b[k] / a[k] for k in a if k in b}

    return {
        "identical": parent["sha256"] == change["sha256"],
        "change_over_parent": {
            "eval_us": ratios(parent["eval_us"], change["eval_us"]),
            "step_us": ratios(parent["step_us"], change["step_us"]),
            "solve_ms": change["solve_ms"]["mean"] / parent["solve_ms"]["mean"],
        },
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="the src/ directory to import affine_riccati from")
    ap.add_argument("--label", required=True, help="key of these figures in the output file")
    ap.add_argument("--commit", default=None, help="commit of --src, recorded as given")
    ap.add_argument("--out", default=str(REPO / "BENCH_stepper.json"))
    args = ap.parse_args(argv)

    src = Path(args.src).resolve()
    if not (src / "affine_riccati" / "__init__.py").is_file():
        print(f"stepper: no affine_riccati package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["AFFINE_RICCATI_THREADS"] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import affine_riccati as ar

    solve_ms, sha = solve_costs(ar, SEED, ROUNDS)
    record = {
        "commit": args.commit,
        "eval_us": eval_costs(ar, ROUNDS),
        "step_us": step_costs(ar, ROUNDS),
        "solve_ms": solve_ms,
        "sha256": sha,
    }
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.is_file() else {}
    doc["machine"] = {
        "cpu": platform.machine(), "cpus": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "pinned_cpus": 1,
    }
    doc["settings"] = {"seed": SEED, "rounds": ROUNDS}
    doc.setdefault("runs", {})[args.label] = record
    doc["summary"] = _summary(doc["runs"])
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps({args.label: record, "summary": doc["summary"]}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
