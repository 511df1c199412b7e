"""Costs of the Riccati stepper, layer by layer, and a digest of its outputs,
parent against change.

    python3 bench/stepper.py --parent ../parent/src --commit <sha>

Measures two source trees, ``--src`` (the change, default ``src``) and
``--parent`` (a ``git archive`` copy of the parent commit), in fresh
interpreters that alternate as ``bench/pairs.py`` sets out, ``PAIRS`` pairs.
Each run is pinned to one CPU and records:

* ``eval_us``: microseconds per ``eval_R`` + ``eval_F`` pair, called with
  the stepper's ``check_domain=False`` but directly, so each call enters
  its own np.errstate, for each built-in jump family on a scalar model that
  carries it in both F and R, at a real and at a complex u; and per call of
  the verdict pipeline's reduced fields at a real v,
  ``ReducedField.from_model(tilt_model(kr2014(), [1.0]))`` (m = 1) and that
  of the ``verdicts`` workload's tilted kr2014 pair (m = 2);
* ``field_us``: microseconds per call of the full-system field as the
  stepper makes it (``riccati._full_system`` with no discount, called on a
  row of the solve's dtype inside one ``quiet_fp``), for feller at a real
  and cir-jump at a complex u;
* ``step_us``: microseconds per accepted DP5(4) step, for a real and a
  complex solve of each built-in model;
* ``solve_ms``: milliseconds per solve over the cases of the ``transforms``
  workload of ``perfbench/workloads.py`` at seed ``SEED``, in total and by kind;
* ``sha256_real`` and ``sha256_complex``: digests of every array and value
  those solves return, over the cases with a real and with a complex u, so
  that a change of trajectories shows which kind of solve it moved;
* ``ladder_ms``: milliseconds per call of the three epsilon-ladder callers
  of the ``verdicts`` workload, ``solve_minimal`` on kr2014 from 1 to T = 2,
  ``minimal_reduced_trajectory`` of tilted kr2014 on the comparison grid
  and ``check_conservative`` on the tilted kr2014 pair (the probe ladder),
  with ``ladder_sha256``, a digest of what they return;
* ``lane_us``: microseconds per lane of one run of the DP5(4) lane loop
  (``riccati._lanes``) over N nearby starts of kr2014, for each N in
  ``LANES``.

Within one run every time is the minimum over ``ROUNDS`` rounds (four
times as many, shorter ones for ``eval_us``).  The records go to ``--out``
with each side's medians over the pairs, the change/parent ratios of those
medians, the pairs the change won, and, digest by digest, whether it is
the same in every run.
"""

from __future__ import annotations

import hashlib
import sys
import time

import numpy as np

import pairs

SEED = 1      # seed of the transforms cases
ROUNDS = 15   # timing rounds per figure within one run
PAIRS = 10    # parent/change pairs
LANES = (1, 3, 4, 10, 100, 1000)   # lane counts of lane_us


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

            out[f"{name} {kind}"] = _call_us(run, n, rounds)
    fields = {"tilted-kr2014": (ar.tilt_model(ar.kr2014(), [1.0]), [-0.5]),
              "tilted-kr2014-pair": (ar.tilt_model(_workloads().kr2014_pair(), [1.0, 1.0]),
                                     [-0.5, -0.3])}
    for name, (model, v) in fields.items():
        field, v = ar.diagnostics.ReducedField.from_model(model), np.array(v)
        n = 1000

        def run():
            for _ in range(n):
                field(v)

        out[f"reduced-field {name} real"] = _call_us(run, n, rounds)
    return out


def _call_us(run, n, rounds):
    """Microseconds per call of a run of n calls."""
    run()  # warm caches and imports
    # many short rounds: the minimum then misses the machine's slow spells
    return 1e6 * _best(run, 4 * rounds) / n


def field_costs(ar, rounds):
    from affine_riccati import riccati
    from affine_riccati.model import quiet_fp

    out = {}
    for name, kind, u in (("feller", "real", -0.5), ("cir-jump", "complex", -0.5 + 1.0j)):
        model = ar.builtin_model(name)
        z = np.array([u, 0.0])
        field = riccati._full_system(model, 0.0, np.zeros(1), z.dtype)
        n = 1000

        def run():
            with quiet_fp():
                for _ in range(n):
                    field(z)

        out[f"{name} {kind}"] = _call_us(run, n, rounds)
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


def _workloads():
    """perfbench/workloads.py, which builds the cases of the transforms and
    verdicts workloads."""
    if str(pairs.REPO / "perfbench") not in sys.path:
        sys.path.insert(1, str(pairs.REPO / "perfbench"))
    import workloads

    return workloads


def solve_costs(ar, seed, rounds):
    cases = _workloads().Transforms(seed).cases
    models = {name: ar.builtin_model(name) for name in ("feller", "kr2014", "cir-jump")}
    outputs = {"real": [], "complex": []}
    for case in cases:
        outputs["complex" if isinstance(case[3], complex) else "real"].extend(
            _run_case(ar, models, case))
    per_case = [_best(lambda: _run_case(ar, models, case), rounds) for case in cases]
    by_kind = {}
    for case, seconds in zip(cases, per_case):
        by_kind.setdefault(case[1], []).append(seconds)
    return {
        "cases": len(cases),
        "mean": 1e3 * sum(per_case) / len(cases),
        "by_kind": {k: 1e3 * sum(v) / len(v) for k, v in by_kind.items()},
    }, {kind: _digest(values) for kind, values in outputs.items()}


def _ladder_calls(ar):
    kr = ar.kr2014()
    tilted = ar.tilt_model(kr, [1.0])
    pair = ar.tilt_model(_workloads().kr2014_pair(), [1.0, 1.0])
    grid = 3.0 * np.linspace(0.0, 1.0, 1201) ** 2   # the verdicts comparison grid

    def minimal():
        ts, psi, phi, status = ar.solve_minimal(kr, [1.0], ar.SolveOptions(T=2.0))
        return [ts, psi, phi, status.kind, status.t_event]

    def probe():
        v = ar.check_conservative(pair)
        w = v.witness
        return [v.kind, v.reason, w.ts, w.values, w.residual, w.source]

    return {
        "solve_minimal kr2014": minimal,
        "minimal_reduced_trajectory tilted kr2014": lambda: [
            ar.diagnostics.minimal_reduced_trajectory(tilted, [0.0], grid)],
        "check_conservative tilted pair": probe,
    }


def ladder_costs(ar, rounds):
    calls = _ladder_calls(ar)
    outputs = []
    for call in calls.values():
        outputs.extend(call())
    return {name: 1e3 * _best(call, rounds) for name, call in calls.items()}, _digest(outputs)


def lane_costs(ar, rounds):
    """Microseconds per lane of one lane-loop run over N nearby kr2014 starts."""
    from affine_riccati import riccati

    field = riccati._full_system(ar.kr2014(), 0.0, np.zeros(1), np.dtype(float))
    opts = ar.SolveOptions(T=2.0)
    out = {}
    for n in LANES:
        starts = [np.array([u, 0.0]) for u in -0.5 - 1e-3 * np.linspace(0.0, 1.0, n)]
        seconds = _best(lambda: riccati._lanes(field, starts, opts, 1),
                        max(3, rounds // max(1, n // 100)))
        out[str(n)] = 1e6 * seconds / n
    return out


def measure(ar):
    solve_ms, sha = solve_costs(ar, SEED, ROUNDS)
    ladder_ms, ladder_sha = ladder_costs(ar, ROUNDS)
    return {"eval_us": eval_costs(ar, ROUNDS), "field_us": field_costs(ar, ROUNDS),
            "step_us": step_costs(ar, ROUNDS),
            "solve_ms": solve_ms, "sha256_real": sha["real"],
            "sha256_complex": sha["complex"], "ladder_ms": ladder_ms,
            "ladder_sha256": ladder_sha, "lane_us": lane_costs(ar, ROUNDS)}


if __name__ == "__main__":
    sys.exit(pairs.main(__file__, {"measure": measure},
                        lambda r: {k: r[k] for k in ("sha256_real", "sha256_complex",
                                                     "ladder_sha256")},
                        {"seed": SEED, "rounds": ROUNDS, "lanes": LANES}, PAIRS, pin=True))
