"""Costs of the Riccati stepper, layer by layer, and a digest of its outputs,
parent against change.

    python3 bench/stepper.py --parent ../parent/src --commit <sha>

Measures two source trees, ``--src`` (the change, default ``src``) and
``--parent`` (a ``git archive`` copy of the parent commit), ``PAIRS``
pairs, as ``bench/pairs.py`` sets out.  Each pair runs one interpreter per
tree for the solves, ladders and digests, and one interleaved interpreter
that imports both trees under separate package names and times the
``eval_us``, ``field_us`` and ``step_us`` rows of the two in turns, round
by round; costs of a few microseconds do not resolve between fresh
interpreters.  Every run is pinned to one CPU and records:

* ``eval_us``: microseconds per ``eval_R`` + ``eval_F`` pair, called with
  the stepper's ``check_domain=False`` but directly, so each call enters
  its own np.errstate, for each built-in jump family on a scalar model that
  carries it in both F and R, at a real and at a complex u; and per call of
  the verdict pipeline's reduced fields at a real v,
  ``ReducedField.from_model(tilt_model(kr2014(), [1.0]))`` (m = 1), that
  of the ``verdicts`` workload's tilted kr2014 pair (m = 2, ``_kr2014_pair``),
  whose rows of beta_I have one nonzero entry each, and that of the pair
  coupled by off-diagonal entries 0.2, a dense m = 2 field whose products
  keep their BLAS calls;
* ``field_us``: microseconds per call of ``riccati._field_values`` of the
  full-system field (``riccati._full_system`` with no discount) inside one
  ``quiet_fp``, for feller at a real and cir-jump at a complex u, on a
  stage's list of Python numbers, or on the numpy row built from that list
  where the tree's generated step builds one (its namespace binds
  ``array``).  On a tree without ``riccati._stepper``, whose solve loop
  calls and checks the field inline, the call runs on the list and prices
  the field and the check, not the loop's stage (``step_us`` does);
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
  with ``ladder_sha256``, a digest of what they return.

Within one run every time is the minimum over ``ROUNDS`` rounds (four
times as many, shorter ones for ``eval_us`` and ``field_us``).  The
interleaved run alone, ``--child interleaved --src <change> --parent
<parent>``, prints its two sides' rows.  The records go to ``--out``
with each side's medians over the pairs, the change/parent ratios of those
medians, the pairs the change won, and, digest by digest, whether it is
the same in every run.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time

import numpy as np

import pairs

SEED = 1      # seed of the transforms cases
ROUNDS = 15   # timing rounds per figure within one run
PAIRS = 10    # parent/change pairs


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


def _kr2014_pair(ar, coupling=0.0):
    """The two independent kr2014 coordinates of the ``verdicts`` workload
    (``perfbench/workloads.py``), built from the package ar; with a nonzero
    coupling, the off-diagonal entries of beta_I."""
    scale = 0.5 / math.sqrt(math.pi)
    mus = tuple(ar.TemperedStableHalf(scale=scale, tempering=1.0, axis=k) for k in range(2))
    beta = mus[0].chi_integral() - 1.0
    return ar.AffineModel(shape=ar.StateShape(2, 0), a=np.zeros((2, 2)), b=[0.0, 0.0],
                          alpha=[0.0, 0.0], beta_I=[[beta, coupling], [coupling, beta]],
                          mus=mus)


def _repeated(call, n):
    """A function that makes n calls of call."""
    def run():
        for _ in range(n):
            call()
    return run


def eval_calls(ar):
    """{name: (run, calls per run)} of the ``eval_us`` rows."""
    out = {}
    for name, (mu, complex_ok) in _families(ar).items():
        model = ar.AffineModel(shape=ar.StateShape(1, 0), a=[[0.0]], b=[0.5], alpha=[1.0],
                               beta_I=[[-1.0]], mu0=mu, mus=(mu,))
        us = {"real": np.array([-0.5])}
        if complex_ok:
            us["complex"] = np.array([-0.5 + 1.0j])
        for kind, u in us.items():
            n = 5 if name.startswith("exp-tilted") else 500

            def pair(model=model, u=u):
                ar.eval_R(model, u, check_domain=False)
                ar.eval_F(model, u, check_domain=False)

            out[f"{name} {kind}"] = (_repeated(pair, n), n)
    fields = {"tilted-kr2014": (ar.tilt_model(ar.kr2014(), [1.0]), [-0.5]),
              "tilted-kr2014-pair": (ar.tilt_model(_kr2014_pair(ar), [1.0, 1.0]), [-0.5, -0.3]),
              "tilted-kr2014-pair-coupled": (ar.tilt_model(_kr2014_pair(ar, 0.2), [1.0, 1.0]),
                                             [-0.5, -0.3])}
    for name, (model, v) in fields.items():
        field, v = ar.diagnostics.ReducedField.from_model(model), np.array(v)
        out[f"reduced-field {name} real"] = (_repeated(lambda field=field, v=v: field(v), 1000),
                                             1000)
    return out


def field_calls(ar):
    """{name: (run, calls per run)} of the ``field_us`` rows."""
    out = {}
    values = ar.riccati._field_values
    stepper = getattr(ar.riccati, "_stepper", None)
    for name, kind, u in (("feller", "real", -0.5), ("cir-jump", "complex", -0.5 + 1.0j)):
        model = ar.builtin_model(name)
        z = np.array([u, 0.0])
        field = ar.riccati._full_system(model, 0.0, np.zeros(1), z.dtype)
        row = z.tolist()
        if stepper is not None and "array" in stepper(len(row), z.dtype.kind).__globals__:
            def stage(field=field, row=row):
                return values(field, np.array(row))
        else:
            def stage(field=field, row=row):
                return values(field, row)
        calls = _repeated(stage, 1000)

        def run(calls=calls):
            with ar.model.quiet_fp():
                calls()

        out[f"{name} {kind}"] = (run, 1000)
    return out


def step_calls(ar):
    """{name: (run, accepted steps per run)} of the ``step_us`` rows."""
    out = {}
    for name in ("feller", "kr2014", "cir-jump"):
        model = ar.builtin_model(name)
        for kind, u in (("real", -1.0), ("complex", 1.0j)):
            opts = ar.SolveOptions(T=2.0)
            steps = len(ar.solve_riccati(model, [u], opts).ts) - 1
            out[f"{name} {kind}"] = (
                lambda model=model, u=u, opts=opts: ar.solve_riccati(model, [u], opts), steps)
    return out


def interleaved(packages):
    """``eval_us``, ``field_us`` and ``step_us`` of both trees, timed in
    turns in one interpreter: per row, the minimum over its rounds of each
    side's run (four times as many rounds for the short ``eval_us`` and
    ``field_us`` runs), in microseconds per call or step."""
    out = {side: {} for side in packages}
    for figure, calls, rounds in (("eval_us", eval_calls, 4 * ROUNDS),
                                  ("field_us", field_calls, 4 * ROUNDS),
                                  ("step_us", step_calls, ROUNDS)):
        rows = {side: calls(ar) for side, ar in packages.items()}
        for side in packages:
            out[side][figure] = {}
        for name in rows["change"]:
            for side in packages:
                rows[side][name][0]()  # warm caches and imports
            best = pairs.alternate({side: rows[side][name][0] for side in packages}, rounds)
            for side in packages:
                out[side][figure][name] = 1e6 * best[side] / rows[side][name][1]
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
    """perfbench/workloads.py, which builds the cases of the transforms
    workload."""
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
    pair = ar.tilt_model(_kr2014_pair(ar), [1.0, 1.0])
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


def measure(ar):
    solve_ms, sha = solve_costs(ar, SEED, ROUNDS)
    ladder_ms, ladder_sha = ladder_costs(ar, ROUNDS)
    return {"solve_ms": solve_ms, "sha256_real": sha["real"],
            "sha256_complex": sha["complex"], "ladder_ms": ladder_ms,
            "ladder_sha256": ladder_sha}


if __name__ == "__main__":
    sys.exit(pairs.main(__file__, {"measure": measure},
                        lambda r: {k: r[k] for k in ("sha256_real", "sha256_complex",
                                                     "ladder_sha256")},
                        {"seed": SEED, "rounds": ROUNDS}, PAIRS, pin=True,
                        interleaved=interleaved))
