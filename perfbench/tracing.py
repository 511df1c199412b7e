"""Spans around the calls into each layer, recorded from outside the program.

``Tracer.install()`` rebinds the layer entry points to timing wrappers: the
public names in ``affine_riccati``, and each name that one module of the
program bound from another (``from .model import eval_R`` binds ``eval_R`` in
``riccati``, so it is wrapped there).  Spans nest on one stack; a span's
self time is its duration minus that of the spans it encloses.  Tracing is
single-threaded: uninstall it before running with more than one worker.
"""

from __future__ import annotations

import time
from collections import defaultdict
from types import SimpleNamespace

import numpy as np

import affine_riccati as ar
from affine_riccati import diagnostics, esscher, model, montecarlo, riccati

_SOLVES = {"solve_riccati", "solve_tilted", "solve_reduced", "_integrate"}


def _route(verdict):
    """The stage that decided a conservativeness verdict."""
    if isinstance(verdict.certificate, diagnostics.LipschitzCertificate):
        return "lipschitz"
    if isinstance(verdict.certificate, diagnostics.OsgoodCertificate):
        return "osgood"
    source = verdict.witness.source if verdict.witness is not None else ""
    return {"osgood-inversion": "osgood", "probe-extrapolation": "probe"}.get(source, "other")


class Tracer:
    def __init__(self):
        self._saved = []
        self._stack = []          # child seconds of each open span
        self.stats = {}           # (layer, name) -> [calls, inclusive seconds]
        self.self_seconds = defaultdict(lambda: [0.0])   # layer -> [self seconds]
        self._observers = self._make_observers()
        self.reset()

    def reset(self):
        for stat in self.stats.values():
            stat[:] = [0, 0.0]
        for cell in self.self_seconds.values():
            cell[0] = 0.0
        self.routes = defaultdict(lambda: [0, 0.0])  # verdict route -> [calls, seconds]
        self.riccati_depth = 0
        self.steps = 0                 # accepted steps of the solves
        self.solve_evals = 0           # field evaluations inside riccati spans
        self.uniforms = 0              # doubles drawn from Philox tables
        self.path_steps = 0
        self.states_bytes = 0          # largest ensemble of the job

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, layer, name):
        stack = self._stack
        stat = self.stats.setdefault((layer, name), [0, 0.0])
        own = self.self_seconds[layer]
        observe = self._observers.get(name)
        field_eval = layer == "model" and name == "eval_R"
        solver = layer == "riccati"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if field_eval and self.riccati_depth:
                self.solve_evals += 1
            if solver:
                self.riccati_depth += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                if solver:
                    self.riccati_depth -= 1
                stat[0] += 1
                stat[1] += elapsed
                own[0] += elapsed - frame[0]
            if observe is not None:
                observe(args, result, elapsed)
            return result

        traced.__wrapped__ = fn
        return traced

    def _make_observers(self):
        """Functions that read counts off the results of some calls, by name."""
        def steps(args, result, elapsed):
            self.steps += len(result[0] if isinstance(result, tuple) else result.ts) - 1

        def verdict(args, result, elapsed):
            route = self.routes[_route(result)]
            route[0] += 1
            route[1] += elapsed

        def uniforms(args, result, elapsed):
            self.uniforms += int(np.prod(args[3]))

        def simulate(args, result, elapsed):
            self.path_steps += args[1].npaths * args[1].nsteps
            size = sum(a.nbytes for a in (result.times, result.states, result.survived,
                                          result.exhausted))
            self.states_bytes = max(self.states_bytes, size)

        return {**{k: steps for k in _SOLVES}, "check_conservative": verdict,
                "_uniforms": uniforms, "_simulate": simulate}

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr, layer, name=None):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, layer, name or attr))

    def install(self):
        patch = self._patch
        for owner in (riccati, diagnostics, esscher, montecarlo):
            for attr in ("eval_R", "eval_F", "reduced_R"):
                if hasattr(owner, attr):
                    patch(owner, attr, "model", "eval_R" if attr == "reduced_R" else attr)
        patch(model.TemperedStableHalf, "increment", "model")
        for cls in (model.TemperedStableHalf, model.CompoundPoissonExp):
            patch(cls, "tail_proposal", "model")
        for owner in (ar, riccati):
            for attr in ("solve_riccati", "solve_tilted", "solve_minimal", "blowup_time",
                         "solve_reduced"):
                patch(owner, attr, "riccati")
        patch(diagnostics, "_integrate", "riccati")
        patch(diagnostics, "solve_reduced", "riccati")
        patch(montecarlo, "solve_riccati", "riccati")
        patch(montecarlo, "solve_minimal", "riccati")
        for owner in (ar, esscher):
            patch(owner, "check_conservative", "diagnostics")
        patch(ar, "comparison_check", "diagnostics")
        self._saved.append((diagnostics, "_sint", diagnostics._sint))
        diagnostics._sint = SimpleNamespace(quad=self._wrap(diagnostics._sint.quad, "quad", "quad"))
        patch(ar, "martingale_check", "esscher")
        for owner in (ar, montecarlo):
            for attr in ("simulate_paths", "martingale_gap", "affine_formula_check"):
                patch(owner, attr, "montecarlo")
        patch(montecarlo, "_simulate", "montecarlo")
        patch(montecarlo, "_uniforms", "philox")
        patch(montecarlo, "ndtri", "ndtri")

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# per-layer metric -> unit
PER_LAYER_UNITS = {
    "model.eval_R_us": "us",
    "model.evals_per_job": "count",
    "model.ms_per_job": "ms",
    "model.increment_ms_per_job": "ms",
    "model.tail_proposal_calls_per_job": "count",
    "riccati.solve_ms": "ms",
    "riccati.self_ms_per_job": "ms",
    "riccati.steps_per_solve": "count",
    "riccati.evals_per_step": "count",
    "riccati.solve_minimal_ms": "ms",
    "diagnostics.lipschitz_ms": "ms",
    "diagnostics.osgood_ms": "ms",
    "diagnostics.probe_ms": "ms",
    "diagnostics.quad_calls_per_job": "count",
    "diagnostics.quad_ms_per_job": "ms",
    "diagnostics.self_ms_per_job": "ms",
    "diagnostics.comparison_ms": "ms",
    "esscher.martingale_check_ms": "ms",
    "montecarlo.msteps_per_s": "Msteps/s",
    "montecarlo.philox_tables_per_job": "count",
    "montecarlo.philox_ms_per_job": "ms",
    "montecarlo.uniforms_per_path_step": "count",
    "montecarlo.ndtri_ms_per_job": "ms",
    "montecarlo.self_ms_per_job": "ms",
    "montecarlo.states_mb": "MB",
    "montecarlo.thread_speedup": "ratio",
    "trace.overhead_pct": "%",
}


class LayerTotals:
    """Per-layer figures summed over traced jobs, times in reference seconds."""

    def __init__(self):
        self.jobs = 0
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.routes = defaultdict(lambda: [0, 0.0])
        self.counts = defaultdict(int)
        self.states_bytes = 0

    def add(self, tracer: Tracer, scale: float):
        """Add one job's trace, its times multiplied by the job's kernel scale."""
        self.jobs += 1
        for key, (n, s) in tracer.stats.items():
            self.calls[key] += n
            self.seconds[key] += s * scale
        for layer, (s,) in tracer.self_seconds.items():
            self.self_seconds[layer] += s * scale
        for route, (n, s) in tracer.routes.items():
            self.routes[route][0] += n
            self.routes[route][1] += s * scale
        for key in ("steps", "solve_evals", "uniforms", "path_steps"):
            self.counts[key] += getattr(tracer, key)
        self.states_bytes = max(self.states_bytes, tracer.states_bytes)

    def metrics(self, thread_speedup: float, overhead_pct: float):
        jobs = max(self.jobs, 1)
        calls, secs, cnt = self.calls, self.seconds, self.counts

        def mean_ms(*keys):
            n = sum(calls[k] for k in keys)
            return 1e3 * sum(secs[k] for k in keys) / n if n else 0.0

        def per_job_ms(*keys):
            return 1e3 * sum(secs[k] for k in keys) / jobs

        def ratio(a, b):
            return a / b if b else 0.0

        def route_ms(route):
            n, s = self.routes[route]
            return 1e3 * s / n if n else 0.0

        model_keys = [k for k in secs if k[0] == "model"]
        sim = ("montecarlo", "_simulate")
        values = {
            "model.eval_R_us": 1e3 * mean_ms(("model", "eval_R")),
            "model.evals_per_job": calls["model", "eval_R"] / jobs,
            "model.ms_per_job": per_job_ms(*model_keys),
            "model.increment_ms_per_job": per_job_ms(("model", "increment")),
            "model.tail_proposal_calls_per_job": calls["model", "tail_proposal"] / jobs,
            "riccati.solve_ms": mean_ms(("riccati", "solve_riccati"), ("riccati", "solve_tilted")),
            "riccati.self_ms_per_job": 1e3 * self.self_seconds["riccati"] / jobs,
            "riccati.steps_per_solve": ratio(cnt["steps"], sum(calls["riccati", k] for k in _SOLVES)),
            "riccati.evals_per_step": ratio(cnt["solve_evals"], cnt["steps"]),
            "riccati.solve_minimal_ms": mean_ms(("riccati", "solve_minimal")),
            "diagnostics.lipschitz_ms": route_ms("lipschitz"),
            "diagnostics.osgood_ms": route_ms("osgood"),
            "diagnostics.probe_ms": route_ms("probe"),
            "diagnostics.quad_calls_per_job": calls["quad", "quad"] / jobs,
            "diagnostics.quad_ms_per_job": per_job_ms(("quad", "quad")),
            "diagnostics.self_ms_per_job": 1e3 * self.self_seconds["diagnostics"] / jobs,
            "diagnostics.comparison_ms": mean_ms(("diagnostics", "comparison_check")),
            "esscher.martingale_check_ms": mean_ms(("esscher", "martingale_check")),
            "montecarlo.msteps_per_s": ratio(cnt["path_steps"] / 1e6, secs[sim]),
            "montecarlo.philox_tables_per_job": calls["philox", "_uniforms"] / jobs,
            "montecarlo.philox_ms_per_job": per_job_ms(("philox", "_uniforms")),
            "montecarlo.uniforms_per_path_step": ratio(cnt["uniforms"], cnt["path_steps"]),
            "montecarlo.ndtri_ms_per_job": per_job_ms(("ndtri", "ndtri")),
            "montecarlo.self_ms_per_job": 1e3 * self.self_seconds["montecarlo"] / jobs,
            "montecarlo.states_mb": self.states_bytes / 1e6,
            "montecarlo.thread_speedup": thread_speedup,
            "trace.overhead_pct": overhead_pct,
        }
        return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}
