"""The four workloads: their inputs, one job each, and the checks of a job.

A workload is built from a seed.  ``job()`` makes the calls into the
program and returns their outputs; ``expect()`` computes what the outputs
should be (outside any timed interval); ``check(outputs)`` turns one job's
outputs into one ``Checks`` per operation.  Every job attempts the same
operations, so a run attempts whole rounds of them.
"""

from __future__ import annotations

import hashlib
import math
import warnings

import numpy as np

import affine_riccati as ar
import oracles as o

# RiccatiSolution.phi_end casts a complex phi to float; the benchmark counts
# that operation as failed and keeps the warning out of its output.
warnings.filterwarnings("ignore", category=np.exceptions.ComplexWarning)


def _rng(seed, tag):
    return np.random.default_rng([seed, tag])


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class _Workload:
    name = ""
    known_faults = frozenset()   # operations that fail every time today

    def __init__(self, seed: int):
        self.seed = seed
        self.expected = None
        self.first = {}           # digests of the first job, by operation

    def expect(self):
        """Compute the oracle values that are not written into check()."""

    def _same_as_first(self, checks, op, digest):
        """Seeded outputs must be bit-identical across the jobs of one run."""
        checks.same(f"{op}: bit-identical to the first job", digest,
                    self.first.setdefault(op, digest))


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

_MODELS = {"feller": ar.feller, "kr2014": ar.kr2014, "cir-jump": ar.cir_jump}


class Transforms(_Workload):
    """A grid of Riccati solves on the three built-ins; one unit per value."""

    name = "transforms"
    known_faults = frozenset({"phi_end feller u=3j T=1"})

    def __init__(self, seed):
        super().__init__(seed)
        rng = _rng(seed, 1)
        self.models = {k: f() for k, f in _MODELS.items()}
        cases = []   # (label, kind, model, u, T, l, lam)

        def add(kind, model, u, T, l=0.0, lam=0.0):
            cases.append((f"{kind} {model} u={u:.6g} T={T:g}", kind, model, u, T, l, lam))

        for k in range(6):
            add("solve", "kr2014", float(rng.uniform(-3.0, 0.9)), (0.5, 5.0)[k % 2])
        for _ in range(3):
            add("solve", "kr2014", complex(0.0, rng.uniform(0.5, 4.0)), 1.0)
            add("solve", "kr2014", complex(-rng.uniform(0.2, 2.0), rng.uniform(0.5, 3.0)), 2.0)
        for k in range(4):
            add("solve", "feller", complex(0.0, rng.uniform(0.5, 5.0)), (1.0, 10.0)[k % 2])
        for _ in range(3):
            add("solve", "feller", float(rng.uniform(-3.0, 0.9)), 2.0)
        for _ in range(2):
            add("solve", "feller", complex(-rng.uniform(0.2, 2.0), rng.uniform(0.5, 3.0)), 1.0)
            add("tilted", "feller", float(rng.uniform(-2.0, 0.5)), 1.0,
                l=float(rng.uniform(0.0, 0.5)), lam=float(rng.uniform(0.0, 1.0)))
        for _ in range(3):
            add("solve", "cir-jump", float(rng.uniform(-3.0, 0.9)), 1.0)
            add("solve", "cir-jump", complex(0.0, rng.uniform(0.5, 4.0)), 2.0)
        add("solve", "cir-jump", complex(-rng.uniform(0.2, 1.5), rng.uniform(0.5, 3.0)), 2.0)
        add("tilted", "cir-jump", float(rng.uniform(-2.0, 0.5)), 1.0, l=float(rng.uniform(0.0, 0.5)))
        # fixed cases: a BlowUp, an explosion time, the minimal branch at the
        # kr2014 boundary, and phi_end read on a complex solve
        add("solve", "feller", 2.0, 1.0)
        add("blowup_time", "feller", 3.0, 1.0)
        add("minimal", "kr2014", 1.0, 2.0)
        cases.append(("phi_end feller u=3j T=1", "phi_end", "feller", 3j, 1.0, 0.0, 0.0))
        self.cases = cases
        self.units = len(cases)

    def job(self):
        out = []
        for _, kind, name, u, T, l, lam in self.cases:
            model = self.models[name]
            opts = ar.SolveOptions(T=T)
            if kind == "solve":
                sol = ar.solve_riccati(model, [u], opts)
                out.append((sol.status.kind, sol.status.t_event, sol.psi[-1, 0], sol.phi[-1]))
            elif kind == "tilted":
                sol = ar.solve_tilted(model, l, [lam], [u], opts)
                out.append((sol.status.kind, sol.status.t_event, sol.psi[-1, 0], sol.phi[-1]))
            elif kind == "blowup_time":
                out.append(ar.blowup_time(model, [u], T))
            elif kind == "minimal":
                ts, psi, phi, status = ar.solve_minimal(model, [u], opts)
                out.append((status.kind, ts, psi[:, 0], phi))
            else:
                out.append(ar.solve_riccati(model, [u], opts).phi_end)
        return out

    def expect(self):
        exp = []
        for _, kind, name, u, T, l, lam in self.cases:
            if kind == "blowup_time" or (kind == "solve" and name == "feller"
                                         and not isinstance(u, complex) and u > 1.0):
                exp.append(o.feller_blowup_time(u))
            elif kind == "minimal":
                exp.append(None)   # evaluated on the returned grid
            elif kind == "phi_end":
                exp.append(o.feller_phi(u, T))
            elif name == "kr2014":
                exp.append((o.kr2014_psi(u, T), -l * T))
            elif kind == "tilted":
                psi = (lambda s, u=u, lam=lam: o.feller_discounted_psi(u, lam, s))
                F = o.feller_F if name == "feller" else o.cir_jump_F
                exp.append((psi(T), o.phi_by_quadrature(F, psi, T, l)))
            elif name == "feller":
                exp.append((o.feller_psi(u, T), o.feller_phi(u, T)))
            else:
                exp.append((o.feller_psi(u, T),
                            o.phi_by_quadrature(o.cir_jump_F, lambda s, u=u: o.feller_psi(u, s), T)))
        self.expected = exp

    def check(self, out):
        result = []
        for (label, kind, name, u, T, l, lam), got, want in zip(self.cases, out, self.expected):
            c = o.Checks()
            if kind == "blowup_time":
                c.close("explosion time", got, want)
            elif kind == "minimal":
                status, ts, psi, phi = got
                c.same("status", status, "completed")
                c.close("minimal psi on the grid", psi,
                        np.array([o.kr2014_minimal(t) for t in ts]), rtol=0.0, atol=1e-6)
                c.close("minimal phi", phi, np.zeros_like(phi), rtol=0.0, atol=1e-9)
            elif kind == "phi_end":
                c.close("phi_end", complex(got), want)
            elif not isinstance(want, tuple):
                status, t_event, _, _ = got
                c.same("status", status, "blowup")
                c.close("explosion time", t_event, want)
            else:
                status, _, psi, phi = got
                c.same("reached the horizon", status in ("completed", "equilibrium"), True)
                c.close("psi(T)", complex(psi), complex(want[0]), atol=1e-9)
                c.close("phi(T)", complex(phi), complex(want[1]), atol=1e-9)
            result.append((label, c))
        return result


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def kr2014_pair():
    """Two independent kr2014 coordinates on R_+^2."""
    scale = 0.5 / math.sqrt(math.pi)
    mus = tuple(ar.TemperedStableHalf(scale=scale, tempering=1.0, axis=k) for k in range(2))
    beta = mus[0].chi_integral() - 1.0
    return ar.AffineModel(shape=ar.StateShape(2, 0), a=np.zeros((2, 2)), b=[0.0, 0.0],
                          alpha=[0.0, 0.0], beta_I=[[beta, 0.0], [0.0, beta]], mus=mus)


class Verdicts(_Workload):
    """Conservativeness and martingale verdicts; one unit per verdict."""

    name = "verdicts"

    def __init__(self, seed):
        super().__init__(seed)
        kr = ar.kr2014()
        self.tilted = ar.tilt_model(kr, [1.0])
        self.pair = ar.tilt_model(kr2014_pair(), [1.0, 1.0])
        self.builtins = {k: f() for k, f in _MODELS.items()}
        # the README's martingale specs: kr2014 at theta = 1, and feller at
        # theta = 1/2 with the automatic discount l = F(1/2), lambda = R(1/2)
        self.specs = {
            "kr2014": ar.TiltSpec(theta=[1.0], l=0.0, lam=[0.0]),
            "feller": ar.TiltSpec(theta=[0.5], l=o.feller_F(0.5), lam=[0.25 - 0.5]),
        }
        grid = 3.0 * np.linspace(0.0, 1.0, 1201) ** 2
        self.comparison_grid = (grid, o.tilted_kr2014_witness(grid)[:, None])
        ops = ([("conservative", k) for k in self.builtins]
               + [("tilted", None), ("pair", None)]
               + [("martingale", k) for k in self.specs] + [("comparison", None)])
        # the seed fixes the order of the calls; the verdicts do not depend on it
        self.ops = [ops[k] for k in _rng(seed, 2).permutation(len(ops))]
        self.units = len(self.ops)

    def job(self):
        out = []
        for kind, key in self.ops:
            if kind == "conservative":
                out.append(ar.check_conservative(self.builtins[key]))
            elif kind == "tilted":
                out.append(ar.check_conservative(self.tilted))
            elif kind == "pair":
                out.append(ar.check_conservative(self.pair))
            elif kind == "martingale":
                out.append(ar.martingale_check(self.builtins[key], self.specs[key]))
            else:
                out.append(ar.comparison_check(self.tilted, [0.0], *self.comparison_grid))
        return out

    def _witness(self, c, w, shift, field, source):
        c.same("witness source", w.source, source)
        want = shift + o.tilted_kr2014_witness(w.ts)[:, None]
        c.close("witness values", w.values, np.broadcast_to(want, w.values.shape),
                rtol=0.0, atol=1e-6)
        c.below("recomputed trapezoid defect", o.trapezoid_defect(w.ts, w.values, field), 1e-6)
        c.below("witness is non-trivial", 1e-4, float(np.max(np.abs(w.values - shift))))

    def check(self, out):
        result = []
        for (kind, key), got in zip(self.ops, out):
            c = o.Checks()
            label = f"{kind} {key}" if key else kind
            if kind == "conservative":
                c.same("kind", got.kind, "Conservative")
                cert = got.certificate
                c.same("route", type(cert).__name__, "LipschitzCertificate")
                if cert is not None and hasattr(cert, "radius"):
                    c.below("Lipschitz bound covers the field's slope",
                            o.lipschitz_sup(key, cert.radius), cert.bound * (1.0 + 1e-12))
            elif kind in ("tilted", "pair"):
                c.same("kind", got.kind, "NonConservative")
                if got.witness is not None:
                    source = "osgood-inversion" if kind == "tilted" else "probe-extrapolation"
                    self._witness(c, got.witness, 0.0, o.tilted_kr2014_field, source)
                else:
                    c.same("witness present", None, "witness")
            elif kind == "martingale" and key == "kr2014":
                c.same("kind", got.kind, "StrictLocalMartingale")
                if got.witness is not None:
                    self._witness(c, got.witness, 1.0, o.kr2014_field, "osgood-inversion")
                else:
                    c.same("witness present", None, "witness")
            elif kind == "martingale":
                c.same("kind", got.kind, "TrueMartingale")
            else:
                ok, violation = got
                c.same("comparison holds", bool(ok), True)
                c.below("violation", violation, 1e-7)
            result.append((label, c))
        return result


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def _path_steps(opts):
    return opts.npaths * opts.nsteps


def _moment(ens, u):
    vals = np.exp(u * ens.terminal[:, 0])
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(vals.size))


def _mean_state(ens):
    x = ens.terminal[:, 0]
    return float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(x.size))


class _MonteCarlo(_Workload):
    """Simulations; one unit per path-step."""

    def _check_ensemble(self, c, op, ens, model, T, x0, u, mean_state=True):
        """Survival, z-tests against the closed forms, bit-identity.  The
        mean-state test is left out where it could not see a 20% bias."""
        c.same("every path survives", int(np.sum(ens.survived)), ens.npaths)
        m, se = _moment(ens, u)
        c.ztest(f"E[exp({u:g} X_T)]", m, se, o.exp_moment(model, u, T, x0))
        if mean_state:
            m, se = _mean_state(ens)
            c.ztest("E[X_T]", m, se, o.mean_state(model, T, x0))
        self._same_as_first(c, op, _digest(ens.states, ens.survived, ens.exhausted))


class McJumps(_MonteCarlo):
    name = "mc-jumps"

    def __init__(self, seed):
        super().__init__(seed)
        s = [int(x) for x in _rng(seed, 3).integers(0, 2**31, size=3)]
        self.kr, self.cj = ar.kr2014(), ar.cir_jump()
        self.kr_opts = ar.SimOptions(x0=[1.0], T=0.5, dt=2e-3, npaths=1000, seed=s[0],
                                     jump_trunc=1e-4)
        self.cj_opts = ar.SimOptions(x0=[1.0], T=0.5, dt=2e-3, npaths=2000, seed=s[1])
        self.gap_opts = ar.SimOptions(x0=[1.0], T=1.0, dt=2e-3, npaths=600, seed=s[2],
                                      jump_trunc=1e-4)
        self.spec = ar.TiltSpec(theta=[1.0])
        # martingale_gap simulates the tilted and the plain model
        self.units = (_path_steps(self.kr_opts) + _path_steps(self.cj_opts)
                      + 2 * _path_steps(self.gap_opts))

    def job(self):
        return (ar.simulate_paths(self.kr, self.kr_opts),
                ar.simulate_paths(self.cj, self.cj_opts),
                ar.martingale_gap(self.kr, self.spec, self.gap_opts))

    def check(self, out):
        kr_ens, cj_ens, gap = out
        c1, c2, c3 = o.Checks(), o.Checks(), o.Checks()
        self._check_ensemble(c1, "kr2014", kr_ens, "kr2014", 0.5, 1.0, -1.0)
        self._check_ensemble(c2, "cir-jump", cj_ens, "cir-jump", 0.5, 1.0, -0.5,
                             mean_state=False)
        T, n = self.gap_opts.T, self.gap_opts.npaths
        e = math.e
        c3.close("martingale value", gap.martingale_value, e, rtol=1e-15, atol=0.0)
        c3.close("minimal prediction", gap.predicted, math.exp(o.kr2014_minimal(T)),
                 rtol=1e-6, atol=0.0)
        q = o.tilted_survival(T)
        c3.ztest("tilted survival", gap.survival_mean / e, math.sqrt(q * (1.0 - q) / n), q)
        c3.same("gap excludes the martingale value", bool(gap.excludes_martingale), True)
        self._same_as_first(c3, "gap", repr((gap.mean, gap.stderr, gap.survival_mean)))
        return [("simulate kr2014", c1), ("simulate cir-jump", c2), ("martingale_gap kr2014", c3)]


class McDiffusion(_MonteCarlo):
    name = "mc-diffusion"
    known_faults = frozenset({"affine_formula_check feller c=0.5"})

    def __init__(self, seed):
        super().__init__(seed)
        s = [int(x) for x in _rng(seed, 4).integers(0, 2**31, size=3)]
        self.fe = ar.feller()
        self.killed = ar.AffineModel(shape=ar.StateShape(1, 0), a=[[0.0]], b=[0.5], c=0.5,
                                     alpha=[1.0], beta_I=[[-1.0]])
        self.small = ar.SimOptions(x0=[1.0], T=1.0, dt=2e-3, npaths=1000, seed=s[0])
        self.large = ar.SimOptions(x0=[1.0], T=0.5, dt=5e-3, npaths=100_000, seed=s[1])
        self.check_opts = ar.SimOptions(x0=[1.0], T=0.5, dt=5e-3, npaths=20_000, seed=s[2])
        # the killed model's check fails on every seed; its inputs do not use one
        self.killed_opts = ar.SimOptions(x0=[1.0], T=0.5, dt=5e-3, npaths=20_000, seed=11)
        self.units = (_path_steps(self.small) + _path_steps(self.large)
                      + _path_steps(self.check_opts) + _path_steps(self.killed_opts))

    def job(self):
        return (ar.simulate_paths(self.fe, self.small),
                ar.simulate_paths(self.fe, self.large),
                ar.affine_formula_check(self.fe, self.check_opts, [-0.5]),
                ar.affine_formula_check(self.killed, self.killed_opts, [-0.5]))

    def expect(self):
        self.expected = o.exp_moment("feller", -0.5, 0.5, 1.0)

    def check(self, out):
        small, large, fc, killed = out
        c = [o.Checks() for _ in range(4)]
        self._check_ensemble(c[0], "small", small, "feller", 1.0, 1.0, -0.5, mean_state=False)
        self._check_ensemble(c[1], "large", large, "feller", 0.5, 1.0, -0.5)
        for checks, rep, want, op in ((c[2], fc, self.expected, "formula"),
                                      (c[3], killed, math.exp(-0.25) * self.expected, "killed")):
            checks.same("applicable", bool(rep.applicable), True)
            checks.close("analytic value", rep.analytic, want, rtol=1e-7, atol=0.0)
            checks.ztest("Monte Carlo mean", rep.mc_mean, rep.mc_stderr, want)
            self._same_as_first(checks, op, repr((rep.mc_mean, rep.mc_stderr)))
        return [("simulate feller small", c[0]), ("simulate feller large", c[1]),
                ("affine_formula_check feller", c[2]),
                ("affine_formula_check feller c=0.5", c[3])]


WORKLOADS = {w.name: w for w in (Transforms, Verdicts, McJumps, McDiffusion)}
