"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criterion 8 has two clauses for kr2014 at theta = 1.  8a: the plain
sample mean of S~_T = e^{X_T} sits far below the martingale value e.  8b:
E[S~_T] lies within 4 standard errors of the minimal-solution prediction.
8b cannot use the plain mean, because E[e^{2 X_T}] is infinite (u = 2 lies
outside the domain u <= 1) and its sample standard error supports no
interval.  It uses the identity E[S~_T] = e^{<theta,x0>} Q~(tau > T) for
the Esscher-tilted model instead: the survival fraction of the tilted paths
is a Bernoulli mean with a valid standard error.
"""

import math
import time

import numpy as np
import pytest

from affine_riccati import (
    ReducedField,
    SimOptions,
    SolveOptions,
    TiltSpec,
    affine_formula_check,
    blowup_time,
    check_conservative,
    check_reduced_uniqueness,
    cir_jump,
    comparison_check,
    estimate_exp_moment,
    eval_F,
    eval_R,
    feller,
    kr2014,
    martingale_check,
    martingale_gap,
    order_preservation_test,
    psi_J_flow,
    simulate_paths,
    solve_riccati,
    tilt_model,
)
from affine_riccati.diagnostics import _osgood_integral_ladder
from affine_riccati.model import AffineModel, StateShape


def report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {tag}  {detail}")
    return ok


def kr_psi(t, u):
    return 1.0 - ((1.0 - np.sqrt(1.0 - u)) * np.exp(-t / 2.0) - 1.0) ** 2


def cir_psi(t, u):
    e = np.exp(-t)
    return u * e / (1.0 - u * (1.0 - e))


class TestCriterion1ClosedForm:
    def test_kr2014_psi_matches_closed_form(self):
        model = kr2014()

        # independent verification of the closed form first: fixed-step RK4
        # of the scalar field
        def field(v):
            return 1.0 - v - math.sqrt(1.0 - v)

        for u0 in (-2.0, 0.5):
            h, v = 2e-4, u0
            for _ in range(int(5.0 / h)):
                k1 = field(v)
                k2 = field(v + 0.5 * h * k1)
                k3 = field(v + 0.5 * h * k2)
                k4 = field(v + h * k3)
                v += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
            assert abs(v - kr_psi(5.0, u0)) < 1e-9

        grid = np.linspace(0.0, 5.0, 50)
        worst = 0.0
        t0 = time.perf_counter()
        for u in (-2.0, -1.0, 0.0, 0.5, 0.99):
            sol = solve_riccati(model, [u], SolveOptions(T=5.0))
            worst = max(worst, float(np.max(np.abs(sol.eval(grid)[:, 0] - kr_psi(grid, u)))))
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-6 and elapsed < 1.0
        assert report(1, ok, f"max|psi - closed form| = {worst:.2e}, runtime {elapsed:.2f}s")


class TestCriterion2StrictLocalMartingale:
    def test_martingale_check_and_witness(self):
        model = kr2014()
        verdict = martingale_check(model, TiltSpec(theta=[1.0], l=0.0, lam=[0.0]))
        kinds_ok = verdict.kind == "StrictLocalMartingale"

        w = verdict.witness
        sel = w.ts <= 3.0
        exact = 1.0 - (np.exp(-w.ts[sel] / 2.0) - 1.0) ** 2
        werr = float(np.max(np.abs(w.values[sel, 0] - exact)))

        tilted = tilt_model(model, [1.0])
        fld = ReducedField.from_model(tilted)
        convergent, _, total = _osgood_integral_ladder(fld, -1, 0.25)
        ok = kinds_ok and werr <= 1e-4 and convergent is True
        assert report(2, ok, f"verdict={verdict.kind}, max|zeta - closed form| = "
                             f"{werr:.2e}, Osgood integral convergent={convergent}")


class TestCriterion3ConservativenessDichotomy:
    def test_verdicts_with_certificates_and_stability(self, refine_ladder):
        models = {"feller": feller(), "kr2014": kr2014(),
                  "tilted-kr2014": tilt_model(kr2014(), [1.0])}
        verdicts = {name: check_conservative(model) for name, model in models.items()}
        refine_ladder()
        results = {}
        for name, v in verdicts.items():
            if name == "tilted-kr2014":
                ok = v.kind == "NonConservative" and v.witness is not None
            else:
                ok = v.kind == "Conservative" and v.certificate is not None
            results[name] = ok and check_conservative(models[name]).kind == v.kind
        ok = all(results.values())
        assert report(3, ok, f"{results}")


class TestCriterion4OsgoodFamily:
    def test_synthetic_power_fields(self):
        details = []
        ok = True
        for p in (0.5, 0.75):
            def fun(v, p=p):
                with np.errstate(invalid="ignore"):
                    return -((-v) ** p)
            verdict = check_reduced_uniqueness(ReducedField(fun=fun, m=1))
            good = verdict.kind == "NonConservative"
            if good:
                w = verdict.witness
                exact = -(((1 - p) * w.ts) ** (1.0 / (1.0 - p)))
                err = float(np.max(np.abs(w.values[:, 0] - exact)))
                good = err <= 1e-6
                details.append(f"p={p}: witness err {err:.2e}")
            ok &= good
        for p in (1.0, 2.0):
            def fun(v, p=p):
                with np.errstate(invalid="ignore"):
                    return -((-v) ** p)
            verdict = check_reduced_uniqueness(ReducedField(fun=fun, m=1))
            ok &= verdict.kind == "Conservative"
            details.append(f"p={p}: {verdict.kind}")
        assert report(4, ok, "; ".join(details))


class TestCriterion5CIROracle:
    def test_logistic_and_blowup(self):
        model = feller()
        grid = np.linspace(0.0, 2.0, 41)
        worst = 0.0
        for u in (-2.0, -1.0, -0.5, 0.5, 0.9):
            sol = solve_riccati(model, [u], SolveOptions(T=2.0))
            worst = max(worst, float(np.max(np.abs(sol.eval(grid)[:, 0] - cir_psi(grid, u)))))
        t_star = blowup_time(model, [2.0], 2.0)
        t_err = abs(t_star - math.log(2.0)) / math.log(2.0)
        ok = worst <= 1e-6 and t_err <= 1e-3
        assert report(5, ok, f"max logistic err {worst:.2e}, "
                             f"T* rel err {t_err:.2e}")


class TestCriterion6TiltIdentities:
    def test_identity_suite(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for name, model in (("feller", feller()), ("kr2014", kr2014()),
                            ("cir-jump", cir_jump())):
            d = model.shape.d
            dom = model.domain
            theta = np.full(d, 0.25)
            for k in range(d):
                bound, _ = dom.axis_bound(k)
                if math.isfinite(bound):
                    theta[k] = min(theta[k], bound - 0.6)
            tilted = tilt_model(model, theta)
            tdom = tilted.domain
            count = 0
            while count < 200:
                u = rng.uniform(-2.0, 0.5, size=d)
                for k in range(d):
                    bound, _ = tdom.axis_bound(k)
                    if math.isfinite(bound):
                        u[k] = min(u[k], bound - 0.2)
                if not tdom.contains(u):
                    continue
                count += 1
                fe = abs(eval_F(tilted, u) - (eval_F(model, u + theta) - eval_F(model, theta)))
                re = float(np.max(np.abs(eval_R(tilted, u)
                                         - (eval_R(model, u + theta) - eval_R(model, theta)))))
                scale = 1.0 + abs(eval_F(model, u + theta)) + float(
                    np.max(np.abs(eval_R(model, u + theta))))
                worst = max(worst, fe / scale, re / scale)
            # composition and domain shift
            half = theta / 2.0
            composed = tilt_model(tilt_model(model, half), half)
            u = np.full(d, -0.5)
            ce = abs(eval_F(composed, u) - eval_F(tilted, u))
            worst = max(worst, ce)
            for k in range(d):
                bound, closed = dom.axis_bound(k)
                if math.isfinite(bound):
                    tb, tclosed = tdom.axis_bound(k)
                    assert tb == pytest.approx(bound - theta[k], abs=1e-12)
                    assert tclosed == closed
        ok = worst <= 1e-10
        assert report(6, ok, f"worst relative identity error {worst:.2e}")


class TestCriterion7TransformFormula:
    def test_cir_point(self):
        t0 = time.perf_counter()
        rep = affine_formula_check(feller(), SimOptions(x0=[1.0], T=1.0, dt=1e-3,
                                                        npaths=100_000, seed=7), [-0.5])
        elapsed = time.perf_counter() - t0
        ok = rep.applicable and abs(rep.z) <= 3.0 and elapsed < 60.0
        assert report("7a", ok, f"CIR point z={rep.z:+.2f}, runtime {elapsed:.0f}s")

    def test_compound_poisson_point(self):
        t0 = time.perf_counter()
        rep = affine_formula_check(cir_jump(), SimOptions(x0=[1.0], T=1.0, dt=1e-3,
                                                          npaths=100_000, seed=7), [-0.5])
        elapsed = time.perf_counter() - t0
        ok = rep.applicable and abs(rep.z) <= 3.0 and elapsed < 60.0
        assert report("7b", ok, f"compound-Poisson point z={rep.z:+.2f}, "
                                f"runtime {elapsed:.0f}s")


@pytest.fixture(scope="module")
def kr2014_gap():
    """The one martingale_gap run that 8a and 8b both read: the same model,
    spec and options would give the same report twice."""
    return martingale_gap(kr2014(), TestCriterion8MartingaleGap.SPEC,
                          TestCriterion8MartingaleGap.OPTS)


class TestCriterion8MartingaleGap:
    OPTS = SimOptions(x0=[1.0], T=2.0, dt=2e-3, npaths=100_000, seed=7, jump_trunc=1e-4)
    SPEC = TiltSpec(theta=[1.0], l=0.0, lam=[0.0])

    def test_interval_excludes_martingale_value(self, kr2014_gap):
        gap = kr2014_gap
        z = (gap.mean - gap.martingale_value) / gap.stderr
        ok = gap.excludes_martingale and gap.mean + 4 * gap.stderr < math.e
        assert report("8a", ok, f"mean={gap.mean:.4f}, 4se-interval upper "
                                f"{gap.mean + 4 * gap.stderr:.4f} < e={math.e:.4f} "
                                f"(z={z:+.0f})")

    def test_interval_contains_minimal_prediction(self, kr2014_gap):
        gap = kr2014_gap
        z = abs(gap.survival_mean - gap.predicted) / gap.survival_stderr
        z_plain = (gap.mean - gap.predicted) / gap.stderr
        ok = z <= 4.0
        report("8b", ok, f"|e*Q~(tau>T) - predicted| = {z:.1f} stderr (needs <= 4); "
                         f"plain mean z = {z_plain:+.1f}")
        assert ok, (
            f"survival estimate e*Q~(tau > T) = {gap.survival_mean:.4f} +- "
            f"{gap.survival_stderr:.4f} (Bernoulli stderr over the tilted paths) sits "
            f"{z:.1f} standard errors from the minimal-solution prediction "
            f"{gap.predicted:.4f}. For comparison, the plain mean of S~_T is "
            f"{gap.mean:.4f}, z = {z_plain:+.1f} against its sample standard error "
            f"{gap.stderr:.4f}, which supports no interval since E[e^{{2 X_T}}] = oo."
        )


class TestCriterion9WitnessDomination:
    def test_model_backed_witnesses(self):
        tilted = tilt_model(kr2014(), [1.0])
        verdict = check_conservative(tilted)
        ok, viol = comparison_check(tilted, [0.0], verdict.witness.ts,
                                    verdict.witness.values)
        # linear-killing variants of the remaining acceptance models
        details = [f"tilted-kr2014 violation {viol:.2e}"]
        all_ok = ok
        for base_name, base in (("feller", feller()), ("cir-jump", cir_jump())):
            killed = AffineModel(shape=base.shape, a=base.a, b=base.b, c=0.0,
                                 mu0=base.mu0, alpha=base.alpha, beta_I=base.beta_I,
                                 gamma=[0.25], mus=base.mus, beta_JJ=base.beta_JJ)
            v = check_conservative(killed)
            assert v.kind == "NonConservative"
            okk, violk = comparison_check(killed, [0.0], v.witness.ts, v.witness.values)
            details.append(f"killed-{base_name} violation {violk:.2e}")
            all_ok &= okk
        assert report("9a", all_ok, "; ".join(details))

    def test_randomized_synthetic_witnesses(self):
        # exponents p >= 1/2: escape solutions t^{1/(1-p)} with power >= 2,
        # for which the graded witness grid certifies the 1e-6 residual
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(8):
            p = rng.uniform(0.5, 0.85)

            def fun(v, p=p):
                with np.errstate(invalid="ignore"):
                    return -((-v) ** p)

            verdict = check_reduced_uniqueness(ReducedField(fun=fun, m=1))
            assert verdict.kind == "NonConservative"
            w = verdict.witness
            minimal = -(((1 - p) * w.ts) ** (1.0 / (1.0 - p)))
            worst = max(worst, float(np.max(minimal - w.values[:, 0])))
        ok = worst <= 1e-7
        assert report("9b", ok, f"worst domination violation {worst:.2e} over "
                                f"8 random escape exponents")


class TestCriterion10Structural:
    def test_psi_J_matrix_exponential_agreement(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(5):
            B = rng.normal(size=(2, 2))
            B *= 2.0 / max(np.max(np.abs(np.linalg.eigvals(B))), 2.0)
            m = AffineModel(shape=StateShape(0, 2), a=np.zeros((2, 2)),
                            b=np.zeros(2), beta_JJ=B)
            uJ = rng.normal(size=2)
            sol = solve_riccati(m, uJ, SolveOptions(T=1.5, rtol=1e-11, atol=1e-13))
            worst = max(worst, float(np.max(np.abs(sol.psi_end - psi_J_flow(m, 1.5, uJ)))))
        ok = worst <= 1e-8
        assert report("10a", ok, f"J-block vs expm worst gap {worst:.2e}")

    def test_order_preservation_sampling(self):
        counts = {}
        for name, model in (("feller", feller()), ("kr2014", kr2014()),
                            ("cir-jump", cir_jump())):
            rep = order_preservation_test(model, samples=1000, rng_seed=19)
            counts[name] = len(rep.counterexamples)
        ok = all(c == 0 for c in counts.values())
        assert report("10b", ok, f"counterexamples {counts}")

    def test_mc_determinism(self):
        opts = SimOptions(x0=[1.0], T=0.5, dt=2e-3, npaths=2_000, seed=99,
                          jump_trunc=1e-3)
        a = simulate_paths(cir_jump(), opts)
        b = simulate_paths(cir_jump(), opts)
        ok = (np.array_equal(a.states, b.states)
              and np.array_equal(a.survived, b.survived))
        est_a = estimate_exp_moment(a, [-0.5])
        est_b = estimate_exp_moment(b, [-0.5])
        ok &= est_a == est_b
        assert report("10c", ok, "bit-identical ensembles and estimates")
