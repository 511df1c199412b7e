"""Conservativeness verdicts, witnesses, comparison and order utilities."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_riccati import (
    AffineModel,
    DiagnosticsOptions,
    ReducedField,
    StateShape,
    check_conservative,
    check_reduced_uniqueness,
    comparison_check,
    leq_order,
    order_preservation_test,
    tilt_model,
)
from affine_riccati.diagnostics import (WitnessTrajectory, _accepted, minimal_reduced_trajectory,
                                        ode_residual)

WITNESS_RESIDUAL_TOL = 1e-6
WITNESS_NONTRIVIAL = 1e-4


def power_field(p):
    """The one-sided escape field -(-v)^p, defined for v <= 0 (p < 1)."""

    def fun(v):
        with np.errstate(invalid="ignore"):
            return -((-v) ** p)

    return ReducedField(fun=fun, m=1)


def tilted_2d_field():
    """Two decoupled square-root escape coordinates (forces the probe route)."""

    def fun(v):
        with np.errstate(invalid="ignore"):
            return np.array([-v[0] - np.sqrt(-v[0]), -v[1] - np.sqrt(-v[1])])

    return ReducedField(fun=fun, m=2)


class TestOrder:
    def test_reflexive(self):
        s = StateShape(1, 1)
        u = np.array([0.3, -0.2])
        assert leq_order(s, u, u)

    def test_I_coordinate_comparison(self):
        s = StateShape(1, 1)
        assert leq_order(s, [-1.0, 0.5], [0.0, 0.5])

    def test_differing_J_components_incomparable(self):
        s = StateShape(1, 1)
        assert not leq_order(s, [-1.0, 0.4], [0.0, 0.5])

    @given(st.lists(st.floats(-3, 3), min_size=3, max_size=3),
           st.lists(st.floats(-3, 3), min_size=3, max_size=3))
    @settings(max_examples=100)
    def test_antisymmetry(self, u, v):
        s = StateShape(2, 1)
        if leq_order(s, u, v) and leq_order(s, v, u):
            assert np.allclose(u, v)


class TestConservativeModels:
    def test_feller_certificate(self, feller_model):
        verdict = check_conservative(feller_model)
        assert verdict.kind == "Conservative"
        assert verdict.certificate is not None
        assert math.isfinite(verdict.certificate.bound)

    def test_kr2014_certificate(self, kr_model):
        # the field 1 - v - sqrt(1 - v) is smooth at 0 with derivative -1/2
        verdict = check_conservative(kr_model)
        assert verdict.kind == "Conservative"
        assert verdict.certificate.bound >= 0.5
        assert verdict.certificate.radius < 1.0

    def test_cir_jump_certificate(self, cir_jump_model):
        assert check_conservative(cir_jump_model).kind == "Conservative"

    def test_constant_killing_is_nonconservative(self):
        m = AffineModel(shape=StateShape(1, 0), a=[[0.0]], b=[0.1], c=0.2,
                        alpha=[1.0], beta_I=[[-1.0]])
        verdict = check_conservative(m)
        assert verdict.kind == "NonConservative"
        assert verdict.f0_witness == pytest.approx(-0.2)

    def test_linear_killing_is_nonconservative(self):
        m = AffineModel(shape=StateShape(1, 0), a=[[0.0]], b=[0.1],
                        alpha=[1.0], beta_I=[[-1.0]], gamma=[0.3])
        verdict = check_conservative(m)
        assert verdict.kind == "NonConservative"
        assert verdict.witness is not None
        assert verdict.witness.max_norm > WITNESS_NONTRIVIAL


class TestOsgoodFamily:
    """Scalar escape fields -(-v)^p: explicit uniqueness dichotomy."""

    @pytest.mark.parametrize("p", [0.5, 0.75])
    def test_sublinear_powers_non_conservative(self, p):
        verdict = check_reduced_uniqueness(power_field(p))
        assert verdict.kind == "NonConservative"
        w = verdict.witness
        assert w.residual < WITNESS_RESIDUAL_TOL
        assert w.max_norm > WITNESS_NONTRIVIAL
        exact = -(((1 - p) * w.ts) ** (1.0 / (1.0 - p)))
        assert np.max(np.abs(w.values[:, 0] - exact)) < 1e-6

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_lipschitz_powers_conservative(self, p):
        verdict = check_reduced_uniqueness(power_field(p))
        assert verdict.kind == "Conservative"

    def test_sqrt_witness_matches_quarter_parabola(self):
        # field -sqrt(-g): escape g(t) = -(t/2)^2
        verdict = check_reduced_uniqueness(power_field(0.5))
        w = verdict.witness
        assert np.max(np.abs(w.values[:, 0] + (w.ts / 2.0) ** 2)) < 1e-6


class TestTiltedKr2014:
    def test_non_conservative_with_closed_form_witness(self, kr_model):
        tilted = tilt_model(kr_model, [1.0])
        verdict = check_conservative(tilted)
        assert verdict.kind == "NonConservative"
        w = verdict.witness
        exact = -((np.exp(-w.ts / 2.0) - 1.0) ** 2)
        assert np.max(np.abs(w.values[:, 0] - exact)) < 1e-7
        assert w.residual < WITNESS_RESIDUAL_TOL

    def test_verdicts_stable_under_probe_refinement(self, kr_model):
        refined = DiagnosticsOptions().refined()
        tilted = tilt_model(kr_model, [1.0])
        for model in (kr_model, tilted):
            assert check_conservative(model).kind == \
                check_conservative(model, refined).kind


class TestProbeRoute:
    def test_2d_escape_detected(self):
        verdict = check_reduced_uniqueness(tilted_2d_field())
        assert verdict.kind == "NonConservative"
        w = verdict.witness
        assert w.residual < WITNESS_RESIDUAL_TOL
        exact = -((np.exp(-w.ts / 2.0) - 1.0) ** 2)
        for k in range(2):
            assert np.max(np.abs(w.values[:, k] - exact)) < 1e-6

    def test_2d_verdict_stable_under_refinement(self):
        refined = DiagnosticsOptions().refined()
        assert check_reduced_uniqueness(tilted_2d_field(), opts=refined).kind == \
            "NonConservative"

    def test_ladder_must_have_three_rungs(self):
        from affine_riccati import ConfigError
        for ladder in ((1e-5, 1e-7), (1e-5, 1e-7, 1e-9, 1e-11)):
            with pytest.raises(ConfigError, match="eps_ladder must have exactly three entries"):
                DiagnosticsOptions(eps_ladder=ladder)

    def test_2d_lipschitz_field_conservative(self):
        def fun(v):
            return np.array([-v[0] + 0.5 * v[1], 0.2 * v[0] - v[1]])
        verdict = check_reduced_uniqueness(ReducedField(fun=fun, m=2))
        assert verdict.kind == "Conservative"


def scaled_2d_field(k):
    """tilted_2d_field sped up k-fold: its witness is too steep for the grid."""

    def fun(v):
        with np.errstate(invalid="ignore"):
            return k * np.array([-v[0] - np.sqrt(-v[0]), -v[1] - np.sqrt(-v[1])])

    return ReducedField(fun=fun, m=2)


class TestRoutes:
    """Which stage of the pipeline decides, on small closed-form fields."""

    def test_field_undefined_at_origin(self):
        verdict = check_reduced_uniqueness(ReducedField(fun=np.log, m=1))
        assert verdict.kind == "Inconclusive"
        assert verdict.reason == "reduced field undefined at the origin"

    def test_osgood_sign_change(self):
        # sqrt(-v) sin(log(-v)) changes sign on every decade toward 0 and is
        # undefined for v > 0, so no Lipschitz bound exists
        def fun(v):
            a = -v
            with np.errstate(invalid="ignore"):
                return np.sqrt(a) * np.sin(np.log(np.where(a > 0, a, 1.0)))

        verdict = check_reduced_uniqueness(ReducedField(fun=fun, m=1))
        assert verdict.kind == "Inconclusive"
        assert verdict.reason == "reduced field changes sign arbitrarily close to 0 (negative side)"

    def test_osgood_witness_below_sup_norm_floor_rejected(self):
        # g = -(c t / 2)^2 escapes, but only to sup 2.25e-6 by the horizon 3
        slow = power_field(0.5).fun
        verdict = check_reduced_uniqueness(ReducedField(fun=lambda v: 1e-3 * slow(v), m=1))
        assert verdict.kind == "Inconclusive"
        assert verdict.reason == "Osgood integral converges but witness construction failed"
        assert verdict.witness is None

    def test_probe_witness_above_residual_budget_rejected(self):
        verdict = check_reduced_uniqueness(scaled_2d_field(10.0))
        assert verdict.kind == "Inconclusive"
        assert verdict.reason.startswith("probe limit failed witness validation (residual ")
        residual = float(verdict.reason.split("residual ")[1].split(",")[0])
        assert residual >= WITNESS_RESIDUAL_TOL

    def test_numeric_sampled_method(self):
        def fun(v):
            return np.array([-v[0] + 0.5 * v[1], 0.2 * v[0] - v[1]])

        cert = check_reduced_uniqueness(ReducedField(fun=fun, m=2)).certificate
        assert (cert.method, cert.radius) == ("numeric-sampled", 0.5)
        assert cert.bound == pytest.approx(3.0, rel=1e-8)  # 2 x the row sum 1.5

    def test_analytic_corner_method(self, kr_model):
        field = ReducedField(fun=lambda v: -v, m=1, jacobian_bound=lambda rho: 1.0)
        cert = check_reduced_uniqueness(field).certificate
        assert (cert.method, cert.radius, cert.bound) == ("analytic-corner", 0.5, 1.0)
        assert check_conservative(kr_model).certificate.method == "analytic-corner"

    def test_forward_solve_witness_source(self):
        verdict = check_reduced_uniqueness(ReducedField(fun=lambda v: 1.0 + v, m=1))
        assert verdict.kind == "NonConservative"
        assert verdict.reason == "origin is not an equilibrium of the reduced field (linear killing)"
        w = verdict.witness
        assert w.source == "forward-solve"
        assert w.residual < WITNESS_RESIDUAL_TOL
        # g' = 1 + g from 0: g = e^t - 1 up to the checkpoint time 1
        assert w.ts[-1] == 1.0
        assert np.max(np.abs(w.values[:, 0] - np.expm1(w.ts))) < 1e-8


class TestNumericLipschitzRefinement:
    """The sampled bound is withheld where the difference quotients grow
    as the step shrinks, so root-type fields reach the Osgood test."""

    def test_sign_sqrt_is_non_conservative(self):
        # g = -(t/2)^2 solves g' = sign(g) sqrt|g| from 0
        field = ReducedField(fun=lambda v: np.sign(v) * np.sqrt(np.abs(v)), m=1)
        verdict = check_reduced_uniqueness(field)
        assert verdict.kind == "NonConservative"
        w = verdict.witness
        assert w.source == "osgood-inversion"
        assert w.residual < WITNESS_RESIDUAL_TOL
        assert np.max(np.abs(w.values[:, 0] + (w.ts / 2.0) ** 2)) < 1e-6

    def test_cube_root_is_not_certified(self):
        verdict = check_reduced_uniqueness(ReducedField(fun=np.cbrt, m=1))
        assert verdict.kind == "Inconclusive"
        assert verdict.certificate is None

    def test_inward_sign_sqrt_is_conservative_by_osgood(self):
        field = ReducedField(fun=lambda v: -np.sign(v) * np.sqrt(np.abs(v)), m=1)
        verdict = check_reduced_uniqueness(field)
        assert verdict.kind == "Conservative"
        assert verdict.certificate.sides == (("negative side", "inward"),
                                             ("positive side", "inward"))

    @pytest.mark.parametrize("fun, m, bound", [
        (lambda v: np.array([-v[0] + 0.5 * v[1], 0.2 * v[0] - v[1]]), 2, 3.0000000006413785),
        (power_field(1.0).fun, 1, 2.0000000000575113),
        (power_field(2.0).fun, 1, 1.9999999995023998),
        (lambda v: np.sin(3 * v) - v ** 3, 1, 5.99999999999989),
    ])
    def test_lipschitz_fields_keep_their_constants(self, fun, m, bound):
        cert = check_reduced_uniqueness(ReducedField(fun=fun, m=m)).certificate
        assert (cert.method, cert.radius, cert.bound) == ("numeric-sampled", 0.5, bound)


class TestWitnessAcceptance:
    def witness(self, residual, sup):
        ts = np.linspace(0.0, 1.0, 3)
        return WitnessTrajectory(ts=ts, values=np.full((3, 1), -sup), residual=residual,
                                 source="probe-extrapolation")

    def test_residual_bound_is_strict(self):
        assert _accepted(self.witness(np.nextafter(WITNESS_RESIDUAL_TOL, 0.0), 0.1))
        assert not _accepted(self.witness(WITNESS_RESIDUAL_TOL, 0.1))

    def test_sup_norm_floor_is_strict(self):
        assert _accepted(self.witness(1e-9, np.nextafter(WITNESS_NONTRIVIAL, 1.0)))
        assert not _accepted(self.witness(1e-9, WITNESS_NONTRIVIAL))
        assert not _accepted(None)


class TestOdeResidual:
    @staticmethod
    def loop_residual(ts, vals, fun):
        """The defect interval by interval, as a plain loop."""
        fs = [np.atleast_1d(fun(v)) for v in vals]
        worst = 0.0
        for k in range(len(ts) - 1):
            h = ts[k + 1] - ts[k]
            if h <= 0:
                continue
            defect = np.max(np.abs((vals[k + 1] - vals[k]) / h - 0.5 * (fs[k] + fs[k + 1])))
            worst = max(worst, float(defect))
        return worst

    def test_matches_the_interval_loop(self):
        rng = np.random.default_rng(5)
        ts = np.sort(rng.uniform(0.0, 2.0, 300))
        ts[[40, 41]] = ts[40]            # h = 0
        ts[100], ts[101] = ts[101], ts[100]  # h < 0
        vals = rng.normal(size=(300, 2))

        def fun(v):
            return np.array([np.sin(v[0]) - v[1], v[0] * v[1]])

        assert ode_residual(ts, vals, fun) == self.loop_residual(ts, vals, fun)

    def test_nan_intervals_are_skipped(self):
        # a NaN value makes the first interval's defect NaN; the others count
        ts = np.array([0.0, 0.1, 0.2, 0.4])
        vals = np.array([[np.nan, 0.0], [1.0, 0.1], [1.0, 0.2], [1.0, 0.7]])
        fun = lambda v: np.zeros(2)  # noqa: E731
        assert ode_residual(ts, vals, fun) == pytest.approx(2.5)
        assert ode_residual(ts, vals, fun) == self.loop_residual(ts, vals, fun)

    def test_infinite_rows_raise_no_warning(self):
        # inf - inf makes the middle defect NaN; it is skipped without a warning
        ts = np.array([0.0, 0.1, 0.2, 0.3])
        vals = np.array([[0.0], [np.inf], [np.inf], [1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ode_residual(ts, vals, lambda v: np.zeros(1)) == math.inf


class TestWitnessValidity:
    def collect_witnesses(self, kr_model):
        out = []
        tilted = tilt_model(kr_model, [1.0])
        out.append(("tilted-kr2014", tilted, check_conservative(tilted).witness))
        return out

    def test_all_witnesses_verified(self, kr_model):
        for name, model, w in self.collect_witnesses(kr_model):
            assert w is not None, name
            assert w.residual < WITNESS_RESIDUAL_TOL, name
            assert w.max_norm > WITNESS_NONTRIVIAL, name

    def test_witness_dominates_minimal_solution(self, kr_model):
        # comparison property at uI = 0 for every model-backed witness
        for name, model, w in self.collect_witnesses(kr_model):
            ok, violation = comparison_check(model, [0.0], w.ts, w.values)
            assert ok, f"{name}: violation {violation:.2e}"

    def test_trivial_solution_dominates_minimal(self, kr_model):
        tilted = tilt_model(kr_model, [1.0])
        ts = np.linspace(0.0, 1.0, 400)
        ok, violation = comparison_check(tilted, [0.0], ts, np.zeros((400, 1)))
        assert ok and violation < 1e-7

    def test_constructed_violator_rejected(self, kr_model):
        # a trajectory strictly below the minimal solution must not pass as a
        # verified solution, or must report a violation
        tilted = tilt_model(kr_model, [1.0])
        ts = np.linspace(0.0, 1.0, 400)
        bad = minimal_reduced_trajectory(tilted, [0.0], ts) - 1e-5
        from affine_riccati.errors import SolverError
        try:
            ok, violation = comparison_check(tilted, [0.0], ts, bad)
        except SolverError:
            return  # rejected at the residual precondition
        assert not ok and violation > 1e-7

    def test_detector_flags_genuine_violation(self, kr_model):
        # shifting a verified solution down by a constant keeps it verified
        # on a Lipschitz field but breaks domination
        ts = np.linspace(0.0, 1.0, 2001)
        g = np.zeros((len(ts), 1))

        def fun(v):
            return np.zeros(1)

        # zero field: any constant solves it; g = -1e-5 is verified but sits
        # below the minimal solution from 0 (which is 0)
        fld = ReducedField(fun=fun, m=1)
        res = ode_residual(ts, g - 1e-5, fld)
        assert res < WITNESS_RESIDUAL_TOL


class TestMinimalTrajectory:
    def test_matches_closed_form_at_boundary(self, kr_model):
        tilted = tilt_model(kr_model, [1.0])
        ts = np.linspace(0.0, 2.0, 101)
        g = minimal_reduced_trajectory(tilted, [0.0], ts)
        exact = -((np.exp(-ts / 2.0) - 1.0) ** 2)
        assert np.max(np.abs(g[:, 0] - exact)) < 1e-6

    def test_interior_matches_logistic_closed_form(self, feller_model):
        ts = np.linspace(0.0, 1.5, 61)
        u = -0.7
        g = minimal_reduced_trajectory(feller_model, [u], ts)
        e = np.exp(-ts)
        exact = u * e / (1.0 - u * (1.0 - e))
        assert np.max(np.abs(g[:, 0] - exact)) < 1e-9


class TestOrderPreservation:
    def test_compact_support_model_unconstrained(self):
        from affine_riccati import CompoundPoissonPoint
        m = AffineModel(shape=StateShape(1, 1), a=np.eye(2), b=[0.1, 0.0],
                        mu0=CompoundPoissonPoint(rate=0.5, size=0.7, axis=0))
        report = order_preservation_test(m, samples=1000, rng_seed=1)
        assert report.ok

    def test_exponential_jump_model(self, exp_jump_model):
        report = order_preservation_test(exp_jump_model, samples=1000, rng_seed=2)
        assert report.ok

    def test_kr2014_including_boundary(self, kr_model):
        report = order_preservation_test(kr_model, samples=1000, rng_seed=3)
        assert report.ok
        # explicit boundary pair
        from affine_riccati import in_domain_Y
        assert in_domain_Y(kr_model, [1.0])
        assert in_domain_Y(kr_model, [0.3])

    def test_mixed_model(self, mixed_model):
        report = order_preservation_test(mixed_model, samples=1000, rng_seed=4)
        assert report.ok
