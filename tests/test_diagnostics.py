"""Conservativeness verdicts, witnesses and the comparison check."""

import math
import warnings

import numpy as np
import pytest

from affine_riccati import (
    AffineModel,
    CompoundPoissonExp,
    ConfigError,
    DomainError,
    LipschitzCertificate,
    ReducedField,
    SolverError,
    StateShape,
    check_conservative,
    check_reduced_uniqueness,
    cir_jump,
    comparison_check,
    feller,
    kr2014,
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


def linear_2d_field(v):
    return np.array([-v[0] + 0.5 * v[1], 0.2 * v[0] - v[1]])


def tilted_2d_field():
    """Two decoupled square-root escape coordinates (forces the probe route)."""

    def fun(v):
        with np.errstate(invalid="ignore"):
            return np.array([-v[0] - np.sqrt(-v[0]), -v[1] - np.sqrt(-v[1])])

    return ReducedField(fun=fun, m=2)


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


    @pytest.mark.parametrize("c", [0.0, 0.3])
    def test_model_without_an_i_block(self, c):
        # m = 0: the reduced system is empty, so F(0) = -c alone decides
        m = AffineModel(shape=StateShape(0, 1), a=[[0.5]], b=[0.1], c=c, beta_JJ=[[-1.0]])
        verdict = check_conservative(m)
        if c:
            assert verdict.kind == "NonConservative"
            assert verdict.f0_witness == pytest.approx(-c)
        else:
            assert verdict.kind == "Conservative"
            assert verdict.certificate == LipschitzCertificate(radius=0.5, bound=0.0)


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

    @pytest.mark.parametrize("p, kind, reason", [
        (0.85, "NonConservative", None),
        (0.9, "Inconclusive", "Osgood integral converges but witness construction failed"),
        (0.95, "Inconclusive", "Osgood integral converges but witness construction failed"),
    ], ids=["0.85", "0.9", "0.95"])
    def test_sign_powers_near_one_not_conservative(self, p, kind, reason):
        # g = -((1 - p) t)^{1/(1-p)} solves g' = sign(g)|g|^p from 0
        field = ReducedField(fun=lambda v: np.sign(v) * np.abs(v) ** p, m=1)
        verdict = check_reduced_uniqueness(field)
        assert (verdict.kind, verdict.reason) == (kind, reason)
        if kind == "NonConservative":
            assert verdict.witness.source == "osgood-inversion"
            assert _accepted(verdict.witness)

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

    def test_verdicts_stable_under_probe_refinement(self, kr_model, refine_ladder):
        models = (kr_model, tilt_model(kr_model, [1.0]))
        kinds = [check_conservative(model).kind for model in models]
        refine_ladder()
        assert [check_conservative(model).kind for model in models] == kinds


class TestProbeRoute:
    def test_2d_escape_detected(self):
        verdict = check_reduced_uniqueness(tilted_2d_field())
        assert verdict.kind == "NonConservative"
        w = verdict.witness
        assert w.residual < WITNESS_RESIDUAL_TOL
        exact = -((np.exp(-w.ts / 2.0) - 1.0) ** 2)
        for k in range(2):
            assert np.max(np.abs(w.values[:, k] - exact)) < 1e-6

    def test_2d_verdict_stable_under_refinement(self, refine_ladder):
        refine_ladder()
        assert check_reduced_uniqueness(tilted_2d_field()).kind == "NonConservative"

    def test_2d_lipschitz_field_conservative(self):
        # the stated bound 1.5 is the largest absolute row sum of the matrix
        field = ReducedField(fun=linear_2d_field, m=2, jacobian_bound=lambda rho: 1.5)
        verdict = check_reduced_uniqueness(field)
        assert verdict.kind == "Conservative"
        cert = verdict.certificate
        assert (type(cert), cert.radius, cert.bound) == (LipschitzCertificate, 0.5, 1.5)


def scaled_2d_field(k):
    """tilted_2d_field sped up k-fold: its witness is too steep for the grid."""

    def fun(v):
        with np.errstate(invalid="ignore"):
            return k * np.array([-v[0] - np.sqrt(-v[0]), -v[1] - np.sqrt(-v[1])])

    return ReducedField(fun=fun, m=2)


class TestRoutes:
    """Which stage of the pipeline decides, on small closed-form fields."""

    def test_field_needs_a_positive_dimension(self):
        with pytest.raises(ConfigError, match="ReducedField.m must be a positive integer"):
            ReducedField(fun=lambda v: v, m=0)

    @pytest.mark.parametrize("m, fun", [(1, lambda v: np.array([v[0] ** 2, 0.0])),
                                        (1, lambda v: np.array([[v[0] ** 2]])),
                                        (1, lambda v: np.zeros(0)),
                                        (2, lambda v: v[:1])],
                             ids=["too-long", "column", "empty", "too-short"])
    def test_a_value_of_the_wrong_shape_is_a_config_error(self, m, fun):
        # a bare field's value must have shape (m,), not be cut to it or
        # broadcast from it
        with pytest.raises(ConfigError, match=rf"ReducedField.fun must return shape \({m},\)"):
            check_reduced_uniqueness(ReducedField(fun=fun, m=m))

    def test_a_scalar_is_the_value_of_a_field_with_one_entry(self):
        field = ReducedField(fun=lambda v: -v[0], m=1)
        assert field(np.array([0.5])).tolist() == [-0.5]
        assert check_reduced_uniqueness(field).kind == "Conservative"

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

    def test_osgood_ladder_misses_a_log_osgood_field(self):
        # v (1 + log(1/v)) is Osgood, so 0 is the unique solution from 0, but
        # its decade ratios (0.47 up to 0.86) stay below 0.9: the ladder calls
        # the integral convergent and the witness check refuses the escape
        def fun(v):
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(v == 0.0, 0.0, v * (1.0 - np.log(v)))

        verdict = check_reduced_uniqueness(ReducedField(fun=fun, m=1))
        assert verdict.kind == "Inconclusive"
        assert verdict.reason == "Osgood integral converges but witness construction failed"

    def test_probe_witness_above_residual_budget_rejected(self):
        verdict = check_reduced_uniqueness(scaled_2d_field(10.0))
        assert verdict.kind == "Inconclusive"
        assert verdict.reason.startswith("probe limit failed witness validation (residual ")
        residual = float(verdict.reason.split("residual ")[1].split(",")[0])
        assert residual >= WITNESS_RESIDUAL_TOL

    def test_bare_2d_linear_field_is_inconclusive(self):
        # no stated bound, so no Lipschitz certificate: the probes collapse
        verdict = check_reduced_uniqueness(ReducedField(fun=linear_2d_field, m=2))
        assert verdict.kind == "Inconclusive"
        assert verdict.certificate is None
        assert verdict.reason == ("probe trajectories collapse to 0 "
                                  "but no Lipschitz certificate exists")

    def test_analytic_corner_method(self, kr_model):
        field = ReducedField(fun=lambda v: -v, m=1, jacobian_bound=lambda rho: 1.0)
        cert = check_reduced_uniqueness(field).certificate
        assert (type(cert), cert.radius, cert.bound) == (LipschitzCertificate, 0.5, 1.0)
        assert cert.describe() == ("reduced field is Lipschitz on the ball of radius 0.5 "
                                   "around 0 with constant 1 (analytic-corner)")
        assert isinstance(check_conservative(kr_model).certificate, LipschitzCertificate)

    def test_a_field_with_a_jacobian_bound_is_never_sampled(self):
        # no finite analytic bound on any ball: the Osgood test decides
        field = ReducedField(fun=lambda v: -v, m=1, jacobian_bound=lambda rho: None)
        verdict = check_reduced_uniqueness(field)
        assert verdict.kind == "Conservative"
        assert verdict.certificate.sides == (("negative side", "inward"),
                                             ("positive side", "inward"))

    def test_constant_jump_range_does_not_bound_the_reduced_field(self):
        # tilting cir-jump by 1.8 leaves mu0 the exponential range s < 0.2,
        # but mu0 enters F only: the ball of radius 0.5 keeps its bound
        # 3.6 = |beta~| + 2 alpha rho = 2.6 + 1
        cert = check_conservative(tilt_model(cir_jump(), [1.8])).certificate
        assert (type(cert), cert.radius) == (LipschitzCertificate, 0.5)
        assert cert.bound == pytest.approx(3.6, rel=1e-15)

    def test_model_verdicts_keep_their_routes(self, mixed_model, kr2014_pair_model):
        # kind and deciding route of each model verdict: the certificate's
        # class, else the witness's source
        kr, fe, cj = kr2014(), feller(), cir_jump()
        lip, cons, noncons = "LipschitzCertificate", "Conservative", "NonConservative"
        pinned = [(kr, cons, lip), (fe, cons, lip), (cj, cons, lip), (mixed_model, cons, lip),
                  (kr2014_pair_model, cons, lip),
                  (tilt_model(kr, [0.4]), cons, lip), (tilt_model(kr, [0.6]), cons, lip),
                  (tilt_model(kr, [1.0]), noncons, "osgood-inversion"),
                  (tilt_model(fe, [0.25]), cons, lip), (tilt_model(fe, [0.5]), cons, lip),
                  (tilt_model(cj, [0.0]), cons, lip), (tilt_model(cj, [0.25]), cons, lip),
                  (tilt_model(cj, [0.3]), cons, lip), (tilt_model(cj, [1.8]), cons, lip),
                  (tilt_model(mixed_model, [0.4, -0.3, 0.2]), cons, lip),
                  (tilt_model(kr2014_pair_model, [1.0, 0.5]), "Inconclusive", None),
                  (tilt_model(kr2014_pair_model, [1.0, 1.0]), noncons, "probe-extrapolation")]
        for model, kind, route in pinned:
            verdict = check_conservative(model)
            got = (type(verdict.certificate).__name__ if verdict.certificate is not None
                   else verdict.witness.source if verdict.witness is not None else None)
            assert (verdict.kind, got) == (kind, route)

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
    """Bare scalar fields state no Lipschitz bound, so the Osgood test
    decides them, root-type and Lipschitz fields alike."""

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
        assert verdict.report_lines() == [
            "kind: Conservative",
            "certificate: Osgood integral of 1/|field| diverges toward 0 on every escape "
            "side (negative side: inward; positive side: inward)"]

    @pytest.mark.parametrize("fun, sides", [
        (power_field(1.0).fun, ("divergent", "divergent")),
        (power_field(2.0).fun, ("divergent", "inward")),
        (lambda v: np.sin(3 * v) - v ** 3, ("divergent", "divergent")),
    ], ids=["power-1", "power-2", "sin"])
    def test_lipschitz_fields_go_to_osgood(self, fun, sides):
        verdict = check_reduced_uniqueness(ReducedField(fun=fun, m=1))
        assert verdict.kind == "Conservative"
        assert verdict.certificate.sides == (("negative side", sides[0]),
                                             ("positive side", sides[1]))


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

    @staticmethod
    def one_at_a_time(field):
        """The same field without its rows call: evaluated row by row."""
        return ReducedField(fun=field.fun, m=field.m)

    def test_rows_call_equals_the_row_loop(self, kr_model):
        # a model-backed field evaluates the grid in one reduced_R call
        w = check_conservative(tilt_model(kr_model, [1.0])).witness
        fld = ReducedField.from_model(tilt_model(kr_model, [1.0]))
        assert fld._rows is not None
        got = ode_residual(w.ts, w.values, fld)
        assert got == ode_residual(w.ts, w.values, self.one_at_a_time(fld))
        assert got == self.loop_residual(w.ts, w.values, fld)

    def test_verdict_evaluates_the_witness_grid_in_one_rows_call(self, monkeypatch, kr_model):
        # the one stacked evaluation of a verdict goes through the reduced_R
        # of this module's globals, where a tracer that wraps it counts it
        from affine_riccati import diagnostics

        shapes = []
        original = diagnostics.reduced_R

        def recorded(model, v, *args, **kwargs):
            shapes.append(np.shape(v))
            return original(model, v, *args, **kwargs)

        monkeypatch.setattr(diagnostics, "reduced_R", recorded)
        verdict = check_conservative(tilt_model(kr_model, [1.0]))
        assert verdict.kind == "NonConservative"
        assert [s for s in shapes if len(s) == 2] == [verdict.witness.values.shape]

    def test_rows_call_meets_inf_or_a_raise_where_the_loop_does(self, exp_jump_model):
        # alpha v^2 overflows to inf at v = -1e200; v >= 1 leaves the jump
        # measure's range (DomainError); the first of the two in grid order wins
        fld = ReducedField.from_model(exp_jump_model)
        ts = np.linspace(0.0, 0.4, 5)
        overflow_first = np.array([[0.0], [-0.1], [-1e200], [2.0], [0.1]])
        raise_first = np.array([[0.0], [2.0], [-0.1], [-1e200], [0.1]])
        for field in (fld, self.one_at_a_time(fld)):
            assert ode_residual(ts, overflow_first, field) == math.inf
            with pytest.raises(DomainError):
                ode_residual(ts, raise_first, field)

    def test_rows_call_skips_nan_intervals(self):
        # a field with a rows call: the NaN defects are skipped as in the loop
        ts = np.array([0.0, 0.1, 0.2, 0.4])
        vals = np.array([[np.nan, 0.0], [1.0, 0.1], [1.0, 0.2], [1.0, 0.7]])
        fld = ReducedField(fun=lambda v: np.zeros(2), m=2, _rows=lambda v: np.zeros(v.shape))
        assert ode_residual(ts, vals, fld) == pytest.approx(2.5)
        assert ode_residual(ts, vals, fld) == self.loop_residual(ts, vals, fld)


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
        # from uI, which comparison_check requires, then below
        bad = minimal_reduced_trajectory(tilted, [0.0], ts) - 1e-5 * ts[:, None]
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
    @pytest.mark.parametrize("ts", [[-0.1, 0.5, 1.0], [0.0, 1.0, 0.5], [0.0, math.nan, 1.0],
                                    [0.0, 0.5, math.inf], [], [0.0, 0.0]])
    def test_time_grid_must_be_finite_nondecreasing_from_zero(self, kr_model, ts):
        tilted = tilt_model(kr_model, [1.0])
        with pytest.raises(ConfigError, match="time grid ts"):
            minimal_reduced_trajectory(tilted, [0.0], ts)
        with pytest.raises(ConfigError, match="time grid ts"):
            comparison_check(tilted, [0.0], ts, np.zeros((len(ts), 1)))

    @pytest.mark.parametrize("uI, match", [([0.5, 0.2], "uI must have length 1, got 2"),
                                           ([0.5j], "uI must be real")],
                             ids=["length", "complex"])
    def test_start_must_be_a_real_vector_of_length_m(self, kr_model, uI, match):
        with pytest.raises(ConfigError, match=match):
            minimal_reduced_trajectory(kr_model, uI, [0.0, 1.0])

    def test_values_must_fit_the_grid(self, kr_model):
        field = ReducedField(fun=lambda v: -v, m=1)
        with pytest.raises(ConfigError, match="on the k times of ts"):
            ode_residual([0.0, 1.0, 2.0], np.zeros((2, 1)), field)
        with pytest.raises(ConfigError, match="on the k times of ts"):
            comparison_check(kr_model, [0.0], [0.0, 1.0, 2.0], np.zeros((2, 1)))

    def test_comparison_inputs_are_checked_before_the_residual(self, kr_model):
        # a verified solution from -0.5 is no trajectory from uI = 0; nor is
        # one on a grid that does not start at 0, and a grid ending at inf or
        # a NaN value is refused as such, not by the residual or the field
        tilted = tilt_model(kr_model, [1.0])
        ts = np.linspace(0.0, 1.0, 41)
        g = minimal_reduced_trajectory(tilted, [-0.5], ts)
        assert comparison_check(tilted, [-0.5], ts, g)[0]
        with pytest.raises(ConfigError, match="must start at uI"):
            comparison_check(tilted, [0.0], ts, g)
        with pytest.raises(ConfigError, match="must start at time 0"):
            comparison_check(tilted, [-0.5], ts[1:], g[1:])
        with pytest.raises(ConfigError, match="time grid ts"):
            comparison_check(tilted, [-0.5], np.append(ts[:-1], math.inf), g)
        nan = g.copy()
        nan[5] = math.nan
        with pytest.raises(ConfigError, match="must be finite"):
            comparison_check(tilted, [-0.5], ts, nan)
        with pytest.raises(ConfigError, match="on the k times of ts"):
            comparison_check(tilted, [-0.5], ts, np.hstack([g, g]))

    def test_ladder_missing_the_horizon_raises(self, feller_model):
        # every rung from 2 - eps explodes near log 2 < 1
        with pytest.raises(SolverError, match="minimal-branch probe terminated with BlowUp"):
            minimal_reduced_trajectory(feller_model, [2.0], np.linspace(0.0, 1.0, 11))

    def test_grid_may_start_after_zero(self, kr_model):
        tilted = tilt_model(kr_model, [1.0])
        ts = np.linspace(0.0, 1.0, 11)
        assert minimal_reduced_trajectory(tilted, [0.0], ts[3:]).tobytes() == \
            minimal_reduced_trajectory(tilted, [0.0], ts)[3:].tobytes()

    def test_family_without_rows_gives_the_same_bits(self):
        # BareExpJumps rejects arrays, so its ladder is evaluated row by row;
        # the closed-form family with the same formulas takes the rows call
        from test_model import BareExpJumps

        def model(mu):
            return AffineModel(shape=StateShape(1, 0), a=[[0.0]], b=[0.1], alpha=[0.2],
                               beta_I=[[-0.5]], mus=(mu,))

        ts = np.linspace(0.0, 1.5, 31)
        for u in (-0.7, 0.2):
            bare = minimal_reduced_trajectory(model(BareExpJumps(1.0, 1.0)), [u], ts)
            closed = minimal_reduced_trajectory(model(CompoundPoissonExp(1.0, 1.0)), [u], ts)
            assert bare.tobytes() == closed.tobytes()

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
