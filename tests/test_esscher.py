"""Exponential tilting: parametric identities and martingale verdicts."""

import math

import numpy as np
import pytest

from affine_riccati import (
    CompoundPoissonExp,
    ConfigError,
    DomainError,
    GammaLevy,
    SolveOptions,
    TemperedStableHalf,
    TiltSpec,
    discounted_functional,
    eval_F,
    eval_R,
    in_domain_Y,
    martingale_check,
    solve_tilted,
    tilt_model,
)

TILT_IDENTITY_RTOL = 1e-10


def _interior_points(model, rng, count):
    """Random u with u and u + theta-shifts comfortably inside Y."""
    d = model.shape.d
    dom = model.domain
    pts = []
    while len(pts) < count:
        u = rng.uniform(-2.0, 0.0, size=d)
        for k in range(d):
            bound, _ = dom.axis_bound(k)
            if math.isfinite(bound):
                u[k] = min(u[k], bound - 0.2)
        if dom.contains(u):
            pts.append(u)
    return pts


def _interior_tilt(model, rng):
    d = model.shape.d
    dom = model.domain
    theta = rng.uniform(-0.5, 0.5, size=d)
    for k in range(d):
        bound, _ = dom.axis_bound(k)
        if math.isfinite(bound):
            theta[k] = min(theta[k], bound - 0.6)
    assert dom.contains(theta)
    return theta


class TestTiltModel:
    def test_zero_tilt_is_identity(self, cir_jump_model):
        t = tilt_model(cir_jump_model, [0.0])
        assert np.allclose(t.a, cir_jump_model.a)
        assert np.allclose(t.b, cir_jump_model.b)
        assert np.allclose(t.beta_I, cir_jump_model.beta_I)
        assert t.mu0 == cir_jump_model.mu0
        assert t.mus == cir_jump_model.mus

    def test_exponential_family_closed_under_tilt(self):
        mu = CompoundPoissonExp(rate=1.0, jump_rate=1.0, axis=0)
        tilted = mu.tilted(0.5)
        # e^{0.5 xi} e^{-xi} dxi has tail rate 0.5 and total rate 1/0.5 = 2
        assert isinstance(tilted, CompoundPoissonExp)
        assert tilted.jump_rate == pytest.approx(0.5)
        assert tilted.rate == pytest.approx(2.0)

    def test_kr2014_measure_tilted_to_pure_stable(self, kr_model):
        mu = kr_model.mus[0]
        tilted = mu.tilted(1.0)
        assert isinstance(tilted, TemperedStableHalf)
        assert tilted.tempering == 0.0  # exponential factor cancels
        assert tilted.scale == mu.scale

    def test_gamma_family_closed_under_tilt(self):
        mu = GammaLevy(c=0.4, rho=2.0, axis=0)
        tilted = mu.tilted(0.7)
        assert isinstance(tilted, GammaLevy)
        assert tilted.rho == pytest.approx(1.3)

    def test_theta_outside_domain_rejected(self, kr_model):
        with pytest.raises(DomainError):
            tilt_model(kr_model, [1.2])

    def test_quadrature_wrapper_matches_closed_form_tilt(self):
        # fallback path for families without a closed-form tilt
        from affine_riccati import ExpTiltedMeasure
        base = CompoundPoissonExp(rate=0.8, jump_rate=2.0, axis=0)
        wrapped = ExpTiltedMeasure(base, 0.6)
        closed = base.tilted(0.6)
        for u in (np.array([-1.5]), np.array([0.4]), np.array([1.0])):
            assert wrapped.lk_integral(u) == pytest.approx(closed.lk_integral(u),
                                                           rel=1e-8, abs=1e-9)
        assert (wrapped.exp_bound, wrapped.bound_closed) == \
            (pytest.approx(closed.exp_bound), closed.bound_closed)
        assert wrapped.chi_integral() == pytest.approx(closed.chi_integral(), rel=1e-8)
        # outside the shifted range both refuse
        assert not wrapped.admits(1.5) and not closed.admits(1.5)
        # composing tilts through the wrapper stays consistent
        rewrapped = wrapped.tilted(0.2)
        assert (rewrapped.exp_bound, rewrapped.bound_closed) == \
            (pytest.approx(base.tilted(0.8).exp_bound), base.tilted(0.8).bound_closed)
        assert rewrapped.lk_integral(np.array([0.5])) == pytest.approx(
            base.tilted(0.8).lk_integral(np.array([0.5])), rel=1e-8)


class TestTiltIdentities:
    """F~(u) = F(u + theta) - F(theta), componentwise likewise for R."""

    def test_characteristic_identities(self, acceptance_models):
        rng = np.random.default_rng(101)
        for name, model in acceptance_models.items():
            theta = _interior_tilt(model, rng)
            tilted = tilt_model(model, theta)
            for u in _interior_points(tilted, rng, 200):
                lhs_F = eval_F(tilted, u)
                rhs_F = eval_F(model, u + theta) - eval_F(model, theta)
                assert lhs_F == pytest.approx(rhs_F, rel=TILT_IDENTITY_RTOL,
                                              abs=TILT_IDENTITY_RTOL), name
                lhs_R = eval_R(tilted, u)
                rhs_R = eval_R(model, u + theta) - eval_R(model, theta)
                assert np.allclose(lhs_R, rhs_R, rtol=TILT_IDENTITY_RTOL,
                                   atol=TILT_IDENTITY_RTOL), name

    def test_identities_on_mixed_model(self, mixed_model):
        rng = np.random.default_rng(5)
        theta = np.array([0.4, -0.3, 0.2])
        tilted = tilt_model(mixed_model, theta)
        for u in _interior_points(tilted, rng, 50):
            rhs = eval_F(mixed_model, u + theta) - eval_F(mixed_model, theta)
            assert eval_F(tilted, u) == pytest.approx(rhs, rel=1e-10, abs=1e-10)
            rhs_R = eval_R(mixed_model, u + theta) - eval_R(mixed_model, theta)
            assert np.allclose(eval_R(tilted, u), rhs_R, rtol=1e-10, atol=1e-10)

    def test_tilt_composition(self, acceptance_models):
        rng = np.random.default_rng(17)
        for name, model in acceptance_models.items():
            d = model.shape.d
            th1 = np.full(d, 0.2)
            th2 = np.full(d, -0.6)
            once = tilt_model(tilt_model(model, th1), th2)
            both = tilt_model(model, th1 + th2)
            for u in _interior_points(both, rng, 40):
                assert eval_F(once, u) == pytest.approx(eval_F(both, u),
                                                        rel=1e-10, abs=1e-10), name
                assert np.allclose(eval_R(once, u), eval_R(both, u),
                                   rtol=1e-10, atol=1e-10), name

    def test_tilted_domain_is_shifted(self, kr_model, exp_jump_model):
        for model, theta in ((kr_model, 0.4), (exp_jump_model, 0.3)):
            tilted = tilt_model(model, [theta])
            for y in (-1.0, 0.1, 0.5, 0.55, 0.7, 0.99, 1.0):
                assert in_domain_Y(tilted, [y]) == in_domain_Y(model, [y + theta])

    def test_boundary_tilt_of_closed_family(self, kr_model):
        # theta = 1 sits exactly on the domain boundary and is admissible
        tilted = tilt_model(kr_model, [1.0])
        assert in_domain_Y(tilted, [0.0])
        assert not in_domain_Y(tilted, [0.1])


class TestTiltSpec:
    @pytest.mark.parametrize("kwargs, name", [
        ({"theta": [math.nan]}, "theta"),
        ({"theta": [0.5, math.inf]}, "theta"),
        ({"theta": [0.5], "l": math.nan}, "l"),
        ({"theta": [0.5], "l": math.nan, "lam": [math.nan]}, "l"),
        ({"theta": [0.5], "lam": [-math.inf]}, "lam"),
    ])
    def test_non_finite_entries_are_refused(self, kwargs, name):
        with pytest.raises(ConfigError, match=rf"TiltSpec\.{name} must be finite"):
            TiltSpec(**kwargs)

    def test_mis_sized_or_complex_vectors_are_refused(self, feller_model):
        with pytest.raises(ConfigError, match=r"TiltSpec\.lam must have length 1, got 2"):
            TiltSpec(theta=[0.5], lam=[1.0, 2.0])
        with pytest.raises(ConfigError, match=r"TiltSpec\.theta must be real"):
            TiltSpec(theta=[0.5j])
        with pytest.raises(ConfigError, match=r"TiltSpec\.theta must have length 1, got 2"):
            martingale_check(feller_model, TiltSpec(theta=[0.5, 1.0]))
        with pytest.raises(ConfigError, match="theta must have length 1, got 2"):
            tilt_model(feller_model, [0.5, 1.0])

    @pytest.mark.parametrize("l, lam, condition", [
        (math.nan, [-0.25], "F(theta) = l"),
        (0.25, [math.nan], "R(theta) = lambda"),
    ])
    def test_nan_discount_fails_the_identities(self, feller_model, l, lam, condition):
        # F(1/2) = 1/4 and R(1/2) = -1/4 for feller; a NaN discount slipped
        # past the spec's own check must fail its identity, not pass it
        spec = TiltSpec(theta=[0.5], l=0.25, lam=[-0.25])
        object.__setattr__(spec, "l", l)
        object.__setattr__(spec, "lam", np.array(lam))
        verdict = martingale_check(feller_model, spec)
        assert (verdict.kind, verdict.failed_condition) == ("NotApplicable", condition)


class TestMartingaleCheck:
    def test_kr2014_strict_local_martingale(self, kr_model):
        verdict = martingale_check(kr_model, TiltSpec(theta=[1.0], l=0.0, lam=[0.0]))
        assert verdict.kind == "StrictLocalMartingale"
        w = verdict.witness
        assert w is not None
        assert w.values[0, 0] == pytest.approx(1.0, abs=1e-7)  # zeta(0) = theta
        exact = 1.0 - (np.exp(-w.ts / 2.0) - 1.0) ** 2
        assert np.max(np.abs(w.values[:, 0] - exact)) < 1e-4
        assert verdict.tilted_verdict.kind == "NonConservative"

    def test_feller_true_martingale(self, feller_model):
        theta = np.array([0.5])
        spec = TiltSpec(theta=theta, l=eval_F(feller_model, theta),
                        lam=eval_R(feller_model, theta))
        verdict = martingale_check(feller_model, spec)
        assert verdict.kind == "TrueMartingale"
        assert verdict.tilted_verdict.kind == "Conservative"

    def test_cir_jump_true_martingale(self, cir_jump_model):
        theta = np.array([0.3])
        spec = TiltSpec(theta=theta, l=eval_F(cir_jump_model, theta),
                        lam=eval_R(cir_jump_model, theta))
        assert martingale_check(cir_jump_model, spec).kind == "TrueMartingale"

    def test_model_without_an_i_block_true_martingale(self):
        from affine_riccati import AffineModel, StateShape
        m = AffineModel(shape=StateShape(0, 1), a=[[0.5]], b=[0.1], beta_JJ=[[-1.0]])
        theta = np.array([0.2])
        spec = TiltSpec(theta=theta, l=eval_F(m, theta), lam=eval_R(m, theta))
        verdict = martingale_check(m, spec)
        assert verdict.kind == "TrueMartingale"
        assert verdict.tilted_verdict.kind == "Conservative"

    def test_theta_outside_domain_not_applicable(self, cir_jump_model):
        # jump_rate 2 caps the admissible exponent below 3
        verdict = martingale_check(cir_jump_model, TiltSpec(theta=[3.0], l=0.0, lam=[0.0]))
        assert verdict.kind == "NotApplicable"
        assert verdict.failed_condition == "theta in Y"

    def test_wrong_constant_discount_not_applicable(self, feller_model):
        verdict = martingale_check(feller_model,
                                   TiltSpec(theta=[0.5], l=99.0, lam=eval_R(feller_model, [0.5])))
        assert verdict.kind == "NotApplicable"
        assert verdict.failed_condition == "F(theta) = l"

    def test_wrong_linear_discount_not_applicable(self, feller_model):
        verdict = martingale_check(feller_model,
                                   TiltSpec(theta=[0.5], l=eval_F(feller_model, [0.5]), lam=[9.0]))
        assert verdict.kind == "NotApplicable"
        assert verdict.failed_condition == "R(theta) = lambda"

    def test_non_conservative_base_not_applicable(self):
        from affine_riccati import AffineModel, StateShape
        m = AffineModel(shape=StateShape(1, 0), a=[[0.0]], b=[0.1], c=0.4,
                        alpha=[1.0], beta_I=[[-1.0]])
        verdict = martingale_check(m, TiltSpec(theta=[0.0], l=eval_F(m, [0.0]), lam=[0.0]))
        assert verdict.kind == "NotApplicable"
        assert verdict.failed_condition == "base model conservative"

    def test_true_martingale_implies_tilted_equilibrium(self, acceptance_models):
        # whenever the verdict is TrueMartingale the constant solution is an
        # equilibrium of the discounted system
        for name, model in acceptance_models.items():
            theta = np.full(model.shape.d, 0.25)
            spec = TiltSpec(theta=theta, l=eval_F(model, theta), lam=eval_R(model, theta))
            verdict = martingale_check(model, spec)
            if verdict.kind != "TrueMartingale":
                continue
            sol = solve_tilted(model, spec.l, spec.lam, theta, SolveOptions(T=2.0))
            assert sol.status.kind == "equilibrium", name
            assert np.allclose(sol.psi[-1], theta, atol=1e-9), name
            assert abs(sol.phi[-1]) < 1e-9, name

    def test_witness_solves_discounted_system(self, kr_model):
        verdict = martingale_check(kr_model, TiltSpec(theta=[1.0], l=0.0, lam=[0.0]))
        w = verdict.witness
        assert w.residual < 1e-6
        # residual of zeta against R(zeta) - lambda directly
        from affine_riccati.diagnostics import ode_residual
        from affine_riccati.model import reduced_R
        res = ode_residual(w.ts, w.values,
                           lambda v: reduced_R(kr_model, v, check_domain=False))
        assert res < 1e-6


class TestDiscountedFunctional:
    def test_zero_spec_is_identically_one(self):
        spec = TiltSpec(theta=[0.0], l=0.0, lam=[0.0])
        ts = np.linspace(0, 2, 21)
        path = np.abs(np.sin(ts))[:, None] + 1.0
        assert np.array_equal(discounted_functional(spec, ts, path), [1.0])

    def test_constant_path_closed_form(self):
        spec = TiltSpec(theta=[0.3], l=0.0, lam=[0.2])
        ts = np.linspace(0, 2, 401)
        path = np.ones((401, 1))
        S = discounted_functional(spec, ts, np.stack([path, 2.0 * path]))
        assert S[0] == pytest.approx(math.exp(-2 * 0.2 + 0.3), rel=1e-12)
        assert S[1] == pytest.approx(math.exp(-2 * 0.4 + 0.6), rel=1e-12)
        # a stack of paths gives each path the bits of its own call
        assert S[0] == discounted_functional(spec, ts, path)[0]

    def test_linear_path_second_order_accuracy(self):
        spec = TiltSpec(theta=[0.0], l=0.0, lam=[1.0])
        x0, v, T = 1.0, 0.5, 1.0
        exact = math.exp(-(x0 * T + 0.5 * v * T * T))
        errs = []
        for n in (11, 21, 41):
            ts = np.linspace(0, T, n)
            path = (x0 + v * ts)[:, None]
            errs.append(abs(discounted_functional(spec, ts, path)[0] - exact))
        # linear integrand: trapezoid is exact up to rounding
        assert max(errs) < 1e-12

    def test_quadratic_path_trapezoid_order(self):
        spec = TiltSpec(theta=[0.0], l=0.0, lam=[1.0])
        T = 1.0
        exact = math.exp(-T ** 3 / 3.0)
        errs = []
        for n in (11, 21, 41):
            ts = np.linspace(0, T, n)
            path = (ts ** 2)[:, None]
            errs.append(abs(discounted_functional(spec, ts, path)[0] - exact))
        assert errs[2] < errs[0] / 10.0  # O(dt^2) decay

    def test_misshaped_states_are_a_config_error(self):
        spec = TiltSpec(theta=[0.1], l=0.0, lam=[0.0])
        ts = np.linspace(0, 1, 5)
        for times, states in [
            (ts, np.ones((4, 1))),            # one time too many
            (ts, np.ones((5, 2))),            # d = 2 against a 1-d theta
            (ts, np.ones(5)),                 # no state axis
            (ts, np.ones((2, 2, 5, 1))),      # too many axes
            (ts[:, None], np.ones((5, 1))),   # a 2-d time grid
            (ts[:0], np.ones((0, 1))),        # no times
        ]:
            with pytest.raises(ConfigError, match="states must be"):
                discounted_functional(spec, times, states)
