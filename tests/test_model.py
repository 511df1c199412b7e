"""Model parametrization: characteristics, truncations, domain, validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_riccati import (
    AffineModel,
    CompoundPoissonExp,
    CompoundPoissonPoint,
    DomainError,
    ExpTiltedMeasure,
    GammaLevy,
    LevyMeasure,
    StateShape,
    TemperedStableHalf,
    ZeroJumps,
    eval_F,
    eval_R,
    in_domain_Y,
    reduced_R,
    truncation_chi_i,
    validate_model,
)
from affine_riccati.model import exp_moment_quadrature, lk_integral_quadrature

QUAD_AGREEMENT_RTOL = 1e-8


def _scalar_model(mu):
    """m = 1 model whose only jumps are the state-linear measure mu."""
    return AffineModel(shape=StateShape(1, 0), a=[[0.0]], b=[0.0], alpha=[0.0],
                       beta_I=[[-1.0]], mus=(mu,))


# each built-in family with its exponential range (bound, closed), read off
# its parameters
STATED_RANGES = {
    "zero": (ZeroJumps(), math.inf, True),
    "exp": (CompoundPoissonExp(rate=0.7, jump_rate=1.5, axis=0), 1.5, False),
    "point": (CompoundPoissonPoint(rate=0.4, size=0.6, axis=0), math.inf, True),
    # at y = 500, e^{y size} overflows a float, but the moment is finite
    "point-large": (CompoundPoissonPoint(rate=0.4, size=1.5, axis=0), math.inf, True),
    "gamma": (GammaLevy(c=0.5, rho=2.0, axis=0), 2.0, False),
    "stable": (TemperedStableHalf(scale=0.3, tempering=1.2, axis=0), 1.2, True),
    "stable-untempered": (TemperedStableHalf(scale=0.3, tempering=0.0, axis=0), 0.0, True),
}


class TestStateShape:
    def test_index_sets(self):
        s = StateShape(2, 1)
        assert s.d == 3
        assert list(s.I) == [0, 1]
        assert list(s.J) == [2]

    def test_degenerate_shape_rejected(self):
        from affine_riccati.errors import ConfigError
        with pytest.raises(ConfigError):
            StateShape(0, 0)


def test_unknown_builtin_model_is_a_config_error():
    from affine_riccati import AffineRiccatiError, ConfigError, builtin_model
    with pytest.raises(ConfigError, match="unknown built-in model 'nope'") as info:
        builtin_model("nope")
    assert isinstance(info.value, AffineRiccatiError)


class TestTruncation:
    def test_componentwise_example(self):
        # m=2, n=1, own coordinate first: cap at 1, zero the other I coordinate
        out = truncation_chi_i(StateShape(2, 1), 0, [0.5, 3.0, -2.0])
        assert np.allclose(out, [0.5, 0.0, -1.0])

    def test_small_jump_identity_on_kept_coordinates(self):
        out = truncation_chi_i(StateShape(1, 1), 0, [0.4, -0.9])
        assert np.allclose(out, [0.4, -0.9])

    def test_scalar_capped(self):
        assert np.allclose(truncation_chi_i(StateShape(1, 0), 0, [2.0]), [1.0])

    def test_bad_index_raises(self):
        with pytest.raises(IndexError):
            truncation_chi_i(StateShape(1, 1), 1, [0.1, 0.1])

    @given(st.lists(st.floats(-5, 5), min_size=3, max_size=3))
    @settings(max_examples=100)
    def test_sup_norm_bounded_by_one(self, xi):
        out = truncation_chi_i(StateShape(2, 1), 1, xi)
        assert np.max(np.abs(out)) <= 1.0 + 1e-15

    @given(st.lists(st.floats(-1, 1), min_size=3, max_size=3))
    @settings(max_examples=100)
    def test_projection_pattern_for_small_jumps(self, xi):
        # |xi_j| <= 1: kept coordinates pass through, the other I coordinate zeroes
        out = truncation_chi_i(StateShape(2, 1), 0, xi)
        assert out[0] == pytest.approx(xi[0], abs=1e-15)
        assert out[1] == 0.0
        assert out[2] == pytest.approx(xi[2], abs=1e-15)


class TestValidation:
    def test_identity_diffusion_is_clean(self):
        m = AffineModel(shape=StateShape(0, 2), a=np.eye(2), b=[0.1, 0.0])
        assert validate_model(m).ok

    def test_negative_alpha_flagged(self):
        m = AffineModel(shape=StateShape(1, 0), a=[[0.0]], b=[0.0], alpha=[-0.5])
        report = validate_model(m)
        assert any("alpha_1" in v for v in report)

    def test_negative_cross_beta_flagged(self):
        m = AffineModel(shape=StateShape(2, 0), a=np.zeros((2, 2)), b=[0, 0],
                        beta_I=[[0.0, -1.0], [0.0, 0.0]])
        report = validate_model(m)
        assert any("beta_1,2" in v for v in report)

    def test_non_psd_diffusion_flagged(self):
        m = AffineModel(shape=StateShape(0, 2), a=[[1.0, 2.0], [2.0, 1.0]], b=[0, 0])
        assert any("semidefinite" in v for v in validate_model(m))

    def test_drift_outside_cone_flagged(self):
        m = AffineModel(shape=StateShape(1, 0), a=[[0.0]], b=[-0.2])
        assert any("b_1" in v for v in validate_model(m))

    def test_constant_diffusion_on_cone_block_flagged(self):
        # only the state-linear alpha_i diffusion may act on the I block
        m = AffineModel(shape=StateShape(1, 1), a=[[0.1, 0.0], [0.0, 0.2]],
                        b=[0.0, 0.0])
        assert any("cannot load on" in v for v in validate_model(m))


    @pytest.mark.parametrize("kwargs, messages", [
        ({"shape": StateShape(0, 2), "a": [[1.0, 0.5], [0.0, 1.0]], "b": [0.0, 0.0]},
         ["a must be symmetric"]),
        ({"c": -0.1}, ["c must be >= 0"]),
        ({"gamma": [-0.2]}, ["gamma_1 must be >= 0"]),
        ({"mu0": CompoundPoissonExp(rate=0.3, jump_rate=2.0, axis=3)},
         ["mu0: jump axis out of range"]),
        ({"mus": (CompoundPoissonPoint(rate=0.3, size=-0.5, axis=0),)},
         ["mu_1: support must lie in D (nonnegative axis 1)"]),
        ({"mu0": CompoundPoissonExp(rate=-1.0, jump_rate=0.0, axis=0)},
         ["mu0: compound-Poisson rate must be >= 0",
          "mu0: exponential jump law requires jump_rate > 0",
          "mu0: the exponential range must admit 0"]),
        ({"mu0": CompoundPoissonPoint(rate=-1.0, size=0.0, axis=0)},
         ["mu0: compound-Poisson rate must be >= 0", "mu0: point jump size must be nonzero"]),
        ({"mu0": GammaLevy(c=0.0, rho=0.0, axis=0)},
         ["mu0: gamma family requires c > 0",
          "mu0: gamma family requires rho > 0 (Levy tail integrability)",
          "mu0: the exponential range must admit 0"]),
        ({"mu0": TemperedStableHalf(scale=0.0, tempering=-1.0, axis=0)},
         ["mu0: tempered-stable family requires scale > 0",
          "mu0: tempered-stable family requires tempering >= 0",
          "mu0: the exponential range must admit 0"]),
    ], ids=["asymmetric-a", "negative-c", "negative-gamma", "axis-out-of-range",
            "negative-support-on-I", "exp-family", "point-family", "gamma-family",
            "stable-family"])
    def test_violation_messages(self, kwargs, messages):
        model = AffineModel(**{"shape": StateShape(1, 0), "a": [[0.0]], "b": [0.0], **kwargs})
        assert list(validate_model(model)) == messages

    def test_range_must_admit_zero(self):
        # a measure without validate() whose range s < -1 leaves out 0
        m = AffineModel(shape=StateShape(1, 0), a=[[0.0]], b=[0.0],
                        mus=(BareExpJumps(0.5, -1.0),))
        assert list(validate_model(m)) == ["mu_1: the exponential range must admit 0"]


class BareExpJumps(LevyMeasure):
    """Exponential jumps written with the scalar primitives only: no validate()."""

    def __init__(self, rate, jump_rate, axis=0):
        self.rate, self.jump_rate, self.axis = rate, jump_rate, axis

    @property
    def exp_bound(self):
        return self.jump_rate

    @property
    def bound_closed(self):
        return False

    def _mgf_integral(self, s):
        return math.inf if s >= self.jump_rate else self.rate * s / (self.jump_rate - s)

    def _mgf_derivative(self, s):
        return self.rate * self.jump_rate / (self.jump_rate - s) ** 2

    def tail_mass(self, eps):
        return self.rate * math.exp(-self.jump_rate * eps)

    def mean_below(self, eps):
        e = self.jump_rate
        return self.rate * ((1.0 - math.exp(-e * eps)) / e - eps * math.exp(-e * eps))

    def tail_proposal(self, eps, u):
        return eps - np.log1p(-u[:, 0]) / self.jump_rate


class TestCustomMeasure:
    def test_subclass_without_validate_is_usable(self):
        from affine_riccati import SimOptions, check_conservative, simulate_paths
        m = AffineModel(shape=StateShape(1, 0), a=[[0.0]], b=[0.5], alpha=[1.0],
                        beta_I=[[-1.0]], mus=(BareExpJumps(0.5, 2.0),))
        assert validate_model(m).ok
        assert check_conservative(m).kind == "Conservative"
        ens = simulate_paths(m, SimOptions(x0=[1.0], T=0.1, dt=0.01, npaths=20, seed=0))
        assert ens.survived.all()


class TestEvalF:
    def test_zero_at_origin_without_killing(self, cir_jump_model):
        assert eval_F(cir_jump_model, [0.0]) == 0.0

    def test_linear_case(self):
        m = AffineModel(shape=StateShape(0, 1), a=[[0.0]], b=[0.5])
        assert eval_F(m, [-1.0]) == pytest.approx(-0.5, abs=1e-15)

    def test_kr2014_F_vanishes_identically(self, kr_model):
        for u in [-3.0, -1.0, 0.0, 0.5, 1.0]:
            assert eval_F(kr_model, [u]) == 0.0

    def test_killing_shifts_origin_value(self):
        m = AffineModel(shape=StateShape(0, 1), a=[[0.0]], b=[0.0], c=0.3)
        assert eval_F(m, [0.0]) == pytest.approx(-0.3)

    def test_outside_domain_raises(self, exp_jump_model):
        with pytest.raises(DomainError):
            eval_F(exp_jump_model, [1.5])


class TestEvalR:
    def test_cir_polynomial(self, feller_model):
        assert eval_R(feller_model, [-1.0])[0] == pytest.approx(2.0, abs=1e-14)

    def test_kr2014_field_and_root(self, kr_model):
        for u in np.linspace(-2.0, 1.0, 13):
            expected = 1.0 - u - math.sqrt(1.0 - u)
            assert eval_R(kr_model, [u])[0] == pytest.approx(expected, abs=1e-12)
        assert eval_R(kr_model, [1.0])[0] == pytest.approx(0.0, abs=1e-14)

    def test_zero_at_origin_without_killing(self, mixed_model):
        assert np.allclose(eval_R(mixed_model, np.zeros(3)), 0.0, atol=1e-15)

    def test_J_block_is_linear_form(self, mixed_model):
        u = np.array([0.0, 0.4, -0.7])
        out = eval_R(mixed_model, u)
        expected_J = mixed_model.beta_JJ.T @ u[1:]
        assert np.allclose(out[1:], expected_J, atol=1e-14)


class TestDomain:
    def test_origin_always_inside(self, acceptance_models, exp_jump_model, mixed_model):
        for m in list(acceptance_models.values()) + [exp_jump_model, mixed_model]:
            assert in_domain_Y(m, np.zeros(m.shape.d))

    def test_exponential_measure_open_boundary(self, exp_jump_model):
        # unit-rate exponential jump density: finite exponential moments iff y < 1
        assert in_domain_Y(exp_jump_model, [0.5])
        assert not in_domain_Y(exp_jump_model, [1.5])
        assert not in_domain_Y(exp_jump_model, [1.0])

    def test_kr2014_closed_boundary(self, kr_model):
        assert in_domain_Y(kr_model, [1.0])
        assert not in_domain_Y(kr_model, [1.0 + 1e-9])

    def test_complex_membership_uses_real_part(self, kr_model):
        assert in_domain_Y(kr_model, np.array([0.5 + 10j]))
        assert not in_domain_Y(kr_model, np.array([1.5 + 0.1j]))

    def test_purely_imaginary_always_admitted(self, exp_jump_model):
        assert in_domain_Y(exp_jump_model, np.array([3.0j]))

    @pytest.mark.parametrize("family", sorted(STATED_RANGES))
    def test_membership_follows_the_stated_range(self, family):
        mu, bound, closed = STATED_RANGES[family]
        model = _scalar_model(mu)
        centre = bound if math.isfinite(bound) else 0.0
        ys = {centre + sign * off for sign in (1, -1)
              for off in (0.0, 1e-12, 1e-6, 1e-3, 0.5, 1.0, 10.0, 500.0)}
        up = down = centre
        for _ in range(3):
            up, down = np.nextafter(up, math.inf), np.nextafter(down, -math.inf)
            ys |= {float(up), float(down)}
        for y in sorted(ys):
            inside = y < bound or (closed and y == bound)
            assert in_domain_Y(model, [y]) == inside, (family, y)
            assert in_domain_Y(model, [complex(y, 2.0)]) == inside, (family, y)

    def test_quadrature_tilt_states_the_shifted_range(self):
        # the tilted integrand 0.3 e^{0.01 xi} xi^{-3/2} at y = 0.81 diverges
        # too slowly for the quadrature to see
        mu = ExpTiltedMeasure(TemperedStableHalf(scale=0.3, tempering=1.2, axis=0), 0.4)
        model = _scalar_model(mu)
        assert model.domain.axis_bound(0) == (pytest.approx(0.8), True)
        assert in_domain_Y(model, [0.79])
        assert not in_domain_Y(model, [0.81])

    def test_point_overflow_is_an_infinite_moment_and_a_refused_tilt(self):
        # y = 500 lies in Y, but e^{500 * 1.5} overflows a float
        mu = CompoundPoissonPoint(rate=0.4, size=1.5, axis=0)
        assert exp_moment_quadrature(mu, np.array([500.0])) == math.inf
        with pytest.raises(DomainError):
            mu.tilted(500.0)
        assert mu.tilted(1.0).rate == 0.4 * math.exp(1.5)


class TestReducedField:
    def test_zero_at_origin(self, acceptance_models):
        for m in acceptance_models.values():
            assert np.allclose(reduced_R(m, np.zeros(m.shape.m)), 0.0, atol=1e-15)

    def test_kr2014_reduced(self, kr_model):
        v = -0.7
        assert reduced_R(kr_model, [v])[0] == pytest.approx(1 - v - math.sqrt(1 - v), abs=1e-13)

    def test_cir_reduced(self, feller_model):
        v = 0.3
        assert reduced_R(feller_model, [v])[0] == pytest.approx(v * v - v, abs=1e-15)

    def test_reduced_equals_I_components_at_uJ_zero(self, mixed_model):
        v = np.array([-0.4])
        full = eval_R(mixed_model, np.array([-0.4, 0.0, 0.0]))
        assert np.allclose(reduced_R(mixed_model, v), full[:1], atol=1e-15)


class TestRows:
    """(N, d) rows give the bits of N calls on the 1-d rows, or raise when one would."""

    @staticmethod
    def models(analytic_measures, acceptance_models, mixed_model):
        out = dict(acceptance_models, mixed=mixed_model)
        out["pair"] = AffineModel(
            shape=StateShape(2, 1), a=[[0, 0, 0], [0, 0, 0], [0, 0, 0.3]], b=[0.1, 0.2, -0.1],
            alpha=[0.3, 0.0], beta_I=[[-0.5, 0.2, 0.4], [0.1, -0.7, -0.3]], beta_JJ=[[-0.2]],
            mu0=GammaLevy(c=0.2, rho=1.5, axis=2),
            mus=(TemperedStableHalf(0.3, 0.8, axis=0), CompoundPoissonExp(0.5, 2.0, axis=1)))
        for name, mu in analytic_measures.items():
            out[name] = AffineModel(shape=StateShape(1, 0), a=[[0.0]], b=[0.5], alpha=[1.0],
                                    beta_I=[[-1.0]], mu0=mu, mus=(mu,))
        return out

    @staticmethod
    def one_by_one(fun, rows):
        try:
            return np.array([fun(row) for row in rows])
        except DomainError:
            return DomainError

    def test_rows_equal_the_one_row_calls(self, analytic_measures, acceptance_models,
                                          mixed_model):
        rng = np.random.default_rng(11)
        for name, model in self.models(analytic_measures, acceptance_models,
                                       mixed_model).items():
            d, m = model.shape.d, model.shape.m
            for _ in range(60):
                rows = rng.normal(size=(3, d)) * 10.0 ** rng.integers(-6, 1, size=(3, d))
                for u in (rows, rows + 1j * rng.normal(size=(3, d))):
                    calls = {"eval_R": lambda x: eval_R(model, x, check_domain=False),
                             "eval_F": lambda x: eval_F(model, x, check_domain=False)}
                    if u.dtype.kind != "c":
                        calls["reduced_R"] = lambda x: reduced_R(model, x[..., :m], check_domain=False)
                    for mu in (model.mu0, *model.mus):
                        if not mu.is_zero:  # the null measure's 0.0 broadcasts
                            calls[f"lk {mu!r}"] = mu.lk_integral
                    for call, fun in calls.items():
                        want = self.one_by_one(fun, u)
                        if want is DomainError:
                            with pytest.raises(DomainError):
                                fun(u)
                            continue
                        got = np.asarray(fun(u))
                        assert got.tobytes() == want.astype(got.dtype).tobytes(), (name, call)
                    assert in_domain_Y(model, u) == all(in_domain_Y(model, x) for x in u)

    def test_rows_outside_the_domain_raise(self, kr_model):
        rows = np.array([[0.5], [1.5], [-1.0]])
        assert not in_domain_Y(kr_model, rows)
        with pytest.raises(DomainError):
            eval_R(kr_model, rows)
        with pytest.raises(DomainError):
            kr_model.mus[0].lk_integral(rows)


class TestQuadratureAgreement:
    """Analytic Levy-Khintchine branches against adaptive quadrature."""

    def test_lk_integrals(self, analytic_measures):
        rng = np.random.default_rng(42)
        for name, mu in analytic_measures.items():
            hi = min(mu.exp_bound, 3.0)
            lo = -4.0
            for _ in range(100):
                u = np.array([rng.uniform(lo, hi - 0.05)])
                for compensated in (True, False):
                    exact = mu.lk_integral(u, compensated=compensated)
                    quad = lk_integral_quadrature(mu, u, compensated=compensated)
                    # an infinite oracle would make the tolerance infinite too
                    assert math.isfinite(quad), f"{name}: quadrature not finite at u={u[0]:.4f}"
                    scale = max(1.0, abs(quad))
                    assert abs(exact - quad) <= QUAD_AGREEMENT_RTOL * scale, \
                        f"{name}: lk mismatch at u={u[0]:.4f}"

    def test_exp_moments(self, analytic_measures):
        # the stated range against the tail moments themselves: finite up to
        # 0.05 below the bound, infinite 0.5 above it.  Not at the bound: at
        # an open bound the quadrature misses the slow divergence.
        for name, mu in analytic_measures.items():
            bound = mu.exp_bound
            for y in np.linspace(-4.0, min(bound, 3.0) - 0.05, 60):
                assert math.isfinite(exp_moment_quadrature(mu, np.array([y]))), (name, y)
            if math.isfinite(bound):
                assert exp_moment_quadrature(mu, np.array([bound + 0.5])) == math.inf, name

    def test_chi_integral_identity(self, analytic_measures):
        # CHI = mean_below(1) + tail_mass(1) must match direct quadrature
        from scipy.integrate import quad as _quad
        for name, mu in analytic_measures.items():
            if mu.atoms() is not None:
                continue
            direct = (_quad(lambda x: np.minimum(x, 1.0) * mu.density(x), 0, 1)[0]
                      + _quad(lambda x: mu.density(x), 1, np.inf)[0])
            assert mu.chi_integral() == pytest.approx(direct, rel=1e-9), name


class TestConvexity:
    def test_F_convex_along_rays(self, cir_jump_model, mixed_model):
        rng = np.random.default_rng(3)
        for model in (cir_jump_model, mixed_model):
            d = model.shape.d
            for _ in range(20):
                y = rng.normal(size=d)
                ts = np.linspace(-0.6, 0.6, 25)
                vals = []
                for t in ts:
                    u = t * y
                    if in_domain_Y(model, u):
                        vals.append(eval_F(model, u))
                    else:
                        vals.append(None)
                runs = [v for v in vals if v is not None]
                if len(runs) < 3:
                    continue
                second = np.diff(np.array(runs), 2)
                assert np.all(second >= -1e-8)


class TestImmutability:
    def test_arrays_are_frozen(self, feller_model):
        with pytest.raises(ValueError):
            feller_model.a[0, 0] = 1.0

    def test_exp_moment_at_zero_finite(self, analytic_measures):
        for name, mu in analytic_measures.items():
            assert mu.admits(0.0), name


class TestDerivedConstants:
    """Constants derived once per measure or model, and the warning contract
    of the public field evaluations."""

    def test_cached_chi_equals_fresh_computation(self, analytic_measures):
        for name, mu in analytic_measures.items():
            thetas = [-0.5] + ([0.5] if mu.exp_bound > 0.5 else [])
            for measure in [mu] + [mu.tilted(t) for t in thetas]:
                fresh = measure.mean_below(1.0) + measure.tail_mass(1.0)
                assert measure.chi_integral() == fresh, name
                assert measure.chi_integral() == fresh, name  # the kept value

    def test_exp_tilted_chi_quadratures_run_once(self, monkeypatch):
        import affine_riccati.model as model_module
        from affine_riccati.model import ExpTiltedMeasure, TemperedStableHalf

        mu = ExpTiltedMeasure(TemperedStableHalf(scale=0.3, tempering=1.2, axis=0), 0.4)
        model = AffineModel(shape=StateShape(1, 0), a=[[0.0]], b=[0.0], alpha=[0.0],
                            beta_I=[[-1.0]], mus=(mu,))
        calls = []
        quad = model_module._quad_interval
        monkeypatch.setattr(model_module, "_quad_interval",
                            lambda *args, **kw: calls.append(args[1:3]) or quad(*args, **kw))
        first = eval_R(model, [-0.5])
        n_first = len(calls)
        second = eval_R(model, [-0.5])
        n_second = len(calls) - n_first
        assert np.array_equal(first, second)
        # the second evaluation skips the two chi quadratures, mean_below(1)
        # on (0, 1) and tail_mass(1) on (1, oo), and keeps the others
        assert n_second > 0
        assert n_first - n_second == 2

    def test_compensation_flags(self, mixed_model, exp_jump_model):
        assert mixed_model.measure_compensated(0)
        pair = AffineModel(shape=StateShape(2, 0), a=np.zeros((2, 2)), b=[0.0, 0.0],
                           alpha=[0.0, 0.0], beta_I=np.zeros((2, 2)),
                           mus=(exp_jump_model.mus[0], exp_jump_model.mus[0]))
        # mu_2 sits on axis 0, in I \ {2}: its jumps enter uncompensated
        assert pair.measure_compensated(0) and not pair.measure_compensated(1)

    def test_direct_evaluations_raise_no_warnings(self, feller_model, mixed_model):
        import warnings

        from affine_riccati import SolveOptions, solve_riccati

        def check():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert eval_R(feller_model, [1e200])[0] == math.inf
                assert not np.isfinite(eval_R(feller_model, [1e200 + 1e200j])[0])
                assert reduced_R(feller_model, [1e200])[0] == math.inf
                assert eval_F(mixed_model, [0.0, 1e200, 1e200]) == math.inf

        check()
        # a solve silences warnings for its own evaluations only
        solve_riccati(feller_model, [0.5], SolveOptions(T=0.1))
        check()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning):
                np.array([1e200]) ** 2
