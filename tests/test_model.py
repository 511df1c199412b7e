"""Model parametrization: characteristics, domain, validation."""

import math
import warnings

import numpy as np
import pytest

from affine_riccati import (
    AffineModel,
    CompoundPoissonExp,
    CompoundPoissonPoint,
    ConfigError,
    DomainError,
    ExpTiltedMeasure,
    GammaLevy,
    LevyMeasure,
    SolverError,
    StateShape,
    TemperedStableHalf,
    ZeroJumps,
    check_conservative,
    eval_F,
    eval_R,
    in_domain_Y,
    reduced_R,
    validate_model,
)
from affine_riccati.model import _exp_weighted, _quad_interval, _quad_split, _rate_exp

QUAD_AGREEMENT_RTOL = 1e-8

# entries where a product's bits depend on how it is formed: signed zeros,
# infinities, nan, near-overflow magnitudes and the smallest subnormal
SPECIAL_ENTRIES = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 5e-324)


def lk_integral_quadrature(measure, u, compensated=True):
    """Adaptive quadrature of the defining Levy-Khintchine integrand at the
    d-vector u; independent of the analytic branch, the agreement oracle."""
    s = float(np.real(u[measure.axis]))
    at = measure.atoms()
    if at is not None:
        total = 0.0
        for loc, mass in at:
            comp = float(np.clip(loc, -1.0, 1.0)) * s if compensated else 0.0
            total += mass * (math.exp(s * loc) - 1.0 - comp)
        return total

    def integrand(x):
        comp = np.clip(x, -1.0, 1.0) * s if compensated else 0.0
        dens = measure.density(x)
        return _exp_weighted(s, x, dens) - (1.0 + comp) * dens

    return _quad_split(integrand)


def exp_moment_quadrature(measure, y):
    """Adaptive quadrature of the tail exponential moment at the d-vector y
    (oracle)."""
    s = float(np.real(y[measure.axis]))
    at = measure.atoms()
    if at is not None:
        return sum(_rate_exp(mass, s * loc) for loc, mass in at if abs(loc) >= 1.0)
    return _quad_interval(lambda x: _exp_weighted(s, x, measure.density(x)), 1.0, math.inf)


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

    @pytest.mark.parametrize("kwargs, messages", [
        ({"c": math.nan}, ["c must be finite"]),
        ({"b": [math.nan]}, ["b must be finite"]),
        ({"a": [[math.inf]]}, ["a must be finite", "a row 1 must vanish: constant diffusion "
                                                   "cannot load on the nonnegative block "
                                                   "(only alpha_i does)"]),
        ({"alpha": [math.nan], "beta_I": [[-math.inf]], "gamma": [math.nan]},
         ["alpha must be finite", "beta_I must be finite", "gamma must be finite"]),
        ({"shape": StateShape(0, 1), "a": [[0.5]], "b": [0.1], "alpha": None, "beta_I": None,
          "beta_JJ": [[math.nan]]},
         ["beta_JJ must be finite"]),
        ({"mus": (CompoundPoissonExp(rate=1.0, jump_rate=math.inf),)},
         ["mu_1: jump_rate must be finite"]),
        ({"mu0": CompoundPoissonExp(rate=math.nan, jump_rate=2.0)}, ["mu0: rate must be finite"]),
        ({"mus": (CompoundPoissonPoint(rate=0.4, size=math.nan),)},
         ["mu_1: size must be finite"]),
        ({"mus": (GammaLevy(c=math.nan, rho=2.0),)}, ["mu_1: c must be finite"]),
        ({"mus": (TemperedStableHalf(scale=math.nan, tempering=1.0),)},
         ["mu_1: scale must be finite"]),
        ({"mus": (ExpTiltedMeasure(TemperedStableHalf(scale=0.3, tempering=math.inf), 0.5),)},
         ["mu_1: tempering must be finite"]),
    ], ids=["c", "b", "a", "alpha-beta-gamma", "beta_JJ", "exp-inf", "exp-nan", "point",
            "gamma", "stable", "quadrature-tilt"])
    def test_non_finite_entries_flagged(self, kwargs, messages):
        # NaN passes every order test, so each entry and family parameter is
        # tested for finiteness; the base model is feller's, Conservative
        base = {"shape": StateShape(1, 0), "a": [[0.0]], "b": [0.5], "alpha": [0.5],
                "beta_I": [[-1.0]]}
        model = AffineModel(**{**base, **kwargs})
        assert list(validate_model(model)) == messages
        with pytest.raises(SolverError, match="fails validation"):
            check_conservative(model)

    @pytest.mark.parametrize("tilt", [
        lambda: ExpTiltedMeasure(TemperedStableHalf(0.3, math.nan), 0.0),
        lambda: CompoundPoissonExp(1.0, math.nan).tilted(0.5),
        lambda: GammaLevy(c=0.5, rho=math.nan).tilted(0.1),
    ], ids=["quadrature-tilt", "exp", "gamma"])
    def test_a_tilt_names_the_fault_of_its_base(self, tilt):
        # a NaN parameter admits no tilt; the fault is the base's, as
        # validate_model names it, not the tilt's
        with pytest.raises(ConfigError, match=r"fails validation: \w+ must be finite"):
            tilt()

    def test_a_tilt_outside_a_valid_range_is_a_domain_error(self):
        with pytest.raises(DomainError, match="tilt parameter outside the effective domain"):
            ExpTiltedMeasure(TemperedStableHalf(0.3, 1.0), 2.0)
        with pytest.raises(DomainError, match="tilt parameter outside the exponential range"):
            CompoundPoissonExp(1.0, 1.0).tilted(1.5)

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
        for y in (1.0, [1.0]):  # a 0-d y of a d = 1 model is a point
            assert in_domain_Y(kr_model, y)
        for y in (1.0 + 1e-9, [1.0 + 1e-9]):
            assert not in_domain_Y(kr_model, y)

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

    def test_a_point_of_the_wrong_length_is_a_config_error(self, kr_model, mixed_model):
        # kr2014 has d = 1 and mixed d = 3: none of these is a point or rows of points
        wrong = [[0.5, 2.0], [], [[0.5, 5.0]], [[[0.5]]], np.zeros((2, 1, 1))]
        for model, y in [(kr_model, y) for y in wrong] + [(mixed_model, 0.0)]:
            with pytest.raises(ConfigError):
                in_domain_Y(model, y)
            with pytest.raises(ConfigError):
                model.domain.contains(y)

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
    """reduced_R on real (N, m) rows gives the bits of N point calls, or
    raises when one would."""

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

    @staticmethod
    def outcome(fun, v):
        """The bits and dtype of fun(v) as an array, or the class of what it
        raised.  A NaN reads as one NaN: the sign a sum of two NaNs keeps
        differs between numpy's array and scalar additions."""
        try:
            got = np.asarray(fun(v))
        except Exception as exc:  # noqa: BLE001 - the class is the outcome
            return type(exc)
        got = got.copy()
        got[np.isnan(got)] = math.nan
        return got.tobytes(), got.dtype

    @staticmethod
    def reduced(model):
        return lambda v: reduced_R(model, v, check_domain=False)

    def test_rows_equal_the_one_row_calls(self, analytic_measures, acceptance_models,
                                          mixed_model):
        models = self.models(analytic_measures, acceptance_models, mixed_model)
        rng = np.random.default_rng(11)
        for name, model in models.items():
            m, d = model.shape.m, model.shape.d
            fun = self.reduced(model)
            for _ in range(60):
                rows = rng.normal(size=(3, d)) * 10.0 ** rng.integers(-6, 1, size=(3, d))
                v = rows[:, :m]
                want = self.one_by_one(fun, v)
                if want is DomainError:
                    with pytest.raises(DomainError):
                        fun(v)
                else:
                    got = fun(v)
                    assert got.dtype == float and got.tobytes() == want.tobytes(), name
                for u in (rows, rows + 1j * rng.normal(size=(3, d))):
                    assert in_domain_Y(model, u) == all(in_domain_Y(model, x) for x in u)
        # Special entries, one row at a time: a point call forms each product
        # of one term (every product of a d = 1 model) on numpy scalars, the
        # rows call keeps the BLAS call.  Coefficients of -0.0, where the
        # sign of a one-term product could reach the value through beta_I,
        # with a jump measure and with the null one, whose 0.0 only the point
        # call adds.
        gamma = GammaLevy(c=1.0, rho=1.0, axis=0)
        for mu in (gamma, ZeroJumps()):
            models[f"signed-zero-{mu!r}"] = AffineModel(
                shape=StateShape(1, 0), a=[[0.0]], b=[0.0], alpha=[-0.0], beta_I=[[-0.0]],
                mus=(mu,))
        # numpy's array square and the scalar pow() of the point path round
        # 17568.246052500064 ** 2 differently (on AVX-512 x86-64, numpy 2.4)
        for name, model in models.items():
            fun = self.reduced(model)
            for value in (*SPECIAL_ENTRIES, 17568.246052500064):
                v = np.full((1, model.shape.m), value)
                point = self.outcome(lambda x: np.array([fun(x[0])]), v)
                assert self.outcome(fun, v) == point, (name, value)

    def test_rows_outside_the_domain_raise(self, kr_model):
        rows = np.array([[0.5], [1.5], [-1.0]])
        assert not in_domain_Y(kr_model, rows)
        with pytest.raises(DomainError):
            reduced_R(kr_model, rows)
        with pytest.raises(DomainError):
            reduced_R(kr_model, rows, check_domain=False)


class TestShapeChecks:
    """eval_R and eval_F take a 1-d row, reduced_R a 1-d row or real (N, m)
    rows, and each reads a 0-d u of a d = 1 model as a row; any other shape
    is a ConfigError, also without the domain check."""

    @staticmethod
    def calls(model):
        return {"eval_R": lambda x, check: eval_R(model, x, check_domain=check),
                "eval_F": lambda x, check: eval_F(model, x, check_domain=check),
                "reduced_R": lambda x, check: reduced_R(model, x, check_domain=check)}

    @pytest.mark.parametrize("check", [True, False])
    @pytest.mark.parametrize("u", [[-1.0, 2.0], [[-1.0, 2.0]], [[[-1.0]]], np.zeros((2, 1, 1))])
    def test_wrong_shapes_are_config_errors(self, feller_model, u, check):
        for call, fun in self.calls(feller_model).items():
            with pytest.raises(ConfigError):
                fun(u, check)

    @pytest.mark.parametrize("check", [True, False])
    def test_stacks_of_points_are_config_errors(self, acceptance_models, mixed_model,
                                                 kr2014_pair_model, check):
        models = dict(acceptance_models, mixed=mixed_model, pair=kr2014_pair_model)
        for model in models.values():
            d = model.shape.d
            for u in (np.full((2, d), -0.1), np.full((1, d), -0.1 + 0.5j)):
                for call in ("eval_R", "eval_F"):
                    with pytest.raises(ConfigError):
                        self.calls(model)[call](u, check)
                for mu in (model.mu0, *model.mus):
                    if not mu.is_zero:
                        for compensated in (True, False):
                            with pytest.raises(ConfigError):
                                mu.lk_integral(u, compensated)

    @pytest.mark.parametrize("check", [True, False])
    def test_zero_d_input_needs_one_coordinate(self, mixed_model, kr2014_pair_model, check):
        for call, fun in self.calls(mixed_model).items():
            if call != "reduced_R":  # m = 1: a 0-d v is its row
                with pytest.raises(ConfigError):
                    fun(-0.5, check)
        for fun in self.calls(kr2014_pair_model).values():
            with pytest.raises(ConfigError):
                fun(-0.5, check)

    def test_zero_d_input_is_a_row(self, acceptance_models):
        for name, model in acceptance_models.items():
            for call, fun in self.calls(model).items():
                for value in (-0.5, np.float64(-0.5), np.array(-0.5)):
                    got, want = fun(value, True), fun([-0.5], True)
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (name, call)
                    assert type(got) is type(want), (name, call)

    @pytest.mark.parametrize("v", [[1j], np.array([-0.5 + 0j]), np.array([[0.1j]]), 1j])
    def test_complex_reduced_argument_is_a_config_error(self, kr_model, v):
        with pytest.raises(ConfigError, match="real"):
            reduced_R(kr_model, v, check_domain=False)


class TestPointForms:
    """The bound point form of each measure, which the model's point
    closures call: on an admitted point it has the bits of the scalar
    primitives, _mgf_integral(s) - s * CHI (or _mgf_integral(s) when
    uncompensated), and it raises DomainError where lk_integral refuses
    the point."""

    @staticmethod
    def measures(analytic_measures):
        out = dict(analytic_measures)
        for name, mu in analytic_measures.items():
            for theta in (-0.5, 0.25, 1.2):
                if mu.admits(theta):
                    out[f"{name} tilted {theta}"] = mu.tilted(theta)
        out["quadrature-tilt"] = ExpTiltedMeasure(TemperedStableHalf(0.3, 1.2, axis=0), 0.4)
        # the form reads its own coordinate of a longer row
        out["exp on axis 1"] = CompoundPoissonExp(rate=0.7, jump_rate=1.5, axis=1)
        return out

    @staticmethod
    def outcome(fun, s):
        """The type and bits of fun(s), or the class of what it raised."""
        try:
            with np.errstate(all="ignore"), warnings.catch_warnings():
                warnings.simplefilter("error")  # the quadrature tilt's complex cast
                got = fun(s)
        except Exception as exc:  # noqa: BLE001 - the class is the outcome
            return type(exc)
        return type(got), np.asarray(got).tobytes()

    @staticmethod
    def row(mu, s):
        """A row whose axis coordinate is s, the others 0.7."""
        u = np.full(mu.axis + 1, 0.7, dtype=np.asarray(s).dtype)
        u[mu.axis] = s
        return u

    @staticmethod
    def points(mu, rng, complex_kind, count):
        """Admitted axis values of the kind: near the bound and far below
        it, +-0.0, and the bound itself where it is closed."""
        top = min(mu.exp_bound, 3.0)
        below = rng.exponential(size=count) * 10.0 ** rng.integers(-6, 1, count)
        reals = [0.0, -0.0, *(top - below)]
        if mu.bound_closed and math.isfinite(mu.exp_bound):
            reals.append(mu.exp_bound)
        if not complex_kind:
            return [np.float64(x) for x in reals]
        return [np.complex128(complex(x, y)) for x in reals
                for y in (0.0, -0.0, rng.normal() * 10.0 ** rng.integers(-3, 2))]

    @pytest.mark.parametrize("complex_kind", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("compensated", [True, False])
    def test_point_form_has_the_bits_of_the_primitives(self, analytic_measures, compensated,
                                                         complex_kind):
        rng = np.random.default_rng(5)
        for name, mu in self.measures(analytic_measures).items():
            form = mu._point_form(compensated, complex_kind)
            count = 1 if isinstance(mu, ExpTiltedMeasure) else 40

            def primitive(s, mu=mu):
                val = mu._mgf_integral(s)
                return val - s * mu.chi_integral() if compensated else val

            for s in self.points(mu, rng, complex_kind, count):
                want = self.outcome(primitive, s)
                assert self.outcome(lambda s: form(self.row(mu, s)), s) == want, (name, s)
                # lk_integral is the same form
                assert self.outcome(lambda s: mu.lk_integral(self.row(mu, s), compensated),
                                    s) == want, (name, s)

    @pytest.mark.parametrize("complex_kind", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("compensated", [True, False])
    def test_point_form_refuses_what_lk_integral_refuses(self, analytic_measures, compensated,
                                                          complex_kind):
        for name, mu in self.measures(analytic_measures).items():
            form = mu._point_form(compensated, complex_kind)
            refused = [math.nan]
            if math.isfinite(mu.exp_bound):
                refused.append(float(np.nextafter(mu.exp_bound, math.inf)))
            for x in refused:
                s = complex(x, 0.5) if complex_kind else x
                with pytest.raises(DomainError):
                    form(self.row(mu, s))
        if not complex_kind:
            # e^{500 * 1.5} overflows a float inside the range
            mu = CompoundPoissonPoint(rate=0.4, size=1.5, axis=0)
            with np.errstate(over="ignore"), pytest.raises(DomainError, match="not finite"):
                mu._point_form(compensated, False)(np.array([500.0]))

    @pytest.mark.parametrize("compensated", [True, False])
    def test_complex_overflow_is_a_domain_error(self, compensated):
        # e^{750 + 0j} is inf+nanj and e^{750 + 1j} is inf+infj: either
        # non-finite part refuses the point, as the real point 500 is refused
        mu = CompoundPoissonPoint(rate=0.4, size=1.5, axis=0)
        form = mu._point_form(compensated, True)
        for s in (500 + 0j, 500 - 0j, 500 + 1j, 500 - 2j):
            u = np.array([s])
            with np.errstate(all="ignore"):
                with pytest.raises(DomainError, match="not finite"):
                    form(u)
                with pytest.raises(DomainError, match="not finite"):
                    mu.lk_integral(u, compensated)

    @pytest.mark.parametrize("compensated", [True, False])
    def test_quadrature_tilt_keeps_the_imaginary_part(self, compensated):
        # the closed-form tilt of the same measure is the reference; no
        # ComplexWarning may be raised on the way.  The real parts stay 0.05
        # below the bound 0.8, as in TestQuadratureAgreement
        base = TemperedStableHalf(0.3, 1.2, axis=0)
        quad, closed = ExpTiltedMeasure(base, 0.4), base.tilted(0.4)
        for s in (-0.5 + 1j, 0.3 - 2j, -3.0 + 0.5j, 0.7 + 0j, 0.75 + 4j, -1.0 + 10j):
            u = np.array([s])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = quad.lk_integral(u, compensated)
            want = closed.lk_integral(u, compensated)
            assert isinstance(got, complex)
            assert abs(got - want) <= QUAD_AGREEMENT_RTOL * max(1.0, abs(want)), s

    def test_a_point_too_short_for_the_axis_is_a_config_error(self):
        mu = CompoundPoissonExp(1.0, 2.0, axis=2)
        for u in ([0.1], 0.1, np.array([0.1, 0.2])):
            for call in (mu.lk_integral, mu.lk_derivative):
                with pytest.raises(ConfigError):
                    call(u)
        # a measure does not know d: a longer row is read at its axis
        assert mu.lk_integral([0.0, 0.0, 0.1]) == mu.lk_integral([0.0, 0.0, 0.1, 0.9])


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

    def test_evaluated_models_pickle(self, acceptance_models, mixed_model):
        import pickle

        for name, model in dict(acceptance_models, mixed=mixed_model).items():
            u = np.full(model.shape.d, -0.3 + 0.2j)
            want = eval_R(model, u), eval_F(model, u), eval_R(model, u.real)
            copy = pickle.loads(pickle.dumps(model))
            got = eval_R(copy, u), eval_F(copy, u), eval_R(copy, u.real)
            assert [np.asarray(x).tobytes() for x in got] == \
                [np.asarray(x).tobytes() for x in want], name
        # an evaluated measure keeps its point forms, which do not pickle
        mu = mixed_model.mus[0]
        assert "_point_forms" in mu.__dict__
        copy = pickle.loads(pickle.dumps(mu))
        assert "_point_forms" not in copy.__dict__ and "_chi" in copy.__dict__
        u = np.array([-0.3])
        assert copy.lk_integral(u) == mu.lk_integral(u)

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
