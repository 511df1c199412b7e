"""Riccati solvers against closed-form oracles and flow invariants."""

import hashlib
import io
import math

import numpy as np
import pytest
from scipy.linalg import expm

from affine_riccati import (
    AffineModel,
    CompoundPoissonExp,
    CompoundPoissonPoint,
    ConfigError,
    DomainError,
    GammaLevy,
    SolveOptions,
    SolveStatus,
    StateShape,
    blowup_time,
    check_conservative,
    cir_jump,
    eval_F,
    eval_R,
    kr2014,
    reduced_R,
    solve_minimal,
    solve_reduced,
    solve_riccati,
    solve_tilted,
    tilt_model,
)
from affine_riccati import riccati
from affine_riccati.model import quiet_fp
from affine_riccati.riccati import _LADDER, _eps_ladder, _full_system, _integrate

# Closed forms used as oracles below.  Both are verified symbolically in
# TestOracleValidity before anything is asserted against them.


def cir_psi(t, u):
    """Logistic solution of psi' = psi^2 - psi, psi(0) = u."""
    e = np.exp(-t)
    return u * e / (1.0 - u * (1.0 - e))


def kr_psi(t, u):
    """Solution of psi' = 1 - psi - sqrt(1 - psi), psi(0) = u (u <= 1)."""
    return 1.0 - ((1.0 - np.sqrt(1.0 - u)) * np.exp(-t / 2.0) - 1.0) ** 2


class TestOracleValidity:
    """Symbolic differentiation oracle: the closed forms solve their ODEs."""

    def test_cir_closed_form_solves_ode(self):
        import sympy as sp
        t, u = sp.symbols("t u")
        psi = u * sp.exp(-t) / (1 - u * (1 - sp.exp(-t)))
        residual = sp.simplify(sp.diff(psi, t) - (psi ** 2 - psi))
        assert residual == 0
        assert sp.simplify(psi.subs(t, 0) - u) == 0

    def test_kr_closed_form_solves_ode(self):
        import sympy as sp
        t, u = sp.symbols("t u", positive=False)
        w = (1 - sp.sqrt(1 - u)) * sp.exp(-t / 2)
        psi = 1 - (w - 1) ** 2
        # on u < 1 the square root evaluates to 1 - w
        residual = sp.simplify(sp.diff(psi, t) - (1 - psi - (1 - w)))
        assert residual == 0
        assert sp.simplify(psi.subs(t, 0) - u) == 0

    def test_kr_fixed_step_rk4_oracle(self):
        # independent high-order fixed-step integration of the scalar field
        def field(v):
            return 1.0 - v - math.sqrt(1.0 - v)

        for u0 in (-2.0, -0.5, 0.9):
            h = 1e-4
            v = u0
            t = 0.0
            for _ in range(int(2.0 / h)):
                k1 = field(v)
                k2 = field(v + 0.5 * h * k1)
                k3 = field(v + 0.5 * h * k2)
                k4 = field(v + h * k3)
                v += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
                t += h
            assert v == pytest.approx(kr_psi(2.0, u0), abs=1e-10)


class TestStepper:
    def test_stage_combination_is_the_term_by_term_sum(self):
        # the generated step must give the bits of Python sums over the
        # stages, for real and complex states of dimension 1 to 3: the row of
        # stage s is y + h * sum_j a_sj k_j, formed entry by entry with the
        # sum term by term from zero in the order of the tableau, weights of
        # 0.0 included; the error norm sums the squares of h * e / scale,
        # with e the error weights' sum and the magnitudes abs() on a float
        # and math.hypot of the parts on a complex number
        from affine_riccati.riccati import _A, _E, _stepper

        def magnitude(x):
            return math.hypot(x.real, x.imag)

        rng = np.random.default_rng(5)
        specials = np.array([0.0, -0.0, 1e-300, 1e300, -1e300, 5e-324])
        for _ in range(400):
            dim = int(rng.integers(1, 4))
            parts = [rng.normal(size=(8, dim)) * 10.0 ** rng.integers(-20, 20, size=(8, dim))
                     for _ in range(2)]
            for part in parts:
                mask = rng.random(part.shape) < 0.2
                part[mask] = rng.choice(specials, size=int(mask.sum()))
            h = float(rng.uniform(1e-6, 0.2))
            atol, rtol = (10.0 ** rng.uniform(-15, -6, size=2)).tolist()
            for z in (parts[0], parts[0] + 1j * parts[1]):
                y, k = z[7], z[:7]
                rows = []

                def field(row):
                    rows.append(row)
                    return k[len(rows)]

                step = _stepper(dim, z.dtype.kind)
                new, k6, sq, abs_y, abs_f = step(field, y.tolist(), k[0].tolist(), h, atol, rtol)
                assert len(rows) == 6
                for row, w in zip(rows, _A):
                    ref = sum(wj * kj for wj, kj in zip(w, k))
                    ref = np.array([yc + h * a for yc, a in zip(y.tolist(), ref.tolist())])
                    assert row.dtype == z.dtype and row.tobytes() == ref.tobytes()
                assert np.array(new).tobytes() == rows[-1].tobytes() and k6 == k[6].tolist()
                errors = sum(wj * kj for wj, kj in zip(_E, k)).tolist()
                want = 0.0
                for yc, zc, ec in zip(y.tolist(), new, errors):
                    a, b = magnitude(yc), magnitude(zc)
                    q = h * ec / (atol + rtol * (a if a >= b or a != a else b))
                    want += q.real * q.real + q.imag * q.imag
                assert np.float64(sq).tobytes() == np.float64(want).tobytes()
                assert abs_y == list(map(magnitude, new))
                assert abs_f == list(map(magnitude, k6))

    def test_a_rejected_stage_ends_the_step(self):
        # a stage whose value is not finite, or where the field raises one
        # of the stage-rejecting errors, ends the step there
        from affine_riccati.riccati import _stepper

        for bad in (math.nan, math.inf, DomainError("outside")):
            calls = []

            def field(row):
                calls.append(row)
                if len(calls) == 3:
                    if isinstance(bad, Exception):
                        raise bad
                    return [bad, 0.0]
                return [-row[0], 0.5]

            assert _stepper(2, "f")(field, [1.0, 0.0], [-1.0, 0.5], 0.1, 1e-12, 1e-9) is None
            assert len(calls) == 3

    def test_quiet_flag_is_per_thread(self):
        import threading

        from affine_riccati.model import _FP_QUIET, quiet_fp

        seen = []
        with quiet_fp():
            worker = threading.Thread(target=lambda: seen.append(_FP_QUIET.get()))
            worker.start()
            worker.join(timeout=10)
            inside = _FP_QUIET.get()
        assert not worker.is_alive()
        assert seen == [False] and inside and not _FP_QUIET.get()


class TestSolveRiccati:
    def test_pure_levy_constant_psi_linear_phi(self):
        model = AffineModel(shape=StateShape(1, 0), a=[[0.0]], b=[0.25],
                            mu0=CompoundPoissonExp(rate=0.5, jump_rate=2.0, axis=0))
        u0 = -0.8
        sol = solve_riccati(model, [u0], SolveOptions(T=3.0))
        assert sol.status.kind == "equilibrium"
        ts = np.linspace(0, 3, 13)
        assert np.allclose(sol.eval(ts)[:, 0], u0, atol=1e-12)
        F = eval_F(model, [u0])
        assert np.allclose(sol.eval_phi(ts), ts * F, atol=1e-10)

    @pytest.mark.parametrize("u0", [-2.0, -1.0, -0.25, 0.5, 0.9])
    def test_cir_logistic(self, feller_model, u0):
        sol = solve_riccati(feller_model, [u0], SolveOptions(T=2.0))
        assert sol.status.reached_horizon
        ts = np.linspace(0, 2, 41)
        assert np.max(np.abs(sol.eval(ts)[:, 0] - cir_psi(ts, u0))) < 1e-6

    def test_cir_phi_closed_form(self, feller_model):
        u0, T = -1.5, 2.0
        sol = solve_riccati(feller_model, [u0], SolveOptions(T=T))
        phi_exact = -0.5 * math.log(1 - u0 * (1 - math.exp(-T)))
        assert sol.phi_end == pytest.approx(phi_exact, abs=1e-9)

    @pytest.mark.parametrize("u0", [-2.0, -1.0, 0.0, 0.5, 0.99])
    def test_kr2014_closed_form(self, kr_model, u0):
        sol = solve_riccati(kr_model, [u0], SolveOptions(T=5.0))
        assert sol.status.reached_horizon
        ts = np.linspace(0, 5, 50)
        assert np.max(np.abs(sol.eval(ts)[:, 0] - kr_psi(ts, u0))) < 1e-6

    @pytest.mark.parametrize("T", [1.05e-13, 1.09e-13, 1.5e-13, 6.5e-13, 1e-12, 3e-12, 5e-12,
                                   1e-11])
    def test_tiny_horizons_complete(self, feller_model, T):
        # the first step starts no shorter than the step floor, and a last
        # step cut to the horizon may be shorter: neither is a step collapse;
        # the solve ends at T, within a slack relative to T
        u0 = 0.5
        sol = solve_riccati(feller_model, [u0], SolveOptions(T=T))
        assert sol.status.kind == "completed"
        assert len(sol.ts) > 1 and sol.t_end >= T * (1 - 1e-14)
        assert sol.psi_end[0] == pytest.approx(cir_psi(sol.t_end, u0), abs=1e-15)
        phi = -0.5 * math.log1p(u0 * math.expm1(-sol.t_end))
        assert sol.phi_end == pytest.approx(phi, rel=1e-9)

    def test_kr2014_boundary_equilibrium(self, kr_model):
        sol = solve_riccati(kr_model, [1.0], SolveOptions(T=3.0))
        assert sol.status.kind == "equilibrium"
        assert np.allclose(sol.psi[:, 0], 1.0, atol=1e-12)

    def test_equilibrium_time_is_where_it_began(self, feller_model):
        # R(1) = 0 exactly: the equilibrium holds from the start, though it
        # is detected ten accepted steps later
        sol = solve_riccati(feller_model, [1.0], SolveOptions(T=2.0))
        assert sol.status.kind == "equilibrium"
        assert sol.status.t_event == 0.0
        assert sol.status.label() == "Equilibrium t_eq≈0"
        assert sol.ts[-2] > 0.5
        # from u = -0.5 the rate decays below atol mid-run: the time is the
        # first point of the final run of points below it
        sol = solve_riccati(feller_model, [-0.5], SolveOptions(T=60.0))
        below = np.abs(sol.dpsi[:-1, 0]) < SolveOptions(T=60.0).atol
        first = len(below) - int(np.argmin(below[::-1]))
        assert 0 < first < len(below) - 1
        assert sol.status.t_event == sol.ts[first]

    def test_initial_condition_and_phi_zero(self, cir_jump_model):
        sol = solve_riccati(cir_jump_model, [-0.4], SolveOptions(T=1.0))
        assert sol.psi[0, 0] == -0.4
        assert sol.phi[0] == 0.0
        assert np.all(np.diff(sol.ts) > 0)

    def test_outside_domain_raises(self, kr_model):
        with pytest.raises(DomainError):
            solve_riccati(kr_model, [1.5], SolveOptions(T=1.0))

    @pytest.mark.parametrize("t", [-0.1, 1.5, [0.5, 1.5], math.nan, [0.5, math.nan]])
    def test_eval_outside_the_trajectory_is_a_config_error(self, feller_model, t):
        sol = solve_riccati(feller_model, [0.5], SolveOptions(T=1.0))
        with pytest.raises(ConfigError, match="outside the computed trajectory"):
            sol.eval(t)
        with pytest.raises(ConfigError, match="outside the computed trajectory"):
            sol.eval_phi(t)

    def test_complex_mode_tracks_closed_form(self, kr_model):
        u0 = 0.4j
        sol = solve_riccati(kr_model, np.array([u0]), SolveOptions(T=1.0))
        w0 = np.sqrt(1 - u0)
        exact = 1 - ((1 - w0) * np.exp(-0.5) - 1) ** 2
        assert abs(sol.psi_end[0] - exact) < 1e-9

    def test_complex_phi_end_keeps_imaginary_part(self, feller_model):
        u0 = 3j
        sol = solve_riccati(feller_model, np.array([u0]), SolveOptions(T=1.0))
        phi = sol.phi_end
        assert isinstance(phi, complex)
        exact = -0.5 * np.log(1 - u0 * (1 - math.exp(-1.0)))  # -0.3813+0.5428j
        assert abs(phi - exact) < 1e-9
        assert isinstance(solve_riccati(feller_model, [-1.0], SolveOptions(T=1.0)).phi_end,
                          float)


class TestPsiJFlow:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_solver_J_block_matches_matrix_exponential(self, seed):
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(3, 3))
        B *= 2.0 / max(np.max(np.abs(np.linalg.eigvals(B))), 2.0)  # spectral radius <= 2
        m = AffineModel(shape=StateShape(0, 3), a=np.zeros((3, 3)), b=np.zeros(3), beta_JJ=B)
        uJ = rng.normal(size=3)
        T = 1.5
        sol = solve_riccati(m, uJ, SolveOptions(T=T, rtol=1e-11, atol=1e-13))
        assert np.max(np.abs(sol.psi_end - expm(B.T * T) @ uJ)) < 1e-8


class TestSolveReduced:
    def test_origin_is_equilibrium(self, feller_model):
        sol = solve_reduced(feller_model, [0.0], SolveOptions(T=2.0))
        assert sol.status.kind == "equilibrium"
        assert np.allclose(sol.psi, 0.0)
        assert sol.phi is None

    def test_eval_phi_without_phi_is_a_config_error(self, feller_model):
        sol = solve_reduced(feller_model, [0.5], SolveOptions(T=1.0))
        with pytest.raises(ConfigError, match="no phi component"):
            sol.eval_phi(0.5)

    def test_kr2014_from_minus_one(self, kr_model):
        sol = solve_reduced(kr_model, [-1.0], SolveOptions(T=4.0))
        ts = np.linspace(0, 4, 33)
        exact = 1.0 - ((1 - math.sqrt(2.0)) * np.exp(-ts / 2) - 1) ** 2
        assert np.max(np.abs(sol.eval(ts)[:, 0] - exact)) < 1e-7

    def test_cir_logistic(self, feller_model):
        sol = solve_reduced(feller_model, [0.5], SolveOptions(T=2.0))
        ts = np.linspace(0, 2, 21)
        assert np.max(np.abs(sol.eval(ts)[:, 0] - cir_psi(ts, 0.5))) < 1e-7


class TestBlowup:
    def test_cir_explosion_time(self, feller_model):
        t_star = blowup_time(feller_model, [2.0], 2.0)
        assert t_star is not None
        assert t_star == pytest.approx(math.log(2.0), rel=1e-3)

    def test_negative_initial_data_no_blowup(self, feller_model):
        assert blowup_time(feller_model, [-1.0], 5.0) is None

    def test_bounded_branch_no_blowup(self, feller_model):
        assert blowup_time(feller_model, [0.5], 10.0) is None

    def test_estimate_monotone_in_threshold(self, feller_model):
        # refining the threshold sharpens the estimate from above
        estimates = []
        for thr in (1e6, 1e8, 1e10):
            opts = SolveOptions(T=2.0, blowup_threshold=thr)
            estimates.append(blowup_time(feller_model, [2.0], 2.0, opts))
        assert all(e is not None for e in estimates)
        assert estimates[0] + 1e-9 >= estimates[1] >= estimates[2] - 1e-12
        assert estimates[-1] == pytest.approx(math.log(2.0), rel=1e-4)


class TestDomainExit:
    def test_left_domain_at_open_boundary(self):
        # OU-type coordinate growing toward the gamma measure's open boundary
        # at 1: psi(t) = u e^{t/2} hits it at t = 2 log(1/u), where F diverges
        from affine_riccati import GammaLevy
        m = AffineModel(shape=StateShape(0, 1), a=[[0.0]], b=[0.0], beta_JJ=[[0.5]],
                        mu0=GammaLevy(c=1.0, rho=1.0, axis=0))
        sol = solve_riccati(m, [0.5], SolveOptions(T=3.0))
        assert sol.status.kind == "left_domain"
        assert sol.status.t_event == pytest.approx(2 * math.log(2.0), rel=1e-6)
        assert sol.psi_end[0] <= 1.0
        assert sol.status.label().startswith("LeftDomain")

    def test_label_reads_an_early_event_time(self):
        assert SolveStatus(SolveStatus.LEFT_DOMAIN, 3e-12).label() == "LeftDomain t_exit≈3e-12"
        assert SolveStatus(SolveStatus.BLOWUP, math.log(2.0)).label() == "BlowUp t*≈0.693147"


class TestSolveOptions:
    @pytest.mark.parametrize("name", ["T", "rtol", "atol", "max_step", "blowup_threshold"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_setting_is_a_config_error(self, name, value):
        with pytest.raises(ConfigError, match=f"SolveOptions.{name} must be finite"):
            SolveOptions(**{"T": 1.0, name: value})

    def test_nan_horizon_makes_no_trajectory(self, feller_model):
        with pytest.raises(ConfigError):
            solve_riccati(feller_model, [0.5], SolveOptions(T=math.nan))

    def test_max_step_must_exceed_the_step_floor(self):
        for opts in ({"T": 1e-14}, {"T": 1.0, "max_step": 1e-13}):
            with pytest.raises(ConfigError):
                SolveOptions(**opts)
        assert SolveOptions(T=1.0, max_step=2e-13).effective_max_step == 2e-13


class TestSolveTilted:
    def test_constant_solution_at_matched_discounts(self, feller_model):
        theta = np.array([0.5])
        l = eval_F(feller_model, theta)
        from affine_riccati import eval_R
        lam = eval_R(feller_model, theta)
        sol = solve_tilted(feller_model, l, lam, theta, SolveOptions(T=2.0))
        assert sol.status.kind == "equilibrium"
        assert np.allclose(sol.psi[:, 0], 0.5, atol=1e-12)
        assert np.allclose(sol.phi, 0.0, atol=1e-12)

    def test_zero_tilt_matches_plain_solver(self, cir_jump_model):
        u0 = [-0.6]
        a = solve_tilted(cir_jump_model, 0.0, [0.0], u0, SolveOptions(T=1.5))
        b = solve_riccati(cir_jump_model, u0, SolveOptions(T=1.5))
        ts = np.linspace(0, 1.5, 11)
        assert np.allclose(a.eval(ts), b.eval(ts), atol=1e-12)
        assert np.allclose(a.eval_phi(ts), b.eval_phi(ts), atol=1e-12)

    def test_kr2014_near_boundary_tracks_escaping_branch(self, kr_model):
        sol = solve_riccati(kr_model, [1.0 - 1e-9], SolveOptions(T=3.0))
        ts = np.linspace(0.5, 3.0, 11)  # after the square-root transient
        exact = 1.0 - (np.exp(-ts / 2) - 1) ** 2
        assert np.max(np.abs(sol.eval(ts)[:, 0] - exact)) < 2e-4


class TestRealInputs:
    """Starts must be finite, and the start of a minimal solve and the
    discounts l and lambda real, finite and of the model's size; anything
    else is a ConfigError, not a TypeError, a ValueError or a DomainError
    about the domain or the vector field."""

    @pytest.mark.parametrize("u0", [[math.nan], [math.inf], [complex(math.nan, 1.0)]])
    def test_non_finite_start(self, feller_model, u0):
        with pytest.raises(ConfigError, match="u0 must be finite"):
            solve_riccati(feller_model, u0, SolveOptions(T=1.0))
        with pytest.raises(ConfigError, match="g0 must be finite"):
            solve_reduced(feller_model, u0, SolveOptions(T=1.0))

    def test_reduced_solve_without_an_i_block(self):
        # m = 0: the reduced system is empty, and its error norm would
        # divide by the state size
        model = AffineModel(shape=StateShape(0, 1), a=[[0.5]], b=[0.1], beta_JJ=[[-1.0]])
        with pytest.raises(ConfigError, match="m = 0"):
            solve_reduced(model, [], SolveOptions(T=1.0))

    @pytest.mark.parametrize("u0", [[0.5j], [math.nan], [-math.inf]])
    def test_minimal_start(self, kr_model, u0):
        with pytest.raises(ConfigError, match="u0 must be"):
            solve_minimal(kr_model, u0, SolveOptions(T=1.0))

    @pytest.mark.parametrize("l, lam, match", [(0.5j, [-1.0], "l must be real"),
                                               (math.nan, [-1.0], "l must be finite"),
                                               (0.0, [1j], "lam must be real"),
                                               (0.0, [math.inf], "lam must be finite"),
                                               (0.0, [1.0, 2.0], "lam must have length 1")])
    def test_discounts(self, feller_model, l, lam, match):
        opts = SolveOptions(T=1.0)
        with pytest.raises(ConfigError, match=match):
            solve_tilted(feller_model, l, lam, [-1.0], opts)
        with pytest.raises(ConfigError, match=match):
            solve_minimal(feller_model, [-1.0], opts, l=l, lam=lam)


class TestFlowInvariants:
    def test_tolerance_consistency(self, acceptance_models):
        for name, model in acceptance_models.items():
            u0 = np.full(model.shape.d, -0.5)
            coarse = solve_riccati(model, u0, SolveOptions(T=2.0, rtol=1e-6, atol=1e-9))
            fine = solve_riccati(model, u0, SolveOptions(T=2.0, rtol=5e-7, atol=5e-10))
            gap = np.max(np.abs(coarse.psi_end - fine.psi_end))
            assert gap < 10 * 1e-6, name

    def test_semigroup_property(self, acceptance_models):
        s, t = 0.75, 1.0
        for name, model in acceptance_models.items():
            u0 = np.full(model.shape.d, -0.8)
            first = solve_riccati(model, u0, SolveOptions(T=s))
            second = solve_riccati(model, first.psi_end.real, SolveOptions(T=t))
            direct = solve_riccati(model, u0, SolveOptions(T=s + t))
            gap = np.max(np.abs(second.psi_end - direct.psi_end))
            assert gap < 5e-9, name

    def test_monotone_in_initial_data_on_I_block(self, acceptance_models):
        ts = np.linspace(0, 1.5, 16)
        for name, model in acceptance_models.items():
            m = model.shape.m
            pairs = [(-1.0, -0.5), (-0.5, 0.0), (-2.0, 0.3)]
            for lo, hi in pairs:
                u = np.zeros(model.shape.d)
                v = np.zeros(model.shape.d)
                u[:m], v[:m] = lo, hi
                su = solve_riccati(model, u, SolveOptions(T=1.5))
                sv = solve_riccati(model, v, SolveOptions(T=1.5))
                if not (su.status.reached_horizon and sv.status.reached_horizon):
                    continue
                diff = su.eval(ts)[:, :m].real - sv.eval(ts)[:, :m].real
                assert np.max(diff) <= 1e-9, name

    def test_phi_additivity_pure_levy(self):
        model = AffineModel(shape=StateShape(0, 1), a=[[0.2]], b=[0.1],
                            mu0=CompoundPoissonExp(rate=0.4, jump_rate=3.0, axis=0))
        u0 = -1.2
        sol = solve_riccati(model, [u0], SolveOptions(T=4.0))
        F = eval_F(model, [u0])
        ts = np.linspace(0, 4, 17)
        assert np.max(np.abs(sol.eval_phi(ts) - ts * F)) < 1e-10


class TestSolveMinimal:
    def test_interior_point_matches_closed_form(self, feller_model):
        ts, psi, phi, status = solve_minimal(feller_model, [-1.0], SolveOptions(T=2.0))
        assert np.max(np.abs(psi[:, 0] - cir_psi(ts, -1.0))) < 1e-7

    def test_boundary_point_follows_minimal_branch(self, kr_model):
        ts, psi, phi, status = solve_minimal(kr_model, [1.0], SolveOptions(T=2.0))
        exact = 1.0 - (np.exp(-ts / 2) - 1) ** 2
        assert np.max(np.abs(psi[:, 0] - exact)) < 1e-5
        assert np.allclose(phi, 0.0, atol=1e-12)

    def test_rung_missing_the_horizon_returns_its_own_run(self, feller_model):
        # feller explodes from u at T*(u) = log(u / (u - 1)); the first rung
        # starts at 2 - 1e-5 and blows up before T = 1
        ts, psi, phi, status = solve_minimal(feller_model, [2.0], SolveOptions(T=1.0))
        assert status.kind == "blowup"
        u = 2.0 - _LADDER[0]
        assert status.t_event == pytest.approx(math.log(u / (u - 1.0)), abs=1e-9)
        assert len(ts) != 201 and ts[-1] < math.log(2.0) + 1e-5
        assert np.all(np.diff(ts) > 0)
        assert psi.shape == (len(ts), 1) and phi.shape == (len(ts),)
        assert psi[0, 0] == u and psi[-1, 0] > 1e8


class TestTrajectoryExport:
    def test_csv_format_and_precision(self, feller_model, kr_model):
        sol = solve_riccati(feller_model, [-1.0], SolveOptions(T=1.0))
        buf = io.StringIO()
        sol.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,psi_1,phi"
        assert lines[-1].startswith("# status=Completed")
        # 17 significant digits round-trip
        t1, p1, f1 = (float(x) for x in lines[2].split(","))
        assert t1 == sol.ts[1]
        assert p1 == sol.psi[1, 0]
        assert f1 == sol.phi[1]
        # a reduced solution carries no phi; its column is written as zeros
        sol = solve_reduced(kr_model, [-1.0], SolveOptions(T=1.0))
        buf = io.StringIO()
        sol.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,psi_1,phi"
        assert lines[-1] == "# status=Completed"
        rows = [line.split(",") for line in lines[1:-1]]
        assert [float(row[1]) for row in rows] == list(sol.psi[:, 0])
        assert all(row[2] == "0" for row in rows)

    def test_complex_solution_is_refused(self, feller_model):
        # the CSV's columns are real: writing them would drop the imaginary
        # parts (psi(1) = -0.1231+0.4241j here)
        sol = solve_riccati(feller_model, [0.5 + 1j], SolveOptions(T=1.0))
        buf = io.StringIO()
        with pytest.raises(ConfigError, match="complex"):
            sol.to_csv(buf)
        assert buf.getvalue() == ""


def gamma_ou_model():
    """OU-type coordinate that reaches the gamma measure's open boundary at 1."""
    return AffineModel(shape=StateShape(0, 1), a=[[0.0]], b=[0.0], beta_JJ=[[0.5]],
                       mu0=GammaLevy(c=1.0, rho=1.0, axis=0))


def full_starts(model, us):
    """(psi, phi) starts of the full system, one row per u."""
    d = model.shape.d
    us = np.asarray(us).reshape(len(us), d)
    starts = np.zeros((len(us), d + 1), dtype=us.dtype if us.dtype.kind == "c" else float)
    starts[:, :d] = us
    return starts


def assert_same_solution(got, want):
    for name in ("ts", "psi", "dpsi"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.status == want.status


class TestLanes:
    """The solve loop, ``_integrate``: every terminal status, rejected
    stages, the exceptions of the field and its one-point calls."""

    @staticmethod
    def kinds(model, us, opts=SolveOptions(T=2.0)):
        """The status kinds of the full-system solves from each u."""
        d = model.shape.d
        starts = full_starts(model, us)
        field = _full_system(model, 0.0, np.zeros(d), starts.dtype)
        return [_integrate(field, start, opts, rate_dim=d).status.kind for start in starts]

    def test_every_terminal_status(self, feller_model):
        # feller: u = 2 explodes at log 2, u = 0 sits at the equilibrium;
        # the gamma OU coordinate leaves the domain from 0.5 and 0.3
        kinds = self.kinds(feller_model, [-1.0, 2.0, 0.0])
        assert kinds == ["completed", "blowup", "equilibrium"]
        kinds = self.kinds(gamma_ou_model(), [-0.5, 0.5, 0.0, 0.3], SolveOptions(T=3.0))
        assert kinds == ["completed", "left_domain", "equilibrium", "left_domain"]

    def test_failed_stage_drops_only_its_lane(self):
        # near the open boundary the field raises at some stages: the solve
        # rejects those steps and goes on with a shorter one
        model = gamma_ou_model()
        starts = full_starts(model, [0.9, -0.5])
        field = _full_system(model, 0.0, np.zeros(1), float)
        with pytest.raises(DomainError):
            field(np.array([1.2, 0.0]))
        raised = [0]

        def counted(z):
            try:
                return field(z)
            except DomainError:
                raised[0] += 1
                raise

        edge = _integrate(counted, starts[0], SolveOptions(T=1.0), rate_dim=1)
        assert raised[0] > 0 and edge.status.kind == "left_domain"
        calm = _integrate(field, starts[1], SolveOptions(T=1.0), rate_dim=1)
        assert calm.status.kind == "completed"

    def test_complex_lane_beyond_float_range(self):
        # |y| overflows: its magnitude must read inf, as np.abs gives, and
        # not raise OverflowError as abs() of a complex number does
        sol = _integrate(lambda z: -1e-3 * z, np.array([1.5e308 + 1.5e308j]),
                         SolveOptions(T=1.0, blowup_threshold=1e300))
        assert sol.status.kind == "completed"
        assert len(sol.ts) == 22 and sol.t_end == 1.0
        assert sol.psi_end[0] == pytest.approx((1.5e308 + 1.5e308j) * math.exp(-1e-3), rel=1e-9)

    def test_lane_undefined_at_its_start(self, kr_model):
        field = _full_system(kr_model, 0.0, np.zeros(1), float)
        starts = full_starts(kr_model, [-1.0, 1.5, 0.5])
        with pytest.raises(DomainError, match="undefined at the initial condition"):
            _integrate(field, starts[1], SolveOptions(T=1.0), 1)
        for k in (0, 2):
            assert _integrate(field, starts[k], SolveOptions(T=1.0), 1).status.reached_horizon

    def test_lane_loop_calls_the_field_on_1d_rows(self, monkeypatch, kr2014_pair_model):
        # the ladders of solve_minimal and of the probe evaluate each rung by
        # its own point call, never on a stack of rows
        from affine_riccati import diagnostics

        depth, ndims = [0], []

        def in_solves(fn):
            def wrapped(*args, **kwargs):
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return wrapped

        def recorded(fn):
            def wrapped(model, u, *args, **kwargs):
                if depth[0]:
                    ndims.append(np.ndim(u))
                return fn(model, u, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(riccati, "_integrate", in_solves(riccati._integrate))
        for owner in (riccati, diagnostics):
            for name in ("eval_R", "eval_F", "reduced_R"):
                if hasattr(owner, name):
                    monkeypatch.setattr(owner, name, recorded(getattr(owner, name)))
        pair = tilt_model(kr2014_pair_model, [1.0, 1.0])
        solve_minimal(pair, [-0.1, -0.2], SolveOptions(T=1.0))
        verdict = check_conservative(pair)
        assert verdict.witness is not None and verdict.witness.source == "probe-extrapolation"
        assert ndims and set(ndims) == {1}

    def test_ladder_on_a_family_without_rows(self):
        # BareExpJumps rejects arrays; the rungs are the lone solves
        from test_model import BareExpJumps

        model = AffineModel(shape=StateShape(1, 0), a=[[0.0]], b=[0.5], alpha=[1.0],
                            beta_I=[[-1.0]], mus=(BareExpJumps(0.5, 2.0),))
        with pytest.raises(ValueError):
            reduced_R(model, np.array([[-0.1], [-0.2]]))
        field = _full_system(model, 0.0, np.zeros(1), float)
        opts = SolveOptions(T=2.0, rtol=1e-12, atol=1e-15)
        u0 = np.array([0.5, 0.0])
        sols = _eps_ladder(field, u0, 1, _LADDER, opts, rate_dim=1)
        assert len(sols) == 3
        for eps, sol in zip(_LADDER, sols):
            assert_same_solution(sol, _integrate(field, u0 - [eps, 0.0], opts, rate_dim=1))
        # the same measure in closed form, with the same bits
        closed = AffineModel(shape=StateShape(1, 0), a=[[0.0]], b=[0.5], alpha=[1.0],
                             beta_I=[[-1.0]], mus=(CompoundPoissonExp(0.5, 2.0),))
        got = solve_minimal(model, [0.5], SolveOptions(T=2.0))
        want = solve_minimal(closed, [0.5], SolveOptions(T=2.0))
        for a, b in zip(got[:3], want[:3]):
            assert a.tobytes() == b.tobytes()
        assert got[3] == want[3]


class TestFullSystemField:
    """The field of the full system, as the solve loop calls it: R from one
    eval_R call through riccati's globals, F from the model's bound F
    closure, and the discounts subtracted, with the bits of the public
    evaluators."""

    @staticmethod
    def models(mixed_model):
        # d = 2 with a J-block: an I-axis gamma measure in R, a J-axis point
        # measure in F
        j_block = AffineModel(shape=StateShape(1, 1), a=[[0.0, 0.0], [0.0, 0.3]],
                              b=[0.2, -0.1], alpha=[0.5], beta_I=[[-0.7, 0.1]],
                              beta_JJ=[[-0.5]], mu0=CompoundPoissonPoint(0.4, -0.8, axis=1),
                              mus=(GammaLevy(c=0.3, rho=2.0, axis=0),))
        return {"kr2014": kr2014(), "cir-jump": cir_jump(), "j-block": j_block,
                "mixed": mixed_model}

    def test_row_has_the_bits_of_eval_R_and_eval_F(self, mixed_model):
        rng = np.random.default_rng(17)
        for name, model in self.models(mixed_model).items():
            d, m = model.shape.d, model.shape.m
            discounts = [(0.0, np.zeros(d)), (0.0, np.full(d, -0.0)),
                         (0.35, rng.normal(size=d)), (-1.5, np.zeros(d))]
            for dtype in (np.dtype(float), np.dtype(complex)):
                for l, lam in discounts:
                    field = _full_system(model, l, lam, dtype)
                    for k in range(25):
                        z = np.zeros(d + 1, dtype)
                        if k:   # the first row is the origin
                            z[:m] = -rng.exponential(size=m) * 10.0 ** rng.integers(-3, 1)
                            z[m:] = rng.normal(size=d + 1 - m)
                            if dtype.kind == "c":
                                z += 1j * rng.normal(size=d + 1)
                        psi = z[:d].copy()
                        with quiet_fp():
                            got = field(z)
                        R = eval_R(model, psi, check_domain=False)
                        F = eval_F(model, psi, check_domain=False)
                        want = np.array([*(R - lam), F - l], dtype)
                        # a list of Python numbers of the row's kind
                        kind = complex if dtype.kind == "c" else float
                        assert type(got) is list and {type(v) for v in got} == {kind}, name
                        got = np.array(got)
                        assert got.dtype == dtype and got.shape == (d + 1,), name
                        assert got.tobytes() == want.tobytes(), (name, l, lam, z)

    @pytest.mark.parametrize("run", ["solve_riccati", "solve_minimal", "check_conservative"])
    def test_one_traced_model_call_per_field_evaluation(self, monkeypatch, kr2014_pair_model,
                                                        run):
        # counters on the names a tracer wraps, riccati.eval_R and
        # diagnostics.reduced_R, see exactly one call per evaluation of a
        # solve's field, and eval_F none there
        from affine_riccati import diagnostics

        depth, counts = [0], {"field": 0, "model": 0, "eval_F": 0}

        def counted(fn, key):
            def wrapped(*args, **kwargs):
                if depth[0]:
                    counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        def solves(field, *args, **kwargs):
            depth[0] += 1
            try:
                return _integrate(counted(field, "field"), *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(riccati, "_integrate", solves)
        monkeypatch.setattr(riccati, "eval_R", counted(riccati.eval_R, "model"))
        monkeypatch.setattr(diagnostics, "reduced_R", counted(diagnostics.reduced_R, "model"))
        for owner in (riccati, diagnostics):
            if hasattr(owner, "eval_F"):
                monkeypatch.setattr(owner, "eval_F", counted(owner.eval_F, "eval_F"))
        pair = tilt_model(kr2014_pair_model, [1.0, 1.0])
        if run == "solve_riccati":
            solve_riccati(cir_jump(), [-0.5 + 1.0j], SolveOptions(T=2.0))
        elif run == "solve_minimal":
            solve_minimal(pair, [-0.1, -0.2], SolveOptions(T=1.0), l=0.1, lam=[0.2, 0.0])
        else:
            assert check_conservative(pair).witness.source == "probe-extrapolation"
        assert counts["field"] > 6 and counts["model"] == counts["field"]
        assert counts["eval_F"] == 0


class TestEpsLadder:
    """The ladder returns and raises as a rung-by-rung ladder would."""

    @staticmethod
    def logistic(v):
        return v * v - v  # explodes from v > 1 at log(v / (v - 1))

    def test_stops_at_the_first_rung_that_misses_the_horizon(self):
        opts = SolveOptions(T=1.0)
        # starts 1.5 (explodes after T), 1.9 and 2.0 (explode before T)
        sols = _eps_ladder(self.logistic, np.array([2.0]), 1, (0.5, 0.1, 0.0), opts)
        assert [s.status.kind for s in sols] == ["completed", "blowup"]
        sols = _eps_ladder(self.logistic, np.array([0.9]), 1, (0.5, 0.1, 0.0), opts)
        assert [s.status.kind for s in sols] == ["completed"] * 3

    def test_raises_in_rung_order(self):
        opts = SolveOptions(T=1.0)

        def refuse(*bad):
            def check(start):
                if float(start[0]) in bad:
                    raise KeyError(float(start[0]))
            return check

        ladder = (0.5, 0.1, 0.0)
        # the second rung's refusal surfaces once the first rung has completed
        with pytest.raises(KeyError, match="1.9"):
            _eps_ladder(self.logistic, np.array([2.0]), 1, ladder, opts, check=refuse(1.9))
        # the first of two refused rungs surfaces
        with pytest.raises(KeyError, match="1.5"):
            _eps_ladder(self.logistic, np.array([2.0]), 1, ladder, opts,
                        check=refuse(2.0, 1.5))
        # a rung after one that misses the horizon never raises
        sols = _eps_ladder(self.logistic, np.array([2.0]), 1, ladder, opts, check=refuse(2.0))
        assert [s.status.kind for s in sols] == ["completed", "blowup"]

    def test_rungs_after_a_miss_are_neither_checked_nor_solved(self):
        # the first rung, from 2.0, explodes at log 2 < T: the rungs from
        # 1.9 and 1.5 are never checked, and the field never sees a value
        # below 2.0, where their solves would start
        checked, seen = [], []

        def field(v):
            seen.append(float(v[0]))
            return self.logistic(v)

        sols = _eps_ladder(field, np.array([2.0]), 1, (0.0, 0.1, 0.5), SolveOptions(T=1.0),
                           check=lambda start: checked.append(float(start[0])))
        assert [s.status.kind for s in sols] == ["blowup"]
        assert checked == [2.0]
        assert min(seen) == 2.0

    def test_field_exceptions_end_only_their_lane(self):
        # a field that raises an error outside the stage-rejecting ones below
        # v = -0.25: the lone solve raises it, and so does its rung, in order
        def field(v):
            if v[0] < -0.25:
                raise KeyError("below")
            return -v * v

        opts = SolveOptions(T=1.0)
        with pytest.raises(KeyError):
            _integrate(field, np.array([-0.3]), opts)
        sols = _eps_ladder(field, np.array([-0.1]), 1, (0.0, 0.01, 0.05), opts)
        assert [s.status.kind for s in sols] == ["completed"] * 3
        with pytest.raises(KeyError):
            _eps_ladder(field, np.array([-0.1]), 1, (0.0, 0.01, 0.2), opts)


class TestTrajectoryPin:
    """The solves keep their bits: a sha256 over ts, psi and phi of a fixed
    set of solves, which run the one-point field path end to end; one pin
    for the real solves and one for the complex ones."""

    PINNED_REAL = "463a7f4baf27ad1d4d7b83c0d8ceb06884e381fbbca8fdeb8b2c5f5716744951"
    PINNED_COMPLEX = "b1b7207a76f2d02eeddd0465fa9bba89c923b76c5d5b91a03bac8ac58dbbe88d"

    @staticmethod
    def digest(runs):
        h = hashlib.sha256()
        for arrays in runs:
            for a in arrays:
                h.update(str(a.dtype).encode())
                h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    @staticmethod
    def solves(acceptance_models, u):
        opts = SolveOptions(T=2.0)
        return [solve_riccati(acceptance_models[k], [u], opts)
                for k in ("feller", "kr2014", "cir-jump")]

    def test_real_solves_keep_their_bits(self, acceptance_models):
        feller, kr = acceptance_models["feller"], acceptance_models["kr2014"]
        runs = [(sol.ts, sol.psi, sol.phi) for sol in self.solves(acceptance_models, -1.0)]
        sol = solve_tilted(feller, 0.2, [0.3], [-0.8], SolveOptions(T=1.0))
        runs.append((sol.ts, sol.psi, sol.phi))
        sol = solve_riccati(feller, [2.0], SolveOptions(T=1.0))
        assert sol.status.kind == "blowup"
        runs.append((sol.ts, sol.psi, sol.phi))
        runs.append(solve_minimal(kr, [1.0], SolveOptions(T=2.0))[:3])
        assert self.digest(runs) == self.PINNED_REAL

    def test_complex_solves_keep_their_bits(self, acceptance_models):
        sols = self.solves(acceptance_models, -0.5 + 1.0j)
        assert [len(sol.ts) for sol in sols] == [56, 22, 56]
        assert self.digest([(sol.ts, sol.psi, sol.phi) for sol in sols]) == self.PINNED_COMPLEX

    # Everything a solve returns, stored derivatives and event times
    # included, over the solves above and a d = 3 model, a discount on a
    # complex start, each terminal status, a reduced solve and a reduced
    # ladder; one pin for the real solves and one for the complex ones.
    PINNED_REAL_RECORDS = "b1a94c6a84b395403f9b6a42562064fb3f8656ca186ff7f8dadd1cf602a4e7fc"
    PINNED_COMPLEX_RECORDS = "ca3543c8d4194e90f4fd6b196e04421b27df03da86a4cbe3658a29f54d82a431"

    @staticmethod
    def record(sol):
        arrays = [sol.ts, sol.psi, sol.dpsi]
        if sol.phi is not None:
            arrays += [sol.phi, sol.dphi]
        event = np.array([math.nan if sol.status.t_event is None else sol.status.t_event])
        return (*arrays, event, np.frombuffer(sol.status.kind.encode(), np.uint8))

    def test_real_records_keep_their_bits(self, acceptance_models, mixed_model):
        from affine_riccati.diagnostics import minimal_reduced_trajectory

        feller, kr = acceptance_models["feller"], acceptance_models["kr2014"]
        sols = self.solves(acceptance_models, -1.0)
        sols.append(solve_tilted(feller, 0.2, [0.3], [-0.8], SolveOptions(T=1.0)))
        sols.append(solve_riccati(feller, [2.0], SolveOptions(T=1.0)))
        sols.append(solve_riccati(mixed_model, [-0.5, 0.3, -0.2], SolveOptions(T=2.0)))
        sols.append(solve_riccati(feller, [-0.5], SolveOptions(T=60.0)))
        sols.append(solve_riccati(gamma_ou_model(), [0.5], SolveOptions(T=3.0)))
        sols.append(solve_reduced(kr, [-1.0], SolveOptions(T=4.0)))
        kinds = [sol.status.kind for sol in sols]
        assert kinds == ["completed"] * 4 + ["blowup", "completed", "equilibrium",
                                             "left_domain", "completed"]
        runs = [self.record(sol) for sol in sols]
        runs.append(solve_minimal(kr, [1.0], SolveOptions(T=2.0))[:3])
        ts = 3.0 * np.linspace(0.0, 1.0, 301) ** 2
        runs.append((minimal_reduced_trajectory(tilt_model(kr, [1.0]), [0.0], ts),))
        assert self.digest(runs) == self.PINNED_REAL_RECORDS

    def test_complex_records_keep_their_bits(self, acceptance_models, mixed_model):
        feller = acceptance_models["feller"]
        sols = self.solves(acceptance_models, -0.5 + 1.0j)
        sols.append(solve_tilted(feller, 0.2, [0.3], [-0.8 + 0.5j], SolveOptions(T=1.0)))
        sols.append(solve_riccati(mixed_model, [-0.5 + 0.4j, 0.3 - 0.2j, -0.2 + 0.1j],
                                  SolveOptions(T=2.0)))
        sols.append(solve_riccati(feller, [1.0 + 0.0j], SolveOptions(T=2.0)))
        sols.append(solve_riccati(gamma_ou_model(), [0.5 + 0.1j], SolveOptions(T=3.0)))
        kinds = [sol.status.kind for sol in sols]
        assert kinds == ["completed"] * 5 + ["equilibrium", "left_domain"]
        assert self.digest([self.record(sol) for sol in sols]) == self.PINNED_COMPLEX_RECORDS
