"""Path simulation: determinism, moment matching, estimator reports."""

import dataclasses
import hashlib
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.linalg import expm

from affine_riccati import (
    AffineModel,
    CompoundPoissonExp,
    CompoundPoissonPoint,
    ConfigError,
    GammaLevy,
    SimOptions,
    SolveOptions,
    SolverError,
    StateShape,
    TemperedStableHalf,
    TiltSpec,
    affine_formula_check,
    discounted_functional,
    estimate_exp_moment,
    eval_F,
    eval_R,
    martingale_gap,
    simulate_paths,
    solve_riccati,
    tilt_model,
)
from affine_riccati import montecarlo
from affine_riccati.montecarlo import (
    _KEY_CHUNK,
    CASCADE_ROUND_CAP,
    _philox_keys,
    _StreamKeys,
    _uniforms,
)


class TestSimOptions:
    @pytest.mark.parametrize("kw, name", [({"T": math.nan}, "T"), ({"T": math.inf}, "T"),
                                          ({"dt": math.nan}, "dt"), ({"dt": math.inf}, "dt"),
                                          ({"x0": [math.nan]}, "x0"), ({"x0": [math.inf]}, "x0")])
    def test_non_finite_setting_is_a_config_error(self, kw, name):
        with pytest.raises(ConfigError, match=f"SimOptions.{name} must be finite"):
            SimOptions(**{"x0": [1.0], "T": 1.0, **kw})

    @pytest.mark.parametrize("seed", [-1, -(2**40), 1.5, 2.0, "3", None, True])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ConfigError, match="SimOptions.seed must be a nonnegative integer"):
            SimOptions(x0=[1.0], T=1.0, seed=seed)

    def test_numpy_integer_seed_is_the_same_stream(self, cir_jump_model):
        opts = SimOptions(x0=[1.0], T=0.1, dt=1e-2, npaths=50, seed=2**40 + 5)
        a = simulate_paths(cir_jump_model, opts)
        b = simulate_paths(cir_jump_model, dataclasses.replace(opts, seed=np.uint64(2**40 + 5)))
        assert np.array_equal(a.states, b.states)


def _sha(ens):
    return hashlib.sha256(ens.states.tobytes() + ens.survived.tobytes()).hexdigest()


def _diffusion_model():
    """m = 2, n = 1 diffusion with no jumps: two square-root coordinates and
    a J-coordinate with a constant diffusion coefficient."""
    return AffineModel(shape=StateShape(2, 1),
                       a=[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.3]],
                       b=[0.4, 0.2, -0.1], alpha=[1.0, 0.5],
                       beta_I=[[-1.0, 0.2, 0.3], [0.1, -0.8, -0.2]], beta_JJ=[[-0.6]])


def _two_source_model():
    """cir-jump plus a linear tempered 1/2-stable source: one cascade source
    and one increment source."""
    return AffineModel(shape=StateShape(1, 0), a=[[0.0]], b=[0.5], alpha=[1.0],
                       beta_I=[[-1.0]], mu0=CompoundPoissonExp(rate=0.3, jump_rate=2.0, axis=0),
                       mus=(TemperedStableHalf(scale=0.2, tempering=1.0, axis=0),))


class TestStreamIdentity:
    """The Philox streams are part of the output: every seeded ensemble keeps
    its bits, with any worker count."""

    # sha256 of states + survived at seed 99, T 0.5, dt 2e-3, 2,000 paths,
    # x0 = 1 (mixed and diffusion-2-1: x0 = (0.8, 0.5, -0.2); the tilted
    # kr2014 pair: x0 = (1, 1)).  kr2014 has one tempered 1/2-stable source,
    # which jump_trunc does not truncate.  diffusion-2-1 runs the m > 1 drift
    # product, the J-block drift and the constant diffusion factor; 80 paths
    # of the kr2014 pair tilted at (1, 0.5) explode; feller-301-steps runs
    # 301 steps recorded every 3, which gives 102 records (steps 0, 3, ...,
    # 300 and 301), so the 101 after the first end in a short record block.
    PINNED = {
        ("cir-jump", 1e-3): "c3057b35353fdc6d6fcdf38c9974a62df072a967c423652cc8e1abc5b4511d9d",
        ("kr2014", 1e-3): "3e6b8dfb9e4de15271c1b96a18e7b57e2385e13069f509e19813523036a62074",
        ("kr2014", 1e-4): "3e6b8dfb9e4de15271c1b96a18e7b57e2385e13069f509e19813523036a62074",
        ("two-source", 1e-3): "b32aaa12975ab80c15ce303b2e7d94d380dcfce36065944dc0b1f2ee0c4bd98a",
        ("mixed", 1e-3): "9ea454a50f644da5e56025218cca43747970c718440425e0b792a61808b85e05",
        ("feller", 1e-3): "f38c095b97db6bb33cb1d0dfa69773d5111a0edc1dbddec5cf0cb6a2e8d281ca",
        ("diffusion-2-1", 1e-3):
            "72405381a7202f8f7505e422cb0e76684c8e1fdf06cde3cabbd52082151c40bf",
        ("kr2014-pair-tilted", 1e-3):
            "e9e604f7fdc32f7f4b94917a3d5532b4dff33f99d73661033eb22deb9068b64d",
        ("feller-301-steps", 1e-3):
            "f6c924a7d74d0753baf6e7a7e202a258f150da491f80c65327a65e6009d36a76",
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name, trunc", sorted(PINNED))
    def test_pinned_ensemble(self, acceptance_models, mixed_model, kr2014_pair_model,
                             monkeypatch, workers, name, trunc):
        models = {**acceptance_models, "two-source": _two_source_model(), "mixed": mixed_model,
                  "diffusion-2-1": _diffusion_model(),
                  "kr2014-pair-tilted": tilt_model(kr2014_pair_model, [1.0, 0.5]),
                  "feller-301-steps": acceptance_models["feller"]}
        x0 = {"mixed": [0.8, 0.5, -0.2], "diffusion-2-1": [0.8, 0.5, -0.2],
              "kr2014-pair-tilted": [1.0, 1.0]}.get(name, [1.0])
        T = 0.602 if name == "feller-301-steps" else 0.5
        monkeypatch.setattr(montecarlo, "_workers", lambda npaths: workers)
        opts = SimOptions(x0=x0, T=T, dt=2e-3, npaths=2000, seed=99, jump_trunc=trunc)
        assert _sha(simulate_paths(models[name], opts)) == self.PINNED[name, trunc]

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**40 + 5])
    @pytest.mark.parametrize("cols", [None, 1, 2])
    def test_row_range_equals_slice_of_full_table(self, seed, cols):
        n = 23
        shape = (n,) if cols is None else (n, cols)
        for step, extra in ((5, (7,)), (2**33 + 1, (0, 499))):
            keys = _StreamKeys(seed, step + 1)
            full = np.random.Generator(np.random.Philox(np.random.SeedSequence(
                (seed, step, 3, *extra)))).random(shape)
            assert np.array_equal(_uniforms(keys, step, 3, shape, extra), full)
            for start in range(n):
                for rows in {1, 2, 5, n - start}:
                    if start + rows > n:
                        continue
                    part = _uniforms(keys, step, 3, (rows, *shape[1:]), extra, start)
                    assert np.array_equal(part, full[start:start + rows]), (start, rows)

    def test_each_thread_draws_the_same_rows(self):
        # the threads share one set of keys, built while they draw
        want = [_uniforms(_StreamKeys(2**40 + 5, 10), 9, 3, (40, 2), (k,), start=k)
                for k in range(8)]
        keys = _StreamKeys(2**40 + 5, 10)
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(lambda k: _uniforms(keys, 9, 3, (40, 2), (k,), start=k),
                                range(8)))
        for a, b in zip(want, got):
            assert np.array_equal(a, b)


def _seed_sequence_key(words):
    return np.random.SeedSequence(words).generate_state(2, np.uint64)


class TestPhiloxKeys:
    """The vectorized key pass is numpy's SeedSequence hash, bit for bit,
    and builds the keys of one chunk of steps at a time."""

    @pytest.mark.parametrize("nwords", range(1, 9))
    def test_random_words_give_numpy_keys(self, nwords):
        words = np.random.default_rng(nwords).integers(0, 2**32, size=(nwords, 50),
                                                        dtype=np.uint32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            keys = _philox_keys(words)
        assert keys.dtype == np.uint64 and keys.shape == (50, 2)
        for column, key in zip(words.T, keys):
            assert np.array_equal(key, _seed_sequence_key(column))

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**40 + 5])
    def test_stream_keys_are_numpy_keys(self, seed):
        steps = [0, _KEY_CHUNK - 1, _KEY_CHUNK, 5 * _KEY_CHUNK - 1, 5 * _KEY_CHUNK,
                 2**32 - 1, 2**32, 2**33 + 1]
        families = [(1, ()), (montecarlo._P_INCREMENT, (1,)), (3, (0,)), (3, (1,)),
                    (3, (5,)), (4, (2,)), (montecarlo._P_SIZE, (0, 0))]
        keys = _StreamKeys(seed, 2**34)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for step in steps:
                for purpose, extra in families:
                    assert np.array_equal(keys.key(step, purpose, extra),
                                          _seed_sequence_key((seed, step, purpose, *extra))), \
                        (step, purpose, extra)

    def test_a_far_step_builds_only_its_own_chunk(self):
        keys = _StreamKeys(7, 2**34)
        step = 2**33 + 1
        chunk = step // _KEY_CHUNK
        keys.key(step, 1)
        assert list(keys.tables) == [(chunk, 1, ())]
        assert keys.tables[chunk, 1, ()].shape == (_KEY_CHUNK, 2)
        # a cascade round builds the rounds of its block with it
        keys.key(step, 3, (5,))
        assert sorted(keys.tables) == [(chunk, 1, ()), *((chunk, 3, (r,)) for r in range(4, 8))]
        # the next chunk drops the keys of this one
        keys.key(step + _KEY_CHUNK, 1)
        assert list(keys.tables) == [(chunk + 1, 1, ())]

    def test_threads_sharing_keys_get_numpy_keys(self):
        # more threads than CPUs, switching often, across chunk boundaries
        # (each crossing drops the other chunk's keys) and cascade rounds
        asks = [(step, purpose, extra)
                for step in (0, 1, _KEY_CHUNK - 1, _KEY_CHUNK, 3 * _KEY_CHUNK)
                for purpose, extra in ((1, ()), (3, (0,)), (3, (3,)),
                                       (montecarlo._P_SIZE, (6, 0)))]
        want = [_seed_sequence_key((11, step, purpose, *extra)) for step, purpose, extra in asks]
        keys = _StreamKeys(11, 4 * _KEY_CHUNK)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lambda k: [keys.key(*asks[(k + j) % len(asks)])
                                                  for j in range(200)], k) for k in range(16)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for k, got in enumerate(results):
            for j, key in enumerate(got):
                assert np.array_equal(key, want[(k + j) % len(asks)])

    def test_the_last_chunk_ends_at_the_last_step(self):
        step = _KEY_CHUNK + 2
        keys = _StreamKeys(7, step + 1)
        assert np.array_equal(keys.key(step, 1), _seed_sequence_key((7, step, 1)))
        assert keys.tables[1, 1, ()].shape == (3, 2)
        # the last block of rounds ends at the round cap
        last = (CASCADE_ROUND_CAP - 1, 0)
        assert np.array_equal(keys.key(step, montecarlo._P_SIZE + 1, last),
                              _seed_sequence_key((7, step, montecarlo._P_SIZE + 1, *last)))
        rounds = sorted(f[2][0] for f in keys.tables if f[1] == montecarlo._P_SIZE + 1)
        assert rounds == list(range(2**13, CASCADE_ROUND_CAP))


class TestDeterminism:
    def test_bit_identical_regeneration(self, cir_jump_model):
        opts = SimOptions(x0=[1.0], T=0.5, dt=5e-3, npaths=500, seed=123)
        a = simulate_paths(cir_jump_model, opts)
        b = simulate_paths(cir_jump_model, opts)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.survived, b.survived)

    def test_seed_changes_ensemble(self, cir_jump_model):
        a = simulate_paths(cir_jump_model, SimOptions(x0=[1.0], T=0.5, dt=5e-3,
                                                      npaths=500, seed=1))
        b = simulate_paths(cir_jump_model, SimOptions(x0=[1.0], T=0.5, dt=5e-3,
                                                      npaths=500, seed=2))
        assert not np.array_equal(a.states, b.states)

    def test_thread_count_does_not_change_results(self, kr_model, mixed_model, monkeypatch):
        # the kr2014 increments, one cascade source beside an increment
        # source, and the pick table of the mixed model's two cascade sources
        for model in (kr_model, _two_source_model(), mixed_model):
            x0 = [0.8, 0.5, -0.2] if model is mixed_model else [1.0]
            opts = SimOptions(x0=x0, T=0.5, dt=5e-3, npaths=400, seed=9, jump_trunc=1e-3)
            monkeypatch.setattr(montecarlo, "_workers", lambda npaths: 1)
            serial = simulate_paths(model, opts)
            for workers in (2, 3):
                monkeypatch.setattr(montecarlo, "_workers", lambda npaths: workers)
                parallel = simulate_paths(model, opts)
                assert np.array_equal(serial.states, parallel.states), workers
                assert np.array_equal(serial.survived, parallel.survived), workers

    def test_thread_count_does_not_change_increment_stream(self, kr_model, monkeypatch):
        tilted = tilt_model(kr_model, [1.0])
        opts = SimOptions(x0=[1.0], T=1.0, dt=1e-2, npaths=400, seed=9, jump_trunc=1e-4)
        monkeypatch.setattr(montecarlo, "_workers", lambda npaths: 1)
        serial = simulate_paths(tilted, opts)
        assert serial.exploded.any() and serial.survived.any()
        for workers in (2, 3):
            monkeypatch.setattr(montecarlo, "_workers", lambda npaths: workers)
            parallel = simulate_paths(tilted, opts)
            assert np.array_equal(serial.states, parallel.states), workers
            assert np.array_equal(serial.survived, parallel.survived), workers

    @pytest.mark.parametrize("cpus, npaths, workers", [
        (1, 1, 1), (1, 19_999, 1), (1, 20_000, 1), (1, 10**6, 1),
        (2, 1, 1), (2, 19_999, 1), (2, 20_000, 2), (2, 10**6, 2),
        (3, 29_999, 2), (3, 30_000, 3), (3, 10**6, 3),
    ])
    def test_worker_count_follows_paths_and_affinity(self, monkeypatch, cpus, npaths, workers):
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        assert montecarlo._workers(npaths) == workers

    def test_worker_count_without_affinity_call(self, monkeypatch):
        monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        assert montecarlo._workers(19_999) == 1
        assert montecarlo._workers(20_000) == 2


class TestSchemeAgainstFlows:
    def test_deterministic_linear_model_matches_matrix_exponential(self):
        # no noise, no jumps: the Euler path converges to the linear flow
        B = np.array([[-0.5, 0.3], [0.0, -0.2]])
        m = AffineModel(shape=StateShape(0, 2), a=np.zeros((2, 2)),
                        b=[0.1, -0.2], beta_JJ=B)
        x0 = np.array([1.0, 0.5])
        T = 1.0
        opts = SimOptions(x0=x0, T=T, dt=1e-3, npaths=1, seed=0)
        ens = simulate_paths(m, opts)
        # exact flow: x' = b + B x  (drift matrix equals beta_JJ acting on J)
        A = np.zeros((3, 3))
        A[:2, :2] = B
        A[:2, 2] = m.b
        exact = (expm(A * T) @ np.array([*x0, 1.0]))[:2]
        assert np.max(np.abs(ens.terminal[0] - exact)) < 2e-3  # O(dt)

    def test_cir_first_moment(self, feller_model):
        opts = SimOptions(x0=[1.0], T=1.0, dt=1e-3, npaths=20_000, seed=5)
        ens = simulate_paths(feller_model, opts)
        XT = ens.terminal[:, 0]
        exact = math.exp(-1.0) + 0.5 * (1 - math.exp(-1.0))
        se = XT.std(ddof=1) / math.sqrt(len(XT))
        assert abs(XT.mean() - exact) < 3 * se

    def test_kr2014_first_moment_vs_riccati_derivative(self, kr_model):
        # E[X_T] from finite differences of (phi, psi) in u at 0
        T, x0 = 1.0, 1.0
        h = 1e-6
        up = solve_riccati(kr_model, [h], SolveOptions(T=T))
        dn = solve_riccati(kr_model, [-h], SolveOptions(T=T))
        dphi = (up.phi_end - dn.phi_end) / (2 * h)
        dpsi = (up.psi_end[0] - dn.psi_end[0]).real / (2 * h)
        expected = dphi + dpsi * x0
        opts = SimOptions(x0=[x0], T=T, dt=5e-3, npaths=20_000, seed=1, jump_trunc=1e-4)
        ens = simulate_paths(kr_model, opts)
        XT = ens.terminal[ens.survived, 0]
        se = XT.std(ddof=1) / math.sqrt(len(XT))
        assert abs(XT.mean() - expected) < 3 * se

    def test_mixed_model_formula_check(self, mixed_model):
        # exercises the J-block drift, correlated J diffusion, negative
        # J-axis point jumps and the gamma tail sampler in one run
        opts = SimOptions(x0=[0.8, 0.5, -0.2], T=1.0, dt=2e-3, npaths=15_000,
                          seed=13, jump_trunc=1e-3)
        report = affine_formula_check(mixed_model, opts, [-0.5, 0.2, -0.3])
        assert report.applicable
        assert abs(report.z) <= 3.0

    def test_constant_diffusion_on_cone_block_rejected(self):
        bad = AffineModel(shape=StateShape(1, 1), a=[[0.1, 0.0], [0.0, 0.2]],
                          b=[0.1, 0.0])
        with pytest.raises(ConfigError):
            simulate_paths(bad, SimOptions(x0=[1.0, 0.0], T=0.1, dt=0.01,
                                           npaths=10, seed=0))

    def test_nonnegativity_of_retained_paths(self, acceptance_models):
        for name, model in acceptance_models.items():
            opts = SimOptions(x0=[0.05], T=0.5, dt=2e-3, npaths=2_000, seed=3,
                              jump_trunc=1e-3)
            ens = simulate_paths(model, opts)
            assert np.min(ens.states[:, :, :model.shape.m]) >= 0.0, name


class TestEstimators:
    def test_exp_moment_at_zero(self, feller_model):
        ens = simulate_paths(feller_model, SimOptions(x0=[1.0], T=0.25, dt=5e-3,
                                                      npaths=200, seed=2))
        est = estimate_exp_moment(ens, [0.0])
        assert est.mean == 1.0
        assert est.stderr == 0.0
        assert est.exploded_fraction == 0.0

    def test_deterministic_drift_model_zero_variance(self):
        m = AffineModel(shape=StateShape(0, 1), a=[[0.0]], b=[0.5])
        ens = simulate_paths(m, SimOptions(x0=[1.0], T=1.0, dt=1e-3, npaths=50, seed=0))
        est = estimate_exp_moment(ens, [1.0])
        assert est.stderr < 1e-12
        assert est.mean == pytest.approx(math.exp(1.5), rel=1e-2)

    def test_formula_check_cir_point(self, feller_model):
        opts = SimOptions(x0=[1.0], T=1.0, dt=1e-3, npaths=20_000, seed=7)
        report = affine_formula_check(feller_model, opts, [-0.5])
        assert report.applicable
        assert abs(report.z) <= 3.0
        assert not report.flagged

    def test_formula_check_pure_levy(self):
        m = AffineModel(shape=StateShape(0, 1), a=[[0.0]], b=[0.2],
                        mu0=CompoundPoissonExp(rate=0.5, jump_rate=2.0, axis=0))
        opts = SimOptions(x0=[0.5], T=1.0, dt=2e-3, npaths=20_000, seed=4)
        report = affine_formula_check(m, opts, [-1.0])
        # psi stays at u: analytic side e^{t F(u) + u x0}
        F = eval_F(m, [-1.0])
        assert report.analytic == pytest.approx(math.exp(F - 0.5), rel=1e-9)
        assert abs(report.z) <= 3.0

    def test_formula_check_zero_stderr_z_keeps_the_sign_of_the_gap(self, feller_model):
        # one path: the standard error is 0, so z is infinite on the gap's side
        signs = set()
        for seed in range(6):
            opts = SimOptions(x0=[1.0], T=1.0, dt=1e-2, npaths=1, seed=seed)
            report = affine_formula_check(feller_model, opts, [-0.5])
            assert report.mc_stderr == 0.0
            assert report.z == math.copysign(math.inf, report.mc_mean - report.analytic)
            signs.add(report.z)
        assert signs == {math.inf, -math.inf}

    def test_formula_check_flags_a_z_that_is_not_a_number(self):
        # every path explodes: mean and standard error are 0, z = -inf
        m = AffineModel(shape=StateShape(1, 0), a=[[0.0]], b=[0.0], beta_I=[[-1.0]],
                        mus=(CompoundPoissonPoint(rate=50.0, size=1e13, axis=0),))
        opts = SimOptions(x0=[1.0], T=0.5, dt=1e-2, npaths=3, seed=2)
        report = affine_formula_check(m, opts, [-1.0])
        assert report.exploded_fraction == 1.0
        assert report.mc_mean == 0.0 and report.mc_stderr == 0.0
        assert report.z == -math.inf
        assert report.flagged
        assert "flagged: yes" in report.report_lines()

    @pytest.mark.parametrize("u", [-0.5, -2.0])
    def test_formula_check_counts_exploded_paths_as_zero(self, kr_model, u):
        # tilted kr2014 explodes (about 14% of paths by T = 1); the transform
        # formula of the minimal solution holds with e^{<u, X_T>} = 0 in the
        # cemetery, and averaging the survivors alone read z = +19 and +13
        opts = SimOptions(x0=[1.0], T=1.0, dt=2e-3, npaths=4000, seed=5)
        report = affine_formula_check(tilt_model(kr_model, [1.0]), opts, [u])
        assert report.exploded_fraction > 0.1
        assert not report.flagged

    def test_formula_check_blowup_not_applicable(self, feller_model):
        opts = SimOptions(x0=[1.0], T=1.0, dt=1e-2, npaths=10, seed=0)
        report = affine_formula_check(feller_model, opts, [2.0])
        assert not report.applicable
        assert "not applicable" in report.status


class TestMartingaleGap:
    def test_zero_spec_has_no_gap(self, feller_model):
        spec = TiltSpec(theta=[0.0], l=0.0, lam=[0.0])
        opts = SimOptions(x0=[1.0], T=0.5, dt=5e-3, npaths=200, seed=0)
        gap = martingale_gap(feller_model, spec, opts)
        assert gap.mean == pytest.approx(1.0, abs=1e-12)
        assert gap.martingale_value == 1.0
        assert not gap.excludes_martingale

    def test_cir_true_martingale_interval_contains_value(self, feller_model):
        theta = np.array([0.5])
        spec = TiltSpec(theta=theta, l=eval_F(feller_model, theta),
                        lam=eval_R(feller_model, theta))
        opts = SimOptions(x0=[1.0], T=1.0, dt=1e-3, npaths=20_000, seed=21)
        gap = martingale_gap(feller_model, spec, opts)
        assert not gap.excludes_martingale
        assert abs(gap.mean - gap.martingale_value) <= 3.0 * gap.stderr
        assert gap.predicted == pytest.approx(gap.martingale_value, rel=1e-6)
        # the tilted feller model is conservative: every tilted path survives
        assert gap.survival_mean == gap.martingale_value
        assert gap.survival_stderr == 0.0
        assert abs(gap.z_vs_predicted) < 1e-6
        # every base path survives, so the plain mean is discounted_functional
        # over all of them; its per-path bits pin the grid sum (a cumsum
        # rounds 15% of them differently, while the mean and stderr keep theirs)
        ens = simulate_paths(feller_model, opts)
        S_T = discounted_functional(spec, ens.times, ens.states[ens.survived])
        assert hashlib.sha256(S_T.tobytes()).hexdigest().startswith("143ca17b0fe1cbf2")
        assert gap.mean == float(np.mean(S_T))
        assert gap.mean.hex() == "0x1.a5fafdb424917p+0"
        assert gap.stderr.hex() == "0x1.eb6164fa9a741p-7"

    def test_algebraic_precondition_enforced(self, feller_model):
        spec = TiltSpec(theta=[0.5], l=123.0, lam=eval_R(feller_model, [0.5]))
        opts = SimOptions(x0=[1.0], T=0.5, dt=5e-3, npaths=100, seed=0)
        with pytest.raises(ConfigError):
            martingale_gap(feller_model, spec, opts)

    def test_mis_sized_or_complex_vectors_are_refused(self, feller_model):
        opts = SimOptions(x0=[1.0], T=0.1, dt=0.01, npaths=10, seed=0)
        with pytest.raises(ConfigError, match=r"TiltSpec\.theta must have length 1, got 2"):
            martingale_gap(feller_model, TiltSpec(theta=[0.5, 1.0]), opts)
        with pytest.raises(ConfigError, match="u must have length 1, got 2"):
            estimate_exp_moment(simulate_paths(feller_model, opts), [0.1, 0.2])
        with pytest.raises(ConfigError, match="u must be real"):
            affine_formula_check(feller_model, opts, [0.1j])

    def test_kr2014_gap_excludes_martingale_value(self, kr_model):
        # the strict local martingale gap is visible far beyond noise even at
        # moderate path counts
        spec = TiltSpec(theta=[1.0], l=0.0, lam=[0.0])
        opts = SimOptions(x0=[1.0], T=2.0, dt=5e-3, npaths=20_000, seed=11,
                          jump_trunc=1e-4)
        gap = martingale_gap(kr_model, spec, opts)
        assert gap.martingale_value == pytest.approx(math.e, rel=1e-12)
        assert gap.excludes_martingale
        assert gap.mean + 3.0 * gap.stderr < gap.martingale_value
        assert gap.predicted == pytest.approx(math.exp(1 - (math.exp(-1) - 1) ** 2),
                                              rel=1e-3)

    def test_gap_needs_a_path_sampler_for_the_tilted_model(self):
        @dataclasses.dataclass(frozen=True)
        class Untiltable(CompoundPoissonExp):
            def tilted(self, theta):
                raise NotImplementedError

        m = AffineModel(shape=StateShape(0, 1), a=[[0.0]], b=[0.0],
                        mu0=Untiltable(rate=2.0, jump_rate=4.0))
        theta = [0.5]
        spec = TiltSpec(theta=theta, l=eval_F(m, theta), lam=eval_R(m, theta))
        opts = SimOptions(x0=[0.0], T=0.5, dt=1e-2, npaths=50, seed=0)
        with pytest.raises(ConfigError, match="path sampling"):
            martingale_gap(m, spec, opts)

    def test_exploded_base_paths_count_as_zero(self, kr_model):
        # the tilted kr2014 base explodes with probability 1 - 0.857 by T = 1;
        # at theta = 0, S~_T is 1 on a surviving path and 0 in the cemetery
        base = tilt_model(kr_model, [1.0])
        opts = SimOptions(x0=[1.0], T=1.0, dt=2e-3, npaths=2000, seed=5)
        gap = martingale_gap(base, TiltSpec(theta=[0.0]), opts)
        ens = simulate_paths(base, opts)
        assert not ens.survived.all()
        assert gap.mean == float(ens.survived.mean()) == gap.survival_mean
        assert gap.stderr > 0.0
        assert abs(gap.mean - gap.predicted) <= 4.0 * gap.stderr
        assert gap.predicted == pytest.approx(0.857, abs=1e-3)

    def test_gap_refuses_plain_mean_after_exhausted_base_cascade(self):
        # about 2e4 constant-intensity jumps per base step exhaust the
        # cascade; the tilt at -1e4 leaves about one per step, so the
        # tilted paths do not
        m = AffineModel(shape=StateShape(0, 1), a=[[0.0]], b=[0.0],
                        mu0=CompoundPoissonPoint(rate=2e6, size=1e-3, axis=0))
        theta = [-1e4]
        spec = TiltSpec(theta=theta, l=eval_F(m, theta), lam=eval_R(m, theta))
        opts = SimOptions(x0=[0.0], T=0.01, dt=0.01, npaths=2, seed=0)
        assert not simulate_paths(tilt_model(m, theta), opts).exhausted.any()
        with pytest.raises(SolverError, match="base paths ran out of jump cascade rounds"):
            martingale_gap(m, spec, opts)

    def test_gap_refuses_survival_estimate_after_exhausted_cascade(self):
        # about 2e4 expected jumps in the single step: the cascade runs out
        # of rounds, so the survival of the tilted paths is unknown
        m = AffineModel(shape=StateShape(1, 0), a=[[0.0]], b=[0.0],
                        mus=(CompoundPoissonPoint(rate=2e6, size=1e-3, axis=0),))
        opts = SimOptions(x0=[1.0], T=0.01, dt=0.01, npaths=2, seed=0)
        with pytest.raises(SolverError, match="cascade rounds"):
            martingale_gap(m, TiltSpec(theta=[0.0]), opts)


class TestSubordinatorIncrements:
    @pytest.mark.parametrize("tempering", [0.0, 1.5])
    def test_increment_laplace_transform(self, tempering):
        # E[e^{-s Y}] = exp(-t 2 sqrt(pi) scale (sqrt(rho + s) - sqrt(rho)))
        mu = TemperedStableHalf(scale=0.3, tempering=tempering)
        n = 200_000
        u = np.random.default_rng(5).random((n, 2))
        for t in (0.01, 0.7):
            y = mu.increment(np.full(n, t), u)
            assert np.all(y >= 0.0)
            for s in (0.5, 3.0):
                vals = np.exp(-s * y)
                exact = math.exp(-t * 2.0 * math.sqrt(math.pi) * mu.scale
                                 * (math.sqrt(tempering + s) - math.sqrt(tempering)))
                se = vals.std(ddof=1) / math.sqrt(n)
                assert abs(vals.mean() - exact) <= 4 * se, (t, s)

    def test_zero_intensity_gives_zero_increment(self):
        mu = TemperedStableHalf(scale=0.3, tempering=0.0)
        u = np.array([[0.5, 0.5], [0.2, 0.9]])
        assert np.array_equal(mu.increment(np.zeros(2), u), np.zeros(2))

    def test_tilted_kr2014_survival_matches_closed_form(self, kr_model):
        # Q~(tau > T) = exp(x0 g(T)) with the minimal solution
        # g(t) = -(e^{-t/2} - 1)^2 of the tilted reduced system
        T = 2.0
        opts = SimOptions(x0=[1.0], T=T, dt=2e-3, npaths=20_000, seed=3, jump_trunc=1e-4)
        ens = simulate_paths(tilt_model(kr_model, [1.0]), opts)
        assert not ens.exhausted.any()
        q = float(ens.survived.mean())
        exact = math.exp(-(math.exp(-T / 2) - 1) ** 2)
        se = math.sqrt(q * (1 - q) / ens.npaths)
        assert abs(q - exact) <= 4 * se
        assert np.array_equal(ens.exploded, ~ens.survived)


class TestPathStatus:
    def test_cascade_crossing_the_cap_explodes_at_once(self):
        # one jump of size 1e13 crosses the cap and sets the intensity to
        # 5e14, which would run the cascade out of rounds if it went on
        m = AffineModel(shape=StateShape(1, 0), a=[[0.0]], b=[0.0],
                        mus=(CompoundPoissonPoint(rate=50.0, size=1e13, axis=0),))
        opts = SimOptions(x0=[1.0], T=0.01, dt=0.01, npaths=200, seed=0)
        ens = simulate_paths(m, opts)
        assert ens.exploded.any()
        assert not ens.exhausted.any()
        assert np.all(ens.terminal[ens.exploded] == 1.0)   # frozen at x0
        est = estimate_exp_moment(ens, [0.0])
        assert est.exploded_fraction == pytest.approx(ens.exploded.mean())
        # an exploded path counts as 0 (the cemetery), not as its frozen state
        assert est.mean == ens.survived.mean()

    def test_untempered_linear_jumps_do_not_stall(self, kr_model):
        # tilted kr2014 jumps by untempered linear 1/2-stable jumps; a
        # cascade over them ran out of rounds on 3 of these 200 paths
        opts = SimOptions(x0=[1.0], T=0.3, dt=2e-3, npaths=200, seed=0)
        ens = simulate_paths(tilt_model(kr_model, [1.0]), opts)
        assert not ens.exhausted.any()
        assert int(ens.survived.sum()) == 197

    def test_exhausted_cascade_is_not_an_explosion(self):
        m = AffineModel(shape=StateShape(1, 0), a=[[0.0]], b=[0.0],
                        mus=(CompoundPoissonPoint(rate=2e6, size=1e-3, axis=0),))
        opts = SimOptions(x0=[1.0], T=0.01, dt=0.01, npaths=2, seed=0)
        assert 2e6 * opts.dt > CASCADE_ROUND_CAP
        ens = simulate_paths(m, opts)
        assert ens.exhausted.all()
        assert not ens.survived.any()
        assert not ens.exploded.any()
        with pytest.raises(SolverError, match="cascade rounds"):
            estimate_exp_moment(ens, [0.0])
        with pytest.raises(SolverError, match="cascade rounds"):
            affine_formula_check(m, opts, [-1.0])


class TestSchemeInvariants:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_states_are_c_contiguous_path_major(self, feller_model, mixed_model, monkeypatch,
                                                workers):
        monkeypatch.setattr(montecarlo, "_workers", lambda npaths: workers)
        for model, x0 in ((feller_model, [1.0]), (mixed_model, [0.8, 0.5, -0.2])):
            ens = simulate_paths(model, SimOptions(x0=x0, T=0.37, dt=1e-2, npaths=31, seed=4))
            assert ens.states.shape == (31, ens.times.size, len(x0))
            assert ens.states.flags.c_contiguous
            assert np.array_equal(ens.states[:, 0], np.tile(x0, (31, 1)))

    def test_weak_order_dt_halving(self, feller_model):
        # discretization bias stays below one stderr when dt halves
        res = {}
        for dt in (2e-3, 1e-3):
            opts = SimOptions(x0=[1.0], T=1.0, dt=dt, npaths=100_000, seed=1)
            res[dt] = estimate_exp_moment(simulate_paths(feller_model, opts), [-0.5])
        assert abs(res[2e-3].mean - res[1e-3].mean) < res[1e-3].stderr

    @staticmethod
    def _means_by_truncation(model):
        """The ensembles and (mean, stderr) of X_T at jump_trunc 1e-3 and 1e-4."""
        res, ensembles = {}, {}
        for trunc in (1e-3, 1e-4):
            opts = SimOptions(x0=[1.0], T=1.0, dt=5e-3, npaths=20_000, seed=1,
                              jump_trunc=trunc)
            ens = ensembles[trunc] = simulate_paths(model, opts)
            XT = ens.terminal[ens.survived, 0]
            res[trunc] = (XT.mean(), XT.std(ddof=1) / math.sqrt(len(XT)))
        return ensembles, res

    def test_jump_truncation_consistency(self, kr_model):
        ensembles, res = self._means_by_truncation(kr_model)
        assert abs(res[1e-3][0] - res[1e-4][0]) < res[1e-4][1]
        # kr2014's tempered 1/2-stable jumps are exact, never truncated
        assert np.array_equal(ensembles[1e-3].states, ensembles[1e-4].states)
        assert np.array_equal(ensembles[1e-3].survived, ensembles[1e-4].survived)

    def test_gamma_jump_truncation_consistency(self):
        # a linear gamma source runs the cascade, so jump_trunc acts on it
        m = AffineModel(shape=StateShape(1, 0), a=[[0.0]], b=[0.2], alpha=[0.5],
                        beta_I=[[-0.7]], mus=(GammaLevy(c=0.3, rho=2.0, axis=0),))
        ensembles, res = self._means_by_truncation(m)
        assert abs(res[1e-3][0] - res[1e-4][0]) < res[1e-4][1]
        assert not np.array_equal(ensembles[1e-3].states, ensembles[1e-4].states)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SimOptions(x0=[1.0], T=1.0, dt=-0.1)
        for npaths in (0, 10.5, True):
            with pytest.raises(ConfigError, match="SimOptions.npaths must be a positive integer"):
                SimOptions(x0=[1.0], T=1.0, npaths=npaths)
        with pytest.raises(ConfigError):
            SimOptions(x0=[1.0], T=1.0, jump_trunc=2.0)

    def test_ensemble_summary_csv(self, feller_model, tmp_path):
        ens = simulate_paths(feller_model, SimOptions(x0=[1.0], T=0.25, dt=5e-3,
                                                      npaths=10, seed=0))
        out = tmp_path / "ensemble.csv"
        ens.summary_csv(str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "path,T,X_1,survived"
        assert len(lines) == 11
