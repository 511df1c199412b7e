"""Command-line interface: dispatch, files, exit codes, round trips."""

import hashlib
import math
import re

import numpy as np
import pytest

from affine_riccati import (
    AffineModel,
    CompoundPoissonExp,
    CompoundPoissonPoint,
    ConfigError,
    GammaLevy,
    StateShape,
    TemperedStableHalf,
    ZeroJumps,
)
from affine_riccati.cli import build_parser, main
from affine_riccati.modelfile import parse_model, write_model


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def read_csv_rows(path):
    rows = []
    status = None
    with open(path) as fh:
        header = fh.readline().strip()
        for line in fh:
            if line.startswith("#"):
                status = line.strip()
                break
            rows.append([float(x) for x in line.strip().split(",")])
    return header, np.array(rows), status


class TestSolve:
    def test_kr2014_trajectory_matches_closed_form(self, tmp_path):
        code = run(tmp_path, "solve", "--model", "kr2014", "--u0", "-1", "--T", "5")
        assert code == 0
        header, rows, status = read_csv_rows(tmp_path / "trajectory.csv")
        assert header == "t,psi_1,phi"
        assert status == "# status=Completed"
        ts, psi = rows[:, 0], rows[:, 1]
        exact = 1 - ((1 - math.sqrt(2.0)) * np.exp(-ts / 2) - 1) ** 2
        assert np.max(np.abs(psi - exact)) < 1e-6
        assert np.allclose(rows[:, 2], 0.0)  # F vanishes identically

    def test_feller_blowup_exit_code_and_footer(self, tmp_path):
        code = run(tmp_path, "solve", "--model", "feller", "--u0", "2", "--T", "1")
        assert code == 2
        _, _, status = read_csv_rows(tmp_path / "trajectory.csv")
        assert status is not None and status.startswith("# status=BlowUp t*")
        t_star = float(status.split("≈")[1])
        assert t_star == pytest.approx(math.log(2.0), rel=1e-3)

    def test_zero_initial_data_constant_column(self, tmp_path):
        code = run(tmp_path, "solve", "--model", "feller", "--u0", "0", "--T", "1")
        assert code == 0
        _, rows, _ = read_csv_rows(tmp_path / "trajectory.csv")
        assert np.allclose(rows[:, 1], 0.0)

    def test_discounted_solve_constant_at_matched_tilt(self, tmp_path):
        # l = F(0.5), lambda = R(0.5) for feller: psi stays at theta, phi at 0
        code = run(tmp_path, "solve", "--model", "feller", "--u0", "0.5", "--T", "2",
                   "--l", "0.25", "--lambda", "-0.25")
        assert code == 0
        _, rows, _ = read_csv_rows(tmp_path / "trajectory.csv")
        assert np.allclose(rows[:, 1], 0.5, atol=1e-10)
        assert np.allclose(rows[:, 2], 0.0, atol=1e-10)

    def test_malformed_vector_is_usage_error(self, tmp_path):
        assert run(tmp_path, "solve", "--model", "feller", "--u0", "zzz", "--T", "1") == 1

    def test_unknown_model_is_usage_error(self, tmp_path):
        assert run(tmp_path, "solve", "--model", "nope", "--u0", "0", "--T", "1") == 1

    def test_tolerance_flags_reach_the_solver(self, tmp_path):
        from affine_riccati import SolveOptions, feller, solve_riccati
        loose = SolveOptions(T=1.0, rtol=1e-4, atol=1e-6)
        want = solve_riccati(feller(), [-1.0], loose)
        assert len(want.ts) != len(solve_riccati(feller(), [-1.0], SolveOptions(T=1.0)).ts)
        code = run(tmp_path, "solve", "--model", "feller", "--u0", "-1", "--T", "1",
                   "--rtol", "1e-4", "--atol", "1e-6")
        assert code == 0
        _, rows, _ = read_csv_rows(tmp_path / "trajectory.csv")
        assert np.array_equal(rows[:, 0], want.ts)
        assert np.array_equal(rows[:, 1], want.psi[:, 0])

    def test_non_finite_horizon_is_usage_error(self, tmp_path, capsys):
        assert run(tmp_path, "solve", "--model", "feller", "--u0", "0.5", "--T", "nan") == 1
        assert "SolveOptions.T must be finite" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()


class TestConservative:
    def test_kr2014_conservative(self, tmp_path):
        assert run(tmp_path, "conservative", "--model", "kr2014") == 0
        text = (tmp_path / "verdict.txt").read_text()
        assert "kind: Conservative" in text
        assert "certificate:" in text

    def test_feller_conservative(self, tmp_path):
        assert run(tmp_path, "conservative", "--model", "feller") == 0

    def test_tilted_kr2014_non_conservative_with_witness(self, tmp_path):
        assert run(tmp_path, "conservative", "--model", "kr2014", "--tilt", "1") == 3
        assert "kind: NonConservative" in (tmp_path / "verdict.txt").read_text()
        header, rows, footer = read_csv_rows(tmp_path / "witness.csv")
        assert header == "t,psi_1,phi"
        exact = -((np.exp(-rows[:, 0] / 2) - 1) ** 2)
        assert np.max(np.abs(rows[:, 1] - exact)) < 1e-6
        assert re.fullmatch(r"# status=Witness residual=\d\.\d{3}e-\d+ source=osgood-inversion",
                            footer)
        lines = (tmp_path / "witness.csv").read_text().splitlines()[1:-1]
        assert all(line.rsplit(",", 1)[1] == "0" for line in lines)

    def test_ignored_tolerance_flags_are_rejected(self, tmp_path):
        assert run(tmp_path, "conservative", "--model", "kr2014", "--rtol", "1e-6") == 1


class TestMartingale:
    def test_kr2014_strict_local(self, tmp_path):
        code = run(tmp_path, "martingale", "--model", "kr2014",
                   "--theta", "1", "--l", "0", "--lambda", "0")
        assert code == 3
        assert "kind: StrictLocalMartingale" in (tmp_path / "verdict.txt").read_text()
        assert (tmp_path / "witness.csv").exists()

    def test_feller_auto_discount_true_martingale(self, tmp_path):
        code = run(tmp_path, "martingale", "--model", "feller",
                   "--theta", "0.5", "--auto-discount")
        assert code == 0
        assert "kind: TrueMartingale" in (tmp_path / "verdict.txt").read_text()

    @pytest.mark.parametrize("flags, name", [
        (("--l", "nan", "--lambda", "nan"), "l"),
        (("--l", "0.25", "--lambda", "nan"), "lam"),
    ])
    def test_nan_discount_is_usage_error(self, tmp_path, capsys, flags, name):
        code = run(tmp_path, "martingale", "--model", "feller", "--theta", "0.5", *flags)
        assert code == 1
        assert f"TiltSpec.{name} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "verdict.txt").exists()

    def test_wrong_discount_not_applicable(self, tmp_path):
        code = run(tmp_path, "martingale", "--model", "feller",
                   "--theta", "0.5", "--l", "99", "--lambda", "0")
        assert code == 5
        assert "failed_condition: F(theta) = l" in (tmp_path / "verdict.txt").read_text()


class TestSimulateAndFormula:
    def test_simulate_summary(self, tmp_path):
        code = run(tmp_path, "simulate", "--model", "feller", "--x0", "1", "--T", "0.5",
                   "--npaths", "50", "--dt", "0.005", "--seed", "7")
        assert code == 0
        lines = (tmp_path / "ensemble.csv").read_text().strip().splitlines()
        assert lines[0] == "path,T,X_1,survived"
        assert len(lines) == 51

    def test_check_formula_zero_u_exact(self, tmp_path):
        code = run(tmp_path, "check-formula", "--model", "feller", "--u", "0",
                   "--T", "1", "--x0", "1", "--npaths", "100", "--dt", "0.01",
                   "--seed", "7")
        assert code == 0
        text = (tmp_path / "report.txt").read_text()
        assert "z: 0" in text

    def test_check_formula_blowup_not_applicable(self, tmp_path):
        code = run(tmp_path, "check-formula", "--model", "feller", "--u", "2",
                   "--T", "1", "--x0", "1", "--npaths", "10", "--dt", "0.01",
                   "--seed", "7")
        assert code == 2
        assert "applicable: no" in (tmp_path / "report.txt").read_text()

    def test_martingale_gap_report(self, tmp_path):
        code = run(tmp_path, "simulate", "--model", "kr2014", "--x0", "1", "--T", "1",
                   "--npaths", "500", "--dt", "0.01", "--seed", "7",
                   "--report", "martingale-gap", "--theta", "1")
        assert code == 0
        text = (tmp_path / "report.txt").read_text()
        assert "martingale_value:" in text
        assert "predicted:" in text
        keys = [line.split(":")[0] for line in text.splitlines()]
        assert keys == ["mean", "stderr", "predicted", "martingale_value",
                        "excludes_martingale", "z_vs_predicted",
                        "survival_mean", "survival_stderr"]
        values = dict(line.split(": ") for line in text.splitlines())
        assert 0.0 < float(values["survival_mean"]) < math.e
        assert float(values["survival_stderr"]) > 0.0


    def test_martingale_gap_requires_theta(self, tmp_path, capsys):
        code = run(tmp_path, "simulate", "--model", "kr2014", "--x0", "1", "--T", "0.1",
                   "--npaths", "10", "--dt", "0.01", "--report", "martingale-gap")
        assert code == 1
        assert "--report martingale-gap requires --theta" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, name", [(("--l", "nan"), "l"), (("--lambda", "nan"), "lam")])
    def test_martingale_gap_nan_discount_is_usage_error(self, tmp_path, capsys, flags, name):
        code = run(tmp_path, "simulate", "--model", "feller", "--x0", "1", "--T", "0.1",
                   "--npaths", "10", "--dt", "0.01", "--report", "martingale-gap",
                   "--theta", "0.5", *flags)
        assert code == 1
        assert f"TiltSpec.{name} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "report.txt").exists()


class TestNonFiniteSimulation:
    @pytest.mark.parametrize("flag, name", [("--T", "T"), ("--dt", "dt")])
    def test_nan_is_usage_error(self, tmp_path, capsys, flag, name):
        args = {"--T": "0.1", "--dt": "0.01", flag: "nan"}
        code = run(tmp_path, "simulate", "--model", "feller", "--x0", "1", "--npaths", "10",
                   *[tok for item in args.items() for tok in item])
        assert code == 1
        assert f"SimOptions.{name} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "-4294967296"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, seed):
        code = run(tmp_path, "simulate", "--model", "feller", "--x0", "1", "--npaths", "10",
                   "--T", "0.1", "--dt", "0.01", "--seed", seed)
        assert code == 1
        assert "SimOptions.seed must be a nonnegative integer" in capsys.readouterr().err


class TestExportAndRoundTrip:
    def test_export_reparses_identically(self, tmp_path):
        assert run(tmp_path, "export-model", "--model", "cir-jump") == 0
        from affine_riccati.modelfile import load_model_file
        from affine_riccati.presets import cir_jump
        m1, m2 = cir_jump(), load_model_file(str(tmp_path / "model.ini"))
        assert np.array_equal(m1.a, m2.a)
        assert np.array_equal(m1.b, m2.b)
        assert np.array_equal(m1.beta_I, m2.beta_I)
        assert np.array_equal(m1.alpha, m2.alpha)
        assert m1.c == m2.c
        assert m1.mu0 == m2.mu0
        assert m1.mus == m2.mus

    def test_kr2014_round_trip_preserves_measure(self, tmp_path):
        assert run(tmp_path, "export-model", "--model", "kr2014") == 0
        from affine_riccati.modelfile import load_model_file
        from affine_riccati.presets import kr2014
        m1, m2 = kr2014(), load_model_file(str(tmp_path / "model.ini"))
        assert m1.mus == m2.mus
        assert np.array_equal(m1.beta_I, m2.beta_I)

    @pytest.mark.parametrize("family, mu", [
        ("zero", ZeroJumps()),
        ("exp", CompoundPoissonExp(rate=0.7, jump_rate=1 / 3, axis=0)),
        ("point", CompoundPoissonPoint(rate=0.4, size=1.5, axis=0)),
        ("gamma", GammaLevy(c=0.1, rho=2.0, axis=0)),
        ("stable", TemperedStableHalf(scale=0.3, tempering=0.7, axis=0)),
    ])
    def test_every_family_round_trips(self, family, mu):
        model = AffineModel(shape=StateShape(1, 1), a=[[0.0, 0.0], [0.0, 0.2]], b=[0.5, 0.1],
                            alpha=[1.0], beta_I=[[-1.0, 0.3]], beta_JJ=[[-0.4]],
                            mu0=mu, mus=(mu,))
        text = write_model(model)
        assert f"family = {family}" in text
        again = parse_model(text)
        assert again.mu0 == mu and again.mus == (mu,)
        assert write_model(again) == text

    def test_model_file_usable_by_solve(self, tmp_path):
        run(tmp_path, "export-model", "--model", "feller")
        code = main(["solve", "--model", str(tmp_path / "model.ini"),
                     "--u0", "-1", "--T", "1", "--out", str(tmp_path)])
        assert code == 0


# model files with one malformed entry each, and the section and key named
MALFORMED = {
    "non-numeric value": ("[shape]\nm = 1\nn = 0\n[drift]\nb = abc\n", "[drift] b"),
    "non-numeric axis": ("[shape]\nm = 1\nn = 0\n[jumps.constant]\nfamily = exp\n"
                         "axis = x\nrate = 1\njump_rate = 2\n", "[jumps.constant] axis"),
    "missing n": ("[shape]\nm = 1\n", "[shape] n"),
    "missing family parameter": ("[shape]\nm = 1\nn = 0\n[jumps.constant]\nfamily = exp\n"
                                 "rate = 1\n", "[jumps.constant] jump_rate"),
}


class TestMalformedModelFile:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_parse_model_raises_config_error(self, case):
        text, where = MALFORMED[case]
        with pytest.raises(ConfigError, match=re.escape(where)):
            parse_model(text)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_cli_reports_usage_error(self, tmp_path, capsys, case):
        path = tmp_path / "model.ini"
        path.write_text(MALFORMED[case][0])
        assert run(tmp_path, "solve", "--model", str(path), "--u0", "0", "--T", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and MALFORMED[case][1] in err
        assert "Traceback" not in err


def test_overflowing_start_is_usage_error(tmp_path, capsys):
    # u0 = 500 lies in Y (point jumps admit every exponent), but e^{500 * 1.5}
    # overflows, so the field is undefined at the start
    model = AffineModel(shape=StateShape(1, 0), a=[[0.0]], b=[0.0], alpha=[0.0],
                        beta_I=[[-1.0]], mus=(CompoundPoissonPoint(rate=0.4, size=1.5, axis=0),))
    path = tmp_path / "point.ini"
    path.write_text(write_model(model))
    assert run(tmp_path, "solve", "--model", str(path), "--u0", "500", "--T", "1") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_overflowing_tilt_is_usage_error(tmp_path, capsys):
    # theta = 500 lies in Y, but the tilted rate 0.4 e^{500 * 1.5} overflows
    model = AffineModel(shape=StateShape(1, 0), a=[[0.0]], b=[0.0], alpha=[0.0],
                        beta_I=[[-1.0]], mus=(CompoundPoissonPoint(rate=0.4, size=1.5, axis=0),))
    path = tmp_path / "point.ini"
    path.write_text(write_model(model))
    assert run(tmp_path, "conservative", "--model", str(path), "--tilt", "500") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


class TestCLIContract:
    def test_unknown_flag_is_hard_error(self, tmp_path):
        assert run(tmp_path, "solve", "--model", "feller", "--u0", "0",
                   "--T", "1", "--bogus") == 1

    def test_help_lists_documented_flags(self, capsys):
        parser = build_parser()
        for sub, flags in {
            "solve": ["--model", "--u0", "--T", "--rtol", "--atol", "--out"],
            "martingale": ["--theta", "--l", "--lambda", "--auto-discount"],
            "simulate": ["--x0", "--npaths", "--dt", "--seed", "--jump-trunc",
                         "--report"],
            "check-formula": ["--u", "--x0", "--npaths"],
        }.items():
            with pytest.raises(SystemExit):
                parser.parse_args([sub, "--help"])
            text = capsys.readouterr().out
            for flag in flags:
                assert flag in text, (sub, flag)

    def test_idempotent_rerun_bit_identical(self, tmp_path):
        args = ["simulate", "--model", "cir-jump", "--x0", "1", "--T", "0.25",
                "--npaths", "40", "--dt", "0.005", "--seed", "3"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        main([*args, "--out", str(d1)])
        main([*args, "--out", str(d2)])
        h1 = hashlib.sha256((d1 / "ensemble.csv").read_bytes()).hexdigest()
        h2 = hashlib.sha256((d2 / "ensemble.csv").read_bytes()).hexdigest()
        assert h1 == h2
