"""Command-line front end.

Subcommands
-----------
solve          integrate the Riccati system and write a trajectory CSV
conservative   conservativeness verdict (optionally of a tilted model)
martingale     classify the discounted exponential functional
simulate       simulate paths; plain summary or a martingale-gap report
check-formula  Monte Carlo check of the transform formula
export-model   write a built-in or parsed model back to a model file

Exit codes encode mathematical verdicts so shell pipelines can branch on
them: 0 success / Conservative / TrueMartingale, 1 usage error, 2 solver
termination before the horizon (blow-up or domain exit), 3 NonConservative
or StrictLocalMartingale, 4 Inconclusive, 5 NotApplicable or a flagged
Monte Carlo discrepancy.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import diagnostics, esscher, montecarlo
from .errors import AffineRiccatiError, ConfigError, DomainError
from .model import eval_F, eval_R
from .modelfile import _floats, load_model_file, write_model
from .presets import BUILTIN_MODELS, builtin_model
from .riccati import SolveOptions, solve_tilted

__all__ = ["main", "entrypoint"]


def _vector(text: str) -> np.ndarray:
    return _floats(text, "vector")


def _resolve_model(name: str):
    if name in BUILTIN_MODELS:
        return builtin_model(name)
    if os.path.exists(name):
        return load_model_file(name)
    raise ConfigError(f"--model must be a built-in name {sorted(BUILTIN_MODELS)} "
                      f"or a model file path, got {name!r}")


def _report(path: str, lines) -> None:
    """Write the report lines to path and print them."""
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")
    for line in lines:
        print(line)


# exit code of each conservativeness and martingale verdict kind
_VERDICT_EXIT = {"Conservative": 0, "TrueMartingale": 0, "NonConservative": 3,
                 "StrictLocalMartingale": 3, "Inconclusive": 4, "NotApplicable": 5}


def _report_verdict(args, verdict, lines) -> int:
    """Write verdict.txt and, with a witness, witness.csv; print; exit code."""
    _report(os.path.join(args.out, "verdict.txt"), lines)
    if verdict.witness is not None:
        verdict.witness.to_csv(os.path.join(args.out, "witness.csv"))
        print("witness_csv: witness.csv")
    return _VERDICT_EXIT[verdict.kind]


def _add_model_arg(p):
    p.add_argument("--model", required=True,
                   help="built-in model name or model file path")
    p.add_argument("--out", default=".", help="output directory")


def _add_ensemble_args(p, npaths: int):
    """The ensemble flags of simulate and check-formula (see _sim_opts)."""
    p.add_argument("--x0", required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--npaths", type=int, default=npaths)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jump-trunc", type=float, default=1e-3,
                   help="truncates the jumps of cascade sources (compound Poisson and "
                        "gamma); tempered 1/2-stable sources are exact and never truncated")


def _sim_opts(args):
    return montecarlo.SimOptions(x0=_vector(args.x0), T=args.T, dt=args.dt,
                                 npaths=args.npaths, seed=args.seed,
                                 jump_trunc=args.jump_trunc)


def _solver_opts(args, T):
    kw = {}
    if args.rtol is not None:
        kw["rtol"] = args.rtol
    if args.atol is not None:
        kw["atol"] = args.atol
    return SolveOptions(T=T, **kw)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="affine-riccati",
                                 description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="integrate the generalized Riccati system")
    _add_model_arg(p)
    p.add_argument("--u0", required=True, help="initial value (d comma-separated floats)")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--rtol", type=float, default=None)
    p.add_argument("--atol", type=float, default=None)
    p.add_argument("--l", type=float, default=None, help="constant discount (tilted system)")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="linear discount vector (tilted system)")

    p = sub.add_parser("conservative", help="decide conservativeness")
    _add_model_arg(p)
    p.add_argument("--tilt", default=None,
                   help="check the model tilted by this direction instead")

    p = sub.add_parser("martingale", help="classify the discounted exponential functional")
    _add_model_arg(p)
    p.add_argument("--theta", required=True)
    p.add_argument("--l", type=float, default=None, help="constant discount (default 0)")
    p.add_argument("--lambda", dest="lam", default=None, help="linear discount vector (default 0)")
    p.add_argument("--auto-discount", action="store_true",
                   help="set l = F(theta) and lambda = R(theta); excludes --l and --lambda")

    p = sub.add_parser("simulate", help="simulate paths")
    _add_model_arg(p)
    _add_ensemble_args(p, npaths=10_000)
    p.add_argument("--report", choices=["summary", "martingale-gap"], default="summary")
    p.add_argument("--theta", default=None, help="tilt direction for martingale-gap")
    p.add_argument("--l", type=float, default=None, help="martingale-gap only (default F(theta))")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="martingale-gap only (default R(theta))")

    p = sub.add_parser("check-formula", help="Monte Carlo check of the transform formula")
    _add_model_arg(p)
    p.add_argument("--u", required=True)
    _add_ensemble_args(p, npaths=100_000)

    p = sub.add_parser("export-model", help="write the model back to a model file")
    _add_model_arg(p)

    return ap


def _cmd_solve(args) -> int:
    model = _resolve_model(args.model)
    u0 = _vector(args.u0)
    # with neither discount given this is solve_riccati, bit for bit
    lam = _vector(args.lam) if args.lam is not None else np.zeros(model.shape.d)
    sol = solve_tilted(model, args.l or 0.0, lam, u0, _solver_opts(args, args.T))
    path = os.path.join(args.out, "trajectory.csv")
    sol.to_csv(path)
    print(f"wrote {path}  status={sol.status.label()}")
    return 0 if sol.status.reached_horizon else 2


def _cmd_conservative(args) -> int:
    model = _resolve_model(args.model)
    if args.tilt is not None:
        model = esscher.tilt_model(model, _vector(args.tilt))
    verdict = diagnostics.check_conservative(model)
    return _report_verdict(args, verdict, verdict.report_lines())


def _cmd_martingale(args) -> int:
    model = _resolve_model(args.model)
    theta = _vector(args.theta)
    if args.auto_discount:
        if args.l is not None or args.lam is not None:
            raise ConfigError("--auto-discount sets l and lambda; drop --l and --lambda")
        l = eval_F(model, theta)
        lam = eval_R(model, theta)
    else:
        l = args.l if args.l is not None else 0.0
        lam = _vector(args.lam) if args.lam is not None else np.zeros(model.shape.d)
    spec = esscher.TiltSpec(theta=theta, l=l, lam=lam)
    verdict = esscher.martingale_check(model, spec)
    return _report_verdict(args, verdict, verdict.report_lines(spec))


def _cmd_simulate(args) -> int:
    model = _resolve_model(args.model)
    opts = _sim_opts(args)
    if args.report == "summary" and any(x is not None for x in (args.theta, args.l, args.lam)):
        raise ConfigError("--theta, --l and --lambda apply to --report martingale-gap only")
    if args.report == "martingale-gap":
        if args.theta is None:
            raise ConfigError("--report martingale-gap requires --theta")
        theta = _vector(args.theta)
        l = args.l if args.l is not None else eval_F(model, theta)
        lam = _vector(args.lam) if args.lam is not None else eval_R(model, theta)
        spec = esscher.TiltSpec(theta=theta, l=l, lam=lam)
        report = montecarlo.martingale_gap(model, spec, opts)
        _report(os.path.join(args.out, "report.txt"), report.report_lines())
        return 0
    ens = montecarlo.simulate_paths(model, opts)
    path = os.path.join(args.out, "ensemble.csv")
    ens.summary_csv(path)
    print(f"wrote {path}  paths={ens.npaths}  survived={int(ens.survived.sum())}  "
          f"exploded={int(ens.exploded.sum())}  exhausted={int(ens.exhausted.sum())}")
    return 0


def _cmd_check_formula(args) -> int:
    model = _resolve_model(args.model)
    opts = _sim_opts(args)
    report = montecarlo.affine_formula_check(model, opts, _vector(args.u))
    _report(os.path.join(args.out, "report.txt"), report.report_lines())
    if not report.applicable:
        return 2
    return 5 if report.flagged else 0


def _cmd_export_model(args) -> int:
    model = _resolve_model(args.model)
    path = os.path.join(args.out, "model.ini")
    with open(path, "w") as fh:
        fh.write(write_model(model))
    print(f"wrote {path}")
    return 0


_DISPATCH = {
    "solve": _cmd_solve,
    "conservative": _cmd_conservative,
    "martingale": _cmd_martingale,
    "simulate": _cmd_simulate,
    "check-formula": _cmd_check_formula,
    "export-model": _cmd_export_model,
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the documented usage-error code is 1
        return 0 if exc.code == 0 else 1
    try:
        os.makedirs(args.out, exist_ok=True)
        return _DISPATCH[args.command](args)
    except (AffineRiccatiError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
