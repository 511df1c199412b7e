"""Affine Markov processes on R_+^m x R^n: generalized Riccati systems,
conservativeness diagnostics, Esscher tilting and Monte Carlo validation."""

from .errors import AffineRiccatiError, ConfigError, DomainError, SolverError
from .model import (
    AffineModel,
    CompoundPoissonExp,
    CompoundPoissonPoint,
    DomainY,
    ExpTiltedMeasure,
    GammaLevy,
    LevyMeasure,
    StateShape,
    TemperedStableHalf,
    ValidationReport,
    ZeroJumps,
    eval_F,
    eval_R,
    in_domain_Y,
    reduced_R,
    validate_model,
)
from .presets import builtin_model, cir_jump, feller, kr2014
from .riccati import (
    RiccatiSolution,
    SolveOptions,
    SolveStatus,
    blowup_time,
    solve_minimal,
    solve_reduced,
    solve_riccati,
    solve_tilted,
)
from .diagnostics import (
    ConservativenessVerdict,
    LipschitzCertificate,
    OsgoodCertificate,
    ReducedField,
    WitnessTrajectory,
    check_conservative,
    check_reduced_uniqueness,
    comparison_check,
)
from .esscher import MartingaleVerdict, TiltSpec, discounted_functional, martingale_check, tilt_model
from .montecarlo import (
    FormulaReport,
    GapReport,
    MomentEstimate,
    PathEnsemble,
    SimOptions,
    affine_formula_check,
    estimate_exp_moment,
    martingale_gap,
    simulate_paths,
)

__version__ = "0.1.0"
