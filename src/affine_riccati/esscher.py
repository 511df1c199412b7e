"""Exponential tilting of affine models and the martingale classification.

For a tilt direction theta in Y the tilted model has characteristics

    F~(u) = F(u + theta) - F(theta),      R~(u) = R(u + theta) - R(theta)

with real domain Y - theta.  The tilt is constructed parametrically so the
tilted model is again a member of the model class and can be fed to every
other module: the diffusion blocks are unchanged, the drifts pick up
2 a theta plus the truncation correction int chi(xi)(e^{<theta,xi>} - 1) mu,
the jump measures become e^{<theta,xi>} mu(dxi) (closed within each built-in
family, quadrature wrapper otherwise), and the killing vanishes so that
F~(0) = 0 and R~(0) = 0 hold by construction.

The discounted exponentially affine functional

    S~_t = exp(-int_0^t (l + <lambda, X_s>) ds + <theta, X_t>)

is a true martingale exactly when theta in Y, F(theta) = l, R(theta) = lambda
and the tilted model is conservative; when the tilted reduced system admits a
non-trivial solution g~ from 0, S~ is a strict local martingale and
zeta(t) = g~(t) + theta is a non-constant solution of the discounted Riccati
system with zeta(0) = theta.

``discounted_functional`` evaluates S~_T on time-gridded paths, with the
trapezoidal rule for the integral.  The plain mean that
``montecarlo.martingale_gap`` reports averages ``discounted_functional`` over
every path of the base model, an exploded path counting as S~_T = 0 (the
cemetery convention).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diagnostics import (
    CONSERVATIVE,
    NON_CONSERVATIVE,
    ConservativenessVerdict,
    WitnessTrajectory,
    check_conservative,
)
from .errors import ConfigError, DomainError, SolverError
from .model import AffineModel, ExpTiltedMeasure, eval_F, eval_R, in_domain_Y
from .riccati import _real_finite

__all__ = [
    "TiltSpec",
    "MartingaleVerdict",
    "tilt_model",
    "martingale_check",
    "discounted_functional",
    "IDENTITY_TOL",
]

# Tolerance of the algebraic identities F(theta) = l, R(theta) = lambda.
# Fixed (not configurable) so verdicts are reproducible.
IDENTITY_TOL = 1e-9

TRUE_MARTINGALE = "TrueMartingale"
STRICT_LOCAL_MARTINGALE = "StrictLocalMartingale"
NOT_APPLICABLE = "NotApplicable"
INCONCLUSIVE_MG = "Inconclusive"


@dataclass(frozen=True)
class TiltSpec:
    """Tilt direction theta and linear discount L(x) = l + <lambda, x>."""

    theta: np.ndarray
    l: float = 0.0
    lam: np.ndarray = None

    def __post_init__(self):
        theta = np.atleast_1d(_real_finite(self.theta, "TiltSpec.theta", np.shape(self.theta)))
        l = float(_real_finite(self.l, "TiltSpec.l", ()))
        lam = np.zeros_like(theta) if self.lam is None else \
            _real_finite(self.lam, "TiltSpec.lam", theta.shape)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "l", l)


@dataclass(frozen=True)
class MartingaleVerdict:
    kind: str
    failed_condition: Optional[str] = None
    witness: Optional[WitnessTrajectory] = None
    tilted_verdict: Optional[ConservativenessVerdict] = None
    reason: Optional[str] = None

    def report_lines(self, spec: Optional[TiltSpec] = None):
        lines = [f"kind: {self.kind}"]
        if spec is not None:
            lines.append("theta: " + " ".join(f"{x:.17g}" for x in spec.theta))
            lines.append(f"l: {spec.l:.17g}")
            lines.append("lambda: " + " ".join(f"{x:.17g}" for x in spec.lam))
        if self.failed_condition:
            lines.append(f"failed_condition: {self.failed_condition}")
        if self.witness is not None:
            lines.append(f"witness: zeta(0)=theta trajectory, sup deviation "
                         f"{self.witness.max_norm:.6g}, residual {self.witness.residual:.3e}")
        if self.tilted_verdict is not None:
            lines.append(f"tilted_verdict: {self.tilted_verdict.kind}")
        if self.reason:
            lines.append(f"reason: {self.reason}")
        return lines


def _tilt_measure(mu, theta_axis: float):
    try:
        return mu.tilted(theta_axis)
    except NotImplementedError:
        return ExpTiltedMeasure(mu, theta_axis)


def tilt_model(model: AffineModel, theta) -> AffineModel:
    """The exponentially tilted model with characteristics shifted by theta."""
    d, m = model.shape.d, model.shape.m
    theta = _real_finite(theta, "theta", d)
    if not in_domain_Y(model, theta):
        raise DomainError("tilt direction theta outside the effective domain Y")

    mu0_t = model.mu0 if model.mu0.is_zero else _tilt_measure(model.mu0, theta[model.mu0.axis])
    b_t = model.b + 2.0 * (model.a @ theta)
    if not model.mu0.is_zero:
        corr = mu0_t.chi_integral() - model.mu0.chi_integral()
        b_t = b_t.copy()
        b_t[model.mu0.axis] += corr

    beta_t = np.array(model.beta_I, copy=True)
    mus_t = []
    for i in range(m):
        beta_t[i, i] += 2.0 * model.alpha[i] * theta[i]
        mu = model.mus[i]
        if mu.is_zero:
            mus_t.append(mu)
            continue
        mu_t = _tilt_measure(mu, theta[mu.axis])
        mus_t.append(mu_t)
        if model.measure_compensated(i):
            beta_t[i, mu.axis] += mu_t.chi_integral() - mu.chi_integral()

    return AffineModel(
        shape=model.shape,
        a=model.a,
        b=b_t,
        c=0.0,
        mu0=mu0_t,
        alpha=model.alpha,
        beta_I=beta_t,
        gamma=np.zeros(m),
        mus=tuple(mus_t),
        beta_JJ=model.beta_JJ,
    )


def _identity_failure(model: AffineModel, spec: TiltSpec):
    """(condition, reason) of the first of F(theta) = l, R(theta) = lambda
    that fails at the relative tolerance IDENTITY_TOL, or None."""
    theta = spec.theta.reshape(model.shape.d)
    lam = spec.lam.reshape(model.shape.d)
    F_theta = eval_F(model, theta)
    R_theta = eval_R(model, theta)
    # written so that a NaN on either side fails the identity
    if not abs(F_theta - spec.l) <= IDENTITY_TOL * (1.0 + abs(spec.l)):
        return "F(theta) = l", f"F(theta)={F_theta:.12g} differs from l={spec.l:.12g}"
    R_tol = IDENTITY_TOL * (1.0 + float(np.linalg.norm(lam)))
    if not float(np.linalg.norm(R_theta - lam)) <= R_tol:
        return "R(theta) = lambda", "R(theta) differs from lambda"
    return None


def martingale_check(model: AffineModel, spec: TiltSpec) -> MartingaleVerdict:
    """Classify the discounted exponential functional for (theta, l, lambda).

    The classification concerns processes started in the interior of the
    state space; the check itself is independent of the starting point, so
    the interior-start requirement is documented rather than enforced.
    """
    theta = _real_finite(spec.theta, "TiltSpec.theta", model.shape.d)

    base = check_conservative(model)
    if not base.conservative:
        return MartingaleVerdict(kind=NOT_APPLICABLE,
                                 failed_condition="base model conservative",
                                 reason=f"base conservativeness verdict: {base.kind}")

    if not in_domain_Y(model, theta):
        return MartingaleVerdict(kind=NOT_APPLICABLE, failed_condition="theta in Y")

    failed = _identity_failure(model, spec)
    if failed is not None:
        condition, reason = failed
        return MartingaleVerdict(kind=NOT_APPLICABLE, failed_condition=condition, reason=reason)

    try:
        tilted = tilt_model(model, theta)
        tverdict = check_conservative(tilted)
    except (SolverError, DomainError) as exc:
        return MartingaleVerdict(kind=INCONCLUSIVE_MG, reason=f"tilted check failed: {exc}")

    if tverdict.kind == CONSERVATIVE:
        return MartingaleVerdict(kind=TRUE_MARTINGALE, tilted_verdict=tverdict)
    if tverdict.kind == NON_CONSERVATIVE and tverdict.witness is not None:
        # map the tilted witness back: zeta = g~ + theta (J-components constant)
        m = model.shape.m
        zeta = np.tile(theta, (len(tverdict.witness.ts), 1))
        zeta[:, :m] += tverdict.witness.values
        witness = WitnessTrajectory(ts=tverdict.witness.ts, values=zeta,
                                    residual=tverdict.witness.residual,
                                    source=tverdict.witness.source)
        return MartingaleVerdict(kind=STRICT_LOCAL_MARTINGALE, witness=witness,
                                 tilted_verdict=tverdict)
    return MartingaleVerdict(kind=INCONCLUSIVE_MG, tilted_verdict=tverdict,
                             reason=tverdict.reason or "tilted verdict inconclusive")


def discounted_functional(spec: TiltSpec, ts, states) -> np.ndarray:
    """S~_T = exp(-int_0^T (l + <lambda, X_s>) ds + <theta, X_T>) per path.

    ``states`` is one path as (k, d) rows or a stack of paths as
    (npaths, k, d), on the k times ``ts``.  The integral is the trapezoidal
    rule on that grid.  Returns one value per path.  Raises ConfigError when
    the shapes do not fit together.
    """
    ts = np.asarray(ts, dtype=float)
    states = np.asarray(states, dtype=float)
    if states.ndim == 2:
        states = states[None]
    d = spec.theta.size
    if not (ts.ndim == 1 and ts.size and states.ndim == 3 and states.shape[1:] == (ts.size, d)):
        raise ConfigError(f"states must be (k, {d}) or (npaths, k, {d}) rows "
                          "on the k times of ts")
    L = spec.l + states @ spec.lam.reshape(d)
    # one sum over the grid: a cumulative sum rounds differently
    integral = np.sum(0.5 * (L[:, 1:] + L[:, :-1]) * np.diff(ts), axis=1)
    return np.exp(-integral + states[:, -1, :] @ spec.theta.reshape(d))
