"""Built-in models used by the CLI and the acceptance suite.

``feller``   square-root diffusion with constant drift: R(v) = v^2 - v,
             F(u) = 0.5 u.  Explodes in finite time for u > 1 with
             T*(u) = log(u / (u - 1)).
``kr2014``   scalar pure-jump model whose reduced field is exactly
             R(v) = 1 - v - sqrt(1 - v), driven by a tempered 1/2-stable
             state-linear jump measure.  F vanishes identically.  The field
             is non-Lipschitz at the domain boundary v = 1, where the
             constant solution coexists with a non-constant one.
``cir-jump`` the feller diffusion plus constant compound-Poisson jumps
             with exponential law.
"""

from __future__ import annotations

import math

from .errors import ConfigError
from .model import (
    AffineModel,
    CompoundPoissonExp,
    StateShape,
    TemperedStableHalf,
)

__all__ = ["feller", "kr2014", "cir_jump", "builtin_model", "BUILTIN_MODELS"]


def feller() -> AffineModel:
    return AffineModel(
        shape=StateShape(1, 0),
        a=[[0.0]],
        b=[0.5],
        alpha=[1.0],
        beta_I=[[-1.0]],
    )


def kr2014() -> AffineModel:
    # scale 1/(2 sqrt(pi)) normalizes the jump part of the reduced field to
    # 1 - sqrt(1 - v); the drift then absorbs the truncation constant so the
    # field is exactly 1 - v - sqrt(1 - v).
    scale = 0.5 / math.sqrt(math.pi)
    mu = TemperedStableHalf(scale=scale, tempering=1.0, axis=0)
    beta = mu.chi_integral() - 1.0
    return AffineModel(
        shape=StateShape(1, 0),
        a=[[0.0]],
        b=[0.0],
        alpha=[0.0],
        beta_I=[[beta]],
        mus=(mu,),
    )


def cir_jump() -> AffineModel:
    return AffineModel(
        shape=StateShape(1, 0),
        a=[[0.0]],
        b=[0.5],
        alpha=[1.0],
        beta_I=[[-1.0]],
        mu0=CompoundPoissonExp(rate=0.3, jump_rate=2.0, axis=0),
    )


BUILTIN_MODELS = {
    "feller": feller,
    "kr2014": kr2014,
    "cir-jump": cir_jump,
}


def builtin_model(name: str) -> AffineModel:
    try:
        return BUILTIN_MODELS[name]()
    except KeyError:
        raise ConfigError(f"unknown built-in model {name!r}; choose from {sorted(BUILTIN_MODELS)}")
