import numpy as np
import pytest

from affine_riccati import (
    AffineModel,
    CompoundPoissonExp,
    CompoundPoissonPoint,
    GammaLevy,
    StateShape,
    TemperedStableHalf,
    cir_jump,
    feller,
    kr2014,
)


@pytest.fixture
def feller_model():
    return feller()


@pytest.fixture
def kr_model():
    return kr2014()


@pytest.fixture
def cir_jump_model():
    return cir_jump()


@pytest.fixture
def acceptance_models():
    """The models every cross-cutting property suite runs over."""
    return {"feller": feller(), "kr2014": kr2014(), "cir-jump": cir_jump()}


@pytest.fixture
def exp_jump_model():
    """Scalar model with a unit-rate exponential linear jump measure."""
    return AffineModel(
        shape=StateShape(1, 0),
        a=[[0.0]],
        b=[0.1],
        alpha=[0.2],
        beta_I=[[-0.5]],
        mus=(CompoundPoissonExp(rate=1.0, jump_rate=1.0, axis=0),),
    )


@pytest.fixture
def mixed_model():
    """m = 1, n = 2 model exercising the J-block and a J-axis jump measure."""
    return AffineModel(
        shape=StateShape(1, 2),
        a=[[0.0, 0.0, 0.0], [0.0, 0.2, 0.05], [0.0, 0.05, 0.4]],
        b=[0.2, -0.1, 0.3],
        alpha=[0.5],
        beta_I=[[-0.7, 0.1, -0.2]],
        beta_JJ=[[-0.5, 0.2], [0.0, -0.3]],
        mu0=CompoundPoissonPoint(rate=0.4, size=-0.8, axis=2),
        mus=(GammaLevy(c=0.3, rho=2.0, axis=0),),
    )


@pytest.fixture
def analytic_measures():
    """Every built-in analytic family, placed on axis 0 of a scalar model."""
    return {
        "exp": CompoundPoissonExp(rate=0.7, jump_rate=1.5, axis=0),
        "point": CompoundPoissonPoint(rate=0.4, size=0.6, axis=0),
        "point-large": CompoundPoissonPoint(rate=0.2, size=2.5, axis=0),
        "gamma": GammaLevy(c=0.5, rho=2.0, axis=0),
        "stable": TemperedStableHalf(scale=0.3, tempering=1.2, axis=0),
        "stable-untempered": TemperedStableHalf(scale=0.3, tempering=0.0, axis=0),
    }


@pytest.fixture
def kr2014_pair_model():
    """Two independent kr2014 coordinates on R_+^2."""
    mu = kr2014().mus[0]
    mus = tuple(TemperedStableHalf(scale=mu.scale, tempering=1.0, axis=k) for k in range(2))
    beta = kr2014().beta_I[0, 0]
    return AffineModel(shape=StateShape(2, 0), a=np.zeros((2, 2)), b=[0.0, 0.0],
                       alpha=[0.0, 0.0], beta_I=[[beta, 0.0], [0.0, beta]], mus=mus)
