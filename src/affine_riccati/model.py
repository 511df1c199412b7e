"""Affine model parametrization on the state space D = R_+^m x R^n.

An affine model is described by its functional characteristics

    F(u) = <a u, u> + <b, u> - c + int (e^{<u,xi>} - 1 - <chi(xi), u>) mu_0(dxi)
    R_i(u) = alpha_i u_i^2 + <beta_i, u> - gamma_i
             + int (e^{<u,xi>} - 1 - <chi_i(xi), u>) mu_i(dxi)      (i = 1..m)
    R_j(u) = (beta_JJ^T u_J)_j                                      (j = m+1..d)

with componentwise truncation chi(xi)_j = sign(xi_j) (|xi_j| ^ 1).  For the
state-linear components the truncation chi_i zeroes the coordinates in
I \\ {i}; jumps in those coordinates enter uncompensated.

Jump measures are closed scalar families supported on a single coordinate
axis of D \\ {0}.  Every built-in family carries closed-form expressions for
its Levy-Khintchine integral and its exponential tilt; a quadrature-backed
wrapper covers the tilt of anything else.  The state-linear
measures are admissible whenever they integrate
(||xi_{I\\{i}}|| ^ 1)(||xi_{J u {i}}|| ^ 1)^2 near the origin, which every
family below satisfies.

The effective domain

    Y = { y in R^d : sum_i int_{||xi|| >= 1} e^{<y, xi>} mu_i(dxi) < oo }

is order preserving for the cone order of R_+^m x R^n: membership is
monotone decreasing in the I-coordinates and depends on the J-coordinates
only through the measures supported there.

Each family states its exponential range once, as ``exp_bound`` and
``bound_closed`` (a custom subclass must state both).  Membership of Y, the
domain errors of the Levy-Khintchine integral and tilt admissibility all
follow from that range through ``LevyMeasure.admits``, not from integrals.

``eval_F``, ``eval_R`` and ``LevyMeasure.lk_integral`` take one point.
``reduced_R`` alone also takes a stack of real rows, an (N, m) array (the
witness grid of ``ode_residual``), and returns one value per row with the
bits of N point calls, up to the sign of a NaN: of a sum of two NaNs,
numpy's array and scalar additions keep different ones.  A family's
``_mgf_integral`` then sees an array of axis values; one that rejects
arrays (by raising) is evaluated row by row by ``ode_residual``.
"""

from __future__ import annotations

import cmath
import contextvars
import math
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy import integrate as _sint
from scipy import special as _sp

from .errors import ConfigError, DomainError

__all__ = [
    "StateShape",
    "LevyMeasure",
    "ZeroJumps",
    "CompoundPoissonExp",
    "CompoundPoissonPoint",
    "GammaLevy",
    "TemperedStableHalf",
    "ExpTiltedMeasure",
    "DomainY",
    "AffineModel",
    "ValidationReport",
    "validate_model",
    "eval_F",
    "eval_R",
    "reduced_R",
    "in_domain_Y",
]

_INF = math.inf

# Quadrature of the wrapper measure (ExpTiltedMeasure).  Improper
# integrals are split at xi = 1 to mirror the definition of Y; integrals
# whose magnitude exceeds the cap are reported as infinite.
QUAD_ABS_TOL = 1e-10
QUAD_MAGNITUDE_CAP = 1e12

# True while a run of field evaluations holds one np.errstate (see
# quiet_fp); eval_F and eval_R then skip entering their own.
_FP_QUIET = contextvars.ContextVar("affine_riccati_fp_quiet", default=False)


@contextmanager
def quiet_fp():
    """Silence floating-point warnings for a whole run of field evaluations.

    The Riccati stepper holds this for a whole solve, so that eval_F, eval_R
    and reduced_R do not enter an np.errstate of their own per call.  The
    flag is a context variable, so other threads keep their own state.
    """
    token = _FP_QUIET.set(True)
    try:
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            yield
    finally:
        _FP_QUIET.reset(token)


def _rate_exp(rate: float, x: float) -> float:
    """rate * e^x, +inf where it overflows a float (a zero rate stays zero)."""
    try:
        return rate * math.exp(x)
    except OverflowError:
        return _INF if rate else rate


def _admitted(s, bound, closed) -> bool:
    """Whether s lies in the exponential range (bound, closed)."""
    return s < bound or (closed and s == bound)


def _all_admitted(s, bound, closed) -> bool:
    """Whether every entry of the real array s lies in the range (bound, closed).

    A Python loop: it reads each entry as ``_admitted`` does.
    """
    return all([x < bound or (closed and x == bound) for x in s.tolist()])


_OUTSIDE_RANGE = "u outside the effective domain of the jump measure"
_NOT_FINITE = "jump integral not finite at u"


def _is_complex(x) -> bool:
    """np.iscomplexobj for arrays, numpy scalars and Python numbers, by dtype."""
    try:
        return x.dtype.kind == "c"
    except AttributeError:
        return isinstance(x, complex)


@dataclass(frozen=True)
class StateShape:
    """Coordinate split of the canonical state space R_+^m x R^n."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ConfigError("state shape requires m >= 0 and n >= 0")
        if self.m + self.n < 1:
            raise ConfigError("state shape requires d = m + n >= 1")

    @property
    def d(self) -> int:
        return self.m + self.n

    @property
    def I(self) -> range:  # noqa: E743 - index-set name
        """0-based indices of the nonnegative coordinates."""
        return range(self.m)

    @property
    def J(self) -> range:
        """0-based indices of the unconstrained coordinates."""
        return range(self.m, self.m + self.n)


# ---------------------------------------------------------------------------
# Lévy measure families
# ---------------------------------------------------------------------------


class LevyMeasure:
    """A jump measure supported on one coordinate axis of D \\ {0}.

    A subclass states its exponential range, ``exp_bound`` and
    ``bound_closed``, and implements the scalar primitives in the axis
    variable: ``_mgf_integral``, ``_mgf_derivative``, ``tail_mass`` and
    ``mean_below``.  Path simulation by the jump cascade also needs
    ``tail_proposal``; tilting needs ``_tilted``, or ``density`` for the
    quadrature-backed ExpTiltedMeasure.  The base class lifts the primitives
    to d-vector arguments and provides shared identities such as
    CHI = int (xi ^ 1) mu(dxi) = mean_below(1) + tail_mass(1) for
    positive-support families.

    Membership of Y, the DomainError of ``lk_integral`` and
    ``lk_derivative`` and the admissibility of ``tilted`` all follow from the
    range; the scalar primitives see only admitted s.

    ``lk_integral`` and the model's point closures share one point form per
    (compensated, dtype kind), ``_point_form``: the range test, the family's
    ``_point_mgf`` and the overflow test, with the axis, the range and CHI
    bound.  A family's ``_point_mgf`` binds its closed form with the bits of
    ``_mgf_integral``; without one the form calls ``_mgf_integral``.

    Measures are immutable after construction: derived constants such as
    CHI and the point forms are computed once and kept on the instance, so
    a subclass must not change its parameters after it is built.
    """

    axis: Optional[int] = None

    # -- scalar primitives (axis variable), called inside the range ---------

    def _mgf_integral(self, s):
        """int (e^{s xi} - 1) mu(dxi)."""
        raise NotImplementedError

    def _mgf_derivative(self, s):
        """d/ds of _mgf_integral = int xi e^{s xi} mu(dxi)."""
        raise NotImplementedError

    def tail_mass(self, eps: float) -> float:
        """mu({|xi| >= eps})."""
        raise NotImplementedError

    def mean_below(self, eps: float) -> float:
        """int_{0 < xi < eps} xi mu(dxi) (positive-support families)."""
        raise NotImplementedError

    def tail_proposal(self, eps: float, u: np.ndarray) -> np.ndarray:
        """Jump sizes of the tail law mu restricted to {|xi| >= eps}, one per
        row of uniforms, by inverse CDF of the first column.

        The simulator's jump cascade samples compound-Poisson and gamma
        sources with it.  The tempered 1/2-stable family is simulated by its
        exact ``increment`` instead and has no tail proposal.
        """
        raise NotImplementedError

    def tilted(self, theta: float) -> "LevyMeasure":
        """The exponentially tilted measure e^{theta xi} mu(dxi)."""
        if not self.admits(theta):
            raise DomainError("tilt parameter outside the exponential range of the measure")
        return self._tilted(theta)

    def _tilted(self, theta: float) -> "LevyMeasure":
        """The family's closed form of the tilt, for an admitted theta."""
        raise NotImplementedError

    def density(self, xi: np.ndarray) -> np.ndarray:
        """Lebesgue density on (0, oo); atom families raise instead."""
        raise NotImplementedError

    def atoms(self):
        """[(location, mass)] for purely atomic families, else None."""
        return None

    def validate(self):
        """Violations of the family's parameter constraints; none by default."""
        return []

    # -- admissible exponential range --------------------------------------

    @property
    def exp_bound(self) -> float:
        """Supremum of s with int_{|xi|>=1} e^{s xi} mu < oo along the axis."""
        raise NotImplementedError

    @property
    def bound_closed(self) -> bool:
        """Whether the supremum itself is admissible."""
        raise NotImplementedError

    def admits(self, s) -> bool:
        """Whether the real exponent s lies in the exponential range."""
        return _admitted(s, self.exp_bound, self.bound_closed)

    @property
    def is_zero(self) -> bool:
        return False

    # -- shared identities ---------------------------------------------------

    def chi_integral(self) -> float:
        """CHI = int sign(xi)(|xi| ^ 1) mu(dxi), computed once per instance."""
        chi = self.__dict__.get("_chi")
        if chi is None:
            chi = self._chi_integral()
            object.__setattr__(self, "_chi", chi)  # families are frozen dataclasses
        return chi

    def _chi_integral(self) -> float:
        return self.mean_below(1.0) + self.tail_mass(1.0)

    def chi_mass_above(self, eps: float) -> float:
        """int_{|xi| >= eps} sign(xi)(|xi| ^ 1) mu(dxi) for eps <= 1."""
        if eps > 1.0:
            raise ConfigError("chi_mass_above expects eps <= 1")
        return (self.mean_below(1.0) - self.mean_below(eps)) + self.tail_mass(1.0)

    def sim_drift_correction(self, eps: float, compensated: bool) -> float:
        """Drift added on the axis when jumps below eps are dropped.

        Compensated coordinates lose the tail truncation drift; uncompensated
        coordinates gain the mean of the discarded small jumps.
        """
        if compensated:
            return -self.chi_mass_above(eps)
        return self.mean_below(eps)

    # -- d-vector wrappers ---------------------------------------------------

    def _row(self, u):
        """u as a 1-d row that holds the axis coordinate (a 0-d u is a row of
        one entry); ConfigError for more dimensions or too few entries.  A
        measure does not know d, so a longer row is not an error here."""
        u = np.asarray(u)
        if u.ndim == 0:
            u = u.reshape(1)
        elif u.ndim > 1:
            raise ConfigError(f"expected one point, got shape {u.shape}")
        if len(u) <= self.axis:
            raise ConfigError(f"expected a point with coordinate {self.axis}, got shape {u.shape}")
        return u

    def lk_integral(self, u, compensated: bool = True):
        """int (e^{<u,xi>} - 1 - <chi(xi), u>) mu(dxi) at the point u (a
        d-vector, or a 0-d u on a d = 1 state); ConfigError for an array of
        more dimensions.

        ``compensated`` states whether the truncation acts on this measure's
        axis (true for mu_0 and for coordinates in J u {i} of mu_i).
        """
        u = self._row(u)
        return self._point_form(compensated, u.dtype.kind == "c")(u)

    def _point_form(self, compensated, complex_kind):
        """u -> lk_integral(u, compensated) on a 1-d row, real or complex by
        ``complex_kind``: the range test of the axis value (of its real
        part), the family's ``_point_mgf`` and the overflow test, then the
        compensation when it applies, with the axis, the range and CHI
        bound.  Built on first use and kept on the instance, but not
        pickled."""
        forms = self.__dict__.get("_point_forms")
        if forms is None:
            forms = {}
            object.__setattr__(self, "_point_forms", forms)  # families are frozen dataclasses
        form = forms.get((compensated, complex_kind))
        if form is not None:
            return form
        axis, bound, closed = self.axis, self.exp_bound, self.bound_closed
        mgf = self._point_mgf(complex_kind)
        chi = self.chi_integral() if compensated else None

        if complex_kind:
            def form(u):
                s = u[axis]
                r = s.real
                if not (r < bound or closed and r == bound):
                    raise DomainError(_OUTSIDE_RANGE)
                val = mgf(s)
                if not cmath.isfinite(val):  # overflow inside the range, in either part
                    raise DomainError(_NOT_FINITE)
                return val if chi is None else val - s * chi
        else:
            def form(u):
                s = u[axis]
                if not (s < bound or closed and s == bound):
                    raise DomainError(_OUTSIDE_RANGE)
                val = mgf(s)
                if math.isinf(val):  # overflow inside the range
                    raise DomainError(_NOT_FINITE)
                return val if chi is None else val - s * chi
        forms[compensated, complex_kind] = form
        return form

    def _point_mgf(self, complex_kind):
        """s -> _mgf_integral(s) on one axis value of the kind, with the same
        bits; a family binds its closed form here, the default calls
        ``_mgf_integral``."""
        return self._mgf_integral

    def __getstate__(self):
        # closures do not pickle; an unpickled measure builds its own on first use
        state = self.__dict__.copy()
        state.pop("_point_forms", None)
        return state

    def _lk_rows(self, u, compensated):
        """lk_integral on real (N, d) rows, for ``reduced_R``: the arithmetic
        of the point path on the column of axis values, and its range and
        overflow checks on each row (a DomainError when any row fails them)."""
        s = u[:, self.axis]
        if not _all_admitted(s, self.exp_bound, self.bound_closed):
            raise DomainError(_OUTSIDE_RANGE)
        val = self._mgf_integral(s)
        if any([math.isinf(x) for x in val.tolist()]):
            raise DomainError(_NOT_FINITE)
        if compensated:
            val = val - s * self.chi_integral()
        return val

    def lk_derivative(self, u, compensated: bool = True):
        """d/du_axis of lk_integral (other partials vanish)."""
        s = self._row(u)[self.axis]
        if not self.admits(s.real):
            raise DomainError(_OUTSIDE_RANGE)
        val = self._mgf_derivative(s)
        if compensated:
            val = val - self.chi_integral()
        return val


@dataclass(frozen=True)
class ZeroJumps(LevyMeasure):
    """The null measure."""

    axis: Optional[int] = None
    exp_bound = _INF
    bound_closed = True

    @property
    def is_zero(self) -> bool:
        return True

    def lk_integral(self, u, compensated: bool = True):
        return 0.0

    def lk_derivative(self, u, compensated: bool = True):
        return 0.0

    def tail_mass(self, eps: float) -> float:
        return 0.0

    def mean_below(self, eps: float) -> float:
        return 0.0

    def _tilted(self, theta: float) -> "ZeroJumps":
        return self


@dataclass(frozen=True)
class CompoundPoissonExp(LevyMeasure):
    """Compound Poisson jumps with Exp(jump_rate) law: rate * jump_rate * e^{-jump_rate xi} dxi."""

    rate: float
    jump_rate: float
    axis: int = 0
    exp_bound = property(lambda self: self.jump_rate)
    bound_closed = False

    def validate(self):
        out = []
        if self.rate < 0:
            out.append("compound-Poisson rate must be >= 0")
        if self.jump_rate <= 0:
            out.append("exponential jump law requires jump_rate > 0")
        return out

    def _mgf_integral(self, s):
        return self.rate * s / (self.jump_rate - s)

    def _point_mgf(self, complex_kind):
        rate, jump_rate = self.rate, self.jump_rate
        return lambda s: rate * s / (jump_rate - s)

    def _mgf_derivative(self, s):
        return self.rate * self.jump_rate / (self.jump_rate - s) ** 2

    def tail_mass(self, eps: float) -> float:
        return self.rate * math.exp(-self.jump_rate * eps)

    def mean_below(self, eps: float) -> float:
        e = self.jump_rate
        return self.rate * ((1.0 - math.exp(-e * eps)) / e - eps * math.exp(-e * eps))

    def tail_proposal(self, eps: float, u: np.ndarray):
        # memoryless tail: eps plus an Exp(jump_rate) variate
        return eps - np.log1p(-u[:, 0]) / self.jump_rate

    def _tilted(self, theta: float) -> "CompoundPoissonExp":
        new_rate = self.rate * self.jump_rate / (self.jump_rate - theta)
        return CompoundPoissonExp(new_rate, self.jump_rate - theta, self.axis)

    def density(self, xi):
        xi = np.asarray(xi, dtype=float)
        return self.rate * self.jump_rate * np.exp(-self.jump_rate * xi)


@dataclass(frozen=True)
class CompoundPoissonPoint(LevyMeasure):
    """Compound Poisson jumps of deterministic size: rate * delta_{size}."""

    rate: float
    size: float
    axis: int = 0
    exp_bound = _INF  # finitely many jumps of one size: every exponent
    bound_closed = True

    def validate(self):
        out = []
        if self.rate < 0:
            out.append("compound-Poisson rate must be >= 0")
        if self.size == 0:
            out.append("point jump size must be nonzero")
        return out

    def _mgf_integral(self, s):
        return self.rate * (np.exp(s * self.size) - 1.0)

    def _point_mgf(self, complex_kind):
        rate, size, exp = self.rate, self.size, np.exp
        return lambda s: rate * (exp(s * size) - 1.0)

    def _mgf_derivative(self, s):
        return self.rate * self.size * np.exp(s * self.size)

    def _chi_integral(self) -> float:
        return self.rate * float(np.clip(self.size, -1.0, 1.0))

    def tail_mass(self, eps: float) -> float:
        return self.rate if abs(self.size) >= eps else 0.0

    def mean_below(self, eps: float) -> float:
        return self.rate * self.size if abs(self.size) < eps else 0.0

    def chi_mass_above(self, eps: float) -> float:
        if abs(self.size) < eps:
            return 0.0
        return self.rate * float(np.clip(self.size, -1.0, 1.0))

    def tail_proposal(self, eps: float, u: np.ndarray):
        return np.full(u.shape[0], self.size)

    def _tilted(self, theta: float) -> "CompoundPoissonPoint":
        rate = _rate_exp(self.rate, theta * self.size)
        if math.isinf(rate):  # overflow inside the range
            raise DomainError("tilted jump rate not finite at theta")
        return CompoundPoissonPoint(rate, self.size, self.axis)

    def atoms(self):
        return [(self.size, self.rate)]


@dataclass(frozen=True)
class GammaLevy(LevyMeasure):
    """Gamma-type measure c * e^{-rho xi} xi^{-1} dxi on (0, oo).

    Infinite activity, finite variation; the effective exponential range is
    the open half-line s < rho.
    """

    c: float
    rho: float
    axis: int = 0
    exp_bound = property(lambda self: self.rho)
    bound_closed = False

    def validate(self):
        out = []
        if self.c <= 0:
            out.append("gamma family requires c > 0")
        if self.rho <= 0:
            out.append("gamma family requires rho > 0 (Levy tail integrability)")
        return out

    def _mgf_integral(self, s):
        # Frullani: int (e^{s xi} - 1) e^{-rho xi} xi^{-1} dxi = log(rho / (rho - s))
        return -self.c * np.log1p(-s / self.rho)

    def _point_mgf(self, complex_kind):
        neg_c, rho, log1p = -self.c, self.rho, np.log1p
        return lambda s: neg_c * log1p(-s / rho)

    def _mgf_derivative(self, s):
        return self.c / (self.rho - s)

    def tail_mass(self, eps: float) -> float:
        return self.c * float(_sp.exp1(self.rho * eps))

    def mean_below(self, eps: float) -> float:
        return self.c * (1.0 - math.exp(-self.rho * eps)) / self.rho

    def tail_proposal(self, eps: float, u: np.ndarray):
        # inverse CDF of the tail law by bisection on E1
        total = _sp.exp1(self.rho * eps)
        target = (1.0 - u[:, 0]) * total
        lo = np.full(u.shape[0], self.rho * eps)
        hi = np.full(u.shape[0], self.rho * eps + 45.0)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            high_side = _sp.exp1(mid) > target
            lo = np.where(high_side, mid, lo)
            hi = np.where(high_side, hi, mid)
        return 0.5 * (lo + hi) / self.rho

    def _tilted(self, theta: float) -> "GammaLevy":
        return GammaLevy(self.c, self.rho - theta, self.axis)

    def density(self, xi):
        xi = np.asarray(xi, dtype=float)
        return self.c * np.exp(-self.rho * xi) / xi


@dataclass(frozen=True)
class TemperedStableHalf(LevyMeasure):
    """Tempered 1/2-stable measure scale * e^{-tempering xi} xi^{-3/2} dxi.

    Finite variation with infinite activity; the exponential range is the
    closed half-line s <= tempering (the boundary moment is finite).  The
    untempered case tempering = 0 is admissible and arises as the boundary
    tilt of a tempered member.
    """

    scale: float
    tempering: float
    axis: int = 0
    exp_bound = property(lambda self: self.tempering)
    bound_closed = True

    def validate(self):
        out = []
        if self.scale <= 0:
            out.append("tempered-stable family requires scale > 0")
        if self.tempering < 0:
            out.append("tempered-stable family requires tempering >= 0")
        return out

    def _mgf_integral(self, s):
        # int (e^{s xi} - 1) e^{-rho xi} xi^{-3/2} dxi = 2 sqrt(pi) (sqrt(rho) - sqrt(rho - s))
        rho = self.tempering
        if _is_complex(s):
            root = np.sqrt(rho - s + 0.0j)
        else:  # np.sqrt and math.sqrt round alike; math.sqrt is the cheaper on scalars
            root = np.sqrt(rho - s) if isinstance(s, np.ndarray) else math.sqrt(rho - s)
        return 2.0 * math.sqrt(math.pi) * self.scale * (math.sqrt(rho) - root)

    def _point_mgf(self, complex_kind):
        rho = self.tempering
        k, sqrt_rho = 2.0 * math.sqrt(math.pi) * self.scale, math.sqrt(rho)
        if complex_kind:
            sqrt = np.sqrt
            return lambda s: k * (sqrt_rho - sqrt(rho - s + 0.0j))
        sqrt = math.sqrt
        return lambda s: k * (sqrt_rho - sqrt(rho - s))

    def _mgf_derivative(self, s):
        rho = self.tempering
        root = np.sqrt(rho - s + 0.0j) if _is_complex(s) else math.sqrt(rho - s)
        # int xi e^{s xi} mu(dxi) diverges on the closed boundary s = rho
        return math.sqrt(math.pi) * self.scale / root if root else _INF

    def tail_mass(self, eps: float) -> float:
        rho = self.tempering
        re = rho * eps
        return self.scale * (
            2.0 * math.exp(-re) / math.sqrt(eps)
            - 2.0 * math.sqrt(math.pi * rho) * math.erfc(math.sqrt(re))
        )

    def mean_below(self, eps: float) -> float:
        rho = self.tempering
        if rho == 0.0:
            return self.scale * 2.0 * math.sqrt(eps)
        return self.scale * math.sqrt(math.pi / rho) * math.erf(math.sqrt(rho * eps))

    def increment(self, t: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Sum of all jumps of a subordinator with Levy measure t * mu.

        ``t`` is the intensity-time (intensity times step length) of each
        row, ``u`` holds two uniforms per row.  The sum has Laplace exponent
        2 sqrt(pi) scale t (sqrt(rho + s) - sqrt(rho)): inverse Gaussian with
        mean scale t sqrt(pi / rho) and shape 2 pi (scale t)^2, sampled by
        Michael-Schucany-Haas, and for rho = 0 its limit, the Levy law
        2 pi (scale t)^2 / Z^2.
        """
        t = np.asarray(t, dtype=float)
        shape_ig = 2.0 * math.pi * (self.scale * t) ** 2
        z2 = _sp.ndtri(u[:, 0]) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.tempering == 0.0:
                out = shape_ig / z2
            else:
                mean = self.scale * t * math.sqrt(math.pi / self.tempering)
                r = mean * z2 / (2.0 * shape_ig)
                # smaller root of the MSH quadratic, written without cancellation
                x = mean / (1.0 + r + np.sqrt(r * (r + 2.0)))
                out = np.where(u[:, 1] <= mean / (mean + x), x, mean * mean / x)
        return np.where(t > 0.0, out, 0.0)

    def _tilted(self, theta: float) -> "TemperedStableHalf":
        return TemperedStableHalf(self.scale, self.tempering - theta, self.axis)

    def density(self, xi):
        xi = np.asarray(xi, dtype=float)
        return self.scale * np.exp(-self.tempering * xi) * xi ** (-1.5)


class ExpTiltedMeasure(LevyMeasure):
    """Quadrature-backed fallback for e^{theta xi} mu(dxi).

    Used when a family is not closed under tilting.  Its exponential range
    is the base range shifted by theta.  Integrals carry the extra
    exponential factor and are evaluated by adaptive quadrature split at
    xi = 1, at a complex exponent as two real quadratures of the real and
    imaginary parts; values beyond the magnitude cap are reported as
    infinite.  Path
    sampling is not provided.
    """

    exp_bound = property(lambda self: self.base.exp_bound - self.theta)
    bound_closed = property(lambda self: self.base.bound_closed)

    def __init__(self, base: LevyMeasure, theta: float):
        if not base.admits(theta):
            raise DomainError("tilt parameter outside the effective domain of the base measure")
        self.base = base
        self.theta = float(theta)
        self.axis = base.axis

    def _weighted(self, xi, w):
        xi = np.asarray(xi, dtype=float)
        return _exp_weighted(self.theta + w, xi, self.base.density(xi))

    def density(self, xi):
        return self._weighted(xi, 0.0)

    def _mgf_integral(self, s):
        return _quad_split(lambda x: self._weighted(x, s) - self._weighted(x, 0.0),
                           np.iscomplexobj(s))

    def _mgf_derivative(self, s):
        return _quad_split(lambda x: x * self._weighted(x, s), np.iscomplexobj(s))

    def tail_mass(self, eps: float) -> float:
        return _quad_interval(self.density, eps, _INF)

    def mean_below(self, eps: float) -> float:
        return _quad_interval(lambda x: x * self.density(x), 0.0, eps)

    def _tilted(self, theta: float) -> "ExpTiltedMeasure":
        return ExpTiltedMeasure(self.base, self.theta + theta)

    def tail_proposal(self, eps, u):
        raise ConfigError("quadrature-tilted measures do not support path sampling")


def _exp_weighted(s, xi, dens):
    """e^{s xi} dens, as the exponential of a sum: e^{s xi} overflows long
    before the weighted density (integrable for admitted s) does, and
    inf * 0 would be nan."""
    dens = np.asarray(dens, dtype=float)
    with np.errstate(divide="ignore"):
        logd = np.where(dens > 0.0, np.log(np.where(dens > 0.0, dens, 1.0)), -np.inf)
    return np.exp(s * xi + logd)


def _quad_interval(f, lo, hi):
    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", _sint.IntegrationWarning)
        val, _ = _sint.quad(f, lo, hi, epsabs=QUAD_ABS_TOL, limit=200)
    if not np.isfinite(val) or abs(val) > QUAD_MAGNITUDE_CAP:
        return _INF
    return val


def _quad_split(f, complex_valued=False):
    """Integral over (0, oo) split at 1 (mirrors the domain definition).

    quad integrates real functions only (it casts a complex value to real),
    so a complex-valued f is integrated as two real quadratures, of its real
    and of its imaginary part; infinite when either part is.
    """
    if complex_valued:
        re = _quad_split(lambda x: f(x).real)
        im = _quad_split(lambda x: f(x).imag)
        return _INF if _INF in (re, im) else complex(re, im)
    inner = _quad_interval(f, 0.0, 1.0)
    outer = _quad_interval(f, 1.0, _INF)
    if inner == _INF or outer == _INF:
        return _INF
    return inner + outer


# ---------------------------------------------------------------------------
# Domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainY:
    """Membership predicate of the effective domain, read off the ranges
    the measures state."""

    shape: StateShape
    measures: tuple
    _bounds: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # per coordinate, the tightest range of the measures on it; at equal
        # bounds an open range is tighter, as (b, False) < (b, True)
        bounds = [(_INF, True)] * self.shape.d
        for mu in self.measures:
            if not mu.is_zero:
                bounds[mu.axis] = min(bounds[mu.axis], (mu.exp_bound, mu.bound_closed))
        object.__setattr__(self, "_bounds", tuple(bounds))

    def contains(self, y) -> bool:
        """Membership of the point y (its real part for complex input), a
        d-vector or, on a d = 1 state, a 0-d y; of every row of (N, d)
        rows.  ConfigError for any other shape."""
        y = np.real(np.atleast_1d(y))
        if y.ndim > 2 or y.shape[-1] != self.shape.d:
            raise ConfigError(f"expected a point of length {self.shape.d} or (N, "
                              f"{self.shape.d}) rows, got shape {y.shape}")
        if y.ndim == 2:
            return all(_all_admitted(col, *bound) for col, bound in zip(y.T, self._bounds))
        return all(_admitted(s, *bound) for s, bound in zip(y, self._bounds))

    def axis_bound(self, k: int):
        """(upper bound, closed) for coordinate k, (inf, True) if unconstrained."""
        return self._bounds[k]


# ---------------------------------------------------------------------------
# The affine model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineModel:
    """Parametric affine model on D = R_+^m x R^n.

    Immutable after construction; evaluation is pure and reentrant, so
    instances are safe to share across concurrent tasks.  Derived constants
    (the compensation flags, the domain's bounds, each measure's CHI, the
    operands of a point evaluation) are computed once.
    """

    shape: StateShape
    a: np.ndarray
    b: np.ndarray
    c: float = 0.0
    mu0: LevyMeasure = ZeroJumps()
    alpha: np.ndarray = None
    beta_I: np.ndarray = None
    gamma: np.ndarray = None
    mus: tuple = None
    beta_JJ: np.ndarray = None
    _compensated: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m, n, d = self.shape.m, self.shape.n, self.shape.d

        def freeze(x, shp):
            arr = np.zeros(shp) if x is None else np.array(x, dtype=float).reshape(shp)
            arr.setflags(write=False)
            return arr

        object.__setattr__(self, "a", freeze(self.a, (d, d)))
        object.__setattr__(self, "b", freeze(self.b, (d,)))
        object.__setattr__(self, "alpha", freeze(self.alpha, (m,)))
        object.__setattr__(self, "beta_I", freeze(self.beta_I, (m, d)))
        object.__setattr__(self, "gamma", freeze(self.gamma, (m,)))
        object.__setattr__(self, "beta_JJ", freeze(self.beta_JJ, (n, n)))
        object.__setattr__(self, "c", float(self.c))
        mus = tuple(self.mus) if self.mus is not None else tuple(ZeroJumps() for _ in range(m))
        if len(mus) != m:
            raise ConfigError(f"expected {m} state-linear jump measures, got {len(mus)}")
        object.__setattr__(self, "mus", mus)
        object.__setattr__(self, "_compensated", tuple(
            mu.is_zero or mu.axis == i or mu.axis in self.shape.J for i, mu in enumerate(mus)))

    @cached_property
    def domain(self) -> DomainY:
        return DomainY(self.shape, (self.mu0,) + self.mus)

    @cached_property
    def _point_fns(self) -> tuple:
        """The (R, F) closures of ``eval_R``/``eval_F`` on one 1-d row, for
        real u ([0]) and complex u ([1]); see ``_point_closures``."""
        return _point_closures(self, float), _point_closures(self, complex)

    def measure_compensated(self, i: int) -> bool:
        """Whether chi_i acts on the axis of mu_i (axis in J u {i})."""
        return self._compensated[i]

    def __getstate__(self):
        # closures do not pickle; an unpickled model builds its own on first use
        state = self.__dict__.copy()
        state.pop("_point_fns", None)
        return state


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def __iter__(self):
        return iter(self.violations)

    def __len__(self):
        return len(self.violations)


def validate_model(model: AffineModel) -> ValidationReport:
    """Check the parametric admissibility constraints; empty report on success."""
    v = []
    shape = model.shape
    m, d = shape.m, shape.d

    if not np.allclose(model.a, model.a.T, atol=1e-12):
        v.append("a must be symmetric")
    else:
        w = np.linalg.eigvalsh(model.a)
        if w.min() < -1e-12:
            v.append(f"a must be positive semidefinite (min eigenvalue {w.min():.3e})")
    for i in shape.I:
        if np.any(model.a[i, :] != 0.0):
            v.append(f"a row {i + 1} must vanish: constant diffusion cannot load on "
                     "the nonnegative block (only alpha_i does)")
            break
    for i in shape.I:
        if model.b[i] < 0:
            v.append(f"b_{i + 1} must be >= 0 (b must lie in D)")
    if model.c < 0:
        v.append("c must be >= 0")
    for i in shape.I:
        if model.alpha[i] < 0:
            v.append(f"alpha_{i + 1} must be >= 0")
        if model.gamma[i] < 0:
            v.append(f"gamma_{i + 1} must be >= 0")
        for j in shape.I:
            if j != i and model.beta_I[i, j] < 0:
                v.append(f"beta_{i + 1},{j + 1} must be >= 0 for j != i in the nonnegative block")

    for tag, mu in [("mu0", model.mu0)] + [(f"mu_{i + 1}", model.mus[i]) for i in shape.I]:
        if mu.is_zero:
            continue
        if mu.axis is None or not (0 <= mu.axis < d):
            v.append(f"{tag}: jump axis out of range")
            continue
        if mu.axis in shape.I:
            neg_support = isinstance(mu, CompoundPoissonPoint) and mu.size < 0
            if neg_support:
                v.append(f"{tag}: support must lie in D (nonnegative axis {mu.axis + 1})")
        for msg in mu.validate():
            v.append(f"{tag}: {msg}")
        if not mu.admits(0.0):
            v.append(f"{tag}: the exponential range must admit 0")
    return ValidationReport(tuple(v))


def in_domain_Y(model: AffineModel, y) -> bool:
    """Membership of the effective domain Y (real part for complex input)."""
    return model.domain.contains(y)


def _own_errstate():
    """The np.errstate of a direct evaluation; none inside ``quiet_fp``."""
    return nullcontext() if _FP_QUIET.get() else np.errstate(invalid="ignore", over="ignore")


def _point_closures(model, dtype):
    """The (R, F) pair that ``eval_R`` and ``eval_F`` call on one 1-d row:
    for dtype complex on a complex row, for float on a real row of any dtype.

    Every operand is bound once: alpha_i and gamma_i as numpy scalars, the
    rows of the casts of a, b and beta_I to dtype (the casts a matmul with a
    complex row makes), each non-zero measure's point form for the dtype
    kind and its compensation flag (``LevyMeasure._point_form``: its range
    test, closed form and overflow test), and c.  An I-row is numpy scalar
    arithmetic on u[i] (whose ** 2 is pow()) around <beta_i, u>, F is
    <u, a u> + <b, u> - c and mu_0's integral, and the J-rows are
    beta_JJ^T u_J.  A null measure adds no term: the 0.0 it would add keeps
    every bit, because neither part of the sum it would be added to is ever
    -0.0, as <beta_i, u> and <b, u> start from +0.0 (see below).

    A product with one term, x @ y with x and y of length one, is formed as
    ``zero + y[0] * x[0]`` on numpy scalars of dtype.  It has the bits of the
    BLAS call, whose sum starts from +0.0: a bare product would keep a -0.0
    that the sum drops.  The reversed operands propagate a NaN of u as the
    call does when x is a real coefficient; only u @ (a @ u) on a complex u
    with a NaN part can end in a NaN of the other sign.  That covers every
    product of a d = 1 model.  Products of two or more terms keep their BLAS
    call, whose fused multiply-adds round differently from a sum of scalar
    products, and so do the J-rows.
    """
    shape = model.shape
    m, n, d = shape.m, shape.n, shape.d
    zero = np.zeros((), dtype)[()]
    c = model.c
    scalar = complex if dtype is complex else float
    complex_kind = dtype is complex

    def jumps(mu, compensated):
        """mu's point form; None for the null measure."""
        return None if mu.is_zero else mu._point_form(compensated, complex_kind)

    def dot(x):
        """y -> x @ y for the 1-d x."""
        if len(x) > 1:
            return x.__matmul__
        x0 = x[0]
        return lambda y: zero + y[0] * x0

    a = model.a.astype(dtype, copy=False)
    if d == 1:
        a00 = a[0, 0]

        def quad(u):
            u0 = u[0]
            return zero + (zero + u0 * a00) * u0
    else:
        def quad(u):
            return u @ (a @ u)
    lin = dot(model.b.astype(dtype, copy=False))

    lk0 = jumps(model.mu0, True)
    if lk0 is None:
        def F(u):
            return scalar(quad(u) + lin(u) - c)
    else:
        def F(u):
            return scalar(quad(u) + lin(u) - c + lk0(u))

    rows = tuple(zip(range(m), model.alpha, map(dot, model.beta_I.astype(dtype, copy=False)),
                     model.gamma, map(jumps, model.mus, model._compensated)))
    plain = tuple(row[:4] for row in rows if row[4] is None)
    with_jumps = tuple(row for row in rows if row[4] is not None)
    beta_JJ_T = model.beta_JJ.T  # matmul casts it to the dtype of u

    def R(u):
        out = np.empty(d, dtype)
        for i, alpha, lin_i, gamma in plain:
            out[i] = alpha * u[i] ** 2 + lin_i(u) - gamma
        for i, alpha, lin_i, gamma, lk in with_jumps:
            out[i] = alpha * u[i] ** 2 + lin_i(u) - gamma + lk(u)
        if n:
            out[m:] = beta_JJ_T @ u[m:]
        return out

    return R, F


def _as_row(u, size):
    """u, which is not a 1-d row of size entries, as that row when u is 0-d
    and size is 1.  ConfigError for any other shape."""
    if u.shape or size != 1:
        raise ConfigError(f"expected a 1-d row of length {size}, got shape {u.shape}")
    return u.reshape(1)


def eval_F(model: AffineModel, u, check_domain: bool = True):
    """The constant functional characteristic F(u) at the point u."""
    u = np.asarray(u)
    if u.shape != (model.shape.d,):
        u = _as_row(u, model.shape.d)
    if check_domain and not in_domain_Y(model, u):
        raise DomainError("u outside the effective domain Y")
    F = model._point_fns[u.dtype.kind == "c"][1]
    if _FP_QUIET.get():
        return F(u)
    with np.errstate(invalid="ignore", over="ignore"):
        return F(u)


def eval_R(model: AffineModel, u, check_domain: bool = True):
    """The state-linear functional characteristic R(u) at the point u, as a
    d-vector."""
    u = np.asarray(u)
    if u.shape != (model.shape.d,):
        u = _as_row(u, model.shape.d)
    if check_domain and not in_domain_Y(model, u):
        raise DomainError("u outside the effective domain Y")
    R = model._point_fns[u.dtype.kind == "c"][0]
    if _FP_QUIET.get():
        return R(u)
    with np.errstate(invalid="ignore", over="ignore"):
        return R(u)


def _reduced_rows(model, v, check_domain):
    """reduced_R on real (N, m) rows, with the bits of N point calls.

    Only the I-rows of R are formed, at the (N, d) rows (v, 0).  The
    products go through matmul's stacked loop, which makes the BLAS call of
    the point path for each row: one ddot per row and I-row for
    beta_I[i] @ u.  The square is float_power, as the point path's scalar
    u[i] ** 2 is pow(); an array's ** 2 is a plain square, which rounds
    differently.
    """
    m = model.shape.m
    u = np.zeros((len(v), model.shape.d))
    u[:, :m] = v
    if check_domain and not in_domain_Y(model, u):
        raise DomainError("u outside the effective domain Y")
    with _own_errstate():
        # the terms of every I-row at once, in the order of the point path
        linear = np.matmul(model.beta_I[:, None, :], u[:, None, :, None])[..., 0, 0]
        out = model.alpha * np.float_power(v, 2) + linear - model.gamma
        # the point path also adds the null measure's 0.0, which keeps every
        # bit: the sum it is added to is never -0.0, as matmul's sum starts at +0.0
        for i, (mu, compensated) in enumerate(zip(model.mus, model._compensated)):
            if not mu.is_zero:
                out[:, i] += mu._lk_rows(u, compensated)
    return out


def reduced_R(model: AffineModel, v, check_domain: bool = True) -> np.ndarray:
    """The reduced vector field: the I-components of R at (v, 0) for a real
    v; (N, m) for real (N, m) rows."""
    shape = model.shape
    m = shape.m
    v = np.asarray(v)
    if v.dtype.kind == "c":
        raise ConfigError("reduced_R takes a real v")
    v = v.astype(float, copy=False)
    if v.ndim == 2 and v.shape[1] == m:
        return _reduced_rows(model, v, check_domain)
    if v.shape != (m,):
        v = _as_row(v, m)
    if not shape.n and v.flags.c_contiguous:
        # (v, 0) is v itself, on which eval_R would call the real R closure;
        # a strided v would take a strided BLAS dot
        if check_domain and not in_domain_Y(model, v):
            raise DomainError("u outside the effective domain Y")
        R = model._point_fns[0][0]
        if _FP_QUIET.get():
            return R(v)
        with np.errstate(invalid="ignore", over="ignore"):
            return R(v)
    u = np.zeros(shape.d)
    u[:m] = v
    return eval_R(model, u, check_domain=check_domain)[:m]
