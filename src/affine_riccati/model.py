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
import linecache
import math
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import cache, cached_property
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
# the complex closures pass a family's form czero + x, np.complex128 of the
# Python complex x with its bits: -0.0 + a is a for every part a
_CZERO = np.complex128(complex(-0.0, -0.0))
# np.complex128 takes __complex__ from Python's complex, which has it from
# Python 3.11 on; where it has none, the complex closures convert their
# numpy scalars with complex(), which gives the same bits
_HAS_COMPLEX = hasattr(np.complex128, "__complex__")

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


def _double(u):
    """The array u with bool, integer and float entries as float64 and
    complex ones as complex128, the rows the point evaluations compute on;
    other dtypes as they are.  A float32 or complex64 row would otherwise
    be evaluated partly in single precision: numpy keeps a Python number's
    operations on its entries in their width."""
    kind = u.dtype.kind
    if u.dtype.char in "dD" or kind not in "biufc":
        return u
    return u.astype(complex if kind == "c" else float)


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

    ``lk_integral`` and the model's point closures share one axis form per
    (compensated, dtype kind), ``_axis_form``: the range test, the family's
    ``_point_mgf`` and the overflow test, with the range and CHI bound.
    ``lk_integral`` calls it on the row's axis entry (``_point_form``); the
    model's real closures call it on that entry as a Python float, the
    complex ones on np.complex128 of it.  A family's ``_point_mgf`` binds
    its closed form with the bits of ``_mgf_integral``, on a numpy scalar or
    a Python float alike; without one the form calls ``_mgf_integral``.

    Measures are immutable after construction: derived constants such as
    CHI and the axis forms are computed once and kept on the instance, so
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
        self._check_tilt(theta, "tilt parameter outside the exponential range of the measure")
        return self._tilted(theta)

    def _check_tilt(self, theta: float, message: str) -> None:
        """DomainError(message) unless theta lies in the exponential range.
        A measure whose own parameters fail ``validate`` (a NaN one admits
        no theta) raises ConfigError naming them instead."""
        if self.admits(theta):
            return
        faults = self.validate()
        if faults:
            raise ConfigError(f"{type(self).__name__} fails validation: " + "; ".join(faults))
        raise DomainError(message)

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

    def _nonfinite(self, *names):
        """A violation for each named parameter that is not finite; NaN
        passes every order test, so a family states its parameters here."""
        return [f"{name} must be finite" for name in names
                if not math.isfinite(getattr(self, name))]

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
        """u as a 1-d float64 or complex128 row that holds the axis
        coordinate (a 0-d u is a row of one entry, see ``_double``);
        ConfigError for more dimensions or too few entries.  A measure does
        not know d, so a longer row is not an error here."""
        u = _double(np.asarray(u))
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
        """u -> lk_integral(u, compensated) on a 1-d row of the kind: the
        axis form (``_axis_form``) on the row's axis entry."""
        form, axis = self._axis_form(compensated, complex_kind), self.axis
        return lambda u: form(u[axis])

    def _axis_form(self, compensated, complex_kind):
        """s -> lk_integral(u, compensated) at a point u whose axis value is
        s, of the kind: the range test of s (of its real part), the family's
        ``_point_mgf`` and the overflow test, then the compensation, with
        the range and CHI bound.  A real s may be a Python float or a numpy
        scalar; the overflow test of a real value refuses an infinity, that
        of a complex one a non-finite part.  Built on first use and kept on
        the instance, but not pickled."""
        forms = self._forms()
        form = forms.get((compensated, complex_kind))
        if form is not None:
            return form
        bound, closed = self.exp_bound, self.bound_closed
        mgf = self._point_mgf(complex_kind)
        chi = self.chi_integral() if compensated else None
        if complex_kind:
            def form(s):
                r = s.real
                if not (r < bound or closed and r == bound):
                    raise DomainError(_OUTSIDE_RANGE)
                val = mgf(s)
                if not cmath.isfinite(val):  # overflow inside the range, in either part
                    raise DomainError(_NOT_FINITE)
                return val if chi is None else val - s * chi
        else:
            def form(s):
                if not (s < bound or closed and s == bound):
                    raise DomainError(_OUTSIDE_RANGE)
                val = mgf(s)
                if math.isinf(val):  # overflow inside the range
                    raise DomainError(_NOT_FINITE)
                return val if chi is None else val - s * chi
        forms[compensated, complex_kind] = form
        return form

    def _forms(self):
        """The instance's dict of built axis forms."""
        forms = self.__dict__.get("_point_forms")
        if forms is None:
            forms = {}
            object.__setattr__(self, "_point_forms", forms)  # families are frozen dataclasses
        return forms

    def _point_mgf(self, complex_kind):
        """s -> _mgf_integral(s) on one axis value of the kind, with the same
        bits; a family binds its closed form here.  The default calls
        ``_mgf_integral``, on a real s as np.float64, the type a float64
        row's entry has, so that a family without a closed form sees the
        operand of the row whether s comes as a Python float or not."""
        if complex_kind:
            return self._mgf_integral
        integral, float64 = self._mgf_integral, np.float64
        return lambda s: integral(float64(s))

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
        out = self._nonfinite("rate", "jump_rate")
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
        out = self._nonfinite("rate", "size")
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
        out = self._nonfinite("c", "rho")
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
        if not (rho or complex_kind):
            # a real s may be a Python float, whose quotient by zero raises
            # ZeroDivisionError; numpy's is inf, as _mgf_integral's
            rho = np.float64(rho)
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
        out = self._nonfinite("scale", "tempering")
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
        base._check_tilt(theta, "tilt parameter outside the effective domain of the base measure")
        self.base = base
        self.theta = float(theta)
        self.axis = base.axis

    def validate(self):
        return self._nonfinite("theta") + self.base.validate()

    def _weighted(self, xi, w):
        xi = np.asarray(xi, dtype=float)
        return _exp_weighted(self.theta + w, xi, self.base.density(xi))

    def density(self, xi):
        return self._weighted(xi, 0.0)

    def _mgf_integral(self, s):
        complex_valued = np.iscomplexobj(s)
        if complex_valued and math.isfinite(s.real) and not math.isfinite(s.imag):
            # the integrand is NaN everywhere, so the quadrature would report
            # the infinite value it gives here, after tens of milliseconds
            return _INF
        return _quad_split(lambda x: self._weighted(x, s) - self._weighted(x, 0.0),
                           complex_valued)

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
        """The point closures (R, F, reduced, full) on lists of Python
        numbers, of the real kind ([0]) and the complex kind ([1]); see
        ``_point_closures``."""
        return _point_closures(self)

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
    shape = model.shape
    m, d = shape.m, shape.d
    # NaN passes every order test below, so a non-finite entry is flagged here
    v = [f"{name} must be finite" for name in ("a", "b", "c", "alpha", "beta_I", "gamma", "beta_JJ")
         if not np.isfinite(getattr(model, name)).all()]

    a_finite = "a must be finite" not in v
    if a_finite and not np.allclose(model.a, model.a.T, atol=1e-12):
        v.append("a must be symmetric")
    elif a_finite:
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


def _point_closures(model):
    """The closures ``(R, F, reduced, full)`` of the real kind ([0]) and the
    complex kind ([1]): the code generated for the model's structure and the
    kind (``_point_code``) with the model's operands bound; a new model of a
    known structure compiles nothing.  Each takes a list of Python numbers
    and returns Python numbers.  ``eval_R``, ``eval_F`` and ``reduced_R``
    call R, F and reduced on the list of their checked row; the solves call
    reduced and the discounted field that ``full`` binds on the lists of
    their stages, once the row's shape and kind are checked at the start
    of the solve.

    Both kinds form R and F in one order of operations on the same
    operands: alpha_i, gamma_i, the rows of a, b and beta_I, each non-zero
    measure's axis form for the kind and its compensation flag
    (``LevyMeasure._axis_form``: its range test, closed form and overflow
    test), and c.  An I-row is alpha_i u_i^2 + <beta_i, u> - gamma_i plus
    mu_i's integral, F is <u, a u> + <b, u> - c plus mu_0's integral, and
    the J-rows are beta_JJ^T u_J.  A null measure adds no term: the 0.0 it
    would add keeps every bit, because neither part of the sum it would be
    added to is ever -0.0, as <beta_i, u> and <b, u> start from +0.0 (see
    below).

    A product runs on Python numbers, in index order, where every sum it
    forms has at most one product that can round (``_on_floats``): beta_i @
    u and b @ u where the row has at most one nonzero entry, the J-block
    where every row of beta_JJ^T has, and u @ (a @ u) where a has.  The
    term is ``(zero + x0 * c_0 + x1 * c_1 + ...)``, and u @ (a @ u) is that
    sum over the terms (a_i @ u) * x_i.  The products of zero coefficients
    stay in the sum, so that a NaN or an infinity of u propagates as it
    does in the BLAS call.  A sum of exact zeros and one rounded product is
    that product under any order of summation, with or without a fused
    multiply-add, up to the sign of a zero.  So the term has the bits of the
    call on any CPU, whose sum starts from +0.0 as the term's does (a bare
    product would keep a -0.0 that the sum drops), up to the sign of a zero
    and of a NaN.  Every product of a d = 1 model has one term and runs so.
    On the complex kind a product of two or more terms keeps its call:
    OpenBLAS's zdotu of two terms turned an infinite part into NaN where a
    one-term call and Python's complex product keep it ((0, 0.3) @
    (0.25+0.1j, -inf+0j) is nan+nanj, (0.3,) @ (-inf+0j,) is -inf+nanj).
    Every other product keeps its BLAS call, on one array of the row that a
    closure builds only where it makes such a call, with the complex casts
    of a, b and beta_I bound for the complex kind: a ddot of two nonzero
    terms uses a fused multiply-add, which rounded differently from the
    plain sum of the two products on 24,912 of 100,000 pairs of normal
    deviates (numpy 2.4.6, OpenBLAS, x86-64).

    Each closure unpacks its list once and forms every other term on Python
    numbers; a term that is a numpy scalar, a family form's value or a BLAS
    product, is converted to a Python number first.  Python floats' +, -, *
    and / round as numpy's float64 scalars do; only a quotient by zero
    differs (it raises), and no term divides by a zero that numpy would not
    refuse first (see ``GammaLevy._point_mgf``).  The real square u_i ** 2
    is Python's pow(): it had the bits of numpy's scalar ** 2 on 200,000
    random entries (normal deviates times 10^k, k from -8 to 8) and on
    every special entry once its OverflowError is read as +inf, where a
    plain x * x differed on 165 of them.  The families' real forms run on the Python float too,
    keeping the np.exp, np.log1p and math.sqrt calls they make on numpy
    scalars: np.exp and np.log1p of a Python float run the loop they run
    on an np.float64, with its bits, also with numpy's AVX-512 kernels off.

    The complex kind binds alpha, gamma, c and the coefficients of its
    products on Python numbers as Python complex numbers, so that every
    product is the full complex product numpy forms of a float64 and a
    complex128 scalar; Python 3.14 multiplies a float by a complex number
    part by part, which changes signed zeros and NaNs.  Its square is ``x * x``, which had the
    bits of numpy's complex128 scalar ** 2 on 100,000 random entries and on
    every entry whose parts are +-0, +-inf, +-NaN or +-1e300, up to the sign
    of a NaN and of a zero part of a zero entry (numpy's square of a zero
    is +0j).  The sum the square enters, whose other term starts from +0j,
    cannot see that sign.  Python's ``x ** 2`` multiplies by 1 after
    squaring, which gives nan+nanj at infj against numpy's -inf+nanj, and
    it raises OverflowError at 1e300j.  The families' complex forms still
    take np.complex128 of the axis entry: Python's complex quotient rounds
    differently from numpy's, which multiplies by a reciprocal, and
    ``CompoundPoissonExp`` and ``GammaLevy`` divide.  ``TestRealPointSweep``
    checks both kinds against a numpy-scalar reference.
    """
    shape = model.shape
    axes = tuple(None if mu.is_zero else mu.axis for mu in model.mus)
    axis0 = None if model.mu0.is_zero else model.mu0.axis
    kinds = []
    for complex_kind in (False, True):
        number = complex if complex_kind else float
        on_floats = _on_floats(model, complex_kind)
        rows, on_b, on_a, on_j = on_floats

        def bound(x, listed):
            """The coefficients x as (nested) lists of Python numbers of the
            kind where their products run on them, else as the array a
            matmul with a row of the kind casts them to."""
            if not listed:
                return x.astype(number, copy=False)
            return [number(v) for v in x] if x.ndim == 1 else [bound(v, True) for v in x]

        jumps = tuple(None if mu.is_zero else mu._axis_form(compensated, complex_kind)
                      for mu, compensated in zip(model.mus, model._compensated))
        jump = None if model.mu0.is_zero else model.mu0._axis_form(True, complex_kind)
        make = _point_code(shape.m, shape.n, axes, axis0, complex_kind, on_floats)
        kinds.append(make(bound(model.a, on_a), bound(model.b, on_b), number(model.c),
                          bound(model.alpha, True),
                          tuple(bound(row, listed) for row, listed in zip(model.beta_I, rows)),
                          bound(model.gamma, True), jumps, jump,
                          bound(model.beta_JJ.T, True) if on_j else model.beta_JJ.T))
    return tuple(kinds)


def _on_floats(model, complex_kind):
    """The flags ``(rows, b, a, J)`` of the products of the kind that run on
    Python numbers (``_point_closures``), one per row of beta_I: those whose
    every sum has at most one nonzero coefficient, and on the complex kind
    only those of one term."""
    m, n = model.shape.m, model.shape.n

    def listed(coefficients, terms):
        return bool((np.count_nonzero(coefficients, axis=-1) <= 1).all()) \
            and (terms == 1 or not complex_kind)

    return (tuple(listed(row, m + n) for row in model.beta_I), listed(model.b, m + n),
            listed(model.a.reshape(-1), m + n), listed(model.beta_JJ.T, n))


def _square(x):
    """x ** 2 of a Python float, +inf where it overflows (numpy's value)."""
    try:
        return x ** 2
    except OverflowError:
        return _INF


def _compile(lines, key, namespace):
    """Run the generated source ``lines`` in ``namespace`` and return it.

    The code is compiled under the file name ``<key>``, one per generated
    function, and its source is kept in ``linecache``, so that tracebacks
    show the generated lines and profiles, which key functions by file,
    line and name, keep the functions of two keys apart.  It runs in the
    module the namespace's ``__name__`` names, this one by default, whose
    warnings its warnings are.
    """
    source = "\n".join(lines) + "\n"
    filename = f"<{key}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace.setdefault("__name__", __name__)
    exec(compile(source, filename, "exec"), namespace)
    return namespace


@cache
def _point_code(m, n, axes, axis0, complex_kind, on_floats):
    """The maker ``make(a, b, c, alpha, beta, gamma, jumps, jump, beta_JJ_T)
    -> (R, F, reduced, full)`` of the point closures of the kind for one
    model structure: the state shape, the axis of each non-null mu_i (None
    for a null one), that of a non-null mu_0 (None), and which products run
    on Python numbers, ``on_floats = (rows, b, a, J)`` with one flag per row
    of beta_I (see ``_point_closures``).  Generated as straight-line code
    once per structure and kind and kept.

    Each closure takes a list (or tuple) of Python numbers of the kind and
    unpacks it into x0, x1, ... once; every entry it returns is a Python
    number of the kind.  ``R(u)`` returns the d entries of R at u and
    ``F(u)`` the number F(u).  ``reduced(v)``, on the real kind only (None
    on the complex one), returns the m I-rows of R at (v, 0).
    ``full(l, lam)`` binds the discounts, l and the list of the d entries of
    lambda, and returns the discounted full-system field ``z -> [R(psi) -
    lambda, F(psi) - l]`` of z = (psi, phi), whose R and F are the code of
    ``R`` and ``F``.  Subtracting every entry of lambda keeps the bits of
    the undiscounted system where an entry is +0.0: ``x - 0.0`` is x.

    A product whose flag is set takes its coefficients as (nested) lists of
    Python numbers, unpacked once into c_0, c_1, ... (beta_i's into
    beta{i}_0, ..., a's rows into a{i}_0, ..., the rows of beta_JJ^T into
    bt{k}_0, ...), and is the sum ``(zero + x0 * c_0 + x1 * c_1 + ...)`` in
    index order, every term kept; u @ (a @ u) is the same sum over the
    terms (a_i @ u) * x_i.  Every other product is a BLAS call on one array
    u of the row, which a closure builds only where it makes such a call,
    as is a J-block whose flag is clear.  A real measure's form takes
    the Python float of its axis, a complex one np.complex128 of it, made
    as ``czero + x`` (``_CZERO``), which has the bits of np.complex128(x)
    in about a quarter of its time.  A term that is a numpy scalar (a
    form's value or a BLAS product) is converted to a Python number before
    it enters a sum: every sum and difference then runs on Python numbers,
    with the bits numpy's scalars would give, as both add part by part.
    The complex kind converts with ``__complex__()``, a quarter of the time
    of ``complex()`` on an np.complex128, and falls back to ``complex()``
    for a form whose value has none (a custom form may return a Python
    float or an np.float64).  Where np.complex128 has no ``__complex__``
    (before Python 3.11, ``_HAS_COMPLEX``), it converts with ``complex()``
    alone.
    """
    d = m + n
    rows, on_b, on_a, on_j = on_floats
    zero, number = ("0j", "complex") if complex_kind else ("0.0", "float")

    def names(prefix, ks):
        """The unpacking targets ``p0, p1, `` of the indices ks."""
        return "".join(f"{prefix}{k}, " for k in ks)

    xs = names("x", range(d))

    def blas(call):
        """A BLAS product (a numpy scalar) as a Python number of the kind."""
        if not complex_kind:
            return f"float({call})"
        return f"({call}).__complex__()" if _HAS_COMPLEX else f"complex({call})"

    def dot(coef, ks=range(d)):
        """The sum coef @ u over the row's entries ks, on Python numbers in
        index order, with the coefficients coef_0, coef_1, ..."""
        terms = "".join(f" + x{k} * {coef}_{i}" for i, k in enumerate(ks))
        return f"({zero}{terms})"

    def product(coef, listed):
        """The term coef @ u of a 1-d coefficient and the row u: its sum on
        Python numbers where listed, else its BLAS call."""
        return dot(coef) if listed else blas(f"{coef} @ u")

    def jump_term(name, axis):
        """The lines that form the jump term p_name of the form name at the
        entry of the axis, and the term's text in a sum."""
        if axis is None:
            return [], ""
        if not complex_kind:
            return [], f" + float({name}(x{axis}))"
        if not _HAS_COMPLEX:
            return [f"p_{name} = complex({name}(czero + x{axis}))"], f" + p_{name}"
        # a custom form may return a number without __complex__
        return [f"p_{name} = {name}(czero + x{axis})", "try:",
                f"    p_{name} = p_{name}.__complex__()", "except AttributeError:",
                f"    p_{name} = complex(p_{name})"], f" + p_{name}"

    def i_rows():
        """The lines that form the I-rows r0, r1, ... of R at x0, x1, ...
        (and the row u)."""
        if not m:
            return []
        if complex_kind:
            lines = [f"q{i} = x{i} * x{i}" for i in range(m)]
        else:
            overflowed = "".join(f"square(x{i}), " for i in range(m))
            lines = ["try:", *(f"    q{i} = x{i} ** 2" for i in range(m)),
                     "except OverflowError:", f"    {names('q', range(m))}= {overflowed}"]
        for i, axis in enumerate(axes):
            jump_lines, term = jump_term(f"jump{i}", axis)
            lines += [*jump_lines,
                      f"r{i} = alpha{i} * q{i} + {product(f'beta{i}', rows[i])} - gamma{i}{term}"]
        return lines

    def row(needed):
        """The line that builds the array u of the row, which the BLAS calls
        take, when needed."""
        return [f"u = array([{', '.join(f'x{k}' for k in range(d))}])"] if needed else []

    blas_i = not all(rows)
    blas_r = blas_i or (n and not on_j)
    blas_f = not (on_a and on_b)
    if not n:
        j_rows = []
    elif on_j:
        j_rows = [f"j{k} = {dot(f'bt{k}', range(m, d))}" for k in range(n)]
    else:
        j_rows = [f"{names('j', range(n))}= (beta_JJ_T @ u[{m}:]).tolist()"]
    r_entries = [f"r{i}" for i in range(m)] + [f"j{k}" for k in range(n)]
    if on_a:
        terms = "".join(f" + {dot(f'a{i}')} * x{i}" for i in range(d))
        quad = f"({zero}{terms})"
    else:
        quad = blas("u @ (a @ u)")
    f_jump, term = jump_term("jump", axis0)
    f_value = f"{quad} + {product('b', on_b)} - c{term}"

    def function(signature, lines, indent="    "):
        return [f"{indent}def {signature}:", *(f"{indent}    {line}".rstrip() for line in lines)]

    code = ["def make(a, b, c, alpha, beta, gamma, jumps, jump, beta_JJ_T):"]
    if m:
        code += [f"    {names(name, range(m))}= {given}"
                 for name, given in (("alpha", "alpha"), ("beta", "beta"),
                                     ("gamma", "gamma"), ("jump", "jumps"))]
    # the coefficients of the products on Python numbers
    code += [f"    {names(f'beta{i}_', range(d))}= beta{i}" for i in range(m) if rows[i]]
    if on_a:
        code += [f"    {names('a', range(d))}= a",
                 *(f"    {names(f'a{i}_', range(d))}= a{i}" for i in range(d))]
    if on_b:
        code.append(f"    {names('b_', range(d))}= b")
    if n and on_j:
        code += [f"    {names('bt', range(n))}= beta_JJ_T",
                 *(f"    {names(f'bt{k}_', range(n))}= bt{k}" for k in range(n))]
    code += function("R(u)", [f"{xs}= u", *row(blas_r), *i_rows(), *j_rows,
                              f"return [{', '.join(r_entries)}]"])
    code += function("F(u)", [f"{xs}= u", *row(blas_f), *f_jump, f"return {f_value}"])
    if complex_kind:
        code.append("    reduced = None")
    elif not m:
        code += function("reduced(v)", ["return []"])
    else:
        # at (v, 0), whose J-coordinates are +0.0
        zeros = [f"{names('x', range(m, d))}= {'0.0, ' * n}"] if n else []
        code += function("reduced(v)", [f"{names('x', range(m))}= v", *zeros, *row(blas_i),
                                        *i_rows(), f"return [{', '.join(r_entries[:m])}]"])
    code += function("full(l, lam)", [f"{names('lam', range(d))}= lam"])
    discounted = "".join(f"{r} - lam{k}, " for k, r in enumerate(r_entries))
    code += function("field(z)", [f"{xs}_ = z", *row(blas_r or blas_f), *i_rows(), *j_rows,
                                  *f_jump, f"return [{discounted}{f_value} - l]"],
                     indent="        ")
    code += ["        return field",
             "    return R, F, reduced, full"]
    namespace = _compile(code, f"{number} point closures {(m, n, axes, axis0, on_floats)}",
                         {"array": np.array, "czero": _CZERO, "square": _square})
    return namespace["make"]


def _as_row(u, size):
    """u, which is not a 1-d row of size entries, as that row when u is 0-d
    and size is 1.  ConfigError for any other shape."""
    if u.shape or size != 1:
        raise ConfigError(f"expected a 1-d row of length {size}, got shape {u.shape}")
    return u.reshape(1)


def eval_F(model: AffineModel, u, check_domain: bool = True):
    """The constant functional characteristic F(u) at the point u; a bool,
    integer or float u of another width is evaluated as its float64 row, a
    complex one as its complex128 row (``_double``)."""
    u = _point_row(model, u, check_domain)
    F = model._point_fns[u.dtype.char == "D"][1]
    if _FP_QUIET.get():
        return F(u.tolist())
    with np.errstate(invalid="ignore", over="ignore"):
        return F(u.tolist())


def eval_R(model: AffineModel, u, check_domain: bool = True):
    """The state-linear functional characteristic R(u) at the point u, as a
    d-vector; a bool, integer or float u of another width is evaluated as
    its float64 row, whose square cannot wrap around, and a complex one as
    its complex128 row (``_double``)."""
    u = _point_row(model, u, check_domain)
    R = model._point_fns[u.dtype.char == "D"][0]
    if _FP_QUIET.get():
        return np.array(R(u.tolist()))
    with np.errstate(invalid="ignore", over="ignore"):
        return np.array(R(u.tolist()))


def _point_row(model, u, check_domain):
    """u as the float64 or complex128 row of d entries the point closures
    read, after the domain test when check_domain is set."""
    u = np.asarray(u)
    if u.shape != (model.shape.d,):
        u = _as_row(u, model.shape.d)
    if u.dtype.char not in "dD":
        u = _double(u)
    if check_domain and not in_domain_Y(model, u):
        raise DomainError("u outside the effective domain Y")
    return u


def _reduced_rows(model, v, check_domain):
    """reduced_R on real (N, m) rows, with the bits of N point calls.

    Only the I-rows of R are formed, at the (N, d) rows (v, 0).  The
    products go through matmul's stacked loop, which makes one ddot per row
    and I-row for beta_I[i] @ u: the BLAS call of the point path, or, where
    beta_I[i] has at most one nonzero entry and the point path sums on
    Python floats, a call with the same bits, as a sum of exact zeros and
    one rounded product is that product in any order (``_point_closures``).
    The square is float_power, as the point path's scalar u[i] ** 2 is
    pow(); an array's ** 2 is a plain square, which rounds differently.
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
    if check_domain:
        u = np.zeros(shape.d)
        u[:m] = v
        if not in_domain_Y(model, u):
            raise DomainError("u outside the effective domain Y")
    reduced = model._point_fns[0][2]
    if _FP_QUIET.get():
        return np.array(reduced(v.tolist()))
    with np.errstate(invalid="ignore", over="ignore"):
        return np.array(reduced(v.tolist()))
