"""Closed forms and comparisons that the benchmark checks the program against.

Nothing here imports ``affine_riccati``: every expected value is derived from
the built-in models' definitions (their fields, jump measures and the
theory of the Riccati system), never from the program's answers.

Models, as the presets define them:

* ``feller``   R(v) = v^2 - v, F(u) = u/2.
* ``kr2014``   R(v) = 1 - v - sqrt(1 - v), F = 0.
* ``cir-jump`` R as feller; F(u) = u/2 + int (e^{u xi} - 1 - u (xi ^ 1)) mu0,
               mu0 = 0.3 * 2 e^{-2 xi} d xi.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy import integrate

Z_MAX = 5.0  # z-score limit of every Monte Carlo comparison


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def feller_psi(u, t):
    """psi of feller: u e^{-t} / (1 - u (1 - e^{-t}))."""
    e = math.exp(-t)
    return u * e / (1.0 - u * (1.0 - e))


def feller_phi(u, t):
    """phi of feller: -1/2 log(1 - u (1 - e^{-t})) (principal branch)."""
    z = 1.0 - u * (1.0 - math.exp(-t))
    return -0.5 * (cmath.log(z) if isinstance(z, complex) else math.log(z))


def feller_blowup_time(u):
    """Explosion time of feller for real u > 1: log(u / (u - 1))."""
    return math.log(u / (u - 1.0))


def feller_discounted_psi(u, lam, t):
    """psi of d psi = psi^2 - psi - lam for real u below the upper root.

    With roots r+- = (1 +- sqrt(1 + 4 lam)) / 2 and C = (u - r+)/(u - r-),
    psi = (r+ - r- C e^{D t}) / (1 - C e^{D t}), D = r+ - r-.
    """
    root = math.sqrt(1.0 + 4.0 * lam)
    rp, rm = 0.5 * (1.0 + root), 0.5 * (1.0 - root)
    ce = (u - rp) / (u - rm) * math.exp(root * t)
    return (rp - rm * ce) / (1.0 - ce)


def kr2014_psi(u, t):
    """psi of kr2014: 1 - (1 - (1 - sqrt(1 - u)) e^{-t/2})^2."""
    w0 = cmath.sqrt(1.0 - u) if isinstance(u, complex) else math.sqrt(1.0 - u)
    return 1.0 - (1.0 - (1.0 - w0) * math.exp(-0.5 * t)) ** 2


def kr2014_minimal(t):
    """The minimal kr2014 solution from the boundary theta = 1: 1 - (1 - e^{-t/2})^2."""
    return 1.0 - (1.0 - math.exp(-0.5 * t)) ** 2


_CJ_RATE, _CJ_JUMP = 0.3, 2.0
# int (xi ^ 1) mu0(d xi) for mu0 = rate * jump e^{-jump xi}: rate (1 - e^{-jump}) / jump
_CJ_CHI = _CJ_RATE * (1.0 - math.exp(-_CJ_JUMP)) / _CJ_JUMP


def feller_F(u):
    return 0.5 * u


def cir_jump_F(u):
    """F of cir-jump from the measure: u/2 + rate u / (jump - u) - u CHI."""
    return 0.5 * u + _CJ_RATE * u / (_CJ_JUMP - u) - u * _CJ_CHI


def phi_by_quadrature(F, psi, T, l=0.0):
    """int_0^T F(psi(s)) ds - l T by adaptive quadrature (real and imaginary parts)."""
    def part(fn):
        val, _ = integrate.quad(fn, 0.0, T, epsabs=1e-14, epsrel=1e-12, limit=200)
        return val
    re = part(lambda s: complex(F(psi(s))).real)
    im = part(lambda s: complex(F(psi(s))).imag)
    return complex(re, im) - l * T if im != 0.0 else re - l * T


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def tilted_kr2014_witness(ts):
    """Minimal non-trivial solution from 0 of tilted kr2014: -(e^{-t/2} - 1)^2."""
    return -(np.exp(-0.5 * np.asarray(ts, dtype=float)) - 1.0) ** 2


def tilted_kr2014_field(g):
    """Reduced field of kr2014 tilted at 1: R(g + 1) - R(1) = -g - sqrt(-g), g <= 0."""
    g = np.asarray(g, dtype=float)
    return -g - np.sqrt(np.maximum(-g, 0.0))


def kr2014_field(v):
    v = np.asarray(v, dtype=float)
    return 1.0 - v - np.sqrt(np.maximum(1.0 - v, 0.0))


def trapezoid_defect(ts, values, field):
    """max_k |(g_{k+1} - g_k)/h - (f(g_k) + f(g_{k+1}))/2| over the grid."""
    ts = np.asarray(ts, dtype=float)
    g = np.asarray(values, dtype=float).reshape(len(ts), -1)
    f = field(g)
    h = np.diff(ts)[:, None]
    keep = h[:, 0] > 0
    defect = np.abs(np.diff(g, axis=0)[keep] / h[keep] - 0.5 * (f[1:] + f[:-1])[keep])
    return float(np.max(defect))


def lipschitz_sup(model_name, rho):
    """sup |R'(v)| over |v| <= rho for the built-in reduced fields."""
    if model_name in ("feller", "cir-jump"):
        return 1.0 + 2.0 * rho            # R' = 2v - 1
    # kr2014: R' = -1 + 1 / (2 sqrt(1 - v)), monotone in v
    return max(abs(-1.0 + 0.5 / math.sqrt(1.0 - s * rho)) for s in (1.0, -1.0))


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def exp_moment(model_name, u, T, x0):
    """E[e^{u X_T}] = e^{phi + psi x0} for a real u where it is finite."""
    if model_name == "kr2014":
        return math.exp(kr2014_psi(u, T) * x0)
    psi = feller_psi(u, T)
    if model_name == "feller":
        return math.exp(feller_phi(u, T) + psi * x0)
    phi = phi_by_quadrature(cir_jump_F, lambda s: feller_psi(u, s), T)
    return math.exp(phi + psi * x0)


def mean_state(model_name, T, x0):
    """E[X_T]: x0 e^{-T/2} for kr2014, 1/2 + (x0 - 1/2) e^{-T} for feller."""
    if model_name == "kr2014":
        return x0 * math.exp(-0.5 * T)
    return 0.5 + (x0 - 0.5) * math.exp(-T)


def tilted_survival(T, x0=1.0):
    """Q~(tau > T) for kr2014 tilted at 1: exp(-x0 (e^{-T/2} - 1)^2)."""
    return math.exp(-x0 * (math.exp(-0.5 * T) - 1.0) ** 2)


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


class Checks:
    """The comparisons made for one operation; each records whether it held.

    Every comparison is kept with the data needed to replay it on a
    perturbed value, which the self-test does.
    """

    def __init__(self):
        self.items = []   # (kind, label, args, ok)

    def _add(self, kind, label, args, ok):
        self.items.append((kind, label, args, bool(ok)))

    def close(self, label, got, want, rtol=1e-7, atol=1e-10):
        self._add("close", label, (got, want, rtol, atol), _close(got, want, rtol, atol))

    def ztest(self, label, mean, stderr, want, zmax=Z_MAX):
        self._add("ztest", label, (mean, stderr, want, zmax), _ztest(mean, stderr, want, zmax))

    def below(self, label, got, limit):
        self._add("below", label, (got, limit), _below(got, limit))

    def same(self, label, got, want):
        self._add("same", label, (got, want), got == want)

    @property
    def ok(self) -> bool:
        return all(item[3] for item in self.items)

    def failures(self):
        return [f"{label} ({kind} {args!r})" for kind, label, args, ok in self.items if not ok]


def _close(got, want, rtol, atol):
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return False
    return bool(np.all(np.abs(got - want) <= atol + rtol * np.abs(want)))


def _ztest(mean, stderr, want, zmax):
    return stderr > 0 and math.isfinite(mean) and abs(mean - want) <= zmax * stderr


def _below(got, limit):
    return math.isfinite(got) and got <= limit


# Perturbations of the self-test: a transform or witness wrong from the
# fifth significant digit, a Monte Carlo mean biased by 20% (at least ten
# standard errors for every ensemble of the workloads, so that the rejection
# does not depend on the seed), a bound doubled plus one, a differing digest
# or kind.
def _perturbed(kind, args):
    if kind == "close":
        got, want, rtol, atol = args
        got = np.asarray(got)
        return (got + 1e-5 * (1.0 + np.abs(got)), want, rtol, atol)
    if kind == "ztest":
        mean, stderr, want, zmax = args
        return (mean + 0.2 * abs(want), stderr, want, zmax)
    if kind == "below":
        got, limit = args
        return (2.0 * limit + 1.0, limit)
    got, want = args
    return ("perturbed:" + repr(got), want)


_CHECKERS = {
    "close": lambda a: _close(*a),
    "ztest": lambda a: _ztest(*a),
    "below": lambda a: _below(*a),
    "same": lambda a: a[0] == a[1],
}


def self_test(checks_list):
    """Labels of passing comparisons that still pass on a perturbed value.

    An empty list means each oracle used by the operations rejects a
    perturbed value.
    """
    blind = []
    for checks in checks_list:
        for kind, label, args, ok in checks.items:
            if ok and _CHECKERS[kind](_perturbed(kind, args)):
                blind.append(label)
    return blind
