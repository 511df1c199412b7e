"""Model specification files.

INI-style sections parsed with :mod:`configparser`:

    [shape]            m, n
    [diffusion]        a (d*d entries, row-major), alpha (m entries)
    [drift]            b (d entries), beta_1 .. beta_m (d entries each),
                       beta_JJ (n*n entries, row-major)
    [killing]          c, gamma (m entries)
    [jumps.constant]   family = zero|exp|point|gamma|stable, axis (1-based)
                       and the family parameters
    [jumps.linear.i]   same grammar, for i = 1..m

Numbers may be separated by whitespace or commas.  ``m``, ``n`` and the
parameters of each jump family are required; other omitted sections and keys
default to zero.  ``write_model`` emits every float with 17 significant
digits so a written file re-parses to an identical model.
"""

from __future__ import annotations

import configparser
import dataclasses
import io

import numpy as np

from .errors import ConfigError
from .model import (
    AffineModel,
    CompoundPoissonExp,
    CompoundPoissonPoint,
    GammaLevy,
    LevyMeasure,
    StateShape,
    TemperedStableHalf,
    ZeroJumps,
)

__all__ = ["parse_model", "write_model", "load_model_file"]


def _floats(text: str, where: str) -> np.ndarray:
    """The numbers in ``text``, separated by whitespace or commas; ``where``
    names the entry in the ConfigError raised when a token is not a number."""
    try:
        return np.array([float(tok) for tok in text.replace(",", " ").split()])
    except ValueError as exc:
        raise ConfigError(f"cannot parse {where} {text!r}") from exc


def _scalar(sec, key, default=None) -> float:
    """The one number under ``key`` in section ``sec``; ``default`` when the
    key is absent, which is an error when there is no default."""
    if key not in sec:
        if default is None:
            raise ConfigError(f"[{sec.name}] {key} is required")
        return default
    arr = _floats(sec[key], f"[{sec.name}] {key}")
    if arr.size != 1:
        raise ConfigError(f"[{sec.name}] {key} expects 1 entry, got {arr.size}")
    return float(arr[0])


def _integer(sec, key, default=None) -> int:
    value = _scalar(sec, key, default)
    if not value.is_integer():
        raise ConfigError(f"[{sec.name}] {key} must be an integer, got {value!r}")
    return int(value)


# family name in a model file -> measure class; the file keys of a family are
# its dataclass fields other than axis, in field order
_FAMILIES = {"zero": ZeroJumps, "exp": CompoundPoissonExp, "point": CompoundPoissonPoint,
             "gamma": GammaLevy, "stable": TemperedStableHalf}


def _parameters(cls) -> list:
    return [f.name for f in dataclasses.fields(cls) if f.name != "axis"]


def _measure_from_section(sec) -> LevyMeasure:
    family = sec.get("family", "zero").strip().lower()
    if family not in _FAMILIES:
        raise ConfigError(f"unknown jump family {family!r}")
    cls = _FAMILIES[family]
    if cls is ZeroJumps:
        return ZeroJumps()
    axis = _integer(sec, "axis", 1.0) - 1
    return cls(**{name: _scalar(sec, name) for name in _parameters(cls)}, axis=axis)


def _measure_to_lines(tag: str, mu: LevyMeasure):
    family = next((name for name, cls in _FAMILIES.items() if isinstance(mu, cls)), None)
    if family is None:
        raise ConfigError(f"measure {type(mu).__name__} has no file representation")
    lines = [f"[{tag}]", f"family = {family}"]
    if not mu.is_zero:
        lines.append(f"axis = {mu.axis + 1}")
    params = _parameters(_FAMILIES[family])
    return lines + [f"{name} = {getattr(mu, name):.17g}" for name in params]


def parse_model(text: str) -> AffineModel:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed model file: {exc}") from exc
    if "shape" not in cp:
        raise ConfigError("model file must contain a [shape] section")
    shape = StateShape(_integer(cp["shape"], "m"), _integer(cp["shape"], "n"))
    m, n = shape.m, shape.n
    d = shape.d

    def grab(section, key, size, default=0.0):
        if section in cp and key in cp[section]:
            arr = _floats(cp[section][key], f"[{section}] {key}")
            if arr.size != size:
                raise ConfigError(f"[{section}] {key} expects {size} entries, got {arr.size}")
            return arr
        return np.full(size, default)

    a = grab("diffusion", "a", d * d).reshape(d, d)
    alpha = grab("diffusion", "alpha", m)
    b = grab("drift", "b", d)
    beta_I = np.zeros((m, d))
    for i in range(m):
        beta_I[i] = grab("drift", f"beta_{i + 1}", d)
    beta_JJ = grab("drift", "beta_JJ", n * n).reshape(n, n)
    c = _scalar(cp["killing"], "c", 0.0) if "killing" in cp else 0.0
    gamma = grab("killing", "gamma", m)

    mu0 = _measure_from_section(cp["jumps.constant"]) if "jumps.constant" in cp else ZeroJumps()
    mus = []
    for i in range(m):
        tag = f"jumps.linear.{i + 1}"
        mus.append(_measure_from_section(cp[tag]) if tag in cp else ZeroJumps())

    return AffineModel(shape=shape, a=a, b=b, c=c, mu0=mu0, alpha=alpha,
                       beta_I=beta_I, gamma=gamma, mus=tuple(mus), beta_JJ=beta_JJ)


def write_model(model: AffineModel) -> str:
    shape = model.shape
    m, n, d = shape.m, shape.n, shape.d
    out = io.StringIO()

    def vec(x):
        return " ".join(f"{v:.17g}" for v in np.asarray(x).ravel())

    out.write(f"[shape]\nm = {m}\nn = {n}\n\n")
    out.write(f"[diffusion]\na = {vec(model.a)}\n")
    if m:
        out.write(f"alpha = {vec(model.alpha)}\n")
    out.write(f"\n[drift]\nb = {vec(model.b)}\n")
    for i in range(m):
        out.write(f"beta_{i + 1} = {vec(model.beta_I[i])}\n")
    if n:
        out.write(f"beta_JJ = {vec(model.beta_JJ)}\n")
    out.write(f"\n[killing]\nc = {model.c:.17g}\n")
    if m:
        out.write(f"gamma = {vec(model.gamma)}\n")
    out.write("\n" + "\n".join(_measure_to_lines("jumps.constant", model.mu0)) + "\n")
    for i in range(m):
        out.write("\n" + "\n".join(_measure_to_lines(f"jumps.linear.{i + 1}", model.mus[i])) + "\n")
    return out.getvalue()


def load_model_file(path: str) -> AffineModel:
    with open(path) as fh:
        return parse_model(fh.read())
