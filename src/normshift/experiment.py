"""Experiment configuration: the JSON schema of a run, and the catalogue.

This is the only module that reads a config (see the README for its keys):
it turns each spec into typed arguments for the constructors of the other
modules.  Each kind of value has one reader: ``number`` (a JSON number, not
a boolean, finite), ``array`` (JSON lists of such numbers, nested to a
shape), ``positive_int`` and ``flag`` (true or false).  An absent key takes
its default; a present one, null included, must hold a value of its kind.
Every error found while building, a malformed value or a constructor's
precondition, is a ConfigError (exit code 2); errors of the run, the nu
solve included, are not.
"""

from __future__ import annotations

import functools
import json
import math
import numbers

import numpy as np

from .closedform import CycloidParams
from .dynamics import IntegratorConfig, PhaseState
from .errors import InvalidParams, SingularCurve
from .forces import (ForceField, MDTypeParams, Profile, ScalarFieldA, anisotropic_field,
                     cos_profile_ansatz, disc_invariant_ansatz, from_scalar_ansatz,
                     geodesic_field, gravity_field, marked_point_field, mdtype_field,
                     oscillator_field, speed_profile_ansatz, speed_profile_field)
from .geometry import ConformalMetric
from .shift import (Curve, NuSolution, circle_arc, line_segment, segment_on_axis,
                    solve_nu, spline_through, tilted_line)


class ConfigError(ValueError):
    """Configuration file is missing, malformed, or inconsistent."""


_REQUIRED = object()


def _config_errors(build):
    """``build`` with the precondition errors of the constructors it calls
    (InvalidParams, SingularCurve, a dataclass's ValueError) and their float
    overflows as ConfigError."""

    @functools.wraps(build)
    def checked(*args):
        try:
            return build(*args)
        except ConfigError:
            raise
        except (InvalidParams, SingularCurve, ValueError, ArithmeticError) as exc:
            raise ConfigError(str(exc)) from exc

    return checked


def _real(value, name: str) -> float:
    """``value`` as a float; ConfigError unless it is a JSON number, not a
    boolean, and finite (an integer beyond the float range is not)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:
            pass
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def number(spec: dict, key: str, default=_REQUIRED, *, positive: bool = False):
    """spec[key] as a float, ``default`` if the key is absent; ConfigError
    unless it is a finite number (above 0 if ``positive``), or if it is
    absent without a default."""
    if key not in spec:
        if default is _REQUIRED:
            raise ConfigError(f"missing '{key}'")
        return default
    value = _real(spec[key], f"'{key}'")
    if positive and value <= 0.0:
        raise ConfigError(f"'{key}' must be positive, got {value!r}")
    return value


def array(spec: dict, key: str, shape: tuple[int, ...] | None,
          default=_REQUIRED) -> np.ndarray:
    """spec[key] as a float array of ``shape``, where -1 matches any length
    and None any shape; ``default`` if the key is absent.  ConfigError
    unless it is JSON lists, nested to that shape, of finite numbers."""
    if key not in spec:
        if default is _REQUIRED:
            raise ConfigError(f"missing '{key}'")
        return np.array(default, float)
    value = spec[key]

    def floats(v):
        return ([floats(item) for item in v] if isinstance(v, list)
                else _real(v, f"each entry of '{key}'"))

    arr = None
    if isinstance(value, list):
        entries = floats(value)
        try:
            arr = np.array(entries, float)
        except ValueError:  # ragged nesting
            pass
    if arr is None or shape is not None and not (
            arr.ndim == len(shape) and all(n in (-1, m) for n, m in zip(shape, arr.shape))):
        wanted = "" if shape is None else f" of shape {shape}".replace("-1", "n")
        raise ConfigError(f"'{key}' must be lists of finite numbers{wanted}, got {value!r}")
    return arr


# The largest count a config may give (n_t, n_s, probes.count), and the
# largest shift grid n_s * n_t.  A run's arrays sized by its counts take
# about 180 bytes per output time of simulate, 240 per probe of check and
# 220 per grid node of shift, so at this ceiling each stays under about
# 1 GB (the README has the arithmetic).
MAX_COUNT = 4_000_000


def positive_int(cfg: dict, key: str, default: int) -> int:
    """cfg[key] (default if absent), which must be an integer from 1 to
    MAX_COUNT."""
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= MAX_COUNT:
        raise ConfigError(f"'{key}' must be an integer from 1 to {MAX_COUNT}, got {value!r}")
    return value


def grid_counts(cfg: dict) -> tuple[int, int]:
    """(n_s, n_t) of a shift, each a ``positive_int``, with at most MAX_COUNT
    nodes n_s * n_t."""
    n_s, n_t = positive_int(cfg, "n_s", 64), positive_int(cfg, "n_t", 100)
    if n_s * n_t > MAX_COUNT:
        raise ConfigError(f"a shift grid has at most {MAX_COUNT} nodes, got "
                          f"n_s * n_t = {n_s} * {n_t} = {n_s * n_t}")
    return n_s, n_t


def flag(cfg: dict, key: str, default: bool) -> bool:
    """cfg[key] (default if absent), which must be true or false."""
    value = cfg.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"'{key}' must be true or false, got {value!r}")
    return value


def complex_flag(cfg: dict, ansatz: ScalarFieldA | None) -> bool:
    """``flag`` "include_complex", which asks for the complex residual of the
    swept field's scalar generator ``ansatz``: true only where there is one.
    A catalogue field has none, nor has the flat field swept under a metric."""
    if flag(cfg, "include_complex", False):
        if ansatz is None:
            raise ConfigError("'include_complex' needs a scalar generator: a "
                              "'field.ansatz' and no 'metric'")
        return True
    return False


def _not_json(name: str):  # NaN, Infinity or -Infinity, which Python's json reads
    raise ValueError(f"{name} is not a JSON value")


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_constant=_not_json)
    except OSError as exc:
        raise ConfigError(f"cannot read the config file: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _profile(spec: dict, key: str, default: Profile | None = None) -> Profile:
    """spec[key] as a Profile: a number c or {"kind": "constant", "value": c}
    for the constant c, {"kind": "poly", "coeffs": [a0, a1, ...]} for
    a0 + a1 x + ...; ``default`` if the key is absent."""
    if key not in spec:
        if default is None:
            raise ConfigError(f"missing profile '{key}'")
        return default
    p = spec[key]
    if not isinstance(p, dict):
        return Profile.constant(_real(p, f"profile '{key}'"))
    kind = p.get("kind")
    if kind == "constant":
        return Profile.constant(number(p, "value"))
    if kind == "poly":
        return Profile.polynomial(array(p, "coeffs", (-1,)))
    raise ConfigError(f"unknown profile kind {kind!r}")


def build_metric(spec) -> ConformalMetric | None:
    """The conformal metric a spec describes, or None for the Euclidean one:
    null, "zero", "euclidean", or an object of no kind or of one of those."""
    if spec in (None, "euclidean", "zero"):
        return None
    if not isinstance(spec, dict):
        raise ConfigError(f"a metric must be an object, got {spec!r}")
    kind = spec.get("kind")
    if kind in (None, "zero", "euclidean"):
        return None
    if kind == "constant":
        return ConformalMetric.constant(number(spec, "value"))
    if kind == "sin_cos":
        amp = number(spec, "amplitude", 1.0)
        return ConformalMetric(
            f=lambda x, y: amp * np.sin(x) * np.cos(y),
            grad_f=lambda x, y: (amp * np.cos(x) * np.cos(y),
                                 -amp * np.sin(x) * np.sin(y)),
        )
    if kind == "linear":
        ax, ay = number(spec, "ax", 1.0), number(spec, "ay", 0.0)
        return ConformalMetric(f=lambda x, y: ax * x + ay * y,
                               grad_f=lambda x, y: (ax, ay))
    raise ConfigError(f"unknown metric kind {kind!r}")


def _conformal_factor(params: dict) -> ConformalMetric:
    """The catalogue parameter "f", a metric spec; f = 0 if absent."""
    return build_metric(params.get("f")) or ConformalMetric.euclidean()


def _disc_invariant(spec: dict) -> ScalarFieldA:
    """The disc-invariant generator of radius "R" and profile "profile" (default 1)."""
    return disc_invariant_ansatz(number(spec, "R"),
                                 _profile(spec, "profile", Profile.constant(1.0)))


def _build_mdtype(params: dict, key: str) -> ForceField:
    """The multidimensional-type field of W = v exp(-f) and the profile
    params[key] (default 0), the one field of ``metrizable`` (key "H") and
    ``mdtype`` (key "h").  ConfigError unless W_v is a finite number of
    magnitude at least 1e-12 at three probe points."""
    md = MDTypeParams.from_conformal(_conformal_factor(params),
                                     _profile(params, key, Profile.constant(0.0)))
    # W_v = exp(-f) underflows where f is large (sin_cos of amplitude 100)
    # and overflows where f is below about -709
    with np.errstate(over="ignore", invalid="ignore"):
        probes = [md.w(x, y, v)[1] for x, y, v in
                  ((0.0, 0.0, 1.0), (1.0, -1.0, 2.0), (-0.5, 0.5, 0.7))]
    if not all(math.isfinite(w_v) and abs(w_v) >= 1e-12 for w_v in probes):
        raise ConfigError("W_v vanishes or is not finite at a probe point")
    return mdtype_field(md)


CATALOGUE = {
    "gravity": {
        "build": lambda params: gravity_field(number(params, "magnitude", 1.0)),
        "claims_normality": False,
        "params": {"magnitude": "optional, default 1.0"},
        "description": "Homogeneous downward field F = (0, -magnitude).",
    },
    "oscillator": {
        "build": lambda params: oscillator_field(number(params, "omega")),
        "claims_normality": False,
        "params": {"omega": "required frequency"},
        "description": "Harmonic restoring force F = (0, -omega^2 y).",
    },
    "anisotropic": {
        "build": lambda params: anisotropic_field(
            _profile(params, "profile"), m=array(params, "m", (2,), (1.0, 0.0))),
        "claims_normality": True,
        "params": {"profile": "A(v) profile", "m": "optional unit direction, default (1,0)"},
        "description": "Homogeneous field F = A(|v|)(2<N,m>N - m); force at angle 2*theta to m.",
    },
    "marked_point": {
        "build": lambda params: marked_point_field(
            _profile(params, "profile"), center=array(params, "center", (2,), (0.0, 0.0))),
        "claims_normality": True,
        "params": {"profile": "A(v) profile", "center": "optional, default origin"},
        "description": "Field F = A(|v|)(2<N,r>N - r)/|r|^2 with a marked center.",
    },
    "geodesic": {
        "build": lambda params: geodesic_field(_conformal_factor(params)),
        "claims_normality": True,
        "params": {"f": "conformal factor spec"},
        "description": "Geodesic flow of g = exp(-2f) delta as a flat-space field.",
    },
    "metrizable": {
        "build": lambda params: _build_mdtype(params, "H"),
        "claims_normality": True,
        "params": {"f": "conformal factor spec", "H": "speed profile"},
        "description": "Geodesic field plus tangential drive H(|v| exp(-f)) exp(f).",
    },
    "mdtype": {
        "build": lambda params: _build_mdtype(params, "h"),
        "claims_normality": True,
        "params": {"f": "conformal factor spec", "h": "profile applied to W"},
        "description": "Multidimensional-type field built from W(x,y,v) with W_v != 0.",
    },
    "disc_invariant": {
        "build": lambda params: from_scalar_ansatz(_disc_invariant(params)),
        "claims_normality": True,
        "params": {"R": "disc radius", "profile": "f(u) profile"},
        "description": "Scalar-ansatz field from the disc-invariant generator, |r| < R.",
    },
}


@_config_errors
def catalogue(name: str, params: dict | None = None) -> ForceField:
    """Build a built-in force field by name with a JSON-style parameter dict."""
    entry = CATALOGUE.get(name) if isinstance(name, str) else None
    if entry is None:
        raise ConfigError(f"no catalogue field named {name!r}")
    if params is not None and not isinstance(params, dict):
        raise ConfigError(f"catalogue params must be an object, got {params!r}")
    return entry["build"](params or {})


def catalogue_listing() -> list[dict]:
    """Stable machine-readable description of the built-in fields."""
    rows = []
    for name in sorted(CATALOGUE):
        entry = CATALOGUE[name]
        rows.append({
            "name": name,
            "claims_normality": entry["claims_normality"],
            "params": entry["params"],
            "description": entry["description"],
        })
    return rows


@_config_errors
def build_ansatz(spec: dict) -> tuple[ForceField, ScalarFieldA]:
    """(field, generator) of a 'field.ansatz' spec.  A ``speed_profile``
    generator's field is ``speed_profile_field``, of the same Profile;
    every other generator's is ``from_scalar_ansatz``."""
    if not isinstance(spec, dict):
        raise ConfigError("'field.ansatz' must be an object")
    kind = spec.get("kind")
    if kind == "speed_profile":
        profile = _profile(spec, "profile")
        return speed_profile_field(profile), speed_profile_ansatz(profile)
    if kind == "cos_profile":
        a = cos_profile_ansatz(_profile(spec, "profile"))
    elif kind == "disc_invariant":
        a = _disc_invariant(spec)
    elif kind == "angular_monomial":
        # A = c v^p theta: a deliberate non-solution for residual demos
        c = number(spec, "coef", 1.0)
        p = number(spec, "power", 2.0)
        a = ScalarFieldA(lambda x, y, v, t: c * np.power(v, p) * t,
                         a_theta=lambda x, y, v, t: c * np.power(v, p))
    else:
        raise ConfigError(f"unknown ansatz kind {kind!r}")
    return from_scalar_ansatz(a), a


def build_field(spec) -> tuple[ForceField, ScalarFieldA | None]:
    """Returns (field, ansatz-or-None): a catalogue field has no generator,
    an ansatz's pair is ``build_ansatz``'s."""
    if not isinstance(spec, dict):
        raise ConfigError("'field' must be an object")
    if "catalogue" in spec:
        return catalogue(spec["catalogue"], spec.get("params")), None
    if "ansatz" in spec:
        return build_ansatz(spec["ansatz"])
    raise ConfigError("'field' needs either 'catalogue' or 'ansatz'")


@_config_errors
def build_curve(spec) -> Curve:
    if not isinstance(spec, dict):
        raise ConfigError("'curve' must be an object")
    kind = spec.get("kind")
    normal = spec.get("normal", "left")
    if kind == "segment_on_axis":
        return segment_on_axis(number(spec, "s_min", -1.0), number(spec, "s_max", 1.0),
                               normal=spec.get("normal", "right"))
    if kind == "tilted_line":
        return tilted_line(number(spec, "s_min", -1.0), number(spec, "s_max", 1.0),
                           normal=normal)
    if kind == "segment":
        return line_segment(array(spec, "p0", (2,)), array(spec, "p1", (2,)), normal=normal)
    if kind == "circle":
        return circle_arc(array(spec, "center", (2,), (0.0, 0.0)), number(spec, "radius"),
                          array(spec, "s_range", (2,), (0.0, math.pi)), normal=normal)
    if kind == "spline":
        return spline_through(array(spec, "points", (-1, 2)), normal=normal)
    raise ConfigError(f"unknown curve kind {kind!r}")


def build_nu(spec, curve: Curve, field: ForceField) -> Profile | NuSolution:
    """The config's nu as a speed profile: a constant or an affine function
    of s as a ``Profile``, or the NuSolution of the initial-speed ODE.  The
    solve is part of the run, so its errors are not config errors."""
    if spec is None:
        spec = {}
    if not isinstance(spec, dict):
        return Profile.constant(_real(spec, "'nu' (a number or an object)"))
    kind = spec.get("kind", "solve")
    if kind == "constant":
        return Profile.constant(number(spec, "value", 1.0))
    if kind == "affine":
        return Profile.polynomial([number(spec, "a0", 1.0), number(spec, "a1", 0.0)])
    if kind == "solve":
        s0 = number(spec, "s0", 0.5 * sum(curve.s_range))
        nu0 = number(spec, "nu0", 1.0)
        if nu0 == 0.0:
            raise ConfigError("nu0 must be nonzero")
        lo, hi = curve.s_range
        if not lo <= s0 <= hi:
            raise ConfigError(f"nu s0={s0} outside the curve's range [{lo}, {hi}]")
        return solve_nu(curve, field, s0, nu0)
    raise ConfigError(f"unknown nu kind {kind!r}")


@_config_errors
def build_integrator(cfg: dict) -> IntegratorConfig:
    tol = cfg.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigError("'tolerances' must be an object")
    return IntegratorConfig(method=cfg.get("integrator", "dopri-adaptive"),
                            step=number(cfg, "step", None),
                            abs_tol=number(tol, "abs", 1e-10),
                            rel_tol=number(tol, "rel", 1e-10))


def build_init(cfg: dict) -> PhaseState:
    """The launch state: "r" and "v" of "init", two numbers each in any nesting."""
    init = cfg.get("init")
    if not isinstance(init, dict):
        raise ConfigError("'init' must be an object with 'r' and 'v'")
    r, v = (array(init, k, None) for k in ("r", "v"))
    if r.size != 2 or v.size != 2:
        raise ConfigError("'init' must carry 'r' and 'v' 2-vectors")
    return PhaseState(r.reshape(2), v.reshape(2))


@_config_errors
def build_oracle(spec, init: PhaseState) -> tuple[str, float, object]:
    """(kind, tol, data) of the config's "oracle", the closed form that
    --check-oracle compares the trajectory from ``init`` with: the tolerance
    on the largest position error, and the data of the closed form, which
    is the launch abscissa s of a gravity front (default: that of
    ``init``), the CycloidParams of a cycloid, or None for free motion."""
    if not spec:
        raise ConfigError("--check-oracle requires an 'oracle' entry in the config")
    if not isinstance(spec, dict):
        raise ConfigError("'oracle' must be an object")
    kind = spec.get("kind")
    tol = number(spec, "tol", 1e-6, positive=True)
    if kind in ("gravity_constant_nu", "gravity_linear_nu"):
        return kind, tol, number(spec, "s", float(init.r[0]))
    if kind == "cycloid":
        return kind, tol, CycloidParams(**{key: number(spec, key)
                                           for key in ("x0", "y0", "theta0", "v0", "a0")})
    if kind == "zero_field":
        return kind, tol, None
    raise ConfigError(f"unknown oracle kind {kind!r}")


def probe_spec(cfg: dict, seed: int | None = None) -> tuple[int, int, dict | None]:
    """(count, seed, box) of the config's "probes" object; ``seed`` overrides
    its seed.  A box maps x, y, v and theta to [lo, hi] pairs of finite width."""
    probes = cfg.get("probes", {})
    if not isinstance(probes, dict):
        raise ConfigError("'probes' must be an object")
    seed = probes.get("seed", 0) if seed is None else seed
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"probe seed must be a non-negative integer, got {seed!r}")
    box = probes.get("box")
    if box is not None:
        if not isinstance(box, dict):
            raise ConfigError("'probes.box' must map x, y, v and theta to [lo, hi] pairs")
        box = {k: array(box, k, (2,)) for k in ("x", "y", "v", "theta")}
        if not all(lo <= hi and math.isfinite(float(hi) - float(lo)) for lo, hi in box.values()):
            raise ConfigError("each [lo, hi] pair of 'probes.box' needs lo <= hi, finite hi - lo")
    return positive_int(probes, "count", 100), seed, box


def t_span_of(cfg: dict) -> tuple[float, float]:
    t0, t1 = (float(t) for t in array(cfg, "t_span", (2,)))
    if not math.isfinite(t1 - t0):
        raise ConfigError(f"'t_span' [{t0}, {t1}] is wider than the float range")
    return t0, t1
