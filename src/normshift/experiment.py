"""Experiment configuration: JSON specs for fields, metrics, curves and runs.

A config is one JSON document.  Exactly which keys are required depends on
the subcommand; see the schema notes in the README.  Builders raise
ConfigError on malformed specs so the CLI can map them to exit code 2.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import InvalidParams, UnknownCatalogueEntry
from .forces import (ForceField, Profile, ScalarFieldA, catalogue,
                     cos_profile_ansatz, disc_invariant_ansatz, from_scalar_ansatz,
                     speed_profile_ansatz, metric_from_params, profile_from_params,
                     real_number)
from .geometry import ConformalMetric
from .dynamics import IntegratorConfig, PhaseState
from .shift import (Curve, circle_arc, constant_nu, line_segment, segment_on_axis,
                    solve_nu, spline_through, tilted_line)


class ConfigError(ValueError):
    """Configuration file is missing, malformed, or inconsistent."""


_REQUIRED = object()


def number(spec: dict, key: str, default=_REQUIRED):
    """spec[key] as a float, ``default`` if absent or null; ConfigError unless
    it is a finite real number, or if it is absent without a default."""
    value = spec.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"missing '{key}'")
        return default
    return _real(value, f"'{key}'")


def _real(value, name: str) -> float:
    try:
        return real_number(value, name)
    except InvalidParams as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        with open(p) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def build_ansatz(spec: dict) -> ScalarFieldA:
    if not isinstance(spec, dict):
        raise ConfigError("'field.ansatz' must be an object")
    kind = spec.get("kind")
    try:
        if kind == "speed_profile":
            return speed_profile_ansatz(profile_from_params(spec.get("profile")))
        if kind == "cos_profile":
            return cos_profile_ansatz(profile_from_params(spec.get("profile")))
        if kind == "disc_invariant":
            return disc_invariant_ansatz(number(spec, "R", 0.0),
                                         profile_from_params(spec.get("profile"),
                                                             default=Profile.constant(1.0)))
        if kind == "angular_monomial":
            # A = c v^p theta: a deliberate non-solution for residual demos
            c = number(spec, "coef", 1.0)
            p = number(spec, "power", 2.0)
            return ScalarFieldA(lambda x, y, v, t: c * np.power(v, p) * t,
                                label="angular-monomial")
    except InvalidParams as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown ansatz kind {kind!r}")


def build_field(spec) -> tuple[ForceField, ScalarFieldA | None]:
    """Returns (field, ansatz-or-None)."""
    if not isinstance(spec, dict):
        raise ConfigError("'field' must be an object")
    if "catalogue" in spec:
        try:
            return catalogue(spec["catalogue"], spec.get("params")), None
        except (UnknownCatalogueEntry, InvalidParams) as exc:
            raise ConfigError(str(exc)) from exc
    if "ansatz" in spec:
        a = build_ansatz(spec["ansatz"])
        return from_scalar_ansatz(a), a
    raise ConfigError("'field' needs either 'catalogue' or 'ansatz'")


def build_metric(spec) -> ConformalMetric | None:
    """The config's conformal metric, or None for the Euclidean one."""
    if spec in (None, "euclidean", "zero") or (
            isinstance(spec, dict) and spec.get("kind") in (None, "zero", "euclidean")):
        return None
    try:
        return metric_from_params(spec)
    except InvalidParams as exc:
        raise ConfigError(str(exc)) from exc


def build_curve(spec) -> Curve:
    if not isinstance(spec, dict):
        raise ConfigError("'curve' must be an object")
    kind = spec.get("kind")
    normal = spec.get("normal", "left")
    try:
        if kind == "segment_on_axis":
            return segment_on_axis(number(spec, "s_min", -1.0), number(spec, "s_max", 1.0),
                                   normal=spec.get("normal", "right"))
        if kind == "tilted_line":
            return tilted_line(number(spec, "s_min", -1.0), number(spec, "s_max", 1.0),
                               normal=normal)
        if kind == "segment":
            return line_segment(spec["p0"], spec["p1"], normal=normal)
        if kind == "circle":
            return circle_arc(spec.get("center", (0.0, 0.0)), number(spec, "radius"),
                              spec.get("s_range", (0.0, math.pi)), normal=normal)
        if kind == "spline":
            return spline_through(spec["points"], normal=normal)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad curve spec: {exc}") from exc
    raise ConfigError(f"unknown curve kind {kind!r}")


def build_nu(spec, curve: Curve, field: ForceField, n_s: int):
    """The config's nu; a solved one stops at the n_s s-nodes of the shift."""
    if spec is None:
        spec = {"kind": "solve", "s0": 0.5 * sum(curve.s_range), "nu0": 1.0}
    if not isinstance(spec, dict):
        return constant_nu(_real(spec, "'nu' (a number or an object)"))
    kind = spec.get("kind", "solve")
    if kind == "constant":
        return constant_nu(number(spec, "value", 1.0))
    if kind == "affine":
        a0, a1 = number(spec, "a0", 1.0), number(spec, "a1", 0.0)
        return lambda s: a0 + a1 * s
    if kind == "solve":
        s0 = number(spec, "s0", 0.5 * sum(curve.s_range))
        nu0 = number(spec, "nu0", 1.0)
        if nu0 == 0.0:
            raise ConfigError("nu0 must be nonzero")
        lo, hi = curve.s_range
        if not lo <= s0 <= hi:
            raise ConfigError(f"nu s0={s0} outside the curve's range [{lo}, {hi}]")
        return solve_nu(curve, field, s0, nu0, s_stops=np.linspace(lo, hi, n_s))
    raise ConfigError(f"unknown nu kind {kind!r}")


def build_integrator(cfg: dict) -> IntegratorConfig:
    tol = cfg.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigError("'tolerances' must be an object")
    method = cfg.get("integrator", "dopri-adaptive")
    try:
        return IntegratorConfig(method=method, step=number(cfg, "step", None),
                                abs_tol=number(tol, "abs", 1e-10),
                                rel_tol=number(tol, "rel", 1e-10))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad integrator spec: {exc}") from exc


def build_init(cfg: dict) -> PhaseState:
    init = cfg.get("init")
    if not isinstance(init, dict) or "r" not in init or "v" not in init:
        raise ConfigError("'init' must carry 'r' and 'v' 2-vectors")
    try:
        return PhaseState(*(np.asarray(init[k], float).reshape(2) for k in ("r", "v")))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def positive_int(cfg: dict, key: str, default: int) -> int:
    """cfg[key] (default if absent), which must be an integer of at least 1."""
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"'{key}' must be a positive integer, got {value!r}")
    return value


def probe_spec(cfg: dict, seed: int | None = None) -> tuple[int, int, dict | None]:
    """(count, seed, box) of the config's "probes" object; ``seed`` overrides
    its seed.  A box maps x, y, v and theta to finite [lo, hi] pairs."""
    probes = cfg.get("probes", {})
    if not isinstance(probes, dict):
        raise ConfigError("'probes' must be an object")
    seed = probes.get("seed", 0) if seed is None else seed
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"probe seed must be a non-negative integer, got {seed!r}")
    box = probes.get("box")
    if box is not None and not (isinstance(box, dict) and all(
            _finite_pair(box.get(k)) for k in ("x", "y", "v", "theta"))):
        raise ConfigError("'probes.box' must map x, y, v and theta to finite [lo, hi] pairs")
    return positive_int(probes, "count", 100), seed, box


def _finite_pair(p) -> bool:
    return (isinstance(p, (list, tuple)) and len(p) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    and math.isfinite(x) for x in p))


def t_span_of(cfg: dict) -> tuple[float, float]:
    span = cfg.get("t_span")
    if not _finite_pair(span):
        raise ConfigError("'t_span' must be a finite [t0, t1] pair")
    return float(span[0]), float(span[1])
