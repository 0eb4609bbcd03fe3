"""Phase-flow integration and deviation (variation-vector) equations.

The flow is r' = v, v' = F(r, v) of a flat field F.  A covariant flow in a
conformal metric g = exp(-2f) I is the flat flow of flat_from_covariant(F, g);
the CLI converts the field once per run, so nothing here takes a metric.
The variation vector tau of a one-parameter family of trajectories satisfies
the linearized equations

    tau''_k = sum_i dF_k/dr^i tau_i + sum_i dF_k/dv^i tau'_i,

whose right side, the derivative of F along (tau, tau') in phase space,
comes with F from one complex evaluation of the field per row
(``ForceField.derivative``).  The frame components phi = <tau, N>,
psi = <tau, M> of tau satisfy a pair of second-order ODEs whose
coefficients are the alpha/beta gradient components of A and B.  Both
linearizations are integrated together with the base flow as one combined
system, never against a stored interpolant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import odesolve
from .errors import StepFailure
from .forces import ForceField, ab_decompose
from .geometry import dot, frame
# Never called here; perfbench/tracing.py patches this binding by name.
from .geometry import christoffel  # noqa: F401
from .normality import ab_gradients
from .tables import formatted, write_table


@dataclass(frozen=True)
class PhaseState:
    """Points of the phase space: positions r and velocities v, (..., 2) each."""

    r: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        r, v = np.asarray(self.r, float), np.asarray(self.v, float)
        if r.shape[-1:] != (2,) or r.shape != v.shape:
            raise ValueError(f"r and v must have one shape (..., 2), got {r.shape}, {v.shape}")
        if not (np.isfinite(r).all() and np.isfinite(v).all()):
            raise ValueError("phase state has non-finite coordinates")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "v", v)

    def packed(self) -> np.ndarray:
        return np.concatenate([self.r, self.v], axis=-1)


@dataclass
class IntegratorConfig:
    """Integrator selection: ``"dopri-adaptive"``, the adaptive
    Dormand–Prince 8(5,3) pair DOP853 (default), or ``"rk4-fixed"``."""

    method: str = "dopri-adaptive"
    step: float | None = None
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10

    def __post_init__(self):
        if self.method not in ("dopri-adaptive", "rk4-fixed"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.method == "rk4-fixed" and (self.step is None or self.step <= 0):
            raise ValueError("rk4-fixed requires a positive step")


class Trajectory:
    """Integrated trajectory: the solver's dense output (DOP853's 7th-order
    interpolant, or RK4's cubic Hermite, which is its first three rows, on
    the accepted steps) and the states it gives at the output times, where
    the state at the initial time is the initial state itself."""

    def __init__(self, times: np.ndarray, sol: odesolve.OdeSolution):
        self.times = np.asarray(times, float)
        self._sol = sol
        self._ys = _sample(sol, self.times)

    @property
    def states(self) -> list[PhaseState]:
        return [PhaseState(y[:2], y[2:4]) for y in self._ys]

    def positions(self) -> np.ndarray:
        return self._ys[:, :2]

    def velocities(self) -> np.ndarray:
        return self._ys[:, 2:4]

    @property
    def work(self) -> dict:
        """The integrator's work, ``OdeSolution.work``."""
        return self._sol.work

    def state_at(self, t: float) -> PhaseState:
        y = self._sol(t)
        return PhaseState(y[:2], y[2:4])

    @property
    def initial(self) -> PhaseState:
        return PhaseState(self._ys[0, :2], self._ys[0, 2:4])

    def write_csv(self, path):
        """Write t, x, y, vx, vy per output time.  Returns the text of x and
        y, for a plot file that repeats them."""
        x, y = formatted(self._ys[:, :2].T)  # one call pays the kernel's fixed cost once
        write_table(path, [self.times, x, y, self._ys[:, 2], self._ys[:, 3]],
                    header="t,x,y,vx,vy")
        return x, y


def _flow_rhs(field: ForceField):
    def rhs(t, y):
        return np.concatenate([y[2:4], field.force(y[:2], y[2:4])])
    return rhs


def _run(rhs, t0, y0, t1, cfg: IntegratorConfig):
    if cfg.method == "rk4-fixed":
        return odesolve.solve_rk4(rhs, t0, y0, t1, step=cfg.step)
    return odesolve.solve_dopri(rhs, t0, y0, t1, abs_tol=cfg.abs_tol, rel_tol=cfg.rel_tol)


def integrate(field: ForceField, init: PhaseState, t_span,
              cfg: IntegratorConfig | None = None, t_eval=None) -> Trajectory:
    """Integrate the phase flow over t_span (which may run backward).

    Requested output times are sampled from the dense interpolant, which is
    within the integrator's accuracy between its nodes.
    """
    cfg = cfg or IntegratorConfig()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("t_span must be finite")
    sol = _run(_flow_rhs(field), t0, init.packed(), t1, cfg)
    if not np.isfinite(sol.ys).all():
        raise StepFailure("trajectory left the finite domain")
    times = sol.ts if t_eval is None else np.asarray(t_eval, float)
    return Trajectory(times, sol)


def _sample(sol: odesolve.OdeSolution, times: np.ndarray) -> np.ndarray:
    """Dense output at ``times``.  A non-finite sample raises StepFailure
    naming the rows of a stacked state that have one."""
    ys = sol.sample(times)
    if not np.isfinite(ys).all():
        rows = odesolve.nonfinite_rows(np.isfinite(ys).all(axis=0))
        raise StepFailure("solution left the finite domain", rows=rows)
    return ys


@dataclass(frozen=True)
class Deviation:
    """What ``integrate_deviation`` returns; it unpacks as (samples, phi,
    psi).  ``work`` is the integrator's, ``OdeSolution.work``."""

    samples: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    work: dict

    def __iter__(self):
        return iter((self.samples, self.phi, self.psi))


def integrate_deviation(field: ForceField, r0, v0, tau0, tau_dot0, times,
                        cfg: IntegratorConfig | None = None) -> Deviation:
    """Samples (r, v, tau, tau') of the flat flow of ``field`` and its variation.

    The launch data r0, v0, tau0, tau_dot0 at times[0] have shape (..., 2);
    leading axes stack independent launches, and all of them are integrated
    as one (..., 8) system to times[-1] on shared steps.  Returns the samples
    at the given times, shape (len(times), ..., 8), whose first row is the
    launch data exactly, the frame components phi = <tau, N> and
    psi = <tau, M>, shape (len(times), ...), and the integrator's work.
    """
    cfg = cfg or IntegratorConfig()
    times = np.asarray(times, float)

    def rhs(t, y):
        f, tau_acc = field.derivative(y[..., :2], y[..., 2:4], y[..., 4:6], y[..., 6:8])
        return np.concatenate([y[..., 2:4], f, y[..., 6:8], tau_acc], axis=-1)

    y0 = np.concatenate(np.broadcast_arrays(*(np.asarray(a, float)
                                              for a in (r0, v0, tau0, tau_dot0))), axis=-1)
    if not np.isfinite(y0).all():
        raise StepFailure("launch data has non-finite coordinates")
    sol = _run(rhs, times[0], y0, times[-1], cfg)
    ys = _sample(sol, times)
    fr = frame(ys[..., 2:4])
    tau = ys[..., 4:6]
    return Deviation(ys, dot(tau, fr.N), dot(tau, fr.M), sol.work)


def phi_psi_initial_from_tau(field: ForceField, init: PhaseState,
                             tau0, tau_dot0) -> tuple[float, float, float, float]:
    """Initial data (phi, phi', psi, psi') matching a variational initial pair.

    phi' = <tau', N> + (B/v) psi and psi' = <tau', M> - (B/v) phi, because the
    frame itself rotates at rate B/|v| along the flow.
    """
    fr = frame(init.v)
    speed = np.hypot(init.v[..., 0], init.v[..., 1])
    b = ab_decompose(field, init.r, init.v).B
    tau0 = np.asarray(tau0, float)
    tau_dot0 = np.asarray(tau_dot0, float)
    phi0 = np.vecdot(tau0, fr.N)
    psi0 = np.vecdot(tau0, fr.M)
    phi_dot0 = np.vecdot(tau_dot0, fr.N) + b / speed * psi0
    psi_dot0 = np.vecdot(tau_dot0, fr.M) - b / speed * phi0
    return phi0, phi_dot0, psi0, psi_dot0


def integrate_phi_psi(field: ForceField, base: Trajectory,
                      phi0: float, phi_dot0: float, psi0: float, psi_dot0: float,
                      cfg: IntegratorConfig | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the projected deviation ODEs along the base trajectory.

    phi'' = a3 phi' + (a1 + a4 B/v) phi + (a4 + B/v) psi'
            + (a2 + b1 + b3 A/v + b4 B/v - a3 B/v - A B/v^2) psi
    psi'' = (b3 - 2B/v) phi' + (b4 + A/v) psi' + (2AB/v^2 - b3 A/v) phi
            + (b2 - b3 B/v + B^2/v^2) psi

    (a_i = alpha_i, b_i = beta_i).  The base flow is integrated alongside as
    one combined system.  Returns (phi, psi) sampled at the base times.
    """
    cfg = cfg or IntegratorConfig()

    def rhs(t, y):
        r, v = y[:2], y[2:4]
        phi, phi_dot, psi, psi_dot = y[4], y[5], y[6], y[7]
        g = ab_gradients(field, r, v)
        speed = np.hypot(v[0], v[1])
        a, b = g.A, g.B
        phi_acc = (g.alpha3 * phi_dot
                   + (g.alpha1 + g.alpha4 * b / speed) * phi
                   + (g.alpha4 + b / speed) * psi_dot
                   + (g.alpha2 + g.beta1 + g.beta3 * a / speed + g.beta4 * b / speed
                      - g.alpha3 * b / speed - a * b / (speed * speed)) * psi)
        psi_acc = ((g.beta3 - 2.0 * b / speed) * phi_dot
                   + (g.beta4 + a / speed) * psi_dot
                   + (2.0 * a * b / (speed * speed) - g.beta3 * a / speed) * phi
                   + (g.beta2 - g.beta3 * b / speed + (b / speed) * (b / speed)) * psi)
        return np.concatenate([v, field.force(r, v),
                               [phi_dot, phi_acc, psi_dot, psi_acc]])

    t0, t1 = float(base.times[0]), float(base.times[-1])
    y0 = np.concatenate([base.initial.packed(), [phi0, phi_dot0, psi0, psi_dot0]])
    samples = _sample(_run(rhs, t0, y0, t1, cfg), base.times)
    return samples[:, 4], samples[:, 6]

