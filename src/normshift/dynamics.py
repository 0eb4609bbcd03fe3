"""Phase-flow integration and deviation (variation-vector) equations.

The flow is r' = v, v' = F(r, v) of a flat field F.  A covariant flow in a
conformal metric g = exp(-2f) I is the flat flow of flat_from_covariant(F, g);
the CLI converts the field once per run, so nothing here takes a metric.
The variation vector tau of a one-parameter family of trajectories satisfies
the linearized equations

    tau''_k = sum_i dF_k/dr^i tau_i + sum_i dF_k/dv^i tau'_i,

and its frame components phi = <tau, N>, psi = <tau, M> satisfy a pair of
second-order ODEs whose coefficients are the alpha/beta gradient components
of A and B.  Both linearizations are integrated together with the base flow
as one combined system, never against a stored interpolant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numdiff, odesolve
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
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
            raise ValueError("phase state has non-finite coordinates")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "v", v)

    def packed(self) -> np.ndarray:
        return np.concatenate([self.r, self.v], axis=-1)


@dataclass
class IntegratorConfig:
    """Integrator selection: adaptive 5(4) pair (default) or fixed-step RK4."""

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
    """Integrated trajectory: the dense-output interpolant (cubic Hermite on
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
    def accepted_nodes(self) -> int:
        """Number of nodes the integrator accepted, both ends included."""
        return len(self._sol.ts)

    def state_at(self, t: float) -> PhaseState:
        y = self._sol(t)
        return PhaseState(y[:2], y[2:4])

    @property
    def initial(self) -> PhaseState:
        return PhaseState(self._ys[0, :2], self._ys[0, 2:4])

    def write_csv(self, path):
        """Write t, x, y, vx, vy per output time.  Returns the text of x and
        y, for a plot file that repeats them."""
        x, y = formatted(self._ys[:, 0]), formatted(self._ys[:, 1])
        write_table(path, [self.times, x, y, self._ys[:, 2], self._ys[:, 3]],
                    header="t,x,y,vx,vy")
        return x, y


def _flow_rhs(field: ForceField):
    def rhs(t, y):
        return np.concatenate([y[2:4], field.force(y[:2], y[2:4])])
    return rhs


def _run(rhs, t0, y0, t1, cfg: IntegratorConfig, t_stops):
    if cfg.method == "rk4-fixed":
        return odesolve.solve_rk4(rhs, t0, y0, t1, step=cfg.step, t_stops=t_stops)
    return odesolve.solve_dopri(rhs, t0, y0, t1, abs_tol=cfg.abs_tol,
                                rel_tol=cfg.rel_tol, t_stops=t_stops)


def integrate(field: ForceField, init: PhaseState, t_span,
              cfg: IntegratorConfig | None = None,
              t_eval=None, exact_nodes: bool = False) -> Trajectory:
    """Integrate the phase flow over t_span (which may run backward).

    Requested output times are sampled from the dense interpolant; with
    ``exact_nodes`` the stepper lands on each of them as well (useful when a
    test differentiates the output with a stencil finer than a step).
    """
    cfg = cfg or IntegratorConfig()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("t_span must be finite")
    stops = list(np.asarray(t_eval, float)) if (t_eval is not None and exact_nodes) else None
    sol = _run(_flow_rhs(field), t0, init.packed(), t1, cfg, stops)
    if not np.all(np.isfinite(sol.ys)):
        raise StepFailure("trajectory left the finite domain")
    times = sol.ts if t_eval is None else np.asarray(t_eval, float)
    return Trajectory(times, sol)


def _contract(jac: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J^T x row by row: sum_i J[..., i, j] x[..., i]."""
    return jac[..., 0, :] * x[..., 0, None] + jac[..., 1, :] * x[..., 1, None]


def _accelerations(field: ForceField, r, v, tau, tau_dot) -> tuple[np.ndarray, np.ndarray]:
    """The force F(r, v) and the right side of the linearized equations,
    tau'' = J_r^T tau + J_v^T tau'.

    With analytic Jacobians they are contracted directly; otherwise the two
    directional derivatives are Richardson-extrapolated central differences
    of the force along tau (moving r) and tau_dot (moving v), with the steps
    of ``_step_along``.  Their eight points for every row and the base point
    (r, v) go to the field in one stacked call.
    """
    if field.spatial_jacobian is not None and field.velocity_jacobian is not None:
        return field.force(r, v), (_contract(field.jac_spatial(r, v), tau)
                                   + _contract(field.jac_velocity(r, v), tau_dot))

    # points 0-3 move r along tau, 4-7 move v along tau_dot, 8 is (r, v)
    h_r, h_v = _step_along(r, tau), _step_along(v, tau_dot)
    rs, vs = np.empty((2, 9) + r.shape)
    rs[:4] = r + numdiff.richardson_points(0.0, h_r)[..., None] * tau
    rs[4:] = r
    vs[:4] = v
    vs[4:8] = v + numdiff.richardson_points(0.0, h_v)[..., None] * tau_dot
    vs[8] = v
    f = field.force(rs, vs)
    return f[8], (numdiff.richardson_extrapolated(h_r, f[:4])
                  + numdiff.richardson_extrapolated(h_v, f[4:8]))


def _step_along(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The step richardson_step(|p|) / |d| along d from p, row by row; along
    a zero d, richardson_step(|p|), whose points are all p."""
    length = np.hypot(d[..., 0], d[..., 1])
    return numdiff.richardson_step(np.hypot(p[..., 0], p[..., 1])) / np.where(
        length > 0.0, length, 1.0)


def _sample(sol: odesolve.OdeSolution, times: np.ndarray) -> np.ndarray:
    """Dense output at ``times``, where a time equal to the initial time gives
    the initial state itself (the interpolant can turn a -0.0 of it into
    +0.0).  A non-finite sample raises StepFailure naming the rows of a
    stacked state that have one."""
    ys = sol.sample(times)
    y0 = sol.ys[0]
    ys[times == sol.ts[0]] = y0
    if not np.all(np.isfinite(ys)):
        rows = odesolve.nonfinite_rows(np.where(np.isfinite(ys).all(axis=0), y0, np.nan))
        raise StepFailure("solution left the finite domain", rows=rows)
    return ys


def integrate_deviation(field: ForceField, r0, v0, tau0, tau_dot0, times,
                        cfg: IntegratorConfig | None = None,
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Samples (r, v, tau, tau') of the flat flow of ``field`` and its variation.

    The launch data r0, v0, tau0, tau_dot0 at times[0] have shape (..., 2);
    leading axes stack independent launches, and all of them are integrated
    as one (..., 8) system to times[-1] on shared steps.  Returns the samples
    at the given times, shape (len(times), ..., 8), whose first row is the
    launch data exactly, and the frame components phi = <tau, N> and
    psi = <tau, M>, shape (len(times), ...).
    """
    cfg = cfg or IntegratorConfig()
    times = np.asarray(times, float)

    def rhs(t, y):
        r, v, tau, tau_dot = y[..., 0:2], y[..., 2:4], y[..., 4:6], y[..., 6:8]
        f, tau_acc = _accelerations(field, r, v, tau, tau_dot)
        return np.concatenate([v, f, tau_dot, tau_acc], axis=-1)

    y0 = np.concatenate(np.broadcast_arrays(*(np.asarray(a, float)
                                              for a in (r0, v0, tau0, tau_dot0))), axis=-1)
    if not np.all(np.isfinite(y0)):
        raise StepFailure("launch data has non-finite coordinates")
    ys = _sample(_run(rhs, times[0], y0, times[-1], cfg, None), times)
    fr = frame(ys[..., 2:4])
    tau = ys[..., 4:6]
    return ys, dot(tau, fr.N), dot(tau, fr.M)


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
                      - g.alpha3 * b / speed - a * b / speed**2) * psi)
        psi_acc = ((g.beta3 - 2.0 * b / speed) * phi_dot
                   + (g.beta4 + a / speed) * psi_dot
                   + (2.0 * a * b / speed**2 - g.beta3 * a / speed) * phi
                   + (g.beta2 - g.beta3 * b / speed + (b / speed) ** 2) * psi)
        return np.concatenate([v, field.force(r, v),
                               [phi_dot, phi_acc, psi_dot, psi_acc]])

    t0, t1 = float(base.times[0]), float(base.times[-1])
    y0 = np.concatenate([base.initial.packed(), [phi0, phi_dot0, psi0, psi_dot0]])
    samples = _sample(_run(rhs, t0, y0, t1, cfg, None), base.times)
    return samples[:, 4], samples[:, 6]

