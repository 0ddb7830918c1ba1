"""Implicit time integration of the conformal-factor Yamabe flow.

The state is a single positive radial factor u(t) evolving by

    du/dt = ((n-2)/4) u^{1-N} (a(n) lap u - R0 u)  =  -((n-2)/4) R[u] u,

stepped by backward Euler with a damped Newton solve of the tridiagonal
implicit system (diffusivity (n-1) u^{1-N} makes explicit stepping
prohibitive on stretched grids).  Failed Newton solves halve dt, up to ten
times, before the run is declared singular; successful steps grow dt by a
safety factor.

A run builds its operator once: boundary_laplacian with the wall flux frozen
from the initial data (operators.initial_inner_flux), so scalar-flat
exteriors such as the Schwarzschild factor remain stationary.  step and
monitor apply that operator.  Results are trustworthy for t below the
horizon R_max^2 / (16(n-1)), which keeps the diffusive front away from the
wall.

Uniqueness of the continuum flow is an open matter; nothing here depends on
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .backgrounds import BackgroundSpec, conformal_exponents
from .errors import (
    ConfigError,
    FlowSingularityError,
    GridMismatchError,
    MassUndefinedError,
    ParameterError,
    PositivityError,
)
from .grids import (
    RadialField,
    RadialGrid,
    boundary_mask,
    integrate_dr,
    volume_weight,
)
from .operators import BoundaryLaplacian, boundary_laplacian, damped_newton, initial_inner_flux
from .elliptic import compute_R


def default_p_list(n: int) -> tuple:
    """Monitored exponents: n/2 and the fixed eps = 0.1 window around it."""
    return (n / 2.0 - 0.1, n / 2.0, n / 2.0 + 0.1)


# weight exponent tau' of the monitored sup max(r,1)^{tau'} |R|
TAU_PRIME = 0.5


def valid_time_horizon(grid: RadialGrid) -> float:
    """Horizon t <= R_max^2 / (16 (n-1)) inside which truncation is faithful."""
    return grid.R_max**2 / (16.0 * (grid.n - 1.0))


@dataclass(frozen=True)
class FlowConfig:
    dt0: float = 1e-3
    dt_max: float | None = None
    newton_tol: float = 1e-12
    newton_max: int = 25
    t_end: float = 10.0
    monitor_every: int = 10
    checkpoint_every: int = 100
    safety: float = 1.3
    stop_max_u: float | None = None

    def __post_init__(self):
        if self.dt0 <= 0.0:
            raise ConfigError(f"dt0 must be positive, got {self.dt0}")
        if self.dt_max is not None and self.dt_max < self.dt0:
            raise ConfigError("dt_max must be >= dt0")
        if self.newton_tol <= 0.0:
            raise ConfigError("newton_tol must be positive")
        if self.newton_max < 1:
            raise ConfigError(f"newton_max must be >= 1, got {self.newton_max}")
        if self.t_end <= 0.0:
            raise ConfigError(f"t_end must be positive, got {self.t_end}")
        if self.monitor_every < 1 or self.checkpoint_every < 1:
            raise ConfigError("cadences must be >= 1")
        if self.safety < 1.0:
            raise ConfigError("safety factor must be >= 1")
        if self.stop_max_u is not None and self.stop_max_u <= 0.0:
            raise ConfigError(f"stop_max_u must be positive, got {self.stop_max_u}")


@dataclass(frozen=True)
class FlowState:
    """The positive factor at one step, with the dt its next step tries.

    Also one row of a run's checkpoint series; unpacks as a (t, u) pair for
    the diagnostics.
    """

    t: float
    u: RadialField
    dt: float
    step_index: int

    def __post_init__(self):
        if np.min(self.u.values) <= 0.0:
            raise PositivityError(f"conformal factor lost positivity at t={self.t}")

    def __iter__(self):
        return iter((self.t, self.u))


@dataclass(frozen=True)
class MonitorRecord:
    """One time slice of every audited quantity.

    wsup_R is sup max(r,1)^{TAU_PRIME} |R|; lp_R maps p to the integral of
    |R|^p against dV_t (the monotone quantities themselves, not their p-th
    roots).  Extrema of R exclude the boundary-condition nodes
    (grids.boundary_mask).
    """

    t: float
    sup_R: float
    min_R: float
    l1_R: float
    mass: float
    min_u: float
    max_u: float
    wsup_R: float
    lp_R: dict = field(default_factory=dict)

    def __post_init__(self):
        scalars = [getattr(self, name) for name in MONITOR_SCALARS]
        scalars += list(self.lp_R.values())
        if not all(math.isfinite(x) for x in scalars):
            raise ParameterError(f"monitor record at t={self.t} contains non-finite entries")


# the scalar monitor columns in record order: every float field of MonitorRecord
MONITOR_SCALARS = tuple(f.name for f in fields(MonitorRecord) if f.type == "float")


@dataclass(frozen=True, eq=False)
class RunResult:
    """A run's series; however it ended, the last checkpoint is its final state.

    The last monitor record is that state's record.
    """

    records: list
    checkpoints: list  # FlowState snapshots
    halted: bool
    halt_reason: str | None


def step_tolerances(
    newton_tol: float, dt: float, u: np.ndarray, a: float, c: float, N: float, row_norm: float
) -> tuple[float, float]:
    """(target, ceiling) residual tolerances for one implicit step.

    The target is the per-unit-time residual newton_tol * dt.  The ceiling
    estimates the float round-off floor of the residual evaluation itself;
    a step whose Newton iteration stagnates at or below the ceiling is
    accepted, since no better residual is representable.  The ceiling is
    also damped_newton's floor: once the residual is at or below it, one
    candidate that fails to reduce it ends the solve instead of a full
    backtracking sweep.  It is never the Newton target.
    """
    eps = np.finfo(np.float64).eps
    umax = float(np.max(u))
    amp = float(np.max(u ** (1.0 - N)))
    roundoff = 16.0 * eps * (umax + dt * c * amp * a * row_norm * umax)
    target = max(newton_tol * dt, 4.0 * eps * (1.0 + umax))
    return target, max(target, roundoff)


def _implicit_residual(lap, R0, a, N, c, u_prev, dt):
    """Residual and Jacobian of one backward-Euler step, sharing one evaluation.

    residual_fn(v) keeps v with its stencil term g = a L v - R0 v and its
    power w = v^{1-N} until its next call; jacobian_fn builds the bands from
    them, so it accepts only the array residual_fn saw last (the
    damped_newton contract) and raises ValueError for any other.
    """
    diag_term = a * lap.diag - R0
    kept = {}

    def residual_fn(v):
        kept.clear()
        g = a * lap.apply(v) - R0 * v
        w = v ** (1.0 - N)
        kept.update(v=v, g=g, w=w)
        return v - u_prev - dt * c * w * g

    def jacobian_fn(v):
        if kept.get("v") is not v:
            raise ValueError("jacobian_fn called at an array other than the last residual's")
        g, w = kept["g"], kept["w"]
        jd = 1.0 - dt * c * ((1.0 - N) * v ** (-N) * g + w * diag_term)
        jl = -dt * c * w[1:] * a * lap.lower
        ju = -dt * c * w[:-1] * a * lap.upper
        return jl, jd, ju

    return residual_fn, jacobian_fn


def _attempt_step(u_prev: np.ndarray, dt: float, bg: BackgroundSpec, cfg: FlowConfig, lap):
    n = bg.grid.n
    a, N = conformal_exponents(n)
    c = 0.25 * (n - 2.0)
    R0 = bg.r0_profile.values
    residual_fn, jacobian_fn = _implicit_residual(lap, R0, a, N, c, u_prev, dt)
    target, ceiling = step_tolerances(
        cfg.newton_tol, dt, u_prev, a, c, N, lap.row_norm
    )

    u_new, rn, _, converged = damped_newton(
        u_prev, residual_fn, jacobian_fn, target, cfg.newton_max, floor=ceiling
    )
    if not converged and rn > ceiling:
        return None
    if np.min(u_new) <= 0.0:
        return None
    return u_new


def step(
    state: FlowState, bg: BackgroundSpec, cfg: FlowConfig, lap: BoundaryLaplacian
) -> FlowState:
    """Advance one accepted step with the run's operator lap, halving dt on Newton failure.

    Raises FlowSingularityError after ten halvings: the discrete stand-in
    for the curvature blow-up alternative.
    """
    dt = state.dt
    for _ in range(11):
        u_new = _attempt_step(state.u.values, dt, bg, cfg, lap)
        if u_new is not None:
            next_dt = dt * cfg.safety
            if cfg.dt_max is not None:
                next_dt = min(next_dt, cfg.dt_max)
            return FlowState(
                t=state.t + dt,
                u=RadialField(state.u.grid, u_new),
                dt=next_dt,
                step_index=state.step_index + 1,
            )
        dt *= 0.5
    raise FlowSingularityError(f"step rejected after 10 halvings at t={state.t:.6g} (dt={dt:.3e})")


def far_field_window(grid: RadialGrid) -> np.ndarray:
    """Mask of the mass fit window [R_max/4, R_max]; MassUndefinedError below 8 nodes."""
    window = grid.nodes >= grid.R_max / 4.0
    if np.count_nonzero(window) < 8:
        raise MassUndefinedError("fewer than 8 nodes in the far-field fit window")
    return window


def adm_mass(u: RadialField) -> float:
    """ADM mass of the conformally flat factor: 2A with u ~ 1 + A r^{-(n-2)}.

    A comes from a linear least-squares fit over the far-field window.
    """
    grid = u.grid
    window = far_field_window(grid)
    basis = grid.nodes[window] ** (-(grid.n - 2.0))
    dev = u.values[window] - 1.0
    return 2.0 * float(basis @ dev / (basis @ basis))


def monitor(state: FlowState, bg: BackgroundSpec, lap: BoundaryLaplacian) -> MonitorRecord:
    """Evaluate every audited quantity at the current state, R with the run's operator lap.

    This is the one evaluation of R along a run; l1_R and lp_R (p in
    default_p_list(n)) are integrate_dV and lp_integral of R against one
    shared volume density.
    """
    u = state.u
    grid = u.grid
    R = compute_R(u, bg, lap).values
    dens = volume_weight(grid, u)
    interior = ~boundary_mask(grid)
    Ri = R[interior]
    return MonitorRecord(
        t=state.t,
        sup_R=float(np.max(np.abs(Ri))),
        min_R=float(np.min(Ri)),
        l1_R=integrate_dr(R * dens, grid),
        mass=adm_mass(u),
        min_u=float(np.min(u.values)),
        max_u=float(np.max(u.values)),
        wsup_R=float(np.max(grid.w[interior] ** TAU_PRIME * np.abs(Ri))),
        lp_R={p: integrate_dr(np.abs(R) ** p * dens, grid) for p in default_p_list(grid.n)},
    )


def run_flow(bg: BackgroundSpec, u0: RadialField, cfg: FlowConfig) -> RunResult:
    """March from t = 0 to t_end, emitting monitor records and checkpoints.

    On a flow singularity the partial series is returned tagged halted; a
    configured stop_max_u threshold halts with reason 'blowup' once the
    factor exceeds it (the non-convergence alternative of the dichotomy).
    """
    if u0.grid != bg.grid:
        raise GridMismatchError("initial data and background live on different grids")
    lap = boundary_laplacian(bg.grid, initial_inner_flux(u0))
    state = FlowState(t=0.0, u=u0, dt=cfg.dt0, step_index=0)
    records = [monitor(state, bg, lap)]
    checkpoints = [state]
    last_monitored = 0
    last_checkpointed = 0
    halted = False
    halt_reason = None

    while True:
        remaining = cfg.t_end - state.t
        if remaining <= 1e-12 * max(cfg.t_end, 1.0):
            break
        if state.dt > remaining:
            state = replace(state, dt=remaining)
        try:
            state = step(state, bg, cfg, lap)
        except FlowSingularityError:
            halted = True
            halt_reason = "dt-collapse"
            break
        idx = state.step_index
        if idx % cfg.monitor_every == 0:
            records.append(monitor(state, bg, lap))
            last_monitored = idx
        if idx % cfg.checkpoint_every == 0:
            checkpoints.append(state)
            last_checkpointed = idx
        if cfg.stop_max_u is not None and float(np.max(state.u.values)) >= cfg.stop_max_u:
            halted = True
            halt_reason = "blowup"
            break

    if state.step_index != last_monitored:
        records.append(monitor(state, bg, lap))
    if state.step_index != last_checkpointed:
        checkpoints.append(state)
    return RunResult(records, checkpoints, halted, halt_reason)
