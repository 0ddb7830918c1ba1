"""Implicit time integration of the conformal-factor Yamabe flow.

The state is a single positive radial factor u(t) evolving by

    du/dt = ((n-2)/4) u^{1-N} (a(n) lap u - R0 u)  =  -((n-2)/4) R[u] u,

stepped by backward Euler with a damped Newton solve of the tridiagonal
implicit system (diffusivity (n-1) u^{1-N} makes explicit stepping
prohibitive on stretched grids).  Failed Newton solves halve dt, up to ten
times, before the run is declared singular; successful steps grow dt by a
safety factor.

Boundary rows: origin regularity (r_in = 0) or a Neumann wall whose flux is
frozen from the initial data, so scalar-flat exteriors such as the
Schwarzschild factor remain stationary; outer Robin row on u - 1 with the
r^{-(n-2)} fall-off.  Results are trustworthy for t below the horizon
R_max^2 / (16(n-1)), which keeps the diffusive front away from the wall.

Uniqueness of the continuum flow is an open matter; nothing here depends on
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .backgrounds import BackgroundSpec, InitialData, conformal_exponents
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
    integrate_dV,
    lp_integral,
    origin_mask,
)
from .operators import boundary_laplacian, damped_newton
from .elliptic import compute_R


def default_p_list(n: int) -> tuple:
    """Monitored exponents: n/2 and the fixed eps = 0.1 window around it."""
    ps = {n / 2.0 - 0.1, n / 2.0, n / 2.0 + 0.1, 2.0}
    if n == 3:
        ps.add(1.0)
    return tuple(sorted(ps))


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
    p_list: tuple | None = None
    tau_prime_list: tuple = (0.0, 0.5)
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

    def monitored_p(self, n: int) -> tuple:
        return self.p_list if self.p_list is not None else default_p_list(n)


@dataclass(frozen=True)
class FlowState:
    t: float
    u: RadialField
    dt: float
    step_index: int
    inner_flux: float = 0.0

    def __post_init__(self):
        if np.min(self.u.values) <= 0.0:
            raise PositivityError(f"conformal factor lost positivity at t={self.t}")


@dataclass(frozen=True)
class MonitorRecord:
    """One time slice of every audited quantity.

    lp_R maps p to the integral of |R|^p against dV_t (the monotone
    quantities themselves, not their p-th roots); weighted_sup_R maps tau'
    to sup max(r,1)^{tau'} |R|.  Extrema of R exclude the one-sided
    boundary stencil nodes.
    """

    t: float
    sup_R: float
    min_R: float
    l1_R: float
    mass: float
    min_u: float
    max_u: float
    lp_R: dict = field(default_factory=dict)
    weighted_sup_R: dict = field(default_factory=dict)

    def __post_init__(self):
        scalars = [getattr(self, name) for name in MONITOR_SCALARS]
        scalars += list(self.lp_R.values()) + list(self.weighted_sup_R.values())
        if not all(math.isfinite(x) for x in scalars):
            raise ParameterError(f"monitor record at t={self.t} contains non-finite entries")


# the scalar monitor columns in record order: every float field of MonitorRecord
MONITOR_SCALARS = tuple(f.name for f in fields(MonitorRecord) if f.type == "float")


@dataclass(frozen=True)
class Checkpoint:
    """Full factor snapshot with step metadata (one row of the checkpoint series)."""

    t: float
    u: RadialField
    dt: float
    step_index: int

    def __iter__(self):  # unpacks as a (t, u) pair for the diagnostics
        return iter((self.t, self.u))


@dataclass(frozen=True, eq=False)
class RunResult:
    records: list
    checkpoints: list  # Checkpoint snapshots
    final: FlowState
    halted: bool
    halt_reason: str | None
    valid_t_max: float


def initial_inner_flux(u0: RadialField) -> float:
    """Frozen Neumann datum for the inner wall, calibrated to the initial data.

    Chosen so the mirrored-ghost wall row reproduces the accurate one-sided
    Laplacian of u0 at the wall; this agrees with u0'(r_in) to O(h^2) and
    removes the initial-layer transient for stationary exteriors.  Zero at
    an r_in = 0 origin (regularity row, no wall).
    """
    grid = u0.grid
    if grid.r_in == 0.0:
        return 0.0
    from .grids import _one_sided_laplacian

    lap0 = _one_sided_laplacian(grid.nodes, u0.values, grid.n, 0)
    h0 = grid.dr[0]
    kappa = (grid.n - 1.0) / grid.nodes[0] - 2.0 / h0
    return float((lap0 - 2.0 * (u0.values[1] - u0.values[0]) / h0**2) / kappa)


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
    def residual_fn(v):
        return v - u_prev - dt * c * v ** (1.0 - N) * (a * lap.apply(v) - R0 * v)

    def jacobian_fn(v):
        g = a * lap.apply(v) - R0 * v
        w = v ** (1.0 - N)
        jd = 1.0 - dt * c * ((1.0 - N) * v ** (-N) * g + w * (a * lap.diag - R0))
        jl = -dt * c * w[1:] * a * lap.lower
        ju = -dt * c * w[:-1] * a * lap.upper
        return jl, jd, ju

    return residual_fn, jacobian_fn


def _attempt_step(u_prev: np.ndarray, dt: float, bg: BackgroundSpec, cfg: FlowConfig, lap):
    a, N = conformal_exponents(bg.n)
    c = 0.25 * (bg.n - 2.0)
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


def step(state: FlowState, bg: BackgroundSpec, cfg: FlowConfig) -> FlowState:
    """Advance one accepted time step, halving dt on Newton failure.

    Raises FlowSingularityError (state preserved) after ten halvings: the
    discrete stand-in for the curvature blow-up alternative.
    """
    lap = boundary_laplacian(state.u.grid, inner_flux=state.inner_flux)
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
                inner_flux=state.inner_flux,
            )
        dt *= 0.5
    raise FlowSingularityError(
        f"step rejected after 10 halvings at t={state.t:.6g} (dt={dt:.3e})",
        state=state,
        reason="dt-collapse",
    )


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


def monitor(state: FlowState, bg: BackgroundSpec, cfg: FlowConfig) -> MonitorRecord:
    """Evaluate every audited quantity at the current state."""
    u = state.u
    grid = u.grid
    R = compute_R(u, bg)
    interior = ~origin_mask(grid)
    Ri = R.values[interior]
    wi = grid.w[interior]
    lp = {p: lp_integral(R, p, u) for p in cfg.monitored_p(bg.n)}
    wsup = {tp: float(np.max(wi**tp * np.abs(Ri))) for tp in cfg.tau_prime_list}
    return MonitorRecord(
        t=state.t,
        sup_R=float(np.max(np.abs(Ri))),
        min_R=float(np.min(Ri)),
        l1_R=integrate_dV(R, u),
        mass=adm_mass(u),
        min_u=float(np.min(u.values)),
        max_u=float(np.max(u.values)),
        lp_R=lp,
        weighted_sup_R=wsup,
    )


def run_flow(bg: BackgroundSpec, init: InitialData, cfg: FlowConfig) -> RunResult:
    """March from t = 0 to t_end, emitting monitor records and checkpoints.

    On a flow singularity the partial series is returned tagged halted; a
    configured stop_max_u threshold halts with reason 'blowup' once the
    factor exceeds it (the non-convergence alternative of the dichotomy).
    """
    if init.u0.grid != bg.grid:
        raise GridMismatchError("initial data and background live on different grids")
    state = FlowState(
        t=0.0,
        u=init.u0,
        dt=cfg.dt0,
        step_index=0,
        inner_flux=initial_inner_flux(init.u0),
    )
    records = [monitor(state, bg, cfg)]
    checkpoints = [Checkpoint(0.0, state.u, state.dt, 0)]
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
            state = step(state, bg, cfg)
        except FlowSingularityError as exc:
            state = exc.state
            halted = True
            halt_reason = exc.reason
            break
        idx = state.step_index
        if idx % cfg.monitor_every == 0:
            records.append(monitor(state, bg, cfg))
            last_monitored = idx
        if idx % cfg.checkpoint_every == 0:
            checkpoints.append(Checkpoint(state.t, state.u, state.dt, idx))
            last_checkpointed = idx
        if cfg.stop_max_u is not None and float(np.max(state.u.values)) >= cfg.stop_max_u:
            halted = True
            halt_reason = "blowup"
            break

    if state.step_index != last_monitored:
        records.append(monitor(state, bg, cfg))
    if state.step_index != last_checkpointed:
        checkpoints.append(Checkpoint(state.t, state.u, state.dt, state.step_index))
    return RunResult(
        records=records,
        checkpoints=checkpoints,
        final=state,
        halted=halted,
        halt_reason=halt_reason,
        valid_t_max=valid_time_horizon(bg.grid),
    )
