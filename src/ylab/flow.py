"""Implicit time integration of the conformal-factor Yamabe flow.

The state is a single positive radial factor u(t) evolving by

    du/dt = ((n-2)/4) u^{1-N} (a(n) lap u - R0 u)  =  -((n-2)/4) R[u] u,

stepped by backward Euler with a damped Newton solve of the tridiagonal
implicit system (diffusivity (n-1) u^{1-N} makes explicit stepping
prohibitive on stretched grids).  Failed Newton solves halve dt, up to ten
times, before the run is declared singular; successful steps grow dt by a
safety factor.

Newton stops at each row's own round-off level (the componentwise backward
error of Oettli and Prager).  A step from u, with w = u^{1-N}, solves the
residual F(v) = v - u + dt c w(v) g(v), where c = (n-2)/4 and
g = R0 v - a(n) L v, row-scaled by

    s = eps (2 u + dt c w T),   T = |R0| u + a (|L| u + |b|),

the rounding of the difference plus that of the terms g sums; T does not
depend on dt, so a step computes it once for all its halvings.  The target
is |F_i| <= ROUNDOFF_TARGET s_i at every node, or |F_i| <= newton_tol dt
s_i / max s where that is looser.  A solve that stalls with every |F_i| <=
4 ROUNDOFF_TARGET s_i is accepted after one failed full step
(SolverWork.stalled_solves counts it); above that the attempt fails.

A run builds its operator once: boundary_laplacian with the wall flux frozen
from the initial data (operators.initial_inner_flux), so scalar-flat
exteriors such as the Schwarzschild factor remain stationary.  Each Newton
candidate is evaluated on that operator once (elliptic.stencil_terms), and
damped_newton returns the Evaluation of the iterate it accepts: it starts
the next step and feeds the monitor, which applies no stencil of its own.
Results are trustworthy for t below the horizon R_max^2 / (16(n-1)), which
keeps the diffusive front away from the wall.

Uniqueness of the continuum flow is an open matter; nothing here depends on
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .backgrounds import BackgroundSpec, conformal_exponents
from .elliptic import curvature, stencil_terms
from .errors import (
    ConfigError,
    FlowSingularityError,
    GridMismatchError,
    MassUndefinedError,
    ParameterError,
    PositivityError,
)
from .grids import RadialField, RadialGrid, boundary_mask, sphere_volume, trapezoid_weights
from .operators import BoundaryLaplacian, boundary_laplacian, damped_newton, initial_inner_flux


def default_p_list(n: int) -> tuple:
    """Monitored exponents: n/2 and the fixed eps = 0.1 window around it."""
    return (n / 2.0 - 0.1, n / 2.0, n / 2.0 + 0.1)


# the MonitorRecord fields holding int |R|^p dV_t, in default_p_list order
LP_FIELDS = ("lp_lo", "lp_half", "lp_hi")


def monitor_columns(n: int) -> list:
    """The monitor.csv header in dimension n: the MonitorRecord fields, lp fields as lpR_p<p>."""
    lp_columns = {name: f"lpR_p{p:g}" for name, p in zip(LP_FIELDS, default_p_list(n))}
    return [lp_columns.get(f.name, f.name) for f in fields(MonitorRecord)]


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

    wsup_R is sup max(r,1)^{TAU_PRIME} |R|; the LP_FIELDS lp_lo, lp_half and
    lp_hi are the integrals of |R|^p against dV_t at the p of default_p_list
    (the monotone quantities themselves, not their p-th roots).  Extrema of
    R exclude the boundary-condition nodes (grids.boundary_mask).
    """

    t: float
    sup_R: float
    min_R: float
    l1_R: float
    mass: float
    min_u: float
    max_u: float
    wsup_R: float
    lp_lo: float
    lp_half: float
    lp_hi: float

    def __post_init__(self):
        if not all(math.isfinite(getattr(self, f.name)) for f in fields(self)):
            raise ParameterError(f"monitor record at t={self.t} contains non-finite entries")


class Evaluation(NamedTuple):
    """The pair elliptic.stencil_terms yields at the array v, kept with v.

    g = R0 v - a(n) L v and w = v^{1-N}.  The Newton residual returns it; the
    Jacobian, the next step and the monitor read it instead of evaluating v.
    """

    v: np.ndarray
    g: np.ndarray
    w: np.ndarray


@dataclass
class SolverWork:
    """Work counters of one run; summary.json holds them under these names.

    stencil_evaluations counts elliptic.stencil_terms calls, one per
    distinct array evaluated.  halvings counts rejected attempts.
    unchanged_steps counts accepted steps whose factor equals the previous
    one bit for bit.  stalled_solves counts accepted solves that ended at
    the stall ceiling rather than at the target.
    """

    newton_iterations: int = 0
    stencil_evaluations: int = 0
    halvings: int = 0
    unchanged_steps: int = 0
    stalled_solves: int = 0


@dataclass(frozen=True, eq=False)
class RunResult:
    """A run's series; however it ended, the last checkpoint is its final state.

    The last monitor record is that state's record.
    """

    records: list
    checkpoints: list  # FlowState snapshots
    halted: bool
    halt_reason: str | None
    work: SolverWork


# Newton's target on the row-scaled step residual |F_i| / s_i; a solve that
# stalls at or below 4 * ROUNDOFF_TARGET is accepted
ROUNDOFF_TARGET = 4.0

# attempts per step: dt0, then ten halvings
_MAX_ATTEMPTS = 11


def _evaluate(v, lap, R0, a, N, work: SolverWork) -> Evaluation:
    work.stencil_evaluations += 1
    return Evaluation(v, *stencil_terms(v, lap, R0, a, N))


def _implicit_residual(lap, R0, a, N, c, prev: Evaluation, dt, s, work: SolverWork):
    """Residual and Jacobian of one backward-Euler step from prev, sharing evaluations.

    Both are divided row by row by s, the step's round-off level, which
    leaves the Newton step unchanged in exact arithmetic.  residual_fn(v)
    also returns the Evaluation at v that jacobian_fn reads: prev itself
    when v is prev's own array (damped_newton starts there), else a new one.
    """
    u_prev = prev.v
    diag_term = a * lap.diag - R0

    def residual_fn(v):
        ev = prev if v is u_prev else _evaluate(v, lap, R0, a, N, work)
        return (v - u_prev + dt * c * ev.w * ev.g) / s, ev

    def jacobian_fn(ev):
        v, g, w = ev
        jd = (1.0 - dt * c * ((N - 1.0) * (w / v) * g + w * diag_term)) / s
        jl = -dt * c * w[1:] * a * lap.lower / s[1:]
        ju = -dt * c * w[:-1] * a * lap.upper / s[:-1]
        return jl, jd, ju

    return residual_fn, jacobian_fn


def _row_terms(u: np.ndarray, lap: BoundaryLaplacian, R0: np.ndarray, a: float) -> np.ndarray:
    """T = |R0| u + a (|L| u + |b|): per row, the magnitude of the terms g sums at u."""
    return np.abs(R0) * u + a * (lap.abs_apply(u) + np.abs(lap.affine))


def _attempt_step(
    prev: Evaluation, T: np.ndarray, dt: float, bg: BackgroundSpec, cfg: FlowConfig, lap,
    work: SolverWork,
) -> Evaluation | None:
    """One backward-Euler attempt of size dt from prev: the accepted evaluation, or None.

    T is _row_terms at prev's factor.  Newton runs on the residual scaled by
    s = eps (2 u + dt c w T) toward ROUNDOFF_TARGET, or newton_tol dt / max s
    where that is larger, and accepts a stall at or below 4 ROUNDOFF_TARGET.
    """
    n = bg.grid.n
    a, N = conformal_exponents(n)
    c = 0.25 * (n - 2.0)
    s = np.finfo(np.float64).eps * (2.0 * prev.v + dt * c * prev.w * T)
    residual_fn, jacobian_fn = _implicit_residual(
        lap, bg.r0_profile.values, a, N, c, prev, dt, s, work
    )
    target = max(ROUNDOFF_TARGET, cfg.newton_tol * dt / float(np.max(s)))
    ceiling = 4.0 * ROUNDOFF_TARGET

    ev, rn, iterations, converged = damped_newton(
        prev.v, residual_fn, jacobian_fn, target, cfg.newton_max, floor=ceiling
    )
    work.newton_iterations += iterations
    if not converged:
        if rn > ceiling:
            return None
        work.stalled_solves += 1
    return ev


def step(
    state: FlowState,
    bg: BackgroundSpec,
    cfg: FlowConfig,
    lap: BoundaryLaplacian,
    prev: Evaluation,
    work: SolverWork,
) -> tuple[FlowState, Evaluation]:
    """Advance one accepted step with the run's operator lap, halving dt on Newton failure.

    prev is the evaluation at state's factor: a run passes the one its last
    step accepted.  Every attempt starts from it, since (g, w) and the row
    terms T do not depend on dt.  Returns the new state with the evaluation
    at its factor, and adds the step's work to work.

    Raises FlowSingularityError when dt and its ten halvings all fail: the
    discrete stand-in for the curvature blow-up alternative.
    """
    T = _row_terms(prev.v, lap, bg.r0_profile.values, conformal_exponents(bg.grid.n)[0])
    for halvings in range(_MAX_ATTEMPTS):
        dt = state.dt * 0.5**halvings
        ev = _attempt_step(prev, T, dt, bg, cfg, lap, work)
        if ev is not None:
            work.unchanged_steps += int(np.array_equal(ev.v, prev.v))
            next_dt = dt * cfg.safety
            if cfg.dt_max is not None:
                next_dt = min(next_dt, cfg.dt_max)
            new_state = FlowState(
                t=state.t + dt,
                u=RadialField(state.u.grid, ev.v),
                dt=next_dt,
                step_index=state.step_index + 1,
            )
            return new_state, ev
        work.halvings += 1
    raise FlowSingularityError(
        f"step rejected in all {_MAX_ATTEMPTS} attempts at t={state.t:.6g}"
        f" (smallest dt tried {dt:.3e})"
    )


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of a * b, by numpy's own loop on one thread.

    BLAS ddot (``a @ b``) threads at the flow's grid sizes, and OpenBLAS's
    idle worker then spins on a second core between calls.
    """
    return float(np.einsum("i,i", a, b))


def far_field_window(grid: RadialGrid) -> np.ndarray:
    """Mask of the mass fit window [R_max/4, R_max]; MassUndefinedError below 8 nodes."""
    window = grid.nodes >= grid.R_max / 4.0
    if np.count_nonzero(window) < 8:
        raise MassUndefinedError("fewer than 8 nodes in the far-field fit window")
    return window


def _mass_fit(grid: RadialGrid) -> tuple[int, np.ndarray, float]:
    """(first node, basis r^{-(n-2)} from it on, its squared norm) of the far-field fit."""
    start = int(np.argmax(far_field_window(grid)))
    basis = grid.nodes[start:] ** (-(grid.n - 2.0))
    return start, basis, _dot(basis, basis)


def _fitted_mass(u: np.ndarray, fit: tuple[int, np.ndarray, float]) -> float:
    start, basis, norm = fit
    return 2.0 * (_dot(basis, u[start:] - 1.0) / norm)


def adm_mass(u: RadialField) -> float:
    """ADM mass of the conformally flat factor: 2A with u ~ 1 + A r^{-(n-2)}.

    A comes from a linear least-squares fit over the far-field window.
    """
    return _fitted_mass(u.values, _mass_fit(u.grid))


@dataclass(frozen=True, eq=False)
class MonitorWeights:
    """The grid constants monitor reads, built once per run by of(grid).

    dV holds omega r^{n-1} times the trapezoid weights, so the sum of dV f u^{N+1}
    is grids.integrate_dV(f, u) up to summation order.  interior leaves out
    the grids.boundary_mask nodes, which are at most the first and the last;
    tau_weight is max(r,1)^{TAU_PRIME} on it.  mass_fit is adm_mass's fit.
    """

    interior: slice
    tau_weight: np.ndarray
    dV: np.ndarray
    mass_fit: tuple
    p_list: tuple

    @classmethod
    def of(cls, grid: RadialGrid) -> "MonitorWeights":
        """MassUndefinedError when the mass fit window holds fewer than 8 nodes."""
        interior = slice(int(boundary_mask(grid)[0]), grid.M)
        n = grid.n
        return cls(
            interior=interior,
            tau_weight=grid.w[interior] ** TAU_PRIME,
            dV=sphere_volume(n) * grid.nodes ** (n - 1) * trapezoid_weights(grid),
            mass_fit=_mass_fit(grid),
            p_list=default_p_list(n),
        )


def monitor(t: float, ev: Evaluation, weights: MonitorWeights) -> MonitorRecord:
    """Every audited quantity at time t, read off the evaluation ev of the factor.

    R is elliptic.curvature of ev, on the operator the run steps with, and
    the volume density u^{N+1} is u^2 / w, so a record applies no stencil and
    builds no grid constant.  l1_R and the LP_FIELDS (p in default_p_list(n))
    are dot products with weights.dV; the three |R|^p share one log.
    """
    u, g, w = ev
    R = curvature(u, g, w)
    abs_R = np.abs(R)
    with np.errstate(divide="ignore"):  # R = 0 (flat runs): log gives -inf, exp 0
        log_abs_R = np.log(abs_R)
    dV_t = weights.dV * (u * u / w)
    interior = weights.interior
    return MonitorRecord(
        t=t,
        sup_R=float(np.max(abs_R[interior])),
        min_R=float(np.min(R[interior])),
        l1_R=_dot(dV_t, R),
        mass=_fitted_mass(u, weights.mass_fit),
        min_u=float(np.min(u)),
        max_u=float(np.max(u)),
        wsup_R=float(np.max(weights.tau_weight * abs_R[interior])),
        **{name: _dot(dV_t, np.exp(p * log_abs_R))
           for name, p in zip(LP_FIELDS, weights.p_list)},
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
    weights = MonitorWeights.of(bg.grid)
    work = SolverWork()
    state = FlowState(t=0.0, u=u0, dt=cfg.dt0, step_index=0)
    a, N = conformal_exponents(bg.grid.n)
    ev = _evaluate(u0.values, lap, bg.r0_profile.values, a, N, work)
    records = [monitor(state.t, ev, weights)]
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
            state, ev = step(state, bg, cfg, lap, ev, work)
        except FlowSingularityError:
            halted = True
            halt_reason = "dt-collapse"
            break
        idx = state.step_index
        if idx % cfg.monitor_every == 0:
            records.append(monitor(state.t, ev, weights))
            last_monitored = idx
        if idx % cfg.checkpoint_every == 0:
            checkpoints.append(state)
            last_checkpointed = idx
        if cfg.stop_max_u is not None and float(np.max(state.u.values)) >= cfg.stop_max_u:
            halted = True
            halt_reason = "blowup"
            break

    if state.step_index != last_monitored:
        records.append(monitor(state.t, ev, weights))
    if state.step_index != last_checkpointed:
        checkpoints.append(state)
    return RunResult(records, checkpoints, halted, halt_reason, work)
