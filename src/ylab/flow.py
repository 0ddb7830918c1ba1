"""Implicit time integration of the conformal-factor Yamabe flow.

The state is a single positive radial factor u(t) evolving by

    du/dt = -((n-2)/4) u^{1-N} P u  =  -((n-2)/4) R[u] u,

with P = -a(n) L + R0 the conformal Laplacian of module operators,
stepped by backward Euler with a damped Newton solve of the tridiagonal
implicit system (diffusivity (n-1) u^{1-N} makes explicit stepping
prohibitive on stretched grids).  Failed Newton solves halve dt, up to ten
times, before the run is declared singular; successful steps grow dt by a
safety factor.

Newton stops at each row's own round-off level, by the rule of
operators.damped_newton that every solve shares.  A step from u, with
w = u^{1-N}, solves the residual F(v) = v - u + dt c w(v) g(v), where
c = (n-2)/4 and g = P v, row-scaled by

    s = eps (2 u + dt c w T),   T = |R0| u + a (|L| u + |b|) = P.row_terms(u),

the rounding of the difference plus that of the terms g sums; T does not
depend on dt, so a step computes it once for all its halvings.  Newton's
target is |F_i| <= ROUNDOFF_TARGET s_i at every node.  A solve that stalls
with every |F_i| <= STALL_CEILING s_i is accepted after one failed
candidate (SolverWork.stalled_solves counts it); above that the attempt
fails.

A run builds its operator once: conformal_laplacian with the wall flux
frozen from the initial data (operators.initial_inner_flux), so scalar-flat
exteriors such as the Schwarzschild factor remain stationary.  Each Newton
candidate is evaluated on that operator once (P.apply), and
damped_newton returns the Evaluation of the iterate it accepts: it starts
the next step and feeds the monitor, which applies no stencil of its own.
Results are trustworthy for t below the horizon R_max^2 / (16(n-1)), which
keeps the diffusive front away from the wall.

Uniqueness of the continuum flow is an open matter; nothing here depends on
it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .backgrounds import BackgroundSpec
from .elliptic import curvature
from .errors import (
    ConfigError,
    FlowSingularityError,
    GridMismatchError,
    MassUndefinedError,
    ParameterError,
    PositivityError,
)
from .grids import RadialField, RadialGrid, _dot, boundary_mask
from .operators import (STALL_CEILING, ConformalLaplacian, conformal_laplacian, damped_newton,
                        initial_inner_flux)


def default_p_list(n: int) -> tuple:
    """Monitored exponents: n/2 and the fixed eps = 0.1 window around it."""
    return (n / 2.0 - 0.1, n / 2.0, n / 2.0 + 0.1)


# the MonitorRecord fields holding int |R|^p dV_t, in default_p_list order
LP_FIELDS = ("lp_lo", "lp_half", "lp_hi")


def monitor_columns(n: int) -> list:
    """The monitor.csv header in dimension n: the MonitorRecord fields, lp fields as lpR_p<p>."""
    lp_columns = {name: f"lpR_p{p:g}" for name, p in zip(LP_FIELDS, default_p_list(n))}
    return [lp_columns.get(name, name) for name in MonitorRecord._fields]


# weight exponent tau' of the monitored sup max(r,1)^{tau'} |R|
TAU_PRIME = 0.5


def valid_time_horizon(grid: RadialGrid) -> float:
    """Horizon t <= R_max^2 / (16 (n-1)) inside which truncation is faithful."""
    return grid.R_max**2 / (16.0 * (grid.n - 1.0))


class _FlowFields(NamedTuple):
    dt0: float = 1e-3
    dt_max: float | None = None
    newton_max: int = 25
    t_end: float = 10.0
    monitor_every: int = 10
    checkpoint_every: int = 100
    safety: float = 1.3
    stop_max_u: float | None = None


class FlowConfig(_FlowFields):
    """The [flow] settings of a run, checked when built (also by _replace)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.dt0 <= 0.0:
            raise ConfigError(f"dt0 must be positive, got {self.dt0}")
        if self.dt_max is not None and self.dt_max < self.dt0:
            raise ConfigError("dt_max must be >= dt0")
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
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class FlowState:
    """The positive factor at one step, with the dt its next step tries.

    Also one row of a run's checkpoint series; unpacks as a (t, u) pair for
    the diagnostics.
    """

    def __init__(self, t: float, u: RadialField, dt: float, step_index: int):
        if np.min(u.values) <= 0.0:
            raise PositivityError(f"conformal factor lost positivity at t={t}")
        self.t = t
        self.u = u
        self.dt = dt
        self.step_index = step_index

    def __iter__(self):
        return iter((self.t, self.u))


class _MonitorFields(NamedTuple):
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


class MonitorRecord(_MonitorFields):
    """One time slice of every audited quantity, all finite (checked when built).

    wsup_R is sup max(r,1)^{TAU_PRIME} |R|; the LP_FIELDS lp_lo, lp_half and
    lp_hi are the integrals of |R|^p against dV_t at the p of default_p_list
    (the monotone quantities themselves, not their p-th roots).  Extrema of
    R exclude the boundary-condition nodes (grids.boundary_mask).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not all(map(math.isfinite, self)):
            raise ParameterError(f"monitor record at t={self.t} contains non-finite entries")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Evaluation(NamedTuple):
    """The array v with g = P v = R0 v - a(n) L v and w = v^{1-N}.

    The Newton residual returns it; the Jacobian, the next step and the
    monitor read it instead of evaluating v.
    """

    v: np.ndarray
    g: np.ndarray
    w: np.ndarray


class SolverWork:
    """Work counters of one run; summary.json holds vars(work), under these names.

    stencil_evaluations counts applications of the run's conformal Laplacian
    P, one per distinct array evaluated.  halvings counts rejected attempts.
    unchanged_steps counts accepted steps whose factor equals the previous
    one bit for bit.  stalled_solves counts accepted solves that ended at
    the stall ceiling rather than at the target.
    """

    def __init__(self, newton_iterations: int = 0, stencil_evaluations: int = 0,
                 halvings: int = 0, unchanged_steps: int = 0, stalled_solves: int = 0):
        self.newton_iterations = newton_iterations
        self.stencil_evaluations = stencil_evaluations
        self.halvings = halvings
        self.unchanged_steps = unchanged_steps
        self.stalled_solves = stalled_solves

    def __eq__(self, other) -> bool:
        if not isinstance(other, SolverWork):
            return NotImplemented
        return vars(self) == vars(other)


class RunResult(NamedTuple):
    """A run's series; however it ended, the last checkpoint is its final state.

    The last monitor record is that state's record.
    """

    records: list
    checkpoints: list  # FlowState snapshots
    halted: bool
    halt_reason: str | None
    work: SolverWork


# attempts per step: dt0, then ten halvings
_MAX_ATTEMPTS = 11


def _evaluate(v, P: ConformalLaplacian, work: SolverWork) -> Evaluation:
    work.stencil_evaluations += 1
    return Evaluation(v, P.apply(v), v ** (1.0 - P.N))


def _implicit_residual(P: ConformalLaplacian, c, prev: Evaluation, dt, s, work: SolverWork):
    """Residual and Jacobian of one backward-Euler step from prev, sharing evaluations.

    Both are divided row by row by s, the step's round-off level, which
    leaves the Newton step unchanged in exact arithmetic.  residual_fn(v)
    also returns the Evaluation at v that jacobian_fn reads: prev itself
    when v is prev's own array (damped_newton starts there), else a new one.
    """
    u_prev = prev.v
    diag = P.diag  # P builds its bands on each read: once per attempt

    def residual_fn(v):
        ev = prev if v is u_prev else _evaluate(v, P, work)
        return (v - u_prev + dt * c * ev.w * ev.g) / s, ev

    def jacobian_fn(ev):
        v, g, w = ev
        jd = (1.0 - dt * c * ((P.N - 1.0) * (w / v) * g - w * diag)) / s
        jl = -dt * c * w[1:] * P.a * P.lap.lower / s[1:]
        ju = -dt * c * w[:-1] * P.a * P.lap.upper / s[:-1]
        return jl, jd, ju

    return residual_fn, jacobian_fn


def _attempt_step(
    prev: Evaluation, T: np.ndarray, dt: float, cfg: FlowConfig, P: ConformalLaplacian,
    work: SolverWork,
) -> Evaluation | None:
    """One backward-Euler attempt of size dt from prev: the accepted evaluation, or None.

    T is P.row_terms at prev's factor.  Newton runs on the residual scaled
    by s = eps (2 u + dt c w T); a solve that stalls at or below
    STALL_CEILING is accepted.
    """
    c = 0.25 * (P.lap.grid.n - 2.0)
    s = np.finfo(np.float64).eps * (2.0 * prev.v + dt * c * prev.w * T)
    residual_fn, jacobian_fn = _implicit_residual(P, c, prev, dt, s, work)
    ev, rn, iterations, converged = damped_newton(prev.v, residual_fn, jacobian_fn, cfg.newton_max)
    work.newton_iterations += iterations
    if not rn <= STALL_CEILING:  # a NaN norm fails too
        return None
    work.stalled_solves += int(not converged)
    return ev


def step(
    state: FlowState,
    cfg: FlowConfig,
    P: ConformalLaplacian,
    prev: Evaluation,
    work: SolverWork,
) -> tuple[FlowState, Evaluation]:
    """Advance one accepted step with the run's operator P, halving dt on Newton failure.

    prev is the evaluation at state's factor: a run passes the one its last
    step accepted.  Every attempt starts from it, since (g, w) and the row
    terms T do not depend on dt.  Returns the new state with the evaluation
    at its factor, and adds the step's work to work.

    Raises FlowSingularityError when dt and its ten halvings all fail: the
    discrete stand-in for the curvature blow-up alternative.
    """
    T = P.row_terms(prev.v)
    for halvings in range(_MAX_ATTEMPTS):
        dt = state.dt * 0.5**halvings
        ev = _attempt_step(prev, T, dt, cfg, P, work)
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


class MonitorWeights(NamedTuple):
    """The grid constants monitor reads, built once per run by of(grid).

    dV is the grid's volume weights grid.dV (omega r^{n-1} times the
    trapezoid weights, shared with elliptic.yamabe_quotient), so the sum of dV f u^{N+1}
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
        return cls(
            interior=interior,
            tau_weight=grid.w[interior] ** TAU_PRIME,
            dV=grid.dV,
            mass_fit=_mass_fit(grid),
            p_list=default_p_list(grid.n),
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
    P = conformal_laplacian(bg, initial_inner_flux(u0))
    weights = MonitorWeights.of(bg.grid)
    work = SolverWork()
    state = FlowState(t=0.0, u=u0, dt=cfg.dt0, step_index=0)
    ev = _evaluate(u0.values, P, work)
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
            state = FlowState(state.t, state.u, remaining, state.step_index)
        try:
            state, ev = step(state, cfg, P, ev, work)
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
