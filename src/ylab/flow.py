"""Linearly implicit time integration of the conformal-factor Yamabe flow.

The state is a single positive radial factor u(t) evolving by

    du/dt = f(u) = -((n-2)/4) u^{1-N} P u  =  -((n-2)/4) R[u] u,

with P = -a(n) L + R0 the conformal Laplacian of module operators.  The
diffusivity (n-1) u^{1-N} makes explicit stepping prohibitive on stretched
grids, so each step is the two-stage Rosenbrock method ROS2 (Verwer, Spee,
Blom and Hundsdorfer, SIAM J. Sci. Comput. 20, 1999), L-stable and second
order.  With J the Jacobian of f at u_n and gamma = 1 + 1/sqrt(2):

    (I - gamma dt J) k1 = f(u_n),
    (I - gamma dt J) k2 = f(u_n + dt k1) - 2 k1,
    u_{n+1} = u_n + (3/2) dt k1 + (1/2) dt k2:

two tridiagonal solves with one matrix, and no iteration.  u_n + dt k1 is
the linearly implicit Euler result, and max_i |u_{n+1} - (u_n + dt k1)|_i /
u_{n+1,i} the step's embedded error estimate.  An attempt is rejected, and
dt halved up to ten times before the run halts, when a stage or the result
is not positive and finite, the stage matrix is singular, or the estimate
exceeds STEP_TOL; an accepted step sets the next dt from its estimate.
A run whose error control keeps cutting its steps while t fails to double
halts too (STALL_LIMIT): strongly positive wells drive u toward limits far
below round-off (min u_inf is 6e-41 at A = 1e5 on the n = 3, R_max = 64
well), where the estimate admits only steps of dt/t ~ 1e-6 and less.

A run builds its operator once: conformal_laplacian with the wall flux
frozen from the initial data (operators.initial_inner_flux), so scalar-flat
exteriors such as the Schwarzschild factor remain stationary.  Each step
evaluates P twice, at its Euler stage and at its result; the evaluation of
the result starts the next step and feeds the monitor, which applies no
stencil of its own.  Results are trustworthy for t below the horizon
R_max^2 / (16(n-1)), which keeps the diffusive front away from the wall.

Uniqueness of the continuum flow is an open matter; nothing here depends on
it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .backgrounds import BackgroundSpec
from .elliptic import _TINY, curvature
from .errors import (
    ConfigError,
    FlowSingularityError,
    GridMismatchError,
    MassUndefinedError,
    ParameterError,
    PositivityError,
)
from .grids import RadialField, RadialGrid, _dot, boundary_mask
from .operators import (ConformalLaplacian, conformal_laplacian, initial_inner_flux,
                        solve_tridiagonal)


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
    # cli casts each [flow] key by its default's type: write 1.0, not 1
    dt0: float = 1e-3
    dt_max: float | None = None
    newton_max: int = 25
    t_end: float = 10.0
    monitor_every: int = 10
    checkpoint_every: int = 100
    safety: float = 1.3
    stop_max_u: float | None = None


class FlowConfig(_FlowFields):
    """The [flow] settings of a run, checked when built (also by _replace).

    newton_max is accepted and checked but steers nothing: the flow's step
    runs no Newton iteration.
    """

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

    A step's Jacobian and first stage, and the monitor, read it instead of
    evaluating v again.
    """

    v: np.ndarray
    g: np.ndarray
    w: np.ndarray


class SolverWork:
    """Work counters of one run; summary.json holds vars(work), under these names.

    stencil_evaluations counts applications of the run's conformal Laplacian
    P, one per distinct array evaluated.  halvings counts rejected attempts,
    and rejected_estimate, rejected_nonpositive and rejected_singular split
    them by cause: an embedded estimate above STEP_TOL, a stage or result
    that is not positive and finite, a singular stage matrix.
    max_step_estimate is the largest estimate of an accepted step.
    """

    def __init__(self, stencil_evaluations: int = 0, halvings: int = 0,
                 rejected_estimate: int = 0, rejected_nonpositive: int = 0,
                 rejected_singular: int = 0, max_step_estimate: float = 0.0):
        self.stencil_evaluations = stencil_evaluations
        self.halvings = halvings
        self.rejected_estimate = rejected_estimate
        self.rejected_nonpositive = rejected_nonpositive
        self.rejected_singular = rejected_singular
        self.max_step_estimate = max_step_estimate

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
    halt_reason: str | None
    work: SolverWork

    @property
    def halted(self) -> bool:
        return self.halt_reason is not None


# attempts per step: dt0, then ten halvings
_MAX_ATTEMPTS = 11
# the largest embedded estimate max_i |u+ - u_E|_i / u+_i an accepted step may carry
STEP_TOL = 0.05
# ROS2's one stage coefficient, which makes it L-stable
_GAMMA = 1.0 + 1.0 / math.sqrt(2.0)


def _evaluate(v, P: ConformalLaplacian, work: SolverWork) -> Evaluation:
    work.stencil_evaluations += 1
    return Evaluation(v, P.apply(v), v ** (1.0 - P.N))


def _positive(v: np.ndarray) -> bool:
    """Every entry finite and positive (a NaN fails both comparisons)."""
    return bool(v.min() > 0.0 and v.max() < math.inf)


def _attempt_step(prev: Evaluation, dt: float, P: ConformalLaplacian, work: SolverWork):
    """One ROS2 attempt of size dt from prev: (evaluation of the result, estimate), or None.

    With f(u) = -c w(u) P u and J its Jacobian at prev, both stages solve
    with the one matrix I - gamma dt J.  None, counted in work by cause,
    when a stage or the result is not positive and finite (the result's
    w = v^{1-N} included), the matrix is singular or the estimate exceeds
    STEP_TOL.
    """
    u, g, w = prev
    c = 0.25 * (P.lap.grid.n - 2.0)
    gw = (_GAMMA * dt * c) * w
    lower = gw[1:] * P.lower
    diag = 1.0 + ((1.0 - P.N) * (gw / u) * g + gw * P.diag)
    upper = gw[:-1] * P.upper
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            k1 = solve_tridiagonal(lower, diag, upper, -c * w * g)
            euler = u + dt * k1  # the linearly implicit Euler result
            if not _positive(euler):
                work.rejected_nonpositive += 1
                return None
            stage = _evaluate(euler, P, work)
            k2 = solve_tridiagonal(lower, diag, upper, -c * stage.w * stage.g - 2.0 * k1)
        except np.linalg.LinAlgError:
            work.rejected_singular += 1
            return None
        v = u + 1.5 * dt * k1 + 0.5 * dt * k2
        if not _positive(v):
            work.rejected_nonpositive += 1
            return None
        estimate = float(np.max(np.abs(v - euler) / v))
        if not estimate <= STEP_TOL:
            work.rejected_estimate += 1
            return None
        result = _evaluate(v, P, work)
        if not _positive(result.w):  # v so small that v^{1-N} overflows
            work.rejected_nonpositive += 1
            return None
    return result, estimate


def step(
    state: FlowState,
    cfg: FlowConfig,
    P: ConformalLaplacian,
    prev: Evaluation,
    work: SolverWork,
) -> tuple[FlowState, Evaluation]:
    """Advance one accepted step with the run's operator P, halving dt on each rejection.

    prev is the evaluation at state's factor: a run passes the one its last
    step accepted, and every attempt starts from it.  An accepted step of
    size dt with estimate e sets the next dt to dt min(safety, max(1/5,
    0.9 sqrt(STEP_TOL / e))), at most dt_max.  Returns the new state with
    the evaluation at its factor, and adds the step's work to work.

    Raises FlowSingularityError when dt and its ten halvings all fail: the
    discrete stand-in for the curvature blow-up alternative.
    """
    for halvings in range(_MAX_ATTEMPTS):
        dt = state.dt * 0.5**halvings
        accepted = _attempt_step(prev, dt, P, work)
        if accepted is not None:
            ev, estimate = accepted
            work.max_step_estimate = max(work.max_step_estimate, estimate)
            growth = cfg.safety
            if estimate > 0.0:
                growth = min(growth, max(0.2, 0.9 * math.sqrt(STEP_TOL / estimate)))
            next_dt = dt * growth
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


def far_field_window(grid: RadialGrid) -> tuple[int, np.ndarray, float]:
    """(first node, basis r^{-(n-2)} from it on, its squared norm) of the mass fit.

    The window is [R_max/4, R_max].  MassUndefinedError when it holds fewer
    than 8 nodes, or when the norm is not a positive normal float64: the
    squared basis underflows on a far wall (n = 5, M = 4096: R_max from 3e52).
    """
    window = grid.nodes >= grid.R_max / 4.0
    if np.count_nonzero(window) < 8:
        raise MassUndefinedError("fewer than 8 nodes in the far-field fit window")
    start = int(np.argmax(window))
    basis = grid.nodes[start:] ** (-(grid.n - 2.0))
    norm = _dot(basis, basis)
    if not norm >= _TINY:
        raise MassUndefinedError(f"the far-field fit basis r^-{grid.n - 2} underflows with"
                                 f" R_max = {grid.R_max:g}: its squared norm is {norm:.3g}")
    return start, basis, norm


def _fitted_mass(u: np.ndarray, fit: tuple[int, np.ndarray, float]) -> float:
    start, basis, norm = fit
    return 2.0 * (_dot(basis, u[start:] - 1.0) / norm)


def adm_mass(u: RadialField) -> float:
    """ADM mass of the conformally flat factor: 2A with u ~ 1 + A r^{-(n-2)}.

    A comes from a linear least-squares fit over the far-field window.
    """
    return _fitted_mass(u.values, far_field_window(u.grid))


class MonitorWeights(NamedTuple):
    """The grid constants monitor reads, built once per run by of(grid).

    dV is the grid's one volume rule grid.dV, which elliptic.yamabe_quotient
    sums with too: the dot product of dV with f u^{N+1} is the integral of
    f against dV_t.  interior leaves out the grids.boundary_mask nodes,
    which are at most the first and the last; tau_weight is
    max(r,1)^{TAU_PRIME} on it.  mass_fit is adm_mass's far_field_window.
    """

    interior: slice
    tau_weight: np.ndarray
    dV: np.ndarray
    mass_fit: tuple
    p_list: tuple

    @classmethod
    def of(cls, grid: RadialGrid) -> "MonitorWeights":
        """MassUndefinedError from far_field_window when no mass can be read off the grid."""
        interior = slice(int(boundary_mask(grid)[0]), grid.M)
        return cls(
            interior=interior,
            tau_weight=grid.w[interior] ** TAU_PRIME,
            dV=grid.dV,
            mass_fit=far_field_window(grid),
            p_list=default_p_list(grid.n),
        )


def monitor(t: float, ev: Evaluation, weights: MonitorWeights) -> MonitorRecord:
    """Every audited quantity at time t, read off the evaluation ev of the factor.

    R is elliptic.curvature of ev, on the operator the run steps with, and
    the volume density u^{N+1} is u^2 / w, so a record applies no stencil and
    builds no grid constant.  l1_R and the LP_FIELDS (p in default_p_list(n))
    are dot products with weights.dV; the three |R|^p share one log.
    FlowSingularityError, naming t, when a quantity is not finite: valid
    data whose integrals float64 cannot hold (|R|^p or u^{N+1} overflows).
    """
    u, g, w = ev
    interior = weights.interior
    # R = 0 (flat runs): log gives -inf, exp 0; overflows leave inf or nan
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        R = curvature(u, g, w)
        abs_R = np.abs(R)
        log_abs_R = np.log(abs_R)
        dV_t = weights.dV * (u * u / w)
        try:
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
        except ParameterError as exc:
            raise FlowSingularityError(f"{exc}: float64 cannot hold its integrals") from exc


# halt reasons that report a numerical failure, not the flow's behaviour, and
# every halt reason
NUMERICAL_HALTS = ("dt-collapse", "stalled")
HALT_REASONS = ("blowup",) + NUMERICAL_HALTS
# steps cut short by the error control that a run may take while t doubles once
STALL_LIMIT = 1000


def run_flow(bg: BackgroundSpec, u0: RadialField, cfg: FlowConfig) -> RunResult:
    """March from t = 0 to t_end, emitting monitor records and checkpoints.

    A run halts, returning its partial series tagged with the reason, when a
    step fails at its dt and all ten halvings ("dt-collapse"), or when
    STALL_LIMIT steps since t last doubled were cut short ("stalled"): a
    step is cut short when it rejected an attempt, ended with a shorter dt
    than it began with, left t where it was, or kept a dt below the largest
    dt L the run has taken while t <= STALL_LIMIT L, that is while L would
    still double t in STALL_LIMIT steps (with safety = 1 a cut dt never
    grows back; a held cut of less than 2 never stalls).  Both are
    numerical failures (NUMERICAL_HALTS).  A configured stop_max_u threshold
    halts with reason 'blowup' once the factor exceeds it (the
    non-convergence alternative of the dichotomy).
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
    halt_reason = None
    doubling_from = 0.0  # t when the current count of cut steps began
    cut_steps = 0
    largest_dt = 0.0  # the largest dt a step has taken

    while True:
        remaining = cfg.t_end - state.t
        if remaining <= 1e-12 * cfg.t_end:
            break
        if state.dt > remaining:
            state = FlowState(state.t, state.u, remaining, state.step_index)
        before, halvings = state, work.halvings
        try:
            state, ev = step(state, cfg, P, ev, work)
        except FlowSingularityError:
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
            halt_reason = "blowup"
            break
        largest_dt = max(largest_dt, before.dt * 0.5 ** (work.halvings - halvings))
        if state.t >= 2.0 * doubling_from:
            doubling_from, cut_steps = state.t, 0
        elif (work.halvings > halvings or state.dt < before.dt or state.t == before.t
              or state.dt == before.dt < largest_dt and state.t <= STALL_LIMIT * largest_dt):
            cut_steps += 1
            if cut_steps >= STALL_LIMIT:
                halt_reason = "stalled"
                break

    if state.step_index != last_monitored:
        records.append(monitor(state.t, ev, weights))
    if state.step_index != last_checkpointed:
        checkpoints.append(state)
    return RunResult(records, checkpoints, halt_reason, work)
