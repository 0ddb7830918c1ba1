"""Conformal elliptic toolkit.

Provides the pointwise conformal curvature map, the scalar-flat solve, the
Yamabe quotient/sign dichotomy, and prescribed scalar curvature via damped
Newton.  The curvature map and all solves share the one boundary-folded
Laplacian of module operators: zero-flux inner wall (or origin
regularity) and an outer Robin condition matching the r^{-(n-2)} fall-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backgrounds import BackgroundSpec, conformal_exponents
from .errors import (
    HypothesisViolationError,
    NonPositiveYamabeError,
    ParameterError,
    PositivityError,
    SupportError,
)
from .grids import RadialField, sphere_volume
from .operators import (
    BoundaryLaplacian,
    boundary_laplacian,
    damped_newton,
    require_converged,
    solve_tridiagonal,
)

POSITIVE = "Positive"
NON_POSITIVE = "NonPositive"

_EPS_FLOOR = 100.0 * np.finfo(np.float64).eps
_TOL = 1e-10  # solve tolerance, relative to 1 + the curvature scale
_PRESCRIBE_MAX_ITER = 40

# truncated-Gaussian trial functions for the quotient scan
_TRIAL_CENTERS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0)
_TRIAL_WIDTHS = (0.5, 1.0, 2.0, 4.0, 8.0)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of an elliptic solve.

    final_residual is the raw max-norm residual of the discrete equation;
    tolerance is the effective threshold it was compared against (1e-10
    times 1 + a curvature scale, floored at the round-off level of the
    stencil rows).  converged implies final_residual <= tolerance and
    positivity > 0.
    """

    converged: bool
    iterations: int
    final_residual: float
    positivity: float
    tolerance: float


@dataclass(frozen=True, eq=False)
class YamabeSign:
    """Sign of the Yamabe constant with a checkable certificate.

    Positive carries the scalar-flat factor (min > 0, small residual);
    NonPositive carries a compactly supported trial with quotient <= 0.
    When the scalar-flat solve fails but no nonpositive trial was found the
    sign is reported NonPositive with low_confidence set, because absence of
    a converged positive solution is numerical evidence, not a proof.
    """

    sign: str
    certificate: RadialField
    quotient: float | None = None
    report: SolveReport | None = None
    low_confidence: bool = False
    trial_params: tuple | None = None  # (center, width, cut) of a Gaussian trial


def compute_R(
    u: RadialField, bg: BackgroundSpec, lap: BoundaryLaplacian | None = None
) -> RadialField:
    """Scalar curvature of u^{4/(n-2)} g_bg: u^{-N} (-a(n) lap u + R0 u).

    lap is the operator to apply: a flow passes the one it steps with, so
    the flow's own identity holds at every node; without one, the zero-flux
    boundary_laplacian of u's grid is built.  The wall and R_max rows carry
    the boundary conditions; take extrema over the nodes grids.boundary_mask
    leaves out.
    """
    if np.min(u.values) <= 0.0:
        raise PositivityError("conformal factor must be positive")
    if u.grid != bg.grid:
        raise ParameterError("field and background live on different grids")
    if lap is None:
        lap = boundary_laplacian(u.grid)
    a, N = conformal_exponents(u.grid.n)
    R0 = bg.r0_profile.values
    vals = u.values ** (-N) * (-a * lap.apply(u.values) + R0 * u.values)
    return RadialField(u.grid, vals)


def _effective_tolerance(curvature_scale: float, row_norm: float) -> float:
    return max(_TOL * (1.0 + curvature_scale), _EPS_FLOOR * row_norm)


def _scalar_flat_residual(u: np.ndarray, bg: BackgroundSpec, lap):
    """(max|a(n) L u - R0 u|, effective tolerance) of u on the boundary-folded rows lap."""
    a, _ = conformal_exponents(bg.grid.n)
    R0 = bg.r0_profile.values
    residual = float(np.max(np.abs(a * lap.apply(u) - R0 * u)))
    return residual, _effective_tolerance(float(np.max(np.abs(R0))), a * lap.row_norm)


def solve_scalar_flat(bg: BackgroundSpec) -> tuple[RadialField, SolveReport]:
    """Solve a(n) lap u = R0 u with u -> 1: the scalar-flat member of the class.

    Linear tridiagonal solve for v = u - 1 (zero-flux inner / Robin outer).
    Raises NonPositiveYamabeError carrying the offending solution when the
    solve is singular or the solution fails positivity.
    """
    grid = bg.grid
    a, _ = conformal_exponents(grid.n)
    R0 = bg.r0_profile.values
    lap = boundary_laplacian(grid)

    # a (L(1+v) + b) - R0 (1+v) = 0 with L(1)+b = 0  =>  (aL - R0) v = R0
    lower = a * lap.lower
    diag = a * lap.diag - R0
    upper = a * lap.upper
    try:
        v = solve_tridiagonal(lower, diag, upper, R0)
    except np.linalg.LinAlgError as exc:
        raise NonPositiveYamabeError(f"scalar-flat system is singular: {exc}") from exc
    if not np.all(np.isfinite(v)):
        raise NonPositiveYamabeError("scalar-flat solve produced non-finite values")

    u = 1.0 + v
    residual, tolerance = _scalar_flat_residual(u, bg, lap)
    positivity = float(np.min(u))
    converged = residual <= tolerance and positivity > 0.0
    report = SolveReport(
        converged=converged,
        iterations=1,
        final_residual=residual,
        positivity=positivity,
        tolerance=tolerance,
    )
    u_field = RadialField(grid, u)
    if positivity <= 0.0:
        raise NonPositiveYamabeError(
            f"scalar-flat factor is nonpositive (min {positivity:.3e})",
            solution=u_field,
            report=report,
        )
    return u_field, report


def yamabe_quotient(v: RadialField, bg: BackgroundSpec) -> float:
    """Conformal Einstein-Hilbert quotient of a compactly supported trial.

    [a(n) int |v'|^2 dV0 + int R0 v^2 dV0] / (int |v|^{2n/(n-2)} dV0)^{(n-2)/n}
    with the flat volume dV0 = omega r^{n-1} dr.
    """
    if np.all(v.values == 0.0):
        raise ParameterError("trial function must not vanish identically")
    if v.values[-1] != 0.0:
        raise SupportError("trial support touches the truncation radius")
    if v.grid != bg.grid:
        raise ParameterError("trial and background live on different grids")
    grid = v.grid
    n = grid.n
    a, _ = conformal_exponents(n)
    omega = sphere_volume(n)
    r = grid.nodes
    dr = grid.dr

    slope = np.diff(v.values) / dr
    r_mid = 0.5 * (r[:-1] + r[1:])
    grad_term = float(np.sum(slope**2 * r_mid ** (n - 1) * dr)) * omega

    dens0 = omega * r ** (n - 1)
    pot = bg.r0_profile.values * v.values**2 * dens0
    pot_term = float(np.sum(0.5 * (pot[:-1] + pot[1:]) * dr))

    crit = np.abs(v.values) ** (2.0 * n / (n - 2.0)) * dens0
    denom = float(np.sum(0.5 * (crit[:-1] + crit[1:]) * dr)) ** ((n - 2.0) / n)
    return (a * grad_term + pot_term) / denom


def _truncated_gaussian(grid, center: float, width: float):
    cut = min(center + 8.0 * width, 0.5 * grid.R_max)
    if cut <= center + 2.0 * width:
        return None, None
    r = grid.nodes
    v = np.exp(-(((r - center) / width) ** 2)) - np.exp(-(((cut - center) / width) ** 2))
    v[r >= cut] = 0.0
    v = np.maximum(v, 0.0)
    if not np.any(v > 0.0):
        return None, None
    return v, (center, width, cut)


def yamabe_sign(bg: BackgroundSpec) -> YamabeSign:
    """Dichotomy: positive iff a positive scalar-flat factor exists.

    Tries the scalar-flat solve first; on failure scans the truncated-Gaussian
    trials for a certificate with quotient <= 0.
    """
    try:
        u_inf, report = solve_scalar_flat(bg)
    except NonPositiveYamabeError:
        u_inf, report = None, None
    if u_inf is not None and report.converged:
        return YamabeSign(sign=POSITIVE, certificate=u_inf, report=report)

    best_q = np.inf
    best_v = None
    best_params = None
    for center in _TRIAL_CENTERS:
        for width in _TRIAL_WIDTHS:
            vals, params = _truncated_gaussian(bg.grid, center, width)
            if vals is None:
                continue
            v = RadialField(bg.grid, vals)
            q = yamabe_quotient(v, bg)
            if q < best_q:
                best_q, best_v, best_params = q, v, params
    if best_v is not None and best_q <= 0.0:
        return YamabeSign(
            sign=NON_POSITIVE, certificate=best_v, quotient=best_q, trial_params=best_params
        )

    if best_v is None:
        # tiny grids can reject every catalog trial; fall back to a tent
        r = bg.grid.nodes
        cut = 0.4 * bg.grid.R_max
        best_v = RadialField(bg.grid, np.maximum(1.0 - r / cut, 0.0))
        best_q = None
    return YamabeSign(
        sign=NON_POSITIVE,
        certificate=best_v,
        quotient=best_q,
        low_confidence=True,
        trial_params=best_params,
    )


def verify_certificate(result: YamabeSign, bg: BackgroundSpec) -> bool:
    """Re-evaluate a sign certificate from scratch."""
    if result.sign == POSITIVE:
        u = result.certificate.values
        if float(np.min(u)) <= 0.0:
            return False
        residual, tolerance = _scalar_flat_residual(u, bg, boundary_laplacian(bg.grid))
        return residual <= tolerance
    if result.low_confidence:
        return True  # nothing claimed beyond "no positive solution found"
    return yamabe_quotient(result.certificate, bg) <= 0.0


def prescribe_scalar_curvature(
    bg: BackgroundSpec, r_target: RadialField
) -> tuple[RadialField, SolveReport]:
    """Find phi > 0 with phi -> 1 whose conformal metric has curvature r_target.

    Requires r_target <= R0 pointwise.  Damped Newton on
    F(phi) = -a lap phi + R0 phi - r_target phi^N from phi = 1, with
    backtracking that preserves positivity.
    """
    if r_target.grid != bg.grid:
        raise ParameterError("target and background live on different grids")
    grid = bg.grid
    a, N = conformal_exponents(grid.n)
    R0 = bg.r0_profile.values
    Rt = r_target.values
    curvature_scale = float(np.max(np.abs(R0)) + np.max(np.abs(Rt)))
    slack = 1e-12 * (1.0 + curvature_scale)
    worst = float(np.max(Rt - R0))
    if worst > slack:
        i = int(np.argmax(Rt - R0))
        raise HypothesisViolationError(
            f"target curvature exceeds background at r={grid.nodes[i]:.3g} "
            f"by {worst:.3e}; the deformation requires r_target <= R0"
        )
    lap = boundary_laplacian(grid)

    def residual_fn(phi):
        return -a * lap.apply(phi) + R0 * phi - Rt * phi**N

    def jacobian_fn(phi):
        dd = -a * lap.diag + R0 - N * Rt * phi ** (N - 1.0)
        return -a * lap.lower, dd, -a * lap.upper

    tolerance = _effective_tolerance(curvature_scale, a * lap.row_norm)
    phi0 = np.ones(grid.nodes.shape)
    phi, rn, iters, converged = damped_newton(
        phi0, residual_fn, jacobian_fn, tolerance, _PRESCRIBE_MAX_ITER
    )
    require_converged(converged, "prescribed-curvature Newton", rn, iters)
    report = SolveReport(
        converged=True,
        iterations=iters,
        final_residual=rn,
        positivity=float(np.min(phi)),
        tolerance=tolerance,
    )
    return RadialField(grid, phi), report
