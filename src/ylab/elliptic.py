"""Conformal elliptic toolkit.

Provides the pointwise conformal curvature map, the scalar-flat solve, the
Yamabe quotient/sign dichotomy, and prescribed scalar curvature via damped
Newton.  The curvature map and all solves share the one conformal Laplacian
P = -a(n) L + R0 of module operators, on the boundary-folded L: zero-flux
inner wall (or origin regularity) and an outer Robin condition matching
the r^{-(n-2)} fall-off.
Both solves pass the row-wise round-off test of module operators,
prescribe by damped_newton's stopping rule, so yamabe_sign and the limit
of a run share one scalar-flat verdict.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .backgrounds import BackgroundSpec, conformal_exponents
from .errors import (
    ConvergenceError,
    GridMismatchError,
    HypothesisViolationError,
    NonPositiveYamabeError,
    ParameterError,
    PositivityError,
    SupportError,
)
from .grids import RadialField, _dot
from .operators import (
    ROUNDOFF_TARGET,
    STALL_CEILING,
    ConformalLaplacian,
    conformal_laplacian,
    damped_newton,
    solve_tridiagonal,
)

POSITIVE = "Positive"
NON_POSITIVE = "NonPositive"

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny  # the smallest normal float64
_PRESCRIBE_MAX_ITER = 40

# truncated-Gaussian trial functions for the quotient scan
_TRIAL_CENTERS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0)
_TRIAL_WIDTHS = (0.5, 1.0, 2.0, 4.0, 8.0)


class SolveReport(NamedTuple):
    """Outcome of an elliptic solve.

    final_residual is the raw max-norm residual F of the discrete equation;
    scaled_residual is max_i |F_i| / s_i over the rows' round-off levels s
    (operators.ROUNDOFF_TARGET).  A returned report has converged = True.
    """

    converged: bool
    iterations: int
    final_residual: float
    positivity: float
    scaled_residual: float


class YamabeSign(NamedTuple):
    """Sign of the Yamabe constant with a checkable certificate.

    Positive carries the scalar-flat factor (min > 0, each row's residual
    at round-off); NonPositive carries a compactly supported trial with
    quotient <= 0.  When the scalar-flat solve fails but no nonpositive
    trial was found the sign is reported NonPositive with low_confidence
    set, because absence of a positive solution is numerical evidence, not
    a proof.
    """

    sign: str
    certificate: RadialField
    quotient: float | None = None
    report: SolveReport | None = None
    low_confidence: bool = False
    trial_params: tuple | None = None  # (center, width, cut) of a Gaussian trial


def curvature(v: np.ndarray, g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """R = v^{-N} P v = (w / v) g, from g = P v and w = v^{1-N}."""
    return (w / v) * g


def compute_R(
    u: RadialField, bg: BackgroundSpec, P: ConformalLaplacian | None = None
) -> RadialField:
    """Scalar curvature of u^{4/(n-2)} g_bg: u^{-N} P u.

    P is the conformal Laplacian to apply: with the one a flow steps with,
    the flow's own identity holds at every node; without one, the zero-flux
    conformal_laplacian of bg is built.  The wall and R_max rows carry the
    boundary conditions; take extrema over the nodes grids.boundary_mask
    leaves out.
    """
    if np.min(u.values) <= 0.0:
        raise PositivityError("conformal factor must be positive")
    if u.grid != bg.grid:
        raise GridMismatchError("field and background live on different grids")
    if P is None:
        P = conformal_laplacian(bg)
    v = u.values
    return RadialField(u.grid, curvature(v, P.apply(v), v ** (1.0 - P.N)))


def _scalar_flat_residual(u: np.ndarray, P: ConformalLaplacian) -> tuple[float, float]:
    """(max|F|, max|F_i| / (eps T_i)) of F = P u, T = P.row_terms(|u|)."""
    F = np.abs(P.apply(u))
    # T_i underflows to 0 only with u_i: the NaN of 0/0 then fails the test
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = float(np.max(F / (_EPS * P.row_terms(np.abs(u)))))
    return float(np.max(F)), scaled


def solve_scalar_flat(bg: BackgroundSpec) -> tuple[RadialField, SolveReport]:
    """Solve P u = 0 with u -> 1: the scalar-flat member of the class.

    Linear tridiagonal solve for v = u - 1 (zero-flux inner / Robin outer),
    accepted when u > 0 and every row's residual is within ROUNDOFF_TARGET
    of its round-off level.  Where u << 1 the sum 1 + v cancels, so a
    factor that fails is solved again for u itself, and that one is judged
    (report.iterations = 2); a first factor with a node <= 0 fails before
    its residual is computed.  Raises NonPositiveYamabeError when the system
    is singular, and otherwise carrying the last solution and its report
    when it has a negative node or fails the round-off test.  A failed
    factor with no negative node but nodes that underflowed to 0 or a
    subnormal says nothing of the sign: ConvergenceError, carrying the same.
    """
    P = conformal_laplacian(bg)
    # L 1 + b = 0, so P u = 0 reads P_lin u = a b, and P_lin (-v) = R0
    for iterations in (1, 2):
        try:
            if iterations == 1:
                u = 1.0 - solve_tridiagonal(P.lower, P.diag, P.upper, P.R0)
            else:
                # P_lin (u / a) = b, without holding the rejected factor through the solve
                del u
                u = P.a * solve_tridiagonal(P.lower, P.diag, P.upper, P.lap.affine)
        except np.linalg.LinAlgError as exc:
            raise NonPositiveYamabeError(f"scalar-flat system is singular: {exc}") from exc
        if not np.all(np.isfinite(u)):
            raise NonPositiveYamabeError("scalar-flat solve produced non-finite values")
        positivity = float(np.min(u))
        if iterations == 1 and positivity <= 0.0:
            continue  # rejected without its residual
        residual, scaled = _scalar_flat_residual(u, P)
        converged = scaled <= ROUNDOFF_TARGET and positivity > 0.0
        report = SolveReport(converged=converged, iterations=iterations,
                             final_residual=residual, positivity=positivity,
                             scaled_residual=scaled)
        if converged:
            return RadialField(bg.grid, u), report
    solution = RadialField(bg.grid, u)
    if 0.0 <= positivity < _TINY:
        raise ConvergenceError(
            f"scalar-flat factor underflows: {np.count_nonzero(u < _TINY)} nodes are 0 or"
            f" subnormal (min {positivity:.3e}) and none is negative",
            solution=solution, report=report,
        )
    raise NonPositiveYamabeError(
        f"scalar-flat factor is nonpositive (min {positivity:.3e})" if positivity < 0.0
        else f"scalar-flat residual is {scaled:.3g} times its row-wise round-off level",
        solution=solution,
        report=report,
    )


def yamabe_quotient(v: RadialField, bg: BackgroundSpec) -> float:
    """Conformal Einstein-Hilbert quotient of a compactly supported trial.

    [a(n) int |v'|^2 dV0 + int R0 v^2 dV0] / (int |v|^{2n/(n-2)} dV0)^{(n-2)/n}
    with the flat volume dV0 = omega r^{n-1} dr.  The sums run over the
    trial's support only, the nodes up to the one after its last nonzero
    value.  The volume integrals are dot products with grid.dV, the one
    volume rule, which the flow's monitor sums with too; the gradient term
    is the dot product of the squared node differences with
    grid.face_weights.
    Both weight arrays are built once per grid.
    """
    nonzero = v.values != 0.0
    last = nonzero.size - 1 - int(np.argmax(nonzero[::-1]))  # the last nonzero node, if any
    if not nonzero[last]:
        raise ParameterError("trial function must not vanish identically")
    if v.values[-1] != 0.0:
        raise SupportError("trial support touches the truncation radius")
    if v.grid != bg.grid:
        raise GridMismatchError("trial and background live on different grids")
    grid = v.grid
    n = grid.n
    a, _ = conformal_exponents(n)
    end = last + 2  # the zero node closing the support is the last one summed
    vals = v.values[:end]
    dV = grid.dV[:end]
    grad_term = _dot(grid.face_weights[:end - 1], np.diff(vals) ** 2)
    pot_term = _dot(dV, bg.r0_profile.values[:end] * vals**2)
    denom = _dot(dV, np.abs(vals) ** (2.0 * n / (n - 2.0))) ** ((n - 2.0) / n)
    return (a * grad_term + pot_term) / denom


def _truncated_gaussian(grid, center: float, width: float):
    cut = min(center + 8.0 * width, 0.5 * grid.R_max)
    if cut <= center + 2.0 * width:
        return None, None
    k = int(np.searchsorted(grid.nodes, cut))  # nodes[:k] are the nodes r < cut
    r = grid.nodes[:k]
    v = np.zeros(grid.nodes.shape)
    v[:k] = np.maximum(
        np.exp(-(((r - center) / width) ** 2)) - np.exp(-(((cut - center) / width) ** 2)), 0.0
    )
    if not np.any(v[:k] > 0.0):
        return None, None
    return v, (center, width, cut)


def yamabe_sign(bg: BackgroundSpec) -> YamabeSign:
    """Dichotomy: positive iff a positive scalar-flat factor exists.

    Positive when solve_scalar_flat returns; when it raises, scans the
    truncated-Gaussian trials for a certificate with quotient <= 0.  Each
    trial is evaluated on its nodes r < cut <= R_max/2 only, and
    yamabe_quotient sums it over its support with the grid's dV and
    face_weights, built once for the scan.  Raises ConvergenceError when
    the scalar-flat factor underflows (solve_scalar_flat) or when the best
    trial's quotient is not a finite float64, say -inf where the sum of
    R0 v^2 overflows: neither certifies a sign.
    """
    try:
        u_inf, report = solve_scalar_flat(bg)
        return YamabeSign(sign=POSITIVE, certificate=u_inf, report=report)
    except NonPositiveYamabeError:
        pass

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
    if best_v is not None and not math.isfinite(best_q):
        raise ConvergenceError(f"the best trial's Yamabe quotient is {best_q}, not a finite"
                               " float64: it certifies no sign")
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
        _, scaled = _scalar_flat_residual(u, conformal_laplacian(bg))
        return scaled <= ROUNDOFF_TARGET
    if result.low_confidence:
        return True  # nothing claimed beyond "no positive solution found"
    return yamabe_quotient(result.certificate, bg) <= 0.0


def prescribe_scalar_curvature(
    bg: BackgroundSpec, r_target: RadialField
) -> tuple[RadialField, SolveReport]:
    """Find phi > 0 with phi -> 1 whose conformal metric has curvature r_target.

    Requires r_target <= R0 pointwise.  Damped Newton on
    F(phi) = P phi - r_target phi^N from phi = 1, with backtracking that
    preserves positivity.  Its residual is row-scaled, by
    s = eps (P.row_terms(1) + |r_target|), the round-off level at phi = 1,
    and damped_newton's stopping rule, accepting a stall at or below
    STALL_CEILING.
    """
    if r_target.grid != bg.grid:
        raise GridMismatchError("target and background live on different grids")
    grid = bg.grid
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
    P = conformal_laplacian(bg)
    phi0 = np.ones(grid.nodes.shape)
    s = _EPS * (P.row_terms(phi0) + np.abs(Rt))

    def F(phi):
        return P.apply(phi) - Rt * phi**P.N

    def residual_fn(phi):
        return F(phi) / s

    def jacobian_fn(phi):
        dd = (P.diag - P.N * Rt * phi ** (P.N - 1.0)) / s
        return P.lower / s[1:], dd, P.upper / s[:-1]

    phi, rn, iters, _ = damped_newton(phi0, residual_fn, jacobian_fn, _PRESCRIBE_MAX_ITER)
    if not rn <= STALL_CEILING:
        raise ConvergenceError(f"prescribed-curvature Newton stagnated after {iters}"
                               f" iterations (scaled residual {rn:.3e})")
    report = SolveReport(converged=True, iterations=iters, positivity=float(np.min(phi)),
                         final_residual=float(np.max(np.abs(F(phi)))), scaled_residual=rn)
    return RadialField(grid, phi), report
