"""Tridiagonal radial operators with folded boundary conditions.

The solve-facing Laplacian keeps every row tridiagonal by eliminating a
mirrored ghost node at each end:

* r_0 = 0: even-extension regularity row, lap u(0) = 2n (u_1 - u_0)/h^2;
* r_0 > 0: Neumann wall with a prescribed flux u'(r_0) (zero for elliptic
  solves; the flow freezes the initial data's flux so that harmonic
  exteriors remain stationary);
* r_M: Robin row (u-1)' + (n-2)(u-1)/r = 0 encoding the leading
  r^{-(n-2)} fall-off at the truncation radius.

The resulting operator is affine, u -> L u + b, with b carrying the flux
and Robin constants.  Linear systems are solved by LAPACK's tridiagonal
LU with partial pivoting (gtsv).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import ConvergenceError
from .grids import RadialGrid, stencil_weights

_MAX_BACKTRACKS = 40  # step halvings per Newton iteration before it stagnates


@dataclass(frozen=True, eq=False)
class BoundaryLaplacian:
    """Affine discrete radial Laplacian u -> L u + b with boundary rows folded in."""

    grid: RadialGrid
    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    affine: np.ndarray

    def apply(self, u: np.ndarray) -> np.ndarray:
        # off-diagonals first: constants then cancel bit-exactly against the
        # diagonal, which is built as minus the off-diagonal sum
        out = np.zeros_like(u)
        out[:-1] += self.upper * u[1:]
        out[1:] += self.lower * u[:-1]
        out += self.diag * u
        out += self.affine
        return out

    @property
    def row_norm(self) -> float:
        s = np.abs(self.diag).copy()
        s[:-1] += np.abs(self.upper)
        s[1:] += np.abs(self.lower)
        return float(np.max(s))


def boundary_laplacian(grid: RadialGrid, inner_flux: float = 0.0) -> BoundaryLaplacian:
    r = grid.nodes
    n = grid.n
    M = grid.M
    dr = grid.dr
    lower = np.zeros(M)
    diag = np.zeros(M + 1)
    upper = np.zeros(M)
    affine = np.zeros(M + 1)

    w_lo, w_hi = stencil_weights(grid)
    lower[:-1] = w_lo
    diag[1:-1] = -(w_lo + w_hi)
    upper[1:] = w_hi

    h0 = dr[0]
    if r[0] == 0.0:
        diag[0] = -2.0 * n / h0**2
        upper[0] = 2.0 * n / h0**2
    else:
        diag[0] = -2.0 / h0**2
        upper[0] = 2.0 / h0**2
        affine[0] = inner_flux * ((n - 1) / r[0] - 2.0 / h0)

    hM = dr[-1]
    kappa = 2.0 * (n - 2) / (r[-1] * hM) + (n - 1) * (n - 2) / r[-1] ** 2
    lower[-1] = 2.0 / hM**2
    diag[-1] = -2.0 / hM**2 - kappa
    affine[-1] = kappa
    return BoundaryLaplacian(grid=grid, lower=lower, diag=diag, upper=upper, affine=affine)


def solve_tridiagonal(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Direct LU solve (LAPACK dgtsv) of the tridiagonal system; inputs are not modified.

    Raises np.linalg.LinAlgError when the matrix is singular.
    """
    if diag.size == 1:  # the wrapper rejects the empty bands of a 1x1 system
        lower = upper = np.zeros(1)
    *_, x, info = dgtsv(lower, diag, upper, rhs)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular tridiagonal matrix (zero pivot {info})")
    return x


def damped_newton(
    u0: np.ndarray,
    residual_fn,
    jacobian_fn,
    tol: float,
    max_iter: int,
    floor: float = 0.0,
):
    """Newton iteration with residual backtracking and a positivity guard.

    jacobian_fn returns tridiagonal bands (lower, diag, upper).  Returns
    (u, residual_norm, iterations, converged); stagnation reports
    converged = False.  Candidates must stay positive.  A residual above
    floor stagnates after a full sweep of _MAX_BACKTRACKS halvings without
    reduction.  A residual at or below floor (the round-off level of
    residual_fn) stagnates after the first evaluated candidate that fails to
    reduce it, since halving the step cannot beat round-off; floor = 0
    always runs the full sweep.
    """
    u = np.array(u0, dtype=np.float64)
    res = residual_fn(u)
    rn = float(np.max(np.abs(res)))
    iterations = 0
    while rn > tol and iterations < max_iter:
        lower, diag, upper = jacobian_fn(u)
        try:
            delta = solve_tridiagonal(lower, diag, upper, -res)
        except np.linalg.LinAlgError:
            return u, rn, iterations, False
        if not np.all(np.isfinite(delta)):
            return u, rn, iterations, False
        lam = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            cand = u + lam * delta
            if np.min(cand) > 0.0:
                cres = residual_fn(cand)
                crn = float(np.max(np.abs(cres)))
                if np.isfinite(crn) and (crn < rn or crn <= tol):
                    u, res, rn = cand, cres, crn
                    accepted = True
                    break
                if rn <= floor:
                    break
            lam *= 0.5
        iterations += 1
        if not accepted:
            return u, rn, iterations, False
    return u, rn, iterations, rn <= tol


def require_converged(converged: bool, what: str, residual: float, iterations: int) -> None:
    if not converged:
        raise ConvergenceError(
            f"{what} stagnated after {iterations} iterations (residual {residual:.3e})"
        )
