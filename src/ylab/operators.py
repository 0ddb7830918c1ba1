"""The radial Laplacian, with folded boundary conditions, and its solvers.

boundary_laplacian is the one discrete Laplacian L, and conformal_laplacian
the one conformal Laplacian P = -a(n) L + R0 built on it: the curvature
map, the flow and every elliptic solve apply P.  Interior rows of L are the
three-point stencil of f'' + (n-1)/r f', exact for quadratics.  Every row
stays tridiagonal by eliminating a mirrored ghost node at each end:

* r_0 = 0: even-extension regularity row, lap u(0) = 2n (u_1 - u_0)/h^2;
* r_0 > 0: Neumann wall with a prescribed flux u'(r_0): zero for elliptic
  solves, initial_inner_flux(u0) for a flow, which inverts the wall row on
  the initial data so that harmonic exteriors remain stationary;
* r_M: Robin row (u-1)' + (n-2)(u-1)/r = 0 encoding the leading
  r^{-(n-2)} fall-off at the truncation radius.

The resulting operator is affine, u -> L u + b, with b carrying the flux
and Robin constants; at zero flux every row maps a constant to exactly 0.
Linear systems are solved by LAPACK's tridiagonal LU with partial
pivoting (dgtsv): the flow's two Rosenbrock stages per step and the
scalar-flat solve call it directly.  The one nonlinear solve, prescribe's,
runs damped_newton, which returns the final iterate with its scaled
residual norm; prescribe applies F to it once more for its report's raw
residual.  dgtsv comes from scipy's compiled LAPACK module,
scipy.linalg._flapack, loaded on its own: for this one routine the
scipy.linalg package import would more than double the start-up time of
every ylab command and add about 24 MiB to it.  The module is loaded by the
first solve_tridiagonal, not at import, so a command that solves nothing
(a report whose audits need no scalar-flat limit) never loads it.

An elliptic solve passes when |F_i| <= ROUNDOFF_TARGET s_i at every row,
s_i = eps P.row_terms(u)_i plus any other terms F sums: the componentwise
backward error of Oettli and Prager.  damped_newton owns that stopping rule
for prescribe's Newton solve.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

from .backgrounds import BackgroundSpec, conformal_exponents
from .grids import RadialField, RadialGrid, _readonly

_MAX_BACKTRACKS = 40  # step halvings per Newton iteration before it stagnates
# Newton's target on a row-scaled residual |F_i| / s_i, and the level at or
# below which a solve that stalls is accepted
ROUNDOFF_TARGET = 4.0
STALL_CEILING = 16.0
_FLAPACK = "scipy.linalg._flapack"


def _load_flapack():
    """scipy's f2py LAPACK module, without running the scipy or scipy.linalg package import.

    find_spec of the top-level package only locates it.  The module is
    registered under its real name, so a later ``import scipy.linalg`` reuses
    it, and an earlier one is reused here.  Raises ImportError, naming where
    it looked, when scipy or the compiled module is missing.
    """
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError(f"{_FLAPACK} not found: no scipy package on sys.path {sys.path}")
    dirs = [Path(d) / "linalg" for d in spec.submodule_search_locations]
    for path in (d / f"_flapack{suffix}" for d in dirs
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES):
        if path.is_file():
            loader = importlib.machinery.ExtensionFileLoader(_FLAPACK, str(path))
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(_FLAPACK, path, loader=loader))
            sys.modules[_FLAPACK] = module
            loader.exec_module(module)
            return module
    raise ImportError(f"{_FLAPACK} not found: no _flapack extension in"
                      f" {', '.join(map(str, dirs))}")


@functools.cache
def _dgtsv():
    """LAPACK's dgtsv from _load_flapack, loaded on the first call only."""
    return _load_flapack().dgtsv


class BoundaryLaplacian:
    """Affine discrete radial Laplacian u -> L u + b with boundary rows folded in.

    The bands are read-only.
    """

    def __init__(self, grid: RadialGrid, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                 affine: np.ndarray):
        self.grid = grid
        self.lower = _readonly(lower)
        self.diag = _readonly(diag)
        self.upper = _readonly(upper)
        self.affine = _readonly(affine)

    def apply(self, u: np.ndarray) -> np.ndarray:
        # off-diagonals first: constants then cancel bit-exactly against the
        # diagonal, which is built as minus the off-diagonal sum
        out = np.zeros_like(u)
        out[:-1] += self.upper * u[1:]
        out[1:] += self.lower * u[:-1]
        out += self.diag * u
        out += self.affine
        return out


def _wall_flux_weight(grid: RadialGrid) -> float:
    """kappa = (n-1)/r_0 - 2/h_0: the wall row's coefficient of the prescribed flux."""
    return (grid.n - 1.0) / grid.nodes[0] - 2.0 / grid.dr[0]


def boundary_laplacian(grid: RadialGrid, inner_flux: float = 0.0) -> BoundaryLaplacian:
    """The operator on grid, with the wall (r_in > 0) flux u'(r_0) = inner_flux."""
    r = grid.nodes
    n = grid.n
    M = grid.M
    dr = grid.dr
    lower = np.zeros(M)
    diag = np.zeros(M + 1)
    upper = np.zeros(M)
    affine = np.zeros(M + 1)

    # interior rows; the centre weight is minus the sum of the others
    hm, hp = dr[:-1], dr[1:]
    denom = hm * hp * (hm + hp)
    lower[:-1] = (2.0 * hp - hp * hp * (n - 1) / r[1:-1]) / denom
    upper[1:] = (2.0 * hm + hm * hm * (n - 1) / r[1:-1]) / denom
    diag[1:-1] = -(lower[:-1] + upper[1:])

    h0 = dr[0]
    if r[0] == 0.0:
        diag[0] = -2.0 * n / (h0 * h0)
        upper[0] = 2.0 * n / (h0 * h0)
    else:
        diag[0] = -2.0 / (h0 * h0)
        upper[0] = 2.0 / (h0 * h0)
        affine[0] = inner_flux * _wall_flux_weight(grid)

    hM = dr[-1]
    kappa = 2.0 * (n - 2) / (r[-1] * hM) + (n - 1) * (n - 2) / (r[-1] * r[-1])
    lower[-1] = 2.0 / (hM * hM)
    diag[-1] = -2.0 / (hM * hM) - kappa
    affine[-1] = -(lower[-1] + diag[-1])  # kappa, rounded so constants cancel
    return BoundaryLaplacian(grid=grid, lower=lower, diag=diag, upper=upper, affine=affine)


class ConformalLaplacian:
    """P = -a(n) L + R0 of one grid, background and wall flux: u -> R0 u - a (L u + b).

    lap is the BoundaryLaplacian L + b, and (a, N) = conformal_exponents(n).
    """

    def __init__(self, lap: BoundaryLaplacian, R0: np.ndarray):
        self.lap = lap
        self.R0 = R0
        self.a, self.N = conformal_exponents(lap.grid.n)

    # the bands of the linear part, built on each read: a solve holds them
    # no longer than it needs them
    lower = property(lambda self: -self.a * self.lap.lower)
    diag = property(lambda self: self.R0 - self.a * self.lap.diag)
    upper = property(lambda self: -self.a * self.lap.upper)

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.R0 * u - self.a * self.lap.apply(u)

    def row_terms(self, u: np.ndarray) -> np.ndarray:
        """T = |R0| u + a (|L| u + |b|) for u >= 0: per row, the magnitude of the terms apply sums."""
        lap = self.lap
        abs_Lu = np.abs(lap.diag) * u
        abs_Lu[:-1] += np.abs(lap.upper) * u[1:]
        abs_Lu[1:] += np.abs(lap.lower) * u[:-1]
        return np.abs(self.R0) * u + self.a * (abs_Lu + np.abs(lap.affine))


def conformal_laplacian(bg: BackgroundSpec, inner_flux: float = 0.0) -> ConformalLaplacian:
    """P on bg's grid and R0, with the wall (r_in > 0) flux u'(r_0) = inner_flux."""
    return ConformalLaplacian(boundary_laplacian(bg.grid, inner_flux), bg.r0_profile.values)


def initial_inner_flux(u0: RadialField) -> float:
    """Wall flux that makes the wall row reproduce the accurate Laplacian of u0.

    Inverts the wall row, (2/h_0^2)(u_1 - u_0) + kappa * flux, for the
    four-point one-sided Laplacian of u0 at the wall.  The result agrees with
    u0'(r_in) to O(h^2) and removes the initial-layer transient for
    stationary exteriors.  Zero at an r_in = 0 origin (regularity row, no
    wall).
    """
    grid = u0.grid
    if grid.r_in == 0.0:
        return 0.0
    r, v = grid.nodes[:4], u0.values[:4]
    # four-point one-sided weights of u'' and u' at the wall; derivative
    # weights sum to zero, so acting on v - v[0] cancels constants exactly
    V = np.vander(r - r[0], 4, increasing=True).T
    d2, d1 = (np.linalg.solve(V, np.eye(4)[order] * math.factorial(order)) for order in (2, 1))
    lap0 = float((d2 + (grid.n - 1) / r[0] * d1) @ (v - v[0]))
    h0 = grid.dr[0]
    return float((lap0 - 2.0 * (v[1] - v[0]) / (h0 * h0)) / _wall_flux_weight(grid))


def solve_tridiagonal(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Direct LU solve (LAPACK dgtsv) of the tridiagonal system; inputs are not modified.

    Raises np.linalg.LinAlgError when the matrix is singular.
    """
    if diag.size == 1:  # the wrapper rejects the empty bands of a 1x1 system
        lower = upper = np.zeros(1)
    *_, x, info = _dgtsv()(lower, diag, upper, rhs)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular tridiagonal matrix (zero pivot {info})")
    return x


def damped_newton(u0: np.ndarray, residual_fn, jacobian_fn, max_iter: int):
    """Newton iteration with residual backtracking and a positivity guard.

    residual_fn(u) returns the residual F at u divided row by row by the
    rows' round-off levels s; jacobian_fn(u) returns the tridiagonal bands
    (lower, diag, upper) of that scaled residual at u.  Returns (u,
    residual_norm, iterations, converged) of the final iterate: converged
    when the max-norm is at most ROUNDOFF_TARGET.  Stagnation reports
    converged = False.  Candidates must stay positive.  A residual above
    STALL_CEILING stagnates after a full sweep of _MAX_BACKTRACKS halvings
    without reduction.  A residual at or below it stagnates after the first
    evaluated candidate that fails to reduce it, since halving the step
    cannot beat round-off.  Either sweep ends at the first candidate equal
    to the iterate bit for bit: rounding is monotone, so every shorter step
    gives that copy again, and its residual is the one already rejected.

    The first residual_fn call receives u0 itself, not a copy, and
    jacobian_fn receives the array the last accepted residual_fn call did.
    Its one caller is elliptic.prescribe_scalar_curvature.
    """
    u = np.asarray(u0, dtype=np.float64)
    res = residual_fn(u)
    rn = float(np.max(np.abs(res)))
    iterations = 0
    while rn > ROUNDOFF_TARGET and iterations < max_iter:
        try:
            delta = solve_tridiagonal(*jacobian_fn(u), -res)
        except np.linalg.LinAlgError:
            return u, rn, iterations, False
        if not np.all(np.isfinite(delta)):
            return u, rn, iterations, False
        lam = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            cand = u + lam * delta
            if np.array_equal(cand, u):  # so is every shorter step: its residual is rn
                break
            if np.min(cand) > 0.0:
                cres = residual_fn(cand)
                crn = float(np.max(np.abs(cres)))
                if np.isfinite(crn) and (crn < rn or crn <= ROUNDOFF_TARGET):
                    u, res, rn = cand, cres, crn
                    accepted = True
                    break
                if rn <= STALL_CEILING:
                    break
            lam *= 0.5
        iterations += 1
        if not accepted:
            return u, rn, iterations, False
    return u, rn, iterations, rn <= ROUNDOFF_TARGET
