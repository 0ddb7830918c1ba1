"""Radial grids, their volume weights, norms and field output.

Everything downstream (backgrounds, elliptic solves, the flow itself) works
on a fixed radial grid over [r_in, R_max].  A RadialGrid is its nodes;
build_grid lays them out either uniformly or uniformly on [r_in, 1] with
geometric spacing on [1, R_max] ("log-stretched"), so that a single relative
mesh parameter ``h`` controls accuracy across the whole truncated domain.

Conventions:

* dimension n >= 3, volume element ``omega_{n-1} r^{n-1} dr`` against the
  flat reference metric, conformal volume weight ``u^{2n/(n-2)}``;
* the one volume rule is ``RadialGrid.dV``: every volume integral is a dot
  product of dV with nodal samples of its density;
* the radial weight used by weighted norms is ``max(r, 1)``;
* the one discrete Laplacian is ``operators.boundary_laplacian``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, GridMismatchError, ParameterError

UNIFORM = "uniform"
LOG_STRETCHED = "log-stretched"

_MIN_INTERVALS = 16
_CSV_BLOCK_ROWS = 4096  # rows formatted per write by write_field_csv


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


class RadialGrid:
    """Strictly increasing radii r_0 < ... < r_M with an n-dimensional volume rule.

    Its arrays are read-only and built once, with the grid: the spacings dr,
    the radial weight w = max(r, 1), and

    * dV, the one volume rule: flat volume weights omega r^{n-1} times the
      composite trapezoid node weights.  The dot product of dV with nodal
      samples f is the trapezoid integral of f against dV0 = omega r^{n-1} dr;
      with f times the density u^{2n/(n-2)} it is the conformal volume integral;
    * face_weights, omega r_mid^{n-1} / h_i per interval (r_mid the interval
      midpoints, h_i = dr): the dot product with diff(v)**2 is the midpoint
      rule of the energy integral of |v'|^2 dV0.

    A grid is its nodes, whether build_grid laid them out or not.
    ConfigError on fewer than 16 intervals, a negative first node or nodes
    that do not increase strictly, and when dV, face_weights or the stencil
    denominators h_{i-1} h_i (h_{i-1} + h_i) of operators.boundary_laplacian
    overflow float64.
    """

    def __init__(self, n: int, nodes: np.ndarray):
        if n < 3:
            raise ParameterError(f"dimension n must be >= 3, got {n}")
        nodes = np.asarray(nodes, dtype=np.float64)
        if nodes.ndim != 1 or nodes.size < _MIN_INTERVALS + 1:
            raise ConfigError(
                f"grid needs at least {_MIN_INTERVALS} intervals, got {nodes.size - 1}"
            )
        if nodes[0] < 0.0:
            raise ConfigError("innermost radius must be nonnegative")
        if not np.all(np.diff(nodes) > 0.0):
            raise ConfigError("grid nodes must be strictly increasing")
        self.n = n
        self.nodes = _readonly(nodes)
        self.dr = _readonly(np.diff(nodes))
        self.w = _readonly(np.maximum(nodes, 1.0))
        with np.errstate(over="ignore"):
            weights = np.zeros(nodes.shape)  # the trapezoid node weights
            weights[:-1] += 0.5 * self.dr
            weights[1:] += 0.5 * self.dr
            self.dV = _readonly(sphere_volume(n) * self.nodes ** (n - 1) * weights)
            del weights  # freed before face_weights' temporaries: a lower peak RSS at large M
            r_mid = 0.5 * (self.nodes[:-1] + self.nodes[1:])
            self.face_weights = _readonly(sphere_volume(n) * r_mid ** (n - 1) / self.dr)
            hm, hp = self.dr[:-1], self.dr[1:]
            if not all(np.isfinite(a).all()
                       for a in (self.dV, self.face_weights, hm * hp * (hm + hp))):
                raise ConfigError(
                    f"grid with R_max = {self.R_max:g} and M = {self.M} is not representable"
                    " in float64: its volume or stencil weights overflow"
                )

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, RadialGrid):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.nodes, other.nodes)

    @property
    def M(self) -> int:
        return self.nodes.size - 1

    @property
    def r_in(self) -> float:
        return float(self.nodes[0])

    @property
    def R_max(self) -> float:
        return float(self.nodes[-1])

    @property
    def h(self) -> float:
        """Relative mesh parameter: max spacing measured against max(r, 1).

        Equals the uniform spacing on [r_in, 1] and the geometric stretch
        q - 1 on [1, R_max]; tolerance statements of the form C*h^2 use it.
        """
        return float(np.max(self.dr / np.maximum(self.nodes[1:], 1.0)))


class RadialField:
    """Samples of a radial function on a fixed grid."""

    def __init__(self, grid: RadialGrid, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != grid.nodes.shape:
            raise GridMismatchError(
                f"field has {values.size} samples for a grid of {grid.nodes.size} nodes"
            )
        if not np.all(np.isfinite(values)):
            raise ParameterError("field contains non-finite samples")
        self.grid = grid
        self.values = _readonly(values)


def sphere_volume(n: int) -> float:
    """omega_{n-1} = 2 pi^{n/2} / Gamma(n/2), the volume of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def constant_field(grid: RadialGrid, value: float) -> RadialField:
    return RadialField(grid, np.full(grid.nodes.shape, float(value)))


def field_from_function(grid: RadialGrid, fn) -> RadialField:
    return RadialField(grid, np.asarray(fn(grid.nodes), dtype=np.float64))


def build_grid(n: int, r_in: float, R_max: float, M: int, policy: str = LOG_STRETCHED) -> RadialGrid:
    """Construct a grid on [r_in, R_max] with M intervals.

    Uniform policy spaces nodes evenly.  Log-stretched keeps uniform spacing
    on [r_in, 1] and geometric spacing on [1, R_max], with the split chosen so
    the spacing is continuous across r = 1.  ConfigError on any other policy;
    RadialGrid checks n and the nodes.
    """
    if M < _MIN_INTERVALS:
        raise ConfigError(f"M must be >= {_MIN_INTERVALS}, got {M}")
    if not (0.0 <= r_in < 1.0 < R_max):
        raise ConfigError(
            f"radii must satisfy 0 <= r_in < 1 < R_max, got r_in={r_in}, R_max={R_max}"
        )

    if policy == UNIFORM:
        return RadialGrid(n, np.linspace(r_in, R_max, M + 1))
    if policy != LOG_STRETCHED:
        raise ConfigError(f"unknown grid policy {policy!r}")

    # Spacing continuity at r=1: (1 - r_in)/k ~ R_max^(1/(M-k)) - 1.  The
    # mismatch is strictly decreasing in k, so scan for the sign change.
    def mismatch(k: int) -> float:
        return (1.0 - r_in) / k - (R_max ** (1.0 / (M - k)) - 1.0)

    lo, hi = 1, M - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mismatch(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    k = lo if abs(mismatch(lo)) <= abs(mismatch(hi)) else hi

    inner = np.linspace(r_in, 1.0, k + 1)
    outer = np.geomspace(1.0, R_max, M - k + 1)
    nodes = np.concatenate([inner[:-1], outer])
    return RadialGrid(n, nodes)


def boundary_mask(grid: RadialGrid) -> np.ndarray:
    """Boolean mask of the boundary nodes whose Laplacian rows fold in a condition.

    An inner wall at r_in > 0 (Neumann row) and the truncation node at R_max
    (Robin row) are flagged: curvature there carries the boundary condition,
    so extrema skip them.  The origin node of an r_in = 0 grid is *not*
    flagged (its regularity row is interior-grade).
    """
    mask = np.zeros(grid.nodes.shape, dtype=bool)
    if grid.r_in > 0.0:
        mask[0] = True
    mask[-1] = True
    return mask


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of a * b, by numpy's own loop on one thread.

    BLAS ddot (``a @ b``) threads at the flow's grid sizes, and OpenBLAS's
    idle worker then spins on a second core between calls.
    """
    return float(np.einsum("i,i", a, b))


def weighted_sup_norm(f: RadialField, beta: float) -> float:
    """sup over nodes of max(r,1)^{-beta} |f|.

    With beta = -tau' < 0 this is the decay seminorm sup r^{tau'} |f|.
    """
    return float(np.max(f.grid.w ** (-beta) * np.abs(f.values)))


def truncation_tail_bound(C: float, decay_order: float, grid: RadialGrid) -> float:
    """Bound on the discarded tail of an integrand with |g| <= C r^{-decay_order}.

    Returns 0.0 when C = 0 (no tail), else inf when the tail is not
    integrable against r^{n-1} dr.
    """
    n = grid.n
    if C == 0.0:
        return 0.0
    if decay_order <= n:
        return math.inf
    return C * sphere_volume(n) * grid.R_max ** (n - decay_order) / (decay_order - n)


def write_field_csv(f: RadialField, path, header: str = "r,value") -> None:
    """Serialize to CSV (17 significant digits); factor snapshots use ``r,u``.

    The header line, then one ``%.17g,%.17g`` row per node.  Rows are built
    _CSV_BLOCK_ROWS at a time, each block by one ``%`` format over its
    interleaved (r, value) pairs, so the text held in memory stays bounded.
    """
    pairs = np.column_stack([f.grid.nodes, f.values])
    with open(path, "w") as fh:
        fh.write(f"{header}\n")
        for start in range(0, len(pairs), _CSV_BLOCK_ROWS):
            block = pairs[start:start + _CSV_BLOCK_ROWS]
            fh.write("%.17g,%.17g\n" * len(block) % tuple(block.ravel().tolist()))
