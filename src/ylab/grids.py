"""Radial grids, quadrature and norms.

Everything downstream (backgrounds, elliptic solves, the flow itself) works
on a fixed radial grid over [r_in, R_max].  The grid is either uniform or
uniform on [r_in, 1] with geometric spacing on [1, R_max] ("log-stretched"),
so that a single relative mesh parameter ``h`` controls accuracy across the
whole truncated domain.

Conventions:

* dimension n >= 3, volume element ``omega_{n-1} r^{n-1} dr`` against the
  flat reference metric, conformal volume weight ``u^{2n/(n-2)}``;
* the radial weight used by weighted norms is ``max(r, 1)``;
* the one discrete Laplacian is ``operators.boundary_laplacian``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    GridMismatchError,
    ParameterError,
    PositivityError,
    SchemaError,
)

UNIFORM = "uniform"
LOG_STRETCHED = "log-stretched"
_POLICIES = (UNIFORM, LOG_STRETCHED)

_MIN_INTERVALS = 16


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Strictly increasing radii r_0 < ... < r_M with an n-dimensional volume rule."""

    n: int
    nodes: np.ndarray
    policy: str

    def __post_init__(self):
        if self.n < 3:
            raise ParameterError(f"dimension n must be >= 3, got {self.n}")
        if self.policy not in _POLICIES:
            raise ConfigError(f"unknown grid policy {self.policy!r}")
        nodes = np.asarray(self.nodes, dtype=np.float64)
        if nodes.ndim != 1 or nodes.size < _MIN_INTERVALS + 1:
            raise ConfigError(
                f"grid needs at least {_MIN_INTERVALS} intervals, got {nodes.size - 1}"
            )
        if nodes[0] < 0.0:
            raise ConfigError("innermost radius must be nonnegative")
        if not np.all(np.diff(nodes) > 0.0):
            raise ConfigError("grid nodes must be strictly increasing")
        if self.policy == LOG_STRETCHED:
            outer = nodes[nodes >= 1.0]
            if outer.size >= 3:
                ratios = outer[1:] / outer[:-1]
                if np.max(np.abs(ratios / ratios[0] - 1.0)) > 1e-12:
                    raise ConfigError("log-stretched grid has non-constant ratio past r=1")
        object.__setattr__(self, "nodes", _readonly(nodes))
        object.__setattr__(self, "_dr", _readonly(np.diff(nodes)))
        object.__setattr__(self, "_w", _readonly(np.maximum(nodes, 1.0)))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, RadialGrid):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.nodes, other.nodes)

    def __hash__(self):
        return hash((self.n, self.nodes.shape[0], float(self.nodes[0]), float(self.nodes[-1])))

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
    def dr(self) -> np.ndarray:
        return self._dr

    @property
    def w(self) -> np.ndarray:
        """Radial weight max(r, 1)."""
        return self._w

    @property
    def h(self) -> float:
        """Relative mesh parameter: max spacing measured against max(r, 1).

        Equals the uniform spacing on [r_in, 1] and the geometric stretch
        q - 1 on [1, R_max]; tolerance statements of the form C*h^2 use it.
        """
        return float(np.max(self._dr / np.maximum(self.nodes[1:], 1.0)))


@dataclass(frozen=True, eq=False)
class RadialField:
    """Samples of a radial function on a fixed grid."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != self.grid.nodes.shape:
            raise GridMismatchError(
                f"field has {values.size} samples for a grid of {self.grid.nodes.size} nodes"
            )
        if not np.all(np.isfinite(values)):
            raise ParameterError("field contains non-finite samples")
        object.__setattr__(self, "values", _readonly(values))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RadialField):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.values, other.values)

    def with_values(self, values: np.ndarray) -> "RadialField":
        return RadialField(self.grid, values)

    def __sub__(self, other: "RadialField") -> "RadialField":
        _require_same_grid(self, other)
        return RadialField(self.grid, self.values - other.values)


def sphere_volume(n: int) -> float:
    """omega_{n-1} = 2 pi^{n/2} / Gamma(n/2), the volume of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def constant_field(grid: RadialGrid, value: float) -> RadialField:
    return RadialField(grid, np.full(grid.nodes.shape, float(value)))


def field_from_function(grid: RadialGrid, fn) -> RadialField:
    return RadialField(grid, np.asarray(fn(grid.nodes), dtype=np.float64))


def _require_same_grid(f: RadialField, g: RadialField) -> None:
    if f.grid is not g.grid and f.grid != g.grid:
        raise GridMismatchError("fields live on different grids")


def build_grid(n: int, r_in: float, R_max: float, M: int, policy: str = LOG_STRETCHED) -> RadialGrid:
    """Construct a grid on [r_in, R_max] with M intervals.

    Uniform policy spaces nodes evenly.  Log-stretched keeps uniform spacing
    on [r_in, 1] and geometric spacing on [1, R_max], with the split chosen so
    the spacing is continuous across r = 1.  RadialGrid checks n and policy.
    """
    if M < _MIN_INTERVALS:
        raise ConfigError(f"M must be >= {_MIN_INTERVALS}, got {M}")
    if not (0.0 <= r_in < 1.0 < R_max):
        raise ConfigError(
            f"radii must satisfy 0 <= r_in < 1 < R_max, got r_in={r_in}, R_max={R_max}"
        )

    if policy != LOG_STRETCHED:  # uniform, or an unknown policy that RadialGrid rejects
        return RadialGrid(n=n, nodes=np.linspace(r_in, R_max, M + 1), policy=policy)

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
    return RadialGrid(n=n, nodes=nodes, policy=LOG_STRETCHED)


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


def integrate_dr(y: np.ndarray, grid: RadialGrid) -> float:
    """Composite trapezoid of nodal samples y against dr: the one quadrature."""
    return float(np.sum(0.5 * (y[:-1] + y[1:]) * grid.dr))


def volume_weight(grid: RadialGrid, u: RadialField) -> np.ndarray:
    """Pointwise conformal volume density u^{2n/(n-2)} omega r^{n-1}."""
    _require_positive(u)
    n = grid.n
    return u.values ** (2.0 * n / (n - 2.0)) * sphere_volume(n) * grid.nodes ** (n - 1)


def _require_positive(u: RadialField) -> None:
    if np.min(u.values) <= 0.0:
        raise PositivityError("conformal factor must be positive everywhere")


def integrate_dV(f: RadialField, u: RadialField) -> float:
    """Integral of f against the conformal volume u^{2n/(n-2)} dV_flat.

    Composite trapezoid on the (possibly nonuniform) grid; the unbounded
    manifold is truncated at R_max (see truncation_tail_bound for the
    discarded tail).
    """
    _require_same_grid(f, u)
    return integrate_dr(f.values * volume_weight(f.grid, u), f.grid)


def lp_integral(f: RadialField, p: float, u: RadialField) -> float:
    """Integral of |f|^p against the conformal volume."""
    if p < 1.0:
        raise ParameterError(f"p must be >= 1, got {p}")
    _require_same_grid(f, u)
    return integrate_dr(np.abs(f.values) ** p * volume_weight(f.grid, u), f.grid)


def lp_norm(f: RadialField, p: float, u: RadialField) -> float:
    return lp_integral(f, p, u) ** (1.0 / p)


def weighted_sup_norm(f: RadialField, beta: float) -> float:
    """sup over nodes of max(r,1)^{-beta} |f|.

    With beta = -tau' < 0 this is the decay seminorm sup r^{tau'} |f|.
    """
    return float(np.max(f.grid.w ** (-beta) * np.abs(f.values)))


def truncation_tail_bound(C: float, decay_order: float, grid: RadialGrid) -> float:
    """Bound on the discarded tail of an integrand with |g| <= C r^{-decay_order}.

    Returns inf when the tail is not integrable against r^{n-1} dr.
    """
    n = grid.n
    if decay_order <= n:
        return math.inf
    return C * sphere_volume(n) * grid.R_max ** (n - decay_order) / (decay_order - n)


def write_field_csv(f: RadialField, path, header: str = "r,value") -> None:
    """Serialize to CSV (17 significant digits); factor snapshots use ``r,u``.

    One ``%`` format over the interleaved (r, value) pairs builds the whole
    text: the header line, then one ``%.17g,%.17g`` row per node.
    """
    pairs = np.column_stack([f.grid.nodes, f.values]).ravel().tolist()
    with open(path, "w") as fh:
        fh.write(f"{header}\n" + "%.17g,%.17g\n" * f.values.size % tuple(pairs))


def bind_field(grid: RadialGrid, radii: np.ndarray, values: np.ndarray) -> RadialField:
    if radii.shape != grid.nodes.shape or not np.allclose(radii, grid.nodes, rtol=0, atol=1e-15):
        raise GridMismatchError("stored radii do not match the target grid")
    return RadialField(grid, values)


_SERIES_DTYPE = np.dtype("<f8")


def write_field_series(fields, path) -> None:
    """Serialize fields on one grid as a (K+1, M+1) little-endian float64 ``.npy``.

    Row 0 holds the radii and row k the values of field k.  The header is
    written once and each row's bytes follow it, so no stacked copy of the
    series is ever held.
    """
    grid = fields[0].grid
    shape = (len(fields) + 1, grid.nodes.size)
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": _SERIES_DTYPE.str, "fortran_order": False, "shape": shape}
        )
        fh.write(grid.nodes.astype(_SERIES_DTYPE, copy=False).tobytes())
        for f in fields:
            _require_same_grid(fields[0], f)
            fh.write(f.values.astype(_SERIES_DTYPE, copy=False).tobytes())


def read_field_series(path, grid: RadialGrid) -> list[RadialField]:
    """Read a series written by write_field_series back as K fields on grid.

    One ``np.load``; each field is a read-only view of its row, bound via
    bind_field, so the radii row is checked against the grid.  A file whose
    array is not a (K+1, M+1) little-endian float64 raises SchemaError;
    numpy's own ValueError/EOFError/OSError pass through for unreadable files.
    """
    data = np.load(path)
    if (data.dtype != _SERIES_DTYPE or data.ndim != 2 or data.shape[0] < 1
            or data.shape[1] != grid.nodes.size):
        raise SchemaError(
            f"field series holds a {data.dtype} array of shape {data.shape};"
            f" expected (K+1, {grid.nodes.size}) {_SERIES_DTYPE}"
        )
    return [bind_field(grid, data[0], row) for row in data[1:]]
