"""Catalog of asymptotically flat backgrounds and initial data families.

A background is presented through the only two pieces of data the flow PDE
consumes: the flat radial Laplacian (module grids) and a scalar-curvature
coefficient profile R0(r) with decay |R0| <= C max(r,1)^{-2-tau}.

The flat background has R0 = 0.  A conformally flat start s^{4/(n-2)} delta
needs no background of its own: by conformal covariance its flow is the
flat-background flow from initial data s, which the initial-data families
pose.  Every other background prescribes R0 directly as a free coefficient
of the PDE; this is loudly a model problem, used to reach the nonpositive
Yamabe regime that rotationally symmetric conformally flat geometry cannot
realize.  All PDE-level claims depend only on the pair (Laplacian, R0), and
elliptic.curvature is the one formula for the scalar curvature of a factor:
compute_R and the flow's monitor both form R with it from P u, P the
conformal Laplacian of module operators.

The dimension is the grid's, and each initial-data family returns its
positive factor u0 -> 1 as a RadialField.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, FitDomainError, ParameterError
from .grids import RadialField, RadialGrid, _dot, constant_field


def conformal_exponents(n: int) -> tuple[float, float]:
    """Return (a(n), N) = (4(n-1)/(n-2), (n+2)/(n-2))."""
    return 4.0 * (n - 1.0) / (n - 2.0), (n + 2.0) / (n - 2.0)


class BackgroundSpec:
    """An AF background on the grid of its profile R0(r), with decay order tau."""

    def __init__(self, tau: float, r0_profile: RadialField, name: str, decay_constant: float):
        if tau <= 0.0:
            raise ConfigError(f"decay order tau must be positive, got {tau}")
        check_decay(r0_profile, 2.0 + tau, decay_constant)
        self.tau = tau
        self.r0_profile = r0_profile
        self.grid = r0_profile.grid
        self.name = name
        self.decay_constant = decay_constant


def _square(value: float, key: str) -> float:
    """value**2 of a length; ParameterError naming its key where that overflows."""
    try:
        return value**2
    except OverflowError as exc:
        raise ParameterError(f"{key} = {value:g} is too large: its square overflows") from exc


def check_decay(profile: RadialField, order: float, C: float) -> None:
    bound = C * profile.grid.w ** (-order)
    excess = np.abs(profile.values) - bound
    if np.max(excess) > 1e-12 * (1.0 + C):
        i = int(np.argmax(excess))
        raise ConfigError(
            f"decay violation at r={profile.grid.nodes[i]:.3g}: "
            f"|R0|={abs(profile.values[i]):.3e} exceeds C*max(r,1)^-{order:g} with C={C:.3e}"
        )


def make_flat_background(grid: RadialGrid, tau: float | None = None) -> BackgroundSpec:
    """Flat space: R0 identically zero."""
    if tau is None:
        tau = grid.n - 2.0 - 0.01
    return BackgroundSpec(
        tau=tau, r0_profile=constant_field(grid, 0.0), name=f"flat{grid.n}", decay_constant=0.0,
    )


def make_synthetic_background(
    grid: RadialGrid,
    tau: float,
    amplitude: float,
    center: float,
    width: float,
) -> BackgroundSpec:
    """Prescribed coefficient R0(r) = A exp(-(r-r_c)^2/sigma^2) (1+r^2)^{-(2+tau)/2}.

    The envelope guarantees |R0| <= |A| max(r,1)^{-2-tau}, so the decay
    invariant holds with reported constant C = |A|.
    """
    if width <= 0.0:
        raise ParameterError(f"width must be positive, got {width}")
    r = grid.nodes
    bump = np.exp(-((r - center) ** 2) / _square(width, "sigma"))
    values = amplitude * bump * (1.0 + r**2) ** (-(2.0 + tau) / 2.0)
    return BackgroundSpec(
        tau=tau, r0_profile=RadialField(grid, values),
        name=f"synthetic:A={amplitude:g},rc={center:g},sigma={width:g},tau={tau:g}",
        decay_constant=abs(amplitude),
    )


def make_profile_background(
    profile: RadialField, tau: float, name: str = "profile"
) -> BackgroundSpec:
    """Background from an explicit R0 profile (manufactured solves)."""
    C = float(np.max(np.abs(profile.values) * profile.grid.w ** (2.0 + tau)))
    return BackgroundSpec(tau=tau, r0_profile=profile, name=name, decay_constant=C)


def flat_data(grid: RadialGrid) -> RadialField:
    return constant_field(grid, 1.0)


def schwarzschild_data(grid: RadialGrid, m: float) -> RadialField:
    """Harmonic factor u0 = 1 + m / (2 r^{n-2}); scalar-flat for every m >= 0."""
    if m < 0.0:
        raise ParameterError(f"mass parameter must be nonnegative, got {m}")
    n = grid.n
    if m > 0.0:
        r_min_allowed = m ** (1.0 / (n - 2.0)) / 4.0
        if grid.r_in < r_min_allowed:
            raise ParameterError(
                f"singular node: grids for mass {m} must start at "
                f"r_in >= {r_min_allowed:.3g}, got {grid.r_in:.3g}"
            )
        u0 = 1.0 + m / (2.0 * grid.nodes ** (n - 2.0))
    else:
        u0 = np.ones(grid.nodes.shape)
    return RadialField(grid, u0)


def gaussian_bump_data(grid: RadialGrid, eps: float, sigma: float) -> RadialField:
    """u0 = 1 + eps exp(-r^2/sigma^2); requires eps > -1 for positivity."""
    if sigma <= 0.0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    if eps <= -1.0:
        raise ParameterError(f"eps must be > -1 for a positive factor, got {eps}")
    u0 = 1.0 + eps * np.exp(-(grid.nodes**2) / _square(sigma, "sigma"))
    return RadialField(grid, u0)


def newtonian_data(grid: RadialGrid, source: RadialField) -> RadialField:
    """u0 = 1 + Newtonian potential of a nonnegative compactly supported source.

    Solves -lap phi = f radially (n = 3 only) through the Green's form

        phi(r) = (1/r) int_0^r s^2 f(s) ds + int_r^inf s f(s) ds,

    so the resulting data has scalar curvature 8 f u0^{-5} >= 0 with far-field
    coefficient A = (1/4pi) int f dx.
    """
    if grid.n != 3:
        raise ParameterError("newtonian data is implemented for n = 3 only")
    f = source.values
    if np.min(f) < 0.0:
        raise ParameterError("source must be nonnegative")
    r = grid.nodes
    support = r[np.abs(f) > 0.0]
    if support.size and support.max() > grid.R_max / 8.0:
        raise ParameterError(
            f"source must be supported within r <= R_max/8 = {grid.R_max / 8:.3g}"
        )

    def cumtrapz(y):
        inc = 0.5 * (y[:-1] + y[1:]) * grid.dr
        return np.concatenate([[0.0], np.cumsum(inc)])

    I1 = cumtrapz(r**2 * f)           # int_0^r s^2 f ds
    J = cumtrapz(r * f)               # int_0^r s f ds
    I2 = J[-1] - J                    # int_r^inf s f ds (f vanishes past the grid)
    phi = np.empty_like(r)
    inner = r > 0.0
    phi[inner] = I1[inner] / r[inner] + I2[inner]
    if not inner.all():
        phi[~inner] = I2[~inner]
    return RadialField(grid, 1.0 + phi)


def bump_source(grid: RadialGrid, total: float, radius: float) -> RadialField:
    """Smooth compactly supported source with int f dx = total (n = 3).

    Uses the C^inf bump exp(-s^2/(radius^2 - s^2)) on [0, radius), scaled so
    that its dot product with grid.dV is total.
    """
    if radius <= 0.0:
        raise ParameterError(f"radius must be positive, got {radius}")
    r = grid.nodes
    shape = np.zeros_like(r)
    inside = r < radius
    s = r[inside]
    shape[inside] = np.exp(-(s**2) / (_square(radius, "radius") - s**2))
    mass = _dot(grid.dV, shape)
    if mass <= 0.0:
        raise ParameterError("source bump has no mass on this grid")
    return RadialField(grid, shape * (total / mass))


def decay_order_estimate(f: RadialField) -> float:
    """Power-law decay order of |f| fitted over the outermost decade.

    Least-squares slope of log|f| against log r for nodes with
    r >= R_max/10, negated, so r^{-2} reports 2.0.
    """
    g = f.grid
    tail = g.nodes >= g.R_max / 10.0
    vals = np.abs(f.values[tail])
    radii = g.nodes[tail]
    nz = vals > 0.0
    if np.count_nonzero(nz) < 4:
        raise FitDomainError("tail is (numerically) zero; decay order undefined")
    slope = np.polyfit(np.log(radii[nz]), np.log(vals[nz]), 1)[0]
    return float(-slope)


def background_from_name(name: str, grid: RadialGrid) -> BackgroundSpec:
    """Resolve catalog names: 'flat', 'flat3', or 'synthetic:A=..,rc=..,sigma=..,tau=..'."""
    if name.startswith("flat"):
        suffix = name[4:]
        if suffix:
            try:
                dim = int(suffix)
            except ValueError as exc:
                raise ConfigError(f"unknown background {name!r}") from exc
            if dim != grid.n:
                raise ConfigError(f"background {name!r} conflicts with grid dimension {grid.n}")
        return make_flat_background(grid)
    if name.startswith("synthetic:"):
        params = {}
        for item in name.split(":", 1)[1].split(","):
            key, _, value = item.partition("=")
            if not value:
                raise ConfigError(f"malformed background parameter {item!r}")
            try:
                params[key.strip()] = float(value)
            except ValueError as exc:
                raise ConfigError(f"malformed background parameter {item!r}") from exc
        missing = {"tau", "A", "rc", "sigma"} - set(params)
        extra = set(params) - {"tau", "A", "rc", "sigma"}
        if missing:
            raise ConfigError(f"synthetic background missing parameters {sorted(missing)}")
        if extra:
            raise ConfigError(f"unknown synthetic background parameters {sorted(extra)}")
        return make_synthetic_background(
            grid, tau=params["tau"], amplitude=params["A"], center=params["rc"],
            width=params["sigma"],
        )
    raise ConfigError(f"unknown background {name!r}")
