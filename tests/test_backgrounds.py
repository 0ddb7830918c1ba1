import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ylab.backgrounds import (
    background_from_name,
    bump_source,
    check_decay,
    conformal_exponents,
    decay_order_estimate,
    gaussian_bump_data,
    make_flat_background,
    make_profile_background,
    make_synthetic_background,
    newtonian_data,
    schwarzschild_data,
)
from ylab.errors import ConfigError, ParameterError, UndefinedFitError
from ylab.grids import (
    LOG_STRETCHED,
    RadialField,
    build_grid,
    constant_field,
    field_from_function,
    integrate_dV,
)


@pytest.fixture(scope="module")
def grid():
    return build_grid(3, 0.0, 500.0, 2048, LOG_STRETCHED)


class TestConformalExponents:
    def test_n3(self):
        a, N = conformal_exponents(3)
        assert a == 8.0
        assert N == 5.0

    def test_n4(self):
        a, N = conformal_exponents(4)
        assert a == 6.0
        assert N == 3.0


class TestFlatBackground:
    def test_profile_is_zero(self, grid):
        bg = make_flat_background(grid)
        assert np.all(bg.r0_profile.values == 0.0)
        assert bg.name == "flat3"

    def test_n4_profile_is_zero(self):
        g = build_grid(4, 0.0, 100.0, 256, LOG_STRETCHED)
        bg = make_flat_background(g)
        assert np.all(bg.r0_profile.values == 0.0)


class TestSyntheticBackground:
    def test_zero_amplitude_is_flat(self, grid):
        bg = make_synthetic_background(grid, 1.0, 0.0, 2.0, 1.0)
        assert np.all(bg.r0_profile.values == 0.0)

    def test_decay_constant_is_amplitude(self, grid):
        bg = make_synthetic_background(grid, 1.0, -50.0, 2.0, 1.0)
        assert bg.decay_constant == 50.0
        check_decay(bg.r0_profile, 2.0 + bg.tau, bg.decay_constant)

    def test_explicit_profile_decay_violation(self, grid):
        profile = constant_field(grid, 1.0)  # no decay at all
        spec_kwargs = dict(tau=1.0, profile=profile)
        bg = make_profile_background(**spec_kwargs)  # auto constant adapts
        with pytest.raises(ConfigError):
            check_decay(bg.r0_profile, 2.0 + bg.tau, 1.0)  # claimed C=1 fails

    @given(
        A=st.floats(-60.0, 60.0),
        rc=st.floats(0.0, 8.0),
        sigma=st.floats(0.3, 4.0),
        tau=st.floats(0.3, 1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_catalog_passes_own_decay_invariant(self, grid, A, rc, sigma, tau):
        bg = make_synthetic_background(grid, tau, A, rc, sigma)
        check_decay(bg.r0_profile, 2.0 + bg.tau, bg.decay_constant)


class TestSchwarzschildData:
    def test_zero_mass_is_one(self, grid):
        u0 = schwarzschild_data(grid, 0.0)
        assert np.all(u0.values == 1.0)

    def test_point_value(self):
        g = build_grid(3, 0.5, 1000.0, 4096, LOG_STRETCHED)
        u0 = schwarzschild_data(g, 1.0)
        i = int(np.argmin(np.abs(g.nodes - 2.0)))
        assert u0.values[i] == pytest.approx(1.0 + 1.0 / (2.0 * g.nodes[i]), rel=1e-14)

    def test_singular_grid_rejected(self, grid):
        # r_in = 0 grid cannot host a positive-mass factor
        with pytest.raises(ParameterError):
            schwarzschild_data(grid, 1.0)


class TestNewtonianData:
    def test_zero_source_is_one(self, grid):
        u0 = newtonian_data(grid, constant_field(grid, 0.0))
        assert np.all(u0.values == 1.0)

    def test_far_field_coefficient(self, grid):
        # Green's-function oracle: u0 ~ 1 + A/r with A = (1/4pi) int f dx
        f = bump_source(grid, total=4.0 * math.pi, radius=4.0)
        assert integrate_dV(f, constant_field(grid, 1.0)) == pytest.approx(
            4.0 * math.pi, rel=1e-12
        )
        u0 = newtonian_data(grid, f)
        outer = grid.nodes > 10.0
        coef = u0.values[outer] - 1.0
        assert np.max(np.abs(coef * grid.nodes[outer] - 1.0)) < 1e-3

    def test_negative_source_rejected(self, grid):
        f = field_from_function(grid, lambda r: -np.exp(-(r**2)))
        with pytest.raises(ParameterError):
            newtonian_data(grid, f)

    def test_wide_support_rejected(self, grid):
        f = field_from_function(grid, lambda r: np.exp(-((r / 100.0) ** 2)))
        with pytest.raises(ParameterError):
            newtonian_data(grid, f)

    def test_curvature_nonnegative(self, grid):
        from ylab.elliptic import compute_R

        f = bump_source(grid, total=4.0 * math.pi, radius=4.0)
        u0 = newtonian_data(grid, f)
        bg = make_flat_background(grid)
        R = compute_R(u0, bg)
        assert np.min(R.values[1:-1]) >= -1e-10


class TestGaussianBump:
    def test_positive(self, grid):
        u0 = gaussian_bump_data(grid, eps=0.2, sigma=1.0)
        assert u0.values[0] == pytest.approx(1.2)
        assert np.min(u0.values) > 0.0

    def test_too_deep_rejected(self, grid):
        with pytest.raises(ParameterError):
            gaussian_bump_data(grid, eps=-1.5, sigma=1.0)


class TestDecayOrderEstimate:
    def test_exact_power_law(self, grid):
        vals = np.ones(grid.nodes.shape)  # the r=0 node is outside the fit window
        pos = grid.nodes > 0.0
        vals[pos] = grid.nodes[pos] ** -2.0
        assert decay_order_estimate(RadialField(grid, vals)) == pytest.approx(2.0, abs=1e-10)

    def test_dominant_term(self, grid):
        vals = np.where(grid.nodes > 0, 3.0 / np.maximum(grid.nodes, 1e-10)
                        + np.maximum(grid.nodes, 1e-10) ** -3.0, 1.0)
        assert decay_order_estimate(RadialField(grid, vals)) == pytest.approx(1.0, rel=0.02)

    def test_zero_tail_rejected(self, grid):
        vals = np.where(grid.nodes < 5.0, 1.0, 0.0)
        with pytest.raises(UndefinedFitError):
            decay_order_estimate(RadialField(grid, vals))


class TestCatalogNames:
    def test_flat(self, grid):
        assert background_from_name("flat", grid).name == "flat3"
        assert background_from_name("flat3", grid).name == "flat3"

    def test_flat_wrong_dimension(self, grid):
        with pytest.raises(ConfigError):
            background_from_name("flat4", grid)

    def test_synthetic(self, grid):
        bg = background_from_name("synthetic:A=-50,rc=2,sigma=1,tau=1", grid)
        assert bg.name == "synthetic:A=-50,rc=2,sigma=1,tau=1"
        assert bg.tau == 1.0
        assert bg.decay_constant == 50.0

    def test_synthetic_missing_param(self, grid):
        with pytest.raises(ConfigError):
            background_from_name("synthetic:A=-50,rc=2,sigma=1", grid)

    def test_unknown(self, grid):
        with pytest.raises(ConfigError):
            background_from_name("torus", grid)
