import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ylab.backgrounds import conformal_exponents, make_flat_background
from ylab.elliptic import compute_R
from ylab.errors import ConfigError, GridMismatchError, ParameterError, PositivityError
from ylab.grids import (
    LOG_STRETCHED,
    UNIFORM,
    RadialField,
    RadialGrid,
    bind_field,
    build_grid,
    constant_field,
    field_from_function,
    integrate_dV,
    lp_norm,
    sphere_volume,
    weighted_sup_norm,
    write_field_csv,
)
from ylab.operators import boundary_laplacian


def geom_grid(n=3, r0=1.0, r1=100.0, M=64):
    return RadialGrid(n=n, nodes=np.geomspace(r0, r1, M + 1), policy=LOG_STRETCHED)


class TestBuildGrid:
    def test_uniform_arithmetic_progression(self):
        g = build_grid(3, 0.0, 10.0, 20, UNIFORM)
        assert g.M == 20
        assert np.allclose(g.nodes, np.arange(21) * 0.5)

    def test_log_stretched_constant_ratio(self):
        g = build_grid(3, 0.0, 1024.0, 2048, LOG_STRETCHED)
        r = g.nodes
        last = r[-1] / r[-2]
        prev = r[-2] / r[-3]
        assert abs(last / prev - 1.0) < 1e-12

    def test_inverted_radii_rejected(self):
        with pytest.raises(ConfigError):
            build_grid(3, 0.5, 0.4, 100, UNIFORM)

    def test_small_dimension_rejected(self):
        with pytest.raises(ParameterError):
            build_grid(2, 0.0, 10.0, 64, UNIFORM)

    def test_spacing_continuity_across_one(self):
        g = build_grid(3, 0.0, 1000.0, 4096, LOG_STRETCHED)
        dr = np.diff(g.nodes)
        k = np.searchsorted(g.nodes, 1.0)
        assert 0.5 < dr[k] / dr[k - 1] < 2.0

    @given(
        r_in=st.floats(0.0, 0.9),
        logR=st.floats(1.0, 6.0),
        M=st.integers(16, 400),
        policy=st.sampled_from([UNIFORM, LOG_STRETCHED]),
    )
    @settings(max_examples=50, deadline=None)
    def test_invariants_hold_for_valid_params(self, r_in, logR, M, policy):
        g = build_grid(3, r_in, 10.0**logR, M, policy)
        assert g.M == M
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[0] == pytest.approx(r_in)
        assert g.nodes[-1] == pytest.approx(10.0**logR)


def laplacian(f):
    return boundary_laplacian(f.grid).apply(f.values)


class TestLaplacian:
    def test_quadratic_reproduced_exactly(self):
        g = build_grid(3, 0.0, 10.0, 64, UNIFORM)
        lap = laplacian(field_from_function(g, lambda r: r**2))
        assert np.max(np.abs(lap[1:-1] - 6.0)) < 1e-10

    def test_harmonic_one_over_r(self):
        g = geom_grid()
        lap = laplacian(field_from_function(g, lambda r: 1.0 / r))
        assert np.max(np.abs(lap[1:-1])) <= 10.0 * g.h**2

    def test_gaussian_oracle_at_r1(self):
        # symbolic oracle: lap e^{-r^2} = (4r^2 - 2n) e^{-r^2} -> -2/e at r=1, n=3
        g = build_grid(3, 0.0, 4.0, 400, UNIFORM)
        lap = laplacian(field_from_function(g, lambda r: np.exp(-(r**2))))
        i = int(np.argmin(np.abs(g.nodes - 1.0)))
        assert g.nodes[i] == pytest.approx(1.0)
        assert abs(lap[i] - (-2.0 / math.e)) <= 5.0 * g.h**2

    def test_second_order_under_refinement(self):
        errs = []
        for M in (64, 128, 256):
            g = build_grid(3, 0.0, 6.0, M, UNIFORM)
            lap = laplacian(field_from_function(g, lambda r: np.exp(-(r**2))))
            exact = (4.0 * g.nodes**2 - 6.0) * np.exp(-(g.nodes**2))
            errs.append(np.max(np.abs(lap[1:-1] - exact[1:-1])))
        order1 = math.log2(errs[0] / errs[1])
        order2 = math.log2(errs[1] / errs[2])
        assert 1.8 <= order1 <= 2.2
        assert 1.8 <= order2 <= 2.2

    @pytest.mark.parametrize("policy", [UNIFORM, LOG_STRETCHED])
    @pytest.mark.parametrize("r_in", [0.0, 0.5])
    def test_interior_matches_solver_operator_bitwise(self, r_in, policy):
        # the curvature map applies the solver's operator, boundary rows included
        g = build_grid(3, r_in, 100.0, 256, policy)
        u = field_from_function(g, lambda r: np.exp(-r) + 1.0 / (1.0 + r**2))
        bg = make_flat_background(g)
        a, N = conformal_exponents(3)
        for flux in (0.0, -0.3):
            lap = boundary_laplacian(g, flux).apply(u.values)
            expected = u.values ** (-N) * (-a * lap + bg.r0_profile.values * u.values)
            assert np.array_equal(compute_R(u, bg, boundary_laplacian(g, flux)).values, expected)

    @pytest.mark.parametrize("policy", [UNIFORM, LOG_STRETCHED])
    @pytest.mark.parametrize("r_in", [0.0, 0.5])
    def test_constant_annihilated_exactly(self, r_in, policy):
        g = build_grid(3, r_in, 100.0, 256, policy)
        assert np.all(laplacian(constant_field(g, 1.0)) == 0.0)

    def test_flat_background_on_fine_grid(self):
        # flat3 builds at fine spacing, where a curvature check against R0 = 0
        # once failed on inexact cancellation of constants
        make_flat_background(build_grid(3, 0.0, 512.0, 131072))

    def test_origin_regularity_limit(self):
        # lap f(0) = n f''(0): for f = exp(-r^2), that is -2n
        g = build_grid(4, 0.0, 6.0, 600, UNIFORM)
        lap = laplacian(field_from_function(g, lambda r: np.exp(-(r**2))))
        assert abs(lap[0] - (-8.0)) <= 10.0 * g.h**2


class TestIntegration:
    def test_ball_volume(self):
        g = build_grid(3, 0.0, 10.0, 2000, UNIFORM)
        one = constant_field(g, 1.0)
        vol = integrate_dV(one, one)
        assert vol == pytest.approx(4.0 * math.pi / 3.0 * 1000.0, rel=1e-5)

    def test_decaying_profile_closed_form(self):
        # int_0^inf r^2 (1+r^2)^{-3} dr = pi/16, so the integral is pi^2/4
        g = build_grid(3, 0.0, 2000.0, 4096, LOG_STRETCHED)
        f = field_from_function(g, lambda r: (1.0 + r**2) ** -3)
        val = integrate_dV(f, constant_field(g, 1.0))
        assert val == pytest.approx(math.pi**2 / 4.0, rel=1e-3)

    def test_constant_conformal_scaling(self):
        g = build_grid(3, 0.0, 10.0, 2000, UNIFORM)
        one = constant_field(g, 1.0)
        two = constant_field(g, 2.0)
        assert integrate_dV(one, two) == pytest.approx(64.0 * integrate_dV(one, one), rel=1e-13)

    def test_mismatched_grids_rejected(self):
        g1 = build_grid(3, 0.0, 10.0, 64, UNIFORM)
        g2 = build_grid(3, 0.0, 10.0, 128, UNIFORM)
        with pytest.raises(GridMismatchError):
            integrate_dV(constant_field(g1, 1.0), constant_field(g2, 1.0))

    def test_nonpositive_volume_factor_rejected(self):
        g = build_grid(3, 0.0, 10.0, 64, UNIFORM)
        u = field_from_function(g, lambda r: 1.0 - 0.2 * r)
        with pytest.raises(PositivityError):
            integrate_dV(constant_field(g, 1.0), u)

    def test_quadrature_second_order(self):
        # stretched grid: local trapezoid errors do not telescope, so the
        # generic O(h^2) signature is visible
        exact = math.pi ** 1.5  # int e^{-r^2} 4 pi r^2 dr over [0, inf)
        errs = []
        for M in (128, 256):
            g = build_grid(3, 0.0, 8.0, M, LOG_STRETCHED)
            f = field_from_function(g, lambda r: np.exp(-(r**2)))
            errs.append(abs(integrate_dV(f, constant_field(g, 1.0)) - exact))
        assert 3.6 <= errs[0] / errs[1] <= 4.4


class TestLpNorm:
    def test_zero_field(self):
        g = build_grid(3, 0.0, 10.0, 64, UNIFORM)
        assert lp_norm(constant_field(g, 0.0), 2.0, constant_field(g, 1.0)) == 0.0

    def test_closed_form_three_halves(self):
        g = build_grid(3, 0.0, 2000.0, 4096, LOG_STRETCHED)
        f = field_from_function(g, lambda r: (1.0 + r**2) ** -2)
        val = lp_norm(f, 1.5, constant_field(g, 1.0))
        assert val == pytest.approx((math.pi**2 / 4.0) ** (2.0 / 3.0), rel=1e-3)

    def test_p_below_one_rejected(self):
        g = build_grid(3, 0.0, 10.0, 64, UNIFORM)
        with pytest.raises(ParameterError):
            lp_norm(constant_field(g, 1.0), 0.5, constant_field(g, 1.0))

    def test_homogeneity_minus_two_exact(self):
        g = build_grid(3, 0.0, 10.0, 64, UNIFORM)
        u = constant_field(g, 1.0)
        f = field_from_function(g, lambda r: np.exp(-(r**2)) * (1.0 + r))
        assert lp_norm(f.with_values(-2.0 * f.values), 1.5, u) == pytest.approx(
            2.0 * lp_norm(f, 1.5, u), rel=1e-14
        )

    @given(
        c=st.floats(-100.0, 100.0).filter(lambda c: abs(c) > 1e-6),
        p=st.floats(1.0, 4.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_homogeneity(self, c, p):
        g = build_grid(3, 0.0, 10.0, 64, UNIFORM)
        u = constant_field(g, 1.0)
        f = field_from_function(g, lambda r: np.exp(-(r**2)) * (1.0 + r))
        base = lp_norm(f, p, u)
        scaled = lp_norm(f.with_values(c * f.values), p, u)
        assert scaled == pytest.approx(abs(c) * base, rel=1e-14, abs=1e-300)


class TestWeightedSup:
    def test_unweighted_sup_of_one(self):
        g = build_grid(3, 0.0, 10.0, 64, UNIFORM)
        assert weighted_sup_norm(constant_field(g, 1.0), 0.0) == 1.0

    def test_weight_cancels_profile(self):
        g = geom_grid(r0=1.0, r1=100.0, M=64)
        f = field_from_function(g, lambda r: r**-2.0)
        assert weighted_sup_norm(f, -2.0) == pytest.approx(1.0, rel=1e-13)

    def test_monotone_product_maximized_at_rmax(self):
        g = geom_grid(r0=1.0, r1=100.0, M=64)
        f = field_from_function(g, lambda r: 1.0 / r)
        assert weighted_sup_norm(f, -2.0) == pytest.approx(100.0, rel=1e-13)

    @given(b1=st.floats(-3.0, 3.0), b2=st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_ordering_in_beta(self, b1, b2):
        # on grids with r >= 1 the norm is nonincreasing in beta
        g = geom_grid(r0=1.0, r1=50.0, M=32)
        f = field_from_function(g, lambda r: np.cos(r) / (1.0 + r))
        lo, hi = min(b1, b2), max(b1, b2)
        assert weighted_sup_norm(f, hi) <= weighted_sup_norm(f, lo) * (1.0 + 1e-12)


class TestSphereVolume:
    def test_omega_two_is_4pi(self):
        assert sphere_volume(3) == pytest.approx(4.0 * math.pi, rel=1e-15)

    def test_omega_three_is_2pi_squared(self):
        assert sphere_volume(4) == pytest.approx(2.0 * math.pi**2, rel=1e-15)


def _per_row_csv(f, header):
    """Field CSV text as built one f-string per row (the reference for the writer)."""
    return header + "\n" + "".join(f"{r:.17g},{v:.17g}\n" for r, v in zip(f.grid.nodes, f.values))


@st.composite
def _fields_on_arbitrary_radii(draw):
    radii = draw(st.lists(st.floats(min_value=0.0, allow_infinity=False), min_size=17, max_size=40,
                          unique=True))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=len(radii), max_size=len(radii)))
    return RadialField(RadialGrid(3, np.sort(radii), UNIFORM), np.array(values))


# 17 nodes r = k/4 carrying 1, 0.1, -0.0, 1/3, the smallest subnormal, -1e300, then 0.5
_GOLDEN_FIELD = RadialField(
    RadialGrid(3, np.arange(17) * 0.25, UNIFORM),
    np.array([1.0, 0.1, -0.0, 1.0 / 3.0, 5e-324, -1e300] + [0.5] * 11),
)
_GOLDEN_ROWS = (
    "0,1\n0.25,0.10000000000000001\n0.5,-0\n0.75,0.33333333333333331\n"
    "1,4.9406564584124654e-324\n1.25,-1.0000000000000001e+300\n"
    "1.5,0.5\n1.75,0.5\n2,0.5\n2.25,0.5\n2.5,0.5\n2.75,0.5\n"
    "3,0.5\n3.25,0.5\n3.5,0.5\n3.75,0.5\n4,0.5\n"
)


class TestFieldCsv:
    def test_round_trip(self, tmp_path):
        g = build_grid(3, 0.0, 50.0, 64, LOG_STRETCHED)
        f = field_from_function(g, lambda r: np.sin(r) / (1.0 + r**3))
        path = tmp_path / "field.csv"
        write_field_csv(f, path)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        back = bind_field(g, data[:, 0], data[:, 1])
        assert np.array_equal(back.values, f.values)

    def test_header_format(self, tmp_path):
        g = build_grid(3, 0.0, 50.0, 64, UNIFORM)
        path = tmp_path / "field.csv"
        write_field_csv(constant_field(g, 1.0), path)
        assert path.read_text().splitlines()[0] == "r,value"

    @pytest.mark.parametrize("header", ["r,value", "r,u"])
    def test_golden_text(self, tmp_path, header):
        path = tmp_path / "field.csv"
        write_field_csv(_GOLDEN_FIELD, path, header=header)
        assert path.read_bytes() == f"{header}\n{_GOLDEN_ROWS}".encode()

    @settings(max_examples=200, deadline=None)
    @given(f=_fields_on_arbitrary_radii(), header=st.sampled_from(["r,value", "r,u"]))
    @example(f=_GOLDEN_FIELD, header="r,u")
    def test_matches_per_row_text_and_reads_back_bitwise(self, tmp_path_factory, f, header):
        path = tmp_path_factory.mktemp("csv") / "field.csv"
        write_field_csv(f, path, header=header)
        assert path.read_bytes() == _per_row_csv(f, header).encode()
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert data[:, 0].tobytes() == f.grid.nodes.tobytes()
        assert data[:, 1].tobytes() == f.values.tobytes()


class TestFieldInvariants:
    def test_non_finite_rejected(self):
        g = build_grid(3, 0.0, 10.0, 64, UNIFORM)
        bad = np.ones(g.nodes.shape)
        bad[3] = np.nan
        with pytest.raises(ParameterError):
            RadialField(g, bad)

    def test_length_mismatch_rejected(self):
        g = build_grid(3, 0.0, 10.0, 64, UNIFORM)
        with pytest.raises(GridMismatchError):
            RadialField(g, np.ones(g.nodes.size - 1))
