import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ylab.backgrounds import conformal_exponents, make_flat_background
from ylab.elliptic import compute_R
from ylab.errors import ConfigError, GridMismatchError, MassUndefinedError, ParameterError
from ylab.flow import Evaluation, MonitorWeights, far_field_window, monitor
from ylab.grids import (
    _CSV_BLOCK_ROWS,
    LOG_STRETCHED,
    UNIFORM,
    RadialField,
    RadialGrid,
    build_grid,
    constant_field,
    field_from_function,
    sphere_volume,
    truncation_tail_bound,
    weighted_sup_norm,
    write_field_csv,
)
from ylab.operators import boundary_laplacian, conformal_laplacian


def geom_grid(n=3, r0=1.0, r1=100.0, M=64):
    return RadialGrid(n=n, nodes=np.geomspace(r0, r1, M + 1))


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


class TestRepresentableGrids:
    """Every grid float64 can carry has finite weights; the build rejects the others."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([3, 4, 5]), M=st.integers(16, 4096),
           log_R=st.floats(0.1, 300.0), policy=st.sampled_from([UNIFORM, LOG_STRETCHED]))
    @example(n=3, M=4096, log_R=102.5, policy=LOG_STRETCHED)  # the last n = 3 wall kept
    @example(n=3, M=4096, log_R=110.0, policy=LOG_STRETCHED)  # stencil weights overflow too
    @example(n=5, M=4096, log_R=55.0, policy=LOG_STRETCHED)  # the fit basis underflows
    @example(n=3, M=16, log_R=300.0, policy=LOG_STRETCHED)
    def test_weights_are_finite_or_the_build_fails(self, n, M, log_R, policy):
        try:
            g = build_grid(n, 0.0, 10.0**log_R, M, policy)
        except ConfigError as exc:
            assert f"R_max = {10.0**log_R:g} and M = {M} is not representable" in str(exc)
            return
        lap = boundary_laplacian(g)
        for weights in (g.dV, g.face_weights, lap.lower, lap.diag, lap.upper, lap.affine):
            assert np.all(np.isfinite(weights))
        try:
            _, basis, norm = far_field_window(g)
        except MassUndefinedError:
            return
        assert norm >= np.finfo(np.float64).tiny
        assert norm == float(np.einsum("i,i", basis, basis))


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
            # u^{-N} (-a lap u + R0 u), with u^{-N} formed as u^{1-N} / u
            expected = (u.values ** (1.0 - N) / u.values) * (
                bg.r0_profile.values * u.values - a * lap
            )
            assert np.array_equal(compute_R(u, bg, conformal_laplacian(bg, flux)).values, expected)

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


def trapezoid_weights(grid):
    """Node weights of the composite trapezoid rule against dr, written out here."""
    half = 0.5 * grid.dr
    weights = np.zeros(grid.nodes.shape)
    weights[:-1] += half
    weights[1:] += half
    return weights


class TestIntegration:
    def test_ball_volume(self):
        g = build_grid(3, 0.0, 10.0, 2000, UNIFORM)
        vol = g.dV @ np.ones(g.nodes.shape)
        assert vol == pytest.approx(4.0 * math.pi / 3.0 * 1000.0, rel=1e-5)

    def test_decaying_profile_closed_form(self):
        # int_0^inf r^2 (1+r^2)^{-3} dr = pi/16, so the integral is pi^2/4
        g = build_grid(3, 0.0, 2000.0, 4096, LOG_STRETCHED)
        val = g.dV @ (1.0 + g.nodes**2) ** -3
        assert val == pytest.approx(math.pi**2 / 4.0, rel=1e-3)

    def test_constant_conformal_scaling(self):
        # the one conformal density left is the monitor's u^{N+1} = u^2 / w:
        # a constant u = 2 has R = u^{1-N} R0 = R0 / 16 and dV_t = 64 dV at
        # n = 3, so its l1_R is four times that of u = 1
        g = build_grid(3, 0.0, 10.0, 2000, UNIFORM)
        R0 = np.exp(-(g.nodes**2))
        _, N = conformal_exponents(3)
        weights = MonitorWeights.of(g)
        l1 = [monitor(0.0, Evaluation(u, R0 * u, u ** (1.0 - N)), weights).l1_R
              for u in (np.ones(g.nodes.shape), np.full(g.nodes.shape, 2.0))]
        assert l1[0] == pytest.approx(math.pi**1.5, rel=1e-5)
        assert l1[1] == pytest.approx(4.0 * l1[0], rel=1e-13)

    @pytest.mark.parametrize("policy", [UNIFORM, LOG_STRETCHED])
    def test_trapezoid_weights_are_the_same_rule(self, policy):
        # grid.dV is omega r^{n-1} times the composite trapezoid node weights,
        # bit for bit, and those weights integrate as the trapezoid rule does
        g = build_grid(3, 0.0, 100.0, 256, policy)
        weights = trapezoid_weights(g)
        assert g.dV.tobytes() == (sphere_volume(3) * g.nodes**2 * weights).tobytes()
        y = np.exp(-g.nodes) * (1.0 + np.sin(g.nodes))
        assert weights @ y == pytest.approx(
            float(np.sum(0.5 * (y[:-1] + y[1:]) * g.dr)), rel=1e-14, abs=0.0)
        assert weights.sum() == pytest.approx(100.0, rel=1e-14)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_volume_and_face_weights_are_built_once(self, n):
        g = build_grid(n, 0.0, 100.0, 256, LOG_STRETCHED)
        r = g.nodes
        omega = sphere_volume(n)
        assert g.dV.tobytes() == (omega * r ** (n - 1) * trapezoid_weights(g)).tobytes()
        r_mid = 0.5 * (r[:-1] + r[1:])
        assert np.array_equal(g.face_weights, omega * r_mid ** (n - 1) / g.dr)
        for weights in (g.dV, g.face_weights):
            assert not weights.flags.writeable
        assert g.dV is g.dV and g.face_weights is g.face_weights
        # the energy of v as face_weights times squared differences is the
        # midpoint rule of int |v'|^2 dV0 with slopes diff(v) / dr
        v = np.exp(-(r**2))
        slope = np.diff(v) / g.dr
        assert g.face_weights @ np.diff(v) ** 2 == pytest.approx(
            omega * np.sum(slope**2 * r_mid ** (n - 1) * g.dr), rel=1e-13)

    def test_quadrature_second_order(self):
        # stretched grid: local trapezoid errors do not telescope, so the
        # generic O(h^2) signature is visible
        exact = math.pi ** 1.5  # int e^{-r^2} 4 pi r^2 dr over [0, inf)
        errs = []
        for M in (128, 256):
            g = build_grid(3, 0.0, 8.0, M, LOG_STRETCHED)
            errs.append(abs(g.dV @ np.exp(-(g.nodes**2)) - exact))
        assert 3.6 <= errs[0] / errs[1] <= 4.4


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


class TestTruncationTailBound:
    @pytest.mark.parametrize("n, C, q, R_max, closed_form", [
        (3, 2.0, 5.0, 100.0, 4.0 * math.pi / 1e4),   # 2 * 4 pi * 100^-2 / 2
        (4, 1.0, 6.0, 10.0, math.pi**2 / 100.0),     # 2 pi^2 * 10^-2 / 2
    ])
    def test_integrable_tail_closed_form(self, n, C, q, R_max, closed_form):
        # C omega R_max^{n-q} / (q-n): the integral of C r^{-q} omega r^{n-1} past R_max
        g = build_grid(n, 0.0, R_max, 64, UNIFORM)
        assert truncation_tail_bound(C, q, g) == pytest.approx(closed_form, rel=1e-14)

    @pytest.mark.parametrize("q", [2.5, 3.0])
    def test_non_integrable_tail_is_inf(self, q):
        g = build_grid(3, 0.0, 100.0, 64, UNIFORM)
        assert truncation_tail_bound(1e-3, q, g) == math.inf

    @pytest.mark.parametrize("q", [2.5, 3.0, 5.0])
    def test_zero_constant_has_no_tail(self, q):
        g = build_grid(3, 0.0, 100.0, 64, UNIFORM)
        assert truncation_tail_bound(0.0, q, g) == 0.0


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
    # radii up to 1e100: past about 1e102 a grid's volume weights overflow,
    # and RadialGrid rejects it
    radii = draw(st.lists(st.floats(min_value=0.0, max_value=1e100), min_size=17, max_size=40,
                          unique=True))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=len(radii), max_size=len(radii)))
    return RadialField(RadialGrid(3, np.sort(radii)), np.array(values))


# 17 nodes r = k/4 carrying 1, 0.1, -0.0, 1/3, the smallest subnormal, -1e300, then 0.5
_GOLDEN_FIELD = RadialField(
    RadialGrid(3, np.arange(17) * 0.25),
    np.array([1.0, 0.1, -0.0, 1.0 / 3.0, 5e-324, -1e300] + [0.5] * 11),
)
_GOLDEN_ROWS = (
    "0,1\n0.25,0.10000000000000001\n0.5,-0\n0.75,0.33333333333333331\n"
    "1,4.9406564584124654e-324\n1.25,-1.0000000000000001e+300\n"
    "1.5,0.5\n1.75,0.5\n2,0.5\n2.25,0.5\n2.5,0.5\n2.75,0.5\n"
    "3,0.5\n3.25,0.5\n3.5,0.5\n3.75,0.5\n4,0.5\n"
)


# two full writer blocks and one partial block of rows
_LONG_FIELD = field_from_function(
    build_grid(3, 0.0, 50.0, 2 * _CSV_BLOCK_ROWS + 2, LOG_STRETCHED),
    lambda r: np.sin(r) / (1.0 + r**3),
)


class TestFieldCsv:
    def test_round_trip(self, tmp_path):
        g = build_grid(3, 0.0, 50.0, 64, LOG_STRETCHED)
        f = field_from_function(g, lambda r: np.sin(r) / (1.0 + r**3))
        path = tmp_path / "field.csv"
        write_field_csv(f, path)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(data[:, 0], g.nodes)
        assert np.array_equal(data[:, 1], f.values)

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
    @example(f=_LONG_FIELD, header="r,value")
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

    def test_grid_mismatch_is_a_parameter_error(self):
        # the CLI maps ParameterError to exit code 2
        g = build_grid(3, 0.0, 10.0, 64, UNIFORM)
        with pytest.raises(ParameterError):
            RadialField(g, np.ones(g.nodes.size + 1))

    def test_length_mismatch_rejected(self):
        g = build_grid(3, 0.0, 10.0, 64, UNIFORM)
        with pytest.raises(GridMismatchError):
            RadialField(g, np.ones(g.nodes.size - 1))
