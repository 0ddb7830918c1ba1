import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ylab.backgrounds import (
    make_flat_background,
    make_profile_background,
    make_synthetic_background,
)
from ylab.elliptic import (
    NON_POSITIVE,
    POSITIVE,
    compute_R,
    prescribe_scalar_curvature,
    solve_scalar_flat,
    verify_certificate,
    yamabe_quotient,
    yamabe_sign,
)
from ylab.errors import (
    HypothesisViolationError,
    NonPositiveYamabeError,
    ParameterError,
    PositivityError,
    SupportError,
)
from ylab.grids import (
    LOG_STRETCHED,
    UNIFORM,
    RadialField,
    boundary_mask,
    build_grid,
    constant_field,
    field_from_function,
)


@pytest.fixture(scope="module")
def grid():
    return build_grid(3, 0.0, 500.0, 2048, LOG_STRETCHED)


@pytest.fixture(scope="module")
def flat(grid):
    return make_flat_background(grid)


def _lifted_pair(g, amplitude, width):
    """Background with R0 lifted above the curvature of phi* = 1 + A e^{-(r/w)^2}.

    With phi* >= 1 the admissibility condition compute_R(phi*) <= R0 reads
    r_flat <= R0 (1 - phi*^{1-N}); lifting R0 by the positive part of r_flat
    over that factor (plus a float margin) makes the pair admissible.
    """
    r = g.nodes
    phi_star = RadialField(g, 1.0 + amplitude * np.exp(-((r / width) ** 2)))
    r_flat = compute_R(phi_star, make_flat_background(g)).values
    denom = 1.0 - phi_star.values ** -4.0
    # far-field nodes where phi*-1 underflows leave denom = 0; stencil noise
    # there is absorbed by the hypothesis-check slack, not by lifting
    ok = (r_flat > 0.0) & (denom > 1e-12)
    lift = np.where(ok, r_flat / np.where(ok, denom, 1.0), 0.0)
    bg = make_profile_background(RadialField(g, lift + 1e-8), 0.9, "lifted")
    return bg, phi_star


def manufactured_background(M):
    # R0 chosen so u* = 1 + exp(-r^2) solves a lap u = R0 u, with the
    # analytic Laplacian lap e^{-r^2} = (4r^2 - 6) e^{-r^2}
    g = build_grid(3, 0.0, 8.0, M, UNIFORM)
    r = g.nodes
    ustar = 1.0 + np.exp(-(r**2))
    R0 = 8.0 * (4.0 * r**2 - 6.0) * np.exp(-(r**2)) / ustar
    bg = make_profile_background(RadialField(g, R0), 0.9, "manufactured")
    return g, bg, ustar


class TestComputeR:
    def test_flat_is_scalar_flat(self, grid, flat):
        R = compute_R(constant_field(grid, 1.0), flat)
        assert np.max(np.abs(R.values)) < 1e-14

    def test_origin_closed_form(self, grid, flat):
        u = field_from_function(grid, lambda r: 1.0 + 0.1 * np.exp(-(r**2)))
        R = compute_R(u, flat)
        assert R.values[0] == pytest.approx(4.8 / 1.1**5, abs=20.0 * grid.h**2)

    def test_harmonic_factor_is_scalar_flat(self):
        g = build_grid(3, 0.5, 1000.0, 4096, LOG_STRETCHED)
        bg = make_flat_background(g)
        u = field_from_function(g, lambda r: 1.0 + 0.5 / r)
        R = compute_R(u, bg)
        interior = ~boundary_mask(g)
        assert np.max(np.abs(R.values[interior])) <= 10.0 * g.h**2

    def test_nonpositive_factor_rejected(self, grid, flat):
        u = field_from_function(grid, lambda r: 1.0 - 2.0 * np.exp(-(r**2)))
        with pytest.raises(PositivityError):
            compute_R(u, flat)


class TestScalarFlat:
    def test_flat_identity(self, flat):
        u, rep = solve_scalar_flat(flat)
        assert np.all(u.values == 1.0)
        assert rep.converged
        assert rep.final_residual <= 1e-10

    def test_manufactured_recovery(self):
        g, bg, ustar = manufactured_background(512)
        u, rep = solve_scalar_flat(bg)
        assert rep.converged
        assert np.max(np.abs(u.values - ustar)) <= 10.0 * g.h**2 * 8.0

    def test_manufactured_second_order(self):
        errs = []
        for M in (128, 256, 512):
            g, bg, ustar = manufactured_background(M)
            u, _ = solve_scalar_flat(bg)
            errs.append(np.max(np.abs(u.values - ustar)))
        for e0, e1 in zip(errs, errs[1:]):
            assert 1.8 <= math.log2(e0 / e1) <= 2.2

    def test_deep_well_raises(self, grid):
        bg = make_synthetic_background(grid, 1.0, -50.0, 2.0, 1.0)
        with pytest.raises(NonPositiveYamabeError) as err:
            solve_scalar_flat(bg)
        assert err.value.solution is not None
        assert np.min(err.value.solution.values) <= 0.0

    def test_report_invariant(self):
        g, bg, _ = manufactured_background(256)
        _, rep = solve_scalar_flat(bg)
        if rep.converged:
            assert rep.final_residual <= rep.tolerance
            assert rep.positivity > 0.0


class TestYamabeQuotient:
    def test_tent_closed_form(self):
        # int_0^1 |v'|^2 4 pi r^2 dr = 4pi/3 and int v^6 dV = pi/63
        g = build_grid(3, 0.0, 4.0, 2048, UNIFORM)
        bg = make_flat_background(g)
        v = field_from_function(g, lambda r: np.maximum(1.0 - r, 0.0))
        oracle = 8.0 * (4.0 * math.pi / 3.0) / (math.pi / 63.0) ** (1.0 / 3.0)
        assert yamabe_quotient(v, bg) == pytest.approx(oracle, rel=1e-2)

    @given(c=st.floats(0.1, 50.0))
    @settings(max_examples=20, deadline=None)
    def test_scale_invariance(self, c):
        g = build_grid(3, 0.0, 40.0, 256, UNIFORM)
        bg = make_flat_background(g)
        v = field_from_function(g, lambda r: np.maximum(1.0 - (r / 3.0) ** 2, 0.0))
        q1 = yamabe_quotient(v, bg)
        q2 = yamabe_quotient(v.with_values(c * v.values), bg)
        assert q2 == pytest.approx(q1, rel=1e-12)

    def test_gaussian_trial_negative_on_deep_well(self, grid):
        # a wide trial engulfing the well at r_c = 2 sees more potential than
        # gradient cost; narrow centered trials stay positive in 3d
        bg = make_synthetic_background(grid, 1.0, -50.0, 2.0, 1.0)
        r = grid.nodes
        vals = np.maximum(np.exp(-((r / 4.0) ** 2)) - np.exp(-64.0), 0.0)
        vals[r >= 32.0] = 0.0
        assert yamabe_quotient(RadialField(grid, vals), bg) < 0.0

    def test_positive_on_flat_trials(self, grid, flat):
        for width in (0.5, 1.0, 3.0):
            vals = np.maximum(np.exp(-((grid.nodes / width) ** 2)) - np.exp(-64.0), 0.0)
            vals[grid.nodes >= 8.0 * width] = 0.0
            assert yamabe_quotient(RadialField(grid, vals), flat) > 0.0

    @given(
        center=st.floats(0.0, 10.0),
        width=st.floats(0.3, 5.0),
        tilt=st.floats(-0.5, 0.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_positivity_on_flat_for_random_trials(self, center, width, tilt):
        # the flat class has positive Yamabe constant: every nonzero
        # compactly supported trial has Q > 0
        g = build_grid(3, 0.0, 200.0, 512, LOG_STRETCHED)
        bg = make_flat_background(g)
        r = g.nodes
        cut = center + 6.0 * width
        vals = (1.0 + tilt * np.sin(r)) * np.exp(-(((r - center) / width) ** 2))
        vals[r >= cut] = 0.0
        assert yamabe_quotient(RadialField(g, vals), bg) > 0.0

    def test_zero_trial_rejected(self, grid, flat):
        with pytest.raises(ParameterError):
            yamabe_quotient(constant_field(grid, 0.0), flat)

    def test_support_touching_rmax_rejected(self, grid, flat):
        with pytest.raises(SupportError):
            yamabe_quotient(constant_field(grid, 1.0), flat)


class TestYamabeSign:
    def test_flat_positive(self, flat):
        s = yamabe_sign(flat)
        assert s.sign == POSITIVE
        assert np.all(s.certificate.values == 1.0)
        assert s.report.final_residual <= 1e-10
        assert verify_certificate(s, flat)

    def test_deep_well_nonpositive_with_certificate(self, grid):
        bg = make_synthetic_background(grid, 1.0, -50.0, 2.0, 1.0)
        s = yamabe_sign(bg)
        assert s.sign == NON_POSITIVE
        assert not s.low_confidence
        assert s.quotient < 0.0
        assert verify_certificate(s, bg)

    def test_small_positive_amplitude(self, grid):
        bg = make_synthetic_background(grid, 1.0, 0.01, 0.0, 1.0)
        s = yamabe_sign(bg)
        assert s.sign == POSITIVE
        assert s.report.positivity > 0.0
        assert verify_certificate(s, bg)

    def test_certificate_soundness_across_catalog(self, grid):
        for A in (-50.0, -5.0, 0.0, 0.01, 1.0):
            bg = make_synthetic_background(grid, 1.0, A, 2.0, 1.0)
            s = yamabe_sign(bg)
            assert verify_certificate(s, bg), f"A={A} certificate failed"

    def test_gap_between_solve_failure_and_certificate(self, grid):
        # near the eigenvalue crossing the solve fails but no trial certifies:
        # reported NonPositive with the low-confidence flag, never asserted
        bg = make_synthetic_background(grid, 1.0, -35.0, 2.0, 1.0)
        with pytest.raises(NonPositiveYamabeError):
            solve_scalar_flat(bg)
        s = yamabe_sign(bg)
        assert s.sign == NON_POSITIVE
        assert s.low_confidence
        assert s.quotient is None or s.quotient > 0.0
        assert verify_certificate(s, bg)


class TestPrescribe:
    def test_target_equals_background_is_trivial(self, flat):
        phi, rep = prescribe_scalar_curvature(flat, flat.r0_profile)
        assert np.all(phi.values == 1.0)
        assert rep.iterations <= 1

    def test_negative_power_target(self):
        g = build_grid(3, 0.0, 500.0, 2048, LOG_STRETCHED)
        bg = make_flat_background(g)
        target = RadialField(g, -0.1 * (1.0 + g.nodes**2) ** -1.5)
        phi, rep = prescribe_scalar_curvature(bg, target)
        assert rep.converged
        interior = ~boundary_mask(g)
        R = compute_R(phi, bg)
        assert np.max(np.abs(R.values[interior] - target.values[interior])) <= 10.0 * g.h**2
        assert np.max(phi.values) <= 1.0 + 1e-12  # discrete maximum principle

    def test_hypothesis_violation(self, flat):
        g = flat.grid
        target = RadialField(g, 0.1 * np.exp(-(g.nodes**2)))
        with pytest.raises(HypothesisViolationError):
            prescribe_scalar_curvature(flat, target)

    def test_manufactured_recovery(self):
        # small amplitude keeps phi* inside the Newton-from-1 basin; the
        # supercritical equation has a second positive root above it
        g = build_grid(3, 0.0, 60.0, 1024, LOG_STRETCHED)
        bg, phi_star = _lifted_pair(g, amplitude=0.1, width=1.0)
        target = compute_R(phi_star, bg)
        phi, rep = prescribe_scalar_curvature(bg, target)
        assert rep.converged
        assert np.max(np.abs(phi.values - phi_star.values)) <= 10.0 * g.h**2

    def test_round_trip_property(self):
        g = build_grid(3, 0.0, 60.0, 512, LOG_STRETCHED)
        bg, phi_star = _lifted_pair(g, amplitude=0.1, width=2.0)
        target = compute_R(phi_star, bg)
        phi, _ = prescribe_scalar_curvature(bg, target)
        assert np.max(np.abs(phi.values - phi_star.values)) <= 10.0 * g.h**2

    def test_large_amplitude_still_attains_target(self):
        # outside the basin the solver lands on the other admissible root;
        # the residual oracle holds for any root it returns
        g = build_grid(3, 0.0, 60.0, 512, LOG_STRETCHED)
        bg, phi_star = _lifted_pair(g, amplitude=1.0, width=1.0)
        target = compute_R(phi_star, bg)
        phi, rep = prescribe_scalar_curvature(bg, target)
        assert rep.converged
        interior = ~boundary_mask(g)
        R = compute_R(phi, bg)
        assert np.max(np.abs(R.values[interior] - target.values[interior])) <= 10.0 * g.h**2
