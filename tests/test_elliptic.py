import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ylab import elliptic
from ylab.backgrounds import (
    background_from_name,
    conformal_exponents,
    make_flat_background,
    make_profile_background,
    make_synthetic_background,
)
from ylab.elliptic import (
    _TRIAL_CENTERS,
    _TRIAL_WIDTHS,
    NON_POSITIVE,
    POSITIVE,
    _truncated_gaussian,
    compute_R,
    prescribe_scalar_curvature,
    solve_scalar_flat,
    verify_certificate,
    yamabe_quotient,
    yamabe_sign,
)
from ylab.errors import (
    GridMismatchError,
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
    sphere_volume,
)
from ylab.operators import ROUNDOFF_TARGET, boundary_laplacian, solve_tridiagonal


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


def full_grid_quotient(vals, bg):
    """The Yamabe quotient by a composite trapezoid sum over every node of the grid.

    Midpoint slopes for the gradient term, trapezoid integrals of the
    densities for the other two: the same rule as yamabe_quotient, summed
    interval by interval here, independently of grid.dV, and without regard
    to the trial's support.
    """
    g = bg.grid
    n = g.n
    a, _ = conformal_exponents(n)
    omega = sphere_volume(n)
    r = g.nodes
    slope = np.diff(vals) / g.dr
    r_mid = 0.5 * (r[:-1] + r[1:])
    grad = float(np.sum(slope**2 * r_mid ** (n - 1) * g.dr)) * omega
    dens0 = omega * r ** (n - 1)

    def trapezoid(y):
        return float(np.sum(0.5 * (y[:-1] + y[1:]) * g.dr))

    pot = trapezoid(bg.r0_profile.values * vals**2 * dens0)
    denom = trapezoid(np.abs(vals) ** (2.0 * n / (n - 2.0)) * dens0) ** ((n - 2.0) / n)
    return (a * grad + pot) / denom


def full_grid_gaussian(g, center, width, cut):
    """A catalog trial evaluated on every node, then truncated at cut."""
    r = g.nodes
    v = np.exp(-(((r - center) / width) ** 2)) - np.exp(-(((cut - center) / width) ** 2))
    v[r >= cut] = 0.0
    return np.maximum(v, 0.0)


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

    def test_field_on_another_grid_rejected(self, flat):
        other = build_grid(3, 0.0, 500.0, 1024, LOG_STRETCHED)
        with pytest.raises(GridMismatchError):
            compute_R(constant_field(other, 1.0), flat)


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

    @pytest.mark.parametrize("A, calls, converged", [(-50.0, 1, False), (1000.0, 2, True)])
    def test_negative_first_factor_gets_no_residual(self, grid, monkeypatch, A, calls, converged):
        # A = -50's first factor has negative nodes, so only the factor solved
        # for u is judged; A = 1000's first factor is positive but fails the
        # round-off test, so both are
        residuals = []

        def counted(u, P):
            residuals.append(float(np.min(u)))
            return residual(u, P)

        residual = elliptic._scalar_flat_residual
        monkeypatch.setattr(elliptic, "_scalar_flat_residual", counted)
        bg = background_from_name(f"synthetic:A={A},rc=2,sigma=1,tau=1", grid)
        try:
            _, report = solve_scalar_flat(bg)
        except NonPositiveYamabeError as exc:
            report = exc.report
        assert len(residuals) == calls and report.converged is converged
        assert report.iterations == 2 and report.positivity == residuals[-1]
        assert (min(residuals) > 0.0) is converged

    def test_report_invariant(self):
        g, bg, _ = manufactured_background(256)
        _, rep = solve_scalar_flat(bg)
        assert rep.converged
        assert rep.scaled_residual <= ROUNDOFF_TARGET
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
        q2 = yamabe_quotient(RadialField(v.grid, c * v.values), bg)
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

    def test_support_ends_at_the_last_nonzero_node(self, grid):
        # positive up to r = 4 and negative on (4, 8): the negative tail is
        # part of the support, so the quotient is the full-grid one
        bg = make_synthetic_background(grid, 1.0, -50.0, 2.0, 1.0)
        r = grid.nodes
        vals = np.where(r < 8.0, 1.0 - r / 4.0, 0.0)
        assert np.any(vals < 0.0)
        positive_part = np.where(r < 4.0, vals, 0.0)
        q = yamabe_quotient(RadialField(grid, vals), bg)
        assert q == pytest.approx(full_grid_quotient(vals, bg), rel=1e-12)
        assert q != pytest.approx(full_grid_quotient(positive_part, bg), rel=1e-3)

    def test_support_up_to_the_last_interior_node(self, grid):
        bg = make_synthetic_background(grid, 1.0, -50.0, 2.0, 1.0)
        vals = grid.R_max - grid.nodes  # nonzero at every node but the last
        assert np.all(vals[:-1] != 0.0)
        q = yamabe_quotient(RadialField(grid, vals), bg)
        assert q == pytest.approx(full_grid_quotient(vals, bg), rel=1e-12)

    def test_zero_trial_rejected(self, grid, flat):
        with pytest.raises(ParameterError):
            yamabe_quotient(constant_field(grid, 0.0), flat)

    def test_support_touching_rmax_rejected(self, grid, flat):
        with pytest.raises(SupportError):
            yamabe_quotient(constant_field(grid, 1.0), flat)

    def test_trial_on_another_grid_rejected(self, flat):
        other = build_grid(3, 0.0, 500.0, 1024, LOG_STRETCHED)
        trial = RadialField(other, np.maximum(1.0 - other.nodes / 10.0, 0.0))
        with pytest.raises(GridMismatchError):
            yamabe_quotient(trial, flat)


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


    @pytest.mark.parametrize("A", [-50.0, -35.0])
    def test_catalog_matches_the_full_grid_scan(self, grid, A):
        # each trial is built on its nodes r < cut and summed over its
        # support; both agree with the same work done on every node
        bg = make_synthetic_background(grid, 1.0, A, 2.0, 1.0)
        accepted = 0
        for center in _TRIAL_CENTERS:
            for width in _TRIAL_WIDTHS:
                vals, params = _truncated_gaussian(grid, center, width)
                cut = min(center + 8.0 * width, 0.5 * grid.R_max)
                if cut <= center + 2.0 * width:
                    assert vals is None
                    continue
                full = full_grid_gaussian(grid, center, width, cut)
                if not np.any(full > 0.0):
                    assert vals is None
                    continue
                accepted += 1
                assert params == (center, width, cut)
                assert np.array_equal(vals, full)
                q = yamabe_quotient(RadialField(grid, vals), bg)
                assert q == pytest.approx(full_grid_quotient(full, bg), rel=1e-12)
        assert accepted > 0
        assert yamabe_sign(bg).trial_params == (0.0, 4.0, 32.0)

    def test_certificate_check_repeats_the_scan_quadrature(self, grid):
        bg = make_synthetic_background(grid, 1.0, -50.0, 2.0, 1.0)
        s = yamabe_sign(bg)
        assert s.sign == NON_POSITIVE and not s.low_confidence
        assert yamabe_quotient(s.certificate, bg) == s.quotient
        assert verify_certificate(s, bg)

    def test_grid_too_small_for_any_trial_falls_back_to_a_tent(self):
        # at R_max = 2 every catalog cut min(c + 8w, 1) is <= c + 2w
        g = build_grid(3, 0.0, 2.0, 64, LOG_STRETCHED)
        bg = make_synthetic_background(g, 1.0, -50.0, 0.0, 1.0)
        assert all(_truncated_gaussian(g, c, w)[0] is None
                   for c in _TRIAL_CENTERS for w in _TRIAL_WIDTHS)
        s = yamabe_sign(bg)
        assert s.sign == NON_POSITIVE
        assert s.low_confidence
        assert s.quotient is None
        assert s.trial_params is None
        tent = np.maximum(1.0 - g.nodes / (0.4 * g.R_max), 0.0)
        assert np.array_equal(s.certificate.values, tent)
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

    def test_fine_grid_reaches_the_newton_limit(self):
        # the target of ``ylab prescribe`` on flat3 at M = 65536: the row-wise
        # round-off test takes Newton as far as plain Newton iterated to
        # stagnation goes
        g = build_grid(3, 0.0, 512.0, 65536, LOG_STRETCHED)
        bg = background_from_name("flat3", g)
        Rt = -0.1 * (1.0 + g.nodes**2) ** (-(2.0 + bg.tau) / 2.0)
        phi, rep = prescribe_scalar_curvature(bg, RadialField(g, Rt))
        assert rep.converged and rep.scaled_residual <= ROUNDOFF_TARGET
        a, N = conformal_exponents(3)
        lap = boundary_laplacian(g)
        ref = np.ones(g.nodes.size)
        corrections = []
        for _ in range(6):  # quadratic convergence reaches round-off by step 3
            res = -a * lap.apply(ref) + bg.r0_profile.values * ref - Rt * ref**N
            diag = -a * lap.diag + bg.r0_profile.values - N * Rt * ref ** (N - 1.0)
            delta = solve_tridiagonal(-a * lap.lower, diag, -a * lap.upper, -res)
            ref = ref + delta
            corrections.append(float(np.max(np.abs(delta))))
        assert max(corrections[3:]) <= 2e-9  # stagnated: the steps only move round-off
        assert np.max(np.abs(phi.values - ref)) <= 1e-8

    def test_target_on_another_grid_rejected(self, flat):
        other = build_grid(3, 0.0, 500.0, 1024, LOG_STRETCHED)
        with pytest.raises(GridMismatchError):
            prescribe_scalar_curvature(flat, constant_field(other, 0.0))

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
