import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ylab.backgrounds import (
    conformal_exponents,
    flat_data,
    gaussian_bump_data,
    make_flat_background,
    make_profile_background,
    make_synthetic_background,
    schwarzschild_data,
)
from ylab.elliptic import compute_R, curvature, solve_scalar_flat, yamabe_quotient
from ylab.errors import ConfigError, MassUndefinedError, ParameterError, YlabError
from ylab.flow import (
    LP_FIELDS,
    Evaluation,
    FlowConfig,
    FlowState,
    MonitorRecord,
    NUMERICAL_HALTS,
    STEP_TOL,
    MonitorWeights,
    SolverWork,
    adm_mass,
    default_p_list,
    monitor,
    run_flow,
    step,
    valid_time_horizon,
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
from ylab.operators import (BoundaryLaplacian, boundary_laplacian, conformal_laplacian,
                            initial_inner_flux)


def _evaluated(u: np.ndarray, P) -> Evaluation:
    """The flow's evaluation of the factor u on P: R0 u - a L u and u^{1-N}, written out here."""
    return Evaluation(u, P.R0 * u - P.a * P.lap.apply(u), u ** (1.0 - P.N))


def _step(state, cfg, P):
    """One step from state alone: its evaluation made here, its work discarded."""
    return step(state, cfg, P, _evaluated(state.u.values, P), SolverWork())[0]


GAMMA = 1.0 + 1.0 / math.sqrt(2.0)
EPS = np.finfo(np.float64).eps


def _recording_solves(monkeypatch):
    """Route the flow's tridiagonal solves through a recorder: a list of (bands, rhs, x)."""
    import ylab.flow as flow_module

    solves = []
    solve = flow_module.solve_tridiagonal

    def recorded(lower, diag, upper, rhs):
        x = solve(lower, diag, upper, rhs)
        solves.append(((lower, diag, upper), rhs, x))
        return x

    monkeypatch.setattr(flow_module, "solve_tridiagonal", recorded)
    return solves


def _stage_bands(u, dt, bg, lap):
    """The bands of I - gamma dt J at u, J the flow's Jacobian, written out here.

    f(u) = -c u^{1-N} (R0 u - a (L u + b)), so J = -c ((1-N) u^{-N} g + u^{1-N} P)
    with g = P u; u^{-N} is u^{1-N} / u, as the flow computes it, and
    gamma dt c u^{1-N} is formed first.
    """
    a, N = conformal_exponents(bg.grid.n)
    c = 0.25 * (bg.grid.n - 2)
    R0 = bg.r0_profile.values
    w = u ** (1.0 - N)
    g = R0 * u - a * lap.apply(u)
    gw = (GAMMA * dt * c) * w
    return (
        gw[1:] * (-a * lap.lower),
        1.0 + ((1.0 - N) * (gw / u) * g + gw * (R0 - a * lap.diag)),
        gw[:-1] * (-a * lap.upper),
    )


def _f(u, bg, lap):
    """The flow's right-hand side -c u^{1-N} (R0 u - a (L u + b)), written out here."""
    a, N = conformal_exponents(bg.grid.n)
    c = 0.25 * (bg.grid.n - 2)
    return -c * u ** (1.0 - N) * (bg.r0_profile.values * u - a * lap.apply(u))


def _tridiagonal_gap(bands, x, rhs):
    """(|A x - rhs|, |A| |x| + |rhs|) per row of the tridiagonal A with these bands."""
    lower, diag, upper = bands
    Ax, size = diag * x, np.abs(diag * x)
    Ax[:-1] += upper * x[1:]
    size[:-1] += np.abs(upper * x[1:])
    Ax[1:] += lower * x[:-1]
    size[1:] += np.abs(lower * x[:-1])
    return np.abs(Ax - rhs), size + np.abs(rhs)


# a stage solve is accepted as exact when every row's residual is within this
# many units of round-off of the terms it sums (the componentwise backward
# error of Oettli and Prager), where a unit is absolute among the subnormals
STAGE_ROUNDOFF = 8.0
SUBNORMAL = np.finfo(np.float64).smallest_subnormal


def _check_ros2_step(u, v, dt, solves, bg, lap):
    """Assert that v is the ROS2 step of size dt from u, row by row.

    solves holds the step's two stage solves.  Both use the bands of
    I - gamma dt J at u bit for bit; the right-hand sides f(u) and
    f(u_E) - 2 k1 at the linearly implicit Euler result u_E = u + dt k1 are
    the written-out expressions bit for bit; each stage solves its system
    to row-wise round-off; and v = u + (3/2) dt k1 + (1/2) dt k2 exactly.
    Returns the embedded estimate max |v - u_E| / v.
    """
    (bands1, rhs1, k1), (bands2, rhs2, k2) = solves
    expected = _stage_bands(u, dt, bg, lap)
    for bands in (bands1, bands2):
        assert [b.tobytes() for b in bands] == [b.tobytes() for b in expected]
    euler = u + dt * k1
    assert rhs1.tobytes() == _f(u, bg, lap).tobytes()
    assert rhs2.tobytes() == (_f(euler, bg, lap) - 2.0 * k1).tobytes()
    for bands, rhs, k in ((bands1, rhs1, k1), (bands2, rhs2, k2)):
        gap, size = _tridiagonal_gap(bands, k, rhs)
        assert np.all(gap <= STAGE_ROUNDOFF * (EPS * size + SUBNORMAL))
    assert v.tobytes() == (u + 1.5 * dt * k1 + 0.5 * dt * k2).tobytes()
    return float(np.max(np.abs(v - euler) / v))


def _flow_identity_gap(state, bg, monkeypatch):
    """(|f(x) + c R[x] x|, |f(x)|) per node at x = u and x = u_E of one checked ROS2 step.

    The step and R share the operator a run builds from the state's wall
    flux, so each stage's right-hand side is -c R u at every node, the
    wall and Robin rows included, with R the monitored curvature.
    """
    P = conformal_laplacian(bg, initial_inner_flux(state.u))
    solves = _recording_solves(monkeypatch)
    new = _step(state, FlowConfig(dt0=state.dt), P)
    assert new.t == state.t + state.dt  # no halving: the step's dt is state.dt
    assert len(solves) == 2
    u, dt = state.u.values, state.dt
    _check_ros2_step(u, new.u.values, dt, solves, bg, P.lap)
    euler = u + dt * solves[0][2]
    c = 0.25 * (bg.grid.n - 2)
    gaps = []
    for x in (u, euler):
        f = _f(x, bg, P.lap)
        R = compute_R(RadialField(bg.grid, x), bg, P).values
        gaps.append((np.abs(f + c * R * x), np.abs(f)))
    return gaps


def heat_kernel(r, s):
    return (4.0 * math.pi * s) ** -1.5 * np.exp(-(r**2) / (4.0 * s))


@pytest.fixture(scope="module")
def grid():
    return build_grid(3, 0.0, 200.0, 1024, LOG_STRETCHED)


@pytest.fixture(scope="module")
def flat(grid):
    return make_flat_background(grid)


class TestConfig:
    def test_negative_dt_rejected(self):
        with pytest.raises(ConfigError):
            FlowConfig(dt0=-1.0)
        with pytest.raises(ConfigError):  # _replace builds through the same check
            FlowConfig()._replace(dt0=-1.0)

    @pytest.mark.parametrize("safety", [1.0, 0.5, math.nan])
    def test_safety_of_at_most_one_rejected(self, safety):
        # with no growth a dt cut by the estimate could never grow back
        with pytest.raises(ConfigError, match="safety factor must be > 1"):
            FlowConfig(safety=safety)
        assert FlowConfig(safety=1.001).safety == 1.001

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_monitor_record_rejected(self, bad):
        values = [0.0] * len(MonitorRecord._fields)
        with pytest.raises(ParameterError, match="non-finite"):
            MonitorRecord(*values[:-1], bad)
        with pytest.raises(ParameterError, match="non-finite"):
            MonitorRecord(*values)._replace(lp_hi=bad)

    @pytest.mark.parametrize("newton_max", [0, -1])
    def test_newton_max_below_one_rejected(self, newton_max):
        with pytest.raises(ConfigError, match="newton_max"):
            FlowConfig(newton_max=newton_max)
        assert FlowConfig(newton_max=1).newton_max == 1

    @pytest.mark.parametrize("stop_max_u", [0.0, -1.0])
    def test_nonpositive_stop_max_u_rejected(self, stop_max_u):
        with pytest.raises(ConfigError, match="stop_max_u"):
            FlowConfig(stop_max_u=stop_max_u)
        assert FlowConfig(stop_max_u=1e3).stop_max_u == 1e3

    def test_default_p_list(self):
        assert default_p_list(3) == (1.4, 1.5, 1.6)
        assert default_p_list(4) == (1.9, 2.0, 2.1)

    def test_valid_time_horizon(self, grid):
        assert valid_time_horizon(grid) == pytest.approx(200.0**2 / 32.0)


class TestStep:
    def test_flat_is_exact_fixed_point(self, grid, flat):
        state = FlowState(t=0.0, u=constant_field(grid, 1.0), dt=0.5, step_index=0)
        for _ in range(5):
            state = _step(state, FlowConfig(dt0=0.5), conformal_laplacian(flat))
        assert np.all(state.u.values == 1.0)

    def test_dt_grows_by_safety(self, grid, flat):
        cfg = FlowConfig(dt0=0.1, safety=1.5)
        state = FlowState(t=0.0, u=constant_field(grid, 1.0), dt=0.1, step_index=0)
        out = _step(state, cfg, conformal_laplacian(flat))
        assert out.dt == pytest.approx(0.15)
        assert out.step_index == 1

    def test_rejected_attempt_halves_dt_and_keeps_the_state(self):
        # the eps = -0.999 bump rejects dt = 0.1 for its estimate: the same
        # state comes back with half the dt, and prev with it
        g = build_grid(3, 0.0, 64.0, 512, LOG_STRETCHED)
        u0 = gaussian_bump_data(g, -0.999, 1.0)
        P = conformal_laplacian(make_flat_background(g))
        prev, work = _evaluated(u0.values, P), SolverWork()
        state = FlowState(2.0, u0, 0.1, 7)
        out, ev = step(state, FlowConfig(), P, prev, work)
        assert (out.t, out.dt, out.step_index) == (2.0, 0.05, 7)
        assert out.u is u0 and ev is prev
        assert work.halvings == work.rejected_estimate == 1

    def test_dt_capped_by_dt_max(self, grid, flat):
        cfg = FlowConfig(dt0=0.1, dt_max=0.12, safety=2.0)
        state = FlowState(t=0.0, u=constant_field(grid, 1.0), dt=0.1, step_index=0)
        assert _step(state, cfg, conformal_laplacian(flat)).dt == pytest.approx(0.12)

    def test_discrete_flow_identity(self, grid, flat, monkeypatch):
        u0 = gaussian_bump_data(grid, 0.2, 1.0)
        for gap, size in _flow_identity_gap(FlowState(0.0, u0, 0.05, 0), flat, monkeypatch):
            assert np.all(gap <= 4.0 * EPS * size)

    def test_flow_identity_at_every_node_with_a_wall(self, monkeypatch):
        # the monitored R is the flow's own: at the frozen-flux wall and the
        # Robin row too
        g = build_grid(3, 0.5, 64.0, 512, LOG_STRETCHED)
        u0 = field_from_function(g, lambda r: 1.0 + 0.5 / r + 0.2 * np.exp(-((r - 1.0) ** 2)))
        state = FlowState(0.0, u0, 0.05, 0)
        for gap, size in _flow_identity_gap(state, make_flat_background(g), monkeypatch):
            assert np.all(gap <= 4.0 * EPS * size)

    @pytest.mark.parametrize("n, amplitude", [(5, 0.0), (3, -50.0)],
                             ids=["n5-bump", "synthetic-A-50"])
    def test_every_accepted_step_is_at_its_rowwise_roundoff(self, monkeypatch, n, amplitude):
        # every accepted step is the ROS2 step from its predecessor, each
        # stage solved to row-wise round-off (_check_ros2_step), and its
        # estimate is at most STEP_TOL; the late steps of the n = 5 bump
        # carry far-field change close to round-off
        import ylab.flow as flow_module

        solves = _recording_solves(monkeypatch)
        steps = []
        accept = flow_module.step

        def recording(state, *args):
            first = len(solves)
            out = accept(state, *args)
            steps.append((state, out[0], solves[first:]))
            return out

        monkeypatch.setattr(flow_module, "step", recording)
        if amplitude:
            g = build_grid(n, 0.0, 64.0, 512, LOG_STRETCHED)
            bg, u0 = make_synthetic_background(g, 1.0, amplitude, 2.0, 1.0), flat_data(g)
            cfg = FlowConfig(dt0=1e-3, safety=1.5, t_end=100.0)
        else:
            g = build_grid(n, 0.0, 128.0, 1024, LOG_STRETCHED)
            bg, u0 = make_flat_background(g), gaussian_bump_data(g, 0.2, 1.0)
            cfg = FlowConfig(dt0=1e-3, dt_max=0.25, t_end=100.0)
        res = run_flow(bg, u0, cfg)
        assert len(steps) == res.checkpoints[-1].step_index > 20
        assert res.work.halvings == 0
        lap = boundary_laplacian(g, initial_inner_flux(u0))
        estimates = []
        for before, after, step_solves in steps:
            estimates.append(_check_ros2_step(before.u.values, after.u.values, before.dt,
                                              step_solves, bg, lap))
        assert 0.0 < max(estimates) == res.work.max_step_estimate <= STEP_TOL

    def test_rejected_estimate_halves_dt(self, monkeypatch):
        # the A = 100 well on flat data outruns STEP_TOL at the growing dt:
        # each rejection halves the next attempt, and an accepted step never
        # carries an estimate above STEP_TOL
        import ylab.flow as flow_module

        attempts = []
        attempt = flow_module._attempt_step

        def recording(prev, dt, *args):
            out = attempt(prev, dt, *args)
            attempts.append((dt, out))
            return out

        monkeypatch.setattr(flow_module, "_attempt_step", recording)
        g = build_grid(3, 0.0, 64.0, 256, LOG_STRETCHED)
        bg = make_synthetic_background(g, 1.0, 100.0, 2.0, 1.0)
        res = run_flow(bg, flat_data(g), FlowConfig(t_end=1.0))
        assert not res.halted
        work = res.work
        assert work.halvings == work.rejected_estimate == sum(out is None for _, out in attempts)
        assert work.halvings > 0 and work.rejected_nonpositive == work.rejected_singular == 0
        for (dt, out), (next_dt, _) in zip(attempts, attempts[1:]):
            if out is None:
                assert next_dt == 0.5 * dt
        assert all(out[1] <= STEP_TOL for _, out in attempts if out is not None)


def _well_state():
    """A nontrivial state on a walled grid, its synthetic background and run operator P."""
    g = build_grid(3, 0.5, 64.0, 512, LOG_STRETCHED)
    bg = make_synthetic_background(g, 1.0, -10.0, 2.0, 1.0)
    u0 = field_from_function(g, lambda r: 1.0 + 0.5 / r + 0.2 * np.exp(-((r - 1.0) ** 2)))
    return FlowState(0.0, u0, 0.05, 0), bg, conformal_laplacian(bg, initial_inner_flux(u0))


class TestRosenbrockStages:
    def test_bands_match_standalone_expressions_bitwise(self, monkeypatch):
        # one attempt's two stage systems share the bands of I - gamma dt J,
        # and their right-hand sides are f(u) and f(u_E) - 2 k1, each the
        # stand-alone expression bit for bit
        import ylab.flow as flow_module

        state, bg, P = _well_state()
        u = state.u.values
        solves = _recording_solves(monkeypatch)
        ev, estimate = flow_module._attempt_step(_evaluated(u, P), 0.05, P, SolverWork())
        assert np.any(bg.r0_profile.values != 0.0) and not np.all(u == 1.0)
        assert estimate == _check_ros2_step(u, ev.v, 0.05, solves, bg, P.lap)
        # u^{1-N} / u is u^{-N} to a few ulps
        N = P.N
        assert np.allclose(u ** (1.0 - N) / u, u ** (-N), rtol=4.0 * EPS, atol=0.0)

    def test_attempt_returns_the_evaluation_of_its_result(self, monkeypatch):
        # an attempt evaluates its Euler stage and its result, and returns
        # the latter's evaluation; the start reuses prev's and applies no
        # stencil
        import ylab.flow as flow_module

        g = build_grid(3, 0.0, 512.0, 1024, LOG_STRETCHED)
        bg, u0 = make_flat_background(g), gaussian_bump_data(g, 0.2, 1.0)
        P = conformal_laplacian(bg, initial_inner_flux(u0))
        prev = _evaluated(u0.values, P)
        evaluated = []
        evaluate = flow_module._evaluate

        def recording(v, *args):
            evaluated.append(v)
            return evaluate(v, *args)

        monkeypatch.setattr(flow_module, "_evaluate", recording)
        solves = _recording_solves(monkeypatch)
        work = SolverWork()
        ev, estimate = flow_module._attempt_step(prev, 1e-3, P, work)
        assert work == SolverWork(stencil_evaluations=2)
        euler = u0.values + 1e-3 * solves[0][2]
        assert [x.tobytes() for x in evaluated] == [euler.tobytes(), ev.v.tobytes()]
        assert evaluated[1] is ev.v
        assert [x.tobytes() for x in ev[1:]] == [x.tobytes() for x in _evaluated(ev.v, P)[1:]]
        assert estimate == float(np.max(np.abs(ev.v - euler) / ev.v)) > 0.0

    @pytest.mark.parametrize("cause, dt, evaluations", [
        ("estimate", 1e-3, 1), ("nonpositive", 1e-6, 0), ("nonpositive", 2e-4, 1),
        ("nonpositive", 1e-8, 2), ("singular", 1e-3, 0),
    ], ids=["estimate", "nonpositive-euler-stage", "nonpositive-result", "overflowing-result-w",
            "singular"])
    def test_rejected_attempt_counts_its_cause(self, monkeypatch, cause, dt, evaluations):
        # a rejected attempt returns None and adds to the one counter of its
        # cause.  On the A = 1e8 well from flat data, dt = 1e-3 keeps both
        # stages positive with an estimate above STEP_TOL, dt = 1e-6 drives
        # the Euler stage nonpositive and dt = 2e-4 the result; only an
        # Euler stage that is positive is evaluated, and only a result within
        # STEP_TOL (dt = 1e-8, whose w is made to overflow here)
        import ylab.flow as flow_module

        g = build_grid(3, 0.0, 64.0, 256, LOG_STRETCHED)
        bg = make_synthetic_background(g, 1.0, 1e8, 2.0, 1.0)
        u0 = flat_data(g)
        P = conformal_laplacian(bg)
        if cause == "singular":
            def singular(*args):
                raise np.linalg.LinAlgError("singular")
            monkeypatch.setattr(flow_module, "solve_tridiagonal", singular)
        if dt == 1e-8:  # an accepted result whose w = v^{1-N} overflowed
            evaluate = flow_module._evaluate
            calls = []

            def overflowing(v, *args):
                calls.append(v)
                ev = evaluate(v, *args)
                return ev._replace(w=np.full_like(ev.w, np.inf)) if len(calls) == 2 else ev
            monkeypatch.setattr(flow_module, "_evaluate", overflowing)
        work = SolverWork()
        assert flow_module._attempt_step(_evaluated(u0.values, P), dt, P, work) is None
        counts = {name: getattr(work, f"rejected_{name}")
                  for name in ("estimate", "nonpositive", "singular")}
        assert counts == {name: int(name == cause) for name in counts}
        assert work.stencil_evaluations == evaluations


class TestHeatKernelOracle:
    def test_linearized_flow_matches_heat_kernel(self):
        g = build_grid(3, 0.0, 64.0, 2048, LOG_STRETCHED)
        bg = make_flat_background(g)
        eps = 1e-4
        u0 = RadialField(g, 1.0 + eps * heat_kernel(g.nodes, 1.0))
        errs = {}
        for dt in (0.02, 0.01, 0.0025):
            cfg = FlowConfig(
                dt0=dt, dt_max=dt, t_end=1.0,
                monitor_every=10**9, checkpoint_every=10**9,
            )
            final = run_flow(bg, u0, cfg).checkpoints[-1]
            exact = 1.0 + eps * heat_kernel(g.nodes, 1.0 + 2.0 * final.t)
            errs[dt] = float(np.max(np.abs(final.u.values - exact)))
        assert errs[0.01] <= 5.0 * (1e-8 + 0.01 + g.h**2)
        ratio = (errs[0.02] - errs[0.0025]) / (errs[0.01] - errs[0.0025])
        assert ratio >= 3.0  # ROS2 is second order: halving dt quarters the error


class TestAdmMass:
    def test_flat_mass_zero(self, grid):
        assert adm_mass(constant_field(grid, 1.0)) == 0.0

    def test_schwarzschild_oracle(self):
        g = build_grid(3, 0.5, 1000.0, 4096, LOG_STRETCHED)
        u = schwarzschild_data(g, 1.0)
        assert adm_mass(u) == pytest.approx(1.0, abs=1e-6)

    def test_two_a_rule_n4(self):
        g = build_grid(4, 0.5, 1000.0, 2048, LOG_STRETCHED)
        u = field_from_function(g, lambda r: 1.0 + 0.3 / r**2)
        assert adm_mass(u) == pytest.approx(0.6, rel=1e-10)

    def test_degenerate_window(self):
        # almost all nodes below R_max/4: too few points for a far-field fit
        import ylab.grids as gr

        nodes = np.concatenate([np.linspace(0.0, 0.2, 16), [1.0]])
        g = gr.RadialGrid(n=3, nodes=nodes, policy=gr.UNIFORM)
        with pytest.raises(MassUndefinedError):
            adm_mass(constant_field(g, 1.0))


class TestMonitor:
    def test_flat_record_trivial(self, grid, flat):
        state = FlowState(0.0, constant_field(grid, 1.0), 0.1, 0)
        ev = _evaluated(state.u.values, conformal_laplacian(flat))
        rec = monitor(state.t, ev, MonitorWeights.of(grid))
        assert rec.sup_R == 0.0
        assert rec.mass == 0.0
        assert rec.min_u == rec.max_u == 1.0
        assert (rec.lp_lo, rec.lp_half, rec.lp_hi) == (0.0, 0.0, 0.0)
        assert rec.wsup_R == 0.0

    def test_integrals_match_standalone_quadrature_bitwise(self):
        # one dot product each, summed by numpy's einsum loop (not BLAS):
        # omega r^{n-1} times the trapezoid weights, times the volume
        # density u^{N+1} = u^2 / w
        state, bg, P = _well_state()
        grid = state.u.grid
        ev = _evaluated(state.u.values, P)
        weights = MonitorWeights.of(grid)
        assert weights.dV is grid.dV  # the volume weights yamabe_quotient sums with
        rec = monitor(state.t, ev, weights)
        u, g, w = ev
        R = curvature(u, g, w)
        assert R.tobytes() == compute_R(state.u, bg, P).values.tobytes()
        half = 0.5 * grid.dr
        trapezoid = np.zeros(grid.nodes.shape)
        trapezoid[:-1] += half
        trapezoid[1:] += half
        dV_t = sphere_volume(3) * grid.nodes**2 * trapezoid * (u * u / w)
        assert rec.l1_R != 0.0
        assert rec.l1_R == float(np.einsum("i,i", dV_t, R))
        with np.errstate(divide="ignore"):
            log_abs_R = np.log(np.abs(R))
        assert [getattr(rec, name) for name in LP_FIELDS] == [
            float(np.einsum("i,i", dV_t, np.exp(p * log_abs_R))) for p in default_p_list(3)
        ]

    @pytest.mark.parametrize("amplitude", [0.0, -50.0], ids=["bump", "synthetic-A-50"])
    def test_records_match_the_curvature_map_and_trapezoid_sums(self, amplitude):
        # every record against R, dV_t and the integrals evaluated as the
        # curvature map and the conformal volume u^{2n/(n-2)} dV0 define them,
        # written out here
        g = build_grid(3, 0.0, 64.0, 512, LOG_STRETCHED)
        if amplitude:
            bg, u0 = make_synthetic_background(g, 1.0, amplitude, 2.0, 1.0), flat_data(g)
        else:
            bg, u0 = make_flat_background(g), gaussian_bump_data(g, 0.2, 1.0)
        cfg = FlowConfig(dt0=1e-3, safety=1.5, t_end=2.0, monitor_every=1, checkpoint_every=1)
        res = run_flow(bg, u0, cfg)
        assert len(res.records) == len(res.checkpoints) > 10
        a, N = conformal_exponents(3)
        lap = boundary_laplacian(g, initial_inner_flux(u0))
        R0 = bg.r0_profile.values
        interior = ~boundary_mask(g)

        def trapezoid(y):
            return float(np.sum(0.5 * (y[:-1] + y[1:]) * g.dr))

        for rec, (t, u) in zip(res.records, res.checkpoints):
            u = u.values
            R = u ** (-N) * (-a * lap.apply(u) + R0 * u)
            dens = u ** (2.0 * 3 / (3 - 2.0)) * sphere_volume(3) * g.nodes**2
            expected = {
                "t": t,
                "sup_R": float(np.max(np.abs(R[interior]))),
                "min_R": float(np.min(R[interior])),
                "mass": adm_mass(RadialField(g, u)),
                "min_u": float(np.min(u)),
                "max_u": float(np.max(u)),
                "wsup_R": float(np.max(g.w[interior] ** 0.5 * np.abs(R[interior]))),
                **{name: trapezoid(np.abs(R) ** p * dens)
                   for name, p in zip(LP_FIELDS, default_p_list(3))},
            }
            for name, value in expected.items():
                assert getattr(rec, name) == pytest.approx(value, rel=1e-13, abs=0.0), name
            # the signed integral cancels: its error is set by the integral of |R|
            assert abs(rec.l1_R - trapezoid(R * dens)) <= 1e-13 * trapezoid(np.abs(R) * dens)

    def test_monitoring_applies_no_stencil(self, monkeypatch):
        import ylab.flow as flow_module

        calls = {"apply": 0, "in_monitor": 0}
        apply = BoundaryLaplacian.apply

        def counted_apply(self, u):
            calls["apply"] += 1
            return apply(self, u)

        record = flow_module.monitor

        def counted_monitor(*args):
            before = calls["apply"]
            out = record(*args)
            calls["in_monitor"] += calls["apply"] - before
            return out

        monkeypatch.setattr(BoundaryLaplacian, "apply", counted_apply)
        monkeypatch.setattr(flow_module, "monitor", counted_monitor)
        g = build_grid(3, 0.0, 64.0, 512, LOG_STRETCHED)
        counts = []
        for every in (1, 1000):
            calls["apply"] = 0
            cfg = FlowConfig(dt0=1e-3, dt_max=0.25, t_end=5.0, monitor_every=every)
            res = run_flow(make_flat_background(g), gaussian_bump_data(g, 0.2, 1.0), cfg)
            assert len(res.records) == (res.checkpoints[-1].step_index + 1 if every == 1 else 2)
            assert res.work.stencil_evaluations == calls["apply"]
            counts.append(calls["apply"])
        assert counts[0] == counts[1]
        assert calls["in_monitor"] == 0

    def test_schema_stable_across_records(self, grid, flat):
        cfg = FlowConfig(dt0=0.05, t_end=0.5, monitor_every=2)
        res = run_flow(flat, gaussian_bump_data(grid, 0.1, 1.0), cfg)
        # every column a Python float, as the monitor CSV writes it
        for rec in res.records:
            assert all(type(getattr(rec, name)) is float for name in rec._fields)


def _count_unchanged_steps(monkeypatch):
    """Count, in a one-item list, the accepted steps whose factor equals the last bit for bit."""
    import ylab.flow as flow_module

    unchanged = [0]
    accept = flow_module.step

    def counting(state, *args):
        out = accept(state, *args)
        accepted = out[0].step_index > state.step_index
        unchanged[0] += int(accepted and np.array_equal(out[0].u.values, state.u.values))
        return out

    monkeypatch.setattr(flow_module, "step", counting)
    return unchanged


class TestRunFlow:
    def test_flat_series_identical(self, grid, flat):
        # R = 0 on every record: its log is -inf, which warns nowhere
        cfg = FlowConfig(dt0=0.5, t_end=10.0, monitor_every=1)
        res = run_flow(flat, flat_data(grid), cfg)
        assert not res.halted
        for rec in res.records:
            assert rec.sup_R == 0.0
            assert rec.min_u == 1.0
            assert (rec.l1_R, rec.lp_lo, rec.lp_half, rec.lp_hi) == (0.0, 0.0, 0.0, 0.0)
        steps = res.checkpoints[-1].step_index
        # f(1) = 0: both stages vanish and every step returns u = 1 exactly,
        # evaluating its Euler stage and its result, with a zero estimate
        assert all(np.all(c.u.values == 1.0) for c in res.checkpoints)
        assert res.work == SolverWork(stencil_evaluations=1 + 2 * steps)

    def test_work_counters_of_a_bump_run(self):
        g = build_grid(3, 0.0, 64.0, 512, LOG_STRETCHED)
        cfg = FlowConfig(dt0=1e-3, dt_max=0.25, t_end=5.0)
        res = run_flow(make_flat_background(g), gaussian_bump_data(g, 0.2, 1.0), cfg)
        steps = res.checkpoints[-1].step_index
        # one evaluation of u0, then two per step: its Euler stage and its result
        assert res.work == SolverWork(stencil_evaluations=1 + 2 * steps,
                                      max_step_estimate=res.work.max_step_estimate)
        assert 0.0 < res.work.max_step_estimate <= STEP_TOL

    def test_monitor_cadence(self, grid, flat):
        cfg = FlowConfig(dt0=0.1, dt_max=0.1, t_end=1.0, monitor_every=2)
        res = run_flow(flat, flat_data(grid), cfg)
        assert res.checkpoints[-1].step_index == 10
        assert len(res.records) == 6  # steps 0,2,4,6,8,10

    def test_final_time_hit_exactly(self, grid, flat):
        cfg = FlowConfig(dt0=0.3, t_end=1.0, monitor_every=5)
        res = run_flow(flat, flat_data(grid), cfg)
        assert res.checkpoints[-1].t == pytest.approx(1.0, rel=1e-12)

    def test_bump_lp_monotone(self):
        g = build_grid(3, 0.0, 256.0, 2048, LOG_STRETCHED)
        bg = make_flat_background(g)
        cfg = FlowConfig(dt0=1e-3, dt_max=0.2, safety=1.3, t_end=20.0, monitor_every=2)
        res = run_flow(bg, gaussian_bump_data(g, 0.2, 1.0), cfg)
        series = [r.lp_half for r in res.records[5:]]
        diffs = np.diff(series)
        assert np.max(diffs) <= 1e-8

    def test_near_vacuum_bump_reaches_t_end(self):
        # a 1e-3 floor in the factor (u^{-N} ~ 1e15) makes the first attempts
        # stiff: rejections halve dt from dt0 = 0.1 until the error control
        # admits it, and the run goes on to t_end
        g = build_grid(3, 0.0, 64.0, 512, LOG_STRETCHED)
        u0 = gaussian_bump_data(g, -0.999, 1.0)
        cfg = FlowConfig(dt0=0.1, t_end=10.0, monitor_every=1)
        res = run_flow(make_flat_background(g), u0, cfg)
        assert res.halt_reason is None
        final = res.checkpoints[-1]
        assert (final.t, final.step_index) == (10.0, 150)
        assert res.work.halvings == res.work.rejected_estimate == 51
        assert len(res.records) == 151

    @pytest.mark.parametrize("dt0", [0.1, 0.1 / 1024])
    def test_too_large_dt0_costs_only_rejections(self, dt0):
        # a dt0 far above what the error control admits is no failure: from
        # 0.1 the run reaches t_end in as many steps as from 0.1 / 1024, after
        # ten more rejections at t = 0
        g = build_grid(3, 0.0, 64.0, 64, LOG_STRETCHED)
        res = run_flow(make_flat_background(g), gaussian_bump_data(g, -0.6, 0.3),
                       FlowConfig(dt0=dt0, t_end=10.0))
        assert res.halt_reason is None
        final = res.checkpoints[-1]
        assert (final.t, final.step_index) == (10.0, 43)
        assert res.work.halvings == (11 if dt0 == 0.1 else 1)

    def test_n5_bump_never_freezes(self, monkeypatch):
        # the small far-field change of a late n = 5 step is still taken, so
        # no step leaves u as it stands and max u keeps falling
        unchanged = _count_unchanged_steps(monkeypatch)
        g = build_grid(5, 0.0, 128.0, 1024, LOG_STRETCHED)
        cfg = FlowConfig(dt0=1e-3, dt_max=0.25, t_end=100.0, monitor_every=2)
        res = run_flow(make_flat_background(g), gaussian_bump_data(g, 0.2, 1.0), cfg)
        assert cfg.t_end <= valid_time_horizon(g)
        assert unchanged == [0]
        assert np.all(np.diff([r.max_u for r in res.records[-10:]]) < 0.0)

    def test_n3_bump_decays_to_late_times(self, monkeypatch):
        # README grid to t = 2000: max u - 1 follows t^{-3/2} (1.14e-7 at
        # t = 2000) instead of stopping at round-off near 2.2e-7
        unchanged = _count_unchanged_steps(monkeypatch)
        g = build_grid(3, 0.0, 512.0, 4096, LOG_STRETCHED)
        cfg = FlowConfig(dt0=1e-3, dt_max=4.0, t_end=2000.0, monitor_every=2,
                         checkpoint_every=10**9)
        res = run_flow(make_flat_background(g), gaussian_bump_data(g, 0.2, 1.0), cfg)
        assert cfg.t_end <= valid_time_horizon(g)
        assert unchanged == [0]
        assert res.records[-1].t == pytest.approx(2000.0, rel=1e-12)
        assert res.records[-1].max_u - 1.0 < 1.2e-7

    def test_uniform_u_bounds_on_flat_background(self):
        # discrete max principle: with R0 = 0 the factor's range cannot grow
        g = build_grid(3, 0.0, 256.0, 2048, LOG_STRETCHED)
        bg = make_flat_background(g)
        u0 = gaussian_bump_data(g, 0.2, 1.0)
        cfg = FlowConfig(dt0=1e-3, dt_max=0.2, safety=1.3, t_end=20.0, monitor_every=2)
        res = run_flow(bg, u0, cfg)
        max_u0 = res.records[0].max_u
        min_u0 = res.records[0].min_u
        assert max(r.max_u for r in res.records) <= max_u0 * (1.0 + 1e-2)
        assert min(r.min_u for r in res.records) >= min_u0 * (1.0 - 1e-2)

    def test_deep_well_blows_up_or_halts(self):
        g = build_grid(3, 0.0, 256.0, 1024, LOG_STRETCHED)
        bg = make_synthetic_background(g, 1.0, -50.0, 2.0, 1.0)
        cfg = FlowConfig(
            dt0=1e-3, safety=2.0, t_end=1e13, monitor_every=20,
            checkpoint_every=10**9, stop_max_u=1e3, newton_max=40,
        )
        res = run_flow(bg, flat_data(g), cfg)
        assert res.halted or max(r.max_u for r in res.records) >= 1e3

    @pytest.mark.parametrize("amplitude, reason", [(100.0, None), (1e3, None), (1e5, "stalled")])
    def test_strongly_positive_wells_reach_t_end_or_stall(self, amplitude, reason):
        # R0 = A >= 0 wells on flat data: u falls toward a limit whose minimum
        # is 0.10 (A = 100), 1.6e-4 (1e3) and 6e-41 (1e5).  The A = 1e3 run
        # passes a crawl at dt / t ~ 1e-12 and reaches t_end; the A = 1e5
        # run crawls without end and halts as a numerical failure
        g = build_grid(3, 0.0, 64.0, 256, LOG_STRETCHED)
        bg = make_synthetic_background(g, 1.0, amplitude, 2.0, 1.0)
        res = run_flow(bg, flat_data(g), FlowConfig(t_end=1.0, monitor_every=10**9))
        assert res.halt_reason == reason
        final = res.checkpoints[-1]
        if reason is None:
            assert final.t == 1.0
        else:
            assert reason in NUMERICAL_HALTS and final.t < 1e-3
        assert res.work.max_step_estimate <= STEP_TOL

    def test_volume_form_evolution(self, grid, flat):
        # d/dt of the (excess) volume tracks -(n/2) int R dV_t
        u0 = gaussian_bump_data(grid, 0.1, 1.0)
        dt = 0.002
        cfg = FlowConfig(dt0=dt, dt_max=dt, t_end=0.1, monitor_every=1)
        res = run_flow(flat, u0, cfg)
        (t0, u0), (t1, u1) = res.checkpoints[0], res.checkpoints[-1]
        # the conformal volume int u^{2n/(n-2)} dV0 = int u^6 dV0 at n = 3
        lhs = (grid.dV @ u1.values**6 - grid.dV @ u0.values**6) / (t1 - t0)
        ts = np.array([r.t for r in res.records])
        l1 = np.array([r.l1_R for r in res.records])
        rhs_val = -1.5 * np.trapezoid(l1, ts) / (t1 - t0)  # time-averaged -(n/2) int R dV
        assert abs(lhs - rhs_val) <= 15.0 * (dt + grid.h**2) * abs(rhs_val)

    def test_grid_mismatch_rejected(self, grid, flat):
        g2 = build_grid(3, 0.0, 100.0, 512, LOG_STRETCHED)
        from ylab.errors import GridMismatchError

        with pytest.raises(GridMismatchError):
            run_flow(flat, flat_data(g2), FlowConfig())


# (data, background amplitude, flow config, halt reason, final step index) of
# each way a run ends; the cadences 2 and 3 miss every final step index
_RUN_ENDS = {
    "t_end-off-cadence": (0.1, 0.0, FlowConfig(dt0=0.1, dt_max=0.1, t_end=0.65), None, 7),
    "blowup": (0.2, 0.0, FlowConfig(dt0=0.01, t_end=10.0, stop_max_u=1.0), "blowup", 1),
    # with STALL_LIMIT cut to 20 (_STALL_LIMIT below): the A = 1e3 well's
    # crawl, which the full limit lets through
    "stalled": (0.0, 1e3, FlowConfig(t_end=1.0), "stalled", 62),
}
_STALL_LIMIT = 20


class TestRunEnd:
    @pytest.mark.parametrize("ending", list(_RUN_ENDS))
    def test_last_checkpoint_and_record_are_the_final_state(self, monkeypatch, ending):
        import ylab.flow as flow_module

        eps, amplitude, cfg, reason, final_index = _RUN_ENDS[ending]
        cfg = cfg._replace(monitor_every=2, checkpoint_every=3)
        monkeypatch.setattr(flow_module, "STALL_LIMIT", _STALL_LIMIT)
        g = build_grid(3, 0.0, 64.0, 512, LOG_STRETCHED)
        bg = (make_synthetic_background(g, 1.0, amplitude, 2.0, 1.0) if amplitude
              else make_flat_background(g))
        u0 = gaussian_bump_data(g, eps, 1.0)
        # the initial state, then the state each attempt leaves, with its evaluation
        states = [(FlowState(0.0, u0, cfg.dt0, 0), None)]
        accept = flow_module.step

        def recording(*args):
            states.append(accept(*args))
            return states[-1]

        monkeypatch.setattr(flow_module, "step", recording)
        res = run_flow(bg, u0, cfg)
        assert (res.halted, res.halt_reason) == (reason is not None, reason)
        final, ev = states[-1]
        assert final.step_index == final_index
        last = res.checkpoints[-1]
        assert (last.t, last.step_index) == (final.t, final.step_index)
        assert last.u.values.tobytes() == final.u.values.tobytes()
        if ev is None:
            ev = _evaluated(u0.values, conformal_laplacian(bg, initial_inner_flux(u0)))
        assert res.records[-1] == monitor(final.t, ev, MonitorWeights.of(g))
        if ending == "t_end-off-cadence":
            assert final.t == pytest.approx(cfg.t_end, rel=1e-12)


def _scaled_pair(n, M, R_max, eps, sigma, amplitude, cfg, lam=2.0):
    """(background, data, config) of a run A on a uniform grid, and of its image B.

    B lives on [0, R_max / lam] with the same M: every node, spacing and
    stencil weight of B is A's divided by a power of lam = 2, so B's
    operator is lam^2 times A's bit for bit.  B's data is A's factor at the
    same node indices, its R0 profile lam^2 times A's, and its time keys
    A's divided by lam^2.
    """
    grid_a = build_grid(n, 0.0, R_max, M, UNIFORM)
    grid_b = build_grid(n, 0.0, R_max / lam, M, UNIFORM)
    assert grid_b.nodes.tobytes() == (grid_a.nodes / lam).tobytes()
    r0 = amplitude * np.exp(-(((grid_a.nodes - 2.0) / 1.0) ** 2))
    bg_a = make_profile_background(RadialField(grid_a, r0), 1.0)
    bg_b = make_profile_background(RadialField(grid_b, lam**2 * r0), 1.0)
    u_a = gaussian_bump_data(grid_a, eps, sigma)
    u_b = RadialField(grid_b, u_a.values)
    assert u_b.values.tobytes() == gaussian_bump_data(grid_b, eps, sigma / lam).values.tobytes()
    time_keys = {"dt0": cfg.dt0 / lam**2, "t_end": cfg.t_end / lam**2,
                 "dt_max": None if cfg.dt_max is None else cfg.dt_max / lam**2}
    return (bg_a, u_a, cfg), (bg_b, u_b, cfg._replace(**time_keys))


class TestScalingCovariance:
    """The discrete flow on a uniform grid is exactly covariant under r -> r/2, t -> t/4.

    The continuum flow on flat R^n keeps u(r, t) -> u(lam r, lam^2 t); on a
    uniform grid with lam = 2 every node, weight, dt and Robin coefficient
    scales by an exact power of 2, so floating point keeps the symmetry bit
    for bit: checkpoints, the monitor columns (t x lam^2, sup_R and min_R
    / lam^2, the mass and l1_R x lam^(n-2)), the volume weights grid.dV
    (x lam^n) and face_weights (x lam^(n-2)) and the scalar-flat factor; the
    Yamabe quotient of a tent agrees to 4 ulp.  Any stray
    scale in the code (a hard-coded length or time, a clamp such as
    max(r, 1)) breaks it.  The log-stretched grid breaks the map itself:
    its split between the uniform and the geometric part sits at r = 1 on
    every grid.  wsup_R is left out: its weight max(r, 1)^(1/2) is such a
    clamp by definition.
    """

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.sampled_from([3, 4, 5]),
        M=st.integers(min_value=16, max_value=256),
        R_max=st.floats(min_value=4.0, max_value=128.0),
        eps=st.floats(min_value=-0.5, max_value=1.0),
        sigma=st.floats(min_value=0.25, max_value=4.0),
        amplitude=st.one_of(st.just(0.0), st.floats(min_value=-20.0, max_value=50.0)),
        t_end=st.floats(min_value=1e-3, max_value=8.0),
        first_steps=st.integers(min_value=2, max_value=40),  # t_end / dt0
        dt_max_factor=st.one_of(st.none(), st.floats(min_value=1.0, max_value=100.0)),
        safety=st.sampled_from([1.05, 1.3, 2.0]),
    )
    # libm's pow misrounds this grid's h0**2 (0.001983543246654813 against
    # h0*h0 = 0.0019835432466548133), so the stencil must square by multiplying
    @example(n=4, M=158, R_max=158 * 0.04453698739985466, eps=0.5, sigma=1.0, amplitude=0.0,
             t_end=1.0, first_steps=10, dt_max_factor=None, safety=1.3)
    # with safety = 1.0 no dt grew back once the estimate had cut it: this
    # run crawled to t_end in 134,623 steps until such steps counted as cut
    @example(n=4, M=25, R_max=15.37, eps=-0.185, sigma=3.97, amplitude=30.85,
             t_end=6.94, first_steps=29, dt_max_factor=None, safety=1.05)
    # dt0 = 0.5 is rejected at t = 0 and at ten halvings of it: a dt-collapse
    # halt until a rejected attempt counted as one cut step of the run
    @example(n=3, M=16, R_max=4.0, eps=-0.5, sigma=0.25, amplitude=0.0,
             t_end=1.0, first_steps=2, dt_max_factor=None, safety=1.05)
    def test_flow_and_limit_are_bitwise_covariant(self, n, M, R_max, eps, sigma, amplitude,
                                                  t_end, first_steps, dt_max_factor, safety):
        dt0 = t_end / first_steps
        cfg = FlowConfig(dt0=dt0, t_end=t_end, safety=safety, monitor_every=3,
                         checkpoint_every=2,
                         dt_max=None if dt_max_factor is None else dt0 * dt_max_factor)
        (bg_a, u_a, cfg_a), (bg_b, u_b, cfg_b) = _scaled_pair(
            n, M, R_max, eps, sigma, amplitude, cfg)
        run_a, run_b = run_flow(bg_a, u_a, cfg_a), run_flow(bg_b, u_b, cfg_b)
        assert run_a.halt_reason == run_b.halt_reason
        assert vars(run_a.work) == vars(run_b.work)
        assert len(run_a.checkpoints) == len(run_b.checkpoints) >= 2
        for a, b in zip(run_a.checkpoints, run_b.checkpoints):
            assert (a.t, a.dt, a.step_index) == (4.0 * b.t, 4.0 * b.dt, b.step_index)
            assert a.u.values.tobytes() == b.u.values.tobytes()
        assert len(run_a.records) == len(run_b.records)
        for a, b in zip(run_a.records, run_b.records):
            assert (a.t, a.sup_R, a.min_R) == (4.0 * b.t, b.sup_R / 4.0, b.min_R / 4.0)
            assert (a.min_u, a.max_u) == (b.min_u, b.max_u)
            assert a.mass == 2.0 ** (n - 2) * b.mass
            assert a.l1_R == 2.0 ** (n - 2) * b.l1_R  # dV x 2^n, R / 4
        # the one volume rule and the gradient weights scale exactly
        grid_a, grid_b = bg_a.grid, bg_b.grid
        assert grid_a.dV.tobytes() == (2.0**n * grid_b.dV).tobytes()
        assert grid_a.face_weights.tobytes() == (2.0 ** (n - 2) * grid_b.face_weights).tobytes()
        # so the Yamabe quotient, scale-invariant, agrees up to the rounding
        # of its denominator's power (n-2)/n
        tent = [RadialField(g, np.maximum(1.0 - g.nodes / (0.4 * g.R_max), 0.0))
                for g in (grid_a, grid_b)]
        assert tent[0].values.tobytes() == tent[1].values.tobytes()
        q_a, q_b = yamabe_quotient(tent[0], bg_a), yamabe_quotient(tent[1], bg_b)
        assert abs(q_a - q_b) <= 4.0 * math.ulp(q_b)
        limits = []
        for bg in (bg_a, bg_b):
            try:
                limits.append(solve_scalar_flat(bg)[0].values)
            except YlabError as exc:  # nonpositive or underflowing, on both sides alike
                limits.append((type(exc), getattr(exc, "solution", None)))
        if isinstance(limits[0], tuple):
            assert limits[0][0] is limits[1][0]
        else:
            assert limits[0].tobytes() == limits[1].tobytes()


class TestInnerFlux:
    def test_origin_grid_has_zero_flux(self, grid):
        assert initial_inner_flux(flat_data(grid)) == 0.0

    def test_wall_flux_consistent_with_derivative(self):
        g = build_grid(3, 0.5, 1000.0, 4096, LOG_STRETCHED)
        u = schwarzschild_data(g, 1.0)
        flux = initial_inner_flux(u)
        # u'(0.5) = -1/(2 r^2) = -2
        assert flux == pytest.approx(-2.0, rel=1e-3)

    def test_schwarzschild_stationary(self):
        g = build_grid(3, 0.5, 1000.0, 4096, LOG_STRETCHED)
        bg = make_flat_background(g)
        u0 = schwarzschild_data(g, 1.0)
        cfg = FlowConfig(dt0=0.01, t_end=2.0, monitor_every=1, safety=1.5)
        res = run_flow(bg, u0, cfg)
        assert max(r.sup_R for r in res.records) <= 10.0 * g.h**2
        assert np.max(np.abs(res.checkpoints[-1].u.values - u0.values)) <= 10.0 * g.h**2
        assert max(abs(r.mass - 1.0) for r in res.records) <= 1e-2
