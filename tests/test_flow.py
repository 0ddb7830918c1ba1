import math
from dataclasses import replace

import numpy as np
import pytest

from ylab.backgrounds import (
    flat_data,
    gaussian_bump_data,
    make_flat_background,
    make_synthetic_background,
    schwarzschild_data,
)
from ylab.elliptic import compute_R
from ylab.errors import ConfigError, MassUndefinedError
from ylab.flow import (
    FlowConfig,
    FlowState,
    _implicit_residual,
    adm_mass,
    default_p_list,
    monitor,
    run_flow,
    step,
    step_tolerances,
    valid_time_horizon,
)
from ylab.grids import (
    LOG_STRETCHED,
    RadialField,
    build_grid,
    constant_field,
    field_from_function,
    integrate_dV,
    lp_integral,
)
from ylab.operators import boundary_laplacian, initial_inner_flux


def _flow_identity_gap(state, bg):
    """(|(u+ - u)/dt + ((n-2)/4) R[u+] u+| per node, ceiling/dt) after one step.

    The step and R share the operator a run builds from the state's wall
    flux.  At convergence the Newton residual, at most the step's round-off
    ceiling, bounds the gap times dt.
    """
    from ylab.backgrounds import conformal_exponents

    cfg = FlowConfig(dt0=state.dt)
    lap = boundary_laplacian(bg.grid, initial_inner_flux(state.u))
    new = step(state, bg, cfg, lap)
    dt = new.t - state.t
    c = 0.25 * (bg.grid.n - 2)
    R = compute_R(new.u, bg, lap).values
    gap = np.abs((new.u.values - state.u.values) / dt + c * R * new.u.values)
    a, N = conformal_exponents(bg.grid.n)
    _, ceiling = step_tolerances(cfg.newton_tol, dt, state.u.values, a, c, N, lap.row_norm)
    return gap, ceiling / dt


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
            state = step(state, flat, FlowConfig(dt0=0.5), boundary_laplacian(grid))
        assert np.all(state.u.values == 1.0)

    def test_dt_grows_by_safety(self, grid, flat):
        cfg = FlowConfig(dt0=0.1, safety=1.5)
        state = FlowState(t=0.0, u=constant_field(grid, 1.0), dt=0.1, step_index=0)
        out = step(state, flat, cfg, boundary_laplacian(grid))
        assert out.dt == pytest.approx(0.15)
        assert out.step_index == 1

    def test_dt_capped_by_dt_max(self, grid, flat):
        cfg = FlowConfig(dt0=0.1, dt_max=0.12, safety=2.0)
        state = FlowState(t=0.0, u=constant_field(grid, 1.0), dt=0.1, step_index=0)
        assert step(state, flat, cfg, boundary_laplacian(grid)).dt == pytest.approx(0.12)

    def test_discrete_flow_identity(self, grid, flat):
        u0 = gaussian_bump_data(grid, 0.2, 1.0)
        gap, bound = _flow_identity_gap(FlowState(0.0, u0, 0.05, 0), flat)
        assert np.max(gap) <= bound

    def test_flow_identity_at_every_node_with_a_wall(self):
        # the monitored R is the flow's own: at the frozen-flux wall and the
        # Robin row too
        g = build_grid(3, 0.5, 64.0, 512, LOG_STRETCHED)
        u0 = field_from_function(g, lambda r: 1.0 + 0.5 / r + 0.2 * np.exp(-((r - 1.0) ** 2)))
        state = FlowState(0.0, u0, 0.05, 0)
        gap, bound = _flow_identity_gap(state, make_flat_background(g))
        assert np.max(gap) <= bound


    def test_roundoff_stall_skips_backtracking_sweep(self, monkeypatch):
        # README-like bump: every Newton solve stalls between the target and
        # the round-off ceiling, which damped_newton receives as its floor
        import ylab.flow as flow_module

        solves = []
        damped_newton = flow_module.damped_newton

        def recording(u0, residual_fn, jacobian_fn, *args, **kwargs):
            evals = [0]

            def counted(v):
                evals[0] += 1
                return residual_fn(v)

            out = damped_newton(u0, counted, jacobian_fn, *args, **kwargs)
            solves.append((evals[0], out[1], kwargs["floor"]))
            return out

        monkeypatch.setattr(flow_module, "damped_newton", recording)
        g = build_grid(3, 0.0, 512.0, 1024, LOG_STRETCHED)
        cfg = FlowConfig(dt0=1e-3, dt_max=0.25, t_end=10.0, monitor_every=2)
        res = run_flow(make_flat_background(g), gaussian_bump_data(g, 0.2, 1.0), cfg)
        # one solve per step: no attempt was rejected
        assert len(solves) == res.checkpoints[-1].step_index > 0
        assert sum(evals for evals, _, _ in solves) / len(solves) <= 8.0
        assert all(rn <= ceiling for _, rn, ceiling in solves)


def _well_state():
    """A nontrivial state on a walled grid, its synthetic background and run operator."""
    g = build_grid(3, 0.5, 64.0, 512, LOG_STRETCHED)
    bg = make_synthetic_background(g, 1.0, -10.0, 2.0, 1.0)
    u0 = field_from_function(g, lambda r: 1.0 + 0.5 / r + 0.2 * np.exp(-((r - 1.0) ** 2)))
    return FlowState(0.0, u0, 0.05, 0), bg, boundary_laplacian(g, initial_inner_flux(u0))


class TestImplicitResidual:
    def test_bands_match_standalone_expressions_bitwise(self):
        from ylab.backgrounds import conformal_exponents

        state, bg, lap = _well_state()
        a, N = conformal_exponents(3)
        c, dt, R0 = 0.25, 0.05, bg.r0_profile.values
        u_prev = state.u.values
        v = u_prev * (1.0 + 0.01 * np.sin(state.u.grid.nodes))
        residual_fn, jacobian_fn = _implicit_residual(lap, R0, a, N, c, u_prev, dt)
        res = residual_fn(v)
        bands = jacobian_fn(v)
        # the stand-alone residual and Jacobian expressions each evaluation repeats
        g = a * lap.apply(v) - R0 * v
        w = v ** (1.0 - N)
        expected = (
            -dt * c * w[1:] * a * lap.lower,
            1.0 - dt * c * ((1.0 - N) * v ** (-N) * g + w * (a * lap.diag - R0)),
            -dt * c * w[:-1] * a * lap.upper,
        )
        assert np.any(R0 != 0.0) and not np.all(v == 1.0)
        assert res.tobytes() == (
            v - u_prev - dt * c * v ** (1.0 - N) * (a * lap.apply(v) - R0 * v)
        ).tobytes()
        assert [b.tobytes() for b in bands] == [b.tobytes() for b in expected]

    def test_jacobian_refuses_another_array(self):
        from ylab.backgrounds import conformal_exponents

        state, bg, lap = _well_state()
        a, N = conformal_exponents(3)
        u_prev = state.u.values
        residual_fn, jacobian_fn = _implicit_residual(
            lap, bg.r0_profile.values, a, N, 0.25, u_prev, 0.05
        )
        with pytest.raises(ValueError):
            jacobian_fn(u_prev)  # no residual evaluated yet
        v = u_prev.copy()
        residual_fn(v)
        with pytest.raises(ValueError):
            jacobian_fn(u_prev)  # equal values, another array
        residual_fn(u_prev)
        with pytest.raises(ValueError):
            jacobian_fn(v)  # a residual evaluated before the last
        jacobian_fn(u_prev)


class TestHeatKernelOracle:
    def test_linearized_flow_matches_heat_kernel(self):
        g = build_grid(3, 0.0, 64.0, 2048, LOG_STRETCHED)
        bg = make_flat_background(g)
        eps = 1e-4
        u0 = RadialField(g, 1.0 + eps * heat_kernel(g.nodes, 1.0))
        errs = {}
        for dt in (0.02, 0.01, 0.0025):
            cfg = FlowConfig(
                dt0=dt, dt_max=dt, safety=1.0, t_end=1.0,
                monitor_every=10**9, checkpoint_every=10**9, newton_tol=1e-13,
            )
            final = run_flow(bg, u0, cfg).checkpoints[-1]
            exact = 1.0 + eps * heat_kernel(g.nodes, 1.0 + 2.0 * final.t)
            errs[dt] = float(np.max(np.abs(final.u.values - exact)))
        assert errs[0.01] <= 5.0 * (1e-8 + 0.01 + g.h**2)
        ratio = (errs[0.02] - errs[0.0025]) / (errs[0.01] - errs[0.0025])
        assert ratio >= 1.8  # backward Euler is first order


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
        rec = monitor(state, flat, boundary_laplacian(grid))
        assert rec.sup_R == 0.0
        assert rec.mass == 0.0
        assert rec.min_u == rec.max_u == 1.0
        assert set(rec.lp_R) == set(default_p_list(3))
        assert rec.wsup_R == 0.0

    def test_integrals_match_standalone_quadrature_bitwise(self):
        state, bg, lap = _well_state()
        rec = monitor(state, bg, lap)
        R = compute_R(state.u, bg, lap)
        assert rec.l1_R != 0.0
        assert rec.l1_R == integrate_dV(R, state.u)
        assert rec.lp_R == {p: lp_integral(R, p, state.u) for p in default_p_list(3)}

    def test_schema_stable_across_records(self, grid, flat):
        cfg = FlowConfig(dt0=0.05, t_end=0.5, monitor_every=2)
        res = run_flow(flat, gaussian_bump_data(grid, 0.1, 1.0), cfg)
        keys = [tuple(sorted(r.lp_R)) for r in res.records]
        assert len(set(keys)) == 1


class TestRunFlow:
    def test_flat_series_identical(self, grid, flat):
        cfg = FlowConfig(dt0=0.5, t_end=10.0, monitor_every=1)
        res = run_flow(flat, flat_data(grid), cfg)
        assert not res.halted
        for rec in res.records:
            assert rec.sup_R == 0.0
            assert rec.min_u == 1.0

    def test_monitor_cadence(self, grid, flat):
        cfg = FlowConfig(dt0=0.1, dt_max=0.1, safety=1.0, t_end=1.0, monitor_every=2)
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
        series = [r.lp_R[1.5] for r in res.records[5:]]
        diffs = np.diff(series)
        assert np.max(diffs) <= 1e-8

    def test_intractable_data_halts_with_partial_series(self):
        # a 1e-3 floor in the factor makes the implicit system hopelessly
        # stiff (u^{-N} ~ 1e15); the run must halt cleanly, keeping state
        g = build_grid(3, 0.0, 64.0, 512, LOG_STRETCHED)
        bg = make_flat_background(g)
        u0 = gaussian_bump_data(g, -0.999, 1.0)
        cfg = FlowConfig(dt0=0.1, t_end=10.0, monitor_every=1, newton_max=8)
        res = run_flow(bg, u0, cfg)
        assert res.halted
        assert res.halt_reason == "dt-collapse"
        assert len(res.records) >= 1
        assert np.min(res.checkpoints[-1].u.values) > 0.0

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

    def test_volume_form_evolution(self, grid, flat):
        # d/dt of the (excess) volume tracks -(n/2) int R dV_t
        u0 = gaussian_bump_data(grid, 0.1, 1.0)
        dt = 0.002
        cfg = FlowConfig(dt0=dt, dt_max=dt, safety=1.0, t_end=0.1, monitor_every=1)
        res = run_flow(flat, u0, cfg)
        one = constant_field(grid, 1.0)
        (t0, u0), (t1, u1) = res.checkpoints[0], res.checkpoints[-1]
        lhs = (integrate_dV(one, u1) - integrate_dV(one, u0)) / (t1 - t0)
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
    "t_end-off-cadence": (0.1, FlowConfig(dt0=0.1, dt_max=0.1, safety=1.0, t_end=0.65),
                          None, 7),
    "zero-steps": (0.1, FlowConfig(t_end=1e-13), None, 0),
    "dt-collapse": (-0.999, FlowConfig(dt0=0.1, t_end=10.0, newton_max=8), "dt-collapse", 0),
    "blowup": (0.2, FlowConfig(dt0=0.01, t_end=10.0, stop_max_u=1.0), "blowup", 1),
}


class TestRunEnd:
    @pytest.mark.parametrize("ending", list(_RUN_ENDS))
    def test_last_checkpoint_and_record_are_the_final_state(self, monkeypatch, ending):
        import ylab.flow as flow_module

        eps, cfg, reason, final_index = _RUN_ENDS[ending]
        cfg = replace(cfg, monitor_every=2, checkpoint_every=3)
        g = build_grid(3, 0.0, 64.0, 512, LOG_STRETCHED)
        bg = make_flat_background(g)
        u0 = gaussian_bump_data(g, eps, 1.0)
        states = [FlowState(0.0, u0, cfg.dt0, 0)]  # the initial state, then each accepted step
        accept = flow_module.step

        def recording(*args):
            states.append(accept(*args))
            return states[-1]

        monkeypatch.setattr(flow_module, "step", recording)
        res = run_flow(bg, u0, cfg)
        assert (res.halted, res.halt_reason) == (reason is not None, reason)
        final = states[-1]
        assert final.step_index == final_index
        last = res.checkpoints[-1]
        assert (last.t, last.step_index) == (final.t, final.step_index)
        assert last.u.values.tobytes() == final.u.values.tobytes()
        lap = boundary_laplacian(g, initial_inner_flux(u0))
        assert res.records[-1] == monitor(final, bg, lap)
        if ending == "t_end-off-cadence":
            assert final.t == pytest.approx(cfg.t_end, rel=1e-12)


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
