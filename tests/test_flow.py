import math

import numpy as np
import pytest

from ylab.backgrounds import (
    conformal_exponents,
    flat_data,
    gaussian_bump_data,
    make_flat_background,
    make_synthetic_background,
    schwarzschild_data,
)
from ylab.elliptic import compute_R, curvature
from ylab.errors import ConfigError, FlowSingularityError, MassUndefinedError, ParameterError
from ylab.flow import (
    LP_FIELDS,
    Evaluation,
    FlowConfig,
    FlowState,
    MonitorRecord,
    MonitorWeights,
    SolverWork,
    _implicit_residual,
    adm_mass,
    default_p_list,
    monitor,
    run_flow,
    step,
    valid_time_horizon,
)
from ylab.grids import (
    LOG_STRETCHED,
    RadialField,
    boundary_mask,
    build_grid,
    constant_field,
    field_from_function,
    integrate_dV,
    sphere_volume,
    trapezoid_weights,
)
from ylab.operators import (STALL_CEILING, BoundaryLaplacian, boundary_laplacian,
                            conformal_laplacian, initial_inner_flux)


def _evaluated(u: np.ndarray, P) -> Evaluation:
    """The flow's evaluation of the factor u on P: R0 u - a L u and u^{1-N}, written out here."""
    return Evaluation(u, P.R0 * u - P.a * P.lap.apply(u), u ** (1.0 - P.N))


def _step(state, cfg, P):
    """One step from state alone: its evaluation made here, its work discarded."""
    return step(state, cfg, P, _evaluated(state.u.values, P), SolverWork())[0]


def _roundoff_scale(u, bg, lap, dt):
    """Per node, the round-off level s of a step of size dt from u, written out here.

    s = eps (2 u + dt c u^{1-N} T) with T = |R0| u + a (|L| u + |b|): the
    rounding of the difference u+ - u plus that of the terms the stencil sums.
    """
    a, N = conformal_exponents(bg.grid.n)
    c = 0.25 * (bg.grid.n - 2)
    abs_Lu = np.abs(lap.diag) * u + np.abs(lap.affine)
    abs_Lu[:-1] += np.abs(lap.upper) * u[1:]
    abs_Lu[1:] += np.abs(lap.lower) * u[:-1]
    T = np.abs(bg.r0_profile.values) * u + a * abs_Lu
    return np.finfo(np.float64).eps * (2.0 * u + dt * c * u ** (1.0 - N) * T)


def _flow_identity_gap(state, bg):
    """(|(u+ - u)/dt + ((n-2)/4) R[u+] u+|, STALL_CEILING s/dt) per node after one step.

    The step and R share the operator a run builds from the state's wall
    flux.  An accepted step's residual is at most STALL_CEILING times the
    step's round-off level s at every node, which bounds the gap times dt.
    """
    P = conformal_laplacian(bg, initial_inner_flux(state.u))
    new = _step(state, FlowConfig(dt0=state.dt), P)
    assert new.t == state.t + state.dt  # no halving: the step's dt is state.dt
    dt = state.dt
    c = 0.25 * (bg.grid.n - 2)
    R = compute_R(new.u, bg, P).values
    gap = np.abs((new.u.values - state.u.values) / dt + c * R * new.u.values)
    return gap, STALL_CEILING * _roundoff_scale(state.u.values, bg, P.lap, dt) / dt


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

    def test_dt_capped_by_dt_max(self, grid, flat):
        cfg = FlowConfig(dt0=0.1, dt_max=0.12, safety=2.0)
        state = FlowState(t=0.0, u=constant_field(grid, 1.0), dt=0.1, step_index=0)
        assert _step(state, cfg, conformal_laplacian(flat)).dt == pytest.approx(0.12)

    def test_discrete_flow_identity(self, grid, flat):
        u0 = gaussian_bump_data(grid, 0.2, 1.0)
        gap, bound = _flow_identity_gap(FlowState(0.0, u0, 0.05, 0), flat)
        assert np.all(gap <= bound)

    def test_flow_identity_at_every_node_with_a_wall(self):
        # the monitored R is the flow's own: at the frozen-flux wall and the
        # Robin row too
        g = build_grid(3, 0.5, 64.0, 512, LOG_STRETCHED)
        u0 = field_from_function(g, lambda r: 1.0 + 0.5 / r + 0.2 * np.exp(-((r - 1.0) ** 2)))
        state = FlowState(0.0, u0, 0.05, 0)
        gap, bound = _flow_identity_gap(state, make_flat_background(g))
        assert np.all(gap <= bound)

    @pytest.mark.parametrize("n, amplitude", [(5, 0.0), (3, -50.0)],
                             ids=["n5-bump", "synthetic-A-50"])
    def test_every_accepted_step_is_at_its_rowwise_roundoff(self, monkeypatch, n, amplitude):
        # |F_i| <= STALL_CEILING s_i at every node of every accepted step,
        # F the backward-Euler residual written out here; the late steps of
        # the n = 5 bump carry far-field change close to round-off
        import ylab.flow as flow_module

        steps = []
        accept = flow_module.step

        def recording(state, *args):
            out = accept(state, *args)
            steps.append((state, out[0]))
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
        lap = boundary_laplacian(g, initial_inner_flux(u0))
        a, N = conformal_exponents(n)
        c = 0.25 * (n - 2)
        R0 = bg.r0_profile.values
        for before, after in steps:
            # the attempt's dt is before.dt halved k times
            k = round(math.log2(before.dt / (after.t - before.t)))
            dt = before.dt * 0.5**k
            u, v = before.u.values, after.u.values
            F = v - u + dt * c * v ** (1.0 - N) * (R0 * v - a * lap.apply(v))
            assert np.all(np.abs(F) <= STALL_CEILING * _roundoff_scale(u, bg, lap, dt))

    def test_roundoff_stall_skips_backtracking_sweep(self, monkeypatch):
        # with the target below the level Newton reaches (about one round-off
        # unit on this bump), every solve stalls between the target and
        # STALL_CEILING: it is accepted after one failed candidate, without a
        # backtracking sweep
        import ylab.flow as flow_module
        import ylab.operators as operators

        solves = []
        damped_newton = flow_module.damped_newton

        def recording(u0, residual_fn, *args):
            evals = [0]

            def counted(v):
                evals[0] += 1
                return residual_fn(v)

            out = damped_newton(u0, counted, *args)
            solves.append((evals[0], out[1]))
            return out

        monkeypatch.setattr(flow_module, "damped_newton", recording)
        monkeypatch.setattr(operators, "ROUNDOFF_TARGET", 0.5)
        g = build_grid(3, 0.0, 512.0, 1024, LOG_STRETCHED)
        cfg = FlowConfig(dt0=1e-3, dt_max=0.25, t_end=10.0, monitor_every=2)
        res = run_flow(make_flat_background(g), gaussian_bump_data(g, 0.2, 1.0), cfg)
        # one solve per step: no attempt was rejected
        assert len(solves) == res.checkpoints[-1].step_index > 0
        assert res.work.halvings == 0
        assert all(0.5 < rn <= STALL_CEILING for _, rn in solves)
        assert res.work.stalled_solves == len(solves)
        assert sum(evals for evals, _ in solves) / len(solves) <= 8.0


def _well_state():
    """A nontrivial state on a walled grid, its synthetic background and run operator P."""
    g = build_grid(3, 0.5, 64.0, 512, LOG_STRETCHED)
    bg = make_synthetic_background(g, 1.0, -10.0, 2.0, 1.0)
    u0 = field_from_function(g, lambda r: 1.0 + 0.5 / r + 0.2 * np.exp(-((r - 1.0) ** 2)))
    return FlowState(0.0, u0, 0.05, 0), bg, conformal_laplacian(bg, initial_inner_flux(u0))


class TestImplicitResidual:
    def test_bands_match_standalone_expressions_bitwise(self):
        state, bg, P = _well_state()
        lap = P.lap
        a, N = conformal_exponents(3)
        c, dt, R0 = 0.25, 0.05, bg.r0_profile.values
        u_prev = state.u.values
        v = u_prev * (1.0 + 0.01 * np.sin(state.u.grid.nodes))
        s = _roundoff_scale(u_prev, bg, lap, dt)
        residual_fn, jacobian_fn = _implicit_residual(
            P, c, _evaluated(u_prev, P), dt, s, SolverWork()
        )
        res, ev = residual_fn(v)
        assert ev.v is v
        bands = jacobian_fn(ev)
        # the stand-alone residual and Jacobian expressions each evaluation
        # repeats, divided row by row by s; v^{-N} is v^{1-N} / v
        g = a * lap.apply(v) - R0 * v
        w = v ** (1.0 - N)
        expected = (
            -dt * c * w[1:] * a * lap.lower / s[1:],
            (1.0 - dt * c * ((1.0 - N) * (w / v) * g + w * (a * lap.diag - R0))) / s,
            -dt * c * w[:-1] * a * lap.upper / s[:-1],
        )
        assert np.any(R0 != 0.0) and not np.all(v == 1.0)
        assert res.tobytes() == (
            (v - u_prev - dt * c * v ** (1.0 - N) * (a * lap.apply(v) - R0 * v)) / s
        ).tobytes()
        assert [b.tobytes() for b in bands] == [b.tobytes() for b in expected]
        # v^{1-N} / v is v^{-N} to a few ulps
        assert np.allclose(w / v, v ** (-N), rtol=4.0 * np.finfo(np.float64).eps, atol=0.0)

    def test_stalled_attempt_returns_the_evaluation_of_the_accepted_factor(self, monkeypatch):
        # with the target below the round-off level Newton reaches, the first
        # step of the bump stalls: the last candidate evaluated is rejected,
        # and the Evaluation returned must still be the accepted factor's
        import ylab.flow as flow_module
        import ylab.operators as operators

        monkeypatch.setattr(operators, "ROUNDOFF_TARGET", 0.5)
        g = build_grid(3, 0.0, 512.0, 1024, LOG_STRETCHED)
        bg, u0 = make_flat_background(g), gaussian_bump_data(g, 0.2, 1.0)
        P = conformal_laplacian(bg, initial_inner_flux(u0))
        prev = _evaluated(u0.values, P)
        evaluated = []  # (array, residual norm) of every residual call
        damped_newton = flow_module.damped_newton

        def recording(start, residual_fn, *args, **kwargs):
            def recorded(v):
                res, ev = residual_fn(v)
                evaluated.append((v, float(np.max(np.abs(res)))))
                return res, ev

            return damped_newton(start, recorded, *args, **kwargs)

        monkeypatch.setattr(flow_module, "damped_newton", recording)
        work = SolverWork()
        T = P.row_terms(prev.v)
        ev = flow_module._attempt_step(prev, T, 1e-3, FlowConfig(dt0=1e-3), P, work)
        assert work.stalled_solves == 1
        # the step starts from prev itself and applies no stencil there
        assert evaluated[0][0] is prev.v
        assert work.stencil_evaluations == len(evaluated) - 1
        # the accepted factor has the least residual, ahead of any tie; a
        # rejected candidate was evaluated after it
        norms = [rn for _, rn in evaluated]
        accepted = evaluated[norms.index(min(norms))][0]
        assert evaluated[-1][0] is not accepted
        assert ev.v is accepted
        assert [x.tobytes() for x in ev[1:]] == [
            x.tobytes() for x in _evaluated(accepted, P)[1:]
        ]


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
                monitor_every=10**9, checkpoint_every=10**9,
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
        dV_t = sphere_volume(3) * grid.nodes**2 * trapezoid_weights(grid) * (u * u / w)
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
        # curvature map and integrate_dV define them, written out here
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
        # every step accepts u_prev itself: no halving, no Newton iteration
        assert res.work == SolverWork(
            newton_iterations=0, stencil_evaluations=1, halvings=0, unchanged_steps=steps
        )

    def test_work_counters_of_a_bump_run(self):
        g = build_grid(3, 0.0, 64.0, 512, LOG_STRETCHED)
        cfg = FlowConfig(dt0=1e-3, dt_max=0.25, t_end=5.0)
        res = run_flow(make_flat_background(g), gaussian_bump_data(g, 0.2, 1.0), cfg)
        steps = res.checkpoints[-1].step_index
        assert res.work.halvings == res.work.unchanged_steps == 0
        assert res.work.newton_iterations >= steps
        # one evaluation of u0, then one per accepted Newton iterate at least
        assert res.work.stencil_evaluations >= 1 + res.work.newton_iterations

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
        series = [r.lp_half for r in res.records[5:]]
        diffs = np.diff(series)
        assert np.max(diffs) <= 1e-8

    def test_intractable_data_halts_with_partial_series(self, monkeypatch):
        # a 1e-3 floor in the factor makes the implicit system hopelessly
        # stiff (u^{-N} ~ 1e15); the run must halt cleanly, keeping state
        import ylab.flow as flow_module

        residuals = [0]
        damped_newton = flow_module.damped_newton

        def counting(u0, residual_fn, *args, **kwargs):
            def counted(v):
                residuals[0] += 1
                return residual_fn(v)

            return damped_newton(u0, counted, *args, **kwargs)

        monkeypatch.setattr(flow_module, "damped_newton", counting)
        g = build_grid(3, 0.0, 64.0, 512, LOG_STRETCHED)
        bg = make_flat_background(g)
        u0 = gaussian_bump_data(g, -0.999, 1.0)
        cfg = FlowConfig(dt0=0.1, t_end=10.0, monitor_every=1, newton_max=8)
        res = run_flow(bg, u0, cfg)
        assert res.halted
        assert res.halt_reason == "dt-collapse"
        assert len(res.records) >= 1
        assert np.min(res.checkpoints[-1].u.values) > 0.0
        # the first step is rejected at dt0 and after each of its 10 halvings
        assert res.checkpoints[-1].step_index == 0
        assert res.work.halvings == 11
        # u0 is evaluated once: each of the 11 attempts starts from that evaluation
        assert res.work.stencil_evaluations == 1 + residuals[0] - 11
        # the error names the attempts and the smallest dt tried, dt0 / 2^10
        P = conformal_laplacian(bg)
        with pytest.raises(FlowSingularityError,
                           match=r"all 11 attempts at t=0 \(smallest dt tried 9\.766e-05\)$"):
            step(FlowState(0.0, u0, cfg.dt0, 0), cfg, P, _evaluated(u0.values, P), SolverWork())

    def test_n5_bump_never_freezes(self):
        # each row is held to its own round-off level: the small far-field
        # change of a late n = 5 step is still taken, so no step leaves u as
        # it stands and max u keeps falling
        g = build_grid(5, 0.0, 128.0, 1024, LOG_STRETCHED)
        cfg = FlowConfig(dt0=1e-3, dt_max=0.25, t_end=100.0, monitor_every=2)
        res = run_flow(make_flat_background(g), gaussian_bump_data(g, 0.2, 1.0), cfg)
        assert cfg.t_end <= valid_time_horizon(g)
        assert res.work.unchanged_steps == 0
        assert np.all(np.diff([r.max_u for r in res.records[-10:]]) < 0.0)

    def test_n3_bump_decays_to_late_times(self):
        # README grid to t = 2000: max u - 1 follows t^{-3/2} (1.14e-7 at
        # t = 2000) instead of stopping at round-off near 2.2e-7
        g = build_grid(3, 0.0, 512.0, 4096, LOG_STRETCHED)
        cfg = FlowConfig(dt0=1e-3, dt_max=4.0, t_end=2000.0, monitor_every=2,
                         checkpoint_every=10**9)
        res = run_flow(make_flat_background(g), gaussian_bump_data(g, 0.2, 1.0), cfg)
        assert cfg.t_end <= valid_time_horizon(g)
        assert res.work.unchanged_steps == 0
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
        cfg = cfg._replace(monitor_every=2, checkpoint_every=3)
        g = build_grid(3, 0.0, 64.0, 512, LOG_STRETCHED)
        bg = make_flat_background(g)
        u0 = gaussian_bump_data(g, eps, 1.0)
        # the initial state, then each accepted step, with its evaluation
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
