import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ylab.backgrounds import gaussian_bump_data, make_flat_background
from ylab.diagnostics import (
    NONDECREASING,
    NONINCREASING,
    audit_monotone,
    blowup_audit,
    convergence_to_limit,
    fit_decay_exponent,
    flat_sobolev_constant,
    lp_inequality_audit,
    mass_drop_coefficient,
    mass_drift_audit,
    mass_drop_report,
    spacetime_decay_audit,
)
from ylab.errors import FitDomainError, GridMismatchError, ParameterError
from ylab.flow import NUMERICAL_HALTS, FlowConfig, MonitorRecord, run_flow
from ylab.grids import LOG_STRETCHED, RadialField, build_grid, constant_field


def make_record(t, mass=0.0, l1=0.0, wsup=0.0, lp_half=0.0, lp_hi=0.0):
    return MonitorRecord(
        t=t, sup_R=0.0, min_R=0.0, l1_R=l1, mass=mass, min_u=1.0, max_u=1.0, wsup_R=wsup,
        lp_lo=0.0, lp_half=lp_half, lp_hi=lp_hi,
    )


class TestFitDecay:
    def test_exact_power_law(self):
        t = np.linspace(10.0, 1000.0, 50)
        fit = fit_decay_exponent(t, 5.0 * t**-2.0)
        assert fit["exponent"] == pytest.approx(-2.0, abs=1e-10)
        assert fit["constant"] == pytest.approx(5.0, rel=1e-10)
        assert fit["r_squared"] == pytest.approx(1.0, abs=1e-10)

    def test_bounded_oscillation(self):
        t = np.geomspace(10.0, 1000.0, 200)
        y = t**-1.0 * (1.0 + 0.1 * np.sin(np.log(t)))
        fit = fit_decay_exponent(t, y)
        assert -1.1 <= fit["exponent"] <= -0.9

    def test_zero_in_window_rejected(self):
        t = np.linspace(1.0, 10.0, 20)
        y = t**-1.0
        y[5] = 0.0
        with pytest.raises(FitDomainError):
            fit_decay_exponent(t, y)

    def test_too_few_points_rejected(self):
        with pytest.raises(FitDomainError):
            fit_decay_exponent([1.0, 2.0, 3.0], [1.0, 0.5, 0.3])

    @given(c=st.floats(0.01, 100.0))
    @settings(max_examples=25, deadline=None)
    def test_scaling_equivariance(self, c):
        t = np.geomspace(5.0, 500.0, 40)
        y = 2.0 * t**-1.7
        base = fit_decay_exponent(t, y)
        scaled = fit_decay_exponent(t, c * y)
        assert scaled["exponent"] == pytest.approx(base["exponent"], abs=1e-12)
        assert scaled["constant"] == pytest.approx(c * base["constant"], rel=1e-10)


class TestAuditMonotone:
    def test_clean_nonincreasing(self):
        audit = audit_monotone([3.0, 2.0, 2.0, 1.0], NONINCREASING, 0.0)
        assert audit["violations"] == 0
        assert audit["pass"]

    def test_single_violation(self):
        audit = audit_monotone([1.0, 2.0], NONINCREASING, 0.0)
        assert audit["violations"] == 1
        assert audit["worst_violation"] == pytest.approx(1.0)

    def test_slack_absorbs_noise(self):
        audit = audit_monotone([1.0, 1.0 + 1e-12], NONINCREASING, 1e-9)
        assert audit["violations"] == 0

    def test_single_value_cannot_be_judged(self):
        # a run data error (a failing verdict), not a bad argument (exit 2)
        with pytest.raises(FitDomainError):
            audit_monotone([1.0], NONINCREASING, 0.0)
        with pytest.raises(ParameterError):
            audit_monotone([1.0, 2.0], "sideways", 0.0)

    @given(
        values=st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=30),
        slack=st.floats(0.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_reversal_symmetry(self, values, slack):
        fwd = audit_monotone(values, NONINCREASING, slack)
        rev = audit_monotone(values[::-1], NONDECREASING, slack)
        assert fwd["violations"] == rev["violations"]


def heat_kernel_trajectory(g, rise_at=None):
    # sup_x G(x, s0 + 2t) = (4 pi (s0 + 2t))^{-3/2}, optionally doubled at one snapshot
    traj = []
    for i, t in enumerate(np.linspace(1.0, 200.0, 40)):
        s = 1.0 + 2.0 * t
        amp = 1e-4 * (2.0 if i == rise_at else 1.0)
        vals = 1.0 + amp * (4 * math.pi * s) ** -1.5 * np.exp(-g.nodes**2 / (4 * s))
        traj.append((float(t), RadialField(g, vals)))
    return traj


class TestConvergenceToLimit:
    def test_limit_trajectory_flagged(self):
        g = build_grid(3, 0.0, 100.0, 512, LOG_STRETCHED)
        u_inf = constant_field(g, 1.0)
        traj = [(float(t), u_inf) for t in range(12)]
        v = convergence_to_limit(traj, u_inf, make_flat_background(g))
        assert v.passed is True
        assert v.details == {"zero_series": True}

    def test_heat_kernel_rate(self):
        g = build_grid(3, 0.0, 100.0, 512, LOG_STRETCHED)
        v = convergence_to_limit(
            heat_kernel_trajectory(g), constant_field(g, 1.0), make_flat_background(g)
        )
        assert v.passed is True
        assert v.details["fit"]["exponent"] <= -1.5 + 0.2
        assert v.details["norm_increases"] == 0

    def test_rising_norm_fails(self):
        g = build_grid(3, 0.0, 100.0, 512, LOG_STRETCHED)
        v = convergence_to_limit(
            heat_kernel_trajectory(g, rise_at=20), constant_field(g, 1.0),
            make_flat_background(g),
        )
        assert v.details["fit"]["exponent"] < 0.0
        assert v.passed is False
        assert v.details["norm_increases"] == 1

    def test_tau_prime_ceiling_enforced(self):
        g = build_grid(3, 0.0, 100.0, 512, LOG_STRETCHED)
        u_inf = constant_field(g, 1.0)
        bg = make_flat_background(g, tau=1.0)
        with pytest.raises(ParameterError):
            convergence_to_limit([(0.0, u_inf)], u_inf, bg, tau_prime=1.0)

    def test_snapshot_on_another_grid_rejected(self):
        g = build_grid(3, 0.0, 100.0, 512, LOG_STRETCHED)
        other = build_grid(3, 0.0, 100.0, 256, LOG_STRETCHED)
        with pytest.raises(GridMismatchError):
            convergence_to_limit([(0.0, constant_field(other, 1.0))], constant_field(g, 1.0),
                                 make_flat_background(g))

    def test_no_limit_skips(self):
        g = build_grid(3, 0.0, 100.0, 512, LOG_STRETCHED)
        for v in (convergence_to_limit([], None, make_flat_background(g)),
                  mass_drop_report([], None, g)):
            assert v.passed is None
            assert "Y <= 0" in v.skipped_reason


class TestMassDrop:
    GRID = build_grid(3, 0.0, 100.0, 512, LOG_STRETCHED)

    def report(self, records):
        """mass_drop_report against the flat limit u_inf = 1 (m_inf = 0)."""
        return mass_drop_report(records, constant_field(self.GRID, 1.0), self.GRID).details

    def test_flat_run_all_zero(self):
        rep = self.report([make_record(t) for t in np.linspace(0, 10, 11)])
        assert rep["m_inf"] == 0.0
        assert rep["mass_drift_rel"] == 0.0
        assert rep["combination_terminal"] == 0.0
        assert rep["drop_estimate"] == 0.0

    def test_coefficient_value(self):
        assert mass_drop_coefficient(3) == pytest.approx(1.0 / (16.0 * math.pi), rel=1e-14)

    def test_stationary_mass_accounting(self):
        # m(t) = 2, int R dV constant at 32 pi: drop estimate 2, combination 0
        records = [
            make_record(t, mass=2.0, l1=32.0 * math.pi) for t in np.linspace(0, 10, 11)
        ]
        rep = self.report(records)
        assert rep["mass_drift_rel"] == 0.0
        assert rep["drop_estimate"] == pytest.approx(2.0, rel=1e-14)
        assert rep["combination_terminal"] == pytest.approx(0.0, abs=1e-14)

    def test_zero_mass_roundoff_drift_passes(self):
        # m0 = 0: the drift is judged in absolute terms, not divided by ~0
        records = [make_record(0.0)] + [make_record(t, mass=1e-12) for t in range(1, 10)]
        rep = self.report(records)
        assert rep["mass_drift_rel"] == pytest.approx(1e-12)
        assert rep["mass_drift_rel"] <= 1e-2

    def test_relative_drift_detected_at_nonzero_mass(self):
        records = [make_record(0.0, mass=2.0), make_record(1.0, mass=2.05)]
        v = mass_drop_report(records, constant_field(self.GRID, 1.0), self.GRID)
        assert v.details["mass_drift_rel"] == pytest.approx(0.025)
        assert v.passed is False

    def test_schema_error(self):
        # no record within the valid-time horizon: the audit cannot be computed
        with pytest.raises(FitDomainError):
            self.report([])


class TestSpacetimeDecay:
    LIMIT = constant_field(build_grid(3, 0.0, 100.0, 512, LOG_STRETCHED), 1.0)

    def test_not_applicable_skips(self):
        v = spacetime_decay_audit([], "blowup", self.LIMIT)
        assert v.passed is None
        assert "Y > 0" in v.skipped_reason

    @pytest.mark.parametrize("reason", NUMERICAL_HALTS)
    def test_numerical_failure_skips_naming_it(self, reason):
        # a halt that is a numerical failure is no evidence on Y > 0 either way
        records = [make_record(float(t), wsup=1.0) for t in range(1, 7)]
        v = spacetime_decay_audit(records, reason, self.LIMIT)
        assert v.passed is None
        assert f"numerical failure ({reason})" in v.skipped_reason
        assert "Y > 0" not in v.skipped_reason

    def test_too_few_records_skips(self):
        records = [make_record(t, wsup=1.0) for t in (0.5, 1.0, 2.0, 3.0, 4.0)]
        v = spacetime_decay_audit(records, None, self.LIMIT)
        assert v.passed is None
        assert "have 4" in v.skipped_reason

    def test_rising_bound_fails(self):
        # wsup_R constant: C(t) = (1+t)^1.1 peaks at the last record
        records = [make_record(float(t), wsup=1.0) for t in range(1, 6)]
        v = spacetime_decay_audit(records, None, self.LIMIT)
        assert v.passed is False
        assert v.details["attained_at_t"] == 5.0
        assert v.details["per_record"] == [(1.0 + t) ** 1.1 for t in range(1, 6)]

    def test_decaying_run_passes(self):
        g = build_grid(3, 0.0, 128.0, 1024, LOG_STRETCHED)
        bg = make_flat_background(g)
        u0 = gaussian_bump_data(g, 0.2, 1.0)
        cfg = FlowConfig(dt0=1e-3, dt_max=0.2, safety=1.3, t_end=30.0,
                         monitor_every=10, checkpoint_every=10)
        res = run_flow(bg, u0, cfg)
        v = spacetime_decay_audit(res.records, None, constant_field(g, 1.0))
        assert v.passed is True

    def test_json_shape(self):
        v = spacetime_decay_audit([], "blowup", self.LIMIT)
        out = json.loads(json.dumps(v.to_json()))
        assert set(out) == {"name", "pass", "details", "skipped_reason"}


class TestBlowup:
    @pytest.mark.parametrize("reason, max_u, passed", [
        ("blowup", 2.0, True), (None, 1e3, True), (None, 999.0, False),
        ("dt-collapse", 2.0, False), ("stalled", 2.0, False), ("dt-collapse", 1e3, False),
    ])
    def test_only_growth_or_a_blowup_halt_passes(self, reason, max_u, passed):
        # a numerical-failure halt is no evidence of blow-up, even after max u
        # reached the threshold
        records = [make_record(0.0), make_record(1.0)._replace(max_u=max_u)]
        v = blowup_audit(records, reason)
        assert v.passed is passed
        assert v.details == {"halted": reason is not None, "halt_reason": reason, "max_u": max_u}


class TestLpInequality:
    def test_open_gate_reduces_to_monotone(self):
        # int |R|^{n/2} dV = 0 opens the gate on every pair
        records = [make_record(float(t), lp_hi=10.0 - t) for t in range(10)]
        v = lp_inequality_audit(records, n=3)
        assert v.name == "lp-inequality(p=1.6)"
        assert v.passed
        assert v.details["active_pairs"] == 9

    def test_constant_series_passes(self):
        records = [make_record(float(t), lp_half=4.0, lp_hi=4.0) for t in range(10)]
        v = lp_inequality_audit(records, n=3)
        assert v.passed
        assert not v.details["violations"]

    def test_gated_violation_detected(self):
        records = [make_record(float(i), lp_half=1e-6, lp_hi=hi) for i, hi in enumerate((1.0, 2.0))]
        v = lp_inequality_audit(records, n=3)
        assert v.passed is False
        assert v.details["violations"]


class TestPairAudits:
    @pytest.mark.parametrize("audit", [lambda records: lp_inequality_audit(records, n=3),
                                       mass_drift_audit], ids=["lp-inequality", "mass-drift"])
    def test_one_record_cannot_be_judged(self, audit):
        # a single record has no pair to compare: not a vacuous pass
        with pytest.raises(FitDomainError, match="needs at least 2 records"):
            audit([make_record(0.0, mass=1.0)])
        assert audit([make_record(0.0, mass=1.0), make_record(1.0, mass=1.0)]).passed


class TestAuditorPurity:
    def test_identical_serialized_output(self):
        g = build_grid(3, 0.0, 128.0, 512, LOG_STRETCHED)
        bg = make_flat_background(g)
        u0 = gaussian_bump_data(g, 0.2, 1.0)
        cfg = FlowConfig(dt0=1e-3, dt_max=0.2, safety=1.3, t_end=5.0,
                         monitor_every=2, checkpoint_every=5)
        res = run_flow(bg, u0, cfg)
        first = spacetime_decay_audit(res.records, None, constant_field(g, 1.0))
        second = spacetime_decay_audit(res.records, None, constant_field(g, 1.0))
        assert json.dumps(first.to_json()) == json.dumps(second.to_json())
        a1 = audit_monotone([r.min_R for r in res.records], NONDECREASING, 1e-8)
        a2 = audit_monotone([r.min_R for r in res.records], NONDECREASING, 1e-8)
        assert json.dumps(a1) == json.dumps(a2)


class TestSobolevConstant:
    def test_bubble_attains_it(self):
        # Aubin-Talenti oracle: v = (1+r^2)^{-1/2} gives
        # int |v'|^2 dV = 3 pi^2 / 4 and int v^6 dV = pi^2 / 4
        K = flat_sobolev_constant(3)
        lhs = (math.pi**2 / 4.0) ** (1.0 / 3.0)
        rhs = K * 3.0 * math.pi**2 / 4.0
        assert lhs == pytest.approx(rhs, rel=1e-12)
