"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <name>: PASS/FAIL`` line (run pytest -s to
watch them).  Long runs are shared through module-scoped fixtures built from
the experiment configs; the whole module stays well inside the stated
runtime budgets.  A criterion about a paper claim takes its verdict from the
audit that ``ylab report`` runs for that claim (``cli._AUDITS``), and states
any stricter clause of its own on that verdict's details.
"""

import math
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from ylab.backgrounds import (
    decay_order_estimate,
    flat_data,
    make_flat_background,
    make_profile_background,
    make_synthetic_background,
)
from ylab.cli import (
    RunContext,
    _run_audit,
    build_run,
    cmd_report,
    cmd_simulate,
    parse_config,
    parse_config_text,
)
from ylab.elliptic import (
    NON_POSITIVE,
    POSITIVE,
    compute_R,
    prescribe_scalar_curvature,
    solve_scalar_flat,
    yamabe_sign,
)
from ylab.flow import FlowConfig, run_flow
from ylab.grids import (
    LOG_STRETCHED,
    UNIFORM,
    RadialField,
    build_grid,
)

EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"


def _criterion(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name} failed: {detail}"


def heat_kernel(r, s):
    return (4.0 * math.pi * s) ** -1.5 * np.exp(-(r**2) / (4.0 * s))


def flow_run(manifest) -> RunContext:
    """The flow run of a manifest, held in memory as report reads it from disk."""
    _, bg, u0, cfg = build_run(manifest)
    return RunContext.from_result(manifest, bg, run_flow(bg, u0, cfg))


@pytest.fixture(scope="module")
def bump_run():
    """experiments/bump_audit.ini: the Gaussian-bump Y>0 run shared by criteria 3, 4, 5."""
    run = flow_run(parse_config(EXPERIMENTS / "bump_audit.ini"))
    assert not run.halted
    return run


@pytest.fixture(scope="module")
def newtonian_run():
    """experiments/mass_drop.ini: nonnegative integrable curvature, for criteria 4, 5, 6."""
    run = flow_run(parse_config(EXPERIMENTS / "mass_drop.ini"))
    assert not run.halted
    return run


class TestCriterion1FixedPoints:
    def test_flat_identity_thousand_steps(self):
        g = build_grid(3, 0.0, 256.0, 1024, LOG_STRETCHED)
        bg = make_flat_background(g)
        cfg = FlowConfig(
            dt0=0.01, dt_max=0.01, safety=1.0, t_end=10.0,
            monitor_every=100, checkpoint_every=10**9,
        )
        res = run_flow(bg, flat_data(g), cfg)
        final = res.checkpoints[-1]
        dev = float(np.max(np.abs(final.u.values - 1.0)))
        dev = max(dev, max(abs(r.max_u - 1.0) for r in res.records))
        _criterion(
            "1a flat fixed point (1000 steps)",
            final.step_index == 1000 and dev <= 1e-12,
            f"steps={final.step_index} deviation={dev:.3e}",
        )

    SCHWARZSCHILD = """
[grid]
r_in = 0.5
R_max = 1000
M = 4096
[initial]
family = schwarzschild
m = 1.0
[flow]
dt0 = 0.01
t_end = 10
monitor_every = 1
safety = 1.5
"""

    def test_schwarzschild_stationary(self):
        run = flow_run(parse_config_text(self.SCHWARZSCHILD))
        fixed = _run_audit("fixed-point", run)
        drift = _run_audit("mass-drift", run).details
        mass_err = abs(drift["m0"] - 1.0) + drift["drift"]  # bounds max |m(t) - 1|
        _criterion(
            "1b Schwarzschild stationary",
            fixed.passed is True and mass_err <= 1e-2,
            f"sup_R={fixed.details['max_sup_R']:.3e} (bound {fixed.details['bound']:.3e})"
            f" mass_err<={mass_err:.3e}",
        )


class TestCriterion2Linearization:
    def test_heat_kernel_oracle(self):
        g = build_grid(3, 0.0, 64.0, 2048, LOG_STRETCHED)
        bg = make_flat_background(g)
        eps = 1e-4
        u0 = RadialField(g, 1.0 + eps * heat_kernel(g.nodes, 1.0))
        errs = {}
        for dt in (0.02, 0.01, 0.00125):
            cfg = FlowConfig(
                dt0=dt, dt_max=dt, safety=1.0, t_end=1.0,
                monitor_every=10**9, checkpoint_every=10**9, newton_tol=1e-13,
            )
            final = run_flow(bg, u0, cfg).checkpoints[-1]
            exact = 1.0 + eps * heat_kernel(g.nodes, 1.0 + 2.0 * final.t)
            errs[dt] = float(np.max(np.abs(final.u.values - exact)))
        bound = 5.0 * (1e-8 + 0.01 + g.h**2)
        floor = errs[0.00125]
        ratio = (errs[0.02] - floor) / (errs[0.01] - floor)
        _criterion(
            "2 heat-kernel linearization",
            errs[0.01] <= bound and ratio >= 1.8,
            f"err(dt=0.01)={errs[0.01]:.3e} (bound {bound:.3e}) dt-part ratio={ratio:.2f}",
        )


class TestCriterion3MonotoneInvariants:
    def test_lp_monotonicity(self, bump_run):
        at_half_n = _run_audit("lp-monotone", bump_run)
        window = _run_audit("lp-monotone-window", bump_run)
        violations = {"p=1.5": at_half_n.details["violations"]}
        violations.update({p: audit["violations"] for p, audit in window.details.items()})
        _criterion(
            "3a Lp monotone (p = 1.4, 1.5, 1.6)",
            at_half_n.passed is True and window.passed is True,
            f"violations {violations}",
        )

    def test_min_r_nondecreasing(self, bump_run):
        v = _run_audit("min-r-monotone", bump_run)
        _criterion(
            "3b min R nondecreasing",
            v.passed is True,
            f"violations={v.details['violations']} worst={v.details['worst_violation']:.3e}",
        )


class TestCriterion4SupNormDecay:
    def test_bump_rate(self, bump_run):
        v = _run_audit("sup-r-decay", bump_run)
        _criterion(
            "4a sup R decay (bump run)",
            v.passed is True,
            f"exponent={v.details['exponent']:.3f} r2={v.details['r_squared']:.4f}",
        )

    def test_newtonian_rate(self, newtonian_run):
        v = _run_audit("sup-r-decay", newtonian_run)
        _criterion(
            "4b sup R decay (nonnegative integrable curvature)",
            v.passed is True and v.details["exponent"] <= -1.1,
            f"exponent={v.details['exponent']:.3f} (alpha < 3/2 shape; asserting <= -1.1)",
        )


class TestCriterion5Convergence:
    def test_weighted_convergence_to_limit(self, bump_run):
        v = _run_audit("convergence", bump_run)
        _criterion(
            "5a convergence to the scalar-flat limit",
            v.passed is True and "zero_series" not in v.details,
            f"exponent={v.details['fit']['exponent']:.3f}"
            f" terminal={v.details['terminal_norm']:.3e}"
            f" norm increases={v.details['norm_increases']}",
        )

    def test_spatial_decay_order(self, newtonian_run):
        final = newtonian_run.checkpoints()[-1].u  # the last checkpoint is the final state
        order = decay_order_estimate(RadialField(final.grid, final.values - 1.0))
        _criterion(
            "5b spatial decay order of u - 1 (tau = 1 data)",
            abs(order - 1.0) <= 0.3,
            f"fitted order={order:.4f} target 1.0 +/- 0.3",
        )


class TestCriterion6MassDrop:
    def test_mass_accounting(self, newtonian_run):
        v = _run_audit("mass-drop", newtonian_run)
        d = v.details
        m0 = newtonian_run.records[0].mass
        _criterion(
            "6 mass-drop identity",
            v.passed is True
            and abs(m0 - 2.0) <= 0.02
            and d["drop_error"] <= 0.05 * abs(d["drop_expected"]),
            f"m0={m0:.4f} drift={d['mass_drift_rel']:.2e} "
            f"terminal (1/16pi) int R dV={d['drop_estimate']:.4f} (target {d['drop_expected']:.4f}) "
            f"|c(t_end) - m_inf|={d['combination_error']:.3e}",
        )


class TestCriterion7YamabeDichotomy:
    def test_flat_positive(self):
        g = build_grid(3, 0.0, 1000.0, 4096, LOG_STRETCHED)
        bg = make_flat_background(g)
        sign = yamabe_sign(bg)
        _criterion(
            "7a flat class is Yamabe positive",
            sign.sign == POSITIVE and sign.report.final_residual <= 1e-10,
            f"residual={sign.report.final_residual:.3e}",
        )

    def test_deep_well_nonpositive_with_independent_quadrature(self):
        g = build_grid(3, 0.0, 512.0, 4096, LOG_STRETCHED)
        bg = make_synthetic_background(g, 1.0, -50.0, 2.0, 1.0)
        sign = yamabe_sign(bg)
        assert sign.sign == NON_POSITIVE and not sign.low_confidence
        center, width, cut = sign.trial_params

        # independent re-evaluation: adaptive quadrature on the analytic trial
        shift = math.exp(-(((cut - center) / width) ** 2))

        def v(r):
            return max(math.exp(-(((r - center) / width) ** 2)) - shift, 0.0) if r < cut else 0.0

        def dv(r):
            return (-2.0 * (r - center) / width**2 * math.exp(-(((r - center) / width) ** 2))
                    if r < cut else 0.0)

        def r0(r):
            return -50.0 * math.exp(-((r - 2.0) ** 2)) * (1.0 + r**2) ** -1.5

        four_pi = 4.0 * math.pi
        grad = quad(lambda r: dv(r) ** 2 * four_pi * r**2, 0.0, cut, limit=200)[0]
        pot = quad(lambda r: r0(r) * v(r) ** 2 * four_pi * r**2, 0.0, cut, limit=200)[0]
        den = quad(lambda r: v(r) ** 6 * four_pi * r**2, 0.0, cut, limit=200)[0] ** (1.0 / 3.0)
        q_indep = (8.0 * grad + pot) / den
        agree = abs(q_indep - sign.quotient) <= 0.02 * abs(q_indep)
        _criterion(
            "7b deep well is Yamabe nonpositive (independent quadrature)",
            q_indep < 0.0 and sign.quotient < 0.0 and agree,
            f"Q_grid={sign.quotient:.4f} Q_quad={q_indep:.4f}",
        )

    def test_nonpositive_flow_blows_up(self):
        v = _run_audit("blowup", flow_run(parse_config(EXPERIMENTS / "dichotomy.ini")))
        _criterion(
            "7c nonpositive background: no convergence",
            v.passed is True,
            f"halted={v.details['halted']} max_u={v.details['max_u']:.1f}",
        )


class TestCriterion8EllipticRoundTrips:
    def test_manufactured_order(self):
        errs = []
        hs = []
        for M in (128, 256, 512):
            g = build_grid(3, 0.0, 8.0, M, UNIFORM)
            r = g.nodes
            ustar = 1.0 + np.exp(-(r**2))
            r0 = 8.0 * (4.0 * r**2 - 6.0) * np.exp(-(r**2)) / ustar
            bg = make_profile_background(RadialField(g, r0), 0.9, "manufactured")
            u, rep = solve_scalar_flat(bg)
            assert rep.converged
            errs.append(float(np.max(np.abs(u.values - ustar))))
            hs.append(g.h)
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        ok = all(1.8 <= o <= 2.2 for o in orders)
        _criterion(
            "8a manufactured scalar-flat order",
            ok,
            f"errors={['%.2e' % e for e in errs]} orders={['%.2f' % o for o in orders]}",
        )

    def test_prescribe_round_trip(self):
        g = build_grid(3, 0.0, 60.0, 1024, LOG_STRETCHED)
        r = g.nodes
        phi_star = RadialField(g, 1.0 + 0.1 * np.exp(-(r**2)))
        r_flat = compute_R(phi_star, make_flat_background(g)).values
        denom = 1.0 - phi_star.values**-4.0
        ok_mask = (r_flat > 0.0) & (denom > 1e-12)
        lift = np.where(ok_mask, r_flat / np.where(ok_mask, denom, 1.0), 0.0)
        bg = make_profile_background(RadialField(g, lift + 1e-8), 0.9, "lifted")
        target = compute_R(phi_star, bg)
        phi, _ = prescribe_scalar_curvature(bg, target)
        err = float(np.max(np.abs(phi.values - phi_star.values)))
        _criterion(
            "8b conformal round-trip",
            err <= 10.0 * g.h**2,
            f"max|phi' - phi|={err:.3e} (bound {10 * g.h**2:.3e})",
        )

    def test_trivial_target_single_step(self):
        g = build_grid(3, 0.0, 256.0, 1024, LOG_STRETCHED)
        bg = make_flat_background(g)
        phi, rep = prescribe_scalar_curvature(bg, bg.r0_profile)
        _criterion(
            "8c trivial target needs <= 1 Newton step",
            rep.iterations <= 1 and bool(np.all(phi.values == 1.0)),
            f"iterations={rep.iterations}",
        )


class TestCriterion9DeterminismSchema:
    CONFIG = """
[run]
id = det
[grid]
n = 3
R_max = 128
M = 512
[initial]
family = gaussian_bump
eps = 0.1
sigma = 1.0
[flow]
dt0 = 0.01
dt_max = 0.2
t_end = 2.0
monitor_every = 4
checkpoint_every = 20
"""

    def test_bit_identical_runs(self, tmp_path):
        m = parse_config_text(self.CONFIG)
        cmd_simulate(replace(m, run_id="det-a"), tmp_path)
        cmd_simulate(replace(m, run_id="det-b"), tmp_path)
        a = (tmp_path / "det-a" / "monitor.csv").read_bytes()
        b = (tmp_path / "det-b" / "monitor.csv").read_bytes()
        same_final = (
            (tmp_path / "det-a" / "final_state.csv").read_bytes()
            == (tmp_path / "det-b" / "final_state.csv").read_bytes()
        )
        _criterion(
            "9a determinism (bit-identical CSVs)",
            a == b and same_final,
            f"monitor bytes equal={a == b}",
        )

    def test_report_exit_four_on_corruption(self, tmp_path):
        m = parse_config_text(self.CONFIG)
        cmd_simulate(replace(m, run_id="det-c"), tmp_path)
        rundir = tmp_path / "det-c"
        broken = tmp_path / "det-broken"
        shutil.copytree(rundir, broken)
        lines = (broken / "monitor.csv").read_text().splitlines()
        header = lines[1].split(",")
        col = header.index("lpR_p1.5")
        last = lines[-1].split(",")
        last[col] = "1e9"
        lines[-1] = ",".join(last)
        (broken / "monitor.csv").write_text("\n".join(lines) + "\n")
        rc_good = cmd_report([rundir], ["lp-monotone"], out=tmp_path / "rep1.json")
        rc_bad = cmd_report([broken], ["lp-monotone"], out=tmp_path / "rep2.json")
        _criterion(
            "9b report exit code on forced audit failure",
            rc_good == 0 and rc_bad == 4,
            f"clean={rc_good} corrupted={rc_bad}",
        )
