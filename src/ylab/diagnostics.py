"""Post-hoc auditors: monotonicity, decay-rate fits, mass-drop accounting.

The continuum statements being audited carry non-constructive constants, so
auditors test shape claims (sign of a fitted exponent, zero monotonicity
violations, non-degrading space-time bounds) and report the fitted values
rather than asserting any particular constant.  Fit windows default to the
second half of the valid-time window to skip transients.

Each ``*_audit`` function (and ``convergence_to_limit``, ``mass_drop_report``)
is the one gate of one claim: a pure function of the run data it reads that
returns a Verdict.  ``ylab report`` and the acceptance suite both judge
through them.  The audits that need the scalar-flat limit take it as
``u_inf``, or None when Y <= 0, and are then skipped.
"""

from __future__ import annotations

import math

import numpy as np

from .backgrounds import BackgroundSpec, conformal_exponents
from .errors import FitDomainError, GridMismatchError, ParameterError
from .flow import NUMERICAL_HALTS, TAU_PRIME, adm_mass, default_p_list, valid_time_horizon
from .grids import RadialField, RadialGrid, sphere_volume, weighted_sup_norm

NONINCREASING = "nonincreasing"
NONDECREASING = "nondecreasing"

# extra time-decay exponent delta0 of the space-time bound C / (r^{tau'} (1+t)^{1+delta0})
DELTA0 = 0.1


class Verdict:
    """Outcome of one audit: pass/fail, or skipped with a reason."""

    def __init__(self, name: str, passed: bool | None, details: dict | None = None,
                 skipped_reason: str | None = None):
        self.name = name
        self.passed = passed
        self.details = {} if details is None else details
        self.skipped_reason = skipped_reason

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "details": self.details,
            "skipped_reason": self.skipped_reason,
        }


def fit_decay_exponent(times, values, window: tuple | None = None) -> dict:
    """Power-law fit y ~ constant * t^exponent: least squares of log y against log t.

    Returns the verdict details {exponent, constant, r_squared, window}:
    exponent is the slope (negative for decay), constant is exp(intercept).
    Nonpositive y inside the window is a fit-domain error; at least 8
    points are required.
    """
    t = np.asarray(times, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    if window is None:
        window = (float(t[0]), float(t[-1]))
    lo, hi = window
    sel = (t >= lo) & (t <= hi) & (t > 0.0)
    if np.count_nonzero(sel) < 8:
        raise FitDomainError(f"need at least 8 points in window {window}")
    if np.min(y[sel]) <= 0.0:
        raise FitDomainError("nonpositive values inside the fit window")
    lt = np.log(t[sel])
    ly = np.log(y[sel])
    slope, intercept = np.polyfit(lt, ly, 1)
    resid = ly - (slope * lt + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return {
        "exponent": float(slope),
        "constant": float(math.exp(intercept)),
        "r_squared": r2,
        "window": (float(lo), float(hi)),
    }


def audit_monotone(values, direction: str, slack: float, quantity: str = "series") -> dict:
    """Count adjacent-pair violations beyond the slack.

    Returns the verdict details {quantity, direction, violations,
    worst_violation, slack, pass}; pass means no violation.  Fewer than 2
    values cannot be judged: a fit-domain error.
    """
    y = np.asarray(values, dtype=np.float64)
    if y.size < 2:
        raise FitDomainError("monotonicity audit needs at least 2 points")
    if direction == NONINCREASING:
        exceed = np.diff(y) - slack
    elif direction == NONDECREASING:
        exceed = -np.diff(y) - slack
    else:
        raise ParameterError(f"unknown direction {direction!r}")
    violations = int(np.count_nonzero(exceed > 0.0))
    return {
        "quantity": quantity,
        "direction": direction,
        "violations": violations,
        "worst_violation": float(np.max(exceed)) if violations else 0.0,
        "slack": slack,
        "pass": violations == 0,
    }


_NO_LIMIT = "no scalar-flat limit (Y <= 0)"


def _lp_audit(records, name: str, p: float) -> dict:
    """The lp field name, int |R|^p dV, nonincreasing up to 1e-8 past the transient.

    The transient is the first 5 records when there are more than 7.
    """
    skip = 5 if len(records) > 7 else 0
    series = [getattr(r, name) for r in records[skip:]]
    return audit_monotone(series, NONINCREASING, 1e-8, quantity=f"lpR_p{p:g}")


def fixed_point_audit(records, grid: RadialGrid) -> Verdict:
    """A scalar-flat factor is a fixed point: sup |R| <= 10 h^2 on every record."""
    bound = 10.0 * grid.h**2
    worst = max(r.sup_R for r in records)
    return Verdict("fixed-point", worst <= bound, {"max_sup_R": worst, "bound": bound})


def _require_pairs(records, audit: str) -> None:
    """A claim about how a series changes needs a pair of records: a fit-domain error otherwise."""
    if len(records) < 2:
        raise FitDomainError(f"{audit} audit needs at least 2 records")


def mass_drift_audit(records) -> Verdict:
    """The mass is constant along the flow: max |m(t) - m(0)| <= 1e-2 max(|m(0)|, 1).

    Fewer than 2 records cannot be judged: a fit-domain error.
    """
    _require_pairs(records, "mass-drift")
    m0 = records[0].mass
    drift = max(abs(r.mass - m0) for r in records)
    bound = 1e-2 * max(abs(m0), 1.0)
    return Verdict("mass-drift", drift <= bound, {"drift": drift, "bound": bound, "m0": m0})


def lp_monotone_audit(records, n: int) -> Verdict:
    """int |R|^{n/2} dV is nonincreasing once the transient is skipped (_lp_audit)."""
    _, half, _ = default_p_list(n)
    audit = _lp_audit(records, "lp_half", half)
    return Verdict("lp-monotone", audit["pass"], audit)


def lp_window_audit(records, n: int) -> Verdict:
    """As lp_monotone_audit at p = n/2 - 0.1 and p = n/2 + 0.1, both required."""
    lo, _, hi = default_p_list(n)
    audits = {f"p={lo:g}": _lp_audit(records, "lp_lo", lo),
              f"p={hi:g}": _lp_audit(records, "lp_hi", hi)}
    return Verdict(
        "lp-monotone-window",
        all(audit["pass"] for audit in audits.values()),
        audits,
    )


def min_r_audit(records, grid: RadialGrid) -> Verdict:
    """min R is nondecreasing along the flow, up to 10 h^2."""
    audit = audit_monotone(
        [r.min_R for r in records], NONDECREASING, 10.0 * grid.h**2, quantity="min_R"
    )
    return Verdict("min-r-monotone", audit["pass"], audit)


def sup_r_decay_audit(records, grid: RadialGrid) -> Verdict:
    """sup |R| decays at least like 1/t: fitted exponent <= -1 with r^2 >= 0.9.

    The fit covers the second half of the records' span cut at the valid-time
    horizon.
    """
    t_hi = min(records[-1].t, valid_time_horizon(grid))
    fit = fit_decay_exponent(
        [r.t for r in records], [r.sup_R for r in records], window=(t_hi / 2.0, t_hi)
    )
    passed = fit["exponent"] <= -1.0 and fit["r_squared"] >= 0.9
    return Verdict("sup-r-decay", passed, fit)


def convergence_to_limit(
    checkpoints, u_inf: RadialField | None, bg: BackgroundSpec, tau_prime: float = 0.0
) -> Verdict:
    """u(t) converges to the scalar-flat limit u_inf; skipped when u_inf is None.

    Takes the weighted sup norms sup max(r,1)^{tau'} |u(t) - u_inf| of the
    checkpoints (each unpacks as (t, u) on u_inf's grid) and fits a power law
    over the second half of the valid-time window, or over the last 8 usable
    checkpoints when that half holds fewer.  Passes when the fitted exponent
    is negative and no norm after the first rises by more than 1e-12
    (details.norm_increases counts the rises).  An identically zero series
    passes without a fit.
    """
    if u_inf is None:
        return Verdict("convergence", None, skipped_reason=_NO_LIMIT)
    bound = min(bg.tau, bg.grid.n - 2.0)
    if tau_prime >= bound:
        raise ParameterError(f"tau_prime must be < min(tau, n-2) = {bound}, got {tau_prime}")
    times = []
    norms = []
    for t, u in checkpoints:
        if u.grid != u_inf.grid:
            raise GridMismatchError("trajectory snapshot grid differs from the limit's")
        times.append(float(t))
        norms.append(weighted_sup_norm(RadialField(u.grid, u.values - u_inf.values), -tau_prime))
    times_a = np.asarray(times)
    norms_a = np.asarray(norms)
    if np.all(norms_a == 0.0):
        return Verdict("convergence", True, {"zero_series": True})
    t_hi = min(times[-1], valid_time_horizon(bg.grid))
    window = (t_hi / 2.0, t_hi)
    usable = (times_a > 0.0) & (times_a <= t_hi)
    if np.count_nonzero((times_a >= window[0]) & usable) < 8:
        # sparse trajectory: widen to the last 8 usable snapshots
        tail = times_a[usable]
        if tail.size >= 8:
            window = (float(tail[-8]), t_hi)
    fit = fit_decay_exponent(times_a, norms_a, window=window)
    rises = audit_monotone(norms_a[1:], NONINCREASING, 1e-12, quantity="convergence norm")
    return Verdict(
        "convergence",
        fit["exponent"] < 0.0 and rises["pass"],
        {"fit": fit, "terminal_norm": norms[-1], "norm_increases": rises["violations"]},
    )


def mass_drop_coefficient(n: int) -> float:
    """1 / (2 (n-1) omega_{n-1}): 1/(16 pi) in dimension three."""
    return 1.0 / (2.0 * (n - 1.0) * sphere_volume(n))


def mass_drop_report(records, u_inf: RadialField | None) -> Verdict:
    """The mass drops by the limit of coeff * int R dV; skipped when u_inf is None.

    coeff is 1/(2(n-1) omega_{n-1}), 1/(16 pi) for n = 3, and m_inf is the
    mass of u_inf; the dimension and the valid-time horizon are those of
    u_inf's grid, the run's.  On the records up to that horizon it reports
    (i) the mass-constancy drift relative to max(|m(0)|, 1), so a zero-mass
    run is judged on its absolute drift, (ii) the terminal value of
    c(t) = m(t) - coeff * int R dV against m_inf, and (iii) the terminal
    coeff * int R dV against m(0) - m_inf.  Passes when (i) <= 1e-2 and the
    errors of (ii) and (iii) are <= 0.05 max(|m(0)|, 1) and
    0.05 max(|m(0) - m_inf|, 1).
    """
    if u_inf is None:
        return Verdict("mass-drop", None, skipped_reason=_NO_LIMIT)
    horizon = valid_time_horizon(u_inf.grid)
    records = [r for r in records if r.t <= horizon]
    if not records:
        raise FitDomainError("no monitor record within the valid-time horizon")
    mass = np.array([r.mass for r in records], dtype=np.float64)
    l1 = np.array([r.l1_R for r in records], dtype=np.float64)
    m_inf = adm_mass(u_inf)
    coeff = mass_drop_coefficient(u_inf.grid.n)
    m0 = float(mass[0])
    scale = max(abs(m0), 1.0)
    drift_rel = float(np.max(np.abs(mass - m0)) / scale)
    combo = mass - coeff * l1
    combination_error = float(abs(combo[-1] - m_inf))
    drop_estimate = float(coeff * l1[-1])
    drop_expected = float(m0 - m_inf)
    drop_error = abs(drop_estimate - drop_expected)
    passed = (
        drift_rel <= 1e-2
        and drop_error <= 0.05 * max(abs(drop_expected), 1.0)
        and combination_error <= 0.05 * scale
    )
    return Verdict("mass-drop", passed, {
        "mass_drift_rel": drift_rel,
        "combination_terminal": float(combo[-1]),
        "combination_error": combination_error,
        "drop_estimate": drop_estimate,
        "drop_expected": drop_expected,
        "drop_error": drop_error,
        "coeff": coeff,
        "m_inf": m_inf,
    })


def spacetime_decay_audit(records, halt_reason: str | None, u_inf: RadialField | None) -> Verdict:
    """Check |R| <= C / (r^{tau'} (1+t)^{1+delta0}) is not degrading in time.

    C(t) = wsup_R (1+t)^{1+delta0} on each monitor record with t >= 1, where
    wsup_R is the monitored sup max(r,1)^{tau'} |R| (tau' = flow.TAU_PRIME);
    the verdict passes when the earliest such record attains C* = max C(t).
    A run that halted (halt_reason not None), or one with no scalar-flat
    limit u_inf (Y <= 0), is skipped with a reason: a blow-up halt is outside
    the positive-Yamabe regime, and a numerical failure (flow.NUMERICAL_HALTS)
    shows nothing.
    """
    name = f"spacetime-decay(tau'={TAU_PRIME:g},delta0={DELTA0:g})"
    if halt_reason in NUMERICAL_HALTS:
        return Verdict(name, None, skipped_reason=(
            f"the run halted on a numerical failure ({halt_reason}), evidence of no claim"))
    if halt_reason is not None:
        return Verdict(name, None, skipped_reason="hypothesis Y > 0 fails for this run")
    if u_inf is None:
        return Verdict(name, None, skipped_reason=_NO_LIMIT)
    usable = [r for r in records if r.t >= 1.0]
    if len(usable) < 5:
        return Verdict(
            name, None, skipped_reason=f"needs >= 5 records with t >= 1, have {len(usable)}"
        )
    cstars = np.array([r.wsup_R * (1.0 + r.t) ** (1.0 + DELTA0) for r in usable])
    c_star = float(np.max(cstars))
    passed = bool(cstars[0] >= c_star * (1.0 - 1e-9))
    return Verdict(
        name,
        passed,
        details={
            "C_star": c_star,
            "attained_at_t": usable[int(np.argmax(cstars))].t,
            "first_t": usable[0].t,
            "per_record": [float(c) for c in cstars],
        },
    )


def blowup_audit(records, halt_reason: str | None) -> Verdict:
    """No convergence when Y <= 0: the run halted as 'blowup' or max u reached 1e3.

    A run that halted on a numerical failure (flow.NUMERICAL_HALTS) fails:
    its halt is no evidence of blow-up.
    """
    max_u = max(r.max_u for r in records)
    passed = halt_reason not in NUMERICAL_HALTS and (halt_reason == "blowup" or max_u >= 1e3)
    return Verdict("blowup", passed,
                   {"halted": halt_reason is not None, "halt_reason": halt_reason, "max_u": max_u})


def flat_sobolev_constant(n: int) -> float:
    """Sharp constant of the Euclidean L^2 Sobolev inequality.

    a(n) / Y(S^n) with Y(S^n) = n(n-1) vol(S^n)^{2/n}; the quotient of any
    dilated bubble (1 + r^2)^{-(n-2)/2} attains it.
    """
    a, _ = conformal_exponents(n)
    vol_sn = sphere_volume(n + 1)
    return a / (n * (n - 1.0) * vol_sn ** (2.0 / n))


def lp_inequality_audit(records, n: int) -> Verdict:
    """Conditional monotonicity of int |R|^p dV_t at p = n/2 + 0.1 (the lp_hi field).

    Whenever |p - n/2| (int |R|^{n/2} dV)^{2/n} falls below the threshold
    C(n,p)/D, with C(n,p) = 4(n-1)(p-1)/p the gradient-absorption constant
    and D the flat Sobolev constant, the series must be locally
    nonincreasing up to a slack of 1e-8.  Fewer than 2 records cannot be
    judged: a fit-domain error.
    """
    _require_pairs(records, "lp-inequality")
    _, half, p = default_p_list(n)
    D = flat_sobolev_constant(n)
    slack = 1e-8
    series = np.array([r.lp_hi for r in records], dtype=np.float64)
    gate = np.array([r.lp_half for r in records], dtype=np.float64)
    threshold = 4.0 * (n - 1.0) * (p - 1.0) / p / D
    condition = np.abs(p - half) * gate ** (2.0 / n) <= threshold
    active = condition[:-1]
    increases = np.diff(series) - slack
    bad = active & (increases > 0.0)
    violations = [
        {"index": int(i), "increase": float(increases[i])} for i in np.nonzero(bad)[0]
    ]
    return Verdict(
        name=f"lp-inequality(p={p:g})",
        passed=not violations,
        details={
            "threshold": threshold,
            "active_pairs": int(np.count_nonzero(active)),
            "violations": violations,
            "slack": slack,
            "sobolev_D": D,  # report.json key
        },
    )
