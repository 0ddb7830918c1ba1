"""Post-hoc auditors: monotonicity, decay-rate fits, mass-drop accounting.

The continuum statements being audited carry non-constructive constants, so
auditors test shape claims (sign of a fitted exponent, zero monotonicity
violations, non-degrading space-time bounds) and report the fitted values
rather than asserting any particular constant.  Fit windows default to the
second half of the valid-time window to skip transients.

All auditors are pure functions of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .backgrounds import BackgroundSpec, conformal_exponents
from .elliptic import compute_R
from .errors import FitDomainError, ParameterError, SchemaError
from .grids import RadialField, origin_mask, sphere_constants, weighted_sup_norm

NONINCREASING = "nonincreasing"
NONDECREASING = "nondecreasing"


@dataclass(frozen=True)
class DecayFit:
    """Power-law fit y ~ constant * t^exponent over a time window."""

    exponent: float
    constant: float
    r_squared: float
    window: tuple

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MonotonicityAudit:
    quantity: str
    direction: str
    violations: int
    worst_violation: float
    slack: float

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_json(self) -> dict:
        return {
            "quantity": self.quantity,
            "direction": self.direction,
            "violations": self.violations,
            "worst_violation": self.worst_violation,
            "slack": self.slack,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class Verdict:
    """Outcome of one audit: pass/fail, or skipped with a reason."""

    name: str
    passed: bool | None
    details: dict = field(default_factory=dict)
    skipped_reason: str | None = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "details": self.details,
            "skipped_reason": self.skipped_reason,
        }


@dataclass(frozen=True)
class ConvergenceReport:
    times: tuple
    norms: tuple
    fit: DecayFit | None
    zero_series: bool


@dataclass(frozen=True)
class MassDropReport:
    """The three mass-drop accounting lines.

    coeff is 1/(2(n-1) omega_{n-1}); drop_estimate is coeff * int R dV at
    the terminal record, to be compared with m(0) - m_inf; combination is
    c(t) = m(t) - coeff * int R dV, whose terminal value approaches m_inf.
    """

    drift_rel: float
    combination_terminal: float
    combination_error: float
    drop_estimate: float
    drop_expected: float
    drop_error: float
    coeff: float

    def to_json(self) -> dict:
        return {
            "mass_drift_rel": self.drift_rel,
            "combination_terminal": self.combination_terminal,
            "combination_error": self.combination_error,
            "drop_estimate": self.drop_estimate,
            "drop_expected": self.drop_expected,
            "drop_error": self.drop_error,
            "coeff": self.coeff,
        }


def fit_decay_exponent(times, values, window: tuple | None = None) -> DecayFit:
    """Ordinary least squares of log y against log t.

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
    return DecayFit(
        exponent=float(slope),
        constant=float(math.exp(intercept)),
        r_squared=r2,
        window=(float(lo), float(hi)),
    )


def audit_monotone(
    values, direction: str, slack: float, quantity: str = "series"
) -> MonotonicityAudit:
    """Count adjacent-pair violations beyond the slack."""
    y = np.asarray(values, dtype=np.float64)
    if y.size < 2:
        raise ParameterError("monotonicity audit needs at least 2 points")
    if direction == NONINCREASING:
        exceed = np.diff(y) - slack
    elif direction == NONDECREASING:
        exceed = -np.diff(y) - slack
    else:
        raise ParameterError(f"unknown direction {direction!r}")
    bad = exceed > 0.0
    return MonotonicityAudit(
        quantity=quantity,
        direction=direction,
        violations=int(np.count_nonzero(bad)),
        worst_violation=float(np.max(exceed)) if np.any(bad) else 0.0,
        slack=slack,
    )


def convergence_to_limit(
    trajectory,
    u_inf: RadialField,
    tau_prime: float,
    tau: float | None = None,
    n: int | None = None,
    valid_t_max: float | None = None,
) -> ConvergenceReport:
    """Weighted sup norms of u(t) - u_inf plus a decay fit on the tail.

    trajectory is a sequence of (t, RadialField) snapshots on u_inf's grid.
    The fit covers the second half of the valid-time window; an identically
    zero series is flagged instead of fitted.
    """
    if tau is not None:
        nn = n if n is not None else u_inf.grid.n
        if tau_prime >= min(tau, nn - 2.0):
            raise ParameterError(
                f"tau_prime must be < min(tau, n-2) = {min(tau, nn - 2.0)}, got {tau_prime}"
            )
    times = []
    norms = []
    for t, u in trajectory:
        if u.grid != u_inf.grid:
            raise ParameterError("trajectory snapshot grid differs from the limit's")
        times.append(float(t))
        norms.append(weighted_sup_norm(u - u_inf, -tau_prime))
    times_a = np.asarray(times)
    norms_a = np.asarray(norms)
    if np.all(norms_a == 0.0):
        return ConvergenceReport(tuple(times), tuple(norms), None, zero_series=True)
    t_hi = times_a[-1] if valid_t_max is None else min(times_a[-1], valid_t_max)
    window = (t_hi / 2.0, t_hi)
    usable = (times_a > 0.0) & (times_a <= t_hi)
    if np.count_nonzero((times_a >= window[0]) & usable) < 8:
        # sparse trajectory: widen to the last 8 usable snapshots
        tail = times_a[usable]
        if tail.size >= 8:
            window = (float(tail[-8]), t_hi)
    fit = fit_decay_exponent(times_a, norms_a, window=window)
    return ConvergenceReport(tuple(times), tuple(norms), fit, zero_series=False)


def mass_drop_coefficient(n: int) -> float:
    """1 / (2 (n-1) omega_{n-1}): 1/(16 pi) in dimension three."""
    return 1.0 / (2.0 * (n - 1.0) * sphere_constants(n).omega)


def mass_drop_report(records, m_inf: float, n: int) -> MassDropReport:
    """Audit the mass accounting along a run.

    Emits (i) the mass-constancy drift relative to max(|m(0)|, 1), so a
    zero-mass run is judged on its absolute drift, (ii) the terminal value of
    c(t) = m(t) - coeff * int R dV against m_inf, and (iii) the terminal
    coeff * int R dV against m(0) - m_inf.
    """
    if not records:
        raise SchemaError("empty monitor series")
    try:
        mass = np.array([r.mass for r in records], dtype=np.float64)
        l1 = np.array([r.l1_R for r in records], dtype=np.float64)
    except AttributeError as exc:
        raise SchemaError(f"monitor series lacks mass/l1_R columns: {exc}") from exc
    coeff = mass_drop_coefficient(n)
    m0 = mass[0]
    scale = max(abs(m0), 1.0)
    drift_rel = float(np.max(np.abs(mass - m0)) / scale)
    combo = mass - coeff * l1
    drop_est = float(coeff * l1[-1])
    drop_expected = float(m0 - m_inf)
    return MassDropReport(
        drift_rel=drift_rel,
        combination_terminal=float(combo[-1]),
        combination_error=float(abs(combo[-1] - m_inf)),
        drop_estimate=drop_est,
        drop_expected=drop_expected,
        drop_error=abs(drop_est - drop_expected),
        coeff=coeff,
    )


def spacetime_decay_audit(
    checkpoints,
    bg: BackgroundSpec,
    tau_prime: float,
    delta0: float,
    applicable: bool = True,
) -> Verdict:
    """Check |R| <= C / (r^{tau'} (1+t)^{1+delta0}) is not degrading in time.

    C* is maximized over checkpoints and interior nodes; the verdict passes
    when the earliest checkpoint attains it.  Runs outside the positive-
    Yamabe regime are skipped with a reason.
    """
    name = f"spacetime-decay(tau'={tau_prime:g},delta0={delta0:g})"
    if not applicable:
        return Verdict(name, None, skipped_reason="hypothesis Y > 0 fails for this run")
    usable = [(t, u) for t, u in checkpoints if t >= 1.0]
    if len(usable) < 5:
        return Verdict(
            name, None, skipped_reason=f"needs >= 5 checkpoints with t >= 1, have {len(usable)}"
        )
    interior = ~origin_mask(bg.grid)
    w = bg.grid.w[interior]
    cstars = []
    for t, u in usable:
        R = compute_R(u, bg)
        cstars.append(float(np.max(np.abs(R.values[interior]) * w**tau_prime))
                      * (1.0 + t) ** (1.0 + delta0))
    cstars_a = np.asarray(cstars)
    c_star = float(np.max(cstars_a))
    passed = bool(cstars_a[0] >= c_star * (1.0 - 1e-9))
    return Verdict(
        name,
        passed,
        details={
            "C_star": c_star,
            "attained_at_t": float(usable[int(np.argmax(cstars_a))][0]),
            "first_t": float(usable[0][0]),
            "per_checkpoint": [float(c) for c in cstars_a],
        },
    )


def flat_sobolev_constant(n: int) -> float:
    """Sharp constant of the Euclidean L^2 Sobolev inequality.

    a(n) / Y(S^n) with Y(S^n) = n(n-1) vol(S^n)^{2/n}; the quotient of any
    dilated bubble (1 + r^2)^{-(n-2)/2} attains it.
    """
    a, _ = conformal_exponents(n)
    vol_sn = sphere_constants(n + 1).omega
    return a / (n * (n - 1.0) * vol_sn ** (2.0 / n))


def lp_inequality_audit(records, p: float, n: int) -> Verdict:
    """Conditional monotonicity of int |R|^p dV_t.

    Whenever |p - n/2| (int |R|^{n/2} dV)^{2/n} falls below the threshold
    C(n,p)/D, with C(n,p) = 4(n-1)(p-1)/p the gradient-absorption constant
    and D the flat Sobolev constant, the series must be locally
    nonincreasing up to a slack of 1e-8.  At p = n/2 the condition is
    unconditional.
    """
    if not records:
        raise SchemaError("empty monitor series")
    half_n = n / 2.0
    D = flat_sobolev_constant(n)
    slack = 1e-8
    try:
        series = np.array([r.lp_R[p] for r in records], dtype=np.float64)
        gate = np.array([r.lp_R[half_n] for r in records], dtype=np.float64)
    except (AttributeError, KeyError) as exc:
        raise SchemaError(f"monitor series lacks lpR_p{p:g} or lpR_p{half_n:g}") from exc
    threshold = 4.0 * (n - 1.0) * (p - 1.0) / p / D
    condition = np.abs(p - half_n) * gate ** (2.0 / n) <= threshold
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
