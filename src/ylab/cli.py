"""Command-line front end: configs, runs, sweeps, persistence, reports.

Configuration is INI-style ``key = value`` under the sections [run] [grid]
[background] [initial] [flow] [monitor] [prescribe]; unknown sections or
keys abort before any compute (fail-closed).  Every run writes a manifest,
the monitor CSV, checkpoints with JSON sidecars, the final state, and a
summary; `report` turns monitor series into audit verdicts.

Exit codes: 0 success, 2 configuration error, 3 numerical failure or halt,
4 audit failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

from . import diagnostics as diag
from .backgrounds import (
    background_from_name,
    bump_source,
    flat_data,
    gaussian_bump_data,
    newtonian_data,
    schwarzschild_data,
)
from .elliptic import (
    prescribe_scalar_curvature,
    solve_scalar_flat,
    yamabe_sign,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    FlowSingularityError,
    HypothesisViolationError,
    NonPositiveYamabeError,
    ParameterError,
    SchemaError,
    YlabError,
)
from .flow import (
    FlowConfig,
    MonitorRecord,
    run_flow,
)
from .grids import RadialField, build_grid, read_field_csv, write_field_csv
from .svgplot import svg_line_chart

_SCHEMA = {
    "run": {"id", "seed"},
    "grid": {"n", "r_in", "r_max", "m", "policy"},
    "background": {"name"},
    "initial": {"family", "m", "eps", "sigma", "total", "radius"},
    "flow": {
        "scheme", "dt0", "dt_max", "newton_tol", "newton_max", "t_end",
        "monitor_every", "checkpoint_every", "safety", "stop_max_u",
    },
    "monitor": {"p_list", "tau_prime_list"},
    "prescribe": {"amplitude"},
}

_GRID_DEFAULTS = {"n": 3, "r_in": 0.0, "R_max": 256.0, "M": 1024, "policy": "log-stretched"}


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one run."""

    run_id: str
    background: str
    initial_data: dict
    grid: dict
    flow: FlowConfig
    seed: int | None = None
    created_at: str | None = None
    prescribe: dict = field(default_factory=dict)
    artifact_paths: dict = field(default_factory=dict)


def _slug(text: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "_.-" else "_" for ch in text)


def _get(cp, section, key, cast, default):
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key).strip()
    if raw == "":
        return default
    try:
        if cast is bool:
            return raw.lower() in ("1", "true", "yes")
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def _float_list(raw: str) -> tuple:
    return tuple(float(x) for x in raw.split(",") if x.strip() != "")


def parse_config_text(text: str, source: str = "<config>") -> RunManifest:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp.options(section):
            if key.lower() not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    grid = {
        "n": _get(cp, "grid", "n", int, _GRID_DEFAULTS["n"]),
        "r_in": _get(cp, "grid", "r_in", float, _GRID_DEFAULTS["r_in"]),
        "R_max": _get(cp, "grid", "R_max", float, _GRID_DEFAULTS["R_max"]),
        "M": _get(cp, "grid", "M", int, _GRID_DEFAULTS["M"]),
        "policy": _get(cp, "grid", "policy", str, _GRID_DEFAULTS["policy"]),
    }
    background = _get(cp, "background", "name", str, "flat")
    family = _get(cp, "initial", "family", str, "flat")
    initial = {"family": family}
    if family == "schwarzschild":
        initial["m"] = _get(cp, "initial", "m", float, 1.0)
    elif family == "gaussian_bump":
        initial["eps"] = _get(cp, "initial", "eps", float, 0.2)
        initial["sigma"] = _get(cp, "initial", "sigma", float, 1.0)
    elif family == "newtonian":
        initial["total"] = _get(cp, "initial", "total", float, 4.0 * math.pi)
        initial["radius"] = _get(cp, "initial", "radius", float, 4.0)
    elif family != "flat":
        raise ConfigError(f"unknown initial-data family {family!r}")

    defaults = FlowConfig()
    flow = FlowConfig(
        scheme=_get(cp, "flow", "scheme", str, defaults.scheme),
        dt0=_get(cp, "flow", "dt0", float, defaults.dt0),
        dt_max=_get(cp, "flow", "dt_max", float, None),
        newton_tol=_get(cp, "flow", "newton_tol", float, defaults.newton_tol),
        newton_max=_get(cp, "flow", "newton_max", int, defaults.newton_max),
        t_end=_get(cp, "flow", "t_end", float, defaults.t_end),
        monitor_every=_get(cp, "flow", "monitor_every", int, defaults.monitor_every),
        checkpoint_every=_get(cp, "flow", "checkpoint_every", int, defaults.checkpoint_every),
        safety=_get(cp, "flow", "safety", float, defaults.safety),
        p_list=_get(cp, "monitor", "p_list", _float_list, None),
        tau_prime_list=_get(cp, "monitor", "tau_prime_list", _float_list, (0.0, 0.5)),
        stop_max_u=_get(cp, "flow", "stop_max_u", float, None),
    )
    run_id = _get(cp, "run", "id", str, None) or _slug(f"{background}-{family}")
    seed = _get(cp, "run", "seed", int, None)
    prescribe = {"amplitude": _get(cp, "prescribe", "amplitude", float, 0.1)}
    return RunManifest(
        run_id=run_id,
        background=background,
        initial_data=initial,
        grid=grid,
        flow=flow,
        seed=seed,
        prescribe=prescribe,
    )


def parse_config(path) -> RunManifest:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text(), source=str(path))


def serialize_manifest(manifest: RunManifest) -> str:
    """INI text that parses back to an equal manifest."""
    f = manifest.flow
    lines = [
        "[run]",
        f"id = {manifest.run_id}",
    ]
    if manifest.seed is not None:
        lines.append(f"seed = {manifest.seed}")
    lines += [
        "",
        "[grid]",
        f"n = {manifest.grid['n']}",
        f"r_in = {manifest.grid['r_in']:.17g}",
        f"R_max = {manifest.grid['R_max']:.17g}",
        f"M = {manifest.grid['M']}",
        f"policy = {manifest.grid['policy']}",
        "",
        "[background]",
        f"name = {manifest.background}",
        "",
        "[initial]",
        f"family = {manifest.initial_data['family']}",
    ]
    for key, value in manifest.initial_data.items():
        if key != "family":
            lines.append(f"{key} = {value:.17g}")
    lines += [
        "",
        "[flow]",
        f"scheme = {f.scheme}",
        f"dt0 = {f.dt0:.17g}",
        f"dt_max = {'' if f.dt_max is None else format(f.dt_max, '.17g')}",
        f"newton_tol = {f.newton_tol:.17g}",
        f"newton_max = {f.newton_max}",
        f"t_end = {f.t_end:.17g}",
        f"monitor_every = {f.monitor_every}",
        f"checkpoint_every = {f.checkpoint_every}",
        f"safety = {f.safety:.17g}",
        f"stop_max_u = {'' if f.stop_max_u is None else format(f.stop_max_u, '.17g')}",
        "",
        "[monitor]",
        f"p_list = {'' if f.p_list is None else ', '.join(format(p, '.17g') for p in f.p_list)}",
        f"tau_prime_list = {', '.join(format(tp, '.17g') for tp in f.tau_prime_list)}",
        "",
        "[prescribe]",
        f"amplitude = {manifest.prescribe.get('amplitude', 0.1):.17g}",
    ]
    return "\n".join(lines) + "\n"


def build_run(manifest: RunManifest):
    """Instantiate (grid, background, initial data, flow config)."""
    g = manifest.grid
    grid = build_grid(g["n"], g["r_in"], g["R_max"], g["M"], g["policy"])
    bg = background_from_name(manifest.background, grid)
    params = manifest.initial_data
    family = params["family"]
    if family == "flat":
        init = flat_data(grid)
    elif family == "schwarzschild":
        init = schwarzschild_data(g["n"], params["m"], grid)
    elif family == "gaussian_bump":
        init = gaussian_bump_data(grid, params["eps"], params["sigma"])
    elif family == "newtonian":
        init = newtonian_data(grid, bump_source(grid, params["total"], params["radius"]))
    else:
        raise ConfigError(f"unknown initial-data family {family!r}")
    return grid, bg, init, manifest.flow


# ---------------------------------------------------------------------------
# monitor CSV

_FIXED_COLUMNS = ("t", "sup_R", "min_R", "l1_R", "mass", "min_u", "max_u")


def monitor_columns(p_list, tau_list) -> list:
    cols = list(_FIXED_COLUMNS)
    cols += [f"lpR_p{p:g}" for p in p_list]
    cols += [f"wsupR_tau{tp:g}" for tp in tau_list]
    return cols


def write_monitor_csv(path, records, p_list, tau_list) -> None:
    cols = monitor_columns(p_list, tau_list)
    lines = [
        "# one row per monitor record; lpR_p<x> = integral of |R|^p dV_t,"
        " wsupR_tau<y> = sup max(r,1)^y |R| (boundary stencil nodes excluded)",
        ",".join(cols),
    ]
    for rec in records:
        row = [rec.t, rec.sup_R, rec.min_R, rec.l1_R, rec.mass, rec.min_u, rec.max_u]
        row += [rec.lp_R[p] for p in p_list]
        row += [rec.weighted_sup_R[tp] for tp in tau_list]
        lines.append(",".join(f"{x:.17g}" for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_monitor_csv(path):
    """Return (records, p_list, tau_list) parsed back from the CSV."""
    lines = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    if not lines:
        raise SchemaError(f"monitor CSV {path} is empty")
    header = lines[0].split(",")
    for col in _FIXED_COLUMNS:
        if col not in header:
            raise SchemaError(f"monitor CSV missing column {col!r}")
    p_list = [float(c[len("lpR_p"):]) for c in header if c.startswith("lpR_p")]
    tau_list = [float(c[len("wsupR_tau"):]) for c in header if c.startswith("wsupR_tau")]
    records = []
    for line in lines[1:]:
        vals = dict(zip(header, (float(x) for x in line.split(","))))
        records.append(
            MonitorRecord(
                t=vals["t"],
                sup_R=vals["sup_R"],
                min_R=vals["min_R"],
                l1_R=vals["l1_R"],
                mass=vals["mass"],
                min_u=vals["min_u"],
                max_u=vals["max_u"],
                lp_R={p: vals[f"lpR_p{p:g}"] for p in p_list},
                weighted_sup_R={tp: vals[f"wsupR_tau{tp:g}"] for tp in tau_list},
            )
        )
    return records, p_list, tau_list


# ---------------------------------------------------------------------------
# simulate

def _manifest_json(manifest: RunManifest) -> dict:
    f = manifest.flow
    return {
        "run_id": manifest.run_id,
        "background": manifest.background,
        "initial_data": manifest.initial_data,
        "grid": manifest.grid,
        "flow": {
            "scheme": f.scheme,
            "dt0": f.dt0,
            "dt_max": f.dt_max,
            "newton_tol": f.newton_tol,
            "newton_max": f.newton_max,
            "t_end": f.t_end,
            "monitor_every": f.monitor_every,
            "checkpoint_every": f.checkpoint_every,
            "safety": f.safety,
            "p_list": list(f.p_list) if f.p_list is not None else None,
            "tau_prime_list": list(f.tau_prime_list),
            "stop_max_u": f.stop_max_u,
        },
        "seed": manifest.seed,
        "created_at": manifest.created_at,
        "prescribe": manifest.prescribe,
        "artifact_paths": manifest.artifact_paths,
    }


def manifest_from_json(data: dict) -> RunManifest:
    fw = data["flow"]
    flow = FlowConfig(
        scheme=fw["scheme"],
        dt0=fw["dt0"],
        dt_max=fw["dt_max"],
        newton_tol=fw["newton_tol"],
        newton_max=fw["newton_max"],
        t_end=fw["t_end"],
        monitor_every=fw["monitor_every"],
        checkpoint_every=fw["checkpoint_every"],
        safety=fw["safety"],
        p_list=tuple(fw["p_list"]) if fw["p_list"] is not None else None,
        tau_prime_list=tuple(fw["tau_prime_list"]),
        stop_max_u=fw["stop_max_u"],
    )
    return RunManifest(
        run_id=data["run_id"],
        background=data["background"],
        initial_data=data["initial_data"],
        grid=data["grid"],
        flow=flow,
        seed=data.get("seed"),
        created_at=data.get("created_at"),
        prescribe=data.get("prescribe", {}),
        artifact_paths=data.get("artifact_paths", {}),
    )


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_simulate(manifest: RunManifest, out_root) -> int:
    """Run the flow and persist every artifact under out_root/run_id."""
    rundir = Path(out_root) / manifest.run_id
    if rundir.exists():
        raise ConfigError(f"run directory already exists: {rundir}")
    rundir.mkdir(parents=True)
    manifest = replace(manifest, created_at=datetime.now(timezone.utc).isoformat())

    grid, bg, init, cfg = build_run(manifest)
    result = run_flow(bg, init, cfg)

    paths = {
        "monitor": "monitor.csv",
        "final_state": "final_state.csv",
        "summary": "summary.json",
        "config": "config.ini",
        "manifest": "manifest.json",
        "checkpoints": "checkpoints",
    }
    p_list = cfg.monitored_p(bg.n)
    write_monitor_csv(rundir / paths["monitor"], result.records, p_list, cfg.tau_prime_list)
    write_field_csv(result.final.u, rundir / paths["final_state"], header="r,u")

    ckdir = rundir / paths["checkpoints"]
    ckdir.mkdir()
    for ck in result.checkpoints:
        stem = f"ckpt_{ck.step_index:08d}"
        write_field_csv(ck.u, ckdir / f"{stem}.csv", header="r,u")
        _write_json(
            ckdir / f"{stem}.json",
            {"t": ck.t, "dt": ck.dt, "step_index": ck.step_index,
             "background_name": bg.name},
        )

    last = result.records[-1]
    _write_json(
        rundir / paths["summary"],
        {
            "run_id": manifest.run_id,
            "halted": result.halted,
            "halt_reason": result.halt_reason,
            "final_t": result.final.t,
            "final_sup_R": last.sup_R,
            "mass_series_endpoints": [result.records[0].mass, last.mass],
            "max_u_final": last.max_u,
            "steps": result.final.step_index,
            "valid_t_max": result.valid_t_max,
        },
    )
    manifest = replace(manifest, artifact_paths=paths)
    (rundir / paths["config"]).write_text(serialize_manifest(manifest))
    _write_json(rundir / paths["manifest"], _manifest_json(manifest))
    for rel in ("monitor", "final_state", "summary", "config", "manifest", "checkpoints"):
        if not (rundir / paths[rel]).exists():
            raise YlabError(f"artifact {rel} missing after run")
    return 3 if result.halted else 0


# ---------------------------------------------------------------------------
# report

@dataclass
class RunContext:
    rundir: Path
    manifest: RunManifest
    grid: object
    bg: object
    records: list
    summary: dict

    def checkpoints(self):
        ckdir = self.rundir / "checkpoints"
        out = []
        for meta_path in sorted(ckdir.glob("ckpt_*.json")):
            meta = json.loads(meta_path.read_text())
            radii, values = read_field_csv(meta_path.with_suffix(".csv"))
            from .grids import bind_field

            out.append((meta["t"], bind_field(self.grid, radii, values)))
        return out


def load_run(rundir) -> RunContext:
    rundir = Path(rundir)
    manifest_path = rundir / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"{rundir} is not a run directory (no manifest.json)")
    manifest = manifest_from_json(json.loads(manifest_path.read_text()))
    g = manifest.grid
    grid = build_grid(g["n"], g["r_in"], g["R_max"], g["M"], g["policy"])
    bg = background_from_name(manifest.background, grid)
    records, _, _ = read_monitor_csv(rundir / "monitor.csv")
    summary = json.loads((rundir / "summary.json").read_text())
    return RunContext(rundir, manifest, grid, bg, records, summary)


def _skip_transient(records, count=5):
    return records[count:] if len(records) > count + 2 else records


def _audit_fixed_point(ctx: RunContext) -> diag.Verdict:
    bound = 10.0 * ctx.grid.h**2
    worst = max(r.sup_R for r in ctx.records)
    return diag.Verdict(
        "fixed-point", worst <= bound, {"max_sup_R": worst, "bound": bound}
    )


def _audit_mass_drift(ctx: RunContext) -> diag.Verdict:
    m0 = ctx.records[0].mass
    drift = max(abs(r.mass - m0) for r in ctx.records)
    bound = 1e-2 * max(abs(m0), 1.0)
    return diag.Verdict(
        "mass-drift", drift <= bound, {"drift": drift, "bound": bound, "m0": m0}
    )


def _audit_lp_monotone(ctx: RunContext) -> diag.Verdict:
    n = ctx.grid.n
    series = [r.lp_R[n / 2.0] for r in _skip_transient(ctx.records)]
    audit = diag.audit_monotone(series, diag.NONINCREASING, 1e-8, quantity=f"lpR_p{n / 2:g}")
    return diag.Verdict("lp-monotone", audit.passed, audit.to_json())


def _audit_lp_window(ctx: RunContext) -> diag.Verdict:
    n = ctx.grid.n
    details = {}
    ok = True
    for p in (n / 2.0 - 0.1, n / 2.0 + 0.1):
        series = [r.lp_R[p] for r in _skip_transient(ctx.records)]
        audit = diag.audit_monotone(series, diag.NONINCREASING, 1e-8, quantity=f"lpR_p{p:g}")
        details[f"p={p:g}"] = audit.to_json()
        ok = ok and audit.passed
    return diag.Verdict("lp-monotone-window", ok, details)


def _audit_min_r(ctx: RunContext) -> diag.Verdict:
    series = [r.min_R for r in ctx.records]
    audit = diag.audit_monotone(
        series, diag.NONDECREASING, 10.0 * ctx.grid.h**2, quantity="min_R"
    )
    return diag.Verdict("min-r-monotone", audit.passed, audit.to_json())


def _decay_window(ctx: RunContext):
    t_hi = min(ctx.records[-1].t, ctx.summary.get("valid_t_max", math.inf))
    return (t_hi / 2.0, t_hi)


def _audit_sup_r_decay(ctx: RunContext) -> diag.Verdict:
    ts = [r.t for r in ctx.records]
    ys = [r.sup_R for r in ctx.records]
    try:
        fit = diag.fit_decay_exponent(ts, ys, window=_decay_window(ctx))
    except YlabError as exc:
        return diag.Verdict("sup-r-decay", False, {"error": str(exc)})
    passed = fit.exponent <= -1.0 and fit.r_squared >= 0.9
    return diag.Verdict("sup-r-decay", passed, fit.to_json())


def _audit_convergence(ctx: RunContext) -> diag.Verdict:
    try:
        u_inf, _ = solve_scalar_flat(ctx.bg)
    except NonPositiveYamabeError:
        return diag.Verdict("convergence", None, skipped_reason="no scalar-flat limit (Y <= 0)")
    try:
        rep = diag.convergence_to_limit(
            ctx.checkpoints(), u_inf, 0.0,
            valid_t_max=ctx.summary.get("valid_t_max"),
        )
    except YlabError as exc:
        return diag.Verdict("convergence", False, {"error": str(exc)})
    if rep.zero_series:
        return diag.Verdict("convergence", True, {"zero_series": True})
    return diag.Verdict(
        "convergence", rep.fit.exponent < 0.0,
        {"fit": rep.fit.to_json(), "terminal_norm": rep.norms[-1]},
    )


def _audit_mass_drop(ctx: RunContext) -> diag.Verdict:
    n = ctx.grid.n
    try:
        u_inf, _ = solve_scalar_flat(ctx.bg)
        from .flow import adm_mass

        m_inf = adm_mass(u_inf)
    except NonPositiveYamabeError:
        return diag.Verdict("mass-drop", None, skipped_reason="no scalar-flat limit (Y <= 0)")
    records = [r for r in ctx.records if r.t <= ctx.summary.get("valid_t_max", math.inf)]
    rep = diag.mass_drop_report(records, m_inf, n)
    m0 = records[0].mass
    ok = (
        rep.drift_rel <= 1e-2
        and rep.drop_error <= 0.05 * max(abs(rep.drop_expected), 1.0)
        and rep.combination_error <= 0.05 * max(abs(m0), 1.0)
    )
    details = rep.to_json()
    details["m_inf"] = m_inf
    return diag.Verdict("mass-drop", ok, details)


def _audit_spacetime(ctx: RunContext) -> diag.Verdict:
    applicable = not ctx.summary.get("halted", False)
    return diag.spacetime_decay_audit(
        ctx.checkpoints(), ctx.bg, tau_prime=0.5, delta0=0.1, applicable=applicable
    )


def _audit_blowup(ctx: RunContext) -> diag.Verdict:
    max_u = max(r.max_u for r in ctx.records)
    ok = ctx.summary.get("halted", False) or max_u >= 1e3
    return diag.Verdict(
        "blowup", ok, {"halted": ctx.summary.get("halted"), "max_u": max_u}
    )


_AUDITS = {
    "fixed-point": _audit_fixed_point,
    "mass-drift": _audit_mass_drift,
    "lp-monotone": _audit_lp_monotone,
    "lp-monotone-window": _audit_lp_window,
    "min-r-monotone": _audit_min_r,
    "sup-r-decay": _audit_sup_r_decay,
    "convergence": _audit_convergence,
    "mass-drop": _audit_mass_drop,
    "spacetime-decay": _audit_spacetime,
    "blowup": _audit_blowup,
}


def cmd_report(run_dirs, audits, out=None, plots=False) -> int:
    """Aggregate audits over run directories; exit 4 when a required one fails."""
    for name in audits:
        if name not in _AUDITS:
            raise ConfigError(f"unknown audit {name!r}; known: {sorted(_AUDITS)}")
    runs = []
    any_failed = False
    for rundir in run_dirs:
        ctx = load_run(rundir)
        verdicts = [_AUDITS[name](ctx) for name in audits]
        any_failed |= any(v.passed is False for v in verdicts)
        runs.append({"run_id": ctx.manifest.run_id, "audits": [v.to_json() for v in verdicts]})
        if plots:
            ts = [r.t for r in ctx.records]
            ys = [r.sup_R for r in ctx.records]
            try:
                svg_line_chart(
                    Path(rundir) / "sup_R.svg", ts, ys,
                    title=f"{ctx.manifest.run_id}: sup |R|",
                    xlabel="t", ylabel="sup |R|", loglog=True,
                )
            except ValueError:
                pass

    report = {"runs": runs, "audits_requested": list(audits)}
    out_path = Path(out) if out else Path(run_dirs[0]).parent / "report.json"
    _write_json(out_path, report)

    print(f"{'run':<32} {'audit':<22} {'result':<8} detail")
    for run in runs:
        for v in run["audits"]:
            status = "PASS" if v["pass"] else ("SKIP" if v["pass"] is None else "FAIL")
            detail = v["skipped_reason"] or _short_detail(v["details"])
            print(f"{run['run_id']:<32} {v['name']:<22} {status:<8} {detail}")
    print(f"report written to {out_path}")
    return 4 if any_failed else 0


def _short_detail(details: dict) -> str:
    parts = []
    for key, value in list(details.items())[:3]:
        if isinstance(value, float):
            parts.append(f"{key}={value:.3g}")
        elif isinstance(value, (int, bool, str)):
            parts.append(f"{key}={value}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# sweep

def _apply_overrides(text: str, overrides: dict) -> str:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read_string(text)
    for dotted, value in overrides.items():
        section, _, key = dotted.partition(".")
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, value)
    from io import StringIO

    buf = StringIO()
    cp.write(buf)
    return buf.getvalue()


def _sweep_worker(args) -> tuple:
    text, out_root, run_id = args
    manifest = parse_config_text(text)
    manifest = replace(manifest, run_id=run_id)
    try:
        status = cmd_simulate(manifest, out_root)
    except (ConvergenceError, NonPositiveYamabeError, FlowSingularityError) as exc:
        return run_id, 3, str(exc)
    return run_id, status, ""


def cmd_sweep(config_path, params, out_root, jobs, audits) -> int:
    """Cartesian sweep: independent runs in a worker pool, then a report."""
    base_text = Path(config_path).read_text()
    base = parse_config_text(base_text)

    axes = []
    for raw in params:
        dotted, _, values = raw.partition("=")
        if not values:
            raise ConfigError(f"malformed --param {raw!r} (need section.key=v1;v2)")
        section = dotted.partition(".")[0]
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section in --param {raw!r}")
        axes.append((dotted, values.split(";")))

    combos = [{}]
    for dotted, values in axes:
        combos = [dict(c, **{dotted: v}) for c in combos for v in values]

    tasks = []
    for idx, combo in enumerate(combos):
        run_id = f"{base.run_id}-{idx:03d}"
        tasks.append((_apply_overrides(base_text, combo), str(out_root), run_id))

    results = []
    if jobs <= 1:
        results = [_sweep_worker(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_worker, tasks))

    for run_id, status, message in results:
        note = f" ({message})" if message else ""
        print(f"sweep run {run_id}: exit {status}{note}")

    run_dirs = [Path(out_root) / run_id for run_id, _, _ in results]
    return cmd_report(run_dirs, audits, out=Path(out_root) / "report.json")


# ---------------------------------------------------------------------------
# elliptic subcommands

def _solver_outdir(out_root, name) -> Path:
    outdir = Path(out_root) / name
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def cmd_scalar_flat(manifest: RunManifest, out_root) -> int:
    grid, bg, _, _ = build_run(manifest)
    outdir = _solver_outdir(out_root, f"scalar-flat-{_slug(bg.name)}")
    try:
        u_inf, report = solve_scalar_flat(bg)
    except NonPositiveYamabeError as exc:
        payload = {"converged": False, "error": str(exc)}
        if exc.solution is not None:
            write_field_csv(exc.solution, outdir / "u_inf.csv")
        _write_json(outdir / "solve_report.json", payload)
        print(f"scalar-flat: no positive solution ({exc})")
        return 3
    write_field_csv(u_inf, outdir / "u_inf.csv")
    from .flow import adm_mass
    from .grids import truncation_tail_bound

    tail = truncation_tail_bound(bg.decay_constant, 2.0 + bg.tau, grid)
    _write_json(
        outdir / "solve_report.json",
        {
            "converged": report.converged,
            "iterations": report.iterations,
            "final_residual": report.final_residual,
            "positivity": report.positivity,
            "tolerance": report.tolerance,
            "mass_of_limit": adm_mass(u_inf),
            # None when the R0 tail is not integrable against r^{n-1} dr
            "r0_truncation_tail_bound": tail if math.isfinite(tail) else None,
        },
    )
    print(f"scalar-flat: converged={report.converged} residual={report.final_residual:.3e}")
    return 0


def cmd_yamabe_sign(manifest: RunManifest, out_root) -> int:
    grid, bg, _, _ = build_run(manifest)
    outdir = _solver_outdir(out_root, f"yamabe-sign-{_slug(bg.name)}")
    result = yamabe_sign(bg)
    write_field_csv(result.certificate, outdir / "certificate.csv")
    payload = {
        "sign": result.sign,
        "low_confidence": result.low_confidence,
        "quotient": result.quotient,
        "trial_params": list(result.trial_params) if result.trial_params else None,
    }
    if result.report is not None:
        payload["solve_report"] = {
            "converged": result.report.converged,
            "iterations": result.report.iterations,
            "final_residual": result.report.final_residual,
            "positivity": result.report.positivity,
            "tolerance": result.report.tolerance,
        }
    _write_json(outdir / "sign.json", payload)
    print(f"yamabe-sign: {result.sign}"
          + (f" (Q = {result.quotient:.4g})" if result.quotient is not None else ""))
    return 0


def cmd_prescribe(manifest: RunManifest, out_root) -> int:
    grid, bg, _, _ = build_run(manifest)
    outdir = _solver_outdir(out_root, f"prescribe-{_slug(bg.name)}")
    c = manifest.prescribe.get("amplitude", 0.1)
    target = RadialField(
        grid, -c * (1.0 + grid.nodes**2) ** (-(2.0 + bg.tau) / 2.0)
    )
    try:
        phi, report = prescribe_scalar_curvature(bg, target)
    except (HypothesisViolationError, ConvergenceError) as exc:
        _write_json(outdir / "solve_report.json", {"converged": False, "error": str(exc)})
        print(f"prescribe: failed ({exc})")
        return 3
    write_field_csv(phi, outdir / "phi.csv")
    write_field_csv(target, outdir / "target.csv")
    _write_json(
        outdir / "solve_report.json",
        {
            "converged": report.converged,
            "iterations": report.iterations,
            "final_residual": report.final_residual,
            "positivity": report.positivity,
            "tolerance": report.tolerance,
        },
    )
    print(f"prescribe: converged in {report.iterations} Newton steps")
    return 0


# ---------------------------------------------------------------------------
# entry point

def _default_out() -> str:
    return os.environ.get("YLAB_OUT", "ylab-out")


def _manifest_from_args(args) -> RunManifest:
    if args.config:
        manifest = parse_config(args.config)
    else:
        manifest = parse_config_text("")
    if getattr(args, "background", None):
        manifest = replace(
            manifest,
            background=args.background,
            run_id=_slug(f"{args.background}-{manifest.initial_data['family']}"),
        )
    if getattr(args, "seed", None) is not None:
        manifest = replace(manifest, seed=args.seed)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ylab",
        description="Yamabe-flow laboratory on asymptotically flat radial backgrounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
        if config:
            p.add_argument("--config", help="INI config path")
            p.add_argument("--background", help="catalog name, e.g. flat3 or synthetic:A=-50,rc=2,sigma=1,tau=1")
            p.add_argument("--seed", type=int, help="stored in the manifest (pipeline is deterministic)")
        p.add_argument("--out", default=_default_out(), help="output root (default $YLAB_OUT or ./ylab-out)")

    p_sim = sub.add_parser("simulate", help="run one flow and persist artifacts")
    add_common(p_sim)

    p_sf = sub.add_parser("scalar-flat", help="solve the scalar-flat conformal factor")
    add_common(p_sf)

    p_ys = sub.add_parser("yamabe-sign", help="certify the sign of the Yamabe constant")
    add_common(p_ys)

    p_pr = sub.add_parser("prescribe", help="prescribe a negative curvature profile")
    add_common(p_pr)

    p_sw = sub.add_parser("sweep", help="Cartesian parameter sweep of simulate")
    add_common(p_sw)
    p_sw.add_argument("--param", action="append", default=[],
                      help="section.key=v1;v2;... (repeatable, Cartesian product)")
    p_sw.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                      help="worker pool size (1 = sequential, deterministic)")
    p_sw.add_argument("--audits", default="", help="comma-separated audit names for the report")

    p_rep = sub.add_parser("report", help="audit one or more completed runs")
    p_rep.add_argument("run_dirs", nargs="+", help="run directories to audit")
    p_rep.add_argument("--audits", default="", help="comma-separated audit names (required set)")
    p_rep.add_argument("--out", default=None, help="report.json path")
    p_rep.add_argument("--plots", action="store_true", help="emit log-log SVG charts")

    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(_manifest_from_args(args), args.out)
        if args.command == "scalar-flat":
            return cmd_scalar_flat(_manifest_from_args(args), args.out)
        if args.command == "yamabe-sign":
            return cmd_yamabe_sign(_manifest_from_args(args), args.out)
        if args.command == "prescribe":
            return cmd_prescribe(_manifest_from_args(args), args.out)
        if args.command == "sweep":
            if not args.config:
                raise ConfigError("sweep requires --config")
            audits = [a for a in args.audits.split(",") if a]
            return cmd_sweep(args.config, args.param, args.out, args.jobs, audits)
        if args.command == "report":
            audits = [a for a in args.audits.split(",") if a]
            return cmd_report(args.run_dirs, audits, out=args.out, plots=args.plots)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, NonPositiveYamabeError, FlowSingularityError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
