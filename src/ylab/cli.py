"""Command-line front end: configs, runs, sweeps, persistence, reports.

Configuration is INI-style ``key = value`` under the sections [run] [grid]
[background] [initial] [flow] [monitor] [prescribe]; unknown sections or
keys abort before any compute (fail-closed).  Every run writes a manifest,
the monitor CSV, one binary checkpoint series with its JSON time columns,
the final state, and a summary; `report` turns monitor series and
checkpoints into audit verdicts.

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
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from io import StringIO
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
    MONITOR_SCALARS,
    Checkpoint,
    FlowConfig,
    MonitorRecord,
    adm_mass,
    far_field_window,
    run_flow,
)
from .grids import (
    RadialField,
    build_grid,
    read_field_series,
    truncation_tail_bound,
    write_field_csv,
    write_field_series,
)
from .svgplot import svg_line_chart

_GRID_DEFAULTS = {"n": 3, "r_in": 0.0, "R_max": 256.0, "M": 1024, "policy": "log-stretched"}

# initial-data family -> (parameter defaults in config order, builder(grid, **params))
_FAMILIES = {
    "flat": ({}, lambda grid: flat_data(grid)),
    "schwarzschild": ({"m": 1.0}, lambda grid, m: schwarzschild_data(grid.n, m, grid)),
    "gaussian_bump": (
        {"eps": 0.2, "sigma": 1.0},
        lambda grid, eps, sigma: gaussian_bump_data(grid, eps, sigma),
    ),
    "newtonian": (
        {"total": 4.0 * math.pi, "radius": 4.0},
        lambda grid, total, radius: newtonian_data(grid, bump_source(grid, total, radius)),
    ),
}

# FlowConfig fields are the [flow] keys, except these, which form [monitor]
_MONITOR_KEYS = ("p_list", "tau_prime_list")

_SCHEMA = {
    "run": {"id", "seed"},
    "grid": {key.lower() for key in _GRID_DEFAULTS},
    "background": {"name"},
    "initial": {"family"}.union(*(defaults for defaults, _ in _FAMILIES.values())),
    "flow": {f.name for f in fields(FlowConfig) if f.name not in _MONITOR_KEYS},
    "monitor": set(_MONITOR_KEYS),
    "prescribe": {"amplitude"},
}


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
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def _float_list(raw: str) -> tuple:
    return tuple(float(x) for x in raw.split(",") if x.strip() != "")


def _flow_cast(annotation):
    """Config cast of a FlowConfig field type: the type without None; tuples are float lists."""
    base = next(t for t in typing.get_args(annotation) or (annotation,) if t is not type(None))
    return _float_list if base is tuple else base


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
        key: _get(cp, "grid", key, type(default), default)
        for key, default in _GRID_DEFAULTS.items()
    }
    background = _get(cp, "background", "name", str, "flat")
    family = _get(cp, "initial", "family", str, "flat")
    if family not in _FAMILIES:
        raise ConfigError(f"unknown initial-data family {family!r}")
    if cp.has_section("initial"):
        stray = sorted(set(cp.options("initial")) - {"family", *_FAMILIES[family][0]})
        if stray:
            raise ConfigError(f"[initial] keys {stray} do not belong to family {family!r}")
    initial = {"family": family}
    for key, default in _FAMILIES[family][0].items():
        initial[key] = _get(cp, "initial", key, type(default), default)

    hints = typing.get_type_hints(FlowConfig)
    flow = FlowConfig(**{
        f.name: _get(cp, "monitor" if f.name in _MONITOR_KEYS else "flow", f.name,
                     _flow_cast(hints[f.name]), f.default)
        for f in fields(FlowConfig)
    })
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


def _ini_value(value) -> str:
    """INI text of a value: floats as %.17g, tuples comma-separated, None empty."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ", ".join(_ini_value(x) for x in value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def serialize_manifest(manifest: RunManifest) -> str:
    """INI text that parses back to an equal manifest."""
    flow = asdict(manifest.flow)
    family = manifest.initial_data["family"]
    sections = {
        "run": {"id": manifest.run_id},
        "grid": {key: manifest.grid[key] for key in _GRID_DEFAULTS},
        "background": {"name": manifest.background},
        "initial": {
            "family": family,
            **{key: manifest.initial_data[key] for key in _FAMILIES[family][0]},
        },
        "flow": {key: value for key, value in flow.items() if key not in _MONITOR_KEYS},
        "monitor": {key: flow[key] for key in _MONITOR_KEYS},
        "prescribe": {"amplitude": manifest.prescribe.get("amplitude", 0.1)},
    }
    if manifest.seed is not None:
        sections["run"]["seed"] = manifest.seed
    lines = []
    for section, values in sections.items():
        lines += ["", f"[{section}]"]
        lines += [f"{key} = {_ini_value(value)}" for key, value in values.items()]
    return "\n".join(lines[1:]) + "\n"


def build_run(manifest: RunManifest):
    """Instantiate (grid, background, initial data, flow config)."""
    grid = build_grid(**manifest.grid)
    bg = background_from_name(manifest.background, grid)
    params = dict(manifest.initial_data)
    family = params.pop("family")
    if family not in _FAMILIES:
        raise ConfigError(f"unknown initial-data family {family!r}")
    init = _FAMILIES[family][1](grid, **params)
    return grid, bg, init, manifest.flow


# ---------------------------------------------------------------------------
# monitor CSV

def write_monitor_csv(path, records, p_list, tau_list) -> None:
    cols = [*MONITOR_SCALARS, *(f"lpR_p{p:g}" for p in p_list)]
    cols += [f"wsupR_tau{tp:g}" for tp in tau_list]
    lines = [
        "# one row per monitor record; lpR_p<x> = integral of |R|^p dV_t,"
        " wsupR_tau<y> = sup max(r,1)^y |R| (boundary stencil nodes excluded)",
        ",".join(cols),
    ]
    for rec in records:
        row = [getattr(rec, col) for col in MONITOR_SCALARS]
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
    for col in MONITOR_SCALARS:
        if col not in header:
            raise SchemaError(f"monitor CSV missing column {col!r}")
    p_list = [float(c[len("lpR_p"):]) for c in header if c.startswith("lpR_p")]
    tau_list = [float(c[len("wsupR_tau"):]) for c in header if c.startswith("wsupR_tau")]
    records = []
    for line in lines[1:]:
        vals = dict(zip(header, (float(x) for x in line.split(","))))
        records.append(
            MonitorRecord(
                **{col: vals[col] for col in MONITOR_SCALARS},
                lp_R={p: vals[f"lpR_p{p:g}"] for p in p_list},
                weighted_sup_R={tp: vals[f"wsupR_tau{tp:g}"] for tp in tau_list},
            )
        )
    return records, p_list, tau_list


# ---------------------------------------------------------------------------
# simulate

def manifest_from_json(data: dict) -> RunManifest:
    """Inverse of dataclasses.asdict on a RunManifest (JSON lists back to tuples)."""
    flow = {key: tuple(v) if isinstance(v, list) else v for key, v in data["flow"].items()}
    return RunManifest(**{**data, "flow": FlowConfig(**flow)})


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


_CHECKPOINT_COLUMNS = ("t", "dt", "step_index")


def write_checkpoints(path, checkpoints, background_name: str) -> None:
    """Persist checkpoints as one field series plus its time columns.

    ``path`` (``.npy``) holds the radii row and one row per snapshot; the
    ``.json`` beside it holds the t, dt and step_index columns and the
    background name.
    """
    path = Path(path)
    write_field_series([ck.u for ck in checkpoints], path)
    columns = {key: [getattr(ck, key) for ck in checkpoints] for key in _CHECKPOINT_COLUMNS}
    _write_json(path.with_suffix(".json"), {**columns, "background_name": background_name})


def read_checkpoints(path, grid) -> list:
    """Checkpoints written by write_checkpoints, bound to grid (one load of the series).

    A missing, truncated or malformed series, radii that differ from grid, or
    time columns whose lengths differ from the number of snapshots raise a
    ConfigError naming the file.
    """
    path = Path(path)
    try:
        fields = read_field_series(path, grid)
    except (OSError, ValueError, EOFError, YlabError) as exc:
        raise ConfigError(f"{path} is missing or unreadable: {exc!r}") from exc
    meta_path = path.with_suffix(".json")
    try:
        meta = json.loads(meta_path.read_text())
        columns = [meta[key] for key in _CHECKPOINT_COLUMNS]
        lengths = [len(column) for column in columns]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{meta_path} is missing or unreadable: {exc!r}") from exc
    if lengths != [len(fields)] * len(columns):
        raise ConfigError(
            f"{meta_path} has columns {dict(zip(_CHECKPOINT_COLUMNS, lengths))} long"
            f" for {len(fields)} snapshots in {path.name}"
        )
    return [Checkpoint(t, u, dt, step) for t, dt, step, u in zip(*columns, fields)]


def cmd_simulate(manifest: RunManifest, out_root) -> int:
    """Run the flow and persist every artifact under out_root/run_id."""
    rundir = Path(out_root) / manifest.run_id
    if rundir.exists():
        raise ConfigError(f"run directory already exists: {rundir}")
    manifest = replace(manifest, created_at=datetime.now(timezone.utc).isoformat())
    grid, bg, init, cfg = build_run(manifest)  # config errors leave no directory behind
    far_field_window(grid)  # so does a grid too coarse to read the mass off
    rundir.mkdir(parents=True)

    result = run_flow(bg, init, cfg)

    paths = {
        "monitor": "monitor.csv",
        "final_state": "final_state.csv",
        "summary": "summary.json",
        "config": "config.ini",
        "manifest": "manifest.json",
        "checkpoints": "checkpoints.npy",
    }
    p_list = cfg.monitored_p(bg.n)
    write_monitor_csv(rundir / paths["monitor"], result.records, p_list, cfg.tau_prime_list)
    write_field_csv(result.final.u, rundir / paths["final_state"], header="r,u")
    write_checkpoints(rundir / paths["checkpoints"], result.checkpoints, bg.name)

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
    _write_json(rundir / paths["manifest"], asdict(manifest))
    for rel, name in paths.items():
        if not (rundir / name).exists():
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

    _checkpoints: list | None = field(default=None, init=False, repr=False, compare=False)

    def checkpoints(self):
        """Checkpoints in step order (each unpacks as (t, u)), read on the first call only."""
        if self._checkpoints is None:
            self._checkpoints = read_checkpoints(self.rundir / "checkpoints.npy", self.grid)
        return self._checkpoints


def load_run(rundir) -> RunContext:
    rundir = Path(rundir)
    manifest_path = rundir / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"{rundir} is not a run directory (no manifest.json)")
    try:
        manifest = manifest_from_json(json.loads(manifest_path.read_text()))
        grid = build_grid(**manifest.grid)
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"{manifest_path} is malformed: {exc!r}") from exc
    bg = background_from_name(manifest.background, grid)
    monitor_path, summary_path = rundir / "monitor.csv", rundir / "summary.json"
    try:
        records, _, _ = read_monitor_csv(monitor_path)
    except (OSError, ValueError, KeyError, SchemaError) as exc:
        raise ConfigError(f"{monitor_path} is missing or unreadable: {exc!r}") from exc
    try:
        summary = json.loads(summary_path.read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{summary_path} is missing or unreadable: {exc!r}") from exc
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


def _lp_series(records, p: float) -> list:
    """The lpR_p<p> monitor column; SchemaError when the run did not monitor p."""
    try:
        return [r.lp_R[p] for r in records]
    except KeyError:
        raise SchemaError(f"monitor.csv has no lpR_p{p:g} column") from None


def _audit_lp_monotone(ctx: RunContext) -> diag.Verdict:
    n = ctx.grid.n
    series = _lp_series(_skip_transient(ctx.records), n / 2.0)
    audit = diag.audit_monotone(series, diag.NONINCREASING, 1e-8, quantity=f"lpR_p{n / 2:g}")
    return diag.Verdict("lp-monotone", audit.passed, audit.to_json())


def _audit_lp_window(ctx: RunContext) -> diag.Verdict:
    n = ctx.grid.n
    details = {}
    ok = True
    for p in (n / 2.0 - 0.1, n / 2.0 + 0.1):
        series = _lp_series(_skip_transient(ctx.records), p)
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
    checkpoints = ctx.checkpoints()  # an unreadable series is a ConfigError, not a verdict
    try:
        u_inf, _ = solve_scalar_flat(ctx.bg)
    except NonPositiveYamabeError:
        return diag.Verdict("convergence", None, skipped_reason="no scalar-flat limit (Y <= 0)")
    try:
        rep = diag.convergence_to_limit(
            checkpoints, u_inf, 0.0,
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
    "lp-inequality": lambda ctx: diag.lp_inequality_audit(
        ctx.records, ctx.grid.n / 2.0 + 0.1, ctx.grid.n
    ),
}


def _run_audit(name: str, ctx: RunContext) -> diag.Verdict:
    """One audit's verdict; a monitor column it needs but the run lacks fails it."""
    try:
        return _AUDITS[name](ctx)
    except SchemaError as exc:
        return diag.Verdict(name, False, {"error": str(exc)})


def cmd_report(run_dirs, audits, out=None, plots=False) -> int:
    """Aggregate audits over run directories; exit 4 when a required one fails."""
    for name in audits:
        if name not in _AUDITS:
            raise ConfigError(f"unknown audit {name!r}; known: {sorted(_AUDITS)}")
    runs = []
    any_failed = False
    for rundir in run_dirs:
        ctx = load_run(rundir)
        verdicts = [_run_audit(name, ctx) for name in audits]
        any_failed |= any(v.passed is False for v in verdicts)
        runs.append({"run_id": ctx.manifest.run_id, "audits": [v.to_json() for v in verdicts]})
        if plots:
            ts = [r.t for r in ctx.records]
            ys = [r.sup_R for r in ctx.records]
            try:
                svg_line_chart(
                    Path(rundir) / "sup_R.svg", ts, ys,
                    title=f"{ctx.manifest.run_id}: sup |R|",
                    xlabel="t", ylabel="sup |R|",
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
    far_field_window(grid)  # before any output: the report holds the limit's mass
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
    tail = truncation_tail_bound(bg.decay_constant, 2.0 + bg.tau, grid)
    _write_json(
        outdir / "solve_report.json",
        {
            **asdict(report),
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
        payload["solve_report"] = asdict(result.report)
    _write_json(outdir / "sign.json", payload)
    print(f"yamabe-sign: {result.sign}"
          + (" (low confidence)" if result.low_confidence else "")
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
    _write_json(outdir / "solve_report.json", asdict(report))
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

    def add_common(p):
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
