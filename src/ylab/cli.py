"""Command-line front end: configs, runs, persistence, reports.

Configuration is INI-style ``key = value`` under the sections [run] [grid]
[background] [initial] [flow]; unknown sections or keys abort before any
compute (fail-closed).  Every run writes its config as ``config.ini`` (the
one run description), the monitor CSV (whose columns the dimension fixes),
one binary checkpoint series with its JSON time columns, the final state,
and a summary; `report` checks a run's files once when it loads them and
hands its monitor series and checkpoints to the audits of `diagnostics`.
A sweep is a loop of `simulate --config` and one `report` over its run
directories.  The elliptic commands write their fields in the checkpoint
series' binary layout (write_field_npy).

Each command is a fresh process, so importing this module loads only what
every command runs: `report` alone imports `diagnostics`, `report --plots`
alone `svgplot`, and scipy's LAPACK module loads at the first tridiagonal
solve (module operators).  The run and solve records are NamedTuples or
plain classes, which cost a fraction of a dataclass to build at import.

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
from functools import cached_property
from pathlib import Path

import numpy as np

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
    PositivityError,
    SolveError,
    YlabError,
)
from .flow import (
    HALT_REASONS,
    TAU_PRIME,
    FlowConfig,
    FlowState,
    MonitorRecord,
    adm_mass,
    far_field_window,
    monitor_columns,
    run_flow,
    valid_time_horizon,
)
from .grids import RadialField, build_grid, truncation_tail_bound, write_field_csv

_GRID_DEFAULTS = {"n": 3, "r_in": 0.0, "R_max": 256.0, "M": 1024, "policy": "log-stretched"}

# initial-data family -> (parameter defaults in config order, builder(grid, **params))
_FAMILIES = {
    "flat": ({}, flat_data),
    "schwarzschild": ({"m": 1.0}, schwarzschild_data),
    "gaussian_bump": ({"eps": 0.2, "sigma": 1.0}, gaussian_bump_data),
    "newtonian": (
        {"total": 4.0 * math.pi, "radius": 4.0},
        lambda grid, total, radius: newtonian_data(grid, bump_source(grid, total, radius)),
    ),
}

_SCHEMA = {
    "run": {"id", "seed"},
    "grid": {key.lower() for key in _GRID_DEFAULTS},
    "background": {"name"},
    "initial": {"family"}.union(*(defaults for defaults, _ in _FAMILIES.values())),
    "flow": set(FlowConfig._fields),
}

# `prescribe` targets -PRESCRIBE_AMPLITUDE (1 + r^2)^(-(2+tau)/2)
PRESCRIBE_AMPLITUDE = 0.1


class _ManifestFields(typing.NamedTuple):
    run_id: str
    background: str
    initial_data: dict
    grid: dict
    flow: FlowConfig
    seed: int | None = None


class RunManifest(_ManifestFields):
    """Everything needed to reproduce one run; its run_id is checked when built (also by _replace)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # the id names the run directory, which must stay inside the output root
        if self.run_id in ("", ".", "..") or any(sep in self.run_id for sep in "/\\"):
            raise ConfigError(f"[run] id {self.run_id!r} is not a plain directory name")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _slug(text: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "_.-" else "_" for ch in text)


def _get(cp, section, key, cast, default):
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key).strip()
    if raw == "":
        return default
    try:
        value = cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a finite number")
    return value


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

    # each key is cast by the type of its default; an unset (None) default is a float
    flow = FlowConfig(**{
        name: _get(cp, "flow", name, float if default is None else type(default), default)
        for name, default in FlowConfig._field_defaults.items()
    })
    run_id = _get(cp, "run", "id", str, None) or _slug(f"{background}-{family}")
    seed = _get(cp, "run", "seed", int, None)
    return RunManifest(
        run_id=run_id,
        background=background,
        initial_data=initial,
        grid=grid,
        flow=flow,
        seed=seed,
    )


def parse_config(path) -> RunManifest:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text(), source=str(path))


def _ini_value(value) -> str:
    """INI text of a value: floats as %.17g, None empty."""
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def serialize_manifest(manifest: RunManifest) -> str:
    """INI text that parses back to an equal manifest."""
    family = manifest.initial_data["family"]
    sections = {
        "run": {"id": manifest.run_id},
        "grid": {key: manifest.grid[key] for key in _GRID_DEFAULTS},
        "background": {"name": manifest.background},
        "initial": {
            "family": family,
            **{key: manifest.initial_data[key] for key in _FAMILIES[family][0]},
        },
        "flow": manifest.flow._asdict(),
    }
    if manifest.seed is not None:
        sections["run"]["seed"] = manifest.seed
    lines = []
    for section, values in sections.items():
        lines += ["", f"[{section}]"]
        lines += [f"{key} = {_ini_value(value)}" for key, value in values.items()]
    return "\n".join(lines[1:]) + "\n"


def build_background(manifest: RunManifest):
    """Instantiate (grid, background): all that the elliptic commands and report need."""
    grid = build_grid(**manifest.grid)
    return grid, background_from_name(manifest.background, grid)


def build_run(manifest: RunManifest):
    """Instantiate (grid, background, initial factor u0, flow config)."""
    grid, bg = build_background(manifest)
    params = dict(manifest.initial_data)
    u0 = _FAMILIES[params.pop("family")][1](grid, **params)
    return grid, bg, u0, manifest.flow


# ---------------------------------------------------------------------------
# monitor CSV

def write_monitor_csv(path, records, n: int) -> None:
    """One row per record: its fields in order, under the header monitor_columns(n)."""
    lines = [
        f"# one row per monitor record; wsup_R = sup max(r,1)^{TAU_PRIME:g} |R|"
        " (boundary stencil nodes excluded), lpR_p<x> = integral of |R|^p dV_t",
        ",".join(monitor_columns(n)),
    ]
    for rec in records:
        lines.append(",".join(f"{value:.17g}" for value in rec))
    Path(path).write_text("\n".join(lines) + "\n")


def read_monitor_csv(path, n: int) -> list:
    """The monitor records of a run in dimension n parsed back from the CSV.

    ConfigError naming the file unless the header is exactly
    monitor_columns(n) and at least one row follows it, each with one value
    per column.
    """
    lines = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    columns = monitor_columns(n)
    if not lines or lines[0].split(",") != columns:
        raise ConfigError(f"monitor CSV {path} lacks the dimension-{n} header {','.join(columns)}")
    if len(lines) < 2:
        raise ConfigError(f"monitor CSV {path} holds no record")
    records = []
    for line in lines[1:]:
        values = [float(x) for x in line.split(",")]
        if len(values) != len(columns):
            raise ConfigError(f"monitor CSV {path} has a row of {len(values)} values")
        records.append(MonitorRecord(*values))
    return records


# ---------------------------------------------------------------------------
# simulate

def _finite_or_null(value):
    """value with every non-finite float, at any depth of dicts and lists, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def _write_json(path, payload) -> None:
    """payload as JSON, a non-finite float written as null (JSON has no NaN or Infinity)."""
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def _outdir(out_root, name) -> Path:
    """out_root/name, created if absent; one that cannot be created is a ConfigError."""
    outdir = Path(out_root) / name
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the output directory {outdir}: {exc}") from exc
    return outdir


def _write_npy_rows(path, rows) -> None:
    """Write equal-length rows as one C-order ``<f8`` ``.npy`` array, one row each.

    The header is written once and each row's bytes follow it, so no
    stacked copy of the rows is held.
    """
    header = {"descr": "<f8", "fortran_order": False, "shape": (len(rows), rows[0].size)}
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for row in rows:
            fh.write(row.astype("<f8", copy=False).tobytes())


def write_field_npy(f: RadialField, path) -> None:
    """Persist a field as a (2, M+1) ``<f8`` ``.npy`` array: the radii row, then the values.

    The elliptic commands' fields use it; ``phi.csv`` and ``final_state.csv``
    stay CSV (``grids.write_field_csv``) while the benchmark reads them.
    """
    _write_npy_rows(path, [f.grid.nodes, f.values])


# checkpoint time column -> the JSON numbers it holds
_CHECKPOINT_COLUMNS = {"t": (int, float), "dt": (int, float), "step_index": int}


def write_checkpoints(path, checkpoints) -> None:
    """Persist checkpoints as one ``.npy`` series plus its time columns.

    ``path`` holds a (K+1, M+1) little-endian float64 array: the radii row,
    then one row per snapshot (a field file is the K = 1 case).  The
    ``.json`` beside it holds the t, dt and step_index columns.
    """
    path = Path(path)
    _write_npy_rows(path, [checkpoints[0].u.grid.nodes, *(ck.u.values for ck in checkpoints)])
    columns = {key: [getattr(ck, key) for ck in checkpoints] for key in _CHECKPOINT_COLUMNS}
    _write_json(path.with_suffix(".json"), columns)


def read_checkpoints(path, grid) -> list:
    """FlowStates written by write_checkpoints, bound to grid (one load of the series).

    Each snapshot is a read-only view of its row.  A missing, truncated or
    malformed series (not a (K+1, M+1) ``<f8`` array), radii that differ from
    grid, a non-finite or nonpositive snapshot, time columns whose lengths
    differ from the number of snapshots, or a t or dt that is not a finite
    number or a step_index that is not an integer raise a ConfigError naming
    the file.
    """
    path = Path(path)
    try:
        data = np.load(path)
    except (OSError, ValueError, EOFError) as exc:
        raise ConfigError(f"{path} is missing or unreadable: {exc!r}") from exc
    size = grid.nodes.size
    if data.dtype != "<f8" or data.ndim != 2 or data.shape[0] < 1 or data.shape[1] != size:
        raise ConfigError(f"{path} holds a {data.dtype} array of shape {data.shape};"
                          f" expected (K+1, {size}) <f8")
    if not np.array_equal(data[0], grid.nodes):  # the writer stores the grid's own nodes
        raise ConfigError(f"{path} has radii that do not match the grid")
    rows = data[1:]
    meta_path = path.with_suffix(".json")
    try:
        meta = json.loads(meta_path.read_text())
        columns = [meta[key] for key in _CHECKPOINT_COLUMNS]
        lengths = [len(column) for column in columns]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{meta_path} is missing or unreadable: {exc!r}") from exc
    if lengths != [len(rows)] * len(columns):
        raise ConfigError(
            f"{meta_path} has columns {dict(zip(_CHECKPOINT_COLUMNS, lengths))} long"
            f" for {len(rows)} snapshots in {path.name}"
        )
    for (key, kinds), column in zip(_CHECKPOINT_COLUMNS.items(), columns):
        for x in column:
            if (isinstance(x, bool) or not isinstance(x, kinds)
                    or isinstance(x, float) and not math.isfinite(x)):
                raise ConfigError(f"{meta_path} has a {key} entry {x!r} that is not a"
                                  f" finite {'integer' if kinds is int else 'number'}")
    try:
        return [FlowState(t, RadialField(grid, u), dt, step)
                for t, dt, step, u in zip(*columns, rows)]
    except (ParameterError, PositivityError) as exc:
        raise ConfigError(f"{path} holds a non-finite or nonpositive snapshot: {exc}") from exc


def cmd_simulate(manifest: RunManifest, out_root) -> int:
    """Run the flow and persist every artifact under out_root/run_id."""
    rundir = Path(out_root) / manifest.run_id
    if rundir.exists():
        raise ConfigError(f"run directory already exists: {rundir}")
    grid, bg, u0, cfg = build_run(manifest)  # config errors leave no directory behind
    # so does a run that cannot read the mass off its grid, or whose monitor overflows
    result = run_flow(bg, u0, cfg)
    _outdir(out_root, manifest.run_id)
    final = result.checkpoints[-1]

    write_monitor_csv(rundir / "monitor.csv", result.records, grid.n)
    write_field_csv(final.u, rundir / "final_state.csv", header="r,u")
    write_checkpoints(rundir / "checkpoints.npy", result.checkpoints)

    last = result.records[-1]
    _write_json(
        rundir / "summary.json",
        {
            "run_id": manifest.run_id,
            "halt_reason": result.halt_reason,
            "final_t": final.t,
            "final_sup_R": last.sup_R,
            "mass_series_endpoints": [result.records[0].mass, last.mass],
            "max_u_final": last.max_u,
            "steps": final.step_index,
            "valid_t_max": valid_time_horizon(grid),
            **vars(result.work),
        },
    )
    (rundir / "config.ini").write_text(serialize_manifest(manifest))
    return 3 if result.halted else 0


# ---------------------------------------------------------------------------
# report

class RunContext:
    """One run as the audits read it.

    load_run reads a run directory, whose checkpoint series checkpoints()
    loads on its first call.
    """

    def __init__(self, rundir: Path | None, manifest: RunManifest, grid, bg, records: list,
                 halt_reason: str | None):
        self.rundir = rundir
        self.manifest = manifest
        self.grid = grid
        self.bg = bg
        self.records = records
        self.halt_reason = halt_reason
        self._checkpoints = None

    @property
    def halted(self) -> bool:
        return self.halt_reason is not None

    def checkpoints(self):
        """Checkpoints in step order (each unpacks as (t, u)), read on the first call only."""
        if self._checkpoints is None:
            self._checkpoints = read_checkpoints(self.rundir / "checkpoints.npy", self.grid)
        return self._checkpoints

    @cached_property
    def limit(self):
        """The scalar-flat limit u_inf, or None when Y <= 0; solved on first use only."""
        try:
            return solve_scalar_flat(self.bg)[0]
        except NonPositiveYamabeError:
            return None


def load_run(rundir) -> RunContext:
    """A run directory as written by cmd_simulate, described by its config.ini."""
    rundir = Path(rundir)
    config_path = rundir / "config.ini"
    if not config_path.exists():
        raise ConfigError(f"{rundir} is not a run directory (no config.ini)")
    try:
        manifest = parse_config(config_path)
        grid, bg = build_background(manifest)
    except (ConfigError, ParameterError) as exc:
        raise ConfigError(f"{config_path} is malformed: {exc}") from exc
    monitor_path, summary_path = rundir / "monitor.csv", rundir / "summary.json"
    try:
        records = read_monitor_csv(monitor_path, grid.n)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{monitor_path} is missing or unreadable: {exc!r}") from exc
    try:
        summary = json.loads(summary_path.read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{summary_path} is missing or unreadable: {exc!r}") from exc
    if not isinstance(summary, dict) or "halt_reason" not in summary:
        raise ConfigError(f"{summary_path} has no 'halt_reason' entry")
    halt_reason = summary["halt_reason"]
    if halt_reason not in HALT_REASONS + (None,):
        raise ConfigError(f"{summary_path} has halt_reason {halt_reason!r}; a run ends with"
                          f" null or one of {list(HALT_REASONS)}")
    return RunContext(rundir, manifest, grid, bg, records, halt_reason)


def _diag():
    """Module diagnostics, which only report imports: the other commands never load it."""
    from . import diagnostics

    return diagnostics


# audit name -> its verdict on a run, from the diagnostics gate of that claim
# (convergence, the one reader of the checkpoints, reads them first: an
# unreadable series is a ConfigError even when Y <= 0)
_AUDITS = {
    "fixed-point": lambda ctx: _diag().fixed_point_audit(ctx.records, ctx.grid),
    "mass-drift": lambda ctx: _diag().mass_drift_audit(ctx.records),
    "lp-monotone": lambda ctx: _diag().lp_monotone_audit(ctx.records, ctx.grid.n),
    "lp-monotone-window": lambda ctx: _diag().lp_window_audit(ctx.records, ctx.grid.n),
    "min-r-monotone": lambda ctx: _diag().min_r_audit(ctx.records, ctx.grid),
    "sup-r-decay": lambda ctx: _diag().sup_r_decay_audit(ctx.records, ctx.grid),
    "convergence": lambda ctx: _diag().convergence_to_limit(
        ctx.checkpoints(), ctx.limit, ctx.bg
    ),
    "mass-drop": lambda ctx: _diag().mass_drop_report(ctx.records, ctx.limit, ctx.grid),
    # a halted run is skipped before its limit is solved for
    "spacetime-decay": lambda ctx: _diag().spacetime_decay_audit(
        ctx.records, ctx.halt_reason, None if ctx.halted else ctx.limit
    ),
    "blowup": lambda ctx: _diag().blowup_audit(ctx.records, ctx.halt_reason),
    "lp-inequality": lambda ctx: _diag().lp_inequality_audit(ctx.records, ctx.grid.n),
}


# errors main turns into exit codes 2 and 3; report passes them on
_CONFIG_ERRORS = (ConfigError, ParameterError)
_NUMERICAL_ERRORS = (SolveError, FlowSingularityError)


def _run_audit(name: str, ctx: RunContext):
    """One audit's diagnostics.Verdict; an audit that cannot be computed from the run fails it.

    Such an audit (say, a decay fit with too few points in its window)
    reports the reason in details.error.  Errors with an exit code of their
    own propagate.
    """
    try:
        return _AUDITS[name](ctx)
    except _CONFIG_ERRORS + _NUMERICAL_ERRORS:
        raise
    except YlabError as exc:
        return _diag().Verdict(name, False, {"error": str(exc)})


def cmd_report(run_dirs, audits, out=None, plots=False) -> int:
    """Aggregate audits over run directories; exit 4 when a required one fails."""
    for name in audits:
        if name not in _AUDITS:
            raise ConfigError(f"unknown audit {name!r}; known: {sorted(_AUDITS)}")
    runs = []
    charts = []  # (run_id, rundir, t, sup_R) of each run when plots is set
    any_failed = False
    for rundir in run_dirs:
        ctx = load_run(rundir)
        verdicts = [_run_audit(name, ctx) for name in audits]
        any_failed |= any(v.passed is False for v in verdicts)
        runs.append({"run_id": ctx.manifest.run_id, "audits": [v.to_json() for v in verdicts]})
        if plots:
            charts.append((ctx.manifest.run_id, ctx.rundir,
                           [r.t for r in ctx.records], [r.sup_R for r in ctx.records]))

    report = {"runs": runs, "audits_requested": list(audits)}
    out_path = Path(out) if out else Path(run_dirs[0]).parent / "report.json"
    try:
        _write_json(out_path, report)
    except OSError as exc:
        raise ConfigError(f"cannot write the report to {out_path}: {exc}") from exc
    # charts only after the report, so a report that cannot be written leaves none
    if charts:
        from .svgplot import svg_line_chart  # only --plots loads the chart writer

        for run_id, rundir, ts, ys in charts:
            try:
                svg_line_chart(
                    rundir / "sup_R.svg", ts, ys,
                    title=f"{run_id}: sup |R|",
                    xlabel="t", ylabel="sup |R|",
                )
            except ValueError as exc:
                print(f"{run_id}: no sup_R.svg chart: {exc}")

    width = max([len("audit")] + [len(v["name"]) for run in runs for v in run["audits"]])
    print(f"{'run':<32} {'audit':<{width}} {'result':<8} detail")
    for run in runs:
        for v in run["audits"]:
            status = "PASS" if v["pass"] else ("SKIP" if v["pass"] is None else "FAIL")
            detail = v["skipped_reason"] or _short_detail(v["details"])
            print(f"{run['run_id']:<32} {v['name']:<{width}} {status:<8} {detail}")
    print(f"report written to {out_path}")
    return 4 if any_failed else 0


def _short_detail(details: dict) -> str:
    """The first three scalar details; nested dicts print as key.sub=value, lists not at all."""
    items = []
    for key, value in details.items():
        if isinstance(value, dict):
            items += [(f"{key}.{sub}", inner) for sub, inner in value.items()]
        else:
            items.append((key, value))
    parts = []
    for key, value in items:
        if isinstance(value, float):
            parts.append(f"{key}={value:.3g}")
        elif isinstance(value, (int, bool, str)):
            parts.append(f"{key}={value}")
    return " ".join(parts[:3])


# ---------------------------------------------------------------------------
# elliptic subcommands

def _write_failed_solve(outdir, exc) -> None:
    """solve_report.json of a failed solve: its SolveReport, if it carries one, and the error."""
    report = exc.report._asdict() if exc.report is not None else {"converged": False}
    _write_json(outdir / "solve_report.json", {**report, "error": str(exc)})


def cmd_scalar_flat(manifest: RunManifest, out_root) -> int:
    grid, bg = build_background(manifest)
    far_field_window(grid)  # before any output: the report holds the limit's mass
    outdir = _outdir(out_root, f"scalar-flat-{_slug(bg.name)}")
    try:
        u_inf, report = solve_scalar_flat(bg)
    except SolveError as exc:
        if exc.solution is not None:
            write_field_npy(exc.solution, outdir / "u_inf.npy")
        _write_failed_solve(outdir, exc)
        print(f"scalar-flat: no positive solution ({exc})")
        return 3
    write_field_npy(u_inf, outdir / "u_inf.npy")
    tail = truncation_tail_bound(bg.decay_constant, 2.0 + bg.tau, grid)
    _write_json(
        outdir / "solve_report.json",
        {
            **report._asdict(),
            "mass_of_limit": adm_mass(u_inf),
            # None when the R0 tail is not integrable against r^{n-1} dr
            "r0_truncation_tail_bound": tail if math.isfinite(tail) else None,
        },
    )
    print(f"scalar-flat: converged={report.converged} residual={report.final_residual:.3e}")
    return 0


def cmd_yamabe_sign(manifest: RunManifest, out_root) -> int:
    """Write sign.json and the certificate, or on a numerical failure (exit 3) solve_report.json."""
    grid, bg = build_background(manifest)
    outdir = _outdir(out_root, f"yamabe-sign-{_slug(bg.name)}")
    try:
        result = yamabe_sign(bg)
    except ConvergenceError as exc:
        _write_failed_solve(outdir, exc)
        raise
    write_field_npy(result.certificate, outdir / "certificate.npy")
    payload = {
        "sign": result.sign,
        "low_confidence": result.low_confidence,
        "quotient": result.quotient,
        "trial_params": list(result.trial_params) if result.trial_params else None,
    }
    if result.report is not None:
        payload["solve_report"] = result.report._asdict()
    _write_json(outdir / "sign.json", payload)
    print(f"yamabe-sign: {result.sign}"
          + (" (low confidence)" if result.low_confidence else "")
          + (f" (Q = {result.quotient:.4g})" if result.quotient is not None else ""))
    return 0


def cmd_prescribe(manifest: RunManifest, out_root) -> int:
    grid, bg = build_background(manifest)
    outdir = _outdir(out_root, f"prescribe-{_slug(bg.name)}")
    target = RadialField(
        grid, -PRESCRIBE_AMPLITUDE * (1.0 + grid.nodes**2) ** (-(2.0 + bg.tau) / 2.0)
    )
    try:
        phi, report = prescribe_scalar_curvature(bg, target)
    except (HypothesisViolationError, ConvergenceError) as exc:
        _write_json(outdir / "solve_report.json", {"converged": False, "error": str(exc)})
        print(f"prescribe: failed ({exc})")
        return 3
    write_field_csv(phi, outdir / "phi.csv")
    write_field_npy(target, outdir / "target.npy")
    _write_json(outdir / "solve_report.json", report._asdict())
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
        manifest = manifest._replace(
            background=args.background,
            run_id=_slug(f"{args.background}-{manifest.initial_data['family']}"),
        )
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
        p.add_argument("--out", default=_default_out(), help="output root (default $YLAB_OUT or ./ylab-out)")

    p_sim = sub.add_parser("simulate", help="run one flow and persist artifacts")
    add_common(p_sim)

    p_sf = sub.add_parser("scalar-flat", help="solve the scalar-flat conformal factor")
    add_common(p_sf)

    p_ys = sub.add_parser("yamabe-sign", help="certify the sign of the Yamabe constant")
    add_common(p_ys)

    p_pr = sub.add_parser("prescribe", help="prescribe a negative curvature profile")
    add_common(p_pr)

    p_rep = sub.add_parser("report", help="audit one or more completed runs")
    p_rep.add_argument("run_dirs", nargs="+", help="run directories to audit")
    p_rep.add_argument("--audits", default="", help="comma-separated audit names (required set)")
    p_rep.add_argument("--out", default=None, help="report.json path")
    p_rep.add_argument("--plots", action="store_true", help="emit log-log SVG charts")

    args = parser.parse_args(argv)
    # glibc hands the free top of its heap back to the OS above a trim
    # threshold that starts at 128 KiB and follows twice the largest mmapped
    # block freed so far.  Freeing one 4 MiB block lifts it to 8 MiB; below
    # that, the flow's 128 KiB temporaries at M = 16384 are returned and
    # faulted in again at every step.  Other allocators see one short block.
    np.empty(1 << 19)
    try:
        if args.command == "simulate":
            return cmd_simulate(_manifest_from_args(args), args.out)
        if args.command == "scalar-flat":
            return cmd_scalar_flat(_manifest_from_args(args), args.out)
        if args.command == "yamabe-sign":
            return cmd_yamabe_sign(_manifest_from_args(args), args.out)
        if args.command == "prescribe":
            return cmd_prescribe(_manifest_from_args(args), args.out)
        if args.command == "report":
            audits = [a for a in args.audits.split(",") if a]
            return cmd_report(args.run_dirs, audits, out=args.out, plots=args.plots)
        raise ConfigError(f"unknown command {args.command!r}")
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
