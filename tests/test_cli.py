import ast
import io
import json
import math
import re
import shutil
import typing
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ylab.cli as cli
from ylab.cli import (
    _AUDITS,
    _FAMILIES,
    _SCHEMA,
    RunContext,
    build_run,
    cmd_report,
    cmd_simulate,
    load_run,
    main,
    parse_config,
    parse_config_text,
    read_checkpoints,
    read_monitor_csv,
    serialize_manifest,
    write_checkpoints,
    write_field_npy,
    write_monitor_csv,
)
from ylab.elliptic import (
    NON_POSITIVE,
    POSITIVE,
    prescribe_scalar_curvature,
    solve_scalar_flat,
    verify_certificate,
    yamabe_sign,
)
from ylab.errors import ConfigError, ConvergenceError, NonPositiveYamabeError
from ylab.flow import (NUMERICAL_HALTS, STEP_TOL, FlowConfig, FlowState, MonitorRecord,
                       monitor_columns, run_flow)
from ylab.grids import RadialField, RadialGrid
from ylab.operators import BoundaryLaplacian

ROOT = Path(__file__).resolve().parent.parent

BUMP_CONFIG = """
[run]
id = bump-test

[grid]
n = 3
r_in = 0.0
R_max = 128
M = 512
policy = log-stretched

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

README_CONFIG = """
[grid]
n = 3
R_max = 512
M = 4096
policy = log-stretched

[initial]
family = gaussian_bump
eps = 0.2
sigma = 1.0

[flow]
dt0 = 1e-3
dt_max = 0.25
t_end = 50
monitor_every = 2
"""

# serialize_manifest of README_CONFIG: key order, %.17g floats, empty None values
# (\x20 keeps the trailing space of an empty value visible)
README_INI = """[run]
id = flat-gaussian_bump

[grid]
n = 3
r_in = 0
R_max = 512
M = 4096
policy = log-stretched

[background]
name = flat

[initial]
family = gaussian_bump
eps = 0.20000000000000001
sigma = 1

[flow]
dt0 = 0.001
dt_max = 0.25
newton_max = 25
t_end = 50
monitor_every = 2
checkpoint_every = 100
safety = 1.3
stop_max_u =\x20
"""


class TestParseConfig:
    def test_flow_defaults_have_their_field_types(self):
        # parse_config_text casts each [flow] key by its default's type, a
        # None default as a float: a default written 1 would read 1.5 as an error
        hints = typing.get_type_hints(FlowConfig)
        for name, default in FlowConfig._field_defaults.items():
            cast = float if default is None else type(default)
            assert hints[name] in (cast, cast | None), name

    def test_minimal_fills_defaults(self):
        m = parse_config_text("")
        assert m.background == "flat"
        assert m.initial_data == {"family": "flat"}
        assert m.grid["n"] == 3
        assert m.flow.dt0 == 1e-3
        assert m.run_id == "flat-flat"

    def test_round_trip(self):
        # every initial-data family, with non-default parameters that need 17 digits
        for family, (defaults, _) in _FAMILIES.items():
            params = "".join(f"{key} = {value / 3.0!r}\n" for key, value in defaults.items())
            text = BUMP_CONFIG.replace(
                "family = gaussian_bump\neps = 0.1\nsigma = 1.0\n", f"family = {family}\n{params}"
            )
            m = parse_config_text(text)
            assert m.initial_data["family"] == family
            assert parse_config_text(serialize_manifest(m)) == m, family

    def test_serialized_text_is_pinned(self):
        assert serialize_manifest(parse_config_text(README_CONFIG)) == README_INI

    def test_round_trip_with_every_section(self):
        text = BUMP_CONFIG + "\n[background]\nname = flat3\n"
        m = parse_config_text(text)
        assert m.background == "flat3"
        assert parse_config_text(serialize_manifest(m)) == m

    def test_formats_doc_lists_every_config_key(self):
        doc = (ROOT / "docs" / "formats.md").read_text()
        block = doc.split("### Config INI dialect")[1].split("```ini\n")[1].split("```")[0]
        listed = {}
        section = None
        for line in block.splitlines():
            line = line.split("#")[0]
            head = re.match(r"\[(\w+)\]", line)
            if head:
                section = head.group(1)
                line = line[head.end():]
            listed.setdefault(section, set()).update(
                key.lower() for key in re.findall(r"[A-Za-z_]\w*", line)
            )
        assert listed == _SCHEMA

    def test_seed_round_trips(self):
        m = parse_config_text("[run]\nseed = 42\n")
        assert m.seed == 42
        assert parse_config_text(serialize_manifest(m)).seed == 42

    def test_negative_dt_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[flow]\ndt0 = -1\n")

    @pytest.mark.parametrize("run_id", ["", ".", "..", "../escaped", "a/b", "a\\b", "/abs"])
    def test_run_id_must_be_a_plain_name(self, run_id):
        with pytest.raises(ConfigError, match="plain directory name"):
            parse_config_text("")._replace(run_id=run_id)
        if run_id:  # an empty value in the INI means unset, so the default id
            with pytest.raises(ConfigError, match="plain directory name"):
                parse_config_text(f"[run]\nid = {run_id}\n")

    def test_unknown_key_rejected(self):
        for key in ("timestep = 0.1", "scheme = linearly-implicit",
                    "scheme = backward-euler-newton"):
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config_text(f"[flow]\n{key}\n")

    def test_unknown_section_rejected(self):
        for text in ("[paths]\nout = /tmp\n", "[monitor]\np_list = 2.0\n",
                     "[prescribe]\namplitude = 0.1\n"):
            with pytest.raises(ConfigError, match="unknown config section"):
                parse_config_text(text)

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[initial]\nfamily = soliton\n")

    @pytest.mark.parametrize(
        "family, stray",
        [("flat", "eps = 0.3"), ("gaussian_bump", "m = 1.0"), ("schwarzschild", "radius = 4")],
    )
    def test_key_of_another_family_rejected(self, family, stray):
        with pytest.raises(ConfigError, match=stray.split()[0]):
            parse_config_text(f"[initial]\nfamily = {family}\n{stray}\n")


class TestBuildRun:
    def test_experiment_configs_build(self):
        configs = sorted((ROOT / "experiments").glob("*.ini"))
        assert [p.name for p in configs] == ["bump_audit.ini", "dichotomy.ini", "mass_drop.ini"]
        for path in configs:
            build_run(parse_config(path))

    def test_bump_objects(self):
        manifest = parse_config_text(BUMP_CONFIG)
        bg, u0 = build_run(manifest)
        assert bg.grid.M == 512
        assert bg.name == "flat3"
        assert u0.grid is bg.grid
        assert u0.values[0] == pytest.approx(1.1)  # gaussian_bump, eps = 0.1
        assert manifest.flow.t_end == 2.0

    def test_synthetic_background_cli_name(self):
        m = parse_config_text("[background]\nname = synthetic:A=-50,rc=2,sigma=1,tau=1\n")
        bg, _ = build_run(m)
        assert bg.name == "synthetic:A=-50,rc=2,sigma=1,tau=1"


class TestMonitorCsv:
    def test_round_trip(self, tmp_path):
        manifest = parse_config_text(BUMP_CONFIG)
        res = run_flow(*build_run(manifest), manifest.flow)
        path = tmp_path / "monitor.csv"
        write_monitor_csv(path, res.records, 3)
        header = path.read_text().splitlines()[1].split(",")
        assert header == monitor_columns(3)
        assert read_monitor_csv(path, 3) == res.records  # 17 digits round-trip floats

    @pytest.mark.parametrize("n, lp_columns", [
        (3, ["lpR_p1.4", "lpR_p1.5", "lpR_p1.6"]),
        (4, ["lpR_p1.9", "lpR_p2", "lpR_p2.1"]),
        (5, ["lpR_p2.4", "lpR_p2.5", "lpR_p2.6"]),
    ])
    def test_one_column_per_record_field(self, tmp_path, n, lp_columns):
        names = MonitorRecord._fields
        record = MonitorRecord(*(float(k) for k in range(len(names))))
        path = tmp_path / "monitor.csv"
        write_monitor_csv(path, [record], n)
        header, row = path.read_text().splitlines()[1:]
        assert header.split(",") == monitor_columns(n) == [
            "t", "sup_R", "min_R", "l1_R", "mass", "min_u", "max_u", "wsup_R", *lp_columns
        ]
        # the k-th column holds the k-th field
        assert [float(x) for x in row.split(",")] == [getattr(record, name) for name in names]
        assert read_monitor_csv(path, n) == [record]

    def test_formats_doc_pins_the_n3_header(self):
        doc = (ROOT / "docs" / "formats.md").read_text()
        block = doc.split("## Monitor series CSV")[1].split("```\n")[1].split("```")[0]
        assert block == ",".join(monitor_columns(3)) + "\n"


class TestSimulate:
    def test_artifacts_and_exit(self, tmp_path):
        m = parse_config_text(BUMP_CONFIG)
        assert cmd_simulate(m, tmp_path) == 0
        rundir = tmp_path / "bump-test"
        assert sorted(p.name for p in rundir.iterdir()) == [
            "checkpoints.json", "checkpoints.npy", "config.ini", "final_state.csv",
            "monitor.csv", "summary.json",
        ]
        assert parse_config(rundir / "config.ini") == m
        summary = json.loads((rundir / "summary.json").read_text())
        assert summary["halt_reason"] is None
        assert summary["final_t"] == pytest.approx(2.0)

    def test_summary_counts_the_solver_work(self, tmp_path, monkeypatch):
        calls = [0]
        apply = BoundaryLaplacian.apply

        def counted(self, u):
            calls[0] += 1
            return apply(self, u)

        monkeypatch.setattr(BoundaryLaplacian, "apply", counted)
        assert cmd_simulate(parse_config_text(BUMP_CONFIG), tmp_path) == 0
        summary = json.loads((tmp_path / "bump-test" / "summary.json").read_text())
        # u0, then each step's Euler stage and result; no attempt rejected
        assert summary["stencil_evaluations"] == calls[0] == 1 + 2 * summary["steps"] > 1
        assert summary["halvings"] == 0
        assert (summary["rejected_estimate"], summary["rejected_nonpositive"],
                summary["rejected_singular"]) == (0, 0, 0)
        assert 0.0 < summary["max_step_estimate"] <= STEP_TOL

    def test_formats_doc_pins_the_summary_keys(self, tmp_path):
        # the example in docs/formats.md lists the keys simulate writes
        assert cmd_simulate(parse_config_text(BUMP_CONFIG.replace("t_end = 2.0", "t_end = 0.05")),
                            tmp_path) == 0
        summary = json.loads((tmp_path / "bump-test" / "summary.json").read_text())
        doc = (ROOT / "docs" / "formats.md").read_text()
        example = doc.split("## Run summary")[1].split("```json\n")[1].split("```")[0]
        assert sorted(json.loads(example)) == sorted(summary)

    def test_flat_run_reports_no_halving(self, tmp_path):
        config = BUMP_CONFIG.replace("family = gaussian_bump\neps = 0.1\nsigma = 1.0\n",
                                     "family = flat\n")
        assert cmd_simulate(parse_config_text(config), tmp_path) == 0
        summary = json.loads((tmp_path / "bump-test" / "summary.json").read_text())
        assert summary["halvings"] == 0
        # f(1) = 0: every step returns u = 1 with a zero estimate, evaluating
        # its Euler stage and its result
        assert summary["max_step_estimate"] == 0.0
        assert summary["stencil_evaluations"] == 1 + 2 * summary["steps"] > 1

    def test_factor_snapshot_headers(self, tmp_path):
        cmd_simulate(parse_config_text(BUMP_CONFIG), tmp_path)
        rundir = tmp_path / "bump-test"
        assert (rundir / "final_state.csv").read_text().splitlines()[0] == "r,u"
        series = np.load(rundir / "checkpoints.npy")
        grid = build_run(parse_config_text(BUMP_CONFIG))[0].grid
        assert series.dtype == np.dtype("<f8")
        assert series.shape[1] == grid.M + 1
        assert series[0].tobytes() == grid.nodes.tobytes()
        sidecar = json.loads((rundir / "checkpoints.json").read_text())
        assert set(sidecar) == {"t", "dt", "step_index"}
        for column in ("t", "dt", "step_index"):
            assert len(sidecar[column]) == series.shape[0] - 1

    def test_duplicate_run_id_rejected(self, tmp_path):
        m = parse_config_text(BUMP_CONFIG)
        cmd_simulate(m, tmp_path)
        with pytest.raises(ConfigError):
            cmd_simulate(m, tmp_path)

    @pytest.mark.parametrize(
        "bad, good, message",
        [
            ("[background]\nname = nosuch\n", "[background]\nname = flat\n",
             "unknown background"),
            ("[initial]\nfamily = gaussian_bump\neps = -1.5\n",
             "[initial]\nfamily = gaussian_bump\neps = -0.5\n", "eps must be > -1"),
            ("[grid]\nM = 16\nR_max = 512\n", "[grid]\nM = 64\nR_max = 512\n",
             "fewer than 8 nodes in the far-field fit window"),
            ("[flow]\nt_end = inf\n", "[flow]\nt_end = 0.01\n", "[flow] t_end"),
            ("[flow]\nt_end = nan\n", "[flow]\nt_end = 0.01\n", "[flow] t_end"),
            ("[flow]\nt_end = 0.01\ndt0 = nan\n", "[flow]\nt_end = 0.01\n", "[flow] dt0"),
            ("[flow]\nt_end = 0.01\nsafety = nan\n", "[flow]\nt_end = 0.01\n",
             "[flow] safety"),
            ("[flow]\nt_end = 0.01\nnewton_tol = 1e-12\n", "[flow]\nt_end = 0.01\n",
             "unknown key 'newton_tol' in section [flow]"),
            ("[grid]\nM = 64\nR_max = inf\n", "[grid]\nM = 64\nR_max = 64\n", "[grid] R_max"),
        ],
        ids=["unknown-background", "too-deep-bump", "coarse-grid", "infinite-t_end",
             "nan-t_end", "nan-dt0", "nan-safety", "retired-newton_tol", "infinite-R_max"],
    )
    def test_config_error_leaves_no_run_directory(self, tmp_path, capsys, bad, good, message):
        config = tmp_path / "run.ini"
        out = tmp_path / "out"
        text = "[run]\nid = x\n"
        if "[flow]" not in bad:
            text += "[flow]\nt_end = 0.01\n"
        if "[grid]" not in bad:
            text += "[grid]\nM = 64\nR_max = 64\n"
        config.write_text(text + bad)
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "x").exists()
        config.write_text(text + good)
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "x" / "config.ini").exists()

    # R_max from which float64 cannot carry the grid (M = 4096): the volume
    # weights overflow (n = 3 from 1e103, n = 4 from about 1e77.5, n = 5
    # from 1e62), the stencil weights too (n = 3 from 1e110), or the mass
    # fit basis squared underflows (n = 5 from about 1e52.5)
    @pytest.mark.parametrize("n, R_max, message", [
        (3, 1e103, "not representable"), (3, 1e110, "not representable"),
        (4, 1e80, "not representable"), (4, 1e100, "not representable"),
        (5, 1e55, "underflows"), (5, 1e60, "underflows"), (5, 1e62, "not representable"),
    ])
    def test_grid_beyond_float64_is_a_config_error(self, tmp_path, capsys, n, R_max, message):
        config = tmp_path / "run.ini"
        config.write_text(f"[run]\nid = x\n[grid]\nn = {n}\nR_max = {R_max!r}\nM = 4096\n"
                          "[initial]\nfamily = gaussian_bump\n[flow]\nt_end = 0.01\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and f"R_max = {R_max:g}" in err
        assert not out.exists()

    @pytest.mark.parametrize("n, R_max", [(3, 1e103), (3, 1e110), (4, 1e78), (4, 1e110),
                                          (5, 1e62), (5, 1e110)])
    def test_yamabe_sign_on_a_grid_beyond_float64_is_a_config_error(self, tmp_path, capsys,
                                                                  n, R_max):
        # flat R^n is Positive; past these walls float64 used to answer
        # NonPositive from a singular system
        config = tmp_path / "grid.ini"
        config.write_text(f"[grid]\nn = {n}\nR_max = {R_max!r}\nM = 4096\n")
        out = tmp_path / "out"
        assert main(["yamabe-sign", "--config", str(config), "--background", f"flat{n}",
                     "--out", str(out)]) == 2
        assert "M = 4096 is not representable" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("M, R_max", [(16, 8), (64, 64)])
    @pytest.mark.parametrize("initial", [
        "[background]\nname = synthetic:A=1e200,rc=2,sigma=1,tau=1\n",
        "[background]\nname = synthetic:A=-1e200,rc=2,sigma=1,tau=1\n",
        "[initial]\nfamily = gaussian_bump\neps = 1e75\n",
    ], ids=["A=1e200", "A=-1e200", "eps=1e75"])
    def test_overflowing_integrals_are_a_numerical_failure(self, tmp_path, capsys, M, R_max,
                                                           initial):
        # valid data whose monitored integrals float64 cannot hold: exit 3,
        # naming t, with no warning (warnings are errors here) and no run
        # directory, so the same command fails the same way again
        config = tmp_path / "run.ini"
        config.write_text(f"[run]\nid = x\n[grid]\nR_max = {R_max}\nM = {M}\n"
                          f"[flow]\nt_end = 0.01\n{initial}")
        out = tmp_path / "out"
        for _ in range(2):
            assert main(["simulate", "--config", str(config), "--out", str(out)]) == 3
            assert "monitor record at t=0.0" in capsys.readouterr().err
            assert not (out / "x").exists()

    @pytest.mark.parametrize("absolute", [False, True], ids=["dotdot", "absolute"])
    def test_run_directory_stays_under_out(self, tmp_path, capsys, absolute):
        run_id = str(tmp_path / "escaped") if absolute else "../escaped"
        config = tmp_path / "run.ini"
        config.write_text(f"[run]\nid = {run_id}\n[grid]\nM = 64\nR_max = 64\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert run_id in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]

    def test_determinism_bit_identical(self, tmp_path):
        m = parse_config_text(BUMP_CONFIG)
        cmd_simulate(m._replace(run_id="a"), tmp_path)
        cmd_simulate(m._replace(run_id="b"), tmp_path)
        a = (tmp_path / "a" / "monitor.csv").read_bytes()
        b = (tmp_path / "b" / "monitor.csv").read_bytes()
        assert a == b
        fa = (tmp_path / "a" / "final_state.csv").read_bytes()
        fb = (tmp_path / "b" / "final_state.csv").read_bytes()
        assert fa == fb
        # a replayed manifest reproduces its whole run directory byte for byte
        for root in ("first", "second"):
            cmd_simulate(m, tmp_path / root)
        first, second = (tmp_path / root / m.run_id for root in ("first", "second"))
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.fixture(scope="module")
def bump_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    cmd_simulate(parse_config_text(BUMP_CONFIG), root)
    return root / "bump-test"


DENSE_CONFIG = BUMP_CONFIG.replace("checkpoint_every = 20", "checkpoint_every = 1").replace(
    "monitor_every = 4", "monitor_every = 1")


@pytest.fixture(scope="module")
def dense_run(tmp_path_factory):
    """BUMP_CONFIG with a checkpoint and a monitor record after every step (20 of each)."""
    root = tmp_path_factory.mktemp("dense")
    assert cmd_simulate(parse_config_text(DENSE_CONFIG), root) == 0
    return root / "bump-test"


@pytest.fixture(scope="module")
def one_record_run(tmp_path_factory):
    """A run whose monitor.csv is cut to its comment, header and t = 0 record.

    No run ends with a single record, but a file read from disk may hold one.
    """
    root = tmp_path_factory.mktemp("one")
    config = ("[run]\nid = one\n[grid]\nR_max = 64\nM = 512\n"
              "[initial]\nfamily = gaussian_bump\neps = 0.2\n[flow]\nt_end = 1\n")
    assert cmd_simulate(parse_config_text(config), root) == 0
    monitor_csv = root / "one" / "monitor.csv"
    monitor_csv.write_text("".join(monitor_csv.read_text().splitlines(keepends=True)[:3]))
    return root / "one"


def _shift_radius(path):
    data = np.load(path)
    data[0, 1] *= 1.0 + 1e-9
    np.save(path, data)


def _nudge_radius(path):
    data = np.load(path)
    data[0, 1] = np.nextafter(data[0, 1], np.inf)
    np.save(path, data)


def _set_one_value(value):
    def corrupt(path):
        data = np.load(path)
        data[-1, 3] = value
        np.save(path, data)
    return corrupt


def _drop_last_time(path):
    meta = json.loads(path.read_text())
    meta["t"].pop()
    path.write_text(json.dumps(meta))


def _set_last(key, value):
    def corrupt(path):
        meta = json.loads(path.read_text())
        meta[key][-1] = value
        path.write_text(json.dumps(meta))
    return corrupt


def _drop_monitor_column(column):
    def corrupt(path):
        comment, *rows = path.read_text().splitlines()
        col = rows[0].split(",").index(column)
        rows = [",".join(v for i, v in enumerate(row.split(",")) if i != col) for row in rows]
        path.write_text("\n".join([comment, *rows]) + "\n")
    return corrupt


class TestReport:
    def test_passing_audits_exit_zero(self, bump_run, capsys):
        audits = ["lp-monotone", "min-r-monotone", "lp-inequality"]
        rc = cmd_report([bump_run], audits, out=bump_run / "rep.json")
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "lp-inequality(p=1.6)" in out

    def test_corrupted_series_exit_four(self, bump_run, tmp_path):
        # force the audited lp column to increase: corrupt the last row
        for column, audit in (("lpR_p1.5", "lp-monotone"), ("lpR_p1.6", "lp-inequality")):
            broken = tmp_path / audit
            shutil.copytree(bump_run, broken)
            monitor = (broken / "monitor.csv").read_text().splitlines()
            header = monitor[1].split(",")
            col = header.index(column)
            last = monitor[-1].split(",")
            last[col] = "1e9"
            monitor[-1] = ",".join(last)
            (broken / "monitor.csv").write_text("\n".join(monitor) + "\n")
            rc = cmd_report([broken], [audit], out=tmp_path / "rep.json")
            assert rc == 4, audit

    def test_console_lines_have_aligned_details(self, tmp_path, capsys):
        config = README_CONFIG.replace("monitor_every = 2", "monitor_every = 2\ncheckpoint_every = 4")
        assert cmd_simulate(parse_config_text(config), tmp_path) == 0
        cmd_report([tmp_path / "flat-gaussian_bump"], sorted(_AUDITS), out=tmp_path / "rep.json")
        header, *lines, _ = capsys.readouterr().out.splitlines()
        assert len(lines) == len(_AUDITS)
        column = header.index("result")
        for line in lines:
            assert line[column:column + 5] in ("PASS ", "FAIL ", "SKIP "), line
            assert line[column + 9:].strip(), line
        assert any("fit.exponent=" in line for line in lines)

    def test_readme_lists_every_audit(self):
        readme = (ROOT / "README.md").read_text()
        paragraph = readme.split("Available audits for `report`:")[1].split("\n\n")[0]
        assert re.findall(r"`([a-z-]+)`", paragraph) == sorted(_AUDITS)

    def test_acceptance_judges_only_through_the_audits(self):
        # the acceptance criteria take their verdicts from _AUDITS, never from a refit
        tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        forbidden = {"fit_decay_exponent", "audit_monotone", "convergence_to_limit",
                     "mass_drop_report"}
        assert not names & forbidden

    def test_unknown_audit_rejected(self, bump_run):
        with pytest.raises(ConfigError):
            cmd_report([bump_run], ["vibes"], out=None)

    def test_plots_emitted(self, bump_run, tmp_path):
        rc = cmd_report([bump_run], [], out=tmp_path / "rep.json", plots=True)
        assert rc == 0
        svg = Path(bump_run) / "sup_R.svg"
        assert svg.exists()
        assert svg.read_text().startswith("<svg")

    def test_plots_name_a_run_without_a_chart(self, tmp_path, capsys):
        # flat data on the flat background: sup |R| = 0 on every record
        config = "[run]\nid = flat\n[grid]\nM = 64\nR_max = 64\n[flow]\nt_end = 0.05\n"
        assert cmd_simulate(parse_config_text(config), tmp_path) == 0
        capsys.readouterr()
        assert cmd_report([tmp_path / "flat"], [], out=tmp_path / "rep.json", plots=True) == 0
        assert not (tmp_path / "flat" / "sup_R.svg").exists()
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if "sup_R.svg" in line] == [
            "flat: no sup_R.svg chart: fewer than 2 points are positive on both log axes"
        ]

    def test_chart_of_a_markup_run_id_is_well_formed(self, bump_run, tmp_path):
        rundir = tmp_path / "run"
        shutil.copytree(bump_run, rundir, ignore=shutil.ignore_patterns("sup_R.svg"))
        config = rundir / "config.ini"
        config.write_text(config.read_text().replace("id = bump-test", "id = a&b<c>"))
        assert cmd_report([rundir], [], out=tmp_path / "rep.json", plots=True) == 0
        root = ET.parse(rundir / "sup_R.svg").getroot()
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts[:3] == ["a&b<c>: sup |R|", "t", "sup |R|"]

    def test_convergence_with_too_few_checkpoints_fails_cleanly(self, tmp_path):
        config = BUMP_CONFIG.replace("checkpoint_every = 20", "checkpoint_every = 100")
        assert cmd_simulate(parse_config_text(config), tmp_path) == 0
        out = tmp_path / "rep.json"
        rc = main(["report", str(tmp_path / "bump-test"), "--audits", "convergence",
                   "--out", str(out)])
        assert rc == 4
        (verdict,) = json.loads(out.read_text())["runs"][0]["audits"]
        assert verdict["pass"] is False
        assert "8 points" in verdict["details"]["error"]
        assert "np.float64" not in verdict["details"]["error"]

    @pytest.mark.parametrize(
        "audit, error",
        [(audit, "monotonicity audit needs at least 2 points")
         for audit in ("lp-monotone", "lp-monotone-window", "min-r-monotone")]
        + [(audit, f"{audit} audit needs at least 2 records")
           for audit in ("lp-inequality", "mass-drift")],
        ids=["lp-monotone", "lp-monotone-window", "min-r-monotone", "lp-inequality",
             "mass-drift"],
    )
    def test_one_record_run_is_judged(self, one_record_run, tmp_path, audit, error):
        assert len(read_monitor_csv(one_record_run / "monitor.csv", 3)) == 1
        out = tmp_path / "rep.json"
        rc = main(["report", str(one_record_run), "--audits", audit, "--out", str(out)])
        assert rc == 4
        (verdict,) = json.loads(out.read_text())["runs"][0]["audits"]
        assert verdict["name"] == audit and verdict["pass"] is False
        assert verdict["details"]["error"] == error

    @pytest.mark.parametrize(
        "corrupt",
        [
            # without its header the [flow] keys fall into [initial]
            lambda text: text.replace("[flow]\n", ""),
            lambda text: text.replace("[run]\n", "[run]\ncolour = blue\n"),
            lambda text: text.replace("[flow]\n", "[flow]\ntimestep = 0.1\n"),
            # every run directory written while the Newton target was a knob
            lambda text: text.replace("newton_max",
                                      "newton_tol = 9.9999999999999998e-13\nnewton_max"),
        ],
        ids=["missing-flow", "unknown-key", "unknown-flow-key", "retired-newton_tol"],
    )
    def test_malformed_manifest_is_config_error(self, bump_run, tmp_path, capsys, corrupt):
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "config.ini").write_text(corrupt((bump_run / "config.ini").read_text()))
        rc = main(["report", str(broken), "--audits", "mass-drift",
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 2
        assert str(broken / "config.ini") in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, corrupt",
        [
            ("monitor.csv", lambda path: path.unlink()),
            ("summary.json", lambda path: path.unlink()),
            ("monitor.csv", lambda path: path.write_text("t,sup_R\n1,oops\n")),
            ("monitor.csv", lambda path: path.write_text(path.read_text()[:-40])),
            ("summary.json", lambda path: path.write_text("{not json")),
            ("summary.json", lambda path: path.write_text("{}")),
            ("summary.json", lambda path: path.write_text('{"halted": false}')),
            ("summary.json", lambda path: path.write_text('{"halt_reason": "tired"}')),
            # a halt reason that runs no longer end with
            ("summary.json", lambda path: path.write_text('{"halt_reason": "dt-collapse"}')),
            ("monitor.csv", _drop_monitor_column("lpR_p1.5")),
            ("monitor.csv", lambda path: path.write_text(
                "\n".join(path.read_text().splitlines()[:2]) + "\n")),
        ],
        ids=["missing-monitor", "missing-summary", "monitor-without-columns",
             "truncated-monitor", "unreadable-summary", "summary-without-halted",
             "non-boolean-halted", "unknown-halt-reason", "retired-dt-collapse",
             "missing-lp-column", "header-only-monitor"],
    )
    def test_incomplete_run_directory_is_config_error(
        self, bump_run, tmp_path, capsys, name, corrupt
    ):
        broken = tmp_path / "broken"
        broken.mkdir()
        for kept in ("config.ini", "monitor.csv", "summary.json"):
            (broken / kept).write_bytes((bump_run / kept).read_bytes())
        corrupt(broken / name)
        rc = main(["report", str(broken), "--audits", "mass-drift",
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 2
        assert str(broken / name) in capsys.readouterr().err

    # spacetime-decay reads only the monitor records: a report that asks for it
    # first still reads, and rejects, the series for the convergence audit
    @pytest.mark.parametrize(
        "audits", ["convergence", "spacetime-decay,convergence"],
        ids=["convergence", "spacetime-decay"],
    )
    @pytest.mark.parametrize(
        "name, corrupt",
        [
            ("checkpoints.npy", lambda path: path.unlink()),
            ("checkpoints.npy", lambda path: path.write_bytes(path.read_bytes()[:-40])),
            ("checkpoints.npy", lambda path: np.save(path, np.load(path)[:, :-1])),
            ("checkpoints.npy", _shift_radius),
            ("checkpoints.npy", _nudge_radius),
            ("checkpoints.npy", _set_one_value(-1.0)),
            ("checkpoints.npy", _set_one_value(np.nan)),
            ("checkpoints.json", _drop_last_time),
            ("checkpoints.json", _set_last("t", "late")),
            ("checkpoints.json", _set_last("t", None)),
            ("checkpoints.json", _set_last("dt", "0.1")),
        ],
        ids=["missing-series", "truncated-series", "wrong-shape-series",
             "radii-mismatch", "radius-one-ulp-off", "nonpositive-row", "nan-row",
             "short-time-column", "string-t", "null-t", "string-dt"],
    )
    def test_unreadable_checkpoint_series_is_config_error(
        self, bump_run, tmp_path, capsys, name, corrupt, audits
    ):
        broken = tmp_path / "broken"
        shutil.copytree(bump_run, broken)
        corrupt(broken / name)
        rc = main(["report", str(broken), "--audits", audits,
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 2
        assert str(broken / name) in capsys.readouterr().err
        assert not (tmp_path / "rep.json").exists()

    def test_horizon_comes_from_the_grid(self, tmp_path):
        # a run past its valid-time horizon R_max^2/32 = 1.125: the audits
        # that cut at the horizon give the same verdicts when summary.json
        # does not record it
        config = DENSE_CONFIG.replace("R_max = 128", "R_max = 6").replace(
            "dt_max = 0.2", "dt_max = 0.05")
        assert cmd_simulate(parse_config_text(config), tmp_path) == 0
        intact, stripped = tmp_path / "bump-test", tmp_path / "stripped"
        shutil.copytree(intact, stripped)
        summary = json.loads((stripped / "summary.json").read_text())
        assert summary.pop("valid_t_max") == 1.125
        (stripped / "summary.json").write_text(json.dumps(summary))
        verdicts = []
        for rundir in (intact, stripped):
            out = tmp_path / f"{rundir.name}.json"
            main(["report", str(rundir), "--audits", "sup-r-decay,convergence,mass-drop",
                  "--out", str(out)])
            verdicts.append(json.loads(out.read_text())["runs"][0]["audits"])
        assert verdicts[0] == verdicts[1]
        assert verdicts[0][0]["details"]["window"] == [0.5625, 1.125]

    def test_unwritable_report_path_is_config_error(self, bump_run, tmp_path, capsys):
        rundir = tmp_path / "run"
        shutil.copytree(bump_run, rundir, ignore=shutil.ignore_patterns("sup_R.svg"))
        listing = sorted(p.name for p in rundir.iterdir())
        out = tmp_path / "nonexistent" / "dir" / "r.json"
        rc = main(["report", str(rundir), "--audits", "mass-drift", "--plots",
                   "--out", str(out)])
        assert rc == 2
        assert str(out) in capsys.readouterr().err
        assert sorted(p.name for p in rundir.iterdir()) == listing  # no chart either

    def test_checkpoints_read_once_per_run(self, dense_run, tmp_path, monkeypatch):
        rundir = dense_run
        k = len(json.loads((rundir / "checkpoints.json").read_text())["t"])
        assert k == 20
        loads = []
        load = cli.read_checkpoints
        monkeypatch.setattr(
            cli, "read_checkpoints", lambda path, grid: loads.append(path) or load(path, grid)
        )
        out = tmp_path / "rep.json"
        # spacetime-decay judges the monitor records; convergence loads the series once
        for audits, loaded in (("spacetime-decay", []),
                               ("convergence,spacetime-decay", [rundir / "checkpoints.npy"])):
            loads.clear()
            assert main(["report", str(rundir), "--audits", audits, "--out", str(out)]) == 0
            assert loads == loaded, audits
        verdicts = json.loads(out.read_text())["runs"][0]["audits"]
        # each audit on its own freshly loaded run
        assert verdicts == [
            json.loads(json.dumps(_AUDITS[name](load_run(rundir)).to_json()))
            for name in ("convergence", "spacetime-decay")
        ]
        convergence, spacetime = verdicts
        assert convergence["pass"] is True and spacetime["pass"] is True
        assert convergence["details"]["fit"]["exponent"] == pytest.approx(-1.42461361328, rel=1e-9)
        assert spacetime["details"]["C_star"] == pytest.approx(0.0477681565543, rel=1e-9)

    def test_scalar_flat_limit_solved_once_per_run(self, dense_run, tmp_path, monkeypatch):
        solves = []
        solve = cli.solve_scalar_flat
        monkeypatch.setattr(cli, "solve_scalar_flat", lambda bg: solves.append(bg) or solve(bg))
        out = str(tmp_path / "rep.json")
        for audits, count in (("mass-drift,spacetime-decay", 2), ("convergence,mass-drop", 2)):
            solves.clear()
            assert main(["report", str(dense_run), str(dense_run), "--audits", audits,
                         "--out", out]) == 0
            assert len(solves) == count, audits

    def test_spacetime_decay_skips_a_run_without_a_limit(self, tmp_path):
        # an A = -50 well (Y <= 0) that reaches t_end without halting
        config = (
            "[run]\nid = well\n"
            "[grid]\nn = 3\nR_max = 64\nM = 512\npolicy = log-stretched\n"
            "[background]\nname = synthetic:A=-50,rc=2,sigma=1,tau=1\n"
            "[initial]\nfamily = flat\n"
            "[flow]\ndt0 = 0.01\ndt_max = 0.5\nt_end = 8\nmonitor_every = 1\n"
        )
        assert cmd_simulate(parse_config_text(config), tmp_path) == 0
        run = load_run(tmp_path / "well")
        assert run.halted is False and run.limit is None
        assert sum(r.t >= 1.0 for r in run.records) >= 5
        out = tmp_path / "rep.json"
        assert main(["report", str(tmp_path / "well"), "--audits", "spacetime-decay",
                     "--out", str(out)]) == 0
        (verdict,) = json.loads(out.read_text())["runs"][0]["audits"]
        assert verdict["pass"] is None
        assert verdict["skipped_reason"] == "no scalar-flat limit (Y <= 0)"

    @pytest.mark.parametrize("dt0, reason", [(1e-3, "stalled"), (1e-9, "stalled")])
    def test_numerical_failure_halt_is_no_evidence(self, tmp_path, capsys, dt0, reason):
        # the A = 1e8 well (Y > 0) on flat data: from dt0 = 1e-3, whose first
        # attempts are rejected, as from 1e-9 the run crawls until it stalls
        # (at t = 7.7e-8 and 7.5e-8).  The halt is no blow-up, and says
        # nothing of Y > 0
        config = (
            f"[run]\nid = well\n[grid]\nn = 3\nR_max = 64\nM = 256\n"
            f"[background]\nname = {_WELL.format(A=1e8)}\n[initial]\nfamily = flat\n"
            f"[flow]\ndt0 = {dt0}\nt_end = 1\n"
        )
        assert cmd_simulate(parse_config_text(config), tmp_path) == 3
        rundir = tmp_path / "well"
        summary = _strict_json(rundir / "summary.json")
        assert summary["halt_reason"] == reason and "halted" not in summary
        assert reason in NUMERICAL_HALTS
        assert load_run(rundir).halt_reason == reason
        assert 7.5e-8 <= summary["final_t"] < 7.8e-8
        out = tmp_path / "rep.json"
        assert main(["report", str(rundir), "--audits", "blowup,spacetime-decay",
                     "--out", str(out)]) == 4
        blowup, decay = _strict_json(out)["runs"][0]["audits"]
        assert blowup["pass"] is False and blowup["details"]["halt_reason"] == reason
        assert decay["pass"] is None
        assert decay["skipped_reason"] == (
            f"the run halted on a numerical failure ({reason}), evidence of no claim")

    # the family where the grid resolves its wall: sup R at most 1.9e-4 against
    # 10 h^2 = 3.5e-4 (2.9e-4 at r_in = 0.98); n = 3 and build_grid's r_in < 1
    # leave no m >= 4
    @pytest.mark.parametrize("m, r_in", [(0.25, 0.5), (1.0, 0.5), (2.0, 0.5), (3.9, 0.98)])
    def test_schwarzschild_fixed_point_audits(self, tmp_path, m, r_in):
        config = (
            "[run]\nid = schw\n"
            f"[grid]\nn = 3\nr_in = {r_in}\nR_max = 256\nM = 1024\npolicy = log-stretched\n"
            f"[initial]\nfamily = schwarzschild\nm = {m}\n"
            "[flow]\ndt0 = 0.01\nsafety = 1.5\nt_end = 5.0\nmonitor_every = 1\n"
        )
        assert cmd_simulate(parse_config_text(config), tmp_path) == 0
        rc = cmd_report(
            [tmp_path / "schw"], ["fixed-point", "mass-drift"], out=tmp_path / "rep.json"
        )
        assert rc == 0


@st.composite
def _field_series(draw, values):
    """K >= 1 fields of floats drawn from values on a grid of arbitrary radii."""
    # radii up to 1e100: past about 1e102 a grid's volume weights overflow,
    # and RadialGrid rejects it
    radii = draw(st.lists(st.floats(min_value=0.0, max_value=1e100), min_size=17,
                          max_size=40, unique=True))
    grid = RadialGrid(3, np.sort(radii))
    k = draw(st.integers(min_value=1, max_value=6))
    return [
        RadialField(grid, np.array(draw(st.lists(values, min_size=grid.M + 1,
                                                 max_size=grid.M + 1))))
        for _ in range(k)
    ]


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _checkpoint_series(draw):
    """K >= 1 flow states with positive factors and arbitrary finite t and dt."""
    return [
        FlowState(draw(_FINITE), u, draw(_FINITE), draw(st.integers(min_value=0, max_value=2**53)))
        for u in draw(_field_series(_POSITIVE))
    ]


_EDGE_GRID = RadialGrid(3, np.arange(17) * 0.25)
_EDGE_FIELDS = [
    RadialField(_EDGE_GRID, np.array([5e-324, 1.7976931348623157e308, 1e-310] + [1 / 3] * 14)),
    RadialField(_EDGE_GRID, np.full(17, 2.2250738585072014e-308)),
]
_EDGE_SERIES = [
    FlowState(-0.0, RadialField(_EDGE_GRID, np.array([5e-324, 1e300] + [1 / 3] * 15)), 5e-324, 0),
    FlowState(0.1, RadialField(_EDGE_GRID, np.full(17, 2.2250738585072014e-308)), 1e300, 7),
]


class TestCheckpointSeries:
    @settings(max_examples=100, deadline=None)
    @given(checkpoints=_checkpoint_series())
    @example(checkpoints=_EDGE_SERIES)
    @example(checkpoints=[FlowState(0.0, u, 1.0, k) for k, u in enumerate(_EDGE_FIELDS)])
    def test_round_trip_is_bitwise(self, tmp_path_factory, checkpoints):
        path = tmp_path_factory.mktemp("series") / "checkpoints.npy"
        write_checkpoints(path, checkpoints)
        back = read_checkpoints(path, checkpoints[0].u.grid)
        assert len(back) == len(checkpoints)
        for got, want in zip(back, checkpoints):
            assert got.u.values.tobytes() == want.u.values.tobytes()
            for key in ("t", "dt", "step_index"):
                assert np.array(getattr(got, key)).tobytes() == np.array(getattr(want, key)).tobytes()
        assert set(json.loads(path.with_suffix(".json").read_text())) == {"t", "dt", "step_index"}

    def test_npy_header_is_the_documented_one(self, tmp_path):
        path = tmp_path / "checkpoints.npy"
        write_checkpoints(path, _EDGE_SERIES)
        with open(path, "rb") as fh:
            assert np.lib.format.read_magic(fh) == (1, 0)
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
        assert (dtype.str, fortran_order, shape) == ("<f8", False, (3, 17))
        # the streamed rows are the radii, then each snapshot: np.save's bytes
        stacked = io.BytesIO()
        np.save(stacked, np.array([_EDGE_GRID.nodes, *(ck.u.values for ck in _EDGE_SERIES)]))
        assert path.read_bytes() == stacked.getvalue()


_WELL = "synthetic:A={A},rc=2,sigma=1,tau=1"  # the default grid's wells of either sign


def _strict_json(path):
    """The JSON file at path, parsed with NaN, Infinity and -Infinity rejected."""
    def reject(constant):
        raise ValueError(f"{path} holds the non-JSON constant {constant}")

    return json.loads(Path(path).read_text(), parse_constant=reject)


class TestFieldFiles:
    @pytest.mark.parametrize("index", range(len(_EDGE_FIELDS)))
    def test_field_file_is_a_one_snapshot_series(self, tmp_path, index):
        # np.save's bytes of the (2, M+1) stack, and the checkpoint series'
        # bytes for K = 1
        f = _EDGE_FIELDS[index]
        write_field_npy(f, tmp_path / "field.npy")
        write_checkpoints(tmp_path / "series.npy", [FlowState(0.0, f, 1.0, 0)])
        stacked = io.BytesIO()
        np.save(stacked, np.array([f.grid.nodes, f.values]))
        assert (tmp_path / "field.npy").read_bytes() == stacked.getvalue()
        assert (tmp_path / "field.npy").read_bytes() == (tmp_path / "series.npy").read_bytes()

    def test_scalar_flat_writes_its_limit(self, tmp_path):
        rc, outdir, bg = _elliptic_command(tmp_path, "scalar-flat", _WELL.format(A=-10))
        assert rc == 0
        assert _files(outdir) == {"u_inf.npy", "solve_report.json"}
        u_inf, _ = solve_scalar_flat(bg)
        assert _field_values(outdir / "u_inf.npy", bg.grid).tobytes() == u_inf.values.tobytes()

    def test_nonpositive_scalar_flat_writes_the_offending_solution(self, tmp_path):
        rc, outdir, bg = _elliptic_command(tmp_path, "scalar-flat", _WELL.format(A=-50))
        assert rc == 3
        assert _files(outdir) == {"u_inf.npy", "solve_report.json"}
        with pytest.raises(NonPositiveYamabeError) as exc:
            solve_scalar_flat(bg)
        values = _field_values(outdir / "u_inf.npy", bg.grid)
        assert values.tobytes() == exc.value.solution.values.tobytes()
        assert np.min(values) < 0.0

    def test_nonpositive_scalar_flat_reports_the_failed_solve(self, tmp_path):
        rc, outdir, bg = _elliptic_command(tmp_path, "scalar-flat", _WELL.format(A=-50))
        assert rc == 3
        with pytest.raises(NonPositiveYamabeError) as exc:
            solve_scalar_flat(bg)
        payload = json.loads((outdir / "solve_report.json").read_text())
        assert payload == {**exc.value.report._asdict(), "error": str(exc.value)}
        assert payload["converged"] is False
        assert payload["positivity"] < 0.0 and payload["scaled_residual"] > 0.0

    def test_prescribe_writes_its_target_and_phi(self, tmp_path):
        rc, outdir, bg = _elliptic_command(tmp_path, "prescribe", "flat3")
        assert rc == 0
        assert _files(outdir) == {"phi.csv", "target.npy", "solve_report.json"}
        r = bg.grid.nodes
        target = RadialField(
            bg.grid, -cli.PRESCRIBE_AMPLITUDE * (1.0 + r**2) ** (-(2.0 + bg.tau) / 2.0)
        )
        assert _field_values(outdir / "target.npy", bg.grid).tobytes() == target.values.tobytes()
        phi, _ = prescribe_scalar_curvature(bg, target)
        lines = (outdir / "phi.csv").read_text().splitlines()
        assert lines[0] == "r,value"
        data = np.loadtxt(lines[1:], delimiter=",")
        assert data[:, 0].tobytes() == r.tobytes()
        assert data[:, 1].tobytes() == phi.values.tobytes()


class TestSignAcrossTheThreshold:
    """Wells either side of the threshold A* in (-28.73, -28.72) at n = 3, R_max = 512.

    The Positive wells' scalar-flat factors reach max u of 300 to 1.5e4.
    Yamabe sign, the limit of a run and the exit code of scalar-flat all
    read the one solve, so they agree on every well.
    """

    @pytest.mark.parametrize("M", [2048, 16384])
    def test_one_answer_per_well(self, tmp_path, M):
        config = tmp_path / "grid.ini"
        config.write_text(f"[grid]\nn = 3\nR_max = 512\nM = {M}\n")
        for A, positive in ((-28.6, True), (-28.7, True), (-28.72, True), (-28.73, False)):
            background = _WELL.format(A=A)
            manifest = parse_config(config)._replace(background=background)
            bg = cli.build_background(manifest)
            sign = yamabe_sign(bg)
            assert sign.sign == (POSITIVE if positive else NON_POSITIVE), A
            assert not (positive and sign.low_confidence), A
            run = RunContext(None, manifest, bg, [], None)
            assert (run.limit is not None) == positive, A
            rc = main(["scalar-flat", "--config", str(config), "--background", background,
                       "--out", str(tmp_path / "o")])
            assert rc == (0 if positive else 3), A


class TestStronglyPositiveWells:
    """Wells with R0 >= 0 at n = 3, R_max = 512: -a L + R0 is positive definite, so Y > 0.

    From A = 100 on, min u falls to 0.10 and below (1.9e-42 at A = 1e5), the
    sum 1 + v of the first solve cancels, and scalar-flat solves for u itself.
    """

    @pytest.mark.parametrize("M", [2048, 16384])
    def test_one_positive_answer_per_well(self, tmp_path, M):
        config = tmp_path / "grid.ini"
        config.write_text(f"[grid]\nn = 3\nR_max = 512\nM = {M}\n")
        for A in (1, 100, 1e3, 1e4, 1e5):
            background = _WELL.format(A=A)
            manifest = parse_config(config)._replace(background=background)
            bg = cli.build_background(manifest)
            sign = yamabe_sign(bg)
            assert sign.sign == POSITIVE and not sign.low_confidence, A
            assert verify_certificate(sign, bg), A
            assert RunContext(None, manifest, bg, [], None).limit is not None, A
            out = tmp_path / f"o{A}"
            assert main(["scalar-flat", "--config", str(config), "--background", background,
                         "--out", str(out)]) == 0, A
            (report,) = out.glob("*/solve_report.json")
            assert json.loads(report.read_text())["iterations"] == (2 if A >= 100 else 1), A


class TestUnderflowingFactors:
    """Wells with R0 >= 0 so deep that the scalar-flat factor underflows.

    Y > 0 still, but the u-solve's factor has nodes at 0 or a subnormal and
    none below 0; it fails the row-wise test, and its sign cannot be read
    off it.  yamabe-sign, scalar-flat and a report that needs the limit all
    exit 3: a numerical failure, never a NonPositive sign.
    """

    # the last well's factor has one subnormal node and no zero
    @pytest.mark.parametrize("M, R_max, A",
                             [(2048, 512, 1e8), (256, 64, 1e8), (64, 64, 1e15), (16, 8, 1e24)])
    def test_numerical_failure_not_a_sign(self, tmp_path, capsys, M, R_max, A):
        config = tmp_path / "run.ini"
        config.write_text(f"[run]\nid = well\n[grid]\nn = 3\nR_max = {R_max}\nM = {M}\n"
                          f"[background]\nname = {_WELL.format(A=A)}\n[flow]\nt_end = 1e-300\n")
        out = tmp_path / "o"
        args = ["--config", str(config), "--out", str(out)]
        assert main(["yamabe-sign", *args]) == 3
        assert "underflows" in capsys.readouterr().err
        # the sign directory says why, as scalar-flat's does, and holds no sign
        (sign_dir,) = out.glob("yamabe-sign-*")
        assert _files(sign_dir) == {"solve_report.json"}
        with pytest.raises(ConvergenceError) as exc:
            yamabe_sign(cli.build_background(parse_config(config)))
        payload = _strict_json(sign_dir / "solve_report.json")
        # an underflowed factor's scaled residual can be NaN (0/0): null here
        expected = {**exc.value.report._asdict(), "error": str(exc.value)}
        assert payload == {key: None if isinstance(value, float) and not math.isfinite(value)
                           else value for key, value in expected.items()}
        assert payload["converged"] is False and "underflows" in payload["error"]
        assert main(["scalar-flat", *args]) == 3
        (outdir,) = out.glob("scalar-flat-*")
        payload = _strict_json(outdir / "solve_report.json")
        assert payload["converged"] is False and "underflows" in payload["error"]
        values = _field_values(outdir / "u_inf.npy", cli.build_background(parse_config(config)).grid)
        assert 0.0 <= payload["positivity"] == np.min(values) < np.finfo(np.float64).tiny
        # a run directory on the well (t_end so short that its one step
        # leaves the factor as it is): the report's limit fails the same way
        assert main(["simulate", *args]) == 0
        for path in (out / "well").glob("*.json"):
            _strict_json(path)
        assert main(["report", str(out / "well"), "--audits", "mass-drop",
                     "--out", str(tmp_path / "rep.json")]) == 3
        assert "underflows" in capsys.readouterr().err

    @settings(max_examples=40, deadline=None)
    @given(M=st.integers(min_value=16, max_value=256),
           R_max=st.floats(min_value=8.0, max_value=64.0),
           log_A=st.one_of(st.none(), st.floats(min_value=-2.0, max_value=300.0)))
    def test_nonnegative_wells_are_positive_or_fail(self, tmp_path_factory, M, R_max, log_A):
        # R0 >= 0 makes Y > 0: Positive with a certificate, or exit 3
        A = 0.0 if log_A is None else 10.0**log_A
        config = tmp_path_factory.mktemp("well") / "grid.ini"
        config.write_text(f"[grid]\nn = 3\nR_max = {R_max!r}\nM = {M}\n"
                          f"[background]\nname = {_WELL.format(A=A)}\n")
        manifest = parse_config(config)
        bg = cli.build_background(manifest)
        assume(np.count_nonzero(bg.grid.nodes >= R_max / 4.0) >= 8)  # scalar-flat reads a mass
        args = ["--config", str(config), "--out", str(config.parent / "o")]
        rc_sign, rc_flat = main(["yamabe-sign", *args]), main(["scalar-flat", *args])
        run = RunContext(None, manifest, bg, [], None)
        if rc_sign == 0:
            sign = yamabe_sign(bg)
            assert sign.sign == POSITIVE and verify_certificate(sign, bg)
            assert rc_flat == 0 and run.limit is not None
        else:
            assert (rc_sign, rc_flat) == (3, 3)
            with pytest.raises(ConvergenceError):
                run.limit


class TestOverflowingQuotient:
    # R0 = -1e308 on a well: the sum of R0 v^2 of every trial overflows, so
    # the best quotient is -inf, which neither certifies a sign nor is JSON
    def test_non_finite_quotient_is_a_numerical_failure(self, tmp_path, capsys):
        config = tmp_path / "grid.ini"
        config.write_text("[grid]\nn = 3\nR_max = 64\nM = 64\n")
        background = _WELL.format(A=-1e308)
        out = tmp_path / "o"
        assert main(["yamabe-sign", "--config", str(config), "--background", background,
                     "--out", str(out)]) == 3
        assert "quotient is -inf, not a finite float64" in capsys.readouterr().err
        (sign_dir,) = out.iterdir()
        assert _files(sign_dir) == {"solve_report.json"}
        payload = json.loads((sign_dir / "solve_report.json").read_text())
        assert payload["converged"] is False and "-inf" in payload["error"]
        bg = cli.build_background(parse_config(config)._replace(background=background))
        with pytest.raises(ConvergenceError, match="not a finite float64"):
            yamabe_sign(bg)


def _elliptic_command(tmp_path, command, background):
    """(exit code, output directory, background) of one elliptic command on the default grid."""
    out = tmp_path / "o"
    rc = main([command, "--background", background, "--out", str(out)])
    (outdir,) = out.iterdir()
    bg = cli.build_background(parse_config_text("")._replace(background=background))
    return rc, outdir, bg


def _files(outdir) -> set:
    return {path.name for path in outdir.iterdir()}


def _field_values(path, grid) -> np.ndarray:
    """The values row of a field file, once its layout and radii row are checked."""
    data = np.load(path)
    assert data.dtype.str == "<f8"
    assert data.shape == (2, grid.M + 1)
    assert data[0].tobytes() == grid.nodes.tobytes()
    return data[1]


class TestReadmeCli:
    def test_readme_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        registered = re.search(r"\{([a-z,-]+)\}", capsys.readouterr().out).group(1)
        block = (ROOT / "README.md").read_text().split("## CLI")[1].split("```")[1]
        listed = re.findall(r"^ylab ([a-z-]+)", block, flags=re.MULTILINE)
        assert sorted(listed) == sorted(registered.split(","))


_BRANCH_CONFIG = ("[run]\nid = case\n[grid]\nn = {n}\nR_max = 64\nM = {M}\npolicy = {policy}\n"
                  "[initial]\n{initial}\n[flow]\n{flow}\n")


def _branch_config(n=3, M="256", policy="log-stretched", initial="family = flat",
                   flow="t_end = 0.01"):
    return _BRANCH_CONFIG.format(n=n, M=M, policy=policy, initial=initial, flow=flow)


# (command, config, --background, exit code, the message that names the branch)
_ERROR_BRANCHES = {
    "prescribe-target-above-background": (
        "prescribe", _branch_config(), _WELL.format(A=-10), 3,
        "target curvature exceeds background at r=1.27"),
    "policy-spiral": ("simulate", _branch_config(policy="spiral"), None, 2,
                      "unknown grid policy 'spiral'"),
    "M-8": ("simulate", _branch_config(M="8"), None, 2, "M must be >= 16, got 8"),
    "M-abc": ("simulate", _branch_config(M="abc"), None, 2, "[grid] M = 'abc'"),
    "dt_max-below-dt0": ("simulate", _branch_config(flow="dt0 = 0.1\ndt_max = 0.01"), None, 2,
                         "dt_max must be >= dt0"),
    "t_end-0": ("simulate", _branch_config(flow="t_end = 0"), None, 2, "t_end must be positive"),
    "monitor_every-0": ("simulate", _branch_config(flow="monitor_every = 0"), None, 2,
                        "cadences must be >= 1"),
    "safety-0.5": ("simulate", _branch_config(flow="safety = 0.5"), None, 2,
                   "safety factor must be > 1"),
    "safety-1": ("simulate", _branch_config(flow="safety = 1.0"), None, 2,
                 "safety factor must be > 1, got 1.0"),
    # each [flow] key is cast by the type of its default, a None default as a float
    "newton_max-2.5": ("simulate", _branch_config(flow="newton_max = 2.5"), None, 2,
                       "[flow] newton_max = '2.5'"),
    "dt_max-abc": ("simulate", _branch_config(flow="dt_max = abc"), None, 2,
                   "[flow] dt_max = 'abc'"),
    "stop_max_u-inf": ("simulate", _branch_config(flow="stop_max_u = inf"), None, 2,
                       "is not a finite number"),
    "unclosed-section": ("simulate", _branch_config().replace("[grid]", "[grid"), None, 2,
                         "config parse error"),
    "flatx": ("simulate", _branch_config(), "flatx", 2, "unknown background 'flatx'"),
    "flat4-on-n3": ("simulate", _branch_config(), "flat4", 2,
                    "background 'flat4' conflicts with grid dimension 3"),
    "sigma-without-value": ("simulate", _branch_config(), "synthetic:A=-10,rc=2,sigma,tau=1", 2,
                            "malformed background parameter 'sigma'"),
    "unknown-synthetic-parameter": (
        "simulate", _branch_config(), "synthetic:A=-10,rc=2,sigma=1,tau=1,beta=2", 2,
        "unknown synthetic background parameters ['beta']"),
    "tau-0": ("simulate", _branch_config(), "synthetic:A=-10,rc=2,sigma=1,tau=0", 2,
              "decay order tau must be positive"),
    "sigma-0": ("simulate", _branch_config(), "synthetic:A=-10,rc=2,sigma=0,tau=1", 2,
                "width must be positive"),
    # the parameters of a background name are INI floats too: finite ones only
    "tau-inf": ("yamabe-sign", _branch_config(), "synthetic:A=-50,rc=2,sigma=1,tau=inf", 2,
                "background parameter 'tau=inf' is not a finite number"),
    "A-nan": ("simulate", _branch_config(), "synthetic:A=nan,rc=2,sigma=1,tau=1", 2,
              "background parameter 'A=nan' is not a finite number"),
    "bump-sigma-0": ("simulate", _branch_config(initial="family = gaussian_bump\nsigma = 0"),
                     None, 2, "sigma must be positive"),
    "schwarzschild-m-1": ("simulate", _branch_config(initial="family = schwarzschild\nm = -1"),
                          None, 2, "mass parameter must be nonnegative"),
    "newtonian-n4": ("simulate", _branch_config(n=4, initial="family = newtonian"), None, 2,
                     "newtonian data is implemented for n = 3 only"),
    "newtonian-radius-0": ("simulate", _branch_config(initial="family = newtonian\nradius = 0"),
                           None, 2, "radius must be positive"),
    "newtonian-radius-20": ("simulate", _branch_config(initial="family = newtonian\nradius = 20"),
                            None, 2, "source must be supported within r <= R_max/8 = 8"),
    "newtonian-radius-1e-9": (
        "simulate", _branch_config(initial="family = newtonian\nradius = 1e-9"), None, 2,
        "source bump has no mass on this grid"),
    "report-without-config": ("report", None, None, 2, "is not a run directory (no config.ini)"),
}


class TestMainExitCodes:
    @pytest.mark.parametrize("case", list(_ERROR_BRANCHES))
    def test_error_branch_exits_with_its_code(self, tmp_path, capsys, case):
        # each branch exits with its code and message, no traceback, and writes
        # no run directory; prescribe's failed solve writes its report only
        command, config, background, code, message = _ERROR_BRANCHES[case]
        out = tmp_path / "o"
        if command == "report":
            (tmp_path / "run").mkdir()
            argv = ["report", str(tmp_path / "run"), "--audits", "mass-drift",
                    "--out", str(tmp_path / "rep.json")]
        else:
            (tmp_path / "case.ini").write_text(config)
            argv = [command, "--config", str(tmp_path / "case.ini"), "--out", str(out)]
            argv += ["--background", background] if background else []
        assert main(argv) == code
        captured = capsys.readouterr()
        assert message in (captured.out if code == 3 else captured.err)
        assert "Traceback" not in captured.out + captured.err
        if code == 3:
            (outdir,) = out.iterdir()
            assert _files(outdir) == {"solve_report.json"}
            assert _strict_json(outdir / "solve_report.json")["converged"] is False
        else:
            assert not out.exists() and not (tmp_path / "rep.json").exists()

    def test_config_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[flow]\ndt0 = -1\n")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_is_two(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_scalar_flat_nonpositive_is_three(self, tmp_path):
        assert main([
            "scalar-flat",
            "--background", "synthetic:A=-50,rc=2,sigma=1,tau=1",
            "--out", str(tmp_path / "o"),
        ]) == 3

    @pytest.mark.parametrize("background, tail", [
        ("synthetic:A=-10,rc=2,sigma=1,tau=2", 0.4908738521234052),  # 10 * 4 pi / 256
        ("flat3", 0.0),  # R0 = 0: no tail to bound
    ])
    def test_scalar_flat_reports_the_r0_tail_bound(self, tmp_path, background, tail):
        # |R0| <= |A| r^{-(2+tau)} past R_max = 256 (the default grid):
        # C omega R_max^{n-q} / (q-n) with q = 4 and omega = 4 pi
        assert main(["scalar-flat", "--background", background,
                     "--out", str(tmp_path / "o")]) == 0
        (report,) = (tmp_path / "o").glob("*/solve_report.json")
        assert json.loads(report.read_text())["r0_truncation_tail_bound"] == tail

    def test_yamabe_sign_writes_certificate(self, tmp_path):
        # the certificate is the in-process one: the trial field of the
        # negative quotient, or the positive scalar-flat solution
        for A, sign in ((-50, "NonPositive"), (-10, "Positive")):
            rc, outdir, bg = _elliptic_command(tmp_path / sign, "yamabe-sign", _WELL.format(A=A))
            assert rc == 0
            assert _files(outdir) == {"certificate.npy", "sign.json"}
            payload = json.loads((outdir / "sign.json").read_text())
            assert payload["sign"] == sign
            if sign == "NonPositive":
                assert payload["quotient"] < 0.0
            certificate = _field_values(outdir / "certificate.npy", bg.grid)
            assert certificate.tobytes() == yamabe_sign(bg).certificate.values.tobytes()

    def test_yamabe_sign_prints_low_confidence(self, tmp_path, capsys):
        rc = main([
            "yamabe-sign", "--config", str(ROOT / "experiments" / "dichotomy.ini"),
            "--background", "synthetic:A=-35,rc=2,sigma=1,tau=1",
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 0
        assert capsys.readouterr().out == "yamabe-sign: NonPositive (low confidence) (Q = 9.812)\n"

    @pytest.mark.parametrize(
        "command, code", [("scalar-flat", 2), ("yamabe-sign", 0), ("prescribe", 0)]
    )
    def test_coarse_grid_fails_only_where_mass_is_read(self, tmp_path, capsys, command, code):
        # M = 16 leaves fewer than 8 nodes in [R_max/4, R_max]; simulate is
        # covered by TestSimulate::test_config_error_leaves_no_run_directory
        config = tmp_path / "coarse.ini"
        config.write_text("[grid]\nM = 16\nR_max = 512\n[flow]\nt_end = 0.01\n")
        assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == code
        if code == 2:
            assert "fewer than 8 nodes" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, code",
        [("simulate", 2), ("scalar-flat", 0), ("yamabe-sign", 0), ("prescribe", 0)],
    )
    def test_elliptic_commands_ignore_initial_data(self, tmp_path, capsys, command, code):
        # Schwarzschild data is singular at an r_in = 0 node; only simulate builds it
        config = tmp_path / "schw.ini"
        config.write_text("[initial]\nfamily = schwarzschild\n[flow]\nt_end = 0.01\n")
        assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == code
        if code == 2:
            assert "singular node" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section, key", [
        ("simulate", "[initial]\nfamily = gaussian_bump\nsigma = 1e155", "sigma"),
        ("simulate", "[initial]\nfamily = newtonian\nradius = 1e155", "radius"),
        ("simulate", "[background]\nname = synthetic:A=-1,rc=2,sigma=1e155,tau=1", "sigma"),
        ("yamabe-sign", "[background]\nname = synthetic:A=-1,rc=2,sigma=1e155,tau=1", "sigma"),
    ])
    def test_length_whose_square_overflows_is_config_error(self, tmp_path, capsys, command,
                                                            section, key):
        config = tmp_path / "run.ini"
        config.write_text(f"[grid]\nM = 64\nR_max = 64\n[flow]\nt_end = 0.01\n{section}\n")
        assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert f"{key} = 1e+155 is too large" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "scalar-flat", "yamabe-sign", "prescribe"])
    def test_uncreatable_out_is_config_error(self, tmp_path, capsys, command):
        # an output root under a regular file cannot be created
        config = tmp_path / "run.ini"
        config.write_text("[grid]\nM = 64\nR_max = 64\n[flow]\nt_end = 0.01\n")
        out = config / "sub"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        assert str(out) in capsys.readouterr().err

    def test_env_var_out_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("YLAB_OUT", str(tmp_path / "envout"))
        assert main(["scalar-flat"]) == 0
        assert (tmp_path / "envout").exists()
