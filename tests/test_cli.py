import ast
import io
import json
import re
import shutil
import xml.etree.ElementTree as ET
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ylab.cli as cli
from ylab.cli import (
    _AUDITS,
    _FAMILIES,
    _SCHEMA,
    RunContext,
    _run_audit,
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
from ylab.elliptic import prescribe_scalar_curvature, solve_scalar_flat, yamabe_sign
from ylab.errors import ConfigError, NonPositiveYamabeError
from ylab.flow import FlowState, MonitorRecord, monitor_columns, run_flow
from ylab.grids import UNIFORM, RadialField, RadialGrid
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
newton_tol = 9.9999999999999998e-13
newton_max = 25
t_end = 50
monitor_every = 2
checkpoint_every = 100
safety = 1.3
stop_max_u =\x20
"""


class TestParseConfig:
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
            replace(parse_config_text(""), run_id=run_id)
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
        grid, bg, u0, cfg = build_run(parse_config_text(BUMP_CONFIG))
        assert grid.M == 512
        assert bg.name == "flat3"
        assert u0.grid is grid
        assert u0.values[0] == pytest.approx(1.1)  # gaussian_bump, eps = 0.1
        assert cfg.t_end == 2.0

    def test_synthetic_background_cli_name(self):
        m = parse_config_text("[background]\nname = synthetic:A=-50,rc=2,sigma=1,tau=1\n")
        _, bg, _, _ = build_run(m)
        assert bg.name == "synthetic:A=-50,rc=2,sigma=1,tau=1"


class TestMonitorCsv:
    def test_round_trip(self, tmp_path):
        _, bg, u0, cfg = build_run(parse_config_text(BUMP_CONFIG))
        res = run_flow(bg, u0, cfg)
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
        names = [f.name for f in fields(MonitorRecord)]
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
        assert not summary["halted"]
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
        assert summary["stencil_evaluations"] == calls[0] > 0
        assert summary["newton_iterations"] >= summary["steps"] > 0
        assert summary["halvings"] == summary["unchanged_steps"] == 0
        doc = (ROOT / "docs" / "formats.md").read_text()
        example = doc.split("## Run summary")[1].split("```json\n")[1].split("```")[0]
        assert set(json.loads(example)) == set(summary)

    def test_flat_run_reports_no_halving(self, tmp_path):
        config = BUMP_CONFIG.replace("family = gaussian_bump\neps = 0.1\nsigma = 1.0\n",
                                     "family = flat\n")
        assert cmd_simulate(parse_config_text(config), tmp_path) == 0
        summary = json.loads((tmp_path / "bump-test" / "summary.json").read_text())
        assert summary["halvings"] == 0
        # u = 1 solves every step as it stands: each step leaves it unchanged
        assert summary["unchanged_steps"] == summary["steps"] > 0
        assert (summary["newton_iterations"], summary["stencil_evaluations"]) == (0, 1)

    def test_factor_snapshot_headers(self, tmp_path):
        cmd_simulate(parse_config_text(BUMP_CONFIG), tmp_path)
        rundir = tmp_path / "bump-test"
        assert (rundir / "final_state.csv").read_text().splitlines()[0] == "r,u"
        series = np.load(rundir / "checkpoints.npy")
        grid = build_run(parse_config_text(BUMP_CONFIG))[0]
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
            ("[flow]\nt_end = 0.01\nnewton_tol = nan\n", "[flow]\nt_end = 0.01\n",
             "[flow] newton_tol"),
            ("[grid]\nM = 64\nR_max = inf\n", "[grid]\nM = 64\nR_max = 64\n", "[grid] R_max"),
        ],
        ids=["unknown-background", "too-deep-bump", "coarse-grid", "infinite-t_end",
             "nan-t_end", "nan-dt0", "nan-newton_tol", "infinite-R_max"],
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
        cmd_simulate(replace(m, run_id="a"), tmp_path)
        cmd_simulate(replace(m, run_id="b"), tmp_path)
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
    """A run whose dt collapses at its first step: it holds only the t = 0 record."""
    root = tmp_path_factory.mktemp("one")
    config = ("[run]\nid = one\n[grid]\nR_max = 64\nM = 512\n"
              "[initial]\nfamily = gaussian_bump\neps = -0.999\n"
              "[flow]\ndt0 = 0.1\nnewton_max = 8\nt_end = 10\n")
    assert cmd_simulate(parse_config_text(config), root) == 3
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
        ],
        ids=["missing-flow", "unknown-key", "unknown-flow-key"],
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
            ("summary.json", lambda path: path.write_text('{"halted": 0}')),
            ("monitor.csv", _drop_monitor_column("lpR_p1.5")),
            ("monitor.csv", lambda path: path.write_text(
                "\n".join(path.read_text().splitlines()[:2]) + "\n")),
        ],
        ids=["missing-monitor", "missing-summary", "monitor-without-columns",
             "truncated-monitor", "unreadable-summary", "summary-without-halted",
             "non-boolean-halted", "missing-lp-column", "header-only-monitor"],
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
        assert convergence["details"]["fit"]["exponent"] == pytest.approx(-1.43554174696, rel=1e-9)
        assert spacetime["details"]["C_star"] == pytest.approx(0.0577852582129, rel=1e-9)

    def test_series_verdicts_equal_in_memory_checkpoints(self, dense_run, tmp_path):
        # every audit judges the run directory as it judges the run_flow result in memory
        manifest = parse_config_text(DENSE_CONFIG)
        _, bg, u0, cfg = build_run(manifest)
        in_memory = RunContext.from_result(manifest, bg, run_flow(bg, u0, cfg))
        stored = load_run(dense_run).checkpoints()
        assert [(c.t, c.dt, c.step_index, c.u.values.tobytes()) for c in stored] == [
            (c.t, c.dt, c.step_index, c.u.values.tobytes()) for c in in_memory.checkpoints()
        ]
        out = tmp_path / "rep.json"
        main(["report", str(dense_run), "--audits", ",".join(_AUDITS), "--out", str(out)])
        assert json.loads(out.read_text())["runs"][0]["audits"] == [
            json.loads(json.dumps(_run_audit(name, in_memory).to_json())) for name in _AUDITS
        ]

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

    def test_schwarzschild_fixed_point_audits(self, tmp_path):
        config = (
            "[run]\nid = schw\n"
            "[grid]\nn = 3\nr_in = 0.5\nR_max = 256\nM = 1024\npolicy = log-stretched\n"
            "[initial]\nfamily = schwarzschild\nm = 1.0\n"
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
    radii = draw(st.lists(st.floats(min_value=0.0, allow_infinity=False), min_size=17,
                          max_size=40, unique=True))
    grid = RadialGrid(3, np.sort(radii), UNIFORM)
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


_EDGE_GRID = RadialGrid(3, np.arange(17) * 0.25, UNIFORM)
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

    @settings(max_examples=100, deadline=None)
    @given(snapshots=_field_series(_POSITIVE))
    @example(snapshots=_EDGE_FIELDS)
    def test_field_series_round_trip_is_bitwise(self, tmp_path_factory, snapshots):
        # the series carries any positive finite float64, subnormals included
        path = tmp_path_factory.mktemp("series") / "checkpoints.npy"
        write_checkpoints(path, [FlowState(0.0, u, 1.0, k) for k, u in enumerate(snapshots)])
        back = read_checkpoints(path, snapshots[0].grid)
        assert [ck.u.values.tobytes() for ck in back] == [u.values.tobytes() for u in snapshots]

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


def _elliptic_command(tmp_path, command, background):
    """(exit code, output directory, background) of one elliptic command on the default grid."""
    out = tmp_path / "o"
    rc = main([command, "--background", background, "--out", str(out)])
    (outdir,) = out.iterdir()
    _, bg = cli.build_background(replace(parse_config_text(""), background=background))
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


class TestMainExitCodes:
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
