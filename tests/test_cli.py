import json
import re
import shutil
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ylab.cli as cli
from ylab.cli import (
    _AUDITS,
    _FAMILIES,
    build_run,
    cmd_report,
    cmd_simulate,
    cmd_sweep,
    load_run,
    main,
    manifest_from_json,
    parse_config,
    parse_config_text,
    read_checkpoints,
    read_monitor_csv,
    serialize_manifest,
    write_checkpoints,
    write_monitor_csv,
)
from ylab.errors import ConfigError
from ylab.flow import Checkpoint, run_flow
from ylab.grids import UNIFORM, RadialField, RadialGrid

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

[monitor]
p_list =\x20
tau_prime_list = 0, 0.5

[prescribe]
amplitude = 0.10000000000000001
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
        text = BUMP_CONFIG + "\n[monitor]\np_list = 1.0, 1.5, 2.0\ntau_prime_list = 0.0\n"
        m = parse_config_text(text)
        assert m.flow.p_list == (1.0, 1.5, 2.0)
        assert parse_config_text(serialize_manifest(m)) == m

    def test_seed_round_trips(self):
        m = parse_config_text("[run]\nseed = 42\n")
        assert m.seed == 42
        assert parse_config_text(serialize_manifest(m)).seed == 42

    def test_negative_dt_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[flow]\ndt0 = -1\n")

    def test_unknown_key_rejected(self):
        for key in ("timestep = 0.1", "scheme = linearly-implicit",
                    "scheme = backward-euler-newton"):
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config_text(f"[flow]\n{key}\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[paths]\nout = /tmp\n")

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

    def test_manifest_json_round_trip(self):
        m = parse_config_text(BUMP_CONFIG)
        assert manifest_from_json(json.loads(json.dumps(asdict(m)))) == m


class TestBuildRun:
    def test_experiment_configs_build(self):
        configs = sorted((ROOT / "experiments").glob("*.ini"))
        assert [p.name for p in configs] == ["bump_audit.ini", "dichotomy.ini", "mass_drop.ini"]
        for path in configs:
            build_run(parse_config(path))

    def test_bump_objects(self):
        grid, bg, init, cfg = build_run(parse_config_text(BUMP_CONFIG))
        assert grid.M == 512
        assert bg.name == "flat3"
        assert init.family == "gaussian_bump"
        assert cfg.t_end == 2.0

    def test_synthetic_background_cli_name(self):
        m = parse_config_text("[background]\nname = synthetic:A=-50,rc=2,sigma=1,tau=1\n")
        _, bg, _, _ = build_run(m)
        assert bg.name == "synthetic:A=-50,rc=2,sigma=1,tau=1"


class TestMonitorCsv:
    def test_round_trip(self, tmp_path):
        _, bg, init, cfg = build_run(parse_config_text(BUMP_CONFIG))
        from ylab.flow import run_flow

        res = run_flow(bg, init, cfg)
        p_list = cfg.monitored_p(3)
        path = tmp_path / "monitor.csv"
        write_monitor_csv(path, res.records, p_list, cfg.tau_prime_list)
        records, ps, taus = read_monitor_csv(path)
        assert ps == list(p_list)
        assert taus == list(cfg.tau_prime_list)
        assert len(records) == len(res.records)
        assert records[3].sup_R == res.records[3].sup_R  # 17 digits round-trips floats


class TestSimulate:
    def test_artifacts_and_exit(self, tmp_path):
        m = parse_config_text(BUMP_CONFIG)
        assert cmd_simulate(m, tmp_path) == 0
        rundir = tmp_path / "bump-test"
        assert sorted(p.name for p in rundir.iterdir()) == [
            "checkpoints.json", "checkpoints.npy", "config.ini", "final_state.csv",
            "manifest.json", "monitor.csv", "summary.json",
        ]
        manifest = json.loads((rundir / "manifest.json").read_text())
        assert manifest["artifact_paths"]["checkpoints"] == "checkpoints.npy"
        summary = json.loads((rundir / "summary.json").read_text())
        assert not summary["halted"]
        assert summary["final_t"] == pytest.approx(2.0)

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
        assert set(sidecar) == {"t", "dt", "step_index", "background_name"}
        assert sidecar["background_name"] == "flat3"
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
        ],
        ids=["unknown-background", "too-deep-bump", "coarse-grid"],
    )
    def test_config_error_leaves_no_run_directory(self, tmp_path, capsys, bad, good, message):
        config = tmp_path / "run.ini"
        out = tmp_path / "out"
        text = "[run]\nid = x\n[flow]\nt_end = 0.01\n"
        if "[grid]" not in bad:
            text += "[grid]\nM = 64\nR_max = 64\n"
        config.write_text(text + bad)
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "x").exists()
        config.write_text(text + good)
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "x" / "manifest.json").exists()

    def test_determinism_bit_identical(self, tmp_path):
        m = parse_config_text(BUMP_CONFIG)
        from dataclasses import replace

        cmd_simulate(replace(m, run_id="a"), tmp_path)
        cmd_simulate(replace(m, run_id="b"), tmp_path)
        a = (tmp_path / "a" / "monitor.csv").read_bytes()
        b = (tmp_path / "b" / "monitor.csv").read_bytes()
        assert a == b
        fa = (tmp_path / "a" / "final_state.csv").read_bytes()
        fb = (tmp_path / "b" / "final_state.csv").read_bytes()
        assert fa == fb


@pytest.fixture(scope="module")
def bump_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    cmd_simulate(parse_config_text(BUMP_CONFIG), root)
    return root / "bump-test"


DENSE_CONFIG = BUMP_CONFIG.replace("checkpoint_every = 20", "checkpoint_every = 1")


@pytest.fixture(scope="module")
def dense_run(tmp_path_factory):
    """BUMP_CONFIG with a checkpoint after every step (20 checkpoints)."""
    root = tmp_path_factory.mktemp("dense")
    assert cmd_simulate(parse_config_text(DENSE_CONFIG), root) == 0
    return root / "bump-test"


def _shift_radius(path):
    data = np.load(path)
    data[0, 1] *= 1.0 + 1e-9
    np.save(path, data)


def _drop_last_time(path):
    meta = json.loads(path.read_text())
    meta["t"].pop()
    path.write_text(json.dumps(meta))


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

    def test_readme_lists_every_audit(self):
        readme = (ROOT / "README.md").read_text()
        paragraph = readme.split("Available audits for `report`:")[1].split("\n\n")[0]
        assert re.findall(r"`([a-z-]+)`", paragraph) == sorted(_AUDITS)

    def test_unknown_audit_rejected(self, bump_run):
        with pytest.raises(ConfigError):
            cmd_report([bump_run], ["vibes"], out=None)

    def test_plots_emitted(self, bump_run, tmp_path):
        rc = cmd_report([bump_run], [], out=tmp_path / "rep.json", plots=True)
        assert rc == 0
        svg = Path(bump_run) / "sup_R.svg"
        assert svg.exists()
        assert svg.read_text().startswith("<svg")

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

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda data: data.pop("flow"),
            lambda data: data.update(colour="blue"),
            lambda data: data["flow"].update(timestep=0.1),
        ],
        ids=["missing-flow", "unknown-key", "unknown-flow-key"],
    )
    def test_malformed_manifest_is_config_error(self, bump_run, tmp_path, capsys, corrupt):
        broken = tmp_path / "broken"
        broken.mkdir()
        data = json.loads((bump_run / "manifest.json").read_text())
        corrupt(data)
        (broken / "manifest.json").write_text(json.dumps(data))
        rc = main(["report", str(broken), "--audits", "mass-drift",
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 2
        assert str(broken / "manifest.json") in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, corrupt",
        [
            ("monitor.csv", lambda path: path.unlink()),
            ("summary.json", lambda path: path.unlink()),
            ("monitor.csv", lambda path: path.write_text("t,sup_R\n1,oops\n")),
            ("monitor.csv", lambda path: path.write_text(path.read_text()[:-40])),
            ("summary.json", lambda path: path.write_text("{not json")),
        ],
        ids=["missing-monitor", "missing-summary", "monitor-without-columns",
             "truncated-monitor", "unreadable-summary"],
    )
    def test_incomplete_run_directory_is_config_error(
        self, bump_run, tmp_path, capsys, name, corrupt
    ):
        broken = tmp_path / "broken"
        broken.mkdir()
        for kept in ("manifest.json", "monitor.csv", "summary.json"):
            (broken / kept).write_bytes((bump_run / kept).read_bytes())
        corrupt(broken / name)
        rc = main(["report", str(broken), "--audits", "mass-drift",
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 2
        assert str(broken / name) in capsys.readouterr().err

    @pytest.mark.parametrize("audit", ["convergence", "spacetime-decay"])
    @pytest.mark.parametrize(
        "name, corrupt",
        [
            ("checkpoints.npy", lambda path: path.unlink()),
            ("checkpoints.npy", lambda path: path.write_bytes(path.read_bytes()[:-40])),
            ("checkpoints.npy", lambda path: np.save(path, np.load(path)[:, :-1])),
            ("checkpoints.npy", _shift_radius),
            ("checkpoints.json", _drop_last_time),
        ],
        ids=["missing-series", "truncated-series", "wrong-shape-series",
             "radii-mismatch", "short-time-column"],
    )
    def test_unreadable_checkpoint_series_is_config_error(
        self, bump_run, tmp_path, capsys, name, corrupt, audit
    ):
        broken = tmp_path / "broken"
        shutil.copytree(bump_run, broken)
        corrupt(broken / name)
        rc = main(["report", str(broken), "--audits", audit,
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 2
        assert str(broken / name) in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def p2_run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("p2")
        config = BUMP_CONFIG + "\n[monitor]\np_list = 2.0\n"
        assert cmd_simulate(parse_config_text(config), root) == 0
        return root / "bump-test"

    @pytest.mark.parametrize(
        "audit, column",
        [("lp-monotone", "lpR_p1.5"), ("lp-monotone-window", "lpR_p1.4"),
         ("lp-inequality", "lpR_p1.6")],
    )
    def test_unmonitored_lp_column_fails_cleanly(self, p2_run, tmp_path, audit, column):
        out = tmp_path / "rep.json"
        rc = main(["report", str(p2_run), "--audits", audit, "--out", str(out)])
        assert rc == 4
        (verdict,) = json.loads(out.read_text())["runs"][0]["audits"]
        assert verdict["name"] == audit
        assert verdict["pass"] is False
        assert column in verdict["details"]["error"]

    def test_checkpoints_read_once_per_run(self, dense_run, tmp_path, monkeypatch):
        rundir = dense_run
        k = len(json.loads((rundir / "checkpoints.json").read_text())["t"])
        assert k == 20
        loads = []
        load = cli.read_field_series
        monkeypatch.setattr(
            cli, "read_field_series", lambda path, grid: loads.append(path) or load(path, grid)
        )
        out = tmp_path / "rep.json"
        rc = main(["report", str(rundir), "--audits", "convergence,spacetime-decay",
                   "--out", str(out)])
        assert rc == 0
        assert loads == [rundir / "checkpoints.npy"]
        verdicts = json.loads(out.read_text())["runs"][0]["audits"]
        # each audit on its own freshly loaded run, as when every audit read the checkpoints
        assert verdicts == [
            json.loads(json.dumps(_AUDITS[name](load_run(rundir)).to_json()))
            for name in ("convergence", "spacetime-decay")
        ]
        convergence, spacetime = verdicts
        assert convergence["pass"] is True and spacetime["pass"] is True
        assert convergence["details"]["fit"]["exponent"] == pytest.approx(-1.43554174696, rel=1e-9)
        assert spacetime["details"]["C_star"] == pytest.approx(0.0577852583785, rel=1e-9)

    def test_series_verdicts_equal_in_memory_checkpoints(self, dense_run, tmp_path):
        _, bg, init, cfg = build_run(parse_config_text(DENSE_CONFIG))
        in_memory = run_flow(bg, init, cfg).checkpoints
        ctx = load_run(dense_run)
        stored = ctx.checkpoints()
        assert [(c.t, c.dt, c.step_index, c.u.values.tobytes()) for c in stored] == [
            (c.t, c.dt, c.step_index, c.u.values.tobytes()) for c in in_memory
        ]
        out = tmp_path / "rep.json"
        audits = ("convergence", "spacetime-decay")
        assert main(["report", str(dense_run), "--audits", ",".join(audits),
                     "--out", str(out)]) == 0
        ctx._checkpoints = in_memory
        assert json.loads(out.read_text())["runs"][0]["audits"] == [
            json.loads(json.dumps(_AUDITS[name](ctx).to_json())) for name in audits
        ]

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
def _checkpoint_series(draw):
    """K >= 1 checkpoints of arbitrary finite float64 on a grid of arbitrary radii."""
    radii = draw(st.lists(st.floats(min_value=0.0, allow_infinity=False), min_size=17,
                          max_size=40, unique=True))
    grid = RadialGrid(3, np.sort(radii), UNIFORM)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    k = draw(st.integers(min_value=1, max_value=6))
    return [
        Checkpoint(
            draw(finite),
            RadialField(grid, np.array(draw(st.lists(finite, min_size=grid.M + 1,
                                                     max_size=grid.M + 1)))),
            draw(finite),
            draw(st.integers(min_value=0, max_value=2**53)),
        )
        for _ in range(k)
    ]


_EDGE_GRID = RadialGrid(3, np.arange(17) * 0.25, UNIFORM)
_EDGE_SERIES = [
    Checkpoint(-0.0, RadialField(_EDGE_GRID, np.array([5e-324, -0.0, -1e300] + [1 / 3] * 14)),
               5e-324, 0),
    Checkpoint(0.1, RadialField(_EDGE_GRID, np.full(17, -2.2250738585072014e-308)), 1e300, 7),
]


class TestCheckpointSeries:
    @settings(max_examples=100, deadline=None)
    @given(checkpoints=_checkpoint_series())
    @example(checkpoints=_EDGE_SERIES)
    def test_round_trip_is_bitwise(self, tmp_path_factory, checkpoints):
        path = tmp_path_factory.mktemp("series") / "checkpoints.npy"
        write_checkpoints(path, checkpoints, "flat3")
        back = read_checkpoints(path, checkpoints[0].u.grid)
        assert len(back) == len(checkpoints)
        for got, want in zip(back, checkpoints):
            assert got.u.values.tobytes() == want.u.values.tobytes()
            for key in ("t", "dt", "step_index"):
                assert np.array(getattr(got, key)).tobytes() == np.array(getattr(want, key)).tobytes()
        assert json.loads(path.with_suffix(".json").read_text())["background_name"] == "flat3"


class TestSweep:
    def test_dichotomy_sweep(self, tmp_path):
        config = tmp_path / "template.ini"
        config.write_text(
            "[run]\nid = dich\n"
            "[grid]\nn = 3\nr_in = 0.0\nR_max = 128\nM = 512\npolicy = log-stretched\n"
            "[flow]\ndt0 = 1e-3\nsafety = 2.0\nt_end = 1e13\nmonitor_every = 20\n"
            "checkpoint_every = 1000000\nstop_max_u = 1e3\nnewton_max = 40\n"
        )
        rc = cmd_sweep(
            config,
            ["background.name=synthetic:A=-50,rc=2,sigma=1,tau=1;"
             "synthetic:A=0.01,rc=2,sigma=1,tau=1"],
            tmp_path / "out",
            jobs=1,
            audits=[],
        )
        assert rc == 0
        summaries = sorted((tmp_path / "out").glob("dich-*/summary.json"))
        assert len(summaries) == 2
        halted = [json.loads(p.read_text())["halted"] for p in summaries]
        assert sorted(halted) == [False, True]  # one blow-up, one convergent

    def test_parallel_jobs(self, tmp_path):
        config = tmp_path / "template.ini"
        config.write_text(
            "[run]\nid = par\n[grid]\nM = 512\nR_max = 64\n"
            "[flow]\ndt0 = 0.01\nt_end = 0.1\n"
        )
        rc = cmd_sweep(
            config,
            ["initial.family=flat;gaussian_bump"],
            tmp_path / "out",
            jobs=2,
            audits=[],
        )
        assert rc == 0
        assert len(list((tmp_path / "out").glob("par-*/monitor.csv"))) == 2


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

    def test_yamabe_sign_writes_certificate(self, tmp_path):
        rc = main([
            "yamabe-sign",
            "--background", "synthetic:A=-50,rc=2,sigma=1,tau=1",
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 0
        sign_files = list((tmp_path / "o").glob("*/sign.json"))
        assert len(sign_files) == 1
        payload = json.loads(sign_files[0].read_text())
        assert payload["sign"] == "NonPositive"
        assert payload["quotient"] < 0.0

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

    def test_env_var_out_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("YLAB_OUT", str(tmp_path / "envout"))
        assert main(["scalar-flat"]) == 0
        assert (tmp_path / "envout").exists()
