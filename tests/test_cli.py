import json
from pathlib import Path

import pytest

from ylab.cli import (
    build_run,
    cmd_report,
    cmd_simulate,
    cmd_sweep,
    main,
    manifest_from_json,
    parse_config_text,
    read_monitor_csv,
    serialize_manifest,
    write_monitor_csv,
)
from ylab.errors import ConfigError

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


class TestParseConfig:
    def test_minimal_fills_defaults(self):
        m = parse_config_text("")
        assert m.background == "flat"
        assert m.initial_data == {"family": "flat"}
        assert m.grid["n"] == 3
        assert m.flow.dt0 == 1e-3
        assert m.run_id == "flat-flat"

    def test_round_trip(self):
        m = parse_config_text(BUMP_CONFIG)
        again = parse_config_text(serialize_manifest(m))
        assert again == m

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
        with pytest.raises(ConfigError):
            parse_config_text("[flow]\ntimestep = 0.1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[paths]\nout = /tmp\n")

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[initial]\nfamily = soliton\n")

    def test_manifest_json_round_trip(self):
        m = parse_config_text(BUMP_CONFIG)
        from ylab.cli import _manifest_json

        assert manifest_from_json(json.loads(json.dumps(_manifest_json(m)))) == m


class TestBuildRun:
    def test_bump_objects(self):
        grid, bg, init, cfg = build_run(parse_config_text(BUMP_CONFIG))
        assert grid.M == 512
        assert bg.name == "flat3"
        assert init.family == "gaussian_bump"
        assert cfg.t_end == 2.0

    def test_synthetic_background_cli_name(self):
        m = parse_config_text("[background]\nname = synthetic:A=-50,rc=2,sigma=1,tau=1\n")
        _, bg, _, _ = build_run(m)
        assert bg.mode == "synthetic"


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
        for name in ("monitor.csv", "final_state.csv", "summary.json",
                      "manifest.json", "config.ini"):
            assert (rundir / name).exists()
        assert list((rundir / "checkpoints").glob("ckpt_*.csv"))
        summary = json.loads((rundir / "summary.json").read_text())
        assert not summary["halted"]
        assert summary["final_t"] == pytest.approx(2.0)

    def test_factor_snapshot_headers(self, tmp_path):
        cmd_simulate(parse_config_text(BUMP_CONFIG), tmp_path)
        rundir = tmp_path / "bump-test"
        assert (rundir / "final_state.csv").read_text().splitlines()[0] == "r,u"
        ckpt = next((rundir / "checkpoints").glob("ckpt_*.csv"))
        assert ckpt.read_text().splitlines()[0] == "r,u"
        sidecar = json.loads(ckpt.with_suffix(".json").read_text())
        assert set(sidecar) == {"t", "dt", "step_index", "background_name"}

    def test_duplicate_run_id_rejected(self, tmp_path):
        m = parse_config_text(BUMP_CONFIG)
        cmd_simulate(m, tmp_path)
        with pytest.raises(ConfigError):
            cmd_simulate(m, tmp_path)

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


class TestReport:
    def test_passing_audits_exit_zero(self, bump_run, capsys):
        rc = cmd_report([bump_run], ["lp-monotone", "min-r-monotone"], out=bump_run / "rep.json")
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_corrupted_series_exit_four(self, bump_run, tmp_path):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(bump_run, broken)
        monitor = (broken / "monitor.csv").read_text().splitlines()
        # force the p = n/2 column to increase: corrupt the last row
        header = monitor[1].split(",")
        col = header.index("lpR_p1.5")
        last = monitor[-1].split(",")
        last[col] = "1e9"
        monitor[-1] = ",".join(last)
        (broken / "monitor.csv").write_text("\n".join(monitor) + "\n")
        rc = cmd_report([broken], ["lp-monotone"], out=tmp_path / "rep.json")
        assert rc == 4

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

    def test_env_var_out_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("YLAB_OUT", str(tmp_path / "envout"))
        assert main(["scalar-flat"]) == 0
        assert (tmp_path / "envout").exists()
