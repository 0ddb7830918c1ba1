"""The benchmark's span tracer (perfbench/tracing.py) still installs on ylab.

The tracer patches functions and methods by name, so a rename or a moved
call site breaks the benchmark's per-layer metrics silently; this runs it
around a tiny simulate plus report.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

import ylab.cli as cli
import ylab.elliptic as elliptic
from ylab.grids import build_grid

ROOT = Path(__file__).resolve().parent.parent

CONFIG = """
[run]
id = traced

[grid]
n = 3
R_max = 64
M = 256

[initial]
family = gaussian_bump
eps = 0.1
sigma = 1.0

[flow]
dt0 = 0.01
dt_max = 0.1
t_end = 0.5
monitor_every = 2
checkpoint_every = 2
"""


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("tracing")


def _bindings(tracing):
    """Every attribute the tracer may patch: module globals and the traced methods."""
    bindings = {}
    for short in tracing.MODULES:
        module = importlib.import_module(f"ylab.{short}")
        bindings.update({(module, attr): value for attr, value in vars(module).items()})
    for short, cls_name, method in tracing.METHODS:
        cls = getattr(importlib.import_module(f"ylab.{short}"), cls_name)
        bindings[(cls, method)] = vars(cls)[method]
    bindings.update({(sys.modules["ylab"], attr): value
                     for attr, value in vars(sys.modules["ylab"]).items()})
    return bindings


def test_tracer_spans_one_operator_per_run_and_uninstalls(tracing, tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(CONFIG)
    out = tmp_path / "out"
    before = _bindings(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        rc = cli.main(["report", str(out / "traced"), "--audits", "convergence",
                       "--out", str(tmp_path / "report.json")])
        assert rc in (0, 4)  # a verdict, not a configuration error
    finally:
        tracer.uninstall()
    spans = tracer.take()
    names = {span.name for span in spans}
    for name in ("flow.step", "flow._attempt_step", "operators.BoundaryLaplacian.apply",
                 "cli.RunContext.checkpoints"):
        assert name in names

    def under_run_flow(span):
        while span.parent >= 0:
            span = spans[span.parent]
            if span.name == "flow.run_flow":
                return True
        return False

    for name in ("operators.conformal_laplacian", "operators.boundary_laplacian"):
        assert sum(s.name == name and under_run_flow(s) for s in spans) == 1, name
    # the benchmark's counts agree with the run's own work counters: no
    # Newton solve in the flow, two tridiagonal solves per step (no attempt
    # is rejected), one stencil apply per evaluation, and one attempt and
    # one step span per step
    calls = {name: sum(s.name == name and under_run_flow(s) for s in spans)
             for name in ("operators.damped_newton", "operators.solve_tridiagonal",
                          "operators.BoundaryLaplacian.apply", "flow._attempt_step",
                          "flow.step")}
    work = json.loads((out / "traced" / "summary.json").read_text())
    assert work["halvings"] == 0
    assert calls == {
        "operators.damped_newton": 0,
        "operators.solve_tridiagonal": 2 * work["steps"],
        "operators.BoundaryLaplacian.apply": work["stencil_evaluations"],
        "flow._attempt_step": work["steps"],
        "flow.step": work["steps"],
    }
    metrics = tracing.layer_metrics(spans)
    assert (metrics["flow.attempts"], metrics["flow.halvings"]) == (work["steps"], 0)
    after = _bindings(tracing)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


SIGN_CONFIG = """
[run]
id = traced-sign

[grid]
n = 3
R_max = 64
M = 256
"""


def test_tracer_spans_each_trial_quotient_of_the_sign_scan(tracing, tmp_path):
    # the scan's per-layer metric counts calls of the public yamabe_quotient,
    # one per catalog trial the grid accepts, inside the yamabe_sign span
    config = tmp_path / "sign.ini"
    config.write_text(SIGN_CONFIG)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = cli.main(["yamabe-sign", "--config", str(config), "--background",
                       "synthetic:A=-50,rc=2,sigma=1,tau=1", "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert rc == 0
    (sign_dir,) = (tmp_path / "out").iterdir()
    assert json.loads((sign_dir / "sign.json").read_text())["sign"] == elliptic.NON_POSITIVE
    spans = tracer.take()
    quotients = [s for s in spans if s.name == "elliptic.yamabe_quotient"]
    assert all(spans[s.parent].name == "elliptic.yamabe_sign" for s in quotients)
    grid = build_grid(3, 0.0, 64.0, 256)
    accepted = sum(elliptic._truncated_gaussian(grid, center, width)[0] is not None
                   for center in elliptic._TRIAL_CENTERS for width in elliptic._TRIAL_WIDTHS)
    assert len(quotients) == accepted > 0


def test_tracer_spans_the_prescribe_newton(tracing, tmp_path):
    # the per-layer Newton metrics of the elliptic workload come from
    # prescribe's damped_newton call: its residual and Jacobian spans nest
    # under the solve, one Jacobian per reported iteration
    config = tmp_path / "grid.ini"
    config.write_text(SIGN_CONFIG)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = cli.main(["prescribe", "--config", str(config), "--background", "flat3",
                       "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert rc == 0
    (outdir,) = (tmp_path / "out").iterdir()
    iterations = json.loads((outdir / "solve_report.json").read_text())["iterations"]
    spans = tracer.take()

    def ancestors(span):
        while span.parent >= 0:
            span = spans[span.parent]
            yield span.name

    newton = [s for s in spans if s.name.startswith("operators.newton.")]
    assert newton
    assert all("elliptic.prescribe_scalar_curvature" in ancestors(s) for s in newton)
    jacobians = sum(s.name == "operators.newton.jacobian" for s in spans)
    assert jacobians == iterations > 0


@pytest.mark.parametrize("background, solves", [
    ("synthetic:A=1000,rc=2,sigma=1,tau=1", 2),  # min u 1.6e-4: 1 + v cancels
    ("flat3", 1),
])
def test_tracer_spans_each_scalar_flat_solve(tracing, tmp_path, background, solves):
    # the per-layer tridiagonal count of scalar-flat is one solve, or two
    # when the factor is solved again for u; solve_report.json counts them
    config = tmp_path / "grid.ini"
    config.write_text("[grid]\nn = 3\nR_max = 512\nM = 2048\n")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = cli.main(["scalar-flat", "--config", str(config), "--background", background,
                       "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert rc == 0
    (outdir,) = (tmp_path / "out").iterdir()
    iterations = json.loads((outdir / "solve_report.json").read_text())["iterations"]
    spans = tracer.take()
    tridiagonal = [s for s in spans if s.name == "operators.solve_tridiagonal"]
    assert all(spans[s.parent].name == "elliptic.solve_scalar_flat" for s in tridiagonal)
    assert len(tridiagonal) == iterations == solves
