"""ylab benchmark: drive the public CLI in-process and report its metrics.

    python3 perfbench/run.py --workload bump_readme --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.  One
process, no extra threads.  A run sets up SETUP_REPEATS times (fresh
interpreter importing ``ylab.cli``, then input generation), makes one
warm-up pass, then repeats passes over the workload's CLI commands for
``--seconds``.  Every pass is checked: exit codes, audit and sign verdicts,
and the final field against the stored reference in ``ref/``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics:
counts and times from the traced passes (see tracing.py), the untraced phase
times, and the tracing overhead (traced minus untraced pass time).  Spans of
the last traced pass are written to .perfbench_out/<workload>/spans.jsonl.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("bump_readme", "deep_well_horizon", "elliptic_fine")
SETUP_REPEATS = 5
MIN_PASSES = 3  # per kind of pass (untraced, traced)
PHASES = ("simulate", "report", "elliptic")


def declared(kind: str) -> list:
    """(name, unit) of every metric BENCHMARK.json lists under kind."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def setup(workload) -> float:
    """Median seconds of a fresh-interpreter import of ylab.cli plus input generation."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import ylab.cli",
             str(SRC)],
            cwd=ROOT, check=True,
        )
        workload.generate()
        times.append(time.perf_counter() - start)
    return median(times)


def run_pass(workload, cli, out: Path):
    """Run the workload's commands once; return (seconds per phase, outcome)."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    gc.collect()
    phase_s = dict.fromkeys(PHASES, 0.0)
    codes = []
    for cmd in workload.commands(out):
        sink = io.StringIO()
        error = None
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                rc = cli.main(cmd.argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # an uncaught error exits the real CLI with 1
                rc, error = 1, traceback.format_exc()
        phase_s[cmd.phase] += time.perf_counter() - start
        codes.append(rc)
        if error:
            print(f"perfbench: {cmd.argv[0]} raised\n{error}", file=sys.stderr)
    outcome = workload.judge(out, codes)
    shutil.rmtree(out)
    return phase_s, outcome


def is_time(name: str) -> bool:
    return name.endswith(".s") or name.endswith("_s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ylab" / "cli.py").is_file():
        print(f"perfbench: no ylab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    cli = importlib.import_module("ylab.cli")
    workdir = OUT / args.workload
    workload = workloads.Workload(args.workload, args.seed, workdir / "inputs")
    setup_s = setup(workload)

    attempted = failed = 0
    problems = []
    u_errs = []

    def one_pass(tracer=None):
        nonlocal attempted, failed
        if tracer is not None:
            tracer.install()
        try:
            phase_s, outcome = run_pass(workload, cli, workdir / "pass")
        finally:
            if tracer is not None:
                tracer.uninstall()
        attempted += outcome.attempted
        failed += outcome.failed
        problems.extend(p for p in outcome.problems if p not in problems)
        if outcome.u_err is not None:
            u_errs.append(outcome.u_err)
        return phase_s

    one_pass()  # warm-up: lazy imports and first-touch allocations
    tracer = tracing.Tracer() if args.trace else None
    untraced, traced, layers = [], [], []
    deadline = time.perf_counter() + args.seconds
    while (time.perf_counter() < deadline or len(untraced) < MIN_PASSES
           or (tracer and len(traced) < MIN_PASSES)):
        untraced.append(one_pass())
        if tracer is not None:
            traced.append(one_pass(tracer))
            spans = tracer.take()
            layers.append({**tracing.layer_metrics(spans), "trace.spans": len(spans)})

    totals = [sum(p.values()) for p in untraced]
    if args.trace == 0:
        computed = {
            "setup_s": setup_s,
            "cli_s": median(totals),
            "u_err": max(u_errs) if u_errs else -1.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        kind = "end_to_end"
    else:
        tracing.write_spans(spans, workdir / "spans.jsonl")
        computed = {}
        for name in set().union(*layers):
            values = [layer.get(name, 0.0) for layer in layers]
            if is_time(name):
                computed[name] = median(values)
            else:
                computed[name] = values[0]
                if any(v != values[0] for v in values):
                    problems.append(f"count {name} differs between traced passes: {values}")
        for phase in PHASES:
            computed[f"phase.{phase}_s"] = median(p[phase] for p in untraced)
        computed["trace.overhead_s"] = median(sum(p.values()) for p in traced) - median(totals)
        kind = "per_layer"

    metrics = {}
    for name, unit in declared(kind):
        # a layer this workload (or this version of ylab) never calls reads 0
        value = computed.get(name, 0.0) if kind == "per_layer" else computed[name]
        metrics[name] = {"value": value, "unit": unit}

    passes = len(untraced) + len(traced) + 1
    print(f"workload {args.workload} seed {args.seed}: {passes} passes "
          f"({len(untraced)} timed untraced, {len(traced)} traced, 1 warm-up)")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    for problem in problems:
        print(f"  check failed: {problem}")
    print(f"  operations: {attempted} attempted, {failed} failed")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
