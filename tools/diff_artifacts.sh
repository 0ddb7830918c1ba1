#!/usr/bin/env bash
# Byte-identity check of two ylab checkouts.
#
#   tools/diff_artifacts.sh PARENT CHANGE [WORKDIR]
#
# In each checkout's own source tree it runs the commands of the three
# benchmark workloads (configs and commands from perfbench/workloads.py,
# seed 1) and, for every experiments/*.ini, `simulate` and `report` with
# every audit.  Each side runs in WORKDIR/parent or WORKDIR/change with the
# same relative paths, and console.log records each command, its exit code
# and its output.  Then `diff -r` compares the two trees, ignoring only the
# `report written to` line.  Exits 0 when they are identical.  WORKDIR
# defaults to a new temporary directory and is kept for inspection.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 PARENT CHANGE [WORKDIR]" >&2
    exit 2
fi
work=${3:-$(mktemp -d)}

run_side() {
    local checkout side
    checkout=$(cd "$1" && pwd)
    side="$work/$2"
    rm -rf "$side"
    mkdir -p "$side"
    (cd "$side" && PYTHONPATH="$checkout/src:$checkout/perfbench" python3 - "$checkout" <<'EOF'
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import Workload
from ylab.cli import _AUDITS, parse_config

checkout = Path(sys.argv[1])
commands = []  # argv lists, relative to the side's directory
for name in ("bump_readme", "deep_well_horizon", "elliptic_fine"):
    workload = Workload(name, 1, Path("inputs") / name)
    workload.generate()
    commands += [cmd.argv for cmd in workload.commands(Path("out") / name)]
Path("inputs/experiments").mkdir(parents=True)
for ini in sorted((checkout / "experiments").glob("*.ini")):
    config = Path("inputs/experiments") / ini.name
    shutil.copy(ini, config)
    out = Path("out") / f"experiment-{ini.stem}"
    commands += [
        ["simulate", "--config", str(config), "--out", str(out)],
        ["report", str(out / parse_config(config).run_id), "--audits", ",".join(_AUDITS),
         "--out", str(out / "report.json")],
    ]

with open("console.log", "w") as log:
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "ylab.cli", *argv],
                              capture_output=True, text=True)
        log.write(f"$ ylab {' '.join(argv)}\nexit {proc.returncode}\n{proc.stdout}{proc.stderr}")
EOF
    )
}

run_side "$1" parent
run_side "$2" change
if diff -r -I '^report written to ' "$work/parent" "$work/change"; then
    echo "identical: $work/parent and $work/change"
else
    echo "artifacts differ: $work/parent and $work/change" >&2
    exit 1
fi
