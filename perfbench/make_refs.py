"""Regenerate the stored reference fields in perfbench/ref/.

    python3 perfbench/make_refs.py [bump_readme|deep_well_horizon|elliptic_fine ...]

Run from the root of a checkout.  Each reference is a (2, M+1) array of
radii and values:

* bump_readme: final state of the bump_readme config at dt_max / 16
  (3208 steps, about 20 s on 2 cores).
* deep_well_horizon: final state of the deep_well_horizon config with every
  step 16 times shorter (dt0 / 16 and safety 1.3^(1/16)).
* elliptic_fine: the prescribed-curvature factor on flat3 at M = 65536 with
  Newton iterated to round-off stagnation (the CLI stops after one step, at
  its tolerance).

Monitoring and checkpoints are thinned out; neither changes the state.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

OUT = HERE.parent / ".perfbench_out" / "refs"


def _simulate(config_text: str, run_id: str) -> np.ndarray:
    from ylab.cli import main

    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    config = OUT / "run.ini"
    config.write_text(config_text)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["simulate", "--config", str(config), "--out", str(OUT)])
    if rc != 0:
        raise SystemExit(f"reference simulate exited {rc}")
    data = np.loadtxt(OUT / run_id / "final_state.csv", delimiter=",", skiprows=1)
    shutil.rmtree(OUT)
    return data.T.copy()


def bump_readme() -> np.ndarray:
    return _simulate(wl.bump_config("ref", 0, dt_max=0.25 / 16, cadence=10**9,
                                    checkpoint_every=10**9), "ref")


def deep_well_horizon() -> np.ndarray:
    return _simulate(wl.deep_config("ref", 0, dt0=1e-3 / 16, safety=1.3 ** (1 / 16),
                                    cadence=10**9), "ref")


def elliptic_fine() -> np.ndarray:
    from ylab.backgrounds import background_from_name, conformal_exponents
    from ylab.grids import build_grid
    from ylab.operators import boundary_laplacian, solve_tridiagonal

    grid = build_grid(3, 0.0, 512.0, wl.ELLIPTIC_M, "log-stretched")
    bg = background_from_name("flat3", grid)
    # the target of ``ylab prescribe`` at its default amplitude 0.1
    target = -0.1 * (1.0 + grid.nodes**2) ** (-(2.0 + bg.tau) / 2.0)
    a, N = conformal_exponents(3)
    lap = boundary_laplacian(grid)
    R0 = bg.r0_profile.values
    phi = np.ones(grid.nodes.size)
    for _ in range(6):  # quadratic convergence reaches round-off by step 3
        res = -a * lap.apply(phi) + R0 * phi - target * phi**N
        diag = -a * lap.diag + R0 - N * target * phi ** (N - 1.0)
        phi = phi + solve_tridiagonal(-a * lap.lower, diag, -a * lap.upper, -res)
    # the CLI writes its CSV at 17 significant digits; round the radii the same way
    radii = np.array([float(f"{r:.17g}") for r in grid.nodes])
    return np.stack([radii, phi])


def main(names) -> None:
    for name in names or ("bump_readme", "deep_well_horizon", "elliptic_fine"):
        ref = globals()[name]()
        np.save(wl.REF_DIR / f"{name}.npy", ref)
        print(f"{name}: {ref.shape[1]} nodes -> {wl.REF_DIR / (name + '.npy')}")


if __name__ == "__main__":
    main(sys.argv[1:])
