import importlib.machinery
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ylab import operators
from ylab.grids import LOG_STRETCHED, build_grid
from ylab.operators import _MAX_BACKTRACKS, boundary_laplacian, damped_newton, solve_tridiagonal

SRC = Path(__file__).resolve().parent.parent / "src"

LEVEL = 1e-10  # round-off floor of the synthetic residual


def counting(residual_fn):
    """residual_fn as damped_newton calls it, returning (F, v); the list records each point."""
    points = []

    def wrapped(v):
        points.append(np.array(v))
        return residual_fn(v), v

    return wrapped, points


def floored_residual(v):
    # root at v = 2, but no residual below LEVEL is representable
    return np.maximum(np.abs(v - 2.0), LEVEL)


def identity_jacobian(v):
    return np.zeros(v.size - 1), np.ones(v.size), np.zeros(v.size - 1)


class TestDampedNewton:
    @pytest.mark.parametrize("floor", [LEVEL, 10.0 * LEVEL])
    def test_floor_ends_stall_after_one_failed_candidate(self, floor):
        fn, points = counting(floored_residual)
        u, rn, iterations, converged = damped_newton(
            np.full(4, 3.0), fn, identity_jacobian, tol=1e-14, max_iter=25, floor=floor
        )
        # initial residual, the accepted full step onto the floor, one failed
        # candidate; the evaluation returned is the accepted iterate's
        assert len(points) == 3
        assert (rn, iterations, converged) == (LEVEL, 2, False)
        assert np.all(u == 2.0) and not np.any(points[-1] == 2.0)

    @pytest.mark.parametrize("max_backtracks", [_MAX_BACKTRACKS])
    def test_zero_floor_runs_full_sweep(self, max_backtracks):
        # floor = 0 halves on past failed candidates until the step rounds
        # away: 2 - lam * LEVEL equals 2.0 from lam = 2^-20 on, so the sweep
        # evaluates the initial point, the accepted step onto the floor and
        # 20 candidates, none of them equal to the iterate
        fn, points = counting(floored_residual)
        u, rn, iterations, converged = damped_newton(
            np.full(4, 3.0), fn, identity_jacobian, tol=1e-14, max_iter=25
        )
        distinct = [k for k in range(max_backtracks) if 2.0 - 0.5**k * LEVEL != 2.0]
        assert distinct == list(range(20))
        assert len(points) == 2 + len(distinct) == 22
        assert not any(np.any(point == 2.0) for point in points[2:])
        assert (rn, iterations, converged) == (LEVEL, 2, False)
        assert np.all(u == 2.0)

    def test_residual_above_floor_still_backtracks(self):
        # full Newton steps overshoot arctan's root at 10; from 12 the full
        # step is rejected and the half step accepted
        fn, points = counting(lambda v: np.arctan(v - 10.0))

        def jacobian_fn(v):
            return np.zeros(0), 1.0 / (1.0 + (v - 10.0) ** 2), np.zeros(0)

        u0 = np.array([12.0])
        delta = -np.arctan(2.0) * 5.0
        u, rn, _, converged = damped_newton(
            u0, fn, jacobian_fn, tol=1e-12, max_iter=25, floor=1e-3
        )
        assert points[1][0] == pytest.approx(u0[0] + delta, rel=1e-15)
        assert points[2][0] == pytest.approx(u0[0] + 0.5 * delta, rel=1e-15)
        assert converged
        assert rn <= 1e-12
        assert u[0] == pytest.approx(10.0, abs=1e-12)

    @pytest.mark.parametrize("floor", [0.0, 1e-3])
    def test_jacobian_sees_the_last_residual_array(self, floor):
        # arctan steps overshoot from 12, so candidates are rejected before a
        # half step is accepted; every Jacobian call must receive the
        # evaluation returned with the current iterate, which is also the
        # last one the residual returned
        tol = 1e-12
        calls = []

        def residual_fn(v):
            e = (v.copy(),)  # a new evaluation object per call
            calls.append(("residual", e))
            return np.arctan(v - 10.0), e

        def jacobian_fn(e):
            calls.append(("jacobian", e))
            (v,) = e
            return np.zeros(0), 1.0 / (1.0 + (v - 10.0) ** 2), np.zeros(0)

        e, _, iterations, converged = damped_newton(
            np.array([12.0]), residual_fn, jacobian_fn, tol=tol, max_iter=25, floor=floor
        )
        assert converged
        # the current iterate, replayed: a candidate replaces it when it
        # reduces the residual or meets tol
        current, rn, rejected = None, np.inf, 0
        for i, (kind, ev) in enumerate(calls):
            if kind == "residual":
                crn = abs(float(np.arctan(ev[0][0] - 10.0)))
                if crn < rn or crn <= tol:
                    current, rn = ev, crn
                else:
                    rejected += 1
            else:
                assert ev is current
                assert ev is calls[i - 1][1]
        assert e is current
        assert sum(kind == "jacobian" for kind, _ in calls) == iterations
        assert rejected > 0

    @pytest.mark.parametrize("floor", [0.0, 1e-3])
    def test_iterates_stay_positive_when_the_full_step_crosses_zero(self, floor):
        # f(v) = 1 - 1/v has its root at 1; from 3 and 4 the full Newton
        # steps land at -3 and -8, so only a damped step may be taken
        fn, points = counting(lambda v: 1.0 - 1.0 / v)

        def jacobian_fn(v):
            return np.zeros(v.size - 1), v**-2.0, np.zeros(v.size - 1)

        u0 = np.array([3.0, 4.0])
        assert np.all(u0 - (1.0 - 1.0 / u0) * u0**2 < 0.0)
        u, rn, _, converged = damped_newton(
            u0, fn, jacobian_fn, tol=1e-12, max_iter=25, floor=floor
        )
        assert all(np.min(v) > 0.0 for v in points)  # no residual at a nonpositive point
        assert np.min(u) > 0.0
        assert converged and rn <= 1e-12
        assert u == pytest.approx([1.0, 1.0], abs=1e-12)

    @pytest.mark.parametrize("m", [1, 5])
    def test_singular_jacobian_stops_without_a_step(self, m):
        fn, points = counting(lambda v: v - 2.0)

        def singular_jacobian(v):
            return np.zeros(v.size - 1), np.zeros(v.size), np.zeros(v.size - 1)

        u0 = np.full(m, 3.0)
        u, rn, iterations, converged = damped_newton(
            u0, fn, singular_jacobian, tol=1e-12, max_iter=25
        )
        assert (rn, iterations, converged) == (1.0, 0, False)
        assert np.array_equal(u, u0)
        assert len(points) == 1


class TestSolveTridiagonal:
    def test_matches_dense_solve_and_keeps_inputs(self):
        rng = np.random.default_rng(7)
        lower, upper = rng.standard_normal(9), rng.standard_normal(9)
        diag, rhs = rng.standard_normal(10) + 4.0, rng.standard_normal(10)
        copies = [a.copy() for a in (lower, diag, upper, rhs)]
        dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        x = solve_tridiagonal(lower, diag, upper, rhs)
        assert np.allclose(dense @ x, rhs, rtol=0, atol=1e-13)
        for a, b in zip((lower, diag, upper, rhs), copies):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("m", [1, 5])
    def test_singular_matrix_raises(self, m):
        with pytest.raises(np.linalg.LinAlgError):
            # zero diagonal, unit off-diagonals: singular for odd m even with pivoting
            solve_tridiagonal(np.ones(m - 1), np.zeros(m), np.ones(m - 1), np.ones(m))


TINY_CONFIG = """
[run]
id = tiny

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
dt_max = 0.2
t_end = 2.0
checkpoint_every = 1
"""

# simulate, a report that solves for the scalar-flat limit, and a sign
# certificate: every command that reaches solve_tridiagonal
CLI_SCRIPT = """
import json, sys
from pathlib import Path
from ylab.cli import main
out = Path(sys.argv[1])
(out / "tiny.ini").write_text(sys.argv[2])
codes = [
    main(["simulate", "--config", str(out / "tiny.ini"), "--out", str(out)]),
    main(["report", str(out / "tiny"), "--audits", "convergence", "--out", str(out / "r.json")]),
    main(["yamabe-sign", "--background", "flat3", "--config", str(out / "tiny.ini"),
          "--out", str(out)]),
]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if "scipy" in m)}))
"""


def fresh_python(*args):
    """Run python -c args in a new interpreter that imports ylab from this checkout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", *args], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


class TestLapackLoader:
    def test_cli_commands_run_without_the_scipy_linalg_package(self, tmp_path):
        result = fresh_python(CLI_SCRIPT, str(tmp_path), TINY_CONFIG)
        assert result["codes"] == [0, 0, 0]
        assert result["scipy"] == ["scipy.linalg._flapack"]

    @pytest.mark.parametrize(
        "imports",
        ["import ylab.operators, scipy.linalg.lapack", "import scipy.linalg.lapack, ylab.operators"],
        ids=["ylab-first", "scipy-first"],
    )
    def test_dgtsv_is_scipy_linalg_lapack_dgtsv(self, imports):
        script = (f"{imports}; import json, sys; print(json.dumps("
                  "sys.modules['ylab.operators'].dgtsv is sys.modules['scipy.linalg.lapack'].dgtsv))")
        assert fresh_python(script) is True

    def test_missing_scipy_is_import_error(self, monkeypatch):
        monkeypatch.delitem(sys.modules, operators._FLAPACK)
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        with pytest.raises(ImportError, match="no scipy package on sys.path"):
            operators._load_flapack()

    def test_missing_flapack_is_import_error_naming_the_directory(self, monkeypatch, tmp_path):
        monkeypatch.delitem(sys.modules, operators._FLAPACK)
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
        with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
            operators._load_flapack()


class TestBoundaryLaplacian:
    @pytest.mark.parametrize("band", ["lower", "diag", "upper", "affine"])
    def test_bands_are_read_only(self, band):
        lap = boundary_laplacian(build_grid(3, 0.5, 64.0, 64, LOG_STRETCHED), 0.25)
        norm = lap.row_norm
        with pytest.raises(ValueError, match="read-only"):
            getattr(lap, band)[0] = 1e6
        assert lap.row_norm == norm

    def test_abs_apply_is_the_dense_magnitude_sum(self):
        grid = build_grid(3, 0.5, 64.0, 64, LOG_STRETCHED)
        lap = boundary_laplacian(grid, 0.25)
        dense = np.diag(lap.diag) + np.diag(lap.lower, -1) + np.diag(lap.upper, 1)
        u = 1.0 + np.sin(grid.nodes) ** 2
        assert np.allclose(lap.abs_apply(u), np.abs(dense) @ u, rtol=1e-14, atol=0.0)
        assert np.all(lap.abs_apply(u) + np.abs(lap.affine) >= np.abs(lap.apply(u)))
        assert lap.row_norm == pytest.approx(np.max(np.abs(dense).sum(axis=1)), rel=1e-15)
