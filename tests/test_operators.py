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
from ylab.backgrounds import (make_flat_background, make_profile_background,
                              make_synthetic_background)
from ylab.grids import LOG_STRETCHED, RadialField, build_grid
from ylab.operators import (_MAX_BACKTRACKS, ROUNDOFF_TARGET, STALL_CEILING, boundary_laplacian,
                            conformal_laplacian, damped_newton, solve_tridiagonal)

SRC = Path(__file__).resolve().parent.parent / "src"

ROOT = 2.0**40  # root of the floored residual; below it float64 is spaced 2^-13 apart
SCALE = 4e12  # arctan residuals times SCALE meet ROUNDOFF_TARGET where |arctan| <= 1e-12


def counting(residual_fn):
    """residual_fn, wrapped so that the list records each point it is called at."""
    points = []

    def wrapped(v):
        points.append(np.array(v))
        return residual_fn(v)

    return wrapped, points


def floored_residual(level):
    # root at v = ROOT, but no residual below level is representable
    return lambda v: np.maximum(np.abs(v - ROOT), level)


def identity_jacobian(v):
    return np.zeros(v.size - 1), np.ones(v.size), np.zeros(v.size - 1)


def rescaled_floor(s, level):
    """A residual with root 2 and raw floor s * level, divided by the row level s."""
    def jacobian(v):
        return tuple(band / s for band in identity_jacobian(v))

    return (lambda v: np.maximum(np.abs(v - 2.0) / s, level)), jacobian


def scaled_arctan(v):
    return SCALE * np.arctan(v - 10.0)


def scaled_arctan_jacobian(v):
    return np.zeros(0), SCALE / (1.0 + (v - 10.0) ** 2), np.zeros(0)


class TestDampedNewton:
    @pytest.mark.parametrize("floor", [1e-10, 1e-9])
    def test_floor_ends_stall_after_one_failed_candidate(self, floor):
        # a residual whose raw values cannot fall below floor, divided by a
        # row round-off level that puts the floor at level: above
        # ROUNDOFF_TARGET and at most STALL_CEILING, at any raw scale
        for level in (10.0, STALL_CEILING):
            residual_fn, jacobian_fn = rescaled_floor(floor / level, level)
            fn, points = counting(residual_fn)
            u, rn, iterations, converged = damped_newton(
                np.full(4, 3.0), fn, jacobian_fn, max_iter=25
            )
            # initial residual, the accepted full step onto the floor, one
            # failed candidate; the iterate returned is the accepted one
            assert ROUNDOFF_TARGET < level <= STALL_CEILING
            assert len(points) == 3
            assert (rn, iterations, converged) == (level, 2, False)
            assert np.all(u == 2.0) and not np.any(points[-1] == 2.0)

    @pytest.mark.parametrize("max_backtracks", [_MAX_BACKTRACKS])
    def test_stall_above_the_ceiling_runs_full_sweep(self, max_backtracks):
        # a floor above STALL_CEILING halves on past failed candidates until
        # the step rounds away: ROOT - lam * 20 equals ROOT from lam = 2^-19
        # on, so the sweep evaluates the initial point, the accepted step
        # onto the floor and 19 candidates, none of them equal to the iterate
        level = 20.0
        fn, points = counting(floored_residual(level))
        u, rn, iterations, converged = damped_newton(
            np.full(4, ROOT + 1000.0), fn, identity_jacobian, max_iter=25
        )
        distinct = [k for k in range(max_backtracks) if ROOT - 0.5**k * level != ROOT]
        assert level > STALL_CEILING and distinct == list(range(19))
        assert len(points) == 2 + len(distinct) == 21
        assert not any(np.any(point == ROOT) for point in points[2:])
        assert (rn, iterations, converged) == (level, 2, False)
        assert np.all(u == ROOT)

    def test_residual_above_floor_still_backtracks(self):
        # full Newton steps overshoot arctan's root at 10; from 12 the full
        # step is rejected and the half step accepted
        fn, points = counting(scaled_arctan)
        u0 = np.array([12.0])
        delta = -np.arctan(2.0) * 5.0
        u, rn, _, converged = damped_newton(u0, fn, scaled_arctan_jacobian, max_iter=25)
        assert points[1][0] == pytest.approx(u0[0] + delta, rel=1e-15)
        assert points[2][0] == pytest.approx(u0[0] + 0.5 * delta, rel=1e-15)
        assert converged
        assert rn <= ROUNDOFF_TARGET
        assert u[0] == pytest.approx(10.0, abs=1e-12)

    @pytest.mark.parametrize("floor", [0.0, 1e-3])
    def test_jacobian_sees_the_last_residual_array(self, floor):
        # arctan steps overshoot from 12, so candidates are rejected before a
        # half step is accepted; every Jacobian call must receive the array
        # the last accepted residual call received, the current iterate,
        # which damped_newton also returns.  floor is an error the residual
        # carries besides its round-off 1 / SCALE: it raises the row's level,
        # so a coarser iterate converges and the stall rule sets in sooner
        scale = 1.0 / (1.0 / SCALE + floor)
        calls = []

        def rescaled_arctan(v):
            return scale * np.arctan(v - 10.0)

        def residual_fn(v):
            calls.append(("residual", v))
            return rescaled_arctan(v)

        def jacobian_fn(v):
            calls.append(("jacobian", v))
            return np.zeros(0), scale / (1.0 + (v - 10.0) ** 2), np.zeros(0)

        u0 = np.array([12.0])
        u, _, iterations, converged = damped_newton(u0, residual_fn, jacobian_fn, max_iter=25)
        assert converged
        assert calls[0][1] is u0
        # the current iterate, replayed: a candidate replaces it when it
        # reduces the residual or meets ROUNDOFF_TARGET
        current, rn, rejected = None, np.inf, 0
        for i, (kind, v) in enumerate(calls):
            if kind == "residual":
                crn = abs(float(rescaled_arctan(v)[0]))
                if crn < rn or crn <= ROUNDOFF_TARGET:
                    current, rn = v, crn
                else:
                    rejected += 1
            else:
                assert v is current
                assert v is calls[i - 1][1]
        assert u is current
        assert sum(kind == "jacobian" for kind, _ in calls) == iterations
        assert rejected > 0

    def test_iterates_stay_positive_when_the_full_step_crosses_zero(self):
        # f(v) = 1 - 1/v has its root at 1; from 3 and 4 the full Newton
        # steps land at -3 and -8, so only a damped step may be taken
        fn, points = counting(lambda v: SCALE * (1.0 - 1.0 / v))

        def jacobian_fn(v):
            return np.zeros(v.size - 1), SCALE * v**-2.0, np.zeros(v.size - 1)

        u0 = np.array([3.0, 4.0])
        assert np.all(u0 - (1.0 - 1.0 / u0) * u0**2 < 0.0)
        u, rn, _, converged = damped_newton(u0, fn, jacobian_fn, max_iter=25)
        assert all(np.min(v) > 0.0 for v in points)  # no residual at a nonpositive point
        assert np.min(u) > 0.0
        assert converged and rn <= ROUNDOFF_TARGET
        assert u == pytest.approx([1.0, 1.0], abs=1e-12)

    @pytest.mark.parametrize("m", [1, 5])
    def test_singular_jacobian_stops_without_a_step(self, m):
        fn, points = counting(lambda v: 10.0 * (v - 2.0))  # above ROUNDOFF_TARGET at 3

        def singular_jacobian(v):
            return np.zeros(v.size - 1), np.zeros(v.size), np.zeros(v.size - 1)

        u0 = np.full(m, 3.0)
        u, rn, iterations, converged = damped_newton(u0, fn, singular_jacobian, max_iter=25)
        assert (rn, iterations, converged) == (10.0, 0, False)
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

    # ylab-first: the first solve loads _flapack, and scipy.linalg then reuses it
    @pytest.mark.parametrize(
        "imports",
        ["import ylab.operators as o; x = o.solve_tridiagonal(*system); import scipy.linalg.lapack",
         "import scipy.linalg.lapack, ylab.operators as o; x = o.solve_tridiagonal(*system)"],
        ids=["ylab-first", "scipy-first"],
    )
    def test_dgtsv_is_scipy_linalg_lapack_dgtsv(self, imports):
        # the dgtsv that solve_tridiagonal calls, loaded once, by the solve
        script = ("import json, sys, numpy as np; "
                  "system = (np.ones(2), np.full(3, 4.0), np.ones(2), np.array([5.0, 6.0, 5.0])); "
                  f"{imports}; print(json.dumps([x.tolist(), o._dgtsv.cache_info().misses, "
                  "o._dgtsv() is sys.modules['scipy.linalg.lapack'].dgtsv]))")
        assert fresh_python(script) == [[1.0, 1.0, 1.0], 1, True]

    def test_missing_scipy_is_import_error(self, monkeypatch):
        monkeypatch.delitem(sys.modules, operators._FLAPACK, raising=False)
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        with pytest.raises(ImportError, match="no scipy package on sys.path"):
            operators._load_flapack()

    def test_missing_flapack_is_import_error_naming_the_directory(self, monkeypatch, tmp_path):
        monkeypatch.delitem(sys.modules, operators._FLAPACK, raising=False)
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
        with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
            operators._load_flapack()


# runs the ylab commands given as a JSON list of argv lists in one process;
# prints which of the modules that not every command needs were loaded by
# import ylab.cli, and after each command its exit code and the same list
IMPORT_SCRIPT = """
import json, sys
import ylab.cli
optional = ("ylab.diagnostics", "ylab.svgplot", "scipy.linalg._flapack")
steps = [[name for name in optional if name in sys.modules]]
for argv in json.loads(sys.argv[1]):
    code = ylab.cli.main(argv)
    steps.append([code, [name for name in optional if name in sys.modules]])
print(json.dumps(steps))
"""


class TestImportContract:
    def test_each_command_loads_only_what_it_runs(self, tmp_path):
        diagnostics, svgplot, flapack = "ylab.diagnostics", "ylab.svgplot", "scipy.linalg._flapack"
        config = tmp_path / "tiny.ini"
        config.write_text(TINY_CONFIG)
        common = ["--config", str(config), "--out", str(tmp_path)]
        # the flow and the elliptic commands solve, and never load the report's modules
        commands = [[command, *common]
                    for command in ("simulate", "yamabe-sign", "scalar-flat", "prescribe")]
        assert fresh_python(IMPORT_SCRIPT, json.dumps(commands)) == [[], *[[0, [flapack]]] * 4]
        # a report whose audits need no scalar-flat limit solves nothing
        report = ["report", str(tmp_path / "tiny"), "--out", str(tmp_path / "r.json")]
        reports = [[*report, "--audits", "lp-monotone"],
                   [*report, "--audits", "convergence", "--plots"]]
        assert fresh_python(IMPORT_SCRIPT, json.dumps(reports)) == [
            [], [0, [diagnostics]], [0, [diagnostics, svgplot, flapack]]
        ]


class TestBoundaryLaplacian:
    @pytest.mark.parametrize("band", ["lower", "diag", "upper", "affine"])
    def test_bands_are_read_only(self, band):
        lap = boundary_laplacian(build_grid(3, 0.5, 64.0, 64, LOG_STRETCHED), 0.25)
        values = getattr(lap, band).copy()
        with pytest.raises(ValueError, match="read-only"):
            getattr(lap, band)[0] = 1e6
        assert np.array_equal(getattr(lap, band), values)


def _conformal_on(r_in: float, flux: float):
    """(P, dense matrix of its L, a positive test factor) on a sign-changing R0 profile."""
    grid = build_grid(3, r_in, 64.0, 64, LOG_STRETCHED)
    bg = make_profile_background(RadialField(grid, -3.0 * np.cos(grid.nodes)), 1.0)
    P = conformal_laplacian(bg, flux)
    lap = P.lap
    dense = np.diag(lap.diag) + np.diag(lap.lower, -1) + np.diag(lap.upper, 1)
    return P, dense, 1.0 + np.sin(grid.nodes) ** 2


# a wall grid with a wall flux, and an origin grid
_GRIDS = ((0.5, 0.25), (0.0, 0.0))


class TestConformalLaplacian:
    def test_row_terms_are_the_dense_magnitude_sum(self):
        # the round-off scale every solve shares: |R0| u + a (|A| u + |b|),
        # at least the magnitude of the row sum P u
        for r_in, flux in _GRIDS:
            P, dense, u = _conformal_on(r_in, flux)
            expected = np.abs(P.R0) * u + P.a * (np.abs(dense) @ u + np.abs(P.lap.affine))
            assert np.allclose(P.row_terms(u), expected, rtol=1e-14, atol=0.0)
            assert np.all(P.row_terms(u) >= np.abs(P.apply(u)))

    def test_apply_and_bands_are_the_dense_operator(self):
        eps = np.finfo(np.float64).eps
        for r_in, flux in _GRIDS:
            P, dense, u = _conformal_on(r_in, flux)
            assert (P.a, P.N) == (8.0, 5.0)
            # R0 u - a (A u + b), to the round-off of the terms it sums
            expected = P.R0 * u - P.a * (dense @ u + P.lap.affine)
            assert np.all(np.abs(P.apply(u) - expected) <= 4.0 * eps * P.row_terms(u))
            # the bands are those of R0 - a A, bit for bit
            bands = np.diag(P.diag) + np.diag(P.lower, -1) + np.diag(P.upper, 1)
            assert np.array_equal(bands, np.diag(P.R0) - P.a * dense)

    @pytest.mark.parametrize("r_in", [0.0, 0.5])
    def test_constants_map_to_R0_bit_for_bit(self, r_in):
        # at zero wall flux every row of L + b maps 1 to exactly 0
        grid = build_grid(3, r_in, 512.0, 2048, LOG_STRETCHED)
        for bg in (make_flat_background(grid),
                   make_synthetic_background(grid, 1.0, -50.0, 2.0, 1.0)):
            P = conformal_laplacian(bg)
            assert P.apply(np.ones(grid.M + 1)).tobytes() == bg.r0_profile.values.tobytes()
