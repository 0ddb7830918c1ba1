import numpy as np
import pytest

from ylab.operators import _MAX_BACKTRACKS, damped_newton, solve_tridiagonal

LEVEL = 1e-10  # round-off floor of the synthetic residual


def counting(residual_fn):
    """Wrap residual_fn; the returned list records every point it is evaluated at."""
    points = []

    def wrapped(v):
        points.append(np.array(v))
        return residual_fn(v)

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
        # initial residual, the accepted full step onto the floor, one failed candidate
        assert len(points) == 3
        assert (rn, iterations, converged) == (LEVEL, 2, False)
        assert np.all(u == 2.0)

    @pytest.mark.parametrize("max_backtracks", [_MAX_BACKTRACKS])
    def test_zero_floor_runs_full_sweep(self, max_backtracks):
        fn, points = counting(floored_residual)
        u, rn, iterations, converged = damped_newton(
            np.full(4, 3.0), fn, identity_jacobian, tol=1e-14, max_iter=25
        )
        assert len(points) == 2 + max_backtracks
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
