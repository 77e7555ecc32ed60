"""The per-step small solves call LAPACK as scipy.linalg does, bit for bit."""

import numpy as np
import pytest
import scipy.linalg as sla

from opins._lapack import lu_factor, lu_solve, solve_triangular


def triangle(n, order, seed=0):
    rng = np.random.default_rng(seed)
    r = np.triu(rng.standard_normal((n, n))) + n * np.eye(n)
    return np.asarray(r, order=order)


class TestSolveTriangular:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("trans", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 17])
    def test_bit_identical_to_scipy(self, n, trans, order):
        # which triangle LAPACK gets, and how, changes the rounding, so the
        # storage order picks the call as it does in scipy
        r = triangle(n, order)
        b = np.random.default_rng(1).standard_normal(n)
        expected = sla.solve_triangular(r, b, trans="T" if trans else "N")
        x = solve_triangular(r, b.copy(), trans=trans, overwrite_b=True)
        assert np.array_equal(x, expected)

    def test_slice_of_a_larger_array(self):
        # GMRES solves with the leading block of its Hessenberg array
        h = triangle(8, "C")
        b = np.arange(1.0, 6.0)
        assert np.array_equal(solve_triangular(h[:5, :5], b),
                              sla.solve_triangular(h[:5, :5], b))

    def test_b_is_kept_unless_overwrite_is_given(self):
        r = triangle(4, "C")
        b = np.ones(4)
        solve_triangular(r, b)
        assert np.array_equal(b, np.ones(4))

    def test_empty(self):
        assert solve_triangular(np.zeros((0, 0)), np.zeros(0)).shape == (0,)

    def test_zero_diagonal_raises(self):
        r = triangle(3, "C")
        r[1, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="diagonal 1"):
            solve_triangular(r, np.ones(3))

    @pytest.mark.parametrize("where", ["a", "b"])
    def test_non_finite_raises_only_when_checked(self, where):
        r, b = triangle(3, "C"), np.ones(3)
        (r if where == "a" else b)[2] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_triangular(r, b)
        solve_triangular(r, b, check_finite=False)


class TestLuFactor:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bit_identical_to_scipy_and_a_is_kept(self, order):
        a = np.asarray(np.random.default_rng(3).standard_normal((9, 9)), order=order)
        kept = a.copy()
        lu, piv = lu_factor(a, "a")
        expected = sla.lu_factor(a)
        assert np.array_equal(lu, expected[0]) and np.array_equal(piv, expected[1])
        assert np.array_equal(a, kept)

    def test_empty(self):
        lu = lu_factor(np.zeros((0, 0)), "a")
        assert lu_solve(lu, np.zeros(0)).shape == (0,)

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_singularity_test_is_relative(self, scale):
        # pivots 1 and 1e-17 are singular at every scale, pivots 1 and 1e-10
        # at none; a zero pivot raises without scipy's warning
        lu_factor(scale * np.diag([1.0, 1e-10]), "a")
        for diag in ([1.0, 1e-17], [1.0, 0.0]):
            with pytest.raises(np.linalg.LinAlgError, match="^a is singular$"):
                lu_factor(scale * np.diag(diag), "a")

    def test_non_finite_raises(self):
        with pytest.raises(ValueError, match="infs or NaNs"):
            lu_factor(np.array([[1.0, np.nan], [0.0, 1.0]]), "a")


class TestLuSolve:
    def test_bit_identical_to_scipy(self):
        rng = np.random.default_rng(2)
        lu = sla.lu_factor(rng.standard_normal((9, 9)))
        b = rng.standard_normal(9)
        expected = sla.lu_solve(lu, b)
        assert np.array_equal(lu_solve(lu, b), expected)
        assert np.array_equal(lu_solve(lu, b.copy(), overwrite_b=True), expected)

    def test_empty(self):
        lu = sla.lu_factor(np.zeros((0, 0)))
        assert lu_solve(lu, np.zeros(0)).shape == (0,)

    def test_non_finite_right_hand_side_raises(self):
        lu = sla.lu_factor(np.eye(2))
        with pytest.raises(ValueError, match="infs or NaNs"):
            lu_solve(lu, np.array([1.0, np.inf]))
