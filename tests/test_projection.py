"""Projector, particular solution, and multiplier recovery."""

import re

import numpy as np
import pytest

from opins.projection import Projector, particular_solution, recover_multipliers
from opins.qrcp import qrcp_factor
from test_qrcp import reference_range_basis

RANK_TOL = 1e-12


def make_projector(b):
    return Projector(qrcp_factor(np.asarray(b, dtype=float).T, RANK_TOL))


class TestComplement:
    def test_axis_projector(self):
        p = make_projector([[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(p.complement([3.0, 4.0, 5.0]), [0.0, 4.0, 5.0],
                                   atol=1e-15)

    def test_null_vector_unchanged(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal((4, 30))
        p = make_projector(b)
        v = p.complement(rng.standard_normal(30))  # already in null(B)
        np.testing.assert_allclose(p.complement(v), v, rtol=1e-14, atol=1e-14)

    def test_matches_dense_projector(self):
        rng = np.random.default_rng(4)
        b = rng.standard_normal((4, 30))
        p = make_projector(b)
        u = reference_range_basis(b.T, p.basis.rank)
        v = rng.standard_normal(30)
        np.testing.assert_allclose(p.complement(v), v - u @ (u.T @ v), atol=1e-13)

    def test_annihilates_row_space(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((5, 40))
        p = make_projector(b)
        v = rng.standard_normal(40)
        assert np.linalg.norm(b @ p.complement(v)) <= \
            1e-12 * np.linalg.norm(b) * np.linalg.norm(v)

    def test_symmetry_and_complementarity(self):
        rng = np.random.default_rng(6)
        b = rng.standard_normal((3, 25))
        p = make_projector(b)
        u_vec, v_vec = rng.standard_normal(25), rng.standard_normal(25)
        lhs = p.complement(u_vec) @ v_vec
        rhs = u_vec @ p.complement(v_vec)
        assert abs(lhs - rhs) <= 1e-13 * abs(lhs + 1)
        w = rng.standard_normal(25)
        np.testing.assert_allclose(p.complement(w - p.complement(w)), np.zeros(25),
                                   rtol=1e-14, atol=1e-14)

    def test_length_mismatch(self):
        p = make_projector([[1.0, 0.0]])
        with pytest.raises(ValueError):
            p.complement(np.zeros(3))


class TestParticularSolution:
    def test_scalar_row(self):
        p = make_projector([[2.0, 0.0, 0.0]])
        np.testing.assert_allclose(particular_solution(p, [4.0]), [2.0, 0.0, 0.0],
                                   atol=1e-15)

    def test_zero_rhs(self):
        rng = np.random.default_rng(7)
        p = make_projector(rng.standard_normal((3, 12)))
        np.testing.assert_array_equal(particular_solution(p, np.zeros(3)), np.zeros(12))

    def test_rank_deficient_duplicated_row(self):
        rng = np.random.default_rng(8)
        rows = rng.standard_normal((2, 20))
        b = np.vstack([rows, rows[0]])  # rank 2
        x_true = rng.standard_normal(20)
        g = b @ x_true  # compatible by construction
        p = make_projector(b)
        x_p = particular_solution(p, g)
        assert p.basis.rank == 2
        assert np.linalg.norm(g - b @ x_p) <= 1e-12 * max(1.0, np.linalg.norm(g))
        oracle = np.linalg.pinv(b) @ g
        assert np.linalg.norm(x_p - oracle) <= 1e-10 * np.linalg.norm(oracle)

    def test_orthogonal_to_null_space(self):
        rng = np.random.default_rng(9)
        b = rng.standard_normal((4, 25))
        p = make_projector(b)
        x_p = particular_solution(p, rng.standard_normal(4))
        assert np.linalg.norm(p.complement(x_p)) <= 1e-12 * np.linalg.norm(x_p)


class TestRecoverMultipliers:
    def test_hand_kkt(self):
        p = make_projector([[1.0, 0.0, 0.0]])
        y = recover_multipliers(p, np.array([5.0, 0.0, 0.0]) - np.array([2.0, 0.0, 0.0]))
        np.testing.assert_allclose(y, [3.0], atol=1e-15)

    def test_zero_residual(self):
        rng = np.random.default_rng(10)
        p = make_projector(rng.standard_normal((3, 10)))
        np.testing.assert_array_equal(recover_multipliers(p, np.zeros(10)), np.zeros(3))

    def test_matches_dense_kkt_oracle(self):
        rng = np.random.default_rng(11)
        n, m = 8, 3
        raw = rng.standard_normal((n, n))
        a = raw + raw.T + 2 * n * np.eye(n)
        b = rng.standard_normal((m, n))
        f = rng.standard_normal(n)
        g = rng.standard_normal(m)
        kkt = np.block([[a, b.T], [b, np.zeros((m, m))]])
        z = np.linalg.solve(kkt, np.concatenate([f, g]))
        x_lu, y_lu = z[:n], z[n:]
        p = make_projector(b)
        y = recover_multipliers(p, f - a @ x_lu)
        np.testing.assert_allclose(y, y_lu, rtol=1e-9, atol=1e-9)

    def test_rank_deficient_padding(self):
        rng = np.random.default_rng(12)
        rows = rng.standard_normal((2, 15))
        b = np.vstack([rows, np.zeros(15)])  # third row gets eliminated by pivoting
        p = make_projector(b)
        y = recover_multipliers(p, rng.standard_normal(15))
        assert p.basis.rank == 2
        assert y[2] == 0.0
        resid = rng.standard_normal(15)
        y2 = recover_multipliers(p, resid)
        # least-squares optimality: B (B^T y - resid) = 0
        assert np.linalg.norm(b @ (b.T @ y2 - resid)) <= 1e-10


@pytest.mark.parametrize("solve, length, message", [
    (particular_solution, 2, "particular_solution: expected length 1, got (2,)"),
    (recover_multipliers, 3, "recover_multipliers: expected length 2, got (3,)"),
], ids=["particular-solution", "recover-multipliers"])
def test_wrong_length_rejected(solve, length, message):
    p = make_projector([[1.0, 0.0]])
    with pytest.raises(ValueError, match=re.escape(message)):
        solve(p, np.zeros(length))
