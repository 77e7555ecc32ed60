"""Dense reference solvers and the constraint-preconditioned baseline."""

import numpy as np
import pytest

from opins.driver import SaddleSystem
from opins.oracles import (constraint_preconditioned, explicit_nullspace_solve, null_basis,
                           pminres_constraint, tsvd_solve)
from opins.projection import Projector
from opins.qrcp import qrcp_factor


def random_system(seed, n=10, m=3, spd_shift=0.0):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n))
    a = (raw + raw.T) / 2 + spd_shift * np.eye(n)
    b = rng.standard_normal((m, n))
    return SaddleSystem(a=a, b=b, f=rng.standard_normal(n),
                        g=rng.standard_normal(m), a_symmetric=True)


def rows_and_x_p(system):
    """The independent rows of B, sorted, from a QRCP of B^T, and x_p from a
    least-squares solve of B x = g: what ``run_case`` hands the baselines.
    The rank is ``len(rows)``."""
    b = np.asarray(system.b, dtype=float)
    fact = qrcp_factor(b.T, 1e-12)
    x_p, *_ = np.linalg.lstsq(b, system.g, rcond=None)
    return np.sort(fact.permutation[:fact.rank]), x_p


def dense_kkt_solve(sys):
    """LU solve of the assembled KKT system; errors if singular.

    Returns (x, y).  Verification oracle for unique-solution recovery.
    """
    k = sys.kkt_matrix()
    rhs = sys.rhs_full()
    cond = np.linalg.cond(k)
    if not np.isfinite(cond) or cond > 1.0 / np.finfo(float).eps:
        raise np.linalg.LinAlgError("KKT matrix is singular to working precision")
    z = np.linalg.solve(k, rhs)
    return z[:sys.n], z[sys.n:]


def nonzero_spectrum(op_dense, zero_tol):
    """Sorted eigenvalues of a symmetric dense matrix above the zero cutoff."""
    mat = np.asarray(op_dense, dtype=float)
    vals = np.linalg.eigvalsh((mat + mat.T) / 2.0)
    if vals.size == 0:
        return vals
    cutoff = zero_tol * np.abs(vals).max()
    return np.sort(vals[np.abs(vals) > cutoff])


class TestNullBasis:
    @pytest.mark.parametrize("seed", range(3))
    def test_annihilation_and_orthonormality(self, seed):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((4, 20))
        z = null_basis(b, qrcp_factor(b.T, 1e-12).rank)
        assert z.shape == (20, 16)
        assert np.abs(b @ z).max() <= 1e-12 * np.linalg.norm(b)
        assert np.abs(z.T @ z - np.eye(16)).max() <= 1e-12

    def test_complementary_to_range_basis(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal((5, 24))
        fact = qrcp_factor(b.T, 1e-12)
        u = fact.u
        z = null_basis(b, fact.rank)
        full = np.hstack([u, z])
        assert np.abs(full.T @ full - np.eye(24)).max() <= 1e-12

    def test_rank_deficient_b(self):
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((2, 12))
        b = np.vstack([rows, rows[1] * 2.0])
        z = null_basis(b, qrcp_factor(b.T, 1e-12).rank)
        assert z.shape == (12, 10)
        assert np.abs(b @ z).max() <= 1e-12 * np.linalg.norm(b)


class TestExplicitNullspace:
    def test_hand_checked_system(self):
        system = SaddleSystem(a=np.eye(3), b=np.array([[1.0, 0.0, 0.0]]),
                              f=np.array([5.0, 0.0, 0.0]), g=np.array([2.0]),
                              a_symmetric=True)
        x, y = explicit_nullspace_solve(system, qrcp_factor(system.b.T, 1e-12).rank)
        np.testing.assert_allclose(x, [2.0, 0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(y, [3.0], atol=1e-14)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_dense_kkt(self, seed):
        system = random_system(seed)
        x1, y1 = explicit_nullspace_solve(system, qrcp_factor(system.b.T, 1e-12).rank)
        x2, y2 = dense_kkt_solve(system)
        np.testing.assert_allclose(x1, x2, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(y1, y2, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_projected_driver(self, seed):
        from opins.driver import OpinsOptions, opins_solve
        system = random_system(seed + 30)
        x_oracle, y_oracle = explicit_nullspace_solve(system, qrcp_factor(system.b.T, 1e-12).rank)
        report = opins_solve(system, OpinsOptions(solve_tol=1e-12))
        assert report.converged
        assert np.linalg.norm(report.x - x_oracle) <= 1e-8 * np.linalg.norm(x_oracle)
        np.testing.assert_allclose(report.y, y_oracle, rtol=1e-7, atol=1e-9)

    def test_square_full_rank_b(self):
        rng = np.random.default_rng(9)
        n = 6
        b = rng.standard_normal((n, n)) + 3 * np.eye(n)
        a = np.eye(n)
        g = rng.standard_normal(n)
        system = SaddleSystem(a=a, b=b, f=rng.standard_normal(n), g=g,
                              a_symmetric=True)
        x, _ = explicit_nullspace_solve(system, qrcp_factor(system.b.T, 1e-12).rank)
        np.testing.assert_allclose(x, np.linalg.solve(b, g), rtol=1e-10, atol=1e-12)

    def test_singular_reduced_matrix_raises(self):
        n, m = 8, 2
        rng = np.random.default_rng(10)
        c = rng.standard_normal((n, 2))
        a = c @ c.T  # rank 2 < n - m, so Z^T A Z is singular
        system = SaddleSystem(a=a, b=rng.standard_normal((m, n)),
                              f=np.zeros(n), g=np.zeros(m), a_symmetric=True)
        with pytest.raises(np.linalg.LinAlgError):
            explicit_nullspace_solve(system, qrcp_factor(system.b.T, 1e-12).rank)


class TestTsvd:
    def test_diagonal_rank_deficient(self):
        np.testing.assert_allclose(tsvd_solve(np.diag([1.0, 0.0]), np.array([2.0, 0.0]),
                                              1e-12), [2.0, 0.0], atol=1e-14)

    def test_identity(self):
        rng = np.random.default_rng(11)
        rhs = rng.standard_normal(5)
        np.testing.assert_allclose(tsvd_solve(np.eye(5), rhs, 1e-12), rhs, atol=1e-14)

    def test_matches_pinv_on_rank_deficient(self):
        rng = np.random.default_rng(12)
        low = rng.standard_normal((8, 5))
        k = low @ rng.standard_normal((5, 8))
        rhs = rng.standard_normal(8)
        oracle = np.linalg.pinv(k) @ rhs
        np.testing.assert_allclose(tsvd_solve(k, rhs, 1e-12), oracle,
                                   rtol=1e-10, atol=1e-10)


class TestDenseKkt:
    def test_singular_kkt_raises(self):
        b = np.array([[1.0, 0.0], [2.0, 0.0]])  # rank-deficient constraints
        system = SaddleSystem(a=np.eye(2), b=b, f=np.zeros(2), g=np.zeros(2),
                              a_symmetric=True)
        with pytest.raises(np.linalg.LinAlgError):
            dense_kkt_solve(system)


class TestNonzeroSpectrum:
    def test_diagonal(self):
        np.testing.assert_allclose(nonzero_spectrum(np.diag([0.0, 1.0, 2.0]), 1e-9),
                                   [1.0, 2.0])

    def test_projected_identity(self):
        rng = np.random.default_rng(13)
        n, m = 12, 3
        b = rng.standard_normal((m, n))
        projector = Projector(qrcp_factor(b.T, 1e-12))
        mat = np.column_stack([projector.complement(np.eye(n)[:, i]) for i in range(n)])
        vals = nonzero_spectrum(mat, 1e-9)
        np.testing.assert_allclose(vals, np.ones(n - m), atol=1e-12)

    def test_projected_matches_reduced(self):
        rng = np.random.default_rng(14)
        n, m = 10, 3
        raw = rng.standard_normal((n, n))
        a = (raw + raw.T) / 2
        b = rng.standard_normal((m, n))
        fact = qrcp_factor(b.T, 1e-12)
        projector = Projector(fact)
        pns = np.column_stack([projector.complement(a @ projector.complement(np.eye(n)[:, i]))
                               for i in range(n)])
        z = null_basis(b, fact.rank)
        reduced = z.T @ a @ z
        ev1 = nonzero_spectrum(pns, 1e-9)
        ev2 = np.sort(np.linalg.eigvalsh(reduced))
        np.testing.assert_allclose(ev1, ev2, atol=1e-9)


class TestPminresConstraint:
    def test_singular_preconditioner_raises_without_a_warning(self):
        # G = diag(0, 1, 1) and B's column 0 zero: row and column 0 of
        # [[G, B^T], [B, 0]] vanish.  The pivot check raises; LAPACK's own
        # warning about the exact zero stays inside (pytest turns warnings
        # into errors)
        b = np.array([[0.0, 1.0, 2.0]])
        system = SaddleSystem(a=np.eye(3), b=b, f=np.ones(3), g=np.ones(1), a_symmetric=True)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            constraint_preconditioned(system, np.diag([0.0, 1.0, 1.0]), [0], 0)

    def test_exact_preconditioner_converges_immediately(self):
        system = random_system(20, n=12, m=3, spd_shift=12.0)
        a_dense = np.asarray(system.a, dtype=float)
        outcome = pminres_constraint(system, a_dense, 0, 1e-10, 50, *rows_and_x_p(system))
        assert outcome.converged
        assert outcome.iterations <= 3

    def test_callback_sees_each_history_record(self):
        system = random_system(21, n=16, m=4)
        seen = []
        outcome = pminres_constraint(system, np.eye(16), 0, 1e-10, 120, *rows_and_x_p(system),
                                     callback=lambda it, z, rr: seen.append((it, z.shape)))
        assert outcome.history
        assert seen == [(rec.iter, outcome.solution.shape) for rec in outcome.history]

    def test_solution_solves_modified_system(self):
        system = random_system(22, n=14, m=3, spd_shift=14.0)
        rows, x_p = rows_and_x_p(system)
        outcome = pminres_constraint(system, np.eye(14), 1, 1e-10, 300, rows, x_p)
        assert outcome.converged
        x = x_p + outcome.solution[:14]
        y = outcome.solution[14:]
        a = np.asarray(system.a, dtype=float)
        b = np.asarray(system.b, dtype=float)
        r1 = system.f - a @ x - b.T @ y
        assert np.linalg.norm(r1) <= 1e-8 * np.linalg.norm(system.f)
        assert np.linalg.norm(system.g - b @ x) <= 1e-10 * max(1.0, np.linalg.norm(system.g))

    def test_baseline_stalls_where_projected_method_converges(self):
        """On an indefinite seeded instance the IR(0) baseline breaks down
        orders of magnitude short of the tolerance the projected method hits."""
        from opins.driver import OpinsOptions, OpinsSetup, opins_solve
        from opins.harness.problems import generate_problem

        system = generate_problem("random", seed=0)
        report = opins_solve(system, OpinsOptions())
        setup = OpinsSetup.build(system, 1e-12)
        assert report.converged
        assert setup.relres_x(report.x_n) <= 1e-10

        rows, x_p_base = rows_and_x_p(system)
        outcome = pminres_constraint(system, np.eye(system.n), 0, 1e-10, 2000, rows, x_p_base)
        x_base = x_p_base + outcome.solution[:system.n]
        base_rx = setup.relres_x(setup.projector.complement(x_base - setup.x_p))
        assert not outcome.converged
        assert base_rx > 1e-8

    def test_rank_deficient_b_is_reduced(self):
        rng = np.random.default_rng(23)
        n = 10
        rows = rng.standard_normal((2, n))
        b = np.vstack([rows, rows[0]])
        raw = rng.standard_normal((n, n))
        a = (raw + raw.T) / 2 + n * np.eye(n)
        x_true = rng.standard_normal(n)
        system = SaddleSystem(a=a, b=b, f=rng.standard_normal(n), g=b @ x_true,
                              a_symmetric=True)
        kept, x_p = rows_and_x_p(system)
        outcome = pminres_constraint(system, np.eye(n), 1, 1e-10, 200, kept, x_p)
        # duplicate constraint row dropped: unknowns are (x_n, y_reduced)
        assert outcome.solution.shape == (n + 2,)
        # the baseline is allowed to stall early (that is the phenomenon the
        # stability comparison demonstrates), but it must get close first and
        # report a status instead of raising
        assert outcome.status in ("converged", "breakdown", "max_iterations")
        # pivoting keeps rows 0 and 1 (row 2 duplicates row 0)
        kkt = np.block([[a, b[:2].T], [b[:2], np.zeros((2, 2))]])
        rhs = np.concatenate([system.f - a @ x_p, np.zeros(2)])
        exact = np.linalg.solve(kkt, rhs)
        err = np.linalg.norm(outcome.solution[:n] - exact[:n])
        assert err <= 1e-4 * max(1.0, np.linalg.norm(exact[:n]))
