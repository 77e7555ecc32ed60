"""End-to-end driver behavior: uniqueness, min-norm, guards, equivalences."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from opins import krylov
import opins.driver
from opins.driver import OpinsError, OpinsOptions, OpinsSetup, SaddleSystem, opins_solve
from opins.driver import _frobenius_norm as frobenius_norm
from opins.harness.runner import RunConfig
from opins.operators import LinearOperator
from opins.preconditioners import InvertibleOperator


def random_nonsingular(seed, n=12, m=4):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n))
    a = (raw + raw.T) / 2
    b = rng.standard_normal((m, n)) / np.sqrt(n)
    return SaddleSystem(a=a, b=b, f=rng.standard_normal(n),
                        g=rng.standard_normal(m), a_symmetric=True)


def random_singular(seed, n=40, m=8, a_rank=20):
    """Compatible singular system: semidefinite A, full-rank B."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((n, a_rank))
    a = c @ c.T
    b = rng.standard_normal((m, n)) / np.sqrt(n)
    f = a @ rng.standard_normal(n) + b.T @ rng.standard_normal(m)
    return SaddleSystem(a=a, b=b, f=f, g=b @ rng.standard_normal(n), a_symmetric=True)


def random_nonsymmetric(seed, n=30, m=6):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 2 * np.sqrt(n) * np.eye(n)
    b = rng.standard_normal((m, n)) / np.sqrt(n)
    return SaddleSystem(a=a, b=b, f=rng.standard_normal(n), g=rng.standard_normal(m))


def kkt_lu(system):
    z = np.linalg.solve(system.kkt_matrix(), system.rhs_full())
    return z[:system.n], z[system.n:]


class TestBasics:
    def test_hand_checked_system(self):
        system = SaddleSystem(a=np.eye(3), b=np.array([[1.0, 0.0, 0.0]]),
                              f=np.array([5.0, 0.0, 0.0]), g=np.array([2.0]),
                              a_symmetric=True)
        report = opins_solve(system)
        assert report.converged and report.inner.iterations == 0
        np.testing.assert_allclose(report.x, [2.0, 0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(report.y, [3.0], atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_unique_solution_matches_dense_lu(self, seed):
        system = random_nonsingular(seed)
        report = opins_solve(system, OpinsOptions(solve_tol=1e-12))
        x_lu, y_lu = kkt_lu(system)
        assert report.converged
        assert np.linalg.norm(report.x - x_lu) <= 1e-8 * np.linalg.norm(x_lu)
        np.testing.assert_allclose(report.y, y_lu, rtol=1e-7, atol=1e-9)

    def test_split_identity(self):
        system = random_nonsingular(3)
        report = opins_solve(system)
        np.testing.assert_allclose(report.x, report.x_p + report.x_n, atol=1e-15)
        # x_n is in null(B)
        assert np.linalg.norm(system.b @ report.x_n) <= 1e-12
        # x_n is exactly the projected inner solution
        from opins.projection import Projector
        from opins.qrcp import qrcp_factor
        projector = Projector(qrcp_factor(np.asarray(system.b).T, 1e-12))
        np.testing.assert_array_equal(report.x_n,
                                      projector.complement(report.inner.solution))

    def test_nonsymmetric_uses_gmres_and_converges(self):
        rng = np.random.default_rng(7)
        n, m = 20, 4
        a = rng.standard_normal((n, n)) + 5 * np.eye(n)
        b = rng.standard_normal((m, n))
        system = SaddleSystem(a=a, b=b, f=rng.standard_normal(n),
                              g=rng.standard_normal(m), a_symmetric=False)
        report = opins_solve(system)
        assert report.converged
        kkt = system.kkt_matrix()
        z = np.linalg.solve(kkt, system.rhs_full())
        assert np.linalg.norm(report.x - z[:n]) <= 1e-7 * np.linalg.norm(z[:n])

    def test_sparse_blocks_accepted(self):
        system = random_nonsingular(11)
        sparse_sys = SaddleSystem(a=sp.csr_matrix(system.a), b=sp.csr_matrix(system.b),
                                  f=system.f, g=system.g, a_symmetric=True)
        dense_report = opins_solve(system)
        sparse_report = opins_solve(sparse_sys)
        np.testing.assert_allclose(sparse_report.x, dense_report.x, atol=1e-12)

    def test_no_constraints_degenerates_to_plain_solve(self):
        rng = np.random.default_rng(13)
        raw = rng.standard_normal((9, 9))
        a = (raw + raw.T) / 2 + 9 * np.eye(9)
        f = rng.standard_normal(9)
        system = SaddleSystem(a=a, b=np.zeros((0, 9)), f=f, g=np.zeros(0),
                              a_symmetric=True)
        report = opins_solve(system)
        assert report.converged and report.rank_b == 0
        np.testing.assert_allclose(report.x, np.linalg.solve(a, f), rtol=1e-8, atol=1e-10)
        assert report.y.shape == (0,)

    def test_dimension_validation(self):
        with pytest.raises(OpinsError):
            SaddleSystem(a=np.eye(3), b=np.ones((1, 2)), f=np.zeros(3), g=np.zeros(1))
        with pytest.raises(OpinsError):
            SaddleSystem(a=np.eye(3), b=np.ones((1, 3)), f=np.zeros(2), g=np.zeros(1))

    def test_inner_failure_surfaces_in_status(self):
        system = random_nonsingular(5)
        report = opins_solve(system, OpinsOptions(maxit=2))
        assert report.inner.status == krylov.MAX_ITERATIONS
        assert not report.converged

    def test_full_column_rank_b_returns_particular_solution(self):
        # rank B = n: null(B) = {0}, so x = x_p with no inner iteration
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((5, 3))
        x0 = rng.standard_normal(3)
        report = opins_solve(SaddleSystem(a=a, b=b, f=a @ x0, g=b @ x0))
        assert report.rank_b == 3
        assert report.inner.status == krylov.CONVERGED
        assert report.inner.iterations == 0
        assert report.metrics["relres_x"] == 0.0
        np.testing.assert_array_equal(report.x, report.x_p)
        assert np.linalg.norm(report.x - x0) <= 1e-12 * np.linalg.norm(x0)


class TestSetup:
    @pytest.mark.parametrize("system, opts", [
        (random_singular(2), dict(declared_singular=True)),
        (random_nonsymmetric(4), dict(precond="projected", g_kind="jacobi")),
    ], ids=["minres", "gmres-projected"])
    def test_given_setup_solves_bit_identically_without_refactoring(
            self, system, opts, monkeypatch):
        options = OpinsOptions(**opts)
        fresh = opins_solve(system, options)
        setup = OpinsSetup.build(system, options.rank_tol)

        def refactor(*args, **kwargs):
            raise AssertionError("a given setup must not be factored again")

        monkeypatch.setattr(opins.driver, "qrcp_factor", refactor)
        reused = opins_solve(setup, options)
        assert reused.converged
        assert np.array_equal(reused.x, fresh.x)
        assert np.array_equal(reused.y, fresh.y)
        assert reused.inner.iterations == fresh.inner.iterations

    def test_setup_with_another_rank_tol_rejected(self):
        setup = OpinsSetup.build(random_nonsingular(3), 1e-10)
        with pytest.raises(OpinsError, match="rank_tol"):
            opins_solve(setup, OpinsOptions(rank_tol=1e-12))


class TestIngest:
    @pytest.mark.parametrize("block, kwargs", [
        ("A", dict(a=[[1.0, 0.0], [0.0, 1.0]])),
        ("A", dict(a=np.array([[np.nan, 0.0], [0.0, 1.0]]))),
        ("A", dict(a=sp.csr_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]])))),
        ("f", dict(f=np.array([np.inf, 0.0]))),
        ("A", dict(a=np.eye(2) * (1 + 1j))),
        ("A", dict(a=np.array([["1", "0"], ["0", "1"]]))),
        ("B", dict(b=np.ones((1, 2)) * 1j)),
        ("B", dict(b=sp.csr_matrix(np.ones((1, 2)) * 1j))),
        ("f", dict(f=np.array([1.0, 1j]))),
        ("g", dict(g=np.array([1j]))),
        ("g", dict(g=np.array(["1"]))),
    ], ids=["list-A", "nan-A", "inf-sparse-A", "inf-f", "complex-A", "str-A", "complex-B",
            "complex-sparse-B", "complex-f", "complex-g", "str-g"])
    def test_bad_block_raises_opins_error_naming_it(self, block, kwargs):
        blocks = dict(a=np.eye(2), b=np.ones((1, 2)), f=np.zeros(2), g=np.zeros(1))
        blocks.update(kwargs)
        with pytest.raises(OpinsError, match=f"^{block} "):
            SaddleSystem(**blocks)


class TestDeclaredSymmetry:
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_nonsymmetric_a_declared_symmetric_raises(self, sparse):
        # MINRES would run to max_iterations on it without a diagnostic
        rng = np.random.default_rng(11)
        a = rng.standard_normal((30, 30)) + 30 * np.eye(30)
        b = rng.standard_normal((5, 30))
        system = SaddleSystem(a=sp.csr_matrix(a) if sparse else a, b=b,
                              f=rng.standard_normal(30), g=rng.standard_normal(5),
                              a_symmetric=True)
        with pytest.raises(OpinsError, match="declared symmetric"):
            opins_solve(system)

    def test_rounding_level_asymmetry_accepted(self):
        system = random_singular(1)
        rng = np.random.default_rng(12)
        noise = 1e-15 * np.abs(system.a).max() * rng.standard_normal(system.a.shape)
        perturbed = SaddleSystem(a=system.a + noise, b=system.b, f=system.f,
                                 g=system.g, a_symmetric=True)
        assert opins_solve(perturbed).converged


class TestObservation:
    @pytest.mark.parametrize("system, opts", [
        (random_singular(5), {}),
        (random_nonsymmetric(3), dict(precond="projected", g_kind="jacobi", restart=8)),
    ], ids=["minres", "gmres-restarted"])
    def test_callback_changes_only_the_purity_metric(self, system, opts):
        plain = opins_solve(system, OpinsOptions(**opts))
        seen = []
        observed = opins_solve(system, OpinsOptions(
            inner_callback=lambda it, w, rr: seen.append(it), **opts))
        assert plain.converged
        assert np.array_equal(plain.x, observed.x)
        assert np.array_equal(plain.y, observed.y)
        assert plain.inner.iterations == observed.inner.iterations == len(seen)
        for key in ("relres_x", "relres_full", "constraint_residual", "norm_x"):
            assert plain.metrics[key] == observed.metrics[key]
        # unobserved: the purity of the final iterate only, which is one of
        # the iterates the observed maximum runs over
        w = plain.inner.solution
        final = np.linalg.norm(system.b @ plain.x_n) / (
            np.linalg.norm(system.b) * np.linalg.norm(w))
        assert plain.metrics["null_space_purity_max"] == final
        assert observed.metrics["null_space_purity_max"] >= final
        assert final <= 1e-12


class TestSingularGuard:
    def test_simple_precond_rejected_when_singular(self):
        system = random_singular(0)
        with pytest.raises(OpinsError, match="projected"):
            opins_solve(system, OpinsOptions(precond="simple", g_kind="jacobi",
                                             declared_singular=True))

    def test_symmetric_application_rejected_when_singular(self):
        system = random_singular(1)
        with pytest.raises(OpinsError, match="null space"):
            opins_solve(system, OpinsOptions(precond="projected", g_kind="jacobi",
                                             precond_side="symmetric",
                                             declared_singular=True))

    def test_projected_left_accepted_when_singular(self):
        system = random_singular(2)
        report = opins_solve(system, OpinsOptions(precond="projected", g_kind="jacobi",
                                                  precond_side="left", restart=200,
                                                  declared_singular=True))
        assert report.converged

    def test_symmetric_side_needs_symmetric_system(self):
        system = random_nonsingular(4)
        system.a_symmetric = False
        with pytest.raises(OpinsError, match="symmetric"):
            opins_solve(system, OpinsOptions(precond="simple", g_kind="jacobi",
                                             precond_side="symmetric"))


class TestMinNorm:
    @pytest.mark.parametrize("seed", range(4))
    def test_min_norm_on_compatible_singular(self, seed):
        system = random_singular(seed)
        report = opins_solve(system)
        assert report.converged
        kkt = system.kkt_matrix()
        z = np.linalg.lstsq(kkt, system.rhs_full(), rcond=None)[0]  # min-norm oracle
        x_oracle = z[:system.n]
        assert abs(np.linalg.norm(report.x) - np.linalg.norm(x_oracle)) <= \
            1e-6 * np.linalg.norm(x_oracle)

    def test_null_space_purity_metric(self):
        # a callback makes the metric the maximum over every inner iterate
        report = opins_solve(random_singular(5),
                             OpinsOptions(inner_callback=lambda it, w, rr: None))
        assert report.metrics["null_space_purity_max"] <= 1e-12


class TestScalingRobustness:
    @pytest.mark.parametrize("sigma", [1e-10, 1e10])
    def test_x_invariant_y_scales(self, sigma):
        base = random_singular(6)
        scaled = SaddleSystem(a=sigma * base.a, b=base.b, f=sigma * base.f,
                              g=base.g, a_symmetric=True)
        rep0 = opins_solve(base)
        rep1 = opins_solve(scaled)
        assert rep0.converged and rep1.converged
        assert np.linalg.norm(rep1.x - rep0.x) <= 1e-6 * np.linalg.norm(rep0.x)
        np.testing.assert_allclose(rep1.y, sigma * rep0.y,
                                   rtol=1e-6, atol=1e-8 * sigma * np.linalg.norm(rep0.y))


class TestPreconditionedEquivalence:
    def test_projected_precond_matches_dense_reduced_iteration(self):
        """Projected preconditioning must reproduce, iterate by iterate, the
        dense null-space method preconditioned with the reduced G block."""
        rng = np.random.default_rng(21)
        n, m = 30, 6
        raw = rng.standard_normal((n, n))
        a = (raw + raw.T) / 2
        b = rng.standard_normal((m, n)) / np.sqrt(n)
        system = SaddleSystem(a=a, b=b, f=rng.standard_normal(n),
                              g=rng.standard_normal(m), a_symmetric=True)

        captured = []
        opts = OpinsOptions(precond="projected", g_kind="jacobi",
                            inner_callback=lambda it, w, rr: captured.append(w.copy()))
        report = opins_solve(system, opts)
        assert report.converged

        # dense side: reduced equation with the same preconditioner
        q_full, _, _ = sla.qr(b.T, pivoting=True, mode="full")
        z = q_full[:, report.rank_b:]
        reduced = z.T @ a @ z
        d = np.abs(np.diag(a))
        w_mat = z.T @ np.diag(d) @ z
        w_inv = np.linalg.inv(w_mat)
        x_p = report.x_p
        rhs = z.T @ (system.f - a @ x_p)
        dense_iterates = []
        krylov.minres(LinearOperator(dim=n - report.rank_b,
                                     apply=lambda v: reduced @ v),
                      rhs, 1e-10, 500,
                      precond=LinearOperator(dim=n - report.rank_b,
                                             apply=lambda v: w_inv @ v),
                      callback=lambda it, v, rr: dense_iterates.append(v.copy()))

        # the two recurrences are the same iteration: early iterates agree to
        # roundoff, the converged iterates agree to the solve tolerance, and
        # the iteration counts match (floating-point paths diverge transiently
        # mid-iteration, so exact-arithmetic equality is checked at the ends)
        from opins.projection import Projector
        from opins.qrcp import qrcp_factor
        projector = Projector(qrcp_factor(b.T, 1e-12))

        def mismatch(w_k, v_k):
            ref = z @ v_k
            return np.linalg.norm(projector.complement(w_k) - ref) / \
                max(1.0, np.linalg.norm(ref))

        assert abs(len(captured) - len(dense_iterates)) <= 1
        for w_k, v_k in list(zip(captured, dense_iterates))[:5]:
            assert mismatch(w_k, v_k) <= 1e-10
        assert mismatch(captured[-1], dense_iterates[-1]) <= 1e-8

    def test_user_operator_g(self):
        system = random_nonsingular(30)
        d = np.abs(np.diag(np.asarray(system.a))) + 1.0
        g_op = InvertibleOperator(dim=system.n, solve=lambda v: v / d)
        report = opins_solve(system, OpinsOptions(precond="projected",
                                                  g_kind="user-operator", g_op=g_op))
        assert report.converged

    def test_user_operator_requires_g_op(self):
        with pytest.raises(OpinsError, match="g_op"):
            opins_solve(random_nonsingular(31),
                        OpinsOptions(precond="simple", g_kind="user-operator"))


class TestOptionValidation:
    def test_bad_tolerances(self):
        with pytest.raises(OpinsError):
            OpinsOptions(solve_tol=-1.0)
        with pytest.raises(OpinsError):
            OpinsOptions(rank_tol=0.0)

    @pytest.mark.parametrize("kwargs", [
        dict(solve_tol=np.inf), dict(solve_tol=np.nan), dict(rank_tol=np.inf),
        dict(rank_tol=np.nan), dict(restart=0), dict(restart=-1), dict(maxit=-5),
    ], ids=["inf-solve-tol", "nan-solve-tol", "inf-rank-tol", "nan-rank-tol", "restart-0",
            "restart-negative", "maxit-negative"])
    def test_out_of_range_values(self, kwargs):
        # solve_tol=inf would report converged after 0 steps, restart=-1 fail
        # inside numpy and maxit=-5 silently mean the automatic cap
        with pytest.raises(OpinsError):
            OpinsOptions(**kwargs)
        renamed = {"solve_tol": "tol", "rank_tol": "qrcp_tol"}
        with pytest.raises(ValueError):
            RunConfig(solver="opins", **{renamed.get(k, k): v for k, v in kwargs.items()})

    def test_bad_names(self):
        with pytest.raises(OpinsError):
            OpinsOptions(precond="fancy")
        with pytest.raises(OpinsError):
            OpinsOptions(g_kind="amg")
        with pytest.raises(OpinsError):
            OpinsOptions(precond_side="right")


class TestFrobeniusNorm:
    """Frobenius norm of dense and sparse storage: the purity denominator and
    the scale of the symmetry probe."""

    def test_zero_matrix(self):
        assert frobenius_norm(np.zeros((4, 4))) == 0.0
        assert frobenius_norm(sp.csr_matrix((4, 4))) == 0.0
        assert frobenius_norm(sp.csr_matrix(np.zeros((2, 2)))) == 0.0

    @pytest.mark.parametrize("transpose", [False, True])
    def test_random_sparse_matches_dense(self, transpose):
        # the transpose of a CSR matrix is stored as CSC
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((10, 10)) * (rng.random((10, 10)) < 0.3)
        mat = sp.csr_matrix(dense)
        if transpose:
            mat, dense = mat.T, dense.T
        assert frobenius_norm(mat) == pytest.approx(np.linalg.norm(dense), rel=1e-14)

    def test_frobenius_norm_matches_numpy(self):
        rng = np.random.default_rng(2)
        dense = rng.standard_normal((6, 4))
        assert frobenius_norm(sp.csr_matrix(dense)) == pytest.approx(np.linalg.norm(dense))
        assert frobenius_norm(dense) == pytest.approx(np.linalg.norm(dense))

    def test_unsummed_duplicates_are_summed(self):
        # both entries sit at (0, 0), so the matrix is [[7, 0], [0, 0]]
        mat = sp.csr_matrix(([3.0, 4.0], [0, 0], [0, 2, 2]), shape=(2, 2))
        assert frobenius_norm(mat) == pytest.approx(7.0, rel=1e-15)
