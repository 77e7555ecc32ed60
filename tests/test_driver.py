"""End-to-end driver behavior: uniqueness, min-norm, guards, equivalences."""

import dataclasses
import re
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from opins import krylov
import opins.driver
from opins.driver import (InnerObserver, OpinsError, OpinsOptions, OpinsSetup, SaddleSystem,
                          opins_solve)
from opins.driver import _frobenius_norm as frobenius_norm
from opins.harness.runner import RunConfig
from opins.operators import LinearOperator
from opins.preconditioners import InvertibleOperator, ProjectedPreconditioner, build_g
from test_qrcp import averaging_b


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


def krylov_runs(monkeypatch):
    """The list, filled as they run, of the names of the ``opins.krylov``
    MINRES and GMRES calls made while ``monkeypatch`` is active."""
    ran = []
    for name in ("minres", "gmres"):
        def spy(*args, _name=name, _solve=getattr(krylov, name), **kwargs):
            ran.append(_name)
            return _solve(*args, **kwargs)
        monkeypatch.setattr(krylov, name, spy)
    return ran


def neumann_laplacian(side):
    """7-point Laplacian on a side^3 grid with Neumann ends (CSR):
    semidefinite, its kernel the constant vectors."""
    t = sp.diags([-np.ones(side - 1), 2 * np.ones(side), -np.ones(side - 1)],
                 [-1, 0, 1]).tolil()
    t[0, 0] = t[-1, -1] = 1.0
    i = sp.identity(side)
    return (sp.kron(sp.kron(t, i), i) + sp.kron(sp.kron(i, t), i)
            + sp.kron(sp.kron(i, i), t)).tocsr()


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


    @pytest.mark.parametrize("kwargs, message", [
        (dict(b=np.ones(2)), "B must be 2-d, got shape (2,)"),
        (dict(a=np.ones((2, 3)), b=np.ones((1, 3))), "A must be square, got (2, 3)"),
        (dict(g=np.zeros(2)), "g has shape (2,), expected (1,)"),
    ], ids=["1-d-B", "non-square-A", "g-length"])
    def test_bad_shape_raises_opins_error_with_its_message(self, kwargs, message):
        blocks = dict(a=np.eye(2), b=np.ones((1, 2)), f=np.zeros(2), g=np.zeros(1))
        blocks.update(kwargs)
        with pytest.raises(OpinsError, match=re.escape(message)):
            SaddleSystem(**blocks)

    @pytest.mark.parametrize("blocks", ["A", "B", "AB"])
    def test_np_matrix_blocks_solve_as_ndarrays(self, blocks):
        base = random_nonsymmetric(2)
        with warnings.catch_warnings():
            # numpy discourages the matrix class; the solve must not warn
            warnings.simplefilter("ignore", PendingDeprecationWarning)
            a = np.asmatrix(base.a) if "A" in blocks else base.a
            b = np.asmatrix(base.b) if "B" in blocks else base.b
        report = opins_solve(SaddleSystem(a=a, b=b, f=base.f, g=base.g))
        plain = opins_solve(base)
        assert plain.converged
        assert np.array_equal(report.x, plain.x) and np.array_equal(report.y, plain.y)


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

    @pytest.mark.parametrize("m", [0, 2])
    def test_empty_system_declared_symmetric(self, m):
        # n = 0 leaves no probe vector to normalize; the probe returns
        # without dividing by their zero norms, and there is nothing to solve
        system = SaddleSystem(a=np.zeros((0, 0)), b=np.zeros((m, 0)), f=np.zeros(0),
                              g=np.zeros(m), a_symmetric=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = opins_solve(system)
        assert report.converged and report.inner.iterations == 0
        assert report.x.shape == (0,) and report.y.shape == (m,)

    def test_sparse_zero_a_ends_as_the_dense_one(self):
        # a sparse A with no stored entries has ||A||_F = 0 like a dense zero
        # A, and the solve ends in the same status, not a traceback
        rng = np.random.default_rng(3)
        b = rng.standard_normal((2, 6))
        f, g = b.T @ rng.standard_normal(2), b @ rng.standard_normal(6)
        dense, sparse = (
            opins_solve(SaddleSystem(a=a, b=b, f=f, g=g, a_symmetric=True),
                        OpinsOptions(declared_singular=True))
            for a in (np.zeros((6, 6)), sp.csr_matrix((6, 6))))
        assert sparse.inner.status == dense.inner.status
        assert sparse.inner.iterations == dense.inner.iterations

    def test_sparse_a_with_unsummed_duplicates_is_only_read(self):
        # [[2, 1], [1, 3]] stored as 6 entries, duplicates unsummed
        a = sp.csr_matrix(([1.0, 1.0, 1.0, 0.5, 0.5, 3.0], [0, 0, 1, 0, 0, 1], [0, 3, 6]),
                          shape=(2, 2))
        indices, data = a.indices.copy(), a.data.copy()
        report = opins_solve(SaddleSystem(a=a, b=np.array([[1.0, 1.0]]), f=np.array([1.0, 2.0]),
                                          g=np.array([1.0]), a_symmetric=True))
        assert report.converged
        assert a.nnz == 6
        np.testing.assert_array_equal(a.indices, indices)
        np.testing.assert_array_equal(a.data, data)

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

    @pytest.mark.parametrize("system, opts", [
        (random_singular(5), {}),
        (random_nonsymmetric(3), dict(precond="projected", g_kind="jacobi", restart=8)),
    ], ids=["minres", "gmres-restarted"])
    def test_callback_receives_the_projected_iterate(self, system, opts, monkeypatch):
        # inner_callback's x_n_k is P w_k of the solver's own iterate w_k
        iterates, parts = [], []
        for name in ("minres", "gmres"):
            def spy(*args, _solve=getattr(krylov, name), callback, **kwargs):
                def seen(it, w, relres):
                    iterates.append(w)
                    callback(it, w, relres)
                return _solve(*args, callback=seen, **kwargs)
            monkeypatch.setattr(krylov, name, spy)
        report = opins_solve(system, OpinsOptions(
            inner_callback=lambda it, x_n, rr: parts.append(x_n), **opts))
        projector = OpinsSetup.build(system, 1e-12).projector
        assert len(parts) == len(iterates) == report.inner.iterations > 0
        for x_n, w in zip(parts, iterates):
            assert np.array_equal(x_n, projector.complement(w))

    def test_observer_refuses_a_step_without_its_residual(self):
        # the x_n an observer hands on is that of the last residual it computed
        setup = OpinsSetup.build(random_singular(5), 1e-12)
        seen = []
        observer = InnerObserver(setup, lambda it, x_n, rr: seen.append(x_n))
        w = np.ones(setup.system.n)
        observer.residual(w)
        observer(1, w, 0.5)
        assert len(seen) == 1 and seen[0] is observer.x_n
        with pytest.raises(RuntimeError, match="residual"):
            observer(2, w.copy(), 0.5)


def shifted_neumann_system(symmetric, side=6):
    """Nonsingular sparse system: the Neumann Laplacian plus 0.1 I, and a
    first-order skew part when not ``symmetric``; averaging B with two
    repeated rows."""
    a = neumann_laplacian(side) + 0.1 * sp.identity(side ** 3)
    if not symmetric:
        a = a + 0.3 * sp.diags([np.ones(side ** 3 - 1), -np.ones(side ** 3 - 1)], [1, -1])
    rng = np.random.default_rng(4)
    b = averaging_b(4, n=side ** 3, distinct=12, duplicates=2)
    return SaddleSystem(a=a.tocsr(), b=b, f=rng.standard_normal(side ** 3),
                        g=b @ rng.standard_normal(side ** 3), a_symmetric=symmetric)


class TestStepBudget:
    """Operator work per Krylov step.  Without a preconditioner every Krylov
    vector lies in null(B), so a step applies P A: 1 A product and 1
    projection.  GMRES with P_G applies A alone to vectors in range(P_G),
    where P_G P = P_G: 1 and 0.  With G^{-1}, and in MINRES with P_G, a step
    applies P A P: 1 and 2.  The true residual rhs - P A P w adds 1 and 2
    wherever it runs: at every step when observed (its P w is the x_n the
    callback reads), otherwise only at a step whose recurrence residual
    meets the tolerance, and at the start of every GMRES restart cycle after
    the first."""

    @pytest.mark.parametrize("observed", [False, True], ids=["unobserved", "observed"])
    @pytest.mark.parametrize("precond, symmetric, solver, per_step", [
        ("none", True, "minres", 1), ("none", False, "gmres", 1),
        ("simple", True, "minres", 2), ("simple", False, "gmres", 2),
        ("projected", True, "minres", 2), ("projected", False, "gmres", 0)])
    def test_products_and_projections_per_step(self, precond, symmetric, solver, per_step,
                                               observed, monkeypatch):
        from opins.projection import Projector

        counts = {"a": 0, "p": 0, "residual": 0}

        class CountedCSR(sp.csr_matrix):
            def _matmul_vector(self, other):
                counts["a"] += 1
                return super()._matmul_vector(other)

        complement, residual = Projector.complement, krylov._Steps.residual

        def counted_complement(projector, v):
            counts["p"] += 1
            return complement(projector, v)

        def counted_residual(steps, x):
            counts["residual"] += 1
            return residual(steps, x)

        inside = {}
        for name in ("minres", "gmres"):
            def spy(*args, _name=name, _solve=getattr(krylov, name), **kwargs):
                before = dict(counts)
                outcome = _solve(*args, **kwargs)
                inside.update({key: counts[key] - before[key] for key in counts}, solver=_name)
                return outcome
            monkeypatch.setattr(krylov, name, spy)
        monkeypatch.setattr(Projector, "complement", counted_complement)
        monkeypatch.setattr(krylov._Steps, "residual", counted_residual)

        system = shifted_neumann_system(symmetric)
        system.a = CountedCSR(system.a)
        restart = 8
        report = opins_solve(system, OpinsOptions(
            precond=precond, g_kind="identity" if precond == "none" else "jacobi",
            restart=restart, inner_callback=(lambda *args: None) if observed else None))
        steps, history = report.inner.iterations, report.inner.history
        assert report.converged and inside.pop("solver") == solver
        restarts = (steps - 1) // restart if solver == "gmres" else 0
        if solver == "gmres":
            assert restarts >= 2
        checked = [rec for rec in history if rec.true_relres is not None]
        if observed:
            assert len(checked) == steps
        else:
            assert 1 <= len(checked) < steps
            assert all(rec.relres <= OpinsOptions.solve_tol for rec in checked)
        assert inside == {"a": steps + len(checked) + restarts,
                          "p": per_step * steps + 2 * (len(checked) + restarts),
                          "residual": len(checked) + restarts}


def graded_system(s, seed, n=200, m=12):
    """Nonsymmetric A = diag(logspace(-s/2, s/2)) plus Gaussian noise at the
    scale of its smallest entry, and a Gaussian B whose rows concentrate on
    A's ten smallest and ten largest diagonal entries: with Jacobi G the
    block U^T G^{-1} U has a condition number near 10^s."""
    rng = np.random.default_rng(seed)
    d = np.logspace(-s / 2, s / 2, n)
    a = np.diag(d) + rng.standard_normal((n, n)) * (d[0] / np.sqrt(n))
    ends = np.r_[:10, n - 10:n]
    b = 1e-3 * rng.standard_normal((m, n))
    b[:, ends] += rng.standard_normal((m, ends.size))
    return SaddleSystem(a=a, b=b, f=rng.standard_normal(n), g=rng.standard_normal(m))


def ilu_system(kind):
    """A nonsymmetric sparse system for ILU(0): the shifted, skewed Neumann
    Laplacian with averaging B, or a diagonally dominant random sparse A
    with a Gaussian B."""
    if kind == "neumann":
        return shifted_neumann_system(False, side=8)
    rng = np.random.default_rng(5)
    n, m = 400, 10
    a = sp.random(n, n, density=0.02, random_state=rng, format="csr")
    a = a - 0.5 * a.T + sp.diags(abs(a).sum(axis=1).A1 + abs(a).sum(axis=0).A1 + 1.0)
    b = rng.standard_normal((m, n)) / np.sqrt(n)
    return SaddleSystem(a=a.tocsr(), b=b, f=rng.standard_normal(n), g=rng.standard_normal(m))


class TestProjectedGmresSteps:
    """GMRES with P_G applies A alone at each step.  Its Arnoldi vectors are
    combinations of P_G outputs, in null(B), and P_G P = P_G, so P_G A and
    P_G P A P agree on them: on problems graded over up to 10^4 the solve is
    the GMRES run on P A P with the same P_G, to rounding."""

    @pytest.mark.parametrize("problem, g_kind", [
        (("ilu", "neumann"), "ilu0"), (("ilu", "random"), "ilu0"),
        *[(("graded", s, seed), "jacobi") for s in (1, 4) for seed in range(4)]],
        ids=["ilu-neumann", "ilu-random",
             *[f"graded-s{s}-seed{seed}" for s in (1, 4) for seed in range(4)]])
    def test_same_iteration_as_on_p_a_p(self, problem, g_kind, monkeypatch):
        ran = krylov_runs(monkeypatch)
        system = ilu_system(problem[1]) if problem[0] == "ilu" else graded_system(*problem[1:])
        # restart cycles of 10 steps, so most runs restart
        opts = OpinsOptions(precond="projected", g_kind=g_kind, restart=10)
        setup = OpinsSetup.build(system, opts.rank_tol)
        report = opins_solve(setup, opts)
        assert ran == ["gmres"]

        g = build_g(system.a, g_kind)
        p_g = ProjectedPreconditioner(g, setup.fact)
        reference = krylov.gmres(setup.operator, setup.rhs, opts.restart, opts.solve_tol,
                                 opts.iteration_cap(system.n),
                                 left_precond=LinearOperator(dim=system.n, apply=p_g.apply))
        if problem[0] == "graded" and problem[1] == 4:
            schur = setup.fact.u.T @ g.solve_columns(setup.fact.u)
            assert np.linalg.cond(schur) > 1e3
        assert (report.inner.status, report.inner.iterations) == \
            (reference.status, reference.iterations)
        x_ref = setup.x_p + setup.projector.complement(reference.solution)
        assert np.linalg.norm(report.x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
        assert report.converged
        assert setup.relres_x(setup.projector.complement(report.inner.solution)) \
            <= opts.solve_tol

    @pytest.mark.parametrize("s", [6, 8])
    @pytest.mark.parametrize("seed", range(4))
    def test_stalled_steps_on_a_rerun_on_p_a_p(self, s, seed, monkeypatch):
        # graded over 10^6 and more, P_G's rounding out of null(B), which A
        # amplifies, stalls the steps on A; the solve then runs GMRES on
        # P A P from zero with the steps left, the run that converges
        calls = []
        for name in ("minres", "gmres"):
            def spy(op, b, *args, _solve=getattr(krylov, name), **kwargs):
                outcome = _solve(op, b, *args, **kwargs)
                calls.append((op, outcome))
                return outcome
            monkeypatch.setattr(krylov, name, spy)
        system = graded_system(s, seed)
        opts = OpinsOptions(precond="projected", g_kind="jacobi")
        setup = OpinsSetup.build(system, opts.rank_tol)
        report = opins_solve(setup, opts)
        assert report.converged
        assert setup.relres_x(report.x_n) <= opts.solve_tol
        (on_a, stalled), (on_pap, rerun) = calls
        assert on_a is not setup.operator and on_pap is setup.operator
        assert stalled.status == krylov.STAGNATION

        g = build_g(system.a, "jacobi")
        reference = krylov.gmres(setup.operator, setup.rhs, opts.restart, opts.solve_tol,
                                 opts.iteration_cap(system.n),
                                 left_precond=LinearOperator(
                                     dim=system.n, apply=ProjectedPreconditioner(g, setup.fact).apply))
        assert reference.converged
        assert np.array_equal(rerun.solution, reference.solution)
        assert report.inner.iterations == stalled.iterations + reference.iterations
        assert [r.iter for r in report.inner.history] == \
            list(range(1, report.inner.iterations + 1))

    def test_rerun_observed_and_within_the_cap(self):
        # an observed solve numbers its steps on across the two runs and
        # stops where the unobserved one does; the rerun gets only the steps
        # the stalled run left, so a cap just past the stall ends unconverged
        system = graded_system(6, 0)
        seen = []
        opts = OpinsOptions(precond="projected", g_kind="jacobi",
                            inner_callback=lambda it, x_n, relres: seen.append(it))
        observed = opins_solve(system, opts)
        plain = opins_solve(system, OpinsOptions(precond="projected", g_kind="jacobi"))
        assert observed.converged and plain.converged
        assert observed.inner.iterations == plain.inner.iterations
        assert seen == list(range(1, observed.inner.iterations + 1))
        assert np.array_equal(observed.x, plain.x)

        stalled = opins_solve(system, OpinsOptions(precond="projected", g_kind="jacobi",
                                                   maxit=100))
        assert (stalled.inner.status, stalled.inner.iterations) == (krylov.STAGNATION, 100)
        capped = opins_solve(system, OpinsOptions(precond="projected", g_kind="jacobi",
                                                  maxit=103))
        assert (capped.inner.status, capped.inner.iterations) == (krylov.MAX_ITERATIONS, 103)


class TestUnpreconditionedAtScale:
    """The guarantees of the unpreconditioned solve, whose Krylov steps
    apply P A, at n = 1728: a Neumann Laplacian (kernel: the constants) with
    60 averaging rows of B and 4 repeats, projected through B_q and R_11;
    and the same with the row b_0 + 1e-6 (e_k - e_l) appended, for columns
    k, l that B does not touch, whose ill-conditioned R_11 forms U.  Both
    systems are compatible and singular, constants in null(A) and null(B)."""

    @pytest.fixture(scope="class", params=["b_q", "formed-u"])
    def setup(self, request):
        side = 12
        n = side ** 3
        a = neumann_laplacian(side)
        b = averaging_b(7, n=n, distinct=60, duplicates=4)
        if request.param == "formed-u":
            k, l = np.setdiff1d(np.arange(n), b.indices)[:2]
            row = b[0].toarray()
            row[0, k] += 1e-6
            row[0, l] -= 1e-6
            b = sp.vstack([b, sp.csr_matrix(row)]).tocsr()
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal(n)
        system = SaddleSystem(a=a, b=b, f=a @ x0 + b.T @ rng.standard_normal(b.shape[0]),
                              g=b @ x0, a_symmetric=True)
        setup = OpinsSetup.build(system, 1e-12)
        assert (setup.fact.b_q is not None) == (request.param == "b_q")
        return setup

    def test_minres_keeps_purity_min_norm_and_the_reference_x(self, setup):
        opts = OpinsOptions(declared_singular=True)
        report = opins_solve(setup, opts)
        parts = []
        observed = opins_solve(setup, OpinsOptions(
            declared_singular=True, inner_callback=lambda it, x_n, rr: parts.append(x_n)))
        assert report.converged and len(parts) == report.inner.iterations > 20
        assert np.array_equal(report.x, observed.x)
        # ||B P w|| / (||B||_F ||w||), its maximum over every iterate
        assert observed.metrics["null_space_purity_max"] <= 1e-14
        b_norm = frobenius_norm(setup.system.b)
        for x_n in parts:
            assert np.linalg.norm(setup.system.b @ x_n) <= 1e-14 * b_norm * np.linalg.norm(x_n)
        x, n = report.x, setup.system.n
        # minimum norm: no component along the kernel's constants
        assert abs(x.sum()) <= 1e-12 * np.sqrt(n) * np.linalg.norm(x)
        # MINRES on P A P itself, every step projecting its vector twice
        reference = krylov.minres(setup.operator, setup.rhs, opts.solve_tol,
                                  opts.iteration_cap(n))
        x_ref = setup.x_p + setup.projector.complement(reference.solution)
        assert reference.iterations == report.inner.iterations
        assert np.linalg.norm(x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)

    def test_gmres_gives_the_same_x_observed_or_not(self, setup):
        minres_x = opins_solve(setup, OpinsOptions(declared_singular=True)).x
        system = dataclasses.replace(setup.system, a_symmetric=False)
        nonsymmetric = OpinsSetup(system, setup.rank_tol, setup.projector, setup.x_p)
        plain = opins_solve(nonsymmetric, OpinsOptions(declared_singular=True))
        observed = opins_solve(nonsymmetric, OpinsOptions(
            declared_singular=True, inner_callback=lambda *args: None))
        assert plain.converged
        assert np.linalg.norm(plain.x - minres_x) <= 1e-8 * np.linalg.norm(minres_x)
        assert np.array_equal(plain.x, observed.x)
        assert plain.inner.iterations == observed.inner.iterations
        assert observed.metrics["null_space_purity_max"] <= 1e-14


class TestSingularGuard:
    def test_simple_precond_rejected_when_singular(self):
        system = random_singular(0)
        with pytest.raises(OpinsError, match="projected"):
            opins_solve(system, OpinsOptions(precond="simple", g_kind="jacobi",
                                             declared_singular=True))

    def test_projected_left_accepted_when_singular(self):
        system = random_singular(2)
        report = opins_solve(system, OpinsOptions(precond="projected", g_kind="jacobi",
                                                  restart=200, declared_singular=True))
        assert report.converged


class TestSolverRule:
    """MINRES when A is declared symmetric and either no preconditioner is
    applied or G is SPD on a system not declared singular; GMRES
    otherwise."""

    @pytest.mark.parametrize("precond, g_kind", [
        ("none", "identity"), ("simple", "jacobi"), ("projected", "jacobi"),
        ("simple", "ilu0"), ("projected", "ilu0")],
        ids=["none", "simple", "projected", "simple-ilu0", "projected-ilu0"])
    @pytest.mark.parametrize("singular", [False, True], ids=["nonsingular", "singular"])
    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "nonsymmetric"])
    def test_inner_solver_table(self, symmetric, singular, precond, g_kind, monkeypatch):
        ran = krylov_runs(monkeypatch)
        system = random_singular(2)
        system.a_symmetric = symmetric
        if singular and precond == "simple":
            with pytest.raises(OpinsError, match="projected"):
                opins_solve(system, OpinsOptions(precond=precond, g_kind=g_kind,
                                                 declared_singular=True))
            assert ran == []
            return
        report = opins_solve(system, OpinsOptions(precond=precond, g_kind=g_kind,
                                                  restart=200, declared_singular=singular))
        spd = g_kind != "ilu0"
        expected = "minres" if symmetric and (precond == "none" or spd and not singular) \
            else "gmres"
        assert ran == [expected]
        # ILU(0) of this rank-deficient dense A is its LU with rounding-level
        # pivots, so only the choice of solver is checked with it
        if singular and spd:
            # the null-space equation is singular: both solvers return a
            # solution, and without a preconditioner the minimum-norm one
            assert report.converged and report.metrics["relres_full"] <= 1e-10
            if precond == "none":
                z = np.linalg.lstsq(system.kkt_matrix(), system.rhs_full(), rcond=None)[0]
                np.testing.assert_allclose(report.x, z[:system.n], rtol=1e-8, atol=1e-10)


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


    @pytest.fixture(scope="class")
    def neumann_case(self):
        """Neumann Laplacian on a side-8 grid (singular, constants in its null
        space) with 20 averaging rows of B, two of them duplicates;
        compatible right-hand side."""
        a = neumann_laplacian(8)
        b = averaging_b(0, n=a.shape[0], distinct=18, duplicates=2)
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal(a.shape[0])
        return a, b, a @ x0 + b.T @ rng.standard_normal(b.shape[0]), b @ x0

    @pytest.mark.parametrize("symmetric", [True, False], ids=["minres", "gmres"])
    def test_extreme_scales_keep_steps_and_x(self, neumann_case, symmetric):
        # every test inside the inner solver is relative, so scaling (A, f)
        # far outside 1e+-16 changes neither the steps nor x
        a, b, f, g = neumann_case

        def solve(sigma):
            return opins_solve(SaddleSystem(a=sigma * a, b=b, f=sigma * f, g=g,
                                            a_symmetric=symmetric),
                               OpinsOptions(declared_singular=True, maxit=300))

        base = solve(1.0)
        assert base.converged
        for sigma in (1e-100, 1e-20, 1e20, 1e100):
            report = solve(sigma)
            assert report.converged, f"sigma {sigma}"
            assert abs(report.inner.iterations - base.inner.iterations) <= 1, f"sigma {sigma}"
            assert np.linalg.norm(report.x - base.x) <= 1e-12 * np.linalg.norm(base.x)


    @pytest.mark.parametrize("symmetric, sigma", [(True, 1e-300), (False, 1e-200),
                                                  (False, 1e-300)])
    def test_underflowing_rhs_is_not_converged(self, symmetric, sigma):
        # ||P(f - A x_p)||^2 underflows, so the inner solver sees a zero
        # norm; the x_p it would return is far from the solution
        a = np.diag(np.arange(1.0, 21.0))
        b = np.random.default_rng(0).standard_normal((5, 20))
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal(20)
        f, g = a @ x0 + b.T @ rng.standard_normal(5), b @ x0
        assert opins_solve(SaddleSystem(a=a, b=b, f=f, g=g, a_symmetric=symmetric)).converged
        report = opins_solve(SaddleSystem(a=sigma * a, b=b, f=sigma * f, g=g,
                                          a_symmetric=symmetric))
        assert report.inner.status == "breakdown" and report.inner.iterations == 0
        assert np.linalg.norm(report.x - x0) > 1.0


class TestPurityScale:
    """||B||_F comes from dnrm2, so the purity of a B scaled by 2^520, whose
    squared entries overflow, is the unscaled B's."""

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_purity_and_x_of_scaled_b_are_the_unscaled_ones(self, sparse):
        rng = np.random.default_rng(4)
        a = np.diag(np.arange(1.0, 21.0))
        b = rng.standard_normal((5, 20))
        f = rng.standard_normal(20)

        def solve(scale):
            system = SaddleSystem(a=a, b=sp.csr_matrix(scale * b) if sparse else scale * b,
                                  f=f, g=np.zeros(5), a_symmetric=True)
            return opins_solve(system, OpinsOptions(inner_callback=lambda it, x_n, relres: None))

        base, scaled = solve(1.0), solve(2.0**520)
        assert base.converged and scaled.converged
        assert base.metrics["null_space_purity_max"] > 0.0
        assert scaled.metrics["null_space_purity_max"] == base.metrics["null_space_purity_max"]
        np.testing.assert_array_equal(scaled.x, base.x)


class TestSymmetryProbeScale:
    """The declared-symmetry probe is relative to ||A||_F, which BLAS dnrm2
    measures without underflow or overflow however A is scaled."""

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("sigma", [1e-200, 1e-300])
    def test_tiny_symmetric_a_is_accepted(self, sigma, sparse):
        a = sigma * np.diag(np.arange(1.0, 21.0))
        assert np.linalg.norm(a) == 0.0
        rng = np.random.default_rng(1)
        system = SaddleSystem(a=sp.csr_matrix(a) if sparse else a,
                              b=np.random.default_rng(0).standard_normal((5, 20)),
                              f=sigma * rng.standard_normal(20), g=rng.standard_normal(5),
                              a_symmetric=True)
        # the projected right-hand side underflows too: no steps to take
        report = opins_solve(system)
        assert report.inner.status == "breakdown" and report.inner.iterations == 0

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("sigma", [1e-250, 1e160])
    def test_scaled_nonsymmetric_a_still_raises(self, sigma, sparse):
        rng = np.random.default_rng(11)
        a = sigma * (rng.standard_normal((30, 30)) + 30 * np.eye(30))
        system = SaddleSystem(a=sp.csr_matrix(a) if sparse else a,
                              b=rng.standard_normal((5, 30)), f=rng.standard_normal(30),
                              g=rng.standard_normal(5), a_symmetric=True)
        with pytest.raises(OpinsError, match="declared symmetric"):
            opins_solve(system)


class TestPreconditionerInput:
    @pytest.mark.parametrize("precond", ["simple", "projected"])
    def test_ilu0_failure_raises_opins_error(self, precond):
        n = 12
        a = sp.diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1],
                     format="lil")
        a[3, 3] = 0.0
        a = a.tocsr()
        a.eliminate_zeros()
        system = SaddleSystem(a=a, b=np.ones((1, n)), f=np.ones(n), g=np.ones(1))
        with pytest.raises(OpinsError, match="missing diagonal entry in row 3") as info:
            opins_solve(system, OpinsOptions(precond=precond, g_kind="ilu0"))
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    @pytest.mark.parametrize("solve", [lambda v: v, lambda v: v / np.arange(1.0, 4.0)],
                             ids=["dim-ignored", "broadcast"])
    def test_g_of_the_wrong_dim_raises_opins_error(self, solve):
        # a G whose solve ignores its dim would converge, one that reads it
        # would fail inside numpy: both are refused before the solve
        g = InvertibleOperator(dim=3, solve=solve)
        with pytest.raises(OpinsError, match="dim 3"):
            opins_solve(random_nonsymmetric(1, n=20), OpinsOptions(precond="projected",
                                                                    g_kind=g))

    def test_singular_schur_block_raises_opins_error(self):
        # G^{-1} = 0 makes U^T G^{-1} U zero: the projected preconditioner
        # cannot be built, and the solve says so as it does for ILU(0)
        n = 20
        rng = np.random.default_rng(0)
        system = SaddleSystem(a=np.diag(np.arange(1.0, n + 1)), b=rng.standard_normal((5, n)),
                              f=rng.standard_normal(n), g=rng.standard_normal(5))
        g = InvertibleOperator(dim=n, solve=lambda v: 0.0 * v)
        with pytest.raises(OpinsError, match="U\\^T G\\^\\{-1\\} U block is singular") as info:
            opins_solve(system, OpinsOptions(precond="projected", g_kind=g))
        assert isinstance(info.value.__cause__, sla.LinAlgError)


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

    def test_user_operator_g(self, monkeypatch):
        # g_kind may be G itself instead of the name of a G to build; one
        # not declared SPD preconditions GMRES
        ran = krylov_runs(monkeypatch)
        system = random_nonsingular(30)
        d = np.abs(np.diag(np.asarray(system.a))) + 1.0
        g = InvertibleOperator(dim=system.n, solve=lambda v: v / d)
        report = opins_solve(system, OpinsOptions(precond="projected", g_kind=g))
        assert report.converged
        assert ran == ["gmres"]

    def test_user_operator_g_declared_spd_preconditions_minres(self, monkeypatch):
        ran = krylov_runs(monkeypatch)
        system = random_nonsingular(30)
        d = np.abs(np.diag(np.asarray(system.a))) + 1.0
        g = InvertibleOperator(dim=system.n, solve=lambda v: v / d, spd=True)
        report = opins_solve(system, OpinsOptions(precond="projected", g_kind=g))
        assert report.converged
        assert ran == ["minres"]


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
            OpinsOptions(precond="simple", g_kind="amg")
        with pytest.raises(OpinsError):
            OpinsOptions(precond="simple", g_kind=np.eye(3))

    @pytest.mark.parametrize("kwargs, match", [
        (dict(g_kind=InvertibleOperator(dim=3, solve=abs)), "g_kind"),
        (dict(g_kind="jacobi"), "g_kind"),
    ], ids=["user-operator-unpreconditioned", "g_kind-unpreconditioned"])
    def test_settings_nothing_reads_rejected_on_construction(self, kwargs, match):
        # a G operator or a G name without a preconditioner is an error of
        # the options themselves, before any solve
        with pytest.raises(OpinsError, match=match):
            OpinsOptions(**kwargs)


class TestFrobeniusNorm:
    """Frobenius norm of dense and sparse storage: the purity denominator and
    the scale of the symmetry probe."""

    def test_zero_matrix(self):
        assert frobenius_norm(np.zeros((4, 4))) == 0.0
        assert frobenius_norm(sp.csr_matrix((4, 4))) == 0.0
        assert frobenius_norm(sp.csr_matrix(np.zeros((2, 2)))) == 0.0

    @pytest.mark.parametrize("transpose, scale", [
        (False, 1.0), (True, 1.0), (False, 2.0**600), (False, 2.0**-600),
        (True, 2.0**600), (True, 2.0**-600),
    ], ids=["False", "True", "False-2^600", "False-2^-600", "True-2^600", "True-2^-600"])
    def test_random_sparse_matches_dense(self, transpose, scale):
        # the transpose of a CSR matrix is stored as CSC; dnrm2 scales as it
        # sums, so 2^+-600 neither overflows nor underflows, and scales the
        # norm exactly
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((10, 10)) * (rng.random((10, 10)) < 0.3)
        mat = sp.csr_matrix(dense)
        if transpose:
            mat, dense = mat.T, dense.T
        assert frobenius_norm(mat) == pytest.approx(np.linalg.norm(dense), rel=1e-14)
        assert frobenius_norm(scale * mat) == scale * frobenius_norm(mat)
        assert frobenius_norm(scale * dense) == scale * frobenius_norm(dense)

    def test_no_stored_entries(self):
        # BLAS dnrm2 rejects an empty array, so no entries must give 0.0
        # without calling it
        assert frobenius_norm(np.zeros((0, 3))) == 0.0
        assert frobenius_norm(np.zeros((3, 0))) == 0.0
        assert frobenius_norm(sp.coo_matrix((3, 5))) == 0.0

    def test_non_canonical_matrix_is_left_unchanged(self):
        # tocsr() of a CSR matrix is the matrix itself: its duplicates are
        # summed on a copy
        mat = sp.csr_matrix(([3.0, 4.0, 1.0], [0, 0, 1], [0, 3, 3]), shape=(2, 2))
        indices, data = mat.indices.copy(), mat.data.copy()
        assert frobenius_norm(mat) == pytest.approx(np.hypot(7.0, 1.0), rel=1e-15)
        assert mat.nnz == 3
        np.testing.assert_array_equal(mat.indices, indices)
        np.testing.assert_array_equal(mat.data, data)

    def test_frobenius_norm_matches_numpy(self):
        rng = np.random.default_rng(2)
        dense = rng.standard_normal((6, 4))
        assert frobenius_norm(sp.csr_matrix(dense)) == pytest.approx(np.linalg.norm(dense))
        assert frobenius_norm(dense) == pytest.approx(np.linalg.norm(dense))

    def test_unsummed_duplicates_are_summed(self):
        # both entries sit at (0, 0), so the matrix is [[7, 0], [0, 0]]
        mat = sp.csr_matrix(([3.0, 4.0], [0, 0], [0, 2, 2]), shape=(2, 2))
        assert frobenius_norm(mat) == pytest.approx(7.0, rel=1e-15)
