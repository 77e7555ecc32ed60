"""G builders, ILU(0), and the projected preconditioner operator."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

import opins.preconditioners
from opins.driver import OpinsOptions, SaddleSystem, opins_solve
from opins.oracles import null_basis
from opins.preconditioners import (InvertibleOperator, ProjectedPreconditioner,
                                   build_g, ilu0_factor)
from opins.projection import Projector
from opins.qrcp import qrcp_factor
from test_acceptance import _reservoir_standin
from test_qrcp import averaging_b

RANK_TOL = 1e-12


def reference_ilu0(a):
    """Row-by-row IKJ ILU(0): the loop the level-scheduled factorization
    replaced, kept as the reference it must reproduce bit for bit."""
    a = a.tocsr().copy()
    a.sort_indices()
    n = a.shape[0]
    indptr, indices, data = a.indptr, a.indices, a.data
    diag_pos = np.empty(n, dtype=np.int64)
    for i in range(n):
        row = indices[indptr[i]:indptr[i + 1]]
        pos = int(np.searchsorted(row, i))
        if pos >= len(row) or row[pos] != i:
            raise ZeroDivisionError(f"ilu0: missing diagonal entry in row {i}")
        diag_pos[i] = indptr[i] + pos
    for i in range(n):
        for pk in range(indptr[i], diag_pos[i]):
            k = indices[pk]
            pivot = data[diag_pos[k]]
            if pivot == 0.0:
                raise ZeroDivisionError(f"ilu0: zero pivot in row {k}")
            lik = data[pk] / pivot
            data[pk] = lik
            row_k = indices[indptr[k]:indptr[k + 1]]
            tail = slice(pk + 1, indptr[i + 1])
            match = np.searchsorted(row_k, indices[tail]) + indptr[k]
            for offset, pj in enumerate(range(tail.start, tail.stop)):
                q = match[offset]
                if q < indptr[k + 1] and indices[q] == indices[pj]:
                    data[pj] -= lik * data[q]
    factored = sp.csr_matrix((data, indices, indptr), shape=a.shape)
    lower = sp.tril(factored, -1).tocsr() + sp.eye(n, format="csr")
    upper = sp.triu(factored, 0).tocsr()
    return lower, upper


def random_pattern(seed, n, density, lower=True):
    """Nonsymmetric sparse matrix with a full, dominant diagonal; without
    ``lower`` the first half of the rows have no strictly lower entries."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    if not lower:
        mask[:n // 2] &= np.triu(np.ones((n // 2, n), dtype=bool))
    np.fill_diagonal(mask, True)
    return sp.csr_matrix(rng.standard_normal((n, n)) * mask + n * np.eye(n))


def laplacian_plus_identity(side):
    """7-point Laplacian on a side**3 grid, plus the identity."""
    t = sp.diags([-np.ones(side - 1), 2 * np.ones(side), -np.ones(side - 1)], [-1, 0, 1])
    i = sp.identity(side)
    return (sp.kron(sp.kron(t, i), i) + sp.kron(sp.kron(i, t), i)
            + sp.kron(sp.kron(i, i), t) + sp.identity(side ** 3)).tocsr()


def scrambled_coo(seed, n):
    """A COO matrix whose entries are unsorted and partly duplicated."""
    coo = random_pattern(seed, n, 0.15).tocoo()
    rng = np.random.default_rng(seed)
    dup = rng.choice(coo.nnz, coo.nnz // 3, replace=False)
    row = np.concatenate((coo.row, coo.row[dup]))
    col = np.concatenate((coo.col, coo.col[dup]))
    val = np.concatenate((coo.data, rng.standard_normal(len(dup))))
    perm = rng.permutation(len(row))
    return sp.coo_matrix((val[perm], (row[perm], col[perm])), shape=coo.shape)


def raised(factor, a):
    """The ``ZeroDivisionError`` message ``factor(a)`` raises, or None."""
    try:
        factor(a)
    except ZeroDivisionError as err:
        return str(err)
    return None


def counted(g_op):
    """``g_op`` with its ``solve`` and ``solve_block`` calls counted, one
    each, in the returned list."""
    calls = []

    def count(solve):
        def counting(v):
            calls.append(1)
            return solve(v)
        return counting

    return dataclasses.replace(g_op, solve=count(g_op.solve),
                               solve_block=count(g_op.solve_block)), calls


def column_loop(g_op, v):
    """G^{-1} V by one ``solve`` per column, the loop a block solve replaces."""
    w = np.empty(v.shape, order="F")
    for i in range(v.shape[1]):
        w[:, i] = g_op.solve(v[:, i])
    return w


class TestBuildG:
    def test_identity(self):
        g = build_g(np.diag([3.0, 4.0]), "identity")
        v = np.array([1.5, -2.0])
        np.testing.assert_array_equal(g.solve(v), v)

    def test_jacobi_diagonal(self):
        g = build_g(np.diag([2.0, 4.0]), "jacobi")
        np.testing.assert_allclose(g.solve(np.array([2.0, 4.0])), [1.0, 1.0])

    def test_jacobi_zero_and_negative_diagonal(self):
        g = build_g(np.diag([0.0, -5.0]), "jacobi")
        # zeros become 1, negatives enter by magnitude so G stays SPD
        np.testing.assert_allclose(g.solve(np.array([3.0, 10.0])), [3.0, 2.0])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_g(np.eye(2), "ssor")


class TestIlu0:
    def test_full_pattern_equals_dense_lu(self):
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((10, 10)) + 10 * np.eye(10)
        g = build_g(sp.csr_matrix(dense), "ilu0")
        v = rng.standard_normal(10)
        oracle = np.linalg.solve(dense, v)
        np.testing.assert_allclose(g.solve(v), oracle, rtol=1e-12, atol=1e-12)

    def test_solve_inverts_lu_product(self):
        rng = np.random.default_rng(1)
        mask = rng.random((12, 12)) < 0.2
        np.fill_diagonal(mask, True)
        dense = (rng.standard_normal((12, 12)) * mask) + 12 * np.eye(12)
        mat = sp.csr_matrix(dense)
        g = build_g(mat, "ilu0")
        lower, upper = ilu0_factor(mat)
        v = rng.standard_normal(12)
        np.testing.assert_allclose(g.solve(lower @ (upper @ v)), v, rtol=1e-10, atol=1e-10)

    def test_factors_preserve_pattern(self):
        rng = np.random.default_rng(2)
        mask = rng.random((15, 15)) < 0.15
        np.fill_diagonal(mask, True)
        mat = sp.csr_matrix(rng.standard_normal((15, 15)) * mask + 15 * np.eye(15))
        lower, upper = ilu0_factor(mat)
        combined = (sp.tril(lower, -1) + upper).tocoo()
        coo = mat.tocoo()
        original = set(zip(coo.row.tolist(), coo.col.tolist()))
        produced = set(zip(combined.row.tolist(), combined.col.tolist()))
        assert produced <= original  # no fill outside the original pattern

    def test_integer_matrix_factored_in_float(self):
        ints = sp.csr_matrix(np.array([[4, 1, 0], [1, 4, 1], [0, 1, 4]]))
        for got, want in zip(ilu0_factor(ints), ilu0_factor(ints.astype(float))):
            assert got.dtype == np.float64
            assert np.array_equal(got.toarray(), want.toarray())

    def test_missing_diagonal_reports_row(self):
        mat = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 1.0]]))
        mat.eliminate_zeros()
        with pytest.raises(ZeroDivisionError, match="row 0"):
            ilu0_factor(mat)

    def test_zero_pivot_reports_row(self):
        dense = np.array([[1.0, 1.0, 0.0],
                          [1.0, 1.0, 1.0],
                          [0.0, 1.0, 1.0]])
        with pytest.raises(ZeroDivisionError, match="row 1"):
            ilu0_factor(sp.csr_matrix(dense))

    def test_unused_zero_pivot_reports_row(self):
        # no later row eliminates with row 1, so the elimination itself never
        # divides by U_11 = 0; the pivot check after it must still report it
        dense = np.array([[1.0, 1.0, 0.0],
                          [1.0, 1.0, 0.0],
                          [0.0, 0.0, 2.0]])
        with pytest.raises(ZeroDivisionError, match="zero pivot in row 1"):
            ilu0_factor(sp.csr_matrix(dense))

    @pytest.mark.parametrize("dense, what", [
        # l_10 = 1e600 overflows, and so does the pivot 1 - l_10 * 1
        ([[1e-300, 1, 0, 0], [1e300, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]], "pivot"),
        # no (0, 1) entry: l_10 overflows, the pivot stays 1
        ([[1e-300, 0, 0], [1e300, 1, 0], [0, 0, 1]], "entry"),
    ])
    def test_non_finite_factor_reports_row(self, dense, what):
        a = sp.csr_matrix(np.array(dense))
        assert np.isfinite(a.data).all()
        with pytest.raises(ZeroDivisionError,
                           match=f"^ilu0: non-finite {what} in row 1$"):
            ilu0_factor(a)

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3)])
    def test_non_square_rejected(self, shape):
        a = sp.csr_matrix(np.eye(*shape) + 1.0)
        with pytest.raises(ValueError, match=rf"ilu0: .*\({shape[0]}, {shape[1]}\)"):
            ilu0_factor(a)

    @pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
    def test_leaves_input_unmodified(self, fmt):
        a = random_pattern(6, 40, 0.15)
        # each row's entries in descending column order, which the
        # factorization must sort in its own copy only
        rows = np.repeat(np.arange(40), np.diff(a.indptr))
        desc = np.lexsort((-a.indices, rows))
        a = sp.csr_matrix((a.data[desc], a.indices[desc], a.indptr),
                          shape=a.shape).asformat(fmt)

        def stored(m):
            if m.format == "coo":
                return [m.data, m.row, m.col]
            return [m.data, m.indices, m.indptr]

        kept = [x.copy() for x in stored(a)]
        ilu0_factor(a)
        for got, want in zip(stored(a), kept):
            assert np.array_equal(got, want)


class TestIlu0MatchesRowByRowLoop:
    @pytest.mark.parametrize("make", [
        lambda: random_pattern(0, 30, 0.1),
        lambda: random_pattern(1, 60, 0.05),
        lambda: random_pattern(2, 45, 0.2),
        lambda: random_pattern(3, 40, 0.15, lower=False),
        lambda: random_pattern(4, 50, 0.08, lower=False),
        lambda: random_pattern(5, 12, 1.0),  # full pattern
        lambda: _reservoir_standin(0),
        # one row per level: every group is a single entry
        lambda: sp.diags([np.ones(199), 4 * np.ones(200), -np.ones(199)],
                         [-1, 0, 1], format="csr"),
        # no strictly lower entries, so no groups and no updates
        lambda: sp.diags(np.arange(1.0, 31.0), format="csr"),
        lambda: laplacian_plus_identity(6),
        lambda: _reservoir_standin(0).tocsc(),
        lambda: scrambled_coo(7, 35),
    ], ids=["random0", "random1", "random2", "upper-rows3", "upper-rows4",
            "full5", "reservoir-standin", "chain200", "diagonal30", "laplacian6",
            "standin-csc", "coo-duplicates"])
    def test_factors_bit_identical(self, make):
        a = make()
        for got, want in zip(ilu0_factor(a), reference_ilu0(a)):
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    def test_chunked_candidate_lists_bit_identical(self, monkeypatch, chunk):
        # the candidate updates of most matrices fit one chunk; smaller
        # chunks, some holding no candidate, must give the same factors
        monkeypatch.setattr(opins.preconditioners, "_CANDIDATE_CHUNK", chunk)
        for a in (random_pattern(2, 45, 0.2), random_pattern(3, 40, 0.15, lower=False),
                  laplacian_plus_identity(4), scrambled_coo(7, 35)):
            for got, want in zip(ilu0_factor(a), reference_ilu0(a)):
                assert np.array_equal(got.indices, want.indices)
                assert np.array_equal(got.data, want.data)

    @pytest.mark.parametrize("dense", [
        [[0.0, 1.0], [1.0, 1.0]],
        [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]],
        # U_11 = 0 unused, U_33 = 0 used by row 4: the loop names row 3
        [[1, 1, 0, 0, 0], [1, 1, 0, 0, 0], [0, 0, 1, 1, 0],
         [0, 0, 1, 1, 1], [0, 0, 0, 1, 1]],
        # both used by row 4, row 1 first
        [[1, 1, 0, 0, 0], [1, 1, 0, 0, 0], [0, 0, 1, 1, 0],
         [0, 0, 1, 1, 1], [0, 1, 0, 1, 1]],
    ])
    def test_bad_pivots_name_the_same_row(self, dense):
        a = sp.csr_matrix(np.array(dense, dtype=float))
        a.eliminate_zeros()
        want = raised(reference_ilu0, a)
        assert want is not None
        assert raised(ilu0_factor, a) == want

    @pytest.mark.parametrize("seed", range(40))
    def test_zero_one_matrices_agree(self, seed):
        # small 0/1 matrices hit zero pivots, used and unused, and zero
        # multipliers (which the loop drops from L and which are kept here)
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 9))
        dense = (rng.random((n, n)) < 0.5).astype(float)
        np.fill_diagonal(dense, 1.0)
        a = sp.csr_matrix(dense)
        want = raised(reference_ilu0, a)
        if want is not None:
            assert raised(ilu0_factor, a) == want
            return
        lower_ref, upper_ref = reference_ilu0(a)
        got = raised(ilu0_factor, a)
        if got is not None:
            zero_rows = np.flatnonzero(upper_ref.diagonal() == 0.0)
            assert got == f"ilu0: zero pivot in row {zero_rows[0]}"
            return
        lower, upper = ilu0_factor(a)
        assert np.array_equal(lower.toarray(), lower_ref.toarray())
        assert np.array_equal(upper.toarray(), upper_ref.toarray())


def test_ilu0_candidate_memory_is_bounded():
    """The symbolic phase lists its candidate updates a chunk at a time, so
    on the 45**3 Laplacian + I (91 125 rows) the traced peak of the whole
    factorization stays within 35 MB (49.2 MB when every candidate was
    listed at once)."""
    a = laplacian_plus_identity(45)
    tracemalloc.start()
    try:
        ilu0_factor(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 35e6, f"peak {peak / 1e6:.1f} MB"


class TestIlu0Solve:
    @pytest.fixture(scope="class")
    def standin(self):
        a = _reservoir_standin(0)
        return a, build_g(a, "ilu0"), ilu0_factor(a)

    def test_matches_triangular_solves(self, standin):
        a, g, (lower, upper) = standin
        v = np.random.default_rng(7).standard_normal(a.shape[0])
        want = spsolve_triangular(upper, spsolve_triangular(lower, v, lower=True,
                                                            unit_diagonal=True),
                                  lower=False)
        got = g.solve(v)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    def test_leaves_input_unmodified(self, standin):
        a, g, _ = standin
        v = np.random.default_rng(8).standard_normal(a.shape[0])
        kept = v.copy()
        g.solve(v)
        assert np.array_equal(v, kept)

    def test_integer_and_strided_input(self, standin):
        a, g, _ = standin
        n = a.shape[0]
        ints = np.arange(n) % 7 - 3
        np.testing.assert_array_equal(g.solve(ints), g.solve(ints.astype(float)))
        wide = np.random.default_rng(9).standard_normal(2 * n)
        np.testing.assert_array_equal(g.solve(wide[::2]), g.solve(wide[::2].copy()))


class TestProjectedPreconditioner:
    @pytest.mark.parametrize("seed", range(3))
    def test_identity_g_is_projector(self, seed):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((4, 18))
        fact = qrcp_factor(b.T, RANK_TOL)
        pg = ProjectedPreconditioner(build_g(np.eye(18), "identity"), fact)
        v = rng.standard_normal(18)
        np.testing.assert_allclose(pg.apply(v), Projector(fact).complement(v),
                                   atol=1e-13)

    def test_range_vector_maps_to_zero(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal((3, 14))
        fact = qrcp_factor(b.T, RANK_TOL)
        w = rng.standard_normal(14)
        in_range = w - Projector(fact).complement(w)
        pg = ProjectedPreconditioner(build_g(np.eye(14), "identity"), fact)
        assert np.linalg.norm(pg.apply(in_range)) <= 1e-13 * np.linalg.norm(in_range)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_oracle_for_diagonal_g(self, seed):
        rng = np.random.default_rng(10 + seed)
        n, m = 22, 5
        b = rng.standard_normal((m, n))
        d = rng.random(n) + 0.5
        fact = qrcp_factor(b.T, RANK_TOL)
        z = null_basis(b, fact.rank)
        oracle_mat = z @ np.linalg.solve(z.T @ np.diag(d) @ z, z.T)
        g_op = InvertibleOperator(dim=n, solve=lambda v: v / d)
        v = rng.standard_normal(n)
        np.testing.assert_allclose(ProjectedPreconditioner(g_op, fact).apply(v),
                                   oracle_mat @ v, atol=1e-10)

    def test_singular_schur_block_rejected(self):
        # G swaps coordinates 0 and 2, so U^T G^{-1} U is singular for
        # B spanning coordinates 0 and 1
        b = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        fact = qrcp_factor(b.T, RANK_TOL)
        perm = np.array([2, 1, 0])
        g_op = InvertibleOperator(dim=3, solve=lambda v: np.asarray(v)[perm])
        with pytest.raises(ValueError, match="singular"):
            ProjectedPreconditioner(g_op, fact)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_dense_oracle_for_ilu0_g(self, seed):
        rng = np.random.default_rng(30 + seed)
        n, m = 40, 7
        a = random_pattern(30 + seed, n, 0.15)
        b = rng.standard_normal((m, n)) / np.sqrt(n)
        fact = qrcp_factor(b.T, RANK_TOL)
        lower, upper = ilu0_factor(a)
        g_dense = (lower @ upper).toarray()
        z = null_basis(b, fact.rank)
        v = rng.standard_normal(n)
        want = z @ np.linalg.solve(z.T @ g_dense @ z, z.T @ v)
        got = ProjectedPreconditioner(build_g(a, "ilu0"), fact).apply(v)
        assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))
        assert np.linalg.norm(b @ got) <= 1e-14 * np.linalg.norm(b) * np.linalg.norm(got)

    @pytest.mark.parametrize("formed_u, per_apply", [(True, 1), (False, 2)])
    def test_g_solves_per_application(self, formed_u, per_apply):
        # with a formed U, W = G^{-1} U is filled by one block solve once and
        # each application needs one solve; with B_q and R_11 W is not kept,
        # the Schur block takes q solves and each application solves twice
        b = np.random.default_rng(4).standard_normal((5, 24)) if formed_u else averaging_b(0)
        n = b.shape[1]
        fact = qrcp_factor(b.T, RANK_TOL)
        assert (fact.u is not None) == formed_u
        rng = np.random.default_rng(5)
        g_op, calls = counted(build_g(np.diag(rng.random(n) + 0.5), "jacobi"))
        pg = ProjectedPreconditioner(g_op, fact)
        built = 1 if formed_u else fact.rank
        assert len(calls) == built
        for k in range(1, 4):
            pg.apply(rng.standard_normal(n))
            assert len(calls) == built + per_apply * k


class TestBlockSolve:
    """W = G^{-1} U by one block solve has the bits of the column loop."""

    @pytest.fixture(scope="class")
    def standin(self):
        a = _reservoir_standin(0)
        n = a.shape[0]
        b = np.random.default_rng(42).standard_normal((20, n)) / np.sqrt(n)
        fact = qrcp_factor(b.T, RANK_TOL)
        assert fact.u is not None and fact.rank == 20
        return a, fact

    @pytest.mark.parametrize("kind", ["identity", "jacobi", "ilu0", "user"])
    def test_block_matches_column_loop(self, standin, kind):
        a, fact = standin
        n = a.shape[0]
        if kind == "user":
            # no block solve: solve itself would fail on the n-by-20 U
            d = np.random.default_rng(7).random(n) + 0.5
            g_op = InvertibleOperator(dim=n, solve=lambda v: v / d)
        else:
            g_op = build_g(a, kind)
            assert g_op.solve_block is not None
        w = g_op.solve_columns(fact.u)
        assert w.flags.f_contiguous
        assert np.array_equal(w, column_loop(g_op, fact.u))
        # so the preconditioner built on it applies with the same bits too
        looped = dataclasses.replace(g_op, solve_block=None)
        v = np.random.default_rng(6).standard_normal(n)
        assert np.array_equal(ProjectedPreconditioner(g_op, fact).apply(v),
                              ProjectedPreconditioner(looped, fact).apply(v))

    def test_user_g_is_not_broadcast_when_q_equals_n(self):
        # solve(U) itself would divide U's rows by d, not its columns
        n = 6
        rng = np.random.default_rng(8)
        fact = qrcp_factor(rng.standard_normal((n, n)).T, RANK_TOL)
        assert fact.rank == n
        d = rng.random(n) + 0.5
        g_op = InvertibleOperator(dim=n, solve=lambda v: v / d)
        assert np.array_equal(g_op.solve_columns(fact.u), fact.u / d[:, None])


def test_schur_check_is_scale_invariant():
    """Scaling (A, f) scales G and so U^T G^{-1} U; the singularity test on
    that block must not depend on the scale.  The stand-in with a dense B
    under projected ILU(0) keeps its status and step count."""
    a = _reservoir_standin(seed=0)
    rng = np.random.default_rng(42)
    n, m = a.shape[0], 20
    b = rng.standard_normal((m, n)) / np.sqrt(n)
    x0 = rng.standard_normal(n)
    f = a @ x0 + b.T @ rng.standard_normal(m)
    opts = OpinsOptions(precond="projected", g_kind="ilu0", restart=50, maxit=500)

    def solve(sigma):
        return opins_solve(SaddleSystem(a=sigma * a, b=b, f=sigma * f, g=b @ x0,
                                        a_symmetric=False), opts)

    base = solve(1.0)
    assert base.inner.status == "converged"
    for sigma in (1e17, 1e-17, 1e100):
        report = solve(sigma)
        assert report.inner.status == "converged", f"sigma {sigma}"
        assert report.inner.iterations == base.inner.iterations, f"sigma {sigma}"
