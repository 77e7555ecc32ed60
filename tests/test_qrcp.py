"""Pivoted-QR factorization: examples and invariants."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import dtrcon

import opins.qrcp as qrcp_module
from opins.projection import Projector, particular_solution, recover_multipliers
from opins.qrcp import RangeBasisFactorization, apply_q_block, qrcp_factor

RANK_TOL = 1e-12


def svd_rank(mat, tol=RANK_TOL):
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > tol * s[0]))


def reconstruct(fact):
    """U R_11, for comparison with the leading rank pivoted columns of B^T."""
    return fact.u @ fact.r_block


def reference_range_basis(bt, rank):
    """The leading ``rank`` columns of Q from scipy's own pivoted QR of
    ``bt``: a reference for U computed without the package."""
    bt = bt.toarray() if sp.issparse(bt) else np.asarray(bt, dtype=float)
    q, _, _ = sla.qr(bt, mode="economic", pivoting=True)
    return q[:, :rank]


class TestFactorExamples:
    def test_rank_one_pair_of_columns(self):
        # columns (1,2) and (2,4): rank 1, pivot takes the longer column
        bt = np.array([[1.0, 2.0], [2.0, 4.0]])
        fact = qrcp_factor(bt, RANK_TOL)
        assert fact.rank == 1
        assert svd_rank(bt) == 1
        assert fact.permutation[0] == 1
        assert abs(fact.r_block[0, 0]) == pytest.approx(2.0 * np.sqrt(5.0), rel=1e-14)

    def test_identity_columns(self):
        bt = np.eye(3)[:, :2]
        fact = qrcp_factor(bt, RANK_TOL)
        assert fact.rank == 2
        r = fact.r_block
        assert abs(r[0, 0]) == pytest.approx(1.0)
        assert abs(r[1, 1]) == pytest.approx(1.0)

    def test_tall_full_rank_matches_svd(self):
        rng = np.random.default_rng(7)
        bt = rng.standard_normal((50, 5))
        fact = qrcp_factor(bt, RANK_TOL)
        assert fact.rank == svd_rank(bt) == 5

    def test_zero_matrix_rank_zero(self):
        fact = qrcp_factor(np.zeros((6, 3)), RANK_TOL)
        assert fact.rank == 0

    def test_no_columns_rank_zero(self):
        # B with no rows (m = 0): nothing to factor, an empty range basis
        fact = qrcp_factor(np.zeros((5, 0)), RANK_TOL)
        assert fact.rank == 0
        assert fact.u.shape == (5, 0)
        assert fact.r_block.shape == (0, 0)
        assert fact.permutation.shape == (0,)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            qrcp_factor(np.array([[np.nan, 1.0]]).T, RANK_TOL)
        with pytest.raises(ValueError):
            qrcp_factor(np.ones((3, 2)), 0.0)
        with pytest.raises(ValueError):
            qrcp_factor(np.ones(3), RANK_TOL)
        with pytest.raises(ValueError, match="real"):
            qrcp_factor(np.ones((3, 2)) * 1j, RANK_TOL)
        with pytest.raises(ValueError, match="real"):
            qrcp_factor(sp.csr_matrix(np.ones((2, 3)) * 1j).T, RANK_TOL)


class TestFactorInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_reconstruction_and_orthogonality(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 200))
        m = int(rng.integers(1, min(20, n)))
        b = rng.standard_normal((m, n))
        fact = qrcp_factor(b.T, RANK_TOL)
        assert fact.rank == m
        recon = reconstruct(fact)
        target = b.T[:, fact.permutation[:fact.rank]]
        assert np.linalg.norm(target - recon) <= 1e-12 * np.linalg.norm(b)
        u = fact.u
        assert np.abs(u.T @ u - np.eye(u.shape[1])).max() <= 1e-13

    @pytest.mark.parametrize("seed", range(6))
    def test_pivot_monotonicity(self, seed):
        rng = np.random.default_rng(100 + seed)
        bt = rng.standard_normal((40, 12)) * np.exp(rng.standard_normal(12) * 2)
        fact = qrcp_factor(bt, RANK_TOL)
        assert fact.rank == 12
        diag = np.abs(np.diagonal(fact.r_block))[:12]
        assert np.all(diag[:-1] >= diag[1:] - 1e-14 * diag[0])

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_rank_recovery_for_constructed_rank(self, k):
        rng = np.random.default_rng(k)
        left = rng.standard_normal((60, k))
        right = rng.standard_normal((k, 9))
        fact = qrcp_factor((right.T @ left.T).T, RANK_TOL)  # B = right^T left^T implies rank k
        assert fact.rank == k

    @pytest.mark.parametrize("seed", range(4))
    def test_projection_idempotency(self, seed):
        rng = np.random.default_rng(200 + seed)
        fact = qrcp_factor(rng.standard_normal((30, 6)), RANK_TOL)
        v = rng.standard_normal(30)
        once = apply_q_block(fact, apply_q_block(fact, v, transpose=True))
        twice = apply_q_block(fact, apply_q_block(fact, once, transpose=True))
        assert np.linalg.norm(twice - once) <= 1e-13 * np.linalg.norm(once)


class TestApplyQBlock:
    def test_axis_aligned_range(self):
        fact = qrcp_factor(np.array([[1.0, 0.0, 0.0]]).T, RANK_TOL)
        v = np.array([3.0, 4.0, 5.0])
        coords = apply_q_block(fact, v, transpose=True)
        assert abs(coords[0]) == pytest.approx(3.0)
        back = apply_q_block(fact, coords)
        np.testing.assert_allclose(back, [3.0, 0.0, 0.0], atol=1e-15)

    def test_zero_vector(self):
        rng = np.random.default_rng(0)
        fact = qrcp_factor(rng.standard_normal((10, 3)), RANK_TOL)
        np.testing.assert_array_equal(apply_q_block(fact, np.zeros(10), transpose=True),
                                      np.zeros(3))

    def test_matches_dense_reconstruction(self):
        rng = np.random.default_rng(5)
        bt = rng.standard_normal((8, 2))
        fact = qrcp_factor(bt, RANK_TOL)
        u = reference_range_basis(bt, fact.rank)
        v = rng.standard_normal(8)
        implicit = apply_q_block(fact, apply_q_block(fact, v, transpose=True))
        np.testing.assert_allclose(implicit, u @ (u.T @ v), atol=1e-13)

    def test_length_mismatch(self):
        fact = qrcp_factor(np.eye(4)[:, :2], RANK_TOL)
        with pytest.raises(ValueError):
            apply_q_block(fact, np.zeros(3), transpose=True)
        with pytest.raises(ValueError):
            apply_q_block(fact, np.zeros(3))


def averaging_b(seed, n=300, distinct=30, duplicates=6, width=4):
    """Sparse B whose rows each equate the means of two disjoint random index
    sets (zero row sums, so constants lie in null(B)); the last ``duplicates``
    rows repeat earlier ones."""
    rng = np.random.default_rng(seed)
    rows, cols, vals = [], [], []
    for r in range(distinct):
        idx = rng.choice(n, size=2 * width, replace=False)
        rows.append(np.full(2 * width, r))
        cols.append(idx)
        vals.append(np.repeat([1.0 / width, -1.0 / width], width))
    b = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(distinct, n))
    return sp.vstack([b, b[rng.integers(0, distinct, size=duplicates)]]).tocsr()


class TestLapackPathOnSparseDuplicatedRows:
    @pytest.fixture(params=range(3))
    def case(self, request):
        b = averaging_b(request.param)
        return b, qrcp_factor(b.toarray().T, RANK_TOL), np.random.default_rng(request.param)

    def test_sparse_input_factors_bit_identically(self, case):
        # same rank, and sparse input keeps B_q in place of U.  Its pivots
        # come from the streamed m-by-m R, so ties among the equal column
        # norms of this B break on rounding and the pivots, R_11 and the
        # coordinates U^T v may differ from the dense input's; the
        # projection U U^T v onto range(B^T) may not
        b, fact, rng = case
        from_sparse = qrcp_factor(b.T, RANK_TOL)
        assert from_sparse.rank == fact.rank
        assert from_sparse.u is None and from_sparse.b_q is not None
        v = rng.standard_normal(fact.nrows)
        want = fact.u @ (fact.u.T @ v)
        got = apply_q_block(from_sparse, apply_q_block(from_sparse, v, transpose=True))
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    def test_keeps_only_what_the_solve_reads(self, case):
        b, fact, _ = case
        from_sparse = qrcp_factor(b.T, RANK_TOL)
        assert [f.name for f in dataclasses.fields(fact)] == \
            ["nrows", "ncols", "permutation", "rank", "u", "r_block", "b_q", "b_q_t"]
        q = fact.rank
        assert fact.u.shape == (fact.nrows, q) and fact.b_q is None
        assert from_sparse.u is None and from_sparse.b_q.shape == (q, fact.nrows)
        for f in (fact, from_sparse):
            assert f.r_block.shape == (q, q)
            assert f.permutation.shape == (f.ncols,)
        for arr in (fact.u, fact.r_block, fact.permutation,
                    from_sparse.r_block, from_sparse.permutation):
            assert arr.base is None  # not a view into the n-by-m working copy
        for name in ("data", "indices", "indptr"):
            # B_q is a copy of the pivoted rows, not a view of the caller's B
            assert not np.shares_memory(getattr(from_sparse.b_q, name), getattr(b, name))

    def test_rank_drops_by_duplicates(self, case):
        b, fact, _ = case
        assert fact.rank == b.shape[0] - 6 == svd_rank(b.toarray())

    def test_basis_orthonormal(self, case):
        _, fact, _ = case
        u = fact.u
        assert u.shape == (fact.nrows, fact.rank)
        assert np.linalg.norm(u.T @ u - np.eye(fact.rank), 2) <= 1e-14

    def test_projection_annihilated_by_b(self, case):
        b, fact, rng = case
        v = rng.standard_normal(fact.nrows)
        pv = v - apply_q_block(fact, apply_q_block(fact, v, transpose=True))
        bound = 1e-14 * sla.norm(b.toarray(), "fro") * np.linalg.norm(v)
        assert np.linalg.norm(b @ pv) <= bound

    def test_projector_matches_svd(self, case):
        b, fact, _ = case
        projector = Projector(fact)
        built = np.column_stack([projector.complement(e) for e in np.eye(fact.nrows)])
        _, _, vt = np.linalg.svd(b.toarray())
        range_rows = vt[:fact.rank]
        reference = np.eye(fact.nrows) - range_rows.T @ range_rows
        assert np.abs(built - reference).max() <= 1e-13

    def test_apply_q_block_matches_dense_q(self, case):
        # the tied column norms of this B break on rounding, so the
        # reference is scipy's QR of the columns the factorization pivoted on
        b, fact, rng = case
        u, _ = sla.qr(b.T.toarray()[:, fact.permutation[:fact.rank]], mode="economic")
        v = rng.standard_normal(fact.nrows)
        c = rng.standard_normal(fact.rank)
        np.testing.assert_allclose(apply_q_block(fact, v, transpose=True), u.T @ v,
                                   rtol=0, atol=1e-14 * np.linalg.norm(v))
        np.testing.assert_allclose(apply_q_block(fact, c), u @ c,
                                   rtol=0, atol=1e-14 * np.linalg.norm(c))


def near_dependent_b(seed, delta, n=300):
    """Sparse averaging B (31 rows) whose last row is row 0 plus ``delta``
    times an averaging row outside the others' span, so kappa(R_11) grows
    like 1/delta."""
    base = averaging_b(seed, n=n, distinct=31, duplicates=0)
    return sp.vstack([base[:30], base[0] + delta * base[30]]).tocsr()


def purity(b, projector, v):
    """||B P v|| / (||B||_F ||v||)."""
    return np.linalg.norm(b @ projector.complement(v)) / (
        sla.norm(b.toarray(), "fro") * np.linalg.norm(v))


class TestSeminormalGate:
    """Sparse B^T keeps B_q and R_11 in place of a formed U only when that is
    cheaper and the trcon estimate of kappa(R_11) is at most
    SEMINORMAL_MAX_COND (1e4)."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("delta, implicit", [(1e-3, True), (1e-4, False), (1e-9, False)])
    def test_gate_follows_the_condition_estimate(self, seed, delta, implicit):
        # trcon estimates ~5e3, ~5e4 and ~5e9 for the three deltas
        fact = qrcp_factor(near_dependent_b(seed, delta).T, RANK_TOL)
        assert fact.rank == 31
        assert (fact.u is None) == (fact.b_q is not None) == implicit

    @pytest.mark.parametrize("seed", range(3))
    def test_ill_conditioned_r11_keeps_u_at_rounding_level(self, seed):
        b = near_dependent_b(seed, 1e-9)
        fact = qrcp_factor(b.T, RANK_TOL)
        assert 1e9 <= np.linalg.cond(fact.r_block) <= 1e10
        assert fact.b_q is None
        rng = np.random.default_rng(seed)
        for v in rng.standard_normal((5, fact.nrows)):
            assert purity(b, Projector(fact), v) <= 1e-14
        # projecting through B_q and this R_11 instead would miss the bound
        seminormal = Projector(RangeBasisFactorization(
            nrows=fact.nrows, ncols=fact.ncols, permutation=fact.permutation, rank=fact.rank,
            u=None, r_block=fact.r_block, b_q=b[fact.permutation[:fact.rank]]))
        assert purity(b, seminormal, v) > 1e-12

    def test_failed_gate_forms_u_from_the_pivoted_columns_alone(self):
        # the traced peak stays near the 8 n q bytes of U: no n-by-m copy of
        # B^T is made and nothing is factored twice
        b = near_dependent_b(0, 1e-6, n=30_000)
        tracemalloc.start()
        try:
            fact = qrcp_factor(b.T, RANK_TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, q = fact.nrows, fact.rank
        assert q == 31 and fact.u is not None and fact.b_q is None
        assert dtrcon(fact.r_block, norm="1", uplo="U")[0] < 1e-4  # kappa_1 > 1e4
        assert peak <= 1.25 * 8 * n * q
        for v in np.random.default_rng(0).standard_normal((3, n)):
            assert purity(b, Projector(fact), v) <= 1e-14

    @pytest.mark.parametrize("seed", range(3))
    def test_well_conditioned_sparse_b_matches_dense_input(self, seed):
        b = averaging_b(seed)
        sparse = Projector(qrcp_factor(b.T, RANK_TOL))
        dense = Projector(qrcp_factor(b.toarray().T, RANK_TOL))
        assert sparse.basis.u is None and dense.basis.u is not None
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(b.shape[1])
        g = b @ rng.standard_normal(b.shape[1])
        # y is not unique when rows of B repeat (the pivots may take either
        # copy), but B^T y, the projection of v onto range(B^T), is
        for got, want in ((sparse.complement(v), dense.complement(v)),
                          (particular_solution(sparse, g), particular_solution(dense, g)),
                          (b.T @ recover_multipliers(sparse, v),
                           b.T @ recover_multipliers(dense, v))):
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("seed", range(3))
    def test_duplicate_free_sparse_b_gives_the_same_multipliers(self, seed):
        # full row rank: y is unique, so it matches the dense input's itself
        b = averaging_b(seed, duplicates=0)
        sparse = Projector(qrcp_factor(b.T, RANK_TOL))
        dense = Projector(qrcp_factor(b.toarray().T, RANK_TOL))
        assert sparse.basis.u is None and sparse.basis.rank == b.shape[0]
        v = np.random.default_rng(seed).standard_normal(b.shape[1])
        want = recover_multipliers(dense, v)
        assert np.linalg.norm(recover_multipliers(sparse, v) - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("seed", range(3))
    def test_well_conditioned_sparse_b_solves_in_the_same_iterations(self, seed):
        from opins.driver import OpinsOptions, OpinsSetup, SaddleSystem, opins_solve

        b = averaging_b(seed)
        n = b.shape[1]
        a = sp.diags([-np.ones(n - 1), 2.5 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1],
                     format="csr")
        rng = np.random.default_rng(seed)
        f, g = rng.standard_normal(n), b @ rng.standard_normal(n)
        sparse = OpinsSetup.build(SaddleSystem(a, b, f, g, a_symmetric=True), RANK_TOL)
        assert sparse.fact.u is None
        dense = opins_solve(SaddleSystem(a, b.toarray(), f, g, a_symmetric=True),
                            OpinsOptions(rank_tol=RANK_TOL))
        report = opins_solve(sparse, OpinsOptions(rank_tol=RANK_TOL))
        assert report.converged and dense.converged
        assert report.inner.iterations == dense.inner.iterations
        assert np.linalg.norm(report.x - dense.x) <= 1e-12 * np.linalg.norm(dense.x)

    def test_dense_b_stored_sparse_keeps_u(self):
        # every row full: nnz(B_q) + q^2 >= n q, so the formed U is cheaper
        b = np.random.default_rng(3).standard_normal((20, 300))
        fact = qrcp_factor(sp.csr_matrix(b).T, RANK_TOL)
        assert fact.b_q is None
        dense = qrcp_factor(b.T, RANK_TOL)
        for name in ("u", "r_block", "permutation"):
            np.testing.assert_array_equal(getattr(fact, name), getattr(dense, name))


def identity_basis_projector(r):
    """A projector over a factorization whose range basis is the identity, so
    the multipliers are R_11^{-1} v and the particular solution R_11^{-T} g."""
    r = np.asarray(r, dtype=float)
    q = r.shape[0]
    return Projector(RangeBasisFactorization(nrows=q, ncols=q, permutation=np.arange(q),
                                             rank=q, u=np.eye(q), r_block=r))


class TestSolveR:
    """Solves with R_11 inside ``recover_multipliers`` (back substitution)
    and ``particular_solution`` (forward substitution with R_11^T)."""

    def test_scalar_back(self):
        p = identity_basis_projector([[2.0]])
        np.testing.assert_allclose(recover_multipliers(p, np.array([4.0])), [2.0])

    def test_hand_substitution(self):
        p = identity_basis_projector([[2.0, 1.0], [0.0, 3.0]])
        np.testing.assert_allclose(recover_multipliers(p, np.array([2.0, 3.0])),
                                   [0.5, 1.0])

    @pytest.mark.parametrize("mode", ["back", "forward-transpose"])
    def test_residual_random_triangular(self, mode):
        rng = np.random.default_rng(11)
        r = np.triu(rng.standard_normal((4, 4))) + 4 * np.eye(4)
        p = identity_basis_projector(r)
        rhs = rng.standard_normal(4)
        solve = particular_solution if mode == "forward-transpose" else recover_multipliers
        t = solve(p, rhs)
        mat = r.T if mode == "forward-transpose" else r
        assert np.linalg.norm(mat @ t - rhs) <= 1e-13

    def test_rank_zero_empty(self):
        p = Projector(qrcp_factor(np.zeros((5, 2)), RANK_TOL))
        np.testing.assert_array_equal(recover_multipliers(p, np.ones(5)), np.zeros(2))
        np.testing.assert_array_equal(particular_solution(p, np.ones(2)), np.zeros(5))


def scattered_b(seed, n, m, per_row, touched=None):
    """Sparse m-by-n B whose rows each hold ``per_row`` random entries among
    the first ``touched`` unknowns (all of them by default), scaled so that
    row i has norm 1 + i: no two column norms of B^T tie."""
    rng = np.random.default_rng(seed)
    touched = n if touched is None else touched
    cols = np.concatenate([rng.choice(touched, per_row, replace=False) for _ in range(m)])
    vals = rng.standard_normal((m, per_row))
    vals *= ((1.0 + np.arange(m)) / np.linalg.norm(vals, axis=1))[:, None]
    return sp.csr_matrix((vals.ravel(), (np.repeat(np.arange(m), per_row), cols)),
                         shape=(m, n))


def sign_fixed(r):
    """R_11 with a nonnegative diagonal: Householder QR fixes each row of R
    only up to its sign."""
    return np.where(np.diagonal(r) < 0, -1.0, 1.0)[:, None] * r


def assert_matches_dense_input(b, fact):
    """Same rank and leading pivots as the dense-input factorization, R_11
    within 1e-14, and the same projection onto range(B^T).  (Pivots past
    the rank pick among columns whose remaining norms are rounding noise.)"""
    dense = qrcp_factor(b.toarray().T, RANK_TOL)
    q = dense.rank
    assert fact.rank == q
    np.testing.assert_array_equal(fact.permutation[:q], dense.permutation[:q])
    assert np.linalg.norm(sign_fixed(fact.r_block) - sign_fixed(dense.r_block)) \
        <= 1e-14 * np.linalg.norm(dense.r_block)
    v = np.random.default_rng(0).standard_normal(fact.nrows)
    want = dense.u @ (dense.u.T @ v)
    got = apply_q_block(fact, apply_q_block(fact, v, transpose=True))
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


class TestStreamedFactor:
    """B^T, dense or sparse, is factored by folding row blocks (of sparse
    B^T, of its nonzero rows) into an m-by-m R (LAPACK tpqrt) and pivoting
    on that R."""

    @pytest.fixture
    def tpqrt_calls(self, monkeypatch):
        calls, tpqrt = [], qrcp_module.dtpqrt

        def counted(*args, **kwargs):
            calls.append(args[3].shape)
            return tpqrt(*args, **kwargs)

        monkeypatch.setattr(qrcp_module, "dtpqrt", counted)
        return calls

    @pytest.mark.parametrize("storage", ["dense", "dense-as-csr", "sparse"])
    def test_every_input_is_streamed(self, tpqrt_calls, storage):
        # one path: dense input, a dense B stored as CSR and a sparse B all
        # reach the pivots through tpqrt, on every row B^T has stored
        if storage == "sparse":
            b = scattered_b(7, n=3000, m=20, per_row=6)
        else:
            b = sp.csr_matrix(np.random.default_rng(7).standard_normal((20, 3000)))
        bt = b.toarray().T if storage == "dense" else b.T
        fact = qrcp_factor(bt, RANK_TOL)
        assert fact.rank == 20
        assert (fact.u is None) == (storage == "sparse")
        assert sum(shape[0] for shape in tpqrt_calls) == np.unique(b.indices).size
        assert len(tpqrt_calls) == -(-np.unique(b.indices).size // qrcp_module.STREAM_ROWS)

    @pytest.mark.parametrize("seed", range(3))
    def test_distinct_row_norms_match_dense_input(self, seed):
        b = scattered_b(seed, n=400, m=30, per_row=6)
        fact = qrcp_factor(b.T, RANK_TOL)
        assert fact.u is None and fact.rank == 30
        assert_matches_dense_input(b, fact)

    def test_more_than_three_blocks(self, tpqrt_calls):
        b = scattered_b(2, n=6000, m=60, per_row=90)
        touched = np.unique(b.indices).size
        fact = qrcp_factor(b.T, RANK_TOL)
        assert fact.u is None
        assert len(tpqrt_calls) == -(-touched // qrcp_module.STREAM_ROWS) > 3
        assert sum(shape[0] for shape in tpqrt_calls) == touched
        assert_matches_dense_input(b, fact)

    def test_untouched_unknowns(self, tpqrt_calls):
        # B reads only the first 150 of 600 unknowns; the rest are never
        # densified and the projector leaves them alone
        b = scattered_b(3, n=600, m=20, per_row=10, touched=150)
        fact = qrcp_factor(b.T, RANK_TOL)
        assert fact.u is None
        assert sum(shape[0] for shape in tpqrt_calls) == np.unique(b.indices).size <= 150
        assert_matches_dense_input(b, fact)
        e = np.zeros(600)
        e[400] = 1.0
        np.testing.assert_array_equal(Projector(fact).complement(e), e)

    def test_fewer_nonzero_rows_than_columns(self):
        # m = 40 rows of B over 12 unknowns: 12 nonzero rows of B^T, rank 12
        b = scattered_b(4, n=500, m=40, per_row=5, touched=12)
        fact = qrcp_factor(b.T, RANK_TOL)
        assert fact.rank == svd_rank(b.toarray()) == 12
        assert fact.u is None
        assert_matches_dense_input(b, fact)

    def test_all_zero_sparse_b(self):
        b = sp.csr_matrix((30, 500))
        fact = qrcp_factor(b.T, RANK_TOL)
        dense = qrcp_factor(b.toarray().T, RANK_TOL)
        assert fact.rank == dense.rank == 0
        assert fact.u.shape == dense.u.shape == (500, 0)
        assert fact.r_block.shape == (0, 0) and fact.b_q is None
        np.testing.assert_array_equal(fact.permutation, dense.permutation)
        v = np.arange(500.0)
        np.testing.assert_array_equal(Projector(fact).complement(v), v)

    def test_allocates_no_n_by_m_array(self):
        n, m = 91_125, 200  # n m 8 bytes = 146 MB
        b = scattered_b(5, n=n, m=m, per_row=54)
        tracemalloc.start()
        try:
            fact = qrcp_factor(b.T, RANK_TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fact.u is None and fact.rank == m
        assert peak <= 16e6


class TestValidatesBeforeCopying:
    """Bad arguments are rejected before B^T is copied: on a 1e5-by-200
    sparse B^T the traced peak stays far below the n m 8 bytes of a dense
    copy (160 MB)."""

    @staticmethod
    def peak_of_rejected_call(bt, rank_tol):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                qrcp_factor(bt, rank_tol)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture
    def bt(self):
        return scattered_b(6, n=100_000, m=200, per_row=20).T

    @pytest.mark.parametrize("rank_tol", [0.0, -1e-12])
    def test_nonpositive_rank_tol(self, bt, rank_tol):
        assert self.peak_of_rejected_call(bt, rank_tol) <= 16e6

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sparse_entry(self, bt, bad):
        bt = bt.copy()
        bt.data[17] = bad
        assert self.peak_of_rejected_call(bt, RANK_TOL) <= 16e6
