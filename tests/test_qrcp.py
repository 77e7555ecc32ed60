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


def panel_width(m):
    """Columns per panel of the sparse fold (the tpqrt T-factor width)."""
    return max(1, min(qrcp_module._NB, m // 4))


def row_values(mat):
    """Each row's nonzero values, sorted, as a sorted list: the rows of a
    matrix as a multiset, whatever their column order or zero padding."""
    return sorted(tuple(np.sort(row[row != 0])) for row in np.asarray(mat))


def assert_folds_each_row_once(b, calls):
    """The fold's tpqrt calls: each folds 1 to STREAM_ROWS rows at the width
    m - j of its panel, whose start j is a multiple of the panel width;
    every row leads in the panel's first columns, panels run left to right
    and only a panel's last block is short, and together the calls fold
    every distinct nonzero row of B^T exactly once, a row stored k times
    scaled by sqrt(k).  (Dense input folds every row as it is, so for it
    this holds only without repeated rows.)"""
    m = b.shape[0]
    nb = panel_width(m)
    widths = [block.shape[1] for _, block in calls]
    assert widths == sorted(widths, reverse=True)
    for k, (t, block) in enumerate(calls):
        rows, width = block.shape
        assert 0 < rows <= qrcp_module.STREAM_ROWS
        assert 0 < width <= m and (m - width) % nb == 0
        assert t == min(nb, width)
        assert np.all(np.any(block[:, :t] != 0, axis=1))
        if k + 1 < len(calls) and widths[k + 1] == width:
            assert rows == qrcp_module.STREAM_ROWS
    distinct, copies = np.unique(b.T.toarray()[np.unique(b.indices)], axis=0, return_counts=True)
    assert row_values(folded_rows(m, calls)) == row_values(distinct * np.sqrt(copies)[:, None])


def folded_rows(m, calls):
    """The rows the tpqrt calls folded, each padded on the left to width m."""
    return np.vstack([np.pad(block, ((0, 0), (m - block.shape[1], 0))) for _, block in calls])


@pytest.fixture
def tpqrt_calls(monkeypatch):
    """(T-factor width, a copy of the block) of every tpqrt call."""
    calls, tpqrt = [], qrcp_module.dtpqrt

    def counted(*args, **kwargs):
        calls.append((args[1], np.array(args[3])))
        return tpqrt(*args, **kwargs)

    monkeypatch.setattr(qrcp_module, "dtpqrt", counted)
    return calls


class TestStreamedFactor:
    """B^T, dense or sparse, is factored by folding row blocks into an m-by-m
    R (LAPACK tpqrt) and pivoting on that R.  Dense B^T is folded in row
    order at the full width m; sparse B^T's distinct nonzero rows are folded
    by leading column, panel by panel, into the trailing triangle only."""

    @pytest.mark.parametrize("storage", ["dense", "dense-as-csr", "sparse"])
    def test_every_input_is_streamed(self, tpqrt_calls, storage):
        # one path: dense input, a dense B stored as CSR and a sparse B all
        # reach the pivots through tpqrt, on every row B^T has stored.  A
        # dense B stored as CSR weighs its rows equally and every row of B^T
        # leads in column 0, so it makes dense input's calls: the rows in
        # order, STREAM_ROWS at a time, at the full width
        if storage == "sparse":
            b = scattered_b(7, n=3000, m=20, per_row=6)
        else:
            b = sp.csr_matrix(np.random.default_rng(7).standard_normal((20, 3000)))
        bt = b.toarray().T if storage == "dense" else b.T
        fact = qrcp_factor(bt, RANK_TOL)
        assert fact.rank == 20
        assert (fact.u is None) == (storage == "sparse")
        assert_folds_each_row_once(b, tpqrt_calls)
        if storage == "sparse":
            assert len({block.shape[1] for _, block in tpqrt_calls}) > 1
            assert_matches_dense_input(b, fact)
        else:
            assert [(t, block.shape) for t, block in tpqrt_calls] == \
                [(5, (1024, 20)), (5, (1024, 20)), (5, (952, 20))]
            np.testing.assert_array_equal(np.vstack([block for _, block in tpqrt_calls]),
                                          b.toarray().T)

    @pytest.mark.parametrize("seed", range(3))
    def test_distinct_row_norms_match_dense_input(self, seed):
        b = scattered_b(seed, n=400, m=30, per_row=6)
        fact = qrcp_factor(b.T, RANK_TOL)
        assert fact.u is None and fact.rank == 30
        assert_matches_dense_input(b, fact)

    def test_more_than_three_blocks(self, tpqrt_calls):
        # more nonzero rows of B^T than one block holds, so the first panel
        # takes two blocks, and more than three blocks in all
        b = scattered_b(2, n=6000, m=60, per_row=90)
        fact = qrcp_factor(b.T, RANK_TOL)
        assert fact.u is None
        assert len(tpqrt_calls) > 3
        assert [block.shape[1] for _, block in tpqrt_calls][:2] == [60, 60]
        assert_folds_each_row_once(b, tpqrt_calls)
        assert_matches_dense_input(b, fact)

    def test_row_touching_every_unknown(self, tpqrt_calls):
        # B's first row touches all 400 unknowns, so in B's own order every
        # row of B^T would lead in column 0 and fold at the full width.  That
        # row weighs the most, so the pre-order puts it last: the k >= 400 -
        # 150 rows of B^T it alone touches are all (0, ..., 0, 0.5), and they
        # fold once, as 0.5 sqrt(k) in the last column; the others lead
        # where the scattered rows put them
        m = 30
        b = sp.vstack([sp.csr_matrix(np.full((1, 400), 0.5)),
                       scattered_b(8, n=400, m=m - 1, per_row=5, touched=150)]).tocsr()
        fact = qrcp_factor(b.T, RANK_TOL)
        assert fact.rank == m and fact.u is None
        assert_folds_each_row_once(b, tpqrt_calls)
        k = 400 - np.unique(b.indices[b.indptr[1]:]).size
        assert k >= 400 - 150
        last = m - (m - 1) // panel_width(m) * panel_width(m)
        alone = np.append(np.zeros(last - 1), 0.5 * np.sqrt(k))
        assert sum(np.array_equal(row, alone) for _, block in tpqrt_calls
                   if block.shape[1] == last for row in block) == 1
        assert_matches_dense_input(b, fact)

    def test_pre_order_reverses_the_rows_of_b(self, tpqrt_calls):
        # row c of B touches the first (m - c) k unknowns, so the weights
        # fall strictly with c and the pre-order reverses B's rows: a row
        # of B^T that rows 0 to c_max touch leads in column m - 1 - c_max
        # and folds in that column's panel, at width m minus its start
        m, k = 24, 7
        c_max = m - 1 - np.arange(m * k) // k
        rng = np.random.default_rng(9)
        dense = np.where(np.arange(m)[:, None] <= c_max, rng.standard_normal((m, m * k)), 0.0)
        b = sp.csr_matrix(dense * ((1.0 + np.arange(m)) / np.linalg.norm(dense, axis=1))[:, None])
        fact = qrcp_factor(b.T, RANK_TOL)
        assert fact.rank == m and fact.u is None
        assert_folds_each_row_once(b, tpqrt_calls)
        nb = panel_width(m)
        want = sorted(m - (m - 1 - c_max) // nb * nb)
        assert sorted(block.shape[1] for _, block in tpqrt_calls
                      for _ in range(block.shape[0])) == want
        assert_matches_dense_input(b, fact)

    def test_untouched_unknowns(self, tpqrt_calls):
        # B reads only the first 150 of 600 unknowns; the rest are never
        # densified and the projector leaves them alone
        b = scattered_b(3, n=600, m=20, per_row=10, touched=150)
        fact = qrcp_factor(b.T, RANK_TOL)
        assert fact.u is None
        assert np.unique(b.indices).size <= 150
        assert_folds_each_row_once(b, tpqrt_calls)
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

    def test_unsummed_duplicate_entries(self):
        # every entry of B stored twice at half its value: the fold sums them
        # before it writes each into its block
        b = scattered_b(11, n=300, m=20, per_row=6)
        twice = sp.csr_matrix((np.repeat(b.data / 2, 2), np.repeat(b.indices, 2), 2 * b.indptr),
                              shape=b.shape)
        assert not twice.has_canonical_format
        fact = qrcp_factor(twice.T, RANK_TOL)
        assert fact.u is None
        assert_matches_dense_input(b, fact)
        # the caller's B is left as it was
        assert twice.nnz == 2 * b.nnz

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

    def test_fold_holds_one_block(self):
        # at n = 1e5 the traced peak stays within one STREAM_ROWS-by-m block,
        # three m-by-m arrays (R, its trailing triangle, the un-permuted
        # copy), the CSR of B^T's row pointer and row lengths (up to 8 bytes
        # per row each) and 64 bytes per entry of B; holding every block
        # at once would take 8 nnz(B^T rows) m bytes, about 16 MB here
        n, m = 100_000, 200
        b = scattered_b(10, n=n, m=m, per_row=54)
        tracemalloc.start()
        try:
            fact = qrcp_factor(b.T, RANK_TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fact.u is None and fact.rank == m
        assert np.unique(b.indices).size * m * 8 > 15e6
        assert peak <= 8 * qrcp_module.STREAM_ROWS * m + 3 * 8 * m * m + 16 * (n + 1) \
            + 64 * b.nnz


def repeated_rows_b(seed, m=40, distinct=25, per_row=4):
    """Sparse B whose B^T has ``distinct`` random rows, ``per_row`` entries
    each, every one stored 2 to 50 times, in shuffled order; returns B and
    the copies of each distinct row."""
    rng = np.random.default_rng(seed)
    cols = np.array([np.sort(rng.choice(m, per_row, replace=False)) for _ in range(distinct)])
    vals = rng.standard_normal((distinct, per_row))
    copies = rng.integers(2, 51, size=distinct)
    which = rng.permutation(np.repeat(np.arange(distinct), copies))
    bt = sp.csr_matrix((vals[which].ravel(), cols[which].ravel(),
                        per_row * np.arange(which.size + 1)), shape=(which.size, m))
    return bt.T.tocsr(), copies


def block_averaging_b(n, m, width):
    """Sparse m-by-n B whose row i averages the ``width`` unknowns from
    i n / m on, wrapping around: with width between n / m and 2 n / m,
    every unknown of a stretch shared by the same one or two rows has the
    same row of B^T, so B^T holds 2 m distinct rows."""
    cols = (np.arange(m)[:, None] * (n // m) + np.arange(width)) % n
    return sp.csr_matrix((np.full(m * width, 1.0 / width), cols.ravel(),
                          width * np.arange(m + 1)), shape=(m, n))


def assert_gram(b):
    """The sparse fold's R has R^T R = B B^T to rounding."""
    r = qrcp_module._triangle(b.T, panel_width(b.shape[0]))
    gram = (b @ b.T).toarray()
    assert np.linalg.norm(r.T @ r - gram) <= 1e-14 * np.linalg.norm(gram)


class TestRepeatedRows:
    """A row that sparse B^T stores k times is folded once, scaled by
    sqrt(k): k r^T r = (sqrt(k) r)^T (sqrt(k) r), so R^T R = B B^T still
    holds.  Rows merge only when they are equal in every column and value."""

    # a row of B^T (m = 12), one that differs from it in one value by one
    # ulp, one that differs in one column, and an unrelated row
    M = 12
    ROW = np.zeros(M)
    ROW[[1, 4, 7]] = [0.5, -1.25, 2.0]
    ONE_VALUE = ROW.copy()
    ONE_VALUE[4] = np.nextafter(ROW[4], 0.0)
    ONE_COLUMN = np.zeros(M)
    ONE_COLUMN[[1, 5, 7]] = [0.5, -1.25, 2.0]
    OTHER = np.zeros(M)
    OTHER[[0, 2, 9]] = [1.5, -0.75, 3.0]

    @pytest.mark.parametrize("seed", range(3))
    def test_each_distinct_row_folds_once_at_sqrt_k(self, tpqrt_calls, seed):
        b, copies = repeated_rows_b(seed)
        fact = qrcp_factor(b.T, RANK_TOL)
        assert fact.u is None and fact.rank == svd_rank(b.toarray()) == copies.size
        assert sum(block.shape[0] for _, block in tpqrt_calls) == copies.size
        assert_folds_each_row_once(b, tpqrt_calls)
        assert_matches_dense_input(b, fact)
        assert_gram(b)

    def test_rows_that_differ_in_one_value_or_column_stay_apart(self, tpqrt_calls):
        bt = np.array([self.ROW, self.ONE_VALUE, self.ROW, self.ONE_COLUMN, self.ROW,
                       self.ONE_VALUE])
        b = sp.csr_matrix(bt.T)
        qrcp_factor(b.T, RANK_TOL)
        # the row at sqrt(3), the one-ulp change at sqrt(2), the moved column once
        assert sum(block.shape[0] for _, block in tpqrt_calls) == 3
        assert_folds_each_row_once(b, tpqrt_calls)
        assert_gram(b)

    def test_equal_keys_merge_only_equal_rows(self, tpqrt_calls, monkeypatch):
        # every row gets the same keys, so every row is a candidate; only
        # the copies of the run's earliest row are equal to it and merge,
        # and the other rows fold as they are, the two copies of OTHER too
        monkeypatch.setattr(qrcp_module, "_row_keys", lambda rows: np.zeros((rows.shape[0], 2)))
        bt = np.array([self.ROW, self.ONE_VALUE, self.OTHER, self.ROW, self.ONE_COLUMN,
                       self.OTHER, self.ROW])
        b = sp.csr_matrix(bt.T)
        fact = qrcp_factor(b.T, RANK_TOL)
        want = [np.sqrt(3) * self.ROW, self.ONE_VALUE, self.OTHER, self.ONE_COLUMN, self.OTHER]
        assert row_values(folded_rows(self.M, tpqrt_calls)) == row_values(want)
        assert fact.rank == qrcp_factor(bt, RANK_TOL).rank
        assert_gram(b)

    def test_fold_of_repeated_rows_holds_one_block(self, monkeypatch):
        # n = 1e5 unknowns share 2 m = 400 distinct rows of B^T: they fold
        # as 400 rows, and the merge stays within test_fold_holds_one_block's
        # bound on the traced peak
        n, m = 100_000, 200
        b = block_averaging_b(n, m, width=750)
        folded, tpqrt = [], qrcp_module.dtpqrt

        def counted(*args, **kwargs):
            folded.append(args[3].shape[0])
            return tpqrt(*args, **kwargs)

        monkeypatch.setattr(qrcp_module, "dtpqrt", counted)
        tracemalloc.start()
        try:
            fact = qrcp_factor(b.T, RANK_TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fact.u is None and fact.rank == m
        assert sum(folded) == 2 * m
        assert peak <= 8 * qrcp_module.STREAM_ROWS * m + 3 * 8 * m * m + 16 * (n + 1) \
            + 64 * b.nnz


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
