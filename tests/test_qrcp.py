"""Pivoted-QR factorization: examples and invariants."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

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
        b, fact, _ = case
        from_sparse = qrcp_factor(b.T, RANK_TOL)
        assert from_sparse.rank == fact.rank
        for name in ("u", "r_block", "permutation"):
            np.testing.assert_array_equal(getattr(from_sparse, name), getattr(fact, name))

    def test_keeps_only_what_the_solve_reads(self, case):
        _, fact, _ = case
        assert [f.name for f in dataclasses.fields(fact)] == \
            ["nrows", "ncols", "permutation", "rank", "u", "r_block"]
        q = fact.rank
        assert fact.u.shape == (fact.nrows, q)
        assert fact.r_block.shape == (q, q)
        assert fact.permutation.shape == (fact.ncols,)
        for arr in (fact.u, fact.r_block, fact.permutation):
            assert arr.base is None  # not a view into the n-by-m working copy

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
        b, fact, rng = case
        u = reference_range_basis(b.T, fact.rank)
        v = rng.standard_normal(fact.nrows)
        c = rng.standard_normal(fact.rank)
        np.testing.assert_allclose(apply_q_block(fact, v, transpose=True), u.T @ v,
                                   rtol=0, atol=1e-14 * np.linalg.norm(v))
        np.testing.assert_allclose(apply_q_block(fact, c), u @ c,
                                   rtol=0, atol=1e-14 * np.linalg.norm(c))


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
