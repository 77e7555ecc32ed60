"""Frobenius norm of dense and sparse storage."""

import numpy as np
import pytest
import scipy.sparse as sp

from opins.linalg import frobenius_norm


def test_zero_matrix():
    assert frobenius_norm(np.zeros((4, 4))) == 0.0
    assert frobenius_norm(sp.csr_matrix((4, 4))) == 0.0
    assert frobenius_norm(sp.csr_matrix(np.zeros((2, 2)))) == 0.0


@pytest.mark.parametrize("transpose", [False, True])
def test_random_sparse_matches_dense(transpose):
    # the transpose of a CSR matrix is stored as CSC
    rng = np.random.default_rng(0)
    dense = rng.standard_normal((10, 10)) * (rng.random((10, 10)) < 0.3)
    mat = sp.csr_matrix(dense)
    if transpose:
        mat, dense = mat.T, dense.T
    assert frobenius_norm(mat) == pytest.approx(np.linalg.norm(dense), rel=1e-14)


def test_frobenius_norm_matches_numpy():
    rng = np.random.default_rng(2)
    dense = rng.standard_normal((6, 4))
    assert frobenius_norm(sp.csr_matrix(dense)) == pytest.approx(np.linalg.norm(dense))
    assert frobenius_norm(dense) == pytest.approx(np.linalg.norm(dense))


def test_unsummed_duplicates_are_summed():
    # both entries sit at (0, 0), so the matrix is [[7, 0], [0, 0]]
    mat = sp.csr_matrix(([3.0, 4.0], [0, 0], [0, 2, 2]), shape=(2, 2))
    assert frobenius_norm(mat) == pytest.approx(7.0, rel=1e-15)
