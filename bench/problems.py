"""Seeded inputs for the benchmark workloads.

Every generator takes an integer problem seed and returns plain arrays; the
library under test never sees a seed.  The reservoir stand-in is a verbatim
copy of the acceptance suite's generator, so the benchmark keeps measuring the
same matrix even if the test file changes (bench/test_bench.py holds the two
equal).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

# problem seed s draws B and the right-hand side from default_rng(RHS_SEED + s);
# s = 0 is then the acceptance suite's 3312-dof case (B from default_rng(42))
RHS_SEED = 42


def reservoir_standin(seed, nx=16, ny=23, nz=3, ndof=3):
    """Seeded nonsymmetric block 7-point stencil with strong coefficient
    contrast and upwind skew; 16*23*3 cells x 3 unknowns = 3312, matching the
    published problem's size and flavor."""
    rng = np.random.default_rng(seed)
    ncell = nx * ny * nz
    contrast = np.exp(2.0 * rng.standard_normal(ncell))

    def cell(i, j, k):
        return (k * ny + j) * nx + i

    rows, cols, vals = [], [], []
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                c = cell(i, j, k)
                neighbors = []
                for di, dj, dk in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                   (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                    ii, jj, kk = i + di, j + dj, k + dk
                    if 0 <= ii < nx and 0 <= jj < ny and 0 <= kk < nz:
                        c2 = cell(ii, jj, kk)
                        trans = 2.0 / (1.0 / contrast[c] + 1.0 / contrast[c2])
                        skew = 0.6 * trans * (1.0 if (di + dj + dk) > 0 else -1.0)
                        coef = -(trans + skew) * (0.8 + 0.4 * rng.random(ndof))
                        neighbors.append((c2, coef))
                total = -sum(coef for _, coef in neighbors)
                block = rng.standard_normal((ndof, ndof)) * 0.15 * np.abs(total).mean()
                block[np.diag_indices(ndof)] = total * (1.0 + 0.05 * rng.random(ndof)) + 1e-3
                for r in range(ndof):
                    for c2 in range(ndof):
                        rows.append(c * ndof + r)
                        cols.append(c * ndof + c2)
                        vals.append(block[r, c2])
                for c2, coef in neighbors:
                    for r in range(ndof):
                        rows.append(c * ndof + r)
                        cols.append(c2 * ndof + r)
                        vals.append(coef[r])
    n = ncell * ndof
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def nonsym_blocks(a, seed, m=20):
    """Dense B and a compatible right-hand side for the stand-in A, drawn
    exactly as the acceptance suite draws them."""
    rng = np.random.default_rng(RHS_SEED + seed)
    n = a.shape[0]
    b = rng.standard_normal((m, n)) / np.sqrt(n)
    x0 = rng.standard_normal(n)
    f = a @ x0 + b.T @ rng.standard_normal(m)
    g = b @ x0
    return b, f, g


def neumann_laplacian(side):
    """7-point Laplacian on a side^3 grid with Neumann ends: semidefinite,
    kernel = the constant vectors."""
    one_d = sp.diags([-np.ones(side - 1), np.full(side, 2.0), -np.ones(side - 1)],
                     [-1, 0, 1], format="csr").tolil()
    one_d[0, 0] = one_d[-1, -1] = 1.0
    one_d = one_d.tocsr()
    eye = sp.identity(side, format="csr")
    lap = (sp.kron(sp.kron(one_d, eye), eye) + sp.kron(sp.kron(eye, one_d), eye)
           + sp.kron(sp.kron(eye, eye), one_d))
    return lap.tocsr()


def averaging_constraints(side, seed, m=200, duplicates=20, box=3):
    """Sparse B whose rows each equate the means of two random box^3 blocks
    (so every row sums to zero and the constants lie in null(B)); the last
    ``duplicates`` rows repeat earlier ones, so rank B = m - duplicates."""
    rng = np.random.default_rng(seed)
    offsets = np.arange(box)
    local = ((offsets[:, None, None] * side + offsets[None, :, None]) * side
             + offsets[None, None, :]).ravel()
    distinct = m - duplicates
    corners = rng.integers(0, side - box + 1, size=(distinct, 2, 3))
    starts = (corners[..., 0] * side + corners[..., 1]) * side + corners[..., 2]
    weight = 1.0 / local.size
    rows, cols, vals = [], [], []
    for r in range(distinct):
        plus = starts[r, 0] + local
        minus = starts[r, 1] + local
        rows.append(np.full(2 * local.size, r))
        cols.append(np.concatenate([plus, minus]))
        vals.append(np.concatenate([np.full(local.size, weight),
                                    np.full(local.size, -weight)]))
    b = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(distinct, side ** 3))
    copies = rng.integers(0, distinct, size=duplicates)
    return sp.vstack([b, b[copies]]).tocsr()


def singular_wide_system(seed, side=20):
    """Compatible singular KKT blocks: Neumann Laplacian A, rank-deficient
    averaging B, f = A x0 + B^T y0, g = B x0."""
    a = neumann_laplacian(side)
    b = averaging_constraints(side, RHS_SEED + seed)
    rng = np.random.default_rng([RHS_SEED + seed, 1])
    x0 = rng.standard_normal(a.shape[0])
    y0 = rng.standard_normal(b.shape[0])
    return a, b, a @ x0 + b.T @ y0, b @ x0
