"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary.  Expensive problem families are built once and shared (cached
builders), which keeps the whole suite in the tens of seconds.

The large nonsymmetric integration case uses the sherman5 Matrix Market file
when one is available (set OPINS_DATA_DIR, or drop sherman5.mtx into
``data/`` at the repo root); otherwise a seeded reservoir-style stand-in of
the same size and character is generated, and the summary line says which
source ran.
"""

import functools
import os
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp

from opins import krylov
from opins.driver import OpinsOptions, OpinsSetup, SaddleSystem, opins_solve
from opins.harness import relres_full
from opins.harness.problems import generate_problem, problem_from_files
from opins.operators import LinearOperator
from opins.oracles import null_basis, pminres_constraint, tsvd_solve
from opins.preconditioners import ProjectedPreconditioner, build_g
from opins.projection import Projector, particular_solution
from opins.qrcp import qrcp_factor
from test_oracles import nonzero_spectrum, rows_and_x_p

QRCP_TOL = 1e-12
SOLVE_TOL = 1e-10


def _fact_of(system, tol=QRCP_TOL):
    return qrcp_factor(system.b.T, tol)


def _solve(system, **kw):
    kw.setdefault("solve_tol", SOLVE_TOL)
    # observe every inner iterate, so null_space_purity_max covers them all
    kw.setdefault("inner_callback", lambda it, w, rr: None)
    return opins_solve(system, OpinsOptions(**kw))


# ---------------------------------------------------------------------------
# cached problem families (shared by several criteria)

@functools.lru_cache(maxsize=None)
def nonsingular_family():
    """20 seeded nonsingular random systems with their OPINS and LU solutions."""
    out = []
    for seed in range(20):
        system = generate_problem("random", seed=seed)
        report = _solve(system, solve_tol=1e-12)
        z = np.linalg.solve(system.kkt_matrix(), system.rhs_full())
        out.append((seed, system, report, z[:system.n], z[system.n:]))
    return out


@functools.lru_cache(maxsize=None)
def singular_family():
    """20 seeded compatible singular systems (rank-50 A, full-rank B)."""
    out = []
    for seed in range(20):
        system = generate_problem("random-s", seed=seed)
        report = _solve(system)
        z = tsvd_solve(system.kkt_matrix(), system.rhs_full(), QRCP_TOL)
        out.append((seed, system, report, z[:system.n], z[system.n:]))
    return out


@functools.lru_cache(maxsize=None)
def preserved_null_family():
    """10 seeded singular saddle systems whose null-space equation is
    nonsingular (rank-deficient B, rank-95 A), solved without and with the
    projected preconditioner applied from the left."""
    out = []
    for seed in range(10):
        system = generate_problem("random-s", seed=seed,
                                  params={"a_rank": 95, "b_rank": 15})
        plain = _solve(system, declared_singular=True)
        left = _solve(system, declared_singular=True, precond="projected",
                      g_kind="jacobi", restart=200)
        out.append((seed, system, plain, left))
    return out


@functools.lru_cache(maxsize=None)
def scaled_family():
    """Seeded singular base systems with (A, f) scaled by 1e-10 and 1e10."""
    out = []
    for seed in range(3):
        base = generate_problem("random-s", seed=seed)
        base_report = _solve(base)
        scaled = {}
        for sigma in (1e-10, 1e10):
            system = generate_problem("scaled", seed=seed, params={"sigma": sigma})
            scaled[sigma] = (system, _solve(system))
        out.append((seed, base, base_report, scaled))
    return out


@functools.lru_cache(maxsize=None)
def indefinite_showcase():
    """The criterion-9 instance: OPINS-J / OPINS-P / PCG on one indefinite
    seeded system."""
    system = generate_problem("random", seed=3)
    rep_j = _solve(system, solve_tol=1e-12, precond="simple", g_kind="jacobi")
    rep_p = _solve(system, solve_tol=1e-12, precond="projected", g_kind="jacobi")
    fact = _fact_of(system)
    projector = Projector(fact)
    x_p = particular_solution(projector, system.g)
    lead = projector.complement(system.f - system.a @ x_p)
    op = LinearOperator(
        dim=system.n,
        apply=lambda v: projector.complement(system.a @ projector.complement(v)))
    cg_out = krylov.cg(op, lead, SOLVE_TOL, 200)
    return system, rep_j, rep_p, cg_out


def tracked_runs():
    """Every (system, report) pair the suite solves through the driver."""
    runs = []
    for _, system, report, *_ in nonsingular_family():
        runs.append((system, report))
    for _, system, report, *_ in singular_family():
        runs.append((system, report))
    for _, system, plain, left in preserved_null_family():
        runs.append((system, plain))
        runs.append((system, left))
    for _, base, base_report, scaled in scaled_family():
        runs.append((base, base_report))
        for system, report in scaled.values():
            runs.append((system, report))
    system, rep_j, rep_p, _ = indefinite_showcase()
    runs.append((system, rep_j))
    runs.append((system, rep_p))
    return runs


# ---------------------------------------------------------------------------
# criteria

def test_criterion_01_unique_solution_recovery():
    """Nonsingular systems: x matches the dense LU solution to 1e-8."""
    worst = 0.0
    for seed, system, report, x_lu, _ in nonsingular_family():
        assert report.converged, f"seed {seed} did not converge"
        err = np.linalg.norm(report.x - x_lu) / np.linalg.norm(x_lu)
        worst = max(worst, err)
        assert err <= 1e-8, f"seed {seed}: relative x error {err:.2e}"
    print(f"\nPASS criterion 1: unique-x recovery on 20 seeds, "
          f"worst relative error {worst:.2e} <= 1e-8")


def test_criterion_02_min_norm_recovery():
    """Compatible singular systems: ||x|| matches the TSVD oracle and the
    constraint residual is at rounding level."""
    worst_norm = 0.0
    worst_cons = 0.0
    for seed, system, report, x_tsvd, _ in singular_family():
        assert report.converged, f"seed {seed} did not converge"
        norm_gap = abs(np.linalg.norm(report.x) - np.linalg.norm(x_tsvd)) / \
            np.linalg.norm(x_tsvd)
        cons = np.linalg.norm(system.g - system.b @ report.x)
        bound = 1e-12 * (np.linalg.norm(system.g)
                         + np.linalg.norm(system.b) * np.linalg.norm(report.x))
        worst_norm = max(worst_norm, norm_gap)
        worst_cons = max(worst_cons, cons / bound)
        assert norm_gap <= 1e-6, f"seed {seed}: min-norm gap {norm_gap:.2e}"
        assert cons <= bound, f"seed {seed}: constraint residual {cons:.2e}"
    print(f"\nPASS criterion 2: min-norm x on 20 singular seeds, worst norm gap "
          f"{worst_norm:.2e} <= 1e-6, constraint residual within rounding bound")


def test_criterion_03_spectrum_equivalence():
    """Projected operator and reduced matrix share nonzero eigenvalues and
    MINRES iteration counts."""
    worst_gap = 0.0
    worst_iters = 0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        n = 40 + 10 * (seed % 3)
        m = 6 + seed % 4
        raw = rng.standard_normal((n, n))
        a = (raw + raw.T) / 2
        b = rng.standard_normal((m, n)) / np.sqrt(n)
        fact = qrcp_factor(b.T, QRCP_TOL)
        projector = Projector(fact)
        pns = np.column_stack(
            [projector.complement(a @ projector.complement(col))
             for col in np.eye(n).T])
        z = null_basis(b, rank=fact.rank)
        reduced = z.T @ a @ z
        ev_pns = nonzero_spectrum(pns, 1e-9)
        ev_reduced = np.sort(np.linalg.eigvalsh(reduced))
        assert len(ev_pns) == len(ev_reduced)
        gap = np.abs(ev_pns - ev_reduced).max() / max(1.0, np.abs(ev_reduced).max())
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-9

        f = rng.standard_normal(n)
        g = rng.standard_normal(m)
        x_p = particular_solution(projector, g)
        lead = projector.complement(f - a @ x_p)
        out_pns = krylov.minres(
            LinearOperator(dim=n, apply=lambda v: projector.complement(
                a @ projector.complement(v))),
            lead, SOLVE_TOL, 5000)
        out_red = krylov.minres(
            LinearOperator(dim=n - fact.rank, apply=lambda v: reduced @ v),
            z.T @ (f - a @ x_p), SOLVE_TOL, 5000)
        diff = abs(out_pns.iterations - out_red.iterations)
        worst_iters = max(worst_iters, diff)
        assert diff <= 2, f"seed {seed}: iteration counts {out_pns.iterations} " \
                          f"vs {out_red.iterations}"
    print(f"\nPASS criterion 3: nonzero spectra agree to {worst_gap:.2e} and "
          f"MINRES iteration counts within +/-{worst_iters} on 10 seeds")


def test_criterion_04_null_space_purity():
    """OPINS iterates never leave null(B) beyond rounding, while the
    constraint-preconditioned MINRES baseline drifts by orders of magnitude."""
    worst = 0.0
    count = 0
    for system, report in tracked_runs():
        worst = max(worst, report.metrics["null_space_purity_max"])
        count += 1
        assert report.metrics["null_space_purity_max"] <= 1e-12
    # baseline comparison on seeded indefinite instances: identity-G
    # constraint preconditioner, no iterative refinement
    best_ratio = 0.0
    for seed in range(6):
        system = generate_problem("random", seed=seed)
        fact = _fact_of(system)
        projector = Projector(fact)
        x_p = particular_solution(projector, system.g)
        lead = projector.complement(system.f - system.a @ x_p)
        op = LinearOperator(
            dim=system.n,
            apply=lambda v: projector.complement(system.a @ projector.complement(v)))
        opins_drift = []
        krylov.minres(op, lead, SOLVE_TOL, 2000,
                      callback=lambda it, w, rr: opins_drift.append(
                          np.linalg.norm(system.b @ projector.complement(w))))
        baseline_drift = []
        pminres_constraint(system, np.eye(system.n), 0, SOLVE_TOL, 300, *rows_and_x_p(system),
                           callback=lambda it, z, rr: baseline_drift.append(
                               np.linalg.norm(system.b @ z[:system.n])))
        if opins_drift and baseline_drift and max(opins_drift) > 0:
            best_ratio = max(best_ratio, max(baseline_drift) / max(opins_drift))
    assert best_ratio >= 1e3, f"baseline/OPINS drift ratio only {best_ratio:.1e}"
    print(f"\nPASS criterion 4: purity <= 1e-12 over {count} tracked runs "
          f"(worst {worst:.2e}); baseline drift exceeds OPINS by {best_ratio:.1e}x")


def test_criterion_05_projected_preconditioner_equivalence():
    """Operator P_G matches the dense null-space-restricted inverse."""
    worst = {"identity": 0.0, "jacobi": 0.0}
    for seed in range(10):
        rng = np.random.default_rng(40 + seed)
        n, m = 40, 8
        raw = rng.standard_normal((n, n))
        a = (raw + raw.T) / 2 + np.diag(rng.random(n) + 0.5)
        b = rng.standard_normal((m, n)) / np.sqrt(n)
        fact = qrcp_factor(b.T, QRCP_TOL)
        z = null_basis(b, rank=fact.rank)
        v = rng.standard_normal(n)
        for kind in ("identity", "jacobi"):
            g_op = build_g(a, kind)
            if kind == "identity":
                g_dense = np.eye(n)
            else:
                g_dense = np.diag(np.abs(np.diag(a)))
            oracle = z @ np.linalg.solve(z.T @ g_dense @ z, z.T @ v)
            got = ProjectedPreconditioner(g_op, fact).apply(v)
            err = np.linalg.norm(got - oracle) / max(1.0, np.linalg.norm(oracle))
            worst[kind] = max(worst[kind], err)
            assert err <= 1e-10, f"seed {seed} kind {kind}: error {err:.2e}"
            if kind == "identity":
                proj = Projector(fact).complement(v)
                assert np.linalg.norm(got - proj) <= 1e-13 * np.linalg.norm(v)
    print(f"\nPASS criterion 5: P_G matches dense oracle on 10 seeds "
          f"(identity {worst['identity']:.2e}, jacobi {worst['jacobi']:.2e}); "
          f"identity reduces to the projector at 1e-13")


def test_criterion_06_null_space_preservation_under_left_preconditioning():
    """Left projected preconditioning returns the same x as the
    unpreconditioned minimum-norm solve on compatible singular systems.

    The family has singular KKT matrices (rank-deficient B and rank-deficient
    A) but nonsingular null-space equations, where the minimum-norm x is
    well defined and must survive preconditioning.
    """
    worst = 0.0
    for seed, system, plain, left in preserved_null_family():
        assert plain.converged and left.converged, f"seed {seed} failed"
        diff = np.linalg.norm(left.x - plain.x) / np.linalg.norm(plain.x)
        worst = max(worst, diff)
        assert diff <= 1e-6, f"seed {seed}: x moved by {diff:.2e}"
    print(f"\nPASS criterion 6: projected-left x within {worst:.2e} <= 1e-6 of "
          f"the unpreconditioned min-norm x on 10 singular seeds")


def test_criterion_07_scaling_invariance():
    """Scaling (A, f) by 1e-10 or 1e10 leaves x unchanged; the whole-system
    TSVD oracle violates the constraint on the badly scaled system."""
    worst_drift = 0.0
    worst_tsvd = np.inf
    for seed, base, base_report, scaled in scaled_family():
        for sigma, (system, report) in scaled.items():
            assert report.converged
            drift = np.linalg.norm(report.x - base_report.x) / \
                np.linalg.norm(base_report.x)
            worst_drift = max(worst_drift, drift)
            assert drift <= 1e-6, f"seed {seed} sigma {sigma}: drift {drift:.2e}"
            cons = np.linalg.norm(system.g - system.b @ report.x)
            bound = 1e-12 * (np.linalg.norm(system.g) + np.linalg.norm(system.b)
                             * np.linalg.norm(report.x))
            assert cons <= bound
        system10, _ = scaled[1e10]
        z = tsvd_solve(system10.kkt_matrix(), system10.rhs_full(), QRCP_TOL)
        violation = np.linalg.norm(system10.g - system10.b @ z[:system10.n]) / \
            np.linalg.norm(system10.g)
        worst_tsvd = min(worst_tsvd, violation)
        assert violation > 1e-2, f"seed {seed}: TSVD violation only {violation:.2e}"
    print(f"\nPASS criterion 7: x drift <= {worst_drift:.2e} under 1e+/-10 "
          f"scaling; TSVD constraint violation >= {worst_tsvd:.2e} > 1e-2")


def test_criterion_08_convergence_tolerance_honored():
    """Every converged run certifies a recomputed true relres_x <= 1e-10."""
    worst = 0.0
    checked = 0
    for system, report in tracked_runs():
        if not report.converged:
            continue
        setup = OpinsSetup.build(system, QRCP_TOL)
        value = setup.relres_x(setup.projector.complement(report.x - setup.x_p))
        worst = max(worst, value)
        checked += 1
        assert value <= 1e-10, f"recomputed relres_x {value:.2e}"
    assert checked >= 40
    print(f"\nPASS criterion 8: {checked} converged runs recomputed, worst "
          f"true relres_x {worst:.2e} <= 1e-10")


def test_criterion_09_indefinite_cg_breaks_opins_converges():
    """CG breaks down early on the indefinite instance; OPINS-J and OPINS-P
    converge with full-system residuals around 1e-12."""
    system, rep_j, rep_p, cg_out = indefinite_showcase()
    assert cg_out.status == krylov.BREAKDOWN
    assert cg_out.iterations <= 20
    for name, rep in (("opins-j", rep_j), ("opins-p", rep_p)):
        assert rep.converged, f"{name} did not converge"
        full = relres_full(system, rep.x, rep.y)
        assert full <= 1e-10, f"{name}: relres_full {full:.2e}"
    print(f"\nPASS criterion 9: pcg breakdown at iteration {cg_out.iterations} "
          f"<= 20; opins-j relres_full {relres_full(system, rep_j.x, rep_j.y):.2e}, "
          f"opins-p {relres_full(system, rep_p.x, rep_p.y):.2e} <= 1e-10")


# ---------------------------------------------------------------------------
# criterion 10: large nonsymmetric Matrix Market integration

def _find_sherman5():
    return _find_data_file("sherman5.mtx")


def _reservoir_standin(seed, nx=16, ny=23, nz=3, ndof=3):
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


def _large_nonsymmetric_system():
    path = _find_sherman5()
    if path is not None:
        system = problem_from_files(str(path), m=20, seed=42, a_symmetric=False)
        if system.n != 3312:
            raise AssertionError(f"sherman5 should be 3312x3312, got {system.n}")
        return system, f"sherman5 from {path}"
    a = _reservoir_standin(seed=0)
    rng = np.random.default_rng(42)
    n, m = a.shape[0], 20
    b = rng.standard_normal((m, n)) / np.sqrt(n)
    x0 = rng.standard_normal(n)
    f = a @ x0 + b.T @ rng.standard_normal(m)
    g = b @ x0
    return (SaddleSystem(a=a, b=b, f=f, g=g, a_symmetric=False),
            "seeded 3312-dof reservoir stand-in (sherman5.mtx not present)")


def _find_data_file(name):
    env = os.environ.get("OPINS_DATA_DIR")
    candidates = []
    if env:
        candidates.append(pathlib.Path(env) / name)
    candidates.append(pathlib.Path(__file__).resolve().parents[1] / "data" / name)
    for path in candidates:
        if path.is_file():
            return path
    return None


@pytest.mark.skipif(_find_data_file("can_61.mtx") is None,
                    reason="can_61.mtx not present (set OPINS_DATA_DIR)")
def test_can_61_file_when_available():
    from opins.harness.mmio import load_matrix_market
    path = _find_data_file("can_61.mtx")
    mat = load_matrix_market(path)
    assert mat.shape == (61, 61)
    assert (abs(mat - mat.T) > 1e-14 * abs(mat).max()).nnz == 0
    # expanded count is consistent with the header of the symmetric file
    with open(path) as fh:
        header = fh.readline()
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
    stored = int(line.split()[2])
    diag_nnz = int(np.sum(mat.diagonal() != 0))
    assert mat.nnz == 2 * (stored - diag_nnz) + diag_nnz


def test_criterion_10_matrix_market_scale_run():
    """3312-dof nonsymmetric system: projected ILU(0) converges within the
    500-iteration budget and beats simple ILU(0), which beats no
    preconditioning."""
    system, source = _large_nonsymmetric_system()
    budget = 500
    reports = {}
    for name, precond, g_kind in (("opins", "none", "identity"),
                                  ("opins-ilu", "simple", "ilu0"),
                                  ("opins-p", "projected", "ilu0")):
        reports[name] = _solve(system, precond=precond, g_kind=g_kind,
                               restart=50, maxit=budget)
    best = reports["opins-p"]
    assert best.converged, "projected ILU(0) run did not converge in budget"
    assert best.inner.iterations <= budget

    setup = OpinsSetup.build(system, QRCP_TOL)
    value = setup.relres_x(setup.projector.complement(best.x - setup.x_p))
    assert value <= 1e-10

    it_p = reports["opins-p"].inner.iterations
    it_ilu = reports["opins-ilu"].inner.iterations
    assert reports["opins-ilu"].converged and it_p < it_ilu
    plain = reports["opins"]
    assert (not plain.converged) or plain.inner.iterations > it_ilu
    plain_state = f"{plain.inner.status}@{plain.inner.iterations}"
    print(f"\nPASS criterion 10: {source}; opins-p {it_p} its "
          f"(relres_x {value:.2e}) < opins-ilu {it_ilu} its < plain {plain_state}")
