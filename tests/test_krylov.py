"""Krylov solver behavior: examples, statuses, and min-norm properties."""

import numpy as np
import pytest
import scipy.linalg as sla

from opins.krylov import cg, gmres, minres
from opins.operators import LinearOperator


def op_from(mat):
    arr = np.asarray(mat, dtype=float)
    return LinearOperator(dim=arr.shape[0], apply=lambda v: arr @ v)


class TestOperatorContract:
    def test_linearity_probe(self):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((9, 9))
        op = op_from(mat)
        u, v = rng.standard_normal(9), rng.standard_normal(9)
        alpha, beta = 0.7, -1.3
        lhs = op(alpha * u + beta * v)
        rhs = alpha * op(u) + beta * op(v)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


class TestMinres:
    def test_decoupled_diagonal_min_norm(self):
        out = minres(op_from(np.diag([2.0, 0.0])),
                     np.array([4.0, 0.0]), tol=1e-12, maxit=10)
        assert out.converged
        np.testing.assert_allclose(out.solution, [2.0, 0.0], atol=1e-12)

    def test_zero_rhs(self):
        out = minres(op_from(np.eye(3)), np.zeros(3), 1e-10, 10)
        assert out.converged and out.iterations == 0
        np.testing.assert_array_equal(out.solution, np.zeros(3))

    def test_singular_psd_matches_pseudoinverse(self):
        rng = np.random.default_rng(1)
        c = rng.standard_normal((12, 7))
        a = c @ c.T  # rank 7 PSD
        w_true = rng.standard_normal(12)
        b = a @ w_true  # compatible
        out = minres(op_from(a), b, tol=1e-12, maxit=200)
        assert out.converged
        oracle = np.linalg.pinv(a) @ b
        assert np.linalg.norm(out.solution - oracle) <= 1e-8 * np.linalg.norm(oracle)

    def test_residual_monotonicity(self):
        rng = np.random.default_rng(2)
        raw = rng.standard_normal((30, 30))
        a = (raw + raw.T) / 2
        out = minres(op_from(a), rng.standard_normal(30), 1e-10, 300)
        rel = [rec.relres for rec in out.history]
        assert all(r2 <= r1 * (1 + 1e-12) for r1, r2 in zip(rel, rel[1:]))

    def test_null_space_component_stays_small(self):
        rng = np.random.default_rng(3)
        c = rng.standard_normal((15, 9))
        a = c @ c.T
        b = a @ rng.standard_normal(15)
        out = minres(op_from(a), b, tol=1e-12, maxit=300)
        # dense null-space projector of the operator
        vals, vecs = np.linalg.eigh(a)
        null = vecs[:, np.abs(vals) <= 1e-10 * np.abs(vals).max()]
        w = out.solution
        assert np.linalg.norm(null.T @ w) <= 1e-10 * np.linalg.norm(w)

    def test_true_residual_certified_on_convergence(self):
        rng = np.random.default_rng(4)
        raw = rng.standard_normal((20, 20))
        a = (raw + raw.T) / 2
        b = rng.standard_normal(20)
        out = minres(op_from(a), b, tol=1e-10, maxit=400)
        assert out.converged
        assert np.linalg.norm(b - a @ out.solution) <= 1e-10 * np.linalg.norm(b)

    def test_preconditioned_run_records_both_residuals(self):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((16, 16))
        a = (raw + raw.T) / 2 + 8 * np.eye(16)
        d = np.abs(np.diag(a))
        prec = LinearOperator(dim=16, apply=lambda v: v / d)
        # a callback observes every step, so every record carries both
        out = minres(op_from(a), rng.standard_normal(16),
                     1e-11, 300, precond=prec, callback=lambda it, x, rr: None)
        assert out.converged
        assert all(rec.true_relres is not None for rec in out.history)

    def test_incompatible_rhs_reports_breakdown(self):
        # b has a component outside range(A): the Krylov space is exhausted
        # at the least-squares point without meeting the tolerance
        a = np.diag([1.0, 0.0])
        b = np.array([1.0, 1.0])
        out = minres(op_from(a), b, tol=1e-12, maxit=50)
        assert out.status == "breakdown"
        assert np.all(np.isfinite(out.solution))
        # stops near the least-squares optimum instead of diverging
        ls_residual = np.linalg.norm(b - a @ np.array([1.0, 0.0])) / np.linalg.norm(b)
        achieved = np.linalg.norm(b - a @ out.solution) / np.linalg.norm(b)
        assert achieved <= ls_residual * (1 + 1e-3)

    def test_indefinite_preconditioner_breaks_down(self):
        prec = LinearOperator(dim=2, apply=lambda v: np.array([-v[0], v[1]]))
        out = minres(op_from(np.eye(2)), np.array([1.0, 0.1]),
                     1e-10, 50, precond=prec)
        assert out.status == "breakdown"

    def test_preconditioner_null_on_b_breaks_down(self):
        # bᵀM⁻¹b = 0 for a nonzero b: the zero start does not solve it
        prec = LinearOperator(dim=2, apply=lambda v: np.array([-v[0], v[1]]))
        out = minres(op_from(np.eye(2)), np.array([1.0, 1.0]),
                     1e-10, 50, precond=prec)
        assert out.status == "breakdown" and out.iterations == 0

    def test_callback_sees_candidates(self):
        rng = np.random.default_rng(6)
        raw = rng.standard_normal((10, 10))
        a = (raw + raw.T) / 2 + 5 * np.eye(10)
        b = rng.standard_normal(10)
        seen = []
        minres(op_from(a), b, 1e-10, 100,
               callback=lambda it, x, rr: seen.append((it, np.linalg.norm(b - a @ x), rr)))
        assert [it for it, _, _ in seen] == list(range(1, len(seen) + 1))
        for _, true_norm, rr in seen:
            assert true_norm / np.linalg.norm(b) == pytest.approx(rr, rel=1e-9, abs=1e-14)


class TestGmres:
    def test_identity_one_iteration(self):
        rng = np.random.default_rng(7)
        b = rng.standard_normal(6)
        out = gmres(op_from(np.eye(6)), b, restart=5, tol=1e-12, maxit=50)
        assert out.converged and out.iterations == 1
        np.testing.assert_allclose(out.solution, b, atol=1e-12)

    def test_two_by_two(self):
        # direct solve of [[0,1],[1,1]] x = (1,2) gives x = (1,1)
        out = gmres(op_from([[0.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]),
                    restart=2, tol=1e-12, maxit=20)
        assert out.converged
        np.testing.assert_allclose(out.solution, [1.0, 1.0], atol=1e-10)

    def test_zero_rhs(self):
        out = gmres(op_from(np.eye(4)), np.zeros(4), 3, 1e-10, 10)
        assert out.converged and out.iterations == 0

    def test_min_norm_on_compatible_singular_symmetric(self):
        rng = np.random.default_rng(8)
        c = rng.standard_normal((14, 6))
        a = c @ c.T  # range(A) = range(A^T)
        b = a @ rng.standard_normal(14)
        out = gmres(op_from(a), b, restart=20, tol=1e-12, maxit=200)
        assert out.converged
        oracle = np.linalg.pinv(a) @ b
        assert np.linalg.norm(out.solution - oracle) <= 1e-8 * np.linalg.norm(oracle)

    def test_stagnation_detected(self):
        # cyclic shift: restarted GMRES with a short window makes no progress
        n = 8
        shift = np.roll(np.eye(n), 1, axis=0)
        b = np.zeros(n)
        b[0] = 1.0
        out = gmres(op_from(shift), b, restart=2, tol=1e-12, maxit=100)
        assert out.status == "stagnation"
        assert out.iterations == len(out.history)

    def test_iteration_indices_increase_across_restarts(self):
        rng = np.random.default_rng(20)
        mat = rng.standard_normal((30, 30)) + 8 * np.eye(30)
        out = gmres(op_from(mat), rng.standard_normal(30), restart=5,
                    tol=1e-11, maxit=400)
        assert out.converged
        iters = [rec.iter for rec in out.history]
        assert iters == list(range(1, len(iters) + 1))

    def test_left_preconditioning_solves(self):
        rng = np.random.default_rng(9)
        mat = rng.standard_normal((25, 25)) + 12 * np.eye(25)
        d = np.abs(np.diag(mat))
        prec = LinearOperator(dim=25, apply=lambda v: v / d)
        b = rng.standard_normal(25)
        out = gmres(op_from(mat), b, restart=25, tol=1e-11, maxit=300, left_precond=prec)
        assert out.converged
        assert np.linalg.norm(b - mat @ out.solution) <= 1e-11 * np.linalg.norm(b)

    def test_orthogonality_kept_on_nonnormal_grcar(self):
        # Grcar matrix: -1 below the diagonal, 1 on it and on 3 above it; its
        # nonnormality makes the Arnoldi vectors lose orthogonality first
        n = 200
        mat = np.eye(n) - np.eye(n, k=-1) + sum(np.eye(n, k=j) for j in range(1, 4))
        b = np.random.default_rng(0).standard_normal(n)
        seen = []
        out = gmres(op_from(mat), b, restart=40, tol=1e-10, maxit=2000,
                    callback=lambda it, x, rr: seen.append(rr))
        assert out.converged
        # the recurrence residual tracks the true one only while the basis
        # stays orthogonal
        rel = np.array([rec.relres for rec in out.history])
        np.testing.assert_allclose(rel, seen, rtol=1e-5, atol=0.0)
        assert np.linalg.norm(out.solution - np.linalg.solve(mat, b)) <= 1e-8


class TestCg:
    def test_diagonal_spd(self):
        out = cg(op_from(np.diag([1.0, 2.0, 3.0])),
                 np.array([1.0, 2.0, 3.0]), 1e-12, 50)
        assert out.converged
        np.testing.assert_allclose(out.solution, np.ones(3), atol=1e-10)

    def test_indefinite_breakdown(self):
        out = cg(op_from(np.diag([1.0, -1.0])),
                 np.array([1.0, 1.0]), 1e-10, 50)
        assert out.status == "breakdown"

    def test_random_spd_matches_lu(self):
        rng = np.random.default_rng(10)
        raw = rng.standard_normal((20, 20))
        a = raw @ raw.T + 20 * np.eye(20)
        b = rng.standard_normal(20)
        out = cg(op_from(a), b, 1e-12, 400)
        assert out.converged
        np.testing.assert_allclose(out.solution, np.linalg.solve(a, b),
                                   rtol=1e-9, atol=1e-9)


def _noop(it, x, rr):
    pass


def _spd(seed, n=20):
    raw = np.random.default_rng(seed).standard_normal((n, n))
    return raw @ raw.T + n * np.eye(n)


def _sym_indefinite(seed, n=30):
    raw = np.random.default_rng(seed).standard_normal((n, n))
    return (raw + raw.T) / 2


# (name, tol, run(callback, tol)); each run solves the same system every call
_OBSERVATION_RUNS = [
    ("minres", 1e-10, lambda cb, tol: minres(
        op_from(_sym_indefinite(2)),
        np.random.default_rng(2).standard_normal(30), tol, 300, callback=cb)),
    ("minres-precond", 1e-11, lambda cb, tol: minres(
        op_from(_spd(5, 16) - 30 * np.eye(16)),
        np.random.default_rng(5).standard_normal(16), tol, 300,
        precond=LinearOperator(dim=16, apply=lambda v: v / 16.0),
        callback=cb)),
    ("gmres-restarted", 1e-11, lambda cb, tol: gmres(
        op_from(np.random.default_rng(20).standard_normal((30, 30)) + 8 * np.eye(30)),
        np.random.default_rng(21).standard_normal(30), restart=5, tol=tol,
        maxit=400, callback=cb)),
    ("gmres-lucky", 1e-12, lambda cb, tol: gmres(
        op_from(np.diag([1.0, 1.0, 2.0, 2.0])), np.array([1.0, 0.0, 1.0, 0.0]),
        restart=10, tol=tol, maxit=50, callback=cb)),
    ("gmres-breakdown", 1e-12, lambda cb, tol: gmres(
        op_from(np.diag(np.ones(3), 1)), np.array([0.0, 1.0, 1.0, 0.0]),
        restart=4, tol=tol, maxit=50, callback=cb)),
    ("gmres-breakdown-restarted", 1e-12, lambda cb, tol: gmres(
        op_from(sla.block_diag(np.diag(np.ones(3), 1), [[2.0]])),
        np.array([0.0, 1.0, 1.0, 0.0, 1.0]), restart=3, tol=tol, maxit=50,
        callback=cb)),
    ("cg", 1e-12, lambda cb, tol: cg(
        op_from(_spd(10)),
        np.random.default_rng(10).standard_normal(20), tol, 400, callback=cb)),
]
_OBSERVATION_IDS = [name for name, _, _ in _OBSERVATION_RUNS]


class TestObservation:
    """A callback observes a run without changing it; without one the true
    residual is computed only where the recurrence residual meets tol."""

    @pytest.mark.parametrize("name, tol, run", _OBSERVATION_RUNS, ids=_OBSERVATION_IDS)
    def test_callback_does_not_change_the_run(self, name, tol, run):
        plain, observed = run(None, tol), run(_noop, tol)
        assert np.array_equal(plain.solution, observed.solution)
        assert plain.status == observed.status
        assert plain.iterations == observed.iterations == len(plain.history)
        assert [r.relres for r in plain.history] == [r.relres for r in observed.history]
        assert all(r.true_relres is not None for r in observed.history)

    @pytest.mark.parametrize("name, tol, run", _OBSERVATION_RUNS, ids=_OBSERVATION_IDS)
    def test_true_residual_only_where_recurrence_meets_tol(self, name, tol, run):
        out = run(None, tol)
        for rec in out.history:
            assert (rec.true_relres is not None) == (rec.relres <= tol)
        if out.converged:
            assert out.history[-1].true_relres <= tol

    def test_runs_reach_the_paths_they_name(self):
        runs = {name: (tol, run) for name, tol, run in _OBSERVATION_RUNS}
        statuses = {name: run(None, tol).status for name, (tol, run) in runs.items()}
        assert statuses == {"minres": "converged", "minres-precond": "converged",
                            "gmres-restarted": "converged", "gmres-lucky": "converged",
                            "gmres-breakdown": "breakdown",
                            "gmres-breakdown-restarted": "breakdown", "cg": "converged"}
        tol, run = runs["gmres-restarted"]
        assert run(None, tol).iterations > 5
        tol, run = runs["gmres-lucky"]
        lucky = run(None, tol)
        assert lucky.iterations == 2 and lucky.history[-1].relres == 0.0
        # the nilpotent shift maps the third Krylov space into itself with a
        # singular triangle: the broken step leaves no record, is not
        # counted, and the least-squares iterate of the step before it is
        # returned
        tol, run = runs["gmres-breakdown"]
        broken = run(_noop, tol)
        assert broken.iterations == 2 and len(broken.history) == 2
        a, b = np.diag(np.ones(3), 1), np.array([0.0, 1.0, 1.0, 0.0])
        true_relres = np.linalg.norm(b - a @ broken.solution) / np.linalg.norm(b)
        assert true_relres == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert not any(r.relres <= tol < r.true_relres for r in broken.history)
        # the same breakdown in the second restart cycle
        tol, run = runs["gmres-breakdown-restarted"]
        broken = run(None, tol)
        assert broken.iterations == 5 and broken.iterations > 3
        assert len(broken.history) == broken.iterations


_NILPOTENT = np.diag(np.ones(3), 1)

# (name, A, b, solve(op, b, callback)); each run breaks down inside a step,
# before that step's record
_BREAKDOWN_RUNS = [
    # rᵀM⁻¹r turns negative in the second step
    ("minres-indefinite-precond", np.diag([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 1.0, 1.0, 0.1]),
     lambda op, b, cb: minres(op, b, 1e-10, 50, callback=cb, precond=LinearOperator(
         dim=4, apply=lambda v: v * np.array([1.0, 1.0, 1.0, -1.0])))),
    # pᵀAp < 0 in the second step
    ("cg-negative-curvature", np.diag([1.0, -1.0]), np.array([1.0, 0.5]),
     lambda op, b, cb: cg(op, b, 1e-10, 50, callback=cb)),
    ("gmres-breakdown", _NILPOTENT, np.array([0.0, 1.0, 1.0, 0.0]),
     lambda op, b, cb: gmres(op, b, restart=4, tol=1e-12, maxit=50, callback=cb)),
    ("gmres-breakdown-restarted", sla.block_diag(_NILPOTENT, [[2.0]]),
     np.array([0.0, 1.0, 1.0, 0.0, 1.0]),
     lambda op, b, cb: gmres(op, b, restart=3, tol=1e-12, maxit=50, callback=cb)),
]


class TestBreakdownBeforeARecord:
    """A step that breaks down before its record is not counted, and the run
    returns the iterate of its last record."""

    @pytest.mark.parametrize("name, a, b, solve", _BREAKDOWN_RUNS,
                             ids=[name for name, _, _, _ in _BREAKDOWN_RUNS])
    def test_iterations_count_the_records(self, name, a, b, solve):
        op = op_from(a)
        seen = []
        out = solve(op, b, lambda it, x, rr: seen.append(x.copy()))
        assert out.status == "breakdown"
        assert out.iterations == len(out.history) == len(seen) >= 1
        assert np.array_equal(out.solution, seen[-1])
        true_relres = np.linalg.norm(b - op(out.solution)) / np.linalg.norm(b)
        assert true_relres == out.history[-1].true_relres
        # unobserved, the run stops at the same step with the same x
        plain = solve(op, b, None)
        assert plain.iterations == len(plain.history) == out.iterations
        assert np.array_equal(plain.solution, out.solution)


class TestUnderflowingRhs:
    """A nonzero b whose norm underflows to 0 gives no scale to measure a
    residual against: 0 steps and ``breakdown``, never ``converged``."""

    @pytest.mark.parametrize("solve", [
        lambda op, b: minres(op, b, 1e-10, 10),
        lambda op, b: gmres(op, b, 3, 1e-10, 10),
        lambda op, b: cg(op, b, 1e-10, 10),
    ], ids=["minres", "gmres", "cg"])
    def test_tiny_rhs_breaks_down_after_0_steps(self, solve):
        b = 1e-300 * np.ones(4)
        assert np.linalg.norm(b) == 0.0
        out = solve(op_from(np.eye(4)), b)
        assert out.status == "breakdown" and out.iterations == 0
        np.testing.assert_array_equal(out.solution, np.zeros(4))
        # an exactly zero b, signed zeros included, still converges
        assert solve(op_from(np.eye(4)), -0.0 * b).status == "converged"
