"""Krylov solver behavior: examples, statuses, and min-norm properties."""

import numpy as np
import pytest
import scipy.linalg as sla

from opins.driver import OpinsSetup, SaddleSystem
from opins.krylov import (_EPS, BREAKDOWN, CONVERGED, MAX_ITERATIONS, STAGNATION, _Steps, cg,
                          gmres, gmres_restart, minres)
from opins.operators import LinearOperator
from test_driver import neumann_laplacian
from test_qrcp import averaging_b


def reference_minres(op, b, tol, maxit, precond=None, callback=None, residual=None):
    """MINRES as NumPy expressions on fresh vectors: the loop the in-place
    BLAS loop of ``minres`` replaced, kept as the reference it must follow
    step for step."""
    steps = _Steps(op, b, tol, callback, residual)
    x = np.zeros(op.dim)
    if steps.normb == 0.0:
        return steps.outcome(BREAKDOWN if steps.b.any() else CONVERGED, x)

    r1 = steps.b.copy()
    y = precond(r1) if precond is not None else r1
    beta1 = float(r1 @ y)
    if beta1 <= 0.0:
        # b is nonzero, so rᵀM⁻¹r <= 0 only where the preconditioner is not
        # positive definite on it, or where rᵀr underflows
        return steps.outcome(BREAKDOWN, x)
    beta1 = np.sqrt(beta1)

    oldb, beta = 0.0, beta1
    # tnorm: a running estimate of ||T_k||, the scale of the floor on gamma
    dbar, epsln, phibar, tnorm = 0.0, 0.0, beta1, 0.0
    cs, sn = -1.0, 0.0
    w = np.zeros(op.dim)
    w2 = np.zeros(op.dim)
    r2 = r1
    status = MAX_ITERATIONS
    while len(steps) < maxit:
        v = y / beta
        y = op(v)
        if len(steps) >= 1:
            y = y - (beta / oldb) * r1
        alfa = float(v @ y)
        y = y - (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = precond(r2) if precond is not None else r2
        oldb = beta
        beta = float(r2 @ y)
        if beta < 0.0:
            status = BREAKDOWN
            break
        beta = np.sqrt(beta)

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        tnorm = max(tnorm, np.hypot(np.hypot(alfa, beta), oldb))
        gamma = max(np.hypot(gbar, beta), _EPS * tnorm)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w

        if steps.record(phibar / beta1, x):
            status = CONVERGED
            break
        if beta <= _EPS * beta1:
            # Lanczos space exhausted without reaching the tolerance: stop at
            # the least-squares point (incompatible right-hand side) instead
            # of dividing by the vanishing beta next iteration
            status = BREAKDOWN
            break
    return steps.outcome(status, x)


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

    def test_restart_whose_explicit_residual_meets_tol_converges(self):
        # the first cycle's recurrence residuals stay above the tolerance, so
        # the caller's residual is first asked for at the restart; it meets
        # the tolerance there, and the run ends with the cycle's iterate
        a, b = np.diag(np.arange(1.0, 7.0)), np.ones(6)
        asked = []

        def residual(x):
            asked.append(x.copy())
            return np.zeros(6)

        out = gmres(op_from(a), b, restart=2, tol=1e-10, maxit=50, residual=residual)
        assert out.status == "converged" and out.iterations == 2
        first_cycle = gmres(op_from(a), b, restart=2, tol=1e-10, maxit=2)
        assert first_cycle.status == "max_iterations"
        assert np.array_equal(out.solution, first_cycle.solution)
        assert len(asked) == 1 and np.array_equal(asked[0], out.solution)

    def test_left_preconditioner_null_on_b_breaks_down(self):
        # M^{-1} b = 0 for a nonzero b: no preconditioned residual to start from
        prec = LinearOperator(dim=4, apply=lambda v: 0.0 * v)
        out = gmres(op_from(np.eye(4)), np.ones(4), 3, 1e-10, 10, left_precond=prec)
        assert out.status == "breakdown" and out.iterations == 0
        np.testing.assert_array_equal(out.solution, np.zeros(4))

    @pytest.mark.parametrize("restart, dim, maxit, expected", [
        (None, 3312, 500, 500), (None, 100_000, 1_000_000, 50), (None, 3312, 1, 50),
        (None, 20, 200, 50), (7, 3312, 500, 7)],
        ids=["stand-in", "large", "maxit-1", "small", "explicit"])
    def test_default_restart_fits_the_basis_budget(self, restart, dim, maxit, expected):
        assert gmres_restart(restart, dim, maxit) == expected

    @pytest.mark.parametrize("n, maxit, length", [(200, 2000, 200), (20, 300, 50)])
    def test_default_restart_runs_the_resolved_cycle(self, n, maxit, length):
        mat = np.eye(n) - np.eye(n, k=-1) + sum(np.eye(n, k=j) for j in range(1, 4))
        b = np.random.default_rng(0).standard_normal(n)
        default = gmres(op_from(mat), b, None, 1e-10, maxit)
        explicit = gmres(op_from(mat), b, length, 1e-10, maxit)
        assert default.converged
        assert default.iterations == explicit.iterations
        assert np.array_equal(default.solution, explicit.solution)

    @staticmethod
    def offset_run(decay, maxit):
        """GMRES on diag(linspace(1, 2, 200)) in one cycle, with a caller's
        residual that adds an offset of 1e-8 ||b||, times ``decay`` per call:
        the recurrence meets 1e-10 long before the true residual can."""
        n = 200
        mat = np.diag(np.linspace(1.0, 2.0, n))
        b = np.random.default_rng(1).standard_normal(n)
        offset = 1e-8 * np.linalg.norm(b) * np.eye(n)[0]
        calls = []

        def residual(x):
            calls.append(1)
            return b - mat @ x + decay ** len(calls) * offset

        return gmres(op_from(mat), b, None, 1e-10, maxit, residual=residual)

    def test_stall_window_ends_a_long_cycle(self):
        out = self.offset_run(1.0, 2000)
        first = next(rec.iter for rec in out.history if rec.relres <= 1e-10)
        assert first < 50
        assert (out.status, out.iterations) == (STAGNATION, first + 50)
        assert all(rec.true_relres > 1e-10 for rec in out.history[first - 1:])

    def test_stall_window_passes_an_improving_true_residual(self):
        # 0.998^50 = 0.905: each window improves by more than the factor
        out = self.offset_run(0.998, 150)
        assert (out.status, out.iterations) == (MAX_ITERATIONS, 150)

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

    def test_ten_steps_without_decrease_break_down(self):
        # A = I + K with K skew: p^T A p = ||p||^2 > 0, so the curvature test
        # never fires, but the residual grows from the first step on
        a = np.array([[1.0, 1.0], [-1.0, 1.0]])
        out = cg(op_from(a), np.ones(2), 1e-10, 100)
        assert out.status == "breakdown" and out.iterations == 11
        rel = [rec.relres for rec in out.history]
        assert min(rel[1:]) >= rel[0]

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


def _projected_laplacian(side=8, seed=0):
    """A singular-wide-style inner problem: v -> P(A v) for a Neumann
    Laplacian A and an averaging B whose projector keeps B_q and R_11, and
    the projected right-hand side of a compatible system."""
    a = neumann_laplacian(side)
    n = a.shape[0]
    b = averaging_b(seed, n=n)
    rng = np.random.default_rng(seed)
    x0, y0 = rng.standard_normal(n), rng.standard_normal(b.shape[0])
    setup = OpinsSetup.build(SaddleSystem(a, b, a @ x0 + b.T @ y0, b @ x0, a_symmetric=True),
                             1e-12)
    assert setup.fact.u is None
    p = setup.projector
    return LinearOperator(dim=n, apply=lambda v: p.complement(a @ v)), setup.rhs


def _sym_indefinite_conditioned(seed, n=100):
    """Q diag(lambda) Q^T with half the lambda in [1, 2], half in [-2, -1]:
    indefinite and nonsingular with kappa = 2, so MINRES meets 1e-10 in 42
    steps, well before the Krylov space is exhausted, and rounding moves x
    by about eps kappa."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    lam = np.concatenate([np.linspace(1.0, 2.0, n // 2), -np.linspace(1.0, 2.0, n - n // 2)])
    return (q * lam) @ q.T


def _singular_psd(seed=1):
    c = np.random.default_rng(seed).standard_normal((12, 7))
    return c @ c.T  # rank 7


_DIAG = np.arange(1.0, 6.0)
_SHIFTED = _sym_indefinite(5, 16) + 8 * np.eye(16)
_SPD_DIAG = np.diag(_spd(5, 16))


def _diag_into_one_buffer():
    """v -> d * v, written every call into the same array it returns."""
    out = np.empty(5)
    return LinearOperator(5, lambda v: np.multiply(_DIAG, v, out=out))


# (name, factory, kwargs): factory() gives (op, b), built only when a test
# runs; minres and reference_minres must take the same steps on each
_REFERENCE_RUNS = [
    ("projected-laplacian", _projected_laplacian, dict(tol=1e-10, maxit=500)),
    ("indefinite", lambda: (op_from(_sym_indefinite_conditioned(2)),
                            np.random.default_rng(2).standard_normal(100)),
     dict(tol=1e-10, maxit=300)),
    ("singular-compatible",
     lambda: (op_from(_singular_psd()),
              _singular_psd() @ np.random.default_rng(3).standard_normal(12)),
     dict(tol=1e-12, maxit=200)),
    ("jacobi", lambda: (op_from(_SHIFTED), np.random.default_rng(5).standard_normal(16)),
     dict(tol=1e-11, maxit=300,
          precond=LinearOperator(dim=16, apply=lambda v: v / np.abs(np.diag(_SHIFTED))))),
    ("incompatible", lambda: (op_from(np.diag([1.0, 0.0])), np.array([1.0, 1.0])),
     dict(tol=1e-12, maxit=50)),
    # operators and preconditioners whose outputs the solver must only read
    ("strided-op", lambda: (LinearOperator(5, lambda v: np.repeat(_DIAG * v, 2)[::2]), _DIAG),
     dict(tol=1e-10, maxit=20)),
    ("float32-op", lambda: (LinearOperator(5, lambda v: (_DIAG * v).astype(np.float32)), _DIAG),
     dict(tol=1e-6, maxit=20)),
    ("op-returns-argument", lambda: (LinearOperator(5, lambda v: v), _DIAG),
     dict(tol=1e-10, maxit=20)),
    ("op-reuses-its-output", lambda: (_diag_into_one_buffer(), _DIAG), dict(tol=1e-10, maxit=20)),
    ("precond-returns-argument", lambda: (op_from(np.diag(_DIAG)), _DIAG),
     dict(tol=1e-10, maxit=20, precond=LinearOperator(5, lambda v: v))),
]


class TestAgainstReference:
    """The in-place BLAS loop of ``minres`` takes the steps of its NumPy
    reference, with x equal up to rounding (BLAS ``daxpy`` rounds once
    where NumPy's ``y + a * x`` rounds twice)."""

    @pytest.mark.parametrize("name, factory, kwargs", _REFERENCE_RUNS,
                             ids=[run[0] for run in _REFERENCE_RUNS])
    def test_same_steps_and_solution(self, name, factory, kwargs):
        op, b = factory()
        out, ref = minres(op, b, **kwargs), reference_minres(op, b, **kwargs)
        assert out.status == ref.status
        assert out.iterations == ref.iterations
        # a float32 op rounds its outputs, and so the two runs apart, at 6e-8
        rtol = 1e-6 if "float32" in name else 1e-12
        assert np.linalg.norm(out.solution - ref.solution) <= rtol * np.linalg.norm(ref.solution)

    def test_runs_reach_the_statuses_they_name(self):
        statuses = {name: minres(*factory(), **kwargs).status
                    for name, factory, kwargs in _REFERENCE_RUNS}
        assert statuses.pop("incompatible") == BREAKDOWN
        assert set(statuses.values()) == {CONVERGED}

    def test_singular_compatible_solution_has_minimum_norm(self):
        name, factory, kwargs = _REFERENCE_RUNS[2]
        assert name == "singular-compatible"
        op, b = factory()
        x = minres(op, b, **kwargs).solution
        # no part in the 5-dimensional kernel of the rank-7 A
        kernel = sla.null_space(_singular_psd())
        assert kernel.shape[1] == 5
        assert np.linalg.norm(kernel.T @ x) <= 1e-10 * np.linalg.norm(x)


class TestIteratesHandedOut:
    """An iterate handed to a callback or to the caller's residual is never
    written again: MINRES updates a fresh copy after an observed step."""

    @pytest.mark.parametrize("precond", [None, LinearOperator(16, lambda v: v / _SPD_DIAG)],
                             ids=["plain", "precond"])
    def test_callback_iterates_stay_as_seen(self, precond):
        kept = []
        out = minres(op_from(_spd(5, 16)), np.random.default_rng(5).standard_normal(16), 1e-11,
                     300, precond=precond, callback=lambda it, x, rr: kept.append((x, x.copy())))
        assert out.converged and len(kept) == out.iterations > 1
        assert all(np.array_equal(x, seen) for x, seen in kept)
        assert len({id(x) for x, _ in kept}) == len(kept)
        assert np.array_equal(out.solution, kept[-1][1])

    def test_residual_iterates_stay_as_seen(self):
        # a residual that never meets the tolerance: every step after the
        # recurrence meets it is observed, and the run goes on
        kept = []

        def residual(x):
            kept.append((x, x.copy()))
            return np.ones(20)

        out = minres(op_from(_spd(10)), np.random.default_rng(10).standard_normal(20),
                     1e-6, 30, residual=residual)
        assert not out.converged and len(kept) > 1
        assert all(np.array_equal(x, seen) for x, seen in kept)


class TestOperatorReturnsItsArgument:
    """GMRES orthogonalizes in place in the operator's output, which must not
    be a row of its basis."""

    @pytest.mark.parametrize("left_precond", [None, LinearOperator(5, lambda v: v)],
                             ids=["plain", "left-precond"])
    def test_identity_op_converges_in_one_step(self, left_precond):
        b = np.arange(1.0, 6.0)
        out = gmres(LinearOperator(5, lambda v: v), b, 10, 1e-10, 20, left_precond=left_precond)
        assert out.converged and out.iterations == 1
        np.testing.assert_allclose(out.solution, b, rtol=1e-15)


class TestOutputOfAnotherDtype:
    """GMRES orthogonalizes in float64 whatever dtype the operator or its
    left preconditioner returns."""

    def test_float32_op_converges(self):
        # orthogonalized in float32, this run ended in breakdown after 11 steps
        d = np.arange(1.0, 6.0)
        out = gmres(LinearOperator(5, lambda v: (d * v).astype(np.float32)), d, 10, 1e-10, 20)
        assert out.converged and out.iterations == 5

    @pytest.mark.parametrize("restart", [3, 10])
    def test_float32_left_precond_keeps_float64_range(self, restart):
        # the preconditioner scales by 2^66, so its float32 outputs square
        # past float32's range but not float64's: in float64 the run is the
        # unscaled one's, scaled by powers of 2 bit for bit
        d = np.arange(1.0, 21.0)
        op = LinearOperator(20, lambda v: d * v)

        def run(scale):
            return gmres(op, d / 2.0**60 if scale else d, restart, 1e-10, 300,
                         left_precond=lambda v: (2.0**scale * v).astype(np.float32))

        base, scaled = run(0), run(66)
        assert base.converged and scaled.converged
        assert scaled.iterations == base.iterations
        np.testing.assert_array_equal(scaled.solution * 2.0**60, base.solution)
