import numpy as np
import pytest
import scipy.sparse as sp

from sgkron.fem2d import build_mesh
from sgkron.kronsys import build_affine_system, matvec
from sgkron.pcg import (
    BreakdownError,
    SolverConfig,
    UnavailableError,
    estimate_condition,
    pcg_solve,
)
from sgkron.precond import build_mean_based, build_trunc_exact


class DenseOperator:
    def __init__(self, A):
        self.A = np.asarray(A, float)

    def matvec(self, v):
        return self.A @ v


class DensePreconditioner:
    def __init__(self, P):
        self.P = np.asarray(P, float)

    def apply_inverse(self, v):
        return np.linalg.solve(self.P, v)


def spd_problem(n=40, seed=42):
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((n, n))
    A = R.T @ R + n * np.eye(n)
    f = rng.standard_normal(n)
    return A, f


class TestBasicConvergence:
    def test_identity_preconditioner_solves(self):
        A, f = spd_problem()
        x, report = pcg_solve(
            DenseOperator(A), DensePreconditioner(np.eye(40)), f, SolverConfig(tol=1e-10)
        )
        assert report.converged
        np.testing.assert_allclose(A @ x, f, atol=1e-8 * np.linalg.norm(f))
        assert np.linalg.norm(f - A @ x) <= 1e-9 * np.linalg.norm(f)

    def test_exact_preconditioner_one_iteration(self):
        A, f = spd_problem()
        x, report = pcg_solve(DenseOperator(A), DensePreconditioner(A), f)
        assert report.iterations == 1
        np.testing.assert_allclose(A @ x, f, rtol=1e-9)

    def test_zero_rhs(self):
        A, _ = spd_problem()
        x, report = pcg_solve(DenseOperator(A), DensePreconditioner(A), np.zeros(40))
        assert report.iterations == 0
        assert report.converged
        np.testing.assert_array_equal(x, np.zeros(40))
        assert report.residual_history == [0.0]

    def test_final_relres_matches_true_residual(self):
        A, f = spd_problem()
        x, report = pcg_solve(
            DenseOperator(A), DensePreconditioner(np.diag(np.diag(A))), f
        )
        true_rel = np.linalg.norm(f - A @ x) / np.linalg.norm(f)
        np.testing.assert_allclose(report.final_relres, true_rel, atol=1e-12)
        assert report.final_relres <= 1e-6

    def test_history_starts_at_one(self):
        A, f = spd_problem()
        _, report = pcg_solve(DenseOperator(A), DensePreconditioner(np.eye(40)), f)
        assert report.residual_history[0] == 1.0
        assert len(report.residual_history) == report.iterations + 1


class TestResidualNorms:
    def test_preconditioned_norm_converges(self):
        A, f = spd_problem()
        cfg = SolverConfig(tol=1e-8, residual_norm="preconditioned")
        x, report = pcg_solve(
            DenseOperator(A), DensePreconditioner(np.diag(np.diag(A))), f, cfg
        )
        assert report.converged
        np.testing.assert_allclose(A @ x, f, atol=1e-6 * np.linalg.norm(f))

    def test_unknown_norm_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(residual_norm="energy")

    def test_invalid_tolerances_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)


class TestDeterminism:
    def test_bitwise_repeatable(self):
        op, f, _ = build_affine_system(build_mesh(2), M=3, k=2, sigma_tilde=2.0)
        P = build_mean_based(op.terms[0][1], op.ny)
        x1, rep1 = pcg_solve(op, P, f)
        x2, rep2 = pcg_solve(op, P, f)
        np.testing.assert_array_equal(x1, x2)
        assert rep1.residual_history == rep2.residual_history
        assert rep1.iterations == rep2.iterations


class TestMaxIter:
    def test_hits_cap_without_converging(self):
        A, f = spd_problem()
        cfg = SolverConfig(tol=1e-14, max_iter=3)
        x, report = pcg_solve(DenseOperator(A), DensePreconditioner(np.eye(40)), f, cfg)
        assert not report.converged
        assert report.iterations == 3
        assert report.final_relres > 1e-14


class TestBreakdown:
    def test_indefinite_operator(self):
        A = np.diag([1.0, -1.0, 2.0])
        f = np.array([1.0, 1.0, 1.0])
        with pytest.raises(BreakdownError):
            pcg_solve(DenseOperator(A), DensePreconditioner(np.eye(3)), f)

    def test_indefinite_preconditioner(self):
        A, f = spd_problem(10)
        P = np.diag([1.0] * 9 + [-1.0])
        with pytest.raises(BreakdownError):
            pcg_solve(DenseOperator(A), DensePreconditioner(P), f, SolverConfig(tol=1e-12))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operator(self, bad):
        class NonFiniteOperator:
            def matvec(self, v):
                return np.full_like(v, bad)

        _, f = spd_problem(10)
        with pytest.raises(BreakdownError, match="not finite"):
            pcg_solve(NonFiniteOperator(), DensePreconditioner(np.eye(10)), f)


class TestConditionEstimate:
    def test_against_dense_eigensolve(self):
        # The Lanczos-based estimate must land within 50% of the true
        # generalized condition number of the preconditioned operator.
        op, f, _ = build_affine_system(build_mesh(2), M=3, k=2, sigma_tilde=2.0)
        from sgkron.kronsys import assemble_dense
        from sgkron.spectral import eig_range

        P = build_mean_based(op.terms[0][1], op.ny)
        _, report = pcg_solve(op, P, f, SolverConfig(tol=1e-12))
        est = estimate_condition(report)

        A = assemble_dense(op)
        P_dense = np.kron(np.eye(op.ny), op.terms[0][1].toarray())
        lo, hi = eig_range(P_dense, A)
        true_cond = hi / lo
        assert 0.5 * true_cond <= est <= 1.5 * true_cond

    def test_exact_preconditioner_estimate_near_one(self):
        A, f = spd_problem()
        _, report = pcg_solve(DenseOperator(A), DensePreconditioner(A), f)
        np.testing.assert_allclose(estimate_condition(report), 1.0, rtol=1e-6)

    def test_unavailable_without_iterations(self):
        A, _ = spd_problem()
        _, report = pcg_solve(DenseOperator(A), DensePreconditioner(A), np.zeros(40))
        with pytest.raises(UnavailableError):
            estimate_condition(report)


class TestOnAssembledSystem:
    def test_trunc_preconditioner_counts_drop(self):
        op, f, _ = build_affine_system(build_mesh(3), M=4, k=2, sigma_tilde=4.0)
        counts = {}
        for r in (0, 2, 4):
            P = build_trunc_exact(op.terms, r, op.ny, op.nx)
            _, report = pcg_solve(op, P, f)
            counts[r] = report.iterations
            assert report.converged
        assert counts[4] <= counts[2] <= counts[0]

    def test_solution_satisfies_system(self):
        op, f, _ = build_affine_system(build_mesh(3), M=3, k=2, sigma_tilde=2.0)
        P = build_mean_based(op.terms[0][1], op.ny)
        x, _ = pcg_solve(op, P, f)
        np.testing.assert_allclose(
            matvec(op, x), f, atol=2e-6 * np.linalg.norm(f)
        )
