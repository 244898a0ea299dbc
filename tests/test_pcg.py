from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from sgkron import precond
from sgkron.pcg import (
    BreakdownError,
    SolverConfig,
    SolveReport,
    UnavailableError,
    estimate_condition,
    pcg_solve,
)
from sgkron.precond import CholeskyFactor, build_mean_based, build_trunc_exact
from sgkron.verify import SmallConfig


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
    def test_invalid_tolerances_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)


class TestDeterminism:
    def test_bitwise_repeatable(self):
        op, f, _ = SmallConfig().build()
        P = build_mean_based(CholeskyFactor(op.terms[0][1]))
        x1, rep1 = pcg_solve(op, P, f)
        x2, rep2 = pcg_solve(op, P, f)
        np.testing.assert_array_equal(x1, x2)
        assert rep1.residual_history == rep2.residual_history
        assert rep1.iterations == rep2.iterations


class TestParitySplit:
    def test_random_rhs_takes_the_plain_path(self):
        # f outside one parity class: every apply solves both classes, as
        # for a P without classes (which keeps its lead), so the runs agree
        # bit for bit.
        op, f, _ = SmallConfig().build()
        classes = op.parity_classes(0)
        P = build_mean_based(CholeskyFactor(op.terms[0][1]), classes)
        f = np.random.default_rng(42).standard_normal(op.dim)
        _, split = pcg_solve(op, P, f)
        unclassed = SimpleNamespace(apply_inverse=P.apply_inverse, apply_lead=P.apply_lead,
                                    lead=P.lead)
        _, plain = pcg_solve(op, unclassed, f)
        assert split.residual_history == plain.residual_history
        assert split.converged

    @pytest.mark.parametrize("kind", ["mean", "trunc direct", "trunc nested"])
    def test_class_apply_is_zero_off_its_class(self, monkeypatch, kind):
        # The half products rest on it: apply_inverse(v, cls) is exactly
        # zero on the blocks of the other class.
        if kind == "trunc nested":
            monkeypatch.setattr(precond, "TRUNC_DIRECT_GUARD", 0)
        op, _, _ = SmallConfig(M=4, k=3).build()
        K0_factor = CholeskyFactor(op.terms[0][1])
        r = 0 if kind == "mean" else 2
        classes = op.parity_classes(r)
        if kind == "mean":
            P = build_mean_based(K0_factor, classes)
        else:
            P = build_trunc_exact(K0_factor, op.leading(r), classes)
            assert bool(P._nested) == (kind == "trunc nested")
        v = np.random.default_rng(1).standard_normal(op.dim)
        for cls in (0, 1):
            Z = P.apply_inverse(v, cls).reshape(op.ny, op.nx)
            assert not Z[classes != cls].any()
            assert np.all(Z[classes == cls].any(axis=1))

    @pytest.mark.parametrize("r", [0, 2])
    def test_one_half_product_a_step(self, r):
        # The class-alternating run makes one product over the columns of
        # one class a step, the class of its direction, of the terms past
        # P_r's, and takes the steps of plain PCG (full products and applies).
        op, f, _ = SmallConfig(M=4, k=3).build()
        classes = op.parity_classes(r)
        P = build_trunc_exact(CholeskyFactor(op.terms[0][1]), op.leading(r), classes)
        masks = []

        def matvec(v, blocks=None, first=0):
            masks.append(blocks)
            assert first == r + 1
            return op.matvec(v, blocks, first)

        _, split = pcg_solve(SimpleNamespace(matvec=matvec, skips_leading_terms=True), P, f)
        _, plain = pcg_solve(op, SimpleNamespace(apply_inverse=P.apply_inverse), f)
        assert len(masks) == split.iterations == plain.iterations
        for j, blocks in enumerate(masks):
            np.testing.assert_array_equal(blocks, classes == bool(j % 2))
        h_split, h_plain = np.array(split.residual_history), np.array(plain.residual_history)
        assert np.all(np.abs(h_split - h_plain) <= 1e-12 * h_plain + 1e-13)

    @pytest.mark.parametrize("lead, skips", [(False, True), (True, False)],
                             ids=["classes without lead", "lead without skip"])
    def test_classes_split_only_with_the_lead_product(self, lead, skips):
        # Without P_lead z (P has no lead, or its operator skips no leading
        # term) PCG takes the plain step whatever P's classes: one-argument
        # applies, unmasked products, and the history of the same P without
        # classes, bit for bit.
        op, f, _ = SmallConfig(M=4, k=3).build()
        classes = op.parity_classes(2)
        P = build_trunc_exact(CholeskyFactor(op.terms[0][1]), op.leading(2), classes)
        applies, products = [], []

        def apply_inverse(*args):
            applies.append(len(args))
            return P.apply_inverse(*args)

        def matvec(*args):
            products.append(len(args))
            return op.matvec(*args)

        held = dict(lead=P.lead, apply_lead=P.apply_lead) if lead else {}
        classed = SimpleNamespace(apply_inverse=apply_inverse, classes=classes, **held)
        _, run = pcg_solve(SimpleNamespace(matvec=matvec, skips_leading_terms=skips), classed, f)
        _, plain = pcg_solve(op, SimpleNamespace(apply_inverse=P.apply_inverse), f)
        assert applies == products == [1] * run.iterations
        assert run.residual_history == plain.residual_history


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

    def test_vanished_curvature(self):
        # The swap operator takes e_1 to e_2: p^T A p = 0 with A p != 0, so
        # the curvature is zero on the scale of ||p|| ||Ap|| = 1.  (A zero
        # operator has scale 0 and is refused as negative instead.)
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(BreakdownError, match="vanished"):
            pcg_solve(DenseOperator(A), DensePreconditioner(np.eye(2)), np.array([1.0, 0.0]))


class TestConditionEstimate:
    def test_exact_preconditioner_estimate_near_one(self):
        A, f = spd_problem()
        _, report = pcg_solve(DenseOperator(A), DensePreconditioner(A), f)
        np.testing.assert_allclose(estimate_condition(report), 1.0, rtol=1e-6)

    def test_unavailable_without_iterations(self):
        A, _ = spd_problem()
        _, report = pcg_solve(DenseOperator(A), DensePreconditioner(A), np.zeros(40))
        with pytest.raises(UnavailableError):
            estimate_condition(report)

    def test_unavailable_for_indefinite_lanczos_matrix(self):
        report = SolveReport(1, [1.0, 0.5], False, cg_alphas=[-1.0])
        with pytest.raises(UnavailableError, match="not positive definite"):
            estimate_condition(report)


class TestOnAssembledSystem:
    def test_trunc_preconditioner_counts_drop(self):
        op, f, _ = SmallConfig(level=3, M=4, sigma_tilde=4.0).build()
        K0_factor = CholeskyFactor(op.terms[0][1])
        counts = {}
        for r in (0, 2, 4):
            P = build_trunc_exact(K0_factor, op.terms[: r + 1])
            _, report = pcg_solve(op, P, f)
            counts[r] = report.iterations
            assert report.converged
        assert counts[4] <= counts[2] <= counts[0]

    def test_solution_satisfies_system(self):
        op, f, _ = SmallConfig(level=3).build()
        P = build_mean_based(CholeskyFactor(op.terms[0][1]))
        x, _ = pcg_solve(op, P, f)
        np.testing.assert_allclose(
            op.matvec(x), f, atol=2e-6 * np.linalg.norm(f)
        )
