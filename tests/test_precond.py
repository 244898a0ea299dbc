import numpy as np
import pytest
import scipy.sparse as sp

from sgkron import precond, verify
from sgkron.fem2d import assemble_stiffness, build_mesh, fourier_coefficient
from sgkron.kronsys import assemble_dense, leading_terms
from sgkron.multiindex import build_index_set
from sgkron.pcg import BreakdownError, SolverConfig, pcg_solve
from sgkron.precond import (
    CholeskyFactor,
    NotPositiveDefiniteError,
    build_kron,
    build_mean_based,
    build_sbgs,
    build_trunc_exact,
)
from sgkron.verify import SmallConfig


def tiny_affine(level=2, M=3, k=2, sigma=2.0):
    return SmallConfig("affine", level, M, k, sigma_tilde=sigma).build()


def tiny_lognormal(level=2, M=3, k=3, N=6):
    return SmallConfig("lognormal", level, M, k, N=N).build()


def k0_factor(op):
    """The factor of the mean stiffness K_0 that every builder is passed."""
    return CholeskyFactor(op.terms[0][1])


def dense_apply_inverse(P, n):
    cols = [P.apply_inverse(e) for e in np.eye(n)]
    return np.stack(cols, axis=1)


class TestCholeskyFactor:
    """Runs on the dense path; TestCholeskyFactorSuperLU reruns every case
    on the sparse one."""

    @pytest.fixture(autouse=True)
    def factor_path(self, monkeypatch):
        monkeypatch.setattr(precond, "DENSE_SOLVE_MAX", 10**9)

    def test_hand_example_solve(self):
        A = np.array([[4.0, 2.0], [2.0, 3.0]])
        factor = CholeskyFactor(sp.csc_matrix(A))
        b = np.array([1.0, -2.0])
        np.testing.assert_allclose(factor.solve(b), np.linalg.solve(A, b), rtol=1e-14)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            CholeskyFactor(sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]])))

    def test_hollow_symmetric_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            CholeskyFactor(sp.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))

    def test_negative_definite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            CholeskyFactor(sp.csc_matrix(-np.eye(3)))

    def test_random_spd_roundtrip(self):
        rng = np.random.default_rng(42)
        R = rng.standard_normal((30, 30))
        A = R.T @ R + 30.0 * np.eye(30)
        factor = CholeskyFactor(sp.csc_matrix(A))
        b = rng.standard_normal(30)
        np.testing.assert_allclose(factor.solve(b), np.linalg.solve(A, b), rtol=1e-10)

    def test_multi_rhs_solve(self):
        rng = np.random.default_rng(42)
        A = np.diag([2.0, 5.0, 7.0])
        factor = CholeskyFactor(sp.csc_matrix(A))
        B = rng.standard_normal((3, 4))
        np.testing.assert_allclose(factor.solve(B), np.linalg.solve(A, B), rtol=1e-14)


class TestCholeskyFactorSuperLU(TestCholeskyFactor):
    @pytest.fixture(autouse=True)
    def factor_path(self, monkeypatch):
        monkeypatch.setattr(precond, "DENSE_SOLVE_MAX", 0)


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_laplacian_k0_takes_the_sine_path(level):
    # The affine K_0 is the grid Laplacian at every level: from order
    # SINE_SOLVE_MIN (level 4) up it takes the sine path, with no LAPACK or
    # SuperLU factor, and below it the dense inverse.  Checked against
    # LAPACK's general solver; cond(K_0) < 1e3 up to level 5, so 1e-11
    # leaves a wide margin over cond * eps.
    K0 = assemble_stiffness(build_mesh(level), fourier_coefficient(0, 2.0, 0.6))
    factor = CholeskyFactor(K0)
    sine = factor.n >= precond.SINE_SOLVE_MIN
    assert sine == (level >= 4)
    assert (factor._sine is not None) == sine
    assert (factor._inv is not None) == (not sine)
    assert factor._lu is None
    rng = np.random.default_rng(level)
    A = K0.toarray()
    b = rng.standard_normal(factor.n)
    B = rng.standard_normal((45, factor.n)).T  # the transposed block layout
    for rhs in (b, B):
        x_ref = np.linalg.solve(A, rhs)
        rhs.setflags(write=False)
        x = factor.solve(rhs)
        assert x.shape == rhs.shape
        assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-11


@pytest.mark.parametrize("level, dense", [(3, True), (4, True), (5, False)])
def test_factor_solves_real_k0(level, dense):
    # Both sides of the dense/SuperLU cutoff at its shipped value, on a
    # variable-coefficient stiffness (not a grid Laplacian), against
    # LAPACK's general solver.  cond < 1e3 up to level 5, so 1e-11 leaves
    # a wide margin over cond * eps for either path.
    mesh = build_mesh(level)
    K0 = assemble_stiffness(
        mesh, lambda x1, x2: 2.0 + np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * x2)
    )
    factor = CholeskyFactor(K0)
    assert factor._sine is None
    assert (factor.n <= precond.DENSE_SOLVE_MAX) == dense
    assert (factor._lu is None) == dense
    rng = np.random.default_rng(level)
    A = K0.toarray()
    b = rng.standard_normal(factor.n)
    B = rng.standard_normal((45, factor.n)).T  # the transposed block layout
    for rhs in (b, B):
        x_ref = np.linalg.solve(A, rhs)
        err = np.linalg.norm(factor.solve(rhs) - x_ref) / np.linalg.norm(x_ref)
        assert err < 1e-11


class TestMeanBased:
    def test_blockwise_mean_solve(self):
        op, _, _ = tiny_affine()
        K0 = op.terms[0][1]
        P = build_mean_based(CholeskyFactor(K0), op.ny)
        rng = np.random.default_rng(42)
        v = rng.standard_normal(op.dim)
        expected = np.linalg.solve(np.kron(np.eye(op.ny), K0.toarray()), v)
        np.testing.assert_allclose(P.apply_inverse(v), expected, rtol=1e-10)

    def test_equals_trunc_r0(self):
        op, _, _ = tiny_affine()
        P_mean = build_mean_based(k0_factor(op), op.ny)
        P_trunc = build_trunc_exact(op.terms[:1], op.ny, op.nx)
        rng = np.random.default_rng(42)
        v = rng.standard_normal(op.dim)
        np.testing.assert_allclose(
            P_mean.apply_inverse(v), P_trunc.apply_inverse(v), rtol=1e-12
        )


class TestKroneckerProduct:
    def test_apply_inverse(self):
        op, _, _ = tiny_affine()
        P = build_kron(op.terms, k0_factor(op))
        K0 = op.terms[0][1].toarray()
        dense = np.kron(P.G.toarray(), K0)
        rng = np.random.default_rng(42)
        v = rng.standard_normal(op.dim)
        np.testing.assert_allclose(
            P.apply_inverse(v), np.linalg.solve(dense, v), rtol=1e-10
        )

    def test_indefinite_parametric_factor_rejected(self):
        # A dominant constant fluctuation makes the Frobenius-optimal G
        # indefinite (1 +/- w c eigenvalues with w large).
        from sgkron.fem2d import assemble_stiffness, constant_field
        from sgkron.gram import gram_identity, gram_linear

        mesh = build_mesh(2)
        S = build_index_set(1, 2)
        K0 = assemble_stiffness(mesh, constant_field(1.0))
        K1 = assemble_stiffness(mesh, constant_field(5.0))
        terms = ((gram_identity(len(S)), K0), (gram_linear(1, S), K1))
        with pytest.raises(NotPositiveDefiniteError):
            build_kron(terms, CholeskyFactor(K0))

    def test_non_finite_parametric_factor_rejected(self):
        # A NaN stiffness value makes its Frobenius weight, and so G, NaN.
        op, _, _ = tiny_affine()
        (G0, K0), (G1, K1), *rest = op.terms
        K1 = K1.copy()
        K1.data[0] = np.nan
        with pytest.raises(BreakdownError):
            build_kron([(G0, K0), (G1, K1), *rest], k0_factor(op))


class TestKroneckerProductSuperLU(TestKroneckerProduct):
    """Reruns every case with G (and K_0) factorized by SuperLU."""

    @pytest.fixture(autouse=True)
    def factor_path(self, monkeypatch):
        monkeypatch.setattr(precond, "DENSE_SOLVE_MAX", 0)


@pytest.mark.parametrize("build", [tiny_affine, tiny_lognormal])
def test_build_kron_sums_weighted_terms_exactly(build):
    # G is sum_i w_i G_i added entry by entry in term order, as a dense
    # accumulation does it, so equal to it bit for bit.
    op, _, _ = build()
    K0 = op.terms[0][1]
    G_ref = np.zeros((op.ny, op.ny))
    for G_i, K_i in op.terms:
        G_ref += (K_i.multiply(K0).sum() / K0.multiply(K0).sum()) * G_i.toarray()
    G = build_kron(op.terms, k0_factor(op)).G
    assert G.format == "csr"
    assert np.array_equal(G.toarray(), G_ref)


class TestTruncExact:
    def test_full_truncation_equals_system(self):
        op, f, _ = tiny_affine(M=3)
        P = build_trunc_exact(op.terms, op.ny, op.nx)
        x, report = pcg_solve(op, P, f, SolverConfig(tol=1e-10))
        assert report.iterations == 1
        np.testing.assert_allclose(op.matvec(x), f, atol=1e-10 * np.linalg.norm(f))

    def test_r_beyond_m_clamps(self):
        op, f, _ = tiny_affine(M=3)
        P = build_trunc_exact(leading_terms(op, 9), op.ny, op.nx)
        _, report = pcg_solve(op, P, f, SolverConfig(tol=1e-10))
        assert report.iterations == 1

    def test_matches_dense_inverse(self):
        op, _, _ = tiny_affine()
        for r in (0, 1, 2):
            P = build_trunc_exact(op.terms[: r + 1], op.ny, op.nx)
            P_dense = assemble_dense(op.terms[: r + 1])
            rng = np.random.default_rng(42)
            v = rng.standard_normal(op.dim)
            np.testing.assert_allclose(
                P.apply_inverse(v), np.linalg.solve(P_dense, v), rtol=1e-9
            )

    def test_iterations_do_not_grow_with_r(self):
        op, f, _ = tiny_affine(M=4, k=3, sigma=2.0)
        counts = []
        for r in range(5):
            P = build_trunc_exact(op.terms[: r + 1], op.ny, op.nx)
            _, report = pcg_solve(op, P, f)
            counts.append(report.iterations)
        assert all(b <= a for a, b in zip(counts, counts[1:]))
        assert counts[-1] == 1

    def test_iterative_fallback_matches_direct(self, monkeypatch):
        # Force the beyond-guard path and compare against the factorized apply.
        op, _, _ = tiny_affine()
        direct = build_trunc_exact(op.terms[:3], op.ny, op.nx)
        monkeypatch.setattr(precond, "TRUNC_DIRECT_GUARD", 1)
        nested = build_trunc_exact(op.terms[:3], op.ny, op.nx)
        rng = np.random.default_rng(42)
        v = rng.standard_normal(op.dim)
        np.testing.assert_allclose(
            nested.apply_inverse(v), direct.apply_inverse(v), rtol=1e-9
        )

    def test_iterative_fallback_matches_direct_lognormal(self, monkeypatch):
        # The inner SBGS of a general pair list: Hermite diagonals and a
        # term coupling one block to two sources of a level (r = 4).
        op, _, _ = tiny_lognormal()
        pairs = leading_terms(op, 4)
        direct = build_trunc_exact(pairs, op.ny, op.nx)
        monkeypatch.setattr(precond, "TRUNC_DIRECT_GUARD", 1)
        nested = build_trunc_exact(pairs, op.ny, op.nx)
        rng = np.random.default_rng(42)
        v = rng.standard_normal(op.dim)
        np.testing.assert_allclose(
            nested.apply_inverse(v), direct.apply_inverse(v), rtol=1e-9
        )

    def test_one_factor_per_remaining_degree(self):
        # Affine r < M: the blocks of P_r are the tails (alpha_{r+1}, ..,
        # alpha_M), and blocks of equal remaining degree d = k - |tail| are
        # the same system, so P_r has one factor per distinct d.
        op, _, _ = tiny_affine(M=4, k=3)
        for r in (1, 2, 3):
            P = build_trunc_exact(op.terms[: r + 1], op.ny, op.nx)
            degrees = {3 - sum(alpha[r:]) for alpha in build_index_set(4, 3)}
            assert P.distinct_factor_count == len(degrees) == 4

    def test_equal_size_blocks_with_different_values(self):
        # Blocks {0, 1} and {2, 3} share size and pattern but not their
        # coupling values, so they need two factors.
        K0 = assemble_stiffness(build_mesh(2), fourier_coefficient(0, 2.0, 0.547))
        G1 = sp.csr_matrix(np.array(
            [[0, 0.2, 0, 0], [0.2, 0, 0, 0], [0, 0, 0, 0.4], [0, 0, 0.4, 0]]
        ))
        pairs = ((sp.identity(4, format="csr"), K0), (G1, K0))
        P = build_trunc_exact(pairs, 4, K0.shape[0])
        assert P.distinct_factor_count == 2
        P_dense = assemble_dense(pairs)
        v = np.random.default_rng(42).standard_normal(P_dense.shape[0])
        np.testing.assert_allclose(P.apply_inverse(v), np.linalg.solve(P_dense, v), rtol=1e-12)

    def test_cutoff_counts_unknowns_per_block(self, monkeypatch):
        # A cutoff of one parametric index per block factors the d = 0
        # blocks (a K_0 each) and solves the rest with the nested CG.
        op, _, _ = tiny_affine(M=4, k=3)
        monkeypatch.setattr(precond, "TRUNC_DIRECT_GUARD", op.nx)
        P = build_trunc_exact(op.terms[:3], op.ny, op.nx)
        assert P.distinct_factor_count == 1
        rng = np.random.default_rng(42)
        v = rng.standard_normal(op.dim)
        P_dense = assemble_dense(op.terms[:3])
        np.testing.assert_allclose(P.apply_inverse(v), np.linalg.solve(P_dense, v), rtol=1e-9)

    def test_indefinite_truncation_rejected_direct(self):
        op, _, _ = tiny_lognormal()
        pairs = leading_terms(op, 1)
        with pytest.raises(NotPositiveDefiniteError):
            build_trunc_exact(pairs, op.ny, op.nx)


class TestSbgsAffine:
    def test_reuses_callers_k0_factor(self, monkeypatch):
        op, _, _ = tiny_affine()
        K0_factor = k0_factor(op)
        built = []
        init = CholeskyFactor.__init__

        def counting_init(self, K):
            built.append(K)
            init(self, K)

        monkeypatch.setattr(CholeskyFactor, "__init__", counting_init)
        P = build_sbgs(K0_factor, op.terms, op.ny, op.nx)
        assert P.distinct_factor_count == 1
        assert built == []

    def test_empty_terms_reduce_to_mean(self):
        op, _, _ = tiny_affine()
        K0 = k0_factor(op)
        P_sbgs = build_sbgs(K0, op.terms[:1], op.ny, op.nx)
        P_mean = build_mean_based(K0, op.ny)
        rng = np.random.default_rng(42)
        v = rng.standard_normal(op.dim)
        np.testing.assert_allclose(
            P_sbgs.apply_inverse(v), P_mean.apply_inverse(v), rtol=1e-12
        )

    def test_spectrum_above_truncation(self):
        # Lambda(P_r^{-1} P_tilde_r) sits in [1, 1 + delta_r].
        from sgkron.spectral import affine_bounds, eig_range

        op, _, ctx = tiny_affine()
        r = 2
        P_r = assemble_dense(op.terms[: r + 1])
        P = build_sbgs(k0_factor(op), op.terms[: r + 1], op.ny, op.nx)
        P_tilde = np.linalg.inv(dense_apply_inverse(P, op.dim))
        lo, hi = eig_range(P_r, P_tilde)
        bounds = affine_bounds(ctx, r)
        assert lo >= 1.0 - 1e-8
        assert hi <= 1.0 + bounds.delta_r + 1e-8


class TestSbgsLognormal:
    def test_reuses_callers_k0_factor(self, monkeypatch):
        # The blocks whose diagonal comes from the zero multi-index term
        # alone (block 0 at least) are exactly K_0: the caller's factor
        # serves them, and only the other signatures are factorized.
        op, _, _ = tiny_lognormal()
        K0 = op.terms[0][1]
        K0_factor = CholeskyFactor(K0)
        built = []
        init = CholeskyFactor.__init__

        def counting_init(self, K):
            built.append(K)
            init(self, K)

        monkeypatch.setattr(CholeskyFactor, "__init__", counting_init)
        for r in (1, 3, 6):
            built.clear()
            P = build_sbgs(K0_factor, leading_terms(op, r), op.ny, op.nx)
            assert len(built) == P.distinct_factor_count - 1
            assert all(abs(D - K0).max() > 0 for D in built)

    def test_dense_identity(self):
        op, _, _ = tiny_lognormal()
        for r in (3, 4):
            pairs = leading_terms(op, r)
            # At r = 4 the term alpha = (1, 1, 0) couples one block to two
            # lower sources, so a sweep step meets one target twice per term.
            max_row_couplings = max(
                np.diff(sp.tril(G, k=-1).tocsr().indptr).max() for G, _ in pairs
            )
            assert max_row_couplings == (2 if r == 4 else 1)
            verify.prop_precond_dense_formula(SmallConfig("lognormal", k=3, r=r))

    def test_backward_sweep_solves_receiving_blocks_only(self, monkeypatch):
        # The forward sweep solves every block once, the backward sweep only
        # the blocks a backward coupling lands on: the sources of L.
        op, _, _ = tiny_lognormal()
        x = np.random.default_rng(42).standard_normal(op.dim)
        cols = []
        solve = CholeskyFactor.solve

        def counting(self, b):
            cols.append(1 if b.ndim == 1 else b.shape[1])
            return solve(self, b)

        monkeypatch.setattr(CholeskyFactor, "solve", counting)
        for r in (1, 4):
            pairs = leading_terms(op, r)
            P = build_sbgs(k0_factor(op), pairs, op.ny, op.nx)
            lower = [sp.tril(G, k=-1).tocoo() for G, _ in pairs]
            receiving = np.unique(np.concatenate([L.col for L in lower]))
            assert 0 < len(receiving) < op.ny
            cols.clear()
            P.apply_inverse(x)
            assert sum(cols) == op.ny + len(receiving)

    def test_spd_even_when_truncation_is_not(self):
        # At k=3 the two-term truncation is indefinite, its splitting is not.
        op, _, _ = tiny_lognormal()
        pairs = leading_terms(op, 1)
        P_r = assemble_dense(pairs)
        assert np.linalg.eigvalsh(P_r).min() < 0

        P = build_sbgs(k0_factor(op), pairs, op.ny, op.nx)
        P_tilde = np.linalg.inv(dense_apply_inverse(P, op.dim))
        P_tilde = 0.5 * (P_tilde + P_tilde.T)
        assert np.linalg.eigvalsh(P_tilde).min() > 0

    def test_requires_zero_lead(self):
        op, _, _ = tiny_lognormal()
        pairs = leading_terms(op, 2)
        with pytest.raises(ValueError):
            build_sbgs(k0_factor(op), pairs[1:], 10, 9)
        with pytest.raises(ValueError):
            build_sbgs(k0_factor(op), [], 10, 9)

    def test_factor_cache_bounded(self):
        op, _, _ = tiny_lognormal()
        P = build_sbgs(k0_factor(op), leading_terms(op, 4), op.ny, op.nx)
        assert 1 <= P.distinct_factor_count <= op.ny

    def test_solves_system(self):
        op, f, _ = tiny_lognormal(k=2)
        P = build_sbgs(k0_factor(op), leading_terms(op, 2), op.ny, op.nx)
        x, report = pcg_solve(op, P, f)
        assert report.converged
        np.testing.assert_allclose(op.matvec(x), f, atol=1e-5 * np.linalg.norm(f))


class TestReadOnlyInput:
    @pytest.mark.parametrize("dense_solve_max", [precond.DENSE_SOLVE_MAX, 0])
    def test_inputs_stay_unchanged(self, monkeypatch, dense_solve_max):
        # matvec and every apply_inverse read their input through the row
        # view v.reshape(ny, nx), which aliases the caller's PCG vector: a
        # read-only input must work, on every spatial-solve path, and come
        # back as a new flat vector equal to the one a writable input gives.
        # The tiny systems' K_0, D_jj and blocks are all below SINE_SOLVE_MIN,
        # so they take the dense or the SuperLU path by the cutoff; the
        # Laplacian path is checked in test_laplacian_k0_takes_the_sine_path.
        monkeypatch.setattr(precond, "DENSE_SOLVE_MAX", dense_solve_max)
        aff, _, _ = tiny_affine()
        log, _, _ = tiny_lognormal()
        log_pairs = leading_terms(log, 4)
        aff_K0, log_K0 = k0_factor(aff), k0_factor(log)
        cases = [
            (aff, aff.matvec),
            (log, log.matvec),
            (aff, build_mean_based(aff_K0, aff.ny).apply_inverse),
            (aff, build_kron(aff.terms, aff_K0).apply_inverse),
            (aff, build_trunc_exact(aff.terms[:3], aff.ny, aff.nx).apply_inverse),
            (log, build_trunc_exact(log_pairs, log.ny, log.nx).apply_inverse),
            (aff, build_sbgs(aff_K0, aff.terms[:3], aff.ny, aff.nx).apply_inverse),
            (log, build_sbgs(log_K0, log_pairs, log.ny, log.nx).apply_inverse),
        ]
        monkeypatch.setattr(precond, "TRUNC_DIRECT_GUARD", 1)  # the nested path
        for op, pairs, r in ((aff, aff.terms[:3], 2), (log, log_pairs, 4)):
            P = build_trunc_exact(pairs, op.ny, op.nx)
            assert P.distinct_factor_count == 0
            cases.append((op, P.apply_inverse))
        for op, apply in cases:
            v = np.random.default_rng(42).standard_normal(op.dim)
            expected = apply(v.copy())
            v.setflags(write=False)
            out = apply(v)
            assert out.shape == (op.dim,)
            assert not np.shares_memory(out, v)
            np.testing.assert_array_equal(out, expected)
