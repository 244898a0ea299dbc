import math

import numpy as np
import pytest
import scipy.sparse as sp

from sgkron import fem2d, kronsys
from sgkron.fem2d import build_mesh
from sgkron.kronsys import (
    KroneckerSumOperator,
    as_blocks,
    assemble_dense,
    assemble_sparse,
    build_affine_system,
    build_lognormal_system,
    from_blocks,
    matvec,
)
from sgkron.multiindex import build_index_set
from sgkron.precond import build_kron

SLOW_NORMS = [0.6079, 0.1520, 0.0675, 0.0380, 0.0243, 0.0169]


def tiny_affine(level=2, M=3, k=2, sigma=2.0):
    return build_affine_system(build_mesh(level), M=M, k=k, sigma_tilde=sigma)


def tiny_lognormal(level=2, M=3, k=2, N=6):
    return build_lognormal_system(
        build_mesh(level), M=M, k=k, N=N, sigma_tilde=2.0, alpha_bar=0.547
    )


class TestBlockLayout:
    def test_roundtrip(self):
        rng = np.random.default_rng(42)
        v = rng.standard_normal(5 * 3)
        V = as_blocks(v, nx=3, ny=5)
        assert V.shape == (3, 5)
        np.testing.assert_array_equal(from_blocks(V), v)

    def test_block_columns_are_contiguous_slices(self):
        v = np.arange(12.0)
        V = as_blocks(v, nx=4, ny=3)
        np.testing.assert_array_equal(V[:, 0], v[:4])
        np.testing.assert_array_equal(V[:, 2], v[8:])


class TestMatvecHandOracle:
    def test_single_kronecker_term(self):
        G = np.array([[2.0, 1.0], [1.0, 3.0]])
        K = np.array([[4.0, -1.0], [-1.0, 2.0]])
        op = KroneckerSumOperator(
            terms=((sp.csr_matrix(G), sp.csr_matrix(K)),), ny=2, nx=2
        )
        A = np.kron(G, K)
        rng = np.random.default_rng(42)
        for _ in range(5):
            v = rng.standard_normal(4)
            np.testing.assert_allclose(matvec(op, v), A @ v, rtol=1e-14)

    def test_two_terms_sum(self):
        rng = np.random.default_rng(42)
        G1, K1 = rng.standard_normal((3, 3)), rng.standard_normal((2, 2))
        G2, K2 = rng.standard_normal((3, 3)), rng.standard_normal((2, 2))
        op = KroneckerSumOperator(
            terms=(
                (sp.csr_matrix(G1), sp.csr_matrix(K1)),
                (sp.csr_matrix(G2), sp.csr_matrix(K2)),
            ),
            ny=3,
            nx=2,
        )
        A = np.kron(G1, K1) + np.kron(G2, K2)
        v = rng.standard_normal(6)
        np.testing.assert_allclose(matvec(op, v), A @ v, rtol=1e-13)


class TestMatvecVsDense:
    def test_affine(self):
        op, _, _ = tiny_affine()
        A = assemble_dense(op)
        rng = np.random.default_rng(42)
        for _ in range(20):
            v = rng.standard_normal(op.dim)
            np.testing.assert_allclose(
                matvec(op, v), A @ v, rtol=1e-12, atol=1e-12 * np.linalg.norm(v)
            )

    def test_lognormal(self):
        op, _, _ = tiny_lognormal()
        A = assemble_dense(op)
        rng = np.random.default_rng(42)
        for _ in range(20):
            v = rng.standard_normal(op.dim)
            np.testing.assert_allclose(
                matvec(op, v), A @ v, rtol=1e-12, atol=1e-12 * np.linalg.norm(v)
            )

    def test_sparse_equals_dense(self):
        op, _, _ = tiny_affine()
        np.testing.assert_allclose(
            assemble_sparse(op).toarray(), assemble_dense(op), atol=1e-14
        )

    def test_operator_is_symmetric(self):
        op, _, _ = tiny_affine()
        A = assemble_dense(op)
        np.testing.assert_allclose(A, A.T, atol=1e-13)

    def test_dense_guard(self):
        op, _, _ = build_affine_system(build_mesh(4), M=8, k=4, sigma_tilde=4.0)
        with pytest.raises(ValueError):
            assemble_dense(op)


class TestAffineSystem:
    def test_shapes_and_term_count(self):
        op, f, ctx = tiny_affine(M=4, k=3)
        assert len(op.terms) == 5
        assert op.ny == len(ctx.index_set) == 35
        assert op.nx == 9
        assert f.shape == (op.dim,)

    def test_load_in_mean_block_only(self):
        op, f, ctx = tiny_affine()
        nx = op.nx
        np.testing.assert_allclose(f[:nx], ctx.mesh.h**2 * np.ones(nx), rtol=0)
        assert np.all(f[nx:] == 0.0)

    def test_mean_field_extrema(self):
        _, _, ctx = tiny_affine()
        assert ctx.a0_min == ctx.a0_max == 1.0

    def test_norm_table_matches_reference_decay(self):
        _, _, ctx = build_affine_system(
            build_mesh(2), M=6, k=1, sigma_tilde=2.0, alpha_bar_mode=0.6079
        )
        np.testing.assert_allclose(ctx.norm_table, SLOW_NORMS, atol=5e-5)

    def test_tau_table_monotone_below_one(self):
        _, _, ctx = tiny_affine(M=6)
        taus = np.asarray(ctx.tau_table)
        assert taus[0] == 0.0
        assert np.all(np.diff(taus) >= 0)
        assert ctx.tau == taus[-1] < 1.0

    def test_block_row_sparsity(self):
        # Each block-row of A couples to at most 2M + 1 blocks.
        op, _, ctx = tiny_affine(M=3, k=3)
        A = assemble_dense(op)
        ny, nx = op.ny, op.nx
        blocks = np.abs(A.reshape(ny, nx, ny, nx)).sum(axis=(1, 3)) > 0
        assert blocks.sum(axis=1).max() <= 2 * 3 + 1

    def test_alpha_bar_modes(self):
        mesh = build_mesh(2)
        _, _, auto_ctx = build_affine_system(mesh, 2, 1, 2.0, alpha_bar_mode="auto")
        _, _, fixed_ctx = build_affine_system(mesh, 2, 1, 2.0, alpha_bar_mode=0.5)
        np.testing.assert_allclose(auto_ctx.alpha_bar, 0.60787, atol=1e-5)
        assert fixed_ctx.alpha_bar == 0.5

    def test_sum_norms_prefix(self):
        _, _, ctx = tiny_affine(M=4)
        np.testing.assert_allclose(ctx.sum_norms(2), sum(ctx.norm_table[:2]), rtol=0)
        assert ctx.sum_norms(0) == 0.0


class TestLognormalSystem:
    def test_ordering_descending_zero_first(self):
        _, _, ctx = tiny_lognormal()
        mags = [t.magnitude for t in ctx.ordered_terms]
        assert all(b <= a for a, b in zip(mags, mags[1:]))
        assert ctx.ordered_terms[0].alpha == (0, 0, 0)

    def test_term_count_covers_doubled_degree(self):
        # Expansion runs over I_{2k}^M.
        from sgkron.multiindex import dimension

        _, _, ctx = tiny_lognormal(M=3, k=2)
        assert len(ctx.ordered_terms) == dimension(3, 4)

    def test_even_flag(self):
        _, _, ctx = tiny_lognormal()
        for t in ctx.ordered_terms:
            assert t.even == all(a % 2 == 0 for a in t.alpha)

    def test_operator_drops_vanishing_gram_factors(self):
        op, _, ctx = tiny_lognormal()
        assert len(op.terms) <= len(ctx.ordered_terms)
        for G, K in op.terms:
            assert G.nnz > 0

    def test_leading_terms(self):
        _, _, ctx = tiny_lognormal()
        lead = ctx.leading_terms(3)
        assert len(lead) == 4
        assert lead[0].alpha == (0, 0, 0)
        with pytest.raises(ValueError):
            ctx.leading_terms(-1)

    def test_requires_more_sources_than_active_parameters(self):
        with pytest.raises(ValueError):
            build_lognormal_system(
                build_mesh(2), M=6, k=1, N=6, sigma_tilde=2.0, alpha_bar=0.547
            )

    def test_system_symmetric_and_load(self):
        op, f, _ = tiny_lognormal()
        A = assemble_dense(op)
        np.testing.assert_allclose(A, A.T, atol=1e-12)
        assert np.any(f[: op.nx] != 0.0)
        assert np.all(f[op.nx :] == 0.0)

    def test_dense_system_is_positive_definite(self):
        op, _, _ = tiny_lognormal()
        w = np.linalg.eigvalsh(assemble_dense(op))
        assert w.min() > 0


def term_sum_matvec(op, v):
    # Oracle: the per-term Kronecker sum over op.terms.
    V = as_blocks(v, op.nx, op.ny)
    out = np.zeros((op.ny, op.nx))
    for G, K in op.terms:
        out += G @ (K @ V).T
    return out.ravel()


def table6_lognormal(level, k):
    return build_lognormal_system(
        build_mesh(level), M=6, k=k, N=20, sigma_tilde=2.0, alpha_bar=0.547
    )


class TestRecompressedOperator:
    @pytest.mark.parametrize("level", [2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_term_sum(self, level, k):
        op, _, _ = table6_lognormal(level, k)
        assert op.rank < len(op.terms)
        rng = np.random.default_rng(42)
        for _ in range(5):
            v = rng.standard_normal(op.dim)
            ref = term_sum_matvec(op, v)
            err = np.linalg.norm(op.matvec(v) - ref) / np.linalg.norm(ref)
            assert err <= 1e-13

    def test_table6_ranks(self):
        # Numerical rank of the stacked K values at RANK_TOL, mesh level 4.
        op, _, _ = table6_lognormal(4, 1)
        assert (op.rank, len(op.terms)) == (19, 28)

    @pytest.mark.parametrize("M", [4, 8])
    def test_affine_keeps_term_loop(self, M):
        op, _, _ = build_affine_system(build_mesh(3), M=M, k=2, sigma_tilde=2.0)
        assert op.rank == len(op.terms) == M + 1
        v = np.random.default_rng(42).standard_normal(op.dim)
        np.testing.assert_array_equal(op.matvec(v), term_sum_matvec(op, v))

    def test_unsymmetric_terms_keep_term_loop(self):
        # Two terms with proportional (rank-one) but unsymmetric K values.
        K = sp.csr_matrix(np.array([[2.0, 1.0], [0.5, 3.0]]))
        G = sp.csr_matrix(np.eye(2))
        op = KroneckerSumOperator(terms=((G, K), (G, 2.0 * K)), ny=2, nx=2)
        assert op.rank == 2

    def test_proportional_terms_collapse(self):
        # Symmetric K values of rank one: one recompressed term, exact sum.
        K = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        G1 = sp.csr_matrix(np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 2.0]]))
        G2 = sp.csr_matrix(np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        op = KroneckerSumOperator(terms=((G1, K), (G2, -3.0 * K)), ny=3, nx=2)
        assert op.rank == 1
        A = np.kron(G1.toarray(), K.toarray()) - 3.0 * np.kron(G2.toarray(), K.toarray())
        v = np.random.default_rng(42).standard_normal(6)
        np.testing.assert_allclose(op.matvec(v), A @ v, rtol=1e-14, atol=1e-14)

    def test_quad_values_match_per_alpha_loop(self):
        # Reference: each a_alpha formed on its own by the slot loop.
        mesh = build_mesh(3)
        b0 = fem2d.fourier_coefficient(0, 2.0, 0.547)
        b_fields = [fem2d.fourier_coefficient(m, 2.0, 0.547) for m in range(1, 7)]
        alphas = list(build_index_set(4, 4))
        vals = kronsys._expansion_quad_values(mesh, alphas, b_fields, b0)
        xq1, xq2 = fem2d.quadrature_points(mesh)
        Bq = [b(xq1, xq2) for b in b_fields]
        Eq = np.exp(b0(xq1, xq2) + 0.5 * sum(b * b for b in Bq))
        for alpha, got in zip(alphas, vals):
            ref = Eq
            for m, a in enumerate(alpha):
                if a:
                    ref = ref * Bq[m] ** a / math.sqrt(math.factorial(a))
            np.testing.assert_array_equal(got, ref)

    def test_build_kron_parametric_factor(self):
        # build_kron reads op.terms, so its Frobenius fit is unchanged by the
        # recompression; reference: K_alpha assembled one at a time from
        # the lognormal expansion coefficients.
        op, _, ctx = table6_lognormal(3, 2)
        live = [t for t in ctx.ordered_terms if t.G is not None]
        K_ref = [
            fem2d.assemble_stiffness(
                ctx.mesh, fem2d.lognormal_expansion_coeff(t.alpha, ctx.b_fields, ctx.b0)
            )
            for t in live
        ]
        K0 = K_ref[0]
        G_ref = sum(
            (K.multiply(K0).sum() / K0.multiply(K0).sum()) * t.G.toarray()
            for t, K in zip(live, K_ref)
        )
        P = build_kron(op.terms)
        np.testing.assert_allclose(P.G, G_ref, rtol=1e-13, atol=1e-15)
