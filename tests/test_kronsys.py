import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

from sgkron import fem2d, gram, kronsys
from sgkron.fem2d import build_mesh
from sgkron.kronsys import (
    KroneckerSumOperator,
    assemble_dense,
    assemble_sparse,
    build_affine_system,
    build_lognormal_system,
    leading_terms,
)
from sgkron.multiindex import build_index_set, dimension
from sgkron.precond import CholeskyFactor, build_kron
from sgkron.verify import LOGNORMAL_ALPHA_BAR, SmallConfig

SLOW_NORMS = [0.6079, 0.1520, 0.0675, 0.0380, 0.0243, 0.0169]


def tiny_affine(level=2, M=3, k=2, sigma=2.0):
    return SmallConfig("affine", level, M, k, sigma_tilde=sigma).build()


def tiny_lognormal(level=2, M=3, k=2, N=6):
    return SmallConfig("lognormal", level, M, k, N=N).build()


def lognormal_expansion(N, sigma=2.0):
    """b_0 and b_1..b_N of the lognormal systems above."""
    b0 = fem2d.fourier_coefficient(0, sigma, LOGNORMAL_ALPHA_BAR)
    b_fields = [fem2d.fourier_coefficient(m, sigma, LOGNORMAL_ALPHA_BAR) for m in range(1, N + 1)]
    return b0, b_fields


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
            np.testing.assert_allclose(op.matvec(v), A @ v, rtol=1e-14)

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
        np.testing.assert_allclose(op.matvec(v), A @ v, rtol=1e-13)


class TestMatvecVsDense:
    def test_sparse_equals_dense(self):
        op, _, _ = tiny_affine()
        np.testing.assert_allclose(
            assemble_sparse(op.terms).toarray(), assemble_dense(op.terms), atol=1e-14
        )

    def test_dense_guard(self):
        op, _, _ = tiny_affine(level=4, M=8, k=4, sigma=4.0)
        with pytest.raises(ValueError):
            assemble_dense(op.terms)


class TestAffineSystem:
    def test_shapes_and_term_count(self):
        op, f, _ = tiny_affine(M=4, k=3)
        assert len(op.terms) == 5
        assert op.ny == len(build_index_set(4, 3)) == 35
        assert op.nx == 9
        assert f.shape == (op.dim,)

    def test_builds_sample_no_grid(self, monkeypatch):
        # The bound constants and the term order come from corner values;
        # the 257^2 grid is the oracle's only.
        def refuse():
            raise AssertionError("a build sampled the sup-norm grid")

        monkeypatch.setattr(fem2d, "sample_grid", refuse)
        tiny_affine()
        tiny_lognormal()

    def test_mean_field_extrema(self):
        _, _, ctx = tiny_affine()
        assert ctx.a0_min == ctx.a0_max == 1.0

    def test_norm_table_matches_reference_decay(self):
        _, _, ctx = build_affine_system(
            build_mesh(2), M=6, k=1, sigma_tilde=2.0, alpha_bar=0.6079
        )
        np.testing.assert_allclose(ctx.norm_table, SLOW_NORMS, atol=5e-5)

    def test_tau_table_monotone_below_one(self):
        _, _, ctx = tiny_affine(M=6)
        taus = np.asarray(ctx.tau_table)
        assert taus[0] == 0.0
        assert np.all(np.diff(taus) >= 0)
        assert ctx.tau == taus[-1] < 1.0

    def test_auto_and_explicit_amplitude(self):
        # The auto amplitude is resolved before the build; the builder takes
        # the amplitude as given (||a_1||_inf = alpha_bar).
        np.testing.assert_allclose(fem2d.auto_alpha_bar(2.0), 0.60787, atol=1e-5)
        _, _, ctx = build_affine_system(build_mesh(2), 2, 1, 2.0, alpha_bar=0.5)
        np.testing.assert_allclose(ctx.norm_table[0], 0.5, atol=5e-5)

    def test_sum_norms_prefix(self):
        _, _, ctx = tiny_affine(M=4)
        np.testing.assert_allclose(ctx.sum_norms(2), sum(ctx.norm_table[:2]), rtol=0)
        assert ctx.sum_norms(0) == 0.0


class TestLeadingTerms:
    @pytest.mark.parametrize("problem", ["affine", "lognormal"])
    def test_prefix_clamped_past_the_expansion(self, problem):
        # P_r is the first r + 1 terms; T = M + 1 = 4 affine terms, and
        # |I_4^3| = 35 lognormal ones.
        op, _, _ = SmallConfig(problem, M=3, k=2).build()
        T = len(op.terms)
        assert T == (4 if problem == "affine" else 35)
        for r in (0, 1, T - 1, T, T + 5):
            assert leading_terms(op, r) == op.terms[: min(r + 1, T)]
        with pytest.raises(ValueError):
            leading_terms(op, -1)


class TestLognormalSystem:
    def test_ordering_descending_zero_first(self):
        # op.terms follows fem2d.order_by_magnitude over I_{2k}^M, with the
        # zero index moved to the front: G_alpha identifies each term.
        op, _, ctx = tiny_lognormal()
        assert ctx is None
        b0, b_fields = lognormal_expansion(6)
        ordered = fem2d.order_by_magnitude(build_index_set(3, 4), b_fields, b0)
        alphas = [(0, 0, 0)] + [alpha for alpha, _ in ordered if any(alpha)]
        mags = [mag for alpha, mag in ordered if any(alpha)]
        assert all(b <= a for a, b in zip(mags, mags[1:]))
        S = build_index_set(3, 2)
        assert len(op.terms) == len(alphas)
        for (G, _), alpha in zip(op.terms, alphas):
            assert (G != gram.gram_general(alpha, S)).nnz == 0, alpha

    def test_term_count_covers_doubled_degree(self):
        # Expansion runs over I_{2k}^M.
        op, _, _ = tiny_lognormal(M=3, k=2)
        assert len(op.terms) == dimension(3, 4)

    def test_operator_drops_vanishing_gram_factors(self):
        # No G_alpha with |alpha| <= 2k vanishes on I_k^M, so the operator
        # keeps every expansion term and none of its Gram factors is zero.
        op, _, _ = tiny_lognormal()
        assert len(op.terms) == dimension(3, 4)
        for G, K in op.terms:
            assert G.nnz > 0

    def test_requires_more_sources_than_active_parameters(self):
        with pytest.raises(ValueError):
            build_lognormal_system(
                build_mesh(2), M=6, k=1, N=6, sigma_tilde=2.0, alpha_bar=0.547
            )

    def test_dense_system_is_positive_definite(self):
        op, _, _ = tiny_lognormal()
        w = np.linalg.eigvalsh(assemble_dense(op.terms))
        assert w.min() > 0


def term_sum_matvec(op, v):
    # Oracle: the per-term Kronecker sum over op.terms.
    V = v.reshape(op.ny, op.nx)
    out = np.zeros((op.ny, op.nx))
    for G, K in op.terms:
        out += G @ (K @ V.T).T
    return out.ravel()


def table6_lognormal(level, k):
    return tiny_lognormal(level, M=6, k=k, N=20)


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
        # At level 1 every K_m is 1 x 1, so the values have rank 1; the G_m
        # leave block pairs uncoupled, so no dense Ghat_s is formed.
        for level, k in itertools.product((1, 3), (2, 3)):
            op, _, _ = tiny_affine(level=level, M=M, k=k)
            assert op.rank == len(op.terms) == M + 1
            if k == 3:  # every G_m, m >= 1, leaves some blocks uncoupled
                assert all(np.diff(G.indptr).min() == 0 for G, _ in op.terms[1:])
            v = np.random.default_rng(42).standard_normal(op.dim)
            np.testing.assert_array_equal(op.matvec(v), term_sum_matvec(op, v))

    def test_partial_support_unsymmetric_g(self):
        # G has empty rows {0, 3} but empty columns {1, 2}: the term loop
        # must write the rows G couples and read the columns it couples.
        G = sp.csr_matrix(
            np.array([[0, 0, 0, 0], [2.0, 0, 0, -1.0], [0.5, 0, 0, 0], [0, 0, 0, 0]])
        )
        K0 = sp.csr_matrix(np.array([[2.0, -1.0, 0], [-1.0, 2.0, -1.0], [0, -1.0, 2.0]]))
        K1 = sp.csr_matrix(np.array([[1.0, 3.0, 0], [0, 1.0, 0], [4.0, 0, 1.0]]))
        op = KroneckerSumOperator(
            terms=((sp.identity(4, format="csr"), K0), (G, K1)), ny=4, nx=3
        )
        assert op.rank == 2
        A = np.kron(np.eye(4), K0.toarray()) + np.kron(G.toarray(), K1.toarray())
        v = np.random.default_rng(42).standard_normal(12)
        np.testing.assert_allclose(op.matvec(v), A @ v, rtol=1e-14, atol=1e-14)

    def test_unsymmetric_terms_keep_term_loop(self):
        # Two terms with proportional (rank-one) but unsymmetric K values.
        K = sp.csr_matrix(np.array([[2.0, 1.0], [0.5, 3.0]]))
        G = sp.csr_matrix(np.eye(2))
        op = KroneckerSumOperator(terms=((G, K), (G, 2.0 * K)), ny=2, nx=2)
        assert op.rank == 2

    def test_proportional_terms_collapse(self):
        # Symmetric K values of rank one, and G_i that together couple every
        # pair of blocks: one recompressed term, exact sum.
        K = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        G1 = sp.csr_matrix(np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 2.0]]))
        G2 = sp.csr_matrix(np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]))
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
        op, _, _ = table6_lognormal(3, 2)
        b0, b_fields = lognormal_expansion(20)
        ordered = fem2d.order_by_magnitude(build_index_set(6, 4), b_fields, b0)
        ordered.sort(key=lambda term: any(term[0]))
        K_ref = [
            fem2d.assemble_stiffness(
                build_mesh(3), fem2d.lognormal_expansion_coeff(alpha, b_fields, b0)
            )
            for alpha, _ in ordered
        ]
        K0 = K_ref[0]
        G_ref = sum(
            (K.multiply(K0).sum() / K0.multiply(K0).sum()) * G.toarray()
            for (G, _), K in zip(op.terms, K_ref)
        )
        P = build_kron(op.terms, CholeskyFactor(op.terms[0][1]))
        np.testing.assert_allclose(P.G.toarray(), G_ref, rtol=1e-13, atol=1e-15)
