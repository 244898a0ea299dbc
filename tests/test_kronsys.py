import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from sgkron import fem2d, gram, grid, kronsys
from sgkron.fem2d import build_mesh
from sgkron.kronsys import (
    KroneckerSumOperator,
    assemble_dense,
    assemble_sparse,
    build_affine_system,
    build_lognormal_system,
)
from sgkron.multiindex import build_index_set, dimension
from sgkron.pcg import SolverConfig
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
            terms=((sp.csr_matrix(G), sp.csr_matrix(K)),)
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


class TestMaskedMatvec:
    """matvec(v, blocks) is A[:, blocks] v[blocks], by the assembled matrix."""

    @pytest.mark.parametrize("level", [1, 2])
    def test_equal_to_dense_columns(self, level):
        op, _, _ = tiny_affine(level=level, M=3, k=3)
        A = assemble_dense(op.terms)
        rng = np.random.default_rng(level)
        masks = [np.zeros(op.ny, bool), np.ones(op.ny, bool), *(rng.random((4, op.ny)) < 0.5)]
        for r in range(3):
            classes = op.parity_classes(r)
            masks += [classes, ~classes]
        for blocks in masks:
            cols = np.repeat(blocks, op.nx)
            for v in rng.standard_normal((2, op.dim)):
                want = A[:, cols] @ v[cols]
                np.testing.assert_allclose(op.matvec(v, blocks), want, rtol=0,
                                           atol=1e-14 * np.abs(A).sum(axis=1).max() * np.abs(v).max())

    def test_full_mask_is_the_plain_product(self):
        op, _, _ = tiny_affine()
        v = np.random.default_rng(0).standard_normal(op.dim)
        np.testing.assert_array_equal(op.matvec(v, np.ones(op.ny, bool)), op.matvec(v))

    def test_loop_built_once_per_mask(self):
        # mean and trunc_exact 0 read the same classes: one loop for both.
        op, _, _ = tiny_affine()
        loop = op._masked_loop(op.parity_classes(0))
        assert op._masked_loop(op.parity_classes(0)) is loop
        assert op._masked_loop(~op.parity_classes(0)) is not loop

    def test_factored_operator_refuses_a_mask(self):
        op, _, _ = tiny_lognormal()
        v = np.ones(op.dim)
        with pytest.raises(ValueError, match="no block mask"):
            op.matvec(v, np.ones(op.ny, bool))


class TestTailMatvec:
    """matvec(v, blocks, first) is the product of the terms from ``first`` on,
    over the masked columns: assemble_dense(terms[first:])[:, m] @ v[m]."""

    @pytest.mark.parametrize("level", [1, 2])
    def test_equal_to_dense_tail_columns(self, level):
        op, _, _ = tiny_affine(level=level, M=3, k=3)
        rng = np.random.default_rng(level)
        classes = op.parity_classes(1)
        masks = [None, classes, ~classes, rng.random(op.ny) < 0.5]
        assert op.skips_leading_terms
        for first in range(len(op.terms) + 1):
            A = assemble_dense(op.terms[first:]) if first < len(op.terms) else 0.0 * np.eye(op.dim)
            for blocks in masks:
                cols = np.ones(op.dim, bool) if blocks is None else np.repeat(blocks, op.nx)
                v = rng.standard_normal(op.dim)
                want = A[:, cols] @ v[cols]
                scale = np.abs(A).sum(axis=1).max() * np.abs(v).max()
                np.testing.assert_allclose(op.matvec(v, blocks, first), want, rtol=0,
                                           atol=1e-14 * scale)

    def test_first_zero_is_the_whole_product(self):
        op, _, _ = tiny_affine()
        v = np.random.default_rng(0).standard_normal(op.dim)
        np.testing.assert_array_equal(op.matvec(v, None, 0), op.matvec(v))

    def test_factored_operator_refuses_a_first_term(self):
        op, _, _ = tiny_lognormal()
        assert not op.skips_leading_terms
        with pytest.raises(ValueError, match="skips no leading term"):
            op.matvec(np.ones(op.dim), None, 1)

    def test_loop_built_once_per_mask_and_first(self):
        # One loop per (mask, first), of the terms from ``first`` on only.
        op, _, _ = tiny_affine(M=3, k=2)
        classes = op.parity_classes(0)
        loops = {(c, first): op._masked_loop(mask, first)
                 for c, mask in enumerate((~classes, classes)) for first in range(5)}
        assert len(op._masked) == len(loops)
        for (c, first), loop in loops.items():
            assert op._masked_loop(classes if c else ~classes, first) is loop
            Ks = [K for *_, K in loop]
            assert len(Ks) == len(op.terms) - first
            assert all(K is want for K, (_, want) in zip(Ks, op.terms[first:]))
        assert len(op._masked) == len(loops)


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
            assert op.leading(r) == op.terms[: min(r + 1, T)]
        with pytest.raises(ValueError):
            op.leading(-1)


def test_kron_factor_needs_identity_lead():
    # kron fits Q (x) K_0 to the terms, which needs I (x) K_0 leading.
    op, _, _ = tiny_affine()
    (G0, K0), *rest = op.terms
    scaled = KroneckerSumOperator(terms=((2.0 * G0, K0), *rest))
    with pytest.raises(ValueError, match="identity"):
        scaled.kron_factor()


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


def assert_matches_term_sum(op):
    rng = np.random.default_rng(42)
    for _ in range(5):
        v = rng.standard_normal(op.dim)
        ref = term_sum_matvec(op, v)
        err = np.linalg.norm(op.matvec(v) - ref) / np.linalg.norm(ref)
        assert err <= 1e-13


def gathered_shifts(M, k):
    """The mode sweeps' rows as (d, s, rows of alpha + s e_m, |alpha| = d)
    per mode m, by d, then s, with the row offsets of the degrees."""
    S = build_index_set(M, k)
    off = np.searchsorted([sum(alpha) for alpha in S], np.arange(k + 2))
    shifts = tuple(
        tuple((d, s, np.array([S.position(a[:m] + (a[m] + s,) + a[m + 1 :])
                               for a in S.indices[off[d] : off[d + 1]]]))
              for d in range(k) for s in range(1, k - d + 1))
        for m in range(M)
    )
    return off, shifts


def gathered_matvec(op, M, k, v):
    # Reference: the factored matvec with each (d, s) group's shifted rows
    # gathered and scattered by index arrays, and the transposed map as
    # four column scatters through gradient_map's corners.
    off, shifts = gathered_shifts(M, k)
    f, ny, nx = op.factorization, op.ny, op.nx
    root = np.sqrt(f.factorial)[:, None]
    padded = np.zeros((ny, nx + 1))
    padded[:, :nx] = v.reshape(ny, nx) * root
    forward = np.ascontiguousarray(f.table.transpose(0, 2, 1))
    U = np.matmul(np.take(padded, f.corners, axis=1)[:, None], forward).reshape(ny, 2, -1)
    for weights, groups in zip(f.weights, shifts):
        for d, s, src in groups:
            shifted = U[src]
            shifted *= weights[s - 1]
            U[off[d] : off[d + 1]] += shifted
    U *= f.E
    U /= f.factorial[:, None, None]
    for weights, groups in zip(f.weights, shifts):
        for d, s, src in reversed(groups):
            U[src] += U[off[d] : off[d + 1]] * weights[s - 1]
    Z = np.matmul(U.reshape(ny, 2, -1, 9), f.table).sum(axis=1)
    out = np.zeros((ny, nx + 1))
    for a in range(4):
        out[:, f.corners[:, a]] += Z[:, :, a]
    return (out[:, :nx] * root).ravel()


# (level, M, k): levels 2-5, M 1-6, k 0-5; k = 0 has no shift, and M = 1
# one mode, whose every group is one run.
ROW_RUN_CASES = list(itertools.product(range(2, 6), range(1, 7), range(6)))


class TestRowRunSweeps:
    """The mode sweeps over runs of rows and the transposed map by node-grid
    slices against the gathered sweeps and corner scatters."""

    @pytest.mark.parametrize("level, M, k", ROW_RUN_CASES)
    def test_matvec_equals_gathered_sweeps(self, level, M, k):
        op, _ = build_lognormal_system(build_mesh(level), M, k, M + 2, 2.0, LOGNORMAL_ALPHA_BAR)
        v = np.random.default_rng(level * 100 + M * 10 + k).standard_normal(op.dim)
        np.testing.assert_array_equal(op.matvec(v), gathered_matvec(op, M, k, v))

    @pytest.mark.parametrize("M, k", [(M, k) for M in range(1, 7) for k in range(7)])
    def test_runs_expand_to_the_gathered_rows(self, M, k):
        # Each group's runs, expanded, are its rows of degree d and their
        # shifted rows, in order, and no two neighbouring runs join.
        op, _ = build_lognormal_system(build_mesh(1), M, k, M + 1, 2.0, LOGNORMAL_ALPHA_BAR)
        off, shifts = gathered_shifts(M, k)
        assert len(op.factorization.shifts) == M
        for groups, gathered in zip(op.factorization.shifts, shifts):
            assert [s for s, _ in groups] == [s for _, s, _ in gathered]
            for (_, runs), (d, _, src) in zip(groups, gathered):
                targets = np.concatenate([np.arange(t0, t1) for t0, t1, _, _ in runs])
                sources = np.concatenate([np.arange(s0, s1) for _, _, s0, s1 in runs])
                np.testing.assert_array_equal(targets, np.arange(off[d], off[d + 1]))
                np.testing.assert_array_equal(sources, src)
                assert all(t1 - t0 == s1 - s0 > 0 for t0, t1, s0, s1 in runs)
                assert not any(a[1] == b[0] and a[3] == b[2] for a, b in zip(runs, runs[1:]))
                assert all(type(i) is int for run in runs for i in run)


class TestRecompressedOperator:
    """The lognormal factored matvec and the term loop against the term sum."""

    @pytest.mark.parametrize("level", [2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_term_sum(self, level, k):
        op, _, _ = table6_lognormal(level, k)
        assert op.factorization is not None
        assert_matches_term_sum(op)

    def test_mesh_level_5(self):
        # The largest spatial size of the table grids: 961 rows and 9,216
        # quadrature points, against ny = 7 blocks.
        op, _, _ = table6_lognormal(5, 1)
        assert op.nx == 961
        assert_matches_term_sum(op)

    def test_degree_zero_has_no_shift(self):
        # k = 0: one block, no mode sweep; the operator is E_q times k_q.
        op, _, _ = tiny_lognormal(level=3, M=2, k=0, N=4)
        assert op.ny == 1 and all(not groups for groups in op.factorization.shifts)
        assert_matches_term_sum(op)

    def test_one_mode(self):
        op, _, _ = tiny_lognormal(level=3, M=1, k=3, N=4)
        assert_matches_term_sum(op)

    def test_largest_hermite_degree(self):
        # 2k = 170, the largest Hermite degree the parser accepts: alpha!
        # reaches 85!, about 2.8e128, in the scaling by D.
        op, _ = build_lognormal_system(
            build_mesh(1), M=1, k=85, N=2, sigma_tilde=2.0, alpha_bar=LOGNORMAL_ALPHA_BAR
        )
        assert op.ny == 86
        assert_matches_term_sum(op)

    @pytest.mark.parametrize("M", [4, 8])
    def test_affine_keeps_term_loop(self, M):
        # The affine operator has no factorization: the term loop, bit for
        # bit, also at level 1, where every K_m is 1 x 1.
        for level, k in itertools.product((1, 3), (2, 3)):
            op, _, _ = tiny_affine(level=level, M=M, k=k)
            assert op.factorization is None and len(op.terms) == M + 1
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
            terms=((sp.identity(4, format="csr"), K0), (G, K1))
        )
        A = np.kron(np.eye(4), K0.toarray()) + np.kron(G.toarray(), K1.toarray())
        v = np.random.default_rng(42).standard_normal(12)
        np.testing.assert_allclose(op.matvec(v), A @ v, rtol=1e-14, atol=1e-14)

    def test_unsymmetric_terms_keep_term_loop(self):
        # Two terms with proportional but unsymmetric K values.
        K = sp.csr_matrix(np.array([[2.0, 1.0], [0.5, 3.0]]))
        G = sp.csr_matrix(np.eye(2))
        op = KroneckerSumOperator(terms=((G, K), (G, 2.0 * K)))
        v = np.random.default_rng(42).standard_normal(4)
        np.testing.assert_allclose(op.matvec(v), 3.0 * np.kron(np.eye(2), K.toarray()) @ v, rtol=1e-14)

    def test_proportional_terms_collapse(self):
        # Symmetric K values of rank one, and G_i that together couple every
        # pair of blocks: the term loop sums them exactly.
        K = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        G1 = sp.csr_matrix(np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 2.0]]))
        G2 = sp.csr_matrix(np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]))
        op = KroneckerSumOperator(terms=((G1, K), (G2, -3.0 * K)))
        A = np.kron(G1.toarray(), K.toarray()) - 3.0 * np.kron(G2.toarray(), K.toarray())
        v = np.random.default_rng(42).standard_normal(6)
        np.testing.assert_allclose(op.matvec(v), A @ v, rtol=1e-14, atol=1e-14)

    def test_quad_values_match_per_alpha_loop(self):
        # Reference: each a_alpha formed on its own by the slot loop.
        mesh = build_mesh(3)
        b0 = fem2d.fourier_coefficient(0, 2.0, 0.547)
        b_fields = [fem2d.fourier_coefficient(m, 2.0, 0.547) for m in range(1, 7)]
        alphas = list(build_index_set(4, 4))
        xq1, xq2 = fem2d.quadrature_points(mesh)
        Bq = [b(xq1, xq2) for b in b_fields]
        Eq = np.exp(b0(xq1, xq2) + 0.5 * sum(b * b for b in Bq))
        powers = np.array([[b**a for a in range(9)] for b in Bq])
        vals = kronsys._expansion_quad_values(alphas, Eq, powers)
        for alpha, got in zip(alphas, vals):
            ref = Eq
            for m, a in enumerate(alpha):
                if a:
                    ref = ref * Bq[m] ** a / math.sqrt(math.factorial(a))
            np.testing.assert_array_equal(got, ref)

    def test_build_kron_parametric_factor(self):
        # kron_factor reads op.terms, not the factorization; reference:
        # K_alpha assembled one at a time from the lognormal expansion
        # coefficients.
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
        P = build_kron(op, CholeskyFactor(op.leading(0)[0][1]))
        np.testing.assert_allclose(P.G.toarray(), G_ref, rtol=1e-13, atol=1e-15)


def count_pair_builds(monkeypatch):
    """The alphas of every G_alpha and the count of every K_alpha built."""
    built = {"G": [], "K": 0}
    gram_general, assemble = gram.gram_general, fem2d.assemble_from_quad_values

    def counted_gram(alpha, S):
        built["G"].append(tuple(alpha))
        return gram_general(alpha, S)

    def counted_assemble(mesh, values):
        Ks = assemble(mesh, values)
        built["K"] += len(Ks) if isinstance(Ks, list) else 1
        return Ks

    monkeypatch.setattr(gram, "gram_general", counted_gram)
    monkeypatch.setattr(fem2d, "assemble_from_quad_values", counted_assemble)
    return built


class TestPairsOnDemand:
    """The lognormal operator builds a pair only when one is read."""

    def test_leading_builds_its_prefix(self, monkeypatch):
        built = count_pair_builds(monkeypatch)
        op, _, _ = tiny_lognormal(M=3, k=3)
        assert built == {"G": [], "K": 0}
        for r, total in ((3, 4), (1, 4), (6, 7), (0, 7)):
            assert len(op.leading(r)) == r + 1
            assert len(built["G"]) == built["K"] == total
        assert built["G"] == op.terms.alphas[:7]

    def test_kron_and_parity_classes_build_none(self, monkeypatch):
        built = count_pair_builds(monkeypatch)
        op, _, _ = tiny_lognormal(M=3, k=3)
        op.kron_factor()
        for r in range(len(op.terms) + 1):
            op.parity_classes(r)
        assert built == {"G": [], "K": 0}

    def test_terms_builds_each_pair_once(self, monkeypatch):
        built = count_pair_builds(monkeypatch)
        op, _, _ = tiny_lognormal(M=3, k=2)
        lead = op.leading(2)
        terms = list(op.terms)
        assert built["G"] == list(op.terms.alphas) and built["K"] == len(terms) == 35
        assert terms[:3] == list(lead)  # the same objects
        assert op.terms[:] == tuple(terms) and op.terms[-1] is terms[-1]
        assert op.terms[10:2:-3] == tuple(terms[10:2:-3])
        assert sum(1 for _ in op.terms) == 35 and assemble_dense(op.terms).shape == (op.dim,) * 2
        assert len(built["G"]) == built["K"] == 35
        with pytest.raises(IndexError):
            op.terms[35]

    def test_run_path_builds_at_most_the_largest_prefix(self, monkeypatch):
        built = count_pair_builds(monkeypatch)
        cell = grid.Cell("lognormal", "", 2.0, LOGNORMAL_ALPHA_BAR, 2, 3, 2, 6)
        preconds = [("kron", None), ("mean", 0), ("sbgs", 1), ("trunc_exact", 3), ("sbgs", 2)]
        rows = list(grid.solve_cell(cell, preconds, SolverConfig()))
        assert all(row.converged for row in rows)
        assert len(built["G"]) == built["K"] == 4


def assert_csr_identical(got, want):
    for attr in ("data", "indices", "indptr"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


class TestStreamedKron:
    """kron's weights and G, streamed by chunks of terms and of rows, are the
    bits of the same reads of the stored pairs."""

    @pytest.mark.parametrize("stream", ["default", "one term"])
    @pytest.mark.parametrize("level,M,k", [(2, 3, 3), (3, 6, 2), (4, 6, 3), (4, 2, 1), (2, 3, 4)])
    def test_equal_to_pair_list(self, monkeypatch, stream, level, M, k):
        if stream == "one term":  # and one row of G entries per chunk
            monkeypatch.setattr(kronsys, "_STREAM_BYTES", 1)
        op, _, _ = tiny_lognormal(level, M, k, N=M + 4)
        assert stream == "default" or op.terms._step == 1
        oracle = KroneckerSumOperator(tuple(op.terms))
        np.testing.assert_array_equal(op.terms.kron_weights(), oracle.terms.kron_weights())
        assert_csr_identical(op.kron_factor(), oracle.kron_factor())

    @pytest.mark.parametrize("stream", ["default", "one term"])
    @pytest.mark.parametrize("problem", ["affine", "lognormal"])
    def test_equal_to_term_by_term_sum(self, monkeypatch, stream, problem):
        # The oracle adds the weighted G_i as sparse matrices in term order
        # (one COO matrix per term, from the same entries and weights).
        if stream == "one term":
            monkeypatch.setattr(kronsys, "_STREAM_BYTES", 1)
        op, _, _ = SmallConfig(problem, 3, M=3, k=3, N=7).build()
        term, rows, cols, vals = map(np.concatenate, zip(*op.terms.triple_chunks()))
        weights, n = op.terms.kron_weights(), op.ny
        want = sp.csr_matrix((n, n))
        for t, w in enumerate(weights):
            at = term == t
            want = want + sp.coo_matrix((vals[at] * w, (rows[at], cols[at])), shape=(n, n)).tocsr()
        assert_csr_identical(op.kron_factor(), want)

    def test_one_row_chunk_at_a_time(self, monkeypatch):
        # Every enumeration of the G entries is one planned chunk of rows,
        # each at most the byte budget's entries plus one row.
        monkeypatch.setattr(kronsys, "_STREAM_BYTES", 160 * 500)
        op, _, _ = tiny_lognormal(2, M=3, k=4)
        chunks = gram.hermite_row_chunks(op.terms.S, kronsys._STREAM_BYTES)
        assert len(chunks) > 3
        row_entries = [len(gram.hermite_triples(op.terms.alphas, op.terms.S, slice(i, i + 1))[0])
                       for i in range(op.ny)]
        calls, hermite_triples = [], gram.hermite_triples

        def recorded(alphas, S, rows=slice(None)):
            entries = hermite_triples(alphas, S, rows)
            calls.append(rows)
            assert len(entries[0]) <= 500 + max(row_entries[rows])
            return entries

        monkeypatch.setattr(gram, "hermite_triples", recorded)
        G = op.kron_factor()
        assert calls == chunks
        for r in range(len(op.terms) + 1):
            calls.clear()
            classes = op.parity_classes(r)
            assert all(rows in chunks for rows in calls)
            if r == 0:  # G_{2e_M} has a diagonal in row e_M, which is row 1
                assert classes is None and calls == chunks[:1]
        monkeypatch.undo()  # the whole list in one chunk
        assert_csr_identical(G, op.kron_factor())


@settings(max_examples=25, deadline=None, database=None)
@given(level=st.integers(1, 2), M=st.integers(1, 3), k=st.integers(0, 3), extra=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_parity_classes_from_triples_match_pair_list(level, M, k, extra, seed):
    # The operator's colouring reads the Hermite triple list; the oracle is
    # the pair-list colouring over the built terms (an operator on a tuple
    # of the pairs, whose triples come from the G matrices), for every r.  The
    # expansion order leaves no colouring here (a tail G_alpha has a
    # diagonal), so the terms are also taken in a drawn order: zero, then
    # even |alpha|, then odd, which has one where the tail is odd |alpha|.
    op, _, _ = tiny_lognormal(level, M, k, N=M + extra)
    odd = [sum(alpha) % 2 for alpha in op.terms.alphas]
    drawn = 1 + np.random.default_rng(seed).permutation(len(op.terms) - 1)
    order = np.r_[0, drawn[np.argsort([odd[i] for i in drawn], kind="stable")]]
    shuffled = [op.terms[i] for i in order]
    triples = gram.hermite_triples([op.terms.alphas[i] for i in order], build_index_set(M, k))
    oracle, shuffled_oracle = (KroneckerSumOperator(tuple(t)) for t in (op.terms, shuffled))
    for r in range(len(op.terms) + 1):
        for got, want in (
            (op.parity_classes(r), oracle.parity_classes(r)),
            (kronsys._colouring([triples], op.ny, r), shuffled_oracle.parity_classes(r)),
        ):
            assert (got is None) == (want is None), r
            if got is not None:
                np.testing.assert_array_equal(got, want)
