import math

import numpy as np
import pytest
import scipy.sparse as sp

from sgkron.gram import gram_general, gram_identity, gram_linear, hermite_triples
from sgkron.multiindex import build_index_set
from sgkron.orthopoly import HERMITE, LEGENDRE, evaluate, hermite_triple
from sgkron.verify import linear_gram


def tensor_gram_oracle(m, S, n_quad):
    # <y_m psi_j, psi_t> of the Hermite family by full tensor quadrature
    # over M variables.
    y, w = np.polynomial.hermite_e.hermegauss(n_quad)
    w = w / math.sqrt(2.0 * math.pi)
    vals = np.array([evaluate(HERMITE, d, y) for d in range(S.k + 1)])
    idx = np.asarray(S.indices)
    # psi_j, and the weight times y_m, on the n_quad^M tensor grid.
    psi = np.ones((len(S),) + (n_quad,) * S.M)
    weight = np.ones((n_quad,) * S.M)
    for s in range(S.M):
        axis = [1] * S.M
        axis[s] = n_quad
        psi = psi * vals[idx[:, s]].reshape(len(S), *axis)
        weight = weight * (w * y if s == m - 1 else w).reshape(axis)
    psi = psi.reshape(len(S), -1)
    return (psi * weight.ravel()) @ psi.T


def dense_gram_general(alpha, S):
    # Reference: dense product of per-slot triple-product tables, one
    # table per slot and per alpha.
    idx = np.asarray(S.indices, dtype=np.int64)
    G = np.ones((len(S), len(S)))
    for slot, a in enumerate(alpha):
        table = np.empty((S.k + 1, S.k + 1))
        for dj in range(S.k + 1):
            for dt in range(S.k + 1):
                table[dj, dt] = hermite_triple(a, dj, dt)
        col = idx[:, slot]
        G *= table[col[:, None], col[None, :]]
        if not G.any():
            break
    out = sp.csr_matrix(G)
    out.sort_indices()
    return out


class TestGramIdentity:
    def test_is_identity(self):
        G = gram_identity(7)
        np.testing.assert_array_equal(G.toarray(), np.eye(7))


class TestGramLinearStructure:
    @pytest.mark.parametrize("family", [LEGENDRE, HERMITE])
    def test_structure_all_modes(self, family):
        # At most two nonzeros per row, zero diagonal, symmetric; m <= 8, k <= 6.
        for M, k in [(8, 4), (8, 6), (4, 6)]:
            S = build_index_set(M, k)
            for m in range(1, M + 1):
                G = linear_gram(family, m, S)
                assert G.shape == (len(S), len(S))
                nnz_per_row = np.diff(G.indptr)
                assert nnz_per_row.max() <= 2
                assert np.all(G.diagonal() == 0.0)
                assert (G - G.T).nnz == 0

    def test_entry_values(self):
        # Nonzero exactly between alpha and alpha -/+ e_m, value c_{alpha_m}.
        S = build_index_set(3, 4)
        for family in (LEGENDRE, HERMITE):
            for m in (1, 2, 3):
                G = linear_gram(family, m, S).toarray()
                for j, alpha in enumerate(S.indices):
                    for t, beta in enumerate(S.indices):
                        diff = [a - b for a, b in zip(alpha, beta)]
                        couples = abs(diff[m - 1]) == 1 and all(
                            d == 0 for s, d in enumerate(diff) if s != m - 1
                        )
                        if couples:
                            assert G[j, t] != 0.0
                        else:
                            assert G[j, t] == 0.0

    def test_mode_out_of_range(self):
        S = build_index_set(2, 2)
        with pytest.raises(ValueError):
            gram_linear(0, S)
        with pytest.raises(ValueError):
            gram_linear(3, S)


class TestGramLinearValues:
    # Both families at (M, k) = (2, 2) are verify.prop_gram_vs_quadrature.
    def test_three_variable_spot_check(self):
        S = build_index_set(3, 2)
        G = linear_gram(HERMITE, 2, S).toarray()
        ref = tensor_gram_oracle(2, S, n_quad=12)
        np.testing.assert_allclose(G, ref, atol=1e-12)


class TestGramGeneral:
    def test_zero_alpha_is_identity(self):
        S = build_index_set(3, 2)
        G = gram_general((0, 0, 0), S)
        np.testing.assert_allclose(G.toarray(), np.eye(len(S)), atol=0)

    def test_diagonal_parity(self):
        # Odd alpha in any slot kills the whole diagonal; all-even keeps it positive at 0.
        S = build_index_set(2, 3)
        G_odd = gram_general((1, 2), S)
        assert np.all(G_odd.diagonal() == 0.0)
        G_even = gram_general((2, 2), S)
        assert G_even.diagonal()[S.position((1, 1))] > 0.0

    def test_entries_nonnegative(self):
        S = build_index_set(2, 3)
        for alpha in [(1, 0), (2, 1), (3, 3), (0, 4)]:
            G = gram_general(alpha, S)
            assert G.nnz == 0 or G.data.min() >= 0.0

    def test_against_quadrature(self):
        # <psi_alpha psi_j, psi_t> oracle over a 2-variable set.
        S = build_index_set(2, 2)
        n_quad = 32
        y, w = np.polynomial.hermite_e.hermegauss(n_quad)
        w = w / math.sqrt(2.0 * math.pi)
        for alpha in [(1, 1), (2, 0), (2, 2), (3, 1)]:
            G = gram_general(alpha, S).toarray()
            ref = np.zeros_like(G)
            for j, aj in enumerate(S.indices):
                for t, at in enumerate(S.indices):
                    acc = 0.0
                    for q1 in range(n_quad):
                        pa1 = evaluate(HERMITE, alpha[0], y[q1])
                        pj1 = evaluate(HERMITE, aj[0], y[q1])
                        pt1 = evaluate(HERMITE, at[0], y[q1])
                        inner = np.sum(
                            w
                            * evaluate(HERMITE, alpha[1], y)
                            * evaluate(HERMITE, aj[1], y)
                            * evaluate(HERMITE, at[1], y)
                        )
                        acc += w[q1] * pa1 * pj1 * pt1 * inner
                    ref[j, t] = acc
            np.testing.assert_allclose(G, ref, atol=1e-10)

    @pytest.mark.parametrize("M,k", [(4, 3), (6, 2), (2, 5), (1, 4)])
    def test_bit_identical_to_dense_loop(self, M, k):
        S = build_index_set(M, k)
        for alpha in build_index_set(M, 2 * k):
            G = gram_general(alpha, S)
            ref = dense_gram_general(alpha, S)
            assert G.has_canonical_format
            for attr in ("data", "indices", "indptr"):
                got, want = getattr(G, attr), getattr(ref, attr)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("M,k", [(1, 0), (1, 4), (3, 3), (6, 2), (2, 5), (6, 3)])
    def test_triple_list_matches_per_term(self, M, k):
        # Oracle: gram_general term by term, bit for bit, in the order of a
        # shuffled alphas list and on a subset of it (the rest is dropped).
        S = build_index_set(M, k)
        alphas = list(build_index_set(M, 2 * k))
        np.random.default_rng(M * 10 + k).shuffle(alphas)
        for subset in (alphas, alphas[::3]):
            term, rows, cols, vals = hermite_triples(subset, S)
            starts = np.searchsorted(term, np.arange(len(subset) + 1))
            assert starts[-1] == len(term)
            for i, alpha in enumerate(subset):
                G = gram_general(alpha, S)
                at = slice(starts[i], starts[i + 1])
                G_rows = np.repeat(np.arange(len(S)), np.diff(G.indptr))
                np.testing.assert_array_equal(rows[at], G_rows)
                np.testing.assert_array_equal(cols[at], G.indices)
                np.testing.assert_array_equal(vals[at], G.data)

    def test_rejects_bad_alpha(self):
        S = build_index_set(2, 2)
        with pytest.raises(ValueError):
            gram_general((1,), S)
        with pytest.raises(ValueError):
            gram_general((-1, 0), S)
        with pytest.raises(ValueError):
            gram_general((5, 0), S)


class TestSplitLower:
    # The strictly lower triangle L = tril(G_m, -1) that the SBGS splitting
    # sweeps with: G_m has a zero diagonal, so L + L^T = G_m.
    def test_reassembles(self):
        S = build_index_set(4, 3)
        for m in (1, 3):
            G = gram_linear(m, S)
            L = sp.tril(G, -1).tocsr()
            np.testing.assert_allclose((L + L.T).toarray(), G.toarray(), atol=0)

    def test_one_nonzero_per_row_and_column(self):
        # Degree-lex order puts each coupling strictly below the diagonal once.
        for M, k in [(8, 4), (8, 6)]:
            S = build_index_set(M, k)
            for m in range(1, M + 1):
                L = sp.tril(gram_linear(m, S), -1).tocsr()
                assert np.diff(L.indptr).max() <= 1
                assert np.diff(L.tocsc().indptr).max() <= 1

    def test_strictly_lower(self):
        S = build_index_set(3, 3)
        coo = sp.tril(linear_gram(HERMITE, 1, S), -1).tocoo()
        assert coo.nnz > 0
        assert np.all(coo.row > coo.col)
