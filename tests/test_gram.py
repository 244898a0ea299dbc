import math
from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp

from sgkron.gram import gram_general, gram_identity, gram_linear, split_lower
from sgkron.multiindex import build_index_set
from sgkron.orthopoly import HERMITE, LEGENDRE, evaluate, hermite_triple


def tensor_gram_oracle(m, S, family, n_quad=24):
    # <y_m psi_j, psi_t> by full tensor quadrature over M variables.
    if family is LEGENDRE:
        y, w = np.polynomial.legendre.leggauss(n_quad)
        w = w / 2.0
    else:
        y, w = np.polynomial.hermite_e.hermegauss(n_quad)
        w = w / math.sqrt(2.0 * math.pi)
    n = len(S)
    G = np.zeros((n, n))
    pts = list(product(range(n_quad), repeat=S.M))
    for j, alpha in enumerate(S.indices):
        for t, beta in enumerate(S.indices):
            total = 0.0
            for combo in pts:
                yv = y[list(combo)]
                wv = np.prod(w[list(combo)])
                pj = np.prod([evaluate(family, a, yv[s]) for s, a in enumerate(alpha)])
                pt = np.prod([evaluate(family, b, yv[s]) for s, b in enumerate(beta)])
                total += wv * yv[m - 1] * pj * pt
            G[j, t] = total
    return G


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
                G = gram_linear(m, S, family)
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
                G = gram_linear(m, S, family).toarray()
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
            gram_linear(0, S, LEGENDRE)
        with pytest.raises(ValueError):
            gram_linear(3, S, LEGENDRE)


class TestGramLinearValues:
    @pytest.mark.parametrize("family", [LEGENDRE, HERMITE])
    def test_against_tensor_quadrature(self, family):
        S = build_index_set(2, 2)
        for m in (1, 2):
            G = gram_linear(m, S, family).toarray()
            ref = tensor_gram_oracle(m, S, family)
            np.testing.assert_allclose(G, ref, atol=1e-12)

    def test_three_variable_spot_check(self):
        S = build_index_set(3, 2)
        G = gram_linear(2, S, HERMITE).toarray()
        ref = tensor_gram_oracle(2, S, HERMITE, n_quad=12)
        np.testing.assert_allclose(G, ref, atol=1e-12)


class TestGramGeneral:
    def test_zero_alpha_is_identity(self):
        S = build_index_set(3, 2)
        G = gram_general((0, 0, 0), S)
        np.testing.assert_allclose(G.toarray(), np.eye(len(S)), atol=0)

    def test_reduces_to_linear_for_unit_alpha(self):
        # G_{e_m} must equal the Hermite linear Gram matrix.
        S = build_index_set(3, 3)
        for m in (1, 2, 3):
            alpha = tuple(1 if s == m - 1 else 0 for s in range(3))
            G_gen = gram_general(alpha, S).toarray()
            G_lin = gram_linear(m, S, HERMITE).toarray()
            np.testing.assert_allclose(G_gen, G_lin, atol=1e-14)

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

    def test_rejects_bad_alpha(self):
        S = build_index_set(2, 2)
        with pytest.raises(ValueError):
            gram_general((1,), S)
        with pytest.raises(ValueError):
            gram_general((-1, 0), S)
        with pytest.raises(ValueError):
            gram_general((5, 0), S)


class TestSplitLower:
    def test_reassembles(self):
        S = build_index_set(4, 3)
        for m in (1, 3):
            G = gram_linear(m, S, LEGENDRE)
            L = split_lower(G)
            np.testing.assert_allclose((L + L.T).toarray(), G.toarray(), atol=0)

    def test_one_nonzero_per_row_and_column(self):
        # Degree-lex order puts each coupling strictly below the diagonal once.
        for M, k in [(8, 4), (8, 6)]:
            S = build_index_set(M, k)
            for m in range(1, M + 1):
                L = split_lower(gram_linear(m, S, LEGENDRE))
                assert np.diff(L.indptr).max() <= 1
                assert np.diff(L.tocsc().indptr).max() <= 1

    def test_strictly_lower(self):
        S = build_index_set(3, 3)
        L = split_lower(gram_linear(1, S, HERMITE))
        coo = L.tocoo()
        assert np.all(coo.row > coo.col)

    def test_requires_zero_diagonal(self):
        with pytest.raises(ValueError):
            split_lower(gram_identity(4))
