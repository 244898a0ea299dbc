"""Parametric Gram matrices over a multi-index set.

Three kinds appear in the Kronecker-structured systems:

* ``gram_identity``: G_0 = I (orthonormality of the basis);
* ``gram_linear``: G_m with entries <y_m psi_j, psi_t> for the Legendre
  family (the affine expansion), nonzero only between multi-indices that
  differ by +-1 in slot m, so at most two entries per row and a zero
  diagonal;
* ``gram_general``: G_alpha with entries <psi_alpha psi_j, psi_t> for the
  Hermite family (the lognormal expansion), a product of univariate triple
  products per slot.  Its linear Hermite terms are G_{e_m}, y_m = psi_1(y_m).
  ``hermite_triples`` lists the entries of a whole family of them at once,
  without a matrix per alpha.

All matrices are returned in CSR form with sorted (canonical) indices so
that identical inputs produce bit-identical structures across runs.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .multiindex import MultiIndexSet
from .orthopoly import LEGENDRE, hermite_triple, recurrence_c


def gram_identity(n: int) -> sp.csr_matrix:
    return sp.identity(n, format="csr")


def gram_linear(m: int, S: MultiIndexSet) -> sp.csr_matrix:
    """Legendre G_m for the linear-in-y_m coefficient term, 1 <= m <= S.M.

    Entry between positions of alpha and alpha - e_m equals c_{alpha_m};
    everything else vanishes by orthogonality and the three-term recurrence.
    """
    if not 1 <= m <= S.M:
        raise ValueError(f"parameter index m={m} out of range 1..{S.M}")
    slot = m - 1
    rows, cols, vals = [], [], []
    for j, alpha in enumerate(S.indices):
        a_m = alpha[slot]
        if a_m == 0:
            continue
        neighbor = alpha[:slot] + (a_m - 1,) + alpha[slot + 1 :]
        t = S.position(neighbor)
        c = recurrence_c(LEGENDRE, a_m)
        rows.extend((t, j))
        cols.extend((j, t))
        vals.extend((c, c))
    n = len(S)
    G = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    G.sort_indices()
    return G


def gram_general(alpha, S: MultiIndexSet) -> sp.csr_matrix:
    """G_alpha for the Hermite family: entries are per-slot triple products.

    alpha must lie in I_{2k}^M when S = I_k^M.  Entries are nonnegative;
    the diagonal is identically zero whenever alpha has an odd entry.
    """
    alpha = tuple(alpha)
    if len(alpha) != S.M:
        raise ValueError(f"alpha has {len(alpha)} slots, expected {S.M}")
    if any(a < 0 for a in alpha):
        raise ValueError("alpha entries must be nonnegative")
    if sum(alpha) > 2 * S.k:
        raise ValueError(f"|alpha|={sum(alpha)} exceeds 2k={2 * S.k}")

    idx = np.asarray(S.indices, dtype=np.int64)  # (n, M)
    n = len(S)
    # A zero slot contributes <P_0 P_i, P_j> = delta_ij, exactly 1 or 0, so
    # only pairs agreeing there can be non-zero; the other slots multiply
    # in slot order, which gives the same products as a dense slot loop.
    agree = np.ones((n, n), dtype=bool)
    for slot, a in enumerate(alpha):
        if a == 0:
            agree &= idx[:, slot, None] == idx[None, :, slot]
    rows, cols = np.nonzero(agree)
    vals = np.ones(len(rows))
    for slot, a in enumerate(alpha):
        if a:
            vals *= _hermite_table(int(a), S.k)[idx[rows, slot], idx[cols, slot]]
    keep = vals != 0.0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows[keep], minlength=n), out=indptr[1:])
    return sp.csr_matrix((vals[keep], cols[keep].astype(np.int32), indptr), shape=(n, n))


def hermite_triples(alphas, S: MultiIndexSet) -> tuple[np.ndarray, ...]:
    """The entries of ``gram_general(alpha, S)`` for every alpha of ``alphas``
    (in I_{2k}^M, S = I_k^M) as one list (term, row, column, value): by term
    in the order of ``alphas``, each term's entries in CSR order and its
    values gram_general's bit for bit.

    G_alpha[beta, gamma] != 0 exactly where every slot's triple product
    is, a = |b - c|, |b - c| + 2, ..., b + c for (a, b, c) = (alpha_m,
    beta_m, gamma_m).  So the list is enumerated from the pairs (beta,
    gamma), slot by slot, and each alpha is found by its rank in the lex
    order of I_{2k}^M (first slot first):
    rank = sum_m |I_{D_m}^{M-m}| - |I_{D_m - alpha_m}^{M-m}|, with D_m the
    degree 2k less the alpha entries before slot m.
    """
    M, k, n = S.M, S.k, len(S)
    idx = np.asarray(S.indices, dtype=np.int64)
    # size[s, d] = |I_d^s| = C(s + d, d); all are <= |I_{2k}^M|.
    size = np.array([[math.comb(s + d, d) for d in range(2 * k + 1)] for s in range(M + 1)])
    # table[a, b, c] = <P_a P_b, P_c>; a = 0 only meets b = c, a factor of 1.
    table = np.stack([np.eye(k + 1)] + [_hermite_table(a, k) for a in range(1, 2 * k + 1)])
    rows, cols = np.divmod(np.arange(n * n), n)
    vals, rank, degree = np.ones(n * n), np.zeros(n * n, dtype=np.int64), np.full(n * n, 2 * k)
    for m in range(M):
        b, c = idx[rows, m], idx[cols, m]
        choices = np.minimum(b, c) + 1
        at = np.repeat(np.arange(len(rows)), choices)
        j = np.arange(len(at)) - np.repeat(np.cumsum(choices) - choices, choices)  # 0..min(b, c)
        a = np.abs(b - c)[at] + 2 * j
        rows, cols, b, c, rank, degree = (x[at] for x in (rows, cols, b, c, rank, degree))
        vals = vals[at] * table[a, b, c]
        rank += size[M - m, degree] - size[M - m, degree - a]
        degree -= a
    term = np.full(size[M, 2 * k], -1)
    term[_lex_rank(alphas, size)] = np.arange(len(alphas))
    term = term[rank]
    keep = (term >= 0) & (vals != 0.0)
    order = np.argsort(term[keep], kind="stable")  # pairs stay in CSR order
    return tuple(x[keep][order] for x in (term, rows, cols, vals))


def _lex_rank(alphas, size: np.ndarray) -> np.ndarray:
    """Rank of each alpha in the lex order of I_D^M, size[s, d] = |I_d^s|."""
    powers = np.array(alphas, dtype=np.int64).reshape(len(alphas), -1)
    M, degree = powers.shape[1], np.full(len(powers), size.shape[1] - 1)
    rank = np.zeros(len(powers), dtype=np.int64)
    for m in range(M):
        rank += size[M - m, degree] - size[M - m, degree - powers[:, m]]
        degree -= powers[:, m]
    return rank


@lru_cache(maxsize=None)
def _hermite_table(a: int, k: int) -> np.ndarray:
    """Triple products <P_a P_i, P_j> over degrees i, j = 0..k (read-only)."""
    table = np.empty((k + 1, k + 1))
    for i in range(k + 1):
        for j in range(k + 1):
            table[i, j] = hermite_triple(a, i, j)
    table.flags.writeable = False
    return table
