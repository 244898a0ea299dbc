"""Parametric Gram matrices over a multi-index set.

Three kinds appear in the Kronecker-structured systems:

* ``gram_identity``: G_0 = I (orthonormality of the basis);
* ``gram_linear``: G_m with entries <y_m psi_j, psi_t>, nonzero only
  between multi-indices that differ by +-1 in slot m, so at most two
  entries per row and a zero diagonal;
* ``gram_general``: G_alpha with entries <psi_alpha psi_j, psi_t> for the
  Hermite family, a product of univariate triple products per slot.

All matrices are returned in CSR form with sorted (canonical) indices so
that identical inputs produce bit-identical structures across runs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .multiindex import MultiIndexSet
from .orthopoly import HERMITE, PolyFamily, hermite_triple, recurrence_c


def gram_identity(n: int) -> sp.csr_matrix:
    return sp.identity(n, format="csr")


def gram_linear(m: int, S: MultiIndexSet, family: PolyFamily) -> sp.csr_matrix:
    """G_m for the linear-in-y_m coefficient term, 1 <= m <= S.M.

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
        c = recurrence_c(family, a_m)
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


@lru_cache(maxsize=None)
def _hermite_table(a: int, k: int) -> np.ndarray:
    """Triple products <P_a P_i, P_j> over degrees i, j = 0..k (read-only)."""
    table = np.empty((k + 1, k + 1))
    for i in range(k + 1):
        for j in range(k + 1):
            table[i, j] = hermite_triple(a, i, j)
    table.flags.writeable = False
    return table


def split_lower(G: sp.spmatrix) -> sp.csr_matrix:
    """Strictly lower triangle L with L + L^T = G; requires a zero diagonal."""
    diag = G.diagonal()
    if np.any(diag != 0.0):
        raise ValueError("split_lower requires a zero diagonal")
    L = sp.tril(G, k=-1).tocsr()
    L.sort_indices()
    return L
