"""Preconditioners for the Kronecker-structured Galerkin systems.

Four families share one duck-typed interface, ``apply_inverse`` on flat
block vectors:

* exact truncation P_r: the leading r+1 terms, block diagonal over the
  parametric tails they leave uncoupled.  One part per class of equal tail
  blocks solves them: by K_0 where a block is I (x) K_0, directly up to a
  per-block size, and by one nested CG above it.  Where a class is
  2-cyclic (affine), it eliminates one colour with I (x) K_0 and solves
  the Schur complement of the other: by its one Cholesky factor, or by CG
  preconditioned by I (x) K_0 (Reid's method).  Otherwise (lognormal) a
  class is factored whole, or solved by SBGS-preconditioned CG.  The
  mean-based preconditioner is P_0 = I (x) K_0, every block a K_0 solve;
* Kronecker product: a single G (x) K_0 with G the Frobenius-optimal
  parametric factor, a sparse matrix the operator forms (``op.kron_factor()``);
* symmetric block Gauss-Seidel (SBGS): (D + L) D^{-1} (D + L^T) built
  from the truncation's block splitting, applied by one forward and one
  backward block-triangular sweep.  One engine and one builder,
  ``build_sbgs``, serve the affine and the lognormal splitting alike,
  from the truncation's pairs alone: each sweep step solves a whole level
  of independent blocks, batched by their diagonal block.

Every apply_inverse realizes a symmetric positive definite map, which
the test suite checks both algebraically and spectrally.  The truncation
preconditioners, mean among them, also take the parity ``classes`` of
their truncation (``op.parity_classes(r)``), which P_r never couples:
``apply_inverse(v, cls)`` then solves only the blocks of class ``cls``.
They and every SBGS, outer or trunc_exact's nested one, hold the
``lead`` leading terms of A, and ``apply_lead(v, cls)`` returns z = P^{-1}
v with P_lead z, which PCG takes in place of those terms' operator
product: v on the class solved where P is P_lead, t + L z for SBGS (t its
forward sweep's right-hand sides).  PCG hands a class to
``apply_inverse`` only through ``apply_lead``.

Every factorization but one goes through :class:`CholeskyFactor`: the
spatial solves, with K_0 or with a diagonal block of a splitting, the
truncation's lognormal blocks and the Kronecker product's G.  It takes
the matrix alone and reads one of four paths off it: a grid Laplacian
(the affine K_0) of order ``SINE_SOLVE_MIN`` (mesh level 4) and up is
solved in the sine eigenbasis of its 1-D factors, positive definite by
its closed-form eigenvalues; a unit-diagonal matrix whose off-diagonal
pattern 2-colours (the affine G) by the factor of its smaller colour's
S = I - B^T B; any other matrix by LAPACK and K^{-1} up to order
``DENSE_SOLVE_MAX`` (mesh levels <= 4) or where its Cholesky factor fills
``DENSE_SOLVE_FILL`` of it, and by SuperLU otherwise, at the measured
crossovers of the two.  The exception, the dense Schur complement of a
direct affine truncation class, keeps its LAPACK factor for ``dpotrs``.
Builders take the caller's K_0 factor, and none factors K_0 again; each
reads ny off its lead G (kron off v) and nx off that factor.  The
truncation builders (exact, mean too, and SBGS, the nested SBGS-PCG too)
take pairs led by I (x) K_0 only, which ``_shape`` checks once for all.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .kronsys import KroneckerSumOperator, PairList, _colouring, _is_identity, assemble_sparse
from .kronsys import _loop_product, _term_loop
from .pcg import BreakdownError as _BreakdownError
from .pcg import SolverConfig as _InnerConfig
from .pcg import pcg_solve as _inner_solve

# Largest tail block, in unknowns, that TruncExactPreconditioner solves directly
# (an I (x) K_0 block takes the caller's K_0 factor at any size); a class of
# larger blocks goes to a nested CG of its own.  An affine direct block costs
# one dense Cholesky of its Schur complement (order 225-450 at mesh level 4, at
# most half the guard, by LAPACK).  Scanned with the constant monkeypatched, in process,
# one BLAS thread (AMD EPYC), medians of five, rows identical at every cutoff:
# table2 (level 4, M = 8, k <= 4, r = 0..6) took 0.92 / 0.91 / 0.95 / 0.97 s
# at cutoff 1000 / 1600 / 2400 / 3200, and at k <= 3 0.41 / 0.43 / 0.44 /
# 0.43 s (0.37-0.45 s between runs at 1600).  On the lognormal grid (level 4,
# M = 4, N = 20, k = 3, r = 3..10), whose blocks are factored whole (orders
# 675-1350, by SuperLU), all-direct (1600) took 1.47 s, all-nested (0) 1.65 s.
TRUNC_DIRECT_GUARD = 1600
INNER_TOL = 1e-13
# Largest order CholeskyFactor factors by LAPACK whatever its fill.  Measured on
# one BLAS thread (OpenBLAS, Xeon) on the Q1 Laplacian pattern: the K^{-1}
# product beats the SuperLU triangular solves at every block width up to
# n = 441 (n = 225: 1 column 17 -> 9 us, 495 columns 4.0 -> 0.8 ms); from
# n = 529 SuperLU wins below ~45 columns, and at n = 961 below ~165.
DENSE_SOLVE_MAX = 500
# Above DENSE_SOLVE_MAX, LAPACK still takes a matrix whose Cholesky factor
# fills at least this share of n^2, up to DENSE_SOLVE_ENTRIES (n <= 5000,
# 200 MB a dense copy): read off its nonzeros where they reach it already,
# else off the factor SuperLU makes, L and U together, which is then dropped.
# The input's fill does not tell the paths apart, SuperLU's fill-in does.
# Measured on one BLAS thread (AMD EPYC), best of 3, ms, LAPACK factor and
# inverse -> SuperLU, and 45-column solves: the lognormal trunc_exact blocks
# (G_c (x) K_0, level 4, M 4, k 3, orders 675-1350, 2.0-3.65% full, factors
# 11-13% full) 5.4 -> 0.8 to 36 -> 6.2 and 0.54 -> 0.63 to 3.3 -> 2.5; kron's
# parity S at level 1, M 3, k 28 (order 2135, 0.8%, factor 9.6%) 116 -> 9.3
# and 8.2 -> 4.6; level 5's K_0 pattern (order 961, 0.9%, factor 3.9%) 13 ->
# 0.8 and 1.1 -> 0.6.  Against them kron's parity S at table3 k = 6 (order
# 920, 3.6%, factor 52%) 12.7 -> 12.0 and 1.0 -> 3.8, and on order 1000 with
# random patterns the factor crosses over at 28% fill-in (14 -> 15 ms) and
# the solve near 14% (1.2 -> 1.2 ms).  A full matrix of order 924 factors in
# 3.7 against 42 ms and solves 225 columns in 3.5 against 34 ms.
DENSE_SOLVE_FILL = 0.2
DENSE_SOLVE_ENTRIES = 25 * 10**6
# Smallest grid-Laplacian order solved by sine-basis GEMMs, not the dense path.
# Same machine, 165 columns, dense -> GEMMs: q = 7 26 -> 93 us, 11 133 -> 196,
# 13 241 -> 128 (loses below ~30 columns), 15 401 -> 186; 31 SuperLU 9.8 -> 1.5 ms.
SINE_SOLVE_MIN = 169


class NotPositiveDefiniteError(Exception):
    """A factorization met a non-positive pivot where SPD input was required."""


class InnerStallError(RuntimeError):
    """The nested truncation solve stopped short of factorization accuracy."""


@functools.lru_cache(maxsize=8)
def _grid_laplacian(q: int):
    """L = A (x) M + M (x) A; S, the orthogonal sine basis of A and M; L's eigenvalues."""
    A, M = (sp.diags(v, [-1, 0, 1], (q, q)) for v in ([-1.0, 2.0, -1.0], [1 / 6, 4 / 6, 1 / 6]))
    t = np.arange(1, q + 1) * math.pi / (q + 1)
    a, m = 2.0 - 2.0 * np.cos(t), (4.0 + 2.0 * np.cos(t)) / 6.0
    S = math.sqrt(2.0 / (q + 1)) * np.sin(np.outer(t, np.arange(1, q + 1)))
    S.flags.writeable = False  # cached, and kept by every factor of order q^2
    return (sp.kron(A, M) + sp.kron(M, A)).tocsc(), S, np.outer(a, m) + np.outer(m, a)


def _sine_solve(S: np.ndarray, inv_lam: np.ndarray, b: np.ndarray) -> np.ndarray:
    """S (inv_lam o (S X S)) S per q x q block X, a row of b.T (read in place)."""
    B = np.reshape(b.T, (-1, *S.shape))
    out = np.empty(B.shape)
    step = max(1, (1 << 15) // S.size)  # chunks of 256 KB stay in L2
    for s in range(0, len(B), step):
        out[s : s + step] = S @ (inv_lam * (S @ B[s : s + step] @ S)) @ S
    return out.reshape(b.T.shape).T


class CholeskyFactor:
    """Symmetric factorization with positive-definiteness detection.

    One interface, four paths chosen from the matrix itself, in this order:

    * a grid Laplacian (the affine K_0) of order q^2 >= ``SINE_SOLVE_MIN``,
      K = c L within 1e-12 max|K| for L = A (x) M + M (x) A,
      A = tridiag(-1, 2, -1) and M = tridiag(1, 4, 1) / 6: K^{-1} maps each
      q x q block X to S (Lambda^{-1} o (S X S)) S, S the symmetric
      orthogonal sine basis of A and M and Lambda = c (a_i m_j + m_i a_j)
      from their eigenvalues.  The closed-form Lambda > 0 (a, m > 0, c > 0)
      certifies positive definiteness, so nothing is factorized.
    * a K with unit diagonal whose off-diagonal pattern 2-colours
      (the affine kron G, [[I, B], [B^T, I]] by |alpha| parity): Reid's
      reduction (SIAM J. Numer. Anal. 9, 1972) to S = I - B^T B on the
      smaller colour, factored once through this class (by LAPACK where
      its factor fills, as at table3 k = 6), whose factor certifies K.
      A solve is y_o = S^{-1} (x_o - B^T x_e), then y_e = x_e - B y_o.
      An S that overflows, with K finite, is refused as not positive
      definite (only |B_ij| > 1 can overflow it).
    * n <= ``DENSE_SOLVE_MAX``, or n^2 <= ``DENSE_SOLVE_ENTRIES`` and a
      Cholesky factor with at least ``DENSE_SOLVE_FILL`` n^2 nonzeros, as K
      has or as SuperLU's factor of K has: LAPACK Cholesky of the dense
      matrix, from which K^{-1} is formed once (dpotri), so that a solve is
      one matrix product over all right-hand sides.  The Cholesky fails on
      a non-positive pivot, which certifies that K is not positive
      definite.
    * otherwise that SuperLU factor, in symmetric mode with diagonal
      pivoting, which for an SPD matrix is a Cholesky factorization up to
      diagonal scaling: L * sqrt(diag U) reproduces the permuted input.
      Positivity of all
      pivots together with equality of the row and column permutations
      certifies positive definiteness.

    Any certificate failing raises :class:`NotPositiveDefiniteError`; a NaN
    or inf entry is refused first, with the :class:`pcg.BreakdownError` PCG
    raises on non-finite data.  A dense array is converted to CSC first, so
    it takes, solves and refuses as its CSC form does.  ``path`` names the
    path taken: sine, parity, inverse or superlu.
    """

    def __init__(self, K: sp.spmatrix | np.ndarray):
        if K.shape[0] != K.shape[1]:
            raise ValueError("matrix must be square")
        K = sp.csc_matrix(K)
        if not np.isfinite(K.data).all():
            raise _BreakdownError("matrix has a non-finite entry")
        asym = abs(K - K.T).max()
        scale = abs(K).max() or 1.0
        if asym > 1e-10 * scale:
            raise ValueError(f"matrix not symmetric (deviation {asym:.3e})")
        n = self.n = K.shape[0]
        # Rejection in O(n) before L is built.
        q, d = math.isqrt(n), K.diagonal()
        grid = n >= SINE_SOLVE_MIN and q * q == n and K.nnz == (3 * q - 2) ** 2
        if grid and (c := d[0] * 3.0 / 8.0) > 0.0 and np.all(d == d[0]):
            L, S, lam = _grid_laplacian(q)
            if abs(K - c * L).max() <= 1e-12 * scale:
                self.path, self._data = "sine", (S, 1.0 / (c * lam))
                return
        if np.all(d == 1.0) and (parity := _parity_reduction(K)):
            self.path, self._data = "parity", parity
            return
        fits, lu = n * n <= DENSE_SOLVE_ENTRIES, None
        if n > DENSE_SOLVE_MAX and not (fits and K.nnz >= DENSE_SOLVE_FILL * n * n):
            lu = spla.splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           options=dict(SymmetricMode=True))
            if fits and lu.L.nnz + lu.U.nnz >= DENSE_SOLVE_FILL * n * n:
                lu = None  # filled in: the dense factor costs no more
        if lu is None:
            L = _dpotrf(K.toarray(order="F"))
            inv, _ = scipy.linalg.lapack.dpotri(L, lower=1, overwrite_c=1)
            inv += np.tril(inv, -1).T  # dpotri fills the lower triangle only
            self.path, self._data = "inverse", inv
            return
        self.path, self._data = "superlu", lu
        if not np.array_equal(lu.perm_r, lu.perm_c) or np.any(lu.U.diagonal() <= 0.0):
            raise NotPositiveDefiniteError(
                "matrix is not positive definite (non-positive pivot)"
            )

    @functools.cached_property
    def inverse(self) -> np.ndarray:
        """K^{-1}, dense, formed on first use."""
        return np.ascontiguousarray(self.solve(np.eye(self.n)))

    def shared(self, key, Ks: tuple, make):
        """make(), called on the first call for (key, the ids of the matrices
        Ks) and kept as long as this factor: the spatial set-up of a cell, made
        once for the builders of all its rows, which take it as their K_0
        factor.  An entry keeps its Ks, so no id is reused while it stands."""
        at = (key, *map(id, Ks))
        if at not in (store := self.__dict__.setdefault("_store", {})):
            store[at] = Ks, make()
        return store[at][1]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """K^{-1} b for b of shape (n,) or (n, m), one right-hand side per
        column, in either memory order; the result has b's shape.  Block
        arrays (rows = blocks) pass their transpose."""
        path, data = self.path, self._data
        if path == "inverse":
            return data @ b
        if path == "sine":
            return _sine_solve(*data, b)
        if path == "parity":
            keep, elim, B, Bt, S = data
            y = np.empty(b.shape)
            x_e = b[elim]
            y[keep] = y_o = S.solve(b[keep] - Bt @ x_e)
            y[elim] = x_e - B @ y_o
            return y
        return data.solve(b)


def _dpotrf(A: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of A, an F-ordered array it overwrites;
    a non-positive pivot certifies that A is not positive definite."""
    L, info = scipy.linalg.lapack.dpotrf(A, lower=1, clean=1, overwrite_a=1)
    if info != 0:
        raise NotPositiveDefiniteError("matrix is not positive definite (non-positive pivot)")
    return L


def _parity_reduction(K: sp.csc_matrix):
    """(kept, eliminated indices, B, B^T, factor of S = I - B^T B) for a
    unit-diagonal K whose off-diagonal pattern 2-colours, B = K[elim, kept]
    with the smaller colour kept; None if the pattern does not 2-colour."""
    C = K.tocoo()
    off = (C.row != C.col) & (C.data != 0.0)
    colour = _colouring([(np.ones(np.count_nonzero(off), dtype=np.int64),
                          C.row[off], C.col[off], C.data[off])], K.shape[0], 0)
    if colour is None:
        return None
    keep = colour if 2 * np.count_nonzero(colour) <= len(colour) else ~colour
    keep, elim = np.flatnonzero(keep), np.flatnonzero(~keep)
    B = K[elim][:, keep].tocsr()
    Bt = B.T.tocsr()
    S = sp.identity(len(keep), format="csc") - Bt @ B
    if not np.isfinite(S.data).all():
        raise NotPositiveDefiniteError("matrix is not positive definite (Schur overflow)")
    return keep, elim, B, Bt, CholeskyFactor(S)


def _shape(pairs, K0_factor: CholeskyFactor) -> tuple[int, int]:
    """(ny, nx): the orders of the lead G and of K0_factor, the lead K's.
    The truncation contract: the pairs are led by I (x) K_0, the mean term
    that every P_r keeps and that anchors each SBGS diagonal block."""
    if not pairs:
        raise ValueError("truncation needs at least one term")
    (G, K), n = pairs[0], K0_factor.n
    if not _is_identity(G):
        raise ValueError("truncation must be led by I (x) K_0")
    if K.shape[0] != n:
        raise ValueError(f"K_0 factor of order {n} for a lead K of order {K.shape[0]}")
    return G.shape[0], n


# ---------------------------------------------------------------------------
# Kronecker product


class KroneckerProductPreconditioner:
    def __init__(self, G: sp.csr_matrix, K0_factor: CholeskyFactor):
        self.G = G
        self.K0 = K0_factor
        self._G_factor = CholeskyFactor(G)

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        W = self.K0.solve(v.reshape(-1, self.K0.n).T)  # (nx, ny)
        return self._G_factor.solve(W.T).ravel()


def build_kron(op, K0_factor: CholeskyFactor) -> KroneckerProductPreconditioner:
    """P = G (x) K_0 with G = ``op.kron_factor()``, the Frobenius-optimal
    parametric factor of the operator; K0_factor factors its K_0."""
    return KroneckerProductPreconditioner(op.kron_factor(), K0_factor)


# ---------------------------------------------------------------------------
# exact truncation


def _tail_blocks(pairs: PairList) -> list[tuple[np.ndarray, tuple]]:
    """Parametric indices of the diagonal blocks of sum_l G_l (x) K_l, grouped,
    read off the entries (term, row, column, value) of the G_l.

    The blocks are the connected components of the union of the G_l
    patterns.  Components whose restricted G_l are equal entry by entry
    form one class; each class comes back as an (n, c) array of its n
    components' indices, ascending within a row, so that every row
    restricts the G_l to the same c x c matrices, and with those
    matrices' entries, by term, then row, then column.
    """
    (term, rows, cols, vals), n = pairs.triples, pairs.ny
    union = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    n_comp, comp = connected_components(union, directed=False)
    size = np.bincount(comp, minlength=n_comp)
    slot = _occurrence(comp)
    members = np.argsort(comp, kind="stable")  # component by component
    first = np.cumsum(size) - size

    # Key rows (term, row slot, column slot, value) sorted within each
    # component; equal components have equal sizes and key bytes.
    owner = comp[rows]
    order = np.lexsort((slot[cols], slot[rows], term, owner))
    keys = np.stack([term, slot[rows], slot[cols], vals], axis=1)[order]
    count = np.bincount(owner, minlength=n_comp)
    same: dict[tuple, tuple] = {}
    for q, key in enumerate(np.split(keys, np.cumsum(count)[:-1])):
        same.setdefault((size[q], key.tobytes()), (key, []))[1].append(q)
    return [
        (members[first[qs, None] + np.arange(size[qs[0]])],
         (*key[:, :3].T.astype(np.int64), key[:, 3]))
        for key, qs in same.values()
    ]


def _pairs(entries, Ks, n: int) -> tuple:
    """The (G_l, K_l) pairs of the entries on n blocks."""
    term, rows, cols, vals = entries
    masks = (term == l for l in range(len(Ks)))
    return tuple(
        (sp.csr_matrix((vals[t], (rows[t], cols[t])), shape=(n, n)), K) for t, K in zip(masks, Ks)
    )


def _solve_rows(factor: CholeskyFactor, B: np.ndarray) -> np.ndarray:
    """``factor``'s solve of block rows B, shape (n, c, nx): a column a row."""
    return factor.solve(B.reshape(len(B), -1).T).T.reshape(B.shape)


def _inner_cg(op, inner, f: np.ndarray, b_norm: float) -> np.ndarray:
    """op^{-1} f by CG preconditioned by ``inner``, to ||b - P_r z|| <=
    INNER_TOL ||b|| on the rows b of a nested class: f is b, or the reduced
    right-hand side of its Schur complement, whose residual is the full one
    on the kept colour (the other is eliminated exactly), so the tolerance is
    scaled by ||b|| / ||f||."""
    f_norm = np.linalg.norm(f)
    scale = b_norm / f_norm if f_norm else 1.0
    try:
        z, rep = _inner_solve(op, inner, f.ravel(), _InnerConfig(INNER_TOL * scale, 400))
    except _BreakdownError as exc:
        raise NotPositiveDefiniteError(
            "truncation is not positive definite (inner solve breakdown)"
        ) from exc
    if rep.final_relres / scale > 1e-10:
        raise InnerStallError(
            f"inner truncation solve stalled at relres {rep.final_relres / scale:.2e}"
        )
    return z.reshape(f.shape)


def _sbgs_cg(op: KroneckerSumOperator, sbgs: PairBlockSbgs, B: np.ndarray) -> np.ndarray:
    """P_r^{-1} on the block rows B of components of a lognormal class: CG on
    op, the class's pairs (kron(I_n, G_l), K_l) over its n components,
    preconditioned by their SBGS.  Rows of fewer components are padded with
    zero ones, which the uncoupled solve keeps at zero."""
    padded = np.zeros((op.ny // B.shape[1], *B.shape[1:]))
    padded[: len(B)] = B
    return _inner_cg(op, sbgs, padded, np.linalg.norm(B))[: len(B)]


class TruncExactPreconditioner:
    """Exact application of the truncation P_r = the sum of ``pairs``, the
    leading pairs ``op.leading(r)``, led by I (x) K_0 (``_shape`` refuses
    others); ``K0_factor`` is the caller's factor of the leading K (K_0).
    The mean-based preconditioner is P_0 = I (x) K_0.

    The leading terms couple parametric indices only within the connected
    components of their G patterns: for the affine expansion the
    multi-indices sharing a tail (alpha_{r+1}, ..., alpha_M), for the
    lognormal one those sharing the coordinates outside the leading
    multi-indices' support.  P_r is block diagonal over these tail blocks,
    and blocks with equal restricted G_l are equal (affine: one per
    remaining degree d = k - |tail|), a class.  P_r holds one part per
    class: its indices, (n, c) for n components of c blocks, and one solve
    of their block rows, (n, c, nx), set up from one component:

    * a class that is I (x) K_0 alone (affine d = 0, every block at r = 0)
      takes ``K0_factor``, at any size;
    * a class whose tail terms 2-colour its blocks (every affine class:
      D = I (x) K_0 on the diagonal, couplings between unlike parities of
      alpha_1 + ... + alpha_r) is P_r = [[D, C], [C^T, D]] by colour (Reid,
      SIAM J. Numer. Anal. 9, 1972).  The larger colour is eliminated with
      ``K0_factor``, the Schur complement S = D - C D^{-1} C^T of the
      smaller one is solved, and the other colour is back-substituted.  S
      is factored once by LAPACK up to ``TRUNC_DIRECT_GUARD`` unknowns a
      component, and is solved by CG preconditioned by D above it.  S's
      products K_l K_0^{-1} K_m and the stacked K_l are ``K0_factor``'s,
      made once per cell.  A factored S that overflows, with D and C finite,
      is refused as not positive definite;
    * any other class (lognormal: Hermite G with diagonals) is assembled
      and factored up to the guard (mostly SuperLU above
      ``DENSE_SOLVE_MAX``), and above it solved by CG on the class,
      preconditioned by its SBGS approximation, whose K_0 diagonal blocks
      are solved with ``K0_factor`` too, and the others by factors the
      cell's rows share.

    A nested class is one CG over all its components, run until ||b - P_r
    z|| <= ``INNER_TOL`` ||b||, 1e-13, on its rows b, i.e. to
    factorization-level accuracy.  ``classes``, from ``op.parity_classes(r)``,
    splits the blocks into two colours that P_r never couples, each
    component within one: ``apply_inverse(v, cls)`` solves the components
    of colour ``cls`` only, leaving zeros elsewhere.  The build reads no
    ``classes``, and colours a class only where it has a tail coupling.
    """

    def __init__(self, K0_factor: CholeskyFactor, pairs, classes=None):
        used = PairList(pairs)
        self.ny, self.nx = _shape(used, K0_factor)
        self.classes, self.lead = classes, len(used)
        Ks = [K for _, K in used]
        self._parts = []  # (class indices, solve of their block rows)
        for idx, block in _tail_blocks(used):
            n, c = idx.shape
            direct = c * self.nx <= TRUNC_DIRECT_GUARD
            if not block[0].any():  # I (x) K_0 alone
                solve = functools.partial(_solve_rows, K0_factor)
            elif (colour := _colouring([block], c, 0)) is not None:
                solve = _SchurComplement(block, Ks, colour, K0_factor, direct).solve
            elif direct:
                factor = CholeskyFactor(assemble_sparse(_pairs(block, Ks, c)))
                solve = functools.partial(_solve_rows, factor)
            else:
                kron = [(sp.kron(sp.identity(n), G, "csr"), K) for G, K in _pairs(block, Ks, c)]
                sbgs = PairBlockSbgs(kron, K0_factor)
                solve = functools.partial(_sbgs_cg, KroneckerSumOperator(kron), sbgs)
            self._parts.append((idx, solve))

    def apply_inverse(self, v: np.ndarray, cls: int | None = None) -> np.ndarray:
        V = v.reshape(self.ny, self.nx)
        Z = np.zeros((self.ny, self.nx))
        for idx, solve in self._parts:
            if cls is not None:  # the class's components of colour cls
                idx = idx[self.classes[idx[:, 0]] == cls]
            if len(idx):
                Z[idx] = solve(V[idx])
        return Z.ravel()

    def apply_lead(self, v: np.ndarray, cls: int | None = None) -> tuple:
        """(z, P_r z) for z = P^{-1} v: P_r z is v on the blocks of class
        ``cls``, the ones solved (all of v without a class), and zero off them."""
        if cls is None:
            return self.apply_inverse(v), v
        solved = (self.classes == cls)[:, None]
        return self.apply_inverse(v, cls), np.where(solved, v.reshape(len(solved), -1), 0.0).ravel()


class _SchurComplement:
    """S = D - C D^{-1} C^T on the kept colour of a truncation class that is
    [[D, C], [C^T, D]] in the order of a 2-colouring of one component's
    blocks, D = I (x) K_0.  With ``direct``, S is assembled and factored
    once by LAPACK for exact solves by ``dpotrs``, which forms no inverse
    for a class's few solves; else it is the operator of a reduced CG, which
    D preconditions (Reid's method).  The smaller colour is kept (S's order
    is at most half the guard), and every K_l product acts on its blocks,
    stacked once per cell.  Block rows carry the class's components on
    their second axis."""

    def __init__(self, entries, Ks, colour: np.ndarray, K0_factor: CholeskyFactor, direct=False):
        keep = colour if 2 * np.count_nonzero(colour) <= len(colour) else ~colour
        self.keep, self.elim = np.flatnonzero(keep), np.flatnonzero(~keep)
        self._K0, self.factor, self.nx = Ks[0], K0_factor, K0_factor.n
        # The C_l stacked by rows, cut from the entries (term, row, column,
        # value) of the G_l; the K_l by rows and by columns: one sparse call
        # per product.  A colouring needs a tail coupling, so Ks[1:] is not empty.
        self._r, self._n, self._Ks = len(Ks) - 1, len(self.keep), tuple(Ks[1:])
        term, rows, cols, vals = entries
        pos = np.empty(len(keep), dtype=np.int64)
        pos[self.keep], pos[self.elim] = np.arange(self._n), np.arange(len(self.elim))
        c = (term > 0) & keep[rows] & ~keep[cols]
        self._C = sp.csr_matrix(
            (vals[c], ((term[c] - 1) * self._n + pos[rows[c]], pos[cols[c]])),
            shape=(self._r * self._n, len(self.elim)),
        )
        self._Ct = self._C.T.tocsr()
        self._K_rows, self._K_cols = K0_factor.shared(
            "stacks", self._Ks, lambda: (sp.vstack(self._Ks, "csr"), sp.hstack(self._Ks, "csr")))
        self._S_L = None
        if direct:
            if not np.isfinite(self._K_rows.data).all():
                raise _BreakdownError("matrix has a non-finite entry")
            self._S_L = _dpotrf(self._assemble())

    def _assemble(self) -> np.ndarray:
        """S = I (x) K_0 - sum_{l,m} (C_l C_m^T) (x) (K_l K_0^{-1} K_m), dense,
        by (kept block, spatial index), and F-ordered for ``dpotrf``: its
        transpose is filled block by block, by (l, m), with the products the
        K_0 factor shares.  A pair with C_l C_m^T = 0 reads no product."""
        n, nx, Ks = self._n, self.nx, self._Ks
        W = (self._C @ self._Ct).tocoo()  # block (l, m): C_l C_m^T
        (l, i), (m, j) = np.divmod(W.row, n), np.divmod(W.col, n)
        St = np.zeros((n, nx, n, nx))  # S^T
        St[np.arange(n), :, np.arange(n)] = self._K0.toarray().T
        for q in np.lexsort((m, l)):
            a, b = Ks[l[q]], Ks[m[q]]  # P^T for P = K_a K_0^{-1} K_b
            Pt = self.factor.shared("schur", (a, b), lambda: np.ascontiguousarray(
                (a @ (b @ self.factor.inverse).T.copy()).T))
            St[j[q], :, i[q]] -= W.data[q] * Pt
        S = St.reshape(n * nx, n * nx).T
        # With D and C finite, only C D^{-1} C^T can overflow, and first on
        # its diagonal, which S then has at -inf.
        if not np.isfinite(S).all():
            raise NotPositiveDefiniteError("truncation is not positive definite (Schur overflow)")
        return S

    def _solve_D(self, Y: np.ndarray) -> np.ndarray:
        """D^{-1} Y for block rows Y, shape (blocks, ..., nx)."""
        return self.factor.solve(Y.reshape(-1, self.nx).T).T.reshape(Y.shape)

    apply_inverse = _solve_D  # the reduced CG's preconditioner, D^{-1}, on flat vectors

    def lift(self, Y: np.ndarray) -> np.ndarray:
        """C Y = sum_l (C_l (x) K_l) Y for rows Y of the eliminated blocks,
        shape (blocks, ..., nx): each Y[:, j] is one vector."""
        U = (self._C @ Y.reshape(len(Y), -1)).reshape(self._r, -1, self.nx).transpose(0, 2, 1)
        V = self._K_cols @ U.reshape(self._r * self.nx, -1)
        return V.T.reshape(self._n, *Y.shape[1:])

    def drop(self, X: np.ndarray) -> np.ndarray:
        """C^T X for rows X of the kept blocks, shape (blocks, ..., nx)."""
        m = X[0].size // self.nx  # vectors per block row
        W = (self._K_rows @ X.reshape(-1, self.nx).T).reshape(self._r, self.nx, -1)
        W = W.transpose(0, 2, 1).reshape(self._r * self._n, m * self.nx)
        return (self._Ct @ W).reshape(len(self.elim), *X.shape[1:])

    def matvec(self, p: np.ndarray) -> np.ndarray:
        """S p for the kept rows p, shape (kept blocks, components, nx), flat."""
        X = p.reshape(self._n, -1, self.nx)
        CDC = self.lift(self._solve_D(self.drop(X))).reshape(-1, self.nx)
        return (self._K0 @ X.reshape(-1, self.nx).T - CDC.T).T.ravel()

    def eliminate(self, B: np.ndarray, inner) -> np.ndarray:
        """P^{-1} B for block rows B, shape (blocks, ..., nx): the kept colour
        is ``inner`` of the reduced right-hand side f = B_keep - C D^{-1}
        B_elim, the other back-substituted as D^{-1} (B_elim - C^T Z_keep)."""
        f = B[self.keep] - self.lift(self._solve_D(B[self.elim]))
        Z = np.empty(B.shape)
        Z[self.keep] = inner(f)
        Z[self.elim] = self._solve_D(B[self.elim] - self.drop(Z[self.keep]))
        return Z

    def solve(self, B: np.ndarray) -> np.ndarray:
        """P^{-1} B for the block rows B, shape (n, c, nx), of n components:
        S by its factor where direct, else by CG preconditioned by D."""
        kept = self._exact
        if self._S_L is None:
            kept = functools.partial(_inner_cg, self, self, b_norm=np.linalg.norm(B))
        return self.eliminate(B.swapaxes(0, 1), kept).swapaxes(0, 1)

    def _exact(self, f: np.ndarray) -> np.ndarray:
        """S^{-1} f by dpotrs, f of shape (kept blocks, m, nx) by S's (block,
        spatial) order."""
        m = f.shape[1]
        z = scipy.linalg.lapack.dpotrs(self._S_L, f.swapaxes(1, 2).reshape(-1, m), lower=1)[0]
        return z.reshape(self._n, self.nx, m).swapaxes(1, 2)


def build_trunc_exact(K0_factor: CholeskyFactor, pairs, classes=None):
    return TruncExactPreconditioner(K0_factor, pairs, classes)


# ---------------------------------------------------------------------------
# SBGS


def _occurrence(tgt: np.ndarray) -> np.ndarray:
    """For each entry of tgt, the number of equal entries before it."""
    order = np.argsort(tgt, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(tgt)) - np.searchsorted(tgt[order], tgt[order])
    return rank


def _groups(key: np.ndarray, n: int) -> list[np.ndarray]:
    """Positions of key grouped by its value 0..n-1, ascending in a group:
    one stable sort, where a scan per value would be quadratic."""
    order = np.argsort(key, kind="stable")
    ends = np.cumsum(np.bincount(key, minlength=n)).tolist()
    return [order[a:b] for a, b in zip([0] + ends, ends)]


class PairBlockSbgs:
    """(D + L) D^{-1} (D + L^T) for a sum of Kronecker terms sum_l G_l (x) K_l.

    One engine for both splittings, on the blocks of the lead G, of the
    order of ``K0_factor``.  D_jj = sum_l G_l[j, j] K_l must be SPD, and L =
    sum_l tril(G_l, -1) (x) K_l.  Affine: G_0 = I and hollow G_m, so every
    D_jj is K_0; lognormal: Hermite diagonals vary D_jj.

    Blocks are scheduled by longest-path level in the union of the lower
    couplings, read in one pass in target order, so blocks of one level are
    independent.  A sweep step solves the blocks of a level that share a
    diagonal row (G_l[j, j])_l, which defines D_jj, in one
    multi-right-hand-side solve, and applies the couplings into the level
    per term, in rounds of distinct target blocks; the backward sweep solves
    only the blocks a coupling lands on, the others keep their forward
    value.  The diagonal row (1, 0, ..., 0), whose D_jj is the leading K
    (K_0), takes ``K0_factor``, the caller's factor of it; every other
    distinct row is factored once per cell (outer SBGS or nested) and kept
    by ``K0_factor`` under its signature, (K_l, G_l[j, j]) for the nonzero
    l.  A pair's K is read only for its couplings and the D_jj factored
    here.  Its ``lead`` is all its pairs, outer or nested: ``apply_lead``
    gives P_r z = t + L z, L z by the operator's term loop
    (``kronsys._term_loop``) of the tril(G_l, -1).
    """

    def __init__(self, pairs, K0_factor: CholeskyFactor):
        pairs = list(pairs)
        ny, nx = self.ny, self.nx = _shape(pairs, K0_factor)

        # One factor per distinct diagonal row; the row (1, 0, ..., 0) is K_0's.
        diag_rows, first, diag_id = np.unique(
            np.array([G.diagonal() for G, _ in pairs]).T,
            axis=0, return_index=True, return_inverse=True,
        )
        factor = []
        for d, j in zip(diag_rows, first):
            if d[0] == 1.0 and not d[1:].any():
                factor.append(K0_factor)
                continue
            ells = np.flatnonzero(d)
            Ks, coefs = tuple(pairs[ell][1] for ell in ells), tuple(map(float, d[ells]))
            try:  # D_jj = sum_l d[l] K_l, added in order, once per cell
                factor.append(K0_factor.shared(("D_jj", coefs), Ks, lambda: CholeskyFactor(
                    sum((c * K for c, K in zip(coefs, Ks)), sp.csr_matrix((nx, nx))))))
            except NotPositiveDefiniteError as exc:
                raise NotPositiveDefiniteError(
                    f"diagonal block {j} of the SBGS splitting is not SPD"
                ) from exc
        self.distinct_factor_count = len(factor)

        # Strictly lower couplings (targets, sources, values) of every term.
        lower = []
        for G, _ in pairs:
            C = G.tocoo()
            low = C.row > C.col
            lower.append((C.row[low], C.col[low], C.data[low]))
        # apply_lead's L z: the operator's term loop of the non-empty tril(G, -1).
        self.lead = len(pairs)
        self._lower = _term_loop((sp.csr_matrix((v, (t, s)), shape=(ny, ny)), K)
                                 for (t, s, v), (_, K) in zip(lower, pairs) if len(v))

        # Longest-path levels: a source precedes its target, so its level is final.
        rows = np.concatenate([t for t, _, _ in lower])
        srcs = np.concatenate([s for _, s, _ in lower])
        order = np.argsort(rows, kind="stable")
        level = [0] * ny
        for t, s in zip(rows[order].tolist(), srcs[order].tolist()):
            if level[s] >= level[t]:
                level[t] = level[s] + 1
        level = np.array(level, dtype=np.int64)
        n_levels = level.max() + 1
        by_level = _groups(level, n_levels)
        posmap = _occurrence(level)  # slot of each block within its level
        # Blocks a backward coupling lands on, and their slot among the
        # receiving blocks of their level; the other blocks keep Z = W.
        recv = np.unique(srcs)
        recv_pos = np.zeros(ny, dtype=np.int64)
        recv_pos[recv] = _occurrence(level[recv])

        # Couplings per level and term: (target slots, source blocks, values,
        # K), split into rounds of distinct targets (a Hermite term can
        # couple one block to two sources of a level).
        fwd = [[] for _ in by_level]
        bwd = [[] for _ in by_level]
        for (_, K), (row, col, val) in zip(pairs, lower):
            for out, tgt, src, pos in ((fwd, row, col, posmap), (bwd, col, row, recv_pos)):
                occ = _occurrence(tgt)
                rounds = occ.max(initial=0) + 1
                for k, e in enumerate(_groups(level[tgt] * rounds + occ, n_levels * rounds)):
                    if len(e):
                        out[k // rounds].append((pos[tgt[e]], src[e], val[e], K))

        def by_diagonal(blocks):
            groups = []
            for s in np.unique(diag_id[blocks]):
                sel = np.flatnonzero(diag_id[blocks] == s)
                groups.append((slice(None) if len(sel) == len(blocks) else sel, factor[s]))
            return groups

        # Per level: blocks and their (slots, factor) per diagonal row, forward
        # couplings, receiving blocks and theirs, backward couplings.
        self._levels = []
        back_by_level = (recv[e] for e in _groups(level[recv], n_levels))
        for idx, fwd_d, back, bwd_d in zip(by_level, fwd, back_by_level, bwd):
            self._levels.append(
                (idx, by_diagonal(idx), fwd_d, back, by_diagonal(back), bwd_d)
            )

    def apply_inverse(self, v: np.ndarray, *, rhs: np.ndarray | None = None) -> np.ndarray:
        """P^{-1} v; with ``rhs``, an (ny, nx) array, the forward sweep's
        right-hand sides t = v - L y = D y land in it.  It is keyword-only:
        the second positional argument of the other families is a class."""
        RHS = v.reshape(self.ny, self.nx)
        Z = np.empty((self.ny, self.nx))
        for idx, solves, fwd, *_ in self._levels:
            t = RHS[idx]  # a copy: idx is an index array
            for loc, src, val, K in fwd:
                t[loc] -= ((K @ Z[src].T) * val).T
            if rhs is not None:
                rhs[idx] = t
            for sel, factor in solves:
                Z[idx[sel]] = factor.solve(t[sel].T).T

        # The backward sweep overwrites the forward result block by block.
        for *_, back, solves, bwd in reversed(self._levels):
            acc = np.zeros((len(back), self.nx))
            for loc, src, val, K in bwd:
                acc[loc] += ((K @ Z[src].T) * val).T
            for sel, factor in solves:
                Z[back[sel]] -= factor.solve(acc[sel].T).T
        return Z.ravel()

    def apply_lead(self, v: np.ndarray, cls: None = None) -> tuple:
        """(z, P_r z) for z = P^{-1} v: the backward sweep solves (D + L^T) z
        = D y = t, so P_r z = (D + L + L^T) z = t + L z."""
        T = np.empty((self.ny, self.nx))
        z = self.apply_inverse(v, rhs=T)
        return z, _loop_product(self._lower, z, T)


def build_sbgs(K0_factor: CholeskyFactor, pairs) -> PairBlockSbgs:
    """pairs: the leading pairs of P_r, ``op.leading(r)``, led by I (x) K_0
    (``_shape`` refuses others), the condition under which the splitting is
    provably SPD.  K0_factor serves the K_0 blocks: every block of the
    affine splitting, whose G_m are hollow.  PCG takes P_r z from its
    sweeps (``lead``), as trunc_exact's nested SBGS-PCG does."""
    return PairBlockSbgs(pairs, K0_factor)


# These names exist only because perfbench's SETUP_SPANS and APPLY_SPANS and
# tests/test_span_names.py resolve them; ROADMAP item 1's PR B deletes them.
build_sbgs_affine = build_sbgs_lognormal = build_sbgs


class MeanBasedPreconditioner(TruncExactPreconditioner):
    """The mean-based preconditioner, P_0 = I (x) K_0: the truncation at r = 0."""

    apply_inverse = TruncExactPreconditioner.apply_inverse  # its own span


def build_mean_based(K0_factor: CholeskyFactor, pairs, classes=None):
    return MeanBasedPreconditioner(K0_factor, pairs, classes)
