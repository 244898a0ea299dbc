"""Preconditioners for the Kronecker-structured Galerkin systems.

Four families share one duck-typed interface, ``apply_inverse`` on flat
block vectors:

* mean-based: block-diagonal solves with the mean stiffness factor;
* Kronecker product: a single G (x) K_0 with G the Frobenius-optimal
  parametric factor, a sparse matrix;
* exact truncation: the leading r+1 terms, block diagonal over the
  parametric tails they leave uncoupled; one factor per distinct tail
  block up to a per-block size, one nested CG for the larger blocks;
* symmetric block Gauss-Seidel (SBGS): (D + L) D^{-1} (D + L^T) built
  from the truncation's block splitting, applied by one forward and one
  backward block-triangular sweep.  One engine and one builder,
  ``build_sbgs``, serve the affine and the lognormal splitting alike,
  from the truncation's pairs alone: each sweep step solves a whole level
  of independent blocks, batched by their diagonal block.

Every apply_inverse realizes a symmetric positive definite map, which
the test suite checks both algebraically and spectrally.

Every factorization goes through :class:`CholeskyFactor`: the spatial
solves, with K_0 or with a diagonal block of a splitting, the truncation's
block factors and the Kronecker product's G.  It reads one of three paths
off the matrix: a grid Laplacian (the affine K_0) of order
``SINE_SOLVE_MIN`` (mesh level 4) and up is solved in the sine eigenbasis
of its 1-D factors, positive definite by its closed-form eigenvalues; any
other matrix with a dense inverse up to order ``DENSE_SOLVE_MAX`` (mesh
levels <= 4) and with SuperLU above it, at the measured crossover of the
two.  Builders take the caller's K_0 factor.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .kronsys import KroneckerSumOperator, _is_identity, assemble_sparse
from .pcg import BreakdownError as _BreakdownError
from .pcg import SolverConfig as _InnerConfig
from .pcg import pcg_solve as _inner_solve

# Largest tail block, in unknowns, that TruncExactPreconditioner factorizes;
# larger blocks go to its nested CG.  Measured on one BLAS thread (OpenBLAS,
# Xeon) over the table2 grid (level 4, M = 8, k <= 4, r = 0..6), set-up and
# solve of all 56 cells summed: 1000 10.7 s, 1200 10.8 s, 1600 10.6 s,
# 2500 10.7 s, 3500 11.6 s (14.4 s with one factor of the whole truncation
# up to 20,000 unknowns); the k <= 3 cells alone 3.5, 3.7, 3.6, 3.9, 4.3 s
# (5.6 s).  At level 4 a block of 1600 unknowns holds up to seven
# multi-indices (1,575 unknowns, SuperLU factor ~0.02 s); ten take ~0.1 s
# and 35 over 1 s.
TRUNC_DIRECT_GUARD = 1600
INNER_TOL = 1e-13
# Largest order CholeskyFactor solves with a dense inverse.  Measured on one
# BLAS thread (OpenBLAS, Xeon) on the Q1 Laplacian pattern: the K^{-1}
# product beats the SuperLU triangular solves at every block width up to
# n = 441 (n = 225: 1 column 17 -> 9 us, 495 columns 4.0 -> 0.8 ms); from
# n = 529 SuperLU wins below ~45 columns, and at n = 961 below ~165.
DENSE_SOLVE_MAX = 500
# Smallest grid-Laplacian order solved by sine-basis GEMMs, not the dense path.
# Same machine, 165 columns, dense -> GEMMs: q = 7 26 -> 93 us, 11 133 -> 196,
# 13 241 -> 128 (loses below ~30 columns), 15 401 -> 186; 31 SuperLU 9.8 -> 1.5 ms.
SINE_SOLVE_MIN = 169


class NotPositiveDefiniteError(Exception):
    """A factorization met a non-positive pivot where SPD input was required."""


class InnerStallError(RuntimeError):
    """The nested truncation solve stopped short of factorization accuracy."""


@lru_cache(maxsize=8)
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

    One interface, three paths chosen from the matrix itself:

    * a grid Laplacian (the affine K_0) of order q^2 >= ``SINE_SOLVE_MIN``,
      K = c L within 1e-12 max|K| for L = A (x) M + M (x) A,
      A = tridiag(-1, 2, -1) and M = tridiag(1, 4, 1) / 6: K^{-1} maps each
      q x q block X to S (Lambda^{-1} o (S X S)) S, S the symmetric
      orthogonal sine basis of A and M and Lambda = c (a_i m_j + m_i a_j)
      from their eigenvalues.  The closed-form Lambda > 0 (a, m > 0, c > 0)
      certifies positive definiteness, so nothing is factorized.
    * any other n <= ``DENSE_SOLVE_MAX``: LAPACK Cholesky of the dense matrix,
      then K^{-1} formed once from the factor (dpotri), so that a solve is
      one matrix product over all right-hand sides.  The Cholesky fails on
      a non-positive pivot, which certifies that K is not positive definite.
    * larger n: SuperLU in symmetric mode with diagonal pivoting, which for
      an SPD matrix is a Cholesky factorization up to diagonal scaling:
      L * sqrt(diag U) reproduces the permuted input.  Positivity of all
      pivots together with equality of the row and column permutations
      certifies positive definiteness.

    Either factorization certificate failing raises
    :class:`NotPositiveDefiniteError`; a NaN or inf entry is refused first,
    with the :class:`pcg.BreakdownError` PCG raises on non-finite data.
    """

    def __init__(self, K: sp.spmatrix | np.ndarray):
        K = sp.csc_matrix(K)
        if K.shape[0] != K.shape[1]:
            raise ValueError("matrix must be square")
        if not np.isfinite(K.data).all():
            raise _BreakdownError("matrix has a non-finite entry")
        asym = abs(K - K.T).max()
        scale = abs(K).max() or 1.0
        if asym > 1e-10 * scale:
            raise ValueError(f"matrix not symmetric (deviation {asym:.3e})")
        self.n = K.shape[0]
        self._inv = self._lu = self._sine = None
        # Rejection in O(n) before L is built.
        q = math.isqrt(self.n)
        grid = self.n >= SINE_SOLVE_MIN and q * q == self.n and K.nnz == (3 * q - 2) ** 2
        d = K.diagonal() if grid else [0.0]
        c = d[0] * 3.0 / 8.0
        if c > 0.0 and np.all(d == d[0]):
            L, S, lam = _grid_laplacian(q)
            if abs(K - c * L).max() <= 1e-12 * scale:
                self._sine = (S, 1.0 / (c * lam))
                return
        if self.n <= DENSE_SOLVE_MAX:
            L, info = scipy.linalg.lapack.dpotrf(
                K.toarray(order="F"), lower=1, clean=1, overwrite_a=1
            )
            if info != 0:
                raise NotPositiveDefiniteError(
                    "matrix is not positive definite (non-positive pivot)"
                )
            inv, _ = scipy.linalg.lapack.dpotri(L, lower=1, overwrite_c=1)
            inv += np.tril(inv, -1).T  # dpotri fills the lower triangle only
            self._inv = inv
            return
        self._lu = spla.splu(
            K,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
        pivots = self._lu.U.diagonal()
        if not np.array_equal(self._lu.perm_r, self._lu.perm_c) or np.any(pivots <= 0.0):
            raise NotPositiveDefiniteError(
                "matrix is not positive definite (non-positive pivot)"
            )

    def solve(self, b: np.ndarray) -> np.ndarray:
        """K^{-1} b for b of shape (n,) or (n, m), one right-hand side per
        column, in either memory order; the result has b's shape.  Block
        arrays (rows = blocks) pass their transpose."""
        if self._inv is not None:
            return self._inv @ b
        if self._sine is not None:
            return _sine_solve(*self._sine, b)
        return self._lu.solve(b)


# ---------------------------------------------------------------------------
# mean-based


class MeanBasedPreconditioner:
    def __init__(self, K0_factor: CholeskyFactor, ny: int):
        self.K0 = K0_factor
        self.ny = ny
        self.nx = K0_factor.n

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        return self.K0.solve(v.reshape(self.ny, self.nx).T).T.ravel()


def build_mean_based(K0_factor: CholeskyFactor, ny: int) -> MeanBasedPreconditioner:
    return MeanBasedPreconditioner(K0_factor, ny)


# ---------------------------------------------------------------------------
# Kronecker product


class KroneckerProductPreconditioner:
    def __init__(self, G: sp.csr_matrix, K0_factor: CholeskyFactor):
        self.G = G
        self.K0 = K0_factor
        self.ny = G.shape[0]
        self.nx = K0_factor.n
        self._G_factor = CholeskyFactor(G)

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        W = self.K0.solve(v.reshape(self.ny, self.nx).T)  # (nx, ny)
        return self._G_factor.solve(W.T).ravel()


def build_kron(terms, K0_factor: CholeskyFactor) -> KroneckerProductPreconditioner:
    """P = G (x) K_0 with G = sum_i [tr(K_i^T K_0)/tr(K_0^T K_0)] G_i.

    G is the closed-form minimizer of the Frobenius distance between the
    term sum and Q (x) K_0, formed as one sparse product that adds the
    weighted G_i entry by entry in term order.  The leading term must carry
    an identity parametric factor (its K is the K_0 used for the fit, and
    K0_factor factors it).
    """
    terms = list(terms)
    if not terms or not _is_identity(terms[0][0]):
        raise ValueError("leading term must have an identity parametric factor")
    G0, K0 = terms[0]
    # The second factor of each inner product is K_0 scaled by a power of
    # two to max entry in [1/2, 1): the weights are the same bits, and stay
    # finite where <K_0, K_0> itself overflows.
    K0_scaled = K0 * np.ldexp(1.0, -np.frexp(abs(K0).max())[1])
    denom = K0.multiply(K0_scaled).sum()
    w = np.array([K_i.multiply(K0_scaled).sum() / denom for _, K_i in terms])
    G = sp.hstack([G_i for G_i, _ in terms]) @ sp.kron(w[:, None], sp.identity(G0.shape[0]))
    return KroneckerProductPreconditioner(G.tocsr(), K0_factor)


# ---------------------------------------------------------------------------
# exact truncation


def _tail_blocks(Gs: list, ny: int) -> list[np.ndarray]:
    """Parametric indices of the diagonal blocks of sum_l G_l (x) K_l, grouped.

    The blocks are the connected components of the union of the G_l
    patterns.  Components whose restricted G_l are equal entry by entry
    form one class; each class comes back as an (n, c) array of its n
    components' indices, ascending within a row, so that every row
    restricts the G_l to the same c x c matrices.
    """
    rows = np.concatenate([G.row for G in Gs])
    cols = np.concatenate([G.col for G in Gs])
    union = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(ny, ny))
    n_comp, comp = connected_components(union, directed=False)
    size = np.bincount(comp, minlength=n_comp)
    slot = _occurrence(comp)
    members = np.argsort(comp, kind="stable")  # component by component
    first = np.cumsum(size) - size

    # Key rows (term, row slot, column slot, value) sorted within each
    # component; equal components have equal sizes and key bytes.
    term = np.concatenate([np.full(G.nnz, ell) for ell, G in enumerate(Gs)])
    vals = np.concatenate([G.data for G in Gs])
    owner = comp[rows]
    order = np.lexsort((slot[cols], slot[rows], term, owner))
    entries = np.stack([term, slot[rows], slot[cols], vals], axis=1)[order]
    count = np.bincount(owner, minlength=n_comp)
    same: dict[tuple, list[int]] = {}
    for q, key in enumerate(np.split(entries, np.cumsum(count)[:-1])):
        same.setdefault((size[q], key.tobytes()), []).append(q)
    return [members[first[qs, None] + np.arange(size[qs[0]])] for qs in same.values()]


class TruncExactPreconditioner:
    """Exact application of the truncation P_r = the sum of ``terms``, the
    leading pairs ``kronsys.leading_terms(op, r)``.

    The leading terms couple parametric indices only within the connected
    components of their G patterns: for the affine expansion the
    multi-indices sharing a tail (alpha_{r+1}, ..., alpha_M), for the
    lognormal one those sharing the coordinates outside the leading
    multi-indices' support.  P_r is block diagonal over these tail blocks,
    and blocks with equal restricted G_l are equal (affine: one per
    remaining degree d = k - |tail|).  Each such class with at most
    ``TRUNC_DIRECT_GUARD`` unknowns per block is assembled and factorized
    once, and applied as one multi-right-hand-side solve whose columns are
    the class's blocks.  The larger blocks together are solved with one
    inner conjugate-gradient iteration on the restricted truncation,
    preconditioned by its SBGS approximation and run to relative tolerance
    ``INNER_TOL`` = 1e-13, i.e. to factorization-level accuracy.
    """

    def __init__(self, terms, ny: int, nx: int):
        used = tuple(terms)
        if not used:
            raise ValueError("truncation needs at least one term")
        self.ny = ny
        self.nx = nx
        Gs = [sp.csr_matrix(G) for G, _ in used]
        self._direct = []  # (class indices, factor of its block)
        nested = []
        for idx in _tail_blocks([G.tocoo() for G in Gs], ny):
            c = idx.shape[1]
            if c * nx > TRUNC_DIRECT_GUARD:
                nested.append(idx.ravel())
                continue
            block = [(G[idx[0]][:, idx[0]], K) for G, (_, K) in zip(Gs, used)]
            self._direct.append((idx, CholeskyFactor(assemble_sparse(block))))
        self.distinct_factor_count = len(self._direct)
        self._rest = None
        if nested:
            rest = np.sort(np.concatenate(nested))
            block = tuple((G[rest][:, rest], K) for G, (_, K) in zip(Gs, used))
            self._rest = rest
            self._op = KroneckerSumOperator(terms=block, ny=len(rest), nx=nx)
            self._inner_precond = PairBlockSbgs(block, len(rest), nx)
            self._inner_cfg = _InnerConfig(tol=INNER_TOL, max_iter=400)

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        V = v.reshape(self.ny, self.nx)
        Z = np.empty((self.ny, self.nx))
        for idx, factor in self._direct:
            n, c = idx.shape
            X = factor.solve(V[idx].reshape(n, c * self.nx).T)
            Z[idx] = X.T.reshape(n, c, self.nx)
        if self._rest is not None:
            Z[self._rest] = self._solve_nested(V[self._rest].ravel()).reshape(-1, self.nx)
        return Z.ravel()

    def _solve_nested(self, v: np.ndarray) -> np.ndarray:
        try:
            z, rep = _inner_solve(self._op, self._inner_precond, v, self._inner_cfg)
        except _BreakdownError as exc:
            raise NotPositiveDefiniteError(
                "truncation is not positive definite (inner solve breakdown)"
            ) from exc
        if rep.final_relres > 1e-10:
            raise InnerStallError(
                f"inner truncation solve stalled at relres {rep.final_relres:.2e}"
            )
        return z


def build_trunc_exact(terms, ny: int, nx: int) -> TruncExactPreconditioner:
    return TruncExactPreconditioner(terms, ny, nx)


# ---------------------------------------------------------------------------
# SBGS


def _occurrence(tgt: np.ndarray) -> np.ndarray:
    """For each entry of tgt, the number of equal entries before it."""
    order = np.argsort(tgt, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(tgt)) - np.searchsorted(tgt[order], tgt[order])
    return rank


class PairBlockSbgs:
    """(D + L) D^{-1} (D + L^T) for a sum of Kronecker terms sum_l G_l (x) K_l.

    One engine for both splittings.  D_jj = sum_l G_l[j, j] K_l must be
    SPD, and L = sum_l tril(G_l, -1) (x) K_l.  Affine: G_0 = I and hollow
    G_m, so every D_jj is K_0; lognormal: Hermite diagonals vary D_jj.

    Blocks are scheduled by longest-path level in the union of the lower
    couplings, so blocks of one level are independent.  A sweep step solves
    the blocks of a level that share a diagonal row (G_l[j, j])_l, which
    defines D_jj, in one multi-right-hand-side solve, and applies the
    couplings into the level per term, in rounds of distinct target blocks;
    the backward sweep solves only the blocks a coupling lands on, the
    others keep their forward value.  ``K0``, a factor of the leading K,
    serves the rows (1, 0, ..., 0), whose D_jj is that K; a pair's K is
    read only for its couplings and the other D_jj.
    """

    def __init__(self, pairs, ny: int, nx: int, K0: CholeskyFactor | None = None):
        pairs = list(pairs)
        if not pairs:
            raise ValueError("truncation needs at least one term")
        self.ny = ny
        self.nx = nx

        # One factor per distinct diagonal row.
        diag_rows, first, diag_id = np.unique(
            np.array([G.diagonal() for G, _ in pairs]).T,
            axis=0, return_index=True, return_inverse=True,
        )
        factor = []
        for d, j in zip(diag_rows, first):
            if K0 is not None and d[0] == 1.0 and not d[1:].any():
                factor.append(K0)
                continue
            D_jj = sp.csr_matrix((nx, nx))
            for ell in np.flatnonzero(d):
                D_jj = D_jj + float(d[ell]) * pairs[ell][1]
            try:
                factor.append(CholeskyFactor(D_jj))
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

        # Longest-path level over the union of the couplings, by relaxation:
        # every source ends at a smaller level than its target.
        rows = np.concatenate([t for t, _, _ in lower])
        srcs = np.concatenate([s for _, s, _ in lower])
        level = np.zeros(ny, dtype=np.int64)
        while True:
            deeper = np.zeros(ny, dtype=np.int64)
            np.maximum.at(deeper, rows, level[srcs] + 1)
            if np.array_equal(deeper, level):
                break
            level = deeper
        by_level = [np.flatnonzero(level == d) for d in range(level.max() + 1)]
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
                key = level[tgt] * ny + _occurrence(tgt)
                for k in np.unique(key):
                    e = key == k
                    out[k // ny].append((pos[tgt[e]], src[e], val[e], K))

        def by_diagonal(blocks):
            groups = []
            for s in np.unique(diag_id[blocks]):
                sel = np.flatnonzero(diag_id[blocks] == s)
                groups.append((slice(None) if len(sel) == len(blocks) else sel, factor[s]))
            return groups

        # Per level: blocks and their (slots, factor) per diagonal row, forward
        # couplings, receiving blocks and theirs, backward couplings.
        self._levels = []
        for d, (idx, fwd_d, bwd_d) in enumerate(zip(by_level, fwd, bwd)):
            back = recv[level[recv] == d]
            self._levels.append(
                (idx, by_diagonal(idx), fwd_d, back, by_diagonal(back), bwd_d)
            )

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        RHS = v.reshape(self.ny, self.nx)
        Z = np.empty((self.ny, self.nx))
        for idx, solves, fwd, *_ in self._levels:
            rhs = RHS[idx]  # a copy: idx is an index array
            for loc, src, val, K in fwd:
                rhs[loc] -= ((K @ Z[src].T) * val).T
            for sel, factor in solves:
                Z[idx[sel]] = factor.solve(rhs[sel].T).T

        # The backward sweep overwrites the forward result block by block.
        for *_, back, solves, bwd in reversed(self._levels):
            acc = np.zeros((len(back), self.nx))
            for loc, src, val, K in bwd:
                acc[loc] += ((K @ Z[src].T) * val).T
            for sel, factor in solves:
                Z[back[sel]] -= factor.solve(acc[sel].T).T
        return Z.ravel()


def build_sbgs(K0_factor: CholeskyFactor, pairs, ny: int, nx: int) -> PairBlockSbgs:
    """pairs: the leading pairs of P_r, ``kronsys.leading_terms(op, r)``.

    The truncation must be led by I (x) K_0, so that the mean stiffness
    anchors every diagonal block (the condition under which the splitting
    is provably SPD).  The blocks whose only diagonal entry comes from that
    term are exactly K_0, so the caller's K_0 factor serves them: every
    block of the affine splitting, whose G_m are hollow.
    """
    pairs = list(pairs)
    if not pairs or not _is_identity(pairs[0][0]):
        raise ValueError("SBGS needs the truncation led by I (x) K_0")
    return PairBlockSbgs(pairs, ny, nx, K0_factor)


# These names exist only because perfbench's SETUP_SPANS["sbgs"] and
# tests/test_span_names.py resolve them; ROADMAP item 1's PR B deletes them.
build_sbgs_affine = build_sbgs_lognormal = build_sbgs
