"""Preconditioners for the Kronecker-structured Galerkin systems.

Four families share one duck-typed interface (``apply_inverse`` on flat
block vectors, plus ``label`` and ``r`` attributes for reporting):

* mean-based: block-diagonal solves with the mean stiffness factor;
* Kronecker product: a single G (x) K_0 with G the Frobenius-optimal
  parametric factor;
* exact truncation: direct factorization of the leading r+1 terms;
* symmetric block Gauss-Seidel (SBGS): (D + L) D^{-1} (D + L^T) built
  from the truncation's block splitting, applied by one forward and one
  backward block-triangular sweep.

Every apply_inverse realizes a symmetric positive definite map, which
the test suite checks both algebraically and spectrally.

All spatial solves, with K_0 or with a diagonal block of a splitting, and
the direct truncation factor go through :class:`CholeskyFactor`.  It
solves with a dense inverse up to order ``DENSE_SOLVE_MAX`` (mesh levels
<= 4) and with SuperLU above it (level-5 meshes and every assembled
truncation), at the measured crossover of the two.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import gram
from .kronsys import KroneckerSumOperator, as_blocks, assemble_sparse, from_blocks
from .pcg import BreakdownError as _InnerBreakdown
from .pcg import SolverConfig as _InnerConfig
from .pcg import pcg_solve as _inner_solve

TRUNC_DIRECT_GUARD = 20000
INNER_TOL = 1e-13
# Largest order CholeskyFactor solves with a dense inverse.  Measured on one
# BLAS thread (OpenBLAS, Xeon): the K^{-1} product beats the SuperLU
# triangular solves at every block width up to n = 441 (Q1 Laplacian,
# n = 225: 1 column 17 -> 9 us, 495 columns 4.0 -> 0.8 ms); from n = 529
# SuperLU wins below ~45 columns, and at n = 961 below ~165.
DENSE_SOLVE_MAX = 500


class NotPositiveDefiniteError(Exception):
    """A factorization met a non-positive pivot where SPD input was required."""


class InnerStallError(RuntimeError):
    """The nested truncation solve stopped short of factorization accuracy."""


def _dense_cholesky(K: sp.csc_matrix) -> np.ndarray:
    """Dense lower Cholesky factor (Fortran order), or NotPositiveDefiniteError."""
    L, info = scipy.linalg.lapack.dpotrf(
        K.toarray(order="F"), lower=1, clean=1, overwrite_a=1
    )
    if info != 0:
        raise NotPositiveDefiniteError(
            "matrix is not positive definite (non-positive pivot)"
        )
    return L


class CholeskyFactor:
    """Symmetric factorization with positive-definiteness detection.

    One interface, two paths chosen by the order n:

    * n <= ``DENSE_SOLVE_MAX``: LAPACK Cholesky of the dense matrix, then
      K^{-1} formed once from the factor (dpotri), so that a solve is one
      matrix product over all right-hand sides.  The Cholesky fails on a
      non-positive pivot, which certifies that K is not positive definite.
    * larger n: SuperLU in symmetric mode with diagonal pivoting, which for
      an SPD matrix is a Cholesky factorization up to diagonal scaling:
      L * sqrt(diag U) reproduces the permuted input.  Positivity of all
      pivots together with equality of the row and column permutations
      certifies positive definiteness.

    Either certificate failing raises :class:`NotPositiveDefiniteError`.
    """

    def __init__(self, K: sp.spmatrix | np.ndarray):
        K = sp.csc_matrix(K)
        if K.shape[0] != K.shape[1]:
            raise ValueError("matrix must be square")
        asym = abs(K - K.T).max()
        scale = abs(K).max() or 1.0
        if asym > 1e-10 * scale:
            raise ValueError(f"matrix not symmetric (deviation {asym:.3e})")
        self.n = K.shape[0]
        if self.n <= DENSE_SOLVE_MAX:
            self._K = K
            self._lu = None
            inv, _ = scipy.linalg.lapack.dpotri(_dense_cholesky(K), lower=1, overwrite_c=1)
            inv += np.tril(inv, -1).T  # dpotri fills the lower triangle only
            self._inv = inv
            return
        self._inv = None
        self._lu = spla.splu(
            K,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
        pivots = self._lu.U.diagonal()
        if not np.array_equal(self._lu.perm_r, self._lu.perm_c) or np.any(
            pivots <= 0.0
        ):
            raise NotPositiveDefiniteError(
                "matrix is not positive definite (non-positive pivot)"
            )

    def solve(self, b: np.ndarray) -> np.ndarray:
        """K^{-1} b for a vector or a matrix of stacked right-hand sides."""
        if self._inv is not None:
            return self._inv @ b
        return self._lu.solve(np.ascontiguousarray(b))

    @property
    def permutation(self) -> np.ndarray:
        """Ordering p such that lower_factor() reconstructs K[p][:, p]."""
        if self._lu is None:
            return np.arange(self.n)
        return np.argsort(self._lu.perm_c)

    def lower_factor(self) -> sp.csr_matrix:
        """Lower-triangular L with L L^T = K[p][:, p] (small-scale checks)."""
        if self._lu is None:
            return sp.csr_matrix(_dense_cholesky(self._K))
        d = np.sqrt(self._lu.U.diagonal())
        return (self._lu.L @ sp.diags(d)).tocsr()


def factor_spd(K: sp.spmatrix | np.ndarray) -> CholeskyFactor:
    return CholeskyFactor(K)


def _as_factor(K0) -> CholeskyFactor:
    return K0 if isinstance(K0, CholeskyFactor) else factor_spd(K0)


# ---------------------------------------------------------------------------
# mean-based


class MeanBasedPreconditioner:
    label = "mean"
    r = 0

    def __init__(self, K0_factor: CholeskyFactor, ny: int):
        self.K0 = K0_factor
        self.ny = ny
        self.nx = K0_factor.n

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        V = as_blocks(v, self.nx, self.ny)
        return from_blocks(self.K0.solve(V))


def build_mean_based(K0, ny: int) -> MeanBasedPreconditioner:
    return MeanBasedPreconditioner(_as_factor(K0), ny)


# ---------------------------------------------------------------------------
# Kronecker product


class KroneckerProductPreconditioner:
    label = "kron"
    r = None

    def __init__(self, G: np.ndarray, K0_factor: CholeskyFactor):
        self.G = G
        self.K0 = K0_factor
        self.ny = G.shape[0]
        self.nx = K0_factor.n
        try:
            self._g_chol = scipy.linalg.cho_factor(G)
        except scipy.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                "Frobenius-optimal parametric factor G is not positive definite"
            ) from exc

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        W = self.K0.solve(as_blocks(v, self.nx, self.ny))  # (nx, ny)
        Z = scipy.linalg.cho_solve(self._g_chol, W.T)  # (ny, nx)
        return Z.ravel()


def build_kron(terms, K0_factor: CholeskyFactor | None = None) -> KroneckerProductPreconditioner:
    """P = G (x) K_0 with G = sum_i [tr(K_i^T K_0)/tr(K_0^T K_0)] G_i.

    G is the closed-form minimizer of the Frobenius distance between the
    term sum and Q (x) K_0.  The leading term must carry an identity
    parametric factor (its K is the K_0 used for the fit).
    """
    terms = list(terms)
    if not terms:
        raise ValueError("empty term list")
    G0, K0 = terms[0]
    n = G0.shape[0]
    if abs(G0 - sp.identity(n)).max() != 0.0:
        raise ValueError("leading term must have an identity parametric factor")
    denom = K0.multiply(K0).sum()
    G = np.zeros((n, n))
    for G_i, K_i in terms:
        weight = K_i.multiply(K0).sum() / denom
        G += weight * G_i.toarray()
    return KroneckerProductPreconditioner(G, K0_factor or factor_spd(K0))


# ---------------------------------------------------------------------------
# exact truncation


class TruncExactPreconditioner:
    """Exact application of the truncation P_r (first r+1 ordered terms).

    At or below ``TRUNC_DIRECT_GUARD`` unknowns the truncation is
    assembled and factorized directly.  Above that size, where the direct
    factor no longer fits in memory, apply_inverse solves P_r z = v with
    an inner conjugate-gradient iteration preconditioned by the SBGS
    approximation of the same truncation, run to relative tolerance
    ``INNER_TOL`` = 1e-13, i.e. to factorization-level accuracy.
    """

    label = "trunc_exact"

    def __init__(self, terms, r: int, ny: int, nx: int):
        used = tuple(terms)[: r + 1]
        if not used:
            raise ValueError("truncation needs at least one term")
        self.r = r
        self.ny = ny
        self.nx = nx
        if ny * nx <= TRUNC_DIRECT_GUARD:
            P = assemble_sparse(KroneckerSumOperator(terms=used, ny=ny, nx=nx))
            self._factor = CholeskyFactor(P)
        else:
            self._factor = None
            self._op = KroneckerSumOperator(terms=used, ny=ny, nx=nx)
            self._inner_precond = _sbgs_for_pairs(used, ny, nx)
            self._inner_cfg = _InnerConfig(tol=INNER_TOL, max_iter=400)

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        if self._factor is not None:
            return self._factor.solve(v)
        try:
            z, rep = _inner_solve(self._op, self._inner_precond, v, self._inner_cfg)
        except _InnerBreakdown as exc:
            raise NotPositiveDefiniteError(
                "truncation is not positive definite (inner solve breakdown)"
            ) from exc
        if rep.final_relres > 1e-10:
            raise InnerStallError(
                f"inner truncation solve stalled at relres {rep.final_relres:.2e}"
            )
        return z


def _sbgs_for_pairs(pairs, ny: int, nx: int):
    """SBGS approximation of sum_i G_i (x) K_i for use as an inner
    preconditioner: the level-batched affine sweep when the leading
    parametric factor is the identity and the rest are hollow, the
    generic per-block form otherwise."""
    G0, K0 = pairs[0]
    identity_lead = abs(G0 - sp.identity(ny)).max() == 0.0
    hollow_rest = all(not np.any(G.diagonal()) for G, _ in pairs[1:])
    if identity_lead and hollow_rest:
        return SbgsAffinePreconditioner(factor_spd(K0), list(pairs[1:]), ny, nx)
    return PairBlockSbgs(pairs, ny, nx)


def build_trunc_exact(terms, r: int, ny: int, nx: int) -> TruncExactPreconditioner:
    return TruncExactPreconditioner(terms, r, ny, nx)


# ---------------------------------------------------------------------------
# SBGS, affine splitting (shared diagonal factor)


class SbgsAffinePreconditioner:
    """(D_0 + S_r) D_0^{-1} (D_0 + S_r^T) with D_0 = I (x) K_0.

    S_r = sum_m L_m (x) K_m over the first r linear terms, L_m the strict
    lower split of G_m.  Under the degree-lex ordering every L_m has at
    most one entry per row and column and couples blocks whose restricted
    degree differs by one, so blocks of equal restricted degree are
    independent; the sweeps batch all solves of one level into a single
    multi-right-hand-side K_0 solve.
    """

    label = "sbgs"

    def __init__(self, K0_factor: CholeskyFactor, terms, ny: int, nx: int):
        self.K0 = K0_factor
        self.ny = ny
        self.nx = nx
        self.r = len(terms)

        split = []
        for G_m, K_m in terms:
            L_m = gram.split_lower(G_m).tocoo()
            split.append((L_m, K_m))

        # Longest-path depth over the strict-lower coupling graph; sources of
        # every edge sit at a strictly smaller depth than the target row.
        level = np.zeros(ny, dtype=np.int64)
        edges_by_row: list[list[tuple[int, float, int]]] = [[] for _ in range(ny)]
        for m_idx, (L_m, _) in enumerate(split):
            for t, j, val in zip(L_m.row, L_m.col, L_m.data):
                edges_by_row[t].append((j, val, m_idx))
        for t in range(ny):
            if edges_by_row[t]:
                level[t] = max(level[j] + 1 for j, _, _ in edges_by_row[t])

        self._levels = np.unique(level)
        self._level_idx = [np.flatnonzero(level == d) for d in self._levels]
        posmap = np.empty(ny, dtype=np.int64)
        for idx in self._level_idx:
            posmap[idx] = np.arange(len(idx))

        # Per level and term: local target slots, source blocks, couplings.
        self._K = [K_m for _, K_m in split]
        self._fwd: list[list[tuple[np.ndarray, np.ndarray, np.ndarray, int]]] = []
        self._bwd: list[list[tuple[np.ndarray, np.ndarray, np.ndarray, int]]] = []
        for d in self._levels:
            fwd_d, bwd_d = [], []
            for m_idx, (L_m, _) in enumerate(split):
                sel = level[L_m.row] == d
                if np.any(sel):
                    fwd_d.append(
                        (posmap[L_m.row[sel]], L_m.col[sel], L_m.data[sel], m_idx)
                    )
                sel = level[L_m.col] == d
                if np.any(sel):
                    bwd_d.append(
                        (posmap[L_m.col[sel]], L_m.row[sel], L_m.data[sel], m_idx)
                    )
            self._fwd.append(fwd_d)
            self._bwd.append(bwd_d)

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        RHS = as_blocks(v, self.nx, self.ny)
        W = np.empty((self.nx, self.ny))
        for d_pos in range(len(self._levels)):
            idx = self._level_idx[d_pos]
            rhs = RHS[:, idx].copy()
            for loc, src, val, m_idx in self._fwd[d_pos]:
                rhs[:, loc] -= (self._K[m_idx] @ W[:, src]) * val
            W[:, idx] = self.K0.solve(rhs)

        Z = np.empty_like(W)
        for d_pos in range(len(self._levels) - 1, -1, -1):
            idx = self._level_idx[d_pos]
            groups = self._bwd[d_pos]
            if not groups:
                Z[:, idx] = W[:, idx]
                continue
            acc = np.zeros((self.nx, len(idx)))
            for loc, src, val, m_idx in groups:
                acc[:, loc] += (self._K[m_idx] @ Z[:, src]) * val
            Z[:, idx] = W[:, idx] - self.K0.solve(acc)
        return from_blocks(Z)


def build_sbgs_affine(K0, terms, ny: int, nx: int) -> SbgsAffinePreconditioner:
    """terms: the linear pairs (G_m, K_m) for m = 1..r (possibly empty)."""
    return SbgsAffinePreconditioner(_as_factor(K0), list(terms), ny, nx)


# ---------------------------------------------------------------------------
# SBGS, lognormal splitting (per-block diagonal factors)


class PairBlockSbgs:
    """(D + L) D^{-1} (D + L^T) for a general sum of Kronecker terms.

    D collects every diagonal Gram contribution (hollow parametric
    factors contribute nothing), giving one block D_jj per parametric
    basis function, each of which must be SPD; L collects all strictly
    lower block couplings.  Blocks sharing the same diagonal coefficient
    signature share one factorization.
    """

    label = "sbgs"

    def __init__(self, pairs, ny: int, nx: int):
        pairs = list(pairs)
        if not pairs:
            raise ValueError("truncation needs at least one term")
        self.r = len(pairs) - 1
        self.ny = ny
        self.nx = nx

        diag_contrib: list[tuple[int, np.ndarray]] = []
        self._fwd: list[list[tuple[int, float, sp.csr_matrix]]] = [[] for _ in range(ny)]
        self._bwd: list[list[tuple[int, float, sp.csr_matrix]]] = [[] for _ in range(ny)]
        for ell, (G, K) in enumerate(pairs):
            d = G.diagonal()
            if np.any(d != 0.0):
                diag_contrib.append((ell, d))
            L = sp.tril(G, k=-1).tocoo()
            for t, j, val in zip(L.row, L.col, L.data):
                self._fwd[t].append((j, val, K))
                self._bwd[j].append((t, val, K))

        cache: dict[tuple, CholeskyFactor] = {}
        self._factors: list[CholeskyFactor] = []
        for j in range(ny):
            sig = tuple(
                (ell, float(d[j])) for ell, d in diag_contrib if d[j] != 0.0
            )
            factor = cache.get(sig)
            if factor is None:
                D_jj = sp.csr_matrix((nx, nx))
                for ell, coef in sig:
                    D_jj = D_jj + coef * pairs[ell][1]
                try:
                    factor = CholeskyFactor(D_jj)
                except NotPositiveDefiniteError as exc:
                    raise NotPositiveDefiniteError(
                        f"diagonal block {j} of the SBGS splitting is not SPD"
                    ) from exc
                cache[sig] = factor
            self._factors.append(factor)
        self.distinct_factor_count = len(cache)

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        RHS = as_blocks(v, self.nx, self.ny)
        W = np.empty((self.nx, self.ny))
        for t in range(self.ny):
            rhs = RHS[:, t]
            nb = self._fwd[t]
            if nb:
                rhs = rhs.copy()
                for j, val, K in nb:
                    rhs -= val * (K @ W[:, j])
            W[:, t] = self._factors[t].solve(rhs)

        Z = np.empty_like(W)
        for t in range(self.ny - 1, -1, -1):
            nb = self._bwd[t]
            if not nb:
                Z[:, t] = W[:, t]
                continue
            acc = np.zeros(self.nx)
            for j, val, K in nb:
                acc += val * (K @ Z[:, j])
            Z[:, t] = W[:, t] - self._factors[t].solve(acc)
        return from_blocks(Z)


class SbgsLognormalPreconditioner(PairBlockSbgs):
    """SBGS splitting of a magnitude-ordered lognormal truncation.

    The zero multi-index term must lead the truncation so that the mean
    stiffness anchors every diagonal block (the condition under which the
    splitting is provably SPD).  The truncation index r counts expansion
    terms including any whose parametric factor vanishes identically.
    """

    def __init__(self, terms, ny: int, nx: int):
        terms = list(terms)
        if not terms:
            raise ValueError("truncation needs at least one term")
        if any(a != 0 for a in terms[0].alpha):
            raise ValueError("the zero multi-index term must lead the truncation")
        pairs = [(t.G, t.K) for t in terms if t.G is not None]
        super().__init__(pairs, ny, nx)
        self.r = len(terms) - 1


def build_sbgs_lognormal(terms, ny: int, nx: int) -> SbgsLognormalPreconditioner:
    """terms: magnitude-ordered term objects (alpha, G, K) for ell = 0..r."""
    return SbgsLognormalPreconditioner(terms, ny, nx)
