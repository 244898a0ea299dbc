"""Kronecker-sum operators and full system construction.

The Galerkin matrix of both test problems is a sum of Kronecker products
A = sum_i G_i (x) K_i with small sparse parametric factors G and FE
stiffness factors K.  The operator is kept matrix-free and never forms
the ny*nx matrix.  A matvec costs one sparse K-product and one sparse
G-product per term, unless the K_i share one symmetric pattern and
their values have numerical rank R below the term count T.  Then the
operator applies the recompressed sum sum_{s<=R} Ghat_s (x) Khat_s,
obtained from a thin SVD of the stacked K values: one stacked sparse
product over the Khat_s and one dense product over the Ghat_s.  The
lognormal expansion has R << T; the affine one has R = T and keeps the
per-term loop.  ``terms`` stays the exact per-term list either way.
Dense materialization exists only as a small-scale test and
spectral-study oracle behind a size guard.

Vectors use the block layout v = [v_1; ...; v_ny] with block j holding
the nx spatial coefficients of parametric basis function j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import fem2d, gram, multiindex
from .fem2d import CoefficientField, UniformMesh
from .multiindex import MultiIndexSet
from .orthopoly import LEGENDRE

DENSE_GUARD = 20000
# Singular values of the stacked K values below RANK_TOL * sigma_max are
# dropped from the recompressed operator.
RANK_TOL = 1e-14
# Scratch bytes of one chunk of the recompressed matvec.
_CHUNK_BYTES = 1 << 21


def as_blocks(v: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """View the flat block vector as an (nx, ny) matrix, block j = column j."""
    if v.shape != (nx * ny,):
        raise ValueError(f"expected flat vector of length {nx * ny}, got {v.shape}")
    return v.reshape(ny, nx).T


def from_blocks(V: np.ndarray) -> np.ndarray:
    """Inverse of :func:`as_blocks`."""
    return V.T.ravel()


@dataclass(frozen=True)
class KroneckerSumOperator:
    terms: tuple[tuple[sp.csr_matrix, sp.csr_matrix], ...]
    ny: int
    nx: int
    # (vstack Khat_s, hstack Ghat_s) per chunk of s, or None for the term loop.
    _chunks: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_chunks", _recompress(self.terms, self.ny, self.nx))

    @property
    def dim(self) -> int:
        return self.ny * self.nx

    @property
    def rank(self) -> int:
        """Number of Kronecker terms one matvec applies."""
        if self._chunks is None:
            return len(self.terms)
        return sum(K_stack.shape[0] for K_stack, _ in self._chunks) // self.nx

    def matvec(self, v: np.ndarray) -> np.ndarray:
        V = as_blocks(v, self.nx, self.ny)
        out = np.zeros((self.ny, self.nx))
        if self._chunks is None:
            for G, K in self.terms:
                W = K @ V  # (nx, ny)
                out += G @ W.T  # G symmetric
            return out.ravel()
        V = np.ascontiguousarray(V)
        for K_stack, G_row in self._chunks:
            c = K_stack.shape[0] // self.nx
            W = (K_stack @ V).reshape(c, self.nx, self.ny)  # W_s = Khat_s V
            out += G_row @ W.transpose(0, 2, 1).reshape(c * self.ny, self.nx)
        return out.ravel()


def _recompress(terms, ny: int, nx: int) -> tuple | None:
    """Chunks of the recompressed sum, or None when it would not be shorter.

    Needs every K_i in canonical CSR form on one symmetric pattern with
    symmetric, finite values.  The thin SVD of the (T, nnz) value matrix,
    restricted to the upper triangle, gives K_i = sum_s U_is sigma_s Khat_s
    up to RANK_TOL, hence A = sum_s Ghat_s (x) Khat_s with
    Ghat_s = sum_i U_is sigma_s G_i.
    """
    Ks = [K for _, K in terms]
    if len(Ks) < 2 or not all(sp.issparse(K) and K.format == "csr" for K in Ks):
        return None
    K0 = Ks[0]
    if K0.shape != (nx, nx) or not K0.has_canonical_format:
        return None
    for K in Ks[1:]:
        if not (np.array_equal(K.indptr, K0.indptr) and np.array_equal(K.indices, K0.indices)):
            return None
    nnz = K0.nnz
    mirror = sp.csr_matrix((np.arange(nnz), K0.indices, K0.indptr), shape=(nx, nx)).T.tocsr()
    if not (np.array_equal(mirror.indptr, K0.indptr) and np.array_equal(mirror.indices, K0.indices)):
        return None
    upper = K0.indices >= np.repeat(np.arange(nx), np.diff(K0.indptr))
    lower = ~upper
    twin_of_lower = mirror.data[lower]
    if not all(np.array_equal(K.data[lower], K.data[twin_of_lower]) for K in Ks):
        return None
    # Column-major (T, nnz_upper) so that LAPACK works in place.
    values = np.stack([K.data[upper] for K in Ks], axis=1).T
    if values.size == 0 or not np.all(np.isfinite(values)):
        return None
    U, sigma, Vt = scipy.linalg.svd(
        values, full_matrices=False, overwrite_a=True, check_finite=False
    )
    del values  # overwritten by the SVD
    R = int(np.count_nonzero(sigma > RANK_TOL * sigma[0]))
    if R >= len(Ks):
        return None

    # Khat_s on the full pattern: each entry takes its upper-triangle twin.
    twin = np.where(upper, np.arange(nnz), mirror.data)
    K_hat = Vt[:R, (np.cumsum(upper) - 1)[twin]]
    Gs = [sp.csr_matrix(G) for G, _ in terms]
    G_stack = sp.csr_matrix(  # row i holds G_i flattened
        (
            np.concatenate([G.data for G in Gs]),
            np.concatenate([np.repeat(np.arange(ny) * ny, np.diff(G.indptr)) + G.indices for G in Gs]),
            np.cumsum([0] + [G.nnz for G in Gs]),
        ),
        shape=(len(Gs), ny * ny),
    )
    G_hat = np.asarray(G_stack.T @ (U[:, :R] * sigma[:R])).T.reshape(R, ny, ny)

    chunk = max(1, _CHUNK_BYTES // (8 * nx * ny))
    chunks = []
    for a in range(0, R, chunk):
        b = min(a + chunk, R)
        K_stack = sp.vstack(
            [sp.csr_matrix((K_hat[s], K0.indices, K0.indptr), shape=(nx, nx)) for s in range(a, b)],
            format="csr",
        )
        G_row = np.ascontiguousarray(G_hat[a:b].transpose(1, 0, 2).reshape(ny, (b - a) * ny))
        chunks.append((K_stack, G_row))
    return tuple(chunks)


def matvec(op: KroneckerSumOperator, v: np.ndarray) -> np.ndarray:
    return op.matvec(v)


def assemble_dense(op: KroneckerSumOperator) -> np.ndarray:
    """Explicit sum of Kronecker products; guarded against memory blowup."""
    if op.dim > DENSE_GUARD:
        raise ValueError(f"dense assembly refused for dimension {op.dim} > {DENSE_GUARD}")
    A = np.zeros((op.dim, op.dim))
    for G, K in op.terms:
        A += np.kron(G.toarray(), K.toarray())
    return A


def assemble_sparse(op: KroneckerSumOperator) -> sp.csc_matrix:
    """Explicit sparse sum of Kronecker products (direct-factorization support)."""
    A = sp.csc_matrix((op.dim, op.dim))
    for G, K in op.terms:
        A = A + sp.kron(G, K, format="csc")
    A.sort_indices()
    return A


# ---------------------------------------------------------------------------
# affine-parametric system


@dataclass(frozen=True)
class AffineContext:
    index_set: MultiIndexSet
    mesh: UniformMesh
    fields: tuple[CoefficientField, ...]  # a_0 .. a_M
    norm_table: tuple[float, ...]  # ||a_m||_inf for m = 1..M
    tau_table: tuple[float, ...]  # tau_0 .. tau_M
    a0_min: float
    a0_max: float
    sigma_tilde: float
    alpha_bar: float

    @property
    def tau(self) -> float:
        """tau of the assembled (M-term) coefficient."""
        return self.tau_table[-1]

    def sum_norms(self, r: int) -> float:
        return float(sum(self.norm_table[:r]))


def build_affine_system(
    mesh: UniformMesh,
    M: int,
    k: int,
    sigma_tilde: float,
    alpha_bar_mode: float | str = "auto",
) -> tuple[KroneckerSumOperator, np.ndarray, AffineContext]:
    """Assemble A = G_0 (x) K_0 + sum_{m<=M} G_m (x) K_m and the load vector.

    The right-hand side is nonzero only in the block of the zero
    multi-index (mean block), where it equals the FE load vector.
    """
    if alpha_bar_mode == "auto":
        alpha_bar = fem2d.auto_alpha_bar(sigma_tilde)
    else:
        alpha_bar = float(alpha_bar_mode)

    S = multiindex.build_index_set(M, k)
    fields = [fem2d.fourier_coefficient(m, sigma_tilde, alpha_bar) for m in range(M + 1)]

    terms: list[tuple[sp.csr_matrix, sp.csr_matrix]] = []
    terms.append((gram.gram_identity(len(S)), fem2d.assemble_stiffness(mesh, fields[0])))
    for m in range(1, M + 1):
        G_m = gram.gram_linear(m, S, LEGENDRE)
        K_m = fem2d.assemble_stiffness(mesh, fields[m])
        terms.append((G_m, K_m))

    op = KroneckerSumOperator(terms=tuple(terms), ny=len(S), nx=mesh.n_interior)

    f = np.zeros(op.dim)
    f[: mesh.n_interior] = fem2d.assemble_load(mesh)

    a0_min, a0_max = fem2d.field_extrema(fields[0])
    norm_table = tuple(fem2d.sup_norm(fields[m]) for m in range(1, M + 1))
    tau_table = tuple(fem2d.tau_r(fields[1 : r + 1], a0_min) for r in range(M + 1))
    ctx = AffineContext(
        index_set=S,
        mesh=mesh,
        fields=tuple(fields),
        norm_table=norm_table,
        tau_table=tau_table,
        a0_min=a0_min,
        a0_max=a0_max,
        sigma_tilde=sigma_tilde,
        alpha_bar=alpha_bar,
    )
    return op, f, ctx


# ---------------------------------------------------------------------------
# lognormal system


@dataclass(frozen=True)
class LognormalTerm:
    alpha: tuple[int, ...]
    magnitude: float  # ||a_alpha||_inf
    G: sp.csr_matrix | None  # None when G_alpha is identically zero
    K: sp.csr_matrix | None
    even: bool


@dataclass(frozen=True)
class LognormalContext:
    index_set: MultiIndexSet  # parametric basis I_k^M
    mesh: UniformMesh
    ordered_terms: tuple[LognormalTerm, ...]  # descending magnitude over I_{2k}^M
    b_fields: tuple[CoefficientField, ...]
    b0: CoefficientField
    sigma_tilde: float
    alpha_bar: float
    N: int

    def leading_terms(self, r: int) -> list[LognormalTerm]:
        """The first r+1 expansion terms (truncation index counts all terms,
        including any whose Gram factor vanishes identically)."""
        if r < 0:
            raise ValueError("truncation index r must be >= 0")
        return [t for t in self.ordered_terms[: r + 1]]


def _expansion_quad_values(mesh, alphas, b_fields, b0) -> np.ndarray:
    """a_alpha at the quadrature points, shape (len(alphas), n_elements, 9).

    Every b_m is evaluated once; each a_alpha is then formed by the
    pointwise products of :func:`fem2d.lognormal_expansion_coeff`, slot by
    slot, batched over the alphas sharing a slot degree.
    """
    xq1, xq2 = fem2d.quadrature_points(mesh)
    Bq = [b(xq1, xq2) for b in b_fields]
    Eq = np.exp(b0(xq1, xq2) + 0.5 * sum(b * b for b in Bq))
    powers = np.array(alphas, dtype=np.int64).reshape(len(alphas), -1)
    vals = np.broadcast_to(Eq, (len(alphas),) + Eq.shape).copy()
    for m in range(powers.shape[1]):
        for a in map(int, np.unique(powers[:, m])):
            if a:
                rows = powers[:, m] == a
                sub = vals[rows]
                sub *= Bq[m] ** a
                sub /= math.sqrt(math.factorial(a))
                vals[rows] = sub
    return vals


def build_lognormal_system(
    mesh: UniformMesh,
    M: int,
    k: int,
    N: int,
    sigma_tilde: float,
    alpha_bar: float,
) -> tuple[KroneckerSumOperator, np.ndarray, LognormalContext]:
    """Assemble the Hermite-Galerkin system of the lognormal problem.

    The coefficient is exp(b) with b = b_0 + sum_{m=1}^N b_m y_m, the b_m
    taken from the decaying cosine family.  The Galerkin matrix is the sum
    of G_alpha (x) K_alpha over alpha in I_{2k}^M; identically zero Gram
    factors are dropped from the operator but kept in the ordered context
    so truncation indices count expansion terms.
    """
    if M >= N:
        raise ValueError(f"lognormal truncation requires M < N, got M={M}, N={N}")

    S = multiindex.build_index_set(M, k)
    full = multiindex.build_index_set(M, 2 * k)
    b0 = fem2d.fourier_coefficient(0, sigma_tilde, alpha_bar)
    b_fields = [
        fem2d.fourier_coefficient(m, sigma_tilde, alpha_bar) for m in range(1, N + 1)
    ]

    ordered = fem2d.order_by_magnitude(full, b_fields, b0)

    grams = [gram.gram_general(alpha, S) for alpha, _ in ordered]
    live = [i for i, G in enumerate(grams) if G.nnz]
    quad_values = _expansion_quad_values(mesh, [ordered[i][0] for i in live], b_fields, b0)
    K_of = dict(zip(live, fem2d.assemble_from_quad_values(mesh, quad_values)))
    del quad_values  # released before the operator takes its SVD

    terms: list[LognormalTerm] = []
    for i, (alpha, magnitude) in enumerate(ordered):
        K_a = K_of.get(i)
        G_a = None if K_a is None else grams[i]
        even = all(a % 2 == 0 for a in alpha)
        terms.append(LognormalTerm(alpha=alpha, magnitude=magnitude, G=G_a, K=K_a, even=even))
    op_terms = [(t.G, t.K) for t in terms if t.K is not None]

    op = KroneckerSumOperator(terms=tuple(op_terms), ny=len(S), nx=mesh.n_interior)
    f = np.zeros(op.dim)
    f[: mesh.n_interior] = fem2d.assemble_load(mesh)

    ctx = LognormalContext(
        index_set=S,
        mesh=mesh,
        ordered_terms=tuple(terms),
        b_fields=tuple(b_fields),
        b0=b0,
        sigma_tilde=sigma_tilde,
        alpha_bar=alpha_bar,
        N=N,
    )
    return op, f, ctx
