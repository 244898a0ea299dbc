"""Kronecker-sum operators and full system construction.

The Galerkin matrix of both test problems is a sum of Kronecker products
A = sum_i G_i (x) K_i with small sparse parametric factors G and FE
stiffness factors K.  The operator is kept matrix-free and never forms
the ny*nx matrix.  A matvec costs, per term, one sparse K-product and
one sparse G-product over the blocks G_i couples (its non-empty rows
and columns; an identity G_i adds the K-product directly), unless the
G_i together couple every pair of blocks and the K_i share one symmetric
pattern whose values have numerical rank R below the term count T.  Then
the operator applies the recompressed sum sum_{s<=R} Ghat_s (x) Khat_s,
obtained from a thin SVD of the stacked K values.  The Khat_s are kept in
the ELL layout of their shared pattern (each row's w values, zero-padded),
so the Khat side is one batched GEMM, a small one per spatial row x over
the w rows of the block matrix that row x reads, and the Ghat side one
dense product over the dense ny x ny Ghat_s.  The lognormal G_alpha couple
every pair and have R << T.  The affine G_m couple only multi-indices one
degree apart (every pair only for ny <= 2), so the affine operator keeps
the per-term loop and takes no SVD, also where its values have R < T (mesh
levels 1-2, or a zero amplitude).  ``terms`` stays the exact per-term list
either way.  Dense materialization exists only as a small-scale test and
spectral-study oracle behind a size guard.

Truncation map: the run path asks the operator, never ``terms`` (kept for
the dense oracles), for P_r's pairs ``op.leading(r)``, their parity classes
and kron's G.  P_r is the expansion-order prefix: affine I (x) K_0 and
G_m (x) K_m, m <= min(r, M); lognormal the first r + 1 terms by magnitude.

Block layout, the one every operator and preconditioner uses: vectors are
v = [v_1; ...; v_ny] with block j holding the nx spatial coefficients of
parametric basis function j, so block j = row j of ``v.reshape(ny, nx)``
(a free view; results go back with ``.ravel()``).  Parametric factors act
on its rows; spatial operators act on its transpose, whose columns are
the blocks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from . import fem2d, gram, multiindex
from .fem2d import UniformMesh

DENSE_GUARD = 20000
# Singular values of the stacked K values below RANK_TOL * sigma_max are
# dropped from the recompressed operator.
RANK_TOL = 1e-14
# Bytes of W, the (nx, c, ny) Khat_s products of one chunk of c terms of
# the recompressed matvec.  The gathered neighbour rows it reads (nx * w * ny
# doubles, w the longest pattern row) are shared by all chunks, not chunked.
_CHUNK_BYTES = 1 << 21


@dataclass(frozen=True)
class KroneckerSumOperator:
    terms: tuple[tuple[sp.csr_matrix, sp.csr_matrix], ...]
    ny: int
    nx: int
    # (nbr, ((K_ell, hstack Ghat_s) per chunk of s)) from _recompress, or
    # None for the term loop.
    _chunks: tuple | None = field(init=False, repr=False, compare=False)
    # Term loop: (rows, cols, G[rows][:, cols], K) per term, rows and cols
    # the non-empty rows and columns of G, or slice(None) where G has full
    # support (a view, so that term copies nothing).  G is None for an
    # identity G, whose term adds the K-product directly.
    _loop: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        chunks = _recompress(self.terms, self.ny, self.nx)
        object.__setattr__(self, "_chunks", chunks)
        loop = []
        if chunks is None:
            for G, K in self.terms:
                G = sp.csr_matrix(G)
                rows = np.flatnonzero(np.diff(G.indptr))
                cols = np.unique(G.indices)
                if len(rows) == len(cols) == self.ny:
                    rows = cols = slice(None)
                loop.append((rows, cols, None if _is_identity(G) else G[rows][:, cols], K))
        object.__setattr__(self, "_loop", tuple(loop))

    @property
    def dim(self) -> int:
        return self.ny * self.nx

    @property
    def rank(self) -> int:
        """Number of Kronecker terms one matvec applies."""
        if self._chunks is None:
            return len(self.terms)
        return sum(K_ell.shape[1] for K_ell, _ in self._chunks[1])

    def leading(self, r: int) -> tuple:
        """The pairs of P_r, the first r + 1 terms (all of them past the end
        of the expansion)."""
        if r < 0:
            raise ValueError("truncation index r must be >= 0")
        return self.terms[: r + 1]

    def parity_classes(self, r: int) -> np.ndarray | None:
        """:func:`parity_classes` of P_r: the colouring it keeps, the tail flips."""
        return parity_classes(self.terms, self.ny, r)

    def kron_factor(self) -> sp.csr_matrix:
        """kron's G = sum_i [tr(K_i^T K_0)/tr(K_0^T K_0)] G_i, minimizing the
        Frobenius distance of G (x) K_0 to the operator, the weighted G_i added
        entry by entry in term order; the lead must be I (x) K_0."""
        if not self.terms or not _is_identity(self.terms[0][0]):
            raise ValueError("leading term must have an identity parametric factor")
        K0 = self.terms[0][1]
        # The second factor of each inner product is K_0 scaled by a power of
        # two to max entry in [1/2, 1): the weights are the same bits, and stay
        # finite where <K_0, K_0> itself overflows.
        K0_scaled = K0 * np.ldexp(1.0, -np.frexp(abs(K0).max())[1])
        denom = K0.multiply(K0_scaled).sum()
        w = np.array([K_i.multiply(K0_scaled).sum() / denom for _, K_i in self.terms])
        G = sp.hstack([G_i for G_i, _ in self.terms]) @ sp.kron(w[:, None], sp.identity(self.ny))
        return G.tocsr()

    def matvec(self, v: np.ndarray) -> np.ndarray:
        Vt = v.reshape(self.ny, self.nx).T  # block j = column j
        out = np.zeros((self.ny, self.nx))
        if self._chunks is None:
            for rows, cols, G, K in self._loop:
                if G is None:
                    out += (K @ Vt).T
                else:
                    out[rows] += G @ (K @ Vt[:, cols]).T
            return out.ravel()
        nbr, chunks = self._chunks
        padded = np.zeros((self.nx + 1, self.ny))  # row nx reads as zero
        padded[: self.nx] = Vt
        near = padded[nbr]  # (nx, w, ny): the rows of Vt each row x reads
        for K_ell, G_row in chunks:
            W = K_ell @ near  # (nx, c, ny): W[:, s] = Khat_s Vt
            out += G_row @ W.reshape(self.nx, -1).T
        return out.ravel()


def _is_identity(G) -> bool:
    G = sp.csr_matrix(G)
    n = G.shape[0]
    return (
        G.nnz == n
        and np.array_equal(G.indptr, np.arange(n + 1))
        and np.array_equal(G.indices, np.arange(n))
        and np.all(G.data == 1.0)
    )


def _recompress(terms, ny: int, nx: int) -> tuple | None:
    """Chunks of the recompressed sum, or None when it would not be shorter.

    Needs the G_i together to couple every pair of blocks, since each Ghat_s
    is a dense ny x ny matrix, and every K_i in canonical CSR form on one
    symmetric pattern with symmetric, finite values.  The thin SVD of the
    (T, nnz) value matrix, restricted to the upper triangle, gives
    K_i = sum_s U_is sigma_s Khat_s up to RANK_TOL, hence
    A = sum_s Ghat_s (x) Khat_s with Ghat_s = sum_i U_is sigma_s G_i.

    Returns (nbr, chunks).  nbr (nx x w, w the longest row) holds each row's
    column indices, padded with nx; each chunk of c terms is (K_ell, G_row),
    K_ell (nx x c x w) the Khat_s values in that layout, padded with 0, and
    G_row (ny x c ny) the Ghat_s side by side.
    """
    Ks = [K for _, K in terms]
    if len(Ks) < 2 or not all(sp.issparse(K) and K.format == "csr" for K in Ks):
        return None
    Gs = [sp.csr_matrix(G) for G, _ in terms]
    # Flat index j * ny + t of every stored G_i[j, t]; fewer than ny^2 of
    # them cannot cover the blocks, and then no ny^2 count is allocated.
    flat = np.concatenate([np.repeat(np.arange(ny) * ny, np.diff(G.indptr)) + G.indices for G in Gs])
    if len(flat) < ny * ny or not np.bincount(flat, minlength=ny * ny).all():
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
    row = np.repeat(np.arange(nx), np.diff(K0.indptr))  # of each stored entry
    upper = K0.indices >= row
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
    G_stack = sp.csr_matrix(  # row i holds G_i flattened
        (np.concatenate([G.data for G in Gs]), flat, np.cumsum([0] + [G.nnz for G in Gs])),
        shape=(len(Gs), ny * ny),
    )
    G_hat = np.asarray(G_stack.T @ (U[:, :R] * sigma[:R])).T.reshape(R, ny, ny)

    # ELL layout of the pattern: entry e in slot e - indptr[row[e]] of its row.
    slot = np.arange(nnz) - K0.indptr[row]
    nbr = np.full((nx, slot.max() + 1), nx)
    nbr[row, slot] = K0.indices
    chunk = max(1, _CHUNK_BYTES // (8 * nx * ny))
    chunks = []
    for a in range(0, R, chunk):
        b = min(a + chunk, R)
        K_ell = np.zeros((nx, b - a, nbr.shape[1]))
        K_ell[row, :, slot] = K_hat[a:b].T
        G_row = np.ascontiguousarray(G_hat[a:b].transpose(1, 0, 2).reshape(ny, (b - a) * ny))
        chunks.append((K_ell, G_row))
    return nbr, tuple(chunks)


def assemble_dense(terms) -> np.ndarray:
    """Explicit sum of the Kronecker products of a term list; guarded
    against memory blowup."""
    n = terms[0][0].shape[0] * terms[0][1].shape[0]
    if n > DENSE_GUARD:
        raise ValueError(f"dense assembly refused for dimension {n} > {DENSE_GUARD}")
    return assemble_sparse(terms).toarray()


def assemble_sparse(terms) -> sp.csc_matrix:
    """Explicit sparse sum of the Kronecker products of a term list
    (direct-factorization support)."""
    n = terms[0][0].shape[0] * terms[0][1].shape[0]
    A = sp.csc_matrix((n, n))
    for G, K in terms:
        A = A + sp.kron(G, K, format="csc")
    A.sort_indices()
    return A


def parity_classes(terms, ny: int, r: int) -> np.ndarray | None:
    """One bool per block (of ny), False at block 0, that the first r + 1 of
    ``terms`` keep and every other flips; None without a tail coupling or such colouring.

    Blocks the leading patterns connect share a colour, and each tail entry
    must join two components of unlike colour: a 2-colouring of the
    components, read off the bipartite double cover (component c as nodes c
    and c + n).  The tail is read term by term and the first entry inside
    one component ends the search, as a Hermite G_alpha with a diagonal
    does.  Affine r < M: the parity of alpha_{r+1} + ... + alpha_M.
    """
    def entries(G):  # (rows, columns) of the stored entries
        G = sp.csr_matrix(G)
        return np.repeat(np.arange(ny), np.diff(G.indptr)), G.indices

    def graph(rows, cols, n):
        return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))

    rows, cols = (np.concatenate(e) for e in zip(*(entries(G) for G, _ in terms[: r + 1])))
    n, comp = connected_components(graph(rows, cols, ny), directed=False)
    ends = []
    for G, _ in terms[r + 1 :]:
        a, b = (comp[e] for e in entries(G))
        if np.any(a == b):
            return None
        ends.append((a, b))
    if not sum(len(a) for a, _ in ends):
        return None
    a, b = (np.concatenate(e) for e in zip(*ends))
    _, label = connected_components(graph(np.r_[a, a + n], np.r_[b + n, b], 2 * n), directed=False)
    if np.any(label[:n] == label[n:]):
        return None
    colour = (label[:n] > label[n:])[comp]
    return colour ^ colour[0]


# ---------------------------------------------------------------------------
# affine-parametric system


@dataclass(frozen=True)
class AffineContext:
    """The constants of the affine bounds, as ``spectral`` reads them: field
    values at the corner (0, 0), where every mode and every prefix sum of
    |a_m| attains its sup-norm, so they equal the sampled ones bit for bit."""

    norm_table: tuple[float, ...]  # ||a_m||_inf for m = 1..M
    tau_table: tuple[float, ...]  # tau_0 .. tau_M
    a0_min: float
    a0_max: float

    @property
    def tau(self) -> float:
        """tau of the assembled (M-term) coefficient."""
        return self.tau_table[-1]

    def sum_norms(self, r: int) -> float:
        return float(sum(self.norm_table[:r]))


def build_affine_system(
    mesh: UniformMesh, M: int, k: int, sigma_tilde: float, alpha_bar: float
) -> tuple[KroneckerSumOperator, np.ndarray, AffineContext]:
    """Assemble A = G_0 (x) K_0 + sum_{m<=M} G_m (x) K_m and the load vector.

    The right-hand side is nonzero only in the block of the zero
    multi-index (mean block), where it equals the FE load vector.
    """
    S = multiindex.build_index_set(M, k)
    fields = [fem2d.fourier_coefficient(m, sigma_tilde, alpha_bar) for m in range(M + 1)]

    terms: list[tuple[sp.csr_matrix, sp.csr_matrix]] = []
    terms.append((gram.gram_identity(len(S)), fem2d.assemble_stiffness(mesh, fields[0])))
    for m in range(1, M + 1):
        G_m = gram.gram_linear(m, S)
        K_m = fem2d.assemble_stiffness(mesh, fields[m])
        terms.append((G_m, K_m))

    op = KroneckerSumOperator(terms=tuple(terms), ny=len(S), nx=mesh.n_interior)

    f = np.zeros(op.dim)
    f[: mesh.n_interior] = fem2d.assemble_load(mesh)

    a0 = float(fields[0](0.0, 0.0))  # a_0 = 1 is constant
    norm_table = tuple(abs(float(a(0.0, 0.0))) for a in fields[1:])
    tau_table = tuple(t / a0 for t in itertools.accumulate(norm_table, initial=0.0))
    return op, f, AffineContext(norm_table, tau_table, a0, a0)


# ---------------------------------------------------------------------------
# lognormal system


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
) -> tuple[KroneckerSumOperator, np.ndarray]:
    """Assemble the Hermite-Galerkin system of the lognormal problem.

    The coefficient is exp(b) with b = b_0 + sum_{m=1}^N b_m y_m, the b_m
    taken from the decaying cosine family.  The Galerkin matrix is the sum
    of G_alpha (x) K_alpha over alpha in I_{2k}^M, and ``op.terms`` holds
    every one of them.  No G_alpha vanishes on I_k^M: split alpha = beta +
    gamma with beta, gamma in I_k^M (possible since |alpha| <= 2k); each
    Hermite triple <H_{alpha_m} H_{beta_m}, H_{gamma_m}> with alpha_m =
    beta_m + gamma_m is nonzero, so G_alpha[beta, gamma] != 0.
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
    # The mean term leads even when a large amplitude lets another outweigh
    # it: P_0 = I (x) K_0, and the kron fit and the SBGS splitting need it.
    ordered.sort(key=lambda term: any(term[0]))  # stable

    grams = [gram.gram_general(alpha, S) for alpha, _ in ordered]
    quad_values = _expansion_quad_values(mesh, [alpha for alpha, _ in ordered], b_fields, b0)
    Ks = fem2d.assemble_from_quad_values(mesh, quad_values)
    del quad_values  # released before the operator takes its SVD

    op = KroneckerSumOperator(terms=tuple(zip(grams, Ks)), ny=len(S), nx=mesh.n_interior)
    f = np.zeros(op.dim)
    f[: mesh.n_interior] = fem2d.assemble_load(mesh)
    return op, f
