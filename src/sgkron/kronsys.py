"""Kronecker-sum operators and full system construction.

The Galerkin matrix of both test problems is a sum of Kronecker products
A = sum_i G_i (x) K_i with small sparse parametric factors G and FE
stiffness factors K.  The operator is kept matrix-free and never forms
the ny*nx matrix.  A matvec costs, per term, one sparse K-product and
one sparse G-product over the blocks G_i couples (its non-empty rows
and columns; an identity G_i adds the K-product directly).  The lognormal
operator holds its quadrature-point factorization instead
(:class:`QuadratureFactorization`), A = sum_q E_q (T_q T_q^T) (x) k_q, and
its matvec reads no G_alpha and no K_alpha: the gradient map to the Gauss
points, M mode sweeps of T_q^T, the scaling by E_q, M sweeps of T_q and
the transposed map.  ``terms`` stays the exact per-term sequence either
way: the affine operator stores it (:class:`PairList`), the lognormal one
builds each pair on first read (:class:`HermiteTerms`).  Dense
materialization exists only as a small-scale test and spectral-study
oracle behind a size guard.

Truncation map: the run path asks the operator, never ``terms`` (whole,
for the dense oracles), for P_r's pairs ``op.leading(r)``, their parity
classes and kron's G.  P_r is the expansion-order prefix: affine I (x) K_0
and G_m (x) K_m, m <= min(r, M); lognormal the first r + 1 terms by
magnitude, the only lognormal pairs a run builds.  The classes and G read
the G entries (term, row, column, value) by chunks of whole rows, and G
kron's weights, which both term families give without building a pair.

Block layout, the one every operator and preconditioner uses: vectors are
v = [v_1; ...; v_ny] with block j holding the nx spatial coefficients of
parametric basis function j, so block j = row j of ``v.reshape(ny, nx)``
(a free view; results go back with ``.ravel()``).  Parametric factors act
on its rows; spatial operators act on its transpose, whose columns are
the blocks.  ny and nx are the orders of the lead pair's G and K.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from . import fem2d, gram, multiindex
from .fem2d import UniformMesh

DENSE_GUARD = 2000  # largest dimension of a dense matrix or eigensolve
# About what one chunk of HermiteTerms' streamed reads (kron's weights, the G entries) holds.
_STREAM_BYTES = 1 << 22


@dataclass(frozen=True, eq=False)
class QuadratureFactorization:
    """A = sum_q E_q (T_q T_q^T) (x) k_q over the quadrature points x_q.

    k_q = g_q g_q^T summed over both directions, g_q the rows of
    ``fem2d.gradient_map`` at x_q, and T_q = prod_m T(b_m(x_q)) on I_k^M,
    T(t)[n, j] = sqrt(C(n, j)) t^(n-j) / sqrt((n-j)!).  This is the sum of
    G_alpha (x) K_alpha over alpha in I_2k^M, exactly: with h_n the
    orthonormal Hermite polynomials, sum_a <h_a h_b h_c> t^a / sqrt(a!) =
    E[h_b(y + t) h_c(y + t)] and h_n(y + t) = sum_j T(t)[n, j] h_j(y), so
    sum_alpha a_alpha(x_q) G_alpha = E_q T_q T_q^T, while K_alpha = sum_q
    a_alpha(x_q) k_q.  T is lower triangular, so I_k^M restricts it
    exactly.  T(t) = D^(1/2) P(t) D^(-1/2) with D = diag(n!) and
    P(t)[n, j] = t^(n-j) / (n-j)!, so a shift by s in mode m weighs every
    row by t^s / s!.
    """

    corners: np.ndarray  # fem2d.gradient_map
    table: np.ndarray
    E: np.ndarray  # E_q = exp(b_0 + 1/2 sum_{m<=N} b_m^2)
    weights: np.ndarray  # [m, s - 1] = t^s / s! at t = b_m(x_q), m <= M, s <= k
    offsets: np.ndarray  # rows offsets[d]:offsets[d + 1] have degree d
    shifts: tuple  # per mode m: (d, s, rows of alpha + s e_m, |alpha| = d), by d, then s
    factorial: np.ndarray  # alpha! per row: D


class PairList(tuple):
    """Stored (G_i, K_i) pairs, and the two reads of all of them that the
    operator makes: the entries of the G_i and kron's weights."""

    @property
    def ny(self) -> int:
        return self[0][0].shape[0]

    @property
    def nx(self) -> int:
        return self[0][1].shape[0]

    def triple_chunks(self) -> tuple:
        """``triples`` as one chunk."""
        return (self.triples,)

    @functools.cached_property
    def triples(self) -> tuple[np.ndarray, ...]:
        """The stored entries (term, row, column, value) of every G_i, by term."""
        Gs = [sp.csr_matrix(G) for G, _ in self]
        term = np.repeat(np.arange(len(Gs)), [G.nnz for G in Gs])
        rows = np.concatenate([np.repeat(np.arange(G.shape[0]), np.diff(G.indptr)) for G in Gs])
        cols = np.concatenate([G.indices for G in Gs])
        return term, rows, cols, np.concatenate([G.data for G in Gs])

    def kron_weights(self) -> np.ndarray:
        """<K_i, K_0> / <K_0, K_0>, the Frobenius inner products of the K_i."""
        K0 = self[0][1]
        K0_scaled = K0 * _unit_scale(abs(K0).max())
        denom = K0.multiply(K0_scaled).sum()
        return np.array([K_i.multiply(K0_scaled).sum() / denom for _, K_i in self])


class HermiteTerms(Sequence):
    """The lognormal pairs (G_alpha, K_alpha), alpha in expansion order,
    each built on first access by ``gram_general`` and
    ``assemble_from_quad_values`` and then kept: ``leading(r)`` builds the
    first r + 1, and a read of the whole sequence (the dense oracles)
    builds the rest.  The G_alpha entries (``gram.hermite_triples``, by rows)
    and kron's weights (the K_alpha values, by terms) build no pair and
    stream in chunks of about ``_STREAM_BYTES``."""

    def __init__(self, mesh: UniformMesh, S, alphas, E: np.ndarray, B: np.ndarray):
        self.mesh, self.S, self.alphas = mesh, S, alphas
        # E(x) and the powers b_m^a, m <= M and a <= 2k, at the quadrature points
        self._E, self._powers = E, np.array([[b**a for a in range(2 * S.k + 1)] for b in B[: S.M]])
        self.ny, self.nx = len(S), mesh.n_interior
        self._pairs: list = []
        # A chunk of kron's weights peaks at ~4.5 times its quadrature values.
        self._step = max(1, _STREAM_BYTES // (4 * E.nbytes))

    def __len__(self) -> int:
        return len(self.alphas)

    def __getitem__(self, key):
        span = range(len(self))[key]  # IndexError past the end, as a tuple's
        if isinstance(key, slice):
            self._build(max(span, default=-1) + 1)
            return tuple(self._pairs[key])
        self._build(span + 1)
        return self._pairs[span]

    def __iter__(self):
        return iter(self[:])

    def _quad_chunks(self, lo: int, hi: int):
        """(first term, alphas, a_alpha at the quadrature points) of terms
        lo..hi - 1, chunk by chunk."""
        for start in range(lo, hi, self._step):
            alphas = self.alphas[start : min(start + self._step, hi)]
            yield start, alphas, _expansion_quad_values(alphas, self._E, self._powers)

    def _build(self, n: int) -> None:
        for _, alphas, quad in self._quad_chunks(len(self._pairs), n):
            Ks = fem2d.assemble_from_quad_values(self.mesh, quad)
            self._pairs.extend((gram.gram_general(a, self.S), K) for a, K in zip(alphas, Ks))

    def triple_chunks(self):
        """The entries (term, row, column, value) of every G_alpha, a chunk of
        whole rows at a time, each by term."""
        alphas = np.array(self.alphas)  # converted once, not once a chunk
        for rows in gram.hermite_row_chunks(self.S, _STREAM_BYTES):
            yield gram.hermite_triples(alphas, self.S, rows)

    def kron_weights(self) -> np.ndarray:
        """<K_alpha, K_0> / <K_0, K_0>, the bits of PairList's sparse inner
        products: term 0 is K_0, and K_alpha.multiply(K_0) drops its zero
        products, whose count moves the pairwise split of the sum."""
        num = np.empty(len(self))
        for start, _, quad in self._quad_chunks(0, len(self)):
            values = fem2d.stiffness_values(self.mesh, quad)
            if not start:
                K0_scaled = values[0] * _unit_scale(np.abs(values[0]).max())
            for i, products in enumerate(values * K0_scaled, start):
                num[i] = np.sum(products[products != 0.0])
        return num / num[0]


def _unit_scale(peak: float) -> float:
    """The power of two that takes ``peak`` (max |K_0|) into [1/2, 1).  The
    second factor of each of kron's inner products is K_0 so scaled: the
    weights are the same bits, and stay finite where <K_0, K_0> itself
    overflows."""
    return np.ldexp(1.0, -np.frexp(peak)[1])


@dataclass(frozen=True)
class KroneckerSumOperator:
    # A PairList (a sequence of pairs is taken as one), or the HermiteTerms
    # that builds its pairs on demand.
    terms: Sequence
    # The matrix's own factorization, which the matvec applies in place of
    # the term loop; only the lognormal builder sets it.
    factorization: QuadratureFactorization | None = field(default=None, repr=False, compare=False)
    ny: int = field(init=False)
    nx: int = field(init=False)
    # Term loop: (rows, cols, G[rows][:, cols], K) per term, rows and cols
    # the non-empty rows and columns of G, or slice(None) where G has full
    # support (a view, so that term copies nothing).  G is None for an
    # identity G, whose term adds the K-product directly.
    _loop: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.terms, HermiteTerms):
            object.__setattr__(self, "terms", PairList(self.terms))
        if not len(self.terms):
            raise ValueError("operator needs at least one term")
        object.__setattr__(self, "ny", self.terms.ny)
        object.__setattr__(self, "nx", self.terms.nx)
        loop = []
        if self.factorization is None:
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

    def leading(self, r: int) -> tuple:
        """The pairs of P_r, the first r + 1 terms (all of them past the end
        of the expansion)."""
        if r < 0:
            raise ValueError("truncation index r must be >= 0")
        return self.terms[: r + 1]

    def parity_classes(self, r: int) -> np.ndarray | None:
        """:func:`_colouring` of P_r: the colouring it keeps, the tail flips."""
        return _colouring(self.terms.triple_chunks(), self.ny, r)

    def kron_factor(self) -> sp.csr_matrix:
        """kron's G = sum_i [tr(K_i^T K_0)/tr(K_0^T K_0)] G_i, minimizing the
        Frobenius distance of G (x) K_0 to the operator, the weighted G_i added
        entry by entry in term order, as a sparse product sums them, a chunk
        of rows at a time; the lead must be I (x) K_0."""
        n, weights, lead, keys, sums = self.ny, self.terms.kron_weights(), [], [], []
        for term, rows, cols, vals in self.terms.triple_chunks():
            lead.append((rows[term == 0], cols[term == 0], vals[term == 0]))
            key, at = np.unique(rows * n + cols, return_inverse=True)
            keys.append(key)
            sums.append(np.zeros(len(key)))
            np.add.at(sums[-1], at, vals * weights[term])  # in term order
        rows, cols, vals = map(np.concatenate, zip(*lead))
        if not _is_identity(sp.csr_matrix((vals, (rows, cols)), shape=(n, n))):
            raise ValueError("leading term must have an identity parametric factor")
        G = sp.csr_matrix((np.concatenate(sums), np.divmod(np.concatenate(keys), n)), shape=(n, n))
        G.eliminate_zeros()
        return G

    def matvec(self, v: np.ndarray) -> np.ndarray:
        f = self.factorization
        if f is None:
            Vt = v.reshape(self.ny, self.nx).T  # block j = column j
            out = np.zeros((self.ny, self.nx))
            for rows, cols, G, K in self._loop:
                if G is None:
                    out += (K @ Vt).T
                else:
                    out[rows] += G @ (K @ Vt[:, cols]).T
            return out.ravel()
        # D^(1/2) G^T [E_q P_q D^(-1) P_q^T] G D^(1/2) V, one row of U per
        # multi-index and one column per direction and point.  The mode sweeps
        # work in place: P^T sets a row of degree d from rows of higher degree
        # (d runs up), and P adds it into them (d runs down).
        ny, nx, off = self.ny, self.nx, f.offsets
        root = np.sqrt(f.factorial)[:, None]
        padded = np.zeros((ny, nx + 1))  # column nx reads as zero
        padded[:, :nx] = v.reshape(ny, nx) * root
        forward = np.ascontiguousarray(f.table.transpose(0, 2, 1))  # BLAS takes it whole
        U = np.matmul(np.take(padded, f.corners, axis=1)[:, None], forward).reshape(ny, 2, -1)
        for weights, groups in zip(f.weights, f.shifts):
            for d, s, src in groups:
                shifted = U[src]
                shifted *= weights[s - 1]
                U[off[d] : off[d + 1]] += shifted
        U *= f.E
        U /= f.factorial[:, None, None]
        for weights, groups in zip(f.weights, f.shifts):
            for d, s, src in reversed(groups):
                U[src] += U[off[d] : off[d + 1]] * weights[s - 1]
        Z = np.matmul(U.reshape(ny, 2, -1, 9), f.table).sum(axis=1)  # (ny, elements, 4)
        out = np.zeros((ny, nx + 1))
        for a in range(4):  # a node is corner a of one element; column nx is dropped
            out[:, f.corners[:, a]] += Z[:, :, a]
        return (out[:, :nx] * root).ravel()


def _is_identity(G) -> bool:
    G = sp.csr_matrix(G)
    n = G.shape[0]
    return (G.nnz == n and np.array_equal(G.indptr, np.arange(n + 1))
            and np.array_equal(G.indices, np.arange(n)) and np.all(G.data == 1.0))


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


def _colouring(chunks, n: int, r: int) -> np.ndarray | None:
    """One bool per block (of n, rows of the G), False at the lowest block
    of each group the entries join, that the terms <= r of the entries
    (term, row, column, value) of the G keep and every other flips; None
    without a tail coupling or such colouring.  ``chunks`` of the entries
    are read once, up to the first that rules the colouring out.

    The double cover (block j as nodes j and j + n; a lead entry joins j to
    l and j + n to l + n, a tail entry j to l + n and j + n to l) colours
    the blocks while no j meets j + n, as a tail entry inside a lead
    component (a Hermite G_alpha's diagonal) does.  Its components only
    merge, so each chunk joins its entries to one tree per component so
    far.  Affine r < M: the parity of alpha_{r+1} + ... + alpha_M.
    """
    nodes = np.arange(2 * n)
    root, label, tail = nodes, nodes, False
    for term, rows, cols, _ in chunks:
        shift = np.where(term <= r, 0, n)
        tail = tail or bool(shift.any())
        src, dst = np.r_[root, rows, rows + n], np.r_[nodes, cols + shift, cols + n - shift]
        graph = sp.csr_matrix((np.ones(len(src)), (src, dst)), shape=(2 * n, 2 * n))
        _, label = connected_components(graph, directed=False)
        if np.any(label[:n] == label[n:]):
            return None
        root = np.unique(label, return_index=True)[1][label]  # lowest node per component
    return label[:n] > label[n:] if tail else None


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

    op = KroneckerSumOperator(tuple(terms))

    f = np.zeros(op.dim)
    f[: mesh.n_interior] = fem2d.assemble_load(mesh)

    a0 = float(fields[0](0.0, 0.0))  # a_0 = 1 is constant
    norm_table = tuple(abs(float(a(0.0, 0.0))) for a in fields[1:])
    tau_table = tuple(t / a0 for t in itertools.accumulate(norm_table, initial=0.0))
    return op, f, AffineContext(norm_table, tau_table, a0, a0)


# ---------------------------------------------------------------------------
# lognormal system


def _expansion_quad_values(alphas, E, powers) -> np.ndarray:
    """a_alpha at the quadrature points, shape (len(alphas), n_elements, 9).

    E and powers[m, a] are E(x) and b_m^a at those points; each
    a_alpha is formed by the pointwise products of
    :func:`fem2d.lognormal_expansion_coeff`, slot by slot, batched over
    the alphas (a slot of degree 0 multiplies and divides by 1, exactly).
    """
    degrees = np.array(alphas, dtype=np.int64).reshape(len(alphas), -1)
    roots = np.array([math.sqrt(math.factorial(a)) for a in range(powers.shape[1])])
    vals = np.broadcast_to(E, (len(alphas),) + E.shape).copy()
    for m in range(degrees.shape[1]):
        vals *= powers[m, degrees[:, m]]
        vals /= roots[degrees[:, m], None, None]
    return vals


def build_lognormal_system(
    mesh: UniformMesh, M: int, k: int, N: int, sigma_tilde: float, alpha_bar: float
) -> tuple[KroneckerSumOperator, np.ndarray]:
    """Assemble the Hermite-Galerkin system of the lognormal problem.

    The coefficient is exp(b) with b = b_0 + sum_{m=1}^N b_m y_m, the b_m
    taken from the decaying cosine family.  The Galerkin matrix is the sum
    of G_alpha (x) K_alpha over alpha in I_{2k}^M: ``op.terms`` is every one
    of them, built as it is read (:class:`HermiteTerms`), and
    ``op.factorization`` their sum as the matvec applies it.  The build
    itself orders the expansion and forms no pair.  No G_alpha vanishes on
    I_k^M: split alpha = beta + gamma with beta,
    gamma in I_k^M (possible since |alpha| <= 2k); each Hermite triple
    <H_{alpha_m} H_{beta_m}, H_{gamma_m}> with alpha_m = beta_m + gamma_m
    is nonzero, so G_alpha[beta, gamma] != 0.
    """
    if M >= N:
        raise ValueError(f"lognormal truncation requires M < N, got M={M}, N={N}")

    S = multiindex.build_index_set(M, k)
    full = multiindex.build_index_set(M, 2 * k)
    b0 = fem2d.fourier_coefficient(0, sigma_tilde, alpha_bar)
    b_fields = [fem2d.fourier_coefficient(m, sigma_tilde, alpha_bar) for m in range(1, N + 1)]

    ordered = fem2d.order_by_magnitude(full, b_fields, b0)
    # The mean term leads even when a large amplitude lets another outweigh
    # it: P_0 = I (x) K_0, and the kron fit and the SBGS splitting need it.
    ordered.sort(key=lambda term: any(term[0]))  # stable

    xq1, xq2 = fem2d.quadrature_points(mesh)
    B = np.array([b(xq1, xq2) for b in b_fields])
    E = np.exp(b0(xq1, xq2) + 0.5 * sum(b * b for b in B))
    terms = HermiteTerms(mesh, S, [alpha for alpha, _ in ordered], E, B)
    offsets = np.searchsorted([sum(alpha) for alpha in S], np.arange(k + 2))
    shifts = tuple(
        tuple((d, s, np.array([S.position(a[:m] + (a[m] + s,) + a[m + 1 :])
                               for a in S.indices[offsets[d] : offsets[d + 1]]]))
              for d in range(k) for s in range(1, k - d + 1))
        for m in range(M)
    )
    factorial = np.array([float(math.prod(map(math.factorial, alpha))) for alpha in S])
    weights = np.cumprod(B[:M].reshape(M, 1, -1) / np.arange(1, k + 1)[:, None], axis=1)
    factorization = QuadratureFactorization(
        *fem2d.gradient_map(mesh), E.ravel(), weights, offsets, shifts, factorial
    )
    op = KroneckerSumOperator(terms, factorization)
    f = np.zeros(op.dim)
    f[: mesh.n_interior] = fem2d.assemble_load(mesh)
    return op, f
