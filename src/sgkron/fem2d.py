"""Q1 finite elements on uniform square grids over the unit square.

Assembles stiffness matrices for scalar coefficient fields and the load
vector for a unit right-hand side, under homogeneous Dirichlet
conditions (interior nodes only, row-major numbering).  Also provides
the two coefficient expansions driving the experiments: planar Fourier
modes with algebraically decaying amplitudes, and the Hermite expansion
coefficients of a lognormal field.

Element integrals use a 3x3 tensor Gauss rule per square element; for a
bilinear basis on squares the map to the reference element makes the
mesh size cancel out of the stiffness integrand, so only coefficient
values at quadrature points enter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.special import zeta

# ---------------------------------------------------------------------------
# mesh


@dataclass(frozen=True)
class UniformMesh:
    level: int
    h: float
    n_side: int  # elements per side
    n_interior: int  # interior nodes, (n_side - 1)^2


def build_mesh(level: int) -> UniformMesh:
    if not 1 <= level <= 10:
        raise ValueError(f"mesh level must be in 1..10, got {level}")
    n = 2**level
    return UniformMesh(level=level, h=1.0 / n, n_side=n, n_interior=(n - 1) ** 2)


# ---------------------------------------------------------------------------
# coefficient fields


@dataclass(frozen=True)
class CoefficientField:
    """Scalar field on the closed unit square with a provenance descriptor.

    The evaluator must accept numpy arrays (broadcast over points).
    """

    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    descriptor: str

    def __call__(self, x1, x2):
        return self.evaluator(np.asarray(x1, float), np.asarray(x2, float))


def constant_field(value: float) -> CoefficientField:
    def ev(x1, x2):
        return np.full(np.broadcast(x1, x2).shape, float(value))

    return CoefficientField(ev, f"constant({value})")


def frequency_pair(m: int) -> tuple[int, int]:
    """Planar frequencies (beta_1, beta_2) of mode m >= 1, total order increasing."""
    if m < 1:
        raise ValueError("mode index must be >= 1")
    # Largest K with K(K+1)/2 <= m, computed exactly in integers.
    K = (math.isqrt(8 * m + 1) - 1) // 2
    b1 = m - K * (K + 1) // 2
    return b1, K - b1


def fourier_coefficient(m: int, sigma_tilde: float, alpha_bar: float) -> CoefficientField:
    """Mode m of the decaying cosine expansion; m = 0 is the constant field 1."""
    if m < 0:
        raise ValueError("mode index must be >= 0")
    if m == 0:
        return CoefficientField(constant_field(1.0).evaluator, "fourier(m=0)")
    b1, b2 = frequency_pair(m)
    amp = alpha_bar * float(m) ** (-sigma_tilde)
    w1 = 2.0 * math.pi * b1
    w2 = 2.0 * math.pi * b2

    def ev(x1, x2):
        return amp * np.cos(w1 * x1) * np.cos(w2 * x2)

    return CoefficientField(ev, f"fourier(m={m})")


def auto_alpha_bar(sigma_tilde: float) -> float:
    """Amplitude making the decaying-mode sup-norm series sum to 0.9999."""
    if sigma_tilde <= 1.0:
        raise ValueError("sigma_tilde must exceed 1 (series diverges otherwise)")
    return 0.9999 / float(zeta(sigma_tilde))


# ---------------------------------------------------------------------------
# assembly

_GAUSS_1D = np.polynomial.legendre.leggauss(3)


@lru_cache(maxsize=None)
def _reference_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # 3x3 tensor Gauss rule mapped to [0,1]^2; weights sum to 1.
    g, w = _GAUSS_1D
    g01 = 0.5 * (g + 1.0)
    w01 = 0.5 * w
    xi, eta = np.meshgrid(g01, g01, indexing="ij")
    xi = xi.ravel()
    eta = eta.ravel()
    wq = np.outer(w01, w01).ravel()
    # Bilinear basis on the reference square, corners (0,0),(1,0),(0,1),(1,1).
    dxi = np.stack([-(1 - eta), (1 - eta), -eta, eta], axis=1)  # (9, 4)
    deta = np.stack([-(1 - xi), -xi, (1 - xi), xi], axis=1)
    S_ref = wq[:, None, None] * (
        dxi[:, :, None] * dxi[:, None, :] + deta[:, :, None] * deta[:, None, :]
    )  # (9, 4, 4)
    return xi, eta, S_ref


@lru_cache(maxsize=None)
def _element_geometry(mesh: UniformMesh):
    n = mesh.n_side
    xi, eta, _ = _reference_tables()
    ex, ey = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ex = ex.ravel()
    ey = ey.ravel()
    xq1 = (ex[:, None] + xi[None, :]) * mesh.h  # (nel, 9)
    xq2 = (ey[:, None] + eta[None, :]) * mesh.h

    # Global interior-node index per element corner; -1 marks boundary nodes.
    corners_x = np.stack([ex, ex + 1, ex, ex + 1], axis=1)  # (nel, 4)
    corners_y = np.stack([ey, ey, ey + 1, ey + 1], axis=1)
    interior = (
        (corners_x >= 1) & (corners_x <= n - 1) & (corners_y >= 1) & (corners_y <= n - 1)
    )
    dof = (corners_y - 1) * (n - 1) + (corners_x - 1)
    dof[~interior] = -1
    return xq1, xq2, dof


def quadrature_points(mesh: UniformMesh) -> tuple[np.ndarray, np.ndarray]:
    """Physical quadrature coordinates, shape (n_elements, 9) each."""
    xq1, xq2, _ = _element_geometry(mesh)
    return xq1, xq2


# Scratch bytes of one slice of a batched assembly.
_ASSEMBLY_CHUNK_BYTES = 1 << 21


@lru_cache(maxsize=None)
def _assembly_map(mesh: UniformMesh) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """The linear map from quadrature values to stiffness values.

    Returns ``(B, indices, indptr)``: the canonical CSR pattern of the
    interior stiffness matrix, and the sparse matrix B whose row p holds
    the weight S_ref[q, a, b] of each element quadrature value (column
    9 e + q) in non-zero p.  The index arrays are shared by every matrix
    assembled on the mesh; all returned arrays are read-only.
    """
    _, _, S_ref = _reference_tables()
    _, _, dof = _element_geometry(mesh)
    n = mesh.n_interior
    e, a, b = np.nonzero((dof[:, :, None] >= 0) & (dof[:, None, :] >= 0))
    keys, pos = np.unique(dof[e, a] * n + dof[e, b], return_inverse=True)
    indices = (keys % n).astype(np.int32)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    cols = e[:, None] * 9 + np.arange(9)
    B = sp.csr_matrix(
        (S_ref[:, a, b].T.ravel(), (np.repeat(pos, 9), cols.ravel())),
        shape=(len(keys), dof.shape[0] * 9),
    )
    for arr in (B.data, B.indices, B.indptr, indices, indptr):
        arr.flags.writeable = False
    return B, indices, indptr


def assemble_from_quad_values(
    mesh: UniformMesh, values: np.ndarray
) -> sp.csr_matrix | list[sp.csr_matrix]:
    """Stiffness matrices from coefficient values at the quadrature points.

    ``values`` has shape (n_elements, 9) matching ``quadrature_points`` and
    gives one CSR matrix.  A leading axis, shape (T, n_elements, 9), gives
    a list of T matrices on one shared pattern, assembled in one pass of
    sparse products over slices of T; their values are the rows of one
    (T, nnz) array.
    """
    B, indices, indptr = _assembly_map(mesh)
    nel = B.shape[1] // 9
    values = np.asarray(values, dtype=float)
    if values.ndim not in (2, 3) or values.shape[-2:] != (nel, 9):
        raise ValueError(f"expected quadrature values of shape {(nel, 9)} or (T, {nel}, 9)")
    flat = values.reshape(-1, nel * 9)
    data = np.empty((len(flat), B.shape[0]))  # (T, nnz)
    step = max(1, _ASSEMBLY_CHUNK_BYTES // (8 * flat.shape[1]))
    for t in range(0, len(flat), step):
        data[t : t + step] = (B @ flat[t : t + step].T).T
    n = mesh.n_interior
    mats = [sp.csr_matrix((row, indices, indptr), shape=(n, n)) for row in data]
    return mats if values.ndim == 3 else mats[0]


def assemble_stiffness(mesh: UniformMesh, field: CoefficientField) -> sp.csr_matrix:
    xq1, xq2 = quadrature_points(mesh)
    return assemble_from_quad_values(mesh, field(xq1, xq2))


def assemble_load(mesh: UniformMesh) -> np.ndarray:
    """Load vector for unit forcing: each interior hat integrates to h^2."""
    return np.full(mesh.n_interior, mesh.h * mesh.h)


# ---------------------------------------------------------------------------
# sup-norms and expansion bookkeeping

_SAMPLE_N = 257


@lru_cache(maxsize=1)
def sample_grid() -> tuple[np.ndarray, np.ndarray]:
    """Uniform evaluation grid on the closed square, 257 points per side.

    Contains every extremum of integer-frequency cosine modes, so grid
    maxima of those fields are exact sup-norms.
    """
    x = np.linspace(0.0, 1.0, _SAMPLE_N)
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    return X1, X2


def sup_norm(field: CoefficientField) -> float:
    X1, X2 = sample_grid()
    return float(np.max(np.abs(field(X1, X2))))


def field_extrema(field: CoefficientField) -> tuple[float, float]:
    """(min, max) of the field values on the sample grid (signed, not absolute)."""
    X1, X2 = sample_grid()
    vals = field(X1, X2)
    return float(vals.min()), float(vals.max())


def tau_r(fields: Sequence[CoefficientField], a0_min: float) -> float:
    """Grid-sampled sup of sum_m |a_m| divided by a0_min; 0 for an empty list."""
    if a0_min <= 0:
        raise ValueError("a0_min must be positive")
    if len(fields) == 0:
        return 0.0
    X1, X2 = sample_grid()
    acc = np.zeros_like(X1)
    for f in fields:
        acc += np.abs(f(X1, X2))
    return float(acc.max()) / a0_min


def lognormal_expansion_coeff(
    alpha: Sequence[int],
    b_fields: Sequence[CoefficientField],
    b0: CoefficientField,
) -> CoefficientField:
    """Hermite expansion coefficient a_alpha of the field exp(b0 + sum b_m y_m).

    a_alpha(x) = E(x) * prod_m b_m(x)^alpha_m / sqrt(alpha_m!)  with
    E(x) = exp(b0(x) + (1/2) sum_{m=1}^{N} b_m(x)^2), N = len(b_fields).
    The factorial under the square root is validated against a
    Gauss-Hermite quadrature oracle in the tests.
    """
    alpha = tuple(int(a) for a in alpha)
    if any(a < 0 for a in alpha):
        raise ValueError("alpha entries must be nonnegative")
    if len(alpha) > len(b_fields):
        raise ValueError("alpha refers to more parameters than b_fields provides")

    def ev(x1, x2):
        exponent = b0(x1, x2)
        for b in b_fields:
            exponent = exponent + 0.5 * b(x1, x2) ** 2
        out = np.exp(exponent)
        for m, a in enumerate(alpha):
            if a:
                out = out * b_fields[m](x1, x2) ** a / math.sqrt(math.factorial(a))
        return out

    return CoefficientField(ev, f"lognormal(alpha={alpha})")


def order_by_magnitude(
    alphas,
    b_fields: Sequence[CoefficientField],
    b0: CoefficientField,
) -> list[tuple[tuple[int, ...], float]]:
    """Expansion terms sorted by descending sup-norm of a_alpha.

    Returns (alpha, magnitude) pairs.  Exact magnitude ties keep the
    degree-lex order of the input set (stable sort).
    """
    alphas = [tuple(int(a) for a in alpha) for alpha in alphas]
    if not alphas:
        return []
    X1, X2 = sample_grid()
    B = [b(X1, X2) for b in b_fields]
    exponent = b0(X1, X2) + 0.5 * sum(b * b for b in B)
    width = max(len(alpha) for alpha in alphas)
    if width > len(b_fields):
        raise ValueError("alpha refers to more parameters than b_fields provides")

    # sup |E prod B_m^a_m| = exp(max(log E + sum a_m log|B_m|)) since E > 0;
    # one blocked matmul over all indices replaces per-index grid powers.
    powers = np.zeros((len(alphas), width))
    for i, alpha in enumerate(alphas):
        powers[i, : len(alpha)] = alpha
    log_e = np.asarray(exponent, dtype=float).ravel()
    log_b = np.log(np.maximum(
        np.abs(np.stack([np.asarray(b, dtype=float).ravel() for b in B[:width]]))
        if width else np.zeros((0, log_e.size)),
        1e-300,
    ))
    best = np.full(len(alphas), -np.inf)
    chunk = 1024
    for start in range(0, log_e.size, chunk):
        vals = powers @ log_b[:, start : start + chunk]
        vals += log_e[start : start + chunk]
        np.maximum(best, vals.max(axis=1), out=best)
    half_log_fact = np.array(
        [0.5 * sum(math.lgamma(a + 1) for a in alpha) for alpha in alphas]
    )
    magnitudes = np.exp(best - half_log_fact)

    entries = [(alpha, float(mag)) for alpha, mag in zip(alphas, magnitudes)]
    entries.sort(key=lambda pair: -pair[1])
    return entries
