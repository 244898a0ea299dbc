"""Q1 finite elements on uniform square grids over the unit square.

Assembles stiffness matrices for scalar coefficient fields and the load
vector for a unit right-hand side, under homogeneous Dirichlet
conditions (interior nodes only, row-major numbering).  Also provides
the two coefficient expansions driving the experiments: planar Fourier
modes with algebraically decaying amplitudes, and the Hermite expansion
coefficients of a lognormal field.

Every cosine mode, and so every product of modes, attains its sup-norm at
the corner (0, 0), where each cosine factor is exactly 1.  The builds read
the constants they need there, in closed form; the sampled sup-norms on a
257 x 257 grid (``sup_norm``, ``field_extrema``, ``tau_r``) are the oracle
``verify.prop_closed_form_constants`` checks that against.

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


# A scalar field f(x1, x2) on the closed unit square; it broadcasts over
# numpy arrays of points.
CoefficientField = Callable[[np.ndarray, np.ndarray], np.ndarray]


def constant_field(value: float) -> CoefficientField:
    def ev(x1, x2):
        return np.full(np.broadcast(x1, x2).shape, float(value))

    return ev


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
        return constant_field(1.0)
    b1, b2 = frequency_pair(m)
    amp = alpha_bar * float(m) ** (-sigma_tilde)
    w1 = 2.0 * math.pi * b1
    w2 = 2.0 * math.pi * b2

    def ev(x1, x2):
        return amp * np.cos(w1 * x1) * np.cos(w2 * x2)

    return ev


# B_2, B_4, ..., B_16: the Bernoulli numbers of _zeta's corrections.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)


def _zeta(s: float) -> float:
    """Riemann zeta(s), s > 1, by Euler-Maclaurin summation at N = 16: the
    terms n^-s below N, the tail integral, half the N-th term and eight
    Bernoulli corrections, summed by fsum.  Within one ulp of the exact
    value on [1.05, 12] and equal to scipy.special.zeta at 2, 3 and 4,
    without its ~20 ms import."""
    N = 16
    terms = [n**-s for n in range(1, N)] + [N ** (1 - s) / (s - 1), 0.5 * N**-s]
    rising, power = s, N ** (-s - 1)  # s (s + 1) ... (s + 2j - 2), N^(-s - 2j + 1)
    for j, b in enumerate(_BERNOULLI, 1):
        terms.append(b / math.factorial(2 * j) * rising * power)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        power /= N * N
    return math.fsum(terms)


def auto_alpha_bar(sigma_tilde: float) -> float:
    """Amplitude making the decaying-mode sup-norm series sum to 0.9999."""
    if sigma_tilde <= 1.0:
        raise ValueError("sigma_tilde must exceed 1 (series diverges otherwise)")
    return 0.9999 / _zeta(float(sigma_tilde))


# ---------------------------------------------------------------------------
# assembly

_GAUSS_1D = np.polynomial.legendre.leggauss(3)
# Corner a of element (ex, ey) is the node (ex + dx, ey + dy): the order
# of the reference basis below.
_CORNER_OFFSETS = ((0, 0), (1, 0), (0, 1), (1, 1))


@lru_cache(maxsize=None)
def _reference_tables() -> tuple[np.ndarray, ...]:
    # 3x3 tensor Gauss rule mapped to [0,1]^2; weights sum to 1.
    g, w = _GAUSS_1D
    g01 = 0.5 * (g + 1.0)
    w01 = 0.5 * w
    xi, eta = np.meshgrid(g01, g01, indexing="ij")
    xi = xi.ravel()
    eta = eta.ravel()
    wq = np.outer(w01, w01).ravel()
    # Bilinear basis on the reference square, corners (0,0),(1,0),(0,1),(1,1):
    # its gradients at the points give S_ref and the gradient map's table.
    dxi = np.stack([-(1 - eta), (1 - eta), -eta, eta], axis=1)  # (9, 4)
    deta = np.stack([-(1 - xi), -xi, (1 - xi), xi], axis=1)
    S_ref = wq[:, None, None] * (
        dxi[:, :, None] * dxi[:, None, :] + deta[:, :, None] * deta[:, None, :]
    )  # (9, 4, 4)
    return xi, eta, S_ref, np.sqrt(wq)[:, None] * np.stack([dxi, deta])


@lru_cache(maxsize=None)
def _element_geometry(mesh: UniformMesh):
    n = mesh.n_side
    xi, eta, _, _ = _reference_tables()
    ex, ey = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ex = ex.ravel()
    ey = ey.ravel()
    xq1 = (ex[:, None] + xi[None, :]) * mesh.h  # (nel, 9)
    xq2 = (ey[:, None] + eta[None, :]) * mesh.h

    # Global interior-node index per element corner; -1 marks boundary nodes.
    dx, dy = np.array(_CORNER_OFFSETS).T
    corners_x = ex[:, None] + dx  # (nel, 4)
    corners_y = ey[:, None] + dy
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


@lru_cache(maxsize=None)
def _assembly_map(mesh: UniformMesh) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """The linear map from quadrature values to stiffness values.

    Returns ``(B, indices, indptr)``: the canonical CSR pattern of the
    interior stiffness matrix, and the sparse matrix B whose row p holds
    the weight S_ref[q, a, b] of each element quadrature value (column
    9 e + q) in non-zero p.  The index arrays are shared by every matrix
    assembled on the mesh; all returned arrays are read-only.
    """
    _, _, S_ref, _ = _reference_tables()
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


@lru_cache(maxsize=None)
def gradient_map(mesh: UniformMesh) -> tuple[np.ndarray, np.ndarray]:
    """The Q1 gradient map G, K(c) = G^T diag(c) G, in element form.

    Row (d, e, q) of G holds table[d, q, a] = sqrt(w_q) d phi_a / d x_d at
    point q in column corners[e, a], the interior index of corner a of
    element e (n_interior, no column, at a boundary node); c takes the
    quadrature values once per direction d.  Both arrays are read-only.
    """
    _, _, _, table = _reference_tables()
    _, _, dof = _element_geometry(mesh)
    corners = np.where(dof >= 0, dof, mesh.n_interior)
    for arr in (corners, table):
        arr.flags.writeable = False
    return corners, table


def corner_sums(values: np.ndarray) -> np.ndarray:
    """The transpose of the corner gather of :func:`gradient_map`: per
    interior node, the sum of ``values[..., e, a]`` over the elements e it
    is corner a of, added in the order a = 0..3, shape (..., n_interior);
    boundary corners drop out.  ``values`` has shape (..., n_elements, 4).
    A node is corner a of at most one element, so each a is one slice-add
    into the (n_side + 1)^2 node grid."""
    n = math.isqrt(values.shape[-2])
    lead = values.shape[:-2]
    per_element = values.reshape(lead + (n, n, 4))  # element ex * n + ey
    grid = np.zeros(lead + (n + 1, n + 1))  # node (x, y)
    for a, (dx, dy) in enumerate(_CORNER_OFFSETS):
        grid[..., dx : dx + n, dy : dy + n] += per_element[..., a]
    # interior node (x, y) is dof (y - 1)(n - 1) + (x - 1)
    return grid[..., 1:n, 1:n].swapaxes(-1, -2).reshape(lead + (-1,))


def stiffness_values(mesh: UniformMesh, values: np.ndarray) -> np.ndarray:
    """The stored values, shape (T, nnz), C-contiguous, of the T stiffness
    matrices whose coefficient values at the quadrature points are
    ``values``, shape (T, n_elements, 9), on the mesh's one canonical CSR
    pattern: one sparse product, whose output elements each sum a row of B
    in one order, so each row is the same bits whatever T is.  Callers
    bound T (``HermiteTerms`` streams its chunks)."""
    B, _, _ = _assembly_map(mesh)
    nel = B.shape[1] // 9
    values = np.asarray(values, dtype=float)
    if values.ndim != 3 or values.shape[1:] != (nel, 9):
        raise ValueError(f"expected quadrature values of shape {(nel, 9)} or (T, {nel}, 9)")
    return np.ascontiguousarray((B @ values.reshape(-1, nel * 9).T).T)


def assemble_from_quad_values(
    mesh: UniformMesh, values: np.ndarray
) -> sp.csr_matrix | list[sp.csr_matrix]:
    """Stiffness matrices from coefficient values at the quadrature points.

    ``values`` has shape (n_elements, 9) matching ``quadrature_points`` and
    gives one CSR matrix.  A leading axis, shape (T, n_elements, 9), gives
    a list of T matrices on one shared pattern, their values the rows of
    :func:`stiffness_values`.
    """
    _, indices, indptr = _assembly_map(mesh)
    values = np.asarray(values, dtype=float)
    data = stiffness_values(mesh, values if values.ndim == 3 else values[None])
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
# grid-sampled sup-norms (the oracle of the closed forms), expansion terms


@lru_cache(maxsize=1)
def sample_grid() -> tuple[np.ndarray, np.ndarray]:
    """Uniform evaluation grid on the closed square, 257 points per side.

    Contains every extremum of integer-frequency cosine modes, so grid
    maxima of those fields are exact sup-norms.
    """
    x = np.linspace(0.0, 1.0, 257)
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

    return ev


# Step of the grid the log magnitudes are rounded to before ordering.
_TIE_GRID = 1e-12


def order_by_magnitude(
    alphas,
    b_fields: Sequence[CoefficientField],
    b0: CoefficientField,
) -> list[tuple[tuple[int, ...], float]]:
    """Expansion terms sorted by descending sup-norm of a_alpha.

    Returns (alpha, magnitude) pairs.  The fields must attain their
    sup-norms together at the corner (0, 0), as the cosine modes and the
    constants do; then so does every a_alpha, and
    sup |a_alpha| = exp(b0 + 1/2 sum_m b_m^2) prod_m |b_m|^alpha_m / sqrt(alpha_m!)
    at the corner, with m running over all of ``b_fields``.

    Tie rule: the sort key is the log magnitude rounded to a grid of step
    1e-12 (a relative 1e-12 in the magnitude), and terms on one grid point
    keep degree-lex order (total degree, then entries ascending).  Exact
    ties such as a_2 a_3 = a_1 a_6 at sigma_tilde = 2 thus do not depend on
    rounding, and with a zero amplitude the order is pure degree-lex.
    """
    alphas = [tuple(int(a) for a in alpha) for alpha in alphas]
    if not alphas:
        return []
    width = max(len(alpha) for alpha in alphas)
    if width > len(b_fields):
        raise ValueError("alpha refers to more parameters than b_fields provides")
    corner = [float(b(0.0, 0.0)) for b in b_fields]
    log_e = float(b0(0.0, 0.0)) + 0.5 * sum(c * c for c in corner)

    powers = np.zeros((len(alphas), width), dtype=np.int64)
    for i, alpha in enumerate(alphas):
        powers[i, : len(alpha)] = alpha
    half_log_fact = np.array([0.5 * math.lgamma(a + 1) for a in range(powers.max(initial=0) + 1)])
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 = -inf; 0 * -inf unused
        log_b = np.log(np.abs(corner[:width]))
        slot_logs = np.where(powers > 0, powers * log_b, 0.0) - half_log_fact[powers]
    log_mag = log_e + slot_logs.sum(axis=1)
    key = np.rint(log_mag / _TIE_GRID)
    order = sorted(range(len(alphas)), key=lambda i: (-key[i], sum(alphas[i]), alphas[i]))
    return [(alphas[i], mag) for i, mag in zip(order, np.exp(log_mag[order]).tolist())]
