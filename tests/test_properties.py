"""Randomized properties over small affine and lognormal configurations."""

from unittest.mock import patch

import numpy as np
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from sgkron import precond
from sgkron.fem2d import build_mesh
from sgkron.kronsys import (
    KroneckerSumOperator,
    assemble_sparse,
    build_affine_system,
    build_lognormal_system,
)


@settings(max_examples=30, deadline=None, database=None)
@given(
    problem=st.sampled_from(["affine", "lognormal"]),
    level=st.integers(1, 2),
    M=st.integers(1, 4),
    k=st.integers(1, 3),
    sigma=st.sampled_from([2.0, 4.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_matvec_equals_assembled_sparse(problem, level, M, k, sigma, seed):
    mesh = build_mesh(level)
    if problem == "affine":
        op, _, _ = build_affine_system(mesh, M=M, k=k, sigma_tilde=sigma)
    else:
        op, _, _ = build_lognormal_system(
            mesh, M=M, k=k, N=M + 2, sigma_tilde=sigma, alpha_bar=0.547
        )
    v = np.random.default_rng(seed).standard_normal(op.dim)
    ref = assemble_sparse(op) @ v
    assert np.linalg.norm(op.matvec(v) - ref) <= 1e-13 * np.linalg.norm(ref)


@settings(max_examples=30, deadline=None, database=None)
@given(
    problem=st.sampled_from(["affine", "lognormal"]),
    level=st.integers(1, 2),
    M=st.integers(1, 4),
    k=st.integers(1, 3),
    r=st.integers(0, 5),
    cut=st.sampled_from([0, 1, 2, 10**9]),
    seed=st.integers(0, 2**32 - 1),
)
@example(problem="lognormal", level=2, M=3, k=2, r=3, cut=1, seed=0)
def test_trunc_exact_equals_dense_solve(problem, level, M, k, r, cut, seed):
    """apply_inverse of the tail-block truncation solves the assembled P_r.

    The direct-path cutoff is cut * nx unknowns per block: 0 sends every
    block to the nested CG, 1 and 2 split the blocks between the two paths
    (blocks of one and of at most two parametric indices go direct) and
    10**9 factors every block.  Lognormal truncations that are not SPD have
    no exact preconditioner and are skipped; the explicit example is an SPD
    one with both paths.
    """
    r = min(r, M + 1)
    mesh = build_mesh(level)
    if problem == "affine":
        op, _, _ = build_affine_system(mesh, M=M, k=k, sigma_tilde=2.0)
        pairs = op.terms[: r + 1]
    else:
        op, _, ctx = build_lognormal_system(
            mesh, M=M, k=k, N=M + 2, sigma_tilde=2.0, alpha_bar=0.547
        )
        pairs = [(t.G, t.K) for t in ctx.leading_terms(r) if t.G is not None]
    P_r = assemble_sparse(KroneckerSumOperator(terms=tuple(pairs), ny=op.ny, nx=op.nx))
    P_r = P_r.toarray()
    if problem == "lognormal" and np.linalg.eigvalsh(P_r)[0] <= 0.0:
        reject()
    v = np.random.default_rng(seed).standard_normal(op.dim)
    ref = np.linalg.solve(P_r, v)
    with patch.object(precond, "TRUNC_DIRECT_GUARD", cut * op.nx):
        z = precond.build_trunc_exact(pairs, r, op.ny, op.nx).apply_inverse(v)
    assert np.linalg.norm(z - ref) <= 1e-10 * np.linalg.norm(ref)
