"""Randomized properties over small affine and lognormal configurations."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sgkron.fem2d import build_mesh
from sgkron.kronsys import assemble_sparse, build_affine_system, build_lognormal_system


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
