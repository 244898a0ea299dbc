"""The property catalogue of ``sgkron.verify``, and randomized properties.

Catalogue properties that build a tiny system run on drawn configurations
(levels 1-2, M <= 4, k <= 3, N = M + 2 for lognormal) and on an
``@example`` for the configuration of each test they took over;
``closed_form_constants`` runs on drawn decay rates, amplitudes and mode
counts, and ``lognormal_factored_matvec`` on drawn levels 1-3, M <= 4,
k <= 3, M < N <= 8 and amplitudes in [0.1, 1].  The other catalogue
properties run once each.
"""

import inspect
import math
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from sgkron import fem2d, kronsys, precond, verify
from sgkron.kronsys import KroneckerSumOperator, assemble_dense
from sgkron.verify import AFFINE, LOGNORMAL, SmallConfig

CATALOGUE = dict(verify.PROPERTIES)
TAKES_CONFIG = {n for n, prop in CATALOGUE.items() if inspect.signature(prop).parameters}


def configs(*problems):
    def config(problem, level, M, k, r, seed, sigma_tilde):
        r = min(r, M) if problem == "affine" else r
        return SmallConfig(problem, level, M, k, r, seed, sigma_tilde, N=M + 2)

    return st.builds(
        config,
        problem=st.sampled_from(problems),
        level=st.integers(1, 2),
        M=st.integers(1, 4),
        k=st.integers(0, 3),
        r=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
        sigma_tilde=st.sampled_from([2.0, 4.0]),
    )


def drawn(name, problems, *pins):
    """The hypothesis test of a config-taking property, pins included."""

    def test(cfg):
        CATALOGUE[name](cfg)

    test = given(cfg=configs(*problems))(test)
    for pin in pins:
        test = example(cfg=pin)(test)
    test = settings(max_examples=20, deadline=None, database=None)(test)
    test.__name__ = f"test_{name}"
    return test


BOTH = ("affine", "lognormal")
test_matvec_vs_dense = drawn("matvec_vs_dense", BOTH, AFFINE, LOGNORMAL)
test_block_row_count = drawn("block_row_count", ("affine",), SmallConfig(M=3, k=3))
test_load_structure = drawn("load_structure", BOTH, AFFINE, LOGNORMAL)
# Fixed configurations of both SBGS splittings, r past the affine expansion
# included.
SBGS_PINS = [
    SmallConfig(problem, level, M, k, r, N=6)
    for problem, level, M, k, r in [
        ("lognormal", 1, 3, 3, 1), ("lognormal", 2, 4, 3, 2), ("lognormal", 2, 2, 2, 2),
        ("affine", 1, 4, 1, 0), ("affine", 2, 4, 3, 3), ("lognormal", 1, 1, 1, 4),
        ("affine", 2, 1, 2, 2), ("lognormal", 1, 4, 3, 2),
    ]
]
test_sbgs_lognormal_spd = drawn(
    "sbgs_lognormal_spd", ("lognormal",), SmallConfig("lognormal", k=3, r=5)
)
test_kron_frobenius_lsq = drawn("kron_frobenius_lsq", BOTH, AFFINE)
# The last pin truncates nothing: P_r is the whole lognormal system.
test_precond_dense_formula = drawn(
    "precond_dense_formula", BOTH, AFFINE, LOGNORMAL, SmallConfig(r=2), *SBGS_PINS,
    SmallConfig("lognormal", level=1, M=2, k=1, r=5, N=4),
)
test_pcg_exact_preconditioner = drawn("pcg_exact_preconditioner", BOTH)
test_pcg_deterministic = drawn("pcg_deterministic", BOTH)
test_condition_estimate = drawn("condition_estimate", BOTH, AFFINE)
test_inclusions_tiny = drawn("inclusions_tiny", ("affine",), AFFINE, SmallConfig(sigma_tilde=4.0))
test_kappa_within_bound = drawn("kappa_within_bound", ("affine",))
test_trunc_spectrum_symmetric = drawn("trunc_spectrum_symmetric", ("affine",), AFFINE)
test_parity_split = drawn("parity_split", BOTH, AFFINE, LOGNORMAL, SmallConfig(level=1, k=0))


@settings(max_examples=20, deadline=None, database=None)
@given(
    level=st.integers(1, 3),
    M_N=st.integers(1, 4).flatmap(lambda M: st.tuples(st.just(M), st.integers(M + 1, 8))),
    k=st.integers(0, 3),
    alpha_bar=st.floats(0.1, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(level=2, M_N=(3, 6), k=2, alpha_bar=verify.LOGNORMAL_ALPHA_BAR, seed=verify.RNG_SEED)
def test_lognormal_factored_matvec(level, M_N, k, alpha_bar, seed):
    M, N = M_N
    CATALOGUE["lognormal_factored_matvec"](level, M, k, N, alpha_bar, seed)


def test_lognormal_factored_matvec_detects_shift_fault():
    # The weight of a shift by one, t / 1!, off by 1e-8 in every mode.
    build = kronsys.build_lognormal_system

    def planted(*args):
        op, f = build(*args)
        weights = op.factorization.weights.copy()
        weights[:, 0] *= 1 + 1e-8
        return replace(op, factorization=replace(op.factorization, weights=weights)), f

    with patch.object(kronsys, "build_lognormal_system", planted):
        with pytest.raises(AssertionError, match="relative error"):
            CATALOGUE["lognormal_factored_matvec"]()


def test_lognormal_factored_matvec_detects_truncated_envelope():
    # E_q = exp(b_0 + 1/2 sum b_m^2) summed over the first M sources, not all N.
    build = kronsys.build_lognormal_system

    def planted(mesh, M, k, N, sigma_tilde, alpha_bar):
        op, f = build(mesh, M, k, N, sigma_tilde, alpha_bar)
        fac = op.factorization
        b0 = fem2d.fourier_coefficient(0, sigma_tilde, alpha_bar)(*fem2d.quadrature_points(mesh))
        E = np.exp(b0.ravel() + 0.5 * sum(w[0] * w[0] for w in fac.weights))  # w[0] = b_m
        return replace(op, factorization=replace(fac, E=E)), f

    with patch.object(kronsys, "build_lognormal_system", planted):
        with pytest.raises(AssertionError, match="relative error"):
            CATALOGUE["lognormal_factored_matvec"]()


@settings(max_examples=20, deadline=None, database=None)
@given(cfg=configs(*BOTH))
def test_precond_dense_formula_superlu(cfg):
    # Every factor the preconditioners take (K_0, kron's G or its parity S,
    # the trunc_exact blocks and Schur complements, the lognormal SBGS
    # diagonals) on SuperLU, not LAPACK by order or by fill.
    with patch.object(precond, "DENSE_SOLVE_MAX", 0), \
            patch.object(precond, "DENSE_SOLVE_FILL", math.inf):
        CATALOGUE["precond_dense_formula"](cfg)


def test_trunc_spectrum_symmetric_detects_parity_fault():
    # A diagonal entry in G_M breaks the parity structure of the system,
    # not of the truncations r < M: their spectra lose the symmetry.
    op, f, ctx = AFFINE.build()
    G_M, K_M = op.terms[-1]
    planted = G_M + sp.csr_matrix(([0.05], ([0], [0])), shape=G_M.shape)
    faulty = KroneckerSumOperator(terms=(*op.terms[:-1], (planted, K_M)))
    with patch.object(SmallConfig, "build", lambda self: (faulty, f, ctx)):
        with pytest.raises(AssertionError, match="r=0"):
            CATALOGUE["trunc_spectrum_symmetric"](AFFINE)


def test_parity_split_detects_flipped_block():
    # One block moved to the other class: the residual of the plain run
    # has a real part in what the classes call its off class.
    parity_classes = KroneckerSumOperator.parity_classes

    def flipped(op, r):
        classes = parity_classes(op, r)
        if classes is not None:
            classes[-1] = not classes[-1]
        return classes

    with patch.object(KroneckerSumOperator, "parity_classes", flipped):
        with pytest.raises(AssertionError, match="off-class"):
            CATALOGUE["parity_split"](AFFINE)


@settings(max_examples=20, deadline=None, database=None)
@given(
    sigma_tilde=st.floats(1.05, 6.0),
    alpha_bar=st.one_of(
        st.none(), st.just(0.0), st.floats(0.01, 2.0), st.floats(-2.0, -0.01)
    ),
    M=st.integers(1, 12),
)
@example(sigma_tilde=2.0, alpha_bar=None, M=8)
@example(sigma_tilde=4.0, alpha_bar=-0.3, M=12)
def test_closed_form_constants(sigma_tilde, alpha_bar, M):
    CATALOGUE["closed_form_constants"](sigma_tilde, alpha_bar, M)


def test_every_config_property_is_drawn():
    assert TAKES_CONFIG == {n for n in CATALOGUE if f"test_{n}" in globals()}


@pytest.mark.parametrize("name", [n for n in CATALOGUE if n not in TAKES_CONFIG])
def test_catalogue_property(name):
    CATALOGUE[name]()


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
    op, _, _ = SmallConfig(problem, level, M, k, r, seed, 2.0, N=M + 2).build()
    pairs = op.leading(r)
    P_r = assemble_dense(pairs)
    if problem == "lognormal" and np.linalg.eigvalsh(P_r)[0] <= 0.0:
        reject()
    v = np.random.default_rng(seed).standard_normal(op.dim)
    ref = np.linalg.solve(P_r, v)
    K0_factor = precond.CholeskyFactor(op.leading(0)[0][1])
    with patch.object(precond, "TRUNC_DIRECT_GUARD", cut * op.nx):
        z = precond.build_trunc_exact(K0_factor, pairs).apply_inverse(v)
    assert np.linalg.norm(z - ref) <= 1e-10 * np.linalg.norm(ref)
