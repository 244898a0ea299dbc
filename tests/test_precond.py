import functools
import inspect
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from sgkron import grid, kronsys, precond, spectral, verify
from sgkron.fem2d import assemble_stiffness, auto_alpha_bar, build_mesh, fourier_coefficient
from sgkron.kronsys import KroneckerSumOperator, assemble_dense
from sgkron.multiindex import build_index_set
from sgkron.pcg import BreakdownError, SolverConfig, pcg_solve
from sgkron.precond import (
    CholeskyFactor,
    NotPositiveDefiniteError,
    PairBlockSbgs,
    TruncExactPreconditioner,
    build_kron,
    build_mean_based,
    build_sbgs,
    build_trunc_exact,
)
from sgkron.verify import SmallConfig


def tiny_affine(level=2, M=3, k=2, sigma=2.0):
    return SmallConfig("affine", level, M, k, sigma_tilde=sigma).build()


def tiny_lognormal(level=2, M=3, k=3, N=6):
    return SmallConfig("lognormal", level, M, k, N=N).build()


def k0_factor(op):
    """The factor of the mean stiffness K_0 that every builder is passed."""
    return CholeskyFactor(op.leading(0)[0][1])


def superlu_only(monkeypatch):
    """Send every factor LAPACK would take, by order or by fill, to SuperLU."""
    monkeypatch.setattr(precond, "DENSE_SOLVE_MAX", 0)
    monkeypatch.setattr(precond, "DENSE_SOLVE_FILL", math.inf)


def part_solvers(P):
    """What solves each class of a trunc_exact P, part by part: a
    CholeskyFactor (the caller's K_0 one or the class's own), a
    _SchurComplement (factored, or the operator of a nested CG where it
    holds no factor), or the (operator, SBGS) pair of a nested SBGS-PCG."""
    return [(solve.args if solve.func is precond._sbgs_cg else solve.args[0])
            if isinstance(solve, functools.partial) else solve.__self__ for _, solve in P._parts]


def nested_operators(P):
    """The operators of P's nested CGs, one per nested class."""
    return [s[0] if isinstance(s, tuple) else s for s in part_solvers(P)
            if isinstance(s, tuple) or isinstance(s, precond._SchurComplement) and s._S_L is None]


def dense_apply_inverse(P, n):
    cols = [P.apply_inverse(e) for e in np.eye(n)]
    return np.stack(cols, axis=1)


class TestCholeskyFactor:
    """Runs on the dense path; TestCholeskyFactorSuperLU reruns every case
    on the sparse one.  The unit-diagonal 2 x 2 case takes the parity path,
    whose 1 x 1 S takes the class's path."""

    PATH = "inverse"

    @pytest.fixture(autouse=True)
    def factor_path(self, monkeypatch):
        monkeypatch.setattr(precond, "DENSE_SOLVE_MAX", 10**9)

    def test_hand_example_solve(self):
        A = np.array([[4.0, 2.0], [2.0, 3.0]])
        factor = CholeskyFactor(sp.csc_matrix(A))
        b = np.array([1.0, -2.0])
        np.testing.assert_allclose(factor.solve(b), np.linalg.solve(A, b), rtol=1e-14)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            CholeskyFactor(sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]])))

    def test_hollow_symmetric_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            CholeskyFactor(sp.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))

    def test_negative_definite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            CholeskyFactor(sp.csc_matrix(-np.eye(3)))

    def test_random_spd_roundtrip(self):
        rng = np.random.default_rng(42)
        R = rng.standard_normal((30, 30))
        A = R.T @ R + 30.0 * np.eye(30)
        factor = CholeskyFactor(sp.csc_matrix(A))
        assert factor.path == self.PATH
        b = rng.standard_normal(30)
        np.testing.assert_allclose(factor.solve(b), np.linalg.solve(A, b), rtol=1e-10)

    def test_multi_rhs_solve(self):
        rng = np.random.default_rng(42)
        A = np.diag([2.0, 5.0, 7.0])
        factor = CholeskyFactor(sp.csc_matrix(A))
        B = rng.standard_normal((3, 4))
        np.testing.assert_allclose(factor.solve(B), np.linalg.solve(A, B), rtol=1e-14)


    def test_dense_input_solves_and_refuses_as_sparse(self):
        # A dense array is checked and factored as it is: the solves of its
        # CSC form, bit for bit, and the same refusals, by type and message.
        rng = np.random.default_rng(7)
        R = rng.standard_normal((12, 12))
        A = R.T @ R + 12.0 * np.eye(12)
        B = rng.standard_normal((12, 3))
        assert np.array_equal(CholeskyFactor(A).solve(B), CholeskyFactor(sp.csc_matrix(A)).solve(B))

        def refusal(K):
            with pytest.raises(Exception) as info:
                CholeskyFactor(K)
            return type(info.value), str(info.value)

        non_finite, asymmetric = A.copy(), A.copy()
        non_finite[3, 4] = non_finite[4, 3] = np.inf
        asymmetric[3, 4] += 1.0
        indefinite = A - 2.0 * np.linalg.eigvalsh(A)[-1] * np.eye(12)
        for K, error in ((non_finite, BreakdownError), (asymmetric, ValueError),
                         (indefinite, NotPositiveDefiniteError)):
            assert refusal(K) == refusal(sp.csc_matrix(K))
            assert refusal(K)[0] is error


class TestCholeskyFactorSuperLU(TestCholeskyFactor):
    PATH = "superlu"

    @pytest.fixture(autouse=True)
    def factor_path(self, monkeypatch):
        superlu_only(monkeypatch)


def two_cyclic(n_even, n_odd, scale, seed):
    """A sparse unit-diagonal matrix [[I, B], [B^T, I]], its rows shuffled so
    that row 0 (the colour _colouring calls False) is even; ||B|| = scale."""
    rng = np.random.default_rng(seed)
    B = sp.random(n_even, n_odd, density=0.4, random_state=rng).toarray()
    B[0, 0] = B[-1, -1] = 1.0  # both colours meet an entry
    B *= scale / np.linalg.norm(B, 2)
    G = np.block([[np.eye(n_even), B], [B.T, np.eye(n_odd)]])
    perm = np.r_[0, 1 + rng.permutation(n_even + n_odd - 1)]
    return G[np.ix_(perm, perm)]


class TestParityPath:
    @pytest.mark.parametrize("n_even, n_odd", [(7, 12), (12, 7)])
    @pytest.mark.parametrize("dense", [True, False])
    def test_solve_equals_dense_solve(self, n_even, n_odd, dense):
        # Either colour may be the smaller, kept one; its S takes the
        # LAPACK inverse.  A dense array takes the parity path as its CSC
        # form does.
        G = two_cyclic(n_even, n_odd, 0.9, seed=n_even)
        factor = CholeskyFactor(G if dense else sp.csr_matrix(G))
        keep, elim, *_, S = factor._data
        assert factor.path == "parity"
        assert len(keep) == min(n_even, n_odd) and (0 in keep) == (n_even < n_odd)
        assert S.path == "inverse"
        rng = np.random.default_rng(1)
        for b in (rng.standard_normal(len(G)), rng.standard_normal((5, len(G))).T):
            x = factor.solve(b)
            assert x.shape == b.shape
            assert np.linalg.norm(x - np.linalg.solve(G, b)) <= 1e-13 * np.linalg.norm(x)

    def test_indefinite_refused(self):
        with pytest.raises(NotPositiveDefiniteError):
            CholeskyFactor(sp.csr_matrix(two_cyclic(5, 8, 1.1, seed=3)))

    def test_non_finite_refused_first(self):
        G = two_cyclic(5, 8, 0.9, seed=3)
        i, j = np.argwhere(G[0] != 0)[-1, 0], 0  # an off-diagonal entry of row 0
        G[i, j] = G[j, i] = np.inf
        with pytest.raises(BreakdownError):
            CholeskyFactor(sp.csr_matrix(G))

    def test_overflowing_schur_complement_refused_as_indefinite(self):
        # G is finite, S = I - B^T B is not: G has |B_ij| > 1, so it is
        # indefinite, and refused as such, not as a breakdown.
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(NotPositiveDefiniteError, match="overflow"):
                CholeskyFactor(sp.csr_matrix(two_cyclic(5, 8, 1e200, seed=3)))


@pytest.mark.parametrize("dense", [True, False])
def test_full_matrix_above_the_order_limit_takes_lapack(dense):
    # A full SPD matrix of order 600 > DENSE_SOLVE_MAX, sparse or dense,
    # takes the LAPACK path by its fill.
    rng = np.random.default_rng(5)
    n = 600
    R = rng.standard_normal((n, n))
    A = R.T @ R / n + np.eye(n)
    b = rng.standard_normal((n, 3))
    factor = CholeskyFactor(A if dense else sp.csc_matrix(A))
    assert n > precond.DENSE_SOLVE_MAX
    assert factor.path == "inverse"
    x = factor.solve(b)
    assert np.linalg.norm(x - np.linalg.solve(A, b)) <= 1e-12 * np.linalg.norm(x)


def test_sparse_kronecker_block_above_the_order_limit_keeps_superlu():
    # A lognormal trunc_exact block, G_c (x) K_0 with a full 3 x 3 G_c at
    # mesh level 4: order 675, 3.65% nonzeros, and SuperLU's factor of it
    # stays under DENSE_SOLVE_FILL, so it keeps SuperLU, sparse or dense.
    K0 = assemble_stiffness(build_mesh(4), fourier_coefficient(0, 2.0, 0.6))
    G = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.3], [0.2, 0.3, 1.0]])
    K = sp.kron(sp.csr_matrix(G), K0, format="csc")
    n = K.shape[0]
    assert n > precond.DENSE_SOLVE_MAX
    b = np.random.default_rng(6).standard_normal((n, 3))
    x_ref = np.linalg.solve(K.toarray(), b)
    for A in (K, K.toarray()):
        factor = CholeskyFactor(A)
        assert factor.path == "superlu"
        lu = factor._data
        assert lu.L.nnz + lu.U.nnz < precond.DENSE_SOLVE_FILL * n * n
        x = factor.solve(b)
        assert np.linalg.norm(x - x_ref) <= 1e-11 * np.linalg.norm(x_ref)


@pytest.mark.parametrize("dense", [True, False])
def test_sparse_matrix_whose_factor_fills_takes_lapack(dense):
    # A random pattern of order 600 with 2% nonzeros, below
    # DENSE_SOLVE_FILL, fills SuperLU's factor past it, as kron's parity S
    # at table3 k = 6 does: LAPACK factors it instead, sparse or dense.
    n = 600
    R = sp.random(n, n, density=0.01, random_state=np.random.default_rng(8))
    K = sp.csc_matrix(R + R.T + sp.diags(abs(R + R.T).sum(axis=1).A1 + 1.0))
    assert n > precond.DENSE_SOLVE_MAX and K.nnz < precond.DENSE_SOLVE_FILL * n * n
    b = np.random.default_rng(9).standard_normal((n, 3))
    x_ref = np.linalg.solve(K.toarray(), b)
    factor = CholeskyFactor(K.toarray() if dense else K)
    assert factor.path == "inverse"
    x = factor.solve(b)
    assert np.linalg.norm(x - x_ref) <= 1e-11 * np.linalg.norm(x_ref)


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_laplacian_k0_takes_the_sine_path(level):
    # The affine K_0 is the grid Laplacian at every level: from order
    # SINE_SOLVE_MIN (level 4) up it takes the sine path, with no LAPACK or
    # SuperLU factor, and below it the dense inverse.  Checked against
    # LAPACK's general solver; cond(K_0) < 1e3 up to level 5, so 1e-11
    # leaves a wide margin over cond * eps.
    K0 = assemble_stiffness(build_mesh(level), fourier_coefficient(0, 2.0, 0.6))
    factor = CholeskyFactor(K0)
    sine = factor.n >= precond.SINE_SOLVE_MIN
    assert sine == (level >= 4)
    assert factor.path == ("sine" if sine else "inverse")
    rng = np.random.default_rng(level)
    A = K0.toarray()
    b = rng.standard_normal(factor.n)
    B = rng.standard_normal((45, factor.n)).T  # the transposed block layout
    for rhs in (b, B):
        x_ref = np.linalg.solve(A, rhs)
        rhs.setflags(write=False)
        x = factor.solve(rhs)
        assert x.shape == rhs.shape
        assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-11


@pytest.mark.parametrize("level, dense", [(3, True), (4, True), (5, False)])
def test_factor_solves_real_k0(level, dense):
    # Both sides of the dense/SuperLU cutoff at its shipped value, on a
    # variable-coefficient stiffness (not a grid Laplacian), against
    # LAPACK's general solver: level 5 (order 961, 0.9% full) is too sparse
    # for the LAPACK path by fill.  cond < 1e3 up to level 5, so 1e-11 leaves
    # a wide margin over cond * eps for either path.
    mesh = build_mesh(level)
    K0 = assemble_stiffness(
        mesh, lambda x1, x2: 2.0 + np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * x2)
    )
    factor = CholeskyFactor(K0)
    assert (factor.n <= precond.DENSE_SOLVE_MAX) == dense
    assert factor.path == ("inverse" if dense else "superlu")
    rng = np.random.default_rng(level)
    A = K0.toarray()
    b = rng.standard_normal(factor.n)
    B = rng.standard_normal((45, factor.n)).T  # the transposed block layout
    for rhs in (b, B):
        x_ref = np.linalg.solve(A, rhs)
        err = np.linalg.norm(factor.solve(rhs) - x_ref) / np.linalg.norm(x_ref)
        assert err < 1e-11


class TestMeanBased:
    def test_blockwise_mean_solve(self):
        op, _, _ = tiny_affine()
        K0 = op.terms[0][1]
        P = build_mean_based(CholeskyFactor(K0), op.leading(0))
        rng = np.random.default_rng(42)
        v = rng.standard_normal(op.dim)
        expected = np.linalg.solve(np.kron(np.eye(op.ny), K0.toarray()), v)
        np.testing.assert_allclose(P.apply_inverse(v), expected, rtol=1e-10)

    def test_equals_trunc_r0(self):
        # trunc_exact 0 is I (x) K_0 block by block, and solves with the
        # shared K_0 factor what mean solves, bit for bit: on the dense path
        # (levels 2, 3) and the sine path (4, 5), in the full apply and in
        # each class apply.
        for level in (2, 3, 4, 5):
            op, _, _ = tiny_affine(level=level)
            K0 = k0_factor(op)
            classes = op.parity_classes(0)
            P_mean = build_mean_based(K0, op.leading(0), classes)
            P_trunc = build_trunc_exact(K0, op.terms[:1], classes)
            v = np.random.default_rng(42).standard_normal(op.dim)
            for cls in (None, 0, 1):
                assert np.array_equal(P_mean.apply_inverse(v, cls), P_trunc.apply_inverse(v, cls))


def reference_tail_blocks(pairs):
    """The per-component grouping that _tail_blocks replaced: one graph pass
    on the union pattern, a dict over the key bytes of each component, and
    one _colouring call per class."""
    (term, rows, cols, vals), n = pairs.triples, pairs.ny
    union = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    n_comp, comp = connected_components(union, directed=False)
    size = np.bincount(comp, minlength=n_comp)
    slot = precond._occurrence(comp)
    members = np.argsort(comp, kind="stable")
    first = np.cumsum(size) - size
    owner = comp[rows]
    order = np.lexsort((slot[cols], slot[rows], term, owner))
    keys = np.stack([term, slot[rows], slot[cols], vals], axis=1)[order]
    count = np.bincount(owner, minlength=n_comp)
    same = {}
    for q, key in enumerate(np.split(keys, np.cumsum(count)[:-1])):
        same.setdefault((size[q], key.tobytes()), (key, []))[1].append(q)
    out = []
    for key, qs in same.values():
        idx = members[first[qs, None] + np.arange(size[qs[0]])]
        block = (*key[:, :3].T.astype(np.int64), key[:, 3])
        out.append((idx, block, kronsys._colouring([block], idx.shape[1], 0)))
    return out


class TestTailBlocks:
    @pytest.mark.parametrize("seed", [None, 1, 2])
    @pytest.mark.parametrize("sigma", [2.0, 4.0], ids=["slow", "fast"])
    @pytest.mark.parametrize("problem", ["affine", "lognormal"])
    def test_one_pass_matches_per_component_reference(self, problem, sigma, seed):
        # The one graph pass returns the classes of the per-component
        # grouping, in its order: the same indices, the same key entries
        # (dtypes too) and the colouring of the old per-class call, None
        # where a class has no tail entry or does not 2-colour.  The tail
        # terms are also taken in an order shuffled by the seed.
        M, k = (4, 3) if problem == "affine" else (3, 3)
        op, _, _ = SmallConfig(problem, 2, M, k, sigma_tilde=sigma).build()
        terms = list(op.terms[: 2 * M + 2])
        if seed is not None:
            order = np.random.default_rng(seed).permutation(len(terms) - 1) + 1
            terms = [terms[0]] + [terms[i] for i in order]
        for r in range(M + 1) if problem == "affine" else (0, 1, 2, 3, 6, 9):
            pairs = kronsys.PairList(terms[: r + 1])
            got, want = precond._tail_blocks(pairs), reference_tail_blocks(pairs)
            assert len(got) == len(want)
            for (idx, entries, colour), (ref_idx, ref_entries, ref_colour) in zip(got, want):
                assert np.array_equal(idx, ref_idx)
                assert all(a.dtype == b.dtype and np.array_equal(a, b)
                           for a, b in zip(entries, ref_entries))
                assert (colour is None) == (ref_colour is None)
                assert colour is None or np.array_equal(colour, ref_colour)

    def test_equal_counts_with_different_values(self):
        # Three components of equal block and entry counts, the first and
        # last equal and the middle one not: one group, two classes, the
        # first class holding two components apart.
        G1 = sp.csr_matrix(np.kron(np.diag([0.2, 0.4, 0.2]), np.array([[0, 1.0], [1.0, 0]])))
        pairs = kronsys.PairList(((sp.identity(6, format="csr"), sp.identity(2)), (G1, sp.identity(2))))
        got, want = precond._tail_blocks(pairs), reference_tail_blocks(pairs)
        assert [idx.tolist() for idx, *_ in got] == [[[0, 1], [4, 5]], [[2, 3]]]
        for (idx, entries, colour), (ref_idx, ref_entries, ref_colour) in zip(got, want, strict=True):
            assert np.array_equal(idx, ref_idx) and np.array_equal(colour, ref_colour)
            assert all(np.array_equal(a, b) for a, b in zip(entries, ref_entries))

    @pytest.mark.parametrize("problem", [tiny_affine, tiny_lognormal], ids=["affine", "lognormal"])
    def test_identity_pairs_take_no_graph_pass(self, monkeypatch, problem):
        # P_0 is one class of single blocks, read off no graph.
        def refused(*args, **kwargs):
            raise AssertionError("P_0 takes no connected_components call")

        monkeypatch.setattr(precond, "connected_components", refused)
        op, _, _ = problem()
        ((idx, (term, rows, cols, vals), colour),) = precond._tail_blocks(
            kronsys.PairList(op.leading(0)))
        assert np.array_equal(idx, np.arange(op.ny)[:, None]) and colour is None
        assert [term.tolist(), rows.tolist(), cols.tolist(), vals.tolist()] == [[0], [0], [0], [1.0]]
        build_mean_based(k0_factor(op), op.leading(0)).apply_inverse(np.ones(op.dim))


class TestKroneckerProduct:
    S_PATH = "inverse"

    def test_apply_inverse(self):
        # The affine G is [[I, B], [B^T, I]] by |alpha| parity: its factor
        # takes the parity path, and S that of the class.
        op, _, _ = tiny_affine()
        P = build_kron(op, k0_factor(op))
        assert P._G_factor.path == "parity"
        assert P._G_factor._data[-1].path == self.S_PATH
        K0 = op.terms[0][1].toarray()
        dense = np.kron(P.G.toarray(), K0)
        rng = np.random.default_rng(42)
        v = rng.standard_normal(op.dim)
        np.testing.assert_allclose(
            P.apply_inverse(v), np.linalg.solve(dense, v), rtol=1e-10
        )

    def test_indefinite_parametric_factor_rejected(self):
        # A dominant constant fluctuation makes the Frobenius-optimal G
        # indefinite (1 +/- w c eigenvalues with w large).
        from sgkron.fem2d import assemble_stiffness, constant_field
        from sgkron.gram import gram_identity, gram_linear

        mesh = build_mesh(2)
        S = build_index_set(1, 2)
        K0 = assemble_stiffness(mesh, constant_field(1.0))
        K1 = assemble_stiffness(mesh, constant_field(5.0))
        terms = ((gram_identity(len(S)), K0), (gram_linear(1, S), K1))
        op = KroneckerSumOperator(terms=terms)
        with pytest.raises(NotPositiveDefiniteError):
            build_kron(op, CholeskyFactor(K0))

    def test_non_finite_parametric_factor_rejected(self):
        # A NaN stiffness value makes its Frobenius weight, and so G, NaN.
        op, _, _ = tiny_affine()
        (G0, K0), (G1, K1), *rest = op.terms
        K1 = K1.copy()
        K1.data[0] = np.nan
        faulty = KroneckerSumOperator(terms=((G0, K0), (G1, K1), *rest))
        with pytest.raises(BreakdownError):
            build_kron(faulty, k0_factor(op))


class TestKroneckerProductSuperLU(TestKroneckerProduct):
    """Reruns every case with G's parity S (and K_0) factorized by SuperLU."""

    S_PATH = "superlu"

    @pytest.fixture(autouse=True)
    def factor_path(self, monkeypatch):
        superlu_only(monkeypatch)


def table6_lognormal_k2():
    # 8 of its 210 weights move in the last bit if the zero products of
    # <K_alpha, K_0> are summed too.
    return tiny_lognormal(level=4, M=6, k=2, N=20)


@pytest.mark.parametrize("build", [tiny_affine, tiny_lognormal, table6_lognormal_k2])
def test_build_kron_sums_weighted_terms_exactly(build):
    # G is sum_i w_i G_i added entry by entry in term order, as a dense
    # accumulation does it, so equal to it bit for bit.
    op, _, _ = build()
    K0 = op.terms[0][1]
    G_ref = np.zeros((op.ny, op.ny))
    for G_i, K_i in op.terms:
        G_ref += (K_i.multiply(K0).sum() / K0.multiply(K0).sum()) * G_i.toarray()
    G = build_kron(op, k0_factor(op)).G
    assert G.format == "csr"
    assert np.array_equal(G.toarray(), G_ref)


class TestTruncExact:
    def test_full_truncation_equals_system(self):
        op, f, _ = tiny_affine(M=3)
        P = build_trunc_exact(k0_factor(op), op.terms)
        x, report = pcg_solve(op, P, f, SolverConfig(tol=1e-10))
        assert report.iterations == 1
        np.testing.assert_allclose(op.matvec(x), f, atol=1e-10 * np.linalg.norm(f))

    def test_r_beyond_m_clamps(self):
        op, f, _ = tiny_affine(M=3)
        P = build_trunc_exact(k0_factor(op), op.leading(9))
        _, report = pcg_solve(op, P, f, SolverConfig(tol=1e-10))
        assert report.iterations == 1

    def test_matches_dense_inverse(self):
        op, _, _ = tiny_affine()
        for r in (0, 1, 2):
            P = build_trunc_exact(k0_factor(op), op.terms[: r + 1])
            P_dense = assemble_dense(op.terms[: r + 1])
            rng = np.random.default_rng(42)
            v = rng.standard_normal(op.dim)
            np.testing.assert_allclose(
                P.apply_inverse(v), np.linalg.solve(P_dense, v), rtol=1e-9
            )

    def test_iterations_do_not_grow_with_r(self):
        op, f, _ = tiny_affine(M=4, k=3, sigma=2.0)
        counts = []
        for r in range(5):
            P = build_trunc_exact(k0_factor(op), op.terms[: r + 1])
            _, report = pcg_solve(op, P, f)
            counts.append(report.iterations)
        assert all(b <= a for a, b in zip(counts, counts[1:]))
        assert counts[-1] == 1

    def test_iterative_fallback_matches_direct(self, monkeypatch):
        # Force the beyond-guard path and compare against the factorized apply.
        op, _, _ = tiny_affine()
        direct = build_trunc_exact(k0_factor(op), op.terms[:3])
        monkeypatch.setattr(precond, "TRUNC_DIRECT_GUARD", 1)
        nested = build_trunc_exact(k0_factor(op), op.terms[:3])
        rng = np.random.default_rng(42)
        v = rng.standard_normal(op.dim)
        np.testing.assert_allclose(
            nested.apply_inverse(v), direct.apply_inverse(v), rtol=1e-9
        )

    def test_iterative_fallback_matches_direct_lognormal(self, monkeypatch):
        # The inner SBGS of a general pair list: Hermite diagonals and a
        # term coupling one block to two sources of a level (r = 4).
        op, _, _ = tiny_lognormal()
        pairs = op.leading(4)
        direct = build_trunc_exact(k0_factor(op), pairs)
        monkeypatch.setattr(precond, "TRUNC_DIRECT_GUARD", 1)
        nested = build_trunc_exact(k0_factor(op), pairs)
        rng = np.random.default_rng(42)
        v = rng.standard_normal(op.dim)
        np.testing.assert_allclose(
            nested.apply_inverse(v), direct.apply_inverse(v), rtol=1e-9
        )

    def test_one_factor_per_remaining_degree(self):
        # Affine r < M: the blocks of P_r are the tails (alpha_{r+1}, ..,
        # alpha_M), and blocks of equal remaining degree d = k - |tail| are
        # the same system, so P_r has one part per distinct d, each solved
        # directly.
        op, _, _ = tiny_affine(M=4, k=3)
        for r in (1, 2, 3):
            P = build_trunc_exact(k0_factor(op), op.terms[: r + 1])
            degrees = {3 - sum(alpha[r:]) for alpha in build_index_set(4, 3)}
            assert len(P._parts) == len(degrees) == 4
            assert not nested_operators(P)

    def test_equal_size_blocks_with_different_values(self):
        # Blocks {0, 1} and {2, 3} share size and pattern but not their
        # coupling values, so they are two classes, with two factors.
        K0 = assemble_stiffness(build_mesh(2), fourier_coefficient(0, 2.0, 0.547))
        G1 = sp.csr_matrix(np.array(
            [[0, 0.2, 0, 0], [0.2, 0, 0, 0], [0, 0, 0, 0.4], [0, 0, 0.4, 0]]
        ))
        pairs = ((sp.identity(4, format="csr"), K0), (G1, K0))
        P = build_trunc_exact(CholeskyFactor(K0), pairs)
        assert [idx.tolist() for idx, _ in P._parts] == [[[0, 1]], [[2, 3]]]
        assert all(isinstance(s, precond._SchurComplement) and s._S_L is not None
                   for s in part_solvers(P))
        P_dense = assemble_dense(pairs)
        v = np.random.default_rng(42).standard_normal(P_dense.shape[0])
        np.testing.assert_allclose(P.apply_inverse(v), np.linalg.solve(P_dense, v), rtol=1e-12)

    def test_cutoff_counts_unknowns_per_block(self, monkeypatch):
        # A cutoff of one parametric index per block solves the d = 0
        # blocks (a K_0 each) directly and the rest with nested CGs, one a class.
        op, _, _ = tiny_affine(M=4, k=3)
        K0 = k0_factor(op)
        monkeypatch.setattr(precond, "TRUNC_DIRECT_GUARD", op.nx)
        P = build_trunc_exact(K0, op.terms[:3])
        solvers = part_solvers(P)
        assert [s is K0 for s in solvers].count(True) == 1
        assert len(nested_operators(P)) == len(solvers) - 1 > 0
        rng = np.random.default_rng(42)
        v = rng.standard_normal(op.dim)
        P_dense = assemble_dense(op.terms[:3])
        np.testing.assert_allclose(P.apply_inverse(v), np.linalg.solve(P_dense, v), rtol=1e-9)

    @pytest.mark.parametrize("cut", [0, 1, 10**9])
    def test_class_apply_is_the_full_apply_on_its_class(self, monkeypatch, cut):
        # P_r never couples the two parity classes, so the apply of class c
        # is the full apply on c's blocks and zero elsewhere, with the
        # nested classes (cut 0: all of them) solved on their components of
        # colour c.
        op, _, _ = tiny_affine(M=4, k=3)
        monkeypatch.setattr(precond, "TRUNC_DIRECT_GUARD", cut * op.nx)
        v = np.random.default_rng(42).standard_normal(op.dim)
        for r in (0, 2):
            classes = op.parity_classes(r)
            mean = build_mean_based(k0_factor(op), op.leading(0), classes)
            P = build_trunc_exact(k0_factor(op), op.leading(r), classes)
            for prec in ((mean, P) if r == 0 else (P,)):
                full = prec.apply_inverse(v).reshape(op.ny, op.nx)
                for c in (0, 1):
                    part = prec.apply_inverse(v, c).reshape(op.ny, op.nx)
                    np.testing.assert_allclose(part[classes == c], full[classes == c], rtol=1e-10)
                    assert not part[classes != c].any()

    @pytest.mark.parametrize("problem, r, shape, solver", [
        (tiny_affine, 1, (3, 3), precond._SchurComplement),
        (tiny_lognormal, 3, (3, 3), tuple),
    ], ids=["affine", "lognormal"])
    def test_colouring_that_splits_a_nested_class(self, monkeypatch, problem, r, shape, solver):
        # Any colouring that keeps each component in one colour is one P_r
        # never couples, also one that splits a class's components: here
        # every class's components alternate between the colours.  A nested
        # class, Schur CG (affine d = 2: three chains of three blocks) or
        # SBGS-PCG (lognormal), then solves a subset of its components.
        monkeypatch.setattr(precond, "TRUNC_DIRECT_GUARD", 0)
        op, _, _ = problem(M=4, k=3)
        pairs = kronsys.PairList(op.leading(r))
        classes = np.zeros(op.ny, dtype=bool)
        for idx, *_ in precond._tail_blocks(pairs):
            classes[idx[1::2]] = True
        P = build_trunc_exact(k0_factor(op), pairs, classes)
        split = [S for (idx, _), S in zip(P._parts, part_solvers(P)) if idx.shape == shape]
        assert len(split) == 1 and isinstance(split[0], solver)
        v = np.random.default_rng(5).standard_normal(op.dim)
        full = P.apply_inverse(v).reshape(op.ny, op.nx)
        for c in (0, 1):
            part = P.apply_inverse(v, c).reshape(op.ny, op.nx)
            np.testing.assert_allclose(part[classes == c], full[classes == c], rtol=1e-10)
            assert not part[classes != c].any()

    @pytest.mark.parametrize("cut", [0, 1])
    def test_reduced_nested_apply_equals_dense_solve(self, monkeypatch, cut):
        # The affine nested blocks take the reduced solve, which keeps the
        # smaller colour: at (M 3, k 2, r 1) block 0's colour is eliminated,
        # at (M 4, k 3, r 3) the other one.
        eliminated = set()
        for (M, k), r in (((3, 2), 1), ((4, 3), 3)):
            op, _, _ = tiny_affine(M=M, k=k)
            monkeypatch.setattr(precond, "TRUNC_DIRECT_GUARD", cut * op.nx)
            P = build_trunc_exact(k0_factor(op), op.leading(r))
            assert nested_operators(P)
            for S in nested_operators(P):
                assert isinstance(S, precond._SchurComplement)
                eliminated.add(0 in S.elim)
            v = np.random.default_rng(7).standard_normal(op.dim)
            P_dense = assemble_dense(op.leading(r))
            np.testing.assert_allclose(P.apply_inverse(v), np.linalg.solve(P_dense, v), rtol=1e-10)
        assert eliminated == {True, False}

    @pytest.mark.parametrize("dense_solve_max", [precond.DENSE_SOLVE_MAX, 0])
    def test_schur_direct_keeps_either_colour(self, monkeypatch, dense_solve_max):
        # Every affine direct class is solved through the factor of its
        # Schur complement, which keeps the smaller colour: the star classes
        # (r >= 2, d = 1: a tail's lowest block and its r neighbours) keep
        # the even colour {0}, the Legendre chains (r = 1, d = 2, 3) the odd
        # one.  S keeps its LAPACK Cholesky factor and forms no inverse,
        # also where DENSE_SOLVE_MAX 0 sends every CholeskyFactor that is
        # not full to SuperLU.  The lognormal classes, whose Hermite G have
        # diagonals, keep their assembled factors.
        monkeypatch.setattr(precond, "DENSE_SOLVE_MAX", dense_solve_max)
        if not dense_solve_max:
            superlu_only(monkeypatch)
        op, _, _ = tiny_affine(M=4, k=3)
        kept = {}
        for r in (1, 2, 3):
            P = build_trunc_exact(k0_factor(op), op.leading(r))
            assert not nested_operators(P)
            for (idx, _), S in zip(P._parts, part_solvers(P)):
                if isinstance(S, precond._SchurComplement):
                    kept[r, idx.shape[1]] = S.keep.tolist()
                    L, S_dense = S._S_L, S._assemble()
                    assert np.array_equal(L, np.tril(L)) and np.all(np.diag(L) > 0.0)
                    assert np.linalg.norm(L @ L.T - S_dense) <= 1e-12 * np.linalg.norm(S_dense)
            v = np.random.default_rng(r).standard_normal(op.dim)
            ref = np.linalg.solve(assemble_dense(op.leading(r)), v)
            assert np.linalg.norm(P.apply_inverse(v) - ref) <= 1e-10 * np.linalg.norm(ref)
        assert kept[1, 3] == [1] and kept[1, 4] == [1, 3]  # chains, d = 2, 3
        assert kept[2, 3] == [0] and kept[3, 4] == [0]  # stars, d = 1
        log, _, _ = tiny_lognormal()
        P = build_trunc_exact(k0_factor(log), log.leading(4))
        assert {type(factor) for factor in part_solvers(P)} == {CholeskyFactor}

    def test_reduced_solve_true_residual(self, monkeypatch):
        # The reduced CG's residual is the full one on the kept colour, the
        # other being eliminated exactly, so it stops at the first step at
        # which ||b - P_r z|| <= INNER_TOL ||b||, and no earlier.  Checked
        # with a random b, and with one whose kept rows nearly cancel the
        # eliminated ones' coupling (C D^{-1} b_e plus 1e-4 of noise): its
        # reduced right-hand side f is over 1000 times shorter than b, which
        # moves the stopping step, and puts the scaled tolerance above the
        # stall threshold 1e-10 on the reduced residual.  b lies on the
        # components of the nested class with the most of them, whose CG is
        # then the only one that runs.
        op, _, _ = tiny_affine(M=4, k=3)
        monkeypatch.setattr(precond, "TRUNC_DIRECT_GUARD", 0)
        pairs = op.leading(2)
        P = build_trunc_exact(k0_factor(op), pairs)
        (idx, _), S = max(((part, S) for part, S in zip(P._parts, part_solvers(P))
                           if isinstance(S, precond._SchurComplement)), key=lambda ps: len(ps[0][0]))
        assert len(idx) > 1 and S._S_L is None
        calls = []

        def recorded(A, M, f, cfg):
            z, rep = pcg_solve(A, M, f, cfg)
            if f.any():
                calls.append((np.linalg.norm(f), rep.residual_history))
            return z, rep

        monkeypatch.setattr(precond, "_inner_solve", recorded)
        rng = np.random.default_rng(3)
        P_dense = assemble_dense(pairs)
        kept, elim = ((idx[:, b, None] * op.nx + np.arange(op.nx)).ravel() for b in (S.keep, S.elim))
        rows = np.union1d(kept, elim)
        random = np.zeros(op.dim)
        random[rows] = rng.standard_normal(len(rows))
        cancelled = np.zeros(op.dim)
        cancelled[elim] = rng.standard_normal(len(elim))
        x_elim = np.linalg.solve(P_dense[np.ix_(elim, elim)], cancelled[elim])
        cancelled[kept] = P_dense[np.ix_(kept, elim)] @ x_elim
        cancelled[kept] += 1e-4 * rng.standard_normal(len(kept))
        for b in (random, cancelled):
            residual = b - P_dense @ P.apply_inverse(b)
            assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(b)
            f_norm, history = calls.pop()
            full = np.array(history) * f_norm / np.linalg.norm(b)
            assert full[-1] <= precond.INNER_TOL < full[-2]
        assert f_norm < 1e-3 * np.linalg.norm(b)

    @pytest.mark.parametrize("cut", [0, 1])
    def test_sbgs_built_only_for_the_lognormal_nested_blocks(self, monkeypatch, cut):
        # The affine nested blocks are 2-cyclic and take the reduced solve;
        # the lognormal ones (Hermite diagonals) keep SBGS-PCG.
        built = []
        init = precond.PairBlockSbgs.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(precond.PairBlockSbgs, "__init__", counted)
        op, _, _ = tiny_affine(M=4, k=3)
        monkeypatch.setattr(precond, "TRUNC_DIRECT_GUARD", cut * op.nx)
        for r in range(5):
            for classes in (None, op.parity_classes(r)):
                P = build_trunc_exact(k0_factor(op), op.leading(r), classes)
                P.apply_inverse(np.ones(op.dim))
        assert not built
        op, _, _ = tiny_lognormal()
        monkeypatch.setattr(precond, "TRUNC_DIRECT_GUARD", op.nx)
        build_trunc_exact(k0_factor(op), op.leading(4))
        assert built

    def test_indefinite_truncation_rejected_direct(self):
        op, _, _ = tiny_lognormal()
        pairs = op.leading(1)
        with pytest.raises(NotPositiveDefiniteError):
            build_trunc_exact(k0_factor(op), pairs)

    def test_indefinite_schur_direct_rejected(self):
        # An affine class with its couplings scaled tenfold is indefinite,
        # and the direct Schur complement of its kept colour meets a
        # non-positive pivot: refused as not positive definite.
        op, _, _ = tiny_affine(M=4, k=3)
        pairs = kronsys.PairList(op.leading(2))
        Ks = [K for _, K in pairs]
        idx, (term, rows, cols, vals), colour = next(
            part for part in precond._tail_blocks(pairs) if part[1][0].any()
        )
        block = (term, rows, cols, np.where(term > 0, 10.0 * vals, vals))
        c = idx.shape[1]
        assert np.linalg.eigvalsh(assemble_dense(precond._pairs(block, Ks, c)))[0] < 0.0
        with pytest.raises(NotPositiveDefiniteError, match="non-positive pivot"):
            precond._SchurComplement(block, Ks, colour, k0_factor(op), direct=True)


AFFINE_CELL = grid.Cell("affine", "", 2.0, auto_alpha_bar(2.0), 3, 4, 3, 6)
LOGNORMAL_CELL = grid.Cell("lognormal", "", 2.0, verify.LOGNORMAL_ALPHA_BAR, 2, 3, 3, 6)
ALL_FAMILIES = ([("mean", None), ("kron", None)] + [("trunc_exact", r) for r in range(5)]
                + [("sbgs", r) for r in range(1, 5)])


@pytest.mark.parametrize("cell, preconds, cut, inner", [
    (AFFINE_CELL, ALL_FAMILIES, None, "_SchurComplement"),
    (AFFINE_CELL, ALL_FAMILIES, 1, "_SchurComplement"),
    (LOGNORMAL_CELL, [("trunc_exact", 4), ("sbgs", 4)], 1, "KroneckerSumOperator"),
], ids=["affine", "affine-cut", "lognormal-cut"])
def test_one_k0_factorization_per_cell(monkeypatch, cell, preconds, cut, inner):
    # Every family takes the cell's K_0 factor, so a cell factors K_0 once:
    # also trunc_exact's I (x) K_0 tail blocks, the D = I (x) K_0 of its
    # Schur parts and the K_0 diagonal blocks of its nested SBGS (the parts
    # a cutoff of one parametric index per block, cut 1, forms).
    op, _, _ = cell.build()
    K0 = op.terms[0][1]
    if cut:
        monkeypatch.setattr(precond, "TRUNC_DIRECT_GUARD", cut * op.nx)
    built, truncs = [], []
    init, trunc_init = CholeskyFactor.__init__, precond.TruncExactPreconditioner.__init__

    def recorded(self, K, *args, **kwargs):
        assert sp.issparse(K)  # the run path factors no dense array
        K = sp.csr_matrix(K)
        if K.shape == K0.shape and not abs(K - K0).max():
            built.append(K)
        init(self, K, *args, **kwargs)

    def kept(self, *args):
        trunc_init(self, *args)
        truncs.append(self)

    monkeypatch.setattr(CholeskyFactor, "__init__", recorded)
    monkeypatch.setattr(precond.TruncExactPreconditioner, "__init__", kept)
    rows = list(grid.solve_cell(cell, preconds, SolverConfig()))
    assert [row.precond for row in rows] == [kind for kind, _ in preconds]
    assert {type(A).__name__ for P in truncs for A in nested_operators(P)} == {inner}
    assert len(built) == 1


@pytest.mark.parametrize("cell", [AFFINE_CELL, LOGNORMAL_CELL], ids=["affine", "lognormal"])
def test_mean_is_trunc_exact_zero(cell):
    # mean is P_0: its rows and trunc_exact 0's run the same solve, bit for bit.
    mean, trunc = grid.solve_cell(cell, [("mean", None), ("trunc_exact", 0)], SolverConfig())
    assert mean.converged and mean.iterations > 1
    assert (mean.iterations, mean.converged, mean.final_relres) == (
        trunc.iterations, trunc.converged, trunc.final_relres)


def test_cell_store_makes_each_product_and_factor_once(monkeypatch):
    # A cell's K_0 factor holds the spatial set-up its rows share: each
    # K_a K_0^{-1} K_b of the Schur classes is made once, though rows and
    # classes ask for it many times; the lognormal k = 2 cell (the lognormal
    # workload's M 6, N 20) factors 2 SBGS diagonal blocks for sbgs 1..6,
    # where the rows hold 10; and the store goes with its cell once
    # solve_cell has moved on to the next cell.
    lognormal = grid.Cell("lognormal", "", 2.0, verify.LOGNORMAL_ALPHA_BAR, 2, 6, 2, 20)
    asked, made, entries, cells, distinct, factored = [], [], [], [], [], []
    shared, build, init = CholeskyFactor.shared, grid.build_preconditioner, CholeskyFactor.__init__

    def sharing(self, key, Ks, make):
        at = (key, *map(id, Ks))
        asked.append(at)
        entry = shared(self, key, Ks, lambda: made.append(at) or make())
        if key == "schur":
            entries.append(weakref.ref(entry))
        return entry

    def building(kind, r, op, K0_factor):
        cells.append(weakref.ref(K0_factor()))
        assert len({id(cell()) for cell in cells if cell()}) == 1  # one per cell, and alive
        P = build(kind, r, op, K0_factor)
        if kind == "sbgs":
            distinct.append(P.distinct_factor_count)
        return P

    def factoring(self, K):
        init(self, K)
        factored.append(K.shape)

    monkeypatch.setattr(CholeskyFactor, "shared", sharing)
    monkeypatch.setattr(grid, "build_preconditioner", building)
    rows = grid.solve_cell(AFFINE_CELL, [("trunc_exact", r) for r in range(5)], SolverConfig())
    assert all(row.converged for row in rows)
    products = [at for at in made if at[0] == "schur"]
    assert len(set(products)) == len(products) > 0
    assert sum(at[0] == "schur" for at in asked) > 2 * len(products)
    assert len({at for at in made if at[0] == "stacks"}) == 4  # one per r = 1..4

    made.clear()
    distinct.clear()
    monkeypatch.setattr(CholeskyFactor, "__init__", factoring)
    rows = grid.solve_cell(lognormal, [("sbgs", r) for r in range(1, 7)], SolverConfig())
    next(rows)
    assert len(cells) == 6 and cells[0]() is None  # the affine cell's factor, and its store
    assert entries and not any(entry() for entry in entries)
    assert all(row.converged for row in rows)
    assert len(distinct) == 6 and sum(n - 1 for n in distinct) == 10
    assert len(made) == 2 and len(factored) == 1 + 2  # K_0, then the two distinct D_jj


class ContractOperator:
    """What the run path may ask of an operator, and no ``terms``."""

    def __init__(self, op):
        self.dim, self.matvec = op.dim, op.matvec  # no ny, nx: the pairs carry them
        self.skips_leading_terms = op.skips_leading_terms
        self.leading = lambda r: op.leading(r)
        self.parity_classes = lambda r: op.parity_classes(r)
        self.kron_factor = lambda: op.kron_factor()


@pytest.mark.parametrize("cell, preconds", [
    (grid.Cell("affine", "", 2.0, auto_alpha_bar(2.0), 2, 3, 2, 6),
     [("mean", None), ("kron", None)] + [("trunc_exact", r) for r in range(5)]
     + [("sbgs", r) for r in range(1, 4)]),
    (grid.Cell("lognormal", "", 2.0, verify.LOGNORMAL_ALPHA_BAR, 2, 3, 2, 6),
     [("kron", None), ("mean", None), ("trunc_exact", 3), ("sbgs", 3)]),
], ids=["affine", "lognormal"])
def test_run_path_reads_only_the_operator_contract(monkeypatch, cell, preconds):
    # grid.solve_cell on an operator that has leading, parity_classes and
    # kron_factor but no term list gives the rows of the real operator.
    op, f, ctx = cell.build()
    rows = list(grid.solve_cell(cell, preconds, SolverConfig()))
    monkeypatch.setattr(grid.Cell, "build", lambda self: (ContractOperator(op), f, ctx))
    contract = list(grid.solve_cell(cell, preconds, SolverConfig()))
    untimed = [row._replace(setup_s=0.0, solve_s=0.0) for row in rows]
    assert [row._replace(setup_s=0.0, solve_s=0.0) for row in contract] == untimed


class TestLeadProduct:
    """apply_lead(v, cls) gives z = P^{-1} v, as apply_inverse does, and
    P_lead z, the product of P's ``lead`` leading terms with it, which PCG
    takes in place of those terms' operator product: by the assembled
    op.leading(r), to 1e-12 relative, with and without a class."""

    @pytest.mark.parametrize("problem, kind, r, cut, path", [
        ("affine", "mean", 0, None, "mean"),
        ("affine", "trunc_exact", 2, None, "schur direct"),
        ("affine", "trunc_exact", 2, 0, "nested"),
        ("affine", "trunc_exact", 4, None, "whole"),
        ("affine", "sbgs", 3, None, "levels"),
        ("lognormal", "trunc_exact", 3, None, "direct"),
        ("lognormal", "trunc_exact", 3, 0, "nested"),
        ("lognormal", "sbgs", 5, None, "levels"),
    ])
    def test_equals_dense_leading_product(self, monkeypatch, problem, kind, r, cut, path):
        if cut is not None:
            monkeypatch.setattr(precond, "TRUNC_DIRECT_GUARD", cut)
        op, _, _ = SmallConfig(problem, 2, 4, 3, N=6).build()
        P = verify._preconditioner(kind, op, r)
        assert P.lead == len(op.leading(r))
        if path == "schur direct":
            assert any(isinstance(S, precond._SchurComplement) and S._S_L is not None
                       for S in part_solvers(P))
        elif path == "nested":
            assert nested_operators(P)
        elif path == "levels":
            assert len(P._levels) >= 3
        classes = getattr(P, "classes", None)
        A_lead = assemble_dense(op.leading(r))
        v = np.random.default_rng(r).standard_normal(op.dim)
        for cls in (None,) if classes is None else (None, 0, 1):
            z, Pz = P.apply_lead(v, cls)
            np.testing.assert_array_equal(z, P.apply_inverse(v, *(() if cls is None else (cls,))))
            want = A_lead @ z
            assert np.linalg.norm(Pz - want) <= 1e-12 * np.linalg.norm(want), (cls, path)

    @pytest.mark.parametrize("M, k", [(3, 2), (3, 3), (4, 2), (4, 3)])
    def test_nested_sbgs_takes_the_lead_from_its_sweeps(self, monkeypatch, M, k):
        # trunc_exact's nested SBGS holds every restricted pair, so its
        # operator, that very truncation, is asked for the empty tail only,
        # and the nested apply still solves P_r to 1e-12 (below 1e-13 seen).
        # An r that `spectrum` marks n/a is skipped; at r = 1 the one coupling
        # term 2-colours the blocks, which take the reduced solve instead.
        monkeypatch.setattr(precond, "TRUNC_DIRECT_GUARD", 0)
        op, _, _ = tiny_lognormal(M=M, k=k)
        calls, matvec = [], KroneckerSumOperator.matvec

        def recorded(self, v, blocks=None, first=0):
            calls.append((self, blocks, first))
            return matvec(self, v, blocks, first)

        monkeypatch.setattr(KroneckerSumOperator, "matvec", recorded)
        rs = [row.r for row in spectral.lognormal_spd_report(op, range(1, 9))
              if row.claim == "trunc_spd" and row.applicable]
        sbgs_rows = 0
        for r in rs:
            P = verify._preconditioner("trunc_exact", op, r)
            v = np.random.default_rng(r).standard_normal(op.dim)
            calls.clear()
            z = P.apply_inverse(v)
            res = np.linalg.norm(v - kronsys.assemble_sparse(op.leading(r)) @ z)
            assert res <= 1e-12 * np.linalg.norm(v), r
            nested = [S for S in part_solvers(P) if isinstance(S, tuple)]
            for inner_op, inner in nested:
                assert inner.lead == len(inner_op.terms), r
            asked = {(id(A), blocks is None, first) for A, blocks, first in calls}
            assert asked == {(id(A), True, inner.lead) for A, inner in nested}, r
            sbgs_rows += bool(nested)
        assert sbgs_rows >= len(rs) - 1


class TestSbgsAffine:
    def test_reuses_callers_k0_factor(self, monkeypatch):
        op, _, _ = tiny_affine()
        K0_factor = k0_factor(op)
        built = []
        init = CholeskyFactor.__init__

        def counting_init(self, K):
            built.append(K)
            init(self, K)

        monkeypatch.setattr(CholeskyFactor, "__init__", counting_init)
        P = build_sbgs(K0_factor, op.terms)
        assert P.distinct_factor_count == 1
        assert built == []

    def test_rhs_is_keyword_only(self):
        # The second positional argument of the other families is a class.
        op, _, _ = tiny_affine()
        P = build_sbgs(k0_factor(op), op.leading(2))
        with pytest.raises(TypeError):
            P.apply_inverse(np.ones(op.dim), 0)

    def test_empty_terms_reduce_to_mean(self):
        op, _, _ = tiny_affine()
        K0 = k0_factor(op)
        P_sbgs = build_sbgs(K0, op.terms[:1])
        P_mean = build_mean_based(K0, op.leading(0))
        rng = np.random.default_rng(42)
        v = rng.standard_normal(op.dim)
        np.testing.assert_allclose(
            P_sbgs.apply_inverse(v), P_mean.apply_inverse(v), rtol=1e-12
        )

    def test_spectrum_above_truncation(self):
        # Lambda(P_r^{-1} P_tilde_r) sits in [1, 1 + delta_r].
        from sgkron.spectral import affine_bounds, eig_range

        op, _, ctx = tiny_affine()
        r = 2
        P_r = assemble_dense(op.terms[: r + 1])
        P = build_sbgs(k0_factor(op), op.terms[: r + 1])
        P_tilde = np.linalg.inv(dense_apply_inverse(P, op.dim))
        lo, hi = eig_range(P_r, P_tilde)
        bounds = affine_bounds(ctx, r)
        assert lo >= 1.0 - 1e-8
        assert hi <= 1.0 + bounds.delta_r + 1e-8


class TestSbgsLognormal:
    def test_reuses_callers_k0_factor(self, monkeypatch):
        # The blocks whose diagonal comes from the zero multi-index term
        # alone (block 0 at least) are exactly K_0: the caller's factor
        # serves them, and only the other signatures are factorized, each
        # once per K_0 factor: a build given a fresh factor makes all of its
        # own, one given the factor of the builds before only the new ones.
        op, _, _ = tiny_lognormal()
        K0 = op.terms[0][1]
        fresh, shared = {r: CholeskyFactor(K0) for r in (1, 3, 6)}, CholeskyFactor(K0)
        built, seen = [], set()
        init = CholeskyFactor.__init__

        def counting_init(self, K):
            built.append(K)
            init(self, K)

        monkeypatch.setattr(CholeskyFactor, "__init__", counting_init)
        for r in (1, 3, 6):
            built.clear()
            P = build_sbgs(fresh[r], op.leading(r))
            assert len(built) == P.distinct_factor_count - 1
            assert all(abs(D - K0).max() > 0 for D in built)
            diagonals = np.array([G.diagonal() for G, _ in op.leading(r)]).T
            signatures = {tuple((ell, d[ell]) for ell in np.flatnonzero(d)) for d in diagonals}
            assert len(signatures) == P.distinct_factor_count
            built.clear()
            build_sbgs(shared, op.leading(r))
            assert len(built) == len(signatures - seen - {((0, 1.0),)})
            seen |= signatures

    def test_dense_identity(self):
        op, _, _ = tiny_lognormal()
        for r in (3, 4):
            pairs = op.leading(r)
            # At r = 4 the term alpha = (1, 1, 0) couples one block to two
            # lower sources, so a sweep step meets one target twice per term.
            max_row_couplings = max(
                np.diff(sp.tril(G, k=-1).tocsr().indptr).max() for G, _ in pairs
            )
            assert max_row_couplings == (2 if r == 4 else 1)
            verify.prop_precond_dense_formula(SmallConfig("lognormal", k=3, r=r))

    def test_backward_sweep_solves_receiving_blocks_only(self, monkeypatch):
        # The forward sweep solves every block once, the backward sweep only
        # the blocks a backward coupling lands on: the sources of L.
        op, _, _ = tiny_lognormal()
        x = np.random.default_rng(42).standard_normal(op.dim)
        cols = []
        solve = CholeskyFactor.solve

        def counting(self, b):
            cols.append(1 if b.ndim == 1 else b.shape[1])
            return solve(self, b)

        monkeypatch.setattr(CholeskyFactor, "solve", counting)
        for r in (1, 4):
            pairs = op.leading(r)
            P = build_sbgs(k0_factor(op), pairs)
            lower = [sp.tril(G, k=-1).tocoo() for G, _ in pairs]
            receiving = np.unique(np.concatenate([L.col for L in lower]))
            assert 0 < len(receiving) < op.ny
            cols.clear()
            P.apply_inverse(x)
            assert sum(cols) == op.ny + len(receiving)

    def test_spd_even_when_truncation_is_not(self):
        # At k=3 the two-term truncation is indefinite, its splitting is not.
        op, _, _ = tiny_lognormal()
        pairs = op.leading(1)
        P_r = assemble_dense(pairs)
        assert np.linalg.eigvalsh(P_r).min() < 0

        P = build_sbgs(k0_factor(op), pairs)
        P_tilde = np.linalg.inv(dense_apply_inverse(P, op.dim))
        P_tilde = 0.5 * (P_tilde + P_tilde.T)
        assert np.linalg.eigvalsh(P_tilde).min() > 0

    def test_requires_zero_lead(self):
        op, _, _ = tiny_lognormal()
        pairs = op.leading(2)
        with pytest.raises(ValueError):
            build_sbgs(k0_factor(op), pairs[1:])
        with pytest.raises(ValueError):
            build_sbgs(k0_factor(op), [])

    def test_refuses_indefinite_diagonal_block(self):
        # D_11 = K_0 - 2 K_0 = -K_0; blocks 0 and 2 are the caller's K_0.
        K0 = assemble_stiffness(build_mesh(2), fourier_coefficient(0, 2.0, 0.547))
        pairs = [(sp.identity(3, format="csr"), K0), (sp.diags([0.0, 1.0, 0.0]).tocsr(), -2.0 * K0)]
        with pytest.raises(NotPositiveDefiniteError, match="diagonal block 1"):
            PairBlockSbgs(pairs, CholeskyFactor(K0))

    def test_factor_cache_bounded(self):
        op, _, _ = tiny_lognormal()
        P = build_sbgs(k0_factor(op), op.leading(4))
        assert 1 <= P.distinct_factor_count <= op.ny

    def test_solves_system(self):
        op, f, _ = tiny_lognormal(k=2)
        P = build_sbgs(k0_factor(op), op.leading(2))
        x, report = pcg_solve(op, P, f)
        assert report.converged
        np.testing.assert_allclose(op.matvec(x), f, atol=1e-5 * np.linalg.norm(f))


class TestShapeFromPairs:
    """Every engine reads ny off its lead G (or v) and nx off the K_0 factor."""

    ENGINES = [
        lambda K0, pairs: TruncExactPreconditioner(K0, pairs),
        lambda K0, pairs: build_trunc_exact(K0, pairs),
        lambda K0, pairs: PairBlockSbgs(pairs, K0),
        lambda K0, pairs: build_sbgs(K0, pairs),
    ]

    IDS = ["TruncExactPreconditioner", "build_trunc_exact", "PairBlockSbgs", "build_sbgs"]

    @pytest.mark.parametrize("make", ENGINES, ids=IDS)
    def test_refuses_empty_pairs(self, make):
        op, _, _ = tiny_affine()
        with pytest.raises(ValueError):
            make(k0_factor(op), [])

    @pytest.mark.parametrize("make", ENGINES, ids=IDS)
    def test_refuses_k0_factor_of_another_order(self, make):
        op, _, _ = tiny_affine()
        with pytest.raises(ValueError, match="order"):
            make(CholeskyFactor(sp.identity(op.nx + 1)), op.leading(2))

    @pytest.mark.parametrize("make", ENGINES, ids=IDS)
    @pytest.mark.parametrize("problem", [tiny_affine, tiny_lognormal])
    def test_refuses_pairs_not_led_by_identity(self, make, problem):
        op, _, _ = problem()
        with pytest.raises(ValueError, match=r"led by I \(x\) K_0"):
            make(k0_factor(op), op.leading(2)[1:])

    def test_operator_refuses_no_terms(self):
        with pytest.raises(ValueError):
            KroneckerSumOperator(())

    def test_no_callable_takes_ny_or_nx(self):
        callables = [
            KroneckerSumOperator, precond._tail_blocks,
            precond.MeanBasedPreconditioner, build_mean_based,
            TruncExactPreconditioner, build_trunc_exact, PairBlockSbgs, build_sbgs,
        ]
        for fn in callables:
            assert not {"ny", "nx"} & set(inspect.signature(fn).parameters), fn

    def test_sbgs_deep_chain_matches_triangular_solves(self):
        # Level 1, M = 1, k = 20,000: nx = 1 and G_1 tridiagonal, so each block
        # is a level of its own, 20,001 of them.
        op, _, _ = SmallConfig("affine", 1, 1, 20000).build()
        pairs = op.leading(1)
        P = build_sbgs(k0_factor(op), pairs)
        assert len(P._levels) == op.ny == 20001
        D = kronsys.assemble_sparse([(sp.diags(G.diagonal()), K) for G, K in pairs]).tocsr()
        L = kronsys.assemble_sparse([(sp.tril(G, -1), K) for G, K in pairs]).tocsr()
        v = np.random.default_rng(7).standard_normal(op.dim)
        w = spla.spsolve_triangular(D + L, v, lower=True)
        z = spla.spsolve_triangular((D + L.T).tocsr(), D @ w, lower=False)
        out = P.apply_inverse(v)
        assert np.linalg.norm(out - z) <= 1e-12 * np.linalg.norm(z)


class TestReadOnlyInput:
    @pytest.mark.parametrize("dense_solve_max", [precond.DENSE_SOLVE_MAX, 0])
    def test_inputs_stay_unchanged(self, monkeypatch, dense_solve_max):
        # matvec and every apply_inverse read their input through the row
        # view v.reshape(ny, nx), which aliases the caller's PCG vector: a
        # read-only input must work, on every spatial-solve path, and come
        # back as a new flat vector equal to the one a writable input gives.
        # The tiny systems' K_0, D_jj and blocks are all below SINE_SOLVE_MIN,
        # so they take the dense or the SuperLU path by the cutoff; the
        # Laplacian path is checked in test_laplacian_k0_takes_the_sine_path.
        monkeypatch.setattr(precond, "DENSE_SOLVE_MAX", dense_solve_max)
        if not dense_solve_max:
            superlu_only(monkeypatch)
        aff, _, _ = tiny_affine()
        log, _, _ = tiny_lognormal()
        log_pairs = log.leading(4)
        aff_K0, log_K0 = k0_factor(aff), k0_factor(log)
        cases = [
            (aff, aff.matvec),
            (log, log.matvec),
            (aff, build_mean_based(aff_K0, aff.leading(0)).apply_inverse),
            (aff, build_kron(aff, aff_K0).apply_inverse),
            (aff, build_trunc_exact(aff_K0, aff.terms[:3]).apply_inverse),
            (log, build_trunc_exact(log_K0, log_pairs).apply_inverse),
            (aff, build_sbgs(aff_K0, aff.terms[:3]).apply_inverse),
            (log, build_sbgs(log_K0, log_pairs).apply_inverse),
        ]
        monkeypatch.setattr(precond, "TRUNC_DIRECT_GUARD", 1)  # the nested path
        for op, K0, pairs in ((aff, aff_K0, aff.terms[:3]), (log, log_K0, log_pairs)):
            P = build_trunc_exact(K0, pairs)
            # Only the I (x) K_0 classes, which take K0 at any size, stay direct.
            assert sum(s is not K0 for s in part_solvers(P)) == len(nested_operators(P)) > 0
            cases.append((op, P.apply_inverse))
        for op, apply in cases:
            v = np.random.default_rng(42).standard_normal(op.dim)
            expected = apply(v.copy())
            v.setflags(write=False)
            out = apply(v)
            assert out.shape == (op.dim,)
            assert not np.shares_memory(out, v)
            np.testing.assert_array_equal(out, expected)
