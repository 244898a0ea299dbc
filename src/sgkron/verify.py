"""Self-contained property suite run by ``sgkron verify``.

Each property re-checks one module invariant at small scale against an
independent oracle (quadrature, dense algebra, brute-force enumeration).
The suite is deliberately cheap: the full run takes well under a minute.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import fem2d, gram, kronsys, multiindex, orthopoly, pcg, precond, spectral

RNG_SEED = 42


@dataclass
class PropertyResult:
    name: str
    passed: bool
    seconds: float
    message: str = ""


def _tiny_affine(level=2, M=3, k=2, sigma_tilde=2.0):
    mesh = fem2d.build_mesh(level)
    return kronsys.build_affine_system(mesh, M=M, k=k, sigma_tilde=sigma_tilde)


# ---------------------------------------------------------------------------
# multiindex


def prop_index_set_cardinality():
    for M in (1, 2, 4, 8):
        for k in (0, 1, 3, 6):
            S = multiindex.build_index_set(M, k)
            assert len(S) == math.comb(M + k, k), (M, k, len(S))
            degs = [sum(a) for a in S]
            assert degs == sorted(degs), "degree-ascending order violated"
            assert S[0] == (0,) * M, "zero index must lead"
            for j, alpha in enumerate(S):
                assert S.position(alpha) == j, "position bijection broken"
            # per-degree counts match stars-and-bars
            for j in range(k + 1):
                expected = math.comb(j + M - 1, M - 1)
                assert degs.count(j) == expected, (M, k, j)


def prop_index_set_even_subset():
    S = multiindex.build_index_set(3, 4)
    even = multiindex.build_even_subset(S)
    brute = [i for i, a in enumerate(S) if all(e % 2 == 0 for e in a)]
    assert even == brute


# ---------------------------------------------------------------------------
# orthopoly


def _legendre_rule(n=40):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w / 2.0


def _hermite_rule(n=60):
    x, w = np.polynomial.hermite_e.hermegauss(n)
    return x, w / math.sqrt(2.0 * math.pi)


def prop_orthonormality():
    for family, (x, w) in (
        (orthopoly.LEGENDRE, _legendre_rule()),
        (orthopoly.HERMITE, _hermite_rule()),
    ):
        vals = np.array([orthopoly.evaluate(family, j, x) for j in range(13)])
        gramm = (vals * w) @ vals.T
        assert np.max(np.abs(gramm - np.eye(13))) < 1e-10, family


def prop_recurrence_constants():
    for j in range(1, 65):
        c = orthopoly.recurrence_c(orthopoly.LEGENDRE, j)
        assert 0.0 < c <= 1.0, (j, c)
        assert abs(orthopoly.recurrence_c(orthopoly.HERMITE, j) - math.sqrt(j)) < 1e-12


def prop_hermite_triple_quadrature():
    x, w = _hermite_rule(80)
    for i in range(5):
        for j in range(5):
            for ell in range(5):
                num = float(
                    np.sum(
                        w
                        * orthopoly.evaluate(orthopoly.HERMITE, i, x)
                        * orthopoly.evaluate(orthopoly.HERMITE, j, x)
                        * orthopoly.evaluate(orthopoly.HERMITE, ell, x)
                    )
                )
                assert abs(num - orthopoly.hermite_triple(i, j, ell)) < 1e-9


# ---------------------------------------------------------------------------
# gram


def prop_gram_structure():
    for M in (2, 8):
        for k in (2, 6):
            S = multiindex.build_index_set(M, k)
            for m in range(1, M + 1):
                G = gram.gram_linear(m, S, orthopoly.LEGENDRE)
                nnz_row = np.diff(G.indptr)
                assert nnz_row.max() <= 2, "more than two entries in a row"
                assert np.all(G.diagonal() == 0.0)
                skew = G - G.T
                assert skew.nnz == 0 or np.max(np.abs(skew.data)) == 0.0
                L = gram.split_lower(G)
                assert np.max(np.abs((L + L.T - G).toarray())) == 0.0
                assert np.diff(L.indptr).max(initial=0) <= 1
                assert np.diff(L.tocsc().indptr).max(initial=0) <= 1


def prop_gram_vs_quadrature():
    M, k = 2, 2
    S = multiindex.build_index_set(M, k)
    x, w = _legendre_rule(20)
    vals = np.array([orthopoly.evaluate(orthopoly.LEGENDRE, j, x) for j in range(k + 2)])
    for m in (1, 2):
        G = gram.gram_linear(m, S, orthopoly.LEGENDRE).toarray()
        for t, at in enumerate(S):
            for j, aj in enumerate(S):
                facs = []
                for mm in range(M):
                    f = vals[at[mm]] * vals[aj[mm]]
                    if mm == m - 1:
                        f = f * x
                    facs.append(float(np.sum(w * f)))
                assert abs(G[t, j] - math.prod(facs)) < 1e-12


def prop_gram_general_diagonal_parity():
    M, k = 3, 2
    S = multiindex.build_index_set(M, k)
    S2 = multiindex.build_index_set(M, 2 * k)
    for alpha in S2:
        G = gram.gram_general(alpha, S)
        if any(e % 2 for e in alpha):
            assert np.all(G.diagonal() == 0.0), alpha
        assert G.nnz == 0 or G.data.min() >= 0.0, "negative triple product"


# ---------------------------------------------------------------------------
# fem2d


def prop_stiffness_reference_values():
    mesh = fem2d.build_mesh(1)
    K = fem2d.assemble_stiffness(mesh, fem2d.constant_field(1.0)).toarray()
    assert abs(K[0, 0] - 8.0 / 3.0) < 1e-13
    mesh2 = fem2d.build_mesh(2)
    K2 = fem2d.assemble_stiffness(mesh2, fem2d.constant_field(1.0)).toarray()
    assert abs(K2[4, 4] - 8.0 / 3.0) < 1e-13
    assert abs(K2[4, 1] + 1.0 / 3.0) < 1e-13
    assert abs(K2[4, 0] + 1.0 / 3.0) < 1e-13
    f = fem2d.assemble_load(mesh2)
    assert np.allclose(f, mesh2.h**2)


def prop_stiffness_spd_and_linear():
    mesh = fem2d.build_mesh(3)
    a = fem2d.fourier_coefficient(1, 2.0, 0.5)
    K0 = fem2d.assemble_stiffness(mesh, fem2d.constant_field(1.0))
    K1 = fem2d.assemble_stiffness(mesh, a)
    shifted = fem2d.CoefficientField(
        lambda x1, x2: 1.0 + a(x1, x2), "1 + " + a.descriptor
    )
    Ks = fem2d.assemble_stiffness(mesh, shifted)
    assert np.max(np.abs((K0 + K1 - Ks).toarray())) < 1e-12
    precond.factor_spd(K0)


def prop_frequency_pairs():
    seen = set()
    for m in range(1, 37):
        b1, b2 = fem2d.frequency_pair(m)
        assert b1 >= 0 and b2 >= 0
        assert (b1, b2) not in seen
        seen.add((b1, b2))
    assert fem2d.frequency_pair(1) == (0, 1)
    assert fem2d.frequency_pair(2) == (1, 0)
    assert fem2d.frequency_pair(3) == (0, 2)


def prop_tau_monotone():
    fields = [fem2d.fourier_coefficient(m, 2.0, 0.6) for m in range(1, 7)]
    _, taus = fem2d.sup_norm_tables(fields, 1.0)
    assert taus[0] == 0.0
    assert all(b >= a for a, b in zip(taus, taus[1:]))


def prop_lognormal_coeff_quadrature():
    x, w = _hermite_rule(80)
    fields = [fem2d.fourier_coefficient(m, 2.0, 0.547) for m in range(1, 5)]
    pt = (0.3, 0.7)
    bvals = [f(*pt) for f in fields]
    for alpha in ((0, 0, 0, 0), (1, 0, 0, 0), (2, 1, 0, 0), (3, 0, 0, 0)):
        exact = fem2d.lognormal_expansion_coeff(alpha, fields, fem2d.constant_field(1.0))
        target = float(exact(*pt))
        quad = math.exp(1.0)
        for bm, am in zip(bvals, alpha):
            quad *= float(
                np.sum(w * np.exp(bm * x) * orthopoly.evaluate(orthopoly.HERMITE, am, x))
            )
        assert abs(quad - target) < 1e-10 * max(1.0, abs(target))


# ---------------------------------------------------------------------------
# kronsys


def prop_matvec_vs_dense():
    op, _, _ = _tiny_affine()
    A = kronsys.assemble_dense(op)
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(20):
        v = rng.standard_normal(op.dim)
        err = np.linalg.norm(op.matvec(v) - A @ v) / np.linalg.norm(A @ v)
        assert err < 1e-12
    assert np.max(np.abs(A - A.T)) < 1e-12


def prop_block_row_count():
    op, _, _ = _tiny_affine(M=4)
    ny = op.ny
    pattern = np.zeros((ny, ny), dtype=bool)
    for G, _ in op.terms:
        pattern |= G.toarray() != 0.0
    assert pattern.sum(axis=1).max() <= 2 * 4 + 1


def prop_load_structure():
    op, f, _ = _tiny_affine()
    nx = op.nx
    h = 0.25
    assert np.allclose(f[:nx], h * h)
    assert np.all(f[nx:] == 0.0)


# ---------------------------------------------------------------------------
# precond


def prop_cholesky_factor_roundtrip():
    import scipy.sparse as sp

    A = sp.csc_matrix(np.array([[4.0, 2.0], [2.0, 3.0]]))
    fac = precond.factor_spd(A)
    x = fac.solve(np.array([1.0, 1.0]))
    assert np.allclose(A @ x, [1.0, 1.0], atol=1e-13)
    try:
        precond.factor_spd(sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]])))
    except precond.NotPositiveDefiniteError:
        pass
    else:
        raise AssertionError("indefinite matrix accepted")


def prop_trunc_full_equals_system():
    op, _, _ = _tiny_affine()
    M = len(op.terms) - 1
    P = precond.build_trunc_exact(op.terms, M, op.ny, op.nx)
    A = kronsys.assemble_dense(op)
    rng = np.random.default_rng(RNG_SEED)
    v = rng.standard_normal(op.dim)
    assert np.linalg.norm(P.apply_inverse(A @ v) - v) < 1e-10 * np.linalg.norm(v)


def prop_sbgs_identity():
    op, _, _ = _tiny_affine()
    K0f = precond.factor_spd(op.terms[0][1])
    P = precond.build_sbgs_affine(K0f, op.terms[1:4], op.ny, op.nx)
    K0 = op.terms[0][1].toarray()
    P0 = np.kron(np.eye(op.ny), K0)
    Pr = spectral._dense_term_sum(op.terms[:4], op.nx)
    S = np.zeros_like(Pr)
    for G, K in op.terms[1:4]:
        S += np.kron(gram.split_lower(G).toarray(), K.toarray())
    dense = Pr + S @ np.linalg.solve(P0, S.T)
    rng = np.random.default_rng(RNG_SEED)
    v = rng.standard_normal(op.dim)
    assert np.linalg.norm(P.apply_inverse(dense @ v) - v) < 1e-10 * np.linalg.norm(v)


def prop_sbgs_lognormal_spd():
    mesh = fem2d.build_mesh(2)
    op, _, ctx = kronsys.build_lognormal_system(mesh, M=3, k=2, N=6, sigma_tilde=2.0, alpha_bar=0.547)
    report = spectral.lognormal_spd_report(ctx, op.nx, range(0, 4))
    for row in report:
        if row.claim == "sbgs_spd":
            assert row.passed, f"SBGS indefinite at r={row.r}"


def prop_kron_frobenius_lsq():
    op, _, _ = _tiny_affine()
    K0f = precond.factor_spd(op.terms[0][1])
    P = precond.build_kron(op.terms, K0f)
    # Brute-force oracle: entrywise Frobenius least squares over all of G,
    # g_jt = <A_jt, K0>_F / <K0, K0>_F on the dense block partition.
    A = kronsys.assemble_dense(op)
    K0 = op.terms[0][1].toarray()
    den = float(np.sum(K0 * K0))
    nx, ny = op.nx, op.ny
    G_best = np.empty((ny, ny))
    for j in range(ny):
        for t in range(ny):
            blk = A[j * nx : (j + 1) * nx, t * nx : (t + 1) * nx]
            G_best[j, t] = float(np.sum(blk * K0)) / den
    assert np.max(np.abs(P.G - G_best)) < 1e-10


# ---------------------------------------------------------------------------
# pcg


def prop_pcg_exact_preconditioner():
    op, f, _ = _tiny_affine()
    A = kronsys.assemble_dense(op)

    class DenseOp:
        dim = op.dim

        def matvec(self, v):
            return A @ v

    class ExactP:
        label = "exact"
        r = None

        def apply_inverse(self, v):
            return np.linalg.solve(A, v)

    u, report = pcg.pcg_solve(DenseOp(), ExactP(), f)
    assert report.iterations == 1 and report.converged
    zero_u, zero_rep = pcg.pcg_solve(DenseOp(), ExactP(), np.zeros_like(f))
    assert zero_rep.iterations == 0 and np.all(zero_u == 0.0)


def prop_pcg_deterministic():
    op, f, _ = _tiny_affine()
    P = precond.build_mean_based(op.terms[0][1], op.ny)
    u1, r1 = pcg.pcg_solve(op, P, f)
    u2, r2 = pcg.pcg_solve(op, P, f)
    assert np.array_equal(u1, u2)
    assert r1.residual_history == r2.residual_history


def prop_condition_estimate():
    op, f, _ = _tiny_affine()
    P = precond.build_mean_based(op.terms[0][1], op.ny)
    _, report = pcg.pcg_solve(op, P, f, pcg.SolverConfig(tol=1e-12))
    est = pcg.estimate_condition(report)
    A = kronsys.assemble_dense(op)
    P0 = np.kron(np.eye(op.ny), op.terms[0][1].toarray())
    w = spectral.eig_spectrum(P0, A)
    true_cond = w[-1] / w[0]
    assert 0.5 * true_cond < est < 1.5 * true_cond


# ---------------------------------------------------------------------------
# spectral


def prop_bound_formulas():
    bs = spectral.compute_bounds(0, 1.0, 1.0, tau=0.9999, tau_r=0.0)
    assert abs(bs.theta_r - 1e-4) < 1e-12
    assert abs(bs.Theta_r - 1.9999) < 1e-12
    assert bs.delta_r == 0.0
    fast = spectral.compute_bounds(1, 1.0, 1.0, tau=0.9999, tau_r=0.9239)
    assert abs(fast.delta_r - 0.9239**2 / (1 - 0.9239)) < 1e-12


def prop_inclusions_tiny():
    op, _, ctx = _tiny_affine()
    checks = spectral.verify_inclusions(op, ctx, r_values=range(0, 4))
    bad = [c for c in checks if not c.passed]
    assert not bad, f"failed inclusions: {[(c.claim, c.r) for c in bad]}"


PROPERTIES = [
    ("index_set_cardinality", prop_index_set_cardinality),
    ("index_set_even_subset", prop_index_set_even_subset),
    ("orthonormality", prop_orthonormality),
    ("recurrence_constants", prop_recurrence_constants),
    ("hermite_triple_quadrature", prop_hermite_triple_quadrature),
    ("gram_structure", prop_gram_structure),
    ("gram_vs_quadrature", prop_gram_vs_quadrature),
    ("gram_general_diagonal_parity", prop_gram_general_diagonal_parity),
    ("stiffness_reference_values", prop_stiffness_reference_values),
    ("stiffness_spd_and_linear", prop_stiffness_spd_and_linear),
    ("frequency_pairs", prop_frequency_pairs),
    ("tau_monotone", prop_tau_monotone),
    ("lognormal_coeff_quadrature", prop_lognormal_coeff_quadrature),
    ("matvec_vs_dense", prop_matvec_vs_dense),
    ("block_row_count", prop_block_row_count),
    ("load_structure", prop_load_structure),
    ("cholesky_factor_roundtrip", prop_cholesky_factor_roundtrip),
    ("trunc_full_equals_system", prop_trunc_full_equals_system),
    ("sbgs_identity", prop_sbgs_identity),
    ("sbgs_lognormal_spd", prop_sbgs_lognormal_spd),
    ("kron_frobenius_lsq", prop_kron_frobenius_lsq),
    ("pcg_exact_preconditioner", prop_pcg_exact_preconditioner),
    ("pcg_deterministic", prop_pcg_deterministic),
    ("condition_estimate", prop_condition_estimate),
    ("bound_formulas", prop_bound_formulas),
    ("inclusions_tiny", prop_inclusions_tiny),
]


def run_all(report=None) -> list[PropertyResult]:
    """Run every property; optionally stream one line per property."""
    results = []
    for name, fn in PROPERTIES:
        t0 = time.perf_counter()
        try:
            fn()
            res = PropertyResult(name, True, time.perf_counter() - t0)
        except Exception as exc:  # noqa: BLE001 - any failure means a red property
            res = PropertyResult(name, False, time.perf_counter() - t0, str(exc))
        if report is not None:
            report(res)
        results.append(res)
    return results
