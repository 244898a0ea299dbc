"""The property catalogue, run by ``sgkron verify`` and by the test suite.

Each property re-checks one module invariant at small scale against an
independent oracle (quadrature, dense algebra, brute-force enumeration),
the only copy of that oracle.  A property that builds a tiny system takes
a :class:`SmallConfig` whose default is the one ``sgkron verify`` checks,
and one that builds a preconditioner builds it through
``grid.build_preconditioner``, the dispatch of ``sgkron run``.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from . import fem2d, gram, grid, kronsys, multiindex, orthopoly, pcg, precond, spectral

RNG_SEED = 42
# Amplitude of the lognormal tiny systems (the table6 preset's).
LOGNORMAL_ALPHA_BAR = 0.547


@dataclass
class PropertyResult:
    name: str
    passed: bool
    seconds: float
    message: str = ""


@dataclass(frozen=True)
class SmallConfig:
    """A tiny system and what a property does with it.

    ``r`` is the truncation index a property checks (properties over a
    range of truncations check 0..r); ``seed`` seeds its random vectors.
    Lognormal systems have N sources and amplitude LOGNORMAL_ALPHA_BAR,
    affine ones the auto amplitude.
    """

    problem: str = "affine"
    level: int = 2
    M: int = 3
    k: int = 2
    r: int = 3
    seed: int = RNG_SEED
    sigma_tilde: float = 2.0
    N: int = 6

    def build(self):
        affine = self.problem == "affine"
        alpha_bar = fem2d.auto_alpha_bar(self.sigma_tilde) if affine else LOGNORMAL_ALPHA_BAR
        return grid.Cell(self.problem, "", self.sigma_tilde, alpha_bar, self.level, self.M,
                         self.k, self.N).build()


AFFINE = SmallConfig()
LOGNORMAL = SmallConfig(problem="lognormal")


def _preconditioner(kind, op, pairs=None):
    """The `kind` preconditioner of a built system, as `sgkron run` builds it."""
    return grid.build_preconditioner(
        kind, pairs, op, lambda: precond.CholeskyFactor(op.terms[0][1])
    )


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


def linear_gram(family, m, S):
    """<y_m psi_j, psi_t> as the systems build it: ``gram_linear`` for the
    Legendre family, G_{e_m} (y_m = psi_1(y_m)) for the Hermite one."""
    if family is orthopoly.LEGENDRE:
        return gram.gram_linear(m, S)
    return gram.gram_general([int(slot == m - 1) for slot in range(S.M)], S)


def prop_gram_structure():
    for M, k, family in itertools.product(
        (2, 8), (2, 6), (orthopoly.LEGENDRE, orthopoly.HERMITE)
    ):
        S = multiindex.build_index_set(M, k)
        for m in range(1, M + 1):
            G = linear_gram(family, m, S)
            nnz_row = np.diff(G.indptr)
            assert nnz_row.max() <= 2, "more than two entries in a row"
            assert np.all(G.diagonal() == 0.0)
            skew = G - G.T
            assert skew.nnz == 0 or np.max(np.abs(skew.data)) == 0.0
            L = sp.tril(G, -1).tocsr()
            assert np.max(np.abs((L + L.T - G).toarray())) == 0.0
            assert np.diff(L.indptr).max(initial=0) <= 1
            assert np.diff(L.tocsc().indptr).max(initial=0) <= 1


def prop_gram_vs_quadrature():
    M, k = 2, 2
    S = multiindex.build_index_set(M, k)
    for family, (x, w) in (
        (orthopoly.LEGENDRE, _legendre_rule(20)),
        (orthopoly.HERMITE, _hermite_rule(20)),
    ):
        vals = np.array([orthopoly.evaluate(family, j, x) for j in range(k + 2)])
        for m in (1, 2):
            G = linear_gram(family, m, S).toarray()
            for t, at in enumerate(S):
                for j, aj in enumerate(S):
                    facs = []
                    for mm in range(M):
                        f = vals[at[mm]] * vals[aj[mm]]
                        if mm == m - 1:
                            f = f * x
                        facs.append(float(np.sum(w * f)))
                    assert abs(G[t, j] - math.prod(facs)) < 1e-12, (family, m)


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
    Ks = fem2d.assemble_stiffness(mesh, lambda x1, x2: 1.0 + a(x1, x2))
    assert np.max(np.abs((K0 + K1 - Ks).toarray())) < 1e-12
    precond.CholeskyFactor(K0)


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
    _, _, ctx = kronsys.build_affine_system(fem2d.build_mesh(1), 6, 0, 2.0, 0.6)
    taus = ctx.tau_table
    assert taus[0] == 0.0
    assert all(b >= a for a, b in zip(taus, taus[1:]))


def prop_closed_form_constants(sigma_tilde: float = 2.0, alpha_bar: float | None = None,
                               M: int = 8):
    # The corner values the builds read against the 257^2 grid maxima: the
    # affine bound constants bit for bit, the lognormal magnitudes (sources
    # b_1..b_M) to 1e-13 relative.  alpha_bar None is the auto amplitude.
    if alpha_bar is None:
        alpha_bar = fem2d.auto_alpha_bar(sigma_tilde)
    fields = [fem2d.fourier_coefficient(m, sigma_tilde, alpha_bar) for m in range(M + 1)]
    _, _, ctx = kronsys.build_affine_system(fem2d.build_mesh(1), M, 0, sigma_tilde, alpha_bar)
    a0_min, a0_max = fem2d.field_extrema(fields[0])
    assert (ctx.a0_min, ctx.a0_max) == (a0_min, a0_max)
    assert ctx.norm_table == tuple(fem2d.sup_norm(a) for a in fields[1:]), ctx.norm_table
    taus = tuple(fem2d.tau_r(fields[1 : r + 1], a0_min) for r in range(M + 1))
    assert ctx.tau_table == taus, (ctx.tau_table, taus)
    b0, b_fields = fields[0], fields[1:]
    for alpha, mag in fem2d.order_by_magnitude(
        multiindex.build_index_set(min(M, 4), 2), b_fields, b0
    ):
        ref = fem2d.sup_norm(fem2d.lognormal_expansion_coeff(alpha, b_fields, b0))
        assert abs(mag - ref) <= 1e-13 * ref, (alpha, mag, ref)


def prop_lognormal_coeff_quadrature():
    # E[exp(b) psi_alpha] by Gauss-Hermite quadrature per parameter, on a
    # 5 x 5 grid of the unit square.
    x, w = _hermite_rule(80)
    b0 = fem2d.fourier_coefficient(0, 2.0, LOGNORMAL_ALPHA_BAR)
    fields = [fem2d.fourier_coefficient(m, 2.0, LOGNORMAL_ALPHA_BAR) for m in range(1, 5)]
    x1, x2 = np.meshgrid(np.linspace(0, 1, 5), np.linspace(0, 1, 5), indexing="ij")
    for alpha in ((0, 0, 0, 0), (1, 0, 0, 0), (2, 1, 0, 0), (3, 0, 0, 0), (1, 1, 2, 0)):
        target = fem2d.lognormal_expansion_coeff(alpha, fields, b0)(x1, x2)
        quad = np.exp(b0(x1, x2))
        for b, am in zip(fields, alpha):
            poly = orthopoly.evaluate(orthopoly.HERMITE, am, x)
            quad = quad * np.sum(w * poly * np.exp(b(x1, x2)[..., None] * x), axis=-1)
        assert np.all(np.abs(quad - target) < 1e-10 * np.maximum(1.0, np.abs(target))), alpha


# ---------------------------------------------------------------------------
# kronsys


def prop_matvec_vs_dense(cfg: SmallConfig = AFFINE):
    op, _, _ = cfg.build()
    A = kronsys.assemble_dense(op.terms)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(20):
        v = rng.standard_normal(op.dim)
        Av = A @ v
        err = op.matvec(v) - Av
        assert np.linalg.norm(err) <= 1e-13 * np.linalg.norm(Av)
        assert np.all(np.abs(err) <= 1e-12 * (1.0 + np.abs(Av)))
    assert np.max(np.abs(A - A.T)) < 1e-13


def prop_block_row_count(cfg: SmallConfig = SmallConfig(M=4)):
    # Affine: each block row of the assembled matrix holds at most 2M + 1
    # nonzero blocks.
    op, _, _ = cfg.build()
    blocks = kronsys.assemble_dense(op.terms).reshape(op.ny, op.nx, op.ny, op.nx)
    counts = np.count_nonzero(np.abs(blocks).max(axis=(1, 3)) > 0, axis=1)
    assert counts.max() <= 2 * cfg.M + 1, counts.max()


def prop_load_structure(cfg: SmallConfig = AFFINE):
    op, f, _ = cfg.build()
    h = 2.0 ** -cfg.level
    assert np.all(f[: op.nx] == h * h)
    assert np.all(f[op.nx :] == 0.0)


# ---------------------------------------------------------------------------
# precond


def prop_cholesky_factor_roundtrip():
    A = sp.csc_matrix(np.array([[4.0, 2.0], [2.0, 3.0]]))
    fac = precond.CholeskyFactor(A)
    x = fac.solve(np.array([1.0, 1.0]))
    assert np.allclose(A @ x, [1.0, 1.0], atol=1e-13)
    try:
        precond.CholeskyFactor(sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]])))
    except precond.NotPositiveDefiniteError:
        pass
    else:
        raise AssertionError("indefinite matrix accepted")
    # The grid Laplacian L (the affine K_0) takes the sine path when scaled;
    # a perturbed L is refused but still solved, -L is not SPD, and a matrix
    # with one NaN or inf, wherever it sits, is refused as a breakdown.
    L = fem2d.assemble_stiffness(fem2d.build_mesh(4), fem2d.constant_field(1.0)).tocsc()
    b = np.random.default_rng(RNG_SEED).standard_normal(L.shape[0])
    bumped = L.tolil()
    bumped[0, 1] = bumped[1, 0] = L[0, 1] * (1.0 + 1e-6)
    for K, sine in ((2.5 * L, True), (bumped.tocsc(), False)):
        fac = precond.CholeskyFactor(K)
        assert (fac._sine is not None) == sine
        assert np.linalg.norm(K @ fac.solve(b) - b) <= 1e-12 * np.linalg.norm(b)
    try:
        precond.CholeskyFactor(-L)
    except precond.NotPositiveDefiniteError:
        pass
    else:
        raise AssertionError("negative definite Laplacian accepted")
    for entry, bad in ((0, np.nan), (1, np.nan), (1, np.inf)):  # diagonal, off-diagonal
        K = L.copy()
        K.data[K.indptr[0] + entry] = bad
        try:
            precond.CholeskyFactor(K)
        except pcg.BreakdownError:
            pass
        else:
            raise AssertionError(f"matrix with {bad} at entry {entry} accepted")


def prop_sbgs_lognormal_spd(cfg: SmallConfig = LOGNORMAL):
    op, _, _ = cfg.build()
    report = spectral.lognormal_spd_report(op, range(0, cfg.r + 1))
    for row in report:
        if row.claim == "sbgs_spd":
            assert row.passed and row.observed_lo > 0, f"SBGS indefinite at r={row.r}"


def prop_kron_frobenius_lsq(cfg: SmallConfig = AFFINE):
    # Brute-force oracle: entrywise Frobenius least squares over all of G,
    # g_jt = <A_jt, K0>_F / <K0, K0>_F on the dense block partition.
    op, _, _ = cfg.build()
    P = _preconditioner("kron", op)
    blocks = kronsys.assemble_dense(op.terms).reshape(op.ny, op.nx, op.ny, op.nx)
    K0 = op.terms[0][1].toarray()
    G_best = np.einsum("jatb,ab->jt", blocks, K0) / np.sum(K0 * K0)
    assert np.max(np.abs(P.G.toarray() - G_best)) < 1e-10


# ---------------------------------------------------------------------------
# pcg


def prop_pcg_exact_preconditioner(cfg: SmallConfig = AFFINE):
    op, f, _ = cfg.build()
    A = kronsys.assemble_dense(op.terms)
    dense = SimpleNamespace(dim=op.dim, matvec=lambda v: A @ v)
    exact = SimpleNamespace(apply_inverse=lambda v: np.linalg.solve(A, v))
    u, report = pcg.pcg_solve(dense, exact, f)
    assert report.iterations == 1 and report.converged
    zero_u, zero_rep = pcg.pcg_solve(dense, exact, np.zeros_like(f))
    assert zero_rep.iterations == 0 and np.all(zero_u == 0.0)


def prop_pcg_deterministic(cfg: SmallConfig = AFFINE):
    op, f, _ = cfg.build()
    P = _preconditioner("mean", op)
    u1, r1 = pcg.pcg_solve(op, P, f)
    u2, r2 = pcg.pcg_solve(op, P, f)
    assert np.array_equal(u1, u2)
    assert r1.residual_history == r2.residual_history


def prop_condition_estimate(cfg: SmallConfig = AFFINE):
    op, f, _ = cfg.build()
    P = _preconditioner("mean", op)
    _, report = pcg.pcg_solve(op, P, f, pcg.SolverConfig(tol=1e-12))
    est = pcg.estimate_condition(report)
    A = kronsys.assemble_dense(op.terms)
    P0 = np.kron(np.eye(op.ny), op.terms[0][1].toarray())
    w = spectral.eig_spectrum(P0, A)
    true_cond = w[-1] / w[0]
    assert 0.5 * true_cond < est < 1.5 * true_cond, (est, true_cond)


# ---------------------------------------------------------------------------
# spectral


def prop_bound_formulas():
    bs = spectral.compute_bounds(0, 1.0, 1.0, tau=0.9999, tau_r=0.0, sum_norms_r=0.0)
    assert abs(bs.theta_r - 1e-4) < 1e-12
    assert abs(bs.Theta_r - 1.9999) < 1e-12
    assert bs.delta_r == 0.0
    fast = spectral.compute_bounds(1, 1.0, 1.0, tau=0.9999, tau_r=0.9239, sum_norms_r=0.9239)
    assert abs(fast.delta_r - 0.9239**2 / (1 - 0.9239)) < 1e-12


def prop_inclusions_tiny(cfg: SmallConfig = AFFINE):
    op, _, ctx = cfg.build()
    checks = spectral.verify_inclusions(op, ctx, r_values=range(0, cfg.r + 1))
    claims = ("trunc_vs_system", "mean_vs_trunc", "sbgs_vs_trunc", "sbgs_vs_system",
              "scaled_eig_floor", "scaled_sigma_cap")
    order = [(r, claim) for r in range(cfg.r + 1) for claim in claims]
    assert [(c.r, c.claim) for c in checks] == order, "claims out of order"
    bad = [c for c in checks if not c.passed]
    assert not bad, f"failed inclusions: {[(c.claim, c.r) for c in bad]}"


def prop_kappa_within_bound(cfg: SmallConfig = AFFINE):
    # Affine: the Lanczos estimate of PCG with trunc_exact r and sbgs r stays
    # below the theorem's bound, spectral.kappa_bound.  Ritz values lie
    # inside the spectrum, so no slack.
    op, f, ctx = cfg.build()
    solver = pcg.SolverConfig(tol=1e-10)
    for r in range(len(kronsys.leading_terms(op, cfg.r))):
        for kind in ("trunc_exact", "sbgs"):
            P = _preconditioner(kind, op, kronsys.leading_terms(op, r))
            _, report = pcg.pcg_solve(op, P, f, solver)
            est = pcg.estimate_condition(report)
            bound = spectral.kappa_bound(ctx, kind, r)
            assert est <= bound, f"{kind} r={r}: kappa {est:.4g} above bound {bound:.4g}"


def prop_precond_dense_formula(cfg: SmallConfig = AFFINE):
    # Each family, built as `run` builds it, is SPD and its apply_inverse
    # inverts its dense formula, on every column and on random vectors:
    # mean I (x) K_0, kron G (x) K_0, trunc_exact P_r and sbgs
    # (D + L) D^{-1} (D + L)^T of P_r's pairs.  A lognormal P_r that
    # `spectrum` marks n/a is skipped.
    op, _, _ = cfg.build()
    pairs = kronsys.leading_terms(op, cfg.r)
    formulas = {
        "mean": lambda P: kronsys.assemble_dense(op.terms[:1]),
        "kron": lambda P: np.kron(P.G.toarray(), op.terms[0][1].toarray()),
        "trunc_exact": lambda P: kronsys.assemble_dense(pairs),
        "sbgs": lambda P: spectral.sbgs_dense(pairs)[0],
    }
    if cfg.problem == "lognormal" and not spectral.lognormal_spd_report(op, [cfg.r])[0].applicable:
        del formulas["trunc_exact"]
    rng = np.random.default_rng(cfg.seed)
    for kind, formula in formulas.items():
        P = _preconditioner(kind, op, pairs)
        dense = formula(P)
        assert np.max(np.abs(dense - dense.T)) <= 1e-14 * np.max(np.abs(dense)), kind
        assert np.linalg.eigvalsh(dense)[0] > 0, f"{kind} not positive definite"
        applied = np.column_stack([P.apply_inverse(col) for col in dense.T])
        assert np.max(np.abs(applied - np.eye(op.dim))) < 1e-10, kind
        for v in rng.standard_normal((3, op.dim)):
            err = np.linalg.norm(P.apply_inverse(dense @ v) - v)
            assert err < 1e-10 * np.linalg.norm(v), (kind, err)


def prop_trunc_spectrum_symmetric(cfg: SmallConfig = AFFINE):
    # Affine, every r <= M: the sign flip J of the blocks with odd
    # alpha_{r+1} + ... + alpha_M gives J P_r J = P_r and J (A - P_r) J =
    # -(A - P_r), so the spectrum of P_r^{-1} A is symmetric about 1.
    op, _, _ = cfg.build()
    A = kronsys.assemble_dense(op.terms)
    for r in range(len(op.terms)):
        lam = spectral.eig_spectrum(kronsys.assemble_dense(kronsys.leading_terms(op, r)), A)
        gap = np.max(np.abs(lam + lam[::-1] - 2.0))
        assert gap <= 1e-12, f"r={r}: spectrum off symmetric about 1 by {gap:.3e}"


# (name, property) in definition order: every prop_* function above.
PROPERTIES = [(name[5:], fn) for name, fn in list(globals().items()) if name.startswith("prop_")]


def run_all(report=None) -> list[PropertyResult]:
    """Run every property; optionally stream one line per property."""
    if not __debug__:  # python -O strips the asserts every property makes
        raise RuntimeError("assertions are disabled (python -O)")
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
