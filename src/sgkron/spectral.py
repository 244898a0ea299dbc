"""Spectral equivalence constants and small-scale eigenvalue verification.

The truncation analysis bounds every preconditioned spectrum through a
handful of scalar constants derived from the coefficient expansion:
tau (full fluctuation mass), tau_r (mass of the first r terms), the
equivalence interval [theta_r, Theta_r], and the block Gauss-Seidel
degradation factor delta_r, built from the sum of the first r sup-norms.
This module evaluates the closed forms and checks the claimed eigenvalue
inclusions with dense generalized eigensolves at sizes where that is exact
and cheap; an inclusion passes within ``SLACK``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .kronsys import DENSE_GUARD, KroneckerSumOperator, assemble_dense
from .precond import NotPositiveDefiniteError

SLACK = 1e-8  # round-off by which a passing claim may miss its bound (sbgs_spd: relative)


@dataclass(frozen=True)
class BoundSet:
    r: int
    a0_min: float
    a0_max: float
    tau: float
    tau_r: float
    theta_r: float
    Theta_r: float
    delta_r: float


def compute_bounds(
    r: int,
    a0_min: float,
    a0_max: float,
    tau: float,
    tau_r: float,
    sum_norms_r: float,
) -> BoundSet:
    """Closed-form evaluation of theta_r, Theta_r and delta_r.

    ``sum_norms_r`` is the sum of the individual sup-norms of the first r
    fluctuation terms, sum_{m<=r} ||a_m||_inf, and gives
    delta_r = (sum_norms_r / a0_min)^2 / (1 - tau_r).
    """
    if a0_min <= 0:
        raise ValueError("a0_min must be positive")
    if not 0 <= tau_r <= tau:
        raise ValueError("need 0 <= tau_r <= tau")
    if tau >= 1:
        raise ValueError("bounds require tau < 1")
    theta = (1.0 - tau) * a0_min / (a0_max + a0_min * tau_r)
    Theta = (a0_max + a0_min * tau) / ((1.0 - tau_r) * a0_min)
    delta = (sum_norms_r / a0_min) ** 2 / (1.0 - tau_r)
    return BoundSet(
        r=r,
        a0_min=a0_min,
        a0_max=a0_max,
        tau=tau,
        tau_r=tau_r,
        theta_r=theta,
        Theta_r=Theta,
        delta_r=delta,
    )


def affine_bounds(ctx, r: int) -> BoundSet:
    """The bounds of truncation index r of an affine system (an
    ``AffineContext``); r is clamped to the M terms there are."""
    if r < 0:
        raise ValueError("truncation index r must be >= 0")
    r_eff = min(r, len(ctx.norm_table))
    return compute_bounds(
        r, ctx.a0_min, ctx.a0_max, ctx.tau, ctx.tau_table[r_eff], ctx.sum_norms(r_eff)
    )


def kappa_bound(ctx, kind: str, r: int) -> float:
    """The theorem's bound on the condition number of PCG on an affine system
    preconditioned by ``kind`` ("trunc_exact" or "sbgs") at index r."""
    b = affine_bounds(ctx, r)
    if kind == "trunc_exact":
        return b.Theta_r / b.theta_r
    if kind == "sbgs":
        return b.Theta_r * (1.0 + b.delta_r) / b.theta_r
    raise ValueError(f"no condition bound for preconditioner {kind!r}")


def _check_spd_dense(X: np.ndarray, name: str) -> None:
    try:
        np.linalg.cholesky(X)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"{name} is not positive definite") from exc


def eig_spectrum(B: np.ndarray, A: np.ndarray) -> np.ndarray:
    """All eigenvalues of B^{-1}A (ascending) via Cholesky congruence.

    The generalized symmetric solve reduces B = L L^T and diagonalizes
    L^{-1} A L^{-T}; both inputs must be dense SPD of dimension <= ``DENSE_GUARD``.
    """
    n = B.shape[0]
    if n > DENSE_GUARD:
        raise ValueError(f"dense eigensolve refused at dimension {n} > {DENSE_GUARD}")
    _check_spd_dense(B, "B")
    _check_spd_dense(A, "A")
    return scipy.linalg.eigh(A, B, eigvals_only=True)


def eig_range(B: np.ndarray, A: np.ndarray) -> tuple[float, float]:
    w = eig_spectrum(B, A)
    return float(w[0]), float(w[-1])


# ---------------------------------------------------------------------------
# inclusion verification


@dataclass
class InclusionCheck:
    claim: str
    r: int
    bound_lo: float
    bound_hi: float
    observed_lo: float
    observed_hi: float
    margin: float
    passed: bool
    applicable: bool = True


def _containment(
    claim: str,
    r: int,
    bound: tuple[float, float],
    observed: tuple[float, float],
) -> InclusionCheck:
    lo_gap = observed[0] - bound[0] if np.isfinite(bound[0]) else np.inf
    hi_gap = bound[1] - observed[1] if np.isfinite(bound[1]) else np.inf
    margin = float(min(lo_gap, hi_gap))
    return InclusionCheck(
        claim=claim,
        r=r,
        bound_lo=bound[0],
        bound_hi=bound[1],
        observed_lo=observed[0],
        observed_hi=observed[1],
        margin=margin,
        passed=bool(margin >= -SLACK),
    )


def sbgs_dense(terms) -> tuple[np.ndarray, np.ndarray]:
    """Dense (D + L) D^{-1} (D + L)^T, and L, of the splitting every SBGS
    preconditioner applies: D = sum_l diag(G_l) (x) K_l and L = sum_l
    tril(G_l, -1) (x) K_l.  Affine: D = I (x) K_0, so it is P_r + L D^{-1} L^T.
    """
    D = assemble_dense([(sp.diags(G.diagonal()), K) for G, K in terms])
    L = assemble_dense([(sp.tril(G, -1), K) for G, K in terms])
    return (D + L) @ np.linalg.solve(D, (D + L).T), L


def verify_inclusions(op: KroneckerSumOperator, ctx, r_values) -> list[InclusionCheck]:
    """Check every claimed spectral inclusion of an affine system, for each
    truncation index r; the claims are the rows of the table below."""
    A = assemble_dense(op.terms)
    K0 = op.terms[0][1].toarray()
    P0 = np.kron(np.eye(op.ny), K0)

    # Symmetric scaling by D_0^{-1/2} = I (x) K_0^{-1/2}.
    w, Q = scipy.linalg.eigh(K0)
    if w[0] <= 0:
        raise NotPositiveDefiniteError("mean stiffness factor is not SPD")
    D0_isqrt = np.kron(np.eye(op.ny), (Q * (1.0 / np.sqrt(w))) @ Q.T)

    checks: list[InclusionCheck] = []
    for r in r_values:
        pairs = op.leading(r)
        b = affine_bounds(ctx, r)
        P_r = assemble_dense(pairs)
        P_sbgs, S_r = sbgs_dense(pairs)
        S_tilde = D0_isqrt @ S_r @ D0_isqrt  # S~, the scaled strictly lower part
        floor = np.linalg.eigvalsh(np.eye(op.dim) + S_tilde + S_tilde.T)
        smax = float(scipy.linalg.svdvals(S_tilde)[0]) if len(pairs) > 1 else 0.0
        cap = ctx.sum_norms(len(pairs) - 1) / ctx.a0_min  # first r sup-norms / a0_min
        # (claim, interval, observed range).  eig_range(B, A) spans the
        # spectrum of B^{-1} A; P~_r is the SBGS approximation of P_r; the
        # scaled rows bound lambda_min(I + S~ + S~^T) and sigma_max(S~).
        table = (
            ("trunc_vs_system", (b.theta_r, b.Theta_r), eig_range(P_r, A)),
            ("mean_vs_trunc", (1.0 - b.tau_r, 1.0 + b.tau_r), eig_range(P0, P_r)),
            ("sbgs_vs_trunc", (1.0, 1.0 + b.delta_r), eig_range(P_r, P_sbgs)),
            ("sbgs_vs_system", (b.theta_r / (1.0 + b.delta_r), b.Theta_r), eig_range(P_sbgs, A)),
            ("scaled_eig_floor", (1.0 - b.tau_r, np.inf), (float(floor[0]), float(floor[-1]))),
            ("scaled_sigma_cap", (-np.inf, cap), (0.0, smax)),
        )
        checks += [_containment(claim, r, bound, seen) for claim, bound, seen in table]
    return checks


def lognormal_spd_report(op: KroneckerSumOperator, r_values) -> list[InclusionCheck]:
    """Definiteness report for lognormal truncations at tiny scale.

    P_r itself may legitimately be indefinite; those rows are marked not
    applicable.  The block Gauss-Seidel surrogate must be SPD for every r
    whenever the zero-index term leads the truncation.
    """
    def row(claim, r, eigs, passed, applicable=True):
        lo, hi = float(eigs[0]), float(eigs[-1])
        return InclusionCheck(claim, r, 0.0, np.inf, lo, hi, lo, passed, applicable)

    checks: list[InclusionCheck] = []
    for r in r_values:
        pairs = op.leading(r)
        trunc = np.linalg.eigvalsh(assemble_dense(pairs))
        sbgs = np.linalg.eigvalsh(sbgs_dense(pairs)[0])
        checks += [
            row("trunc_spd", r, trunc, True, bool(trunc[0] > 0)),
            row("sbgs_spd", r, sbgs, bool(sbgs[0] > SLACK * abs(sbgs[-1]))),
        ]
    return checks
