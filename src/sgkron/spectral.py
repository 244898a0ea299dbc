"""Spectral equivalence constants and small-scale eigenvalue verification.

The truncation analysis bounds every preconditioned spectrum through a
handful of scalar constants derived from the coefficient expansion:
tau (full fluctuation mass), tau_r (mass of the first r terms), the
equivalence interval [theta_r, Theta_r], and the block Gauss-Seidel
degradation factor delta_r.  This module evaluates the closed forms and
checks the claimed eigenvalue inclusions with dense generalized
eigensolves at sizes where that is exact and cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .kronsys import KroneckerSumOperator, assemble_dense
from .precond import NotPositiveDefiniteError

EIG_GUARD = 2000


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
    sum_norms_r: float | None = None,
) -> BoundSet:
    """Closed-form evaluation of theta_r, Theta_r and delta_r.

    ``sum_norms_r`` is the sum of the individual sup-norms of the first r
    fluctuation terms, which enters delta_r; when omitted it defaults to
    a0_min * tau_r (exact whenever the term extrema are co-located).
    """
    if a0_min <= 0:
        raise ValueError("a0_min must be positive")
    if not 0 <= tau_r <= tau:
        raise ValueError("need 0 <= tau_r <= tau")
    if tau >= 1:
        raise ValueError("bounds require tau < 1")
    theta = (1.0 - tau) * a0_min / (a0_max + a0_min * tau_r)
    Theta = (a0_max + a0_min * tau) / ((1.0 - tau_r) * a0_min)
    s = a0_min * tau_r if sum_norms_r is None else float(sum_norms_r)
    delta = (s / a0_min) ** 2 / (1.0 - tau_r)
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
    r_eff = ctx.lead(r) - 1
    return compute_bounds(
        r, ctx.a0_min, ctx.a0_max, ctx.tau, ctx.tau_table[r_eff], ctx.sum_norms(r_eff)
    )


def _check_spd_dense(X: np.ndarray, name: str) -> None:
    try:
        np.linalg.cholesky(X)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"{name} is not positive definite") from exc


def eig_spectrum(B: np.ndarray, A: np.ndarray) -> np.ndarray:
    """All eigenvalues of B^{-1}A (ascending) via Cholesky congruence.

    The generalized symmetric solve reduces B = L L^T and diagonalizes
    L^{-1} A L^{-T}; both inputs must be dense SPD of dimension <= 2000.
    """
    n = B.shape[0]
    if n > EIG_GUARD:
        raise ValueError(f"dense eigensolve refused at dimension {n} > {EIG_GUARD}")
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
    slack: float,
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
        passed=bool(margin >= -slack),
    )


def sbgs_dense(terms) -> tuple[np.ndarray, np.ndarray]:
    """Dense (D + L) D^{-1} (D + L)^T, and L, of the splitting every SBGS
    preconditioner applies: D = sum_l diag(G_l) (x) K_l and L = sum_l
    tril(G_l, -1) (x) K_l.  Affine: D = I (x) K_0, so it is P_r + L D^{-1} L^T.
    """
    D = assemble_dense([(sp.diags(G.diagonal()), K) for G, K in terms])
    L = assemble_dense([(sp.tril(G, -1), K) for G, K in terms])
    return (D + L) @ np.linalg.solve(D, (D + L).T), L


def verify_inclusions(
    op: KroneckerSumOperator, ctx, r_values, slack: float = 1e-8
) -> list[InclusionCheck]:
    """Check every claimed spectral inclusion for an affine system.

    For each requested truncation index r:
      * trunc_vs_system:  spectrum of P_r^{-1} A within [theta_r, Theta_r];
      * mean_vs_trunc:    spectrum of P_0^{-1} P_r within [1 - tau_r, 1 + tau_r];
      * sbgs_vs_trunc:    spectrum of P_r^{-1} P~_r within [1, 1 + delta_r];
      * sbgs_vs_system:   spectrum of P~_r^{-1} A within [theta_r/(1+delta_r), Theta_r];
      * scaled_eig_floor: lambda_min(I + S~ + S~^T) >= 1 - tau_r;
      * scaled_sigma_cap: sigma_max(S~) <= sum of first r sup-norms / a0_min.
    """
    if op.dim > EIG_GUARD:
        raise ValueError(f"verification refused at dimension {op.dim} > {EIG_GUARD}")

    A = assemble_dense(op.terms)
    K0 = op.terms[0][1].toarray()
    ny = op.ny
    P0 = np.kron(np.eye(ny), K0)

    # Symmetric scaling by D_0^{-1/2} = I (x) K_0^{-1/2}.
    w, Q = scipy.linalg.eigh(K0)
    if w[0] <= 0:
        raise NotPositiveDefiniteError("mean stiffness factor is not SPD")
    K0_isqrt = (Q * (1.0 / np.sqrt(w))) @ Q.T

    checks: list[InclusionCheck] = []
    for r in r_values:
        pairs = op.terms[: ctx.lead(r)]
        r_eff = len(pairs) - 1
        bounds = affine_bounds(ctx, r)
        P_r = assemble_dense(pairs)
        P_sbgs, S_r = sbgs_dense(pairs)
        S_tilde = np.kron(np.eye(ny), K0_isqrt) @ S_r @ np.kron(np.eye(ny), K0_isqrt)

        checks.append(
            _containment(
                "trunc_vs_system",
                r,
                (bounds.theta_r, bounds.Theta_r),
                eig_range(P_r, A),
                slack,
            )
        )
        checks.append(
            _containment(
                "mean_vs_trunc",
                r,
                (1.0 - bounds.tau_r, 1.0 + bounds.tau_r),
                eig_range(P0, P_r),
                slack,
            )
        )
        checks.append(
            _containment(
                "sbgs_vs_trunc",
                r,
                (1.0, 1.0 + bounds.delta_r),
                eig_range(P_r, P_sbgs),
                slack,
            )
        )
        checks.append(
            _containment(
                "sbgs_vs_system",
                r,
                (bounds.theta_r / (1.0 + bounds.delta_r), bounds.Theta_r),
                eig_range(P_sbgs, A),
                slack,
            )
        )
        sym = np.eye(op.dim) + S_tilde + S_tilde.T
        eigs = np.linalg.eigvalsh(sym)
        checks.append(
            _containment(
                "scaled_eig_floor",
                r,
                (1.0 - bounds.tau_r, np.inf),
                (float(eigs[0]), float(eigs[-1])),
                slack,
            )
        )
        smax = float(scipy.linalg.svdvals(S_tilde)[0]) if r_eff > 0 else 0.0
        checks.append(
            _containment(
                "scaled_sigma_cap",
                r,
                (-np.inf, ctx.sum_norms(r_eff) / ctx.a0_min),
                (0.0, smax),
                slack,
            )
        )
    return checks


def lognormal_spd_report(
    op: KroneckerSumOperator, ctx, r_values, slack: float = 1e-8
) -> list[InclusionCheck]:
    """Definiteness report for lognormal truncations at tiny scale.

    P_r itself may legitimately be indefinite; those rows are marked not
    applicable.  The block Gauss-Seidel surrogate must be SPD for every r
    whenever the zero-index term leads the truncation.
    """
    if op.dim > EIG_GUARD:
        raise ValueError(f"verification refused at dimension {op.dim} > {EIG_GUARD}")
    checks: list[InclusionCheck] = []
    for r in r_values:
        pairs = op.terms[: ctx.lead(r)]
        P_r = assemble_dense(pairs)
        eigs = np.linalg.eigvalsh(P_r)
        spd = bool(eigs[0] > 0)
        checks.append(
            InclusionCheck(
                claim="trunc_spd",
                r=r,
                bound_lo=0.0,
                bound_hi=np.inf,
                observed_lo=float(eigs[0]),
                observed_hi=float(eigs[-1]),
                margin=float(eigs[0]),
                passed=True,
                applicable=spd,
            )
        )

        P_sbgs, _ = sbgs_dense(pairs)
        sbgs_eigs = np.linalg.eigvalsh(P_sbgs)
        checks.append(
            InclusionCheck(
                claim="sbgs_spd",
                r=r,
                bound_lo=0.0,
                bound_hi=np.inf,
                observed_lo=float(sbgs_eigs[0]),
                observed_hi=float(sbgs_eigs[-1]),
                margin=float(sbgs_eigs[0]),
                passed=bool(sbgs_eigs[0] > slack * abs(sbgs_eigs[-1])),
            )
        )
    return checks
