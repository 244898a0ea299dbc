"""Preconditioned conjugate gradients over Kronecker-sum operators.

Zero initial guess, relative tolerance on the Euclidean norm of the
(recursively updated) residual by default; the preconditioner-induced
norm sqrt(r^T P^{-1} r) is selectable.  The solver records the CG step
and direction-update coefficients so the Lanczos tridiagonal matrix, and
from it a condition-number estimate of the preconditioned operator, can
be recovered after the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

TRUE_RESIDUAL = "true"
PRECONDITIONED_RESIDUAL = "preconditioned"


class BreakdownError(Exception):
    """CG met a nonpositive or non-finite curvature or inner product;
    operator or preconditioner is not positive definite (or round-off
    dominated), or produced NaN or inf."""


class UnavailableError(Exception):
    """Requested diagnostic cannot be computed from the recorded data."""


@dataclass
class SolverConfig:
    tol: float = 1e-6
    max_iter: int = 1000
    residual_norm: str = TRUE_RESIDUAL

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.residual_norm not in (TRUE_RESIDUAL, PRECONDITIONED_RESIDUAL):
            raise ValueError(f"unknown residual norm {self.residual_norm!r}")


@dataclass
class SolveReport:
    iterations: int
    residual_history: list[float]
    converged: bool
    setup_seconds: float = 0.0
    solve_seconds: float = 0.0
    cg_alphas: list[float] = field(default_factory=list, repr=False)
    cg_betas: list[float] = field(default_factory=list, repr=False)

    @property
    def final_relres(self) -> float:
        return self.residual_history[-1]


def pcg_solve(A, P, f: np.ndarray, cfg: SolverConfig | None = None):
    """Solve A u = f with preconditioner P from u = 0.

    Returns (u, SolveReport).  Raises BreakdownError on nonpositive
    p^T A p or r^T z, which signals an indefinite operator or
    preconditioner once beyond round-off scale, and on non-finite ones.
    """
    cfg = cfg or SolverConfig()
    t0 = time.perf_counter()

    f = np.asarray(f, dtype=float)
    f_norm = np.linalg.norm(f)
    if f_norm == 0.0:
        report = SolveReport(iterations=0, residual_history=[0.0], converged=True)
        report.solve_seconds = time.perf_counter() - t0
        return np.zeros_like(f), report

    u = np.zeros_like(f)
    r = f.copy()
    z = P.apply_inverse(r)
    rz = float(r @ z)
    _check_positive(rz, r, z, "r^T P^{-1} r")
    if cfg.residual_norm == PRECONDITIONED_RESIDUAL:
        denom = np.sqrt(rz)
    else:
        denom = f_norm

    p = z.copy()
    history = [1.0]
    alphas: list[float] = []
    betas: list[float] = []
    converged = False
    iterations = 0

    for it in range(1, cfg.max_iter + 1):
        Ap = A.matvec(p)
        pAp = float(p @ Ap)
        _check_positive(pAp, p, Ap, "p^T A p")
        alpha = rz / pAp
        alphas.append(alpha)
        u += alpha * p
        r -= alpha * Ap
        iterations = it

        if cfg.residual_norm == TRUE_RESIDUAL:
            relres = float(np.linalg.norm(r) / denom)
            history.append(relres)
            if relres <= cfg.tol:
                converged = True
                break
            z = P.apply_inverse(r)
            rz_new = float(r @ z)
        else:
            z = P.apply_inverse(r)
            rz_new = float(r @ z)
            relres = float(np.sqrt(max(rz_new, 0.0)) / denom)
            history.append(relres)
            if relres <= cfg.tol:
                converged = True
                break
        _check_positive(rz_new, r, z, "r^T P^{-1} r")
        beta = rz_new / rz
        betas.append(beta)
        p = z + beta * p
        rz = rz_new

    report = SolveReport(
        iterations=iterations,
        residual_history=history,
        converged=converged,
        cg_alphas=alphas,
        cg_betas=betas,
    )
    report.solve_seconds = time.perf_counter() - t0
    return u, report


def _check_positive(value: float, x: np.ndarray, y: np.ndarray, what: str) -> None:
    if not np.isfinite(value):
        raise BreakdownError(f"{what} = {value} is not finite")
    if value > 0.0:
        return
    scale = np.linalg.norm(x) * np.linalg.norm(y)
    if value <= -1e-14 * scale:
        raise BreakdownError(
            f"{what} = {value:.3e} is negative beyond round-off: "
            "operator or preconditioner is not positive definite"
        )
    raise BreakdownError(f"{what} = {value:.3e} vanished (round-off breakdown)")


def estimate_condition(report: SolveReport) -> float:
    """Condition estimate of P^{-1}A from the CG (Lanczos) coefficients.

    Builds the Lanczos tridiagonal from the recorded step sizes and
    direction updates; its extremal Ritz values estimate the extremal
    eigenvalues.  Requires at least one recorded iteration.
    """
    n = len(report.cg_alphas)
    if n == 0:
        raise UnavailableError("no CG iterations recorded")
    a = np.asarray(report.cg_alphas)
    b = np.asarray(report.cg_betas[: n - 1])
    d = np.empty(n)
    d[0] = 1.0 / a[0]
    if n > 1:
        d[1:] = 1.0 / a[1:] + b / a[:-1]
        e = np.sqrt(b) / a[:-1]
        w = scipy.linalg.eigvalsh_tridiagonal(d, e)
    else:
        w = d
    w_min, w_max = float(w[0]), float(w[-1])
    if w_min <= 0:
        raise UnavailableError("Lanczos matrix not positive definite (round-off)")
    return w_max / w_min
