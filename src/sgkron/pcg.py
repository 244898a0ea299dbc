"""Preconditioned conjugate gradients over Kronecker-sum operators.

Zero initial guess; the solve stops once the Euclidean norm of the
(recursively updated) residual falls below tol times the norm of the
right-hand side, the paper's stopping rule.  The solver records the CG step
and direction-update coefficients so the Lanczos tridiagonal matrix, and
from it a condition-number estimate of the preconditioned operator, can
be recovered after the run.

Products from the preconditioner's own solve: p_j = z_j + beta_j p_{j-1},
so every row forms A p_j = A z_j + beta_j A p_{j-1} and keeps the last
A p.  One rule makes A z_j.  Where P holds the ``lead`` leading terms
P_lead of A = sum_i G_i (x) K_i and the operator ``skips_leading_terms``,
P gives P_lead z_j with z_j (``apply_lead``) and

    A z_j = P_lead z_j + (A - P_lead)[:, c_j] z_j,

the operator applying only its terms from ``lead`` on (``A.matvec(z,
blocks, lead)``), over the columns of class c_j where P has classes.
trunc_exact r (lead r + 1), and mean, its r = 0, are P_lead: P_lead z_j
is r_j on the class solved, to round-off where a truncation class is
solved directly and to ``precond.INNER_TOL`` (1e-13) of the norm of its
rows where its nested CG solves them, a drift of the recursive residual
far below ``tol``.
SBGS, (D + L) D^{-1} (D + L^T), outer or trunc_exact's nested one, gives
P_lead z = t + L z, t = D y the right-hand sides of its forward sweep, as
its backward sweep solves (D + L^T) z = D y; the nested one holds its
whole operator, whose tail is empty.  Every other row takes the plain
step, ``apply_inverse(r)`` then ``A.matvec(z)``: lead 0 is left only for
kron, which holds no lead, and for the operators that cannot skip (the
factored lognormal one, trunc_exact's ``_SchurComplement``).

Parity ``classes`` (one bool per block) that P never couples while the
operator's other terms always flip them give A = [[P_0, C], [C^T, P_1]]
in class order ("Property A").  When f lies in one class c, the residual
of step j lies in class c_j = c XOR (j mod 2) up to round-off, so step j
solves that class only, ``apply_lead(r, c_j)`` leaving exact zeros off
it; any other f takes the whole apply.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg


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

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class SolveReport:
    iterations: int
    residual_history: list[float]
    converged: bool
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

    lead = getattr(P, "lead", 0) if getattr(A, "skips_leading_terms", False) else 0
    # With a lead, the class of f, when it lies in one: step j then applies
    # to class cls ^ (j & 1) only.
    classes, cls = getattr(P, "classes", None) if lead else None, None
    if classes is not None:
        live = classes[f.reshape(len(classes), -1).any(axis=1)]
        cls = int(live[0]) if live.min() == live.max() else None
        halves = (~classes, classes)  # the blocks of class 0 and of class 1

    def precondition(r, j):
        """z_j = P^{-1} r_j and A z_j."""
        if not lead:
            z = P.apply_inverse(r)
            return z, A.matvec(z)
        c = None if cls is None else cls ^ (j & 1)
        z, Pz = P.apply_lead(r, c)
        Az = A.matvec(z, None if c is None else halves[c], lead)
        Az += Pz
        return z, Az

    u = np.zeros_like(f)
    r = f.copy()
    z, Ap = precondition(r, 0)
    rz = float(r @ z)
    _check_positive(rz, r, z, "r^T P^{-1} r")

    p = z.copy()
    history = [1.0]
    alphas: list[float] = []
    betas: list[float] = []
    converged = False
    iterations = 0

    for it in range(1, cfg.max_iter + 1):
        pAp = float(p @ Ap)
        _check_positive(pAp, p, Ap, "p^T A p")
        alpha = rz / pAp
        alphas.append(alpha)
        u += alpha * p
        r -= alpha * Ap
        iterations = it

        relres = float(np.linalg.norm(r) / f_norm)
        history.append(relres)
        if relres <= cfg.tol:
            converged = True
            break
        z, Az = precondition(r, it)
        rz_new = float(r @ z)
        _check_positive(rz_new, r, z, "r^T P^{-1} r")
        beta = rz_new / rz
        betas.append(beta)
        p = z + beta * p
        Ap *= beta  # A p_j = A z_j + beta_j A p_{j-1}
        Ap += Az
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
