"""One cell of a benchmark grid, built and solved once per preconditioner.

``Cell.build`` is the one place a problem name becomes a system, and
``build_preconditioner`` the one place a kind becomes a preconditioner,
from the operator and the truncation's pairs alone: no preconditioner
asks which problem built them.
``solve_cell`` is the pipeline behind ``sgkron run``: it yields the rows
of one cell in the order of its preconditioner entries, each once its
solve ends.  A set-up or solve failure that ``_FAILURE_LABELS`` maps
becomes a row labelled ``kind!label`` and the next entry still runs; any
other error ends the generator.  The build and the solves run under the
numpy error state of whoever calls ``next()``, which the caller owns.
"""

from __future__ import annotations

import functools
import time
from collections import namedtuple
from dataclasses import dataclass

from . import fem2d, kronsys, pcg, precond


@dataclass
class Cell:
    problem: str
    decay_label: str
    sigma_tilde: float
    alpha_bar: float
    level: int
    M: int
    k: int
    N: int

    def build(self):
        """The operator, load vector and context of the cell.  The context
        holds the affine bound constants; it is None for the lognormal
        problem, which the bounds do not cover (N is read by it only)."""
        mesh = fem2d.build_mesh(self.level)
        if self.problem == "affine":
            return kronsys.build_affine_system(
                mesh, self.M, self.k, self.sigma_tilde, self.alpha_bar
            )
        op, f = kronsys.build_lognormal_system(
            mesh, self.M, self.k, self.N, self.sigma_tilde, self.alpha_bar
        )
        return op, f, None


# One solve: the CSV columns of `sgkron run` that follow the cell's own.
Row = namedtuple(
    "Row", "precond r iterations converged final_relres setup_s solve_s n_unknowns"
)

# Failures of a preconditioner's set-up or solve, reported as a labelled
# row (suffix after "!") so that the rest of the grid still runs.
_FAILURE_LABELS = {
    precond.NotPositiveDefiniteError: "not_positive_definite",
    precond.InnerStallError: "inner_stall",
    pcg.BreakdownError: "breakdown",
}


def build_preconditioner(kind, pairs, op, K0_factor):
    """K0_factor() gives the cell's K_0 factor; trunc_exact never asks."""
    if kind == "mean":
        return precond.build_mean_based(K0_factor(), op.ny)
    if kind == "kron":
        return precond.build_kron(op.terms, K0_factor())
    if kind == "trunc_exact":
        return precond.build_trunc_exact(pairs, op.ny, op.nx)
    return precond.build_sbgs(K0_factor(), pairs, op.ny, op.nx)


def solve_cell(cell: Cell, preconds, solver_cfg: pcg.SolverConfig):
    """Build `cell`, then solve it once per (kind, r) of `preconds`,
    yielding a ``Row`` as each solve ends."""
    op, f, _ = cell.build()
    # Built on first use, so that a K_0 it refuses ends as the rows of the
    # preconditioners that need it.
    K0_factor = functools.cache(lambda: precond.CholeskyFactor(op.terms[0][1]))
    for kind, r in preconds:
        pairs = None if r is None else kronsys.leading_terms(op, r)
        # The r cell, on success and failure rows alike: 0 for mean, empty
        # for kron, the requested r for trunc_exact and the index of the
        # last term for sbgs.
        r_cell = len(pairs) - 1 if kind == "sbgs" else {"mean": 0}.get(kind, r)
        t0 = time.perf_counter()
        setup_s = 0.0  # until the preconditioner is built
        try:
            P = build_preconditioner(kind, pairs, op, K0_factor)
            setup_s = time.perf_counter() - t0
            _, rep = pcg.pcg_solve(op, P, f, solver_cfg)
            row = Row(kind, r_cell, rep.iterations, rep.converged, rep.final_relres,
                      setup_s, rep.solve_seconds, op.dim)
        except tuple(_FAILURE_LABELS) as exc:
            label = next(v for t, v in _FAILURE_LABELS.items() if isinstance(exc, t))
            setup_s = setup_s or time.perf_counter() - t0
            row = Row(f"{kind}!{label}", r_cell, 0, False, float("nan"), setup_s, 0.0, op.dim)
        yield row
