"""One cell of a benchmark grid, built and solved once per preconditioner.

``Cell.build`` is the one place a problem name becomes a system, and
``build_preconditioner`` the one place a kind becomes a preconditioner,
from what the operator answers alone: no preconditioner asks which
problem built them, nor how the operator stores its terms.
``solve_cell`` is the pipeline behind ``sgkron run``: it yields the rows
of one cell in the order of its preconditioner entries, each once its
solve ends.  A set-up or solve failure that ``_FAILURE_LABELS`` maps
becomes a row labelled ``kind!label`` and the next entry still runs; any
other error ends the generator.  The build and the solves run under the
numpy error state of whoever calls ``next()``, which the caller owns, and
under the process-wide allocator policy that ``solve_cell`` applies.
"""

from __future__ import annotations

import ctypes
import functools
import time
from collections import namedtuple
from dataclasses import dataclass

from . import fem2d, kronsys, pcg, precond

# glibc allocator policy of a process that solves cells, which solve_cell
# and the command line apply.  By default glibc hands each ~1 MB
# solve-loop temporary back to the kernel when it is freed, so every PCG
# iteration faults its temporaries in again (~5,700
# minor faults, 22 MB of zeroed pages, per level-4 k = 4 affine matvec;
# 163k faults in one pass of the table3 k <= 4 grid, 5.9k with the policy).
# A fixed 4 MB mmap threshold keeps them on the heap and a 32 MB trim
# threshold keeps the freed heap for reuse.  A 32 MB / 256 MB pair
# fragmented the heap around the SuperLU factors and grew the peak RSS of
# the table2 k <= 3 grid from ~155 to ~258 MB.
MMAP_THRESHOLD_BYTES = 4 << 20
TRIM_THRESHOLD_BYTES = 32 << 20
_M_TRIM_THRESHOLD = -1  # mallopt parameter numbers of glibc's malloc.h
_M_MMAP_THRESHOLD = -3


def _set_allocator_policy() -> None:
    """Apply the allocator policy above; does nothing outside glibc."""
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # glibc only
        mallopt = libc.mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


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


def build_preconditioner(kind, r, op, K0_factor):
    """All four families take K0_factor(), the cell's K_0 factor, and ask
    `op` for the rest: P_r's pairs, its parity classes and kron's G."""
    if kind == "mean":
        return precond.build_mean_based(K0_factor(), op.leading(0), op.parity_classes(0))
    if kind == "kron":
        return precond.build_kron(op, K0_factor())
    if kind == "trunc_exact":
        return precond.build_trunc_exact(K0_factor(), op.leading(r), op.parity_classes(r))
    return precond.build_sbgs(K0_factor(), op.leading(r))


def solve_cell(cell: Cell, preconds, solver_cfg: pcg.SolverConfig):
    """Build `cell`, then solve it once per (kind, r) of `preconds`,
    yielding a ``Row`` as each solve ends."""
    _set_allocator_policy()
    op, f, _ = cell.build()
    # Built on first use, so that a K_0 it refuses ends as a labelled row of
    # each preconditioner, all of which take it.
    K0_factor = functools.cache(lambda: precond.CholeskyFactor(op.leading(0)[0][1]))
    for kind, r in preconds:
        # The r cell, on success and failure rows alike: 0 for mean, empty
        # for kron, the requested r for trunc_exact and the index of the
        # last term for sbgs.
        r_cell = len(op.leading(r)) - 1 if kind == "sbgs" else {"mean": 0}.get(kind, r)
        t0 = time.perf_counter()
        setup_s = 0.0  # until the preconditioner is built
        try:
            P = build_preconditioner(kind, r, op, K0_factor)
            setup_s = time.perf_counter() - t0
            _, rep = pcg.pcg_solve(op, P, f, solver_cfg)
            row = Row(kind, r_cell, rep.iterations, rep.converged, rep.final_relres,
                      setup_s, rep.solve_seconds, op.dim)
        except tuple(_FAILURE_LABELS) as exc:
            label = next(v for t, v in _FAILURE_LABELS.items() if isinstance(exc, t))
            setup_s = setup_s or time.perf_counter() - t0
            row = Row(f"{kind}!{label}", r_cell, 0, False, float("nan"), setup_s, 0.0, op.dim)
        yield row
