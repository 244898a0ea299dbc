"""Correctness gate for the rows of one `sgkron run` CSV.

Every row the workload attempts (cell x preconditioner) must be present
exactly once and:

- carry the label of the golden file (no ``!not_positive_definite`` or
  ``!breakdown`` suffix) and the golden ``n_unknowns``;
- be ``converged=true`` with a finite ``final_relres`` <= ``tol``;
- take a number of iterations within ``ITER_TOL`` of the paper's reference
  tables (tables 2, 3, 4 and 6 of the source paper, as in
  ``tests/test_acceptance.py``) where a reference exists, and otherwise
  within ``ITER_TOL`` of the golden file.

The golden files in ``perfbench/golden`` are the output of ``sgkron run``
at the commit that added the benchmark, without the timing columns;
``perfbench/record_golden.py`` rewrites them.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

ITER_TOL = 2

CSV_HEADER = (
    "problem,decay,h,M,k,precond,r,iterations,converged,"
    "final_relres,setup_s,solve_s,n_unknowns"
).split(",")
GOLDEN_HEADER = "problem,decay,h,M,k,precond,r,iterations,n_unknowns".split(",")

# trunc_exact r = 0..6 at h = 2^-4, M = 8 (table 2).
REFERENCE_TRUNC = {
    ("fast", 1): [13, 4, 3, 3, 2, 2, 2],
    ("fast", 2): [16, 5, 4, 3, 3, 2, 2],
    ("fast", 3): [21, 6, 4, 3, 3, 2, 2],
    ("fast", 4): [24, 6, 4, 3, 3, 3, 2],
    ("slow", 1): [10, 6, 4, 4, 4, 3, 3],
    ("slow", 2): [12, 7, 5, 5, 4, 4, 3],
    ("slow", 3): [14, 7, 6, 5, 4, 4, 4],
    ("slow", 4): [15, 8, 6, 5, 4, 4, 4],
}

# kron, mean, sbgs r = 1..6 at h = 2^-4, M = 8 (table 3).
REFERENCE_MODIFIED = {
    ("fast", 1): [12, 13, 7, 6, 6, 6, 6, 6],
    ("fast", 2): [16, 16, 8, 7, 7, 7, 7, 7],
    ("fast", 3): [20, 21, 9, 9, 8, 8, 8, 8],
    ("fast", 4): [24, 24, 10, 9, 9, 9, 9, 9],
    ("fast", 5): [26, 27, 11, 10, 10, 10, 10, 10],
    ("fast", 6): [29, 29, 12, 11, 11, 11, 11, 11],
    ("slow", 1): [9, 10, 6, 5, 5, 5, 5, 5],
    ("slow", 2): [12, 12, 7, 6, 6, 6, 5, 5],
    ("slow", 3): [14, 14, 8, 7, 6, 6, 6, 6],
    ("slow", 4): [15, 15, 9, 7, 7, 6, 6, 6],
    ("slow", 5): [16, 16, 9, 7, 7, 7, 6, 6],
    ("slow", 6): [17, 17, 10, 8, 7, 7, 7, 7],
}

# mean, sbgs 1, sbgs 2 at k = 3, keyed by (decay, M, mesh level) (table 4).
REFERENCE_MESH_SWEEP = {
    ("fast", 4, 3): [18, 8, 8],
    ("fast", 4, 4): [21, 9, 9],
    ("fast", 4, 5): [23, 10, 9],
    ("fast", 8, 3): [18, 8, 8],
    ("fast", 8, 4): [21, 9, 9],
    ("fast", 8, 5): [23, 10, 9],
    ("slow", 4, 3): [13, 7, 6],
    ("slow", 4, 4): [14, 8, 7],
    ("slow", 4, 5): [14, 8, 7],
    ("slow", 8, 3): [13, 7, 6],
    ("slow", 8, 4): [14, 8, 7],
    ("slow", 8, 5): [15, 8, 7],
}

# kron, mean, sbgs r = 1..6, lognormal at h = 2^-4, M = 6 (table 6).
REFERENCE_LOGNORMAL = {
    1: [12, 12, 6, 7, 6, 6, 6, 6],
    2: [18, 19, 8, 10, 9, 9, 8, 8],
}

MODIFIED_COLUMNS = [("kron", ""), ("mean", "0")] + [("sbgs", str(r)) for r in range(1, 7)]


def _reference_table() -> dict[tuple, int]:
    """Paper iteration counts keyed like :func:`row_key`."""
    ref = {}
    for (decay, k), counts in REFERENCE_TRUNC.items():
        for r, n in enumerate(counts):
            ref[("affine", decay, 4, 8, k, "trunc_exact", str(r))] = n
    for (decay, k), counts in REFERENCE_MODIFIED.items():
        for (kind, r), n in zip(MODIFIED_COLUMNS, counts):
            ref[("affine", decay, 4, 8, k, kind, r)] = n
    for (decay, M, level), counts in REFERENCE_MESH_SWEEP.items():
        for (kind, r), n in zip(MODIFIED_COLUMNS[1:4], counts):
            ref[("affine", decay, level, M, 3, kind, r)] = n
    for k, counts in REFERENCE_LOGNORMAL.items():
        for (kind, r), n in zip(MODIFIED_COLUMNS, counts):
            ref[("lognormal", "slow", 4, 6, k, kind, r)] = n
    return ref


REFERENCE = _reference_table()


def row_key(row: dict) -> tuple:
    """(problem, decay, mesh level, M, k, preconditioner kind, r cell)."""
    level = round(-math.log2(float(row["h"])))
    kind = row["precond"].split("!")[0]
    return (row["problem"], row["decay"], level, int(row["M"]), int(row["k"]), kind, row["r"])


def read_rows(path: Path, header: list[str]) -> list[dict]:
    """Complete rows of a CSV with the given header; a missing file, a wrong
    header or a short, long or malformed line yields no row for that line."""
    try:
        text = Path(path).read_text()
    except OSError:
        return []
    lines = text.split("\n")
    if not lines or lines[0].split(",") != header:
        return []
    rows = []
    # A line counts only when terminated: a cut-off last line is dropped.
    for line in lines[1:-1]:
        fields = next(csv.reader([line]), [])
        if len(fields) != len(header):
            continue
        row = dict(zip(header, fields))
        try:
            row_key(row)
            int(row["iterations"])
            int(row["n_unknowns"])
        except (ValueError, KeyError):
            continue
        rows.append(row)
    return rows


def load_golden(path: Path) -> dict[tuple, dict]:
    return {row_key(row): row for row in read_rows(path, GOLDEN_HEADER)}


def check_rows(rows: list[dict], golden: dict[tuple, dict], tol: float) -> tuple[int, list[str]]:
    """Gate the rows of one run against the golden rows.

    Returns (number of golden rows that fail or are missing, problems).
    A row the golden file does not know is a problem but not a failed row.
    """
    problems: list[str] = []
    seen: dict[tuple, list[dict]] = {}
    for row in rows:
        key = row_key(row)
        if key not in golden:
            problems.append(f"unexpected row {key}")
            continue
        seen.setdefault(key, []).append(row)
    failed = 0
    for key, want in golden.items():
        got = seen.get(key, [])
        if len(got) != 1:
            failed += 1
            problems.append(f"{key}: {len(got)} rows, expected 1")
            continue
        why = _row_problem(got[0], want, key, tol)
        if why:
            failed += 1
            problems.append(f"{key}: {why}")
    return failed, problems


def _row_problem(row: dict, want: dict, key: tuple, tol: float) -> str | None:
    if row["precond"] != want["precond"]:
        return f"label {row['precond']!r}, golden {want['precond']!r}"
    if row["converged"] != "true":
        return "not converged"
    try:
        relres = float(row["final_relres"])
    except ValueError:
        return f"final_relres {row['final_relres']!r} is not a number"
    if not relres <= tol:
        return f"final_relres {relres:.3e} above tol {tol:.1e}"
    if int(row["n_unknowns"]) != int(want["n_unknowns"]):
        return f"n_unknowns {row['n_unknowns']}, golden {want['n_unknowns']}"
    ref = REFERENCE.get(key)
    source = "paper reference"
    if ref is None:
        ref, source = int(want["iterations"]), "golden"
    it = int(row["iterations"])
    if abs(it - ref) > ITER_TOL:
        return f"{it} iterations, {source} {ref} (tolerance {ITER_TOL})"
    return None
