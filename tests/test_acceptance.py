"""Acceptance suite: one test per acceptance criterion, run end to end.

Reference iteration counts for the benchmark grids are reproduced through
the CLI presets and compared cell by cell with a tolerance of +-2
iterations; structural and oracle criteria are checked at tight numeric
tolerances.  Each criterion is a single test so that `pytest -v` emits
one pass/fail line per criterion.
"""

import math
from dataclasses import replace

from sgkron import cli, fem2d, multiindex, spectral, verify
from sgkron.verify import SmallConfig

ITER_TOL = 2

# trunc_exact r = 0..6 at h = 2^-4, M = 8.
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

# kron, mean, sbgs r = 1..6 at h = 2^-4, M = 8.
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

# mean, sbgs 1, sbgs 2 at k = 3 for mesh levels 3, 4, 5 and M = 4, 8.
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

# kron, mean, sbgs r = 1..6 for the lognormal problem at h = 2^-4, M = 6.
REFERENCE_LOGNORMAL = {
    1: [12, 12, 6, 7, 6, 6, 6, 6],
    2: [18, 19, 8, 10, 9, 9, 8, 8],
}

# Leading expansion terms of the lognormal coefficient (M = 6, degree 12,
# N = 20, sigma_tilde = 2, alpha_bar = 0.547) and their sup-norms.
REFERENCE_LEADING_TERMS = [
    ((0, 0, 0, 0, 0, 0), 3.20),
    ((1, 0, 0, 0, 0, 0), 1.75),
    ((2, 0, 0, 0, 0, 0), 0.68),
    ((0, 1, 0, 0, 0, 0), 0.44),
    ((1, 1, 0, 0, 0, 0), 0.24),
    ((3, 0, 0, 0, 0, 0), 0.21),
    ((0, 0, 1, 0, 0, 0), 0.19),
    ((0, 0, 0, 1, 0, 0), 0.11),
]


def run_preset(tmp_path_factory, name, *extra):
    out = tmp_path_factory.mktemp("accept") / f"{name}.csv"
    code = cli.main(["run", "--preset", name, *extra, "--out", str(out)])
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return code, rows


def column_key(row):
    """(label, r) identifying a preconditioner column; kron carries no r."""
    if row["precond"] == "kron":
        return ("kron",)
    if row["precond"] == "mean":
        return ("mean",)
    return (row["precond"], int(row["r"]))


MODIFIED_COLUMNS = [("kron",), ("mean",)] + [("sbgs", r) for r in range(1, 7)]


def test_criterion_01_truncation_iteration_counts(tmp_path_factory):
    code, rows = run_preset(tmp_path_factory, "table2")
    assert code == 0
    got = {}
    for row in rows:
        assert row["precond"] == "trunc_exact"
        assert row["converged"] == "true"
        got[(row["decay"], int(row["k"]), int(row["r"]))] = int(row["iterations"])
    assert len(got) == 56
    for (decay, k), expected in REFERENCE_TRUNC.items():
        for r, ref in enumerate(expected):
            assert abs(got[(decay, k, r)] - ref) <= ITER_TOL, (
                f"{decay} k={k} r={r}: {got[(decay, k, r)]} vs reference {ref}"
            )


def test_criterion_02_modified_preconditioner_counts(tmp_path_factory):
    code, rows = run_preset(tmp_path_factory, "table3")
    assert code == 0
    got = {}
    for row in rows:
        assert row["converged"] == "true"
        got[(row["decay"], int(row["k"])) + column_key(row)] = int(row["iterations"])
    assert len(got) == 96
    for (decay, k), expected in REFERENCE_MODIFIED.items():
        for col, ref in zip(MODIFIED_COLUMNS, expected):
            val = got[(decay, k) + col]
            assert abs(val - ref) <= ITER_TOL, (
                f"{decay} k={k} {col}: {val} vs reference {ref}"
            )


def test_criterion_03_mesh_and_dimension_independence(tmp_path_factory):
    code, rows = run_preset(tmp_path_factory, "table4")
    assert code == 0
    got = {}
    for row in rows:
        level = round(-math.log2(float(row["h"])))
        got[(row["decay"], int(row["M"]), level) + column_key(row)] = int(
            row["iterations"]
        )
    assert len(got) == 36
    columns = [("mean",), ("sbgs", 1), ("sbgs", 2)]
    for (decay, M, level), expected in REFERENCE_MESH_SWEEP.items():
        for col, ref in zip(columns, expected):
            val = got[(decay, M, level) + col]
            assert abs(val - ref) <= ITER_TOL, (
                f"{decay} M={M} h=2^-{level} {col}: {val} vs reference {ref}"
            )
    # Counts must not depend on the number of retained parameters.
    for decay in ("fast", "slow"):
        for level in (3, 4, 5):
            for col in columns:
                a = got[(decay, 4, level) + col]
                b = got[(decay, 8, level) + col]
                assert abs(a - b) <= 1, f"{decay} h=2^-{level} {col}: M=4 {a} vs M=8 {b}"
    # Mesh refinement must not move the modified-preconditioner counts by
    # more than one iteration between the two finest levels.  The mean-based
    # counts themselves drift by two in the reference data, so the drift
    # check covers the block Gauss-Seidel columns.
    for decay in ("fast", "slow"):
        for M in (4, 8):
            for col in [("sbgs", 1), ("sbgs", 2)]:
                a = got[(decay, M, 4) + col]
                b = got[(decay, M, 5) + col]
                assert abs(a - b) <= 1, f"{decay} M={M} {col}: L4 {a} vs L5 {b}"


def test_criterion_04_lognormal_counts(tmp_path_factory):
    code, rows = run_preset(tmp_path_factory, "table6", "--max-k", "2")
    assert code == 0
    got = {}
    for row in rows:
        assert row["problem"] == "lognormal"
        assert row["converged"] == "true"
        got[(int(row["k"]),) + column_key(row)] = int(row["iterations"])
    assert len(got) == 16
    for k, expected in REFERENCE_LOGNORMAL.items():
        for col, ref in zip(MODIFIED_COLUMNS, expected):
            val = got[(k,) + col]
            assert abs(val - ref) <= ITER_TOL, f"k={k} {col}: {val} vs reference {ref}"


def test_criterion_05_expansion_ordering():
    full = multiindex.build_index_set(6, 12)
    b0 = fem2d.fourier_coefficient(0, 2.0, 0.547)
    b_fields = [fem2d.fourier_coefficient(m, 2.0, 0.547) for m in range(1, 21)]
    ordered = fem2d.order_by_magnitude(full, b_fields, b0)
    leading = ordered[: len(REFERENCE_LEADING_TERMS)]
    got_alphas = [alpha for alpha, _ in leading]
    ref_alphas = [alpha for alpha, _ in REFERENCE_LEADING_TERMS]
    assert got_alphas == ref_alphas
    for (_, mag), (_, ref) in zip(leading, REFERENCE_LEADING_TERMS):
        # The references carry two decimals, so the comparison allows half a
        # unit in the last printed place where that exceeds 2% relative.
        assert abs(mag - ref) <= max(0.02 * ref, 0.005), (
            f"magnitude {mag} vs reference {ref}"
        )
        assert f"{mag:.2f}" == f"{ref:.2f}"


def test_criterion_06_spectral_inclusions():
    # Every claimed inclusion for r = 0..3 at both decay rates.
    for sigma_tilde in (2.0, 4.0):
        verify.prop_inclusions_tiny(SmallConfig(sigma_tilde=sigma_tilde))


def test_criterion_07_structural_properties():
    # Gram factors couple only neighbours in one coordinate (at most two
    # off-diagonal entries per row, a zero diagonal), and each block row of
    # the affine system matrix holds at most 2M+1 blocks.
    verify.prop_gram_structure()
    verify.prop_block_row_count(SmallConfig(M=4, k=3))

    # Every preconditioner inverts its dense formula, the block Gauss-Seidel
    # one (D + L) D^-1 (D + L)^T included, affine and lognormal, and the
    # lognormal sweep stays positive definite even where the plain
    # truncation is indefinite.
    verify.prop_precond_dense_formula(SmallConfig(r=2))
    lognormal = SmallConfig("lognormal", k=3, r=3)
    verify.prop_precond_dense_formula(lognormal)
    verify.prop_sbgs_lognormal_spd(replace(lognormal, r=5))
    op, _, _ = lognormal.build()
    report = spectral.lognormal_spd_report(op, range(6))
    assert any(not c.applicable for c in report if c.claim == "trunc_spd")


def test_criterion_08_independent_oracles():
    # Kronecker-structured matvec against the densely assembled matrix,
    # Gram entries against a full tensor quadrature over all parameters,
    # the Kronecker-product coefficient matrix against the explicit
    # least-squares solution of the Frobenius fitting problem, and the
    # lognormal expansion coefficients against per-parameter Gauss-Hermite
    # quadrature of E[exp(b) psi_alpha].
    verify.prop_matvec_vs_dense(SmallConfig())
    verify.prop_matvec_vs_dense(SmallConfig("lognormal", k=3))
    verify.prop_gram_vs_quadrature()
    verify.prop_kron_frobenius_lsq()
    verify.prop_lognormal_coeff_quadrature()
