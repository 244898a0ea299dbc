"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q

They run the harness on a tiny config (a few seconds) and check the
correctness gate on the recorded golden files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import record_golden  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "problem": "affine", "decay": ["fast", "slow"], "mesh_level": 2, "M": 2, "k": [1, 2],
    "preconditioners": ["kron", "mean", "sbgs 1", "trunc_exact 1"],
}


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    """The tiny workload registered with its own golden file and run directory."""
    monkeypatch.setattr(run, "GOLDEN", tmp_path)
    monkeypatch.setattr(run, "RUNS", tmp_path / "runs")
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    record_golden.record(TINY, tmp_path / "tiny.csv")
    return "tiny"


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_named_metric_comes_out_with_its_unit(tiny, trace, section):
    result, machine, _, problems = run.run(tiny, seed=3, seconds=0, trace=trace)
    assert problems == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.attempted_rows(TINY) * (2 if trace else 1)
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    assert machine["blas_threads_pinned"] == 1
    assert machine["blas"]["threads"] and set(machine["blas"]["threads"].values()) == {1}


def test_end_to_end_metrics_add_up(tiny):
    result, _, measured, _ = run.run(tiny, seed=4, seconds=0, trace=False)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["setup_s"] + m["solve_s"] == pytest.approx(m["wall_s"])
    assert measured["setup_s"] + measured["solve_s"] == pytest.approx(measured["wall_s"])
    assert m["wall_s"] / measured["wall_s"] == pytest.approx(m["solve_s"] / measured["solve_s"])
    golden = gate.load_golden(run.GOLDEN / "tiny.csv")
    assert m["pcg_iterations"] == sum(int(r["iterations"]) for r in golden.values())
    assert m["passed_share"] == 1.0


def _csv_text(golden: dict) -> str:
    """A passing `sgkron run` CSV synthesized from golden rows."""
    lines = [",".join(gate.CSV_HEADER)]
    for row in golden.values():
        full = dict(row, converged="true", final_relres="5.000000e-07",
                    setup_s="0.01", solve_s="0.02")
        lines.append(",".join(full[c] for c in gate.CSV_HEADER))
    return "\n".join(lines) + "\n"


def _rows(tmp_path, text: str) -> list[dict]:
    path = tmp_path / "rows.csv"
    path.write_text(text)
    return gate.read_rows(path, gate.CSV_HEADER)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_golden_rows_pass_the_gate(tmp_path, workload):
    golden = gate.load_golden(run.GOLDEN / f"{workload}.csv")
    assert len(golden) == run.attempted_rows(run.WORKLOADS[workload])
    failed, problems = gate.check_rows(_rows(tmp_path, _csv_text(golden)), golden, 1e-6)
    assert (failed, problems) == (0, [])


def test_golden_rows_agree_with_the_paper_tables():
    for workload in run.WORKLOADS:
        for key, row in gate.load_golden(run.GOLDEN / f"{workload}.csv").items():
            ref = gate.REFERENCE.get(key)
            if ref is not None:
                assert abs(int(row["iterations"]) - ref) <= gate.ITER_TOL, key


def test_tampered_iteration_count_fails_the_gate(tmp_path):
    golden = gate.load_golden(run.GOLDEN / "affine-trunc.csv")
    rows = _rows(tmp_path, _csv_text(golden))
    key = gate.row_key(rows[5])
    assert key in gate.REFERENCE
    rows[5]["iterations"] = str(gate.REFERENCE[key] + gate.ITER_TOL + 1)
    failed, problems = gate.check_rows(rows, golden, 1e-6)
    assert failed == 1 and "paper reference" in problems[0]


def test_tampered_golden_row_fails_the_gate(tmp_path):
    """Rows without a paper reference (lognormal k = 3) are held to the golden file."""
    golden = gate.load_golden(run.GOLDEN / "lognormal.csv")
    rows = _rows(tmp_path, _csv_text(golden))
    key = next(k for k in golden if k[4] == 3)
    assert key not in gate.REFERENCE
    golden[key] = dict(golden[key], iterations=str(int(golden[key]["iterations"]) + 3))
    failed, problems = gate.check_rows(rows, golden, 1e-6)
    assert failed == 1 and "golden" in problems[0]


@pytest.mark.parametrize("field,value,why", [
    ("precond", "sbgs!not_positive_definite", "label"),
    ("converged", "false", "not converged"),
    ("final_relres", "nan", "above tol"),
    ("final_relres", "2.0e-06", "above tol"),
    ("n_unknowns", "2026", "n_unknowns"),
])
def test_bad_row_fails_the_gate(tmp_path, field, value, why):
    golden = gate.load_golden(run.GOLDEN / "affine-sbgs.csv")
    rows = _rows(tmp_path, _csv_text(golden))
    row = next(r for r in rows if r["precond"] == "sbgs")
    row[field] = value
    failed, problems = gate.check_rows(rows, golden, 1e-6)
    assert failed == 1 and why in problems[0]


def test_truncated_csv_counts_missing_rows_as_failed(tmp_path):
    golden = gate.load_golden(run.GOLDEN / "mesh-sweep.csv")
    text = _csv_text(golden)
    lines = text.split("\n")
    cut = len("\n".join(lines[:11])) + 7  # header + 10 rows, then part of a row
    failed, problems = gate.check_rows(_rows(tmp_path, text[:cut]), golden, 1e-6)
    assert failed == len(golden) - 10
    assert all("0 rows, expected 1" in p for p in problems)


def test_duplicate_and_unknown_rows_are_problems(tmp_path):
    golden = gate.load_golden(run.GOLDEN / "mesh-sweep.csv")
    rows = _rows(tmp_path, _csv_text(golden))
    failed, problems = gate.check_rows(rows + rows[:1], golden, 1e-6)
    assert failed == 1
    extra = dict(rows[0], M="5")
    failed, problems = gate.check_rows(rows + [extra], golden, 1e-6)
    assert failed == 0 and problems and "unexpected" in problems[0]


def test_seed_permutes_order_only():
    a, b = run.workload_config("affine-sbgs", 1), run.workload_config("affine-sbgs", 2)
    assert a == run.workload_config("affine-sbgs", 1) and a != b
    for key, value in run.WORKLOADS["affine-sbgs"].items():
        if isinstance(value, list):
            assert sorted(map(str, a[key])) == sorted(map(str, value))
        else:
            assert a[key] == value


def test_self_time_and_topmost_from_spans():
    spans = [
        ("pcg.pcg_solve", 0.0, 10.0, -1),
        ("kronsys.KroneckerSumOperator.matvec", 1.0, 4.0, 0),
        ("precond.TruncExactPreconditioner.apply_inverse", 4.0, 9.0, 0),
        ("pcg.pcg_solve", 4.5, 8.5, 2),
        ("kronsys.KroneckerSumOperator.matvec", 5.0, 6.0, 3),
    ]
    assert run.topmost(spans, ["pcg.pcg_solve"]) == [0]
    assert run.topmost(spans, ["kronsys.KroneckerSumOperator.matvec"]) == [1, 4]
    stats = {"counters": {}, "outer_iterations": 1}
    m = run.layer_metrics(spans, stats)
    assert m["pcg.self_s"] == pytest.approx(2.0)
    assert m["kronsys.matvec_calls"] == 2
    assert m["precond.inner_iterations"] == 1
    assert m["precond.apply_s.trunc_exact"] == pytest.approx(5.0)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mesh-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
