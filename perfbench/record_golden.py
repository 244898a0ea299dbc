"""Rewrite perfbench/golden/<workload>.csv from the current library.

    python3 perfbench/record_golden.py

Runs each workload's config (unpermuted) through `sgkron run` and keeps the
deterministic columns the gate compares against.  The golden files are
meant to be recorded once, at the commit that defines the benchmark; a
change that moves a golden value needs its own justification.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import gate
import run


def record(cfg: dict, path: Path) -> None:
    """Run `sgkron run` on cfg and write its golden columns to path."""
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        csv_path = Path(tmp) / "rows.csv"
        code = subprocess.call(
            [sys.executable, "-m", "sgkron.cli", "run", str(cfg_path), "--out", str(csv_path)],
            env=env, stderr=subprocess.DEVNULL,
        )
        rows = gate.read_rows(csv_path, gate.CSV_HEADER)
    if code != 0 or len(rows) != run.attempted_rows(cfg):
        raise RuntimeError(f"exit code {code}, {len(rows)} of {run.attempted_rows(cfg)} rows")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(gate.GOLDEN_HEADER)
        for row in rows:
            writer.writerow(row[c] for c in gate.GOLDEN_HEADER)


def main() -> int:
    run.GOLDEN.mkdir(exist_ok=True)
    for name, cfg in run.WORKLOADS.items():
        record(cfg, run.GOLDEN / f"{name}.csv")
        print(f"{name}: {run.attempted_rows(cfg)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
