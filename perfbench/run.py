"""sgkron benchmark: paper-grid workloads through `sgkron run`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above this file and the
library is imported from its ``src``.  One run repeats passes of the
workload until ``--seconds`` have gone by (at least one pass).  A pass is
one fresh process (``perfbench/child.py``) that runs ``sgkron run`` on the
workload's config with BLAS pinned to one thread; its CSV is checked by
``perfbench/gate.py``.  The seed only permutes the order of the config's
list entries, so every seed solves the same cells.

``--trace 0`` reports the end-to-end metrics (medians over the passes),
with times scaled to a reference CPU speed by :class:`SpeedProbe`.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics computed from the traced passes' spans.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
machine and the measured, unscaled times.  The exit code is 0 only if every row of every pass passed the
gate.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "_runs"
GOLDEN = HERE / "golden"

BLAS_THREADS = 1
PASS_TIMEOUT_S = 170.0  # every run must end within 180 s

PROBE_LOOP = 3000  # pure-Python iterations per probe: about 0.2 ms
PROBE_PERIOD_S = 0.02
PROBE_REF_S = 2.0e-4  # probe duration that defines the reference speed

SBGS_ALL = [f"sbgs {r}" for r in range(1, 7)]

WORKLOADS = {
    "affine-sbgs": {
        "problem": "affine", "decay": ["fast", "slow"], "mesh_level": 4, "M": 8,
        "k": [1, 2, 3, 4], "preconditioners": ["kron", "mean"] + SBGS_ALL,
    },
    "affine-trunc": {
        "problem": "affine", "decay": ["fast", "slow"], "mesh_level": 4, "M": 8,
        "k": [1, 2, 3], "preconditioners": [f"trunc_exact {r}" for r in range(7)],
    },
    "lognormal": {
        "problem": "lognormal", "decay": "slow", "sigma_tilde": 2.0,
        "alpha_bar_mode": 0.547, "mesh_level": 4, "M": 6, "N": 20,
        "k": [1, 2, 3], "preconditioners": ["kron", "mean"] + SBGS_ALL,
    },
    "mesh-sweep": {
        "problem": "affine", "decay": ["fast", "slow"], "mesh_level": [3, 4, 5],
        "M": [4, 8], "k": 3, "preconditioners": ["mean", "sbgs 1", "sbgs 2"],
    },
}

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "solve_s": "s", "pcg_iterations": "count",
    "passed_share": "ratio", "peak_rss_mb": "MB",
}

KINDS = ("mean", "kron", "trunc_exact", "sbgs")

# Per-layer span tables: (time metric, call-count metric) -> names of the
# wrapped callables summed.  A span counts only when no enclosing span
# belongs to the same set.
LAYER_SPANS = {
    ("fem2d.assemble_s", "fem2d.assemble_calls"):
        ["fem2d.assemble_stiffness", "fem2d.assemble_from_quad_values"],
    ("fem2d.order_s", None): ["fem2d.order_by_magnitude"],
    ("fem2d.sample_s", None): ["fem2d.sup_norm", "fem2d.field_extrema", "fem2d.tau_r"],
    ("gram.build_s", "gram.terms"):
        ["gram.gram_general", "gram.gram_linear", "gram.gram_identity"],
    ("kronsys.build_s", None):
        ["kronsys.build_affine_system", "kronsys.build_lognormal_system"],
    ("kronsys.assemble_sparse_s", None): ["kronsys.assemble_sparse"],
    ("kronsys.matvec_s", "kronsys.matvec_calls"): ["kronsys.KroneckerSumOperator.matvec"],
    ("precond.factor_s", "precond.factor_calls"): ["precond.CholeskyFactor.__init__"],
    ("precond.spatial_solve_s", None): ["precond.CholeskyFactor.solve"],
}
SETUP_SPANS = {
    "mean": ["precond.build_mean_based"],
    "kron": ["precond.build_kron"],
    "trunc_exact": ["precond.build_trunc_exact"],
    "sbgs": ["precond.build_sbgs_affine", "precond.build_sbgs_lognormal"],
}
APPLY_SPANS = {
    "mean": ["precond.MeanBasedPreconditioner.apply_inverse"],
    "kron": ["precond.KroneckerProductPreconditioner.apply_inverse"],
    "trunc_exact": ["precond.TruncExactPreconditioner.apply_inverse"],
    "sbgs": ["precond.SbgsAffinePreconditioner.apply_inverse",
             "precond.PairBlockSbgs.apply_inverse"],
}
OUTER_SOLVE = "pcg.pcg_solve"

PER_LAYER_UNITS = {
    "fem2d.assemble_s": "s", "fem2d.assemble_calls": "count", "fem2d.order_s": "s",
    "fem2d.sample_s": "s", "gram.build_s": "s", "gram.terms": "count",
    "kronsys.build_s": "s", "kronsys.assemble_sparse_s": "s",
    "kronsys.matvec_s": "s", "kronsys.matvec_calls": "count",
    "kronsys.matvec_flops": "flop-computed", "kronsys.matvec_bytes": "B-computed",
    "precond.factor_s": "s", "precond.factor_calls": "count",
    "precond.spatial_solve_s": "s", "precond.spatial_solve_cols": "count",
    **{f"precond.setup_s.{k}": "s" for k in KINDS},
    **{f"precond.apply_s.{k}": "s" for k in KINDS},
    **{f"precond.apply_calls.{k}": "count" for k in KINDS},
    "precond.inner_iterations": "count", "pcg.self_s": "s",
    "cli.startup_s": "s", "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark itself cannot run or cannot see what it measures."""


class SpeedProbe:
    """Samples the speed of the CPU that the passes run on.

    On a shared machine a CPU's speed drifts, by up to about 1.5x, over
    seconds to minutes, and a pass's time drifts with it.  Inside the
    ``with`` block the benchmark process, and so every pass it starts, is
    pinned to one CPU.  A thread of the benchmark process, which otherwise
    only waits for the pass, times a fixed pure-Python loop on that CPU
    every ``PROBE_PERIOD_S``.  The mean probe time over a pass's interval
    tracks the pass's speed, so the pass's times can be scaled to the
    reference speed at which the probe takes ``PROBE_REF_S``.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._affinity = os.sched_getaffinity(0)
        self.cpu = max(self._affinity)

    def __enter__(self) -> "SpeedProbe":
        os.sched_setaffinity(0, {self.cpu})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._affinity)

    def _loop(self) -> None:
        clock = time.monotonic
        while not self._stop.is_set():
            t = clock()
            acc = 0
            for i in range(PROBE_LOOP):
                acc += i * i
            self.samples.append((t, clock() - t))
            self._stop.wait(PROBE_PERIOD_S)

    def speed(self, start: float, end: float) -> float:
        """PROBE_REF_S over the mean probe time in [start, end]; a pass too
        short to hold ten probes uses every probe taken so far."""
        window = [d for t, d in self.samples if start <= t <= end]
        if len(window) < 10:
            window = [d for _, d in self.samples]
        if not window:
            raise BenchError("the speed probe took no sample")
        return PROBE_REF_S / statistics.fmean(window)


def workload_config(name: str, seed: int) -> dict:
    """The workload's config with every list entry order permuted by seed."""
    rng = random.Random(f"{name}/{seed}")
    cfg = json.loads(json.dumps(WORKLOADS[name]))
    for value in cfg.values():
        if isinstance(value, list):
            rng.shuffle(value)
    return cfg


def attempted_rows(cfg: dict) -> int:
    n = len(cfg["preconditioners"])
    for key in ("decay", "mesh_level", "M", "k"):
        value = cfg[key]
        n *= len(value) if isinstance(value, list) else 1
    return n


def run_pass(cfg_path: Path, out_dir: Path, tag: str, golden: dict, tol: float,
             trace: bool, timeout: float, probe: SpeedProbe) -> dict:
    """One child process; returns its stats, gate result and, if traced, layer metrics."""
    rows_csv = out_dir / f"{tag}.csv"
    stats_path = out_dir / f"{tag}.stats.json"
    spans_path = out_dir / f"{tag}.spans.jsonl"
    for p in (rows_csv, stats_path, spans_path):
        p.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(cfg_path), str(rows_csv),
           str(stats_path)]
    if trace:
        cmd += [str(spans_path), tag]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=out_dir, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
        err = proc.stderr if proc.returncode else ""
    except subprocess.TimeoutExpired:
        err = f"pass timed out after {timeout:.0f} s"
    rows = gate.read_rows(rows_csv, gate.CSV_HEADER)
    failed, problems = gate.check_rows(rows, golden, tol)
    result = {"tag": tag, "traced": trace, "failed": failed, "problems": problems}
    try:
        stats = json.loads(stats_path.read_text())
    except (OSError, ValueError):
        result["problems"].append(f"pass died: {err.strip()[-2000:]}")
        return result
    if rows and not stats["solve_calls"]:
        raise BenchError("the solve timer saw no outer pcg_solve call")
    result["stats"] = stats
    result["wall_s"] = stats["t_end"] - t_spawn
    result["speed"] = probe.speed(t_spawn, stats["t_end"])
    result["startup_s"] = stats["t_imported"] - t_spawn
    if trace:
        result["layers"] = layer_metrics(load_spans(spans_path), stats)
    return result


def load_spans(path: Path) -> list[tuple]:
    """(name, start, end, parent) per span, in start order."""
    spans = []
    with open(path) as fh:
        for line in fh:
            s = json.loads(line)
            spans.append((s["name"], s["start"], s["end"], s["parent"]))
    return spans


def topmost(spans: list[tuple], names) -> list[int]:
    """Indices of spans named in `names` with no enclosing span so named."""
    names = set(names)
    inside = [False] * len(spans)
    out = []
    for i, (name, _, _, parent) in enumerate(spans):
        enclosed = parent >= 0 and inside[parent]
        if name in names and not enclosed:
            out.append(i)
        inside[i] = enclosed or name in names
    return out


def layer_metrics(spans: list[tuple], stats: dict) -> dict[str, float]:
    def duration(idx):
        return sum(spans[i][2] - spans[i][1] for i in idx)

    m: dict[str, float] = {}
    for (time_name, calls_name), names in LAYER_SPANS.items():
        idx = topmost(spans, names)
        m[time_name] = duration(idx)
        if calls_name:
            m[calls_name] = len(idx)
    all_apply = [n for names in APPLY_SPANS.values() for n in names]
    outer_apply = topmost(spans, all_apply)
    for kind in KINDS:
        idx = topmost(spans, SETUP_SPANS[kind])
        m[f"precond.setup_s.{kind}"] = duration(idx)
        mine = [i for i in outer_apply if spans[i][0] in APPLY_SPANS[kind]]
        m[f"precond.apply_s.{kind}"] = duration(mine)
        m[f"precond.apply_calls.{kind}"] = len(mine)

    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    outer = topmost(spans, [OUTER_SOLVE])
    m["pcg.self_s"] = sum(spans[i][2] - spans[i][1] - child_time[i] for i in outer)

    counters = stats["counters"]
    m["kronsys.matvec_flops"] = counters.get("kronsys.matvec_flops", 0)
    m["kronsys.matvec_bytes"] = counters.get("kronsys.matvec_bytes", 0)
    m["precond.spatial_solve_cols"] = counters.get("precond.spatial_solve_cols", 0)
    m["precond.inner_iterations"] = m["kronsys.matvec_calls"] - stats["outer_iterations"]
    return m


def check_visibility(layers: dict, cfg: dict) -> None:
    """Fail loudly when span names no longer match the library."""
    kinds = {p.split()[0] for p in cfg["preconditioners"]}
    missing = [k for k in kinds
               if not layers[f"precond.setup_s.{k}"] or not layers[f"precond.apply_calls.{k}"]]
    for name in ("fem2d.assemble_calls", "kronsys.matvec_calls", "precond.factor_calls"):
        if not layers[name]:
            missing.append(name)
    if missing:
        raise BenchError(f"traced run saw no spans for {missing}; "
                         "update the span tables in perfbench/run.py")


def machine_info(stats: dict | None) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "blas_threads_pinned": BLAS_THREADS,
        "blas": stats["blas"] if stats else None,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def end_to_end(passes: list[dict], attempted: int, failed: int) -> tuple[dict, dict]:
    """(metrics with times at the reference speed, the same times as measured)."""
    plain = [p for p in passes if "stats" in p and not p["traced"]]
    if not plain:
        return {}, {}
    med = statistics.median

    def times(scaled: bool) -> dict[str, float]:
        def at(p, seconds):
            return seconds * p["speed"] if scaled else seconds
        return {
            "wall_s": med(at(p, p["wall_s"]) for p in plain),
            "setup_s": med(at(p, p["wall_s"] - p["stats"]["solve_s"]) for p in plain),
            "solve_s": med(at(p, p["stats"]["solve_s"]) for p in plain),
        }

    values = {
        **times(scaled=True),
        "pcg_iterations": statistics.median_low(p["stats"]["outer_iterations"] for p in plain),
        "passed_share": 1.0 - failed / attempted,
        "peak_rss_mb": med(p["stats"]["maxrss_kb"] / 1024.0 for p in plain),
    }
    return values, times(scaled=False)


def per_layer(passes: list[dict]) -> dict[str, float]:
    ok = [p for p in passes if "stats" in p]
    traced = [p for p in ok if p["traced"]]
    plain = [p for p in ok if not p["traced"]]
    if not traced or not plain:
        return {}
    med = statistics.median
    out = {
        name: (statistics.median_low if unit == "count" else med)(p["layers"][name] for p in traced)
        for name, unit in PER_LAYER_UNITS.items() if name in traced[0]["layers"]
    }
    out["cli.startup_s"] = med(p["startup_s"] for p in ok)
    out["trace.overhead_s"] = (med(p["wall_s"] * p["speed"] for p in traced)
                               - med(p["wall_s"] * p["speed"] for p in plain))
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, list]:
    if not (ROOT / "src" / "sgkron" / "cli.py").is_file():
        raise BenchError(f"no sgkron sources under {ROOT / 'src'}")
    cfg = workload_config(workload, seed)
    tol = float(cfg.get("tol", 1e-6))
    golden = gate.load_golden(GOLDEN / f"{workload}.csv")
    if len(golden) != attempted_rows(cfg):
        raise BenchError(f"golden file has {len(golden)} rows, workload attempts "
                         f"{attempted_rows(cfg)}")
    out_dir = RUNS / f"{workload}-seed{seed}-trace{int(trace)}"
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = out_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1))

    passes: list[dict] = []
    t0 = time.monotonic()
    longest = 0.0
    with SpeedProbe() as probe:
        while True:
            # Start another pass while at least half of one fits in the budget
            # (a traced run needs one pass of each kind), and never one that
            # could overrun the per-run time limit.
            elapsed = time.monotonic() - t0
            need_mode = trace and {p["traced"] for p in passes} != {False, True}
            fits = elapsed + 0.5 * longest <= seconds
            if passes and (not (need_mode or fits) or elapsed + 1.5 * longest > PASS_TIMEOUT_S):
                break
            traced_pass = trace and len(passes) % 2 == 1
            t_pass = time.monotonic()
            passes.append(run_pass(cfg_path, out_dir, f"pass{len(passes)}", golden, tol,
                                   traced_pass, PASS_TIMEOUT_S - elapsed, probe))
            longest = max(longest, time.monotonic() - t_pass)

    attempted = attempted_rows(cfg) * len(passes)
    failed = sum(p["failed"] for p in passes)
    problems = [f"{p['tag']}: {msg}" for p in passes for msg in p["problems"]]
    if trace:
        for p in passes:
            if "layers" in p:
                check_visibility(p["layers"], cfg)
        values, units, measured = per_layer(passes), PER_LAYER_UNITS, {}
    else:
        (values, measured), units = end_to_end(passes, attempted, failed), END_TO_END_UNITS
    correct = not problems and set(values) == set(units)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values},
    }
    first = next((p["stats"] for p in passes if "stats" in p), None)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": {**machine_info(first), "pinned_cpu": probe.cpu},
        "result": result, "measured": measured, "problems": problems,
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
    }
    (out_dir / "result.json").write_text(json.dumps(record, indent=1, default=str))
    return result, record["machine"], measured, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, machine, measured, problems = run(args.workload, args.seed, args.seconds,
                                                  bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for msg in problems[:50]:
        print(f"gate: {msg}", file=sys.stderr)
    print("machine: " + json.dumps(machine))
    if measured:
        print("measured (not speed-scaled): " + json.dumps(measured))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
