"""One benchmark pass: `sgkron run` on a config, inside one process.

Run by ``perfbench/run.py`` as

    python3 perfbench/child.py <config.json> <rows.csv> <stats.json> [<spans.jsonl> <run-id>]

with ``PYTHONPATH`` pointing at the checkout's ``src`` and BLAS pinned to
one thread.  The pass imports ``sgkron``, calls ``sgkron.cli.main(["run",
...])`` exactly as the command line does, and writes ``stats.json``:
monotonic time stamps (the parent measures wall time from its own spawn
time stamp), the summed time and iterations of the outer PCG solves, the
exit code, the peak resident memory and the BLAS set-up.

With a spans path the pass is traced: every public function and method of
the ``sgkron`` modules is wrapped, from outside the library, in a wrapper
that records a span (name, start, end, parent span, run id) in memory.  The
spans are written out once the run has ended.  The library is not edited.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import ctypes  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
import weakref  # noqa: E402

import sgkron.cli as cli  # noqa: E402
from sgkron import pcg  # noqa: E402

T_IMPORTED = time.monotonic()

# Leaf helpers called once per matrix entry from inside the Gram and index
# builders; their time is part of the gram/kronsys spans that call them.
UNTRACED_MODULES = ("sgkron.multiindex", "sgkron.orthopoly")


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(self.counters, args)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "run": self.run_id,
                }) + "\n")


def _add(counters: dict, key: str, value: float) -> None:
    counters[key] = counters.get(key, 0) + value


def matvec_cost(op) -> tuple[int, int]:
    """Computed (not measured) flops and bytes of one Kronecker-sum matvec.

    Per term G (x) K on a block vector of ny blocks of length nx:
    W = K V costs 2 nnz(K) ny flops, G W^T costs 2 nnz(G) nx flops and the
    accumulation nx ny flops.  Bytes assume every operand is streamed once
    per product: the CSR data and indices of K and G (12 bytes per non-zero
    plus 4 per row pointer), V read and W written, W read and G W^T
    written, and the accumulator read and written with G W^T read.
    """
    nx, ny = op.nx, op.ny
    flops = 0
    nbytes = 0
    for G, K in op.terms:
        flops += 2 * K.nnz * ny + 2 * G.nnz * nx + nx * ny
        nbytes += 12 * (K.nnz + G.nnz) + 4 * (nx + ny + 2) + 8 * nx * ny * 7
    return flops, nbytes


def _matvec_hook():
    cache: dict[int, tuple] = {}

    def hook(counters, args):
        op = args[0]
        entry = cache.get(id(op))
        if entry is None or entry[0]() is not op:
            entry = (weakref.ref(op), *matvec_cost(op))
            cache[id(op)] = entry
        _add(counters, "kronsys.matvec_flops", entry[1])
        _add(counters, "kronsys.matvec_bytes", entry[2])

    return hook


def _solve_cols_hook(counters, args):
    b = args[1]
    _add(counters, "precond.spatial_solve_cols", 1 if b.ndim == 1 else b.shape[1])


def install_tracer(tracer: Tracer) -> int:
    """Wrap the public functions and methods of every loaded sgkron module.

    Module-level functions are replaced in every sgkron namespace that
    binds them (so ``from .pcg import pcg_solve as _inner_solve`` in
    ``precond`` sees the wrapper too); methods are replaced on their class.
    Returns the number of wrapped callables.
    """
    hooks = {
        "kronsys.KroneckerSumOperator.matvec": _matvec_hook(),
        "precond.CholeskyFactor.solve": _solve_cols_hook,
    }
    modules = [
        m for name, m in sorted(sys.modules.items())
        if name.startswith("sgkron.") and m is not None
    ]
    replaced: dict[int, object] = {}
    count = 0
    for mod in modules:
        if mod.__name__ in UNTRACED_MODULES:
            continue
        short = mod.__name__.split(".", 1)[1]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                name = f"{short}.{attr}"
                replaced[id(obj)] = tracer.wrap(name, obj, hooks.get(name))
                count += 1
            elif isinstance(obj, type):
                for mname, meth in list(vars(obj).items()):
                    if not isinstance(meth, types.FunctionType):
                        continue
                    if mname != "__init__" and mname.startswith("_"):
                        continue
                    # dataclass-generated methods have no source in the module
                    if meth.__code__.co_filename != mod.__file__:
                        continue
                    name = f"{short}.{obj.__name__}.{mname}"
                    setattr(obj, mname, tracer.wrap(name, meth, hooks.get(name)))
                    count += 1
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None and isinstance(obj, types.FunctionType):
                setattr(mod, attr, wrapper)
    return count


def install_solve_timer(stats: dict) -> None:
    """Time the outer PCG solves: the ones ``cli`` calls as ``pcg.pcg_solve``.

    Inner solves of ``trunc_exact`` go through ``precond``'s own binding
    and are therefore part of the preconditioner apply, not counted here.
    """
    solve = pcg.pcg_solve

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            u, rep = solve(*args, **kwargs)
        finally:
            stats["solve_s"] += time.perf_counter() - t0
            stats["solve_calls"] += 1
        stats["outer_iterations"] += rep.iterations
        return u, rep

    pcg.pcg_solve = timed


def blas_info() -> dict:
    """Name and version of numpy's and scipy's BLAS, and the run-time thread
    count of each OpenBLAS library loaded in this process."""
    import numpy
    import scipy

    info: dict = {}
    for pkg in (numpy, scipy):
        cfg = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info[pkg.__name__] = {"name": cfg.get("name"), "version": cfg.get("version")}
    threads = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in os.path.basename(line.split()[-1]).lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = fn()
                break
    info["threads"] = threads
    return info


def main(argv: list[str]) -> int:
    config, rows_csv, stats_path = argv[:3]
    tracer = Tracer(argv[4]) if len(argv) > 4 else None
    stats = {"t_start": T_START, "t_imported": T_IMPORTED, "solve_s": 0.0,
             "solve_calls": 0, "outer_iterations": 0}
    if tracer is not None:
        stats["wrapped"] = install_tracer(tracer)
    install_solve_timer(stats)
    stats["exit_code"] = cli.main(["run", config, "--out", rows_csv])
    stats["t_end"] = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    stats["maxrss_kb"] = usage.ru_maxrss
    stats["cpu_s"] = usage.ru_utime + usage.ru_stime
    stats["blas"] = blas_info()
    if tracer is not None:
        stats["counters"] = tracer.counters
        stats["spans"] = len(tracer.spans)
        tracer.dump(argv[3])
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
