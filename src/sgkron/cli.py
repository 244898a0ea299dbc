"""Command-line front end.

Subcommands:
  run       solve benchmark grids from a JSON config (or a named preset)
            and emit one CSV row per (configuration x preconditioner);
  spectrum  verify eigenvalue-inclusion claims at tiny scale;
  verify    run the package's property suite.

The CLI parses configs (presets and size guards included), refuses a bad
one before any work, writes and flushes the rows and decides the exit
code.  ``grid.solve_cell`` builds and solves each cell of ``run``, under
the numpy error state the CLI sets around its row loop.

Exit codes: 0 success, 1 config/usage error (or `verify` under python -O),
2 non-convergence, 3 property failure.  A `run` whose output is closed
early stops its grid and exits as the rows already written imply (0 or 2).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time

import numpy as np

from . import fem2d, grid, kronsys, multiindex, pcg

CSV_HEADER = (
    "problem,decay,h,M,k,precond,r,iterations,converged,"
    "final_relres,setup_s,solve_s,n_unknowns"
)

SPECTRUM_HEADER = "claim,r,bound_lo,bound_hi,observed_lo,observed_hi,margin,passed"

# Claims reported by `spectrum` by default: the three theorem-level
# inclusions.  --full adds the supporting lemma-level rows.
THEOREM_CLAIMS = ("trunc_vs_system", "sbgs_vs_trunc", "sbgs_vs_system")

DECAY_SIGMA = {"fast": 4.0, "slow": 2.0}


# Size guards of one cell, checked at parse time from counts alone.
# Coefficient fields, M affine and N lognormal: binomial(M + k, k), which the
# counts below take, costs min(M, k) big-integer steps, so a bounded M keeps
# them fast for any k.  The presets use 8 and 20.
MAX_FIELDS = 2000
# Basis-term pairs |I_k^M| T (T = M + 1 affine, |I_2k^M| lognormal terms):
# the Gram work of a read of the whole of `op.terms` (the dense oracles, the
# benchmark's traced cost model; ~500 s and 2.4 GB at table6 k = 6, which has
# 924 x 18,564 = 1.7e7), and the time of kron's Hermite G entries (3.6e6 at
# table6 k = 6, enumerated by chunks of rows of ~4 MB).
MAX_TERM_PAIRS = 2 * 10**7
# Unknowns |I_k^M| (2^level - 1)^2: table3 k = 6 has 3003 x 225 = 675,675,
# and its cells take minutes.
MAX_UNKNOWNS = 10**6
# Values a build holds: T stiffness value arrays of nnz(K) doubles, plus the
# N source fields of a lognormal build at its 9 quadrature points per
# element.  table6 k = 6 has 18,564 x 1,849 + 20 x 9 x 256 = 3.4e7 (275 MB);
# level 9, M = 2000, k = 0 would hold 2001 x 2,343,961 = 4.7e9 (37.5 GB).
# The affine operator holds all T; the lognormal run path holds P_r's r + 1
# (kron's weights read the rest by chunks of ~4 MB), so the bound is what a
# read of the whole of its `op.terms` holds.
MAX_STORED_VALUES = 4 * 10**7
# Hermite degree 2k of a lognormal expansion: a term of slot degree a is
# scaled by 1/sqrt(a!), and 171! is not a double.  Only M = 1 reaches it
# (MAX_TERM_PAIRS refuses M = 2 from k = 66); it also caps the (k + 1)^2
# Python loop per degree of gram's Hermite table.
MAX_HERMITE_DEGREE = 170
# Multi-indices |I_k^M| of a cell that `kron` runs on.  The lognormal G has
# a full pattern (G_{beta+gamma}[beta, gamma] != 0), |I_k^M|^2 values (and
# MAX_TERM_PAIRS keeps it under 4,472 multi-indices).  The affine G is sparse
# and has no factor of its own, only that of the parity S = I - B^T B of its
# smaller |alpha| parity: order 920 (3.6% nonzeros) at table3 k = 6 (3003
# multi-indices), 1,163 at level 1, M = 7, k = 7 (3432).  Level 1, M = 300,
# k = 2 has 45,451.
MAX_KRON_BASIS = 5000


class ConfigError(Exception):
    pass


class Refused(Exception):
    """A command refused before any work: ``main`` prints the message after
    the command's name and exits 1."""


# ---------------------------------------------------------------------------
# config parsing


def _as_list(value):
    return value if isinstance(value, list) else [value]


def _int(value, what: str) -> int:
    """An integer config value; bools, strings and non-integral numbers are
    refused."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _float(value, what: str) -> float:
    """A finite real config value; bools, strings, inf and nan are refused."""
    if isinstance(value, (bool, str)) or not math.isfinite(x := float(value)):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return x


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing required field '{key}'")
    return cfg[key]


def _grid(cfg: dict, key: str) -> list[int]:
    """The integer values of a required grid field, one or a non-empty list."""
    values = [_int(v, key) for v in _as_list(_require(cfg, key))]
    if not values:
        raise ConfigError(f"{key} list must not be empty")
    return values


def _parse_precond(item) -> tuple[str, int | None]:
    """An entry "kind" or "kind r" (space or colon), or {"type": kind, "r": r}."""
    if isinstance(item, dict) and set(item) <= {"type", "r"}:
        kind, r = item.get("type"), item.get("r")
    elif isinstance(item, str) and len(parts := item.replace(":", " ").split()) <= 2:
        kind, token = (parts + [None, None])[:2]
        if token is not None and not (token.isascii() and token.isdigit()):
            raise ConfigError(f"the index of {item!r} must be a non-negative integer")
        r = None if token is None else int(token)
    else:
        raise ConfigError(f"unrecognized preconditioner entry {item!r}")
    if kind not in ("mean", "kron", "trunc_exact", "sbgs"):
        raise ConfigError(f"unknown preconditioner kind {kind!r}")
    if kind in ("trunc_exact", "sbgs"):
        if r is None:
            raise ConfigError(f"preconditioner '{kind}' needs a truncation index r")
        r = _int(r, f"truncation index of '{kind}'")
        if r < 0:
            raise ConfigError(f"preconditioner '{kind}' needs r >= 0, got {r}")
    elif r is not None:
        raise ConfigError(f"preconditioner '{kind}' does not take an index")
    return kind, r


def _decay_entries(cfg: dict) -> list[tuple[str, float]]:
    sigma = _float(cfg["sigma_tilde"], "sigma_tilde") if "sigma_tilde" in cfg else None
    entries = []
    for d in _as_list(cfg.get("decay", [])):
        if d not in DECAY_SIGMA:
            raise ConfigError(f"decay must be 'fast' or 'slow', got {d!r}")
        if sigma not in (None, DECAY_SIGMA[d]):  # a row labelled by its decay runs at that rate
            raise ConfigError(f"sigma_tilde {sigma:g} is not the {d} rate {DECAY_SIGMA[d]:g}")
        entries.append((d, DECAY_SIGMA[d]))
    if not entries and sigma is not None:
        entries = [(f"sigma{sigma:g}", sigma)]
    if not entries:
        raise ConfigError("config needs 'decay' (fast|slow) or explicit 'sigma_tilde'")
    return entries


def _parse_alpha_bar(cfg: dict, sigma_tilde: float) -> float:
    """The explicit amplitude, or the auto_0.9999 scaling of sigma_tilde."""
    mode = cfg.get("alpha_bar_mode", "auto_0.9999")
    if isinstance(mode, str):
        if mode not in ("auto", "auto_0.9999"):
            raise ConfigError(f"alpha_bar_mode must be auto_0.9999 or a number, got {mode!r}")
        return fem2d.auto_alpha_bar(sigma_tilde)
    return _float(mode, "alpha_bar_mode")


_CELL_KEYS = {
    "problem", "decay", "sigma_tilde", "alpha_bar_mode", "mesh_level", "M", "k", "N", "output",
}
_RUN_KEYS = _CELL_KEYS | {"preconditioners", "tol", "max_iter"}
_SPECTRUM_KEYS = _CELL_KEYS | {"r"}


def _parse_cells(cfg: dict, keys: set[str]) -> list[grid.Cell]:
    """The grid of cells a config spans, after checking its fields and ranges."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got {type(cfg).__name__}")
    unknown = set(cfg) - keys
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")
    if not isinstance(cfg.get("output", ""), str):
        raise ConfigError(f"output must be a path string, got {cfg['output']!r}")
    problem = _require(cfg, "problem")
    if problem not in ("affine", "lognormal"):
        raise ConfigError(f"problem must be 'affine' or 'lognormal', got {problem!r}")
    N = _int(cfg.get("N", 20), "N")
    Ms, levels, ks = _grid(cfg, "M"), _grid(cfg, "mesh_level"), _grid(cfg, "k")
    cells = []
    for decay_label, sigma in _decay_entries(cfg):
        alpha_bar = _parse_alpha_bar(cfg, sigma)
        for M in Ms:
            for level in levels:
                for k in ks:
                    if problem == "lognormal" and M >= N:
                        raise ConfigError(f"lognormal requires M < N, got M={M}, N={N}")
                    mesh = fem2d.build_mesh(level)  # the library's range checks
                    _check_size(problem, mesh, M, k, N)
                    cells.append(
                        grid.Cell(problem, decay_label, sigma, alpha_bar, level, M, k, N)
                    )
    return cells


def _check_size(problem: str, mesh: fem2d.UniformMesh, M: int, k: int, N: int) -> None:
    """Refuse a cell past the size guards above (range-checks M and k too)."""
    name, fields = ("M", M) if problem == "affine" else ("N", N)
    if fields > MAX_FIELDS:
        raise ConfigError(f"{name}={fields}: over {MAX_FIELDS} fields (size guard)")
    if problem == "lognormal" and 2 * k > MAX_HERMITE_DEGREE:
        raise ConfigError(f"k={k}: Hermite degree 2k over {MAX_HERMITE_DEGREE} (size guard)")
    n_basis = multiindex.dimension(M, k)
    n_terms = M + 1 if problem == "affine" else multiindex.dimension(M, 2 * k)
    if n_basis * n_terms > MAX_TERM_PAIRS:
        raise ConfigError(f"M={M}, k={k}: over {MAX_TERM_PAIRS} basis-term pairs (size guard)")
    nx = mesh.n_interior
    if n_basis * nx > MAX_UNKNOWNS:
        raise ConfigError(f"M={M}, k={k}, {nx} nodes: over {MAX_UNKNOWNS} unknowns (size guard)")
    nnz = (3 * mesh.n_side - 5) ** 2  # nine-point stencil on (n_side - 1)^2 nodes
    quad = 0 if problem == "affine" else N * 9 * mesh.n_side**2
    if n_terms * nnz + quad > MAX_STORED_VALUES:
        raise ConfigError(
            f"M={M}, k={k}, level {mesh.level}: over {MAX_STORED_VALUES} values held (size guard)"
        )


def _parse_run_config(cfg: dict):
    cells = _parse_cells(cfg, _RUN_KEYS)
    entries = _require(cfg, "preconditioners")
    if not isinstance(entries, list):
        raise ConfigError(f"preconditioners must be a list of entries, got {entries!r}")
    preconds = [_parse_precond(p) for p in entries]
    if not preconds:
        raise ConfigError("preconditioner list must not be empty")
    if any(kind == "kron" for kind, _ in preconds):
        for cell in cells:
            if multiindex.dimension(cell.M, cell.k) > MAX_KRON_BASIS:
                raise ConfigError(
                    f"M={cell.M}, k={cell.k}: over {MAX_KRON_BASIS} multi-indices "
                    "for kron's G (size guard)"
                )
    solver_cfg = pcg.SolverConfig(
        tol=_float(cfg.get("tol", 1e-6), "tol"),
        max_iter=_int(cfg.get("max_iter", 1000), "max_iter"),
    )
    return cells, preconds, solver_cfg, cfg.get("output")


def _read_config(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise Refused(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise Refused(f"config is not valid JSON (line {exc.lineno}): {exc.msg}")


@contextlib.contextmanager
def _invalid_config():
    try:
        yield
    except (ConfigError, ValueError, TypeError) as exc:  # TypeError: a wrongly typed value
        raise Refused(f"invalid config: {exc}")


def _open_output(path, default):
    """A sink writing to `path`, or to `default` (left open) without one."""
    try:
        return open(path, "w") if path else contextlib.nullcontext(default)
    except OSError as exc:
        raise Refused(f"cannot write output: {exc}")


# ---------------------------------------------------------------------------
# run command

_SBGS_ALL = [f"sbgs {r}" for r in range(1, 7)]
_AFFINE_GRID = {"problem": "affine", "decay": ["fast", "slow"], "mesh_level": 4, "M": 8}
# The grids of the paper's tables; `_preset_config` trims a copy.
PRESETS = {
    "table2": {**_AFFINE_GRID, "k": [1, 2, 3, 4],
               "preconditioners": [f"trunc_exact {r}" for r in range(7)]},
    "table3": {**_AFFINE_GRID, "k": [1, 2, 3, 4, 5, 6],
               "preconditioners": ["kron", "mean"] + _SBGS_ALL},
    "table4": {**_AFFINE_GRID, "mesh_level": [3, 4, 5], "M": [4, 8], "k": 3,
               "preconditioners": ["mean", "sbgs 1", "sbgs 2"]},
    "table6": {"problem": "lognormal", "decay": "slow", "sigma_tilde": 2.0,
               "alpha_bar_mode": 0.547, "mesh_level": 4, "M": 6, "N": 20,
               "k": [1, 2, 3, 4, 5, 6], "preconditioners": ["kron", "mean"] + _SBGS_ALL},
}


def _preset_config(preset: str, max_k: int | None) -> dict:
    """A new config dict of the preset, its k grid trimmed to k <= max_k."""
    cfg = dict(PRESETS[preset])
    if max_k is not None:
        cfg["k"] = [k for k in _as_list(cfg["k"]) if k <= max_k]
        if not cfg["k"]:
            raise ConfigError(f"--max-k {max_k} removes every k from preset {preset}")
    return cfg


def _format_row(cell: grid.Cell, row: grid.Row) -> str:
    return ",".join((
        cell.problem, cell.decay_label, f"{2.0 ** -cell.level:.10g}", str(cell.M), str(cell.k),
        row.precond, "" if row.r is None else str(row.r), str(row.iterations),
        "true" if row.converged else "false", f"{row.final_relres:.6e}",
        f"{row.setup_s:.2f}", f"{row.solve_s:.2f}", str(row.n_unknowns),
    ))


def cmd_run(config_path, preset, out_path, max_k) -> int:
    if (config_path is None) == (preset is None):
        raise Refused("pass exactly one of <config.json> or --preset")
    if max_k is not None and preset is None:
        raise Refused("--max-k trims a preset; it needs --preset")
    with _invalid_config():
        cfg = _read_config(config_path) if preset is None else _preset_config(preset, max_k)
        cells, preconds, solver_cfg, cfg_out = _parse_run_config(cfg)
    out_path = out_path or cfg_out
    sink = _open_output(out_path, sys.stdout)
    status = 0  # 2 once a written row did not converge
    try:
        # Rows go out as they finish, so a crash keeps them.  Overflow in the
        # build or a solve is labelled by the finiteness checks, not warned of.
        with sink as out, np.errstate(over="ignore", invalid="ignore"):
            print(CSV_HEADER, file=out, flush=True)
            for cell in cells:
                for row in grid.solve_cell(cell, preconds, solver_cfg):
                    print(_format_row(cell, row), file=out, flush=True)
                    if not row.converged:
                        status = 2
    except BrokenPipeError:
        # The reader closed the output (`sgkron run ... | head`): the grid
        # stops, and the rows already written decide the exit status.  A
        # closed stdout is pointed at the null device, so that the
        # interpreter's final flush of the unwritten row cannot fail again.
        if not out_path:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return status

    if out_path:
        print(f"wrote {len(cells) * len(preconds)} rows to {out_path}", file=sys.stderr)
    return status


def cmd_spectrum(config_path, out_path, full) -> int:
    from . import spectral  # imported here, like verify: `run` needs neither

    with _invalid_config():
        cfg = _read_config(config_path)
        cells = _parse_cells(cfg, _SPECTRUM_KEYS)
        if len(cells) != 1:
            raise ConfigError(
                f"spectrum checks one configuration, the config spans {len(cells)}"
            )
        (cell,) = cells
        r_values = [_int(r, "r") for r in _as_list(cfg.get("r", [0, 1, 2, 3]))]
        if not r_values:
            raise ConfigError("truncation index list must not be empty")
        if any(r < 0 for r in r_values):
            raise ConfigError("truncation indices must be >= 0")
        dim = multiindex.dimension(cell.M, cell.k) * fem2d.build_mesh(cell.level).n_interior
        if dim > kronsys.DENSE_GUARD:
            raise ConfigError(
                f"system dimension {dim} exceeds the dense guard "
                f"{kronsys.DENSE_GUARD}; lower mesh_level, M or k"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            op, _, ctx = cell.build()
        if not all(np.isfinite(K.data).all() for _, K in op.terms):
            raise ConfigError("the coefficient overflows: the system is not finite")
        if cell.problem == "affine" and not ctx.tau < 1:
            raise ConfigError(f"the affine bounds need tau < 1, got tau = {ctx.tau:.6g}")
    # Opened before the eigensolves, so that an unwritable path costs none.
    with _open_output(out_path or cfg.get("output"), None) as out:
        if cell.problem == "affine":
            checks = spectral.verify_inclusions(op, ctx, r_values=r_values)
            if not full:
                checks = [c for c in checks if c.claim in THEOREM_CLAIMS]
        else:
            checks = spectral.lognormal_spd_report(op, r_values)

        lines = [SPECTRUM_HEADER]
        width = max(len(c.claim) for c in checks)
        for c in checks:
            ends = (c.bound_lo, c.bound_hi, c.observed_lo, c.observed_hi)
            lo, hi, seen_lo, seen_hi = (f"{x:.6e}" for x in ends)
            shown, cell = ("pass", "true") if c.passed else ("FAIL", "false")
            if not c.applicable:
                shown = cell = "n/a"
            print(
                f"{c.claim:<{width}}  r={c.r}  bound [{lo}, {hi}]  "
                f"observed [{seen_lo}, {seen_hi}]  margin {c.margin:+.3e}  {shown}"
            )
            lines.append(
                ",".join((c.claim, str(c.r), lo, hi, seen_lo, seen_hi, f"{c.margin:.6e}", cell))
            )
        n_pass = sum(1 for c in checks if c.passed)
        print(f"{n_pass}/{len(checks)} claims passed")
        if out is not None:
            out.write("\n".join(lines) + "\n")
    return 0 if n_pass == len(checks) else 2


def cmd_verify() -> int:
    from . import verify

    failed: list[str] = []

    def report(res: verify.PropertyResult):
        mark = "ok " if res.passed else "FAIL"
        line = f"{mark} {res.name} ({res.seconds:.2f}s)"
        if not res.passed:
            line += f": {res.message}"
            failed.append(res.name)
        print(line)

    t0 = time.perf_counter()
    try:
        verify.run_all(report)
    except RuntimeError as exc:  # python -O
        raise Refused(exc)
    print(f"total {time.perf_counter() - t0:.1f}s")
    if failed:
        print(f"verify: property failed: {failed[0]}", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sgkron",
        description="Stochastic Galerkin solver benchmarks with truncation preconditioners.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve a benchmark grid, emit CSV")
    p_run.add_argument("config", nargs="?", help="JSON config path")
    p_run.add_argument("--preset", choices=list(PRESETS))
    p_run.add_argument("--out", help="CSV output path (default: stdout)")
    p_run.add_argument(
        "--max-k", type=int, default=None,
        help="trim the preset's polynomial-degree grid to k <= MAX_K",
    )

    p_spec = sub.add_parser("spectrum", help="verify eigenvalue inclusions at tiny scale")
    p_spec.add_argument("config", help="JSON config path")
    p_spec.add_argument("--out", help="CSV output path")
    p_spec.add_argument(
        "--full", action="store_true",
        help="also report lemma-level rows (mean_vs_trunc, scaled_* bounds)",
    )

    sub.add_parser("verify", help="run the property suite")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's usage errors exit 2, here non-convergence
        raise SystemExit(1 if exc.code else 0) from None
    grid._set_allocator_policy()
    try:
        if args.command == "run":
            return cmd_run(args.config, args.preset, args.out, args.max_k)
        if args.command == "spectrum":
            return cmd_spectrum(args.config, args.out, args.full)
        return cmd_verify()
    except Refused as exc:  # the one report of a refusal
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
