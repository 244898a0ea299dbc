"""Command-line front end.

Subcommands:
  run       solve benchmark grids from a JSON config (or a named preset)
            and emit one CSV row per (configuration x preconditioner);
  spectrum  verify eigenvalue-inclusion claims at tiny scale;
  verify    run the package's property suite.

Exit codes: 0 success, 1 config/usage error, 2 non-convergence,
3 property failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass

from . import fem2d, kronsys, pcg, precond, spectral, verify

CSV_HEADER = (
    "problem,decay,h,M,k,precond,r,iterations,converged,"
    "final_relres,setup_s,solve_s,n_unknowns"
)

SPECTRUM_HEADER = "claim,r,bound_lo,bound_hi,observed_lo,observed_hi,margin,passed"

# Claims reported by `spectrum` by default: the three theorem-level
# inclusions.  --full adds the supporting lemma-level rows.
THEOREM_CLAIMS = ("trunc_vs_system", "sbgs_vs_trunc", "sbgs_vs_system")

DECAY_SIGMA = {"fast": 4.0, "slow": 2.0}


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config parsing


def _as_list(value):
    return value if isinstance(value, list) else [value]


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing required field '{key}'")
    return cfg[key]


def _parse_precond(item) -> tuple[str, int | None]:
    if isinstance(item, dict):
        kind = item.get("type")
        r = item.get("r")
    elif isinstance(item, str):
        parts = item.replace(":", " ").split()
        kind = parts[0] if parts else ""
        r = int(parts[1]) if len(parts) > 1 else None
    else:
        raise ConfigError(f"unrecognized preconditioner entry {item!r}")
    if kind not in ("mean", "kron", "trunc_exact", "sbgs"):
        raise ConfigError(f"unknown preconditioner kind {kind!r}")
    if kind in ("trunc_exact", "sbgs"):
        if r is None:
            raise ConfigError(f"preconditioner '{kind}' needs a truncation index r")
        r = int(r)
        if r < 0:
            raise ConfigError(f"preconditioner '{kind}' needs r >= 0, got {r}")
    elif r is not None:
        raise ConfigError(f"preconditioner '{kind}' does not take an index")
    return kind, r


@dataclass
class Cell:
    problem: str
    decay_label: str
    sigma_tilde: float
    alpha_bar_mode: float | str
    level: int
    M: int
    k: int
    N: int


def _decay_entries(cfg: dict) -> list[tuple[str, float]]:
    entries = []
    if "decay" in cfg:
        for d in _as_list(cfg["decay"]):
            if d not in DECAY_SIGMA:
                raise ConfigError(f"decay must be 'fast' or 'slow', got {d!r}")
            entries.append((d, DECAY_SIGMA[d]))
    if "sigma_tilde" in cfg:
        sigma = float(cfg["sigma_tilde"])
        if entries:
            entries = [(label, sigma) for label, _ in entries]
        else:
            entries = [(f"sigma{sigma:g}", sigma)]
    if not entries:
        raise ConfigError("config needs 'decay' (fast|slow) or explicit 'sigma_tilde'")
    return entries


def _parse_alpha_bar_mode(cfg: dict) -> float | str:
    """``"auto"`` for the auto_0.9999 scaling, else the explicit amplitude."""
    mode = cfg.get("alpha_bar_mode", "auto_0.9999")
    if isinstance(mode, str):
        if mode not in ("auto", "auto_0.9999"):
            raise ConfigError(f"alpha_bar_mode must be auto_0.9999 or a number, got {mode!r}")
        return "auto"
    return float(mode)


_RUN_KEYS = {
    "problem", "decay", "sigma_tilde", "alpha_bar_mode", "mesh_level", "M", "k",
    "N", "preconditioners", "tol", "max_iter", "residual_norm", "seed", "output",
}


def _parse_run_config(cfg: dict):
    unknown = set(cfg) - _RUN_KEYS
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")
    problem = _require(cfg, "problem")
    if problem not in ("affine", "lognormal"):
        raise ConfigError(f"problem must be 'affine' or 'lognormal', got {problem!r}")
    preconds = [_parse_precond(p) for p in _require(cfg, "preconditioners")]
    if not preconds:
        raise ConfigError("preconditioner list must not be empty")
    alpha_mode = _parse_alpha_bar_mode(cfg)
    N = int(cfg.get("N", 20))
    Ms = [int(v) for v in _as_list(_require(cfg, "M"))]
    levels = [int(v) for v in _as_list(_require(cfg, "mesh_level"))]
    ks = [int(v) for v in _as_list(_require(cfg, "k"))]
    cells = []
    for decay_label, sigma in _decay_entries(cfg):
        for M in Ms:
            for level in levels:
                for k in ks:
                    if problem == "lognormal" and M >= N:
                        raise ConfigError(f"lognormal requires M < N, got M={M}, N={N}")
                    cells.append(
                        Cell(problem, decay_label, sigma, alpha_mode, level, M, k, N)
                    )
    solver_cfg = pcg.SolverConfig(
        tol=float(cfg.get("tol", 1e-6)),
        max_iter=int(cfg.get("max_iter", 1000)),
        residual_norm=cfg.get("residual_norm", pcg.TRUE_RESIDUAL),
    )
    return cells, preconds, solver_cfg, cfg.get("output")


# ---------------------------------------------------------------------------
# run command


def _build_system(cell: Cell):
    mesh = fem2d.build_mesh(cell.level)
    if cell.problem == "affine":
        mode = "auto" if cell.alpha_bar_mode == "auto" else cell.alpha_bar_mode
        return kronsys.build_affine_system(
            mesh, M=cell.M, k=cell.k, sigma_tilde=cell.sigma_tilde, alpha_bar_mode=mode
        )
    if cell.alpha_bar_mode == "auto":
        alpha_bar = fem2d.auto_alpha_bar(cell.sigma_tilde)
    else:
        alpha_bar = cell.alpha_bar_mode
    return kronsys.build_lognormal_system(
        mesh, M=cell.M, k=cell.k, N=cell.N,
        sigma_tilde=cell.sigma_tilde, alpha_bar=alpha_bar,
    )


def _build_preconditioner(kind, r, op, ctx, K0_factor):
    ny, nx = op.ny, op.nx
    if kind == "mean":
        return precond.build_mean_based(K0_factor, ny)
    if kind == "kron":
        return precond.build_kron(op.terms, K0_factor)
    if isinstance(ctx, kronsys.LognormalContext):
        terms = ctx.leading_terms(r)
        if kind == "sbgs":
            return precond.build_sbgs_lognormal(terms, ny, nx)
        pairs = [(t.G, t.K) for t in terms if t.G is not None]
        return precond.build_trunc_exact(pairs, r, ny, nx)
    if kind == "sbgs":
        return precond.build_sbgs_affine(K0_factor, op.terms[1 : r + 1], ny, nx)
    return precond.build_trunc_exact(op.terms, r, ny, nx)


def _format_row(cell: Cell, label, r_cell, it, conv, relres, setup_s, solve_s, n) -> str:
    h = 2.0 ** (-cell.level)
    return ",".join(
        (
            cell.problem,
            cell.decay_label,
            f"{h:.10g}",
            str(cell.M),
            str(cell.k),
            label,
            "" if r_cell is None else str(r_cell),
            str(it),
            "true" if conv else "false",
            f"{relres:.6e}",
            f"{setup_s:.2f}",
            f"{solve_s:.2f}",
            str(n),
        )
    )


def cmd_run(config_path, preset, out_path, max_k) -> int:
    if (config_path is None) == (preset is None):
        print("run: pass exactly one of <config.json> or --preset", file=sys.stderr)
        return 1
    try:
        if preset is not None:
            cfg = _preset_config(preset, max_k)
        else:
            with open(config_path) as fh:
                cfg = json.load(fh)
        cells, preconds, solver_cfg, cfg_out = _parse_run_config(cfg)
    except OSError as exc:
        print(f"run: cannot read config: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"run: config is not valid JSON (line {exc.lineno}): {exc.msg}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"run: invalid config: {exc}", file=sys.stderr)
        return 1

    out_path = out_path or cfg_out
    rows = [CSV_HEADER]
    all_converged = True
    for cell in cells:
        op, f, ctx = _build_system(cell)
        K0_factor = precond.factor_spd(op.terms[0][1])
        for kind, r in preconds:
            t0 = time.perf_counter()
            try:
                P = _build_preconditioner(kind, r, op, ctx, K0_factor)
            except precond.NotPositiveDefiniteError:
                rows.append(
                    _format_row(
                        cell, f"{kind}!not_positive_definite", r, 0, False,
                        float("nan"), time.perf_counter() - t0, 0.0, op.dim,
                    )
                )
                all_converged = False
                continue
            setup_s = time.perf_counter() - t0
            try:
                _, rep = pcg.pcg_solve(op, P, f, solver_cfg)
            except pcg.BreakdownError:
                rows.append(
                    _format_row(
                        cell, f"{kind}!breakdown", P.r, 0, False,
                        float("nan"), setup_s, 0.0, op.dim,
                    )
                )
                all_converged = False
                continue
            rows.append(
                _format_row(
                    cell, kind, P.r, rep.iterations, rep.converged,
                    rep.final_relres, setup_s, rep.solve_seconds, op.dim,
                )
            )
            all_converged = all_converged and rep.converged

    text = "\n".join(rows) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        print(f"wrote {len(rows) - 1} rows to {out_path}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0 if all_converged else 2


def _preset_config(preset: str, max_k: int | None) -> dict:
    sbgs_all = [f"sbgs {r}" for r in range(1, 7)]
    presets = {
        "table2": {
            "problem": "affine",
            "decay": ["fast", "slow"],
            "mesh_level": 4,
            "M": 8,
            "k": [1, 2, 3, 4],
            "preconditioners": [f"trunc_exact {r}" for r in range(7)],
        },
        "table3": {
            "problem": "affine",
            "decay": ["fast", "slow"],
            "mesh_level": 4,
            "M": 8,
            "k": [1, 2, 3, 4, 5, 6],
            "preconditioners": ["kron", "mean"] + sbgs_all,
        },
        "table4": {
            "problem": "affine",
            "decay": ["fast", "slow"],
            "mesh_level": [3, 4, 5],
            "M": [4, 8],
            "k": 3,
            "preconditioners": ["mean", "sbgs 1", "sbgs 2"],
        },
        "table6": {
            "problem": "lognormal",
            "decay": "slow",
            "sigma_tilde": 2.0,
            "alpha_bar_mode": 0.547,
            "mesh_level": 4,
            "M": 6,
            "N": 20,
            "k": [1, 2, 3, 4, 5, 6],
            "preconditioners": ["kron", "mean"] + sbgs_all,
        },
    }
    cfg = presets[preset]
    if max_k is not None:
        cfg["k"] = [k for k in _as_list(cfg["k"]) if k <= max_k]
        if not cfg["k"]:
            raise ConfigError(f"--max-k {max_k} removes every k from preset {preset}")
    return cfg


_SPECTRUM_KEYS = {
    "problem", "decay", "sigma_tilde", "alpha_bar_mode", "mesh_level", "M", "k",
    "N", "r", "output",
}


def _fmt_bound(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.6e}"


def cmd_spectrum(config_path, out_path, full) -> int:
    try:
        with open(config_path) as fh:
            cfg = json.load(fh)
        unknown = set(cfg) - _SPECTRUM_KEYS
        if unknown:
            raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")
        problem = _require(cfg, "problem")
        if problem not in ("affine", "lognormal"):
            raise ConfigError(f"problem must be 'affine' or 'lognormal', got {problem!r}")
        (decay_label, sigma) = _decay_entries(cfg)[0]
        alpha_mode = _parse_alpha_bar_mode(cfg)
        cell = Cell(
            problem, decay_label, sigma, alpha_mode,
            int(_require(cfg, "mesh_level")), int(_require(cfg, "M")),
            int(_require(cfg, "k")), int(cfg.get("N", 20)),
        )
        r_values = [int(r) for r in _as_list(cfg.get("r", [0, 1, 2, 3]))]
        if not r_values:
            raise ConfigError("truncation index list must not be empty")
        if any(r < 0 for r in r_values):
            raise ConfigError("truncation indices must be >= 0")
    except OSError as exc:
        print(f"spectrum: cannot read config: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"spectrum: config is not valid JSON (line {exc.lineno}): {exc.msg}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"spectrum: invalid config: {exc}", file=sys.stderr)
        return 1

    op, _, ctx = _build_system(cell)
    if op.dim > spectral.EIG_GUARD:
        print(
            f"spectrum: system dimension {op.dim} exceeds the dense guard "
            f"{spectral.EIG_GUARD}; lower mesh_level, M or k",
            file=sys.stderr,
        )
        return 1

    if cell.problem == "affine":
        checks = spectral.verify_inclusions(op, ctx, r_values=r_values)
        if not full:
            checks = [c for c in checks if c.claim in THEOREM_CLAIMS]
    else:
        checks = spectral.lognormal_spd_report(ctx, op.nx, r_values)

    lines = [SPECTRUM_HEADER]
    width = max(len(c.claim) for c in checks)
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        if not c.applicable:
            status = "n/a"
        print(
            f"{c.claim:<{width}}  r={c.r}  "
            f"bound [{_fmt_bound(c.bound_lo)}, {_fmt_bound(c.bound_hi)}]  "
            f"observed [{_fmt_bound(c.observed_lo)}, {_fmt_bound(c.observed_hi)}]  "
            f"margin {c.margin:+.3e}  {status}"
        )
        lines.append(
            ",".join(
                (
                    c.claim,
                    str(c.r),
                    _fmt_bound(c.bound_lo),
                    _fmt_bound(c.bound_hi),
                    _fmt_bound(c.observed_lo),
                    _fmt_bound(c.observed_hi),
                    f"{c.margin:.6e}",
                    "n/a" if not c.applicable else ("true" if c.passed else "false"),
                )
            )
        )
    n_pass = sum(1 for c in checks if c.passed)
    print(f"{n_pass}/{len(checks)} claims passed")
    out_path = out_path or cfg.get("output")
    if out_path:
        with open(out_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0 if n_pass == len(checks) else 2


def cmd_verify() -> int:
    failed: list[str] = []

    def report(res: verify.PropertyResult):
        mark = "ok " if res.passed else "FAIL"
        line = f"{mark} {res.name} ({res.seconds:.2f}s)"
        if not res.passed:
            line += f": {res.message}"
            failed.append(res.name)
        print(line)

    t0 = time.perf_counter()
    verify.run_all(report)
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
    p_run.add_argument("--preset", choices=["table2", "table3", "table4", "table6"])
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

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.preset, args.out, args.max_k)
    if args.command == "spectrum":
        return cmd_spectrum(args.config, args.out, args.full)
    return cmd_verify()


if __name__ == "__main__":
    sys.exit(main())
