"""End-to-end tests of the command-line interface (in-process, and in a
subprocess where the process state is under test)."""

import contextlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgkron import cli, fem2d, grid, pcg, precond


def subprocess_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def tiny_affine_config(**overrides):
    cfg = {
        "problem": "affine",
        "decay": "slow",
        "mesh_level": 2,
        "M": 2,
        "k": 2,
        "preconditioners": ["mean", "kron", {"type": "trunc_exact", "r": 1}, "sbgs 1"],
    }
    cfg.update(overrides)
    return cfg


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


COL = {name: i for i, name in enumerate(cli.CSV_HEADER.split(","))}

# A tiny lognormal cell: six expansion terms over I_2^2, 27 unknowns.
LOGNORMAL_M2 = {"problem": "lognormal", "sigma_tilde": 2.0, "M": 2, "N": 4, "k": 1}

# Cells past the size guards, each refused before any work: 10^6 fields,
# 4.6 million multi-indices x 301 terms (a build of minutes), 10^6 lognormal
# sources (~500 GB of samples), and 1,046,529 unknowns.
SIZE_GUARDED = [
    {"M": 10**6, "k": 2},
    {"M": 300, "k": 3},
    {"problem": "lognormal", "sigma_tilde": 2.0, "N": 10**6},
    {"mesh_level": 10, "k": 0},
    # Stored values: 2001 stiffness value arrays of level 9 (37.5 GB), and
    # 2000 lognormal sources at the quadrature points of level 8.
    {"mesh_level": 9, "M": 2000, "k": 0},
    {"problem": "lognormal", "sigma_tilde": 2.0, "mesh_level": 8, "M": 1, "k": 0, "N": 2000},
]
# A lognormal cell of Hermite degree 2k = 172, past MAX_HERMITE_DEGREE: its
# expansion would divide by sqrt(171!), which is not a double.
HERMITE_PAST_DOUBLE = {"problem": "lognormal", "sigma_tilde": 2.0, "alpha_bar_mode": 0.547,
                       "mesh_level": 1, "M": 1, "N": 2, "k": 86}
# Wrongly typed or empty values that both commands refuse.
NUMERIC_STRINGS = [{"k": "1"}, {"M": "2"}, {"mesh_level": "2"}, {"sigma_tilde": "3"}]
EMPTY_GRIDS = [{"k": []}, {"M": []}, {"mesh_level": []}]
# Preconditioners given as one entry instead of a list of entries.
NOT_A_LIST = [{"preconditioners": "mean"}, {"preconditioners": {"type": "sbgs", "r": 1}}]
# A sigma_tilde that is not the rate of a named decay (fast 4, slow 2).
DECAY_MISMATCH = [
    {"decay": "fast", "sigma_tilde": 3},
    {"decay": ["fast", "slow"], "sigma_tilde": 3},
]


class TestRunCommand:
    def test_csv_layout_and_exit(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", tiny_affine_config())
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == cli.CSV_HEADER
        assert len(rows) == 4
        assert all(len(r) == len(COL) for r in rows)

    def test_row_contents(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", tiny_affine_config())
        out = tmp_path / "out.csv"
        cli.main(["run", cfg, "--out", str(out)])
        _, rows = read_rows(out)
        labels = [r[COL["precond"]] for r in rows]
        assert labels == ["mean", "kron", "trunc_exact", "sbgs"]
        r_cells = [r[COL["r"]] for r in rows]
        assert r_cells == ["0", "", "1", "1"]
        for row in rows:
            assert row[COL["problem"]] == "affine"
            assert row[COL["decay"]] == "slow"
            assert row[COL["h"]] == "0.25"
            assert (row[COL["M"]], row[COL["k"]]) == ("2", "2")
            assert row[COL["converged"]] == "true"
            assert int(row[COL["iterations"]]) > 0
            assert float(row[COL["final_relres"]]) <= 1e-6
            assert row[COL["n_unknowns"]] == "54"
            float(row[COL["setup_s"]])
            float(row[COL["solve_s"]])

    def test_stdout_default(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", tiny_affine_config())
        assert cli.main(["run", cfg]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(cli.CSV_HEADER + "\n")
        assert len(captured.out.strip().split("\n")) == 5

    @pytest.mark.parametrize(
        "overrides, r_cells",
        [
            ({"preconditioners": ["trunc_exact 5", "sbgs 5"]}, ["5", "2"]),
            (
                {
                    "problem": "lognormal", "sigma_tilde": 2.0, "alpha_bar_mode": 0.547,
                    "M": 2, "N": 4, "k": 1, "preconditioners": ["trunc_exact 9", "sbgs 9"],
                },
                ["9", "5"],
            ),
        ],
    )
    def test_r_column_beyond_the_expansion(self, tmp_path, overrides, r_cells):
        # An index past the last expansion term: trunc_exact reports the
        # requested r, sbgs the index of its last term (affine M = 2; the
        # lognormal expansion over I_2^2 has six terms).
        cfg = write_config(tmp_path / "cfg.json", tiny_affine_config(**overrides))
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert [r[COL["r"]] for r in rows] == r_cells
        assert rows[0][COL["iterations"]] == "1"  # the whole system

    def test_r_column_on_failure_rows(self, tmp_path):
        # The r cell depends on the entry and the cell only: amplitude 100
        # overflows the coefficient and fails every row, K_0 set-up included,
        # and the rows keep the r cells converged rows show at amplitude 0.547.
        cfg = write_config(tmp_path / "cfg.json", tiny_affine_config(
            **LOGNORMAL_M2, alpha_bar_mode=100,
            preconditioners=["mean", "kron", "trunc_exact 9", "sbgs 9"],
        ))
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 2
        _, rows = read_rows(out)
        assert all(r[COL["precond"]].endswith("!breakdown") for r in rows)
        assert [r[COL["r"]] for r in rows] == ["0", "", "9", "5"]

    @pytest.mark.parametrize(
        "overrides, labels",
        [
            (
                {"alpha_bar_mode": 1e300, "M": 2, "k": 1},
                ["mean!breakdown", "kron!not_positive_definite",
                 "trunc_exact!not_positive_definite", "sbgs!breakdown"],
            ),
            (
                {**LOGNORMAL_M2, "alpha_bar_mode": 100},
                ["mean!breakdown", "kron!breakdown", "trunc_exact!breakdown", "sbgs!breakdown"],
            ),
        ],
    )
    def test_overflow_rows_without_warnings(self, tmp_path, overrides, labels):
        # The finiteness checks label these rows; numpy's overflow warnings
        # would only repeat them on stderr.
        cfg = write_config(tmp_path / "cfg.json", tiny_affine_config(**overrides))
        out = tmp_path / "out.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["run", cfg, "--out", str(out)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        _, rows = read_rows(out)
        assert [r[COL["precond"]] for r in rows] == labels

    def test_kron_weights_past_the_square_of_k0(self, tmp_path):
        # Every K_alpha is finite (max |K_0| = 2.8e203) but <K_0, K_0> is
        # not: kron's Frobenius weights are still finite, and kron converges.
        cfg = write_config(tmp_path / "cfg.json", tiny_affine_config(
            problem="lognormal", sigma_tilde=2.0, alpha_bar_mode=30, M=2, N=3, k=2,
            preconditioners=["mean", "kron"],
        ))
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert [r[COL["precond"]] for r in rows] == ["mean", "kron"]
        assert all(r[COL["converged"]] == "true" for r in rows)

    def test_many_parameters_run(self, tmp_path):
        # M = 1100 at mesh level 1 (1,101 unknowns): the index set is built
        # without a recursion per parameter, and the size guards pass it.
        cfg = write_config(tmp_path / "cfg.json", tiny_affine_config(
            mesh_level=1, M=1100, k=1, preconditioners=["mean", "sbgs 2"]
        ))
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert [r[COL["precond"]] for r in rows] == ["mean", "sbgs"]
        assert all(r[COL["n_unknowns"]] == "1101" for r in rows)

    def test_sigma_tilde_labels_decay_column(self, tmp_path):
        cfg_dict = tiny_affine_config(sigma_tilde=2.0, preconditioners=["mean"])
        del cfg_dict["decay"]
        cfg = write_config(tmp_path / "cfg.json", cfg_dict)
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert rows[0][COL["decay"]] == "sigma2"

    def test_named_decay_runs_at_its_rate(self, tmp_path, capsys):
        # A row labelled fast or slow runs at sigma_tilde 4 or 2: an explicit
        # sigma_tilde must be that rate, and alone it needs > 1 for the auto
        # amplitude.
        cfg_dict = tiny_affine_config(sigma_tilde=2, preconditioners=["mean"])
        cfg = write_config(tmp_path / "cfg.json", cfg_dict)
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        assert read_rows(out)[1][0][COL["decay"]] == "slow"
        cfg = write_config(tmp_path / "cfg.json", {**cfg_dict, "decay": ["slow", "fast"]})
        assert cli.main(["run", cfg]) == 1
        assert "sigma_tilde 2 is not the fast rate 4" in capsys.readouterr().err
        del cfg_dict["decay"]
        cfg = write_config(tmp_path / "cfg.json", {**cfg_dict, "sigma_tilde": 1.0})
        assert cli.main(["run", cfg]) == 1
        assert capsys.readouterr().err.startswith("run: invalid config:")

    def test_deterministic_modulo_timings(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", tiny_affine_config())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["run", cfg, "--out", str(out1)])
        cli.main(["run", cfg, "--out", str(out2)])
        timing = {COL["setup_s"], COL["solve_s"]}
        strip = lambda p: [
            [c for i, c in enumerate(r) if i not in timing] for r in read_rows(p)[1]
        ]
        assert strip(out1) == strip(out2)

    def test_max_iter_cap_reports_nonconvergence(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            tiny_affine_config(preconditioners=["mean"], max_iter=2),
        )
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 2
        _, rows = read_rows(out)
        assert rows[0][COL["converged"]] == "false"
        assert int(rows[0][COL["iterations"]]) == 2

    def test_indefinite_truncation_row(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "problem": "lognormal",
                "decay": "slow",
                "sigma_tilde": 2.0,
                "alpha_bar_mode": 0.547,
                "mesh_level": 2,
                "M": 3,
                "k": 3,
                "N": 6,
                "preconditioners": ["trunc_exact 1", "sbgs 1"],
            },
        )
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 2
        _, rows = read_rows(out)
        bad, good = rows
        assert bad[COL["precond"]] == "trunc_exact!not_positive_definite"
        assert bad[COL["r"]] == "1"
        assert bad[COL["iterations"]] == "0"
        assert bad[COL["converged"]] == "false"
        assert bad[COL["final_relres"]] == "nan"
        assert good[COL["precond"]] == "sbgs"
        assert good[COL["converged"]] == "true"

    def test_nested_solve_failures_are_rows(self, tmp_path, monkeypatch):
        # Guard 0 sends every truncation to the nested-CG path, where the
        # indefinite P_1 surfaces only during the outer solve.
        monkeypatch.setattr(precond, "TRUNC_DIRECT_GUARD", 0)
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "problem": "lognormal",
                "decay": "slow",
                "sigma_tilde": 2.0,
                "alpha_bar_mode": 0.547,
                "mesh_level": 2,
                "M": 5,
                "k": 3,
                "N": 20,
                "preconditioners": ["sbgs 2", "trunc_exact 1", "trunc_exact 2", "trunc_exact 3"],
            },
        )
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 2
        _, rows = read_rows(out)
        assert [r[COL["precond"]] for r in rows] == [
            "sbgs", "trunc_exact!not_positive_definite", "trunc_exact", "trunc_exact"
        ]
        bad = rows[1]
        assert bad[COL["r"]] == "1"
        assert bad[COL["iterations"]] == "0"
        assert bad[COL["converged"]] == "false"
        assert bad[COL["final_relres"]] == "nan"
        assert bad[COL["n_unknowns"]] == "504"
        assert all(rows[i][COL["converged"]] == "true" for i in (0, 2, 3))

    def test_inner_stall_row(self, tmp_path, monkeypatch):
        # An inner tolerance far above the stall threshold forces the stall.
        monkeypatch.setattr(precond, "TRUNC_DIRECT_GUARD", 0)
        monkeypatch.setattr(precond, "INNER_TOL", 1e-3)
        cfg = write_config(
            tmp_path / "cfg.json",
            tiny_affine_config(preconditioners=["trunc_exact 1", "mean"]),
        )
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 2
        _, rows = read_rows(out)
        stall, good = rows
        assert stall[COL["precond"]] == "trunc_exact!inner_stall"
        assert stall[COL["r"]] == "1"
        assert stall[COL["iterations"]] == "0"
        assert stall[COL["converged"]] == "false"
        assert stall[COL["final_relres"]] == "nan"
        assert good[COL["precond"]] == "mean"
        assert good[COL["converged"]] == "true"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"alpha_bar_mode": 1e308, "mesh_level": 2, "M": 1, "k": 1},
            {
                "problem": "lognormal", "alpha_bar_mode": 1000, "mesh_level": 2,
                "M": 1, "N": 2, "k": 1,
            },
        ],
    )
    def test_non_finite_kron_factor_row(self, tmp_path, overrides):
        # Overflowing coefficients make the parametric factor G non-finite:
        # kron ends in the breakdown row PCG gives the cell's mean row.
        cfg = write_config(
            tmp_path / "cfg.json", tiny_affine_config(**overrides, preconditioners=["kron", "mean"])
        )
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 2
        _, rows = read_rows(out)
        assert [r[COL["precond"]] for r in rows] == ["kron!breakdown", "mean!breakdown"]
        assert all(r[COL["final_relres"]] == "nan" for r in rows)

    def test_finished_rows_survive_a_crash(self, tmp_path, monkeypatch):
        # An error no failure label maps ends the run, but the rows written
        # before it stay in the file.
        class Unmapped(Exception):
            pass

        solve = pcg.pcg_solve
        calls = []

        def crash_on_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise Unmapped("injected")
            return solve(*args, **kwargs)

        monkeypatch.setattr(pcg, "pcg_solve", crash_on_second)
        cfg = write_config(tmp_path / "cfg.json", tiny_affine_config())
        out = tmp_path / "out.csv"
        with pytest.raises(Unmapped):
            cli.main(["run", cfg, "--out", str(out)])
        header, rows = read_rows(out)
        assert header == cli.CSV_HEADER
        assert len(rows) == 1
        assert rows[0][COL["precond"]] == "mean"
        assert rows[0][COL["converged"]] == "true"

    def test_closed_stdout_ends_quietly(self, tmp_path):
        # As in `sgkron run ... | head`, with the reader gone before the
        # header: the grid stops, no traceback, and no row was written.
        cfg = write_config(tmp_path / "cfg.json", tiny_affine_config())
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "sgkron.cli", "run", cfg],
                stdout=write_end, stderr=subprocess.PIPE, env=subprocess_env(), timeout=300,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert proc.stderr == b""

    @pytest.mark.parametrize("max_iter, status", [(1000, 0), (1, 2)])
    def test_closed_stdout_exit_follows_written_rows(
        self, tmp_path, monkeypatch, max_iter, status
    ):
        # The reader leaves after the header and one row: the second solve's
        # row cannot be written, the grid stops, and the exit status is the
        # one the written row implies.
        class ClosingPipe(io.StringIO):
            def __init__(self, fd, lines):
                super().__init__()
                self._fd, self._lines = fd, lines

            def write(self, text):
                if self.getvalue().count("\n") >= self._lines:
                    raise BrokenPipeError(32, "Broken pipe")
                return super().write(text)

            def fileno(self):
                return self._fd

        solve = pcg.pcg_solve
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(pcg, "pcg_solve", counted)
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            pipe = ClosingPipe(fd, lines=2)
            monkeypatch.setattr(sys, "stdout", pipe)
            cfg = write_config(tmp_path / "cfg.json", tiny_affine_config(max_iter=max_iter))
            assert cli.main(["run", cfg]) == status
        finally:
            os.close(fd)
        assert len(calls) == 2
        lines = pipe.getvalue().splitlines()
        assert lines[0] == cli.CSV_HEADER and len(lines) == 2

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator policy")
    def test_allocator_policy_keeps_matvec_temporaries(self):
        # Under the CLI's allocator policy a warmed affine matvec reuses its
        # temporaries instead of faulting fresh pages in: 0 faults a call
        # against 335 under glibc's default policy.  The bound leaves a wide
        # margin for allocator and kernel page-size differences.
        script = (
            "import resource\n"
            "import numpy as np\n"
            "from sgkron import cli\n"
            "from sgkron.verify import SmallConfig\n"
            "cli._set_allocator_policy()\n"
            "op, _, _ = SmallConfig(level=4, M=8, k=3).build()\n"
            "v = np.random.default_rng(0).standard_normal(op.dim)\n"
            "for _ in range(3):\n"
            "    op.matvec(v)\n"
            "f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(20):\n"
            "    op.matvec(v)\n"
            "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0) / 20)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=subprocess_env(), timeout=300, check=True,
        )
        assert float(proc.stdout) < 100

    @pytest.mark.parametrize(
        "mutate",
        [
            {"preconditioners": []},
            {"preconditioners": ["mean 1"]},
            {"preconditioners": ["ilu"]},
            {"preconditioners": ["sbgs"]},
            {"bogus_field": 1},
            {"decay": "medium"},
            {"problem": "helmholtz"},
            {"alpha_bar_mode": "bogus"},
            {"seed": 1},
            {"sigma_tilde": 1.0},
            {"mesh_level": 0},
            {"M": 0},
            {"k": -1},
            # Wrongly typed values; a list replaces the whole config.
            {"preconditioners": 5},
            {"k": None},
            {"decay": ["fast", ["slow"]]},
            {"tol": None},
            {"preconditioners": [{"type": "sbgs", "r": [1]}]},
            {"output": ["out.csv"]},
            [tiny_affine_config()],
            # The one PCG stopping rule has no setting.
            {"residual_norm": "true"},
            # Integer fields refuse bools and non-integral numbers.
            {"k": 1.5},
            {"mesh_level": True},
            {"M": 2.5},
            {"N": 20.5},
            {"max_iter": 10.5},
            {"preconditioners": [{"type": "sbgs", "r": 1.5}]},
            # Float fields refuse bools and non-finite numbers (1e400 is inf).
            {"tol": True},
            {"tol": 1e400},
            {"tol": float("nan")},
            {"alpha_bar_mode": True},
            {"sigma_tilde": True, "alpha_bar_mode": 0.5},
            # An entry is "kind", "kind r" or {"type": kind, "r": r}, no more.
            {"preconditioners": ["sbgs 1 2"]},
            {"preconditioners": ["sbgs:1:9"]},
            {"preconditioners": [{"type": "sbgs", "r": 1, "bogus": 3}]},
            # Size guards, refused at parse time.
            *SIZE_GUARDED,
            # Numbers given as strings, and grid lists with no value.
            *NUMERIC_STRINGS,
            {"tol": "0.5"},
            {"preconditioners": [{"type": "sbgs", "r": "1"}]},
            {"preconditioners": ["sbgs 1.5"]},
            {"preconditioners": ["sbgs -1"]},
            *EMPTY_GRIDS,
            *DECAY_MISMATCH,
            # A preconditioner list given as one entry.
            *NOT_A_LIST,
        ],
    )
    def test_invalid_configs_exit_1(self, tmp_path, mutate, capsys):
        cfg_dict = mutate if isinstance(mutate, list) else {**tiny_affine_config(), **mutate}
        cfg = write_config(tmp_path / "cfg.json", cfg_dict)
        t0 = time.perf_counter()
        assert cli.main(["run", cfg]) == 1
        assert time.perf_counter() - t0 < 1.0
        captured = capsys.readouterr()
        assert captured.err.startswith("run: invalid config:")
        assert captured.out == ""

    def test_kron_size_guard(self, tmp_path, monkeypatch, capsys):
        # kron's dense G is refused past MAX_KRON_BASIS multi-indices
        # (|I_2^2| = 6 here), before any output; other kinds run.
        monkeypatch.setattr(cli, "MAX_KRON_BASIS", 5)
        for kinds, code in ((["mean", "kron"], 1), (["mean", "sbgs 1"], 0)):
            cfg = write_config(tmp_path / "cfg.json", tiny_affine_config(preconditioners=kinds))
            assert cli.main(["run", cfg]) == code
            captured = capsys.readouterr()
            if code == 1:
                assert captured.err.startswith("run: invalid config:")
                assert "kron" in captured.err
                assert captured.out == ""
        monkeypatch.setattr(cli, "MAX_KRON_BASIS", 6)
        cfg = write_config(tmp_path / "cfg.json", tiny_affine_config(preconditioners=["kron"]))
        assert cli.main(["run", cfg]) == 0

    @pytest.mark.parametrize("command", ["run", "spectrum"])
    def test_hermite_degree_guard(self, tmp_path, command, capsys):
        extra = {"preconditioners": ["mean"]} if command == "run" else {}
        cfg = write_config(tmp_path / "cfg.json", {**HERMITE_PAST_DOUBLE, **extra})
        assert cli.main([command, cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{command}: invalid config:")
        assert "Hermite degree" in captured.err
        assert captured.out == ""

    def test_largest_hermite_degree_runs(self, tmp_path, capsys):
        cfg = {**HERMITE_PAST_DOUBLE, "k": 85, "preconditioners": ["mean"]}
        assert cli.main(["run", write_config(tmp_path / "cfg.json", cfg)]) == 0
        _, row = capsys.readouterr().out.splitlines()
        assert row.split(",")[COL["iterations"]] == "110"

    def test_usage_errors_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", tiny_affine_config())
        assert cli.main(["run"]) == 1
        assert cli.main(["run", cfg, "--preset", "table2"]) == 1
        assert cli.main(["run", str(tmp_path / "missing.json")]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["run", str(bad)]) == 1
        assert cli.main(["run", "--preset", "table2", "--max-k", "0"]) == 1
        assert cli.main(["run", cfg, "--out", str(tmp_path / "no" / "out.csv")]) == 1
        assert cli.main(["run", cfg, "--max-k", "1"]) == 1  # --max-k trims a preset only
        capsys.readouterr()

    def test_argparse_usage_exit(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--preset", "table99"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("entries", ["mean", {"type": "sbgs", "r": 1}, 5])
    def test_preconditioners_must_be_a_list(self, tmp_path, entries, capsys):
        cfg = write_config(tmp_path / "cfg.json", tiny_affine_config(preconditioners=entries))
        assert cli.main(["run", cfg]) == 1
        assert capsys.readouterr().err == (
            f"run: invalid config: preconditioners must be a list of entries, got {entries!r}\n"
        )

    def test_presets_pass_the_size_guards(self):
        # The largest stored-value count is table6 k = 6: 18,564 x 1,849.
        for preset in cli.PRESETS:
            cli._parse_run_config(cli._preset_config(preset, None))

    def test_trim_leaves_the_presets_intact(self, tmp_path):
        out = tmp_path / "out.csv"
        assert cli.main(["run", "--preset", "table6", "--max-k", "1", "--out", str(out)]) == 0
        assert cli.PRESETS["table6"]["k"] == [1, 2, 3, 4, 5, 6]
        _, rows = read_rows(out)
        assert {r[COL["k"]] for r in rows} == {"1"}


class TestSolveCell:
    CFG = tiny_affine_config(preconditioners=["mean", "trunc_exact 1", "sbgs 1"])

    def test_rows_stream(self, monkeypatch):
        # One solve per next(): a row is out before the next solve starts.
        solve = pcg.pcg_solve
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(pcg, "pcg_solve", counted)
        (cell,), preconds, solver_cfg, _ = cli._parse_run_config(self.CFG)
        rows = grid.solve_cell(cell, preconds, solver_cfg)
        assert next(rows).precond == "mean"
        assert len(calls) == 1
        assert [row.precond for row in rows] == ["trunc_exact", "sbgs"]
        assert len(calls) == 3

    def test_rows_are_the_cli_rows(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", self.CFG)
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        _, csv_rows = read_rows(out)
        (cell,), preconds, solver_cfg, _ = cli._parse_run_config(self.CFG)
        rows = [cli._format_row(cell, row).split(",")
                for row in grid.solve_cell(cell, preconds, solver_cfg)]
        timings = (COL["setup_s"], COL["solve_s"])

        def untimed(row):
            return [v for i, v in enumerate(row) if i not in timings]

        assert len(rows) == 3
        assert list(map(untimed, rows)) == list(map(untimed, csv_rows))


def spectrum_config(tmp_path, **overrides):
    cfg = {"problem": "affine", "decay": "slow", "mesh_level": 2, "M": 3, "k": 2}
    cfg.update(overrides)
    return write_config(tmp_path / "spec.json", cfg)


class TestSpectrumCommand:
    def test_theorem_claims_default(self, tmp_path, capsys):
        cfg = spectrum_config(tmp_path)
        out = tmp_path / "spec.csv"
        assert cli.main(["spectrum", cfg, "--out", str(out)]) == 0
        assert "12/12 claims passed" in capsys.readouterr().out
        header, rows = read_rows(out)
        assert header == cli.SPECTRUM_HEADER
        assert len(rows) == 12
        assert {r[0] for r in rows} == set(cli.THEOREM_CLAIMS)
        assert [r[1] for r in rows] == [str(r) for r in (0, 1, 2, 3) for _ in range(3)]
        assert all(r[-1] == "true" for r in rows)

    def test_full_adds_lemma_rows(self, tmp_path, capsys):
        cfg = spectrum_config(tmp_path)
        out = tmp_path / "spec.csv"
        assert cli.main(["spectrum", cfg, "--out", str(out), "--full"]) == 0
        assert "24/24 claims passed" in capsys.readouterr().out
        _, rows = read_rows(out)
        assert len(rows) == 24
        assert "mean_vs_trunc" in {r[0] for r in rows}
        assert "scaled_eig_floor" in {r[0] for r in rows}

    def test_custom_r_list(self, tmp_path, capsys):
        cfg = spectrum_config(tmp_path, r=[0, 2])
        out = tmp_path / "spec.csv"
        assert cli.main(["spectrum", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        _, rows = read_rows(out)
        assert len(rows) == 6
        assert {r[1] for r in rows} == {"0", "2"}

    def test_lognormal_definiteness_report(self, tmp_path, capsys):
        cfg = spectrum_config(
            tmp_path,
            problem="lognormal",
            sigma_tilde=2.0,
            alpha_bar_mode=0.547,
            M=3,
            k=3,
            N=6,
        )
        out = tmp_path / "spec.csv"
        assert cli.main(["spectrum", cfg, "--out", str(out)]) == 0
        assert "n/a" in capsys.readouterr().out
        _, rows = read_rows(out)
        assert len(rows) == 8
        status = {(r[0], r[1]): r[-1] for r in rows}
        assert status[("trunc_spd", "1")] == "n/a"
        assert status[("trunc_spd", "0")] == "true"
        assert all(status[("sbgs_spd", str(r))] == "true" for r in range(4))

    def test_size_guard_exit_1(self, tmp_path, monkeypatch, capsys):
        # Refused from the counts, before the system is built.
        def no_build(cell):
            raise AssertionError("built a system past the dense guard")

        monkeypatch.setattr(grid.Cell, "build", no_build)
        cfg = spectrum_config(tmp_path, mesh_level=5)
        assert cli.main(["spectrum", cfg]) == 1
        assert "dense guard" in capsys.readouterr().err

    def test_invalid_configs_exit_1(self, tmp_path, capsys):
        assert cli.main(["spectrum", str(tmp_path / "missing.json")]) == 1
        capsys.readouterr()
        # The output is opened before the eigensolves, which print nothing.
        cfg = spectrum_config(tmp_path)
        assert cli.main(["spectrum", cfg, "--out", str(tmp_path / "no" / "x.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("spectrum: cannot write output:")
        assert captured.out == ""
        cfg = spectrum_config(tmp_path, preconditioners=["mean"])
        assert cli.main(["spectrum", cfg]) == 1
        cfg = spectrum_config(tmp_path, r=[])
        assert cli.main(["spectrum", cfg]) == 1
        cfg = spectrum_config(tmp_path, r=[-1])
        assert cli.main(["spectrum", cfg]) == 1
        capsys.readouterr()
        cfg = spectrum_config(tmp_path, alpha_bar_mode="bogus")
        assert cli.main(["spectrum", cfg]) == 1
        assert "alpha_bar_mode" in capsys.readouterr().err
        # The cell checks of `run` apply, and a grid of cells is refused.
        for bad in (
            {"problem": "lognormal", "mesh_level": 1, "M": 4, "N": 3},
            {"decay": ["fast", "slow"]},
            {"k": [1, 2]},
            {"sigma_tilde": 0.5},
            {"r": [[1]]},
            {"k": None},
            {"output": 5},
            {"residual_norm": "true"},
            {"r": [1.5]},
            {"k": 1.5},
            {"mesh_level": True},
            *SIZE_GUARDED,
            *NUMERIC_STRINGS,
            {"r": ["1"]},
            *EMPTY_GRIDS,
            *DECAY_MISMATCH,
        ):
            cfg = spectrum_config(tmp_path, **bad)
            t0 = time.perf_counter()
            assert cli.main(["spectrum", cfg]) == 1
            assert time.perf_counter() - t0 < 1.0
            captured = capsys.readouterr()
            assert captured.err.startswith("spectrum: invalid config:")
            assert captured.out == ""
        cfg = write_config(tmp_path / "list.json", [{"problem": "affine"}])
        assert cli.main(["spectrum", cfg]) == 1
        assert capsys.readouterr().err.startswith("spectrum: invalid config:")


class TestVerifyCommand:
    def test_property_suite_passes(self, capsys):
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "ok " in out
        assert "FAIL" not in out
        assert out.strip().endswith("s")

    def test_detects_planted_defect(self, monkeypatch, capsys):
        monkeypatch.setattr("sgkron.orthopoly.recurrence_c", lambda family, j: 0.123)
        assert cli.main(["verify"]) == 3
        out = capsys.readouterr().out
        assert "FAIL recurrence_constants" in out

    def test_refuses_without_assertions(self):
        # python -O strips every assert, so no property could fail: verify
        # runs none of them and exits 1.
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "sgkron.cli", "verify"],
            capture_output=True, text=True, env=subprocess_env(), timeout=300,
        )
        assert proc.returncode == 1
        assert proc.stderr == "verify: assertions are disabled (python -O)\n"
        assert proc.stdout == ""


# ---------------------------------------------------------------------------
# The CLI contract, as one property over configs drawn key by key: valid
# values, and values of every JSON type (bool, int, float with inf and nan,
# str, list, dict, null).  Sizes stay tiny (level <= 2, M <= 3, k <= 2), or
# M, k or N is 10^6, past a size guard.

OUT = "<output path>"  # replaced by a path in the example's own directory
NON_STR = st.one_of(
    st.booleans(),
    st.integers(-2, 0),
    st.sampled_from([math.inf, -math.inf, math.nan, 0.5, -1.5]),
    st.lists(st.none() | st.integers(0, 2) | st.text(max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1),
    st.none(),
)
JUNK = NON_STR | st.text(max_size=4)


def one_or_two(values):
    return st.one_of(values, st.lists(values, min_size=1, max_size=2))


ENTRY = st.one_of(
    st.sampled_from(["mean", "kron"]),
    st.builds(
        "{}{}{}".format,
        st.sampled_from(["trunc_exact", "sbgs"]), st.sampled_from([" ", ":"]), st.integers(0, 4),
    ),
    st.fixed_dictionaries(
        {"type": st.sampled_from(["trunc_exact", "sbgs"]), "r": st.integers(0, 4)}
    ),
)
BAD_ENTRY = st.one_of(  # an extra token or key, or no entry at all
    st.builds("sbgs 1 {}".format, st.integers(0, 9)),
    st.builds(lambda key: {"type": "sbgs", "r": 1, key: 0}, st.text(min_size=1, max_size=3)),
    JUNK,
)
CELL_KEYS = {
    "problem": st.sampled_from(["affine", "lognormal"]),
    "decay": one_or_two(st.sampled_from(["fast", "slow"])),
    "mesh_level": st.sampled_from([1, 2, 2.0, [1]]),
    "M": st.sampled_from([1, 2, 3, [2], 10**6]),
    "k": one_or_two(st.integers(0, 2) | st.just(10**6)),
}
OPTIONAL_KEYS = {
    "sigma_tilde": st.sampled_from([2.0, 4, 0.5]),
    "alpha_bar_mode": st.sampled_from(["auto", "auto_0.9999", 0, 0.547, 2.0, -1.0, 1000, 1e308]),
    "N": st.integers(2, 6) | st.just(10**6),
    "output": st.just(OUT),
}
RUN_KEYS = {"preconditioners": st.lists(ENTRY, min_size=1, max_size=3)}
RUN_OPTIONAL_KEYS = {
    "tol": st.sampled_from([1e-6, 1e-8, 0.5, 1]),
    "max_iter": st.sampled_from([1, 3, 1000]),
}
SPECTRUM_OPTIONAL_KEYS = {"r": one_or_two(st.integers(0, 4))}


@st.composite
def cli_cases(draw):
    """(argv without the config path, config): a valid config of either
    command with up to two keys set to a drawn value or dropped."""
    run = draw(st.booleans())
    required = {**CELL_KEYS, **(RUN_KEYS if run else {})}
    optional = {**OPTIONAL_KEYS, **(RUN_OPTIONAL_KEYS if run else SPECTRUM_OPTIONAL_KEYS)}
    cfg = draw(st.fixed_dictionaries(required, optional=optional))
    keys = sorted({*required, *optional, *RUN_KEYS, *RUN_OPTIONAL_KEYS, "r", "seed"})
    for key in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
        if draw(st.booleans()):
            cfg.pop(key, None)
        elif key == "preconditioners":
            cfg[key] = draw(JUNK | st.lists(ENTRY | BAD_ENTRY, max_size=3))
        else:
            cfg[key] = draw(NON_STR if key == "output" else JUNK)
    if run:
        return ["run"], cfg
    return ["spectrum", *draw(st.sampled_from([[], ["--full"]]))], cfg


def as_list(value):
    return value if isinstance(value, list) else [value]


TINY_RUN = tiny_affine_config(preconditioners=["trunc_exact 1"])


@settings(max_examples=40, deadline=None, database=None)
@given(case=cli_cases())
# entries with an extra token or key
@example(case=(["run"], {**TINY_RUN, "preconditioners": ["sbgs 1 2"]}))
@example(case=(["run"], {**TINY_RUN, "preconditioners": ["sbgs:1:9"]}))
@example(case=(["run"], {**TINY_RUN, "preconditioners": [{"type": "sbgs", "r": 1, "bogus": 3}]}))
# float fields that are bools or not finite
@example(case=(["run"], {**TINY_RUN, "tol": True}))
@example(case=(["run"], {**TINY_RUN, "tol": math.inf}))
@example(case=(["run"], {**TINY_RUN, "tol": math.nan}))
@example(case=(["run"], {**TINY_RUN, "alpha_bar_mode": True}))
@example(case=(["run"], {**TINY_RUN, "sigma_tilde": True, "alpha_bar_mode": 0.5}))
# overflowing coefficients: breakdown rows, and a refused spectrum
@example(case=(["run"], {**TINY_RUN, "alpha_bar_mode": 1e308, "M": 1, "k": 1}))
@example(case=(["spectrum"], {"problem": "lognormal", "alpha_bar_mode": 1000, "mesh_level": 2,
                              "M": 1, "N": 2, "k": 1}))
# past a size guard, also where the index set has one element (k = 0)
@example(case=(["run"], {**TINY_RUN, "M": 10**6, "k": 0}))
@example(case=(["spectrum"], {"problem": "affine", "decay": "slow", "mesh_level": 1,
                              "M": 10**6, "k": 2}))
# a lognormal Hermite degree 2k past MAX_HERMITE_DEGREE
@example(case=(["run"], {**HERMITE_PAST_DOUBLE, "preconditioners": ["mean"]}))
@example(case=(["spectrum"], HERMITE_PAST_DOUBLE))
# amplitudes past the theory: the mean term still leads, tau >= 1 is refused
@example(case=(["run"], {**TINY_RUN, "problem": "lognormal", "alpha_bar_mode": 5, "N": 4,
                         "preconditioners": ["mean", "kron", "sbgs 1"]}))
@example(case=(["spectrum"], {"problem": "affine", "decay": "slow", "alpha_bar_mode": 5,
                              "mesh_level": 2, "M": 2, "k": 1}))
def test_cli_contract(case):
    # No exception escapes and the exit code is 0, 1 or 2; exit 1 is an
    # invalid config with nothing on stdout; exit 0 or 2 writes every row,
    # and exit 2 comes exactly when a row did not converge (pass).
    argv, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "out.csv")
        if cfg.get("output") == OUT:
            cfg = {**cfg, "output": out_path}
        config = os.path.join(tmp, "cfg.json")
        with open(config, "w") as fh:
            json.dump(cfg, fh)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, config])
        assert code in (0, 1, 2)
        if code == 1:
            assert "invalid config" in stderr.getvalue()
            assert stdout.getvalue() == ""
            return
        written = Path(out_path).read_text() if os.path.exists(out_path) else None
    lines = (written or stdout.getvalue()).splitlines()
    if argv[0] == "run":
        assert lines[0] == cli.CSV_HEADER
        rows = [line.split(",") for line in lines[1:]]
        n_decay = len(as_list(cfg["decay"])) if "decay" in cfg else 1
        n_cells = n_decay * len(as_list(cfg["M"])) * len(as_list(cfg["mesh_level"]))
        assert len(rows) == n_cells * len(as_list(cfg["k"])) * len(cfg["preconditioners"])
        failed = [row for row in rows if row[COL["converged"]] == "false"]
    else:
        per_r = 2 if cfg["problem"] == "lognormal" else 6 if "--full" in argv else 3
        rows = stdout.getvalue().splitlines()[:-1]
        assert len(rows) == per_r * len(as_list(cfg.get("r", [0, 1, 2, 3])))
        if written is not None:
            assert lines[0] == cli.SPECTRUM_HEADER and len(lines) == len(rows) + 1
        failed = [row for row in rows if row.endswith("FAIL")]
    assert (code == 2) == bool(failed)


def test_nan_stiffness_term_ends_as_breakdown_rows(tmp_path, monkeypatch):
    # Fault injection: K_1 assembles with a NaN, and every preconditioner
    # ends in a breakdown row, at set-up or in PCG.
    assemble = fem2d.assemble_stiffness
    calls = []

    def poisoned(mesh, field):
        K = assemble(mesh, field)
        calls.append(1)
        if len(calls) == 2:  # K_0, then K_1
            K.data[0] = math.nan
        return K

    monkeypatch.setattr(fem2d, "assemble_stiffness", poisoned)
    kinds = ["mean", "kron", "trunc_exact 0", "trunc_exact 1", "sbgs 1"]
    cfg = write_config(tmp_path / "cfg.json", tiny_affine_config(preconditioners=kinds))
    out = tmp_path / "out.csv"
    assert cli.main(["run", cfg, "--out", str(out)]) == 2
    _, rows = read_rows(out)
    assert [r[COL["precond"]] for r in rows] == [
        f"{kind.split()[0]}!breakdown" for kind in kinds
    ]
