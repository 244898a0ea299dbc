"""End-to-end tests of the command-line interface (in-process)."""

import json

import pytest

from sgkron import cli


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

    def test_sigma_tilde_labels_decay_column(self, tmp_path):
        cfg_dict = tiny_affine_config(sigma_tilde=2.0, preconditioners=["mean"])
        del cfg_dict["decay"]
        cfg = write_config(tmp_path / "cfg.json", cfg_dict)
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert rows[0][COL["decay"]] == "sigma2"

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
        ],
    )
    def test_invalid_configs_exit_1(self, tmp_path, mutate, capsys):
        cfg_dict = tiny_affine_config()
        cfg_dict.update(mutate)
        cfg = write_config(tmp_path / "cfg.json", cfg_dict)
        assert cli.main(["run", cfg]) == 1
        assert capsys.readouterr().err.startswith("run:")

    def test_usage_errors_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", tiny_affine_config())
        assert cli.main(["run"]) == 1
        assert cli.main(["run", cfg, "--preset", "table2"]) == 1
        assert cli.main(["run", str(tmp_path / "missing.json")]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["run", str(bad)]) == 1
        assert cli.main(["run", "--preset", "table2", "--max-k", "0"]) == 1
        capsys.readouterr()

    def test_argparse_usage_exit(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--preset", "table99"])
        assert exc.value.code == 2


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

    def test_size_guard_exit_1(self, tmp_path, capsys):
        cfg = spectrum_config(tmp_path, mesh_level=5)
        assert cli.main(["spectrum", cfg]) == 1
        assert "dense guard" in capsys.readouterr().err

    def test_invalid_configs_exit_1(self, tmp_path, capsys):
        assert cli.main(["spectrum", str(tmp_path / "missing.json")]) == 1
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
