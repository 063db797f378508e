import json
import os

import numpy as np
import pytest

from simplexfem.cli import main


def run(args):
    return main(args)


def test_equiv_poisson_exit_zero(tmp_path):
    code = run(["equiv", "--problem", "poisson", "--dim", "2", "--levels", "3",
                "--rhs", "const:1", "--out-dir", str(tmp_path)])
    assert code == 0
    reports = json.loads((tmp_path / "equiv_poisson_reports.json").read_text())
    assert len(reports) == 3
    for rep in reports:
        assert rep["passed"]
        assert max(rep["relative_residuals"].values()) <= 1e-10
        assert rep["tolerance"] == 1e-9


def test_equiv_random_loads(tmp_path):
    code = run(["equiv", "--problem", "poisson", "--levels", "2",
                "--rhs", "random", "--n-loads", "2", "--seed", "7",
                "--out-dir", str(tmp_path)])
    assert code == 0
    reports = json.loads((tmp_path / "equiv_poisson_reports.json").read_text())
    assert len(reports) == 4


def test_equiv_stokes_and_pointwise(tmp_path):
    assert run(["equiv", "--problem", "stokes", "--levels", "1",
                "--rhs", "const:1,0", "--out-dir", str(tmp_path)]) == 0
    assert run(["equiv", "--problem", "marini", "--levels", "2",
                "--out-dir", str(tmp_path)]) == 0
    assert run(["equiv", "--problem", "cgs", "--levels", "1",
                "--rhs", "const:1,0", "--out-dir", str(tmp_path)]) == 0
    assert run(["equiv", "--problem", "eigen", "--levels", "2", "--k", "2",
                "--out-dir", str(tmp_path)]) == 0


def test_eigen_table(tmp_path, capsys):
    code = run(["eigen", "--dim", "2", "--coarse", "crisscross", "--k", "1",
                "--elements", "cr,ecr", "--levels", "1", "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "lambda1_cr=24.000000" in out
    assert "lambda1_ecr=17.142857" in out
    table = (tmp_path / "eigen_table.csv").read_text()
    assert table.splitlines()[1].startswith("level,h,dofs,")


def test_convergence_table_and_plots(tmp_path):
    code = run(["convergence", "--solution", "sine", "--dim", "2", "--levels", "3",
                "--elements", "cr,ecr", "--emit-plot", "--out-dir", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "convergence_table.csv").read_text().splitlines()
    header = lines[1].split(",")
    i_ecr = header.index("h1_ecr")
    i_cr = header.index("h1_cr")
    for row in lines[2:]:
        cells = row.split(",")
        assert float(cells[i_ecr]) <= float(cells[i_cr])
    assert (tmp_path / "convergence_h1_ecr.dat").exists()


def test_neumann_command(tmp_path):
    assert run(["neumann", "--levels", "2", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "neumann_table.csv").exists()


def test_poisson_condensed(tmp_path, capsys):
    code = run(["poisson", "--levels", "2", "--rhs", "const:1", "--condensed",
                "--out-dir", str(tmp_path)])
    assert code == 0
    assert "condensed vs monolithic" in capsys.readouterr().out


def test_poisson_sine_errors(tmp_path):
    code = run(["poisson", "--levels", "2", "--rhs", "sine",
                "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "poisson_table.csv").exists()


def test_stokes_command(tmp_path):
    assert run(["stokes", "--levels", "1", "--rhs", "const:1,0",
                "--out-dir", str(tmp_path)]) == 0


def test_mesh_file_input(tmp_path):
    from simplexfem.mesh import build_box_mesh, write_mesh

    path = tmp_path / "coarse.mesh"
    path.write_text(write_mesh(build_box_mesh(2, 2)))
    assert run(["equiv", "--problem", "poisson", "--levels", "1",
                "--mesh-file", str(path), "--out-dir", str(tmp_path)]) == 0


def test_config_errors_exit_two(tmp_path):
    assert run(["equiv", "--rhs", "nonsense:1", "--out-dir", str(tmp_path)]) == 2
    assert run(["eigen", "--elements", "p3", "--out-dir", str(tmp_path)]) == 2
    assert run(["equiv", "--mesh-file", str(tmp_path / "missing.mesh"),
                "--out-dir", str(tmp_path)]) == 2
    assert run(["convergence", "--solution", "bogus", "--out-dir", str(tmp_path)]) == 2
    assert run(["equiv", "--tol", "-1", "--out-dir", str(tmp_path)]) == 2


def test_tolerance_override(tmp_path):
    # an absurdly tight tolerance turns a machine-precision pass into exit 1
    code = run(["equiv", "--problem", "poisson", "--levels", "1", "--rhs",
                "const:1", "--tol", "1e-18", "--out-dir", str(tmp_path)])
    assert code == 1
    reports = json.loads((tmp_path / "equiv_poisson_reports.json").read_text())
    assert reports[0]["tolerance"] == 1e-18
    code = run(["equiv", "--problem", "poisson", "--levels", "1", "--rhs",
                "const:1", "--tol", "1e-6", "--out-dir", str(tmp_path)])
    assert code == 0


def test_help_documents_file_formats(capsys):
    with pytest.raises(SystemExit):
        run(["--help"])
    out = capsys.readouterr().out
    assert "level,h,dofs" in out
    assert "17 significant digits" in out


def test_rerun_is_bitwise_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        code = run(["equiv", "--problem", "poisson", "--levels", "2",
                    "--rhs", "random", "--n-loads", "2", "--seed", "3",
                    "--out-dir", str(d)])
        assert code == 0
    b1 = (d1 / "equiv_poisson_reports.json").read_bytes()
    b2 = (d2 / "equiv_poisson_reports.json").read_bytes()
    assert b1 == b2


def test_csv_header_records_defaults(tmp_path):
    run(["convergence", "--levels", "2", "--out-dir", str(tmp_path)])
    first = (tmp_path / "convergence_table.csv").read_text().splitlines()[0]
    assert first.startswith("#") and "tol_poisson" in first and "seed=" in first
