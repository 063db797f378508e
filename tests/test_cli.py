import argparse
import json

import pytest

from simplexfem.cli import _build_parser, main


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


@pytest.mark.parametrize("problem", ["poisson", "marini", "stokes", "cgs"])
def test_equiv_factorises_two_matrices_per_level(tmp_path, factorised, problem):
    # three random loads per level share the CR stiffness and S of their
    # mesh, the Stokes certificates as the Poisson ones: two SPD factors
    assert run(["equiv", "--problem", problem, "--levels", "2", "--rhs", "random",
                "--out-dir", str(tmp_path)]) == 0
    reports = json.loads((tmp_path / f"equiv_{problem}_reports.json").read_text())
    assert len(reports) == 6 and len(factorised) == 4
    assert [order for _, order in factorised] == ["MMD_AT_PLUS_A"] * 4


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
    code = run(["convergence", "--dim", "2", "--levels", "3",
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


def test_poisson_sine_errors(tmp_path):
    code = run(["poisson", "--levels", "2", "--rhs", "sine",
                "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "poisson_table.csv").exists()


def test_stokes_command():
    assert run(["stokes", "--levels", "1", "--rhs", "const:1,0"]) == 0


def test_mesh_file_input(tmp_path):
    from simplexfem.mesh import build_box_mesh, write_mesh

    path = tmp_path / "coarse.mesh"
    path.write_text(write_mesh(build_box_mesh(2, 2)))
    assert run(["equiv", "--problem", "poisson", "--levels", "1",
                "--mesh-file", str(path), "--out-dir", str(tmp_path)]) == 0


@pytest.mark.parametrize("problem", ["marini", "cgs"])
@pytest.mark.parametrize("source", ["dim", "mesh-file"])
def test_two_dimensional_identity_on_a_3d_mesh_exits_two(problem, source, tmp_path,
                                                          monkeypatch, capsys):
    # the mesh's dimension decides, not --dim: a mesh file need not match it
    from simplexfem.mesh import build_box_mesh, write_mesh

    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cube.mesh"
    path.write_text(write_mesh(build_box_mesh(3, 1)))
    mesh = ["--dim", "3"] if source == "dim" else ["--mesh-file", str(path)]
    assert run(["equiv", "--problem", problem, "--levels", "1"] + mesh) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cube.mesh"]


@pytest.mark.parametrize("flag", [["--dim", "2"], ["--coarse", "crisscross"],
                                  ["--subdivisions", "2"]], ids=" ".join)
def test_mesh_file_refuses_the_generated_mesh_flags(flag, tmp_path, capsys):
    from simplexfem.mesh import build_box_mesh, write_mesh

    path = tmp_path / "coarse.mesh"
    path.write_text(write_mesh(build_box_mesh(2, 2)))
    assert run(["eigen", "--levels", "0", "--mesh-file", str(path),
                "--out-dir", str(tmp_path)] + flag) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not (tmp_path / "eigen_table.csv").exists()


def test_eigen_header_records_coarse_only_for_a_generated_mesh(tmp_path):
    from simplexfem.mesh import build_box_mesh, write_mesh

    path = tmp_path / "coarse.mesh"
    path.write_text(write_mesh(build_box_mesh(2, 2)))
    assert run(["eigen", "--levels", "0", "--mesh-file", str(path),
                "--out-dir", str(tmp_path / "file")]) == 0
    first = (tmp_path / "file" / "eigen_table.csv").read_text().splitlines()[0]
    assert first.startswith("#") and "k=1" in first and "coarse" not in first
    assert run(["eigen", "--levels", "0", "--out-dir", str(tmp_path / "box")]) == 0
    first = (tmp_path / "box" / "eigen_table.csv").read_text().splitlines()[0]
    assert "coarse=diagonal" in first


def test_config_errors_exit_two(tmp_path):
    assert run(["equiv", "--rhs", "nonsense:1", "--out-dir", str(tmp_path)]) == 2
    assert run(["eigen", "--elements", "p3", "--out-dir", str(tmp_path)]) == 2
    assert run(["equiv", "--mesh-file", str(tmp_path / "missing.mesh"),
                "--out-dir", str(tmp_path)]) == 2
    assert run(["equiv", "--tol", "-1", "--out-dir", str(tmp_path)]) == 2
    # random loads are an equiv sweep; a malformed constant is not a traceback
    assert run(["poisson", "--rhs", "random", "--out-dir", str(tmp_path)]) == 2
    assert run(["equiv", "--rhs", "const:abc", "--out-dir", str(tmp_path)]) == 2
    with pytest.raises(SystemExit) as exc:
        run(["convergence", "--solution", "sine", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["equiv", "--levels", "0"],
    ["convergence", "--levels", "0"],
    ["neumann", "--levels", "0"],
    ["poisson", "--levels", "-1"],
    ["stokes", "--levels", "-1"],
    ["eigen", "--levels", "-1"],
    ["eigen", "--k", "0"],
    ["equiv", "--problem", "eigen", "--k", "0"],
    ["equiv", "--rhs", "random", "--n-loads", "0"],
], ids=" ".join)
def test_counts_the_command_cannot_honour_exit_two(argv, tmp_path, monkeypatch, capsys):
    # each of these used to exit 0 after zero checks, end in a traceback, or
    # (a negative level count) silently run level 0
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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
    # the header records the configuration the command applied, nothing else
    assert run(["neumann", "--levels", "1", "--out-dir", str(tmp_path)]) == 0
    first = (tmp_path / "neumann_table.csv").read_text().splitlines()[0]
    assert first.startswith("#") and "tol=1e-09" in first
    assert run(["convergence", "--levels", "2", "--out-dir", str(tmp_path)]) == 0
    first = (tmp_path / "convergence_table.csv").read_text().splitlines()[0]
    assert first.startswith("#") and "solution=sine" in first
    assert "seed" not in first and "tol" not in first


class _ReadRecorder(argparse.Namespace):
    """A namespace that records the names of the attributes read from it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        object.__setattr__(self, "_read", set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


# per command, invocations on a tiny mesh that together exercise every flag
_FLAG_RUNS = {
    "poisson": [["--rhs", "sine"]],
    "stokes": [[]],
    "eigen": [["--k", "1"]],
    "equiv": [["--rhs", "random", "--n-loads", "1"], ["--problem", "eigen", "--k", "1"]],
    "convergence": [[]],
    "neumann": [[]],
}


def test_every_flag_is_read(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    parser = _build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(_FLAG_RUNS)
    for name, sub in commands.items():
        flags = {a.dest for a in sub._actions if a.option_strings and a.dest != "help"}
        read = set()
        for extra in _FLAG_RUNS[name]:
            args = _ReadRecorder(**vars(parser.parse_args([name, "--levels", "1"] + extra)))
            args.func(args)
            read |= object.__getattribute__(args, "_read")
        assert flags <= read, f"{name} never reads {sorted(flags - read)}"

