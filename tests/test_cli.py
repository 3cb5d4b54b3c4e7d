"""Command line interface, exercised in process through main()."""

import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.io

import bdmfem as bf
from bdmfem import cli
from bdmfem.cli import main
from conftest import (REFERENCE_EDGES_1B, REFERENCE_ELEM2EDGE_1B,
                      REFERENCE_SIGNEDGE, mark_boundary_dirichlet,
                      random_mesh)


def _refined_paper(level):
    mesh = bf.builtin_mesh("paper")
    for _ in range(level):
        mesh = bf.uniform_refine(mesh)
    return mesh


def _holed_paper():
    """Paper level 2 without the elements whose centroid lies in
    (-0.25, 0.25)^2, vertices renumbered: 248 elements, not a disk."""
    mesh = _refined_paper(2)
    centroids = mesh.nodes[mesh.elements].mean(axis=1)
    elements = mesh.elements[~(np.abs(centroids) < 0.25).all(axis=1)]
    used, elements = np.unique(elements, return_inverse=True)
    hole = bf.Mesh(mesh.nodes[used], elements.reshape(-1, 3))
    return mark_boundary_dirichlet(hole, lambda mid: mid[:, 0] > 0.5)


INSPECT_MESHES = {
    "paper-0": lambda: _refined_paper(0),
    "paper-1": lambda: _refined_paper(1),
    "paper-2": lambda: _refined_paper(2),
    "random-3": lambda: mark_boundary_dirichlet(
        random_mesh(seed=3), lambda mid: mid[:, 0] > 0),
    "random-11": lambda: mark_boundary_dirichlet(
        random_mesh(seed=11, n=90), lambda mid: mid[:, 1] < -0.2),
    "hole": _holed_paper,
}


class TestInspect:

    def test_summary(self, capsys):
        assert main(["inspect", "--mesh", "builtin:paper"]) == 0
        out = capsys.readouterr().out
        assert "nodes:          13" in out
        assert "elements:       16" in out
        assert "edges:          28" in out
        assert "boundary edges: 8 (dirichlet 6, neumann 2)" in out
        assert "interior edges: 20" in out
        assert "validation:     ok" in out

    def test_dump_matches_reference_tables(self, capsys):
        assert main(["inspect", "--mesh", "builtin:paper", "--dump"]) == 0
        out = capsys.readouterr().out
        sections = {}
        current = None
        for line in out.splitlines():
            if line.startswith("# "):
                current = line[2:]
                sections[current] = []
            elif current is not None and "," in line:
                sections[current].append([int(v) for v in line.split(",")])
        assert np.array_equal(sections["edges"], REFERENCE_EDGES_1B)
        assert np.array_equal(sections["elem_to_edge"],
                              REFERENCE_ELEM2EDGE_1B)
        assert np.array_equal(sections["sign_edge"], REFERENCE_SIGNEDGE)

    @pytest.mark.parametrize("name", sorted(INSPECT_MESHES))
    def test_counts_match_topology(self, tmp_path, capsys, name):
        # the summary counts come from the markers alone
        mesh = INSPECT_MESHES[name]()
        path = tmp_path / "m.mesh"
        bf.write_mesh(mesh, path)
        assert main(["inspect", "--mesh", str(path)]) == 0
        out = capsys.readouterr().out
        topo = bf.build_edge_topology(mesh)
        boundary = bf.classify_boundary(mesh, topo)
        nb = boundary.num_dirichlet + boundary.num_neumann
        assert boundary.num_neumann > 0
        assert "edges:          {}\n".format(topo.num_edges) in out
        assert "boundary edges: {} (dirichlet {}, neumann {})\n".format(
            nb, boundary.num_dirichlet, boundary.num_neumann) in out
        assert "interior edges: {}\n".format(topo.num_edges - nb) in out
        if name == "hole":
            # Euler's formula for a disk would give one edge fewer
            assert (mesh.num_elements, topo.num_edges) == (248, 392)
            assert mesh.num_nodes + mesh.num_elements - 1 == 391

    def test_topology_only_for_dump(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("the summary needs no edge topology")

        monkeypatch.setattr(cli, "build_edge_topology", refuse)
        monkeypatch.setattr(bf.mesh, "classify_boundary", refuse)
        assert not hasattr(cli, "classify_boundary")
        assert main(["inspect", "--mesh", "builtin:paper"]) == 0
        summary = capsys.readouterr().out
        calls = []

        def counted(mesh):
            calls.append(mesh)
            return bf.build_edge_topology(mesh)

        monkeypatch.setattr(cli, "build_edge_topology", counted)
        assert main(["inspect", "--mesh", "builtin:paper", "--dump"]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.startswith(summary + "# edges\n")

    def test_dump_rows_on_large_mesh(self, tmp_path, capsys):
        mesh = random_mesh(seed=29, n=600)
        topo = bf.build_edge_topology(mesh)
        assert mesh.num_elements >= 1000 and (topo.sign_edge < 0).any()
        path = tmp_path / "large.mesh"
        bf.write_mesh(mesh, path)
        assert main(["inspect", "--mesh", str(path), "--dump"]) == 0
        lines = ["# edges"]
        lines += ["{},{}".format(a, b) for a, b in topo.edges + 1]
        lines += ["# elem_to_edge"]
        lines += ["{},{},{}".format(*row) for row in topo.elem_to_edge + 1]
        lines += ["# sign_edge"]
        lines += ["{},{},{}".format(*row) for row in topo.sign_edge]
        out = capsys.readouterr().out
        assert out.endswith("validation:     ok\n" + "\n".join(lines) + "\n")

    def test_mesh_file(self, tmp_path, capsys):
        fine = bf.uniform_refine(bf.builtin_mesh("paper"))
        path = tmp_path / "fine.mesh"
        bf.write_mesh(fine, path)
        assert main(["inspect", "--mesh", str(path)]) == 0
        out = capsys.readouterr().out
        assert "nodes:          41" in out
        assert "elements:       64" in out
        assert "edges:          104" in out

    def test_invalid_mesh(self, tmp_path, capsys):
        path = tmp_path / "flipped.mesh"
        path.write_text("3 1\n0 0\n1 0\n0 1\n1 3 2\n1 1 1\n")
        assert main(["inspect", "--mesh", str(path)]) == 3
        err = capsys.readouterr().err
        assert "invalid" in err

    def test_integer_overflow(self, tmp_path, capsys):
        path = tmp_path / "overflow.mesh"
        path.write_text("3 1\n0 0\n1 0\n0 1\n1 2 99999999999999999999\n"
                        "1 1 1\n")
        assert main(["inspect", "--mesh", str(path)]) == 3
        err = capsys.readouterr().err
        assert "line 5: could not parse element vertices" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["inspect", "solve", "converge"])
    def test_non_finite_vertex(self, tmp_path, capsys, command, value):
        path = tmp_path / "bad.mesh"
        bf.write_mesh(bf.builtin_mesh("paper"), path)
        lines = path.read_text().splitlines()
        lines[1 + 3] = "{} 0.5".format(value)  # vertex 3 (0-based)
        path.write_text("\n".join(lines) + "\n")
        args = [command, "--mesh", str(path)]
        if command != "inspect":
            args += ["--problem", "paper-example"]
        assert main(args) == 3
        assert "vertex 3: non-finite coordinates" in capsys.readouterr().err


class TestSolve:

    def test_summary_and_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "run.csv"
        code = main(["solve", "--mesh", "builtin:paper",
                     "--problem", "paper-example",
                     "--out", str(out_csv)])
        assert code == 0
        out = capsys.readouterr().out
        assert "problem:   paper-example (bdm1)" in out
        assert "mesh:      13 nodes, 16 elements, 28 edges" in out
        assert "unknowns:  72 (68 free)" in out
        assert "err_sigma: 1.69684e-01" in out
        assert "err_u:     4.97119e-01\n" in out

        header, row = out_csv.read_text().splitlines()
        assert header == ("problem,family,solver,nodes,elements,edges,"
                          "dof,free_dof,residual,err_sigma,err_u")
        fields = row.split(",")
        assert fields[0] == "paper-example"
        assert fields[1] == "bdm1"
        assert fields[2] == "direct"
        assert fields[3:8] == ["13", "16", "28", "72", "68"]
        assert float(fields[8]) <= 1e-10
        assert fields[9] == "1.69684e-01"
        assert fields[10] == "4.97119e-01"

    def test_rt0_family(self, capsys):
        code = main(["solve", "--mesh", "builtin:paper",
                     "--problem", "paper-example", "--family", "rt0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "problem:   paper-example (rt0)" in out
        assert "unknowns:  44 (42 free)" in out

    def test_solver_direct_is_usage_error(self, capsys):
        # the one solver needs no flag; the report still names it
        with pytest.raises(SystemExit) as err:
            main(["solve", "--mesh", "builtin:paper",
                  "--problem", "paper-example", "--solver", "direct"])
        assert err.value.code == 2
        assert ("unrecognized arguments: --solver direct"
                in capsys.readouterr().err)
        assert main(["solve", "--mesh", "builtin:paper",
                     "--problem", "paper-example"]) == 0
        assert "solver:    direct, " in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["solve", "converge"])
    def test_solver_minres_is_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            main([command, "--mesh", "builtin:paper",
                  "--problem", "paper-example", "--solver", "minres"])
        assert err.value.code == 2
        assert ("unrecognized arguments: --solver minres"
                in capsys.readouterr().err)

    def test_dump_solution(self, tmp_path, capsys):
        path = tmp_path / "coeffs.csv"
        for family, flux in (("bdm1", ["flux1"] * 28 + ["flux2"] * 28),
                             ("rt0", ["flux"] * 28)):
            main(["solve", "--mesh", "builtin:paper", "--problem",
                  "paper-example", "--family", family,
                  "--dump-solution", str(path)])
            capsys.readouterr()
            lines = path.read_text().splitlines()
            assert lines[0] == "block,index,value"
            blocks = [ln.split(",")[0] for ln in lines[1:]]
            assert blocks == flux + ["scalar"] * 16
            # values round-trip through the 17-digit format
            sol = bf.solve_problem(bf.builtin_mesh("paper"),
                                   bf.get_problem("paper-example"),
                                   family=family)
            vals = np.array([float(ln.split(",")[2]) for ln in lines[1:]])
            assert np.array_equal(vals[:-16], sol.sigma)
            assert np.array_equal(vals[-16:], sol.u)

    def test_dump_matrix(self, tmp_path, capsys):
        path = tmp_path / "system.mtx"
        main(["solve", "--mesh", "builtin:paper",
              "--problem", "paper-example", "--dump-matrix", str(path)])
        capsys.readouterr()
        header = path.read_text().splitlines()[0]
        assert header == "%%MatrixMarket matrix coordinate real symmetric"
        back = scipy.io.mmread(path)
        assert back.shape == (72, 72)
        assert (abs(back - back.T) > 0).nnz == 0

    def test_deterministic_output(self, tmp_path, capsys):
        paths = []
        for k in (1, 2):
            p = tmp_path / "run{}.csv".format(k)
            main(["solve", "--mesh", "builtin:paper",
                  "--problem", "paper-example", "--out", str(p),
                  "--dump-solution", str(tmp_path / "sol{}.csv".format(k))])
            paths.append(p)
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert (tmp_path / "sol1.csv").read_bytes() \
            == (tmp_path / "sol2.csv").read_bytes()

    def test_missing_file(self, capsys):
        assert main(["solve", "--mesh", "no/such/file.mesh",
                     "--problem", "paper-example"]) == 3
        assert "bdmfem:" in capsys.readouterr().err

    def test_unknown_builtin(self, capsys):
        assert main(["solve", "--mesh", "builtin:dodecahedron",
                     "--problem", "paper-example"]) == 3
        assert "unknown builtin" in capsys.readouterr().err

    def test_unknown_problem_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--mesh", "builtin:paper",
                  "--problem", "heat-death"])
        assert err.value.code == 2
        capsys.readouterr()

    def test_bad_tolerance_is_usage_error(self, capsys):
        for tol, message in (("5", "lie in (0, 1)"), ("tiny", "be a number")):
            with pytest.raises(SystemExit) as err:
                main(["solve", "--mesh", "builtin:paper",
                      "--problem", "paper-example", "--tol", tol])
            assert err.value.code == 2
            assert "tolerance must " + message in capsys.readouterr().err

    def test_tolerance_parsed(self, capsys):
        # the default --tol bypasses argparse's type, so only a given
        # one runs the parser's float path
        code = main(["solve", "--mesh", "builtin:paper",
                     "--problem", "paper-example", "--tol", "1e-12"])
        assert code == 0
        residual = re.search(r"residual (\S+),", capsys.readouterr().out)
        assert float(residual.group(1)) <= 1e-12

    def test_other_runtime_error_propagates(self, monkeypatch, capsys):
        # only a SolverError is reported as exit 4
        def broken(args):
            raise RuntimeError("not a solver failure")

        monkeypatch.setattr(cli, "cmd_solve", broken)
        with pytest.raises(RuntimeError, match="not a solver failure"):
            main(["solve", "--mesh", "builtin:paper",
                  "--problem", "paper-example"])
        assert capsys.readouterr().err == ""

    def test_singular_system_is_solver_error(self, tmp_path, capsys):
        # every boundary edge Neumann: u is only determined up to a
        # constant and the reduced system is singular
        mesh = bf.builtin_mesh("paper")
        markers = np.where(mesh.boundary_markers == 1, 2,
                           mesh.boundary_markers)
        path = tmp_path / "allneumann.mesh"
        bf.write_mesh(bf.Mesh(mesh.nodes, mesh.elements, markers), path)
        code = main(["solve", "--mesh", str(path),
                     "--problem", "patch-linear"])
        assert code == 4
        assert "solver failure" in capsys.readouterr().err


class TestConverge:

    def test_csv_format(self, tmp_path, capsys):
        out_csv = tmp_path / "study.csv"
        code = main(["converge", "--mesh", "builtin:paper",
                     "--problem", "paper-example", "--levels", "3",
                     "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "h,err_sigma,ratio_sigma,err_u,ratio_u"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[1] == "1.69684e-01"
        assert first[2] == ""  # no ratio on the base level
        assert first[4] == ""
        second = lines[2].split(",")
        assert second[0] == "0.5"
        assert 3.9 <= float(second[2]) <= 4.1
        assert 1.98 <= float(second[4]) <= 2.05
        table = capsys.readouterr().out
        assert "elements" in table
        assert " 16 " in table or "16" in table

    def test_table(self, capsys):
        # the whole table, byte for byte
        code = main(["converge", "--mesh", "builtin:paper",
                     "--problem", "paper-example", "--levels", "3"])
        assert code == 0
        assert capsys.readouterr().out == (
            "problem:  paper-example (bdm1), 3 level(s)\n"
            "         h  elements    err_sigma       ratio        err_u"
            "     ratio\n"
            "         1        16  1.69684e-01           -  4.97119e-01"
            "         -\n"
            "       0.5        64  4.20101e-02      4.0391  2.46050e-01"
            "    2.0204\n"
            "      0.25       256  1.05834e-02      3.9694  1.22540e-01"
            "    2.0079\n")

    def test_single_level(self, tmp_path, capsys):
        out_csv = tmp_path / "one.csv"
        code = main(["converge", "--mesh", "builtin:paper",
                     "--problem", "paper-example", "--levels", "1",
                     "--out", str(out_csv)])
        assert code == 0
        capsys.readouterr()
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[2] == ""

    def test_deterministic(self, tmp_path, capsys):
        runs = []
        for k in (1, 2):
            p = tmp_path / "study{}.csv".format(k)
            main(["converge", "--mesh", "builtin:paper",
                  "--problem", "paper-example", "--levels", "2",
                  "--out", str(p)])
            runs.append(p.read_bytes())
        capsys.readouterr()
        assert runs[0] == runs[1]

    def test_tolerance(self, capsys):
        code = main(["converge", "--mesh", "builtin:paper",
                     "--problem", "paper-example", "--levels", "2",
                     "--tol", "1e-12"])
        assert code == 0
        assert "0.5        64  4.20101e-02" in capsys.readouterr().out

    def test_levels_validated(self, capsys):
        for levels, message in (("0", "at least 1"), ("two", "an integer")):
            with pytest.raises(SystemExit) as err:
                main(["converge", "--mesh", "builtin:paper",
                      "--problem", "paper-example", "--levels", levels])
            assert err.value.code == 2
            assert "levels must be " + message in capsys.readouterr().err


def test_module_entry_point():
    run = subprocess.run(
        [sys.executable, "-m", "bdmfem.cli", "inspect",
         "--mesh", "builtin:paper"],
        capture_output=True, text=True)
    assert run.returncode == 0
    assert "validation:     ok" in run.stdout
