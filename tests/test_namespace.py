"""The package namespace loads its submodules on first use: importing
``bdmfem`` or running ``bdmfem inspect`` loads no scipy, and every
public name still resolves.  Each check runs in a fresh interpreter,
since this test process has long imported everything."""

import subprocess
import sys

import numpy as np

import bdmfem as bf

# every name ``from bdmfem import *`` gives
PUBLIC_NAMES = sorted("""
BUILTIN_MESHES BarycentricCoefficients BoundaryEdges DegenerateElementError
EDGE_GAUSS2_POSITIONS EDGE_GAUSS2_WEIGHTS EdgeGeometry EdgeTopology
ErrorReport ErrorRow FAMILIES LiftedSystem Mesh MeshError MeshFormatError
MeshTopologyError MixedSolution OrientedEdgeBasis PROBLEMS ProblemDefinition
SolverError TRI_QUADRATURE_DEGREE4 TRI_QUADRATURE_DEGREE6 TriangleQuadrature
assemble_divergence assemble_mass assemble_system barycentric_coordinates
barycentric_gradients build_edge_topology builtin_mesh classify_boundary
compute_errors convergence_study dirichlet_term edge_geometry eval_basis
eval_sigma_h flux_dof_count functions_per_edge get_problem neumann_lift
read_mesh resolve_orientation signed_areas solve_problem solve_reduced
source_term uniform_refine validate_mesh write_matrix_market write_mesh
""".split())

SUBMODULES = ("assembly", "basis", "bc", "geometry", "mesh", "norms",
              "problems", "solve")


def _python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120)


def _run(code):
    """Run `code` in a fresh interpreter; it prints what it checks."""
    run = _python("-c", code)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_import_loads_no_scipy():
    out = _run("import sys, bdmfem\n"
               "print(sorted(m for m in sys.modules"
               " if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]"


def test_inspect_loads_no_scipy():
    # -X importtime lists every module the real command imports
    run = _python("-X", "importtime", "-m", "bdmfem.cli", "inspect",
                  "--mesh", "builtin:paper")
    assert run.returncode == 0, run.stderr
    assert "validation:     ok" in run.stdout
    imported = [line.split("|")[-1].strip()
                for line in run.stderr.splitlines()
                if line.startswith("import time:")]
    assert "bdmfem.mesh" in imported
    assert not [m for m in imported if m.split(".")[0] == "scipy"]


def test_public_names_resolve_to_their_submodule():
    out = _run(
        "import importlib, bdmfem\n"
        "for name in sorted(bdmfem.__all__):\n"
        "    value = getattr(bdmfem, name)\n"
        "    owners = [m for m in {!r}\n"
        "              if name in vars(importlib.import_module("
        "'bdmfem.' + m))]\n"
        "    assert owners, name\n"
        "    for m in owners:\n"
        "        assert getattr(bdmfem, m) is importlib.import_module("
        "'bdmfem.' + m)\n"
        "        assert value is getattr(getattr(bdmfem, m), name), name\n"
        "    print(name)\n".format(SUBMODULES))
    assert out.split() == PUBLIC_NAMES


def test_star_import_and_dir():
    out = _run("from bdmfem import *\n"
               "import bdmfem\n"
               "names = sorted(k for k in globals() if not k.startswith('_')"
               " and k != 'bdmfem')\n"
               "print(*names)\n"
               "assert set(names) <= set(dir(bdmfem)), 'dir'\n"
               "assert {!r} <= set(dir(bdmfem)), 'dir'\n".format(
                   set(SUBMODULES)))
    assert out.split() == PUBLIC_NAMES


def test_submodule_attribute_without_import():
    out = _run("import bdmfem\n"
               "print(bdmfem.solve.spla.__name__, bdmfem.mesh.__name__)")
    assert out.split() == ["scipy.sparse.linalg", "bdmfem.mesh"]


def test_unknown_attribute():
    out = _run("import bdmfem\n"
               "try:\n"
               "    bdmfem.no_such_name\n"
               "except AttributeError as exc:\n"
               "    print(exc)\n"
               "try:\n"
               "    from bdmfem import no_such_name\n"
               "except ImportError:\n"
               "    print('ImportError')\n")
    assert out.splitlines() == [
        "module 'bdmfem' has no attribute 'no_such_name'", "ImportError"]


def test_rebinding_in_submodule_shows_through(monkeypatch):
    # the package caches no name, so a wrapper put into a submodule is
    # what callers going through ``bdmfem`` get
    def wrapped(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(bf.mesh, "read_mesh", wrapped)
    assert bf.read_mesh is wrapped


def test_dump_matrix_in_fresh_process(tmp_path):
    path = tmp_path / "system.mtx"
    run = _python("-m", "bdmfem.cli", "solve", "--mesh", "builtin:paper",
                  "--problem", "paper-example", "--dump-matrix", str(path))
    assert run.returncode == 0, run.stderr
    assert path.read_text().startswith(
        "%%MatrixMarket matrix coordinate real symmetric\n")


def test_solver_failure_exit_code_in_fresh_process(tmp_path):
    # every boundary edge Neumann: the reduced system is singular
    mesh = bf.builtin_mesh("paper")
    markers = np.where(mesh.boundary_markers == 1, 2, mesh.boundary_markers)
    path = tmp_path / "allneumann.mesh"
    bf.write_mesh(bf.Mesh(mesh.nodes, mesh.elements, markers), path)
    run = _python("-m", "bdmfem.cli", "solve", "--mesh", str(path),
                  "--problem", "patch-linear")
    assert run.returncode == 4
    assert "bdmfem: solver failure:" in run.stderr
    assert "Traceback" not in run.stderr
