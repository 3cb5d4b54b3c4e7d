"""Property-based checks on random meshes with mixed boundary markers:
the hybridized solve against the whole saddle system, invariance under
relabelling, mesh file round trips, refinement, and the linear patch
test.  The examples are derandomized, so every run draws the same ones."""

from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import bdmfem as bf
from conftest import (mark_boundary_dirichlet, random_mesh, relabel,
                      saddle_solve)

_SOLVES = settings(max_examples=20, deadline=None, derandomize=True,
                   database=None)
_MESHES = settings(max_examples=50, deadline=None, derandomize=True,
                   database=None)


@st.composite
def mixed_meshes(draw):
    """A Delaunay mesh of 8 to 60 random points whose boundary edges
    beyond a random line are Neumann and the others Dirichlet (at
    least one)."""
    mesh = random_mesh(seed=draw(st.integers(0, 2 ** 16)),
                       n=draw(st.integers(8, 60)))
    angle = draw(st.floats(0.0, 2 * np.pi))
    offset = draw(st.floats(-0.5, 1.0))
    direction = np.array([np.cos(angle), np.sin(angle)])
    mesh = mark_boundary_dirichlet(mesh, lambda mid: mid @ direction > offset)
    assume((mesh.boundary_markers == 1).any())
    return mesh


def _with_normal_flux(name, mesh):
    """Built-in problem `name` with the Neumann data sigma . n of its
    exact flux on `mesh`'s Neumann edges: a point takes the outward
    normal of the nearest one (the mesh is convex)."""
    problem = bf.get_problem(name)
    boundary = bf.classify_boundary(mesh, bf.build_edge_topology(mesh))
    start = mesh.nodes[boundary.neumann[:, 0]]
    d = mesh.nodes[boundary.neumann[:, 1]] - start
    normal = np.column_stack([d[:, 1], -d[:, 0]]) / np.hypot(*d.T)[:, None]
    inward = ((mesh.nodes.mean(axis=0) - start) * normal).sum(axis=1) > 0
    normal[inward] *= -1

    def neumann(p):
        along = np.clip(((p[:, None] - start) * d).sum(axis=2)
                        / (d * d).sum(axis=1), 0.0, 1.0)
        gap = np.linalg.norm(p[:, None] - start - along[:, :, None] * d,
                             axis=2)
        nearest = normal[gap.argmin(axis=1)]
        return (problem.exact_sigma(p) * nearest).sum(axis=1)

    return bf.ProblemDefinition(name, problem.alpha, problem.source,
                                problem.dirichlet, neumann, problem.exact_u,
                                problem.exact_sigma)


def _max_rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@_SOLVES
@given(mesh=mixed_meshes(), seed=st.integers(0, 2 ** 16))
def test_hybrid_matches_saddle(mesh, seed):
    mesh = relabel(mesh, seed)
    for name in sorted(bf.PROBLEMS):
        problem = _with_normal_flux(name, mesh)
        for family in bf.FAMILIES:
            sigma, u = saddle_solve(mesh, problem, family)
            sol = bf.solve_problem(mesh, problem, family=family)
            assert _max_rel(sol.sigma, sigma) <= 1e-10
            assert _max_rel(sol.u, u) <= 1e-10


@_SOLVES
@given(mesh=mixed_meshes(), seeds=st.lists(st.integers(0, 2 ** 16),
                                           min_size=3, max_size=3))
def test_relabelling_invariant(mesh, seeds):
    # solved to 1e-13: at the default 1e-10 a first step that meets the
    # tolerance may leave err_u 4e-11 apart between two labellings
    problem = _with_normal_flux("paper-example", mesh)
    splu = bf.solve.spla.splu
    for family in bf.FAMILIES:
        errors, fill = [], []

        def counted(*args, **kwargs):
            lu = splu(*args, **kwargs)
            fill.append(lu.nnz)
            return lu

        with mock.patch.object(bf.solve.spla, "splu", counted):
            for copy in [mesh] + [relabel(mesh, seed) for seed in seeds]:
                topo = bf.build_edge_topology(copy)
                coeffs = bf.barycentric_gradients(copy)
                sol = bf.solve_problem(copy, problem, family=family,
                                       tol=1e-13, topo=topo, coeffs=coeffs)
                errors.append(bf.compute_errors(copy, topo, coeffs, sol,
                                                problem)[:2])
        assert len(set(fill)) == 1
        errors = np.array(errors)
        assert (np.abs(errors - errors[0]) <= 1e-11 * errors[0]).all()


@_MESHES
@given(mesh=mixed_meshes(), seed=st.integers(0, 2 ** 16))
def test_mesh_file_round_trip(tmp_path_factory, mesh, seed):
    # hypothesis reruns the test body, so no function-scoped tmp_path
    path = tmp_path_factory.getbasetemp() / "round-trip.mesh"
    for copy in (mesh, relabel(bf.uniform_refine(mesh), seed)):
        bf.write_mesh(copy, path)
        back = bf.read_mesh(path)
        assert back.nodes.tobytes() == copy.nodes.tobytes()
        assert np.array_equal(back.elements, copy.elements)
        assert np.array_equal(back.boundary_markers, copy.boundary_markers)


def _measures(mesh):
    """Total area and the lengths of the Dirichlet and Neumann
    boundary."""
    boundary = bf.classify_boundary(mesh, bf.build_edge_topology(mesh))
    return [bf.signed_areas(mesh).sum()] + [
        np.hypot(*(mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]]).T).sum()
        for edges in (boundary.dirichlet, boundary.neumann)]


@_MESHES
@given(mesh=mixed_meshes())
def test_refinement_keeps_area_and_boundary(mesh):
    before = _measures(mesh)
    after = _measures(bf.uniform_refine(mesh))
    assert np.allclose(after, before, rtol=1e-12, atol=0.0)


@_SOLVES
@given(mesh=mixed_meshes())
def test_linear_patch(mesh):
    # sigma = (x, y) lies in both flux spaces and its normal trace is
    # constant on every edge, so the lift and the solve reproduce it
    problem = _with_normal_flux("patch-linear", mesh)
    topo = bf.build_edge_topology(mesh)
    coeffs = bf.barycentric_gradients(mesh)
    for family in bf.FAMILIES:
        sol = bf.solve_problem(mesh, problem, family=family, topo=topo,
                               coeffs=coeffs)
        err_sigma, _, _ = bf.compute_errors(mesh, topo, coeffs, sol,
                                            problem)
        assert err_sigma <= 1e-10
