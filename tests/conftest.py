"""Shared fixtures: the 16-element reference mesh with its hand-checked
topology tables, random-mesh generators for property tests, normal
traces of the basis functions, the whole saddle-system solve that the
hybridized direct solve is checked against, and the line-at-a-time mesh
reader and writer that the section-at-a-time ones are checked against."""

import os
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.spatial import Delaunay

import bdmfem as bf

# `python -m bdmfem.cli` subprocesses import the package from this
# checkout as well, as pytest's own `pythonpath` setting does in-process
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parents[1] / "src"),
    os.environ.get("PYTHONPATH")]))

# Independently tabulated topology of the 16-element reference mesh
# (1-based vertex and edge numbering, as printed by `inspect --dump`).

REFERENCE_EDGES_1B = np.array([
    [1, 2], [1, 4], [1, 6],
    [2, 3], [2, 4], [2, 5], [2, 7],
    [3, 5], [3, 8],
    [4, 6], [4, 7],
    [5, 7], [5, 8],
    [6, 7], [6, 9], [6, 11],
    [7, 8], [7, 9], [7, 10], [7, 12],
    [8, 10], [8, 13],
    [9, 11], [9, 12],
    [10, 12], [10, 13],
    [11, 12],
    [12, 13],
])

REFERENCE_ELEM2EDGE_1B = np.array([
    [1, 2, 5], [3, 10, 2], [14, 11, 10], [7, 5, 11],
    [4, 6, 8], [7, 12, 6], [17, 13, 12], [9, 8, 13],
    [14, 15, 18], [16, 23, 15], [27, 24, 23], [20, 18, 24],
    [17, 19, 21], [20, 25, 19], [28, 26, 25], [22, 21, 26],
])

REFERENCE_SIGNEDGE = np.array([
    [-1, 1, -1], [1, -1, -1], [1, -1, 1], [-1, 1, 1],
    [-1, 1, -1], [1, -1, -1], [1, -1, 1], [-1, 1, 1],
    [-1, 1, -1], [1, -1, -1], [1, -1, 1], [-1, 1, 1],
    [-1, 1, -1], [1, -1, -1], [1, -1, 1], [-1, 1, 1],
])

# Element index arrays of other dtypes than integers, with the dtype's
# name, for the 16-element reference mesh: a float, complex or object
# array fails in numpy's indexing, a boolean one reads as a mask
NON_INTEGER_ELEMENTS = [
    ([0.0], "float64"),
    ([1.5], "float64"),
    ([1j], "complex128"),
    (np.array([0], dtype=object), "object"),
    ([True] * 16, "bool"),
    ([True] * 8 + [False] * 8, "bool"),
]


@pytest.fixture(scope="session")
def paper_mesh():
    return bf.builtin_mesh("paper")


@pytest.fixture(scope="session")
def paper_topo(paper_mesh):
    return bf.build_edge_topology(paper_mesh)


@pytest.fixture(scope="session")
def paper_coeffs(paper_mesh):
    return bf.barycentric_gradients(paper_mesh)


def random_mesh(seed=0, n=40):
    """Delaunay triangulation of random points in (-1,1)^2, counter-
    clockwise, with every boundary edge marked Dirichlet."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, size=(n, 2))
    tri = Delaunay(pts)
    elems = tri.simplices.astype(np.int64)
    # enforce counterclockwise orientation
    d1 = pts[elems[:, 1]] - pts[elems[:, 0]]
    d2 = pts[elems[:, 2]] - pts[elems[:, 0]]
    flip = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] < 0
    elems[flip] = elems[flip][:, [0, 2, 1]]
    mesh = bf.Mesh(pts, elems)
    return mark_boundary_dirichlet(mesh)


def mark_boundary_dirichlet(mesh, neumann_where=None):
    """Mark boundary edges Dirichlet, or Neumann where the predicate
    on the edge midpoint says so."""
    topo = bf.build_edge_topology(mesh)
    adjacency = np.bincount(topo.elem_to_edge.ravel(),
                            minlength=topo.num_edges)
    markers = np.zeros_like(mesh.elements)
    on_boundary = adjacency[topo.elem_to_edge] == 1
    markers[on_boundary] = 1
    if neumann_where is not None:
        mids = mesh.nodes[topo.edges].mean(axis=1)
        neu = neumann_where(mids)[topo.elem_to_edge] & on_boundary
        markers[neu] = 2
    return bf.Mesh(mesh.nodes, mesh.elements, markers)


def random_triangle(rng):
    """A non-degenerate counterclockwise triangle, vertices in (-1,1)."""
    while True:
        p = rng.uniform(-1, 1, size=(3, 2))
        area = 0.5 * _cross2(p[1] - p[0], p[2] - p[0])
        if abs(area) > 0.05:
            return p if area > 0 else p[[0, 2, 1]]


def _cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def integrate_triangle_exact(p, f, order=8):
    """Integrate f over a triangle with a collapsed-square Gauss rule.

    The Duffy substitution x = xi, y = eta (1 - xi) maps the unit
    square onto the reference simplex with Jacobian (1 - xi); an
    `order`-point tensor Gauss rule then integrates any polynomial
    integrand of degree <= 2*order - 2 exactly.  Entirely independent
    of the triangle rules under test.
    """
    gx, gw = np.polynomial.legendre.leggauss(order)
    gx = (gx + 1) / 2
    gw = gw / 2
    xi, eta = np.meshgrid(gx, gx, indexing="ij")
    wq = np.outer(gw, gw) * (1 - xi)
    lam2 = xi
    lam3 = eta * (1 - xi)
    points = (np.multiply.outer(1 - lam2 - lam3, p[0])
              + np.multiply.outer(lam2, p[1])
              + np.multiply.outer(lam3, p[2]))
    area = 0.5 * abs(_cross2(p[1] - p[0], p[2] - p[0]))
    vals = f(points.reshape(-1, 2)).reshape(xi.shape)
    return 2 * area * (wq * vals).sum()


def integrate_segment_exact(p0, p1, f, order=8):
    """Gauss integration of f along a segment (exact for polynomials
    of degree <= 2*order - 1 in arclength)."""
    gx, gw = np.polynomial.legendre.leggauss(order)
    t = (gx + 1) / 2
    points = np.outer(1 - t, p0) + np.outer(t, p1)
    length = np.hypot(*(np.asarray(p1) - np.asarray(p0)))
    return length / 2 * (gw * f(points)).sum()


def edge_elements(topo):
    """Map each edge to the (element, slot) pairs that contain it."""
    owners = [[] for _ in range(topo.num_edges)]
    for t in range(topo.elem_to_edge.shape[0]):
        for i in range(3):
            owners[topo.elem_to_edge[t, i]].append((t, i))
    return owners


def normal_trace(mesh, oriented, element, slot, edge_slot, t, family="bdm1"):
    """Normal trace of a slot's basis functions (a (k,) array) against
    the global normal of the edge in slot `edge_slot`, at parameter t in
    [0, 1] from its global start vertex: lambda_s / |E| and
    lambda_t / |E| (1 / |E| for rt0) on the slot's own edge, zero on
    the other two."""
    j1 = oriented.p[element, edge_slot]
    j2 = oriented.p[element, 3 + edge_slot]
    w = np.zeros(3)
    w[j1] = 1 - t
    w[j2] = t
    verts = mesh.elements[element]
    d = mesh.nodes[verts[j2]] - mesh.nodes[verts[j1]]
    normal = np.array([d[1], -d[0]]) / np.hypot(d[0], d[1])
    return bf.eval_basis(oriented, element, slot, w, family) @ normal


def relabel(mesh, seed):
    """The same mesh with vertices and elements permuted and each
    triangle started at another of its vertices (markers follow)."""
    rng = np.random.default_rng(seed)
    new = rng.permutation(mesh.num_nodes)
    nodes = np.empty_like(mesh.nodes)
    nodes[new] = mesh.nodes
    order = rng.permutation(mesh.num_elements)
    cols = (np.arange(3) + rng.integers(0, 3, (mesh.num_elements, 1))) % 3
    return bf.Mesh(nodes,
                   np.take_along_axis(new[mesh.elements][order], cols, 1),
                   np.take_along_axis(mesh.boundary_markers[order], cols, 1))


def saddle_solve(mesh, problem, family="bdm1"):
    """Reference (sigma, u): the saddle system [B C'; C 0] with the
    Neumann unknowns lifted out, factored whole by SuperLU."""
    topo = bf.build_edge_topology(mesh)
    coeffs = bf.barycentric_gradients(mesh)
    boundary = bf.classify_boundary(mesh, topo)
    inv_alpha = 1.0 / problem.alpha(mesh.nodes[mesh.elements].mean(axis=1))
    system = bf.assemble_system(
        bf.assemble_mass(topo, coeffs, inv_alpha, family),
        bf.assemble_divergence(topo, family))
    b1 = bf.dirichlet_term(mesh, boundary, problem.dirichlet, family)
    b2 = bf.source_term(mesh, coeffs, problem.source)
    lifted = bf.neumann_lift(mesh, boundary, problem.neumann, b1, b2)
    free = lifted.free_dofs
    rhs = lifted.load - system @ lifted.sol
    sol = lifted.sol.copy()
    sol[free] = spla.splu(system[free][:, free].tocsc()).solve(rhs[free])
    nf = bf.flux_dof_count(family, topo.num_edges)
    return sol[:nf], sol[nf:]


def _parse_fields_per_line(lines, lineno, count, conv, what):
    if lineno >= len(lines):
        raise bf.MeshFormatError(
            "line {}: expected {} but file ended".format(lineno + 1, what))
    fields = lines[lineno].split()
    if len(fields) != count:
        raise bf.MeshFormatError(
            "line {}: expected {} ({} fields), got {} fields".format(
                lineno + 1, what, count, len(fields)))
    try:
        return [conv(f) for f in fields]
    except ValueError:
        raise bf.MeshFormatError(
            "line {}: could not parse {}: {!r}".format(
                lineno + 1, what, lines[lineno])) from None


def read_mesh_per_line(path):
    """Reference reader: every line split and converted by Python's
    int and float, one at a time.  It raises OverflowError, not
    MeshFormatError, on an index or marker beyond int64."""
    with open(path) as fh:
        lines = fh.read().splitlines()

    n, nt = _parse_fields_per_line(lines, 0, 2, int,
                                   "vertex and element counts")
    if n < 1 or nt < 1:
        raise bf.MeshFormatError("line 1: counts must be positive")

    nodes = [_parse_fields_per_line(lines, 1 + k, 2, float,
                                    "vertex coordinates")
             for k in range(n)]
    elements = [_parse_fields_per_line(lines, 1 + n + k, 3, int,
                                       "element vertices")
                for k in range(nt)]
    markers = [_parse_fields_per_line(lines, 1 + n + nt + k, 3, int,
                                      "edge markers")
               for k in range(nt)]

    used = 1 + n + 2 * nt
    for k in range(used, len(lines)):
        if lines[k].strip():
            raise bf.MeshFormatError(
                "line {}: trailing content {!r}".format(k + 1, lines[k]))

    elements = np.array(elements, dtype=np.int64)
    markers = np.array(markers, dtype=np.int64)
    if (elements < 1).any() or (elements > n).any():
        t = np.flatnonzero(((elements < 1) | (elements > n)).any(axis=1))[0]
        raise bf.MeshFormatError(
            "line {}: vertex index out of range 1..{}".format(
                1 + n + t + 1, n))
    return bf.Mesh(nodes, elements - 1, markers)


def mesh_text_per_line(mesh):
    """Reference writer: the mesh file's text, one str.format per line."""
    lines = ["{} {}\n".format(mesh.num_nodes, mesh.num_elements)]
    lines += ["{:.17g} {:.17g}\n".format(x, y) for x, y in mesh.nodes]
    lines += ["{} {} {}\n".format(*row) for row in mesh.elements + 1]
    lines += ["{} {} {}\n".format(*row) for row in mesh.boundary_markers]
    return "".join(lines)
