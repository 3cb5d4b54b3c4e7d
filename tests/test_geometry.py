"""Barycentric coefficients, edge geometry and point location."""

import re

import numpy as np
import pytest

import bdmfem as bf
from conftest import NON_INTEGER_ELEMENTS, random_mesh


def test_reference_areas(paper_mesh, paper_coeffs):
    # 16 congruent right triangles tiling the 2 x 2 square
    assert np.allclose(paper_coeffs.area, 0.25)
    assert np.isclose(paper_coeffs.area.sum(), 4.0)
    assert np.array_equal(paper_coeffs.area, bf.signed_areas(paper_mesh))


def test_gradient_identities():
    mesh = random_mesh(seed=1)
    coeffs = bf.barycentric_gradients(mesh)
    grads = (np.stack([coeffs.a, coeffs.b], axis=-1)
             / (2 * coeffs.area)[:, None, None])
    # gradients of a partition of unity sum to zero
    assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-14)
    # grad(lambda_i) . (z_j - z_i) = delta_ij - 1 for j != i ... more
    # simply: lambda_i(z_j) = delta_ij, checked through the area form
    p = mesh.nodes[mesh.elements]  # (NT, 3, 2)
    for i in range(3):
        for j in range(3):
            dot = (grads[:, i] * (p[:, j] - p[:, (i + 1) % 3])).sum(axis=1)
            want = 1.0 if i == j else 0.0
            assert np.allclose(dot, want, atol=1e-12)


def test_degenerate_element_rejected():
    mesh = bf.Mesh([[0, 0], [1, 0], [2, 0]], [[0, 1, 2]], [[1, 1, 1]])
    with pytest.raises(bf.DegenerateElementError, match="element 0"):
        bf.barycentric_gradients(mesh)
    mesh = bf.Mesh([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]], [[1, 1, 1]])
    with pytest.raises(bf.DegenerateElementError):
        bf.barycentric_gradients(mesh)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_vertex_rejected(paper_mesh, value):
    # a NaN area fails no `<= 0` test; inf - inf must not warn either
    # (pytest turns warnings into errors)
    nodes = paper_mesh.nodes.copy()
    nodes[3, 0] = value
    mesh = bf.Mesh(nodes, paper_mesh.elements, paper_mesh.boundary_markers)
    with pytest.raises(bf.DegenerateElementError, match="finite"):
        bf.barycentric_gradients(mesh)


def test_edge_geometry_reference(paper_mesh, paper_topo):
    geom = bf.edge_geometry(paper_mesh, paper_topo)
    # first global edge is (-1,1)->(0,1): length 1, along +x,
    # normal (d_y, -d_x) / |E| = -y
    assert np.isclose(geom.length[0], 1.0)
    assert np.allclose(geom.normal[0], [0.0, -1.0])
    # axis-parallel edges have length 1, half-diagonals sqrt(1/2)
    assert set(np.round(geom.length, 12)) == {1.0, np.round(np.sqrt(0.5), 12)}
    # a unit normal, orthogonal to the edge vector d, with d x n = -|E|
    d = paper_mesh.nodes[paper_topo.edges[:, 1]] \
        - paper_mesh.nodes[paper_topo.edges[:, 0]]
    n = geom.normal
    assert np.allclose(np.hypot(n[:, 0], n[:, 1]), 1.0)
    assert np.allclose((d * n).sum(axis=1), 0.0)
    assert np.allclose(d[:, 0] * n[:, 1] - d[:, 1] * n[:, 0], -geom.length)


def test_normal_points_out_of_minus_side(paper_mesh, paper_topo):
    geom = bf.edge_geometry(paper_mesh, paper_topo)
    centroids = paper_mesh.nodes[paper_mesh.elements].mean(axis=1)
    mids = paper_mesh.nodes[paper_topo.edges].mean(axis=1)
    for t in range(paper_mesh.num_elements):
        for i in range(3):
            e = paper_topo.elem_to_edge[t, i]
            outward = mids[e] - centroids[t]
            side = np.dot(geom.normal[e], outward)
            # sign +1 marks the minus side: global normal points away
            assert np.sign(side) == paper_topo.sign_edge[t, i]


def test_zero_length_edge_rejected():
    # vertices 1 and 2 coincide, so local edge (1, 2) has zero length
    mesh = bf.Mesh([[0, 0], [1, 0], [1, 0]], [[0, 1, 2]])
    topo = bf.build_edge_topology(mesh)
    with pytest.raises(bf.DegenerateElementError, match="zero length"):
        bf.edge_geometry(mesh, topo)


def test_barycentric_coordinates_vertices_and_centroid(paper_mesh,
                                                       paper_coeffs):
    elems = np.arange(paper_mesh.num_elements)
    tri = paper_mesh.nodes[paper_mesh.elements]
    for i in range(3):
        lam = bf.barycentric_coordinates(paper_mesh, paper_coeffs,
                                         elems, tri[:, i])
        want = np.zeros((paper_mesh.num_elements, 3))
        want[:, i] = 1.0
        assert np.allclose(lam, want, atol=1e-14)
    lam = bf.barycentric_coordinates(paper_mesh, paper_coeffs,
                                     elems, tri.mean(axis=1))
    assert np.allclose(lam, 1.0 / 3.0, atol=1e-14)


def test_barycentric_coordinates_shape_refused(paper_mesh, paper_coeffs):
    # 3 points for 2 elements failed with numpy's broadcast error
    with pytest.raises(ValueError, match=r"points of shape \(3, 2\) given "
                       r"for elements of shape \(2,\)"):
        bf.barycentric_coordinates(paper_mesh, paper_coeffs, [0, 1],
                                   np.zeros((3, 2)))


def test_barycentric_coordinates_scalar_element_refused(paper_mesh,
                                                        paper_coeffs):
    # a scalar element with one point passed the shape check and then
    # failed with an IndexError
    with pytest.raises(ValueError, match=r"points of shape \(2,\) given "
                       r"for elements of shape \(\)"):
        bf.barycentric_coordinates(paper_mesh, paper_coeffs, 3, np.zeros(2))


@pytest.mark.parametrize("element", [-1, 16, 99])
def test_barycentric_coordinates_element_outside_refused(
        paper_mesh, paper_coeffs, element):
    # -1 read element 15's vertices, 99 failed with a bare IndexError
    with pytest.raises(ValueError, match=re.escape(
            "element {} outside 0..15".format(element))):
        bf.barycentric_coordinates(paper_mesh, paper_coeffs, [0, element],
                                   np.zeros((2, 2)))


@pytest.mark.parametrize("elements, dtype", NON_INTEGER_ELEMENTS)
def test_barycentric_coordinates_non_integer_elements_refused(
        paper_mesh, paper_coeffs, elements, dtype):
    # floats failed with a bare IndexError, 16 booleans read as a mask
    with pytest.raises(ValueError, match="elements of dtype {} given, need "
                       "integers".format(dtype)):
        bf.barycentric_coordinates(paper_mesh, paper_coeffs, elements,
                                   np.zeros((len(elements), 2)))


def test_barycentric_coordinates_no_elements(paper_mesh, paper_coeffs):
    # an empty list is float64 under np.asarray and failed with IndexError
    lam = bf.barycentric_coordinates(paper_mesh, paper_coeffs, [],
                                     np.zeros((0, 2)))
    assert lam.shape == (0, 3)


def test_barycentric_coordinates_partition_of_unity():
    mesh = random_mesh(seed=4)
    coeffs = bf.barycentric_gradients(mesh)
    rng = np.random.default_rng(8)
    elems = rng.integers(0, mesh.num_elements, size=50)
    w = rng.random((50, 3))
    w /= w.sum(axis=1, keepdims=True)
    points = np.einsum("nj,njk->nk", w, mesh.nodes[mesh.elements[elems]])
    lam = bf.barycentric_coordinates(mesh, coeffs, elems, points)
    assert np.allclose(lam.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(lam, w, atol=1e-10)
