"""Edge-oriented flux basis: orientation tables, point values, normal
traces and divergences."""

import numpy as np
import pytest

import bdmfem as bf
from conftest import edge_elements, normal_trace, random_mesh


@pytest.fixture(scope="module")
def paper_oriented(paper_topo, paper_coeffs):
    return bf.resolve_orientation(paper_topo, paper_coeffs)


def unit_triangle_basis():
    mesh = bf.Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                   [[0, 1, 2]], [[1, 1, 1]])
    topo = bf.build_edge_topology(mesh)
    coeffs = bf.barycentric_gradients(mesh)
    return mesh, bf.resolve_orientation(topo, coeffs)


class TestOrientation:

    def test_swapped_slot(self, paper_oriented):
        # element 0 traverses its first edge against global order
        assert paper_oriented.sign_edge[0, 0] == -1
        assert paper_oriented.p[0, 0] == 2
        assert paper_oriented.p[0, 3] == 1

    def test_vertices_ascend_globally(self, paper_mesh, paper_oriented):
        rows = np.arange(paper_mesh.num_elements)[:, None]
        v1 = paper_mesh.elements[rows, paper_oriented.p[:, :3]]
        v2 = paper_mesh.elements[rows, paper_oriented.p[:, 3:]]
        assert (v1 < v2).all()

    def test_random_mesh_ascends(self):
        mesh = random_mesh(seed=6)
        topo = bf.build_edge_topology(mesh)
        oriented = bf.resolve_orientation(topo, bf.barycentric_gradients(mesh))
        rows = np.arange(mesh.num_elements)[:, None]
        v1 = mesh.elements[rows, oriented.p[:, :3]]
        v2 = mesh.elements[rows, oriented.p[:, 3:]]
        assert (v1 < v2).all()
        assert np.array_equal(np.sort(np.stack([v1, v2], -1).reshape(-1, 2),
                                      axis=0),
                              np.sort(topo.edges[topo.elem_to_edge]
                                      .reshape(-1, 2), axis=0))


class TestPointValues:

    def test_unit_triangle_midpoints(self):
        _, oriented = unit_triangle_basis()
        # slot 0 carries the hypotenuse (1,2): phi1 = lambda_1 (1,0),
        # phi2 = lambda_2 (0,1)
        vals = bf.eval_basis(oriented, 0, 0, [0, 0.5, 0.5])
        assert np.allclose(vals, [[0.5, 0.0], [0.0, 0.5]])
        vals = bf.eval_basis(oriented, 0, 0, [1, 0, 0])
        assert np.allclose(vals, 0.0)

    def test_reference_mesh_values(self, paper_oriented):
        # element 0, swapped slot 0, at the edge midpoint
        vals = bf.eval_basis(paper_oriented, 0, 0, [0, 0.5, 0.5])
        assert np.allclose(vals, [[0.5, -0.5], [-0.5, -0.5]])

    def test_rt0_is_sum(self, paper_oriented):
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = rng.integers(16)
            i = rng.integers(3)
            w = rng.random(3)
            w /= w.sum()
            pair = bf.eval_basis(paper_oriented, t, i, w, family="bdm1")
            one = bf.eval_basis(paper_oriented, t, i, w, family="rt0")
            assert np.allclose(one[0], pair[0] + pair[1], atol=1e-14)

    def test_rt0_closed_form(self):
        # on each element the single function of slot i equals
        # s (x - z_i) / (2|K|), z_i the vertex opposite the edge
        mesh = random_mesh(seed=9)
        topo = bf.build_edge_topology(mesh)
        coeffs = bf.barycentric_gradients(mesh)
        oriented = bf.resolve_orientation(topo, coeffs)
        rng = np.random.default_rng(1)
        for _ in range(30):
            t = rng.integers(mesh.num_elements)
            i = rng.integers(3)
            w = rng.random(3)
            w /= w.sum()
            point = w @ mesh.nodes[mesh.elements[t]]
            opposite = mesh.nodes[mesh.elements[t, i]]
            s = topo.sign_edge[t, i]
            want = s * (point - opposite) / (2 * coeffs.area[t])
            got = bf.eval_basis(oriented, t, i, w, family="rt0")[0]
            assert np.allclose(got, want, atol=1e-13)

    def test_invalid_points_rejected(self, paper_oriented):
        with pytest.raises(ValueError, match="three"):
            bf.eval_basis(paper_oriented, 0, 0, [0.5, 0.5])
        with pytest.raises(ValueError, match="outside"):
            bf.eval_basis(paper_oriented, 0, 0, [-0.1, 0.5, 0.6])
        with pytest.raises(ValueError, match="outside"):
            bf.eval_basis(paper_oriented, 0, 0, [0.6, 0.6, 0.2])
        with pytest.raises(ValueError, match="family"):
            bf.eval_basis(paper_oriented, 0, 0, [1, 0, 0], family="p2")
        # a negative index would otherwise wrap to another slot or element
        for element, slot in ((0, -1), (-1, 0), (0, 3), (16, 0)):
            with pytest.raises(ValueError, match="element {} / slot {} "
                               "outside 0..15".format(element, slot)):
                bf.eval_basis(paper_oriented, element, slot, [1, 0, 0])


class TestNormalTraces:

    def test_own_edge_traces(self, paper_mesh, paper_topo, paper_oriented):
        geom = bf.edge_geometry(paper_mesh, paper_topo)
        for t in range(paper_mesh.num_elements):
            for i in range(3):
                length = geom.length[paper_topo.elem_to_edge[t, i]]
                for s in (0.0, 0.25, 0.5, 1.0):
                    tr = normal_trace(paper_mesh, paper_oriented,
                                      t, i, i, s)
                    assert np.allclose(tr, [(1 - s) / length, s / length],
                                       atol=1e-13)
                    tr = normal_trace(paper_mesh, paper_oriented,
                                      t, i, i, s, family="rt0")
                    assert np.allclose(tr, [1 / length], atol=1e-13)

    def test_vanishes_on_other_edges(self, paper_mesh, paper_oriented):
        for t in (0, 5, 11):
            for i in range(3):
                for j in range(3):
                    if i == j:
                        continue
                    for s in (0.0, 0.3, 1.0):
                        tr = normal_trace(paper_mesh, paper_oriented,
                                          t, i, j, s)
                        assert np.allclose(tr, 0.0, atol=1e-13)

    def test_continuity_across_interior_edges(self):
        mesh = random_mesh(seed=12)
        topo = bf.build_edge_topology(mesh)
        oriented = bf.resolve_orientation(topo, bf.barycentric_gradients(mesh))
        for owners in edge_elements(topo):
            if len(owners) != 2:
                continue
            (ta, ia), (tb, ib) = owners
            for s in (0.0, 0.5, 0.8):
                tra = normal_trace(mesh, oriented, ta, ia, ia, s)
                trb = normal_trace(mesh, oriented, tb, ib, ib, s)
                assert np.allclose(tra, trb, atol=1e-12)


class TestDivergence:
    """The production rows D_K = -(div phi, 1)_K of
    :func:`assembly.element_divergence` against the normal traces."""

    def test_opposite_across_interior_edges(self, paper_topo):
        div = bf.assembly.element_divergence(paper_topo)
        for owners in edge_elements(paper_topo):
            if len(owners) != 2:
                continue
            (ta, ia), (tb, ib) = owners
            assert np.sign(div[ta, ia]) == -np.sign(div[tb, ib])

    def test_divergence_theorem(self):
        # integral of div phi over the element equals the boundary flux;
        # the trace is linear, so two-point Gauss integration is exact
        mesh = random_mesh(seed=15)
        topo = bf.build_edge_topology(mesh)
        coeffs = bf.barycentric_gradients(mesh)
        oriented = bf.resolve_orientation(topo, coeffs)
        geom = bf.edge_geometry(mesh, topo)
        g = (0.5 - 0.5 / np.sqrt(3), 0.5 + 0.5 / np.sqrt(3))
        rng = np.random.default_rng(2)
        for family in bf.FAMILIES:
            div = bf.assembly.element_divergence(topo, family)
            k = bf.functions_per_edge(family)
            for _ in range(10):
                t = rng.integers(mesh.num_elements)
                i = rng.integers(3)
                # both bdm1 functions of a slot share one divergence
                bulk = -div[t, i]
                flux = np.zeros(k)
                for j in range(3):
                    e = topo.elem_to_edge[t, j]
                    s = topo.sign_edge[t, j]  # global -> outward normal
                    for gp in g:
                        tr = normal_trace(mesh, oriented, t, i, j, gp,
                                          family)
                        flux += s * tr * geom.length[e] / 2
                assert np.allclose(flux, bulk, atol=1e-13)

    def test_unknown_family(self, paper_topo):
        with pytest.raises(ValueError, match="family"):
            bf.assembly.element_divergence(paper_topo, "p1")
        with pytest.raises(ValueError, match="family"):
            bf.functions_per_edge("p1")

    def test_dof_counts(self):
        assert bf.flux_dof_count("bdm1", 28) == 56
        assert bf.flux_dof_count("rt0", 28) == 28
