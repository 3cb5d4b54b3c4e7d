"""Mesh data model, edge topology, boundary classification, refinement
and the text file format."""

import functools
import string

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bdmfem as bf
from conftest import (REFERENCE_EDGES_1B, REFERENCE_ELEM2EDGE_1B,
                      REFERENCE_SIGNEDGE, mesh_text_per_line, random_mesh,
                      read_mesh_per_line, relabel)


def single_triangle():
    return bf.Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                   [[0, 1, 2]], [[1, 1, 1]])


class TestTopology:

    def test_reference_edge_table(self, paper_topo):
        assert paper_topo.num_edges == 28
        assert np.array_equal(paper_topo.edges + 1, REFERENCE_EDGES_1B)

    def test_reference_elem_to_edge(self, paper_topo):
        assert np.array_equal(paper_topo.elem_to_edge + 1,
                              REFERENCE_ELEM2EDGE_1B)

    def test_reference_sign_edge(self, paper_topo):
        assert np.array_equal(paper_topo.sign_edge, REFERENCE_SIGNEDGE)

    def test_single_triangle(self):
        topo = bf.build_edge_topology(single_triangle())
        assert np.array_equal(topo.edges, [[0, 1], [0, 2], [1, 2]])
        # local edges (1,2), (2,0), (0,1) against ascending global pairs
        assert np.array_equal(topo.elem_to_edge, [[2, 1, 0]])
        assert np.array_equal(topo.sign_edge, [[1, -1, 1]])

    def test_edges_sorted_and_ascending(self):
        topo = bf.build_edge_topology(random_mesh(seed=3))
        assert (topo.edges[:, 0] < topo.edges[:, 1]).all()
        order = np.lexsort((topo.edges[:, 1], topo.edges[:, 0]))
        assert np.array_equal(order, np.arange(topo.num_edges))

    def test_edge_count_identity(self):
        # 3 NT = 2 * interior + boundary
        mesh = random_mesh(seed=7)
        topo = bf.build_edge_topology(mesh)
        adjacency = np.bincount(topo.elem_to_edge.ravel(),
                                minlength=topo.num_edges)
        interior = (adjacency == 2).sum()
        boundary = (adjacency == 1).sum()
        assert 3 * mesh.num_elements == 2 * interior + boundary
        assert interior + boundary == topo.num_edges

    def test_interior_signs_opposite(self):
        mesh = random_mesh(seed=11)
        topo = bf.build_edge_topology(mesh)
        sign_sum = np.zeros(topo.num_edges)
        np.add.at(sign_sum, topo.elem_to_edge.ravel(),
                  topo.sign_edge.ravel())
        adjacency = np.bincount(topo.elem_to_edge.ravel(),
                                minlength=topo.num_edges)
        assert (sign_sum[adjacency == 2] == 0).all()

    def test_element_permutation_invariance(self, paper_mesh, paper_topo):
        rng = np.random.default_rng(5)
        perm = rng.permutation(paper_mesh.num_elements)
        shuffled = bf.Mesh(paper_mesh.nodes, paper_mesh.elements[perm],
                           paper_mesh.boundary_markers[perm])
        topo = bf.build_edge_topology(shuffled)
        assert np.array_equal(topo.edges, paper_topo.edges)
        assert np.array_equal(topo.elem_to_edge,
                              paper_topo.elem_to_edge[perm])
        assert np.array_equal(topo.sign_edge, paper_topo.sign_edge[perm])

    def test_non_manifold_edge_rejected(self):
        mesh = bf.Mesh([[0, 0], [1, 0], [0, 1], [0, -1], [-1, 0]],
                       [[0, 1, 2], [0, 3, 1], [0, 1, 4]])
        with pytest.raises(bf.MeshTopologyError, match=r"\(0, 1\)"):
            bf.build_edge_topology(mesh)
        assert bf.validate_mesh(mesh)[-1] == ("edge (0, 1): shared by 3 "
                                              "elements")


class TestValidation:

    def test_reference_mesh_valid(self, paper_mesh):
        assert bf.validate_mesh(paper_mesh) == []

    def test_index_out_of_range(self):
        mesh = bf.Mesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 7]])
        assert any("out of range" in v for v in bf.validate_mesh(mesh))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_coordinates(self, paper_mesh, value):
        nodes = paper_mesh.nodes.copy()
        nodes[3, 0] = value
        mesh = bf.Mesh(nodes, paper_mesh.elements,
                       paper_mesh.boundary_markers)
        assert bf.validate_mesh(mesh) == ["vertex 3: non-finite coordinates"]

    @pytest.mark.parametrize("elements, markers", [
        ([[0, 1, 2 ** 63]], None),
        ([[0, 1, 2]], [[1, 1, -2 ** 63 - 1]]),
    ])
    def test_beyond_int64_is_mesh_error(self, elements, markers):
        with pytest.raises(bf.MeshError, match="int64"):
            bf.Mesh([[0, 0], [1, 0], [0, 1]], elements, markers)

    @pytest.mark.parametrize("field, elements, markers", [
        ("elements", [[0, 1, 2.7]], None),
        ("elements", [[0, 1, np.nan]], None),
        ("elements", [[0, 1, np.inf]], None),
        ("elements", np.array([[0, 1, 1e30]]), None),
        ("boundary_markers", [[0, 1, 2]], [[1, 0.5, 1]]),
        ("elements", np.array([[0, 1, 2.5]], dtype=object), None),
    ])
    def test_non_integral_is_mesh_error(self, field, elements, markers):
        # never truncated to an index or marker that validates
        with pytest.raises(bf.MeshError, match=field + " must be integers"):
            bf.Mesh([[0, 0], [1, 0], [0, 1]], elements, markers)

    @pytest.mark.parametrize("field, nodes, elements, markers", [
        ("nodes", [[0, 0], [1, 0], [0]], [[0, 1, 2]], None),
        ("nodes", [[0, 0], [1, "a"], [0, 1]], [[0, 1, 2]], None),
        ("elements", [[0, 0], [1, 0], [0, 1]], [[0, 1], [2]], None),
        ("elements", [[0, 0], [1, 0], [0, 1]], [[0, 1, "a"]], None),
        ("elements", [[0, 0], [1, 0], [0, 1]], [[0, 1, None]], None),
        ("boundary_markers", [[0, 0], [1, 0], [0, 1]], [[0, 1, 2]],
         [[1, 1], [1]]),
        ("boundary_markers", [[0, 0], [1, 0], [0, 1]], [[0, 1, 2]],
         [[1, "a", 1]]),
        # numeric strings too, though numpy would parse them
        ("nodes", [[0, 0], [1, 0], [0, "1"]], [[0, 1, 2]], None),
        ("elements", [[0, 0], [1, 0], [0, 1]], [[0, 1, "2"]], None),
        ("elements", [[0, 0], [1, 0], [0, 1]], [[0, 1, "2.5"]], None),
        ("boundary_markers", [[0, 0], [1, 0], [0, 1]], [[0, 1, 2]],
         [["1", "1", 1]]),
        # and when an object array holds them
        ("nodes", np.array([[0, 0], [1, 0], [0, "1"]], dtype=object),
         [[0, 1, 2]], None),
        ("elements", [[0, 0], [1, 0], [0, 1]],
         np.array([[0, 1, "2"]], dtype=object), None),
    ])
    def test_ragged_or_non_numeric_is_mesh_error(self, field, nodes,
                                                 elements, markers):
        with pytest.raises(bf.MeshError,
                           match=field + " must be a rectangular array"):
            bf.Mesh(nodes, elements, markers)

    @pytest.mark.parametrize("message, nodes, elements, markers", [
        (r"nodes must be an \(N, 2\)", [0, 0, 1, 0, 0, 1], [[0, 1, 2]],
         None),
        (r"nodes must be an \(N, 2\)", [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
         [[0, 1, 2]], None),
        (r"elements must be an \(NT, 3\)", [[0, 0], [1, 0], [0, 1]],
         [0, 1, 2], None),
        (r"elements must be an \(NT, 3\)", [[0, 0], [1, 0], [0, 1]],
         [[0, 1]], None),
        ("boundary_markers must match", [[0, 0], [1, 0], [0, 1]],
         [[0, 1, 2]], [1, 1, 1]),
    ])
    def test_wrong_shape_is_mesh_error(self, message, nodes, elements,
                                       markers):
        with pytest.raises(bf.MeshError, match=message):
            bf.Mesh(nodes, elements, markers)

    def test_object_array_of_numbers_accepted(self):
        mesh = bf.Mesh(np.array([[0, 0], [1, 0], [0, 1.0]], dtype=object),
                       np.array([[0, 1, 2]], dtype=object))
        assert mesh.nodes.dtype == float
        assert mesh.elements.tolist() == [[0, 1, 2]]

    def test_integral_floats_accepted(self):
        mesh = bf.Mesh([[0, 0], [1, 0], [0, 1]], [[0.0, 1.0, 2.0]],
                       np.ones((1, 3)))
        assert mesh.elements.dtype == np.int64
        assert mesh.elements.tolist() == [[0, 1, 2]]
        assert mesh.boundary_markers.tolist() == [[1, 1, 1]]

    def test_clockwise_element(self):
        mesh = bf.Mesh([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]], [[1, 1, 1]])
        assert any("area" in v for v in bf.validate_mesh(mesh))

    def test_unreferenced_vertex(self):
        mesh = bf.Mesh([[0, 0], [1, 0], [0, 1], [5, 5]], [[0, 1, 2]],
                       [[1, 1, 1]])
        assert any("vertex 3" in v for v in bf.validate_mesh(mesh))

    def test_bad_marker_value(self):
        mesh = bf.Mesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]], [[1, 9, 1]])
        assert any("marker 9" in v for v in bf.validate_mesh(mesh))

    def test_marker_on_interior_edge(self):
        mesh = bf.Mesh([[0, 0], [1, 0], [1, 1], [0, 1]],
                       [[0, 1, 2], [0, 2, 3]],
                       [[1, 1, 1], [1, 1, 1]])  # (0,2) is interior
        assert any("interior edge (0, 2)" in v for v in bf.validate_mesh(mesh))

    def test_unmarked_boundary_edge(self):
        mesh = bf.Mesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]], [[1, 0, 1]])
        assert any("unmarked" in v for v in bf.validate_mesh(mesh))

    def test_classify_raises_on_interior_marker(self):
        mesh = bf.Mesh([[0, 0], [1, 0], [1, 1], [0, 1]],
                       [[0, 1, 2], [0, 2, 3]],
                       [[1, 1, 1], [1, 1, 1]])
        topo = bf.build_edge_topology(mesh)
        with pytest.raises(bf.MeshError, match="interior"):
            bf.classify_boundary(mesh, topo)


class TestBoundary:

    def test_reference_split(self, paper_mesh, paper_topo):
        bd = bf.classify_boundary(paper_mesh, paper_topo)
        assert bd.num_dirichlet == 6
        assert bd.num_neumann == 2
        # the Neumann segment is the top edge y = 1
        assert np.array_equal(bd.neumann + 1, [[1, 2], [2, 3]])
        assert (paper_mesh.nodes[bd.neumann][:, :, 1] == 1).all()
        assert np.array_equal(bd.ind_neumann + 1, [1, 4])

    def test_signs_match_topology(self, paper_mesh, paper_topo):
        bd = bf.classify_boundary(paper_mesh, paper_topo)
        # both top elements traverse their boundary edge descending
        assert np.array_equal(bd.sign_neumann, [-1, -1])
        # every sign equals the owning element's sign_edge entry
        adjacency_sign = np.zeros(paper_topo.num_edges, dtype=int)
        boundary_edges = np.bincount(paper_topo.elem_to_edge.ravel(),
                                     minlength=paper_topo.num_edges) == 1
        np.add.at(adjacency_sign, paper_topo.elem_to_edge.ravel(),
                  paper_topo.sign_edge.ravel())
        for rows, signs, inds in ((bd.dirichlet, bd.sign_dirichlet,
                                   bd.ind_dirichlet),
                                  (bd.neumann, bd.sign_neumann,
                                   bd.ind_neumann)):
            assert np.array_equal(paper_topo.edges[inds], rows)
            assert boundary_edges[inds].all()
            assert np.array_equal(adjacency_sign[inds], signs)

    def test_rows_sorted(self):
        mesh = random_mesh(seed=13)
        topo = bf.build_edge_topology(mesh)
        bd = bf.classify_boundary(mesh, topo)
        assert bd.num_dirichlet > 0
        d = bd.dirichlet
        keys = d[:, 0] * mesh.num_nodes + d[:, 1]
        assert (np.diff(keys) > 0).all()

    @pytest.mark.parametrize("seed", [1, 3])
    def test_stale_topology_rejected(self, paper_mesh, seed):
        # relabelled vertices, elements kept in order: the topology of
        # the original still fits by shape but names other vertex pairs;
        # searched blindly, seed 3 maps two Neumann edges onto one global
        # edge and seed 1 maps them onto wrong ones
        fine = bf.uniform_refine(paper_mesh)
        new = np.random.default_rng(seed).permutation(fine.num_nodes)
        nodes = np.empty_like(fine.nodes)
        nodes[new] = fine.nodes
        permuted = bf.Mesh(nodes, new[fine.elements], fine.boundary_markers)
        stale = bf.build_edge_topology(fine)
        with pytest.raises(bf.MeshTopologyError,
                           match=r"edge \(\d+, \d+\) is not in the edge"):
            bf.classify_boundary(permuted, stale)
        with pytest.raises(bf.MeshTopologyError):
            bf.solve_problem(permuted, bf.get_problem("paper-example"),
                             topo=stale)

    @pytest.mark.parametrize("call", ["classify", "solve-topo",
                                      "solve-coeffs", "errors",
                                      "solve-coeffs-same-size",
                                      "errors-coeffs-same-size",
                                      "errors-topo-same-size",
                                      "orientation"])
    def test_data_of_coarser_mesh_rejected(self, paper_mesh, paper_topo,
                                           paper_coeffs, call):
        # topology or coefficients of the base mesh passed with its
        # refinement: fewer elements, so blind indexing would fail.
        # The same-size cases pass the coefficients or topology of the
        # refinement with a relabelled copy of it: same count, same
        # areas, other vertex order; unchecked, the coefficients put u
        # 11% off and the topology err_sigma 300-fold, without an error
        fine = bf.uniform_refine(paper_mesh)
        problem = bf.get_problem("paper-example")
        solution = bf.solve_problem(fine, problem)
        other = relabel(fine, 11)
        fine_coeffs = bf.barycentric_gradients(fine)
        calls = {
            "classify": lambda: bf.classify_boundary(fine, paper_topo),
            "solve-topo": lambda: bf.solve_problem(fine, problem,
                                                   topo=paper_topo),
            "solve-coeffs": lambda: bf.solve_problem(fine, problem,
                                                     coeffs=paper_coeffs),
            "errors": lambda: bf.compute_errors(
                fine, paper_topo, fine_coeffs, solution, problem),
            "solve-coeffs-same-size": lambda: bf.solve_problem(
                other, problem, coeffs=fine_coeffs),
            "errors-coeffs-same-size": lambda: bf.compute_errors(
                other, bf.build_edge_topology(other), fine_coeffs,
                bf.solve_problem(other, problem), problem),
            "errors-topo-same-size": lambda: bf.compute_errors(
                other, bf.build_edge_topology(fine),
                bf.barycentric_gradients(other),
                bf.solve_problem(other, problem), problem),
            "orientation": lambda: bf.resolve_orientation(paper_topo,
                                                          fine_coeffs),
        }
        with pytest.raises(bf.MeshTopologyError, match="another mesh"):
            calls[call]()

    def test_topology_of_relabelled_copy_named(self, paper_mesh):
        # the foreign topology's adjacency would put a marked edge in
        # the interior; the edge pairs are compared first
        fine = bf.uniform_refine(bf.uniform_refine(paper_mesh))
        with pytest.raises(bf.MeshTopologyError, match="another mesh"):
            bf.classify_boundary(relabel(fine, 11),
                                 bf.build_edge_topology(fine))

    def test_flipped_signs_rejected(self, paper_mesh, paper_topo):
        flipped = bf.EdgeTopology(paper_topo.edges, paper_topo.elem_to_edge,
                                  -paper_topo.sign_edge)
        with pytest.raises(bf.MeshTopologyError, match="another mesh"):
            bf.classify_boundary(paper_mesh, flipped)

    def test_interior_marker_rejected(self, paper_mesh, paper_topo):
        markers = paper_mesh.boundary_markers.copy()
        t, i = np.argwhere(markers == 0)[0]
        markers[t, i] = 1
        mesh = bf.Mesh(paper_mesh.nodes, paper_mesh.elements, markers)
        with pytest.raises(bf.MeshError, match="interior edge") as info:
            bf.classify_boundary(mesh, paper_topo)
        assert not isinstance(info.value, bf.MeshTopologyError)


class TestRefinement:

    def test_counts(self, paper_mesh):
        fine = bf.uniform_refine(paper_mesh)
        assert fine.num_nodes == 13 + 28
        assert fine.num_elements == 64
        assert bf.build_edge_topology(fine).num_edges == 104
        finer = bf.uniform_refine(fine)
        assert finer.num_elements == 256

    def test_six_levels(self, paper_mesh):
        mesh = paper_mesh
        for _ in range(6):
            mesh = bf.uniform_refine(mesh)
        assert mesh.num_elements == 16 * 4 ** 6 == 65536

    def test_area_preserved(self):
        mesh = random_mesh(seed=17)
        fine = bf.uniform_refine(mesh)
        assert bf.validate_mesh(fine) == []
        assert np.isclose(bf.signed_areas(fine).sum(),
                          bf.signed_areas(mesh).sum(), rtol=1e-13)
        # children have a quarter of the parent area
        child = bf.signed_areas(fine).reshape(4, mesh.num_elements)
        assert np.allclose(child, bf.signed_areas(mesh) / 4, rtol=1e-12)

    def test_markers_inherited(self, paper_mesh):
        fine = bf.uniform_refine(paper_mesh)
        assert bf.validate_mesh(fine) == []
        for kind in (1, 2):
            coarse_edges = _marked_edge_set(paper_mesh, kind)
            fine_edges = _marked_edge_set(fine, kind)
            assert len(fine_edges) == 2 * len(coarse_edges)
            # each child edge joins a parent endpoint to the midpoint
            for a, b in fine_edges:
                pa, pb = fine.nodes[a], fine.nodes[b]
                mid = tuple((pa + pb) / 2)
                assert any(
                    np.allclose((fine.nodes[c] + fine.nodes[d]) / 2, pa)
                    or np.allclose((fine.nodes[c] + fine.nodes[d]) / 2, pb)
                    for c, d in coarse_edges)
        # the Neumann segment stays on y = 1
        topo = bf.build_edge_topology(fine)
        bd = bf.classify_boundary(fine, topo)
        assert bd.num_neumann == 4
        assert (fine.nodes[bd.neumann][:, :, 1] == 1).all()

    def test_boundary_polygon_preserved(self):
        mesh = random_mesh(seed=23)
        fine = bf.uniform_refine(mesh)
        # boundary vertices of the refined mesh lie on parent boundary
        # segments, so the total boundary length is unchanged
        assert np.isclose(_boundary_length(mesh), _boundary_length(fine),
                          rtol=1e-12)


def _marked_edge_set(mesh, kind):
    t, i = np.nonzero(mesh.boundary_markers == kind)
    le = bf.mesh.LOCAL_EDGES
    pairs = set()
    for tt, ii in zip(t, i):
        a, b = mesh.elements[tt, le[ii]]
        pairs.add((min(a, b), max(a, b)))
    return pairs


def _boundary_length(mesh):
    topo = bf.build_edge_topology(mesh)
    adjacency = np.bincount(topo.elem_to_edge.ravel(),
                            minlength=topo.num_edges)
    d = mesh.nodes[topo.edges[:, 1]] - mesh.nodes[topo.edges[:, 0]]
    return np.hypot(d[:, 0], d[:, 1])[adjacency == 1].sum()


class TestMeshIO:

    def test_round_trip(self, tmp_path, paper_mesh):
        path = tmp_path / "square.mesh"
        bf.write_mesh(paper_mesh, path)
        back = bf.read_mesh(path)
        assert np.array_equal(back.nodes, paper_mesh.nodes)
        assert np.array_equal(back.elements, paper_mesh.elements)
        assert np.array_equal(back.boundary_markers,
                              paper_mesh.boundary_markers)

    def test_round_trip_random_coordinates(self, tmp_path):
        mesh = random_mesh(seed=29, n=600)
        assert mesh.num_elements >= 1000
        path = tmp_path / "random.mesh"
        bf.write_mesh(mesh, path)
        back = bf.read_mesh(path)
        assert np.array_equal(back.nodes, mesh.nodes)  # bitwise
        assert np.array_equal(back.elements, mesh.elements)
        assert np.array_equal(back.boundary_markers, mesh.boundary_markers)

    def test_writer_matches_per_line_format(self, tmp_path):
        # every magnitude from 1e-300 to 1e300, signed zeros,
        # subnormals and non-finite values, to 17 significant digits
        rng = np.random.default_rng(17)
        wide = rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(
            -300, 300, 4000)
        subnormal = rng.uniform(-1, 1, 100) * 2.2250738585072014e-308
        special = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan,
                   -np.nan, 1.7976931348623157e308, 0.1, 1 / 3]
        nodes = np.concatenate([wide, subnormal, special, [0.0]])
        nodes = nodes.reshape(-1, 2)
        elements = rng.integers(0, len(nodes), (1000, 3))
        markers = rng.integers(0, 3, (1000, 3))
        mesh = bf.Mesh(nodes, elements, markers)
        path = tmp_path / "block.mesh"
        bf.write_mesh(mesh, path)
        assert path.read_bytes() == mesh_text_per_line(mesh).encode()

    def test_trailing_garbage_rejected(self, tmp_path, paper_mesh):
        path = tmp_path / "bad.mesh"
        bf.write_mesh(paper_mesh, path)
        with open(path, "a") as fh:
            fh.write("stray tokens here\n")
        with pytest.raises(bf.MeshFormatError, match="trailing"):
            bf.read_mesh(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "short.mesh"
        path.write_text("3 1\n0 0\n1 0\n")
        with pytest.raises(bf.MeshFormatError, match="line 4"):
            bf.read_mesh(path)

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "fields.mesh"
        path.write_text("3 1\n0 0\n1 0 9\n0 1\n1 2 3\n1 1 1\n")
        with pytest.raises(bf.MeshFormatError, match="line 3"):
            bf.read_mesh(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "alpha.mesh"
        path.write_text("3 1\n0 zero\n1 0\n0 1\n1 2 3\n1 1 1\n")
        with pytest.raises(bf.MeshFormatError, match="line 2"):
            bf.read_mesh(path)

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "range.mesh"
        path.write_text("3 1\n0 0\n1 0\n0 1\n1 2 5\n1 1 1\n")
        with pytest.raises(bf.MeshFormatError, match="out of range"):
            bf.read_mesh(path)

    @pytest.mark.parametrize("section", ["element", "marker"])
    def test_integer_overflow(self, tmp_path, section):
        line = {"element": 5, "marker": 6}[section]
        lines = ["3 1", "0 0", "1 0", "0 1", "1 2 3", "1 1 1"]
        lines[line - 1] = "1 2 99999999999999999999"  # beyond int64
        path = tmp_path / "overflow.mesh"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(bf.MeshFormatError,
                           match="line {}: could not parse".format(line)):
            bf.read_mesh(path)

    def test_tokens_match_per_line_parser(self, tmp_path):
        path = tmp_path / "token.mesh"
        for line in range(1, 7):  # counts, vertex, element, marker lines
            for token in _TOKENS:
                lines = ["3 1", "0 0", "1 0", "0 1", "1 2 3", "1 1 1"]
                lines[line - 1] = token + lines[line - 1][1:]
                path.write_text("\n".join(lines) + "\n")
                _assert_same_outcome(path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_reader_matches_per_line_parser(self, tmp_path_factory, data):
        # hypothesis reruns the test body, so no function-scoped tmp_path
        path = tmp_path_factory.getbasetemp() / "fuzz.mesh"
        path.write_text(data.draw(_corrupted_mesh_text()))
        _assert_same_outcome(path)

    def test_mesh_arrays_frozen(self, paper_mesh):
        with pytest.raises(ValueError):
            paper_mesh.nodes[0, 0] = 99.0


# tokens Python's int or float read differently from numpy, or not at all
_TOKENS = ["zero", "1_0", "+3", "3.0", "1e3", "nan", "1\x0c2", "1\t2",
           "99999999999999999999", "-0", "\u0663", "1\u01fe2", "\xa01"]


@functools.lru_cache(maxsize=None)
def _mesh_text(seed):
    return mesh_text_per_line(bf.builtin_mesh("paper") if seed < 0
                              else random_mesh(seed=seed, n=8 + seed))


@st.composite
def _corrupted_mesh_text(draw):
    """A written mesh with at most one corruption."""
    text = _mesh_text(draw(st.integers(-1, 4)))
    lines = text.splitlines()
    kind = draw(st.sampled_from(["none", "drop", "add", "token", "blank",
                                 "truncate", "trailing"]))
    k = draw(st.integers(0, len(lines) - 1))
    fields = lines[k].split()
    i = draw(st.integers(0, len(fields) - 1))
    if kind == "drop":
        del fields[i]
    elif kind == "add":
        fields.insert(i, draw(st.sampled_from(["0", "1", "2.5"])))
    elif kind == "token":
        fields[i] = draw(st.sampled_from(_TOKENS) | st.text(
            string.printable + "\xa0\u2003\u0663\uff13", min_size=1,
            max_size=4))
    if kind in ("drop", "add", "token"):
        lines[k] = " ".join(fields)
    elif kind == "blank":
        lines.insert(k, draw(st.sampled_from(["", "  ", "\t"])))
    text = "\n".join(lines) + "\n"
    if kind == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif kind == "trailing":
        text += draw(st.sampled_from(["x\n", "\n\n", "1 2 3\n", " \n"]))
    return text


def _assert_same_outcome(path):
    """read_mesh returns the per-line reader's arrays bit for bit or
    raises its MeshFormatError message."""
    outcome = []
    for reader in (read_mesh_per_line, bf.read_mesh):
        try:
            outcome.append(reader(path))
        except bf.MeshFormatError as exc:
            outcome.append(str(exc))
        except OverflowError:
            outcome.append(OverflowError)
    expected, actual = outcome
    if expected is OverflowError:
        # the one intended difference: beyond int64 is a format error
        assert isinstance(actual, str) and "could not parse" in actual
    elif isinstance(expected, str):
        assert actual == expected
    else:
        for name in ("nodes", "elements", "boundary_markers"):
            want, got = getattr(expected, name), getattr(actual, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()  # bitwise
