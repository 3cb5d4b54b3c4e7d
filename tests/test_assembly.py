"""System assembly checked against direct quadrature of the basis
functions and against structural invariants of the saddle matrix."""

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

import bdmfem as bf
from conftest import random_mesh

QUAD = bf.TRI_QUADRATURE_DEGREE4


def quadrature_mass(mesh, topo, coeffs, inv_alpha, family):
    """Assemble B by numerical integration of basis products.

    Completely independent of the closed forms: evaluates the basis
    functions at the six quadrature points of every element and sums
    w_q phi_m(x_q) . phi_n(x_q) |K| / alpha.
    """
    oriented = bf.resolve_orientation(topo, coeffs)
    k = bf.functions_per_edge(family)
    ne = topo.num_edges
    n = bf.flux_dof_count(family, ne)
    mat = np.zeros((n, n))
    for t in range(mesh.num_elements):
        vals = np.empty((3, k, len(QUAD.weights), 2))
        for i in range(3):
            for q, w in enumerate(QUAD.barycentric):
                vals[i, :, q] = bf.eval_basis(oriented, t, i, w, family)
        dofs = np.empty((3, k), dtype=int)
        for i in range(3):
            e = topo.elem_to_edge[t, i]
            dofs[i] = [e + m * ne for m in range(k)]
        for i in range(3):
            for mi in range(k):
                for j in range(3):
                    for mj in range(k):
                        acc = (QUAD.weights
                               * (vals[i, mi] * vals[j, mj]).sum(axis=1)).sum()
                        mat[dofs[i, mi], dofs[j, mj]] += (
                            acc * coeffs.area[t] * inv_alpha[t])
    return mat


def paper_inv_alpha(mesh):
    problem = bf.get_problem("paper-example")
    centroids = mesh.nodes[mesh.elements].mean(axis=1)
    return 1.0 / problem.alpha(centroids)


class TestMass:

    @pytest.mark.parametrize("family", bf.FAMILIES)
    def test_matches_quadrature(self, paper_mesh, paper_topo, paper_coeffs,
                                family):
        inv_alpha = paper_inv_alpha(paper_mesh)
        closed = bf.assemble_mass(paper_topo, paper_coeffs, inv_alpha,
                                  family).toarray()
        quad = quadrature_mass(paper_mesh, paper_topo, paper_coeffs,
                               inv_alpha, family)
        scale = np.abs(quad).max()
        assert np.allclose(closed, quad, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("family", bf.FAMILIES)
    def test_matches_quadrature_random(self, family):
        mesh = random_mesh(seed=21, n=12)
        topo = bf.build_edge_topology(mesh)
        coeffs = bf.barycentric_gradients(mesh)
        rng = np.random.default_rng(3)
        inv_alpha = rng.uniform(0.1, 10.0, mesh.num_elements)
        closed = bf.assemble_mass(topo, coeffs, inv_alpha, family).toarray()
        quad = quadrature_mass(mesh, topo, coeffs, inv_alpha, family)
        scale = np.abs(quad).max()
        assert np.allclose(closed, quad, rtol=0, atol=1e-12 * scale)

    def test_exact_symmetry(self, paper_topo, paper_coeffs, paper_mesh):
        inv_alpha = paper_inv_alpha(paper_mesh)
        for family in bf.FAMILIES:
            mass = bf.assemble_mass(paper_topo, paper_coeffs, inv_alpha,
                                    family)
            diff = (mass - mass.T).tocoo()
            assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0

    def test_positive_definite(self, paper_topo, paper_coeffs, paper_mesh):
        inv_alpha = paper_inv_alpha(paper_mesh)
        mass = bf.assemble_mass(paper_topo, paper_coeffs, inv_alpha).toarray()
        eigs = np.linalg.eigvalsh(mass)
        assert eigs.min() > 0

    def test_inverse_alpha_scaling(self, paper_topo, paper_coeffs,
                                   paper_mesh):
        inv_alpha = paper_inv_alpha(paper_mesh)
        a = bf.assemble_mass(paper_topo, paper_coeffs, inv_alpha)
        b = bf.assemble_mass(paper_topo, paper_coeffs, 3 * inv_alpha)
        assert np.allclose(b.toarray(), 3 * a.toarray(), rtol=1e-15)


class TestDivergence:

    def test_reference_first_row(self, paper_topo):
        # element 0 has signs (-1, +1, -1) on global edges (0, 1, 4):
        # entries +1/2, -1/2, +1/2 in both function blocks
        div = bf.assemble_divergence(paper_topo).toarray()
        row = div[0]
        ne = paper_topo.num_edges
        expect = np.zeros(2 * ne)
        expect[[0, 4]] = 0.5
        expect[1] = -0.5
        expect[[ne, ne + 4]] = 0.5
        expect[ne + 1] = -0.5
        assert np.array_equal(row, expect)

    def test_rt0_row(self, paper_topo):
        div = bf.assemble_divergence(paper_topo, family="rt0").toarray()
        row = div[0]
        expect = np.zeros(paper_topo.num_edges)
        expect[[0, 4]] = 1.0
        expect[1] = -1.0
        assert np.array_equal(row, expect)

    def test_interior_columns_sum_to_zero(self, paper_topo):
        div = bf.assemble_divergence(paper_topo)
        colsum = np.asarray(div.sum(axis=0)).ravel()
        adjacency = np.bincount(paper_topo.elem_to_edge.ravel(),
                                minlength=paper_topo.num_edges)
        interior = np.concatenate([adjacency == 2] * 2)
        assert np.abs(colsum[interior]).max() == 0.0

    def test_nonzero_count(self, paper_topo):
        div = bf.assemble_divergence(paper_topo)
        assert div.nnz == 16 * 6
        div = bf.assemble_divergence(paper_topo, family="rt0")
        assert div.nnz == 16 * 3

    def test_equals_divergence_times_area(self, paper_topo):
        # div phi = s / (k |K|) for the k functions of an edge, so the
        # area cancels: -(div phi, 1)_K = -s / k
        for family in bf.FAMILIES:
            div = bf.assemble_divergence(paper_topo, family).toarray()
            ne = paper_topo.num_edges
            k = bf.functions_per_edge(family)
            for t in (0, 7, 13):
                for i in range(3):
                    val = -paper_topo.sign_edge[t, i] / k
                    e = paper_topo.elem_to_edge[t, i]
                    for m in range(k):
                        assert np.isclose(div[t, e + m * ne], val,
                                          rtol=1e-15)


class TestSystem:

    def test_shape_and_blocks(self, paper_mesh, paper_topo, paper_coeffs):
        inv_alpha = paper_inv_alpha(paper_mesh)
        mass = bf.assemble_mass(paper_topo, paper_coeffs, inv_alpha)
        div = bf.assemble_divergence(paper_topo)
        system = bf.assemble_system(mass, div)
        assert system.shape == (72, 72)
        dense = system.toarray()
        assert np.array_equal(dense[:56, :56], mass.toarray())
        assert np.array_equal(dense[56:, :56], div.toarray())
        assert np.array_equal(dense[:56, 56:], div.toarray().T)
        assert np.abs(dense[56:, 56:]).max() == 0.0

    def test_exact_saddle_symmetry(self, paper_mesh, paper_topo,
                                   paper_coeffs):
        inv_alpha = paper_inv_alpha(paper_mesh)
        for family in bf.FAMILIES:
            mass = bf.assemble_mass(paper_topo, paper_coeffs, inv_alpha,
                                    family)
            div = bf.assemble_divergence(paper_topo, family)
            system = bf.assemble_system(mass, div)
            diff = (system - system.T).tocoo()
            assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0

    def test_element_order_invariance(self, paper_mesh, paper_topo,
                                      paper_coeffs):
        inv_alpha = paper_inv_alpha(paper_mesh)
        want = bf.assemble_mass(paper_topo, paper_coeffs, inv_alpha).toarray()
        rng = np.random.default_rng(4)
        perm = rng.permutation(paper_mesh.num_elements)
        shuffled = bf.Mesh(paper_mesh.nodes, paper_mesh.elements[perm],
                           paper_mesh.boundary_markers[perm])
        topo = bf.build_edge_topology(shuffled)
        coeffs = bf.barycentric_gradients(shuffled)
        got = bf.assemble_mass(topo, coeffs, inv_alpha[perm]).toarray()
        # same edges, same entries, up to floating point summation order
        assert np.allclose(got, want, rtol=1e-14, atol=1e-16)


class TestMatrixMarket:

    def test_round_trip(self, tmp_path, paper_mesh, paper_topo,
                        paper_coeffs):
        inv_alpha = paper_inv_alpha(paper_mesh)
        mass = bf.assemble_mass(paper_topo, paper_coeffs, inv_alpha)
        system = bf.assemble_system(mass,
                                    bf.assemble_divergence(paper_topo))
        path = tmp_path / "system.mtx"
        bf.write_matrix_market(path, system)
        back = scipy.io.mmread(path)
        assert np.array_equal(back.toarray(), system.toarray())

    def test_header_and_indices(self, tmp_path, paper_topo, paper_coeffs):
        mass = bf.assemble_mass(paper_topo, paper_coeffs, np.ones(16))
        path = tmp_path / "mass.mtx"
        bf.write_matrix_market(path, mass)
        lines = path.read_text().splitlines()
        assert lines[0] == "%%MatrixMarket matrix coordinate real symmetric"
        body = [ln for ln in lines[1:] if not ln.startswith("%")]
        nrows, ncols, nnz = map(int, body[0].split())
        assert (nrows, ncols) == mass.shape
        first = body[1].split()
        assert int(first[0]) >= 1 and int(first[1]) >= 1
        # symmetric storage keeps only the lower triangle
        for ln in body[1:]:
            i, j = map(int, ln.split()[:2])
            assert i >= j

    def test_unknown_family_rejected(self, paper_topo, paper_coeffs):
        with pytest.raises(ValueError, match="family"):
            bf.assemble_mass(paper_topo, paper_coeffs, np.ones(16),
                             family="p2")
        with pytest.raises(ValueError, match="family"):
            bf.assemble_divergence(paper_topo, family="p2")
