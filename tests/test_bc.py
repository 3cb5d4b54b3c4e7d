"""Load vector and boundary data: source term, Dirichlet moments and
the essential Neumann lift."""

import numpy as np
import pytest

import bdmfem as bf
from conftest import (integrate_segment_exact, mark_boundary_dirichlet,
                      normal_trace, relabel)


def paper_setup(family="bdm1"):
    mesh = bf.builtin_mesh("paper")
    topo = bf.build_edge_topology(mesh)
    coeffs = bf.barycentric_gradients(mesh)
    boundary = bf.classify_boundary(mesh, topo)
    problem = bf.get_problem("paper-example")
    inv_alpha = 1.0 / problem.alpha(mesh.nodes[mesh.elements].mean(axis=1))
    mass = bf.assemble_mass(topo, coeffs, inv_alpha, family)
    div = bf.assemble_divergence(topo, family)
    system = bf.assemble_system(mass, div)
    return mesh, topo, coeffs, boundary, system


class TestSourceTerm:

    def test_constant_source(self, paper_mesh, paper_coeffs):
        b2 = bf.source_term(paper_mesh, paper_coeffs,
                            lambda p: np.ones(len(p)))
        assert np.allclose(b2, -0.25)
        assert np.isclose(b2.sum(), -4.0)

    def test_centroid_rule(self, paper_mesh, paper_coeffs):
        f = bf.get_problem("paper-example").source
        b2 = bf.source_term(paper_mesh, paper_coeffs, f)
        centroids = paper_mesh.nodes[paper_mesh.elements].mean(axis=1)
        assert np.allclose(b2, -f(centroids) * 0.25, rtol=1e-15)

    def test_samples_at_alpha_centroids(self):
        # off the dyadic grid the plain mean of the three vertices
        # depends on their order in the last bit; the source is sampled
        # at alpha's centroids, summed in coordinate order, and the
        # relabelled meshes give the same points (compared sorted, as
        # the elements are permuted)
        mesh = bf.builtin_mesh("paper")
        for _ in range(3):
            mesh = bf.uniform_refine(mesh)
        mesh = bf.Mesh(mesh.nodes * 0.7 + [1 / 3, 0.1], mesh.elements,
                       mesh.boundary_markers)

        def sampled_at(mesh):
            calls = []

            def probe(p):
                calls.append(p.copy())
                return 1.0

            problem = bf.ProblemDefinition("probe", alpha=probe,
                                           source=probe, dirichlet=probe)
            bf.bc._element_alpha(mesh, problem)
            bf.source_term(mesh, bf.barycentric_gradients(mesh), probe)
            at_alpha, at_source = calls
            assert np.array_equal(at_alpha, at_source)
            return at_source[np.lexsort(at_source.T)]

        points = sampled_at(mesh)
        for seed in (1, 2, 3):
            assert np.array_equal(sampled_at(relabel(mesh, seed)), points)


class TestDirichletTerm:

    def test_constant_data(self, paper_mesh, paper_topo):
        boundary = bf.classify_boundary(paper_mesh, paper_topo)
        b1 = bf.dirichlet_term(paper_mesh, boundary,
                               lambda p: np.ones(len(p)))
        # for g == 1 both weights sum to 1/2, so every Dirichlet edge
        # contributes -s/2 to each of its two rows
        expect = np.zeros(56)
        expect[boundary.ind_dirichlet] = -boundary.sign_dirichlet / 2
        expect[28 + boundary.ind_dirichlet] = -boundary.sign_dirichlet / 2
        assert np.allclose(b1, expect, atol=1e-15)
        # Neumann rows stay empty
        assert np.abs(b1[boundary.ind_neumann]).max() == 0.0

    def test_quadratic_data_exact(self, paper_mesh, paper_topo):
        # two-point Gauss integrates (quadratic g) x (linear trace)
        # exactly; compare each entry with a high-order segment rule
        boundary = bf.classify_boundary(paper_mesh, paper_topo)
        g = lambda p: p[:, 0] ** 2 + p[:, 0] * p[:, 1] - 2 * p[:, 1] ** 2

        def integrand_s(p, a, b, L):
            t = np.hypot(p[:, 0] - a[0], p[:, 1] - a[1]) / L
            return g(p) * (1 - t) / L

        def integrand_t(p, a, b, L):
            t = np.hypot(p[:, 0] - a[0], p[:, 1] - a[1]) / L
            return g(p) * t / L

        b1 = bf.dirichlet_term(paper_mesh, boundary, g)
        for k, e in enumerate(boundary.ind_dirichlet):
            a, b = paper_mesh.nodes[boundary.dirichlet[k]]
            L = np.hypot(*(b - a))
            s = boundary.sign_dirichlet[k]
            want_s = -s * integrate_segment_exact(
                a, b, lambda p: integrand_s(p, a, b, L)) * L
            want_t = -s * integrate_segment_exact(
                a, b, lambda p: integrand_t(p, a, b, L)) * L
            assert np.isclose(b1[e], want_s, rtol=1e-13)
            assert np.isclose(b1[28 + e], want_t, rtol=1e-13)

    def test_rt0_is_mean(self, paper_mesh, paper_topo):
        boundary = bf.classify_boundary(paper_mesh, paper_topo)
        g = lambda p: 1 + p[:, 0] + p[:, 1]
        pair = bf.dirichlet_term(paper_mesh, boundary, g)
        single = bf.dirichlet_term(paper_mesh, boundary, g, family="rt0")
        # sized from the edge count the boundary split carries
        assert boundary.num_edges == 28
        assert pair.shape == (56,) and single.shape == (28,)
        assert np.allclose(single, pair[:28] + pair[28:], atol=1e-15)

    def test_no_dirichlet_edges(self, paper_mesh, paper_topo):
        boundary = bf.classify_boundary(paper_mesh, paper_topo)
        neumann_only = bf.BoundaryEdges(
            boundary.dirichlet[:0], boundary.sign_dirichlet[:0],
            boundary.ind_dirichlet[:0], boundary.neumann,
            boundary.sign_neumann, boundary.ind_neumann, 28)
        b1 = bf.dirichlet_term(paper_mesh, neumann_only,
                               lambda p: np.ones(len(p)))
        assert np.abs(b1).max() == 0.0


class TestNeumannLift:

    def test_constant_flux(self):
        # g_N == c: the projection is the constant c; both moments are
        # c L / 2, so each lifted coefficient is s c L, and the trace
        # (coefficient times lambda / L, summed) recovers c
        mesh, topo, coeffs, boundary, system = paper_setup()
        c = 3.5
        lifted = bf.neumann_lift(mesh, boundary,
                                 lambda p: np.full(len(p), c),
                                 np.zeros(56), np.zeros(16))
        oriented = bf.resolve_orientation(topo, coeffs)
        assert len(lifted.sol) == 72
        for k, e in enumerate(boundary.ind_neumann):
            s = boundary.sign_neumann[k]
            L = 1.0  # top-edge segments have unit length
            assert np.isclose(lifted.sol[e], s * c * L, rtol=1e-14)
            assert np.isclose(lifted.sol[28 + e], s * c * L, rtol=1e-14)
        self._check_trace(mesh, topo, oriented, boundary, lifted.sol,
                          lambda p: np.full(len(p), c), "bdm1")

    def test_linear_flux_reproduced(self):
        # linear g_N lies in the trace space, so sigma_h . n == g_N
        # pointwise on every Neumann edge
        mesh, topo, coeffs, boundary, system = paper_setup()
        g = lambda p: 2 * p[:, 0] - 0.5
        lifted = bf.neumann_lift(mesh, boundary, g,
                                 np.zeros(56), np.zeros(16))
        oriented = bf.resolve_orientation(topo, coeffs)
        self._check_trace(mesh, topo, oriented, boundary, lifted.sol, g,
                          "bdm1")

    def test_quadratic_flux_projected(self):
        # quadratic g_N: the trace must match the analytic L2 projection
        # onto span(lambda_s, lambda_t), built from exact edge moments
        mesh, topo, coeffs, boundary, system = paper_setup()
        g = lambda p: p[:, 0] ** 2
        lifted = bf.neumann_lift(mesh, boundary, g,
                                 np.zeros(56), np.zeros(16))
        for k, e in enumerate(boundary.ind_neumann):
            a, b = mesh.nodes[boundary.neumann[k]]
            L = np.hypot(*(b - a))
            s = boundary.sign_neumann[k]

            def lam_s(p):
                return 1 - np.hypot(p[:, 0] - a[0], p[:, 1] - a[1]) / L

            moments = np.array([
                integrate_segment_exact(a, b, lambda p: g(p) * lam_s(p)),
                integrate_segment_exact(a, b,
                                        lambda p: g(p) * (1 - lam_s(p)))])
            # the edge mass matrix of (lam_s, lam_t) is L/6 [[2, 1], [1, 2]]
            minv = 2 / L * np.array([[2.0, -1.0], [-1.0, 2.0]])
            d = minv @ moments  # projection coefficients on (lam_s, lam_t)
            # coefficient of basis function = s * d * L (trace is lam/L);
            # the moment integrands are cubic, which the two-point rule
            # integrates exactly, so this matches at round-off
            assert np.allclose(lifted.sol[[e, 28 + e]], s * d * L,
                               rtol=1e-12)

    def test_rhs_and_free_dofs(self):
        mesh, topo, coeffs, boundary, system = paper_setup()
        rng = np.random.default_rng(7)
        b1 = rng.standard_normal(56)
        b2 = rng.standard_normal(16)
        g = lambda p: p[:, 0]
        lifted = bf.neumann_lift(mesh, boundary, g, b1, b2)
        fixed = np.concatenate([boundary.ind_neumann,
                                28 + boundary.ind_neumann])
        assert np.array_equal(lifted.load, np.concatenate([b1, b2]))
        assert np.array_equal(lifted.free_dofs,
                              np.setdiff1d(np.arange(72), fixed))
        # sol vanishes off the fixed coefficients
        mask = np.ones(72, dtype=bool)
        mask[fixed] = False
        assert np.abs(lifted.sol[mask]).max() == 0.0
        # so the solve's first defect on the free rows is the classical
        # lifted right-hand side b - A[free, fixed] sol[fixed]
        free = lifted.free_dofs
        want = (lifted.load[free]
                - system[free][:, fixed] @ lifted.sol[fixed])
        defect = lifted.load - system @ lifted.sol
        assert np.allclose(defect[free], want, atol=1e-15)
        assert np.abs(want - lifted.load[free]).max() > 0.1

    def test_rt0_constant_flux(self):
        # the tied unknown must carry s int_E g_N, the mean of the two
        # bdm1 coefficients; only non-constant data tells that apart
        # from keeping either one of them
        mesh, topo, coeffs, boundary, system = paper_setup("rt0")
        for g, integral in ((lambda p: np.full(len(p), -1.25),
                             lambda a, b: -1.25 * abs(b[0] - a[0])),
                            (lambda p: 2 * p[:, 0] - 0.5,
                             lambda a, b: (a[0] + b[0] - 0.5)
                             * abs(b[0] - a[0]))):
            lifted = bf.neumann_lift(mesh, boundary, g,
                                     np.zeros(28), np.zeros(16))
            assert len(lifted.sol) == 44
            for k, e in enumerate(boundary.ind_neumann):
                s = boundary.sign_neumann[k]
                a, b = mesh.nodes[boundary.neumann[k]]
                assert np.isclose(lifted.sol[e], s * integral(a, b),
                                  rtol=1e-14, atol=0)
            assert len(lifted.free_dofs) == 44 - 2

    def test_family_from_flux_length(self):
        # the length of b1 on the boundary's edge count picks the
        # family (both are lifted above); a length that fits none is
        # refused, since any lift built from it would be wrong
        mesh, topo, coeffs, boundary, system = paper_setup()
        g = bf.get_problem("paper-example").neumann
        for size in (27, 29, 55, 57, 84):
            with pytest.raises(ValueError, match="{} flux unknowns fit no "
                               "family on 28 edges".format(size)):
                bf.neumann_lift(mesh, boundary, g, np.zeros(size),
                                np.zeros(16))

    def test_missing_data_raises(self):
        mesh, topo, coeffs, boundary, system = paper_setup()
        with pytest.raises(ValueError, match="Neumann"):
            bf.neumann_lift(mesh, boundary, None,
                            np.zeros(56), np.zeros(16))

    def test_no_neumann_edges(self):
        mesh = bf.builtin_mesh("paper")
        mesh = mark_boundary_dirichlet(mesh)
        topo = bf.build_edge_topology(mesh)
        boundary = bf.classify_boundary(mesh, topo)
        b1 = np.arange(56.0)
        b2 = np.arange(16.0)
        lifted = bf.neumann_lift(mesh, boundary, None, b1, b2)
        assert np.abs(lifted.sol).max() == 0.0
        assert np.array_equal(lifted.load, np.concatenate([b1, b2]))
        assert len(lifted.free_dofs) == 72

    @staticmethod
    def _check_trace(mesh, topo, oriented, boundary, sol, g, family):
        owners = {}
        for t in range(mesh.num_elements):
            for i in range(3):
                owners.setdefault(topo.elem_to_edge[t, i], (t, i))
        for k, e in enumerate(boundary.ind_neumann):
            t, i = owners[e]
            a, b = mesh.nodes[boundary.neumann[k]]
            for tau in (0.0, 0.37, 1.0):
                p = (a + (b - a) * tau)[None, :]
                tr = normal_trace(mesh, oriented, t, i, i, tau, family)
                k_fun = bf.functions_per_edge(family)
                coef = [sol[e + m * 28] for m in range(k_fun)]
                # trace against the global normal; outward needs the
                # element sign
                got = topo.sign_edge[t, i] * np.dot(coef, tr)
                assert np.isclose(got, g(p)[0], rtol=1e-12, atol=1e-12)
