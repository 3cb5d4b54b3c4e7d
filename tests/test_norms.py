"""Quadrature exactness, discrete flux evaluation, error computation
and the convergence study driver."""

import re

import numpy as np
import pytest

import bdmfem as bf
from conftest import (integrate_segment_exact, integrate_triangle_exact,
                      random_triangle)

QUAD = bf.TRI_QUADRATURE_DEGREE4
QUAD6 = bf.TRI_QUADRATURE_DEGREE6
REFERENCE_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def _monomial_errors(quad, tri, degree):
    """|rule - exact| / max(|exact|, 1) for every x^a y^b, a+b = degree."""
    mesh = bf.Mesh(tri, [[0, 1, 2]], [[1, 1, 1]])
    pts = quad.physical_points(mesh)[:, 0, :]
    area = bf.signed_areas(mesh)[0]
    out = []
    for a in range(degree + 1):
        f = lambda p: p[:, 0] ** a * p[:, 1] ** (degree - a)
        exact = integrate_triangle_exact(tri, f)
        approx = area * (quad.weights * f(pts)).sum()
        out.append(abs(approx - exact) / max(abs(exact), 1.0))
    return out


class TestTriangleQuadrature:

    def test_weights(self):
        assert abs(QUAD.weights.sum() - 1.0) < 1e-14
        assert (QUAD.weights > 0).all()
        bary = QUAD.barycentric
        assert np.allclose(bary.sum(axis=1), 1.0, atol=1e-14)
        assert (bary > 0).all()

    def test_exact_through_degree_4(self):
        # integrate every monomial x^a y^b, a+b <= 4, on ten random
        # triangles and compare with an independent high-order rule
        rng = np.random.default_rng(31)
        for _ in range(10):
            tri = random_triangle(rng)
            for degree in range(5):
                assert max(_monomial_errors(QUAD, tri, degree)) <= 1e-13

    def test_degree_5_not_exact(self):
        # sanity check on the oracle: the rule must fail some quintic
        assert max(_monomial_errors(QUAD, REFERENCE_TRIANGLE, 5)) > 1e-8

    def test_degree6_weights(self):
        assert abs(QUAD6.weights.sum() - 1.0) < 1e-14
        assert (QUAD6.barycentric > 0).all()

    def test_degree6_exact_through_degree_6(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            tri = random_triangle(rng)
            for degree in range(7):
                assert max(_monomial_errors(QUAD6, tri, degree)) <= 1e-12

    def test_degree6_not_exact_for_degree_7(self):
        # a mistyped node or weight would show up here or above
        assert max(_monomial_errors(QUAD6, REFERENCE_TRIANGLE, 7)) > 1e-8

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="weights"):
            bf.TriangleQuadrature([[0.3, 0.3]], [-1.0])
        with pytest.raises(ValueError, match="points"):
            bf.TriangleQuadrature([[0.3, 0.3, 0.4]], [1.0])


class TestEdgeQuadrature:

    def test_positions_and_weights(self):
        assert abs(bf.EDGE_GAUSS2_WEIGHTS.sum() - 1.0) < 1e-15
        assert np.allclose(sorted(bf.EDGE_GAUSS2_POSITIONS),
                           [0.5 - 0.5 / np.sqrt(3), 0.5 + 0.5 / np.sqrt(3)])

    def test_exact_through_degree_3(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            p0 = rng.uniform(-2, 2, 2)
            p1 = p0 + rng.uniform(0.5, 2, 2)
            direction = p1 - p0
            length = np.hypot(*direction)
            for deg in range(4):
                f = lambda p: (0.3 * p[:, 0] + 0.7 * p[:, 1] + 0.1) ** deg
                pts = p0 + np.outer(bf.EDGE_GAUSS2_POSITIONS, direction)
                approx = length * (bf.EDGE_GAUSS2_WEIGHTS * f(pts)).sum()
                exact = integrate_segment_exact(p0, p1, f)
                assert abs(approx - exact) <= 1e-13 * max(abs(exact), 1.0)
            # ... and fails for some quartic
            f = lambda p: (p[:, 0] - p0[0]) ** 4
            pts = p0 + np.outer(bf.EDGE_GAUSS2_POSITIONS, direction)
            approx = length * (bf.EDGE_GAUSS2_WEIGHTS * f(pts)).sum()
            exact = integrate_segment_exact(p0, p1, f)
            if abs(direction[0]) > 1e-3:
                assert abs(approx - exact) > 1e-12 * max(abs(exact), 1.0)


class TestEvalSigmaH:

    def test_zero_coefficients(self, paper_topo, paper_coeffs):
        oriented = bf.resolve_orientation(paper_topo, paper_coeffs)
        lam = np.full((16, 3), 1 / 3)
        out = bf.eval_sigma_h(np.zeros(56), oriented, lam)
        assert np.abs(out).max() == 0.0

    def test_reproduces_linear_fields(self, paper_mesh, paper_topo,
                                      paper_coeffs):
        # interpolate v in P1^2 by edge moments: coefficient of the
        # first edge function is |E| v(z_s) . n_E, of the second
        # |E| v(z_t) . n_E; the discrete field then equals v everywhere
        geom = bf.edge_geometry(paper_mesh, paper_topo)
        oriented = bf.resolve_orientation(paper_topo, paper_coeffs)
        v = lambda p: np.column_stack([1 + 2 * p[:, 0] - p[:, 1],
                                       0.5 - p[:, 0] + 3 * p[:, 1]])
        vs = v(paper_mesh.nodes[paper_topo.edges[:, 0]])
        vt = v(paper_mesh.nodes[paper_topo.edges[:, 1]])
        flux = np.concatenate([
            geom.length * (vs * geom.normal).sum(axis=1),
            geom.length * (vt * geom.normal).sum(axis=1)])
        rng = np.random.default_rng(41)
        lam = rng.dirichlet(np.ones(3), size=16)
        points = np.einsum("ti,tid->td", lam,
                           paper_mesh.nodes[paper_mesh.elements])
        got = bf.eval_sigma_h(flux, oriented, lam)
        assert np.allclose(got, v(points), rtol=1e-12, atol=1e-12)

    def test_rt0_constant_field(self, paper_mesh, paper_topo,
                                paper_coeffs):
        # constant v: the single coefficient per edge is |E| v . n_E
        geom = bf.edge_geometry(paper_mesh, paper_topo)
        oriented = bf.resolve_orientation(paper_topo, paper_coeffs)
        v = np.array([0.8, -1.4])
        flux = geom.length * (geom.normal @ v)
        lam = np.full((16, 3), 1 / 3)
        got = bf.eval_sigma_h(flux, oriented, lam)
        assert np.allclose(got, v, atol=1e-13)

    @pytest.mark.parametrize("size", [27, 29, 55, 57, 84])
    def test_flux_size_names_no_family(self, paper_topo, paper_coeffs,
                                       size):
        # 28 edges: only 28 (rt0) and 56 (bdm1) flux values fit
        oriented = bf.resolve_orientation(paper_topo, paper_coeffs)
        lam = np.full((16, 3), 1 / 3)
        with pytest.raises(ValueError,
                           match="{} flux unknowns fit no family on 28 "
                                 "edges".format(size)):
            bf.eval_sigma_h(np.ones(size), oriented, lam)

    def test_elements_subset(self, paper_topo, paper_coeffs):
        oriented = bf.resolve_orientation(paper_topo, paper_coeffs)
        rng = np.random.default_rng(43)
        flux = rng.standard_normal(56)
        lam = rng.dirichlet(np.ones(3), size=16)
        full = bf.eval_sigma_h(flux, oriented, lam)
        subset = np.array([5, 2, 11])
        got = bf.eval_sigma_h(flux, oriented, lam[subset], elements=subset)
        assert np.array_equal(got, full[subset])

    def test_midpoint_continuity(self, paper_mesh):
        # the normal component of sigma_h matches from both sides of
        # every interior edge (H(div) conformity), tested at three
        # points per edge on a twice-refined mesh
        mesh = bf.uniform_refine(bf.uniform_refine(paper_mesh))
        topo = bf.build_edge_topology(mesh)
        coeffs = bf.barycentric_gradients(mesh)
        solution = bf.solve_problem(mesh, bf.get_problem("paper-example"),
                                    topo=topo, coeffs=coeffs)
        oriented = bf.resolve_orientation(topo, coeffs)
        geom = bf.edge_geometry(mesh, topo)

        owners = [[] for _ in range(topo.num_edges)]
        for t in range(mesh.num_elements):
            for i in range(3):
                owners[topo.elem_to_edge[t, i]].append((t, i))
        scale = np.abs(solution.sigma).max()
        checked = 0
        for e, own in enumerate(owners):
            if len(own) != 2:
                continue
            for tau in (0.25, 0.5, 0.75):
                point = (mesh.nodes[topo.edges[e, 0]] * (1 - tau)
                         + mesh.nodes[topo.edges[e, 1]] * tau)
                vals = []
                for t, i in own:
                    lam = bf.barycentric_coordinates(
                        mesh, coeffs, np.array([t]), point[None, :])
                    sig = bf.eval_sigma_h(solution.sigma, oriented, lam,
                                          elements=np.array([t]))
                    vals.append(float(sig[0] @ geom.normal[e]))
                assert abs(vals[0] - vals[1]) <= 1e-10 * scale
                checked += 1
        boundary = bf.classify_boundary(mesh, topo)
        interior = topo.num_edges - boundary.num_dirichlet \
            - boundary.num_neumann
        assert checked == 3 * interior


class TestComputeErrors:

    def test_reference_values(self, paper_mesh, paper_topo, paper_coeffs):
        problem = bf.get_problem("paper-example")
        solution = bf.solve_problem(paper_mesh, problem, topo=paper_topo,
                                    coeffs=paper_coeffs)
        err_sigma, err_u, used = bf.compute_errors(
            paper_mesh, paper_topo, paper_coeffs, solution, problem)
        assert used == "direct"
        # the degree-6 rule is exact for |sigma - sigma_h|^2 here; the
        # degree-4 rule gave err_sigma = 1.70592e-01
        assert abs(err_sigma - 1.696843e-01) <= 1e-6 * 1.696843e-01
        assert abs(err_u - 4.971188e-01) <= 1e-6 * 4.971188e-01

    def test_self_consistency(self, paper_mesh, paper_topo, paper_coeffs):
        # || sigma_h ||^2 via quadrature equals x^T B x via assembly
        problem = bf.get_problem("paper-example")
        solution = bf.solve_problem(paper_mesh, problem, topo=paper_topo,
                                    coeffs=paper_coeffs)
        centroids = paper_mesh.nodes[paper_mesh.elements].mean(axis=1)
        inv_alpha = 1.0 / problem.alpha(centroids)
        mass = bf.assemble_mass(paper_topo, paper_coeffs, inv_alpha)
        via_matrix = solution.sigma @ (mass @ solution.sigma)

        oriented = bf.resolve_orientation(paper_topo, paper_coeffs)
        acc = np.zeros(16)
        for q, w in enumerate(QUAD.weights):
            lam = np.broadcast_to(QUAD.barycentric[q], (16, 3))
            sig = bf.eval_sigma_h(solution.sigma, oriented, lam)
            acc += w * (sig * sig).sum(axis=1)
        via_quad = np.dot(inv_alpha * paper_coeffs.area, acc)
        assert abs(via_matrix - via_quad) <= 1e-12 * via_matrix

    def test_missing_exact_solution(self, paper_mesh, paper_topo,
                                    paper_coeffs):
        blind = bf.ProblemDefinition(
            "blind", alpha=lambda p: np.ones(len(p)),
            source=lambda p: np.zeros(len(p)),
            dirichlet=lambda p: np.zeros(len(p)))
        mesh = bf.Mesh(paper_mesh.nodes, paper_mesh.elements,
                       np.where(paper_mesh.boundary_markers == 2, 1,
                                paper_mesh.boundary_markers))
        solution = bf.solve_problem(mesh, blind)
        with pytest.raises(ValueError, match="exact"):
            bf.compute_errors(paper_mesh, paper_topo, paper_coeffs,
                              solution, blind)

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan])
    def test_bad_alpha_rejected(self, paper_mesh, paper_topo, paper_coeffs,
                                value):
        # as solve_problem refuses it, not an inf or nan error
        problem = bf.get_problem("paper-example")
        solution = bf.solve_problem(paper_mesh, problem, topo=paper_topo,
                                    coeffs=paper_coeffs)
        bad = bf.ProblemDefinition(
            "bad", alpha=lambda p: np.full(len(p), value),
            source=problem.source, dirichlet=problem.dirichlet,
            exact_u=problem.exact_u, exact_sigma=problem.exact_sigma)
        with pytest.raises(ValueError, match="alpha must be positive"):
            bf.compute_errors(paper_mesh, paper_topo, paper_coeffs,
                              solution, bad)

    @pytest.mark.parametrize("field, value, message", [
        ("exact_sigma", lambda p: p.T,
         "exact_sigma returned shape (2, 192), not (2,) or (192, 2)"),
        ("exact_u", lambda p: -(p * p).sum(axis=1, keepdims=True) / 2,
         "exact_u returned shape (192, 1), not a scalar or (192,)"),
        ("exact_u", lambda p: np.full(len(p), np.nan),
         "exact_u must be finite at every point")],
        ids=["sigma-transposed", "u-column", "u-nan"])
    def test_exact_field_refused(self, paper_mesh, paper_topo, paper_coeffs,
                                 field, value, message):
        # sampled like alpha and the data: reshaped, the transposed flux
        # would read err_sigma 2.53 (1.6e-15 with the right shape), and
        # NaN would give a NaN err_u
        problem = _patch_with()
        solution = bf.solve_problem(paper_mesh, problem, topo=paper_topo,
                                    coeffs=paper_coeffs)
        with pytest.raises(ValueError, match=re.escape(
                "problem 'odd': " + message)):
            bf.compute_errors(paper_mesh, paper_topo, paper_coeffs,
                              solution, _patch_with(**{field: value}))

    def test_constant_exact_fields(self, paper_mesh, paper_topo,
                                   paper_coeffs):
        # a scalar u and a (2,) sigma broadcast over the points
        problem = _patch_with()
        solution = bf.solve_problem(paper_mesh, problem, topo=paper_topo,
                                    coeffs=paper_coeffs)
        constant, per_point = (bf.compute_errors(
            paper_mesh, paper_topo, paper_coeffs, solution, _patch_with(
                exact_u=u, exact_sigma=sigma)) for u, sigma in [
            (lambda p: 0.5, lambda p: np.array([1.0, -2.0])),
            (lambda p: np.full(len(p), 0.5),
             lambda p: np.tile([1.0, -2.0], (len(p), 1)))])
        assert constant == per_point
        assert constant[0] > 0 and constant[1] > 0

    @pytest.mark.parametrize("family", bf.FAMILIES)
    @pytest.mark.parametrize("solved_on", ["finer", "coarser"])
    def test_solution_of_another_mesh(self, paper_mesh, solved_on, family):
        problem = bf.get_problem("paper-example")
        fine = bf.uniform_refine(paper_mesh)
        solve_mesh, mesh = ((fine, paper_mesh) if solved_on == "finer"
                            else (paper_mesh, fine))
        solution = bf.solve_problem(solve_mesh, problem, family=family)
        topo = bf.build_edge_topology(mesh)
        coeffs = bf.barycentric_gradients(mesh)
        sizes = "{} flux and {} scalar values, this mesh needs {} and {}"
        with pytest.raises(ValueError, match=sizes.format(
                solution.sigma.size, solution.u.size,
                bf.flux_dof_count(family, topo.num_edges),
                mesh.num_elements)):
            bf.compute_errors(mesh, topo, coeffs, solution, problem)


def _patch_with(**fields):
    """patch-linear, named "odd", with the given callbacks replaced."""
    patch = bf.get_problem("patch-linear")
    for name in ("alpha", "source", "dirichlet", "neumann", "exact_u",
                 "exact_sigma"):
        fields.setdefault(name, getattr(patch, name))
    return bf.ProblemDefinition("odd", **fields)


@pytest.fixture(scope="module")
def study(paper_mesh):
    return bf.convergence_study(bf.get_problem("paper-example"),
                                paper_mesh, levels=5)


class TestConvergenceStudy:

    def test_row_bookkeeping(self, study):
        assert study.problem == "paper-example"
        assert study.family == "bdm1"
        assert len(study.rows) == 5
        assert [r.level for r in study.rows] == [0, 1, 2, 3, 4]
        assert [r.num_elements for r in study.rows] == [
            16, 64, 256, 1024, 4096]
        assert np.allclose([r.h for r in study.rows],
                           [1, 0.5, 0.25, 0.125, 0.0625])
        for r in study.rows:
            assert r.num_dof == 2 * _edges_for(r.num_elements) \
                + r.num_elements
            assert r.residual <= 1e-10

    def test_errors_decrease_monotonically(self, study):
        es = [r.err_sigma for r in study.rows]
        eu = [r.err_u for r in study.rows]
        assert all(a > b for a, b in zip(es, es[1:]))
        assert all(a > b for a, b in zip(eu, eu[1:]))

    def test_ratio_windows(self, study):
        ratios = study.ratios()
        assert ratios[0] == (None, None)
        for rs, ru in ratios[2:]:
            assert 3.93 <= rs <= 4.07
            assert 1.99 <= ru <= 2.05

    def test_observed_orders(self, study):
        rows = study.rows
        rate_s = np.log2(rows[3].err_sigma / rows[4].err_sigma)
        rate_u = np.log2(rows[3].err_u / rows[4].err_u)
        assert abs(rate_s - 2.0) <= 0.05
        assert abs(rate_u - 1.0) <= 0.02

    def test_rt0_first_order(self, paper_mesh):
        report = bf.convergence_study(bf.get_problem("paper-example"),
                                      paper_mesh, levels=4, family="rt0")
        ratios = report.ratios()
        # first-order flux convergence: ratios approach 2 from below
        assert 1.8 <= ratios[1][0] <= 2.1
        for rs, _ in ratios[2:]:
            assert 1.9 <= rs <= 2.1

    @pytest.mark.parametrize("family", bf.FAMILIES)
    def test_patch_exact_flux(self, paper_mesh, family):
        # sigma = (x, y) lies in both flux spaces, so this also checks
        # that compute_errors rebuilds sigma_h from its vertex values
        report = bf.convergence_study(bf.get_problem("patch-linear"),
                                      paper_mesh, levels=3, family=family)
        for row in report.rows:
            assert row.err_sigma <= 1e-10
        ratios = report.ratios()
        for k in (1, 2):
            assert abs(ratios[k][1] - 2.0) <= 0.04 * 2.0

    def test_zero_problem_ratios_undefined(self, paper_mesh):
        mesh = bf.Mesh(paper_mesh.nodes, paper_mesh.elements,
                       np.where(paper_mesh.boundary_markers == 2, 1,
                                paper_mesh.boundary_markers))
        zero = lambda p: np.zeros(len(p))
        problem = bf.ProblemDefinition(
            "null", alpha=lambda p: np.ones(len(p)), source=zero,
            dirichlet=zero, exact_u=zero,
            exact_sigma=lambda p: np.zeros_like(p))
        report = bf.convergence_study(problem, mesh, levels=2)
        assert report.rows[0].err_sigma == 0.0
        assert report.ratios()[1] == (None, None)

    def test_levels_validated(self, paper_mesh):
        with pytest.raises(ValueError, match="levels"):
            bf.convergence_study(bf.get_problem("paper-example"),
                                 paper_mesh, levels=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_base_mesh(self, paper_mesh, value, monkeypatch):
        # refused by validation before any geometry is computed (for
        # inf the geometry would warn first)
        nodes = paper_mesh.nodes.copy()
        nodes[3, 0] = value
        mesh = bf.Mesh(nodes, paper_mesh.elements,
                       paper_mesh.boundary_markers)
        calls = []
        monkeypatch.setattr(bf.norms, "barycentric_gradients",
                            lambda m: calls.append(m))
        with pytest.raises(bf.MeshError, match="vertex 3: non-finite"):
            bf.convergence_study(bf.get_problem("paper-example"), mesh,
                                 levels=2)
        assert calls == []


def _edges_for(num_elements):
    # edge count of the uniformly refined reference meshes:
    # E(16) = 28, and refinement maps E -> 2 E + 3 T
    edges, elements = 28, 16
    while elements < num_elements:
        edges = 2 * edges + 3 * elements
        elements *= 4
    return edges
