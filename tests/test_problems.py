"""Built-in problems: internal consistency of the manufactured fields,
recorded norm values, and the reference mesh."""

import numpy as np
import pytest

import bdmfem as bf


def interior_points(rng, n=20):
    """Random points in (-1,1)^2 staying clear of the x = 0 interface
    (where the piecewise fields have one-sided derivatives)."""
    pts = []
    while len(pts) < n:
        p = rng.uniform(-0.95, 0.95, 2)
        if abs(p[0]) > 0.1:
            pts.append(p)
    return np.array(pts)


def grad_fd(f, points, h=1e-6):
    """Central-difference gradient of a scalar field."""
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    gx = (f(points + ex) - f(points - ex)) / (2 * h)
    gy = (f(points + ey) - f(points - ey)) / (2 * h)
    return np.column_stack([gx, gy])


def div_fd(sigma, points, h=1e-6):
    """Central-difference divergence of a vector field."""
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    dx = (sigma(points + ex)[:, 0] - sigma(points - ex)[:, 0]) / (2 * h)
    dy = (sigma(points + ey)[:, 1] - sigma(points - ey)[:, 1]) / (2 * h)
    return dx + dy


@pytest.mark.parametrize("name", sorted(bf.PROBLEMS))
class TestFieldConsistency:

    def test_sigma_is_minus_alpha_grad_u(self, name):
        problem = bf.get_problem(name)
        rng = np.random.default_rng(47)
        pts = interior_points(rng)
        want = -problem.alpha(pts)[:, None] * grad_fd(problem.exact_u, pts)
        got = problem.exact_sigma(pts)
        assert np.allclose(got, want, rtol=1e-6, atol=1e-6)

    def test_source_is_div_sigma(self, name):
        problem = bf.get_problem(name)
        rng = np.random.default_rng(53)
        pts = interior_points(rng)
        got = div_fd(problem.exact_sigma, pts)
        assert np.allclose(got, problem.source(pts), rtol=1e-5, atol=1e-5)

    def test_dirichlet_data_is_trace_of_u(self, name):
        problem = bf.get_problem(name)
        rng = np.random.default_rng(59)
        sides = np.concatenate([
            np.column_stack([np.full(5, -1.0), rng.uniform(-1, 1, 5)]),
            np.column_stack([np.full(5, 1.0), rng.uniform(-1, 1, 5)]),
            np.column_stack([rng.uniform(-1, 1, 5), np.full(5, -1.0)])])
        assert np.allclose(problem.dirichlet(sides),
                           problem.exact_u(sides), rtol=1e-14)

    def test_neumann_data_is_top_flux(self, name):
        # the reference mesh marks y = 1 as Neumann; outward normal (0,1)
        problem = bf.get_problem(name)
        rng = np.random.default_rng(61)
        x = rng.uniform(-1, 1, 10)
        x = x[np.abs(x) > 0.01]
        top = np.column_stack([x, np.ones_like(x)])
        assert np.allclose(problem.neumann(top),
                           problem.exact_sigma(top)[:, 1], rtol=1e-13)

    def test_alpha_positive(self, name):
        problem = bf.get_problem(name)
        rng = np.random.default_rng(67)
        pts = rng.uniform(-1, 1, (50, 2))
        assert (problem.alpha(pts) > 0).all()

    def test_description(self, name):
        assert bf.get_problem(name).description


class TestPiecewiseProblem:

    def test_alpha_jump(self):
        problem = bf.get_problem("paper-example")
        pts = np.array([[-0.5, 0.2], [0.5, 0.2], [-1e-9, 0.0],
                        [1e-9, 0.0]])
        assert np.allclose(problem.alpha(pts), [10, 1, 10, 1])

    def test_u_continuous_across_interface(self):
        problem = bf.get_problem("paper-example")
        y = np.linspace(-1, 1, 7)
        left = np.column_stack([np.full_like(y, -1e-10), y])
        right = np.column_stack([np.full_like(y, 1e-10), y])
        assert np.allclose(problem.exact_u(left), problem.exact_u(right),
                           atol=1e-9)

    def test_normal_flux_continuous_across_interface(self):
        # sigma . e_x must match from both sides of x = 0 even though
        # grad u jumps there
        problem = bf.get_problem("paper-example")
        y = np.linspace(-1, 1, 7)
        left = np.column_stack([np.full_like(y, -1e-10), y])
        right = np.column_stack([np.full_like(y, 1e-10), y])
        assert np.allclose(problem.exact_sigma(left)[:, 0],
                           problem.exact_sigma(right)[:, 0], atol=1e-9)

    def test_flags(self):
        for name in ("paper-example", "patch-linear", "smooth-dirichlet"):
            assert bf.get_problem(name).has_exact_solution

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="known:"):
            bf.get_problem("poisson-9000")


class TestReferenceMesh:

    def test_construction(self, paper_mesh):
        assert paper_mesh.num_nodes == 13
        assert paper_mesh.num_elements == 16
        assert bf.validate_mesh(paper_mesh) == []
        assert np.isclose(bf.signed_areas(paper_mesh).sum(), 4.0)
        corners = {(-1, -1), (-1, 1), (1, -1), (1, 1)}
        assert corners <= {tuple(p) for p in paper_mesh.nodes}

    def test_marker_split(self, paper_mesh):
        assert (paper_mesh.boundary_markers == 1).sum() == 6
        assert (paper_mesh.boundary_markers == 2).sum() == 2

    def test_fresh_copy_each_call(self):
        a = bf.builtin_mesh("paper")
        b = bf.builtin_mesh("paper")
        assert a is not b
        assert np.array_equal(a.nodes, b.nodes)

    def test_unknown_builtin(self):
        with pytest.raises(ValueError, match="known:"):
            bf.builtin_mesh("hexagons")
