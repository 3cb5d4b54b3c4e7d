"""Reduced solve, diagnostics and whole-pipeline consistency checks."""

import re

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import bdmfem as bf
from bdmfem.cli import main
from conftest import (mark_boundary_dirichlet, random_mesh, relabel,
                      saddle_solve)


def zero_problem():
    zero = lambda p: np.zeros(len(p))
    return bf.ProblemDefinition("zero", alpha=lambda p: np.ones(len(p)),
                                source=zero, dirichlet=zero, neumann=zero)


class TestSolveProblem:

    def test_zero_data_gives_zero(self, paper_mesh):
        sol = bf.solve_problem(paper_mesh, zero_problem())
        assert np.abs(sol.sigma).max() == 0.0
        assert np.abs(sol.u).max() == 0.0
        assert sol.residual == 0.0

    def test_shapes_and_counts(self, paper_mesh):
        problem = bf.get_problem("paper-example")
        sol = bf.solve_problem(paper_mesh, problem)
        assert sol.sigma.shape == (56,)
        assert sol.u.shape == (16,)
        assert sol.num_dof == 72
        assert sol.num_free == 72 - 4
        assert not hasattr(sol, "method")
        assert sol.residual <= 1e-10
        rt = bf.solve_problem(paper_mesh, problem, family="rt0")
        assert rt.sigma.shape == (28,)
        assert rt.num_free == 44 - 2

    def test_deterministic(self, paper_mesh):
        problem = bf.get_problem("paper-example")
        a = bf.solve_problem(paper_mesh, problem)
        b = bf.solve_problem(paper_mesh, problem)
        assert np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.u, b.u)

    def test_divergence_identity(self, paper_mesh, paper_topo,
                                 paper_coeffs):
        # second block row: C sigma = b2 holds for the computed flux,
        # i.e. every element balances its source exactly
        problem = bf.get_problem("paper-example")
        for family in bf.FAMILIES:
            sol = bf.solve_problem(paper_mesh, problem, family=family)
            div = bf.assemble_divergence(paper_topo, family)
            b2 = bf.source_term(paper_mesh, paper_coeffs, problem.source)
            assert np.abs(div @ sol.sigma - b2).max() <= 1e-10

    def test_conservation(self, paper_mesh, paper_topo):
        # summing the divergence identity: total source inflow equals
        # the net boundary flux of sigma_h
        problem = bf.get_problem("paper-example")
        sol = bf.solve_problem(paper_mesh, problem)
        coeffs = bf.barycentric_gradients(paper_mesh)
        total_source = -bf.source_term(paper_mesh, coeffs,
                                       problem.source).sum()
        adjacency = np.bincount(paper_topo.elem_to_edge.ravel(),
                                minlength=paper_topo.num_edges)
        sign_sum = np.zeros(paper_topo.num_edges)
        np.add.at(sign_sum, paper_topo.elem_to_edge.ravel(),
                  paper_topo.sign_edge.ravel())
        boundary_flux = 0.0
        for e in np.flatnonzero(adjacency == 1):
            # int_E sigma_h . n_out = s (x_e + x_{NE+e}) / 2 ... the
            # mean of the linear trace times the length, and the trace
            # lambda/|E| integrates to 1/2
            boundary_flux += sign_sum[e] * (sol.sigma[e]
                                            + sol.sigma[28 + e]) / 2
        assert np.isclose(boundary_flux, total_source, atol=1e-10)

    def test_permutation_invariance(self, paper_mesh):
        # renumbering elements leaves the flux coefficients (indexed by
        # global edges) unchanged and permutes the scalar values
        problem = bf.get_problem("paper-example")
        base = bf.solve_problem(paper_mesh, problem)
        rng = np.random.default_rng(11)
        perm = rng.permutation(16)
        shuffled = bf.Mesh(paper_mesh.nodes, paper_mesh.elements[perm],
                           paper_mesh.boundary_markers[perm])
        got = bf.solve_problem(shuffled, problem)
        assert np.allclose(got.sigma, base.sigma, rtol=1e-12, atol=1e-12)
        assert np.allclose(got.u, base.u[perm], rtol=1e-12, atol=1e-12)

    def test_all_dirichlet(self, paper_mesh):
        mesh = mark_boundary_dirichlet(paper_mesh)
        sol = bf.solve_problem(mesh, bf.get_problem("patch-linear"))
        assert sol.num_free == 72
        assert sol.residual <= 1e-10

    def test_refined_once(self, paper_mesh):
        fine = bf.uniform_refine(paper_mesh)
        sol = bf.solve_problem(fine, bf.get_problem("paper-example"))
        assert sol.num_dof == 2 * 104 + 64

    def test_invalid_mesh_rejected(self):
        mesh = bf.Mesh([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]], [[1, 1, 1]])
        with pytest.raises(bf.MeshError, match="area"):
            bf.solve_problem(mesh, zero_problem())

    def test_nonpositive_alpha_rejected(self, paper_mesh):
        bad = bf.ProblemDefinition(
            "bad", alpha=lambda p: p[:, 0],  # negative for x < 0
            source=lambda p: np.zeros(len(p)),
            dirichlet=lambda p: np.zeros(len(p)),
            neumann=lambda p: np.zeros(len(p)))
        with pytest.raises(ValueError, match="positive"):
            bf.solve_problem(paper_mesh, bad)

    @pytest.mark.parametrize("field", ["alpha", "source", "dirichlet",
                                       "neumann"])
    @pytest.mark.parametrize("shape", [(256, 1), (257,)],
                             ids=["column", "one_more"])
    def test_callback_shape_refused(self, field, shape):
        # an (NT, 1) column would broadcast against the (NT,) areas into
        # an (NT, NT) array before any error; boundary data are sampled
        # at one point per edge, 24 Dirichlet and 8 Neumann ones here
        problem = _paper_with(**{field: lambda p: np.ones(shape)})
        points = {"dirichlet": 24, "neumann": 8}.get(field, 256)
        message = "problem 'odd': {} returned shape {}, not a scalar or " \
                  "({},)".format(field, shape, points)
        with pytest.raises(ValueError, match=re.escape(message)):
            bf.solve_problem(_paper_level(2), problem)

    @pytest.mark.parametrize("field", ["alpha", "source", "dirichlet",
                                       "neumann"])
    def test_scalar_callback_kept(self, field):
        mesh = _paper_level(2)
        scalar, array = (bf.solve_problem(mesh, _paper_with(**{field: f}))
                         for f in (lambda p: 1.0, lambda p: np.ones(len(p))))
        assert np.array_equal(scalar.sigma, array.sigma)
        assert np.array_equal(scalar.u, array.u)

    @pytest.mark.parametrize("field, value", [
        ("alpha", np.inf), ("source", np.nan), ("dirichlet", np.inf),
        ("neumann", np.nan)])
    def test_callback_not_finite_refused(self, field, value):
        # refused as bad data, not left to end as a non-finite solution
        problem = _paper_with(**{field: lambda p: np.where(
            p[:, 0] > 0.5, value, 1.0)})
        message = "problem 'odd': {} must be {}finite at every point".format(
            field, "positive and " if field == "alpha" else "")
        with pytest.raises(ValueError, match=re.escape(message)):
            bf.solve_problem(_paper_level(2), problem)

    def test_singular_element_block(self, tmp_path, capsys):
        # paper level 2 flattened to 1e-9 in y passes validation, but
        # the inverse of its element blocks hits an exact zero pivot
        mesh = _paper_level(2)
        mesh = bf.Mesh(mesh.nodes * [1.0, 1e-9], mesh.elements,
                       mesh.boundary_markers)
        assert bf.validate_mesh(mesh) == []
        for family in bf.FAMILIES:
            for name in ("smooth-dirichlet", "paper-example"):
                with pytest.raises(bf.SolverError,
                                   match="element 0: singular block"):
                    bf.solve_problem(mesh, bf.get_problem(name),
                                     family=family)
        path = tmp_path / "thin.mesh"
        bf.write_mesh(mesh, path)
        assert main(["solve", "--mesh", str(path),
                     "--problem", "smooth-dirichlet"]) == 4
        assert "element 0: singular block" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["qr", "minres"])
    def test_unknown_method(self, paper_mesh, method):
        # named before the mesh is looked at: this one is clockwise
        flipped = bf.Mesh([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]], [[1, 1, 1]])
        with pytest.raises(ValueError, match=repr(method)):
            bf.solve_problem(flipped, zero_problem(), method=method)
        with pytest.raises(ValueError, match=repr(method)):
            bf.convergence_study(zero_problem(), paper_mesh, levels=1,
                                 method=method)

    def test_incompatible_all_neumann_fails(self):
        # pure Neumann data violating the compatibility condition
        # (nonzero source, zero boundary flux) cannot be solved: the
        # solver must refuse rather than return garbage
        mesh = bf.builtin_mesh("paper")
        markers = np.where(mesh.boundary_markers == 1, 2,
                           mesh.boundary_markers)
        mesh = bf.Mesh(mesh.nodes, mesh.elements, markers)
        bad = bf.ProblemDefinition(
            "incompatible", alpha=lambda p: np.ones(len(p)),
            source=lambda p: np.full(len(p), 2.0),
            dirichlet=lambda p: np.zeros(len(p)),
            neumann=lambda p: np.zeros(len(p)))
        with pytest.raises(bf.SolverError):
            bf.solve_problem(mesh, bad)


class TestSolveReduced:

    def _inputs(self, mesh, family="bdm1"):
        topo = bf.build_edge_topology(mesh)
        coeffs = bf.barycentric_gradients(mesh)
        boundary = bf.classify_boundary(mesh, topo)
        problem = bf.get_problem("paper-example")
        centroids = mesh.nodes[mesh.elements].mean(axis=1)
        inv_alpha = 1.0 / problem.alpha(centroids)
        blocks = bf.assembly.element_mass(topo, coeffs, inv_alpha, family)
        system = bf.assemble_system(
            bf.assemble_mass(topo, coeffs, inv_alpha, family),
            bf.assemble_divergence(topo, family))
        b1 = bf.dirichlet_term(mesh, boundary, problem.dirichlet, family)
        b2 = bf.source_term(mesh, coeffs, problem.source)
        lifted = bf.neumann_lift(mesh, boundary, problem.neumann, b1, b2)
        return system, lifted, topo, blocks, centroids

    def test_residual_reported(self, paper_mesh):
        # the assembled system is the independent oracle here: the solve
        # measures its residual with the operator on the element blocks
        system, lifted, topo, blocks, centroids = self._inputs(paper_mesh)
        free = lifted.free_dofs
        sol = bf.solve_reduced(lifted, topo, blocks, centroids)
        full = np.concatenate([sol.sigma, sol.u])
        expected = (np.linalg.norm((system @ full - lifted.load)[free])
                    / np.linalg.norm((lifted.load
                                      - system @ lifted.sol)[free]))
        assert abs(sol.residual - expected) <= 1e-14
        assert 0 <= sol.residual <= 1e-12
        assert sol.solve_time >= 0.0

    def test_lifted_values_kept(self, paper_mesh, paper_topo):
        _, lifted, topo, blocks, centroids = self._inputs(paper_mesh)
        boundary = bf.classify_boundary(paper_mesh, paper_topo)
        fixed = np.concatenate([boundary.ind_neumann,
                                28 + boundary.ind_neumann])
        sol = bf.solve_reduced(lifted, topo, blocks, centroids)
        assert np.array_equal(sol.sigma[fixed], lifted.sol[fixed])

    def test_tolerance_enforced(self, paper_mesh):
        _, lifted, topo, blocks, centroids = self._inputs(paper_mesh)
        with pytest.raises(bf.SolverError, match="residual"):
            bf.solve_reduced(lifted, topo, blocks, centroids, tol=1e-30)
        # outside (0, 1) the tolerance itself is refused: a NaN one
        # compares false with every residual and would pass anything
        for tol in (float("nan"), 0.0, -1.0, 1.0):
            with pytest.raises(ValueError, match="tolerance"):
                bf.solve_reduced(lifted, topo, blocks, centroids, tol=tol)

    def test_zero_diagonal_column_solved(self):
        # only the element blocks need inverses: a free flux column
        # whose mass diagonal is zero, on its one side (a Dirichlet
        # edge) or on both, solves like the assembled saddle system
        # with that diagonal entry zeroed, factored by SuperLU; a block
        # zeroed whole is singular and still refused
        for level in range(3):
            for family in bf.FAMILIES:
                system, lifted, topo, blocks, centroids = self._inputs(
                    _paper_level(level), family)
                columns, _ = bf.basis.local_columns(family, topo)
                sides = np.bincount(columns.ravel())
                free = lifted.free_dofs
                free_flux = free[free < sides.size]
                for count in (1, 2):
                    k = free_flux[sides[free_flux] == count][0]
                    zeroed = blocks.copy()
                    t, i = np.nonzero(columns == k)
                    zeroed[t, i, i] = 0.0
                    saddle = system.tolil()
                    saddle[k, k] = 0.0
                    saddle = saddle.tocsr()
                    expected = lifted.sol.copy()
                    expected[free] = spla.splu(
                        saddle[free][:, free].tocsc()).solve(
                        (lifted.load - saddle @ lifted.sol)[free])
                    sol = bf.solve_reduced(lifted, topo, zeroed, centroids)
                    n = sol.sigma.size
                    assert _max_rel(sol.sigma, expected[:n]) <= 1e-10
                    assert _max_rel(sol.u, expected[n:]) <= 1e-10
                zeroed = blocks.copy()
                zeroed[5] = 0.0
                with pytest.raises(bf.SolverError,
                                   match="element 5: singular block"):
                    bf.solve_reduced(lifted, topo, zeroed, centroids)

    def test_family_from_load(self, paper_mesh):
        # the load's length fixes the family; the blocks of the other
        # family are refused in both directions, naming both sizes
        inputs = {family: self._inputs(paper_mesh, family)
                  for family in bf.FAMILIES}
        for family, other in (("bdm1", "rt0"), ("rt0", "bdm1")):
            _, lifted, topo, blocks, centroids = inputs[family]
            sol = bf.solve_reduced(lifted, topo, blocks, centroids)
            assert sol.family == family
            wrong = inputs[other][3]
            with pytest.raises(ValueError, match=r"size {} given, .* need "
                               r"size {}".format(wrong.shape[1],
                                                 blocks.shape[1])):
                bf.solve_reduced(lifted, topo, wrong, centroids)

    def test_refinement_on_slivers(self):
        # areas spread 470-fold: the hybridized elimination alone leaves
        # a saddle residual of 2.1e-10, a refinement step 2e-14
        mesh = random_mesh(seed=29)
        sol = bf.solve_problem(mesh, bf.get_problem("patch-linear"),
                               tol=1e-13)
        assert sol.residual <= 1e-13

    @pytest.mark.parametrize("family", bf.FAMILIES)
    def test_one_back_solve_from_lifted_defect(self, monkeypatch, family):
        # the first defect carries the lifted Neumann values, so on a
        # well-shaped mesh the first step already meets the tolerance
        solves = []
        splu = bf.solve.spla.splu

        class Counted:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs):
                solves.append(1)
                return self.lu.solve(rhs)

        monkeypatch.setattr(bf.solve.spla, "splu",
                            lambda *args, **kwargs: Counted(
                                splu(*args, **kwargs)))
        sol = bf.solve_problem(_paper_level(2),
                               bf.get_problem("paper-example"),
                               family=family)
        assert sol.residual <= 1e-10
        assert len(solves) == 1

    def test_fill_independent_of_labels(self, monkeypatch):
        # the multiplier order comes from the geometry alone: centroids
        # free of the vertex order's round-off and ties broken by leaf
        # positions, so relabelling the mesh leaves the fill unchanged
        nnz = []
        splu = bf.solve.spla.splu

        def counted(*args, **kwargs):
            lu = splu(*args, **kwargs)
            nnz.append(lu.nnz)
            return lu

        monkeypatch.setattr(bf.solve.spla, "splu", counted)
        mesh = _paper_level(4)
        for seed in (3, 5, 9):
            bf.solve_problem(relabel(mesh, seed),
                             bf.get_problem("paper-example"))
        assert len(nnz) == 3
        assert nnz[0] == nnz[1] == nnz[2]

    @pytest.mark.parametrize("family, fill",
                             [("bdm1", 639496), ("rt0", 163080)])
    def test_factor_panel_and_fill(self, monkeypatch, family, fill):
        # the narrow panel bounds SuperLU's dense work arrays and leaves
        # the fill as it was at the default panel width
        calls = []
        splu = bf.solve.spla.splu

        def recorded(*args, **kwargs):
            lu = splu(*args, **kwargs)
            calls.append((kwargs, lu.nnz))
            return lu

        monkeypatch.setattr(bf.solve.spla, "splu", recorded)
        bf.solve_problem(_paper_level(4), bf.get_problem("paper-example"),
                         family=family)
        [(kwargs, nnz)] = calls
        assert kwargs.get("panel_size") == bf.solve._PANEL_SIZE == 4
        assert nnz == fill

    def test_random_mesh_families(self):
        mesh = random_mesh(seed=19, n=25)
        problem = bf.get_problem("smooth-dirichlet")
        for family in bf.FAMILIES:
            sol = bf.solve_problem(mesh, problem, family=family)
            assert sol.residual <= 1e-10
            assert np.isfinite(sol.sigma).all()
            assert np.isfinite(sol.u).all()


def _paper_with(**fields):
    """paper-example, named "odd", with the given callbacks replaced."""
    paper = bf.get_problem("paper-example")
    for name in ("alpha", "source", "dirichlet", "neumann"):
        fields.setdefault(name, getattr(paper, name))
    return bf.ProblemDefinition("odd", **fields)


def _paper_level(level):
    mesh = bf.builtin_mesh("paper")
    for _ in range(level):
        mesh = bf.uniform_refine(mesh)
    return mesh


class TestSaddleOperator:
    """[B C'; C 0] applied from the element blocks against the
    assembled matrix."""

    @pytest.mark.parametrize("family", bf.FAMILIES)
    @pytest.mark.parametrize("mesh", ["paper-0", "paper-1", "paper-2",
                                      "random-3", "random-29"])
    def test_matches_assembled(self, mesh, family):
        kind, number = mesh.split("-")
        mesh = (_paper_level(int(number)) if kind == "paper"
                else random_mesh(seed=int(number)))
        topo = bf.build_edge_topology(mesh)
        coeffs = bf.barycentric_gradients(mesh)
        rng = np.random.default_rng(len(mesh.elements))
        inv_alpha = rng.uniform(0.5, 2.0, mesh.num_elements)
        system = bf.assemble_system(
            bf.assemble_mass(topo, coeffs, inv_alpha, family),
            bf.assemble_divergence(topo, family))
        blocks = bf.assembly.element_mass(topo, coeffs, inv_alpha, family)
        columns, _ = bf.basis.local_columns(family, topo)
        apply = bf.solve._saddle_operator(
            blocks, columns, bf.assembly.element_divergence(topo, family),
            bf.flux_dof_count(family, topo.num_edges))
        for _ in range(3):
            x = rng.standard_normal(system.shape[0])
            expected = system @ x
            got = apply(x)
            assert got.shape == expected.shape
            assert (np.linalg.norm(got - expected)
                    <= 1e-14 * np.linalg.norm(expected))

    @pytest.mark.parametrize("mesh, tol, applications", [
        # the first defect from the Neumann lift and the one residual
        # check
        ("paper-2", 1e-10, 2),
        # all Dirichlet, so nothing lifted: the first defect all the
        # same, and the residual before and after the one refinement
        # step this sliver mesh needs
        ("random-29", 1e-13, 3),
    ])
    def test_applications_per_solve(self, monkeypatch, mesh, tol,
                                    applications):
        calls = []
        saddle_operator = bf.solve._saddle_operator

        def counted(*args):
            apply = saddle_operator(*args)

            def counting(x):
                calls.append(1)
                return apply(x)
            return counting

        monkeypatch.setattr(bf.solve, "_saddle_operator", counted)
        kind, number = mesh.split("-")
        mesh = (_paper_level(int(number)) if kind == "paper"
                else random_mesh(seed=int(number)))
        sol = bf.solve_problem(mesh, bf.get_problem("paper-example"),
                               tol=tol)
        assert sol.residual <= tol
        assert len(calls) == applications

    def test_element_tables_built_once(self, paper_mesh, monkeypatch):
        # the elimination and the operator share one set of tables: one
        # call of local_columns in the solve and one inside
        # element_divergence
        calls = []
        local_columns = bf.basis.local_columns

        def counted(*args):
            calls.append(1)
            return local_columns(*args)

        for module in (bf.solve, bf.assembly):
            monkeypatch.setattr(module, "local_columns", counted)
        for family in bf.FAMILIES:
            calls.clear()
            bf.solve_problem(paper_mesh, bf.get_problem("paper-example"),
                             family=family)
            assert 1 <= len(calls) <= 2

    def test_solve_assembles_no_global_matrix(self, paper_mesh,
                                              monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("global matrix assembled in the solve")

        for name in ("assemble_mass", "assemble_divergence",
                     "assemble_system"):
            for module in (bf, bf.assembly, bf.solve, bf.bc):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        problem = bf.get_problem("paper-example")
        for family in bf.FAMILIES:
            sol = bf.solve_problem(paper_mesh, problem, family=family)
            assert sol.residual <= 1e-10


def _reference_dissection_rank(centroids, columns, joined):
    """Nested-dissection number of every joined column by plain
    recursion: a part is sorted along its wider extent (ties by the
    other coordinate) and cut at len // 2, a leaf of at most four
    elements is ordered by (x, y), and the multipliers follow the post
    order of the node where their elements part, then (min, max) of
    those elements' leaf positions, then the column."""
    x, y = centroids.T
    path, leaf_pos, post = {}, {}, {}

    def cut(elements, bits):
        if len(elements) <= 4:
            for t in sorted(elements, key=lambda t: (x[t], y[t])):
                path[t] = bits
                leaf_pos[t] = len(leaf_pos)
        else:
            if np.ptp(y[elements]) > np.ptp(x[elements]):
                elements = sorted(elements, key=lambda t: (y[t], x[t]))
            else:
                elements = sorted(elements, key=lambda t: (x[t], y[t]))
            half = len(elements) // 2
            cut(elements[:half], bits + (0,))
            cut(elements[half:], bits + (1,))
        post[bits] = len(post)

    cut(list(range(len(centroids))), ())
    owners = {}
    for t, row in enumerate(columns):
        for column in row:
            owners.setdefault(column, []).append(t)

    def key(column):
        first, last = owners[column][0], owners[column][-1]
        u, v = path[first], path[last]
        common = 0
        while common < min(len(u), len(v)) and u[common] == v[common]:
            common += 1
        a, b = sorted((leaf_pos[first], leaf_pos[last]))
        return post[u[:common]], a, b

    joined = np.flatnonzero(joined)
    order = sorted(range(joined.size), key=lambda i: key(joined[i]))
    rank = np.empty(joined.size, dtype=np.int64)
    rank[order] = np.arange(joined.size)
    return rank


@pytest.mark.parametrize("family", bf.FAMILIES)
@pytest.mark.parametrize("mesh", ["paper-0", "paper-1", "paper-2", "paper-3",
                                  "random-3", "random-11", "random-19",
                                  "random-29"])
def test_dissection_rank_matches_reference(mesh, family):
    kind, number = mesh.split("-")
    mesh = (relabel(_paper_level(int(number)), 7) if kind == "paper"
            else random_mesh(seed=int(number)))
    topo = bf.build_edge_topology(mesh)
    boundary = bf.classify_boundary(mesh, topo)
    columns, signs = bf.basis.local_columns(family, topo)
    n = bf.flux_dof_count(family, topo.num_edges)
    joined = np.bincount(columns.ravel(), minlength=n) == 2
    for neumann in bf.basis.flux_columns(family, boundary.ind_neumann,
                                         topo.num_edges):
        joined[neumann] = True
    # as in solve_problem: summed in coordinate order
    centroids = np.sort(mesh.nodes[mesh.elements.T], axis=0).mean(axis=0)
    rank = bf.solve._dissection_rank(centroids, columns, signs, joined)
    assert np.array_equal(rank,
                          _reference_dissection_rank(centroids, columns,
                                                     joined))


def _max_rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def _check_against_saddle(mesh, problem, family):
    sigma, u = saddle_solve(mesh, problem, family)
    sol = bf.solve_problem(mesh, problem, family=family)
    assert _max_rel(sol.sigma, sigma) <= 1e-10
    assert _max_rel(sol.u, u) <= 1e-10


def _upper_half_neumann(mesh):
    return mark_boundary_dirichlet(mesh, lambda mid: mid[:, 1] > 0)


def _strip(cells, height):
    """The rectangle (-1, 1) x (0, height) as one row of `cells`
    cells, each cut into two triangles."""
    x = np.linspace(-1.0, 1.0, cells + 1)
    nodes = np.concatenate([np.column_stack([x, np.zeros_like(x)]),
                            np.column_stack([x, np.full_like(x, height)])])
    lo = np.arange(cells)
    hi = lo + cells + 1
    elements = np.concatenate([np.column_stack([lo, lo + 1, hi + 1]),
                               np.column_stack([lo, hi + 1, hi])])
    return bf.Mesh(nodes, elements)


class TestHybridizedMatchesSaddle:
    """The hybridized direct solve against the whole saddle system
    factored by SuperLU (``conftest.saddle_solve``)."""

    @pytest.mark.parametrize("family", bf.FAMILIES)
    @pytest.mark.parametrize("markers", ["mixed", "all-dirichlet"])
    @pytest.mark.parametrize("level", [0, 2])
    @pytest.mark.parametrize("mesh_name", sorted(bf.BUILTIN_MESHES))
    @pytest.mark.parametrize("problem", sorted(bf.PROBLEMS))
    def test_builtin(self, problem, mesh_name, level, markers, family):
        mesh = bf.builtin_mesh(mesh_name)
        for _ in range(level):
            mesh = bf.uniform_refine(mesh)
        if markers == "all-dirichlet":
            mesh = mark_boundary_dirichlet(mesh)
        _check_against_saddle(mesh, bf.get_problem(problem), family)

    @pytest.mark.parametrize("family", bf.FAMILIES)
    def test_deep_tree(self, family):
        # paper level 4: 4,096 elements, ten levels of cuts, the
        # built-in mixed markers
        mesh = _paper_level(4)
        _check_against_saddle(mesh, bf.get_problem("paper-example"), family)

    @pytest.mark.parametrize("family", bf.FAMILIES)
    @pytest.mark.parametrize("markers", ["mixed", "all-dirichlet"])
    @pytest.mark.parametrize("cells,height", [(1, 2.0), (32, 1e-2)],
                             ids=["two-triangles", "thin-strip"])
    def test_small_and_thin(self, cells, height, markers, family):
        # fewer elements than one leaf, and a strip 200 times longer
        # than wide, which is only ever cut along its length (any
        # height below 0.1 gives the same cuts)
        mesh = mark_boundary_dirichlet(_strip(cells, height))
        if markers == "mixed":
            mesh = _upper_half_neumann(mesh)
        for problem in bf.PROBLEMS.values():
            _check_against_saddle(mesh, problem, family)

    @pytest.mark.parametrize("family", bf.FAMILIES)
    @pytest.mark.parametrize("markers", ["mixed", "all-dirichlet"])
    @pytest.mark.parametrize("seed", [3, 19, 29])
    def test_random_mesh(self, seed, markers, family):
        mesh = random_mesh(seed=seed)
        if markers == "mixed":
            mesh = _upper_half_neumann(mesh)
        for problem in bf.PROBLEMS.values():
            _check_against_saddle(mesh, problem, family)

    @pytest.mark.parametrize("family", bf.FAMILIES)
    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_high_contrast(self, level, family):
        # alpha 1e6 on x < 0: each step corrects only the free rows, as
        # the lifted Neumann rows' defect, O(|sigma|) and never solved
        # for, would add round-off of order eps cond(S) |sigma| and stop
        # bdm1 at residuals 2.4e-10 to 4.0e-10.  The unrefined reference
        # is no better than 1e-10 here
        problem = _paper_with(alpha=lambda p: np.where(p[:, 0] < 0, 1e6, 1.0))
        mesh = _paper_level(level)
        sigma, u = saddle_solve(mesh, problem, family)
        sol = bf.solve_problem(mesh, problem, family=family)
        assert sol.residual <= 1e-10
        assert _max_rel(sol.sigma, sigma) <= 1e-9
        assert _max_rel(sol.u, u) <= 1e-9
