"""Hybridized direct solve and the end-to-end `solve_problem`.

The assembled system [B C'; C 0] is symmetric indefinite with an
exactly zero scalar-scalar block.  The direct solve never factors it.
It hybridizes the system instead (Arnold & Brezzi 1985; Cockburn &
Gopalakrishnan 2004):

* every element K gets its own copy y_K of its flux unknowns
  (:func:`basis.local_columns`), so the local saddle blocks
  [M_K D_K'; D_K 0] decouple and are inverted together in one batched
  call (7 x 7 for bdm1, 4 x 4 for rt0);
* normal continuity comes back through one Lagrange multiplier per
  flux column that two elements share or the Neumann lift fixes.  The
  jump operator E_K holds the orientation signs sign_edge, which are
  opposite on the two sides of an interior edge, so
  sum_K E_K' y_K = 0 there, and s y = 0 on a Neumann column, whose
  value the lift has fixed: its multiplier absorbs the load on its
  row.  A Dirichlet column belongs to one element and needs no
  multiplier;
* what is left is S = sum_K E_K H_K E_K' in the multipliers, with H_K
  the flux block of the inverted element block.  S has the sparsity of
  B and is symmetric positive definite once some edge is Dirichlet;
  SuperLU factors it in a nested-dissection order taken from the mesh
  (George 1973; Lipton, Rose & Tarjan 1979) with no pivoting: the
  element centroids are bisected at the median, one sort per level,
  down to leaves of four elements, and each multiplier is numbered at
  the tree node where its elements part, leaves first and the top cut
  last;
* flux and scalar are recovered element by element, and each flux
  column takes the mean of its sides' values.

The solve is defect correction.  The first defect is the load less
[B C'; C 0] applied to the lifted Neumann values.  Each step adds the
elimination's answer for the defect's free rows to the free unknowns.  In
exact arithmetic one step gives the saddle solution; on badly shaped
elements round-off can leave the residual above the tolerance, so up
to two more steps reuse the factor.  No global matrix is assembled:
the defects apply [B C'; C 0] from the same element blocks
(:func:`_saddle_operator`), and the element tables (columns, signs,
divergence rows) are built once per solve.  The tests keep the
assembled saddle system, factored by SuperLU, as the reference.

The reported residual is that of the saddle system on the free
unknowns, relative to the first defect, and it is checked against the
requested tolerance.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import element_divergence, element_mass
from .basis import _family_of, local_columns
from .bc import _element_alpha, dirichlet_term, neumann_lift, source_term
from .geometry import barycentric_gradients, check_coefficients
from .mesh import build_edge_topology, classify_boundary, require_valid

__all__ = ["SolverError", "MixedSolution", "solve_reduced", "solve_problem"]


class SolverError(RuntimeError):
    """The linear solve failed or did not reach the tolerance."""


class MixedSolution:
    """Flux and scalar coefficients with solver diagnostics.

    Attributes
    ----------
    sigma : float array
        Flux coefficients (2 NE for "bdm1", NE for "rt0").
    u : (NT,) float array
        Elementwise constant scalar values.
    family : {"bdm1", "rt0"}
    residual : float
        Relative residual of the saddle system on the free unknowns.
    solve_time : float
        Wall-clock seconds spent in :func:`solve_reduced`.
    num_free : int
        Number of unknowns actually solved for.
    """

    def __init__(self, sigma, u, family, residual, solve_time, num_free):
        self.sigma = sigma
        self.u = u
        self.family = family
        self.residual = residual
        self.solve_time = solve_time
        self.num_free = num_free

    @property
    def num_dof(self):
        return self.sigma.size + self.u.size


# most elements in a leaf of the dissection tree
_LEAF_SIZE = 4
# SuperLU panel width: 12 MB of work arrays at level 6, 60 MB at the default 20
_PANEL_SIZE = 4


def _dissection_rank(centroids, columns, signs, joined):
    """Nested-dissection number of every multiplier (George 1973).

    Every part of more than _LEAF_SIZE elements is cut at the median of
    its centroids along its wider axis, all parts of a level in one
    sort; coordinate ties go to the other coordinate, so the element
    labels never decide a cut.  A multiplier sits at the tree node
    where its elements' leaves separate, or in its element's leaf if it
    has one side.  Nodes are numbered in post order, leaves first and
    the top cut last; inside a node the multipliers follow their
    elements' leaf positions, the lower one first, and a leaf is
    ordered by (x, y).
    """
    nt = centroids.shape[0]
    x, y = centroids[:, 0], centroids[:, 1]
    index = np.arange(nt)
    # each element's rank by (x, y) and by (y, x)
    ranks = np.empty((2, nt), dtype=np.int64)
    ranks[0, np.lexsort((y, x))] = index
    ranks[1, np.lexsort((x, y))] = index
    # `order`: the elements sorted by their path from the root, one bit
    # per level (1 for the upper half of a cut, 0 below a leaf); `path`
    # holds the paths in that order
    order = index
    path = np.zeros(nt, dtype=np.int64)
    depth = 0
    while True:
        starts = np.flatnonzero(np.diff(path, prepend=-1))
        sizes = np.diff(starts, append=nt)
        if (sizes <= _LEAF_SIZE).all():
            break
        extent = [np.maximum.reduceat(c, starts) - np.minimum.reduceat(
            c, starts) for c in (x[order], y[order])]
        along = (extent[1] > extent[0]).astype(np.int64)
        part = np.repeat(np.arange(starts.size), sizes)
        order = order[np.argsort(path * nt + ranks[along[part], order],
                                 kind="stable")]
        lower = np.where(sizes > _LEAF_SIZE, sizes // 2, sizes)
        path = 2 * path + (index - starts[part] >= lower[part])
        depth += 1
    code = np.empty(nt, dtype=np.int64)
    code[order] = path
    pos = np.empty(nt, dtype=np.int64)
    pos[np.argsort(code * nt + ranks[0], kind="stable")] = index

    # the plus and minus side of every column; signs are opposite on
    # the two sides of an interior one
    plus = np.full(joined.size, -1)
    minus = np.full(joined.size, -1)
    for side, mask in ((plus, signs > 0), (minus, signs < 0)):
        element, slot = np.nonzero(mask)
        side[columns[element, slot]] = element
    plus, minus = plus[joined], minus[joined]
    plus = np.where(plus < 0, minus, plus)
    minus = np.where(minus < 0, plus, minus)
    # the path bits below the separating node, set to ones: numbering
    # nodes by that and then by height is post order
    below = np.frexp(code[plus] ^ code[minus])[1].astype(np.int64)
    node = (code[plus] | ((1 << below) - 1)) * (depth + 1) + below
    a, b = pos[plus], pos[minus]
    order = np.lexsort((np.minimum(a, b) * pos.size + np.maximum(a, b), node))
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return rank


def _hybridize(blocks, columns, signs, div, sides, free, centroids):
    """Eliminate the element blocks and factor the multiplier system
    (see the module docstring).

    Returns ``solve(load)``, the flux and scalar unknowns, as one
    vector, for the rows in `free` of a load [b1; b2] (the others count
    as zero) and zero values on the unknowns outside `free`.
    """
    nt, k = columns.shape
    n = sides.size

    local = np.zeros((nt, k + 1, k + 1))
    local[:, :k, :k] = blocks
    local[:, k, :k] = local[:, :k, k] = div
    try:
        inv = np.linalg.inv(local)
    except np.linalg.LinAlgError:
        bad = np.flatnonzero(np.linalg.det(local) == 0)[0]
        raise SolverError("element {}: singular block".format(bad)) from None
    del local

    # a multiplier on every column shared by two sides or fixed by the
    # lift, numbered by nested dissection; the others (Dirichlet) point
    # one past the last multiplier, whose value is held at zero
    fixed = np.ones(n + nt, dtype=bool)
    fixed[free] = False
    joined = (sides == 2) | fixed[:n]
    count = int(joined.sum())
    mult = np.full(n, count)
    mult[joined] = _dissection_rank(centroids, columns, signs, joined)
    mult = mult[columns]
    jump = np.where(mult < count, signs, 0)

    # S = sum_K E_K H_K E_K' with H_K the flux block of the inverse;
    # the zero row and column of the placeholder are cut off
    rows = np.broadcast_to(mult[:, :, None], (nt, k, k))
    cols = np.broadcast_to(mult[:, None, :], (nt, k, k))
    schur = sp.csc_matrix(
        ((jump[:, :, None] * inv[:, :k, :k] * jump[:, None, :]).ravel(),
         (rows.ravel(), cols.ravel())),
        shape=(count + 1, count + 1))[:count, :count]
    try:
        lu = spla.splu(schur, permc_spec="NATURAL",
                       diag_pivot_thresh=0.0, panel_size=_PANEL_SIZE,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU signals exact singularity
        raise SolverError("direct factorization failed: {}".format(exc))

    def solve(load):
        load = np.where(fixed, 0.0, load)
        # b1 split evenly between the sides of a column, b2 per element
        base = np.einsum("tij,tj->ti", inv, np.column_stack(
            [load[columns] / sides[columns], load[n:]]))
        # sum_K E_K' y_K = 0: continuity across interior columns, no
        # change on fixed ones
        rhs = np.bincount(mult.ravel(), (jump * base[:, :k]).ravel(),
                          minlength=count + 1)[:count]
        lam = np.append(lu.solve(rhs), 0.0)
        local_sol = base - np.einsum("tij,tj->ti", inv[:, :, :k],
                                     jump * lam[mult])
        flux = np.bincount(columns.ravel(), local_sol[:, :k].ravel(),
                           minlength=n) / sides
        return np.concatenate([flux, local_sol[:, k]])

    return solve


def _saddle_operator(blocks, columns, div, n):
    """``apply(x)``: [B C'; C 0] x from the element blocks M_K and rows
    D_K, x gathered per element, multiplied, and summed back per column
    (`n` flux columns)."""
    def apply(x):
        local = x[columns]
        flux = np.einsum("tij,tj->ti", blocks, local) + div * x[n:, None]
        return np.concatenate([
            np.bincount(columns.ravel(), flux.ravel(), minlength=n),
            np.einsum("tj,tj->t", div, local)])

    return apply


def solve_reduced(lifted, topo, blocks, centroids, tol=1e-10):
    """Solve for the free unknowns and assemble the full solution.

    Parameters
    ----------
    lifted : LiftedSystem
        Its load, 2 NE (bdm1) or NE (rt0) flux values and NT scalar ones.
    topo : EdgeTopology
    blocks : (NT, k, k) float array
        The element mass blocks M_K (:func:`assembly.element_mass`, the
        array :func:`assembly.assemble_mass` scatters).  The residual
        is that of [B C'; C 0] applied from these blocks, on the free
        unknowns and relative to the first defect
        ``lifted.load`` - [B C'; C 0] ``lifted.sol``.
    centroids : (NT, 2) float array
        Element centroids.  They order the multipliers for the
        factorization (nested dissection) and change the solution by
        round-off at most.

    Raises
    ------
    ValueError
        If `tol` is outside (0, 1), the load fits no family, or
        `blocks` fit the other one.
    SolverError
        If an element block is singular, the multiplier system cannot
        be factored, or the solution is not finite or its relative
        residual exceeds `tol`.
    """
    if not 0 < tol < 1:
        raise ValueError("tolerance {!r} must lie in (0, 1)".format(tol))
    start = time.perf_counter()
    free = lifted.free_dofs
    n = lifted.load.size - topo.elem_to_edge.shape[0]
    family = _family_of(n, topo.num_edges)
    columns, signs = local_columns(family, topo)
    k = columns.shape[1]
    if blocks.shape[1:] != (k, k):
        raise ValueError("element blocks of size {} given, {} flux unknowns "
                         "need size {}".format(blocks.shape[1], n, k))
    div = element_divergence(topo, family)
    sides = np.bincount(columns.ravel(), minlength=n)

    apply = _saddle_operator(blocks, columns, div, n)
    sol = lifted.sol.copy()
    r = lifted.load - apply(sol)
    # relative to the first defect, absolute for a zero one
    norm_rhs = np.linalg.norm(r[free]) or 1.0
    solve = _hybridize(blocks, columns, signs, div, sides, free, centroids)
    # one step solves up to round-off; on badly shaped elements that can
    # miss the tolerance, so refine against the saddle defect
    for _ in range(3):
        sol[free] += solve(r)[free]
        r = lifted.load - apply(sol)
        if np.linalg.norm(r[free]) <= tol * norm_rhs:
            break

    if not np.isfinite(sol).all():
        raise SolverError("solution contains non-finite entries")
    residual = np.linalg.norm(r[free]) / norm_rhs
    if residual > tol:
        raise SolverError(
            "relative residual {:.3e} above tolerance {:.1e}; system "
            "singular or severely ill-conditioned".format(residual, tol))

    elapsed = time.perf_counter() - start
    return MixedSolution(sol[:n], sol[n:], family, residual, elapsed,
                         free.size)


def solve_problem(mesh, problem, family="bdm1", method="direct", tol=1e-10,
                  topo=None, coeffs=None):
    """Validate a mesh, then solve a diffusion problem on it.

    Parameters
    ----------
    mesh : Mesh
    problem : ProblemDefinition
        Supplies alpha, the source and the boundary data.
    family : {"bdm1", "rt0"}
    method : {"direct"}
        The one solver; the keyword is kept for existing callers.
    topo, coeffs : optional
        Precomputed edge topology and barycentric coefficients; both
        are derived from the mesh when omitted.

    Returns
    -------
    MixedSolution

    Raises
    ------
    ValueError
        If `method` is not "direct", or alpha, the source or the boundary
        data break the contract stated in :mod:`bdmfem.problems`.
    MeshTopologyError
        If `topo` or `coeffs` were built for another mesh.
    """
    if method != "direct":
        raise ValueError("unknown solver method {!r}".format(method))
    require_valid(mesh)
    if topo is None:
        topo = build_edge_topology(mesh)
    if coeffs is None:
        coeffs = barycentric_gradients(mesh)
    else:
        check_coefficients(mesh, coeffs)
    boundary = classify_boundary(mesh, topo)

    centroids, alpha = _element_alpha(mesh, problem)
    blocks = element_mass(topo, coeffs, 1.0 / alpha, family)
    try:
        b1 = dirichlet_term(mesh, boundary, problem.dirichlet, family)
        b2 = source_term(mesh, coeffs, problem.source)
        lifted = neumann_lift(mesh, boundary, problem.neumann, b1, b2)
    except ValueError as e:
        raise ValueError("problem {!r}: {}".format(problem.name, e)) from None
    return solve_reduced(lifted, topo, blocks, centroids, tol)
