"""Right-hand side, boundary conditions and alpha: problem data as numbers.

The source enters through the scalar equations as
b2_l = -(f, 1)_{K_l}, integrated with the one-point centroid rule.
Dirichlet data g_D is natural for the mixed system and contributes
-int_E (phi . n) g_D per boundary basis function.  Neumann data g_N is
essential: the flux coefficients on Neumann edges are fixed so that
sigma_h . n equals the L2 projection of g_N onto the edge's
normal-trace space (linear per edge for "bdm1", constant for "rt0"),
and those unknowns leave the system.  The solve moves the lifted
values' contribution to the right-hand side.

On an edge of length L with global endpoints z_s, z_t the edge mass
matrix of (lambda_s, lambda_t) is L/6 [[2, 1], [1, 2]]; inverting it
against the moments I_s = int_E g_N lambda_s and I_t = int_E g_N
lambda_t gives the projection coefficients d_s = (4 I_s - 2 I_t) / L
and d_t = (4 I_t - 2 I_s) / L, hence the lifted basis coefficients
s (4 I_s - 2 I_t) and s (4 I_t - 2 I_s) with s the owning element's
orientation sign (the 1/L of the normal trace cancels L).  An rt0
unknown, tied to both, takes their mean s (I_s + I_t) = s int_E g_N,
the projection onto constants.

The Dirichlet load uses the same moments of g_D; all moments are taken
with the two-point Gauss rule EDGE_GAUSS2_POSITIONS / _WEIGHTS.
"""

import numpy as np

from .basis import _family_of, flux_columns, flux_dof_count

__all__ = [
    "LiftedSystem",
    "source_term",
    "dirichlet_term",
    "neumann_lift",
    "EDGE_GAUSS2_POSITIONS",
    "EDGE_GAUSS2_WEIGHTS",
]

#: Two-point Gauss rule on a segment: fractional positions from the
#: start vertex and weights relative to the segment length (exact
#: through degree 3).
EDGE_GAUSS2_POSITIONS = np.array([0.5 - 0.5 / np.sqrt(3.0),
                                  0.5 + 0.5 / np.sqrt(3.0)])
EDGE_GAUSS2_WEIGHTS = np.array([0.5, 0.5])


class LiftedSystem:
    """Solution vector seeded with the lifted Neumann coefficients, the
    indices of the unknowns that remain free, and the load [b1; b2].
    The solve's first defect, load - [B C'; C 0] sol, is the
    right-hand side on the free unknowns."""

    def __init__(self, sol, free_dofs, load):
        self.sol = sol
        self.free_dofs = free_dofs
        self.load = load


def _edge_moments(nodes, edges, g, what):
    """Moments int_E g lambda_s / |E| and int_E g lambda_t / |E| of
    each edge (start z_s, end z_t) by the EDGE_GAUSS2 rule."""
    start = nodes[edges[:, 0]]
    d = nodes[edges[:, 1]] - start
    gw = EDGE_GAUSS2_WEIGHTS[:, None] * np.array(
        [_sampled(g, start + pos * d, what) for pos in EDGE_GAUSS2_POSITIONS])
    return (1 - EDGE_GAUSS2_POSITIONS) @ gw, EDGE_GAUSS2_POSITIONS @ gw


def _sampled(callback, points, what, positive=False, trailing=()):
    """`callback` at (n, 2) `points` as n values of shape `trailing`,
    broadcast from one; ValueError naming `what` for any other shape or
    for a value that is not a finite real number (or not positive, if
    asked)."""
    values = np.asarray(callback(points))
    if values.dtype.kind not in "biuf":
        raise ValueError("{} returned {} values, not real numbers".format(
            what, values.dtype))
    values = values.astype(float, copy=False)
    shapes = (trailing, points.shape[:1] + trailing)
    if values.shape not in shapes:
        raise ValueError("{} returned shape {}, not {} or {}".format(
            what, values.shape, trailing or "a scalar", shapes[1]))
    if not np.isfinite(values).all() or positive and (values <= 0).any():
        raise ValueError("{} must be {}finite at every point".format(
            what, "positive and " if positive else ""))
    return np.broadcast_to(values, shapes[1])


def _centroids(mesh):
    """Element centroids, summed in coordinate order so that the vertex
    order leaves no round-off."""
    return np.sort(mesh.nodes[mesh.elements.T], axis=0).mean(axis=0)


def _element_alpha(mesh, problem):
    """Element centroids and the problem's alpha at them, one value per
    element, positive and finite (ValueError otherwise)."""
    centroids = _centroids(mesh)
    return centroids, _sampled(problem.alpha, centroids, "problem {!r}: "
                               "alpha".format(problem.name), positive=True)


def source_term(mesh, coeffs, source):
    """Scalar-equation load b2_l = -f(centroid) |K_l|."""
    return -_sampled(source, _centroids(mesh), "source") * coeffs.area


def dirichlet_term(mesh, boundary, g_dirichlet, family="bdm1"):
    """Flux-equation load for `family` on ``boundary.num_edges`` edges.

    For each Dirichlet edge, -int_E (phi . n_out) g_D for its basis
    functions; with the trace lambda_s / |E| the edge length cancels,
    leaving the moments I_s / |E| and I_t / |E| of g_D:

        b1[j]      -= s I_s / |E|,    b1[NE + j] -= s I_t / |E|

    (for "rt0" both land in row j and add up).
    """
    num_edges = boundary.num_edges
    b1 = np.zeros(flux_dof_count(family, num_edges))
    if boundary.num_dirichlet == 0:
        return b1
    moment_s, moment_t = _edge_moments(mesh.nodes, boundary.dirichlet,
                                       g_dirichlet, "dirichlet")
    s = boundary.sign_dirichlet
    col1, col2 = flux_columns(family, boundary.ind_dirichlet, num_edges)
    np.add.at(b1, col1, -s * moment_s)
    np.add.at(b1, col2, -s * moment_t)
    return b1


def neumann_lift(mesh, boundary, g_neumann, b1, b2):
    """Fix the Neumann flux coefficients of the family that `b1` fits on
    ``boundary.num_edges`` edges (ValueError if it fits none).

    Returns a :class:`LiftedSystem` whose ``sol`` holds the lifted
    coefficients (zeros elsewhere), whose ``free_dofs`` excludes the
    Neumann flux unknowns, and whose ``load`` is [b1; b2].
    """
    ndof = len(b1) + len(b2)
    num_edges = boundary.num_edges
    family = _family_of(len(b1), num_edges)
    sol = np.zeros(ndof)
    count = np.zeros(ndof, dtype=np.int64)

    if boundary.num_neumann:
        if g_neumann is None:
            raise ValueError(
                "mesh has Neumann edges but the problem supplies no "
                "Neumann data")
        nodes = mesh.nodes
        edges = boundary.neumann
        length = np.hypot(*(nodes[edges[:, 1]] - nodes[edges[:, 0]]).T)
        moment_s, moment_t = _edge_moments(nodes, edges, g_neumann,
                                           "neumann")
        # s (4 I_s - 2 I_t) and s (4 I_t - 2 I_s) with I = |E| moment
        s = boundary.sign_neumann * length
        cols = np.concatenate(
            flux_columns(family, boundary.ind_neumann, num_edges))
        vals = np.concatenate([s * (4 * moment_s - 2 * moment_t),
                               s * (4 * moment_t - 2 * moment_s)])
        # a tied rt0 unknown takes the mean of its two coefficients
        count = np.bincount(cols, minlength=ndof)
        np.add.at(sol, cols, vals / count[cols])

    return LiftedSystem(sol, np.flatnonzero(count == 0),
                        np.concatenate([b1, b2]))
