"""Right-hand side and boundary-condition handling.

The source enters through the scalar equations as
b2_l = -(f, 1)_{K_l}, integrated with the one-point centroid rule.
Dirichlet data g_D is natural for the mixed system and contributes
-int_E (phi . n) g_D per boundary basis function, integrated with
two-point Gauss.  Neumann data g_N is essential: the flux coefficients
on Neumann edges are fixed so that sigma_h . n equals the L2 projection
of g_N onto the edge's normal-trace space (linear per edge for "bdm1",
constant for "rt0"), the lifted contribution is moved to the right-hand
side, and those unknowns leave the system.

On an edge of length L with global endpoints z_s, z_t the edge mass
matrix of (lambda_s, lambda_t) is L/6 [[2, 1], [1, 2]]; inverting it
against the moments I_s = int_E g_N lambda_s and I_t = int_E g_N
lambda_t gives the projection coefficients d_s = (4 I_s - 2 I_t) / L
and d_t = (4 I_t - 2 I_s) / L, hence the lifted basis coefficients
s (4 I_s - 2 I_t) and s (4 I_t - 2 I_s) with s the owning element's
orientation sign (the 1/L of the normal trace cancels L).  An rt0
unknown, tied to both, takes their mean s (I_s + I_t) = s int_E g_N,
the projection onto constants.
"""

import numpy as np

from .basis import flux_columns, flux_dof_count, functions_per_edge

__all__ = [
    "LiftedSystem",
    "source_term",
    "dirichlet_term",
    "neumann_lift",
    "edge_moment_matrix",
]

_SQRT3 = np.sqrt(3.0)


class LiftedSystem:
    """Solution vector seeded with the lifted Neumann coefficients,
    the correspondingly corrected right-hand side, and the indices of
    the unknowns that remain free."""

    def __init__(self, sol, rhs, free_dofs):
        self.sol = sol
        self.rhs = rhs
        self.free_dofs = free_dofs


def edge_moment_matrix(length):
    """Edge mass matrix of (lambda_s, lambda_t) and its inverse.

    int_E lambda_p lambda_q ds = L (1 + delta_pq) / 6.  Used by tests
    to cross-check the projection coefficients in the module docstring.
    """
    m = length / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
    minv = 2.0 / length * np.array([[2.0, -1.0], [-1.0, 2.0]])
    return m, minv


def _gauss_points(nodes, edges):
    """Two-point Gauss nodes of each edge, from its global start."""
    n1 = nodes[edges[:, 0]]
    n2 = nodes[edges[:, 1]]
    offset = (n2 - n1) / (2 * _SQRT3)
    mid = (n1 + n2) / 2
    return mid - offset, mid + offset


def source_term(mesh, coeffs, source):
    """Scalar-equation load b2_l = -f(centroid) |K_l|."""
    centroids = mesh.nodes[mesh.elements].mean(axis=1)
    return -np.asarray(source(centroids), dtype=float) * coeffs.area


def dirichlet_term(mesh, boundary, g_dirichlet, num_edges, family="bdm1"):
    """Flux-equation load from Dirichlet data.

    For each Dirichlet edge, -int_E (phi . n_out) g_D for its basis
    functions by two-point Gauss; with the trace lambda_s / |E| the
    edge length cancels, leaving the plain weight combination

        b1[j]      -= s (g(p1) (1/4 + 1/(4 sqrt 3)) + g(p2) (1/4 - 1/(4 sqrt 3)))
        b1[NE + j] -= s (g(p1) (1/4 - 1/(4 sqrt 3)) + g(p2) (1/4 + 1/(4 sqrt 3)))

    (for "rt0" both land in row j and add up).
    """
    b1 = np.zeros(flux_dof_count(family, num_edges))
    if boundary.num_dirichlet == 0:
        return b1
    p1, p2 = _gauss_points(mesh.nodes, boundary.dirichlet)
    g1 = np.asarray(g_dirichlet(p1), dtype=float)
    g2 = np.asarray(g_dirichlet(p2), dtype=float)
    s = boundary.sign_dirichlet
    wp = 0.25 + 0.25 / _SQRT3
    wm = 0.25 - 0.25 / _SQRT3
    col1, col2 = flux_columns(family, boundary.ind_dirichlet, num_edges)
    np.add.at(b1, col1, -s * (g1 * wp + g2 * wm))
    np.add.at(b1, col2, -s * (g1 * wm + g2 * wp))
    return b1


def neumann_lift(mesh, boundary, g_neumann, system, b1, b2, family="bdm1"):
    """Fix the Neumann flux coefficients and reduce the load vector.

    Returns a :class:`LiftedSystem` whose ``sol`` holds the lifted
    coefficients (zeros elsewhere), whose ``rhs`` is
    [b1; b2] - system @ sol, and whose ``free_dofs`` excludes the
    Neumann flux unknowns.
    """
    ndof = system.shape[0]
    num_edges = len(b1) // functions_per_edge(family)
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
        p1, p2 = _gauss_points(nodes, edges)
        g1 = np.asarray(g_neumann(p1), dtype=float)
        g2 = np.asarray(g_neumann(p2), dtype=float)
        # moments of g_N against lambda_s and lambda_t by 2-point Gauss
        moment_s = length * (g1 * (1 + 1 / _SQRT3) + g2 * (1 - 1 / _SQRT3)) / 4
        moment_t = length * (g1 * (1 - 1 / _SQRT3) + g2 * (1 + 1 / _SQRT3)) / 4
        s = boundary.sign_neumann
        cols = np.concatenate(
            flux_columns(family, boundary.ind_neumann, num_edges))
        vals = np.concatenate([s * (4 * moment_s - 2 * moment_t),
                               s * (4 * moment_t - 2 * moment_s)])
        # a tied rt0 unknown takes the mean of its two coefficients
        count = np.bincount(cols, minlength=ndof)
        np.add.at(sol, cols, vals / count[cols])

    fixed = count > 0
    rhs = np.concatenate([b1, b2])
    if fixed.any():
        rhs = rhs - system @ sol
    return LiftedSystem(sol, rhs, np.flatnonzero(~fixed))
