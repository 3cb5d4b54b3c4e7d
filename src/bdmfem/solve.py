"""Reduced saddle-point solve and the end-to-end problem driver.

The assembled system is symmetric indefinite with an exactly zero
scalar-scalar block; after removing the lifted Neumann unknowns the
remaining square submatrix is extracted explicitly and solved either by
a direct sparse factorization (default) or by MINRES with a diagonal
preconditioner (reciprocal flux-mass diagonal, identity on the scalar
block).  Either way the relative residual is checked against the
requested tolerance.
"""

import time

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import assemble_divergence, assemble_mass, assemble_system
from .basis import flux_dof_count, functions_per_edge
from .bc import dirichlet_term, neumann_lift, source_term
from .geometry import barycentric_gradients
from .mesh import MeshError, build_edge_topology, classify_boundary, validate_mesh

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
    residual : float
        Relative residual of the reduced system.
    method : str
        "direct" or "minres".
    solve_time : float
        Wall-clock seconds spent in :func:`solve_reduced`.
    num_free : int
        Number of unknowns actually solved for.
    """

    def __init__(self, sigma, u, family, residual, method, solve_time,
                 num_free):
        self.sigma = sigma
        self.u = u
        self.family = family
        self.residual = residual
        self.method = method
        self.solve_time = solve_time
        self.num_free = num_free

    @property
    def num_dof(self):
        return self.sigma.size + self.u.size


def solve_reduced(system, lifted, num_elements, family="bdm1",
                  method="direct", tol=1e-10):
    """Solve the reduced system and assemble the full solution vector.

    Raises
    ------
    SolverError
        On a singular factorization, a non-converged iteration, or a
        relative residual above `tol`.
    """
    start = time.perf_counter()
    free = lifted.free_dofs
    reduced = system[free][:, free].tocsc()
    rhs = lifted.rhs[free]

    zero_diag = int(np.count_nonzero(reduced.diagonal() == 0))
    if zero_diag != num_elements:
        raise SolverError(
            "reduced matrix has {} zero diagonal entries, expected the "
            "{} scalar-block entries; flux mass diagonal degenerate".format(
                zero_diag, num_elements))

    if method == "direct":
        try:
            x = spla.splu(reduced).solve(rhs)
        except RuntimeError as exc:  # SuperLU signals exact singularity
            raise SolverError("direct factorization failed: {}".format(exc))
    elif method == "minres":
        # reciprocal flux-mass diagonal; the scalar block (zero diagonal)
        # is preconditioned by the identity
        scale = reduced.diagonal()
        scale = np.where(scale > 0, scale, 1.0)
        precond = spla.LinearOperator(reduced.shape,
                                      matvec=lambda r: r / scale)
        # minres tests the preconditioned residual, which can sit above
        # the true relative residual; tighten and warm-restart until the
        # honest check below would pass
        norm_rhs = np.linalg.norm(rhs)
        x = None
        inner = tol / 100
        for _ in range(3):
            x, info = spla.minres(reduced, rhs, x0=x, M=precond,
                                  rtol=inner,
                                  maxiter=20 * reduced.shape[0])
            if info != 0:
                raise SolverError(
                    "minres did not converge (info={})".format(info))
            achieved = np.linalg.norm(reduced @ x - rhs)
            if norm_rhs > 0:
                achieved /= norm_rhs
            if achieved <= tol:
                break
            inner /= 100
    else:
        raise ValueError("unknown solver method {!r}".format(method))

    if not np.isfinite(x).all():
        raise SolverError("solution contains non-finite entries")
    norm_rhs = np.linalg.norm(rhs)
    residual = np.linalg.norm(reduced @ x - rhs)
    if norm_rhs > 0:
        residual /= norm_rhs
    if residual > tol:
        raise SolverError(
            "relative residual {:.3e} above tolerance {:.1e}; system "
            "singular or severely ill-conditioned".format(residual, tol))

    sol = lifted.sol.copy()
    sol[free] = x
    nf = sol.size - num_elements
    elapsed = time.perf_counter() - start
    return MixedSolution(sol[:nf], sol[nf:], family, residual, method,
                         elapsed, free.size)


def solve_problem(mesh, problem, family="bdm1", method="direct", tol=1e-10,
                  topo=None, coeffs=None):
    """Validate a mesh, then assemble and solve a diffusion problem on it.

    Parameters
    ----------
    mesh : Mesh
    problem : ProblemDefinition
        Supplies alpha, the source and the boundary data.
    family : {"bdm1", "rt0"}
    method : {"direct", "minres"}
    topo, coeffs : optional
        Precomputed edge topology and barycentric coefficients; both
        are derived from the mesh when omitted.

    Returns
    -------
    MixedSolution
    """
    violations = validate_mesh(mesh)
    if violations:
        raise MeshError("invalid mesh: " + "; ".join(violations))
    if topo is None:
        topo = build_edge_topology(mesh)
    if coeffs is None:
        coeffs = barycentric_gradients(mesh)
    boundary = classify_boundary(mesh, topo)

    centroids = mesh.nodes[mesh.elements].mean(axis=1)
    alpha = np.asarray(problem.alpha(centroids), dtype=float)
    if not (np.isfinite(alpha).all() and (alpha > 0).all()):
        raise ValueError(
            "problem {!r}: alpha must be positive and finite on every "
            "element".format(problem.name))

    mass = assemble_mass(topo, coeffs, 1.0 / alpha, family)
    div = assemble_divergence(topo, family)
    system = assemble_system(mass, div)

    b1 = dirichlet_term(mesh, boundary, problem.dirichlet, topo.num_edges,
                        family)
    b2 = source_term(mesh, coeffs, problem.source)
    lifted = neumann_lift(mesh, boundary, problem.neumann, system, b1, b2,
                          family)
    expected_free = (flux_dof_count(family, topo.num_edges)
                     + mesh.num_elements
                     - functions_fixed(boundary, family))
    if lifted.free_dofs.size != expected_free:
        raise SolverError(
            "free unknown count {} does not match {}".format(
                lifted.free_dofs.size, expected_free))
    return solve_reduced(system, lifted, mesh.num_elements, family, method,
                         tol)


def functions_fixed(boundary, family="bdm1"):
    """Number of flux unknowns pinned by the Neumann lift."""
    return boundary.num_neumann * functions_per_edge(family)
