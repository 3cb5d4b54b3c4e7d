"""Triangle quadrature, discrete flux evaluation and error norms.

Errors are measured in the weighted L2 norms

    err_sigma^2 = sum_K alpha_K^-1 int_K |sigma - sigma_h|^2,
    err_u^2     = sum_K int_K (u - u_h)^2,

by integrating the pointwise differences with the twelve-point,
degree-6 rule of Dunavant (1985).  That is exact for |sigma - sigma_h|^2
whenever sigma is cubic on each element, as on the paper example, and
stays accurate down to round-off on fine meshes.
"""

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .basis import (_family_of, _function_values, flux_columns,
                    flux_dof_count, resolve_orientation)
from .bc import _element_alpha, _sampled
from .geometry import (_element_indices, barycentric_gradients,
                       check_coefficients, edge_geometry)
from .mesh import (build_edge_topology, check_topology, require_valid,
                   uniform_refine)
from .solve import solve_problem

__all__ = [
    "TriangleQuadrature",
    "TRI_QUADRATURE_DEGREE4",
    "TRI_QUADRATURE_DEGREE6",
    "eval_sigma_h",
    "compute_errors",
    "ErrorRow",
    "ErrorReport",
    "convergence_study",
]


class TriangleQuadrature:
    """Quadrature on the reference triangle in barycentric form.

    `points` holds the (lambda_2, lambda_3) coordinates of each node
    (lambda_1 = 1 - lambda_2 - lambda_3); `weights` sum to one and are
    taken relative to the triangle area, so
    int_K g ~= |K| sum_q w_q g(p_q).
    """

    def __init__(self, points, weights):
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        if self.points.shape != (self.weights.size, 2):
            raise ValueError("points must be (n, 2) matching n weights")
        if (self.weights <= 0).any():
            raise ValueError("quadrature weights must be positive")

    @property
    def barycentric(self):
        """All three coordinates per node, shape (n, 3)."""
        lam1 = 1 - self.points.sum(axis=1)
        return np.column_stack([lam1, self.points])

    def physical_points(self, mesh):
        """Map the nodes into every element; shape (n_q, NT, 2)."""
        tri = mesh.nodes[mesh.elements]
        return np.tensordot(self.barycentric, tri, axes=([1], [1]))


#: Six-point rule, exact through degree 4.
TRI_QUADRATURE_DEGREE4 = TriangleQuadrature(
    points=np.array([
        [0.44594849091597, 0.44594849091597],
        [0.44594849091597, 0.10810301816807],
        [0.10810301816807, 0.44594849091597],
        [0.09157621350977, 0.09157621350977],
        [0.09157621350977, 0.81684757298046],
        [0.81684757298046, 0.09157621350977],
    ]),
    weights=np.array([
        0.22338158967801, 0.22338158967801, 0.22338158967801,
        0.10995174365532, 0.10995174365532, 0.10995174365532,
    ]),
)

#: Twelve-point rule of Dunavant (1985), exact through degree 6.
TRI_QUADRATURE_DEGREE6 = TriangleQuadrature(
    points=np.array([
        [0.24928674517091042, 0.24928674517091042],
        [0.24928674517091042, 0.50142650965817916],
        [0.50142650965817916, 0.24928674517091042],
        [0.063089014491502228, 0.063089014491502228],
        [0.063089014491502228, 0.87382197101699554],
        [0.87382197101699554, 0.063089014491502228],
        [0.053145049844816947, 0.31035245103378441],
        [0.31035245103378441, 0.053145049844816947],
        [0.053145049844816947, 0.63650249912139865],
        [0.63650249912139865, 0.053145049844816947],
        [0.31035245103378441, 0.63650249912139865],
        [0.63650249912139865, 0.31035245103378441],
    ]),
    weights=np.array([
        0.11678627572637937, 0.11678627572637937, 0.11678627572637937,
        0.050844906370206817, 0.050844906370206817, 0.050844906370206817,
        0.082851075618373575, 0.082851075618373575, 0.082851075618373575,
        0.082851075618373575, 0.082851075618373575, 0.082851075618373575,
    ]),
)


def eval_sigma_h(flux, oriented, lam, elements=None):
    """Evaluate the discrete flux at one barycentric point per element.

    Parameters
    ----------
    flux : float array
        Flux coefficients: 2 NE for "bdm1", NE for "rt0", else ValueError.
    oriented : OrientedEdgeBasis
    lam : (n, 3) float array
        Barycentric coordinates, one row per evaluated element, else
        ValueError.
    elements : (n,) int array, optional
        Elements to evaluate in (0..NT-1, else ValueError); all of them
        (in order) when omitted.

    Returns
    -------
    (n, 2) float array
    """
    flux = np.asarray(flux, dtype=float)
    lam = np.asarray(lam, dtype=float)
    family = _family_of(flux.size, oriented.num_edges)
    if elements is None:
        elements = slice(None)
    else:
        elements = _element_indices(elements, oriented.area.shape[0])
    edges = oriented.elem_to_edge[elements]
    if lam.shape != (edges.shape[0], 3):
        raise ValueError("lam of shape {} given, {} elements need ({}, 3)"
                         .format(lam.shape, edges.shape[0], edges.shape[0]))
    # rt0 lists each tied column twice, so the pair is summed
    columns = np.hstack(flux_columns(family, edges, oriented.num_edges))
    return np.einsum("nj,njd->nd", flux[columns],
                     _function_values(oriented, elements, lam))


def compute_errors(mesh, topo, coeffs, solution, problem):
    """Weighted L2 errors of a mixed solution against the exact fields,
    integrated with `TRI_QUADRATURE_DEGREE6`.

    Returns
    -------
    (err_sigma, err_u, "direct")
        The third element is constant; it is kept so that callers
        unpacking three values keep working.

    Raises
    ------
    MeshTopologyError
        If `topo` or `coeffs` were built for another mesh.
    ValueError
        If `solution` does not fit this mesh, or alpha, exact_u or
        exact_sigma break the contract stated in :mod:`bdmfem.problems`.
    """
    if not problem.has_exact_solution:
        raise ValueError(
            "problem {!r} has no exact solution to compare "
            "against".format(problem.name))
    check_topology(mesh, topo)
    check_coefficients(mesh, coeffs)
    counts = (flux_dof_count(solution.family, topo.num_edges),
              mesh.num_elements)
    if (solution.sigma.size, solution.u.size) != counts:
        raise ValueError("solution has {} flux and {} scalar values, this "
                         "mesh needs {} and {}".format(
                             solution.sigma.size, solution.u.size, *counts))

    oriented = resolve_orientation(topo, coeffs)
    inv_alpha = 1.0 / _element_alpha(mesh, problem)[1]
    quad = TRI_QUADRATURE_DEGREE6
    nt = mesh.num_elements

    # sigma_h is affine on every element, so its vertex values give it
    # at every node of the rule: (n_q, NT, 2)
    vertex = np.stack([
        eval_sigma_h(solution.sigma, oriented, np.broadcast_to(e, (nt, 3)))
        for e in np.eye(3)])
    sig_h = np.tensordot(quad.barycentric, vertex, axes=([1], [0]))
    points = quad.physical_points(mesh).reshape(-1, 2)
    name = "problem {!r}: ".format(problem.name)
    d = _sampled(problem.exact_sigma, points, name + "exact_sigma",
                 trailing=(2,)).reshape(sig_h.shape) - sig_h
    u = _sampled(problem.exact_u, points, name + "exact_u").reshape(-1, nt)
    err2_s = np.dot(inv_alpha * coeffs.area,
                    quad.weights @ np.einsum("qtd,qtd->qt", d, d))
    err2_u = np.dot(coeffs.area, quad.weights @ (u - solution.u) ** 2)
    return np.sqrt(err2_s), np.sqrt(err2_u), "direct"


@dataclass
class ErrorRow:
    """One refinement level of a convergence study."""
    level: int
    h: float
    num_elements: int
    num_dof: int
    err_sigma: float
    err_u: float
    residual: float


@dataclass
class ErrorReport:
    """Study results plus consecutive error ratios (None on row 0)."""
    problem: str
    family: str
    rows: list = field(default_factory=list)

    def ratios(self):
        out = []
        for k, row in enumerate(self.rows):
            if k == 0:
                out.append((None, None))
            else:
                prev = self.rows[k - 1]
                out.append((
                    prev.err_sigma / row.err_sigma if row.err_sigma else None,
                    prev.err_u / row.err_u if row.err_u else None))
        return out


def convergence_study(problem, base_mesh, levels, family="bdm1",
                      method="direct", tol=1e-10):
    """Solve on the base mesh and `levels` - 1 uniform refinements.

    The first row is assigned h equal to the longest edge of the base
    mesh; every refinement halves h.  Requires an integer `levels` >= 1
    (else ValueError).  An invalid base mesh raises :class:`MeshError`
    before any geometry is computed.
    """
    if (isinstance(levels, bool) or not isinstance(levels, Integral)
            or levels < 1):
        raise ValueError("levels {!r} must be an integer, at least 1"
                         .format(levels))
    require_valid(base_mesh)
    report = ErrorReport(problem=problem.name, family=family)
    mesh = base_mesh
    h = None
    for level in range(levels):
        topo = build_edge_topology(mesh)
        coeffs = barycentric_gradients(mesh)
        if h is None:
            h = edge_geometry(mesh, topo).length.max()
        solution = solve_problem(mesh, problem, family=family, method=method,
                                 tol=tol, topo=topo, coeffs=coeffs)
        err_sigma, err_u, _ = compute_errors(
            mesh, topo, coeffs, solution, problem)
        report.rows.append(ErrorRow(
            level=level,
            h=h,
            num_elements=mesh.num_elements,
            num_dof=solution.num_dof,
            err_sigma=err_sigma,
            err_u=err_u,
            residual=solution.residual,
        ))
        h /= 2
        if level + 1 < levels:
            mesh = uniform_refine(mesh)
    return report
