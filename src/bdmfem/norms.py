"""Triangle quadrature, discrete flux evaluation and error norms.

Errors are measured in the weighted L2 norms

    err_sigma^2 = sum_K alpha_K^-1 int_K |sigma - sigma_h|^2,
    err_u^2     = sum_K int_K (u - u_h)^2,

with a six-point, degree-4 triangle rule for the integrals.  When a
problem records the exact values of (alpha^-1 sigma, sigma) and (u, u)
the squared errors are expanded as exact_norm - 2 cross + discrete,
where the purely discrete terms (u_h, u_h) and the flux products are
exact for the rule; the expansion costs one field evaluation less per
point but loses accuracy to cancellation once the error drops toward
sqrt(eps).  Without recorded norms the difference is integrated
directly, which stays accurate down to round-off.

The expansion stays because on the paper example |sigma - sigma_h|^2
has degree 6: on its base mesh the direct path gives err_sigma =
1.70592e-01, the expansion 1.69684e-01, the reference 1.6968e-01 (held
to 1e-3 relative by acceptance criterion 2).
"""

from dataclasses import dataclass, field

import numpy as np

from .basis import (flux_columns, flux_dof_count, flux_functions,
                    resolve_orientation)
from .geometry import barycentric_gradients, edge_geometry
from .mesh import build_edge_topology, uniform_refine
from .solve import solve_problem

__all__ = [
    "TriangleQuadrature",
    "TRI_QUADRATURE_DEGREE4",
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
        return np.einsum("qi,tid->qtd", self.barycentric, tri)


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


def eval_sigma_h(flux, oriented, lam, family="bdm1", elements=None):
    """Evaluate the discrete flux at one barycentric point per element.

    Parameters
    ----------
    flux : float array
        Flux coefficient vector (2 NE or NE entries).
    oriented : OrientedEdgeBasis
    lam : (n, 3) float array
        Barycentric coordinates, one row per evaluated element.
    elements : (n,) int array, optional
        Elements to evaluate in; all of them (in order) when omitted.

    Returns
    -------
    (n, 2) float array
    """
    if elements is None:
        elements = slice(None)
    columns = flux_columns(family, oriented.elem_to_edge[elements],
                           oriented.num_edges)
    inv2a = 1.0 / (2 * oriented.area[elements])
    rows = np.arange(lam.shape[0])

    out = np.zeros((lam.shape[0], 2))
    for col, (p, a, b) in zip(columns, flux_functions(oriented)):
        p, a, b = p[elements], a[elements], b[elements]
        for i in range(3):
            w = flux[col[:, i]] * lam[rows, p[:, i]] * inv2a
            out[:, 0] += w * b[:, i]
            out[:, 1] -= w * a[:, i]
    return out


def compute_errors(mesh, topo, coeffs, solution, problem, method=None):
    """Weighted L2 errors of a mixed solution against the exact fields.

    Parameters
    ----------
    method : {None, "expansion", "direct"}
        None picks "expansion" when the problem records exact norms and
        "direct" otherwise.

    Returns
    -------
    (err_sigma, err_u, method_used)
    """
    if problem.exact_sigma is None or problem.exact_u is None:
        raise ValueError(
            "problem {!r} has no exact solution to compare "
            "against".format(problem.name))
    if method is None:
        method = "expansion" if problem.has_exact_norms else "direct"
    if method == "expansion" and not problem.has_exact_norms:
        raise ValueError(
            "problem {!r} records no exact norms; use the direct "
            "method".format(problem.name))
    if method not in ("expansion", "direct"):
        raise ValueError("unknown error method {!r}".format(method))

    oriented = resolve_orientation(topo, coeffs)
    area = coeffs.area
    centroids = mesh.nodes[mesh.elements].mean(axis=1)
    inv_alpha = 1.0 / np.asarray(problem.alpha(centroids), dtype=float)
    u_h = solution.u
    lam_all = TRI_QUADRATURE_DEGREE4.barycentric
    points = TRI_QUADRATURE_DEGREE4.physical_points(mesh)

    nt = mesh.num_elements
    cross_s = np.zeros(nt)   # int_K sigma . sigma_h
    disc_s = np.zeros(nt)    # int_K sigma_h . sigma_h
    int_u = np.zeros(nt)     # int_K u
    diff_s = np.zeros(nt)    # int_K |sigma - sigma_h|^2
    diff_u = np.zeros(nt)    # int_K (u - u_h)^2
    for q, w in enumerate(TRI_QUADRATURE_DEGREE4.weights):
        p = points[q]
        lam = np.broadcast_to(lam_all[q], (nt, 3))
        sig_h = eval_sigma_h(solution.sigma, oriented, lam, solution.family)
        sig = np.asarray(problem.exact_sigma(p), dtype=float)
        if method == "expansion":
            cross_s += w * np.einsum("td,td->t", sig, sig_h)
            disc_s += w * np.einsum("td,td->t", sig_h, sig_h)
            int_u += w * np.asarray(problem.exact_u(p), dtype=float)
        else:
            d = sig - sig_h
            diff_s += w * np.einsum("td,td->t", d, d)
            du = np.asarray(problem.exact_u(p), dtype=float) - u_h
            diff_u += w * du * du

    if method == "expansion":
        err2_s = (problem.flux_norm
                  - 2 * np.dot(inv_alpha * area, cross_s)
                  + np.dot(inv_alpha * area, disc_s))
        err2_u = (problem.scalar_norm
                  - 2 * np.dot(u_h * area, int_u)
                  + np.dot(u_h * u_h, area))
    else:
        err2_s = np.dot(inv_alpha * area, diff_s)
        err2_u = np.dot(area, diff_u)
    return np.sqrt(abs(err2_s)), np.sqrt(abs(err2_u)), method


@dataclass
class ErrorRow:
    """One refinement level of a convergence study."""
    level: int
    h: float
    num_elements: int
    num_dof: int
    err_sigma: float
    err_u: float
    error_method: str
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
    mesh; every refinement halves h.  Requires `levels` >= 1.
    """
    if levels < 1:
        raise ValueError("levels must be at least 1")
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
        err_sigma, err_u, err_method = compute_errors(
            mesh, topo, coeffs, solution, problem)
        report.rows.append(ErrorRow(
            level=level,
            h=h,
            num_elements=mesh.num_elements,
            num_dof=flux_dof_count(family, topo.num_edges) + mesh.num_elements,
            err_sigma=err_sigma,
            err_u=err_u,
            error_method=err_method,
            residual=solution.residual,
        ))
        h /= 2
        if level + 1 < levels:
            mesh = uniform_refine(mesh)
    return report
