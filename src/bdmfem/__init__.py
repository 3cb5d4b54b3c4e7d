"""BDM1-P0 mixed finite elements for 2-D diffusion problems.

Solves -div(alpha grad u) = f on unstructured triangular meshes with
mixed Dirichlet/Neumann boundary conditions, approximating the flux
sigma = -alpha grad u with linear edge-based H(div) elements (two
unknowns per edge) and u with elementwise constants.  A lowest-order
constant-trace flux family ("rt0"), bdm1 with the two unknowns of each
edge tied into one, is available as an alternative.
"""

from .assembly import (assemble_divergence, assemble_mass, assemble_system,
                       write_matrix_market)
from .basis import (FAMILIES, OrientedEdgeBasis, divergence, eval_basis,
                    flux_dof_count, functions_per_edge, normal_trace,
                    resolve_orientation)
from .bc import (EDGE_GAUSS2_POSITIONS, EDGE_GAUSS2_WEIGHTS, LiftedSystem,
                 dirichlet_term, edge_moment_matrix, neumann_lift,
                 source_term)
from .geometry import (BarycentricCoefficients, DegenerateElementError,
                       EdgeGeometry, barycentric_coordinates,
                       barycentric_gradients, edge_geometry)
from .mesh import (BoundaryEdges, EdgeTopology, Mesh, MeshError,
                   MeshFormatError, MeshTopologyError, build_edge_topology,
                   classify_boundary, read_mesh, signed_areas,
                   uniform_refine, validate_mesh, write_mesh)
from .norms import (TRI_QUADRATURE_DEGREE4, TRI_QUADRATURE_DEGREE6,
                    ErrorReport, ErrorRow, TriangleQuadrature, compute_errors,
                    convergence_study, eval_sigma_h)
from .problems import (BUILTIN_MESHES, PROBLEMS, ProblemDefinition,
                       builtin_mesh, get_problem)
from .solve import MixedSolution, SolverError, solve_problem, solve_reduced

__version__ = "0.1.0"
