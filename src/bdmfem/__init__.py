"""BDM1-P0 mixed finite elements for 2-D diffusion problems.

Solves -div(alpha grad u) = f on unstructured triangular meshes with
mixed Dirichlet/Neumann boundary conditions, approximating the flux
sigma = -alpha grad u with linear edge-based H(div) elements (two
unknowns per edge) and u with elementwise constants.  A lowest-order
constant-trace flux family ("rt0"), bdm1 with the two unknowns of each
edge tied into one, is available as an alternative.
"""

from importlib import import_module as _import_module

# submodule -> its public names, imported on use and never cached (PEP 562)
_EXPORTS = {
    "assembly": "assemble_divergence assemble_mass assemble_system "
                "write_matrix_market",
    "basis": "FAMILIES OrientedEdgeBasis eval_basis flux_dof_count "
             "functions_per_edge resolve_orientation",
    "bc": "EDGE_GAUSS2_POSITIONS EDGE_GAUSS2_WEIGHTS LiftedSystem "
          "dirichlet_term neumann_lift source_term",
    "geometry": "BarycentricCoefficients DegenerateElementError EdgeGeometry "
                "barycentric_coordinates barycentric_gradients edge_geometry",
    "mesh": "BoundaryEdges EdgeTopology Mesh MeshError MeshFormatError "
            "MeshTopologyError build_edge_topology classify_boundary "
            "read_mesh signed_areas uniform_refine validate_mesh write_mesh",
    "norms": "TRI_QUADRATURE_DEGREE4 TRI_QUADRATURE_DEGREE6 ErrorReport "
             "ErrorRow TriangleQuadrature compute_errors convergence_study "
             "eval_sigma_h",
    "problems": "BUILTIN_MESHES PROBLEMS ProblemDefinition builtin_mesh "
                "get_problem",
    "solve": "MixedSolution SolverError solve_problem solve_reduced",
}
_SOURCE = {n: m for m, names in _EXPORTS.items() for n in names.split()}
__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module("." + name, __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module("." + _SOURCE[name], __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
