"""Edge-based H(div) basis functions on triangles.

Each global edge E with vertices z_s, z_t (s < t, the global
orientation) carries

* two linear flux functions spanning the quadratic-flux space of the
  element ("bdm1"):

      phi_1 = lambda_s rot(lambda_t),   phi_2 = -lambda_t rot(lambda_s),

  where rot(lambda_i) = (b_i, -a_i) / (2|K|) is the rotated barycentric
  gradient.  Their normal traces on E are lambda_s / |E| and
  lambda_t / |E| with respect to the global edge normal, and both
  vanish on the other two edges of the element;

* one constant-normal-trace function ("rt0"):

      phi = lambda_s rot(lambda_t) - lambda_t rot(lambda_s) = phi_1 + phi_2,

  whose normal trace on E is 1 / |E|.

The same functions restricted to both elements sharing E have matching
normal traces, so coefficient vectors indexed by global edges describe
H(div)-conforming fields.

Assembly and flux evaluation read the bdm1 pair from one table
(:func:`flux_functions`); rt0 ties both functions of an edge to one
unknown (:func:`flux_columns`), and duplicate summation yields P^T B P,
C P and P^T b1 for P = [I; I].  :func:`eval_basis` and
:func:`divergence` spell both families out as a reference for tests.
"""

import numpy as np

from .mesh import LOCAL_EDGES, MeshTopologyError

__all__ = [
    "FAMILIES",
    "OrientedEdgeBasis",
    "resolve_orientation",
    "flux_functions",
    "flux_dof_count",
    "functions_per_edge",
    "flux_columns",
    "local_columns",
    "eval_basis",
    "normal_trace",
    "divergence",
]

#: Families the assembly understands.
FAMILIES = ("bdm1", "rt0")


def functions_per_edge(family):
    """Number of flux basis functions attached to each edge."""
    if family == "bdm1":
        return 2
    if family == "rt0":
        return 1
    raise ValueError("unknown element family {!r}".format(family))


def flux_columns(family, edges, num_edges):
    """Flux-vector columns of the two bdm1 functions of `edges`: j and
    NE + j for "bdm1", j for both in "rt0"."""
    return edges, edges + (functions_per_edge(family) - 1) * num_edges


def local_columns(family, topo):
    """Flux column and orientation sign of every element's local
    unknowns, (NT, k) arrays each: phi_1 of slots 0-2, then phi_2, for
    "bdm1" (k = 6); one tied unknown per slot for "rt0" (k = 3)."""
    k = functions_per_edge(family)
    columns = flux_columns(family, topo.elem_to_edge, topo.num_edges)
    return np.concatenate(columns[:k], axis=1), np.tile(topo.sign_edge, k)


def flux_dof_count(family, num_edges):
    """Total number of flux unknowns for a mesh with `num_edges` edges."""
    return functions_per_edge(family) * num_edges


class OrientedEdgeBasis:
    """Barycentric coefficients gathered per element edge slot, with the
    slot's two vertices put into global edge order.

    For element t and local edge i, (i1, i2)[t, i] are the local vertex
    indices (0..2) of the edge's global start and end vertex, and
    a1, b1, a2, b2 the corresponding gradient coefficients.  When
    sign_edge is +1 the local counterclockwise direction already is the
    global one; when it is -1 the two vertices are swapped here.
    """

    def __init__(self, i1, i2, a1, b1, a2, b2, elem_to_edge, sign_edge,
                 area, num_edges):
        self.i1 = i1
        self.i2 = i2
        self.a1 = a1
        self.b1 = b1
        self.a2 = a2
        self.b2 = b2
        self.elem_to_edge = elem_to_edge
        self.sign_edge = sign_edge
        self.area = area
        self.num_edges = num_edges


def resolve_orientation(topo, coeffs):
    """Build the :class:`OrientedEdgeBasis` tables for a whole mesh."""
    nt = topo.elem_to_edge.shape[0]
    if coeffs.area.shape[0] != nt:
        raise MeshTopologyError(
            "coefficients for {} elements, edge topology for {}; were they "
            "built for another mesh?".format(coeffs.area.shape[0], nt))
    ii1 = np.broadcast_to(LOCAL_EDGES[:, 0], (nt, 3))
    ii2 = np.broadcast_to(LOCAL_EDGES[:, 1], (nt, 3))
    ascending = topo.sign_edge > 0
    i1 = np.where(ascending, ii1, ii2)
    i2 = np.where(ascending, ii2, ii1)
    a1 = np.take_along_axis(coeffs.a, i1, axis=1)
    b1 = np.take_along_axis(coeffs.b, i1, axis=1)
    a2 = np.take_along_axis(coeffs.a, i2, axis=1)
    b2 = np.take_along_axis(coeffs.b, i2, axis=1)
    return OrientedEdgeBasis(i1, i2, a1, b1, a2, b2, topo.elem_to_edge,
                             topo.sign_edge, coeffs.area, topo.num_edges)


def flux_functions(oriented):
    """phi_1 and phi_2 of every edge slot as (p, a, b) triples of (NT, 3)
    arrays, each meaning lambda_p (b, -a) / (2|K|); phi_2's sign is
    folded into its a and b."""
    o = oriented
    return (o.i1, o.a2, o.b2), (o.i2, -o.a1, -o.b1)


def _check_barycentric(w):
    w = np.asarray(w, dtype=float)
    if w.shape != (3,):
        raise ValueError("barycentric point must have three coordinates")
    if (w < -1e-12).any() or w.sum() > 1 + 1e-12:
        raise ValueError(
            "barycentric point {} lies outside the reference simplex".format(w))
    return w


def eval_basis(oriented, element, slot, w, family="bdm1"):
    """Evaluate the flux basis functions of one edge slot.

    Parameters
    ----------
    element, slot : int
        Element index and local edge index (0..2).
    w : (3,) array
        Barycentric coordinates of the evaluation point.
    family : {"bdm1", "rt0"}

    Returns
    -------
    (k, 2) float array
        Cartesian values of the k basis functions of the slot
        (k = 2 for "bdm1", 1 for "rt0").
    """
    w = _check_barycentric(w)
    i1 = oriented.i1[element, slot]
    i2 = oriented.i2[element, slot]
    inv2a = 1.0 / (2 * oriented.area[element])
    rot1 = np.array([oriented.b1[element, slot],
                     -oriented.a1[element, slot]]) * inv2a
    rot2 = np.array([oriented.b2[element, slot],
                     -oriented.a2[element, slot]]) * inv2a
    if family == "bdm1":
        return np.array([w[i1] * rot2, -w[i2] * rot1])
    if family == "rt0":
        return np.array([w[i1] * rot2 - w[i2] * rot1])
    raise ValueError("unknown element family {!r}".format(family))


def normal_trace(mesh, oriented, element, slot, edge_slot, t, family="bdm1"):
    """Normal trace of a slot's basis functions on one element edge.

    The trace is taken against the *global* normal of the edge in slot
    `edge_slot`, at the point that divides the edge at parameter
    t in [0, 1] measured from its global start vertex.  Evaluating a
    slot on its own edge recovers the closed-form traces from the
    module docstring; on the other two edges the trace vanishes.

    Returns
    -------
    (k,) float array
    """
    if not 0 <= t <= 1:
        raise ValueError("edge parameter must lie in [0, 1]")
    j1 = oriented.i1[element, edge_slot]
    j2 = oriented.i2[element, edge_slot]
    w = np.zeros(3)
    w[j1] = 1 - t
    w[j2] = t
    verts = mesh.elements[element]
    d = mesh.nodes[verts[j2]] - mesh.nodes[verts[j1]]
    normal = np.array([d[1], -d[0]]) / np.hypot(d[0], d[1])
    return eval_basis(oriented, element, slot, w, family) @ normal


def divergence(oriented, element, slot, family="bdm1"):
    """Divergence of the slot's basis functions (a single constant).

    Both "bdm1" functions of a slot have divergence s / (2|K|) with
    s the slot's sign_edge value; the "rt0" function, being their sum,
    has divergence s / |K|.
    """
    s = oriented.sign_edge[element, slot]
    if family == "bdm1":
        return s / (2 * oriented.area[element])
    if family == "rt0":
        return s / oriented.area[element]
    raise ValueError("unknown element family {!r}".format(family))
