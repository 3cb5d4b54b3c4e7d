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

Assembly and flux evaluation read the bdm1 functions of every element
from one table (:class:`OrientedEdgeBasis`, in :func:`local_columns`
order); rt0 ties both functions of an edge to one unknown
(:func:`flux_columns`), and duplicate summation yields P^T B P, C P and
P^T b1 for P = [I; I].  :func:`eval_basis` spells both families out
point by point; a flux vector's length fixes its family.
"""

import numpy as np

from .mesh import LOCAL_EDGES, MeshTopologyError

__all__ = [
    "FAMILIES",
    "OrientedEdgeBasis",
    "resolve_orientation",
    "flux_dof_count",
    "functions_per_edge",
    "flux_columns",
    "local_columns",
    "eval_basis",
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


def _family_of(num_flux, num_edges):
    """The family with `num_flux` flux unknowns on `num_edges` edges."""
    for family in FAMILIES:
        if flux_dof_count(family, num_edges) == num_flux:
            return family
    raise ValueError("{} flux unknowns fit no family on {} edges".format(
        num_flux, num_edges))


class OrientedEdgeBasis:
    """The six bdm1 functions of every element as one table.

    p, a and b are (NT, 6) arrays in :func:`local_columns` order, phi_1
    of slots 0-2 and then phi_2: function j of element t is
    lambda_p (b, -a) / (2|K|) for the local vertex p = p[t, j], with
    (a, b) the gradient coefficients of the edge's other vertex and
    phi_2's sign folded in.  Slot i runs from local vertex p[t, i] to
    p[t, 3 + i] in global edge order.  elem_to_edge, sign_edge, area
    and num_edges come from the topology and coefficients.
    """

    def __init__(self, p, a, b, elem_to_edge, sign_edge, area, num_edges):
        self.p = p
        self.a = a
        self.b = b
        self.elem_to_edge = elem_to_edge
        self.sign_edge = sign_edge
        self.area = area
        self.num_edges = num_edges


def resolve_orientation(topo, coeffs):
    """Build the :class:`OrientedEdgeBasis` table for a whole mesh."""
    nt = topo.elem_to_edge.shape[0]
    if coeffs.area.shape[0] != nt:
        raise MeshTopologyError(
            "coefficients for {} elements, edge topology for {}; were they "
            "built for another mesh?".format(coeffs.area.shape[0], nt))
    ascending = topo.sign_edge > 0
    lo, hi = LOCAL_EDGES[:, 0], LOCAL_EDGES[:, 1]
    p = np.concatenate([np.where(ascending, lo, hi),
                        np.where(ascending, hi, lo)], axis=1)

    def at_other(c):
        """c of the other vertex of each function's edge, phi_2's negated."""
        at_lo, at_hi = c[:, lo], c[:, hi]
        return np.concatenate([np.where(ascending, at_hi, at_lo),
                               -np.where(ascending, at_lo, at_hi)], axis=1)

    return OrientedEdgeBasis(p, at_other(coeffs.a), at_other(coeffs.b),
                             topo.elem_to_edge, topo.sign_edge, coeffs.area,
                             topo.num_edges)


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
        Element index (0..NT-1) and local edge index (0..2).
    w : (3,) array
        Barycentric coordinates of the evaluation point.
    family : {"bdm1", "rt0"}

    Returns
    -------
    (k, 2) float array
        Cartesian values of the k basis functions of the slot
        (k = 2 for "bdm1", 1 for "rt0").
    """
    nt = oriented.area.shape[0]
    if not (0 <= element < nt and 0 <= slot <= 2):
        raise ValueError("element {} / slot {} outside 0..{} / 0..2".format(
            element, slot, nt - 1))
    w = _check_barycentric(w)
    pair = [slot, 3 + slot]
    inv2a = 1.0 / (2 * oriented.area[element])
    rot = np.column_stack([oriented.b[element, pair],
                           -oriented.a[element, pair]]) * inv2a
    values = w[oriented.p[element, pair], None] * rot
    if family == "bdm1":
        return values
    if family == "rt0":
        return values.sum(axis=0, keepdims=True)
    raise ValueError("unknown element family {!r}".format(family))
