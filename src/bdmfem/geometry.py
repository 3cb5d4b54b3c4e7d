"""Per-element barycentric coordinate data and per-edge geometry.

On a triangle with counterclockwise vertices z_1, z_2, z_3 the
barycentric coordinate of vertex i is the affine function

    lambda_i(x, y) = (a_i x + b_i y + c_i) / (2 |K|),

with a_i = y_{i+1} - y_{i+2} and b_i = x_{i+2} - x_{i+1} (indices
cyclic).  Its gradient is (a_i, b_i) / (2|K|) and the 90-degree
clockwise rotation of the gradient is (b_i, -a_i) / (2|K|).  The
constants c_i are never needed: at a point p, lambda_i(p) is evaluated
from the first vertex as delta_i1 + (a_i, b_i) . (p - z_1) / (2|K|).
"""

import numpy as np

from .mesh import MeshTopologyError

__all__ = [
    "DegenerateElementError",
    "BarycentricCoefficients",
    "EdgeGeometry",
    "barycentric_gradients",
    "check_coefficients",
    "edge_geometry",
    "barycentric_coordinates",
]


class DegenerateElementError(ValueError):
    """An element with non-positive area or an edge of zero length."""


class BarycentricCoefficients:
    """Coefficients a, b and areas for all elements of a mesh.

    Attributes
    ----------
    a, b : (NT, 3) float arrays
        Gradient coefficients per local vertex, see module docstring.
    area : (NT,) float array
        Element areas (all positive).
    """

    def __init__(self, a, b, area):
        self.a = a
        self.b = b
        self.area = area
        for arr in (a, b, area):
            arr.setflags(write=False)


class EdgeGeometry:
    """Lengths and unit normals of the global edges.

    The normal is the edge vector d, start to end vertex in global order,
    rotated clockwise: n = (d_y, -d_x) / |E| points out of the minus-side
    element K-.
    """

    def __init__(self, length, normal):
        self.length = length
        self.normal = normal
        for arr in (length, normal):
            arr.setflags(write=False)


def _gradient_coefficients(mesh):
    """a_i = y_{i+1} - y_{i+2} and b_i = x_{i+2} - x_{i+1}, (NT, 3) each."""
    x = mesh.nodes[mesh.elements, 0]
    y = mesh.nodes[mesh.elements, 1]
    nxt = [1, 2, 0]
    prv = [2, 0, 1]
    return y[:, nxt] - y[:, prv], x[:, prv] - x[:, nxt]


def barycentric_gradients(mesh):
    """Compute :class:`BarycentricCoefficients` for every element.

    Raises
    ------
    DegenerateElementError
        If any element's area is not positive and finite (a
        non-finite vertex gives a NaN or infinite area).
    """
    with np.errstate(invalid="ignore", over="ignore"):
        a, b = _gradient_coefficients(mesh)
        area = 0.5 * (a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1])
    bad = np.flatnonzero(~(np.isfinite(area) & (area > 0)))
    if bad.size:
        raise DegenerateElementError(
            "element {}: signed area {:g} is not positive and "
            "finite".format(bad[0], area[bad[0]]))
    return BarycentricCoefficients(a, b, area)


def check_coefficients(mesh, coeffs):
    """Refuse coefficients that were not computed from `mesh`.

    a and b are plain differences of vertex coordinates, so this mesh's
    own coefficients reproduce them exactly; those of another mesh, even
    one with as many elements and the same areas, do not.

    Raises
    ------
    MeshTopologyError
        If coeffs.a or coeffs.b differ from this mesh's in any entry.
    """
    a, b = _gradient_coefficients(mesh)
    if not (np.array_equal(coeffs.a, a) and np.array_equal(coeffs.b, b)):
        raise MeshTopologyError(
            "barycentric coefficients do not match the vertex coordinates "
            "of this mesh ({} elements); were they built for another "
            "mesh?".format(mesh.num_elements))


def edge_geometry(mesh, topo):
    """Compute :class:`EdgeGeometry` for every global edge.

    Raises
    ------
    DegenerateElementError
        If any edge has zero length.
    """
    d = mesh.nodes[topo.edges[:, 1]] - mesh.nodes[topo.edges[:, 0]]
    length = np.hypot(d[:, 0], d[:, 1])
    bad = np.flatnonzero(length == 0)
    if bad.size:
        raise DegenerateElementError(
            "edge ({}, {}): zero length".format(*topo.edges[bad[0]]))
    return EdgeGeometry(length,
                        np.column_stack([d[:, 1], -d[:, 0]]) / length[:, None])


def _element_indices(elements, nt):
    """`elements` as a 1-D integer array of indices 0..nt-1, else
    ValueError: a float, complex or object array would fail in numpy's
    indexing, a boolean one would be read as a mask and a negative index
    would wrap to another element.  An empty sequence selects nothing."""
    elements = np.asarray(elements)
    if elements.ndim != 1:
        raise ValueError("elements of shape {} given, need (n,)"
                         .format(elements.shape))
    if elements.size == 0:
        return elements.astype(np.intp)
    if elements.dtype.kind not in "iu":
        raise ValueError("elements of dtype {} given, need integers"
                         .format(elements.dtype))
    bad = np.flatnonzero((elements < 0) | (elements >= nt))
    if bad.size:
        raise ValueError("element {} outside 0..{}".format(
            elements[bad[0]], nt - 1))
    return elements


def barycentric_coordinates(mesh, coeffs, elements, points):
    """Barycentric coordinates of physical points.

    Parameters
    ----------
    elements : (n,) int array
        Element index (0..NT-1) for each query point, else ValueError.
    points : (n, 2) float array
        Physical coordinates, one per element, else ValueError.

    Returns
    -------
    (n, 3) float array
        lambda_i(p) for each point; the rows sum to 1 and are all
        nonnegative exactly when the point lies inside its element.
    """
    elements = np.asarray(elements)
    points = np.asarray(points, dtype=float)
    if elements.ndim != 1 or points.shape != elements.shape + (2,):
        raise ValueError("points of shape {} given for elements of shape {}"
                         .format(points.shape, elements.shape))
    elements = _element_indices(elements, mesh.num_elements)
    d = points - mesh.nodes[mesh.elements[elements, 0]]
    lam = ((coeffs.a[elements] * d[:, :1] + coeffs.b[elements] * d[:, 1:])
           / (2 * coeffs.area[elements])[:, None])
    lam[:, 0] += 1
    return lam
