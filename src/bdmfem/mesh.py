"""Triangular mesh data model: connectivity, edge topology, boundary
classification, validation, uniform refinement and text file I/O.

Vertex indices are 0-based everywhere in memory.  The text file format
(see :func:`read_mesh`) stores them 1-based; the conversion happens once
at read/write time and nowhere else.
"""

import warnings

import numpy as np

__all__ = [
    "LOCAL_EDGES",
    "Mesh",
    "MeshError",
    "MeshFormatError",
    "MeshTopologyError",
    "EdgeTopology",
    "BoundaryEdges",
    "build_edge_topology",
    "check_topology",
    "classify_boundary",
    "validate_mesh",
    "require_valid",
    "signed_areas",
    "uniform_refine",
    "read_mesh",
    "write_mesh",
]

# Local edge i is the edge opposite local vertex i.  Rows give the
# (start, end) local vertex indices in the counterclockwise traversal
# of the element: (1,2), (2,0), (0,1).
LOCAL_EDGES = np.array([[1, 2], [2, 0], [0, 1]])

INTERIOR, DIRICHLET, NEUMANN = 0, 1, 2


class MeshError(ValueError):
    """Invalid mesh data."""


class MeshFormatError(MeshError):
    """Malformed mesh file."""


class MeshTopologyError(MeshError):
    """Inconsistent mesh connectivity."""


def _array(values, dtype, field):
    """`values` as `dtype`; MeshError for `field` if ragged or non-numeric,
    strings included, though numpy would parse "1" as a number."""
    if isinstance(values, np.ndarray) and values.dtype == object:
        values = values.tolist()  # checked as the nested list it holds
    try:
        if np.asarray(values).dtype.kind in "SU":
            raise ValueError
        return np.array(values, dtype=dtype)
    except (TypeError, ValueError):
        raise MeshError("{} must be a rectangular array of numbers"
                        .format(field)) from None


def _integers(values, field):
    """`values` as an int64 array; MeshError naming `field` for an entry
    that is not an integer in int64's range (2.7, nan, inf, 2**63)."""
    message = "{} must be integers that fit in int64".format(field)
    given = _array(values, None, field)
    if given.dtype.kind == "f" and not (
            (given == np.trunc(given)) & (np.abs(given) < 2.0 ** 63)).all():
        raise MeshError(message)
    try:
        # from `values`: an int64 cast of `given` would wrap 2**63 around
        return _array(values, np.int64, field)
    except OverflowError:
        raise MeshError(message) from None


class Mesh:
    """Conforming triangulation with per-element boundary markers.

    Attributes
    ----------
    nodes : (N, 2) float array
        Vertex coordinates.
    elements : (NT, 3) int array
        Vertex indices of each triangle, in counterclockwise order.
    boundary_markers : (NT, 3) int array
        Marker of the edge opposite each local vertex: 0 interior,
        1 Dirichlet, 2 Neumann.

    All arrays are copied on construction and frozen afterwards; a mesh
    never changes once built (refinement returns a new mesh).
    """

    def __init__(self, nodes, elements, boundary_markers=None):
        self.nodes = _array(nodes, float, "nodes")
        self.elements = _integers(elements, "elements")
        if boundary_markers is None:
            boundary_markers = np.zeros_like(self.elements)
        self.boundary_markers = _integers(boundary_markers,
                                          "boundary_markers")

        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise MeshError("nodes must be an (N, 2) array")
        if self.elements.ndim != 2 or self.elements.shape[1] != 3:
            raise MeshError("elements must be an (NT, 3) array")
        if self.boundary_markers.shape != self.elements.shape:
            raise MeshError("boundary_markers must match elements in shape")
        for arr in (self.nodes, self.elements, self.boundary_markers):
            arr.setflags(write=False)

    @property
    def num_nodes(self):
        return self.nodes.shape[0]

    @property
    def num_elements(self):
        return self.elements.shape[0]

    def __repr__(self):
        return "Mesh({} nodes, {} elements)".format(
            self.num_nodes, self.num_elements)


class EdgeTopology:
    """Global edge numbering of a mesh.

    Attributes
    ----------
    edges : (NE, 2) int array
        Vertex pairs, each stored ascending (start < end) and the rows
        sorted lexicographically.  The global orientation of an edge is
        start -> end.
    elem_to_edge : (NT, 3) int array
        Global edge index of each local edge.
    sign_edge : (NT, 3) int array
        +1 where the element traverses the edge in global orientation,
        -1 where it traverses it reversed.  An element with +1 is the
        edge's minus side K-, one with -1 its plus side K+.
    """

    def __init__(self, edges, elem_to_edge, sign_edge):
        self.edges = edges
        self.elem_to_edge = elem_to_edge
        self.sign_edge = sign_edge
        for arr in (edges, elem_to_edge, sign_edge):
            arr.setflags(write=False)

    @property
    def num_edges(self):
        return self.edges.shape[0]

    def __repr__(self):
        return "EdgeTopology({} edges)".format(self.num_edges)


class BoundaryEdges:
    """Boundary edges of one marker kind, split Dirichlet/Neumann.

    The rows of ``dirichlet`` and ``neumann`` are vertex pairs stored
    ascending and sorted lexicographically, exactly like the rows of
    :attr:`EdgeTopology.edges`.  ``sign_*`` is +1 where the owning
    element traverses the edge in global orientation (so the global
    edge normal points out of the domain) and -1 otherwise; ``ind_*``
    gives each edge's global index.
    """

    def __init__(self, dirichlet, sign_dirichlet, ind_dirichlet,
                 neumann, sign_neumann, ind_neumann):
        self.dirichlet = dirichlet
        self.sign_dirichlet = sign_dirichlet
        self.ind_dirichlet = ind_dirichlet
        self.neumann = neumann
        self.sign_neumann = sign_neumann
        self.ind_neumann = ind_neumann
        for arr in (dirichlet, sign_dirichlet, ind_dirichlet,
                    neumann, sign_neumann, ind_neumann):
            arr.setflags(write=False)

    @property
    def num_dirichlet(self):
        return self.dirichlet.shape[0]

    @property
    def num_neumann(self):
        return self.neumann.shape[0]


def signed_areas(mesh):
    """Signed area of every element (positive for counterclockwise)."""
    p = mesh.nodes[mesh.elements]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _number_edges(mesh):
    """Unique edges as ascending vertex pairs in lexicographic order,
    each local edge's index into them, shape (NT, 3), and the number of
    local edges per edge."""
    start = mesh.elements[:, LOCAL_EDGES[:, 0]]
    end = mesh.elements[:, LOCAL_EDGES[:, 1]]
    base = 1 + int(mesh.elements.max(initial=0))
    # key lo * base + hi of the ascending pair: with `base` above every
    # index, keys sort like the pairs and decode by divmod
    keys = np.minimum(start, end) * base + np.maximum(start, end)
    keys, inverse, counts = np.unique(
        keys.ravel(), return_inverse=True, return_counts=True)
    edges = np.column_stack(np.divmod(keys, base))
    return edges, inverse.reshape(mesh.elements.shape), counts


def validate_mesh(mesh):
    """Check mesh invariants; return a list of violation messages.

    An empty list means the mesh is valid: all vertex coordinates
    finite, all vertex indices in range, all elements counterclockwise
    with positive area, every vertex referenced, markers in {0, 1, 2}
    and nonzero exactly on the edges that lie on the domain boundary.
    """
    violations = []
    elems = mesh.elements

    for v in np.flatnonzero(~np.isfinite(mesh.nodes).all(axis=1)):
        violations.append("vertex {}: non-finite coordinates".format(v))
    out = (elems < 0) | (elems >= mesh.num_nodes)
    for t in np.flatnonzero(out.any(axis=1)):
        violations.append("element {}: vertex index out of range".format(t))
    if violations:
        return violations  # areas would be NaN or index out of bounds

    areas = signed_areas(mesh)
    for t in np.flatnonzero(areas <= 0):
        violations.append(
            "element {}: non-positive signed area {:g} "
            "(vertices must be distinct and counterclockwise)".format(
                t, areas[t]))

    used = np.zeros(mesh.num_nodes, dtype=bool)
    used[elems] = True
    for v in np.flatnonzero(~used):
        violations.append("vertex {}: not referenced by any element".format(v))

    markers = mesh.boundary_markers
    bad = ~np.isin(markers, (INTERIOR, DIRICHLET, NEUMANN))
    for t, i in zip(*np.nonzero(bad)):
        violations.append(
            "element {}, edge {}: marker {} not in {{0, 1, 2}}".format(
                t, i, markers[t, i]))

    edges, inverse, counts = _number_edges(mesh)
    adjacency = counts[inverse]
    for t, i in zip(*np.nonzero((markers != INTERIOR) & (adjacency != 1))):
        violations.append(
            "element {}, edge {}: marker {} on interior edge ({}, {})".format(
                t, i, markers[t, i], *sorted(elems[t, LOCAL_EDGES[i]])))
    for t, i in zip(*np.nonzero((markers == INTERIOR) & (adjacency == 1))):
        violations.append(
            "element {}, edge {}: boundary edge ({}, {}) left "
            "unmarked".format(t, i, *sorted(elems[t, LOCAL_EDGES[i]])))
    for e in np.flatnonzero(counts > 2):
        violations.append(
            "edge ({}, {}): shared by {} elements".format(
                edges[e, 0], edges[e, 1], counts[e]))

    return violations


def require_valid(mesh):
    """Raise :class:`MeshError` listing the violations of an invalid mesh."""
    violations = validate_mesh(mesh)
    if violations:
        raise MeshError("invalid mesh: " + "; ".join(violations))


def build_edge_topology(mesh):
    """Number the edges of a mesh and orient them globally.

    Edges are the unique vertex pairs of the triangulation, stored
    ascending and sorted lexicographically; every element records the
    global index of each of its local edges and a sign telling whether
    the local (counterclockwise) direction agrees with the global one.

    Raises
    ------
    MeshTopologyError
        If an edge is shared by more than two elements.
    """
    edges, inverse, counts = _number_edges(mesh)
    bad = np.flatnonzero(counts > 2)
    if bad.size:
        e = bad[0]
        raise MeshTopologyError(
            "edge ({}, {}) is shared by {} elements".format(
                edges[e, 0], edges[e, 1], counts[e]))
    elem_to_edge = inverse.astype(np.int64)

    start = mesh.elements[:, LOCAL_EDGES[:, 0]]
    end = mesh.elements[:, LOCAL_EDGES[:, 1]]
    sign_edge = np.where(start < end, 1, -1).astype(np.int64)
    return EdgeTopology(edges, elem_to_edge, sign_edge)


def check_topology(mesh, topo):
    """Refuse an edge topology that was not built for `mesh`.

    Every local edge must map, through ``topo.elem_to_edge``, to the
    mesh's own ascending vertex pair, with sign +1 exactly where the
    element runs from the lower vertex index to the higher.

    Raises
    ------
    MeshTopologyError
        On another element count, vertex pair or sign.
    """
    if topo.elem_to_edge.shape != mesh.elements.shape:
        raise MeshTopologyError(
            "edge topology covers {} elements, the mesh has {}; was it "
            "built for another mesh?".format(
                topo.elem_to_edge.shape[0], mesh.num_elements))
    start = mesh.elements[:, LOCAL_EDGES[:, 0]]
    end = mesh.elements[:, LOCAL_EDGES[:, 1]]
    lo, hi = np.minimum(start, end), np.maximum(start, end)
    pairs = topo.edges[topo.elem_to_edge]
    bad = ((pairs[..., 0] != lo) | (pairs[..., 1] != hi)
           | ((topo.sign_edge > 0) != (start < end)))
    if bad.any():
        t, i = np.argwhere(bad)[0]
        raise MeshTopologyError(
            "edge ({}, {}) is not in the edge topology at index {}; was "
            "it built for another mesh?".format(
                lo[t, i], hi[t, i], topo.elem_to_edge[t, i]))


def classify_boundary(mesh, topo):
    """Split the marked boundary edges into Dirichlet and Neumann sets.

    Global indices are read from ``topo.elem_to_edge``; each set is
    ordered by them, which is lexicographic order of the vertex pairs.

    Raises
    ------
    MeshError
        If a nonzero marker sits on an edge shared by two elements.
    MeshTopologyError
        If `topo` does not number the edges of this mesh.
    """
    # a foreign topology is named as such before its adjacency is
    # trusted to find interior edges
    check_topology(mesh, topo)
    adjacency = np.bincount(topo.elem_to_edge.ravel(),
                            minlength=topo.num_edges)

    parts = {}
    for kind in (DIRICHLET, NEUMANN):
        t, i = np.nonzero(mesh.boundary_markers == kind)
        ind = topo.elem_to_edge[t, i]
        order = np.argsort(ind)
        t, i, ind = t[order], i[order], ind[order]
        rows = topo.edges[ind]
        shared = np.flatnonzero(adjacency[ind] != 1)
        if shared.size:
            raise MeshError("marker {} on interior edge ({}, {})".format(
                kind, *rows[shared[0]]))
        parts[kind] = (rows, topo.sign_edge[t, i], ind)

    return BoundaryEdges(*parts[DIRICHLET], *parts[NEUMANN])


def uniform_refine(mesh):
    """Split every element into four via the edge midpoints.

    Midpoint vertices are appended after the existing ones, one per
    parent edge in global edge order, so the refined mesh has
    N + NE vertices and 4 NT elements.  A child edge lying on a parent
    boundary edge inherits that edge's marker; the new interior edges
    get marker 0.
    """
    topo = build_edge_topology(mesh)
    midpoints = mesh.nodes[topo.edges].mean(axis=1)
    nodes = np.vstack([mesh.nodes, midpoints])

    v = mesh.elements
    m = mesh.num_nodes + topo.elem_to_edge  # midpoint of local edge i
    b = mesh.boundary_markers
    zero = np.zeros(mesh.num_elements, dtype=np.int64)

    elements = np.vstack([
        np.column_stack([v[:, 0], m[:, 2], m[:, 1]]),
        np.column_stack([m[:, 2], v[:, 1], m[:, 0]]),
        np.column_stack([m[:, 1], m[:, 0], v[:, 2]]),
        np.column_stack([m[:, 0], m[:, 1], m[:, 2]]),
    ])
    markers = np.vstack([
        np.column_stack([zero, b[:, 1], b[:, 2]]),
        np.column_stack([b[:, 0], zero, b[:, 2]]),
        np.column_stack([b[:, 0], b[:, 1], zero]),
        np.column_stack([zero, zero, zero]),
    ])
    return Mesh(nodes, elements, markers)


def _parse_fields(lines, lineno, count, conv, what):
    """Parse one whitespace-separated line into `count` values."""
    if lineno >= len(lines):
        raise MeshFormatError(
            "line {}: expected {} but file ended".format(lineno + 1, what))
    fields = lines[lineno].split()
    if len(fields) != count:
        raise MeshFormatError(
            "line {}: expected {} ({} fields), got {} fields".format(
                lineno + 1, what, count, len(fields)))
    try:
        return [conv(f) for f in fields]
    except (ValueError, OverflowError):  # OverflowError: beyond int64
        raise MeshFormatError(
            "line {}: could not parse {}: {!r}".format(
                lineno + 1, what, lines[lineno])) from None


def _read_section(lines, start, rows, fields, dtype, what, ascii_text):
    """Parse `rows` lines from `start` into a (rows, fields) array: one
    loadtxt call, or float/np.int64 line by line where loadtxt fails (1_0),
    warns (3.0, older numpy), skips a blank line or would misread non-ASCII."""
    block = lines[start:start + rows]
    if ascii_text and len(block) == rows:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = np.loadtxt(block, dtype=dtype, comments=None,
                                    ndmin=2)
            if values.shape == (rows, fields):
                return values
        except (ValueError, Warning):
            pass
    return np.array([_parse_fields(lines, start + k, fields, dtype, what)
                     for k in range(rows)], dtype=dtype)


def read_mesh(path):
    """Read a mesh from the plain text format.

    The format is line oriented::

        N NT
        x y        (N vertex lines)
        i j k      (NT element lines, 1-based vertex indices, CCW)
        m1 m2 m3   (NT marker lines, edge opposite each vertex)

    Vertex indices are converted to 0-based on read.  Anything beyond
    the expected lines is rejected.
    """
    with open(path) as fh:
        text = fh.read()
    lines, ascii_text = text.splitlines(), text.isascii()

    n, nt = _parse_fields(lines, 0, 2, int, "vertex and element counts")
    if n < 1 or nt < 1:
        raise MeshFormatError("line 1: counts must be positive")

    nodes = _read_section(lines, 1, n, 2, float, "vertex coordinates",
                          ascii_text)
    elements = _read_section(lines, 1 + n, nt, 3, np.int64,
                             "element vertices", ascii_text)
    markers = _read_section(lines, 1 + n + nt, nt, 3, np.int64,
                            "edge markers", ascii_text)

    used = 1 + n + 2 * nt
    for k in range(used, len(lines)):
        if lines[k].strip():
            raise MeshFormatError(
                "line {}: trailing content {!r}".format(k + 1, lines[k]))

    if (elements < 1).any() or (elements > n).any():
        t = np.flatnonzero(((elements < 1) | (elements > n)).any(axis=1))[0]
        raise MeshFormatError(
            "line {}: vertex index out of range 1..{}".format(
                1 + n + t + 1, n))
    return Mesh(nodes, elements - 1, markers)


def write_mesh(mesh, path):
    """Write a mesh in the format read by :func:`read_mesh`."""
    with open(path, "w") as fh:
        fh.write("{} {}\n".format(mesh.num_nodes, mesh.num_elements))
        for rows, fmt in ((mesh.nodes, "%.17g %.17g\n"),
                          (mesh.elements + 1, "%d %d %d\n"),
                          (mesh.boundary_markers, "%d %d %d\n")):
            fh.write(fmt * len(rows) % tuple(rows.ravel().tolist()))
