"""Seeded input meshes for the benchmark.

Every workload runs on a uniformly refined ``builtin:paper`` mesh whose
labels are scrambled by the seed: vertices are permuted, elements are
permuted, and each triangle starts at a random one of its vertices.  The
geometry, the counterclockwise order and the edge markers are kept, so
the discrete problem is the same for every seed while the sparsity
ordering the solver sees is not: SuperLU fill and factor time change
with the seed, so every result records its seed.
"""

import numpy as np


def relabel(bf, mesh, seed):
    """Return `mesh` with vertices, elements and start vertices permuted."""
    rng = np.random.default_rng(seed)
    new_index = rng.permutation(mesh.num_nodes)
    nodes = np.empty_like(mesh.nodes)
    nodes[new_index] = mesh.nodes
    order = rng.permutation(mesh.num_elements)
    # marker i belongs to the edge opposite local vertex i, so markers
    # rotate together with the vertices
    shift = rng.integers(0, 3, mesh.num_elements)
    cols = (np.arange(3) + shift[:, None]) % 3
    elements = np.take_along_axis(new_index[mesh.elements][order], cols, 1)
    markers = np.take_along_axis(mesh.boundary_markers[order], cols, 1)
    out = bf.Mesh(nodes, elements, markers)
    violations = bf.validate_mesh(out)
    if violations:
        raise RuntimeError("relabelled mesh is invalid: " + violations[0])
    return out


def paper_mesh(bf, seed, level):
    """``builtin:paper`` refined `level` times, then relabelled by `seed`
    (left as refined when `seed` is None)."""
    mesh = bf.builtin_mesh("paper")
    for _ in range(level):
        mesh = bf.uniform_refine(mesh)
    return mesh if seed is None else relabel(bf, mesh, seed)


def all_dirichlet(bf, mesh):
    """The same mesh with every boundary edge marked Dirichlet."""
    return bf.Mesh(mesh.nodes, mesh.elements,
                   np.minimum(mesh.boundary_markers, 1))

