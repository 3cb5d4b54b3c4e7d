"""Sparse assembly of the mixed saddle-point system.

With sigma_h = sum_m x_m phi_m and u_h elementwise constant, the
discrete problem is

    [ B   C^T ] [sigma]   [b1]
    [ C   0   ] [  u  ] = [b2],

where B_mn = (alpha^-1 phi_m, phi_n) and C_lm = -(div phi_m, 1)_{K_l}.
All integrals reduce to closed forms.  Every flux function restricted
to an element is lambda_p (b, -a) / (2|K|) for some vertex p and
gradient coefficients (a, b) (:class:`basis.OrientedEdgeBasis`), so two of
them, (p, a, b) and (q, a', b'), give

    (alpha^-1 phi, phi') = c (1 + d(p, q)) (a a' + b b')

with c = alpha^-1 / (48 |K|) and d the Kronecker delta, because
int_K lambda_p lambda_q = (1 + d(p,q)) |K| / 12.  The closed forms
fill one block per element over its local unknowns
(:func:`element_mass`, :func:`element_divergence`); rt0, whose two
functions per edge share one unknown, restricts the bdm1 block with
P = [I; I].  B and C are those blocks scattered as coordinate triplets
(duplicates summed) and compressed to CSR; the hybridized solve in
:mod:`solve` eliminates the same blocks element by element.
"""

import numpy as np
import scipy.sparse as sp

from .basis import (flux_dof_count, functions_per_edge, local_columns,
                    resolve_orientation)

__all__ = [
    "element_mass",
    "element_divergence",
    "assemble_mass",
    "assemble_divergence",
    "assemble_system",
    "write_matrix_market",
]


def element_mass(topo, coeffs, inv_alpha, family="bdm1"):
    """Weighted flux mass block M_K of every element, shape (NT, k, k).

    Rows and columns follow :func:`basis.local_columns`.  For "rt0"
    the block is P^T M6 P with P = [I; I], summed as
    (M11 + M22) + (M12 + M21) so that it stays exactly symmetric.

    Parameters
    ----------
    inv_alpha : (NT,) float array
        Reciprocal diffusion coefficient, one value per element.
    """
    o = resolve_orientation(topo, coeffs)
    scale = np.asarray(inv_alpha, dtype=float) / (48 * coeffs.area)
    blocks = (scale[:, None, None] * (1 + (o.p[:, :, None] == o.p[:, None, :]))
              * (o.a[:, :, None] * o.a[:, None, :]
                 + o.b[:, :, None] * o.b[:, None, :]))
    if functions_per_edge(family) == 1:
        blocks = ((blocks[:, :3, :3] + blocks[:, 3:, 3:])
                  + (blocks[:, :3, 3:] + blocks[:, 3:, :3]))
    return blocks


def element_divergence(topo, family="bdm1"):
    """Divergence row D_K of every element, shape (NT, k).

    Entry -(div phi, 1)_K of each local unknown (:func:`basis.local_columns`):
    the element area cancels against the constant divergence, leaving
    -s/2 for each bdm1 function of an edge and -s for the rt0 one.
    """
    _, signs = local_columns(family, topo)
    return -signs / functions_per_edge(family)


def assemble_mass(topo, coeffs, inv_alpha, family="bdm1"):
    """Assemble the weighted flux mass matrix B from :func:`element_mass`.

    Returns
    -------
    scipy.sparse.csr_matrix
        Shape (2 NE, 2 NE) for "bdm1" — function 1 of edge j at row j,
        function 2 at row NE + j — or (NE, NE) for "rt0".
    """
    columns, _ = local_columns(family, topo)
    blocks = element_mass(topo, coeffs, inv_alpha, family)
    rows = np.broadcast_to(columns[:, :, None], blocks.shape)
    cols = np.broadcast_to(columns[:, None, :], blocks.shape)
    n = flux_dof_count(family, topo.num_edges)
    mat = sp.coo_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())),
                        shape=(n, n))
    return mat.tocsr()


def assemble_divergence(topo, family="bdm1"):
    """Assemble the divergence constraint matrix C from
    :func:`element_divergence`: row l holds -(div phi_m, 1)_{K_l}."""
    columns, _ = local_columns(family, topo)
    nt, k = columns.shape
    rows = np.repeat(np.arange(nt), k)
    n = flux_dof_count(family, topo.num_edges)
    return sp.coo_matrix(
        (element_divergence(topo, family).ravel(), (rows, columns.ravel())),
        shape=(nt, n)).tocsr()


def assemble_system(mass, divergence):
    """Stack B and C into the full saddle-point matrix."""
    return sp.bmat([[mass, divergence.T], [divergence, None]], format="csr")


def write_matrix_market(path, matrix):
    """Dump a symmetric sparse matrix in Matrix Market coordinate form.

    The file starts with ``%%MatrixMarket matrix coordinate real
    symmetric`` and uses 1-based indices, so it round-trips through any
    conforming reader.
    """
    import scipy.io  # here only: it costs ~30 ms beyond scipy.sparse
    scipy.io.mmwrite(path, sp.coo_matrix(matrix), symmetry="symmetric")
