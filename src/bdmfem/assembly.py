"""Sparse assembly of the mixed saddle-point system.

With sigma_h = sum_m x_m phi_m and u_h elementwise constant, the
discrete problem is

    [ B   C^T ] [sigma]   [b1]
    [ C   0   ] [  u  ] = [b2],

where B_mn = (alpha^-1 phi_m, phi_n) and C_lm = -(div phi_m, 1)_{K_l}.
All integrals reduce to closed forms: with the oriented coefficients of
edge slots i and j of one element,

    (alpha^-1 phi_{i,1}, phi_{j,1}) = c (1 + d(i1,j1)) (a_i2 a_j2 + b_i2 b_j2)
    (alpha^-1 phi_{i,1}, phi_{j,2}) = -c (1 + d(i1,j2)) (a_i2 a_j1 + b_i2 b_j1)
    (alpha^-1 phi_{i,2}, phi_{j,2}) = c (1 + d(i2,j2)) (a_i1 a_j1 + b_i1 b_j1)

with c = alpha^-1 / (48 |K|) and d the Kronecker delta, because
int_K lambda_p lambda_q = (1 + d(p,q)) |K| / 12.  Contributions are
accumulated as coordinate triplets (duplicates summed) and compressed
to CSR; for rt0, whose two functions per edge share one column, that
summation is the restriction to the tied unknowns.
"""

import numpy as np
import scipy.io
import scipy.sparse as sp

from .basis import flux_columns, flux_dof_count, resolve_orientation

__all__ = [
    "assemble_mass",
    "assemble_divergence",
    "assemble_system",
    "write_matrix_market",
]


def assemble_mass(topo, coeffs, inv_alpha, family="bdm1"):
    """Assemble the weighted flux mass matrix B.

    Parameters
    ----------
    inv_alpha : (NT,) float array
        Reciprocal diffusion coefficient, one value per element.

    Returns
    -------
    scipy.sparse.csr_matrix
        Shape (2 NE, 2 NE) for "bdm1" — function 1 of edge j at row j,
        function 2 at row NE + j — or (NE, NE) for "rt0".
    """
    o = resolve_orientation(topo, coeffs)
    ne = topo.num_edges
    scale = np.asarray(inv_alpha, dtype=float) / (48 * coeffs.area)
    col1, col2 = flux_columns(family, topo.elem_to_edge, ne)

    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(3):
            e = scale * (1 + (o.i1[:, i] == o.i1[:, j])) * (
                o.a2[:, i] * o.a2[:, j] + o.b2[:, i] * o.b2[:, j])
            h = -scale * (1 + (o.i1[:, i] == o.i2[:, j])) * (
                o.a2[:, i] * o.a1[:, j] + o.b2[:, i] * o.b1[:, j])
            g = scale * (1 + (o.i2[:, i] == o.i2[:, j])) * (
                o.a1[:, i] * o.a1[:, j] + o.b1[:, i] * o.b1[:, j])
            rows += [col1[:, i], col1[:, i], col2[:, j], col2[:, i]]
            cols += [col1[:, j], col2[:, j], col1[:, i], col2[:, j]]
            vals += [e, h, h, g]

    n = flux_dof_count(family, ne)
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))
    return mat.tocsr()


def assemble_divergence(topo, family="bdm1"):
    """Assemble the divergence constraint matrix C.

    Row l holds -(div phi_m, 1)_{K_l} for the flux functions phi_m.
    The element area cancels against the constant divergence, leaving
    -s/2 at the columns of both functions of each edge of element l
    (summing to -s at the single column of an rt0 edge).
    """
    nt, ne = topo.elem_to_edge.shape[0], topo.num_edges
    elem = np.repeat(np.arange(nt), 3)
    sign = topo.sign_edge.ravel().astype(float)
    rows = np.concatenate([elem, elem])
    cols = np.concatenate(flux_columns(family, topo.elem_to_edge.ravel(), ne))
    vals = np.concatenate([-sign / 2, -sign / 2])
    n = flux_dof_count(family, ne)
    return sp.coo_matrix((vals, (rows, cols)), shape=(nt, n)).tocsr()


def assemble_system(mass, divergence):
    """Stack B and C into the full saddle-point matrix."""
    return sp.bmat([[mass, divergence.T], [divergence, None]], format="csr")


def write_matrix_market(path, matrix):
    """Dump a symmetric sparse matrix in Matrix Market coordinate form.

    The file starts with ``%%MatrixMarket matrix coordinate real
    symmetric`` and uses 1-based indices, so it round-trips through any
    conforming reader.
    """
    scipy.io.mmwrite(path, sp.coo_matrix(matrix), symmetry="symmetric")
