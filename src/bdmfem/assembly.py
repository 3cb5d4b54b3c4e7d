"""Sparse assembly of the mixed saddle-point system.

With sigma_h = sum_m x_m phi_m and u_h elementwise constant, the
discrete problem is

    [ B   C^T ] [sigma]   [b1]
    [ C   0   ] [  u  ] = [b2],

where B_mn = (alpha^-1 phi_m, phi_n) and C_lm = -(div phi_m, 1)_{K_l}.
All integrals reduce to closed forms.  Every flux function restricted
to an element is lambda_p (b, -a) / (2|K|) for some vertex p and
gradient coefficients (a, b) (:func:`basis.flux_functions`), so two of
them, (p, a, b) and (q, a', b'), give

    (alpha^-1 phi, phi') = c (1 + d(p, q)) (a a' + b b')

with c = alpha^-1 / (48 |K|) and d the Kronecker delta, because
int_K lambda_p lambda_q = (1 + d(p,q)) |K| / 12.  Contributions are
accumulated as coordinate triplets (duplicates summed) and compressed
to CSR; for rt0, whose two functions per edge share one column, that
summation is the restriction to the tied unknowns.
"""

import numpy as np
import scipy.io
import scipy.sparse as sp

from .basis import (flux_columns, flux_dof_count, flux_functions,
                    resolve_orientation)

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
    oriented = resolve_orientation(topo, coeffs)
    ne = topo.num_edges
    scale = np.asarray(inv_alpha, dtype=float) / (48 * coeffs.area)
    columns = flux_columns(family, topo.elem_to_edge, ne)
    # one (column, p, a, b) entry per function of each edge slot
    funcs = [(col[:, i], p[:, i], a[:, i], b[:, i])
             for col, (p, a, b) in zip(columns, flux_functions(oriented))
             for i in range(3)]

    rows, cols, vals = [], [], []
    for col_m, p_m, a_m, b_m in funcs:
        for col_n, p_n, a_n, b_n in funcs:
            rows.append(col_m)
            cols.append(col_n)
            vals.append(scale * (1 + (p_m == p_n)) * (a_m * a_n + b_m * b_n))

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
