"""Built-in problem definitions and the 16-element reference mesh.

Every field of a problem is a vectorized callable mapping an (n, 2)
array of points to n values or one scalar ((n, 2) or one 2-vector for
the flux), all finite and alpha positive; anything else is a ValueError
naming the problem and the field, an (n, 1) column included.  Neumann
data, where meaningful, is the outward normal flux on the top boundary
y = 1 — the segment the reference mesh marks as Neumann; the other
built-in meshes derived from it by refinement keep that property.
"""

import numpy as np

from .mesh import Mesh

__all__ = ["ProblemDefinition", "PROBLEMS", "get_problem", "builtin_mesh",
           "BUILTIN_MESHES"]


class ProblemDefinition:
    """Data of one diffusion problem -div(alpha grad u) = f.

    Attributes
    ----------
    alpha, source, dirichlet : callables
        Diffusion coefficient, right-hand side and Dirichlet data.
    neumann : callable or None
        Outward normal flux sigma . n on the Neumann boundary.
    exact_u, exact_sigma : callables or None
        Exact solution fields, for the error norms.
    """

    def __init__(self, name, alpha, source, dirichlet, neumann=None,
                 exact_u=None, exact_sigma=None, description=""):
        self.name = name
        self.alpha = alpha
        self.source = source
        self.dirichlet = dirichlet
        self.neumann = neumann
        self.exact_u = exact_u
        self.exact_sigma = exact_sigma
        self.description = description

    @property
    def has_exact_solution(self):
        return self.exact_u is not None and self.exact_sigma is not None

    def __repr__(self):
        return "ProblemDefinition({!r})".format(self.name)


def _top_flux(sigma):
    """Outward normal flux sigma . (0, 1) on the top boundary y = 1."""
    return lambda p: sigma(p)[:, 1]


# -- piecewise-coefficient example on (-1,1)^2 ------------------------------
# alpha jumps from 10 to 1 across x = 0; u and sigma = -alpha grad u are
# polynomial on each half and sigma . n is continuous across the jump.

def _pw_alpha(p):
    return np.where(p[:, 0] < 0, 10.0, 1.0)


def _pw_source(p):
    x, y = p[:, 0], p[:, 1]
    return -2 * (x * x + y * y)


def _pw_u(p):
    x, y = p[:, 0], p[:, 1]
    left = (x * x * y * y + x) / 10 + y
    right = x * x * y * y + x + y
    return np.where(x < 0, left, right)


def _pw_sigma(p):
    x, y = p[:, 0], p[:, 1]
    s1 = -2 * x * y * y - 1
    s2 = np.where(x < 0, -2 * x * x * y - 10, -2 * x * x * y - 1)
    return np.column_stack([s1, s2])


# -- linear-flux patch problem ----------------------------------------------
# sigma = (x, y) lies in every flux space, so the discrete flux is exact
# up to round-off on any mesh; u = -(x^2+y^2)/2 keeps a first-order error.

def _one(p):
    return np.ones(p.shape[0])


def _patch_source(p):
    return np.full(p.shape[0], 2.0)


def _patch_u(p):
    return -(p[:, 0] ** 2 + p[:, 1] ** 2) / 2


def _patch_sigma(p):
    return p.copy()


# -- smooth product-of-sines problem ----------------------------------------

def _smooth_source(p):
    return 2 * np.pi ** 2 * np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])


def _smooth_u(p):
    return np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])


def _smooth_sigma(p):
    x, y = p[:, 0], p[:, 1]
    return -np.pi * np.column_stack([np.cos(np.pi * x) * np.sin(np.pi * y),
                                     np.sin(np.pi * x) * np.cos(np.pi * y)])


PROBLEMS = {
    "paper-example": ProblemDefinition(
        name="paper-example",
        alpha=_pw_alpha,
        source=_pw_source,
        dirichlet=_pw_u,
        neumann=_top_flux(_pw_sigma),
        exact_u=_pw_u,
        exact_sigma=_pw_sigma,
        description="piecewise diffusion coefficient (10 for x<0, 1 for "
                    "x>0) on (-1,1)^2 with a flux-continuous manufactured "
                    "solution; Dirichlet data except on y=1",
    ),
    "patch-linear": ProblemDefinition(
        name="patch-linear",
        alpha=_one,
        source=_patch_source,
        dirichlet=_patch_u,
        neumann=_top_flux(_patch_sigma),
        exact_u=_patch_u,
        exact_sigma=_patch_sigma,
        description="linear exact flux sigma=(x,y); reproduced exactly by "
                    "every family, so flux errors sit at round-off",
    ),
    "smooth-dirichlet": ProblemDefinition(
        name="smooth-dirichlet",
        alpha=_one,
        source=_smooth_source,
        dirichlet=_smooth_u,
        neumann=_top_flux(_smooth_sigma),
        exact_u=_smooth_u,
        exact_sigma=_smooth_sigma,
        description="u = sin(pi x) sin(pi y) with unit coefficient",
    ),
}


def get_problem(name):
    """Look up a built-in problem by name."""
    try:
        return PROBLEMS[name]
    except KeyError:
        raise ValueError(
            "unknown problem {!r}; known: {}".format(
                name, ", ".join(sorted(PROBLEMS)))) from None


# 16-element triangulation of (-1,1)^2: four corner squares, each split
# into four triangles around its center.  The top edge y = 1 is marked
# Neumann (2), the rest of the boundary Dirichlet (1).
_REFERENCE_NODES = [
    [-1.0, 1.0], [0.0, 1.0], [1.0, 1.0],
    [-0.5, 0.5], [0.5, 0.5],
    [-1.0, 0.0], [0.0, 0.0], [1.0, 0.0],
    [-0.5, -0.5], [0.5, -0.5],
    [-1.0, -1.0], [0.0, -1.0], [1.0, -1.0],
]

_REFERENCE_ELEMENTS = [
    [4, 2, 1], [4, 1, 6], [4, 6, 7], [4, 7, 2],
    [5, 3, 2], [5, 2, 7], [5, 7, 8], [5, 8, 3],
    [9, 7, 6], [9, 6, 11], [9, 11, 12], [9, 12, 7],
    [10, 8, 7], [10, 7, 12], [10, 12, 13], [10, 13, 8],
]

_REFERENCE_MARKERS = [
    [2, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 0],
    [2, 0, 0], [0, 0, 0], [0, 0, 0], [1, 0, 0],
    [0, 0, 0], [1, 0, 0], [1, 0, 0], [0, 0, 0],
    [0, 0, 0], [0, 0, 0], [1, 0, 0], [1, 0, 0],
]


def _reference_mesh():
    return Mesh(np.array(_REFERENCE_NODES),
                np.array(_REFERENCE_ELEMENTS) - 1,
                np.array(_REFERENCE_MARKERS))


BUILTIN_MESHES = {"paper": _reference_mesh}


def builtin_mesh(name):
    """Construct a built-in mesh ("paper": the 16-element square)."""
    try:
        return BUILTIN_MESHES[name]()
    except KeyError:
        raise ValueError(
            "unknown builtin mesh {!r}; known: {}".format(
                name, ", ".join(sorted(BUILTIN_MESHES)))) from None
