"""Reference elements, quadrature rules, and degree-of-freedom maps.

Scalar Lagrange elements P1 and P2 live on the reference triangle with
vertices (0,0), (1,0), (0,1); local dofs are ordered vertices first, then
(for P2) the midpoints of the local edges (0,1), (1,2), (2,0).  Vector
elements are component-blocked: local and global dof ``c * n + s`` is
component ``c`` of scalar dof ``s``.

Function spaces are built per subdomain (velocity and fluid pressure on the
Fluid triangles, displacement and pore pressure on the Poro triangles) with
essential constraints recorded as a boolean ``fixed`` mask over dofs and a
``free_index``, the number of each dof among the unconstrained ("free")
dofs or -1, through which assembly scatters every operator and load
straight onto the free dofs, eliminating constrained rows and columns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import mesh as meshmod


class ElementKind(enum.Enum):
    P1 = "P1"
    P2 = "P2"
    VECTOR_P1 = "VectorP1"
    VECTOR_P2 = "VectorP2"


_SCALAR_OF = {
    ElementKind.P1: ElementKind.P1,
    ElementKind.P2: ElementKind.P2,
    ElementKind.VECTOR_P1: ElementKind.P1,
    ElementKind.VECTOR_P2: ElementKind.P2,
}


def is_vector(kind):
    return kind in (ElementKind.VECTOR_P1, ElementKind.VECTOR_P2)


def scalar_kind(kind):
    return _SCALAR_OF[kind]


def _p1_values(pts):
    x, y = pts[:, 0], pts[:, 1]
    return np.stack([1.0 - x - y, x, y], axis=1)


def _p1_gradients(pts):
    g = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    return np.broadcast_to(g, (len(pts), 3, 2)).copy()


def _p2_values(pts):
    x, y = pts[:, 0], pts[:, 1]
    l0, l1, l2 = 1.0 - x - y, x, y
    return np.stack([
        l0 * (2.0 * l0 - 1.0),
        l1 * (2.0 * l1 - 1.0),
        l2 * (2.0 * l2 - 1.0),
        4.0 * l0 * l1,
        4.0 * l1 * l2,
        4.0 * l2 * l0,
    ], axis=1)


def _p2_gradients(pts):
    x, y = pts[:, 0], pts[:, 1]
    l0 = 1.0 - x - y
    zeros = np.zeros_like(x)
    gx = np.stack([
        1.0 - 4.0 * l0,
        4.0 * x - 1.0,
        zeros,
        4.0 * (l0 - x),
        4.0 * y,
        -4.0 * y,
    ], axis=1)
    gy = np.stack([
        1.0 - 4.0 * l0,
        zeros,
        4.0 * y - 1.0,
        -4.0 * x,
        4.0 * x,
        4.0 * (l0 - y),
    ], axis=1)
    return np.stack([gx, gy], axis=2)


def basis_eval(kind, points):
    """Evaluate reference basis functions and gradients at ``points``.

    Parameters
    ----------
    kind : ElementKind
    points : (nq, 2) array of reference coordinates

    Returns
    -------
    values, gradients
        For scalar kinds ``values`` is (nq, n) and ``gradients`` is
        (nq, n, 2).  For vector kinds the dofs are component-blocked and the
        arrays gain a trailing component axis: values (nq, 2n, 2) and
        gradients (nq, 2n, 2, 2) with ``gradients[q, d, c, j]`` the
        derivative of component ``c`` with respect to coordinate ``j``.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    base = scalar_kind(kind)
    if base == ElementKind.P1:
        vals, grads = _p1_values(pts), _p1_gradients(pts)
    else:
        vals, grads = _p2_values(pts), _p2_gradients(pts)
    if not is_vector(kind):
        return vals, grads
    nq, n = vals.shape
    vvals = np.zeros((nq, 2 * n, 2))
    vgrads = np.zeros((nq, 2 * n, 2, 2))
    for c in range(2):
        vvals[:, c * n:(c + 1) * n, c] = vals
        vgrads[:, c * n:(c + 1) * n, c, :] = grads
    return vvals, vgrads


@dataclass(frozen=True)
class QuadratureRule:
    """Positive-weight rule on the reference triangle (weights sum to 1/2)."""

    points: np.ndarray
    weights: np.ndarray
    order: int


@lru_cache(maxsize=None)
def triangle_rule(order):
    """Quadrature rule exact for polynomials of total degree <= ``order``.

    Order 1 is the centroid rule and order 2 the symmetric three-point rule.
    Higher orders use a collapsed tensor Gauss rule (positive weights for any
    order).
    """
    order = int(order)
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    if order == 1:
        pts = np.array([[1.0 / 3.0, 1.0 / 3.0]])
        wts = np.array([0.5])
    elif order == 2:
        pts = np.array([
            [1.0 / 6.0, 1.0 / 6.0],
            [2.0 / 3.0, 1.0 / 6.0],
            [1.0 / 6.0, 2.0 / 3.0],
        ])
        wts = np.full(3, 1.0 / 6.0)
    else:
        n = (order + 3) // 2
        g, w = np.polynomial.legendre.leggauss(n)
        u = 0.5 * (g + 1.0)
        wu = 0.5 * w
        uu, vv = np.meshgrid(u, u, indexing="ij")
        wi, wj = np.meshgrid(wu, wu, indexing="ij")
        x = uu.ravel()
        y = (vv * (1.0 - uu)).ravel()
        wts = (wi * wj * (1.0 - uu)).ravel()
        pts = np.column_stack([x, y])
    pts.setflags(write=False)
    wts.setflags(write=False)
    return QuadratureRule(pts, wts, order)


@lru_cache(maxsize=None)
def interval_rule(order):
    """Gauss rule on [0, 1] exact for polynomials of degree <= ``order``."""
    order = int(order)
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    n = order // 2 + 1
    g, w = np.polynomial.legendre.leggauss(n)
    pts = 0.5 * (g + 1.0)
    wts = 0.5 * w
    pts.setflags(write=False)
    wts.setflags(write=False)
    return pts, wts


# ---------------------------------------------------------------------------
# function spaces
# ---------------------------------------------------------------------------

@dataclass
class ScalarSpace:
    """Scalar Lagrange space over one subdomain (or the whole mesh).

    Attributes
    ----------
    tri_ids : indices of the triangles the space lives on
    cell_dofs : (len(tri_ids), nloc) local-to-global map
    dof_coords : (ndof, 2) nodal coordinates
    fixed : boolean mask of essentially constrained dofs
    free : indices of unconstrained dofs
    free_index : free number of each dof, -1 where it is constrained
    """

    mesh: object
    kind: ElementKind
    subdomain: object
    tri_ids: np.ndarray
    cell_dofs: np.ndarray
    dof_coords: np.ndarray
    vertex_dof: np.ndarray
    facet_mid_dof: np.ndarray
    fixed: np.ndarray = field(default=None)
    free: np.ndarray = field(default=None)
    free_index: np.ndarray = field(default=None)

    @property
    def ndof(self):
        return len(self.dof_coords)

    @property
    def n_free(self):
        return len(self.free)

    def facet_dofs(self, facet_ids):
        """Space dofs with support point on the given facets (sorted)."""
        ids = np.atleast_1d(np.asarray(facet_ids, dtype=int))
        # a P1 space, or a facet outside the subdomain, has no mid dof (-1)
        dofs = np.concatenate([self.vertex_dof[self.mesh.facets[ids]].ravel(),
                               self.facet_mid_dof[ids]])
        return np.unique(dofs[dofs >= 0])

    def tagged_dofs(self, tag):
        """Space dofs with support point on facets carrying ``tag``."""
        return self.facet_dofs(self.mesh.facets_with_tag(tag))


def make_scalar_space(mesh, kind, subdomain=None, dirichlet_tags=()):
    """Build a scalar P1/P2 space on ``subdomain`` (None = whole mesh).

    ``dirichlet_tags`` lists facet tags whose dofs are constrained to zero.
    """
    kind = scalar_kind(kind)
    if subdomain is None:
        tri_ids = np.arange(mesh.num_triangles)
    else:
        tri_ids = mesh.triangles_with_tag(subdomain)
    if len(tri_ids) == 0:
        raise ValueError("subdomain has no triangles")

    tris = mesh.triangles[tri_ids]
    vertex_dof = np.full(mesh.num_vertices, -1, dtype=int)
    facet_mid_dof = np.full(mesh.num_facets, -1, dtype=int)

    verts = np.unique(tris.ravel())
    vertex_dof[verts] = np.arange(len(verts))
    coords = [mesh.vertices[verts]]
    ndof = len(verts)

    if kind == ElementKind.P2:
        edges = np.unique(mesh.tri_facets[tri_ids].ravel())
        edges = edges[edges >= 0]
        facet_mid_dof[edges] = ndof + np.arange(len(edges))
        mids = 0.5 * (mesh.vertices[mesh.facets[edges, 0]]
                      + mesh.vertices[mesh.facets[edges, 1]])
        coords.append(mids)
        ndof += len(edges)
        cell_dofs = np.column_stack([
            vertex_dof[tris],
            facet_mid_dof[mesh.tri_facets[tri_ids]],
        ])
    else:
        cell_dofs = vertex_dof[tris]

    space = ScalarSpace(
        mesh=mesh,
        kind=kind,
        subdomain=subdomain,
        tri_ids=tri_ids,
        cell_dofs=np.ascontiguousarray(cell_dofs),
        dof_coords=np.vstack(coords),
        vertex_dof=vertex_dof,
        facet_mid_dof=facet_mid_dof,
    )
    fixed = np.zeros(space.ndof, dtype=bool)
    for tag in dirichlet_tags:
        fixed[space.tagged_dofs(tag)] = True
    return _constrain(space, fixed)


def _constrain(space, fixed):
    """Record the constraint mask ``fixed`` of ``space`` and its free dofs."""
    space.fixed, space.free = fixed, np.flatnonzero(~fixed)
    space.free_index = np.where(fixed, -1, np.cumsum(~fixed) - 1)
    return space


@dataclass
class VectorSpace:
    """Component-blocked vector space over a scalar space.

    Global dof ``c * scalar.ndof + s`` is component ``c`` of scalar dof
    ``s``; constraints may fix both components (zero-vector boundaries) or a
    single component (zero-tangential boundaries on axis-aligned facets).
    """

    scalar: ScalarSpace
    fixed: np.ndarray = field(default=None)
    free: np.ndarray = field(default=None)
    free_index: np.ndarray = field(default=None)

    @property
    def mesh(self):
        return self.scalar.mesh

    @property
    def kind(self):
        return (ElementKind.VECTOR_P1 if self.scalar.kind == ElementKind.P1
                else ElementKind.VECTOR_P2)

    @property
    def ndof(self):
        return 2 * self.scalar.ndof

    @property
    def n_free(self):
        return len(self.free)

    @property
    def tri_ids(self):
        return self.scalar.tri_ids

    def cell_dofs_vector(self):
        ns = self.scalar.ndof
        sd = self.scalar.cell_dofs
        return np.concatenate([sd, sd + ns], axis=1)

    def component_dofs(self, scalar_dofs, component):
        return np.asarray(scalar_dofs, dtype=int) + component * self.scalar.ndof


def _tangential_components(mesh, facets):
    """0 for a horizontal facet, 1 for a vertical one (tangent direction)."""
    e = (mesh.vertices[mesh.facets[facets, 1]]
         - mesh.vertices[mesh.facets[facets, 0]])
    length = np.hypot(e[:, 0], e[:, 1])
    vertical = np.abs(e[:, 0]) <= 1e-12 * length
    if not np.all(vertical | (np.abs(e[:, 1]) <= 1e-12 * length)):
        raise NotImplementedError("zero-tangential constraints are only "
                                  "supported on axis-aligned facets")
    return vertical.astype(int)


def make_vector_space(mesh, kind, subdomain, zero_tags=(), tangential_zero_tags=()):
    """Vector space with zero-vector and zero-tangential essential tags."""
    scalar = make_scalar_space(mesh, kind, subdomain)
    space = VectorSpace(scalar=scalar)
    fixed = np.zeros(space.ndof, dtype=bool)
    for tag in zero_tags:
        dofs = scalar.tagged_dofs(tag)
        for c in (0, 1):
            fixed[space.component_dofs(dofs, c)] = True
    for tag in tangential_zero_tags:
        facets = mesh.facets_with_tag(tag)
        comps = _tangential_components(mesh, facets)
        for c in (0, 1):
            dofs = scalar.facet_dofs(facets[comps == c])
            fixed[space.component_dofs(dofs, c)] = True
    return _constrain(space, fixed)


@dataclass
class DofMap:
    """The four production spaces bound to one mesh.

    velocity : VectorP2 on Fluid, zero on FluidExternal
    pressure_f : P1 on Fluid, unconstrained
    displacement : VectorP2 on Poro, zero on PoroSolid,
        zero-tangential on PoroExternal
    pressure_p : P2 on Poro, zero on PoroExternal
    """

    mesh: object
    velocity: VectorSpace
    pressure_f: ScalarSpace
    displacement: VectorSpace
    pressure_p: ScalarSpace

    def counts(self):
        return {
            "velocity": (self.velocity.ndof, self.velocity.n_free),
            "pressure_f": (self.pressure_f.ndof, self.pressure_f.n_free),
            "displacement": (self.displacement.ndof, self.displacement.n_free),
            "pressure_p": (self.pressure_p.ndof, self.pressure_p.n_free),
        }


def build_dofmaps(mesh):
    """Construct the production :class:`DofMap` for ``mesh``."""
    velocity = make_vector_space(
        mesh, ElementKind.VECTOR_P2, meshmod.FLUID,
        zero_tags=(meshmod.FLUID_EXTERNAL,))
    pressure_f = make_scalar_space(mesh, ElementKind.P1, meshmod.FLUID)
    displacement = make_vector_space(
        mesh, ElementKind.VECTOR_P2, meshmod.PORO,
        zero_tags=(meshmod.PORO_SOLID,),
        tangential_zero_tags=(meshmod.PORO_EXTERNAL,))
    pressure_p = make_scalar_space(
        mesh, ElementKind.P2, meshmod.PORO,
        dirichlet_tags=(meshmod.PORO_EXTERNAL,))
    return DofMap(mesh=mesh, velocity=velocity, pressure_f=pressure_f,
                  displacement=displacement, pressure_p=pressure_p)


def interpolate_scalar(space, expr, t=0.0):
    """Nodal interpolation of ``expr`` (an expression or callable) at time t."""
    xs, ys = space.dof_coords[:, 0], space.dof_coords[:, 1]
    return np.asarray(expr(xs, ys, t), dtype=float)


def interpolate_vector(space, exprs, t=0.0):
    """Nodal interpolation of a 2-component field, component-blocked."""
    sc = space.scalar
    xs, ys = sc.dof_coords[:, 0], sc.dof_coords[:, 1]
    return np.concatenate([
        np.asarray(exprs[0](xs, ys, t), dtype=float),
        np.asarray(exprs[1](xs, ys, t), dtype=float),
    ])
