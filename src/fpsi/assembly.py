"""Finite-element operator and load assembly for the coupled flow problem.

The unknowns are the fluid velocity ``u`` (vector P2 on the fluid
subdomain), the fluid pressure ``p_f`` (P1, fluid), the solid displacement
``eta`` and its velocity (vector P2, poroelastic subdomain), and the pore
pressure ``w`` (P2, poroelastic subdomain).  In coefficient vectors these are
``alpha`` (velocity), ``pi`` (fluid pressure), ``beta`` (displacement),
``theta`` (structure velocity), ``gamma`` (pore pressure).

The semi-discrete block system reads::

    rho_f Mu alpha' + (2 mu_f Vu + Su) alpha + N(alpha)
                                  + D gamma - E theta - Gdiv^T pi = a
    beta' - theta                                                 = 0
    s0 Mp gamma' + Bp gamma + C^T theta - D^T alpha               = c
    rho_s Md theta' + Bs beta - C gamma - E^T alpha + F theta     = b
    Gdiv alpha                                                    = 0

with the masses ``Mu``, ``Md``, ``Mp`` (``mass_u``, ``mass_d``,
``mass_p``), ``Vu = (D(u), D(v))`` (``visc_u``), ``Su = beta <(u.t)(v.t)>_I``
(``slip_u``), ``Bs = 2 mu_s (D(.), D(.)) + lambda_s (div, div)``,
``Bp = (K grad w, grad r)``, ``C = alpha_bw (r, div xi) + <r n, xi>_I``,
``D = <r n, v>_I``, ``E = beta <(v.t)(xi.t)>_I`` and
``F = beta <(xi.t)(zeta.t)>_I``, where ``n`` is the interface normal
pointing out of the fluid subdomain and ``t`` the interface tangent.  Each
form is stored once, without the coefficient (``rho_f``, ``mu_f``,
``rho_s``, ``s0``) that multiplies it, so the time stepper, the constants
and the certificate read the same matrices; the time stepper's table of
linear terms and :class:`BlockSystem` apply the coefficients.  A block
that sums forms keeps its parts' coefficients.

Every operator and load is scattered straight onto the unconstrained
(free) dofs of its spaces, its element dofs mapped through their
``free_index`` and constrained entries dropped (see :func:`_scatter`); a
vector form sums scalar element matrices on its component blocks.  Every
volume operator (mass, gradient products, divergence and the
convection term with its Jacobian) is an affine geometry factor contracted
with exact reference-triangle tables, each summed by the lowest rule exact
for its degree; quadrature of a fixed order remains only for the facet
terms (:data:`FACET_ORDER`) and the data loads (:data:`LOAD_ORDER`).

Every facet term (the interface blocks ``C``, ``D``, ``E``, ``F`` and the
slip form ``slip_u``, and the inlet, outlet, interface and boundary loads)
goes through one batched kernel, :func:`facet_trace`: for a batch of facets,
each seen from one adjacent triangle, it gives the Gauss points, their
reference coordinates in that triangle, the weights times the facet length
and the outward normal.  :func:`facet_matrix` and :func:`load_facet`, which
applies the normal by the field's rank, contract basis values at those points
in one step and scatter the per-facet results with the triangles' dofs.

A right-hand side is ``tau(t) @ B``: every data field is split once into
time factors ``tau_j(t)`` times space fields (:func:`separate`), and row
``j`` of ``B`` is the load of the space fields of ``tau_j``, built on the
first :func:`assemble_loads` for a mesh and data set.  A step evaluates no
field on quadrature points unless a term mixes ``t`` with ``x`` or ``y``.
"""

from __future__ import annotations

import weakref
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from . import mesh as meshmod
from .expressions import Expr, Const, ZERO, separate
from .fem import (
    ElementKind,
    VectorSpace,
    basis_eval,
    build_dofmaps,
    interval_rule,
    triangle_rule,
)

# Gauss orders of the integrals still summed by quadrature: the facet
# matrices and the data loads.  Both are read at call time, so a test can
# lower one to show what under-integration does.
FACET_ORDER = 6
LOAD_ORDER = 8


# ---------------------------------------------------------------------------
# physical parameters and data
# ---------------------------------------------------------------------------

class ParameterError(ValueError):
    """Raised for inadmissible physical parameters."""


@dataclass(frozen=True)
class PhysicalParams:
    """Material and coupling coefficients.

    ``K`` is the (symmetric positive definite) permeability tensor; a scalar
    is promoted to ``K * I``.  ``beta_slip`` is the tangential interface
    friction coefficient and ``alpha_bw`` the pressure/stress coupling
    coefficient.
    """

    rho_f: float = 1.0
    mu_f: float = 1.0
    rho_s: float = 1.0
    mu_s: float = 1.0
    lambda_s: float = 1.0
    s0: float = 1.0
    alpha_bw: float = 1.0
    beta_slip: float = 1.0
    K: np.ndarray = field(default_factory=lambda: np.eye(2))

    def __post_init__(self):
        K = np.asarray(self.K, dtype=float)
        if K.ndim == 0:
            K = float(K) * np.eye(2)
        if K.shape != (2, 2):
            raise ParameterError("K must be a scalar or a 2x2 tensor")
        if not np.allclose(K, K.T, rtol=0.0, atol=1e-14 * max(1.0, abs(K).max())):
            raise ParameterError("K must be symmetric")
        if np.linalg.eigvalsh(K)[0] <= 0.0:
            raise ParameterError("K must be positive definite")
        K = K.copy()
        K.setflags(write=False)
        object.__setattr__(self, "K", K)
        for name in ("rho_f", "mu_f", "rho_s", "mu_s", "s0", "beta_slip"):
            if getattr(self, name) <= 0.0:
                raise ParameterError("%s must be positive" % name)
        if self.lambda_s < 0.0:
            raise ParameterError("lambda_s must be nonnegative")
        if self.alpha_bw < 0.0:
            raise ParameterError("alpha_bw must be nonnegative")

    @property
    def k_min(self):
        return float(np.linalg.eigvalsh(self.K)[0])


def _as_expr(value):
    if value is None:
        return ZERO
    if isinstance(value, Expr):
        return value
    return Const(float(value))


def _as_pair(value):
    if value is None:
        return (ZERO, ZERO)
    a, b = value
    return (_as_expr(a), _as_expr(b))


def _map_nest(fn, field):
    """``fn`` of every expression of a field (an expression, a pair or a
    2x2 nest), in the same nesting; None stays None."""
    if isinstance(field, Expr):
        return fn(field)
    return None if field is None else tuple(_map_nest(fn, f) for f in field)


@dataclass(frozen=True)
class ExtraLoads:
    """Additional consistency loads used by manufactured-solution runs.

    Each entry, when set, contributes a boundary integral to the right-hand
    side so that a chosen smooth field solves the discrete problem exactly up
    to quadrature:

    - ``inlet_traction``: vector integrand on the inlet, ``<g, v>``
    - ``outlet_traction``: vector integrand on the outlet, ``<g, v>``
    - ``iface_mom``: vector integrand on the interface (momentum row)
    - ``iface_str``: vector integrand on the interface (structure row)
    - ``iface_darcy``: scalar integrand on the interface (Darcy row)
    - ``poroext_stress``: 2x2 stress tensor on the outer poroelastic sides,
      loading its traction ``<S n, xi>``; the tangential displacement is
      fixed there, so only ``(n.S n)(n.xi)`` reaches a free dof
    - ``poros_flux``: vector field whose normal component is the prescribed
      flux on the bottom boundary, contributing ``<g.n, r>``
    """

    inlet_traction: tuple = None
    outlet_traction: tuple = None
    iface_mom: tuple = None
    iface_str: tuple = None
    iface_darcy: Expr = None
    poroext_stress: tuple = None
    poros_flux: tuple = None

    def scaled(self, factor):
        """Every load multiplied by a constant factor."""
        return ExtraLoads(*(_map_nest(lambda e: factor * e, v)
                            for v in vars(self).values()))


@dataclass(frozen=True)
class ProblemData:
    """Right-hand-side data: volume forces, sources and inlet pressure."""

    f_f: tuple = None
    f_s: tuple = None
    f_p: Expr = None
    P_in: Expr = None
    extra: ExtraLoads = None

    def __post_init__(self):
        object.__setattr__(self, "f_f", _as_pair(self.f_f))
        object.__setattr__(self, "f_s", _as_pair(self.f_s))
        object.__setattr__(self, "f_p", _as_expr(self.f_p))
        object.__setattr__(self, "P_in", _as_expr(self.P_in))

    def _mapped(self, fn, extra=None):
        return ProblemData(*(_map_nest(fn, f) for f in (
            self.f_f, self.f_s, self.f_p, self.P_in)), extra=extra)

    def time_derivative(self):
        """Data with every field replaced by its exact time derivative."""
        return self._mapped(lambda e: e.diff("t"))

    def scaled(self, factor):
        """Data (including any extra loads) multiplied by a constant."""
        extra = None if self.extra is None else self.extra.scaled(factor)
        return self._mapped(lambda e: factor * e, extra)


@dataclass
class StateVector:
    """Coefficients of all unknowns (free dofs only) at one time."""

    t: float
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    theta: np.ndarray
    pi: np.ndarray


# ---------------------------------------------------------------------------
# volume assembly
# ---------------------------------------------------------------------------

def _geometry(mesh, tri_ids):
    """Affine map data per triangle: inverse Jacobian and |det J|."""
    tri = mesh.triangles[tri_ids]
    v0 = mesh.vertices[tri[:, 0]]
    e1 = mesh.vertices[tri[:, 1]] - v0
    e2 = mesh.vertices[tri[:, 2]] - v0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    jinv = np.empty((len(tri_ids), 2, 2))
    jinv[:, 0, 0] = e2[:, 1] / det
    jinv[:, 0, 1] = -e2[:, 0] / det
    jinv[:, 1, 0] = -e1[:, 1] / det
    jinv[:, 1, 1] = e1[:, 0] / det
    return v0, jinv, np.abs(det)


def _scalar_space_of(space):
    return space.scalar if isinstance(space, VectorSpace) else space


def _scatter(test_space, trial_space, terms, test_dofs=None,
             trial_dofs=None):
    """The free-dof operator ``sum_k c_k A_k``, ``A_k`` the sum of the
    element matrices ``cells`` (nc, nt, ns) of term ``(c_k, cells, a, b)`` on
    rows ``test_dofs + a N`` and columns ``trial_dofs + b N`` (``N`` a
    space's scalar dof count, so (a, b) is a component block; the dofs
    default to every cell's), the terms added by :func:`sparse_sum`.  Rows
    go through the test space's ``free_index`` before the sum, columns
    through the trial space's after it: scipy sums a row's duplicates in
    the order an unstable sort of the row leaves them, so dropping columns
    first could change the last bits of an entry."""
    n = test_space.n_free
    sct, scs = _scalar_space_of(test_space), _scalar_space_of(trial_space)
    test_dofs = sct.cell_dofs if test_dofs is None else test_dofs
    trial_dofs = scs.cell_dofs if trial_dofs is None else trial_dofs
    parts = []
    for coef, cells, a, b in terms:
        nt, ns = cells.shape[1:]
        rows = test_space.free_index[test_dofs + a * sct.ndof]
        rows = np.repeat(rows[:, :, None], ns, axis=2)
        cols = np.repeat(trial_dofs[:, None, :] + b * scs.ndof, nt, axis=1)
        keep = rows >= 0
        part = sp.coo_matrix((cells[keep], (rows[keep], cols[keep])),
                             shape=(n, trial_space.ndof)).tocsr()
        part.data *= coef
        parts.append(part)
    mat = parts[0] if len(parts) == 1 else sparse_sum(*parts)
    # the free index keeps the order of the free dofs, so rows stay sorted
    cols = trial_space.free_index[mat.indices]
    keep = cols >= 0
    indptr = np.concatenate([[0], np.cumsum(keep)])[mat.indptr]
    return sp.csr_matrix((mat.data[keep],
                          cols[keep].astype(mat.indices.dtype),
                          indptr.astype(mat.indptr.dtype)),
                         shape=(n, trial_space.n_free))


def _scatter_vector(dofs, values, n):
    """Sum ``values`` into a length-``n`` vector at the free dofs ``dofs``
    in index order; an entry at -1, a constrained dof, is dropped."""
    return np.bincount(np.ravel(dofs) + 1, weights=np.ravel(values),
                       minlength=n + 1)[1:]


def sparse_sum(*terms):
    """Sum of sparse matrices stored on the union of their patterns.

    ``A + B`` drops entries that come out exactly zero; this sum keeps them,
    so an operator scattered from element matrices stays stored on the dof
    coupling graph of the mesh whatever its values.  The LU ordering of the
    Newton matrix is chosen from that pattern alone.
    """
    coo = [sp.coo_matrix(t) for t in terms]
    mat = sp.coo_matrix(
        (np.concatenate([c.data for c in coo]),
         (np.concatenate([c.row for c in coo]),
          np.concatenate([c.col for c in coo]))),
        shape=coo[0].shape).tocsr()
    # copies, or the sums keep the arrays of every term's entries alive
    mat.data, mat.indices = mat.data.copy(), mat.indices.copy()
    return mat


CellQuadrature = namedtuple("CellQuadrature", "x y wdet jinv rule")
_CELL_QUADRATURE = weakref.WeakKeyDictionary()


def cell_quadrature(mesh, subdomain, order):
    """The rule of ``order`` on the cells of ``subdomain`` (None: all cells).

    Physical points ``x``, ``y`` and weights times |det J| ``wdet``, all
    (nc, nq), and the inverse Jacobian ``jinv`` of every cell.  They are
    fixed for a mesh, so they are built on first use, read-only, and kept as
    long as the mesh lives: every load, data norm and error norm at that
    order reads the same arrays.
    """
    per_mesh = _CELL_QUADRATURE.setdefault(mesh, {})
    key = (subdomain, int(order))
    if key not in per_mesh:
        tri_ids = (np.arange(mesh.num_triangles) if subdomain is None
                   else mesh.triangles_with_tag(subdomain))
        rule = triangle_rule(order)
        v0, jinv, det = _geometry(mesh, tri_ids)
        tri = mesh.triangles[tri_ids]
        e1, e2 = (mesh.vertices[tri[:, k]] - v0 for k in (1, 2))
        x, y = (v0[:, None, d] + rule.points[:, 0] * e1[:, None, d]
                + rule.points[:, 1] * e2[:, None, d] for d in range(2))
        per_mesh[key] = CellQuadrature(x, y, rule.weights * det[:, None],
                                       jinv, rule)
        for array in per_mesh[key][:4]:
            array.setflags(write=False)
    return per_mesh[key]


@lru_cache(maxsize=None)
def _rule_values(kind, order):
    """Basis values of ``kind`` at the points of ``triangle_rule(order)``."""
    vals, _ = basis_eval(kind, triangle_rule(order).points)
    vals.setflags(write=False)
    return vals


# Every entry of a P1/P2 reference-triangle table below is an integer
# multiple of 1/2520: the integrands are integer polynomials of total degree
# <= 5 in the barycentric coordinates, and int l0^a l1^b l2^c over the
# reference triangle is a! b! c! / (a + b + c + 2)!.  Quadrature sums are
# snapped to that grid.
_TABLE_DENOMINATOR = 2520
_POLY_DEGREE = {ElementKind.P1: 1, ElementKind.P2: 2}
# (trial factors, derivatives) of each table's integrand
_TABLE_FORM = {"mass": (1, 0), "grad": (1, 1), "gradgrad": (1, 2),
               "trilinear": (2, 1)}


def _table_sum(table, test_kind, trial_kind, rule):
    """A reference-triangle table summed with ``rule``."""
    vt, gt = basis_eval(test_kind, rule.points)
    vs, gs = basis_eval(trial_kind, rule.points)
    if table == "mass":
        return np.einsum("q,qi,qj->ij", rule.weights, vt, vs)
    if table == "grad":
        return np.einsum("q,qi,qjk->kij", rule.weights, vt, gs)
    if table == "gradgrad":
        return np.einsum("q,qik,qjl->klij", rule.weights, gt, gs)
    return np.einsum("q,qi,qj,qlk->kijl", rule.weights, vt, vs, gs)


@lru_cache(maxsize=None)
def _reference_table(table, test_kind, trial_kind):
    """Exact reference-triangle table of two scalar element kinds.

    ``"mass"`` is ``M[i, j] = int N_i M_j`` (test ``N``, trial ``M``),
    ``"grad"`` is ``G[k, i, j] = int N_i d_k M_j``, ``"gradgrad"`` is
    ``S[k, l, i, j] = int d_k N_i d_l M_j`` and ``"trilinear"`` is
    ``T[k, i, j, l] = int N_i M_j d_k M_l``, with ``d_k`` the derivative in
    reference coordinate ``k``.  The table is summed with the lowest rule
    exact for its integrand's degree and snapped to its exact rational
    value.  A sum off that grid, or one that differs from the sum with the
    next higher rule, means the rule was not exact and raises
    ``ValueError``: the grid alone cannot tell, since a rule one degree too
    low can land on it.
    """
    factors, derivatives = _TABLE_FORM[table]
    degree = (_POLY_DEGREE[test_kind] + factors * _POLY_DEGREE[trial_kind]
              - derivatives)
    summed = _table_sum(table, test_kind, trial_kind,
                        triangle_rule(max(degree, 1)))
    higher = _table_sum(table, test_kind, trial_kind,
                        triangle_rule(degree + 1))
    scaled = summed * _TABLE_DENOMINATOR
    snapped = np.rint(scaled)
    if np.abs(scaled - snapped).max() > 1e-9:
        raise ValueError("the %s table is not a multiple of 1/%d"
                         % (table, _TABLE_DENOMINATOR))
    if np.abs(summed - higher).max() > 1e-12:
        raise ValueError("the %s table changes with a higher rule" % table)
    # + 0.0 turns the -0.0 of an entry summed to a tiny negative into 0.0,
    # so the table's bits do not depend on the rule
    exact = snapped / _TABLE_DENOMINATOR + 0.0
    exact.setflags(write=False)
    return exact


def _components(space):
    """The component indices of a space: two for a vector space."""
    return range(2 if isinstance(space, VectorSpace) else 1)


def mass(space):
    """(u, v) on a scalar or component-blocked vector space.

    The element matrices are ``|det J| M_ref`` with ``M_ref`` the exact
    reference mass matrix, so exact zeros stay zero and each is bitwise
    symmetric.
    """
    sc = _scalar_space_of(space)
    _, _, det = _geometry(sc.mesh, sc.tri_ids)
    m = det[:, None, None] * _reference_table("mass", sc.kind, sc.kind)
    return _scatter(space, space,
                    [(1.0, m, c, c) for c in _components(space)])


def _phys_grads(space, jinv, rule):
    """Physical basis gradients, shape (nc, nq, ndof_local, 2)."""
    _, grads = basis_eval(space.kind, rule.points)
    return np.einsum("qik,ckj->cqij", grads, jinv, optimize=True)


def _grad_products(space, g=None):
    """``g``, or the element matrices ``G[a][b]`` of (d_a N_i, d_b N_j) on
    the cells of a space's scalar space.

    Index convention: ``G[a][b][c, i, j] = int (d x_a N_i)(d x_b N_j)`` over
    cell ``c`` with the test function first.  On an affine triangle that is
    ``|det J| sum_kl Jinv[k, a] Jinv[l, b] S_kl`` with ``S_kl`` the exact
    reference gradient-product tables.  Every symmetric-gradient, div-div,
    stiffness and ``K``-gradient form scatters a combination of these four.
    The symmetric-gradient and div-div forms take them as ``g``, so one
    evaluation serves both parts of ``Bs``, and evaluate them themselves
    when ``g`` is omitted.
    """
    if g is not None:
        return g
    sc = _scalar_space_of(space)
    _, jinv, det = _geometry(sc.mesh, sc.tri_ids)
    ref = _reference_table("gradgrad", sc.kind, sc.kind)
    return [[sum((det * jinv[:, k, a] * jinv[:, l, b])[:, None, None]
                 * ref[k, l] for k in range(2) for l in range(2))
             for b in range(2)] for a in range(2)]


def vector_symgrad(space, g=None):
    """(D(u), D(v)) with D the symmetric gradient."""
    g = _grad_products(space, g)
    return _scatter(space, space, [
        (1.0, g[0][0], 0, 0), (0.5, g[1][1], 0, 0), (0.5, g[1][0], 0, 1),
        (0.5, g[0][1], 1, 0), (1.0, g[1][1], 1, 1), (0.5, g[0][0], 1, 1)])


def vector_divdiv(space, g=None):
    """(div u, div v)."""
    g = _grad_products(space, g)
    return _scatter(space, space, [(1.0, g[a][b], a, b)
                                   for a in range(2) for b in range(2)])


def scalar_kgrad(space, K):
    """(K grad u, grad v) for a constant 2x2 tensor K."""
    g = _grad_products(space)
    K = np.asarray(K, dtype=float)
    # test gradient contracted against K times trial gradient:
    # sum_ab K[a, b] (d_a v, d_b u) -- K symmetric, so order is immaterial.
    return _scatter(space, space, [(K[a, b], g[a][b], 0, 0)
                                   for a in range(2) for b in range(2)])


def stiffness(space):
    """(grad u, grad v), the H1 seminorm product (componentwise on a
    vector space)."""
    g = _grad_products(space)
    return _scatter(space, space, [(1.0, g[k][k], c, c)
                                   for c in _components(space)
                                   for k in range(2)])


def mixed_div(scalar_space, vector_space):
    """(q_i, div v_j): scalar test rows, vector trial columns.

    On an affine triangle the block of component ``d`` is
    ``|det J| sum_k Jinv[k, d] G_k`` with ``G_k`` the exact reference tables
    (q_i, d_k N_j).
    """
    if not np.array_equal(scalar_space.tri_ids, vector_space.tri_ids):
        raise ValueError("test and trial spaces must share the same triangles")
    _, jinv, det = _geometry(scalar_space.mesh, scalar_space.tri_ids)
    ref = _reference_table("grad", scalar_space.kind, vector_space.scalar.kind)
    return _scatter(scalar_space, vector_space, [
        (1.0, sum((det * jinv[:, k, d])[:, None, None] * ref[k]
                  for k in range(2)), 0, d) for d in range(2)])


def div_pressure(vector_space, scalar_space):
    """(r_j, div xi_i): vector test rows, scalar trial columns."""
    return mixed_div(scalar_space, vector_space).T.tocsr()


# ---------------------------------------------------------------------------
# facet (trace) assembly
# ---------------------------------------------------------------------------

def facet_trace(mesh, facets, tris, order):
    """Gauss points of a batch of facets, each seen from one adjacent triangle.

    Returns ``(x, ref, wts, normals)``: the physical points ``x`` (nf, nq, 2),
    their reference coordinates inside ``tris[f]`` (nf, nq, 2), the interval
    rule's weights times the facet length (nf, nq) and the unit normal of
    each facet pointing out of its triangle (nf, 2).
    """
    facets = np.asarray(facets, dtype=int)
    tris = np.asarray(tris, dtype=int)
    s, w = interval_rule(order)
    pa = mesh.vertices[mesh.facets[facets, 0]]
    e = mesh.vertices[mesh.facets[facets, 1]] - pa
    x = pa[:, None, :] + s[None, :, None] * e[:, None, :]
    length = np.hypot(e[:, 0], e[:, 1])
    tri = mesh.triangles[tris]
    v0 = mesh.vertices[tri[:, 0]]
    e1 = (mesh.vertices[tri[:, 1]] - v0)[:, None, :]
    e2 = (mesh.vertices[tri[:, 2]] - v0)[:, None, :]
    det = e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0]
    d = x - v0[:, None, :]
    # Cramer's rule on the edge vectors: a pull-back through _geometry's Jinv
    # rounds differently in the last bits
    ref = np.stack([(e2[..., 1] * d[..., 0] - e2[..., 0] * d[..., 1]) / det,
                    (-e1[..., 1] * d[..., 0] + e1[..., 0] * d[..., 1]) / det],
                   axis=-1)
    normals = mesh.facet_normals(facets, tris)
    return x, ref, w[None, :] * length[:, None], normals


def _cell_dofs(space, tris):
    """Global dofs of each triangle of ``tris`` in ``space`` (nf, nloc).

    Vector spaces give both components, component-blocked like the basis.
    """
    sc = _scalar_space_of(space)
    tris = np.asarray(tris, dtype=int)
    outside = ~np.isin(tris, sc.tri_ids)
    if np.any(outside):
        raise ValueError("triangle %d is not in the space's subdomain"
                         % tris[outside][0])
    dofs = sc.cell_dofs[np.searchsorted(sc.tri_ids, tris)]
    if isinstance(space, VectorSpace):
        return np.concatenate([dofs, dofs + sc.ndof], axis=1)
    return dofs


def _trace_basis(kind, ref):
    """``basis_eval`` at trace points ``ref`` (nf, nq, 2), keeping both axes."""
    vals, grads = basis_eval(kind, ref.reshape(-1, 2))
    return (vals.reshape(ref.shape[:2] + vals.shape[1:]),
            grads.reshape(ref.shape[:2] + grads.shape[1:]))


FacetQuadrature = namedtuple("FacetQuadrature", "x wts normals vals dofs")
_FACET_QUADRATURE = weakref.WeakKeyDictionary()


def facet_quadrature(space, facets, tris, order):
    """:func:`facet_trace` plus the space's basis values ``vals`` at the
    points and the ``dofs`` of every ``tris[f]``; built once per (element
    kind, subdomain, facets, tris, order) and read-only, like
    :func:`cell_quadrature`, so a facet load only evaluates its data."""
    facets = np.asarray(facets, dtype=int)
    tris = np.asarray(tris, dtype=int)
    per_mesh = _FACET_QUADRATURE.setdefault(space.mesh, {})
    key = (space.kind, _scalar_space_of(space).subdomain, facets.tobytes(),
           tris.tobytes(), int(order))
    if key not in per_mesh:
        x, ref, wts, normals = facet_trace(space.mesh, facets, tris, order)
        vals, _ = _trace_basis(space.kind, ref)
        per_mesh[key] = FacetQuadrature(x, wts, normals, vals,
                                        _cell_dofs(space, tris))
        for array in per_mesh[key]:
            array.setflags(write=False)
    return per_mesh[key]


def facet_gradients(space, facets, tris, order):
    """The space's physical basis gradients (derivative axis last) at the
    points of :func:`facet_quadrature`.  Not cached: only the interface
    residuals of a finished run read them."""
    _, ref, _, _ = facet_trace(space.mesh, facets, tris, order)
    _, grads = _trace_basis(space.kind, ref)
    _, jinv, _ = _geometry(space.mesh, np.asarray(tris, dtype=int))
    return np.einsum("fqi...k,fkj->fqi...j", grads, jinv)


def facet_matrix(test_space, trial_space, facets, test_tris, trial_tris,
                 directions=None):
    """sum_f int_f phi_i psi_j ds over the given facets, on free dofs.

    Each space is traced from its own triangle of every facet; a vector
    basis function enters through its component along ``directions[f]``.
    """
    values, dofs = [], []
    for space, tris in ((test_space, test_tris), (trial_space, trial_tris)):
        q = facet_quadrature(space, facets, tris, FACET_ORDER)
        values.append(np.einsum("fqik,fk->fqi", q.vals, directions)
                      if isinstance(space, VectorSpace) else q.vals)
        dofs.append(q.dofs)
    cells = np.einsum("fq,fqi,fqj->fij", q.wts, *values)
    return _scatter(test_space, trial_space, [(1.0, cells, 0, 0)], *dofs)


def interface_tangents(normals):
    """Unit tangents obtained by rotating the normals a quarter turn."""
    t = np.column_stack([-normals[:, 1], normals[:, 0]])
    return t


# ---------------------------------------------------------------------------
# load vectors
# ---------------------------------------------------------------------------

def _rank(field):
    """0 for an expression, 1 for a pair, 2 for a 2x2 nest."""
    return 0 if isinstance(field, Expr) else 1 + _rank(field[0])


def _rank_excess(field, space, allowed):
    excess = _rank(field) - isinstance(space, VectorSpace)
    if excess not in allowed:
        raise ValueError("a rank-%d field cannot load a %s test space"
                         % (_rank(field), space.kind.value))
    return excess


def _field_values(field, x, y, t):
    """A field's values at the points ``x``, ``y``, its tensor axes last."""
    if isinstance(field, Expr):
        return field(x, y, t)
    return np.stack([_field_values(f, x, y, t) for f in field], axis=x.ndim)


def load_volume(space, field, t):
    """(f, v) on free dofs over the cells of ``space``, ``f`` of its rank."""
    _rank_excess(field, space, (0,))
    sc = _scalar_space_of(space)
    q = cell_quadrature(space.mesh, sc.subdomain, LOAD_ORDER)
    vt = _rule_values(sc.kind, LOAD_ORDER)
    vector = isinstance(space, VectorSpace)
    cells = np.stack([(q.wdet * e(q.x, q.y, t)) @ vt
                      for e in (field if vector else (field,))], axis=1)
    dofs = space.cell_dofs_vector() if vector else space.cell_dofs
    return _scatter_vector(space.free_index[dofs], cells, space.n_free)


def load_facet(space, facets, tris, field, t):
    """<g, v> on free dofs over facets, each seen from its triangle in
    ``tris``, with ``g`` the field brought to the space's rank by the
    outward normal ``n``: contracted with ``n`` from one rank above (``g.n``,
    ``S n``), multiplied by ``n`` from one rank below (``P n``)."""
    excess = _rank_excess(field, space, (-1, 0, 1))
    q = facet_quadrature(space, facets, tris, LOAD_ORDER)
    g = _field_values(field, q.x[..., 0], q.x[..., 1], t)
    if excess == 1:
        g = np.einsum("fq...k,fk->fq...", g, q.normals)
    elif excess == -1:
        g = g[..., None] * q.normals[:, None, :]
    # a scalar space has one component
    local = np.einsum("fq,fqik,fqk->fi", q.wts,
                      q.vals.reshape(q.vals.shape[:3] + (-1,)),
                      g.reshape(q.wts.shape + (-1,)))
    return _scatter_vector(space.free_index[q.dofs], local, space.n_free)


# ---------------------------------------------------------------------------
# block system
# ---------------------------------------------------------------------------

def _boundary_facet_tris(mesh, facet_ids):
    """The unique adjacent triangle of each boundary facet."""
    tris = mesh.facet_tris[facet_ids]
    out = np.where(tris[:, 0] >= 0, tris[:, 0], tris[:, 1])
    if np.any(out < 0) or np.any(tris.min(axis=1) >= 0):
        raise ValueError("facets are not boundary facets")
    return out


class _Convection:
    """The convection term ``rho_f ((u . grad) u, v)`` and its Jacobian.

    On an affine cell both are contractions of the exact reference table
    ``T[r, i, j, l] = int N_i N_j d_r N_l`` with ``G = |det J| Jinv`` and the
    cell's velocity coefficients ``U[j, m]`` (scalar dof ``j``, component
    ``m``).  ``W[r, j] = sum_m G[r, m] U[j, m]`` is the convecting velocity
    along reference direction ``r``, and the cell operator
    ``A[i, l] = sum_rj T[r, i, j, l] W[r, j]`` is ``int N_i (u . grad) N_l``,
    so the cell residual is ``rho_f A U``.  The skew form adds
    ``(div u) u / 2``, i.e. ``sum_rl T[r, i, j, l] W[r, l] / 2`` to ``A``.
    The Jacobian is ``A`` on both diagonal component blocks plus the
    derivative through ``W``.

    The cell dofs go through the space's ``free_index``: a constrained dof
    reads a zero appended to ``alpha``.  The Jacobian's free-dof CSR pattern
    and the slot of every element entry in it are built once: the pattern
    is the full velocity coupling graph, exact zeros included, so the LU
    ordering of the Newton matrix never depends on the velocity, and a call
    fills only ``data``.  An entry on a constrained dof goes to the dump
    slot ``nnz`` past the pattern's end.
    """

    def __init__(self, space, rho_f, skew):
        self.rho_f = rho_f
        sc = space.scalar
        _, jinv, det = _geometry(space.mesh, sc.tri_ids)
        self.geom = det[:, None, None] * jinv            # G[c, r, m]
        table = _reference_table("trilinear", sc.kind, sc.kind)
        nloc = table.shape[1]
        # A = W (rows (r, j)) times the operator table (columns (i, l));
        # the Jacobian through W contracts U against the last axis of the
        # Jacobian table (rows (r, i, l'))
        op = table.transpose(0, 2, 1, 3)
        jac = table
        if skew:
            op = op + 0.5 * table.transpose(0, 3, 1, 2)
            jac = jac + 0.5 * table.transpose(0, 1, 3, 2)
        self.op_table = op.reshape(2 * nloc, nloc * nloc)
        self.jac_table = jac.reshape(2 * nloc * nloc, nloc)
        self.nloc = nloc
        # (nc, 2 * nloc) free numbers, -1 on a constrained dof
        fdofs = self.cell_dofs = space.free_index[space.cell_dofs_vector()]

        n = space.n_free
        rows = np.repeat(fdofs[:, :, None], 2 * nloc, axis=2)
        cols = np.repeat(fdofs[:, None, :], 2 * nloc, axis=1)
        keep = (rows >= 0) & (cols >= 0)
        keys, slot = np.unique(rows[keep] * n + cols[keep],
                               return_inverse=True)
        self.jac_slot = np.full(keep.size, len(keys))
        self.jac_slot[keep.ravel()] = slot
        indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        self.pattern = sp.csr_matrix((np.zeros(len(keys)), keys % n, indptr),
                                     shape=(n, n))
        self.pattern.indices.setflags(write=False)
        self.pattern.indptr.setflags(write=False)

    def __call__(self, alpha, jac=False):
        """Return (N(alpha), J) on free dofs; J is None if not asked."""
        nloc = self.nloc
        u = np.append(alpha, 0.0)
        ucomp = u[self.cell_dofs].reshape(-1, 2, nloc)    # U[c, m, j]
        nc = len(ucomp)
        w = (self.geom @ ucomp).reshape(nc, 2 * nloc)     # W[c, (r, j)]
        op = (w @ self.op_table).reshape(nc, nloc, nloc)  # A[c, i, l]
        cells = self.rho_f * (ucomp @ op.transpose(0, 2, 1))  # [c, k, i]
        residual = _scatter_vector(self.cell_dofs, cells, len(alpha))
        if not jac:
            return residual, None

        # through W: sum_r G[r, d] T[r, i, l', l] U[l, k] as [c, (i, l', k), d]
        tw = self.jac_table @ ucomp.transpose(0, 2, 1)    # [c, (r, i, l'), k]
        tw = tw.reshape(nc, 2, -1).transpose(0, 2, 1) @ self.geom
        local = tw.reshape(nc, nloc, nloc, 2, 2).transpose(0, 3, 1, 4, 2)
        for k in range(2):
            local[:, k, :, k, :] += op
        local = self.rho_f * local.reshape(nc, 4 * nloc * nloc)
        nnz = self.pattern.nnz
        data = np.bincount(self.jac_slot, local.ravel(), minlength=nnz + 1)
        data = data[:nnz]
        jmat = sp.csr_matrix((data, self.pattern.indices, self.pattern.indptr),
                             shape=self.pattern.shape)
        return residual, jmat


# the operators that only the constants and the certificate read, built
# together on the first read of any of them (see BlockSystem)
CERTIFICATE_OPERATORS = ("mass_q", "stiff_u", "stiff_d", "stiff_p")


@dataclass
class BlockSystem:
    """The assembled operators of the coupled problem on free dofs.

    The fields are the forms the time stepper reads (``mass_u`` to
    ``Gdiv``, see the module docstring) and the convection term, built by
    :func:`assemble_system`.  The four :data:`CERTIFICATE_OPERATORS` that no
    solver term contains, ``mass_q`` and the stiffnesses ``stiff_u``,
    ``stiff_d``, ``stiff_p``, are built together on the first read of any
    of them and then kept as attributes of the same names, so a run that
    never reads them (a time stepper alone) never holds them.  An H1
    product is read as a mass plus a stiffness.
    """

    dm: object
    params: PhysicalParams
    convection_enabled: bool
    mass_u: sp.csr_matrix
    visc_u: sp.csr_matrix
    slip_u: sp.csr_matrix
    mass_d: sp.csr_matrix
    mass_p: sp.csr_matrix
    Bs: sp.csr_matrix
    Bp: sp.csr_matrix
    C: sp.csr_matrix
    D: sp.csr_matrix
    E: sp.csr_matrix
    F: sp.csr_matrix
    Gdiv: sp.csr_matrix
    _convection: object = None

    def __getattr__(self, name):
        # reached only for an attribute not set yet
        if name not in CERTIFICATE_OPERATORS:
            raise AttributeError("%r object has no attribute %r"
                                 % (type(self).__name__, name))
        vars(self).update(_certificate_operators(self.dm))
        return vars(self)[name]

    @property
    def n_alpha(self):
        return self.mass_u.shape[0]

    @property
    def n_beta(self):
        return self.mass_d.shape[0]

    @property
    def n_gamma(self):
        return self.mass_p.shape[0]

    @property
    def n_pi(self):
        return self.Gdiv.shape[0]

    def convection(self, alpha, jac=False):
        """(N(alpha), J(alpha)) on free dofs; zero when convection is off."""
        if not self.convection_enabled:
            z = np.zeros_like(alpha)
            if jac:
                n = len(alpha)
                return z, sp.csr_matrix((n, n))
            return z, None
        return self._convection(alpha, jac)

    def zero_state(self, t=0.0):
        return StateVector(
            t=t,
            alpha=np.zeros(self.n_alpha),
            beta=np.zeros(self.n_beta),
            gamma=np.zeros(self.n_gamma),
            theta=np.zeros(self.n_beta),
            pi=np.zeros(self.n_pi),
        )

    def energy(self, state):
        """E = (rho_f |u|^2 + rho_s |eta_t|^2 + s0 |w|^2 + beta'Bs beta)/2."""
        p, a, th, g = self.params, state.alpha, state.theta, state.gamma
        return 0.5 * (p.rho_f * _dots(a, self.mass_u @ a)
                      + p.rho_s * _dots(th, self.mass_d @ th)
                      + p.s0 * _dots(g, self.mass_p @ g)
                      + _dots(state.beta, self.Bs @ state.beta))

    def dissipation(self, state):
        """2 mu_f |D(u)|^2 + beta |(u - eta_t).t|^2_I + |K^1/2 grad w|^2."""
        a, th, g = state.alpha, state.theta, state.gamma
        visc = 2.0 * self.params.mu_f * _dots(a, self.visc_u @ a)
        slip = (_dots(a, self.slip_u @ a) - 2.0 * _dots(a, self.E @ th)
                + _dots(th, self.F @ th))
        darcy = _dots(g, self.Bp @ g)
        return visc + slip + darcy

    def work(self, loads, state):
        a, b, c = loads
        return (_dots(a, state.alpha) + _dots(b, state.theta)
                + _dots(c, state.gamma))


def _dots(x, y):
    """x . y, column by column when x and y hold one vector per column, so
    the forms above also take a stack of states and give one per column."""
    return np.einsum("i...,i...->...", x, y)


def assemble_system(mesh, params, convection=True, skew=False):
    """Assemble the operators of the coupled problem on ``mesh``.

    Builds the forms the time stepper reads and the convection term; the
    :data:`CERTIFICATE_OPERATORS` are built on their first read (see
    :class:`BlockSystem`).  Every form is scattered on free dofs, and each
    space's gradient products are evaluated once for all of its forms.
    """
    dm = build_dofmaps(mesh)
    V, Q = dm.velocity, dm.pressure_f
    W, R = dm.displacement, dm.pressure_p
    p = params

    ifacets, normals = mesh.interface_facets, mesh.interface_normals
    iftri, iptri = mesh.interface_fluid_tri, mesh.interface_poro_tri
    tangents = interface_tangents(normals)

    visc_u = vector_symgrad(V)
    slip_u = p.beta_slip * facet_matrix(V, V, ifacets, iftri, iftri, tangents)
    mass_u = mass(V)
    Gdiv = mixed_div(Q, V)

    g = _grad_products(W)
    Bs = sparse_sum(2.0 * p.mu_s * vector_symgrad(W, g),
                    p.lambda_s * vector_divdiv(W, g))
    del g
    mass_d = mass(W)
    mass_p = mass(R)
    Bp = scalar_kgrad(R, p.K)

    C = sparse_sum(p.alpha_bw * div_pressure(W, R),
                   facet_matrix(W, R, ifacets, iptri, iptri, normals))
    D = facet_matrix(V, R, ifacets, iftri, iptri, normals)
    E = p.beta_slip * facet_matrix(V, W, ifacets, iftri, iptri, tangents)
    F = p.beta_slip * facet_matrix(W, W, ifacets, iptri, iptri, tangents)

    blocks = BlockSystem(
        dm=dm, params=params, convection_enabled=convection,
        mass_u=mass_u, visc_u=visc_u, slip_u=slip_u, mass_d=mass_d,
        mass_p=mass_p, Bs=Bs, Bp=Bp, C=C, D=D, E=E, F=F, Gdiv=Gdiv,
    )
    if convection:
        blocks._convection = _Convection(V, p.rho_f, skew)
    return blocks


def _certificate_operators(dm):
    """The :data:`CERTIFICATE_OPERATORS` of ``dm`` by name."""
    return {"mass_q": mass(dm.pressure_f), "stiff_u": stiffness(dm.velocity),
            "stiff_d": stiffness(dm.displacement),
            "stiff_p": stiffness(dm.pressure_p)}


# the (dof-map space, facet tag) each ExtraLoads field loads
_EXTRA_LOAD_SITES = {
    "inlet_traction": ("velocity", meshmod.FLUID_INLET),
    "outlet_traction": ("velocity", meshmod.FLUID_OUTLET),
    "iface_mom": ("velocity", meshmod.INTERFACE),
    "iface_str": ("displacement", meshmod.INTERFACE),
    "iface_darcy": ("pressure_p", meshmod.INTERFACE),
    "poroext_stress": ("displacement", meshmod.PORO_EXTERNAL),
    "poros_flux": ("pressure_p", meshmod.PORO_SOLID),
}


def _facet_side(mesh, space, tag):
    """The facets of ``tag`` and, for each, its triangle in ``space``."""
    facets = mesh.facets_with_tag(tag)
    if tag != meshmod.INTERFACE:
        return facets, _boundary_facet_tris(mesh, facets)
    fluid = _scalar_space_of(space).subdomain == meshmod.FLUID
    return facets, (mesh.interface_fluid_tri if fluid
                    else mesh.interface_poro_tri)


# the spaces of the three right-hand sides (a, b, c), in order
_LOAD_SPACES = ("velocity", "displacement", "pressure_p")
_LOAD_TABLES = weakref.WeakKeyDictionary()


def _load_sites(data):
    """(space name, facet tag or None for the cells, field) of every load."""
    extra = vars(data.extra or ExtraLoads())
    return ([(name, None, f) for name, f in
             zip(_LOAD_SPACES, (data.f_f, data.f_s, data.f_p))]
            + [("velocity", meshmod.FLUID_INLET, -data.P_in)]
            + [_EXTRA_LOAD_SITES[key] + (field,)
               for key, field in extra.items() if field is not None])


def _site_load(dm, name, tag, field, t):
    """The free-dof load of ``field`` on the cells or facets of one site."""
    space = getattr(dm, name)
    if tag is None:
        return load_volume(space, field, t)
    facets, tris = _facet_side(dm.mesh, space, tag)
    if not len(facets):
        return np.zeros(space.n_free)
    return load_facet(space, facets, tris, field, t)


def _separated(field):
    """``{time factor: space field}`` of an expression, a pair or a 2x2
    nest (see :func:`separate`), each space field in the field's nesting
    with zero where a component has no term of that factor."""
    if isinstance(field, Expr):
        return dict(separate(field))
    parts = [_separated(f) for f in field]
    return {tau: tuple(part.get(tau, _map_nest(lambda e: ZERO, f))
                       for part, f in zip(parts, field))
            for tau in dict.fromkeys(tau for part in parts for tau in part)}


def _depends_on_t(field):
    if isinstance(field, Expr):
        return "t" in field.variables
    return any(_depends_on_t(f) for f in field)


def _load_table(data, dm):
    """Per load space: the time factors ``tau``, the matrix ``B`` whose row
    ``j`` is the free-dof load of every space field of ``tau[j]``, and the
    space-time terms ``(tau, tag, field)`` a load evaluates at its time.

    Built on first use for a mesh and data set and kept as long as the mesh
    lives, like :func:`cell_quadrature`: the dof maps of a mesh are fixed.
    """
    per_mesh = _LOAD_TABLES.setdefault(dm.mesh, {})
    if data not in per_mesh:
        rows = {name: {} for name in _LOAD_SPACES}
        mixed = {name: [] for name in _LOAD_SPACES}
        for name, tag, field in _load_sites(data):
            for tau, space_field in _separated(field).items():
                if _depends_on_t(space_field):
                    mixed[name].append((tau, tag, space_field))
                    continue
                load = _site_load(dm, name, tag, space_field, 0.0)
                rows[name][tau] = rows[name].get(tau, 0.0) + load
        per_mesh[data] = {name: (
            tuple(rows[name]),
            np.array(list(rows[name].values())).reshape(
                len(rows[name]), getattr(dm, name).n_free),
            mixed[name]) for name in _LOAD_SPACES}
    return per_mesh[data]


def assemble_loads(t, data, dm):
    """Assemble the free-dof right-hand sides (a, b, c) at time ``t``.

    Each is ``tau(t) @ B`` from the tables of :func:`_load_table`, plus the
    load of any term that does not separate in time, evaluated at ``t``.
    """
    loads = []
    for name, (taus, table, mixed) in _load_table(data, dm).items():
        load = np.array([tau(t=t) for tau in taus]) @ table
        for tau, tag, field in mixed:
            load += tau(t=t) * _site_load(dm, name, tag, field, t)
        loads.append(load)
    return tuple(loads)

