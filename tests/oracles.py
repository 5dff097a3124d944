"""Independent reference computations used by the test suite.

Everything here is deliberately written against a different code path than
the package: element matrices and reference tables come from exact symbolic
integration, the convection term from per-cell Gauss quadrature, trace
integrals from a hand-rolled Gauss loop, extremal pencil eigenvalues from a
dense LAPACK solve (on explicitly formed Schur complements where the package
works matrix-free or on the full space), the energy certificate from a
loop over states with one scalar data-norm call per time, the loads and
data norms with every field evaluated on the quadrature points at every
time where the package splits each field once into time factors times
space fields, the five residual rows written out by hand and the Newton
matrix on all five unknowns where the package reads one table of linear
terms and condenses the kinematic row, and data expressions by a
recursive tree walk that shares nothing where the package evaluates each
distinct node once, and the |v|^4 form of the Sobolev ascent by ``einsum``
where the package uses two matmuls, and one time step re-solved on the
divergence-free subspace by a dense Newton iteration where the package
solves the saddle-point system, and every operator of the block system
assembled eagerly on all dofs of unconstrained copies of the spaces and
then sliced to the free dofs, each form with its own gradient products,
where the package scatters straight onto the free dofs and builds the
certificate's operators on first read, and the mesh's structured generator
and edge table cell by cell, with a dict of vertex pairs, where the
package uses index arithmetic and sorted edge keys.
The module also holds the refinement helpers behind the constants
criterion, the CSV reader of the result tables, which no command uses,
``recorded_run``, which collects every state of a run through its
``on_step`` for the tests that read whole trajectories, and two data sets:
the README example's and one whose fields mix time and space.
Tests compare the production code against these.
"""

import csv
import operator
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import sympy as sym

from fpsi import assembly as asm
from fpsi import constants as cst
from fpsi import mesh as meshmod
from fpsi import monitor as mon
from fpsi.assembly import (PhysicalParams, ProblemData, StateVector,
                           _geometry, _phys_grads, _rule_values,
                           _scatter_vector, assemble_loads, assemble_system,
                           cell_quadrature, facet_matrix, mass, stiffness)
from fpsi.expressions import Cos, PI, Sin, X, Y
from fpsi.expressions import parse_expression as pe
from fpsi.fem import (DofMap, ElementKind, VectorSpace, basis_eval,
                      build_dofmaps, make_scalar_space, make_vector_space,
                      triangle_rule)
from fpsi.mesh import Mesh
from fpsi.monitor import CertificateReport
from fpsi.timestepper import (SchemeConfig, _jacobian, _pack, _residual_rows,
                              _unpack, run, step)
from fpsi.verify import CASE_IDS, manufactured_case


def one_triangle_mesh(coords):
    """A mesh holding a single counterclockwise fluid triangle."""
    v = np.asarray(coords, dtype=float)
    area2 = ((v[1, 0] - v[0, 0]) * (v[2, 1] - v[0, 1])
             - (v[2, 0] - v[0, 0]) * (v[1, 1] - v[0, 1]))
    if area2 < 0.0:
        v = v[[0, 2, 1]]
    tris = [[0, 1, 2]]
    facets = [(0, 1), (1, 2), (2, 0)]
    tags = [meshmod.FLUID_EXTERNAL] * 3
    return Mesh(v, tris, [meshmod.FLUID], facets, tags)


def random_rational_triangle(rng, denom=8):
    """Random counterclockwise triangle with rational vertex coordinates."""
    while True:
        nums = rng.integers(-2 * denom, 2 * denom + 1, size=(3, 2))
        v = nums / denom
        area2 = ((v[1, 0] - v[0, 0]) * (v[2, 1] - v[0, 1])
                 - (v[2, 0] - v[0, 0]) * (v[1, 1] - v[0, 1]))
        if abs(area2) > 0.25:
            if area2 < 0.0:
                nums = nums[[0, 2, 1]]
            return [[sym.Rational(int(n), denom) for n in row] for row in nums]


def _sympy_basis(degree, xi, eta):
    """P1/P2 Lagrange basis on the reference triangle, in the package order."""
    l0, l1, l2 = 1 - xi - eta, xi, eta
    if degree == 1:
        return [l0, l1, l2]
    if degree == 2:
        return [
            l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
            4 * l0 * l1, 4 * l1 * l2, 4 * l2 * l0,
        ]
    raise ValueError(degree)


def sympy_trilinear_table():
    """Exact ``T[r, i, j, l] = int N_i N_j d_r N_l`` of P2 on the reference
    triangle, by symbolic integration of each monomial."""
    xi, eta = sym.symbols("xi eta", nonnegative=True)
    basis = _sympy_basis(2, xi, eta)

    def integral(expr):
        # int_0^1 int_0^(1-xi) xi^a eta^b = a! b! / (a + b + 2)!
        return sum(c * sym.factorial(a) * sym.factorial(b)
                   / sym.factorial(a + b + 2)
                   for (a, b), c in sym.Poly(expr, xi, eta).terms())

    n = len(basis)
    table = np.zeros((2, n, n, n))
    for r, var in enumerate((xi, eta)):
        for l in range(n):
            dl = sym.diff(basis[l], var)
            for i in range(n):
                for j in range(i, n):
                    v = float(integral(sym.expand(basis[i] * basis[j] * dl)))
                    table[r, i, j, l] = table[r, j, i, l] = v
    return table


def sympy_element_matrices(coords, degree):
    """Exact mass and stiffness matrices of P1/P2 on one triangle.

    ``coords`` must be sympy-exact numbers; integration is symbolic, so the
    returned float arrays are exact to rounding.
    """
    xi, eta = sym.symbols("xi eta", nonnegative=True)
    (x0, y0), (x1, y1), (x2, y2) = coords
    basis = _sympy_basis(degree, xi, eta)
    jac = sym.Matrix([[x1 - x0, x2 - x0], [y1 - y0, y2 - y0]])
    det = jac.det()
    jinv_t = jac.inv().T
    grads = [jinv_t * sym.Matrix([sym.diff(n, xi), sym.diff(n, eta)])
             for n in basis]
    n = len(basis)
    mass = np.zeros((n, n))
    stiff = np.zeros((n, n))
    scale = sym.Abs(det)
    for i in range(n):
        for j in range(i, n):
            mij = sym.integrate(
                sym.integrate(basis[i] * basis[j], (eta, 0, 1 - xi)),
                (xi, 0, 1)) * scale
            kij = sym.integrate(
                sym.integrate(sym.expand(grads[i].dot(grads[j])),
                              (eta, 0, 1 - xi)),
                (xi, 0, 1)) * scale
            mass[i, j] = mass[j, i] = float(mij)
            stiff[i, j] = stiff[j, i] = float(kij)
    return mass, stiff


def loop_facet_dofs(space, facet_ids):
    """``ScalarSpace.facet_dofs`` one facet at a time: the vertex dofs and,
    for P2, the midpoint dof of every facet, those the space holds."""
    dofs = set()
    for f in facet_ids:
        dofs.update(int(space.vertex_dof[v]) for v in space.mesh.facets[f])
        if space.kind == ElementKind.P2:
            dofs.add(int(space.facet_mid_dof[f]))
    return np.array(sorted(dofs - {-1}), dtype=int)


def loop_rect_two_domain(nx, ny, split):
    """The structured generator's five arrays cell by cell and facet by
    facet: vertices, triangles, triangle tags, facets and facet tags."""
    j_if = int(round(split * ny))

    def vid(i, j):
        return j * (nx + 1) + i

    xv, yv = np.meshgrid(np.arange(nx + 1) / nx, np.arange(ny + 1) / ny)
    vertices = np.column_stack([xv.ravel(), yv.ravel()])
    triangles, tri_tags = [], []
    for j in range(ny):
        tag = meshmod.PORO if j < j_if else meshmod.FLUID
        for i in range(nx):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            triangles += [(a, b, c), (a, c, d)]
            tri_tags += [tag, tag]

    def interior(j):
        return meshmod.INTERIOR_PORO if j < j_if else meshmod.INTERIOR_FLUID

    facets, facet_tags = [], []
    for j in range(ny + 1):
        if j == 0:
            tag = meshmod.PORO_SOLID
        elif j == ny:
            tag = meshmod.FLUID_EXTERNAL
        elif j == j_if:
            tag = meshmod.INTERFACE
        else:
            tag = interior(j)
        for i in range(nx):
            facets.append((vid(i, j), vid(i + 1, j)))
            facet_tags.append(tag)
    for i in range(nx + 1):
        for j in range(ny):
            if j < j_if and i in (0, nx):
                tag = meshmod.PORO_EXTERNAL
            elif i == 0:
                tag = meshmod.FLUID_INLET
            elif i == nx:
                tag = meshmod.FLUID_OUTLET
            else:
                tag = interior(j)
            facets.append((vid(i, j), vid(i, j + 1)))
            facet_tags.append(tag)
    for j in range(ny):
        for i in range(nx):
            facets.append((vid(i, j), vid(i + 1, j + 1)))
            facet_tags.append(interior(j))
    return (vertices, np.array(triangles, dtype=int),
            np.array(tri_tags, dtype=int), np.array(facets, dtype=int),
            np.array(facet_tags, dtype=int))


def loop_connectivity(mesh):
    """``Mesh``'s edge table with a dict of vertex pairs and a loop over
    triangles x 3 edges, and the interface sides facet by facet: returns
    ``tri_facets``, ``facet_tris``, the duplicate facets, the overflow
    ``(facet, triangle)`` pairs and the interface Fluid and Poro sides."""
    edge_index, duplicates = {}, []
    for f, (a, b) in enumerate(mesh.facets):
        key = (min(a, b), max(a, b))
        if key in edge_index:
            duplicates.append(f)
        else:
            edge_index[key] = f
    tri_facets = np.full((mesh.num_triangles, 3), -1, dtype=int)
    facet_tris = np.full((mesh.num_facets, 2), -1, dtype=int)
    overflow = []
    for c, tri in enumerate(mesh.triangles):
        for loc, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
            a, b = tri[i], tri[j]
            f = edge_index.get((min(a, b), max(a, b)), -1)
            tri_facets[c, loc] = f
            if f < 0:
                continue
            if facet_tris[f, 0] < 0:
                facet_tris[f, 0] = c
            elif facet_tris[f, 1] < 0:
                facet_tris[f, 1] = c
            else:
                overflow.append((f, c))
    iface = np.flatnonzero(mesh.facet_tags == meshmod.INTERFACE)
    sides = np.full((2, len(iface)), -1, dtype=int)
    for k, f in enumerate(iface):
        for c in facet_tris[f]:
            if c < 0:
                continue
            for s, sub in enumerate((meshmod.FLUID, meshmod.PORO)):
                if mesh.tri_tags[c] == sub and sides[s, k] < 0:
                    sides[s, k] = c
    return (tri_facets, facet_tris, np.array(duplicates, dtype=int),
            np.array(overflow, dtype=int).reshape(-1, 2), sides[0], sides[1])


def facet_length(mesh, facet):
    """Length of one mesh facet."""
    ends = mesh.vertices[mesh.facets[facet]]
    return float(np.hypot(*(ends[1] - ends[0])))


def _trace_eval(mesh, space, coeffs, facet, triangle, svals):
    """Evaluate a discrete vector field along a facet from one side."""
    a, b = mesh.facets[facet]
    pa, pb = mesh.vertices[a], mesh.vertices[b]
    x = pa[None, :] + svals[:, None] * (pb - pa)[None, :]
    tri = mesh.triangles[triangle]
    v0 = mesh.vertices[tri[0]]
    e1 = mesh.vertices[tri[1]] - v0
    e2 = mesh.vertices[tri[2]] - v0
    det = e1[0] * e2[1] - e1[1] * e2[0]
    d = x - v0[None, :]
    ref = np.column_stack([
        (e2[1] * d[:, 0] - e2[0] * d[:, 1]) / det,
        (-e1[1] * d[:, 0] + e1[0] * d[:, 1]) / det,
    ])
    sc = space.scalar
    pos = np.searchsorted(sc.tri_ids, triangle)
    dofs = sc.cell_dofs[pos]
    vals, _ = basis_eval(sc.kind, ref)
    ux = vals @ coeffs[dofs]
    uy = vals @ coeffs[dofs + sc.ndof]
    return np.column_stack([ux, uy]), x


def _scalar_trace_eval(mesh, space, coeffs, facet, triangle, svals):
    a, b = mesh.facets[facet]
    pa, pb = mesh.vertices[a], mesh.vertices[b]
    x = pa[None, :] + svals[:, None] * (pb - pa)[None, :]
    tri = mesh.triangles[triangle]
    v0 = mesh.vertices[tri[0]]
    e1 = mesh.vertices[tri[1]] - v0
    e2 = mesh.vertices[tri[2]] - v0
    det = e1[0] * e2[1] - e1[1] * e2[0]
    d = x - v0[None, :]
    ref = np.column_stack([
        (e2[1] * d[:, 0] - e2[0] * d[:, 1]) / det,
        (-e1[1] * d[:, 0] + e1[0] * d[:, 1]) / det,
    ])
    pos = np.searchsorted(space.tri_ids, triangle)
    dofs = space.cell_dofs[pos]
    vals, _ = basis_eval(space.kind, ref)
    return vals @ coeffs[dofs], x


def interface_slip_energy(mesh, dm, u_full, d_full, beta, npts=12):
    """beta * int_I ((u - eta_dot) . tangent)^2 ds by direct Gauss quadrature."""
    g, w = np.polynomial.legendre.leggauss(npts)
    svals = 0.5 * (g + 1.0)
    wts = 0.5 * w
    total = 0.0
    for k, f in enumerate(mesh.interface_facets):
        n = mesh.interface_normals[k]
        tau = np.array([-n[1], n[0]])
        uf, _ = _trace_eval(mesh, dm.velocity, u_full, f,
                            mesh.interface_fluid_tri[k], svals)
        dp, _ = _trace_eval(mesh, dm.displacement, d_full, f,
                            mesh.interface_poro_tri[k], svals)
        length = facet_length(mesh, f)
        slip = (uf - dp) @ tau
        total += length * (wts * slip ** 2).sum()
    return beta * total


def interface_pressure_flux(mesh, dm, u_full, p_full, npts=12):
    """int_I w (u . n) ds by direct Gauss quadrature (n out of the fluid)."""
    g, w = np.polynomial.legendre.leggauss(npts)
    svals = 0.5 * (g + 1.0)
    wts = 0.5 * w
    total = 0.0
    for k, f in enumerate(mesh.interface_facets):
        n = mesh.interface_normals[k]
        uf, _ = _trace_eval(mesh, dm.velocity, u_full, f,
                            mesh.interface_fluid_tri[k], svals)
        wp, _ = _scalar_trace_eval(mesh, dm.pressure_p, p_full, f,
                                   mesh.interface_poro_tri[k], svals)
        length = facet_length(mesh, f)
        total += length * (wts * wp * (uf @ n)).sum()
    return total


def _outward_normal(mesh, facet, triangle):
    """Unit normal of ``facet`` pointing away from the triangle's third vertex."""
    a, b = mesh.facets[facet]
    pa, pb = mesh.vertices[a], mesh.vertices[b]
    (opposite,) = [v for v in mesh.triangles[triangle] if v not in (a, b)]
    tangent = (pb - pa) / np.linalg.norm(pb - pa)
    n = np.array([tangent[1], -tangent[0]])
    if n @ (mesh.vertices[opposite] - pa) > 0.0:
        n = -n
    return n


def facet_functional(mesh, space, coeffs, facets, tris, integrand, t,
                     npts=12):
    """sum_f int_f integrand(x, y, t, n, v) ds by direct Gauss quadrature.

    ``v`` is the discrete field with full coefficients ``coeffs`` traced
    from ``tris[f]`` ((nq, 2) for a vector space, (nq,) for a scalar one)
    and ``n`` the unit normal pointing out of that triangle.
    """
    g, w = np.polynomial.legendre.leggauss(npts)
    svals = 0.5 * (g + 1.0)
    wts = 0.5 * w
    trace = _trace_eval if hasattr(space, "scalar") else _scalar_trace_eval
    total = 0.0
    for f, tri in zip(facets, tris):
        v, x = trace(mesh, space, coeffs, f, tri, svals)
        n = _outward_normal(mesh, f, tri)
        length = facet_length(mesh, f)
        total += length * (wts * integrand(x[:, 0], x[:, 1], t, n, v)).sum()
    return total


def dense_quotient_max(A, B):
    """Largest lambda of the sparse pencil A x = lambda B x, densely."""
    return float(la.eigh(A.toarray(), B.toarray(), eigvals_only=True)[-1])


def dense_pore_trace_constant(blocks):
    """T3 from the dense Schur complement of the free pore stiffness.

    ``S = K_tt - K_ti K_ii^-1 K_it`` onto the free interface trace dofs t,
    then ``sqrt(1 + max eig(M_tt, S))`` with the interface trace mass.
    """
    mesh = blocks.dm.mesh
    R = blocks.dm.pressure_p
    K = blocks.stiff_p.toarray()
    tris = mesh.interface_poro_tri
    M = facet_matrix(R, R, mesh.interface_facets, tris, tris).toarray()
    trace = R.facet_dofs(mesh.interface_facets)
    t = np.searchsorted(R.free, trace[np.isin(trace, R.free)])
    i = np.setdiff1d(np.arange(len(R.free)), t)
    S = K[np.ix_(t, t)] - K[np.ix_(t, i)] @ la.solve(K[np.ix_(i, i)],
                                                     K[np.ix_(i, t)])
    lam = la.eigh(M[np.ix_(t, t)], 0.5 * (S + S.T), eigvals_only=True)[-1]
    return float(np.sqrt(1.0 + lam))


def dense_infsup_constant(blocks):
    """Kappa from the dense pressure Schur complement ``G H^-1 G^T``."""
    G = blocks.Gdiv.toarray()
    H = blocks.mass_u.toarray() + blocks.stiff_u.toarray()
    S = G @ la.solve(H, G.T)
    Mq = blocks.mass_q.toarray()
    lam = la.eigh(0.5 * (S + S.T), Mq, eigvals_only=True)[0]
    return float(np.sqrt(lam))


def einsum_quartic(space, z_free):
    """``(Q, grad Q)`` of Q = int |v|^4 over ``space``'s cells, by einsum
    over (cell, point, component, dof), the form the package reshapes into
    two matmuls."""
    vals = _rule_values(space.kind, cst.SF_ORDER)
    wdet = cell_quadrature(space.mesh, space.scalar.subdomain,
                           cst.SF_ORDER).wdet
    cell_dofs = space.cell_dofs_vector()
    full = np.zeros(space.ndof)
    full[space.free] = z_free
    u = np.einsum("qkd,ck->cqd", vals, full[cell_dofs])
    s = np.einsum("cqd,cqd->cq", u, u)
    value = float(np.einsum("cq,cq->", wdet, s * s))
    gcell = 4.0 * np.einsum("cq,cq,cqd,qkd->ck", wdet, s, u, vals)
    gfull = _scatter_vector(cell_dofs, gcell, space.ndof)
    return value, gfull[space.free]


def report(levels, split=0.5, params=None, kinds=cst.CONSTANT_KINDS, seed=0,
           sf_starts=0, sf_maxit=400):
    """Estimate all requested constants on a sequence of n x n meshes.

    Returns a flat list of estimates ordered level-major so successive
    values of the same kind can be compared across refinements.
    """
    if params is None:
        params = PhysicalParams()
    out = []
    for n in levels:
        mesh = meshmod.build_rect_two_domain(n, n, split)
        blocks = assemble_system(mesh, params, convection=False)
        out.extend(cst.estimate_all(blocks, level=n, kinds=kinds, seed=seed,
                                    sf_starts=sf_starts, sf_maxit=sf_maxit))
    return out


def dirichlet_poincare_square(n):
    """Poincare constant of the unit square with full Dirichlet boundary.

    Computed from the piecewise-linear eigenvalue quotient on an n x n
    mesh; converges from below to 1/sqrt(2 pi^2) at second order in h,
    which makes it a convenient calibration target for the estimators.
    """
    mesh = meshmod.build_rect_two_domain(n, n, 0.5)
    tags = (meshmod.FLUID_INLET, meshmod.FLUID_OUTLET,
            meshmod.FLUID_EXTERNAL, meshmod.PORO_SOLID,
            meshmod.PORO_EXTERNAL)
    space = make_scalar_space(mesh, ElementKind.P1, dirichlet_tags=tags)
    M = mass(space)
    K = stiffness(space)
    return float(np.sqrt(cst.quotient_max(M, K)))


def richardson(coarse, fine, rate=2):
    """Extrapolate two values computed at h and h/2 assuming O(h^rate)."""
    w = 2.0 ** rate
    return (w * fine - coarse) / (w - 1.0)


def _parse_cell(text):
    if text == "":
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_table(path):
    """Read a certificate or convergence CSV into a list of per-row dicts:
    an empty cell is None, ``true``/``false`` a bool, numbers int or float."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return [dict(zip(header, map(_parse_cell, row))) for row in reader]


def quadrature_convection(space, rho_f, alpha, skew, order=6):
    """``rho_f ((u . grad) u, v)`` and its Jacobian on free dofs, by Gauss
    quadrature of basis values and physical gradients on every cell.

    The skew form adds ``(div u) u / 2``.  The Jacobian is a COO scatter of
    the element matrices over every pair of free dofs of a cell, so it is
    stored on the full velocity coupling graph.
    """
    rule = triangle_rule(order)
    sc = space.scalar
    _, jinv, det = _geometry(space.mesh, sc.tri_ids)
    vals, _ = basis_eval(sc.kind, rule.points)            # (nq, nloc)
    gphys = _phys_grads(sc, jinv, rule)                   # (nc, nq, nloc, 2)
    wdet = rule.weights[None, :] * det[:, None]           # (nc, nq)
    cell_dofs, ns = sc.cell_dofs, sc.ndof
    u = np.zeros(space.ndof)
    u[space.free] = alpha
    ucof = np.stack([u[cell_dofs], u[cell_dofs + ns]], axis=2)
    uq = np.einsum("qd,cdk->cqk", vals, ucof)
    gq = np.einsum("cqdm,cdk->cqkm", gphys, ucof)
    conv = np.einsum("cqm,cqkm->cqk", uq, gq)
    divu = gq[:, :, 0, 0] + gq[:, :, 1, 1]
    if skew:
        conv = conv + 0.5 * divu[:, :, None] * uq
    cells = rho_f * np.einsum("cq,qi,cqk->cik", wdet, vals, conv)
    full = np.zeros(space.ndof)
    np.add.at(full, cell_dofs, cells[:, :, 0])
    np.add.at(full, cell_dofs + ns, cells[:, :, 1])

    # d/du_j of (u . grad) u, component-blocked: with phi_j = e_d N_j,
    #   (phi_j . grad) u = N_j d_d u          -> N_i N_j (d_d u)_k
    #   (u . grad) phi_j = e_d (u . grad N_j) -> delta_kd N_i (u . grad N_j)
    nloc = vals.shape[1]
    t1 = np.einsum("cq,qi,qj,cqkd->cikjd", wdet, vals, vals, gq)
    ugradn = np.einsum("cqm,cqjm->cqj", uq, gphys)
    t2d = np.einsum("cq,qi,cqj->cij", wdet, vals, ugradn)
    if skew:
        # 0.5 [(div phi_j) u_k + (div u) delta_kd N_j] N_i
        t1 = t1 + 0.5 * np.einsum("cq,qi,cqjd,cqk->cikjd", wdet, vals,
                                  gphys, uq)
        t2d = t2d + 0.5 * np.einsum("cq,cq,qi,qj->cij", wdet, divu, vals,
                                    vals)
    local = np.zeros((len(cell_dofs), 2 * nloc, 2 * nloc))
    for k in range(2):
        for d in range(2):
            block = t1[:, :, k, :, d]
            if k == d:
                block = block + t2d
            local[:, k * nloc:(k + 1) * nloc, d * nloc:(d + 1) * nloc] = block
    local *= rho_f
    free_lookup = np.full(space.ndof, -1, dtype=int)
    free_lookup[space.free] = np.arange(space.n_free)
    fdofs = free_lookup[np.concatenate([cell_dofs, cell_dofs + ns], axis=1)]
    rows = np.repeat(fdofs[:, :, None], 2 * nloc, axis=2)
    cols = np.repeat(fdofs[:, None, :], 2 * nloc, axis=1)
    keep = (rows >= 0) & (cols >= 0)
    jmat = sp.coo_matrix((local[keep], (rows[keep], cols[keep])),
                         shape=(space.n_free, space.n_free)).tocsr()
    return full[space.free], jmat


def _gauss_panels(t0, t1, panels, npts=6):
    """Composite Gauss nodes and weights on [t0, t1]."""
    x, w = np.polynomial.legendre.leggauss(npts)
    edges = np.linspace(t0, t1, panels + 1)
    h = np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    times = (mid[:, None] + 0.5 * h[:, None] * x[None, :]).ravel()
    weights = (0.5 * h[:, None] * w[None, :]).ravel()
    return times, weights


def scalar_cumulative(func, times):
    """Integral of ``func`` from 0 to each entry of ``times``, one scalar
    call per Gauss node: one 6-point panel per consecutive interval."""
    out = np.zeros(len(times))
    for n in range(1, len(times)):
        nodes, weights = _gauss_panels(times[n - 1], times[n], 1)
        out[n] = out[n - 1] + sum(w * func(t) for t, w in zip(nodes, weights))
    return out


@dataclass
class RecordedRun:
    """Every state of a trajectory from the initial one on, as ``run``'s
    ``on_step`` saw them, with the run's scheme, step and diagnostics: the
    recorded trajectory that ``monitor.energy_report`` also takes."""

    scheme: str
    dt: float
    states: list
    diagnostics: list

    def __len__(self):
        return len(self.states)


def recorded_run(blocks, data, cfg, initial_state=None):
    """``run`` with every state collected through its ``on_step``; the
    package's run holds only the current one."""
    states = [blocks.zero_state() if initial_state is None else initial_state]
    result = run(blocks, data, cfg, initial_state=states[0],
                 on_step=lambda state, diag: states.append(state))
    return RecordedRun(cfg.scheme, cfg.dt, states, result.diagnostics)


def rowwise_energy_report(traj, blocks, data, constants, funcs,
                          newton_tol=1e-10):
    """The certificate columns and summary flags, one state at a time.

    Every quadratic form is a vector dot of one state, every data norm one
    scalar call per time (C1, C2 by :func:`scalar_cumulative`), and the
    identity is checked with the jump term for the implicit Euler scheme
    and at the averaged stage for the midpoint scheme.  Each row carries
    the quantities its step has; a column holds a name's values over the
    rows that carry it.
    """
    p = blocks.params
    dm = blocks.dm
    Af, As, Ap = (p.rho_f * blocks.mass_u, p.rho_s * blocks.mass_d,
                  p.s0 * blocks.mass_p)
    visc2 = 2.0 * p.mu_f * blocks.visc_u
    # H1 products as matrix sums, where the package sums forms
    h1_u = blocks.mass_u + blocks.stiff_u
    h1_d = blocks.mass_d + blocks.stiff_d
    h1_p = blocks.mass_p + blocks.stiff_p

    def energy(s):
        return 0.5 * (s.alpha @ (Af @ s.alpha) + s.theta @ (As @ s.theta)
                      + s.gamma @ (Ap @ s.gamma)
                      + s.beta @ (blocks.Bs @ s.beta))

    def dissipation(s):
        a, th, g = s.alpha, s.theta, s.gamma
        return (a @ (visc2 @ a) + a @ (blocks.slip_u @ a)
                - 2.0 * (a @ (blocks.E @ th)) + th @ (blocks.F @ th)
                + g @ (blocks.Bp @ g))

    sf, kf, kappa, t1, t2, t3, t5 = (constants[k] for k in (
        "Sf", "Kf", "Kappa", "T1", "T2", "T3", "T5"))
    mass_q = blocks.mass_q
    stiff_u = blocks.stiff_u

    states = traj.states
    dt = traj.dt
    times = [s.t for s in states]
    cum_c1 = scalar_cumulative(funcs.c1_sq, times)
    cum_c2 = scalar_cumulative(funcs.c2_sq, times)
    c3 = funcs.c3()

    du_limit = p.mu_f / (3.0 * p.rho_f * sf ** 2 * kf ** 3)
    uniq_limit = p.mu_f / (sf ** 2 * kf ** 3)
    gron_b = 0.0
    if len(times) > 1:
        nodes, weights = _gauss_panels(0.0, times[-1], mon._TIME_PANELS)
        gron_b = (2.0 / p.rho_s) * sum(
            w * funcs.c1_sq(t) for t, w in zip(nodes, weights))
    gron_c = 1.0 / p.rho_s
    identity_rel = 1e-5 * newton_tol / 1e-10

    rows = []
    cum_diss = 0.0
    cum_dot_diss = 0.0
    gron_rightsum = 0.0
    for n, state in enumerate(states):
        row = SimpleNamespace(n=n, t=state.t, energy=energy(state))
        row.du_norm = np.sqrt(max(
            state.alpha @ (visc2 @ state.alpha), 0.0) / (2.0 * p.mu_f))
        row.dumbound_ok = bool(row.du_norm < du_limit)
        row.uniqueness_ok = bool(row.du_norm <= uniq_limit)

        row.zeta = float(state.theta @ (blocks.mass_d @ state.theta))
        if n > 0:
            gron_rightsum += dt * row.zeta
        row.gronwall_premise_rhs = gron_b + gron_c * gron_rightsum
        row.gronwall_conclusion_rhs = gron_b * np.exp(gron_c * state.t)
        row.gronwall_premise_ok = bool(row.zeta <= row.gronwall_premise_rhs)
        row.gronwall_conclusion_ok = bool(
            row.zeta <= row.gronwall_conclusion_rhs)

        if n > 0:
            prev = states[n - 1]
            if traj.scheme == "euler":
                stage = state
                jump = energy(StateVector(
                    t=state.t, alpha=state.alpha - prev.alpha,
                    beta=state.beta - prev.beta,
                    gamma=state.gamma - prev.gamma,
                    theta=state.theta - prev.theta, pi=state.pi))
            else:
                stage = StateVector(
                    t=0.5 * (prev.t + state.t),
                    alpha=0.5 * (prev.alpha + state.alpha),
                    beta=0.5 * (prev.beta + state.beta),
                    gamma=0.5 * (prev.gamma + state.gamma),
                    theta=0.5 * (prev.theta + state.theta),
                    pi=state.pi)
                jump = 0.0

            a, b, c = assemble_loads(stage.t, data, dm)
            diss = dissipation(stage)
            conv, _ = blocks.convection(stage.alpha, jac=False)
            nterm = float(stage.alpha @ conv)
            work = a @ stage.alpha + b @ stage.theta + c @ stage.gamma
            e_prev = energy(prev)
            defect = ((row.energy - e_prev + jump) / dt + diss + nterm
                      - work)
            scale = ((abs(row.energy) + abs(e_prev) + jump) / dt
                     + abs(diss) + abs(nterm) + abs(work))
            row.dissipation = diss
            row.work = work
            diag = traj.diagnostics[n - 1]
            row.newton_iterations = diag.iterations
            row.gmres_iterations = diag.krylov_iterations
            row.newton_residual = diag.residual_norms[-1]
            cum_diss += dt * diss
            row.identity_defect = defect
            row.identity_scale = scale
            row.identity_ok = bool(
                abs(defect) <= max(1e-9, identity_rel * scale))

            dot = StateVector(
                t=state.t, alpha=(state.alpha - prev.alpha) / dt,
                beta=(state.beta - prev.beta) / dt,
                gamma=(state.gamma - prev.gamma) / dt,
                theta=(state.theta - prev.theta) / dt,
                pi=np.zeros_like(state.pi))
            row.dot_energy = energy(dot)
            cum_dot_diss += dt * dissipation(dot)
            row.cum_dot_dissipation = cum_dot_diss
            row.mb2_lhs = row.dot_energy + cum_dot_diss
            tgrow = np.exp(2.0 * state.t / p.rho_s ** 2)
            base = (1.0 + (state.t / p.rho_s) * tgrow) * cum_c2[n]
            tail = 0.5 * state.t * tgrow
            row.mb2_rhs_root = base + tail * c3
            row.mb2_rhs_squared = base + tail * c3 ** 2
            row.mb2_root_ok = bool(row.mb2_lhs <= row.mb2_rhs_root)
            row.mb2_squared_ok = bool(row.mb2_lhs <= row.mb2_rhs_squared)

            def norm(matrix, x):
                return np.sqrt(max(x @ (matrix @ x), 0.0))

            row.pf_lhs = norm(mass_q, state.pi)
            row.pf_rhs = (p.rho_f * norm(blocks.mass_u, dot.alpha)
                          + 2.0 * p.mu_f * row.du_norm
                          + p.rho_f * sf ** 2
                          * (state.alpha @ (stiff_u @ state.alpha))
                          + t1 * t3 * norm(h1_p, state.gamma)
                          + p.beta_slip * t1 ** 2 * norm(h1_u, state.alpha)
                          + p.beta_slip * t1 * t5 * norm(h1_d, state.theta)
                          + t2 * np.sqrt(funcs.pin_sq(state.t))
                          + np.sqrt(funcs.ff_sq(state.t))) / kappa
            row.pf_ok = bool(row.pf_lhs <= row.pf_rhs)

        row.cum_dissipation = cum_diss
        row.cum_c1_sq = cum_c1[n]
        row.mb1_lhs = row.energy + cum_diss
        row.mb1_rhs = (1.0 + (state.t / p.rho_s)
                       * np.exp(state.t / p.rho_s)) * cum_c1[n]
        row.mb1_ok = bool(row.mb1_lhs <= row.mb1_rhs)
        rows.append(row)

    def all_of(attr):
        return all(getattr(r, attr) for r in rows if hasattr(r, attr))

    pf_rows = [r for r in rows if hasattr(r, "pf_ok")]
    summary = {
        "identity_ok": all_of("identity_ok"),
        "mainbound1_ok": all_of("mb1_ok"),
        "dumbound_ok": all_of("dumbound_ok"),
        "uniqueness_ok": all_of("uniqueness_ok"),
        "mb2_root_ok": all_of("mb2_root_ok"),
        "mb2_squared_ok": all_of("mb2_squared_ok"),
        "pfbound_ok": all_of("pf_ok"),
        "pfbound_linf_ok": bool(max(r.pf_lhs for r in pf_rows)
                                <= max(r.pf_rhs for r in pf_rows))
        if pf_rows else True,
        "gronwall_premise_ok": all_of("gronwall_premise_ok"),
        "gronwall_conclusion_ok": all_of("gronwall_conclusion_ok"),
        "max_energy": max(r.energy for r in rows),
        "final_energy": rows[-1].energy,
        "total_dissipation": rows[-1].cum_dissipation,
        "max_du_norm": max(r.du_norm for r in rows),
        "c3": c3,
    }
    names = dict.fromkeys(name for r in rows for name in vars(r))
    columns = {name: np.array([getattr(r, name) for r in rows
                               if hasattr(r, name)]) for name in names}
    return CertificateReport(columns=columns, summary=summary)


def residual(blocks, state, state_dot, loads, nl):
    """The five block residual rows at one time instant, written out by
    hand.

    ``state`` carries the values entering the stiffness-type terms,
    ``state_dot`` the discrete time derivatives, ``loads`` the triple
    (a, b, c) and ``nl`` the convection vector N(state.alpha).  Rows:
    momentum, kinematic, Darcy, structure, constraint.
    """
    a, b, c = loads
    p = blocks.params
    Bf = 2.0 * p.mu_f * blocks.visc_u + blocks.slip_u
    r_mom = (p.rho_f * (blocks.mass_u @ state_dot.alpha) + Bf @ state.alpha
             + nl + blocks.D @ state.gamma - blocks.E @ state.theta
             - blocks.Gdiv.T @ state.pi - a)
    r_kin = state_dot.beta - state.theta
    r_dar = (p.s0 * (blocks.mass_p @ state_dot.gamma)
             + blocks.Bp @ state.gamma
             + blocks.C.T @ state.theta - blocks.D.T @ state.alpha - c)
    r_str = (p.rho_s * (blocks.mass_d @ state_dot.theta)
             + blocks.Bs @ state.beta
             - blocks.C @ state.gamma - blocks.E.T @ state.alpha
             + blocks.F @ state.theta - b)
    r_con = blocks.Gdiv @ state.alpha
    return r_mom, r_kin, r_dar, r_str, r_con


def residual_rows(blocks, scheme, state0, z1, dt, loads):
    """The residual rows of one step by :func:`residual`, at the stage,
    with the constraint row at the new level."""
    new = StateVector(0.0, *_unpack(blocks, z1))
    names = ("alpha", "beta", "gamma", "theta")
    dot = StateVector(0.0, *((getattr(new, k) - getattr(state0, k)) / dt
                             for k in names), new.pi)
    stage = new if scheme == "euler" else StateVector(
        0.0, *(0.5 * (getattr(new, k) + getattr(state0, k)) for k in names),
        new.pi)
    nl, _ = blocks.convection(stage.alpha)
    rows = residual(blocks, stage, dot, loads, nl)
    return rows[:4] + (blocks.Gdiv @ new.alpha,)


def unconstrained(space):
    """``space`` without its essential constraints: the same dofs, all
    free, so every form on it is the form on all dofs."""
    if isinstance(space, VectorSpace):
        return make_vector_space(space.mesh, space.kind, space.scalar.subdomain)
    return make_scalar_space(space.mesh, space.kind, space.subdomain)


def unconstrained_dofmap(mesh):
    """The production dof map of ``mesh`` with every space unconstrained."""
    dm = build_dofmaps(mesh)
    return DofMap(mesh, *(unconstrained(getattr(dm, name)) for name in (
        "velocity", "pressure_f", "displacement", "pressure_p")))


def restrict(matrix, test_space, trial_space):
    """Slice a form on all dofs to the free rows and columns of two spaces."""
    return matrix[test_space.free][:, trial_space.free].tocsr()


def eager_operators(mesh, params):
    """All 16 operators of :class:`~fpsi.assembly.BlockSystem` by name,
    every one assembled up front on unconstrained copies of the production
    spaces: a symmetric-gradient, div-div, stiffness or ``K``-gradient form
    evaluates its own gradient products, and each form on all dofs is
    sliced to the free dofs of the production spaces only after all are
    built."""
    dm = build_dofmaps(mesh)
    V, Q = dm.velocity, dm.pressure_f
    W, R = dm.displacement, dm.pressure_p
    V0, Q0, W0, R0 = map(unconstrained, (V, Q, W, R))
    mass_u, visc_u = mass(V0), asm.vector_symgrad(V0)
    stiff_u, gdiv = stiffness(V0), asm.mixed_div(Q0, V0)
    mass_q = mass(Q0)
    mass_d, symgrad_d = mass(W0), asm.vector_symgrad(W0)
    divdiv_d, stiff_d = asm.vector_divdiv(W0), stiffness(W0)
    mass_p, kgrad_p = mass(R0), asm.scalar_kgrad(R0, params.K)
    stiff_p = stiffness(R0)
    ifacets = mesh.interface_facets
    iftri, iptri = mesh.interface_fluid_tri, mesh.interface_poro_tri
    normals = mesh.interface_normals
    tangents = asm.interface_tangents(normals)
    slip_uu = facet_matrix(V0, V0, ifacets, iftri, iftri, tangents)
    slip_ud = facet_matrix(V0, W0, ifacets, iftri, iptri, tangents)
    slip_dd = facet_matrix(W0, W0, ifacets, iptri, iptri, tangents)
    dface = facet_matrix(V0, R0, ifacets, iftri, iptri, normals)
    cface = facet_matrix(W0, R0, ifacets, iptri, iptri, normals)
    cvol = asm.div_pressure(W0, R0)

    p = params
    return {
        "mass_u": restrict(mass_u, V, V), "visc_u": restrict(visc_u, V, V),
        "slip_u": restrict(p.beta_slip * slip_uu, V, V),
        "mass_d": restrict(mass_d, W, W), "mass_p": restrict(mass_p, R, R),
        "Bs": restrict(asm.sparse_sum(2.0 * p.mu_s * symgrad_d,
                                      p.lambda_s * divdiv_d), W, W),
        "Bp": restrict(kgrad_p, R, R),
        "C": restrict(asm.sparse_sum(p.alpha_bw * cvol, cface), W, R),
        "D": restrict(dface, V, R),
        "E": restrict(p.beta_slip * slip_ud, V, W),
        "F": restrict(p.beta_slip * slip_dd, W, W),
        "Gdiv": restrict(gdiv, Q, V),
        "mass_q": restrict(mass_q, Q, Q),
        "stiff_u": restrict(stiff_u, V, V),
        "stiff_d": restrict(stiff_d, W, W),
        "stiff_p": restrict(stiff_p, R, R),
    }


def full_newton_matrix(blocks, scheme, dt, stage_alpha):
    """The Newton matrix on all five unknowns (alpha, beta, gamma, theta,
    pi), kinematic row included, with the five residual rows in order."""
    s = 1.0 if scheme == "euler" else 0.5
    p = blocks.params
    _, Jn = blocks.convection(stage_alpha, jac=True)
    I = sp.identity(blocks.n_beta, format="csr")
    rows = [
        [p.rho_f / dt * blocks.mass_u + 2.0 * p.mu_f * s * blocks.visc_u
         + s * blocks.slip_u + s * Jn, None, s * blocks.D,
         -s * blocks.E, -blocks.Gdiv.T],
        [None, I / dt, None, -s * I, None],
        [-s * blocks.D.T, None, p.s0 / dt * blocks.mass_p + s * blocks.Bp,
         s * blocks.C.T, None],
        [-s * blocks.E.T, s * blocks.Bs, -s * blocks.C,
         p.rho_s / dt * blocks.mass_d + s * blocks.F, None],
        [blocks.Gdiv, None, None, None, None],
    ]
    return sp.bmat(rows, format="csc")


def newton_matrix_from_terms(blocks, scheme, dt, stage_alpha, terms):
    """The five-block Newton matrix of :func:`full_newton_matrix`, dense,
    built from a table of linear terms ``(row, column, coef, matrix,
    value)``: each term times ``coef`` at 1/dt (rate), s (stage) or 1
    (new), and ``s Jn`` in the momentum row's alpha column."""
    s = 1.0 if scheme == "euler" else 0.5
    coefficient = {"rate": 1.0 / dt, "stage": s, "new": 1.0}
    _, Jn = blocks.convection(stage_alpha, jac=True)
    nb = blocks.n_beta
    edges = np.cumsum([0, blocks.n_alpha, nb, blocks.n_gamma, nb,
                       blocks.n_pi])
    J = np.zeros((edges[-1], edges[-1]))
    for row, col, coef, matrix, value in (*terms, (0, 0, 1, Jn, "stage")):
        J[edges[row]:edges[row + 1], edges[col]:edges[col + 1]] += (
            coef * coefficient[value] * matrix.toarray())
    return J


_TREE_OPS = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "div": operator.truediv, "pow": operator.pow, "neg": operator.neg,
    "sin": np.sin, "cos": np.cos, "exp": np.exp,
}


def tree_walk_eval(expr, x=0.0, y=0.0, t=0.0):
    """``expr(x, y, t)`` by a recursive walk of the expression tree.

    Every occurrence of a subexpression is evaluated again, with the same
    operator and operand order as the package; the result is a float for
    scalar arguments and a fresh array of the broadcast shape otherwise.
    """
    shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(t))
    env = dict(zip("xyt", (np.asarray(v, dtype=float) for v in (x, y, t))))

    def walk(node):
        if node.op == "const":
            return node.args[0]
        if node.op == "var":
            return env[node.args[0]]
        if node.op == "pow":
            return walk(node.args[0]) ** node.args[1]
        return _TREE_OPS[node.op](*map(walk, node.args))

    value = walk(expr)
    if shape == ():
        return float(value)
    return np.array(np.broadcast_to(value, shape), dtype=float)


DATA_SETS = ("readme", "space-time") + CASE_IDS


def data_set(name):
    """Data of :data:`DATA_SETS`: the README example's, one in which a term
    of every field mixes t with x or y, or a manufactured case's."""
    if name == "readme":
        return ProblemData(
            f_f=(pe("0.4*sin(pi*x)*cos(t)"), pe("0.2*cos(pi*y)*sin(t)")),
            f_p=pe("0.3*cos(pi*x)*cos(t)"),
            P_in=pe("0.2*(1 + 0.5*sin(t))"),
        )
    if name == "space-time":
        return ProblemData(
            f_f=(pe("sin(pi*x*t)"), pe("cos(t)*y")),
            f_s=(pe("x*t"), pe("exp(x*t)")),
            f_p=pe("sin(pi*x*t)*cos(t) + x"),
            P_in=pe("1/(1 + y*t)"),
        )
    return manufactured_case(name).data


def _oracle_data():
    return ProblemData(
        f_f=(1.0, X * Y),
        f_s=(Y, X),
        f_p=Cos(PI * X),
        P_in=Sin(PI * Y),
    )


def kernel_oracle(nx=2, ny=2, split=0.5, params=None, dt=0.05, data=None,
                  newton_tol=1e-13, newton_max=50):
    """One implicit-Euler step re-solved on the divergence-free subspace.

    Builds an orthonormal basis Z of the null space of the discrete
    divergence, runs a dense Newton iteration for the unknowns (c, gamma,
    theta) with the velocity parametrised as alpha = Z c (no multiplier) and
    beta given by the kinematic identity beta = beta0 + dt theta, recovers
    the multiplier from the momentum defect by least squares, and compares
    everything against the production saddle-point step.  Returns a dict of
    diagnostics; the relative differences should sit at solver tolerance.
    """
    params = PhysicalParams() if params is None else params
    mesh = meshmod.build_rect_two_domain(nx, ny, split)
    blocks = assemble_system(mesh, params, convection=True)
    if blocks.n_alpha > 400:
        raise ValueError("kernel oracle needs a tiny mesh "
                         "(velocity space has %d free dofs)" % blocks.n_alpha)
    if data is None:
        data = _oracle_data()

    cfg = SchemeConfig(scheme="euler", dt=dt, t_final=dt,
                       newton_tol=newton_tol, newton_max=newton_max)
    state0 = blocks.zero_state()
    state1, diag = step(blocks, data, state0, cfg)

    G = blocks.Gdiv.toarray()
    Z = la.null_space(G)
    null_dim = Z.shape[1]
    rank = int(np.linalg.matrix_rank(G))
    if rank < blocks.n_pi:
        raise RuntimeError(
            "divergence operator is rank deficient: rank %d of %d pressure "
            "dofs" % (rank, blocks.n_pi))

    na, nb, ng = blocks.n_alpha, blocks.n_beta, blocks.n_gamma
    npi = blocks.n_pi
    loads = assemble_loads(dt, data, blocks.dm)

    def make_state(y):
        c, g, th = y[:null_dim], y[null_dim:null_dim + ng], y[null_dim + ng:]
        return StateVector(dt, Z @ c, state0.beta + dt * th, g, th,
                           np.zeros(npi))

    def reduced_residual(y):
        rows, stage, _ = _residual_rows(blocks, "euler", state0,
                                        _pack(make_state(y)), dt, loads)
        r_mom, _, r_dar, r_str, _ = rows
        return np.concatenate([Z.T @ r_mom, r_dar, r_str]), stage

    proj = la.block_diag(Z, np.eye(ng), np.eye(nb))
    y = np.zeros(null_dim + ng + nb)
    r, stage = reduced_residual(y)
    scale = max(1.0, float(np.abs(r).max()))
    iterations = 0
    while np.abs(r).max() > newton_tol * scale:
        if iterations >= newton_max:
            raise RuntimeError("reduced Newton iteration did not converge")
        jac = _jacobian(blocks, "euler", dt, stage.alpha).toarray()
        head = na + ng + nb
        y = y - la.solve(proj.T @ jac[:head, :head] @ proj, r)
        iterations += 1
        r, stage = reduced_residual(y)
    reduced = make_state(y)

    # multiplier from the momentum defect: G^T pi = r_mom(z, pi = 0)
    rows, _, _ = _residual_rows(blocks, "euler", state0, _pack(reduced), dt,
                                loads)
    pi_hat, *_ = np.linalg.lstsq(G.T, rows[0], rcond=None)

    rows_prod, _, _ = _residual_rows(
        blocks, "euler", state0,
        _pack(StateVector(dt, state1.alpha, state1.beta, state1.gamma,
                          state1.theta, np.zeros(npi))),
        dt, loads)
    defect = rows_prod[0]

    def rel(ours, reference):
        denom = max(float(la.norm(reference)), 1e-14)
        return float(la.norm(ours - reference)) / denom

    state_diff = max(
        rel(reduced.alpha, state1.alpha),
        rel(reduced.beta, state1.beta),
        rel(reduced.gamma, state1.gamma),
        rel(reduced.theta, state1.theta),
    )
    return {
        "null_dim": null_dim,
        "n_alpha": na,
        "n_pi": npi,
        "full_rank": rank == npi,
        "state_diff": state_diff,
        "pi_diff": rel(pi_hat, state1.pi),
        "multiplier_residual": (float(la.norm(G.T @ state1.pi - defect))
                                / max(float(la.norm(defect)), 1e-14)),
        "constraint_norm": float(la.norm(G @ state1.alpha)),
        "newton_iterations": iterations,
        "production_iterations": diag.iterations,
    }


def per_time_loads(t, data, dm):
    """The right-hand sides (a, b, c) at time ``t``, every data field
    evaluated at ``t`` on the quadrature points of every load site, each
    load built on all dofs of an unconstrained copy of its space and then
    sliced to the free dofs."""
    names = ("velocity", "displacement", "pressure_p")
    full = {name: unconstrained(getattr(dm, name)) for name in names}
    loads = {name: asm.load_volume(full[name], f, t)
             for name, f in zip(names, (data.f_f, data.f_s, data.f_p))}
    extra = vars(data.extra or asm.ExtraLoads())
    terms = [("velocity", meshmod.FLUID_INLET, -data.P_in)] + [
        asm._EXTRA_LOAD_SITES[key] + (field,) for key, field in extra.items()
        if field is not None]
    for name, tag, field in terms:
        space = full[name]
        facets, tris = asm._facet_side(dm.mesh, space, tag)
        if len(facets):
            loads[name] += asm.load_facet(space, facets, tris, field, t)
    return tuple(loads[name][getattr(dm, name).free] for name in names)


class PerTimeFieldNorm:
    """Squared L2 norm of data fields at fixed points with weights ``w``,
    every field evaluated at the points at every time (a constant field
    adds ``c^2`` times the measure); a drop-in for ``monitor._FieldNorm``."""

    def __init__(self, x, y, w):
        self.x, self.y, self.w = x, y, w.ravel()
        self.measure = float(np.sum(w))

    def norm_sq(self, fields, t):
        fields = fields if isinstance(fields, tuple) else (fields,)
        times = np.asarray(t, dtype=float)
        out = np.empty(times.size)
        for k, tk in enumerate(times.ravel()):
            out[k] = self.measure * sum(
                f.args[0] ** 2 for f in fields if f.op == "const")
            varying = [f for f in fields if f.op != "const"]
            if varying:
                sq = sum(f(self.x, self.y, tk) ** 2 for f in varying)
                out[k] += sq.ravel() @ self.w
        return float(out[0]) if times.ndim == 0 else out.reshape(times.shape)
