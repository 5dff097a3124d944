"""Independent reference computations used by the test suite.

Everything here is deliberately written against a different code path than
the package: element matrices come from exact symbolic integration, trace
integrals from a hand-rolled Gauss loop, extremal pencil eigenvalues from a
dense LAPACK solve.  Tests compare the production code against these.
"""

import numpy as np
import scipy.linalg as la
import sympy as sym

from fpsi import mesh as meshmod
from fpsi.fem import basis_eval
from fpsi.mesh import Mesh


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


def sympy_element_matrices(coords, degree):
    """Exact mass and stiffness matrices of P1/P2 on one triangle.

    ``coords`` must be sympy-exact numbers; integration is symbolic, so the
    returned float arrays are exact to rounding.
    """
    xi, eta = sym.symbols("xi eta", nonnegative=True)
    (x0, y0), (x1, y1), (x2, y2) = coords
    l0, l1, l2 = 1 - xi - eta, xi, eta
    if degree == 1:
        basis = [l0, l1, l2]
    elif degree == 2:
        basis = [
            l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
            4 * l0 * l1, 4 * l1 * l2, 4 * l2 * l0,
        ]
    else:
        raise ValueError(degree)
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
        length = mesh.facet_lengths([f])[0]
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
        length = mesh.facet_lengths([f])[0]
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
        length = mesh.facet_lengths([f])[0]
        total += length * (wts * integrand(x[:, 0], x[:, 1], t, n, v)).sum()
    return total


def dense_quotient_max(A, B):
    """Largest lambda of the sparse pencil A x = lambda B x, densely."""
    return float(la.eigh(A.toarray(), B.toarray(), eigvals_only=True)[-1])
