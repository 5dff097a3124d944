"""Numerical estimation of the stability constants used by the certificates.

Every constant is realised as the square root of an extremal generalised
eigenvalue ``A x = lambda B x`` over a discrete space, except ``Sf`` (a
quartic/quadratic quotient maximised by projected gradient ascent).  Every
pencil on a mesh-sized space is solved by one Lanczos routine (ARPACK
``eigsh``, ``B`` inverted through one sparse LU factor in a symmetric
order, which :func:`estimate_all` shares between the estimators that
invert the same matrix); only ``Cj``, whose
pencil lives on the inlet trace dofs (one of them on a 2 x 2 mesh, too few
for ARPACK), is solved by LAPACK ``eigh``.

========  ==================================================================
kind      quotient (constant = sqrt of extremal value)
========  ==================================================================
T1        velocity interface trace:   |v|_{L2(I)}^2   / |v|_{H1(F)}^2
T2        velocity inlet trace:       |v|_{L2(in)}^2  / |v|_{H1(F)}^2
T3        pore-pressure interface trace against the trace energy,
          1 + max |r|_{L2(I)}^2 / |grad r|_{L2(P)}^2 (the minimum over
          extensions of a trace, so no Schur complement is formed)
T4        pore-pressure interface trace: |r|_{L2(I)}^2 / |r|_{H1(P)}^2
T5        displacement interface trace: |xi|_{L2(I)}^2 / |xi|_{H1(P)}^2
P1c       velocity Poincare:          |v|_{L2}^2 / |grad v|_{L2}^2
P2c       displacement Poincare:      |xi|_{L2}^2 / |grad xi|_{L2}^2
P3c       pore-pressure Poincare:     |r|_{L2}^2 / |grad r|_{L2}^2
Sf        L4 Sobolev embedding:       max |v|_{L4} / |grad v|_{L2}
          (|v|^4 and its derivatives by two matmuls; one Lanczos run on
          the sphere Hessian where the ascent stops)
Kf        Korn-type:                  |grad v|_{L2}^2 / |D(v)|_{L2}^2
Kappa     inf-sup of the divergence coupling (minimal eigenvalue of the
          pressure Schur complement, applied matrix-free, against the
          pressure mass; one Lanczos run)
Cj        inlet lifting: harmonic zero-extension of inlet traces,
          1 + max eig of lifted mass against lifted stiffness (dense)
========  ==================================================================

All quotients are taken over the constrained (free) degrees of freedom of
the production spaces, so each value is a certified constant for the
discrete spaces actually used by the solver.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import mesh as meshmod
from .assembly import (
    FACET_ORDER,
    _boundary_facet_tris,
    _components,
    _rule_values,
    _scalar_space_of,
    _scatter,
    _scatter_vector,
    cell_quadrature,
    facet_quadrature,
    mass,
    stiffness,
)
from .fem import ElementKind, make_scalar_space

CONSTANT_KINDS = ("T1", "T2", "T3", "T4", "T5",
                  "P1c", "P2c", "P3c", "Sf", "Kf", "Kappa", "Cj")

KIND_DESCRIPTIONS = {
    "T1": "velocity trace on the interface vs full H1 norm",
    "T2": "velocity trace on the inlet vs full H1 norm",
    "T3": "pore pressure interface trace vs trace energy (lifted)",
    "T4": "pore pressure trace on the interface vs full H1 norm",
    "T5": "displacement trace on the interface vs full H1 norm",
    "P1c": "velocity Poincare constant (L2 vs H1 seminorm)",
    "P2c": "displacement Poincare constant (L2 vs H1 seminorm)",
    "P3c": "pore pressure Poincare constant (L2 vs H1 seminorm)",
    "Sf": "L4 embedding constant (L4 vs H1 seminorm)",
    "Kf": "Korn constant (full gradient vs symmetric gradient)",
    "Kappa": "inf-sup constant of the divergence coupling",
    "Cj": "inlet lifting constant (H1 of extension vs trace energy)",
}


class ConstantError(RuntimeError):
    """Raised when an estimator cannot produce a trustworthy value."""


@dataclass(frozen=True)
class ConstantEstimate:
    """One estimated constant on one mesh."""

    kind: str
    value: float
    mesh_level: int
    dofs: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in CONSTANT_KINDS:
            raise ValueError(f"unknown constant kind {self.kind!r}")


def _factor(B):
    """One sparse LU factor of the symmetric positive definite ``B``.

    Every matrix the estimators invert is SPD, so the factor takes a
    minimum-degree order of ``B + B^T`` and its diagonal pivots, which
    fills about half as much as a general column order.
    """
    return spla.splu(sp.csc_matrix(B), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, options={"SymmetricMode": True})


def _operator(blocks, name):
    """The assembled operator ``name``; ``h1_<s>`` is the H1 product of
    space ``s``, formed at use as its mass plus its stiffness."""
    if name.startswith("h1_"):
        suffix = name[3:]
        return (getattr(blocks, "mass_" + suffix)
                + getattr(blocks, "stiff_" + suffix))
    return getattr(blocks, name)


def _factored(blocks, name, factors):
    """The factor of operator ``name``, made on first use and kept in the
    dict ``factors`` (None: a factor for this call alone)."""
    if factors is None:
        return _factor(_operator(blocks, name))
    if name not in factors:
        factors[name] = _factor(_operator(blocks, name))
    return factors[name]


def _lanczos(A, B, which, lu=None):
    """One extremal lambda of A x = lambda B x by Lanczos (ARPACK mode 2).

    ``A`` may be a matrix or a LinearOperator, and ``lu``, a factor of
    ``B`` (see :func:`_factor`, made here when not given), applies
    ``B^-1``.  The iteration starts from the constant vector, and ARPACK
    restarts from a random vector once the Krylov space fills a tiny pencil
    (2 x 2 mesh), so its seed is fixed to keep reruns bitwise equal.
    """
    lu = _factor(B) if lu is None else lu
    Binv = spla.LinearOperator(B.shape, lu.solve)
    vals = spla.eigsh(A, k=1, M=B, Minv=Binv, which=which,
                      v0=np.ones(B.shape[0]), rng=0,
                      return_eigenvectors=False)
    return float(vals[0])


def quotient_max(A, B, lu=None):
    """Largest lambda of the sparse pencil A x = lambda B x.

    A is symmetric positive semidefinite and B symmetric positive definite;
    ``lu`` is a factor of B, made here when not given.
    """
    if A.shape != B.shape:
        raise ValueError("pencil matrices must have matching shapes")
    return _lanczos(A.tocsc(), B.tocsc(), "LA", lu)


ZERO_MODE_TOL = 1e-12  # quotient_min's zero-mode bound, relative to its scale


def quotient_min(A, B, lu=None):
    """Smallest lambda of the pencil A x = lambda B x (A may be matrix-free).

    Raises ConstantError when the pencil has a (numerically) zero mode,
    since the corresponding inf-sup constant would then be meaningless.
    The guard's scale is the Rayleigh quotient r of the constant vector:
    r is at most the largest lambda, and r = 0 makes that vector a zero mode.
    """
    ones = np.ones(B.shape[0])
    scale = float(ones @ (A @ ones)) / float(ones @ (B @ ones))
    lo = _lanczos(A, B, "SA", lu) if scale > 0.0 else 0.0
    if not lo > ZERO_MODE_TOL * scale:
        raise ConstantError(
            f"pencil has a numerically zero mode (min {lo:.3e}, "
            f"Rayleigh quotient of the constant vector {scale:.3e})")
    return lo


def _facet_mass(space, facets, tris):
    """Facet mass matrix on free dofs; a vector space gets one block per
    component."""
    q = facet_quadrature(_scalar_space_of(space), facets, tris, FACET_ORDER)
    cells = np.einsum("fq,fqi,fqj->fij", q.wts, q.vals, q.vals)
    return _scatter(space, space, [(1.0, cells, c, c)
                                   for c in _components(space)],
                    q.dofs, q.dofs)


def _free_interface_dof_count(space):
    """Number of free dofs of ``space`` on the interface."""
    trace = space.facet_dofs(space.mesh.interface_facets)
    count = int(np.count_nonzero(space.free_index[trace] >= 0))
    if count == 0:
        raise ConstantError("no free interface dofs on this space")
    return count


class InletLifting:
    """Harmonic zero-extension of inlet traces on the fluid subdomain.

    A scalar trace ``g`` on the inlet is extended by zero on the rest of
    the fluid boundary and harmonically (stiffness-minimising) into the
    interior.  ``S00`` is the resulting trace energy, which realises a
    squared trace norm vanishing at the inlet endpoints; ``cj`` bounds the
    full H1 norm of the extension by that trace norm.
    """

    def __init__(self, mesh):
        space = make_scalar_space(mesh, ElementKind.P2,
                                  subdomain=meshmod.FLUID)
        other_tags = (meshmod.FLUID_OUTLET, meshmod.FLUID_EXTERNAL,
                      meshmod.INTERFACE)
        # its free dofs are the interior dofs
        interior = make_scalar_space(
            mesh, ElementKind.P2, subdomain=meshmod.FLUID,
            dirichlet_tags=(meshmod.FLUID_INLET,) + other_tags)
        ofacets = np.concatenate(
            [mesh.facets_with_tag(tag) for tag in other_tags])
        # the inlet endpoints belong to the zeroed part of the boundary, so
        # the lifted trace norm vanishes at them
        inlet = np.setdiff1d(space.tagged_dofs(meshmod.FLUID_INLET),
                             space.facet_dofs(ofacets))

        K = stiffness(space)
        M = mass(space)

        Z = np.zeros((space.ndof, len(inlet)))
        Z[inlet, np.arange(len(inlet))] = 1.0
        Kii = _factor(stiffness(interior))
        Z[interior.free] = -Kii.solve((K @ Z)[interior.free])

        S00 = Z.T @ (K @ Z)
        M00 = Z.T @ (M @ Z)
        self.space = space
        self.inlet_dofs = inlet
        self.inlet_coords = space.dof_coords[inlet]
        self.S00 = 0.5 * (S00 + S00.T)
        self._M00 = 0.5 * (M00 + M00.T)
        lam = la.eigh(self._M00, self.S00, eigvals_only=True)[-1]
        self.cj = float(np.sqrt(1.0 + lam))

    def norm00(self, values):
        """Trace norm of inlet values given at ``inlet_coords``."""
        g = np.asarray(values, dtype=float)
        if g.shape != (len(self.inlet_dofs),):
            raise ValueError("values must match the inlet dof layout")
        return float(np.sqrt(g @ (self.S00 @ g)))

    def norm00_of(self, expr, t=0.0):
        """Trace norm of a scalar expression evaluated on the inlet."""
        coords = self.inlet_coords
        g = np.asarray(expr(coords[:, 0], coords[:, 1], t), dtype=float)
        g = np.broadcast_to(g, (len(self.inlet_dofs),))
        return self.norm00(np.array(g))


# |v|^4 of a P2 field is a polynomial of degree 8 on an affine cell, so this
# Gauss rule integrates the Sobolev quotient's numerator exactly
SF_ORDER = 8


class _QuarticForm:
    """Integral of |v|^4 over the cells of a vector space, with derivatives.

    With the basis table held as ``V2`` of shape (k, q*d), the values at all
    Gauss points are one matmul, ``coeffs @ V2``, and a gradient or
    Hessian-vector product one more, ``weights @ V2.T``.  A constrained
    dof (``free_index`` -1) reads a zero appended to the coefficients."""

    def __init__(self, space):
        vals = _rule_values(space.kind, SF_ORDER)
        nq, k, d = vals.shape
        self.V2 = np.ascontiguousarray(vals.transpose(1, 0, 2).reshape(k, -1))
        self.wdet = cell_quadrature(space.mesh, space.scalar.subdomain,
                                    SF_ORDER).wdet
        self.shape = (len(self.wdet), nq, d)
        self.cell_dofs = space.free_index[space.cell_dofs_vector()]
        self.n_free, self.fixed = space.n_free, space.fixed

    def _fields(self, z_free):
        u = (np.append(z_free, 0.0)[self.cell_dofs] @ self.V2).reshape(
            self.shape)
        return u, u[..., 0] * u[..., 0] + u[..., 1] * u[..., 1]

    def _pull(self, weights):
        gcell = weights.reshape(self.shape[0], -1) @ self.V2.T
        return _scatter_vector(self.cell_dofs, gcell, self.n_free)

    def value_and_grad(self, z_free):
        u, s = self._fields(z_free)
        ws = self.wdet * s
        return float(np.sum(ws * s)), self._pull(4.0 * ws[..., None] * u)

    def hessian(self, z_free):
        """w -> grad^2 Q(z) w, with weights 4 wdet (|v|^2 w + 2 (v.w) v)."""
        u, s = self._fields(z_free)
        w4 = 4.0 * self.wdet[..., None]

        def product(w_free):
            uw, _ = self._fields(w_free)
            uu = np.sum(u * uw, axis=-1, keepdims=True)
            return self._pull(w4 * (s[..., None] * uw + 2.0 * uu * u))
        return product


# times the Sobolev ascent may leave a saddle before it gives up
SF_ESCAPES = 3


def _top_curvature(form, K, Kinv, z, q):
    """Top eigenpair of Q's Riemannian Hessian on the K-unit sphere at z.

    The Hessian is ``P^T (grad^2 Q - 4 Q K) P``, ``P = I - z z^T K``,
    against ``K`` (Absil, Mahony & Sepulchre 2008, 5.5), all eigenvalues
    >= -4Q as grad^2 Q is semidefinite.  The radial ``z`` and, if the space
    rotates, the rotation of ``z`` (along an orbit of stationary points)
    have eigenvalue 0 by construction and are moved to -8Q.  Lanczos
    starts from a seeded random vector, unconfined by any symmetry of z.
    """
    hessp, half = form.hessian(z), len(z) // 2
    # v -> (-v_y, v_x) keeps |v|, and K if both components share free dofs
    rotates = np.array_equal(*np.split(form.fixed, 2))
    Kz = K @ z
    flat = [Kz, K @ np.r_[-z[half:], z[:half]]] if rotates else [Kz]

    def matvec(w):
        pw = w - z * (Kz @ w)
        y = hessp(pw) - (4.0 * q) * (K @ pw)
        return y - Kz * (z @ y) - sum((8.0 * q * (Kd @ w)) * Kd for Kd in flat)
    vals, vecs = spla.eigsh(spla.LinearOperator(K.shape, matvec), k=1, M=K,
                            Minv=Kinv, which="LA", rng=0)
    return float(vals[0]), vecs[:, 0]


def sobolev_l4_constant(blocks, seed=0, starts=0, maxit=400, factors=None):
    """max |v|_{L4} / |grad v|_{L2} over the discrete velocity space.

    The quartic functional Q(z) = |v|_{L4}^4 is convex, so the
    conditional-gradient step on the unit stiffness sphere -- move to the
    maximiser ``K^-1 grad Q / |.|_K`` of its linearisation -- is a
    guaranteed monotone ascent: Q(w) >= Q(z) + g.(w - z) and w maximises
    g.w over the sphere.  Where it stops gaining (or after ``maxit``
    steps) the top curvature of Q on the sphere is checked: while positive,
    at most ``SF_ESCAPES`` times, the ascent resumes along its eigenvector
    above the stopping value; a saddle after that raises ConstantError.
    One deterministic smooth start (the constant-load stiffness solve) is
    always used; ``starts > 0`` adds that many random states from ``seed``.
    The best value gives ``Sf = Q^(1/4)``, a certified lower bound of the
    discrete supremum, returned with its start's ``best_iterations`` and
    final ``curvature``.  The stiffness factor is taken from ``factors``
    (see :func:`estimate`).
    """
    V, K = blocks.dm.velocity, blocks.stiff_u
    lu = _factored(blocks, "stiff_u", factors)
    Kinv = spla.LinearOperator(K.shape, lu.solve)
    form = _QuarticForm(V)

    def normalize(z):
        return z / np.sqrt(z @ (K @ z))

    def ascend(z):
        q, g = form.value_and_grad(z)
        it = 0
        for it in range(1, maxit + 1):
            z_new = normalize(lu.solve(g))
            q_new, g_new = form.value_and_grad(z_new)
            if q_new < q:
                break
            gain = q_new - q
            z, q, g = z_new, q_new, g_new
            if gain <= 1e-13 * q:
                break
        return z, q, it

    initial = [lu.solve(blocks.mass_u @ np.ones(V.n_free))]
    initial.extend(np.random.default_rng(seed).standard_normal(
        (starts, V.n_free)))

    best, info = 0.0, {}
    for z0 in initial:
        z, iters = normalize(z0), 0
        for escape in range(SF_ESCAPES + 1):
            z, q, it = ascend(z)
            iters += it
            curvature, w = _top_curvature(form, K, Kinv, z, q)
            if curvature <= 1e-9 * q or escape == SF_ESCAPES:
                break
            for t in 0.5 ** np.arange(30):  # Q gains curvature t^2 / 2
                if form.value_and_grad(normalize(z + t * w))[0] > q:
                    z = normalize(z + t * w)
                    break
        if q > best:
            best, info = q, {"best_iterations": iters,
                             "curvature": curvature}
    if best <= 0.0:
        raise ConstantError("ascent failed to find a positive quartic value")
    if info["curvature"] > 1e-9 * best:
        raise ConstantError(f"Sf ascent ends at a saddle ({info})")
    return float(best ** 0.25), info


def infsup_constant(blocks, factors=None):
    """Smallest eigenvalue sqrt of the pressure Schur complement pencil.

    The Schur complement ``G H^-1 G^T`` of the divergence coupling against
    the full H1 velocity matrix is applied matrix-free, from one
    factorisation of ``H``, and compared with the pressure mass matrix.
    Both factors are taken from ``factors`` (see :func:`estimate`).
    """
    G = blocks.Gdiv
    GT = G.T
    H = _factored(blocks, "h1_u", factors)
    S = spla.LinearOperator((G.shape[0], G.shape[0]), dtype=float,
                            matvec=lambda v: G @ H.solve(GT @ v))
    return float(np.sqrt(quotient_min(
        S, blocks.mass_q, _factored(blocks, "mass_q", factors))))


# the operators each estimator factors (see _operator), in the order
# estimate_all runs the kinds: estimators that share a factor run next to
# each other, and each factor is freed after the last one that reads it;
# Cj factors a matrix of its own lifting space
_FACTORED = {"T1": ("h1_u",), "T2": ("h1_u",), "Kappa": ("h1_u", "mass_q"),
             "P1c": ("stiff_u",), "Sf": ("stiff_u",),
             "T3": ("stiff_p",), "P3c": ("stiff_p",),
             "T4": ("h1_p",), "T5": ("h1_d",), "P2c": ("stiff_d",),
             "Kf": ("visc_u",), "Cj": ()}


def _trace_pencil(blocks, kind):
    """Matrices (A, B) of one simple trace/Poincare/Korn quotient."""
    dm = blocks.dm
    mesh = dm.mesh
    V, W, R = dm.velocity, dm.displacement, dm.pressure_p
    ifacets = mesh.interface_facets
    inlet = mesh.facets_with_tag(meshmod.FLUID_INLET)
    traces = {
        "T1": (V, ifacets, mesh.interface_fluid_tri),
        "T2": (V, inlet, _boundary_facet_tris(mesh, inlet)),
        "T4": (R, ifacets, mesh.interface_poro_tri),
        "T5": (W, ifacets, mesh.interface_poro_tri),
    }
    numerators = {"P1c": "mass_u", "P2c": "mass_d", "P3c": "mass_p",
                  "Kf": "stiff_u"}
    if kind in traces:
        A = _facet_mass(*traces[kind])
    elif kind in numerators:
        A = getattr(blocks, numerators[kind])
    else:
        raise ValueError(f"unknown constant kind {kind!r}")
    return A, _operator(blocks, _FACTORED[kind][0])


def estimate(kind, blocks, level=0, seed=0, sf_starts=0, sf_maxit=400,
             factors=None):
    """Estimate one constant on an assembled system.

    ``meta["method"]`` records the path taken: ``eigsh`` (Lanczos on a
    mesh-sized pencil), ``eigh`` (dense LAPACK on the inlet trace pencil of
    ``Cj``) or ``ascent`` (the Sobolev quotient, with ``best_iterations``
    and the final sphere-Hessian ``curvature``, negative at a local
    maximum).  ``Cj`` also leaves its
    :class:`InletLifting` in ``meta["lifting"]`` for the certificate.
    ``factors`` is a dict of the operator factors estimators share, keyed
    by operator name: a factor missing from it is made and kept there.
    Without it, the estimate makes its own factors.
    """
    if kind not in CONSTANT_KINDS:
        raise ValueError(f"unknown constant kind {kind!r}")
    dm = blocks.dm
    meta = {"description": KIND_DESCRIPTIONS[kind], "method": "eigsh"}
    if kind == "Sf":
        value, info = sobolev_l4_constant(blocks, seed=seed,
                                          starts=sf_starts, maxit=sf_maxit,
                                          factors=factors)
        dofs = dm.velocity.n_free
        meta.update(method="ascent", starts=sf_starts, **info)
    elif kind == "Kappa":
        value, dofs = infsup_constant(blocks, factors), dm.pressure_f.n_free
    elif kind == "Cj":
        lifting = InletLifting(dm.mesh)
        value, dofs = lifting.cj, len(lifting.inlet_dofs)
        meta.update(method="eigh", lifting=lifting)
    elif kind == "T3":
        # the trace energy of t is the least pore stiffness energy over the
        # extensions of t, so the interface mass against the whole free
        # pore stiffness has the top eigenvalue of the trace pencil
        R, mesh = dm.pressure_p, dm.mesh
        dofs = _free_interface_dof_count(R)
        A = _facet_mass(R, mesh.interface_facets, mesh.interface_poro_tri)
        value = float(np.sqrt(1.0 + quotient_max(
            A, blocks.stiff_p, _factored(blocks, "stiff_p", factors))))
    else:
        A, B = _trace_pencil(blocks, kind)
        lu = _factored(blocks, _FACTORED[kind][0], factors)
        value, dofs = float(np.sqrt(quotient_max(A, B, lu))), B.shape[0]
    return ConstantEstimate(kind, value, level, dofs, meta)


def estimate_all(blocks, level=0, kinds=CONSTANT_KINDS, seed=0,
                 sf_starts=0, sf_maxit=400):
    """Estimate several constants on one assembled system.

    The kinds run in ``_FACTORED`` order and share one factor per
    operator, each freed after the last estimator that reads it; the
    estimates come back in the order of ``kinds``.
    """
    for kind in kinds:
        if kind not in _FACTORED:
            raise ValueError(f"unknown constant kind {kind!r}")
    order = [kind for kind in _FACTORED if kind in kinds]
    last_reader = {name: kind for kind in order for name in _FACTORED[kind]}
    factors, done = {}, {}
    for kind in order:
        done[kind] = estimate(kind, blocks, level=level, seed=seed,
                              sf_starts=sf_starts, sf_maxit=sf_maxit,
                              factors=factors)
        for name in [n for n, k in last_reader.items() if k == kind]:
            del factors[name]
    return [done[kind] for kind in kinds]
