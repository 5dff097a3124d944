"""Numerical estimation of the stability constants used by the certificates.

Every constant is realised as the square root of an extremal generalised
eigenvalue ``A x = lambda B x`` over a discrete space, except ``Sf`` (a
quartic/quadratic quotient maximised by projected gradient ascent).  Every
pencil on a mesh-sized space is solved by one Lanczos routine (ARPACK
``eigsh``); only ``Cj``, whose pencil lives on the inlet trace dofs (one of
them on a 2 x 2 mesh, too few for ARPACK), is solved by LAPACK ``eigh``.

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
Kf        Korn-type:                  |grad v|_{L2}^2 / |D(v)|_{L2}^2
Kappa     inf-sup of the divergence coupling (minimal eigenvalue of the
          pressure Schur complement, applied matrix-free, against the
          pressure mass)
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
    DEFAULT_FACET_ORDER,
    PhysicalParams,
    _boundary_facet_tris,
    _geometry,
    assemble_system,
    facet_matrix,
    restrict,
    scalar_mass,
    scalar_stiffness,
)
from .fem import (ElementKind, VectorSpace, basis_eval, make_scalar_space,
                  triangle_rule)

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


def _lanczos(A, B, which):
    """One extremal lambda of A x = lambda B x by Lanczos (ARPACK mode 2).

    ``A`` may be a matrix or a LinearOperator; ARPACK factors ``B`` to
    apply its inverse.  The iteration starts from the constant
    vector, and ARPACK restarts from a random vector once the Krylov space
    fills a tiny pencil (2 x 2 mesh), so its seed is fixed to keep reruns
    bitwise equal.
    """
    vals = spla.eigsh(A, k=1, M=B, which=which, v0=np.ones(B.shape[0]),
                      rng=0, return_eigenvectors=False)
    return float(vals[0])


def quotient_max(A, B):
    """Largest lambda of the sparse pencil A x = lambda B x.

    A is symmetric positive semidefinite and B symmetric positive definite.
    """
    if A.shape != B.shape:
        raise ValueError("pencil matrices must have matching shapes")
    return _lanczos(A.tocsc(), B.tocsc(), "LA")


def quotient_min(A, B, zero_tol=1e-12):
    """Smallest lambda of the pencil A x = lambda B x (A may be matrix-free).

    Raises ConstantError when the pencil has a (numerically) zero mode,
    since the corresponding inf-sup constant would then be meaningless;
    the largest lambda, found by a second Lanczos run, sets the scale.
    """
    lo, hi = _lanczos(A, B, "SA"), _lanczos(A, B, "LA")
    if hi <= 0.0 or lo <= zero_tol * hi:
        raise ConstantError(
            f"pencil has a numerically zero mode (min {lo:.3e}, "
            f"max {hi:.3e})")
    return lo


def _facet_mass(space, facets, tris, order=DEFAULT_FACET_ORDER):
    """Facet mass matrix; a vector space gets one block per component."""
    if not isinstance(space, VectorSpace):
        return facet_matrix(space, space, facets, tris, tris, order=order)
    m = facet_matrix(space.scalar, space.scalar, facets, tris, tris,
                     order=order)
    return sp.block_diag([m, m]).tocsr()


def _free_interface_dof_count(space):
    """Number of free dofs of ``space`` on the interface."""
    trace = space.facet_dofs(space.mesh.interface_facets)
    count = int(np.count_nonzero(np.isin(trace, space.free)))
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
        ofacets = np.concatenate(
            [mesh.facets_with_tag(tag) for tag in other_tags])
        odofs = space.facet_dofs(ofacets)
        inlet_all = space.facet_dofs(mesh.facets_with_tag(meshmod.FLUID_INLET))
        # the inlet endpoints belong to the zeroed part of the boundary, so
        # the lifted trace norm vanishes at them
        inlet = np.setdiff1d(inlet_all, odofs)
        bdofs = np.union1d(inlet_all, odofs)
        interior = np.setdiff1d(np.arange(space.ndof), bdofs)

        K = scalar_stiffness(space)
        M = scalar_mass(space, space)

        Kii = K[interior][:, interior].tocsc()
        Kin = K[interior][:, inlet].toarray()
        Xi = -spla.splu(Kii).solve(Kin)

        Z = np.zeros((space.ndof, len(inlet)))
        Z[inlet, np.arange(len(inlet))] = 1.0
        Z[interior] = Xi

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


class _QuarticForm:
    """Integral of |v|^4 over the cells of a vector space, with gradient."""

    def __init__(self, space, order=8):
        mesh = space.mesh
        rule = triangle_rule(order)
        vals, _ = basis_eval(space.kind, rule.points)
        _, _, det = _geometry(mesh, space.tri_ids)
        self.vals = vals
        self.wdet = rule.weights[None, :] * det[:, None]
        self.cell_dofs = space.cell_dofs_vector()
        self.ndof = space.ndof
        self.free = space.free

    def value_and_grad(self, z_free):
        full = np.zeros(self.ndof)
        full[self.free] = z_free
        coeffs = full[self.cell_dofs]
        u = np.einsum("qkd,ck->cqd", self.vals, coeffs)
        s = np.einsum("cqd,cqd->cq", u, u)
        value = float(np.einsum("cq,cq->", self.wdet, s * s))
        gcell = 4.0 * np.einsum("cq,cq,cqd,qkd->ck", self.wdet, s, u,
                                self.vals)
        gfull = np.zeros(self.ndof)
        np.add.at(gfull, self.cell_dofs.ravel(), gcell.ravel())
        return value, gfull[self.free]


def sobolev_l4_constant(blocks, seed=0, starts=0, maxit=400, order=8):
    """max |v|_{L4} / |grad v|_{L2} over the discrete velocity space.

    The quartic functional Q(z) = |v|_{L4}^4 is convex, so the
    conditional-gradient step on the unit stiffness sphere -- move to the
    maximiser ``K^-1 grad Q / |.|_K`` of its linearisation -- is a
    guaranteed monotone ascent: Q(w) >= Q(z) + g.(w - z) and w maximises
    g.w over the sphere.  One deterministic smooth start (the constant-load
    stiffness solve) is always used; ``starts > 0`` opts in to that many
    extra random states drawn from ``seed`` (on the meshes tested they
    gained at most round-off).  The best value gives ``Sf = Q^(1/4)``, a
    certified lower bound of the discrete supremum.
    """
    V = blocks.dm.velocity
    K = restrict(blocks.raw["stiff_u"], V, V)
    lu = spla.splu(K.tocsc())
    form = _QuarticForm(V, order)
    rng = np.random.default_rng(seed)
    n = V.n_free

    def normalize(z):
        return z / np.sqrt(z @ (K @ z))

    initial = [lu.solve(blocks.mass_u @ np.ones(n))]
    initial.extend(rng.standard_normal(n) for _ in range(starts))

    best = 0.0
    best_iters = 0
    for z0 in initial:
        z = normalize(z0)
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
        if q > best:
            best = q
            best_iters = it
    if best <= 0.0:
        raise ConstantError("ascent failed to find a positive quartic value")
    return float(best ** 0.25), best_iters


def infsup_constant(blocks):
    """Smallest eigenvalue sqrt of the pressure Schur complement pencil.

    The Schur complement ``G H^-1 G^T`` of the divergence coupling against
    the full H1 velocity matrix is applied matrix-free, from one
    factorisation of ``H``, and compared with the pressure mass matrix.
    """
    Q = blocks.dm.pressure_f
    G = blocks.Gdiv
    GT = G.T
    H = spla.splu(blocks.h1_u.tocsc())
    S = spla.LinearOperator((G.shape[0], G.shape[0]), dtype=float,
                            matvec=lambda v: G @ H.solve(GT @ v))
    Mq = restrict(blocks.raw["mass_q"], Q, Q).tocsc()
    return float(np.sqrt(quotient_min(S, Mq)))


def _trace_pencil(blocks, kind):
    """Matrices (A, B) of one simple trace/Poincare/Korn quotient."""
    dm = blocks.dm
    mesh = dm.mesh
    V, W, R = dm.velocity, dm.displacement, dm.pressure_p
    ifacets = mesh.interface_facets
    inlet = mesh.facets_with_tag(meshmod.FLUID_INLET)
    traces = {
        "T1": (V, ifacets, mesh.interface_fluid_tri, blocks.h1_u),
        "T2": (V, inlet, _boundary_facet_tris(mesh, inlet), blocks.h1_u),
        "T4": (R, ifacets, mesh.interface_poro_tri, blocks.h1_p),
        "T5": (W, ifacets, mesh.interface_poro_tri, blocks.h1_d),
    }
    if kind in traces:
        space, facets, tris, h1 = traces[kind]
        return restrict(_facet_mass(space, facets, tris), space, space), h1
    if kind == "P1c":
        return blocks.mass_u, restrict(blocks.raw["stiff_u"], V, V)
    if kind == "P2c":
        return blocks.mass_d, restrict(blocks.raw["stiff_d"], W, W)
    if kind == "P3c":
        return blocks.mass_p, restrict(blocks.raw["stiff_p"], R, R)
    if kind == "Kf":
        return (restrict(blocks.raw["stiff_u"], V, V),
                restrict(blocks.raw["visc_u"], V, V))
    raise ValueError(f"unknown constant kind {kind!r}")


def estimate(kind, blocks, level=0, seed=0, sf_starts=0, sf_maxit=400):
    """Estimate one constant on an assembled system.

    ``meta["method"]`` records the path taken: ``eigsh`` (Lanczos on a
    mesh-sized pencil), ``eigh`` (dense LAPACK on the inlet trace pencil of
    ``Cj``) or ``ascent`` (the Sobolev quotient).  ``Cj`` also leaves its
    :class:`InletLifting` in ``meta["lifting"]`` for the certificate.
    """
    if kind not in CONSTANT_KINDS:
        raise ValueError(f"unknown constant kind {kind!r}")
    dm = blocks.dm
    meta = {"description": KIND_DESCRIPTIONS[kind], "method": "eigsh"}
    if kind == "Sf":
        value, iters = sobolev_l4_constant(blocks, seed=seed,
                                           starts=sf_starts, maxit=sf_maxit)
        dofs = dm.velocity.n_free
        meta.update(method="ascent", starts=sf_starts, best_iterations=iters)
    elif kind == "Kappa":
        value, dofs = infsup_constant(blocks), dm.pressure_f.n_free
    elif kind == "Cj":
        lifting = InletLifting(dm.mesh)
        value, dofs = lifting.cj, len(lifting.inlet_dofs)
        meta.update(method="eigh", lifting=lifting)
    elif kind == "T3":
        # the trace energy of t is the least pore stiffness energy over the
        # extensions of t, so the interface mass against the whole free
        # pore stiffness has the top eigenvalue of the trace pencil
        R = dm.pressure_p
        dofs = _free_interface_dof_count(R)
        A = _trace_pencil(blocks, "T4")[0]
        K = restrict(blocks.raw["stiff_p"], R, R)
        value = float(np.sqrt(1.0 + quotient_max(A, K)))
    else:
        A, B = _trace_pencil(blocks, kind)
        value, dofs = float(np.sqrt(quotient_max(A, B))), B.shape[0]
    return ConstantEstimate(kind, value, level, dofs, meta)


def estimate_all(blocks, level=0, kinds=CONSTANT_KINDS, seed=0,
                 sf_starts=0, sf_maxit=400):
    """Estimate several constants on one assembled system."""
    return [estimate(kind, blocks, level=level, seed=seed,
                     sf_starts=sf_starts, sf_maxit=sf_maxit)
            for kind in kinds]


def report(levels, split=0.5, params=None, kinds=CONSTANT_KINDS, seed=0,
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
        out.extend(estimate_all(blocks, level=n, kinds=kinds, seed=seed,
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
    M = restrict(scalar_mass(space, space), space, space)
    K = restrict(scalar_stiffness(space), space, space)
    return float(np.sqrt(quotient_max(M, K)))


def richardson(coarse, fine, rate=2):
    """Extrapolate two values computed at h and h/2 assuming O(h^rate)."""
    w = 2.0 ** rate
    return (w * fine - coarse) / (w - 1.0)
