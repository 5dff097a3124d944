"""Manufactured-solution verification of the coupled solver.

Each manufactured case prescribes smooth exact fields (velocity from a
stream function, so it is exactly solenoidal; fluid pressure; displacement;
pore pressure) that satisfy every *essential* boundary condition of the
production spaces exactly.  Volume forcings are derived symbolically from
the strong equations, and every natural or interface condition the fields
do not satisfy is added back as an explicit boundary defect load, so the
exact fields solve the modified weak problem.  With ``n`` the unit normal
pointing out of the fluid and ``tau`` the interface tangent, the interface
defect integrands are

- momentum row:   ``sigma_f n + w n + beta ((u - eta_t) . tau) tau``
- structure row:  ``-sigma_tot n - w n - beta ((u - eta_t) . tau) tau``
- Darcy row:      ``(eta_t - K grad w - u) . n``

plus the tangential inlet traction, the full outlet traction, the total
stress tensor on the outer poroelastic sides (normal-normal component) and
the Darcy flux on the bottom.  The ``interface-compatible`` case is
constructed so that all four interface conditions hold identically and the
three interface defects vanish.

The module also provides error norms against the exact fields, a mesh
convergence study whose per-level records feed the acceptance checks, and
direct interface-residual norms of a discrete state.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import mesh as meshmod
from .assembly import (
    ExtraLoads,
    PhysicalParams,
    ProblemData,
    StateVector,
    _phys_grads,
    _rule_values,
    assemble_system,
    cell_quadrature,
    facet_gradients,
    facet_quadrature,
    interface_tangents,
)
from .expressions import Cos, PI, Sin, T, X, Y, div, dt, sym_grad
from .fem import interpolate_scalar, interpolate_vector
from .timestepper import SchemeConfig, StepError, run

CASE_IDS = ("smooth-polynomial", "smooth-trig", "interface-compatible-trig")

ERROR_KEYS = ("vel_l2", "vel_h1", "pf_l2", "disp_h1", "pore_l2", "pore_h1")

# asymptotic lower targets per error norm (superconvergence is not a failure)
EXPECTED_RATES = {
    "vel_l2": 3.0,
    "vel_h1": 2.0,
    "pf_l2": 2.0,
    "disp_h1": 2.0,
    "pore_l2": 2.0,
    "pore_h1": 2.0,
}

RESIDUAL_KEYS = ("mass", "normal_stress", "bjs", "stress_continuity")

# Gauss orders of the error norms (cells) and the interface residuals
# (facets), both integrating smooth exact fields against discrete ones
ERROR_ORDER = 10
RESIDUAL_ORDER = 8


# ---------------------------------------------------------------------------
# symbolic tensor calculus on 2x2 nests of expressions
# ---------------------------------------------------------------------------

def _tensor_div(S):
    """Row-wise divergence of a 2x2 expression nest."""
    return (S[0][0].diff("x") + S[0][1].diff("y"),
            S[1][0].diff("x") + S[1][1].diff("y"))


def _mat_vec(S, n):
    return (S[0][0] * n[0] + S[0][1] * n[1],
            S[1][0] * n[0] + S[1][1] * n[1])


def fluid_stress(u, pf, mu_f):
    """sigma_f = 2 mu_f D(u) - p_f I as a 2x2 expression nest."""
    d = sym_grad(u)
    return ((2.0 * mu_f * d[0][0] - pf, 2.0 * mu_f * d[0][1]),
            (2.0 * mu_f * d[1][0], 2.0 * mu_f * d[1][1] - pf))


def total_stress(eta, w, params):
    """sigma_tot = 2 mu_s D(eta) + lambda_s (div eta) I - alpha w I."""
    d = sym_grad(eta)
    dv = div(eta)
    ms, ls, ab = params.mu_s, params.lambda_s, params.alpha_bw
    diag = ls * dv - ab * w
    return ((2.0 * ms * d[0][0] + diag, 2.0 * ms * d[0][1]),
            (2.0 * ms * d[1][0], 2.0 * ms * d[1][1] + diag))


# ---------------------------------------------------------------------------
# manufactured cases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ManufacturedCase:
    """Exact fields of one manufactured problem plus the matching data."""

    case_id: str
    params: PhysicalParams
    split: float
    amplitude: float
    velocity: tuple
    pressure_f: object
    displacement: tuple
    displacement_dt: tuple
    pressure_p: object
    data: ProblemData


def _fields_smooth_trig(amplitude):
    g = amplitude * Cos(T)
    psi = g * Sin(PI * X) * Sin(PI * Y) ** 2
    u = (psi.diff("y"), -psi.diff("x"))
    pf = g * Cos(PI * X) * Cos(PI * Y)
    eta = (0.2 * g * Sin(PI * Y) * Cos(PI * X),
           0.2 * g * Sin(PI * X) * Sin(PI * Y))
    w = g * Sin(PI * X) * Cos(PI * Y)
    return u, pf, eta, w


def _fields_smooth_polynomial(amplitude):
    g = amplitude * (1.0 + 0.5 * T ** 2)
    psi = g * X * (1.0 - X) * (1.0 - Y) ** 2
    u = (psi.diff("y"), -psi.diff("x"))
    pf = g * (X ** 2 + Y)
    eta = (0.2 * g * X * Y, 0.2 * g * X * (1.0 - X) * Y)
    w = g * X * (1.0 - X) * (Y - 0.5)
    return u, pf, eta, w


def _fields_interface_compatible(params, amplitude, split):
    """Fields that satisfy all four interface conditions identically.

    The velocity comes from psi = g cos(pi x) h(y) with a cubic profile
    h(y) = a (1-y)^2 + b (1-y)^3; the coefficient ``b`` enforces the slip
    condition, the pore-pressure slope matches the Darcy flux, the fluid
    pressure offset matches the normal stress, and the displacement shears
    balance the tangential and normal total stress.  The construction pins
    the interface at y = 1/2 and requires a diagonal permeability.
    """
    if abs(split - 0.5) > 1e-12:
        raise ValueError(
            "the interface-compatible-trig case requires split = 1/2")
    K = params.K
    if abs(K[0, 1]) > 1e-14 * max(1.0, abs(K).max()):
        raise ValueError(
            "the interface-compatible-trig case requires a diagonal "
            "permeability")
    mu, beta = params.mu_f, params.beta_slip
    pi2 = math.pi ** 2
    a = 1.0
    b = -(mu * (2.0 + pi2 / 4.0) + beta) / (
        3.0 * mu + mu * pi2 / 8.0 + 0.75 * beta)
    h_half = a / 4.0 + b / 8.0
    hp_half = -a - 0.75 * b
    c2 = -math.pi * h_half / K[1, 1]
    q_half = 1.0 + 2.0 * mu * math.pi * hp_half
    s1 = beta * hp_half / params.mu_s
    s2 = (params.alpha_bw - 1.0) / (2.0 * params.mu_s + params.lambda_s)

    g = amplitude * Cos(T)
    h = a * (1.0 - Y) ** 2 + b * (1.0 - Y) ** 3
    psi = g * Cos(PI * X) * h
    u = (psi.diff("y"), -psi.diff("x"))
    pf = g * Sin(PI * X) * (q_half + (Y - 0.5))
    w = g * Sin(PI * X) * (1.0 + c2 * (Y - 0.5))
    eta = (2.0 * s1 * g * Cos(PI * X) * Y * (Y - 0.5),
           2.0 * s2 * g * Sin(PI * X) * Y * (Y - 0.5))
    return u, pf, eta, w


def _problem_data(u, pf, eta, w, params):
    """Volume forcings and boundary defect loads for the given exact fields."""
    rf, mu = params.rho_f, params.mu_f
    rs, ab = params.rho_s, params.alpha_bw
    beta = params.beta_slip
    K = params.K
    etadot = dt(eta)

    # volume forcings from the strong equations
    d_u = sym_grad(u)
    visc = ((2.0 * mu * d_u[0][0], 2.0 * mu * d_u[0][1]),
            (2.0 * mu * d_u[1][0], 2.0 * mu * d_u[1][1]))
    vdiv = _tensor_div(visc)
    conv = (u[0] * u[0].diff("x") + u[1] * u[0].diff("y"),
            u[0] * u[1].diff("x") + u[1] * u[1].diff("y"))
    f_f = (rf * dt(u[0]) + rf * conv[0] - vdiv[0] + pf.diff("x"),
           rf * dt(u[1]) + rf * conv[1] - vdiv[1] + pf.diff("y"))

    d_e = sym_grad(eta)
    dve = div(eta)
    elast = ((2.0 * params.mu_s * d_e[0][0] + params.lambda_s * dve,
              2.0 * params.mu_s * d_e[0][1]),
             (2.0 * params.mu_s * d_e[1][0],
              2.0 * params.mu_s * d_e[1][1] + params.lambda_s * dve))
    ediv = _tensor_div(elast)
    f_s = (rs * dt(dt(eta[0])) - ediv[0] + ab * w.diff("x"),
           rs * dt(dt(eta[1])) - ediv[1] + ab * w.diff("y"))

    kdiv = (K[0, 0] * w.diff("x").diff("x") + K[0, 1] * w.diff("x").diff("y")
            + K[1, 0] * w.diff("y").diff("x") + K[1, 1] * w.diff("y").diff("y"))
    f_p = params.s0 * dt(w) + ab * div(etadot) - kdiv

    P_in = pf - 2.0 * mu * u[0].diff("x")

    # boundary and interface defect loads
    sig_f = fluid_stress(u, pf, mu)
    sig_t = total_stress(eta, w, params)
    kgw = (K[0, 0] * w.diff("x") + K[0, 1] * w.diff("y"),
           K[1, 0] * w.diff("x") + K[1, 1] * w.diff("y"))

    n = (0.0, -1.0)           # interface normal, out of the fluid
    tau = (1.0, 0.0)
    slip = ((u[0] - etadot[0]) * tau[0] + (u[1] - etadot[1]) * tau[1])
    sfn = _mat_vec(sig_f, n)
    stn = _mat_vec(sig_t, n)
    g_mom = (sfn[0] + w * n[0] + beta * slip * tau[0],
             sfn[1] + w * n[1] + beta * slip * tau[1])
    g_str = (-stn[0] - w * n[0] - beta * slip * tau[0],
             -stn[1] - w * n[1] - beta * slip * tau[1])
    g_darcy = ((etadot[0] - kgw[0] - u[0]) * n[0]
               + (etadot[1] - kgw[1] - u[1]) * n[1])

    n_in = (-1.0, 0.0)
    full_in = _mat_vec(sig_f, n_in)
    normal_in = full_in[0] * n_in[0] + full_in[1] * n_in[1]
    t_in = (full_in[0] - normal_in * n_in[0], full_in[1] - normal_in * n_in[1])
    t_out = _mat_vec(sig_f, (1.0, 0.0))

    extra = ExtraLoads(
        inlet_traction=t_in,
        outlet_traction=t_out,
        iface_mom=g_mom,
        iface_str=g_str,
        iface_darcy=g_darcy,
        poroext_stress=sig_t,
        poros_flux=kgw,
    )
    return ProblemData(f_f=f_f, f_s=f_s, f_p=f_p, P_in=P_in, extra=extra)


def manufactured_case(case_id, params=None, amplitude=1.0, split=0.5):
    """Build one of the manufactured cases in :data:`CASE_IDS`."""
    if case_id not in CASE_IDS:
        raise ValueError("unknown case %r; expected one of %s"
                         % (case_id, ", ".join(CASE_IDS)))
    params = PhysicalParams() if params is None else params
    if case_id == "smooth-polynomial":
        u, pf, eta, w = _fields_smooth_polynomial(amplitude)
    elif case_id == "smooth-trig":
        u, pf, eta, w = _fields_smooth_trig(amplitude)
    else:
        u, pf, eta, w = _fields_interface_compatible(params, amplitude, split)
    return ManufacturedCase(
        case_id=case_id,
        params=params,
        split=split,
        amplitude=amplitude,
        velocity=u,
        pressure_f=pf,
        displacement=eta,
        displacement_dt=dt(eta),
        pressure_p=w,
        data=_problem_data(u, pf, eta, w, params),
    )


def _dofmap_of(obj):
    return getattr(obj, "dm", obj)


def initial_state(case, system, t=0.0):
    """Nodal interpolant of the exact fields as a free-dof state.

    ``system`` may be an assembled block system or a bare dof map.
    """
    dm = _dofmap_of(system)
    return StateVector(
        t=t,
        alpha=interpolate_vector(dm.velocity, case.velocity, t)[
            dm.velocity.free],
        beta=interpolate_vector(dm.displacement, case.displacement, t)[
            dm.displacement.free],
        gamma=interpolate_scalar(dm.pressure_p, case.pressure_p, t)[
            dm.pressure_p.free],
        theta=interpolate_vector(dm.displacement, case.displacement_dt, t)[
            dm.displacement.free],
        pi=interpolate_scalar(dm.pressure_f, case.pressure_f, t)[
            dm.pressure_f.free],
    )


# ---------------------------------------------------------------------------
# error norms
# ---------------------------------------------------------------------------

def _full(space, free_values):
    """Values at every dof, a constrained one reading an appended zero."""
    return np.append(free_values, 0.0)[space.free_index]


def _error_sq(space, coeffs, expr, t):
    """(L2^2, H1-seminorm^2) of (discrete - expr) on a scalar space."""
    q = cell_quadrature(space.mesh, space.subdomain, ERROR_ORDER)
    vals = _rule_values(space.kind, ERROR_ORDER)
    gphys = _phys_grads(space, q.jinv, q.rule)
    co = coeffs[space.cell_dofs]
    uh = np.einsum("qi,ci->cq", vals, co, optimize=True)
    guh = np.einsum("cqid,ci->cqd", gphys, co, optimize=True)
    ue = expr(q.x, q.y, t)
    ge = np.stack([expr.diff(v)(q.x, q.y, t) for v in "xy"], axis=-1)
    l2 = float(np.sum(q.wdet * (uh - ue) ** 2))
    h1 = float(np.sum(q.wdet * np.sum((guh - ge) ** 2, axis=-1)))
    return l2, h1


def _scalar_error(space, coeffs, expr, t):
    l2, h1 = _error_sq(space, coeffs, expr, t)
    return math.sqrt(l2), math.sqrt(h1)


def _vector_error(space, coeffs, exprs, t):
    sc = space.scalar
    l2 = h1 = 0.0
    for comp in (0, 1):
        part = coeffs[comp * sc.ndof:(comp + 1) * sc.ndof]
        a, b = _error_sq(sc, part, exprs[comp], t)
        l2 += a
        h1 += b
    return math.sqrt(l2), math.sqrt(h1)


def compute_errors(case, system, state):
    """L2 norms and H1 seminorms of the error against the exact fields.

    Keys: ``vel_l2``, ``vel_h1``, ``pf_l2``, ``disp_h1``, ``pore_l2``,
    ``pore_h1``; the ``_h1`` entries are seminorms; all evaluated at the
    state's own time.  ``system`` may be a block system or a dof map.
    """
    dm = _dofmap_of(system)
    t = state.t
    vel_l2, vel_h1 = _vector_error(
        dm.velocity, _full(dm.velocity, state.alpha), case.velocity, t)
    _, disp_h1 = _vector_error(
        dm.displacement, _full(dm.displacement, state.beta),
        case.displacement, t)
    pf_l2, _ = _scalar_error(
        dm.pressure_f, _full(dm.pressure_f, state.pi), case.pressure_f, t)
    pore_l2, pore_h1 = _scalar_error(
        dm.pressure_p, _full(dm.pressure_p, state.gamma), case.pressure_p, t)
    return {
        "vel_l2": vel_l2,
        "vel_h1": vel_h1,
        "pf_l2": pf_l2,
        "disp_h1": disp_h1,
        "pore_l2": pore_l2,
        "pore_h1": pore_h1,
    }


# ---------------------------------------------------------------------------
# interface residuals of a discrete state
# ---------------------------------------------------------------------------

def interface_residuals(blocks, state):
    """Facet-L2 norms of the four interface conditions for a discrete state.

    ``mass``: (u - eta_t + K grad w) . n, ``normal_stress``: n.sigma_f n + w,
    ``bjs``: tau.sigma_f n + beta (u - eta_t).tau, ``stress_continuity``:
    sigma_f n - sigma_tot n; the structure velocity theta stands in for
    eta_t.
    """
    dm = blocks.dm
    mesh = dm.mesh
    p = blocks.params
    eye = np.eye(2)
    facets = mesh.interface_facets
    tf, tp = mesh.interface_fluid_tri, mesh.interface_poro_tri

    def trace(space, free_values, tris):
        """Values and physical gradients, ``grad[..., comp, deriv]``, of a
        field at the trace points of its triangles ``tris``."""
        q = facet_quadrature(space, facets, tris, RESIDUAL_ORDER)
        grads = facet_gradients(space, facets, tris, RESIDUAL_ORDER)
        co = _full(space, free_values)[q.dofs]
        return (np.einsum("fqi...,fi->fq...", q.vals, co),
                np.einsum("fqi...,fi->fq...", grads, co))

    u, gu = trace(dm.velocity, state.alpha, tf)
    pf, _ = trace(dm.pressure_f, state.pi, tf)
    etad, _ = trace(dm.displacement, state.theta, tp)
    _, geta = trace(dm.displacement, state.beta, tp)
    w, gw = trace(dm.pressure_p, state.gamma, tp)
    fluid_side = facet_quadrature(dm.velocity, facets, tf, RESIDUAL_ORDER)
    wl, n = fluid_side.wts, fluid_side.normals
    tau = interface_tangents(n)

    du = 0.5 * (gu + np.swapaxes(gu, -1, -2))
    sig_f = 2.0 * p.mu_f * du - pf[..., None, None] * eye
    de = 0.5 * (geta + np.swapaxes(geta, -1, -2))
    tre = geta[..., 0, 0] + geta[..., 1, 1]
    sig_t = (2.0 * p.mu_s * de
             + (p.lambda_s * tre - p.alpha_bw * w)[..., None, None] * eye)
    sfn = np.einsum("fqij,fj->fqi", sig_f, n)
    stn = np.einsum("fqij,fj->fqi", sig_t, n)
    kgw = gw @ p.K.T

    def along(v, d):
        return np.einsum("fqi,fi->fq", v, d)

    squares = {
        "mass": along(u - etad + kgw, n) ** 2,
        "normal_stress": (along(sfn, n) + w) ** 2,
        "bjs": (along(sfn, tau) + p.beta_slip * along(u - etad, tau)) ** 2,
        "stress_continuity": np.sum((sfn - stn) ** 2, axis=-1),
    }
    return {key: math.sqrt(float(np.sum(wl * sq)))
            for key, sq in squares.items()}


# ---------------------------------------------------------------------------
# mesh convergence study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelRun:
    """One mesh level: mesh size, step size, errors and residuals."""

    n: int
    h: float
    dt: float
    n_steps: int
    newton_iterations: int
    errors: dict
    residuals: dict
    dofs: dict


@dataclass(frozen=True)
class ConvergenceTable:
    """Convergence-study results with observed convergence rates."""

    case_id: str
    scheme: str
    t_final: float
    runs: list

    def rates(self):
        """Observed rate per error norm between consecutive levels."""
        out = {}
        for key in ERROR_KEYS:
            seq = []
            for prev, cur in zip(self.runs, self.runs[1:]):
                ratio = math.log(prev.errors[key] / cur.errors[key])
                seq.append(ratio / math.log(cur.n / prev.n))
            out[key] = seq
        return out

    def rate_flags(self, expected=None, tol=0.3):
        """True per norm when the last observed rate reaches the target.

        The check is one-sided: a rate above the target (superconvergence)
        is not a failure.  An under-integrated or otherwise inconsistent
        run shows up here as a False flag.
        """
        expected = EXPECTED_RATES if expected is None else expected
        rates = self.rates()
        return {key: bool(rates[key]) and rates[key][-1] >= expected[key] - tol
                for key in expected}


class StudyError(RuntimeError):
    """A mesh level failed; ``partial`` holds the completed levels."""

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


def _level_run(case, n, cfg):
    """One level of :func:`convergence_study` on an ``n`` x ``n`` mesh; its
    mesh, blocks and final state (the run holds no other state) are
    released on return, so one level is alive at a time."""
    mesh = meshmod.build_rect_two_domain(n, n, case.split)
    blocks = assemble_system(mesh, case.params)
    result = run(blocks, case.data, cfg,
                 initial_state=initial_state(case, blocks))
    state = result.state
    return LevelRun(
        n=n,
        h=1.0 / n,
        dt=cfg.dt,
        n_steps=cfg.n_steps(),
        newton_iterations=sum(d.iterations for d in result.diagnostics),
        errors=compute_errors(case, blocks, state),
        residuals=interface_residuals(blocks, state),
        dofs={name: free for name, (_, free) in blocks.dm.counts().items()},
    )


def convergence_study(case_id, levels=(8, 16, 32), scheme="midpoint",
                      t_final=0.1, steps_coarsest=8, amplitude=1.0,
                      newton_tol=1e-10, newton_max=25):
    """Solve a manufactured case on a hierarchy of meshes.

    The number of time steps grows like h^(-3/2) for the midpoint rule and
    h^(-2) for implicit Euler (rounded to an integer), so the O(dt^2) and
    O(dt) time errors stay below the expected O(h^3)/O(h^2) space errors.
    A solver failure at any level raises :class:`StudyError` carrying the
    completed levels.
    """
    case = manufactured_case(case_id, amplitude=amplitude)
    exponent = 1.5 if scheme == "midpoint" else 2.0
    runs = []
    n0 = levels[0]
    for n in levels:
        n_steps = int(round(steps_coarsest * (n / n0) ** exponent))
        cfg = SchemeConfig(scheme=scheme, dt=t_final / n_steps,
                           t_final=t_final, newton_tol=newton_tol,
                           newton_max=newton_max)
        try:
            runs.append(_level_run(case, n, cfg))
        except StepError as exc:
            partial = ConvergenceTable(case_id=case_id, scheme=scheme,
                                       t_final=t_final, runs=runs)
            raise StudyError(
                "level n = %d failed: %s" % (n, exc), partial) from exc
    return ConvergenceTable(case_id=case_id, scheme=scheme, t_final=t_final,
                            runs=runs)
