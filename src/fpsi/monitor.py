"""Runtime certificates: data functionals, smallness check, energy report.

The estimators in :mod:`fpsi.constants` produce numbers; this module turns
them into *checkable statements* about a given data set and a computed
trajectory:

- :class:`DataFunctionals` evaluates the three data functionals

  ``C1(t)^2 = (3 T2^2 Kf^2 / 4 mu_f) |P_in|^2_in
            + (3 P1c^2 Kf^2 / 4 mu_f) |f_f|^2
            + (P3c^2 / 2 k_min) |f_p|^2 + |f_s|^2 / 2``

  ``C2`` (same structure on the time-differentiated data with the first two
  coefficients doubled) and ``C3`` (initial-data functional built on the
  lifted inlet trace norm), together with their L2(0,T) and Linf(0,T)
  envelopes by composite Gauss quadrature in time.

- :func:`check_small_data` compares the combined data functional against
  the threshold ``mu_f^3 / (9 rho_f^2 Sf^4 Kf^6)`` and locates the critical
  data scaling ``s*`` by bisection.

- :func:`energy_report` walks a trajectory and emits one row per time step
  with the discrete energy identity defect, the first and second energy
  bounds, the dissipation smallness conditions, the multiplier bound and a
  Gronwall self-check, plus a run-level summary of all flags.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import mesh as meshmod
from .assembly import (
    DEFAULT_LOAD_ORDER,
    StateVector,
    _boundary_facet_tris,
    _geometry,
    _quad_points,
    assemble_loads,
    facet_trace,
    restrict,
)
from .constants import ConstantEstimate, InletLifting
from .fem import triangle_rule


def constants_dict(values):
    """Normalise constants given as estimates or a mapping to a dict.

    When several estimates of the same kind are present (one per mesh
    level), the last one wins, so a level-major report naturally yields
    the finest-level values.
    """
    if isinstance(values, dict):
        return {k: float(v) for k, v in values.items()}
    out = {}
    for e in values:
        if not isinstance(e, ConstantEstimate):
            raise TypeError("expected ConstantEstimate entries or a dict")
        out[e.kind] = float(e.value)
    return out


def _require(constants, *kinds):
    missing = [k for k in kinds if k not in constants]
    if missing:
        raise KeyError(f"missing constants: {', '.join(missing)}")
    return [constants[k] for k in kinds]


def _gauss_panels(t0, t1, panels, npts=6):
    """Composite Gauss nodes and weights on [t0, t1]."""
    x, w = np.polynomial.legendre.leggauss(npts)
    edges = np.linspace(t0, t1, panels + 1)
    h = np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    times = (mid[:, None] + 0.5 * h[:, None] * x[None, :]).ravel()
    weights = (0.5 * h[:, None] * w[None, :]).ravel()
    return times, weights


class _VolumeNorm:
    """L2 norm of expressions over one subdomain, precomputed geometry."""

    def __init__(self, mesh, subdomain, order):
        tri_ids = mesh.triangles_with_tag(subdomain)
        rule = triangle_rule(order)
        _, _, det = _geometry(mesh, tri_ids)
        self.x = _quad_points(mesh, tri_ids, rule)
        self.wdet = rule.weights[None, :] * det[:, None]

    def norm_sq(self, fields, t):
        x, y = self.x[..., 0], self.x[..., 1]
        if isinstance(fields, tuple):
            total = np.zeros_like(self.wdet)
            for f in fields:
                v = np.broadcast_to(f(x, y, t), self.wdet.shape)
                total = total + v * v
        else:
            v = np.broadcast_to(fields(x, y, t), self.wdet.shape)
            total = v * v
        return float(np.sum(self.wdet * total))


class _InletNorm:
    """L2 norm of a scalar expression over the inlet boundary."""

    def __init__(self, mesh, order):
        facets = mesh.facets_with_tag(meshmod.FLUID_INLET)
        x, _, w, _ = facet_trace(mesh, facets,
                                 _boundary_facet_tris(mesh, facets), order)
        self.x = x.reshape(-1, 2)
        self.w = w.ravel()

    def norm_sq(self, expr, t):
        v = np.broadcast_to(expr(self.x[:, 0], self.x[:, 1], t),
                            self.w.shape)
        return float(np.sum(self.w * v * v))


class DataFunctionals:
    """Evaluates the data functionals C1, C2, C3 for one data set."""

    def __init__(self, mesh, params, data, constants, lifting=None,
                 volume_order=10, inlet_order=10, panels=64):
        self.mesh = mesh
        self.params = params
        self.data = data
        self.data_dot = data.time_derivative()
        self.constants = constants_dict(constants)
        self.panels = panels
        self._lifting = lifting
        self._fluid = _VolumeNorm(mesh, meshmod.FLUID, volume_order)
        self._poro = _VolumeNorm(mesh, meshmod.PORO, volume_order)
        self._inlet = _InletNorm(mesh, inlet_order)
        t2, kf, p1c, p3c = _require(self.constants, "T2", "Kf", "P1c", "P3c")
        mu = params.mu_f
        self._w_pin = 3.0 * t2 ** 2 * kf ** 2 / (4.0 * mu)
        self._w_ff = 3.0 * p1c ** 2 * kf ** 2 / (4.0 * mu)
        self._w_fp = p3c ** 2 / (2.0 * params.k_min)

    @property
    def lifting(self):
        if self._lifting is None:
            self._lifting = InletLifting(self.mesh)
        return self._lifting

    # -- instantaneous values ------------------------------------------

    def pin_sq(self, t):
        return self._inlet.norm_sq(self.data.P_in, t)

    def ff_sq(self, t):
        return self._fluid.norm_sq(self.data.f_f, t)

    def fp_sq(self, t):
        return self._poro.norm_sq(self.data.f_p, t)

    def fs_sq(self, t):
        return self._poro.norm_sq(self.data.f_s, t)

    def c1_terms(self, t):
        return {
            "inlet": self._w_pin * self.pin_sq(t),
            "fluid_force": self._w_ff * self.ff_sq(t),
            "pore_source": self._w_fp * self.fp_sq(t),
            "structure_force": 0.5 * self.fs_sq(t),
        }

    def c1_sq(self, t):
        return sum(self.c1_terms(t).values())

    def c1(self, t):
        return math.sqrt(self.c1_sq(t))

    def c2_terms(self, t):
        d = self.data_dot
        return {
            "inlet": 2.0 * self._w_pin * self._inlet.norm_sq(d.P_in, t),
            "fluid_force": 2.0 * self._w_ff * self._fluid.norm_sq(d.f_f, t),
            "pore_source": self._w_fp * self._poro.norm_sq(d.f_p, t),
            "structure_force": 0.5 * self._poro.norm_sq(d.f_s, t),
        }

    def c2_sq(self, t):
        return sum(self.c2_terms(t).values())

    def c2(self, t):
        return math.sqrt(self.c2_sq(t))

    def c3_terms(self):
        p = self.params
        (cj,) = _require(self.constants, "Cj")
        pin00 = self.lifting.norm00_of(self.data.P_in, 0.0)
        return {
            "inlet": cj ** 2 / p.rho_f * pin00 ** 2,
            "fluid_force": self.ff_sq(0.0) / p.rho_f,
            "pore_source": self.fp_sq(0.0) / (2.0 * p.s0),
            "structure_force": self.fs_sq(0.0) / (2.0 * p.rho_s),
        }

    def c3(self):
        return math.sqrt(sum(self.c3_terms().values()))

    # -- envelopes in time ---------------------------------------------

    def l2_c1_sq(self, t_final, panels=None):
        times, weights = _gauss_panels(0.0, t_final, panels or self.panels)
        return float(sum(w * self.c1_sq(t) for t, w in zip(times, weights)))

    def l2_c2_sq(self, t_final, panels=None):
        times, weights = _gauss_panels(0.0, t_final, panels or self.panels)
        return float(sum(w * self.c2_sq(t) for t, w in zip(times, weights)))

    def linf_c1(self, t_final, panels=None):
        times, _ = _gauss_panels(0.0, t_final, panels or self.panels)
        samples = np.concatenate([[0.0], times, [t_final]])
        return float(max(self.c1(t) for t in samples))

    def cumulative_c1_sq(self, times):
        return self._cumulative(self.c1_sq, times)

    def cumulative_c2_sq(self, times):
        return self._cumulative(self.c2_sq, times)

    def _cumulative(self, func, times):
        """Integral of ``func`` from 0 to each entry of ``times``.

        One 6-point Gauss panel per consecutive interval, so the values
        line up exactly with the time steps of a trajectory.
        """
        times = np.asarray(times, dtype=float)
        out = np.zeros(len(times))
        for n in range(1, len(times)):
            nodes, weights = _gauss_panels(times[n - 1], times[n], 1)
            out[n] = out[n - 1] + sum(
                w * func(t) for t, w in zip(nodes, weights))
        return out


def smallness_threshold(params, constants):
    """The dissipation-controlling data threshold mu^3/(9 rho^2 Sf^4 Kf^6)."""
    sf, kf = _require(constants_dict(constants), "Sf", "Kf")
    p = params
    return p.mu_f ** 3 / (9.0 * p.rho_f ** 2 * sf ** 4 * kf ** 6)


@dataclass(frozen=True)
class SmallDataReport:
    """Outcome of the data smallness check."""

    lhs: float
    rhs: float
    margin: float
    ok: bool
    s_star: float
    terms: dict = field(default_factory=dict)


def check_small_data(mesh, params, data, t_final, constants, funcs=None,
                     panels=64, tol=1e-12):
    """Check the small-data condition and locate the critical scaling.

    The left-hand side combines the L2-in-time envelopes of C1 and C2,
    the initial structure force, and the Linf envelope of C1; all terms
    are quadratic in the data, so scaling the data by s scales the
    left-hand side by s^2.  ``s_star`` is the scaling at which it meets
    the threshold, found by bisection on ``s^2 lhs - rhs``.
    """
    constants = constants_dict(constants)
    if funcs is None:
        funcs = DataFunctionals(mesh, params, data, constants, panels=panels)
    p = params
    T = float(t_final)
    grow = math.exp(T / p.rho_s)
    l2_c1 = funcs.l2_c1_sq(T)
    l2_c2 = funcs.l2_c2_sq(T)
    linf_c1 = funcs.linf_c1(T)
    fs0 = funcs.fs_sq(0.0)

    terms = {
        "c2_l2": (1.0 + (T / p.rho_s) * grow) * l2_c2,
        "fs_initial": (T / p.rho_s ** 2) * grow * fs0,
        "c1_l2": (1.0 + grow / p.rho_s + (T / p.rho_s ** 2) * grow) * l2_c1,
        "c1_linf": linf_c1 ** 2,
    }
    lhs = sum(terms.values())
    rhs = smallness_threshold(params, constants)
    terms.update(l2_c1_sq=l2_c1, l2_c2_sq=l2_c2, linf_c1=linf_c1,
                 fs0_sq=fs0)

    if lhs == 0.0:
        s_star = math.inf
    else:
        hi = 1.0
        while hi * hi * lhs < rhs:
            hi *= 2.0
        lo = 0.0
        s_star = hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            value = mid * mid * lhs
            if abs(value - rhs) <= tol * rhs:
                s_star = mid
                break
            if value < rhs:
                lo = mid
            else:
                hi = mid
            s_star = 0.5 * (lo + hi)

    return SmallDataReport(lhs=lhs, rhs=rhs, margin=rhs - lhs,
                           ok=bool(lhs < rhs), s_star=s_star, terms=terms)


@dataclass
class CertificateRow:
    """Everything the monitor can say about one accepted time step."""

    n: int
    t: float
    energy: float
    dissipation: float = math.nan
    cum_dissipation: float = 0.0
    work: float = math.nan
    identity_defect: float = math.nan
    identity_scale: float = math.nan
    identity_ok: bool = None
    cum_c1_sq: float = 0.0
    mb1_lhs: float = math.nan
    mb1_rhs: float = math.nan
    mb1_ok: bool = None
    du_norm: float = math.nan
    dumbound_ok: bool = None
    uniqueness_ok: bool = None
    dot_energy: float = math.nan
    cum_dot_dissipation: float = math.nan
    mb2_lhs: float = math.nan
    mb2_rhs_root: float = math.nan
    mb2_rhs_squared: float = math.nan
    mb2_root_ok: bool = None
    mb2_squared_ok: bool = None
    pf_lhs: float = math.nan
    pf_rhs: float = math.nan
    pf_ok: bool = None
    zeta: float = math.nan
    gronwall_premise_rhs: float = math.nan
    gronwall_conclusion_rhs: float = math.nan
    gronwall_premise_ok: bool = None
    gronwall_conclusion_ok: bool = None


@dataclass(frozen=True)
class CertificateReport:
    """All per-step certificate rows plus the run-level summary."""

    rows: list
    summary: dict


def _all_flags(rows, attr):
    flags = [getattr(r, attr) for r in rows if getattr(r, attr) is not None]
    return bool(all(flags)) if flags else True


def energy_report(traj, blocks, data, constants, funcs=None,
                  newton_tol=1e-10, load_order=DEFAULT_LOAD_ORDER):
    """Certificate rows for every state of a computed trajectory.

    The energy identity is checked in the exact per-step discrete form
    of the scheme that produced the trajectory (with the jump term for
    the implicit Euler scheme, at the averaged stage for the midpoint
    scheme).  All bound evaluations use the surrogate constants given in
    ``constants`` and the data functionals of ``data``.
    """
    constants = constants_dict(constants)
    p = blocks.params
    dm = blocks.dm
    mesh = dm.mesh
    if funcs is None:
        funcs = DataFunctionals(mesh, p, data, constants)
    sf, kf, kappa, t1, t2, t3, t5 = _require(
        constants, "Sf", "Kf", "Kappa", "T1", "T2", "T3", "T5")

    mass_q = restrict(blocks.raw["mass_q"], dm.pressure_f, dm.pressure_f)
    stiff_u = restrict(blocks.raw["stiff_u"], dm.velocity, dm.velocity)

    states = traj.states
    dt = traj.dt
    times = [s.t for s in states]
    cum_c1 = funcs.cumulative_c1_sq(times)
    cum_c2 = funcs.cumulative_c2_sq(times)
    c3 = funcs.c3()

    du_limit = p.mu_f / (3.0 * p.rho_f * sf ** 2 * kf ** 3)
    uniq_limit = p.mu_f / (sf ** 2 * kf ** 3)
    gron_b = (2.0 / p.rho_s) * funcs.l2_c1_sq(times[-1]) if len(times) > 1 \
        else 0.0
    gron_c = 1.0 / p.rho_s
    identity_rel = 1e-5 * newton_tol / 1e-10

    rows = []
    cum_diss = 0.0
    cum_dot_diss = 0.0
    gron_rightsum = 0.0

    for n, state in enumerate(states):
        row = CertificateRow(n=n, t=state.t, energy=blocks.energy(state))

        row.du_norm = math.sqrt(max(
            state.alpha @ (blocks.visc2 @ state.alpha), 0.0) / (2.0 * p.mu_f))
        row.dumbound_ok = bool(row.du_norm < du_limit)
        row.uniqueness_ok = bool(row.du_norm <= uniq_limit)

        row.zeta = float(state.theta @ (blocks.mass_d @ state.theta))
        if n > 0:
            gron_rightsum += dt * row.zeta
        row.gronwall_premise_rhs = gron_b + gron_c * gron_rightsum
        row.gronwall_conclusion_rhs = gron_b * math.exp(gron_c * state.t)
        row.gronwall_premise_ok = bool(row.zeta <= row.gronwall_premise_rhs)
        row.gronwall_conclusion_ok = bool(
            row.zeta <= row.gronwall_conclusion_rhs)

        if n > 0:
            prev = states[n - 1]
            if traj.scheme == "euler":
                stage = state
                t_eval = state.t
                jump = 0.5 * (
                    (state.alpha - prev.alpha)
                    @ (blocks.Af @ (state.alpha - prev.alpha))
                    + (state.theta - prev.theta)
                    @ (blocks.As @ (state.theta - prev.theta))
                    + (state.gamma - prev.gamma)
                    @ (blocks.Ap @ (state.gamma - prev.gamma))
                    + (state.beta - prev.beta)
                    @ (blocks.Bs @ (state.beta - prev.beta)))
            else:
                stage = StateVector(
                    t=0.5 * (prev.t + state.t),
                    alpha=0.5 * (prev.alpha + state.alpha),
                    beta=0.5 * (prev.beta + state.beta),
                    gamma=0.5 * (prev.gamma + state.gamma),
                    theta=0.5 * (prev.theta + state.theta),
                    pi=state.pi)
                t_eval = stage.t
                jump = 0.0

            loads = assemble_loads(t_eval, data, dm, load_order)
            diss = blocks.dissipation(stage)
            conv, _ = blocks.convection(stage.alpha, jac=False)
            nterm = float(stage.alpha @ conv)
            work = blocks.work(loads, stage)
            e_prev = blocks.energy(prev)
            defect = ((row.energy - e_prev + jump) / dt + diss + nterm
                      - work)
            scale = ((abs(row.energy) + abs(e_prev) + jump) / dt
                     + abs(diss) + abs(nterm) + abs(work))
            row.dissipation = diss
            row.work = work
            cum_diss += dt * diss
            row.identity_defect = defect
            row.identity_scale = scale
            row.identity_ok = bool(
                abs(defect) <= max(1e-9, identity_rel * scale))

            da = (state.alpha - prev.alpha) / dt
            db = (state.beta - prev.beta) / dt
            dg = (state.gamma - prev.gamma) / dt
            dth = (state.theta - prev.theta) / dt
            dot = StateVector(t=state.t, alpha=da, beta=db, gamma=dg,
                              theta=dth, pi=np.zeros_like(state.pi))
            row.dot_energy = blocks.energy(dot)
            cum_dot_diss += dt * blocks.dissipation(dot)
            row.cum_dot_dissipation = cum_dot_diss
            row.mb2_lhs = row.dot_energy + cum_dot_diss
            tgrow = math.exp(2.0 * state.t / p.rho_s ** 2)
            base = (1.0 + (state.t / p.rho_s) * tgrow) * cum_c2[n]
            tail = 0.5 * state.t * tgrow
            row.mb2_rhs_root = base + tail * c3
            row.mb2_rhs_squared = base + tail * c3 ** 2
            row.mb2_root_ok = bool(row.mb2_lhs <= row.mb2_rhs_root)
            row.mb2_squared_ok = bool(row.mb2_lhs <= row.mb2_rhs_squared)

            row.pf_lhs = math.sqrt(max(state.pi @ (mass_q @ state.pi), 0.0))
            du_mass = math.sqrt(max(da @ (blocks.mass_u @ da), 0.0))
            h1_u = math.sqrt(max(state.alpha @ (blocks.h1_u @ state.alpha),
                                 0.0))
            semi_u_sq = float(state.alpha @ (stiff_u @ state.alpha))
            h1_p = math.sqrt(max(state.gamma @ (blocks.h1_p @ state.gamma),
                                 0.0))
            h1_dth = math.sqrt(max(state.theta @ (blocks.h1_d @ state.theta),
                                   0.0))
            row.pf_rhs = (p.rho_f * du_mass
                          + 2.0 * p.mu_f * row.du_norm
                          + p.rho_f * sf ** 2 * semi_u_sq
                          + t1 * t3 * h1_p
                          + p.beta_slip * t1 ** 2 * h1_u
                          + p.beta_slip * t1 * t5 * h1_dth
                          + t2 * math.sqrt(funcs.pin_sq(state.t))
                          + math.sqrt(funcs.ff_sq(state.t))) / kappa
            row.pf_ok = bool(row.pf_lhs <= row.pf_rhs)

        row.cum_dissipation = cum_diss
        row.cum_c1_sq = cum_c1[n]
        row.mb1_lhs = row.energy + cum_diss
        row.mb1_rhs = (1.0 + (state.t / p.rho_s)
                       * math.exp(state.t / p.rho_s)) * cum_c1[n]
        row.mb1_ok = bool(row.mb1_lhs <= row.mb1_rhs)
        rows.append(row)

    pf_rows = [r for r in rows if r.pf_ok is not None]
    summary = {
        "scheme": traj.scheme,
        "dt": dt,
        "n_steps": len(states) - 1,
        "t_final": times[-1],
        "identity_ok": _all_flags(rows, "identity_ok"),
        "identity_max_defect": max(
            (abs(r.identity_defect) for r in rows[1:]), default=0.0),
        "mainbound1_ok": _all_flags(rows, "mb1_ok"),
        "dumbound_ok": _all_flags(rows, "dumbound_ok"),
        "uniqueness_ok": _all_flags(rows, "uniqueness_ok"),
        "mb2_root_ok": _all_flags(rows, "mb2_root_ok"),
        "mb2_squared_ok": _all_flags(rows, "mb2_squared_ok"),
        "pfbound_ok": _all_flags(rows, "pf_ok"),
        "pfbound_linf_ok": bool(
            max((r.pf_lhs for r in pf_rows), default=0.0)
            <= max((r.pf_rhs for r in pf_rows), default=0.0))
        if pf_rows else True,
        "gronwall_premise_ok": _all_flags(rows, "gronwall_premise_ok"),
        "gronwall_conclusion_ok": _all_flags(rows, "gronwall_conclusion_ok"),
        "max_energy": max(r.energy for r in rows),
        "final_energy": rows[-1].energy,
        "total_dissipation": rows[-1].cum_dissipation,
        "max_du_norm": max(r.du_norm for r in rows),
        "du_limit": du_limit,
        "uniqueness_limit": uniq_limit,
        "c3": c3,
    }
    return CertificateReport(rows=rows, summary=summary)
