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
  envelopes.  Every time integral is one 6-point Gauss panel per interval,
  the intervals the time steps of a trajectory or 64 uniform panels for an
  envelope; every squared norm at all those times is ``tau' G tau``, with
  ``tau`` the time factors of the data and ``G`` the Gram matrix of their
  space fields, built once per mesh.

- :func:`check_small_data` compares the combined data functional against
  the threshold ``mu_f^3 / (9 rho_f^2 Sf^4 Kf^6)`` and gives the critical
  data scaling ``s*`` in closed form.

- :class:`CertificateStream` takes a trajectory's states as the solve makes
  them (``on_step``) and reduces each window of ``_STEP_BLOCK`` steps,
  stacked one column per state, to the quadratic forms the certificate
  reads, one number per state and per step; it holds one window of states,
  not the trajectory.

- :func:`energy_report` turns those forms into the certificate's columns,
  one value per time step from each column's first step on: the discrete
  energy identity defect, the first and second energy bounds, the
  dissipation smallness conditions, the multiplier bound and a Gronwall
  self-check, plus a run-level summary of all flags with the first failing
  step and worst margin of each; a flag's column, summary flag and detail
  are read from one table of bounds.  The identity's load work and
  convection power are the ones the solve recorded for each step.  A
  recorded trajectory is fed through a stream first: one code path.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import mesh as meshmod
from .assembly import (
    StateVector,
    _boundary_facet_tris,
    _dots,
    assemble_loads,  # noqa: F401  patched by name (the probe-name contract)
    cell_quadrature,
    facet_trace,
)
from .constants import ConstantEstimate, InletLifting
from .expressions import separate


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


# the 6-point Gauss-Legendre rule on [-1, 1] of every time panel
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(6)
# times per field evaluation: one step's nodes, so that a (times, cells,
# points) block stays about 0.4 MB at order 10 on a 16 x 16 mesh
_TIME_BLOCK = 6
# the uniform time panels of the L2(0, T) and Linf(0, T) envelopes
_TIME_PANELS = 64
# the space rules of the volume and inlet data norms
_NORM_ORDER = 10


def _gauss_nodes(edges):
    """Gauss nodes and weights, (panels, 6), of each [edges[k], edges[k+1]]."""
    edges = np.asarray(edges, dtype=float)
    h = np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return mid + 0.5 * h * _GAUSS_X, 0.5 * h * _GAUSS_W


def _envelope_edges(t_final):
    return np.linspace(0.0, t_final, _TIME_PANELS + 1)


class _FieldNorm:
    """Squared L2 norm of data fields at fixed points with weights ``w``.

    ``t`` is one time or an array of times (the result has its shape).
    Each set of fields is split once into time factors ``tau`` times space
    fields (:func:`separate`), whose Gram matrix ``G`` at the points is
    built on first use, so the norm at every time is ``tau(t)' G tau(t)``,
    round-off below zero clipped to zero.  A field set with a term that
    does not separate is evaluated at the points at every time,
    ``_TIME_BLOCK`` times per call, the time as leading broadcast axis.
    """

    def __init__(self, x, y, w):
        self.x, self.y, self.w = x, y, w.ravel()
        self._tables = {}

    def _table(self, fields):
        """(time factors, Gram matrix) of ``fields``; None if one of them
        does not separate."""
        if fields in self._tables:
            return self._tables[fields]
        parts = [separate(f) for f in fields]
        if any("t" in s.variables for part in parts for _, s in part):
            self._tables[fields] = None
            return None
        taus = list(dict.fromkeys(tau for part in parts for tau, _ in part))
        gram = np.zeros((len(taus), len(taus)))
        for part in filter(None, parts):
            at = [taus.index(tau) for tau, _ in part]
            values = np.array([s(self.x, self.y).ravel() for _, s in part])
            gram[np.ix_(at, at)] += (values * self.w) @ values.T
        self._tables[fields] = (taus, gram)
        return self._tables[fields]

    def norm_sq(self, fields, t):
        fields = fields if isinstance(fields, tuple) else (fields,)
        times = np.asarray(t, dtype=float).ravel()
        table = self._table(fields)
        if table is None:
            out = self._evaluated(fields, times)
        else:
            taus, gram = table
            tau = np.array([f(t=times) for f in taus]).reshape(
                len(taus), len(times))
            out = np.maximum(np.sum(tau * (gram @ tau), axis=0), 0.0)
        return float(out[0]) if np.ndim(t) == 0 else out.reshape(np.shape(t))

    def _evaluated(self, fields, times):
        column = times.reshape((-1,) + (1,) * self.x.ndim)
        out = np.empty(len(column))
        for k in range(0, len(column), _TIME_BLOCK):
            block = column[k:k + _TIME_BLOCK]
            sq = sum(f(self.x, self.y, block) ** 2 for f in fields)
            out[k:k + _TIME_BLOCK] = sq.reshape(len(block), -1) @ self.w
        return out


class DataFunctionals:
    """Evaluates the data functionals C1, C2, C3 for one data set.

    The norms and C1, C2 at time ``t`` also take an array of times.
    """

    def __init__(self, mesh, params, data, constants, lifting=None):
        self.mesh = mesh
        self.params = params
        self.data = data
        self.data_dot = data.time_derivative()
        self.constants = constants_dict(constants)
        self._lifting = lifting
        self._fluid, self._poro = (
            _FieldNorm(*cell_quadrature(mesh, part, _NORM_ORDER)[:3])
            for part in (meshmod.FLUID, meshmod.PORO))
        facets = mesh.facets_with_tag(meshmod.FLUID_INLET)
        x, _, w, _ = facet_trace(
            mesh, facets, _boundary_facet_tris(mesh, facets), _NORM_ORDER)
        self._inlet = _FieldNorm(x[..., 0], x[..., 1], w)
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

    def _terms(self, data, t, lead):
        """C1's terms for ``data``, ``lead`` times the first two."""
        return {
            "inlet": lead * self._w_pin * self._inlet.norm_sq(data.P_in, t),
            "fluid_force": lead * self._w_ff * self._fluid.norm_sq(data.f_f, t),
            "pore_source": self._w_fp * self._poro.norm_sq(data.f_p, t),
            "structure_force": 0.5 * self._poro.norm_sq(data.f_s, t),
        }

    def c1_terms(self, t):
        return self._terms(self.data, t, 1.0)

    def c1_sq(self, t):
        return sum(self.c1_terms(t).values())

    def c1(self, t):
        return np.sqrt(self.c1_sq(t))

    def c2_terms(self, t):
        # C1 of the time derivative, inlet and fluid force weighted twice
        return self._terms(self.data_dot, t, 2.0)

    def c2_sq(self, t):
        return sum(self.c2_terms(t).values())

    def c2(self, t):
        return np.sqrt(self.c2_sq(t))

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

    def l2_c1_sq(self, t_final):
        return float(self._cumulative(self.c1_sq,
                                      _envelope_edges(t_final))[-1])

    def l2_c2_sq(self, t_final):
        return float(self._cumulative(self.c2_sq,
                                      _envelope_edges(t_final))[-1])

    def linf_c1(self, t_final):
        times, _ = _gauss_nodes(_envelope_edges(t_final))
        samples = np.concatenate([[0.0], times.ravel(), [t_final]])
        return float(np.max(self.c1(samples)))

    def cumulative_c1_sq(self, times):
        return self._cumulative(self.c1_sq, times)

    def cumulative_c2_sq(self, times):
        return self._cumulative(self.c2_sq, times)

    def _cumulative(self, func, times):
        """Integral of ``func`` from 0 to each entry of ``times``.

        One 6-point Gauss panel per consecutive interval, so the values
        line up exactly with the time steps of a trajectory.
        """
        nodes, weights = _gauss_nodes(times)
        steps = np.sum(weights * func(nodes), axis=1)
        return np.concatenate([[0.0], np.cumsum(steps)])


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


def check_small_data(mesh, params, data, t_final, constants):
    """Check the small-data condition and locate the critical scaling.

    The left-hand side combines the L2-in-time envelopes of C1 and C2,
    the initial structure force, and the Linf envelope of C1; all terms
    are quadratic in the data, so scaling the data by s scales the
    left-hand side by s^2.  ``s_star`` is the scaling at which it meets
    the threshold, ``sqrt(rhs / lhs)``, infinite for zero data.
    """
    constants = constants_dict(constants)
    funcs = DataFunctionals(mesh, params, data, constants)
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

    s_star = math.inf if lhs == 0.0 else math.sqrt(rhs / lhs)
    return SmallDataReport(lhs=lhs, rhs=rhs, margin=rhs - lhs,
                           ok=bool(lhs < rhs), s_star=s_star, terms=terms)


@dataclass(frozen=True)
class CertificateReport:
    """The certificate's columns plus the run-level summary.

    ``columns`` maps each column, in CSV order, to its values, one per step
    from its first step on; that step is ``len(times) - len(values)``.
    """

    columns: dict
    summary: dict


_STATE_FIELDS = ("alpha", "beta", "gamma", "theta", "pi")
# steps per window of the certificate stream: a window stacks this many
# steps and the state before them, so its stacked copies stay about 1 MB on
# a 16 x 16 mesh and the stream holds at most this many states plus one,
# however long the trajectory is
_STEP_BLOCK = 8


def _map(fn, *states, t):
    """The state at times ``t`` whose fields are ``fn`` of the given ones."""
    return StateVector(t=t, **{name: fn(*(getattr(s, name) for s in states))
                               for name in _STATE_FIELDS})


def _form(matrix, x):
    return _dots(x, matrix @ x)


def _window_forms(blocks, scheme, states):
    """Forms of every state of a window, and of every step between them,
    the states stacked one column per state: a quadratic form is one
    sparse-times-dense product and column-wise dots."""
    every = _map(lambda *v: np.column_stack(v), *states,
                 t=np.array([s.t for s in states]))
    prev = _map(lambda v: v[:, :-1], every, t=every.t[:-1])
    cur = _map(lambda v: v[:, 1:], every, t=every.t[1:])
    delta = _map(np.subtract, cur, prev, t=cur.t)
    # the stage at which the scheme evaluates its right-hand side
    stage = cur if scheme == "euler" else _map(
        lambda a, b: 0.5 * (a + b), prev, cur, t=0.5 * (prev.t + cur.t))
    # an H1 form is the sum of the mass and the stiffness forms
    zeta = _form(blocks.mass_d, every.theta)
    stiff_u = _form(blocks.stiff_u, every.alpha)
    return ({"energy": blocks.energy(every), "zeta": zeta,
             "visc": _form(blocks.visc_u, every.alpha),
             "mass_q": _form(blocks.mass_q, every.pi), "stiff_u": stiff_u,
             "h1_u": _form(blocks.mass_u, every.alpha) + stiff_u,
             "h1_p": (_form(blocks.mass_p, every.gamma)
                      + _form(blocks.stiff_p, every.gamma)),
             "h1_d": zeta + _form(blocks.stiff_d, every.theta)},
            {"diss": blocks.dissipation(stage),
             "delta_energy": blocks.energy(delta),
             "delta_diss": blocks.dissipation(delta),
             "delta_mass_u": _form(blocks.mass_u, delta.alpha)})


class CertificateStream:
    """The certificate's forms of a trajectory, computed as its states come.

    Made with the initial state; :meth:`add` takes each accepted state and
    its :class:`~fpsi.timestepper.StepDiagnostics`, so it is the
    ``on_step`` of :func:`~fpsi.timestepper.run`.  Every ``_STEP_BLOCK``
    steps it flushes one window, the last state of the previous window and
    the steps since, through :func:`_window_forms`; the windows overlap by
    one state.  Only the forms (one number per state and per step), the
    times and the diagnostics are kept, so memory is ``_STEP_BLOCK + 1``
    states however long the trajectory.  :func:`energy_report` does the
    final reductions.
    """

    def __init__(self, blocks, scheme, dt, initial_state):
        self.blocks, self.scheme, self.dt = blocks, scheme, dt
        self.times = [initial_state.t]
        self.diagnostics = []
        self._window = [initial_state]
        self._at_state, self._at_step = {}, {}

    def add(self, state, diag):
        self._window.append(state)
        self.times.append(state.t)
        self.diagnostics.append(diag)
        if len(self._window) > _STEP_BLOCK:
            self._flush()

    def _flush(self):
        at_state, at_step = _window_forms(self.blocks, self.scheme,
                                          self._window)
        # the first window keeps its first state; later ones begin with
        # the state the previous window ended on
        later = bool(self._at_state)
        for key, v in at_state.items():
            self._at_state.setdefault(key, []).append(v[1:] if later else v)
        for key, v in at_step.items():
            self._at_step.setdefault(key, []).append(v)
        self._window = self._window[-1:]

    def forms(self):
        """Per-state and per-step forms of everything added, as dicts of
        arrays; the steps since the last flush are flushed first."""
        if len(self._window) > 1 or not self._at_state:
            self._flush()
        return ({key: np.concatenate(v) for key, v in self._at_state.items()},
                {key: np.concatenate(v) for key, v in self._at_step.items()})


def _flag_detail(first, margin, ok):
    """First failing step, worst step and worst margin of one row flag
    whose values start at step ``first``."""
    if len(margin) == 0:
        return dict.fromkeys(("first_fail_step", "worst_step", "worst_margin"))
    worst, failing = int(np.argmin(margin)), np.flatnonzero(~ok)
    return {"first_fail_step": first + int(failing[0]) if len(failing)
            else None,
            "worst_step": first + worst, "worst_margin": float(margin[worst])}


def energy_report(traj, blocks, data, constants, funcs=None,
                  newton_tol=1e-10):
    """The certificate of a computed trajectory, as columns.

    ``traj`` is the :class:`CertificateStream` that took the trajectory's
    states as the solve made them, or a recorded trajectory (``scheme``,
    ``dt``, ``states`` from the initial one on, and ``diagnostics``), which
    is fed through a new stream: one code path either way.  The energy
    identity is checked in the exact per-step discrete form of the scheme
    that produced the trajectory (with the jump term for the implicit
    Euler scheme, at the averaged stage for the midpoint scheme).  All
    bound evaluations use the surrogate constants given in ``constants``
    and the data functionals of ``data``.

    The stream's window forms give one number per state and per step;
    everything here is a reduction of those, the times and the
    diagnostics.  The load work and the convection power of each step are
    the ones its solve recorded in its diagnostics, at the stage of the
    accepted state; so are its Newton and GMRES counts and its final scaled
    residual.  Each row flag is stated once, in a table of its summary
    flag, checked quantity and bound; its column, its summary flag (the
    column's all) and its ``summary["flag_detail"]`` entry are read from
    it: the first failing step (or None), the worst step and the worst
    margin (the bound minus the checked quantity, negative where it fails).
    """
    stream = traj
    if not isinstance(stream, CertificateStream):
        stream = CertificateStream(blocks, traj.scheme, traj.dt,
                                   traj.states[0])
        for state, diag in zip(traj.states[1:], traj.diagnostics):
            stream.add(state, diag)
    constants = constants_dict(constants)
    p = blocks.params
    if funcs is None:
        funcs = DataFunctionals(blocks.dm.mesh, p, data, constants)
    sf, kf, kappa, t1, t2, t3, t5 = _require(
        constants, "Sf", "Kf", "Kappa", "T1", "T2", "T3", "T5")

    at_state, at_step = stream.forms()
    dt = stream.dt
    times = np.array(stream.times)
    cum_c1 = funcs.cumulative_c1_sq(times)
    cum_c2 = funcs.cumulative_c2_sq(times)
    c3 = funcs.c3()
    du_limit = p.mu_f / (3.0 * p.rho_f * sf ** 2 * kf ** 3)
    uniq_limit = p.mu_f / (sf ** 2 * kf ** 3)
    gron_b = (2.0 / p.rho_s) * cum_c1[-1]
    gron_c = 1.0 / p.rho_s
    identity_rel = 1e-5 * newton_tol / 1e-10

    def root(x):
        return np.sqrt(np.maximum(x, 0.0))

    energy, zeta = at_state["energy"], at_state["zeta"]
    du_norm = root(at_state["visc"])
    gron_premise = gron_b + gron_c * np.concatenate(
        [[0.0], np.cumsum(dt * zeta[1:])])
    gron_conclusion = gron_b * np.exp(gron_c * times)

    jump = at_step["delta_energy"] if stream.scheme == "euler" else 0.0
    diss = at_step["diss"]
    diags = stream.diagnostics
    nterm = np.array([d.convection_power for d in diags])
    work = np.array([d.work for d in diags])
    defect = (energy[1:] - energy[:-1] + jump) / dt + diss + nterm - work
    scale = ((np.abs(energy[1:]) + np.abs(energy[:-1]) + jump) / dt
             + np.abs(diss) + np.abs(nterm) + np.abs(work))
    identity_bound = np.maximum(1e-9, identity_rel * scale)
    cum_diss = np.concatenate([[0.0], np.cumsum(dt * diss)])
    mb1_lhs = energy + cum_diss
    mb1_rhs = (1.0 + (times / p.rho_s) * np.exp(times / p.rho_s)) * cum_c1

    # the discrete time derivative of the state is delta / dt
    dot_energy = at_step["delta_energy"] / dt ** 2
    cum_dot_diss = np.cumsum(at_step["delta_diss"] / dt)
    mb2_lhs = dot_energy + cum_dot_diss
    t = times[1:]
    tgrow = np.exp(2.0 * t / p.rho_s ** 2)
    base = (1.0 + (t / p.rho_s) * tgrow) * cum_c2[1:]
    mb2_rhs_root = base + 0.5 * t * tgrow * c3
    mb2_rhs_squared = base + 0.5 * t * tgrow * c3 ** 2

    pf_lhs = root(at_state["mass_q"][1:])
    pf_rhs = (p.rho_f * root(at_step["delta_mass_u"]) / dt
              + 2.0 * p.mu_f * du_norm[1:]
              + p.rho_f * sf ** 2 * at_state["stiff_u"][1:]
              + t1 * t3 * root(at_state["h1_p"][1:])
              + p.beta_slip * t1 ** 2 * root(at_state["h1_u"][1:])
              + p.beta_slip * t1 * t5 * root(at_state["h1_d"][1:])
              + t2 * np.sqrt(funcs.pin_sq(t))
              + np.sqrt(funcs.ff_sq(t))) / kappa

    # row flag -> (summary flag, checked quantity, bound, strict): the
    # flag holds where the quantity is below the bound (or at it, unless
    # strict), and its margin is the bound minus the quantity
    bounds = {
        "identity_ok": ("identity_ok", np.abs(defect), identity_bound, False),
        "mb1_ok": ("mainbound1_ok", mb1_lhs, mb1_rhs, False),
        "dumbound_ok": ("dumbound_ok", du_norm, du_limit, True),
        "uniqueness_ok": ("uniqueness_ok", du_norm, uniq_limit, False),
        "mb2_root_ok": ("mb2_root_ok", mb2_lhs, mb2_rhs_root, False),
        "mb2_squared_ok": ("mb2_squared_ok", mb2_lhs, mb2_rhs_squared, False),
        "pf_ok": ("pfbound_ok", pf_lhs, pf_rhs, False),
        "gronwall_premise_ok": ("gronwall_premise_ok", zeta, gron_premise,
                                False),
        "gronwall_conclusion_ok": ("gronwall_conclusion_ok", zeta,
                                   gron_conclusion, False),
    }
    # the columns in CSV order, each from its first step on; a flag's
    # column is filled from its bound below
    columns = dict(
        n=np.arange(len(times)), t=times, energy=energy, dissipation=diss,
        cum_dissipation=cum_diss, work=work, identity_defect=defect,
        identity_scale=scale, identity_ok=None, cum_c1_sq=cum_c1,
        mb1_lhs=mb1_lhs, mb1_rhs=mb1_rhs, mb1_ok=None, du_norm=du_norm,
        dumbound_ok=None, uniqueness_ok=None, dot_energy=dot_energy,
        cum_dot_dissipation=cum_dot_diss, mb2_lhs=mb2_lhs,
        mb2_rhs_root=mb2_rhs_root, mb2_rhs_squared=mb2_rhs_squared,
        mb2_root_ok=None, mb2_squared_ok=None, pf_lhs=pf_lhs, pf_rhs=pf_rhs,
        pf_ok=None, zeta=zeta, gronwall_premise_rhs=gron_premise,
        gronwall_conclusion_rhs=gron_conclusion, gronwall_premise_ok=None,
        gronwall_conclusion_ok=None,
        newton_iterations=np.array([d.iterations for d in diags], dtype=int),
        gmres_iterations=np.array([d.krylov_iterations for d in diags],
                                  dtype=int),
        newton_residual=np.array([d.residual_norms[-1] for d in diags]))
    flags, detail = {}, {}
    for name, (flag, checked, bound, strict) in bounds.items():
        ok = columns[name] = checked < bound if strict else checked <= bound
        flags[flag] = bool(np.all(ok))
        detail[flag.removesuffix("_ok")] = _flag_detail(
            len(times) - len(ok), bound - checked, ok)
    summary = {
        "scheme": stream.scheme,
        "dt": dt,
        "n_steps": len(times) - 1,
        "t_final": times[-1].item(),
        "identity_max_defect": float(np.max(np.abs(defect), initial=0.0)),
        "pfbound_linf_ok": bool(np.max(pf_lhs, initial=0.0)
                                <= np.max(pf_rhs, initial=0.0)),
        "max_energy": float(np.max(energy)),
        "final_energy": energy[-1].item(),
        "total_dissipation": cum_diss[-1].item(),
        "max_du_norm": float(np.max(du_norm)),
        "du_limit": du_limit,
        "uniqueness_limit": uniq_limit,
        "c3": c3,
        "flag_detail": detail,
        **flags,
    }
    return CertificateReport(columns=columns, summary=summary)
