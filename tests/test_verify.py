"""Tests for manufactured cases, error norms, residuals and the kernel oracle."""

import math
import weakref

import numpy as np
import pytest

import oracles
from fpsi import assembly as asm
from fpsi import mesh as meshmod
from fpsi import verify
from fpsi.assembly import (
    PhysicalParams,
    ProblemData,
    assemble_loads,
    assemble_system,
)
from fpsi.fem import build_dofmaps
from fpsi.timestepper import (
    _pack,
    _residual_rows,
    _row_scales,
    _scaled_norm,
)


@pytest.fixture(scope="module", params=verify.CASE_IDS)
def case(request):
    return verify.manufactured_case(request.param)


def _random_points(rng, n, xlo=0.05, xhi=0.95, ylo=0.05, yhi=0.95):
    x = rng.uniform(xlo, xhi, n)
    y = rng.uniform(ylo, yhi, n)
    t = rng.uniform(0.0, 1.0, n)
    return x, y, t


def test_unknown_case_rejected():
    with pytest.raises(ValueError, match="unknown case"):
        verify.manufactured_case("smooth-cubic")


def test_compatible_case_validates_geometry_and_permeability():
    with pytest.raises(ValueError, match="split"):
        verify.manufactured_case("interface-compatible-trig", split=0.25)
    params = PhysicalParams(K=np.array([[1.0, 0.2], [0.2, 1.0]]))
    with pytest.raises(ValueError, match="diagonal"):
        verify.manufactured_case("interface-compatible-trig", params=params)


def test_velocity_divergence_free(case):
    rng = np.random.default_rng(7)
    u = case.velocity
    dv = u[0].diff("x") + u[1].diff("y")
    x, y, t = _random_points(rng, 100)
    scale = max(1.0, np.abs(u[0](x, y, t)).max(), np.abs(u[1](x, y, t)).max())
    assert np.abs(dv(x, y, t)).max() <= 1e-13 * scale


def test_essential_boundary_conditions(case):
    rng = np.random.default_rng(11)
    n = 50
    s = rng.uniform(0.02, 0.98, n)
    t = rng.uniform(0.0, 1.0, n)
    ones = np.ones(n)

    # velocity vanishes on the top lid
    for comp in case.velocity:
        assert np.abs(comp(s, ones, t)).max() <= 1e-12
    # displacement is clamped at the bottom
    for comp in case.displacement:
        assert np.abs(comp(s, 0.0 * ones, t)).max() <= 1e-12
    # on the poroelastic sides the tangential (vertical) displacement and
    # the pore pressure vanish
    yb = rng.uniform(0.02, case.split - 0.02, n)
    for xside in (0.0, 1.0):
        xv = xside * ones
        assert np.abs(case.displacement[1](xv, yb, t)).max() <= 1e-12
        assert np.abs(case.pressure_p(xv, yb, t)).max() <= 1e-12


def _shifted(f, x, y, t, var, k, h):
    dx, dy, dt_ = {"x": (h, 0.0, 0.0), "y": (0.0, h, 0.0),
                   "t": (0.0, 0.0, h)}[var]
    return f(x + k * dx, y + k * dy, t + k * dt_)


def _d1(f, x, y, t, var, h=3e-3):
    """Fourth-order central first derivative."""
    vals = [_shifted(f, x, y, t, var, k, h) for k in (-2, -1, 1, 2)]
    return (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * h)


def _d2(f, x, y, t, va, vb, h=3e-3):
    """Fourth-order central second derivative (nested for mixed)."""
    if va == vb:
        vals = [_shifted(f, x, y, t, va, k, h) for k in (-2, -1, 0, 1, 2)]
        return (-vals[0] + 16.0 * vals[1] - 30.0 * vals[2]
                + 16.0 * vals[3] - vals[4]) / (12.0 * h ** 2)
    return _d1(lambda *p: _d1(f, *p, var=vb, h=h), x, y, t, va, h=h)


def test_forcings_match_finite_differences(case):
    """The symbolic forcings agree with pure finite differences of the fields."""
    rng = np.random.default_rng(23)
    p = case.params
    u, pf = case.velocity, case.pressure_f
    eta, w = case.displacement, case.pressure_p
    data = case.data

    # fluid momentum, on the fluid subdomain
    x, y, t = _random_points(rng, 20, ylo=case.split + 0.05)
    for i, (ui, fi) in enumerate(zip(u, data.f_f)):
        lap = _d2(ui, x, y, t, "x", "x") + _d2(ui, x, y, t, "y", "y")
        graddiv = (_d2(u[0], x, y, t, "x", "x") + _d2(u[1], x, y, t, "x", "y")
                   if i == 0 else
                   _d2(u[0], x, y, t, "x", "y") + _d2(u[1], x, y, t, "y", "y"))
        conv = (u[0](x, y, t) * _d1(ui, x, y, t, "x")
                + u[1](x, y, t) * _d1(ui, x, y, t, "y"))
        var = "x" if i == 0 else "y"
        expect = (p.rho_f * _d1(ui, x, y, t, "t") + p.rho_f * conv
                  - p.mu_f * (lap + graddiv) + _d1(pf, x, y, t, var))
        assert np.abs(fi(x, y, t) - expect).max() <= 1e-6

    # structure momentum and fluid content, on the poroelastic subdomain
    x, y, t = _random_points(rng, 20, yhi=case.split - 0.05)
    for i, fi in enumerate(data.f_s):
        ei = eta[i]
        lap = _d2(ei, x, y, t, "x", "x") + _d2(ei, x, y, t, "y", "y")
        graddiv = (_d2(eta[0], x, y, t, "x", "x")
                   + _d2(eta[1], x, y, t, "x", "y")
                   if i == 0 else
                   _d2(eta[0], x, y, t, "x", "y")
                   + _d2(eta[1], x, y, t, "y", "y"))
        var = "x" if i == 0 else "y"
        expect = (p.rho_s * _d2(ei, x, y, t, "t", "t")
                  - p.mu_s * (lap + graddiv)
                  - p.lambda_s * graddiv
                  + p.alpha_bw * _d1(w, x, y, t, var))
        assert np.abs(fi(x, y, t) - expect).max() <= 1e-6

    kdiv = sum(p.K[a, b] * _d2(w, x, y, t, va, vb)
               for a, va in enumerate("xy") for b, vb in enumerate("xy"))
    divetadot = (_d2(eta[0], x, y, t, "x", "t")
                 + _d2(eta[1], x, y, t, "y", "t"))
    expect = p.s0 * _d1(w, x, y, t, "t") + p.alpha_bw * divetadot - kdiv
    assert np.abs(data.f_p(x, y, t) - expect).max() <= 1e-6


def test_compatible_case_interface_defects_vanish():
    case = verify.manufactured_case("interface-compatible-trig")
    rng = np.random.default_rng(31)
    n = 60
    x = rng.uniform(0.0, 1.0, n)
    y = np.full(n, 0.5)
    t = rng.uniform(0.0, 1.0, n)
    extra = case.data.extra
    for comp in (*extra.iface_mom, *extra.iface_str, extra.iface_darcy):
        assert np.abs(comp(x, y, t)).max() <= 1e-12

    # the normal stress balance recomputed by finite differences of the
    # fields, independent of the load construction
    p = case.params
    u, pf, w = case.velocity, case.pressure_f, case.pressure_p
    sig_nn = 2.0 * p.mu_f * _d1(u[1], x, y, t, "y") - pf(x, y, t)
    assert np.abs(sig_nn + w(x, y, t)).max() <= 1e-6


def test_incompatible_cases_have_nonzero_defects():
    case = verify.manufactured_case("smooth-trig")
    x = np.array([0.3, 0.7])
    y = np.full(2, 0.5)
    t = np.zeros(2)
    assert np.abs(case.data.extra.iface_darcy(x, y, t)).max() > 1e-3


def test_interpolation_error_rates():
    case = verify.manufactured_case("smooth-trig")
    t = 0.3
    errs = []
    for n in (4, 8, 16):
        dm = build_dofmaps(meshmod.build_rect_two_domain(n, n, 0.5))
        state = verify.initial_state(case, dm, t=t)
        errs.append(verify.compute_errors(case, dm, state))
    for key, lo, hi in (("vel_l2", 2.8, 3.2), ("vel_h1", 1.85, 2.15),
                        ("pore_h1", 1.85, 2.15), ("disp_h1", 1.85, 2.15)):
        rate = math.log2(errs[1][key] / errs[2][key])
        assert lo <= rate <= hi, (key, rate)


def test_zero_state_interface_residuals_vanish():
    mesh = meshmod.build_rect_two_domain(4, 4, 0.5)
    blocks = assemble_system(mesh, PhysicalParams(), convection=False)
    res = verify.interface_residuals(blocks, blocks.zero_state())
    assert set(res) == set(verify.RESIDUAL_KEYS)
    assert all(v == 0.0 for v in res.values())


def test_compatible_interpolant_residuals_decrease():
    case = verify.manufactured_case("interface-compatible-trig")
    results = []
    for n in (4, 8, 16):
        mesh = meshmod.build_rect_two_domain(n, n, 0.5)
        blocks = assemble_system(mesh, case.params, convection=False)
        state = verify.initial_state(case, blocks, t=0.2)
        results.append(verify.interface_residuals(blocks, state))
    for key in verify.RESIDUAL_KEYS:
        seq = [r[key] for r in results]
        assert seq[1] <= 0.6 * seq[0], (key, seq)
        assert seq[2] <= 0.6 * seq[1], (key, seq)


# The P2-velocity/P1-pressure stress error is O(h^2) in the cells and
# O(h) in its gradient, so by the trace inequality O(h^(3/2)) on the
# interface; every interface residual of a discrete solution must fall at
# that order, less a slack for the pre-asymptotic levels.
TRACE_RATE, TRACE_SLACK = 1.5, 0.3


def _falls_at_trace_order(case_id):
    study = verify.convergence_study(case_id, levels=(8, 16, 32),
                                     t_final=0.0375, steps_coarsest=3)
    levels = [run.residuals for run in study.runs]
    rates = {key: [math.log2(a[key] / b[key])
                   for a, b in zip(levels, levels[1:])]
             for key in verify.RESIDUAL_KEYS}
    ok = all(r >= TRACE_RATE - TRACE_SLACK for r in sum(rates.values(), []))
    return ok, rates


def test_discrete_interface_residuals_fall_at_trace_order():
    ok, rates = _falls_at_trace_order("interface-compatible-trig")
    assert ok, rates
    # smooth-trig's fields leave their own interface defects, which the
    # residuals level off at: the check must fail there
    ok, rates = _falls_at_trace_order("smooth-trig")
    assert not ok, rates
    assert max(rates["mass"]) < 0.5 and max(rates["bjs"]) < 0.5, rates


def test_one_step_residual_of_exact_interpolants_decreases():
    case = verify.manufactured_case("smooth-trig")
    dt = 0.01
    norms = []
    for n in (4, 8, 16):
        mesh = meshmod.build_rect_two_domain(n, n, 0.5)
        blocks = assemble_system(mesh, case.params, convection=True)
        s0 = verify.initial_state(case, blocks, t=0.0)
        s1 = verify.initial_state(case, blocks, t=dt)
        loads = assemble_loads(dt, case.data, blocks.dm)
        rows, _, _ = _residual_rows(blocks, "euler", s0, _pack(s1), dt,
                                    loads)
        norms.append(_scaled_norm(rows, _row_scales(blocks, dt)))
    assert norms[1] <= 0.5 * norms[0]
    assert norms[2] <= 0.5 * norms[1]


def test_kernel_oracle_matches_production_step():
    for nx, ny, split in ((2, 2, 0.5), (3, 3, 1.0 / 3.0)):
        rep = oracles.kernel_oracle(nx, ny, split)
        assert rep["full_rank"]
        assert rep["null_dim"] == rep["n_alpha"] - rep["n_pi"]
        assert rep["state_diff"] <= 1e-12
        assert rep["pi_diff"] <= 1e-12
        assert rep["multiplier_residual"] <= 1e-12
        assert rep["constraint_norm"] <= 1e-12


def test_kernel_oracle_zero_data():
    rep = oracles.kernel_oracle(2, 2, 0.5, data=ProblemData())
    assert rep["state_diff"] == 0.0
    assert rep["pi_diff"] == 0.0


def test_convergence_study_rates_and_flags():
    table = verify.convergence_study(
        "smooth-polynomial", levels=(4, 8), scheme="euler",
        steps_coarsest=4, t_final=0.05)
    rates = table.rates()
    assert all(len(v) == 1 for v in rates.values())
    flags = table.rate_flags()
    assert flags["vel_l2"] and flags["vel_h1"] and flags["pore_h1"]
    assert len(table.runs) == 2
    assert table.runs[0].dt == pytest.approx(0.0125)
    assert table.runs[1].n_steps == 16  # euler refines dt like h^2


def test_refinement_study_factors_once_per_level(monkeypatch):
    # the refinement benchmark's first two levels and step counts: every
    # correction after a level's first is one GMRES cycle on its factor
    from fpsi import timestepper
    splu = timestepper.spla.splu
    sizes = []

    def counted(J, *args, **kwargs):
        sizes.append(J.shape[0])
        return splu(J, *args, **kwargs)
    monkeypatch.setattr(timestepper.spla, "splu", counted)
    table = verify.convergence_study("smooth-trig", levels=(8, 16),
                                     t_final=0.0375, steps_coarsest=3)
    assert [run.n_steps for run in table.runs] == [3, 8]
    assert len(sizes) == 2 and sizes[0] < sizes[1]


def test_study_holds_one_level_at_a_time(monkeypatch):
    # every level's mesh and blocks are released before the next is built
    previous = []
    assemble = verify.assemble_system

    def checked(mesh, params):
        assert all(ref() is None for ref in previous)
        blocks = assemble(mesh, params)
        previous.extend([weakref.ref(mesh), weakref.ref(blocks)])
        return blocks
    monkeypatch.setattr(verify, "assemble_system", checked)
    table = verify.convergence_study("smooth-trig", levels=(4, 8, 16),
                                     t_final=0.0125, steps_coarsest=1)
    assert [run.n for run in table.runs] == [4, 8, 16]
    assert len(previous) == 6


def test_under_integration_degrades_rates(monkeypatch):
    monkeypatch.setattr(asm, "LOAD_ORDER", 1)
    table = verify.convergence_study(
        "smooth-trig", levels=(4, 8), scheme="euler",
        steps_coarsest=4, t_final=0.05)
    flags = table.rate_flags()
    assert not flags["vel_l2"]
    assert not flags["vel_h1"]


def test_study_error_carries_partial_table():
    with pytest.raises(verify.StudyError) as err:
        verify.convergence_study(
            "smooth-trig", levels=(4, 8), scheme="midpoint",
            steps_coarsest=4, t_final=0.05, amplitude=3.0,
            newton_tol=1e-14, newton_max=1)
    partial = err.value.partial
    assert isinstance(partial, verify.ConvergenceTable)
    assert partial.runs == []
