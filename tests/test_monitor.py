"""Tests for the data functionals, smallness check and energy report."""

import math

import numpy as np
import pytest

import oracles
from fpsi import constants as cst
from fpsi import mesh as meshmod
from fpsi import monitor as mon
from fpsi.assembly import PhysicalParams, ProblemData, assemble_system
from fpsi.expressions import parse_expression as pe
from fpsi.fem import interpolate_vector
from fpsi.timestepper import SchemeConfig

PARAMS = PhysicalParams()


@pytest.fixture(scope="module")
def mesh8():
    return meshmod.build_rect_two_domain(8, 8, 0.5)


@pytest.fixture(scope="module")
def blocks(mesh8):
    return assemble_system(mesh8, PARAMS, convection=True)


@pytest.fixture(scope="module")
def consts(blocks):
    ests = cst.estimate_all(blocks, level=8, sf_starts=2, sf_maxit=200)
    return mon.constants_dict(ests)


def _driven_data(scale=1.0):
    s = scale
    return ProblemData(
        f_f=(pe(f"{0.02 * s}*sin(pi*x)*cos(t)"), pe(f"{0.01 * s}*cos(pi*y)")),
        f_s=(pe(f"{0.01 * s}*x*(1-x)"), pe(f"{0.02 * s}*y*exp(-t)")),
        f_p=pe(f"{0.03 * s}*cos(pi*x)*cos(2*t)"),
        P_in=pe(f"{0.05 * s}*(y-0.5)*(1-y)*cos(t)"),
    )


def test_constants_dict_normalisation(consts):
    assert set(consts) == set(cst.CONSTANT_KINDS)
    ests = [cst.ConstantEstimate("Kf", 2.0, 4, 10),
            cst.ConstantEstimate("Kf", 3.0, 8, 40)]
    assert mon.constants_dict(ests) == {"Kf": 3.0}
    assert mon.constants_dict({"Sf": 1}) == {"Sf": 1.0}
    with pytest.raises(TypeError, match="ConstantEstimate"):
        mon.constants_dict([("Kf", 2.0)])


def test_missing_constants_are_reported(mesh8, consts):
    partial = {k: v for k, v in consts.items() if k != "T2"}
    with pytest.raises(KeyError, match="T2"):
        mon.DataFunctionals(mesh8, PARAMS, _driven_data(), partial)


def test_c1_constant_data_analytic(mesh8, consts):
    """Spatially constant data makes every norm a subdomain measure."""
    a1, a2, b1, b2, c, d = 0.3, -0.2, 0.5, 0.1, 0.7, -0.4
    data = ProblemData(f_f=(pe(f"{a1}"), pe(f"{a2}")),
                       f_s=(pe(f"{b1}"), pe(f"{b2}")),
                       f_p=pe(f"{c}"), P_in=pe(f"{d}"))
    funcs = mon.DataFunctionals(mesh8, PARAMS, data, consts)
    t2, kf, p1c, p3c = (consts[k] for k in ("T2", "Kf", "P1c", "P3c"))
    mu = PARAMS.mu_f
    area = 0.5          # each subdomain is a 1 x 1/2 strip
    inlet_len = 0.5
    expected = (3 * t2 ** 2 * kf ** 2 / (4 * mu) * d ** 2 * inlet_len
                + 3 * p1c ** 2 * kf ** 2 / (4 * mu)
                * (a1 ** 2 + a2 ** 2) * area
                + p3c ** 2 / (2 * PARAMS.k_min) * c ** 2 * area
                + 0.5 * (b1 ** 2 + b2 ** 2) * area)
    assert funcs.c1_sq(0.7) == pytest.approx(expected, rel=1e-13)
    # time-independent data has zero derivative functional
    assert funcs.c2_sq(0.3) == 0.0


def test_c2_uses_exact_time_derivative_and_doubled_weights(mesh8, consts):
    amp = 0.25
    data = ProblemData(f_f=(pe(f"{amp}*sin(pi*x)*cos(t)"), pe("0")))
    funcs = mon.DataFunctionals(mesh8, PARAMS, data, consts)
    t = 0.6
    # d/dt of the force is -amp sin(pi x) sin(t); |sin(pi x)|^2 over the
    # fluid strip is 1/4
    spatial = 0.25
    p1c, kf = consts["P1c"], consts["Kf"]
    expected = (2.0 * 3 * p1c ** 2 * kf ** 2 / (4 * PARAMS.mu_f)
                * (amp * math.sin(t)) ** 2 * spatial)
    assert funcs.c2_sq(t) == pytest.approx(expected, rel=1e-12)


def test_time_quadrature_exact_for_polynomial_data(mesh8, consts):
    """Panel count must not matter for polynomial-in-time data."""
    data = ProblemData(f_f=(pe("0.1*x*(1+t^2)"), pe("0")),
                       P_in=pe("0.2*(1-y)*t"))
    funcs = mon.DataFunctionals(mesh8, PARAMS, data, consts)
    coarse, fine = (funcs._cumulative(funcs.c1_sq,
                                      np.linspace(0.0, 0.8, panels + 1))[-1]
                    for panels in (64, 128))
    assert fine == pytest.approx(coarse, rel=1e-13)
    assert funcs.l2_c1_sq(0.8) == coarse

    times = np.linspace(0.0, 0.8, 9)
    cum = funcs.cumulative_c1_sq(times)
    assert cum[0] == 0.0
    assert np.all(np.diff(cum) > 0.0)
    assert cum[-1] == pytest.approx(coarse, rel=1e-13)


def test_linf_attained_at_final_time(mesh8, consts):
    data = ProblemData(f_f=(pe("0.1*(1+t)"), pe("0")))
    funcs = mon.DataFunctionals(mesh8, PARAMS, data, consts)
    assert funcs.linf_c1(0.5) == pytest.approx(funcs.c1(0.5), rel=1e-14)


def test_data_scaling_is_homogeneous(mesh8, consts):
    data = _driven_data()
    scaled = data.scaled(3.0)
    f1 = mon.DataFunctionals(mesh8, PARAMS, data, consts)
    f2 = mon.DataFunctionals(mesh8, PARAMS, scaled, consts)
    assert f2.c1(0.4) == pytest.approx(3.0 * f1.c1(0.4), rel=1e-12)
    assert f2.c2(0.4) == pytest.approx(3.0 * f1.c2(0.4), rel=1e-12)
    assert f2.c3() == pytest.approx(3.0 * f1.c3(), rel=1e-12)

    r1 = mon.check_small_data(mesh8, PARAMS, data, 0.5, consts)
    r2 = mon.check_small_data(mesh8, PARAMS, scaled, 0.5, consts)
    assert r2.lhs == pytest.approx(9.0 * r1.lhs, rel=1e-12)


def test_zero_data_margin_is_threshold(mesh8, consts):
    report = mon.check_small_data(mesh8, PARAMS, ProblemData(), 1.0, consts)
    assert report.lhs == 0.0
    assert report.margin == report.rhs
    assert report.ok
    assert math.isinf(report.s_star)
    assert report.rhs == pytest.approx(
        mon.smallness_threshold(PARAMS, consts), rel=1e-15)


def test_smallness_threshold_formula(consts):
    sf, kf = consts["Sf"], consts["Kf"]
    expected = PARAMS.mu_f ** 3 / (9 * PARAMS.rho_f ** 2 * sf ** 4 * kf ** 6)
    assert mon.smallness_threshold(PARAMS, consts) == pytest.approx(expected)


def test_critical_scale_is_the_closed_form(mesh8, consts):
    """The data enter lhs quadratically, so s* = sqrt(rhs / lhs) and data
    scaled by it meet the threshold."""
    report = mon.check_small_data(mesh8, PARAMS, _driven_data(), 0.5, consts)
    assert report.ok
    closed = math.sqrt(report.rhs / report.lhs)
    assert report.s_star == pytest.approx(closed, rel=1e-10)
    assert abs(report.s_star ** 2 * report.lhs
               - report.rhs) <= 1e-12 * report.rhs
    for key in ("c2_l2", "fs_initial", "c1_l2", "c1_linf"):
        assert report.terms[key] >= 0.0


@pytest.fixture(scope="module")
def small_run(blocks, consts):
    data = _driven_data()
    cfg = SchemeConfig(scheme="euler", dt=0.05, t_final=0.3)
    traj = oracles.recorded_run(blocks, data, cfg)
    report = mon.energy_report(traj, blocks, data, consts)
    return data, traj, report


@pytest.fixture(scope="module")
def midpoint_run(blocks, consts):
    data = _driven_data()
    cfg = SchemeConfig(scheme="midpoint", dt=0.05, t_final=0.2,
                       newton_tol=1e-12)
    traj = oracles.recorded_run(blocks, data, cfg)
    report = mon.energy_report(traj, blocks, data, consts,
                               newton_tol=cfg.newton_tol)
    return data, traj, report


def test_energy_report_flags_on_small_data_run(small_run):
    _, traj, report = small_run
    s = report.summary
    assert s["n_steps"] == len(traj.states) - 1
    assert s["identity_ok"]
    assert s["identity_max_defect"] <= 1e-9
    assert s["mainbound1_ok"]
    assert s["dumbound_ok"]
    assert s["uniqueness_ok"]
    assert s["gronwall_premise_ok"]
    assert s["gronwall_conclusion_ok"]
    assert s["pfbound_ok"]
    assert s["pfbound_linf_ok"]
    assert s["max_du_norm"] < s["du_limit"] < s["uniqueness_limit"]


def test_energy_report_row_structure(small_run):
    _, traj, report = small_run
    rows = report.rows
    assert [r.n for r in rows] == list(range(len(traj.states)))
    first, later = rows[0], rows[1]
    assert first.pf_ok is None and math.isnan(first.pf_lhs)
    assert first.identity_ok is None
    assert first.mb2_root_ok is None
    assert isinstance(later.pf_ok, bool)
    assert later.pf_lhs >= 0.0 and later.pf_rhs > 0.0
    assert later.mb1_lhs <= later.mb1_rhs
    # cumulative quantities are monotone
    cum = [r.cum_dissipation for r in rows]
    assert all(b >= a for a, b in zip(cum, cum[1:]))
    cumc1 = [r.cum_c1_sq for r in rows]
    assert all(b > a for a, b in zip(cumc1, cumc1[1:]))


def test_mb2_readings_ordered_by_c3(small_run):
    _, _, report = small_run
    c3 = report.summary["c3"]
    assert 0.0 < c3 < 1.0
    for r in report.rows[1:]:
        assert r.mb2_rhs_squared <= r.mb2_rhs_root
        if r.mb2_squared_ok:
            assert r.mb2_root_ok


def test_identity_flag_detects_tampered_state(blocks, consts, small_run):
    data, traj, _ = small_run
    import copy
    tampered = copy.deepcopy(traj)
    tampered.states[2].alpha += 1e-3
    report = mon.energy_report(tampered, blocks, data, consts)
    assert not report.rows[2].identity_ok
    assert not report.summary["identity_ok"]


@pytest.fixture(scope="module")
def gronwall_run(blocks, consts):
    """Zero data from an energetic start."""
    from fpsi.expressions import ZERO

    state0 = blocks.zero_state()
    W = blocks.dm.displacement
    theta = interpolate_vector(W, (pe("x*(1-x)*y"), ZERO))
    state0.theta = theta[W.free]
    cfg = SchemeConfig(scheme="euler", dt=0.05, t_final=0.1)
    traj = oracles.recorded_run(blocks, ProblemData(), cfg,
                                initial_state=state0)
    return traj, mon.energy_report(traj, blocks, ProblemData(), consts)


def test_gronwall_fails_honestly_without_data(gronwall_run):
    """An energetic start with zero data violates the premise at n = 0."""
    _, report = gronwall_run
    assert report.rows[0].zeta > 0.0
    assert not report.rows[0].gronwall_premise_ok
    assert not report.rows[0].gronwall_conclusion_ok
    assert not report.summary["gronwall_premise_ok"]
    # both checks ran independently: the conclusion flag is a real boolean
    assert report.rows[0].gronwall_conclusion_ok is False


def test_midpoint_identity_in_report(midpoint_run):
    _, _, report = midpoint_run
    assert report.summary["identity_ok"]
    assert report.summary["identity_max_defect"] <= 1e-10


# ---------------------------------------------------------------------------
# the stacked certificate against the row-by-row oracle
# ---------------------------------------------------------------------------

def _assert_matches_rowwise_oracle(report, expected):
    """Numeric columns within 1e-12 of their column maximum (the identity
    defect within 1e-12 of its row's scale), every flag identical.  The
    Newton residuals of both come from the same diagnostics, all below
    ``newton_tol``, so their column maximum is the stricter reading."""
    rows, ref = report.rows, expected.rows
    assert len(rows) == len(ref)
    for name in mon.CertificateRow.__dataclass_fields__:
        got = [getattr(r, name) for r in rows]
        want = [getattr(r, name) for r in ref]
        if any(isinstance(v, bool) or v is None for v in want):
            assert got == want, name
            continue
        got, want = np.array(got, float), np.array(want, float)
        assert np.array_equal(np.isnan(got), np.isnan(want)), name
        known = ~np.isnan(want)
        if name == "identity_defect":
            tol = 1e-12 * np.array([r.identity_scale for r in ref])[known]
        else:
            tol = 1e-12 * np.max(np.abs(want[known]), initial=0.0)
        assert np.all(np.abs(got[known] - want[known]) <= tol), name
    for key, value in expected.summary.items():
        if key.endswith("_ok"):
            assert report.summary[key] is value, key
        else:
            assert report.summary[key] == pytest.approx(value, rel=1e-12), key


def _check_against_rowwise_oracle(monkeypatch, report, traj, blocks, data,
                                  consts, newton_tol=1e-10):
    """The report, and the report stacked in windows of 3 steps, against
    the row-by-row oracle."""
    funcs = mon.DataFunctionals(blocks.dm.mesh, PARAMS, data, consts)
    expected = oracles.rowwise_energy_report(traj, blocks, data, consts,
                                             funcs, newton_tol=newton_tol)
    _assert_matches_rowwise_oracle(report, expected)
    monkeypatch.setattr(mon, "_STEP_BLOCK", 3)
    _assert_matches_rowwise_oracle(mon.energy_report(
        traj, blocks, data, consts, newton_tol=newton_tol), expected)


def test_euler_report_matches_rowwise_oracle(monkeypatch, blocks, consts,
                                             small_run):
    data, traj, report = small_run
    _check_against_rowwise_oracle(monkeypatch, report, traj, blocks, data,
                                  consts)


def test_midpoint_report_matches_rowwise_oracle(monkeypatch, blocks, consts,
                                                midpoint_run):
    data, traj, report = midpoint_run
    _check_against_rowwise_oracle(monkeypatch, report, traj, blocks, data,
                                  consts, newton_tol=1e-12)


def test_zero_data_gronwall_report_matches_rowwise_oracle(
        monkeypatch, blocks, consts, gronwall_run):
    traj, report = gronwall_run
    _check_against_rowwise_oracle(monkeypatch, report, traj, blocks,
                                  ProblemData(), consts)


def test_flag_detail_locates_failures(gronwall_run, small_run):
    _, report = gronwall_run
    detail = report.summary["flag_detail"]
    assert set(detail) == {
        "identity", "mainbound1", "dumbound", "uniqueness", "mb2_root",
        "mb2_squared", "pfbound", "gronwall_premise", "gronwall_conclusion"}
    premise = detail["gronwall_premise"]
    assert premise["first_fail_step"] == 0
    assert premise["worst_margin"] < 0.0
    worst = report.rows[premise["worst_step"]]
    assert premise["worst_margin"] == worst.gronwall_premise_rhs - worst.zeta
    # a flag that holds everywhere has no failing step and a margin >= 0
    _, _, passing = small_run
    identity = passing.summary["flag_detail"]["identity"]
    assert identity["first_fail_step"] is None
    assert identity["worst_margin"] >= 0.0
    assert identity["worst_step"] >= 1


# ---------------------------------------------------------------------------
# data norms at many times at once
# ---------------------------------------------------------------------------

def test_data_norms_at_an_array_of_times_match_scalar_calls(mesh8, consts):
    """Time-nonseparable, constant and zero fields, more times than one
    evaluation block."""
    data = ProblemData(f_f=(pe("sin(pi*x*t)"), pe("0")),
                       f_s=(pe("0.3"), pe("-0.2")),
                       f_p=pe("cos(pi*y)*t^2 + x"),
                       P_in=pe("sin(pi*y*t) + 1"))
    funcs = mon.DataFunctionals(mesh8, PARAMS, data, consts)
    times = np.linspace(0.0, 1.3, 20)
    for name in ("pin_sq", "ff_sq", "fp_sq", "fs_sq", "c1_sq", "c2_sq"):
        batched = getattr(funcs, name)(times)
        single = np.array([getattr(funcs, name)(t) for t in times])
        assert batched.shape == times.shape
        assert isinstance(getattr(funcs, name)(0.4), float)
        assert np.allclose(batched, single, rtol=1e-14, atol=0.0), name
    # a constant field's norm is c^2 |Omega_p|; its derivative is 0
    assert funcs.fs_sq(times) == pytest.approx((0.3 ** 2 + 0.2 ** 2) * 0.5,
                                               rel=1e-14)
    assert np.all(funcs._poro.norm_sq(funcs.data_dot.f_s, times) == 0.0)
    assert funcs.ff_sq(0.0) == 0.0


def test_cumulative_c1_on_nonuniform_times_is_a_per_interval_sum(mesh8,
                                                                 consts):
    funcs = mon.DataFunctionals(mesh8, PARAMS, _driven_data(), consts)
    times = np.array([0.0, 0.01, 0.05, 0.06, 0.2, 0.45, 0.47])
    expected = oracles.scalar_cumulative(funcs.c1_sq, times)
    got = funcs.cumulative_c1_sq(times)
    assert got[0] == 0.0
    assert got == pytest.approx(expected, rel=1e-14)
    assert funcs.cumulative_c2_sq(times) == pytest.approx(
        oracles.scalar_cumulative(funcs.c2_sq, times), rel=1e-14)


@pytest.mark.parametrize("name", oracles.DATA_SETS)
def test_data_functionals_match_the_per_time_oracle(monkeypatch, mesh8,
                                                    consts, name):
    data = oracles.data_set(name)
    times = np.linspace(0.0, 0.5, 11)

    def functionals():
        funcs = mon.DataFunctionals(mesh8, PARAMS, data, consts)
        return [funcs.cumulative_c1_sq(times), funcs.cumulative_c2_sq(times),
                funcs.pin_sq(times), funcs.ff_sq(times), funcs.fp_sq(0.3),
                funcs.fs_sq(0.3)]
    got = functionals()
    monkeypatch.setattr(mon, "_FieldNorm", oracles.PerTimeFieldNorm)
    for value, expected in zip(got, functionals()):
        assert np.abs(value - expected).max() \
            <= 1e-12 * np.abs(expected).max()


# ---------------------------------------------------------------------------
# the certificate stream at every flush edge
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module", params=["euler", "midpoint"])
def long_run(request, blocks):
    """A recorded run of 2 _STEP_BLOCK + 1 steps."""
    data = _driven_data()
    steps = 2 * mon._STEP_BLOCK + 1
    cfg = SchemeConfig(scheme=request.param, dt=0.05, t_final=0.05 * steps)
    return data, oracles.recorded_run(blocks, data, cfg)


@pytest.mark.parametrize("steps", [0, 1, mon._STEP_BLOCK,
                                   mon._STEP_BLOCK + 1,
                                   2 * mon._STEP_BLOCK + 1])
def test_report_matches_rowwise_oracle_at_every_flush_edge(
        blocks, consts, long_run, steps):
    """No step, one partial window, exactly one window, one window and a
    step, two windows and a step: every flush edge of the stream."""
    data, recorded = long_run
    part = oracles.RecordedRun(recorded.scheme, recorded.dt,
                               recorded.states[:steps + 1],
                               recorded.diagnostics[:steps])
    funcs = mon.DataFunctionals(blocks.dm.mesh, PARAMS, data, consts)
    expected = oracles.rowwise_energy_report(part, blocks, data, consts,
                                             funcs)
    report = mon.energy_report(part, blocks, data, consts)
    assert len(report.rows) == steps + 1
    _assert_matches_rowwise_oracle(report, expected)
