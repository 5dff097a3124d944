"""Acceptance gate: ten end-to-end properties of the solver and certificates.

Each test checks one release criterion at a pinned tolerance and records a
single PASS/FAIL verdict line (replayed in the terminal summary).  The
expensive refinement study is computed once and shared by the two criteria
that consume it.
"""

import math

import numpy as np
import pytest

import oracles
from fpsi import constants as cst
from fpsi.assembly import (
    PhysicalParams,
    ProblemData,
    assemble_system,
    mass,
    stiffness,
)
from fpsi.expressions import Cos, PI, Sin, T, X, Y
from fpsi.fem import ElementKind, make_scalar_space
from fpsi.mesh import build_rect_two_domain
from fpsi.monitor import check_small_data, energy_report
from fpsi.timestepper import SchemeConfig, step
from fpsi.verify import (
    RESIDUAL_KEYS,
    convergence_study,
    initial_state,
    manufactured_case,
)


@pytest.fixture(scope="module")
def trig_study():
    """Three-level refinement study shared by the rate and residual tests."""
    return convergence_study("smooth-trig", levels=(8, 16, 32),
                             scheme="midpoint", t_final=0.1, steps_coarsest=8)


def test_criterion_01_element_matrices_match_symbolic_integration(criterion):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        coords = oracles.random_rational_triangle(rng)
        mesh = oracles.one_triangle_mesh([[float(a), float(b)]
                                          for a, b in coords])
        space = make_scalar_space(mesh, ElementKind.P1)
        m = mass(space).toarray()
        k = stiffness(space).toarray()
        mass_exact, stiff_exact = oracles.sympy_element_matrices(coords, 1)
        worst = max(worst,
                    np.abs(m - mass_exact).max() / np.abs(mass_exact).max(),
                    np.abs(k - stiff_exact).max()
                    / np.abs(stiff_exact).max())
    criterion(1, "element matrices vs symbolic", worst <= 1e-13,
              "worst relative entry error %.2e over 20 random triangles"
              % worst)


def test_criterion_02_interface_cross_terms_cancel(criterion):
    mesh = build_rect_two_domain(8, 8, 0.5)
    blocks = assemble_system(mesh, PhysicalParams(beta_slip=1.0),
                             convection=False)
    rng = np.random.default_rng(5)
    worst_pair = 0.0
    for _ in range(100):
        a = rng.standard_normal(blocks.n_alpha)
        th = rng.standard_normal(blocks.n_beta)
        g = rng.standard_normal(blocks.n_gamma)
        d_fwd = a @ (blocks.D @ g)
        d_adj = g @ (blocks.D.T @ a)
        c_fwd = th @ (blocks.C @ g)
        c_adj = g @ (blocks.C.T @ th)
        worst_pair = max(worst_pair,
                         abs(d_fwd - d_adj) / max(abs(d_fwd), 1e-30),
                         abs(c_fwd - c_adj) / max(abs(c_fwd), 1e-30))

    # The slip terms that survive the cancellation must equal an
    # independently integrated tangential-slip energy.
    dm = blocks.dm
    worst_slip = 0.0
    for _ in range(5):
        a = rng.standard_normal(blocks.n_alpha)
        th = rng.standard_normal(blocks.n_beta)
        quad = (a @ (blocks.slip_u @ a) - a @ (blocks.E @ th)
                - th @ (blocks.E.T @ a) + th @ (blocks.F @ th))
        u_full = np.zeros(dm.velocity.ndof)
        u_full[dm.velocity.free] = a
        d_full = np.zeros(dm.displacement.ndof)
        d_full[dm.displacement.free] = th
        ref = oracles.interface_slip_energy(mesh, dm, u_full, d_full, 1.0)
        worst_slip = max(worst_slip, abs(quad - ref) / abs(ref))

    criterion(2, "interface cross terms cancel",
              worst_pair <= 1e-12 and worst_slip <= 1e-12,
              "worst pairing defect %.2e over 100 states, "
              "slip-energy mismatch %.2e" % (worst_pair, worst_slip))


def test_criterion_03_energy_nonincreasing_with_zero_data(criterion):
    case = manufactured_case("smooth-polynomial", amplitude=1.0)
    mesh = build_rect_two_domain(8, 8, 0.5)
    blocks = assemble_system(mesh, case.params, convection=False)
    state0 = initial_state(case, blocks, t=0.0)
    cfg = SchemeConfig(scheme="euler", dt=0.01, t_final=2.0,
                       newton_tol=1e-10, newton_max=10)
    traj = oracles.recorded_run(blocks, ProblemData(), cfg,
                                initial_state=state0)

    p = case.params

    def energy(st):
        return 0.5 * (p.rho_f * (st.alpha @ (blocks.mass_u @ st.alpha))
                      + p.rho_s * (st.theta @ (blocks.mass_d @ st.theta))
                      + st.beta @ (blocks.Bs @ st.beta)
                      + p.s0 * (st.gamma @ (blocks.mass_p @ st.gamma)))

    levels = [energy(st) for st in traj.states]
    rise = max(max(b - a for a, b in zip(levels, levels[1:])), 0.0)
    criterion(3, "energy decay with zero data",
              len(levels) == 201 and rise <= 1e-10,
              "%d steps, E0 %.3e -> %.3e, max single-step rise %.1e"
              % (len(levels) - 1, levels[0], levels[-1], rise))


def test_criterion_04_manufactured_solution_rates(criterion, trig_study):
    rates = trig_study.rates()
    bands = {"vel_l2": (2.7, 3.3), "vel_h1": (1.7, 2.3),
             "pore_h1": (1.7, 2.3)}
    observed = {key: rates[key][-1] for key in bands}
    ok = all(lo <= observed[key] <= hi for key, (lo, hi) in bands.items())
    criterion(4, "manufactured-solution rates", ok,
              "finest rates " + ", ".join(
                  "%s %.2f in [%.1f, %.1f]" % (key, observed[key], lo, hi)
                  for key, (lo, hi) in bands.items()))


def test_criterion_05_divergence_free_path_matches_saddle_point(criterion):
    worst = 0.0
    details = []
    ok = True
    for nx, ny, split in ((2, 2, 0.5), (3, 3, 1.0 / 3.0)):
        res = oracles.kernel_oracle(nx=nx, ny=ny, split=split)
        worst = max(worst, res["state_diff"], res["pi_diff"],
                    res["multiplier_residual"])
        ok = ok and res["full_rank"]
        ok = ok and res["null_dim"] == res["n_alpha"] - res["n_pi"]
        details.append("(%d,%d) null dim %d" % (nx, ny, res["null_dim"]))
    criterion(5, "divergence-free path vs saddle point",
              ok and worst <= 1e-10,
              "worst relative difference %.2e, %s"
              % (worst, ", ".join(details)))


def test_criterion_06_constant_estimates_converge(criterion):
    raw = [oracles.dirichlet_poincare_square(n) for n in (8, 16, 32)]
    stage1 = [oracles.richardson(a, b) for a, b in zip(raw, raw[1:])]
    extrapolated = oracles.richardson(stage1[0], stage1[1], rate=4)
    target = 1.0 / math.sqrt(2.0 * math.pi ** 2)
    poincare_err = abs(extrapolated - target) / target

    kappas = [e.value for e in oracles.report((4, 8, 16), kinds=("Kappa",))]
    kappa_ok = all(b >= 0.95 * a for a, b in zip(kappas, kappas[1:]))

    criterion(6, "constant estimates converge",
              poincare_err <= 0.01 and kappa_ok,
              "Poincare %.6f vs %.6f (rel err %.1e), "
              "inf-sup per level %s"
              % (extrapolated, target, poincare_err,
                 ["%.5f" % k for k in kappas]))


def test_criterion_07_small_data_checker(criterion):
    mesh = build_rect_two_domain(4, 4, 0.5)
    params = PhysicalParams()
    blocks = assemble_system(mesh, params, convection=False)
    consts = cst.estimate_all(blocks, level=4)

    zero = check_small_data(mesh, params, ProblemData(), 0.5, consts)
    zero_ok = (zero.ok and zero.margin == zero.rhs
               and math.isinf(zero.s_star))

    data = ProblemData(f_f=(0.3 * Sin(PI * X) * Cos(T), 0.1 * X * Y),
                       f_s=(0.2 * Y, 0.1 * Sin(PI * Y)),
                       f_p=0.2 * Cos(PI * X) * (1 + T),
                       P_in=0.1 * (1 + T))
    base = check_small_data(mesh, params, data, 0.5, consts)
    up = check_small_data(mesh, params, data.scaled(2.0), 0.5, consts)
    down = check_small_data(mesh, params, data.scaled(0.5), 0.5, consts)
    scale_err = max(abs(up.lhs - 4.0 * base.lhs) / (4.0 * base.lhs),
                    abs(down.lhs - 0.25 * base.lhs) / (0.25 * base.lhs))

    at_star = check_small_data(mesh, params, data.scaled(base.s_star), 0.5,
                               consts)
    star_err = abs(at_star.lhs - at_star.rhs) / at_star.rhs

    criterion(7, "small-data checker",
              zero_ok and scale_err <= 1e-12 and star_err <= 1e-10,
              "zero data ok, quadratic scaling defect %.1e, "
              "|lhs(s*) - rhs|/rhs %.1e at s* %.5f"
              % (scale_err, star_err, base.s_star))


def test_criterion_08_certificate_flags_hold_for_small_data_run(criterion):
    params = PhysicalParams()
    mesh = build_rect_two_domain(16, 16, 0.5)
    blocks = assemble_system(mesh, params, convection=True)
    consts = cst.estimate_all(blocks, level=16)

    base = ProblemData(
        f_f=(0.4 * Sin(PI * X) * Cos(T), 0.2 * Cos(PI * Y) * Sin(T)),
        f_s=(0.2 * Sin(PI * Y) * Cos(T), 0.3 * X * (1 - X)),
        f_p=0.3 * Cos(PI * X) * Cos(T),
        P_in=0.2 * (1 + 0.5 * Sin(T)),
    )
    probe = check_small_data(mesh, params, base, 0.5, consts)
    data = base.scaled(0.5 * probe.s_star)
    scaled = check_small_data(mesh, params, data, 0.5, consts)
    assert scaled.ok, "halved critical scale must satisfy the checker"

    cfg = SchemeConfig(scheme="euler", dt=1.0 / 200.0, t_final=0.5,
                       newton_tol=1e-10, newton_max=25)
    traj = oracles.recorded_run(blocks, data, cfg)
    report = energy_report(traj, blocks, data, consts,
                           newton_tol=cfg.newton_tol)
    rows = report.rows

    mb1_fail = [r.n for r in rows if r.mb1_ok is False]
    du_fail = [r.n for r in rows if r.dumbound_ok is False]
    mb1_margin = min(r.mb1_rhs - r.mb1_lhs for r in rows[1:])

    mb2_rows = [r for r in rows if not math.isnan(r.mb2_lhs)]
    both_logged = mb2_rows and all(
        not math.isnan(r.mb2_rhs_root)
        and not math.isnan(r.mb2_rhs_squared) for r in mb2_rows)
    root_margin = min(r.mb2_rhs_root - r.mb2_lhs for r in mb2_rows)
    squared_margin = min(r.mb2_rhs_squared - r.mb2_lhs for r in mb2_rows)
    pf_rows = [r for r in rows if r.pf_ok is not None]

    criterion(8, "certificate flags on small-data run",
              len(rows) == 101 and not mb1_fail and not du_fail
              and report.summary["mainbound1_ok"]
              and report.summary["dumbound_ok"] and bool(both_logged)
              and bool(pf_rows),
              "100 steps all mb1/du flags true (mb1 min margin %+.1e); "
              "second bound margins: rooted %+.1e, squared %+.1e; "
              "pressure bound flags %s/%s"
              % (mb1_margin, root_margin, squared_margin,
                 report.summary["pfbound_ok"],
                 report.summary["pfbound_linf_ok"]))


def test_criterion_09_newton_contraction_is_quadratic(criterion):
    case = manufactured_case("smooth-trig", amplitude=20.0)
    mesh = build_rect_two_domain(8, 8, 0.5)
    blocks = assemble_system(mesh, case.params, convection=True)
    state0 = initial_state(case, blocks, t=0.0)
    cfg = SchemeConfig(scheme="midpoint", dt=0.2, t_final=0.2,
                       newton_tol=2e-12, newton_max=60)
    _, diag = step(blocks, case.data, state0, cfg)
    norms = diag.residual_norms

    # Fit log r_{k+1} against log r_k inside the asymptotic window: after
    # the residual has entered the contraction regime, before it hits the
    # floating-point floor.
    pairs = [(math.log(a), math.log(b)) for a, b in zip(norms, norms[1:])
             if a < 1e-2 and b > 1e-12]
    slope = (np.polyfit([p[0] for p in pairs], [p[1] for p in pairs], 1)[0]
             if len(pairs) >= 2 else float("nan"))
    criterion(9, "Newton contraction order",
              len(pairs) >= 2 and slope >= 1.9,
              "fitted exponent %.2f from %d contraction pairs, "
              "residuals %s" % (slope, len(pairs),
                                ["%.1e" % v for v in norms]))


def test_criterion_10_interface_residuals_decrease_under_refinement(
        criterion, trig_study):
    residuals = [run_.residuals for run_ in trig_study.runs]
    monotone = {key: all(b[key] < a[key]
                         for a, b in zip(residuals, residuals[1:]))
                for key in RESIDUAL_KEYS}
    criterion(10, "interface residuals decrease", all(monotone.values()),
              "; ".join("%s %s" % (key, " -> ".join(
                  "%.4g" % level[key] for level in residuals))
                  for key in RESIDUAL_KEYS))
