import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import oracles
from fpsi import timestepper
from fpsi.assembly import (PhysicalParams, ProblemData, StateVector,
                           assemble_loads, assemble_system)
from fpsi.expressions import parse_expression
from fpsi.fem import interpolate_vector
from fpsi.mesh import build_rect_two_domain
from fpsi.timestepper import (
    SchemeConfig,
    StepError,
    run,
    step,
)
from fpsi.verify import initial_state, manufactured_case


def _blocks(nx=6, ny=6, convection=True, **params):
    m = build_rect_two_domain(nx, ny, 0.5)
    return assemble_system(m, PhysicalParams(**params), convection=convection)


def _driven_data():
    return ProblemData(
        P_in=parse_expression("cos(2*t)"),
        f_f=(parse_expression("0.3*sin(pi*x)*cos(t)"), parse_expression("0.1*y")),
        f_s=(parse_expression("0.2*x*y"), parse_expression("-0.1*cos(t)")),
        f_p=parse_expression("0.4*sin(pi*x)*sin(t)"),
    )


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(scheme="leapfrog")
    with pytest.raises(ValueError):
        SchemeConfig(dt=0.0)
    with pytest.raises(ValueError):
        SchemeConfig(newton_max=0)
    with pytest.raises(ValueError):
        SchemeConfig(dt=0.3, t_final=1.0).n_steps()
    assert SchemeConfig(dt=0.25, t_final=1.0).n_steps() == 4


def test_linear_problem_converges_in_one_newton_iteration():
    blocks = _blocks(convection=False)
    cfg = SchemeConfig(scheme="euler", dt=0.05, t_final=0.2)
    traj = oracles.recorded_run(blocks, _driven_data(), cfg)
    assert len(traj) == 5
    for diag in traj.diagnostics:
        assert diag.iterations == 1
        assert diag.residual_norms[-1] <= cfg.newton_tol


def test_newton_handles_convection_and_reports_iterations():
    blocks = _blocks(convection=True)
    cfg = SchemeConfig(scheme="euler", dt=0.1, t_final=0.2)
    traj = run(blocks, _driven_data(), cfg)
    for diag in traj.diagnostics:
        assert diag.iterations >= 2
        assert diag.residual_norms[-1] <= cfg.newton_tol


def test_newton_matrix_pattern_does_not_depend_on_the_state():
    # splu chooses its column ordering from the stored pattern alone, so the
    # pattern must be the dof coupling graph, not the nonzeros of the values.
    from fpsi.timestepper import _jacobian
    blocks = _blocks(4, 4)
    rng = np.random.default_rng(3)
    at_rest = _jacobian(blocks, "euler", 0.01, np.zeros(blocks.n_alpha))
    moving = _jacobian(blocks, "euler", 0.01,
                       rng.standard_normal(blocks.n_alpha))
    assert np.array_equal(at_rest.indptr, moving.indptr)
    assert np.array_equal(at_rest.indices, moving.indices)
    # the convection Jacobian is linear in the velocity, which the solver's
    # matvec on an old factor rests on: Jn(a) - Jn(b) is Jn(a - b), stored
    # on the same pattern (an inlet lift inside the term would break this)
    for skew in (False, True):
        blocks = assemble_system(build_rect_two_domain(4, 4, 0.5),
                                 PhysicalParams(rho_f=1.3), skew=skew)
        a, b = rng.standard_normal((2, blocks.n_alpha))
        Ja, Jb, Jd = (blocks.convection(x, jac=True)[1]
                      for x in (a, b, a - b))
        for J in (Jb, Jd):
            assert np.array_equal(J.indptr, Ja.indptr)
            assert np.array_equal(J.indices, Ja.indices)
        assert np.abs(Ja.data - Jb.data - Jd.data).max() \
            <= 1e-13 * np.abs(Ja.data).max()


@pytest.mark.parametrize("scheme", ["euler", "midpoint"])
def test_linear_terms_match_the_hand_written_operator(scheme):
    # the residual and the Newton matrix both read the table of linear
    # terms; at a random state with convection on, each must agree with the
    # rows written out by hand and with the five-block Newton matrix, its
    # kinematic row condensed densely
    from fpsi.timestepper import _jacobian, _pack, _residual_rows
    blocks = _blocks(4, 4)
    rng = np.random.default_rng(5)
    dt = 0.05
    state0 = StateVector(0.0, *(rng.standard_normal(n) for n in (
        blocks.n_alpha, blocks.n_beta, blocks.n_gamma, blocks.n_beta,
        blocks.n_pi)))
    z1 = rng.standard_normal(len(_pack(state0)))
    loads = assemble_loads(dt, _driven_data(), blocks.dm)
    rows, stage, _ = _residual_rows(blocks, scheme, state0, z1, dt, loads)
    for ours, hand in zip(rows, oracles.residual_rows(blocks, scheme, state0,
                                                      z1, dt, loads)):
        assert np.abs(ours - hand).max() <= 1e-13 * np.abs(hand).max()

    full = oracles.full_newton_matrix(blocks, scheme, dt,
                                      stage.alpha).toarray()
    na, nb = blocks.n_alpha, blocks.n_beta
    kin = np.arange(na, na + nb)
    keep = np.setdiff1d(np.arange(len(full)), kin)
    condensed = (full[np.ix_(keep, keep)] - full[np.ix_(keep, kin)]
                 @ np.linalg.solve(full[np.ix_(kin, kin)],
                                   full[np.ix_(kin, keep)]))
    J = _jacobian(blocks, scheme, dt, stage.alpha).toarray()
    assert np.abs(J - condensed).max() <= 1e-13 * np.abs(condensed).max()


def test_zero_data_from_rest_stays_at_rest():
    blocks = _blocks(convection=True)
    cfg = SchemeConfig(scheme="midpoint", dt=0.1, t_final=0.3)
    traj = run(blocks, ProblemData(), cfg)
    final = traj.state
    for arr in (final.alpha, final.beta, final.gamma, final.theta, final.pi):
        assert np.abs(arr).max() < 1e-12
    for diag in traj.diagnostics:
        assert diag.iterations == 0


def _energetic_initial_state(blocks):
    dm = blocks.dm
    state = blocks.zero_state()
    u = interpolate_vector(
        dm.velocity,
        (lambda x, y, t: np.sin(np.pi * x) * (1.0 - y) * (y - 0.5),
         lambda x, y, t: 0.0 * x))
    state.alpha = u[dm.velocity.free]
    d = interpolate_vector(
        dm.displacement,
        (lambda x, y, t: 0.2 * np.sin(np.pi * y) * np.cos(np.pi * x),
         lambda x, y, t: 0.1 * np.sin(np.pi * x) * y))
    state.beta = 0.5 * d[dm.displacement.free]
    state.theta = -0.25 * d[dm.displacement.free]
    rng = np.random.default_rng(4)
    state.gamma = 0.1 * rng.standard_normal(blocks.n_gamma)
    return state


def test_zero_data_energy_decays_monotonically():
    blocks = _blocks(convection=False)
    cfg = SchemeConfig(scheme="euler", dt=0.02, t_final=0.4)
    state = _energetic_initial_state(blocks)
    traj = oracles.recorded_run(blocks, ProblemData(), cfg,
                                initial_state=state)
    energies = np.array([blocks.energy(s) for s in traj.states])
    assert energies[0] > 0.0
    drops = np.diff(energies)
    assert np.all(drops <= 1e-10 * energies[0])


def test_constraint_enforced_at_every_accepted_state():
    blocks = _blocks(convection=True)
    cfg = SchemeConfig(scheme="midpoint", dt=0.05, t_final=0.2)
    traj = oracles.recorded_run(blocks, _driven_data(), cfg)
    scale = abs(blocks.Gdiv).max()
    for s in traj.states[1:]:
        assert np.abs(blocks.Gdiv @ s.alpha).max() <= 10 * cfg.newton_tol * scale


def test_kinematic_relation_is_exact():
    for scheme in ("euler", "midpoint"):
        blocks = _blocks(convection=False)
        cfg = SchemeConfig(scheme=scheme, dt=0.05, t_final=0.1)
        traj = oracles.recorded_run(blocks, _driven_data(), cfg)
        for s0, s1 in zip(traj.states, traj.states[1:]):
            rate = (s1.beta - s0.beta) / cfg.dt
            target = s1.theta if scheme == "euler" else 0.5 * (s0.theta + s1.theta)
            np.testing.assert_allclose(rate, target, atol=1e-8)


def _jump_energy(blocks, s0, s1):
    da = s1.alpha - s0.alpha
    db = s1.beta - s0.beta
    dg = s1.gamma - s0.gamma
    dth = s1.theta - s0.theta
    p = blocks.params
    return 0.5 * (p.rho_f * (da @ (blocks.mass_u @ da))
                  + p.rho_s * (dth @ (blocks.mass_d @ dth))
                  + p.s0 * (dg @ (blocks.mass_p @ dg))
                  + db @ (blocks.Bs @ db))


def test_backward_euler_energy_identity():
    blocks = _blocks(convection=True)
    data = _driven_data()
    cfg = SchemeConfig(scheme="euler", dt=0.05, t_final=0.25, newton_tol=1e-12)
    traj = oracles.recorded_run(blocks, data, cfg)
    for s0, s1 in zip(traj.states, traj.states[1:]):
        loads = assemble_loads(s1.t, data, blocks.dm)
        nl, _ = blocks.convection(s1.alpha)
        lhs = ((blocks.energy(s1) - blocks.energy(s0)
                + _jump_energy(blocks, s0, s1)) / cfg.dt
               + blocks.dissipation(s1) + s1.alpha @ nl)
        rhs = blocks.work(loads, s1)
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) < 1e-8 * scale


def test_midpoint_energy_identity_has_no_jump_term():
    from fpsi.assembly import StateVector
    blocks = _blocks(convection=True)
    data = _driven_data()
    cfg = SchemeConfig(scheme="midpoint", dt=0.05, t_final=0.25,
                       newton_tol=1e-12)
    traj = oracles.recorded_run(blocks, data, cfg)
    for s0, s1 in zip(traj.states, traj.states[1:]):
        t_star = s0.t + 0.5 * cfg.dt
        loads = assemble_loads(t_star, data, blocks.dm)
        stage = StateVector(
            t_star,
            0.5 * (s0.alpha + s1.alpha), 0.5 * (s0.beta + s1.beta),
            0.5 * (s0.gamma + s1.gamma), 0.5 * (s0.theta + s1.theta),
            s1.pi)
        nl, _ = blocks.convection(stage.alpha)
        lhs = ((blocks.energy(s1) - blocks.energy(s0)) / cfg.dt
               + blocks.dissipation(stage) + stage.alpha @ nl)
        rhs = blocks.work(loads, stage)
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) < 1e-8 * scale


def test_step_error_reports_failure():
    blocks = _blocks(convection=True)
    cfg = SchemeConfig(scheme="euler", dt=0.1, t_final=0.1,
                       newton_tol=1e-30, newton_max=2)
    with pytest.raises(StepError) as err:
        run(blocks, _driven_data(), cfg)
    assert err.value.iterations == 2
    assert err.value.residual_norm > 0.0


def test_non_finite_residual_is_a_step_error(monkeypatch):
    # NaN compares false against the tolerance, so it must not pass as
    # converged; the NaN is made directly, without a floating-point warning
    blocks = _blocks(4, 4, convection=False)
    cfg = SchemeConfig(scheme="euler", dt=0.1, t_final=0.1)
    a, b, c = assemble_loads(0.1, _driven_data(), blocks.dm)
    a[0] = np.nan
    monkeypatch.setattr(timestepper, "assemble_loads",
                        lambda t, data, dm: (a, b, c))
    with pytest.raises(StepError) as err:
        step(blocks, _driven_data(), blocks.zero_state(), cfg)
    assert err.value.iterations == 0
    assert np.isnan(err.value.residual_norm)


def test_on_step_callback_sees_every_state():
    blocks = _blocks(convection=False)
    cfg = SchemeConfig(scheme="euler", dt=0.1, t_final=0.3)
    seen = []
    run(blocks, _driven_data(), cfg, on_step=lambda s, d: seen.append(s.t))
    np.testing.assert_allclose(seen, [0.1, 0.2, 0.3], atol=1e-12)


@pytest.mark.parametrize("scheme", ["euler", "midpoint"])
def test_step_records_work_and_convection_power_at_its_stage(scheme):
    """The energy identity's load work and convection power that a step
    records are those of its accepted stage, the loads assembled afresh at
    the stage time."""
    blocks = _blocks(4, 4)
    data = _driven_data()
    traj = oracles.recorded_run(
        blocks, data, SchemeConfig(scheme=scheme, dt=0.1, t_final=0.2))
    for prev, cur, diag in zip(traj.states, traj.states[1:],
                               traj.diagnostics):
        stage = cur if scheme == "euler" else StateVector(
            0.5 * (prev.t + cur.t),
            *(0.5 * (getattr(prev, name) + getattr(cur, name))
              for name in ("alpha", "beta", "gamma", "theta")), cur.pi)
        a, b, c = assemble_loads(stage.t, data, blocks.dm)
        conv, _ = blocks.convection(stage.alpha)
        assert diag.work == pytest.approx(
            a @ stage.alpha + b @ stage.theta + c @ stage.gamma, rel=1e-12)
        assert diag.convection_power == pytest.approx(stage.alpha @ conv,
                                                      rel=1e-12)


def _direct_newton_run(blocks, data, cfg):
    """Reference states and Newton iteration counts from a fresh splu of
    the exact five-block Jacobian at every iteration."""
    from fpsi.timestepper import (_pack, _residual_rows, _row_scales,
                                  _scaled_norm, _unpack)
    scales = _row_scales(blocks, cfg.dt)
    state = blocks.zero_state()
    states, iterations = [state], []
    for _ in range(cfg.n_steps()):
        t1 = state.t + cfg.dt
        t_load = t1 if cfg.scheme == "euler" else state.t + 0.5 * cfg.dt
        loads = assemble_loads(t_load, data, blocks.dm)
        z = _pack(state)
        rows, stage, _ = _residual_rows(blocks, cfg.scheme, state, z,
                                        cfg.dt, loads)
        iterations.append(0)
        while _scaled_norm(rows, scales) > cfg.newton_tol:
            J = oracles.full_newton_matrix(blocks, cfg.scheme, cfg.dt,
                                           stage.alpha)
            z = z - spla.splu(J).solve(np.concatenate(rows))
            rows, stage, _ = _residual_rows(blocks, cfg.scheme, state, z,
                                            cfg.dt, loads)
            iterations[-1] += 1
        state = StateVector(t1, *_unpack(blocks, z))
        states.append(state)
    return states, iterations


def _random_rows(blocks, rng):
    """The five residual rows, stacked, with random entries."""
    return rng.standard_normal(blocks.n_alpha + 2 * blocks.n_beta
                               + blocks.n_gamma + blocks.n_pi)


def _block_errors(blocks, dz, reference):
    """Relative error of each of the five blocks of a correction."""
    from fpsi.timestepper import _unpack
    return [np.linalg.norm(a - b) / np.linalg.norm(b)
            for a, b in zip(_unpack(blocks, dz), _unpack(blocks, reference))]


@pytest.mark.parametrize("scheme", ["euler", "midpoint"])
def test_condensed_correction_matches_the_full_newton_solve(scheme):
    # the condensed solve eliminates beta; every block, beta included, must
    # match a solve of the full five-block Newton matrix
    blocks = _blocks(4, 4)
    rng = np.random.default_rng(11)
    stage_alpha = rng.standard_normal(blocks.n_alpha)
    rhs = _random_rows(blocks, rng)
    newton = timestepper.NewtonSolver(blocks, scheme, 0.05)
    dz, krylov, factored = newton.correction(rhs, stage_alpha)
    assert factored and krylov >= 1
    full = oracles.full_newton_matrix(blocks, scheme, 0.05, stage_alpha)
    assert max(_block_errors(blocks, dz, spla.splu(full).solve(rhs))) <= 1e-12


@pytest.mark.parametrize("scheme", ["euler", "midpoint"])
def test_condensed_right_hand_side_reads_the_table(monkeypatch, scheme):
    # a beta-column stage term outside the kinematic row is condensed into
    # the matrix and the right-hand side alike: with one added to the
    # momentum row, the correction must still solve the five-block system
    blocks = _blocks(4, 4)
    rng = np.random.default_rng(11)
    stage_alpha = rng.standard_normal(blocks.n_alpha)
    rhs = _random_rows(blocks, rng)
    table = timestepper._linear_terms(blocks)
    # the oracle reads the unchanged table as the hand-written matrix
    assert np.abs(oracles.newton_matrix_from_terms(
        blocks, scheme, 0.05, stage_alpha, table)
        - oracles.full_newton_matrix(blocks, scheme, 0.05,
                                     stage_alpha).toarray()).max() == 0.0
    terms = (*table, (0, 1, 1, blocks.E, "stage"))
    monkeypatch.setattr(timestepper, "_linear_terms", lambda b: terms)
    newton = timestepper.NewtonSolver(blocks, scheme, 0.05)
    dz, _, _ = newton.correction(rhs, stage_alpha)
    full = oracles.newton_matrix_from_terms(blocks, scheme, 0.05,
                                            stage_alpha, terms)
    assert max(_block_errors(blocks, dz, np.linalg.solve(full, rhs))) \
        <= 1e-12
    # the hand condensation of the tests reads the same table
    assert _condensed_residual(blocks, scheme, 0.05, stage_alpha, rhs, dz) \
        <= timestepper.GMRES_RTOL


def _perturbed_splu(monkeypatch, perturb):
    """Make ``timestepper.spla.splu`` return the factor of ``perturb(J)``."""
    splu = spla.splu
    monkeypatch.setattr(timestepper.spla, "splu",
                        lambda J, *args, **kwargs: splu(
                            perturb(J).tocsc(), *args, **kwargs))


def _diagonal(J):
    """J's diagonal, its zeros replaced by 1."""
    return sp.diags(np.where(J.diagonal() != 0.0, J.diagonal(), 1.0))


@pytest.mark.parametrize("scheme", ["euler", "midpoint"])
def test_direct_solve_polishes_a_factor_that_misses(monkeypatch, scheme):
    # the factor of 1.001 J solves the correction 0.1% short: GMRES on it
    # needs a second iteration to polish the first
    blocks = _blocks(4, 4)
    rng = np.random.default_rng(11)
    stage_alpha = rng.standard_normal(blocks.n_alpha)
    rhs = _random_rows(blocks, rng)
    full = oracles.full_newton_matrix(blocks, scheme, 0.05, stage_alpha)
    reference = spla.splu(full).solve(rhs)
    _perturbed_splu(monkeypatch, lambda J: 1.001 * J)
    newton = timestepper.NewtonSolver(blocks, scheme, 0.05)
    dz, krylov, factored = newton.correction(rhs, stage_alpha)
    assert factored and krylov >= 2
    assert max(_block_errors(blocks, dz, reference)) <= 1e-12


def test_direct_solve_that_cannot_be_polished_is_a_step_error(monkeypatch):
    # the factor of J's diagonal is no preconditioner for a saddle point:
    # one GMRES cycle on it misses the tolerance
    blocks = _blocks(4, 4)
    rng = np.random.default_rng(11)
    _perturbed_splu(monkeypatch, _diagonal)
    newton = timestepper.NewtonSolver(blocks, "euler", 0.05)
    with pytest.raises(StepError, match="fresh factor missed"):
        newton.correction(_random_rows(blocks, rng),
                          rng.standard_normal(blocks.n_alpha))


def test_fresh_factor_miss_in_a_step_says_where(monkeypatch):
    # the failure carries the step's time, Newton count and last scaled
    # residual, as a Newton iteration that does not converge does
    blocks, cfg = _blocks(4, 4), SchemeConfig(scheme="euler", dt=0.05)
    rng = np.random.default_rng(11)
    state0 = StateVector(0.1, *(rng.standard_normal(n) for n in (
        blocks.n_alpha, blocks.n_beta, blocks.n_gamma, blocks.n_beta,
        blocks.n_pi)))
    data = _driven_data()
    newton = timestepper.NewtonSolver(blocks, "euler", cfg.dt)
    rows, _, _ = timestepper._residual_rows(
        blocks, "euler", state0, timestepper._pack(state0), cfg.dt,
        assemble_loads(state0.t + cfg.dt, data, blocks.dm))
    residual = timestepper._scaled_norm(rows, newton.scales)
    _perturbed_splu(monkeypatch, _diagonal)
    message = r"fresh factor missed .*, at t = 0.15 \(residual .* after 0 N"
    with pytest.raises(StepError, match=message) as err:
        step(blocks, data, state0, cfg, newton=newton)
    assert err.value.iterations == 0
    assert err.value.residual_norm == residual > cfg.newton_tol


def test_backward_error_floor_accepts_only_below_its_tolerance():
    # a residual above GMRES_RTOL |b| passes when its backward error, with
    # |J| bounded below by the largest column norm of J_f less the
    # Frobenius norm of s dJn, is at most BACKWARD_ERROR_TOL
    blocks, rng = _blocks(4, 4), np.random.default_rng(5)
    newton = timestepper.NewtonSolver(blocks, "midpoint", 0.05)
    newton.correction(_random_rows(blocks, rng),
                      rng.standard_normal(blocks.n_alpha))
    J = newton.J_f.toarray()
    x = rng.standard_normal(len(J))
    b = 1e-6 * rng.standard_normal(len(J))
    direction = rng.standard_normal(len(J))
    direction /= np.linalg.norm(direction)
    dJn = sp.random(blocks.n_alpha, blocks.n_alpha, density=0.01,
                    random_state=5, format="csr")
    tol = timestepper.BACKWARD_ERROR_TOL
    for change, norm_j in (
            (None, np.linalg.norm(J, axis=0).max()),
            (dJn, np.linalg.norm(J, axis=0).max()
             - 0.5 * np.linalg.norm(dJn.toarray()))):
        floor = tol * (norm_j * np.linalg.norm(x) + np.linalg.norm(b))
        assert floor > timestepper.GMRES_RTOL * np.linalg.norm(b)
        assert newton._accepts(b, x, 0.99 * floor * direction, change)
        assert not newton._accepts(b, x, 1.01 * floor * direction, change)
    assert not newton._accepts(b, x, np.full(len(J), np.nan), None)


def _condensed_residual(blocks, scheme, dt, stage_alpha, rhs, dz):
    """Relative true residual of a correction in the condensed system,
    whose right-hand side takes -coef s dt matrix r_kin into the row of
    every beta-column stage term of the linear-term table (in the unchanged
    table, the structure row's Bs)."""
    from fpsi.timestepper import _jacobian, _linear_terms, _unpack
    s = 1.0 if scheme == "euler" else 0.5
    rows = _unpack(blocks, rhs)
    for row, col, coef, matrix, value in _linear_terms(blocks):
        if col == 1 and row != 1 and value == "stage":
            rows[row] = rows[row] - coef * s * dt * (matrix @ rows[1])
    b = np.concatenate([rows[0], rows[2], rows[3], rows[4]])
    da, _, dg, dth, dp = _unpack(blocks, dz)
    J = _jacobian(blocks, scheme, dt, stage_alpha)
    return (np.linalg.norm(b - J @ np.concatenate([da, dg, dth, dp]))
            / np.linalg.norm(b))


@pytest.mark.parametrize("scheme", ["euler", "midpoint"])
def test_fresh_factor_is_single_precision_and_refined_in_double(scheme):
    # a float32 factor alone leaves a relative residual near 2e-6 here;
    # GMRES iterations in double take the correction to its tolerance
    blocks, dt = _blocks(4, 4), 0.05
    rng = np.random.default_rng(13)
    stage_alpha = rng.standard_normal(blocks.n_alpha)
    rhs = _random_rows(blocks, rng)
    newton = timestepper.NewtonSolver(blocks, scheme, dt)
    dz, krylov, factored = newton.correction(rhs, stage_alpha)
    assert factored and krylov >= 2
    assert newton.lu.L.dtype == newton.lu.U.dtype == np.float32
    assert dz.dtype == np.float64
    assert _condensed_residual(blocks, scheme, dt, stage_alpha, rhs, dz) \
        <= timestepper.GMRES_RTOL


class _CountedFactor:
    def __init__(self, lu):
        self.lu, self.solves, self.nnz = lu, 0, lu.nnz

    def solve(self, b, trans="N"):
        self.solves += 1
        return self.lu.solve(b, trans=trans)


def test_newton_matrix_is_kept_in_csr_and_its_transpose_factored():
    # GMRES applies J_f as stacked; the float32 factor is that of
    # (P J_f P^T)^T, so a transposed solve inverts P J_f P^T
    blocks = _blocks(4, 4)
    rng = np.random.default_rng(16)
    newton = timestepper.NewtonSolver(blocks, "euler", 0.05)
    newton.correction(_random_rows(blocks, rng),
                      rng.standard_normal(blocks.n_alpha))
    assert newton.J_f.format == "csr"
    ordered = newton.J_f[newton.perm][:, newton.perm]
    y = rng.standard_normal(ordered.shape[0])
    z = newton.lu.solve(y.astype(np.float32), trans="T")
    assert np.linalg.norm(ordered @ z - y) <= 1e-3 * np.linalg.norm(y)
    # solved as it is, the factor inverts the transpose instead
    z = newton.lu.solve(y.astype(np.float32))
    assert np.linalg.norm(ordered.T @ z - y) <= 1e-3 * np.linalg.norm(y) \
        < np.linalg.norm(ordered @ z - y)


@pytest.mark.parametrize("scheme", ["euler", "midpoint"])
def test_gmres_cycle_makes_one_solve_per_iteration(scheme):
    blocks, dt = _blocks(4, 4), 0.05
    rng = np.random.default_rng(12)
    newton = timestepper.NewtonSolver(blocks, scheme, dt)
    stage_alpha = 0.1 * rng.standard_normal(blocks.n_alpha)
    rhs = _random_rows(blocks, rng)
    newton.correction(rhs, stage_alpha)
    newton.lu = factor = _CountedFactor(newton.lu)
    stage_alpha = stage_alpha + 0.01 * rng.standard_normal(blocks.n_alpha)
    dz, krylov, factored = newton.correction(rhs, stage_alpha)
    assert not factored
    assert krylov > 0 and factor.solves == krylov
    assert _condensed_residual(blocks, scheme, dt, stage_alpha, rhs, dz) \
        <= timestepper.GMRES_RTOL
    full = oracles.full_newton_matrix(blocks, scheme, dt, stage_alpha)
    assert max(_block_errors(blocks, dz, spla.splu(full).solve(rhs))) <= 1e-9


@pytest.mark.parametrize("scheme", ["euler", "midpoint"])
def test_old_factor_applies_the_newton_matrix_at_the_new_stage(scheme):
    # the solver holds the matrix it factored and adds the convection
    # Jacobian of the velocity change: at a new stage that is the Newton
    # matrix built there, and at the factored stage the factored matrix
    from fpsi.timestepper import _jacobian
    blocks, dt = _blocks(4, 4), 0.05
    rng = np.random.default_rng(15)
    stage_alpha = rng.standard_normal(blocks.n_alpha)
    newton = timestepper.NewtonSolver(blocks, scheme, dt)
    newton.correction(_random_rows(blocks, rng), stage_alpha)
    v = rng.standard_normal(newton.J_f.shape[0])
    matvec, change = newton._matvec(stage_alpha)
    assert np.array_equal(matvec(v), newton.J_f @ v) and change is None
    new_alpha = stage_alpha + rng.standard_normal(blocks.n_alpha)
    reference = _jacobian(blocks, scheme, dt, new_alpha) @ v
    assert np.linalg.norm(newton._matvec(new_alpha)[0](v) - reference) \
        <= 1e-13 * np.linalg.norm(reference)


@pytest.mark.parametrize("restart", [timestepper.GMRES_RESTART, 3])
@pytest.mark.parametrize("scheme", ["euler", "midpoint"])
def test_newton_matrix_is_built_once_per_factor(monkeypatch, scheme,
                                                 restart):
    # a cycle of three iterations stalls on an old factor, so the short
    # restart refactors within the trajectory
    builds = []
    jacobian = timestepper._jacobian

    def counted(*args, **kwargs):
        builds.append(1)
        return jacobian(*args, **kwargs)
    monkeypatch.setattr(timestepper, "_jacobian", counted)
    monkeypatch.setattr(timestepper, "GMRES_RESTART", restart)
    traj = run(_blocks(convection=True), _driven_data(),
               SchemeConfig(scheme=scheme, dt=0.1, t_final=0.3))
    factorizations = sum(d.factorizations for d in traj.diagnostics)
    assert len(builds) == factorizations >= (1 if restart > 3 else 2)


def _max_relative_difference(states, reference):
    worst = 0.0
    for s, r in zip(states, reference):
        for name in ("alpha", "beta", "gamma", "theta", "pi"):
            a, b = getattr(s, name), getattr(r, name)
            worst = max(worst, np.linalg.norm(a - b)
                        / max(np.linalg.norm(b), 1e-300))
    return worst


@pytest.mark.parametrize("scheme", ["euler", "midpoint"])
def test_preconditioned_newton_matches_direct_newton(scheme):
    blocks = _blocks(convection=True)
    data = _driven_data()
    cfg = SchemeConfig(scheme=scheme, dt=0.1, t_final=0.3)
    traj = oracles.recorded_run(blocks, data, cfg)
    reference, iterations = _direct_newton_run(blocks, data, cfg)
    assert len(traj.states) == len(reference)
    assert _max_relative_difference(traj.states, reference) <= 1e-9
    # exact Newton: the same iteration count at every step
    assert [d.iterations for d in traj.diagnostics] == iterations
    # the GMRES path ran, preconditioned by the trajectory's single factor
    assert sum(d.krylov_iterations for d in traj.diagnostics) > 0
    assert sum(d.factorizations for d in traj.diagnostics) == 1


def test_linear_trajectory_is_factored_once():
    blocks = _blocks(convection=False)
    cfg = SchemeConfig(scheme="midpoint", dt=0.05, t_final=0.2)
    traj = run(blocks, _driven_data(), cfg)
    assert [d.factorizations for d in traj.diagnostics] == [1, 0, 0, 0]
    assert all(d.krylov_iterations >= 1 for d in traj.diagnostics[1:])
    # the factor's fill is recorded by the step that made it
    assert [d.factor_fill > 0 for d in traj.diagnostics] \
        == [True, False, False, False]


def test_every_lu_solve_is_counted_once(monkeypatch):
    # every LU solve is one GMRES iteration, on a fresh factor or an old one
    factors = []
    splu = spla.splu

    def counted_splu(*args, **kwargs):
        factors.append(_CountedFactor(splu(*args, **kwargs)))
        return factors[-1]
    monkeypatch.setattr(timestepper.spla, "splu", counted_splu)
    traj = run(_blocks(convection=True), _driven_data(),
               SchemeConfig(scheme="euler", dt=0.1, t_final=0.3))
    diags = traj.diagnostics
    assert len(factors) == sum(d.factorizations for d in diags) >= 1
    assert sum(f.solves for f in factors) == sum(
        d.krylov_iterations for d in diags)
    assert sum(f.nnz for f in factors) == sum(d.factor_fill for d in diags)


def test_gmres_stall_refactors_and_converges(monkeypatch):
    blocks = _blocks(convection=True)
    data = _driven_data()
    cfg = SchemeConfig(scheme="euler", dt=0.1, t_final=0.3)
    baseline = oracles.recorded_run(blocks, data, cfg)
    # three iterations stall on an old factor but converge on a fresh one
    # (one or two make a fresh cycle miss as well)
    monkeypatch.setattr(timestepper, "GMRES_RESTART", 3)
    stalled = oracles.recorded_run(blocks, data, cfg)
    factorizations = sum(d.factorizations for d in stalled.diagnostics)
    assert factorizations > 1
    # every refactoring after the first follows an old cycle that ran all
    # three iterations, and every correction ends in one cycle of one to
    # three iterations that converged
    iterations = sum(d.iterations for d in stalled.diagnostics)
    stalls = 3 * (factorizations - 1)
    assert stalls + iterations \
        <= sum(d.krylov_iterations for d in stalled.diagnostics) \
        <= stalls + 3 * iterations
    assert _max_relative_difference(stalled.states, baseline.states) <= 1e-9


def test_reruns_give_bitwise_equal_states():
    blocks = _blocks(convection=True)
    cfg = SchemeConfig(scheme="midpoint", dt=0.1, t_final=0.3)
    first = oracles.recorded_run(blocks, _driven_data(), cfg)
    second = oracles.recorded_run(blocks, _driven_data(), cfg)
    for a, b in zip(first.states, second.states):
        for name in ("alpha", "beta", "gamma", "theta", "pi"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


# ---------------------------------------------------------------------------
# the nested-dissection order of the condensed unknowns
# ---------------------------------------------------------------------------

def _condensed_matrix(blocks):
    from fpsi.timestepper import _jacobian
    return _jacobian(blocks, "euler", 0.05, np.zeros(blocks.n_alpha))


def test_nested_dissection_is_a_deterministic_permutation():
    blocks = _blocks(8, 8)
    J = _condensed_matrix(blocks)
    perm = timestepper._nested_dissection(blocks.dm, J)
    assert np.array_equal(np.sort(perm), np.arange(J.shape[0]))
    assert np.array_equal(perm, timestepper._nested_dissection(blocks.dm, J))


def _dissection(nx, ny, split):
    """The points, point graph (from a COO copy of J), point of each
    unknown, unknowns per point and dissection paths of a zero-velocity
    condensed matrix on an ``nx`` by ``ny`` mesh."""
    blocks = assemble_system(build_rect_two_domain(nx, ny, split),
                             PhysicalParams())
    J = _condensed_matrix(blocks)
    xy, point = timestepper._condensed_points(blocks.dm)
    coo = J.tocoo()
    graph = sp.coo_matrix((np.ones(J.nnz), (point[coo.row], point[coo.col])))
    weights = np.bincount(point)
    paths = np.array(timestepper._dissection_paths(xy, graph, weights))
    return blocks, J, xy, graph, point, weights, paths


def test_nested_dissection_keeps_points_together_in_small_leaves():
    # 15 x 20 at 0.35 is not dyadic; on both meshes some parts take the
    # separator on their right side
    for nx, ny, split in ((8, 8, 0.5), (15, 20, 0.35)):
        blocks, J, xy, graph, point, weights, paths = _dissection(nx, ny,
                                                                  split)
        # the unknowns of each point are consecutive in the order
        order = point[timestepper._nested_dissection(blocks.dm, J)]
        assert np.count_nonzero(np.diff(order)) == len(xy) - 1
        # points no cut put in a separator lie in leaves, one per path
        in_leaf = ~np.any(paths == 2, axis=0)
        _, leaf = np.unique(paths[:, in_leaf].T, axis=0, return_inverse=True)
        sizes = np.bincount(leaf, weights=weights[in_leaf])
        assert len(sizes) > 1
        assert sizes.max() <= 32
        # the separators split the graph: every edge between two leaf
        # points stays inside one leaf
        leaf_of = np.full(len(xy), -1)
        leaf_of[in_leaf] = leaf
        rows, cols = graph.row, graph.col
        both = in_leaf[rows] & in_leaf[cols]
        assert np.array_equal(leaf_of[rows[both]], leaf_of[cols[both]])


def test_nested_dissection_cuts_on_one_line_away_from_the_interface():
    # a median on a row of edge midpoints has a vertex row on one side and
    # a midpoint row on the other; the lighter side is the vertex row alone.
    # Only the interface terms couple points two rows apart, so a separator
    # near it may bend
    n = 16
    _, _, xy, _, _, _, paths = _dissection(n, n, 0.5)
    row = np.rint(xy[:, 1] * 2 * n)  # points lie on rows h / 2 apart
    separators = 0
    for level, digits in enumerate(paths):
        on = np.flatnonzero(digits == 2)
        # a separator's points share the digits of the levels above it
        _, part = np.unique(paths[:level, on].T, axis=0, return_inverse=True)
        for k in range(part.max() + 1):
            points = on[part.ravel() == k]
            separators += 1
            if np.abs(row[points] - n).min() > 2:
                assert min(len(np.unique(xy[points, 0])),
                           len(np.unique(xy[points, 1]))) == 1
    assert separators > 60


def test_nested_dissection_factor_fills_less_than_colamd():
    # 1.71M entries of L + U against COLAMD's 3.06M.  The check has teeth:
    # in the identity order the same factor fills far more than COLAMD's
    # (4.04M against 0.44M already at n = 16, and takes minutes at n = 32),
    # and separators always taken on the left side of the cut fill 2.38M
    case = manufactured_case("smooth-trig")
    blocks = assemble_system(build_rect_two_domain(32, 32, case.split),
                             case.params)
    dt = 0.1 / 64
    stage_alpha = initial_state(case, blocks).alpha
    newton = timestepper.NewtonSolver(blocks, "midpoint", dt)
    newton.correction(_random_rows(blocks, np.random.default_rng(14)),
                      stage_alpha)
    colamd = spla.splu(timestepper._jacobian(blocks, "midpoint", dt,
                                             stage_alpha).tocsc())
    assert newton.lu.L.nnz + newton.lu.U.nnz \
        < 0.65 * (colamd.L.nnz + colamd.U.nnz)
