"""Tests for the stability-constant estimators."""

import dataclasses
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import oracles
from fpsi import constants as cst
from fpsi import mesh as meshmod
from fpsi.assembly import PhysicalParams, assemble_system
from fpsi.expressions import ZERO, parse_expression
from fpsi.fem import interpolate_vector

POINCARE_SQUARE = 1.0 / np.sqrt(2.0 * np.pi ** 2)


@pytest.fixture(scope="module")
def blocks8():
    mesh = meshmod.build_rect_two_domain(8, 8, 0.5)
    return assemble_system(mesh, PhysicalParams(), convection=False)


@pytest.fixture(scope="module")
def blocks16():
    mesh = meshmod.build_rect_two_domain(16, 16, 0.5)
    return assemble_system(mesh, PhysicalParams(), convection=False)


@pytest.fixture(scope="module")
def blocks4():
    mesh = meshmod.build_rect_two_domain(4, 4, 0.5)
    return assemble_system(mesh, PhysicalParams(), convection=False)


def test_dirichlet_poincare_calibration():
    """The all-Dirichlet square constant converges to 1/sqrt(2 pi^2)."""
    values = [oracles.dirichlet_poincare_square(n) for n in (8, 16, 32)]
    assert values[0] < values[1] < values[2] < POINCARE_SQUARE
    extrap = oracles.richardson(values[1], values[2], rate=2)
    assert abs(extrap - POINCARE_SQUARE) <= 0.01 * POINCARE_SQUARE
    # the raw fine value is itself already within one percent
    assert abs(values[2] - POINCARE_SQUARE) <= 0.01 * POINCARE_SQUARE


def test_richardson_removes_leading_error():
    exact = 0.7
    coarse = exact + 0.04
    fine = exact + 0.01
    assert oracles.richardson(coarse, fine, rate=2) == pytest.approx(exact)


MONOTONE_KINDS = ("T1", "T2", "T3", "T4", "T5", "P1c", "P2c", "P3c", "Kf")


def test_quotients_monotone_under_nested_refinement(blocks4, blocks8):
    """Nested spaces can only enlarge a supremum-type constant."""
    for kind in MONOTONE_KINDS:
        coarse = cst.estimate(kind, blocks4).value
        fine = cst.estimate(kind, blocks8).value
        assert fine >= coarse - 1e-10, (kind, coarse, fine)


def test_korn_constant_at_least_one(blocks8):
    est = cst.estimate("Kf", blocks8)
    assert est.value >= 1.0
    assert np.isfinite(est.value)


def test_lifted_constants_at_least_one(blocks8):
    assert cst.estimate("Cj", blocks8).value >= 1.0
    assert cst.estimate("T3", blocks8).value >= 1.0


def test_poincare_quotients_match_half_strip(blocks8):
    """A strip of height 1/2 clamped on one long side has constant 1/pi.

    The discrete values converge to it from below; on the 8x8 mesh they
    agree to a few parts in 1e6.
    """
    for kind in ("P1c", "P2c", "P3c"):
        value = cst.estimate(kind, blocks8).value
        assert value == pytest.approx(1.0 / np.pi, rel=1e-4)
        assert value <= 1.0 / np.pi + 1e-12


def test_sobolev_constant_reproducible_and_above_benchmark(blocks8):
    value1, _ = cst.sobolev_l4_constant(blocks8, seed=0, starts=4, maxit=200)
    value2, _ = cst.sobolev_l4_constant(blocks8, seed=0, starts=4, maxit=200)
    assert value1 == value2

    # the ascent result must dominate any explicitly constructed field;
    # this profile vanishes on the clamped top boundary
    V = blocks8.dm.velocity
    K = blocks8.stiff_u
    vx = parse_expression("cos(pi*(y - 0.5))")
    z = interpolate_vector(V, (vx, ZERO))[V.free]
    z /= np.sqrt(z @ (K @ z))
    form = cst._QuarticForm(V)
    benchmark = form.value_and_grad(z)[0] ** 0.25
    assert benchmark == pytest.approx(0.4189, abs=2e-3)
    assert value1 >= benchmark


def test_sobolev_constant_smooth_start_alone(blocks8):
    """The deterministic start already lands on the global maximiser."""
    value0, _ = cst.sobolev_l4_constant(blocks8, starts=0)
    value4, _ = cst.sobolev_l4_constant(blocks8, seed=0, starts=4, maxit=200)
    assert value0 == pytest.approx(value4, rel=1e-9)


@pytest.mark.parametrize("n", (8, 16))
def test_quartic_matmuls_match_the_einsum_form(n):
    """The two-matmul |v|^4 form and gradient equal the einsum contraction."""
    mesh = meshmod.build_rect_two_domain(n, n, 0.5)
    V = assemble_system(mesh, PhysicalParams(), convection=False).dm.velocity
    form = cst._QuarticForm(V)
    rng = np.random.default_rng(n)
    for _ in range(3):
        z = rng.standard_normal(V.n_free)
        value, grad = form.value_and_grad(z)
        ref_value, ref_grad = oracles.einsum_quartic(V, z)
        assert value == pytest.approx(ref_value, rel=1e-14, abs=0.0)
        assert np.abs(grad - ref_grad).max() <= 1e-14 * np.abs(ref_grad).max()


def test_quartic_hessian_is_the_derivative_of_the_gradient(blocks8):
    V = blocks8.dm.velocity
    form = cst._QuarticForm(V)
    rng = np.random.default_rng(3)
    z, w = rng.standard_normal((2, V.n_free))
    h = 1e-4
    central = (form.value_and_grad(z + h * w)[1]
               - form.value_and_grad(z - h * w)[1]) / (2.0 * h)
    hw = form.hessian(z)(w)
    # the gradient is cubic in z, so the central difference is exact up to
    # h^2 times the third derivative
    assert np.abs(hw - central).max() <= 1e-7 * np.abs(hw).max()
    assert np.abs(hw).max() > 0.0


def test_sobolev_ascent_leaves_the_saddle_plateau(blocks16):
    """Cut after 8 steps, the smooth start sits on the plateau it passes
    through (Q^(1/4) = 0.4220652), a saddle with positive curvature; the
    check must leave it for the maximum 0.444126."""
    value, info = cst.sobolev_l4_constant(blocks16, maxit=8)
    assert value == pytest.approx(0.444126, abs=1e-6)
    assert info["curvature"] < -0.05
    assert info["best_iterations"] > 8
    full, info_full = cst.sobolev_l4_constant(blocks16)
    assert full == pytest.approx(0.44412617636490, rel=1e-12)
    assert info_full["best_iterations"] == 53
    assert info_full["curvature"] == pytest.approx(-0.0696103, rel=1e-5)


def test_sobolev_ascent_without_escapes_reports_the_saddle(blocks16,
                                                          monkeypatch):
    monkeypatch.setattr(cst, "SF_ESCAPES", 0)
    with pytest.raises(cst.ConstantError, match="saddle"):
        cst.sobolev_l4_constant(blocks16, maxit=8)


def test_infsup_constant_stable_under_refinement(blocks4, blocks8):
    k4 = cst.estimate("Kappa", blocks4).value
    k8 = cst.estimate("Kappa", blocks8).value
    assert k4 > 0.0 and k8 > 0.0
    assert k8 >= 0.95 * k4


PENCIL_KINDS = ("T1", "T2", "T4", "T5", "P1c", "P2c", "P3c", "Kf")


def test_quotient_dense_and_sparse_paths_agree(blocks4, blocks8):
    """Lanczos on every sparse pencil matches the dense LAPACK oracle."""
    for blocks in (blocks4, blocks8):
        for kind in PENCIL_KINDS:
            A, B = cst._trace_pencil(blocks, kind)
            assert sp.issparse(A) and sp.issparse(B), kind
            assert cst.quotient_max(A, B) == pytest.approx(
                oracles.dense_quotient_max(A, B), rel=1e-9), (kind, B.shape)


def test_quotient_max_reproducible_when_lanczos_fills_the_space():
    """On 2x2-mesh pencils ARPACK restarts from a random vector."""
    mesh = meshmod.build_rect_two_domain(2, 2, 0.5)
    blocks = assemble_system(mesh, PhysicalParams(), convection=False)
    for kind in ("T1", "T2", "P1c"):
        A, B = cst._trace_pencil(blocks, kind)
        assert len({cst.quotient_max(A, B) for _ in range(8)}) == 1, kind


def test_estimate_all_takes_the_sparse_path_and_one_sobolev_start(
        blocks8, monkeypatch):
    """Dense eigh only for the inlet lifting (Cj); Sf from one start."""
    calls = {"eigh": 0, "eigsh": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(cst.la, "eigh")
    counted(cst.spla, "eigsh")
    ests = {e.kind: e for e in cst.estimate_all(blocks8, level=8)}
    # eight plain pencils, T3, Kappa's smallest eigenvalue and the top
    # curvature where the Sf ascent ends
    assert calls == {"eigh": 1, "eigsh": 11}
    assert ests["Sf"].meta["starts"] == 0
    assert {k: e.meta["method"] for k, e in ests.items()} == {
        **{k: "eigsh" for k in PENCIL_KINDS},
        "T3": "eigsh", "Kappa": "eigsh", "Cj": "eigh", "Sf": "ascent"}
    assert isinstance(ests["Cj"].meta["lifting"], cst.InletLifting)


class _CountedFactor:
    """A SuperLU factor behind an object that weak references can follow."""

    def __init__(self, lu):
        self.lu = lu

    def solve(self, b):
        return self.lu.solve(b)


def test_estimate_all_factors_each_operator_once(blocks16, monkeypatch):
    """Nine distinct SPD matrices, one factor each, shared by the
    estimators that invert them: at most Kappa's two factors (H and the
    pressure mass) are alive at once, none of them while Cj runs or after
    estimate_all returns, and every value is the lone estimate's."""
    refs, alive_at_splu, alive_at_entry = [], [], {}
    current = [None]

    def alive():
        return sum(ref() is not None for ref in refs)

    splu = cst.spla.splu

    def counted_splu(*args, **kwargs):
        factor = _CountedFactor(splu(*args, **kwargs))
        refs.append(weakref.ref(factor))
        alive_at_splu.append((current[0], alive()))
        return factor
    estimate = cst.estimate

    def watched(kind, *args, **kwargs):
        current[0] = kind
        alive_at_entry[kind] = alive()
        return estimate(kind, *args, **kwargs)
    monkeypatch.setattr(cst.spla, "splu", counted_splu)
    monkeypatch.setattr(cst, "estimate", watched)
    ests = cst.estimate_all(blocks16, level=16)
    assert alive() == 0
    assert len(refs) == 9
    assert max(count for _, count in alive_at_splu) == 2
    assert [kind for kind, count in alive_at_splu if count == 2] == ["Kappa"]
    # Cj factors its own lifting matrix and finds no other factor alive
    assert alive_at_entry["Cj"] == 0
    assert [count for kind, count in alive_at_splu if kind == "Cj"] == [1]
    assert [e.kind for e in ests] == list(cst.CONSTANT_KINDS)
    for est in ests:
        alone = estimate(est.kind, blocks16, level=16)
        assert est.value == pytest.approx(alone.value, rel=1e-12, abs=0.0)
        assert est.dofs == alone.dofs


@pytest.mark.parametrize("n", (2, 4, 8))
def test_trace_and_infsup_constants_match_dense_schur_oracles(n):
    """T3 without a Schur complement and matrix-free Kappa agree with the
    dense Schur complements they replace (Kappa on 2 x 2 has 6 dofs)."""
    mesh = meshmod.build_rect_two_domain(n, n, 0.5)
    blocks = assemble_system(mesh, PhysicalParams(), convection=False)
    t3 = cst.estimate("T3", blocks)
    assert t3.value == pytest.approx(
        oracles.dense_pore_trace_constant(blocks), rel=1e-12)
    assert t3.dofs == 2 * n - 1
    assert cst.estimate("Kappa", blocks).value == pytest.approx(
        oracles.dense_infsup_constant(blocks), rel=1e-12)


def test_infsup_detects_matrix_free_zero_mode(blocks4):
    """G H^-1 G^T loses a pressure dof when its row of G is zeroed."""
    keep = np.ones(blocks4.Gdiv.shape[0])
    keep[len(keep) // 2] = 0.0
    broken = dataclasses.replace(blocks4, Gdiv=sp.diags(keep) @ blocks4.Gdiv)
    with pytest.raises(cst.ConstantError, match="zero mode"):
        cst.estimate("Kappa", broken)


def test_quotient_max_validates_shapes():
    with pytest.raises(ValueError, match="matching shapes"):
        cst.quotient_max(sp.eye(3).tocsr(), sp.eye(4).tocsr())


def test_quotient_min_detects_zero_mode():
    A = np.diag([0.0, 1.0])
    B = np.eye(2)
    with pytest.raises(cst.ConstantError, match="zero mode"):
        cst.quotient_min(A, B)
    assert cst.quotient_min(np.diag([2.0, 3.0]), B) == pytest.approx(2.0)
    # the constant vector, where Lanczos starts, as the zero mode itself
    with pytest.raises(cst.ConstantError, match="zero mode"):
        cst.quotient_min(np.array([[1.0, -1.0], [-1.0, 1.0]]), B)


def test_quotient_min_detects_zero_mode_orthogonal_to_the_start():
    """A matrix-free pencil whose zero mode has no component along the
    constant start vector of the Lanczos run."""
    n = 40
    zero = np.zeros(n)
    zero[:2] = (1.0, -1.0)
    rng = np.random.default_rng(5)
    U, _ = np.linalg.qr(np.column_stack([zero,
                                         rng.standard_normal((n, n - 1))]))
    assert abs(U[:, 0] @ np.ones(n)) < 1e-14

    def pencil(smallest):
        S = (U * np.r_[smallest, np.linspace(1.0, 3.0, n - 1)]) @ U.T
        return spla.LinearOperator((n, n), matvec=lambda v: S @ v)
    B = sp.eye(n).tocsr()
    with pytest.raises(cst.ConstantError, match="zero mode"):
        cst.quotient_min(pencil(0.0), B)
    assert cst.quotient_min(pencil(0.5), B) == pytest.approx(0.5)


def test_estimate_rejects_unknown_kind(blocks8):
    with pytest.raises(ValueError, match="unknown constant kind"):
        cst.estimate("T9", blocks8)


def test_constant_estimate_validates_kind():
    with pytest.raises(ValueError, match="unknown constant kind"):
        cst.ConstantEstimate("bogus", 1.0, 8, 10)


def test_report_produces_all_kinds():
    out = oracles.report((4,), sf_starts=2, sf_maxit=150)
    assert [e.kind for e in out] == list(cst.CONSTANT_KINDS)
    assert all(e.mesh_level == 4 for e in out)
    assert all(np.isfinite(e.value) and e.value > 0.0 for e in out)
    assert all(e.dofs > 0 for e in out)
    assert all(e.meta["description"] for e in out)


def test_trace_constants_distinguish_subdomains():
    """With an off-centre interface the two trace constants must differ."""
    mesh = meshmod.build_rect_two_domain(8, 8, 0.25)
    blocks = assemble_system(mesh, PhysicalParams(), convection=False)
    t1 = cst.estimate("T1", blocks).value
    t5 = cst.estimate("T5", blocks).value
    assert abs(t1 - t5) > 1e-4


def test_inlet_lifting_norm():
    mesh = meshmod.build_rect_two_domain(8, 8, 0.5)
    lifting = cst.InletLifting(mesh)
    n = len(lifting.inlet_dofs)
    assert np.allclose(lifting.inlet_coords[:, 0], 0.0)
    assert lifting.inlet_coords[:, 1].min() > 0.5
    assert lifting.inlet_coords[:, 1].max() < 1.0

    rng = np.random.default_rng(11)
    g = rng.standard_normal(n)
    assert lifting.norm00(2.0 * g) == pytest.approx(2.0 * lifting.norm00(g))
    assert lifting.norm00(g) > 0.0
    with pytest.raises(ValueError, match="inlet dof layout"):
        lifting.norm00(np.ones(n + 1))

    profile = parse_expression("sin(2*pi*(y - 0.5))")
    assert lifting.norm00_of(profile) > 0.0
    assert lifting.norm00_of(ZERO) == 0.0
