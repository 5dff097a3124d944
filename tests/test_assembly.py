import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from fpsi import mesh as meshmod
from fpsi.assembly import (
    CERTIFICATE_OPERATORS,
    ExtraLoads,
    _boundary_facet_tris,
    ParameterError,
    PhysicalParams,
    ProblemData,
    StateVector,
    _reference_table,
    assemble_loads,
    assemble_system,
    div_pressure,
    facet_matrix,
    load_facet,
    load_volume,
    mixed_div,
    mass,
    pattern_sum,
    scalar_kgrad,
    sparse_sum,
    stiffness,
    vector_divdiv,
    vector_symgrad,
)
from fpsi.expressions import ONE, X, Y, Const, parse_expression
from fpsi.fem import (
    ElementKind,
    build_dofmaps,
    interpolate_scalar,
    interpolate_vector,
    make_scalar_space,
    make_vector_space,
)
from fpsi.mesh import build_rect_two_domain
from fpsi.timestepper import SchemeConfig, _pack, _residual_rows, run


# ---------------------------------------------------------------------------
# element matrices against exact symbolic integration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("degree,kind", [(1, ElementKind.P1), (2, ElementKind.P2)])
def test_element_matrices_match_symbolic_integration(degree, kind):
    rng = np.random.default_rng(42)
    n_tris = 5 if degree == 1 else 3
    for _ in range(n_tris):
        coords = oracles.random_rational_triangle(rng)
        mass_ref, stiff_ref = oracles.sympy_element_matrices(coords, degree)
        m = oracles.one_triangle_mesh([[float(c) for c in row] for row in coords])
        space = make_scalar_space(m, kind)
        np.testing.assert_allclose(mass(space).toarray(), mass_ref,
                                   rtol=1e-13, atol=1e-16)
        np.testing.assert_allclose(stiffness(space).toarray(), stiff_ref,
                                   rtol=1e-13, atol=1e-14)


def test_reference_p1_mass_matrix():
    m = oracles.one_triangle_mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    space = make_scalar_space(m, ElementKind.P1)
    expected = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
    np.testing.assert_allclose(mass(space).toarray(), expected, atol=1e-15)


def test_p2_mass_matrix_keeps_exact_zeros_and_symmetry():
    rng = np.random.default_rng(7)
    coords = oracles.random_rational_triangle(rng)
    mass_ref, _ = oracles.sympy_element_matrices(coords, 2)
    m = oracles.one_triangle_mesh([[float(c) for c in row] for row in coords])
    space = make_scalar_space(m, ElementKind.P2)
    M = mass(space).toarray()
    assert np.array_equal(M, M.T)
    assert np.all(M[mass_ref == 0.0] == 0.0)
    assert np.count_nonzero(mass_ref == 0.0) > 0


def test_exact_zeros_stay_stored_on_the_dof_coupling_graph():
    m = build_rect_two_domain(4, 4, 0.5)
    R = build_dofmaps(m).pressure_p
    K, M = stiffness(R), mass(R)
    assert np.count_nonzero(K.data == 0.0) > 0
    assert np.array_equal(K.indptr, M.indptr)
    assert np.array_equal(K.indices, M.indices)


def test_operator_symmetry():
    m = build_rect_two_domain(4, 4, 0.5)
    params = PhysicalParams()
    blocks = assemble_system(m, params, convection=False)
    for name in ("mass_u", "visc_u", "slip_u", "mass_d", "Bs", "mass_p",
                 "Bp", "F"):
        A = getattr(blocks, name)
        assert abs(A - A.T).max() < 1e-13, name


def test_energy_quadratic_forms_on_simple_fields():
    m = build_rect_two_domain(4, 4, 0.5)
    # the unconstrained spaces, so the forms act on the whole interpolants
    dm = oracles.unconstrained_dofmap(m)

    # shear flow u = (y, 0): D(u) has two off-diagonal entries of 1/2,
    # so int_F D(u):D(u) = area/2 with area(fluid) = 1/2.
    u = interpolate_vector(dm.velocity, (lambda x, y, t: y, lambda x, y, t: 0 * x))
    visc = vector_symgrad(dm.velocity)
    assert u @ (visc @ u) == pytest.approx(0.25, rel=1e-13)
    stiff = stiffness(dm.velocity)
    assert u @ (stiff @ u) == pytest.approx(0.5, rel=1e-13)

    # dilation xi = (x, y): div = 2, (div, div) = 4 * area(poro) = 2
    xi = interpolate_vector(dm.displacement, (lambda x, y, t: x, lambda x, y, t: y))
    divdiv = vector_divdiv(dm.displacement)
    assert xi @ (divdiv @ xi) == pytest.approx(2.0, rel=1e-13)

    # anisotropic permeability against a linear pressure w = x + 2y
    K = np.array([[2.0, 0.5], [0.5, 1.0]])
    w = interpolate_scalar(dm.pressure_p, lambda x, y, t: x + 2 * y)
    kgrad = scalar_kgrad(dm.pressure_p, K)
    grad = np.array([1.0, 2.0])
    expected = 0.5 * grad @ K @ grad  # area(poro) = 1/2
    assert w @ (kgrad @ w) == pytest.approx(expected, rel=1e-13)


def test_mixed_divergence_annihilates_linear_solenoidal_fields():
    m = build_rect_two_domain(4, 4, 0.5)
    dm = oracles.unconstrained_dofmap(m)
    gdiv = mixed_div(dm.pressure_f, dm.velocity)
    u = interpolate_vector(
        dm.velocity,
        (lambda x, y, t: 0.3 + 2.0 * x + 0.7 * y,
         lambda x, y, t: -1.0 + 0.4 * x - 2.0 * y))
    assert np.abs(gdiv @ u).max() < 1e-13
    # and detects a constant divergence exactly
    v = interpolate_vector(dm.velocity, (lambda x, y, t: x, lambda x, y, t: 0 * x))
    total = (gdiv @ v).sum()  # sum of (q_i, div v) = int div v over fluid
    assert total == pytest.approx(0.5, rel=1e-13)


def test_pressure_coupling_volume_term():
    m = build_rect_two_domain(4, 4, 0.5)
    dm = oracles.unconstrained_dofmap(m)
    xi = interpolate_vector(dm.displacement, (lambda x, y, t: x, lambda x, y, t: 0 * x))
    w = interpolate_scalar(dm.pressure_p, lambda x, y, t: 1.0 + 0 * x)
    cvol = div_pressure(dm.displacement, dm.pressure_p)
    # int_P w * div xi = area(poro) = 1/2
    assert xi @ (cvol @ w) == pytest.approx(0.5, rel=1e-13)


def test_interface_slip_matrices_against_direct_quadrature():
    m = build_rect_two_domain(8, 8, 0.5)
    params = PhysicalParams(beta_slip=1.7)
    blocks = assemble_system(m, params, convection=False)
    dm = blocks.dm
    rng = np.random.default_rng(12)
    for _ in range(5):
        uf = np.zeros(dm.velocity.ndof)
        uf[dm.velocity.free] = rng.standard_normal(dm.velocity.n_free)
        df = np.zeros(dm.displacement.ndof)
        df[dm.displacement.free] = rng.standard_normal(dm.displacement.n_free)
        alpha = uf[dm.velocity.free]
        theta = df[dm.displacement.free]
        quad = (alpha @ (blocks.slip_u @ alpha)
                - 2.0 * alpha @ (blocks.E @ theta)
                + theta @ (blocks.F @ theta))
        ref = oracles.interface_slip_energy(m, dm, uf, df, params.beta_slip)
        assert quad == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_interface_pressure_flux_matrix_against_direct_quadrature():
    m = build_rect_two_domain(8, 8, 0.5)
    params = PhysicalParams()
    blocks = assemble_system(m, params, convection=False)
    dm = blocks.dm
    rng = np.random.default_rng(21)
    for _ in range(5):
        uf = np.zeros(dm.velocity.ndof)
        uf[dm.velocity.free] = rng.standard_normal(dm.velocity.n_free)
        pf = np.zeros(dm.pressure_p.ndof)
        pf[dm.pressure_p.free] = rng.standard_normal(dm.pressure_p.n_free)
        alpha = uf[dm.velocity.free]
        gamma = pf[dm.pressure_p.free]
        quad = alpha @ (blocks.D @ gamma)
        ref = oracles.interface_pressure_flux(m, dm, uf, pf)
        assert quad == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_interface_cross_terms_cancel_in_energy_rate():
    m = build_rect_two_domain(8, 8, 0.5)
    blocks = assemble_system(m, PhysicalParams(), convection=False)
    rng = np.random.default_rng(3)
    for _ in range(20):
        alpha = rng.standard_normal(blocks.n_alpha)
        theta = rng.standard_normal(blocks.n_beta)
        gamma = rng.standard_normal(blocks.n_gamma)
        pressure_terms = alpha @ (blocks.D @ gamma) - gamma @ (blocks.D.T @ alpha)
        coupling_terms = theta @ (blocks.C @ gamma) - gamma @ (blocks.C.T @ theta)
        assert abs(pressure_terms) < 1e-12
        assert abs(coupling_terms) < 1e-12


def test_constant_load_vector_is_lumped_thirds():
    m = oracles.one_triangle_mesh([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    space = make_scalar_space(m, ElementKind.P1)
    load = load_volume(space, ONE, t=0.0)
    np.testing.assert_allclose(load, np.full(3, 1.0 / 3.0), rtol=1e-14)


def test_inlet_pressure_load_totals():
    m = build_rect_two_domain(4, 4, 0.5)
    V = make_vector_space(m, ElementKind.VECTOR_P2, meshmod.FLUID)
    inlet = m.facets_with_tag(meshmod.FLUID_INLET)
    tris = np.array([m.facet_tris[f][m.facet_tris[f] >= 0][0] for f in inlet])
    load = load_facet(V, inlet, tris, ONE, t=0.0)
    ns = V.scalar.ndof
    # n = (-1, 0) on the inlet, inlet length = 1/2
    assert load[:ns].sum() == pytest.approx(-0.5, rel=1e-13)
    assert abs(load[ns:]).max() < 1e-15


def test_facet_loads_against_direct_quadrature(monkeypatch):
    import fpsi.assembly as asm
    m = build_rect_two_domain(4, 4, 0.5)
    dm = oracles.unconstrained_dofmap(m)
    V, W, R = dm.velocity, dm.displacement, dm.pressure_p
    t = 0.3
    g = (parse_expression("sin(3*x)*cos(y + t)"),
         parse_expression("exp(x*y) - t"))
    S = ((parse_expression("cos(2*y) + x"), parse_expression("sin(x*y)")),
         (parse_expression("sin(x*y)"), parse_expression("exp(-x) * y")))

    def gdotv(x, y, t, n, v):
        return g[0](x, y, t) * v[:, 0] + g[1](x, y, t) * v[:, 1]

    def traction(x, y, t, n, v):
        return sum(S[a][b](x, y, t) * n[b] * v[:, a]
                   for a in range(2) for b in range(2))

    def normal_stress(x, y, t, n, v):
        snn = sum(n[a] * n[b] * S[a][b](x, y, t)
                  for a in range(2) for b in range(2))
        return snn * (v @ n)

    def flux(x, y, t, n, r):
        return (g[0](x, y, t) * n[0] + g[1](x, y, t) * n[1]) * r

    # the oracle's 12-point Gauss rule, so non-polynomial data agree to
    # round-off
    monkeypatch.setattr(asm, "LOAD_ORDER", 22)
    pext = m.facets_with_tag(meshmod.PORO_EXTERNAL)
    psol = m.facets_with_tag(meshmod.PORO_SOLID)
    pext_tris = _boundary_facet_tris(m, pext)
    cases = [
        (V, m.interface_facets, m.interface_fluid_tri, g, gdotv),
        (W, pext, pext_tris, S, traction),
        (R, psol, _boundary_facet_tris(m, psol), g, flux),
    ]
    rng = np.random.default_rng(5)
    for space, facets, tris, data, integrand in cases:
        vec = load_facet(space, facets, tris, data, t)
        for _ in range(3):
            coeffs = rng.standard_normal(space.ndof)
            ref = oracles.facet_functional(m, space, coeffs, facets, tris,
                                           integrand, t)
            assert coeffs @ vec == pytest.approx(ref, rel=1e-12)
    # the tangential displacement is fixed on the outer poroelastic sides,
    # so on free dofs the traction is its normal-normal part
    W = build_dofmaps(m).displacement
    vec = load_facet(W, pext, pext_tris, S, t)
    for _ in range(3):
        coeffs = np.zeros(W.ndof)
        coeffs[W.free] = rng.standard_normal(W.n_free)
        ref = oracles.facet_functional(m, W, coeffs, pext, pext_tris,
                                       normal_stress, t)
        assert coeffs[W.free] @ vec == pytest.approx(ref, rel=1e-12)


def test_facet_load_rejects_a_field_of_the_wrong_rank():
    m = build_rect_two_domain(4, 4, 0.5)
    dm = build_dofmaps(m)
    psol = m.facets_with_tag(meshmod.PORO_SOLID)
    tris = _boundary_facet_tris(m, psol)
    stress = ((ONE, X), (X, ONE))
    with pytest.raises(ValueError, match="rank-2 field"):
        load_facet(dm.pressure_p, psol, tris, stress, t=0.0)
    with pytest.raises(ValueError, match="rank-1 field"):
        load_volume(dm.pressure_p, (ONE, X), t=0.0)


def test_facet_loads_trace_once_per_mesh(monkeypatch):
    import fpsi.assembly as asm
    m = build_rect_two_domain(4, 4, 0.5)
    V = build_dofmaps(m).velocity
    inlet = m.facets_with_tag(meshmod.FLUID_INLET)
    tris = _boundary_facet_tris(m, inlet)
    p = parse_expression("cos(2*t) * (1 + y^2)")
    facet_trace, traced = asm.facet_trace, []

    def counted(*args):
        traced.append(args)
        return facet_trace(*args)
    monkeypatch.setattr(asm, "facet_trace", counted)
    times = (0.1, 0.7)
    loads = [load_facet(V, inlet, tris, p, t) for t in times]
    assert len(traced) == 1
    # the same load with the trace, basis and dofs rebuilt for each call
    for t, load in zip(times, loads):
        x, ref, wts, n = facet_trace(m, inlet, tris, asm.LOAD_ORDER)
        vals, _ = asm._trace_basis(V.kind, ref)
        pn = p(x[..., 0], x[..., 1], t)[..., None] * n[:, None, :]
        local = np.einsum("fq,fqik,fqk->fi", wts, vals, pn)
        dofs = asm._cell_dofs(V, tris)
        uncached = np.bincount(dofs.ravel(), weights=local.ravel(),
                               minlength=V.ndof)
        assert np.array_equal(load, uncached[V.free])
    assert not np.array_equal(loads[0], loads[1])


def test_triangle_outside_the_space_is_rejected():
    m = build_rect_two_domain(4, 4, 0.5)
    dm = build_dofmaps(m)
    fluid_tris = m.interface_fluid_tri
    with pytest.raises(ValueError, match="not in the space's subdomain"):
        facet_matrix(dm.velocity, dm.pressure_p, m.interface_facets,
                     fluid_tris, fluid_tris, m.interface_normals)
    with pytest.raises(ValueError, match="not in the space's subdomain"):
        load_facet(dm.displacement, m.interface_facets, fluid_tris,
                   (ONE, ONE), t=0.0)


def test_volume_load_resultant():
    m = build_rect_two_domain(4, 4, 0.5)
    V = make_vector_space(m, ElementKind.VECTOR_P2, meshmod.FLUID)
    load = load_volume(V, (Const(2.0), X), t=0.0)
    ns = V.scalar.ndof
    assert load[:ns].sum() == pytest.approx(2.0 * 0.5, rel=1e-13)
    assert load[ns:].sum() == pytest.approx(0.25, rel=1e-13)  # int_F x over y>1/2


def test_convection_jacobian_matches_finite_differences():
    m = build_rect_two_domain(4, 4, 0.5)
    for skew in (False, True):
        blocks = assemble_system(m, PhysicalParams(rho_f=1.3), convection=True,
                                 skew=skew)
        rng = np.random.default_rng(9 if skew else 8)
        alpha = rng.standard_normal(blocks.n_alpha)
        nl0, jac = blocks.convection(alpha, jac=True)
        h = 1e-6
        for _ in range(4):
            delta = rng.standard_normal(blocks.n_alpha)
            np_, _ = blocks.convection(alpha + h * delta)
            nm_, _ = blocks.convection(alpha - h * delta)
            fd = (np_ - nm_) / (2 * h)
            np.testing.assert_allclose(jac @ delta, fd, rtol=2e-7, atol=1e-8)


def test_convection_holds_int32_index_tables_and_no_data():
    blocks = assemble_system(build_rect_two_domain(4, 4, 0.5),
                             PhysicalParams(), convection=True)
    conv = blocks._convection
    for table in (conv.jac_slot, conv.indices, conv.indptr, conv.cell_dofs):
        assert table.dtype == np.int32
    nnz = len(conv.indices)
    assert not any(sp.issparse(v) or (isinstance(v, np.ndarray)
                                      and v.dtype.kind == "f" and v.size == nnz)
                   for v in vars(conv).values())
    _, jac = blocks.convection(np.ones(blocks.n_alpha), jac=True)
    assert jac.nnz == nnz
    assert np.shares_memory(jac.indices, conv.indices)


def test_trilinear_table_matches_symbolic_integration():
    table = _reference_table("trilinear", ElementKind.P2, ElementKind.P2)
    np.testing.assert_allclose(table, oracles.sympy_trilinear_table(),
                               rtol=0.0, atol=1e-16)


@pytest.mark.parametrize("skew", [False, True])
def test_convection_matches_quadrature_oracle(skew):
    for n in (4, 8):
        m = build_rect_two_domain(n, n, 0.5)
        blocks = assemble_system(m, PhysicalParams(rho_f=1.3),
                                 convection=True, skew=skew)
        alpha = np.random.default_rng(n).standard_normal(blocks.n_alpha)
        nl, jac = blocks.convection(alpha, jac=True)
        nl_ref, jac_ref = oracles.quadrature_convection(
            blocks.dm.velocity, 1.3, alpha, skew)
        assert np.abs(nl - nl_ref).max() < 1e-13 * np.abs(nl_ref).max()
        assert np.array_equal(jac.indptr, jac_ref.indptr)
        assert np.array_equal(jac.indices, jac_ref.indices)
        assert (np.abs(jac.data - jac_ref.data).max()
                < 1e-13 * np.abs(jac_ref.data).max())


def test_skew_form_is_energy_neutral_for_interior_fields():
    m = build_rect_two_domain(4, 4, 0.5)
    blocks = assemble_system(m, PhysicalParams(), convection=True, skew=True)
    V = blocks.dm.velocity
    ns = V.scalar.ndof
    coords = V.scalar.dof_coords
    interior = ((coords[:, 0] > 1e-12) & (coords[:, 0] < 1 - 1e-12)
                & (coords[:, 1] > 0.5 + 1e-12) & (coords[:, 1] < 1 - 1e-12))
    mask_full = np.concatenate([interior, interior])
    rng = np.random.default_rng(17)
    full = np.where(mask_full, rng.standard_normal(V.ndof), 0.0)
    alpha = full[V.free]
    nl, _ = blocks.convection(alpha)
    scale = max(1.0, np.abs(alpha) @ np.abs(nl))
    assert abs(alpha @ nl) < 1e-12 * scale


def test_parameter_validation():
    with pytest.raises(ParameterError):
        PhysicalParams(mu_f=0.0)
    with pytest.raises(ParameterError):
        PhysicalParams(rho_s=-1.0)
    with pytest.raises(ParameterError):
        PhysicalParams(K=np.array([[1.0, 0.9], [0.2, 1.0]]))
    with pytest.raises(ParameterError):
        PhysicalParams(K=np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ParameterError):
        PhysicalParams(K=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    p = PhysicalParams(K=2.5)
    np.testing.assert_allclose(p.K, 2.5 * np.eye(2))
    assert p.k_min == pytest.approx(2.5)
    aniso = PhysicalParams(K=np.array([[2.0, 0.5], [0.5, 1.0]]))
    evs = np.linalg.eigvalsh(np.array([[2.0, 0.5], [0.5, 1.0]]))
    assert aniso.k_min == pytest.approx(evs[0])


def test_problem_data_defaults_and_derivative():
    data = ProblemData(P_in=parse_expression("cos(2*t)"))
    assert data.f_f[0](0.3, 0.4, 0.5) == 0.0
    assert data.f_p(0.1, 0.2, 0.3) == 0.0
    ddata = data.time_derivative()
    assert ddata.P_in(0.0, 0.0, 0.25) == pytest.approx(-2 * np.sin(0.5))
    assert ddata.f_s[1](1.0, 1.0, 1.0) == 0.0


def test_zero_state_residual_matches_loads():
    m = build_rect_two_domain(4, 4, 0.5)
    blocks = assemble_system(m, PhysicalParams(), convection=True)
    data = ProblemData(f_f=(ONE, Y), f_p=X, P_in=ONE)
    loads = assemble_loads(0.0, data, blocks.dm)
    state = blocks.zero_state()
    rows, _, _ = _residual_rows(blocks, "euler", state, _pack(state), 0.01,
                                loads)
    np.testing.assert_allclose(rows[0], -loads[0])
    np.testing.assert_allclose(rows[2], -loads[2])
    np.testing.assert_allclose(rows[3], -loads[1])
    assert np.all(rows[1] == 0.0)
    assert np.all(rows[4] == 0.0)


def test_extra_loads_are_applied_where_stated():
    m = build_rect_two_domain(4, 4, 0.5)
    dm = build_dofmaps(m)
    extra = ExtraLoads(iface_darcy=ONE)
    data = ProblemData(extra=extra)
    _, _, c = assemble_loads(0.0, data, dm)
    # the same integral on an unconstrained pore space sums to the
    # interface length by partition of unity
    R0 = make_scalar_space(m, ElementKind.P2, meshmod.PORO)
    iface = m.interface_facets
    direct = load_facet(R0, iface, m.interface_poro_tri, ONE, t=0.0)
    assert direct.sum() == pytest.approx(1.0, rel=1e-12)
    # the constrained right-hand side is the restriction of that integral
    np.testing.assert_allclose(c, direct[dm.pressure_p.free], atol=1e-15)
    coords = dm.pressure_p.dof_coords[dm.pressure_p.free]
    touched = np.flatnonzero(np.abs(c) > 1e-14)
    assert np.all(np.abs(coords[touched, 1] - 0.5) < 0.26)


# ---------------------------------------------------------------------------
# the block system: solver blocks up front, the certificate's on first read
# ---------------------------------------------------------------------------

_CERTIFICATE_OPERATORS = ("mass_q", "stiff_u", "stiff_d", "stiff_p")


def _built(blocks):
    return set(_CERTIFICATE_OPERATORS) & set(vars(blocks))


def test_time_stepping_builds_no_certificate_operator():
    blocks = assemble_system(build_rect_two_domain(4, 4, 0.5),
                             PhysicalParams())
    traj = run(blocks, ProblemData(f_f=(1.0, X)),
               SchemeConfig(dt=0.05, t_final=0.1))
    assert np.abs(traj.state.alpha).max() > 0.0
    assert _built(blocks) == set()
    assert set(CERTIFICATE_OPERATORS) == set(_CERTIFICATE_OPERATORS)
    # one read builds all four
    blocks.stiff_d
    assert _built(blocks) == set(_CERTIFICATE_OPERATORS)
    # an H1 product is a mass plus a stiffness, not an operator of its own
    for name in ("h1_u", "h2_u"):
        with pytest.raises(AttributeError):
            getattr(blocks, name)


def test_first_certificate_read_scatters_each_lazy_operator_once(
        monkeypatch):
    # the forms the solver holds are not scattered again: the first read
    # scatters the four operators no solver term contains, one each
    import fpsi.assembly as asm
    blocks = assemble_system(build_rect_two_domain(4, 4, 0.5),
                             PhysicalParams())
    calls = []
    scatter = asm._scatter

    def counted(*args, **kwargs):
        calls.append(args)
        return scatter(*args, **kwargs)
    monkeypatch.setattr(asm, "_scatter", counted)
    blocks.mass_q
    assert len(calls) == 4
    for name in _CERTIFICATE_OPERATORS:
        getattr(blocks, name)
    assert len(calls) == 4
    assert _built(blocks) == set(_CERTIFICATE_OPERATORS)


_SETTINGS = {
    "default": ({}, {}),
    "skew": ({}, {"skew": True}),
    "no convection": ({}, {"convection": False}),
    "anisotropic K": ({"K": [[2.0, 0.3], [0.3, 1.0]], "rho_f": 1.3}, {}),
}


# on 6 x 10 (split 0.3) the mesh widths are not powers of two, so element
# sums are inexact in binary and a change of summation order shows
_MESHES = {4: (4, 4, 0.5), 8: (8, 8, 0.5), "6x10": (6, 10, 0.3)}


@pytest.mark.parametrize("setting", list(_SETTINGS))
@pytest.mark.parametrize("n", list(_MESHES))
def test_operators_equal_the_eager_assembly_bitwise(n, setting):
    # every operator is scattered on free dofs, and the four certificate
    # operators are built on first read; every one the system holds, or
    # builds, still equals the eager assembly of each form on all dofs,
    # sliced to the free dofs, bit for bit
    params, kwargs = _SETTINGS[setting]
    params = PhysicalParams(**params)
    mesh = build_rect_two_domain(*_MESHES[n])
    blocks = assemble_system(mesh, params, **kwargs)
    assert _built(blocks) == set()
    eager = oracles.eager_operators(mesh, params)
    held = {f.name for f in dataclasses.fields(blocks)
            if sp.issparse(getattr(blocks, f.name))}
    assert set(eager) == held | set(CERTIFICATE_OPERATORS)
    assert len(eager) == 16
    for name, expected in eager.items():
        got = getattr(blocks, name)
        assert (got.format, got.shape) == (expected.format, expected.shape)
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part),
                                  getattr(expected, part)), (name, part)


def test_pattern_sum_adds_every_term_on_the_widest_pattern():
    dm = build_dofmaps(build_rect_two_domain(4, 4, 0.5))
    W = dm.displacement
    m, stiff = mass(W), vector_symgrad(W)
    total = pattern_sum((2.0, m), (0.5, stiff))
    assert np.shares_memory(total.indices, stiff.indices)
    assert np.shares_memory(total.indptr, stiff.indptr)
    # two terms add in either order alike, so the union sum is bitwise
    union = sparse_sum(2.0 * m, 0.5 * stiff)
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(total, part), getattr(union, part))


def test_pattern_sum_rejects_a_term_outside_the_widest_pattern():
    eye = sp.csr_matrix(np.eye(3))
    with pytest.raises(ValueError, match="outside"):
        pattern_sum((1.0, eye), (1.0, sp.csr_matrix(np.fliplr(np.eye(3)))))
    # an entry past the pattern's last one
    with pytest.raises(ValueError, match="outside"):
        pattern_sum((1.0, sp.csr_matrix([[1.0, 1.0], [0.0, 0.0]])),
                    (1.0, sp.csr_matrix([[0.0, 0.0], [0.0, 1.0]])))


# ---------------------------------------------------------------------------
# loads from per-mesh tables of time factors times space loads
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("name", oracles.DATA_SETS)
def test_loads_match_the_per_time_oracle(n, name):
    data = oracles.data_set(name)
    dm = build_dofmaps(build_rect_two_domain(n, n, 0.5))
    for t in (0.0, 0.37, 1.3):
        loads = assemble_loads(t, data, dm)
        for load, expected in zip(loads, oracles.per_time_loads(t, data, dm)):
            assert np.abs(load - expected).max() \
                <= 1e-13 * np.abs(expected).max()


def test_a_later_load_evaluates_only_the_terms_that_mix_space_and_time(
        monkeypatch):
    import fpsi.assembly as asm
    dm = build_dofmaps(build_rect_two_domain(4, 4, 0.5))
    readme, space_time = map(oracles.data_set, ("readme", "space-time"))
    for data in (readme, space_time):
        assemble_loads(0.1, data, dm)
    calls = []

    def counted(name):
        kernel = getattr(asm, name)
        return lambda *args: calls.append(name) or kernel(*args)
    for name in ("load_volume", "load_facet"):
        monkeypatch.setattr(asm, name, counted(name))
    assemble_loads(0.2, readme, dm)
    assert calls == []
    # the three cell loads and the inlet load of the space-time data each
    # hold one term that does not separate
    assemble_loads(0.2, space_time, dm)
    assert sorted(calls) == ["load_facet"] + ["load_volume"] * 3


@pytest.mark.parametrize("name,kept", [("readme", False),
                                       ("space-time", True)])
def test_load_rules_are_dropped_once_every_term_separates(name, kept):
    # the table's rows are built on the load-order rules; only a term that
    # mixes space and time reads them again, at every step
    import fpsi.assembly as asm
    dm = build_dofmaps(build_rect_two_domain(4, 4, 0.5))
    assemble_loads(0.1, oracles.data_set(name), dm)
    orders = [key[-1] for cache in (asm._CELL_QUADRATURE,
                                    asm._FACET_QUADRATURE)
              for key in cache.get(dm.mesh, {})]
    assert (asm.LOAD_ORDER in orders) == kept


def test_reference_tables_reject_a_rule_one_degree_too_low(monkeypatch):
    # the 1/2520 grid alone passes five of these sums (the P1 x P1 mass and
    # trilinear, P1 x P2 and P2 x P1 grad and P2 x P2 gradgrad tables, all
    # of degree 2 on the centroid rule); the sum with the next higher rule
    # catches them
    import fpsi.assembly as asm
    rule = asm.triangle_rule
    P1, P2 = ElementKind.P1, ElementKind.P2
    tables = [(table, a, b) for table in asm._TABLE_FORM for a in (P1, P2)
              for b in (P1, P2)]
    monkeypatch.setattr(asm, "triangle_rule", lambda order: rule(order - 1))
    _reference_table.cache_clear()
    exact = []
    try:
        for table in tables:
            try:
                _reference_table(*table)
            except ValueError:
                continue
            exact.append(table)
    finally:
        monkeypatch.undo()
        _reference_table.cache_clear()
    # triangle_rule(3) is the 9-point rule of triangle_rule(4), so one
    # degree lower still sums the two degree-4 tables exactly
    assert np.array_equal(rule(3).points, rule(4).points)
    assert exact == [("mass", P2, P2), ("trilinear", P1, P2)]
    assert len(tables) - len(exact) == 14
