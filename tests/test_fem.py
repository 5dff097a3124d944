import math

import numpy as np
import pytest

import oracles
from fpsi import mesh as meshmod
from fpsi.fem import (
    ElementKind,
    basis_eval,
    build_dofmaps,
    interpolate_scalar,
    interpolate_vector,
    interval_rule,
    make_scalar_space,
    make_vector_space,
    triangle_rule,
)
from fpsi.mesh import build_rect_two_domain


def _random_ref_points(rng, n):
    a = rng.uniform(0.0, 1.0, size=(n, 2))
    flip = a.sum(axis=1) > 1.0
    a[flip] = 1.0 - a[flip]
    return a


def test_partition_of_unity():
    rng = np.random.default_rng(1)
    pts = _random_ref_points(rng, 40)
    for kind in (ElementKind.P1, ElementKind.P2):
        vals, grads = basis_eval(kind, pts)
        np.testing.assert_allclose(vals.sum(axis=1), 1.0, atol=1e-13)
        np.testing.assert_allclose(grads.sum(axis=1), 0.0, atol=1e-12)


def test_p2_nodal_property():
    nodes = np.array([
        [0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
        [0.5, 0.0], [0.5, 0.5], [0.0, 0.5],
    ])
    vals, _ = basis_eval(ElementKind.P2, nodes)
    np.testing.assert_allclose(vals, np.eye(6), atol=1e-14)


def test_p1_nodal_property():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    vals, _ = basis_eval(ElementKind.P1, nodes)
    np.testing.assert_allclose(vals, np.eye(3), atol=1e-14)


def test_vector_basis_is_component_blocked():
    pts = np.array([[0.25, 0.3]])
    vals, grads = basis_eval(ElementKind.VECTOR_P2, pts)
    assert vals.shape == (1, 12, 2)
    assert grads.shape == (1, 12, 2, 2)
    svals, sgrads = basis_eval(ElementKind.P2, pts)
    np.testing.assert_allclose(vals[0, :6, 0], svals[0])
    np.testing.assert_allclose(vals[0, :6, 1], 0.0)
    np.testing.assert_allclose(vals[0, 6:, 1], svals[0])
    np.testing.assert_allclose(vals[0, 6:, 0], 0.0)
    np.testing.assert_allclose(grads[0, 6:, 1], sgrads[0])


def _exact_monomial_integral(a, b):
    # int over reference triangle of x^a y^b = a! b! / (a + b + 2)!
    return (math.factorial(a) * math.factorial(b)
            / math.factorial(a + b + 2))


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6, 8, 10])
def test_triangle_rule_is_exact_to_its_order(order):
    rule = triangle_rule(order)
    assert np.all(rule.weights > 0.0)
    assert rule.weights.sum() == pytest.approx(0.5, rel=1e-14)
    for a in range(order + 1):
        for b in range(order + 1 - a):
            val = (rule.weights
                   * rule.points[:, 0] ** a * rule.points[:, 1] ** b).sum()
            assert val == pytest.approx(_exact_monomial_integral(a, b),
                                        rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 11])
def test_interval_rule_is_exact_to_its_order(order):
    pts, wts = interval_rule(order)
    assert np.all(wts > 0.0)
    for k in range(order + 1):
        val = (wts * pts ** k).sum()
        assert val == pytest.approx(1.0 / (k + 1), rel=1e-13)


def test_quadrature_rejects_bad_order():
    with pytest.raises(ValueError):
        triangle_rule(0)
    with pytest.raises(ValueError):
        interval_rule(0)


def test_scalar_space_reproduces_quadratics():
    m = build_rect_two_domain(3, 4, 0.5)
    space = make_scalar_space(m, ElementKind.P2, meshmod.FLUID)

    def f(x, y, t=0.0):
        return 1.0 + 2.0 * x - y + x * y + 0.5 * x ** 2 - 3.0 * y ** 2

    coeffs = interpolate_scalar(space, f)
    rng = np.random.default_rng(5)
    pts = _random_ref_points(rng, 6)
    vals, _ = basis_eval(ElementKind.P2, pts)
    for row, tri in enumerate(space.tri_ids[:10]):
        dofs = space.cell_dofs[row]
        tri_pts = m.vertices[m.triangles[tri]]
        phys = (pts @ np.vstack([tri_pts[1] - tri_pts[0],
                                 tri_pts[2] - tri_pts[0]]) + tri_pts[0])
        approx = vals @ coeffs[dofs]
        exact = f(phys[:, 0], phys[:, 1])
        np.testing.assert_allclose(approx, exact, rtol=1e-12, atol=1e-12)


def test_dof_counts_on_reference_mesh():
    m = build_rect_two_domain(4, 4, 0.5)
    dm = build_dofmaps(m)
    counts = dm.counts()
    assert counts["velocity"] == (90, 72)
    assert counts["pressure_f"] == (15, 15)
    assert counts["displacement"] == (90, 64)
    assert counts["pressure_p"] == (45, 35)


def test_free_index_is_int32_and_numbers_the_free_dofs():
    dm = build_dofmaps(build_rect_two_domain(4, 4, 0.5))
    for space in (dm.velocity, dm.pressure_f, dm.displacement,
                  dm.pressure_p):
        assert space.free_index.dtype == np.int32
        np.testing.assert_array_equal(space.free_index[space.free],
                                      np.arange(len(space.free)))
        assert (space.free_index[space.fixed] == -1).all()


def test_velocity_constraints_sit_on_top_boundary():
    m = build_rect_two_domain(4, 4, 0.5)
    dm = build_dofmaps(m)
    V = dm.velocity
    fixed_scalar = np.flatnonzero(V.fixed[:V.scalar.ndof])
    coords = V.scalar.dof_coords[fixed_scalar]
    np.testing.assert_allclose(coords[:, 1], 1.0, atol=1e-14)
    # both components fixed identically
    np.testing.assert_array_equal(V.fixed[:V.scalar.ndof],
                                  V.fixed[V.scalar.ndof:])


def test_displacement_constraints():
    m = build_rect_two_domain(4, 4, 0.5)
    dm = build_dofmaps(m)
    W = dm.displacement
    ns = W.scalar.ndof
    coords = W.scalar.dof_coords
    fixed_x = W.fixed[:ns]
    fixed_y = W.fixed[ns:]
    bottom = np.abs(coords[:, 1]) < 1e-14
    sides = (np.abs(coords[:, 0]) < 1e-14) | (np.abs(coords[:, 0] - 1.0) < 1e-14)
    # bottom clamps both components
    assert np.all(fixed_x[bottom])
    assert np.all(fixed_y[bottom])
    # vertical sides clamp only the tangential (y) component
    assert np.all(fixed_y[sides])
    assert not np.any(fixed_x[sides & ~bottom])
    # nothing else is fixed
    assert not np.any(fixed_x[~(bottom | sides)])
    assert not np.any(fixed_y[~(bottom | sides)])


def test_pore_pressure_constraints_on_sides():
    m = build_rect_two_domain(4, 4, 0.5)
    dm = build_dofmaps(m)
    R = dm.pressure_p
    coords = R.dof_coords[R.fixed]
    assert np.all((np.abs(coords[:, 0]) < 1e-14)
                  | (np.abs(coords[:, 0] - 1.0) < 1e-14))
    assert np.all(coords[:, 1] <= 0.5 + 1e-14)


def test_facet_dofs_on_interface():
    m = build_rect_two_domain(4, 4, 0.5)
    dm = build_dofmaps(m)
    iface = m.facets_with_tag(meshmod.INTERFACE)
    vd = dm.velocity.scalar.facet_dofs(iface)
    coords = dm.velocity.scalar.dof_coords[vd]
    np.testing.assert_allclose(coords[:, 1], 0.5, atol=1e-14)
    assert len(vd) == 2 * 4 + 1  # vertices plus midpoints along the interface


@pytest.mark.parametrize("source", ["n2", "n8", "file"])
def test_facet_dofs_match_a_per_facet_loop(source, tmp_path):
    """Every space's dofs on every facet tag, and so every constraint set,
    against the facet-by-facet loop, on a mesh read from a file too."""
    if source == "file":
        path = str(tmp_path / "m.mesh")
        meshmod.write_mesh(build_rect_two_domain(5, 4, 0.25), path)
        m = meshmod.read_mesh(path)
    else:
        n = int(source[1:])
        m = build_rect_two_domain(n, n, 0.5)
    dm = build_dofmaps(m)
    for space in (dm.velocity.scalar, dm.pressure_f, dm.displacement.scalar,
                  dm.pressure_p):
        for tag in range(len(meshmod.FACET_TAG_NAMES)):
            ids = m.facets_with_tag(tag)
            np.testing.assert_array_equal(space.tagged_dofs(tag),
                                          oracles.loop_facet_dofs(space, ids))
        for f in m.facets_with_tag(meshmod.INTERFACE)[:3]:
            np.testing.assert_array_equal(
                space.facet_dofs([f]), oracles.loop_facet_dofs(space, [f]))


def test_tangential_constraint_requires_axis_aligned_facets():
    m = build_rect_two_domain(2, 2, 0.5)
    with pytest.raises(NotImplementedError):
        make_vector_space(m, ElementKind.VECTOR_P2, meshmod.PORO,
                          tangential_zero_tags=(meshmod.INTERIOR_PORO,))


def test_interpolate_vector_blocks_components():
    m = build_rect_two_domain(2, 2, 0.5)
    dm = build_dofmaps(m)
    V = dm.velocity
    coeffs = interpolate_vector(V, (lambda x, y, t: x, lambda x, y, t: 2 * y))
    ns = V.scalar.ndof
    np.testing.assert_allclose(coeffs[:ns], V.scalar.dof_coords[:, 0])
    np.testing.assert_allclose(coeffs[ns:], 2 * V.scalar.dof_coords[:, 1])
