import numpy as np
import pytest

import oracles
from fpsi import mesh as meshmod
from fpsi.mesh import (
    FLUID,
    FLUID_EXTERNAL,
    FLUID_INLET,
    FLUID_OUTLET,
    INTERFACE,
    INTERIOR_FLUID,
    INTERIOR_PORO,
    PORO,
    PORO_EXTERNAL,
    PORO_SOLID,
    Mesh,
    MeshFormatError,
    build_rect_two_domain,
    read_mesh,
    validate,
    write_mesh,
)


def test_structured_mesh_counts():
    for nx, ny in [(1, 2), (4, 4), (5, 8), (8, 6)]:
        m = build_rect_two_domain(nx, ny, 0.5 if ny % 2 == 0 else 1.0 / ny)
        assert m.num_vertices == (nx + 1) * (ny + 1)
        assert m.num_triangles == 2 * nx * ny
        assert m.num_facets == (ny + 1) * nx + (nx + 1) * ny + nx * ny
        assert validate(m) == []


def test_subdomains_split_at_interface_height():
    m = build_rect_two_domain(4, 8, 0.25)
    centroids = m.vertices[m.triangles].mean(axis=1)
    fluid = m.triangles_with_tag(FLUID)
    poro = m.triangles_with_tag(PORO)
    assert np.all(centroids[fluid, 1] > 0.25)
    assert np.all(centroids[poro, 1] < 0.25)
    assert len(fluid) == 2 * 4 * 6
    assert len(poro) == 2 * 4 * 2


def test_boundary_tags_lie_on_their_boundaries():
    m = build_rect_two_domain(3, 4, 0.5)
    mids = 0.5 * (m.vertices[m.facets[:, 0]] + m.vertices[m.facets[:, 1]])
    checks = [
        (FLUID_INLET, lambda p: p[0] == 0.0 and p[1] > 0.5),
        (FLUID_OUTLET, lambda p: p[0] == 1.0 and p[1] > 0.5),
        (FLUID_EXTERNAL, lambda p: p[1] == 1.0),
        (PORO_SOLID, lambda p: p[1] == 0.0),
        (PORO_EXTERNAL, lambda p: p[0] in (0.0, 1.0) and p[1] < 0.5),
        (INTERFACE, lambda p: p[1] == 0.5),
    ]
    for tag, ok in checks:
        ids = m.facets_with_tag(tag)
        assert len(ids) > 0
        assert all(ok(mids[f]) for f in ids)
    assert len(m.facets_with_tag(INTERFACE)) == 3


def test_areas_and_orientation():
    m = build_rect_two_domain(5, 6, 0.5)
    areas = m.signed_areas()
    assert np.all(areas > 0.0)
    assert areas.sum() == pytest.approx(1.0, rel=1e-14)


def test_facet_normals_unit_and_outward():
    m = build_rect_two_domain(3, 4, 0.5)
    rng = np.random.default_rng(0)
    facets = rng.choice(m.num_facets, size=20, replace=False)
    tris = m.facet_tris[facets, 0]
    normals = m.facet_normals(facets, tris)
    np.testing.assert_allclose(np.hypot(*normals.T), 1.0, rtol=1e-14)
    mid = m.vertices[m.facets[facets]].mean(axis=1)
    centroid = m.vertices[m.triangles[tris]].mean(axis=1)
    assert np.all(np.einsum("fk,fk->f", normals, mid - centroid) > 0.0)


def test_interface_orientation_points_into_poro_side():
    m = build_rect_two_domain(4, 4, 0.5)
    assert len(m.interface_facets) == 4
    assert np.all(m.interface_fluid_tri >= 0)
    assert np.all(m.interface_poro_tri >= 0)
    np.testing.assert_allclose(m.interface_normals,
                               np.tile([0.0, -1.0], (4, 1)), atol=1e-14)
    assert np.all(m.tri_tags[m.interface_fluid_tri] == FLUID)
    assert np.all(m.tri_tags[m.interface_poro_tri] == PORO)


def test_validate_flags_a_poro_triangle_folded_onto_the_fluid_side(tmp_path):
    m = build_rect_two_domain(1, 2, 0.5)
    vertices = m.vertices.copy()
    vertices[0] = (0.3, 0.8)
    tris = m.triangles.copy()
    tris[1] = (0, 2, 3)
    folded = Mesh(vertices, tris, m.tri_tags, m.facets, m.facet_tags)
    assert np.all(folded.signed_areas() > 0.0)
    f = folded.interface_facets[0]
    assert validate(folded) == [
        "interface facet %d has its Fluid and Poro triangles on the same side"
        % f]

    # interior vertices moved off the grid, through a file: still valid
    m = build_rect_two_domain(4, 4, 0.5)
    vertices = m.vertices.copy()
    inner = np.flatnonzero((vertices > 0.0).all(axis=1)
                           & (vertices < 1.0).all(axis=1))
    vertices[inner] += np.random.default_rng(2).uniform(-0.05, 0.05,
                                                        (len(inner), 2))
    path = tmp_path / "perturbed.mesh"
    write_mesh(Mesh(vertices, m.triangles, m.tri_tags, m.facets,
                    m.facet_tags), path)
    assert validate(read_mesh(path)) == []


@pytest.mark.parametrize("nx,ny,split", [
    (0, 4, 0.5),
    (4, 1, 0.5),
    (4, 4, 0.3),
    (4, 4, 0.0),
    (4, 4, 1.0),
    (4, 2, 0.95),
])
def test_builder_rejects_bad_arguments(nx, ny, split):
    with pytest.raises(ValueError):
        build_rect_two_domain(nx, ny, split)


def test_validate_flags_constructed_defects():
    m = build_rect_two_domain(2, 2, 0.5)

    # duplicate facet
    facets = np.vstack([m.facets, m.facets[0]])
    tags = np.append(m.facet_tags, m.facet_tags[0])
    bad = Mesh(m.vertices, m.triangles, m.tri_tags, facets, tags)
    assert any("duplicates" in p for p in validate(bad))

    # a boundary facet with a tag from the wrong subdomain group
    tags = m.facet_tags.copy()
    f = m.facets_with_tag(PORO_SOLID)[0]
    tags[f] = FLUID_EXTERNAL
    bad = Mesh(m.vertices, m.triangles, m.tri_tags, m.facets, tags)
    assert any("boundary facet" in p for p in validate(bad))

    # interface tag on an interior fluid facet
    tags = m.facet_tags.copy()
    f = m.facets_with_tag(meshmod.INTERIOR_FLUID)[0]
    tags[f] = INTERFACE
    bad = Mesh(m.vertices, m.triangles, m.tri_tags, m.facets, tags)
    assert any("not shared by one Fluid and one Poro" in p for p in validate(bad))

    # flipped triangle
    tris = m.triangles.copy()
    tris[0] = tris[0][::-1]
    bad = Mesh(m.vertices, tris, m.tri_tags, m.facets, m.facet_tags)
    assert any("non-positive area" in p for p in validate(bad))

    # missing facet
    keep = np.arange(1, m.num_facets)
    bad = Mesh(m.vertices, m.triangles, m.tri_tags, m.facets[keep],
               m.facet_tags[keep])
    assert any("missing from the facet list" in p for p in validate(bad))


def _defective(name):
    """A 2 x 4 mesh with one constructed defect."""
    m = build_rect_two_domain(2, 4, 0.5)
    arrays = dict(vertices=m.vertices, triangles=m.triangles,
                  tri_tags=m.tri_tags, facets=m.facets,
                  facet_tags=m.facet_tags)

    def retag(tag, new):
        tags = m.facet_tags.copy()
        tags[m.facets_with_tag(tag)[0]] = new
        return dict(facet_tags=tags)

    if name == "non-finite vertex":
        vertices = m.vertices.copy()
        vertices[13] = (np.nan, 1.0)
        arrays.update(vertices=vertices)
    elif name == "flipped triangle":
        tris = m.triangles.copy()
        tris[3] = tris[3][::-1]
        arrays.update(triangles=tris)
    elif name == "unused vertex":
        arrays.update(vertices=np.vstack([m.vertices, [0.5, 0.5]]))
    elif name == "reversed duplicate facet":
        arrays.update(facets=np.vstack([m.facets, m.facets[7][::-1]]),
                      facet_tags=np.append(m.facet_tags, m.facet_tags[7]))
    elif name == "facet of three triangles":
        arrays.update(triangles=np.vstack([m.triangles, m.triangles[5]]),
                      tri_tags=np.append(m.tri_tags, m.tri_tags[5]))
    elif name == "missing facet":
        keep = np.delete(np.arange(m.num_facets), 9)
        arrays.update(facets=m.facets[keep], facet_tags=m.facet_tags[keep])
    elif name == "facet of no triangle":
        arrays.update(facets=np.vstack([m.facets, [1, 3]]),
                      facet_tags=np.append(m.facet_tags, INTERIOR_PORO))
    elif name == "boundary tag of the other subdomain":
        arrays.update(retag(PORO_SOLID, FLUID_EXTERNAL))
    elif name == "untagged interface":
        arrays.update(retag(INTERFACE, INTERIOR_FLUID))
    elif name == "interface tag inside the fluid":
        arrays.update(retag(INTERIOR_FLUID, INTERFACE))
    elif name == "interior tag of the other subdomain":
        arrays.update(retag(INTERIOR_FLUID, INTERIOR_PORO))
    elif name == "repeated vertex":
        tris = m.triangles.copy()
        tris[2] = (tris[2][0], tris[2][0], tris[2][1])
        arrays.update(triangles=tris)
    else:
        raise KeyError(name)
    return Mesh(**arrays)


# recorded from the facet-by-facet implementation of validate
_DEFECT_MESSAGES = {
    "non-finite vertex": ["non-finite vertex coordinates"],
    "flipped triangle": ["triangle 3 has non-positive area -0.0625"],
    "unused vertex": ["vertex 15 belongs to no triangle"],
    "reversed duplicate facet": [
        "facet 30 duplicates an earlier facet",
        "facet 30 is not an edge of any triangle"],
    "facet of three triangles": [
        "facet 24 touches more than two triangles (e.g. triangle 16)",
        "facet 4 touches more than two triangles (e.g. triangle 16)",
        "interior facet 11 carries tag PoroExternal, expected InteriorPoro"],
    "missing facet": [
        "triangle 15 has an edge missing from the facet list"],
    "facet of no triangle": ["facet 30 is not an edge of any triangle"],
    "boundary tag of the other subdomain": [
        "boundary facet 0 of a Poro triangle carries tag FluidExternal"],
    "untagged interface": [
        "facet 4 separates Fluid from Poro but carries tag InteriorFluid"],
    "interface tag inside the fluid": [
        "interface facet 6 is not shared by one Fluid and one Poro triangle"],
    "interior tag of the other subdomain": [
        "interior facet 6 carries tag InteriorPoro, expected InteriorFluid"],
    "repeated vertex": [
        "triangle 2 has non-positive area 0",
        "triangle 2 has an edge missing from the facet list",
        "interior facet 1 carries tag PoroSolid, expected InteriorPoro",
        "facet 18 is not an edge of any triangle",
        "boundary facet 23 of a Poro triangle carries tag InteriorPoro"],
}


@pytest.mark.parametrize("name", sorted(_DEFECT_MESSAGES))
def test_validate_reports_each_defect_exactly(name):
    assert validate(_defective(name)) == _DEFECT_MESSAGES[name]


# the unknown tag is reported alone: the facets of a triangle with one, and
# a facet with one, are left out of the adjacency checks
@pytest.mark.parametrize("array,index,tag,message", [
    ("tri_tags", 0, 2, "triangle 0 carries unknown subdomain tag 2"),
    # -1 is also the "no triangle" entry of the edge table
    ("tri_tags", 0, -1, "triangle 0 carries unknown subdomain tag -1"),
    ("facet_tags", 0, 9, "facet 0 carries unknown tag 9"),
    # a Fluid triangle on the inlet, a boundary facet, and on the interface
    ("tri_tags", 7, 2, "triangle 7 carries unknown subdomain tag 2"),
    ("tri_tags", 4, -1, "triangle 4 carries unknown subdomain tag -1"),
], ids=["triangle tag 2", "triangle tag -1", "facet tag 9",
        "fluid triangle tag 2", "fluid triangle tag -1"])
def test_validate_reports_unknown_tags(array, index, tag, message):
    m = build_rect_two_domain(2, 2, 0.5)
    arrays = dict(vertices=m.vertices, triangles=m.triangles,
                  tri_tags=m.tri_tags.copy(), facets=m.facets,
                  facet_tags=m.facet_tags.copy())
    arrays[array][index] = tag
    assert validate(Mesh(**arrays)) == [message]


_GRIDS = [(1, 2, 0.5), (5, 8, 0.25), (16, 16, 0.5), (15, 20, 0.35)]


@pytest.mark.parametrize("nx,ny,split", _GRIDS)
def test_generator_matches_the_loop_oracle_bitwise(nx, ny, split):
    m = build_rect_two_domain(nx, ny, split)
    names = ("vertices", "triangles", "tri_tags", "facets", "facet_tags")
    for name, ref in zip(names, oracles.loop_rect_two_domain(nx, ny, split)):
        got = getattr(m, name)
        assert got.dtype == ref.dtype and got.shape == ref.shape, name
        assert got.tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("case", _GRIDS + [
    "reversed duplicate facet", "repeated vertex",
    "facet of three triangles", "missing facet"], ids=str)
def test_edge_table_matches_the_loop_oracle(case):
    m = (_defective(case) if isinstance(case, str)
         else build_rect_two_domain(*case))
    got = (m.tri_facets, m.facet_tris, m.duplicate_facets, m.extra_adjacency,
           m.interface_fluid_tri, m.interface_poro_tri)
    for a, b in zip(got, oracles.loop_connectivity(m)):
        assert a.shape == b.shape
        np.testing.assert_array_equal(a, b)


def test_constructor_rejects_malformed_arrays():
    m = build_rect_two_domain(2, 2, 0.5)
    with pytest.raises(ValueError):
        Mesh(m.vertices[:, :1], m.triangles, m.tri_tags, m.facets, m.facet_tags)
    with pytest.raises(ValueError):
        Mesh(m.vertices, m.triangles[:, :2], m.tri_tags, m.facets, m.facet_tags)
    with pytest.raises(ValueError):
        Mesh(m.vertices, m.triangles + 100, m.tri_tags, m.facets, m.facet_tags)
    with pytest.raises(ValueError):
        Mesh(m.vertices, m.triangles, m.tri_tags[:-1], m.facets, m.facet_tags)


def test_roundtrip_preserves_everything(tmp_path):
    m = build_rect_two_domain(3, 6, 1.0 / 3.0)
    path = tmp_path / "mesh.txt"
    write_mesh(m, path)
    m2 = read_mesh(path)
    np.testing.assert_array_equal(m.vertices, m2.vertices)
    np.testing.assert_array_equal(m.triangles, m2.triangles)
    np.testing.assert_array_equal(m.tri_tags, m2.tri_tags)
    np.testing.assert_array_equal(m.facets, m2.facets)
    np.testing.assert_array_equal(m.facet_tags, m2.facet_tags)
    assert validate(m2) == []


def test_read_accepts_comments_and_blank_lines(tmp_path):
    m = build_rect_two_domain(2, 2, 0.5)
    path = tmp_path / "mesh.txt"
    write_mesh(m, path)
    text = path.read_text().splitlines()
    text.insert(1, "# a comment")
    text.insert(3, "")
    path.write_text("\n".join(text) + "\n")
    m2 = read_mesh(path)
    np.testing.assert_array_equal(m.triangles, m2.triangles)


@pytest.mark.parametrize("mutate,needle", [
    (lambda lines: ["bogus 9"] + lines[1:], "header"),
    (lambda lines: lines[:3], "end of file"),
    (lambda lines: [lines[0], "vertices x"] + lines[2:], "bad count"),
    (lambda lines: [lines[0], lines[1], "0.0"] + lines[3:], "two coordinates"),
    (lambda lines: [lines[0], lines[1], "0.0 nope"] + lines[3:], "bad coordinate"),
])
def test_read_reports_malformed_files(tmp_path, mutate, needle):
    m = build_rect_two_domain(2, 2, 0.5)
    path = tmp_path / "mesh.txt"
    write_mesh(m, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(mutate(lines)) + "\n")
    with pytest.raises(MeshFormatError) as err:
        read_mesh(path)
    assert needle in str(err.value)


def test_read_reports_unknown_tags(tmp_path):
    m = build_rect_two_domain(2, 2, 0.5)
    path = tmp_path / "mesh.txt"
    write_mesh(m, path)
    text = path.read_text().replace("PoroSolid", "Bedrock", 1)
    path.write_text(text)
    with pytest.raises(MeshFormatError) as err:
        read_mesh(path)
    assert "Bedrock" in str(err.value)


def test_read_rejects_trailing_content(tmp_path):
    m = build_rect_two_domain(2, 2, 0.5)
    path = tmp_path / "mesh.txt"
    write_mesh(m, path)
    with open(path, "a") as fh:
        fh.write("extra stuff\n")
    with pytest.raises(MeshFormatError):
        read_mesh(path)


# lines of the 2 x 2 file: the header, "vertices 9" at index 1 and its rows
# at 2..10, "triangles 8" at 11 and its rows at 12..19, "facets 16" at 20
# and its rows at 21..36
def _line(index, text):
    return lambda lines: lines[:index] + [text] + lines[index + 1:]


# one fault per file and its message, recorded from the reader that wrote
# one row loop per section
_FILE_FAULTS = {
    "empty file": (
        lambda lines: [], "line 1: expected header 'fsimesh 1', found None"),
    "only comments": (
        lambda lines: ["# nothing", "", "  # here"],
        "line 1: expected header 'fsimesh 1', found None"),
    "wrong header": (
        _line(0, "fsimesh 2"),
        "line 1: expected header 'fsimesh 1', found 'fsimesh 2'"),
    "no vertices section": (
        lambda lines: lines[:1],
        "unexpected end of file, expected 'vertices' section"),
    "wrong section name": (
        _line(1, "points 9"),
        "line 2: expected 'vertices' section header, found 'points 9'"),
    "section header of three fields": (
        _line(1, "vertices 9 2"),
        "line 2: expected 'vertices' section header, found 'vertices 9 2'"),
    "bad count": (_line(1, "vertices x"), "line 2: bad count 'x'"),
    "negative count": (_line(1, "vertices -1"), "line 2: negative count"),
    "vertex of one coordinate": (
        _line(2, "0.0"), "line 3: expected two coordinates"),
    "vertex of three coordinates": (
        _line(3, "0.5 0.0 0.0"), "line 4: expected two coordinates"),
    "bad coordinate": (
        _line(4, "1.0 nope"), "line 5: bad coordinate in '1.0 nope'"),
    "end inside vertices": (
        lambda lines: lines[:5], "unexpected end of file inside vertices"),
    "too few vertices counted": (
        _line(1, "vertices 8"),
        "line 11: expected 'triangles' section header, found '1.0 1.0'"),
    "no triangles section": (
        lambda lines: lines[:11],
        "unexpected end of file, expected 'triangles' section"),
    "triangles header without count": (
        _line(11, "triangles"),
        "line 12: expected 'triangles' section header, found 'triangles'"),
    "triangle of three fields": (
        _line(12, "0 1 4"), "line 13: expected 'i j k subdomain'"),
    "triangle of five fields": (
        _line(13, "0 4 3 Fluid Poro"), "line 14: expected 'i j k subdomain'"),
    "bad vertex index in a triangle": (
        _line(14, "1 2 x Poro"), "line 15: bad vertex index in '1 2 x Poro'"),
    "fractional vertex index": (
        _line(15, "1 5.0 4 Poro"),
        "line 16: bad vertex index in '1 5.0 4 Poro'"),
    "unknown subdomain tag": (
        _line(16, "3 4 7 Rock"), "line 17: unknown subdomain tag 'Rock'"),
    "end inside triangles": (
        lambda lines: lines[:15], "unexpected end of file inside triangles"),
    "too many triangles counted": (
        _line(11, "triangles 9"), "line 21: expected 'i j k subdomain'"),
    "no facets section": (
        lambda lines: lines[:20],
        "unexpected end of file, expected 'facets' section"),
    "bad facet count": (_line(20, "facets 16.0"), "line 21: bad count '16.0'"),
    "facet of two fields": (_line(21, "0 1"), "line 22: expected 'i j tag'"),
    "facet of four fields": (
        _line(22, "1 2 PoroSolid PoroSolid"), "line 23: expected 'i j tag'"),
    "bad vertex index in a facet": (
        _line(23, "six 7 FluidExternal"),
        "line 24: bad vertex index in 'six 7 FluidExternal'"),
    "unknown facet tag": (
        _line(24, "7 8 Bedrock"), "line 25: unknown facet tag 'Bedrock'"),
    "end inside facets": (
        lambda lines: lines[:30], "unexpected end of file inside facets"),
    "trailing content": (
        lambda lines: lines + ["extra stuff"],
        "line 38: unexpected trailing content 'extra stuff'"),
    "triangle vertex out of range": (
        _line(12, "0 1 9 Poro"), "triangle vertex index out of range"),
    "negative triangle vertex": (
        _line(12, "-1 1 4 Poro"), "triangle vertex index out of range"),
    "facet vertex out of range": (
        _line(21, "0 10 PoroSolid"), "facet vertex index out of range"),
    # an index past int64 was an uncaught OverflowError
    "vertex index past int64": (
        _line(12, "0 1 99999999999999999999 Poro"),
        "line 13: bad vertex index in '0 1 99999999999999999999 Poro'"),
    # a count past numpy's largest dimension, and one that numpy could not
    # allocate, were uncaught ValueErrors; the second is read as an early
    # end of file, with no more rows allocated than the file has lines
    "count past the largest array": (
        _line(1, "vertices 99999999999999999999"),
        "line 2: count 99999999999999999999 is too large"),
    "count past the rows that follow": (
        _line(20, "facets %d" % 2 ** 62),
        "unexpected end of file inside facets"),
}


@pytest.mark.parametrize("name", sorted(_FILE_FAULTS))
def test_read_fault_message_is_exact(tmp_path, name):
    mutate, message = _FILE_FAULTS[name]
    path = tmp_path / "mesh.txt"
    write_mesh(build_rect_two_domain(2, 2, 0.5), path)
    lines = path.read_text().splitlines()
    assert lines[1] == "vertices 9" and lines[11] == "triangles 8"
    assert lines[20] == "facets 16" and len(lines) == 37
    path.write_text("".join(line + "\n" for line in mutate(lines)))
    with pytest.raises(MeshFormatError) as err:
        read_mesh(path)
    assert str(err.value) == message
