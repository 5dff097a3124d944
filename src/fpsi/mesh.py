"""Two-subdomain triangle meshes of the unit square.

The geometry is fixed: a free-flow region occupies the strip above
``y = split`` and a poroelastic region the strip below it.  Meshes carry a
tag per triangle (Fluid / Poro) and a tag per facet; the facet list
enumerates *every* edge of the triangulation exactly once, interior edges
included, so quadratic midpoint dofs can be keyed directly to it.

Boundary tag layout (outward boundary of the unit square):

* ``FluidInlet``    -- x = 0, above the interface
* ``FluidOutlet``   -- x = 1, above the interface
* ``FluidExternal`` -- y = 1
* ``Interface``     -- y = split (shared by one Fluid and one Poro triangle)
* ``PoroSolid``     -- y = 0
* ``PoroExternal``  -- x = 0 or x = 1, below the interface

Interface normals point from the Fluid triangle into the Poro one and are
recomputed on construction (the file format does not store them).

Connectivity comes from one edge table, ``_edge_table``: every edge is
keyed by its sorted vertex pair, the facets' keys are made unique with
``np.unique`` (first occurrences are the facets, the rest duplicates), a
triangle's three edges are found among them with ``searchsorted``, and a
stable sort of the (triangle, local edge) incidences by facet gives each
facet's triangles.  The constructor keeps what a defective mesh leaves in
that table, and :func:`validate` checks it with array masks.  The
structured generator builds its arrays by index arithmetic.
"""

from __future__ import annotations

import numpy as np

MESH_FORMAT_HEADER = "fsimesh 1"

TRIANGLE_TAG_NAMES = ("Fluid", "Poro")
FLUID, PORO = 0, 1

FACET_TAG_NAMES = (
    "FluidInlet",
    "FluidOutlet",
    "FluidExternal",
    "Interface",
    "PoroSolid",
    "PoroExternal",
    "InteriorFluid",
    "InteriorPoro",
)
(FLUID_INLET, FLUID_OUTLET, FLUID_EXTERNAL, INTERFACE,
 PORO_SOLID, PORO_EXTERNAL, INTERIOR_FLUID, INTERIOR_PORO) = range(8)

BOUNDARY_TAGS_FLUID = (FLUID_INLET, FLUID_OUTLET, FLUID_EXTERNAL)
BOUNDARY_TAGS_PORO = (PORO_SOLID, PORO_EXTERNAL)

_TRI_TAG_CODE = {name: code for code, name in enumerate(TRIANGLE_TAG_NAMES)}
_FACET_TAG_CODE = {name: code for code, name in enumerate(FACET_TAG_NAMES)}

_LOCAL_EDGES = np.array([(0, 1), (1, 2), (2, 0)])


def _edge_table(triangles, facets, num_vertices):
    """The edge table: ``tri_facets`` (nt, 3), the facet of each local edge
    or -1; ``facet_tris`` (ne, 2), a facet's first two triangles in
    (triangle, local edge) order or -1; the duplicate facets, ascending;
    and the ``(facet, triangle)`` incidences past a facet's second, in
    incidence order.  An edge's key is ``low * num_vertices + high``."""
    def key(pairs):
        return pairs.min(axis=-1) * num_vertices + pairs.max(axis=-1)

    keys, first = np.unique(key(facets), return_index=True)
    duplicates = np.setdiff1d(np.arange(len(facets)), first)
    edges = key(triangles[:, _LOCAL_EDGES])
    slot = np.searchsorted(keys, edges)
    # a sentinel past the end stands for "no such facet"
    found = np.append(keys, -1)[slot] == edges
    tri_facets = np.where(found, np.append(first, -1)[slot], -1)

    flat = tri_facets.ravel()
    incidence = np.flatnonzero(flat >= 0)
    incidence = incidence[np.argsort(flat[incidence], kind="stable")]
    facet = flat[incidence]
    rank = np.arange(len(facet)) - np.searchsorted(facet, facet)
    facet_tris = np.full((len(facets), 2), -1, dtype=int)
    kept = rank < 2
    facet_tris[facet[kept], rank[kept]] = incidence[kept] // 3
    over = np.sort(incidence[~kept])
    return (tri_facets, facet_tris, duplicates,
            np.column_stack([flat[over], over // 3]))


class MeshFormatError(ValueError):
    """Raised when a mesh file does not follow the ASCII format or
    describes a mesh that :func:`validate` rejects."""


class Mesh:
    """Immutable triangle mesh with subdomain and facet tags.

    Parameters
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array
        Vertex indices; valid meshes orient every triangle counterclockwise.
    tri_tags : (nt,) int array
        ``FLUID`` or ``PORO`` per triangle.
    facets : (ne, 2) int array
        Vertex index pairs; must enumerate every triangulation edge once.
    facet_tags : (ne,) int array

    Derived connectivity (triangle -> facet map ``tri_facets``, facet ->
    triangle map ``facet_tris``, interface sides and orientation) is
    computed here; semantic problems are tolerated so :func:`validate` can
    report them: ``duplicate_facets`` lists the facets that repeat an
    earlier edge and ``extra_adjacency`` the ``(facet, triangle)`` pairs
    past a facet's second triangle.
    """

    def __init__(self, vertices, triangles, tri_tags, facets, facet_tags):
        self.vertices = np.array(vertices, dtype=float)
        self.triangles = np.array(triangles, dtype=int)
        self.tri_tags = np.array(tri_tags, dtype=int)
        self.facets = np.array(facets, dtype=int)
        self.facet_tags = np.array(facet_tags, dtype=int)

        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be an (nv, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must be an (nt, 3) array")
        if self.facets.ndim != 2 or self.facets.shape[1] != 2:
            raise ValueError("facets must be an (ne, 2) array")
        if self.tri_tags.shape != (self.triangles.shape[0],):
            raise ValueError("tri_tags length mismatch")
        if self.facet_tags.shape != (self.facets.shape[0],):
            raise ValueError("facet_tags length mismatch")
        if self.triangles.size and (self.triangles.min() < 0
                                    or self.triangles.max() >= len(self.vertices)):
            raise ValueError("triangle vertex index out of range")
        if self.facets.size and (self.facets.min() < 0
                                 or self.facets.max() >= len(self.vertices)):
            raise ValueError("facet vertex index out of range")

        self._build_connectivity()
        for arr in (self.vertices, self.triangles, self.tri_tags, self.facets,
                    self.facet_tags, self.tri_facets, self.facet_tris,
                    self.duplicate_facets, self.extra_adjacency):
            arr.setflags(write=False)

    # -- construction of derived connectivity -------------------------------

    def _build_connectivity(self):
        (self.tri_facets, self.facet_tris, self.duplicate_facets,
         self.extra_adjacency) = _edge_table(
            self.triangles, self.facets, len(self.vertices))

        # the sides of an interface facet: the first Fluid and the first
        # Poro triangle of its two adjacency columns, -1 where there is none
        iface = np.flatnonzero(self.facet_tags == INTERFACE)
        self.interface_facets = iface
        sides = self.facet_tris[iface]
        tags = np.append(self.tri_tags, -1)[sides]
        self.interface_fluid_tri, self.interface_poro_tri = (
            np.where(tags[:, 0] == sub, sides[:, 0],
                     np.where(tags[:, 1] == sub, sides[:, 1], -1))
            for sub in (FLUID, PORO))
        self.interface_normals = np.full((len(iface), 2), np.nan)
        has_fluid = self.interface_fluid_tri >= 0
        self.interface_normals[has_fluid] = self.facet_normals(
            iface[has_fluid], self.interface_fluid_tri[has_fluid])
        self.interface_normals.setflags(write=False)

    # -- basic queries -------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    @property
    def num_facets(self):
        return len(self.facets)

    def triangles_with_tag(self, tag):
        return np.flatnonzero(self.tri_tags == tag)

    def facets_with_tag(self, tag):
        return np.flatnonzero(self.facet_tags == tag)

    def signed_areas(self):
        p = self.vertices[self.triangles]
        return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                      - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))

    def facet_normals(self, facets, triangles):
        """Unit normals of ``facets`` pointing out of the matching ``triangles``."""
        ends = self.vertices[self.facets[np.asarray(facets, dtype=int)]]
        e = ends[:, 1] - ends[:, 0]
        n = np.column_stack([e[:, 1], -e[:, 0]])
        n /= np.hypot(n[:, 0], n[:, 1])[:, None]
        tri = self.triangles[np.asarray(triangles, dtype=int)]
        centroid = self.vertices[tri].mean(axis=1)
        mid = 0.5 * (ends[:, 0] + ends[:, 1])
        inward = np.einsum("fk,fk->f", n, mid - centroid) < 0.0
        n[inward] = -n[inward]
        return n


def build_rect_two_domain(nx, ny, split):
    """Structured mesh of the unit square with the interface at ``y = split``.

    Each of the ``nx * ny`` grid cells is cut along its lower-left to
    upper-right diagonal into two counterclockwise triangles.  ``split * ny``
    must be an integer so the interface coincides with a grid line.

    Parameters
    ----------
    nx, ny : int
        Cells per direction; ``nx >= 1`` and ``ny >= 2``.
    split : float
        Interface height in (0, 1).

    Returns
    -------
    Mesh
    """
    nx, ny = int(nx), int(ny)
    if nx < 1 or ny < 2:
        raise ValueError("need nx >= 1 and ny >= 2")
    if not (0.0 < split < 1.0):
        raise ValueError("split must lie strictly inside (0, 1)")
    j_if = int(round(split * ny))
    if abs(split * ny - j_if) > 1e-9 or not (1 <= j_if <= ny - 1):
        raise ValueError("split * ny must be an integer interior row, got %r * %d"
                         % (split, ny))

    # vid[j, i] is the vertex at (i / nx, j / ny); cells, rows and columns
    # are numbered with i running fastest
    vid = np.arange((nx + 1) * (ny + 1)).reshape(ny + 1, nx + 1)
    xv, yv = np.meshgrid(np.arange(nx + 1) / nx, np.arange(ny + 1) / ny)
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    a, b = vid[:-1, :-1], vid[:-1, 1:]
    c, d = vid[1:, 1:], vid[1:, :-1]
    triangles = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    below = np.arange(ny) < j_if  # per row of cells
    tri_tags = np.repeat(np.where(below, PORO, FLUID), 2 * nx)

    interior = np.where(below, INTERIOR_PORO, INTERIOR_FLUID)
    rows = np.append(interior, FLUID_EXTERNAL)
    rows[[0, j_if]] = PORO_SOLID, INTERFACE
    columns = np.tile(interior, (nx + 1, 1))
    columns[0] = np.where(below, PORO_EXTERNAL, FLUID_INLET)
    columns[nx] = np.where(below, PORO_EXTERNAL, FLUID_OUTLET)
    facets = np.concatenate([
        np.column_stack([vid[:, :-1].ravel(), vid[:, 1:].ravel()]),
        np.column_stack([vid[:-1].T.ravel(), vid[1:].T.ravel()]),
        np.column_stack([a.ravel(), c.ravel()])])
    facet_tags = np.concatenate([np.repeat(rows, nx), columns.ravel(),
                                 np.repeat(interior, nx)])

    return Mesh(vertices, triangles, tri_tags, facets, facet_tags)


def validate(mesh):
    """Check the structural invariants; return a list of violation strings.

    An empty list means the mesh is valid: positive triangle orientation,
    every edge listed exactly once with a tag consistent with its adjacency
    (interior / boundary / interface), interface facets shared by exactly one
    Fluid and one Poro triangle, and interface normals pointing out of the
    Fluid side.
    """
    problems = []

    if not np.all(np.isfinite(mesh.vertices)):
        problems.append("non-finite vertex coordinates")

    areas = mesh.signed_areas()
    for c in np.flatnonzero(areas <= 0.0):
        problems.append("triangle %d has non-positive area %g" % (c, areas[c]))

    used = np.zeros(mesh.num_vertices, dtype=bool)
    used[mesh.triangles.ravel()] = True
    for v in np.flatnonzero(~used):
        problems.append("vertex %d belongs to no triangle" % v)

    for f in mesh.duplicate_facets:
        problems.append("facet %d duplicates an earlier facet" % f)
    for f, c in mesh.extra_adjacency:
        problems.append("facet %d touches more than two triangles (e.g. triangle %d)"
                        % (f, c))

    missing = np.flatnonzero(mesh.tri_facets.min(axis=1) < 0)
    for c in missing:
        problems.append("triangle %d has an edge missing from the facet list" % c)

    # each facet's tag against its adjacency: the boundary group of its one
    # triangle's subdomain, Interface between Fluid and Poro, or the
    # interior tag of the subdomain on both sides
    tag = mesh.facet_tags
    first, second = mesh.facet_tris.T
    sub = np.append(mesh.tri_tags, -1)
    low = np.minimum(sub[first], sub[second])
    mixed = (low == FLUID) & (np.maximum(sub[first], sub[second]) == PORO)
    expected = np.where(low == FLUID, INTERIOR_FLUID, INTERIOR_PORO)
    ok = np.where(
        second >= 0, np.where(mixed, tag == INTERFACE, tag == expected),
        (first >= 0) & np.where(sub[first] == FLUID,
                                np.isin(tag, BOUNDARY_TAGS_FLUID),
                                np.isin(tag, BOUNDARY_TAGS_PORO)))
    for f in np.flatnonzero(~ok):
        if first[f] < 0:
            problems.append("facet %d is not an edge of any triangle" % f)
        elif second[f] < 0:
            problems.append(
                "boundary facet %d of a %s triangle carries tag %s"
                % (f, TRIANGLE_TAG_NAMES[sub[first[f]]],
                   FACET_TAG_NAMES[tag[f]]))
        elif mixed[f]:
            problems.append(
                "facet %d separates Fluid from Poro but carries tag %s"
                % (f, FACET_TAG_NAMES[tag[f]]))
        elif tag[f] == INTERFACE:
            problems.append("interface facet %d is not shared by one Fluid "
                            "and one Poro triangle" % f)
        else:
            problems.append(
                "interior facet %d carries tag %s, expected %s"
                % (f, FACET_TAG_NAMES[tag[f]], FACET_TAG_NAMES[expected[f]]))

    # the normal out of the Poro triangle must oppose the one out of the
    # Fluid triangle, i.e. the two lie on opposite sides of the facet
    paired = (mesh.interface_fluid_tri >= 0) & (mesh.interface_poro_tri >= 0)
    out_of_poro = mesh.facet_normals(mesh.interface_facets[paired],
                                     mesh.interface_poro_tri[paired])
    folded = ~np.all(np.abs(out_of_poro + mesh.interface_normals[paired])
                     <= 1e-12, axis=1)
    for f in mesh.interface_facets[paired][folded]:
        problems.append("interface facet %d has its Fluid and Poro triangles "
                        "on the same side" % f)

    return problems


# ---------------------------------------------------------------------------
# ASCII file format
# ---------------------------------------------------------------------------

def write_mesh(mesh, path):
    """Write ``mesh`` in the ASCII format (full-precision coordinates)."""
    with open(path, "w") as fh:
        fh.write(MESH_FORMAT_HEADER + "\n")
        fh.write("vertices %d\n" % mesh.num_vertices)
        for x, y in mesh.vertices:
            fh.write("%s %s\n" % (repr(float(x)), repr(float(y))))
        fh.write("triangles %d\n" % mesh.num_triangles)
        for tri, tag in zip(mesh.triangles, mesh.tri_tags):
            fh.write("%d %d %d %s\n" % (tri[0], tri[1], tri[2], TRIANGLE_TAG_NAMES[tag]))
        fh.write("facets %d\n" % mesh.num_facets)
        for (a, b), tag in zip(mesh.facets, mesh.facet_tags):
            fh.write("%d %d %s\n" % (a, b, FACET_TAG_NAMES[tag]))


class _LineReader:
    def __init__(self, path):
        with open(path) as fh:
            self.raw = fh.readlines()
        self.pos = 0

    def next_content(self):
        while self.pos < len(self.raw):
            lineno = self.pos + 1
            line = self.raw[self.pos].split("#", 1)[0].strip()
            self.pos += 1
            if line:
                return lineno, line
        return None, None


def read_mesh(path):
    """Read a mesh written by :func:`write_mesh`.

    Raises
    ------
    MeshFormatError
        With the offending line number for any malformed content.
    """
    reader = _LineReader(path)

    lineno, line = reader.next_content()
    if line is None or line != MESH_FORMAT_HEADER:
        raise MeshFormatError("line %s: expected header %r, found %r"
                              % (lineno or 1, MESH_FORMAT_HEADER, line))

    def section(name):
        lineno, line = reader.next_content()
        if line is None:
            raise MeshFormatError("unexpected end of file, expected %r section" % name)
        parts = line.split()
        if len(parts) != 2 or parts[0] != name:
            raise MeshFormatError("line %d: expected %r section header, found %r"
                                  % (lineno, name, line))
        try:
            count = int(parts[1])
        except ValueError:
            raise MeshFormatError("line %d: bad count %r" % (lineno, parts[1])) from None
        if count < 0:
            raise MeshFormatError("line %d: negative count" % lineno)
        return count

    nv = section("vertices")
    vertices = np.empty((nv, 2))
    for k in range(nv):
        lineno, line = reader.next_content()
        if line is None:
            raise MeshFormatError("unexpected end of file inside vertices")
        parts = line.split()
        if len(parts) != 2:
            raise MeshFormatError("line %d: expected two coordinates" % lineno)
        try:
            vertices[k] = [float(parts[0]), float(parts[1])]
        except ValueError:
            raise MeshFormatError("line %d: bad coordinate in %r" % (lineno, line)) from None

    nt = section("triangles")
    triangles = np.empty((nt, 3), dtype=int)
    tri_tags = np.empty(nt, dtype=int)
    for k in range(nt):
        lineno, line = reader.next_content()
        if line is None:
            raise MeshFormatError("unexpected end of file inside triangles")
        parts = line.split()
        if len(parts) != 4:
            raise MeshFormatError("line %d: expected 'i j k subdomain'" % lineno)
        try:
            triangles[k] = [int(parts[0]), int(parts[1]), int(parts[2])]
        except ValueError:
            raise MeshFormatError("line %d: bad vertex index in %r" % (lineno, line)) from None
        if parts[3] not in _TRI_TAG_CODE:
            raise MeshFormatError("line %d: unknown subdomain tag %r" % (lineno, parts[3]))
        tri_tags[k] = _TRI_TAG_CODE[parts[3]]

    ne = section("facets")
    facets = np.empty((ne, 2), dtype=int)
    facet_tags = np.empty(ne, dtype=int)
    for k in range(ne):
        lineno, line = reader.next_content()
        if line is None:
            raise MeshFormatError("unexpected end of file inside facets")
        parts = line.split()
        if len(parts) != 3:
            raise MeshFormatError("line %d: expected 'i j tag'" % lineno)
        try:
            facets[k] = [int(parts[0]), int(parts[1])]
        except ValueError:
            raise MeshFormatError("line %d: bad vertex index in %r" % (lineno, line)) from None
        if parts[2] not in _FACET_TAG_CODE:
            raise MeshFormatError("line %d: unknown facet tag %r" % (lineno, parts[2]))
        facet_tags[k] = _FACET_TAG_CODE[parts[2]]

    lineno, line = reader.next_content()
    if line is not None:
        raise MeshFormatError("line %d: unexpected trailing content %r" % (lineno, line))

    try:
        return Mesh(vertices, triangles, tri_tags, facets, facet_tags)
    except ValueError as exc:
        raise MeshFormatError(str(exc)) from None
