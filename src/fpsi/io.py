"""Result serialization: CSV tables, legacy VTK output and run manifests.

Every writer is deterministic: fixed column orders, shortest round-trip
float formatting, newline-terminated lines, no timestamps.  Re-emitting the
same object produces byte-identical files.
"""

import csv
import hashlib
import json
import math

import numpy as np

from .constants import KIND_DESCRIPTIONS, ConstantEstimate
from .verify import ERROR_KEYS, RESIDUAL_KEYS

# convergence-table CSV columns per error norm, in table order
ERROR_COLUMNS = {
    "vel_l2": "e_uL2",
    "vel_h1": "e_uH1",
    "pf_l2": "e_pfL2",
    "disp_h1": "e_etaH1",
    "pore_l2": "e_ppL2",
    "pore_h1": "e_ppH1",
}

RESIDUAL_COLUMNS = {
    "mass": "res_mass",
    "normal_stress": "res_normal_stress",
    "bjs": "res_bjs",
    "stress_continuity": "res_stress_continuity",
}


def _fmt(value):
    """Deterministic cell formatting with exact float round-trip."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if hasattr(value, "item"):  # numpy scalar
        return _fmt(value.item())
    return str(value)


# ---------------------------------------------------------------------------
# constants table
# ---------------------------------------------------------------------------

def write_constants(path, estimates):
    """Write estimates as CSV, ``meta`` columns blank where a kind has none."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["kind", "value", "mesh_level", "dofs", "description",
                         "method", "iterations", "curvature"])
        for est in estimates:
            writer.writerow([est.kind, _fmt(float(est.value)),
                             est.mesh_level, est.dofs,
                             KIND_DESCRIPTIONS[est.kind]]
                            + [_fmt(est.meta.get(key)) for key in
                               ("method", "best_iterations", "curvature")])


def read_constants(path):
    """Read a constants CSV back into :class:`ConstantEstimate` objects.

    Raises ``ValueError`` for a file without the table's header and for a
    row that does not give a known kind, a value, a level and a dof count.
    """
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, [])[:4] != ["kind", "value", "mesh_level", "dofs"]:
            raise ValueError("%s: not a constants table" % path)
        for row in reader:
            try:
                if len(row) < 4:
                    raise ValueError("expected kind, value, mesh_level, dofs")
                out.append(ConstantEstimate(
                    kind=row[0], value=float(row[1]),
                    mesh_level=int(row[2]), dofs=int(row[3])))
            except ValueError as exc:
                raise ValueError("%s: line %d: %s"
                                 % (path, reader.line_num, exc)) from None
    return out


# ---------------------------------------------------------------------------
# convergence table
# ---------------------------------------------------------------------------

def write_convergence(path, table):
    """Write a :class:`fpsi.verify.ConvergenceTable` as CSV.

    Columns: level, h, dt, n_steps, one error column per norm, the observed
    rate columns (empty on the first level) and the interface residual
    norms.
    """
    rates = table.rates()
    header = (["level", "h", "dt", "n_steps"]
              + [ERROR_COLUMNS[k] for k in ERROR_KEYS]
              + ["rate_" + ERROR_COLUMNS[k][2:] for k in ERROR_KEYS]
              + [RESIDUAL_COLUMNS[k] for k in RESIDUAL_KEYS])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i, run in enumerate(table.runs):
            row = [run.n, _fmt(run.h), _fmt(run.dt), run.n_steps]
            row += [_fmt(run.errors[k]) for k in ERROR_KEYS]
            row += ["" if i == 0 else _fmt(rates[k][i - 1])
                    for k in ERROR_KEYS]
            row += [_fmt(run.residuals[k]) for k in RESIDUAL_KEYS]
            writer.writerow(row)


def format_convergence(table):
    """Human-readable summary of a convergence table."""
    lines = ["case %s, scheme %s, T = %s" % (table.case_id, table.scheme,
                                             _fmt(table.t_final))]
    rates = table.rates()
    for i, run in enumerate(table.runs):
        lines.append("  n = %3d  dt = %-10.4g  " % (run.n, run.dt)
                     + "  ".join("%s = %-10.3e" % (ERROR_COLUMNS[k],
                                                   run.errors[k])
                                 for k in ERROR_KEYS))
        if i > 0:
            lines.append("           rates:      "
                         + "  ".join("%s -> %-8.2f" % (ERROR_COLUMNS[k],
                                                       rates[k][i - 1])
                                     for k in ERROR_KEYS))
    flags = table.rate_flags()
    lines.append("  rate targets met: "
                 + ", ".join("%s=%s" % (ERROR_COLUMNS[k], flags[k])
                             for k in ERROR_KEYS))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# certificate table
# ---------------------------------------------------------------------------

def write_certificate(path, report):
    """Write the columns of a certificate report as CSV, one row per step.

    A column that starts after step 0 reads ``nan`` before its first step
    if it holds floats, and is empty there if it holds flags or counts.
    """
    columns = report.columns
    steps = max(map(len, columns.values()))
    cells = [[math.nan if v.dtype.kind == "f" else None] * (steps - len(v))
             + v.tolist() for v in columns.values()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(map(_fmt, row) for row in zip(*cells))


def write_summary(path, summary):
    """Write a summary dict as deterministic JSON."""
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# legacy VTK output
# ---------------------------------------------------------------------------

def emit_vtk(state, dm, path):
    """Write the state's fields on the dof maps ``dm`` as a legacy ASCII
    unstructured-grid file.

    Point data arrays: ``velocity`` (zero outside the fluid), then
    ``fluid_pressure``, ``displacement`` (zero outside the poroelastic
    layer) and ``pore_pressure``.  Quadratic fields are downsampled to
    vertex values; edge-midpoint dofs are dropped, as noted in the file
    title line.  Output is byte-deterministic for a fixed state.
    """
    mesh = dm.mesh
    counts = {
        "velocity": (state.alpha, dm.velocity),
        "displacement": (state.beta, dm.displacement),
        "pore_pressure": (state.gamma, dm.pressure_p),
        "fluid_pressure": (state.pi, dm.pressure_f),
    }
    for name, (vec, space) in counts.items():
        if len(vec) != space.n_free:
            raise ValueError(
                "state does not match mesh: %s has %d free dofs, state "
                "carries %d" % (name, space.n_free, len(vec)))

    def at_vertices(space, free_vals, vertex_dof, offset=0):
        full = np.append(free_vals, 0.0)[space.free_index]
        out = np.zeros(mesh.num_vertices)
        on = vertex_dof >= 0
        out[on] = full[vertex_dof[on] + offset]
        return out.tolist()

    def vertex_vector(space, free_vals):
        sc = space.scalar
        return zip(*(at_vertices(space, free_vals, sc.vertex_dof, c * sc.ndof)
                     for c in (0, 1)))

    vel = vertex_vector(dm.velocity, state.alpha)
    pf = at_vertices(dm.pressure_f, state.pi, dm.pressure_f.vertex_dof)
    disp = vertex_vector(dm.displacement, state.beta)
    pp = at_vertices(dm.pressure_p, state.gamma, dm.pressure_p.vertex_dof)

    lines = [
        "# vtk DataFile Version 2.0",
        "coupled flow/poroelastic fields; quadratic dofs downsampled to "
        "vertices (edge midpoints dropped)",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        "POINTS %d double" % mesh.num_vertices,
    ]
    lines += ["%s %s 0" % (_fmt(float(x)), _fmt(float(y)))
              for x, y in mesh.vertices]
    lines.append("CELLS %d %d" % (mesh.num_triangles, 4 * mesh.num_triangles))
    lines += ["3 %d %d %d" % tuple(tri) for tri in mesh.triangles]
    lines.append("CELL_TYPES %d" % mesh.num_triangles)
    lines += ["5"] * mesh.num_triangles
    lines.append("POINT_DATA %d" % mesh.num_vertices)
    lines.append("VECTORS velocity double")
    lines += ["%s %s 0" % (_fmt(a), _fmt(b)) for a, b in vel]
    lines.append("SCALARS fluid_pressure double 1")
    lines.append("LOOKUP_TABLE default")
    lines += [_fmt(v) for v in pf]
    lines.append("VECTORS displacement double")
    lines += ["%s %s 0" % (_fmt(a), _fmt(b)) for a, b in disp]
    lines.append("SCALARS pore_pressure double 1")
    lines.append("LOOKUP_TABLE default")
    lines += [_fmt(v) for v in pp]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# digests and manifest
# ---------------------------------------------------------------------------

def mesh_digest(mesh):
    """SHA-256 over the mesh's defining arrays."""
    h = hashlib.sha256()
    for arr in (mesh.vertices, mesh.triangles, mesh.tri_tags,
                mesh.facets, mesh.facet_tags):
        h.update(arr.tobytes())
    return h.hexdigest()


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def write_manifest(path, entries):
    """Write the run manifest (hashes, provenance, versions) as JSON."""
    with open(path, "w") as fh:
        json.dump(entries, fh, indent=2, sort_keys=True)
        fh.write("\n")
