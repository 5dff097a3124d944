import csv
import json
import math

import numpy as np
import pytest

import oracles
from fpsi import io as fio
from fpsi.assembly import StateVector
from fpsi.constants import CONSTANT_KINDS, ConstantEstimate
from fpsi.fem import build_dofmaps
from fpsi.mesh import build_rect_two_domain
from fpsi.monitor import CertificateReport, CertificateRow
from fpsi.verify import ERROR_KEYS, RESIDUAL_KEYS, ConvergenceTable, LevelRun


@pytest.fixture(scope="module")
def mesh():
    return build_rect_two_domain(4, 4, 0.5)


@pytest.fixture(scope="module")
def dm(mesh):
    return build_dofmaps(mesh)


def _random_state(dm, seed=3):
    rng = np.random.default_rng(seed)
    return StateVector(
        t=0.25,
        alpha=rng.standard_normal(dm.velocity.n_free),
        beta=rng.standard_normal(dm.displacement.n_free),
        gamma=rng.standard_normal(dm.pressure_p.n_free),
        theta=rng.standard_normal(dm.displacement.n_free),
        pi=rng.standard_normal(dm.pressure_f.n_free),
    )


def _zero_state(dm):
    return StateVector(
        t=0.0,
        alpha=np.zeros(dm.velocity.n_free),
        beta=np.zeros(dm.displacement.n_free),
        gamma=np.zeros(dm.pressure_p.n_free),
        theta=np.zeros(dm.displacement.n_free),
        pi=np.zeros(dm.pressure_f.n_free),
    )


# ---------------------------------------------------------------------------
# constants table
# ---------------------------------------------------------------------------

def test_constants_round_trip(tmp_path):
    # the last estimate carries no method, as one read from a table
    methods = ["eigsh", "schur+eigh", "ascent"] * 3 + ["eigsh", "eigsh", ""]
    estimates = [ConstantEstimate(kind, 0.1 * (i + 1) * math.pi, 8, 100 + i,
                                  {"method": m} if m else {})
                 for i, (kind, m) in enumerate(zip(CONSTANT_KINDS, methods))]
    path = tmp_path / "constants.csv"
    fio.write_constants(path, estimates)
    back = fio.read_constants(path)
    assert [e.kind for e in back] == list(CONSTANT_KINDS)
    for orig, loaded in zip(estimates, back):
        assert loaded.value == orig.value  # repr() round-trips exactly
        assert loaded.mesh_level == orig.mesh_level
        assert loaded.dofs == orig.dofs
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0])[-3:] == ["method", "iterations", "curvature"]
    assert [row["method"] for row in rows] == methods
    assert {row["iterations"] for row in rows} == {""}
    assert {row["curvature"] for row in rows} == {""}


def test_constants_reader_rejects_foreign_tables(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="not a constants table"):
        fio.read_constants(path)


# ---------------------------------------------------------------------------
# certificate table
# ---------------------------------------------------------------------------

def _tiny_report():
    rows = [
        CertificateRow(n=0, t=0.0, energy=1.5),
        CertificateRow(n=1, t=0.5, energy=1.25, dissipation=0.5,
                       cum_dissipation=0.25, identity_defect=1e-16,
                       identity_ok=True, mb1_lhs=1.5, mb1_rhs=2.0,
                       mb1_ok=True, du_norm=0.1, dumbound_ok=True,
                       uniqueness_ok=False),
    ]
    return CertificateReport(rows=rows, summary={"identity_ok": True})


def test_certificate_round_trip(tmp_path):
    path = tmp_path / "certificate.csv"
    fio.write_certificate(path, _tiny_report())
    rows = oracles.read_table(path)
    assert len(rows) == 2
    assert rows[0]["n"] == 0
    assert rows[0]["identity_ok"] is None  # unset flag stays empty
    assert rows[1]["identity_ok"] is True
    assert rows[1]["uniqueness_ok"] is False
    assert rows[1]["energy"] == 1.25
    assert rows[1]["identity_defect"] == 1e-16
    assert math.isnan(rows[0]["dissipation"])


def test_certificate_bytes_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    fio.write_certificate(a, _tiny_report())
    fio.write_certificate(b, _tiny_report())
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# convergence table
# ---------------------------------------------------------------------------

def _fake_table():
    def level(n, scale):
        errors = {key: scale * (i + 1) for i, key in enumerate(ERROR_KEYS)}
        residuals = {key: scale for key in RESIDUAL_KEYS}
        return LevelRun(n=n, h=1.0 / n, dt=0.1 / n, n_steps=n,
                        newton_iterations=3, errors=errors,
                        residuals=residuals, dofs={"velocity": n * n})

    return ConvergenceTable(case_id="smooth-trig", scheme="midpoint",
                            t_final=0.1, runs=[level(8, 1.0), level(16, 0.25)])


def test_convergence_columns_and_rates(tmp_path):
    path = tmp_path / "convergence.csv"
    fio.write_convergence(path, _fake_table())
    rows = oracles.read_table(path)
    header = path.read_text().splitlines()[0].split(",")
    assert header[:4] == ["level", "h", "dt", "n_steps"]
    assert header[4:10] == ["e_uL2", "e_uH1", "e_pfL2", "e_etaH1",
                            "e_ppL2", "e_ppH1"]
    assert header[10:16] == ["rate_uL2", "rate_uH1", "rate_pfL2",
                             "rate_etaH1", "rate_ppL2", "rate_ppH1"]
    assert rows[0]["rate_uL2"] is None  # no rate on the coarsest level
    assert rows[1]["rate_uL2"] == pytest.approx(2.0)  # error ratio 4 per halving
    assert rows[1]["e_uL2"] == 0.25
    assert rows[0]["level"] == 8 and rows[1]["level"] == 16
    assert rows[1]["res_mass"] == 0.25


def test_format_convergence_mentions_rates():
    text = fio.format_convergence(_fake_table())
    assert "smooth-trig" in text
    assert "rate" in text
    assert "e_uL2" in text


# ---------------------------------------------------------------------------
# VTK emission
# ---------------------------------------------------------------------------

def _read_vtk(path):
    """Parse the emitted file back into plain arrays, section by section."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "# vtk DataFile Version 2.0"
    assert "downsampled" in lines[1]  # header documents midpoint-dof dropping
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    out = {}
    i = 4
    npts = int(lines[i].split()[1])
    out["points"] = np.array([[float(v) for v in lines[i + 1 + k].split()]
                              for k in range(npts)])
    i += 1 + npts
    ncells = int(lines[i].split()[1])
    out["cells"] = np.array([[int(v) for v in lines[i + 1 + k].split()[1:]]
                             for k in range(ncells)])
    i += 1 + ncells
    assert lines[i] == "CELL_TYPES %d" % ncells
    assert all(line == "5" for line in lines[i + 1:i + 1 + ncells])
    i += 1 + ncells
    assert lines[i] == "POINT_DATA %d" % npts
    i += 1
    while i < len(lines):
        head = lines[i].split()
        if head[0] == "VECTORS":
            out[head[1]] = np.array(
                [[float(v) for v in lines[i + 1 + k].split()]
                 for k in range(npts)])
            i += 1 + npts
        else:
            assert head[0] == "SCALARS" and head[3] == "1"
            assert lines[i + 1] == "LOOKUP_TABLE default"
            out[head[1]] = np.array([float(lines[i + 2 + k])
                                     for k in range(npts)])
            i += 2 + npts
    return out


def test_vtk_zero_state(tmp_path, mesh, dm):
    path = tmp_path / "zero.vtk"
    fio.emit_vtk(_zero_state(dm), dm, path)
    data = _read_vtk(path)
    assert data["points"].shape == (mesh.num_vertices, 3)
    assert np.array_equal(data["points"][:, :2], mesh.vertices)
    assert np.all(data["points"][:, 2] == 0.0)
    assert np.array_equal(data["cells"], mesh.triangles)
    for name in ("velocity", "fluid_pressure", "displacement",
                 "pore_pressure"):
        assert np.all(data[name] == 0.0)
        assert data[name].shape[0] == mesh.num_vertices


def test_vtk_values_and_padding(tmp_path, mesh, dm):
    state = _random_state(dm)
    path = tmp_path / "state.vtk"
    fio.emit_vtk(state, dm, path)
    data = _read_vtk(path)

    # velocity vanishes identically below the interface (zero padding), and
    # the displacement vanishes above it
    lower = mesh.vertices[:, 1] < 0.5 - 1e-12
    upper = mesh.vertices[:, 1] > 0.5 + 1e-12
    assert np.all(data["velocity"][lower] == 0.0)
    assert np.all(data["displacement"][upper] == 0.0)
    assert np.any(data["velocity"][upper] != 0.0)
    assert np.any(data["displacement"][lower] != 0.0)

    # spot-check one interior fluid vertex against the raw coefficients
    V = dm.velocity
    sc = V.scalar
    checked = 0
    for v in range(mesh.num_vertices):
        d = sc.vertex_dof[v]
        if d < 0:
            continue
        for comp in (0, 1):
            g = d + comp * sc.ndof
            pos = np.flatnonzero(V.free == g)
            expect = state.alpha[pos[0]] if len(pos) else 0.0
            assert data["velocity"][v, comp] == expect
            checked += 1
    assert checked > 20


def test_vtk_reemission_is_bit_identical(tmp_path, mesh, dm):
    state = _random_state(dm)
    a, b = tmp_path / "a.vtk", tmp_path / "b.vtk"
    fio.emit_vtk(state, dm, a)
    fio.emit_vtk(state, dm, b)
    assert a.read_bytes() == b.read_bytes()


def test_vtk_rejects_mismatched_state(tmp_path, mesh, dm):
    state = _zero_state(dm)
    state.alpha = np.zeros(len(state.alpha) + 1)
    with pytest.raises(ValueError, match="does not match mesh"):
        fio.emit_vtk(state, dm, tmp_path / "bad.vtk")


# ---------------------------------------------------------------------------
# digests and manifest
# ---------------------------------------------------------------------------

def test_mesh_digest_tracks_geometry(mesh):
    again = build_rect_two_domain(4, 4, 0.5)
    other = build_rect_two_domain(4, 4, 0.25)
    assert fio.mesh_digest(mesh) == fio.mesh_digest(again)
    assert fio.mesh_digest(mesh) != fio.mesh_digest(other)


def test_manifest_is_sorted_deterministic_json(tmp_path):
    entries = {"b": {"z": 1, "a": 2}, "a": [1, 2, 3]}
    path = tmp_path / "manifest.json"
    fio.write_manifest(path, entries)
    text = path.read_text()
    assert json.loads(text) == entries
    assert text.index('"a"') < text.index('"b"')
    fio.write_manifest(tmp_path / "again.json", entries)
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
