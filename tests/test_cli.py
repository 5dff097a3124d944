import json
import math
import re

import numpy as np
import pytest

from fpsi import cli, constants as cst, io as fio
from fpsi.cli import ConfigError, RunConfig, main, parse_config
from fpsi.constants import CONSTANT_KINDS, ConstantEstimate
from fpsi.mesh import build_rect_two_domain, write_mesh
from fpsi.verify import ERROR_KEYS, RESIDUAL_KEYS, ConvergenceTable, LevelRun, StudyError


def _config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_empty_config_gives_documented_defaults(tmp_path):
    cfg = parse_config(_config(tmp_path, "# nothing but comments\n\n"))
    assert isinstance(cfg, RunConfig)
    assert (cfg.nx, cfg.ny, cfg.split) == (8, 8, 0.5)
    assert cfg.mesh_file is None
    assert cfg.params.mu_f == 1.0
    assert np.array_equal(cfg.params.K, np.eye(2))
    assert cfg.scheme.scheme == "euler"
    assert cfg.output_dir == "out"
    assert cfg.constants_table is None
    assert cfg.skew_symmetric_convection is False
    assert cfg.emit_vtk is True
    assert cfg.emit_certificate is True
    # default data is identically zero
    assert cfg.data.f_p(0.3, 0.7, 2.0) == 0.0
    assert cfg.data.f_f[1](0.3, 0.7, 2.0) == 0.0


def test_full_config_round_trip(tmp_path):
    cfg = parse_config(_config(tmp_path, """
[mesh]
nx = 6
ny = 4
split = 0.25

[params]
rho_f = 2.0
mu_f = 0.5
k11 = 2.0
k12 = 0.5
k22 = 3.0

[data]
f_f_x = sin(pi*x)*t
f_f_y = 0
f_p = x*y
scale = 2.0

[scheme]
scheme = midpoint
dt = 0.025
t_final = 0.3
newton_max = 12

[run]
output_dir = results
skew_symmetric_convection = yes
emit_vtk = off
"""))
    assert (cfg.nx, cfg.ny, cfg.split) == (6, 4, 0.25)
    assert cfg.params.rho_f == 2.0 and cfg.params.mu_f == 0.5
    assert np.array_equal(cfg.params.K, [[2.0, 0.5], [0.5, 3.0]])
    # scale folds into the parsed expressions
    assert cfg.data.f_f[0](0.5, 0.0, 1.0) == pytest.approx(2.0)
    assert cfg.data.f_p(0.5, 0.5, 0.0) == pytest.approx(0.5)
    assert cfg.scheme.scheme == "midpoint"
    assert cfg.scheme.dt == 0.025 and cfg.scheme.newton_max == 12
    assert cfg.output_dir == "results"
    assert cfg.skew_symmetric_convection is True
    assert cfg.emit_vtk is False and cfg.emit_certificate is True


def test_expression_grammar_example(tmp_path):
    cfg = parse_config(_config(tmp_path, "[data]\nf_p = sin(pi*x)*t\n"))
    assert cfg.data.f_p(0.5, 0.0, 1.0) == pytest.approx(1.0)


def test_negative_viscosity_reports_key_path(tmp_path):
    with pytest.raises(ConfigError, match=r"params\.mu_f"):
        parse_config(_config(tmp_path, "[params]\nmu_f = -1\n"))


def test_scheme_errors_report_key_path(tmp_path):
    with pytest.raises(ConfigError, match=r"scheme\.dt"):
        parse_config(_config(tmp_path, "[scheme]\ndt = -0.1\n"))
    with pytest.raises(ConfigError, match="unknown scheme"):
        parse_config(_config(tmp_path, "[scheme]\nscheme = rk4\n"))


def test_expression_error_carries_line_and_column(tmp_path):
    text = "[data]\nf_p = sin(pi*x) +* 2\n"
    with pytest.raises(ConfigError, match=r"line 2, column 18.*data\.f_p") as err:
        parse_config(_config(tmp_path, text))
    assert err.value.line == 2
    # column 18 is exactly the offending '*'
    assert text.splitlines()[1][err.value.column - 1] == "*"


def test_syntax_errors_located(tmp_path):
    with pytest.raises(ConfigError, match="line 1.*unknown section"):
        parse_config(_config(tmp_path, "[magic]\n"))
    with pytest.raises(ConfigError, match="line 2.*expected 'key = value'"):
        parse_config(_config(tmp_path, "[mesh]\nnx 4\n"))
    with pytest.raises(ConfigError, match="outside any"):
        parse_config(_config(tmp_path, "nx = 4\n"))
    with pytest.raises(ConfigError, match=r"unknown key mesh\.nz"):
        parse_config(_config(tmp_path, "[mesh]\nnz = 4\n"))
    with pytest.raises(ConfigError, match=r"duplicate key mesh\.nx"):
        parse_config(_config(tmp_path, "[mesh]\nnx = 4\nnx = 8\n"))
    with pytest.raises(ConfigError, match="unterminated section"):
        parse_config(_config(tmp_path, "[mesh\n"))


def test_semantic_guards(tmp_path):
    with pytest.raises(ConfigError, match=r"mesh\.split"):
        parse_config(_config(tmp_path, "[mesh]\nsplit = 1.5\n"))
    with pytest.raises(ConfigError, match=r"params\.k"):
        parse_config(_config(tmp_path, "[params]\nk = 1.0\nk11 = 2.0\n"))
    with pytest.raises(ConfigError, match="must be given together"):
        parse_config(_config(tmp_path, "[data]\nf_f_x = 1\n"))
    with pytest.raises(ConfigError, match=r"run\.constants_table"):
        parse_config(_config(tmp_path, "[run]\nconstants_table = none.csv\n"))
    with pytest.raises(ConfigError, match=r"run\.emit_vtk.*boolean"):
        parse_config(_config(tmp_path, "[run]\nemit_vtk = maybe\n"))


def test_mesh_file_and_generator_keys_conflict(tmp_path):
    mesh_path = tmp_path / "m.mesh"
    write_mesh(build_rect_two_domain(2, 2, 0.5), mesh_path)
    cfg = parse_config(_config(tmp_path, "[mesh]\nfile = %s\n" % mesh_path))
    assert cfg.mesh_file == str(mesh_path)
    with pytest.raises(ConfigError, match="excludes the generator keys"):
        parse_config(_config(
            tmp_path, "[mesh]\nnx = 4\nfile = %s\n" % mesh_path))
    with pytest.raises(ConfigError, match="no such file"):
        parse_config(_config(tmp_path, "[mesh]\nfile = missing.mesh\n"))


# ---------------------------------------------------------------------------
# exit codes and usage handling
# ---------------------------------------------------------------------------

def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage:" in capsys.readouterr().err


def test_no_subcommand_prints_usage(capsys):
    assert main([]) == 1
    assert "usage:" in capsys.readouterr().err


def test_config_errors_exit_one(tmp_path, capsys):
    path = _config(tmp_path, "[params]\nmu_f = -1\n")
    assert main(["run", path]) == 1
    assert "params.mu_f" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "missing.cfg")]) == 1
    assert "missing.cfg" in capsys.readouterr().err


def test_validate_mesh_command(tmp_path, capsys):
    path = tmp_path / "m.mesh"
    write_mesh(build_rect_two_domain(3, 2, 0.5), path)
    assert main(["validate-mesh", str(path)]) == 0
    assert "valid mesh" in capsys.readouterr().out
    bad = tmp_path / "bad.mesh"
    bad.write_text("fsimesh 9\n")
    assert main(["validate-mesh", str(bad)]) == 1
    assert "invalid mesh" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# subcommands against a tiny problem
# ---------------------------------------------------------------------------

TINY = """
[mesh]
nx = 2
ny = 2

[data]
f_f_x = 0.1*sin(pi*x)*t
f_f_y = 0
f_p = 0.1*cos(pi*y)

[scheme]
scheme = euler
dt = 0.05
t_final = 0.1

[run]
output_dir = %s
"""


def test_run_writes_outputs_and_manifest(tmp_path, capsys):
    out = tmp_path / "out"
    path = _config(tmp_path, TINY % out)
    assert main(["run", path]) == 0
    text = capsys.readouterr().out
    assert "completed 2 steps" in text
    # solver totals go to stdout only, never into a digested output
    assert re.search(r"^newton: \d+ iterations, \d+ GMRES iterations, "
                     r"1 factorizations$", text, re.MULTILINE)
    for name in ("constants.csv", "solution.vtk", "certificate.csv",
                 "certificate_summary.json", "manifest.json"):
        assert (out / name).exists()

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["sha256"] == fio.file_digest(path)
    assert manifest["mesh"]["source"] == "generated"
    assert manifest["constants"] == {"source": "computed", "mesh_level": 2}
    assert set(manifest["versions"]) == {"fpsi", "numpy", "scipy", "python"}
    for name, digest in manifest["outputs"].items():
        assert fio.file_digest(out / name) == digest

    summary = json.loads((out / "certificate_summary.json").read_text())
    assert summary["n_steps"] == 2
    assert summary["identity_ok"] is True

    # a second identical run is byte-deterministic
    out2 = tmp_path / "out2"
    assert main(["run", _config(tmp_path, TINY % out2, "b.cfg")]) == 0
    capsys.readouterr()
    for name in ("constants.csv", "solution.vtk", "certificate.csv"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_run_toggles_suppress_outputs(tmp_path, capsys):
    out = tmp_path / "quiet"
    extra = "emit_vtk = false\nemit_certificate = false\n"
    path = _config(tmp_path, TINY % out + extra)
    assert main(["run", path]) == 0
    capsys.readouterr()
    assert (out / "constants.csv").exists()
    assert not (out / "solution.vtk").exists()
    assert not (out / "certificate.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["outputs"]) == ["constants.csv"]


def test_run_strict_fails_on_false_flag(tmp_path, capsys):
    # a constants table with an absurdly large velocity-trace surrogate
    # makes the velocity-increment threshold microscopic, so the
    # increment-bound flag must come out false
    doctored = []
    for kind in CONSTANT_KINDS:
        value = 1e6 if kind == "Sf" else 1.0
        doctored.append(ConstantEstimate(kind, value, 1, 10))
    table = tmp_path / "constants.csv"
    fio.write_constants(table, doctored)

    out = tmp_path / "strict"
    path = _config(tmp_path, TINY % out + "constants_table = %s\n" % table)
    assert main(["run", path, "--strict"]) == 3
    err = capsys.readouterr().err
    assert "dumbound_ok" in err

    # without --strict the same run reports the failure but exits 0
    assert main(["run", path]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["constants"]["source"] == "file"
    assert manifest["constants"]["sha256"] == fio.file_digest(table)


def test_check_small_data_zero_data(tmp_path, capsys):
    out = tmp_path / "o"
    path = _config(tmp_path, "[mesh]\nnx = 2\nny = 2\n"
                             "[run]\noutput_dir = %s\n" % out)
    assert main(["check-small-data", path]) == 0
    text = capsys.readouterr().out
    assert "satisfied: True" in text
    values = {line.split("=")[0].strip(): line.split("=", 1)[1].strip()
              for line in text.splitlines() if "=" in line}
    assert values["critical data scale s*"] == "inf"
    assert float(values["lhs"]) == 0.0
    # with zero data the margin is exactly the threshold
    assert float(values["margin"]) == float(values["threshold"])


def test_check_small_data_reports_margin(tmp_path, capsys):
    out = tmp_path / "o"
    path = _config(tmp_path, TINY % out)
    assert main(["check-small-data", path]) == 0
    text = capsys.readouterr().out
    values = {line.split("=")[0].strip(): float(line.split("=", 1)[1])
              for line in text.splitlines() if "=" in line}
    assert values["margin"] == pytest.approx(
        values["threshold"] - values["lhs"])
    assert values["critical data scale s*"] > 0.0


def test_constants_command(tmp_path, capsys):
    out = tmp_path / "c"
    path = _config(tmp_path, "[mesh]\nnx = 2\nny = 2\n"
                             "[run]\noutput_dir = %s\n" % out)
    assert main(["constants", path]) == 0
    text = capsys.readouterr().out
    assert "Kappa" in text and "wrote" in text
    loaded = fio.read_constants(out / "constants.csv")
    assert [e.kind for e in loaded] == list(CONSTANT_KINDS)
    assert all(e.value > 0.0 for e in loaded)


# ---------------------------------------------------------------------------
# the mms study surface (study stubbed for speed; the real pipeline is
# exercised by the acceptance suite)
# ---------------------------------------------------------------------------

def _stub_table():
    def level(n, scale):
        return LevelRun(n=n, h=1.0 / n, dt=0.1 / n, n_steps=n,
                        newton_iterations=2,
                        errors={k: scale * (i + 1)
                                for i, k in enumerate(ERROR_KEYS)},
                        residuals={k: scale for k in RESIDUAL_KEYS},
                        dofs={})

    return ConvergenceTable(case_id="smooth-trig", scheme="midpoint",
                            t_final=0.1,
                            runs=[level(8, 1.0), level(16, 0.25),
                                  level(32, 0.0625)])


def test_mms_writes_convergence_csv(tmp_path, monkeypatch, capsys):
    calls = {}

    def fake_study(case_id, levels, scheme, t_final, steps_coarsest):
        calls.update(case_id=case_id, levels=levels, scheme=scheme,
                     t_final=t_final, steps=steps_coarsest)
        return _stub_table()

    monkeypatch.setattr(cli, "convergence_study", fake_study)
    out = tmp_path / "study"
    assert main(["mms", "smooth-trig", "3", "--out", str(out)]) == 0
    assert calls["case_id"] == "smooth-trig"
    assert calls["levels"] == (8, 16, 32)
    assert calls["scheme"] == "midpoint"
    rows = fio.read_convergence(out / "convergence_smooth-trig.csv")
    assert [r["level"] for r in rows] == [8, 16, 32]
    assert rows[2]["rate_uL2"] == pytest.approx(2.0)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["study"]["levels"] == [8, 16, 32]
    assert "rate" in capsys.readouterr().out


def test_mms_requires_three_levels(capsys):
    assert main(["mms", "smooth-trig", "2"]) == 1
    assert "at least 3 levels" in capsys.readouterr().err


def test_mms_rejects_unknown_case(capsys):
    assert main(["mms", "mystery-case", "3"]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_mms_solver_failure_exits_two(tmp_path, monkeypatch, capsys):
    def failing_study(*args, **kwargs):
        raise StudyError("level 8: diverged", _stub_table())

    monkeypatch.setattr(cli, "convergence_study", failing_study)
    assert main(["mms", "smooth-trig", "3", "--out", str(tmp_path)]) == 2
    assert "solver failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# golden values of the README example (16 x 16, Euler, 100 steps)
# ---------------------------------------------------------------------------

README_EXAMPLE = """\
[mesh]
nx = 16
ny = 16
split = 0.5

[data]
f_f_x = 0.4*sin(pi*x)*cos(t)
f_f_y = 0.2*cos(pi*y)*sin(t)
f_p   = 0.3*cos(pi*x)*cos(t)
p_in  = 0.2*(1 + 0.5*sin(t))

[scheme]
scheme  = euler
dt      = 0.005
t_final = 0.5
"""

GOLDEN_CONSTANTS = {
    "T1": 0.6797919890227416, "T2": 0.5514913932138803,
    "T3": 1.160629050944669, "T4": 0.571504104910528,
    "T5": 0.6797919890227359, "P1c": 0.31830956282483164,
    "P2c": 0.31830956282483047, "P3c": 0.3183095672733596,
    "Sf": 0.44412617636491236, "Kf": 2.931815027794804,
    "Kappa": 0.6137355609949448, "Cj": 1.0063131187387002,
}
GOLDEN_SUMMARY = {
    "c3": 0.4903747510465406, "final_energy": 0.0007837550570100786,
    "max_du_norm": 0.06774287904433793,
    "total_dissipation": 0.0037936157040942106,
}
GOLDEN_FLAGS = {
    "identity_ok": True, "mainbound1_ok": True, "mb2_root_ok": False,
    "mb2_squared_ok": False, "dumbound_ok": False, "pfbound_ok": True,
    "pfbound_linf_ok": True, "uniqueness_ok": True,
    "gronwall_premise_ok": True, "gronwall_conclusion_ok": True,
}


def test_readme_example_golden_values(tmp_path, monkeypatch, capsys):
    """The documented example keeps its constants, summary and flags, and
    the certificate reuses the Cj estimator's inlet lifting (the only dense
    eigen-solve of the run)."""
    eigh_calls = []
    eigh = cst.la.eigh

    def counted(*args, **kwargs):
        eigh_calls.append(1)
        return eigh(*args, **kwargs)
    monkeypatch.setattr(cst.la, "eigh", counted)
    monkeypatch.chdir(tmp_path)
    path = _config(tmp_path, README_EXAMPLE)
    assert main(["run", path]) == 0
    assert "completed 100 steps" in capsys.readouterr().out
    assert len(eigh_calls) == 1

    constants = {e.kind: e.value
                 for e in fio.read_constants(tmp_path / "out/constants.csv")}
    assert set(constants) == set(GOLDEN_CONSTANTS)
    for kind, value in GOLDEN_CONSTANTS.items():
        assert constants[kind] == pytest.approx(value, rel=1e-10), kind
    summary = json.loads(
        (tmp_path / "out/certificate_summary.json").read_text())
    assert summary["n_steps"] == 100
    for key, value in GOLDEN_SUMMARY.items():
        assert summary[key] == pytest.approx(value, rel=1e-8), key
    assert {k: v for k, v in summary.items() if k.endswith("_ok")} \
        == GOLDEN_FLAGS
