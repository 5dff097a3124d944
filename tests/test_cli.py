import csv
import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import oracles
import fpsi
from fpsi import cli, constants as cst, io as fio, monitor as mon
from fpsi.assembly import PhysicalParams
from fpsi.cli import ConfigError, RunConfig, main, parse_config
from fpsi.constants import CONSTANT_KINDS, ConstantEstimate
from fpsi.mesh import Mesh, build_rect_two_domain, write_mesh
from fpsi.timestepper import SchemeConfig, StepError
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
    # every other field is its dataclass's default
    for got, ref in ((cfg, RunConfig()), (cfg.params, PhysicalParams()),
                     (cfg.scheme, SchemeConfig())):
        for spec in dataclasses.fields(ref):
            if spec.name in ("params", "data", "scheme"):
                continue
            a, b = getattr(got, spec.name), getattr(ref, spec.name)
            assert type(a) is type(b), spec.name
            assert (np.array_equal(a, b) if isinstance(b, np.ndarray)
                    else a == b), spec.name


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
    with pytest.raises(ConfigError, match=r"unknown key scheme\.load_order"):
        parse_config(_config(tmp_path, "[scheme]\nload_order = 8\n"))
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


# where each schema key's value arrives, read at this point of (x, y, t),
# and the value a config below sets it to; scale 2 doubles every datum
_AT = (0.5, 0.25, 2.0)
_ARRIVALS = {
    ("mesh", "nx"): ("6", lambda c: c.nx, 6),
    ("mesh", "ny"): ("4", lambda c: c.ny, 4),
    ("mesh", "split"): ("0.25", lambda c: c.split, 0.25),
    ("mesh", "file"): ("{mesh}", lambda c: c.mesh_file, "{mesh}"),
    ("params", "rho_f"): ("2.0", lambda c: c.params.rho_f, 2.0),
    ("params", "mu_f"): ("0.5", lambda c: c.params.mu_f, 0.5),
    ("params", "rho_s"): ("3.0", lambda c: c.params.rho_s, 3.0),
    ("params", "mu_s"): ("0.25", lambda c: c.params.mu_s, 0.25),
    ("params", "lambda_s"): ("4.0", lambda c: c.params.lambda_s, 4.0),
    ("params", "s0"): ("0.125", lambda c: c.params.s0, 0.125),
    ("params", "alpha_bw"): ("0.75", lambda c: c.params.alpha_bw, 0.75),
    ("params", "beta_slip"): ("1.5", lambda c: c.params.beta_slip, 1.5),
    ("params", "k"): ("2.5", lambda c: c.params.K.tolist(),
                      [[2.5, 0.0], [0.0, 2.5]]),
    ("params", "k11"): ("2.0", lambda c: c.params.K[0, 0], 2.0),
    ("params", "k12"): ("0.5", lambda c: c.params.K[[0, 1], [1, 0]].tolist(),
                        [0.5, 0.5]),
    ("params", "k22"): ("3.0", lambda c: c.params.K[1, 1], 3.0),
    ("data", "f_f_x"): ("x", lambda c: c.data.f_f[0](*_AT), 1.0),
    ("data", "f_f_y"): ("y", lambda c: c.data.f_f[1](*_AT), 0.5),
    ("data", "f_s_x"): ("t", lambda c: c.data.f_s[0](*_AT), 4.0),
    ("data", "f_s_y"): ("x*t", lambda c: c.data.f_s[1](*_AT), 2.0),
    ("data", "f_p"): ("x*y", lambda c: c.data.f_p(*_AT), 0.25),
    ("data", "p_in"): ("1 + y", lambda c: c.data.P_in(*_AT), 2.5),
    ("data", "scale"): ("2", lambda c: c.data.f_p(*_AT) / 0.125, 2.0),
    ("scheme", "scheme"): ("midpoint", lambda c: c.scheme.scheme, "midpoint"),
    ("scheme", "dt"): ("0.025", lambda c: c.scheme.dt, 0.025),
    ("scheme", "t_final"): ("0.3", lambda c: c.scheme.t_final, 0.3),
    ("scheme", "newton_tol"): ("1e-8", lambda c: c.scheme.newton_tol, 1e-8),
    ("scheme", "newton_max"): ("12", lambda c: c.scheme.newton_max, 12),
    ("run", "output_dir"): ("results", lambda c: c.output_dir, "results"),
    ("run", "constants_table"): ("{table}", lambda c: c.constants_table,
                                 "{table}"),
    ("run", "skew_symmetric_convection"): (
        "yes", lambda c: c.skew_symmetric_convection, True),
    ("run", "emit_vtk"): ("off", lambda c: c.emit_vtk, False),
    ("run", "emit_certificate"): ("no", lambda c: c.emit_certificate, False),
}

# a config cannot give both the generator and a mesh file, nor both the
# scalar and the tensor permeability: the second config gives the latter
_SECOND = {("mesh", "file"), ("params", "k11"), ("params", "k12"),
           ("params", "k22")}


def test_every_schema_key_reaches_its_field(tmp_path):
    assert set(_ARRIVALS) == {(section, key) for section, keys
                              in cli._SECTIONS.items() for key in keys}
    mesh_path = tmp_path / "m.mesh"
    write_mesh(build_rect_two_domain(2, 2, 0.5), mesh_path)
    table_path = tmp_path / "table.csv"
    table_path.write_text("")
    paths = dict(mesh=str(mesh_path), table=str(table_path))
    default = parse_config(_config(tmp_path, ""))
    for second in (False, True):
        chosen = [k for k in _ARRIVALS if (k in _SECOND) == second]
        text = "".join("[%s]\n%s = %s\n" % (section, key,
                                            _ARRIVALS[section, key][0])
                       for section, key in chosen).format(**paths)
        cfg = parse_config(_config(tmp_path, text))
        for key in chosen:
            _, where, value = _ARRIVALS[key]
            if isinstance(value, str):
                value = value.format(**paths)
            assert where(default) != value, key
            assert where(cfg) == value, key


def test_readme_configuration_table_lists_the_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `\[(\w+)\]` \| (.*) \|$", readme, re.M))
    assert list(rows) == list(cli._SECTIONS)
    for section, keys in cli._SECTIONS.items():
        named = set(re.findall(r"`([^`]+)`", rows[section]))
        # the row also names the scheme's values and a subcommand
        assert named - {"euler", "midpoint", "fpsi constants"} == set(keys)


# one fault per config and its message, recorded from the parser that
# converted key by key before the schema table
_CONFIG_FAULTS = {
    # syntax
    "unterminated header": (
        "[mesh\n", "line 1, column 5: unterminated section header"),
    "unknown section": (
        "[magic]\n", "line 1: unknown section [magic]; expected one of "
                     "data, mesh, params, run, scheme"),
    "no equals sign": (
        "[mesh]\nnx 4\n", "line 2, column 1: expected 'key = value'"),
    "key outside a section": (
        "nx = 4\n", "line 1, column 1: key outside any [section]"),
    "unknown key": ("[mesh]\nnz = 4\n", "line 2: unknown key mesh.nz"),
    "duplicate key": (
        "[mesh]\nnx = 4\nnx = 8\n", "line 3: duplicate key mesh.nx"),
    # mesh
    "nx not an integer": (
        "[mesh]\nnx = four\n",
        "line 2: mesh.nx: invalid literal for int() with base 10: 'four'"),
    "ny not an integer": (
        "[mesh]\nny = 2.5\n",
        "line 2: mesh.ny: invalid literal for int() with base 10: '2.5'"),
    "split not a number": (
        "[mesh]\nsplit = half\n",
        "line 2: mesh.split: could not convert string to float: 'half'"),
    "nx below one": ("[mesh]\nnx = 0\n", "mesh.nx: must be at least 1, got 0"),
    "ny below two": ("[mesh]\nny = 1\n", "mesh.ny: must be at least 2, got 1"),
    "split above one": (
        "[mesh]\nsplit = 1.5\n",
        "mesh.split: must lie strictly inside (0, 1), got 1.5"),
    "split zero": (
        "[mesh]\nsplit = 0\n",
        "mesh.split: must lie strictly inside (0, 1), got 0.0"),
    "file with nx": (
        "[mesh]\nnx = 4\nfile = missing.mesh\n",
        "mesh.file: excludes the generator keys (nx given)"),
    "file with every generator key": (
        "[mesh]\nsplit = 0.5\nfile = missing.mesh\nny = 4\nnx = 4\n",
        "mesh.file: excludes the generator keys (nx, ny, split given)"),
    "missing mesh file": (
        "[mesh]\nfile = missing.mesh\n",
        "mesh.file: no such file 'missing.mesh'"),
    # params
    **{"%s not a number" % key: (
        "[params]\n%s = wet\n" % key,
        "line 2: params.%s: could not convert string to float: 'wet'" % key)
       for key in ("rho_f", "mu_f", "rho_s", "mu_s", "lambda_s", "s0",
                   "alpha_bw", "beta_slip", "k", "k11", "k12", "k22")},
    **{"%s not positive" % key: (
        "[params]\n%s = 0\n" % key,
        "params.%s: %s must be positive" % (key, key))
       for key in ("rho_f", "mu_f", "rho_s", "mu_s", "s0", "beta_slip")},
    "lambda_s negative": (
        "[params]\nlambda_s = -1\n",
        "params.lambda_s: lambda_s must be nonnegative"),
    "alpha_bw negative": (
        "[params]\nalpha_bw = -0.5\n",
        "params.alpha_bw: alpha_bw must be nonnegative"),
    "scalar k not positive": (
        "[params]\nk = -1\n", "params.k: K must be positive definite"),
    "tensor k indefinite": (
        "[params]\nk12 = 2\n", "params.k: K must be positive definite"),
    "tensor k22 not positive": (
        "[params]\nk22 = 0\n", "params.k: K must be positive definite"),
    "scalar and tensor k": (
        "[params]\nk = 1.0\nk11 = 2.0\n",
        "params.k: give either scalar k or k11/k12/k22, not both"),
    # data
    **{"%s bad expression" % key: (
        "[data]\n%s = sin(pi*x) +* 2\n" % key,
        "line 2, column %d: data.%s: position 11: expected a value, "
        "found '*'" % (len(key) + 15, key))
       for key in ("f_f_x", "f_f_y", "f_s_x", "f_s_y", "f_p", "p_in")},
    "f_p unknown name": (
        "[data]\nf_p = z + 1\n",
        "line 2, column 7: data.f_p: position 0: unknown name 'z'"),
    "f_p division by zero": (
        "[data]\nf_p = 2*x/(3-3)\n",
        "line 2, column 10: data.f_p: position 3: division by zero"),
    "p_in overflows": (
        "[data]\np_in =   1e200*1e200\n",
        "line 2, column 15: data.p_in: position 5: the constant inf is not "
        "finite"),
    "scale not a number": (
        "[data]\nscale = big\n",
        "line 2: data.scale: could not convert string to float: 'big'"),
    "scale overflows the data": (
        "[data]\nf_p = 1e200\nscale = 1e200\n",
        "data.scale: the constant inf is not finite"),
    **{"%s alone" % key: (
        "[data]\n%s = 1\n" % key,
        "data.%s_x: %s_x and %s_y must be given together"
        % ((key[:3],) * 3))
       for key in ("f_f_x", "f_f_y", "f_s_x", "f_s_y")},
    # scheme
    "unknown scheme": (
        "[scheme]\nscheme = rk4\n",
        "scheme.scheme: unknown scheme 'rk4'; expected one of euler, "
        "midpoint"),
    "dt not a number": (
        "[scheme]\ndt = tiny\n",
        "line 2: scheme.dt: could not convert string to float: 'tiny'"),
    "t_final not a number": (
        "[scheme]\nt_final = soon\n",
        "line 2: scheme.t_final: could not convert string to float: 'soon'"),
    "newton_tol not a number": (
        "[scheme]\nnewton_tol = small\n",
        "line 2: scheme.newton_tol: could not convert string to float: "
        "'small'"),
    "newton_max not an integer": (
        "[scheme]\nnewton_max = 2.5\n",
        "line 2: scheme.newton_max: invalid literal for int() with base 10: "
        "'2.5'"),
    "dt not positive": (
        "[scheme]\ndt = -0.1\n", "scheme.dt: dt must be positive"),
    "t_final not positive": (
        "[scheme]\nt_final = 0\n", "scheme.t_final: t_final must be positive"),
    "newton_tol not positive": (
        "[scheme]\nnewton_tol = 0\n",
        "scheme.newton_tol: newton_tol must be positive"),
    "newton_max below one": (
        "[scheme]\nnewton_max = 0\n",
        "scheme.newton_max: newton_max must be at least 1"),
    # run
    "missing constants table": (
        "[run]\nconstants_table = none.csv\n",
        "run.constants_table: no such file 'none.csv'"),
    **{"%s not a boolean" % key: (
        "[run]\n%s = maybe\n" % key,
        "line 2: run.%s: expected a boolean, got 'maybe'" % key)
       for key in ("skew_symmetric_convection", "emit_vtk",
                   "emit_certificate")},
    # faults in two sections: the section read first is reported, and the
    # syntax of the whole file is read before any section
    "mesh range, params conversion": (
        "[params]\nmu_f = abc\n[mesh]\nnx = 0\n",
        "mesh.nx: must be at least 1, got 0"),
    "params range, data pair": (
        "[data]\nf_f_x = 1\n[params]\nmu_f = -1\n",
        "params.mu_f: mu_f must be positive"),
    "data expression, scheme range": (
        "[scheme]\ndt = -1\n[data]\nf_p = 1/0\n",
        "line 4, column 8: data.f_p: position 1: division by zero"),
    "scheme name, run boolean": (
        "[run]\nemit_vtk = maybe\n[scheme]\nscheme = rk4\n",
        "scheme.scheme: unknown scheme 'rk4'; expected one of euler, "
        "midpoint"),
    "mesh file, constants table": (
        "[run]\nconstants_table = none.csv\n[mesh]\nfile = missing.mesh\n",
        "mesh.file: no such file 'missing.mesh'"),
    "params conflict, scheme conversion": (
        "[scheme]\nnewton_max = x\n[params]\nk = 1\nk22 = 2\n",
        "params.k: give either scalar k or k11/k12/k22, not both"),
    "data scale, run table": (
        "[run]\nconstants_table = none.csv\n[data]\nf_p = 1e200\n"
        "scale = 1e200\n", "data.scale: the constant inf is not finite"),
    "mesh range, later syntax": (
        "[mesh]\nnx = 0\n[scheme]\ndt 1\n",
        "line 4, column 1: expected 'key = value'"),
    # two faults in one section: its keys are converted in schema order
    # before its cross-key checks run
    "mesh range, later conversion": (
        "[mesh]\nnx = 0\nny = x\n",
        "line 3: mesh.ny: invalid literal for int() with base 10: 'x'"),
    "params conflict, later conversion": (
        "[params]\nk = 1\nk11 = 2\nmu_f = x\n",
        "line 4: params.mu_f: could not convert string to float: 'x'"),
    "scheme two ranges": (
        "[scheme]\nnewton_max = 0\ndt = 0\n", "scheme.dt: dt must be positive"),
    "data pair, later expression": (
        "[data]\nf_f_x = 1\nf_p = +\n",
        "line 3, column 8: data.f_p: position 1: expected a value, found "
        "'end of input'"),
    "data pair, scale conversion": (
        "[data]\nf_s_y = 1\nscale = x\n",
        "line 3: data.scale: could not convert string to float: 'x'"),
    "run table, boolean": (
        "[run]\nconstants_table = none.csv\nemit_vtk = maybe\n",
        "line 3: run.emit_vtk: expected a boolean, got 'maybe'"),
}


@pytest.mark.parametrize("name", sorted(_CONFIG_FAULTS))
def test_config_fault_message_is_exact(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text, message = _CONFIG_FAULTS[name]
    with pytest.raises(ConfigError) as err:
        parse_config(_config(tmp_path, text))
    assert str(err.value) == message


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
    # division by a constant zero and a constant that overflows are caught
    # while the config is parsed
    for text, column in (("1/0", 8), ("2*x/(3-3)", 10), ("0^-1", 8),
                         ("1e200^2", 12), ("1e200*1e200", 12),
                         ("x + 1e308*10", 16)):
        path = _config(tmp_path, "[data]\nf_p = %s\n" % text)
        assert main(["run", path]) == 1
        err = capsys.readouterr().err
        assert "config error: line 2, column %d: data.f_p" % column in err
    path = _config(tmp_path, "[data]\nf_p = 1e200\nscale = 1e200\n")
    assert main(["run", path]) == 1
    assert "config error: data.scale" in capsys.readouterr().err


def test_validate_mesh_command(tmp_path, capsys):
    path = tmp_path / "m.mesh"
    write_mesh(build_rect_two_domain(3, 2, 0.5), path)
    assert main(["validate-mesh", str(path)]) == 0
    assert "valid mesh" in capsys.readouterr().out
    bad = tmp_path / "bad.mesh"
    bad.write_text("fsimesh 9\n")
    assert main(["validate-mesh", str(bad)]) == 1
    assert "invalid mesh" in capsys.readouterr().err


def test_mesh_that_fails_validation_exits_one(tmp_path, capsys):
    m = build_rect_two_domain(2, 2, 0.5)
    tris = m.triangles.copy()
    tris[0] = tris[0][::-1]
    path = tmp_path / "flipped.mesh"
    write_mesh(Mesh(m.vertices, tris, m.tri_tags, m.facets, m.facet_tags),
               path)
    problem = "triangle 0 has non-positive area -0.125"
    assert main(["validate-mesh", str(path)]) == 1
    out, err = capsys.readouterr()
    assert "invalid mesh: %s" % problem in err and out == ""
    cfg = _config(tmp_path, "[mesh]\nfile = %s\n\n[run]\noutput_dir = %s\n"
                  % (path, tmp_path / "out"))
    for command in ("run", "constants", "check-small-data"):
        assert main([command, cfg]) == 1
        assert "mesh error: %s" % problem in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    # the trajectory's solver totals go to stdout
    assert re.search(r"^newton: \d+ iterations, \d+ GMRES iterations, "
                     r"1 factorizations, factor fill [1-9]\d*$", text,
                     re.MULTILINE)
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


# the certificate.csv header that fpsi run writes, in its order
CERTIFICATE_HEADER = [
    "n", "t", "energy", "dissipation", "cum_dissipation", "work",
    "identity_defect", "identity_scale", "identity_ok", "cum_c1_sq",
    "mb1_lhs", "mb1_rhs", "mb1_ok", "du_norm", "dumbound_ok",
    "uniqueness_ok", "dot_energy", "cum_dot_dissipation", "mb2_lhs",
    "mb2_rhs_root", "mb2_rhs_squared", "mb2_root_ok", "mb2_squared_ok",
    "pf_lhs", "pf_rhs", "pf_ok", "zeta", "gronwall_premise_rhs",
    "gronwall_conclusion_rhs", "gronwall_premise_ok",
    "gronwall_conclusion_ok", "newton_iterations", "gmres_iterations",
    "newton_residual",
]
# the columns that start at step 1: the float ones read nan at step 0, the
# flags and counts are empty there
FROM_STEP_1_FLOATS = {
    "dissipation", "work", "identity_defect", "identity_scale",
    "dot_energy", "cum_dot_dissipation", "mb2_lhs", "mb2_rhs_root",
    "mb2_rhs_squared", "pf_lhs", "pf_rhs", "newton_residual"}
FROM_STEP_1_FLAGS_AND_COUNTS = {
    "identity_ok", "mb2_root_ok", "mb2_squared_ok", "pf_ok",
    "newton_iterations", "gmres_iterations"}


def test_certificate_layout_is_pinned(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", _config(tmp_path, TINY % out)]) == 0
    capsys.readouterr()
    with open(out / "certificate.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == CERTIFICATE_HEADER
    assert len(rows) == 3
    step0 = dict(zip(header, rows[0]))
    assert {k for k, v in step0.items() if v == "nan"} == FROM_STEP_1_FLOATS
    assert {k for k, v in step0.items() if v == ""} \
        == FROM_STEP_1_FLAGS_AND_COUNTS
    for row in rows[1:]:
        assert "" not in row and "nan" not in row
        assert len(row) == len(header)


def test_run_writes_the_sf_ascent_columns(tmp_path, capsys):
    """constants.csv says how the Sf ascent converged: its iteration count
    and the top curvature where it ended, negative at a local maximum."""
    out = tmp_path / "out"
    assert main(["run", _config(tmp_path, TINY % out)]) == 0
    capsys.readouterr()
    with open(out / "constants.csv", newline="") as fh:
        rows = {row["kind"]: row for row in csv.DictReader(fh)}
    assert list(rows["Sf"])[5:] == ["method", "iterations", "curvature"]
    assert int(rows["Sf"]["iterations"]) >= 1
    assert float(rows["Sf"]["curvature"]) < 0.0
    for kind in set(CONSTANT_KINDS) - {"Sf"}:
        assert rows[kind]["iterations"] == rows[kind]["curvature"] == ""


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


@pytest.mark.parametrize("certify", [True, False])
def test_run_holds_a_window_of_states(tmp_path, monkeypatch, capsys,
                                      certify):
    """Along the ``fpsi run`` path every state handed to ``on_step`` dies,
    without ``gc.collect``, once the certificate stream has flushed it:
    after step k every state older than step k - _STEP_BLOCK - 1 is dead,
    and without a certificate every state but the current one."""
    refs, leaked = [], {}
    solve = cli.run_scheme

    def watched(*args, on_step=None, **kwargs):
        def seen(state, diag):
            if on_step is not None:
                on_step(state, diag)
            refs.append(weakref.ref(state))
            k = len(refs)
            oldest = k - mon._STEP_BLOCK - 1 if certify else k
            alive = [j for j, ref in enumerate(refs, start=1)
                     if j < oldest and ref() is not None]
            if alive:
                leaked[k] = alive
        return solve(*args, on_step=seen, **kwargs)
    monkeypatch.setattr(cli, "run_scheme", watched)
    out = tmp_path / "out"
    extra = "" if certify else "emit_certificate = false\n"
    path = _config(tmp_path, TINY.replace("dt = 0.05", "dt = 0.005") % out
                   + extra)
    assert main(["run", path]) == 0
    capsys.readouterr()
    assert len(refs) == 20 > 2 * mon._STEP_BLOCK + 2
    assert leaked == {}
    assert (out / "certificate.csv").exists() is certify


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
    rows = oracles.read_table(out / "convergence_smooth-trig.csv")
    assert [r["level"] for r in rows] == [8, 16, 32]
    assert rows[2]["rate_uL2"] == pytest.approx(2.0)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["study"]["levels"] == [8, 16, 32]
    assert "rate" in capsys.readouterr().out


def test_mms_requires_three_levels(capsys):
    assert main(["mms", "smooth-trig", "2"]) == 1
    assert "at least 3 levels" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--steps", "0"], ["--steps", "-2"], ["--t-final", "0"],
    ["--t-final", "-1"]], ids="=".join)
def test_mms_rejects_a_bad_time_grid(argv, monkeypatch, capsys):
    def no_study(*args, **kwargs):
        raise AssertionError("the study must not start")

    monkeypatch.setattr(cli, "convergence_study", no_study)
    assert main(["mms", "smooth-trig", "3"] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("mms: %s must be" % argv[0])
    assert err.count("\n") == 1


def test_mms_rejects_unknown_case(capsys):
    assert main(["mms", "mystery-case", "3"]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_mms_solver_failure_exits_two(tmp_path, monkeypatch, capsys):
    def failing_study(*args, **kwargs):
        raise StudyError("level 8: diverged", _stub_table())

    monkeypatch.setattr(cli, "convergence_study", failing_study)
    assert main(["mms", "smooth-trig", "3", "--out", str(tmp_path)]) == 2
    assert "solver failure" in capsys.readouterr().err


def test_run_solver_failure_exits_two(tmp_path, monkeypatch, capsys):
    def failing_run(*args, **kwargs):
        raise StepError("step 1: Newton diverged", 1.0, 20)

    monkeypatch.setattr(cli, "run_scheme", failing_run)
    out = tmp_path / "out"
    assert main(["run", _config(tmp_path, TINY % out)]) == 2
    assert "solver failure" in capsys.readouterr().err
    assert not (out / "certificate.csv").exists()


@pytest.mark.parametrize("command", ["run", "constants"])
def test_constant_error_exits_two(command, tmp_path, monkeypatch, capsys):
    def failing_estimate(kind, *args, **kwargs):
        raise cst.ConstantError("pencil has a numerically zero mode")

    monkeypatch.setattr(cst, "estimate", failing_estimate)
    out = tmp_path / "out"
    assert main([command, _config(tmp_path, TINY % out)]) == 2
    err = capsys.readouterr().err
    assert err == "constant error: pencil has a numerically zero mode\n"
    assert not (out / "manifest.json").exists()


def test_run_estimates_the_constants_after_the_solve(tmp_path, monkeypatch,
                                                     capsys):
    """The constants' factors are made once the trajectory's factor is
    gone, so the two never sit in memory together."""
    events = []

    def recorded(name):
        fn = getattr(cli, name)

        def wrapper(*args, **kwargs):
            events.append((name, "start"))
            result = fn(*args, **kwargs)
            events.append((name, "end"))
            return result
        monkeypatch.setattr(cli, name, wrapper)
    recorded("run_scheme")
    recorded("estimate_all")
    assert main(["run", _config(tmp_path, TINY % (tmp_path / "out"))]) == 0
    capsys.readouterr()
    assert events == [("run_scheme", "start"), ("run_scheme", "end"),
                      ("estimate_all", "start"), ("estimate_all", "end")]


def test_missing_constants_table_fails_before_the_first_step(
        tmp_path, monkeypatch, capsys):
    steps = []
    solve = cli.run_scheme

    def watched(*args, on_step=None, **kwargs):
        def seen(state, diag):
            steps.append(state.t)
            if on_step is not None:
                on_step(state, diag)
        return solve(*args, on_step=seen, **kwargs)
    monkeypatch.setattr(cli, "run_scheme", watched)
    out = tmp_path / "out"
    path = _config(tmp_path, TINY % out + "constants_table = %s\n"
                   % (tmp_path / "missing.csv"))
    assert main(["run", path]) == 1
    assert "run.constants_table" in capsys.readouterr().err
    assert steps == []
    assert not out.exists()


def _table_lacking_kinds(path):
    fio.write_constants(path, [ConstantEstimate("T1", 1.0, 2, 10)])


def _table_repeating_a_kind(path):
    fio.write_constants(path, [ConstantEstimate(kind, 1.0, 2, 10)
                               for kind in CONSTANT_KINDS + ("T1",)])


def _table_with_a_foreign_header(path):
    path.write_text("kind,value,level,dofs\nT1,1.0,2,10\n")


@pytest.mark.parametrize("command", ["run", "check-small-data"])
@pytest.mark.parametrize("write,needle", [
    (_table_lacking_kinds, "missing T2, T3, T4, T5, P1c, P2c, P3c, Sf, Kf, "
                           "Kappa, Cj"),
    (_table_repeating_a_kind, "repeated T1"),
    (_table_with_a_foreign_header, "not a constants table"),
], ids=["missing-kind", "duplicate-kind", "bad-header"])
def test_bad_constants_table_is_a_config_error(tmp_path, monkeypatch, capsys,
                                               command, write, needle):
    steps = []
    solve = cli.run_scheme

    def watched(*args, on_step=None, **kwargs):
        def seen(state, diag):
            steps.append(state.t)
            if on_step is not None:
                on_step(state, diag)
        return solve(*args, on_step=seen, **kwargs)
    monkeypatch.setattr(cli, "run_scheme", watched)
    table = tmp_path / "table.csv"
    write(table)
    out = tmp_path / "out"
    path = _config(tmp_path, TINY % out + "constants_table = %s\n" % table)
    assert main([command, path]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("config error: run.constants_table: %s"
                               % table)
    assert needle in lines[0]
    assert steps == []
    assert not out.exists()


def test_file_mesh_constants_carry_no_generator_level(tmp_path, capsys):
    mesh_path = tmp_path / "four.mesh"
    write_mesh(build_rect_two_domain(4, 4, 0.5), mesh_path)
    out = tmp_path / "c"
    path = _config(tmp_path, "[mesh]\nfile = %s\n\n[run]\noutput_dir = %s\n"
                   % (mesh_path, out))
    assert main(["constants", path]) == 0
    text = capsys.readouterr().out
    assert "(level 8," not in text
    assert text.count("(level 0,") == len(CONSTANT_KINDS)
    assert {e.mesh_level for e in
            fio.read_constants(out / "constants.csv")} == {0}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["constants"] == {"source": "computed"}
    assert manifest["mesh"]["file"] == "four.mesh"


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


def test_readme_example_explains_its_failing_flags(tmp_path, monkeypatch,
                                                   capsys):
    """``flag_detail`` and the run's output say which flag fails, from which
    step and by how much: ``dumbound`` by max |D(u)| 0.067743 against the
    limit 0.067059, ``mb2_*`` from step 1 (the run starts from rest while the
    data at t = 0 is nonzero)."""
    monkeypatch.chdir(tmp_path)
    assert main(["run", _config(tmp_path, README_EXAMPLE)]) == 0
    out = capsys.readouterr().out
    summary = json.loads(
        (tmp_path / "out/certificate_summary.json").read_text())
    detail = summary["flag_detail"]
    assert not [k for k in detail if k.endswith("_ok")]
    assert not [k for d in detail.values() for k in d if k.endswith("_ok")]
    failing = {name for name, d in detail.items()
               if d["first_fail_step"] is not None}
    assert failing == {"dumbound", "mb2_root", "mb2_squared"}
    assert failing == {name[:-3] for name, ok in GOLDEN_FLAGS.items()
                       if not ok}

    du = detail["dumbound"]
    assert summary["max_du_norm"] == pytest.approx(0.067743, abs=5e-7)
    assert summary["du_limit"] == pytest.approx(0.067059, abs=5e-7)
    assert du["worst_margin"] == pytest.approx(
        summary["du_limit"] - summary["max_du_norm"], rel=1e-12)
    assert du["worst_margin"] < 0.0
    assert 1 < du["first_fail_step"] <= du["worst_step"] == 100
    assert detail["mb2_root"]["first_fail_step"] == 1
    assert detail["mb2_root"]["worst_margin"] < 0.0
    assert detail["uniqueness"]["worst_margin"] > 0.0

    lines = [line for line in out.splitlines() if " fails from step " in line]
    assert len(lines) == 3
    assert any(line.startswith("  dumbound fails from step %d,"
                               % du["first_fail_step"]) for line in lines)
    assert "  mb2_root fails from step 1," in "\n".join(lines)


@pytest.mark.parametrize("stiff", ["lambda_s = 1e6", "beta_slip = 1e6"])
def test_stiff_parameters_run_to_completion(stiff, tmp_path, monkeypatch,
                                            capsys):
    """A nearly incompressible skeleton or a stiff slip law on the README
    data, at 8 x 8 to t = 0.1: round-off keeps the true residual of a
    correction above 1e-12 relative, and the backward-error test accepts
    it, on the run's one factor."""
    monkeypatch.chdir(tmp_path)
    text = (README_EXAMPLE.replace("nx = 16\nny = 16", "nx = 8\nny = 8")
            .replace("t_final = 0.5", "t_final = 0.1")
            + "\n[params]\n%s\n" % stiff)
    assert main(["run", _config(tmp_path, text)]) == 0
    out = capsys.readouterr().out
    assert "completed 20 steps" in out
    assert " 1 factorizations," in out
    summary = json.loads(
        (tmp_path / "out/certificate_summary.json").read_text())
    assert summary["identity_ok"] is True


# ---------------------------------------------------------------------------
# the benchmark's probes still attach (perfbench/probes.py)
# ---------------------------------------------------------------------------

_PROBED_RUN = """\
import json, os, sys
root = sys.argv[1]
sys.path.insert(0, os.path.join(root, "src"))
sys.path.insert(1, os.path.join(root, "perfbench"))
import probes
import fpsi.cli as cli
timing = probes.Timing()
finish = probes.install_timing(timing, 0)
tracer = probes.Tracer(run_id="probed")
probes.install_spans(tracer)
rc = cli.main(["run", sys.argv[2]])
finish()
print(json.dumps({"rc": rc, "step_ms": timing.step_ms,
                  "spans": sorted({s["name"] for s in tracer.spans}),
                  "layers": probes.layer_metrics(tracer, 0.0, timing)}))
"""


# every callable perfbench/probes.py replaces by attribute (ROADMAP, "The
# probe-name contract"): a rename makes every traced repetition fail
PROBED_NAMES = (
    "timestepper.assemble_loads", "monitor.assemble_loads",
    "cli.run_scheme", "cli.energy_report", "cli.estimate_all",
    "cli.convergence_study", "cli.main", "cli.parse_config",
    "cli.build_rect_two_domain", "cli.validate", "cli.assemble_system",
    "mesh.build_rect_two_domain",
    "monitor.DataFunctionals.__init__",
    "monitor.DataFunctionals.cumulative_c1_sq",
    "monitor.DataFunctionals.cumulative_c2_sq", "monitor.DataFunctionals.c3",
    "monitor.DataFunctionals.l2_c1_sq", "monitor.DataFunctionals.pin_sq",
    "monitor.DataFunctionals.ff_sq",
    "assembly.BlockSystem.convection", "timestepper.spla.splu",
    "timestepper.sp.bmat", "timestepper.step",
    "constants.estimate", "constants.la.eigh", "constants.spla.eigsh",
    "verify.run", "verify.assemble_system", "verify.compute_errors",
    "verify.interface_residuals",
    "io.write_constants", "io.write_certificate", "io.write_summary",
    "io.write_manifest", "io.write_convergence", "io.emit_vtk",
    "io.file_digest", "io.mesh_digest", "io.format_convergence")


@pytest.mark.parametrize("name", PROBED_NAMES)
def test_probed_callable_exists_under_its_name(name):
    *path, attr = name.split(".")
    owner = fpsi
    for part in path:
        owner = getattr(owner, part)
    # a class's own method, not one it inherits
    assert attr in (vars(owner) if inspect.isclass(owner) else dir(owner))
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("solve", [cli.run_scheme, fpsi.verify.run])
def test_probed_solve_takes_the_initial_state_and_on_step(solve):
    """perfbench's timing probe calls the solve with ``on_step`` (its step
    clock) and forwards ``initial_state``."""
    assert {"initial_state", "on_step"} <= set(
        inspect.signature(solve).parameters)


def test_benchmark_probes_wrap_a_certified_run(tmp_path):
    """perfbench's timing and span probes wrap ``run_scheme``'s
    ``on_step(state, diag)``, both layers' ``assemble_loads``,
    ``BlockSystem.convection``, the ``DataFunctionals`` methods and the
    stepper's ``spla.splu``, ``sp.bmat`` and factor ``solve`` by name; a
    certified run under them must still complete.  The certificate reads
    each step's load work and convection power from the solve, so the
    monitor assembles no loads: the stepper's one per step are all."""
    root = Path(__file__).resolve().parents[1]
    cfg = _config(tmp_path, "[mesh]\nnx = 4\nny = 4\n\n[data]\n"
                  "f_f_x = sin(pi*x)*cos(t)\nf_f_y = 0\np_in = 1 + t\n\n"
                  "[scheme]\ndt = 0.005\nt_final = 0.01\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _PROBED_RUN, str(root), cfg],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0
    assert len(result["step_ms"]) == 2
    assert "monitor.energy_report" in result["spans"]
    assert "monitor.datafunc" in result["spans"]
    layers = result["layers"]
    assert layers["monitor.loads_calls"] == 0
    assert layers["assembly.loads_calls"] == 2
    assert layers["assembly.convection_calls"] > 2
    assert layers["monitor.energy_report_s"] > 0.0
    # the stepper factors through timestepper.spla.splu, assembles through
    # timestepper.sp.bmat and solves through the factor's solve: a path
    # around any of them would read zero here
    assert layers["timestepper.splu_calls"] == 1
    assert layers["timestepper.lu_solve_s"] > 0.0
    assert layers["timestepper.bmat_s"] > 0.0
    assert layers["timestepper.lu_fill_ratio"] > 1.0
