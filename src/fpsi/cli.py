"""Command-line surface: configuration files, runs, studies and reports.

Configuration files are line-oriented ``key = value`` under ``[section]``
headers; blank lines and ``#`` comments are skipped.  Sections and keys:

``[mesh]``
    ``nx``, ``ny``, ``split`` for the structured generator, or ``file``
    pointing at a mesh file (mutually exclusive with the generator keys).
``[params]``
    ``rho_f``, ``mu_f``, ``rho_s``, ``mu_s``, ``lambda_s``, ``s0``,
    ``alpha_bw``, ``beta_slip`` and either scalar ``k`` or the tensor
    entries ``k11``, ``k12``, ``k22``.
``[data]``
    Expression strings over ``x``, ``y``, ``t`` (numbers, ``+ - * /``,
    integer ``^``, ``sin``, ``cos``, ``exp``, parentheses, ``pi``):
    ``f_f_x``/``f_f_y``, ``f_s_x``/``f_s_y``, ``f_p``, ``p_in``; plus a
    numeric ``scale`` multiplying all of them.
``[scheme]``
    ``scheme`` (``euler``/``midpoint``), ``dt``, ``t_final``,
    ``newton_tol``, ``newton_max``.
``[run]``
    ``output_dir``, ``constants_table`` (CSV path, listing each constant
    kind once; omitted means the constants are estimated on the run mesh,
    at the generator's ``nx`` as level or level 0 for a mesh file), and
    the boolean toggles
    ``skew_symmetric_convection`` (default off), ``emit_vtk`` (default
    on), ``emit_certificate`` (default on).

Exit codes: 0 success, 1 usage, configuration or mesh error (a mesh file
that :func:`~fpsi.mesh.validate` rejects included), 2 solver failure or a
constant that cannot be estimated, 3 certificate flag failure under
``--strict``.
"""

import argparse
import os
import platform
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import __version__
from . import io as fio
from .assembly import ParameterError, PhysicalParams, ProblemData, assemble_system
from .constants import CONSTANT_KINDS, ConstantError, estimate_all
from .expressions import ExpressionError, parse_expression
from .mesh import MeshFormatError, build_rect_two_domain, read_mesh, validate
from .monitor import (CertificateStream, DataFunctionals, check_small_data,
                      energy_report)
from .timestepper import SchemeConfig, StepError
from .timestepper import run as run_scheme
from .verify import CASE_IDS, StudyError, convergence_study

# summary flags that make `run --strict` fail with exit code 3
STRICT_FLAGS = ("identity_ok", "mainbound1_ok", "dumbound_ok",
                "uniqueness_ok", "mb2_root_ok", "gronwall_premise_ok",
                "gronwall_conclusion_ok")

_SECTIONS = {
    "mesh": ("nx", "ny", "split", "file"),
    "params": ("rho_f", "mu_f", "rho_s", "mu_s", "lambda_s", "s0",
               "alpha_bw", "beta_slip", "k", "k11", "k12", "k22"),
    "data": ("f_f_x", "f_f_y", "f_s_x", "f_s_y", "f_p", "p_in", "scale"),
    "scheme": ("scheme", "dt", "t_final", "newton_tol", "newton_max"),
    "run": ("output_dir", "constants_table", "skew_symmetric_convection",
            "emit_vtk", "emit_certificate"),
}

_PARAM_KEYS = ("rho_f", "mu_f", "rho_s", "mu_s", "lambda_s", "s0",
               "alpha_bw", "beta_slip")


class ConfigError(ValueError):
    """A syntactic (with line/column) or semantic (with key path) problem."""

    def __init__(self, message, line=None, column=None):
        if line is not None and column is not None:
            message = "line %d, column %d: %s" % (line, column, message)
        elif line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line
        self.column = column


@dataclass
class RunConfig:
    """A fully validated configuration with documented defaults."""

    nx: int = 8
    ny: int = 8
    split: float = 0.5
    mesh_file: str = None
    params: PhysicalParams = field(default_factory=PhysicalParams)
    data: ProblemData = field(default_factory=ProblemData)
    scheme: SchemeConfig = field(default_factory=SchemeConfig)
    output_dir: str = "out"
    constants_table: str = None
    skew_symmetric_convection: bool = False
    emit_vtk: bool = True
    emit_certificate: bool = True


def _read_entries(path):
    """Parse the raw key/value grid: {(section, key): (text, line, col)}."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    entries = {}
    section = None
    for no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError("unterminated section header",
                                  line=no, column=len(line))
            name = stripped[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(
                    "unknown section [%s]; expected one of %s"
                    % (name, ", ".join(sorted(_SECTIONS))), line=no)
            section = name
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=no, column=1)
        if section is None:
            raise ConfigError("key outside any [section]", line=no, column=1)
        eq = line.index("=")
        key = line[:eq].strip()
        rhs = line[eq + 1:]
        if key not in _SECTIONS[section]:
            raise ConfigError("unknown key %s.%s" % (section, key), line=no)
        if (section, key) in entries:
            raise ConfigError("duplicate key %s.%s" % (section, key), line=no)
        col = eq + 2 + (len(rhs) - len(rhs.lstrip()))
        entries[(section, key)] = (rhs.strip(), no, col)
    return entries


def _bool(text):
    low = text.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError("expected a boolean, got %r" % text)


def _keyed_error(section, exc):
    """Prefix a dataclass validation message with its best key path."""
    message = str(exc)
    token = message.split()[0].lower() if message else ""
    if token in _SECTIONS[section]:
        return ConfigError("%s.%s: %s" % (section, token, message))
    return ConfigError("%s: %s" % (section, message))


def parse_config(path):
    """Read and fully validate a configuration file into a RunConfig."""
    entries = _read_entries(path)

    def take(section, key, conv, default):
        if (section, key) not in entries:
            return default
        text, no, col = entries.pop((section, key))
        try:
            return conv(text)
        except ExpressionError as exc:
            column = col + (exc.position or 0)
            raise ConfigError("%s.%s: %s" % (section, key, exc),
                              line=no, column=column) from None
        except ValueError as exc:
            raise ConfigError("%s.%s: %s" % (section, key, exc),
                              line=no) from None

    generator_keys = [k for k in ("nx", "ny", "split")
                      if ("mesh", k) in entries]
    nx = take("mesh", "nx", int, 8)
    ny = take("mesh", "ny", int, 8)
    split = take("mesh", "split", float, 0.5)
    mesh_file = take("mesh", "file", str, None)
    if mesh_file is not None:
        if generator_keys:
            raise ConfigError(
                "mesh.file: excludes the generator keys (%s given)"
                % ", ".join(generator_keys))
        if not os.path.exists(mesh_file):
            raise ConfigError("mesh.file: no such file %r" % mesh_file)
    else:
        if nx < 1:
            raise ConfigError("mesh.nx: must be at least 1, got %d" % nx)
        if ny < 2:
            raise ConfigError("mesh.ny: must be at least 2, got %d" % ny)
        if not 0.0 < split < 1.0:
            raise ConfigError(
                "mesh.split: must lie strictly inside (0, 1), got %r" % split)

    pkw = {}
    for name in _PARAM_KEYS:
        value = take("params", name, float, None)
        if value is not None:
            pkw[name] = value
    k_scalar = take("params", "k", float, None)
    k11 = take("params", "k11", float, None)
    k12 = take("params", "k12", float, None)
    k22 = take("params", "k22", float, None)
    if k_scalar is not None and (k11, k12, k22) != (None, None, None):
        raise ConfigError(
            "params.k: give either scalar k or k11/k12/k22, not both")
    if k_scalar is not None:
        pkw["K"] = k_scalar
    elif (k11, k12, k22) != (None, None, None):
        k11 = 1.0 if k11 is None else k11
        k12 = 0.0 if k12 is None else k12
        k22 = 1.0 if k22 is None else k22
        pkw["K"] = np.array([[k11, k12], [k12, k22]])
    try:
        params = PhysicalParams(**pkw)
    except ParameterError as exc:
        raise _keyed_error("params", exc) from None

    def expr(text):
        return parse_expression(text)

    ffx = take("data", "f_f_x", expr, None)
    ffy = take("data", "f_f_y", expr, None)
    if (ffx is None) != (ffy is None):
        raise ConfigError("data.f_f_x: f_f_x and f_f_y must be given together")
    fsx = take("data", "f_s_x", expr, None)
    fsy = take("data", "f_s_y", expr, None)
    if (fsx is None) != (fsy is None):
        raise ConfigError("data.f_s_x: f_s_x and f_s_y must be given together")
    f_p = take("data", "f_p", expr, None)
    p_in = take("data", "p_in", expr, None)
    scale = take("data", "scale", float, 1.0)
    data = ProblemData(
        f_f=None if ffx is None else (ffx, ffy),
        f_s=None if fsx is None else (fsx, fsy),
        f_p=f_p, P_in=p_in)
    if scale != 1.0:
        try:
            data = data.scaled(scale)
        except ExpressionError as exc:
            raise ConfigError("data.scale: %s" % exc) from None

    skw = {}
    for name, conv in (("scheme", str), ("dt", float), ("t_final", float),
                       ("newton_tol", float), ("newton_max", int)):
        value = take("scheme", name, conv, None)
        if value is not None:
            skw[name] = value
    try:
        scheme = SchemeConfig(**skw)
    except ValueError as exc:
        raise _keyed_error("scheme", exc) from None

    constants_table = take("run", "constants_table", str, None)
    if constants_table is not None and not os.path.exists(constants_table):
        raise ConfigError(
            "run.constants_table: no such file %r" % constants_table)

    return RunConfig(
        nx=nx, ny=ny, split=split, mesh_file=mesh_file,
        params=params, data=data, scheme=scheme,
        output_dir=take("run", "output_dir", str, "out"),
        constants_table=constants_table,
        skew_symmetric_convection=take(
            "run", "skew_symmetric_convection", _bool, False),
        emit_vtk=take("run", "emit_vtk", _bool, True),
        emit_certificate=take("run", "emit_certificate", _bool, True),
    )


# ---------------------------------------------------------------------------
# subcommand helpers
# ---------------------------------------------------------------------------

def _build_mesh(cfg):
    if cfg.mesh_file is not None:
        mesh = read_mesh(cfg.mesh_file)
    else:
        try:
            mesh = build_rect_two_domain(cfg.nx, cfg.ny, cfg.split)
        except ValueError as exc:
            raise ConfigError("mesh: %s" % exc) from None
    problems = validate(mesh)
    if problems:
        raise MeshFormatError("; ".join(problems))
    return mesh


def _read_table(cfg):
    """The config's constants table and its provenance; None when the
    constants are estimated on the run mesh.  The table must list each of
    ``CONSTANT_KINDS`` once, as ``fpsi constants`` writes it."""
    if cfg.constants_table is None:
        return None
    try:
        constants = fio.read_constants(cfg.constants_table)
    except ValueError as exc:
        raise ConfigError("run.constants_table: %s" % exc) from None
    kinds = [est.kind for est in constants]
    missing = [kind for kind in CONSTANT_KINDS if kind not in kinds]
    repeated = [kind for kind in CONSTANT_KINDS if kinds.count(kind) > 1]
    problems = (["missing " + ", ".join(missing)] if missing else []) + (
        ["repeated " + ", ".join(repeated)] if repeated else [])
    if problems:
        raise ConfigError(
            "run.constants_table: %s: %s (a table lists each of the %d "
            "kinds once)" % (cfg.constants_table, "; ".join(problems),
                             len(CONSTANT_KINDS)))
    return (constants,
            {"source": "file", "file": os.path.basename(cfg.constants_table),
             "sha256": fio.file_digest(cfg.constants_table)})


def _estimated(cfg, blocks):
    """The constants estimated on the run mesh and their provenance.  A
    mesh file has no generator level: its constants carry level 0, and the
    manifest's mesh entry names the file."""
    if cfg.mesh_file is not None:
        return estimate_all(blocks), {"source": "computed"}
    return (estimate_all(blocks, level=cfg.nx),
            {"source": "computed", "mesh_level": cfg.nx})


def _versions():
    return {"fpsi": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version()}


def _write_manifest(outdir, inputs, outputs):
    manifest = dict(inputs)
    manifest["outputs"] = {name: fio.file_digest(os.path.join(outdir, name))
                           for name in outputs}
    manifest["versions"] = _versions()
    path = os.path.join(outdir, "manifest.json")
    fio.write_manifest(path, manifest)
    return path


def _mesh_entry(cfg, mesh):
    entry = {"sha256": fio.mesh_digest(mesh),
             "vertices": mesh.num_vertices,
             "triangles": mesh.num_triangles}
    if cfg.mesh_file is not None:
        entry["source"] = "file"
        entry["file"] = os.path.basename(cfg.mesh_file)
    else:
        entry.update(source="generated", nx=cfg.nx, ny=cfg.ny,
                     split=cfg.split)
    return entry


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_run(ns):
    cfg = parse_config(ns.config)
    mesh = _build_mesh(cfg)
    blocks = assemble_system(mesh, cfg.params, convection=True,
                             skew=cfg.skew_symmetric_convection)
    # a table is read before the first step, so a bad one costs no solve
    table = _read_table(cfg)

    # the certificate's window forms are computed as the states come, so
    # the run holds one window of states, not the trajectory
    state = blocks.zero_state()
    stream = (CertificateStream(blocks, cfg.scheme.scheme, cfg.scheme.dt,
                                state) if cfg.emit_certificate else None)
    result = run_scheme(blocks, cfg.data, cfg.scheme, initial_state=state,
                        on_step=None if stream is None else stream.add)
    # estimated once the trajectory's factor is gone, the constants' heap
    # does not sit under it: the run peaks at the larger of the two phases
    constants, provenance = table or _estimated(cfg, blocks)

    outdir = cfg.output_dir
    os.makedirs(outdir, exist_ok=True)
    outputs = ["constants.csv"]
    fio.write_constants(os.path.join(outdir, "constants.csv"), constants)
    if cfg.emit_vtk:
        fio.emit_vtk(result.state, blocks.dm,
                     os.path.join(outdir, "solution.vtk"))
        outputs.append("solution.vtk")

    report = None
    if stream is not None:
        # the certificate reuses the inlet lifting that estimated Cj; a
        # constants table carries none, so DataFunctionals builds its own
        lifting = next((e.meta["lifting"] for e in constants
                        if "lifting" in e.meta), None)
        funcs = DataFunctionals(mesh, blocks.params, cfg.data, constants,
                                lifting=lifting)
        report = energy_report(stream, blocks, cfg.data, constants,
                               funcs=funcs, newton_tol=cfg.scheme.newton_tol)
        fio.write_certificate(os.path.join(outdir, "certificate.csv"),
                              report)
        fio.write_summary(os.path.join(outdir, "certificate_summary.json"),
                          report.summary)
        outputs += ["certificate.csv", "certificate_summary.json"]

    inputs = {
        "config": {"file": os.path.basename(ns.config),
                   "sha256": fio.file_digest(ns.config)},
        "mesh": _mesh_entry(cfg, mesh),
        "constants": provenance,
        "scheme": {"scheme": cfg.scheme.scheme, "dt": cfg.scheme.dt,
                   "t_final": cfg.scheme.t_final},
    }
    _write_manifest(outdir, inputs, outputs)

    print("completed %d steps of %r to t = %s"
          % (len(result.diagnostics), cfg.scheme.scheme, result.state.t))
    diags = result.diagnostics
    print("newton: %d iterations, %d GMRES iterations, %d factorizations, "
          "factor fill %d" % (sum(d.iterations for d in diags),
                              sum(d.krylov_iterations for d in diags),
                              sum(d.factorizations for d in diags),
                              sum(d.factor_fill for d in diags)))
    if report is not None:
        print("final energy %.6e, total dissipation %.6e"
              % (report.summary["final_energy"],
                 report.summary["total_dissipation"]))
        for name in STRICT_FLAGS:
            print("  %s: %s" % (name, report.summary[name]))
        for name, detail in report.summary["flag_detail"].items():
            if detail["first_fail_step"] is not None:
                print("  %s fails from step %d, worst margin %.6g at step %d"
                      % (name, detail["first_fail_step"],
                         detail["worst_margin"], detail["worst_step"]))
    print("outputs written to %s" % outdir)

    if ns.strict and report is not None:
        failed = [name for name in STRICT_FLAGS if not report.summary[name]]
        if failed:
            print("certificate flags failed: %s" % ", ".join(failed),
                  file=sys.stderr)
            return 3
    return 0


def _cmd_mms(ns):
    for bad, problem in (
            (ns.levels < 3, "need at least 3 levels for rate estimates, "
                            "got %d" % ns.levels),
            (ns.steps < 1, "--steps must be at least 1, got %d" % ns.steps),
            (not ns.t_final > 0.0, "--t-final must be positive, got %s"
                                   % ns.t_final)):
        if bad:
            print("mms: %s" % problem, file=sys.stderr)
            return 1
    levels = tuple(8 * 2 ** k for k in range(ns.levels))
    table = convergence_study(ns.case, levels=levels, scheme=ns.scheme,
                              t_final=ns.t_final, steps_coarsest=ns.steps)
    os.makedirs(ns.out, exist_ok=True)
    name = "convergence_%s.csv" % ns.case
    fio.write_convergence(os.path.join(ns.out, name), table)
    inputs = {
        "study": {"case": ns.case, "levels": list(levels),
                  "scheme": ns.scheme, "t_final": ns.t_final,
                  "steps_coarsest": ns.steps},
    }
    _write_manifest(ns.out, inputs, [name])
    print(fio.format_convergence(table))
    print("wrote %s" % os.path.join(ns.out, name))
    return 0


def _cmd_constants(ns):
    cfg = parse_config(ns.config)
    mesh = _build_mesh(cfg)
    blocks = assemble_system(mesh, cfg.params, convection=False)
    constants, provenance = _read_table(cfg) or _estimated(cfg, blocks)
    outdir = cfg.output_dir
    os.makedirs(outdir, exist_ok=True)
    fio.write_constants(os.path.join(outdir, "constants.csv"), constants)
    inputs = {
        "config": {"file": os.path.basename(ns.config),
                   "sha256": fio.file_digest(ns.config)},
        "mesh": _mesh_entry(cfg, mesh),
        "constants": provenance,
    }
    _write_manifest(outdir, inputs, ["constants.csv"])
    for est in constants:
        print("%-6s %-22s (level %d, %d dofs)"
              % (est.kind, repr(float(est.value)), est.mesh_level, est.dofs))
    print("wrote %s" % os.path.join(outdir, "constants.csv"))
    return 0


def _cmd_check_small_data(ns):
    cfg = parse_config(ns.config)
    mesh = _build_mesh(cfg)
    blocks = assemble_system(mesh, cfg.params, convection=False)
    constants, _ = _read_table(cfg) or _estimated(cfg, blocks)
    report = check_small_data(mesh, cfg.params, cfg.data,
                              cfg.scheme.t_final, constants)
    print("small-data condition satisfied: %s" % report.ok)
    print("  lhs       = %s" % repr(report.lhs))
    print("  threshold = %s" % repr(report.rhs))
    print("  margin    = %s" % repr(report.margin))
    print("  critical data scale s* = %s" % repr(report.s_star))
    return 0


def _cmd_validate_mesh(ns):
    try:
        mesh = read_mesh(ns.path)
        problems = validate(mesh)
    except (MeshFormatError, ValueError) as exc:
        problems = [str(exc)]
    if problems:
        print("invalid mesh: %s" % "; ".join(problems), file=sys.stderr)
        return 1
    print("valid mesh: %d vertices, %d triangles, %d tagged facets"
          % (mesh.num_vertices, mesh.num_triangles, len(mesh.facets)))
    return 0


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError("%serror: %s" % (self.format_usage(), message))


def _build_parser():
    parser = _Parser(prog="fpsi",
                     description="coupled flow/poroelasticity solver with "
                                 "energy-bound certificates")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("run", help="simulate a configured problem and "
                                   "emit its certificate")
    p.add_argument("config", help="configuration file")
    p.add_argument("--strict", action="store_true",
                   help="exit with code 3 when a certificate flag fails")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("mms", help="manufactured-solution convergence study")
    p.add_argument("case", choices=CASE_IDS)
    p.add_argument("levels", type=int, help="number of mesh levels "
                                            "starting from n = 8")
    p.add_argument("--scheme", choices=("euler", "midpoint"),
                   default="midpoint")
    p.add_argument("--t-final", dest="t_final", type=float, default=0.1)
    p.add_argument("--steps", type=int, default=8,
                   help="time steps on the coarsest level")
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=_cmd_mms)

    p = sub.add_parser("constants",
                       help="estimate the surrogate constant table")
    p.add_argument("config")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("check-small-data",
                       help="evaluate the data-smallness condition and "
                            "the critical scale")
    p.add_argument("config")
    p.set_defaults(func=_cmd_check_small_data)

    p = sub.add_parser("validate-mesh", help="check a mesh file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_validate_mesh)
    return parser


def main(argv=None):
    """Run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    if getattr(ns, "func", None) is None:
        print(parser.format_usage(), end="", file=sys.stderr)
        return 1
    try:
        return ns.func(ns)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except MeshFormatError as exc:
        print("mesh error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 1
    except (StepError, StudyError) as exc:
        print("solver failure: %s" % exc, file=sys.stderr)
        return 2
    except ConstantError as exc:
        print("constant error: %s" % exc, file=sys.stderr)
        return 2


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
