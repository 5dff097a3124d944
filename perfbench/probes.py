"""Spans, counters and the wrappers that attach them to fpsi's layers.

Nothing under ``src/`` is edited: every probe replaces a public callable at
the attribute a layer calls it through (``fpsi.timestepper.assemble_loads``,
``fpsi.timestepper.spla.splu``, ``fpsi.constants.estimate``, ...), so the
program runs its own code in its own order and the benchmark only watches.

Two sets of probes exist:

* :func:`install_timing` is always installed.  It marks the end of set-up
  (entry of the first trajectory solve), times every time step through
  ``on_step`` and brackets the certificate phase.  It adds a handful of
  clock reads per step and is what the end-to-end metrics come from.
* :func:`install_spans` is installed only in a traced run.  It records a
  span (name, start, end, parent, run id) at every layer boundary listed in
  ``perfbench/README.md`` and exact counts at the same boundaries.
"""

import functools
import os
import statistics
import time

clock = time.monotonic


class Tracer:
    """Spans held in memory plus exact event counts for one process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = {}
        self.samples = {}
        self._stack = []

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def open(self, name, **attrs):
        parent = self._stack[-1]["id"] if self._stack else None
        span = {"id": len(self.spans), "name": name, "parent": parent,
                "run": self.run_id, "start": clock(), "end": None}
        if attrs:
            span["attrs"] = attrs
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span["end"] = clock()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError("span %r closed out of order" % span["name"])

    def current(self):
        return self._stack[-1]["name"] if self._stack else None

    def add(self, name, start, end, **attrs):
        """Record an already finished span under the current one."""
        span = self.open(name, **attrs)
        span["start"], span["end"] = start, end
        self._stack.pop()
        return span

    def wrap(self, name, fn, attrs=None, on_result=None):
        """``fn`` inside a span; nested calls of the same name add no span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.current() == name:
                return fn(*args, **kwargs)
            span = tracer.open(name, **(attrs(*args, **kwargs) if attrs
                                        else {}))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result
        return wrapper

    # -- reduction -----------------------------------------------------

    def total(self, name, **match):
        """Summed duration of the spans called ``name`` matching ``match``."""
        return sum((s["end"] - s["start"] for s in self.spans
                    if s["name"] == name and s["end"] is not None
                    and all(s.get("attrs", {}).get(k) == v
                            for k, v in match.items())), 0.0)

    def self_times(self):
        """Per span name: calls, inclusive and self seconds."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = {}
        for s in self.spans:
            row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0,
                                             "self_s": 0.0})
            dur = s["end"] - s["start"]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[s["id"]]
        return out


class _ModuleProxy:
    """A stand-in for a module with some attributes replaced."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class StopAtFirstStep(Exception):
    """Raised by a set-up-only repetition when the first step is due."""


class Timing:
    """End-to-end timestamps of one repetition."""

    def __init__(self):
        self.first_step_at = None
        self.step_ms = []
        self.certify_s = 0.0
        self.solve_end = None


def install_timing(timing, seed, stop_at_first_step=False):
    """Probes behind the end-to-end metrics; returns a finish callback.

    ``seed`` is handed to ``estimate_all`` (it sets the random starts of
    the Sobolev estimator).  The finish callback closes the certificate
    phase of a ``run`` once ``cli.main`` has returned.
    """
    import fpsi.cli as cli
    import fpsi.verify as ver

    def timed_run(fn):
        @functools.wraps(fn)
        def wrapper(*args, on_step=None, **kwargs):
            start = clock()
            if timing.first_step_at is None:
                timing.first_step_at = start
                if stop_at_first_step:
                    raise StopAtFirstStep()
            last = [start]

            def stepped(state, diag):
                now = clock()
                timing.step_ms.append(1e3 * (now - last[0]))
                last[0] = now
                if on_step is not None:
                    on_step(state, diag)
            result = fn(*args, on_step=stepped, **kwargs)
            timing.solve_end = clock()
            return result
        return wrapper

    def certified(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                timing.certify_s += clock() - start
        return wrapper

    def seeded(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            kwargs.setdefault("seed", seed)
            return fn(*args, **kwargs)
        return wrapper

    cli.run_scheme = timed_run(cli.run_scheme)
    cli.estimate_all = seeded(cli.estimate_all)
    ver.run = timed_run(ver.run)
    # an MMS study certifies its result with error norms and residuals
    ver.compute_errors = certified(ver.compute_errors)
    ver.interface_residuals = certified(ver.interface_residuals)
    study = cli.convergence_study

    @functools.wraps(study)
    def study_wrapper(*args, **kwargs):
        result = study(*args, **kwargs)
        timing.solve_end = clock()
        return result
    cli.convergence_study = study_wrapper

    def finish():
        if timing.solve_end is not None:
            timing.certify_s += clock() - timing.solve_end
    return finish


def install_spans(tracer):
    """Layer spans and counts; call after :func:`install_timing`."""
    import fpsi.assembly as asm
    import fpsi.cli as cli
    import fpsi.constants as cst
    import fpsi.io as fio
    import fpsi.mesh as mesh
    import fpsi.monitor as mon
    import fpsi.timestepper as ts
    import fpsi.verify as ver

    wrap = tracer.wrap

    def counted(name):
        def bump(result, *args, **kwargs):
            tracer.count(name)
        return bump

    def bytes_of(position):
        def note(result, *args, **kwargs):
            tracer.count("io.bytes_written", os.path.getsize(args[position]))
        return note

    # cli
    cli.main = wrap("cli.main", cli.main)
    cli.parse_config = wrap("cli.parse_config", cli.parse_config)

    # mesh: cli imports the generator by name, verify through the module;
    # inside an MMS study each mesh build opens that level's span
    study_level = {}

    def mesh_build(fn):
        inner = wrap("mesh.build", fn)

        @functools.wraps(fn)
        def wrapper(nx, ny, split):
            if tracer.current() == "verify.study":
                study_level["span"] = tracer.open("verify.level", n=nx)
            return inner(nx, ny, split)
        return wrapper
    cli.build_rect_two_domain = mesh_build(cli.build_rect_two_domain)
    mesh.build_rect_two_domain = mesh_build(mesh.build_rect_two_domain)
    cli.validate = wrap("mesh.validate", cli.validate)

    # assembly
    cli.assemble_system = wrap("assembly.system", cli.assemble_system)
    ver.assemble_system = wrap("assembly.system", ver.assemble_system)

    def loads(fn, caller):
        def note(result, t, *args, **kwargs):
            tracer.count("assembly.loads_calls")
            tracer.count(caller + ".loads_calls")
            tracer.sample("assembly.load_times", round(float(t), 12))
        return wrap("assembly.loads", fn, on_result=note,
                    attrs=lambda *a, **k: {"caller": caller})
    ts.assemble_loads = loads(ts.assemble_loads, "timestepper")
    mon.assemble_loads = loads(mon.assemble_loads, "monitor")
    asm.BlockSystem.convection = wrap(
        "assembly.convection", asm.BlockSystem.convection,
        attrs=lambda self, alpha, jac=False: {"jac": jac},
        on_result=counted("assembly.convection_calls"))

    # constants
    cli.estimate_all = wrap("constants.estimate_all", cli.estimate_all)

    def note_estimate(result, kind, *args, **kwargs):
        if kind == "Sf":
            tracer.count("constants.Sf_best_iterations",
                         int(result.meta["best_iterations"]))
    cst.estimate = wrap("constants.estimate", cst.estimate,
                        attrs=lambda kind, *a, **k: {"kind": kind},
                        on_result=note_estimate)
    cst.la = _ModuleProxy(cst.la, eigh=wrap(
        "constants.dense_eigh", cst.la.eigh,
        on_result=counted("constants.dense_eigh_calls")))
    cst.spla = _ModuleProxy(cst.spla, eigsh=wrap(
        "constants.eigsh", cst.spla.eigsh,
        on_result=counted("constants.eigsh_calls")))

    # timestepper
    def note_step(result, *args, **kwargs):
        tracer.count("timestepper.newton_iters", int(result[1].iterations))
    ts.step = wrap("timestepper.step", ts.step, on_result=note_step)
    fill_sampled = set()

    class _TracedLU:
        def __init__(self, lu):
            self._lu = lu
            self.solve = wrap("timestepper.lu_solve", lu.solve)

        def __getattr__(self, name):
            return getattr(self._lu, name)

    splu = wrap("timestepper.splu", ts.spla.splu)

    def traced_splu(J, *args, **kwargs):
        lu = splu(J, *args, **kwargs)
        tracer.count("timestepper.splu_calls")
        run_span = next((s for s in reversed(tracer._stack)
                         if s["name"] == "timestepper.run"), None)
        key = None if run_span is None else run_span["id"]
        if key not in fill_sampled:
            # one factor per trajectory: nnz(L + U) over nnz(J)
            fill_sampled.add(key)
            tracer.sample("timestepper.lu_fill_ratio",
                          (lu.L.nnz + lu.U.nnz) / J.nnz)
        return _TracedLU(lu)
    ts.spla = _ModuleProxy(ts.spla, splu=traced_splu)
    ts.sp = _ModuleProxy(ts.sp, bmat=wrap("timestepper.bmat", ts.sp.bmat))
    cli.run_scheme = wrap("timestepper.run", cli.run_scheme)
    ver.run = wrap("timestepper.run", ver.run)

    # monitor
    cli.energy_report = wrap("monitor.energy_report", cli.energy_report)
    funcs = mon.DataFunctionals
    for method in ("__init__", "cumulative_c1_sq", "cumulative_c2_sq", "c3",
                   "l2_c1_sq", "pin_sq", "ff_sq"):
        setattr(funcs, method, wrap("monitor.datafunc",
                                    getattr(funcs, method)))

    # verify
    cli.convergence_study = wrap("verify.study", cli.convergence_study)
    ver.compute_errors = wrap("verify.errors", ver.compute_errors)
    residuals = wrap("verify.residuals", ver.interface_residuals)

    @functools.wraps(residuals)
    def residuals_then_close_level(*args, **kwargs):
        result = residuals(*args, **kwargs)
        span = study_level.pop("span", None)
        if span is not None:
            tracer.close(span)
        return result
    ver.interface_residuals = residuals_then_close_level

    # io: every writer and digest the run and mms commands call; the
    # argument position is where each writer takes its output path
    for name, position in (("write_constants", 0), ("write_certificate", 0),
                           ("write_summary", 0), ("write_manifest", 0),
                           ("write_convergence", 0), ("emit_vtk", 2)):
        setattr(fio, name, wrap("io.write", getattr(fio, name),
                                on_result=bytes_of(position)))
    fio.file_digest = wrap("io.digest", fio.file_digest)
    fio.mesh_digest = wrap("io.digest", fio.mesh_digest)
    fio.format_convergence = wrap("io.format", fio.format_convergence)


CONSTANT_KINDS = ("T1", "T2", "T3", "T4", "T5", "P1c", "P2c", "P3c", "Sf",
                  "Kf", "Kappa", "Cj")
LEVELS = (8, 16, 32)


def layer_metrics(tracer, import_s, timing):
    """Per-layer metrics of one traced repetition (bypassed layers are 0)."""
    t, c = tracer.total, tracer.counts.get
    steps = timing.step_ms
    iters = c("timestepper.newton_iters", 0)
    splu_calls = c("timestepper.splu_calls", 0)
    load_times = tracer.samples.get("assembly.load_times", [])
    fills = tracer.samples.get("timestepper.lu_fill_ratio", [])
    out = {}
    for kind in CONSTANT_KINDS:
        out["constants.%s_s" % kind] = t("constants.estimate", kind=kind)
    out.update({
        "constants.Sf_best_iterations": c("constants.Sf_best_iterations", 0),
        "constants.total_s": t("constants.estimate_all"),
        "constants.dense_eigh_calls": c("constants.dense_eigh_calls", 0),
        "constants.eigsh_calls": c("constants.eigsh_calls", 0),
        "timestepper.step_s": t("timestepper.step"),
        # per time step, from successive on_step callbacks; ten steps lie
        # beyond p90 on cert-n16-euler (100 steps), fewer elsewhere
        "timestepper.step_ms_p50": statistics.median(steps),
        "timestepper.step_ms_p90": statistics.quantiles(steps, n=10)[-1],
        "timestepper.newton_iters": iters,
        "timestepper.splu_calls": splu_calls,
        "timestepper.splu_s": t("timestepper.splu"),
        "timestepper.bmat_s": t("timestepper.bmat"),
        "timestepper.lu_solve_s": t("timestepper.lu_solve"),
        "timestepper.splu_per_iter": splu_calls / iters if iters else 0.0,
        "timestepper.lu_fill_ratio": (statistics.median(fills) if fills
                                      else 0.0),
        "assembly.loads_calls": c("assembly.loads_calls", 0),
        "assembly.loads_s": t("assembly.loads"),
        "assembly.loads_distinct_ratio": (len(set(load_times))
                                          / len(load_times)
                                          if load_times else 0.0),
        "assembly.convection_calls": c("assembly.convection_calls", 0),
        "assembly.convection_s": t("assembly.convection"),
        "monitor.energy_report_s": t("monitor.energy_report"),
        "monitor.loads_calls": c("monitor.loads_calls", 0),
        "monitor.datafunc_s": t("monitor.datafunc"),
    })
    for n in LEVELS:
        out["verify.level%d_s" % n] = t("verify.level", n=n)
    out.update({
        "verify.errors_s": t("verify.errors"),
        "verify.residuals_s": t("verify.residuals"),
        "mesh.build_s": t("mesh.build") + t("mesh.validate"),
        "assembly.system_s": t("assembly.system"),
        "cli.import_s": import_s,
        "cli.parse_config_s": t("cli.parse_config"),
        "cli.certify_s": timing.certify_s,
        "io.writers_s": t("io.write") + t("io.digest") + t("io.format"),
        "io.bytes_written": c("io.bytes_written", 0),
    })
    return out
