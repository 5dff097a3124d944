"""The fpsi benchmark: certified runs and the MMS study, end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cert-n16-euler --seed 1 \
        --seconds 50 --trace 0

Each repetition runs ``fpsi`` in a fresh child process (``child.py``), one
at a time, with BLAS/OpenMP threads pinned to 1, so import cost and peak
memory count the way a user pays them.  Repetitions repeat until
``--seconds`` pass; every one is checked by the correctness gate
(``gate.py``).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of traced repetitions plus the tracing overhead
against one untraced repetition.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full record, with the environment, goes to
``.perfbench_work/results/``.  See ``perfbench/README.md``.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import gate  # noqa: E402
import workloads  # noqa: E402

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# no repetition starts unless it can end by then, judged by the longest
# repetition so far; a whole run stays well inside three minutes
RUN_LIMIT_S = 165.0
CHILD_TIMEOUT_S = 170.0


class Rep:
    """One child process: how it ended and what it reported."""

    def __init__(self, label, wall_s, exit_code, result, problems):
        self.label = label
        self.wall_s = wall_s
        self.exit_code = exit_code
        self.result = result
        self.problems = problems

    @property
    def ok(self):
        return not self.problems


def spawn(name, seed, trace, repdir, setup_only=False, gated=True):
    work = workloads.WORKLOADS[name]
    shutil.rmtree(repdir, ignore_errors=True)
    os.makedirs(repdir)
    if work.config is not None:
        with open(os.path.join(repdir, workloads.CONFIG_FILE), "w") as fh:
            fh.write(work.config)
    env = dict(os.environ, **THREAD_ENV)
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", name, "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    with open(os.path.join(repdir, "child.log"), "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)],
                                cwd=repdir, env=env, stdout=log,
                                stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL)
        # a blocking wait returns the moment the child ends; a wait with a
        # timeout polls, which rounds the wall time up by as much as 50 ms
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            exit_code = proc.wait()
            if killer.finished.is_set():
                exit_code = None
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall_s = time.monotonic() - spawned

    label = os.path.basename(repdir)
    problems = []
    result = None
    path = os.path.join(repdir, "result.json")
    if exit_code != 0:
        problems.append("exit code %s" % exit_code)
    elif not os.path.exists(path):
        problems.append("no result.json")
    else:
        with open(path) as fh:
            result = json.load(fh)
        if gated and not setup_only:
            problems += gate.check(name, result["outputs"],
                                   gate.load_reference())
    if problems:
        with open(os.path.join(repdir, "child.log")) as fh:
            tail = fh.read()[-2000:]
        print("%s failed: %s\n%s" % (label, "; ".join(problems[:5]), tail),
              file=sys.stderr)
    return Rep(label, wall_s, exit_code, result, problems)


def repeat(name, seed, trace, seconds, rundir, start, reps, tag=""):
    """Full repetitions filling ``seconds``, at least the workload's
    minimum; appends to ``reps``.

    Another repetition starts only if, at the median length so far, it
    ends less than half a repetition after ``seconds``: the count of
    repetitions then depends on the machine's speed, not on where a
    repetition happens to end against the deadline.
    """
    least = workloads.WORKLOADS[name].repetitions
    begun = time.monotonic()
    walls = []
    while True:
        rep = spawn(name, seed, trace,
                    os.path.join(rundir, "rep%d%s" % (len(reps), tag)))
        reps.append(rep)
        walls.append(rep.wall_s)
        typical = statistics.median(walls)
        now = time.monotonic()
        if (not rep.ok
                or (len(walls) >= least
                    and now - begun + typical / 2 > seconds)
                or now - start + max(walls) > RUN_LIMIT_S):
            return


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(name, seed, seconds, rundir, start):
    reps = []
    repeat(name, seed, 0, seconds, rundir, start, reps)
    full = [r for r in reps if r.ok]
    setups = [r.result["setup_s"] for r in full]
    # set-up-only repetitions top the set-up sample up to the workload's
    # minimum
    while (full and len(setups) < workloads.WORKLOADS[name].setup_samples
           and time.monotonic() - start + 2 * max(setups) <= RUN_LIMIT_S):
        probe = spawn(name, seed, 0, os.path.join(
            rundir, "setup%d" % len(setups)), setup_only=True)
        reps.append(probe)
        if not probe.ok:
            break
        setups.append(probe.result["setup_s"])
    metrics = {
        "wall_s": _median([r.wall_s for r in full]),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([r.result["peak_rss_mb"] for r in full]),
    }
    samples = {"repetitions": len(full), "setup": len(setups)}
    return reps, metrics, samples


def per_layer(name, seed, seconds, rundir, start):
    reps = []
    plain = spawn(name, seed, 0, os.path.join(rundir, "untraced"))
    reps.append(plain)
    if plain.ok:
        repeat(name, seed, 1, seconds, rundir, start, reps, tag="-traced")
    traced = [r for r in reps[1:] if r.ok]
    metrics = {}
    if traced:
        layers = [r.result["layers"] for r in traced]
        # counts repeat exactly between repetitions, so their median is
        # the count itself; times and ratios take the median
        metrics = {key: statistics.median_low([l[key] for l in layers])
                   if isinstance(layers[0][key], int)
                   else statistics.median([l[key] for l in layers])
                   for key in layers[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(r.wall_s for r in traced) - plain.wall_s)
    counts = [r.result["counts"] for r in traced]
    samples = {"repetitions": len(traced),
               "counts_repeat": all(c == counts[0] for c in counts),
               "counts": counts[0] if counts else None}
    return reps, metrics, samples


def environment(seed):
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        blas = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    sources = sorted(glob.glob(os.path.join(SRC, "fpsi", "*.py")))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.basename(path).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": dict(THREAD_ENV),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_fpsi_lines": lines,
        "seed": seed,
    }


def record_reference():
    """Rewrite reference.json from one repetition of every workload."""
    reference = {}
    for name in workloads.NAMES:
        rep = spawn(name, 0, 0, os.path.join(WORK, "reference", name),
                    gated=False)
        if rep.exit_code != 0 or rep.result is None:
            sys.exit("%s did not run; reference not written" % name)
        reference[name] = rep.result["outputs"]
    with open(gate.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % gate.REFERENCE)


def main():
    # a terminated run still kills and reaps its child (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite perfbench/reference.json and exit")
    ns = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "fpsi", "cli.py")):
        print("no fpsi sources under %s; run from the root of a checkout"
              % SRC, file=sys.stderr)
        return 2
    if ns.record_reference:
        record_reference()
        return 0
    if ns.workload is None:
        ap.error("--workload is required")
    trouble = gate.selfcheck(gate.load_reference())
    if trouble:
        print("correctness gate self-check failed: %s" % trouble[0],
              file=sys.stderr)
        return 3

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    specs = declared["per_layer" if ns.trace else "end_to_end"]

    start = time.monotonic()
    rundir = os.path.join(WORK, "%s-seed%d-trace%d"
                          % (ns.workload, ns.seed, ns.trace))
    shutil.rmtree(rundir, ignore_errors=True)
    measure = per_layer if ns.trace else end_to_end
    reps, values, samples = measure(ns.workload, ns.seed, ns.seconds,
                                    rundir, start)
    failed = sum(not r.ok for r in reps)
    missing = [s["name"] for s in specs if values.get(s["name"]) is None]
    correct = failed == 0 and not missing
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
               for s in specs if s["name"] not in missing}

    record = {
        "workload": ns.workload,
        "seed": ns.seed,
        "seconds": ns.seconds,
        "trace": ns.trace,
        "environment": environment(ns.seed),
        "samples": samples,
        "metrics": metrics,
        "repetitions": [{"label": r.label, "wall_s": r.wall_s,
                         "exit_code": r.exit_code, "problems": r.problems}
                        for r in reps],
        "elapsed_s": time.monotonic() - start,
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    out = os.path.join(WORK, "results", os.path.basename(rundir) + ".json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)

    print("environment: %s" % json.dumps(record["environment"]))
    print("samples: %s" % json.dumps(
        {k: v for k, v in samples.items() if k != "counts"}))
    for spec in specs:
        value = values.get(spec["name"])
        print("  %-34s %14s %s" % (spec["name"],
                                   "missing" if value is None
                                   else "%.6g" % value, spec["unit"]))
    if missing:
        print("missing metrics: %s" % ", ".join(missing), file=sys.stderr)
    print("full record: %s" % os.path.relpath(out, ROOT))
    print(json.dumps({"correct": correct, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
