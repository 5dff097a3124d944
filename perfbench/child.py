"""One repetition of a workload in a fresh process.

Started by ``run.py`` in the repetition's own directory (which holds the
configuration file and receives the program's outputs)::

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 \
        --spawned-at T [--setup-only]

It imports fpsi from ``src/`` of the checkout, installs the probes, calls
``fpsi.cli.main`` with the workload's arguments exactly as a user would,
reads back the outputs the program wrote, and leaves ``result.json`` (and,
when traced, ``trace.json``) in the working directory.
"""

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

import probes  # noqa: E402
import workloads  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="monotonic clock reading when the parent spawned "
                         "this process")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop when the first time step is due")
    ns = ap.parse_args()
    work = workloads.WORKLOADS[ns.workload]

    start = probes.clock()
    import fpsi.cli as cli
    import_s = probes.clock() - start

    timing = probes.Timing()
    finish = probes.install_timing(timing, ns.seed,
                                   stop_at_first_step=ns.setup_only)
    tracer = None
    if ns.trace:
        tracer = probes.Tracer(run_id=os.path.basename(os.getcwd()))
        probes.install_spans(tracer)
        tracer.add("cli.import", start, start + import_s)

    try:
        rc = cli.main(work.argv)
    except probes.StopAtFirstStep:
        rc = None
    finish()

    result = {
        "exit_code": rc,
        "setup_s": timing.first_step_at - ns.spawned_at,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if not ns.setup_only:
        result["outputs"] = work.read_outputs("out")
    if tracer is not None:
        result["layers"] = probes.layer_metrics(tracer, import_s, timing)
        result["counts"] = dict(sorted(tracer.counts.items()))
        with open("trace.json", "w") as fh:
            json.dump({"run": tracer.run_id,
                       "self_times": tracer.self_times(),
                       "counts": result["counts"],
                       "spans": tracer.spans}, fh)
    with open("result.json", "w") as fh:
        json.dump(result, fh)
    return 0 if rc in (0, None) else 1


if __name__ == "__main__":
    sys.exit(main())
