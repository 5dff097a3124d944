"""The benchmark's workloads and how to read back what each one wrote.

``perfbench/README.md`` says why each workload exists.  A workload is the
``fpsi`` command line a user would type, run in a directory that holds its
configuration file; every output lands in ``out/`` of that directory.
"""

import csv
import hashlib
import json
import os

# the README example, exactly as the README prints it
README_CONFIG = """\
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

# the same data and dt on 32 x 32 with the midpoint rule, 6 steps
N32_CONFIG = (README_CONFIG
              .replace("nx = 16", "nx = 32").replace("ny = 16", "ny = 32")
              .replace("scheme  = euler", "scheme  = midpoint")
              .replace("t_final = 0.5", "t_final = 0.03"))

CONFIG_FILE = "fpsi.cfg"


def _digests_match(outdir):
    """Every output listed in manifest.json exists and has its digest."""
    with open(os.path.join(outdir, "manifest.json")) as fh:
        listed = json.load(fh)["outputs"]
    for name, digest in listed.items():
        with open(os.path.join(outdir, name), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != digest:
                return False
    return bool(listed)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class CertifiedRun:
    """``fpsi run fpsi.cfg``: trajectory, constants and certificate."""

    argv = ["run", CONFIG_FILE]
    setup_samples = 3

    def __init__(self, config, repetitions):
        self.config = config
        self.repetitions = repetitions

    def read_outputs(self, outdir):
        with open(os.path.join(outdir, "certificate_summary.json")) as fh:
            summary = json.load(fh)
        constants = {row["kind"]: float(row["value"]) for row in
                     _read_csv(os.path.join(outdir, "constants.csv"))}
        return {
            "manifest_ok": _digests_match(outdir),
            "n_steps": summary["n_steps"],
            "constants": constants,
            "summary": {key: summary[key] for key in
                        ("final_energy", "total_dissipation", "max_du_norm",
                         "c3")},
            "flags": {key: value for key, value in sorted(summary.items())
                      if key.endswith("_ok")},
        }


class MmsStudy:
    """``fpsi mms smooth-trig 3`` over 3/8 of its time span (same meshes,
    same step size at n = 8 and 32): the criterion-4 refinement study in
    a 17 s repetition, so a run affords three."""

    config = None
    argv = ["mms", "smooth-trig", "3", "--t-final", "0.0375", "--steps", "3",
            "--out", "out"]
    repetitions = 1
    setup_samples = 5

    def read_outputs(self, outdir):
        rows = _read_csv(os.path.join(outdir, "convergence_smooth-trig.csv"))
        levels = {}
        for row in rows:
            levels[row["level"]] = {
                "n_steps": int(row["n_steps"]),
                "errors": {k: float(v) for k, v in row.items()
                           if k.startswith("e_")},
                "rates": {k: float(v) for k, v in row.items()
                          if k.startswith("rate_") and v},
                "residuals": {k: float(v) for k, v in row.items()
                              if k.startswith("res_")},
            }
        return {"manifest_ok": _digests_match(outdir), "levels": levels}


# A run makes at least ``repetitions`` full repetitions (more to fill
# ``--seconds``, see ``run.repeat``) and at least ``setup_samples`` set-up
# times; set-up-only repetitions, which stop when the first time step is
# due, make up the set-up samples.  One n = 16 repetition pools 100 steps;
# n = 32 takes two repetitions of 6 steps, so its step times come from two
# processes.  Set-up is 4% of the MMS study, so it is cheap to sample there.
WORKLOADS = {
    "cert-n16-euler": CertifiedRun(README_CONFIG, repetitions=1),
    "cert-n32-midpoint": CertifiedRun(N32_CONFIG, repetitions=2),
    "mms-smooth-trig": MmsStudy(),
}
NAMES = tuple(WORKLOADS)
