"""Correctness gate: a repetition's outputs against recorded reference values.

``reference.json`` holds, per workload, the outputs that ``workloads.py``
reads back, recorded from the program as it stood when the benchmark was
defined (``python3 perfbench/run.py --record-reference`` rewrites it).
Numbers are compared with a relative tolerance, not by digest, because the
last bits differ between numpy/BLAS builds; integers, booleans and the set
of keys must match exactly.  Certificate flags are compared as recorded:
``dumbound_ok`` and ``mb2_*`` are false on the README example, and a change
that turns them true is a change of answer, not a fix the benchmark hides.

The MMS study must also keep its finest observed rates inside the bands of
acceptance criterion 4.

Run ``python3 perfbench/gate.py`` to prove the gate fires on a perturbed
reference; ``run.py`` does the same before every measurement.
"""

import copy
import json
import os
import sys

RTOL = 1e-6
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")

# acceptance criterion 4: finest observed rate per norm
RATE_BANDS = {"rate_uL2": (2.7, 3.3), "rate_uH1": (1.7, 2.3),
              "rate_ppH1": (1.7, 2.3)}


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def _compare(obs, ref, path, problems):
    if isinstance(ref, dict):
        if not isinstance(obs, dict) or set(obs) != set(ref):
            problems.append("%s: keys %s, expected %s"
                            % (path, sorted(obs) if isinstance(obs, dict)
                               else obs, sorted(ref)))
            return
        for key in ref:
            _compare(obs[key], ref[key], "%s.%s" % (path, key), problems)
    elif isinstance(ref, (bool, int, str)) or ref is None:
        if obs != ref or type(obs) is not type(ref):
            problems.append("%s: %r, expected %r" % (path, obs, ref))
    elif isinstance(ref, float):
        if (not isinstance(obs, float)
                or not abs(obs - ref) <= RTOL * abs(ref)):
            problems.append("%s: %r, expected %r (rtol %g)"
                            % (path, obs, ref, RTOL))
    else:
        raise TypeError("unexpected reference value at %s" % path)


def _band_problems(outputs):
    levels = outputs.get("levels", {})
    if not levels:
        return ["levels: none"]
    finest = levels[max(levels, key=int)]["rates"]
    return ["criterion 4: %s = %r outside [%g, %g]" % (key, finest.get(key),
                                                       lo, hi)
            for key, (lo, hi) in RATE_BANDS.items()
            if not (isinstance(finest.get(key), float)
                    and lo <= finest[key] <= hi)]


def check(workload, outputs, reference):
    """A list of problems; empty when the outputs are correct."""
    problems = []
    _compare(outputs, reference[workload], workload, problems)
    if "levels" in reference[workload]:
        problems += _band_problems(outputs)
    return problems


def _leaves(tree, path=()):
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _leaves(value, path + (key,))
    else:
        yield path


def _perturbed(tree, path, value=None, drop=False):
    out = copy.deepcopy(tree)
    node = out
    for key in path[:-1]:
        node = node[key]
    if drop:
        del node[path[-1]]
        return out
    old = node[path[-1]]
    if isinstance(old, bool):
        node[path[-1]] = not old
    elif isinstance(old, int):
        node[path[-1]] = old + 1
    elif value is not None:
        node[path[-1]] = value
    else:
        node[path[-1]] = old * (1.0 + 100.0 * RTOL)
    return out


def selfcheck(reference):
    """Problems with the gate itself; empty when it passes and fires."""
    problems = []
    for workload, ref in reference.items():
        found = check(workload, ref, reference)
        if found:
            problems.append("%s: reference fails its own gate: %s"
                            % (workload, found[0]))
        for path in _leaves(ref):
            for bad in (_perturbed(ref, path), _perturbed(ref, path,
                                                          drop=True)):
                if not check(workload, bad, reference):
                    problems.append("%s: gate misses a change at %s"
                                    % (workload, ".".join(path)))
        if "levels" in ref:
            finest = max(ref["levels"], key=int)
            for key, (lo, hi) in RATE_BANDS.items():
                path = ("levels", finest, "rates", key)
                shifted = _perturbed(ref, path, value=lo - 0.1)
                moved = {workload: shifted}
                if not check(workload, shifted, moved):
                    problems.append("%s: criterion-4 band misses %s"
                                    % (workload, key))
    return problems


if __name__ == "__main__":
    reference = load_reference()
    trouble = selfcheck(reference)
    for line in trouble:
        print(line)
    leaves = sum(len(list(_leaves(r))) for r in reference.values())
    print("gate self-check: %s (%d reference values, each perturbed and "
          "dropped)" % ("FAIL" if trouble else "ok", leaves))
    sys.exit(1 if trouble else 0)
