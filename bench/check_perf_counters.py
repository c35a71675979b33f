#!/usr/bin/env python3
"""One-sided gate on perfbench's deterministic counters.

    python3 bench/check_perf_counters.py PERFBENCH_cold-corpus-trace.txt

Reads the JSON summary line (the last line) of a traced perfbench run and
compares every counter listed in bench/perf_counters.json against it.
Exits 1 if any counter rose above its recorded value or is missing; a
counter that fell passes (record the lower value in the same change).
The `<layer>.allocs` counters depend on the C++ standard library build,
so they are printed for the record but never gated.
"""
import json
import os
import sys

BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "perf_counters.json")
# The counters are exact counts or means of exact counts over the same
# corpus; the slack only absorbs float formatting, never a real change.
RELATIVE_SLACK = 1e-9


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(BASELINE) as f:
        baseline = json.load(f)["counters"]
    with open(argv[1]) as f:
        lines = f.read().strip().splitlines()
    if not lines:
        print("::error::%s is empty" % argv[1])
        return 1
    metrics = json.loads(lines[-1])["metrics"]

    failed = False
    print("%-28s %16s %16s  %s" % ("counter", "recorded", "this run", "gate"))
    for name, recorded in baseline.items():
        if name not in metrics:
            print("::error::counter %s is missing from the run" % name)
            failed = True
            continue
        value = metrics[name]["value"]
        rose = value > recorded * (1 + RELATIVE_SLACK)
        status = "ROSE" if rose else ("fell" if value < recorded else "ok")
        print("%-28s %16.6f %16.6f  %s" % (name, recorded, value, status))
        if rose:
            print("::error::%s rose from %r to %r" % (name, recorded, value))
            failed = True
    for name in sorted(metrics):
        if name.endswith(".allocs"):
            print("%-28s %16s %16.3f  not gated" %
                  (name, "-", metrics[name]["value"]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
