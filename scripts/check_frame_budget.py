#!/usr/bin/env python
"""Fail when a packet costs more Python calls per link-hop than budgeted.

``perfbench/run.py --workload clos_bulk --seed 1 --trace 1`` profiles one
timed region and reports, per layer, how many calls (Python frames and
builtins, charged to the layer that made them) one link-hop cost:
``*.calls_per_unit``.  The sum is an exact count -- the workload is a
fixed job and the simulator is deterministic, so it repeats to the last
digit on any host -- which makes it the packet tier's machine-independent
cost number, the successor of the events-per-packet gate: a convenience
wrapper added to the per-hop walk shows here as +0.8 calls, where a
timing would lose it in noise.

The budget is a ceiling, not a target.  ISSUE 18 took the walk from
78.24 to 47.43 calls per hop; 50.0 leaves room for one or two calls of
honest new work before someone has to look.

Usage: python scripts/check_frame_budget.py
"""

import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BUDGET_CALLS_PER_HOP = 50.0


def calls_per_hop():
    """``{layer: calls per link-hop}`` from one traced ``clos_bulk`` run."""
    run = subprocess.run(
        [
            sys.executable,
            os.path.join(REPO_ROOT, "perfbench", "run.py"),
            "--workload", "clos_bulk", "--seed", "1", "--trace", "1",
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if run.returncode != 0:
        sys.exit("perfbench failed (exit %d):\n%s" % (run.returncode, run.stderr[-2000:]))
    contract = json.loads(run.stdout.strip().splitlines()[-1])
    if not contract["correct"]:
        sys.exit("perfbench run was not correct: %d of %d operations failed"
                 % (contract["failed"], contract["attempted"]))
    suffix = ".calls_per_unit"
    return {
        name[: -len(suffix)]: metric["value"]
        for name, metric in contract["metrics"].items()
        if name.endswith(suffix)
    }


def main():
    layers = calls_per_hop()
    total = sum(layers.values())
    for layer, calls in sorted(layers.items(), key=lambda item: -item[1]):
        if calls:
            print("  %-20s %7.3f" % (layer, calls))
    print("calls per link-hop: %.2f (budget %.1f)" % (total, BUDGET_CALLS_PER_HOP))
    if total > BUDGET_CALLS_PER_HOP:
        print("over budget by %.2f calls per hop" % (total - BUDGET_CALLS_PER_HOP))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
