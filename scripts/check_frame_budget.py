#!/usr/bin/env python
"""Fail when a packet costs more Python calls per link-hop than budgeted.

``perfbench/run.py --workload W --seed 1 --trace 1`` profiles one timed
region and reports, per layer, how many calls (Python frames and
builtins, charged to the layer that made them) one link-hop cost:
``*.calls_per_unit``.  The sum is an exact count -- the workload is a
fixed job and the simulator is deterministic, so it repeats to the last
digit on any host -- which makes it the packet tier's machine-independent
cost number, the successor of the events-per-packet gate: a convenience
wrapper added to the per-hop walk shows here as +0.8 calls, where a
timing would lose it in noise.

Two workloads, two budgets.  ``clos_bulk`` is six hops per packet: the
switch walk dominates (ISSUE 18 took it from 78.24 to 47.43 calls per
hop).  ``rack_rpc`` is two hops per packet and many connections per NIC:
the host side dominates (ISSUE 23 took it from 105.94 to 68.50 by not
polling idle sources, which also brought ``clos_bulk`` to 44.06).
Making the engine's heap entry the event itself, with no free-list and
no tx-complete or delivery trampoline, then took ``clos_bulk`` from
44.55 to 31.43 and ``rack_rpc`` from 68.00 to 49.50, nearly all of it
in the ``sim`` row.

A budget is a ceiling, not a target: each leaves room for one or two
calls of honest new work before someone has to look, and is only ever
lowered.

Usage: python scripts/check_frame_budget.py
"""

import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: workload -> ceiling on the sum of ``*.calls_per_unit``.
BUDGET_CALLS_PER_HOP = {
    "clos_bulk": 33.0,
    "rack_rpc": 51.0,
}


def calls_per_hop(workload):
    """``{layer: calls per link-hop}`` from one traced run of ``workload``."""
    run = subprocess.run(
        [
            sys.executable,
            os.path.join(REPO_ROOT, "perfbench", "run.py"),
            "--workload", workload, "--seed", "1", "--trace", "1",
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
    workloads = sorted(BUDGET_CALLS_PER_HOP)
    layers = {workload: calls_per_hop(workload) for workload in workloads}
    totals = {workload: sum(layers[workload].values()) for workload in workloads}
    print("  %-20s" % "calls per link-hop" + "".join("%12s" % w for w in workloads))
    names = sorted(
        {name for per_layer in layers.values() for name, calls in per_layer.items() if calls},
        key=lambda name: -max(layers[w].get(name, 0.0) for w in workloads),
    )
    for name in names:
        print("  %-20s" % name + "".join("%12.3f" % layers[w].get(name, 0.0) for w in workloads))
    print("  %-20s" % "total" + "".join("%12.2f" % totals[w] for w in workloads))
    print("  %-20s" % "budget" + "".join("%12.1f" % BUDGET_CALLS_PER_HOP[w] for w in workloads))
    over = [w for w in workloads if totals[w] > BUDGET_CALLS_PER_HOP[w]]
    for workload in over:
        print("%s is over budget by %.2f calls per hop"
              % (workload, totals[workload] - BUDGET_CALLS_PER_HOP[workload]))
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
