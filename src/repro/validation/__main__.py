"""``python -m repro.validation`` -- the differential validation CLI.

Subcommands::

    sweep           run N seeded scenarios (default; also plain --seeds N)
    flowsim         packet engine vs flow-level simulator, same scenarios
    mutation-check  prove the oracles flag re-introduced paper bugs
    replay          re-run a recorded JSONL repro artifact

Exit status is non-zero when any oracle violates (sweep/replay/flowsim)
or any mutation goes uncaught / any baseline is unclean (mutation-check);
``replay`` answers an artifact it cannot read with one ``path:line:
reason`` line and exit status 2.
"""

import argparse
import contextlib
import sys

from repro.artifact import ArtifactError
from repro.obs import TELEMETRY
from repro.validation import flowsim_lane
from repro.validation.flowsim_lane import run_flowsim_differential_sweep
from repro.validation.harness import (
    DEFAULT_ARTIFACT_DIR,
    MUTATIONS,
    mutation_check,
    replay_artifact,
    run_validation_sweep,
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.validation",
        description="Differential/metamorphic validation of the packet simulator",
    )
    sub = parser.add_subparsers(dest="command")

    sweep = sub.add_parser("sweep", help="run N seeded random scenarios")
    _sweep_args(sweep)
    # `python -m repro.validation --seeds 200` (no subcommand) sweeps.
    _sweep_args(parser)

    flow = sub.add_parser(
        "flowsim", help="packet engine vs flow-level simulator differential"
    )
    flow.add_argument("--seeds", type=int, default=25)
    flow.add_argument("--start", type=int, default=0)
    flow.add_argument("--fail-fast", action="store_true")
    flow.add_argument("--artifacts", default=flowsim_lane.DEFAULT_ARTIFACT_DIR)
    flow.add_argument("--jsonl", default=None, help="write sweep rows here")

    mut = sub.add_parser("mutation-check", help="sensitivity: catch known bugs")
    mut.add_argument("--which", choices=sorted(MUTATIONS), default=None)
    mut.add_argument("--artifacts", default=DEFAULT_ARTIFACT_DIR)
    mut.add_argument("--no-shrink", action="store_true")

    rep = sub.add_parser("replay", help="re-run a JSONL repro artifact")
    rep.add_argument("artifact")
    rep.add_argument(
        "--original",
        action="store_true",
        help="replay the original scenario instead of the minimized one",
    )
    return parser


def _sweep_args(parser):
    parser.add_argument("--seeds", type=int, default=25)
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--no-metamorphic", action="store_true")
    parser.add_argument("--no-shrink", action="store_true")
    parser.add_argument("--fail-fast", action="store_true")
    parser.add_argument("--artifacts", default=DEFAULT_ARTIFACT_DIR)
    parser.add_argument("--jsonl", default=None, help="write sweep rows here")
    parser.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help="collect telemetry for every swept scenario; writes one "
        "sweep-<i>.telemetry.jsonl per fabric into DIR",
    )


def _cmd_sweep(args):
    def progress(report, row):
        status = "ok" if report.clean else "VIOLATION(%s)" % row["oracles"]
        print("  seed %-5d %-40s %s" % (report.scenario.seed,
                                        report.scenario.describe(), status))
        sys.stdout.flush()

    print(
        "validation sweep: %d scenario(s) from seed %d%s"
        % (args.seeds, args.start, "" if args.no_metamorphic else " (+metamorphic)")
    )
    with (
        TELEMETRY.collect("validation-sweep", args.telemetry, "sweep")
        if args.telemetry
        else contextlib.nullcontext()
    ) as collection:
        result = run_validation_sweep(
            seeds=args.seeds,
            start=args.start,
            metamorphic=not args.no_metamorphic,
            shrink=not args.no_shrink,
            artifact_dir=args.artifacts,
            fail_fast=args.fail_fast,
            progress=progress,
        )
    if collection:
        print(collection.describe())
    if args.jsonl:
        result.to_jsonl(args.jsonl)
        print("rows -> %s" % args.jsonl)
    dirty = [row for row in result.rows() if row["violations"]]
    total = len(result.rows())
    if dirty:
        print("%d/%d scenario(s) violated an oracle:" % (len(dirty), total))
        for row in dirty:
            print(
                "  seed %d: %s%s"
                % (
                    row["seed"],
                    row["oracles"],
                    " -> %s" % row["artifact"] if row.get("artifact") else "",
                )
            )
        return 1
    print("%d/%d scenarios: zero oracle violations" % (total, total))
    return 0


def _cmd_flowsim(args):
    def progress(report, row):
        if report.skipped:
            status = "skipped (deadlock kind)"
        elif report.clean:
            status = "ok  model_err=%s band=[%s, %s]" % (
                row["max_model_rel_err"],
                row["min_band_ratio"],
                row["max_band_ratio"],
            )
        else:
            status = "VIOLATION(%s)" % row["oracles"]
        print("  seed %-5d %-40s %s" % (report.scenario.seed,
                                        report.scenario.describe(), status))
        sys.stdout.flush()

    print(
        "flowsim differential sweep: %d scenario(s) from seed %d"
        % (args.seeds, args.start)
    )
    result = run_flowsim_differential_sweep(
        seeds=args.seeds,
        start=args.start,
        artifact_dir=args.artifacts,
        fail_fast=args.fail_fast,
        progress=progress,
    )
    if args.jsonl:
        result.to_jsonl(args.jsonl)
        print("rows -> %s" % args.jsonl)
    dirty = [row for row in result.rows() if row["violations"]]
    total = len(result.rows())
    if dirty:
        print("%d/%d scenario(s) violated a flowsim oracle:" % (len(dirty), total))
        for row in dirty:
            print(
                "  seed %d: %s%s"
                % (
                    row["seed"],
                    row["oracles"],
                    " -> %s" % row["artifact"] if row.get("artifact") else "",
                )
            )
        return 1
    print("%d/%d scenarios: packet and flowsim tiers agree" % (total, total))
    return 0


def _cmd_mutation_check(args):
    results = mutation_check(
        which=args.which, artifact_dir=args.artifacts, shrink=not args.no_shrink
    )
    failed = False
    for name, info in sorted(results.items()):
        caught = info["caught"] and info["baseline_clean"]
        failed = failed or not caught
        print("mutation %-12s %s" % (name, "CAUGHT" if caught else "MISSED"))
        print("  %s" % info["description"])
        if not info["baseline_clean"]:
            print("  baseline probe was NOT clean -- probe or tolerances broken")
        if info["caught"]:
            print("  flagged by: %s" % ", ".join(info["oracles"]))
            if info["artifact"]:
                print(
                    "  repro artifact (%d flow(s) after shrink): %s"
                    % (info["minimized_flows"], info["artifact"])
                )
    return 1 if failed else 0


def _cmd_replay(args):
    try:
        report = replay_artifact(args.artifact, prefer_minimized=not args.original)
    except ArtifactError as error:
        print(error, file=sys.stderr)
        return 2
    print("replayed %s" % report.scenario.describe())
    if report.violations:
        print("%d violation(s):" % len(report.violations))
        for violation in report.violations:
            print(
                "  [%s] %s: %s"
                % (violation["oracle"], violation["subject"], violation["detail"])
            )
        return 1
    print("clean run (violation did not reproduce)")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "flowsim":
        return _cmd_flowsim(args)
    if args.command == "mutation-check":
        return _cmd_mutation_check(args)
    if args.command == "replay":
        return _cmd_replay(args)
    return _cmd_sweep(args)


if __name__ == "__main__":
    sys.exit(main())
