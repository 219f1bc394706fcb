"""Telemetry artifact CLI: ``python -m repro.telemetry <command>``.

Commands:

``summarize ARTIFACT``
    Human-readable rendering of a telemetry JSONL artifact: run span,
    fault/watchdog events, every incident the online detectors emitted.
``replay ARTIFACT``
    Re-run the detector stack offline over the artifact's sample
    records (optionally with overridden thresholds) and print the
    resulting incidents -- lets an operator re-triage a stored run with
    tighter or looser thresholds without re-simulating.
``export ARTIFACT --format csv|prom [--out PATH]``
    Derived views: flattened CSV samples or Prometheus-style totals.
``catalog``
    The declared metric catalog (name, kind, unit, source, paper §).
``storm [--seed N] [--out DIR]``
    The worked §4.3 pause-storm demo: runs the storm experiment with
    telemetry armed, writes one artifact per scenario leg into DIR and
    summarizes them (see docs/telemetry.md for the triage walkthrough).

An ARTIFACT that is missing, empty, truncated, corrupt or of another
plane's schema is answered with one ``path:line: reason`` line on stderr
and exit status 2.
"""

import argparse
import os
import sys

from repro.artifact import ArtifactError
from repro.obs import TELEMETRY
from repro.telemetry.detectors import DetectorThresholds
from repro.telemetry.export import (
    prometheus_text,
    replay_detectors,
    summarize,
    write_csv,
)
from repro.telemetry.registry import CATALOG


def _cmd_summarize(args):
    print(summarize(TELEMETRY.read_jsonl(args.artifact)))
    return 0


def _cmd_replay(args):
    thresholds = DetectorThresholds(
        storm_host_rate=args.storm_host_rate,
        storm_switch_rate=args.storm_switch_rate,
        storm_min_windows=args.storm_min_windows,
        watermark_fraction=args.watermark_fraction,
    )
    incidents = replay_detectors(TELEMETRY.read_jsonl(args.artifact), thresholds)
    if not incidents:
        print("replay: no incidents")
        return 0
    print("replay: %d incidents" % len(incidents))
    for incident in incidents:
        record = incident.as_record()
        print("  [%s] %-18s %-8s t=%.3f..%sms %s"
              % (record["severity"], record["kind"], record["device"],
                 record["start_ns"] / 1e6,
                 "%.3f" % (record["end_ns"] / 1e6)
                 if record["end_ns"] is not None else "?",
                 record["details"]))
    return 0


def _cmd_export(args):
    records = TELEMETRY.read_jsonl(args.artifact)
    if args.format == "csv":
        out = args.out or (os.path.splitext(args.artifact)[0] + ".csv")
        write_csv(records, out)
        print("wrote %s" % out)
    else:
        text = prometheus_text(records)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            print("wrote %s" % args.out)
        else:
            sys.stdout.write(text)
    return 0


def _cmd_catalog(args):
    print("%-32s %-10s %-8s %-18s %s" % ("name", "kind", "unit", "source",
                                         "paper"))
    for spec in CATALOG:
        print("%-32s %-10s %-8s %-18s %s" % (spec.name, spec.kind, spec.unit,
                                             spec.source, spec.paper or "-"))
    return 0


def _cmd_storm(args):
    from repro.experiments.storm import run_storm

    with TELEMETRY.collect(
        "storm seed=%d" % args.seed, args.out, "storm"
    ) as collection:
        run_storm(seed=args.seed)
    storms = 0
    for path, records in zip(collection.paths, collection.sessions):
        storms += sum(1 for r in records
                      if r.get("type") == "incident"
                      and r.get("kind") == "pause_storm")
        print(summarize(records))
        print("  artifact   %s" % path)
        print()
    if storms == 0:
        print("storm demo: expected at least one pause_storm incident",
              file=sys.stderr)
        return 1
    print("storm demo: %d pause_storm incident(s) across %d artifact(s)"
          % (storms, len(collection.paths)))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Inspect, replay and export telemetry artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="render an artifact for humans")
    p.add_argument("artifact")
    p.set_defaults(fn=_cmd_summarize)

    p = sub.add_parser("replay", help="re-run detectors over an artifact")
    p.add_argument("artifact")
    defaults = DetectorThresholds()
    p.add_argument("--storm-host-rate", type=float,
                   default=defaults.storm_host_rate)
    p.add_argument("--storm-switch-rate", type=float,
                   default=defaults.storm_switch_rate)
    p.add_argument("--storm-min-windows", type=int,
                   default=defaults.storm_min_windows)
    p.add_argument("--watermark-fraction", type=float,
                   default=defaults.watermark_fraction)
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("export", help="derived CSV / Prometheus views")
    p.add_argument("artifact")
    p.add_argument("--format", choices=("csv", "prom"), default="csv")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_export)

    p = sub.add_parser("catalog", help="print the metric catalog")
    p.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("storm", help="run the pause-storm triage demo")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default="telemetry-artifacts")
    p.set_defaults(fn=_cmd_storm)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ArtifactError as error:
        print(error, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
