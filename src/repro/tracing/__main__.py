"""Trace artifact CLI: ``python -m repro.tracing <command>``.

Commands:

``summarize ARTIFACT``
    Human-readable rendering of a trace JSONL artifact: the run span,
    op/packet counts, pause episodes and a latency-attribution
    aggregate.
``attribute ARTIFACT [--top N] [--json]``
    Per-op latency decomposition (the exact-sum components) plus the
    aggregate share-of-FCT view; ``--top`` lists the N slowest ops.
``storm [ARTIFACT | --demo] [--json]``
    Render the pause-causality DAG.  With ``--demo`` the §4.3
    NIC-pause-storm experiment runs with tracing armed and the
    resulting graph (root: the broken NIC) is rendered directly;
    ``--out DIR`` keeps the artifacts.
``export ARTIFACT --chrome OUT [--window-from-telemetry T.jsonl]``
    Chrome trace-event (Perfetto-loadable) export, optionally narrowed
    to the incident windows of a *telemetry* artifact -- the
    "incident -> trace window" triage step in docs/tracing.md.
``pingmesh PROBES.jsonl``
    Summarize an exported pingmesh probe log: RTT percentiles
    (p50/p90/p99/p999) and the per-error-code breakdown.

An ARTIFACT that is missing, empty, truncated, corrupt or of another
plane's schema is answered with one ``path:line: reason`` line on stderr
and exit status 2.
"""

import argparse
import json
import sys

from repro.artifact import ArtifactError
from repro.obs import TELEMETRY, TRACE
from repro.tracing.attribution import COMPONENTS, aggregate, attribute_records
from repro.tracing.causality import build_dag, render_text
from repro.tracing.export import (
    chrome_trace,
    filter_window,
    summary_of,
    windows_from_telemetry,
)


def _render_summary(records):
    meta = records[0]  # the reader vouches for the meta record
    summary = summary_of(records)
    lines = []
    label = (meta.get("config") or {}).get("label") or "-"
    lines.append(
        "trace %s: %.3f..%.3f ms, %d hosts, %d switches"
        % (
            label,
            meta.get("t_start_ns", 0) / 1e6,
            meta.get("t_stop_ns", 0) / 1e6,
            meta.get("hosts", 0),
            meta.get("switches", 0),
        )
    )
    lines.append(
        "  ops      %d traced (%d completed, %d sampled out, %d dropped)"
        % (
            summary.get("ops_traced", 0),
            summary.get("ops_completed", 0),
            summary.get("ops_sampled_out", 0),
            summary.get("dropped_ops", 0),
        )
    )
    lines.append(
        "  packets  %d traced (%d dropped)"
        % (summary.get("packets_traced", 0), summary.get("dropped_packets", 0))
    )
    lines.append(
        "  pauses   %d episodes, %d rx intervals; %d events, %d rate decreases"
        % (
            summary.get("pause_nodes", 0),
            summary.get("pause_intervals", 0),
            summary.get("events", 0),
            summary.get("rate_decreases", 0),
        )
    )
    attributions = attribute_records(records)
    if attributions:
        agg = aggregate(attributions)
        lines.append(
            "  latency  %d/%d ops attributed, mean FCT %.3f ms"
            % (agg["complete"], agg["ops"], agg["fct_mean_ns"] / 1e6)
        )
        for name in COMPONENTS:
            share = agg[name.replace("_ns", "_share")]
            if agg[name]:
                lines.append(
                    "    %-16s %6.1f%%  (%.3f ms total)"
                    % (name[:-3], 100.0 * share, agg[name] / 1e6)
                )
    return "\n".join(lines)


def _cmd_summarize(args):
    for artifact in args.artifact:
        print(_render_summary(TRACE.read_jsonl(artifact)))
        print("  artifact %s" % artifact)
    return 0


def _cmd_attribute(args):
    records = TRACE.read_jsonl(args.artifact)
    attributions = attribute_records(records)
    if args.json:
        for attribution in attributions:
            print(json.dumps(attribution))
        return 0
    agg = aggregate(attributions)
    print(
        "%d ops (%d attributed, %d incomplete), mean FCT %.3f ms"
        % (agg["ops"], agg["complete"], agg["incomplete"], agg["fct_mean_ns"] / 1e6)
    )
    for name in COMPONENTS:
        print(
            "  %-16s %6.1f%%  %.3f ms"
            % (
                name[:-3],
                100.0 * agg[name.replace("_ns", "_share")],
                agg[name] / 1e6,
            )
        )
    slowest = sorted(
        (a for a in attributions if a["complete"]),
        key=lambda a: -a["fct_ns"],
    )[: args.top]
    if slowest:
        print("slowest %d:" % len(slowest))
        for attribution in slowest:
            dominant = max(COMPONENTS, key=lambda name: attribution[name])
            print(
                "  %s wr %d  %s %dB  FCT %.3f ms  dominated by %s (%.1f%%)"
                % (
                    attribution["qp"],
                    attribution["wr_id"],
                    attribution["kind"],
                    attribution["size_bytes"],
                    attribution["fct_ns"] / 1e6,
                    dominant[:-3],
                    100.0 * attribution[dominant] / max(1, attribution["fct_ns"]),
                )
            )
    return 0


def _storm_dag(records):
    return build_dag(records, attribute_records(records))


def _cmd_storm(args):
    if args.demo:
        from repro.experiments.storm import run_storm

        with TRACE.collect(
            "storm seed=%d" % args.seed, args.out, "storm"
        ) as collection:
            run_storm(seed=args.seed)
        status = 1
        for index, records in enumerate(collection.sessions):
            if collection.paths:
                print("artifact %s" % collection.paths[index])
            dag = _storm_dag(records)
            print(render_text(dag, max_trees=None if args.full else 8))
            print()
            if any(
                dag.nodes[root]["trigger"] == "rx_pipeline_broken"
                for root in dag.roots
            ):
                status = 0
        if status:
            print(
                "storm demo: no DAG rooted at a broken-NIC trigger",
                file=sys.stderr,
            )
        return status
    if not args.artifact:
        print("storm: need an ARTIFACT or --demo", file=sys.stderr)
        return 2
    records = TRACE.read_jsonl(args.artifact)
    dag = _storm_dag(records)
    if args.json:
        print(
            json.dumps(
                {
                    "roots": dag.roots,
                    "cyclic": dag.cyclic,
                    "nodes": [dag.nodes[k] for k in sorted(dag.nodes)],
                    "victims": dag.victims,
                }
            )
        )
    else:
        print(render_text(dag, max_trees=None if args.full else 8))
    return 0


def _cmd_export(args):
    records = TRACE.read_jsonl(args.artifact)
    if args.window_from_telemetry:
        windows = windows_from_telemetry(
            TELEMETRY.read_jsonl(args.window_from_telemetry),
            pad_ns=args.pad_us * 1000,
        )
        if not windows:
            print("no incidents in %s; exporting the full trace"
                  % args.window_from_telemetry)
        else:
            start = min(w["start_ns"] for w in windows)
            open_ended = any(w["end_ns"] is None for w in windows)
            end = (
                None
                if open_ended
                else max(w["end_ns"] for w in windows)
            )
            records = filter_window(records, start, end)
            print(
                "windowed to %d incident(s): %.3f..%s ms"
                % (
                    len(windows),
                    start / 1e6,
                    "end" if end is None else "%.3f" % (end / 1e6),
                )
            )
    trace = chrome_trace(records, max_ops=args.max_ops)
    with open(args.chrome, "w") as handle:
        json.dump(trace, handle)
    print(
        "wrote %s (%d events) -- load in Perfetto / chrome://tracing"
        % (args.chrome, len(trace["traceEvents"]))
    )
    return 0


def _cmd_pingmesh(args):
    from repro.monitoring.pingmesh import read_probe_jsonl, summarize_probe_records

    records = read_probe_jsonl(args.probes)
    summary = summarize_probe_records(records)
    if args.json:
        print(json.dumps(summary))
        return 0
    print(
        "%d probes, %d ok, error rate %.4f"
        % (summary["probes"], summary["ok"], summary["error_rate"])
    )
    rtt = summary["rtt_us"]
    if rtt["count"]:
        print(
            "  rtt us: p50 %.1f  p90 %.1f  p99 %.1f  p999 %.1f"
            % (rtt["p50"], rtt["p90"], rtt["p99"], rtt["p999"])
        )
    for code, count in sorted(summary["errors"].items()):
        print("  error %-12s %d" % (code, count))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.tracing",
        description="Inspect, attribute and export causal trace artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="render artifacts for humans")
    p.add_argument("artifact", nargs="+")
    p.set_defaults(fn=_cmd_summarize)

    p = sub.add_parser("attribute", help="latency attribution per op")
    p.add_argument("artifact")
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_attribute)

    p = sub.add_parser("storm", help="render the pause-causality DAG")
    p.add_argument("artifact", nargs="?")
    p.add_argument("--demo", action="store_true",
                   help="run the §4.3 storm experiment with tracing armed")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", help="with --demo: keep artifacts in DIR")
    p.add_argument("--full", action="store_true",
                   help="render every causal tree, not just the largest 8")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_storm)

    p = sub.add_parser("export", help="Chrome trace-event export")
    p.add_argument("artifact")
    p.add_argument("--chrome", required=True, help="output JSON path")
    p.add_argument("--max-ops", type=int, default=None,
                   help="cap per-hop slices to the first N ops")
    p.add_argument("--window-from-telemetry", metavar="TELEMETRY_JSONL",
                   help="narrow to that artifact's incident windows")
    p.add_argument("--pad-us", type=int, default=1000,
                   help="window padding in microseconds (default 1000)")
    p.set_defaults(fn=_cmd_export)

    p = sub.add_parser("pingmesh", help="summarize an exported probe log")
    p.add_argument("probes")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_pingmesh)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ArtifactError as error:
        print(error, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
