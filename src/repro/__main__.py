"""The command line: ``python -m repro <verb>``.

::

    python -m repro list                          # campaign targets
    python -m repro run E7 E8 --seeds 1,2 -j 2    # parallel, cached, prints tables
    python -m repro run E9 --telemetry --trace    # plus both planes' artifacts
    python -m repro gate --all                    # the nine fingerprint pins
    python -m repro validate --seeds 25           # differential oracle sweep
    python -m repro summarize ARTIFACT...         # either plane's artifact
    python -m repro storm --demo --out DIR        # the section 4.3 diagnosis

Every verb answers in one exit-code map (docs/cli.md): 0 passed, or the
verb gives no verdict; 1 it ran and the verdict failed; 2 nothing could
be judged -- a usage error, a bad sweep spec, an unreadable pin file or
artifact -- said in one line on stderr.

The artifact verbs (``summarize``, ``export``, ``replay``, ``attribute``,
``storm``) read the file once and dispatch on its first record: a
``meta`` record names a plane's schema, a ``record`` key marks a
validation repro.  Each verb imports its subsystem inside its handler,
and the package root resolves its re-exports lazily, so ``--help`` and a
usage error load ``repro`` and this module and nothing else.
"""

import argparse
import contextlib
import os
import sys


class _NoVerdict(Exception):
    """Nothing could be judged; ``str()`` is the one stderr line."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _NoVerdict("%s: error: %s" % (self.prog, message))


#: (module, class) of each subsystem error that means exit 2.  An error
#: can only be raised once its module is loaded, so :func:`main` looks
#: them up in ``sys.modules`` rather than importing three subsystems.
_NO_VERDICT_ERRORS = (
    ("repro.artifact", "ArtifactError"),
    ("repro.campaign.spec", "SpecError"),
    ("repro.bench.gate", "GateError"),
)


def _make_dirs(*paths):
    """Create each given DIR option (None: not given) before anything
    runs: a path that is a file, or under one, is one ``path: reason``
    line and exit 2, not a traceback after the work is done."""
    for path in paths:
        if not path:
            continue
        try:
            os.makedirs(path, exist_ok=True)
        except FileExistsError:
            raise _NoVerdict("%s: exists and is not a directory" % path)
        except OSError as error:
            raise _NoVerdict("%s: %s" % (path, error.strerror or error))


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        return args.handler(args)
    except Exception as error:
        loaded = tuple(
            getattr(sys.modules[module], name)
            for module, name in _NO_VERDICT_ERRORS if module in sys.modules
        )
        if not isinstance(error, (_NoVerdict,) + loaded):
            raise
        print(error, file=sys.stderr)
        return 2


# -- campaign: list, run, resume, clean ---------------------------------------


def _list(args):
    from repro.experiments.catalog import CATALOG

    print("campaign targets (sweep any listed parameter; * = seeded):")
    for entry in CATALOG.values():
        names = ", ".join(n for n in entry.parameters() if n != "seed") or "-"
        print("%-4s %-24s %s\n     params: %s%s" % (
            entry.exp_id, entry.runner_name, entry.description, names,
            "  [*seeded]" if entry.seedable else ""))
    return 0


def _sweep_spec(args):
    import ast

    from repro.campaign.spec import SpecError, SweepSpec
    from repro.experiments.catalog import CATALOG, resolve_tokens

    if args.spec:
        if args.which or args.all:
            raise SpecError("--spec and experiment ids are mutually exclusive")
        return SweepSpec.from_file(args.spec)
    if args.all:
        selected = list(CATALOG)
    else:
        selected, unmatched = resolve_tokens(args.which)
        if unmatched:
            raise SpecError("no experiment matches %r (try `list`)" % unmatched[0])
        if not selected:
            raise SpecError("nothing selected: name experiments, or pass --all / --spec")
    grid = {}
    for pair in args.param or ():
        name, sep, text = pair.partition("=")
        if not sep or not name:
            raise SpecError("--param expects name=value, got %r" % pair)
        try:
            grid[name] = [ast.literal_eval(text)]
        except (ValueError, SyntaxError):
            grid[name] = [text]
    target = {"grid": grid} if grid else {}
    if args.seeds:
        try:
            target["seeds"] = [int(t) for t in args.seeds.replace(",", " ").split()]
        except ValueError:
            raise SpecError("--seeds expects comma-separated integers, got %r" % args.seeds)
    return SweepSpec.from_dict({
        "name": args.name or "campaign",
        "targets": [dict(target, experiment=exp_id) for exp_id in selected],
    })


def _campaign_kwargs(args):
    from repro.campaign.cache import ResultCache
    from repro.obs import HUBS

    return dict(
        cache=ResultCache(args.cache_dir) if args.cache_dir else ResultCache(),
        use_cache=not args.no_cache,
        jobs=args.jobs,
        timeout_s=args.timeout,
        retries=args.retries,
        inline=args.inline,
        echo=(lambda line: None) if args.quiet else print,
        hubs=tuple(hub for hub in HUBS if getattr(args, hub.name)),  # --telemetry, --trace
    )


def _report(report, quiet):
    """Each finished run's table and paper verdicts (cache hits too; a
    failed verdict prints even under ``-q``), then the exit status: 1
    when a run or a claim failed."""
    from repro.artifact import read_jsonl
    from repro.experiments.result import ExperimentResult

    for run_id, entry in report.manifest["runs"].items():
        if entry["status"] != "ok":
            continue
        if not quiet:
            result = ExperimentResult(read_jsonl(entry["jsonl"], empty_ok=True))
            result.title = entry["title"]
            print()
            print(result.format_table())
        for claim in entry["claims"]:
            if not (quiet and claim["passed"]):
                print("%-4s %s: %s" % ("ok" if claim["passed"] else "FAIL", run_id, claim["name"]))
    return 0 if report.all_ok and not report.claims_failed else 1


def _run(args):
    from repro.campaign import Campaign

    spec = _sweep_spec(args)
    spec.expand()  # a bad spec stops here, before any directory exists
    out_dir = args.out or os.path.join("campaigns", spec.name)
    _make_dirs(out_dir)
    return _report(Campaign(spec, out_dir, **_campaign_kwargs(args)).run(), args.quiet)


def _resume(args):
    from repro.campaign import Campaign

    try:
        report = Campaign.resume(args.dir, **_campaign_kwargs(args))
    except (FileNotFoundError, ValueError) as error:
        raise _NoVerdict("resume: %s" % error)
    return _report(report, args.quiet)


def _clean(args):
    import shutil

    from repro.campaign.cache import ResultCache

    if not args.dirs and not args.cache:
        raise _NoVerdict("clean: nothing to clean: name campaign dirs and/or pass --cache")
    for directory in args.dirs:  # every dir is checked before any is deleted
        if not os.path.exists(os.path.join(directory, "manifest.json")):
            raise _NoVerdict("%s: no manifest.json; not a campaign dir, refusing to delete"
                             % directory)
    for directory in args.dirs:
        shutil.rmtree(directory)
        print("removed %s" % directory)
    if args.cache:
        cache = ResultCache(args.cache_dir) if args.cache_dir else ResultCache()
        removed = cache.clear()
        print("cache %s: removed %d entr%s" % (
            cache.directory, removed, "y" if removed == 1 else "ies"))
    return 0


# -- gate ---------------------------------------------------------------------


def _gate(args):
    from repro.bench.gate import PIN_PATH, PINNED, GateError, check, load_pins, write_pins
    from repro.bench.scenarios import SCENARIOS
    from repro.obs import TELEMETRY, TRACE

    if args.list:
        for name, scenario in SCENARIOS.items():
            print("%-14s %-42s [%s]" % (name, scenario.title, scenario.paper_ref))
        return 0
    _make_dirs(args.telemetry, args.trace)
    baseline = args.baseline or PIN_PATH
    dirs = {hub: out for hub, out in ((TELEMETRY, args.telemetry), (TRACE, args.trace)) if out}
    overwritten = {}  # --pin: the pins of this seed the run replaces
    if args.pin:
        with contextlib.suppress(GateError):
            pins = load_pins(baseline)
            overwritten = pins["scenarios"] if pins["seed"] == args.seed else {}

    def verdict(row):
        if args.pin:
            old = overwritten.get(row.name)
            if not isinstance(old, dict):
                return "new pin"
            moved = ["%s %s -> %s" % (f, old.get(f), getattr(row, f))
                     for f in PINNED if old.get(f) != getattr(row, f)]
            return ", ".join(moved) or "unchanged"
        if row.moved is None:
            return "(no verdict)"
        return "DRIFT: " + ", ".join(row.moved) if row.moved else "ok"

    def print_row(row):
        print("%-14s %s %9d events %8d packets  %s"
              % (row.name, row.fingerprint, row.events, row.packets, verdict(row)), flush=True)
        for collection in row.collections:
            print("%-14s %s" % ("", collection.describe()), flush=True)

    rows = check(None if args.all else args.scenarios, args.seed, tuple(dirs), dirs,
                 baseline=None if args.pin else baseline, progress=print_row)
    if args.pin:
        write_pins(rows, args.seed, baseline)
        print("pinned %d scenario(s) at seed %d: %s" % (len(rows), args.seed, baseline))
        return 0
    drifted = [row.name for row in rows if row.moved]
    if drifted:
        print("DRIFT vs %s: %s" % (baseline, ", ".join(drifted)), file=sys.stderr)
        return 1
    return 0


# -- validation: validate, mutation-check ------------------------------------


def _validate(args):
    from repro.obs import TELEMETRY
    from repro.validation import harness

    if args.seeds < 1:
        raise _NoVerdict("validate: --seeds %d: nothing to check" % args.seeds)
    _make_dirs(args.telemetry, args.artifacts)

    def progress(report, row):
        status = "ok" if report.clean else "VIOLATION(%s)" % row["oracles"]
        print("  seed %-5d %-40s %s" % (report.scenario.seed, report.scenario.describe(),
                                        status), flush=True)

    print("validation sweep%s: %d scenario(s) from seed %d"
          % ("" if args.no_metamorphic else " (+metamorphic)", args.seeds, args.start))
    with (TELEMETRY.collect("validation-sweep", args.telemetry, "sweep")
          if args.telemetry else contextlib.nullcontext()) as collection:
        result = harness.run_validation_sweep(
            seeds=args.seeds, start=args.start, metamorphic=not args.no_metamorphic,
            shrink=not args.no_shrink, fail_fast=args.fail_fast, progress=progress,
            artifact_dir=args.artifacts or harness.DEFAULT_ARTIFACT_DIR)
    if collection:
        print(collection.describe())
    rows = result.rows()
    if args.jsonl:
        result.to_jsonl(args.jsonl)
        print("rows -> %s" % args.jsonl)
    dirty = [row for row in rows if row["violations"]]
    if not dirty:
        print("%d/%d scenarios: zero oracle violations" % (len(rows), len(rows)))
        return 0
    print("%d/%d scenario(s) violated an oracle:" % (len(dirty), len(rows)))
    for row in dirty:
        print("  seed %d: %s -> %s" % (row["seed"], row["oracles"], row["artifact"]))
    return 1


def _mutation_check(args):
    from repro.validation.harness import DEFAULT_ARTIFACT_DIR, MUTATIONS, mutation_check

    if args.which and args.which not in MUTATIONS:
        raise _NoVerdict("mutation-check: --which must be one of %s, got %r"
                        % (", ".join(sorted(MUTATIONS)), args.which))
    _make_dirs(args.artifacts)
    results = mutation_check(which=args.which, shrink=not args.no_shrink,
                             artifact_dir=args.artifacts or DEFAULT_ARTIFACT_DIR)
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
                print("  repro artifact (%d flow(s) after shrink): %s"
                      % (info["minimized_flows"], info["artifact"]))
    return 1 if failed else 0


# -- artifact verbs -----------------------------------------------------------


def _read(path, verb, *kinds):
    """``(kind, records)`` of the artifact at ``path``, where ``kind`` is
    a plane's name (``telemetry``, ``trace``) or ``repro`` -- an
    :class:`ArtifactError` unless it is one of ``kinds``."""
    from repro.artifact import ArtifactError, read_jsonl
    from repro.obs import HUBS

    records = read_jsonl(path)
    first = records[0]
    if first.get("type") == "meta":
        kind = next((hub.name for hub in HUBS if hub.schema == first.get("schema")), None)
    else:
        kind = "repro" if "record" in first else None
    if kind is None:
        raise ArtifactError(path, 1, "unknown artifact kind")
    if kind not in kinds:
        raise ArtifactError(path, 1, "%s takes a %s artifact, not %s"
                            % (verb, " or ".join(kinds), kind))
    return kind, records


def _refuse_flags(path, kind, flags):
    """Exit 2 naming the first given flag the artifact's kind has no use for."""
    from repro.artifact import ArtifactError

    for flag, value in flags:
        if value not in (None, False):
            raise ArtifactError(path, 1, "a %s artifact takes no %s" % (kind, flag))


def _summarize(args):
    read = [(path,) + _read(path, "summarize", "telemetry", "trace") for path in args.artifact]
    for path, kind, records in read:  # every artifact is read before any is printed
        if kind == "telemetry":
            from repro.telemetry.export import summarize as render
        else:
            from repro.tracing.export import render_summary as render
        print(render(records))
        print("  artifact %s" % path)
    return 0


#: export format -> the artifact kind it renders
_FORMATS = {"csv": "telemetry", "prom": "telemetry", "chrome": "trace"}


def _export(args):
    from repro.artifact import ArtifactError

    path = args.artifact
    kind, records = _read(path, "export", "telemetry", "trace")
    fmt = args.format or ("csv" if kind == "telemetry" else "chrome")
    if _FORMATS[fmt] != kind:
        raise ArtifactError(path, 1, "a %s artifact has no --format %s" % (kind, fmt))
    if kind == "telemetry":
        _refuse_flags(path, kind, (("--max-ops", args.max_ops),
                                   ("--window-from-telemetry", args.window_from_telemetry)))
        from repro.telemetry.export import prometheus_text, write_csv

        if fmt == "prom" and not args.out:
            sys.stdout.write(prometheus_text(records))
            return 0
        out = args.out or os.path.splitext(path)[0] + ".csv"
        if fmt == "csv":
            write_csv(records, out)
        else:
            with open(out, "w") as handle:
                handle.write(prometheus_text(records))
        print("wrote %s" % out)
        return 0

    import json

    from repro.tracing.export import chrome_trace, filter_window, windows_from_telemetry

    if args.window_from_telemetry:
        windows = windows_from_telemetry(
            _read(args.window_from_telemetry, "--window-from-telemetry", "telemetry")[1])
        if windows:
            start = min(w["start_ns"] for w in windows)
            end = (None if any(w["end_ns"] is None for w in windows)
                   else max(w["end_ns"] for w in windows))
            records = filter_window(records, start, end)
            print("windowed to %d incident(s): %.3f..%s ms" % (
                len(windows), start / 1e6, "end" if end is None else "%.3f" % (end / 1e6)))
        else:
            print("no incidents in %s; exporting the full trace" % args.window_from_telemetry)
    out = args.out or os.path.splitext(path)[0] + ".json"
    trace = chrome_trace(records, max_ops=args.max_ops)
    with open(out, "w") as handle:
        json.dump(trace, handle)
    print("wrote %s (%d events) -- load in Perfetto / chrome://tracing"
          % (out, len(trace["traceEvents"])))
    return 0


def _bounded(kind, low, strict=False):
    """An argparse type: a ``kind`` that is at least ``low`` (above it if
    ``strict``).  Anything else is a usage error, not a run that hangs or
    fails."""
    def parse(text):
        value = kind(text)
        if not (value > low if strict else value >= low):  # NaN fails too
            raise argparse.ArgumentTypeError(
                "must be %s %s, got %s" % (">" if strict else ">=", low, text))
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid int value" message
    return parse


#: ``replay`` threshold flags of a telemetry artifact: DetectorThresholds fields
_POSITIVE = _bounded(float, 0, strict=True)  # rejects NaN too
_THRESHOLDS = (("storm_host_rate", _POSITIVE), ("storm_switch_rate", _POSITIVE),
               ("storm_min_windows", _bounded(int, 1)), ("watermark_fraction", _POSITIVE))


def _replay(args):
    path = args.artifact
    kind, records = _read(path, "replay", "telemetry", "repro")
    thresholds = {name: getattr(args, name) for name, _ in _THRESHOLDS
                  if getattr(args, name) is not None}
    if kind == "repro":
        _refuse_flags(path, kind, [("--" + name.replace("_", "-"), value)
                                   for name, value in thresholds.items()])
        from repro.validation.harness import replay_artifact

        report = replay_artifact(path, prefer_minimized=not args.original)
        print("replayed %s" % report.scenario.describe())
        if not report.violations:
            print("clean run (violation did not reproduce)")
            return 0
        print("%d violation(s):" % len(report.violations))
        for violation in report.violations:
            print("  [%s] %s: %s"
                  % (violation["oracle"], violation["subject"], violation["detail"]))
        return 1

    _refuse_flags(path, kind, (("--original", args.original),))
    from repro.telemetry.detectors import DetectorThresholds
    from repro.telemetry.export import replay_detectors

    incidents = replay_detectors(records, DetectorThresholds(**thresholds))
    print("replay: %d incidents" % len(incidents) if incidents else "replay: no incidents")
    for incident in incidents:
        record = incident.as_record()
        end = record["end_ns"]
        print("  [%s] %-18s %-8s t=%.3f..%sms %s" % (
            record["severity"], record["kind"], record["device"], record["start_ns"] / 1e6,
            "?" if end is None else "%.3f" % (end / 1e6), record["details"]))
    return 0


def _attribute(args):
    import json

    from repro.tracing.attribution import COMPONENTS, aggregate, attribute_records

    attributions = attribute_records(_read(args.artifact, "attribute", "trace")[1])
    if args.json:
        for attribution in attributions:
            print(json.dumps(attribution))
        return 0
    agg = aggregate(attributions)
    print("%d ops (%d attributed, %d incomplete), mean FCT %.3f ms"
          % (agg["ops"], agg["complete"], agg["incomplete"], agg["fct_mean_ns"] / 1e6))
    for name in COMPONENTS:
        print("  %-16s %6.1f%%  %.3f ms" % (
            name[:-3], 100.0 * agg[name.replace("_ns", "_share")], agg[name] / 1e6))
    slowest = sorted((a for a in attributions if a["complete"]),
                     key=lambda a: -a["fct_ns"])[: args.top]
    if slowest:
        print("slowest %d:" % len(slowest))
    for a in slowest:
        dominant = max(COMPONENTS, key=lambda name: a[name])
        print("  %s wr %d  %s %dB  FCT %.3f ms  dominated by %s (%.1f%%)" % (
            a["qp"], a["wr_id"], a["kind"], a["size_bytes"], a["fct_ns"] / 1e6,
            dominant[:-3], 100.0 * a[dominant] / max(1, a["fct_ns"])))
    return 0


def _storm(args):
    """The pause-causality DAG of a trace artifact, or with ``--demo``
    the section 4.3 experiment run once with both planes armed: exit 0
    only when telemetry saw a ``pause_storm`` and a DAG roots at the
    broken NIC's ``rx_pipeline_broken``."""
    import json

    from repro.tracing.attribution import attribute_records
    from repro.tracing.causality import build_dag, render_text

    def show(records):
        dag = build_dag(records, attribute_records(records))
        if args.json:
            print(json.dumps({"roots": dag.roots, "cyclic": dag.cyclic, "victims": dag.victims,
                              "nodes": [dag.nodes[k] for k in sorted(dag.nodes)]}))
        else:
            print(render_text(dag, max_trees=None if args.full else 8))
        return any(dag.nodes[root]["trigger"] == "rx_pipeline_broken" for root in dag.roots)

    if bool(args.artifact) == args.demo:
        raise _NoVerdict("storm: give an ARTIFACT or --demo")
    if args.artifact:
        show(_read(args.artifact, "storm", "trace")[1])
        return 0
    _make_dirs(args.out)

    from repro.experiments.storm import run_storm
    from repro.obs import TELEMETRY, TRACE
    from repro.telemetry.export import summarize

    label = "storm seed=%d" % args.seed
    with TELEMETRY.collect(label, args.out, "storm") as telemetry, \
            TRACE.collect(label, args.out, "storm") as trace:
        run_storm(seed=args.seed)
    storms = 0
    for records in telemetry.sessions:
        storms += sum(1 for r in records
                      if r.get("type") == "incident" and r.get("kind") == "pause_storm")
        print(summarize(records))
        print()
    rooted = [show(records) for records in trace.sessions]
    if args.out:
        print(telemetry.describe())
        print(trace.describe())
    print("storm demo: %d pause_storm incident(s), %d of %d DAG(s) rooted at a broken NIC"
          % (storms, sum(rooted), len(rooted)))
    if storms and any(rooted):
        return 0
    print("storm demo: expected a pause_storm incident and a DAG rooted at "
          "rx_pipeline_broken", file=sys.stderr)
    return 1


def _pingmesh(args):
    import json

    from repro.monitoring.pingmesh import read_probe_jsonl, summarize_probe_records

    summary = summarize_probe_records(read_probe_jsonl(args.probes))
    if args.json:
        print(json.dumps(summary))
        return 0
    print("%d probes, %d ok, error rate %.4f"
          % (summary["probes"], summary["ok"], summary["error_rate"]))
    rtt = summary["rtt_us"]
    if rtt["count"]:
        print("  rtt us: p50 %.1f  p90 %.1f  p99 %.1f  p999 %.1f"
              % (rtt["p50"], rtt["p90"], rtt["p99"], rtt["p999"]))
    for code, count in sorted(summary["errors"].items()):
        print("  error %-12s %d" % (code, count))
    return 0


def _metrics(args):
    from repro.telemetry.registry import CATALOG

    row = "%-32s %-10s %-8s %-18s %-6s %s"
    print(row % ("name", "kind", "unit", "source", "paper", "read from"))
    for spec in CATALOG:
        print(row % (spec.name, spec.kind, spec.unit, spec.source, spec.paper or "-",
                     spec.reading or "hook"))
    return 0


# -- the parser ---------------------------------------------------------------


def _exec_options(parser):
    """Options ``run`` and ``resume`` share: how the campaign executes."""
    parser.add_argument("-j", "--jobs", type=_bounded(int, 1),
                        help="worker processes (default: cpu count)")
    parser.add_argument("--timeout", type=_bounded(float, 0, strict=True), default=900.0,
                        help="per-run wall-clock limit in seconds (default 900)")
    parser.add_argument("--retries", type=_bounded(int, 0), default=1,
                        help="extra attempts after a failed or hung run (default 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute everything; neither read nor write the cache")
    parser.add_argument("--cache-dir",
                        help="result cache (default: .campaign-cache)")
    parser.add_argument("--inline", action="store_true",
                        help="run serially in this process (debugging; no isolation)")
    parser.add_argument("-q", "--quiet", action="store_true", help="no progress and no tables")
    parser.add_argument("--telemetry", action="store_true",
                        help="arm the telemetry plane; writes telemetry/*.jsonl")
    parser.add_argument("--trace", action="store_true",
                        help="arm the causal tracing plane; writes trace/*.jsonl")


def _repro_options(parser):
    """Options ``validate`` and ``mutation-check`` share: where a
    failure's JSONL repro goes and whether it is shrunk first."""
    parser.add_argument("--artifacts", metavar="DIR", help="where repro artifacts go")
    parser.add_argument("--no-shrink", action="store_true", help="keep failing scenarios whole")


def _parser():
    parser = _Parser(prog="python -m repro", description=(
        "Reproduce 'RDMA over Commodity Ethernet at Scale': run experiments, "
        "gate fingerprints, validate, and read artifacts.  See docs/cli.md."))
    verbs = parser.add_subparsers(dest="verb", metavar="VERB", required=True)

    def verb(name, handler, text):
        sub = verbs.add_parser(name, help=text, description=text)
        sub.set_defaults(handler=handler)
        return sub

    verb("list", _list, "list campaign targets and their sweepable parameters")

    p = verb("run", _run, "run experiments: parallel, cached, one table and the "
             "paper's verdicts per run")
    p.add_argument("which", nargs="*", help="experiment ids or name fragments (see `list`)")
    p.add_argument("--all", action="store_true", help="every target")
    p.add_argument("--spec", help="JSON sweep spec file (see repro.campaign.spec)")
    p.add_argument("--seeds", help="comma-separated seeds, e.g. 1,2,3")
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="set a runner parameter (repeatable)")
    p.add_argument("--name", help="campaign name (default: the spec's, or 'campaign')")
    p.add_argument("--out", help="campaign directory (default campaigns/<name>)")
    _exec_options(p)

    p = verb("resume", _resume, "finish an interrupted campaign")
    p.add_argument("dir", help="campaign directory holding manifest.json")
    _exec_options(p)

    p = verb("clean", _clean, "delete campaign directories and/or the result cache")
    p.add_argument("dirs", nargs="*", help="campaign directories to delete")
    p.add_argument("--cache", action="store_true", help="also clear the result cache")
    p.add_argument("--cache-dir", help="cache location to clear")

    p = verb("gate", _gate, "run the pinned scenarios and compare each to its pin")
    p.add_argument("scenarios", nargs="*", help="scenario names (or --all)")
    p.add_argument("--all", action="store_true", help="every scenario")
    p.add_argument("--list", action="store_true", help="list the scenarios")
    p.add_argument("--seed", type=int, default=1, help="scenario seed (default 1; an "
                   "unpinned seed prints fingerprints without a verdict)")
    p.add_argument("--telemetry", metavar="DIR", help="arm telemetry, write artifacts to DIR")
    p.add_argument("--trace", metavar="DIR", help="arm tracing, write artifacts to DIR")
    p.add_argument("--baseline", metavar="PATH",
                   help="pin file (default: benchmarks/BASELINE.json)")
    p.add_argument("--pin", action="store_true",
                   help="record instead of compare: rewrite the pin file from this run")

    p = verb("validate", _validate, "differential + metamorphic oracle sweep")
    p.add_argument("--seeds", type=int, default=25, help="scenarios to sweep (default 25)")
    p.add_argument("--start", type=int, default=0, help="first seed (default 0)")
    p.add_argument("--fail-fast", action="store_true", help="stop at the first violation")
    p.add_argument("--jsonl", metavar="PATH", help="also write the sweep rows here")
    p.add_argument("--no-metamorphic", action="store_true", help="base runs only")
    p.add_argument("--telemetry", metavar="DIR", help="arm telemetry, write artifacts to DIR")
    _repro_options(p)

    p = verb("mutation-check", _mutation_check, "prove the oracles catch reintroduced bugs")
    p.add_argument("--which", help="one mutation (default: all)")
    _repro_options(p)

    p = verb("summarize", _summarize, "render telemetry or trace artifacts")
    p.add_argument("artifact", nargs="+")

    p = verb("export", _export, "telemetry as csv or prom, a trace as chrome trace events")
    p.add_argument("artifact")
    p.add_argument("--format", choices=sorted(_FORMATS),
                   help="default: csv for telemetry, chrome for a trace")
    p.add_argument("--out", help="output path (default: beside the artifact; prom: stdout)")
    p.add_argument("--max-ops", type=_bounded(int, 0),
                   help="chrome: slice only the first N ops")
    p.add_argument("--window-from-telemetry", metavar="TELEMETRY_ARTIFACT",
                   help="chrome: narrow to that artifact's incident windows")

    p = verb("replay", _replay, "re-run detectors over telemetry, or re-simulate a repro")
    p.add_argument("artifact")
    for name, kind in _THRESHOLDS:
        p.add_argument("--" + name.replace("_", "-"), type=kind,
                       help="telemetry: detector threshold")
    p.add_argument("--original", action="store_true",
                   help="repro: the original scenario, not the minimized one")

    p = verb("attribute", _attribute, "per-op latency attribution of a trace")
    p.add_argument("artifact")
    p.add_argument("--top", type=_bounded(int, 1), default=5,
                   help="list the N slowest ops (default 5)")
    p.add_argument("--json", action="store_true", help="one JSON attribution per line")

    p = verb("storm", _storm, "pause-causality DAG of a trace, or the section 4.3 demo")
    p.add_argument("artifact", nargs="?")
    p.add_argument("--demo", action="store_true",
                   help="run the storm experiment with both planes armed")
    p.add_argument("--seed", type=int, default=1, help="--demo seed (default 1)")
    p.add_argument("--out", metavar="DIR", help="--demo: keep both planes' artifacts in DIR")
    p.add_argument("--full", action="store_true", help="every causal tree, not the largest 8")
    p.add_argument("--json", action="store_true", help="the DAG as JSON")

    p = verb("pingmesh", _pingmesh, "RTT percentiles and errors of a pingmesh probe log")
    p.add_argument("probes")
    p.add_argument("--json", action="store_true")

    verb("metrics", _metrics, "the telemetry metric catalog")
    return parser


if __name__ == "__main__":
    sys.exit(main())
