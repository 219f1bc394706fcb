"""CLI: orchestrate experiment campaigns.

    python -m repro.campaign list
    python -m repro.campaign run --all                    # every catalogue entry
    python -m repro.campaign run E1 A2 --seeds 1,2,3 -j 4
    python -m repro.campaign run E8 --param duration_ns=20000000 --seeds 1,2
    python -m repro.campaign run --spec sweep.json --out campaigns/sweep
    python -m repro.campaign resume campaigns/sweep
    python -m repro.campaign clean campaigns/sweep --cache

``run`` executes a sweep in parallel worker processes, skipping any
(code, experiment, params, seed) combination already in the result
cache; ``resume`` finishes an interrupted campaign directory; ``clean``
deletes campaign artifacts and/or the cache.
"""

import argparse
import ast
import os
import shutil
import sys

from repro.campaign.cache import ResultCache, default_cache_dir
from repro.campaign.registry import DEFAULT_REGISTRY
from repro.campaign.runner import Campaign
from repro.campaign.spec import SpecError, SweepSpec


def _parse_value(text):
    """CLI parameter values: Python literals, falling back to strings."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _parse_params(pairs):
    params = {}
    for pair in pairs or ():
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise SpecError("--param expects name=value, got %r" % pair)
        params[name] = _parse_value(value)
    return params


def _parse_seeds(text):
    if not text:
        return None
    try:
        return [int(token) for token in text.replace(",", " ").split()]
    except ValueError:
        raise SpecError("--seeds expects comma-separated integers, got %r" % text)


def _build_spec(args):
    if args.spec:
        if args.which or args.all:
            raise SpecError("--spec and experiment ids are mutually exclusive")
        return SweepSpec.from_file(args.spec)
    if args.all:
        selected = DEFAULT_REGISTRY.ids()
    else:
        selected, unmatched = DEFAULT_REGISTRY.resolve_tokens(args.which)
        if unmatched:
            raise SpecError("no experiment matches %r (try `list`)" % unmatched[0])
        if not selected:
            raise SpecError("nothing selected: name experiments, or pass --all / --spec")
    params = _parse_params(args.param)
    seeds = _parse_seeds(args.seeds)
    grid = {name: [value] for name, value in params.items()}
    targets = [
        {"experiment": exp_id, **({"grid": grid} if grid else {}),
         **({"seeds": seeds} if seeds else {})}
        for exp_id in selected
    ]
    return SweepSpec.from_dict({"name": args.name or "campaign", "targets": targets})


def _campaign_kwargs(args):
    return dict(
        cache=ResultCache(args.cache_dir) if args.cache_dir else ResultCache(),
        use_cache=not args.no_cache,
        jobs=args.jobs,
        timeout_s=args.timeout,
        retries=args.retries,
        inline=args.inline,
        echo=(lambda line: None) if args.quiet else print,
        telemetry=args.telemetry,
    )


def _cmd_list(args):
    print("campaign targets (sweep any listed parameter; * = seeded):")
    for entry in DEFAULT_REGISTRY.entries():
        parameters = entry.parameters()
        names = ", ".join(n for n in parameters if n != "seed") or "-"
        print(
            "%-4s %-24s %s\n     params: %s%s"
            % (
                entry.exp_id,
                entry.runner_name,
                entry.description,
                names,
                "  [*seeded]" if entry.seedable else "",
            )
        )
    return 0


def _cmd_run(args):
    try:
        spec = _build_spec(args)
    except SpecError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    out_dir = args.out or os.path.join("campaigns", spec.name)
    report = Campaign(spec, out_dir, **_campaign_kwargs(args)).run()
    return 0 if report.all_ok else 1


def _cmd_resume(args):
    try:
        report = Campaign.resume(args.dir, **_campaign_kwargs(args))
    except (FileNotFoundError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0 if report.all_ok else 1


def _cmd_clean(args):
    status = 0
    for directory in args.dirs:
        store_manifest = os.path.join(directory, "manifest.json")
        if not os.path.exists(store_manifest):
            print("error: %s has no manifest.json; not a campaign dir, refusing to delete"
                  % directory, file=sys.stderr)
            status = 2
            continue
        shutil.rmtree(directory)
        print("removed %s" % directory)
    if args.cache:
        cache = ResultCache(args.cache_dir) if args.cache_dir else ResultCache()
        removed = cache.clear()
        print("cache %s: removed %d entr%s" % (
            cache.directory, removed, "y" if removed == 1 else "ies"))
    if not args.dirs and not args.cache:
        print("nothing to clean: name campaign dirs and/or pass --cache", file=sys.stderr)
        status = 2
    return status


def _add_exec_options(parser):
    parser.add_argument("-j", "--jobs", type=int, default=None,
                        help="worker processes (default: cpu count, or $REPRO_CAMPAIGN_JOBS)")
    parser.add_argument("--timeout", type=float, default=900.0,
                        help="per-run wall-clock limit in seconds (default 900)")
    parser.add_argument("--retries", type=int, default=1,
                        help="extra attempts after a failed/hung run (default 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute everything; do not read or write the cache")
    parser.add_argument("--telemetry", action="store_true",
                        help="collect telemetry per run (writes telemetry/*.jsonl "
                        "into the campaign dir)")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache location (default: $REPRO_CAMPAIGN_CACHE or %s)"
                        % default_cache_dir())
    parser.add_argument("--inline", action="store_true",
                        help="run serially in-process (debugging; no isolation)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress progress output")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Parallel, cached, resumable sweeps over the experiment catalogue.",
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list campaign targets and their sweepable parameters")

    run_parser = sub.add_parser("run", help="execute a sweep")
    run_parser.add_argument("which", nargs="*",
                            help="experiment ids or name fragments (see `list`)")
    run_parser.add_argument("--all", action="store_true", help="run every target")
    run_parser.add_argument("--spec", help="JSON sweep spec file (see repro.campaign.spec)")
    run_parser.add_argument("--seeds", help="comma-separated seed list, e.g. 1,2,3")
    run_parser.add_argument("--param", action="append", metavar="NAME=VALUE",
                            help="override a runner parameter (repeatable)")
    run_parser.add_argument("--name", help="campaign name (default: spec name or 'campaign')")
    run_parser.add_argument("--out", help="campaign directory (default campaigns/<name>)")
    _add_exec_options(run_parser)

    resume_parser = sub.add_parser("resume", help="finish an interrupted campaign")
    resume_parser.add_argument("dir", help="campaign directory containing manifest.json")
    _add_exec_options(resume_parser)

    clean_parser = sub.add_parser("clean", help="delete campaign dirs and/or the cache")
    clean_parser.add_argument("dirs", nargs="*", help="campaign directories to delete")
    clean_parser.add_argument("--cache", action="store_true", help="also clear the result cache")
    clean_parser.add_argument("--cache-dir", default=None, help="cache location to clear")
    args = parser.parse_args(argv)

    if args.command == "list":
        return _cmd_list(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "resume":
        return _cmd_resume(args)
    if args.command == "clean":
        return _cmd_clean(args)
    parser.print_help()
    return 0


if __name__ == "__main__":
    sys.exit(main())
