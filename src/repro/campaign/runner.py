"""The campaign orchestrator.

Ties the pieces together: expand a :class:`SweepSpec` into runs, check
the :class:`ResultCache` for each, fan the misses out over the
:mod:`process pool <repro.campaign.pool>`, write JSONL/CSV artifacts
and an incrementally-updated manifest, and report progress with an ETA
as results stream in.

The flow of one campaign::

    spec --expand--> [RunSpec...]
        --cache?--> hits: artifacts written straight from cache
        --pool----> misses: execute_run() in isolated worker processes
        --store---> runs/<id>.jsonl + csv/<id>.csv + manifest.json
                    (+ <plane>/<id>-<i>.<plane>.jsonl per armed hub)
        --judge---> the catalogue entry's paper claims on the rows,
                    into the manifest entry (cache hits too)

Claims are a pure function of rows, so they are judged afresh on every
finished run under the current claim code and never cached.
"""

import contextlib
import time

from repro.campaign import pool
from repro.campaign.cache import ResultCache, code_version, run_key
from repro.campaign.spec import SweepSpec
from repro.campaign.store import CampaignStore
from repro.experiments.catalog import CATALOG, resolve_ref
from repro.obs import HUBS

#: run statuses recorded in the manifest
OK = pool.OK
FAILED = "failed"
PENDING = "pending"


def execute_run(payload):
    """Worker-side entry: run one experiment and return its payload.

    ``payload`` is ``RunSpec.describe()`` plus ``run_id``.  The runner
    is resolved from its ``module:attr`` reference *inside* the worker
    process, the seed (when present) is passed as the runner's ``seed``
    keyword, and the result is reduced to plain JSON-serializable data
    so it can cross the process boundary and land in the cache.

    ``payload["hubs"]`` names the observation planes to arm (every
    fabric the runner boots gets a session of each -- see
    :mod:`repro.obs`); their drained session records ride back in the
    result as ``sessions``, keyed by plane name.
    """
    runner = resolve_ref(payload["ref"])
    kwargs = dict(payload["params"])
    if payload.get("seed") is not None:
        kwargs["seed"] = payload["seed"]
    with contextlib.ExitStack() as stack:
        collections = [stack.enter_context(hub.collect(payload["run_id"]))
                       for hub in HUBS if hub.name in payload.get("hubs", ())]
        started = time.monotonic()
        result = runner(**kwargs)
    duration_s = time.monotonic() - started
    schema = result.check_schema()
    rows = result.normalized_rows()
    out = {
        "run_id": payload["run_id"],
        "title": result.title,
        "schema": schema,
        "rows": rows,
        "duration_s": duration_s,
        "violations": _violation_count(rows),
    }
    if collections:
        out["sessions"] = {c.hub.name: c.sessions for c in collections}
    return out


def _violation_count(rows):
    """Auditor violations surfaced by the run (via its row column)."""
    total = 0
    for row in rows:
        value = row.get("invariant_violations")
        if isinstance(value, (int, float)):
            total += int(value)
    return total


class CampaignReport:
    """Summary of one orchestrated campaign."""

    __slots__ = ("name", "out_dir", "total", "ok", "failed", "cache_hits",
                 "wall_s", "compute_s", "manifest", "claims_failed")

    def __init__(self, name, out_dir, total, ok, failed, cache_hits,
                 wall_s, compute_s, manifest, claims_failed):
        self.name = name
        self.out_dir = out_dir
        self.total = total
        self.ok = ok
        self.failed = failed
        self.cache_hits = cache_hits
        self.wall_s = wall_s
        self.compute_s = compute_s
        self.manifest = manifest
        #: paper claims judged false across the finished runs
        self.claims_failed = claims_failed

    @property
    def all_ok(self):
        return self.failed == 0

    def summary(self):
        line = (
            "campaign %r: %d/%d ok, %d cached, wall %.1fs"
            % (self.name, self.ok, self.total, self.cache_hits, self.wall_s)
        )
        if self.compute_s > self.wall_s * 1.05:
            line += " (serial-equivalent %.1fs, %.1fx)" % (
                self.compute_s, self.compute_s / max(self.wall_s, 1e-9),
            )
        if self.failed:
            line += ", %d FAILED" % self.failed
        if self.claims_failed:
            line += ", %d claim(s) FAILED" % self.claims_failed
        return line


class Campaign:
    """Orchestrate one spec into one campaign directory."""

    def __init__(self, spec, out_dir, cache=None, use_cache=True,
                 jobs=None, timeout_s=900.0, retries=1, inline=False, echo=print,
                 hubs=()):
        self.spec = spec
        self.store = CampaignStore(out_dir)
        self.cache = cache if cache is not None else ResultCache()
        #: the planes (``repro.obs.HUBS``) every run is armed with
        self.hubs = tuple(hubs)
        self.use_cache = use_cache
        self.jobs = pool.default_jobs() if jobs is None else jobs
        self.timeout_s = timeout_s
        self.retries = retries
        self.inline = inline
        self.echo = echo or (lambda line: None)

    @classmethod
    def resume(cls, out_dir, **kwargs):
        """Reopen an interrupted campaign directory and finish it."""
        manifest = CampaignStore(out_dir).load_manifest()
        if manifest is None:
            raise FileNotFoundError("no campaign manifest in %r" % out_dir)
        spec = SweepSpec.from_dict(manifest["spec"])
        campaign = cls(spec, out_dir, **kwargs)
        return campaign.run(resume=True)

    def run(self, resume=False):
        """Execute (or finish) the campaign; returns a :class:`CampaignReport`.

        With ``resume=True``, runs already recorded ``ok`` in the
        manifest under the current code version keep their entries and
        artifacts untouched; everything else (pending, failed, newly
        added to the spec, ``ok`` with a lost row file, or written by
        other code) executes, and the cache decides what it costs.
        """
        started_wall = time.monotonic()
        runs = self.spec.expand()
        stored = self.store.load_manifest() if resume else None
        reusable = stored is not None and stored.get("code_version") == code_version()
        manifest = self._manifest_base(stored)
        entries = manifest["runs"]

        todo = []
        reused = 0
        for run in runs:
            previous = entries.get(run.run_id)
            rows = (self.store.read_run_rows(run.run_id)
                    if reusable and previous and previous.get("status") == OK else None)
            if rows is not None:
                self._judge(previous, rows)
                reused += 1
                continue
            entry = run.describe()
            entry.update(status=PENDING, cache_hit=False, duration_s=None,
                         violations=None, rows=None, error=None, attempts=0,
                         claims=[])
            entries[run.run_id] = entry
            todo.append(run)
        self.store.save_manifest(manifest)

        progress = _Progress(len(runs), self.jobs, self.echo)
        progress.skipped(reused)

        misses = []
        for run in todo:
            key = run_key(run) if self.use_cache else None
            payload = self.cache.get(key) if key else None
            # An armed run is the dark run plus its artifacts, so either
            # kind fills the cache; only an entry that carries the
            # sessions of every armed plane can stand in for an armed run
            # (any other re-runs and is overwritten).
            if payload is not None and all(
                    hub.name in payload.get("sessions", {}) for hub in self.hubs):
                self._record_success(manifest, run.run_id, payload, cache_hit=True)
                progress.done(run.run_id, 0.0, cached=True)
            else:
                misses.append((run, key))

        tasks = []
        keys = {}
        for run, key in misses:
            task_payload = run.describe()
            task_payload["run_id"] = run.run_id
            task_payload["hubs"] = [hub.name for hub in self.hubs]
            tasks.append((run.run_id, task_payload))
            keys[run.run_id] = key

        def on_event(event):
            if event["type"] == "start":
                progress.started(event["task_id"], event["attempt"])
            elif event["type"] == "retry":
                progress.retry(event["task_id"], event["status"], event["attempt"])
            elif event["type"] == "done":
                outcome = event["outcome"]
                if outcome.ok:
                    payload = outcome.value
                    payload["attempts"] = outcome.attempts
                    self._record_success(manifest, outcome.task_id, payload, cache_hit=False)
                    if keys.get(outcome.task_id):
                        self.cache.put(keys[outcome.task_id], payload)
                else:
                    self._record_failure(manifest, outcome)
                progress.done(outcome.task_id, outcome.duration_s, failed=not outcome.ok)

        if tasks:
            pool.run_tasks(
                tasks, execute_run, jobs=self.jobs, timeout_s=self.timeout_s,
                retries=self.retries, on_event=on_event, inline=self.inline,
            )

        wall_s = time.monotonic() - started_wall
        ok = sum(1 for e in entries.values() if e.get("status") == OK)
        failed = sum(1 for e in entries.values() if e.get("status") == FAILED)
        compute_s = sum(e.get("duration_s") or 0.0 for e in entries.values())
        cache_hits = sum(1 for e in entries.values() if e.get("cache_hit"))
        claims_failed = sum(1 for e in entries.values()
                            for claim in e.get("claims", ()) if not claim["passed"])
        manifest["totals"] = {
            "runs": len(entries), "ok": ok, "failed": failed,
            "cache_hits": cache_hits, "claims_failed": claims_failed,
            # Same precision as the per-run duration_s entries (4 dp):
            # rounding the total coarser than its constituents can make
            # compute_s < max(duration_s), which reads as impossible.
            "wall_s": round(wall_s, 3), "compute_s": round(compute_s, 4),
            "violations": sum(e.get("violations") or 0 for e in entries.values()),
        }
        self.store.save_manifest(manifest)
        report = CampaignReport(
            self.spec.name, self.store.out_dir, len(entries), ok, failed,
            cache_hits, wall_s, compute_s, manifest, claims_failed,
        )
        self.echo(report.summary())
        return report

    # -- manifest bookkeeping ---------------------------------------------------

    def _manifest_base(self, manifest):
        """The manifest this run writes: ``manifest`` (the stored one
        being resumed) brought up to the current code version and job
        count, or a fresh one when it is None."""
        if manifest is None:
            manifest = {
                "name": self.spec.name,
                "created": _now_iso(),
                "code_version": code_version(),
                "jobs": self.jobs,
                "spec": self.spec.to_dict(),
                "runs": {},
                "totals": {},
            }
        else:
            manifest["code_version"] = code_version()
            manifest["jobs"] = self.jobs
        return manifest

    def _record_success(self, manifest, run_id, payload, cache_hit):
        jsonl, csv_path = self.store.write_run_artifacts(
            run_id, payload["schema"], payload["rows"]
        )
        entry = manifest["runs"][run_id]
        for hub in self.hubs:
            entry[hub.name] = hub.write_artifacts(
                payload["sessions"][hub.name], self.store.plane_dir(hub.name), run_id)
        entry.update(
            status=OK,
            cache_hit=cache_hit,
            title=payload.get("title"),
            duration_s=round(payload.get("duration_s") or 0.0, 4),
            violations=payload.get("violations", 0),
            rows=len(payload["rows"]),
            attempts=payload.get("attempts", 0 if cache_hit else 1),
            error=None,
            jsonl=jsonl,
            csv=csv_path,
        )
        self._judge(entry, payload["rows"])
        manifest["updated"] = _now_iso()
        self.store.save_manifest(manifest)

    def _judge(self, entry, rows):
        """Record the paper's verdicts on ``rows`` in ``entry``: the
        claims of the catalogue entry whose runner produced them (a
        spec's inline ``ref`` names another runner, so has none)."""
        target = CATALOG.get(entry["experiment"])
        verdicts = target.judge(rows) if target and target.ref == entry["ref"] else []
        entry["claims"] = [{"name": name, "passed": passed} for name, passed in verdicts]

    def _record_failure(self, manifest, outcome):
        entry = manifest["runs"][outcome.task_id]
        entry.update(
            status=FAILED,
            cache_hit=False,
            duration_s=round(outcome.duration_s, 4),
            attempts=outcome.attempts,
            error="%s: %s" % (outcome.status, (outcome.error or "").strip()[-2000:]),
        )
        manifest["updated"] = _now_iso()
        self.store.save_manifest(manifest)


class _Progress:
    """Streamed ``[done/total]`` lines with a crude but honest ETA."""

    def __init__(self, total, jobs, echo):
        self.total = total
        self.jobs = jobs
        self.echo = echo
        self.completed = 0
        self.durations = []

    def skipped(self, count):
        if count:
            self.completed += count
            self.echo("resume: %d run(s) already complete, skipping" % count)

    def started(self, run_id, attempt):
        if attempt > 1:
            self.echo("        %s attempt %d" % (run_id, attempt))

    def retry(self, run_id, status, attempt):
        self.echo("        %s %s on attempt %d, retrying" % (run_id, status, attempt))

    def done(self, run_id, duration_s, cached=False, failed=False):
        self.completed += 1
        if not cached and not failed:
            self.durations.append(duration_s)
        if cached:
            note = "cached"
        elif failed:
            note = "FAILED after %.1fs" % duration_s
        else:
            note = "ok %.1fs" % duration_s
        eta = self._eta()
        self.echo(
            "[%*d/%d] %-28s %s%s"
            % (len(str(self.total)), self.completed, self.total, run_id, note, eta)
        )

    def _eta(self):
        remaining = self.total - self.completed
        if remaining <= 0 or not self.durations:
            return ""
        average = sum(self.durations) / len(self.durations)
        return "  eta ~%ds" % max(1, int(average * remaining / self.jobs))


def _now_iso():
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.localtime())
