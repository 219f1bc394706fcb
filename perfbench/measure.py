"""The two invocation shapes: untraced (end-to-end) and traced (per-layer).

One *operation* is one repeat: build, boot, wire, run the job, check the
outcome.  A repeat fails if it raises, if an invariant or regime guard
breaks, or if its fingerprint differs from the first repeat of the same
invocation.

Host noise.  The dev container is a small VM on a shared host.  Its CPU
alternates between a fast mode and a mode 25-45% slower, in bursts of a
second or two, a third of the time or more; now and then it stays slow
for minutes.  Eight fresh processes running the same seed gave a
whole-repeat median that varied by 8% (one standard deviation), so a
median of repeats tracks the machine's mood, not the code.  Two things
are done about it, both printed next to the plain numbers:

* **Slice filter.**  Every timing is reduced with :func:`steady` -- the
  fastest sample -- and the timed region is reduced *slice by slice*:
  the job runs in fixed slices of simulated time (the same boundaries in
  every repeat, a few milliseconds of host time each), each slice's host
  time is the fastest across the repeats, and the region's time is the
  sum.  A burst costs nothing as long as every slice ran clean in one of
  the repeats; on the same eight processes the number varied by 0.8%.
* **Host speed.**  Before every repeat the driver times a fixed
  pure-Python loop (:func:`spin`, about 1.8 ms).  The fastest spin of the
  invocation says how fast the machine can currently go; every reported
  time is multiplied by ``REFERENCE_SPIN_S / fastest spin``, i.e. stated
  in seconds of a machine on which the spin takes ``REFERENCE_SPIN_S``
  (the dev container in its fast mode, where the factor is 1.00 +- 0.01).
  That is what keeps an invocation that fell entirely into a slow minute
  comparable with one that did not.  The spin is this file's own code and
  no change to ``src/`` can move it.
"""

import cProfile
import collections
import gc
import heapq
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback

import layers
import probes
from workloads import COUNT_UNITS

MIN_TIMED_REPEATS = 5
IMPORT_SAMPLES = 8
WARM_REPEATS = 3
SPINS_PER_REPEAT = 4
#: Fastest :func:`spin` on the dev container in its fast mode.
REFERENCE_SPIN_S = 0.00181


def pin_to_one_core():
    """Pin this process (and the children it starts) to one CPU."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[-1]})
    except (AttributeError, OSError):
        pass  # not Linux, or not permitted: measure unpinned


def steady(values):
    """The fastest sample: the statistic every timing is reduced with.
    The work timed is deterministic, so noise only ever adds."""
    return min(values)


class _SpinNode:
    __slots__ = ("key", "count")

    def __init__(self, key):
        self.key = key
        self.count = 0

    def bump(self, by):
        self.count += by
        return self.count


def spin():
    """The host-speed yardstick: a fixed loop of the operations the
    simulator is made of (method calls, slots, dict, heap, deque, tuples).
    Returns its host seconds.  Never change it: every recorded number is
    stated relative to it."""
    started = time.perf_counter()
    nodes = [_SpinNode(i) for i in range(64)]
    table = {}
    heap = []
    queue = collections.deque()
    total = 0
    for i in range(2500):
        node = nodes[i & 63]
        total += node.bump(i & 7)
        table[(i * 7919) & 1023] = node
        hit = table.get((i * 31) & 1023)
        if hit is not None:
            total += hit.key
        heapq.heappush(heap, (i * 2654435761 & 0xFFFF, i))
        if i & 3 == 3:
            total += heapq.heappop(heap)[1]
        queue.append((node, i))
        if len(queue) > 16:
            total += queue.popleft()[1]
    return time.perf_counter() - started


def time_import(modules, src):
    """Seconds one fresh interpreter spends importing ``modules``."""
    code = (
        "import sys, time; sys.path.insert(0, %r); t = time.perf_counter(); "
        "import %s; print(time.perf_counter() - t)" % (src, ", ".join(modules))
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return float(done.stdout.strip())


class Repeat:
    """One operation: its set-up spans, slice times and outcome."""

    def __init__(self, kind):
        self.kind = kind
        self.spans = {}
        self.slices = []
        self.outcome = None
        self.stats = None
        self.problems = []

    @property
    def wall_s(self):
        return sum(self.slices)

    @property
    def setup_s(self):
        return sum(self.spans.values())


def run_repeat(workload, seed, tiny, kind="plain"):
    """Run one repeat.  ``kind`` is ``plain``, ``profile`` (the timed
    region runs under cProfile) or ``audit`` (invariant auditors armed)."""
    repeat = Repeat(kind)
    perf = time.perf_counter
    try:
        t0 = perf()
        ctx = workload.build(seed, tiny)
        t1 = perf()
        workload.boot(ctx)
        t2 = perf()
        workload.wire(ctx)
        t3 = perf()
        repeat.spans = {"build": t1 - t0, "boot": t2 - t1, "wire": t3 - t2}
        finish_audit = workload.audit(ctx) if kind == "audit" else None
        profiler = cProfile.Profile() if kind == "profile" else None
        slices = repeat.slices
        if profiler is not None:
            profiler.enable()
        last = perf()
        for _ in workload.slices(ctx):
            now = perf()
            slices.append(now - last)
            last = now
        if profiler is not None:
            profiler.disable()
            repeat.stats = pstats.Stats(profiler).stats
        if finish_audit is not None:
            repeat.problems.extend(finish_audit())
        repeat.outcome = workload.observe(ctx)
        repeat.problems.extend(repeat.outcome.problems)
    except Exception:  # one failed operation must not end the invocation
        repeat.problems.append("raised:\n" + traceback.format_exc())
    gc.collect()
    return repeat


class Result:
    """What one invocation reports."""

    def __init__(self, workload, seed, trace):
        self.workload = workload.name
        self.seed = seed
        self.trace = trace
        self.metrics = {}  # name -> (value, unit), in report order
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.reference = None  # first good Outcome: fingerprint + counts
        self.notes = []

    def metric(self, name, value, unit):
        self.metrics[name] = (value, unit)

    def account(self, repeat):
        """Count one operation; returns True when it passed."""
        self.attempted += 1
        problems = list(repeat.problems)
        outcome = repeat.outcome
        if outcome is not None and not problems:
            if self.reference is None:
                self.reference = outcome
            elif outcome.fingerprint != self.reference.fingerprint:
                problems.append(
                    "fingerprint %s differs from the first repeat's %s"
                    % (outcome.fingerprint, self.reference.fingerprint)
                )
        if problems:
            self.failed += 1
            self.failures.append("%s repeat: %s" % (repeat.kind, "; ".join(problems)))
        return not problems


class _Session:
    """One invocation's repeats, with the host samples taken between
    them: a few :func:`spin` before every repeat and, before the first
    :data:`IMPORT_SAMPLES` repeats, one fresh-interpreter import."""

    def __init__(self, workload, seed, src, tiny, trace):
        self.workload = workload
        self.seed = seed
        self.src = src
        self.tiny = tiny
        self.result = Result(workload, seed, trace)
        self.spins = []
        self.imports = []

    def repeat(self, kind="plain"):
        """Sample the host, run one repeat, account for it; returns the
        repeat and whether it passed."""
        self.spins.extend(spin() for _ in range(SPINS_PER_REPEAT))
        if len(self.imports) < (2 if self.tiny else IMPORT_SAMPLES):
            self.imports.append(time_import(self.workload.modules, self.src))
        repeat = run_repeat(self.workload, self.seed, self.tiny, kind)
        return repeat, self.result.account(repeat)

    def host_speed(self):
        """This host's speed relative to the reference machine (below 1:
        slower); a measured time x this is in reference seconds."""
        return REFERENCE_SPIN_S / min(self.spins)

    def wall_s(self, repeats):
        """The timed region: per slice, the steady host time across
        ``repeats``; summed; in reference seconds."""
        columns = zip(*(r.slices for r in repeats))
        return sum(map(steady, columns)) * self.host_speed()

    def note_host(self):
        self.result.notes.append(
            "host speed %.4f of the reference (fastest of %d spins %.4f ms, reference "
            "%.4f ms); every time above is measured seconds x %.4f"
            % (self.host_speed(), len(self.spins), min(self.spins) * 1e3,
               REFERENCE_SPIN_S * 1e3, self.host_speed())
        )


def untraced(workload, seed, seconds, src, tiny=False):
    """End-to-end metrics: no profiler, no auditors, hubs dark.

    One discarded warm-up repeat, then timed repeats until their timed
    regions add up to ``seconds``, never fewer than
    :data:`MIN_TIMED_REPEATS`."""
    session = _Session(workload, seed, src, tiny, trace=False)
    result = session.result
    warm_up, _ok = session.repeat()
    good = []
    spent = 0.0
    # Give up once as many repeats failed as a run needs to succeed.
    while (len(good) < MIN_TIMED_REPEATS or spent < seconds) and (
        result.failed < MIN_TIMED_REPEATS
    ):
        repeat, ok = session.repeat()
        spent += repeat.wall_s
        if ok:
            good.append(repeat)
    if not good:
        return result
    units = result.reference.units
    speed = session.host_speed()
    wall_s = session.wall_s(good)
    setup_s = (steady(session.imports) + steady(r.setup_s for r in good)) * speed
    walls = sorted(r.wall_s for r in good)
    result.metric("units_per_s", units / wall_s, "1/s")
    result.metric("wall_s", wall_s, "s")
    result.metric("setup_s", setup_s, "s")
    result.metric(
        "peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
    )
    result.notes.append("unit of work: %s; %d units per repeat" % (workload.unit, units))
    result.notes.append(
        "timed repeats n=%d, %d slices each; measured whole-repeat wall median %.4f s, "
        "min %.4f s, max %.4f s; warm-up %.4f s; slice-filtered %.4f s"
        % (len(good), len(good[0].slices), statistics.median(walls), walls[0], walls[-1],
           warm_up.wall_s, wall_s / speed)
    )
    session.note_host()
    return result


def traced(workload, seed, src, tiny=False, probe_seconds=probes.LOOP_SECONDS):
    """Per-layer metrics: one cold and :data:`WARM_REPEATS` warm untraced
    repeats (the untraced reference), one repeat under cProfile, one
    under the invariant auditors, then the layer probes."""
    session = _Session(workload, seed, src, tiny, trace=True)
    result = session.result
    kinds = ["plain"] * (1 + WARM_REPEATS) + ["profile", "audit"]
    repeats, passed = zip(*(session.repeat(kind) for kind in kinds))
    if not all(passed):
        return result
    cold, warms, profiled, audited = repeats[0], repeats[1:-2], repeats[-2], repeats[-1]
    units = result.reference.units
    speed = session.host_speed()
    wall_s = session.wall_s(warms)

    attribution, unmapped = layers.attribute(profiled.stats)
    for name in layers.LAYERS:
        row = attribution[name]
        result.metric(name + ".share", row["share"], "ratio")
        result.metric(name + ".ns_per_unit", row["share"] * wall_s / units * 1e9, "ns")
        result.metric(name + ".calls_per_unit", row["calls"] / units, "count")
    result.metric("trace.unmapped_share", unmapped, "ratio")
    result.metric("trace.overhead_ratio", profiled.wall_s * speed / wall_s, "ratio")
    result.metric("trace.host_speed", speed, "ratio")

    result.metric("setup.import_s", steady(session.imports) * speed, "s")
    for phase in ("build", "boot", "wire"):
        result.metric(
            "setup.%s_s" % phase, steady(r.spans[phase] for r in repeats) * speed, "s"
        )
    result.metric("run.cold_over_warm", cold.wall_s * speed / wall_s, "ratio")

    for name, value in warms[0].outcome.counts.items():
        result.metric(name, value, COUNT_UNITS[name])

    for probe in probes.PROBES:
        value, _witness = probes.run_probe(probe, steady, loop_seconds=probe_seconds)
        result.metric(probe.name, value * speed, probe.unit)

    result.notes.append("unit of work: %s; %d units per repeat" % (workload.unit, units))
    result.notes.append(
        "measured walls: cold %.4f s, warm %s, profiled %.4f s, audited %.4f s -- "
        "profiled seconds are not real ones"
        % (cold.wall_s, ", ".join("%.4f s" % r.wall_s for r in warms),
           profiled.wall_s, audited.wall_s)
    )
    session.note_host()
    return result
