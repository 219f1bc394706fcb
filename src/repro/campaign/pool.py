"""A process-per-task worker pool with timeouts, retries and isolation.

``multiprocessing.Pool`` shares long-lived workers, so one run that
segfaults, leaks, or wedges takes unrelated runs down with it and a
per-task timeout cannot kill the offender without killing the pool.
Campaign runs are seconds-to-minutes each, so we afford one forked
process per task instead: a crash, a hang, or an over-limit run is
terminated and retried without disturbing anything else.

:func:`run_tasks` is deliberately generic -- the campaign orchestrator
feeds it experiment runs, ``scripts/audit_smoke.py`` feeds it example
scripts -- and fully synchronous from the caller's point of view.
"""

import multiprocessing
import os
import time
import traceback

#: outcome statuses
OK = "ok"
ERROR = "error"
TIMEOUT = "timeout"
CRASHED = "crashed"

_POLL_INTERVAL_S = 0.02


class TaskOutcome:
    """Terminal state of one task after all attempts."""

    __slots__ = ("task_id", "status", "value", "error", "duration_s", "attempts")

    def __init__(self, task_id, status, value=None, error=None, duration_s=0.0, attempts=1):
        self.task_id = task_id
        self.status = status
        self.value = value  # worker return value when status == OK
        self.error = error  # human-readable failure description otherwise
        self.duration_s = duration_s
        self.attempts = attempts

    @property
    def ok(self):
        return self.status == OK

    def __repr__(self):
        return "TaskOutcome(%s, %s, %.2fs, attempt %d)" % (
            self.task_id, self.status, self.duration_s, self.attempts,
        )


def default_jobs():
    """Worker count: the machine's cores."""
    return max(1, multiprocessing.cpu_count())


def _child_main(worker, payload, conn):
    """Child entry: run the worker, ship (status, value) over the pipe."""
    try:
        value = worker(payload)
    except BaseException:
        result = (ERROR, traceback.format_exc())
    else:
        result = (OK, value)
    try:
        conn.send(result)
        conn.close()
    except Exception:
        os._exit(70)  # parent will see CRASHED
    os._exit(0)


class _Running:
    __slots__ = ("task_id", "payload", "process", "conn", "started", "attempt", "received")

    def __init__(self, task_id, payload, worker, attempt):
        self.task_id = task_id
        self.payload = payload
        self.attempt = attempt
        self.received = None
        ctx = _context()
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        self.conn = parent_conn
        self.process = ctx.Process(
            target=_child_main, args=(worker, payload, child_conn), daemon=True
        )
        self.started = time.monotonic()
        self.process.start()
        child_conn.close()

    @property
    def elapsed(self):
        return time.monotonic() - self.started

    def poll(self):
        """Drain the pipe if the child has reported."""
        try:
            if self.received is None and self.conn.poll():
                self.received = self.conn.recv()
        except (EOFError, OSError):
            pass

    def kill(self):
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(1.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(1.0)
        self.conn.close()

    def finish(self):
        self.process.join()
        self.conn.close()


def _context():
    """Fork where available (inherits runtime-registered targets and
    ``sys.path``); the platform default elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


def run_tasks(tasks, worker, jobs=None, timeout_s=None, retries=0, on_event=None, inline=False):
    """Run ``worker(payload)`` for every ``(task_id, payload)`` task.

    ``tasks``
        Ordered list of ``(task_id, payload)`` pairs; payloads must be
        picklable, ids unique.
    ``worker``
        Module-level callable executed in a child process.  Its return
        value must be picklable.
    ``jobs``
        Maximum concurrent processes, at least 1 (default:
        :func:`default_jobs`).
    ``timeout_s``
        Per-attempt wall-clock limit; over-limit children are killed.
    ``retries``
        Extra attempts after an error / timeout / crash.
    ``on_event``
        Callback receiving dicts: ``{"type": "start"|"retry"|"done",
        "task_id": ..., ...}``; ``done`` events carry the outcome.
    ``inline``
        Run everything in-process, serially, with no isolation --
        for debugging and for platforms without working ``fork``.

    Returns ``{task_id: TaskOutcome}``; never raises for task failures.
    """
    tasks = list(tasks)
    ids = [task_id for task_id, _payload in tasks]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate task ids")
    if jobs is None:
        jobs = default_jobs()
    elif jobs < 1:
        raise ValueError("jobs must be at least 1, got %r" % (jobs,))
    notify = on_event or (lambda event: None)

    if inline:
        return _run_inline(tasks, worker, timeout_s, retries, notify)

    outcomes = {}
    pending = list(tasks)  # (task_id, payload)
    attempts = {task_id: 0 for task_id in ids}
    running = []
    try:
        while pending or running:
            while pending and len(running) < jobs:
                task_id, payload = pending.pop(0)
                attempts[task_id] += 1
                notify({"type": "start", "task_id": task_id, "attempt": attempts[task_id]})
                running.append(_Running(task_id, payload, worker, attempts[task_id]))

            time.sleep(_POLL_INTERVAL_S)
            still = []
            for run in running:
                run.poll()
                outcome = None
                if run.received is not None:
                    run.finish()
                    status, value = run.received
                    if status == OK:
                        outcome = TaskOutcome(
                            run.task_id, OK, value=value,
                            duration_s=run.elapsed, attempts=run.attempt,
                        )
                    else:
                        outcome = TaskOutcome(
                            run.task_id, ERROR, error=value,
                            duration_s=run.elapsed, attempts=run.attempt,
                        )
                elif timeout_s is not None and run.elapsed > timeout_s:
                    run.kill()
                    outcome = TaskOutcome(
                        run.task_id, TIMEOUT,
                        error="timed out after %.1fs" % run.elapsed,
                        duration_s=run.elapsed, attempts=run.attempt,
                    )
                elif not run.process.is_alive():
                    run.poll()  # final drain: result may have raced the exit
                    if run.received is not None:
                        still.append(run)
                        continue
                    run.finish()
                    outcome = TaskOutcome(
                        run.task_id, CRASHED,
                        error="worker died with exit code %s" % run.process.exitcode,
                        duration_s=run.elapsed, attempts=run.attempt,
                    )
                if outcome is None:
                    still.append(run)
                elif not outcome.ok and outcome.attempts <= retries:
                    notify({
                        "type": "retry", "task_id": outcome.task_id,
                        "status": outcome.status, "attempt": outcome.attempts,
                    })
                    pending.append((run.task_id, run.payload))
                else:
                    outcomes[outcome.task_id] = outcome
                    notify({"type": "done", "task_id": outcome.task_id, "outcome": outcome})
            running = still
    finally:
        for run in running:
            run.kill()
    return outcomes


def _run_inline(tasks, worker, timeout_s, retries, notify):
    """Serial in-process fallback (no timeout enforcement, no isolation)."""
    outcomes = {}
    for task_id, payload in tasks:
        for attempt in range(1, retries + 2):
            notify({"type": "start", "task_id": task_id, "attempt": attempt})
            started = time.monotonic()
            try:
                value = worker(payload)
            except BaseException:
                outcome = TaskOutcome(
                    task_id, ERROR, error=traceback.format_exc(),
                    duration_s=time.monotonic() - started, attempts=attempt,
                )
            else:
                outcome = TaskOutcome(
                    task_id, OK, value=value,
                    duration_s=time.monotonic() - started, attempts=attempt,
                )
            if outcome.ok or attempt > retries:
                break
            notify({
                "type": "retry", "task_id": task_id,
                "status": outcome.status, "attempt": attempt,
            })
        outcomes[task_id] = outcome
        notify({"type": "done", "task_id": task_id, "outcome": outcome})
    return outcomes
