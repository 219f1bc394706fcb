"""The observability hub: one gate, one lifecycle, one collect path.

The two out-of-band observation planes -- counters and incident
detectors (:mod:`repro.telemetry`), sampled causal traces
(:mod:`repro.tracing`) -- are each reached through one :class:`Hub`
instance, :data:`TELEMETRY` and :data:`TRACE`.  Every instrumented
module (``net/{port,link}.py``, ``switch/{buffer,pfc,ecn,switch}.py``,
``nic/nic.py``, ``rdma/qp.py``, ``dcqcn/rp.py``) imports them at module
load and guards each probe in this one shape::

    from repro.obs import TRACE as _TRACE
    ...
    if _TRACE.enabled:
        _TRACE.session.on_port_enqueue(port, packet, priority)

``enabled`` is a plain bool on a ``__slots__`` object, so a dark probe
costs one load + one branch and nothing else: no event scheduled, no RNG
drawn, no counter or packet field touched -- which keeps every
fingerprint in ``benchmarks/BASELINE.json`` byte-identical with both
planes off.  The flag is read at each probe, never cached in a local
across a call into model code: a completion callback may disarm the
plane, and the probe after it must see that.

This module is a leaf: it imports neither plane (nor ``json``) until a
hub is armed or an artifact is read, so a dark run imports no plane.

Lifecycle: ``enabled``/``session`` are set by the plane's session
``start`` and cleared by its ``stop``.  ``armed`` holds a pending plane
config; while it is set ``Fabric.boot`` attaches a new session to every
fabric that boots (:meth:`Hub.maybe_attach`, for each of :data:`HUBS`)
-- which is how the CLIs opt whole runs into collection without
threading a flag through every runner.  Finished sessions wait in
``completed`` until :meth:`Hub.drain`.  :meth:`Hub.collect` is that
whole sequence as one ``with`` block.
"""


class Hub:
    """Process-global state and lifecycle of one observation plane."""

    __slots__ = ("enabled", "session", "armed", "completed",
                 "name", "schema", "_package", "_config", "_session")

    def __init__(self, name, schema, package, config, session):
        self.enabled = False
        self.session = None
        self.armed = None
        self.completed = []
        #: artifact suffix (``<stem>-<i>.<name>.jsonl``) and report key
        self.name = name
        #: schema id the plane's sessions stamp into their meta record
        self.schema = schema
        self._package = package
        self._config = config
        self._session = session

    def _plane(self, attribute):
        """``attribute`` of the plane's package, imported on first use."""
        import importlib

        return getattr(importlib.import_module(self._package), attribute)

    def arm(self, config=None):
        """Arm auto-attach: every later ``Fabric.boot()`` starts a session
        of this plane on that fabric.  ``config`` is the plane's config
        object (``None``: its defaults); returns it."""
        if config is None:
            config = self._plane(self._config)()
        self.armed = config
        return config

    def disarm(self):
        """Stop auto-attaching; closes a live session into ``completed``."""
        self.armed = None
        if self.session is not None:
            self.session.stop()

    def maybe_attach(self, fabric):
        """Called by ``Fabric.boot``: when armed, close the previous
        session (the armed CLIs run scenario after scenario) and start a
        new one on ``fabric``.  Returns it, or None when not armed."""
        if self.armed is None:
            return None
        if self.session is not None:
            self.session.stop()
        return self._plane(self._session)(fabric, self.armed).start()

    def drain(self):
        """Close the live session, then collect and clear every finished
        one: a list with one entry per session, each a list of record
        dicts in emission order (meta record first)."""
        if self.session is not None:
            self.session.stop()
        artifacts = [session.artifact_records() for session in self.completed]
        self.completed = []
        return artifacts

    def collect(self, label="", out_dir=None, stem=None):
        """Arm, run the ``with`` body, disarm, drain -- and write::

            with TELEMETRY.collect("E2", out_dir, "e2") as collection:
                runner()
            print(collection.describe())

        The hub is disarmed and drained even when the body raises; the
        sessions are written (``out_dir`` given) only when it does not.
        Collections of different hubs nest: one run can feed both planes.
        """
        config = self._plane(self._config)(label=label)
        return Collection(self, config, out_dir, stem)

    def write_artifacts(self, record_lists, out_dir, stem):
        """Write drained sessions as ``<stem>-<i>.<name>.jsonl`` under
        ``out_dir``; returns the paths."""
        from repro.artifact import write_artifacts

        return write_artifacts(record_lists, out_dir, stem, self.name)

    def read_jsonl(self, path):
        """Load one of this plane's artifacts as a list of record dicts;
        :class:`repro.artifact.ArtifactError` when it is not one."""
        from repro.artifact import read_jsonl

        return read_jsonl(path, self.schema)


class Collection:
    """One :meth:`Hub.collect` block: the context manager and its result
    -- ``sessions`` is what :meth:`Hub.drain` returned, ``paths`` the
    artifacts written."""

    __slots__ = ("hub", "config", "out_dir", "stem", "sessions", "paths")

    def __init__(self, hub, config, out_dir, stem):
        self.hub = hub
        self.config = config
        self.out_dir = out_dir
        self.stem = stem
        self.sessions = []
        self.paths = []

    def __enter__(self):
        self.hub.arm(self.config)
        return self

    def __exit__(self, exc_type, exc, traceback):
        hub = self.hub
        hub.disarm()
        self.sessions = hub.drain()
        if exc_type is None and self.out_dir is not None:
            self.paths = hub.write_artifacts(
                self.sessions, self.out_dir, self.stem)
        return False

    def headline(self):
        """The plane's headline counts over the collected sessions (its
        package's ``headline``), e.g. ``{"incidents": 2}``."""
        return self.hub._plane("headline")(self.sessions)

    def describe(self):
        """One line for a CLI: what was collected and where it went."""
        counts = ", ".join(
            "%d %s" % (value, key) for key, value in self.headline().items())
        return "%s: %d artifact(s), %s -> %s" % (
            self.hub.name, len(self.paths), counts, self.out_dir)


#: Hot paths alias the hubs ``_TELEMETRY`` / ``_TRACE``; each plane's
#: package exports its own as ``HUB``.
TELEMETRY = Hub("telemetry", "repro-telemetry/1", "repro.telemetry",
                "TelemetryConfig", "TelemetrySession")
TRACE = Hub("trace", "repro-trace/1", "repro.tracing",
            "TraceConfig", "TraceSession")
#: Every hub, in the order ``Fabric.boot`` attaches them.
HUBS = (TELEMETRY, TRACE)
