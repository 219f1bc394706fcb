"""Content-addressed result cache.

A finished run's rows are pure functions of (code version, runner,
parameters, seed): the simulator is deterministic by construction (see
``tests/test_determinism.py``), so re-running an unchanged experiment
is pure waste.  The cache keys each result on exactly those four
inputs:

* **code version** -- a digest over every ``repro`` source file, so any
  edit to the simulator, the experiments, or the campaign machinery
  itself invalidates the whole cache (cheap insurance against stale
  science);
* **runner reference** -- the ``module:attr`` the run resolves, plus a
  digest of that module's source when it lives outside ``repro`` (a
  test-registered target edits should invalidate too);
* **parameters** -- canonical JSON, sorted keys;
* **seed** -- or ``None`` for unseeded analytic runners.

Entries are JSON files under ``<cache_dir>/<k[:2]>/<k>.json``, written
atomically; a corrupt or unreadable entry is treated as a miss.  The
default location is ``.campaign-cache/`` under the current working
directory (``--cache-dir`` names another).
"""

import hashlib
import importlib.util
import json
import os

from repro.campaign.spec import canonical_params
from repro.campaign.store import atomic_write

DEFAULT_CACHE_DIR = ".campaign-cache"

_code_version_cache = None


def code_version():
    """Digest of every ``repro`` source file (cached per process)."""
    global _code_version_cache
    if _code_version_cache is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        digest = hashlib.sha256()
        for directory, subdirs, files in sorted(os.walk(root)):
            subdirs.sort()
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, root).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(hashlib.sha256(handle.read()).digest())
        _code_version_cache = digest.hexdigest()[:16]
    return _code_version_cache


def _ref_digest(ref):
    """Source digest for targets living outside the ``repro`` package."""
    module_name = ref.partition(":")[0]
    if module_name == "repro" or module_name.startswith("repro."):
        return ""  # already covered by code_version()
    try:
        spec = importlib.util.find_spec(module_name)
    except (ImportError, ValueError):
        return ""
    if spec is None or not spec.origin or not os.path.isfile(spec.origin):
        return ""
    with open(spec.origin, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()[:16]


def run_key(run):
    """The cache key (hex digest) for a :class:`RunSpec`."""
    material = json.dumps(
        {
            "code": code_version(),
            "ref": run.ref,
            "ref_digest": _ref_digest(run.ref),
            "params": json.loads(canonical_params(run.params)),
            "seed": run.seed,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class ResultCache:
    """Get/put of finished-run payloads keyed by :func:`run_key`."""

    def __init__(self, directory=None):
        self.directory = directory or DEFAULT_CACHE_DIR
        self.hits = 0
        self.misses = 0

    def _path(self, key):
        return os.path.join(self.directory, key[:2], key + ".json")

    def get(self, key):
        """The cached payload dict, or None on a miss."""
        try:
            with open(self._path(key)) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if not isinstance(payload, dict) or "rows" not in payload:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key, payload):
        """Atomically store a payload; failures are non-fatal (no cache
        beats a broken campaign)."""
        try:
            atomic_write(self._path(key), json.dumps(payload, separators=(",", ":")))
        except OSError:
            return False
        return True

    def clear(self):
        """Delete every cache entry; returns how many were removed."""
        removed = 0
        for directory, _subdirs, files in os.walk(self.directory, topdown=False):
            for name in files:
                if name.endswith(".json"):
                    try:
                        os.unlink(os.path.join(directory, name))
                        removed += 1
                    except OSError:
                        pass
            try:
                os.rmdir(directory)
            except OSError:
                pass
        return removed

    def __repr__(self):
        return "ResultCache(%s, hits=%d, misses=%d)" % (
            self.directory, self.hits, self.misses,
        )
