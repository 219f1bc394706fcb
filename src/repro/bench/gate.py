"""The determinism gate: run a scenario once, compare it to its pin.

``benchmarks/BASELINE.json`` holds, for one seed, the fingerprint, event
count and packet count of every scenario in
:data:`repro.bench.scenarios.SCENARIOS`.  :func:`check` is the only code
that compares a run to it; ``python -m repro gate``, the tests and CI
all call it.
"""

import contextlib
import json
import os
from collections import namedtuple

from repro.bench.scenarios import SCENARIOS

#: This checkout's pin file (``<root>/src/repro/bench`` -> ``<root>``).
PIN_PATH = os.path.normpath(os.path.join(
    os.path.abspath(__file__), *[os.pardir] * 4, "benchmarks", "BASELINE.json"))

#: What a pin records and a run is compared on.
PINNED = ("fingerprint", "events", "packets")

#: One scenario's outcome.  ``moved`` names the pinned fields that differ
#: from the pin file -- ``()`` is a pass -- and is ``None`` when there is
#: no verdict (the run's seed is not the file's).  ``collections`` is one
#: :class:`repro.obs.Collection` per hub the run was observed through.
Row = namedtuple("Row", ("name",) + PINNED + ("moved", "collections"))


class GateError(Exception):
    """No verdict is possible; ``str()`` is one line, ``path: reason`` when
    the pin file is why."""


def load_pins(path=PIN_PATH):
    """``{"seed": int, "scenarios": {name: {fingerprint, events, packets}}}``
    from ``path``, or :class:`GateError`."""
    try:
        with open(path) as handle:
            pins = json.load(handle)
    except OSError as error:
        raise GateError("%s: %s" % (path, error.strerror))
    except ValueError as error:
        raise GateError("%s: not JSON (%s)" % (path, error))
    if not (isinstance(pins, dict) and isinstance(pins.get("seed"), int)
            and isinstance(pins.get("scenarios"), dict)):
        raise GateError('%s: not a pin file (want {"seed", "scenarios"})' % path)
    return pins


def check(names=None, seed=1, hubs=(), out_dir=None, baseline=PIN_PATH, progress=None):
    """Run each named scenario (default: all) once and compare it to its
    pin; one :class:`Row` per scenario, ``progress(row)`` as each lands.

    Each run happens inside one ``collect`` block per hub in ``hubs`` (an
    armed run is the dark run byte for byte, so the observed run is the
    one that gets the verdict); ``out_dir`` is where they write
    ``<scenario>-<i>.<plane>.jsonl`` -- one directory, or ``{hub:
    directory}``; ``None`` keeps the sessions in ``row.collections``
    only.  ``baseline=None`` compares nothing (what ``--pin`` runs).

    Raises :class:`GateError`, before any scenario runs, for an unknown
    name, a pin file that cannot be read, or one without a complete pin
    for a named scenario.
    """
    names = list(names or SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise GateError(
            "unknown scenario(s) %s (have: %s)"
            % (", ".join(map(repr, unknown)), ", ".join(SCENARIOS))
        )
    pinned = None
    if baseline is not None:
        pins = load_pins(baseline)
        if pins["seed"] == seed:
            pinned = pins["scenarios"]
            for name in names:
                pin = pinned.get(name)
                if not isinstance(pin, dict) or any(f not in pin for f in PINNED):
                    raise GateError("%s: no complete pin for %r" % (baseline, name))
    dirs = out_dir if isinstance(out_dir, dict) else dict.fromkeys(hubs, out_dir)
    rows = []
    for name in names:
        with contextlib.ExitStack() as stack:
            collected = [
                stack.enter_context(hub.collect("bench:%s" % name, dirs.get(hub), name))
                for hub in hubs
            ]
            run = SCENARIOS[name].run(seed)
        moved = None
        if pinned is not None:
            moved = tuple(f for f in PINNED if getattr(run, f) != pinned[name][f])
        row = Row(name, run.fingerprint, run.events, run.packets, moved, collected)
        rows.append(row)
        if progress:
            progress(row)
    return rows


def write_pins(rows, seed, path):
    """Rewrite ``path`` with ``rows`` as the pins for ``seed``.  Pins of
    scenarios not in ``rows`` are kept when the file is readable and
    already holds that seed."""
    try:
        pins = load_pins(path)
    except GateError:
        pins = {"seed": None}
    scenarios = dict(pins["scenarios"]) if pins["seed"] == seed else {}
    for row in rows:
        scenarios[row.name] = {field: getattr(row, field) for field in PINNED}
    try:
        with open(path, "w") as handle:
            json.dump({"seed": seed, "scenarios": scenarios}, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as error:
        raise GateError("%s: %s" % (path, error.strerror))
