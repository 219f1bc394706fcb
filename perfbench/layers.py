"""File -> layer map and cProfile attribution with caller-charged builtins.

A layer is one of this repo's modules as a packet (or a flow) crosses
them.  ``net/`` and ``switch/`` are split file by file, because that is
where the paper's per-hop machinery lives; everywhere else a directory
is a layer.  Whatever lives under ``src/repro`` and is not listed maps to
``other`` (``run.py --selftest`` names those modules); perfbench's own
frames are ``driver``.

``repro.bench --profile`` buckets by the callee's file name, so every
builtin (``heappush``, ``list.append``, ``deque.popleft`` ...) and every
stdlib helper (``random``, ``bisect``, ``struct``) lands in one bucket
whoever called it.  Here such a callee's self time is charged to the
layer of the function that called it, through the profiler's callers
table, recursively for stdlib-calls-stdlib chains.  What still has no
repo caller (the profiler's own enable/disable frames) is ``unmapped``.
"""

import os

#: Report order.
LAYERS = (
    "sim",
    "packets",
    "net.port",
    "net.link",
    "switch.pipeline",
    "switch.buffer",
    "switch.forwarding",
    "nic",
    "rdma",
    "dcqcn",
    "tcp",
    "workloads",
    "topo",
    "flowsim",
    "flows",
    "obs",
    "other",
    "driver",
)

#: Explicit file map for the two split packages.
FILE_LAYERS = {
    "net/__init__.py": "net.port",
    "net/device.py": "net.port",
    "net/port.py": "net.port",
    "net/link.py": "net.link",
    "switch/__init__.py": "switch.pipeline",
    "switch/switch.py": "switch.pipeline",
    "switch/ecn.py": "switch.pipeline",
    "switch/watchdog.py": "switch.pipeline",
    "switch/buffer.py": "switch.buffer",
    "switch/pfc.py": "switch.buffer",
    "switch/forwarding.py": "switch.forwarding",
    "switch/ecmp.py": "switch.forwarding",
}

#: Directory map for everything else.
DIR_LAYERS = {
    "sim": "sim",
    "packets": "packets",
    "nic": "nic",
    "rdma": "rdma",
    "dcqcn": "dcqcn",
    "timely": "dcqcn",
    "tcp": "tcp",
    "workloads": "workloads",
    "topo": "topo",
    "flowsim": "flowsim",
    "flows": "flows",
    "telemetry": "obs",
    "tracing": "obs",
    "monitoring": "obs",
    "faults": "obs",
}

UNMAPPED = "unmapped"

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPRO_MARK = "/src/repro/"


def layer_of_repro_path(relative):
    """Layer of a file given relative to ``src/repro`` (``/`` separated)."""
    layer = FILE_LAYERS.get(relative)
    if layer is not None:
        return layer
    head = relative.split("/", 1)[0]
    if head in ("net", "switch"):
        # A new file in a split package must be placed by hand.
        return "other"
    return DIR_LAYERS.get(head, "other")


def layer_of_file(filename):
    """Layer of a profiler file name, or None for builtins and stdlib."""
    path = filename.replace(os.sep, "/")
    at = path.rfind(_REPRO_MARK)
    if at >= 0:
        return layer_of_repro_path(path[at + len(_REPRO_MARK):])
    if os.path.dirname(os.path.abspath(filename)) == _HERE:
        return "driver"
    return None


def modules_in_other(src_root):
    """Every ``src/repro`` python file that maps to ``other``."""
    found = []
    root = os.path.join(src_root, "repro")
    for directory, _subdirs, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                relative = os.path.relpath(os.path.join(directory, name), root)
                relative = relative.replace(os.sep, "/")
                if layer_of_repro_path(relative) == "other":
                    found.append(relative)
    return sorted(found)


def attribute(stats):
    """Per-layer self time and calls from ``pstats.Stats(...).stats``.

    Returns ``(layers, unmapped_share)`` where ``layers`` maps every name
    in :data:`LAYERS` to ``{"seconds", "share", "calls"}``; the shares
    and ``unmapped_share`` sum to 1.
    """
    memo = {}

    def weights(func, visiting):
        """``{layer: fraction}`` for one profiled function."""
        cached = memo.get(func)
        if cached is not None:
            return cached
        layer = layer_of_file(func[0])
        if layer is not None:
            result = {layer: 1.0}
        else:
            callers = stats[func][4] if func in stats else {}
            # Weigh callers by the time spent here on their behalf; a
            # callee too fast to have any falls back to call counts.
            basis = 2 if any(row[2] > 0 for row in callers.values()) else 0
            total = float(sum(row[basis] for row in callers.values()))
            result = {}
            if func in visiting or not total:
                result = {UNMAPPED: 1.0}
            else:
                visiting = visiting | {func}
                for caller, row in callers.items():
                    share = row[basis] / total
                    if share:
                        for name, part in weights(caller, visiting).items():
                            result[name] = result.get(name, 0.0) + share * part
        memo[func] = result
        return result

    seconds = dict.fromkeys(LAYERS + (UNMAPPED,), 0.0)
    calls = dict.fromkeys(LAYERS + (UNMAPPED,), 0.0)
    for func, (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        for name, part in weights(func, frozenset()).items():
            seconds[name] += tottime * part
            calls[name] += ncalls * part
    total = sum(seconds.values()) or 1.0
    layers = {
        name: {
            "seconds": seconds[name],
            "share": seconds[name] / total,
            "calls": calls[name],
        }
        for name in LAYERS
    }
    return layers, seconds[UNMAPPED] / total
