"""Pause-causality graphs: from pause episodes to the initial trigger.

The session records every pause *episode* (a ``pause_node`` artifact
record) with ``causes`` edges pointing at the upstream episode whose
pause was stalling the emitter's egress when it crossed its own
threshold.  This module turns those records into a DAG and answers the
DCFIT-style question the paper's section 6 war stories all reduce to:
*which device emitted the first pause, and who merely propagated it?*

* **Roots** are episodes with no cause -- the initial triggers.  In the
  section 4.3 NIC pause storm the root is the broken NIC
  (``trigger: rx_pipeline_broken``); in an ordinary incast it is the
  congested ToR PG (``trigger: ingress-xoff``).
* **Propagators** are switch episodes caused by other episodes -- the
  pause tree spreading hop by hop toward the sources.
* **Victims** are leaves that only *suffered*: ports (NIC-side
  especially) that accumulated paused time without emitting pauses of
  their own, plus -- when attributions are supplied -- the traced ops
  that paid ``pause_ns`` for it.

Cycles (the section 4.2 CBD deadlock) have no root by definition;
:func:`build_dag` reports the cycle members instead of picking one
arbitrarily.

Pure functions over artifact records, shared by the tests and the
``python -m repro storm`` verb.
"""


class StormDag:
    """The assembled causality graph plus victim annotations."""

    def __init__(self, nodes, roots, cyclic, victims):
        #: {node_id: pause_node record}
        self.nodes = nodes
        #: root node_ids (no causes), DCFIT initial-trigger candidates
        self.roots = roots
        #: node_ids on a causes-cycle (CBD deadlock); empty normally
        self.cyclic = cyclic
        #: [{"device", "port", "paused_ns", "flows": [...]}, ...]
        self.victims = victims
        # cause id -> sorted ids of the nodes listing it (once each, even
        # when a node lists the cause twice; a cause need not be a node).
        self._children = {}
        for node in nodes.values():
            for cause in set(node["causes"]):
                self._children.setdefault(cause, []).append(node["id"])
        for kids in self._children.values():
            kids.sort()

    @property
    def edges(self):
        """(cause_id, effect_id) pairs."""
        out = []
        for node in self.nodes.values():
            for cause in node["causes"]:
                out.append((cause, node["id"]))
        return out

    def children(self, node_id):
        return list(self._children.get(node_id, ()))

    def descendant_count(self, node_id):
        """Episodes transitively caused by ``node_id``."""
        seen = set()
        frontier = [node_id]
        while frontier:
            current = frontier.pop()
            for child in self.children(current):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        return len(seen)

    def initial_trigger(self):
        """The DCFIT-style initial trigger: the root whose causal tree
        is largest (most propagated episodes), earliest start breaking
        ties.  None when nothing paused or the graph is all cycle."""
        if not self.roots:
            return None
        best = max(
            self.roots,
            key=lambda node_id: (
                self.descendant_count(node_id),
                -self.nodes[node_id]["start_ns"],
            ),
        )
        return self.nodes[best]


def build_dag(records, attributions=None):
    """Assemble the pause-causality DAG from artifact records.

    ``attributions`` (optional, from :func:`repro.tracing.attribution.
    attribute_records`) adds per-victim flow attribution: ops that paid
    ``pause_ns`` are listed under the victims summary.
    """
    nodes = {
        record["id"]: record
        for record in records
        if record.get("type") == "pause_node"
    }
    roots = sorted(
        node["id"] for node in nodes.values() if not node["causes"]
    )
    cyclic = _find_cycle_members(nodes) if not roots and nodes else []

    # Victims: ports that spent time paused.  A NIC-side paused port is
    # a stalled *sender* (the classic storm victim); emitters are
    # excluded -- they are nodes already.
    emitting_devices = {node["device"] for node in nodes.values()}
    paused = {}
    for record in records:
        if record.get("type") != "pause_interval":
            continue
        key = (record["device"], record["port"], record["device_kind"])
        paused[key] = paused.get(key, 0) + (
            record["end_ns"] - record["start_ns"]
        )
    victims = []
    for (device, port, device_kind), paused_ns in sorted(paused.items()):
        if device in emitting_devices:
            continue
        victims.append(
            {
                "device": device,
                "port": port,
                "device_kind": device_kind,
                "paused_ns": paused_ns,
                "flows": [],
            }
        )
    if attributions:
        by_host = {}
        for attribution in attributions:
            if attribution.get("complete") and attribution.get("pause_ns", 0) > 0:
                host = attribution.get("host") or attribution["qp"].split(".")[0]
                by_host.setdefault(host, []).append(
                    {
                        "qp": attribution["qp"],
                        "wr_id": attribution["wr_id"],
                        "pause_ns": attribution["pause_ns"],
                        "fct_ns": attribution["fct_ns"],
                    }
                )
        for victim in victims:
            flows = by_host.get(victim["device"], [])
            victim["flows"] = sorted(
                flows, key=lambda flow: -flow["pause_ns"]
            )
    return StormDag(nodes, roots, cyclic, victims)


def _find_cycle_members(nodes):
    """Node ids that sit on a causes-cycle (every node reachable from
    itself).  Small graphs; a simple reachability walk is fine."""
    members = []
    for node_id in nodes:
        seen = set()
        frontier = set(nodes[node_id]["causes"])
        while frontier:
            current = frontier.pop()
            if current == node_id:
                members.append(node_id)
                break
            if current in seen or current not in nodes:
                continue
            seen.add(current)
            frontier.update(nodes[current]["causes"])
    return sorted(members)


def _node_line(node):
    window = "%.3f-%s ms" % (
        node["start_ns"] / 1e6,
        "..." if node["end_ns"] is None else "%.3f" % (node["end_ns"] / 1e6),
    )
    return "%s %s (%s, prio %s, %d emission%s, %s, %d/%d B)" % (
        node["device"],
        node["port"],
        node["trigger"],
        "all" if node["priority"] is None else node["priority"],
        node["emissions"],
        "" if node["emissions"] == 1 else "s",
        window,
        node["occupancy_bytes"],
        node["threshold_bytes"],
    )


def render_text(dag, max_trees=None):
    """Human-readable causal view.

    Isolated episodes (no causes, no effects -- ordinary transient
    congestion asserting and releasing on its own) are *collapsed*
    into one summary line per (device, trigger); only the connected
    causal trees -- the storm -- are rendered node by node, largest
    first, with the DCFIT initial trigger called out up top.  A
    saturated fabric emits thousands of self-contained pause episodes;
    the storm is the tree, not the noise.  ``max_trees`` caps how many
    trees are rendered (largest first; the rest are counted).
    """
    lines = []
    if not dag.nodes:
        return "no pause episodes recorded"
    if dag.cyclic:
        lines.append(
            "CYCLE (no root -- CBD deadlock candidate): nodes %s"
            % ", ".join(str(node_id) for node_id in dag.cyclic)
        )
        starts = dag.cyclic[:1]
    else:
        starts = sorted(
            dag.roots,
            key=lambda node_id: (
                -dag.descendant_count(node_id),
                dag.nodes[node_id]["start_ns"],
            ),
        )
    trigger = dag.initial_trigger()
    if trigger is not None:
        lines.append(
            "initial trigger: %s %s (%s), %d downstream episode%s"
            % (
                trigger["device"],
                trigger["port"],
                trigger["trigger"],
                dag.descendant_count(trigger["id"]),
                "" if dag.descendant_count(trigger["id"]) == 1 else "s",
            )
        )
    seen = set()

    def walk(node_id, depth):
        marker = "ROOT" if depth == 0 else "└─"
        indent = "  " * depth
        suffix = " (revisited)" if node_id in seen else ""
        lines.append(
            "%s%s %s%s" % (indent, marker, _node_line(dag.nodes[node_id]), suffix)
        )
        if node_id in seen:
            return
        seen.add(node_id)
        for child in dag.children(node_id):
            walk(child, depth + 1)

    isolated = {}
    trees_rendered = 0
    trees_elided = 0
    for node_id in starts:
        node = dag.nodes[node_id]
        if not node["causes"] and not dag.children(node_id):
            key = (node["device"], node["trigger"])
            entry = isolated.setdefault(
                key, {"count": 0, "emissions": 0, "first": None, "last": None}
            )
            entry["count"] += 1
            entry["emissions"] += node["emissions"]
            start = node["start_ns"]
            if entry["first"] is None or start < entry["first"]:
                entry["first"] = start
            if entry["last"] is None or start > entry["last"]:
                entry["last"] = start
            seen.add(node_id)
            continue
        if max_trees is not None and trees_rendered >= max_trees:
            trees_elided += 1
            seen.add(node_id)
            seen.update(
                child for child in dag.children(node_id)
            )
            continue
        walk(node_id, 0)
        trees_rendered += 1
    if trees_elided:
        lines.append(
            "... %d further causal tree(s) elided (pass max_trees=None "
            "or --full for all)" % trees_elided
        )
    if max_trees is None:
        orphans = [
            node_id for node_id in sorted(dag.nodes) if node_id not in seen
        ]
        for node_id in orphans:
            walk(node_id, 0)
    if isolated:
        lines.append(
            "isolated congestion episodes (no causal edges, collapsed):"
        )
        for (device, trigger_kind), entry in sorted(isolated.items()):
            lines.append(
                "  %s: %d episodes (%d emissions, %s) %.3f-%.3f ms"
                % (
                    device,
                    entry["count"],
                    entry["emissions"],
                    trigger_kind,
                    entry["first"] / 1e6,
                    entry["last"] / 1e6,
                )
            )
    if dag.victims:
        lines.append("victims:")
        for victim in dag.victims:
            lines.append(
                "  %s %s paused %.3f ms"
                % (victim["device"], victim["port"], victim["paused_ns"] / 1e6)
            )
            for flow in victim["flows"][:5]:
                lines.append(
                    "    %s wr %d: %.1f%% of %.3f ms FCT stalled by pause"
                    % (
                        flow["qp"],
                        flow["wr_id"],
                        100.0 * flow["pause_ns"] / max(1, flow["fct_ns"]),
                        flow["fct_ns"] / 1e6,
                    )
                )
    return "\n".join(lines)
