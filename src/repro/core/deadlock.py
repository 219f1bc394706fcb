"""PFC deadlock detection.

Runtime detector
    A deadlock is a cycle of priority groups (PGs) each asserting pause
    while unable to drain *because of* the next PG's pause.  The detector
    snapshots the fabric and builds the wait-for graph:

    PG ``(S, q, p)`` -- ingress port ``q`` of switch ``S`` at priority
    ``p`` -- **waits on** PG ``(D, r, p)`` when some egress port ``E`` of
    ``S`` holds packets buffered against ``(S, q, p)`` and ``E`` is paused
    at ``p`` by its neighbour ``D`` (whose ingress PG ``(D, r, p)`` is the
    one asserting the pause, ``r`` being the far end of the link).

    A cycle of such edges in which every PG is pause-asserting is exactly
    the "PFC pause frame loop" of figure 4.

Static analyzer
    Builds the channel-dependency graph [Dally & Seitz] from the
    installed routes: channel ``A->S`` depends on ``S->B`` if a packet
    can arrive from ``A`` and be forwarded to ``B``.  Up-down-routed Clos
    fabrics are acyclic here -- **until** unknown-unicast flooding is
    admitted to lossless classes, which adds every-port-to-every-port
    dependencies at the ToRs and closes cycles; this is the paper's
    root-cause in graph form.
"""

from repro.switch.switch import Switch

# networkx (~150 ms to import) is loaded by the four functions that
# build or walk a graph, not at module load: ``repro.core`` is imported
# by every topology builder, and most runs never scan for deadlock.


class DeadlockReport:
    """Result of a runtime deadlock scan."""

    def __init__(self, cycles, graph):
        self.cycles = cycles  # list of lists of PG nodes
        self.graph = graph

    @property
    def deadlocked(self):
        return bool(self.cycles)

    def involved_switches(self):
        return sorted({node[0] for cycle in self.cycles for node in cycle})

    def __repr__(self):
        if not self.deadlocked:
            return "DeadlockReport(clear)"
        return "DeadlockReport(%d cycle(s) over %s)" % (
            len(self.cycles),
            ", ".join(self.involved_switches()),
        )


def build_wait_graph(switches):
    """The runtime pause wait-for graph over PG nodes
    ``(switch_name, ingress_port_idx, priority)``."""
    import networkx as nx

    graph = nx.DiGraph()
    by_name = {s.name: s for s in switches}
    for switch in switches:
        if switch.buffer is None:
            continue
        for egress in switch.ports:
            if egress.peer is None:
                continue
            neighbour = egress.peer.device
            if not isinstance(neighbour, Switch) or neighbour.name not in by_name:
                continue
            for priority in range(8):
                if not egress.is_paused(priority):
                    continue
                pauser = (neighbour.name, egress.peer.index, priority)
                # Only count the pauser if its PG really is asserting.
                if not neighbour.buffer.pg(egress.peer.index, priority).paused:
                    continue
                for queued_at, _packet, claim, _enqueued_ns in egress.iter_entries():
                    if queued_at == priority and claim is not None:
                        waiter = (switch.name, claim.port_idx, priority)
                        graph.add_edge(waiter, pauser)
    return graph


def detect_deadlock(switches):
    """Scan the fabric for PFC pause cycles.

    Returns a :class:`DeadlockReport`.  A true deadlock requires every PG
    on the cycle to be pause-asserting, which :func:`build_wait_graph`
    already enforces edge by edge, so any directed cycle qualifies.
    """
    import networkx as nx

    graph = build_wait_graph(switches)
    cycles = list(nx.simple_cycles(graph))
    return DeadlockReport(cycles, graph)


def static_channel_dependencies(switches, assume_lossless_flooding=False):
    """The static channel-dependency graph from installed routes.

    Nodes are directed channels ``(from_name, to_name, from_port_idx)``
    between switches.  The analysis is *destination-aware*: channel
    ``A->S`` depends on ``S->B`` only if some destination prefix is
    actually routed ``A -> S -> B`` -- route tables alone would admit
    valley paths (down-then-up) that up-down routing never exercises.
    The fabric is provably PFC-deadlock-free for routed lossless traffic
    iff the graph is acyclic.

    ``assume_lossless_flooding`` adds the flooding dependencies: at the
    destination ToR, an incomplete ARP entry floods the packet out of
    *every* port, including routed uplinks -- the paper's failure mode,
    and exactly what closes the cycle in the figure 4 topology.
    """
    import networkx as nx

    graph = nx.DiGraph()
    by_name = {s.name for s in switches}

    def is_fabric_port(port):
        return port.peer is not None and isinstance(port.peer.device, Switch)

    def route_out_ports(switch, addr):
        """Inter-switch ports a packet to ``addr`` can leave through."""
        if switch.tables.is_local(addr):
            return []
        for route in switch.tables.routes:
            if route.matches(addr):
                return [
                    i for i in route.ports if is_fabric_port(switch.ports[i])
                ]
        return []

    def flood_out_ports(switch, exclude_idx):
        return [
            p.index
            for p in switch.ports
            if is_fabric_port(p) and p.index != exclude_idx
        ]

    # One representative address per destination subnet in the fabric.
    destinations = []
    for switch in switches:
        if switch.tables.local_subnet is not None:
            prefix, plen = switch.tables.local_subnet
            destinations.append((switch, prefix | 1))

    for _dst_switch, addr in destinations:
        for switch in switches:
            for out_idx in route_out_ports(switch, addr):
                out_port = switch.ports[out_idx]
                next_hop = out_port.peer.device
                if next_hop.name not in by_name:
                    continue
                out_channel = (switch.name, next_hop.name, out_idx)
                graph.add_node(out_channel)
                # What can the next hop do with this packet?
                continuations = route_out_ports(next_hop, addr)
                if (
                    assume_lossless_flooding
                    and next_hop.tables.is_local(addr)
                ):
                    continuations = flood_out_ports(next_hop, out_port.peer.index)
                for cont_idx in continuations:
                    cont_port = next_hop.ports[cont_idx]
                    cont_channel = (next_hop.name, cont_port.peer.device.name, cont_idx)
                    graph.add_edge(out_channel, cont_channel)
    return graph


def is_statically_deadlock_free(switches, assume_lossless_flooding=False):
    """True when the channel-dependency graph is acyclic."""
    import networkx as nx

    graph = static_channel_dependencies(switches, assume_lossless_flooding)
    return nx.is_directed_acyclic_graph(graph)
