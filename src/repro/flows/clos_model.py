"""The figure 7 experiment at flow level.

Topology (paper section 5.4): two podsets, each with 24 ToRs and 4 Leaf
switches; the 4 leaves fan out to 64 spines (16 each); all links 40 GbE.
ToR oversubscription 6:1, leaf oversubscription 3:2.  ToR ``i`` of
podset 0 is paired with ToR ``i`` of podset 1; 8 servers per ToR each
run 8 QPs to their counterpart, every QP sending as fast as possible --
3072 QPs over the 128 leaf-spine links.

Path of a podset-0 -> podset-1 flow:

    server -> ToR          (server link, shared by that server's QPs)
    ToR    -> Leaf l0      ECMP over 4 uplinks (five-tuple hash)
    Leaf   -> Spine s      ECMP over 16 uplinks
    Spine  -> Leaf l1      determined (spine s serves exactly one leaf
                           per podset)
    Leaf   -> ToR          determined (direct port)
    ToR    -> server       determined

The leaf-spine hops are the stated bottleneck; ToR uplinks are included
too (they are also oversubscribed).  Rates come from max-min fairness.
"""

from repro.flows.maxmin import link_utilization, max_min_allocation
from repro.flowsim.topo import clos_flow, link_id
from repro.sim.rng import SeededRng
from repro.sim.units import GBPS


class ClosFlowResult:
    """Outcome of one direction-pair evaluation."""

    def __init__(self, rates_bps, paths, link_capacities, leaf_spine_links):
        self.rates_bps = rates_bps
        self.paths = paths
        self.link_capacities = link_capacities
        #: ``[(leaf>spine id, spine>leaf id), ...]``, one pair per physical link.
        self.leaf_spine_links = leaf_spine_links

    @property
    def aggregate_bps(self):
        return sum(self.rates_bps)

    @property
    def leaf_spine_capacity_bps(self):
        """The paper's "total 5.12Tb/s network capacity": the 128
        physical leaf-spine links at 40 Gb/s each (each direction of
        traffic can use at most one side's uplinks + the other side's
        downlinks, so physical-links x rate is the right denominator)."""
        return sum(self.link_capacities[up] for up, _down in self.leaf_spine_links)

    @property
    def utilization(self):
        """Aggregate throughput / leaf-spine capacity: the paper's 60%."""
        return self.aggregate_bps / self.leaf_spine_capacity_bps

    def per_server_gbps(self, qps_per_server=8):
        """Mean per-server throughput in Gb/s (paper: ~8 Gb/s)."""
        n_servers = len(self.rates_bps) // qps_per_server
        return self.aggregate_bps / n_servers / GBPS

    def frames_per_second(self, frame_bytes=1086, payload_bytes=1024):
        """The y-axis of figure 7(b): aggregate frames/second.

        ``rates`` are goodput-equivalent; a 1086-byte frame carries 1024
        payload bytes, so frames/s = aggregate_bps / (8 * payload).
        """
        return self.aggregate_bps / (8 * payload_bytes)

    def leaf_spine_link_loads(self):
        """Utilization of every leaf-spine link, both directions."""
        loads = link_utilization(
            self.link_capacities,
            self.paths,
            self.rates_bps,
        )
        return {link: loads[link] for pair in self.leaf_spine_links for link in pair}


class ClosFlowModel:
    """Parameterized figure 7 model.

    Links and paths are the flow tier's: ``topology`` is
    ``clos_flow(2, tor_pairs, servers_per_tor, leaves_per_podset,
    n_spines)``, so a QP rides the links its packets would ride on the
    packet fabric of that shape, under the same per-switch ECMP seeds.
    ``seed`` varies the QPs' UDP source ports -- which is what varies
    hash collisions on a real fabric too.
    """

    def __init__(
        self,
        tor_pairs=24,
        servers_per_tor=8,
        qps_per_server=8,
        leaves_per_podset=4,
        n_spines=64,
        link_bps=40 * GBPS,
        seed=1,
        bidirectional=True,
    ):
        self.topology = clos_flow(
            2, tor_pairs, servers_per_tor, leaves_per_podset, n_spines, rate_bps=link_bps
        )
        self.tor_pairs = tor_pairs
        self.servers_per_tor = servers_per_tor
        self.qps_per_server = qps_per_server
        self.leaves_per_podset = leaves_per_podset
        self.n_spines = n_spines
        self.link_bps = link_bps
        self.seed = seed
        self.bidirectional = bidirectional
        spec = self.topology.spec
        self._leaf_spine_links = [
            (link_id(lower, upper), link_id(upper, lower))
            for lower, upper, _cable_m in spec.trunks()
            if (spec.tiers[lower], spec.tiers[upper]) == (1, 2)
        ]

    def _flow_paths(self, src_podset):
        """Hash every QP of one traffic direction onto its path: server
        ``i`` of the source podset sends to server ``i`` of the other."""
        rng = SeededRng(self.seed, "sports/%d" % src_podset)
        per_podset = self.tor_pairs * self.servers_per_tor
        src_base, dst_base = src_podset * per_podset, (1 - src_podset) * per_podset
        return [
            self.topology.path(src_base + i, dst_base + i, rng.randint(49152, 65535))
            for i in range(per_podset)
            for _qp in range(self.qps_per_server)
        ]

    def run(self, allocation="pfc-uniform"):
        """Place flows and compute rates under an allocation model.

        ``"pfc-uniform"`` (default, matches the paper)
            All QPs converge to the same rate, set by the fair share of
            the most contended link.  This is what the paper's fabric
            exhibits: PFC backpressure from the hottest leaf-spine link
            propagates into shared upstream queues, and DCQCN with
            uniform parameters equalizes the survivors -- the measured
            signature is "every server was sending and receiving at
            8 Gb/s", i.e. *uniform* per-flow rates, with aggregate
            utilization pinned near 60% by hash imbalance.

        ``"maxmin"``
            Idealized per-bottleneck max-min fairness (what perfect
            per-flow congestion control without PFC coupling could
            reach).  Useful as the ablation upper bound: it shows hash
            collisions alone cost far less than the coupled system
            loses.
        """
        links = self.topology.links
        paths = self._flow_paths(src_podset=0)
        if self.bidirectional:
            paths.extend(self._flow_paths(src_podset=1))
        if allocation == "maxmin":
            rates = max_min_allocation(links, paths)
        elif allocation == "pfc-uniform":
            rates = self._uniform_allocation(links, paths)
        elif allocation == "per-packet":
            rates = self._per_packet_allocation(paths)
        else:
            raise ValueError("unknown allocation model: %r" % (allocation,))
        return ClosFlowResult(rates, paths, links, self._leaf_spine_links)

    def _per_packet_allocation(self, paths):
        """Idealized per-packet load balancing (the paper's section 8.1
        future work: "there are MPTCP and per-packet routing for better
        network utilization").  Spraying makes the leaf-spine layer one
        fluid pipe, so every flow gets an equal share of the layer
        capacity, bounded by its 40G NIC.
        """
        per_direction_flows = len(paths) // (2 if self.bidirectional else 1)
        layer_capacity = self.n_spines * self.link_bps
        fair = layer_capacity / per_direction_flows
        nic_share = self.link_bps / self.qps_per_server
        rate = min(fair, nic_share)
        return [rate] * len(paths)

    @staticmethod
    def _uniform_allocation(links, paths):
        """One common rate: the fair share of the most contended link."""
        flow_counts = {}
        for path in paths:
            for link in path:
                flow_counts[link] = flow_counts.get(link, 0) + 1
        rate = min(
            links[link] / count for link, count in flow_counts.items()
        )
        return [rate] * len(paths)
