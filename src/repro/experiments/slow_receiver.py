"""E7 -- the slow-receiver symptom (paper section 4.4).

A receiving NIC's MTT cache (2K entries) misses when the posted receive
buffers span more memory than the cache covers; each miss is a host-DRAM
fetch that stalls the receive pipeline.  Stall enough and the NIC's
receive buffer crosses its PFC threshold: the server NIC -- with no real
congestion anywhere -- pours pause frames into its ToR, and they
propagate.

The paper's mitigations, both reproduced here: 2 MB pages on the NIC
(coverage 8 MB -> 4 GB) and dynamic buffer sharing on the switch (more
absorbency before the ToR propagates the pause upstream).
"""

from repro.nic.mtt import MttConfig
from repro.nic.nic import NicConfig
from repro.sim import SeededRng
from repro.sim.units import KB, MB, MS
from repro.switch.buffer import BufferConfig
from repro.topo import two_tier
from repro.experiments.common import run_under_audit, saturate_pairs
from repro.experiments.result import ExperimentResult


class SlowReceiverResult(ExperimentResult):
    title = "E7: slow-receiver symptom (section 4.4)"


def _run_one(page_bytes, dynamic_buffer, duration_ns, n_flows, seed):
    nic_config = NicConfig(
        mtt_config=MttConfig(entries=2048, page_bytes=page_bytes, miss_penalty_ns=1500),
        rx_xoff_bytes=64 * KB,
        rx_xon_bytes=48 * KB,
        rx_buffer_bytes=128 * KB,
    )
    buffer_config = BufferConfig(
        alpha=(1.0 / 16) if dynamic_buffer else None,
        xoff_static_bytes=48 * KB,
    )
    topo = two_tier(
        n_tors=2,
        hosts_per_tor=2,
        n_leaves=1,
        seed=seed,
        nic_config=nic_config,
        buffer_config=buffer_config,
    ).boot()
    sim = topo.sim
    # The slow receiver pauses its ToR intermittently but legitimately:
    # every pause must still resolve and every buffer must balance, in
    # all four mitigation rows.
    registry = run_under_audit(topo.fabric)
    rng = SeededRng(seed, "slowrx")
    sender_hosts = topo.hosts_by_tor[0]
    receiver = topo.hosts_by_tor[1][0]
    # Periodic bursts into one receiver: the receive-buffer working set
    # (16 MB per flow) defeats 4 KB pages, so each burst stalls the
    # pipeline and the NIC pauses its ToR "from time to time" -- the
    # intermittent pattern dynamic buffer sharing is meant to absorb.
    from repro.rdma.verbs import connect_qp_pair
    from repro.workloads import PeriodicIncast, RdmaChannel

    channels = []
    for i in range(n_flows):
        qp, _ = connect_qp_pair(sender_hosts[i % len(sender_hosts)], receiver, rng)
        channels.append(RdmaChannel(qp))
    incast = PeriodicIncast(
        sim, channels, burst_bytes=128 * KB, period_ns=MS,
        rng=rng.child("jit"), jitter_ns=20_000,
    ).start()
    start = sim.now
    sim.run(until=start + duration_ns)
    elapsed = sim.now - start
    tor_rx = receiver.port.link.other(receiver.port).device  # receiver's ToR
    leaf = topo.leaves[0]
    goodput = incast.deliveries * 128 * KB * 8.0 / elapsed
    return {
        "page_size": "2MB" if page_bytes == 2 * MB else "4KB",
        "switch_buffer": "dynamic" if dynamic_buffer else "static",
        "tor_threshold_kb": tor_rx.buffer.threshold() // KB,
        "mtt_miss_rate": receiver.nic.mtt.miss_rate,
        "nic_pauses_per_ms": receiver.nic.stats.pause_generated * MS / elapsed,
        "tor_pauses_to_leaf": _pause_tx_toward(tor_rx, leaf),
        "goodput_gbps": goodput,
        "invariant_violations": registry.violation_count,
    }


def _pause_tx_toward(switch, neighbour):
    """Pause frames the switch sent out of ports facing ``neighbour`` --
    the propagation the mitigations are meant to suppress."""
    total = 0
    for port in switch.ports:
        if port.peer is not None and port.peer.device is neighbour:
            total += port.stats.pause_tx
    return total


def run_slow_receiver(duration_ns=6 * MS, n_flows=8, seed=1):
    """Reproduce section 4.4 and both mitigations."""
    rows = [
        _run_one(4 * KB, False, duration_ns, n_flows, seed),
        _run_one(4 * KB, True, duration_ns, n_flows, seed),
        _run_one(2 * MB, False, duration_ns, n_flows, seed),
        _run_one(2 * MB, True, duration_ns, n_flows, seed),
    ]
    return SlowReceiverResult(rows)


def claims(rows):
    """Section 4.4: MTT misses stall the NIC and pause the ToR with no
    congestion anywhere; 2 MB pages kill the misses, and dynamic
    buffering absorbs the pauses at the ToR."""
    rows = {(r["page_size"], r["switch_buffer"]): r for r in rows}
    bad = rows[("4KB", "static")]
    absorbed = rows[("4KB", "dynamic")]
    paged = rows[("2MB", "static")]
    return [
        # The symptom: thrashing MTT, NIC pausing its ToR, pause propagation.
        ("4KB static: MTT miss rate > 0.2", bad["mtt_miss_rate"] > 0.2),
        ("4KB static: NIC pauses > 5/ms", bad["nic_pauses_per_ms"] > 5),
        ("4KB static: pauses reach the leaf", bad["tor_pauses_to_leaf"] > 0),
        # Mitigation 1: 2 MB pages kill the misses and the pauses.
        ("2MB static: MTT miss rate < 0.01", paged["mtt_miss_rate"] < 0.01),
        ("2MB static: NIC does not pause", paged["nic_pauses_per_ms"] == 0),
        # Mitigation 2: dynamic buffer absorbs the pauses locally.
        ("4KB dynamic: NIC still pauses > 5/ms", absorbed["nic_pauses_per_ms"] > 5),
        ("4KB dynamic: leaf pauses < 1/10 of static",
         absorbed["tor_pauses_to_leaf"] < bad["tor_pauses_to_leaf"] / 10),
    ]
