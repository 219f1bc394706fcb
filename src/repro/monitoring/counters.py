"""Device counter readers.

What one poll of a switch or a server reads: pause frames sent and
received, resumes, traffic bytes, drops, and the cumulative pause
interval.  The paper monitors exactly these ("we monitor the number of
pause frames been sent and received by the switches and servers.  We
further monitor the pause intervals at the server side").

This module holds only the readers -- :func:`switch_counters`,
:func:`host_counters` and the :data:`GAUGES` set that tells cumulative
counters from instantaneous values.  Each value is read from the one
counter the model keeps.  The section-5 *collector* that polls them
every interval and runs the storm detectors is
:class:`repro.telemetry.TelemetrySession`, whose counter and gauge
metrics are these values; an example or a test that wants end-of-run
totals calls a reader once.
"""


#: The values below that are instantaneous gauges; every other one is a
#: cumulative counter, so consumers take deltas of it between polls.
GAUGES = frozenset((
    "queued_bytes", "shared_in_use", "headroom_in_use", "paused_pgs",
    "shared_size", "rate_bps",
))


def switch_counters(switch):
    """One switch's cumulative counters and current gauges.

    ``paused_ns`` books every port's open pause interval before it is
    read (``Port.paused_interval_ns``); the buffer gauges are 0 until the
    switch is finalized.
    """
    ports = switch.ports
    buffer = switch.buffer
    counters = switch.counters
    drops = counters.drops
    return {
        "pause_tx": switch.pause_frames_sent(),
        "pause_rx": switch.pause_frames_received(),
        "resume_tx": sum(p.stats.resume_tx for p in ports),
        "resume_rx": sum(p.stats.resume_rx for p in ports),
        "paused_ns": sum(p.paused_interval_ns() for p in ports),
        "tx_bytes": sum(p.stats.total_tx_bytes for p in ports),
        "rx_bytes": sum(p.stats.total_rx_bytes for p in ports),
        "ecn_marked": counters.ecn_marked,
        "drops": counters.total_drops,
        "lossy_drops": drops["buffer-lossy"] + drops["egress-lossy"],
        "headroom_overflow_drops": drops["buffer-headroom-overflow"],
        "queued_bytes": switch.queued_bytes(),
        "shared_in_use": buffer.shared_in_use if buffer else 0,
        "headroom_in_use": buffer.headroom_in_use if buffer else 0,
        "paused_pgs": buffer.paused_pgs if buffer else 0,
        "shared_size": buffer.shared_size if buffer else 0,
        "watchdog_trips": switch.watchdog_trips(),
    }


def host_counters(host):
    """One server's cumulative counters, read at its NIC and port, and
    summed over its queue pairs and their DCQCN reaction points;
    ``rate_bps`` is the sum of those reaction points' current rates."""
    from repro.dcqcn.rp import ReactionPoint

    nic = host.nic
    port = nic.port
    rdma = getattr(host, "rdma", None)
    qps = rdma.qps if rdma is not None else ()
    rps = [qp.rp for qp in qps if isinstance(qp.rp, ReactionPoint)]
    return {
        "pause_tx": nic.stats.pause_generated,
        "resume_tx": nic.stats.resume_generated,
        "pause_rx": port.stats.pause_rx,
        "resume_rx": port.stats.resume_rx,
        "paused_ns": port.paused_interval_ns(),
        "tx_bytes": port.stats.total_tx_bytes,
        "rx_bytes": port.stats.total_rx_bytes,
        "rx_processed": nic.stats.rx_processed,
        "watchdog_trips": nic.watchdog_trips,
        "cnps_sent": sum(qp.stats.cnps_sent for qp in qps),
        "naks_sent": sum(qp.stats.naks_sent for qp in qps),
        "cnps_handled": sum(rp.cnps_handled for rp in rps),
        "rate_bps": sum(rp.rate_bps for rp in rps),
    }
