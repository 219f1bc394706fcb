"""Packet tracing: a tcpdump for the simulated fabric.

Attach a :class:`PacketTracer` to any set of links and every frame
crossing them is recorded with its timing and a decoded summary --
invaluable when debugging pause loops ("which PG paused whom, when?")
and usable from tests to assert on wire-level behaviour.

    tracer = PacketTracer(sim)
    tracer.attach(link)
    ... run ...
    pauses = tracer.select(kind="pause")
    tracer.to_jsonl("trace.jsonl")

Records are plain dicts, cheap to filter and serialize.  Tracing is
strictly observational: attaching never changes simulation behaviour.

The tracer is the heaviest of the four observability granularities
(telemetry counters, sampled causal traces, this per-frame capture,
pingmesh probes): ARCHITECTURE.md compares them and docs/tracing.md
walks the triage path from a telemetry incident down to a capture.
"""

from repro.artifact import write_jsonl


class TraceRecord:
    """One captured frame."""

    __slots__ = ("t_ns", "link", "src_port", "kind", "fields")

    def __init__(self, t_ns, link, src_port, kind, fields):
        self.t_ns = t_ns
        self.link = link
        self.src_port = src_port
        self.kind = kind
        self.fields = fields

    def as_dict(self):
        record = {
            "t_ns": self.t_ns,
            "link": self.link,
            "src_port": self.src_port,
            "kind": self.kind,
        }
        record.update(self.fields)
        return record

    def __repr__(self):
        return "TraceRecord(t=%d, %s, %s)" % (self.t_ns, self.src_port, self.kind)


def summarize(packet):
    """(kind, fields) decoded from a packet for the trace record."""
    if packet.is_pause:
        return "pause", {
            "paused": packet.pause.paused_priorities,
            "resumed": packet.pause.resumed_priorities,
        }
    if packet.is_arp:
        return "arp", {
            "op": "request" if packet.arp.is_request else "reply",
            "sender_ip": packet.arp.sender_ip,
        }
    if packet.is_rocev2:
        fields = {
            "opcode": packet.bth.opcode.name,
            "qp": packet.bth.dest_qp,
            "psn": packet.bth.psn,
            "bytes": packet.size_bytes,
            "dscp": packet.ip.dscp,
            "ecn": packet.ip.ecn,
        }
        if packet.vlan is not None:
            fields["pcp"] = packet.vlan.pcp
        return "rocev2", fields
    if packet.is_tcp:
        return "tcp", {
            "seq": packet.tcp.seq,
            "ack": packet.tcp.ack,
            "bytes": packet.size_bytes,
            "payload": packet.payload_bytes,
        }
    return "other", {"bytes": packet.size_bytes}


class PacketTracer:
    """Records frames crossing the links it is attached to."""

    def __init__(self, sim, max_records=100_000):
        self.sim = sim
        self.max_records = max_records
        self.records = []
        self.dropped_records = 0
        self._attached = []

    def attach(self, link):
        """Start capturing on ``link``.  Idempotent per link."""
        if link in self._attached:
            return
        self._attached.append(link)
        original_transmit = link.transmit

        def traced_transmit(from_port, packet, _original=original_transmit):
            self._record(link, from_port, packet)
            return _original(from_port, packet)

        link.transmit = traced_transmit

    def attach_all(self, fabric):
        """Capture on every link of a fabric."""
        for link in fabric.links:
            self.attach(link)
        return self

    def _record(self, link, from_port, packet):
        if len(self.records) >= self.max_records:
            self.dropped_records += 1
            return
        kind, fields = summarize(packet)
        self.records.append(
            TraceRecord(self.sim.now, link.name, from_port.name, kind, fields)
        )

    # -- queries -----------------------------------------------------------------

    def select(self, kind=None, link=None, since_ns=None):
        """Filter records by kind, link-name substring and/or start time."""
        out = []
        for record in self.records:
            if kind is not None and record.kind != kind:
                continue
            if link is not None and link not in record.link:
                continue
            if since_ns is not None and record.t_ns < since_ns:
                continue
            out.append(record)
        return out

    def counts_by_kind(self):
        counts = {}
        for record in self.records:
            counts[record.kind] = counts.get(record.kind, 0) + 1
        return counts

    def to_jsonl(self, path):
        """Write one JSON object per captured frame; returns the path."""
        return write_jsonl([record.as_dict() for record in self.records], path)

    def __len__(self):
        return len(self.records)
