"""Latency attribution: decompose a traced op's FCT, exactly.

Given an op record and the session's pause intervals, :func:`attribute_op`
splits ``completed_ns - posted_ns`` into seven components that **sum to
the FCT exactly** (integer nanoseconds, no residual) -- the exact-sum
invariant tests/test_tracing.py asserts over the canonical bench
scenarios:

``source_ns``
    WQE post until the completion-relevant data packet first went to the
    NIC: send-queue wait, pacing (DCQCN rate limiting), window stalls,
    and -- for READs -- the request's forward path plus responder
    turnaround (the op's clock starts at the requester's post).
``retransmit_ns``
    First-ever transmission of that (qp, psn) until the transmission
    instance that finally completed the op (zero without loss).
``queue_ns``
    Egress-queue residency not covered by a pause interval, plus
    NIC-internal handoff (ctrl-queue wait between packet build and
    port admit).
``pause_ns``
    Egress-queue residency while the (port, priority) was paused -- the
    PFC head-of-line component.
``serialization_ns``
    Sum of per-hop store-and-forward serialization delays.
``propagation_ns``
    Sum of per-hop cable flight times (plus any injected fault delay).
``nic_ns``
    Receive-side NIC pipeline residency (rx buffer wait + per-packet
    processing + MTT stalls), on every chain hop including the final
    dispatch that raised the CQE.

The decomposition walks the *completion chain* backwards: the control
packet whose arrival completed the op, then the data packet whose
arrival triggered that control packet.  Every boundary is a recorded
hook timestamp and every link between consecutive events is synchronous
in the simulator, so the components tile ``[posted_ns, completed_ns]``
by construction.  Ops whose chain is broken (sampling below 1.0 traced
the op but not the ACK's trigger; the run stopped mid-flight; the
completing ACK rode an untraced packet) are returned with
``complete: False`` and no component claims.

Components are *signed*: under go-back-N a duplicate retransmission of
an older PSN can carry the cumulative ACK that completes a younger op,
making ``source_ns`` negative and ``retransmit_ns`` correspondingly
larger.  The sum stays exact; docs/tracing.md discusses reading such
cases.

Everything here is a pure function over artifact records (dicts), so it
works identically online (tests draining a session) and offline (the
``python -m repro attribute`` verb reading JSONL).
"""

COMPONENTS = (
    "source_ns",
    "retransmit_ns",
    "queue_ns",
    "pause_ns",
    "serialization_ns",
    "propagation_ns",
    "nic_ns",
)

#: chain-terminating packet kinds that carry ``first_tx_ns``
_DATA_KINDS = ("data", "read_response", "read_request")


def pause_intervals_from_records(records):
    """``{(port, priority): [(start_ns, end_ns), ...]}`` from an artifact."""
    intervals = {}
    for record in records:
        if record.get("type") != "pause_interval":
            continue
        key = (record["port"], record["priority"])
        intervals.setdefault(key, []).append(
            (record["start_ns"], record["end_ns"])
        )
    for series in intervals.values():
        series.sort()
    return intervals


def pause_overlap(intervals, start_ns, end_ns):
    """Total overlap of ``[start_ns, end_ns)`` with the interval list."""
    total = 0
    for lo, hi in intervals:
        if hi <= start_ns:
            continue
        if lo >= end_ns:
            break
        total += min(hi, end_ns) - max(lo, start_ns)
    return total


def _parse_hops(events):
    """Pair up (enq, wire) hop events; None if the shape is unexpected."""
    hops = [e for e in events if e[0] in ("enq", "wire")]
    parsed = []
    index = 0
    while index < len(hops):
        if (
            hops[index][0] != "enq"
            or index + 1 >= len(hops)
            or hops[index + 1][0] != "wire"
        ):
            return None
        parsed.append((hops[index], hops[index + 1]))
        index += 2
    return parsed


def _incomplete(op, reason):
    result = {
        "wr_id": op.get("wr_id"),
        "qp": op.get("qp"),
        "host": op.get("host"),
        "kind": op.get("kind"),
        "size_bytes": op.get("size_bytes"),
        "complete": False,
        "reason": reason,
        "fct_ns": None,
    }
    for name in COMPONENTS:
        result[name] = 0
    return result


def attribute_op(op, pause_intervals):
    """Decompose one op record's FCT; see the module docstring."""
    if op.get("completed_ns") is None:
        return _incomplete(op, "op never completed (run stopped mid-flight)")
    chain = op.get("chain") or ()
    if not chain:
        return _incomplete(op, "empty completion chain")
    posted = op["posted_ns"]
    completed = op["completed_ns"]
    components = dict.fromkeys(COMPONENTS, 0)
    boundary = completed
    for depth, packet in enumerate(chain):
        events = packet["events"]
        arrivals = [e for e in events if e[0] == "nicrx"]
        if not arrivals:
            return _incomplete(op, "chain packet never reached a NIC")
        arrival = arrivals[-1][1]
        # Receive-side pipeline: rx-buffer admit until the dispatch (or
        # next chain hop's creation) at ``boundary``.
        components["nic_ns"] += boundary - arrival
        hops = _parse_hops(events)
        if not hops:
            return _incomplete(op, "malformed hop events")
        created = events[0][1]
        # Handoff from packet build to first egress admit (ctrl-queue /
        # NIC scheduler wait) counts as queueing.
        components["queue_ns"] += hops[0][0][1] - created
        for index, (enq, wire) in enumerate(hops):
            t_enq, port, priority = enq[1], enq[2], enq[4]
            t_wire, serialization = wire[1], wire[3]
            waited = t_wire - t_enq
            paused = pause_overlap(
                pause_intervals.get((port, priority), ()), t_enq, t_wire
            )
            components["pause_ns"] += paused
            components["queue_ns"] += waited - paused
            components["serialization_ns"] += serialization
            if index + 1 < len(hops):
                next_arrival = hops[index + 1][0][1]
            else:
                next_arrival = arrival
            components["propagation_ns"] += next_arrival - (t_wire + serialization)
        boundary = created
        if depth == len(chain) - 1:
            # Innermost packet must be the completing data segment.
            if packet["kind"] not in _DATA_KINDS or "first_tx_ns" not in packet:
                return _incomplete(op, "chain does not end at a data packet")
            first_tx = packet["first_tx_ns"]
            components["retransmit_ns"] += boundary - first_tx
            components["source_ns"] += first_tx - posted
            boundary = posted
    fct = completed - posted
    residual = fct - sum(components.values())
    result = {
        "wr_id": op["wr_id"],
        "qp": op["qp"],
        "host": op.get("host"),
        "kind": op.get("kind"),
        "size_bytes": op.get("size_bytes"),
        "complete": residual == 0,
        "reason": None if residual == 0 else "residual %d ns" % residual,
        "fct_ns": fct,
        "residual_ns": residual,
    }
    result.update(components)
    return result


def attribute_records(records):
    """Attribute every op in an artifact record list.

    Returns ``[attribution dict, ...]`` in op order; pass the full
    record list (pause intervals are pulled from it).
    """
    intervals = pause_intervals_from_records(records)
    return [
        attribute_op(record, intervals)
        for record in records
        if record.get("type") == "op"
    ]


def aggregate(attributions):
    """Sum components over the complete attributions; the triage view.

    Returns a dict with ``ops`` / ``incomplete`` counts, total and
    mean FCT, and per-component totals plus share-of-total fractions.
    """
    complete = [a for a in attributions if a["complete"]]
    totals = dict.fromkeys(COMPONENTS, 0)
    fct_total = 0
    for attribution in complete:
        fct_total += attribution["fct_ns"]
        for name in COMPONENTS:
            totals[name] += attribution[name]
    out = {
        "ops": len(attributions),
        "complete": len(complete),
        "incomplete": len(attributions) - len(complete),
        "fct_total_ns": fct_total,
        "fct_mean_ns": fct_total // len(complete) if complete else 0,
    }
    for name in COMPONENTS:
        out[name] = totals[name]
        out[name.replace("_ns", "_share")] = (
            totals[name] / fct_total if fct_total else 0.0
        )
    return out
