"""Event-driven flow-level simulator.

The unit of work is a *flow*, not a frame: the only events are flow
arrivals, predicted flow completions, and (optionally) periodic rate
updates.  Between events every flow transfers bytes at its current
max-min fair rate, recomputed with the incremental solver
(:class:`repro.flows.maxmin.MaxMinSolver`) when the flow set changes.

Scaling machinery (what makes 50k flows on a 4096-host Clos take
seconds, not hours):

* **Path groups** -- flows on an identical path are one weighted solver
  entry; a group tracks the *cumulative per-flow service* ``S(t)`` (bytes
  each member has transferred), so a flow arriving at ``t0`` with size
  ``B`` completes exactly when ``S(t) == S(t0) + B`` -- a constant
  threshold computed once at arrival.  Thresholds live in a per-group
  min-heap; only each group's minimum needs a scheduled event.
* **Predictions replaced, not superseded** -- a recompute re-rates
  every responsive group, so every responsive prediction made before it
  is dead.  Those predictions live in their own heap of ``(t, seq, group,
  version)``, which each recompute builds as a list and heapifies
  wholesale; the old heap is dropped unpopped.  Arrivals, ticks and
  fixed-rate groups' checks (re-rated only when the fixed set changes)
  stay in the event heap, and :meth:`FlowSim.run` merges the two heads
  on ``(t, seq)`` with one shared ``seq`` counter, so events fire in
  exactly the order one heap would give them.
* **Batched rate updates** -- with ``rate_update_interval_ns=0`` (exact
  mode) rates are recomputed after every batch of same-instant events
  and the simulator's steady-state rates are *exactly* the solver's
  max-min allocation.  With an interval, recomputation happens at the
  next interval boundary after a change; new groups meanwhile run at a
  provisional rate (fair share of their most loaded link), which is the
  documented fidelity trade for datacenter scale (docs/flowsim.md).
* **Bookkeeping done once** -- per-link load and capacity live in the
  solver only (the provisional rate is ``MaxMinSolver.fair_share``; the
  PFC model re-rates links through ``add_link``), the run summary
  (bytes, FCT sum/max, completion CRC) is folded in per completion so
  ``run(until_ns=...)`` in slices returns in O(1).
* **What the version compare still drops** -- a check carries its
  group's rate *version* and is dropped, and counted in
  ``n_superseded``, when the group has been re-rated since: a fixed-rate
  group's check outlived by a change of the fixed set, or the duplicate
  left between two recomputes when an arrival lowers a group's minimum
  threshold and the group then empties.  Dropped checks do not move the
  clock: ``FlowSim.now`` is the time of the last event that did
  something.

Congestion-control models: responsive flows split capacities already
scaled by the first-order DCQCN factor
(:func:`repro.flowsim.models.dcqcn_capacity_factor`); *fixed-rate*
flows (``fixed_rate_bps``) are unresponsive -- they do not join the
max-min split, and when they oversubscribe a link the PFC model
(:func:`repro.flowsim.models.pfc_link_model`) converts the overload
into pause fractions that shrink the capacities responsive flows see,
reproducing congestion-spreading victims.

All times are integer nanoseconds; determinism fingerprints are built
from integer quantities only.
"""

import heapq
import math
import struct
import zlib

from repro.flows.maxmin import MaxMinSolver
from repro.flowsim.models import pfc_link_model

#: Threshold-comparison slack in bytes: far below the 1-byte size
#: granularity, far above double rounding at realistic magnitudes.
_EPS_BYTES = 1e-3

_ARRIVAL, _CHECK, _TICK = 0, 1, 2

#: One completion's contribution to the running ``completion_crc``.
_pack_completion = struct.Struct("<QQ").pack


class _Group:
    """Flows sharing one path (and responsiveness class)."""

    __slots__ = (
        "index", "path", "fixed_rate", "members", "rate", "s0", "t_last",
        "thresholds", "version", "solver_id",
    )

    def __init__(self, index, path, fixed_rate):
        self.index = index
        self.path = path
        self.fixed_rate = fixed_rate  # None = responsive (max-min)
        self.members = 0
        self.rate = 0.0  # current per-flow goodput bps
        self.s0 = 0.0  # cumulative per-flow service (bytes) at t_last
        self.t_last = 0
        self.thresholds = []  # heap of (threshold_bytes, flow_id)
        self.version = 0
        self.solver_id = None

    def service_at(self, t_ns):
        return self.s0 + self.rate * (t_ns - self.t_last) / 8e9

    def advance(self, t_ns):
        self.s0 = self.service_at(t_ns)
        self.t_last = t_ns


class FlowsimRun:
    """Summary of one :meth:`FlowSim.run`: counters + determinism digest.

    ``n_superseded`` is the simulator reporting on itself: how many of
    the ``n_events`` pops were completion checks whose group had been
    re-rated since (the few a recompute's wholesale rebuild of the check
    heap does not already discard unpopped).  It is a cost figure, not a
    simulated outcome, so it is not in :meth:`fingerprint`.
    """

    __slots__ = (
        "n_events", "n_recomputes", "n_completed", "n_active",
        "total_bytes", "sum_fct_ns", "max_fct_ns", "sim_ns", "completion_crc",
        "n_superseded",
    )

    def __init__(self, n_events, n_recomputes, n_completed, n_active,
                 total_bytes, sum_fct_ns, max_fct_ns, sim_ns, completion_crc,
                 n_superseded):
        self.n_events = n_events
        self.n_recomputes = n_recomputes
        self.n_completed = n_completed
        self.n_active = n_active
        self.total_bytes = total_bytes
        self.sum_fct_ns = sum_fct_ns
        self.max_fct_ns = max_fct_ns
        self.sim_ns = sim_ns
        self.completion_crc = completion_crc
        self.n_superseded = n_superseded

    def fingerprint(self):
        """Machine-independent tuple of integers (byte-identical reruns)."""
        return (
            self.n_events, self.n_recomputes, self.n_completed, self.n_active,
            self.total_bytes, self.sum_fct_ns, self.max_fct_ns, self.sim_ns,
            self.completion_crc,
        )


class FlowSim:
    """The flow-level simulator.

    ``link_capacities``
        Mapping link id -> capacity for responsive traffic, in goodput
        bits/second (callers apply wire->goodput efficiency and the
        DCQCN factor; :meth:`from_topology` does both).
    ``rate_update_interval_ns``
        0 = exact mode (recompute at every event batch); > 0 = batched
        recomputation at interval boundaries (scale mode).
    ``pfc_propagation_hops``
        Upstream reach of the aggregate PFC pause model.
    """

    def __init__(self, link_capacities, rate_update_interval_ns=0,
                 pfc_propagation_hops=2, topology=None):
        if rate_update_interval_ns < 0:
            raise ValueError("negative rate_update_interval_ns")
        self._base_caps = dict(link_capacities)
        self._solver = MaxMinSolver(self._base_caps)
        self._interval = rate_update_interval_ns
        self._pfc_hops = pfc_propagation_hops
        self.topology = topology
        # Two heaps, one seq counter: arrivals, ticks and fixed-rate
        # groups' checks wait in _heap; responsive groups' checks wait in
        # _checks, which every _recompute replaces wholesale.
        self._heap = []  # (t_ns, seq, kind, a, b)
        self._checks = []  # (t_ns, seq, group index, group version)
        self._seq = 0
        self._groups = {}  # (path, fixed_rate) -> _Group
        self._group_list = []
        self._flows = {}  # flow_id -> (group, size_bytes, start_ns)
        self._next_flow_id = 0
        self._dirty = False
        self._fixed_dirty = False
        self._tick_pending = False
        self._scaled_links = ()
        self.now = 0
        self.n_events = 0
        self.n_recomputes = 0
        self.n_superseded = 0  # _CHECK pops dropped on the version compare
        self.completed = []  # (flow_id, start_ns, finish_ns, size_bytes)
        # Running summary of `completed`, folded in by _complete.
        self._total_bytes = 0
        self._sum_fct_ns = 0
        self._max_fct_ns = 0
        self._completion_crc = 0
        self.pause_fractions = {}

    @classmethod
    def from_topology(cls, topology, rate_update_interval_ns=0,
                      efficiency=None, capacity_factor=1.0,
                      pfc_propagation_hops=2):
        """Build over a :class:`repro.flowsim.topo.FlowTopology`."""
        from repro.flowsim.topo import EFFICIENCY
        caps = topology.goodput_capacities(
            efficiency=EFFICIENCY if efficiency is None else efficiency,
            factor=capacity_factor,
        )
        return cls(caps, rate_update_interval_ns=rate_update_interval_ns,
                   pfc_propagation_hops=pfc_propagation_hops, topology=topology)

    # -- workload -----------------------------------------------------------

    def add_flow(self, path, size_bytes, start_ns=0, fixed_rate_bps=None):
        """Schedule one flow; returns its id.

        ``path`` is an ordered iterable of link ids; ``size_bytes`` is
        goodput payload.  ``fixed_rate_bps`` (a finite number > 0) makes
        the flow unresponsive (PFC model) instead of max-min responsive.
        """
        path = tuple(path)
        if not path:
            raise ValueError("flow with empty path")
        for link in path:
            if link not in self._base_caps:
                raise KeyError("flow uses unknown link %r" % (link,))
        if len(set(path)) < len(path):
            # A routing loop: the solver would constrain the flow once on
            # the repeated link, link_utilization() would count it twice.
            twice = next(link for i, link in enumerate(path) if link in path[:i])
            raise ValueError("flow crosses link %r twice" % (twice,))
        size_bytes = int(size_bytes)
        if size_bytes < 1:
            raise ValueError("flow size must be >= 1 byte, got %r" % (size_bytes,))
        start_ns = int(start_ns)
        if start_ns < self.now:
            raise ValueError("arrival %d before current time %d" % (start_ns, self.now))
        if fixed_rate_bps is not None and not 0 < fixed_rate_bps < math.inf:
            raise ValueError(
                "fixed_rate_bps must be None or a finite number > 0, got %r"
                % (fixed_rate_bps,)
            )
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        self._push(start_ns, _ARRIVAL, flow_id, (path, size_bytes, fixed_rate_bps))
        return flow_id

    def add_host_flow(self, src, dst, size_bytes, start_ns=0, sport=49152,
                      fixed_rate_bps=None):
        """Topology-addressed :meth:`add_flow` (endpoints by host index)."""
        if self.topology is None:
            raise ValueError("add_host_flow needs a topology")
        path = self.topology.path(src, dst, sport)
        return self.add_flow(path, size_bytes, start_ns=start_ns,
                             fixed_rate_bps=fixed_rate_bps)

    # -- event plumbing -----------------------------------------------------

    def _push(self, t_ns, kind, a, b):
        self._seq += 1
        heapq.heappush(self._heap, (t_ns, self._seq, kind, a, b))

    def _predict(self, group, from_ns):
        """Schedule a completion check for the group's minimum threshold."""
        if not group.thresholds or group.rate <= 0.0:
            return
        theta = group.thresholds[0][0]
        gap_bytes = theta - group.s0
        t_f = group.t_last + gap_bytes * 8e9 / group.rate
        t_check = int(t_f)
        if t_check < t_f:
            t_check += 1
        if t_check < from_ns:
            t_check = from_ns
        if group.fixed_rate is None:
            self._seq += 1
            heapq.heappush(
                self._checks, (t_check, self._seq, group.index, group.version)
            )
        else:
            self._push(t_check, _CHECK, group.index, group.version)

    def _mark_dirty(self, t_ns):
        self._dirty = True
        if self._interval and not self._tick_pending:
            self._tick_pending = True
            self._push((t_ns // self._interval + 1) * self._interval,
                       _TICK, 0, None)

    # -- event handlers -----------------------------------------------------

    def _on_arrival(self, t_ns, flow_id, spec):
        path, size_bytes, fixed_rate = spec
        key = (path, fixed_rate)
        group = self._groups.get(key)
        if group is None:
            group = _Group(len(self._group_list), path, fixed_rate)
            group.t_last = t_ns
            self._groups[key] = group
            self._group_list.append(group)
        fresh = group.members == 0
        group.members += 1
        if fixed_rate is None:
            solver = self._solver
            if group.solver_id is None:
                group.solver_id = solver.add_flow(path, weight=group.members)
            else:
                solver.set_weight(group.solver_id, group.members)
            if fresh:
                # Provisional until the next recompute: fair share of the
                # most loaded link on the path (exact mode replaces it
                # within this same instant's batch).
                group.advance(t_ns)
                group.version += 1
                group.rate = solver.fair_share(group.solver_id)
        else:
            self._fixed_dirty = True
        threshold = group.service_at(t_ns) + size_bytes
        was_min = not group.thresholds or threshold < group.thresholds[0][0]
        heapq.heappush(group.thresholds, (threshold, flow_id))
        self._flows[flow_id] = (group, size_bytes, t_ns)
        self._mark_dirty(t_ns)
        if was_min and group.rate > 0.0:
            self._predict(group, t_ns)

    def _on_check(self, t_ns, group_index):
        group = self._group_list[group_index]
        due = group.service_at(t_ns) + _EPS_BYTES
        thresholds = group.thresholds
        popped = False
        while thresholds and thresholds[0][0] <= due:
            _theta, flow_id = heapq.heappop(thresholds)
            self._complete(flow_id, t_ns)
            popped = True
        if popped:
            self._mark_dirty(t_ns)
        self._predict(group, t_ns + 1)

    def _complete(self, flow_id, t_ns):
        group, size_bytes, start_ns = self._flows.pop(flow_id)
        self.completed.append((flow_id, start_ns, t_ns, size_bytes))
        self._total_bytes += size_bytes
        fct_ns = t_ns - start_ns
        self._sum_fct_ns += fct_ns
        if fct_ns > self._max_fct_ns:
            self._max_fct_ns = fct_ns
        self._completion_crc = zlib.crc32(
            _pack_completion(flow_id, t_ns), self._completion_crc
        )
        group.members -= 1
        if group.fixed_rate is None:
            if group.members:
                self._solver.set_weight(group.solver_id, group.members)
            else:
                self._solver.remove_flow(group.solver_id)
                group.solver_id = None
                group.advance(t_ns)
                group.rate = 0.0
                group.version += 1
        else:
            self._fixed_dirty = True

    # -- rate recomputation -------------------------------------------------

    def _refresh_fixed(self, t_ns):
        fixed = [
            (g, (g.path, g.members * g.fixed_rate))
            for g in self._group_list
            if g.fixed_rate is not None and g.members
        ]
        residual, realized, pause = pfc_link_model(
            self._base_caps, [spec for _g, spec in fixed],
            propagation_hops=self._pfc_hops,
        )
        self.pause_fractions = pause
        # Re-rate the solver's links: restore anything previously scaled
        # that the model no longer touches, then apply the new residuals.
        solver = self._solver
        for link in self._scaled_links:
            if link not in residual:
                solver.add_link(link, self._base_caps[link])
        for link, cap in residual.items():
            solver.add_link(link, cap)
        self._scaled_links = tuple(residual)
        for (group, _spec), frac in zip(fixed, realized):
            group.advance(t_ns)
            group.rate = group.fixed_rate * frac
            group.version += 1
            self._predict(group, t_ns)
        # Emptied fixed groups stop accruing service.
        for group in self._group_list:
            if group.fixed_rate is not None and not group.members and group.rate:
                group.advance(t_ns)
                group.rate = 0.0
                group.version += 1

    def _recompute(self, t_ns):
        if self._fixed_dirty:
            self._refresh_fixed(t_ns)
            self._fixed_dirty = False
        rates = self._solver.solve()
        # Every responsive group in the solver is re-rated below, and an
        # empty one left its last version behind when it emptied: each
        # prediction now in _checks is dead, so the heap is rebuilt, not
        # added to.
        checks = []
        seq = self._seq
        # Per responsive group: advance(), re-rate, _predict() -- inlined,
        # same arithmetic and same seq order as the methods.
        for group in self._group_list:
            if group.fixed_rate is not None or group.solver_id is None:
                continue
            s0 = group.s0 + group.rate * (t_ns - group.t_last) / 8e9
            group.s0 = s0
            group.t_last = t_ns
            rate = rates[group.solver_id]
            group.rate = rate
            group.version += 1
            thresholds = group.thresholds
            if not thresholds or rate <= 0.0:
                continue
            t_f = t_ns + (thresholds[0][0] - s0) * 8e9 / rate
            t_check = int(t_f)
            if t_check < t_f:
                t_check += 1
            if t_check < t_ns:
                t_check = t_ns
            seq += 1
            checks.append((t_check, seq, group.index, group.version))
        heapq.heapify(checks)
        self._checks = checks
        self._seq = seq
        self._dirty = False
        self.n_recomputes += 1

    # -- running ------------------------------------------------------------

    def run(self, until_ns=None):
        """Process events (up to ``until_ns``, inclusive); returns a
        :class:`FlowsimRun`."""
        events = self._heap
        groups = self._group_list
        heappop = heapq.heappop
        while True:
            checks = self._checks  # replaced by every _recompute
            # The next instant: the earlier head of the two heaps.
            if events and checks:
                t_ns = min(events[0][0], checks[0][0])
            elif events or checks:
                t_ns = (events or checks)[0][0]
            else:
                break
            if until_ns is not None and t_ns > until_ns:
                break
            tick = False
            while True:
                # Pop this instant's entries off both heaps in seq order
                # (seq is unique, so the tuples compare on (t_ns, seq)).
                if (checks and checks[0][0] == t_ns
                        and not (events and events[0] < checks[0])):
                    _t, _seq, a, b = heappop(checks)
                    kind = _CHECK
                elif events and events[0][0] == t_ns:
                    _t, _seq, kind, a, b = heappop(events)
                else:
                    break
                self.n_events += 1
                if kind == _CHECK and b != groups[a].version:
                    self.n_superseded += 1  # re-rated since; not an event
                    continue
                self.now = t_ns
                if kind == _CHECK:
                    self._on_check(t_ns, a)
                elif kind == _ARRIVAL:
                    self._on_arrival(t_ns, a, b)
                else:
                    self._tick_pending = False
                    tick = True
            if (self._dirty or self._fixed_dirty) and (not self._interval or tick):
                self._recompute(t_ns)
        if until_ns is not None and until_ns > self.now:
            self.now = until_ns
        return self.result()

    def result(self):
        """The run so far as a :class:`FlowsimRun` (O(1): the summary of
        ``completed`` is kept as running values)."""
        return FlowsimRun(
            n_events=self.n_events,
            n_recomputes=self.n_recomputes,
            n_completed=len(self.completed),
            n_active=len(self._flows),
            total_bytes=self._total_bytes,
            sum_fct_ns=self._sum_fct_ns,
            max_fct_ns=self._max_fct_ns,
            sim_ns=self.now,
            completion_crc=self._completion_crc,
            n_superseded=self.n_superseded,
        )

    # -- inspection ---------------------------------------------------------

    def current_rates(self):
        """Per-flow goodput bps of every still-active flow.

        In exact mode, after any processed batch, these are exactly the
        incremental solver's max-min rates for the active flow set (plus
        the PFC model's fixed-flow rates).
        """
        return {fid: group.rate for fid, (group, _size, _t0) in self._flows.items()}

    def active_flow_paths(self):
        return {fid: group.path for fid, (group, _size, _t0) in self._flows.items()}

    def link_utilization(self):
        """Responsive+fixed load over base capacity, per link with load."""
        load = {}
        for group in self._group_list:
            if not group.members or group.rate <= 0.0:
                continue
            group_rate = group.rate * group.members
            for link in group.path:
                load[link] = load.get(link, 0.0) + group_rate
        return {
            link: rate / self._base_caps[link] for link, rate in load.items()
        }
