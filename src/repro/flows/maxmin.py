"""Max-min fair rate allocation (progressive water-filling).

Given links with capacities and flows that each traverse a set of links,
repeatedly saturate the most-contended link: every unfrozen flow through
it gets an equal share of its remaining capacity, those flows freeze,
and the procedure recurses on what is left.  The result is the unique
max-min fair allocation -- the equilibrium a lossless fabric with
per-flow congestion control (DCQCN) approximates.

Two entry points:

* :func:`max_min_allocation` -- the from-scratch reference: builds all
  indexing state per call, scans every link per round.  Simple,
  auditable, O(links x rounds).
* :class:`MaxMinSolver` -- the incremental engine behind
  :mod:`repro.flowsim`: per-link membership and per-link load are
  maintained across :meth:`~MaxMinSolver.add_flow` /
  :meth:`~MaxMinSolver.remove_flow` / :meth:`~MaxMinSolver.set_weight`
  calls (no per-solve rebuild), flows carry integer *weights* (k
  same-path flows collapse into one entry), and the water-filling uses a
  lazy share heap with early exit once every flow froze.  Each link's
  initial heap entry is cached across solves and rebuilt only when a
  mutation touched the link, and a freeze updates only the links that
  keep unfrozen weight -- the solve cost scales with the bottlenecks it
  freezes, not with the links in use or the fabric size.
"""

import heapq


def max_min_allocation(link_capacities, flow_paths, weights=None):
    """Compute max-min fair rates.

    ``link_capacities``
        Mapping link-id -> capacity (any consistent unit).
    ``flow_paths``
        One iterable of link-ids per flow.
    ``weights``
        Optional positive integer per flow: a weight-k flow stands for k
        identical flows on that path and the returned rate is the
        *per-unit* rate (each of the k flows gets it).  Default all 1.

    Returns a list of per-flow rates in the same order.

    Raises :class:`ValueError` for an empty capacity map (with flows to
    place), a non-positive capacity, or a non-positive weight, and
    :class:`KeyError` when a path references an unknown link -- garbage
    capacities would otherwise surface as silently wrong allocations
    deep inside a sweep.
    """
    remaining = dict(link_capacities)
    for link, capacity in remaining.items():
        if not capacity > 0:
            raise ValueError(
                "link %r has non-positive capacity %r" % (link, capacity)
            )
    flow_paths = [list(path) for path in flow_paths]
    if weights is None:
        weights = [1] * len(flow_paths)
    else:
        weights = list(weights)
        if len(weights) != len(flow_paths):
            raise ValueError(
                "%d weights for %d flows" % (len(weights), len(flow_paths))
            )
        for idx, weight in enumerate(weights):
            if not weight > 0:
                raise ValueError("flow %d has non-positive weight %r" % (idx, weight))
    if not remaining and any(flow_paths):
        raise ValueError("no link capacities given, but flows have paths")
    flows_on_link = {link: set() for link in remaining}
    for idx, path in enumerate(flow_paths):
        for link in path:
            if link not in flows_on_link:
                raise KeyError("flow %d uses unknown link %r" % (idx, link))
            flows_on_link[link].add(idx)
    rates = [None] * len(flow_paths)
    unfrozen = {idx for idx, path in enumerate(flow_paths) if path}
    for idx, path in enumerate(flow_paths):
        if not path:
            rates[idx] = 0.0
    while unfrozen:
        # The binding link: smallest fair share among links with flows.
        best_link = None
        best_share = None
        for link, flows in flows_on_link.items():
            active = flows & unfrozen
            if not active:
                continue
            share = remaining[link] / sum(weights[idx] for idx in active)
            if best_share is None or share < best_share:
                best_share = share
                best_link = link
        if best_link is None:
            # Flows whose every link lost all other flows: capped by
            # nothing else; give each the min remaining capacity on its
            # path (cannot happen with the loop above, defensive).
            for idx in unfrozen:
                rates[idx] = min(remaining[link] for link in flow_paths[idx])
            break
        saturated = flows_on_link[best_link] & unfrozen
        for idx in saturated:
            rates[idx] = best_share
            unfrozen.discard(idx)
            for link in flow_paths[idx]:
                remaining[link] -= best_share * weights[idx]
        # Guard against float drift leaving tiny negative capacities.
        remaining[best_link] = 0.0
        for link in remaining:
            if remaining[link] < 0:
                remaining[link] = 0.0
    return rates


class MaxMinSolver:
    """Incremental max-min state: add/remove flows without rebuilding.

    Link ids (any hashable; the flow tier uses strings) stay at the API
    edge.  Inside, every link is a *dense index*: its position in the
    capacity map the solver was built from (for the flow tier that is
    ``FabricSpec`` build order), :meth:`add_link` appending new ones.
    :meth:`add_flow` translates a path to indices once -- an unknown
    link is the ``KeyError`` of that lookup -- and :meth:`path`
    translates back; capacity, membership and load are lists indexed by
    it, so the water-fill never hashes a link id.

    Two indexes are maintained across mutations, each in O(path length)
    per :meth:`add_flow` / :meth:`remove_flow` / :meth:`set_weight`:
    the per-link membership (which flows cross which link) and the
    per-link *load* (total weight crossing it, :meth:`link_load`), with
    the links whose load is non-zero kept in an ordered map to their
    cached version-0 heap entry ``(capacity / load, 0, link index)``.
    A mutation marks the links it touches (:meth:`add_link` re-rating
    one too); :meth:`solve` rebuilds only the marked entries, heapifies
    the cached ones and starts from copies of the load and capacity
    lists.  It never re-walks the registered paths, so a churny caller
    -- the flow-level simulator recomputing rates at every
    arrival/completion -- pays for the links it touched and the flows
    it freezes, not for indexing.  Weights are positive integers (k
    same-path flows collapse into one weight-k entry), which is what
    keeps the running load equal to a recount and a bottleneck's
    unfrozen weight exactly 0 once it froze.

    :meth:`solve` runs progressive filling with a lazy min-share heap of
    ``(share, version, link index)``: each link in use starts with its
    version-0 entry; stale heap entries (the link's membership changed
    since the push) are skipped via a version counter; a freeze takes
    the frozen flows' weight off their paths first and then subtracts
    capacity from, re-versions and re-pushes only the links that still
    carry unfrozen weight (an emptied link is never read again); the
    fill stops as soon as every flow froze, so links that are never
    anyone's bottleneck are never frozen.  **Tie-break:** links whose
    share and version are exactly equal freeze in dense-index order,
    i.e. in the order of the capacity map -- not by comparing link ids.
    The result matches :func:`max_min_allocation` (same fixpoint; float
    rounding may differ in the last bits because links freeze in heap
    order rather than scan order).
    """

    __slots__ = (
        "_index", "_links", "_capacity", "_members", "_load", "_in_use",
        "_stale", "_weights", "_paths", "_pathless", "_next_id",
    )

    def __init__(self, link_capacities):
        self._index = {}  # link id -> dense index
        self._links = []  # dense index -> link id
        self._capacity = []
        self._members = []  # per link: ids of the flows crossing it
        self._load = []  # per link: total weight crossing it
        # Indices with non-zero load -> cached version-0 heap entry
        # ``(capacity / load, 0, index)``; None until the next solve.
        self._in_use = {}
        self._stale = set()  # indices whose cached entry must be rebuilt
        for link, capacity in link_capacities.items():
            self.add_link(link, capacity)
        self._weights = {}
        self._paths = {}  # flow id -> tuple of link indices
        self._pathless = {}  # ids of zero-length-path flows (rate 0.0)
        self._next_id = 0

    # -- mutations --------------------------------------------------------------

    def add_link(self, link, capacity):
        """Add (or re-rate) one link; existing flows keep their paths."""
        if not capacity > 0:
            raise ValueError("link %r has non-positive capacity %r" % (link, capacity))
        index = self._index.get(link)
        if index is not None:
            self._capacity[index] = capacity
            self._stale.add(index)
            return
        self._index[link] = len(self._links)
        self._links.append(link)
        self._capacity.append(capacity)
        self._members.append(set())
        self._load.append(0)

    def add_flow(self, path, weight=1):
        """Register one flow (or ``weight`` identical flows); returns its id."""
        if not weight > 0:
            raise ValueError("non-positive weight %r" % (weight,))
        index = self._index
        try:
            # Dedup while preserving order: a link crossed "twice"
            # constrains the flow once (the reference's per-link
            # membership is a set).
            path = tuple(dict.fromkeys([index[link] for link in path]))
        except KeyError as exc:
            raise KeyError("flow uses unknown link %r" % (exc.args[0],)) from None
        flow_id = self._next_id
        self._next_id += 1
        self._paths[flow_id] = path
        self._weights[flow_id] = weight
        if not path:
            self._pathless[flow_id] = None
        members = self._members
        load = self._load
        for link in path:
            members[link].add(flow_id)
            if not load[link]:
                self._in_use[link] = None
            load[link] += weight
        self._stale.update(path)
        return flow_id

    def remove_flow(self, flow_id):
        """Withdraw one flow; its links keep their other members."""
        path = self._paths.pop(flow_id)
        weight = self._weights.pop(flow_id)
        if not path:
            del self._pathless[flow_id]
        members = self._members
        load = self._load
        for link in path:
            members[link].discard(flow_id)
            load[link] -= weight
            if not load[link]:
                del self._in_use[link]
        self._stale.update(path)

    def set_weight(self, flow_id, weight):
        """Change a flow's weight in place (k arrivals on one path)."""
        if not weight > 0:
            raise ValueError("non-positive weight %r" % (weight,))
        if flow_id not in self._paths:
            raise KeyError(flow_id)
        delta = weight - self._weights[flow_id]
        self._weights[flow_id] = weight
        load = self._load
        path = self._paths[flow_id]
        for link in path:
            load[link] += delta
        self._stale.update(path)

    def weight(self, flow_id):
        return self._weights[flow_id]

    def path(self, flow_id):
        links = self._links
        return tuple([links[index] for index in self._paths[flow_id]])

    def link_load(self, link):
        """Total weight of the registered flows crossing ``link`` (0 if none)."""
        index = self._index.get(link)
        return 0 if index is None else self._load[index]

    def fair_share(self, flow_id):
        """Smallest ``capacity / load`` on the flow's path: its share of
        its most loaded link, before any water-filling."""
        capacity = self._capacity
        load = self._load
        return min([capacity[link] / load[link] for link in self._paths[flow_id]])

    def flow_ids(self):
        return list(self._paths)

    def __len__(self):
        return len(self._paths)

    # -- solving ----------------------------------------------------------------

    def solve(self):
        """Per-unit max-min rates for every registered flow.

        Returns ``{flow_id: rate}``.  Zero-length paths get rate 0.0.
        """
        weights = self._weights
        paths = self._paths
        rates = dict.fromkeys(self._pathless, 0.0)
        unfrozen = len(paths) - len(rates)
        if not unfrozen:
            return rates
        # The version-0 entries of the links in use, rebuilt only where a
        # mutation touched the link since the last solve.
        in_use = self._in_use
        stale = self._stale
        if stale:
            capacity = self._capacity
            load = self._load
            for link in stale:
                total = load[link]
                if total:
                    in_use[link] = (capacity[link] / total, 0, link)
            stale.clear()
        # Per-link unfrozen weight and unclaimed capacity, by link index.
        link_weight = self._load[:]
        remaining = self._capacity[:]
        # Lazy share heap: (share, version, link).  A popped entry is
        # live only if its version matches the link's current one.
        version = [0] * len(link_weight)
        heap = list(in_use.values())
        heapq.heapify(heap)
        heappush = heapq.heappush
        heappop = heapq.heappop
        members = self._members
        while unfrozen and heap:
            share, ver, link = heappop(heap)
            if version[link] != ver or link_weight[link] <= 0:
                continue
            # Freeze every still-unfrozen flow on this link at `share`.
            # None of them crosses an already-frozen link: freezing that
            # link would have frozen the flow.
            frozen = []
            for flow_id in members[link]:
                if flow_id in rates:
                    continue
                rates[flow_id] = share
                frozen.append(flow_id)
                flow_weight = weights[flow_id]
                for other in paths[flow_id]:
                    link_weight[other] -= flow_weight
            unfrozen -= len(frozen)
            # Only links that keep unfrozen weight are updated: an emptied
            # link (this one included) is never read again -- its heap
            # entries fail the weight test, and the defensive tail below
            # reads only links of unfrozen flows.  Per live link the
            # subtractions run in the same member order as before.
            touched = {}
            for flow_id in frozen:
                taken = share * weights[flow_id]
                for other in paths[flow_id]:
                    if link_weight[other] > 0:
                        left = remaining[other] - taken
                        remaining[other] = left if left > 0 else 0.0
                        version[other] += 1
                        touched[other] = None
            # One push per updated link, with its final (share, version):
            # nothing is popped during the member loop, so every entry an
            # earlier touch would have pushed was already stale.
            for other in touched:
                heappush(
                    heap,
                    (remaining[other] / link_weight[other], version[other], other),
                )
        if unfrozen:
            # Defensive (mirrors the reference): flows whose every link
            # lost all competitors get their path's remaining minimum.
            for flow_id, path in paths.items():
                if flow_id not in rates:
                    rates[flow_id] = min(remaining[link] for link in path)
        return rates


def link_utilization(link_capacities, flow_paths, rates):
    """Utilization (0..1) per link given an allocation."""
    load = {link: 0.0 for link in link_capacities}
    for path, rate in zip(flow_paths, rates):
        for link in path:
            load[link] += rate
    return {
        link: (load[link] / cap if cap else 0.0)
        for link, cap in link_capacities.items()
    }
