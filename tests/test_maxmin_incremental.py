"""The incremental MaxMinSolver against the from-scratch reference.

`repro.flows.maxmin.MaxMinSolver` is the engine behind the flow-level
simulator: per-link membership maintained across add/remove, integer
weights collapsing same-path flows, a lazy share heap with early exit.
Every solve must land on the same max-min fixpoint as
`max_min_allocation`, the simple reference scan -- including after
arbitrary churn and weight changes, which is exactly the life the
flowsim engine subjects it to.

`_reference_solve` is the solver's first water-fill, kept verbatim:
it recounts per-link load from every path on every call, keeps its
working state in dicts and pushes a heap entry at every touch.  The
solver now carries the load across mutations in lists indexed by dense
link index, caches each link's version-0 heap entry across solves, and
updates (once per touch, pushed once) only the links a freeze leaves
with unfrozen weight; `TestAgainstPreviousSolve`
pins the two to *exactly* equal floats in the same freeze order, which
is what keeps every flowsim fingerprint where it was.  The reference
reads the solver's dense containers (`_paths` holds link indices;
`_capacity` and `_members` are lists), so its heap breaks exact ties
the way the solver does: by link index, i.e. capacity-map order.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows.maxmin import MaxMinSolver, max_min_allocation
from tests.strategies import maxmin_problems, maxmin_programs

#: The solver freezes links in heap order, the reference in scan order;
#: only last-bit float rounding may differ between the two.
REL_TOL = 1e-9


def assert_rates_match(solver_rates, reference_rates, flow_ids):
    assert len(solver_rates) == len(reference_rates) == len(flow_ids)
    for flow_id, expected in zip(flow_ids, reference_rates):
        got = solver_rates[flow_id]
        assert got == pytest.approx(expected, rel=REL_TOL, abs=1e-12), (
            "flow %r: solver %r vs reference %r" % (flow_id, got, expected)
        )


def _reference_solve(solver):
    """The water-fill as it was before the solver carried per-link load
    (``self`` spelled ``solver``, otherwise untouched; ``link`` is now a
    dense index).  It reads the solver's own membership sets, so both
    sides freeze a link's flows in the same order."""
    weights = solver._weights
    paths = solver._paths
    rates = {}
    # Per-link unfrozen weight, only for links someone crosses.
    link_weight = {}
    remaining = {}
    for flow_id, path in paths.items():
        if not path:
            rates[flow_id] = 0.0
            continue
        for link in path:
            if link in link_weight:
                link_weight[link] += weights[flow_id]
            else:
                link_weight[link] = weights[flow_id]
                remaining[link] = solver._capacity[link]
    unfrozen = len(paths) - len(rates)
    if not unfrozen:
        return rates
    # Lazy share heap: (share, version, link).  A popped entry is
    # live only if its version matches the link's current one.
    version = {link: 0 for link in link_weight}
    heap = [
        (remaining[link] / total, 0, link)
        for link, total in link_weight.items()
    ]
    heapq.heapify(heap)
    members = solver._members
    frozen = set()
    while unfrozen and heap:
        share, ver, link = heapq.heappop(heap)
        if version[link] != ver or link_weight[link] <= 0:
            continue
        # Freeze every still-unfrozen flow on this link at `share`.
        for flow_id in members[link]:
            if flow_id in rates:
                continue
            rates[flow_id] = share
            unfrozen -= 1
            flow_weight = weights[flow_id]
            for other in paths[flow_id]:
                if other == link:
                    continue
                if other in frozen:
                    continue
                link_weight[other] -= flow_weight
                left = remaining[other] - share * flow_weight
                remaining[other] = left if left > 0 else 0.0
                version[other] += 1
                if link_weight[other] > 0:
                    heapq.heappush(
                        heap,
                        (remaining[other] / link_weight[other],
                         version[other], other),
                    )
        frozen.add(link)
        link_weight[link] = 0
        remaining[link] = 0.0
    if unfrozen:
        # Defensive (mirrors the reference): flows whose every link
        # lost all competitors get their path's remaining minimum.
        for flow_id, path in paths.items():
            if flow_id not in rates:
                rates[flow_id] = min(remaining.get(link, 0.0) for link in path)
    return rates


def assert_load_is_a_recount(solver, links):
    recount = dict.fromkeys(links, 0)
    for flow_id in solver.flow_ids():
        for link in solver.path(flow_id):
            recount[link] += solver.weight(flow_id)
    for link in links:
        assert solver.link_load(link) == recount[link], link
    # The dense side: one load per link in capacity-map order, and the
    # in-use set is exactly the links with load.
    assert solver._load == [recount[link] for link in solver._links]
    assert set(solver._in_use) == {
        index for index, load in enumerate(solver._load) if load
    }


class TestUnit:
    def test_single_link_equal_split(self):
        solver = MaxMinSolver({"l": 30.0})
        ids = [solver.add_flow(["l"]) for _ in range(3)]
        rates = solver.solve()
        assert all(rates[i] == pytest.approx(10.0) for i in ids)

    def test_weight_k_equals_k_identical_flows(self):
        links = {"a": 50.0, "b": 30.0}
        heavy = MaxMinSolver(links)
        hid = heavy.add_flow(["a", "b"], weight=3)
        oid = heavy.add_flow(["a"])
        expected = max_min_allocation(
            links, [["a", "b"]] * 3 + [["a"]]
        )
        rates = heavy.solve()
        assert rates[hid] == pytest.approx(expected[0], rel=REL_TOL)
        assert rates[oid] == pytest.approx(expected[3], rel=REL_TOL)

    def test_remove_flow_restores_capacity(self):
        solver = MaxMinSolver({"l": 40.0})
        keep = solver.add_flow(["l"])
        gone = solver.add_flow(["l"])
        assert solver.solve()[keep] == pytest.approx(20.0)
        solver.remove_flow(gone)
        assert solver.solve() == {keep: pytest.approx(40.0)}
        assert len(solver) == 1

    def test_add_link_rerates_in_place(self):
        solver = MaxMinSolver({"l": 10.0})
        fid = solver.add_flow(["l"])
        assert solver.solve()[fid] == pytest.approx(10.0)
        solver.add_link("l", 25.0)
        assert solver.solve()[fid] == pytest.approx(25.0)

    def test_set_weight_changes_split(self):
        solver = MaxMinSolver({"l": 30.0})
        grp = solver.add_flow(["l"])
        other = solver.add_flow(["l"])
        solver.set_weight(grp, 2)
        rates = solver.solve()
        assert rates[grp] == pytest.approx(10.0)
        assert rates[other] == pytest.approx(10.0)
        assert solver.weight(grp) == 2

    def test_link_load_follows_every_mutation(self):
        solver = MaxMinSolver({"a": 10.0, "b": 10.0, "c": 10.0})
        assert solver.link_load("a") == 0
        first = solver.add_flow(["a", "b"], weight=3)
        second = solver.add_flow(["b"])
        assert [solver.link_load(l) for l in "abc"] == [3, 4, 0]
        solver.set_weight(first, 1)
        assert [solver.link_load(l) for l in "abc"] == [1, 2, 0]
        solver.remove_flow(first)
        assert [solver.link_load(l) for l in "abc"] == [0, 1, 0]
        solver.remove_flow(second)
        assert solver._load == [0, 0, 0] and not solver._in_use
        assert solver.link_load("never-added") == 0

    def test_empty_path_rate_zero(self):
        solver = MaxMinSolver({"l": 10.0})
        fid = solver.add_flow([])
        assert solver.solve()[fid] == 0.0

    def test_duplicate_links_constrain_once(self):
        solver = MaxMinSolver({"l": 10.0})
        fid = solver.add_flow(["l", "l"])
        assert solver.path(fid) == ("l",)
        assert solver.solve()[fid] == pytest.approx(10.0)

    def test_path_round_trips_link_ids(self):
        solver = MaxMinSolver({"z": 10.0, ("tor", 3): 10.0})
        fid = solver.add_flow([("tor", 3), "z"])
        assert solver.path(fid) == (("tor", 3), "z")
        solver.add_link("late", 5.0)
        assert solver.path(solver.add_flow(["late", "z"])) == ("late", "z")

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            MaxMinSolver({"l": 0.0})
        solver = MaxMinSolver({"l": 10.0})
        with pytest.raises(KeyError, match="unknown link 'nope'"):
            solver.add_flow(["nope"])
        assert len(solver) == 0 and solver.link_load("l") == 0
        with pytest.raises(ValueError):
            solver.add_flow(["l"], weight=0)
        fid = solver.add_flow(["l"])
        with pytest.raises(ValueError):
            solver.set_weight(fid, -1)
        with pytest.raises(KeyError):
            solver.set_weight(12345, 1)
        with pytest.raises(ValueError):
            solver.add_link("l", 0.0)


class TestAgainstReference:
    @given(problem=maxmin_problems())
    @settings(max_examples=100, deadline=None)
    def test_solve_matches_reference(self, problem):
        links, paths = problem
        solver = MaxMinSolver(links)
        ids = [solver.add_flow(path) for path in paths]
        assert_rates_match(solver.solve(), max_min_allocation(links, paths), ids)

    @given(
        problem=maxmin_problems(),
        removals=st.lists(st.integers(0, 10**6), max_size=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_churn_matches_reference_on_survivors(self, problem, removals):
        links, paths = problem
        solver = MaxMinSolver(links)
        alive = {solver.add_flow(path): path for path in paths}
        for token in removals:
            if not alive:
                break
            victim = sorted(alive)[token % len(alive)]
            solver.remove_flow(victim)
            del alive[victim]
        ids = sorted(alive)
        reference = max_min_allocation(links, [alive[i] for i in ids])
        rates = solver.solve()
        assert set(rates) == set(ids)
        assert_rates_match(rates, reference, ids)

    @given(
        problem=maxmin_problems(max_flows=8),
        weights=st.lists(st.integers(1, 4), min_size=8, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_weighted_entry_equals_duplicated_flows(self, problem, weights):
        links, paths = problem
        weights = weights[: len(paths)] + [1] * max(0, len(paths) - len(weights))
        solver = MaxMinSolver(links)
        ids = [
            solver.add_flow(path, weight=w) for path, w in zip(paths, weights)
        ]
        # Reference: weight-k flow literally expanded into k flows.
        expanded_paths = []
        firsts = []
        for path, w in zip(paths, weights):
            firsts.append(len(expanded_paths))
            expanded_paths.extend([path] * w)
        expanded = max_min_allocation(links, expanded_paths)
        reference = [expanded[first] for first in firsts]
        assert_rates_match(solver.solve(), reference, ids)

    @given(problem=maxmin_problems())
    @settings(max_examples=40, deadline=None)
    def test_resolve_is_stable_across_repeat_solves(self, problem):
        links, paths = problem
        solver = MaxMinSolver(links)
        for path in paths:
            solver.add_flow(path)
        assert solver.solve() == solver.solve()


class TestAgainstPreviousSolve:
    """Exact (``==``) agreement with the water-fill this solver replaced."""

    @given(program=maxmin_programs())
    @settings(max_examples=150, deadline=None)
    def test_programs_solve_bit_identically_and_keep_load_exact(self, program):
        links, ops = program
        solver = MaxMinSolver(links)
        alive = []
        for op in ops:
            if op[0] == "add":
                alive.append(solver.add_flow(op[1], weight=op[2]))
            elif op[0] == "rerate":
                solver.add_link(op[1], op[2])
            elif not alive:
                continue
            elif op[0] == "remove":
                solver.remove_flow(alive.pop(op[1] % len(alive)))
            else:
                solver.set_weight(alive[op[1] % len(alive)], op[2])
            assert_load_is_a_recount(solver, links)
            # Same floats, and the same freeze order (dicts keep it).
            assert list(solver.solve().items()) == list(
                _reference_solve(solver).items()
            )

    @given(program=maxmin_programs())
    @settings(max_examples=100, deadline=None)
    def test_result_does_not_depend_on_earlier_solves(self, program):
        # The solver caches each link's version-0 heap entry across
        # solves; a twin solved only at the end must agree with one
        # solved after every op, so no cached entry outlives its state.
        links, ops = program
        eager = MaxMinSolver(links)
        lazy = MaxMinSolver(links)
        alive = []
        for op in ops:
            if op[0] == "add":
                alive.append(eager.add_flow(op[1], weight=op[2]))
                lazy.add_flow(op[1], weight=op[2])
            elif op[0] == "rerate":
                eager.add_link(op[1], op[2])
                lazy.add_link(op[1], op[2])
            elif not alive:
                continue
            elif op[0] == "remove":
                victim = alive.pop(op[1] % len(alive))
                eager.remove_flow(victim)
                lazy.remove_flow(victim)
            else:
                eager.set_weight(alive[op[1] % len(alive)], op[2])
                lazy.set_weight(alive[op[1] % len(alive)], op[2])
            eager.solve()
        assert list(eager.solve().items()) == list(lazy.solve().items())

    def test_rerate_an_idle_link_then_route_over_it(self):
        solver = MaxMinSolver({"a": 10.0, "b": 40.0})
        first = solver.add_flow(["b"])
        solver.solve()
        solver.add_link("a", 30.0)  # no flow crosses "a" yet
        solver.solve()
        second = solver.add_flow(["a", "b"])
        rates = solver.solve()
        assert rates == {first: 20.0, second: 20.0}
        assert list(rates.items()) == list(_reference_solve(solver).items())
        solver.add_link("a", 8.0)
        assert solver.solve() == {first: 32.0, second: 8.0}

    @pytest.mark.parametrize("n_flows", [2, 7, 40])
    def test_all_shares_tie_on_a_uniform_ring(self, n_flows):
        # Equal capacities, equal weights, every flow on two neighbouring
        # links: every initial share is identical, so which link freezes
        # first -- and the order of every later subtraction -- rests on
        # (version, link) alone.
        links = {i: 30 for i in range(n_flows)}
        solver = MaxMinSolver(links)
        for i in range(n_flows):
            solver.add_flow([i, (i + 1) % n_flows])
            solver.add_flow([i])
        assert list(solver.solve().items()) == list(
            _reference_solve(solver).items()
        )
        assert_load_is_a_recount(solver, links)

    def test_versions_advance_once_per_touched_flow(self):
        # Freezing link 0 touches link 1 twice and link 2 once; both end
        # at share 8.0.  Counting touches, link 2 (version 1) freezes
        # before link 1 (version 2) and flow 2 before flow 4; a version
        # bumped once per *push* would tie them and let link 1 go first.
        links = {0: 24, 1: 24, 2: 24}
        solver = MaxMinSolver(links)
        for path in ([0], [2, 0, 1], [2], [1, 0], [1, 2]):
            solver.add_flow(path)
        rates = solver.solve()
        assert list(rates) == [0, 1, 3, 2, 4]
        assert list(rates.items()) == list(_reference_solve(solver).items())

    @pytest.mark.parametrize("order", [("z", "a"), ("a", "z")])
    def test_exact_ties_break_by_capacity_map_order_not_by_id(self, order):
        # Two disjoint links, equal capacity, one flow each: both shares
        # are 10.0 at version 0, so which link freezes first rests on the
        # last tuple field alone.  That field is the link's position in
        # the capacity map, so "z" listed first freezes first -- an id
        # comparison would always freeze "a" first.
        solver = MaxMinSolver({link: 10.0 for link in order})
        flow_on = {link: solver.add_flow([link]) for link in sorted(order)}
        rates = solver.solve()
        assert list(rates) == [flow_on[link] for link in order]
        assert list(rates.items()) == list(_reference_solve(solver).items())
        assert set(rates.values()) == {10.0}
