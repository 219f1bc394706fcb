"""The one fabric description (src/repro/spec.py) and its derivations.

* the tiers agree: on generated shapes the flow topology's ``path()``
  names the device hops, at the rates, that an independent trace over the
  booted packet fabric's live tables names;
* the address plan and the shape are checked once, with the same
  one-line ``ValueError`` from the packet and the flow entry point;
* ``FlowTopology.path`` rejects host indices outside ``range(n_hosts)``;
* nothing depends on ``PYTHONHASHSEED``: a validation sweep row is the
  same in two processes with different hash seeds.

The verbatim pre-spec builders live in tests/test_fabric_spec_reference.py.
"""

import itertools
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings

import repro
from repro.flowsim import FlowTopology, clos_flow, single_switch_flow, two_tier_flow
from repro.flowsim.topo import link_id
from repro.sim.units import gbps
from repro.switch import Switch, ecmp_seed
from repro.sim import Simulator
from repro.topo import deadlock_quad, single_switch, three_tier_clos, two_tier
from repro.spec import (
    clos_spec,
    deadlock_quad_spec,
    host_ip,
    single_switch_spec,
    tor_subnet,
    two_tier_spec,
)
from repro.validation.differential import trace_flow_path
from tests.strategies import FABRIC_BUILDERS, fabric_shapes

SPORTS = (49152, 50001, 65535)


# --- the tiers agree ----------------------------------------------------------


def traced_hops(topo, src, dst, five_tuple):
    """The packet tier's path as ``[("A>B", rate_bps), ...]``: the
    independent oracle's egress-port trace, each port renamed to the
    devices its link joins."""
    owner = {id(host.nic): host.name for host in topo.fabric.hosts}
    owner.update((id(switch), switch.name) for switch in topo.fabric.switches)
    hop_of = {}
    for link in topo.fabric.links:
        for near, far in ((link.port_a, link.port_b), (link.port_b, link.port_a)):
            hop_of[near.name] = link_id(owner[id(near.device)], owner[id(far.device)])
    return [
        (hop_of[port_name], rate_bps)
        for port_name, rate_bps in trace_flow_path(
            topo.hosts[src], topo.hosts[dst], five_tuple
        )
    ]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shape=fabric_shapes())
def test_flow_paths_are_the_live_packet_fabrics_paths(shape):
    kind, dims = shape
    packet_builder, flow_builder = FABRIC_BUILDERS[kind]
    topo = packet_builder(rate_bps=gbps(25), **dims).boot()
    flow = flow_builder(rate_bps=gbps(25), **dims)
    assert flow.hosts == [host.name for host in topo.hosts]
    assert flow.host_ips == [host.ip for host in topo.hosts]
    assert len(flow.links) == 2 * len(topo.fabric.links)
    for src, dst in itertools.permutations(range(flow.n_hosts), 2):
        for sport in SPORTS:
            path = flow.path(src, dst, sport)
            assert [(link, flow.links[link]) for link in path] == traced_hops(
                topo, src, dst, flow.five_tuple(src, dst, sport)
            )


def test_switch_default_seed_is_the_one_rule():
    switch = Switch(Simulator(), "P0L1")
    assert switch.ecmp_seed == ecmp_seed("P0L1") == 0xC330351D
    assert switch.base_mac == (ecmp_seed("P0L1") & 0xFFFF) << 16


# --- the spec -----------------------------------------------------------------


class TestSpec:
    def test_build_list_interleaves_nodes_and_trunks(self):
        spec = clos_spec(2, 1, 1, 1, 1)
        assert spec.build == [
            ("switch", "SP0", None),
            ("switch", "P0L0", None),
            ("switch", "P0T0", tor_subnet(0, 0)),
            ("host", "P0T0-S0", host_ip(0, 0, 0), "P0T0"),
            ("trunk", "P0T0", "P0L0", 20),
            ("switch", "P1L0", None),
            ("switch", "P1T0", tor_subnet(1, 0)),
            ("host", "P1T0-S0", host_ip(1, 0, 0), "P1T0"),
            ("trunk", "P1T0", "P1L0", 20),
            ("trunk", "P0L0", "SP0", 300),
            ("trunk", "P1L0", "SP0", 300),
        ]
        assert spec.tiers == {"SP0": 2, "P0L0": 1, "P0T0": 0, "P1L0": 1, "P1T0": 0}
        assert spec.routes["P0L0"] == [
            (tor_subnet(0, 0)[0], 24, ["P0T0"]),
            (0, 0, ["SP0"]),
        ]
        assert spec.routes["SP0"] == [
            (tor_subnet(0, 0)[0], 24, ["P0L0"]),
            (tor_subnet(1, 0)[0], 24, ["P1L0"]),
        ]

    def test_one_generator_three_naming_conventions(self):
        assert [s[1] for s in single_switch_spec(2).build] == ["T0", "S0", "S1"]
        assert [s[1] for s in two_tier_spec(1, 1, 1).build] == ["L0", "T0", "T0-S0", "T0"]
        assert single_switch_spec(3).name == "single_switch/3"
        assert two_tier_spec(2, 3, 1).name == "two_tier/2x3"
        assert clos_spec(2, 3, 4, 1, 1).name == "clos/2x3x4"

    def test_quad_routes_follow_force_figure4_paths(self):
        forced, free = deadlock_quad_spec(True), deadlock_quad_spec(False)
        assert forced.build == free.build
        assert [hops for _p, _l, hops in forced.routes["T0"]] == [["La"]]
        assert [hops for _p, _l, hops in forced.routes["T1"]] == [["Lb"]]
        assert [hops for _p, _l, hops in free.routes["T0"]] == [["La", "Lb"]]
        assert forced.routes["La"] == free.routes["Lb"]

    def test_quad_flow_derivation_takes_the_figures_paths(self):
        flow = FlowTopology(deadlock_quad_spec())
        s1, s3 = flow.hosts.index("S1"), flow.hosts.index("S3")
        assert flow.path(s1, s3, 1) == ("S1>T0", "T0>La", "La>T1", "T1>S3")
        assert flow.path(s3, s1, 1) == ("S3>T1", "T1>Lb", "Lb>T0", "T0>S1")

    def test_address_plan_rejects_out_of_range_indices(self):
        assert host_ip(255, 255, 253) == (10 << 24) | (255 << 16) | (255 << 8) | 254
        for bad in ((256, 0, 0), (0, 256, 0), (0, 0, 254), (-1, 0, 0), (0, 0, -1)):
            with pytest.raises(ValueError):
                host_ip(*bad)
        with pytest.raises(ValueError):
            tor_subnet(0, 256)


# --- shape and index validation, both tiers -----------------------------------

BAD_SHAPES = [
    # (packet entry point, flow entry point, dims, the argument the error names)
    (single_switch, single_switch_flow, {"n_hosts": 300}, "n_hosts"),
    (single_switch, single_switch_flow, {"n_hosts": -1}, "n_hosts"),
    (two_tier, two_tier_flow, {"hosts_per_tor": 255}, "hosts_per_tor"),
    (two_tier, two_tier_flow, {"n_tors": 257}, "n_tors"),
    (two_tier, two_tier_flow, {"n_tors": 2, "n_leaves": 0}, "n_leaves"),
    (two_tier, two_tier_flow, {"n_leaves": -2}, "n_leaves"),
    (three_tier_clos, clos_flow, {"hosts_per_tor": 300}, "hosts_per_tor"),
    (three_tier_clos, clos_flow, {"tors_per_podset": 257}, "tors_per_podset"),
    (three_tier_clos, clos_flow, {"n_podsets": 257}, "n_podsets"),
    (three_tier_clos, clos_flow, {"n_podsets": -1}, "n_podsets"),
    (three_tier_clos, clos_flow, {"leaves_per_podset": 3, "n_spines": 4}, "n_spines"),
    (three_tier_clos, clos_flow, {"leaves_per_podset": 0}, "n_spines"),
    (three_tier_clos, clos_flow, {"leaves_per_podset": 0, "n_spines": 0},
     "leaves_per_podset"),
    (three_tier_clos, clos_flow, {"n_spines": 0}, "n_spines"),
]


@pytest.mark.parametrize("packet,flow,dims,argument", BAD_SHAPES)
def test_bad_shape_is_one_value_error_from_both_tiers(packet, flow, dims, argument):
    messages = []
    for entry_point in (packet, flow):
        with pytest.raises(ValueError) as caught:
            entry_point(**dims)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert argument in messages[0] and "\n" not in messages[0]


@pytest.mark.parametrize(
    "packet,flow,dims",
    [
        # Degenerate but connected: nothing to route between.
        (two_tier, two_tier_flow, {"n_tors": 1, "n_leaves": 0}),
        (three_tier_clos, clos_flow, {"n_podsets": 1, "n_spines": 0}),
        (three_tier_clos, clos_flow,
         {"n_podsets": 1, "tors_per_podset": 1, "leaves_per_podset": 0, "n_spines": 0}),
        (three_tier_clos, clos_flow, {"hosts_per_tor": 0, "n_spines": 0}),
        (single_switch, single_switch_flow, {"n_hosts": 254}),
    ],
)
def test_degenerate_connected_shapes_build_in_both_tiers(packet, flow, dims):
    topo, topology = packet(**dims), flow(**dims)
    assert [host.name for host in topo.hosts] == topology.hosts
    for src, dst in itertools.permutations(range(min(topology.n_hosts, 4)), 2):
        assert topology.path(src, dst, SPORTS[0])


@pytest.mark.parametrize(
    "topology",
    [single_switch_flow(3), two_tier_flow(2, 2, 2), clos_flow(2, 2, 2, 2, 2)],
    ids=lambda topology: topology.name,
)
@pytest.mark.parametrize("offset", [-1, 0])
def test_path_rejects_host_indices_outside_the_fabric(topology, offset):
    outside = offset if offset < 0 else topology.n_hosts
    for src, dst in ((0, outside), (outside, 0)):
        with pytest.raises(IndexError, match=r"range\(%d\)" % topology.n_hosts):
            topology.path(src, dst, SPORTS[0])


# --- process stability ----------------------------------------------------------


def _sweep_rows(tmp_path, hash_seed):
    out = tmp_path / ("rows-%s.jsonl" % hash_seed)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(repro.__file__))]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    subprocess.run(
        [sys.executable, "-m", "repro", "validate", "--seeds", "1",
         "--start", "34", "--no-metamorphic", "--no-shrink",
         "--artifacts", str(tmp_path / "artifacts"), "--jsonl", str(out)],
        env=env, check=True, capture_output=True, timeout=300,
    )
    return [json.loads(line) for line in out.read_text().splitlines()]


@pytest.mark.validation
def test_validation_row_does_not_depend_on_the_hash_seed(tmp_path):
    # Seed 34 is clos(2,2,2,2,2) with 6 flows: five ECMP-bearing switches.
    # With hash(name) seeds the row read pause_frames 7 / min_share_ratio
    # 0.401 under PYTHONHASHSEED=1 and 0 / 0.5614 under PYTHONHASHSEED=3.
    first, second = _sweep_rows(tmp_path, "1"), _sweep_rows(tmp_path, "3")
    assert first == second
    assert [row["kind"] for row in first] == ["clos"]


def test_quad_builder_names_what_the_spec_cables():
    topo = deadlock_quad()
    assert topo.ports["T0-La:down"] is topo.port_toward("T0", "La")
    assert topo.ports["T1-Lb:up"].device is topo.lb
    assert topo.ports["T1-Lb:up"].peer is topo.ports["T1-Lb:down"]
