"""E9 -- DSCP-based vs VLAN-based PFC (paper section 3, figure 3).

Two concrete failures of the original VLAN-based design, each run for
real through the switch pipeline:

1. **PXE boot**: VLAN-based PFC forces server ports into trunk mode;
   a PXE-booting NIC has no VLAN configuration, so its untagged DHCP
   exchange dies at the port.  DSCP-based PFC keeps ports in access
   mode and the exchange completes.
2. **Priority across subnets**: the 802.1Q PCP does not survive IP
   routing.  RDMA traffic crossing the L3 boundary loses its priority,
   lands in the lossy class, and -- under congestion -- gets *dropped*,
   violating losslessness.  With DSCP the priority is part of the IP
   header and survives; zero drops.
"""

from repro.core.dscp_pfc import DscpPfcDesign
from repro.core.provisioning import ProvisioningService
from repro.core.vlan_pfc import VlanPfcDesign
from repro.rdma.qp import QpConfig
from repro.sim import SeededRng
from repro.sim.units import KB, MB, MS
from repro.switch.buffer import BufferConfig
from repro.topo import single_switch, two_tier
from repro.experiments.common import ExperimentResult, saturate_pairs


class DscpVsVlanResult(ExperimentResult):
    title = "E9: DSCP-based vs VLAN-based PFC (section 3)"


def _pxe_boot_trial(design, seed):
    """Run a real untagged DHCP exchange through a ToR configured per
    the design's required port mode."""
    topo = single_switch(
        n_hosts=2, seed=seed, pfc_config=design.pfc_config()
    ).boot()
    topo.tor.set_server_port_modes(design.required_server_port_mode)
    service = ProvisioningService(topo.sim, topo.hosts[1])
    result = service.attempt_boot(topo.hosts[0])
    return result.value


def _cross_subnet_trial(design, seed, duration_ns=8 * MS):
    """Congested cross-ToR RDMA under each design: does losslessness
    survive the L3 hop?

    The congestion point must sit *beyond* the first routed hop (where
    the VLAN tag -- and with it the PCP -- is gone): senders on two
    different ToRs converge on one receiver, so the leaf's downlink is
    the 2:1 bottleneck and the leaf classifies the now-untagged packets
    into the lossy class.
    """
    topo = two_tier(
        n_tors=3,
        hosts_per_tor=2,
        n_leaves=1,
        seed=seed,
        pfc_config=design.pfc_config(),
        buffer_config=BufferConfig(
            alpha=None, xoff_static_bytes=48 * KB, lossy_egress_cap_bytes=96 * KB
        ),
    ).boot()
    sim = topo.sim
    rng = SeededRng(seed, "xsubnet")
    t0_hosts, t1_hosts, t2_hosts = topo.hosts_by_tor
    tc = design.traffic_class(priority=3)

    def qp_config():
        return QpConfig(traffic_class=tc)

    # 2:1 incast at the leaf's downlink toward T2.
    pairs = [
        (t0_hosts[0], t2_hosts[0]),
        (t1_hosts[0], t2_hosts[0]),
        (t0_hosts[1], t2_hosts[1]),
    ]
    senders = saturate_pairs(sim, pairs, 1 * MB, rng, qp_config_factory=qp_config)
    start = sim.now
    sim.run(until=start + duration_ns)
    rdma_drops = sum(
        s.counters.drops["buffer-lossy"] + s.counters.drops["egress-lossy"]
        for s in topo.fabric.switches
    )  # only RDMA traffic runs in this trial
    goodput = sum(s.completed_bytes for s in senders) * 8.0 / (sim.now - start)
    naks = sum(
        qp.stats.naks_received
        for host in topo.hosts
        if getattr(host, "rdma", None) is not None
        for qp in host.rdma.qps
    )
    return {
        "rdma_drops": rdma_drops,
        "goodput_gbps": goodput,
        "naks": naks,
    }


#: The fabric and QP seed.  The rows are the same at every seed (seeds
#: 1-3 checked; the cross-subnet counters at 1-6), so the runner sweeps
#: none.
_SEED = 1


def run_dscp_vs_vlan():
    """Reproduce the section 3 comparison."""
    rows = []
    for design in (VlanPfcDesign(), DscpPfcDesign()):
        pxe = _pxe_boot_trial(design, _SEED)
        cross = _cross_subnet_trial(design, _SEED)
        rows.append(
            {
                "design": design.name,
                "server_port_mode": design.required_server_port_mode,
                "pxe_boot": pxe,
                "cross_subnet_rdma_drops": cross["rdma_drops"],
                "goodput_gbps": cross["goodput_gbps"],
                "naks": cross["naks"],
                "validation_problems": len(design.validate()),
            }
        )
    return DscpVsVlanResult(rows)


def claims(rows):
    """Section 3: VLAN-based PFC breaks PXE boot and loses the priority
    across subnets; DSCP-based PFC fixes both."""
    by_design = {r["design"]: r for r in rows}
    vlan = by_design["vlan-pfc"]
    dscp = by_design["dscp-pfc"]
    return [
        # Problem 1: PXE boot.
        ("vlan: PXE boot breaks on the trunk port", vlan["pxe_boot"] == "broken-trunk-port"),
        ("dscp: PXE boot succeeds", dscp["pxe_boot"] == "success"),
        # Problem 2: priority across subnets -- RDMA gets dropped under
        # congestion once the PCP is gone; DSCP keeps it lossless.
        ("vlan: RDMA dropped across subnets", vlan["cross_subnet_rdma_drops"] > 0),
        ("dscp: no RDMA drop across subnets", dscp["cross_subnet_rdma_drops"] == 0),
        ("vlan: NAKs", vlan["naks"] > 0),
        ("dscp: no NAK", dscp["naks"] == 0),
        # The design validators agree with the experiments.
        ("vlan: validator finds 2 problems", vlan["validation_problems"] == 2),
        ("dscp: validator finds none", dscp["validation_problems"] == 0),
    ]
