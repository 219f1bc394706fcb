"""Topology construction.

* :mod:`~repro.spec` -- the one fabric description
  (:class:`FabricSpec`): build list, routes, tiers; the up-down Clos
  generator, the figure 4 literal and the address plan.  The packet
  fabric here, the flow-level capacity graph (:mod:`repro.flowsim.topo`)
  and the figure 7 model (:mod:`repro.flows`) are all derived from it.
* :mod:`~repro.topo.fabric` -- the :class:`Fabric` container: hosts,
  switches, links and boot orchestration.
* :mod:`~repro.topo.builders` -- the paper's topologies, each one spec
  instantiated as a packet fabric:

  - :func:`single_switch` -- two servers through one switch (the
    section 4.1 livelock testbed);
  - :func:`two_tier` -- ToRs + Leaf layer (the figure 8 testbed);
  - :func:`three_tier_clos` -- ToR/Leaf/Spine podsets (figures 1 and 7);
  - :func:`deadlock_quad` -- the exact 4-switch, 5-server arrangement of
    figure 4.
"""

from repro.spec import host_ip
from repro.topo.builders import (
    deadlock_quad,
    single_switch,
    three_tier_clos,
    two_tier,
)
from repro.topo.fabric import Fabric

__all__ = [
    "Fabric",
    "host_ip",
    "single_switch",
    "two_tier",
    "three_tier_clos",
    "deadlock_quad",
]
