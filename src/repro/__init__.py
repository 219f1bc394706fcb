"""repro -- a reproduction of "RDMA over Commodity Ethernet at Scale"
(Guo et al., SIGCOMM 2016).

The package is a packet-level discrete-event simulator of a RoCEv2
deployment on a commodity Ethernet Clos fabric, plus the paper's
contributions built on top of it:

* DSCP-based PFC (vs the original VLAN-based design) -- :mod:`repro.core`
* the safety fixes: go-back-N recovery, the incomplete-ARP drop that
  prevents the figure-4 deadlock, both PFC-storm watchdogs, and the
  slow-receiver mitigations -- :mod:`repro.rdma`, :mod:`repro.core`,
  :mod:`repro.nic`, :mod:`repro.switch`
* DCQCN congestion control -- :mod:`repro.dcqcn`
* management and monitoring (config drift, PFC counters, RDMA
  Pingmesh) -- :mod:`repro.monitoring`
* every table and figure of the evaluation -- :mod:`repro.experiments`

Quickstart (the package root re-exports these four, and twelve more
names, resolving each on first use: ``repro.single_switch`` works too)::

    from repro.rdma import connect_qp_pair, post_send
    from repro.sim import SeededRng
    from repro.topo import single_switch

    topo = single_switch(n_hosts=2).boot()
    qp, _ = connect_qp_pair(topo.hosts[0], topo.hosts[1], SeededRng(1))
    post_send(qp, 4 * 1024 * 1024, on_complete=lambda wr, t: print("done", t))
    topo.sim.run(until=10_000_000)

See ``examples/`` for runnable scenarios and ``python -m repro run`` for
the per-figure reproduction, each judged against the paper's claims.
"""

import importlib

__version__ = "1.0.0"

#: re-exported name -> the submodule that defines it.  A name resolves on
#: first use (PEP 562), so ``import repro.sim`` loads the engine and not
#: the packet stack behind ``repro.rdma`` / ``repro.dcqcn`` / ``repro.topo``.
_EXPORTS = {
    "Simulator": "repro.sim",
    "SeededRng": "repro.sim",
    "QpConfig": "repro.rdma",
    "TrafficClass": "repro.rdma",
    "GoBack0": "repro.rdma",
    "GoBackN": "repro.rdma",
    "connect_qp_pair": "repro.rdma",
    "post_send": "repro.rdma",
    "post_write": "repro.rdma",
    "post_read": "repro.rdma",
    "DcqcnConfig": "repro.dcqcn",
    "enable_dcqcn": "repro.dcqcn",
    "single_switch": "repro.topo",
    "two_tier": "repro.topo",
    "three_tier_clos": "repro.topo",
    "deadlock_quad": "repro.topo",
}

__all__ = list(_EXPORTS) + ["__version__"]


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r" % (__name__, name)) from None
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
