"""The shared-buffer Ethernet switch model.

This subpackage reproduces the switch behaviour the paper depends on:

* :mod:`~repro.switch.buffer` -- ingress-accounted shared buffer with
  static or dynamic-alpha XOFF thresholds, XON hysteresis and PFC headroom
  (sections 2 and 6.2);
* :mod:`~repro.switch.pfc` -- per-(ingress-port, priority) pause state
  machine: assert, refresh, resume (802.1Qbb semantics);
* :mod:`~repro.switch.forwarding` -- L3 longest-prefix routing with ECMP,
  plus the ToR's L2 machinery: ARP table (4 h timeout), MAC table (5 min
  timeout), MAC learning and unknown-unicast flooding -- the exact
  ingredients of the section 4.2 deadlock;
* :mod:`~repro.switch.ecmp` -- deterministic five-tuple hashing;
* :mod:`~repro.switch.ecn` -- RED/ECN marking at the egress queue
  (DCQCN's congestion point);
* :mod:`~repro.switch.watchdog` -- the switch-side NIC-PFC-storm watchdog
  of section 4.3;
* :mod:`~repro.switch.switch` -- the :class:`Switch` device gluing it all
  together.
"""

import importlib

#: re-exported name -> the submodule that defines it, resolved on first
#: use (PEP 562): the flow tier hashes with ``repro.switch.ecmp`` and must
#: not load the :class:`Switch` device and the packet stack behind it.
_EXPORTS = {
    "BufferConfig": "repro.switch.buffer",
    "SharedBuffer": "repro.switch.buffer",
    "headroom_bytes": "repro.switch.buffer",
    "PfcConfig": "repro.switch.pfc",
    "EcnConfig": "repro.switch.ecn",
    "ForwardingTables": "repro.switch.forwarding",
    "ecmp_hash": "repro.switch.ecmp",
    "ecmp_seed": "repro.switch.ecmp",
    "ecmp_select": "repro.switch.ecmp",
    "Switch": "repro.switch.switch",
    "SwitchWatchdogConfig": "repro.switch.watchdog",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r" % (__name__, name)) from None
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
