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

from repro.switch.buffer import BufferConfig, SharedBuffer, headroom_bytes
from repro.switch.ecmp import ecmp_hash, ecmp_seed, ecmp_select
from repro.switch.ecn import EcnConfig
from repro.switch.forwarding import ForwardingTables
from repro.switch.pfc import PfcConfig
from repro.switch.switch import Switch
from repro.switch.watchdog import SwitchWatchdogConfig

__all__ = [
    "BufferConfig",
    "SharedBuffer",
    "headroom_bytes",
    "PfcConfig",
    "EcnConfig",
    "ForwardingTables",
    "ecmp_hash",
    "ecmp_seed",
    "ecmp_select",
    "Switch",
    "SwitchWatchdogConfig",
]
