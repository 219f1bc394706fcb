"""Fault injection and runtime invariant auditing.

The paper's section 4 is a catalogue of failures that only surfaced
under faults nobody scripted: a lossy ASIC livelocking go-back-0, an
incomplete ARP table deadlocking PFC, one broken NIC pausing a whole
fabric, a slow receiver doing the same at lower intensity.  This package
provides the two halves of finding such things on purpose:

* :mod:`repro.faults.injector` / :mod:`repro.faults.plan` -- perturb a
  live fabric, imperatively or from a declarative, seeded
  :class:`FaultPlan`;
* :mod:`repro.faults.invariants` -- auditors that continuously check
  the invariants the rest of the codebase silently leans on (buffer
  conservation, PSN monotonicity, pause liveness, queue age).
"""

from repro.faults.injector import FaultInjector, LinkFaultRule, MATCHERS
from repro.faults.invariants import (
    AuditorRegistry,
    BufferConservationAuditor,
    InvariantViolation,
    LosslessQueueAgeAuditor,
    NicRxConservationAuditor,
    NicTxReadyAuditor,
    PauseProgressAuditor,
    PsnMonotonicityAuditor,
    Violation,
    install_default_auditors,
)
from repro.faults.plan import FaultPlan

__all__ = [
    "AuditorRegistry",
    "BufferConservationAuditor",
    "FaultInjector",
    "FaultPlan",
    "InvariantViolation",
    "LinkFaultRule",
    "LosslessQueueAgeAuditor",
    "MATCHERS",
    "NicRxConservationAuditor",
    "NicTxReadyAuditor",
    "PauseProgressAuditor",
    "PsnMonotonicityAuditor",
    "Violation",
    "install_default_auditors",
]
