"""Shared experiment scaffolding."""

from repro.dcqcn import enable_dcqcn
from repro.net.port import DwrrScheduler
from repro.rdma.qp import QpConfig
from repro.rdma.verbs import connect_qp_pair
from repro.workloads import ClosedLoopSender, RdmaChannel


def run_under_audit(fabric, mode="record", **kwargs):
    """Arm the runtime invariant auditors on ``fabric`` and start them.

    Every scripted experiment runs under audit by default.  Pathology
    experiments use record mode -- a deadlock *should* trip the pause
    auditor -- and surface ``registry.violation_count`` as a row column,
    so a scenario that breaks an invariant it should not is visible in
    the results table, not just in a test.
    """
    from repro.faults import install_default_auditors

    return install_default_auditors(fabric, mode=mode, **kwargs).start()


def apply_ets_weights(fabric, weights, quantum_bytes=1600):
    """Install DWRR schedulers on every switch port.

    Models the ETS bandwidth reservation the paper configures so that
    the TCP class keeps its share next to saturating RDMA classes.
    """
    for switch in fabric.switches:
        for port in switch.ports:
            port.scheduler = DwrrScheduler(weights=dict(weights), quantum_bytes=quantum_bytes)


def saturate_pairs(
    sim,
    pairs,
    message_bytes,
    rng,
    qp_config_factory=None,
    dcqcn_config=None,
    start_filter=None,
):
    """Start a closed-loop saturating sender on each (src, dst) pair.

    ``start_filter(index, (src, dst))``, when given, gates which senders
    actually start; construction (QP wiring, RNG draws) always covers
    every pair, so a caller can configure the unstarted senders (bound
    their message count, say) before starting them itself.

    Returns the list of :class:`ClosedLoopSender` (unstarted ones report
    zero completed bytes).
    """
    senders = []
    for src, dst in pairs:
        config_a = qp_config_factory() if qp_config_factory else QpConfig()
        config_b = qp_config_factory() if qp_config_factory else QpConfig()
        qp_a, _qp_b = connect_qp_pair(src, dst, rng, config_a=config_a, config_b=config_b)
        if dcqcn_config is not None:
            enable_dcqcn(qp_a, dcqcn_config)
        sender = ClosedLoopSender(RdmaChannel(qp_a), message_bytes)
        senders.append(sender)
    for index, sender in enumerate(senders):
        if start_filter is None or start_filter(index, pairs[index]):
            sender.start()
    return senders
