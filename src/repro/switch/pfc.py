"""PFC configuration and the per-PG pause signalling state machine.

The switch asserts pause toward an upstream neighbour when an ingress PG
crosses XOFF, keeps refreshing the pause while the PG stays congested (a
pause frame only lasts its quanta, so real switches re-send before
expiry), and sends an explicit zero-quanta XON when the PG drains below
the XON threshold -- exactly the mechanism of the paper's figure 2.
"""

from repro.packets.packet import Packet, PriorityMode
from repro.packets.pause import MAX_QUANTA, PfcPauseFrame, pause_quanta_to_ns
from repro.sim.timer import Timer
from repro.obs import TELEMETRY as _TELEMETRY
from repro.obs import TRACE as _TRACE


class PfcConfig:
    """PFC / priority classification config shared by switches and NICs.

    ``priority_mode``
        :attr:`PriorityMode.DSCP` (the paper's contribution) or
        :attr:`PriorityMode.VLAN` (the original design).
    ``lossless_priorities``
        Which priorities are PFC-protected.  The paper uses two: "one
        lossless class for real-time traffic and the other for bulk data
        transfer"; TCP rides a third, lossy class.
    ``pause_quanta``
        Duration encoded in emitted pause frames.  Refresh happens at
        half this duration while congestion persists.
    """

    __slots__ = (
        "priority_mode",
        "lossless_priorities",
        "dscp_to_priority",
        "default_priority",
        "pause_quanta",
        "enabled",
        "vlan_pcp_preserved_across_l3",
    )

    def __init__(
        self,
        priority_mode=PriorityMode.DSCP,
        lossless_priorities=(3, 4),
        dscp_to_priority=None,
        default_priority=0,
        pause_quanta=MAX_QUANTA,
        enabled=True,
        vlan_pcp_preserved_across_l3=False,
    ):
        self.priority_mode = priority_mode
        self.lossless_priorities = frozenset(lossless_priorities)
        self.dscp_to_priority = dscp_to_priority
        self.default_priority = default_priority
        self.pause_quanta = pause_quanta
        self.enabled = enabled
        # Section 3: "in a layer-3 network, there is no standard way to
        # preserve the VLAN PCP value when crossing subnet boundaries."
        # Under VLAN mode with this False (the realistic default), the tag
        # is not regenerated after an L3 hop, so the packet loses its
        # priority -- and with it, PFC protection.
        self.vlan_pcp_preserved_across_l3 = vlan_pcp_preserved_across_l3

    def is_lossless(self, priority):
        return self.enabled and priority in self.lossless_priorities

    def copy(self, **overrides):
        """A modified copy (configuration-management experiments diff
        desired vs running configs)."""
        values = {
            "priority_mode": self.priority_mode,
            "lossless_priorities": self.lossless_priorities,
            "dscp_to_priority": self.dscp_to_priority,
            "default_priority": self.default_priority,
            "pause_quanta": self.pause_quanta,
            "enabled": self.enabled,
            "vlan_pcp_preserved_across_l3": self.vlan_pcp_preserved_across_l3,
        }
        values.update(overrides)
        return PfcConfig(**values)


class PauseSignaler:
    """Drives pause/resume frames for one ingress (port, priority) PG.

    Owned by the switch; consults the shared buffer's decisions and emits
    control frames out of the *ingress* port (back toward the sender).
    """

    __slots__ = (
        "sim",
        "switch",
        "port",
        "priority",
        "_refresh",
        "_buffer",
        "_state",
        "pauses_sent",
        "resumes_sent",
    )

    def __init__(self, sim, switch, port, priority):
        self.sim = sim
        self.switch = switch
        self.port = port
        self.priority = priority
        self._refresh = Timer(
            sim, self._on_refresh, name="%s.pfc%d" % (port.name, priority)
        )
        # A switch builds its buffer once (``finalize()``) and PG state
        # lives as long as the buffer, so both are bound here.
        self._buffer = switch.buffer
        self._state = switch.buffer.pg(port.index, priority)
        self.pauses_sent = 0
        self.resumes_sent = 0

    @property
    def pg_state(self):
        """This PG's :class:`~repro.switch.buffer.PgState` (read-only
        view for observers)."""
        return self._state

    def evaluate(self):
        """Re-check buffer state; assert or release pause as needed."""
        # The switch asks ``evaluate_pause_state`` itself after every
        # admit and release and calls here only on a non-zero answer;
        # the decision is pure, so asking again is safe.
        state = self._state
        action = self._buffer.evaluate_pause_state(state)
        if action > 0:
            state.paused = True
            self._buffer.paused_pgs += 1
            self._send_pause()
        elif action < 0:
            self._release()

    def _release(self):
        """Stop asserting pause: XON upstream, no more refreshes."""
        self._state.paused = False
        self._buffer.paused_pgs -= 1
        self._refresh.cancel()
        self._send_resume()

    def _send_pause(self):
        quanta = self.switch.pfc_config.pause_quanta
        frame = PfcPauseFrame({self.priority: quanta})
        if _TRACE.enabled:
            _TRACE.session.on_switch_pause_emit(self, frame)
        self._emit(frame)
        self.pauses_sent += 1
        if _TELEMETRY.enabled:
            _TELEMETRY.session.on_pfc_pause(self.switch)
        if self.port.link is not None:
            duration = pause_quanta_to_ns(quanta, self.port.link.rate_bps)
            self._refresh.start(max(1, duration // 2))

    def _send_resume(self):
        frame = PfcPauseFrame.resume([self.priority])
        if _TRACE.enabled:
            _TRACE.session.on_switch_resume_emit(self, frame)
        self._emit(frame)
        self.resumes_sent += 1
        if _TELEMETRY.enabled:
            _TELEMETRY.session.on_pfc_resume(self.switch)

    def _emit(self, frame):
        if self.port.link is None:
            return
        packet = Packet.pfc_pause(
            dst_mac=0x0180C2000001,  # 802.1Qbb destination group address
            src_mac=self.switch.mac_for_port(self.port),
            pause=frame,
            created_ns=self.sim.now,
        )
        self.port.enqueue_control(packet)

    def _on_refresh(self):
        """Pause about to expire upstream; re-send while still congested."""
        if not self._state.paused:
            return
        if self.switch.pfc_config.is_lossless(self.priority):
            self._send_pause()
        else:
            # A live config push (a rollout rolling back, section 6.1)
            # took this priority out of the lossless set while the PG
            # was asserting.  No admit will evaluate it again, so keep
            # refreshing and the upstream stays paused for good -- a
            # section 4.3 storm made of a config change.  Let go now.
            self._release()

    def stop(self):
        """Stop refreshing (watchdog disabled lossless on this port)."""
        self._refresh.cancel()
        state = self._state
        if state.paused:
            state.paused = False
            self._buffer.paused_pgs -= 1
