"""Unit tests for the packet header models and the frame envelope."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.packets import (
    Aeth,
    ArpPacket,
    BaseTransportHeader,
    BthOpcode,
    Ipv4Header,
    Packet,
    PfcPauseFrame,
    PriorityMode,
    TcpHeader,
    UdpHeader,
    VlanTag,
    resolve_priority,
)
from repro.packets.packet import compile_priority_resolver
from repro.packets.ethernet import (
    ETH_FCS_BYTES,
    ETH_HEADER_BYTES,
    ETH_WIRE_OVERHEAD_BYTES,
    ETHERTYPE_MAC_CONTROL,
    VLAN_TAG_BYTES,
    mac_from_str,
    mac_to_str,
)
from repro.packets.ip import ECN_CE, ECN_ECT0, IPV4_HEADER_BYTES
from repro.packets.pause import ns_to_pause_quanta, pause_quanta_to_ns
from repro.packets.rocev2 import ICRC_BYTES, ROCEV2_UDP_PORT, psn_add, psn_distance
from repro.packets.udp import UDP_HEADER_BYTES
from repro.sim.units import gbps


def _rocev2_packet(payload=1024, vlan=None, dscp=3):
    ip = Ipv4Header(src=1, dst=2, dscp=dscp)
    udp = UdpHeader(src_port=50000, dst_port=ROCEV2_UDP_PORT)
    bth = BaseTransportHeader(opcode=BthOpcode.SEND_ONLY, dest_qp=5, psn=0)
    return Packet.rocev2(
        dst_mac=2, src_mac=1, ip=ip, udp=udp, bth=bth, payload_bytes=payload, vlan=vlan
    )


class TestMacHelpers:
    def test_round_trip(self):
        mac = 0x001122AABBCC
        assert mac_from_str(mac_to_str(mac)) == mac

    def test_render(self):
        assert mac_to_str(0xFFFFFFFFFFFF) == "ff:ff:ff:ff:ff:ff"

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            mac_from_str("00:11:22")


class TestVlanTag:
    def test_field_ranges(self):
        with pytest.raises(ValueError):
            VlanTag(pcp=8)
        with pytest.raises(ValueError):
            VlanTag(vid=4096)
        with pytest.raises(ValueError):
            VlanTag(dei=2)

    def test_priority_and_vid_are_coupled(self):
        # The crux of section 3: you cannot carry a PCP without a VID --
        # a tag always holds both and costs the frame all four bytes.
        tag = VlanTag(pcp=3)
        assert (tag.pcp, tag.vid) == (3, 0)
        untagged = _rocev2_packet()
        assert _rocev2_packet(vlan=tag).size_bytes == untagged.size_bytes + VLAN_TAG_BYTES


class TestEthernetFrame:
    def test_sizes(self):
        frame = _rocev2_packet(payload=100)
        assert frame.size_bytes == (
            ETH_HEADER_BYTES + IPV4_HEADER_BYTES + UDP_HEADER_BYTES + 12 + 100
            + ICRC_BYTES + ETH_FCS_BYTES
        )
        tagged = _rocev2_packet(payload=100, vlan=VlanTag())
        assert tagged.size_bytes == frame.size_bytes + 4
        assert frame.wire_bytes == frame.size_bytes + ETH_WIRE_OVERHEAD_BYTES == frame.size_bytes + 20


class TestIpv4Header:
    def test_ce_marking(self):
        header = Ipv4Header(src=1, dst=2, ecn=ECN_ECT0)
        assert header.ect_capable
        header.mark_ce()
        assert header.ecn == ECN_CE

    def test_dscp_range(self):
        with pytest.raises(ValueError):
            Ipv4Header(src=1, dst=2, dscp=64)

    def test_ip_id_is_16_bits(self):
        with pytest.raises(ValueError):
            Ipv4Header(src=1, dst=2, identification=0x10000)


class TestUdpHeader:
    def test_port_range(self):
        with pytest.raises(ValueError):
            UdpHeader(src_port=70000, dst_port=1)


class TestBth:
    def test_bth_is_12_bytes(self):
        frame = _rocev2_packet(payload=0)
        headers = ETH_HEADER_BYTES + IPV4_HEADER_BYTES + UDP_HEADER_BYTES
        assert frame.size_bytes - headers - ICRC_BYTES - ETH_FCS_BYTES == 12

    def test_psn_is_24_bits(self):
        with pytest.raises(ValueError):
            BaseTransportHeader(opcode=BthOpcode.SEND_ONLY, dest_qp=1, psn=1 << 24)

    def test_opcode_properties(self):
        assert BthOpcode.SEND_LAST.is_last_segment
        assert BthOpcode.RDMA_WRITE_ONLY.is_last_segment
        assert not BthOpcode.SEND_MIDDLE.is_last_segment
        assert not BthOpcode.ACKNOWLEDGE.is_data
        assert not BthOpcode.CNP.is_data
        assert BthOpcode.RDMA_READ_RESPONSE_MIDDLE.is_read_response

    def test_psn_arithmetic_wraps(self):
        assert psn_add(0xFFFFFF, 1) == 0
        assert psn_distance(0, 0xFFFFFF) == 1
        assert psn_distance(5, 2) == 3


class TestAeth:
    def test_ack_round_trip(self):
        aeth = Aeth(syndrome=0, msn=12345)
        assert not aeth.is_nak
        assert aeth.msn == 12345
        assert Aeth(syndrome=0, msn=(1 << 24) + 5).msn == 5  # MSN is 24 bits

    def test_nak_round_trip(self):
        aeth = Aeth(syndrome=0b011, msn=7)
        assert aeth.is_nak
        assert aeth.msn == 7
        with pytest.raises(ValueError):
            Aeth(syndrome=0b111)


def _class_enable_vector(frame):
    """The 802.1Qbb bitmap of the priorities a frame addresses."""
    return sum(1 << p for p, quanta in enumerate(frame.quanta) if quanta is not None)


class TestPfcPauseFrame:
    def test_pause_frame_has_no_vlan_tag(self):
        # Figure 3: "the PFC pause frames do not have a VLAN tag at all."
        packet = Packet.pfc_pause(dst_mac=1, src_mac=2, pause=PfcPauseFrame.pause([3]))
        assert packet.vlan is None
        assert packet.ethertype == ETHERTYPE_MAC_CONTROL

    def test_class_enable_vector(self):
        frame = PfcPauseFrame.pause([0, 3], quanta=100)
        assert _class_enable_vector(frame) == 0b1001
        assert frame.paused_priorities == [0, 3]

    def test_resume_is_zero_quanta(self):
        frame = PfcPauseFrame.resume([3])
        assert frame.resumed_priorities == [3]
        assert frame.paused_priorities == []
        assert _class_enable_vector(frame) == 0b1000

    def test_body_padded_to_ethernet_minimum(self):
        assert PfcPauseFrame.pause([0]).size_bytes == 46

    def test_quanta_duration_conversion(self):
        # One quantum = 512 bit-times; at 40 Gb/s that's 12.8 ns.
        assert pause_quanta_to_ns(1000, gbps(40)) == 12_800
        assert ns_to_pause_quanta(12_800, gbps(40)) == 1000

    def test_quanta_clamped_to_16_bits(self):
        assert ns_to_pause_quanta(10**12, gbps(40)) == 0xFFFF

    def test_invalid_priority_rejected(self):
        with pytest.raises(ValueError):
            PfcPauseFrame({8: 1})


class TestArp:
    def test_request_reply_round_trip(self):
        request = ArpPacket.request(sender_mac=0xAA, sender_ip=1, target_ip=2)
        assert request.is_request
        assert (request.target_mac, request.target_ip) == (0, 2)
        reply = ArpPacket.reply(
            sender_mac=0xBB, sender_ip=request.target_ip,
            target_mac=request.sender_mac, target_ip=request.sender_ip,
        )
        assert not reply.is_request
        assert (reply.sender_mac, reply.target_mac, reply.target_ip) == (0xBB, 0xAA, 1)
        assert reply.size_bytes == request.size_bytes == 28

    def test_op_must_be_request_or_reply(self):
        with pytest.raises(ValueError):
            ArpPacket(3, 0xAA, 1, 0, 2)


class TestTcpHeader:
    def test_flags(self):
        from repro.packets.tcp import FLAG_ACK, FLAG_SYN

        header = TcpHeader(src_port=1, dst_port=2, flags=FLAG_SYN | FLAG_ACK)
        assert header.flags & FLAG_SYN and header.flags & FLAG_ACK


class TestPacketEnvelope:
    def test_paper_frame_size(self):
        # Section 5.4: "The RDMA frame size is 1086 bytes with 1024 bytes as
        # payload": 14 (Eth) + 20 (IP) + 8 (UDP) + 12 (BTH) + 1024 + 4
        # (ICRC) + 4 (FCS) = 1086.
        packet = _rocev2_packet(payload=1024)
        assert packet.size_bytes == 1086

    def test_rocev2_requires_port_4791(self):
        ip = Ipv4Header(src=1, dst=2)
        udp = UdpHeader(src_port=50000, dst_port=4792)
        bth = BaseTransportHeader(opcode=BthOpcode.SEND_ONLY, dest_qp=5, psn=0)
        with pytest.raises(ValueError):
            Packet.rocev2(dst_mac=2, src_mac=1, ip=ip, udp=udp, bth=bth)

    def test_five_tuple_udp(self):
        packet = _rocev2_packet()
        assert packet.five_tuple == (1, 2, 17, 50000, 4791)

    def test_five_tuple_tcp(self):
        packet = Packet.tcp_segment(
            dst_mac=2,
            src_mac=1,
            ip=Ipv4Header(src=3, dst=4, protocol=6),
            tcp=TcpHeader(src_port=999, dst_port=80),
        )
        assert packet.five_tuple == (3, 4, 6, 999, 80)

    def test_uids_are_unique(self):
        first = _rocev2_packet()
        second = _rocev2_packet()
        assert first.uid != second.uid

    def test_vlan_mode_priority(self):
        packet = _rocev2_packet(vlan=VlanTag(pcp=3, vid=10))
        assert resolve_priority(packet, PriorityMode.VLAN) == 3

    def test_vlan_mode_untagged_falls_back(self):
        packet = _rocev2_packet(vlan=None)
        assert resolve_priority(packet, PriorityMode.VLAN, default_priority=0) == 0

    def test_dscp_mode_identity_map(self):
        packet = _rocev2_packet(dscp=3)
        assert resolve_priority(packet, PriorityMode.DSCP) == 3

    def test_dscp_mode_explicit_map(self):
        packet = _rocev2_packet(dscp=46)
        mapping = {46: 5}
        assert resolve_priority(packet, PriorityMode.DSCP, dscp_to_priority=mapping) == 5
        assert resolve_priority(packet, PriorityMode.DSCP, dscp_to_priority={}, default_priority=1) == 1

    def test_pause_has_no_priority(self):
        packet = Packet.pfc_pause(dst_mac=1, src_mac=2, pause=PfcPauseFrame.pause([3]))
        with pytest.raises(ValueError):
            resolve_priority(packet, PriorityMode.DSCP)

    def test_same_stream_priority_differs_by_mode(self):
        # Section 3's point: identical packet, different classification
        # depending on whether the fabric reads PCP or DSCP.
        packet = _rocev2_packet(vlan=VlanTag(pcp=5, vid=9), dscp=3)
        assert resolve_priority(packet, PriorityMode.VLAN) == 5
        assert resolve_priority(packet, PriorityMode.DSCP) == 3

    def test_arp_packet_priority_defaults(self):
        packet = Packet.arp_packet(
            dst_mac=0xFFFFFFFFFFFF, src_mac=1, arp=ArpPacket.request(1, 1, 2)
        )
        assert resolve_priority(packet, PriorityMode.DSCP, default_priority=0) == 0


# compile_priority_resolver is what every switch and NIC classifies
# with; resolve_priority is its readable reference.
_data_packets = st.one_of(
    st.builds(
        lambda dscp, tag: _rocev2_packet(dscp=dscp, vlan=tag),
        st.integers(0, 63),
        st.none() | st.builds(VlanTag, pcp=st.integers(0, 7), vid=st.integers(0, 4095)),
    ),
    st.builds(
        lambda dscp: Packet.tcp_segment(
            dst_mac=2, src_mac=1, ip=Ipv4Header(src=3, dst=4, protocol=6, dscp=dscp),
            tcp=TcpHeader(src_port=999, dst_port=80),
        ),
        st.integers(0, 63),
    ),
    st.just(Packet.arp_packet(dst_mac=0xFFFFFFFFFFFF, src_mac=1, arp=ArpPacket.request(1, 1, 2))),
)


@given(
    packet=_data_packets,
    mode=st.sampled_from(list(PriorityMode)),
    table=st.none() | st.dictionaries(st.integers(0, 63), st.integers(0, 7), max_size=8),
    default=st.integers(0, 7),
)
def test_compiled_resolver_matches_resolve_priority(packet, mode, table, default):
    compiled = compile_priority_resolver(mode, dscp_to_priority=table, default_priority=default)
    assert compiled(packet) == resolve_priority(
        packet, mode, dscp_to_priority=table, default_priority=default
    )
