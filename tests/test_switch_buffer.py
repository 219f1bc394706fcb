"""Unit tests for the shared-buffer manager and headroom sizing."""

import pytest

from repro.sim.units import KB, MB, gbps
from repro.switch.buffer import BufferConfig, SharedBuffer, headroom_bytes


def make_buffer(alpha=1.0 / 16, total=12 * MB, **kwargs):
    config = BufferConfig(total_bytes=total, alpha=alpha, **kwargs)
    return SharedBuffer(config, n_ports=8, lossless_priorities=(3,))


class TestHeadroom:
    def test_grows_with_cable_length(self):
        short = headroom_bytes(gbps(40), cable_meters=2)
        long = headroom_bytes(gbps(40), cable_meters=300)
        assert long > short
        # 300 m adds 2 x 1490 ns of flight time = 14900 B at 40 Gb/s.
        assert long - short == 14900

    def test_grows_with_rate(self):
        assert headroom_bytes(gbps(100), 300) > headroom_bytes(gbps(40), 300)

    def test_paper_two_lossless_classes_fit_shallow_buffer(self):
        # Section 2: with 300 m cables and a 9 MB ToR buffer, only two
        # lossless classes can get per-port headroom on a 32-port switch.
        per_pg = headroom_bytes(gbps(40), cable_meters=300)
        n_ports = 32
        total = 9 * MB
        shared_floor = 4 * MB  # need most of the buffer for actual queueing

        def fits(n_classes):
            return n_ports * n_classes * per_pg <= total - shared_floor

        assert fits(2)
        assert not fits(8)


class TestStaticThreshold:
    def test_admit_below_threshold(self):
        buf = make_buffer(alpha=None, xoff_static_bytes=96 * KB)
        assert buf.admit(0, 3, 50 * KB, lossless=True)
        assert buf.occupancy(0, 3) == 50 * KB

    def test_lossy_drop_over_threshold(self):
        buf = make_buffer(alpha=None, xoff_static_bytes=96 * KB)
        assert buf.admit(0, 0, 96 * KB, lossless=False)
        assert not buf.admit(0, 0, 10 * KB, lossless=False)
        assert buf.occupancy(0, 0) == 96 * KB  # the refused bytes took no space

    def test_lossless_spills_into_headroom(self):
        buf = make_buffer(alpha=None, xoff_static_bytes=96 * KB, headroom_per_pg_bytes=26 * KB)
        assert buf.admit(0, 3, 96 * KB, lossless=True)
        assert buf.admit(0, 3, 20 * KB, lossless=True)  # headroom
        state = buf.pg(0, 3)
        assert state.headroom_used == 20 * KB

    def test_headroom_exhaustion_drops(self):
        buf = make_buffer(alpha=None, xoff_static_bytes=96 * KB, headroom_per_pg_bytes=26 * KB)
        buf.admit(0, 3, 96 * KB, lossless=True)
        buf.admit(0, 3, 26 * KB, lossless=True)  # fills headroom exactly
        assert not buf.admit(0, 3, 4 * KB, lossless=True)
        assert buf.pg(0, 3).headroom_used == 26 * KB  # the refused bytes took no space

    def test_release_drains_headroom_first(self):
        buf = make_buffer(alpha=None, xoff_static_bytes=96 * KB)
        buf.admit(0, 3, 96 * KB, lossless=True)
        buf.admit(0, 3, 10 * KB, lossless=True)
        buf.release(0, 3, 12 * KB)
        state = buf.pg(0, 3)
        assert state.headroom_used == 0
        assert buf.occupancy(0, 3) == 94 * KB

    def test_release_underflow_raises(self):
        buf = make_buffer()
        buf.admit(0, 3, KB, lossless=True)
        with pytest.raises(RuntimeError, match=r"underflow at pg\(0, 3\): 2048 > 1024"):
            buf.release(0, 3, 2 * KB)
        # The state-taking body the switch calls names the PG too.
        with pytest.raises(RuntimeError, match=r"underflow at pg\(5, 0\)"):
            buf.release_state(buf.pg(5, 0), 1)


class TestDynamicThreshold:
    def test_threshold_shrinks_as_buffer_fills(self):
        buf = make_buffer(alpha=1.0 / 16)
        t0 = buf.threshold()
        for port in range(8):
            assert buf.admit(port, 0, 256 * KB, lossless=False)
        assert buf.threshold() < t0

    def test_alpha_64_pauses_far_earlier_than_alpha_16(self):
        # The section 6.2 incident: the new switch model shipped with
        # alpha = 1/64 instead of 1/16, so pauses fired ~4x earlier.
        buf16 = make_buffer(alpha=1.0 / 16)
        buf64 = make_buffer(alpha=1.0 / 64)
        ratio = buf16.threshold() / buf64.threshold()
        assert ratio == pytest.approx(4.0, rel=0.01)

    def test_should_pause_above_dynamic_threshold(self):
        buf = make_buffer(alpha=1.0 / 64)
        # Fill the PG packet by packet until it crosses the (moving)
        # dynamic threshold; the crossing packet lands in headroom.
        for _ in range(1000):
            assert buf.admit(0, 3, 1 * KB, lossless=True)
            if buf.should_pause(0, 3):
                break
        assert buf.should_pause(0, 3)
        assert buf.pg(0, 3).headroom_used > 0

    def test_pause_resume_hysteresis(self):
        buf = make_buffer(alpha=None, xoff_static_bytes=96 * KB, xon_delta_bytes=4 * KB)
        buf.admit(0, 3, 96 * KB, lossless=True)  # shared occupancy: 94 KB
        buf.admit(0, 3, 6 * KB, lossless=True)  # crosses XOFF -> headroom
        assert buf.should_pause(0, 3)
        buf.pg(0, 3).paused = True
        assert not buf.should_pause(0, 3)  # already paused
        buf.release(0, 3, 6 * KB)  # headroom drained; 94 KB > XON (92 KB)
        assert not buf.should_resume(0, 3)
        buf.release(0, 3, 4 * KB)  # 90 KB <= 92 KB -> resume
        assert buf.should_resume(0, 3)

    def test_headroom_usage_forces_pause(self):
        buf = make_buffer(alpha=None, xoff_static_bytes=96 * KB)
        buf.admit(0, 3, 96 * KB, lossless=True)
        buf.admit(0, 3, 5 * KB, lossless=True)  # into headroom
        assert buf.should_pause(0, 3)
        buf.pg(0, 3).paused = True
        assert not buf.should_resume(0, 3)  # headroom still occupied

    def test_pgs_are_isolated(self):
        buf = make_buffer(alpha=None, xoff_static_bytes=96 * KB)
        buf.admit(0, 3, 96 * KB, lossless=True)
        buf.admit(0, 3, 6 * KB, lossless=True)
        assert buf.should_pause(0, 3)
        assert not buf.should_pause(1, 3)
        assert buf.occupancy(1, 3) == 0

    def test_shared_in_use_tracks_admission_and_release(self):
        buf = make_buffer(guaranteed_per_pg_bytes=0)
        buf.admit(0, 3, 10 * KB, lossless=True)
        buf.admit(1, 3, 5 * KB, lossless=True)
        assert buf.shared_in_use == 15 * KB
        buf.release(0, 3, 10 * KB)
        assert buf.shared_in_use == 5 * KB
        assert buf.peak_shared_in_use == 15 * KB

    def test_guaranteed_bytes_do_not_draw_from_shared_pool(self):
        buf = make_buffer(guaranteed_per_pg_bytes=2 * KB)
        buf.admit(0, 3, 1 * KB, lossless=True)
        assert buf.shared_in_use == 0
        buf.admit(0, 3, 3 * KB, lossless=True)
        assert buf.shared_in_use == 2 * KB


class TestConfigValidation:
    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError):
            BufferConfig(alpha=0)

    def test_nonpositive_total_rejected(self):
        with pytest.raises(ValueError):
            BufferConfig(total_bytes=0)

    def test_headroom_cannot_eat_whole_buffer(self):
        config = BufferConfig(total_bytes=1 * MB, headroom_per_pg_bytes=1 * MB)
        with pytest.raises(ValueError):
            SharedBuffer(config, n_ports=8, lossless_priorities=(3, 4))


class TestPgRange:
    """A buffer has ``n_ports x 8`` PGs and no others: the index-taking
    entry points refuse the rest instead of fabricating state (a PG for
    a port the switch does not have) or aliasing it (a negative index
    reading the last row)."""

    CALLS = {
        "pg": lambda buf, port, priority: buf.pg(port, priority),
        "admit": lambda buf, port, priority: buf.admit(port, priority, 1000, True),
        "release": lambda buf, port, priority: buf.release(port, priority, 0),
        "evaluate_pause": lambda buf, port, priority: buf.evaluate_pause(port, priority),
        "occupancy": lambda buf, port, priority: buf.occupancy(port, priority),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("port, priority", [(4, 3), (9, 3), (-1, 3), (0, 8), (0, 11), (0, -1)])
    def test_out_of_range_refused(self, name, port, priority):
        buf = SharedBuffer(BufferConfig(), n_ports=4)
        with pytest.raises(ValueError, match=r"no PG \(%d, %d\) in a 4-port buffer" % (port, priority)):
            self.CALLS[name](buf, port, priority)
        assert buf.total_occupancy == 0

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("port, priority", [(0, 0), (3, 7)])
    def test_corners_accepted(self, name, port, priority):
        buf = SharedBuffer(BufferConfig(), n_ports=4)
        self.CALLS[name](buf, port, priority)

    def test_iter_pgs_covers_exactly_the_rows(self):
        buf = SharedBuffer(BufferConfig(), n_ports=4)
        buf.admit(2, 5, 700, False)
        seen = {(port, priority): state for port, priority, state in buf.iter_pgs()}
        assert sorted(seen) == [(port, priority) for port in range(4) for priority in range(8)]
        assert seen[(2, 5)] is buf.pg(2, 5)
        assert [key for key, state in seen.items() if state.occupancy] == [(2, 5)]
