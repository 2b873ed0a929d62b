"""Disk cost model: sequential vs seek behaviour."""

import pytest

from repro.sim.clock import SimClock
from repro.sim.disk import (BLOCK_SIZE, RZ58, DiskGeometry, DiskModel, drain,
                            queued)


@pytest.fixture
def disk():
    return DiskModel(clock=SimClock())


def test_sequential_access_costs_transfer_only(disk):
    disk.read_block(100)  # positioning access
    cost = disk.read_block(101)
    assert cost == pytest.approx(BLOCK_SIZE / RZ58.transfer_rate_bps)
    assert disk.stats.sequential_ops == 1


def test_random_access_costs_seek_and_rotation(disk):
    disk.read_block(100)
    far = disk.read_block(100 + RZ58.blocks_per_cylinder * 500)
    assert far > RZ58.avg_rotational_delay_s
    assert disk.stats.seeks >= 1


def test_same_cylinder_access_skips_seek(disk):
    disk.read_block(100)
    cost = disk.read_block(110)  # same cylinder (64 blocks/cyl), not adjacent
    expected = RZ58.avg_rotational_delay_s + BLOCK_SIZE / RZ58.transfer_rate_bps
    assert cost == pytest.approx(expected)


def test_seek_grows_with_distance(disk):
    disk.read_block(0)
    near = disk.read_block(RZ58.blocks_per_cylinder * 10)
    disk.reset_head()
    disk.read_block(0)
    far = disk.read_block(RZ58.blocks_per_cylinder * 5000)
    assert far > near


def test_seek_time_bounded_by_geometry(disk):
    g = disk.geometry
    full = disk._seek_time(0, g.total_cylinders - 1)
    assert g.min_seek_s * 0.5 <= full <= g.max_seek_s * 1.1


def test_clock_advances_with_io():
    clock = SimClock()
    disk = DiskModel(clock=clock)
    disk.write_block(0)
    assert clock.now() > 0


def test_stats_track_bytes(disk):
    disk.write_block(0, 4096)
    disk.read_block(1, 8192)
    assert disk.stats.bytes_written == 4096
    assert disk.stats.bytes_read == 8192
    assert disk.stats.reads == 1 and disk.stats.writes == 1


def test_flush_charges_settle_time(disk):
    before = disk.clock.now()
    disk.flush()
    assert disk.clock.now() > before


def test_write_sequence_after_reset_head_pays_seek(disk):
    disk.write_block(500)
    disk.reset_head()
    cost = disk.write_block(501)
    assert cost > BLOCK_SIZE / RZ58.transfer_rate_bps


def test_multiblock_transfer_advances_head():
    disk = DiskModel(clock=SimClock())
    disk.write_block(100, 4 * BLOCK_SIZE)  # occupies blocks 100-103
    cost = disk.write_block(104)
    assert cost == pytest.approx(BLOCK_SIZE / RZ58.transfer_rate_bps)


def test_custom_geometry():
    slow = DiskGeometry(name="floppy", capacity_bytes=2_000_000, rpm=300,
                        min_seek_s=0.05, avg_seek_s=0.1, max_seek_s=0.2,
                        transfer_rate_bps=50_000)
    disk = DiskModel(clock=SimClock(), geometry=slow)
    cost = disk.read_block(0)
    assert cost > 0.05  # dominated by rotation at 300 rpm


# -- queued sections: writes the drive finishes behind the clock -------------

SETTLE = RZ58.rotation_s / 4.0


def test_a_queued_write_advances_nothing(disk):
    """Costed as in the foreground — positioning, transfer, the flush
    barrier, every counter — but added after ``busy_until``, with the
    clock left where it was."""
    disk.clock.advance(1.0)
    with queued([disk]):
        cost = disk.write_block(500, 2 * BLOCK_SIZE)
        assert disk.flush() == SETTLE
    assert cost == (disk._seek_time(0, 500 // RZ58.blocks_per_cylinder)
                    + RZ58.avg_rotational_delay_s
                    + 2 * BLOCK_SIZE / RZ58.transfer_rate_bps)
    assert disk.clock.now() == 1.0
    assert disk.busy_until == 1.0 + cost + SETTLE
    assert disk.stats.busy_seconds == cost + SETTLE
    assert disk.stats.queued_seconds == cost + SETTLE
    assert (disk.stats.writes, disk.stats.seeks) == (1, 1)


def test_the_next_foreground_read_waits_then_positions_from_the_queued_head(
        disk):
    with queued([disk]):
        disk.write_block(500, 2 * BLOCK_SIZE)      # the head ends on 501
    busy = disk.busy_until
    disk.clock.advance(0.25 * busy)               # computing meanwhile
    cost = disk.read_block(502)
    assert cost == BLOCK_SIZE / RZ58.transfer_rate_bps   # sequential
    assert disk.clock.now() == pytest.approx(busy + cost, abs=1e-15)
    assert disk.stats.queued_seconds == busy


def test_a_queued_charge_starts_when_the_drive_or_the_clock_is_free(disk):
    with queued([disk]):
        first = disk.write_block(500)
    disk.clock.advance(10.0)                      # the drive went idle
    with queued([disk]):
        second = disk.write_block(501)
    assert second == BLOCK_SIZE / RZ58.transfer_rate_bps
    assert disk.busy_until == 10.0 + second
    drain([disk])
    assert disk.clock.now() == pytest.approx(10.0 + second, abs=1e-15)
    drain([disk])                                 # idle: nothing to wait
    assert disk.clock.now() == pytest.approx(10.0 + second, abs=1e-15)
    assert disk.stats.queued_seconds == first + second


def test_a_section_drains_first_so_one_flush_is_in_flight(disk):
    with queued([disk]):
        disk.write_block(500)
    busy = disk.busy_until
    with queued([disk]):
        assert disk.clock.now() == busy
        cost = disk.write_block(9000)
    assert disk.busy_until == busy + cost

