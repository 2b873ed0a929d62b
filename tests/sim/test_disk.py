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



# -- a foreground read on a busy drive: a queue of requests ------------------

TRANSFER = BLOCK_SIZE / RZ58.transfer_rate_bps
FAR = 100_000                      # a block no queued request holds


def positioning(disk, head, block):
    """Seek plus rotation from ``head`` to ``block``, as the model
    costs it."""
    return (disk._seek_time(head // RZ58.blocks_per_cylinder,
                            block // RZ58.blocks_per_cylinder)
            + RZ58.avg_rotational_delay_s)


def three_queued_writes(disk):
    """Three one-block writes at 500, 9000 and 20000, queued at t=0;
    returns when each request ends."""
    ends = []
    with queued([disk]):
        for block in (500, 9000, 20000):
            disk.write_block(block)
            ends.append(disk.busy_until)
    return ends


def test_a_read_during_a_queued_section_waits_only_for_the_request_in_flight(
        disk):
    ends = three_queued_writes(disk)
    cost = disk.read_block(FAR)
    assert cost == positioning(disk, 500, FAR) + TRANSFER
    assert disk.clock.now() == pytest.approx(ends[0] + cost, abs=1e-15)
    assert disk.clock.now() < disk.busy_until
    assert disk.stats.reads_ahead == 1


def test_a_read_of_a_block_with_an_unfinished_queued_write_waits_for_it(disk):
    ends = three_queued_writes(disk)
    cost = disk.read_block(9000)             # written by the second request
    assert cost == RZ58.avg_rotational_delay_s + TRANSFER   # head on 9000
    assert disk.clock.now() == pytest.approx(ends[1] + cost, abs=1e-15)
    assert disk.clock.now() < disk.busy_until
    cost = disk.read_block(20000)            # the last request's block
    assert disk.clock.now() == pytest.approx(disk.busy_until + cost,
                                             abs=1e-15)
    # the queue emptied: the head is where the read left it
    assert disk.read_block(20001) == TRANSFER


def test_a_read_arriving_during_a_forced_write_also_waits_for_its_barrier(
        disk):
    with queued([disk]):
        disk.write_block(500)
        disk.flush()                         # forces the write: one command
        forced = disk.busy_until
        disk.write_block(9000)
    cost = disk.read_block(FAR)
    assert disk.clock.now() == pytest.approx(forced + cost, abs=1e-15)


def test_the_requests_behind_a_read_move_back_by_its_cost_and_repositioning(
        disk):
    ends = three_queued_writes(disk)
    queued_before = disk.stats.queued_seconds
    cost = disk.read_block(FAR)
    # the next request now starts from the read's block, not from 500
    shift = cost + (positioning(disk, FAR, 9000)
                    - positioning(disk, 500, 9000))
    assert disk.busy_until == pytest.approx(ends[2] + shift, abs=1e-15)
    assert disk.stats.deferred_seconds == pytest.approx(shift, abs=1e-15)
    assert disk.stats.queued_seconds == pytest.approx(
        queued_before + shift - cost, abs=1e-15)
    drain([disk])
    assert disk.clock.now() == pytest.approx(ends[2] + shift, abs=1e-15)
    # the drive was busy the whole time: foreground read plus the queue
    assert disk.stats.busy_seconds == pytest.approx(disk.clock.now(),
                                                    abs=1e-15)
    assert disk.stats.busy_seconds == pytest.approx(
        cost + disk.stats.queued_seconds, abs=1e-15)
    assert (disk.stats.seeks, disk.stats.reads) == (4, 1)
    assert disk.write_block(20001) == TRANSFER   # the head: queue's last


@pytest.mark.parametrize("charge", ["write", "flush"])
def test_a_foreground_write_or_barrier_still_drains_everything(disk, charge):
    ends = three_queued_writes(disk)
    cost = disk.write_block(FAR) if charge == "write" else disk.flush()
    assert disk.clock.now() == pytest.approx(ends[2] + cost, abs=1e-15)
    assert disk.stats.reads_ahead == 0
    assert disk.stats.deferred_seconds == 0.0
