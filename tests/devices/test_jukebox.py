"""Sony WORM optical jukebox: staging cache, platter loads, WORM rule."""

import pytest

from repro.db.page import PAGE_SIZE
from repro.devices.jukebox import JukeboxParams, SonyJukebox, _Platter
from repro.errors import DeviceError, WormViolationError
from repro.sim.clock import SimClock


def page_of(byte: int) -> bytes:
    return bytes([byte]) * PAGE_SIZE


@pytest.fixture
def juke():
    return SonyJukebox("j0", SimClock())


def test_write_lands_in_staging_cheaply(juke):
    juke.create_relation("r")
    p = juke.extend("r")
    before = juke.clock.now()
    juke.write_page("r", p, page_of(1))
    # Staging write: magnetic cost, far below a platter load.
    assert juke.clock.now() - before < 1.0
    assert juke.stats.burns == 0


def test_read_hits_staging(juke):
    juke.create_relation("r")
    p = juke.extend("r")
    juke.write_page("r", p, page_of(9))
    assert juke.read_page("r", p) == page_of(9)
    assert juke.stats.staging_hits >= 1
    assert juke.stats.platter_loads == 0


def test_flush_burns_to_platter(juke):
    juke.create_relation("r")
    p = juke.extend("r")
    juke.write_page("r", p, page_of(3))
    juke.flush()
    assert juke.stats.burns == 1
    assert juke.revision_count("r", p) == 1


def test_platter_load_cost_on_cold_read():
    params = JukeboxParams(staging_cache_bytes=2 * PAGE_SIZE)
    juke = SonyJukebox("j0", SimClock(), params)
    juke.create_relation("r")
    pages = [juke.extend("r") for _ in range(4)]
    for i, p in enumerate(pages):
        juke.write_page("r", p, page_of(i))
    juke.flush()
    # Evict everything from staging by filling it with other pages.
    juke.create_relation("other")
    for i in range(4):
        q = juke.extend("other")
        juke.write_page("other", q, page_of(100 + i))
    before = juke.clock.now()
    juke._loaded.clear()  # force an unloaded platter
    data = juke.read_page("r", pages[0])
    assert data == page_of(0)
    assert juke.clock.now() - before >= params.platter_load_s


def test_rewrite_burns_fresh_block(juke):
    """WORM revision chains: rewriting a logical page burns a new
    physical block, never overwrites ([QUIN91]-style)."""
    juke.create_relation("r")
    p = juke.extend("r")
    juke.write_page("r", p, page_of(1))
    juke.flush()
    juke.write_page("r", p, page_of(2))
    juke.flush()
    assert juke.revision_count("r", p) == 2
    assert juke.read_page("r", p) == page_of(2)


def test_raw_platter_overwrite_refused():
    platter = _Platter(0, 100)
    platter.burn(5, b"x")
    with pytest.raises(WormViolationError):
        platter.burn(5, b"y")
    assert platter.read(5) == b"x"


def test_unburned_block_read_rejected():
    platter = _Platter(0, 100)
    with pytest.raises(DeviceError):
        platter.read(3)


def test_staging_eviction_burns_dirty_pages():
    params = JukeboxParams(staging_cache_bytes=3 * PAGE_SIZE)
    juke = SonyJukebox("j0", SimClock(), params)
    juke.create_relation("r")
    for i in range(10):
        p = juke.extend("r")
        juke.write_page("r", p, page_of(i))
    assert juke.stats.burns >= 7
    # Every page still readable (from staging or platter).
    for i in range(10):
        assert juke.read_page("r", i) == page_of(i)


def test_extent_allocation_contiguity(juke):
    juke.create_relation("r")
    for i in range(juke.params.extent_pages + 2):
        p = juke.extend("r")
        juke.write_page("r", p, page_of(i % 250))
    juke.flush()
    chains = juke._rels["r"].where  # page -> burned (platter, block)s
    first_extent_blocks = {chains[p][-1][1]
                           for p in range(juke.params.extent_pages)}
    assert len(first_extent_blocks) == juke.params.extent_pages
    assert max(first_extent_blocks) - min(first_extent_blocks) \
        == juke.params.extent_pages - 1


def test_drop_relation_orphans_worm_blocks(juke):
    juke.create_relation("r")
    p = juke.extend("r")
    juke.write_page("r", p, page_of(1))
    juke.flush()
    juke.drop_relation("r")
    assert not juke.relation_exists("r")


def test_meta_storage(juke):
    juke.sync_write_meta("t", b"abc")
    assert juke.read_meta("t") == b"abc"
