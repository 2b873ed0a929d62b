"""Rule-driven file migration across the storage hierarchy."""

import pytest

from repro.core.migration import MigrationEngine
from repro.errors import MigrationError


@pytest.fixture
def tiered(fs, client):
    fs.db.add_device("juke0", "jukebox")
    fs.db.add_device("tape0", "tape")
    return fs, client, MigrationEngine(fs)


def _put(client, path, data, owner="root"):
    fd = client.p_creat(path, owner=owner)
    client.p_write(fd, data)
    client.p_close(fd)


def test_rule_validation(tiered):
    fs, _client, engine = tiered
    with pytest.raises(MigrationError):
        engine.add_rule("bad", "size(file) > 0", "nonexistent-device")


def test_size_rule_moves_large_files(tiered):
    fs, client, engine = tiered
    _put(client, "/big.dat", b"x" * 50_000)
    _put(client, "/small.dat", b"y" * 100)
    engine.add_rule("archive-big", "size(file) > 10000", "juke0")
    tx = fs.begin()
    reports = engine.run(tx)
    fs.commit(tx)
    assert reports[0].moved == ["/big.dat"]
    assert engine.device_of(fs.resolve("/big.dat")) == "juke0"
    assert engine.device_of(fs.resolve("/small.dat")) == "magnetic0"


def test_data_and_history_survive_migration(tiered, clock):
    fs, client, engine = tiered
    _put(client, "/f", b"version-one" * 100)
    t0 = clock.now()
    from repro.core.constants import O_RDWR
    fd = client.p_open("/f", O_RDWR)
    client.p_write(fd, b"VERSION-TWO")
    client.p_close(fd)
    engine.add_rule("r", 'size(file) > 0', "juke0")
    tx = fs.begin()
    engine.run(tx)
    fs.commit(tx)
    assert fs.read_file("/f")[:11] == b"VERSION-TWO"
    # Time travel works across devices: history moved with the table.
    assert fs.read_file("/f", timestamp=t0) == b"version-one" * 100


def test_owner_rule(tiered):
    fs, client, engine = tiered
    _put(client, "/mao1", b"d" * 10, owner="mao")
    _put(client, "/root1", b"d" * 10, owner="root")
    engine.add_rule("evict-mao", 'owner(file) = "mao"', "tape0")
    tx = fs.begin()
    reports = engine.run(tx)
    fs.commit(tx)
    assert reports[0].moved == ["/mao1"]
    assert engine.device_of(fs.resolve("/mao1")) == "tape0"


def test_priority_order_first_match_wins(tiered):
    fs, client, engine = tiered
    _put(client, "/f", b"z" * 20_000)
    engine.add_rule("low", "size(file) > 0", "tape0", priority=1)
    engine.add_rule("high", "size(file) > 10000", "juke0", priority=9)
    tx = fs.begin()
    reports = engine.run(tx)
    fs.commit(tx)
    by_name = {r.rule: r for r in reports}
    assert by_name["high"].moved == ["/f"]
    assert by_name["low"].moved == []
    assert engine.device_of(fs.resolve("/f")) == "juke0"


def test_already_placed_files_skipped(tiered):
    fs, client, engine = tiered
    _put(client, "/f", b"x" * 1000)
    engine.add_rule("r", "size(file) > 0", "juke0")
    tx = fs.begin()
    engine.run(tx)
    fs.commit(tx)
    tx2 = fs.begin()
    reports = engine.run(tx2)
    fs.commit(tx2)
    assert reports[0].moved == []
    assert reports[0].skipped == ["/f"]


def test_aborted_migration_leaves_file_in_place(tiered):
    fs, client, engine = tiered
    _put(client, "/f", b"x" * 1000)
    engine.add_rule("r", "size(file) > 0", "juke0")
    tx = fs.begin()
    engine.run(tx)
    fs.abort(tx)
    assert engine.device_of(fs.resolve("/f")) == "magnetic0"
    assert fs.read_file("/f") == b"x" * 1000


def test_rules_survive_restart(tmp_path):
    """Rules are 'declared to the database manager': a fresh session
    sees and enforces them."""
    from repro.core.filesystem import InversionFS
    from repro.core.library import InversionClient
    from repro.db.database import Database
    db = Database.create(str(tmp_path / "d"))
    db.add_device("juke0", "jukebox")
    fs = InversionFS.mkfs(db)
    MigrationEngine(fs).add_rule("persisted", "size(file) > 100", "juke0")
    db.simulate_crash()

    db2 = Database.open(str(tmp_path / "d"))
    fs2 = InversionFS.attach(db2)
    engine = MigrationEngine(fs2)
    assert [r.name for r in engine.rules] == ["persisted"]
    client = InversionClient(fs2)
    _put(client, "/late.dat", b"y" * 500)
    tx = fs2.begin()
    reports = engine.run(tx)
    fs2.commit(tx)
    assert reports[0].moved == ["/late.dat"]
    db2.close()


def test_drop_rule(tiered):
    fs, _client, engine = tiered
    engine.add_rule("temp", "size(file) > 0", "juke0")
    assert engine.drop_rule("temp")
    assert not engine.drop_rule("temp")
    assert engine.rules == []


def test_bad_qualification_rejected_at_declaration(tiered):
    fs, _client, engine = tiered
    with pytest.raises(Exception):
        engine.add_rule("broken", "size(file >", "juke0")
    assert engine.rules == []


def test_directories_never_migrate(tiered):
    fs, client, engine = tiered
    client.p_mkdir("/dir")
    engine.add_rule("r", "size(file) >= 0", "juke0")
    tx = fs.begin()
    reports = engine.run(tx)
    fs.commit(tx)
    assert "/dir" not in reports[0].moved


def test_migrated_source_copy_waits_for_its_groups_force(tmp_path):
    """The move releases the source relations at commit — which, under
    a group-commit window, means once the group's force returned.  A
    crash before it recovers the catalog rows naming the source device,
    so the source copies must still be there."""
    from repro.core.filesystem import InversionFS
    from repro.core.library import InversionClient
    from repro.db.database import Database
    path = str(tmp_path / "d")
    db = Database.create(path)
    db.add_device("magnetic1", "magnetic")
    fs = InversionFS.mkfs(db)
    engine = MigrationEngine(fs)
    engine.add_rule("spill", "size(file) > 100", "magnetic1")
    _put(InversionClient(fs), "/big", b"z" * 20_000)
    db.tm.group_commit_window = 60.0
    tx = fs.begin()
    assert engine.run(tx)[0].moved == ["/big"]
    fs.commit(tx)
    assert engine.device_of(fs.resolve("/big")) == "magnetic1"
    db.simulate_crash()                   # before the group's force

    db2 = Database.open(path)
    fs2 = InversionFS.attach(db2)
    assert MigrationEngine(fs2).device_of(fs2.resolve("/big")) == "magnetic0"
    assert fs2.read_file("/big") == b"z" * 20_000
    db2.close()


@pytest.fixture
def two_disks(fs, client):
    fs.db.add_device("magnetic1", "magnetic")
    return fs, client, MigrationEngine(fs)


def test_file_migrated_away_and_back_inside_one_group(two_disks):
    """The second move finds the first one's source copy still on
    magnetic0, its drop queued behind the open group's force: the move
    closes the group (releasing it) before copying back."""
    from repro.core.chunks import chunk_table_name
    fs, client, engine = two_disks
    _put(client, "/f", b"r" * 20_000)
    fileid = fs.resolve("/f")
    fs.db.tm.group_commit_window = 60.0
    for device in ("magnetic1", "magnetic0"):
        tx = fs.begin()
        engine.move_file(tx, fileid, device)
        fs.commit(tx)
    assert engine.device_of(fileid) == "magnetic0"
    assert fs.read_file("/f") == b"r" * 20_000
    fs.db.tm.flush_commits()
    assert not fs.db.switch.get("magnetic1").relation_exists(
        chunk_table_name(fileid))


def test_migration_retried_after_an_abort(two_disks):
    """An aborted move leaves its copies on magnetic1.  The committed
    catalog row names the relation, but places it on magnetic0, so it
    must not protect those copies: the retry reclaims them."""
    fs, client, engine = two_disks
    _put(client, "/f", b"a" * 20_000)
    fileid = fs.resolve("/f")
    tx = fs.begin()
    engine.move_file(tx, fileid, "magnetic1")
    fs.abort(tx)
    tx = fs.begin()
    engine.move_file(tx, fileid, "magnetic1")
    fs.commit(tx)
    assert engine.device_of(fileid) == "magnetic1"
    assert fs.read_file("/f") == b"a" * 20_000
