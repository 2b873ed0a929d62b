"""Smoke tests for the replication benchmark (scaled way down)."""

import json

import pytest

import repro.bench.replication as bench
from repro.bench.__main__ import main


@pytest.fixture(autouse=True)
def _tiny(monkeypatch):
    monkeypatch.setattr(bench, "REPLICA_COUNTS", (0, 1))
    monkeypatch.setattr(bench, "READER_SESSIONS", 2)
    monkeypatch.setattr(bench, "FILES", 2)
    monkeypatch.setattr(bench, "CHUNKS_PER_FILE", 1)
    monkeypatch.setattr(bench, "LAG_WRITE_TXNS", 4)
    monkeypatch.setattr(bench, "LAG_SYNC_EVERY", 2)
    monkeypatch.setattr(bench, "PROMO_BACKLOG_TXNS", 2)


def test_read_scaling_rows():
    rows = bench.run_read_scaling()
    assert [r["replicas"] for r in rows] == [0, 1]
    for row in rows:
        assert row["reads"] == 2 * 2  # sessions × files, 1 chunk each
        assert row["reads_per_sec"] > 0
    # With one replica, every read was served by it, none by the primary.
    assert rows[0]["replica_reads"] == 0
    assert rows[1]["replica_reads"] > 0


def test_lag_samples_and_shipping_costs():
    lag = bench.run_lag()
    assert len(lag["samples"]) == 2
    assert lag["max_lag_xids"] >= 1   # syncs lag the writes by design
    assert lag["final_lag_xids"] == 0
    assert lag["bytes_shipped"] > 0
    assert lag["rounds"] >= len(lag["samples"])


def test_promotion_drains_the_backlog():
    promo = bench.run_promotion()
    assert promo["backlog_entries"] > 0
    assert promo["drained_entries"] == promo["backlog_entries"]
    assert promo["promotion_s"] > 0
    assert promo["promotions"] == 1


def test_main_writes_deterministic_json(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "REPLICA_COUNTS", (1, 4))
    out1 = tmp_path / "one.json"
    out2 = tmp_path / "two.json"
    assert main(["run", "replication", str(out1)]) == 0
    assert main(["run", "replication", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["scaling"]["speedup_4_over_1"] > 1.0
    assert "wrote" in capsys.readouterr().out
