"""``python -m repro.bench.report --tx-smoke``: the per-transaction
cost breakdown of a tiny client/server run, rendered with real rows."""

from repro.bench import report


def test_the_tx_smoke_renders_a_breakdown_with_client_cache_hits(capsys):
    assert report.main(["--tx-smoke"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    # What CI greps for.
    assert "Per-transaction cost breakdown" in out
    total = [line for line in lines if line.lstrip().startswith("total")]
    assert len(total) == 1
    assert "cc.hits" in out
    header = next(line for line in lines if line.lstrip().startswith("xid"))
    column = header.split().index("cc.hits")
    assert int(total[0].split()[column]) > 0
