"""The one gate for every committed artifact, run inside tier-1: each of
Table 3 and the seven ``BENCH_*.json`` regenerates byte-identical to
the committed file and its verdict is green — and the gate has teeth:
a mutated document turns its verdict red, a changed workload reports
drift, and checking writes nothing under the repository."""

import copy
import json

import pytest

from repro.bench import cachedio
from repro.bench.__main__ import main
from repro.bench.artifacts import ARTIFACTS, ROOT
from repro.bench.report import OP_LABELS, table3_verdict
from repro.bench.workload import Benchmark


def _stamp(name):
    stat = (ROOT / ARTIFACTS[name].path).stat()
    return stat.st_mtime_ns, stat.st_ino, stat.st_size


@pytest.mark.parametrize("name", ARTIFACTS)
def test_committed_artifact_matches_a_fresh_run_and_is_green(name, capsys):
    before = _stamp(name)
    assert main(["check", name]) == 0, capsys.readouterr().out
    assert capsys.readouterr().out.startswith(f"ok  {name}")
    assert _stamp(name) == before, "check rewrote the committed file"


def _committed(name):
    """The committed document: the JSON, or Table 3's cells parsed back
    out of the text (three decimals are plenty for a shape verdict)."""
    text = (ROOT / ARTIFACTS[name].path).read_text(encoding="utf-8")
    if name != "table3":
        return json.loads(text)
    table = text.split("\n\n")[0].splitlines()
    doc = {"inversion_cs": {}, "nfs": {}, "inversion_sp": {}}
    for op in Benchmark.ALL_OPS:
        (row,) = [line for line in table if line.startswith(OP_LABELS[op])]
        for config, cell in zip(doc, row[len(OP_LABELS[op]):].split()):
            doc[config][op] = float(cell)
    return doc


def _set(doc, path, value):
    *parents, leaf = path
    for key in parents:
        doc = doc[key]
    doc[leaf] = value


#: edits of a committed document that its verdict must refuse: (path
#: into the document, sabotaged value, words of the claim that must
#: turn red — one edit may trip that claim's neighbours too).
SABOTAGE = [
    ("table3", ("inversion_sp", "write_single"), 3.0,
     "never slower than client/server"),
    ("table3", ("nfs", "read_seq_pages"), 0.5,
     "beats NFS on every 1 MB read"),
    ("table3", ("nfs", "write_random_pages"), 4.0,
     "wins random writes against single-process"),
    ("table3", ("inversion_sp", "read_seq_pages"), 0.9,
     "seven times better"),
    ("table3", ("inversion_cs", "create"), 400.0,
     "36% of the throughput"),
    ("table3", ("nfs", "create"), 300.0, "NFS creates at"),
    ("table3", ("nfs", "read_byte"), 0.1, "NFS wins single-byte"),
    ("table3", ("inversion_cs", "read_byte"), 0.09, "Btree block index"),
    ("table3", ("inversion_cs", "write_byte"), 0.6, "not seconds"),
    ("table3", ("nfs", "read_random_pages"), 7.0,
     "page-sized reads take 1.2x to 6x"),
    ("table3", ("inversion_cs", "read_single"), 4.0,
     "single large transfer"),
    ("table3", ("inversion_cs", "read_random_pages"), 4.0,
     "traversing the Btree page index"),
    ("table3", ("inversion_cs", "read_seq_pages"), 2.5,
     "three and five seconds"),
    ("table3", ("nfs", "write_single"), 2.2, "wins every 1 MB write"),
    ("table3", ("nfs", "write_seq_pages"), 1.0,
     "no degradation due to random accesses"),
    ("table3", ("inversion_sp", "write_random_pages"), 1.498,
     "pays for random writes"),
    ("table3", ("inversion_sp", "create"), 30.0,
     "commit a large number of writes"),
    ("seqio", ("speedup",), 1.9, "at least twice as fast"),
    ("seqio", ("sp", "single_transfer", "chunk_index_descents"), 128,
     "one index descent"),
    ("commitio", ("group_commit", "after", "status_forces"), 2,
     "one forced append"),
    ("commitio", ("writeback", "after", "device_writes"), 9,
     "in ≤ 8 device writes"),
    ("commitio", ("group_commit", "after", "device_writes"), 3,
     "one sweep and one force"),
    ("multiuser", ("disjoint", 3, "txns_per_sec"), 30.0,
     "slower than PR 21's committed rate"),
    ("multiuser", ("hot", 3, "txns_per_sec"), 15.0,
     "at most half of disjoint throughput"),
    ("multiuser", ("disjoint", 2, "commits_per_force"), 3.5,
     "at least one commit per client"),
    ("multiuser", ("disjoint", 1, "status_forces"), 9,
     "at most one force per round"),
    ("multiuser", ("hot", 3, "fairness", "starved"), True,
     "nobody starves"),
    ("multishard", ("disjoint", 0, "sched", "starved"), True,
     "no session is starved"),
    ("multishard", ("scaling", "speedups_over_one_shard", "8"), 6.4,
     "at least 6.5x"),
    ("multishard", ("disjoint", 1, "routing", "cross_shard_messages"), 1,
     "zero cross-shard messages"),
    ("multishard", ("twophase", "routing", "prepares"), 511,
     "2 prepares + 1 decision"),
    ("multishard", ("twophase", "sched", "retries"), 1,
     "no transaction is retried"),
    ("cachedio", ("hot", "hot_messages"), 1, "not one message crosses"),
    ("cachedio", ("deep_tree", "speedup"), 2.9, "at least 3x faster cached"),
    ("replication", ("lag", "final_lag_xids"), 1, "zero xids behind"),
    ("replication", ("scaling", "speedup_4_over_1"), 2.9,
     "at least 3x the reads"),
    ("replication", ("promotion", "drained_entries"), 79,
     "drains every backlog entry"),
    ("vfsio", ("structural", "reflink", "chunks_materialized"), 1,
     "materializes none"),
    ("vfsio", ("namespace", "paged", "max_reply_names"), 129,
     "within the page size"),
]


def test_every_artifact_is_sabotaged():
    assert {name for name, *_edit in SABOTAGE} == set(ARTIFACTS)


def test_every_table3_claim_is_sabotaged():
    """Each claim of the paper's table and figures is named by exactly
    one row (a table of NaNs holds no claim, so its verdict lists them
    all)."""
    every_claim = table3_verdict(dict.fromkeys(
        ("inversion_cs", "nfs", "inversion_sp"),
        dict.fromkeys(Benchmark.ALL_OPS, float("nan"))))
    named = [words for name, _p, _v, words in SABOTAGE if name == "table3"]
    assert len(every_claim) == len(named) == 17
    for claim in every_claim:
        assert sum(words in claim for words in named) == 1, claim


@pytest.mark.parametrize(
    "name,path,value,words", SABOTAGE,
    ids=[f"{name}:{'.'.join(map(str, path))}" for name, path, *_ in SABOTAGE])
def test_a_mutated_document_turns_the_verdict_red(name, path, value, words):
    doc = _committed(name)
    verdict = ARTIFACTS[name].verdict
    assert verdict(doc) == []
    mutated = copy.deepcopy(doc)
    _set(mutated, path, value)
    assert [claim for claim in verdict(mutated) if words in claim], (
        words, verdict(mutated))


def test_a_changed_workload_reports_drift(monkeypatch, capsys):
    monkeypatch.setattr(cachedio, "HOT_PASSES", cachedio.HOT_PASSES + 1)
    assert main(["check", "cachedio"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("RED cachedio") and "differs from the committed" in out


def test_a_red_verdict_fails_the_check_even_when_bytes_match(
        monkeypatch, capsys):
    """What a byte compare alone lets through forever: the committed
    file and the fresh run agree, and both say something false."""
    lying = ARTIFACTS["cachedio"]._replace(verdict=lambda doc: ["a claim"])
    monkeypatch.setitem(ARTIFACTS, "cachedio", lying)
    assert main(["check", "cachedio"]) == 1
    out = capsys.readouterr().out
    assert "a claim" in out and "differs" not in out


def test_an_unknown_name_exits_2_before_running_anything(capsys):
    assert main(["check", "seqio", "hotpath"]) == 2
    assert main(["run", "hotpath"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unknown artifact hotpath" in captured.err


def test_run_writes_the_committed_bytes_where_it_is_told(tmp_path, capsys):
    out = tmp_path / "seqio.json"
    before = _stamp("seqio")
    assert main(["run", "seqio", str(out)]) == 0
    assert out.read_bytes() == (ROOT / "BENCH_seqio.json").read_bytes()
    assert _stamp("seqio") == before
    assert f"wrote {out}" in capsys.readouterr().out


def test_no_test_file_lives_outside_a_gate():
    """Tier-1 collects ``tests/`` and CI enters ``benchmarks/e2e``; a
    ``test_*.py`` anywhere else is a claim nothing ever runs."""
    found = (path.relative_to(ROOT) for path in ROOT.rglob("test_*.py"))
    strays = [str(rel) for rel in found if rel.parts[0] != "tests"
              and rel.parts[:2] != ("benchmarks", "e2e")]
    assert strays == []
