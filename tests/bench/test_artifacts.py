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
from repro.bench.report import OP_LABELS
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


#: per artifact, one edit of the committed document its verdict must
#: refuse: (path into the document, sabotaged value).
SABOTAGE = [
    ("table3", ("inversion_sp", "write_single"), 3.0),   # slower than c/s
    ("table3", ("nfs", "read_seq_pages"), 0.5),           # NFS wins a read
    ("table3", ("nfs", "write_random_pages"), 4.0),       # …loses its one
    ("seqio", ("speedup",), 1.9),
    ("seqio", ("sp", "single_transfer", "chunk_index_descents"), 128),
    ("commitio", ("group_commit", "after", "status_forces"), 2),
    ("commitio", ("writeback", "write_op_ratio"), 1.5),
    ("multiuser", ("scaling", "speedup_8_over_1"), 1.84),
    ("multiuser", ("hot", 3, "fairness", "starved"), True),
    ("multishard", ("disjoint", 0, "sched", "starved"), True),
    ("multishard", ("scaling", "speedups_over_one_shard", "8"), 6.4),
    ("multishard", ("disjoint", 1, "routing", "cross_shard_messages"), 1),
    ("multishard", ("twophase", "routing", "prepares"), 511),
    ("multishard", ("twophase", "sched", "retries"), 1),
    ("cachedio", ("hot", "hot_messages"), 1),
    ("cachedio", ("deep_tree", "speedup"), 2.9),
    ("replication", ("lag", "final_lag_xids"), 1),
    ("replication", ("scaling", "speedup_4_over_1"), 2.9),
    ("replication", ("promotion", "drained_entries"), 79),
    ("vfsio", ("structural", "reflink", "chunks_materialized"), 1),
    ("vfsio", ("namespace", "paged", "max_reply_names"), 129),
]


def test_every_artifact_is_sabotaged():
    assert {name for name, _path, _value in SABOTAGE} == set(ARTIFACTS)


@pytest.mark.parametrize(
    "name,path,value", SABOTAGE,
    ids=[f"{name}:{'.'.join(map(str, path))}" for name, path, _v in SABOTAGE])
def test_a_mutated_document_turns_the_verdict_red(name, path, value):
    doc = _committed(name)
    verdict = ARTIFACTS[name].verdict
    assert verdict(doc) == []
    mutated = copy.deepcopy(doc)
    _set(mutated, path, value)
    assert len(verdict(mutated)) == 1, verdict(mutated)


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
