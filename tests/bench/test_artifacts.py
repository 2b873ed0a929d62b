"""The gate for the committed full-size run, inside tier-1: a fresh Table
3 regenerates ``bench_table3_full.txt`` byte for byte and every claim of
the paper's table and figures holds — and the gate has teeth: a mutated
table turns its verdict red, a changed run reports drift, and checking
writes nothing under the repository."""

import copy

import pytest

from repro.bench import __main__ as cli
from repro.bench.__main__ import COMMITTED, main
from repro.bench.harness import run_all_configs
from repro.bench.report import OP_LABELS, table3_verdict
from repro.bench.workload import Benchmark

ROOT = COMMITTED.parent


@pytest.fixture(scope="module")
def fresh():
    """One full-size run (about 4 s), which every test here reads."""
    return run_all_configs()


@pytest.fixture
def rerun(monkeypatch, fresh):
    """Make the CLI's full-size run hand back ``fresh``, or ``edit`` of
    a copy of it."""
    def use(edit=lambda results: None):
        results = copy.deepcopy(fresh)
        edit(results)
        monkeypatch.setattr(cli, "run_all_configs", lambda: results)
    return use


def _stamp():
    stat = COMMITTED.stat()
    return stat.st_mtime_ns, stat.st_ino, stat.st_size


def test_committed_artifact_matches_a_fresh_run_and_is_green(rerun, capsys):
    rerun()
    before = _stamp()
    assert main(["check"]) == 0, capsys.readouterr().out
    assert capsys.readouterr().out.startswith(f"ok  {COMMITTED.name}")
    assert _stamp() == before, "check rewrote the committed file"


def _committed():
    """Table 3's cells parsed back out of the committed text (three
    decimals are plenty for a shape verdict)."""
    text = COMMITTED.read_text(encoding="utf-8")
    table = text.split("\n\n")[0].splitlines()
    doc = {"inversion_cs": {}, "nfs": {}, "inversion_sp": {}}
    for op in Benchmark.ALL_OPS:
        (row,) = [line for line in table if line.startswith(OP_LABELS[op])]
        for config, cell in zip(doc, row[len(OP_LABELS[op]):].split()):
            doc[config][op] = float(cell)
    return doc


#: edits of the committed table that its verdict must refuse: (config,
#: operation, sabotaged seconds, words of the claim that must turn red —
#: one edit may trip that claim's neighbours too).
SABOTAGE = [
    ("inversion_sp", "write_single", 3.0, "never slower than client/server"),
    ("nfs", "read_seq_pages", 0.5, "beats NFS on every 1 MB read"),
    ("nfs", "write_random_pages", 4.0,
     "wins random writes against single-process"),
    ("inversion_sp", "read_seq_pages", 0.9, "seven times better"),
    ("inversion_cs", "create", 400.0, "36% of the throughput"),
    ("nfs", "create", 300.0, "NFS creates at"),
    ("nfs", "read_byte", 0.1, "NFS wins single-byte"),
    ("inversion_cs", "read_byte", 0.09, "Btree block index"),
    ("inversion_cs", "write_byte", 0.6, "not seconds"),
    ("nfs", "read_random_pages", 7.0, "page-sized reads take 1.2x to 6x"),
    ("inversion_cs", "read_single", 4.0, "single large transfer"),
    ("inversion_cs", "read_random_pages", 4.0,
     "traversing the Btree page index"),
    ("inversion_cs", "read_seq_pages", 2.5, "three and five seconds"),
    ("nfs", "write_single", 2.2, "wins every 1 MB write"),
    ("nfs", "write_seq_pages", 1.0, "no degradation due to random accesses"),
    ("inversion_sp", "write_random_pages", 1.498, "pays for random writes"),
    ("inversion_sp", "create", 30.0, "commit a large number of writes"),
]


def test_every_artifact_is_sabotaged():
    """Every column of the committed table (the one artifact left) is
    edited by some row, and every row edits a cell the table has."""
    doc = _committed()
    assert {config for config, *_edit in SABOTAGE} == set(doc)
    for config, op, *_edit in SABOTAGE:
        assert op in doc[config], (config, op)


def test_every_table3_claim_is_sabotaged():
    """Each claim of the paper's table and figures is named by exactly
    one row (a table of NaNs holds no claim, so its verdict lists them
    all)."""
    every_claim = table3_verdict(dict.fromkeys(
        ("inversion_cs", "nfs", "inversion_sp"),
        dict.fromkeys(Benchmark.ALL_OPS, float("nan"))))
    named = [words for *_edit, words in SABOTAGE]
    assert len(every_claim) == len(named) == 17
    for claim in every_claim:
        assert sum(words in claim for words in named) == 1, claim


@pytest.mark.parametrize(
    "config,op,value,words", SABOTAGE,
    ids=[f"table3:{config}.{op}" for config, op, *_ in SABOTAGE])
def test_a_mutated_document_turns_the_verdict_red(config, op, value, words):
    doc = _committed()
    assert table3_verdict(doc) == []
    mutated = copy.deepcopy(doc)
    mutated[config][op] = value
    assert [claim for claim in table3_verdict(mutated) if words in claim], (
        words, table3_verdict(mutated))


def test_a_changed_workload_reports_drift(rerun, capsys):
    """A run one millisecond off in one cell: every claim still holds,
    and the check is red for the bytes alone."""
    rerun(lambda results: results["nfs"].update(
        create=results["nfs"]["create"] + 0.001))
    assert main(["check"]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"RED {COMMITTED.name}")
    assert out.count("\n      - ") == 1 and "differs from the committed" in out


def test_a_red_verdict_fails_the_check_even_when_bytes_match(
        rerun, monkeypatch, capsys):
    """What a byte compare alone lets through forever: the committed
    file and the fresh run agree, and both say something false."""
    rerun()
    monkeypatch.setattr(cli, "table3_verdict", lambda results: ["a claim"])
    assert main(["check"]) == 1
    out = capsys.readouterr().out
    assert "a claim" in out and "differs" not in out


def test_an_unknown_name_exits_2_before_running_anything(capsys):
    for argv in (["check", "seqio"], ["fig3", "out.txt"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "takes no OUT" in captured.err


def test_run_writes_the_committed_bytes_where_it_is_told(
        rerun, tmp_path, capsys):
    rerun()
    out = tmp_path / "table3.txt"
    before = _stamp()
    assert main(["run", str(out)]) == 0
    assert out.read_bytes() == COMMITTED.read_bytes()
    assert _stamp() == before
    assert f"wrote {out}" in capsys.readouterr().out


def test_no_test_file_lives_outside_a_gate():
    """Tier-1 collects ``tests/`` and CI enters ``benchmarks/e2e``; a
    ``test_*.py`` anywhere else is a claim nothing ever runs."""
    found = (path.relative_to(ROOT) for path in ROOT.rglob("test_*.py"))
    strays = [str(rel) for rel in found if rel.parts[0] != "tests"
              and rel.parts[:2] != ("benchmarks", "e2e")]
    assert strays == []
