"""METRICS.md generation and drift checking (`python -m repro.obs`),
and the link checker CI runs beside it."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import __main__ as obs_cli
from repro.obs import docs


def test_committed_docs_match_code():
    """The acceptance gate CI runs: the checked-in METRICS.md must be
    exactly what the specs render."""
    assert docs.check_docs() == []


def test_catalog_is_unique_and_well_owned():
    specs = docs.catalog()
    names = [s.name for s in specs]
    assert len(names) == len(set(names))
    for s in specs:
        assert s.module in docs.OWNING_MODULES


def test_every_live_registry_metric_is_documented(tmp_path):
    """METRICS.md covers every migrated counter: anything a real
    session registers (including client/server RPC families) has a
    documented spec."""
    from repro.core.client import RemoteInversionClient
    from repro.core.filesystem import InversionFS
    from repro.core.server import InversionServer
    from repro.db.database import Database
    from repro.sim.clock import SimClock
    from repro.sim.network import NetworkModel

    clock = SimClock()
    db = Database.create(str(tmp_path / "d"), clock=clock)
    fs = InversionFS.mkfs(db)
    client = RemoteInversionClient(InversionServer(fs), NetworkModel(clock))
    fd = client.p_creat("/f")
    client.p_write(fd, b"hello")
    client.p_close(fd)
    live = set(db.obs.metrics.names())
    db.close()
    documented = {s.name for s in docs.catalog()}
    assert live <= documented, f"undocumented: {sorted(live - documented)}"


def test_check_docs_missing_file(tmp_path):
    problems = docs.check_docs(str(tmp_path / "METRICS.md"))
    assert problems and "missing" in problems[0]


def test_check_docs_reports_first_difference(tmp_path):
    path = str(tmp_path / "METRICS.md")
    docs.write_docs(path)
    assert docs.check_docs(path) == []
    text = open(path, encoding="utf-8").read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace("disk.reads", "disk.readz", 1))
    problems = docs.check_docs(path)
    assert "stale" in problems[0]
    assert any("disk.readz" in p for p in problems)


def test_cli_write_then_check(tmp_path, capsys):
    path = str(tmp_path / "METRICS.md")
    assert obs_cli.main(["--write-docs", "--path", path]) == 0
    assert obs_cli.main(["--check-docs", "--path", path]) == 0
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("drift\n")
    assert obs_cli.main(["--check-docs", "--path", path]) == 1


def test_cli_requires_a_mode():
    with pytest.raises(SystemExit):
        obs_cli.main([])


def test_link_checker_lists_a_deleted_tracked_file(tmp_path):
    """``tools/check_doc_links.py`` over a checkout whose index names a
    markdown file the working tree no longer has: the file is listed
    as dead and the tool exits 1 — it used to die in ``open``."""
    tool = Path(__file__).parents[2] / "tools" / "check_doc_links.py"
    (tmp_path / "tools").mkdir()
    shutil.copy(tool, tmp_path / "tools")
    (tmp_path / "KEPT.md").write_text("see [gone](GONE.md)\n")
    (tmp_path / "GONE.md").write_text("# gone\n")

    def git(*argv):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *argv], cwd=tmp_path, check=True, capture_output=True)
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "docs")
    (tmp_path / "GONE.md").unlink()
    run = subprocess.run([sys.executable, "tools/check_doc_links.py"],
                         cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode == 1, run.stderr
    assert "Traceback" not in run.stderr
    assert "GONE.md: tracked, but missing" in run.stdout
    assert "KEPT.md:1: dead link -> GONE.md" in run.stdout


def test_link_checker_holds_a_test_name_to_its_file(tmp_path):
    """A backticked ``tests/…py::name`` in README.md must name a
    ``def`` or ``class`` of that file; a ``[param]`` suffix and a
    ``Class::method`` path are read as pytest prints them."""
    tool = Path(__file__).parents[2] / "tools" / "check_doc_links.py"
    (tmp_path / "tools").mkdir()
    shutil.copy(tool, tmp_path / "tools")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_x.py").write_text(
        "class TestK:\n    def test_m(self):\n        pass\n\n\n"
        "def test_there(n):\n    pass\n")
    (tmp_path / "README.md").write_text(
        "`tests/test_x.py::test_there[1]` and "
        "`tests/test_x.py::TestK::test_m` hold;\n"
        "`tests/test_x.py::test_gone` does not.\n")
    run = subprocess.run([sys.executable, "tools/check_doc_links.py",
                          "README.md"],
                         cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode == 1, run.stdout
    assert run.stdout.splitlines()[0] == (
        "README.md:2: no def or class -> tests/test_x.py::test_gone")
    assert "1 dead" in run.stderr


def test_link_checker_refuses_a_deleted_experiments_bench_command(tmp_path):
    """A backticked ``python -m repro.bench`` command that names a
    feature experiment ``repro.bench`` no longer has is refused, even
    broken over two lines (``run NAME`` would write a file called NAME);
    the paper's commands and a quotation of the old text pass."""
    tool = Path(__file__).parents[2] / "tools" / "check_doc_links.py"
    (tmp_path / "tools").mkdir()
    shutil.copy(tool, tmp_path / "tools")
    (tmp_path / "NOTES.md").write_text(
        "Run `python -m repro.bench check` or `python -m repro.bench\n"
        "table3`.\n"
        "It said \"regenerate with `python -m repro.bench run seqio`\".\n"
        "Regenerate with `python -m repro.bench\n"
        "run multishard`.\n")
    run = subprocess.run([sys.executable, "tools/check_doc_links.py",
                          "NOTES.md"],
                         cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode == 1, run.stdout
    assert run.stdout.splitlines()[0] == (
        "NOTES.md:4: `python -m repro.bench run multishard` names a "
        "deleted experiment (multishard)")
    assert "1 dead" in run.stderr
