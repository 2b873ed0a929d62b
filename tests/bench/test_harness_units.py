"""Harness drivers: config builders."""

import pytest

from repro.bench.harness import (
    BUILDERS,
    TABLE3_CONFIGS,
    build_inversion_sp,
    build_nfs,
    run_config,
)
from repro.bench.workload import Benchmark, BenchmarkSizes

TINY = BenchmarkSizes.scaled(0.01)


def test_builders_cover_table3_configs():
    assert set(TABLE3_CONFIGS) <= set(BUILDERS)


def test_run_config_full(tmp_path):
    results = run_config("nfs", sizes=TINY)
    assert set(results) == set(Benchmark.ALL_OPS)
    assert all(v >= 0 for v in results.values())


def test_builder_kwargs_reach_configuration():
    built = build_inversion_sp(buffer_pages=64)
    try:
        assert built.adapter.db.buffers.capacity == 64
    finally:
        built.close()
    built = build_nfs(prestoserve=False)
    try:
        assert built.name == "nfs_nopresto"
        assert built.adapter.prestoserve is None
    finally:
        built.close()


def test_inversion_adapter_prefers_chunk_io():
    from repro.core.constants import CHUNK_SIZE
    built = build_inversion_sp()
    try:
        assert built.adapter.preferred_io_size == CHUNK_SIZE
    finally:
        built.close()


def test_nfs_adapter_prefers_page_io():
    built = build_nfs()
    try:
        assert built.adapter.preferred_io_size == 8192
    finally:
        built.close()


def test_workload_reads_verify_content():
    """The read ops raise if the file system returns wrong bytes —
    guard the guard."""
    built = build_nfs()
    try:
        bench = Benchmark(built.adapter, TINY)
        bench.op_create()
        # Corrupt the stored data behind the adapter's back.
        ffs = built.adapter.ffs
        inode = ffs.lookup(Benchmark.FILE_NAME)
        block = inode.blocks[0]
        ffs._data[block] = bytes(len(ffs._data[block]))
        with pytest.raises(AssertionError):
            bench.op_read_single()
    finally:
        built.close()


def test_cli_scaled_run(capsys):
    from repro.bench.__main__ import main
    assert main(["fig3", "--scale", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out
    assert "scaled" in out
