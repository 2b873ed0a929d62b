"""The multi-shard scale experiment (BENCH_multishard.json).

The single-server scheduler experiment (:mod:`repro.bench.multiuser`)
shows N clients sharing one data manager; this one partitions the
namespace across 1/2/4/8 independent Inversion servers
(:mod:`repro.shard`) and drives the same per-client work through the
sharded client.  Each shard runs on its own simulated clock, so the
cluster's elapsed time is the *slowest shard's* — disjoint subtrees do
their work in parallel simulated time, and throughput scales with the
shard count until imbalance or coordination bites.

Two configurations:

- **disjoint** — ``clients`` sessions, client ``c`` homed on shard
  ``c % nshards``, each committing ``txns`` overwrite transactions to
  its own pre-created file under that shard's subtree.  Every commit
  is strictly local; the verdict requires that the cluster sent
  **zero cross-shard messages** — partitioning must cost nothing when
  the workload respects it.
- **twophase** (at 2 shards) — each client's transactions overwrite
  one file on each of two shards, so every commit runs the full 2PC
  round: prepares, the coordinator's decision force, phase-two
  resolves.  The interesting outputs are messages and forces per
  transaction — the price of crossing the partition.

Everything runs under the seeded :class:`~repro.shard.ShardedScheduler`
and simulated clocks, so the JSON is byte-identical across runs;
:func:`verdict` holds the scaling floors and the 2PC protocol counts.

Regenerate with ``python -m repro.bench run multishard``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile

from repro.core.constants import O_RDWR
from repro.sched.scheduler import Call, Ref, Txn
from repro.shard import ShardedCluster, ShardedScheduler

#: shard counts swept by the scaling curve.
SHARD_COUNTS = (1, 2, 4, 8)

#: concurrent client sessions (the paper-scale question: what does a
#: building full of users do to one server — and to eight).
CLIENTS = 64

#: committing transactions per client.
TXNS_PER_CLIENT = 4

#: bytes overwritten per transaction.
WRITE_BYTES = 6000

SCHED_SEED = 0


def _payload(tag: str, size: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < size:
        out += hashlib.sha256(f"multishard:{tag}:{counter}".encode()).digest()
        counter += 1
    return bytes(out[:size])


def _overwrite(path: str, tag: str, base: int) -> list[Call]:
    """open → write → close at ordinals base..base+2."""
    return [Call("p_open", path, O_RDWR),
            Call("p_write", Ref(base), _payload(tag, WRITE_BYTES)),
            Call("p_close", Ref(base))]


def _build(nshards: int, clients: int, twophase: bool):
    workdir = tempfile.mkdtemp(prefix="inversion-multishard-")
    assignments = {f"s{k}": k for k in range(nshards)}
    cluster = ShardedCluster.create(os.path.join(workdir, "cluster"),
                                    nshards, policy="subtree",
                                    assignments=assignments)
    setup = cluster.client()
    for k in range(nshards):
        setup.p_mkdir(f"/s{k}")
    for c in range(clients):
        home = c % nshards
        fd = setup.p_creat(f"/s{home}/f{c}")
        setup.p_write(fd, _payload(f"seed{c}", WRITE_BYTES))
        setup.p_close(fd)
        if twophase:
            away = (c + 1) % nshards
            fd = setup.p_creat(f"/s{away}/g{c}")
            setup.p_write(fd, _payload(f"away{c}", WRITE_BYTES))
            setup.p_close(fd)
    setup.close()
    cluster.flush_caches()

    def cleanup() -> None:
        cluster.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return cluster, cleanup


def _program(c: int, nshards: int, txns: int, twophase: bool) -> list[Txn]:
    home = c % nshards
    program = []
    ordinal = 0
    for t in range(txns):
        items = _overwrite(f"/s{home}/f{c}", f"c{c}t{t}", ordinal)
        ordinal += 3
        if twophase:
            away = (c + 1) % nshards
            items += _overwrite(f"/s{away}/g{c}", f"x{c}t{t}", ordinal)
            ordinal += 3
        program.append(Txn(items, tag=f"c{c}t{t}"))
    return program


def run_shards(nshards: int, clients: int = CLIENTS,
               txns: int = TXNS_PER_CLIENT,
               twophase: bool = False) -> dict:
    """One configuration: ``clients`` sessions over ``nshards`` shards.
    Cluster elapsed time is the maximum over per-shard clocks — the
    slowest shard defines the run."""
    cluster, cleanup = _build(nshards, clients, twophase)
    try:
        sched = ShardedScheduler(cluster, seed=SCHED_SEED)
        try:
            for c in range(clients):
                sched.add_session(_program(c, nshards, txns, twophase),
                                  name=f"c{c}", home=c % nshards)
            forces0 = sum(db.tm.stats.status_forces for db in cluster.dbs)
            writes0 = sum(db.switch.get(db.switch.default_name).disk
                          .stats.writes for db in cluster.dbs)
            starts = [db.clock.now() for db in cluster.dbs]
            fairness = sched.run()
            elapsed = cluster.elapsed_max(starts)
            trace_hash = sched.trace_hash()
        finally:
            sched.close()
        ntxns = clients * txns
        stats = cluster.stats
        forces = sum(db.tm.stats.status_forces for db in cluster.dbs) \
            - forces0
        writes = sum(db.switch.get(db.switch.default_name).disk
                     .stats.writes for db in cluster.dbs) - writes0
        return {
            "shards": nshards,
            "clients": clients,
            "transactions": ntxns,
            "elapsed_s": elapsed,
            "txns_per_sec": ntxns / elapsed,
            "status_forces": forces,
            "device_writes": writes,
            "trace_hash": trace_hash,
            "routing": {
                "routed_ops": stats.routed_ops,
                "single_shard_txns": stats.single_shard_txns,
                "cross_shard_txns": stats.cross_shard_txns,
                "cross_shard_messages": stats.cross_shard_messages,
                "messages_per_txn": stats.cross_shard_messages / ntxns,
                "prepares": stats.prepares,
                "decisions": stats.decisions,
            },
            "sched": {
                "slices": sched.stats.slices,
                "context_switches": sched.stats.context_switches,
                "lock_parks": sched.stats.lock_parks,
                "retries": sched.stats.retries,
                "max_ready_wait_s": fairness["max_ready_wait_s"],
                "starved": fairness["starved"],
            },
        }
    finally:
        cleanup()


def run_multishard(shard_counts=SHARD_COUNTS, clients: int = CLIENTS,
                   txns: int = TXNS_PER_CLIENT) -> dict:
    """The full experiment: the disjoint scaling curve over
    ``shard_counts``, plus the 2PC cost profile at two shards (when the
    sweep includes multi-shard configurations)."""
    disjoint = [run_shards(n, clients, txns) for n in shard_counts]
    base = disjoint[0]["txns_per_sec"]
    result = {
        "experiment": ("multi-shard scale: throughput vs shard count for "
                       "subtree-partitioned clients, plus the 2PC price "
                       "of crossing the partition; deterministic "
                       "per-shard clocks"),
        "clients": clients,
        "txns_per_client": txns,
        "sched_seed": SCHED_SEED,
        "disjoint": disjoint,
        "scaling": {
            "txns_per_sec_by_shards": {
                str(r["shards"]): r["txns_per_sec"] for r in disjoint},
            "speedups_over_one_shard": {
                str(r["shards"]): r["txns_per_sec"] / base
                for r in disjoint},
        },
    }
    if any(n >= 2 for n in shard_counts):
        result["twophase"] = run_shards(2, clients, txns, twophase=True)
    return result



#: throughput floors over one shard, by shard count (measured 1.99 /
#: 3.91 / 7.49): partition-respecting work must scale nearly linearly.
SPEEDUP_FLOORS = {"2": 1.8, "4": 3.5, "8": 6.5}


def verdict(doc: dict) -> list[str]:
    """The claims a full-size ``BENCH_multishard`` document must
    support: near-linear disjoint scaling at zero coordination cost,
    the 2PC protocol's exact price, and a scheduler that neither
    starves nor retries."""
    rows = doc["disjoint"] + [doc["twophase"]]
    speedups = doc["scaling"]["speedups_over_one_shard"]
    two = doc["twophase"]
    claims = {
        **{f"{n} shards run disjoint work at least {floor}x one shard":
           speedups[n] >= floor for n, floor in SPEEDUP_FLOORS.items()},
        "disjoint work sends zero cross-shard messages": all(
            r["routing"]["cross_shard_messages"] == 0
            and r["routing"]["cross_shard_txns"] == 0
            for r in doc["disjoint"]),
        "a two-shard transaction costs 2 prepares + 1 decision":
            two["routing"]["cross_shard_txns"] == two["transactions"]
            and two["routing"]["prepares"] == 2 * two["transactions"]
            and two["routing"]["decisions"] == two["transactions"],
        "a two-shard transaction costs 9 cross-shard messages":
            two["routing"]["messages_per_txn"] == 9.0,
        "no session is starved": all(
            r["sched"]["starved"] is False for r in rows),
        "no transaction is retried": all(
            r["sched"]["retries"] == 0 for r in rows),
    }
    return [claim for claim, holds in claims.items() if not holds]
