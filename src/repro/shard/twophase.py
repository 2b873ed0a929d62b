"""The two-phase-commit coordinator.

Commit of a cluster transaction that wrote on two or more shards runs
the textbook presumed-abort protocol, built entirely from durable
primitives the single-server system already has:

1. **Prepare** — each writing participant forces its dirty pages and a
   ``P <xid> <gid> <start>`` record to its own status file
   (:meth:`~repro.db.transactions.TransactionManager.prepare`, via the
   ``p_prepare`` RPC).  A prepared transaction keeps its locks, is
   invisible, and survives both disconnect and crash.
2. **Decide** — the coordinator (the first writing participant's
   shard) forces ``D <gid> C`` to its decision log
   (:meth:`~repro.shard.cluster.ShardedCluster.log_decision`).  This
   single append is the atomic commit point for the whole group.
3. **Resolve** — each participant forces its final ``C`` record and
   releases its locks (``p_resolve``).  Read-only participants never
   prepared; they just commit locally (nothing durable to decide).

A crash anywhere leaves a recoverable history: before the decision
force, no participant can be driven to commit, so recovery presumes
abort; after it, every participant has a durable ``P`` record and
recovery replays the commit from the decision log.  Torn tails on any
of the three appends collapse to one of those two cases.
"""

from __future__ import annotations

from repro.errors import SimulatedCrashError, TransactionError


class TwoPhaseCoordinator:
    """Drives prepare/decide/resolve over a cluster client's enlisted
    shards.  Stateless between calls — the durable state lives in the
    shards' status files and the coordinator shard's decision log."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster

    def commit_group(self, links: dict, participants: list[int],
                     writers: list[int]) -> None:
        """Commit one cluster transaction.  ``links`` maps shard → the
        client's :class:`~repro.cache.link.SessionLink` there;
        ``participants`` is every enlisted shard
        (enlistment order); ``writers`` the subset whose local
        transaction wrote.  The caller guarantees ``len(writers) >= 2``
        — smaller groups commit locally without coordination."""
        cluster = self.cluster
        coord = writers[0]
        coord_tx = links[coord].tx()
        if coord_tx is None:
            raise TransactionError(
                f"no open transaction on coordinator shard {coord}")
        gid = f"{coord}.{coord_tx.xid}"

        # Phase one: every writer durably promises it can commit.
        prepared: list[int] = []
        try:
            for shard in writers:
                cluster.dispatch(shard, links[shard].conn, "p_prepare", gid)
                prepared.append(shard)
                cluster.stats.prepares += 1
                cluster.stats.cross_shard_messages += 1
        except SimulatedCrashError:
            # The machine room is down; nothing more can be forced.
            raise
        except BaseException:
            self._abort_prepared(links, participants, prepared)
            raise

        # The commit point: one forced append on the coordinator.  The
        # participants' clocks synchronize here — prepare acks flowed
        # in, the decision flows out.
        cluster.sync_clocks(participants)
        cluster.log_decision(coord, gid)
        cluster.stats.cross_shard_messages += 1

        # Phase two: the decision is durable; drive everyone to it.
        for shard in writers:
            cluster.dispatch(shard, links[shard].conn, "p_resolve", True)
            cluster.stats.cross_shard_messages += 1
        for shard in participants:
            if shard not in writers:
                cluster.dispatch(shard, links[shard].conn, "p_commit")
        cluster.sync_clocks(participants)

    def abort_group(self, links: dict, participants: list[int]) -> None:
        """Abort every enlisted shard's local transaction (none of
        them is prepared — prepare only happens inside
        :meth:`commit_group`)."""
        for shard in participants:
            self.cluster.dispatch(shard, links[shard].conn, "p_abort")

    def _abort_prepared(self, links: dict, participants: list[int],
                        prepared: list[int]) -> None:
        """Best-effort rollback after a phase-one failure: resolve the
        already-prepared shards to abort, plain-abort the rest.  No
        decision was logged, so recovery agrees (presumed abort) even
        if some of these messages are lost."""
        for shard in participants:
            try:
                if shard in prepared:
                    self.cluster.dispatch(shard, links[shard].conn,
                                          "p_resolve", False)
                else:
                    self.cluster.dispatch(shard, links[shard].conn, "p_abort")
            except Exception:
                # safe: no decision was logged, so recovery presumes abort
                pass
