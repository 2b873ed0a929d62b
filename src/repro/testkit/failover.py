"""Failover crash exploration: kill the primary, promote a replica.

The claim under test: **failover is crash recovery replayed on another
machine**.  The :class:`~repro.replica.feed.FeedTapDevice` records only
writes that reached the media (the fault-injecting
:class:`~repro.testkit.faults.FaultyDevice` wraps *outside* it, so a
crash-suppressed write never enters the feed), which means the feed at
the instant of a primary crash is exactly the primary's durable state
— torn status-file tail included.  A replica that drains that feed and
promotes must therefore recover to the same state a local restart of
the crashed primary would, and the whole single-server oracle argument
(durable base + floating group-commit prefixes + torn-tail ambiguity)
carries over unchanged.

The pass logic is :class:`~repro.testkit.explorer.CrashExplorer`'s; this
module adds the :class:`PrimaryWithReplicas` topology
(``CrashExplorer(dir, workload, PrimaryWithReplicas)``).  For each sampled
write boundary ``k`` the explorer rebuilds a pristine primary, seeds
``nreplicas`` replicas, arms the fault proxies, runs the workload with
periodic sync rounds interleaved, crashes the primary in place of write
``k``, then:

1. promotes the most caught-up replica (final feed drain + promote);
2. checks the promoted state against the oracle's allowed states;
3. reopens the dead primary's media locally and requires the promoted
   state to be **identical** — zero lost committed transactions, since
   local recovery preserves every durable commit by construction;
4. re-points the surviving replicas at the new primary's feed, syncs
   them, and requires them to match too — visible state, relations on
   every device and rename journal, so each is itself promotable (no
   re-seed: the promoted feed was seeded with the entries the victim
   had applied);
5. runs :class:`~repro.core.checker.ConsistencyChecker` on the
   promoted mount.
"""

from __future__ import annotations

import os
from repro.core.filesystem import InversionFS
from repro.db.database import Database
from repro.db.vacuum import RENAME_JOURNAL_TAG
from repro.replica.feed import PrimaryFeed, ReplStats
from repro.replica.server import ReplicaServer
from repro.testkit.explorer import OneServer, WorkloadRunner, _diff
from repro.testkit.oracle import harvest_state
from repro.testkit.workload import TxStep, Workload


class SyncingWorkloadRunner(WorkloadRunner):
    """The lock-step runner, with replica sync rounds interleaved every
    ``sync_every`` committed transaction steps — so crash boundaries
    land while replicas are at varying degrees of staleness."""

    def __init__(self, db, fs, workload: Workload,
                 replicas: list[ReplicaServer], sync_every: int) -> None:
        super().__init__(db, fs, workload)
        self.replicas = replicas
        self.sync_every = sync_every
        self._steps_run = 0

    def _run_tx(self, step: TxStep) -> None:
        super()._run_tx(step)
        self._steps_run += 1
        if self.sync_every and self._steps_run % self.sync_every == 0:
            for replica in self.replicas:
                replica.sync()


class PrimaryWithReplicas(OneServer):
    """A primary feeding ``nreplicas`` log-shipped replicas; recovery
    is promotion of the most caught-up replica.

    The fault proxy stacks OUTSIDE the feed tap (``wrap_devices``
    interposes over the current top), so a suppressed write never
    reaches the feed — the feed is exactly the media."""

    def __init__(self, run_dir: str, workload: Workload, nreplicas: int = 2,
                 sync_every: int = 3) -> None:
        super().__init__(os.path.join(run_dir, "primary"), workload)
        self.sync_every = sync_every
        self.labels = {"replicas": nreplicas}
        feed = PrimaryFeed.attach(self.node, stats=ReplStats())
        self.replicas = [
            ReplicaServer.seed(feed, os.path.join(run_dir, f"replica{i}"),
                               f"replica{i}")
            for i in range(nreplicas)
        ]

    def make_runner(self):
        return SyncingWorkloadRunner(self.node, self.fs, self.workload,
                                     self.replicas, self.sync_every)

    def live_states(self):
        self.node.tm.flush_commits()
        yield "primary", harvest_state(self.fs)
        for replica in self.replicas:
            replica.sync()
            yield f"caught-up {replica.replica_id}", harvest_state(replica.fs)

    def recover(self) -> list:
        self.victim = max(self.replicas, key=lambda r: r.cursor)
        before = self.victim.cursor
        self.new_feed = self.victim.promote()
        self.drained = self.victim.cursor - before
        return [self.victim.fs]

    def recovery_report(self) -> dict:
        return self.victim.db.tm.recovery_report()

    def extra_verdicts(self, state: dict) -> tuple[dict, str]:
        """``matches_local_recovery``: promoted state == locally
        recovered primary state; ``followers_converged``: every
        surviving follower resumed from its cursor and converged;
        ``drained_entries``: feed entries the victim drained during
        promotion."""
        detail = ""
        # Zero lost committed transactions: local recovery of the dead
        # primary's media is the ground truth — it preserves every
        # durable commit by construction, so promoted == recovered
        # proves nothing durable was lost.
        try:
            recovered_db = Database.open(self.run_dir)
            local_state = harvest_state(InversionFS.attach(recovered_db))
            matches_local = state == local_state
            if not matches_local:
                detail = ("promoted != local recovery: "
                          + _diff(state, local_state))
            recovered_db.close()
        except Exception as exc:
            matches_local = False
            detail = f"local recovery failed: {exc!r}"
        # Surviving followers resume from their cursors (no re-seed:
        # the promoted feed was seeded with what the victim applied).
        followers_ok = True
        for follower in self.replicas:
            if follower is self.victim:
                continue
            try:
                follower.rebind_feed(self.new_feed)
                follower.sync()
                # A promotable copy, not merely one that reads the
                # same: the same relations on every device and the
                # same rename journal as the node it now follows.
                if (harvest_state(follower.fs) != state
                        or _media(follower.db) != _media(self.victim.db)):
                    followers_ok = False
                    detail = detail or (f"{follower.replica_id} diverged "
                                        f"after failover")
            except Exception as exc:
                followers_ok = False
                detail = detail or (f"{follower.replica_id} resume "
                                    f"failed: {exc!r}")
        return {"matches_local_recovery": matches_local,
                "followers_converged": followers_ok,
                "drained_entries": self.drained}, detail

    def close(self) -> None:
        super().close()
        for replica in self.replicas:
            replica.close()


def _media(db) -> tuple:
    """What a later promotion of this node would start from, beyond
    file contents: every device's relations and the rename journal."""
    switch = db.switch
    root = switch.get(switch.default_name)
    return ({name: sorted(switch.get(name).list_relations())
             for name in switch.names()},
            root.read_meta(RENAME_JOURNAL_TAG) or b"")
