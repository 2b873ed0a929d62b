"""The predicate rules system.

The paper leans on POSTGRES rules twice: "use of transaction processing
and the POSTGRES rules system can guarantee this consistency" (for
semantically rich files), and "we are exploring strategies for using
the POSTGRES predicate rules system to allow users and administrators
to define migration policies".

This is a practical subset: a rule watches one table for an event kind
(``append``/``replace``/``delete``) and fires when its POSTQUEL
qualification — evaluated over the new (or deleted) row bound to the
range variable ``new`` — is true.  Its action is either

- ``reject`` — refuse the write (an integrity constraint), or
- a registered Python callback (``do <registry key>``) invoked as
  ``callback(db, tx, table_name, event, row)`` — the hook migration
  policies and derived-data maintenance attach to.

Rules are catalog records (table ``pg_rules``), so defining one is
transactional and old rule sets are visible to time travel like
everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.db.snapshot import Snapshot
from repro.db.transactions import Transaction
from repro.db.tuples import Column, Schema
from repro.errors import QueryError, ReproError

PG_RULES_TABLE = "pg_rules"
PG_RULES_SCHEMA = Schema([
    Column("oid", "oid"),
    Column("rulename", "text"),
    Column("tablename", "text"),
    Column("event", "text"),          # 'append' | 'replace' | 'delete'
    Column("qualification", "text"),  # POSTQUEL expression over `new`
    Column("action", "text"),         # 'reject' or 'do <registry key>'
])

EVENTS = ("append", "replace", "delete")


class RuleViolation(ReproError):
    """An integrity rule rejected a write."""


#: registry of rule action callbacks ("dynamically loaded" like UDFs).
_ACTION_REGISTRY: dict[str, Callable] = {}


def register_action(key: str, fn: Callable) -> None:
    _ACTION_REGISTRY[key] = fn


@dataclass(frozen=True)
class Rule:
    oid: int
    name: str
    table: str
    event: str
    qualification: str
    action: str


class RuleSystem:
    """Definition and firing of predicate rules."""

    def __init__(self, db) -> None:
        self.db = db
        self._cache: dict[str, list[Rule]] | None = None

    # -- storage --------------------------------------------------------

    def invalidate(self) -> None:
        self._cache = None

    def _rules_for(self, table_name: str, snapshot: Snapshot) -> list[Rule]:
        if not self.db.table_exists(PG_RULES_TABLE):
            return []
        if self._cache is None:
            cache: dict[str, list[Rule]] = {}
            for _tid, row in self.db.table(PG_RULES_TABLE).scan(snapshot):
                rule = Rule(*row)
                cache.setdefault(rule.table, []).append(rule)
            self._cache = cache
        return self._cache.get(table_name, [])

    # -- definition --------------------------------------------------------

    def define_rule(self, tx: Transaction, name: str, table: str, event: str,
                    qualification: str, action: str) -> Rule:
        """``define rule name on <event> to <table> where <qual> do
        <action>``."""
        if event not in EVENTS:
            raise QueryError(f"unknown rule event {event!r}")
        if action != "reject" and not action.startswith("do "):
            raise QueryError(
                f"rule action must be 'reject' or 'do <key>', not {action!r}")
        self.db.ensure_table(PG_RULES_TABLE, PG_RULES_SCHEMA)
        # Validate the qualification parses now, not at first firing.
        from repro.db.query.parser import parse_expression
        parse_expression(qualification)
        oid = self.db.catalog.allocate_oid()
        self.db.table(PG_RULES_TABLE, tx).insert(
            tx, (oid, name, table, event, qualification, action))
        self.invalidate()
        tx.abort_hooks.append(self.invalidate)
        return Rule(oid, name, table, event, qualification, action)

    def drop_rule(self, tx: Transaction, name: str) -> bool:
        if not self.db.table_exists(PG_RULES_TABLE):
            return False
        table = self.db.table(PG_RULES_TABLE, tx)
        snapshot = self.db.snapshot(tx)
        for tid, row in table.scan(snapshot):
            if row[1] == name:
                table.delete(tx, tid)
                self.invalidate()
                tx.abort_hooks.append(self.invalidate)
                return True
        return False

    def list_rules(self, snapshot: Snapshot) -> list[Rule]:
        if not self.db.table_exists(PG_RULES_TABLE):
            return []
        return [Rule(*row) for _tid, row
                in self.db.table(PG_RULES_TABLE).scan(snapshot)]

    # -- firing --------------------------------------------------------------

    def fire(self, tx: Transaction, table_name: str, event: str,
             row: Sequence[object], schema) -> None:
        """Evaluate every matching rule against ``row`` (bound as the
        range variable ``new``); raise RuleViolation on reject actions,
        invoke callbacks otherwise."""
        if table_name == PG_RULES_TABLE:
            return  # rules do not govern themselves
        snapshot = self.db.snapshot(tx)
        rules = [r for r in self._rules_for(table_name, snapshot)
                 if r.event == event]
        if not rules:
            return
        from repro.db.query.engine import Evaluator, _Scope
        from repro.db.query.parser import parse_expression

        class _RowScope(_Scope):
            def __init__(self, table) -> None:
                self.name = "new"
                self.table = table
                self.snapshot = snapshot
                self.colnames = table.schema.column_names()

        scope = _RowScope(self.db.table(table_name))
        for rule in rules:
            evaluator = Evaluator(self.db, [scope], snapshot)
            evaluator.env["new"] = tuple(row)
            if not evaluator.eval(parse_expression(rule.qualification)):
                continue
            if rule.action == "reject":
                raise RuleViolation(
                    f"rule {rule.name!r} rejected {event} on "
                    f"{table_name}: {rule.qualification}")
            key = rule.action[3:].strip()
            callback = _ACTION_REGISTRY.get(key)
            if callback is None:
                raise QueryError(
                    f"rule {rule.name!r} names unregistered action {key!r}")
            callback(self.db, tx, table_name, event, tuple(row))
