"""The epoch-keyed parameterized plan cache.

Repeat templates dominate the workloads PayLess targets (the harness's
Zipfian sessions re-issue the same parameterized SQL over and over), yet
planning started from scratch on every call.  This module caches the
:class:`~repro.core.optimizer.PlanningResult` (and the analyzed
:class:`~repro.relational.query.LogicalQuery`) of a query so a repeat
skips parse + analyze + the whole DP.

**Key.**  A cached plan is only valid for the exact planning inputs, so
the key combines:

* the *template* — the parsed AST's deterministic ``repr`` with ``?``
  parameter holes left in place (whitespace variations of the same SQL
  normalize to one template), or the logical query's ``repr`` for
  pre-compiled queries;
* the *parameter values* — PayLess never reuses a "generic" plan across
  parameters: different constants mean different request regions and
  therefore different dollars;
* the call's *objective fingerprint* — two objectives over one template
  never share a plan.  Nothing else configures planning within one
  cache: each installation owns its cache, and its ``QueryOptions`` are
  frozen.

**Invalidation.**  Planning consults the semantic store, so a stored
plan is stamped with each referenced market table's mutation ``epoch``
and the store ``clock`` (the same signals the rewrite memo keys on).
A lookup re-validates the stamp: any purchase into a referenced table —
or a clock advance that may expire coverage — invalidates the entry,
guaranteeing a cache hit returns byte-identical output to fresh
planning.  Entries are stamped *at planning time*, before execution, so
a query whose own purchases mutate the store immediately invalidates its
entry for the next repeat.

Bounded LRU; ``QueryOptions.plan_cache_size`` sets the capacity and
``0`` disables caching entirely.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.sqlparser.ast import SelectStatement
from repro.sqlparser.parser import parse

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.optimizer import PlanningResult
    from repro.obs.trace import Tracer
    from repro.relational.query import LogicalQuery
    from repro.semstore.store import SemanticStore


@dataclass
class CacheEntry:
    """One cached planning outcome plus its validity stamp."""

    logical: "LogicalQuery"
    planning: "PlanningResult"
    #: (table, epoch) per referenced market table, at planning time.
    epochs: tuple[tuple[str, int], ...]
    #: Store clock at planning time (coverage may expire as it advances).
    clock: float
    hits: int = 0


class PlanCache:
    """LRU of planning results keyed on template + params + fingerprint."""

    def __init__(
        self,
        store: "SemanticStore",
        capacity: int = 256,
        tracer: "Tracer | None" = None,
    ):
        self._store = store
        self.capacity = capacity
        self._tracer = tracer
        self._entries: OrderedDict[tuple, CacheEntry] = OrderedDict()
        self._parsed: OrderedDict[str, SelectStatement] = OrderedDict()
        #: ``id(statement)`` -> ``repr(statement)`` for the statements in
        #: ``_parsed``, added and dropped with them (so a memoized id is
        #: always a live statement's): the template half of every key,
        #: computed once per SQL text.
        self._templates: dict[int, str] = {}
        #: Guards both LRU maps and the counters.  Validation probes the
        #: store's per-table locks from inside (cache lock -> table lock is
        #: the allowed order; the store never calls back into the cache).
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    @property
    def size(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._parsed.clear()
            self._templates.clear()

    # ------------------------------------------------------------------- keys

    def parse_sql(self, sql: str) -> SelectStatement:
        """Parse ``sql``, memoizing the AST by exact text.

        Statements are analyze-only after parsing (``PreparedQuery``
        already re-analyzes one shared AST per execution), so sharing the
        parsed object is safe.
        """
        if not self.enabled:
            return parse(sql)
        with self._lock:
            statement = self._parsed.get(sql)
            if statement is not None:
                self._parsed.move_to_end(sql)
                return statement
        statement = parse(sql)
        template = repr(statement)
        with self._lock:
            raced = self._parsed.get(sql)
            if raced is not None:
                # Another session parsed the same text meanwhile: share its
                # statement, so each memoized template has one owner.
                return raced
            self._parsed[sql] = statement
            self._templates[id(statement)] = template
            while len(self._parsed) > self.capacity:
                __, evicted = self._parsed.popitem(last=False)
                del self._templates[id(evicted)]
        return statement

    def statement_key(
        self,
        statement: SelectStatement,
        params: Sequence[Any],
        fingerprint: tuple,
    ) -> tuple | None:
        """Cache key for a parsed template bound to ``params``.

        The AST ``repr`` is the normalized template (``Parameter`` holes
        stay holes) — memoized for statements :meth:`parse_sql` handed
        out, computed here for any other; parameter values join the key
        separately.  Returns ``None`` (bypassing the cache) for unhashable
        parameter values.
        """
        with self._lock:
            template = self._templates.get(id(statement))
        if template is None:
            template = repr(statement)
        key = ("sql", template, tuple(params), fingerprint)
        return _hashable_or_none(key)

    @staticmethod
    def logical_key(logical: "LogicalQuery", fingerprint: tuple) -> tuple | None:
        """Cache key for a pre-compiled logical query (harness fast path).

        Every expression/constraint class is a frozen dataclass with a
        deterministic ``repr``, so the query's ``repr`` is a faithful
        structural fingerprint with the parameters already substituted.
        """
        return ("logical", repr(logical), fingerprint)

    # ----------------------------------------------------------------- lookup

    def lookup(self, key: tuple | None) -> CacheEntry | None:
        """Return a *valid* entry for ``key``, or record a miss."""
        if key is None or not self.enabled:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and not self._valid(entry):
                del self._entries[key]
                self.invalidations += 1
                entry = None
            if entry is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                entry.hits += 1
                self.hits += 1
        self._event(hit=entry is not None)
        return entry

    def insert(
        self, key: tuple | None, logical: "LogicalQuery", planning: "PlanningResult"
    ) -> None:
        """Stamp and store a fresh planning outcome (LRU-evicting)."""
        if key is None or not self.enabled:
            return
        store = self._store
        epochs = tuple(
            sorted(
                (name, store.epoch_of(name))
                for name in {t.lower() for t in logical.tables}
                if store.has_table(name)
            )
        )
        with self._lock:
            self._entries[key] = CacheEntry(
                logical=logical,
                planning=planning,
                epochs=epochs,
                clock=store.clock,
            )
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def _valid(self, entry: CacheEntry) -> bool:
        if self._store.clock != entry.clock:
            return False
        for table, epoch in entry.epochs:
            if self._store.epoch_of(table) != epoch:
                return False
        return True

    def _event(self, hit: bool) -> None:
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            tracer.event("plan_cache", hit=hit)

    def __repr__(self) -> str:
        return (
            f"PlanCache({self.size}/{self.capacity} entries, "
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.invalidations} invalidations)"
        )


def _hashable_or_none(key: tuple) -> tuple | None:
    try:
        hash(key)
    except TypeError:
        return None
    return key
