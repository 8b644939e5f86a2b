"""The durable state backend: intents, purchases, snapshots, recovery.

Crash-safety for *money* hinges on one protocol::

    intent (WAL)  →  market call bills  →  purchase (WAL)  →  group commit

Before the transport lets a call bill, it journals a durable **intent**
record carrying the call's idempotency key and enough of the request to
re-issue it.  Whatever byte the process dies at afterwards, recovery can
reconcile:

* crash before the intent is durable — the call was never issued, nothing
  was billed, nothing to do;
* crash after the intent but before the purchase record — the market may
  or may not have billed the key; recovery *rolls the intent forward* by
  re-issuing the request with the **same** key.  If the market billed it,
  the idempotency cache replays the response for free and the orphaned
  charge is adopted; if it never billed, the purchase completes now.
  Either way the key is billed exactly once;
* crash after the purchase record — replay re-records the rows and the
  bill; the intent is resolved by its purchase record and is not
  re-issued.

WAL appends are unbuffered, so every record is OS-visible the moment it
is written: a buyer-process kill at any byte is always recoverable.  The
fsync policy only decides the *power-loss* window — "commit" (default)
fsyncs once per table access at the post-purchase group commit, "always"
additionally fsyncs each intent before the market may bill it.

Purchases, waste, ISOMER feedback, the logical clock and finished
queries are WAL records riding those group commits; the bill is folded
from the purchase and waste records, live and again at replay.  Every
:data:`COMPACT_AFTER` records (checked at query boundaries) and on every
clean shutdown the backend writes a compacted **snapshot** (temp file +
fsync + atomic rename) and starts a fresh WAL segment, so cold restart
cost is O(live state), not O(history).  :meth:`recover` always rolls
pending intents forward — the one money-safe way to reopen a state dir.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import zlib
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.durable.records import (
    box_from_json,
    box_to_json,
    request_from_json,
    request_to_json,
    rows_from_json,
    rows_to_json,
)
from repro.durable.wal import FSYNC_POLICIES, WriteAheadLog, iter_records
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.payless import PayLess
    from repro.market.billing import BuyerBill
    from repro.market.rest import RestRequest

#: Snapshot format version (5: the meta JSON holds the bill and the query
#: count, the sidecar the store's columns, coordinates, chunks and spend).
SNAPSHOT_VERSION = 5

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{8})\.json$")
_SIDECAR_RE = re.compile(r"^snapshot-(\d{8})\.tables\.pkl$")
_SEGMENT_RE = re.compile(r"^wal-(\d{8})\.log$")

#: WAL records between automatic compacting snapshots (checked at query
#: boundaries, where no table lock is held).
COMPACT_AFTER = 4096


@dataclass(frozen=True)
class DurabilityConfig:
    """Where and how hard the installation persists its state."""

    #: Directory holding the WAL segments and snapshots (created on use).
    state_dir: str | Path
    #: fsync policy: "always" (per append — power-loss-proof even for an
    #: in-flight access), "commit" (one fsync per access, at the post-
    #: purchase group commit — the default; a buyer-process crash can
    #: never lose money, power loss can expose at most the one in-flight
    #: access), or "os" (never fsync; durable against process kill only).
    fsync: str = "commit"

    def __post_init__(self) -> None:
        if self.fsync not in FSYNC_POLICIES:
            raise ReproError(
                f"unknown fsync policy {self.fsync!r}; "
                f"pick one of {FSYNC_POLICIES}"
            )


@dataclass
class RecoveryReport:
    """What :meth:`DurableStateBackend.recover` found and did."""

    snapshot_loaded: bool = False
    records_replayed: int = 0
    purchases_replayed: int = 0
    intents_resolved: int = 0
    torn_bytes_truncated: int = 0
    clock: float = 0.0
    tables: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        source = "snapshot+wal" if self.snapshot_loaded else "wal"
        return (
            f"recovered from {source}: {self.records_replayed} records, "
            f"{self.purchases_replayed} purchases, "
            f"{self.intents_resolved} intents rolled forward"
        )


class DurableStateBackend:
    """One installation's durable state: WAL segments + snapshots.

    Single-owner: exactly one live :class:`~repro.core.payless.PayLess`
    may append to a state directory at a time (a crashed predecessor's
    abandoned handle is fine — it never writes again).
    """

    def __init__(self, config: DurabilityConfig | str | Path, bill: BuyerBill):
        if not isinstance(config, DurabilityConfig):
            config = DurabilityConfig(state_dir=config)
        self.config = config
        self.state_dir = Path(config.state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        #: The installation's bill; :meth:`recover` restores and replays it.
        self.bill = bill
        #: The bill's lock: a fold and the record it rides append as one
        #: step, so a snapshot never holds one without the other.
        self._lock = self.bill.lock
        self._payless: "PayLess | None" = None
        #: Intent records awaiting their purchase/waste/abort resolution.
        self._pending: dict[str, dict] = {}
        self._intent_seq = 0
        #: Distinguishes this state dir's idempotency keys from any other
        #: installation's against the same market; derived from the path
        #: so it survives restarts (recovery must replay the same keys).
        self._nonce = zlib.crc32(str(self.state_dir.resolve()).encode()) & 0xFFFF
        self._clock = 0.0
        self._records_since_snapshot = 0
        self._cache_dropped = False
        self._torn_bytes = 0
        self._scan()

    # -- startup scan ----------------------------------------------------------

    def _scan(self) -> None:
        """Read the state dir: pick the snapshot, stage WAL replay, open
        the live segment (truncating any torn tail)."""
        for leftover in self.state_dir.glob("*.tmp"):
            leftover.unlink()
        snapshots = sorted(
            (
                (int(match.group(1)), path)
                for path in self.state_dir.iterdir()
                if (match := _SNAPSHOT_RE.match(path.name))
            ),
            reverse=True,
        )
        self._snapshot_state: dict | None = None
        #: Bulk table payload from the snapshot's pickled sidecar.
        self._snapshot_tables: dict | None = None
        snap_seq = 0
        for seq, path in snapshots:
            try:
                state = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if state.get("version") != SNAPSHOT_VERSION:
                # The WAL segments it compacted are gone: skipping it
                # would recover empty and silently re-buy everything.
                raise ReproError(
                    f"snapshot {path} has format version "
                    f"{state.get('version')!r}, this build reads "
                    f"{SNAPSHOT_VERSION}; refusing to ignore purchased state"
                )
            if not state.get("tables_in_sidecar"):
                # Skipping it would silently re-buy everything it held.
                raise ReproError(
                    f"snapshot {path} has no tables sidecar "
                    "('tables_in_sidecar' missing); refusing to ignore "
                    "purchased state"
                )
            sidecar = self.state_dir / f"snapshot-{seq:08d}.tables.pkl"
            try:
                self._snapshot_tables = pickle.loads(sidecar.read_bytes())
            except (OSError, pickle.UnpicklingError, EOFError):
                continue  # torn sidecar: fall back to an older snapshot
            self._snapshot_state = state
            snap_seq = seq
            break
        segments = sorted(
            (
                (int(match.group(1)), path)
                for path in self.state_dir.iterdir()
                if (match := _SEGMENT_RE.match(path.name))
            )
        )
        self._replay_records: list[dict] = []
        live: list[tuple[int, Path]] = []
        for seq, path in segments:
            if seq <= snap_seq:
                path.unlink()  # superseded by the snapshot; crash leftover
            else:
                live.append((seq, path))
        for index, (seq, path) in enumerate(live):
            if index == len(live) - 1:
                before = path.stat().st_size
                records, valid = WriteAheadLog.truncate_torn_tail(path)
                self._torn_bytes = before - valid
            else:
                records, __ = iter_records(path.read_bytes())
            self._replay_records.extend(records)
        if self._snapshot_state is not None:
            self._intent_seq = self._snapshot_state.get("intent_seq", 0)
            self._clock = self._snapshot_state.get("clock", 0.0)
            for intent in self._snapshot_state.get("pending_intents", []):
                self._pending[intent["k"]] = intent
        for record in self._replay_records:
            self._track_metadata(record)
        self._records_since_snapshot = len(self._replay_records)
        self._wal_seq = live[-1][0] if live else snap_seq + 1
        self.wal = WriteAheadLog(
            self._segment_path(self._wal_seq), fsync=self.config.fsync
        )

    def _segment_path(self, seq: int) -> Path:
        return self.state_dir / f"wal-{seq:08d}.log"

    def _track_metadata(self, record: dict) -> None:
        """Fold one WAL record into the pending-intent / clock metadata
        (the part of replay that needs no installation)."""
        kind = record["t"]
        if kind == "in":
            self._pending[record["k"]] = record
            sequence = int(record["k"].rsplit(".", 1)[1])
            self._intent_seq = max(self._intent_seq, sequence + 1)
        elif kind in ("buy", "waste", "abort"):
            if record.get("k"):
                self._pending.pop(record["k"], None)
        elif kind == "clk":
            self._clock = record["c"]

    # -- wiring ----------------------------------------------------------------

    def attach(self, payless: "PayLess") -> None:
        """Back-reference for snapshots and recovery (set by PayLess)."""
        self._payless = payless

    @property
    def pending_intents(self) -> list[dict]:
        """Unresolved intent records (WAL order) — mainly for tests."""
        with self._lock:
            return list(self._pending.values())

    def _first_append(self) -> None:
        """Drop the staged recovery state once live appends begin.

        After this, :meth:`recover` would silently merge old state into a
        store that already diverged — so it raises instead.
        """
        if not self._cache_dropped:
            self._cache_dropped = True
            self._snapshot_state = None
            self._replay_records = []

    # -- the write path --------------------------------------------------------

    def begin_intent(self, request: "RestRequest") -> str:
        """Journal a durable intent; returns the call's idempotency key.

        The unbuffered append is OS-visible before the market call, so a
        buyer-process crash can never bill a key the buyer forgot.  Under
        the "always" policy the intent is also fsynced, extending that
        guarantee to power loss; "commit" accepts at most one in-flight
        access of power-loss exposure in exchange for a single fsync per
        access (at the post-purchase group commit).
        """
        with self._lock:
            self._first_append()
            key = f"i{self._nonce:04x}.{self._intent_seq}"
            self._intent_seq += 1
            record = {
                "t": "in",
                "k": key,
                "u": request.url(),
                "table": request.table.lower(),
                "req": request_to_json(request),
                "at": self._clock,
            }
            self.wal.append(record)
            self._pending[key] = record
            self._records_since_snapshot += 1
            return key

    def log_purchase(
        self,
        table: str,
        box,
        rows,
        count: int,
        stored_at: float,
        url: str,
        key: str | None,
        transactions: int,
        price: float,
        coalesced: bool = False,
        saved_transactions: int = 0,
        saved_price: float = 0.0,
    ) -> None:
        """Journal one recorded fetch (called under the table lock, right
        after ``store.record`` + histogram feedback — the PR 6 record→
        release window).  Durable at the access's group commit."""
        record: dict[str, Any] = {
            "t": "buy",
            "table": table.lower(),
            "box": box_to_json(box),
            "rows": rows_to_json(rows),
            "n": count,
            "at": stored_at,
            "u": url,
            "k": key,
            "tx": transactions,
            "p": price,
        }
        if coalesced:
            record["co"] = True
            record["stx"] = saved_transactions
            record["sp"] = saved_price
        with self._lock:
            self._first_append()
            self.wal.append(record)
            if key:
                self._pending.pop(key, None)
            self._records_since_snapshot += 1

    def log_wasted(self, key: str, transactions: int, price: float) -> None:
        """A billed call's data never arrived: resolve its intent into the
        wasted bucket (the money is gone, but accounted)."""
        with self._lock:
            self._first_append()
            self.wal.append(
                {"t": "waste", "k": key, "tx": transactions, "p": price}
            )
            self._pending.pop(key, None)
            self._records_since_snapshot += 1

    def log_abort(self, key: str) -> None:
        """An intent whose call never billed: resolve it so recovery does
        not roll it forward.  No-op if already resolved."""
        with self._lock:
            if key not in self._pending:
                return
            self.wal.append({"t": "abort", "k": key})
            self._pending.pop(key, None)
            self._records_since_snapshot += 1

    def log_clock(self, clock: float) -> None:
        """The store's logical clock advanced (wired to
        :attr:`SemanticStore.on_clock_advance`)."""
        with self._lock:
            self._first_append()
            # Not a money record: losing a tail clk to power loss only
            # leaves the clock slightly stale (replayed purchases carry
            # their own stored_at), so it rides the next group commit.
            self.wal.append({"t": "clk", "c": clock})
            self._clock = clock
            self._records_since_snapshot += 1

    def log_query(self) -> None:
        """Journal that one more query finished (``queries_executed``).

        Bookkeeping, not money: the "q" record does not force its own
        fsync — it becomes durable with the next money commit (or close).
        A power cut can at worst under-count one query; the bill rides the
        purchase and waste records, so it loses no billed call.
        """
        with self._lock:
            self._first_append()
            self.wal.append({"t": "q"})
            self._records_since_snapshot += 1

    def commit(self) -> None:
        """Group commit: fsync everything appended since the last one."""
        with self._lock:
            self.wal.commit()

    def maybe_compact(self) -> None:
        """Snapshot when the WAL grew past :data:`COMPACT_AFTER` records.

        Called at query boundaries only — snapshotting takes every table
        lock briefly, so it must never run inside one.  The count is
        first read unlocked: a query that compacts nothing takes no lock.
        """
        if self._payless is None or self._records_since_snapshot < COMPACT_AFTER:
            return
        with self._state_locks(self._payless):
            if self._records_since_snapshot >= COMPACT_AFTER:
                self.snapshot()

    @contextmanager
    def _state_locks(self, payless: "PayLess | None"):
        """Every table lock in sorted key order, then the bill lock: the
        order a purchase takes its table's lock and then folds into the
        bill (:meth:`log_purchase`), so the two never wait in a cycle."""
        with ExitStack() as held:
            if payless is not None:
                tables = payless.store._tables  # noqa: SLF001
                for key in sorted(tables):
                    held.enter_context(tables[key].lock)
            held.enter_context(self._lock)
            yield

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> Path:
        """Write a compacted snapshot and rotate to a fresh WAL segment.

        The snapshot is two files: a pickled *tables sidecar* holding the
        bulk store payload (columns, coordinates, chunk ranges, covers,
        prebuilt index buckets)
        and a small meta JSON (bill, query count, pending intents,
        histograms).
        The sidecar is written and fsynced first; the meta JSON's atomic
        rename is the commit record — a snapshot without a readable
        sidecar is ignored at startup, so a crash between the two writes
        leaves the previous snapshot authoritative.  Pickle (not JSON)
        for the bulk payload because restart adopts the containers
        wholesale instead of re-deriving index buckets row by row.
        """
        payless = self._payless
        if payless is None:
            raise ReproError("snapshot() needs an attached PayLess")
        from repro.stats.isomer import FeedbackHistogram

        with self._state_locks(payless):
            tables: dict[str, Any] = {}
            bulk: dict[str, Any] = {}
            for key, table_store in payless.store._tables.items():  # noqa: SLF001
                bulk[key] = table_store.export_bulk_state()
                histogram = payless.catalog.statistics(key).histogram
                tables[key] = {
                    "histogram": (
                        histogram.state_snapshot()
                        if isinstance(histogram, FeedbackHistogram)
                        else None
                    ),
                }
            state = {
                "version": SNAPSHOT_VERSION,
                "tables_in_sidecar": True,
                "wal_seq": self._wal_seq,
                "clock": payless.store.clock,
                "intent_seq": self._intent_seq,
                "queries": payless.queries_executed,
                "bill": self.bill.to_json(),
                "pending_intents": list(self._pending.values()),
                "tables": tables,
            }
            seq = self._wal_seq
            sidecar = self.state_dir / f"snapshot-{seq:08d}.tables.pkl"
            sidecar_tmp = sidecar.with_suffix(".pkl.tmp")
            with open(sidecar_tmp, "wb") as handle:
                pickle.dump(bulk, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(sidecar_tmp, sidecar)
            final = self.state_dir / f"snapshot-{seq:08d}.json"
            tmp = final.with_suffix(".json.tmp")
            with open(tmp, "w") as handle:
                json.dump(state, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, final)
            self._fsync_dir()
            # Rotate: the snapshot supersedes every segment <= seq and
            # every older snapshot.
            self.wal.close()
            self._wal_seq = seq + 1
            self.wal = WriteAheadLog(
                self._segment_path(self._wal_seq), fsync=self.config.fsync
            )
            for path in self.state_dir.iterdir():
                match = _SEGMENT_RE.match(path.name)
                if match and int(match.group(1)) <= seq:
                    path.unlink()
                    continue
                match = _SNAPSHOT_RE.match(path.name) or _SIDECAR_RE.match(
                    path.name
                )
                if match and int(match.group(1)) < seq:
                    path.unlink()
            self._records_since_snapshot = 0
            # The new snapshot supersedes whatever startup staged for
            # recovery.
            self._cache_dropped = True
            self._snapshot_state = None
            self._snapshot_tables = None
            self._replay_records = []
            return final

    def _fsync_dir(self) -> None:
        fd = os.open(self.state_dir, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # -- recovery --------------------------------------------------------------

    def recover(self, payless: "PayLess") -> RecoveryReport:
        """Rebuild the installation's state: snapshot, WAL replay, then
        roll pending intents forward.  Call after dataset registration
        and before the first query.  The bill is folded from what is
        replayed and rolled forward exactly as the live run folded it."""
        with self._state_locks(payless):
            if self._cache_dropped:
                raise ReproError(
                    "recover() must run before the first logged mutation"
                )
            self._payless = payless
            report = RecoveryReport(
                clock=self._clock, torn_bytes_truncated=self._torn_bytes
            )
            snapshot = self._snapshot_state
            bill = self.bill
            if snapshot is not None:
                report.snapshot_loaded = True
                for key, table_state in snapshot["tables"].items():
                    if not payless.store.has_table(key):
                        raise ReproError(
                            f"state references unregistered table {key!r}; "
                            "call register_dataset first"
                        )
                    # Adopt the sidecar's pickled containers (columns,
                    # chunks, covers, prebuilt index buckets) wholesale —
                    # nothing is rebuilt per row.
                    payless.store.table(key).adopt_bulk_state(
                        self._snapshot_tables[key]
                    )
                    self._restore_histogram(payless, key, table_state)
                    report.tables.append(key)
                payless.store.clock = snapshot["clock"]
                payless.queries_executed = snapshot["queries"]
                bill.restore(snapshot["bill"])
            for record in self._replay_records:
                report.records_replayed += 1
                kind = record["t"]
                if kind == "buy":
                    self._replay_purchase(payless, record)
                    if record.get("co"):
                        bill.coalesce(record["stx"], record["sp"])
                    else:
                        # A durable call bills under its intent's key, so
                        # once: one record is one spent call.
                        bill.spend(1, record["tx"], record["p"])
                    report.purchases_replayed += 1
                elif kind == "waste":
                    bill.waste(record["tx"], record["p"])
                elif kind == "clk":
                    payless.store.clock = record["c"]
                elif kind == "q":
                    payless.queries_executed += 1
            for intent in list(self._pending.values()):
                self._resolve_intent(payless, intent)
                report.intents_resolved += 1
            report.clock = payless.store.clock
            self._clock = payless.store.clock
            self._cache_dropped = True
            self._snapshot_state = None
            self._snapshot_tables = None
            self._replay_records = []
            self.wal.commit()
            return report

    def _restore_histogram(
        self, payless: "PayLess", key: str, table_state: dict
    ) -> None:
        from repro.stats.isomer import FeedbackHistogram

        histogram = payless.catalog.statistics(key).histogram
        histogram_state = table_state.get("histogram")
        if histogram_state is not None and isinstance(
            histogram, FeedbackHistogram
        ):
            histogram.restore_state(
                histogram_state["cardinality"],
                histogram_state["feedback_count"],
                [
                    (box_from_json(r["box"]), r["count"])
                    for r in histogram_state["refined"]
                ],
            )

    def _replay_purchase(self, payless: "PayLess", record: dict) -> None:
        """Re-execute one purchase record against the store + statistics.

        Replaying ``record`` + ``observe`` in WAL order reproduces the
        store's cover consolidation and the histogram's refined-box state
        exactly — both are deterministic functions of the call sequence.
        """
        from repro.stats.isomer import FeedbackHistogram

        table = record["table"]
        if not payless.store.has_table(table):
            raise ReproError(
                f"WAL references unregistered table {table!r}; "
                "call register_dataset first"
            )
        box = box_from_json(record["box"])
        rows = rows_from_json(record["rows"])
        payless.store.table(table).record(box, rows, record["at"], record["p"])
        histogram = payless.catalog.statistics(table).histogram
        if isinstance(histogram, FeedbackHistogram):
            histogram.observe(box, record["n"])

    def _resolve_intent(self, payless: "PayLess", intent: dict) -> None:
        """Roll one pending intent forward with its original key.

        If the market billed the key before the crash, the idempotency
        cache replays the response for free and the orphaned charge is
        adopted into the bill; if the call never went out, it completes
        (and bills) now.  Either way: exactly one charge per key, folded
        into the bill as one spent call.
        """
        from repro.stats.isomer import FeedbackHistogram

        request = request_from_json(intent["req"])
        table = intent["table"]
        response = payless.market.get(request, idempotency_key=intent["k"])
        table_store = payless.store.table(table)
        boxes = table_store.space.boxes_for_constraints(request.constraints)
        if len(boxes) != 1:  # pragma: no cover - REST requests are 1 box
            raise ReproError(
                f"intent {intent['k']} does not describe one box: {boxes!r}"
            )
        with table_store.lock:
            table_store.record(
                boxes[0], response.rows, intent["at"], response.price
            )
            histogram = payless.catalog.statistics(table).histogram
            if isinstance(histogram, FeedbackHistogram):
                histogram.observe(boxes[0], response.record_count)
            self.bill.spend(1, response.transactions, response.price)
            self.log_purchase(
                table=table,
                box=boxes[0],
                rows=response.rows,
                count=response.record_count,
                stored_at=intent["at"],
                url=request.url(),
                key=intent["k"],
                transactions=response.transactions,
                price=response.price,
            )

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Clean shutdown: group-commit, snapshot, close."""
        with self._state_locks(self._payless):
            if self.wal.closed:
                return
            self.wal.commit()
            if self._payless is not None:
                self.snapshot()
            self.wal.close()

    def abandon(self) -> None:
        """Drop the WAL handle without syncing — the test double of a
        kill.  Anything not yet OS-visible is lost, as it would be."""
        self.wal.close(final_sync=False)

    def __repr__(self) -> str:
        return (
            f"DurableStateBackend({self.state_dir}, wal_seq={self._wal_seq}, "
            f"fsync={self.config.fsync!r}, pending={len(self._pending)})"
        )
