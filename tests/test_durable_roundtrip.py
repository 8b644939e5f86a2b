"""Property-based round trips: arbitrary workloads survive snapshot+WAL.

For any interleaving of purchases, repeat queries, and clock advances,
recovering from the durable state dir — whether the previous session
closed cleanly (snapshot path) or was killed (WAL replay path) — must
reconstruct the *entire* buyer state exactly: covered boxes, cached rows,
each table's running spend, the ISOMER histogram's refinement list, the
logical clock, and every billing bucket.
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PayLess, QueryOptions, TransportConfig
from repro.durable import backend
from repro.errors import ReproError
from repro.market.faults import FaultPolicy
from repro.serve import QueryScheduler, ServeConfig
from repro.stats.isomer import FeedbackHistogram

from tests.test_durability_chaos import make_market
from tests.test_serve import _wait_for

COUNTRIES = ("CountryA", "CountryB")


def weather_sql(country: str, lo: int, hi: int) -> str:
    return (
        "SELECT StationID, Date, Temperature FROM Weather "
        f"WHERE Country = '{country}' AND Date >= {lo} AND Date <= {hi}"
    )


def station_sql(country: str) -> str:
    return f"SELECT StationID, City FROM Station WHERE Country = '{country}'"


#: One operation: a Weather range query, a Station query, or a clock jump.
ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("weather"),
            st.sampled_from(COUNTRIES),
            st.integers(min_value=1, max_value=10),
            st.integers(min_value=0, max_value=4),
        ),
        st.tuples(st.just("station"), st.sampled_from(COUNTRIES)),
        st.tuples(st.just("clock"), st.integers(min_value=1, max_value=5)),
    ),
    min_size=1,
    max_size=5,
)


def apply_ops(payless: PayLess, ops) -> None:
    for op in ops:
        if op[0] == "weather":
            __, country, lo, span = op
            payless.query(weather_sql(country, lo, min(lo + span, 10)))
        elif op[0] == "station":
            payless.query(station_sql(op[1]))
        else:
            payless.store.advance_clock(payless.store.clock + op[1])


def capture(payless: PayLess) -> dict:
    """Everything the backend promises to persist, exactly."""
    state: dict = {"clock": payless.store.clock}
    for key, table_store in payless.store._tables.items():  # noqa: SLF001
        rows = table_store.all_rows()
        with table_store.lock:
            covers = [
                (c.box.extents, c.stored_at, c.row_count)
                for c in table_store._covers.values()  # noqa: SLF001
            ]
            spent = dict(table_store._spent)  # noqa: SLF001
        histogram = payless.catalog.statistics(key).histogram
        state[key] = {
            "covers": sorted(covers, key=repr),
            "rows": sorted(rows, key=repr),
            "spent": spent,
            "histogram": (
                histogram.state_snapshot()
                if isinstance(histogram, FeedbackHistogram)
                else None
            ),
        }
    state["totals"] = (
        payless.total_transactions,
        payless.total_price,
        payless.total_calls,
        payless.queries_executed,
        payless.total_wasted_transactions,
        payless.total_wasted_price,
        payless.total_coalesced_fetches,
        payless.total_coalesced_transactions,
        payless.total_coalesced_price,
    )
    state["bill"] = payless.durability.bill.to_json()
    return state


def durable(market, state_dir) -> PayLess:
    payless = PayLess.full(market, options=QueryOptions(durability=state_dir))
    payless.register_dataset("WHW")
    payless.recover()
    return payless


class TestRoundTripProperties:
    @settings(max_examples=25, deadline=None)
    @given(ops=ops_strategy, clean_close=st.booleans())
    def test_any_workload_survives_restart(self, ops, clean_close):
        with tempfile.TemporaryDirectory() as tmp:
            state_dir = Path(tmp) / "state"
            market = make_market()

            first = durable(market, state_dir)
            apply_ops(first, ops)
            before = capture(first)
            spent_before = market.ledger.spent.transactions
            if clean_close:
                first.close()  # snapshot path
            else:
                first.durability.abandon()  # kill: WAL replay path

            second = durable(market, state_dir)
            assert capture(second) == before
            # Recovery itself must not touch the market.
            assert market.ledger.spent.transactions == spent_before

    @settings(max_examples=10, deadline=None)
    @given(ops=ops_strategy)
    def test_two_generations_compact_identically(self, ops):
        """snapshot → more work → kill → replay-over-snapshot is exact."""
        with tempfile.TemporaryDirectory() as tmp:
            state_dir = Path(tmp) / "state"
            market = make_market()

            first = durable(market, state_dir)
            apply_ops(first, ops)
            first.durability.snapshot()
            apply_ops(first, ops)  # repeats: cache hits + clock churn
            before = capture(first)
            first.durability.abandon()

            second = PayLess.full(
                market, options=QueryOptions(durability=state_dir)
            )
            second.register_dataset("WHW")
            report = second.recover()
            assert report.snapshot_loaded
            assert capture(second) == before


class TestCompaction:
    def test_wal_compacts_at_a_query_boundary(self, tmp_path, monkeypatch):
        """Past ``COMPACT_AFTER`` WAL records, the next query boundary
        writes a snapshot and rotates the WAL; a kill after it recovers
        from that snapshot plus the newer segment, exactly."""
        monkeypatch.setattr(backend, "COMPACT_AFTER", 4)
        market = make_market()
        state_dir = tmp_path / "state"
        first = durable(market, state_dir)
        snapshots = []
        for sql in (
            weather_sql("CountryA", 1, 3),
            station_sql("CountryB"),
            weather_sql("CountryB", 4, 9),
            weather_sql("CountryA", 2, 7),
            station_sql("CountryA"),
        ):
            assert first.query(sql).stats.transactions > 0
            snapshots.append(len(list(state_dir.glob("snapshot-*.json"))))
        assert snapshots[0] == 0 and snapshots[-1] >= 1
        assert snapshots == sorted(snapshots)
        before = capture(first)
        spent_before = market.ledger.spent.transactions
        first.durability.abandon()  # no snapshot on the way out

        second = PayLess.full(market, options=QueryOptions(durability=state_dir))
        second.register_dataset("WHW")
        report = second.recover()
        assert report.snapshot_loaded and report.purchases_replayed > 0
        assert capture(second) == before
        assert market.ledger.spent.transactions == spent_before


class TestLockOrder:
    def test_a_snapshot_racing_a_purchase_finishes(self, tmp_path):
        """A purchase holds its table's lock while it folds into the bill;
        a snapshot takes every table lock, then the bill's.  One order, so
        a snapshot taken while a purchase sits inside ``store.record``
        waits for it instead of deadlocking, and what it wrote plus the
        WAL after it recovers the live state."""
        market = make_market()
        state_dir = tmp_path / "state"
        payless = durable(market, state_dir)
        recording = threading.Event()
        record = payless.store.record

        def slow_record(*args, **kwargs):
            recording.set()
            time.sleep(0.3)  # the snapshot reaches its locks meanwhile
            return record(*args, **kwargs)

        payless.store.record = slow_record
        buyer = threading.Thread(
            target=payless.query, args=(weather_sql("CountryA", 1, 5),), daemon=True
        )
        snapshotter = threading.Thread(
            target=lambda: (recording.wait(5.0), payless.durability.snapshot()),
            daemon=True,
        )
        buyer.start()
        snapshotter.start()
        buyer.join(timeout=5.0)
        snapshotter.join(timeout=5.0)
        assert not buyer.is_alive() and not snapshotter.is_alive()
        del payless.store.record
        before = capture(payless)
        assert before["weather"]["rows"]
        payless.durability.abandon()

        second = PayLess.full(market, options=QueryOptions(durability=state_dir))
        second.register_dataset("WHW")
        assert second.recover().snapshot_loaded
        assert capture(second) == before
        second.close()


class TestLegacyShimRegression:
    """The retired JSON blob's v1 format silently dropped the
    wasted/coalesced buckets; the WAL backend must carry them."""

    def test_wal_backend_keeps_all_buckets(self, tmp_path):
        """Both buckets come from money that really moved: a dropped
        response nothing retries is wasted, and a fetch that joins another
        session's in-flight call is coalesced."""
        market = make_market()
        options = QueryOptions(
            durability=tmp_path / "state",
            transport=TransportConfig(
                max_retries=0,
                partial_results=True,
                breaker_failure_threshold=10_000,
            ),
        )
        payless = PayLess.full(market, options=options)
        payless.register_dataset("WHW")
        payless.recover()
        transport = payless.context.transport
        transport.faults = FaultPolicy(
            seed=0, drop_rate=1.0, max_consecutive_faults=None
        )
        payless.query(weather_sql("CountryA", 2, 5))
        transport.faults = None

        real_get = market.get
        with QueryScheduler(payless, ServeConfig(workers=2)) as scheduler:
            group = scheduler.coalescer

            def gated_get(request, **kwargs):
                def joined():
                    with group._lock:
                        flight = group._flights.get(request.url())
                        return flight is not None and flight.waiters >= 1

                _wait_for(joined)
                return real_get(request, **kwargs)

            market.get = gated_get
            try:
                tickets = [
                    scheduler.session(name).submit(station_sql("CountryB"))
                    for name in ("alice", "bob")
                ]
                for ticket in tickets:
                    ticket.result(timeout=30.0)
            finally:
                market.get = real_get
        wasted = market.ledger.wasted_on_failures
        saved = market.ledger.coalesced_savings
        assert wasted.transactions > 0 and saved.calls >= 1
        payless.close()

        second = durable(market, tmp_path / "state")
        assert second.total_wasted_transactions == wasted.transactions
        assert second.total_coalesced_price == saved.price


class TestPersistenceWithPluginStatistic:
    def test_round_trip_without_isomer(self, tmp_path):
        """A statistic with no serializable state re-learns after a
        restart, but the store still comes back: nothing is re-bought."""
        market = make_market()

        def uniform():
            payless = PayLess.full(
                market,
                statistic="uniform",
                options=QueryOptions(durability=tmp_path / "state"),
            )
            payless.register_dataset("WHW")
            payless.recover()
            return payless

        first = uniform()
        first.query("SELECT * FROM Station")
        first.close()

        second = uniform()
        assert second.query("SELECT * FROM Station").stats.transactions == 0


class TestRestoreErrors:
    @pytest.mark.parametrize("clean_close", [True, False])
    def test_unregistered_table_on_restore(self, tmp_path, clean_close):
        market = make_market()
        first = durable(market, tmp_path / "state")
        first.query(station_sql("CountryA"))
        if clean_close:
            first.close()  # snapshot path
        else:
            first.durability.abandon()  # WAL replay path

        bare = PayLess.full(
            market, options=QueryOptions(durability=tmp_path / "state")
        )  # nothing registered
        with pytest.raises(ReproError, match="unregistered table"):
            bare.recover()

    def test_snapshot_meta_without_sidecar_flag_is_rejected(self, tmp_path):
        """Skipping such a snapshot would silently re-buy what it held."""
        market = make_market()
        first = durable(market, tmp_path / "state")
        first.query(station_sql("CountryA"))
        first.close()
        (meta,) = (tmp_path / "state").glob("snapshot-*.json")
        state = json.loads(meta.read_text())
        del state["tables_in_sidecar"]
        meta.write_text(json.dumps(state))

        with pytest.raises(ReproError, match=meta.name):
            PayLess.full(
                market, options=QueryOptions(durability=tmp_path / "state")
            )

    def test_snapshot_of_another_format_version_is_rejected(self, tmp_path):
        """A v2 state directory: the WAL segments its snapshot compacted
        are deleted, so skipping it would recover empty and re-buy."""
        market = make_market()
        first = durable(market, tmp_path / "state")
        first.query(station_sql("CountryA"))
        first.close()
        (meta,) = (tmp_path / "state").glob("snapshot-*.json")
        state = json.loads(meta.read_text())
        state["version"] = 2
        meta.write_text(json.dumps(state))

        with pytest.raises(ReproError, match="refusing to ignore purchased state"):
            PayLess.full(
                market, options=QueryOptions(durability=tmp_path / "state")
            )

    def test_a_version_4_snapshot_is_refused(self, tmp_path):
        """Version 4 kept the running totals as a "totals" block beside
        the bill; this build restores them from the bill alone, so it must
        refuse the old meta JSON rather than read half of it."""
        market = make_market()
        first = durable(market, tmp_path / "state")
        first.query(station_sql("CountryA"))
        first.close()
        (meta,) = (tmp_path / "state").glob("snapshot-*.json")
        state = json.loads(meta.read_text())
        assert state["version"] == backend.SNAPSHOT_VERSION == 5
        assert "totals" not in state and state["queries"] == 1
        state["version"] = 4
        state["totals"] = {"queries": state.pop("queries")}
        meta.write_text(json.dumps(state))

        with pytest.raises(ReproError, match="refusing to ignore purchased state"):
            PayLess.full(
                market, options=QueryOptions(durability=tmp_path / "state")
            )
