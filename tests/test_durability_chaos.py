"""Kill-mid-purchase chaos: crash at every WAL stage, recover, audit money.

The durable backend's claim is *at-most-once billing under kill-at-any-
byte*: whatever byte the buyer process dies at, recovery must (a) never
re-buy a box the crashed run already paid for, (b) never lose a purchase
that was billed, and (c) leave a store that answers every query
byte-identically to an uncrashed oracle.  These tests kill a run at every
WAL stage — before the record is written (``pre``), mid-frame (``torn``),
and after the frame but before the caller is acknowledged (``post``) —
for both intent and purchase records, under several crash-site seeds, and
audit the market's ledger against a fault-free oracle afterwards.
"""

from __future__ import annotations

import pytest

from repro import (
    BindingPattern,
    DataMarket,
    Dataset,
    PayLess,
    PricingPolicy,
    QueryOptions,
    Table,
    TransportConfig,
)
from repro.durable.backend import DurabilityConfig
from repro.durable.wal import SimulatedCrash, iter_records
from repro.market.faults import FaultPolicy
from repro.relational.schema import Attribute, Domain, Schema
from repro.relational.types import AttributeType as T

#: Crash-site seeds: each picks a different append to die at.
SEEDS = (7, 23, 101)

#: The audited workload: overlapping ranges (rewrite remainders), a second
#: table, and a repeat (must be free) — every WAL record type appears.
QUERIES = (
    "SELECT StationID, Date, Temperature FROM Weather "
    "WHERE Country = 'CountryA' AND Date >= 3 AND Date <= 5",
    "SELECT StationID, City FROM Station WHERE Country = 'CountryA'",
    "SELECT StationID, Date, Temperature FROM Weather "
    "WHERE Country = 'CountryA' AND Date >= 4 AND Date <= 7",
    "SELECT StationID, Date, Temperature FROM Weather "
    "WHERE Country = 'CountryB' AND Date >= 1 AND Date <= 2",
)


def make_market() -> DataMarket:
    countries = ["CountryA", "CountryB"]
    cities = ["Alpha", "Beta", "Gamma", "Delta"]
    stations = [
        ("CountryA", 1, "Alpha"),
        ("CountryA", 2, "Alpha"),
        ("CountryA", 3, "Beta"),
        ("CountryA", 4, "Gamma"),
        ("CountryB", 5, "Delta"),
        ("CountryB", 6, "Delta"),
    ]
    weather = [
        (country, sid, day, float(sid * 10 + day))
        for country, sid, __ in stations
        for day in range(1, 11)
    ]
    station_schema = Schema(
        [
            Attribute("Country", T.STRING, Domain.categorical(countries)),
            Attribute("StationID", T.INT, Domain.numeric(1, 6)),
            Attribute("City", T.STRING, Domain.categorical(cities)),
        ]
    )
    weather_schema = Schema(
        [
            Attribute("Country", T.STRING, Domain.categorical(countries)),
            Attribute("StationID", T.INT, Domain.numeric(1, 6)),
            Attribute("Date", T.DATE, Domain.numeric(1, 10)),
            Attribute("Temperature", T.FLOAT),
        ]
    )
    dataset = Dataset("WHW", PricingPolicy(tuples_per_transaction=10))
    dataset.add_table(
        Table("Station", station_schema, stations),
        BindingPattern.parse("Station", "Countryf, StationIDf, Cityf"),
    )
    dataset.add_table(
        Table("Weather", weather_schema, weather),
        BindingPattern.parse("Weather", "Countryf, StationIDf, Datef"),
    )
    market = DataMarket()
    market.publish(dataset)
    return market


def build_durable(
    market: DataMarket, state_dir, faults: FaultPolicy | None = None
) -> PayLess:
    options = QueryOptions(
        durability=DurabilityConfig(state_dir=state_dir),
        transport=TransportConfig(faults=faults) if faults else None,
    )
    payless = PayLess.full(market, options=options)
    payless.register_dataset("WHW")
    payless.recover()
    return payless


def oracle_run() -> tuple[list[list[tuple]], DataMarket]:
    """The uncrashed, fault-free, in-memory reference run."""
    market = make_market()
    payless = PayLess.full(market)
    payless.register_dataset("WHW")
    rows = [sorted(payless.query(sql).relation.rows) for sql in QUERIES]
    return rows, market


class CrashAt:
    """Arm a WAL crash at the ``ordinal``-th append of record type ``kind``.

    ``stage`` picks the byte to die at: ``pre`` writes nothing of the
    frame, ``torn`` writes half of it, ``post`` writes all of it but
    raises before the caller is acknowledged.
    """

    CUTS = ("pre", "torn", "post")

    def __init__(self, kind: str, ordinal: int, stage: str):
        self.kind = kind
        self.ordinal = ordinal
        self.stage = stage
        self.seen = 0
        self.fired = False

    def __call__(self, payload: dict, frame: bytes) -> int | None:
        if self.fired or payload.get("t") != self.kind:
            return None
        self.seen += 1
        if self.seen < self.ordinal:
            return None
        self.fired = True
        if self.stage == "pre":
            return 0
        if self.stage == "torn":
            return len(frame) // 2
        return len(frame)


def run_workload_until_crash(payless: PayLess) -> list | None:
    """Run QUERIES; on SimulatedCrash, abandon the WAL (the kill) and
    return None.  Without a crash, return the per-query sorted rows."""
    rows = []
    try:
        for sql in QUERIES:
            rows.append(sorted(payless.query(sql).relation.rows))
    except SimulatedCrash:
        payless.durability.abandon()
        return None
    return rows


def assert_at_most_once_billing(market: DataMarket) -> None:
    """No idempotency key is billed by more than one ledger entry."""
    seen: dict[str, int] = {}
    for entry in market.ledger:
        if entry.idempotency_key is None:
            continue
        seen[entry.idempotency_key] = seen.get(entry.idempotency_key, 0) + 1
    doubled = {key: n for key, n in seen.items() if n > 1}
    assert not doubled, f"keys billed more than once: {doubled}"


def assert_bill_matches_ledger(payless: PayLess, market: DataMarket) -> None:
    """The buyer's durable bill, and the running totals that are views of
    it, agree with the market's ledger."""
    bill = payless.durability.bill
    ledger = market.ledger
    spent = ledger.spent
    wasted = ledger.wasted_on_failures
    assert bill.spent_transactions == spent.transactions
    assert bill.spent_price == pytest.approx(spent.price)
    assert bill.wasted_transactions == wasted.transactions
    assert bill.wasted_price == pytest.approx(wasted.price)
    assert payless.total_transactions == spent.transactions
    assert payless.total_price == pytest.approx(spent.price)
    assert payless.total_wasted_transactions == wasted.transactions
    assert payless.total_wasted_price == pytest.approx(wasted.price)
    assert payless.total_calls == ledger.total_calls
    assert payless.total_coalesced_fetches == ledger.coalesced_savings.calls


class TestStageCrashMatrix:
    """Kill at every stage of both money-bearing record types, at crash
    sites chosen by each seed, then recover *against the same market*
    (the billed-but-unacknowledged charge must be adopted, not re-billed).
    """

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("stage", CrashAt.CUTS)
    @pytest.mark.parametrize("kind", ("in", "buy"))
    def test_crash_recover_audit(self, tmp_path, seed, stage, kind):
        oracle_rows, oracle_market = oracle_run()
        market = make_market()
        state_dir = tmp_path / f"state-{kind}-{stage}-{seed}"

        crashed = build_durable(market, state_dir)
        hook = CrashAt(kind, ordinal=(seed % 3) + 1, stage=stage)
        crashed.durability.wal.crash_hook = hook
        survived = run_workload_until_crash(crashed)
        assert survived is None and hook.fired, "the workload must crash"

        recovered = build_durable(market, state_dir)
        assert recovered.durability.pending_intents == []
        rows = [
            sorted(recovered.query(sql).relation.rows) for sql in QUERIES
        ]
        assert rows == oracle_rows

        # The money audit: exactly the oracle's spend, nothing double-
        # billed, nothing lost, and the durable bill agrees with the
        # market's own ledger.
        spent = market.ledger.spent
        oracle_spent = oracle_market.ledger.spent
        assert spent.transactions == oracle_spent.transactions
        assert spent.price == pytest.approx(oracle_spent.price)
        assert not market.ledger.wasted_on_failures
        assert_at_most_once_billing(market)
        assert_bill_matches_ledger(recovered, market)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_billed_but_unlogged_purchase_is_adopted(self, tmp_path, seed):
        """The narrowest window: the market billed the call, the crash hit
        before the purchase record became durable.  Recovery must re-issue
        the intent's key and adopt the charge via the idempotency cache —
        the market's replay counter is the proof nothing was re-billed."""
        oracle_rows, oracle_market = oracle_run()
        market = make_market()
        state_dir = tmp_path / f"adopt-{seed}"

        crashed = build_durable(market, state_dir)
        hook = CrashAt("buy", ordinal=(seed % 3) + 1, stage="torn")
        crashed.durability.wal.crash_hook = hook
        assert run_workload_until_crash(crashed) is None
        billed_before = market.ledger.spent.transactions
        replays_before = market.replay_count

        recovered = build_durable(market, state_dir)
        report = recovered.durability
        assert market.replay_count > replays_before, (
            "recovery must adopt the orphaned charge via idempotency "
            "replay, not issue a fresh billed call"
        )
        assert market.ledger.spent.transactions == billed_before
        rows = [
            sorted(recovered.query(sql).relation.rows) for sql in QUERIES
        ]
        assert rows == oracle_rows
        assert (
            market.ledger.spent.transactions
            == oracle_market.ledger.spent.transactions
        )
        assert report.pending_intents == []


class TestFaultySeeds:
    """Crashes layered on transient market faults: retries, idempotency
    replays, and a kill mid-purchase all in one run."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_crash_under_fault_injection(self, tmp_path, seed):
        oracle_rows, __ = oracle_run()
        market = make_market()
        faults = FaultPolicy.uniform(seed=seed, rate=0.08)
        state_dir = tmp_path / f"faulty-{seed}"

        crashed = build_durable(market, state_dir, faults=faults)
        hook = CrashAt("buy", ordinal=2, stage="torn")
        crashed.durability.wal.crash_hook = hook
        assert run_workload_until_crash(crashed) is None

        recovered = build_durable(market, state_dir, faults=faults)
        assert recovered.durability.pending_intents == []
        rows = [
            sorted(recovered.query(sql).relation.rows) for sql in QUERIES
        ]
        # Faults change the billing series (wasted charges), never the
        # answers; the oracle comparison is on results only.
        assert rows == oracle_rows
        assert_at_most_once_billing(market)
        assert_bill_matches_ledger(recovered, market)


class TestTruncatedPrefixSweep:
    """Recovery from *every* sampled truncation point of a real WAL: each
    prefix must recover cleanly into a fresh market and still produce the
    oracle's answers after re-running the workload."""

    def _workload_wal(self, tmp_path) -> bytes:
        market = make_market()
        payless = build_durable(market, tmp_path / "full-run")
        for sql in QUERIES:
            payless.query(sql)
        payless.durability.abandon()
        segment = tmp_path / "full-run" / "wal-00000001.log"
        return segment.read_bytes()

    def test_every_sampled_prefix_recovers(self, tmp_path):
        oracle_rows, oracle_market = oracle_run()
        data = self._workload_wal(tmp_path)
        records, valid = iter_records(data)
        assert valid == len(data) and len(records) >= len(QUERIES)

        # Frame boundaries plus intra-frame cuts around each boundary —
        # the byte positions where recovery behaviour can change.
        boundaries = [0]
        offset = 0
        from repro.durable.wal import encode_record

        for record in records:
            offset += len(encode_record(record))
            boundaries.append(offset)
        cuts = set(boundaries)
        for boundary in boundaries[1:]:
            cuts.add(boundary - 3)  # torn tail of the preceding frame
            cuts.add(boundary + 2)  # torn header of the following frame
        cuts = sorted(c for c in cuts if 0 <= c <= len(data))

        for cut in cuts:
            market = make_market()
            state_dir = tmp_path / f"cut-{cut}"
            state_dir.mkdir()
            (state_dir / "wal-00000001.log").write_bytes(data[:cut])
            payless = build_durable(market, state_dir)
            assert payless.durability.pending_intents == []
            rows = [
                sorted(payless.query(sql).relation.rows) for sql in QUERIES
            ]
            assert rows == oracle_rows, f"divergence at cut {cut}"
            # A prefix can only make the fresh market bill *less* than the
            # oracle (replayed purchases cost nothing), never more.
            assert (
                market.ledger.spent.transactions
                <= oracle_market.ledger.spent.transactions
            ), f"overspend at cut {cut}"
            assert_at_most_once_billing(market)
