"""Simulated REST-call latency.

The paper's efficiency discussion (Section 5): "the execution time of a
query is, as usual, dominated by the RESTful calls to the data seller.
Nevertheless, a query can still finish within seconds."  The simulator
models that wall-clock dimension without actually sleeping: each call is
charged a round-trip plus a per-transaction transfer time, accumulated in
the billing ledger, so examples and benches can report how long a plan
*would* take against a real market.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MarketError


@dataclass(frozen=True)
class LatencyModel:
    """A simple affine latency model per REST call."""

    #: Fixed per-call round-trip time (connection + auth + request).
    round_trip_ms: float = 150.0
    #: Transfer time per transaction page of results.
    per_transaction_ms: float = 25.0
    #: When positive, the market actually *waits* ``call_ms * scale`` of
    #: real wall-clock per call instead of only accounting it.  ``0``
    #: (the default) keeps everything simulated and instant.  It also
    #: picks the executor's fetch driver, once per query: calls that wait
    #: are pipelined on the event loop of :mod:`repro.market.aio`, calls
    #: that cannot are driven inline on the querying thread.
    realtime_scale: float = 0.0
    #: Connection establishment cost (TCP + TLS + auth handshake), in
    #: simulated milliseconds.  The inline driver charges it on every
    #: physical call; the event-loop driver's per-seller pools pay it
    #: once per pooled connection and reuse the connection afterwards
    #: (:mod:`repro.market.aio`).  Charged *client-side* — it never enters
    #: the server's billing ledger, so both drivers stay
    #: ledger-byte-identical.  Default 0 keeps every existing number and
    #: golden unchanged.
    connection_setup_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.round_trip_ms < 0 or self.per_transaction_ms < 0:
            raise MarketError("latency components cannot be negative")
        if self.realtime_scale < 0:
            raise MarketError("realtime_scale cannot be negative")
        if self.connection_setup_ms < 0:
            raise MarketError("connection_setup_ms cannot be negative")

    @property
    def is_instant(self) -> bool:
        """Whether every call is modelled as taking zero wall-clock."""
        return (
            self.round_trip_ms == 0.0
            and self.per_transaction_ms == 0.0
            and self.connection_setup_ms == 0.0
        )

    def call_ms(self, transactions: int) -> float:
        """Simulated wall-clock of one call returning ``transactions`` pages."""
        if transactions < 0:
            raise MarketError("transaction count cannot be negative")
        return self.round_trip_ms + transactions * self.per_transaction_ms


#: Latencies in the spirit of a cross-region HTTPS API circa the paper.
DEFAULT_LATENCY = LatencyModel()

#: A zero-latency model for tests that only care about money.
INSTANT = LatencyModel(round_trip_ms=0.0, per_transaction_ms=0.0)
