"""The two fetch drivers as a test parameter, and a ledger to compare them by.

The market's latency model picks the driver once per query: at
``realtime_scale == 0`` every call runs inline on the querying thread; when
calls really wait they are pipelined on the event loop.  :func:`drive`
puts a market on the same :data:`LATENCY` at the scale that selects a
driver, so a parity test runs one model both ways and every simulated
number is the model's either way.
"""

from dataclasses import replace

from repro.market.latency import LatencyModel

#: At scale 0 nothing waits and calls run inline; at :data:`REALTIME_SCALE`
#: each call really waits a few microseconds, which puts it on the loop.
LATENCY = LatencyModel(round_trip_ms=60.0, per_transaction_ms=1.0)
REALTIME_SCALE = 0.001
DRIVERS = ("inline", "async")


def drive(market, driver, latency=LATENCY):
    """Put ``market`` on ``latency`` at the scale that selects ``driver``."""
    market.latency = replace(
        latency, realtime_scale=REALTIME_SCALE if driver == "async" else 0.0
    )
    return market


def canonical_ledger(ledger):
    """The ledger as a transport-independent value.

    Sorts entries by ``(url, idempotency key)`` and maps the keys to
    first-appearance ordinals: two runs then compare equal iff they billed
    the same calls for the same money with the same waste classification
    under the same keys — regardless of raw key text (which embeds a
    per-installation transport id).
    """
    entries = sorted(
        ledger,
        key=lambda e: (
            e.request.url(),
            e.idempotency_key or "",
            e.transactions,
            e.price,
        ),
    )
    keys = {}
    canon = []
    for entry in entries:
        key = entry.idempotency_key
        if key is not None:
            key = keys.setdefault(key, len(keys))
        canon.append(
            (
                entry.request.url(),
                entry.record_count,
                entry.transactions,
                entry.price,
                entry.elapsed_ms,
                ledger.is_wasted(entry),
                key,
            )
        )
    return canon
