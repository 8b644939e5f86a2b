"""Durable buyer-side state: a write-ahead log with compacted snapshots.

Every purchase against the data market spends real money, so the moment
a charge lands it must survive a buyer-process crash — otherwise a
restart re-buys data the installation already paid for.  This package
is the incremental, crash-safe backend that prevents it:

* :mod:`repro.durable.wal` — append-only segments of length+CRC framed
  JSON records with torn-tail detection and fsync-batched group commit;
* :mod:`repro.durable.backend` — the :class:`DurableStateBackend` that
  journals intents, purchases, waste, histogram feedback, the logical
  clock and finished queries, writes compacted snapshots, and recovers a
  :class:`~repro.core.payless.PayLess` installation — store and bill — by
  replaying snapshot + WAL (rolling forward any purchase that was billed
  but never acknowledged, via the market's idempotency cache).

Enable it with ``QueryOptions(durability="state_dir/")`` (or a full
:class:`DurabilityConfig`), call ``payless.recover()`` after dataset
registration, and ``payless.close()`` on shutdown.
"""

from repro.durable.wal import SimulatedCrash, WriteAheadLog

__all__ = [
    "DurabilityConfig",
    "DurableStateBackend",
    "RecoveryReport",
    "SimulatedCrash",
    "WriteAheadLog",
]

#: Backend classes resolve lazily: the transport imports this package for
#: :class:`SimulatedCrash` while the store/market modules are still mid-
#: import, and the backend needs those modules — a cycle unless deferred.
_BACKEND_EXPORTS = frozenset(
    ("DurabilityConfig", "DurableStateBackend", "RecoveryReport")
)


def __getattr__(name: str):
    if name in _BACKEND_EXPORTS:
        from repro.durable import backend

        return getattr(backend, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
