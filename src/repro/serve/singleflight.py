"""Singleflight coalescing of in-flight market fetches.

Under concurrent serving, sessions sharing one installation routinely ask
the market for the *same* remainder box at the same time — popular regions
(today's weather for a hot country) are exactly the ones many tenants
query.  Without coordination each session pays for its own copy of data
that is about to land in the shared semantic store anyway.  This module
closes that window: overlapping in-flight fetches of one logical call key
bill exactly one market call, and every waiter shares the leader's rows.

Protocol (leader / follower):

* ``begin(key)`` — atomically join the in-flight :class:`Flight` for
  ``key`` or register a new one.  Exactly one caller per flight is the
  *leader* (``begin`` returned ``True``); it issues the real transport
  fetch and pays.
* the leader calls ``complete(flight, result)`` the moment the fetch
  returns — waiters wake immediately and read the shared
  :class:`~repro.market.transport.FetchResult` off the flight.
* a failing leader calls ``abort(flight, error)``: the flight is removed
  from the registry *before* waiters wake, so a waiter never receives rows
  from a fetch the market did not bill.  Woken waiters loop back through
  coverage re-check + ``begin`` and one of them becomes the new leader
  with its own retry budget (billing stays at-most-once per *successful*
  fetch; a failed leader billed nothing, by the transport's waste
  accounting).
* the leader calls ``release(flight)`` only after it has *recorded* the
  purchased rows into the semantic store (under the store's table lock).

That last point is the invariant the whole design rests on: a completed
flight stays registered until its rows are in the store.  At any instant
after the first ``begin(key)``, a new query for the same box therefore
either joins a live flight (free) or finds the box covered (free) — the
fetch-completed-but-not-yet-recorded window can never double-bill.

Lock order: callers may invoke ``begin``/``release`` while holding a
store table lock (table lock > singleflight lock); this module never
calls back into the store.  ``Flight.wait`` must be called with **no**
locks held.
"""

from __future__ import annotations

import threading
from repro.market.transport import FetchResult


class Flight:
    """One in-flight (or just-landed) logical fetch, shared by its waiters."""

    __slots__ = ("key", "result", "error", "failed", "waiters", "_event")

    def __init__(self, key: str):
        self.key = key
        self.result: FetchResult | None = None
        self.error: Exception | None = None
        self.failed = False
        #: How many followers joined (leader excluded); bookkeeping only.
        self.waiters = 0
        self._event = threading.Event()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    @property
    def completed(self) -> bool:
        return self.done and not self.failed

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the leader completed or aborted.  No locks held!"""
        return self._event.wait(timeout)

    def __repr__(self) -> str:
        state = (
            "failed" if self.failed else "done" if self.done else "in-flight"
        )
        return f"Flight({self.key!r}, {state}, {self.waiters} waiters)"


class SingleflightGroup:
    """The per-installation registry of in-flight fetch keys."""

    def __init__(self):
        self._flights: dict[str, Flight] = {}
        self._lock = threading.Lock()
        #: Lifetime counters (asserted by tests, shown by benches).
        self.flights_led = 0
        self.fetches_coalesced = 0
        self.flights_aborted = 0

    # -- the protocol ---------------------------------------------------------

    def begin(self, key: str) -> tuple[Flight, bool]:
        """Join ``key``'s flight, or lead a new one.

        Returns ``(flight, is_leader)``.  Callers may hold a store table
        lock (the allowed order); this only touches the registry lock.
        """
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                flight.waiters += 1
                self.fetches_coalesced += 1
                return flight, False
            flight = Flight(key)
            self._flights[key] = flight
            self.flights_led += 1
            return flight, True

    def complete(self, flight: Flight, result: FetchResult) -> None:
        """Leader: publish the landed result.  The flight STAYS registered
        (new arrivals keep joining for free) until :meth:`release`."""
        flight.result = result
        flight._event.set()

    def abort(self, flight: Flight, error: Exception | None = None) -> None:
        """Leader: the fetch failed — deregister, then wake waiters.

        Deregistering first guarantees no new waiter can join a failed
        flight; woken waiters re-check coverage and re-``begin``.
        """
        with self._lock:
            if self._flights.get(flight.key) is flight:
                del self._flights[flight.key]
            self.flights_aborted += 1
        flight.error = error
        flight.failed = True
        flight._event.set()

    def release(self, flight: Flight) -> None:
        """Leader: the rows are recorded in the store — retire the flight.

        Must be called while holding the store's table lock for the
        table the rows were recorded into, so "flight gone" and "box
        covered" switch over atomically from any observer's view.
        Removing only *this* flight object keeps a successor flight
        (started after an abort) untouched.
        """
        with self._lock:
            if self._flights.get(flight.key) is flight:
                del self._flights[flight.key]

    # -- introspection --------------------------------------------------------

    @property
    def in_flight(self) -> int:
        with self._lock:
            return len(self._flights)

    def __repr__(self) -> str:
        return (
            f"SingleflightGroup({self.in_flight} in flight, "
            f"{self.flights_led} led, {self.fetches_coalesced} coalesced, "
            f"{self.flights_aborted} aborted)"
        )
