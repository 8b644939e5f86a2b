"""The async pipelined market transport: pools, pipelining, one loop.

The paper is blunt that "the execution time of a query is, as usual,
dominated by the RESTful calls to the data seller" (Section 5).  On a
market whose calls really wait (``LatencyModel.realtime_scale > 0``) the
executor pipelines every call through this module; on an instant market
nothing can wait, so it drives the same machines inline instead
(:meth:`~repro.core.purchase.Purchases.start`).  This module
keeps the *money* machinery —
:meth:`~repro.market.transport.MarketTransport._fetch_machine` holds every
retry/billing/durability decision — and supplies the IO driver:

* **one persistent event loop** owned by a daemon thread.  Executors and
  serving sessions submit fetch coroutines onto it from any thread; one
  process can keep hundreds of calls in flight without hundreds of
  threads.
* **per-seller connection pools** — a bounded pool per dataset endpoint.
  ``LatencyModel.connection_setup_ms`` is paid once per pooled connection
  when it is first opened; reuse is free (counted per pool and summed in
  ``PayLess.metrics()["connections_reused"]``).  The inline driver, by
  contrast, charges setup on every physical call.
* **cooperative sleeps** — realtime market latency is awaited with
  ``asyncio.sleep`` instead of blocking a thread, which is what lets one
  access keep all of its calls in flight at once.

Money-safety is inherited, not re-implemented: both drivers run the
same sans-IO fetch machine, so idempotency keys, fault draws, retries,
backoff accounting, waste marking and durable-intent resolution are
identical by construction.  One level up it is the same arrangement: the
buyer's per-call protocol (singleflight sharing, failure capture) is
one generator, :meth:`~repro.core.purchase.Purchases._call_machine`, whose
``fetch`` effect :meth:`AsyncMarketTransport.fetch` answers and whose
``wait`` effect the loop's default executor answers.  What a call cost
comes back on its outcome, so coroutines interleaving on the loop thread
need no shared attribution state.
"""

from __future__ import annotations

import asyncio
import selectors
import threading

from repro.market.rest import RestRequest
from repro.market.transport import FetchResult, MarketTransport, QueryScope

#: Per-seller pool size: the in-flight depth cap of one installation, and
#: the lanes its executors pack each access's simulated call durations onto
#: for ``market_time_critical_path_ms``.  Coroutines waiting on latency are
#: nearly free, so the pool is deep.
DEFAULT_POOL_SIZE = 64


class _SellerPool:
    """A bounded connection pool for one dataset endpoint.

    All state is touched only from the event-loop thread, so plain
    integers suffice — the semaphore provides the bound, ``idle`` counts
    connections that were opened, used, and returned.
    """

    def __init__(self, size: int):
        self.semaphore = asyncio.Semaphore(size)
        self.idle = 0
        self.opened = 0
        self.reused = 0

    async def acquire(self, setup_ms: float, realtime_scale: float) -> float:
        """Claim a connection; returns the setup latency this claim paid:
        ``setup_ms`` for a fresh handshake and ``0.0`` for a reuse."""
        await self.semaphore.acquire()
        if self.idle:
            self.idle -= 1
            self.reused += 1
            return 0.0
        self.opened += 1
        if setup_ms and realtime_scale:
            await asyncio.sleep(setup_ms * realtime_scale / 1000.0)
        return setup_ms

    def release(self) -> None:
        self.idle += 1
        self.semaphore.release()


class AsyncMarketTransport:
    """Pipelined driver over a :class:`MarketTransport`'s fetch machine.

    Wraps — not replaces — the installation's synchronous transport, so
    circuit breakers, the simulated clock, per-URL key sequences and the
    durability backend are literally shared state: a chaos run issues the
    same keys and draws the same faults whichever driver executes it.

    The event loop starts lazily on first use and is owned by a daemon
    thread; :meth:`close` stops it (idempotent — a later fetch simply
    starts a fresh loop).  Submit work from any thread with
    :meth:`submit`, which returns a ``concurrent.futures.Future``.
    """

    def __init__(self, transport: MarketTransport):
        self.transport = transport
        self.market = transport.market
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._lifecycle_lock = threading.Lock()
        #: dataset.lower() -> _SellerPool; loop-thread-only state.
        self._pools: dict[str, _SellerPool] = {}

    # -- loop lifecycle --------------------------------------------------------

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        with self._lifecycle_lock:
            if self._loop is None:
                # select(), not epoll: the loop's only descriptor is its own
                # wake-up pipe, and select's timeout has microsecond
                # resolution where epoll rounds every wait up to the next
                # millisecond — a modelled 61.3 ms call would wait ~62.3.
                self._loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
                self._pools = {}
                self._thread = threading.Thread(
                    target=self._loop.run_forever,
                    name="market-aio-loop",
                    daemon=True,
                )
                self._thread.start()
            return self._loop

    def close(self) -> None:
        """Stop the event loop and join its thread.  Idempotent; a fetch
        after close lazily starts a fresh loop (with fresh pools)."""
        with self._lifecycle_lock:
            loop, thread = self._loop, self._thread
            self._loop = self._thread = None
        if loop is None:
            return
        loop.call_soon_threadsafe(loop.stop)
        if thread is not None:
            thread.join(timeout=30.0)
        loop.close()

    def submit(self, coro) -> "asyncio.Future":
        """Schedule a coroutine on the transport's loop from any thread."""
        return asyncio.run_coroutine_threadsafe(coro, self._ensure_loop())

    # -- the async call path ---------------------------------------------------

    def _pool_for(self, dataset: str) -> _SellerPool:
        key = dataset.lower()
        pool = self._pools.get(key)
        if pool is None:
            pool = _SellerPool(DEFAULT_POOL_SIZE)
            self._pools[key] = pool
        return pool

    def _get(self, request: RestRequest, key: str | None):
        """One physical call that never sleeps the loop."""
        if key is not None:
            return self.market.get(request, idempotency_key=key, sleep=False)
        return self.market.get(request, sleep=False)

    async def fetch(
        self, request: RestRequest, scope: QueryScope | None = None
    ) -> FetchResult:
        """Async twin of :meth:`MarketTransport.fetch`.

        Drives the same sans-IO machine; per physical call it claims a
        pooled connection (paying setup only on a fresh handshake), issues
        the synchronous ``market.get`` without its realtime sleep, then
        awaits the modelled latency cooperatively — except for idempotency
        replays, which are instant in both drivers.
        """
        transport = self.transport
        if scope is None:
            scope = transport.new_scope()
        machine = transport._fetch_machine(request, scope)
        latency = self.market.latency
        scale = latency.realtime_scale
        setup_ms = latency.connection_setup_ms
        pool = self._pool_for(request.dataset)
        try:
            effect = machine.send(None)
            while True:
                __, key, expect_replay = effect
                try:
                    connect_ms = await pool.acquire(setup_ms, scale)
                    try:
                        response = self._get(request, key)
                        if scale and not expect_replay:
                            # The connection is held across the transfer,
                            # exactly as a socket would be.
                            await asyncio.sleep(
                                response.elapsed_ms * scale / 1000.0
                            )
                    finally:
                        pool.release()
                except BaseException as error:
                    effect = machine.throw(error)
                else:
                    effect = machine.send((response, connect_ms))
        except StopIteration as stop:
            return stop.value

    # -- introspection ---------------------------------------------------------

    def pool_stats(self) -> dict[str, dict[str, int]]:
        """Per-seller ``{opened, reused, idle}`` counters of the live pools
        (racy but monotonic enough for benches and tests)."""
        return {
            name: {
                "opened": pool.opened,
                "reused": pool.reused,
                "idle": pool.idle,
            }
            for name, pool in list(self._pools.items())
        }

    def __repr__(self) -> str:
        state = "running" if self._loop is not None else "idle"
        return f"AsyncMarketTransport({state}, sellers={len(self._pools)})"
