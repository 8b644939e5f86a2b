"""The six workloads: what each sets up, runs once, and checks.

Every workload drives the *default* installation through its public
surface only — ``PayLess(market, local_db=..., options=QueryOptions(...))``,
``query``, ``explain``, ``QueryScheduler``, ``recover``, ``close`` — and
reads ``result.stats``.  No transport mode, prefetch switch, DP flag or
ablation knob is passed, so whatever the default fetch driver and DP
program are is what gets measured.

A workload *draws* its inputs from a draw seed, *installs* afresh on them,
runs *repetitions* of a fixed amount of work on that installation and
checks every outcome against its oracle.  The worker installs again — on
the same draw ``installs_per_draw`` times, then on the next — until
``--seconds`` of timed work has run: one run covers several independent
draws of the data and its medians do not hinge on one of them, and the
oracle, which costs as much as the work it checks, answers each draw once.

The draw seed generates the *data* (and the order of a replay).  The
*session* over it — which template asks for which window, in which order,
which ticket is due when — is part of the workload's definition and comes
from the fixed ``SESSION_SEED``, like a traffic mix.  It has to: on TPC-H
the store's fragmentation, and with it the rewriter's work, depends
chaotically on the windows and their order (sessions drawn from the seed
ran 0.7 s to 80 s on the same data size), while one session over freshly
drawn data repeats within 16%.  Sizes were probed on a 2-core shared box
so that a repetition takes 0.3-5 s: short enough that the machine's speed,
probed before and after it (``calibrate.py``), is the speed it ran at.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import Bracket, Sampler
from instances import tpch_session, weather_session
from oracle import GroundTruth

from repro.core.objectives import QueryOptions
from repro.core.payless import PayLess
from repro.errors import AdmissionError
from repro.market.latency import LatencyModel
from repro.market.server import DataMarket
from repro.serve.scheduler import QueryScheduler, ServeConfig
from repro.workloads.synthetic import make_join_graph
from repro.workloads.tpch import TpchConfig, generate_tpch_workload
from repro.workloads.weather import (
    TEMPLATES as WEATHER_TEMPLATES,
    WeatherConfig,
    generate_weather_workload,
)

OUT_DIR = Path(__file__).resolve().parent / "out"

#: How long one ``ticket.result()`` may take before the op counts as failed.
RESULT_TIMEOUT_S = 30.0

#: Seeds the session of every workload (see the module docstring).
SESSION_SEED = 99


@dataclass
class Repetition:
    """What one repetition measured, and what it has to be checked on."""

    wall_s: float
    cpu_s: float
    latencies_ms: list[float]
    #: ``(request, outcome)`` per op; the outcome is the result object or
    #: the exception the op raised.
    outcomes: list[tuple]
    #: Dollars the answers cost that no ledger shows (price quotes).
    quoted_dollars: float = 0.0
    #: Load-generator bookkeeping of the serve workloads.
    submits: list[float] = field(default_factory=list)
    late_ms_max: float = 0.0
    admission_rejects: int = 0


def closed_loop(requests, call) -> Repetition:
    """One client: the next request is sent when the previous returned."""
    latencies, outcomes = [], []
    cpu_start = time.process_time()
    started = time.perf_counter()
    for request in requests:
        sent = time.perf_counter()
        try:
            outcome = call(request)
        except Exception as error:  # noqa: BLE001 - a failed op, counted
            outcome = error
        latencies.append((time.perf_counter() - sent) * 1000.0)
        outcomes.append((request, outcome))
    wall = time.perf_counter() - started
    return Repetition(wall, time.process_time() - cpu_start, latencies, outcomes)


def new_installation(market: DataMarket, data, options: QueryOptions) -> PayLess:
    """A default installation registered for everything ``data`` offers."""
    payless = PayLess(market, local_db=data.local_database(), options=options)
    for dataset in data.datasets:
        payless.register_dataset(dataset.name)
    return payless


def publish(data, latency: LatencyModel | None = None) -> DataMarket:
    market = DataMarket(latency)
    for dataset in data.datasets:
        market.publish(dataset)
    return market


class Workload:
    """Shared plumbing; subclasses say what is set up and what one
    repetition runs."""

    name = ""
    #: Fresh installations made on one draw of the inputs before the next
    #: draw, and repetitions run on each.
    installs_per_draw = 1
    reps_per_setup = 1
    #: The time metrics that are CPU work and so are scaled to the
    #: reference machine's speed, and the probe that measures the speed a
    #: repetition ran at (``calibrate.py``).
    speed_scaled = ("setup_s", "ops_per_s", "p50_ms", "p95_ms", "cpu_ms_per_op")
    speed_meter = Bracket

    def __init__(self, smoke: bool):
        self.smoke = smoke
        self.payless: PayLess | None = None
        #: The inputs of the current draw, and the oracle over them (built
        #: on first use, outside set-up time).
        self.draw_seed: int | None = None
        self.data = None
        self.truth = None
        #: What restarts took and replayed (``serve_chaos`` only).
        self.recover_s: list[float] = []
        self.recovered_records: list[int] = []

    # -- to override ----------------------------------------------------------

    def draw(self, draw_seed: int) -> None:
        """Generate the inputs (data and session) from ``draw_seed``."""
        raise NotImplementedError

    def install(self) -> None:
        """Publish the drawn data on a fresh market and install on it."""
        raise NotImplementedError

    def repetition(self, index: int) -> Repetition:
        raise NotImplementedError

    def teardown(self) -> tuple[int, int]:
        """Shut the set-up down; returns ``(checks, failures)`` of whatever
        it verified on the way out (restarts, on ``serve_chaos``)."""
        self.payless.close()
        return 0, 0

    @property
    def installations(self) -> list[PayLess]:
        return [self.payless]

    # -- set-up ---------------------------------------------------------------

    def setup(self, draw_seed: int) -> bool:
        """A fresh installation on the inputs of ``draw_seed``.  Returns
        whether the inputs were drawn now — a whole set-up, one sample of
        ``setup_s`` — or were those of the previous installation."""
        drew = draw_seed != self.draw_seed
        if drew:
            self.draw_seed, self.truth = draw_seed, None
            self.draw(draw_seed)
        self.install()
        return drew

    # -- checking -------------------------------------------------------------

    def failed(self, rep: Repetition) -> int:
        """Ops that raised, were refused, timed out or returned rows that
        differ from the oracle's."""
        if self.truth is None:
            self.truth = GroundTruth(
                self.data.datasets, self.data.local_database()
            )
        failures = 0
        for (sql, params), outcome in rep.outcomes:
            if isinstance(outcome, Exception) or self.truth.wrong(
                sql, params, outcome.rows
            ):
                failures += 1
        return failures


def _query(payless: PayLess):
    def call(request):
        result = payless.query(*request)
        result.rows  # noqa: B018 - a user reads the rows: materialize them
        return result

    return call


# -- weather_cold / weather_warm ----------------------------------------------


def weather_config(seed: int, stations_per_country: int) -> WeatherConfig:
    return WeatherConfig(
        countries=8,
        stations_per_country=stations_per_country,
        cities_per_country=20,
        days=240,
        seed=seed,
    )


class WeatherCold(Workload):
    """The paper's Table 1 session on a fresh installation (write path)."""

    name = "weather_cold"
    installs_per_draw = 4

    def draw(self, draw_seed: int) -> None:
        self.data = generate_weather_workload(
            weather_config(draw_seed, 6 if self.smoke else 12)
        )
        self.requests = weather_session(
            self.data, random.Random(SESSION_SEED), 3 if self.smoke else 20
        )

    def install(self) -> None:
        self.market = publish(self.data)
        self.payless = new_installation(self.market, self.data, QueryOptions())

    def repetition(self, index: int) -> Repetition:
        return closed_loop(self.requests, _query(self.payless))


class WeatherWarm(WeatherCold):
    """The same instances reshuffled and replayed on the installation the
    cold session left behind (read path; set-up is that cold pass)."""

    name = "weather_warm"
    installs_per_draw = 1
    reps_per_setup = 8

    def install(self) -> None:
        super().install()
        self.cold_pass = super().repetition(0)
        self.shuffler = random.Random(self.draw_seed + 1)

    def repetition(self, index: int) -> Repetition:
        # Two reshuffled passes: a repetition long enough that the speed
        # probes around it are a small share of the run.
        requests = []
        for __ in range(2):
            replay = list(self.requests)
            self.shuffler.shuffle(replay)
            requests += replay
        return closed_loop(requests, _query(self.payless))

    def failed(self, rep: Repetition) -> int:
        failures = super().failed(rep)
        if self.cold_pass is not None:  # checked once, outside set-up time
            failures += super().failed(self.cold_pass)
            self.cold_pass = None
        return failures


# -- tpch_session -------------------------------------------------------------


class TpchSession(Workload):
    """TPC-H templates on a fresh installation: multi-dimensional boxes and
    bind joins, staged relations through executor, store assembly and
    engine; little market, little planning.  Small on purpose: see the
    README on how TPC-H sessions fragment the store."""

    name = "tpch_session"

    def draw(self, draw_seed: int) -> None:
        self.data = generate_tpch_workload(
            TpchConfig(scale=0.1 if self.smoke else 0.25, seed=draw_seed)
        )
        self.requests = tpch_session(
            self.data, random.Random(SESSION_SEED), 1 if self.smoke else 2
        )

    def install(self) -> None:
        self.market = publish(self.data)
        self.payless = new_installation(self.market, self.data, QueryOptions())

    def repetition(self, index: int) -> Repetition:
        return closed_loop(self.requests, _query(self.payless))


# -- joingraph_quote ----------------------------------------------------------

#: (shape, tables, requests per repetition).  chain-10 gets a double share
#: so the median request falls inside one graph's latencies, not on the
#: boundary between two.  A repetition is short (1.4 s) so that a run has
#: four or five of them for its medians.
JOIN_GRAPHS = (
    ("chain", 8, 4),
    ("chain", 10, 8),
    ("star", 8, 4),
    ("star", 9, 4),
    ("star", 10, 4),
    ("clique", 6, 4),
)
SMOKE_JOIN_GRAPHS = (("chain", 6, 3), ("star", 6, 3), ("clique", 4, 3))
DOMAIN_HIGH = 32


class JoinGraphQuote(Workload):
    """``explain()`` only — a price quote: no call, no bill.  Every request
    carries a fresh range on ``T1`` so the plan cache always misses, and
    objectives alternate min-dollars and min-latency, so the scalar and the
    Pareto DP program both run cold."""

    name = "joingraph_quote"
    installs_per_draw = 4

    @property
    def shapes(self) -> tuple:
        return SMOKE_JOIN_GRAPHS if self.smoke else JOIN_GRAPHS

    def _installations(self) -> dict[tuple, tuple]:
        """(shape, n) -> (a fresh installation over that graph, its data)."""
        return {
            graph: (new_installation(publish(data), data, QueryOptions()), data)
            for graph, data in self.data.items()
        }

    def draw(self, draw_seed: int) -> None:
        self.data = {
            (shape, n): make_join_graph(
                shape, n, seed=draw_seed, domain_high=DOMAIN_HIGH
            )
            for shape, n, __ in self.shapes
        }
        rng = random.Random(SESSION_SEED)
        self.requests = []
        for shape, n, count in self.shapes:
            data = self.data[shape, n]
            column = data.dataset.table("T1").schema.names[0]
            ranges = [
                (low, high)
                for low in range(1, DOMAIN_HIGH // 2 + 1)
                for high in range(low + DOMAIN_HIGH // 4, DOMAIN_HIGH + 1)
            ]
            for index, (low, high) in enumerate(rng.sample(ranges, count)):
                sql = (
                    f"{data.sql} AND T1.{column} >= {low} "
                    f"AND T1.{column} <= {high}"
                )
                objective = None if index % 2 == 0 else "min_latency"
                self.requests.append(((shape, n), sql, objective))
        rng.shuffle(self.requests)

    def install(self) -> None:
        self.graphs = self._installations()

    @property
    def installations(self) -> list[PayLess]:
        return [payless for payless, __ in self.graphs.values()]

    def repetition(self, index: int) -> Repetition:
        def call(request):
            graph, sql, objective = request
            return self.graphs[graph][0].explain(sql, (), objective=objective)

        rep = closed_loop(self.requests, call)
        rep.quoted_dollars = sum(
            outcome.cost
            for __, outcome in rep.outcomes
            if not isinstance(outcome, Exception)
        )
        return rep

    def teardown(self) -> tuple[int, int]:
        for payless in self.installations:
            payless.close()
        return 0, 0

    def failed(self, rep: Repetition) -> int:
        """A quote is right when a second, fresh installation quotes the
        same price, and no plan came from the cache."""
        if self.truth is None:
            fresh = self._installations()
            self.truth = {
                request: fresh[request[0]][0]
                .explain(request[1], (), objective=request[2])
                .cost
                for request in self.requests
            }
            for payless, __ in fresh.values():
                payless.close()
        failures = 0
        for request, outcome in rep.outcomes:
            if (
                isinstance(outcome, Exception)
                or outcome.from_cache
                or outcome.cost != self.truth[request]
            ):
                failures += 1
        return failures


# -- serve_steady / serve_chaos -----------------------------------------------

TENANTS = 4
RATE_PER_S = 20.0
#: The history the gap-fill windows lie in, and where "today" starts.
HISTORY_DAYS = 180
WINDOW_DAYS = 45
STRIPE_PERIOD = 5
FIRST_TODAY = 190
Q1 = WEATHER_TEMPLATES["Q1"]
Q3 = WEATHER_TEMPLATES["Q3"]


class ServeSteady(Workload):
    """Four tenants behind the scheduler, open loop below the knee, against
    a market that really sleeps: time is market, queue and singleflight
    wait.  Mix by ops: 40% dashboard bursts (all tenants, identical query,
    same due time), 40% private sliding windows over an advancing today,
    20% gap-fill windows straddling stripes bought during set-up (nine
    remainder calls per access)."""

    name = "serve_steady"
    open_loop = True
    #: A REST call takes 60 ms plus 1 ms per transaction: three quarters of
    #: an op's latency is this wait, which no neighbour on the host slows
    #: down.  ``ops_per_s`` is the schedule's rate.
    latency = LatencyModel(round_trip_ms=60.0, per_transaction_ms=1.0, realtime_scale=1.0)
    #: Latency is mostly that wait and is reported as measured.
    speed_scaled = ("setup_s", "cpu_ms_per_op")
    speed_meter = Sampler

    def options(self) -> QueryOptions:
        return QueryOptions()

    def draw(self, draw_seed: int) -> None:
        bursts, sliding, gap_fills = (2, 8, 4) if self.smoke else (10, 40, 20)
        # 24 stations: a four-day gap between stripes is 96 rows, one full
        # transaction, so nine gap calls beat one direct call of eleven.
        self.data = generate_weather_workload(
            weather_config(draw_seed, 6 if self.smoke else 24)
        )
        rng = random.Random(SESSION_SEED)
        countries = self.data.countries
        # The windows the gap-fill ops will ask for (the one-day stripes
        # inside them are bought at installation).
        regions = [
            (countries[k % len(countries)], 1 + WINDOW_DAYS * (k // len(countries)))
            for k in range(HISTORY_DAYS // WINDOW_DAYS * len(countries))
        ]
        rng.shuffle(regions)
        self.regions = regions[:gap_fills]
        events = (
            [("burst", None)] * bursts
            + [("sliding", None)] * sliding
            + [("gap", region) for region in self.regions]
        )
        rng.shuffle(events)
        self.schedule = []  # (due_s, tenant, sql, params)
        due = 0.0
        burst_index = sliding_index = gap_index = 0
        for kind, region in events:
            if kind == "burst":
                # Dashboards watch countries 0-3; today advances a day per burst.
                today = FIRST_TODAY + burst_index
                params = (countries[burst_index % TENANTS], today - 6, today)
                for tenant in range(TENANTS):
                    self.schedule.append((due, tenant, Q3, params))
                burst_index += 1
                due += TENANTS / RATE_PER_S
                continue
            if kind == "sliding":
                # Tenant t watches its own country 4+t over the last two
                # weeks; its today advances two days per op.
                tenant = sliding_index % TENANTS
                today = FIRST_TODAY + 2 * (sliding_index // TENANTS)
                params = (countries[TENANTS + tenant], today - 13, today)
                sliding_index += 1
            else:
                tenant = gap_index % TENANTS
                country, first_day = region
                params = (country, first_day, first_day + WINDOW_DAYS - 1)
                gap_index += 1
            self.schedule.append((due, tenant, Q1, params))
            due += 1.0 / RATE_PER_S

    def install(self) -> None:
        self.market = publish(self.data)
        self.payless = new_installation(self.market, self.data, self.options())
        # The market does not sleep while the stripes are bought.
        for country, first_day in self.regions:
            for day in range(first_day, first_day + WINDOW_DAYS, STRIPE_PERIOD):
                self.payless.query(Q1, (country, day, day))
        self.market.latency = self.latency
        self.scheduler = QueryScheduler(
            self.payless,
            ServeConfig(workers=4, coalesce=True, session_max_inflight=2),
        )
        self.sessions = [
            self.scheduler.session(f"tenant{t}") for t in range(TENANTS)
        ]

    def repetition(self, index: int) -> Repetition:
        schedule = self.schedule
        count = len(schedule)
        outcomes: list = [None] * count
        done = [0.0] * count
        submits: list[float] = []
        waiters = []
        rejects = 0
        late = 0.0

        def wait(position: int, ticket) -> None:
            try:
                result = ticket.result(RESULT_TIMEOUT_S)
                result.rows  # noqa: B018 - materialize, as a user would
                outcomes[position] = result
            except Exception as error:  # noqa: BLE001 - a failed op, counted
                outcomes[position] = error
            done[position] = time.perf_counter()

        cpu_start = time.process_time()
        started = time.perf_counter()
        for position, (due, tenant, sql, params) in enumerate(schedule):
            if self.open_loop:
                delay = started + due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                late = max(late, time.perf_counter() - started - due)
            submits.append(time.perf_counter())
            try:
                ticket = self.sessions[tenant].submit(sql, params)
            except AdmissionError as error:
                outcomes[position] = error
                done[position] = time.perf_counter()
                rejects += 1
                continue
            waiter = threading.Thread(target=wait, args=(position, ticket))
            waiter.start()
            waiters.append(waiter)
        for waiter in waiters:
            waiter.join()
        wall = max(done) - started
        cpu = time.process_time() - cpu_start
        # Open loop: latency counts from when the op was *due*, so a stall
        # charges the ops it delayed.  Backlog: everything is due at once.
        latencies = [
            (done[i] - started - (schedule[i][0] if self.open_loop else 0.0))
            * 1000.0
            for i in range(count)
        ]
        return Repetition(
            wall,
            cpu,
            latencies,
            [((sql, params), outcomes[i]) for i, (__, __t, sql, params) in enumerate(schedule)],
            submits=submits,
            late_ms_max=late * 1000.0,
            admission_rejects=rejects,
        )

    def teardown(self) -> tuple[int, int]:
        self.scheduler.close()
        self.payless.close()
        return 0, 0


class ServeChaos(ServeSteady):
    """The same tickets submitted up front and drained, with the WAL on the
    purchase path and injected faults in the transport; then ``close()``
    and restarts that must reproduce totals, ledger buckets and store."""

    name = "serve_chaos"
    installs_per_draw = 2
    open_loop = False
    #: A quick market: the drain is bound by the buyer's CPU (90% of one
    #: core, the interpreter lock's worth), not by market wait, so all its
    #: times are scaled — but for set-up, which waits for the stripes' fsyncs.
    latency = LatencyModel(round_trip_ms=20.0, per_transaction_ms=1.0, realtime_scale=1.0)
    speed_scaled = ("ops_per_s", "p50_ms", "p95_ms", "cpu_ms_per_op")
    RESTARTS = 2

    def options(self) -> QueryOptions:
        OUT_DIR.mkdir(exist_ok=True)
        self.state_dir = tempfile.mkdtemp(prefix="state-", dir=OUT_DIR)
        self.durable_options = QueryOptions(
            durability=self.state_dir, fault_rate=0.05, fault_seed=7
        )
        return self.durable_options

    def _state(self, payless: PayLess) -> dict:
        """Everything a restart must reproduce, from public attributes."""
        state = {
            "clock": payless.store.clock,
            "totals": (
                payless.total_transactions,
                payless.total_price,
                payless.total_calls,
                payless.queries_executed,
                payless.total_wasted_transactions,
                payless.total_wasted_price,
                payless.total_coalesced_fetches,
                payless.total_coalesced_transactions,
                payless.total_coalesced_price,
            ),
            "bill": payless.durability.bill.to_json(),
        }
        for dataset in self.data.datasets:
            for market_table in dataset:
                table_store = payless.store.table(market_table.name)
                state[market_table.name] = (
                    sorted(map(repr, table_store.covered)),
                    table_store.cached_row_count,
                )
        return state

    def teardown(self) -> tuple[int, int]:
        self.scheduler.close()
        failures = 0
        before = self._state(self.payless)
        spent_before = self.market.ledger.spent
        self.payless.close()
        for __ in range(self.RESTARTS):
            reopened = new_installation(self.market, self.data, self.durable_options)
            started = time.perf_counter()
            report = reopened.recover()
            self.recover_s.append(time.perf_counter() - started)
            self.recovered_records.append(report.records_replayed)
            # Recovery must reproduce the state and must not touch the market.
            if (
                self._state(reopened) != before
                or self.market.ledger.spent != spent_before
            ):
                failures += 1
            reopened.close()
        shutil.rmtree(self.state_dir, ignore_errors=True)
        return self.RESTARTS, failures


WORKLOADS = {
    workload.name: workload
    for workload in (
        WeatherCold,
        WeatherWarm,
        TpchSession,
        JoinGraphQuote,
        ServeSteady,
        ServeChaos,
    )
}
