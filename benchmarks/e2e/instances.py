"""The sessions of the weather and TPC-H workloads: fixed-size windows.

``repro.workloads`` draws range *widths* at random (a weather date span of
1-30 days, a TPC-H one of 7-90).  That is right for the paper's figures
and wrong for a gate: what one access costs grows with the width — on
TPC-H steeply, because a bind join over *n* order keys leaves *n* point
boxes in the store and the rewriter's Algorithm 1 then enumerates
bounding boxes over all of them — so one wide draw changed a session's
wall-clock several-fold.  Here only the *position* of a window and the
category it names are drawn (from the generator the workload hands in);
how much each query asks for is fixed.
"""

from __future__ import annotations

import random

from repro.workloads.tpch import (
    DATE_DOMAIN,
    MAX_QUANTITY,
    MAX_SIZE,
    REGIONS,
    RETURN_FLAGS,
    SHIP_MODES,
    STATUSES,
    TEMPLATES as TPCH_TEMPLATES,
)
from repro.workloads.weather import TEMPLATES as WEATHER_TEMPLATES

WEATHER_DATE_SPAN = 15
WEATHER_RANK_SPAN = 12
TPCH_DATE_SPAN = 30
TPCH_WIDE_DATE_SPAN = 120
TPCH_SIZE_SPAN = 8
TPCH_QUANTITY_SPAN = 10
TPCH_QUANTITY = 25


def window(rng: random.Random, high: int, span: int) -> tuple[int, int]:
    """A range of exactly ``span`` values somewhere in ``[1, high]``."""
    start = rng.randint(1, high - span + 1)
    return start, start + span - 1


def weather_session(data, rng: random.Random, per_template: int) -> list[tuple]:
    """The paper's Table 1 templates Q1-Q5, ``per_template`` instances of
    each, as shuffled ``(sql, params)`` requests."""
    days, ranks = data.config.days, data.config.max_rank
    station_cities = {(row[0], row[2]) for row in data.station_rows}
    # Q4 names a zip code whose city hosts stations of the country.
    zips = {
        country: [
            code for code, city in data.zipmap_rows
            if (country, city) in station_cities
        ]
        for country in data.countries
    }
    def country() -> str:
        return rng.choice(data.countries)

    def dates() -> tuple[int, int]:
        return window(rng, days, WEATHER_DATE_SPAN)

    def rank() -> tuple[int, int]:
        return window(rng, ranks, WEATHER_RANK_SPAN)

    requests = []
    for __ in range(per_template):
        zip_country = country()
        params = {
            "Q1": (country(), *dates()),
            "Q2": rank(),
            "Q3": (country(), *dates()),
            "Q4": (zip_country, rng.choice(zips[zip_country]), *dates()),
            "Q5": (country(), *dates(), *rank()),
        }
        requests.extend((WEATHER_TEMPLATES[t], p) for t, p in params.items())
    rng.shuffle(requests)
    return requests


def tpch_session(data, rng: random.Random, per_template: int) -> list[tuple]:
    """The twenty TPC-H templates, ``per_template`` instances of each, as
    shuffled ``(sql, params)`` requests.  Order status and return flag
    (three values each, of very different selectivity) are cycled, not
    drawn, so every session holds the same mix."""
    parts, customers, suppliers = (
        data.rows["part"], data.rows["customer"], data.rows["supplier"]
    )
    brands = sorted({row[1] for row in parts})
    types = sorted({row[2] for row in parts})
    containers = sorted({row[4] for row in parts})
    segments = sorted({row[2] for row in customers})
    nations = sorted({row[1] for row in suppliers})
    choice = rng.choice

    def dates() -> tuple[int, int]:
        return window(rng, DATE_DOMAIN, TPCH_DATE_SPAN)

    def sizes() -> tuple[int, int]:
        return window(rng, MAX_SIZE, TPCH_SIZE_SPAN)

    requests = []
    for index in range(per_template):
        params = {
            "T01": window(rng, DATE_DOMAIN, TPCH_WIDE_DATE_SPAN),
            "T02": (choice(brands), *sizes()),
            "T03": (choice(segments), TPCH_DATE_SPAN),
            "T04": dates(),
            "T05": (rng.randrange(len(REGIONS)), *dates()),
            "T06": (*dates(), TPCH_QUANTITY),
            "T07": dates(),
            "T08": (choice(types), *dates()),
            "T09": (choice(brands),),
            "T10": (RETURN_FLAGS[index % len(RETURN_FLAGS)], *dates()),
            "T11": (choice(nations),),
            "T12": (choice(SHIP_MODES), *dates()),
            "T13": dates(),
            "T14": (choice(types), *dates()),
            "T15": dates(),
            "T16": sizes(),
            "T17": (choice(brands), choice(containers), TPCH_QUANTITY),
            "T18": (STATUSES[index % len(STATUSES)], *dates()),
            "T19": (choice(brands), *window(rng, MAX_QUANTITY, TPCH_QUANTITY_SPAN)),
            "T20": (choice(nations),),
        }
        requests.extend((TPCH_TEMPLATES[t], p) for t, p in params.items())
    rng.shuffle(requests)
    return requests
