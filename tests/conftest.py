"""Shared fixtures: a small deterministic weather market and buyer setup,
plus the golden-file machinery for the EXPLAIN rendering tests."""

from __future__ import annotations

import re
import warnings
from pathlib import Path

import pytest

from repro import (
    BindingPattern,
    Database,
    DataMarket,
    Dataset,
    PayLess,
    PricingPolicy,
    Table,
)
from repro.relational.schema import Attribute, Domain, Schema
from repro.relational.types import AttributeType as T

GOLDENS_DIR = Path(__file__).parent / "goldens"

# Hypothesis' pytest plugin imports this module (and through it libcst)
# only to report a falsifying example; libcst's import warns that
# ``mypy_extensions.TypedDict`` is deprecated, which the suite's
# ``error::DeprecationWarning`` turns into an INTERNALERROR that hides the
# example.  Importing it here first, with that one warning ignored, lets a
# failing property print its example.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore",
        message="mypy_extensions.TypedDict is deprecated",
        category=DeprecationWarning,
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the plugin skips its patch file itself
        pass


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite the golden renderings under tests/goldens/ instead "
        "of comparing against them",
    )


#: Wall-clock measurements in renderings (the EXPLAIN ANALYZE local-eval
#: line) are nondeterministic; the golden fixture scrubs them to fixed
#: placeholders before comparing *and* before writing.
_TIMING_SCRUBS = (
    (re.compile(r"\d+(?:\.\d+)? ms"), "<ms> ms"),
    (re.compile(r"[\d,]+(?:\.\d+)? rows/sec"), "<rate> rows/sec"),
)


def _scrub_timings(text: str) -> str:
    for pattern, placeholder in _TIMING_SCRUBS:
        text = pattern.sub(placeholder, text)
    return text


@pytest.fixture
def golden(request):
    """Compare a rendered string against ``tests/goldens/<name>.txt``.

    ``pytest --update-goldens`` rewrites the files instead of comparing,
    which is how a rendering change gets reviewed: the golden diff IS the
    review artifact.  Timing numbers are scrubbed on both sides so the
    goldens stay deterministic.
    """
    update = request.config.getoption("--update-goldens")

    def check(name: str, actual: str) -> None:
        actual = _scrub_timings(actual)
        path = GOLDENS_DIR / f"{name}.txt"
        if update:
            GOLDENS_DIR.mkdir(exist_ok=True)
            path.write_text(actual + "\n")
            return
        assert path.exists(), (
            f"golden file {path} is missing; run "
            f"`pytest --update-goldens` and commit the result"
        )
        expected = path.read_text()[:-1]  # strip the trailing newline
        assert actual == expected, (
            f"rendering diverges from golden {path.name}; if the change is "
            f"intended, re-run with --update-goldens and review the diff\n"
            f"--- golden ---\n{expected}\n--- actual ---\n{actual}"
        )

    return check


@pytest.fixture
def mini_weather_market():
    """A tiny WHW-like market: 2 countries, 6 stations, 10 days.

    Station layout:
      CountryA: Alpha (ids 1, 2), Beta (id 3), Gamma (id 4)
      CountryB: Delta (ids 5, 6)
    Weather: one row per station per day 1..10, Temperature = sid*10 + day.
    """
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


@pytest.fixture
def mini_payless(mini_weather_market):
    """A registered PayLess installation over the mini market."""
    payless = PayLess.full(mini_weather_market)
    payless.register_dataset("WHW")
    return payless


@pytest.fixture
def mini_payless_with_local(mini_weather_market):
    """Same, plus a local CityInfo table mapping cities to zones."""
    zipmap_schema = Schema(
        [
            Attribute("City", T.STRING),
            Attribute("Zone", T.INT),
        ]
    )
    local = Table(
        "CityInfo",
        zipmap_schema,
        [("Alpha", 1), ("Beta", 1), ("Gamma", 2), ("Delta", 3)],
    )
    database = Database([local])
    payless = PayLess.full(mini_weather_market, local_db=database)
    payless.register_dataset("WHW")
    return payless
