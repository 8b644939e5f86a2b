"""Quickstart: the paper's Figure 1 scenario end-to-end.

Builds a small weather data market (788 US stations, one in Seattle),
registers a PayLess installation against it, and runs the introduction's
Seattle-temperature query.  PayLess picks the bind-join plan P2 and pays
2 transactions instead of P1's 238 — then answers the repeat query for
free out of its semantic store.

Run with:  python examples/quickstart.py
"""

from repro import (
    BindingPattern,
    DataMarket,
    Dataset,
    PayLess,
    PricingPolicy,
    Table,
)
from repro.relational.schema import Attribute, Domain, Schema
from repro.relational.types import AttributeType as T


def build_market() -> DataMarket:
    """788 US weather stations, exactly one (id 3817) in Seattle."""
    cities = {3817: "Seattle"}
    for i in range(787):
        cities[10000 + i] = f"City{i:04d}"
    ids = sorted(cities)

    country_domain = Domain.categorical(["United States"])
    id_domain = Domain.numeric(min(ids), max(ids))
    station_schema = Schema(
        [
            Attribute("Country", T.STRING, country_domain),
            Attribute("StationID", T.INT, id_domain),
            Attribute("City", T.STRING, Domain.categorical(cities.values())),
        ]
    )
    weather_schema = Schema(
        [
            Attribute("Country", T.STRING, country_domain),
            Attribute("StationID", T.INT, id_domain),
            Attribute("Date", T.DATE, Domain.numeric(1, 30)),  # June, as day 1..30
            Attribute("Temperature", T.FLOAT),
        ]
    )
    station_rows = [("United States", sid, city) for sid, city in cities.items()]
    weather_rows = [
        ("United States", sid, day, 15.0 + (sid + day) % 10)
        for sid in ids
        for day in range(1, 31)
    ]

    dataset = Dataset("WHW", PricingPolicy(tuples_per_transaction=100))
    dataset.add_table(
        Table("Station", station_schema, station_rows),
        BindingPattern.parse("Station", "Countryf, StationIDf, Cityf"),
    )
    dataset.add_table(
        Table("Weather", weather_schema, weather_rows),
        BindingPattern.parse("Weather", "Countryf, StationIDf, Datef"),
    )
    market = DataMarket()
    market.publish(dataset)
    return market


def main() -> None:
    market = build_market()
    payless = PayLess.full(market)
    payless.register_dataset("WHW")

    sql = (
        "SELECT Temperature FROM Station, Weather "
        "WHERE City = 'Seattle' AND Station.Country = 'United States' "
        "AND Weather.Country = 'United States' "
        "AND Date >= 1 AND Date <= 30 "
        "AND Station.StationID = Weather.StationID"
    )

    print("=== The chosen plan (the paper's P2) ===")
    planning = payless.explain(sql)
    print(planning.plan.describe())
    print(f"estimated price: ${planning.cost:g}")
    print(f"(fetching all US June weather instead would cost "
          f"1 + ceil(788*30/100) = 238 transactions)")

    print("\n=== Executing ===")
    result = payless.query(sql)
    print(f"rows returned:       {len(result.rows)}")
    print(f"REST calls made:     {result.stats.calls}")
    print(f"transactions billed: {result.stats.transactions}")
    print(f"money paid:          ${result.stats.price:g}")

    print("\n=== Asking again (served from the semantic store) ===")
    repeat = payless.query(sql)
    print(f"transactions billed: {repeat.stats.transactions}")

    print("\n=== Session bill ===")
    print(payless.bill())


if __name__ == "__main__":
    main()
