"""Workload generator tests: schemas, sizes, skew, template validity."""

import pytest

from repro.workloads.tpch import (
    TEMPLATES as TPCH_TEMPLATES,
    TpchConfig,
    TpchInstanceGenerator,
    generate_tpch_workload,
)
from repro.workloads.weather import (
    TEMPLATES as WEATHER_TEMPLATES,
    WeatherConfig,
    WeatherInstanceGenerator,
    generate_weather_workload,
)
from repro.workloads.zipfian import ZipfSampler, skewed_choice


class TestZipf:
    def test_rank_one_most_frequent(self):
        import random

        sampler = ZipfSampler(10, 1.0, random.Random(1))
        counts = [0] * 10
        for __ in range(5000):
            counts[sampler.sample()] += 1
        assert counts[0] == max(counts)
        assert counts[0] > 3 * counts[9]

    def test_uniform_when_z_none(self):
        import random

        rng = random.Random(2)
        values = [skewed_choice(range(5), None, rng) for __ in range(1000)]
        counts = [values.count(i) for i in range(5)]
        assert max(counts) < 2 * min(counts)

    def test_invalid_args(self):
        import random

        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0, random.Random(1))
        with pytest.raises(ValueError):
            ZipfSampler(5, -1.0, random.Random(1))


class TestWeatherGenerator:
    def test_sizes(self):
        config = WeatherConfig(countries=3, stations_per_country=5, days=7)
        data = generate_weather_workload(config)
        assert len(data.station_rows) == 15
        assert len(data.weather_rows) == 15 * 7
        assert len(data.zipmap_rows) == 3 * 20 * 3  # cities x zips

    def test_deterministic(self):
        a = generate_weather_workload(WeatherConfig(seed=5))
        b = generate_weather_workload(WeatherConfig(seed=5))
        assert a.station_rows == b.station_rows
        assert a.weather_rows[:100] == b.weather_rows[:100]

    def test_referential_integrity(self):
        data = generate_weather_workload(WeatherConfig())
        station_ids = {row[1] for row in data.station_rows}
        assert {row[1] for row in data.weather_rows} <= station_ids
        cities = {c for group in data.cities.values() for c in group}
        assert {row[1] for row in data.zipmap_rows} <= cities
        zip_codes = {row[0] for row in data.zipmap_rows}
        assert {row[0] for row in data.pollution_rows} <= zip_codes

    def test_market_tables_published(self):
        data = generate_weather_workload(WeatherConfig())
        assert data.market_dataset_whw.table_names() == ["Station", "Weather"]
        assert data.market_dataset_ehr.table_names() == ["Pollution"]
        assert data.local_database().table("ZipMap") is data.zipmap


class TestWeatherInstances:
    def test_all_templates_instantiable(self):
        data = generate_weather_workload(WeatherConfig())
        generator = WeatherInstanceGenerator(data, seed=3)
        for template in WEATHER_TEMPLATES:
            instance = generator.instance(template)
            assert instance.sql == WEATHER_TEMPLATES[template]
            assert instance.params

    def test_session_shape(self):
        data = generate_weather_workload(WeatherConfig())
        generator = WeatherInstanceGenerator(data, seed=3)
        session = generator.session(4)
        assert len(session) == 4 * len(WEATHER_TEMPLATES)
        templates = {q.template for q in session}
        assert templates == set(WEATHER_TEMPLATES)

    def test_instances_return_rows(self, tmp_path):
        """Validity: every sampled instance yields non-empty results."""
        from repro.bench.harness import build_system

        data = generate_weather_workload(
            WeatherConfig(countries=2, stations_per_country=8, days=20)
        )
        payless = build_system("payless", data)
        generator = WeatherInstanceGenerator(data, seed=9)
        for template in ("Q1", "Q3", "Q4"):
            instance = generator.instance(template)
            result = payless.query(instance.sql, instance.params)
            assert result.rows, template


class TestTpchGenerator:
    def test_scaling(self):
        small = generate_tpch_workload(TpchConfig(scale=0.5))
        large = generate_tpch_workload(TpchConfig(scale=1.0))
        assert len(small.rows["orders"]) == 1500
        assert len(large.rows["orders"]) == 3000
        assert len(large.rows["lineitem"]) > len(small.rows["lineitem"])

    def test_referential_integrity(self):
        data = generate_tpch_workload(TpchConfig(scale=0.2))
        order_keys = {row[0] for row in data.rows["orders"]}
        assert {row[0] for row in data.rows["lineitem"]} <= order_keys
        customer_keys = {row[0] for row in data.rows["customer"]}
        assert {row[1] for row in data.rows["orders"]} <= customer_keys
        part_keys = {row[0] for row in data.rows["part"]}
        assert {row[0] for row in data.rows["partsupp"]} <= part_keys

    def test_skew_changes_distribution(self):
        uniform = generate_tpch_workload(TpchConfig(scale=1.0, zipf=None))
        skewed = generate_tpch_workload(TpchConfig(scale=1.0, zipf=1.0))

        def top_share(rows, index):
            from collections import Counter

            counts = Counter(row[index] for row in rows)
            return counts.most_common(1)[0][1] / len(rows)

        # The hottest customer gets a much bigger share under zipf=1.
        assert top_share(skewed.rows["orders"], 1) > 2 * top_share(
            uniform.rows["orders"], 1
        )

    def test_nation_region_local(self):
        data = generate_tpch_workload(TpchConfig(scale=0.1))
        local = data.local_database()
        assert len(local.table("Nation")) == 25
        assert len(local.table("Region")) == 5
        assert "Nation" not in data.dataset
        assert "Lineitem" in data.dataset


class TestTpchInstances:
    def test_all_templates_instantiable(self):
        data = generate_tpch_workload(TpchConfig(scale=0.2))
        generator = TpchInstanceGenerator(data, seed=3)
        for template in TPCH_TEMPLATES:
            instance = generator.instance(template)
            assert instance.params is not None

    def test_templates_compile_and_run(self):
        from repro.bench.harness import build_system

        data = generate_tpch_workload(TpchConfig(scale=0.1))
        payless = build_system("payless", data)
        generator = TpchInstanceGenerator(data, seed=3)
        for template in TPCH_TEMPLATES:
            instance = generator.instance(template)
            payless.query(instance.sql, instance.params)  # must not raise
