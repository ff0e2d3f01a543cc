"""Tests for the messy-CSV ingestion family (repro.datagen.ingestion)."""

import json
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.datagen import (FEED_HEADERS, TAG_VOCABULARY, build_scenario,
                           get_scenario, make_ingestion_workload,
                           make_messy_feed, make_retail_workload,
                           normalize_feed, normalize_header,
                           normalize_product_name, scenario_names,
                           singularize)
from repro.datagen.ingestion import (NO_STRIP_WORDS, PLURAL_MAP,
                                    parse_currency, parse_quantity, parse_sku)
from repro.errors import ReproError
from repro.relational import (Relation, dump_database,
                              relation_from_csv_text, relation_to_csv_text)


class TestNormalizeHelpers:
    @pytest.mark.parametrize("plural,singular", [
        ("ONIONS", "ONION"),          # regular S strip
        ("POTATOES", "POTATO"),       # explicit override
        ("STRAWBERRIES", "STRAWBERRY"),
        ("PICKLES", "PICKLE"),
        ("CHEESE", "CHEESE"),         # no-strip guard
        ("ASPARAGUS", "ASPARAGUS"),
        ("GLASS", "GLASS"),           # SS never stripped
        ("PUPPIES", "PUPPY"),         # IES -> Y
    ])
    def test_singularize(self, plural, singular):
        assert singularize(plural) == singular

    def test_tag_vocabulary_all_normalizable(self):
        # Every vocabulary word must map to a stable singular: applying
        # singularize twice changes nothing.
        for word in TAG_VOCABULARY:
            once = singularize(word)
            assert singularize(once) == once

    def test_normalize_header_known(self):
        for clean, feed in FEED_HEADERS.items():
            assert normalize_header(feed) == clean

    def test_normalize_header_fallback(self):
        assert normalize_header("unit_price_usd") == "UnitPriceUsd"

    def test_normalize_header_custom_rename(self):
        assert normalize_header("PRC", {"PRC": "ListPrice"}) == "ListPrice"

    @pytest.mark.parametrize("text,expected", [
        ("$12.34", 12.34), ("1,299.00", 1299.0), ("", None), (None, None),
    ])
    def test_parse_currency(self, text, expected):
        assert parse_currency(text) == expected

    @pytest.mark.parametrize("text,expected", [
        ("7 pcs", 7), ("12", 12), ("", None), (None, None), ("pcs", None),
    ])
    def test_parse_quantity(self, text, expected):
        assert parse_quantity(text) == expected

    @pytest.mark.parametrize("text,expected", [
        ("SKU-000123", 123), ("SKU-000001", 1), ("", None), (None, None),
    ])
    def test_parse_sku(self, text, expected):
        assert parse_sku(text) == expected

    def test_normalize_product_name(self):
        assert normalize_product_name("THE_SILENT_GARDEN") == \
            "the silent garden"
        assert normalize_product_name(None) is None


WORDS = st.sampled_from(["silent", "garden", "road", "kings", "neon",
                         "war", "orchard"])


def _column(data, n, values):
    return data.draw(st.lists(values, min_size=n, max_size=n))


class TestNormalizeInvertsRenderings:
    """Each normalize helper inverts the rendering ``make_messy_feed``
    gives its column, and the whole feed survives the CSV codec."""

    @given(st.integers(0, 10**9))
    def test_parse_sku(self, item_id):
        assert parse_sku(f"SKU-{item_id:06d}") == item_id

    @given(st.integers(-10**9, 10**9))
    def test_parse_currency(self, cents):
        price = cents / 100
        assert parse_currency(f"${price:.2f}") == price
        assert parse_currency(f"${price:,.2f}") == price

    @given(st.integers(-10**6, 10**6))
    def test_parse_quantity(self, quantity):
        assert parse_quantity(f"{quantity} pcs") == quantity

    @given(st.lists(st.text(alphabet=string.ascii_lowercase + "0123456789'&",
                            min_size=1, max_size=8),
                    min_size=1, max_size=4).map(" ".join))
    def test_normalize_product_name(self, name):
        assert normalize_product_name(name.upper().replace(" ", "_")) == name

    @given(st.text(alphabet=string.ascii_uppercase, min_size=1, max_size=8))
    def test_singularize_strips_a_regular_plural(self, stem):
        for plural, singular in ((stem + "S", stem),
                                 (stem + "IES", stem + "Y")):
            if (plural in PLURAL_MAP or plural in NO_STRIP_WORDS
                    or singular.endswith(("S", "IE"))):
                continue  # the overrides and guards decide these
            assert singularize(plural) == singular

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_normalize_feed_inverts_the_csv_feed(self, data):
        n = data.draw(st.integers(1, 12))
        name = st.lists(WORDS, min_size=1, max_size=3).map(" ".join)
        columns = {
            "ItemID": data.draw(st.lists(st.integers(0, 10**6), min_size=n,
                                         max_size=n, unique=True)),
            "Name": _column(data, n, st.none() | name),
            "Creator": _column(data, n, st.none() | name),
            "ItemType": _column(data, n, WORDS),
            "StockStatus": _column(data, n, st.none() | WORDS),
            "Code": _column(data, n, WORDS.map(str.upper)),
            "ListPrice": _column(data, n, st.none() | st.integers(
                0, 10**7).map(lambda cents: cents / 100)),
            "Qty": _column(data, n, st.none() | st.integers(0, 500)),
        }
        feed = make_messy_feed(Relation.infer_schema("items", columns))
        parsed = relation_from_csv_text(relation_to_csv_text(feed),
                                        feed.name)
        clean = normalize_feed(parsed)
        for attr, values in columns.items():
            assert clean.column(attr) == values, attr


class TestMessyFeed:
    def test_normalize_is_exact_inverse(self):
        base = make_retail_workload(n_source=120, n_target=60, gamma=2,
                                    seed=5)
        items = base.source.relation(base.source_table)
        feed = make_messy_feed(items, seed=5)
        clean = normalize_feed(feed)
        for attr in items.schema.attribute_names:
            assert clean.column(attr) == items.column(attr), attr

    def test_feed_is_all_strings(self):
        base = make_retail_workload(n_source=60, n_target=30, gamma=2,
                                    seed=1)
        feed = make_messy_feed(base.source.relation(base.source_table),
                               seed=1)
        for attr in feed.schema.attribute_names:
            assert all(isinstance(v, str)
                       for v in feed.column(attr) if v is not None), attr

    def test_feed_carries_tag_column(self):
        base = make_retail_workload(n_source=60, n_target=30, gamma=2,
                                    seed=1)
        feed = make_messy_feed(base.source.relation(base.source_table),
                               seed=1)
        assert "Product_Tag" in feed.schema.attribute_names
        assert set(feed.column("Product_Tag")) <= set(TAG_VOCABULARY)

    def test_workload_source_is_normalized(self):
        workload = make_ingestion_workload(n_source=80, n_target=40,
                                           gamma=2, seed=3)
        clean = next(iter(workload.source))
        assert "Tag" in clean.schema.attribute_names
        assert all(isinstance(v, int)
                   for v in clean.column("ItemID") if v is not None)


class TestScenarioRegistration:
    def test_quartet_registered(self):
        names = set(scenario_names())
        assert {"ingestion", "ingestion-nulls", "ingestion-drift",
                "ingestion-scrambled"} <= names

    def test_build_base_scenario(self):
        workload = build_scenario(get_scenario("ingestion"))
        assert workload.ground_truth.matches

    def test_odd_gamma_rejected(self):
        import dataclasses
        spec = dataclasses.replace(get_scenario("ingestion"), gamma=3)
        with pytest.raises(ReproError):
            build_scenario(spec)


class TestCliIngestionSmoke:
    def test_match_over_dumped_csv_directories(self, tmp_path, capsys):
        workload = make_ingestion_workload(n_source=120, n_target=60,
                                           gamma=2, seed=2)
        src = tmp_path / "src"
        tgt = tmp_path / "tgt"
        dump_database(workload.source, src)
        dump_database(workload.target, tgt)
        code = main(["match", str(src), str(tgt), "--inference", "src",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matches"], "CSV-ingested match found no edges"
