"""Unit tests for per-type target classifiers (Figure 7)."""

import pytest

from repro.classifiers import TargetClassifierSet
from repro.relational import Database, DataType, Relation


@pytest.fixture()
def two_table_target() -> Database:
    book = Relation.infer_schema("book", {
        "title": ["the hidden garden", "a war of kings", "the lost letter",
                  "shadows of avalon", "the scholar's road"],
        "price": [15.0, 16.5, 14.0, 18.0, 15.5],
    })
    music = Relation.infer_schema("music", {
        "title": ["electric groove", "midnight soul", "neon static",
                  "live at the apollo", "the reverb sessions"],
        "price": [11.0, 12.5, 10.0, 13.0, 11.5],
    })
    return Database.from_relations("RT", [book, music])


class TestTraining:
    def test_family_classifiers_created(self, two_table_target):
        tags = TargetClassifierSet.train(two_table_target)
        assert tags.families() == {"textual", "numeric"}


class TestClassification:
    def test_textual_routing(self, two_table_target):
        tags = TargetClassifierSet.train(two_table_target)
        assert tags.classify("the golden garden of kings",
                             DataType.TEXT) == "book.title"
        assert tags.classify("supersonic groove vol. 2",
                             DataType.TEXT) == "music.title"

    def test_numeric_routing(self, two_table_target):
        tags = TargetClassifierSet.train(two_table_target)
        tag = tags.classify(15.5, DataType.FLOAT)
        assert tag == "book.price"

    def test_missing_value_is_none(self, two_table_target):
        tags = TargetClassifierSet.train(two_table_target)
        assert tags.classify(None, DataType.TEXT) is None

    def test_unknown_family_is_none(self, two_table_target):
        tags = TargetClassifierSet.train(two_table_target)
        assert tags.classify(True, DataType.BOOLEAN) is None

    def test_sample_limit_keeps_working(self, two_table_target):
        tags = TargetClassifierSet.train(two_table_target, sample_limit=2)
        assert tags.classify("electric groove", DataType.TEXT) is not None

    def test_tags_are_qualified(self, two_table_target):
        tags = TargetClassifierSet.train(two_table_target)
        tag = tags.classify("a war of avalon", DataType.TEXT)
        table, _, attr = tag.partition(".")
        assert table in {"book", "music"} and attr == "title"
