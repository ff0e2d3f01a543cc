"""Tests for the Grades generator, text corpus and real-estate noise."""

import numpy as np
import pytest

from repro.datagen import (exam_mean, make_grades_workload,
                           make_realestate_workload, realestate_column)
from repro.datagen import text
from repro.errors import ReproError


class TestExamMean:
    def test_paper_formula(self):
        # "The mean of exam i is fixed at 40 + 10(i−1)".
        assert [exam_mean(i) for i in range(1, 6)] == \
            [40.0, 50.0, 60.0, 70.0, 80.0]


class TestGradesWorkload:
    @pytest.fixture(scope="class")
    def workload(self):
        return make_grades_workload(sigma=10, n_students=100, seed=5)

    def test_narrow_shape(self, workload):
        narrow = workload.source.relation("grades_narrow")
        assert len(narrow) == 500  # 100 students x 5 exams
        assert set(narrow.distinct("examNum")) == {1, 2, 3, 4, 5}

    def test_wide_shape(self, workload):
        wide = workload.target.relation("grades_wide")
        assert len(wide) == 100
        assert set(wide.schema.attribute_names) == {
            "name", "grade1", "grade2", "grade3", "grade4", "grade5"}

    def test_exam_means_match_spec(self, workload):
        narrow = workload.source.relation("grades_narrow")
        for exam in range(1, 6):
            grades = [r["grade"] for r in narrow.rows()
                      if r["examNum"] == exam]
            assert abs(np.mean(grades) - exam_mean(exam)) < 4.0

    def test_same_distribution_different_values(self, workload):
        """Means/σ agree across schemas but the actual scores differ."""
        narrow = workload.source.relation("grades_narrow")
        wide = workload.target.relation("grades_wide")
        exam1_narrow = sorted(r["grade"] for r in narrow.rows()
                              if r["examNum"] == 1)
        exam1_wide = sorted(wide.column("grade1"))
        assert exam1_narrow != exam1_wide
        assert abs(np.mean(exam1_narrow) - np.mean(exam1_wide)) < 5.0

    def test_names_unique_per_exam(self, workload):
        narrow = workload.source.relation("grades_narrow")
        exam1_names = [r["name"] for r in narrow.rows()
                       if r["examNum"] == 1]
        assert len(set(exam1_names)) == len(exam1_names)

    def test_spurious_categoricals(self):
        w0 = make_grades_workload(sigma=5, n_students=30, seed=1,
                                  spurious_categoricals=0)
        w2 = make_grades_workload(sigma=5, n_students=30, seed=1,
                                  spurious_categoricals=2)
        assert "section" not in w0.source.relation("grades_narrow").schema
        narrow = w2.source.relation("grades_narrow")
        assert "section" in narrow.schema and "semester" in narrow.schema

    def test_ground_truth(self, workload):
        assert len(workload.ground_truth) == 10  # (grade + name) x 5 exams
        exams = {next(iter(e.condition_values))
                 for e in workload.ground_truth}
        assert exams == {1, 2, 3, 4, 5}

    @pytest.mark.parametrize("kwargs", [
        {"sigma": 0}, {"n_students": 1}, {"spurious_categoricals": 9},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ReproError):
            make_grades_workload(**kwargs)


class TestTextCorpus:
    def test_determinism(self):
        a = text.book_title(np.random.default_rng(7))
        b = text.book_title(np.random.default_rng(7))
        assert a == b

    def test_isbn_format(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            code = text.isbn(rng)
            assert len(code) == 10
            assert code[:-1].isdigit()
            assert code[-1].isdigit() or code[-1] == "X"

    def test_asin_format(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            code = text.asin(rng)
            assert code.startswith("B0") and len(code) == 10

    def test_populations_distinct(self):
        rng = np.random.default_rng(2)
        books = {text.book_title(rng) for _ in range(200)}
        albums = {text.album_title(rng) for _ in range(200)}
        # Different stylistic populations: near-disjoint title sets.
        assert len(books & albums) <= 2

    def test_person_name_two_tokens(self):
        rng = np.random.default_rng(3)
        assert len(text.person_name(rng).split()) == 2


class TestRealEstate:
    def test_relation_shape(self):
        workload = make_realestate_workload(n_source=40, n_target=30,
                                            seed=4)
        listings = workload.source.relation("listings")
        assert len(listings) == 40
        assert "Address" in listings.schema
        assert [len(r) for r in workload.target] == [30, 30]

    @pytest.mark.parametrize("kind", ["address", "city", "agent", "sqft",
                                      "listing", "property"])
    def test_column_kinds(self, kind):
        values = realestate_column(kind, 10, np.random.default_rng(5))
        assert len(values) == 10

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            realestate_column("castle", 5, np.random.default_rng(6))
