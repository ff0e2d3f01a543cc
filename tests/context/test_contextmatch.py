"""Integration tests for Algorithm ContextMatch (Figure 5)."""

import pytest

from repro import ContextMatch, ContextMatchConfig
from repro.evaluation import evaluate_result
from repro.relational import Eq, In


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"tau": 1.5}, {"omega": -1}, {"train_fraction": 0.0},
        {"inference": "bogus"}, {"selection": "bogus"},
        {"conjunctive_stages": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ContextMatchConfig(**kwargs)

    def test_defaults_are_paper_defaults(self):
        config = ContextMatchConfig()
        assert config.tau == 0.5
        assert config.omega == 5.0
        assert config.significance_threshold == 0.95


class TestRetailPipeline:
    @pytest.fixture(scope="class")
    def result(self, retail_workload):
        config = ContextMatchConfig(inference="src", early_disjuncts=True,
                                    seed=5)
        return ContextMatch(config).run(retail_workload.source,
                                        retail_workload.target)

    def test_contextual_matches_found(self, result):
        assert result.contextual_matches

    def test_conditions_on_item_type(self, result):
        for match in result.contextual_matches:
            assert match.condition.attributes() == {"ItemType"}

    def test_views_partition_books_from_music(self, result,
                                              retail_workload):
        for match in result.contextual_matches:
            values = (match.condition.values
                      if isinstance(match.condition, In)
                      else {match.condition.value})
            if match.target.table == "books":
                assert values <= retail_workload.book_values
            if match.target.table == "cds":
                assert values <= retail_workload.music_values

    def test_quality_against_ground_truth(self, result, retail_workload):
        metrics = evaluate_result(result, retail_workload.ground_truth)
        assert metrics.fmeasure > 70.0

    def test_diagnostics_populated(self, result):
        assert result.standard_matches
        assert result.families
        assert result.candidates
        assert result.elapsed_seconds > 0.0

    def test_views_accessor(self, result):
        names = {v.name for v in result.views()}
        assert names
        assert all(name.startswith("items[") for name in names)


class TestPolicies:
    def test_late_disjuncts_yield_singleton_conditions(self,
                                                       retail_workload):
        config = ContextMatchConfig(inference="src", early_disjuncts=False,
                                    seed=5)
        result = ContextMatch(config).run(retail_workload.source,
                                          retail_workload.target)
        for match in result.contextual_matches:
            assert isinstance(match.condition, Eq)

    def test_early_disjuncts_can_merge(self, retail_workload):
        config = ContextMatchConfig(inference="src", early_disjuncts=True,
                                    seed=5)
        result = ContextMatch(config).run(retail_workload.source,
                                          retail_workload.target)
        assert any(isinstance(m.condition, In)
                   for m in result.contextual_matches)

    def test_huge_omega_disables_views(self, retail_workload):
        config = ContextMatchConfig(inference="src", omega=1000.0, seed=5)
        result = ContextMatch(config).run(retail_workload.source,
                                          retail_workload.target)
        assert result.contextual_matches == []
        assert result.matches  # standard matches still reported

    def test_custom_matcher_is_honoured(self, retail_workload):
        """ContextMatch matches with the standard matcher its
        configuration describes."""
        from repro.matching import StandardMatchConfig
        thin = StandardMatchConfig(sample_limit=50)
        facade = ContextMatch(ContextMatchConfig(inference="src", seed=5,
                                                 standard=thin))
        assert facade.engine.matcher.config == thin
        result = facade.run(retail_workload.source, retail_workload.target)
        assert result.matches


class TestGradesPipeline:
    def test_exam_views_inferred(self, grades_workload):
        config = ContextMatchConfig(inference="src", early_disjuncts=False,
                                    seed=3)
        result = ContextMatch(config).run(grades_workload.source,
                                          grades_workload.target)
        conditions = {str(m.condition) for m in result.contextual_matches}
        assert any("examNum" in c for c in conditions)
        metrics = evaluate_result(result, grades_workload.ground_truth)
        assert metrics.accuracy > 60.0

    def test_grade_columns_matched_per_exam(self, grades_workload):
        """The correct (grade -> grade_i, examNum = i) pairings dominate the
        contextual grade edges (stray δ>0 along-riders are permitted noise,
        accounted for by the precision metric)."""
        config = ContextMatchConfig(inference="src", early_disjuncts=False,
                                    seed=3)
        result = ContextMatch(config).run(grades_workload.source,
                                          grades_workload.target)
        correct = wrong = 0
        found_exams = set()
        for match in result.contextual_matches:
            if (match.source.attribute == "grade"
                    and isinstance(match.condition, Eq)
                    and match.condition.attribute == "examNum"
                    and match.target.attribute.startswith("grade")):
                exam = match.condition.value
                if match.target.attribute == f"grade{exam}":
                    correct += 1
                    found_exams.add(exam)
                else:
                    wrong += 1
        assert correct >= 3, "most exams should find their grade column"
        assert correct > wrong


class TestDeterminism:
    def test_same_seed_same_result(self, retail_workload):
        config = ContextMatchConfig(inference="src", seed=9)
        r1 = ContextMatch(config).run(retail_workload.source,
                                      retail_workload.target)
        r2 = ContextMatch(config).run(retail_workload.source,
                                      retail_workload.target)
        key = lambda r: sorted(
            (str(m.source), str(m.target), str(m.condition))
            for m in r.matches)
        assert key(r1) == key(r2)


class TestDocstringExample:
    def test_class_docstring_example_holds(self):
        """The usage example in ContextMatch's docstring must stay true."""
        from repro.datagen import make_retail_workload
        workload = make_retail_workload(target="ryan", seed=7)
        result = ContextMatch().run(workload.source, workload.target)
        assert any(m.is_contextual for m in result.matches)
