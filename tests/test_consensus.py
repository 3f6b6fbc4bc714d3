from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from llmchem import (
    GradeMatrix,
    combined_accuracy,
    generation_accuracy,
    review_accuracy_from_variance,
    vancouver_consensus,
)
from llmchem.consensus import (
    PRIOR_VARIANCE,
    VARIANCE_FLOOR,
    ConsensusResult,
    load_grades_csv,
    load_ground_truth_csv,
    model_accuracies,
)
from llmchem.errors import DomainError, MalformedMatrixError, ParseError

from helpers import reference_consensus_iteration as reference_iteration

ABS = 1e-12


class TestGradeMatrix:
    def test_rejects_out_of_range_grade(self):
        with pytest.raises(MalformedMatrixError):
            GradeMatrix(grades={("g", "o"): 10.5})


class TestVancouver:
    def test_identical_grades_fixed_point(self):
        rows = [(g, o, 7.5) for g in ("g1", "g2", "g3") for o in ("o1", "o2")]
        result = vancouver_consensus(GradeMatrix(grades={(g, o): grade for g, o, grade in rows}))
        assert result.converged
        assert result.iterations <= 2
        assert all(value == 7.5 for value in result.consensus.values())
        assert all(v == VARIANCE_FLOOR for v in result.variance.values())

    def test_single_grader_keeps_prior(self):
        matrix = GradeMatrix(grades={("solo", "o1"): 3.0, ("solo", "o2"): 7.0})
        result = vancouver_consensus(matrix)
        assert result.consensus == {"o1": 3.0, "o2": 7.0}
        assert result.variance == {"solo": 1.0}
        assert result.review_accuracy == {"solo": 0.5}

    def test_matches_reference_iteration(self):
        rng = random.Random(41)
        for trial in range(25):
            rows = [
                (f"g{i}", f"o{j}", rng.uniform(0.0, 10.0))
                for i in range(3)
                for j in range(4)
            ]
            matrix = GradeMatrix(grades={(g, o): grade for g, o, grade in rows})
            mine = vancouver_consensus(matrix, max_iters=3, tol=1e-300)
            assert mine.iterations == 3 and not mine.converged
            ref_cons, ref_var = reference_iteration(rows, 3)
            for output, value in ref_cons.items():
                assert mine.consensus[output] == pytest.approx(value, abs=1e-9)
            for grader, value in ref_var.items():
                assert mine.variance[grader] == pytest.approx(value, abs=1e-9)

    def test_consensus_is_convex_combination_of_grades(self):
        rng = random.Random(43)
        for _ in range(20):
            rows = [
                (f"g{i}", f"o{j}", rng.uniform(0.0, 10.0))
                for i in range(4)
                for j in range(3)
                if rng.random() < 0.8 or i == j  # keep every output graded
            ]
            outputs = {o for _, o, _ in rows}
            if len(outputs) < 3:
                continue
            matrix = GradeMatrix(grades={(g, o): grade for g, o, grade in rows})
            result = vancouver_consensus(matrix)
            for output in matrix.outputs:
                grades = [g for gr, o, g in rows if o == output]
                assert min(grades) - ABS <= result.consensus[output] <= max(grades) + ABS

    def test_permutation_invariance(self):
        rng = random.Random(47)
        rows = [
            (f"g{i}", f"o{j}", rng.uniform(0.0, 10.0)) for i in range(3) for j in range(4)
        ]
        shuffled = rows[:]
        rng.shuffle(shuffled)
        first, second = (
            vancouver_consensus(GradeMatrix(grades={(g, o): grade for g, o, grade in order}))
            for order in (rows, shuffled)
        )
        assert first.consensus == second.consensus
        assert first.variance == second.variance
        assert first.iterations == second.iterations

    def test_terminates_within_budget(self):
        rng = random.Random(53)
        rows = [(f"g{i}", f"o{j}", rng.uniform(0, 10)) for i in range(5) for j in range(5)]
        matrix = GradeMatrix(grades={(g, o): grade for g, o, grade in rows})
        result = vancouver_consensus(matrix, max_iters=7, tol=1e-300)
        assert result.iterations <= 7

    def test_parameter_validation(self):
        matrix = GradeMatrix(grades={("g", "o"): 5.0})
        with pytest.raises(DomainError):
            vancouver_consensus(matrix, max_iters=0)
        with pytest.raises(DomainError):
            vancouver_consensus(matrix, tol=0.0)


class TestReviewAccuracy:
    def test_perfect_reviewer(self):
        assert review_accuracy_from_variance(0.0) == 1.0

    def test_sample_value(self):
        value = review_accuracy_from_variance(0.115)
        assert value == pytest.approx(1.0 / 1.115, abs=ABS)
        assert round(value, 4) == 0.8969

    def test_limit_behaviour(self):
        assert review_accuracy_from_variance(1e9) < 1e-8

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            review_accuracy_from_variance(-0.1)
        with pytest.raises(DomainError):
            review_accuracy_from_variance(float("inf"))

    @given(st.floats(0.0, 1e6), st.floats(1e-9, 1e6))
    def test_strictly_decreasing(self, v, bump):
        assert review_accuracy_from_variance(v + bump) < review_accuracy_from_variance(v)


class TestGenerationAccuracy:
    def test_exact_match_after_normalisation(self):
        assert generation_accuracy("half-true", "half-true") == 1.0
        assert generation_accuracy("  Half-True ", "half-true") == 1.0

    def test_mismatch(self):
        assert generation_accuracy("true", "half-true") == 0.0

    def test_no_ground_truth_scores_zero(self):
        assert generation_accuracy("anything", None) == 0.0


class TestCombinedAccuracy:
    def test_with_ground_truth_sample(self):
        assert combined_accuracy(1.0, 0.846, True) == pytest.approx(0.9615, abs=ABS)

    def test_without_ground_truth_weights_flip(self):
        assert combined_accuracy(0.0, 1.0, False) == pytest.approx(0.75, abs=ABS)

    def test_symmetric_point(self):
        assert combined_accuracy(0.5, 0.5, True) == pytest.approx(0.5, abs=ABS)
        assert combined_accuracy(0.5, 0.5, False) == pytest.approx(0.5, abs=ABS)

    def test_out_of_range_inputs(self):
        with pytest.raises(DomainError):
            combined_accuracy(1.2, 0.5, True)
        with pytest.raises(DomainError, match="review accuracy"):
            combined_accuracy(0.5, 1.5, True)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.booleans())
    def test_result_in_unit_interval(self, gen, review, has_gt):
        assert 0.0 <= combined_accuracy(gen, review, has_gt) <= 1.0


class TestModelAccuracies:
    #: Grader "g" has its own review accuracy; model "m" never graded.
    RESULT = ConsensusResult(consensus={"o1": 5.0}, variance={"g": 0.25},
                             review_accuracy={"g": 0.8}, iterations=1, converged=True)

    def test_a_model_that_never_graded_keeps_the_prior_review_accuracy(self):
        models = model_accuracies({"g": [("o1", "a")], "m": [("o1", "a")]}, None, self.RESULT)
        assert models["g"]["review_accuracy"] == 0.8
        assert models["m"]["review_accuracy"] == review_accuracy_from_variance(PRIOR_VARIANCE)
        assert models["m"]["review_accuracy"] == 0.5

    def test_without_references_generation_scores_zero_and_review_weighs_three_quarters(self):
        models = model_accuracies({"m": [("o1", "a"), ("o2", "b")], "g": [("o1", "a")]},
                                  None, self.RESULT)
        assert models == {
            "m": {"generation_accuracy": 0.0, "review_accuracy": 0.5,
                  "has_ground_truth": False, "accuracy": 0.75 * 0.5},
            "g": {"generation_accuracy": 0.0, "review_accuracy": 0.8,
                  "has_ground_truth": False, "accuracy": 0.75 * 0.8},
        }

    def test_with_references_generation_is_the_mean_of_normalised_matches(self):
        references = {"o1": "yes", "o2": "no", "o3": "Maybe so"}
        outputs = {
            "m": [("o1", "  YES "), ("o2", "nope"), ("o3", "maybe\tSO"), ("o4", "yes")],
            "g": [("o2", "No")],
        }
        models = model_accuracies(outputs, references, self.RESULT)
        assert list(models) == ["m", "g"]  # the results' order, not sorted
        assert models["m"] == {"generation_accuracy": 0.5, "review_accuracy": 0.5,
                               "has_ground_truth": True, "accuracy": 0.75 * 0.5 + 0.25 * 0.5}
        assert models["g"]["generation_accuracy"] == 1.0
        assert models["g"]["accuracy"] == 0.75 * 1.0 + 0.25 * 0.8


class TestCsvLoaders:
    def test_grades_round_trip(self, tmp_path):
        path = tmp_path / "grades.csv"
        path.write_text(
            "grader,output_id,grade\ng1,o1,5.0\ng1,o2,6.5\ng2,o1,4.0\ng2,o2,7.0\n"
        )
        matrix = load_grades_csv(path)
        assert matrix.grades[("g1", "o2")] == 6.5

    def test_grades_bad_header(self, tmp_path):
        path = tmp_path / "grades.csv"
        path.write_text("who,what,score\ng1,o1,5.0\n")
        with pytest.raises(ParseError):
            load_grades_csv(path)

    def test_grades_bad_number_reports_row(self, tmp_path):
        path = tmp_path / "grades.csv"
        path.write_text("grader,output_id,grade\ng1,o1,abc\n")
        with pytest.raises(ParseError) as err:
            load_grades_csv(path)
        assert err.value.row == 2

    @pytest.mark.parametrize("rows, row, field", [
        ("g1,o1,5.0\ng2,o1,nan\n", 3, "grade"),
        ("g1,o1,-0.5\n", 2, "grade"),
        ("g1,o1,inf\n", 2, "grade"),
        ("g1,o1,5.0\ng2,o1,6.0\ng1,o1,5.0\n", 4, "output_id"),
    ])
    def test_grades_bad_grade_or_repeated_key_reports_row(self, tmp_path, rows, row, field):
        path = tmp_path / "grades.csv"
        path.write_text("grader,output_id,grade\n" + rows)
        with pytest.raises(ParseError) as err:
            load_grades_csv(path)
        assert (err.value.row, err.value.field) == (row, field)

    def test_ground_truth_duplicate_rejected(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("output_id,reference\no1,true\no1,false\n")
        with pytest.raises(ParseError):
            load_ground_truth_csv(path)

    def test_ground_truth_loads(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text('output_id,reference\no1,half-true\no2,"true, mostly"\n')
        assert load_ground_truth_csv(path) == {"o1": "half-true", "o2": "true, mostly"}
