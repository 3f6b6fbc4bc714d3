from __future__ import annotations

import csv
import io
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from llmchem import (
    CIParams,
    EnsemblePoint,
    complementarity_index,
    delta_ci_map,
    effectiveness_soft_vote,
    hypervolume2d,
    pearson_r,
    rao_entropy,
)
from llmchem.complementarity import ChemistryMap, effectiveness_by_task
from llmchem.errors import DomainError, UndefinedCorrelationError
from llmchem.files import write_csv, write_json

ABS = 1e-12


def pt(a: float, q: float, name: str = "p") -> EnsemblePoint:
    return EnsemblePoint(name, accuracy=a, quality_norm=q)


unit_points = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=0, max_size=8
).map(lambda tuples: [pt(a, q, f"p{i}") for i, (a, q) in enumerate(tuples)])


class TestHypervolume:
    def test_full_unit_square(self):
        assert hypervolume2d([pt(1.0, 1.0)]) == 1.0

    def test_single_rectangle(self):
        assert hypervolume2d([pt(0.5, 0.5)]) == 0.25

    def test_staircase_example(self):
        value = hypervolume2d([pt(0.9, 0.3), pt(0.3, 0.9)])
        assert value == pytest.approx(0.45, abs=ABS)

    def test_empty_set_is_zero_not_error(self):
        assert hypervolume2d([]) == 0.0

    def test_dominated_point_contributes_nothing(self):
        base = [pt(0.8, 0.8)]
        assert hypervolume2d(base + [pt(0.5, 0.5)]) == hypervolume2d(base)

    @given(unit_points, st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    def test_adding_a_point_never_decreases(self, points, extra):
        before = hypervolume2d(points)
        after = hypervolume2d(points + [pt(*extra, name="extra")])
        assert after >= before - ABS

    def test_monte_carlo_cross_check_small(self):
        numpy = pytest.importorskip("numpy")
        rng = numpy.random.default_rng(12345)
        points = [pt(0.9, 0.3), pt(0.3, 0.9), pt(0.6, 0.7)]
        samples = rng.random((200_000, 2))
        hits = numpy.zeros(len(samples), dtype=bool)
        for p in points:
            hits |= (samples[:, 0] < p.accuracy) & (samples[:, 1] < p.quality_norm)
        estimate = float(hits.mean())
        assert hypervolume2d(points) == pytest.approx(estimate, abs=0.005)


class TestRaoEntropy:
    def test_identical_points(self):
        assert rao_entropy([pt(0.4, 0.4), pt(0.4, 0.4), pt(0.4, 0.4)]) == 0.0

    def test_two_opposite_corners(self):
        assert rao_entropy([pt(0.0, 0.0), pt(1.0, 1.0)]) == pytest.approx(0.5, abs=ABS)

    def test_single_point(self):
        assert rao_entropy([pt(0.7, 0.2)]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            rao_entropy([])

    @given(unit_points.filter(lambda ps: len(ps) >= 1))
    def test_bounded_and_permutation_invariant(self, points):
        value = rao_entropy(points)
        assert 0.0 <= value < 1.0
        assert rao_entropy(list(reversed(points))) == pytest.approx(value, abs=ABS)

    def test_zero_iff_all_coincide(self):
        rng = random.Random(139)
        for _ in range(20):
            points = [
                pt(rng.random(), rng.random(), f"p{i}") for i in range(rng.randint(2, 6))
            ]
            coincide = len({(p.accuracy, p.quality_norm) for p in points}) == 1
            assert (rao_entropy(points) == 0.0) == coincide


class TestComplementarityIndex:
    def test_single_perfect_point(self):
        assert complementarity_index([pt(1.0, 1.0)]) == pytest.approx(0.5, abs=ABS)

    def test_identical_mediocre_points(self):
        points = [pt(0.5, 0.5), pt(0.5, 0.5)]
        assert complementarity_index(points) == pytest.approx(0.125, abs=ABS)

    def test_endpoint_identities(self):
        points = [pt(0.9, 0.3), pt(0.3, 0.9)]
        assert complementarity_index(points, CIParams(lam=1.0)) == hypervolume2d(points)
        assert complementarity_index(points, CIParams(lam=0.0)) == rao_entropy(points)

    def test_monotone_in_lambda_between_endpoints(self):
        points = [pt(0.9, 0.2), pt(0.2, 0.9), pt(0.5, 0.5)]
        hv = hypervolume2d(points)
        rao = rao_entropy(points)
        values = [
            complementarity_index(points, CIParams(lam=lam))
            for lam in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        ordered = sorted(values) if hv >= rao else sorted(values, reverse=True)
        assert values == ordered

    def test_lambda_validated(self):
        with pytest.raises(DomainError):
            CIParams(lam=1.5)

    @pytest.mark.parametrize("accuracy, quality", [(1.5, 0.5), (0.5, -0.1), (math.nan, 0.5)])
    def test_point_outside_the_unit_square_rejected(self, accuracy, quality):
        with pytest.raises(DomainError, match=r"must be in \[0, 1\]"):
            pt(accuracy, quality)


class TestDeltaCiMap:
    def test_perfect_singleton_brightest_at_far_corner(self):
        grid = delta_ci_map([pt(1.0, 1.0)], grid_size=10)
        flat = [
            (value, i, j)
            for i, row in enumerate(grid.cells)
            for j, value in enumerate(row)
        ]
        best_value, best_i, best_j = max(flat)
        assert (best_i, best_j) == (0, 0)  # farthest cell from (1, 1)
        assert not grid.saturated
        assert best_value > 0.0

    def test_identical_mediocre_ensemble_brightens_dominating_cells(self):
        points = [pt(0.4, 0.4), pt(0.4, 0.4)]
        grid = delta_ci_map(points, grid_size=10)
        # cell centred at (0.95, 0.95) dominates the members
        assert grid.cells[9][9] > 0.0

    def test_corner_covered_max_spread_ensemble_is_saturated(self):
        corners = [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)]
        points = [
            pt(a, q, f"c{i}-{j}")
            for j, (a, q) in enumerate(corners)
            for i in range(40)
        ]
        grid = delta_ci_map(points, grid_size=5)
        assert grid.saturated

    def test_grid_size_validated(self):
        with pytest.raises(DomainError):
            delta_ci_map([pt(0.5, 0.5)], grid_size=1)

    def test_csv_export_row_count_and_summary(self, tmp_path):
        grid = delta_ci_map([pt(1.0, 1.0)], grid_size=7)
        path = tmp_path / "map.csv"
        grid.to_csv(path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["accuracy_bin", "quality_bin", "delta_ci"]
        assert len(rows) == 1 + 7 * 7
        summary = grid.summary()
        assert summary["grid_size"] == 7
        assert summary["saturated"] is False
        assert summary["max_delta_ci"] == grid.max_delta


    def test_max_delta_keeps_the_first_of_signed_zeros(self, tmp_path):
        cells = ((-1.0, -0.0, 0.0), (0.0, -0.5, -0.0), (-0.25, -0.0, -0.75))
        grid = ChemistryMap(grid_size=3, cells=cells, params=CIParams(), base_index=0.5)
        assert math.copysign(1.0, grid.max_delta) == -1.0
        assert grid.max_abs_delta == 1.0
        path = tmp_path / "map.csv.summary.json"
        write_json(path, grid.summary())
        assert '"max_delta_ci": -0.0,' in path.read_text(encoding="utf-8")

    def test_csv_bytes_equal_a_writer_given_one_list_per_cell(self, tmp_path):
        grid = delta_ci_map([pt(0.9, 0.2), pt(0.3, 0.8), pt(0.6, 0.6)], grid_size=7)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["accuracy_bin", "quality_bin", "delta_ci"])
        for i, row in enumerate(grid.cells):
            for j, value in enumerate(row):
                writer.writerow([i, j, value])
        path = tmp_path / "map.csv"
        grid.to_csv(path)
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    def test_csv_bytes_equal_write_csv_on_the_same_rows(self, tmp_path):
        # Signed zero, the smallest subnormal, a float whose repr has an
        # exponent and one with 17 digits, on the smallest grid.
        cells = ((-0.0, 5e-324), (1e16, 0.1 + 0.2))
        grid = ChemistryMap(grid_size=2, cells=cells, params=CIParams(), base_index=0.5)
        grid.to_csv(tmp_path / "map.csv")
        rows = [(i, j, value) for i, row in enumerate(cells) for j, value in enumerate(row)]
        write_csv(tmp_path / "rows.csv", ("accuracy_bin", "quality_bin", "delta_ci"), rows)
        written = (tmp_path / "map.csv").read_bytes()
        assert written == (tmp_path / "rows.csv").read_bytes()
        assert written == (b"accuracy_bin,quality_bin,delta_ci\n"
                           b"0,0,-0.0\n0,1,5e-324\n1,0,1e+16\n1,1,0.30000000000000004\n")


class TestEffectiveness:
    def test_single_task_majority(self):
        assert effectiveness_soft_vote([[0.9, 0.8, 0.1]]) == 1.0

    def test_strict_inequality_at_the_boundary(self):
        assert effectiveness_soft_vote([[0.5, 0.5]]) == 0.0

    def test_mixed_tasks(self):
        assert effectiveness_soft_vote([[0.9, 0.8], [0.1, 0.2]]) == 0.5

    def test_task_order_invariant(self):
        tasks = [[0.9, 0.8], [0.1, 0.2], [0.6, 0.7]]
        assert effectiveness_soft_vote(tasks) == effectiveness_soft_vote(tasks[::-1])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            effectiveness_soft_vote([])
        with pytest.raises(DomainError):
            effectiveness_soft_vote([[]])

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            effectiveness_soft_vote([[1.2]])

    def test_by_task_votes_each_ensemble_over_the_tasks_all_members_answered(self):
        accuracies = {"t1": {"a": 0.9, "b": 0.2}, "t2": {"a": 0.4}, "t3": {"a": 0.6, "b": 0.6}}
        votes = effectiveness_by_task(accuracies, [["a"], ["a", "b"], ["b"], ["c"]])
        assert votes == [(2 / 3, 0), (1.0, 1), (0.5, 1), (None, 3)]


def two_pass_pearson(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    return cov / math.sqrt(vx * vy)


class TestPearson:
    def test_perfect_linear(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert pearson_r(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0, abs=ABS)

    def test_perfect_anticorrelation(self):
        xs = [1.0, 2.0, 3.0]
        assert pearson_r(xs, [-x for x in xs]) == pytest.approx(-1.0, abs=ABS)

    def test_matches_two_pass_oracle(self):
        rng = random.Random(149)
        for _ in range(25):
            n = rng.randint(3, 40)
            xs = [rng.uniform(-5, 5) for _ in range(n)]
            ys = [rng.uniform(-5, 5) for _ in range(n)]
            assert pearson_r(xs, ys) == pytest.approx(two_pass_pearson(xs, ys), abs=ABS)

    def test_bounded(self):
        rng = random.Random(151)
        for _ in range(20):
            xs = [rng.random() for _ in range(10)]
            ys = [rng.random() for _ in range(10)]
            assert -1.0 <= pearson_r(xs, ys) <= 1.0

    def test_constant_series_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_short_or_mismatched_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson_r([1.0], [2.0])
        with pytest.raises(UndefinedCorrelationError):
            pearson_r([1.0, 2.0], [1.0, 2.0, 3.0])
