"""The indexed bulk-path kernels equal the per-query scans they replaced, with ``==``.

Each reference in ``tests/helpers.py`` is the earlier code, copied verbatim:
the consensus loop that scanned every grader for each mean, the task rows
that regrouped every history record per ensemble, the CLI's per-ensemble task
rows and checked vote that one pass over each model's task column replaced,
and the map that scored each candidate ensemble from scratch.  The references
sum with the built-in ``sum()``, which compensates rounding from Python 3.12
on, so the comparison is only exact up to 3.11.
"""

from __future__ import annotations

import math
import sys

import pytest
from helpers import (
    effectiveness_soft_vote,
    reference_delta_ci_cells,
    reference_grade_order,
    reference_task_matrix,
    reference_vancouver_consensus,
    task_matrix,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llmchem import complementarity
from llmchem.complementarity import (
    CIParams,
    EnsemblePoint,
    delta_ci_map,
    effectiveness_by_task,
    task_accuracies,
)
from llmchem.consensus import GradeMatrix, vancouver_consensus
from llmchem.errors import MalformedMatrixError
from llmchem.history import HistoryRecord

pytestmark = pytest.mark.skipif(
    sys.version_info >= (3, 12), reason="the references use the built-in sum()"
)

GRADES = st.one_of(
    st.floats(0.0, 10.0, allow_nan=False), st.integers(0, 10).map(float)
)


@st.composite
def grade_rows(draw) -> list[tuple[str, str, float]]:
    """Rows of a grade matrix in arbitrary order, with the sparse corner cases mixed in.

    Besides a random core, it may add an output graded by every grader, lone
    graders (one grade each), outputs with a single grade, and a grader with
    no estimable output (it alone grades each of its outputs).  With up to 16
    graders, ``g10`` sorts before ``g2``, so name order, numeric order and the
    first-seen order of the shuffled rows all differ.
    """
    graders = [f"g{i}" for i in range(draw(st.integers(1, 16)))]
    outputs = [f"o{i}" for i in range(draw(st.integers(1, 8)))]
    rows = []
    for output in outputs:
        chosen = draw(st.lists(st.sampled_from(graders), min_size=1, unique=True))
        rows += [(g, output, draw(GRADES)) for g in chosen]
    if draw(st.booleans()):  # an output every grader graded
        rows += [(g, "every", draw(GRADES)) for g in graders]
    for i in range(draw(st.integers(0, 2))):  # lone graders on shared outputs
        rows.append((f"lone{i}", draw(st.sampled_from(outputs)), draw(GRADES)))
    for i in range(draw(st.integers(0, 3))):  # single-grade outputs of a shared grader
        rows.append((draw(st.sampled_from(graders)), f"single{i}", draw(GRADES)))
    for i in range(draw(st.integers(0, 2))):  # a grader that no other grader checks
        rows.append(("solo", f"solo{i}", draw(GRADES)))
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(
    rows=grade_rows(),
    max_iters=st.integers(1, 8),
    tol=st.sampled_from([1e-12, 1e-6, 1e-2, 1.0]),
)
def test_consensus_equals_the_full_scan(rows, max_iters, tol):
    matrix = GradeMatrix.from_rows(rows)
    assert (list(matrix.graders), list(matrix.outputs)) == reference_grade_order(rows)
    mine = vancouver_consensus(matrix, max_iters=max_iters, tol=tol)
    ref = reference_vancouver_consensus(matrix, max_iters, tol)
    assert mine == ref
    assert list(mine.consensus) == list(ref.consensus)
    assert list(mine.variance) == list(ref.variance)


def test_duplicate_grade_still_rejected():
    with pytest.raises(MalformedMatrixError, match="duplicate grade for \\('g1', 'o1'\\)"):
        GradeMatrix.from_rows([("g1", "o1", 5.0), ("g2", "o1", 4.0), ("g1", "o1", 6.0)])


def _record(task: str, model: str, trial: int, accuracy: float) -> HistoryRecord:
    return HistoryRecord(
        trial=f"t{trial}", model=model, task=task, latency=1.0, temperature=0.7,
        id=f"{task}-{model}-{trial}", result="", quality=5.0, gen_accuracy=accuracy,
        variance=0.0, review_accuracy=accuracy, accuracy=accuracy, elapsed="", created="",
    )


MODELS = ["m0", "m1", "m2", "m3", "m4"]


@st.composite
def histories(draw) -> list[HistoryRecord]:
    """Records of a few tasks, each with some of the models and repeated trials."""
    records = []
    for task in [f"task{i}" for i in range(draw(st.integers(1, 6)))]:
        for model in draw(st.lists(st.sampled_from(MODELS), unique=True)):
            for trial in range(draw(st.integers(1, 4))):
                accuracy = draw(st.floats(0.0, 1.0, allow_nan=False))
                records.append(_record(task, model, trial, accuracy))
    return draw(st.permutations(records))


HALF_UP, HALF_DOWN = math.nextafter(0.5, 1.0), math.nextafter(0.5, 0.0)


@settings(max_examples=300, deadline=None)
@given(
    records=histories(),
    ensembles=st.lists(
        st.lists(st.sampled_from(MODELS), min_size=1, max_size=4), min_size=1, max_size=5
    ),
)
# Means at 0.5 and one ulp either side, alone and with a second member.
@example(
    records=[_record(f"task{i}", "m0", 0, a) for i, a in enumerate([0.5, HALF_UP, HALF_DOWN])]
    + [_record(f"task{i}", "m1", 0, 0.5) for i in range(3)]
    + [_record("task3", "m0", 0, HALF_UP), _record("task3", "m0", 1, HALF_DOWN)],
    ensembles=[["m0"], ["m0", "m1"], ["m1", "m0"]],
)
# One-member ensembles on tasks that only some models answered.
@example(
    records=[_record("task0", "m0", 0, 0.75), _record("task0", "m1", 0, 0.25),
             _record("task1", "m1", 0, 0.75), _record("task2", "m0", 0, 0.25)],
    ensembles=[["m0"], ["m1"], ["m0", "m1"]],
)
# Ensembles that keep no task: members never on one task, or never recorded.
@example(
    records=[_record("task0", "m0", 0, 0.75), _record("task1", "m1", 0, 0.75)],
    ensembles=[["m0", "m1"], ["m4"], ["m0"]],
)
def test_effectiveness_by_task_equals_the_task_rows_and_the_checked_vote(records, ensembles):
    accuracies = task_accuracies(records)
    votes = effectiveness_by_task(accuracies, ensembles)
    assert len(votes) == len(ensembles)
    for group, vote in zip(ensembles, votes):
        matrix, skipped = task_matrix(accuracies, group)
        assert (matrix, skipped) == reference_task_matrix(records, group)
        assert vote == (effectiveness_soft_vote(matrix) if matrix else None, skipped)


@st.composite
def one_task_tables(draw) -> tuple[dict[str, float], list[list[str]]]:
    """One task's accuracy per model, and ensembles of the models it holds."""
    models = draw(st.lists(st.sampled_from(MODELS), min_size=1, unique=True))
    row = {model: draw(st.floats(0.0, 1.0, allow_nan=False)) for model in models}
    groups = st.lists(st.sampled_from(models), min_size=1, max_size=4)
    return row, draw(st.lists(groups, min_size=1, max_size=5))


@settings(max_examples=300, deadline=None)
@given(case=one_task_tables())
# Means at 0.5 and one ulp either side, alone and in pairs.
@example(case=({"m0": 0.5, "m1": HALF_UP, "m2": HALF_DOWN, "m3": 0.25, "m4": 0.75},
               [["m0"], ["m1"], ["m2"], ["m3", "m4"], ["m1", "m2"], ["m0", "m1"], ["m2", "m0"]]))
def test_a_one_task_table_votes_as_the_checked_vote_on_its_row(case):
    # eval without --history votes this way over the stored profile accuracies.
    row, ensembles = case
    votes = effectiveness_by_task({"": row}, ensembles)
    assert votes == [
        (complementarity.effectiveness_soft_vote([[row[m] for m in group]]), 0)
        for group in ensembles
    ]


COORDINATES = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0, allow_nan=False)
)


@st.composite
def ensembles(draw) -> list[EnsemblePoint]:
    """Members with tied, duplicated and on-axis points, up to the benchmark's eight."""
    points = [
        EnsemblePoint(f"m{i}", accuracy=draw(COORDINATES), quality_norm=draw(COORDINATES))
        for i in range(draw(st.integers(1, 8)))
    ]
    for i in range(draw(st.integers(0, 2))):  # exact duplicates of earlier members
        twin = draw(st.sampled_from(points))
        points.append(EnsemblePoint(f"twin{i}", twin.accuracy, twin.quality_norm))
    return draw(st.permutations(points))


@settings(max_examples=200, deadline=None)
@given(
    ensemble=ensembles(),
    grid_size=st.integers(2, 20),
    lam=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0, allow_nan=False)),
)
def test_map_equals_scoring_each_cell_from_scratch(ensemble, grid_size, lam):
    grid = delta_ci_map(ensemble, CIParams(lam=lam), grid_size=grid_size)
    assert (grid.base_index, grid.cells) == reference_delta_ci_cells(ensemble, lam, grid_size)


def test_map_candidate_ties_a_member_on_the_grid():
    # Members at cell centres of a 4x4 grid: candidates tie them exactly.
    ensemble = [
        EnsemblePoint("a", 0.375, 0.625),
        EnsemblePoint("b", 0.375, 0.625),
        EnsemblePoint("c", 0.625, 0.125),
        EnsemblePoint("d", 0.0, 0.875),
    ]
    grid = delta_ci_map(ensemble, CIParams(lam=0.3), grid_size=4)
    assert (grid.base_index, grid.cells) == reference_delta_ci_cells(ensemble, 0.3, 4)


def _assert_map_equals_reference(ensemble, lam, grid_size):
    grid = delta_ci_map(ensemble, CIParams(lam=lam), grid_size=grid_size)
    assert (grid.base_index, grid.cells) == reference_delta_ci_cells(ensemble, lam, grid_size)


def test_map_of_eight_distinct_members():
    # The benchmark's map shape: eight members, no ties, a 30x30 grid.
    coordinates = [
        (0.715, 0.412), (0.818, 0.606), (0.598, 0.833), (0.867, 0.875),
        (0.758, 0.736), (0.887, 0.705), (0.669, 0.417), (0.613, 0.291),
    ]
    ensemble = [EnsemblePoint(f"m{i}", a, q) for i, (a, q) in enumerate(coordinates)]
    _assert_map_equals_reference(ensemble, 0.5, 30)


def test_map_with_every_member_on_an_axis():
    # No member dominates anything: the staircase is empty.
    ensemble = [
        EnsemblePoint("a", 0.0, 0.7),
        EnsemblePoint("b", 0.4, 0.0),
        EnsemblePoint("c", 0.0, 0.0),
    ]
    _assert_map_equals_reference(ensemble, 0.6, 9)


def test_map_of_one_member():
    # No member-to-member Rao term: each cell's sum is the candidate's distance.
    _assert_map_equals_reference([EnsemblePoint("a", 0.3, 0.9)], 0.5, 12)


def test_map_candidate_quality_equals_a_prefix_best():
    # On a 4x4 grid the candidate (0.375, 0.875) sorts after "a" (0.625, 0.875),
    # whose quality is then the walk's best: the full-area branch, hit exactly.
    ensemble = [
        EnsemblePoint("a", 0.625, 0.875),
        EnsemblePoint("b", 0.25, 0.95),
        EnsemblePoint("c", 0.9, 0.125),
    ]
    grid = delta_ci_map(ensemble, CIParams(lam=1.0), grid_size=4)
    assert grid.cells[1][3] == 0.0  # coverage is unchanged, to the bit
    _assert_map_equals_reference(ensemble, 0.4, 4)
