"""Evaluation-side metrics for candidate ensembles.

An ensemble is a set of points in the unit (accuracy, quality) square.  Its
complementarity index blends two views: the hypervolume the points dominate
(coverage of the accuracy-quality trade-off) and Rao's quadratic entropy
(pairwise member diversity).  Marginal-complementarity grids show where a
hypothetical new member would raise the index; soft-voting effectiveness and
Pearson correlation support downstream comparisons.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

from .core import ModelProfile, Record, left_sum
from .errors import DomainError, UndefinedCorrelationError
from .files import write_csv_text

SQRT2 = math.sqrt(2.0)

#: Cells per axis of a marginal-complementarity grid.
DEFAULT_GRID_SIZE = 50


class EnsemblePoint(Record):
    """One member's position in the unit accuracy-quality square."""

    model: str
    accuracy: float
    quality_norm: float

    def __post_init__(self) -> None:
        for label, value in (("accuracy", self.accuracy), ("quality_norm", self.quality_norm)):
            if not math.isfinite(value) or not 0.0 <= value <= 1.0:
                raise DomainError(f"{label} must be in [0, 1], got {value!r}")

    @classmethod
    def from_profile(cls, profile: ModelProfile) -> "EnsemblePoint":
        return cls(model=profile.model, accuracy=profile.accuracy, quality_norm=profile.quality_norm)


class CIParams(Record):
    """Trade-off weight of the complementarity index."""

    lam: float = 0.5  # weight on coverage; 1 - lam goes to diversity

    def __post_init__(self) -> None:
        if not math.isfinite(self.lam) or not 0.0 <= self.lam <= 1.0:
            raise DomainError(f"lam must be in [0, 1], got {self.lam!r}")


def hypervolume2d(points: Iterable[EnsemblePoint]) -> float:
    """Area of the region dominated by ``points``, measured from the origin.

    Computed by a staircase sweep: sort by accuracy descending and accumulate
    each strictly-new quality level's rectangle; the area is the last of
    :func:`_staircase_states`.  Points on an axis dominate nothing; the empty
    set has volume 0.
    """
    return _staircase_states(sorted(_dominating(points), key=_staircase_key))[-1][0]


def _dominating(points: Iterable[EnsemblePoint]) -> list[tuple[float, float]]:
    """(accuracy, quality) of the points off both axes, in input order."""
    return [
        (p.accuracy, p.quality_norm)
        for p in points
        if p.accuracy > 0.0 and p.quality_norm > 0.0
    ]


def _staircase_key(xy: tuple[float, float]) -> tuple[float, float]:
    return (-xy[0], -xy[1])


def rao_entropy(points: Sequence[EnsemblePoint]) -> float:
    """Mean pairwise distance under uniform weights, scaled to [0, 1).

    ``sum_ij (1/n^2) * d_ij / sqrt(2)`` with Euclidean distances in the unit
    square.  Zero exactly when all members coincide (including n = 1).
    """
    n = len(points)
    if n == 0:
        raise DomainError("Rao entropy needs at least one point")
    rows = _pair_terms([(p.accuracy, p.quality_norm) for p in points])
    return left_sum(chain.from_iterable(rows)) / (n * n) / SQRT2


def _pair_terms(members: list[tuple[float, float]]) -> list[list[float]]:
    """Row i holds ``2 * dist`` from member i to each later member, in order.

    Summed row by row, these are the i < j terms of :func:`rao_entropy`.
    """
    return [
        [2.0 * math.dist(xy, other) for other in members[i + 1 :]]
        for i, xy in enumerate(members)
    ]


def complementarity_index(
    points: Sequence[EnsemblePoint], params: CIParams = CIParams()
) -> float:
    """Convex blend of coverage and diversity: lam * HV + (1 - lam) * Rao."""
    coverage = hypervolume2d(points)
    diversity = rao_entropy(points)
    return params.lam * coverage + (1.0 - params.lam) * diversity


#: Grid verdicts below this max |delta| are reported as saturated.
SATURATION_THRESHOLD = 0.01


class ChemistryMap(Record):
    """Marginal complementarity of a hypothetical new member per grid cell.

    ``cells[i][j]`` holds the index change for a candidate at the centre of
    accuracy bin i and quality bin j.  A near-uniform grid (max |delta| below
    the saturation threshold) marks an ensemble that new members cannot
    improve.
    """

    grid_size: int
    cells: tuple[tuple[float, ...], ...]  # [accuracy bin][quality bin]
    params: CIParams
    base_index: float

    @cached_property
    def max_delta(self) -> float:
        return max(map(max, self.cells))  # the first of tied maxima, as -0.0 before 0.0

    @cached_property
    def max_abs_delta(self) -> float:
        return max(map(abs, chain.from_iterable(self.cells)))

    @cached_property
    def saturated(self) -> bool:
        return self.max_abs_delta < SATURATION_THRESHOLD

    def to_csv(self, path: str | Path) -> None:
        """Write one ``accuracy_bin,quality_bin,delta_ci`` row per cell, a grid row per chunk.

        A float's ``str`` is its ``repr`` and no numeric field needs quoting,
        so the bytes are ``write_csv``'s for the same rows.
        """
        quality_bins = [f"{j}," for j in range(self.grid_size)]
        write_csv_text(path, ("accuracy_bin", "quality_bin", "delta_ci"), (
            "".join([f"{i},{j}{value!r}\n" for j, value in zip(quality_bins, row)])
            for i, row in enumerate(self.cells)
        ))

    def summary(self) -> dict:
        return {
            "grid_size": self.grid_size,
            "lambda": self.params.lam,
            "base_index": self.base_index,
            "max_delta_ci": self.max_delta,
            "max_abs_delta_ci": self.max_abs_delta,
            "saturated": self.saturated,
        }


def check_grid_size(grid_size: int) -> None:
    """Reject a grid with fewer than two cells per axis."""
    if grid_size < 2:
        raise DomainError(f"grid_size must be >= 2, got {grid_size}")


def delta_ci_map(
    ensemble: Sequence[EnsemblePoint],
    params: CIParams = CIParams(),
    grid_size: int = DEFAULT_GRID_SIZE,
) -> ChemistryMap:
    """Index change from adding a hypothetical member at each grid cell centre.

    Cell centres sample the open unit square (never exactly 0 or 1), so the
    grid stays clear of degenerate boundary candidates.

    Each cell makes the floating-point operations of
    :func:`complementarity_index` on the ensemble with the candidate appended,
    in the same order, so it is bit-identical to scoring that ensemble from
    scratch.  What does not depend on the candidate is computed once:

    - the staircase's states (:func:`_staircase_states`).  A candidate joins
      the sorted staircase where a stable sort would put it when appended
      last, after its equal keys.  The walk resumes from the state at that
      point, adds the candidate's step and goes on over the rest.  A
      candidate whose quality does not rise above that state's best changes
      nothing, so its coverage is the full staircase's area;
    - the Rao terms between members (:func:`_pair_terms`).  Appended last,
      the candidate ends every member's row, so the sum is member row 0's
      terms, then per member its distance to the candidate followed by the
      next member's row.
    """
    check_grid_size(grid_size)
    base = complementarity_index(ensemble, params)
    members = [(p.accuracy, p.quality_norm) for p in ensemble]
    staircase = sorted(_dominating(ensemble), key=_staircase_key)
    keys = [_staircase_key(xy) for xy in staircase]
    states = _staircase_states(staircase)
    full_area = states[-1][0]
    rows = _pair_terms(members)
    head = left_sum(rows[0])  # member row 0, the same in every cell
    steps = list(zip(members, rows[1:] + [[]]))
    lam, n = params.lam, len(members) + 1
    cells: list[tuple[float, ...]] = []
    for i in range(grid_size):
        accuracy = (i + 0.5) / grid_size
        row: list[float] = []
        for j in range(grid_size):
            quality = (j + 0.5) / grid_size
            candidate = (accuracy, quality)
            coverage, best, rest = states[bisect_right(keys, (-accuracy, -quality))]
            if quality > best:
                coverage += accuracy * (quality - best)
                best = quality
                for member_accuracy, member_quality in rest:
                    if member_quality > best:
                        coverage += member_accuracy * (member_quality - best)
                        best = member_quality
            else:
                coverage = full_area
            total = head
            for xy, terms in steps:
                total += 2.0 * math.dist(xy, candidate)
                for term in terms:
                    total += term
            diversity = total / (n * n) / SQRT2
            row.append(lam * coverage + (1.0 - lam) * diversity - base)
        cells.append(tuple(row))
    return ChemistryMap(
        grid_size=grid_size,
        cells=tuple(cells),
        params=params,
        base_index=base,
    )


def _staircase_states(
    staircase: list[tuple[float, float]],
) -> list[tuple[float, float, list[tuple[float, float]]]]:
    """``(area, best_quality, staircase[k:])`` after the first k points, for k = 0..len.

    ``staircase`` is sorted by accuracy, then quality, descending.  The last
    state's area is that of the whole staircase, :func:`hypervolume2d`.
    """
    states = []
    area = 0.0
    best_quality = 0.0
    for k, (accuracy, quality) in enumerate(staircase):
        states.append((area, best_quality, staircase[k:]))
        if quality > best_quality:
            area += accuracy * (quality - best_quality)
            best_quality = quality
    states.append((area, best_quality, []))
    return states


def effectiveness_soft_vote(member_accuracies_per_task: Sequence[Sequence[float]]) -> float:
    """Fraction of tasks the ensemble gets right under soft voting.

    A task counts as correct when the mean member accuracy on it is strictly
    above 0.5.  Every value is checked.  :func:`effectiveness_by_task` casts
    the same votes over a table of tasks, which is how the CLI votes.
    """
    tasks = [list(row) for row in member_accuracies_per_task]
    if not tasks or any(not row for row in tasks):
        raise DomainError("effectiveness needs at least one task and one member")
    for row in tasks:
        for value in row:
            if not math.isfinite(value) or not 0.0 <= value <= 1.0:
                raise DomainError(f"accuracy must be in [0, 1], got {value!r}")
    correct = sum(1 for row in tasks if (left_sum(row) / len(row)) > 0.5)
    return correct / len(tasks)


def task_accuracies(records: Iterable[tuple]) -> dict[str, dict[str, float]]:
    """Mean accuracy of each model on each task, tasks in sorted order.

    ``records`` holds history row tuples in ``HISTORY_COLUMNS`` order, read
    by position: the plain rows of ``history.iter_history_rows`` or
    ``HistoryRecord``s.  Each mean adds the task's records of that model in
    the order given.
    """
    by_task: dict[str, dict[str, list[float]]] = {}
    for row in records:  # task, model, accuracy; get-then-insert builds no throwaway containers
        models = by_task.get(row[2])
        if models is None:
            models = by_task[row[2]] = {}
        values = models.get(row[1])
        if values is None:
            values = models[row[1]] = []
        values.append(row[11])
    return {
        task: {model: left_sum(values) / len(values) for model, values in by_task[task].items()}
        for task in sorted(by_task)
    }


def effectiveness_by_task(
    accuracies: dict[str, dict[str, float]], ensembles: Sequence[Sequence[str]]
) -> list[tuple[float | None, int]]:
    """``(value, skipped)`` per ensemble over a table such as :func:`task_accuracies`'.

    Without a history the CLI passes one pseudo-task of the stored profile
    accuracies, on which every vote is 1.0 or 0.0 and nothing is skipped.

    A task is kept when every member has a record on it; ``value`` is the
    :func:`effectiveness_soft_vote` of the kept rows (None if none is kept)
    and ``skipped`` counts the others.  Each model's column over the tasks,
    None where it has no record, is built once and zipped per ensemble.
    Nothing is range-checked again: a left-to-right mean of accuracies in
    [0, 1] stays in [0, 1], because rounded addition is monotone.
    """
    columns: dict[str, list[float | None]] = {}
    results = []
    for group in ensembles:
        for model in group:
            if model not in columns:
                columns[model] = [per_model.get(model) for per_model in accuracies.values()]
        size = len(group)
        kept = correct = 0
        for row in zip(*[columns[model] for model in group]):
            if None in row:
                continue
            kept += 1
            if left_sum(row) / size > 0.5:
                correct += 1
        results.append((correct / kept if kept else None, len(accuracies) - kept))
    return results


def pearson_r(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson product-moment correlation, defined for non-constant series.

    Spelled out as Python 3.11's ``statistics.correlation`` computes it
    (``fsum`` means and sums over mean-centred values), which later versions
    round differently, so every interpreter gives the same bytes.
    """
    n = len(xs)
    if len(ys) != n:
        raise UndefinedCorrelationError(f"series lengths differ: {n} vs {len(ys)}")
    if n < 2:
        raise UndefinedCorrelationError("correlation needs at least two points")
    x_mean = math.fsum(xs) / n
    y_mean = math.fsum(ys) / n
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    sxx = math.fsum((d := x - x_mean) * d for x in xs)
    syy = math.fsum((d := y - y_mean) * d for y in ys)
    try:
        r = sxy / math.sqrt(sxx * syy)
    except ZeroDivisionError:
        raise UndefinedCorrelationError("at least one of the inputs is constant") from None
    return max(-1.0, min(1.0, r))
