"""Consensus grading and accuracy blending.

Quality scores come from an iterative minimum-variance estimate over a
grader-by-output grade matrix: each output's consensus is the
inverse-variance-weighted mean of its grades, and each grader's variance is
re-estimated against the leave-that-grader-out consensus of what it graded.
Low variance means the grader tracks the consensus, so its inverse maps to a
review accuracy.  A model's final accuracy blends generation accuracy (match
against references) with review accuracy, 75/25 when ground truth exists and
25/75 when it does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .core import left_sum
from .errors import DomainError, MalformedMatrixError, ParseError
from .files import read_csv

VARIANCE_FLOOR = 1e-10
PRIOR_VARIANCE = 1.0
DEFAULT_MAX_ITERS = 20
DEFAULT_TOL = 1e-6

#: Weight of generation accuracy in the final accuracy; review gets the rest.
GEN_WEIGHT_WITH_GT = 0.75
GEN_WEIGHT_WITHOUT_GT = 0.25


def _check_grade(grader: str, output: str, grade: float) -> None:
    if not math.isfinite(grade) or not 0.0 <= grade <= 10.0:
        raise MalformedMatrixError(
            f"grade for ({grader!r}, {output!r}) must be in [0, 10], got {grade!r}"
        )


@dataclass(frozen=True)
class GradeMatrix:
    """Sparse grader-by-output grade matrix, grades in [0, 10]."""

    outputs: tuple[str, ...]
    graders: tuple[str, ...]
    grades: dict[tuple[str, str], float]  # (grader, output) -> grade

    def __post_init__(self) -> None:
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "graders", tuple(self.graders))
        if len(set(self.outputs)) != len(self.outputs):
            raise MalformedMatrixError("duplicate output ids")
        if len(set(self.graders)) != len(self.graders):
            raise MalformedMatrixError("duplicate grader ids")
        known_outputs = set(self.outputs)
        known_graders = set(self.graders)
        graded: set[str] = set()
        for (grader, output), grade in self.grades.items():
            if grader not in known_graders:
                raise MalformedMatrixError(f"grade from unknown grader {grader!r}")
            if output not in known_outputs:
                raise MalformedMatrixError(f"grade for unknown output {output!r}")
            _check_grade(grader, output, grade)
            graded.add(output)
        ungraded = known_outputs - graded
        if ungraded:
            raise MalformedMatrixError(f"outputs without any grade: {sorted(ungraded)}")

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, str, float]]) -> "GradeMatrix":
        """Build from (grader, output, grade) rows, preserving first-seen order."""
        graders: dict[str, None] = {}
        outputs: dict[str, None] = {}
        grades: dict[tuple[str, str], float] = {}
        for grader, output, grade in rows:
            graders[grader] = None
            outputs[output] = None
            key = (grader, output)
            if key in grades:
                raise MalformedMatrixError(f"duplicate grade for {key!r}")
            grades[key] = float(grade)
        return cls(outputs=tuple(outputs), graders=tuple(graders), grades=grades)


@dataclass(frozen=True)
class ConsensusResult:
    """Converged (or truncated) state of the minimum-variance iteration."""

    consensus: dict[str, float]  # output -> consensus grade
    variance: dict[str, float]  # grader -> variance estimate
    review_accuracy: dict[str, float]  # grader -> 1 / (1 + variance)
    iterations: int
    converged: bool


def check_consensus_knobs(max_iters: int = DEFAULT_MAX_ITERS, tol: float = DEFAULT_TOL) -> None:
    """Reject a round budget below 1 or a tolerance that is not finite and positive."""
    if max_iters < 1:
        raise DomainError(f"max_iters must be >= 1, got {max_iters}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and > 0, got {tol!r}")


def _weighted_mean(
    terms: list[tuple[str, float, float]], exclude: str | None = None
) -> float | None:
    """Sum of ``weight * grade`` over sum of weights, skipping ``exclude``; None if none left.

    ``terms`` holds one output's ``(grader, weight, weight * grade)`` in
    sorted-grader order, and both sums run in that order.
    """
    total = 0.0
    weight_sum = 0.0
    for grader, weight, weighted in terms:
        if grader != exclude:
            total += weighted
            weight_sum += weight
    if weight_sum == 0.0:
        return None
    return total / weight_sum


def vancouver_consensus(
    matrix: GradeMatrix,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
) -> ConsensusResult:
    """Iterate consensus scores and grader variances to a fixed point.

    Each round: (1) every output's consensus becomes the
    inverse-variance-weighted mean of its grades; (2) every grader's variance
    becomes the mean squared deviation of its grades from the
    leave-that-grader-out consensus of the outputs it graded, floored at
    ``VARIANCE_FLOOR``.  Outputs where the grader stands alone are skipped in
    its estimate; a grader with no estimable output keeps the neutral prior
    variance 1.0.  Stops when the largest consensus change drops below
    ``tol`` or after ``max_iters`` rounds.  Internal iteration follows sorted
    grader and output ids, so declaration order never affects the result.

    The matrix is indexed once: each output's graders and each grader's
    outputs, both sorted, so a round only visits the grades that exist.
    """
    check_consensus_knobs(max_iters, tol)

    graders_of: dict[str, list[tuple[str, float]]] = {o: [] for o in matrix.outputs}
    graded_by: dict[str, list[tuple[str, float]]] = {g: [] for g in matrix.graders}
    for (grader, output), grade in sorted(matrix.grades.items()):
        graders_of[output].append((grader, grade))
        graded_by[grader].append((output, grade))

    variance: dict[str, float] = {g: PRIOR_VARIANCE for g in matrix.graders}
    consensus: dict[str, float] = {}
    converged = False
    iterations = 0

    for iterations in range(1, max_iters + 1):
        weights = {g: 1.0 / v for g, v in variance.items()}
        terms = {
            output: [(g, weights[g], weights[g] * grade) for g, grade in pairs]
            for output, pairs in graders_of.items()
        }
        # Every output has a grade (GradeMatrix checks it), so no mean is None.
        new_consensus = {output: _weighted_mean(terms[output]) for output in matrix.outputs}

        change = (
            max(abs(new_consensus[o] - consensus[o]) for o in matrix.outputs)
            if consensus
            else math.inf
        )
        consensus = new_consensus

        new_variance: dict[str, float] = {}
        for grader in matrix.graders:
            deviations: list[float] = []
            for output, grade in graded_by[grader]:
                others = _weighted_mean(terms[output], exclude=grader)
                if others is None:
                    continue  # grader stands alone on this output
                deviations.append((grade - others) ** 2)
            if deviations:
                estimate = left_sum(deviations) / len(deviations)
                new_variance[grader] = max(VARIANCE_FLOOR, estimate)
            else:
                new_variance[grader] = variance[grader]
        variance = new_variance

        if change < tol:
            converged = True
            break

    review = {g: review_accuracy_from_variance(v) for g, v in variance.items()}
    return ConsensusResult(
        consensus=consensus,
        variance=variance,
        review_accuracy=review,
        iterations=iterations,
        converged=converged,
    )


def review_accuracy_from_variance(v: float) -> float:
    """Map a variance estimate to a review accuracy in (0, 1].

    Uses ``1 / (1 + v)``: strictly decreasing, 1.0 for a perfect reviewer,
    approaching 0 as the variance grows.
    """
    if not math.isfinite(v) or v < 0.0:
        raise DomainError(f"variance must be finite and >= 0, got {v!r}")
    return 1.0 / (1.0 + v)


def generation_accuracy(result: str, ground_truth: str | None) -> float:
    """1.0 when an output matches its reference answer, else 0.0.

    The match is exact after whitespace and case normalisation; without a
    reference the score is 0.0.
    """
    if ground_truth is None:
        return 0.0
    result, reference = (" ".join(text.split()).casefold() for text in (result, ground_truth))
    return 1.0 if result == reference else 0.0


def combined_accuracy(gen: float, review: float, has_ground_truth: bool) -> float:
    """Blend generation and review accuracy into the final accuracy.

    75% generation / 25% review when ground truth exists; the emphasis flips
    to 25% / 75% when it does not.
    """
    if not math.isfinite(gen) or not 0.0 <= gen <= 1.0:
        raise DomainError(f"generation accuracy must be in [0, 1], got {gen!r}")
    if not math.isfinite(review) or not 0.0 <= review <= 1.0:
        raise DomainError(f"review accuracy must be in [0, 1], got {review!r}")
    weight = GEN_WEIGHT_WITH_GT if has_ground_truth else GEN_WEIGHT_WITHOUT_GT
    return weight * gen + (1.0 - weight) * review


def load_grades_csv(path: str | Path) -> GradeMatrix:
    """Read a ``grader,output_id,grade`` CSV into a grade matrix.

    Each grade is range-checked and each ``(grader, output_id)`` must be new as
    its row is read, so the error names the row.
    """
    rows: list[tuple[str, str, float]] = []
    seen: set[tuple[str, str]] = set()
    for number, (grader, output, raw) in read_csv(path, ("grader", "output_id", "grade")):
        try:
            grade = float(raw)
        except ValueError:
            raise ParseError("grade is not a number", path=path, row=number, field="grade") from None
        key = (grader, output)
        if key in seen:
            raise ParseError(
                f"invalid grade matrix: duplicate grade for {key!r}",
                path=path, row=number, field="output_id",
            )
        try:
            _check_grade(grader, output, grade)
        except MalformedMatrixError as exc:
            raise ParseError(
                f"invalid grade matrix: {exc}", path=path, row=number, field="grade"
            ) from None
        seen.add(key)
        rows.append((grader, output, grade))
    return GradeMatrix.from_rows(rows)


def load_ground_truth_csv(path: str | Path) -> dict[str, str]:
    """Read an ``output_id,reference`` CSV into a reference map."""
    references: dict[str, str] = {}
    for number, (output, reference) in read_csv(path, ("output_id", "reference")):
        if output in references:
            raise ParseError("duplicate output id", path=path, row=number, field="output_id")
        references[output] = reference
    return references


def load_results_csv(path: str | Path) -> dict[str, list[tuple[str, str]]]:
    """Read a ``model,output_id,result`` CSV into each model's (output id, result) rows.

    Every row names a model, and no ``(model, output_id)`` appears twice.
    """
    outputs_by_model: dict[str, list[tuple[str, str]]] = {}
    seen: set[tuple[str, str]] = set()
    for number, (model, output, result) in read_csv(path, ("model", "output_id", "result")):
        if not model:
            raise ParseError("model name is empty", path=path, row=number, field="model")
        if (model, output) in seen:
            raise ParseError(f"duplicate result for {(model, output)!r}",
                             path=path, row=number, field="output_id")
        seen.add((model, output))
        outputs_by_model.setdefault(model, []).append((output, result))
    return outputs_by_model
