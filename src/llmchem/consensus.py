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
from functools import cached_property
from pathlib import Path

from .core import Record, left_sum
from .errors import DomainError, MalformedMatrixError, ParseError
from .files import parse_float, read_csv

VARIANCE_FLOOR = 1e-10
PRIOR_VARIANCE = 1.0
DEFAULT_MAX_ITERS = 20
DEFAULT_TOL = 1e-6

#: Weight of generation accuracy in the final accuracy; review gets the rest.
GEN_WEIGHT_WITH_GT = 0.75
GEN_WEIGHT_WITHOUT_GT = 0.25


class GradeMatrix(Record):
    """Sparse grader-by-output grade matrix, grades in [0, 10].

    Its graders and outputs are those named by the keys of ``grades``, in
    first-seen order.
    """

    grades: dict[tuple[str, str], float]  # (grader, output) -> grade

    def __post_init__(self) -> None:
        for (grader, output), grade in self.grades.items():
            if not math.isfinite(grade) or not 0.0 <= grade <= 10.0:
                raise MalformedMatrixError(
                    f"grade for ({grader!r}, {output!r}) must be in [0, 10], got {grade!r}"
                )

    @cached_property
    def graders(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(grader for grader, _ in self.grades))

    @cached_property
    def outputs(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(output for _, output in self.grades))


class ConsensusResult(Record):
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

    The grades are indexed once by output (outputs sorted, each output's
    graders sorted), and a round makes one pass per output: a left-to-right
    prefix over its ``weight`` and ``weight * grade`` terms, where the
    leave-grader-k-out sums continue prefix k over the terms after k.  Every
    mean thus adds the same terms in the same order as a scan of the other
    graders would, with about half the additions.
    """
    check_consensus_knobs(max_iters, tol)

    position = {g: i for i, g in enumerate(matrix.graders)}
    by_output: dict[str, tuple[list[int], list[float]]] = {}
    ordered = sorted(matrix.grades.items(), key=lambda item: (item[0][1], item[0][0]))
    for (grader, output), grade in ordered:  # by output, then grader
        positions, grades = by_output.setdefault(output, ([], []))
        positions.append(position[grader])
        grades.append(grade)

    variance = [PRIOR_VARIANCE] * len(matrix.graders)  # in matrix.graders order
    consensus: dict[str, float] = {}
    converged = False
    iterations = 0

    for iterations in range(1, max_iters + 1):
        weights = [1.0 / v for v in variance]
        # Outputs are visited in sorted order, so each grader's deviations are too.
        deviations: list[list[float]] = [[] for _ in variance]
        means: dict[str, float] = {}
        for output, (positions, grades) in by_output.items():
            w = [weights[p] for p in positions]
            wg = [weight * grade for weight, grade in zip(w, grades)]
            m = len(w)
            prefix_total = prefix_weight = 0.0
            for k in range(m):
                total, weight_sum = prefix_total, prefix_weight
                for j in range(k + 1, m):
                    total += wg[j]
                    weight_sum += w[j]
                if weight_sum != 0.0:  # else grader k stands alone on this output
                    deviations[positions[k]].append((grades[k] - total / weight_sum) ** 2)
                prefix_total += wg[k]
                prefix_weight += w[k]
            # Every output is named by a grade's key, so it has a grade: the weight is > 0.
            means[output] = prefix_total / prefix_weight
        new_consensus = {output: means[output] for output in matrix.outputs}

        change = (
            max(abs(new_consensus[o] - consensus[o]) for o in matrix.outputs)
            if consensus
            else math.inf
        )
        consensus = new_consensus
        variance = [
            max(VARIANCE_FLOOR, left_sum(own) / len(own)) if own else previous
            for own, previous in zip(deviations, variance)
        ]

        if change < tol:
            converged = True
            break

    by_grader = dict(zip(matrix.graders, variance))
    review = {g: review_accuracy_from_variance(v) for g, v in by_grader.items()}
    return ConsensusResult(
        consensus=consensus,
        variance=by_grader,
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


def model_accuracies(
    outputs_by_model: dict[str, list[tuple[str, str]]],
    references: dict[str, str] | None,
    result: ConsensusResult,
) -> dict[str, dict]:
    """Each model's generation, review and final accuracy, in ``outputs_by_model`` order.

    Generation accuracy is the left-to-right mean of the model's matches
    against ``references`` (every match 0.0 without them); review accuracy is
    the model's from ``result``, or that of the prior variance for a model
    that never graded; the two blend by :func:`combined_accuracy`.
    ``has_ground_truth`` is one flag for the whole file, set for every model
    whenever ``references`` is given, so a model none of whose outputs has
    a reference blends its generation accuracy of 0.0 at weight 0.75.
    """
    has_ground_truth = references is not None
    prior_review = review_accuracy_from_variance(PRIOR_VARIANCE)
    models = {}
    for model, outputs in outputs_by_model.items():
        scores = [generation_accuracy(text, references.get(output_id) if references else None)
                  for output_id, text in outputs]
        gen = left_sum(scores) / len(scores)
        review = result.review_accuracy.get(model, prior_review)
        models[model] = {
            "generation_accuracy": gen,
            "review_accuracy": review,
            "has_ground_truth": has_ground_truth,
            "accuracy": combined_accuracy(gen, review, has_ground_truth),
        }
    return models


def load_grades_csv(path: str | Path) -> GradeMatrix:
    """Read a ``grader,output_id,grade`` CSV into a grade matrix.

    Each row names a grader and an output, its grade is in [0, 10] and its
    ``(grader, output_id)`` is new, checked as the row is read so the error
    names it; graders and outputs keep their first-seen order.  A file with no
    grade is an error.
    """
    grades: dict[tuple[str, str], float] = {}
    for number, (grader, output, raw) in read_csv(path, ("grader", "output_id", "grade")):
        if not grader:
            raise ParseError("grader name is empty", path=path, row=number, field="grader")
        if not output:
            raise ParseError("output id is empty", path=path, row=number, field="output_id")
        grade = parse_float(raw, 0.0, 10.0, path=path, row=number, field="grade")
        key = (grader, output)
        if key in grades:
            raise ParseError(
                f"invalid grade matrix: duplicate grade for {key!r}",
                path=path, row=number, field="output_id",
            )
        grades[key] = grade
    if not grades:
        raise ParseError("a grades CSV needs at least one grade", path=path)
    return GradeMatrix(grades=grades)


def load_ground_truth_csv(path: str | Path) -> dict[str, str]:
    """Read an ``output_id,reference`` CSV into a reference map; it needs at least one row."""
    references: dict[str, str] = {}
    for number, (output, reference) in read_csv(path, ("output_id", "reference")):
        if not output:
            raise ParseError("output id is empty", path=path, row=number, field="output_id")
        if output in references:
            raise ParseError("duplicate output id", path=path, row=number, field="output_id")
        references[output] = reference
    if not references:
        raise ParseError("a ground-truth CSV needs at least one reference", path=path)
    return references


def load_results_csv(path: str | Path) -> dict[str, list[tuple[str, str]]]:
    """Read a ``model,output_id,result`` CSV into each model's (output id, result) rows.

    Every row names a model, no ``(model, output_id)`` appears twice, and
    there is at least one row.
    """
    outputs_by_model: dict[str, list[tuple[str, str]]] = {}
    seen: set[tuple[str, str]] = set()
    for number, (model, output, result) in read_csv(path, ("model", "output_id", "result")):
        if not model:
            raise ParseError("model name is empty", path=path, row=number, field="model")
        if not output:
            raise ParseError("output id is empty", path=path, row=number, field="output_id")
        if (model, output) in seen:
            raise ParseError(f"duplicate result for {(model, output)!r}",
                             path=path, row=number, field="output_id")
        seen.add((model, output))
        outputs_by_model.setdefault(model, []).append((output, result))
    if not outputs_by_model:
        raise ParseError("a results CSV needs at least one result", path=path)
    return outputs_by_model
