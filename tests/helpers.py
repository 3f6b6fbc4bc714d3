"""Shared builders for randomized test instances."""

from __future__ import annotations

import csv
import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterator, Sequence

from llmchem import ModelProfile, ModelSet
from llmchem.chemistry import pair_key
from llmchem.core import left_sum
from llmchem.errors import DomainError, InvalidConfigurationError, NoCandidatesError, ParseError
from llmchem.history import HISTORY_COLUMNS
from llmchem.mig import MIG, MIGNode, TableBackend, subset_key
from llmchem.recommend import Recommendation, chem_totals, neighbors


def random_model_set(
    rng: random.Random,
    size: int,
    *,
    min_accuracy: float = 0.0,
    max_accuracy: float = 1.0,
    empty_cost: float = 1.0,
    used_threshold: float = 0.5,
) -> ModelSet:
    profiles = tuple(
        ModelProfile(
            f"m{i:02d}",
            quality=rng.uniform(0.0, 10.0),
            accuracy=rng.uniform(min_accuracy, max_accuracy),
        )
        for i in range(size)
    )
    return ModelSet(profiles=profiles, empty_cost=empty_cost, used_threshold=used_threshold)


def homogeneous_model_set(
    size: int, quality: float, accuracy: float, *, used_threshold: float = 0.5
) -> ModelSet:
    profiles = tuple(
        ModelProfile(f"m{i:02d}", quality=quality, accuracy=accuracy) for i in range(size)
    )
    return ModelSet(profiles=profiles, used_threshold=used_threshold)


def homogeneous_chemistry(
    size: int,
    quality: float,
    accuracy: float,
    *,
    empty_cost: float = 1.0,
    used_threshold: float = 0.5,
) -> float:
    """Chemistry of every pair among ``size`` identical profiles, in closed form.

    Derived from the specified cost alone (weights 1/rank on the penalty
    p = (1 - quality/10)(1 - accuracy), ``empty_cost`` for a configuration
    with no usable output), with no call into the package, so it can serve
    as an oracle.  With E = empty_cost, H_m the m-th harmonic number and a
    usable accuracy, a configuration of m >= 1 identical models costs p*H_m:

    - the empty context gives |(E - p) - (p - 1.5p)| / 1.5p = |E - p/2| / 1.5p;
    - a context of k >= 1 models gives |-p/(k+1) + p/(k+2)| / (p*H_{k+2})
      = 1 / ((k+1)(k+2) H_{k+2}), whatever p is.

    The chemistry is the largest of these.  It is 0.0 when p = 0 (every
    context's combined cost is 0, so every context is skipped) and when the
    accuracy is below ``used_threshold`` (every configuration costs E, so
    every benefit is 0).
    """
    if accuracy < used_threshold:
        return 0.0
    p = (1.0 - quality / 10.0) * (1.0 - accuracy)
    if p == 0.0:
        return 0.0
    best = abs(empty_cost - p / 2.0) / (1.5 * p)
    harmonic = 1.5  # H_2
    for k in range(1, size - 1):
        harmonic += 1.0 / (k + 2)
        best = max(best, 1.0 / ((k + 1) * (k + 2) * harmonic))
    return best


# Node costs from a worked three-model example: the full set plus every
# reachable removal, with hypothetical costs for the {c} and empty subsets.
EXAMPLE_COSTS: dict[tuple[str, ...], float] = {
    (): 0.20,
    ("a",): 0.010,
    ("b",): 0.012,
    ("c",): 0.15,
    ("a", "b"): 0.08,
    ("a", "c"): 0.07,
    ("b", "c"): 0.006,
    ("a", "b", "c"): 0.05,
}

# Usable members as drawn in the worked example's graph.
EXAMPLE_USED: dict[tuple[str, ...], tuple[str, ...]] = {
    ("a", "b", "c"): ("a", "c"),
    ("a", "b"): ("a",),
    ("a", "c"): ("c",),
    ("b", "c"): ("b",),
    ("a",): (),
    ("b",): (),
}


def example_backend(members: tuple[str, ...] | None = None) -> TableBackend:
    return TableBackend(costs=EXAMPLE_COSTS, used=EXAMPLE_USED, members=members)


def drawn_example_graph(members: tuple[str, ...] | None = None) -> MIG:
    """The example graph exactly as drawn: no {c} node, no empty node."""
    backend = example_backend(members)
    subsets = [
        frozenset("abc"),
        frozenset("ab"),
        frozenset("ac"),
        frozenset("bc"),
        frozenset("a"),
        frozenset("b"),
    ]
    nodes = {
        s: MIGNode(subset=s, used=backend.used(s), cost=backend.cost(s)) for s in subsets
    }
    edges = {
        frozenset("abc"): (frozenset("ab"), frozenset("ac"), frozenset("bc")),
        frozenset("ab"): (frozenset("a"), frozenset("b")),
        frozenset("ac"): (frozenset("a"),),
        frozenset("bc"): (frozenset("b"),),
    }
    return MIG(backend, nodes, edges, root=frozenset("abc"))


def reference_cover_cheme(source, graph: MIG) -> dict[frozenset, float]:
    """``cheme``'s covering-node loop as it was before the bitmask kernel.

    Copied verbatim: each context X by increasing size, one cover query for X
    and three per candidate pair, with the skip rules written as branches.
    """
    from llmchem.chemistry import pair_key
    from llmchem.mig import CoverLookup

    members = sorted(graph.members)
    scores = {pair_key(a, b): 0.0 for a, b in combinations(members, 2)}
    lookup = CoverLookup(graph)
    for size in range(len(members) + 1):
        for combo in combinations(members, size):
            context = frozenset(combo)
            cover = lookup.cover(context)
            if cover is None:
                continue
            outside = [m for m in members if m not in context]
            for a, b in combinations(outside, 2):
                if a in cover.subset or b in cover.subset:
                    continue
                cover_a = lookup.cover(context | {a})
                cover_b = lookup.cover(context | {b})
                cover_ab = lookup.cover(context | {a, b})
                if cover_a is None or cover_b is None or cover_ab is None:
                    continue
                denom = cover_ab.cost
                if denom == 0.0:
                    continue
                gain_alone = cover.cost - cover_a.cost
                gain_with_partner = cover_b.cost - cover_ab.cost
                d = abs(gain_alone - gain_with_partner) / denom
                key = pair_key(a, b)
                if d > scores[key]:
                    scores[key] = d
    return scores


def zero_table_scores(names: list[str]) -> dict[frozenset, float]:
    return {frozenset((a, b)): 0.0 for a, b in combinations(sorted(names), 2)}


def reference_consensus_iteration(rows, n_iters, floor=1e-10):
    """Plainly written re-derivation of the two-step consensus scheme.

    Kept independent of the package implementation so it can serve as an
    oracle: inverse-variance means, then leave-one-out variance estimates.
    """
    graders = sorted({g for g, _, _ in rows})
    outputs = sorted({o for _, o, _ in rows})
    var = {g: 1.0 for g in graders}
    cons = {}
    for _ in range(n_iters):
        cons = {}
        for o in outputs:
            here = sorted((g, grade) for g, oo, grade in rows if oo == o)
            den = sum(1.0 / var[g] for g, _ in here)
            num = sum(grade / var[g] for g, grade in here)
            cons[o] = num / den
        new_var = {}
        for g in graders:
            devs = []
            for gg, o, grade in sorted(rows):
                if gg != g:
                    continue
                others = sorted(
                    (g2, grade2) for g2, o2, grade2 in rows if o2 == o and g2 != g
                )
                if not others:
                    continue
                den = sum(1.0 / var[g2] for g2, _ in others)
                num = sum(grade2 / var[g2] for g2, grade2 in others)
                devs.append((grade - num / den) ** 2)
            new_var[g] = max(floor, sum(devs) / len(devs)) if devs else var[g]
        var = new_var
    return cons, var


# Verbatim copies of the bulk-path code as it was before each index was built
# once (consensus, eval --history task rows, per-cell map), kept as references
# that the indexed versions must equal with ``==``.  They use the built-in
# sum(), which equals llmchem.core.left_sum up to Python 3.11 only.


def _reference_outputs_of(matrix, grader: str) -> list[str]:
    return sorted(o for o in matrix.outputs if (grader, o) in matrix.grades)


def _reference_weighted_consensus(matrix, variance, output, *, exclude=None):
    """Inverse-variance-weighted mean grade of one output; None if no grader."""
    total = 0.0
    weight_sum = 0.0
    for grader in sorted(matrix.graders):
        if grader == exclude:
            continue
        grade = matrix.grades.get((grader, output))
        if grade is None:
            continue
        weight = 1.0 / variance[grader]
        total += weight * grade
        weight_sum += weight
    if weight_sum == 0.0:
        return None
    return total / weight_sum


def reference_vancouver_consensus(matrix, max_iters, tol):
    """The consensus loop that scanned every grader for every mean."""
    from llmchem.consensus import (
        PRIOR_VARIANCE,
        VARIANCE_FLOOR,
        ConsensusResult,
        review_accuracy_from_variance,
    )
    from llmchem.errors import MalformedMatrixError

    variance = {g: PRIOR_VARIANCE for g in matrix.graders}
    consensus = {}
    converged = False
    iterations = 0

    for iterations in range(1, max_iters + 1):
        new_consensus = {}
        for output in matrix.outputs:
            value = _reference_weighted_consensus(matrix, variance, output)
            if value is None:  # unreachable: the matrix requires >= 1 grade
                raise MalformedMatrixError(f"output {output!r} has no grades")
            new_consensus[output] = value

        change = (
            max(abs(new_consensus[o] - consensus[o]) for o in matrix.outputs)
            if consensus
            else math.inf
        )
        consensus = new_consensus

        new_variance = {}
        for grader in matrix.graders:
            deviations = []
            for output in _reference_outputs_of(matrix, grader):
                others = _reference_weighted_consensus(matrix, variance, output, exclude=grader)
                if others is None:
                    continue  # grader stands alone on this output
                deviations.append((matrix.grades[(grader, output)] - others) ** 2)
            if deviations:
                estimate = sum(deviations) / len(deviations)
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


def reference_grade_order(rows) -> tuple[list[str], list[str]]:
    """First-seen grader and output order, by membership tests on growing lists."""
    graders: list[str] = []
    outputs: list[str] = []
    for grader, output, _ in rows:
        if grader not in graders:
            graders.append(grader)
        if output not in outputs:
            outputs.append(output)
    return graders, outputs


def reference_task_matrix(records, members) -> tuple[list[list[float]], int]:
    """Per-task mean accuracy rows for the members, regrouping every record per call.

    Returns the rows and the number of skipped tasks, which the CLI logs.
    """
    by_task: dict[str, dict[str, list[float]]] = {}
    for record in records:
        by_task.setdefault(record.task, {}).setdefault(record.model, []).append(
            record.accuracy
        )
    rows = []
    skipped = 0
    for task in sorted(by_task):
        per_model = by_task[task]
        if any(m not in per_model for m in members):
            skipped += 1
            continue
        rows.append([sum(per_model[m]) / len(per_model[m]) for m in members])
    return rows, skipped


# The CLI's effectiveness path before each model's task column was built once:
# per ensemble, task_matrix's rows, then the checked vote over them.  Copied
# verbatim from llmchem.complementarity.


def task_matrix(
    accuracies: dict[str, dict[str, float]], members: Sequence[str]
) -> tuple[list[list[float]], int]:
    """Rows of ``members``' mean accuracies for :func:`effectiveness_soft_vote`.

    Returns one row per task on which every member has a record, in the
    order of ``accuracies``, and the number of tasks skipped for lacking one.
    """
    rows = [
        [per_model[m] for m in members]
        for per_model in accuracies.values()
        if all(m in per_model for m in members)
    ]
    return rows, len(accuracies) - len(rows)


def effectiveness_soft_vote(member_accuracies_per_task: Sequence[Sequence[float]]) -> float:
    """Fraction of tasks the ensemble gets right under soft voting.

    A task counts as correct when the mean member accuracy on it is strictly
    above 0.5.
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


def _reference_hypervolume2d(points) -> float:
    dominating = [
        (p.accuracy, p.quality_norm)
        for p in points
        if p.accuracy > 0.0 and p.quality_norm > 0.0
    ]
    dominating.sort(key=lambda xy: (-xy[0], -xy[1]))
    area = 0.0
    best_quality = 0.0
    for accuracy, quality in dominating:
        if quality > best_quality:
            area += accuracy * (quality - best_quality)
            best_quality = quality
    return area


def _reference_rao_entropy(points) -> float:
    n = len(points)
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += 2.0 * math.dist(
                (points[i].accuracy, points[i].quality_norm),
                (points[j].accuracy, points[j].quality_norm),
            )
    return total / (n * n) / math.sqrt(2.0)


def _reference_ci(points, lam: float) -> float:
    return lam * _reference_hypervolume2d(points) + (1.0 - lam) * _reference_rao_entropy(points)


def reference_delta_ci_cells(ensemble, lam: float, grid_size: int):
    """Map cells by scoring every candidate ensemble from scratch."""
    from llmchem.complementarity import EnsemblePoint

    base = _reference_ci(ensemble, lam)
    members = list(ensemble)
    cells = []
    for i in range(grid_size):
        accuracy = (i + 0.5) / grid_size
        row = []
        for j in range(grid_size):
            quality = (j + 0.5) / grid_size
            candidate = EnsemblePoint("+candidate", accuracy=accuracy, quality_norm=quality)
            row.append(_reference_ci(members + [candidate], lam) - base)
        cells.append(tuple(row))
    return base, tuple(cells)


def reference_subset_loss(x, table, totals, params) -> float:
    """The earlier ``recommend.subset_loss``: every pair looked up by name."""
    subset = frozenset(x)
    if not subset:
        raise DomainError("loss is undefined for the empty subset")
    outside_members = table.members - subset
    unknown = subset - table.members
    if unknown:
        raise InvalidConfigurationError(
            f"subset references models outside the table: {sorted(unknown)}"
        )
    max_t, max_i = totals
    intra = 0.0
    for a, b in combinations(sorted(subset), 2):
        intra += table.scores[pair_key(a, b)]
    inter = 0.0
    for a in sorted(subset):
        for b in sorted(outside_members):
            inter += table.scores[pair_key(a, b)]
    return (
        params.alpha * (max_i - inter)
        + (1.0 - params.alpha) * (max_t - intra)
        + params.beta * len(subset)
    )


def reference_recommend(pool, table, params) -> Recommendation:
    """The earlier ``recommend``: every neighbour re-scored from scratch."""
    if not pool.subsets:
        raise NoCandidatesError("the candidate pool is empty")
    totals = chem_totals(table)
    members = table.members

    best: tuple[float, str] | None = None
    best_subset = frozenset()
    best_trace = ()
    best_seed = frozenset()

    for seed in pool.subsets:
        current = frozenset(seed)
        loss = reference_subset_loss(current, table, totals, params)
        trace = [(0, current, loss)]
        for iteration in range(1, params.max_iters + 1):
            best_neighbor = None
            best_neighbor_loss = math.inf
            for candidate in neighbors(current, members, params.size_cap):
                candidate_loss = reference_subset_loss(candidate, table, totals, params)
                if candidate_loss < best_neighbor_loss:
                    best_neighbor = candidate
                    best_neighbor_loss = candidate_loss
            if best_neighbor is None or best_neighbor_loss >= loss:
                break
            current = best_neighbor
            loss = best_neighbor_loss
            trace.append((iteration, current, loss))
        ranked = (loss, subset_key(current))
        if best is None or ranked < best:
            best = ranked
            best_subset = current
            best_trace = tuple(trace)
            best_seed = frozenset(seed)

    assert best is not None
    winner_pairs = [
        table.scores[pair_key(a, b)]
        for a, b in combinations(sorted(best_subset), 2)
    ]
    zero_chemistry = max(winner_pairs, default=0.0) == 0.0
    return Recommendation(
        subset=best_subset,
        loss=best[0],
        trace=best_trace,
        seed_subset=best_seed,
        zero_chemistry=zero_chemistry,
    )


def reference_exhaustive_best(table, params):
    """The earlier ``exhaustive_best``: a plain ``combinations`` loop, smallest subsets first."""
    members = sorted(table.members)
    totals = chem_totals(table)
    best = None
    for size in range(1, len(members) + 1):
        for combo in combinations(members, size):
            subset = frozenset(combo)
            loss = reference_subset_loss(subset, table, totals, params)
            ranked = (loss, subset_key(subset), subset)
            if best is None or ranked[:2] < best[:2]:
                best = ranked
    assert best is not None
    return best[2], best[0]


# Verbatim copies of the CSV file layer and the history parser as they were
# before ``read_csv`` yielded lists from ``csv.reader`` (it yielded
# ``csv.DictReader`` dicts) and before the history parser checked each row's
# numbers in one test and built ``NamedTuple`` records (a frozen dataclass here).
# The current code must yield the same rows and records, or raise the same
# ``ParseError``.


def reference_read_csv(path: str | Path, columns: Sequence[str]) -> Iterator[tuple[int, dict[str, str]]]:
    """Yield ``(row_number, row)`` per data record, counting the header as row 1."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            # Blank lines before the header are skipped; an empty file has no columns.
            header = reader.fieldnames = next(filter(None, reader.reader), [])
            missing = sorted((Counter(columns) - Counter(header)).elements())
            stray = sorted((Counter(header) - Counter(columns)).elements())
            if missing or stray:
                raise ParseError(
                    f"unexpected header: missing columns {missing}, stray columns {stray}",
                    path=path,
                )
            for number, row in enumerate(reader, start=2):
                if None in row:
                    raise ParseError("row has more fields than the header", path=path, row=number)
                if None in row.values():
                    first = next(column for column, value in row.items() if value is None)
                    raise ParseError(
                        "row has fewer fields than the header", path=path, row=number, field=first
                    )
                yield number, row
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"unreadable CSV: {exc}", path=path) from None


@dataclass(frozen=True)
class ReferenceHistoryRecord:
    """One benchmark-run row; elapsed/created stay opaque strings."""

    trial: str
    model: str
    task: str
    latency: float
    temperature: float
    id: str
    result: str
    quality: float
    gen_accuracy: float
    variance: float
    review_accuracy: float
    accuracy: float
    elapsed: str
    created: str


_REFERENCE_NUMERIC_RANGES: dict[str, tuple[float, float]] = {
    "latency": (0.0, math.inf),
    "temperature": (-math.inf, math.inf),
    "quality": (0.0, 10.0),
    "gen_accuracy": (0.0, 1.0),
    "variance": (0.0, math.inf),
    "review_accuracy": (0.0, 1.0),
    "accuracy": (0.0, 1.0),
}


def _reference_parse_numeric(raw: str, column: str, path: str | Path, row_number: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(
            f"{column} is not a number: {raw!r}", path=path, row=row_number, field=column
        ) from None
    lo, hi = _REFERENCE_NUMERIC_RANGES[column]
    if not math.isfinite(value) or not lo <= value <= hi:
        raise ParseError(
            f"{column} out of range: {value!r}", path=path, row=row_number, field=column
        )
    return value


def reference_parse_history_csv(path: str | Path) -> list[ReferenceHistoryRecord]:
    """Parse and validate one history CSV; reject the whole file on any error."""
    records: list[ReferenceHistoryRecord] = []
    seen_keys: set[tuple[str, str, str]] = set()
    for number, row in reference_read_csv(path, HISTORY_COLUMNS):
        if not row["trial"]:
            raise ParseError("trial name is empty", path=path, row=number, field="trial")
        if not row["model"]:
            raise ParseError("model name is empty", path=path, row=number, field="model")
        if not row["task"]:
            raise ParseError("task text is empty", path=path, row=number, field="task")
        if not row["id"]:
            raise ParseError("output id is empty", path=path, row=number, field="id")
        numeric = {
            column: _reference_parse_numeric(row[column], column, path, number)
            for column in _REFERENCE_NUMERIC_RANGES
        }
        key = (row["trial"], row["model"], row["id"])
        if key in seen_keys:
            raise ParseError(
                f"duplicate (trial, model, id) key {key!r}", path=path, row=number, field="id"
            )
        seen_keys.add(key)
        records.append(
            ReferenceHistoryRecord(
                trial=row["trial"],
                model=row["model"],
                task=row["task"],
                id=row["id"],
                result=row["result"],
                elapsed=row["elapsed"],
                created=row["created"],
                **numeric,
            )
        )
    return records


def reference_audit_cost_properties(model_set, trials: int, seed: int):
    """Verbatim copy of ``core.audit_cost_properties`` before it ran one loop over a table."""
    from llmchem.core import (
        _ABS_TOL,
        AUDIT_SIZE_GUARD,
        AuditSection,
        PropertyAuditReport,
        _linearity_residual,
        _monotonicity_probe,
        _submodularity_gap,
    )
    from llmchem.errors import SizeLimitError

    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if len(model_set.profiles) > AUDIT_SIZE_GUARD:
        raise SizeLimitError(
            f"audit supports at most {AUDIT_SIZE_GUARD} models, got {len(model_set.profiles)}"
        )
    names = sorted(model_set.members)
    rng = random.Random(seed)

    mono_violations = 0
    mono_worst = 0.0
    for _ in range(trials):
        increase = _monotonicity_probe(rng, model_set, names)
        if increase > _ABS_TOL:
            mono_violations += 1
            mono_worst = max(mono_worst, increase)

    lin_violations = 0
    lin_worst = 0.0
    for _ in range(trials):
        residual = _linearity_residual(rng, model_set, names)
        lin_worst = max(lin_worst, residual)
        if residual > _ABS_TOL:
            lin_violations += 1

    sub_violations = 0
    sub_worst = 0.0
    for _ in range(trials):
        gap = _submodularity_gap(rng, model_set, names)
        if gap > _ABS_TOL:
            sub_violations += 1
            sub_worst = max(sub_worst, gap)

    return PropertyAuditReport(
        monotonicity=AuditSection(
            name="monotonicity",
            trials=trials,
            violations=mono_violations,
            worst=mono_worst,
        ),
        linearity=AuditSection(
            name="linearity",
            trials=trials,
            violations=lin_violations,
            worst=lin_worst,
        ),
        submodularity=AuditSection(
            name="submodularity",
            trials=trials,
            violations=sub_violations,
            worst=sub_worst,
        ),
    )
