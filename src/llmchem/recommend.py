"""Subset recommendation by hill climbing on unrealized chemistry.

A candidate subset is scored by how much of the set's total chemistry it
leaves on the table, inside and across its boundary, plus a size penalty:

    loss(x) = alpha * (maxI - inter(x)) + (1 - alpha) * (maxT - intra(x))
              + beta * |x|

where intra sums chemistry over pairs inside x, inter sums chemistry over
pairs straddling the boundary, maxT is the unordered-pair total over the
whole set and maxI the ordered-pair total (exactly twice maxT).  Starting
from historically used subsets, local search over single additions, removals
and swaps descends this loss and returns the best subset found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Sequence

from .chemistry import ChemistryTable, pair_key
from .core import Configuration, left_sum
from .errors import (
    DomainError,
    InvalidConfigurationError,
    NoCandidatesError,
    ParseError,
)
from .files import read_json
from .mig import subset_key


@dataclass(frozen=True)
class LossParams:
    """Loss weights and search limits."""

    alpha: float = 0.5  # inter- vs intra-subset balance
    beta: float = 0.5  # per-member size penalty
    max_iters: int = 50  # hill-climb steps per seed
    size_cap: int | None = 10  # hard ceiling on additions (None = unlimited)

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha) or not 0.0 <= self.alpha <= 1.0:
            raise DomainError(f"alpha must be in [0, 1], got {self.alpha!r}")
        if not math.isfinite(self.beta) or self.beta <= 0.0:
            raise DomainError(f"beta must be > 0, got {self.beta!r}")
        if self.max_iters < 1:
            raise DomainError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.size_cap is not None and self.size_cap < 1:
            raise DomainError(f"size_cap must be >= 1, got {self.size_cap}")


@dataclass(frozen=True)
class CandidatePool:
    """Non-empty candidate subsets drawn from past runs (deduplicated)."""

    subsets: tuple[Configuration, ...]
    query_context: str = ""

    def __post_init__(self) -> None:
        deduped: dict[Configuration, None] = {}
        for subset in self.subsets:
            fs = frozenset(subset)
            if not fs:
                raise InvalidConfigurationError("candidate subsets must be non-empty")
            deduped.setdefault(fs, None)
        object.__setattr__(self, "subsets", tuple(deduped))

    @classmethod
    def from_json(cls, path: str | Path) -> "CandidatePool":
        obj = read_json(path)
        subsets = obj.get("subsets") if isinstance(obj, dict) else None
        if not isinstance(subsets, list) or not subsets or not all(
            isinstance(s, list) and s and all(isinstance(m, str) for m in s) for s in subsets
        ):
            raise ParseError(
                "'subsets' must be a non-empty list of non-empty lists of model names", path=path
            )
        context = str(obj.get("query_context", ""))
        return cls(subsets=tuple(frozenset(s) for s in subsets), query_context=context)


@dataclass(frozen=True)
class Recommendation:
    """Best subset found, with the descent trace that produced it."""

    subset: Configuration
    loss: float
    trace: tuple[tuple[int, Configuration, float], ...]  # (iteration, subset, loss)
    seed_subset: Configuration
    zero_chemistry: bool  # no pairwise chemistry inside the winner

    def to_json_obj(self) -> dict:
        return {
            "subset": sorted(self.subset),
            "loss": self.loss,
            "zero_chemistry": self.zero_chemistry,
            "seed_subset": sorted(self.seed_subset),
            "trace": [
                {"iteration": i, "subset": sorted(subset), "loss": loss}
                for i, subset, loss in self.trace
            ],
        }


def chem_totals(table: ChemistryTable) -> tuple[float, float]:
    """(maxT, maxI): unordered- and ordered-pair chemistry totals.

    maxT sums each unordered pair once in sorted order; maxI counts every
    ordered pair, which by symmetry is exactly 2 * maxT.
    """
    max_t = left_sum(value for _, _, value in table.pairs())
    return max_t, 2.0 * max_t


def subset_loss(
    x: Iterable[str],
    table: ChemistryTable,
    totals: tuple[float, float],
    params: LossParams,
) -> float:
    """Unrealized chemistry of ``x`` plus its size penalty (lower is better)."""
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


def neighbors(
    x: Iterable[str],
    members: Iterable[str],
    size_cap: int | None = None,
) -> list[Configuration]:
    """Single-step moves from ``x``: additions, removals, then swaps.

    Additions respect ``size_cap``; removals never empty the subset.  The
    result is deterministically ordered (each move family in model-name
    order), which fixes tie-breaking during descent.  It holds no duplicates:
    the three families differ in size, and a swap is fixed by the model it
    removes and the one it adds.
    """
    subset = frozenset(x)
    if not subset:
        raise DomainError("neighbors are undefined for the empty subset")
    universe = frozenset(members)
    outside = sorted(universe - subset)
    inside = sorted(subset)
    moves: list[Configuration] = []
    if size_cap is None or len(subset) < size_cap:
        moves += [subset | {model} for model in outside]
    if len(subset) > 1:
        moves += [subset - {model} for model in inside]
    moves += [(subset - {removed}) | {added} for removed in inside for added in outside]
    return moves


def recommend(
    pool: CandidatePool,
    table: ChemistryTable,
    params: LossParams = LossParams(),
) -> Recommendation:
    """Hill-climb from every pool subset and return the lowest-loss result.

    Each seed repeatedly moves to its strictly best-improving neighbor (ties
    broken by neighbor order) until no move improves or the iteration budget
    is spent.  The cross-seed winner is the minimum by (loss, subset key), so
    the result is deterministic for a fixed pool order, table and parameters.
    """
    if not pool.subsets:
        raise NoCandidatesError("the candidate pool is empty")
    totals = chem_totals(table)
    members = table.members

    best: tuple[float, str] | None = None
    best_subset: Configuration = frozenset()
    best_trace: tuple[tuple[int, Configuration, float], ...] = ()
    best_seed: Configuration = frozenset()

    for seed in pool.subsets:
        current = frozenset(seed)
        loss = subset_loss(current, table, totals, params)
        trace: list[tuple[int, Configuration, float]] = [(0, current, loss)]
        for iteration in range(1, params.max_iters + 1):
            best_neighbor: Configuration | None = None
            best_neighbor_loss = math.inf
            for candidate in neighbors(current, members, params.size_cap):
                candidate_loss = subset_loss(candidate, table, totals, params)
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


def exhaustive_best(
    table: ChemistryTable, params: LossParams = LossParams()
) -> tuple[Configuration, float]:
    """Global minimum-loss subset by full enumeration (desk-scale sizes only).

    Ties are broken by subset key, matching the search's own reduction.
    """
    members = sorted(table.members)
    totals = chem_totals(table)
    best: tuple[float, str, Configuration] | None = None
    for size in range(1, len(members) + 1):
        for combo in combinations(members, size):
            subset = frozenset(combo)
            loss = subset_loss(subset, table, totals, params)
            ranked = (loss, subset_key(subset), subset)
            if best is None or ranked[:2] < best[:2]:
                best = ranked
    assert best is not None
    return best[2], best[0]
