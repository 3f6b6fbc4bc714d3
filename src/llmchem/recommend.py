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

Every loss comes from one kernel, :class:`_LossKernel`, built once per table
over a pair-score matrix indexed by position in the sorted member list.  The
loss is quadratic in the membership vector, so a move's change follows from
per-member sums: each step gives every neighbour an approximate loss in O(1),
then computes the exact loss (the same floats added in the same order as
``subset_loss``) only for the neighbours within a floating-point error bound
of the approximate minimum.  The result equals exact re-scoring of every
neighbour.  ``exhaustive_best``, the oracle the search is checked against,
takes the exact loss of every subset and screens nothing.
"""

from __future__ import annotations

import math
from itertools import combinations
from pathlib import Path
from typing import Iterable

from .chemistry import ChemistryTable, pair_key
from .core import Configuration, Record, field, left_sum
from .errors import DomainError, InvalidConfigurationError, NoCandidatesError
from .files import read_name_lists
from .mig import subset_key


class LossParams(Record):
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


class CandidatePool(Record):
    """Non-empty candidate subsets drawn from past runs (deduplicated)."""

    subsets: tuple[Configuration, ...]

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
        return cls(subsets=tuple(frozenset(s) for s in read_name_lists(path, "subsets")))


class Recommendation(Record):
    """Best subset found, with the descent trace that produced it."""

    subset: Configuration
    loss: float
    trace: tuple[tuple[int, Configuration, float], ...]  # (iteration, subset, loss)
    seed_subset: Configuration
    zero_chemistry: bool  # no pairwise chemistry inside the winner
    # Search counters (see ``recommend``); they describe the work, not the result.
    stats: dict[str, int] = field(default_factory=dict, compare=False)

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


#: Unit roundoff of a double: one +, -, * is off by at most this times its result.
_UNIT_ROUNDOFF = math.ulp(1.0) / 2


class _LossKernel:
    """The loss of any subset of one table, addressed by bitmask.

    Bit i stands for the i-th member in sorted order, so ascending bits are
    the sorted-name order that the exact loss adds its pair values in.
    """

    def __init__(
        self, table: ChemistryTable, totals: tuple[float, float], params: LossParams
    ) -> None:
        names = sorted(table.members)
        n = len(names)
        matrix = [[0.0] * n for _ in range(n)]
        for i, j in combinations(range(n), 2):
            matrix[i][j] = matrix[j][i] = table.scores[pair_key(names[i], names[j])]
        self.names = names
        self.position = {name: i for i, name in enumerate(names)}
        self.matrix = matrix
        self.row_totals = [left_sum(row) for row in matrix]
        self.max_t, self.max_i = totals
        self.alpha = params.alpha
        self.beta = params.beta
        # d loss = -alpha * d(row totals inside) + (3 * alpha - 1) * d intra + beta * d|x|,
        # since inter = (row totals inside) - 2 * intra.
        self.cross = 3.0 * params.alpha - 1.0

    def mask_of(self, x: Iterable[str]) -> int:
        subset = frozenset(x)
        if not subset:
            raise DomainError("loss is undefined for the empty subset")
        unknown = subset.difference(self.position)
        if unknown:
            raise InvalidConfigurationError(
                f"subset references models outside the table: {sorted(unknown)}"
            )
        mask = 0
        for name in subset:
            mask |= 1 << self.position[name]
        return mask

    def subset_of(self, mask: int) -> Configuration:
        return frozenset(name for i, name in enumerate(self.names) if mask >> i & 1)

    def loss(self, mask: int) -> float:
        """Exact loss: intra over sorted pairs, then inter per inside member."""
        n = len(self.names)
        inside = [i for i in range(n) if mask >> i & 1]
        outside = [i for i in range(n) if not mask >> i & 1]
        intra = 0.0
        for rank, a in enumerate(inside):
            row = self.matrix[a]
            for b in inside[rank + 1:]:
                intra += row[b]
        inter = 0.0
        for a in inside:
            row = self.matrix[a]
            for b in outside:
                inter += row[b]
        return (
            self.alpha * (self.max_i - inter)
            + (1.0 - self.alpha) * (self.max_t - intra)
            + self.beta * len(inside)
        )

    def tolerance(self) -> float:
        """Bound on |screened loss - exact loss| of any move that ``best_move`` screens."""
        # With u the unit roundoff and S = maxI + maxT + beta * (n + 1): pair
        # values are finite and >= 0 and maxI = 2 * maxT, so S bounds every
        # loss, T = maxT <= S / 3 bounds any member's row total, and 2 * T any
        # sum of pair values.  Rounding one +, -, * costs at most u times its
        # result; a left-to-right sum of k values >= 0 is off by at most
        # (k - 1) * u times its value (Higham, "Accuracy and Stability of
        # Numerical Algorithms", 2002, section 4.2).
        # - Exact loss: intra and inter each add fewer than n**2 / 2 pair
        #   values, then about ten roundings follow: off by at most
        #   (n**2 + 8) * u * S.
        # - Screened move: the current exact loss plus a delta built from two
        #   per-member sums of n values and about a dozen roundings on values
        #   <= 8 * T: the delta is off by at most (2 * n + 16) * u * S.  A
        #   neighbour's screened and exact loss thus differ by at most
        #   2 * (n**2 + 8) + 2 * n + 16 <= 2 * (n**2 + n + 16) times u * S.
        # The tolerance doubles that bound, which covers the (1 - k * u)**-1
        # factors dropped above and maxT's own rounding.  If S is near
        # overflow, nothing is screened out.
        n = len(self.names)
        scale = self.max_i + self.max_t + self.beta * (n + 1)
        if not math.isfinite(16.0 * scale):
            return math.inf
        return 4.0 * (n * n + n + 16) * _UNIT_ROUNDOFF * scale

    def best_move(
        self, mask: int, loss: float, size_cap: int | None, tol: float, stats: dict[str, int]
    ) -> tuple[int | None, float]:
        """The descent's next subset from ``mask`` (exact ``loss``), with its exact loss.

        Every move of ``neighbors`` gets a screened loss in O(1) from the
        per-member sums to the inside members; only those within ``2 * tol`` of
        the smallest are re-scored exactly.  If every screened loss is within
        ``tol`` of the exact one, the exactly best moves are all among them,
        so the first exact minimum in ``neighbors`` order is the move that
        re-scoring every neighbour would pick.  Returns ``(None, inf)`` when
        there is no move.
        """
        n = len(self.names)
        matrix = self.matrix
        row_totals = self.row_totals
        alpha, beta, cross = self.alpha, self.beta, self.cross
        inside = [i for i in range(n) if mask >> i & 1]
        outside = [i for i in range(n) if not mask >> i & 1]
        to_inside = []
        for row in matrix:
            total = 0.0
            for j in inside:
                total += row[j]
            to_inside.append(total)
        # Change in loss when member i joins or leaves; a swap also loses the
        # pair between the two.
        joins = [cross * to_inside[i] - alpha * row_totals[i] for i in range(n)]
        leaves = [alpha * row_totals[i] - cross * to_inside[i] for i in range(n)]
        screened: list[tuple[float, int]] = []
        if size_cap is None or len(inside) < size_cap:
            screened += [(loss + (joins[u] + beta), mask | 1 << u) for u in outside]
        if len(inside) > 1:
            screened += [(loss + (leaves[v] - beta), mask ^ 1 << v) for v in inside]
        for v in inside:
            leave, row = leaves[v], matrix[v]
            screened += [
                (loss + (leave + joins[u] - cross * row[u]), mask ^ (1 << v | 1 << u))
                for u in outside
            ]
        stats["moves_screened"] += len(screened)
        best: int | None = None
        best_loss = math.inf
        if not screened:
            return best, best_loss
        cutoff = min(approx for approx, _ in screened) + 2.0 * tol
        for approx, candidate in screened:
            if approx > cutoff:
                continue
            stats["moves_rescored"] += 1
            candidate_loss = self.loss(candidate)
            if candidate_loss < best_loss:
                best = candidate
                best_loss = candidate_loss
        return best, best_loss


def subset_loss(
    x: Iterable[str],
    table: ChemistryTable,
    totals: tuple[float, float],
    params: LossParams,
) -> float:
    """Unrealized chemistry of ``x`` plus its size penalty (lower is better)."""
    kernel = _LossKernel(table, totals, params)
    return kernel.loss(kernel.mask_of(x))


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
    removes and the one it adds.  ``recommend`` scans the moves in this order
    without building them.
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

    ``stats`` counts the seeds, the neighbourhoods scanned over all seeds
    (``iterations``), the moves given a screened loss and the moves re-scored
    exactly.
    """
    if not pool.subsets:
        raise NoCandidatesError("the candidate pool is empty")
    kernel = _LossKernel(table, chem_totals(table), params)
    tol = kernel.tolerance()
    stats = {"seeds": 0, "iterations": 0, "moves_screened": 0, "moves_rescored": 0}

    best: tuple[float, str] | None = None
    best_mask = 0
    best_trace: tuple[tuple[int, Configuration, float], ...] = ()
    best_seed: Configuration = frozenset()

    for seed in pool.subsets:
        stats["seeds"] += 1
        mask = kernel.mask_of(seed)
        loss = kernel.loss(mask)
        trace: list[tuple[int, Configuration, float]] = [(0, frozenset(seed), loss)]
        for iteration in range(1, params.max_iters + 1):
            stats["iterations"] += 1
            move, move_loss = kernel.best_move(mask, loss, params.size_cap, tol, stats)
            if move is None or move_loss >= loss:
                break
            mask = move
            loss = move_loss
            trace.append((iteration, kernel.subset_of(mask), loss))
        current = trace[-1][1]
        ranked = (loss, subset_key(current))
        if best is None or ranked < best:
            best = ranked
            best_mask = mask
            best_trace = tuple(trace)
            best_seed = frozenset(seed)

    assert best is not None
    inside = [i for i in range(len(kernel.names)) if best_mask >> i & 1]
    winner_pairs = [kernel.matrix[a][b] for a, b in combinations(inside, 2)]
    zero_chemistry = max(winner_pairs, default=0.0) == 0.0
    return Recommendation(
        subset=best_trace[-1][1],
        loss=best[0],
        trace=best_trace,
        seed_subset=best_seed,
        zero_chemistry=zero_chemistry,
        stats=stats,
    )


def exhaustive_best(
    table: ChemistryTable, params: LossParams = LossParams()
) -> tuple[Configuration, float]:
    """Global minimum-loss subset by full enumeration (desk-scale sizes only).

    Takes the exact loss of every non-empty subset, in mask order, and keeps
    the minimum by (loss, subset key), matching the search's own reduction.
    Nothing is screened, so the search is checked against the exact loss alone.
    """
    kernel = _LossKernel(table, chem_totals(table), params)
    best: tuple[float, str, Configuration] | None = None
    for mask in range(1, 1 << len(kernel.names)):
        subset = kernel.subset_of(mask)
        ranked = (kernel.loss(mask), subset_key(subset), subset)
        if best is None or ranked[:2] < best[:2]:
            best = ranked
    assert best is not None
    return best[2], best[0]
