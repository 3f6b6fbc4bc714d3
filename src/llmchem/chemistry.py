"""Pairwise chemistry between models in a candidate set.

The chemistry of a pair (a, b) is the largest normalised change, over all
disjoint contexts X, in a's marginal benefit caused by b's presence:

    chem(a, b) = max over X of |benefit({a}, X) - benefit({a}, X | {b})|
                 divided by cost(X | {a, b})

Two scorers are provided: an exact enumerator over every context subset, and
a graph-based scorer.  On the graph of a profile source (a
:class:`~llmchem.mig.LatticeMIG`) the graph scorer reads the four costs of
each context straight from the graph's bitmask cost table; on an explicit
cost table or an explicitly given graph it answers subset queries through
memoized covering nodes.  On a fully materialised graph either way agrees
with the exact enumerator, term for term.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, replace
from itertools import combinations
from pathlib import Path
from typing import Iterable, Mapping

from .core import (
    Configuration,
    ModelProfile,
    ModelSet,
    model_set_fingerprint,
)
from .errors import (
    DomainError,
    InvalidConfigurationError,
    InvalidPairError,
    MissingPairError,
    ParseError,
    SizeLimitError,
    UndefinedCorrelationError,
)
from .mig import MIG, CostBackend, CoverLookup, LatticeMIG, as_backend, subset_key

#: Ceiling on |S| for exhaustive enumeration (2^(|S|-2) contexts per pair).
BRUTE_FORCE_GUARD = 16

PairKey = frozenset[str]


def pair_key(a: str, b: str) -> PairKey:
    if a == b:
        raise InvalidPairError(f"a pair needs two distinct models, got {a!r} twice")
    return frozenset((a, b))


@dataclass(frozen=True)
class ChemistryTable:
    """Symmetric map from unordered model pairs to chemistry scores."""

    scores: dict[PairKey, float]
    members: Configuration
    method: str  # "mig-cheme" | "brute-force" | "loaded"

    def __post_init__(self) -> None:
        expected = {pair_key(a, b) for a, b in combinations(sorted(self.members), 2)}
        present = set(self.scores)
        missing = expected - present
        if missing:
            keys = sorted(subset_key(p) for p in missing)
            raise MissingPairError(f"chemistry table is missing pairs: {keys}")
        extra = present - expected
        if extra:
            keys = sorted(subset_key(p) for p in extra)
            raise InvalidConfigurationError(f"chemistry table has stray pairs: {keys}")
        for key, value in self.scores.items():
            if not math.isfinite(value) or value < 0.0:
                raise DomainError(
                    f"chemistry for {subset_key(key)!r} must be finite and >= 0, got {value!r}"
                )

    def score(self, a: str, b: str) -> float:
        key = pair_key(a, b)
        try:
            return self.scores[key]
        except KeyError:
            raise MissingPairError(f"no chemistry recorded for pair {subset_key(key)!r}") from None

    def pairs(self) -> list[tuple[str, str, float]]:
        """All pairs as (a, b, score) with a < b, sorted by name."""
        out = []
        for a, b in combinations(sorted(self.members), 2):
            out.append((a, b, self.scores[pair_key(a, b)]))
        return out

    def max_score(self) -> float:
        return max(self.scores.values(), default=0.0)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["model_a", "model_b", "chemistry"])
            for a, b, value in self.pairs():
                writer.writerow([a, b, repr(value)])

    @classmethod
    def from_csv(
        cls,
        path: str | Path,
        *,
        members: Iterable[str] | None = None,
        method: str = "loaded",
    ) -> "ChemistryTable":
        scores: dict[PairKey, float] = {}
        seen: set[str] = set()
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames != ["model_a", "model_b", "chemistry"]:
                raise InvalidConfigurationError(
                    f"unexpected chemistry CSV header: {reader.fieldnames}"
                )
            for number, row in enumerate(reader, start=2):
                a, b = row["model_a"], row["model_b"]
                key = pair_key(a, b)
                if key in scores:
                    raise InvalidConfigurationError(
                        f"duplicate pair {subset_key(key)!r} in {path}"
                    )
                try:
                    scores[key] = float(row["chemistry"])
                except (TypeError, ValueError):
                    raise ParseError(
                        f"chemistry is not a number in {path}: {row['chemistry'] or ''!r}",
                        row=number,
                        field="chemistry",
                    ) from None
                seen |= {a, b}
        table_members = frozenset(members) if members is not None else frozenset(seen)
        return cls(scores=scores, members=table_members, method=method)

    def to_json_obj(self, model_set: ModelSet | None = None) -> dict:
        obj: dict = {
            "method": self.method,
            "members": sorted(self.members),
            "scores": [
                {"model_a": a, "model_b": b, "chemistry": value}
                for a, b, value in self.pairs()
            ],
        }
        if model_set is not None:
            obj["model_set_fingerprint"] = model_set_fingerprint(model_set)
        return obj


def _pair_score_bruteforce(
    backend: CostBackend,
    focus: str,
    partner: str,
    cache: dict[Configuration, float],
) -> float:
    """Exact chemistry from ``focus``'s perspective, context costs memoized."""

    def cost_of(subset: Configuration) -> float:
        value = cache.get(subset)
        if value is None:
            value = backend.cost(subset)
            cache[subset] = value
        return value

    others = sorted(backend.members - {focus, partner})
    best = 0.0
    for size in range(len(others) + 1):
        for combo in combinations(others, size):
            context = frozenset(combo)
            with_both = context | {focus, partner}
            denom = cost_of(with_both)
            if denom == 0.0:
                continue
            gain_alone = cost_of(context) - cost_of(context | {focus})
            gain_with_partner = cost_of(context | {partner}) - cost_of(with_both)
            d = abs(gain_alone - gain_with_partner) / denom
            if d > best:
                best = d
    return best


def chem_pair_bruteforce(
    source: ModelSet | CostBackend,
    a: str,
    b: str,
    *,
    size_guard: int = BRUTE_FORCE_GUARD,
) -> float:
    """Exact chemistry of one pair by enumerating every context subset.

    Context subsets are drawn from the members minus {a, b}, visited by size
    then lexicographic order.  Contexts whose combined configuration has zero
    cost are skipped (the ratio is undefined there); if every context is
    skipped the pair's chemistry is 0.
    """
    backend = as_backend(source)
    members = backend.members
    if a == b:
        raise InvalidPairError(f"a pair needs two distinct models, got {a!r} twice")
    for name in (a, b):
        if name not in members:
            raise InvalidConfigurationError(f"unknown model {name!r}")
    if len(members) > size_guard:
        raise SizeLimitError(
            f"exhaustive scoring supports at most {size_guard} models, got {len(members)}"
        )
    return _pair_score_bruteforce(backend, a, b, cache={})


def chem_table_bruteforce(
    source: ModelSet | CostBackend, *, size_guard: int = BRUTE_FORCE_GUARD
) -> ChemistryTable:
    """Exact chemistry table over all pairs, sharing one cost cache.

    Each pair is scored from the perspective of its lexicographically smaller
    member; the two perspectives agree (the benefit difference is symmetric
    in a and b), so this is purely a determinism convention.
    """
    backend = as_backend(source)
    members = backend.members
    if len(members) > size_guard:
        raise SizeLimitError(
            f"exhaustive scoring supports at most {size_guard} models, got {len(members)}"
        )
    if len(members) < 2:
        raise InvalidConfigurationError("chemistry needs at least two models")
    cache: dict[Configuration, float] = {}
    scores: dict[PairKey, float] = {}
    for a, b in combinations(sorted(members), 2):
        scores[pair_key(a, b)] = _pair_score_bruteforce(backend, a, b, cache)
    return ChemistryTable(scores=scores, members=members, method="brute-force")


def _lattice_pair_scores(graph: LatticeMIG) -> dict[PairKey, float]:
    """Chemistry of every pair of usable members, from the graph's cost table.

    Contexts are every submask of the other usable members: unusable members
    change no cost, so contexts that differ only in them give equal ratios.
    Each pair is scored from its lexicographically smaller member, as the
    exhaustive enumerator does, so every ratio is computed from the same
    operands in the same order.
    """
    costs = graph.costs
    bits = {name: 1 << j for j, name in enumerate(graph.ranked)}
    everyone = len(costs) - 1
    scores: dict[PairKey, float] = {}
    for a, b in combinations(sorted(graph.ranked), 2):
        bit_a, bit_b = bits[a], bits[b]
        both = bit_a | bit_b
        rest = everyone ^ both
        best = 0.0
        context = rest
        while True:
            denom = costs[context | both]
            if denom != 0.0:
                gain_alone = costs[context] - costs[context | bit_a]
                gain_with_partner = costs[context | bit_b] - denom
                d = abs(gain_alone - gain_with_partner) / denom
                if d > best:
                    best = d
            if not context:
                break
            context = (context - 1) & rest
        scores[pair_key(a, b)] = best
    return scores


def cheme(source: ModelSet | CostBackend, graph: MIG) -> ChemistryTable:
    """Chemistry for all pairs from the graph's node costs.

    On a :class:`~llmchem.mig.LatticeMIG` (the graph of a profile source)
    every context's costs are read from the graph's cost table, and a pair
    with an unusable member scores 0: it lies in every node, so no context
    is admissible for it.  On any other graph, context subsets X are
    iterated by increasing size; each X, and each of X|{a}, X|{b}, X|{a,b}
    per candidate pair, is answered by its smallest covering node in the
    graph.  A context is skipped for a pair when any cover is missing, when
    the context's own cover already contains a or b (it would violate the
    disjoint-context premise), or when the combined cover has zero cost.
    Benefits are evaluated on the cover subsets, so on a fully materialised
    graph the result equals the exhaustive enumerator exactly; on sparser
    graphs it is the graph's best available approximation.
    """
    backend = as_backend(source)
    if backend.members != graph.members:
        raise InvalidConfigurationError(
            "model set does not match the graph's member set"
        )
    members = sorted(graph.members)
    scores: dict[PairKey, float] = {
        pair_key(a, b): 0.0 for a, b in combinations(members, 2)
    }
    if not scores:
        raise InvalidConfigurationError("chemistry needs at least two models")
    if isinstance(graph, LatticeMIG):
        scores.update(_lattice_pair_scores(graph))
        return ChemistryTable(scores=scores, members=graph.members, method="mig-cheme")
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
    return ChemistryTable(scores=scores, members=graph.members, method="mig-cheme")


def llmcp_filter(
    table: ChemistryTable, tau: float
) -> list[tuple[tuple[str, str], float]]:
    """All pairs with chemistry strictly above ``tau``.

    Sorted by score descending, then pair name ascending.  ``tau = 0``
    retains every pair with any positive chemistry.
    """
    if not math.isfinite(tau) or tau < 0.0:
        raise DomainError(f"tau must be finite and >= 0, got {tau!r}")
    hits = [
        ((a, b), value) for a, b, value in table.pairs() if value > tau
    ]
    hits.sort(key=lambda item: (-item[1], item[0]))
    return hits


@dataclass(frozen=True)
class DiversityFamily:
    """A family of model sets anchored at one profile and fanned out by spread.

    ``spread = 0`` reproduces the base profile identically for every member.
    Larger spreads scatter quality (by up to ``10 * spread``) and accuracy
    (by up to ``spread``) around the base, clamped to their valid ranges.
    The default base has perfect quality, hence zero penalty; that is the
    regime in which identical profiles provably carry zero chemistry (every
    context cost vanishes, so no ratio is defined and every pair scores 0).
    """

    base_profile: ModelProfile = ModelProfile("anchor", quality=10.0, accuracy=0.9)
    spread: float = 0.0
    size: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.spread) or self.spread < 0.0:
            raise DomainError(f"spread must be finite and >= 0, got {self.spread!r}")
        if self.size < 2:
            raise DomainError(f"a family needs at least 2 models, got {self.size}")

    def profiles(self) -> tuple[ModelProfile, ...]:
        rng = random.Random(self.seed)
        offsets = [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(self.size)]
        out = []
        for i, (dq, da) in enumerate(offsets):
            quality = min(10.0, max(0.0, self.base_profile.quality + dq * self.spread * 10.0))
            accuracy = min(1.0, max(0.0, self.base_profile.accuracy + da * self.spread))
            out.append(ModelProfile(f"m{i:02d}", quality=quality, accuracy=accuracy))
        return tuple(out)

    def model_set(self) -> ModelSet:
        return ModelSet(profiles=self.profiles())


@dataclass(frozen=True)
class HeterogeneityReport:
    """Max chemistry per spread plus a monotone-trend verdict."""

    points: tuple[tuple[float, float], ...]  # (spread, max chemistry)
    trend: str  # "increasing" | "decreasing" | "flat" | "mixed"
    spearman: float | None
    seed: int
    size: int


def _average_ranks(values: list[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks


def heterogeneity_diagnostic(
    family: DiversityFamily, spreads: list[float]
) -> HeterogeneityReport:
    """Sweep the family over ``spreads`` and record max chemistry per point.

    The verdict is the sign of the Spearman rank correlation between spread
    and max chemistry: the direction is reported, never asserted, because it
    legitimately differs between profile regimes.
    """
    from .complementarity import pearson_r

    if not spreads:
        raise DomainError("at least one spread is required")
    previous = None
    for s in spreads:
        if not math.isfinite(s) or s < 0.0:
            raise DomainError(f"spread must be finite and >= 0, got {s!r}")
        if previous is not None and s < previous:
            raise DomainError("spreads must be sorted ascending")
        previous = s

    points: list[tuple[float, float]] = []
    for s in spreads:
        table = chem_table_bruteforce(replace(family, spread=s).model_set())
        points.append((s, table.max_score()))

    chems = [c for _, c in points]
    spearman: float | None = None
    if len(points) < 2 or len(set(spreads)) < 2:
        trend = "flat" if len(set(chems)) <= 1 else "mixed"
    else:
        try:
            spearman = pearson_r(_average_ranks(list(spreads)), _average_ranks(chems))
        except UndefinedCorrelationError:
            spearman = None
        if spearman is None:
            trend = "flat"
        elif spearman > 0.0:
            trend = "increasing"
        elif spearman < 0.0:
            trend = "decreasing"
        else:
            trend = "mixed"
    return HeterogeneityReport(
        points=tuple(points),
        trend=trend,
        spearman=spearman,
        seed=family.seed,
        size=family.size,
    )
