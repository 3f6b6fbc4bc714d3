"""Pairwise chemistry between models in a candidate set.

The chemistry of a pair (a, b) is the largest normalised change, over all
disjoint contexts X, in a's marginal benefit caused by b's presence:

    chem(a, b) = max over X of |benefit({a}, X) - benefit({a}, X | {b})|
                 divided by cost(X | {a, b})

Two scorers are provided: an exact enumerator over every context subset of a
cost backend, and a graph-based scorer that reads only the graph.  The graph
scorer evaluates the ratio in one kernel, :func:`_pair_score`, over a list of
costs indexed by bitmask.  On the graph of a profile source (a
:class:`~llmchem.mig.LatticeMIG`) that list is the graph's cost table; on an
explicit cost table or an explicitly given graph it holds each subset's
covering-node cost, with NaN marking every context the covers cannot answer.
On a fully materialised graph either way agrees with the exact enumerator,
term for term.

On the cost table a float bound first tries to certify each pair's empty
context, by branch and bound: every other context's ratio is at most
``span[a] / max(low[a], low[b])``, the span of a's gains over the non-empty
contexts over the least cost of a mask holding a (or b) and another member.
A pair whose ratio at the empty context reaches that bound is scored there;
every other pair walks every context in :func:`_pair_score`.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, islice
from operator import sub
from pathlib import Path
from typing import Iterable

from .core import Configuration, ModelProfile, ModelSet, Record
from .errors import (
    DomainError,
    InvalidConfigurationError,
    InvalidPairError,
    MissingPairError,
    ParseError,
    SizeLimitError,
    UndefinedCorrelationError,
)
from .files import parse_float, read_csv, write_csv
from .mig import MIG, CostBackend, CoverLookup, LatticeMIG, subset_key

#: Ceiling on |S| for exhaustive enumeration (2^(|S|-2) contexts per pair).
BRUTE_FORCE_GUARD = 16

PairKey = frozenset[str]


def pair_key(a: str, b: str) -> PairKey:
    if a == b:
        raise InvalidPairError(f"a pair needs two distinct models, got {a!r} twice")
    return frozenset((a, b))


class ChemistryTable(Record):
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
        write_csv(path, ("model_a", "model_b", "chemistry"), self.pairs())

    @classmethod
    def from_csv(
        cls,
        path: str | Path,
        *,
        members: Iterable[str] | None = None,
    ) -> "ChemistryTable":
        known = frozenset(members) if members is not None else None
        scores: dict[PairKey, float] = {}
        for number, (a, b, raw) in read_csv(path, ("model_a", "model_b", "chemistry")):
            value = parse_float(raw, 0.0, math.inf, path=path, row=number, field="chemistry")
            for field, name in (("model_a", a), ("model_b", b)):
                if not name or (known is not None and name not in known):
                    raise ParseError(f"unknown model {name!r}", path=path, row=number, field=field)
            if a == b:
                raise ParseError(
                    f"a pair needs two distinct models, got {a!r} twice",
                    path=path, row=number, field="model_b",
                )
            key = pair_key(a, b)
            if key in scores:
                raise ParseError(f"duplicate pair {subset_key(key)!r}", path=path, row=number)
            scores[key] = value
        table_members = known if known is not None else frozenset().union(*scores)
        try:
            return cls(scores=scores, members=table_members, method="loaded")
        except MissingPairError as exc:
            raise ParseError(str(exc), path=path) from None


def _finite_score(a: str, b: str, score: float) -> float:
    """Return a pair's score, or raise if one of its context ratios overflowed to inf."""
    if score == math.inf:
        raise DomainError(
            f"chemistry for {subset_key(pair_key(a, b))!r} overflowed to inf: a context's "
            "benefit ratio exceeds the float range at a combined cost near zero next to "
            "its benefit difference"
        )
    return score


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
    return _finite_score(focus, partner, best)


def _check_brute_force_size(members: Configuration) -> None:
    if len(members) > BRUTE_FORCE_GUARD:
        raise SizeLimitError(
            f"exhaustive scoring supports at most {BRUTE_FORCE_GUARD} models, got {len(members)}"
        )


def chem_pair_bruteforce(backend: CostBackend, a: str, b: str) -> float:
    """Exact chemistry of one pair by enumerating every context subset.

    Context subsets are drawn from the members minus {a, b}, visited by size
    then lexicographic order.  Contexts whose combined configuration has zero
    cost are skipped (the ratio is undefined there); if every context is
    skipped the pair's chemistry is 0.
    """
    members = backend.members
    if a == b:
        raise InvalidPairError(f"a pair needs two distinct models, got {a!r} twice")
    for name in (a, b):
        if name not in members:
            raise InvalidConfigurationError(f"unknown model {name!r}")
    _check_brute_force_size(members)
    return _pair_score_bruteforce(backend, a, b, cache={})


def chem_table_bruteforce(backend: CostBackend) -> ChemistryTable:
    """Exact chemistry table over all pairs, sharing one cost cache.

    Each pair is scored from the perspective of its lexicographically smaller
    member; the two perspectives agree (the benefit difference is symmetric
    in a and b), so this is purely a determinism convention.
    """
    members = backend.members
    _check_brute_force_size(members)
    if len(members) < 2:
        raise InvalidConfigurationError("chemistry needs at least two models")
    cache: dict[Configuration, float] = {}
    scores: dict[PairKey, float] = {}
    for a, b in combinations(sorted(members), 2):
        scores[pair_key(a, b)] = _pair_score_bruteforce(backend, a, b, cache)
    return ChemistryTable(scores=scores, members=members, method="brute-force")


def _pair_score(costs: list[float], bit_a: int, bit_b: int, rest: int) -> float:
    """Chemistry of one pair from a list of costs indexed by bitmask.

    Contexts are every submask of ``rest``.  A context is skipped when its
    combined cost is zero, or when any of its four costs is NaN: the ratio
    is then NaN, which never exceeds the best so far.  ``bit_a`` belongs to
    the lexicographically smaller member, as in the exhaustive enumerator, so
    every ratio is computed from the same operands in the same order.
    """
    both = bit_a | bit_b
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
    return best


def _lattice_bounds(costs: list[float]) -> tuple[list[float], list[float]]:
    """Each bit's gain span and the least cost of a mask holding it and another bit.

    ``spans[j]`` is max - min of the float gain ``costs[Y] - costs[Y | 1 << j]``
    over every non-empty Y without bit j (0 when there is none), and
    ``lows[j]`` the least cost of such a ``Y | 1 << j`` (inf when there is
    none).  Step j rotates bit j to the top of the index with a perfect
    unshuffle, so the two halves of the list pair every Y with Y plus bit j.
    The gains are consumed as they are made, never held in a list.
    """
    half = len(costs) >> 1
    table, spans, lows = costs, [], []
    for _ in range(half.bit_length()):
        table = table[0::2] + table[1::2]
        highest = max(map(sub, islice(table, 1, half), islice(table, half + 1, None)), default=0.0)
        lowest = min(map(sub, islice(table, 1, half), islice(table, half + 1, None)), default=0.0)
        spans.append(highest - lowest)
        lows.append(min(islice(table, half + 1, None), default=math.inf))
    return spans, lows


def _certified_score(
    costs: list[float], spans: list[float], lows: list[float], bit_a: int, bit_b: int
) -> float | None:
    """The pair's ratio at the empty context when no other context can exceed it, else None.

    For X non-empty both gains of the kernel's ratio are gains of a over a
    non-empty context, so their float difference is at most ``span`` in
    magnitude.  The denominator, the cost of X | {a, b}, is at least ``low``,
    the larger of ``lows[a]`` and ``lows[b]``.  Rounding is monotone, so every
    such ratio is at most the float ``span / low``.  When ``low`` is positive,
    the bound finite and the empty context's ratio at least the bound, that
    ratio is the value :func:`_pair_score` returns over every context; it is
    read from the kernel itself, over the empty context alone, whose
    combined cost is at least ``low``.
    """
    low = max(lows[bit_a.bit_length() - 1], lows[bit_b.bit_length() - 1])
    if not low > 0.0:
        return None
    bound = spans[bit_a.bit_length() - 1] / low
    at_empty = _pair_score(costs, bit_a, bit_b, 0)
    return at_empty if bound < math.inf and at_empty >= bound else None


def cheme(graph: MIG) -> ChemistryTable:
    """Chemistry for all pairs, read from the graph alone.

    The graph holds every cost it is scored on, so a cost backend is scored
    as ``cheme(build_mig(backend))``.

    On a :class:`~llmchem.mig.LatticeMIG` (the graph of a profile source)
    every context's costs are read from the graph's cost table, and a pair
    with an unusable member scores 0: it lies in every node, so no context
    is admissible for it.  There a pair is scored at the empty context when
    its ratio there reaches :func:`_certified_score`'s float bound on every
    other context's ratio, computed once per table over each member's masks;
    every other pair walks every context.  On a tie with the bound the
    loop's first maximiser can be another context, with the same value.

    On any other graph each subset X is answered by its smallest covering
    node, and a context is skipped for a pair when any of the covers of X,
    X|{a}, X|{b}, X|{a,b} is missing, when the context's own cover already
    contains a or b (it would violate the disjoint-context premise), or when
    the combined cover has zero cost.  Benefits are evaluated on the cover
    subsets, so on a fully materialised graph the result equals the
    exhaustive enumerator exactly; on sparser graphs it is the graph's best
    available approximation.
    """
    scores: dict[PairKey, float] = {
        pair_key(a, b): 0.0 for a, b in combinations(sorted(graph.members), 2)
    }
    if not scores:
        raise InvalidConfigurationError("chemistry needs at least two models")
    covers = None
    if isinstance(graph, LatticeMIG):
        names, costs = graph.ranked, graph.costs
        spans, lows = _lattice_bounds(costs)
    else:
        names = sorted(graph.members)
        lookup = CoverLookup(graph)
        covers = [
            lookup.cover(name for j, name in enumerate(names) if mask >> j & 1)
            for mask in range(1 << len(names))
        ]
        costs = [math.nan if node is None else node.cost for node in covers]
    bits = {name: 1 << j for j, name in enumerate(names)}
    everyone = len(costs) - 1
    for a, b in combinations(sorted(names), 2):
        bit_a, bit_b = bits[a], bits[b]
        both = bit_a | bit_b
        table, score = costs, None
        if covers is None:
            score = _certified_score(costs, spans, lows, bit_a, bit_b)
        else:
            # A context whose cover holds a or b is inadmissible.  Marking it NaN,
            # not testing for it in the shared loop, keeps the lattice path fast.
            table = costs.copy()
            for mask, node in enumerate(covers):
                if not mask & both and node is not None and (a in node.subset or b in node.subset):
                    table[mask] = math.nan
        if score is None:
            score = _pair_score(table, bit_a, bit_b, everyone ^ both)
        scores[pair_key(a, b)] = _finite_score(a, b, score)
    return ChemistryTable(scores=scores, members=graph.members, method="mig-cheme")


def check_tau(tau: float) -> None:
    """Reject a report threshold that is negative or not finite."""
    if not math.isfinite(tau) or tau < 0.0:
        raise DomainError(f"tau must be finite and >= 0, got {tau!r}")


def llmcp_filter(
    table: ChemistryTable, tau: float
) -> list[tuple[tuple[str, str], float]]:
    """All pairs with chemistry strictly above ``tau``.

    Sorted by score descending, then pair name ascending.  ``tau = 0``
    retains every pair with any positive chemistry.
    """
    check_tau(tau)
    hits = [
        ((a, b), value) for a, b, value in table.pairs() if value > tau
    ]
    hits.sort(key=lambda item: (-item[1], item[0]))
    return hits


#: The profile every :class:`DiversityFamily` is anchored at, and its member count.
_ANCHOR = ModelProfile("anchor", quality=10.0, accuracy=0.9)
_FAMILY_SIZE = 4


class DiversityFamily(Record):
    """A family of four-model sets anchored at one profile and fanned out by spread.

    ``spread = 0`` reproduces the anchor identically for every member.
    Larger spreads scatter quality (by up to ``10 * spread``) and accuracy
    (by up to ``spread``) around the anchor, clamped to their valid ranges.
    The anchor, quality 10 and accuracy 0.9, has perfect quality, hence zero
    penalty; that is the regime in which identical profiles provably carry
    zero chemistry (every context cost vanishes, so no ratio is defined and
    every pair scores 0).
    """

    spread: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.spread) or self.spread < 0.0:
            raise DomainError(f"spread must be finite and >= 0, got {self.spread!r}")

    def profiles(self) -> tuple[ModelProfile, ...]:
        rng = random.Random(self.seed)
        offsets = [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(_FAMILY_SIZE)]
        out = []
        for i, (dq, da) in enumerate(offsets):
            quality = min(10.0, max(0.0, _ANCHOR.quality + dq * self.spread * 10.0))
            accuracy = min(1.0, max(0.0, _ANCHOR.accuracy + da * self.spread))
            out.append(ModelProfile(f"m{i:02d}", quality=quality, accuracy=accuracy))
        return tuple(out)

    def model_set(self) -> ModelSet:
        return ModelSet(profiles=self.profiles())


class HeterogeneityReport(Record):
    """Max chemistry per spread plus a monotone-trend verdict."""

    points: tuple[tuple[float, float], ...]  # (spread, max chemistry)
    trend: str  # "increasing" | "decreasing" | "flat" | "mixed"
    spearman: float | None


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
    and max chemistry, and "flat" where that is undefined: the direction is
    reported, never asserted, because it legitimately differs between profile
    regimes.
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
        table = chem_table_bruteforce(family.replace(spread=s).model_set())
        points.append((s, table.max_score()))

    chems = [c for _, c in points]
    try:
        spearman = pearson_r(_average_ranks(list(spreads)), _average_ranks(chems))
    except UndefinedCorrelationError:  # one point, or equal spreads (hence equal chemistry)
        spearman = None
    if spearman is None:
        trend = "flat"
    elif spearman > 0.0:
        trend = "increasing"
    elif spearman < 0.0:
        trend = "decreasing"
    else:
        trend = "mixed"
    return HeterogeneityReport(points=tuple(points), trend=trend, spearman=spearman)
