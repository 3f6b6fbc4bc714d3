"""Pairwise chemistry between models in a candidate set.

The chemistry of a pair (a, b) is the largest normalised change, over all
disjoint contexts X, in a's marginal benefit caused by b's presence:

    chem(a, b) = max over X of |benefit({a}, X) - benefit({a}, X | {b})|
                 divided by cost(X | {a, b})

Three scorers are provided: an exact enumerator over every context subset of
a cost backend; :func:`profile_chemistry`, which scores a profile set from
its cost table; and :func:`cheme`, which reads only a graph.  The last two
evaluate the ratio in one kernel, :func:`_pair_score`, over a list of costs
indexed by bitmask.  For a profile set that list is the cost of every
configuration of its usable members (:func:`profile_cost_table`), the closed
form of its full interaction graph; for a graph it holds each subset's
covering-node cost, with NaN marking every context the covers cannot answer.
On a fully materialised graph either way agrees with the exact enumerator,
term for term.  All three build their table in :func:`_pair_table`.

On the cost table a float bound first tries to certify each pair's empty
context, by branch and bound: every other context's ratio is at most
``span[a] / max(low[a], low[b])``, the span of a's gains over the non-empty
contexts over the least cost of a mask holding a (or b) and another member.
A pair whose ratio at the empty context reaches that bound is scored there;
every other pair walks every context in :func:`_pair_score`.
"""

from __future__ import annotations

import math
from itertools import combinations, repeat
from operator import add, mul, sub
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

from .core import (
    Configuration,
    ModelSet,
    Record,
    check_build_size,
    penalty,
    rank_outputs,
    subset_key,
)
from .errors import (
    DomainError,
    InvalidConfigurationError,
    InvalidPairError,
    MissingPairError,
    ParseError,
    SizeLimitError,
)
from .files import parse_float, read_csv, write_csv

if TYPE_CHECKING:  # annotations only: no CLI stage loads mig
    from .mig import MIG, CostBackend

#: Ceiling on |S| for exhaustive enumeration (2^(|S|-2) contexts per pair).
BRUTE_FORCE_GUARD = 16

#: Entries per slice of :func:`_lattice_bounds`' walk: the gains of one slice
#: are held at a time, however large the table.
_BOUND_CHUNK = 1024

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


def _pair_table(
    members: Configuration, method: str, score: Callable[[str, str], float]
) -> ChemistryTable:
    """The table of ``score(a, b)`` for each pair a < b of ``members`` in order, checked finite."""
    pairs = list(combinations(sorted(members), 2))
    if not pairs:
        raise InvalidConfigurationError("chemistry needs at least two models")
    scores = {pair_key(a, b): _finite_score(a, b, score(a, b)) for a, b in pairs}
    return ChemistryTable(scores=scores, members=members, method=method)


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
    return _finite_score(a, b, _pair_score_bruteforce(backend, a, b, cache={}))


def chem_table_bruteforce(backend: CostBackend) -> ChemistryTable:
    """Exact chemistry table over all pairs, sharing one cost cache.

    Each pair is scored from the perspective of its lexicographically smaller
    member; the two perspectives agree (the benefit difference is symmetric
    in a and b), so this is purely a determinism convention.
    """
    _check_brute_force_size(backend.members)
    cache: dict[Configuration, float] = {}
    return _pair_table(
        backend.members, "brute-force", lambda a, b: _pair_score_bruteforce(backend, a, b, cache)
    )


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
    The halves are then walked in slices of :data:`_BOUND_CHUNK` entries:
    each slice's gains are subtracted once, into a list that only that
    slice holds, and the member keeps the slices' largest and least gain and
    the least cost of each upper slice.  Float ``max`` and ``min`` are exact,
    so the slicing changes no result.
    """
    half = len(costs) >> 1
    table, spans, lows = costs, [], []
    for _ in range(half.bit_length()):
        rotated = table[0::2]
        rotated += table[1::2]
        table = rotated
        highs, least_gains, least_costs = [], [], []
        for start in range(1, half, _BOUND_CHUNK):
            stop = min(start + _BOUND_CHUNK, half)
            upper = table[half + start:half + stop]
            gains = list(map(sub, table[start:stop], upper))
            highs.append(max(gains))
            least_gains.append(min(gains))
            least_costs.append(min(upper))
        spans.append(max(highs) - min(least_gains) if highs else 0.0)
        lows.append(min(least_costs, default=math.inf))
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


def profile_cost_table(model_set: ModelSet) -> tuple[tuple[str, ...], list[float]]:
    """Cost of every configuration of a profile set, indexed by bitmask.

    Returns the usable members best-first by the rank key of
    :func:`llmchem.core.rank_outputs`, and a list whose entry ``mask`` is the
    cost of the members whose bits are set (bit j for the j-th ranked
    member).  Unusable members never change a cost, so they get no bit.  Each
    member doubles the list: a mask whose highest bit is that member (ranked
    last in it) extends the entry without it by ``(1 / rank) * penalty``.
    This repeats the left-to-right sum of :func:`llmchem.core.cost` bit for bit.
    """
    ranked = rank_outputs(model_set, model_set.members)
    weights = [1.0 / rank for rank in range(1, len(ranked) + 1)]
    # Entry top + rest ranks the new member at popcount(rest) + 1.
    rank_weights = [weights[rest.bit_count()] for rest in range((1 << len(ranked)) >> 1)]
    costs = [model_set.empty_cost]
    for r in ranked:
        top, term = len(costs), penalty(r.quality_norm, r.accuracy)
        costs.append(term)
        costs.extend(map(add, costs[1:top], map(mul, rank_weights[1:top], repeat(term))))
    return tuple(r.model for r in ranked), costs


def profile_chemistry(model_set: ModelSet) -> ChemistryTable:
    """Chemistry for all pairs of a profile set, read from its cost table.

    The table (:func:`profile_cost_table`) holds the cost of every context,
    as the full interaction graph of the set would, and is subject to the
    same size guard.  A pair with an unusable member scores 0: that member
    changes no cost, so its benefit difference is 0 in every context.  A
    pair is scored at the empty context when its ratio there reaches
    :func:`_certified_score`'s float bound on every other context's ratio,
    computed once per table over each member's masks; every other pair walks
    every context.  On a tie with the bound the loop's first maximiser can
    be another context, with the same value.
    """
    check_build_size(model_set.members, "a chemistry cost table")
    names, costs = profile_cost_table(model_set)
    spans, lows = _lattice_bounds(costs)
    bits = {name: 1 << j for j, name in enumerate(names)}
    everyone = len(costs) - 1

    def score(a: str, b: str) -> float:
        bit_a, bit_b = bits.get(a), bits.get(b)
        if bit_a is None or bit_b is None:
            return 0.0
        certified = _certified_score(costs, spans, lows, bit_a, bit_b)
        if certified is None:
            return _pair_score(costs, bit_a, bit_b, everyone ^ (bit_a | bit_b))
        return certified

    return _pair_table(model_set.members, "mig-cheme", score)


def cheme(graph: MIG) -> ChemistryTable:
    """Chemistry for all pairs, read from the graph alone.

    The graph holds every cost it is scored on, so a cost backend is scored
    as ``cheme(build_mig(backend))``; a profile set is scored faster, with
    the same bits, by :func:`profile_chemistry`.

    Each subset X is answered by its smallest covering node, and a context
    is skipped for a pair when any of the covers of X, X|{a}, X|{b}, X|{a,b}
    is missing, when the context's own cover already contains a or b (it
    would violate the disjoint-context premise), or when the combined cover
    has zero cost.  Benefits are evaluated on the cover subsets, so on a
    fully materialised graph the result equals the exhaustive enumerator
    exactly; on sparser graphs it is the graph's best available
    approximation.
    """
    from .mig import CoverLookup

    names = sorted(graph.members)
    lookup = CoverLookup(graph)
    covers = [
        lookup.cover(name for j, name in enumerate(names) if mask >> j & 1)
        for mask in range(1 << len(names))
    ]
    costs = [math.nan if node is None else node.cost for node in covers]
    bits = {name: 1 << j for j, name in enumerate(names)}
    everyone = len(costs) - 1

    def score(a: str, b: str) -> float:
        both = bits[a] | bits[b]
        # A context whose cover holds a or b is inadmissible: mark it NaN.
        table = costs.copy()
        for mask, node in enumerate(covers):
            if not mask & both and node is not None and (a in node.subset or b in node.subset):
                table[mask] = math.nan
        return _pair_score(table, bits[a], bits[b], everyone ^ both)

    return _pair_table(graph.members, "mig-cheme", score)


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
