"""Model interaction graphs: a DAG over model subsets with memoized lookup.

Each node stores a subset X, its usable members used(X) and its cost.  The
graph is built top-down from the full set: every node X gets one child
X minus {m} per usable member m.  Queries for arbitrary subsets are answered
by the smallest materialised node that covers them, so recorded costs for
large configurations stand in for their sub-configurations without
materialising the whole powerset.

Costs and used sets come from a pluggable backend: either derived from model
profiles, or an explicit per-subset table (replaying recorded or hypothetical
runs).  From profile costs the construction always yields the full lattice
over the usable members, so :func:`build_mig` returns it as a
:class:`LatticeMIG`: a view of one cost table indexed by bitmask
(:func:`profile_cost_table`), from which chemistry is scored directly.
Explicit tables and explicitly given graphs keep materialised nodes and
answer through covering nodes (:class:`CoverLookup`).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Protocol, runtime_checkable

from . import core
from .core import Configuration, ModelSet
from .errors import DomainError, InvalidConfigurationError, SizeLimitError

#: Default ceiling on |S| for graph construction (worst case is the full lattice).
BUILD_SIZE_GUARD = 20


def subset_key(subset: Iterable[str]) -> str:
    """Canonical string key for a subset: sorted names joined by commas."""
    return ",".join(sorted(subset))


@runtime_checkable
class CostBackend(Protocol):
    """Source of cost and used-subset answers for configurations."""

    @property
    def members(self) -> Configuration: ...

    def cost(self, config: Configuration) -> float: ...

    def used(self, config: Configuration) -> Configuration: ...


@dataclass(frozen=True)
class ProfileBackend:
    """Backend that derives cost and used(X) from recorded model profiles."""

    model_set: ModelSet

    @property
    def members(self) -> Configuration:
        return self.model_set.members

    def cost(self, config: Configuration) -> float:
        return core.cost(self.model_set, config)

    def used(self, config: Configuration) -> Configuration:
        return core.used_subset(self.model_set, config)


class TableBackend:
    """Backend that replays explicit per-subset costs and used sets.

    Useful for reproducing recorded runs where per-configuration costs are
    known but no profile model explains them.  Subsets without a ``used``
    entry are treated as having no usable members (they get no children).
    """

    def __init__(
        self,
        costs: Mapping[Iterable[str], float],
        used: Mapping[Iterable[str], Iterable[str]] | None = None,
        members: Iterable[str] | None = None,
    ):
        self._costs: dict[Configuration, float] = {}
        for subset, value in costs.items():
            key = frozenset(subset)
            value = float(value)
            if not math.isfinite(value) or value < 0.0:
                raise DomainError(
                    f"cost for {subset_key(key)!r} must be finite and >= 0, got {value!r}"
                )
            self._costs[key] = value
        self._used: dict[Configuration, Configuration] = {}
        for subset, usable in (used or {}).items():
            key = frozenset(subset)
            usable_set = frozenset(usable)
            if not usable_set <= key:
                raise InvalidConfigurationError(
                    f"used set {subset_key(usable_set)!r} is not a subset of {subset_key(key)!r}"
                )
            self._used[key] = usable_set
        inferred: set[str] = set()
        for key in self._costs:
            inferred |= key
        self._members = frozenset(members) if members is not None else frozenset(inferred)

    @property
    def members(self) -> Configuration:
        return self._members

    def cost(self, config: Configuration) -> float:
        key = frozenset(config)
        try:
            return self._costs[key]
        except KeyError:
            raise InvalidConfigurationError(
                f"no recorded cost for subset {subset_key(key)!r}"
            ) from None

    def used(self, config: Configuration) -> Configuration:
        return self._used.get(frozenset(config), frozenset())


def as_backend(source: ModelSet | CostBackend) -> CostBackend:
    """Wrap a ModelSet in a ProfileBackend; pass backends through unchanged."""
    if isinstance(source, ModelSet):
        return ProfileBackend(source)
    return source


def backend_benefit(
    source: ModelSet | CostBackend, x: Iterable[str], y: Iterable[str]
) -> float:
    """``cost(y) - cost(x | y)`` over any cost backend.

    Mirrors :func:`llmchem.core.benefit` for explicit cost tables and other
    non-profile backends; disjoint ``x`` and ``y`` is the intended contract.
    """
    backend = as_backend(source)
    xs = frozenset(x)
    ys = frozenset(y)
    for subset in (xs, ys):
        if not subset <= backend.members:
            raise InvalidConfigurationError(
                f"configuration {subset_key(subset)!r} is not within the member set"
            )
    return backend.cost(ys) - backend.cost(xs | ys)


@dataclass(frozen=True)
class MIGNode:
    """One materialised subset with its usable members and cost."""

    subset: Configuration
    used: Configuration
    cost: float

    def __post_init__(self) -> None:
        if not self.used <= self.subset:
            raise InvalidConfigurationError(
                f"used set {subset_key(self.used)!r} not within {subset_key(self.subset)!r}"
            )
        if not math.isfinite(self.cost) or self.cost < 0.0:
            raise DomainError(f"node cost must be finite and >= 0, got {self.cost!r}")

    @property
    def key(self) -> str:
        return subset_key(self.subset)


class MIG:
    """Immutable model interaction graph.

    Edges always drop exactly one model; every node is reachable from the
    root.  The member universe comes from the backend, so a graph recorded
    over a subset of the known models leaves the remaining subsets uncovered
    (queries for them answer "absent").  Use :func:`build_mig` for the
    standard top-down construction, or the constructor directly to replicate
    an externally given graph (for example a graph drawn from a recorded
    run).
    """

    def __init__(
        self,
        backend: CostBackend,
        nodes: Mapping[Configuration, MIGNode],
        edges: Mapping[Configuration, tuple[Configuration, ...]],
        root: Configuration,
    ):
        self.backend = backend
        self.nodes: dict[Configuration, MIGNode] = dict(nodes)
        self.edges: dict[Configuration, tuple[Configuration, ...]] = {
            parent: tuple(children) for parent, children in edges.items()
        }
        self.root = frozenset(root)
        self._members = frozenset(backend.members)
        self._validate()

    @cached_property
    def _nodes_by_size(self) -> dict[int, list[MIGNode]]:
        by_size: dict[int, list[MIGNode]] = {}
        for node in self.nodes.values():
            by_size.setdefault(len(node.subset), []).append(node)
        for bucket in by_size.values():
            bucket.sort(key=lambda n: n.key)
        return by_size

    def _validate(self) -> None:
        if self.root not in self.nodes:
            raise InvalidConfigurationError("root subset is not a node")
        for subset in self.nodes:
            if not subset <= self._members:
                raise InvalidConfigurationError(
                    f"node {subset_key(subset)!r} is outside the member universe"
                )
        for parent, children in self.edges.items():
            if parent not in self.nodes:
                raise InvalidConfigurationError(
                    f"edge source {subset_key(parent)!r} is not a node"
                )
            for child in children:
                if child not in self.nodes:
                    raise InvalidConfigurationError(
                        f"edge target {subset_key(child)!r} is not a node"
                    )
                if not (child < parent and len(parent) == len(child) + 1):
                    raise InvalidConfigurationError(
                        f"edge {subset_key(parent)!r} -> {subset_key(child)!r} "
                        "must remove exactly one model"
                    )
        reached = {self.root}
        frontier = [self.root]
        while frontier:
            current = frontier.pop()
            for child in self.edges.get(current, ()):
                if child not in reached:
                    reached.add(child)
                    frontier.append(child)
        unreachable = set(self.nodes) - reached
        if unreachable:
            keys = sorted(subset_key(s) for s in unreachable)
            raise InvalidConfigurationError(f"nodes unreachable from root: {keys}")

    @property
    def members(self) -> Configuration:
        return self._members

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return sum(len(children) for children in self.edges.values())

    def nodes_of_size(self, size: int) -> tuple[MIGNode, ...]:
        return tuple(self._nodes_by_size.get(size, ()))

    def removal_closure_gaps(self) -> list[tuple[Configuration, str]]:
        """Nodes whose used members lack the corresponding child edge.

        Empty for graphs produced by :func:`build_mig`; explicit graphs that
        replicate an external drawing may legitimately report gaps here.
        """
        gaps: list[tuple[Configuration, str]] = []
        for subset, node in self.nodes.items():
            children = set(self.edges.get(subset, ()))
            for member in sorted(node.used):
                child = subset - {member}
                if child not in children:
                    gaps.append((subset, member))
        return gaps

    def to_dot(self) -> str:
        """DOT dump for visual inspection; used members carry a ``*`` mark."""
        lines = ["digraph mig {"]
        ordered = sorted(
            self.nodes.values(), key=lambda n: (-len(n.subset), n.key)
        )
        for node in ordered:
            marked = ",".join(
                name + ("*" if name in node.used else "")
                for name in sorted(node.subset)
            )
            label = f"{marked or 'empty'}:{node.cost!r}"
            lines.append(f'  "{node.key}" [label="{label}"];')
        for parent in sorted(self.edges, key=subset_key):
            for child in self.edges[parent]:
                lines.append(f'  "{subset_key(parent)}" -> "{subset_key(child)}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def profile_cost_table(model_set: ModelSet) -> tuple[tuple[str, ...], list[float]]:
    """Cost of every configuration of a profile set, indexed by bitmask.

    Returns the usable members best-first by the rank key of
    :func:`llmchem.core.rank_outputs`, and a list whose entry ``mask`` is the
    cost of the members whose bits are set (bit j for the j-th ranked
    member).  Unusable members never change a cost, so they get no bit.  The
    highest set bit of a mask is its lowest-ranked member, whose term extends
    the entry without it; this repeats the left-to-right sum of
    :func:`llmchem.core.cost`, so every entry equals it bit for bit.
    """
    ranked = core.rank_outputs(model_set, model_set.members)
    penalties = [core.penalty(r.quality_norm, r.accuracy) for r in ranked]
    costs = [model_set.empty_cost] * (1 << len(ranked))
    for mask in range(1, len(costs)):
        last = mask.bit_length() - 1
        term = (1.0 / mask.bit_count()) * penalties[last]
        rest = mask ^ (1 << last)
        costs[mask] = costs[rest] + term if rest else term
    return tuple(r.model for r in ranked), costs


def _top_down(
    root: Configuration,
    used: Callable[[Configuration], Configuration],
    cost: Callable[[Configuration], float],
) -> tuple[dict, dict]:
    """Nodes and edges reached from ``root`` by removing one used member at a time.

    Children follow model-name order and nodes breadth-first insertion
    order, so identical inputs give identical graphs.
    """
    nodes: dict[Configuration, MIGNode] = {root: MIGNode(root, used(root), cost(root))}
    edges: dict[Configuration, tuple[Configuration, ...]] = {}
    queue: deque[Configuration] = deque([root])
    while queue:
        subset = queue.popleft()
        children: list[Configuration] = []
        for member in sorted(nodes[subset].used):
            child = subset - {member}
            children.append(child)
            if child not in nodes:
                nodes[child] = MIGNode(child, used(child), cost(child))
                queue.append(child)
        edges[subset] = tuple(children)
    return nodes, edges


class LatticeMIG(MIG):
    """The graph of a profile backend, as a view of its bitmask cost table.

    Top-down construction from profile costs reaches every subset X of the
    usable members U, each node holding X plus every unusable member, whose
    cost is ``costs[mask(X)]``.  ``ranked`` and ``costs`` are the table of
    :func:`profile_cost_table`.  Node and edge counts are closed form;
    ``nodes`` and ``edges`` are materialised on first access, identical to
    the eager construction.
    """

    def __init__(self, backend: ProfileBackend):
        self.backend = backend
        self.root = frozenset(backend.members)
        self._members = self.root
        self.ranked, self.costs = profile_cost_table(backend.model_set)

    @property
    def node_count(self) -> int:
        return len(self.costs)

    @property
    def edge_count(self) -> int:
        # Each of the k usable members is removable from half of the 2^k nodes.
        return len(self.ranked) * len(self.costs) // 2

    @cached_property
    def _materialised(self) -> tuple[dict, dict]:
        bits = {name: 1 << j for j, name in enumerate(self.ranked)}

        def used(subset: Configuration) -> Configuration:
            return frozenset(m for m in subset if m in bits)

        def cost(subset: Configuration) -> float:
            return self.costs[sum(bits[m] for m in used(subset))]

        return _top_down(self.root, used, cost)

    @property
    def nodes(self) -> dict[Configuration, MIGNode]:
        return self._materialised[0]

    @property
    def edges(self) -> dict[Configuration, tuple[Configuration, ...]]:
        return self._materialised[1]


def build_mig(
    source: ModelSet | CostBackend, *, size_guard: int = BUILD_SIZE_GUARD
) -> MIG:
    """Construct the graph top-down from the full member set.

    Starting at the root S, each materialised node X spawns one child
    X minus {m} for every usable member m of X (children in model-name
    order), until no node has usable members left.  Node costs and used sets
    come from the backend, so rebuilding from identical inputs yields an
    identical graph.  A profile source gives a :class:`LatticeMIG`, which
    holds the same graph as a cost table and materialises nodes only on
    demand.
    """
    backend = as_backend(source)
    members = backend.members
    if not 1 <= len(members) <= size_guard:
        raise SizeLimitError(
            f"graph construction supports 1..{size_guard} models, got {len(members)}"
        )
    if isinstance(backend, ProfileBackend):
        return LatticeMIG(backend)
    root = frozenset(members)
    nodes, edges = _top_down(root, backend.used, backend.cost)
    return MIG(backend, nodes, edges, root)


class CoverLookup:
    """Memoized covering-node queries against a fixed graph.

    For a queried subset X the answer is the minimum-cardinality node whose
    subset contains X (ties broken by lexicographically smallest key), or
    None when no node covers X.  Answers are memoized and never change for a
    fixed graph, so repeated queries are dictionary hits.
    """

    def __init__(self, graph: MIG):
        self.graph = graph
        self._memo: dict[Configuration, MIGNode | None] = {}

    def cover(self, config: Iterable[str]) -> MIGNode | None:
        subset = frozenset(config)
        if not subset <= self.graph.members:
            raise InvalidConfigurationError(
                f"query {subset_key(subset)!r} is not within the graph's member set"
            )
        if subset in self._memo:
            return self._memo[subset]
        answer = self.graph.nodes.get(subset)
        if answer is None:
            for size in range(len(subset) + 1, len(self.graph.members) + 1):
                for node in self.graph.nodes_of_size(size):
                    if subset <= node.subset:
                        answer = node
                        break
                if answer is not None:
                    break
        self._memo[subset] = answer
        return answer

    def cost(self, config: Iterable[str]) -> float | None:
        """Cost of the covering node, or None when nothing covers the query."""
        node = self.cover(config)
        return None if node is None else node.cost
