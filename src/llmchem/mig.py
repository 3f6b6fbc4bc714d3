"""Model interaction graphs: a DAG over model subsets with memoized lookup.

Each node stores a subset X, its usable members used(X) and its cost.  The
graph is built top-down from the full set: every node X gets one child
X minus {m} per usable member m.  Queries for arbitrary subsets are answered
by the smallest materialised node that covers them, so recorded costs for
large configurations stand in for their sub-configurations without
materialising the whole powerset.

Costs and used sets come from a cost backend: a :class:`~llmchem.core.ModelSet`
derives them from model profiles, a :class:`TableBackend` replays an explicit
per-subset table (recorded or hypothetical runs).  :func:`build_mig` builds
every node of either eagerly, and graphs answer through covering nodes
(:class:`CoverLookup`).  From profile costs the construction always yields
the full lattice over the usable members; its closed form, one cost table
indexed by bitmask, is what :func:`llmchem.chemistry.profile_chemistry`
scores, so no CLI stage builds a graph.
"""

from __future__ import annotations

import math
from collections import deque
from functools import cached_property
from typing import Callable, Iterable, Mapping, Protocol

# BUILD_SIZE_GUARD and subset_key are also read as llmchem.mig's own.
from .core import BUILD_SIZE_GUARD, Configuration, Record, check_build_size, subset_key
from .errors import DomainError, InvalidConfigurationError


class CostBackend(Protocol):
    """Source of cost and used-subset answers for configurations.

    A :class:`~llmchem.core.ModelSet` is one; :class:`TableBackend` is the other.
    """

    @property
    def members(self) -> Configuration: ...

    def cost(self, config: Configuration) -> float: ...

    def used(self, config: Configuration) -> Configuration: ...


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


class MIGNode(Record):
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

    @cached_property
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


def build_mig(source: CostBackend) -> MIG:
    """Construct the graph top-down from the full member set.

    Starting at the root S, each materialised node X spawns one child
    X minus {m} for every usable member m of X (children in model-name
    order), until no node has usable members left.  Node costs and used sets
    come from the backend, so rebuilding from identical inputs yields an
    identical graph.  Every backend, a profile set included, is held to
    ``BUILD_SIZE_GUARD`` models: the graph can hold every subset.
    """
    members = source.members
    check_build_size(members)
    root = frozenset(members)
    nodes, edges = _top_down(root, source.used, source.cost)
    return MIG(source, nodes, edges, root)


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
            answer = min(
                (node for node in self.graph.nodes.values() if subset <= node.subset),
                key=lambda node: (len(node.subset), node.key),
                default=None,
            )
        self._memo[subset] = answer
        return answer
