from __future__ import annotations

import math
import random
import re
from itertools import combinations

import pytest

from llmchem import (
    CoverLookup,
    ModelProfile,
    ModelSet,
    benefit,
    build_mig,
    cost,
    subset_key,
)
from llmchem.errors import DomainError, InvalidConfigurationError, SizeLimitError
from llmchem.mig import MIG, LatticeMIG, MIGNode, TableBackend

from helpers import drawn_example_graph, example_backend, random_model_set


def all_used_set(n: int, rng: random.Random | None = None) -> ModelSet:
    rng = rng or random.Random(0)
    return random_model_set(rng, n, min_accuracy=0.5)


class TestBuild:
    def test_all_used_materialises_full_lattice(self):
        ms = all_used_set(3)
        graph = build_mig(ms)
        assert graph.node_count == 8  # every subset incl. the empty one
        for parent, children in graph.edges.items():
            for child in children:
                assert len(parent) == len(child) + 1 and child < parent

    def test_partially_used_root_children(self):
        graph = build_mig(example_backend())
        children = set(graph.edges[frozenset("abc")])
        assert children == {frozenset("bc"), frozenset("ab")}

    def test_strict_removal_rule_from_recorded_used_sets(self):
        # Following the removal rule on the recorded used sets yields
        # {abc, bc, ab, c, b}: note the {c} child that the drawn graph lacks.
        graph = build_mig(example_backend())
        assert set(graph.nodes) == {
            frozenset("abc"),
            frozenset("bc"),
            frozenset("ab"),
            frozenset("c"),
            frozenset("b"),
        }

    @pytest.mark.parametrize("make, nodes, edges", [
        (lambda: build_mig(example_backend()), 5, 4),
        (drawn_example_graph, 6, 7),
    ], ids=["built", "drawn"])
    def test_materialised_graph_counts(self, make, nodes, edges):
        # LatticeMIG overrides both counts; these read the materialised graph's.
        graph = make()
        assert not isinstance(graph, LatticeMIG)
        assert (graph.node_count, graph.edge_count) == (nodes, edges)
        assert graph.node_count == len(graph.nodes)
        assert graph.edge_count == sum(len(children) for children in graph.edges.values())

    def test_singleton(self):
        ms = ModelSet(profiles=(ModelProfile("a", 5.0, 0.9),))
        graph = build_mig(ms)
        assert set(graph.nodes) == {frozenset("a"), frozenset()}
        assert graph.edge_count == 1

    def test_size_guard(self):
        rng = random.Random(1)
        ms = random_model_set(rng, 21)
        with pytest.raises(SizeLimitError):
            build_mig(ms)

    def test_node_count_bound_and_edge_bound(self):
        rng = random.Random(3)
        for _ in range(10):
            ms = random_model_set(rng, rng.randint(1, 7))
            graph = build_mig(ms)
            n = len(ms.members)
            assert graph.node_count <= 2**n
            assert graph.edge_count <= sum(
                len(node.used) for node in graph.nodes.values()
            )

    def test_rebuild_is_identical(self):
        rng = random.Random(5)
        ms = random_model_set(rng, 6)
        first = build_mig(ms)
        second = build_mig(ms)
        assert list(first.nodes) == list(second.nodes)
        assert first.edges == second.edges
        assert [n.cost for n in first.nodes.values()] == [
            n.cost for n in second.nodes.values()
        ]

    def test_full_lattice_costs_match_direct_evaluation(self):
        ms = all_used_set(4)
        graph = build_mig(ms)
        names = sorted(ms.members)
        for size in range(len(names) + 1):
            for combo in combinations(names, size):
                subset = frozenset(combo)
                assert graph.nodes[subset].cost == cost(ms, subset)


class TestCoverLookup:
    def test_exact_hit(self):
        graph = build_mig(all_used_set(3))
        lookup = CoverLookup(graph)
        target = frozenset(sorted(graph.members)[:2])
        node = lookup.cover(target)
        assert node is not None and node.subset == target

    def test_empty_query_returns_minimum_cardinality_node(self):
        graph = drawn_example_graph()
        lookup = CoverLookup(graph)
        node = lookup.cover(frozenset())
        assert node is not None
        assert len(node.subset) == 1
        assert node.key == "a"  # smallest key among the 1-element nodes

    def test_drawn_graph_covers_missing_subset(self):
        # The drawn graph has no {c} node; the smallest covers are the two
        # 2-element supersets and the key tie-break picks "a,c".
        graph = drawn_example_graph()
        lookup = CoverLookup(graph)
        node = lookup.cover(frozenset("c"))
        assert node is not None
        assert node.subset == frozenset("ac")

    def test_absent_when_universe_exceeds_graph(self):
        graph = drawn_example_graph(members=("a", "b", "c", "d"))
        lookup = CoverLookup(graph)
        assert lookup.cover(frozenset("d")) is None

    def test_query_outside_universe_rejected(self):
        graph = drawn_example_graph()
        lookup = CoverLookup(graph)
        with pytest.raises(InvalidConfigurationError):
            lookup.cover(frozenset("z"))

    def test_node_costs_from_recorded_table(self):
        graph = drawn_example_graph()
        lookup = CoverLookup(graph)
        assert lookup.cover(frozenset("ab")).cost == 0.08
        assert lookup.cover(frozenset("abc")).cost == 0.05

    def test_memo_transparency(self):
        graph = build_mig(all_used_set(4))
        warm = CoverLookup(graph)
        names = sorted(graph.members)
        queries = [
            frozenset(combo)
            for size in range(len(names) + 1)
            for combo in combinations(names, size)
        ]
        first_pass = [warm.cover(q) for q in queries]
        second_pass = [warm.cover(q) for q in queries]  # memo hits
        fresh = [CoverLookup(graph).cover(q) for q in queries]
        assert first_pass == second_pass == fresh

    def test_full_lattice_exact_cover_for_every_subset(self):
        graph = build_mig(all_used_set(5))
        lookup = CoverLookup(graph)
        names = sorted(graph.members)
        for size in range(1, len(names) + 1):
            for combo in combinations(names, size):
                node = lookup.cover(frozenset(combo))
                assert node is not None and node.subset == frozenset(combo)


class TestTableBackend:
    def test_missing_cost_is_an_error(self):
        backend = TableBackend(costs={("a",): 0.1}, members=("a", "b"))
        with pytest.raises(InvalidConfigurationError):
            backend.cost(frozenset("b"))

    def test_negative_cost_rejected(self):
        with pytest.raises(DomainError):
            TableBackend(costs={("a",): -0.1})

    def test_used_must_be_subset(self):
        with pytest.raises(InvalidConfigurationError):
            TableBackend(costs={("a",): 0.1}, used={("a",): ("b",)})

    def test_backend_benefit_matches_recorded_values(self):
        backend = example_backend()
        value = benefit(backend, {"a"}, {"c"})
        assert value == backend.cost(frozenset("c")) - backend.cost(frozenset("ac"))
        assert value == pytest.approx(0.08, abs=1e-12)


def _node(subset: str, used: str = "", cost: float = 0.05) -> MIGNode:
    return MIGNode(frozenset(subset), frozenset(used), cost)


def _graph(nodes: str, edges: dict[str, str], root: str = "abc") -> MIG:
    """A graph over the example backend; ``nodes`` and edge targets space-separated."""
    return MIG(
        example_backend(),
        {frozenset(s): _node(s) for s in nodes.split()},
        {frozenset(parent): tuple(map(frozenset, children.split()))
         for parent, children in edges.items()},
        frozenset(root),
    )


#: Case -> (library input that must be rejected, error type, message).
GRAPH_FAULTS = {
    "root-not-a-node": (lambda: _graph("abc", {}, root="ab"), InvalidConfigurationError,
                        "root subset is not a node"),
    "node-outside-members": (lambda: _graph("abc abd", {}), InvalidConfigurationError,
                             "node 'a,b,d' is outside the member universe"),
    "edge-source-not-a-node": (lambda: _graph("abc a", {"ab": "a"}), InvalidConfigurationError,
                               "edge source 'a,b' is not a node"),
    "edge-target-not-a-node": (lambda: _graph("abc", {"abc": "ab"}), InvalidConfigurationError,
                               "edge target 'a,b' is not a node"),
    "used-outside-subset": (lambda: _node("ab", used="c"), InvalidConfigurationError,
                            "used set 'c' not within 'a,b'"),
    "negative-cost": (lambda: _node("a", cost=-0.1), DomainError,
                      "node cost must be finite and >= 0, got -0.1"),
    "nan-cost": (lambda: _node("a", cost=math.nan), DomainError,
                 "node cost must be finite and >= 0, got nan"),
}


class TestGraphValidation:
    @pytest.mark.parametrize("case", sorted(GRAPH_FAULTS))
    def test_invalid_input_is_rejected(self, case):
        build, error, message = GRAPH_FAULTS[case]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()

    def test_edge_must_remove_exactly_one(self):
        backend = example_backend()
        nodes = {
            frozenset("abc"): MIGNode(frozenset("abc"), frozenset("ac"), 0.05),
            frozenset("a"): MIGNode(frozenset("a"), frozenset(), 0.010),
        }
        with pytest.raises(InvalidConfigurationError):
            MIG(backend, nodes, {frozenset("abc"): (frozenset("a"),)}, frozenset("abc"))

    def test_unreachable_node_rejected(self):
        backend = example_backend()
        nodes = {
            frozenset("abc"): MIGNode(frozenset("abc"), frozenset(), 0.05),
            frozenset("ab"): MIGNode(frozenset("ab"), frozenset(), 0.08),
        }
        with pytest.raises(InvalidConfigurationError):
            MIG(backend, nodes, {}, frozenset("abc"))


def test_subset_key_is_sorted_join():
    assert subset_key({"b", "a"}) == "a,b"
    assert subset_key(()) == ""
