from __future__ import annotations

import importlib.util
import math
import random
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llmchem import (
    ChemistryTable,
    DiversityFamily,
    ModelProfile,
    ModelSet,
    benefit,
    build_mig,
    chem_pair_bruteforce,
    chem_table_bruteforce,
    cheme,
    cost,
    heterogeneity_diagnostic,
    llmcp_filter,
    penalty,
    profile_chemistry,
    used_subset,
)
from llmchem.chemistry import (
    _certified_score,
    _lattice_bounds,
    _pair_score,
    pair_key,
    profile_cost_table,
)
from llmchem.cli import main
from llmchem.errors import (
    DomainError,
    InvalidConfigurationError,
    InvalidPairError,
    MissingPairError,
    ParseError,
    SizeLimitError,
)
from llmchem.history import read_profiles
from llmchem.mig import MIG, MIGNode, TableBackend

from helpers import (
    drawn_example_graph,
    example_backend,
    homogeneous_model_set,
    random_model_set,
    reference_cover_cheme,
)

ABS = 1e-12

GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


class TestBruteForce:
    def test_worked_table_golden_value(self):
        # Hand evaluation over the two admissible contexts:
        #   X = {}:  |(0.20 - 0.010) - (0.012 - 0.08)| / 0.08  = 0.258 / 0.08 = 3.225
        #   X = {c}: |(0.15 - 0.07) - (0.006 - 0.05)| / 0.05   = 0.124 / 0.05 = 2.48
        backend = example_backend()
        assert chem_pair_bruteforce(backend, "a", "b") == pytest.approx(3.225, abs=1e-9)
        # the context-level pieces, including the recorded 0.08 benefit
        assert backend.cost(frozenset("c")) - backend.cost(frozenset("ac")) == (
            pytest.approx(0.08, abs=ABS)
        )

    def test_two_model_set_single_context_formula(self):
        ms = ModelSet(
            profiles=(ModelProfile("a", 9.0, 0.9), ModelProfile("b", 4.0, 0.7))
        )
        expected = abs(
            benefit(ms, {"a"}, set()) - benefit(ms, {"a"}, {"b"})
        ) / cost(ms, {"a", "b"})
        assert chem_pair_bruteforce(ms, "a", "b") == pytest.approx(expected, abs=ABS)

    def test_zero_penalty_homogeneous_scores_zero(self):
        ms = homogeneous_model_set(4, quality=10.0, accuracy=0.9)
        for a, b in combinations(sorted(ms.members), 2):
            assert chem_pair_bruteforce(ms, a, b) == 0.0

    def test_positive_penalty_homogeneous_regime_is_pinned(self):
        # With a shared positive penalty p the marginal benefit still depends
        # on context size (weights fall as 1/rank), so identical profiles do
        # NOT cancel: for two models the only context is empty and the score
        # is (empty_cost - p/2) / (1.5 p).  Pinned to document the regime.
        ms = homogeneous_model_set(2, quality=8.0, accuracy=0.8)
        p = penalty(0.8, 0.8)
        expected = (ms.empty_cost - p / 2.0) / (1.5 * p)
        assert chem_pair_bruteforce(ms, "m00", "m01") == pytest.approx(expected, rel=1e-12)

    def test_symmetry_up_to_float_noise(self):
        rng = random.Random(59)
        for _ in range(20):
            ms = random_model_set(rng, rng.randint(2, 5))
            names = sorted(ms.members)
            a, b = rng.sample(names, 2)
            ab = chem_pair_bruteforce(ms, a, b)
            ba = chem_pair_bruteforce(ms, b, a)
            assert ab == pytest.approx(ba, abs=ABS)

    def test_identical_pair_rejected(self):
        ms = homogeneous_model_set(3, 5.0, 0.9)
        with pytest.raises(InvalidPairError):
            chem_pair_bruteforce(ms, "m00", "m00")
        with pytest.raises(InvalidPairError):
            pair_key("m00", "m00")

    def test_unknown_model_rejected(self):
        ms = homogeneous_model_set(3, 5.0, 0.9)
        with pytest.raises(InvalidConfigurationError):
            chem_pair_bruteforce(ms, "m00", "zz")

    def test_size_guard(self):
        rng = random.Random(61)
        ms = random_model_set(rng, 17)
        with pytest.raises(SizeLimitError):
            chem_pair_bruteforce(ms, "m00", "m01")

    def test_unused_model_does_not_shift_existing_pairs(self):
        rng = random.Random(67)
        for _ in range(10):
            base = random_model_set(rng, 4, min_accuracy=0.5)
            spectator = ModelProfile("zz-never-used", quality=5.0, accuracy=0.2)
            extended = ModelSet(
                profiles=base.profiles + (spectator,),
                empty_cost=base.empty_cost,
                used_threshold=base.used_threshold,
            )
            for a, b in combinations(sorted(base.members), 2):
                assert chem_pair_bruteforce(base, a, b) == chem_pair_bruteforce(
                    extended, a, b
                )


class TestCheme:
    def test_equals_bruteforce_exactly_on_full_lattices(self):
        rng = random.Random(71)
        for _ in range(40):
            ms = random_model_set(rng, rng.randint(2, 6), min_accuracy=0.5)
            graph = build_mig(ms)
            fast = cheme(graph)
            slow = chem_table_bruteforce(ms)
            for a, b, value in fast.pairs():
                assert value == slow.score(a, b)

    def test_zero_penalty_homogeneous_gives_all_zero_table(self):
        ms = homogeneous_model_set(5, quality=10.0, accuracy=0.9)
        table = cheme(build_mig(ms))
        assert table.max_score() == 0.0

    def test_scores_nonnegative_and_symmetric_by_construction(self):
        rng = random.Random(73)
        ms = random_model_set(rng, 5)
        table = cheme(build_mig(ms))
        for a, b, value in table.pairs():
            assert value >= 0.0
            assert table.score(a, b) == table.score(b, a)

    def test_perturbing_one_quality_creates_chemistry(self):
        ms = homogeneous_model_set(4, quality=9.0, accuracy=0.8)
        bumped = ms.with_profile(ModelProfile("m00", quality=8.9, accuracy=0.8))
        table = cheme(build_mig(bumped))
        assert table.max_score() > 0.0

    def test_deterministic(self):
        rng = random.Random(83)
        ms = random_model_set(rng, 5)
        graph = build_mig(ms)
        assert cheme(graph).scores == cheme(graph).scores


@pytest.mark.parametrize(
    "scorer",
    [chem_table_bruteforce, profile_chemistry, lambda ms: cheme(build_mig(ms))],
    ids=["chem_table_bruteforce", "profile_chemistry", "cheme"],
)
@pytest.mark.parametrize("accuracy", [0.25, 0.75], ids=["unusable", "usable"])
def test_every_scorer_rejects_a_one_model_set(scorer, accuracy):
    ms = ModelSet(profiles=(ModelProfile("m00", quality=5.0, accuracy=accuracy),))
    with pytest.raises(InvalidConfigurationError, match=r"^chemistry needs at least two models$"):
        scorer(ms)


class TestChemePartialGraph:
    def test_drawn_example_graph_scores_and_skip_rule(self):
        # On the drawn 6-node graph the empty context's cover is the node
        # {a} (smallest key), which contains a, so every context for the
        # pair (a, b) is inadmissible and its score stays 0.  The other two
        # pairs score through covers: for (b, c) at the empty context,
        # benefit({b}, {a}) = 0.010 - 0.012 against
        # benefit({b}, cover({c})={a,c}) = 0.07 - 0.006, over cost({b,c}).
        table = cheme(drawn_example_graph())
        assert table.score("a", "b") == 0.0
        expected_bc = abs((0.010 - 0.012) - (0.07 - 0.006)) / 0.006
        assert table.score("b", "c") == pytest.approx(expected_bc, abs=ABS)
        expected_ac = abs((0.012 - 0.08) - (0.006 - 0.05)) / 0.05
        assert table.score("a", "c") == pytest.approx(expected_ac, abs=ABS)

    def test_partial_graph_is_an_approximation_of_the_oracle(self):
        # The full-table oracle sees every context; the drawn graph answers
        # through covers and legitimately diverges (gap reported, not hidden).
        backend = example_backend()
        table = cheme(drawn_example_graph())
        exact = chem_pair_bruteforce(backend, "a", "b")
        assert exact == pytest.approx(3.225, abs=1e-9)
        assert table.score("a", "b") != exact


@st.composite
def kernel_model_sets(draw) -> ModelSet:
    """Profile sets that stress the cost table's rank order and skip rules.

    Names are shuffled against the rank order, qualities and accuracies tie
    often (ties fall to accuracy, then to the name), and accuracies sit on
    the usage threshold and on the float just below it.
    """
    size = draw(st.integers(2, 8))
    names = draw(st.permutations(list("abcdefgh")))[:size]
    threshold = draw(st.sampled_from([0.5, 0.75]))
    qualities = st.one_of(st.sampled_from([10.0, 8.0, 5.0]), st.floats(0.0, 10.0))
    accuracies = st.one_of(
        st.sampled_from([1.0, 0.9, threshold, math.nextafter(threshold, 0.0)]),
        st.floats(0.0, 1.0),
    )
    profiles = tuple(
        ModelProfile(name, quality=draw(qualities), accuracy=draw(accuracies))
        for name in names
    )
    empty_cost = draw(st.sampled_from([1.0, 0.0, 0.25]))
    return ModelSet(profiles=profiles, empty_cost=empty_cost, used_threshold=threshold)


class TestCostTableKernel:
    @settings(max_examples=300, deadline=None)
    @given(ms=kernel_model_sets())
    def test_table_and_scores_equal_the_oracles_bit_for_bit(self, ms):
        ranked, costs = profile_cost_table(ms)
        unusable = ms.members - used_subset(ms, ms.members)
        for mask, value in enumerate(costs):
            subset = {name for j, name in enumerate(ranked) if mask >> j & 1}
            assert value == cost(ms, subset)
            assert value == cost(ms, subset | unusable)
        assert profile_chemistry(ms).scores == chem_table_bruteforce(ms).scores

    def test_cover_path_on_recorded_tables_equals_bruteforce(self):
        # A table of every subset's profile cost and used set is scored
        # through its eager graph and the covering-node scan.
        rng = random.Random(89)
        with_unusable = 0
        for _ in range(40):
            ms = random_model_set(rng, rng.randint(2, 6))
            names = sorted(ms.members)
            subsets = [
                frozenset(combo)
                for size in range(len(names) + 1)
                for combo in combinations(names, size)
            ]
            backend = TableBackend(
                costs={s: cost(ms, s) for s in subsets},
                used={s: used_subset(ms, s) for s in subsets},
                members=names,
            )
            graph = build_mig(backend)
            assert cheme(graph).scores == chem_table_bruteforce(ms).scores
            with_unusable += used_subset(ms, ms.members) != ms.members
        assert with_unusable > 0


@st.composite
def partial_graphs(draw) -> tuple[TableBackend, MIG]:
    """A recorded cost table over at most six models and a partial graph on it.

    Costs are often zero or tied, so combined costs vanish.  The graph is
    grown top-down from random used sets or given explicitly with random
    edges, so the covers of many contexts hold a member of a pair.  An
    explicit graph's universe may hold models that no node contains, so the
    subsets holding them have no cover.
    """
    rng = draw(st.randoms(use_true_random=False))
    universe = list("abcdef")[: draw(st.integers(2, 6))]
    explicit = draw(st.booleans())
    # Top-down construction starts from the whole universe, so only an
    # explicit graph can leave models out of every node.
    names = universe[: draw(st.integers(1, len(universe)))] if explicit else universe
    subsets = [frozenset(c) for k in range(len(names) + 1) for c in combinations(names, k)]
    table = {s: rng.choice([0.0, 0.25, 1.0, rng.uniform(0.0, 10.0)]) for s in subsets}
    used = {s: frozenset(m for m in s if rng.random() < 0.5) for s in subsets}
    backend = TableBackend(costs=table, used=used, members=universe)
    if not explicit:
        return backend, build_mig(backend)
    root = frozenset(names)
    edges: dict[frozenset, tuple[frozenset, ...]] = {}
    reached = {root}
    frontier = [root]
    while frontier:
        parent = frontier.pop()
        edges[parent] = tuple(parent - {m} for m in sorted(parent) if rng.random() < 0.5)
        frontier += [child for child in edges[parent] if child not in reached]
        reached.update(edges[parent])
    nodes = {s: MIGNode(s, used[s], table[s]) for s in reached}
    return backend, MIG(backend, nodes, edges, root)


class TestCoverKernelEquivalence:
    """The bitmask kernel on a partial graph equals the covering-node loop it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(drawn=partial_graphs())
    def test_partial_graphs_equal_the_cover_loop(self, drawn):
        backend, graph = drawn
        expected = reference_cover_cheme(backend, graph)
        if math.inf in expected.values():  # a tiny denominator overflowed the ratio
            with pytest.raises(DomainError, match="overflowed to inf"):
                cheme(graph)
        else:
            assert cheme(graph).scores == expected

    @pytest.mark.parametrize("members", [None, ("a", "b", "c", "d")])
    def test_drawn_example_graph_equals_the_cover_loop(self, members):
        backend = example_backend(members)
        graph = drawn_example_graph(members)
        assert cheme(graph).scores == reference_cover_cheme(backend, graph)


@st.composite
def pruning_model_sets(draw) -> ModelSet:
    """Profile sets on which the empty-context certificate both holds and fails.

    ``empty_cost`` 0 or 1e-300 puts the empty context's ratio below the
    bound, zero-penalty members (quality 10 or accuracy 1) make combined
    costs 0 and so ``low`` 0, and ``empty_cost`` 1e300 makes the empty
    context's ratio dwarf every other one, at times overflowing it.  Names
    are shuffled against the rank order, so a pair's smaller name can hold
    either bit.
    """
    size = draw(st.integers(2, 9))
    names = draw(st.permutations(list("abcdefghi")))[:size]
    qualities = st.one_of(st.just(10.0), st.floats(0.0, 10.0))
    accuracies = st.one_of(st.just(1.0), st.floats(0.0, 1.0))
    profiles = tuple(
        ModelProfile(name, quality=draw(qualities), accuracy=draw(accuracies))
        for name in names
    )
    empty_cost = draw(
        st.one_of(st.sampled_from([0.0, 1e-300, 1.0, 1e300]), st.floats(0.0, 5.0))
    )
    return ModelSet(profiles=profiles, empty_cost=empty_cost)


def lattice_pairs(ranked: tuple[str, ...]) -> list[tuple[str, str, int, int]]:
    """Every pair of usable members as scored: (a, b, bit of a, bit of b), a < b."""
    bits = {name: 1 << j for j, name in enumerate(ranked)}
    return [(a, b, bits[a], bits[b]) for a, b in combinations(sorted(ranked), 2)]


def dense14_seed1_model_set(directory: Path) -> ModelSet:
    """The benchmark's dense14 store at seed 1: ``perfbench/gen.py`` inputs, then ``ingest``."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # dataclasses resolve the module by name
    spec.loader.exec_module(gen)
    gen.generate(gen.WORKLOADS["dense14"], 1, directory)
    store = directory / "store.json"
    assert main(["ingest", str(directory / "history.csv"), "--out", str(store)]) == 0
    (profiles,) = read_profiles(store)
    return profiles.to_model_set()


class TestCertifiedPruning:
    """A profile pair is scored at the empty context only where a float bound proves it wins."""

    def test_certified_or_fallback_scores_equal_the_full_kernel_bit_for_bit(self):
        taken = {"certified": 0, "fallback": 0}

        @settings(max_examples=400, deadline=None)
        @given(ms=pruning_model_sets())
        def check(ms):
            ranked, costs = profile_cost_table(ms)
            spans, lows = _lattice_bounds(costs)
            everyone = len(costs) - 1
            # A pair with an unusable member has no bit and scores 0.
            expected = dict.fromkeys(map(frozenset, combinations(ms.members, 2)), 0.0)
            for a, b, bit_a, bit_b in lattice_pairs(ranked):
                full = _pair_score(costs, bit_a, bit_b, everyone ^ bit_a ^ bit_b)
                certified = _certified_score(costs, spans, lows, bit_a, bit_b)
                if certified is None:
                    taken["fallback"] += 1
                else:
                    taken["certified"] += 1
                    assert certified == full
                expected[frozenset((a, b))] = full
            if math.inf in expected.values():
                with pytest.raises(DomainError, match="overflowed to inf"):
                    profile_chemistry(ms)
            else:
                assert profile_chemistry(ms).scores == expected

        check()
        assert taken["certified"] > 0 and taken["fallback"] > 0, taken

    @settings(max_examples=200, deadline=None)
    @given(ms=pruning_model_sets())
    def test_the_bound_is_never_below_any_non_empty_context(self, ms):
        ranked, costs = profile_cost_table(ms)
        spans, lows = _lattice_bounds(costs)
        everyone = len(costs) - 1
        assert len(spans) == len(lows) == len(ranked)
        for j in range(len(ranked)):
            bit = 1 << j
            gains = [costs[y] - costs[y | bit] for y in range(1, everyone + 1) if not y & bit]
            assert spans[j] == (max(gains) - min(gains) if gains else 0.0)
            # Every mask that holds bit j and at least one other bit.
            shared = [costs[mask] for mask in range(everyone + 1) if mask & bit and mask != bit]
            assert lows[j] == min(shared, default=math.inf)
        for _, _, bit_a, bit_b in lattice_pairs(ranked):
            both = bit_a | bit_b
            low = max(lows[bit_a.bit_length() - 1], lows[bit_b.bit_length() - 1])
            if not low > 0.0:
                continue
            bound = spans[bit_a.bit_length() - 1] / low
            context = rest = everyone ^ both
            while context:
                denom = costs[context | both]
                gain_alone = costs[context] - costs[context | bit_a]
                gain_with_partner = costs[context | bit_b] - denom
                assert abs(gain_alone - gain_with_partner) / denom <= bound
                context = (context - 1) & rest

    def test_the_bound_divides_by_the_least_cost_of_any_superset(self):
        # cost({a, b}) = 0.28 but cost({a, b, c}) = 0.198: context {c} scores
        # 0.336, above the empty context's 0.286, which clears the span over
        # cost({a, b}) alone (0.238) but not over the least cost of a mask
        # holding a or b and another member, at most that of any superset.
        ms = ModelSet(
            profiles=(
                ModelProfile("a", quality=0.0, accuracy=0.6),
                ModelProfile("b", quality=2.0, accuracy=0.9),
                ModelProfile("c", quality=9.0, accuracy=0.75),
            ),
            empty_cost=0.28,
        )
        ranked, costs = profile_cost_table(ms)
        spans, lows = _lattice_bounds(costs)
        _, _, bit_a, bit_b = lattice_pairs(ranked)[0]
        both = bit_a | bit_b
        low = max(lows[bit_a.bit_length() - 1], lows[bit_b.bit_length() - 1])
        assert low <= costs[7] < costs[both]
        assert _certified_score(costs, spans, lows, bit_a, bit_b) is None
        full = _pair_score(costs, bit_a, bit_b, (len(costs) - 1) ^ both)
        assert profile_chemistry(ms).score("a", "b") == full == pytest.approx(0.336134453781513)

    def test_a_pair_only_the_superset_minimum_certifies_is_scanned(self):
        # cost({a, c}) = 0.3447 and cost({a, b, c}) = 0.2938, so the empty
        # context's 0.628 clears the span over the superset minimum.  But
        # {a, b} (0.1648) and {b, c} (0.2207) cost less, and over 0.2207 the
        # bound exceeds 0.628: the pair is left to the full scan.
        ms = ModelSet(
            profiles=(
                ModelProfile("a", quality=6.4, accuracy=0.58),
                ModelProfile("b", quality=3.2, accuracy=0.96),
                ModelProfile("c", quality=1.0, accuracy=0.57),
            ),
            empty_cost=0.41,
        )
        ranked, costs = profile_cost_table(ms)
        spans, lows = _lattice_bounds(costs)
        (_, _, bit_a, bit_c), = [pair for pair in lattice_pairs(ranked) if pair[:2] == ("a", "c")]
        both = bit_a | bit_c
        at_empty = abs((costs[0] - costs[bit_a]) - (costs[bit_c] - costs[both])) / costs[both]
        span = spans[bit_a.bit_length() - 1]
        assert span / min(costs[both], costs[7]) <= at_empty
        assert span / max(lows[bit_a.bit_length() - 1], lows[bit_c.bit_length() - 1]) > at_empty
        assert _certified_score(costs, spans, lows, bit_a, bit_c) is None
        full = _pair_score(costs, bit_a, bit_c, 7 ^ both)
        assert profile_chemistry(ms).score("a", "c") == full == at_empty
        assert full == pytest.approx(0.628082390484479)

    def test_the_bound_divides_by_the_larger_of_the_two_members_lows(self):
        # Penalties a 0.4, b 0.03, c 0.025, ranked c, b, a.  Every mask
        # holding a and another model costs at least cost({a, b, c}) = 0.1733,
        # but {b, c} costs 0.04.  Over 0.1733 the bound certifies (a, b) at
        # the empty context's 0.4348; over 0.04 it would not.
        ms = ModelSet(
            profiles=(
                ModelProfile("a", quality=2.0, accuracy=0.5),
                ModelProfile("b", quality=7.0, accuracy=0.9),
                ModelProfile("c", quality=9.0, accuracy=0.75),
            ),
            empty_cost=0.1,
        )
        ranked, costs = profile_cost_table(ms)
        spans, lows = _lattice_bounds(costs)
        (_, _, bit_a, bit_b), = [pair for pair in lattice_pairs(ranked) if pair[:2] == ("a", "b")]
        low_a, low_b = lows[bit_a.bit_length() - 1], lows[bit_b.bit_length() - 1]
        assert low_a == costs[7] and low_b == costs[7 ^ bit_a] < low_a
        at_empty = _certified_score(costs, spans, lows, bit_a, bit_b)
        assert spans[bit_a.bit_length() - 1] / low_b > at_empty
        full = _pair_score(costs, bit_a, bit_b, 7 ^ bit_a ^ bit_b)
        assert profile_chemistry(ms).score("a", "b") == at_empty == full
        assert full == pytest.approx(0.4347826086956523)

    @pytest.mark.parametrize("quality, accuracy", [(8.0, 0.8), (0.0, 0.5), (5.0, 0.6), (9.9, 0.99)])
    def test_every_homogeneous_positive_penalty_pair_is_certified(self, quality, accuracy):
        # Criterion 04's regime: a context of k >= 1 models gains -p / (k + 1),
        # so span < p/2 over low = 1.5p bounds every other context below 1/3,
        # while the empty context scores |E - p/2| / 1.5p >= 1/3.
        for size in range(2, 11):
            ranked, costs = profile_cost_table(homogeneous_model_set(size, quality, accuracy))
            spans, lows = _lattice_bounds(costs)
            for _, _, bit_a, bit_b in lattice_pairs(ranked):
                low = max(lows[bit_a.bit_length() - 1], lows[bit_b.bit_length() - 1])
                assert spans[bit_a.bit_length() - 1] / low < 1.0 / 3.0
                score = _certified_score(costs, spans, lows, bit_a, bit_b)
                assert score is not None and score >= 1.0 / 3.0

    def test_every_dense14_seed1_pair_is_certified(self, tmp_path, capsys):
        ms = dense14_seed1_model_set(tmp_path)
        ranked, costs = profile_cost_table(ms)
        spans, lows = _lattice_bounds(costs)
        pairs = lattice_pairs(ranked)
        assert len(pairs) == 91
        certified = [
            _certified_score(costs, spans, lows, bit_a, bit_b) for _, _, bit_a, bit_b in pairs
        ]
        assert None not in certified
        assert profile_chemistry(ms).scores == {
            frozenset((a, b)): score for (a, b, _, _), score in zip(pairs, certified)
        }


class TestLlmcpFilter:
    def _table(self, entries):
        members = frozenset({m for pair in entries for m in pair})
        scores = {frozenset(p): 0.0 for p in combinations(sorted(members), 2)}
        scores.update({frozenset(pair): value for pair, value in entries.items()})
        return ChemistryTable(scores=scores, members=members, method="loaded")

    def test_zero_threshold_keeps_all_positive_pairs(self):
        table = self._table({("a", "b"): 0.5, ("a", "c"): 0.0, ("b", "c"): 0.2})
        hits = llmcp_filter(table, 0.0)
        assert hits == [(("a", "b"), 0.5), (("b", "c"), 0.2)]

    def test_threshold_at_max_returns_nothing(self):
        table = self._table({("a", "b"): 0.5, ("b", "c"): 0.2, ("a", "c"): 0.0})
        assert llmcp_filter(table, 0.5) == []

    def test_threshold_just_below_unique_max(self):
        table = self._table({("a", "b"): 0.5, ("b", "c"): 0.2, ("a", "c"): 0.0})
        assert llmcp_filter(table, 0.49) == [(("a", "b"), 0.5)]

    def test_ties_sorted_by_pair_name(self):
        table = self._table({("a", "b"): 0.3, ("a", "c"): 0.3, ("b", "c"): 0.1})
        assert llmcp_filter(table, 0.0) == [
            (("a", "b"), 0.3),
            (("a", "c"), 0.3),
            (("b", "c"), 0.1),
        ]

    def test_negative_threshold_rejected(self):
        table = self._table({("a", "b"): 0.3})
        with pytest.raises(DomainError):
            llmcp_filter(table, -0.1)


class TestChemistryTable:
    def test_completeness_enforced(self):
        with pytest.raises(MissingPairError):
            ChemistryTable(
                scores={frozenset(("a", "b")): 0.1},
                members=frozenset(("a", "b", "c")),
                method="loaded",
            )

    def test_stray_pair_rejected(self):
        with pytest.raises(InvalidConfigurationError, match=r"stray pairs: \['a,c'\]"):
            ChemistryTable(
                scores={frozenset(("a", "b")): 0.1, frozenset(("a", "c")): 0.2},
                members=frozenset(("a", "b")),
                method="loaded",
            )

    def test_negative_score_rejected(self):
        with pytest.raises(DomainError):
            ChemistryTable(
                scores={frozenset(("a", "b")): -0.1},
                members=frozenset(("a", "b")),
                method="loaded",
            )

    def test_score_of_an_unknown_model_is_a_missing_pair(self):
        table = ChemistryTable(
            scores={frozenset(("a", "b")): 0.1}, members=frozenset(("a", "b")), method="loaded"
        )
        assert table.score("b", "a") == 0.1
        with pytest.raises(MissingPairError, match="'a,zz'"):
            table.score("a", "zz")

    def test_csv_round_trip(self, tmp_path):
        rng = random.Random(89)
        ms = random_model_set(rng, 5)
        table = cheme(build_mig(ms))
        path = tmp_path / "chem.csv"
        table.to_csv(path)
        loaded = ChemistryTable.from_csv(path, members=ms.members)
        assert loaded.scores == table.scores

    def test_from_csv_without_members_takes_them_from_the_pairs(self, tmp_path):
        table = cheme(build_mig(random_model_set(random.Random(89), 5)))
        path = tmp_path / "chem.csv"
        table.to_csv(path)
        loaded = ChemistryTable.from_csv(path)
        assert (loaded.members, loaded.scores) == (table.members, table.scores)

    def test_from_csv_detects_missing_pairs(self, tmp_path):
        path = tmp_path / "chem.csv"
        path.write_text("model_a,model_b,chemistry\na,b,0.5\n")
        with pytest.raises(ParseError, match="missing pairs") as raised:
            ChemistryTable.from_csv(path, members=frozenset(("a", "b", "c")))
        assert raised.value.path == path


class TestHeterogeneityDiagnostic:
    def test_zero_spread_yields_zero_chemistry(self):
        report = heterogeneity_diagnostic(DiversityFamily(seed=0), [0.0])
        assert report.points == ((0.0, 0.0),)
        assert report.trend == "flat"

    def test_sweep_is_nonnegative_with_zero_at_origin(self):
        report = heterogeneity_diagnostic(
            DiversityFamily(seed=3), [0.0, 0.1, 0.2, 0.4]
        )
        spreads = [s for s, _ in report.points]
        chems = [c for _, c in report.points]
        assert spreads == [0.0, 0.1, 0.2, 0.4]
        assert chems[0] == 0.0
        assert all(c >= 0.0 for c in chems)

    @pytest.mark.parametrize("spreads, trend, spearman, maxima", [
        ([0.3, 0.6, 0.9], "decreasing", -1.0, [170.54, 52.90, 0.0]),
        # Equal spreads tie every rank, so the correlation is undefined.
        ([0.2, 0.2], "flat", None, [319.46, 319.46]),
        # A peak in the middle leaves the ranks uncorrelated.
        ([0.0, 0.05, 1.0], "mixed", 0.0, [0.0, 2027.865, 0.0]),
    ])
    def test_trend_follows_the_rank_correlation(self, spreads, trend, spearman, maxima):
        report = heterogeneity_diagnostic(DiversityFamily(seed=0), spreads)
        assert [s for s, _ in report.points] == spreads
        assert [c for _, c in report.points] == pytest.approx(maxima, abs=0.005)
        assert (report.trend, report.spearman) == (trend, spearman)

    def test_verdict_recorded_across_seeds(self):
        verdicts = set()
        for seed in range(10):
            report = heterogeneity_diagnostic(
                DiversityFamily(seed=seed), [0.0, 0.1, 0.2, 0.4]
            )
            assert report.trend in {"increasing", "decreasing", "flat", "mixed"}
            verdicts.add(report.trend)
        assert verdicts  # at least one verdict recorded per seed

    def test_spread_zero_profiles_identical(self):
        family = DiversityFamily(seed=9)
        profiles = family.profiles()
        assert len({(p.quality, p.accuracy) for p in profiles}) == 1

    def test_invalid_spreads_rejected(self):
        with pytest.raises(DomainError):
            DiversityFamily(spread=-0.1)
        family = DiversityFamily(seed=0)
        with pytest.raises(DomainError):
            heterogeneity_diagnostic(family, [-0.1])
        with pytest.raises(DomainError):
            heterogeneity_diagnostic(family, [0.2, 0.1])
        with pytest.raises(DomainError):
            heterogeneity_diagnostic(family, [])

    def test_deterministic_for_fixed_seed(self):
        family = DiversityFamily(seed=4)
        first = heterogeneity_diagnostic(family, [0.0, 0.2])
        second = heterogeneity_diagnostic(family, [0.0, 0.2])
        assert first == second
