from __future__ import annotations

import math
import random
from itertools import combinations

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
    used_subset,
)
from llmchem.errors import (
    DomainError,
    InvalidConfigurationError,
    InvalidPairError,
    MissingPairError,
    SizeLimitError,
)
from llmchem.mig import LatticeMIG, TableBackend

from helpers import (
    drawn_example_graph,
    example_backend,
    homogeneous_model_set,
    random_model_set,
)

ABS = 1e-12


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
        p = ModelProfile("x", 8.0, 0.8).penalty
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
            fast = cheme(ms, graph)
            slow = chem_table_bruteforce(ms)
            for a, b, value in fast.pairs():
                assert value == slow.score(a, b)

    def test_zero_penalty_homogeneous_gives_all_zero_table(self):
        ms = homogeneous_model_set(5, quality=10.0, accuracy=0.9)
        table = cheme(ms, build_mig(ms))
        assert table.max_score() == 0.0

    def test_scores_nonnegative_and_symmetric_by_construction(self):
        rng = random.Random(73)
        ms = random_model_set(rng, 5)
        table = cheme(ms, build_mig(ms))
        for a, b, value in table.pairs():
            assert value >= 0.0
            assert table.score(a, b) == table.score(b, a)

    def test_perturbing_one_quality_creates_chemistry(self):
        ms = homogeneous_model_set(4, quality=9.0, accuracy=0.8)
        bumped = ms.with_profile(ModelProfile("m00", quality=8.9, accuracy=0.8))
        table = cheme(bumped, build_mig(bumped))
        assert table.max_score() > 0.0

    def test_mismatched_model_set_rejected(self):
        rng = random.Random(79)
        ms = random_model_set(rng, 4)
        other = random_model_set(rng, 5)
        graph = build_mig(ms)
        with pytest.raises(InvalidConfigurationError):
            cheme(other, graph)

    def test_deterministic(self):
        rng = random.Random(83)
        ms = random_model_set(rng, 5)
        graph = build_mig(ms)
        assert cheme(ms, graph).scores == cheme(ms, graph).scores


class TestChemePartialGraph:
    def test_drawn_example_graph_scores_and_skip_rule(self):
        # On the drawn 6-node graph the empty context's cover is the node
        # {a} (smallest key), which contains a, so every context for the
        # pair (a, b) is inadmissible and its score stays 0.  The other two
        # pairs score through covers: for (b, c) at the empty context,
        # benefit({b}, {a}) = 0.010 - 0.012 against
        # benefit({b}, cover({c})={a,c}) = 0.07 - 0.006, over cost({b,c}).
        backend = example_backend()
        table = cheme(backend, drawn_example_graph())
        assert table.score("a", "b") == 0.0
        expected_bc = abs((0.010 - 0.012) - (0.07 - 0.006)) / 0.006
        assert table.score("b", "c") == pytest.approx(expected_bc, abs=ABS)
        expected_ac = abs((0.012 - 0.08) - (0.006 - 0.05)) / 0.05
        assert table.score("a", "c") == pytest.approx(expected_ac, abs=ABS)

    def test_partial_graph_is_an_approximation_of_the_oracle(self):
        # The full-table oracle sees every context; the drawn graph answers
        # through covers and legitimately diverges (gap reported, not hidden).
        backend = example_backend()
        table = cheme(backend, drawn_example_graph())
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
        graph = build_mig(ms)
        assert isinstance(graph, LatticeMIG)
        unusable = ms.members - used_subset(ms, ms.members)
        for mask, value in enumerate(graph.costs):
            subset = {name for j, name in enumerate(graph.ranked) if mask >> j & 1}
            assert value == cost(ms, subset)
            assert value == cost(ms, subset | unusable)
        assert cheme(ms, graph).scores == chem_table_bruteforce(ms).scores

    def test_cover_path_on_recorded_tables_equals_bruteforce(self):
        # A table of every subset's profile cost and used set takes the
        # eager graph and the covering-node scan, not the cost table.
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
            assert not isinstance(graph, LatticeMIG)
            assert cheme(backend, graph).scores == chem_table_bruteforce(ms).scores
            with_unusable += used_subset(ms, ms.members) != ms.members
        assert with_unusable > 0


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

    def test_negative_score_rejected(self):
        with pytest.raises(DomainError):
            ChemistryTable(
                scores={frozenset(("a", "b")): -0.1},
                members=frozenset(("a", "b")),
                method="loaded",
            )

    def test_csv_round_trip(self, tmp_path):
        rng = random.Random(89)
        ms = random_model_set(rng, 5)
        table = cheme(ms, build_mig(ms))
        path = tmp_path / "chem.csv"
        table.to_csv(path)
        loaded = ChemistryTable.from_csv(path, members=ms.members)
        assert loaded.scores == table.scores

    def test_from_csv_detects_missing_pairs(self, tmp_path):
        path = tmp_path / "chem.csv"
        path.write_text("model_a,model_b,chemistry\na,b,0.5\n")
        with pytest.raises(MissingPairError):
            ChemistryTable.from_csv(path, members=frozenset(("a", "b", "c")))

    def test_json_obj_contains_fingerprint(self):
        ms = homogeneous_model_set(3, 10.0, 0.9)
        table = chem_table_bruteforce(ms)
        obj = table.to_json_obj(ms)
        assert obj["model_set_fingerprint"]
        assert obj["members"] == sorted(ms.members)


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
