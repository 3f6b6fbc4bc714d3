from __future__ import annotations

import json
import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llmchem import (
    CandidatePool,
    ChemistryTable,
    LossParams,
    chem_totals,
    exhaustive_best,
    neighbors,
    recommend,
    subset_loss,
)
from llmchem.errors import (
    DomainError,
    InvalidConfigurationError,
    NoCandidatesError,
)

from helpers import (
    reference_exhaustive_best,
    reference_recommend,
    reference_subset_loss,
    zero_table_scores,
)

ABS = 1e-12


def table_from(entries: dict, names: list[str]) -> ChemistryTable:
    scores = zero_table_scores(names)
    scores.update({frozenset(pair): value for pair, value in entries.items()})
    return ChemistryTable(scores=scores, members=frozenset(names), method="loaded")


def random_table(rng: random.Random, n: int) -> ChemistryTable:
    names = [f"m{i}" for i in range(n)]
    entries = {
        (a, b): (rng.uniform(0.0, 2.0) if rng.random() < 0.8 else 0.0)
        for a, b in combinations(names, 2)
    }
    return table_from(entries, names)


class TestChemTotals:
    def test_all_zero(self):
        table = table_from({}, ["a", "b", "c"])
        assert chem_totals(table) == (0.0, 0.0)

    def test_single_pair_doubles(self):
        table = table_from({("a", "b"): 0.5}, ["a", "b"])
        assert chem_totals(table) == (0.5, 1.0)

    def test_ordered_total_is_exactly_twice_unordered(self):
        rng = random.Random(97)
        for _ in range(20):
            table = random_table(rng, rng.randint(2, 7))
            max_t, max_i = chem_totals(table)
            # independent pair-sum oracle, same sorted order
            oracle = sum(v for _, _, v in table.pairs())
            assert max_t == oracle
            assert max_i == 2.0 * max_t


class TestSubsetLoss:
    def test_full_set_leaves_only_inter_term_and_size(self):
        rng = random.Random(101)
        table = random_table(rng, 5)
        params = LossParams()
        max_t, max_i = chem_totals(table)
        loss = subset_loss(table.members, table, (max_t, max_i), params)
        expected = params.alpha * max_i + params.beta * len(table.members)
        assert loss == pytest.approx(expected, abs=ABS)

    def test_zero_table_size_penalty_only(self):
        table = table_from({}, ["a", "b", "c"])
        loss = subset_loss({"a", "b", "c"}, table, chem_totals(table), LossParams())
        assert loss == pytest.approx(1.5, abs=ABS)

    def test_matches_summation_oracle(self):
        rng = random.Random(103)
        for _ in range(30):
            table = random_table(rng, 5)
            names = sorted(table.members)
            subset = frozenset(rng.sample(names, rng.randint(1, 5)))
            params = LossParams(alpha=rng.random(), beta=rng.uniform(0.1, 2.0))
            totals = chem_totals(table)
            intra = sum(
                table.score(a, b) for a, b in combinations(sorted(subset), 2)
            )
            inter = sum(
                table.score(a, b)
                for a in sorted(subset)
                for b in names
                if b not in subset
            )
            expected = (
                params.alpha * (totals[1] - inter)
                + (1.0 - params.alpha) * (totals[0] - intra)
                + params.beta * len(subset)
            )
            actual = subset_loss(subset, table, totals, params)
            assert actual == pytest.approx(expected, abs=1e-9)

    def test_empty_subset_rejected(self):
        table = table_from({}, ["a", "b"])
        with pytest.raises(DomainError):
            subset_loss(set(), table, chem_totals(table), LossParams())

    def test_unknown_model_rejected(self):
        table = table_from({}, ["a", "b"])
        with pytest.raises(InvalidConfigurationError):
            subset_loss({"zz"}, table, chem_totals(table), LossParams())


class TestNeighbors:
    def test_singleton_in_three_model_universe(self):
        result = neighbors({"a"}, {"a", "b", "c"})
        assert result == [
            frozenset({"a", "b"}),
            frozenset({"a", "c"}),
            frozenset({"b"}),
            frozenset({"c"}),
        ]

    def test_full_set_offers_only_removals(self):
        universe = {"a", "b", "c", "d"}
        result = neighbors(universe, universe)
        assert len(result) == 4
        assert all(len(n) == 3 for n in result)

    def test_size_cap_suppresses_additions(self):
        result = neighbors({"a", "b"}, {"a", "b", "c"}, size_cap=2)
        assert frozenset({"a", "b", "c"}) not in result
        assert frozenset({"a"}) in result  # removals allowed
        assert frozenset({"a", "c"}) in result  # swaps keep the size

    def test_count_bound(self):
        rng = random.Random(107)
        for _ in range(30):
            n = rng.randint(1, 8)
            universe = {f"m{i}" for i in range(n)}
            subset = set(rng.sample(sorted(universe), rng.randint(1, n)))
            assert len(neighbors(subset, universe)) <= n * n + n

    def test_deduplicated(self):
        result = neighbors({"a"}, {"a", "b"})
        assert len(result) == len(set(result))

    def test_empty_subset_rejected(self):
        with pytest.raises(DomainError, match="empty subset"):
            neighbors(set(), {"a", "b"})


class TestRecommend:
    def test_zero_table_descends_to_singleton(self):
        table = table_from({}, ["a", "b", "c"])
        pool = CandidatePool(subsets=(frozenset({"a", "b", "c"}),))
        result = recommend(pool, table)
        assert len(result.subset) == 1
        assert result.loss == pytest.approx(0.5, abs=ABS)  # just the size penalty
        assert result.zero_chemistry
        losses = [loss for _, _, loss in result.trace]
        assert losses == sorted(losses, reverse=True)
        assert all(x > y for x, y in zip(losses, losses[1:]))
        assert result.trace[-1][1] == result.subset
        assert result.trace[-1][2] == result.loss

    def test_local_minimum_seed_stays_put(self):
        table = table_from({}, ["a", "b", "c"])
        pool = CandidatePool(subsets=(frozenset({"a"}),))
        result = recommend(pool, table)
        assert result.subset == frozenset({"a"})
        assert len(result.trace) == 1

    def test_final_loss_never_exceeds_any_seed_loss(self):
        rng = random.Random(109)
        for _ in range(10):
            table = random_table(rng, 6)
            names = sorted(table.members)
            seeds = tuple(
                frozenset(rng.sample(names, rng.randint(1, 6))) for _ in range(5)
            )
            pool = CandidatePool(subsets=seeds)
            params = LossParams()
            totals = chem_totals(table)
            result = recommend(pool, table, params)
            for seed in pool.subsets:
                assert result.loss <= subset_loss(seed, table, totals, params) + ABS

    def test_attains_exhaustive_minimum_with_full_pool(self):
        rng = random.Random(113)
        for _ in range(10):
            n = rng.randint(3, 7)
            table = random_table(rng, n)
            names = sorted(table.members)
            pool = CandidatePool(
                subsets=tuple(
                    frozenset(c)
                    for size in range(1, n + 1)
                    for c in combinations(names, size)
                )
            )
            result = recommend(pool, table)
            _, best_loss = exhaustive_best(table)
            assert result.loss == best_loss

    def test_deterministic(self):
        rng = random.Random(127)
        table = random_table(rng, 5)
        pool = CandidatePool(
            subsets=(frozenset({"m0", "m1"}), frozenset({"m2"}), frozenset({"m3", "m4"}))
        )
        first = recommend(pool, table)
        second = recommend(pool, table)
        assert first == second

    def test_empty_pool_rejected(self):
        table = table_from({}, ["a", "b"])
        with pytest.raises(NoCandidatesError):
            recommend(CandidatePool(subsets=()), table)

    def test_empty_seed_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            CandidatePool(subsets=(frozenset(),))

    def test_iteration_budget_respected(self):
        rng = random.Random(131)
        table = random_table(rng, 7)
        pool = CandidatePool(subsets=(table.members,))
        result = recommend(pool, table, LossParams(max_iters=1))
        assert len(result.trace) <= 2  # seed plus at most one accepted move


class TestPoolAndJson:
    def test_pool_deduplicates_preserving_order(self):
        pool = CandidatePool(
            subsets=(frozenset({"a"}), frozenset({"b"}), frozenset({"a"}))
        )
        assert pool.subsets == (frozenset({"a"}), frozenset({"b"}))

    def test_pool_json_round_trip(self, tmp_path):
        path = tmp_path / "pool.json"
        path.write_text(
            json.dumps({"query_context": "ctx", "subsets": [["a", "b"], ["b"]]})
        )
        pool = CandidatePool.from_json(path)
        assert pool.subsets == (frozenset({"a", "b"}), frozenset({"b"}))

    def test_recommendation_json_obj(self):
        table = table_from({}, ["a", "b", "c"])
        pool = CandidatePool(subsets=(frozenset({"a", "b", "c"}),))
        obj = recommend(pool, table).to_json_obj()
        assert set(obj) == {"subset", "loss", "zero_chemistry", "seed_subset", "trace"}
        assert obj["trace"][0]["iteration"] == 0
        assert obj["seed_subset"] == ["a", "b", "c"]


# Pair values: ties from a small set that includes 0, the same set nudged by
# one ulp, or a wide range (criterion 04's homogeneous chemistry reaches 13,320).
TIED = (0.0, 0.1, 0.2, 0.3, 1.0)
WIDE = st.one_of(st.just(0.0), st.sampled_from((1e-5, 13320.0)), st.floats(1e-5, 1e4))


def _one_ulp_off(value: float, step: int) -> float:
    if step == 0 or (value == 0.0 and step < 0):
        return value
    return math.nextafter(value, math.inf if step > 0 else 0.0)


@st.composite
def tables(draw, max_n: int = 10) -> ChemistryTable:
    n = draw(st.integers(1, max_n))
    names = draw(st.lists(st.text("abAB_1", min_size=1, max_size=3),
                          min_size=n, max_size=n, unique=True))
    kind = draw(st.sampled_from(("tied", "near", "wide")))
    entries = {}
    for pair in combinations(sorted(names), 2):
        if kind == "wide":
            entries[pair] = draw(WIDE)
        else:
            value = draw(st.sampled_from(TIED))
            step = draw(st.sampled_from((-1, 0, 1))) if kind == "near" else 0
            entries[pair] = _one_ulp_off(value, step)
    return table_from(entries, names)


WEIGHTS = st.builds(
    LossParams,
    alpha=st.one_of(st.sampled_from((0.0, 0.1, 1.0 / 3.0, 0.5, 1.0)), st.floats(0.0, 1.0)),
    beta=st.one_of(st.sampled_from((1e-5, 0.25, 0.5, 1.0)), st.floats(1e-5, 1e4)),
)


@st.composite
def searches(draw) -> tuple[CandidatePool, ChemistryTable, LossParams]:
    table = draw(tables())
    names = sorted(table.members)
    seeds = draw(st.lists(st.frozensets(st.sampled_from(names), min_size=1),
                          min_size=1, max_size=4))
    weights = draw(WEIGHTS)
    params = LossParams(
        alpha=weights.alpha,
        beta=weights.beta,
        max_iters=draw(st.integers(1, 50)),
        size_cap=draw(st.one_of(st.none(), st.integers(1, len(names) + 1))),
    )
    return CandidatePool(subsets=tuple(seeds)), table, params


class TestKernelEquivalence:
    """The screened kernel equals exact re-scoring of every move (``tests/helpers.py``)."""

    @settings(max_examples=300, deadline=None)
    @given(search=searches())
    def test_recommend_equals_rescoring_every_neighbor(self, search):
        pool, table, params = search
        result = recommend(pool, table, params)
        expected = reference_recommend(pool, table, params)
        assert result == expected
        assert repr(result.to_json_obj()) == repr(expected.to_json_obj())

    def test_screen_keeps_every_near_tie(self):
        # Adding a and removing b or c tie in real arithmetic (loss 0.87); the
        # exact losses put the addition one ulp lower, the screened ones the
        # removals, so a screen without slack would move to {c}.
        table = table_from({("a", "b"): 0.2, ("a", "c"): 0.2, ("b", "c"): 0.2}, ["a", "b", "c"])
        pool = CandidatePool(subsets=(frozenset({"b", "c"}),))
        params = LossParams(alpha=0.1, beta=0.25, max_iters=1, size_cap=None)
        result = recommend(pool, table, params)
        assert result == reference_recommend(pool, table, params)
        assert result.subset == frozenset({"a", "b", "c"})
        assert repr(result.loss) == "0.87"

    @pytest.mark.parametrize("value", [3e306, 3e307, 1e308])
    def test_totals_near_overflow_rescore_every_move(self, value):
        # maxT is near or past the largest double, so losses may be inf or nan;
        # the screen then keeps every move and the results match by repr.
        names = ["a", "b", "c", "d"]
        table = table_from(dict.fromkeys(combinations(names, 2), value), names)
        pool = CandidatePool(subsets=(frozenset("ab"), frozenset("c"), frozenset(names)))
        for params in (LossParams(), LossParams(alpha=0.0), LossParams(alpha=1.0, beta=1e308)):
            result = recommend(pool, table, params)
            expected = reference_recommend(pool, table, params)
            assert repr(result.to_json_obj()) == repr(expected.to_json_obj())
            assert result.stats["moves_rescored"] == result.stats["moves_screened"]
            assert repr(exhaustive_best(table, params)) == repr(
                reference_exhaustive_best(table, params)
            )

    @settings(max_examples=150, deadline=None)
    @given(table=tables(), params=WEIGHTS)
    def test_exhaustive_best_equals_the_combinations_loop(self, table, params):
        subset, loss = exhaustive_best(table, params)
        expected_subset, expected_loss = reference_exhaustive_best(table, params)
        assert subset == expected_subset
        assert repr(loss) == repr(expected_loss)

    def test_exhaustive_best_breaks_a_loss_tie_by_subset_key(self):
        # {b} and {a, b} both lose exactly 4.0; {b} comes first in mask order
        # and by size, but "a,b" sorts before "b".
        names = ["a", "b", "c", "d"]
        entries = {("a", "b"): 0.5, ("a", "c"): 0.5, ("a", "d"): 0.5, ("b", "c"): 0.5,
                   ("b", "d"): 1.0, ("c", "d"): 0.0}
        table = table_from(entries, names)
        totals = chem_totals(table)
        params = LossParams()
        assert subset_loss({"b"}, table, totals, params) == 4.0
        assert subset_loss({"a", "b"}, table, totals, params) == 4.0
        expected = (frozenset({"a", "b"}), 4.0)
        assert exhaustive_best(table, params) == reference_exhaustive_best(table, params) == expected

    @settings(max_examples=200, deadline=None)
    @given(table=tables(), params=WEIGHTS, data=st.data())
    def test_subset_loss_keeps_its_bytes(self, table, params, data):
        subset = data.draw(st.frozensets(st.sampled_from(sorted(table.members)), min_size=1))
        totals = chem_totals(table)
        assert repr(subset_loss(subset, table, totals, params)) == repr(
            reference_subset_loss(subset, table, totals, params)
        )


class TestStats:
    def test_counts_the_search(self):
        rng = random.Random(139)
        table = random_table(rng, 10)
        names = sorted(table.members)
        pool = CandidatePool(
            subsets=tuple(frozenset(rng.sample(names, rng.randint(1, 6))) for _ in range(8))
        )
        params = LossParams(max_iters=50, size_cap=None)
        stats = recommend(pool, table, params).stats
        assert set(stats) == {"seeds", "iterations", "moves_screened", "moves_rescored"}
        assert stats["seeds"] == len(pool.subsets)
        assert stats["seeds"] <= stats["iterations"] <= stats["seeds"] * params.max_iters
        # Distinct random values leave about one near-best move per neighbourhood.
        assert stats["iterations"] <= stats["moves_rescored"] <= 2 * stats["iterations"]
        assert stats["moves_screened"] >= 20 * stats["moves_rescored"]

    def test_left_out_of_equality(self):
        table = table_from({("a", "b"): 1.0}, ["a", "b", "c"])
        result = recommend(CandidatePool(subsets=(frozenset({"a"}),)), table)
        assert result.stats["seeds"] == 1
        assert result.replace(stats={}) == result
        assert "stats" not in result.to_json_obj()
