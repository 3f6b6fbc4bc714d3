from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from llmchem import (
    ModelProfile,
    ModelSet,
    audit_cost_properties,
    benefit,
    cost,
    model_set_fingerprint,
    penalty,
    rank_outputs,
    used_subset,
)
from llmchem.chemistry import ChemistryTable, DiversityFamily, HeterogeneityReport, pair_key
from llmchem.complementarity import ChemistryMap, CIParams, EnsemblePoint
from llmchem.consensus import ConsensusResult, GradeMatrix
from llmchem.core import AuditSection, PropertyAuditReport, Record, left_sum
from llmchem.errors import (
    DomainError,
    InvalidConfigurationError,
    MalformedMatrixError,
    MissingPairError,
    SizeLimitError,
)
from llmchem.history import ProfileStore
from llmchem.mig import MIGNode
from llmchem.recommend import CandidatePool, LossParams, Recommendation

from helpers import homogeneous_model_set, random_model_set, reference_audit_cost_properties

ABS = 1e-12


def make_set(*triples, empty_cost=1.0, used_threshold=0.5):
    profiles = tuple(ModelProfile(n, q, a) for n, q, a in triples)
    return ModelSet(profiles=profiles, empty_cost=empty_cost, used_threshold=used_threshold)


WORKED = (("r1", 9.0, 0.90), ("r2", 8.0, 0.80), ("r3", 7.0, 0.70))


class TestTypes:
    def test_profile_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            ModelProfile("m", 10.5, 0.5)
        with pytest.raises(DomainError):
            ModelProfile("m", 5.0, -0.1)
        with pytest.raises(DomainError):
            ModelProfile("m", float("nan"), 0.5)
        with pytest.raises(DomainError):
            ModelProfile("", 5.0, 0.5)

    def test_model_set_rejects_duplicates_and_empty(self):
        with pytest.raises(DomainError):
            make_set(("a", 5.0, 0.5), ("a", 6.0, 0.6))
        with pytest.raises(DomainError):
            ModelSet(profiles=())

    def test_model_set_knob_validation(self):
        with pytest.raises(DomainError):
            make_set(("a", 5.0, 0.5), used_threshold=1.5)
        with pytest.raises(DomainError):
            make_set(("a", 5.0, 0.5), empty_cost=-0.1)

    def test_unknown_model_rejected_by_profile_and_with_profile(self):
        ms = make_set(*WORKED)
        with pytest.raises(InvalidConfigurationError, match="'zz'"):
            ms.profile("zz")
        with pytest.raises(InvalidConfigurationError, match="'zz'"):
            ms.with_profile(ModelProfile("zz", 5.0, 0.5))

    def test_ranked_output_weight_is_exact_inverse_rank(self):
        ms = make_set(*WORKED)
        ranked = rank_outputs(ms, {"r1", "r2", "r3"})
        assert [p.model for p in ranked] == ["r1", "r2", "r3"]
        assert cost(ms, ms.members) == left_sum(
            (1.0 / i) * penalty(p.quality_norm, p.accuracy)
            for i, p in enumerate(ranked, start=1)
        )

    def test_ranking_order_quality_then_accuracy_then_name(self):
        ms = make_set(("b", 9.0, 0.9), ("a", 9.0, 0.9), ("c", 9.0, 0.95), ("d", 9.5, 0.6))
        ranked = rank_outputs(ms, ms.members)
        assert [r.model for r in ranked] == ["d", "c", "a", "b"]


class TestUsedSubset:
    def test_threshold_is_inclusive(self):
        ms = make_set(("a", 5.0, 0.9), ("b", 5.0, 0.4), ("c", 5.0, 0.5))
        assert used_subset(ms, {"a", "b", "c"}) == {"a", "c"}

    def test_empty_configuration(self):
        ms = make_set(("a", 5.0, 0.9))
        assert used_subset(ms, set()) == frozenset()

    def test_all_used_is_identity(self):
        ms = make_set(("a", 5.0, 1.0), ("b", 5.0, 1.0))
        assert used_subset(ms, {"a", "b"}) == {"a", "b"}

    def test_unknown_model_rejected(self):
        ms = make_set(("a", 5.0, 0.9))
        with pytest.raises(InvalidConfigurationError):
            used_subset(ms, {"a", "zz"})


class TestPenalty:
    def test_perfect_output_has_zero_penalty(self):
        assert penalty(1.0, 1.0) == 0.0

    def test_worked_value(self):
        assert penalty(0.9, 0.9) == pytest.approx(0.01, abs=ABS)

    def test_worst_case(self):
        assert penalty(0.0, 0.0) == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            penalty(1.1, 0.5)
        with pytest.raises(DomainError):
            penalty(0.5, float("inf"))

    @given(
        q=st.floats(0.0, 1.0),
        a=st.floats(0.0, 1.0),
        bump=st.floats(0.0, 1.0),
    )
    def test_bounded_and_monotone_in_each_argument(self, q, a, bump):
        base = penalty(q, a)
        assert 0.0 <= base <= 1.0
        assert penalty(min(1.0, q + bump * (1.0 - q)), a) <= base + ABS
        assert penalty(q, min(1.0, a + bump * (1.0 - a))) <= base + ABS


class TestCost:
    def test_worked_example_exact_weights(self):
        ms = make_set(*WORKED)
        assert cost(ms, ms.members) == pytest.approx(0.06, abs=ABS)

    def test_worked_example_rounded_weight_presentation(self):
        # Same ranking, but with the third weight rounded to 0.33 for display.
        ms = make_set(*WORKED)
        ranked = rank_outputs(ms, ms.members)
        total = sum(
            round(1.0 / i, 2) * penalty(p.quality_norm, p.accuracy)
            for i, p in enumerate(ranked, start=1)
        )
        assert total == pytest.approx(0.0597, abs=ABS)

    def test_empty_used_subset_returns_sentinel_not_zero(self):
        ms = make_set(("a", 9.0, 0.2), empty_cost=1.0)
        assert cost(ms, {"a"}) == 1.0
        assert cost(ms, set()) == 1.0

    def test_homogeneous_closed_form(self):
        ms = homogeneous_model_set(5, quality=8.0, accuracy=0.8)
        shared = penalty(0.8, 0.8)
        for k in range(1, 6):
            config = {f"m{i:02d}" for i in range(k)}
            harmonic = sum(1.0 / i for i in range(1, k + 1))
            assert cost(ms, config) == pytest.approx(shared * harmonic, abs=ABS)

    def test_cost_depends_only_on_profile_multiset(self):
        ms1 = make_set(("a", 7.0, 0.8), ("b", 6.0, 0.9), ("c", 2.0, 0.6))
        ms2 = make_set(("x", 7.0, 0.8), ("y", 6.0, 0.9), ("z", 2.0, 0.6))
        assert cost(ms1, ms1.members) == cost(ms2, ms2.members)

    def test_profile_order_does_not_matter(self):
        triples = [("a", 7.0, 0.8), ("b", 6.0, 0.9), ("c", 2.0, 0.6)]
        ms1 = make_set(*triples)
        ms2 = make_set(*reversed(triples))
        assert cost(ms1, ms1.members) == cost(ms2, ms2.members)

    def test_deterministic_across_calls(self):
        rng = random.Random(11)
        ms = random_model_set(rng, 8)
        config = frozenset(list(sorted(ms.members))[:5])
        assert cost(ms, config) == cost(ms, config)

    def test_bounded_by_harmonic_sum(self):
        rng = random.Random(13)
        for _ in range(50):
            ms = random_model_set(rng, 6)
            config = frozenset(
                m for m in ms.members if rng.random() < 0.7
            )
            usable = used_subset(ms, config)
            value = cost(ms, config)
            if usable:
                bound = sum(1.0 / i for i in range(1, len(usable) + 1))
                assert 0.0 <= value <= bound + ABS


class TestBenefit:
    def test_matches_cost_difference_oracle(self):
        rng = random.Random(17)
        for _ in range(100):
            ms = random_model_set(rng, 4)
            names = sorted(ms.members)
            x = frozenset(m for m in names if rng.random() < 0.4)
            y = frozenset(m for m in names if m not in x and rng.random() < 0.6)
            expected = cost(ms, y) - cost(ms, x | y)
            assert benefit(ms, x, y) == expected

    def test_empty_first_argument_is_zero(self):
        rng = random.Random(19)
        ms = random_model_set(rng, 5)
        for size in range(len(ms.members) + 1):
            y = frozenset(sorted(ms.members)[:size])
            assert benefit(ms, frozenset(), y) == 0.0

    def test_unknown_model_rejected(self):
        ms = make_set(("a", 5.0, 0.9))
        with pytest.raises(InvalidConfigurationError):
            benefit(ms, {"zz"}, {"a"})

    def test_can_be_negative(self):
        # Adding a weak model to a strong singleton raises the total cost.
        ms = make_set(("good", 10.0, 1.0), ("bad", 1.0, 0.6))
        assert benefit(ms, {"bad"}, {"good"}) < 0.0


class TestFingerprint:
    def test_stable_and_sensitive(self):
        ms1 = make_set(("a", 5.0, 0.5), ("b", 6.0, 0.6))
        ms2 = make_set(("b", 6.0, 0.6), ("a", 5.0, 0.5))
        ms3 = make_set(("a", 5.0, 0.51), ("b", 6.0, 0.6))
        assert model_set_fingerprint(ms1) == model_set_fingerprint(ms2)
        assert model_set_fingerprint(ms1) != model_set_fingerprint(ms3)


class TestAudit:
    def test_monotonicity_and_linearity_clean_on_random_sets(self):
        rng = random.Random(23)
        for seed in range(3):
            ms = random_model_set(rng, 7)
            report = audit_cost_properties(ms, trials=400, seed=seed)
            assert report.monotonicity.violations == 0
            assert report.linearity.violations == 0
            assert report.linearity.worst <= ABS

    def test_monotonicity_clean_with_exact_quality_ties(self):
        # A raise must never leapfrog a tied peer that wins the tie-break;
        # duplicated grades are common in real stores.
        ms = make_set(
            ("a", 5.0, 0.9),
            ("b", 5.0, 0.6),
            ("c", 5.0, 0.6),  # name tie-break against b
            ("d", 7.0, 0.8),
        )
        report = audit_cost_properties(ms, trials=600, seed=2)
        assert report.monotonicity.violations == 0

    def test_submodularity_diagnostic_counts_without_failing(self):
        rng = random.Random(29)
        ms = random_model_set(rng, 6, min_accuracy=0.5)
        report = audit_cost_properties(ms, trials=500, seed=1)
        assert report.submodularity.trials == 500
        assert report.submodularity.violations >= 0  # reported, never asserted

    def test_submodularity_equal_marginals_for_zero_penalty_homogeneous(self):
        # Perfect-quality profiles: every non-empty configuration costs 0, so
        # marginals agree exactly along any chain of non-empty sets.
        ms = homogeneous_model_set(5, quality=10.0, accuracy=0.9)
        names = sorted(ms.members)
        for k in range(1, 4):
            x = frozenset(names[:k])
            y = frozenset(names[: k + 1])
            extra = names[4]
            lhs = cost(ms, x) - cost(ms, x | {extra})
            rhs = cost(ms, y) - cost(ms, y | {extra})
            assert lhs == rhs == 0.0

    def test_submodularity_genuinely_fails_for_positive_penalty_homogeneous(self):
        # Adding the same model to a larger set removes less weight, so the
        # diminishing-returns inequality flips; this pins the diagnostic's
        # reason for existing.
        ms = homogeneous_model_set(4, quality=8.0, accuracy=0.8)
        names = sorted(ms.members)
        x = frozenset(names[:1])
        y = frozenset(names[:2])
        extra = names[3]
        lhs = cost(ms, x) - cost(ms, x | {extra})
        rhs = cost(ms, y) - cost(ms, y | {extra})
        assert lhs < rhs  # violated

    def test_guards(self):
        rng = random.Random(31)
        ms = random_model_set(rng, 4)
        with pytest.raises(DomainError):
            audit_cost_properties(ms, trials=0, seed=0)
        big = random_model_set(rng, 13)
        with pytest.raises(SizeLimitError):
            audit_cost_properties(big, trials=10, seed=0)

    def test_report_is_deterministic_for_fixed_seed(self):
        rng = random.Random(37)
        ms = random_model_set(rng, 6)
        first = audit_cost_properties(ms, trials=200, seed=5)
        second = audit_cost_properties(ms, trials=200, seed=5)
        assert first == second

    def test_report_equals_the_three_loop_reference(self):
        # Seeded draws that hold submodularity violations (worst = largest
        # violation) and linearity residuals at or below the tolerance
        # (worst = largest residual, which no violation would record).
        rng = random.Random(41)
        seen_violations = seen_residuals = 0
        for _ in range(40):
            ms = random_model_set(rng, rng.randint(1, 12), min_accuracy=rng.choice([0.0, 0.5]))
            trials, seed = rng.randint(1, 300), rng.randrange(2**32)
            report = audit_cost_properties(ms, trials=trials, seed=seed)
            assert report == reference_audit_cost_properties(ms, trials=trials, seed=seed)
            seen_violations += report.submodularity.violations > 0
            seen_residuals += report.linearity.violations == 0 < report.linearity.worst
        assert seen_violations >= 10 and seen_residuals >= 10


_PROFILE = ModelProfile("a", 5.0, 0.8)
_SECTION = AuditSection("linearity", 10, 0, 0.0)
_SUBSET = frozenset({"a"})
_NO_FIELD = {"no_such_field": 1}  # the one bad change a record without checks refuses

#: Every record class: (class, a valid instance's fields in declared order,
#: a bad change, the error ``replace`` raises for it).
RECORDS = [
    (ModelProfile, {"model": "a", "quality": 5.0, "accuracy": 0.8}, {"quality": 11.0}, DomainError),
    (ModelSet, {"profiles": (_PROFILE,), "empty_cost": 1.0, "used_threshold": 0.5},
     {"empty_cost": -1.0}, DomainError),
    (AuditSection, {"name": "linearity", "trials": 10, "violations": 0, "worst": 0.0},
     _NO_FIELD, TypeError),
    (PropertyAuditReport, {"monotonicity": _SECTION, "linearity": _SECTION, "submodularity": _SECTION},
     _NO_FIELD, TypeError),
    (ChemistryTable, {"scores": {pair_key("a", "b"): 1.0}, "members": frozenset("ab"),
                      "method": "loaded"}, {"scores": {}}, MissingPairError),
    (DiversityFamily, {"spread": 0.1, "seed": 3}, {"spread": -1.0}, DomainError),
    (HeterogeneityReport, {"points": ((0.0, 0.0),), "trend": "flat", "spearman": None},
     _NO_FIELD, TypeError),
    (EnsemblePoint, {"model": "a", "accuracy": 0.5, "quality_norm": 0.5}, {"accuracy": 2.0},
     DomainError),
    (CIParams, {"lam": 0.5}, {"lam": 2.0}, DomainError),
    (ChemistryMap, {"grid_size": 1, "cells": ((0.0,),), "params": CIParams(), "base_index": 0.5},
     _NO_FIELD, TypeError),
    (GradeMatrix, {"grades": {("g", "o"): 5.0}}, {"grades": {("g", "o"): 11.0}},
     MalformedMatrixError),
    (ConsensusResult, {"consensus": {"o": 5.0}, "variance": {"g": 1.0},
                       "review_accuracy": {"g": 0.5}, "iterations": 3, "converged": True},
     _NO_FIELD, TypeError),
    (ProfileStore, {"context_key": "all", "profiles": {"a": _PROFILE}, "provenance": {}},
     _NO_FIELD, TypeError),
    (MIGNode, {"subset": _SUBSET, "used": frozenset(), "cost": 1.0}, {"cost": -1.0}, DomainError),
    (LossParams, {"alpha": 0.5, "beta": 0.5, "max_iters": 50, "size_cap": 10}, {"alpha": 2.0},
     DomainError),
    (CandidatePool, {"subsets": (_SUBSET,)}, {"subsets": (frozenset(),)},
     InvalidConfigurationError),
    (Recommendation, {"subset": _SUBSET, "loss": 1.0, "trace": ((0, _SUBSET, 1.0),),
                      "seed_subset": _SUBSET, "zero_chemistry": False, "stats": {"seeds": 1}},
     _NO_FIELD, TypeError),
]


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, fields, bad, error", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_frozen_value_objects(cls, fields, bad, error):
    record = cls(*fields.values())
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == value
    with pytest.raises(AttributeError):
        record.extra = 1

    same = cls(**fields)
    assert same == record and not same != record
    if all(map(_hashable, fields.values())):
        assert hash(same) == hash(record)

    # Another class with the same fields and values, unrelated or derived, is never equal.
    twin = type(cls.__name__, (Record,), {"__annotations__": dict.fromkeys(fields, "object")})
    derived = type(cls.__name__, (cls,), {})
    for other in (twin(**fields), derived(**fields)):
        assert other != record and record != other

    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({shown})"
    with pytest.raises(error):
        record.replace(**bad)


def test_recommendation_stats_are_fresh_and_left_out_of_equality():
    fields = dict(RECORDS[-1][1])
    del fields["stats"]
    first, second = Recommendation(**fields), Recommendation(**fields)
    assert first.stats == {} and first.stats is not second.stats
    counted = first.replace(stats={"seeds": 3})
    assert counted == first and hash(counted) == hash(first)
    assert counted != first.replace(loss=2.0)
