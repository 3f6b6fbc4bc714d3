"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here, not deferred.

Every criterion passes.  Criterion 04's homogeneous clause asserts the
chemistry that the rank-weighted cost (weights 1/rank plus the
empty-configuration sentinel) gives identical profiles: exactly 0 for
zero-penalty profiles and for sets below the used threshold, and a positive
closed form for a shared positive penalty.  See ``test_criterion_04``'s
docstring for the arithmetic.
"""

from __future__ import annotations

import math
import random
import time
from itertools import combinations

import numpy
import pytest

from llmchem import (
    CandidatePool,
    DiversityFamily,
    EnsemblePoint,
    GradeMatrix,
    ModelProfile,
    ModelSet,
    audit_cost_properties,
    benefit,
    build_mig,
    build_profiles,
    chem_table_bruteforce,
    cheme,
    combined_accuracy,
    cost,
    exhaustive_best,
    heterogeneity_diagnostic,
    hypervolume2d,
    parse_history_csv,
    penalty,
    profile_chemistry,
    rank_outputs,
    read_profiles,
    recommend,
    vancouver_consensus,
    write_history_csv,
    write_profiles,
)
from llmchem.consensus import VARIANCE_FLOOR
from llmchem.mig import TableBackend

from helpers import (
    homogeneous_chemistry,
    homogeneous_model_set,
    random_model_set,
    reference_consensus_iteration,
)

ABS = 1e-12


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {status} {name}{suffix}")


def test_criterion_01_cost_worked_example():
    ms = ModelSet(
        profiles=(
            ModelProfile("r1", 9.0, 0.90),
            ModelProfile("r2", 8.0, 0.80),
            ModelProfile("r3", 7.0, 0.70),
        )
    )
    exact = cost(ms, ms.members)
    ranked = rank_outputs(ms, ms.members)
    rounded = sum(
        round(1.0 / i, 2) * penalty(p.quality_norm, p.accuracy)
        for i, p in enumerate(ranked, start=1)
    )
    timings = []
    for _ in range(10):
        t0 = time.perf_counter()
        cost(ms, ms.members)
        timings.append(time.perf_counter() - t0)
    elapsed = min(timings)
    ok = (
        abs(exact - 0.06) <= ABS
        and abs(rounded - 0.0597) <= ABS
        and elapsed < 1e-3
    )
    report(1, "cost worked example", ok,
           f"exact={exact!r}, rounded={rounded!r}, {elapsed * 1e6:.1f}us")
    assert ok


def test_criterion_02_benefit_worked_value():
    backend = TableBackend(costs={("c",): 0.15, ("a", "c"): 0.07}, members=("a", "c"))
    value = benefit(backend, {"a"}, {"c"})
    defining = backend.cost(frozenset("c")) - backend.cost(frozenset("ac"))
    ok = value == defining and abs(value - 0.08) <= ABS
    report(2, "benefit worked value", ok, f"benefit={value!r}")
    assert ok


def test_criterion_03_accuracy_blend():
    value = combined_accuracy(1.0, 0.846, True)
    ok = abs(value - 0.9615) <= ABS
    report(3, "accuracy blend", ok, f"blend={value!r}")
    assert ok


def test_criterion_04_homogeneity_and_perturbation():
    """Specified chemistry for homogeneous sets; positive after a quality bump.

    Identical profiles score exactly 0 only where the cost makes every
    benefit difference vanish: zero-penalty profiles (quality 10 or accuracy
    1), where every context is skipped, and sets whose shared accuracy is
    below the used threshold, where every benefit is 0.  With a shared
    penalty p > 0 and a usable accuracy, weights falling as 1/rank make one
    model's marginal benefit depend on the context size (-p / (|X| + 1)), so
    every pair scores the positive closed form that
    ``helpers.homogeneous_chemistry`` derives (for two models with q=8,
    a=0.8 it is (empty_cost - p/2) / (1.5 p) = 16.33...).  The homogeneous
    clause asserts, on every draw, that all pairs score the same, exactly
    0.0 in the two zero regimes and the closed form to rel 1e-12 otherwise.
    The random draws are continuous and never hit quality 10 or accuracy 1,
    so fixed draws add both for every size, plus a pair at the used
    threshold and just below it.  The perturbation clause is asserted over
    the sets where a quality change is visible to the cost (usable members,
    accuracy below 1).
    """
    rng = random.Random(2024)
    draws = [
        (rng.randint(2, 10), rng.uniform(0.0, 10.0), rng.uniform(0.0, 1.0))
        for _ in range(200)
    ]
    for size in range(2, 11):
        draws.append((size, 10.0, 0.75))
        draws.append((size, 6.0, 1.0))
    threshold = ModelSet.used_threshold
    draws.append((6, 6.0, threshold))
    draws.append((6, 6.0, math.nextafter(threshold, 0.0)))

    started = time.perf_counter()
    regimes = {"zero": 0, "unusable": 0, "positive": 0}
    worst_rel = 0.0
    homogeneous_failures = []
    perturb_failures = []
    asserted_perturbations = 0
    for size, quality, accuracy in draws:
        ms = homogeneous_model_set(size, quality, accuracy)
        scores = sorted(set(chem_table_bruteforce(ms).scores.values()))
        expected = homogeneous_chemistry(
            size,
            quality,
            accuracy,
            empty_cost=ms.empty_cost,
            used_threshold=ms.used_threshold,
        )
        if expected == 0.0:
            regimes["unusable" if accuracy < ms.used_threshold else "zero"] += 1
            matches = scores == [0.0]
        else:
            regimes["positive"] += 1
            rel = max(abs(s - expected) for s in scores) / expected
            worst_rel = max(worst_rel, rel)
            matches = len(scores) == 1 and rel <= 1e-12
        if not matches:
            homogeneous_failures.append((size, quality, accuracy, scores[:2], expected))

        bump = -0.1 if quality >= 0.1 else 0.1
        perturbed = ms.with_profile(
            ModelProfile("m00", quality=quality + bump, accuracy=accuracy)
        )
        visible = accuracy >= ms.used_threshold and accuracy < 1.0
        if visible:
            asserted_perturbations += 1
            if chem_table_bruteforce(perturbed).max_score() <= 0.0:
                perturb_failures.append((size, quality, accuracy))
    elapsed = time.perf_counter() - started

    homogeneous_ok = not homogeneous_failures
    perturbation_ok = not perturb_failures and elapsed < 10.0
    detail = (
        f"homogeneous {len(draws)} draws: {regimes['zero']} zero, "
        f"{regimes['unusable']} unusable, {regimes['positive']} positive, "
        f"worst rel dev {worst_rel:.1e}, {len(homogeneous_failures)} failures; "
        f"perturbation {asserted_perturbations} asserted / "
        f"{len(perturb_failures)} failures, {elapsed:.1f}s"
    )
    report(4, "homogeneity invariant", homogeneous_ok and perturbation_ok, detail)
    assert perturbation_ok, f"perturbation clause failed: {perturb_failures[:3]}"
    assert homogeneous_ok, (
        "homogeneous clause failed (size, quality, accuracy, scores, expected): "
        f"{homogeneous_failures[:3]}; {detail}"
    )


def test_criterion_05_oracle_equivalence():
    rng = random.Random(31337)
    started = time.perf_counter()
    checked_pairs = 0
    for _ in range(100):
        size = rng.randint(2, 6)
        ms = random_model_set(rng, size, min_accuracy=0.5)
        graph = build_mig(ms)
        assert graph.node_count == 2 ** size  # full lattice
        fast = cheme(graph)
        profile = profile_chemistry(ms)
        slow = chem_table_bruteforce(ms)
        for a, b, value in fast.pairs():
            assert value == slow.score(a, b), (a, b, value, slow.score(a, b))
            assert profile.score(a, b) == slow.score(a, b), (a, b, profile.score(a, b))
            checked_pairs += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 60.0
    report(5, "graph and profile scorers equal exhaustive oracle", ok,
           f"{checked_pairs} pairs bit-identical, {elapsed:.1f}s")
    assert ok


def test_criterion_06_recommend_optimality():
    rng = random.Random(424242)
    for _ in range(20):
        size = rng.randint(3, 8)
        ms = random_model_set(rng, size, min_accuracy=0.5)
        table = cheme(build_mig(ms))
        names = sorted(table.members)
        pool = CandidatePool(
            subsets=tuple(
                frozenset(combo)
                for k in range(1, size + 1)
                for combo in combinations(names, k)
            )
        )
        result = recommend(pool, table)

        _, package_best = exhaustive_best(table)
        assert result.loss == package_best

        # independent enumeration from raw pair sums
        max_t = sum(v for _, _, v in table.pairs())
        max_i = 2.0 * max_t
        inline_best = None
        for k in range(1, size + 1):
            for combo in combinations(names, k):
                inside = set(combo)
                intra = sum(
                    table.score(a, b) for a, b in combinations(sorted(inside), 2)
                )
                inter = sum(
                    table.score(a, b)
                    for a in sorted(inside)
                    for b in names
                    if b not in inside
                )
                loss = 0.5 * (max_i - inter) + 0.5 * (max_t - intra) + 0.5 * len(inside)
                inline_best = loss if inline_best is None else min(inline_best, loss)
        assert result.loss == pytest.approx(inline_best, abs=1e-9)

        losses = [loss for _, _, loss in result.trace]
        assert all(x > y for x, y in zip(losses, losses[1:]))
    report(6, "hill climb attains the exhaustive minimum", True, "20 instances")


def test_criterion_07_cost_property_audits():
    rng = random.Random(777)
    ms = random_model_set(rng, 10)
    audit = audit_cost_properties(ms, trials=1000, seed=777)
    ok = audit.monotonicity.violations == 0 and audit.linearity.violations == 0
    report(
        7,
        "cost property audits",
        ok,
        f"monotonicity 0/{audit.monotonicity.trials}, "
        f"linearity 0/{audit.linearity.trials} (max residual "
        f"{audit.linearity.worst:.2e}), submodularity diagnostic "
        f"{audit.submodularity.violations}/{audit.submodularity.trials} violations",
    )
    assert ok


def test_criterion_08_hypervolume_monte_carlo():
    staircase = hypervolume2d(
        [EnsemblePoint("x", 0.9, 0.3), EnsemblePoint("y", 0.3, 0.9)]
    )
    assert abs(staircase - 0.45) <= ABS

    rng = numpy.random.default_rng(2718281828)
    worst_gap = 0.0
    for _ in range(20):
        count = int(rng.integers(1, 9))
        coords = rng.random((count, 2))
        points = [
            EnsemblePoint(f"p{i}", float(a), float(q))
            for i, (a, q) in enumerate(coords)
        ]
        exact = hypervolume2d(points)
        samples = rng.random((1_000_000, 2))
        hits = numpy.zeros(len(samples), dtype=bool)
        for p in points:
            hits |= (samples[:, 0] < p.accuracy) & (samples[:, 1] < p.quality_norm)
        estimate = float(hits.mean())
        gap = abs(exact - estimate)
        worst_gap = max(worst_gap, gap)
        assert gap <= 0.002, (exact, estimate)
    report(8, "hypervolume sweep vs Monte Carlo", True,
           f"staircase={staircase!r}, worst gap {worst_gap:.2e}")


def test_criterion_09_consensus_fixed_point_and_reference():
    for graders, outputs in ((2, 3), (3, 4), (5, 2)):
        rows = [
            (f"g{i}", f"o{j}", 6.25) for i in range(graders) for j in range(outputs)
        ]
        result = vancouver_consensus(GradeMatrix(grades={(g, o): grade for g, o, grade in rows}))
        assert result.converged and result.iterations <= 2
        assert all(value == 6.25 for value in result.consensus.values())
        assert all(v == VARIANCE_FLOOR for v in result.variance.values())

    rng = random.Random(90210)
    worst = 0.0
    for _ in range(20):
        rows = [
            (f"g{i}", f"o{j}", rng.uniform(0.0, 10.0))
            for i in range(3)
            for j in range(4)
        ]
        matrix = GradeMatrix(grades={(g, o): grade for g, o, grade in rows})
        mine = vancouver_consensus(matrix, max_iters=3, tol=1e-300)
        assert mine.iterations == 3
        ref_cons, ref_var = reference_consensus_iteration(rows, 3)
        for output, value in ref_cons.items():
            worst = max(worst, abs(mine.consensus[output] - value))
        for grader, value in ref_var.items():
            worst = max(worst, abs(mine.variance[grader] - value))
    ok = worst <= 1e-9
    report(9, "consensus fixed point and reference match", ok,
           f"worst reference gap {worst:.2e}")
    assert ok


def test_criterion_10_round_trip_fidelity(history_fixture, tmp_path):
    records = parse_history_csv(history_fixture)
    rewritten = tmp_path / "rewritten.csv"
    write_history_csv(records, rewritten)
    csv_ok = rewritten.read_bytes() == history_fixture.read_bytes()

    stores = build_profiles(records, "trial", sources=[str(history_fixture)])
    store_path = tmp_path / "stores.json"
    write_profiles(stores, store_path)
    loaded = read_profiles(store_path)
    json_ok = [
        (s.context_key, s.profiles, s.provenance) for s in loaded
    ] == [(s.context_key, s.profiles, s.provenance) for s in stores]
    ok = csv_ok and json_ok
    report(10, "round-trip fidelity", ok,
           f"csv byte-identical={csv_ok}, store field-for-field={json_ok}")
    assert ok


def test_criterion_11_performance_envelope():
    rng = random.Random(555)
    ms = random_model_set(rng, 12, min_accuracy=0.5)
    started = time.perf_counter()
    graph = build_mig(ms)
    table = cheme(graph)
    elapsed = time.perf_counter() - started
    ok = elapsed < 60.0 and graph.node_count <= 2 ** 12
    report(11, "12-model performance envelope", ok,
           f"{elapsed:.2f}s, {graph.node_count} nodes, max={table.max_score():.3f}")
    assert ok


def test_criterion_12_heterogeneity_sweep():
    spreads = [0.0, 0.1, 0.2, 0.4]
    verdicts = []
    for seed in range(10):
        rep = heterogeneity_diagnostic(DiversityFamily(seed=seed), spreads)
        assert rep.points[0] == (0.0, 0.0)
        assert rep.trend in {"increasing", "decreasing", "flat", "mixed"}
        verdicts.append(rep.trend)
    report(12, "diversity sweep diagnostic", True,
           f"verdicts per seed: {verdicts}")
