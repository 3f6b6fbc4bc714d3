"""The property audits of the cost function and the diversity diagnostic.

``llmchem check`` prints the lines of :func:`check_sections`: the audits and
two chemistry cross-checks.  The diagnostic is library surface that no
subcommand calls.  Both draw from a seeded ``random.Random``, and neither
runs in a pipeline stage, so they live apart from the modules every stage
imports.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

from .chemistry import chem_table_bruteforce, profile_chemistry
from .complementarity import pearson_r
from .core import Configuration, ModelProfile, ModelSet, Record, cost, left_sum, used_subset
from .errors import DomainError, SizeLimitError, UndefinedCorrelationError

#: Largest model set accepted by the property audits (chain sampling stays cheap).
AUDIT_SIZE_GUARD = 12

_ABS_TOL = 1e-12


class AuditSection(Record):
    """Outcome of one audited property."""

    name: str
    trials: int
    violations: int
    worst: float  # largest observed violation magnitude (or residual)

    @property
    def clean(self) -> bool:
        return self.violations == 0


class PropertyAuditReport(Record):
    """Aggregated result of the cost-function property audit."""

    monotonicity: AuditSection
    linearity: AuditSection
    submodularity: AuditSection


def _random_subset(rng: random.Random, names: list[str], min_size: int = 0) -> Configuration:
    k = rng.randint(min_size, len(names))
    return frozenset(rng.sample(names, k))


def _monotonicity_probe(
    rng: random.Random, model_set: ModelSet, names: list[str]
) -> float:
    """Return cost(after) - cost(before) for one improvement probe.

    The probe raises a single quality or accuracy value while preserving both
    the ranking order and the used subset, which is the regime in which the
    per-term penalty decrease carries over to the total.  Raises that cross
    another model's rank or the used threshold can legitimately increase the
    rank-weighted total and are out of scope here (see the audit docstring).
    """
    config = _random_subset(rng, names, min_size=1)
    target = rng.choice(sorted(config))
    profile = model_set.profile(target)
    usable = used_subset(model_set, config)
    threshold = model_set.used_threshold

    def outranks(other: ModelProfile) -> bool:
        key_other = (-other.quality, -other.accuracy, other.model)
        key_target = (-profile.quality, -profile.accuracy, profile.model)
        return key_other < key_target

    peers = [model_set.profile(m) for m in usable if m != target]

    if rng.random() < 0.5:
        # Quality raise, capped below the quality of any used peer currently
        # ranked above the target so the ranking order is unchanged (this
        # includes exact quality ties won on the tie-break).
        ceiling = 10.0
        for peer in peers:
            if outranks(peer):
                ceiling = min(ceiling, peer.quality)
        room = ceiling - profile.quality
        delta = room * rng.uniform(0.05, 0.95) if room > 0.0 else 0.0
        mutated = profile.replace(quality=profile.quality + delta)
    else:
        # Accuracy raise, staying on the same side of the used threshold and
        # below the accuracy of any equal-quality peer ranked above.
        if profile.accuracy < threshold:
            ceiling = threshold
        else:
            ceiling = 1.0
            for peer in peers:
                if peer.quality == profile.quality and outranks(peer):
                    ceiling = min(ceiling, peer.accuracy)
        room = ceiling - profile.accuracy
        delta = room * rng.uniform(0.05, 0.95) if room > 0.0 else 0.0
        mutated = profile.replace(accuracy=profile.accuracy + delta)

    before = cost(model_set, config)
    after = cost(model_set.with_profile(mutated), config)
    return after - before


def _linearity_residual(rng: random.Random, model_set: ModelSet, names: list[str]) -> float:
    """Absolute gap between cost() and an in-place per-term recomputation."""
    config = _random_subset(rng, names)
    total = cost(model_set, config)
    threshold = model_set.used_threshold
    usable = [
        model_set.profile(m)
        for m in config
        if model_set.profile(m).accuracy >= threshold
    ]
    if not usable:
        return abs(total - model_set.empty_cost)
    ordered = sorted(usable, key=lambda p: (-p.quality, -p.accuracy, p.model))
    terms = [
        (1.0 / i) * (1.0 - p.quality / 10.0) * (1.0 - p.accuracy)
        for i, p in enumerate(ordered, start=1)
    ]
    # Reversed summation order keeps the oracle independent of cost()'s own
    # accumulation while staying well inside the 1e-12 tolerance.
    return abs(total - left_sum(reversed(terms)))


def _submodularity_gap(rng: random.Random, model_set: ModelSet, names: list[str]) -> float:
    """rhs - lhs for one diminishing-returns probe (positive means violated)."""
    extra = rng.choice(names)
    rest = [m for m in names if m != extra]
    y = frozenset(rng.sample(rest, rng.randint(0, len(rest))))
    x = frozenset(m for m in sorted(y) if rng.random() < 0.5)
    lhs = cost(model_set, x) - cost(model_set, x | {extra})
    rhs = cost(model_set, y) - cost(model_set, y | {extra})
    return rhs - lhs


#: The audited properties in the order they draw: (name, probe).  A probe
#: returns one trial's violation, positive beyond ``_ABS_TOL`` when violated.
_AUDITS = (
    ("monotonicity", _monotonicity_probe),
    ("linearity", _linearity_residual),
    ("submodularity", _submodularity_gap),
)


def audit_cost_properties(
    model_set: ModelSet, trials: int, seed: int
) -> PropertyAuditReport:
    """Probe the cost function for monotonicity, linearity and submodularity.

    Monotonicity and linearity must come back with zero violations:
    rank-preserving, usage-preserving improvements never increase the cost,
    and the total is exactly the sum of independent per-output terms.  The
    submodularity section counts how often the diminishing-returns inequality
    ``cost(X) - cost(X|{m}) >= cost(Y) - cost(Y|{m})`` (for X subset of Y)
    holds on sampled chains.  It is reported as a diagnostic: with weights
    1/rank, adding a model appends a nonnegative term and re-weights lower
    ranks, so violations are expected for many profile mixes.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if len(model_set.profiles) > AUDIT_SIZE_GUARD:
        raise SizeLimitError(
            f"audit supports at most {AUDIT_SIZE_GUARD} models, got {len(model_set.profiles)}"
        )
    names = sorted(model_set.members)
    rng = random.Random(seed)
    sections = {}
    for name, probe in _AUDITS:
        violations, worst = 0, 0.0
        for _ in range(trials):
            value = probe(rng, model_set, names)
            if value > _ABS_TOL:
                violations += 1
            if value > _ABS_TOL or name == "linearity":  # linearity: the largest residual
                worst = max(worst, value)
        sections[name] = AuditSection(name, trials, violations, worst)
    return PropertyAuditReport(**sections)


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


def check_sections(model_set: ModelSet, seed: int) -> Iterator[tuple[str, str]]:
    """The lines of ``llmchem check``, each as (status, text), in print order.

    The status is ``PASS`` or ``FAIL`` for an asserted section, ``INFO`` for
    the submodularity diagnostic, ``SKIP`` for a pair section without two
    models, and empty for the line that names the restriction of the cost
    audits (1,000 trials each, ``seed``) to the first ``AUDIT_SIZE_GUARD``
    models by name.  The homogeneity probe asserts that clones of ``_ANCHOR``
    on up to six of the names carry no chemistry; the cross-check asserts
    that the profile scorer equals the enumerator on up to six usable models.
    """
    names = sorted(model_set.members)

    def restricted(profiles) -> ModelSet:
        return model_set.replace(profiles=tuple(profiles))

    audited = model_set
    if len(names) > AUDIT_SIZE_GUARD:
        audited = restricted(model_set.profile(n) for n in names[:AUDIT_SIZE_GUARD])
        yield "", f"check: auditing the first {AUDIT_SIZE_GUARD} of {len(names)} models"
    report = audit_cost_properties(audited, trials=1000, seed=seed)
    for section in (report.monotonicity, report.linearity):
        yield ("PASS" if section.clean else "FAIL",
               f"{section.name}: {section.violations}/{section.trials} violations")
    gaps = report.submodularity
    yield ("INFO", f"submodularity (diagnostic): {gaps.violations}/{gaps.trials} violations, "
                   f"worst gap {gaps.worst!r}")

    probe = names[:6]
    if len(probe) >= 2:
        table = chem_table_bruteforce(restricted(_ANCHOR.replace(model=n) for n in probe))
        yield ("PASS" if table.max_score() == 0.0 else "FAIL",
               f"homogeneity probe: max chemistry {table.max_score()!r}")
    else:
        yield "SKIP", "homogeneity probe: needs at least 2 models"

    sample = sorted(used_subset(model_set, names))[:6]
    if len(sample) >= 2:
        subset = restricted(model_set.profile(n) for n in sample)
        fast = profile_chemistry(subset)
        exact = chem_table_bruteforce(subset)
        mismatches = [(a, b) for a, b, value in fast.pairs() if value != exact.score(a, b)]
        yield ("FAIL" if mismatches else "PASS",
               f"graph-vs-exhaustive on {len(sample)} usable models: "
               f"{len(mismatches)} mismatch(es)")
    else:
        yield "SKIP", "graph-vs-exhaustive: needs at least 2 usable models"


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
