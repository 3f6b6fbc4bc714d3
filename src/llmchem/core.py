"""Domain types and the rank-weighted cost/benefit calculus.

A model's recorded performance is a ``ModelProfile`` (consensus quality in
[0, 10], combined accuracy in [0, 1]).  A ``ModelSet`` holds the candidate
pool.  The cost of a configuration ranks the usable outputs best-first and
sums ``(1/rank) * (1 - quality/10) * (1 - accuracy)`` per output; the benefit
of adding models is the resulting cost reduction.  Everything downstream
(interaction graphs, chemistry scores, recommendations) consumes these
functions.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, replace
from typing import Iterable

from .errors import DomainError, InvalidConfigurationError, SizeLimitError

ModelId = str
Configuration = frozenset[str]

#: Largest model set accepted by the property audits (chain sampling stays cheap).
AUDIT_SIZE_GUARD = 12

_ABS_TOL = 1e-12


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _require_range(name: str, value: float, lo: float, hi: float) -> float:
    value = _require_finite(name, value)
    if not (lo <= value <= hi):
        raise DomainError(f"{name} must be in [{lo}, {hi}], got {value!r}")
    return value


@dataclass(frozen=True)
class ModelProfile:
    """Recorded performance of one model within a query context."""

    model: ModelId
    quality: float  # consensus grade in [0, 10]
    accuracy: float  # combined accuracy in [0, 1]

    def __post_init__(self) -> None:
        if not self.model:
            raise DomainError("model name must be a non-empty string")
        _require_range("quality", self.quality, 0.0, 10.0)
        _require_range("accuracy", self.accuracy, 0.0, 1.0)

    @property
    def quality_norm(self) -> float:
        """Quality rescaled to [0, 1]."""
        return self.quality / 10.0

    @property
    def penalty(self) -> float:
        """Joint quality/accuracy error of this profile's output."""
        return (1.0 - self.quality_norm) * (1.0 - self.accuracy)


@dataclass(frozen=True)
class ModelSet:
    """The candidate pool: profiles plus the knobs that shape the cost.

    ``empty_cost`` is charged to any configuration whose usable subset is
    empty (an unanswered query must never look cheaper than a poor answer).
    ``used_threshold`` is the inclusive accuracy cut-off below which a model
    is considered to have contributed no usable output.
    """

    profiles: tuple[ModelProfile, ...]
    empty_cost: float = 1.0
    used_threshold: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "profiles", tuple(self.profiles))
        if not self.profiles:
            raise DomainError("a model set needs at least one profile")
        by_name: dict[str, ModelProfile] = {}
        for profile in self.profiles:
            if profile.model in by_name:
                raise DomainError(f"duplicate model name {profile.model!r}")
            by_name[profile.model] = profile
        _require_range("used_threshold", self.used_threshold, 0.0, 1.0)
        empty_cost = _require_finite("empty_cost", self.empty_cost)
        if empty_cost < 0.0:
            raise DomainError(f"empty_cost must be >= 0, got {empty_cost!r}")
        object.__setattr__(self, "_by_name", by_name)

    @property
    def members(self) -> Configuration:
        return frozenset(self._by_name)  # type: ignore[attr-defined]

    def profile(self, model: ModelId) -> ModelProfile:
        try:
            return self._by_name[model]  # type: ignore[attr-defined]
        except KeyError:
            raise InvalidConfigurationError(f"unknown model {model!r}") from None

    def with_profile(self, profile: ModelProfile) -> "ModelSet":
        """Copy of this set with one model's profile replaced."""
        if profile.model not in self._by_name:  # type: ignore[attr-defined]
            raise InvalidConfigurationError(f"unknown model {profile.model!r}")
        updated = tuple(
            profile if p.model == profile.model else p for p in self.profiles
        )
        return replace(self, profiles=updated)


@dataclass(frozen=True)
class RankedOutput:
    """One usable output, placed at a 1-based rank with weight ``1/rank``."""

    model: ModelId
    rank: int
    quality_norm: float
    accuracy: float

    @property
    def weight(self) -> float:
        return 1.0 / self.rank

    @property
    def penalty(self) -> float:
        return (1.0 - self.quality_norm) * (1.0 - self.accuracy)


def validate_configuration(model_set: ModelSet, config: Iterable[ModelId]) -> Configuration:
    """Normalise ``config`` to a frozenset and reject unknown models."""
    members = frozenset(config)
    unknown = members - model_set.members
    if unknown:
        raise InvalidConfigurationError(
            f"configuration references unknown models: {sorted(unknown)}"
        )
    return members


def used_subset(model_set: ModelSet, config: Iterable[ModelId]) -> Configuration:
    """Members of ``config`` that contributed a usable output.

    A model counts as used when its recorded accuracy is at or above the
    set's ``used_threshold`` (inclusive).
    """
    members = validate_configuration(model_set, config)
    threshold = model_set.used_threshold
    return frozenset(
        m for m in members if model_set.profile(m).accuracy >= threshold
    )


def rank_outputs(model_set: ModelSet, config: Iterable[ModelId]) -> tuple[RankedOutput, ...]:
    """Rank the usable outputs of ``config`` best-first.

    Order: quality descending, ties by accuracy descending, then model name
    ascending.  Ranks are 1..n with no gaps, so weights are exactly ``1/i``.
    """
    usable = used_subset(model_set, config)
    ordered = sorted(
        (model_set.profile(m) for m in usable),
        key=lambda p: (-p.quality, -p.accuracy, p.model),
    )
    return tuple(
        RankedOutput(model=p.model, rank=i, quality_norm=p.quality_norm, accuracy=p.accuracy)
        for i, p in enumerate(ordered, start=1)
    )


def penalty(quality_norm: float, accuracy: float) -> float:
    """Per-output penalty ``(1 - quality_norm) * (1 - accuracy)``.

    Zero for a perfect output; grows as either coordinate degrades.
    """
    q = _require_range("quality_norm", quality_norm, 0.0, 1.0)
    a = _require_range("accuracy", accuracy, 0.0, 1.0)
    return (1.0 - q) * (1.0 - a)


def cost(model_set: ModelSet, config: Iterable[ModelId]) -> float:
    """Rank-weighted total penalty of a configuration.

    The usable outputs are ranked best-first and the i-th ranked output
    contributes ``(1/i) * penalty``.  A configuration with no usable output
    costs ``model_set.empty_cost``.
    """
    ranked = rank_outputs(model_set, config)
    if not ranked:
        return model_set.empty_cost
    # Plain left-to-right accumulation, which mig.profile_cost_table repeats
    # bit for bit; the built-in sum() compensates rounding from Python 3.12 on.
    total = 0.0
    for r in ranked:
        total += r.weight * penalty(r.quality_norm, r.accuracy)
    return total


def benefit(model_set: ModelSet, x: Iterable[ModelId], y: Iterable[ModelId]) -> float:
    """Cost reduction from selecting ``x`` in addition to ``y``.

    Defined as ``cost(y) - cost(x | y)``; negative when adding ``x`` raises
    the total cost.  The intended contract is disjoint ``x`` and ``y``; the
    formula is computed regardless, and callers enforce disjointness.
    """
    xs = validate_configuration(model_set, x)
    ys = validate_configuration(model_set, y)
    return cost(model_set, ys) - cost(model_set, xs | ys)


def model_set_fingerprint(model_set: ModelSet) -> str:
    """Stable hex digest of the profiles and cost knobs, for cache validation."""
    payload = {
        "profiles": [
            [p.model, repr(p.quality), repr(p.accuracy)]
            for p in sorted(model_set.profiles, key=lambda p: p.model)
        ],
        "empty_cost": repr(model_set.empty_cost),
        "used_threshold": repr(model_set.used_threshold),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class AuditSection:
    """Outcome of one audited property."""

    name: str
    trials: int
    violations: int
    worst: float  # largest observed violation magnitude (or residual)
    note: str = ""

    @property
    def clean(self) -> bool:
        return self.violations == 0


@dataclass(frozen=True)
class PropertyAuditReport:
    """Aggregated result of the cost-function property audit."""

    seed: int
    monotonicity: AuditSection
    linearity: AuditSection
    submodularity: AuditSection

    @property
    def ok(self) -> bool:
        """True when the asserted sections (monotonicity, linearity) are clean.

        Submodularity is diagnostic only: rank re-weighting means the
        diminishing-returns inequality genuinely fails for some profiles, so
        its violation count is reported, never asserted.
        """
        return self.monotonicity.clean and self.linearity.clean


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
        mutated = replace(profile, quality=profile.quality + delta)
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
        mutated = replace(profile, accuracy=profile.accuracy + delta)

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
    return abs(total - sum(reversed(terms)))


def _submodularity_gap(rng: random.Random, model_set: ModelSet, names: list[str]) -> float:
    """rhs - lhs for one diminishing-returns probe (positive means violated)."""
    extra = rng.choice(names)
    rest = [m for m in names if m != extra]
    y = frozenset(rng.sample(rest, rng.randint(0, len(rest))))
    x = frozenset(m for m in y if rng.random() < 0.5)
    lhs = cost(model_set, x) - cost(model_set, x | {extra})
    rhs = cost(model_set, y) - cost(model_set, y | {extra})
    return rhs - lhs


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

    mono_violations = 0
    mono_worst = 0.0
    for _ in range(trials):
        increase = _monotonicity_probe(rng, model_set, names)
        if increase > _ABS_TOL:
            mono_violations += 1
            mono_worst = max(mono_worst, increase)

    lin_violations = 0
    lin_worst = 0.0
    for _ in range(trials):
        residual = _linearity_residual(rng, model_set, names)
        lin_worst = max(lin_worst, residual)
        if residual > _ABS_TOL:
            lin_violations += 1

    sub_violations = 0
    sub_worst = 0.0
    for _ in range(trials):
        gap = _submodularity_gap(rng, model_set, names)
        if gap > _ABS_TOL:
            sub_violations += 1
            sub_worst = max(sub_worst, gap)

    return PropertyAuditReport(
        seed=seed,
        monotonicity=AuditSection(
            name="monotonicity",
            trials=trials,
            violations=mono_violations,
            worst=mono_worst,
            note="rank- and usage-preserving raises of a single quality or accuracy",
        ),
        linearity=AuditSection(
            name="linearity",
            trials=trials,
            violations=lin_violations,
            worst=lin_worst,
            note="cost equals the sum of per-output terms recomputed independently",
        ),
        submodularity=AuditSection(
            name="submodularity",
            trials=trials,
            violations=sub_violations,
            worst=sub_worst,
            note="diagnostic only; rank re-weighting can break diminishing returns",
        ),
    )
