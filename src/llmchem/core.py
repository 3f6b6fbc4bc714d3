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
from typing import TYPE_CHECKING, Any, Callable, Iterable

from .errors import DomainError, InvalidConfigurationError, SizeLimitError

if TYPE_CHECKING:  # mig imports core
    from .mig import CostBackend

ModelId = str
Configuration = frozenset[str]

#: Ceiling on |S| for graph construction and the profile cost table (2^|S| entries).
BUILD_SIZE_GUARD = 20


def subset_key(subset: Iterable[str]) -> str:
    """Canonical string key for a subset: sorted names joined by commas."""
    return ",".join(sorted(subset))


def check_build_size(members: Configuration, what: str) -> None:
    """Reject a member set too large for ``what``, a graph or a cost table over its subsets."""
    if not 1 <= len(members) <= BUILD_SIZE_GUARD:
        raise SizeLimitError(f"{what} supports 1..{BUILD_SIZE_GUARD} models, got {len(members)}")


def left_sum(values: Iterable[float]) -> float:
    """Add ``values`` one by one, left to right, starting from 0.0.

    Every float sum in the package goes through this loop, so a result has the
    same bytes on every interpreter: the built-in ``sum()`` compensates
    rounding from Python 3.12 on, and up to 3.11 it is this loop.
    """
    total = 0.0
    for value in values:
        total += value
    return total


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


class _Factory:
    """A field default made afresh per instance; see :func:`field`."""

    def __init__(self, make: Callable[[], Any], compare: bool) -> None:
        self.make, self.compare = make, compare


def field(*, default_factory: Callable[[], Any], compare: bool = True) -> Any:
    """A :class:`Record` field whose default is ``default_factory()`` per instance.

    ``compare=False`` leaves the field out of ``==`` and ``hash``.
    """
    return _Factory(default_factory, compare)


class Record:
    """Base of the package's frozen records; it generates no code.

    A subclass declares its fields as annotations, in order, each default as
    a class attribute (or :func:`field`).  Construction binds arguments by
    position and keyword, sets the fields, then runs ``__post_init__``.
    Assigning or deleting an attribute raises ``AttributeError``; ``==`` and
    ``hash`` go over the compared fields in order, and only between instances
    of one class; ``repr`` is ``Name(field=value, ...)``.
    """

    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()
    _defaults: dict[str, Any] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        annotated = tuple(own.get("__annotations__", ()))
        cls._fields += tuple(n for n in annotated if n not in cls._fields)  # a base's first
        cls._defaults = {**cls._defaults, **{n: own[n] for n in annotated if n in own}}
        for name in annotated:
            if isinstance(own.get(name), _Factory):
                delattr(cls, name)
        cls._compared = tuple(
            n for n in cls._fields
            if not isinstance(d := cls._defaults.get(n), _Factory) or d.compare
        )

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        name = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError(f"{name}() takes {len(self._fields)} arguments, got {len(args)}")
        values = dict(zip(self._fields, args))
        for key, value in kwargs.items():
            if key not in self._fields or key in values:
                raise TypeError(f"{name}() got an unexpected or repeated argument {key!r}")
            values[key] = value
        for key in self._fields:
            if key not in values:
                if key not in self._defaults:
                    raise TypeError(f"{name}() missing argument {key!r}")
                default = self._defaults[key]
                values[key] = default.make() if isinstance(default, _Factory) else default
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._compared)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes: Any) -> Any:
        """A new instance with ``changes`` applied, constructed (so validated) again."""
        return type(self)(**{**{n: self.__dict__[n] for n in self._fields}, **changes})


class ModelProfile(Record):
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


def check_cost_knobs(empty_cost: float, used_threshold: float) -> None:
    """Reject the cost knobs of a :class:`ModelSet` outside their domains."""
    _require_range("used_threshold", used_threshold, 0.0, 1.0)
    empty_cost = _require_finite("empty_cost", empty_cost)
    if empty_cost < 0.0:
        raise DomainError(f"empty_cost must be >= 0, got {empty_cost!r}")


class ModelSet(Record):
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
        check_cost_knobs(self.empty_cost, self.used_threshold)
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
        return self.replace(profiles=updated)

    def cost(self, config: Iterable[ModelId]) -> float:
        """:func:`cost` of ``config`` in this set."""
        return cost(self, config)

    def used(self, config: Iterable[ModelId]) -> Configuration:
        """:func:`used_subset` of ``config`` in this set."""
        return used_subset(self, config)


def validate_configuration(source: CostBackend, config: Iterable[ModelId]) -> Configuration:
    """Normalise ``config`` to a frozenset and reject models not in ``source``."""
    members = frozenset(config)
    unknown = members - source.members
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


def rank_outputs(model_set: ModelSet, config: Iterable[ModelId]) -> list[ModelProfile]:
    """The profiles of ``config``'s usable outputs, best-first.

    Order: quality descending, ties by accuracy descending, then model name
    ascending.  The i-th profile (from 1) is the output that weighs ``1/i``.
    """
    usable = used_subset(model_set, config)
    return sorted(
        (model_set.profile(m) for m in usable),
        key=lambda p: (-p.quality, -p.accuracy, p.model),
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
    # left_sum's loop, inlined: the exhaustive enumerator calls cost() millions
    # of times.  chemistry.profile_cost_table repeats this accumulation bit for bit.
    total = 0.0
    for rank, p in enumerate(ranked, start=1):
        total += (1.0 / rank) * penalty(p.quality_norm, p.accuracy)
    return total


def benefit(backend: CostBackend, x: Iterable[ModelId], y: Iterable[ModelId]) -> float:
    """Cost reduction from selecting ``x`` in addition to ``y``, on any cost backend.

    Defined as ``cost(y) - cost(x | y)``; negative when adding ``x`` raises
    the total cost.  The intended contract is disjoint ``x`` and ``y``; the
    formula is computed regardless, and callers enforce disjointness.
    """
    xs = validate_configuration(backend, x)
    ys = validate_configuration(backend, y)
    return backend.cost(ys) - backend.cost(xs | ys)


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
