"""Ingestion and persistence of benchmark-run performance histories.

A history CSV carries one row per (trial, model, task) execution with the
recorded quality, accuracy and metadata columns.  Parsing is strict and
streamed: ``iter_history_rows`` validates each row as it reads it and yields
it as a plain tuple in ``HISTORY_COLUMNS`` order, so the first bad row raises
a located error; ``parse_history_csv`` lists the same stream as
``HistoryRecord``s.  ``build_profiles`` and
``complementarity.task_accuracies`` read each row by position, so they accept
any row tuple in ``HISTORY_COLUMNS`` order, a record included, and keep only
the fields they read; the CLI feeds them the plain rows and writes nothing
before the last row has passed.  Validated rows collapse into per-context
profile stores (one (quality, accuracy) profile per model) that feed the rest
of the pipeline.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from typing import Iterable, Iterator, Literal, NamedTuple

from .core import ModelProfile, ModelSet, Record
from .errors import DomainError, ParseError, StoreVersionError, warn
from .files import parse_float, read_csv, read_json, write_csv, write_json

STORE_VERSION = 1

Grouping = Literal["trial", "task", "all"]
Aggregate = Literal["mean", "median"]


class HistoryRecord(NamedTuple):
    """One history CSV row, a field per column in column order; elapsed/created stay strings."""

    trial: str
    model: str
    task: str
    latency: float
    temperature: float
    id: str
    result: str
    quality: float
    gen_accuracy: float
    variance: float
    review_accuracy: float
    accuracy: float
    elapsed: str
    created: str


#: Exact history CSV columns, in canonical order: the record's fields.
HISTORY_COLUMNS = HistoryRecord._fields

_NUMERIC_RANGES: dict[str, tuple[float, float]] = {
    "latency": (0.0, math.inf),
    "temperature": (-math.inf, math.inf),
    "quality": (0.0, 10.0),
    "gen_accuracy": (0.0, 1.0),
    "variance": (0.0, math.inf),
    "review_accuracy": (0.0, 1.0),
    "accuracy": (0.0, 1.0),
}


#: Positions of the numeric columns in a row, in ``_NUMERIC_RANGES`` order.
_NUMERIC_INDEX = tuple(HISTORY_COLUMNS.index(column) for column in _NUMERIC_RANGES)

#: The columns a row may not leave empty, in column order, with their errors.
_IDENTIFIERS = {
    "trial": "trial name is empty",
    "model": "model name is empty",
    "task": "task text is empty",
    "id": "output id is empty",
}

#: Positions of the identifier columns in a row, in ``_IDENTIFIERS`` order.
_IDENTIFIER_INDEX = tuple(HISTORY_COLUMNS.index(column) for column in _IDENTIFIERS)


def iter_history_rows(*paths: str | Path) -> Iterator[tuple]:
    """Yield the validated rows of history CSVs, read as one history, in order.

    Each row is a plain tuple in ``HISTORY_COLUMNS`` order, with the numeric
    columns as floats.  Each row is checked as it is read, so a caller that
    consumes the rows one by one holds no more of the history than it keeps
    itself, and reaches a bad row's ``ParseError`` before it returns.  The
    trial, model, task and id must not be empty; the first empty one in
    column order is the error.  A ``(trial, model, id)`` key may appear once
    in all the files; a repeat in a later file also names the file that held
    the key first.  The keys are indexed by name: trial, then model, then a
    dict mapping each of that pair's ids to the index of the file in
    ``paths`` that first held it.  Each trial, model and id string is kept
    once, and the rows share those copies, so the index costs one entry of
    its pair's id dict per row (20 to 26 B on CPython 3.11) and no tuple per
    row.  A row's seven numeric fields are converted with ``float``
    and range-checked in one comparison against the bounds of
    ``_NUMERIC_RANGES``, with an infinite bound replaced by the largest finite
    float, so that NaN and infinity fail too.  Only a row that fails goes
    through ``files.parse_float`` column by column, which raises the row's
    first error.
    """
    top = sys.float_info.max
    seen: dict[str, dict[str, dict[str, int]]] = {}  # trial -> model -> id -> file index
    names: dict[str, str] = {}  # one kept copy of each trial, model and id string
    keep = names.setdefault
    for at, path in enumerate(paths):
        for number, row in read_csv(path, HISTORY_COLUMNS):
            (trial, model, task, latency, temperature, id_, result, quality, gen_accuracy,
             variance, review_accuracy, accuracy, elapsed, created) = row
            if not (trial and model and task and id_):
                field = next(c for c, i in zip(_IDENTIFIERS, _IDENTIFIER_INDEX) if not row[i])
                raise ParseError(_IDENTIFIERS[field], path=path, row=number, field=field)
            try:
                latency = float(latency)
                temperature = float(temperature)
                quality = float(quality)
                gen_accuracy = float(gen_accuracy)
                variance = float(variance)
                review_accuracy = float(review_accuracy)
                accuracy = float(accuracy)
            except ValueError:
                valid = False
            else:  # the bounds of _NUMERIC_RANGES
                valid = (0.0 <= latency <= top and -top <= temperature <= top
                         and 0.0 <= quality <= 10.0 and 0.0 <= gen_accuracy <= 1.0
                         and 0.0 <= variance <= top and 0.0 <= review_accuracy <= 1.0
                         and 0.0 <= accuracy <= 1.0)
            if not valid:
                for column, index in zip(_NUMERIC_RANGES, _NUMERIC_INDEX):
                    parse_float(row[index], *_NUMERIC_RANGES[column],
                                path=path, row=number, field=column)
            trial, model, id_ = keep(trial, trial), keep(model, model), keep(id_, id_)
            models = seen.get(trial)
            if models is None:
                models = seen[trial] = {}
            ids = models.get(model)
            if ids is None:
                ids = models[model] = {}
            if id_ in ids:
                first, key = ids[id_], (trial, model, id_)
                where = "" if first == at else f", first read from {paths[first]}"
                raise ParseError(f"duplicate (trial, model, id) key {key!r}{where}",
                                 path=path, row=number, field="id")
            ids[id_] = at
            yield (trial, model, task, latency, temperature, id_, result, quality,
                   gen_accuracy, variance, review_accuracy, accuracy, elapsed, created)


def parse_history_csv(*paths: str | Path) -> list[HistoryRecord]:
    """Every row of ``iter_history_rows(*paths)`` as a record, or its first error."""
    return list(map(HistoryRecord._make, iter_history_rows(*paths)))


def write_history_csv(records: Iterable[HistoryRecord], path: str | Path) -> None:
    """Write records in canonical form: fixed column order, shortest float reprs."""
    write_csv(path, HISTORY_COLUMNS, records)


class ProfileStore(Record):
    """Aggregated per-model profiles for one query context."""

    context_key: str
    profiles: dict[str, ModelProfile]  # model name -> profile
    provenance: dict  # sources, per-model record counts, aggregation

    def to_model_set(
        self,
        empty_cost: float = ModelSet.empty_cost,
        used_threshold: float = ModelSet.used_threshold,
    ) -> ModelSet:
        ordered = tuple(self.profiles[name] for name in sorted(self.profiles))
        return ModelSet(
            profiles=ordered, empty_cost=empty_cost, used_threshold=used_threshold
        )


def _mean(values: list[float]) -> float:
    """``statistics.fmean`` of a non-empty list: it computes exactly this."""
    return math.fsum(values) / len(values)


def _median(values: list[float]) -> float:
    """``statistics.median`` of a non-empty list: it computes exactly this."""
    ordered = sorted(values)
    half = len(ordered) // 2
    return ordered[half] if len(ordered) % 2 else (ordered[half - 1] + ordered[half]) / 2


def build_profiles(
    records: Iterable[tuple],
    grouping: Grouping = "all",
    *,
    aggregate: Aggregate = "mean",
    sources: Iterable[str] = (),
) -> list[ProfileStore]:
    """Collapse history rows into one profile store per group.

    ``records`` holds row tuples in ``HISTORY_COLUMNS`` order, read by
    position: the plain rows of ``iter_history_rows`` or ``HistoryRecord``s.
    Groups are keyed by trial name, task text, or a single shared key.  Per
    model and group, quality and accuracy aggregate by arithmetic mean (or
    median behind the flag); record counts land in the provenance so the raw
    rows stay re-aggregatable.  Output order is deterministic (sorted keys).
    Only each row's quality and accuracy are kept, so ``records`` may be a
    stream that is never held whole.  No records give no stores.
    """
    if grouping not in ("trial", "task", "all"):
        raise DomainError(f"unknown grouping {grouping!r}")
    if aggregate not in ("mean", "median"):
        raise DomainError(f"unknown aggregate {aggregate!r}")
    at = {"trial": 0, "task": 2, "all": None}[grouping]  # the key's position in a row
    reduce = _mean if aggregate == "mean" else _median

    # context -> model -> (qualities, accuracies), each in record order
    grouped: dict[str, dict[str, tuple[list[float], list[float]]]] = {}
    for row in records:
        context = "all" if at is None else row[at]
        models = grouped.get(context)
        if models is None:
            models = grouped[context] = {}
        model = row[1]
        values = models.get(model)
        if values is None:
            values = models[model] = ([], [])
        values[0].append(row[7])  # quality
        values[1].append(row[11])  # accuracy

    stores: list[ProfileStore] = []
    for context in sorted(grouped):
        models = grouped[context]
        profiles: dict[str, ModelProfile] = {}
        counts: dict[str, int] = {}
        for model in sorted(models):
            qualities, accuracies = models[model]
            profiles[model] = ModelProfile(
                model=model, quality=reduce(qualities), accuracy=reduce(accuracies)
            )
            counts[model] = len(qualities)
        stores.append(
            ProfileStore(
                context_key=context,
                profiles=profiles,
                provenance={
                    "sources": sorted(str(s) for s in sources),
                    "record_counts": counts,
                    "aggregate": aggregate,
                    "grouping": grouping,
                },
            )
        )
    return stores


def _store_to_obj(store: ProfileStore) -> dict:
    return {
        "context_key": store.context_key,
        "profiles": [
            {
                "model": name,
                "quality": store.profiles[name].quality,
                "accuracy": store.profiles[name].accuracy,
            }
            for name in sorted(store.profiles)
        ],
        "provenance": store.provenance,
    }


def _store_from_obj(obj: dict, path: str | Path) -> ProfileStore:
    try:
        stray = sorted(set(obj) - {"context_key", "profiles", "provenance"})
        entries = obj["profiles"]
        if not isinstance(entries, list) or not entries:
            raise TypeError("'profiles' must be a non-empty list")
        context = obj["context_key"]
        if not isinstance(context, str):
            raise TypeError(f"context_key {context!r} is not a string")
        profiles: dict[str, ModelProfile] = {}
        for entry in entries:
            model = entry["model"]
            if not isinstance(model, str):
                raise TypeError(f"model name {model!r} is not a string")
            if model in profiles:
                raise ValueError(f"model {model!r} is listed twice")
            for field in ("quality", "accuracy"):
                value = entry[field]
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise TypeError(f"{field} {value!r} of model {model!r} is not a number")
            profiles[model] = ModelProfile(
                model=model,
                quality=float(entry["quality"]),
                accuracy=float(entry["accuracy"]),
            )
        store = ProfileStore(
            context_key=context,
            profiles=profiles,
            provenance=dict(obj.get("provenance", {})),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # DomainError is a ValueError
        raise ParseError(f"invalid profile-store payload: {exc}", path=path) from None
    if stray:
        warn(__name__, f"ignoring unknown profile-store keys: {stray}")
    return store


def write_profiles(stores: Iterable[ProfileStore], path: str | Path) -> None:
    """Persist stores as versioned JSON (full double precision round-trip)."""
    payload = {
        "version": STORE_VERSION,
        "stores": [_store_to_obj(store) for store in stores],
    }
    write_json(path, payload)


def read_profiles(path: str | Path) -> list[ProfileStore]:
    """Load stores from JSON; unknown keys warn, truncated files fail whole.

    Each store must name each model once, and no two stores may share a context.
    """
    payload = read_json(path)
    if not isinstance(payload, dict) or "version" not in payload:
        raise ParseError("not a profile-store file", path=path)
    if payload["version"] != STORE_VERSION:
        raise StoreVersionError(
            f"unsupported store version {payload['version']!r} in {path} (expected {STORE_VERSION})"
        )
    stray = sorted(set(payload) - {"version", "stores"})
    if stray:
        warn(__name__, f"ignoring unknown top-level keys: {stray}")
    stores_obj = payload.get("stores")
    if not isinstance(stores_obj, list) or not stores_obj:
        raise ParseError("lacks a non-empty 'stores' list", path=path)
    stores = [_store_from_obj(obj, path) for obj in stores_obj]
    contexts: set[str] = set()
    for store in stores:
        if store.context_key in contexts:
            raise ParseError(f"context {store.context_key!r} has more than one store", path=path)
        contexts.add(store.context_key)
    return stores
