"""The one module that opens files: CSV and JSON in, CSV and JSON out, and the
SHA-256 of an input for its run's sidecar.

Inputs are UTF-8.  A CSV header must hold exactly the expected columns, in any
order, and each data row one field per column.  The header is the first row
and row 1; blank lines are skipped, and the records are numbered from 2 in
order, however many lines each spans.  Undecodable bytes, malformed CSV or
JSON, a bad header and a short or long row raise ``ParseError`` naming the
file (and the row and field), so callers only check values; ``read_name_lists``
checks the pool and ensemble files' shared schema.  Every numeric CSV field is
read by ``parse_float``: text that is not a number, and NaN, an infinity or a
value outside the field's bounds, raise ``ParseError`` with the row and field.
Each output is written to a temporary file beside its target and moved over
it with ``os.replace``, so a failed write leaves the previous file and no
partial one.  A CSV float is written as its ``repr``; JSON is indented,
key-sorted at every level, strict (no NaN or infinity) and ends in a newline,
so equal payloads give equal bytes and callers neither format floats nor sort
keys.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from collections import Counter
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from .errors import ParseError


def read_csv(path: str | Path, columns: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(row_number, fields)`` per data record, ``fields`` in ``columns`` order."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, [])  # an empty file has no columns
            missing = sorted((Counter(columns) - Counter(header)).elements())
            stray = sorted((Counter(header) - Counter(columns)).elements())
            if missing or stray:
                raise ParseError(
                    f"unexpected header: missing columns {missing}, stray columns {stray}",
                    path=path,
                )
            width = len(header)
            order = [header.index(column) for column in columns]
            in_order = order == list(range(width))
            number = 1
            for fields in reader:
                if not fields:  # a blank line
                    continue
                number += 1
                if len(fields) != width:
                    if len(fields) > width:
                        raise ParseError(
                            "row has more fields than the header", path=path, row=number
                        )
                    raise ParseError(
                        "row has fewer fields than the header",
                        path=path, row=number, field=header[len(fields)],
                    )
                yield number, fields if in_order else [fields[i] for i in order]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"unreadable CSV: {exc}", path=path) from None


def parse_float(raw: str, low: float, high: float, *,
                path: str | Path, row: int, field: str) -> float:
    """The number in a CSV field, finite and in ``[low, high]``."""
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(
            f"{field} is not a number: {raw!r}", path=path, row=row, field=field
        ) from None
    if not (math.isfinite(value) and low <= value <= high):
        raise ParseError(f"{field} out of range: {value!r}", path=path, row=row, field=field)
    return value


def read_json(path: str | Path) -> Any:
    """The decoded JSON value of a UTF-8 file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ParseError(f"invalid JSON: {exc}", path=path) from None


def read_name_lists(path: str | Path, key: str) -> list[list[str]]:
    """The non-empty list of non-empty lists of model names under ``key`` in a JSON object."""
    payload = read_json(path)
    lists = payload.get(key) if isinstance(payload, dict) else None
    if not isinstance(lists, list) or not lists or not all(
        isinstance(names, list) and names and all(isinstance(name, str) for name in names)
        for names in lists
    ):
        raise ParseError(
            f"{key!r} must be a non-empty list of non-empty lists of model names", path=path
        )
    return lists


def sha256_of(path: str | Path) -> str:
    """The SHA-256 hex digest of a file's bytes, read in 64 KiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(partial(handle.read, 1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Replace ``path`` with the header and rows as LF-terminated CSV, a float as its ``repr``."""
    with _replacing(path, newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str | Path, payload: Any) -> None:
    """Replace ``path`` with ``payload`` as indented, key-sorted JSON plus a newline."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with _replacing(path) as handle:
        handle.write(text + "\n")


@contextmanager
def _replacing(path: str | Path, newline: str | None = None) -> Iterator:
    target = Path(path)
    temp = target.with_name(target.name + ".tmp")
    try:
        with open(temp, "w", encoding="utf-8", newline=newline) as handle:
            yield handle
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
