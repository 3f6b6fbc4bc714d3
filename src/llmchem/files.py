"""The one module that opens files: CSV and JSON in, CSV and JSON out, and the
SHA-256 of an input for its run's sidecar.

Inputs are UTF-8.  A CSV header must hold exactly the expected columns, in any
order, and each data row one field per column.  Blank lines are skipped,
before the header too; the header is row 1, and the records are numbered from
2 in order, however many lines each spans.  ``read_csv`` yields the records
``csv.reader`` reads: a line with no quote is one record, split at its commas,
and from a file's first line that holds a quote on, ``csv.reader`` reads the
rest.  Undecodable bytes, malformed CSV or JSON, a bad header and a short or
long row raise ``ParseError`` naming the file (and the row and field), so
callers only check values.  So does a record holding NUL, with its row, on
every interpreter (CPython 3.10's ``csv`` rejects NUL, later ones read it).
``read_name_lists`` checks the pool and ensemble files' shared schema.  Every
numeric CSV field is read by ``parse_float``: text that is not a number, and
NaN, an infinity or a value outside the field's bounds, raise ``ParseError``
with the row and field.  Each output is written to a temporary file beside
its target and moved over it with ``os.replace``, so a failed write leaves the
previous file and no partial one.  A CSV float is written as its ``repr``;
JSON is indented, key-sorted at every level, strict (no NaN or infinity) and
ends in a newline, so equal payloads give equal bytes and callers neither
format floats nor sort keys.
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
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence, TextIO

from .errors import ParseError


def read_csv(path: str | Path, columns: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(row_number, fields)`` per data record, ``fields`` in ``columns`` order."""
    number = 0  # the row of the last record read
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            records = _records(handle)
            # Blank lines before the header are skipped; an empty file has no columns.
            header = next(filter(None, records), [])
            number = 1
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
            for fields in records:
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
    except _NulByte:
        raise ParseError(
            "unreadable CSV: record contains NUL", path=path, row=number + 1
        ) from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"unreadable CSV: {exc}", path=path) from None


class _NulByte(Exception):
    """A line holds NUL, which no CSV input may."""


def _records(handle: TextIO) -> Iterator[list[str]]:
    """The records ``csv.reader(handle)`` yields, for a file opened with ``newline=""``.

    Its lines end only at ``\\r``, ``\\n`` and ``\\r\\n``, where ``csv.reader``
    ends a record that holds no quote.  So a line with no quote, no NUL and no
    more characters than a field may hold is one record: the line without
    its break, split at its commas (a blank line is ``[]``).  From the first
    other line on, one ``csv.reader`` reads the rest, in batches of lines of
    about 64 KiB, and reading a line that holds NUL raises ``_NulByte``.
    """
    limit = csv.field_size_limit()
    for line in handle:
        if '"' in line or "\0" in line or len(line) > limit:
            batches = chain(([line],), iter(partial(handle.readlines, 1 << 16), []))
            yield from csv.reader(chain.from_iterable(map(_nul_free, batches)))
            return
        line = line.rstrip("\r\n")
        yield line.split(",") if line else []


def _nul_free(lines: list[str]) -> Iterable[str]:
    """``lines``, except that reading the first that holds NUL raises ``_NulByte``."""
    if "\0" not in "".join(lines):  # one scan per batch, not a call per line
        return lines
    first = next(i for i, line in enumerate(lines) if "\0" in line)
    return chain(lines[:first], _nul_line())


def _nul_line() -> Iterator[str]:
    raise _NulByte
    yield  # a generator, so that it raises only when the line is read


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


def write_csv_text(path: str | Path, header: Sequence[str], chunks: Iterable[str]) -> None:
    """Replace ``path`` with the header and the chunks, CSV text its caller formatted.

    Each chunk holds whole LF-terminated records whose fields need no quoting,
    so the bytes are ``write_csv``'s for the same rows.
    """
    with _replacing(path, newline="") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(chunks)


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
