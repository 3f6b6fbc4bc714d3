"""The list-row CSV reader and the history parser equal the code they replaced.

The references in ``tests/helpers.py`` are verbatim copies of ``read_csv`` on
``csv.DictReader`` and of the history parser that checked each numeric field
on its own and built frozen-dataclass records.  On every generated file the
current code must yield the same rows and records, field by field, or raise a
``ParseError`` with the same message, row and field after the same rows.
The one rule added since is that a record holding NUL is an error on every
interpreter (CPython 3.10's ``csv`` rejected it, later ones read it), so the
expected outcome of a file with NUL is the references' on the file with each
NUL read as an ordinary character, cut at that record (``_nul_first``).
The plain row tuples of ``iter_history_rows`` must equal the reference's
records position by position, and the consumers must give the same results
on them as on ``parse_history_csv``'s records.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
from functools import partial
from itertools import chain

import pytest
from helpers import reference_parse_history_csv, reference_read_csv
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llmchem import history
from llmchem.complementarity import task_accuracies
from llmchem.errors import ParseError
from llmchem.files import read_csv
from llmchem.history import (
    _IDENTIFIER_INDEX,
    _NUMERIC_INDEX,
    _NUMERIC_RANGES,
    HISTORY_COLUMNS,
    HistoryRecord,
    build_profiles,
    iter_history_rows,
    parse_history_csv,
)

COLUMNS = ("a", "b", "c")

#: Field text: separators, quotes, line breaks (quoted fields that span
#: lines), NUL and a non-ASCII letter.
TEXT = st.text(st.sampled_from('ab1., "\n\r\x00é'), max_size=5)

#: Numeric field text the history parser must treat exactly as before.
NUMBER_TEXT = st.one_of(
    st.sampled_from(
        ["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "-0.0", "1_0", " 2.0 ", "", "abc",
         "0", "1", "10", "10.000001", "-1", "1.5", "11", "0x10", "١", "1e-400"]
    ),
    st.floats().map(repr),
)

#: Valid text per numeric column, drawn inside its range.
VALID_NUMBER = {
    "latency": st.floats(0.0, 1e3),
    "temperature": st.floats(-2.0, 2.0),
    "quality": st.floats(0.0, 10.0),
    "gen_accuracy": st.floats(0.0, 1.0),
    "variance": st.floats(0.0, 1e3),
    "review_accuracy": st.floats(0.0, 1.0),
    "accuracy": st.floats(0.0, 1.0),
}


def _beyond(bound: float, away: float) -> str:
    """The spelling of the first number past ``bound`` towards ``away``, an infinity."""
    if math.isfinite(bound):
        return repr(math.nextafter(bound, away))
    return "1.8e308" if away > 0 else "-1.8e308"  # overflows to infinity


#: Per numeric column, the spellings just outside its ``_NUMERIC_RANGES``
#: bounds: -5e-324 below 0, 10.000000000000002 above quality's 10,
#: 1.0000000000000002 above 1 and ±1.8e308 past an infinite bound.
OUTSIDE_NUMBER = {
    column: [_beyond(low, -math.inf), _beyond(high, math.inf)]
    for column, (low, high) in _NUMERIC_RANGES.items()
}

BAD_BYTES = st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"])


def _outcome(rows):
    """What a caller sees: the rows yielded before any error, then the error's location."""
    seen = []
    try:
        for item in rows:
            seen.append(item)
    except ParseError as exc:
        return seen, (str(exc), exc.row, exc.field)
    return seen, None


def _line(fields, terminator: str) -> str:
    out = io.StringIO(newline="")
    csv.writer(out, lineterminator=terminator).writerow(fields)
    return out.getvalue()


@st.composite
def _encode(draw, rows: list[list[str]], faults: bool = True) -> bytes:
    """CSV bytes of ``rows`` with blank lines drawn before any row and maybe one bad byte.

    Without ``faults``, no blank line precedes the header, no byte is bad, and
    lines end in CR LF, so that ``csv.writer`` quotes a field's bare CR too.
    """
    terminator = draw(st.sampled_from(["\n", "\r\n"])) if faults else "\r\n"
    blanks = st.sampled_from([0, 0, 0, 0, 1, 2])
    text = "".join(terminator * (draw(blanks) if faults or at else 0) + _line(row, terminator)
                   for at, row in enumerate(rows))
    data = text.encode("utf-8")
    if faults and draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(BAD_BYTES) + data[at:]
    return data


@st.composite
def csv_files(draw) -> bytes:
    """A three-column file: any header order, maybe a bad header, short and long rows."""
    header = list(draw(st.permutations(COLUMNS)))
    fault = draw(st.sampled_from([None] * 6 + ["missing", "stray", "duplicate", "empty"]))
    if fault == "missing":
        header.pop()
    elif fault == "stray":
        header.append("d")
    elif fault == "duplicate":
        header[-1] = header[0]
    elif fault == "empty":
        header = []
    widths = st.sampled_from([3] * 8 + [0, 1, 2, 4])
    records = [draw(st.lists(TEXT, min_size=w, max_size=w))
               for w in draw(st.lists(widths, max_size=6))]
    return draw(_encode([header] + records))


def _write(workdir, data: bytes):
    path = workdir / "in.csv"
    path.write_bytes(data)
    return path


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("equivalence")


#: What ``read_csv`` raises, with the record's row, at a record holding NUL.
NUL_MESSAGE = "unreadable CSV: record contains NUL"


def _nul_row(data: bytes) -> int | None:
    """The row of the first record holding NUL that a reader reaches, or None.

    A file this small is decoded in one read, so a byte that does not decode
    (other than an incomplete sequence at the very end) stops the reader
    before its first record.  Otherwise the records are those ``csv.reader``
    reads with NUL as an ordinary character, numbered as ``read_csv`` numbers
    them: blank lines are skipped, and the first other record is the header, row 1.
    """
    assert len(data) < 8192  # io.TextIOWrapper's read size
    try:
        codecs.getincrementaldecoder("utf-8")().decode(data)
    except UnicodeDecodeError:
        return None
    text = data.decode("utf-8", "replace").replace("\0", "\1")
    records = csv.reader(io.StringIO(text, newline=""))
    header = next(filter(None, records), [])
    rows = chain([(1, header)], enumerate(filter(None, records), start=2))
    return next((row for row, fields in rows if "\1" in "".join(fields)), None)


def _nul_first(path, outcome, streamed: bool = False):
    """``outcome(path)``, a ``(seen, error)`` pair, under the NUL rule.

    Without NUL it is ``outcome(path)``.  Otherwise ``outcome`` runs on the
    file with each NUL read as U+0001, and an error before the first NUL
    record stands: one at an earlier row, or a bad header when the NUL is
    past row 1.  Any other error comes later (at that record or after it, or
    a byte that does not decode at the end of the file), so the NUL error at
    that record's row takes its place.  ``seen`` then keeps the rows before
    that record when ``streamed`` (``_outcome``'s numbered rows), and is None
    otherwise (``_parse``, whose records come only from a whole file).
    """
    data = path.read_bytes()
    row = _nul_row(data)
    if row is None:
        return outcome(path)
    path.write_bytes(data.replace(b"\0", b"\1"))
    try:
        seen, error = outcome(path)
    finally:
        path.write_bytes(data)
    if error is not None and (
        error[1] < row if error[1] is not None else row > 1 and "unexpected header" in error[0]
    ):
        return seen, error
    nul = ParseError(NUL_MESSAGE, path=path, row=row)
    return [item for item in seen if item[0] < row] if streamed else None, (str(nul), row, None)


def _reference_rows(path):
    rows = reference_read_csv(path, COLUMNS)
    return _outcome((n, [row[c] for c in COLUMNS]) for n, row in rows)


def _assert_same_rows(path) -> None:
    assert _outcome(read_csv(path, COLUMNS)) == _nul_first(path, _reference_rows, streamed=True)


@settings(max_examples=400, deadline=None)
@given(data=csv_files())
@example(data=b"c,a,b\n3,1,2\n")
@example(data=b"\na,b,c\n1,2,3\n")  # a blank line before the header: one record, row 2
@example(data=b"a,b,c\n\n1,2,3\n\r\n\n4,5,6\n")
@example(data=b'a,b,c\n"x\ny",2,3\n1,2\n')
@example(data=b"a,b,c\n1,2,3\n1,2,3,4\n")
@example(data=b"a,b,c\n1,2,\xff\n")
@example(data=b"a,b,c\n1,2,3\n4,5,6\n7,8,9\n")  # quote-free: no hand-over
# A quoted record after plain ones, then one that spans lines: the rows count on.
@example(data=b'a,b,c\n1,2,3\n4,5,6\n"x",8,9\n"y\nz",2,3\n4,5\n')
@example(data=b'a,b,c\r\n1,2,3\r4,5,6\r\n"x\ry",2,3\r7,8,9\r\n')  # CR LF and lone CR
@example(data=b'a,b,c\n1,2,3\n\n"x",2,3\n\n4,5,6\n')  # blank lines either side of it
@example(data=b'a,b,c\n1,2,3\n"x\ny\0",2,3\n')  # NUL in a record that spans lines
@example(data=b"a,b,c\n1,2,3\n\n4\0,5\n")  # NUL before a short row's error
def test_read_csv_yields_the_dict_readers_rows(workdir, data):
    _assert_same_rows(_write(workdir, data))


@settings(max_examples=300, deadline=None)
@given(text=st.text(st.sampled_from('abc,\n\r" \x00'), max_size=40), header=st.booleans())
def test_read_csv_equals_on_raw_text(workdir, text, header):
    _assert_same_rows(_write(workdir, (("a,b,c\n" if header else "") + text).encode("utf-8")))


#: Every identifier column of a history row.
IDENTIFIERS = ("trial", "model", "task", "id")

#: A history header in ``HISTORY_COLUMNS`` order, and a valid row under it.
HEADER_LINE = ",".join(HISTORY_COLUMNS).encode() + b"\n"
ROW_LINE = b"t,m,q,1,0,o,r,5,1,0,1,1,e,c\n"

#: Row faults that ``history_files`` draws from; a numeric field is the likeliest.
ROW_FAULTS = ("empty", "number", "number", "number", "duplicate", "short", "long")


@st.composite
def history_files(draw, identifiers: tuple[str, ...] = ("model",), faults: bool = True,
                  row_faults: tuple[str, ...] = ROW_FAULTS, min_faults: int = 0) -> bytes:
    """A history file with faults from the parser's every branch mixed into valid rows.

    Row faults, at least ``min_faults`` (then the file has a row) and each in
    a drawn row, come from ``row_faults``: an empty field among
    ``identifiers``, a numeric field from ``NUMBER_TEXT`` (not a number,
    non-finite, out of range, or odd but valid spellings) or just outside
    its column's bounds (``OUTSIDE_NUMBER``), a repeated
    ``(trial, model, id)`` key, a short or a long row; several may land in one
    row.  The header order and multi-line fields vary, and with ``faults``
    so do blank lines and a bad byte (see ``_encode``).  A task is empty only
    as a fault when it is among ``identifiers``.  Without ``faults`` and
    ``row_faults``, the file is valid.
    """
    rows = []
    for i in range(draw(st.integers(min(min_faults, 1), 6))):
        row = {
            "trial": draw(st.sampled_from(["t0", "t1"])),
            "model": draw(st.sampled_from(["m0", "m1"])),
            "task": draw(TEXT.filter(bool) if "task" in identifiers else TEXT),
            "id": f"o{i}",
            "result": draw(TEXT),
            "elapsed": draw(TEXT),
            "created": "2025-06-01 12:00:00",
        }
        row.update({column: repr(draw(valid)) for column, valid in VALID_NUMBER.items()})
        rows.append(row)
    lengths = {}
    kinds = st.lists(st.sampled_from(row_faults), min_size=min_faults, max_size=3)
    for kind in draw(kinds) if rows and row_faults else ():
        at = draw(st.integers(0, len(rows) - 1))
        row = rows[at]
        if kind == "empty":
            row[draw(st.sampled_from(identifiers))] = ""
        elif kind == "number":
            column = draw(st.sampled_from(list(VALID_NUMBER)))
            # The edges come first, as the branch Hypothesis draws more often.
            row[column] = draw(st.one_of(st.sampled_from(OUTSIDE_NUMBER[column]), NUMBER_TEXT))
        elif kind == "duplicate":
            other = rows[draw(st.integers(0, len(rows) - 1))]
            row.update(trial=other["trial"], model=other["model"], id=other["id"])
        else:
            lengths[at] = -1 if kind == "short" else 1
    order = list(draw(st.permutations(HISTORY_COLUMNS)))
    lines = [order]
    for at, row in enumerate(rows):
        fields = [row[column] for column in order]
        if lengths.get(at) == -1:
            fields.pop()
        elif lengths.get(at) == 1:
            fields.append("extra")
        lines.append(fields)
    return draw(_encode(lines, faults))


def _fields(record) -> list[tuple[type, str]]:
    """Each field's type and repr, so -0.0 and 0.0 differ."""
    return [(type(value), repr(value)) for value in (getattr(record, c) for c in HISTORY_COLUMNS)]


def _parse(parser, path):
    try:
        return [_fields(record) for record in parser(path)], None
    except ParseError as exc:
        return None, (str(exc), exc.row, exc.field)


def _reference_parse(path):
    return _nul_first(path, partial(_parse, reference_parse_history_csv))


@settings(max_examples=400, deadline=None)
@given(data=history_files())
@example(data=HEADER_LINE + ROW_LINE + ROW_LINE)  # a repeated (trial, model, id) key
def test_history_parser_equals_the_per_field_parser(workdir, data):
    path = _write(workdir, data)
    assert _parse(parse_history_csv, path) == _reference_parse(path)


@settings(max_examples=300, deadline=None)
@given(data=history_files(IDENTIFIERS, faults=False, row_faults=("number",), min_faults=1))
def test_every_numeric_field_reaches_the_same_check(workdir, data):
    # Well-formed files with one to three numeric faults, so that the parse
    # ends at a numeric check unless every drawn spelling is valid.
    path = _write(workdir, data)
    assert _parse(parse_history_csv, path) == _reference_parse(path)


def test_history_fixture_parses_to_the_same_records(history_fixture):
    assert _parse(parse_history_csv, history_fixture) == _parse(
        reference_parse_history_csv, history_fixture
    )
    assert _parse(parse_history_csv, history_fixture)[0]


@pytest.mark.parametrize("column", list(_NUMERIC_RANGES))
@pytest.mark.parametrize(
    "text",
    ["-1", "11", "1.0000001", "inf", "-inf", "nan", "1e400", "x",
     "-5e-324", "10.000000000000002", "1.0000000000000002", "0", "1", "10"],
)
def test_each_column_out_of_range_names_it(workdir, column, text):
    row = {c: "0.5" for c in _NUMERIC_RANGES}
    row.update(trial="t", model="m", task="q", id="o", result="r", elapsed="e", created="c")
    row[column] = text
    body = _line(HISTORY_COLUMNS, "\n") + _line([row[c] for c in HISTORY_COLUMNS], "\n")
    path = _write(workdir, body.encode("utf-8"))
    records, error = _parse(parse_history_csv, path)
    assert (records, error) == _parse(reference_parse_history_csv, path)
    assert error is None or error[1:] == (2, column)


#: The lowest and highest values each numeric column accepts, with the
#: smallest subnormal and -0.0 next to a bound of 0.
RANGE_EDGES = {
    "latency": ["0", "-0.0", "5e-324", "1.7976931348623157e308"],
    "temperature": ["-1.7976931348623157e308", "-5e-324", "-0.0", "0", "1.7976931348623157e308"],
    "quality": ["0", "-0.0", "5e-324", "10"],
    "gen_accuracy": ["0", "-0.0", "5e-324", "1"],
    "variance": ["0", "-0.0", "5e-324", "1.7976931348623157e308"],
    "review_accuracy": ["0", "-0.0", "5e-324", "1"],
    "accuracy": ["0", "-0.0", "5e-324", "1"],
}


def test_the_row_check_accepts_every_range_edge(workdir, monkeypatch):
    # A row the one-comparison check rejects goes through parse_float, so
    # a bound that is too strict changes no output; with the fallback made to
    # raise, every row at an accepted edge must pass the row check itself.
    def fallback(raw, low, high, *, path, row, field):
        raise AssertionError(f"{field}={raw!r} failed the row check")

    rows = [{c: edges[0] for c, edges in RANGE_EDGES.items()},
            {c: edges[-1] for c, edges in RANGE_EDGES.items()}]
    for column, edges in RANGE_EDGES.items():
        rows += [{**{c: "0.5" for c in RANGE_EDGES}, column: text} for text in edges]
    body = _line(HISTORY_COLUMNS, "\n")
    for i, row in enumerate(rows):
        row.update(trial="t", model="m", task="q", id=f"o{i}", result="r", elapsed="e",
                   created="c")
        body += _line([row[c] for c in HISTORY_COLUMNS], "\n")
    path = _write(workdir, body.encode("utf-8"))
    expected = _parse(reference_parse_history_csv, path)
    monkeypatch.setattr(history, "parse_float", fallback)
    records, error = _parse(parse_history_csv, path)
    assert error is None and len(records) == len(rows)
    assert (records, error) == expected


def test_the_parser_reads_the_record_positions_of_the_history_columns():
    # iter_history_rows unpacks each row into locals in HISTORY_COLUMNS order
    # and yields them in that order, and parse_history_csv makes records of
    # those tuples, so the two orders must be one; a failing row's fallback
    # reads its numbers at _NUMERIC_INDEX and its identifiers at _IDENTIFIER_INDEX.
    assert HistoryRecord._fields == HISTORY_COLUMNS
    assert _NUMERIC_INDEX == (3, 4, 7, 8, 9, 10, 11)
    assert _IDENTIFIER_INDEX == (0, 1, 2, 5)
    assert [HISTORY_COLUMNS[i] for i in (0, 1, 5)] == ["trial", "model", "id"]
    # build_profiles and task_accuracies read a row's trial, model, task,
    # quality and accuracy at these positions.
    positions = {"trial": 0, "model": 1, "task": 2, "quality": 7, "accuracy": 11}
    assert {column: HISTORY_COLUMNS.index(column) for column in positions} == positions
    row = ("t", "m", "q", 0.1, 0.2, "o", "r", 0.3, 0.4, 0.5, 0.6, 0.7, "e", "c")
    for grouping, context in [("trial", "t"), ("task", "q"), ("all", "all")]:
        (store,) = build_profiles([row], grouping)
        assert store.context_key == context
        assert (store.profiles["m"].quality, store.profiles["m"].accuracy) == (0.3, 0.7)
    assert task_accuracies([row]) == {"q": {"m": 0.7}}


def _reference_history(paths):
    """The reference's records of ``paths`` read as one history, or its first error.

    Each file is parsed on its own by the reference parser, under the NUL
    rule; a key that an earlier file held is the error at the first row that
    repeats it, unless the file's own error comes first.
    """
    records: list = []
    first_file: dict[tuple[str, str, str], int] = {}
    for at, path in enumerate(paths):
        parsed, error = _reference_parse(path)
        keys, _ = _nul_first(path, _reference_keys, streamed=True)
        for number, key in keys:
            if error is not None and error[1] is not None and number >= error[1]:
                break
            if key in first_file:
                exc = ParseError(
                    f"duplicate (trial, model, id) key {key!r}, first read from "
                    f"{paths[first_file[key]]}", path=path, row=number, field="id")
                error = (str(exc), exc.row, exc.field)
                break
        if error is not None:
            return None, error
        for _, key in keys:
            first_file.setdefault(key, at)
        records += parsed
    return records, None


def _reference_keys(path):
    """The ``(trial, model, id)`` key of each row the reference reads, before any error."""
    rows = reference_read_csv(path, HISTORY_COLUMNS)
    return _outcome((number, (row["trial"], row["model"], row["id"])) for number, row in rows)


def _rows(paths):
    try:
        rows = list(iter_history_rows(*paths))
    except ParseError as exc:
        return None, (str(exc), exc.row, exc.field)
    assert all(type(row) is tuple for row in rows)
    # Each field's type and repr, read by position, as _fields reads a record's.
    return [[(type(value), repr(value)) for value in row] for row in rows], None


def _consumed(consume, read):
    try:
        return repr(consume(read())), None
    except ParseError as exc:
        return None, (str(exc), exc.row, exc.field)


#: ``build_profiles`` under every grouping and aggregate, and ``task_accuracies``.
CONSUMERS = [
    partial(build_profiles, grouping=grouping, aggregate=aggregate)
    for grouping in ("trial", "task", "all") for aggregate in ("mean", "median")
] + [task_accuracies]


@settings(max_examples=300, deadline=None)
@given(earlier=st.lists(history_files(IDENTIFIERS, faults=False, row_faults=()), max_size=2),
       last=history_files(IDENTIFIERS))
@example(earlier=[], last=HEADER_LINE + b"t,m,,1,0,o,r,5,1,0,1,1,e,c\n")
@example(earlier=[], last=HEADER_LINE + b",m,q,1,0,o,r,5,1,0,1,1,e,c\n")
@example(earlier=[HEADER_LINE + ROW_LINE], last=HEADER_LINE + ROW_LINE)  # "first read from"
# Two models sharing a (trial, id) in one file.
@example(earlier=[], last=HEADER_LINE + ROW_LINE + ROW_LINE.replace(b"t,m,", b"t,n,"))
def test_the_row_stream_equals_the_reference_and_feeds_the_same_results(workdir, earlier, last):
    # The earlier files are valid, so that the last one's rows are read and
    # may repeat their keys; its ids count from o0 as theirs do.
    paths = []
    for number, data in enumerate(earlier + [last]):
        path = workdir / f"part{number}.csv"
        path.write_bytes(data)
        paths.append(path)
    assert _rows(paths) == _reference_history(paths)
    for consume in CONSUMERS:
        assert _consumed(consume, lambda: iter_history_rows(*paths)) == _consumed(
            consume, lambda: parse_history_csv(*paths))
