"""The file layer: one reader and writer path, its row rules, atomic outputs, and a
fuzz test that every corrupted CLI input exits 0 or 1 (never 2) naming the file."""

from __future__ import annotations

import ast
import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llmchem.cli import main
from llmchem.errors import ParseError
from llmchem.files import (
    parse_float, read_csv, read_json, read_name_lists, sha256_of, write_csv, write_json,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "llmchem"

#: Calls that open, frame or decode a file; only files.py may make them.
_FILE_CALLS = {
    ("csv", "reader"),
    ("csv", "DictReader"),
    ("csv", "writer"),
    ("json", "load"),
    ("json", "dump"),
}
_FILE_METHODS = {"read_text", "write_text"}


def _file_calls(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            found.append(f"open (line {node.lineno})")
        elif isinstance(func, ast.Attribute):
            owner = func.value.id if isinstance(func.value, ast.Name) else None
            if (owner, func.attr) in _FILE_CALLS or func.attr in _FILE_METHODS:
                found.append(f"{owner or '<expr>'}.{func.attr} (line {node.lineno})")
    return found


def test_only_files_module_touches_files():
    offenders = {
        path.name: calls
        for path in sorted(SRC.glob("*.py"))
        if path.name != "files.py"
        and (calls := _file_calls(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert offenders == {}


def test_structure_guard_sees_every_forbidden_call():
    source = (
        "open(p)\ncsv.reader(h)\ncsv.DictReader(h)\ncsv.writer(h)\njson.load(h)\n"
        "json.dump(x, h)\np.read_text()\np.write_text(s)\njson.dumps(x)\np.read_bytes()\n"
    )
    assert len(_file_calls(ast.parse(source))) == 8


class TestReadCsv:
    def _read(self, tmp_path, data: bytes, columns=("a", "b", "c")):
        path = tmp_path / "in.csv"
        path.write_bytes(data)
        return path, list(read_csv(path, columns))

    def test_columns_in_any_order(self, tmp_path):
        _, rows = self._read(tmp_path, b"c,a,b\n3,1,2\n")
        assert rows == [(2, ["1", "2", "3"])]

    @pytest.mark.parametrize(
        "data, fragments",
        [
            (b"", ["missing columns ['a', 'b', 'c']"]),
            (b"a,b\n1,2\n", ["missing columns ['c']", "stray columns []"]),
            (b"a,b,c,d\n", ["missing columns []", "stray columns ['d']"]),
            (b"a,b,b\n", ["missing columns ['c']", "stray columns ['b']"]),
            (b"a,b,c\n1,2\n", ["row 2, field 'c'"]),
            (b"a,b,c\n1,2,3\n1,2,3,4\n", ["more fields", "row 3)"]),
            (b"a,b,c\n1,2,\xff\n", ["'utf-8' codec can't decode"]),
        ],
        ids=["empty", "missing", "stray", "duplicate", "short", "long", "encoding"],
    )
    def test_framing_faults_name_the_file(self, tmp_path, data, fragments):
        with pytest.raises(ParseError) as err:
            self._read(tmp_path, data)
        message = str(err.value)
        assert str(tmp_path / "in.csv") in message
        for fragment in fragments:
            assert fragment in message

    @pytest.mark.parametrize(
        "data, row",
        [
            (b"a,b\0,c\n1,2,3\n", 1),
            (b"a,b,c\n1,2,3\n\n4\0,5,6\n", 3),
            (b'a,b,c\n"1",2,3\n4,5,6\n7,8\0\n', 4),
            (b'a,b,c\n1,2,3\n"x\ny\0",2,3\n', 3),
            (b'a,b,c\n"1",2,3\n' + b"4,5,6\n" * 20000 + b"7,8\0,9\n", 20003),
        ],
        ids=["header", "plain", "after-quote", "spanning", "later-batch"],
    )
    def test_nul_names_the_record_row_on_every_interpreter(self, tmp_path, data, row):
        # CPython 3.10's csv rejected NUL without a row, and 3.11 to 3.13 read it.
        with pytest.raises(ParseError) as err:
            self._read(tmp_path, data)
        assert str(err.value) == (
            f"unreadable CSV: record contains NUL (in {tmp_path / 'in.csv'}, row {row})"
        )

    @pytest.mark.parametrize(
        "data",
        [
            b"\na,b,c\n1,2,3\n",
            b"\r\n\r\na,b,c\r\n1,2,3\r\n",
            b"\r\ra,b,c\r1,2,3\r",
            b"\r\n\r\n\n\ra,b,c\n\n1,2,3\n",
            b'\r\n\r"a",b,c\n1,2,3\n',  # the header is the first quoted line
        ],
        ids=["lf", "crlf", "cr", "mixed", "quoted-header"],
    )
    def test_blank_lines_before_the_header_are_skipped(self, tmp_path, data):
        _, rows = self._read(tmp_path, data)
        assert rows == [(2, ["1", "2", "3"])]

    def test_short_row_reports_first_missing_column(self, tmp_path):
        with pytest.raises(ParseError) as err:
            self._read(tmp_path, b"c,b,a\n1\n")
        assert (err.value.row, err.value.field) == (2, "b")


@pytest.mark.parametrize("raw, low, high, value", [
    ("-0.0", 0.0, 10.0, -0.0),
    ("5e-324", 0.0, 1.0, 5e-324),
    ("0", 0.0, 10.0, 0.0),
    ("10", 0.0, 10.0, 10.0),
    ("-1e308", -math.inf, math.inf, -1e308),
])
def test_parse_float_accepts_a_finite_number_within_the_bounds(raw, low, high, value):
    parsed = parse_float(raw, low, high, path="in.csv", row=7, field="grade")
    assert parsed == value and math.copysign(1.0, parsed) == math.copysign(1.0, value)


@pytest.mark.parametrize("raw, low, high, message", [
    ("nan", -math.inf, math.inf, "grade out of range: nan"),
    ("inf", -math.inf, math.inf, "grade out of range: inf"),
    ("-inf", -math.inf, math.inf, "grade out of range: -inf"),
    ("1e999", 0.0, math.inf, "grade out of range: inf"),
    ("10.000000000000002", 0.0, 10.0, "grade out of range: 10.000000000000002"),
    ("-5e-324", 0.0, 10.0, "grade out of range: -5e-324"),
    ("", 0.0, 10.0, "grade is not a number: ''"),
    ("abc", 0.0, 10.0, "grade is not a number: 'abc'"),
])
def test_parse_float_names_the_fault_the_file_the_row_and_the_field(raw, low, high, message):
    with pytest.raises(ParseError) as raised:
        parse_float(raw, low, high, path="in.csv", row=7, field="grade")
    error = raised.value
    assert (error.path, error.row, error.field) == ("in.csv", 7, "grade")
    assert str(error) == f"{message} (in in.csv, row 7, field 'grade')"


@pytest.mark.parametrize("size", [0, 1, (1 << 16) - 1, 1 << 16, 5 * (1 << 16) + 7])
def test_sha256_of_reads_in_chunks_to_the_digest_of_the_whole_file(tmp_path, size):
    path = tmp_path / "in.bin"
    path.write_bytes(bytes(i % 251 for i in range(size)))
    assert sha256_of(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_read_json_faults_name_the_file(tmp_path):
    for data in (b'{"a": ', b"\xff", b"[1] 2"):
        path = tmp_path / "in.json"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="in.json"):
            read_json(path)


def test_read_name_lists_returns_the_lists_under_the_key(tmp_path):
    path = tmp_path / "in.json"
    path.write_text('{"groups": [["a", "b"], ["c"]], "other": 1}')
    assert read_name_lists(path, "groups") == [["a", "b"], ["c"]]


@pytest.mark.parametrize("data", [
    b"[]", b'{"other": [["a"]]}', b'{"groups": []}', b'{"groups": [[]]}',
    b'{"groups": [["a", 1]]}', b'{"groups": ["a"]}', b'{"groups": {"a": ["b"]}}',
])
def test_read_name_lists_names_the_key_and_the_file(tmp_path, data):
    path = tmp_path / "in.json"
    path.write_bytes(data)
    with pytest.raises(ParseError) as raised:
        read_name_lists(path, "groups")
    assert str(raised.value) == (
        f"'groups' must be a non-empty list of non-empty lists of model names (in {path})"
    )


class TestAtomicWrites:
    def test_csv_bytes(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ("x", "y"), [["a,b", 1], ['q"', 2.5]])
        assert path.read_bytes() == b'x,y\n"a,b",1\n"q""",2.5\n'

    def test_json_bytes(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"b": [1, 2], "a": 0.1})
        assert path.read_bytes() == b'{\n  "a": 0.1,\n  "b": [\n    1,\n    2\n  ]\n}\n'

    def test_csv_float_is_its_repr(self, tmp_path):
        path = tmp_path / "out.csv"
        values = [0.1, 1 / 3, 5e-324, 1e16, 1e22, -0.0, 2.5e-7, 123456789.123, 10.0]
        write_csv(path, ("v",), [[v] for v in values])
        assert path.read_text().splitlines()[1:] == [repr(v) for v in values]

    def test_json_keys_are_sorted_at_every_level(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"b": {"z": 1, "y": {"q": 0, "p": 1}}, "a": 0})
        assert json.loads(path.read_text(), object_pairs_hook=list) == [
            ("a", 0), ("b", [("y", [("p", 1), ("q", 0)]), ("z", 1)]),
        ]

    def test_failed_csv_write_keeps_previous_bytes(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ("x",), [[1]])
        before = path.read_bytes()

        def rows():
            yield [2]
            yield [3]
            raise RuntimeError("disk on fire")

        with pytest.raises(RuntimeError):
            write_csv(path, ("x",), rows())
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]

    def test_non_finite_json_is_refused_and_target_kept(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"v": 1.0})
        before = path.read_bytes()
        with pytest.raises(ValueError):
            write_json(path, {"v": math.nan})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_failed_write_leaves_no_file_when_none_existed(self, tmp_path):
        with pytest.raises(csv.Error):
            write_csv(tmp_path / "new.csv", ("x",), [[1], 5])
        assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------------
# Fuzz: one corrupted byte or field in any CLI input exits 0 or 1, never 2.
# --------------------------------------------------------------------------

_MODELS = ["gemini-2.0-flash", "gpt-4o", "llama3.1:70b", "o3-mini", "qwen2.5:32b"]

#: Input kind -> (file name, CLI arguments; ``{w}`` is the workspace).
_KINDS = {
    "history": ("history.csv", "ingest {w}/history.csv --out {w}/o.json"),
    "grades": ("grades.csv", "score --grades {w}/grades.csv --out {w}/o.json"),
    "ground_truth": (
        "gt.csv",
        "score --grades {w}/grades.csv --ground-truth {w}/gt.csv "
        "--results {w}/results.csv --out {w}/o.json",
    ),
    "results": ("results.csv", "score --grades {w}/grades.csv --results {w}/results.csv --out {w}/o.json"),
    "chemistry": (
        "chem.csv",
        "recommend --store {w}/store.json --chem {w}/chem.csv --pool {w}/pool.json --out {w}/o.json",
    ),
    "store": ("store.json", "chem --store {w}/store.json --out {w}/o.csv"),
    "pool": (
        "pool.json",
        "recommend --store {w}/store.json --chem {w}/chem.csv --pool {w}/pool.json --out {w}/o.json",
    ),
    "ensembles": (
        "ensembles.json",
        "eval --store {w}/store.json --ensembles {w}/ensembles.json --metric correlation "
        "--chem {w}/chem.csv --out {w}/o.csv",
    ),
    "config": ("config.json", "ingest {w}/history.csv --out {w}/o.json --config {w}/config.json"),
}


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, history_fixture) -> dict[str, bytes]:
    """Valid bytes of every input kind, made by the CLI where it makes them."""
    w = tmp_path_factory.mktemp("fuzz")
    shutil.copy(history_fixture, w / "history.csv")
    (w / "grades.csv").write_text(
        "grader,output_id,grade\ng1,o1,5.0\ng1,o2,6.5\ng2,o1,4.0\ng2,o2,7.0\ng3,o2,6.0\n"
    )
    (w / "gt.csv").write_text('output_id,reference\no1,true\no2,"false, mostly"\n')
    (w / "results.csv").write_text("model,output_id,result\ng1,o1,true\ng1,o2,no\ng2,o2,false\n")
    (w / "pool.json").write_text(json.dumps({"query_context": "q", "subsets": [_MODELS[:2], _MODELS[2:]]}))
    (w / "ensembles.json").write_text(json.dumps({"ensembles": [_MODELS[:2], _MODELS[1:4], _MODELS]}))
    (w / "config.json").write_text(json.dumps({"alpha": 0.75, "lambda": 0.25, "seed": 3, "grid_size": 9}))
    assert _run(f"ingest {w}/history.csv --out {w}/store.json".split())[0] == 0
    assert _run(f"chem --store {w}/store.json --out {w}/chem.csv".split())[0] == 0
    valid = {name: (w / name).read_bytes() for name, _ in _KINDS.values()}
    for kind, (_, argv) in _KINDS.items():
        assert _run(argv.format(w=w).split())[0] == 0, kind
    return {"dir": w, **valid}


def _replace_csv_field(data: bytes, row: int, column: int, text: str) -> bytes:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    row %= len(rows)
    rows[row][column % len(rows[row])] = text
    out = io.StringIO(newline="")
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode("utf-8")


def _replace_json_node(data: bytes, index: int, text: str) -> bytes:
    payload = json.loads(data)
    slots = []  # (container, key) of every node below the root

    def walk(node):
        children = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in list(children):
            slots.append((node, key))
            if isinstance(child, (dict, list)):
                walk(child)

    walk(payload)
    container, key = slots[index % len(slots)]
    container[key] = text
    return json.dumps(payload).encode("utf-8")


_mutations = st.one_of(
    st.tuples(st.just("byte"), st.integers(0, 10**6), st.integers(1, 255)),
    st.tuples(st.just("field"), st.integers(0, 10**6), st.integers(0, 20), st.text(max_size=12)),
)


@pytest.mark.parametrize("kind", sorted(_KINDS))
@settings(max_examples=50, deadline=None)
@given(mutation=_mutations)
def test_corrupted_input_exits_0_or_1_naming_the_file(workspace, kind, mutation):
    name, argv = _KINDS[kind]
    w = workspace["dir"]
    data = workspace[name]
    if mutation[0] == "byte":
        _, position, flip = mutation
        position %= len(data)
        corrupted = data[:position] + bytes([data[position] ^ flip]) + data[position + 1 :]
    elif name.endswith(".csv"):
        corrupted = _replace_csv_field(data, *mutation[1:])
    else:
        corrupted = _replace_json_node(data, mutation[1], mutation[3])
    target = w / name
    target.write_bytes(corrupted)
    try:
        rc, err = _run(argv.format(w=w).split())
    finally:
        target.write_bytes(data)
    assert rc in (0, 1), err
    if rc == 1:
        assert str(target) in err
    assert not list(w.glob("*.tmp"))
