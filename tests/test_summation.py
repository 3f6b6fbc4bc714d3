"""One summation rule on every interpreter: float sums run left to right.

From Python 3.12 on the built-in ``sum()`` of floats compensates rounding and
``statistics.correlation`` sums differently, so either would give a result
different bytes on different interpreters.  An ``ast`` guard keeps both out of
``src/``; the built-in ``sum`` stays only where it counts integers.
"""

from __future__ import annotations

import ast
import statistics
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llmchem.complementarity import pearson_r
from llmchem.core import left_sum
from llmchem.errors import UndefinedCorrelationError

SRC = Path(__file__).resolve().parents[1] / "src" / "llmchem"

#: Functions allowed a built-in ``sum`` of integers: (module, qualified name) -> calls.
INTEGER_SUMS = {
    ("mig.py", "MIG.edge_count"): 1,  # children per node
    ("complementarity.py", "effectiveness_soft_vote"): 1,  # tasks answered correctly
    ("cli.py", "cmd_ingest"): 1,  # records per store and model
}


def _forbidden_calls(tree: ast.AST) -> tuple[dict[str, int], list[str]]:
    """Built-in ``sum`` calls per enclosing function, and every use of ``correlation``."""
    sums: dict[str, int] = {}
    correlations: list[str] = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                if child.func.id == "sum":
                    name = ".".join(scope) or "<module>"
                    sums[name] = sums.get(name, 0) + 1
            if isinstance(child, ast.Attribute) and child.attr == "correlation":
                correlations.append(f"line {child.lineno}")
            if isinstance(child, ast.ImportFrom) and child.module == "statistics":
                if any(alias.name == "correlation" for alias in child.names):
                    correlations.append(f"line {child.lineno}")
            visit(child, inner)

    visit(tree, ())
    return sums, correlations


def test_no_float_sum_or_correlation_in_src():
    sums: dict[tuple[str, str], int] = {}
    correlations: dict[str, list[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        found, used = _forbidden_calls(ast.parse(path.read_text(encoding="utf-8")))
        sums.update({(path.name, name): count for name, count in found.items()})
        if used:
            correlations[path.name] = used
    assert sums == INTEGER_SUMS
    assert correlations == {}


def test_guard_catches_a_planted_float_sum():
    source = (
        "import statistics\n"
        "from statistics import correlation\n"
        "def effectiveness_soft_vote(rows):\n"
        "    correct = sum(1 for row in rows if sum(row) > 0.5)\n"
        "    return statistics.correlation(rows[0], rows[1])\n"
        "class Grid:\n"
        "    def total(self):\n"
        "        return sum(self.cells)\n"
    )
    sums, correlations = _forbidden_calls(ast.parse(source))
    assert sums == {"effectiveness_soft_vote": 2, "Grid.total": 1}
    assert len(correlations) == 2


FLOATS = st.floats(-1e6, 1e6, allow_nan=False)


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="sum() compensates rounding from 3.12 on")
@settings(max_examples=500, deadline=None)
@given(values=st.lists(FLOATS, max_size=30))
def test_left_sum_keeps_the_311_bytes(values):
    assert repr(left_sum(values)) == repr(float(sum(values)))


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="statistics.correlation changed in 3.12")
@settings(max_examples=500, deadline=None)
@given(pairs=st.lists(st.tuples(FLOATS, FLOATS), min_size=2, max_size=30))
def test_pearson_r_keeps_the_311_bytes(pairs):
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    try:
        expected = max(-1.0, min(1.0, statistics.correlation(xs, ys)))
    except statistics.StatisticsError:
        with pytest.raises(UndefinedCorrelationError):
            pearson_r(xs, ys)
    else:
        assert repr(pearson_r(xs, ys)) == repr(expected)


def test_pearson_r_rejects_constant_input():
    with pytest.raises(UndefinedCorrelationError, match="at least one of the inputs is constant"):
        pearson_r([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])


def test_pearson_r_is_clamped():
    # Rounding carries the unclamped ratio to 1.0000000000000002 on these points.
    xs, ys = [0.9, 0.022], [1.9000000000000001, 0.14400000000000002]
    assert pearson_r(xs, ys) == 1.0
    assert pearson_r(xs, [-y for y in ys]) == -1.0
