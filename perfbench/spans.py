"""Span tracing of llmchem's public functions, installed from outside.

The traced run wraps the functions listed in ``SPANNED`` and ``HOT`` in every
``llmchem`` module that binds them (``cli.py`` imports names with
``from .x import y``, so patching the defining module alone would miss its
calls).  A spanned function records one span per call: name, start, end,
parent span and stage id.  A hot function is called once per inner-loop
iteration, so it only adds a call count and a total time to the span it runs
under, which keeps memory bounded.  Spans stay in memory until the run ends.

The untraced runs never install these wrappers, so the end-to-end numbers
carry no tracing cost.
"""

from __future__ import annotations

import sys
import weakref
from dataclasses import dataclass, field
from time import perf_counter_ns


@dataclass
class Span:
    """One traced call; times are ``perf_counter_ns`` readings."""

    id: int
    name: str
    stage: str
    parent: int | None
    start: int
    end: int = 0
    counters: dict[str, float] = field(default_factory=dict)
    # Hot functions called directly under this span: name -> [calls, total ns].
    hot: dict[str, list[int]] = field(default_factory=dict)

    def to_obj(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "stage": self.stage,
            "parent": self.parent,
            "start_ns": self.start,
            "end_ns": self.end,
            "counters": self.counters,
            "hot": self.hot,
        }


def self_time_ns(span: Span, children: list[Span]) -> int:
    """Span duration minus the time its child spans and hot calls cover.

    In one thread, child spans and hot calls run one after another inside
    their parent, so their durations add up without overlap.
    """
    covered = sum(c.end - c.start for c in children)
    covered += sum(total for _, total in span.hot.values())
    return span.end - span.start - covered


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.stage = ""
        # Distinct cover queries seen per CoverLookup instance.
        self._cover_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.stage, parent, perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter_ns()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def spanned(self, fn, name: str, count=None):
        """Wrap ``fn`` so each call records a span, plus ``count(result, args)``."""

        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                for key, value in count(result, args).items():
                    span.counters[key] = span.counters.get(key, 0) + value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def hot(self, fn, name: str, probe=None):
        """Wrap ``fn`` so calls only add to the enclosing span's count and time."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            result = fn(*args, **kwargs)
            elapsed = perf_counter_ns() - start
            if stack:
                entry = stack[-1].hot.setdefault(name, [0, 0])
                entry[0] += 1
                entry[1] += elapsed
                if probe is not None:
                    probe(stack[-1], args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def cover_probe(self, span: Span, args: tuple, result) -> None:
        """Cover-lookup counters: repeat, distinct, exact-node and absent queries."""
        lookup, config = args[0], args[1]
        query = frozenset(config)
        seen = self._cover_seen.setdefault(lookup, set())
        counters = span.counters
        if query in seen:
            counters["cover.repeat"] = counters.get("cover.repeat", 0) + 1
            return
        seen.add(query)
        counters["cover.distinct"] = counters.get("cover.distinct", 0) + 1
        if query in lookup.graph.nodes:
            counters["cover.exact"] = counters.get("cover.exact", 0) + 1
        if result is None:
            counters["cover.absent"] = counters.get("cover.absent", 0) + 1


def _rebind(original, wrapper) -> int:
    """Replace every ``llmchem`` module attribute bound to ``original``."""
    rebound = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "llmchem" or module_name.startswith("llmchem.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                rebound += 1
    return rebound


#: Functions that record one span per call: (module, attribute, counters),
#: where ``counters(result, args)`` gives the counts to add to the span.
SPANNED = (
    ("history", "parse_history_csv", lambda r, a: {"rows": len(r)}),
    ("history", "build_profiles", None),
    ("history", "write_profiles", None),
    ("history", "read_profiles", None),
    ("mig", "build_mig", lambda r, a: {"nodes": r.node_count, "edges": r.edge_count}),
    ("chemistry", "cheme",
     lambda r, a: {"pairs_positive": sum(1 for v in r.scores.values() if v > 0.0)}),
    ("chemistry", "chem_table_bruteforce", None),
    ("recommend", "recommend", lambda r, a: {"seeds": len(a[0].subsets)}),
    ("consensus", "load_grades_csv", lambda r, a: {"grades": len(r.grades)}),
    ("consensus", "vancouver_consensus", lambda r, a: {"iterations": r.iterations}),
    ("complementarity", "delta_ci_map", None),
    ("complementarity", "effectiveness_soft_vote", None),
)

#: Functions called once per inner-loop iteration: (module, attribute).
HOT = (
    ("core", "cost"),
    ("recommend", "subset_loss"),
    ("recommend", "neighbors"),
    ("complementarity", "complementarity_index"),
)


def install(tracer: Tracer) -> None:
    """Wrap every traced llmchem function for the rest of this process."""
    import llmchem.cli  # noqa: F401 - loads every module that binds a target
    from llmchem.chemistry import ChemistryTable
    from llmchem.mig import CoverLookup

    for module, attr, count in SPANNED:
        original = getattr(sys.modules[f"llmchem.{module}"], attr)
        wrapper = tracer.spanned(original, f"{module}.{attr}", count)
        if _rebind(original, wrapper) == 0:
            raise RuntimeError(f"llmchem.{module}.{attr} is not bound anywhere")
    for module, attr in HOT:
        original = getattr(sys.modules[f"llmchem.{module}"], attr)
        if _rebind(original, tracer.hot(original, f"{module}.{attr}")) == 0:
            raise RuntimeError(f"llmchem.{module}.{attr} is not bound anywhere")

    CoverLookup.cover = tracer.hot(
        CoverLookup.cover, "mig.CoverLookup.cover", probe=tracer.cover_probe
    )
    from_csv = ChemistryTable.__dict__["from_csv"].__func__
    ChemistryTable.from_csv = classmethod(
        tracer.spanned(from_csv, "chemistry.ChemistryTable.from_csv")
    )


def _seconds(ns: float) -> float:
    return ns / 1e9


def layer_metrics(spans: list[Span], stages: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass over the pipeline ``stages``.

    Only spans of those stages count, except that the exhaustive scorer, which
    runs only in the benchmark's oracle step, is timed wherever it runs.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    pipeline = [s for s in spans if s.stage in stages]
    total_ns: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    counters: dict[str, float] = {}
    hot_calls: dict[str, int] = {}
    hot_ns: dict[str, int] = {}
    for span in pipeline:
        total_ns[span.name] = total_ns.get(span.name, 0) + span.end - span.start
        self_ns[span.name] = self_ns.get(span.name, 0) + self_time_ns(
            span, children.get(span.id, [])
        )
        for key, value in span.counters.items():
            name = key if key.startswith("cover.") else f"{span.name}.{key}"
            counters[name] = counters.get(name, 0) + value
        for name, (calls, ns) in span.hot.items():
            hot_calls[name] = hot_calls.get(name, 0) + calls
            hot_ns[name] = hot_ns.get(name, 0) + ns

    def s(name: str) -> float:
        return _seconds(total_ns.get(name, 0))

    brute_ns = sum(
        x.end - x.start for x in spans if x.name == "chemistry.chem_table_bruteforce"
    )
    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    cover_calls = hot_calls.get("mig.CoverLookup.cover", 0)
    iterations = counters.get("consensus.vancouver_consensus.iterations", 0)
    out = {
        "history.parse_history_csv.s": s("history.parse_history_csv"),
        "history.parse_history_csv.rows": counters.get("history.parse_history_csv.rows", 0),
        "history.build_profiles.s": s("history.build_profiles"),
        "history.write_profiles.s": s("history.write_profiles"),
        "history.read_profiles.s": s("history.read_profiles"),
        "core.cost.calls": hot_calls.get("core.cost", 0),
        "core.cost.s": _seconds(hot_ns.get("core.cost", 0)),
        "mig.build_mig.s": s("mig.build_mig"),
        "mig.build_mig.nodes": counters.get("mig.build_mig.nodes", 0),
        "mig.build_mig.edges": counters.get("mig.build_mig.edges", 0),
        "mig.CoverLookup.cover.calls": cover_calls,
        "mig.CoverLookup.cover.s": _seconds(hot_ns.get("mig.CoverLookup.cover", 0)),
        "mig.cover.memo_hit_ratio": ratio(counters.get("cover.repeat", 0), cover_calls),
        "mig.cover.exact_ratio": ratio(
            counters.get("cover.exact", 0), counters.get("cover.distinct", 0)
        ),
        "mig.cover.absent": counters.get("cover.absent", 0),
        "chemistry.cheme.s": s("chemistry.cheme"),
        "chemistry.cheme.self_s": _seconds(self_ns.get("chemistry.cheme", 0)),
        "chemistry.chem_table_bruteforce.s": _seconds(brute_ns),
        "chemistry.ChemistryTable.from_csv.s": s("chemistry.ChemistryTable.from_csv"),
        "chemistry.pairs_positive": counters.get("chemistry.cheme.pairs_positive", 0),
        "recommend.recommend.s": s("recommend.recommend"),
        "recommend.recommend.self_s": _seconds(self_ns.get("recommend.recommend", 0)),
        "recommend.subset_loss.calls": hot_calls.get("recommend.subset_loss", 0),
        "recommend.subset_loss.s": _seconds(hot_ns.get("recommend.subset_loss", 0)),
        "recommend.neighbors.calls": hot_calls.get("recommend.neighbors", 0),
        "recommend.neighbors.s": _seconds(hot_ns.get("recommend.neighbors", 0)),
        "recommend.seeds": counters.get("recommend.recommend.seeds", 0),
        "consensus.load_grades_csv.s": s("consensus.load_grades_csv"),
        "consensus.vancouver_consensus.s": s("consensus.vancouver_consensus"),
        "consensus.iterations": iterations,
        "consensus.grades": counters.get("consensus.load_grades_csv.grades", 0),
        "consensus.s_per_iteration": ratio(s("consensus.vancouver_consensus"), iterations),
        "complementarity.delta_ci_map.s": s("complementarity.delta_ci_map"),
        "complementarity.complementarity_index.calls": hot_calls.get(
            "complementarity.complementarity_index", 0
        ),
        "complementarity.effectiveness_soft_vote.s": s("complementarity.effectiveness_soft_vote"),
    }
    for stage in stages:
        out[f"cli.{stage}.s"] = s(f"cli.{stage}")
        out[f"cli.{stage}.self_s"] = _seconds(self_ns.get(f"cli.{stage}", 0))
    return out
