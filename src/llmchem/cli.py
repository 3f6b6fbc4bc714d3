"""Command-line pipeline: ingest -> score -> chem -> recommend -> map / eval / check.

Every run echoes its effective configuration, and every output file gets a
``<name>.meta.json`` sidecar recording the configuration and the SHA-256 of
each input, so identical inputs and flags reproduce identical bytes.

Exit codes: 0 success, 1 validation or usage error, 2 internal invariant
failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import __version__
from .chemistry import ChemistryTable, chem_table_bruteforce, cheme, llmcp_filter
from .complementarity import (
    CIParams,
    EnsemblePoint,
    complementarity_index,
    delta_ci_map,
    effectiveness_soft_vote,
    pearson_r,
)
from .consensus import (
    combined_accuracy,
    generation_accuracy,
    load_grades_csv,
    load_ground_truth_csv,
    vancouver_consensus,
)
from .core import (
    AUDIT_SIZE_GUARD,
    ModelProfile,
    ModelSet,
    audit_cost_properties,
    model_set_fingerprint,
)
from .errors import LLMChemError, UndefinedCorrelationError
from .history import build_profiles, parse_history_csv, read_profiles, write_profiles
from .mig import build_mig
from .recommend import CandidatePool, LossParams, recommend

logger = logging.getLogger(__name__)

_CONFIG_KEYS = (
    "alpha",
    "beta",
    "lambda",
    "tau",
    "used_threshold",
    "empty_cost",
    "max_iters",
    "grid_size",
    "seed",
)


@dataclass(frozen=True)
class RunConfig:
    """Tunables shared across subcommands, echoed on every run."""

    alpha: float = 0.5
    beta: float = 0.5
    lam: float = 0.5
    tau: float = 0.0
    used_threshold: float = 0.5
    empty_cost: float = 1.0
    max_iters: int = 50
    grid_size: int = 50
    seed: int = 0

    def as_dict(self) -> dict:
        out = asdict(self)
        out["lambda"] = out.pop("lam")
        return {key: out[key] for key in _CONFIG_KEYS}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON file of config defaults")
    parser.add_argument("--alpha", type=float, help="inter/intra loss balance (default 0.5)")
    parser.add_argument("--beta", type=float, help="subset size penalty (default 0.5)")
    parser.add_argument("--lambda", dest="lam", type=float,
                        help="coverage/diversity trade-off (default 0.5)")
    parser.add_argument("--tau", type=float, help="chemistry report threshold (default 0.0)")
    parser.add_argument("--used-threshold", type=float,
                        help="accuracy cut-off for usable outputs (default 0.5)")
    parser.add_argument("--empty-cost", type=float,
                        help="cost of a configuration with no usable output (default 1.0)")
    parser.add_argument("--max-iters", type=int, help="hill-climb budget per seed (default 50)")
    parser.add_argument("--grid-size", type=int, help="chemistry map resolution (default 50)")
    parser.add_argument("--seed", type=int, help="seed for audits and diagnostics (default 0)")


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    path = getattr(args, "config", None)
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        stray = sorted(set(payload) - set(_CONFIG_KEYS))
        if stray:
            raise _UsageError(f"unknown config keys in {path}: {stray}")
        renamed = {("lam" if key == "lambda" else key): value for key, value in payload.items()}
        config = replace(config, **renamed)
    overrides = {}
    for field in ("alpha", "beta", "lam", "tau", "used_threshold", "empty_cost",
                  "max_iters", "grid_size", "seed"):
        value = getattr(args, field, None)
        if value is not None:
            overrides[field] = value
    if overrides:
        config = replace(config, **overrides)
    return config


def _echo_config(config: RunConfig) -> None:
    print("config: " + json.dumps(config.as_dict(), sort_keys=True))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_meta(out: Path, config: RunConfig, inputs: dict[str, Path], extra: dict | None = None) -> None:
    meta = {
        "package": "llmchem",
        "version": __version__,
        "config": config.as_dict(),
        "inputs": {
            label: {"path": str(path), "sha256": _sha256(path)}
            for label, path in sorted(inputs.items())
        },
    }
    if extra:
        meta.update(extra)
    sidecar = out.with_name(out.name + ".meta.json")
    sidecar.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_json(out: Path, payload: dict) -> None:
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _select_store(path: Path, context: str | None):
    stores = read_profiles(path)
    if context is None:
        if len(stores) == 1:
            return stores[0]
        keys = [store.context_key for store in stores]
        raise LLMChemError(
            f"{path} holds {len(stores)} stores ({keys}); pick one with --context"
        )
    for store in stores:
        if store.context_key == context:
            return store
    raise LLMChemError(f"no store with context {context!r} in {path}")


def _model_set(store, config: RunConfig) -> ModelSet:
    return store.to_model_set(
        empty_cost=config.empty_cost, used_threshold=config.used_threshold
    )


def cmd_ingest(args: argparse.Namespace, config: RunConfig) -> int:
    records = []
    for path in args.csv:
        records.extend(parse_history_csv(path))
    stores = build_profiles(
        records,
        grouping=args.grouping,
        aggregate=args.aggregate,
        sources=[str(p) for p in args.csv],
    )
    write_profiles(stores, args.out)
    _write_meta(args.out, config, {f"csv{i}": p for i, p in enumerate(args.csv)})
    print(f"ingested {len(records)} records into {len(stores)} store(s) at {args.out}")
    return 0


def cmd_score(args: argparse.Namespace, config: RunConfig) -> int:
    matrix = load_grades_csv(args.grades)
    result = vancouver_consensus(
        matrix, max_iters=args.consensus_max_iters, tol=args.consensus_tol
    )
    payload: dict = {
        "consensus": dict(sorted(result.consensus.items())),
        "variance": dict(sorted(result.variance.items())),
        "review_accuracy": dict(sorted(result.review_accuracy.items())),
        "iterations": result.iterations,
        "converged": result.converged,
    }
    inputs = {"grades": args.grades}
    references = None
    if args.ground_truth is not None:
        references = load_ground_truth_csv(args.ground_truth)
        inputs["ground_truth"] = args.ground_truth
    if args.results is not None:
        inputs["results"] = args.results
        outputs_by_model: dict[str, list[tuple[str, str]]] = {}
        with open(args.results, "r", encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames != ["model", "output_id", "result"]:
                raise LLMChemError(
                    f"expected header model,output_id,result in {args.results}, "
                    f"got {reader.fieldnames}"
                )
            for row in reader:
                outputs_by_model.setdefault(row["model"], []).append(
                    (row["output_id"], row["result"])
                )
        models: dict[str, dict] = {}
        for model in sorted(outputs_by_model):
            scores = []
            for output_id, text in outputs_by_model[model]:
                reference = references.get(output_id) if references else None
                scores.append(generation_accuracy(text, reference))
            gen = sum(scores) / len(scores)
            # Generators that never graded keep the neutral prior (variance 1).
            review = result.review_accuracy.get(model, 0.5)
            has_gt = references is not None
            models[model] = {
                "generation_accuracy": gen,
                "review_accuracy": review,
                "has_ground_truth": has_gt,
                "accuracy": combined_accuracy(gen, review, has_gt),
            }
        payload["models"] = models
    _write_json(args.out, payload)
    _write_meta(args.out, config, inputs)
    print(
        f"consensus over {len(matrix.outputs)} outputs / {len(matrix.graders)} graders: "
        f"{'converged' if result.converged else 'truncated'} after {result.iterations} iteration(s)"
    )
    return 0


def cmd_chem(args: argparse.Namespace, config: RunConfig) -> int:
    store = _select_store(args.store, args.context)
    model_set = _model_set(store, config)
    if args.brute_force:
        table = chem_table_bruteforce(model_set)
    else:
        graph = build_mig(model_set)
        table = cheme(model_set, graph)
    table.to_csv(args.out)
    if args.json_out is not None:
        _write_json(args.json_out, table.to_json_obj(model_set))
    reported = llmcp_filter(table, config.tau)
    _write_meta(
        args.out,
        config,
        {"store": args.store},
        extra={
            "method": table.method,
            "model_set_fingerprint": model_set_fingerprint(model_set),
            "pairs_above_tau": len(reported),
        },
    )
    print(
        f"chemistry ({table.method}) over {len(model_set.profiles)} models: "
        f"{len(reported)} pair(s) above tau={config.tau}, max={table.max_score()!r}"
    )
    return 0


def cmd_recommend(args: argparse.Namespace, config: RunConfig) -> int:
    store = _select_store(args.store, args.context)
    model_set = _model_set(store, config)
    table = ChemistryTable.from_csv(args.chem, members=model_set.members)
    pool = CandidatePool.from_json(args.pool)
    params = LossParams(
        alpha=config.alpha,
        beta=config.beta,
        max_iters=config.max_iters,
        size_cap=args.size_cap,
    )
    result = recommend(pool, table, params)
    _write_json(args.out, result.to_json_obj())
    _write_meta(
        args.out,
        config,
        {"store": args.store, "chem": args.chem, "pool": args.pool},
        extra={"size_cap": args.size_cap},
    )
    flag = " [zero chemistry: consider single-model selection]" if result.zero_chemistry else ""
    print(
        f"recommended {sorted(result.subset)} at loss {result.loss!r} "
        f"from {len(pool.subsets)} seed(s){flag}"
    )
    return 0


def cmd_map(args: argparse.Namespace, config: RunConfig) -> int:
    store = _select_store(args.store, args.context)
    names = [name for name in args.ensemble.split(",") if name]
    points = []
    for name in names:
        if name not in store.profiles:
            raise LLMChemError(f"model {name!r} is not in the store")
        points.append(EnsemblePoint.from_profile(store.profiles[name]))
    grid = delta_ci_map(points, CIParams(lam=config.lam), grid_size=config.grid_size)
    grid.to_csv(args.out)
    summary_path = args.out.with_name(args.out.name + ".summary.json")
    _write_json(summary_path, grid.summary())
    _write_meta(args.out, config, {"store": args.store})
    print(
        f"map {grid.grid_size}x{grid.grid_size} for {names}: "
        f"max delta {grid.max_delta!r}, saturated={grid.saturated}"
    )
    return 0


def _load_ensembles(path: Path) -> list[list[str]]:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    ensembles = payload.get("ensembles") if isinstance(payload, dict) else None
    if not isinstance(ensembles, list) or not ensembles:
        raise LLMChemError(f"{path} must hold a non-empty 'ensembles' list")
    return [[str(name) for name in group] for group in ensembles]


def _task_matrix(records, members: list[str]) -> list[list[float]]:
    """Per-task mean accuracy rows for the given members; skips partial tasks."""
    by_task: dict[str, dict[str, list[float]]] = {}
    for record in records:
        by_task.setdefault(record.task, {}).setdefault(record.model, []).append(
            record.accuracy
        )
    rows = []
    skipped = 0
    for task in sorted(by_task):
        per_model = by_task[task]
        if any(m not in per_model for m in members):
            skipped += 1
            continue
        rows.append([sum(per_model[m]) / len(per_model[m]) for m in members])
    if skipped:
        logger.warning("skipped %d task(s) lacking records for some members", skipped)
    if not rows:
        raise LLMChemError("no task has records for every ensemble member")
    return rows


def cmd_eval(args: argparse.Namespace, config: RunConfig) -> int:
    store = _select_store(args.store, args.context)
    ensembles = _load_ensembles(args.ensembles)
    for group in ensembles:
        for name in group:
            if name not in store.profiles:
                raise LLMChemError(f"model {name!r} is not in the store")
    inputs = {"store": args.store, "ensembles": args.ensembles}
    extra: dict = {"metric": args.metric}
    rows: list[list[str]] = []

    if args.metric == "effectiveness":
        records = None
        if args.history is not None:
            records = parse_history_csv(args.history)
            inputs["history"] = args.history
        header = ["ensemble", "effectiveness"]
        for group in ensembles:
            if records is not None:
                matrix = _task_matrix(records, group)
            else:
                # Single pseudo-task over the stored profile accuracies.
                matrix = [[store.profiles[m].accuracy for m in group]]
            rows.append(["|".join(group), repr(effectiveness_soft_vote(matrix))])
    elif args.metric == "ci":
        header = ["ensemble", "ci"]
        params = CIParams(lam=config.lam)
        for group in ensembles:
            points = [EnsemblePoint.from_profile(store.profiles[m]) for m in group]
            rows.append(["|".join(group), repr(complementarity_index(points, params))])
    else:  # correlation
        if args.chem is None:
            raise LLMChemError("--metric correlation requires --chem")
        inputs["chem"] = args.chem
        model_set = _model_set(store, config)
        table = ChemistryTable.from_csv(args.chem, members=model_set.members)
        params = CIParams(lam=config.lam)
        header = ["ensemble", "chemistry", "ci"]
        chems, cis = [], []
        for group in ensembles:
            points = [EnsemblePoint.from_profile(store.profiles[m]) for m in group]
            pair_scores = [
                table.score(a, b)
                for i, a in enumerate(group)
                for b in group[i + 1 :]
            ]
            chem = sum(pair_scores) / len(pair_scores) if pair_scores else 0.0
            ci = complementarity_index(points, params)
            chems.append(chem)
            cis.append(ci)
            rows.append(["|".join(group), repr(chem), repr(ci)])
        try:
            extra["pearson_r"] = pearson_r(chems, cis)
        except UndefinedCorrelationError as exc:
            extra["pearson_r"] = None
            extra["pearson_note"] = str(exc)

    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    _write_meta(args.out, config, inputs, extra=extra)
    if "pearson_r" in extra:
        print(f"eval {args.metric}: {len(rows)} ensemble(s), pearson_r={extra['pearson_r']!r}")
    else:
        print(f"eval {args.metric}: {len(rows)} ensemble(s) written to {args.out}")
    return 0


def cmd_check(args: argparse.Namespace, config: RunConfig) -> int:
    store = _select_store(args.store, args.context)
    model_set = _model_set(store, config)
    failures = 0

    audited = model_set
    names = sorted(model_set.members)
    if len(names) > AUDIT_SIZE_GUARD:
        audited = ModelSet(
            profiles=tuple(model_set.profile(n) for n in names[:AUDIT_SIZE_GUARD]),
            empty_cost=model_set.empty_cost,
            used_threshold=model_set.used_threshold,
        )
        print(f"check: auditing the first {AUDIT_SIZE_GUARD} of {len(names)} models")
    report = audit_cost_properties(audited, trials=1000, seed=config.seed)
    for section in (report.monotonicity, report.linearity):
        status = "PASS" if section.clean else "FAIL"
        print(f"{status} {section.name}: {section.violations}/{section.trials} violations")
        if not section.clean:
            failures += 1
    print(
        f"INFO submodularity (diagnostic): {report.submodularity.violations}/"
        f"{report.submodularity.trials} violations, worst gap {report.submodularity.worst!r}"
    )

    # Zero-penalty homogeneous probe: identical perfect-quality profiles carry
    # no chemistry (every context cost vanishes, so no ratio is defined).
    probe_names = names[: min(len(names), 6)]
    if len(probe_names) >= 2:
        homogeneous = ModelSet(
            profiles=tuple(
                ModelProfile(n, quality=10.0, accuracy=0.9) for n in probe_names
            ),
            empty_cost=model_set.empty_cost,
            used_threshold=model_set.used_threshold,
        )
        table = chem_table_bruteforce(homogeneous)
        ok = table.max_score() == 0.0
        print(f"{'PASS' if ok else 'FAIL'} homogeneity probe: max chemistry {table.max_score()!r}")
        if not ok:
            failures += 1
    else:
        print("SKIP homogeneity probe: needs at least 2 models")

    usable = [n for n in names if model_set.profile(n).accuracy >= model_set.used_threshold]
    sample = usable[: min(len(usable), 6)]
    if len(sample) >= 2:
        subset = ModelSet(
            profiles=tuple(model_set.profile(n) for n in sample),
            empty_cost=model_set.empty_cost,
            used_threshold=model_set.used_threshold,
        )
        graph = build_mig(subset)
        fast = cheme(subset, graph)
        exact = chem_table_bruteforce(subset)
        mismatches = [
            (a, b)
            for a, b, value in fast.pairs()
            if value != exact.score(a, b)
        ]
        ok = not mismatches
        print(
            f"{'PASS' if ok else 'FAIL'} graph-vs-exhaustive on {len(sample)} usable models: "
            f"{len(mismatches)} mismatch(es)"
        )
        if not ok:
            failures += 1
    else:
        print("SKIP graph-vs-exhaustive: needs at least 2 usable models")

    print(f"check: {'all asserted sections passed' if failures == 0 else f'{failures} failure(s)'}")
    return 0 if failures == 0 else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="llmchem", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse history CSVs into a profile store")
    p.add_argument("csv", nargs="+", type=Path)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--grouping", choices=["all", "trial", "task"], default="all")
    p.add_argument("--aggregate", choices=["mean", "median"], default="mean")
    _add_config_flags(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("score", help="consensus grades and accuracy blending")
    p.add_argument("--grades", type=Path, required=True)
    p.add_argument("--ground-truth", type=Path)
    p.add_argument("--results", type=Path,
                   help="optional model,output_id,result CSV enabling generation accuracy")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--consensus-max-iters", type=int, default=20)
    p.add_argument("--consensus-tol", type=float, default=1e-6)
    _add_config_flags(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("chem", help="compute the pairwise chemistry table")
    p.add_argument("--store", type=Path, required=True)
    p.add_argument("--context", help="store context key when the file holds several")
    p.add_argument("--brute-force", action="store_true",
                   help="use the exhaustive enumerator instead of the graph")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--json-out", type=Path, help="also dump the table as JSON")
    _add_config_flags(p)
    p.set_defaults(func=cmd_chem)

    p = sub.add_parser("recommend", help="pick the best subset from a candidate pool")
    p.add_argument("--store", type=Path, required=True)
    p.add_argument("--context")
    p.add_argument("--chem", type=Path, required=True)
    p.add_argument("--pool", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--size-cap", type=int, default=10)
    _add_config_flags(p)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("map", help="marginal-complementarity grid for an ensemble")
    p.add_argument("--store", type=Path, required=True)
    p.add_argument("--context")
    p.add_argument("--ensemble", required=True, help="comma-separated model names")
    p.add_argument("--out", type=Path, required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("eval", help="ensemble metrics and correlations")
    p.add_argument("--store", type=Path, required=True)
    p.add_argument("--context")
    p.add_argument("--ensembles", type=Path, required=True)
    p.add_argument("--metric", choices=["effectiveness", "ci", "correlation"], required=True)
    p.add_argument("--chem", type=Path, help="chemistry CSV (required for correlation)")
    p.add_argument("--history", type=Path,
                   help="history CSV for per-task effectiveness")
    p.add_argument("--out", type=Path, required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check", help="run the property audits and oracle cross-checks")
    p.add_argument("--store", type=Path, required=True)
    p.add_argument("--context")
    _add_config_flags(p)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        config = _resolve_config(args)
        _echo_config(config)
        return args.func(args, config)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except LLMChemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
