"""Command-line pipeline: ingest -> score -> chem -> recommend -> map / eval / check.

A ``--config`` file holds the settings of the whole pipeline; each subcommand
takes flags only for those it reads.  Every run echoes its effective settings,
and every output file gets a ``<name>.meta.json`` sidecar recording them and the
SHA-256 of each input, so identical inputs and flags reproduce identical bytes.

Exit codes: 0 success, 1 validation or usage error, 2 internal invariant
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Iterable

from . import __version__
from .chemistry import ChemistryTable, check_tau, chem_table_bruteforce, llmcp_filter, profile_chemistry
from .complementarity import (
    DEFAULT_GRID_SIZE,
    CIParams,
    EnsemblePoint,
    check_grid_size,
    complementarity_index,
    delta_ci_map,
    effectiveness_by_task,
    pearson_r,
    task_accuracies,
)
from .consensus import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    PRIOR_VARIANCE,
    check_consensus_knobs,
    combined_accuracy,
    generation_accuracy,
    load_grades_csv,
    load_ground_truth_csv,
    load_results_csv,
    review_accuracy_from_variance,
    vancouver_consensus,
)
from .core import (
    ModelProfile,
    ModelSet,
    check_cost_knobs,
    left_sum,
    model_set_fingerprint,
    used_subset,
)
from .errors import (
    DomainError,
    InvalidConfigurationError,
    LLMChemError,
    ParseError,
    SizeLimitError,
    UndefinedCorrelationError,
    warn,
)
from .files import read_json, read_name_lists, sha256_of, write_csv, write_json
from .history import build_profiles, iter_history_rows, read_profiles, write_profiles
from .recommend import CandidatePool, LossParams, recommend

#: The settings of the whole pipeline, all echoed as ``config:`` and recorded in
#: every sidecar: config key -> (default, help, range check, the subcommands
#: that read it and so take its flag; ``--config`` may set any key).  Values the
#: library uses take their default and their check from the type or function
#: that uses them; ``tau`` and ``seed`` are used by the CLI alone.  ``eval``
#: reads ``lambda`` only by ``--metric ci`` or ``correlation`` (``_check_inputs``).
_SETTINGS = {
    "alpha": (LossParams.alpha, "inter/intra loss balance", lambda v: LossParams(alpha=v),
              ("recommend",)),
    "beta": (LossParams.beta, "subset size penalty", lambda v: LossParams(beta=v), ("recommend",)),
    "lambda": (CIParams.lam, "coverage/diversity trade-off", lambda v: CIParams(lam=v),
               ("map", "eval")),
    "tau": (0.0, "chemistry report threshold", check_tau, ("chem",)),
    "used_threshold": (ModelSet.used_threshold, "accuracy cut-off for usable outputs",
                       lambda v: check_cost_knobs(ModelSet.empty_cost, v), ("chem", "check")),
    "empty_cost": (ModelSet.empty_cost, "cost of a configuration with no usable output",
                   lambda v: check_cost_knobs(v, ModelSet.used_threshold), ("chem", "check")),
    "max_iters": (LossParams.max_iters, "hill-climb budget per seed",
                  lambda v: LossParams(max_iters=v), ("recommend",)),
    "grid_size": (DEFAULT_GRID_SIZE, "chemistry map resolution", check_grid_size, ("map",)),
    "seed": (0, "seed for audits and diagnostics", lambda v: None, ("check",)),
}

#: Subcommand flags outside the shared settings: argparse dest -> range check.
_FLAG_CHECKS = {
    "consensus_max_iters": lambda value: check_consensus_knobs(max_iters=value),
    "consensus_tol": lambda value: check_consensus_knobs(tol=value),
    "size_cap": lambda value: LossParams(size_cap=value),
}

#: Subcommand -> its input files, by argparse dest -> when it reads one: "always"
#: (a required flag; ingest's CSVs are positional), "if given", or (dest, value,
#: required): only when that dest holds ``value`` (None: any value), and then
#: required or not.  The parser declares the flags from it, the rules are checked
#: before any file is read, and the sidecar records each given input by dest.
_INPUTS = {
    "ingest": {"csv": "always"},
    "score": {"grades": "always", "ground_truth": ("results", None, False), "results": "if given"},
    "chem": {"store": "always"},
    "recommend": {"store": "always", "chem": "always", "pool": "always"},
    "map": {"store": "always"},
    "eval": {"store": "always", "ensembles": "always", "chem": ("metric", "correlation", True),
             "history": ("metric", "effectiveness", False)},
    "check": {"store": "always"},
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _add_config_flags(parser: argparse.ArgumentParser, command: str) -> None:
    parser.add_argument("--config", type=Path, help="JSON file of config defaults")
    for key, (default, text, _, readers) in _SETTINGS.items():
        if command in readers:
            parser.add_argument(
                _flag(key), dest=key, type=type(default),
                metavar="LAM" if key == "lambda" else None,  # CIParams' name for it
                help=f"{text} (default {default})",
            )


def _reader(by: str, value: str | None) -> str:
    return f"with {_flag(by)}" if value is None else f"by {_flag(by)} {value}"


def _add_inputs(parser: argparse.ArgumentParser, command: str) -> None:
    for dest, when in _INPUTS[command].items():
        if dest == "csv":
            parser.add_argument("csv", nargs="+", type=Path, help="history CSVs")
        elif isinstance(when, str):
            parser.add_argument(_flag(dest), type=Path, required=when == "always")
        else:
            by, value, required = when
            parser.add_argument(_flag(dest), type=Path, help=f"read only {_reader(by, value)}"
                                + (", which requires it" if required else ""))
        if dest == "store":
            parser.add_argument("--context", help="store context key when the file holds several")


def _check_inputs(args: argparse.Namespace) -> None:
    """Reject an input or ``eval --lambda`` given where it is not read, then an input left out."""
    missing = []
    for dest, when in _INPUTS[args.command].items():
        if isinstance(when, str):
            continue
        by, value, required = when
        chosen, given = getattr(args, by), getattr(args, dest) is not None
        read = chosen is not None if value is None else chosen == value
        if given and not read:
            other = "" if value is None else f", not by {_flag(by)} {chosen}"
            raise _UsageError(f"{_flag(dest)} is read only {_reader(by, value)}{other}")
        if required and read and not given:
            missing.append(f"{_flag(by)} {value} requires {_flag(dest)}")
    if getattr(args, "metric", None) == "effectiveness" and getattr(args, "lambda") is not None:
        raise _UsageError("--lambda is read only by --metric ci or --metric correlation, "
                          "not by --metric effectiveness")
    if missing:
        raise _UsageError(missing[0])


def _resolve_config(args: argparse.Namespace) -> dict:
    """Defaults, then the ``--config`` file, then flags; every value type- and range-checked.

    The input-file rules and the subcommand's own numeric flags are checked
    first, naming the flag, so a usage error never waits on a file.
    """
    _check_inputs(args)
    for dest, check in _FLAG_CHECKS.items():
        value = getattr(args, dest, None)
        if value is None:
            continue
        try:
            check(value)
        except DomainError as exc:
            raise _UsageError(f"{_flag(dest)} is out of range: {exc}") from None
    given: list[tuple[str, object, str]] = []  # (key, value, where it came from)
    if args.config is not None:
        payload = read_json(args.config)
        if not isinstance(payload, dict):
            raise ParseError("a config file must hold a JSON object", path=args.config)
        stray = sorted(set(payload) - set(_SETTINGS))
        if stray:
            raise _UsageError(f"unknown config keys in {args.config}: {stray}")
        given += [(key, value, f"in {args.config}") for key, value in payload.items()]
    given += [(key, getattr(args, key, None), "on the command line")
              for key in _SETTINGS if getattr(args, key, None) is not None]
    config = {key: default for key, (default, _, _, _) in _SETTINGS.items()}
    for key, value, where in given:
        default, _, check, _ = _SETTINGS[key]
        whole = isinstance(default, int)
        number = isinstance(value, int if whole else (int, float)) and not isinstance(value, bool)
        if not number or not -math.inf < value < math.inf:
            kind = "an integer" if whole else "a finite number"
            raise _UsageError(f"config key {key!r} {where} must be {kind}, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # an int beyond every float; compared exactly
            raise _UsageError(f"config key {key!r} {where} is out of range: its magnitude "
                              f"exceeds the largest float, {sys.float_info.max!r}")
        try:
            check(value)
        except DomainError as exc:
            raise _UsageError(f"config key {key!r} {where} is out of range: {exc}") from None
        config[key] = value
    return config


def _echo_config(config: dict) -> None:
    print("config: " + json.dumps(config, sort_keys=True))


def _write_meta(args: argparse.Namespace, config: dict, extra: dict | None = None) -> None:
    """Write ``<out>.meta.json``: the config, each given input's path and SHA-256, and ``extra``.

    A store picked with ``--context`` is named under ``"context"``.
    """
    inputs = {}
    for dest in _INPUTS[args.command]:
        value = getattr(args, dest)
        if isinstance(value, list):  # ingest's CSVs
            inputs.update((f"{dest}{i}", path) for i, path in enumerate(value))
        elif value is not None:
            inputs[dest] = value
    meta = {
        "package": "llmchem",
        "version": __version__,
        "config": config,
        "inputs": {
            label: {"path": str(path), "sha256": sha256_of(path)}
            for label, path in inputs.items()
        },
    }
    if getattr(args, "context", None) is not None:
        meta["context"] = args.context
    if extra:
        meta.update(extra)
    write_json(args.out.with_name(args.out.name + ".meta.json"), meta)


def _select_store(path: Path, context: str | None):
    stores = {store.context_key: store for store in read_profiles(path)}
    if context is None and len(stores) == 1:
        (context,) = stores
    if context is None:
        raise LLMChemError(
            f"{path} holds {len(stores)} stores ({list(stores)}); pick one with --context"
        )
    if context not in stores:
        raise LLMChemError(f"no store with context {context!r} in {path}")
    return stores[context]


def _model_set(store, config: dict) -> ModelSet:
    return store.to_model_set(
        empty_cost=config["empty_cost"], used_threshold=config["used_threshold"]
    )


def cmd_ingest(args: argparse.Namespace, config: dict) -> int:
    stores = build_profiles(
        iter_history_rows(*args.csv),
        grouping=args.grouping,
        aggregate=args.aggregate,
        sources=[str(p) for p in args.csv],
    )
    if not stores:
        raise ParseError("a history CSV needs at least one record",
                         path=", ".join(map(str, args.csv)))
    records = sum(n for store in stores for n in store.provenance["record_counts"].values())
    write_profiles(stores, args.out)
    _write_meta(args, config)
    print(f"ingested {records} records into {len(stores)} store(s) at {args.out}")
    return 0


def cmd_score(args: argparse.Namespace, config: dict) -> int:
    matrix = load_grades_csv(args.grades)
    result = vancouver_consensus(
        matrix, max_iters=args.consensus_max_iters, tol=args.consensus_tol
    )
    payload: dict = {
        "consensus": result.consensus,
        "variance": result.variance,
        "review_accuracy": result.review_accuracy,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    if args.results is not None:
        references = load_ground_truth_csv(args.ground_truth) if args.ground_truth else None
        outputs_by_model = load_results_csv(args.results)
        models: dict[str, dict] = {}
        for model, outputs in outputs_by_model.items():
            scores = []
            for output_id, text in outputs:
                reference = references.get(output_id) if references else None
                scores.append(generation_accuracy(text, reference))
            gen = left_sum(scores) / len(scores)
            # Generators that never graded keep the review accuracy of the prior variance.
            review = result.review_accuracy.get(
                model, review_accuracy_from_variance(PRIOR_VARIANCE)
            )
            has_gt = references is not None
            models[model] = {
                "generation_accuracy": gen,
                "review_accuracy": review,
                "has_ground_truth": has_gt,
                "accuracy": combined_accuracy(gen, review, has_gt),
            }
        payload["models"] = models
    write_json(args.out, payload)
    _write_meta(args, config)
    print(
        f"consensus over {len(matrix.outputs)} outputs / {len(matrix.graders)} graders: "
        f"{'converged' if result.converged else 'truncated'} after {result.iterations} iteration(s)"
    )
    return 0


def cmd_chem(args: argparse.Namespace, config: dict) -> int:
    store = _select_store(args.store, args.context)
    model_set = _model_set(store, config)
    try:
        if args.brute_force:
            table = chem_table_bruteforce(model_set)
        else:
            table = profile_chemistry(model_set)
    except (InvalidConfigurationError, SizeLimitError) as exc:  # too few or too many models
        raise ParseError(str(exc), path=args.store) from None
    table.to_csv(args.out)
    reported = llmcp_filter(table, config["tau"])
    _write_meta(args, config, {
        "method": table.method,
        "model_set_fingerprint": model_set_fingerprint(model_set),
        "pairs_above_tau": len(reported),
    })
    print(
        f"chemistry ({table.method}) over {len(model_set.profiles)} models: "
        f"{len(reported)} pair(s) above tau={config['tau']}, max={table.max_score()!r}"
    )
    return 0


def _check_in_store(groups: Iterable[Iterable[str]], store, store_path: Path, path: Path) -> None:
    """Reject the models that the groups read from ``path`` name but the store lacks."""
    missing = frozenset().union(*groups) - store.profiles.keys()
    if missing:
        raise ParseError(f"models not in the store {store_path}: {sorted(missing)}", path=path)


def cmd_recommend(args: argparse.Namespace, config: dict) -> int:
    store = _select_store(args.store, args.context)
    table = ChemistryTable.from_csv(args.chem, members=frozenset(store.profiles))
    pool = CandidatePool.from_json(args.pool)
    _check_in_store(pool.subsets, store, args.store, args.pool)
    params = LossParams(
        alpha=config["alpha"],
        beta=config["beta"],
        max_iters=config["max_iters"],
        size_cap=args.size_cap,
    )
    result = recommend(pool, table, params)
    write_json(args.out, result.to_json_obj())
    _write_meta(args, config, {"size_cap": args.size_cap, "stats": result.stats})
    flag = " [zero chemistry: consider single-model selection]" if result.zero_chemistry else ""
    print(
        f"recommended {sorted(result.subset)} at loss {result.loss!r} "
        f"from {len(pool.subsets)} seed(s){flag}"
    )
    return 0


def _ensemble_arg(value: str) -> list[str]:
    """``--ensemble``: comma-separated model names, none empty, none twice."""
    names = value.split(",")
    if not all(names) or len(set(names)) < len(names):
        raise argparse.ArgumentTypeError(f"needs distinct, non-empty model names: {value!r}")
    return names


def cmd_map(args: argparse.Namespace, config: dict) -> int:
    store = _select_store(args.store, args.context)
    names = args.ensemble
    points = []
    for name in names:
        if name not in store.profiles:
            raise ParseError(f"--ensemble names model {name!r}, which is not in the store",
                             path=args.store)
        points.append(EnsemblePoint.from_profile(store.profiles[name]))
    grid = delta_ci_map(points, CIParams(lam=config["lambda"]), grid_size=config["grid_size"])
    grid.to_csv(args.out)
    summary_path = args.out.with_name(args.out.name + ".summary.json")
    write_json(summary_path, grid.summary())
    _write_meta(args, config)
    print(
        f"map {grid.grid_size}x{grid.grid_size} for {names}: "
        f"max delta {grid.max_delta!r}, saturated={grid.saturated}"
    )
    return 0


def _load_ensembles(path: Path) -> list[list[str]]:
    ensembles = read_name_lists(path, "ensembles")
    for number, group in enumerate(ensembles, start=1):
        if len(set(group)) < len(group):
            raise ParseError(f"ensemble {number} names a model twice: {group}", path=path)
    return ensembles


def cmd_eval(args: argparse.Namespace, config: dict) -> int:
    store = _select_store(args.store, args.context)
    ensembles = _load_ensembles(args.ensembles)
    _check_in_store(ensembles, store, args.store, args.ensembles)
    extra: dict = {"metric": args.metric}
    rows: list[list] = []

    if args.metric == "effectiveness":
        if args.history:
            accuracies = task_accuracies(iter_history_rows(args.history))
            if not accuracies:
                raise ParseError("a history CSV needs at least one record", path=args.history)
        else:  # one pseudo-task over the stored profile accuracies
            accuracies = {"": {name: profile.accuracy for name, profile in store.profiles.items()}}
        header = ["ensemble", "effectiveness"]
        votes = effectiveness_by_task(accuracies, ensembles)
        for number, (group, (value, skipped)) in enumerate(zip(ensembles, votes), start=1):
            if skipped:
                warn(__name__, f"skipped {skipped} task(s) lacking records for some members")
            if value is None:
                raise ParseError(
                    f"no task has records for every member of ensemble {number}: {group}",
                    path=args.history,
                )
            rows.append(["|".join(group), value])
    else:
        params = CIParams(lam=config["lambda"])
        cis = []
        for group in ensembles:
            points = [EnsemblePoint.from_profile(store.profiles[m]) for m in group]
            cis.append(complementarity_index(points, params))
        if args.metric == "ci":
            header = ["ensemble", "ci"]
            rows = [["|".join(group), ci] for group, ci in zip(ensembles, cis)]
        else:  # correlation
            table = ChemistryTable.from_csv(args.chem, members=frozenset(store.profiles))
            header = ["ensemble", "chemistry", "ci"]
            chems = []
            for group, ci in zip(ensembles, cis):
                pair_scores = [table.score(a, b) for i, a in enumerate(group)
                               for b in group[i + 1:]]
                chems.append(left_sum(pair_scores) / len(pair_scores) if pair_scores else 0.0)
                rows.append(["|".join(group), chems[-1], ci])
            try:
                extra["pearson_r"] = pearson_r(chems, cis)
            except UndefinedCorrelationError as exc:
                extra["pearson_r"] = None
                extra["pearson_note"] = str(exc)

    write_csv(args.out, header, rows)
    _write_meta(args, config, extra)
    if "pearson_r" in extra:
        print(f"eval {args.metric}: {len(rows)} ensemble(s), pearson_r={extra['pearson_r']!r}")
    else:
        print(f"eval {args.metric}: {len(rows)} ensemble(s) written to {args.out}")
    return 0


def cmd_check(args: argparse.Namespace, config: dict) -> int:
    from . import audit  # only check audits; its names are looked up per call

    store = _select_store(args.store, args.context)
    model_set = _model_set(store, config)
    failures = 0

    def restricted(profiles) -> ModelSet:
        return model_set.replace(profiles=tuple(profiles))

    audited = model_set
    names = sorted(model_set.members)
    if len(names) > audit.AUDIT_SIZE_GUARD:
        audited = restricted(model_set.profile(n) for n in names[:audit.AUDIT_SIZE_GUARD])
        print(f"check: auditing the first {audit.AUDIT_SIZE_GUARD} of {len(names)} models")
    report = audit.audit_cost_properties(audited, trials=1000, seed=config["seed"])
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
        homogeneous = restricted(
            ModelProfile(n, quality=10.0, accuracy=0.9) for n in probe_names
        )
        table = chem_table_bruteforce(homogeneous)
        ok = table.max_score() == 0.0
        print(f"{'PASS' if ok else 'FAIL'} homogeneity probe: max chemistry {table.max_score()!r}")
        if not ok:
            failures += 1
    else:
        print("SKIP homogeneity probe: needs at least 2 models")

    usable = sorted(used_subset(model_set, names))
    sample = usable[: min(len(usable), 6)]
    if len(sample) >= 2:
        subset = restricted(model_set.profile(n) for n in sample)
        fast = profile_chemistry(subset)
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


#: Subcommand -> (handler, help text, its own flags as (flag, add_argument
#: keywords)).  Its inputs come first, from ``_INPUTS``, and ``--config`` with
#: the settings it reads last, from ``_SETTINGS``.
_OUT = ("--out", {"type": Path, "required": True})
_COMMANDS = {
    "ingest": (cmd_ingest, "parse history CSVs into a profile store", [
        _OUT,
        ("--grouping", {"choices": ["all", "trial", "task"], "default": "all"}),
        ("--aggregate", {"choices": ["mean", "median"], "default": "mean"}),
    ]),
    "score": (cmd_score, "consensus grades and accuracy blending", [
        _OUT,
        ("--consensus-max-iters", {"type": int, "default": DEFAULT_MAX_ITERS}),
        ("--consensus-tol", {"type": float, "default": DEFAULT_TOL}),
    ]),
    "chem": (cmd_chem, "compute the pairwise chemistry table", [
        ("--brute-force", {"action": "store_true",
                           "help": "use the exhaustive enumerator instead of the graph"}),
        _OUT,
    ]),
    "recommend": (cmd_recommend, "pick the best subset from a candidate pool", [
        _OUT,
        ("--size-cap", {"type": int, "default": LossParams.size_cap}),
    ]),
    "map": (cmd_map, "marginal-complementarity grid for an ensemble", [
        ("--ensemble", {"required": True, "type": _ensemble_arg,
                        "help": "comma-separated model names"}),
        _OUT,
    ]),
    "eval": (cmd_eval, "ensemble metrics and correlations", [
        ("--metric", {"choices": ["effectiveness", "ci", "correlation"], "required": True}),
        _OUT,
    ]),
    "check": (cmd_check, "run the property audits and oracle cross-checks", []),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser: with ``command``'s subparser alone when given, else with all of them."""
    parser = _Parser(prog="llmchem", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, flags) in _COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        _add_inputs(p, name)
        for flag, options in flags:
            p.add_argument(flag, **options)
        _add_config_flags(p, name)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A run parses one subcommand, so it builds that one's parser only; help,
    # --version or an unknown name get them all, to list every choice.
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
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
    except (LLMChemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
