"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``    write a seeded workload (retail or grades) to CSV directories
``match``       run contextual matching between two CSV directories
``match-many``  match several source directories against one shared target,
                preparing the target exactly once; ``--jobs N`` fans the
                batch across N worker processes (bit-identical results)
``match-repo``  route source directories against *every* prepared hub in an
                artifact store (or a ``--targets`` subset), each source
                profiled once and ranked best-first across hubs
                (:class:`~repro.TargetRepository`)
``map``         additionally generate + execute the extended-Clio mapping
``scenarios``   the scenario registry: ``list`` registered specs, ``run``
                one or more end-to-end (build, match, score against ground
                truth), with the same ``--jobs N`` fan-out
``store``       the persistent artifact store: ``save`` a prepared target,
                ``load`` (verify) an artifact, ``list`` entries, ``gc``
                unreferenced/corrupt files
``serve``       matching as a service: a JSON-over-HTTP server answering
                match / match-many requests against stored targets kept
                warm in a token-keyed LRU

Batch commands run on :class:`~repro.MatchExecutor`, and ``--jobs N``
alone decides how: serial for ``N == 1``, an N-worker process pool
otherwise.  With the flag their ``--json`` output carries an
``executor`` section (the serialized :class:`~repro.ThroughputReport`:
backend, transport, workers, tasks, wall and per-task seconds, chunk /
transfer / worker-cache counters).

CSV directories contain one ``<table>.csv`` per table (header row; types
are inferred).  All knobs of :class:`~repro.ContextMatchConfig` that matter
operationally are exposed as flags (including the candidate-retrieval
frontier: ``--retrieval-top-k N`` / ``--no-retrieval``, whose pair/recall
counters appear as a ``retrieval`` section in every matching command's
``--json`` output); ``--config path.json`` loads a full
serialized configuration (see
:func:`~repro.context.serialize.config_to_dict`), with explicit flags
overriding file values.  All matching commands run on
:class:`~repro.MatchEngine`; ``--json`` output includes the per-stage
:class:`~repro.RunReport`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import signal
import sys
from typing import Sequence

from . import (ContextMatchConfig, ExecutorConfig, MatchEngine,
               MatchExecutor, __version__)
from .context.serialize import (config_from_dict, result_to_dict,
                                throughput_to_dict)
from .datagen import (get_scenario, make_grades_workload,
                      make_retail_workload, registered_scenarios)
from .mapping import generate_mapping
from .relational import dump_database, load_database

__all__ = ["main", "build_parser", "config_from_args"]

#: argparse dest -> ContextMatchConfig field for the shared matching flags.
_CONFIG_FLAGS = {
    "tau": "tau",
    "omega": "omega",
    "inference": "inference",
    "selection": "selection",
    "conjunctive_stages": "conjunctive_stages",
    "retrieval_top_k": "retrieval_top_k",
    "seed": "seed",
}

#: Stage-count keys summed into the ``retrieval`` section of ``--json``
#: output (see :class:`~repro.engine.stages.ScoreCandidatesStage`).
_RETRIEVAL_COUNT_KEYS = ("retrieval_queries", "pairs_considered",
                         "pairs_pruned", "retrieval_hits",
                         "retrieval_missed")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_matching_flags(cmd: argparse.ArgumentParser) -> None:
    """Config-mapped flags use ``SUPPRESS`` defaults so ``--config`` file
    values win unless a flag is given explicitly (defaults in help text)."""
    cmd.add_argument("--config", default=None, metavar="PATH.json",
                     help="load a serialized ContextMatchConfig; explicit "
                          "flags override file values")
    cmd.add_argument("--inference", default=argparse.SUPPRESS,
                     choices=["naive", "src", "tgt"],
                     help="candidate-view generator (default: tgt)")
    cmd.add_argument("--selection", default=argparse.SUPPRESS,
                     choices=["qualtable", "multitable"],
                     help="match selection policy (default: qualtable)")
    cmd.add_argument("--tau", type=float, default=argparse.SUPPRESS,
                     help="standard-matcher confidence threshold "
                          "(default: 0.5)")
    cmd.add_argument("--omega", type=float, default=argparse.SUPPRESS,
                     help="QualTable improvement threshold in percent "
                          "(default: 5.0)")
    cmd.add_argument("--late-disjuncts", action="store_true",
                     default=argparse.SUPPRESS,
                     help="use LateDisjuncts instead of EarlyDisjuncts")
    cmd.add_argument("--conjunctive-stages", type=int,
                     default=argparse.SUPPRESS,
                     help="ContextMatch iterations for conjunctive "
                          "conditions (default: 1)")
    cmd.add_argument("--retrieval-top-k", type=_positive_int,
                     default=argparse.SUPPRESS, metavar="N",
                     help="candidate-retrieval frontier size per source "
                          "attribute (default: 16)")
    cmd.add_argument("--no-retrieval", action="store_true",
                     default=argparse.SUPPRESS,
                     help="score candidate views against every target "
                          "attribute instead of pruning with the "
                          "retrieval index")
    cmd.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                     help="train/test partitioning seed (default: 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Contextual schema matching (Bohannon et al., VLDB'06)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a seeded workload to CSV")
    gen.add_argument("workload", choices=["retail", "grades"])
    gen.add_argument("out", help="output directory (gets src/ and tgt/)")
    gen.add_argument("--target", default="ryan",
                     choices=["ryan", "aaron", "barrett"])
    gen.add_argument("--gamma", type=int, default=4)
    gen.add_argument("--rows", type=int, default=1000)
    gen.add_argument("--sigma", type=float, default=10.0)
    gen.add_argument("--seed", type=int, default=0)

    for name, help_text in (("match", "run contextual matching"),
                            ("map", "match, then generate+run the mapping")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("source", help="source CSV directory")
        cmd.add_argument("target", help="target CSV directory")
        _add_matching_flags(cmd)
        if name == "match":
            cmd.add_argument("--json", action="store_true",
                             help="emit matches as JSON instead of text")
        if name == "map":
            cmd.add_argument("--out", default=None,
                             help="directory for the migrated instance")
            cmd.add_argument("--min-confidence", type=float, default=0.6)

    many = sub.add_parser(
        "match-many",
        help="match several sources against one shared target")
    many.add_argument("target", help="target CSV directory (prepared once)")
    many.add_argument("sources", nargs="+",
                      help="source CSV directories, matched in order")
    _add_matching_flags(many)
    many.add_argument("--jobs", type=_positive_int, default=None, metavar="N",
                      help="fan sources out across N workers "
                           "(results are bit-identical to the serial "
                           "default; 1 forces the serial executor)")
    many.add_argument("--json", action="store_true",
                      help="emit one JSON document with all results")

    repo = sub.add_parser(
        "match-repo",
        help="route sources against every prepared hub in a store")
    repo.add_argument("sources", nargs="+",
                      help="source CSV directories, routed in order")
    repo.add_argument("--store", required=True, metavar="DIR",
                      help="artifact store of prepared hub targets")
    repo.add_argument("--targets", nargs="+", default=None, metavar="TOKEN",
                      help="restrict routing to these stored target tokens "
                           "(default: every prepared target in the store)")
    _add_matching_flags(repo)
    repo.add_argument("--jobs", type=_positive_int, default=None, metavar="N",
                      help="fan the source × hub grid across N workers "
                           "(bit-identical rankings)")
    repo.add_argument("--json", action="store_true",
                      help="emit one JSON document with every ranking; the "
                           "winning hub carries its full match result")

    scenarios = sub.add_parser(
        "scenarios", help="list or run registered workload scenarios")
    scenario_sub = scenarios.add_subparsers(dest="scenario_command",
                                            required=True)
    listing = scenario_sub.add_parser(
        "list", help="show every registered scenario spec")
    listing.add_argument("--json", action="store_true",
                         help="emit the specs as JSON")
    run = scenario_sub.add_parser(
        "run", help="build, match and score one or more scenarios")
    run.add_argument("names", nargs="+", metavar="name",
                     help="registered scenario names "
                          "(see `repro scenarios list`)")
    run.add_argument("--seed", type=int, default=None,
                     help="override the specs' seed")
    run.add_argument("--size", type=int, default=None,
                     help="override the specs' source-size budget")
    run.add_argument("--retrieval-top-k", type=_positive_int,
                     default=argparse.SUPPRESS, metavar="N",
                     help="override the specs' retrieval frontier size")
    run.add_argument("--no-retrieval", action="store_true",
                     default=argparse.SUPPRESS,
                     help="run the specs without retrieval pruning")
    run.add_argument("--jobs", type=_positive_int, default=None, metavar="N",
                     help="fan scenarios out across N workers "
                          "(bit-identical results; also switches the "
                          "output to the batch shape with executor "
                          "counters)")
    run.add_argument("--json", action="store_true",
                     help="emit the full ScenarioResult (metrics, "
                          "counters, per-stage report) as JSON; with "
                          "several names or --jobs, a batch document "
                          "with `results` and `executor` sections")

    store = sub.add_parser(
        "store", help="manage the persistent prepared-artifact store")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    save = store_sub.add_parser(
        "save", help="prepare a target CSV directory and persist it")
    save.add_argument("target", help="target CSV directory")
    save.add_argument("--store", required=True, metavar="DIR",
                      help="artifact store directory (created if missing)")
    _add_matching_flags(save)
    save.add_argument("--json", action="store_true",
                      help="emit the store entry as JSON")
    load = store_sub.add_parser(
        "load", help="load + integrity-check one artifact by token")
    load.add_argument("token", help="artifact content token (sha256)")
    load.add_argument("--store", required=True, metavar="DIR")
    load.add_argument("--json", action="store_true",
                      help="emit the verified entry as JSON")
    listing = store_sub.add_parser("list", help="list store entries")
    listing.add_argument("--store", required=True, metavar="DIR")
    listing.add_argument("--json", action="store_true",
                         help="emit the entries as JSON")
    gc = store_sub.add_parser(
        "gc", help="remove orphaned/corrupt files, optionally evict "
                   "down to a budget")
    gc.add_argument("--store", required=True, metavar="DIR")
    gc.add_argument("--max-entries", type=_positive_int, default=None,
                    metavar="N", help="evict oldest entries beyond N")
    gc.add_argument("--no-verify", action="store_true",
                    help="skip blob digest verification during the sweep")
    gc.add_argument("--json", action="store_true",
                    help="emit the removal map as JSON")

    serve = sub.add_parser(
        "serve", help="serve match requests over HTTP from a store")
    serve.add_argument("--store", required=True, metavar="DIR",
                       help="artifact store of prepared hub targets")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642,
                       help="listen port (0 = ephemeral; default: 8642)")
    serve.add_argument("--jobs", type=_positive_int, default=None,
                       metavar="N",
                       help="workers for /match-many batches")
    serve.add_argument("--max-targets", type=_positive_int, default=8,
                       metavar="N", help="warm-LRU capacity (default: 8)")
    _add_matching_flags(serve)
    serve.add_argument("--json", action="store_true",
                       help="emit the startup line as JSON")
    serve.add_argument("--startup-only", action="store_true",
                       help="bind, warm the LRU, print the startup line "
                            "and exit (smoke-testing)")
    serve.add_argument("--verbose", action="store_true",
                       help="log each request to stderr")
    return parser


def config_from_args(args: argparse.Namespace) -> ContextMatchConfig:
    """Build the run configuration: ``--config`` file (or defaults) as the
    base, overridden by whichever flags were given explicitly."""
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as handle:
                base = config_from_dict(json.load(handle))
        except (OSError, ValueError) as exc:
            raise SystemExit(
                f"repro: error: cannot load --config {args.config}: {exc}")
    else:
        base = ContextMatchConfig()
    overrides = {field: getattr(args, dest)
                 for dest, field in _CONFIG_FLAGS.items()
                 if hasattr(args, dest)}
    if hasattr(args, "late_disjuncts"):
        overrides["early_disjuncts"] = not args.late_disjuncts
    if hasattr(args, "no_retrieval"):
        overrides["use_retrieval"] = False
    return dataclasses.replace(base, **overrides) if overrides else base


def _absorb_retrieval_counts(totals: dict, result) -> None:
    """Sum one result's retrieval stage counters into *totals* (keyed by
    :data:`_RETRIEVAL_COUNT_KEYS`); results without a report contribute
    nothing."""
    report = getattr(result, "report", None)
    if report is None:
        return
    for stage in report.stages:
        for key in _RETRIEVAL_COUNT_KEYS:
            totals[key] += int(stage.counts.get(key, 0))


def _retrieval_section(config: ContextMatchConfig, totals: dict) -> dict:
    """The ``retrieval`` block of the matching commands' ``--json``
    output: the configured frontier knobs, the summed pair/query
    counters, and the derived recall (1.0 when nothing was prunable)."""
    prunable = totals["retrieval_hits"] + totals["retrieval_missed"]
    return {
        "enabled": config.use_retrieval,
        "top_k": config.retrieval_top_k,
        "queries": totals["retrieval_queries"],
        "pairs_considered": totals["pairs_considered"],
        "pairs_pruned": totals["pairs_pruned"],
        "hits": totals["retrieval_hits"],
        "missed": totals["retrieval_missed"],
        "recall": (totals["retrieval_hits"] / prunable
                   if prunable else 1.0),
    }


def _retrieval_section_for(config: ContextMatchConfig,
                           results) -> dict:
    """:func:`_retrieval_section` over an in-memory result collection."""
    totals = {key: 0 for key in _RETRIEVAL_COUNT_KEYS}
    for result in results:
        _absorb_retrieval_counts(totals, result)
    return _retrieval_section(config, totals)


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.workload == "retail":
        workload = make_retail_workload(target=args.target,
                                        gamma=args.gamma,
                                        n_source=args.rows, seed=args.seed)
    else:
        workload = make_grades_workload(sigma=args.sigma, seed=args.seed)
    dump_database(workload.source, f"{args.out}/src")
    dump_database(workload.target, f"{args.out}/tgt")
    print(f"wrote {args.out}/src and {args.out}/tgt")
    print("ground truth:")
    for entry in workload.ground_truth:
        print(f"  {entry}")
    return 0


def _run_matching(args: argparse.Namespace):
    source = load_database(args.source, name="source")
    target = load_database(args.target, name="target")
    config = config_from_args(args)
    result = MatchEngine(config).match(source, target)
    return source, target, config, result


def _print_result(result) -> None:
    print(f"# {len(result.matches)} matches "
          f"({len(result.contextual_matches)} contextual, "
          f"{result.elapsed_seconds:.2f}s)")
    for match in result.matches:
        print(match)


def _cmd_match(args: argparse.Namespace) -> int:
    _, _, config, result = _run_matching(args)
    if args.json:
        print(json.dumps(
            {"__version__": __version__, **result_to_dict(result),
             "retrieval": _retrieval_section_for(config, [result])},
            indent=2, default=str))
        return 0
    _print_result(result)
    return 0


def _cmd_match_many(args: argparse.Namespace) -> int:
    target = load_database(args.target, name="target")
    config = config_from_args(args)
    engine = MatchEngine(config)
    prepared = engine.prepare(target)
    if args.jobs is not None:
        # Executor fan-out: the whole batch — every loaded source and
        # every MatchResult — is held in memory at once, trading the
        # sequential loop's flat memory profile for wall-clock; prefer
        # the default (no --jobs) path for very large batches on small
        # machines.  Results are bit-identical either way.
        with MatchExecutor(ExecutorConfig.for_jobs(args.jobs)) as executor:
            batch = executor.match_many(
                engine,
                [load_database(d, name="source") for d in args.sources],
                prepared)
        if args.json:
            rendered = [{"source": source_dir, **result_to_dict(result)}
                        for source_dir, result in zip(args.sources, batch)]
            print(json.dumps(
                {"__version__": __version__, "target": args.target,
                 "results": rendered,
                 "retrieval": _retrieval_section_for(config, batch),
                 "executor": throughput_to_dict(batch.throughput)},
                indent=2, default=str))
        else:
            for source_dir, result in zip(args.sources, batch):
                print(f"== {source_dir}")
                _print_result(result)
            print(f"# executor: {batch.throughput}")
        return 0
    # Full MatchResults (with their view/candidate diagnostics) are dropped
    # as soon as each source is rendered, so batch memory stays flat; the
    # retrieval counters are absorbed into running totals for the same
    # reason.
    rendered = []
    totals = {key: 0 for key in _RETRIEVAL_COUNT_KEYS}
    for source_dir in args.sources:
        source = load_database(source_dir, name="source")
        result = engine.match(source, prepared)
        _absorb_retrieval_counts(totals, result)
        if args.json:
            rendered.append({"source": source_dir, **result_to_dict(result)})
        else:
            print(f"== {source_dir}")
            _print_result(result)
    if args.json:
        print(json.dumps(
            {"__version__": __version__, "target": args.target,
             "results": rendered,
             "retrieval": _retrieval_section(config, totals)},
            indent=2, default=str))
    return 0


def _cmd_match_repo(args: argparse.Namespace) -> int:
    # Lazy imports: the matching-only commands don't need the store stack.
    from .errors import EngineError, StoreError
    from .repository import TargetRepository, repository_result_to_dict
    from .store import ArtifactStore

    engine = MatchEngine(config_from_args(args))
    try:
        repository = TargetRepository.from_store(
            ArtifactStore(args.store), engine, tokens=args.targets)
        sources = [load_database(d, name=d) for d in args.sources]
        executor = (MatchExecutor(ExecutorConfig.for_jobs(args.jobs))
                    if args.jobs is not None else None)
        try:
            batch = repository.route_many(sources, executor=executor)
        finally:
            if executor is not None:
                executor.close()
    except (StoreError, EngineError) as exc:
        raise SystemExit(f"repro: error: {exc}")
    if args.json:
        print(json.dumps(
            {"__version__": __version__, "store": args.store,
             "targets": list(repository.tokens()),
             "results": [{"source_dir": source_dir,
                          **repository_result_to_dict(routed,
                                                      results="best")}
                         for source_dir, routed
                         in zip(args.sources, batch)],
             "repository": dict(repository.counters)},
            indent=2, default=str))
        return 0
    for source_dir, routed in zip(args.sources, batch):
        print(f"== {source_dir}")
        print(routed)
        for rank, hub in enumerate(routed.ranking, start=1):
            print(f"  {rank}. {hub.database:<20} score={hub.score:.3f} "
                  f"coverage={hub.coverage:.2f} "
                  f"matches={hub.n_matches} "
                  f"contextual={hub.n_contextual}  {hub.token[:12]}")
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    source, target, _, result = _run_matching(args)
    if not result.matches:
        print("no matches found; nothing to map", file=sys.stderr)
        return 1
    mapping = generate_mapping(result.matches, source, target.schema,
                               min_confidence=args.min_confidence)
    print(mapping.explain())
    migrated = mapping.execute(source)
    for relation in migrated:
        print(f"# migrated {relation.name}: {len(relation)} rows")
    if args.out:
        dump_database(migrated, args.out)
        print(f"wrote migrated instance to {args.out}")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    # Imported lazily: the scenario runner pulls in the full evaluation
    # stack, which the matching-only commands don't need.
    from .errors import ReproError
    from .evaluation.scenarios import (run_scenario, run_scenarios,
                                       scenario_config,
                                       scenario_result_to_dict)

    if args.scenario_command == "list":
        specs = registered_scenarios()
        if args.json:
            print(json.dumps([spec.to_dict() for spec in specs], indent=2))
            return 0
        for spec in specs:
            print(spec)
        return 0

    try:
        specs = [get_scenario(name) for name in args.names]
    except ReproError as exc:
        raise SystemExit(f"repro: error: {exc}")
    if args.size is not None:
        specs = [spec.resized(args.size) for spec in specs]
    if args.seed is not None:
        specs = [dataclasses.replace(spec, seed=args.seed)
                 for spec in specs]
    retrieval_overrides = {}
    if hasattr(args, "retrieval_top_k"):
        retrieval_overrides["retrieval_top_k"] = args.retrieval_top_k
    if hasattr(args, "no_retrieval"):
        retrieval_overrides["use_retrieval"] = False
    if retrieval_overrides:
        # Folded into each spec's own config overrides so the flags reach
        # worker processes through the spec itself (nothing new shipped).
        specs = [dataclasses.replace(
                     spec,
                     config=tuple({**dict(spec.config),
                                   **retrieval_overrides}.items()))
                 for spec in specs]
    # The retrieval section reflects the first spec's resolved config;
    # CLI flags apply uniformly across the batch.
    section_config = scenario_config(specs[0])

    if args.jobs is None and len(specs) == 1:
        # Single-scenario runs keep the original output shape.
        result = run_scenario(specs[0])
        if args.json:
            print(json.dumps(
                {"__version__": __version__,
                 **scenario_result_to_dict(result),
                 "retrieval": _retrieval_section_for(section_config,
                                                     [result])},
                indent=2, default=str))
            return 0
        print(result)
        return 0

    with MatchExecutor(ExecutorConfig.for_jobs(args.jobs)) as executor:
        batch = run_scenarios(specs, executor=executor)
    if args.json:
        print(json.dumps(
            {"__version__": __version__,
             "results": [scenario_result_to_dict(r) for r in batch],
             "retrieval": _retrieval_section_for(section_config, batch),
             "executor": throughput_to_dict(batch.throughput)},
            indent=2, default=str))
        return 0
    for result in batch:
        print(result)
    print(f"# executor: {batch.throughput}")
    return 0


def _store_json(payload: dict, store) -> str:
    """Every ``--json`` surface of store/serve carries the library
    version and the store path."""
    return json.dumps({"__version__": __version__,
                       "store": str(store.root), **payload},
                      indent=2, default=str)


def _cmd_store(args: argparse.Namespace) -> int:
    # Lazy import: matching-only commands don't need the store stack.
    from .errors import StoreError
    from .store import ArtifactStore

    store = ArtifactStore(args.store)
    try:
        if args.store_command == "save":
            target = load_database(args.target, name="target")
            engine = MatchEngine(config_from_args(args))
            entry = store.save(engine.prepare(target), engine=engine)
            if args.json:
                print(_store_json({"entry": entry.to_dict()}, store))
            else:
                dedup = store.counters["dedup_hits"] > 0
                print(f"{'already stored' if dedup else 'saved'} "
                      f"{entry.database} as {entry.token} "
                      f"({entry.size_bytes} bytes)")
            return 0
        if args.store_command == "load":
            prepared = store.load_target(args.token)
            entry = store.entry(args.token)
            if args.json:
                print(_store_json({"entry": entry.to_dict(),
                                   "verified": True}, store))
            else:
                print(f"ok: {entry.database} "
                      f"({entry.size_bytes} bytes, verified) -> {prepared!r}")
            return 0
        if args.store_command == "list":
            entries = store.entries()
            if args.json:
                print(_store_json(
                    {"entries": [e.to_dict() for e in entries],
                     "total_bytes": store.total_bytes()}, store))
            else:
                for entry in entries:
                    print(f"{entry.token}  {entry.database:<20} "
                          f"{entry.size_bytes:>9}B  "
                          f"{entry.created_at}")
                print(f"# {len(entries)} entries, "
                      f"{store.total_bytes()} bytes")
            return 0
        removed = store.gc(max_entries=args.max_entries,
                           verify=not args.no_verify)
        if args.json:
            print(_store_json({"removed": removed,
                               "remaining": len(store)}, store))
        else:
            for stem, reason in removed.items():
                print(f"removed {stem}: {reason}")
            print(f"# {len(removed)} removed, {len(store)} entries remain")
        return 0
    except StoreError as exc:
        raise SystemExit(f"repro: error: {exc}")


def _interrupt(signum: int, frame: object) -> None:
    raise KeyboardInterrupt


def _cmd_serve(args: argparse.Namespace) -> int:
    from .errors import StoreError
    from .service import MatchService
    from .service.http import MatchServer

    with MatchService(args.store, config=config_from_args(args),
                      jobs=args.jobs, capacity=args.max_targets) as service:
        try:
            warmed = service.warm()
        except StoreError as exc:
            raise SystemExit(f"repro: error: {exc}")
        server = MatchServer((args.host, args.port), service,
                             verbose=args.verbose)
        executor = service.executor
        startup = {"serving": f"http://{args.host}:{server.port}",
                   "targets_warmed": len(warmed),
                   "jobs": executor.config.resolved_workers(),
                   "backend": executor.config.backend,
                   "transport": executor.transport,
                   "capacity": service.capacity}
        if args.json:
            print(_store_json(startup, service.store), flush=True)
        else:
            print(f"repro serve {__version__}: {startup['serving']} "
                  f"(store {service.store.root}, {len(warmed)} targets "
                  f"warm)", flush=True)
        if args.startup_only:
            server.server_close()
            return 0
        # SIGTERM stops the server as Ctrl-C does, so leaving the service
        # shuts the worker pool down instead of it outliving the process.
        previous = signal.signal(signal.SIGTERM, _interrupt)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            signal.signal(signal.SIGTERM, previous)
            server.server_close()
        return 0


def main(argv: Sequence[str] | None = None) -> int:
    from .errors import EngineError

    args = build_parser().parse_args(argv)
    handlers = {"generate": _cmd_generate, "match": _cmd_match,
                "match-many": _cmd_match_many, "match-repo": _cmd_match_repo,
                "map": _cmd_map, "scenarios": _cmd_scenarios,
                "store": _cmd_store, "serve": _cmd_serve}
    try:
        return handlers[args.command](args)
    except EngineError as exc:
        # Engine refusals (an artifact prepared under another
        # configuration, an empty repository) are user errors, not
        # tracebacks.
        raise SystemExit(f"repro: error: {exc}")
    except BrokenPipeError:
        # Output was piped into a consumer that stopped reading (head);
        # exit quietly like a well-behaved Unix tool.
        sys.stderr.close()
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
