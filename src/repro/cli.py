"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``
    Write a synthetic point data set to CSV (``x,y`` per line):
    the TIGER-like *water*/*roads* sets or uniform/clustered points.
``index``
    Build an R-tree over a CSV point file and save it as a snapshot.
``info``
    Print a snapshot's parameters and structure summary.
``query``
    Run a Figure 1 SQL query over named relations (CSV files or
    snapshots) and print result rows -- lazily, so ``STOP AFTER``
    queries return immediately.  An ``EXPLAIN [ANALYZE]`` prefix in
    the SQL prints the plan (estimated, or annotated with actual
    counters and stage timings) instead of rows; ``--metrics FILE``
    exports the execution's counters and timings as JSON-lines plus a
    Prometheus-style text dump.
``explain``
    Print the plan and cost estimates for a query without running it
    (``--analyze`` or an ``EXPLAIN ANALYZE`` prefix runs it and
    reports actuals).
``serve``
    Serve queries over HTTP with the preemptable join scheduler
    (``POST /query`` then ``GET /next`` pages -- see docs/SERVICE.md).
``shard``
    Build and inspect persistent shard catalogs (``shard build``,
    ``shard list``, ``shard stats``); route a query through shards
    with ``query --shards N`` or a ``SHARDS N`` hint in the SQL
    (see docs/SHARDING.md).

``query --page K`` prints K rows and persists the suspended cursor to
``--cursor FILE``; ``query --resume FILE`` continues it later without
recomputing anything.

Examples
--------
::

    python -m repro generate water --count 2000 --out water.csv
    python -m repro generate roads --count 10000 --out roads.csv
    python -m repro index water.csv --out water.tree
    python -m repro query \
        "SELECT * FROM w, r, DISTANCE(w.geom, r.geom) AS d \
         ORDER BY d STOP AFTER 5" \
        --relation w=water.tree --relation r=roads.csv
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Iterable, List, Optional

from repro.core.spec import JoinSpec
from repro.datasets.synthetic import gaussian_clusters, uniform_points
from repro.datasets.tiger_like import roads_points, water_points
from repro.errors import ReproError
from repro.geometry.point import Point
from repro.query.executor import Database
from repro.rtree.bulk import bulk_load_str
from repro.rtree.guttman import GuttmanRTree
from repro.storage.snapshot import load_tree, save_tree

GENERATORS = {
    "water": lambda count, seed: water_points(count),
    "roads": lambda count, seed: roads_points(count),
    "uniform": lambda count, seed: uniform_points(count, seed),
    "clusters": lambda count, seed: gaussian_clusters(count, seed),
}


def _write_csv(points: Iterable[Point], path: str) -> int:
    count = 0
    with open(path, "w") as handle:
        for point in points:
            handle.write(",".join(f"{c:.10g}" for c in point.coords))
            handle.write("\n")
            count += 1
    return count


def _read_csv(path: str) -> List[Point]:
    points = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                points.append(
                    Point(float(cell) for cell in line.split(","))
                )
            except (ValueError, ReproError) as exc:
                raise SystemExit(
                    f"{path}:{line_number}: bad point row: {exc}"
                )
    return points


def _load_relation(source: str):
    if source.endswith(".csv"):
        return bulk_load_str(_read_csv(source))
    return load_tree(source)


def _parse_relation_args(pairs: List[str]) -> List[tuple]:
    relations = []
    for pair in pairs:
        name, __, source = pair.partition("=")
        if not name or not source:
            raise SystemExit(
                f"--relation expects name=source, got {pair!r}"
            )
        relations.append((name, source))
    return relations


def _build_database(relation_args: List[str]) -> Database:
    db = Database()
    for name, source in _parse_relation_args(relation_args):
        db.create_relation(name, _load_relation(source))
    return db


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    """``repro generate``: write a synthetic data set to CSV."""
    generator = GENERATORS[args.kind]
    count = _write_csv(generator(args.count, args.seed), args.out)
    print(f"wrote {count} points to {args.out}")
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    """``repro index``: build a tree snapshot from a CSV file."""
    points = _read_csv(args.source)
    if args.guttman:
        tree = GuttmanRTree(
            dim=points[0].dim if points else 2,
            max_entries=args.fanout,
        )
        for point in points:
            tree.insert(obj=point)
    else:
        tree = bulk_load_str(points, max_entries=args.fanout)
    save_tree(tree, args.out)
    print(
        f"indexed {len(tree)} points into {type(tree).__name__} "
        f"(height {tree.height}, fan-out {tree.max_entries}) "
        f"-> {args.out}"
    )
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    """``repro info``: describe a tree snapshot."""
    tree = load_tree(args.snapshot)
    bounds = tree.bounds()
    print(f"class:       {type(tree).__name__}")
    print(f"objects:     {len(tree)}")
    print(f"dimensions:  {tree.dim}")
    print(f"height:      {tree.height}")
    print(f"fan-out:     {tree.max_entries} "
          f"(min fill {tree.min_entries})")
    print(f"pages:       {tree.store.page_count}")
    if bounds is not None:
        print(f"bounds:      {bounds!r}")
    if len(tree):
        from repro.rtree.stats import tree_quality
        print(f"quality:     {tree_quality(tree)}")
    return 0


def _start_profiler(path: Optional[str]):
    """An enabled :class:`cProfile.Profile` when ``path`` is set."""
    if not path:
        return None
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    return profiler


def _stop_profiler(profiler, path: Optional[str]) -> None:
    """Dump collected pstats to ``path`` (read with ``pstats`` or
    ``snakeviz``); no-op when profiling was not requested."""
    if profiler is None or not path:
        return
    profiler.disable()
    profiler.dump_stats(path)
    print(f"-- profile -> {path} (pstats)", file=sys.stderr)


def _print_row(row) -> None:
    coords1 = ",".join(f"{c:g}" for c in row.geom1.coords) \
        if isinstance(row.geom1, Point) else ""
    coords2 = ",".join(f"{c:g}" for c in row.geom2.coords) \
        if isinstance(row.geom2, Point) else ""
    print(
        f"{row.d:.6f}\t{row.oid1}\t{coords1}\t"
        f"{row.oid2}\t{coords2}"
    )


def _print_progress(estimator, plan, final: bool = False) -> None:
    """One ``-- progress`` line on stderr from the plan's signals.

    The certified bound ratchets inside ``estimator``, so successive
    lines never move backwards even if the probe does.
    """
    signals = plan.progress_signals() if plan is not None else None
    if signals is None:
        return
    if final:
        signals["done"] = True
    report = estimator.report(signals)
    print(
        f"-- progress: phase={report.phase} "
        f"certified>={report.lower_bound:.3f} "
        f"estimate={report.estimate:.3f}",
        file=sys.stderr,
    )


def _cmd_query_paged(args: argparse.Namespace) -> int:
    """``repro query --page K``: fetch one page, persist the cursor.

    A fresh run needs the SQL; ``--resume FILE`` continues from a
    cursor file instead (the same ``--relation`` bindings must be
    supplied -- the cursor stores execution state, not the data).
    """
    import os

    from repro.service import cursor as service_cursor
    from repro.service.session import QuerySource

    db = _build_database(args.relation)
    if args.resume:
        with open(args.resume, "rb") as handle:
            state = service_cursor.loads(handle.read())
        # load() adopts the query text and strategy the cursor pins.
        source = QuerySource(db, args.sql or "")
        source.load(state)
        if args.sql and args.sql != source.sql:
            raise SystemExit(
                "error: the cursor was saved for a different query; "
                "omit the SQL argument when resuming"
            )
        rows = source.open()
    else:
        if not args.sql:
            raise SystemExit("error: a SQL query is required "
                             "(or --resume CURSOR_FILE)")
        source = QuerySource(db, args.sql, strategy=args.strategy)
        rows = source.open()

    page = args.page if args.page is not None else 16
    printed = 0
    exhausted = False
    while printed < page:
        try:
            row = next(rows)
        except StopIteration:
            exhausted = True
            break
        _print_row(row)
        printed += 1

    if args.progress:
        from repro.util.telemetry import ProgressEstimator

        _print_progress(
            ProgressEstimator(), source.plan, final=exhausted
        )
    cursor_path = args.cursor or args.resume
    print(f"-- {printed} row(s)", file=sys.stderr)
    if exhausted:
        print("-- done (stream exhausted)", file=sys.stderr)
        if cursor_path and os.path.exists(cursor_path):
            os.remove(cursor_path)
        return 0
    if not cursor_path:
        print(
            "-- warning: no --cursor file given; progress discarded",
            file=sys.stderr,
        )
        return 0
    blob = service_cursor.dumps(source.save())
    with open(cursor_path, "wb") as handle:
        handle.write(blob)
    print(
        f"-- cursor -> {cursor_path} "
        f"(resume with: repro query --resume {cursor_path} ...)",
        file=sys.stderr,
    )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """``repro query``: run a SQL query, streaming rows to stdout."""
    from repro.query.parser import parse
    from repro.util.obs import Observer, write_metrics
    from repro.util.telemetry import TraceContext

    if args.page is not None or args.resume:
        return _cmd_query_paged(args)
    if not args.sql:
        raise SystemExit("error: a SQL query is required")
    db = _build_database(args.relation)
    query = parse(args.sql)
    if args.workers is not None and args.shards is not None:
        raise SystemExit(
            "error: --workers is a spelling of --shards; give one"
        )
    shards = args.workers if args.shards is None else args.shards
    if shards is not None:
        # The flag and the SQL hint are one setting; the flag wins.
        query.shards = shards

    if query.explain:
        if not query.analyze:
            print(db.explain(query, strategy=args.strategy).pretty())
            return 0
        profiler = _start_profiler(args.profile)
        try:
            analyzed = db.explain_analyze(query, strategy=args.strategy)
        finally:
            _stop_profiler(profiler, args.profile)
        print(analyzed.pretty())
        if args.metrics:
            write_metrics(args.metrics, records=analyzed.metrics(
                labels={"command": "query", "mode": "explain_analyze"}
            ))
            print(f"-- metrics -> {args.metrics} (+ .prom)",
                  file=sys.stderr)
        return 0

    observe = bool(args.metrics or args.trace)
    obs = Observer(
        trace=TraceContext.mint() if args.trace else None
    ) if observe else None
    before = db.counters.full_snapshot() if args.metrics else None
    spec = JoinSpec(kernel=args.kernel)
    plan = None
    estimator = None
    if args.progress:
        from repro.util.telemetry import ProgressEstimator

        plan = db.physical_plan(
            query, strategy=args.strategy, spec=spec, observer=obs
        )
        estimator = ProgressEstimator()
    profiler = _start_profiler(args.profile)
    try:
        if plan is not None:
            rows = plan.rows()
        else:
            rows = db.execute(
                query, strategy=args.strategy, spec=spec, observer=obs
            )
        printed = 0
        last_report = time.monotonic() if args.progress else 0.0
        for row in rows:
            _print_row(row)
            printed += 1
            if args.limit is not None and printed >= args.limit:
                break
            if (
                estimator is not None
                and time.monotonic() - last_report >= 0.5
            ):
                _print_progress(estimator, plan)
                last_report = time.monotonic()
    finally:
        _stop_profiler(profiler, args.profile)
    if estimator is not None:
        _print_progress(estimator, plan, final=True)
    print(f"-- {printed} row(s)", file=sys.stderr)
    if args.metrics:
        delta = db.counters.full_snapshot().delta_from(before)
        write_metrics(args.metrics, counters=delta, obs=obs,
                      labels={"command": "query"})
        print(f"-- metrics -> {args.metrics} (+ .prom)",
              file=sys.stderr)
    if args.trace and obs is not None:
        from repro.util.tracing import observer_trace, write_chrome_trace

        write_chrome_trace(
            args.trace,
            observer_trace(obs, process_name="repro query"),
            metadata={"sql": args.sql},
        )
        print(f"-- trace -> {args.trace} (Perfetto/chrome://tracing)",
              file=sys.stderr)
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """``repro explain``: print a query plan without executing."""
    from repro.query.parser import parse

    db = _build_database(args.relation)
    query = parse(args.sql)
    if query.analyze or getattr(args, "analyze", False):
        print(db.explain_analyze(query, strategy=args.strategy).pretty())
    else:
        print(db.explain(query, strategy=args.strategy).pretty())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the preemptable join service over HTTP."""
    from repro.service.server import run

    db = _build_database(args.relation)
    names = ", ".join(db.relations()) or "(none)"
    print(
        f"serving relations [{names}] on "
        f"http://{args.host}:{args.port} "
        f"(quantum {args.quantum_pairs} pairs / "
        f"{args.quantum_seconds}s; Ctrl-C to stop)",
        file=sys.stderr,
    )
    run(
        db,
        host=args.host,
        port=args.port,
        # Share the database's registry so the join's own counters
        # (dist_calcs, node_io, shard_pairs_*) surface on /metrics
        # next to the scheduler's.
        counters=db.counters,
        quantum_pairs=args.quantum_pairs,
        quantum_seconds=args.quantum_seconds,
        max_sessions=args.max_sessions,
        spool_dir=args.spool_dir,
        idle_evict_seconds=args.idle_evict_seconds,
        telemetry=not args.no_telemetry,
        latency_budget_seconds=args.latency_budget,
        dump_dir=args.dump_dir,
        log_json=args.log_json,
    )
    return 0


def cmd_shard_build(args: argparse.Namespace) -> int:
    """``repro shard build``: partition a relation into a persisted
    shard catalog (one R-tree snapshot per shard + a manifest)."""
    from repro.shard.catalog import ShardCatalog

    tree = _load_relation(args.source)
    catalog = ShardCatalog.build(tree, shards=args.shards)
    path = catalog.save(args.out)
    print(f"catalog:     {args.out}")
    print(f"manifest:    {path}")
    print(f"shards:      {len(catalog)} (requested {args.shards}, "
          f"method {catalog.method})")
    print(f"objects:     {sum(i.count for i in catalog.infos)}")
    print(f"fingerprint: {catalog.fingerprint}")
    return 0


def cmd_shard_list(args: argparse.Namespace) -> int:
    """``repro shard list``: summarize a persisted catalog."""
    from repro.shard.catalog import ShardCatalog

    catalog = ShardCatalog.open(args.catalog)
    print(f"catalog:     {len(catalog)} shards "
          f"({catalog.method}, dim {catalog.dim})")
    print(f"fingerprint: {catalog.fingerprint}")
    for info in catalog.infos:
        print(
            f"  shard {info.shard_id:4d}  tile {info.tile_index:4d}  "
            f"{info.count:7,d} objects  "
            f"mbr {info.mbr!r}  {info.fingerprint[:12]}"
        )
    return 0


def cmd_shard_stats(args: argparse.Namespace) -> int:
    """``repro shard stats``: per-shard cost-model summaries."""
    from repro.shard.catalog import ShardCatalog

    catalog = ShardCatalog.open(args.catalog)
    shard_ids = (
        [args.shard] if args.shard is not None else catalog.shard_ids
    )
    for shard_id in shard_ids:
        info = catalog.info(shard_id)
        stats = catalog.stats(shard_id)
        nodes = sum(level.nodes for level in stats.levels)
        leaf = stats.levels[0]
        fill = stats.size / max(1, leaf.nodes)
        print(
            f"shard {shard_id}: {info.count:,} objects, "
            f"height {stats.height}, {nodes} nodes, "
            f"avg leaf fill {fill:.2f}"
        )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the registered benchmark cases matching a glob and print
    their measurements (the suite, without its trajectory file)."""
    import fnmatch
    import json

    from repro.bench.registry import cases_for
    from repro.bench.suite import run_suite, summary

    names = [case.name for case in cases_for(args.tier)]
    if not fnmatch.filter(names, args.name):
        print(
            f"error: no benchmark named {args.name!r}; the "
            f"{args.tier} tier has: {', '.join(names)}",
            file=sys.stderr,
        )
        return 1
    profiler = _start_profiler(args.profile)
    try:
        entry = run_suite(
            args.tier, repeat=args.repeat, scale=args.scale,
            case_pattern=args.name,
        )
    finally:
        _stop_profiler(profiler, args.profile)
    if args.json:
        print(json.dumps(entry, indent=1, sort_keys=True))
    else:
        print(summary(entry))
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for testing/docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Incremental distance joins for spatial data "
            "(Hjaltason & Samet, SIGMOD 1998)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="write a synthetic point data set to CSV"
    )
    generate.add_argument("kind", choices=sorted(GENERATORS))
    generate.add_argument("--count", type=int, default=1000)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True)
    generate.set_defaults(func=cmd_generate)

    index = commands.add_parser(
        "index", help="build an R-tree snapshot from a CSV point file"
    )
    index.add_argument("source")
    index.add_argument("--out", required=True)
    index.add_argument("--fanout", type=int, default=50)
    index.add_argument(
        "--guttman", action="store_true",
        help="build a classic R-tree by repeated insertion",
    )
    index.set_defaults(func=cmd_index)

    info = commands.add_parser(
        "info", help="describe a tree snapshot"
    )
    info.add_argument("snapshot")
    info.set_defaults(func=cmd_info)

    query = commands.add_parser(
        "query", help="run a distance (semi-)join SQL query"
    )
    query.add_argument(
        "sql", nargs="?", default=None,
        help="the query text (optional with --resume)",
    )
    query.add_argument(
        "--relation", action="append", default=[],
        metavar="NAME=SOURCE",
        help="bind a relation name to a .csv file or tree snapshot "
             "(repeatable)",
    )
    query.add_argument(
        "--limit", type=int, default=None,
        help="stop printing after this many rows (the pipeline stops "
             "with it)",
    )
    query.add_argument(
        "--workers", type=_positive_int, default=None, metavar="N",
        help="a spelling of --shards N (same as a PARALLEL N hint in "
             "the SQL)",
    )
    query.add_argument(
        "--shards", type=_positive_int, default=None, metavar="N",
        help="route the join through N-shard catalogs per relation "
             "(same as a SHARDS N hint in the SQL)",
    )
    query.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="write the execution's counters and timings to FILE as "
             "JSON-lines, plus a Prometheus-style dump to FILE.prom",
    )
    query.add_argument(
        "--trace", default=None, metavar="FILE",
        help="export the execution's spans/gauges/events as Chrome "
             "trace-event JSON (open in Perfetto or chrome://tracing)",
    )
    query.add_argument(
        "--strategy", choices=("auto", "pipeline", "prefilter"),
        default="auto",
        help="predicate plan for WHERE attribute filters: push them "
             "into the join pipeline, prefilter into temporary "
             "indexes, or let the cost model decide (default)",
    )
    query.add_argument(
        "--kernel", choices=("auto", "scalar", "vector"),
        default="auto",
        help="batch-kernel selection for node expansion: vectorized "
             "bounds when numpy is importable (auto, the default), "
             "the pure-Python path (scalar), or require the numpy "
             "kernels (vector); results are identical either way",
    )
    query.add_argument(
        "--profile", default=None, metavar="FILE",
        help="run under cProfile and dump pstats to FILE",
    )
    query.add_argument(
        "--progress", action="store_true",
        help="report certified progress on stderr while the query "
             "runs (phase, certified lower bound, estimate)",
    )
    query.add_argument(
        "--page", type=_positive_int, default=None, metavar="K",
        help="interactive paging: print K rows, persist the suspended "
             "cursor to --cursor, and exit",
    )
    query.add_argument(
        "--cursor", default=None, metavar="FILE",
        help="where --page writes the suspended cursor",
    )
    query.add_argument(
        "--resume", default=None, metavar="FILE",
        help="continue a paged query from a cursor file written by a "
             "previous --page run (same --relation bindings required)",
    )
    query.set_defaults(func=cmd_query)

    explain = commands.add_parser(
        "explain", help="show the plan and cost estimate for a query"
    )
    explain.add_argument("sql")
    explain.add_argument(
        "--relation", action="append", default=[],
        metavar="NAME=SOURCE",
    )
    explain.add_argument(
        "--analyze", action="store_true",
        help="execute the query and annotate the plan with actual "
             "counters and stage timings (EXPLAIN ANALYZE)",
    )
    explain.add_argument(
        "--strategy", choices=("auto", "pipeline", "prefilter"),
        default="auto",
        help="predicate plan to explain: pipeline pushdown, prefilter "
             "materialization, or the cost model's choice (default)",
    )
    explain.set_defaults(func=cmd_explain)

    shard = commands.add_parser(
        "shard",
        help="build and inspect persistent shard catalogs",
    )
    shard_commands = shard.add_subparsers(
        dest="shard_command", required=True
    )
    shard_build = shard_commands.add_parser(
        "build",
        help="partition a relation into a persisted shard catalog",
    )
    shard_build.add_argument(
        "source", help="a .csv point file or tree snapshot"
    )
    shard_build.add_argument("--out", required=True, metavar="DIR")
    shard_build.add_argument(
        "--shards", type=_positive_int, default=4, metavar="N",
        help="requested shard count (empty tiles are dropped)",
    )
    shard_build.set_defaults(func=cmd_shard_build)
    shard_list = shard_commands.add_parser(
        "list", help="summarize a persisted shard catalog"
    )
    shard_list.add_argument("catalog", metavar="DIR")
    shard_list.set_defaults(func=cmd_shard_list)
    shard_stats = shard_commands.add_parser(
        "stats", help="per-shard cost-model summaries"
    )
    shard_stats.add_argument("catalog", metavar="DIR")
    shard_stats.add_argument(
        "--shard", type=int, default=None, metavar="ID",
        help="one shard id (default: all)",
    )
    shard_stats.set_defaults(func=cmd_shard_stats)

    serve = commands.add_parser(
        "serve",
        help="serve queries over HTTP with the preemptable join "
             "scheduler",
    )
    serve.add_argument(
        "--relation", action="append", default=[],
        metavar="NAME=SOURCE",
        help="bind a relation name to a .csv file or tree snapshot "
             "(repeatable)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument(
        "--quantum-pairs", type=_positive_int, default=64,
        help="max rows one scheduler quantum produces per session",
    )
    serve.add_argument(
        "--quantum-seconds", type=float, default=0.05,
        help="wall-clock budget of one quantum",
    )
    serve.add_argument(
        "--max-sessions", type=_positive_int, default=256,
        help="admission cap on concurrent sessions",
    )
    serve.add_argument(
        "--spool-dir", default=None, metavar="DIR",
        help="evict idle sessions' cursors to DIR (eviction is off "
             "without it)",
    )
    serve.add_argument(
        "--idle-evict-seconds", type=float, default=30.0,
        help="idle threshold before a session is spooled to disk",
    )
    serve.add_argument(
        "--log-json", action="store_true",
        help="log every request as one structured JSON line (method, "
             "path, status, duration, session, trace id) on stdout",
    )
    serve.add_argument(
        "--latency-budget", type=float, default=None,
        metavar="SECONDS",
        help="flag scheduler quanta that exceed this wall-clock "
             "budget (service_slow_quanta counter + flight-recorder "
             "dump when --dump-dir is set)",
    )
    serve.add_argument(
        "--dump-dir", default=None, metavar="DIR",
        help="where slow-quantum trace dumps are written "
             "(requires --latency-budget)",
    )
    serve.add_argument(
        "--no-telemetry", action="store_true",
        help="disable request-scoped tracing and progress estimation "
             "(the /debug and /progress endpoints report errors)",
    )
    serve.set_defaults(func=cmd_serve)

    bench = commands.add_parser(
        "bench",
        help="run registered benchmark cases by name (a table or "
             "figure of the paper is a glob: 'table1.*', 'fig6.*')",
    )
    bench.add_argument(
        "name", metavar="GLOB",
        help="case-name glob, e.g. 'table1.*', 'fig9.*', 'ab3.*' "
             "(python -m repro.bench.suite --list names them all)",
    )
    bench.add_argument(
        "--tier", default="smoke", choices=["smoke", "full"],
        help="whose budgets and scale to run at (default: smoke; "
             "full is the paper's cardinalities)",
    )
    bench.add_argument(
        "--scale", type=float, default=None,
        help="workload scale override (default: the tier's)",
    )
    bench.add_argument(
        "--repeat", type=_positive_int, default=None, metavar="N",
        help="min-of-N repetitions per case (default: the tier's)",
    )
    bench.add_argument(
        "--json", action="store_true",
        help="print the whole trajectory entry as JSON",
    )
    bench.add_argument(
        "--profile", default=None, metavar="FILE",
        help="run under cProfile and dump pstats to FILE",
    )
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
