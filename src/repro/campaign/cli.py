"""The ``python -m repro`` command line interface.

Subcommands:

* ``repro list`` -- the scenario registry as a table (all E1-E13 entries);
* ``repro solvers`` -- the solver registry with capability columns
  (``--markdown`` emits the README table, ``--problem FILE`` reports which
  solvers admit a stored problem instance);
* ``repro run <scenario> [--param k=v ...]`` -- run one scenario (through
  the result cache) and print its experiment table;
* ``repro campaign <file-or-"all"> [--smoke] [--jobs N]`` -- expand a JSON
  campaign declaration (or the built-in every-scenario campaign), execute
  it in parallel, and report the cache hit count;
* ``repro report [scenario]`` -- re-render the cached result records as
  tables without recomputing anything;
* ``repro cache stats|gc|verify`` -- inspect the persistent result store
  (per-namespace entry/byte counts), evict it down to a byte budget, or
  re-verify every record's content checksum (quarantining mismatches).

``python -m repro serve`` (the v1 JSON API over HTTP) is routed by
:mod:`repro.__main__` straight to :mod:`repro.api.server`, before this
module or anything else of the campaign stack is imported.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from collections.abc import Mapping, Sequence
from typing import Any

from ..experiments.reporting import format_value, rows_to_table
from ..solvers import capability_rows, solvers_for
from .cache import ResultCache
from .registry import get_scenario, iter_scenarios
from .runner import run_campaign
from .sweep import all_scenarios_campaign, expand_campaign, load_campaign_file

__all__ = ["main", "build_parser", "parse_param", "parse_bytes",
           "render_result", "solver_table_markdown"]


# ----------------------------------------------------------------------
# parameter parsing and result rendering
# ----------------------------------------------------------------------
def parse_param(text: str) -> tuple[str, Any]:
    """Parse one ``--param key=value`` argument.

    Values are Python literals where possible (``sizes=2,4`` becomes the
    tuple ``(2, 4)``, ``slack=1.5`` a float, ``none``/``true``/``false``
    the obvious singletons); anything unparseable stays a string, which is
    what string-typed knobs like ``engine=batch`` expect.
    """
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"--param expects key=value, got {text!r}")
    lowered = raw.strip().lower()
    if lowered in ("none", "null"):
        return key, None
    if lowered == "true":
        return key, True
    if lowered == "false":
        return key, False
    try:
        return key, ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        return key, raw


def render_result(result: Any, *, title: str | None = None,
                  columns: Sequence[str] | None = None) -> str:
    """Render an experiment result (row list or dict of sections) as text."""
    if isinstance(result, Sequence) and not isinstance(result, (str, bytes)) \
            and all(isinstance(row, Mapping) for row in result):
        return rows_to_table(list(result), title=title, columns=columns)
    if isinstance(result, Mapping):
        lines = [title] if title else []
        for key, value in result.items():
            if isinstance(value, list) and value \
                    and all(isinstance(row, Mapping) for row in value):
                lines.append("")
                lines.append(rows_to_table(value, title=f"[{key}]"))
            else:
                lines.append(f"{key}: {format_value(value)}")
        return "\n".join(lines)
    return f"{title}\n{result}" if title else str(result)


def _print_progress(line: str) -> None:
    print(line, flush=True)


class _UsageError(Exception):
    """A user mistake (bad name, bad file): message only, no traceback."""


def _lookup_scenario(name: str):
    try:
        return get_scenario(name)
    except KeyError as exc:
        raise _UsageError(exc.args[0]) from exc


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for spec in iter_scenarios():
        rows.append({
            "scenario": spec.name,
            "exp": spec.experiment,
            "dag": spec.dag_family,
            "speeds": spec.speed_model,
            "faults": spec.fault_model,
            "solver": spec.solver,
            "title": spec.title,
        })
    if args.names:
        for row in rows:
            print(row["scenario"])
    else:
        print(rows_to_table(rows, title=f"{len(rows)} registered scenarios"))
    return 0


def solver_table_markdown() -> str:
    """The solver capability table as GitHub markdown (README section)."""
    rows = capability_rows()
    headers = list(rows[0])
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(f"`{row[h]}`" if h == "solver" else str(row[h])
                                       for h in headers) + " |")
    return "\n".join(lines)


def cmd_solvers(args: argparse.Namespace) -> int:
    if args.problem:
        from ..core.problem_io import load_problem_json

        try:
            problem = load_problem_json(args.problem)
        except (OSError, ValueError, KeyError) as exc:
            raise _UsageError(f"cannot load problem file {args.problem}: {exc}") from exc
        rows = []
        for solver, ok, reason in solvers_for(problem):
            rows.append({
                "solver": solver.name,
                "exactness": solver.exactness,
                "admissible": ok,
                "reason": reason or "",
            })
        print(rows_to_table(
            rows, title=f"solver admissibility for {args.problem} ({problem!r})"))
        return 0
    rows = capability_rows()
    if args.names:
        for row in rows:
            print(row["solver"])
    elif args.markdown:
        print(solver_table_markdown())
    else:
        print(rows_to_table(rows, title=f"{len(rows)} registered solvers "
                                        "(dispatch preference order)"))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    spec = _lookup_scenario(args.scenario)
    overrides = dict(args.params or [])
    try:
        instance = spec.instance(overrides, smoke=args.smoke, seed=args.seed)
    except KeyError as exc:        # unknown --param name
        raise _UsageError(exc.args[0]) from exc
    outcome = run_campaign(
        [instance], name=f"run:{spec.name}",
        jobs=1, cache=ResultCache(args.cache_dir),
        use_cache=not args.no_cache, refresh=args.refresh,
        progress=_print_progress if not args.json else None,
    ).results[0]
    if not outcome.ok:
        print(f"error: {outcome.error}", file=sys.stderr)
        return 1
    record = outcome.record
    if args.json:
        # repro: allow[REP002] -- human-facing report on stdout, not a keyed path
        print(json.dumps(record, indent=1))
    else:
        source = "cache" if outcome.cached else f"{outcome.elapsed_seconds:.2f}s run"
        print(render_result(record["result"],
                            title=f"{spec.experiment} {spec.title} [{source}]",
                            columns=spec.columns))
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    try:
        if args.campaign == "all":
            campaign = all_scenarios_campaign()
        else:
            campaign = load_campaign_file(args.campaign)
        instances = expand_campaign(campaign, smoke=args.smoke)
    except (KeyError, ValueError, FileNotFoundError) as exc:
        # Missing/malformed campaign file, unknown scenario or entry key.
        # KeyError str()-quotes its message, so unwrap args[0] for it only.
        raise _UsageError(exc.args[0] if isinstance(exc, KeyError) else exc) from exc
    if args.workers or args.spawn:
        outcome = _run_distributed(args, campaign["name"], instances)
    else:
        outcome = run_campaign(
            instances, name=campaign["name"],
            jobs=args.jobs, cache=ResultCache(args.cache_dir),
            use_cache=not args.no_cache, refresh=args.refresh,
            engine=args.engine, max_failures=args.max_failures,
            progress=_print_progress,
        )
    print(outcome.summary())
    if args.show_tables:
        for result in outcome.results:
            if result.ok:
                spec = get_scenario(result.instance.scenario)
                print()
                print(render_result(result.record["result"],
                                    title=f"{spec.experiment} {result.instance.describe()}",
                                    columns=spec.columns))
    return 1 if outcome.errors or outcome.aborted else 0


def _run_distributed(args: argparse.Namespace, name: str, instances):
    # Deferred import: plain local campaigns should not pay for the
    # HTTP/coordination layer.
    from .distributed import (
        parse_workers,
        run_distributed_campaign,
        spawn_local_workers,
        stop_workers,
    )

    try:
        addresses = parse_workers(args.workers) if args.workers else []
    except ValueError as exc:
        raise _UsageError(exc) from exc
    spawned = []
    try:
        if args.spawn:
            try:
                # Spawned workers share the coordinator's cache root as
                # their persistent store, so worker-computed solves warm
                # the same on-disk tier this campaign reads.
                spawned = spawn_local_workers(
                    args.spawn, store_dir=ResultCache(args.cache_dir).root)
            except (OSError, RuntimeError) as exc:
                raise _UsageError(f"cannot spawn local workers: {exc}") from exc
            addresses = addresses + [worker.address for worker in spawned]
            print(f"spawned {len(spawned)} local workers: "
                  f"{', '.join(w.address for w in spawned)}", flush=True)
        return run_distributed_campaign(
            instances, workers=addresses, name=name,
            cache=ResultCache(args.cache_dir),
            use_cache=not args.no_cache, refresh=args.refresh,
            max_failures=args.max_failures,
            progress=_print_progress,
        )
    finally:
        stop_workers(spawned)


def parse_bytes(text: str) -> int:
    """Parse a byte budget: a plain integer or ``100k`` / ``64m`` / ``2g``
    (binary multiples)."""
    from ..store import parse_bytes as _parse
    try:
        return _parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def cmd_cache(args: argparse.Namespace) -> int:
    from ..store import ResultStore

    store = ResultStore(args.cache_dir)
    if args.action == "gc":
        before = store.stats()
        evicted = store.evict_to(args.max_bytes)
        after = store.size_bytes()
        print(f"evicted {evicted} of {before['entries_total']} records: "
              f"{before['bytes_total']} -> {after} bytes "
              f"(budget {args.max_bytes})")
        return 0
    if args.action == "verify":
        report = store.verify()
        print(f"verified {report['checked']} records under {store.root}/: "
              f"{report['ok']} ok, {report['quarantined']} quarantined")
        return 1 if report["quarantined"] else 0
    # stats
    stats = store.stats()
    if args.json:
        # repro: allow[REP002] -- human-facing report on stdout, not a keyed path
        print(json.dumps(stats, indent=1))
        return 0
    print(f"store root: {stats['root']}")
    rows = [{"namespace": ns, **counts}
            for ns, counts in sorted(stats["namespaces"].items())]
    if rows:
        print(rows_to_table(rows, title=f"{stats['entries_total']} records, "
                                        f"{stats['bytes_total']} bytes"))
    else:
        print("empty (no namespaces yet)")
    if stats["corrupt_quarantined_files"]:
        print(f"{stats['corrupt_quarantined_files']} quarantined "
              f"*.json.corrupt files on disk")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    wanted = _lookup_scenario(args.scenario).name if args.scenario else None
    shown = 0
    for record in cache.records():
        if wanted is not None and record.get("scenario") != wanted:
            continue
        if "result" not in record:
            print(f"skipping malformed cache record "
                  f"{record.get('key', '?')[:12]} (no result field)",
                  file=sys.stderr)
            continue
        try:
            spec = get_scenario(record["scenario"])
            title = f"{spec.experiment} {spec.name}"
            columns = spec.columns
        except KeyError:
            title = str(record.get("scenario"))
            columns = None
        seed = record.get("params", {}).get("seed")
        extras = [f"seed={seed}" if seed is not None else "",
                  f"{record.get('elapsed_seconds', 0.0):.2f}s",
                  f"key={record.get('key', '')[:12]}"]
        print()
        print(render_result(record["result"],
                            title=f"{title} ({', '.join(e for e in extras if e)})",
                            columns=columns))
        shown += 1
    if not shown:
        where = f" for scenario {wanted!r}" if wanted else ""
        print(f"no cached records{where} under {cache.root}/ "
              "(run a campaign first)")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory (default: "
                             "$REPRO_CACHE_DIR or .repro-cache)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Campaign orchestration for the conf_ipps_Aupy12 "
                    "reproduction: list, run, sweep and cache the E1-E12 "
                    "experiment scenarios.",
        epilog="`python -m repro serve` serves the v1 JSON API over HTTP; "
               "`python -m repro serve --help` lists its options.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show the scenario registry")
    p_list.add_argument("--names", action="store_true",
                        help="print bare scenario names only")
    p_list.set_defaults(func=cmd_list)

    p_solvers = sub.add_parser(
        "solvers", help="show the solver registry with capability columns")
    p_solvers.add_argument("--names", action="store_true",
                           help="print bare solver names only")
    p_solvers.add_argument("--markdown", action="store_true",
                           help="emit the capability table as markdown "
                                "(the README section is generated this way)")
    p_solvers.add_argument("--problem", default=None, metavar="FILE",
                           help="report admissibility of every solver for a "
                                "problem-instance JSON file instead")
    p_solvers.set_defaults(func=cmd_solvers)

    p_run = sub.add_parser("run", help="run one scenario and print its table")
    p_run.add_argument("scenario", help="registry name or experiment id (e7)")
    p_run.add_argument("--param", dest="params", action="append",
                       type=parse_param, metavar="KEY=VALUE",
                       help="override a scenario parameter (repeatable); "
                            "values are Python literals, so spell a "
                            "one-element sequence with a trailing comma "
                            "(sizes=8,)")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario's seed parameter")
    p_run.add_argument("--smoke", action="store_true",
                       help="use the reduced smoke-size parameters")
    p_run.add_argument("--no-cache", action="store_true",
                       help="bypass the result cache entirely")
    p_run.add_argument("--refresh", action="store_true",
                       help="re-execute even on a cache hit, then re-cache")
    p_run.add_argument("--json", action="store_true",
                       help="print the raw result record as JSON")
    _add_cache_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_campaign = sub.add_parser(
        "campaign", help="run a JSON campaign file or the built-in 'all'")
    p_campaign.add_argument("campaign",
                            help="path to a campaign JSON file, or 'all'")
    p_campaign.add_argument("--jobs", type=int, default=None,
                            help="worker processes (default: $REPRO_JOBS or 1)")
    p_campaign.add_argument("--engine", choices=("batch", "scalar"),
                            default=None,
                            help="override the solver/simulation engine of "
                                 "every scenario that takes an engine "
                                 "parameter; 'batch' also executes batchable "
                                 "scenarios in-process instead of on the pool")
    p_campaign.add_argument("--smoke", action="store_true",
                            help="use reduced smoke-size parameters")
    p_campaign.add_argument("--no-cache", action="store_true",
                            help="bypass the result cache entirely")
    p_campaign.add_argument("--refresh", action="store_true",
                            help="re-execute every instance, then re-cache")
    p_campaign.add_argument("--show-tables", action="store_true",
                            help="print every instance's table after the summary")
    p_campaign.add_argument("--workers", default=None, metavar="HOST:PORT,...",
                            help="distribute instances across running "
                                 "`repro serve` workers (fault-tolerant "
                                 "coordinator with retry/backoff, worker "
                                 "eviction and in-process fallback)")
    p_campaign.add_argument("--spawn", type=int, default=None, metavar="N",
                            help="fork N local serve workers on ephemeral "
                                 "ports for this run (combines with --workers)")
    p_campaign.add_argument("--max-failures", type=int, default=None,
                            metavar="N",
                            help="abort the campaign once more than N "
                                 "instances have failed (0 aborts on the "
                                 "first failure)")
    _add_cache_flags(p_campaign)
    p_campaign.set_defaults(func=cmd_campaign)

    p_report = sub.add_parser(
        "report", help="render cached result records without recomputing")
    p_report.add_argument("scenario", nargs="?", default=None,
                          help="only this scenario (default: everything cached)")
    _add_cache_flags(p_report)
    p_report.set_defaults(func=cmd_report)

    p_cache = sub.add_parser(
        "cache", help="inspect/maintain the persistent result store "
                      "(stats, gc to a byte budget, checksum verify)")
    cache_sub = p_cache.add_subparsers(dest="action", required=True)
    p_stats = cache_sub.add_parser(
        "stats", help="per-namespace entry/byte counts of the store")
    p_stats.add_argument("--json", action="store_true",
                         help="emit the raw stats payload as JSON")
    _add_cache_flags(p_stats)
    p_stats.set_defaults(func=cmd_cache, action="stats")
    p_gc = cache_sub.add_parser(
        "gc", help="evict least-recently-used records down to a byte budget")
    p_gc.add_argument("--max-bytes", type=parse_bytes, required=True,
                      metavar="BYTES",
                      help="target size; accepts suffixes k/m/g (binary)")
    _add_cache_flags(p_gc)
    p_gc.set_defaults(func=cmd_cache, action="gc")
    p_verify = cache_sub.add_parser(
        "verify", help="re-check every record's content checksum; "
                       "mismatches are quarantined (exit 1 if any)")
    _add_cache_flags(p_verify)
    p_verify.set_defaults(func=cmd_cache, action="verify")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
