"""``repro-bench`` / ``python -m repro.bench`` command-line interface.

Workflow::

    repro-bench list                         # scenario catalog
    repro-bench list --systems               # registered systems + capabilities
    repro-bench run --scenario throughput_smoke --jobs 2 --export BENCH_smoke.json
    repro-bench run --scenario smoke --system laminar --system verl  # grid filter
    repro-bench run --scenario smoke --compare      # regression-gate vs stored artifact
    repro-bench run --scenario smoke --budget 300   # fail if the sweep takes > 300 s
    repro-bench compare --baseline BENCH_smoke.json # re-run + gate against an artifact
    repro-bench analyze trace.json                  # critical-path + utilization
    repro-bench analyze trace.json --diff old.json  # attribution drift vs old trace

Everything runs on one host: ``--jobs 1`` executes units in-process,
``--jobs N`` on a local process pool, with bit-identical results.
Artifacts hold simulated quantities only; host speed is measured by
``python3 perfbench/run.py`` (``--trace 1`` attributes it to layers).

``run`` persists results to ``BENCH_<scenario>.json`` artifacts (or a single
``--export`` file) and, with ``--compare``, gates the fresh results against
the previously stored baseline before overwriting it.  Exit status is 0 on
success / no regression and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

from ..obs import (
    TraceRecorder,
    analyze_recorder,
    configure_logging,
    diff_analyses,
    get_run_logger,
    load_chrome_trace,
    render_analysis,
    render_diff,
    summarise_trace,
    use_tracer,
    write_chrome_trace,
)
from .compare import DEFAULT_TOLERANCE, compare_runs
from .exec import TracingSerialBackend
from .registry import ScenarioConfig, all_scenarios, get_scenario, select_scenarios
from .report import (
    render_comparison,
    render_results,
    render_scenario_list,
    render_system_list,
)
from .runner import ScenarioResult, UnitResult, run_scenarios
from .store import default_artifact_path, load_results, save_artifact

#: Status/progress output goes through the structured run log (``repro.*``
#: loggers) so ``--log-json`` machines it and ``--quiet`` silences it;
#: deliverables (tables, comparisons, artifact paths) stay plain ``print``.
_log = get_run_logger("bench.cli")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Scenario registry + parallel matrix benchmark runner for the "
                    "Laminar reproduction.",
    )
    # Logging flags live on a parent parser attached to every subcommand (not
    # the main parser too — argparse would then reset them to defaults after
    # the subparser runs).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--log-level", choices=("debug", "info", "warning", "error"),
                        default="info",
                        help="run-log verbosity (default: info)")
    common.add_argument("--log-json", action="store_true",
                        help="emit run-log lines as JSON objects (one per line)")
    common.add_argument("-q", "--quiet", action="store_true",
                        help="silence progress/status output (results, "
                             "comparisons and artifact paths still print)")
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", parents=[common],
                              help="list registered scenarios (or systems)")
    list_cmd.add_argument("--tag", action="append", default=[],
                          help="only scenarios carrying this tag (repeatable)")
    list_cmd.add_argument("--systems", action="store_true",
                          help="list the registered systems and their "
                               "capabilities instead of the scenarios")
    list_cmd.add_argument("-v", "--verbose", action="store_true",
                          help="include scenario (or system) descriptions")

    run_cmd = sub.add_parser("run", parents=[common],
                             help="run scenarios and persist results")
    run_cmd.add_argument("--scenario", action="append", default=[], metavar="PATTERN",
                         help="scenario id, glob, substring or tag (repeatable; "
                              "default: 'smoke')")
    run_cmd.add_argument("--system", action="append", default=[], metavar="NAME",
                         help="restrict every selected scenario's grid to "
                              "these registered systems (repeatable)")
    run_cmd.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="parallel worker processes (default: 1)")
    run_cmd.add_argument("--export", metavar="PATH",
                         help="write all results into one artifact at PATH "
                              "(default: one BENCH_<scenario>.json per scenario)")
    run_cmd.add_argument("--outdir", default=".", metavar="DIR",
                         help="directory for per-scenario artifacts (default: .)")
    run_cmd.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                         help="override every scenario's per-unit timeout")
    run_cmd.add_argument("--compare", action="store_true",
                         help="regression-gate against the stored baseline before "
                              "overwriting it")
    run_cmd.add_argument("--baseline", metavar="PATH",
                         help="baseline artifact for --compare (default: the "
                              "artifact paths the run would write to)")
    run_cmd.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                         help=f"relative regression tolerance (default: {DEFAULT_TOLERANCE})")
    run_cmd.add_argument("--no-save", action="store_true",
                         help="do not persist results")
    run_cmd.add_argument("--budget", type=float, default=None, metavar="SECONDS",
                         help="fail (exit 1) if the whole run's wall-clock "
                              "exceeds SECONDS — the CI engine-speed gate")
    run_cmd.add_argument("--trace", metavar="PATH", default=None,
                         help="attach a trace recorder to every unit (forces "
                              "the serial backend) and write a merged "
                              "Chrome-trace/Perfetto timeline to PATH; results "
                              "are bit-identical to an untraced run")
    run_cmd.add_argument("--derived-metric", action="append", default=[],
                         metavar="NAME", dest="derived_metric",
                         help="with --compare: also gate this trace-analytics "
                              "metric (UnitResult extras, e.g. "
                              "critical_path_gen_share); drift beyond "
                              "tolerance in either direction fails; pairs "
                              "lacking the metric are skipped (repeatable)")

    trace_cmd = sub.add_parser(
        "trace", parents=[common],
        help="run scenario units under a trace recorder and export a "
             "Perfetto-loadable Chrome-trace timeline (simulated time)")
    trace_cmd.add_argument("scenario", metavar="PATTERN",
                           help="scenario id, glob, substring or tag")
    trace_cmd.add_argument("--unit", action="append", type=int, default=[],
                           metavar="K",
                           help="grid index to trace within each selected "
                                "scenario (repeatable; default: 0)")
    trace_cmd.add_argument("--all-units", action="store_true",
                           help="trace every unit of each selected scenario")
    trace_cmd.add_argument("--system", action="append", default=[], metavar="NAME",
                           help="restrict to these registered systems "
                                "(repeatable)")
    trace_cmd.add_argument("-o", "--output", default="trace.json", metavar="PATH",
                           help="output trace file (default: trace.json)")

    cmp_cmd = sub.add_parser("compare", parents=[common],
                             help="gate a run against a baseline artifact")
    cmp_cmd.add_argument("--baseline", required=True, action="append", metavar="PATH",
                         help="baseline artifact(s) (repeatable; merged)")
    cmp_cmd.add_argument("--candidate", action="append", default=[], metavar="PATH",
                         help="candidate artifact(s); omit to re-run the baseline's "
                              "scenarios now")
    cmp_cmd.add_argument("--scenario", action="append", default=[], metavar="PATTERN",
                         help="restrict the comparison to matching scenarios")
    cmp_cmd.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="parallel workers when re-running (default: 1)")
    cmp_cmd.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                         help=f"relative regression tolerance (default: {DEFAULT_TOLERANCE})")
    cmp_cmd.add_argument("--derived-metric", action="append", default=[],
                         metavar="NAME", dest="derived_metric",
                         help="also gate this trace-analytics metric "
                              "(UnitResult extras); drift beyond tolerance in "
                              "either direction fails; pairs lacking the "
                              "metric are skipped (repeatable)")

    analyze_cmd = sub.add_parser(
        "analyze", parents=[common],
        help="critical-path attribution, per-track utilization and span-"
             "family breakdown of an exported Chrome-trace file")
    analyze_cmd.add_argument("trace", metavar="TRACE",
                             help="Chrome-trace JSON written by `repro-bench "
                                  "trace` or `run --trace`")
    analyze_cmd.add_argument("--diff", metavar="OTHER", default=None,
                             help="second trace file; report attribution "
                                  "drift TRACE vs OTHER instead of absolutes")
    analyze_cmd.add_argument("--json", metavar="PATH", default=None,
                             dest="json_path",
                             help="also write the full analysis (or diff) as "
                                  "JSON to PATH ('-' for stdout)")
    analyze_cmd.add_argument("--top", type=int, default=8, metavar="N",
                             help="span families to show per unit "
                                  "(default: 8)")

    return parser


def _progress(unit: UnitResult) -> None:
    marker = "ok" if unit.status == "ok" else unit.status.upper()
    _log.info("unit_done", message=f"  [{marker}] {unit.scenario_id} {unit.label}",
              scenario=unit.scenario_id, unit=unit.label, status=unit.status)


def _baseline_paths(args: argparse.Namespace, scenarios: Sequence[ScenarioConfig]) -> List[str]:
    """Where ``run --compare`` finds its baseline: --baseline, --export, or the
    per-scenario default artifact locations."""
    if args.baseline:
        return [args.baseline]
    if args.export:
        return [args.export]
    return [default_artifact_path(s.id, args.outdir) for s in scenarios]


def _load_baseline(paths: Sequence[str]) -> List[ScenarioResult]:
    results: List[ScenarioResult] = []
    existing = [p for p in paths if os.path.exists(p)]
    if not existing:
        return results
    _, results = load_results(existing)
    return results


def cmd_list(args: argparse.Namespace) -> int:
    if args.systems:
        print(render_system_list(verbose=args.verbose))
        return 0
    scenarios = all_scenarios()
    if args.tag:
        scenarios = [s for s in scenarios if any(t in s.tags for t in args.tag)]
    print(render_scenario_list(scenarios, verbose=args.verbose))
    return 0


def _filter_systems(scenarios: List[ScenarioConfig],
                    systems: Sequence[str]) -> List[ScenarioConfig]:
    """Validate a ``--system`` selection and drop scenarios it cannot touch.

    Unknown names fail with the registered-names list; an empty selection
    overall is an error.  The scenarios themselves are returned unchanged —
    the *unit* filter happens inside :func:`run_scenarios` after grid
    expansion, so surviving units keep their original grid indices (and
    therefore their seeds: a filtered unit's metrics are bit-identical to the
    same unit in a full-grid run).
    """
    from repro.systems.base import SystemRegistryError, get_system_class

    for name in systems:
        try:
            get_system_class(name)
        except SystemRegistryError as exc:
            raise ValueError(str(exc)) from None
    keep = set(systems)
    filtered = [s for s in scenarios if keep.intersection(s.systems)]
    if not filtered:
        raise ValueError(
            "no selected scenario evaluates any of the requested systems: "
            + ", ".join(sorted(keep))
        )
    return filtered


def cmd_run(args: argparse.Namespace) -> int:
    if args.tolerance < 0:
        raise ValueError("--tolerance must be non-negative")
    if args.budget is not None and args.budget <= 0:
        raise ValueError("--budget must be positive")
    patterns = args.scenario or ["smoke"]
    scenarios = select_scenarios(patterns)
    if args.system:
        scenarios = _filter_systems(scenarios, args.system)
        if not args.no_save and not args.export:
            # Never clobber a committed full-grid BENCH_<id>.json with a
            # partial grid — the dropped units would silently stop gating.
            # An explicit --export destination remains allowed.
            _log.info("note", message="note: --system runs a partial grid; "
                      "results are not saved to the default artifact paths "
                      "(use --export to persist)")
            args.no_save = True
    _log.info("run_start",
              message=f"running {len(scenarios)} scenario(s): "
                      + ", ".join(s.id for s in scenarios),
              scenarios=[s.id for s in scenarios])
    recorder: Optional[TraceRecorder] = None
    if args.trace:
        if args.jobs > 1:
            _log.info("note", message="note: --trace records in-process; "
                      "running with --jobs 1")
        recorder = TraceRecorder()

    baseline: List[ScenarioResult] = []
    if args.compare:
        # Only gate the scenarios this run executes; a baseline artifact may
        # hold results for others (e.g. a shared --export file).
        selected_ids = {s.id for s in scenarios}
        baseline = [r for r in _load_baseline(_baseline_paths(args, scenarios))
                    if r.scenario_id in selected_ids]
        if args.system:
            # A --system-restricted run must only be gated on the units it
            # actually executes.
            keep = set(args.system)
            for result in baseline:
                result.units = [u for u in result.units if u.system in keep]
        if not baseline:
            _log.info("note", message="note: no baseline artifact found; all "
                      "units will report 'no-baseline'")

    backend = None  # run_scenarios derives serial/process from --jobs
    if recorder is not None:
        # The tracer only observes, so swapping the serial backend for its
        # tracing twin cannot change any result — the --compare --tolerance 0
        # CI leg exists to prove exactly that.
        backend = TracingSerialBackend(recorder)
    run_started = time.perf_counter()
    results = run_scenarios(
        scenarios, jobs=args.jobs, timeout_s=args.timeout, progress=_progress,
        backend=backend, systems=args.system or None,
    )
    run_elapsed = time.perf_counter() - run_started
    print()
    print(render_results(results))
    if recorder is not None:
        payload = write_chrome_trace(recorder, args.trace)
        print()
        print(summarise_trace(recorder))
        print(f"wrote {args.trace} ({len(payload['traceEvents'])} events)")

    exit_code = 0 if all(r.status == "ok" for r in results) else 1
    if args.budget is not None:
        verdict = "within" if run_elapsed <= args.budget else "EXCEEDED"
        print(f"\nwall-clock budget: {run_elapsed:.1f}s of {args.budget:.0f}s "
              f"({verdict})")
        if run_elapsed > args.budget:
            exit_code = 1
    if args.compare:
        report = compare_runs(results, baseline, tolerance=args.tolerance,
                              derived=args.derived_metric)
        print()
        print(render_comparison(report))
        if not report.passed:
            exit_code = 1
            if not args.no_save:
                # Never replace a healthy baseline with regressed results:
                # that would mask the regression on the next gated run.
                print("\nregression gate failed: results NOT persisted")
                return exit_code

    if not args.no_save:
        if args.export:
            save_artifact(results, args.export, configs=scenarios)
            print(f"\nwrote {args.export}")
        else:
            by_id: Dict[str, ScenarioConfig] = {s.id: s for s in scenarios}
            for result in results:
                path = default_artifact_path(result.scenario_id, args.outdir)
                save_artifact([result], path, configs=[by_id[result.scenario_id]])
                print(f"wrote {path}")
    return exit_code


def _unit_trace_path(output: str, scenario_id: str, grid_index: int,
                     unit) -> str:
    """Per-unit trace filename: the ``-o`` stem plus the unit's stable
    identity (scenario, pre-filter grid index, system, variant) so
    ``--all-units`` output never collides and sorts in grid order."""
    base, ext = os.path.splitext(output)
    parts = [base, scenario_id, f"u{grid_index:03d}", unit.system]
    if unit.variant:
        parts.append(unit.variant.replace(os.sep, "-"))
    return ".".join(parts) + (ext or ".json")


def cmd_trace(args: argparse.Namespace) -> int:
    from .runner import system_for_unit

    outdir = os.path.dirname(args.output) or "."
    if not os.path.isdir(outdir):
        # Fail before any unit runs, not after minutes of simulation.
        raise ValueError(f"output directory does not exist: {outdir!r}")
    scenarios = select_scenarios([args.scenario])
    if args.system:
        scenarios = _filter_systems(scenarios, args.system)
    # (scenario, pre-filter grid index, unit): indices stay stable under
    # --system filtering, so filenames are comparable across selections.
    selected: List = []
    for scenario in scenarios:
        units = list(enumerate(scenario.expand()))
        if args.system:
            keep = set(args.system)
            units = [(k, u) for k, u in units if u.system in keep]
        if args.all_units:
            chosen = units
        else:
            wanted = args.unit or [0]
            bad = sorted(k for k in wanted if not 0 <= k < len(units))
            if bad:
                raise ValueError(
                    f"scenario {scenario.id!r} has {len(units)} unit(s); "
                    f"--unit out of range: {', '.join(map(str, bad))}"
                )
            chosen = [units[k] for k in wanted]
        selected.extend((scenario.id, k, u) for k, u in chosen)

    def _trace_one(recorder: TraceRecorder, unit) -> None:
        _log.info("trace_unit",
                  message=f"tracing {unit.scenario_id} {unit.label}",
                  scenario=unit.scenario_id, unit=unit.label)
        recorder.set_group(f"{unit.scenario_id}:{unit.label}")
        with use_tracer(recorder):
            system_for_unit(unit).run()

    if args.all_units:
        # One file per unit, named for the unit — a merged file would make
        # the uploaded artifact a single undifferentiated blob.
        written: List[str] = []
        for scenario_id, grid_index, unit in selected:
            recorder = TraceRecorder()
            _trace_one(recorder, unit)
            path = _unit_trace_path(args.output, scenario_id, grid_index, unit)
            payload = write_chrome_trace(recorder, path)
            print(f"wrote {path} ({len(payload['traceEvents'])} events)")
            written.append(path)
        print(f"\n{len(written)} unit trace(s) written")
        return 0
    recorder = TraceRecorder()
    for _scenario_id, _grid_index, unit in selected:
        _trace_one(recorder, unit)
    payload = write_chrome_trace(recorder, args.output)
    print(summarise_trace(recorder))
    print(f"\nwrote {args.output} ({len(selected)} unit(s), "
          f"{len(payload['traceEvents'])} events)")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.top <= 0:
        raise ValueError("--top must be positive")
    analysis = analyze_recorder(load_chrome_trace(args.trace))
    if not analysis.groups:
        print(f"error: no trace events found in {args.trace}", file=sys.stderr)
        return 1
    if args.diff:
        other = analyze_recorder(load_chrome_trace(args.diff))
        diff = diff_analyses(analysis, other)
        payload: Dict[str, object] = {
            "candidate": args.trace, "baseline": args.diff, "diff": diff,
        }
        print(render_diff(diff))
    else:
        payload = {"trace": args.trace, "analysis": analysis.as_dict()}
        print(render_analysis(analysis, top=args.top))
    if args.json_path:
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.json_path == "-":
            print(text)
        else:
            with open(args.json_path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"\nwrote {args.json_path}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    if args.tolerance < 0:
        raise ValueError("--tolerance must be non-negative")
    _, baseline = load_results(args.baseline)
    if args.scenario:
        keep = {s.id for s in select_scenarios(args.scenario)}
        baseline = [r for r in baseline if r.scenario_id in keep]
        if not baseline:
            print("error: no baseline scenarios match the given patterns",
                  file=sys.stderr)
            return 1

    if args.candidate:
        _, candidate = load_results(args.candidate)
        if args.scenario:
            keep = {r.scenario_id for r in baseline}
            candidate = [r for r in candidate if r.scenario_id in keep]
    else:
        configs: List[ScenarioConfig] = []
        for result in baseline:
            try:
                configs.append(get_scenario(result.scenario_id))
            except KeyError:
                _log.info("note", message=f"note: scenario "
                          f"{result.scenario_id!r} is no longer registered; "
                          f"skipping re-run")
        baseline = [r for r in baseline if r.scenario_id in {c.id for c in configs}]
        _log.info("rerun", message=f"re-running {len(configs)} scenario(s) "
                  f"from the baseline artifact", scenarios=len(configs))
        candidate = run_scenarios(configs, jobs=args.jobs, progress=_progress)

    report = compare_runs(candidate, baseline, tolerance=args.tolerance,
                          derived=args.derived_metric)
    print()
    print(render_comparison(report))
    return 0 if report.passed else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(
        level=getattr(args, "log_level", "info"),
        json_lines=getattr(args, "log_json", False),
        quiet=getattr(args, "quiet", False),
    )
    handlers = {"list": cmd_list, "run": cmd_run, "trace": cmd_trace,
                "analyze": cmd_analyze, "compare": cmd_compare}
    try:
        return handlers[args.command](args)
    except BrokenPipeError:  # e.g. `repro-bench list | head`
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (KeyError, ValueError) as exc:  # bad pattern / config / artifact
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except OSError as exc:  # unreadable/missing artifact or export path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
