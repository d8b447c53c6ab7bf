"""Tests for ``repro.obs``: tracing primitives, the bit-identity contract,
Chrome-trace export, the ``trace`` CLI verb and structured run logging.

The load-bearing property is the determinism contract: attaching a
:class:`TraceRecorder` must not change a single simulated number.  Every
system in the registry is exercised traced-vs-untraced, and the CLI-level
gate (``run --trace --compare --tolerance 0``) is driven end to end.
"""

import io
import json
import logging
from collections import defaultdict
from dataclasses import replace

import pytest

from repro.bench.cli import main as bench_main
from repro.bench.registry import (
    ScenarioConfig,
    register_scenario,
    unregister_scenario,
)
from repro.bench.runner import execute_unit
from repro.experiments.placements import make_system_config
from repro.metrics.timeline import EventCounterSeries, TimeSeries
from repro.obs import (
    NULL_TRACER,
    TraceRecorder,
    chrome_trace,
    configure_logging,
    current_tracer,
    get_run_logger,
    summarise_trace,
    use_tracer,
)
from repro.sim.engine import Environment
from repro.systems import make_system
from repro.systems.base import available_systems, get_system_class


def _small_config(name):
    config = make_system_config(name, "7B", 16, seed=7).scaled(0.125)
    return replace(config, num_iterations=2, warmup_iterations=0)


def _fingerprint(result):
    """Every simulated number a run produces, for exact equality checks."""
    return (
        result.wall_clock,
        tuple(
            (r.iteration, r.start_time, r.end_time, r.tokens_trained,
             r.trajectories, r.mean_reward, r.weight_version)
            for r in result.iterations
        ),
        tuple(result.staleness_samples),
        tuple(sorted(result.extras.items())),
    )


@pytest.fixture
def obs_scenario():
    scenario = register_scenario(ScenarioConfig(
        id="obs_test_scenario",
        description="test-only scenario for observability tests",
        kind="throughput",
        systems=("verl", "laminar"),
        model_size="7B",
        gpu_scales=(16,),
        batch_scale=0.125,
        iterations=2,
        warmup=0,
        timeout_s=300.0,
        tags=("test-only",),
    ))
    yield scenario
    unregister_scenario(scenario.id)


# --------------------------------------------------------------------------- primitives
def test_environment_defaults_to_null_tracer():
    env = Environment()
    assert env.tracer is NULL_TRACER
    assert env.tracer.enabled is False


def test_use_tracer_scopes_and_nests():
    assert current_tracer() is NULL_TRACER
    outer, inner = TraceRecorder(), TraceRecorder()
    with use_tracer(outer):
        assert current_tracer() is outer
        assert Environment().tracer is outer
        with use_tracer(inner):
            assert current_tracer() is inner
        assert current_tracer() is outer
    assert current_tracer() is NULL_TRACER


def test_recorder_span_validation_and_introspection():
    recorder = TraceRecorder(group="unit-a")
    recorder.span("trainer", "iteration", 0.0, 10.0, args={"iteration": 1})
    recorder.span("trainer", "training", 2.0, 8.0)
    recorder.instant("trainer", "staleness", 8.0, args={"mean": 0.5})
    recorder.set_group("unit-b")
    recorder.counter("replica-0", "tokens", 1.0, 128.0)
    with pytest.raises(ValueError):
        recorder.span("trainer", "backwards", 5.0, 4.0)
    assert recorder.num_events() == 4
    assert recorder.groups() == ["unit-a", "unit-b"]
    assert recorder.tracks() == [("unit-a", "trainer"), ("unit-b", "replica-0")]
    assert recorder.span_names() == ["iteration", "training"]
    assert recorder.spans[0].duration == 10.0
    # Recorded events are snapshots: mutating the caller's args dict later
    # must not rewrite history.
    args = {"k": 1}
    recorder.span("sync", "weight_sync", 0.0, 1.0, args=args)
    args["k"] = 2
    assert recorder.spans[-1].args == {"k": 1}


def test_counter_batch():
    recorder = TraceRecorder()
    recorder.counter_batch("replica-3", "tokens", [(0.5, 10.0), (1.5, 30.0)])
    assert [(c.ts, c.value) for c in recorder.counters] == [(0.5, 10.0), (1.5, 30.0)]
    assert recorder.counters[0].track == "replica-3"


# --------------------------------------------------------------------------- bit-identity
@pytest.mark.parametrize("name", available_systems())
def test_traced_run_is_bit_identical_and_covers_declared_spans(name):
    config = _small_config(name)
    plain = make_system(config).run()
    recorder = TraceRecorder(group=name)
    with use_tracer(recorder):
        traced = make_system(config).run()
    assert _fingerprint(traced) == _fingerprint(plain)
    assert recorder.num_events() > 0
    declared = set(get_system_class(name).capabilities.trace_spans)
    assert declared, f"system {name!r} declares no trace spans"
    emitted = set(recorder.span_names())
    missing = declared - emitted
    assert not missing, f"system {name!r} never emitted declared spans {missing}"


def test_every_system_declares_trace_spans_with_iteration():
    for name in available_systems():
        spans = get_system_class(name).capabilities.trace_spans
        assert "iteration" in spans, name


def test_execute_unit_bit_identical_under_recorder(obs_scenario):
    unit = obs_scenario.expand()[0]
    plain = execute_unit(unit)
    recorder = TraceRecorder()
    with use_tracer(recorder):
        traced = execute_unit(unit)
    assert plain.status == traced.status == "ok"
    assert plain.metrics == traced.metrics


# --------------------------------------------------------------------------- export
def test_chrome_trace_payload_shape():
    recorder = TraceRecorder(group="g")
    recorder.span("trainer", "iteration", 0.0, 2.0)
    recorder.instant("machine-0", "failure", 1.0, args={"kind": "rollout"})
    recorder.counter("replica-0", "tokens", 0.5, 64.0)
    payload = chrome_trace(recorder)
    events = payload["traceEvents"]
    assert payload["otherData"]["groups"] == 1
    phases = {e["ph"] for e in events}
    assert {"M", "X", "i", "C"} <= phases
    span = next(e for e in events if e["ph"] == "X")
    assert span["ts"] == 0.0 and span["dur"] == 2.0 * 1e6  # seconds -> us
    counter = next(e for e in events if e["ph"] == "C")
    assert counter["name"] == "replica-0:tokens"
    assert counter["args"]["value"] == 64.0
    assert "empty" in summarise_trace(TraceRecorder())
    assert "trainer" in summarise_trace(recorder)


def test_write_chrome_trace_serialises_numpy_args(tmp_path):
    np = pytest.importorskip("numpy")
    recorder = TraceRecorder()
    recorder.span("trainer", "training", 0.0, 1.0,
                  args={"tokens": np.int64(4096), "rate": np.float64(0.5)})
    recorder.instant("trainer", "staleness", 1.0, args={"max": np.int32(3)})
    path = tmp_path / "np_trace.json"
    from repro.obs import write_chrome_trace

    write_chrome_trace(recorder, str(path))
    events = json.loads(path.read_text())["traceEvents"]
    span = next(e for e in events if e["ph"] == "X")
    assert span["args"] == {"tokens": 4096, "rate": 0.5}


def test_cli_trace_round_trip(tmp_path, obs_scenario, capsys):
    out_path = tmp_path / "trace.json"
    code = bench_main(["trace", obs_scenario.id, "--all-units",
                       "-o", str(out_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "2 unit trace(s) written" in out

    # --all-units writes one collision-free file per unit, named for the
    # unit's stable grid identity.
    per_unit = {
        tmp_path / f"trace.{obs_scenario.id}.u000.verl.json":
            f"{obs_scenario.id}:verl:7B/16gpu",
        tmp_path / f"trace.{obs_scenario.id}.u001.laminar.json":
            f"{obs_scenario.id}:laminar:7B/16gpu",
    }
    assert not out_path.exists()  # no merged blob alongside the per-unit files
    events = []
    for path, group in per_unit.items():
        assert path.exists(), path
        unit_events = json.loads(path.read_text())["traceEvents"]
        procs = [e for e in unit_events
                 if e["ph"] == "M" and e["name"] == "process_name"]
        assert {p["args"]["name"] for p in procs} == {group}
        # pids restart per file, so event streams must never be merged
        # key-blind across files.
        events.extend((group, e) for e in unit_events)
    threads = [e for _, e in events
               if e["ph"] == "M" and e["name"] == "thread_name"]
    track_names = {t["args"]["name"] for t in threads}
    assert "trainer" in track_names and "sync" in track_names

    spans = [(g, e) for g, e in events if e["ph"] == "X"]
    assert spans and all(e["dur"] >= 0 for _, e in spans)
    # Same-name spans on one track never partially overlap: consecutive
    # instances are either disjoint (iterations tile the run) or nested.
    by_key = defaultdict(list)
    for g, e in spans:
        by_key[(g, e["pid"], e["tid"], e["name"])].append(
            (e["ts"], e["ts"] + e["dur"]))
    for (_, _, _, name), intervals in by_key.items():
        intervals.sort()
        for (b1, e1), (b2, e2) in zip(intervals, intervals[1:]):
            disjoint = b2 >= e1 - 1e-3  # trace-us jitter tolerance
            nested = e2 <= e1 + 1e-3
            assert disjoint or nested, (name, (b1, e1), (b2, e2))
    assert any(e["ph"] == "C" for _, e in events)  # token/KV counters made it


def test_cli_trace_rejects_out_of_range_unit(obs_scenario, capsys):
    assert bench_main(["trace", obs_scenario.id, "--unit", "99",
                       "-o", "/dev/null"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_cli_run_trace_gates_bit_identical(tmp_path, obs_scenario, capsys):
    baseline = str(tmp_path / "baseline.json")
    trace_path = str(tmp_path / "trace.json")
    assert bench_main(["run", "--scenario", obs_scenario.id,
                       "--export", baseline, "--quiet"]) == 0
    capsys.readouterr()
    code = bench_main(["run", "--scenario", obs_scenario.id,
                       "--trace", trace_path, "--compare",
                       "--baseline", baseline, "--tolerance", "0",
                       "--no-save"])
    out = capsys.readouterr().out
    assert code == 0
    assert "no regression" in out
    payload = json.loads((tmp_path / "trace.json").read_text())
    assert payload["traceEvents"]


# --------------------------------------------------------------------------- run logging
def test_run_logger_json_lines():
    stream = io.StringIO()
    configure_logging(level="info", json_lines=True, stream=stream)
    try:
        get_run_logger("test.obs").info("hello_event", message="hello world",
                                        answer=42)
        record = json.loads(stream.getvalue().strip())
        assert record["event"] == "hello_event"
        assert record["message"] == "hello world"
        assert record["fields"]["answer"] == 42
        assert record["logger"] == "repro.test.obs"
    finally:
        configure_logging()


def test_run_logger_json_lines_one_object_per_line():
    stream = io.StringIO()
    configure_logging(level="debug", json_lines=True, stream=stream)
    try:
        log = get_run_logger("test.obs")
        log.logger.debug("first")
        log.info("second", message="m2", nested={"a": [1, 2]})
        log.logger.warning("third")
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            record = json.loads(line)  # exactly one JSON object per line
            assert {"level", "logger", "event", "message"} <= set(record)
        records = [json.loads(line) for line in lines]
        assert [r["event"] for r in records] == ["first", "second", "third"]
        assert [r["level"] for r in records] == ["debug", "info", "warning"]
        assert records[1]["fields"]["nested"] == {"a": [1, 2]}
        assert "fields" not in records[2]  # empty fields stay off the record
    finally:
        configure_logging()


def test_cli_log_json_keeps_deliverables_plain(obs_scenario, capsys):
    assert bench_main(["run", "--scenario", obs_scenario.id,
                       "--no-save", "--log-json"]) == 0
    out = capsys.readouterr().out
    json_lines = []
    for line in out.splitlines():
        try:
            json_lines.append(json.loads(line))
        except ValueError:
            continue
    # Progress became JSON records with event + fields...
    events = {r["event"] for r in json_lines}
    assert "run_start" in events and "unit_done" in events
    assert all("fields" in r for r in json_lines
               if r["event"] in ("run_start", "unit_done"))
    # ...while the results table still prints as plain text.
    assert obs_scenario.id in out


def test_run_logger_quiet_suppresses_info_keeps_warnings():
    stream = io.StringIO()
    configure_logging(level="info", quiet=True, stream=stream)
    try:
        log = get_run_logger("test.obs")
        log.info("progress", message="should not appear")
        log.logger.warning("something is off")
        out = stream.getvalue()
        assert "should not appear" not in out
        assert "warning: something is off" in out
    finally:
        configure_logging()


def test_configure_logging_is_idempotent():
    configure_logging()
    configure_logging(level="debug")
    logger = logging.getLogger("repro")
    installed = [h for h in logger.handlers
                 if getattr(h, "_repro_runlog", False)]
    assert len(installed) == 1
    assert logger.level == logging.DEBUG
    configure_logging()


def test_cli_quiet_silences_progress_keeps_results(obs_scenario, capsys):
    assert bench_main(["run", "--scenario", obs_scenario.id,
                       "--no-save", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "running 1 scenario(s)" not in out and "[ok]" not in out
    assert obs_scenario.id in out  # the results table still prints


# --------------------------------------------------------------------------- satellite: timeline
def test_event_counter_series_rejects_decreasing_timestamps():
    series = EventCounterSeries("tokens")
    series.record(1.0, 5.0)
    series.record(1.0, 2.0)          # equal timestamps are fine
    series.record(2.0, 1.0)
    series.record(2.0 - 1e-12, 4.0)  # sub-epsilon jitter is fine
    with pytest.raises(ValueError):
        series.record(1.5, 3.0)
    assert series.total() == 12.0


def test_time_series_rejects_decreasing_timestamps():
    series = TimeSeries("util")
    series.record(0.0, 0.1)
    series.record(5.0, 0.9)
    with pytest.raises(ValueError):
        series.record(4.0, 0.5)
