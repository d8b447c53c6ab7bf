"""``repro.obs``: deterministic trace + telemetry layer.

Two complementary surfaces:

* **Simulated time** (:mod:`.trace`, :mod:`.export`) — a :class:`Tracer`
  protocol with a zero-overhead :class:`NullTracer` default, a
  :class:`TraceRecorder` collecting spans / instants / counter samples from
  the instrumented engine, harness and systems, and a Chrome-trace-event
  exporter producing Perfetto-loadable ``trace.json`` timelines plus text
  summaries.  Contract: tracing on is **bit-identical** to tracing off.

* **Wall-clock time** (:mod:`.runlog`) — structured :mod:`logging`-based run
  logs for the ``repro-bench`` CLI, with human-readable or JSON-lines console
  output.

* **Analysis** (:mod:`.analysis`) — critical-path attribution over recorded
  timelines: per-iteration phase attribution, per-track busy/idle/overlap
  tables, top-k span-family ranking and the curated derived-metric subset
  (``gen_bubble_frac``, ``sync_frac``, ``critical_path_*_share``) the bench
  layer attaches to traced results.

This package deliberately imports nothing from the rest of ``repro`` so the
event engine can attach the active tracer without an import cycle.
"""

from .analysis import (
    DERIVED_METRIC_KEYS,
    GroupAnalysis,
    TraceAnalysis,
    analyze_group,
    analyze_recorder,
    derived_metrics,
    diff_analyses,
    load_chrome_trace,
    render_analysis,
    render_diff,
)
from .export import chrome_trace, summarise_trace, write_chrome_trace
from .runlog import RunLogger, configure_logging, get_run_logger
from .trace import (
    NULL_TRACER,
    CounterSample,
    Instant,
    NullTracer,
    Span,
    TraceRecorder,
    Tracer,
    current_tracer,
    use_tracer,
)

__all__ = [
    "CounterSample",
    "DERIVED_METRIC_KEYS",
    "GroupAnalysis",
    "Instant",
    "NULL_TRACER",
    "NullTracer",
    "RunLogger",
    "Span",
    "TraceAnalysis",
    "TraceRecorder",
    "Tracer",
    "analyze_group",
    "analyze_recorder",
    "chrome_trace",
    "configure_logging",
    "current_tracer",
    "derived_metrics",
    "diff_analyses",
    "get_run_logger",
    "load_chrome_trace",
    "render_analysis",
    "render_diff",
    "summarise_trace",
    "use_tracer",
    "write_chrome_trace",
]
