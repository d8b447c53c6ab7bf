"""Execution backends: where scenario units actually run.

:class:`ExecBackend` is the small contract the matrix runner drives —
``submit(units) -> iterator of (unit, UnitResult)`` — so the same
:func:`repro.bench.runner.run_scenarios` front end can execute a grid
in-process (:class:`SerialBackend`, or :class:`TracingSerialBackend` with a
trace recorder attached) or on a local process pool
(:class:`ProcessPoolBackend`).  :func:`default_backend` picks between them
from ``--jobs``; tests substitute their own backends.

The determinism contract spans backends: every unit derives its seed from
its grid index, so for a fixed scenario the merged results are bit-identical
no matter which backend ran them or in what order they completed.  Backends
may yield results in any order; the runner regroups them per scenario.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import FIRST_COMPLETED, CancelledError, ProcessPoolExecutor, wait
from typing import Iterable, Iterator, List, Optional, Tuple

from .registry import ScenarioUnit
from .runner import UnitResult, execute_unit

try:  # pragma: no cover - Protocol is 3.8+; the repo supports >=3.9
    from typing import Protocol
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]


class ExecBackend(Protocol):
    """Contract every execution backend implements."""

    def submit(
        self, units: Iterable[ScenarioUnit], timeout_s: Optional[float] = None
    ) -> Iterator[Tuple[ScenarioUnit, UnitResult]]:
        """Execute every unit and yield ``(unit, result)`` pairs as they
        complete.  ``timeout_s`` overrides each unit's own budget."""
        ...  # pragma: no cover - protocol stub


def effective_timeout(unit: ScenarioUnit, timeout_s: Optional[float]) -> float:
    """The per-unit budget: the run-level override, else the unit's own."""
    return timeout_s if timeout_s is not None else unit.timeout_s


def failed_result(unit: ScenarioUnit, status: str, error: str) -> UnitResult:
    """A synthesised non-ok result for a unit the backend could not finish."""
    return UnitResult(
        scenario_id=unit.scenario_id, system=unit.system,
        model_size=unit.model_size, total_gpus=unit.total_gpus,
        variant=unit.variant, seed=unit.seed, status=status, error=error,
    )


class SerialBackend:
    """In-process, in-order execution."""

    def submit(
        self, units: Iterable[ScenarioUnit], timeout_s: Optional[float] = None
    ) -> Iterator[Tuple[ScenarioUnit, UnitResult]]:
        for unit in units:
            yield unit, execute_unit(unit, effective_timeout(unit, timeout_s))


class TracingSerialBackend(SerialBackend):
    """Serial execution with a :class:`~repro.obs.TraceRecorder` attached.

    Every unit runs under :func:`repro.obs.use_tracer` with its own recorder
    group (``scenario_id:label``), so one merged ``trace.json`` holds a
    Perfetto process per unit.  Because the tracer only observes, the yielded
    results are bit-identical to :class:`SerialBackend` — the property the
    ``--trace --compare --tolerance 0`` CI leg gates.

    After each unit completes, its recorded timeline is analyzed
    (:mod:`repro.obs.analysis`) and the curated derived metrics
    (``gen_bubble_frac``, ``critical_path_*_share``, ...) are attached to
    ``result.extras`` — never to ``result.metrics``, so the comparable
    nominal payload is untouched and the primary-metric gates see exactly
    what an untraced run produces.
    """

    def __init__(self, recorder) -> None:
        self.recorder = recorder

    def submit(
        self, units: Iterable[ScenarioUnit], timeout_s: Optional[float] = None
    ) -> Iterator[Tuple[ScenarioUnit, UnitResult]]:
        from ..obs import analyze_group, derived_metrics, use_tracer

        for unit in units:
            budget = effective_timeout(unit, timeout_s)
            group = f"{unit.scenario_id}:{unit.label}"
            self.recorder.set_group(group)
            with use_tracer(self.recorder):
                result = execute_unit(unit, budget)
            analysis = analyze_group(self.recorder, group)
            if analysis is not None:
                # Analytic executors record no timeline; derived_metrics is
                # then empty and the result stays extras-free.
                result.extras = derived_metrics(analysis)
            yield unit, result


class ProcessPoolBackend:
    """Local ``ProcessPoolExecutor`` fan-out (the historical ``--jobs N``).

    The budget proper is enforced worker-side (``SIGALRM`` in
    :func:`execute_unit`, where the clock starts when the unit actually
    runs); the parent keeps a generous per-future backstop for workers that
    die or hang outright — deliberately loose, because the executor flags
    futures as "running" while they are still queued behind other units.
    """

    def __init__(self, jobs: int) -> None:
        if jobs <= 0:
            raise ValueError("jobs must be positive")
        self.jobs = jobs

    def submit(
        self, units: Iterable[ScenarioUnit], timeout_s: Optional[float] = None
    ) -> Iterator[Tuple[ScenarioUnit, UnitResult]]:
        all_units: List[ScenarioUnit] = list(units)
        # No ``with`` block: a timed-out unit's worker is abandoned, and the
        # context manager's shutdown(wait=True) would block on it anyway.
        pool = ProcessPoolExecutor(max_workers=self.jobs)
        pending = {}
        abandoned = False
        for unit in all_units:
            budget = effective_timeout(unit, timeout_s)
            pending[pool.submit(execute_unit, unit, budget)] = [
                unit, None, 2.0 * budget + 120.0,
            ]
        try:
            while pending:
                done, _ = wait(pending, timeout=1.0, return_when=FIRST_COMPLETED)
                now = time.perf_counter()
                for future in done:
                    unit, _started, _backstop = pending.pop(future)
                    try:
                        yield unit, future.result()
                    except (Exception, CancelledError):
                        yield unit, failed_result(
                            unit, "failed", traceback.format_exc(limit=8)
                        )
                for future, entry in list(pending.items()):
                    unit, started, backstop = entry
                    if started is None:
                        if future.running():
                            entry[1] = now
                        continue
                    if now - started <= backstop:
                        continue
                    # The worker missed even its SIGALRM budget: abandon it.
                    future.cancel()
                    abandoned = True
                    pending.pop(future)
                    yield unit, failed_result(
                        unit, "timeout",
                        f"unit exceeded the {backstop:.0f}s parent backstop",
                    )
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
            if abandoned:
                # Every tracked unit has a result by now, so any process still
                # executing is a wedged worker that ignored its SIGALRM; kill
                # it or the interpreter's atexit hook would join it forever.
                for process in list(getattr(pool, "_processes", {}).values()):
                    if process.is_alive():
                        process.terminate()


def default_backend(jobs: int = 1) -> ExecBackend:
    """The backend `run_scenarios` historically implied: serial for one job,
    the local process pool otherwise."""
    if jobs == 1:
        return SerialBackend()
    return ProcessPoolBackend(jobs=jobs)
