"""repro: reproduction of "Laminar: A Scalable Asynchronous RL Post-Training Framework".

The package is organised as:

* :mod:`repro.sim` — discrete-event simulation substrate (engine, GPU spec,
  analytic network costs, KVCache).
* :mod:`repro.llm` — Qwen2.5 architecture specs and roofline latency models.
* :mod:`repro.workload` — heavy-tailed response-length / environment-latency
  workload generators and synthetic datasets.
* :mod:`repro.data` — partial-response pool, FIFO experience buffer.
* :mod:`repro.rollout` — the replica generation engine shared by every system.
* :mod:`repro.trainer` — actor training cost model and iteration accounting.
* :mod:`repro.runtime` — shared execution substrate: seeded workload bundle,
  completion pipeline, weight-sync components, the DES harness.
* :mod:`repro.systems` — the unified system registry: the ``System`` protocol,
  Laminar and its component library (relays, repack, rollout manager,
  staleness tracking, fault tolerance), the §8 baselines (verl, one-step
  staleness, stream generation, AReaL) and the composed variants
  (``laminar_norepack``, ``semi_sync``).
* :mod:`repro.algorithms` — GRPO / Decoupled PPO on a synthetic reasoning task.
* :mod:`repro.experiments` — one driver per table/figure of the evaluation.
* :mod:`repro.bench` — scenario registry, parallel matrix benchmark runner,
  persisted + regression-gated results (``repro-bench`` CLI).
* :mod:`repro.obs` — deterministic trace + telemetry layer: simulated-time
  tracer/recorder, Chrome-trace (Perfetto) export, structured run logging.
"""

from .config import SystemConfig, default_trainer_parallel
from .types import Experience, Prompt, Trajectory

__version__ = "2.0.0"

#: Benchmark API re-exported lazily (PEP 562) so that ``import repro`` does
#: not pull in the full experiments stack.
_BENCH_EXPORTS = (
    "ScenarioConfig",
    "ScenarioResult",
    "SCENARIOS",
    "all_scenarios",
    "get_scenario",
    "select_scenarios",
    "register_scenario",
    "run_scenarios",
    "compare_runs",
    "save_artifact",
    "load_artifact",
    # Execution backends (repro.bench.exec).
    "SerialBackend",
    "ProcessPoolBackend",
)

#: Observability API re-exported lazily from :mod:`repro.obs`.
_OBS_EXPORTS = (
    "TraceRecorder",
    "use_tracer",
    "current_tracer",
    "chrome_trace",
    "write_chrome_trace",
    "summarise_trace",
    "configure_logging",
    "get_run_logger",
)

__all__ = [
    "SystemConfig",
    "default_trainer_parallel",
    "Experience",
    "Prompt",
    "Trajectory",
    "bench",
    "obs",
    "__version__",
    *_BENCH_EXPORTS,
    *_OBS_EXPORTS,
]


def __getattr__(name):
    if name == "obs" or name in _OBS_EXPORTS:
        import importlib

        obs = importlib.import_module(".obs", __name__)
        if name == "obs":
            return obs
        return getattr(obs, name)
    if name == "bench" or name in _BENCH_EXPORTS:
        # NOT ``from . import bench``: its fromlist handling probes
        # ``hasattr(repro, "bench")``, which re-enters this __getattr__ and
        # recurses before the submodule import ever starts.
        import importlib

        bench = importlib.import_module(".bench", __name__)
        if name == "bench":
            return bench
        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
