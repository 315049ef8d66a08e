"""Profiling harness for the serving engine's decode hot path.

Public surface:

- :class:`StepProfiler` — attachable per-phase wall-time recorder (plus an
  optional cProfile capture) whose totals land in
  ``ExecutionStats.phase_times``.
- :func:`span` — the marker used by the engine/model/kvpool hot paths;
  a shared no-op when no profiler is attached.
"""

from repro.profiling.profiler import CORE_PHASES, StepProfiler, span

__all__ = ["CORE_PHASES", "StepProfiler", "span"]
