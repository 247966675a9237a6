"""Which public boundaries of ``repro`` the traced run wraps, and the
per-layer metrics derived from the spans and counters.

Per-operation calls that run 10^5 or more times per cell are left
unwrapped on purpose (``GlobalArray.get/accumulate``, ``Comm.*``,
``Network.rma_traced``, ``TraceRecorder.record``, ``execute_task``): a
Python wrapper there would cost more than the call. Their work shows in
the ``RunResult`` counters and their time stays inside
``simulate.loop_s``.
"""

from __future__ import annotations

from typing import Any

from spans import Boundary, Tracer, self_times, union_length

#: Span names, in report order. Each becomes the self-time metric
#: ``<name>_s``.
SPAN_NAMES = (
    "simulate.loop",
    "runtime.trace_fold",
    "exec_models.run",
    "balance.hypergraph",
    "balance.hypergraph_build",
    "balance.semi_matching",
    "balance.lpt",
    "chemistry.build",
    "chemistry.scf",
    "chemistry.fock",
    "chemistry.eri",
    "core.sweep",
    "core.cache_get",
    "core.cache_put",
    "core.journal_append",
    "core.artifact",
    "parallel.executor",
)

#: ``RunResult`` attributes summed into counts by the ``exec_models.run``
#: boundary.
RESULT_COUNTS = {
    "simulate.events": "sim_events",
    "simulate.ready_events": "sim_ready_events",
    "simulate.timeout_allocs": "timeout_allocs",
    "simulate.grant_resumes": "grant_resumes",
    "simulate.fused_ops": "fused_ops",
    "runtime.trace_records": "trace_records",
}
NETWORK_COUNTS = {
    "runtime.gets": "gets",
    "runtime.accumulates": "accumulates",
    "runtime.fetch_adds": "fetch_adds",
    "runtime.bytes_moved": "bytes_moved",
}
MODEL_COUNTS = {
    "exec_models.steal_attempts": "steal_attempts",
    "exec_models.steal_successes": "steal_successes",
}


def result_counts(result: Any) -> dict[str, float]:
    """Deterministic work counts of one ``RunResult``."""
    counts = {name: float(getattr(result, attr)) for name, attr in RESULT_COUNTS.items()}
    counts.update(
        {name: float(result.network.get(key, 0.0)) for name, key in NETWORK_COUNTS.items()}
    )
    counts.update(
        {name: float(result.counters.get(key, 0.0)) for name, key in MODEL_COUNTS.items()}
    )
    return counts


def _model_run_counts(args: tuple, result: Any) -> dict[str, float]:
    return result_counts(result)


def _cache_get_counts(args: tuple, result: Any) -> dict[str, float]:
    return {"core.cache_hits": float(result is not None)}


def _scf_counts(args: tuple, result: Any) -> dict[str, float]:
    return {"chemistry.scf_iterations": float(result.n_iterations)}


def boundaries() -> list[Boundary]:
    """The wrapped boundaries; imports the ``repro`` modules they live in."""
    from repro.balance import greedy, hypergraph, partition, semi_matching
    from repro.chemistry import fock, scf
    from repro.core.artifacts import ArtifactStore
    from repro.core.cache import ResultCache
    from repro.core.journal import SweepJournal
    from repro.core.sweep import SweepRunner
    from repro.exec_models.base import ExecutionModel
    from repro.parallel.executor import SerialExecutor
    from repro.runtime.trace import TraceRecorder
    from repro.simulate.engine import Engine
    from repro.simulate.sched import CompiledEngine

    return [
        Boundary("simulate.loop", Engine, "run"),
        Boundary("simulate.loop", CompiledEngine, "run"),
        Boundary("runtime.trace_fold", TraceRecorder, "breakdown"),
        Boundary("exec_models.run", ExecutionModel, "run", count=_model_run_counts),
        Boundary("balance.hypergraph", partition, "partition_hypergraph"),
        Boundary("balance.hypergraph_build", hypergraph, "fock_hypergraph"),
        Boundary("balance.semi_matching", semi_matching, "build_eligibility"),
        Boundary("balance.semi_matching", semi_matching, "weighted_semi_matching"),
        Boundary("balance.lpt", greedy, "lpt"),
        Boundary("chemistry.build", scf.ScfProblem, "build"),
        Boundary("chemistry.scf", scf, "run_scf", count=_scf_counts),
        Boundary("chemistry.fock", fock, "fock_reference_tasks"),
        Boundary("chemistry.eri", fock.TaskKernel, "eri_block_tensor"),
        Boundary("core.sweep", SweepRunner, "run_cells"),
        Boundary("core.cache_get", ResultCache, "get", count=_cache_get_counts),
        Boundary("core.cache_put", ResultCache, "put"),
        Boundary("core.journal_append", SweepJournal, "append"),
        # fetch(self, key, build, ...) calls build() only on a miss.
        Boundary("core.artifact", ArtifactStore, "fetch", inherit_arg=2),
        Boundary("parallel.executor", SerialExecutor, "run"),
    ]


def install(tracer: Tracer) -> Tracer:
    for boundary in boundaries():
        tracer.install(boundary)
    return tracer


def layer_report(tracer: Tracer, window: tuple[float, float] | None = None) -> dict[str, float]:
    """Self time per span name (``<name>_s``), every count, and
    ``covered_s``: the time the spans inside ``window`` (the timed phase)
    cover, which the caller compares with the phase's wall time."""
    own = self_times(tracer.spans)
    report = {f"{name}_s": own.get(name, 0.0) for name in SPAN_NAMES}
    report.update({key: float(value) for key, value in tracer.counts.items()})
    if window is not None:
        report["covered_s"] = union_length(
            (s.start, s.end) for s in tracer.spans if s.start >= window[0] and s.end <= window[1]
        )
    return report
