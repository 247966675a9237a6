"""The repository benchmark: one workload, measured for a fixed time.

    python3 repobench/run.py --workload sim_grid --seed 1 --seconds 25 --trace 0

Run from the repository root. Each repetition of the workload runs cold
in a fresh interpreter (``worker.py``) with fresh temporary directories
under ``.bench_build/``; repetitions are started until ``--seconds`` have
passed (and at least ``MIN_REPS``), and every timing reported is a
median over repetitions. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates traced and untraced repetitions and prints the
per-layer metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import SPAN_NAMES  # noqa: E402
from stats import percentile  # noqa: E402

WORKLOADS = ("sim_grid", "balance_grid", "scf_converge", "service_mix")
#: Fewest repetitions in a run: three untraced, or two traced plus two
#: untraced. Three service sessions hold over 100 fresh jobs.
MIN_REPS = {0: 3, 1: 4}
#: A run must end within 180 s; no repetition starts after this.
LAST_START_S = 120.0

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics that are not a span's self time, with their units.
COUNT_METRICS = {
    "simulate.events": "count",
    "simulate.ready_events": "count",
    "simulate.timeout_allocs": "count",
    "simulate.grant_resumes": "count",
    "simulate.fused_ops": "count",
    "simulate.events_per_s": "1/s",
    "simulate.engine_compiled": "bool",
    "runtime.trace_records": "count",
    "runtime.gets": "count",
    "runtime.accumulates": "count",
    "runtime.fetch_adds": "count",
    "runtime.bytes_moved": "B",
    "exec_models.steal_attempts": "count",
    "exec_models.steal_success_ratio": "ratio",
    "chemistry.scf_iterations": "count",
    "chemistry.fock_builds": "count",
    "core.cache_hit_ratio": "ratio",
    "core.journal_appends": "count",
    "core.artifact_hits": "count",
    "core.artifact_misses": "count",
    "service.submit_rtt_s": "s",
    "service.queue_wait_s": "s",
    "service.exec_s": "s",
    "service.stream_tail_s": "s",
    "service.dedupe_hits": "count",
    "service.job_p50_s": "s",
    "service.job_p90_s": "s",
    "service.overlap_p50_s": "s",
    "host.probe_ms": "ms",
    "host.run_wall_s": "s",
    "host.setup_wall_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.other_s": "s",
    "trace.covered_frac": "ratio",
}
PER_LAYER_UNITS = {f"{name}_s": "s" for name in SPAN_NAMES} | COUNT_METRICS


def worker_env(root: pathlib.Path, tmp: pathlib.Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        TMPDIR=str(tmp),
        REPRO_CACHE_DIR=str(tmp / "cache"),
        REPRO_ENGINE="compiled",
        REPRO_ENGINE_REQUIRE="1",
        REPRO_ENGINE_CACHE=str(root / ".bench_build" / "engine"),
        REPRO_ENGINE_BUILD="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def warm_up(root: pathlib.Path, tmp: pathlib.Path) -> None:
    """Build the compiled engine core and byte-compile the package,
    outside any measurement."""
    env = worker_env(root, tmp)
    env["REPRO_ENGINE_BUILD"] = "1"
    code = (
        "import sys, repro.api, repro.__main__, repro.service.client\n"
        "from repro.simulate.sched import compiled_available\n"
        "sys.exit(0 if compiled_available() else 3)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=root, timeout=600)
    if proc.returncode != 0:
        print("warning: compiled engine core unavailable; repetitions will fail", file=sys.stderr)


def signal_group(proc: subprocess.Popen, sig: int) -> None:
    try:
        os.killpg(proc.pid, sig)
    except ProcessLookupError:
        pass


def stop_group(proc: subprocess.Popen) -> None:
    """Stop the worker's process group: SIGTERM, SIGKILL after 10 s, then
    SIGKILL for anything the worker left behind; wait for the worker."""
    if proc.poll() is None:
        signal_group(proc, signal.SIGTERM)
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            pass
    signal_group(proc, signal.SIGKILL)
    proc.wait()


def run_once(root: pathlib.Path, scratch: pathlib.Path, args, rep: int, traced: bool, timeout: float) -> dict:
    tmp = scratch / f"rep{rep}"
    tmp.mkdir(parents=True)
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(int(traced)),
        "--tmp", str(tmp),
    ]
    # Its own process group, so the worker and the daemon it may have
    # started are stopped together whatever way this run ends.
    proc = subprocess.Popen(
        cmd, env=worker_env(root, tmp), cwd=root, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
        lines = stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if result is None:
            raise ValueError(f"worker exited {proc.returncode} without a result: {stderr[-2000:]}")
    except (subprocess.TimeoutExpired, ValueError) as exc:
        result = {"errors": [f"{type(exc).__name__}: {exc}"], "attempted": 1, "failed": 1}
    finally:
        stop_group(proc)
        shutil.rmtree(tmp, ignore_errors=True)
    result["traced"] = traced
    return result


def median_of(reps: list[dict], key: str) -> float:
    values = [r[key] for r in reps if key in r]
    if not values:
        raise SystemExit(f"no repetition reported {key}")
    return statistics.median(values)


def service_jobs(reps: list[dict], kind: str) -> list[dict]:
    return [job for r in reps for job in r.get("jobs", ()) if job["kind"] == kind]


def end_to_end(reps: list[dict]) -> dict[str, float]:
    return {name: median_of(reps, name) for name in END_TO_END_UNITS}


def per_layer(workload: str, reps: list[dict]) -> dict[str, float]:
    traced = [r for r in reps if r["traced"] and "layers" in r]
    untraced = [r for r in reps if not r["traced"] and "run_s" in r]
    if not traced or not untraced:
        raise SystemExit("the traced run needs traced and untraced repetitions")
    layer = {
        key: statistics.median(r["layers"].get(key, 0.0) for r in traced)
        for key in {k for r in traced for k in r["layers"]}
    }
    get = layer.get
    metrics = {f"{name}_s": get(f"{name}_s", 0.0) for name in SPAN_NAMES}
    for name in COUNT_METRICS:
        metrics[name] = get(name, 0.0)
    loop = metrics["simulate.loop_s"]
    metrics["simulate.events_per_s"] = get("simulate.events", 0.0) / loop if loop else 0.0
    metrics["simulate.engine_compiled"] = float(all(r.get("engine") == "compiled" for r in reps))
    attempts = get("exec_models.steal_attempts", 0.0)
    metrics["exec_models.steal_success_ratio"] = get("exec_models.steal_successes", 0.0) / attempts if attempts else 0.0
    metrics["chemistry.fock_builds"] = get("chemistry.fock.calls", 0.0)
    gets = get("core.cache_get.calls", 0.0)
    metrics["core.cache_hit_ratio"] = get("core.cache_hits", 0.0) / gets if gets else 0.0
    metrics["core.journal_appends"] = get("core.journal_append.calls", 0.0)
    metrics["core.artifact_misses"] = get("core.artifact.builds", 0.0)
    metrics["core.artifact_hits"] = get("core.artifact.calls", 0.0) - metrics["core.artifact_misses"]

    if workload == "service_mix":
        fresh, overlap = service_jobs(reps, "fresh"), service_jobs(reps, "overlap")
        every = fresh + overlap
        metrics["service.submit_rtt_s"] = statistics.median(j["rtt_s"] for j in every)
        metrics["service.queue_wait_s"] = statistics.median(j["queue_wait_s"] for j in every)
        metrics["service.exec_s"] = statistics.median(j["exec_s"] for j in fresh)
        metrics["service.stream_tail_s"] = statistics.median(j["stream_tail_s"] for j in every)
        metrics["service.dedupe_hits"] = float(sum(j["deduped"] for j in every))
        metrics["service.job_p50_s"] = statistics.median(j["latency_s"] for j in fresh)
        metrics["service.job_p90_s"] = percentile([j["latency_s"] for j in fresh], 0.9)
        metrics["service.overlap_p50_s"] = statistics.median(j["latency_s"] for j in overlap)

    metrics["host.probe_ms"] = 1e3 * median_of(untraced, "probe_s")
    metrics["host.run_wall_s"] = median_of(untraced, "run_wall_s")
    metrics["host.setup_wall_s"] = median_of(untraced, "setup_wall_s")
    traced_run = median_of(traced, "run_wall_s")
    covered = statistics.median(r["layers"].get("covered_s", 0.0) for r in traced)
    metrics["trace.run_s"] = traced_run
    metrics["trace.overhead_s"] = traced_run - metrics["host.run_wall_s"]
    metrics["trace.other_s"] = traced_run - covered
    metrics["trace.covered_frac"] = covered / traced_run
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds through the finally blocks that stop the workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    scratch = root / ".bench_build" / "tmp" / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        warm_up(root, scratch)
        began = time.monotonic()
        reps: list[dict] = []
        last = 0.0
        while True:
            elapsed = time.monotonic() - began
            # Stop once the window is spent, counting half of the next
            # repetition, so runs overshoot --seconds by little.
            done = elapsed + last / 2 >= args.seconds
            if (done and len(reps) >= MIN_REPS[args.trace]) or elapsed > LAST_START_S:
                break
            traced = bool(args.trace) and len(reps) % 2 == 0
            reps.append(run_once(root, scratch, args, len(reps), traced, timeout=170.0 - elapsed))
            last = time.monotonic() - began - elapsed
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(int(r.get("attempted", 1)) for r in reps)
    failed = sum(int(r.get("failed", 0)) for r in reps)
    for r in reps:
        for error in r.get("errors", ()):
            print(f"FAILED ({args.workload}, seed {args.seed}): {error}")
    if args.trace:
        metrics, units = per_layer(args.workload, reps), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(reps), END_TO_END_UNITS
    engines = sorted({r.get("engine", "none") for r in reps})
    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(reps)}  engine {','.join(engines)}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:16.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
