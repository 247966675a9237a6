"""One cold repetition of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition with fresh temporary
directories in the environment. It times set-up and the timed phase,
checks the outputs, and prints one JSON object as its last line:

    python repobench/worker.py --workload sim_grid --seed 3 --trace 0

Run from the repository root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import pathlib
import re
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import warnings

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from probe import HostClock, reference_seconds  # noqa: E402
from spans import Tracer  # noqa: E402

#: Workload sizes. ``smoke`` is the reduced size the benchmark's own tests
#: run; the full size is what the benchmark measures.
GRIDS = {
    "sim_grid": {
        "full": {"size": 5, "ranks": (16, 64, 256)},
        "smoke": {"size": 2, "ranks": (16,)},
        "models": (
            "static_block",
            "counter_dynamic",
            "work_stealing",
            "work_stealing_hier",
            "counter_per_node",
        ),
        "machine": "smp16",
    },
    "balance_grid": {
        "full": {"size": 4, "ranks": (16, 64, 256)},
        "smoke": {"size": 2, "ranks": (16,)},
        "models": ("inspector_hypergraph", "inspector_semi_matching", "inspector_lpt"),
        "machine": "commodity",
    },
}
SCF_SIZE = {"full": 2, "smoke": 1}
#: Fresh/overlap job pairs per service session. Three sessions (the
#: fewest in a run) give over 100 fresh jobs, so job_p90 has ten samples
#: beyond it.
SERVICE_PAIRS = {"full": 34, "smoke": 2}
SERVICE_SIZE = 2
SERVICE_MODELS = ("static_block", "work_stealing")
SERVICE_RANKS = (16, 64)
FOCK_TOLERANCE = 1e-10
ENERGY_TOLERANCE = 1e-8


def expected(key: str):
    """The stored reference result for ``key`` (see expected.json)."""
    return json.loads((HERE / "expected.json").read_text())[key]


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def row_order(row: dict) -> tuple:
    return (row["P"], row["model"])


def rows_digest(rows: list[dict]) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def guard_engine() -> str:
    """Fail the repetition unless the compiled engine core is in use."""
    from repro.simulate.sched import DegradedEngineWarning, make_engine

    warnings.simplefilter("error", DegradedEngineWarning)
    engine = type(make_engine()).__name__
    if engine != "CompiledEngine":
        raise RuntimeError(f"engine degraded to {engine}")
    return "compiled"


def end_setup(args, out: dict) -> None:
    """Record set-up time, in wall and reference seconds (probes taken
    before set-up began and right after it ended)."""
    wall = time.perf_counter() - args.setup_start
    out["setup_wall_s"] = wall
    out["setup_s"] = reference_seconds(wall, [args.setup_probe, args.clock.sample()])


@contextlib.contextmanager
def timed_phase(args, out: dict, probe_before=()):
    """Time the block; probe the host before it, after it, and (untraced)
    before each call of ``probe_before`` inside it. Tracing stops at the
    end, so checks made afterwards are neither timed nor traced."""
    clock = args.clock
    mark = clock.mark()
    clock.sample()
    if args.tracer is None:
        for owner, attr in probe_before:
            clock.probe_before(owner, attr)
    start = time.perf_counter()
    yield
    end = time.perf_counter()
    clock.restore()
    clock.sample()
    inside = clock.since(mark)[1:-1]
    wall = end - start - sum(inside)
    out["run_wall_s"] = wall
    out["run_s"] = reference_seconds(wall, clock.since(mark))
    out["probe_s"] = statistics.fmean(clock.since(mark))
    out["peak_rss_mb"] = peak_rss_mb()
    if args.tracer is not None:
        import layers

        args.tracer.restore()
        out["layers"] = layers.layer_report(args.tracer, window=(start, end))
        args.tracer = None


def check_isolated(tmp: pathlib.Path) -> None:
    from repro.core.cache import default_cache_dir

    cache = default_cache_dir().resolve()
    if tmp.resolve() not in cache.parents:
        raise RuntimeError(f"result cache {cache} is outside the run's temporary directory")


# ---------------------------------------------------------------------------
# sim_grid / balance_grid: a cold study through api.run_job
# ---------------------------------------------------------------------------
def grid_spec(workload: str, seed: int, size: str):
    from repro.core.jobspec import JobSpec, SourceSpec

    cfg = GRIDS[workload]
    return JobSpec(
        source=SourceSpec(size=cfg[size]["size"], block_size=4),
        models=cfg["models"],
        ranks=cfg[size]["ranks"],
        machine=cfg["machine"],
        seed=seed,
        executor="serial",
        jobs=1,
        cache=False,
    )


def run_grid(args, out: dict) -> None:
    from repro import api

    api.configure_artifacts(args.tmp / "artifacts")
    out["engine"] = guard_engine()
    check_isolated(args.tmp)
    spec = grid_spec(args.workload, args.seed, args.size)
    out["attempted"] = len(spec.models) * len(spec.ranks)
    problem = spec.source.build()
    end_setup(args, out)

    from repro.exec_models.base import ExecutionModel

    with timed_phase(args, out, probe_before=[(ExecutionModel, "run")]):
        report = api.run_job(spec, source=problem)

    import numpy as np

    from layers import result_counts

    failed = len(report.failures) + max(0, out["attempted"] - len(report.results) - len(report.failures))
    counts: dict[str, float] = {}
    for result in report.results.values():
        ok = (
            result.completion_rate == 1.0
            and result.assignment.shape == (result.n_tasks,)
            and np.all((result.assignment >= 0) & (result.assignment < result.n_ranks))
            and int(np.bincount(result.assignment, minlength=result.n_ranks).sum()) == result.n_tasks
        )
        failed += not ok
        for key, value in result_counts(result).items():
            counts[key] = counts.get(key, 0.0) + value
    digest = rows_digest(report.rows())
    stored = expected(f"{args.workload}@{args.size}")
    if args.seed == 0 and digest != stored:
        out["errors"].append(f"row digest {digest} != stored {stored}")
        failed = out["attempted"]
    out["failed"] = failed
    out["counts"] = counts
    out["digest"] = digest


# ---------------------------------------------------------------------------
# scf_converge: build plus a DIIS-accelerated SCF to convergence
# ---------------------------------------------------------------------------
def seeded_pose(molecule, seed: int):
    """The molecule under a seed-chosen rigid motion (identity at seed 0).

    A rigid motion leaves the energy and the work unchanged, so every
    seed is an equally sized input with a known answer.
    """
    import numpy as np

    from repro.chemistry.molecules import Molecule

    if seed == 0:
        return molecule
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return Molecule(molecule.symbols, molecule.coords @ q.T + rng.uniform(-2.0, 2.0, 3), molecule.charge)


def run_scf(args, out: dict) -> None:
    import numpy as np

    from repro.chemistry import fock, scf
    from repro.chemistry.fock import fock_reference_dense
    from repro.chemistry.molecules import water_cluster

    out["engine"] = guard_engine()
    check_isolated(args.tmp)
    out["attempted"] = 1
    molecule = seeded_pose(water_cluster(SCF_SIZE[args.size]), args.seed)
    end_setup(args, out)

    with timed_phase(args, out, probe_before=[(fock, "fock_reference_tasks")]):
        problem = scf.ScfProblem.build(molecule, block_size=4)
        result = scf.run_scf(molecule, problem=problem, accelerator="diis")

    g_tasks = problem.serial_g_builder()(result.density)
    g_dense = fock_reference_dense(problem.basis, result.density)
    fock_error = float(np.max(np.abs(g_tasks - g_dense)))
    stored = expected(f"scf_converge@{args.size}")
    ok = result.converged and fock_error <= FOCK_TOLERANCE
    if not result.converged:
        out["errors"].append("SCF did not converge")
    if fock_error > FOCK_TOLERANCE:
        out["errors"].append(f"G(D) differs from the dense rebuild by {fock_error:.3g}")
    if abs(result.energy - stored) > ENERGY_TOLERANCE:
        out["errors"].append(f"energy {result.energy!r} != stored {stored!r}")
        ok = False
    out["failed"] = int(not ok)
    out["counts"] = {"chemistry.scf_iterations": float(result.n_iterations)}
    out["energy"] = result.energy


# ---------------------------------------------------------------------------
# service_mix: a real `repro serve` daemon and one closed-loop client
# ---------------------------------------------------------------------------
def service_specs(seed: int, pairs: int):
    """(fresh, overlap) spec pairs: every fresh spec is new to the daemon;
    each overlap spec is a distinct sub-grid of the fresh spec before it."""
    from repro.core.jobspec import JobSpec, SourceSpec

    source = SourceSpec(size=SERVICE_SIZE, block_size=4)
    out = []
    for i in range(pairs):
        fresh = JobSpec(
            source=source,
            models=SERVICE_MODELS,
            ranks=SERVICE_RANKS,
            seed=seed * 1000 + i,
            executor="serial",
            jobs=1,
        )
        out.append((fresh, fresh.with_overrides(models=SERVICE_MODELS[1:])))
    return out


class Daemon:
    """A ``repro serve`` child on an ephemeral loopback port; always reaped."""

    def __init__(self, tmp: pathlib.Path, traced: bool) -> None:
        serve = ["serve", "--bind", "127.0.0.1:0", "--state-dir", str(tmp / "state")]
        if traced:
            self.spans_path = tmp / "daemon-spans.json"
            argv = [sys.executable, str(HERE / "serve_traced.py"), str(self.spans_path), *serve]
        else:
            self.spans_path = None
            argv = [sys.executable, "-m", "repro", *serve]
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
        )
        self.port: int | None = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            match = re.search(r"listening on http://[\d.]+:(\d+)", line)
            if match and self.port is None:
                self.port = int(match.group(1))
                self._ready.set()
        self._ready.set()

    def wait_port(self, timeout: float) -> int:
        self._ready.wait(timeout)
        if self.port is None:
            raise RuntimeError("daemon did not report its port")
        return self.port

    def stop(self) -> dict:
        """SIGTERM (graceful drain), then SIGKILL; returns the daemon's spans."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)
        if self.spans_path is not None and self.spans_path.exists():
            return json.loads(self.spans_path.read_text())
        return {}


def run_service(args, out: dict) -> None:
    from repro.service.client import ServiceClient

    pairs = service_specs(args.seed, SERVICE_PAIRS[args.size])
    out["attempted"] = 2 * len(pairs)
    args.setup_probe = args.clock.sample()
    args.setup_start = time.perf_counter()
    daemon = Daemon(args.tmp, traced=bool(args.trace))
    try:
        client = ServiceClient("127.0.0.1", daemon.wait_port(60.0), timeout=60.0)
        client.health()
        end_setup(args, out)

        jobs = []
        with timed_phase(args, out):
            for fresh, overlap in pairs:
                for kind, spec in (("fresh", fresh), ("overlap", overlap)):
                    # Client and daemon share one CPU, so this probe
                    # sees the speed the daemon runs at.
                    args.clock.sample()
                    t_submit = time.perf_counter()
                    accepted = client.submit(spec)
                    t_accepted = time.perf_counter()
                    rows = list(client.stream_rows(accepted["job_id"]))
                    jobs.append(
                        {
                            "kind": kind,
                            "spec": spec,
                            "id": accepted["job_id"],
                            "deduped": bool(accepted.get("deduped")),
                            "rtt_s": t_accepted - t_submit,
                            "latency_s": time.perf_counter() - t_submit,
                            "last_row_at": time.time(),
                            "rows": rows,
                        }
                    )
        client_rss = out["peak_rss_mb"]
        snapshots = [client.status(job["id"]) for job in jobs]
    finally:
        daemon_trace = daemon.stop()
    out["peak_rss_mb"] = client_rss + peak_rss_mb(resource.RUSAGE_CHILDREN)
    if args.trace:
        out["layers"] = daemon_trace

    # Correctness: rows bit-identical to an in-process serial run of the
    # same spec; overlap jobs served wholly from the cache.
    from repro import api
    from repro.exec_models.registry import make_model

    api.configure_artifacts(args.tmp / "verify-artifacts")
    out["engine"] = guard_engine()
    problem = pairs[0][0].source.build()
    failed = 0
    for job, snap in zip(jobs, snapshots):
        if job["kind"] == "fresh":
            report = api.run_job(job["spec"].with_overrides(cache=False), source=problem)
            fresh_rows = json.loads(json.dumps(report.rows()))
            expected = fresh_rows
        else:
            # An overlap spec is a sub-grid of the fresh spec before it, so
            # its serial rows are that spec's rows for the same models.
            names = {make_model(model).name for model in job["spec"].models}
            expected = [row for row in fresh_rows if row["model"] in names]
        errors = []
        if snap["status"] != "done":
            errors.append(f"status {snap['status']}: {snap.get('error')}")
        if sorted(job["rows"], key=row_order) != sorted(expected, key=row_order):
            errors.append("rows differ from the in-process serial run")
        if job["kind"] == "overlap" and any(cell["status"] != "cached" for cell in snap["cells"]):
            errors.append("overlap job computed cells instead of reading the cache")
        if errors:
            failed += 1
            out["errors"].append(f"{job['kind']} job {job['id'][:12]}: {'; '.join(errors)}")
        job["queue_wait_s"] = snap["started_at"] - snap["submitted_at"]
        job["exec_s"] = snap["finished_at"] - snap["started_at"]
        job["stream_tail_s"] = job["last_row_at"] - snap["finished_at"]
    out["failed"] = failed
    out["jobs"] = [
        {k: job[k] for k in ("kind", "deduped", "rtt_s", "latency_s", "queue_wait_s", "exec_s", "stream_tail_s")}
        for job in jobs
    ]


WORKLOADS = {
    "sim_grid": run_grid,
    "balance_grid": run_grid,
    "scf_converge": run_scf,
    "service_mix": run_service,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--tmp", type=pathlib.Path, required=True)
    args = parser.parse_args()
    # SIGTERM unwinds through the finally that stops the service daemon.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    out: dict = {"workload": args.workload, "seed": args.seed, "errors": [], "attempted": 1, "failed": 0}
    # One CPU for this process and the daemon it may start, so the host
    # probes run where the work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    args.clock = HostClock()
    args.tracer = None
    args.setup_probe = args.clock.sample()
    args.setup_start = time.perf_counter()
    try:
        import repro.api  # noqa: F401  (set-up: imports count toward setup_s)

        if args.trace and args.workload != "service_mix":
            # The service daemon installs the same wrappers itself.
            import layers

            args.tracer = layers.install(Tracer())
        WORKLOADS[args.workload](args, out)
    except Exception as exc:  # a crashed repetition is a failed one
        out["errors"].append(f"{type(exc).__name__}: {exc}")
        out["failed"] = out["attempted"]
    finally:
        args.clock.restore()
        if args.tracer is not None:
            args.tracer.restore()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
