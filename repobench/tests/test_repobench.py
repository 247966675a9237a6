"""Tests of the benchmark itself (not of the program it measures).

    PYTHONPATH=src python -m pytest repobench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
from probe import PROBE_REF_S, HostClock, reference_seconds  # noqa: E402
from spans import INHERIT, Boundary, Span, Tracer, self_times, union_length  # noqa: E402
from stats import percentile  # noqa: E402


# -- wrappers ------------------------------------------------------------
def _bindings() -> dict:
    """Every attribute a boundary may patch, as the raw stored object."""
    seen = {}
    for boundary in layers.boundaries():
        owner = boundary.owner
        if isinstance(owner, type):
            seen[(owner, boundary.attr)] = owner.__dict__[boundary.attr]
        else:
            original = owner.__dict__[boundary.attr]
            for module in list(sys.modules.values()):
                if module.__dict__.get(boundary.attr) is original:
                    seen[(module, boundary.attr)] = original
    return seen


def test_wrappers_restore_the_original_functions():
    before = _bindings()
    tracer = layers.install(Tracer())
    patched = [key for key, obj in before.items() if key[0].__dict__[key[1]] is not obj]
    assert len(patched) >= len(layers.boundaries())
    tracer.restore()
    for (owner, attr), obj in before.items():
        assert owner.__dict__[attr] is obj, (owner, attr)


def test_classmethod_and_generator_boundaries_still_work():
    from repro.chemistry.molecules import water_cluster
    from repro.chemistry.scf import ScfProblem
    from repro.parallel.executor import SerialExecutor

    with layers.install(Tracer()) as tracer:
        problem = ScfProblem.build(water_cluster(1), block_size=3)
        outcomes = list(SerialExecutor().run(lambda x: x * 2, [1, 2, 3]))
    assert problem.graph.n_tasks > 0
    assert [outcome for _pos, outcome in outcomes] == [2, 4, 6]
    names = [span.name for span in tracer.spans]
    assert "chemistry.build" in names
    # One span per resumption of the generator: three items plus the end.
    assert names.count("parallel.executor") == 4


def test_host_probe_hooks_restore_and_scale():
    from repro.chemistry import fock

    original = fock.__dict__["fock_reference_tasks"]
    with HostClock() as clock:
        clock.probe_before(fock, "fock_reference_tasks")
        assert fock.__dict__["fock_reference_tasks"] is not original
        with pytest.raises(TypeError):
            fock.fock_reference_tasks()  # the probe runs before the call
        assert len(clock.samples) == 1 and clock.samples[0] > 0
    assert fock.__dict__["fock_reference_tasks"] is original
    assert reference_seconds(3.0, [2 * PROBE_REF_S, 2 * PROBE_REF_S]) == pytest.approx(1.5)


# -- self time -------------------------------------------------------------
def test_union_length_counts_overlaps_once():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([]) == 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("outer", 0.0, 10.0, -1),
        Span("inner", 1.0, 4.0, 0),
        Span("inner", 3.0, 6.0, 0),  # overlaps its sibling
        Span("leaf", 2.0, 3.0, 1),
    ]
    own = self_times(spans)
    assert own["outer"] == pytest.approx(10.0 - 5.0)
    assert own["inner"] == pytest.approx((3.0 - 1.0) + 3.0)
    assert own["leaf"] == pytest.approx(1.0)


def test_inherited_time_goes_to_the_caller_of_the_boundary():
    spans = [
        Span("chemistry.build", 0.0, 10.0, -1),
        Span("core.artifact", 1.0, 9.0, 0),
        Span(INHERIT, 2.0, 8.0, 1),
    ]
    own = self_times(spans)
    assert own == {"chemistry.build": pytest.approx(8.0), "core.artifact": pytest.approx(2.0)}


def test_builder_argument_is_counted_and_inherited():
    def fetch(key, build):
        return build()

    holder = type("Holder", (), {"fetch": staticmethod(fetch)})
    tracer = Tracer()
    boundary = Boundary("core.artifact", holder, "fetch", inherit_arg=1)
    wrapped = tracer.wrap(boundary, fetch)
    assert wrapped("k", lambda: 7) == 7
    assert tracer.counts["core.artifact.calls"] == 1
    assert tracer.counts["core.artifact.builds"] == 1
    assert [span.name for span in tracer.spans] == ["core.artifact", INHERIT]


# -- percentile rule -------------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 0.9) == 90.0
    with pytest.raises(ValueError):
        percentile(values[:99], 0.9)
    assert percentile(values[:20], 0.5) == 10.0


# -- smoke runs ------------------------------------------------------------
def _smoke(workload: str, tmp_path: pathlib.Path, trace: int = 0) -> dict:
    tmp = tmp_path / f"{workload}-{trace}"
    tmp.mkdir()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "0",
         "--trace", str(trace), "--size", "smoke", "--tmp", str(tmp)],
        env=run.worker_env(ROOT, tmp), cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def engine_built(tmp_path_factory):
    run.warm_up(ROOT, tmp_path_factory.mktemp("warm"))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_passes_its_correctness_gate(workload, tmp_path, engine_built):
    out = _smoke(workload, tmp_path)
    assert out["errors"] == []
    assert out["failed"] == 0 and out["attempted"] >= 1
    assert out["engine"] == "compiled"
    assert out["run_s"] > 0 and out["setup_s"] > 0


@pytest.mark.parametrize("workload", ["sim_grid", "balance_grid"])
def test_traced_run_repeats_the_untraced_counts(workload, tmp_path, engine_built):
    plain = _smoke(workload, tmp_path, trace=0)
    traced = _smoke(workload, tmp_path, trace=1)
    assert traced["digest"] == plain["digest"]
    for key, value in plain["counts"].items():
        assert traced["layers"][key] == value, key
    assert 0 < traced["layers"]["covered_s"] <= traced["run_wall_s"]


def test_benchmark_alone_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "sim_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
