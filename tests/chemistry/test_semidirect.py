"""The semidirect ERI store of :class:`TaskKernel`.

Each block quartet's screened tensor is computed once per kernel and
reused by every later Fock build; results must be byte-identical to
recomputing every tensor on every build.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.chemistry import ScfProblem, integrals, water_cluster
from repro.chemistry.fock import TaskKernel, fock_reference_tasks
from repro.chemistry.scf import run_scf
from repro.chemistry.symmetry import build_symmetric_task_graph, fock_reference_symmetric
from repro.parallel.pool import SharedMemoryFockBuilder


def _problem(n_waters: int = 2, basis_set: str = "s-only") -> ScfProblem:
    """A fresh problem, so its kernel's store starts cold."""
    return ScfProblem.build(
        water_cluster(n_waters), block_size=3, tau=1.0e-12, basis_set=basis_set
    )


def _fresh_kernel(kernel: TaskKernel) -> TaskKernel:
    """A cold kernel over the same problem (empty store)."""
    return TaskKernel(kernel.basis, kernel.blocks, kernel.screen, kernel.tau, kernel.engine)


def _direct_g(problem: ScfProblem):
    """The direct reference: a cold kernel (every tensor recomputed) per build."""
    return lambda density: fock_reference_tasks(
        _fresh_kernel(problem.kernel), problem.graph, density
    )


def _density(n: int) -> np.ndarray:
    rng = np.random.default_rng(3)
    m = rng.normal(size=(n, n))
    return 0.1 * (m + m.T)


def _count_eri_calls(monkeypatch, kernel: TaskKernel) -> list[int]:
    calls = [0]
    inner = kernel.engine.eri_batch_matrix

    def counted(bra, ket):
        calls[0] += 1
        return inner(bra, ket)

    monkeypatch.setattr(kernel.engine, "eri_batch_matrix", counted)
    return calls


def _assert_store_consistent(kernel: TaskKernel) -> None:
    """Every stored tensor is whole and the byte count matches the store."""
    assert kernel._eri_bytes == sum(g.nbytes for g in kernel._eri_store.values())
    assert kernel._eri_bytes <= integrals._ERI_STORE_BYTES
    fresh = _fresh_kernel(kernel)
    for quartet, g in kernel._eri_store.items():
        assert not g.flags.writeable
        assert np.array_equal(g, fresh.eri_block_tensor(*quartet))


class TestStore:
    def test_second_build_computes_no_integrals(self, monkeypatch):
        problem = _problem()
        calls = _count_eri_calls(monkeypatch, problem.kernel)
        density = _density(problem.basis.n_basis)
        g_builder = problem.serial_g_builder()
        first = g_builder(density)
        assert calls[0] > 0
        calls[0] = 0
        second = g_builder(density)
        assert calls[0] == 0
        assert np.array_equal(first, second)

    def test_returned_tensor_is_read_only(self):
        problem = _problem()
        quartet = problem.graph.tasks[0].quartet
        g = problem.kernel.eri_block_tensor(*quartet)
        with pytest.raises(ValueError):
            g[0, 0, 0, 0] = 1.0
        assert problem.kernel.eri_block_tensor(*quartet) is g

    @pytest.mark.parametrize("basis_set", ["s-only", "sto-3g"])
    def test_g_and_scf_byte_identical_to_direct(self, basis_set):
        n_waters = 2 if basis_set == "s-only" else 1
        problem = _problem(n_waters, basis_set)
        density = _density(problem.basis.n_basis)
        g_builder = problem.serial_g_builder()
        direct = _direct_g(problem)
        cold = g_builder(density)
        warm = g_builder(density)
        assert np.array_equal(cold, direct(density))
        assert np.array_equal(warm, cold)

        semidirect = run_scf(problem.molecule, problem=problem, accelerator="diis")
        reference = run_scf(
            problem.molecule, problem=problem, accelerator="diis", g_builder=direct
        )
        assert semidirect.converged and reference.converged
        assert semidirect.energy == reference.energy
        assert semidirect.n_iterations == reference.n_iterations
        assert np.array_equal(semidirect.density, reference.density)

    def test_budget_caps_the_store(self, monkeypatch):
        problem = _problem()
        kernel = problem.kernel
        quartet = problem.graph.tasks[0].quartet
        tensor_bytes = _fresh_kernel(problem.kernel).eri_block_tensor(*quartet).nbytes
        monkeypatch.setattr(integrals, "_ERI_STORE_BYTES", 5 * tensor_bytes)
        calls = _count_eri_calls(monkeypatch, kernel)
        density = _density(problem.basis.n_basis)
        g_builder = problem.serial_g_builder()
        cold = g_builder(density)
        first_calls, calls[0] = calls[0], 0
        warm = g_builder(density)
        # Stored quartets are not recomputed; overflowed ones are.
        assert 0 < calls[0] < first_calls
        assert 0 < len(kernel._eri_store) < problem.graph.n_tasks
        _assert_store_consistent(kernel)
        reference = _direct_g(problem)(density)
        assert np.array_equal(cold, reference)
        assert np.array_equal(warm, reference)


class TestCallers:
    def test_symmetric_reference_warm_equals_cold(self):
        problem = _problem()
        graph = build_symmetric_task_graph(
            problem.basis, problem.blocks, problem.screen, problem.kernel.tau
        )
        density = _density(problem.basis.n_basis)
        cold = fock_reference_symmetric(problem.kernel, graph, density)
        warm = fock_reference_symmetric(problem.kernel, graph, density)
        assert np.array_equal(cold, warm)
        assert np.array_equal(
            cold, fock_reference_symmetric(_fresh_kernel(problem.kernel), graph, density)
        )

    @pytest.mark.parametrize("mode", ["static", "counter", "stealing"])
    def test_threads_fill_one_store(self, mode):
        problem = _problem()
        density = _density(problem.basis.n_basis)
        serial = _direct_g(problem)(density)
        builder = SharedMemoryFockBuilder(problem, n_workers=6, mode=mode, seed=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            cold = builder.build(density)
            warm = builder.build(density)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.name.startswith("fock-worker") for t in threading.enumerate())
        np.testing.assert_allclose(cold, serial, atol=1e-11)
        np.testing.assert_allclose(warm, serial, atol=1e-11)
        assert len(problem.kernel._eri_store) == problem.graph.n_tasks
        _assert_store_consistent(problem.kernel)
