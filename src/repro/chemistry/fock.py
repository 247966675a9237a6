"""Fock-build kernels: the per-task kernel and serial references.

:class:`TaskKernel` is the single implementation of the numerical work a
task performs; every execution path — the serial reference, the simulated
distributed runs, and the real shared-memory backend — calls the same code,
so any divergence between execution models is a scheduling bug, not a
numerics difference.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.chemistry import integrals
from repro.chemistry.basis import BasisSet, BlockStructure
from repro.chemistry.integrals import IntegralEngine, eri_tensor
from repro.chemistry.screening import SchwarzScreen
from repro.chemistry.tasks import BlockRef, TaskGraph, TaskSpec
from repro.util import ConfigurationError


class TaskKernel:
    """Executes block-quartet Fock tasks numerically.

    Pair batches (flattened primitive-product tables of the *alive* shell
    pairs of a block pair) are cached, mirroring integral-prescreening data
    a production code would hold per process.

    The kernel is semidirect: each block quartet's screened ERI tensor is
    computed once and stored, up to ``integrals._ERI_STORE_BYTES`` bytes
    per kernel, so repeated Fock builds on one problem (SCF iterations)
    reuse it. Quartets past the budget are recomputed on every call. The
    integrals depend only on geometry and basis, so a stored tensor is
    bit-identical to a recomputed one.

    Args:
        basis: basis set.
        blocks: block tiling (must match the task graph's).
        screen: Schwarz bounds.
        tau: screening tolerance; a shell pair is alive iff
            ``Q_ij * Q_max >= tau``, matching the task-cost model exactly.
        engine: optional shared :class:`IntegralEngine`.
    """

    def __init__(
        self,
        basis: BasisSet,
        blocks: BlockStructure,
        screen: SchwarzScreen,
        tau: float,
        engine: IntegralEngine | None = None,
    ) -> None:
        self.basis = basis
        self.blocks = blocks
        self.screen = screen
        self.tau = float(tau)
        self.engine = engine if engine is not None else screen.engine
        self._alive_cache: dict[BlockRef, list[tuple[int, int]]] = {}
        self._batch_cache: dict[BlockRef, object] = {}
        self._eri_store: dict[tuple[int, int, int, int], np.ndarray] = {}
        self._eri_bytes = 0
        self._eri_lock = threading.Lock()

    # ------------------------------------------------------------------
    def alive_pairs(self, a: int, b: int) -> list[tuple[int, int]]:
        """Surviving shell pairs of block pair ``(a, b)``, cached."""
        key = (a, b)
        cached = self._alive_cache.get(key)
        if cached is not None:
            return cached
        q_max = self.screen.q_max
        bound = self.tau / q_max if q_max > 0 else 0.0
        pairs = self.screen.surviving_pairs(
            self.blocks.block_range(a), self.blocks.block_range(b), bound
        )
        self._alive_cache[key] = pairs
        return pairs

    def _batch(self, a: int, b: int):
        key = (a, b)
        cached = self._batch_cache.get(key)
        if cached is None:
            cached = self.engine.pair_batch(self.alive_pairs(a, b))
            self._batch_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    def eri_block_tensor(self, a: int, b: int, c: int, d: int) -> np.ndarray:
        """Screened ERI tensor ``G[i,j,k,l]`` for one block quartet.

        Screened-away entries are exactly zero. The array is read-only:
        it may be the kernel's stored copy, shared by every later call.
        """
        key = (a, b, c, d)
        stored = self._eri_store.get(key)
        if stored is not None:
            return stored
        g = self._compute_eri_block(a, b, c, d)
        g.flags.writeable = False
        with self._eri_lock:
            if (
                key not in self._eri_store
                and self._eri_bytes + g.nbytes <= integrals._ERI_STORE_BYTES
            ):
                self._eri_store[key] = g
                self._eri_bytes += g.nbytes
        return g

    def _compute_eri_block(self, a: int, b: int, c: int, d: int) -> np.ndarray:
        bra_pairs = self.alive_pairs(a, b)
        ket_pairs = self.alive_pairs(c, d)
        lo_a, _ = self.blocks.block_range(a)
        lo_b, _ = self.blocks.block_range(b)
        lo_c, _ = self.blocks.block_range(c)
        lo_d, _ = self.blocks.block_range(d)
        shape = (
            self.blocks.block_size(a),
            self.blocks.block_size(b),
            self.blocks.block_size(c),
            self.blocks.block_size(d),
        )
        g = np.zeros(shape)
        if not bra_pairs or not ket_pairs:
            return g
        mat = self.engine.eri_batch_matrix(self._batch(a, b), self._batch(c, d))
        bi = np.array([i - lo_a for i, _ in bra_pairs])
        bj = np.array([j - lo_b for _, j in bra_pairs])
        ki = np.array([k - lo_c for k, _ in ket_pairs])
        kl = np.array([l - lo_d for _, l in ket_pairs])
        g[bi[:, None], bj[:, None], ki[None, :], kl[None, :]] = mat
        return g

    def contributions(
        self,
        task: TaskSpec,
        d_cd: np.ndarray,
        d_bd: np.ndarray,
    ) -> dict[BlockRef, np.ndarray]:
        """Execute one task given its density inputs.

        Args:
            task: the task spec.
            d_cd: density block ``D[C, D]``.
            d_bd: density block ``D[B, D]``.

        Returns:
            Fock contributions keyed by the write refs ``(A, B)`` and
            ``(A, C)`` (merged by summation when ``B == C``).
        """
        a, b, c, d = task.quartet
        g = self.eri_block_tensor(a, b, c, d)
        coul = 2.0 * np.einsum("ijkl,kl->ij", g, d_cd)
        exch = -np.einsum("ijkl,jl->ik", g, d_bd)
        out: dict[BlockRef, np.ndarray] = {}
        for ref, mat in (((a, b), coul), ((a, c), exch)):
            if ref in out:
                out[ref] = out[ref] + mat
            else:
                out[ref] = mat
        return out

    def execute_dense(self, task: TaskSpec, density: np.ndarray, fock: np.ndarray) -> None:
        """Execute one task against full dense D, accumulating into F."""
        a, b, c, d = task.quartet
        lo_c, hi_c = self.blocks.block_range(c)
        lo_d, hi_d = self.blocks.block_range(d)
        lo_b, hi_b = self.blocks.block_range(b)
        contrib = self.contributions(
            task, density[lo_c:hi_c, lo_d:hi_d], density[lo_b:hi_b, lo_d:hi_d]
        )
        for (ra, rb), mat in contrib.items():
            lo_i, hi_i = self.blocks.block_range(ra)
            lo_j, hi_j = self.blocks.block_range(rb)
            fock[lo_i:hi_i, lo_j:hi_j] += mat


def fock_reference_tasks(
    kernel: TaskKernel, graph: TaskGraph, density: np.ndarray
) -> np.ndarray:
    """Serial task-loop two-electron Fock matrix (the scheduling oracle).

    Every execution model must reproduce this matrix to floating-point
    reduction-order tolerance.
    """
    n = kernel.blocks.n_basis
    if density.shape != (n, n):
        raise ConfigurationError(f"density must be ({n}, {n}), got {density.shape}")
    fock = np.zeros((n, n))
    for task in graph.tasks:
        kernel.execute_dense(task, density, fock)
    return fock


def fock_reference_dense(
    basis: BasisSet, density: np.ndarray, engine: IntegralEngine | None = None
) -> np.ndarray:
    """Unscreened dense-tensor two-electron Fock matrix.

    Independent of the task machinery entirely — built from the full
    ``(ij|kl)`` tensor — so it cross-checks both the task decomposition and
    the screening logic on small systems.
    """
    g = eri_tensor(basis, engine)
    coul = 2.0 * np.einsum("ijkl,kl->ij", g, density)
    exch = np.einsum("ijkl,jl->ik", g, density)
    return coul - exch
