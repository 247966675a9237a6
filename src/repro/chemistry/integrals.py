"""Closed-form Gaussian integrals over contracted s-type shells.

For s-type primitives every molecular integral reduces to a closed form in
the Gaussian-product-theorem quantities, with the Boys function

    F0(t) = (1/2) sqrt(pi/t) erf(sqrt(t))

as the only special function. Given primitives ``a`` at A and ``b`` at B:

    p   = a + b                  (total exponent)
    P   = (a A + b B) / p        (product center)
    mu  = a b / p
    K   = c_a c_b exp(-mu |A-B|^2)   (contraction prefactor)

then

    overlap   (a|b)       = K (pi/p)^{3/2}
    kinetic   (a|T|b)     = K mu (3 - 2 mu |A-B|^2) (pi/p)^{3/2}
    nuclear   (a|Z_C/r|b) = -Z_C K (2 pi / p) F0(p |P-C|^2)
    ERI       (ab|cd)     = K_ab K_cd (2 pi^{5/2}) /
                            (p q sqrt(p+q)) F0(rho |P-Q|^2),
                            rho = p q / (p + q)

The :class:`IntegralEngine` caches per-shell-pair primitive-product data and
evaluates block ERIs as one vectorized outer interaction between two *pair
batches* (flattened primitive-product tables with segment indices), chunked
to bound peak memory. That same engine backs both the dense reference
builders used in tests and the per-task kernels every execution model runs,
so correctness comparisons are exact up to floating-point reduction order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from repro.chemistry.basis import BasisSet
from repro.chemistry.molecules import Molecule

_TWO_PI_POW = 2.0 * np.pi**2.5

#: Row-chunk size for the outer primitive-interaction product; bounds peak
#: memory of a block ERI at roughly ``chunk * n_cols * 8`` bytes.
_ERI_CHUNK = 4096

#: Byte budget of each :class:`~repro.chemistry.fock.TaskKernel`'s store of
#: screened block-quartet ERI tensors (semidirect SCF). The full set is
#: about ``n_basis**4 * 8`` bytes; quartets past the budget are recomputed
#: on every Fock build.
_ERI_STORE_BYTES = 128 * 2**20


def boys_f0(t: np.ndarray | float) -> np.ndarray:
    """Vectorized Boys function of order zero.

    Uses the Taylor expansion ``1 - t/3 + t^2/10`` below 1e-12 where the
    closed form is 0/0.
    """
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    small = t < 1.0e-12
    ts = t[small]
    out[small] = 1.0 - ts / 3.0 + ts * ts / 10.0
    tl = t[~small]
    out[~small] = 0.5 * np.sqrt(np.pi / tl) * erf(np.sqrt(tl))
    return out


@dataclass(frozen=True)
class PairData:
    """Primitive-product table for one unordered shell pair.

    Attributes:
        p: ``(n,)`` total exponents of the primitive products.
        center: ``(n, 3)`` product centers P.
        k: ``(n,)`` contraction prefactors K (includes exp damping).
    """

    p: np.ndarray
    center: np.ndarray
    k: np.ndarray

    @property
    def nprim(self) -> int:
        return int(self.p.size)


@dataclass(frozen=True)
class PairBatch:
    """Flattened primitive-product table for a *list* of shell pairs.

    ``seg[m]`` maps primitive product ``m`` back to the position of its
    shell pair in the originating pair list, enabling one vectorized
    interaction computation followed by a segment-sum.
    """

    p: np.ndarray
    center: np.ndarray
    k: np.ndarray
    seg: np.ndarray
    n_pairs: int

    @property
    def nprim(self) -> int:
        return int(self.p.size)


class IntegralEngine:
    """Caching integral evaluator for one basis set.

    Args:
        basis: the basis set.
        prim_cutoff: primitive products with ``|K|`` below this bound are
            dropped from pair tables. The default 0.0 keeps everything so
            all computation paths agree to reduction-order rounding.
    """

    def __init__(self, basis: BasisSet, prim_cutoff: float = 0.0) -> None:
        if basis.max_angular_momentum > 0:
            from repro.util import ConfigurationError

            raise ConfigurationError(
                "IntegralEngine handles s functions only; use "
                "repro.chemistry.integrals_general.GeneralIntegralEngine "
                "(or make_engine) for bases with p shells"
            )
        self.basis = basis
        self.prim_cutoff = float(prim_cutoff)
        self._pair_cache: dict[tuple[int, int], PairData] = {}

    # ------------------------------------------------------------------
    # Pair data
    # ------------------------------------------------------------------
    def pair_data(self, i: int, j: int) -> PairData:
        """Primitive-product table for shell pair ``(i, j)`` (symmetric)."""
        key = (i, j) if i <= j else (j, i)
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        sh_i = self.basis.shells[key[0]]
        sh_j = self.basis.shells[key[1]]
        a = sh_i.exponents[:, None]
        b = sh_j.exponents[None, :]
        p = (a + b).ravel()
        mu = (a * b / (a + b)).ravel()
        ab2 = float(((sh_i.center - sh_j.center) ** 2).sum())
        k = (sh_i.coefficients[:, None] * sh_j.coefficients[None, :]).ravel()
        k = k * np.exp(-mu * ab2)
        center = (
            sh_i.exponents[:, None, None] * sh_i.center[None, None, :]
            + sh_j.exponents[None, :, None] * sh_j.center[None, None, :]
        ).reshape(-1, 3) / p[:, None]
        if self.prim_cutoff > 0.0:
            keep = np.abs(k) >= self.prim_cutoff
            # Always keep at least the dominant product so no pair table is
            # empty (a fully-empty table would silently zero an integral).
            if not keep.any():
                keep[np.argmax(np.abs(k))] = True
            p, k, center = p[keep], k[keep], center[keep]
        data = PairData(p, center, k)
        self._pair_cache[key] = data
        return data

    def pair_batch(self, pairs: list[tuple[int, int]]) -> PairBatch:
        """Concatenate pair tables for ``pairs`` into one flat batch."""
        if not pairs:
            return PairBatch(
                np.empty(0), np.empty((0, 3)), np.empty(0), np.empty(0, dtype=np.int64), 0
            )
        tables = [self.pair_data(i, j) for i, j in pairs]
        p = np.concatenate([t.p for t in tables])
        center = np.vstack([t.center for t in tables])
        k = np.concatenate([t.k for t in tables])
        seg = np.concatenate(
            [np.full(t.nprim, idx, dtype=np.int64) for idx, t in enumerate(tables)]
        )
        return PairBatch(p, center, k, seg, len(pairs))

    # ------------------------------------------------------------------
    # Two-electron integrals
    # ------------------------------------------------------------------
    def eri_pair_pair(self, bra: PairData, ket: PairData) -> float:
        """Single contracted ERI ``(ij|kl)`` from two pair tables."""
        p = bra.p[:, None]
        q = ket.p[None, :]
        pq = p * q
        rho = pq / (p + q)
        r2 = ((bra.center[:, None, :] - ket.center[None, :, :]) ** 2).sum(axis=-1)
        vals = (
            _TWO_PI_POW
            / (pq * np.sqrt(p + q))
            * bra.k[:, None]
            * ket.k[None, :]
            * boys_f0(rho * r2)
        )
        return float(vals.sum())

    def eri_batch_matrix(self, bra: PairBatch, ket: PairBatch) -> np.ndarray:
        """``(bra.n_pairs, ket.n_pairs)`` matrix of contracted ERIs.

        Entry ``(m, n)`` is the ERI between bra pair *m* and ket pair *n*.
        The primitive interaction product is evaluated in row chunks and
        segment-summed into the output, bounding peak memory.
        """
        out = np.zeros((bra.n_pairs, ket.n_pairs))
        if bra.nprim == 0 or ket.nprim == 0:
            return out
        qk = ket.p
        for lo in range(0, bra.nprim, _ERI_CHUNK):
            hi = min(lo + _ERI_CHUNK, bra.nprim)
            p = bra.p[lo:hi, None]
            pq = p * qk[None, :]
            rho = pq / (p + qk[None, :])
            r2 = ((bra.center[lo:hi, None, :] - ket.center[None, :, :]) ** 2).sum(axis=-1)
            vals = (
                _TWO_PI_POW
                / (pq * np.sqrt(p + qk[None, :]))
                * bra.k[lo:hi, None]
                * ket.k[None, :]
                * boys_f0(rho * r2)
            )
            # Sum primitive products into their contracted pair slots:
            # first collapse ket primitives into ket pairs (dense matmul on
            # a segment indicator would be wasteful; use add.at on columns),
            # then bra rows into bra pairs.
            col_sum = np.zeros((hi - lo, ket.n_pairs))
            np.add.at(col_sum.T, ket.seg, vals.T)
            np.add.at(out, bra.seg[lo:hi], col_sum)
        return out

    def eri_block(
        self,
        bra_pairs: list[tuple[int, int]],
        ket_pairs: list[tuple[int, int]],
    ) -> np.ndarray:
        """ERI matrix between explicit bra and ket shell-pair lists."""
        return self.eri_batch_matrix(self.pair_batch(bra_pairs), self.pair_batch(ket_pairs))


# ----------------------------------------------------------------------
# One-electron dense builders
# ----------------------------------------------------------------------
def _pair_geometry(basis: BasisSet) -> tuple[np.ndarray, np.ndarray]:
    centers = basis.centers
    diff = centers[:, None, :] - centers[None, :, :]
    return centers, (diff**2).sum(axis=-1)


def overlap_matrix(basis: BasisSet) -> np.ndarray:
    """Dense overlap matrix S (n_basis x n_basis)."""
    if basis.max_angular_momentum > 0:
        from repro.chemistry.integrals_general import overlap_matrix_general

        return overlap_matrix_general(basis)
    n = basis.n_basis
    s = np.empty((n, n))
    _, ab2 = _pair_geometry(basis)
    for i in range(n):
        sh_i = basis.shells[i]
        for j in range(i, n):
            sh_j = basis.shells[j]
            a = sh_i.exponents[:, None]
            b = sh_j.exponents[None, :]
            p = a + b
            mu = a * b / p
            k = sh_i.coefficients[:, None] * sh_j.coefficients[None, :]
            val = (k * np.exp(-mu * ab2[i, j]) * (np.pi / p) ** 1.5).sum()
            s[i, j] = s[j, i] = val
    return s


def kinetic_matrix(basis: BasisSet) -> np.ndarray:
    """Dense kinetic-energy matrix T."""
    if basis.max_angular_momentum > 0:
        from repro.chemistry.integrals_general import kinetic_matrix_general

        return kinetic_matrix_general(basis)
    n = basis.n_basis
    t = np.empty((n, n))
    _, ab2 = _pair_geometry(basis)
    for i in range(n):
        sh_i = basis.shells[i]
        for j in range(i, n):
            sh_j = basis.shells[j]
            a = sh_i.exponents[:, None]
            b = sh_j.exponents[None, :]
            p = a + b
            mu = a * b / p
            k = sh_i.coefficients[:, None] * sh_j.coefficients[None, :]
            val = (
                k
                * np.exp(-mu * ab2[i, j])
                * mu
                * (3.0 - 2.0 * mu * ab2[i, j])
                * (np.pi / p) ** 1.5
            ).sum()
            t[i, j] = t[j, i] = val
    return t


def nuclear_attraction_matrix(basis: BasisSet, molecule: Molecule | None = None) -> np.ndarray:
    """Dense nuclear-attraction matrix V (negative definite contribution)."""
    if basis.max_angular_momentum > 0:
        from repro.chemistry.integrals_general import nuclear_attraction_matrix_general

        return nuclear_attraction_matrix_general(basis, molecule)
    mol = molecule if molecule is not None else basis.molecule
    n = basis.n_basis
    v = np.zeros((n, n))
    charges = mol.atomic_numbers.astype(np.float64)
    engine = IntegralEngine(basis)
    for i in range(n):
        for j in range(i, n):
            pd = engine.pair_data(i, j)
            # (n_prim, n_atoms) distances from product centers to nuclei.
            r2 = ((pd.center[:, None, :] - mol.coords[None, :, :]) ** 2).sum(axis=-1)
            f0 = boys_f0(pd.p[:, None] * r2)
            val = -(charges[None, :] * (2.0 * np.pi / pd.p[:, None]) * pd.k[:, None] * f0).sum()
            v[i, j] = v[j, i] = val
    return v


def eri_tensor(basis: BasisSet, engine: IntegralEngine | None = None) -> np.ndarray:
    """Dense two-electron tensor ``(ij|kl)``, shape ``(n, n, n, n)``.

    Intended for reference checks on small systems: memory is ``n^4 * 8``
    bytes. Built from one vectorized batch over the unique ``i <= j`` pair
    list, then unfolded through the 8-fold permutational symmetry.
    """
    if engine is not None:
        eng = engine
    else:
        from repro.chemistry.integrals_general import make_engine

        eng = make_engine(basis)
    n = basis.n_basis
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    batch = eng.pair_batch(pairs)
    mat = eng.eri_batch_matrix(batch, batch)
    out = np.empty((n, n, n, n))
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            val = mat[a, b]
            out[i, j, k, l] = out[j, i, k, l] = out[i, j, l, k] = out[j, i, l, k] = val
            out[k, l, i, j] = out[l, k, i, j] = out[k, l, j, i] = out[l, k, j, i] = val
    return out
