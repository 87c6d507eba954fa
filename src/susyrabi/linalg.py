"""Linear algebra substrate: banded eigensolvers and dense real or complex tools.

banded_lowest is the spectral core: it returns the lowest eigenvalues of
a real symmetric band matrix, which is what each parity chain of the
Hamiltonian is (see model.ParityChains): tridiagonal in the squeezed
frame that the spectrum paths use, pentadiagonal for the truncated H
that the tests use as oracle.  banded_eigh gives all eigenpairs of such
a chain; the Witten index uses it.  Everything else
works on plain square numpy arrays in double precision, float64 or
complex, and real input stays real: the model's Fock-basis operators,
all real except sigma_y, take real LAPACK and BLAS calls.  The
structure these operators have is their zero pattern: a spin (x) Fock
operator built from ladder operators splits, after one symmetric
permutation, into its parity sectors, 2 x 2 spin-flip pairs or single
entries (_principal_blocks).  hermitian_eigs and unitary_exp solve block
by block over that split and scatter the results back, so a diagonal
matrix costs O(n), the squeeze generator splits into its even and odd
levels, and a matrix without a zero entry takes one dense call.
hermitian_eigs of a dense Hamiltonian is the reference oracle for the
chains; it solves each parity sector as a dense block, and the property
tests check that block solve against an unstructured scipy eigh.  Every
spectral norm (spectral_norm, hermitian_norm, projected_norm) is the
largest of the blocks' norms.  Identity residuals are measured on an
interior given as an index set: projected_norm slices the kept rows and
columns instead of multiplying by a 0/1 projector.  SectorMatrix holds
an operator as its 2 x 2 grid of parity-sector blocks and forms products
sector by sector, skipping exactly zero blocks.  MAX_DIM bounds only the
dense path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import ContractViolationError, DimensionError, SolverError

# Hard cap on produced matrix dimension; protects kron from runaway sizes.
MAX_DIM = 8192

HERMITICITY_RTOL = 1e-12


@dataclass(frozen=True)
class EigenDecomposition:
    """Full Hermitian eigendecomposition, eigenvalues ascending.

    ``vectors[:, i]`` is the orthonormal eigenvector for ``values[i]``.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def _check_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """a as a square float64 or complex array; real input stays real."""
    a = np.asarray(a)
    a = a.astype(np.result_type(a.dtype, np.float64), copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    return a


def kron(a: np.ndarray, b: np.ndarray, max_dim: int = MAX_DIM) -> np.ndarray:
    """Kronecker product with the first factor index-major.

    Called as kron(spin, boson) this puts the qubit factor first, which is
    the basis ordering used everywhere in this package.
    """
    a = _check_square(a, "kron factor A")
    b = _check_square(b, "kron factor B")
    dim = a.shape[0] * b.shape[0]
    if dim > max_dim:
        raise DimensionError(
            f"kron result dimension {dim} exceeds the configured maximum {max_dim}"
        )
    return np.kron(a, b)


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^dagger)/2, warning when A is not Hermitian to HERMITICITY_RTOL."""
    scale = np.max(np.abs(a)) if a.size else 0.0
    asym = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if scale > 0 and asym > HERMITICITY_RTOL * scale:
        warnings.warn(
            f"input not Hermitian (defect {asym:.3e}, scale {scale:.3e}); symmetrizing",
            RuntimeWarning,
            stacklevel=3,
        )
    return (a + a.conj().T) / 2


def _drop_negligible(a: np.ndarray) -> np.ndarray:
    """a with every entry below eps * max|a| / n set to exactly zero.

    The dropped part E has |E|_2 <= |E|_F < eps * max|a| <= eps * |a|_2,
    so by Weyl's inequality no eigenvalue moves by more than rounding.
    LAPACK's Hermitian eigensolvers lose accuracy on entries far below
    the rest (near 1e-175 beside O(1) entries, real and complex calls
    alike), and a dropped entry may also split a block of the zero
    pattern.
    """
    if not a.size:
        return a
    mag = np.abs(a)
    small = mag < np.finfo(np.float64).eps * mag.max() / a.shape[0]
    return np.where(small, 0.0, a) if small.any() else a


def _block_eighs(h: np.ndarray):
    """Yield (idx, values, vectors) for each stack of h's principal blocks.

    idx, values and vectors have shapes (k, m), (k, m) and (k, m, m): the
    eigenpairs of the blocks h[idx[j], idx[j]], values ascending per block.
    A matrix that is one block takes the single dense scipy call; stacks
    of smaller blocks take one batched call each.  Indices that
    _principal_blocks leaves out are zero rows and columns of h.
    """
    for idx, blocks in _principal_blocks(h):
        try:
            if blocks.shape[1] == h.shape[0]:
                values, vectors = sla.eigh(blocks[0])
                values, vectors = values[None], vectors[None]
            else:
                values, vectors = np.linalg.eigh(blocks)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
            raise SolverError(f"Hermitian eigensolver failed: {exc}") from exc
        yield idx, values, vectors


def hermitian_eigs(a: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a (nearly) Hermitian matrix.

    The input is symmetrized as (A + A^dagger)/2 before solving; truncation
    of ladder operators routinely introduces 1-ulp asymmetries, so asymmetry
    is warned about rather than rejected.  The blocks of A's zero pattern
    are solved separately (see _block_eighs), their eigenvectors scattered
    back into the full basis and the eigenvalues merged in ascending
    order; a zero row and column is the eigenpair (0, unit vector).  So a
    diagonal matrix costs O(n) and a matrix without a zero entry one dense
    call.  Entries below rounding relative to the largest are dropped
    first (_drop_negligible).  Real symmetric input gives real
    eigenvectors.
    """
    h = _drop_negligible(_hermitian_part(_check_square(a)))
    n = h.shape[0]
    values = np.zeros(n)
    vectors = np.zeros((n, n), dtype=h.dtype)
    np.fill_diagonal(vectors, 1.0)
    for idx, vals, vecs in _block_eighs(h):
        # Eigenpair i of block j takes column slot idx[j, i].
        values[idx] = vals
        vectors[idx[:, :, None], idx[:, None, :]] = vecs
    order = np.argsort(values, kind="stable")
    return EigenDecomposition(values=values[order], vectors=vectors[:, order])


def banded_lowest(band: np.ndarray, m: int) -> np.ndarray:
    """The m smallest eigenvalues, ascending, of a real symmetric band matrix.

    band is in lower banded storage, band[d, j] = A[j + d, j], with any
    number of rows: two for a tridiagonal matrix.  Only the requested
    eigenvalues are computed (LAPACK ?sbevx through eig_banded).
    """
    band = np.asarray(band, dtype=float)
    if band.ndim != 2 or not 1 <= m <= band.shape[1]:
        raise DimensionError(f"band of shape {band.shape} cannot give m={m} eigenvalues")
    try:
        return sla.eig_banded(
            band, lower=True, eigvals_only=True, select="i", select_range=(0, m - 1)
        )
    except sla.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise SolverError(f"banded eigensolver failed: {exc}") from exc


def banded_eigh(band: np.ndarray) -> EigenDecomposition:
    """All eigenpairs of a real symmetric band matrix, eigenvalues ascending.

    band is in lower banded storage, as for banded_lowest.  The vectors
    are real and orthonormal, in the basis of the band matrix.
    """
    band = np.asarray(band, dtype=float)
    if band.ndim != 2 or band.shape[1] < 1:
        raise DimensionError(f"band of shape {band.shape} is not a band matrix")
    try:
        values, vectors = sla.eig_banded(band, lower=True)
    except sla.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise SolverError(f"banded eigensolver failed: {exc}") from exc
    return EigenDecomposition(values=values, vectors=vectors)


def unitary_exp(k: np.ndarray) -> np.ndarray:
    """exp(K) for skew-Hermitian K, via diagonalization of the Hermitian iK.

    The exponential is taken block by block over K's zero pattern, each
    block exp(K_b) = V diag(exp(-i lambda)) V^dagger scattered back into
    the identity, so the squeeze generator a^2 - a_dag^2 splits into its
    even and odd levels.  The result is unitary to solver precision by
    construction.  A real K (skew-symmetric) has a real exponential, so
    the result is then returned as its real part.
    """
    k = _check_square(k, "exponent")
    scale = max(1.0, float(np.max(np.abs(k))) if k.size else 0.0)
    defect = np.max(np.abs(k + k.conj().T)) if k.size else 0.0
    if defect > HERMITICITY_RTOL * scale:
        raise ContractViolationError(
            f"unitary_exp requires skew-Hermitian input (defect {defect:.3e})"
        )
    out = np.eye(k.shape[0], dtype=complex)
    for idx, values, vectors in _block_eighs(_hermitian_part(1j * k)):
        # K = -i (iK)  =>  exp(K) = V diag(exp(-i lambda)) V^dagger
        out[idx[:, :, None], idx[:, None, :]] = (
            vectors * np.exp(-1j * values)[:, None, :]
        ) @ vectors.conj().transpose(0, 2, 1)
    return out if np.iscomplexobj(k) else out.real


def _principal_blocks(a: np.ndarray):
    """Yield the nonzero principal blocks of square A, stacked by size.

    The blocks are the connected components of the graph that joins i and
    j whenever A[i, j] or A[j, i] is nonzero, so one symmetric permutation
    makes A their direct sum and its singular values and eigenvalues are
    the union of theirs.  Each yield is a pair (idx, blocks): idx of shape
    (k, m) holds the index sets, each ascending, of the k components of
    size m, and blocks of shape (k, m, m) holds A[idx[j], idx[j]].  A
    component that is a single zero diagonal entry is left out, so a zero
    matrix has no blocks; a matrix that is one component is yielded whole,
    as (arange(n)[None], a[None]).
    """
    n = a.shape[0]
    nz = a != 0
    if nz.all():
        if a.size:
            yield np.arange(n)[None], a[None]
        return
    nz |= nz.T
    diag = nz.diagonal().copy()
    np.fill_diagonal(nz, True)
    _, cols = np.nonzero(nz)
    starts = np.concatenate(([0], np.cumsum(nz.sum(axis=1))[:-1]))
    # Each index takes the smallest label among its neighbours, then the
    # label of that label (pointer jumping), until every component carries
    # the label of its smallest index.
    label = np.arange(n)
    while True:
        new = np.minimum.reduceat(label[cols], starts)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    size = np.bincount(label, minlength=n)[label]
    if size[0] == n:
        yield np.arange(n)[None], a[None]
        return
    order = np.lexsort((label, size))
    order = order[(size[order] > 1) | diag[order]]
    sizes = size[order]
    for m in np.unique(sizes):
        idx = order[sizes == m].reshape(-1, m)
        yield idx, a[idx[:, :, None], idx[:, None, :]]


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value, taken block by block over A's zero pattern.

    The blocks are those of _principal_blocks; the norm is the largest of
    their SVD norms, and a matrix without a zero entry is a single SVD.
    """
    a = _check_square(a)
    return max(
        (float(np.linalg.svd(b, compute_uv=False).max()) for _, b in _principal_blocks(a)),
        default=0.0,
    )


def hermitian_norm(a: np.ndarray) -> float:
    """Spectral norm of a Hermitian matrix, max |eigenvalue|.

    Cheaper than the singular values, but only the same for Hermitian
    input, so a defect beyond HERMITICITY_RTOL is a contract violation.
    The eigenvalues are taken block by block over A's zero pattern, on
    the principal blocks of _principal_blocks, after the entries below
    rounding relative to the largest are dropped (_drop_negligible).
    """
    a = _check_square(a)
    if not a.size:
        return 0.0
    scale = max(1.0, float(np.max(np.abs(a))))
    defect = np.max(np.abs(a - a.conj().T))
    if defect > HERMITICITY_RTOL * scale:
        raise ContractViolationError(
            f"hermitian_norm requires Hermitian input (defect {defect:.3e})"
        )
    return max(
        (
            float(np.max(np.abs(np.linalg.eigvalsh(b))))
            for _, b in _principal_blocks(_drop_negligible(a))
        ),
        default=0.0,
    )


def projected_norm(a: np.ndarray, idx: np.ndarray) -> float:
    """Spectral norm of A restricted to the basis indices idx.

    This is |P A P|_2 for the 0/1 diagonal projector P onto idx: the
    spectral_norm of the kept block, so it too is taken block by block
    over that block's zero pattern.  idx must be a 1-D integer array of
    distinct indices inside A; an empty set gives 0.
    """
    a = _check_square(a)
    idx = np.asarray(idx)
    if idx.ndim != 1 or (idx.size and not np.issubdtype(idx.dtype, np.integer)):
        raise ContractViolationError(
            f"interior must be a 1-D integer index set, got {idx.dtype} of shape {idx.shape}"
        )
    if not idx.size:
        return 0.0
    if idx.min() < 0 or idx.max() >= a.shape[0]:
        raise ContractViolationError(
            f"interior indices must lie in 0..{a.shape[0] - 1}, got {idx.min()}..{idx.max()}"
        )
    if np.unique(idx).size != idx.size:
        raise ContractViolationError("interior indices must be distinct")
    return spectral_norm(a[np.ix_(idx, idx)])


class SectorMatrix:
    """A 2n x 2n matrix held as its 2 x 2 grid of n x n sector blocks.

    order is a permutation of the 2n basis indices: sector 0 is
    order[:n] and sector 1 is order[n:], so blocks[s][t] is
    A[order[s*n:(s+1)*n]][:, order[t*n:(t+1)*n]].  A block that is
    exactly zero is stored as None.  A product skips every term with such
    a factor and so equals the dense product up to summation order; sums,
    differences and scalar multiples are the dense ones entrywise.  An
    operator that commutes or anticommutes with the sector parity has two
    None blocks, and its products cost a quarter of the dense ones.
    """

    # Makes numpy scalars defer to __rmul__ instead of broadcasting.
    __array_ufunc__ = None

    def __init__(self, blocks, order: np.ndarray):
        """blocks is a 2 x 2 nested sequence of n x n arrays or None."""
        self.order = order
        self.n = order.size // 2
        self.blocks = tuple(
            tuple(b if b is not None and b.any() else None for b in row) for row in blocks
        )

    @classmethod
    def split(cls, a: np.ndarray, order: np.ndarray) -> SectorMatrix:
        """A, given in the original basis, as its sector grid in order."""
        a = _check_square(a)
        if order.shape != a.shape[:1] or a.shape[0] % 2:
            raise DimensionError(
                f"cannot split a {a.shape} matrix by an order of shape {order.shape}"
            )
        halves = np.split(order, 2)
        return cls([[a[np.ix_(r, c)] for c in halves] for r in halves], order)

    def _zip(self, other: SectorMatrix, op) -> SectorMatrix:
        return SectorMatrix(
            [
                [
                    None if x is None and y is None
                    else op(0.0 if x is None else x, 0.0 if y is None else y)
                    for x, y in zip(row_x, row_y)
                ]
                for row_x, row_y in zip(self.blocks, other.blocks)
            ],
            self.order,
        )

    def __add__(self, other: SectorMatrix) -> SectorMatrix:
        return self._zip(other, np.add)

    def __sub__(self, other: SectorMatrix) -> SectorMatrix:
        return self._zip(other, np.subtract)

    def __rmul__(self, scalar: complex) -> SectorMatrix:
        return SectorMatrix(
            [[None if b is None else scalar * b for b in row] for row in self.blocks],
            self.order,
        )

    def __matmul__(self, other: SectorMatrix) -> SectorMatrix:
        out = [[None, None], [None, None]]
        for s in range(2):
            for t in range(2):
                for x, y in ((self.blocks[s][u], other.blocks[u][t]) for u in range(2)):
                    if x is not None and y is not None:
                        out[s][t] = x @ y if out[s][t] is None else out[s][t] + x @ y
        return SectorMatrix(out, self.order)

    def adjoint(self) -> SectorMatrix:
        """The conjugate transpose, sector by sector."""
        return SectorMatrix(
            [[None if b is None else b.conj().T for b in col] for col in zip(*self.blocks)],
            self.order,
        )

    def dense(self) -> np.ndarray:
        """The matrix in the original basis; the inverse of split.

        It is float64 unless a block is complex.
        """
        n = self.n
        present = [b for row in self.blocks for b in row if b is not None]
        out = np.zeros((2 * n, 2 * n), dtype=np.result_type(np.float64, *present))
        halves = np.split(self.order, 2)
        for s in range(2):
            for t in range(2):
                if self.blocks[s][t] is not None:
                    out[np.ix_(halves[s], halves[t])] = self.blocks[s][t]
        return out
