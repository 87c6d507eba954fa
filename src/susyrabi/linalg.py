"""Linear algebra substrate: banded eigensolvers and dense real or complex tools.

banded_lowest is the spectral core: it returns the lowest eigenvalues of
a real symmetric band matrix, which is what each parity chain of the
Hamiltonian is (see model.ParityChains): tridiagonal in the squeezed
frame that the spectrum paths use, pentadiagonal for the truncated H
that the tests use as oracle.  banded_norm, the spectral norm of a
leading block of such a chain, is two single-eigenvalue solves; the
field-rewriting check takes its residual and scale from it.  banded_eigh
gives all eigenpairs of such a chain; the Witten index uses it, and so
does skew_tridiagonal_exp, the one matrix exponential here: exp(K) for a
real skew-symmetric tridiagonal K, which is what the displacement and
squeeze generators are (the squeeze on its even and on its odd levels).
Everything else works on plain square numpy arrays in double precision,
float64 or complex, and real input stays real: the model's Fock-basis
operators, all real except sigma_y, take real LAPACK and BLAS calls.
The structure these operators have is their zero pattern: a spin (x)
Fock operator built from ladder operators splits, after one symmetric
permutation, into its parity sectors, 2 x 2 spin-flip pairs or single
entries.  BlockStack is the one block structure: BlockStack.partition_of
finds the connected components of the operands' joint zero pattern (the
one zero-pattern search, _components), and BlockStack holds each operand
as its principal blocks on them, stacked by size.  Sums, products, the
spectral norm, the norm on an interior index set and the Hermitian norm
are then one batched numpy call per stack, with no dense matrix formed;
the SUSY-algebra reports work this way.  The transform checks need no
search: their operands are plain (2, N, N) stacks of parity-chain or
spin-sector blocks, and only the polaron check's scale is a BlockStack.
hermitian_eigs solves the blocks of its input's own partition, one
batched eigh per stack, and scatters the results back, so a diagonal
matrix costs O(n) and a matrix without a zero entry one dense call.
hermitian_eigs of a dense Hamiltonian is the reference oracle for the
chains; the property tests check its block solve, and every BlockStack
norm, against unstructured scipy and numpy calls.  MAX_DIM bounds only
the dense path.
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

    a is an n x n matrix, or a stack of them with max|a| over the stack.
    The dropped part E of a matrix has |E|_2 <= |E|_F < eps * max|a|,
    and max|a| is at most the largest spectral norm in a, so by Weyl's
    inequality no eigenvalue moves by more than rounding relative to it.
    LAPACK's Hermitian eigensolvers lose accuracy on entries far below
    the rest (near 1e-175 beside O(1) entries, real and complex calls
    alike), and a dropped entry may also split a block of the zero
    pattern.
    """
    if not a.size:
        return a
    mag = np.abs(a)
    small = mag < np.finfo(np.float64).eps * mag.max() / a.shape[-1]
    return np.where(small, 0.0, a) if small.any() else a


def hermitian_eigs(a: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a (nearly) Hermitian matrix.

    The input is symmetrized as (A + A^dagger)/2 before solving; truncation
    of ladder operators routinely introduces 1-ulp asymmetries, so asymmetry
    is warned about rather than rejected.  A is split on its own zero
    pattern (BlockStack.partition_of) and each stack of equal-size blocks
    is solved by one batched call; the eigenvectors are scattered back
    into the full basis and the eigenvalues merged in ascending order.  A
    zero row and column is a 1 x 1 block, the eigenpair (0, unit vector).
    So a diagonal matrix costs O(n) and a matrix without a zero entry one
    dense call.  Entries below rounding relative to the largest are
    dropped first (_drop_negligible).  Real symmetric input gives real
    eigenvectors.
    """
    h = _drop_negligible(_hermitian_part(_check_square(a)))
    hs = BlockStack.split(h, BlockStack.partition_of(h))
    values = np.zeros(hs.dim)
    vectors = []
    for idx, blocks in zip(hs.partition, hs.blocks):
        try:
            vals, vecs = np.linalg.eigh(blocks)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
            raise SolverError(f"Hermitian eigensolver failed: {exc}") from exc
        values[idx] = vals
        vectors.append(vecs)
    order = np.argsort(values, kind="stable")
    # Eigenpair i of block j takes column slot idx[j, i].
    vectors = BlockStack(hs.partition, tuple(vectors)).dense()
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


def banded_norm(band: np.ndarray, cut: int | None = None) -> float:
    """Spectral norm of the leading cut x cut block of a real symmetric band matrix.

    band is in lower banded storage, as for banded_lowest; cut defaults
    to the whole matrix.  The norm is max(|lambda_min|, |lambda_max|), two
    single-eigenvalue banded solves.
    """
    b = np.asarray(band, dtype=float)[:, :cut]
    return max(abs(float(banded_lowest(b, 1)[0])), abs(float(banded_lowest(-b, 1)[0])))


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


def skew_tridiagonal_exp(e: np.ndarray) -> np.ndarray:
    """exp(K) for the real skew-symmetric tridiagonal K with K[j+1, j] = e[j] = -K[j, j+1].

    K has n = len(e) + 1 rows.  With Phi = diag(i^j), Phi^dag K Phi = -i T
    for the real symmetric tridiagonal T with zero diagonal and
    off-diagonal e.  So exp(K) = Phi exp(-i T) Phi^dag, and with
    T = W diag(L) W^T (banded_eigh) entry (j, k) is C, S, -C or -S as
    (j - k) mod 4 is 0, 1, 2 or 3, where C = W cos(L) W^T and
    S = W sin(L) W^T: one real tridiagonal eigensolve and two real n x n
    products.  The result is real and orthogonal to solver precision.
    """
    n = len(e) + 1
    band = np.zeros((2, n))
    band[1, :-1] = e
    ed = banded_eigh(band)
    w = ed.vectors
    lag = np.subtract.outer(np.arange(n), np.arange(n)) % 4
    even = (w * np.cos(ed.values)) @ w.T
    odd = (w * np.sin(ed.values)) @ w.T
    return np.where(lag % 2 == 0, even, odd) * np.where(lag < 2, 1.0, -1.0)


def _components(nz: np.ndarray) -> tuple[np.ndarray, ...]:
    """Index sets of the connected components of a boolean pattern, stacked by size.

    nz is square with its diagonal set, and i joins j whenever nz[i, j]
    or nz[j, i] is.  Each array of the result has shape (k, m) and holds
    the k components of size m, one per row, each ascending; the arrays
    come in ascending m.  A pattern without a false entry is one
    component, found without a search.
    """
    n = nz.shape[0]
    if nz.all():
        return (np.arange(n)[None],) if n else ()
    nz = nz | nz.T
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
        return (np.arange(n)[None],)
    order = np.lexsort((label, size))
    sizes = size[order]
    return tuple(order[sizes == m].reshape(-1, m) for m in np.unique(sizes))


def _gather(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The stack A[idx[j], idx[j]] for the rows of idx; a view if idx is all of A."""
    if idx.shape == (1, a.shape[0]):
        return a[None]
    return a[idx[:, :, None], idx[:, None, :]]


def _check_index_set(idx: np.ndarray, n: int) -> np.ndarray:
    """idx as an array, if it is a 1-D set of distinct integers in 0..n-1."""
    idx = np.asarray(idx)
    if idx.ndim != 1 or (idx.size and not np.issubdtype(idx.dtype, np.integer)):
        raise ContractViolationError(
            f"interior must be a 1-D integer index set, got {idx.dtype} of shape {idx.shape}"
        )
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ContractViolationError(
            f"interior indices must lie in 0..{n - 1}, got {idx.min()}..{idx.max()}"
        )
    if np.unique(idx).size != idx.size:
        raise ContractViolationError("interior indices must be distinct")
    return idx


class BlockStack:
    """An n x n matrix held as its principal blocks on a given partition.

    The partition is a tuple of index arrays of shape (k, m), each row an
    index set, together covering 0..n-1 once; partition_of finds the one
    that every operand of a check fits, with ascending rows.  blocks[s] of
    shape (k, m, m) is the stack A[idx[j], idx[j]] for the rows idx[j] of
    partition[s], so block position i stands for index idx[j][i].  A
    matrix with no entry between different index sets is the direct sum
    of its blocks, and so are its sums, scalar multiples and products with
    another matrix on the same partition: each is one batched numpy call
    per stack, equal to the dense one up to summation order.
    """

    # Makes numpy scalars defer to __rmul__ instead of broadcasting.
    __array_ufunc__ = None

    def __init__(self, partition: tuple[np.ndarray, ...], blocks: tuple[np.ndarray, ...]):
        self.partition = partition
        self.blocks = blocks

    @property
    def dim(self) -> int:
        """n, the number of indices the partition covers."""
        return sum(idx.size for idx in self.partition)

    @staticmethod
    def partition_of(*ops: np.ndarray) -> tuple[np.ndarray, ...]:
        """The connected components of the operands' joint zero pattern.

        Index i joins j when any operand has a nonzero (i, j) or (j, i)
        entry; an index with no nonzero entry is a component of its own,
        so the partition covers every index.  Components of equal size
        share one stack, and the stacks come in ascending size.
        """
        ops = [_check_square(op) for op in ops]
        n = ops[0].shape[0]
        if any(op.shape != (n, n) for op in ops):
            raise DimensionError(f"operands differ in shape: {[op.shape for op in ops]}")
        nz = np.eye(n, dtype=bool)
        for op in ops:
            nz |= op != 0
        return _components(nz)

    @classmethod
    def split(cls, a: np.ndarray, partition: tuple[np.ndarray, ...]) -> BlockStack:
        """A, given in the original basis, as its blocks on partition.

        Entries between different index sets are not kept: A must have
        none, which holds for every operand of partition_of.
        """
        a = _check_square(a)
        dim = sum(idx.size for idx in partition)
        if dim != a.shape[0]:
            raise DimensionError(f"a partition of {dim} indices cannot split a {a.shape} matrix")
        return cls(partition, tuple(_gather(a, idx) for idx in partition))

    def _zip(self, other: BlockStack, op) -> BlockStack:
        return BlockStack(self.partition, tuple(map(op, self.blocks, other.blocks)))

    def __add__(self, other: BlockStack) -> BlockStack:
        return self._zip(other, np.add)

    def __sub__(self, other: BlockStack) -> BlockStack:
        return self._zip(other, np.subtract)

    def __matmul__(self, other: BlockStack) -> BlockStack:
        return self._zip(other, np.matmul)

    def __rmul__(self, scalar: complex) -> BlockStack:
        return BlockStack(self.partition, tuple(scalar * b for b in self.blocks))

    def dense(self) -> np.ndarray:
        """The matrix in the original basis; the inverse of split.

        It is float64 unless a block is complex.
        """
        out = np.zeros((self.dim, self.dim), dtype=np.result_type(np.float64, *self.blocks))
        for idx, b in zip(self.partition, self.blocks):
            out[idx[:, :, None], idx[:, None, :]] = b
        return out

    def norm(self, interior: np.ndarray | None = None) -> float:
        """Spectral norm, or |P A P|_2 for the projector P onto an interior.

        The interior is a 1-D integer array of distinct indices of A, and
        an empty one gives 0.  The rows and columns outside it are zeroed
        in each block, the kept positions moved to the front of their
        block, and each stack cut to its widest kept set before one
        batched SVD.  Blocks with no kept index are skipped.
        """
        if interior is not None:
            inside = np.zeros(self.dim, dtype=bool)
            inside[_check_index_set(interior, self.dim)] = True
        out = 0.0
        for idx, b in zip(self.partition, self.blocks):
            if interior is not None:
                keep = inside[idx]
                hit = keep.any(axis=1)
                keep, b = keep[hit], b[hit]
                width = keep.sum(axis=1).max(initial=0)
                pos = np.argsort(~keep, axis=1, kind="stable")[:, :width]
                keep = np.take_along_axis(keep, pos, axis=1)
                b = b[np.arange(len(b))[:, None, None], pos[:, :, None], pos[:, None, :]]
                b = b * (keep[:, :, None] & keep[:, None, :])
            if b.size:
                out = max(out, float(np.linalg.svd(b, compute_uv=False).max()))
        return out

    def hermitian_norm(self) -> float:
        """Spectral norm of a Hermitian matrix, max |eigenvalue| over the blocks.

        Cheaper than the singular values, but only the same for Hermitian
        input, so a defect beyond HERMITICITY_RTOL * max(1, max|A|) is a
        contract violation.  In each stack the entries below rounding
        relative to its largest are dropped (_drop_negligible) before one
        batched eigvalsh.
        """
        scale = defect = 0.0
        for b in self.blocks:
            if b.size:
                scale = max(scale, float(np.abs(b).max()))
                defect = max(defect, float(np.abs(b - b.conj().transpose(0, 2, 1)).max()))
        if defect > HERMITICITY_RTOL * max(1.0, scale):
            raise ContractViolationError(
                f"hermitian_norm requires Hermitian input (defect {defect:.3e})"
            )
        return max(
            (
                float(np.abs(np.linalg.eigvalsh(_drop_negligible(b))).max())
                for b in self.blocks
                if b.size
            ),
            default=0.0,
        )
