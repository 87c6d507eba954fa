"""Linear algebra substrate: banded eigensolvers and dense complex tools.

banded_lowest is the spectral core: it returns the lowest eigenvalues of
a real symmetric band matrix, which is what each parity chain of the
Hamiltonian is (see model.ParityChains).  banded_eigh gives all
eigenpairs of such a chain; the Witten index uses it.  Everything else
works on plain square complex numpy arrays in double precision:
hermitian_eigs is the dense reference oracle for the chains and the
solver for the operator identities and unitary transforms, which need
eigenvectors on the full 2N space.  Identity residuals are measured on
an interior given as an index set: projected_norm slices the kept rows
and columns instead of multiplying by a 0/1 projector.  Every spectral
norm (spectral_norm, hermitian_norm, projected_norm) is taken block by
block over the matrix's zero pattern: a spin (x) Fock operator built
from ladder operators splits, after one symmetric permutation, into its
parity sectors, 2 x 2 spin-flip pairs or single entries, and the norm is
the largest of the blocks' norms.  MAX_DIM bounds only the dense path.
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
    a = np.asarray(a, dtype=complex)
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


def hermitian_eigs(a: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a (nearly) Hermitian matrix.

    The input is symmetrized as (A + A^dagger)/2 before solving; truncation
    of ladder operators routinely introduces 1-ulp asymmetries, so asymmetry
    is warned about rather than rejected.
    """
    a = _check_square(a)
    scale = np.max(np.abs(a)) if a.size else 0.0
    asym = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if scale > 0 and asym > HERMITICITY_RTOL * scale:
        warnings.warn(
            f"input not Hermitian (defect {asym:.3e}, scale {scale:.3e}); symmetrizing",
            RuntimeWarning,
            stacklevel=2,
        )
    h = (a + a.conj().T) / 2
    try:
        values, vectors = sla.eigh(h)
    except sla.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise SolverError(f"Hermitian eigensolver failed: {exc}") from exc
    return EigenDecomposition(values=values, vectors=vectors)


def banded_lowest(band: np.ndarray, m: int) -> np.ndarray:
    """The m smallest eigenvalues, ascending, of a real symmetric band matrix.

    band is in lower banded storage, band[d, j] = A[j + d, j].  Only the
    requested eigenvalues are computed (LAPACK ?sbevx through eig_banded).
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

    The result is unitary to solver precision by construction.
    """
    k = _check_square(k, "exponent")
    scale = max(1.0, float(np.max(np.abs(k))) if k.size else 0.0)
    defect = np.max(np.abs(k + k.conj().T)) if k.size else 0.0
    if defect > HERMITICITY_RTOL * scale:
        raise ContractViolationError(
            f"unitary_exp requires skew-Hermitian input (defect {defect:.3e})"
        )
    ed = hermitian_eigs(1j * k)
    # K = -i (iK)  =>  exp(K) = V diag(exp(-i lambda)) V^dagger
    return (ed.vectors * np.exp(-1j * ed.values)) @ ed.vectors.conj().T


def _principal_blocks(a: np.ndarray):
    """Yield the nonzero principal blocks of square A, stacked by size.

    The blocks are the connected components of the graph that joins i and
    j whenever A[i, j] or A[j, i] is nonzero, so one symmetric permutation
    makes A their direct sum and its singular values and eigenvalues are
    the union of theirs.  Each yield is an array of shape (k, m, m) holding
    the k blocks A[idx, idx] of size m, idx ascending.  A component that
    is a single zero diagonal entry is left out, so a zero matrix has no
    blocks; a matrix that is one component is yielded whole, as a[None].
    """
    nz = a != 0
    if nz.all():
        if a.size:
            yield a[None]
        return
    nz |= nz.T
    diag = nz.diagonal().copy()
    np.fill_diagonal(nz, True)
    n = a.shape[0]
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
        yield a[None]
        return
    order = np.lexsort((label, size))
    order = order[(size[order] > 1) | diag[order]]
    sizes = size[order]
    for m in np.unique(sizes):
        idx = order[sizes == m].reshape(-1, m)
        yield a[idx[:, :, None], idx[:, None, :]]


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value, taken block by block over A's zero pattern.

    The blocks are those of _principal_blocks; the norm is the largest of
    their SVD norms, and a matrix without a zero entry is a single SVD.
    """
    a = _check_square(a)
    return max(
        (float(np.linalg.svd(b, compute_uv=False).max()) for b in _principal_blocks(a)),
        default=0.0,
    )


def hermitian_norm(a: np.ndarray) -> float:
    """Spectral norm of a Hermitian matrix, max |eigenvalue|.

    Cheaper than the singular values, but only the same for Hermitian
    input, so a defect beyond HERMITICITY_RTOL is a contract violation.
    The eigenvalues are taken block by block over A's zero pattern, on
    the principal blocks of _principal_blocks.
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
        (float(np.max(np.abs(np.linalg.eigvalsh(b)))) for b in _principal_blocks(a)),
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
