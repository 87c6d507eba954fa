"""Linear algebra substrate: banded eigensolvers and dense real or complex tools.

banded_lowest is the spectral core: it returns the eigenvalues with
indices start .. m - 1, ascending, of a real symmetric band matrix, which
is what each parity chain of the Hamiltonian is (see model.ParityChains):
tridiagonal in the squeezed frame that the spectrum paths use,
pentadiagonal for the truncated H that the tests use as oracle.  It
solves only the levels asked for, so spectral.lowest_k can solve a few
levels of each chain and extend one chain later at the cost of the new
levels alone.  banded_norm, the spectral norm of a leading block of
such a chain, is two single-eigenvalue solves; the field-rewriting
check takes its residual and scale from it.  band_times multiplies such
a band matrix, or a stack of them, by dense columns in O(N) per column;
the A^2 and polaron checks form their residuals with it, on the leading
columns of the unitary.  banded_eigh gives all eigenpairs of a
tridiagonal chain through LAPACK dstevd, the divide-and-conquer of Gu
and Eisenstat; the Witten index uses it, and so
does skew_tridiagonal_exp, the one matrix exponential here: exp(K) for a
real skew-symmetric tridiagonal K, which is what the displacement and
squeeze generators are (the squeeze on its even and on its odd levels).
Everything else works on plain square numpy arrays in double precision,
float64 or complex, and real input stays real: the model's Fock-basis
operators, all real except sigma_y, take real LAPACK and BLAS calls.
hermitian_eigs, one dense eigh, is the reference oracle that the tests
check the chains against; no command calls it.  hermitian_norm is the
spectral norm of a Hermitian matrix, or the largest over a stack of
them, from their eigenvalues; the transform checks take their residual
norms from it.  MAX_DIM bounds only kron.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

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


def _check_square(a: np.ndarray, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """a as a square float64 or complex array, or a (k, n, n) stack of them
    where stack is set; real input stays real."""
    a = np.asarray(a)
    a = a.astype(np.result_type(a.dtype, np.float64), copy=False)
    if a.ndim not in ((2, 3) if stack else (2,)) or a.shape[-2] != a.shape[-1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    return a


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor index-major.

    Called as kron(spin, boson) this puts the qubit factor first, which is
    the basis ordering used everywhere in this package.  A result above
    MAX_DIM, read at each call, is a DimensionError.
    """
    a = _check_square(a, "kron factor A")
    b = _check_square(b, "kron factor B")
    dim = a.shape[0] * b.shape[0]
    if dim > MAX_DIM:
        raise DimensionError(
            f"kron result dimension {dim} exceeds the configured maximum {MAX_DIM}"
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

    a is an n x n matrix, or a stack of them with max|a| taken over the
    stack.  The dropped part E of each matrix has |E|_2 <= |E|_F <
    eps * max|a|, and max|a| is at most the largest |a|_2, so by Weyl's
    inequality no eigenvalue moves by more than rounding relative to it.
    LAPACK's Hermitian eigensolvers lose accuracy on entries far below
    the rest (near 1e-175 beside O(1) entries, real and complex calls
    alike).
    """
    if not a.size:
        return a
    mag = np.abs(a)
    small = mag < np.finfo(np.float64).eps * mag.max() / a.shape[-1]
    return np.where(small, 0.0, a) if small.any() else a


def hermitian_eigs(a: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a (nearly) Hermitian matrix, the dense reference oracle.

    The input is symmetrized as (A + A^dagger)/2 before solving; truncation
    of ladder operators routinely introduces 1-ulp asymmetries, so asymmetry
    is warned about rather than rejected.  Entries below rounding relative
    to the largest are dropped (_drop_negligible) before one eigh.  Real
    symmetric input gives real eigenvectors.
    """
    h = _drop_negligible(_hermitian_part(_check_square(a)))
    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise SolverError(f"Hermitian eigensolver failed: {exc}") from exc
    return EigenDecomposition(values=values, vectors=vectors)


def hermitian_norm(a: np.ndarray) -> float:
    """Spectral norm of a Hermitian matrix, its largest |eigenvalue|.

    a is one n x n matrix or a (k, n, n) stack of them, whose largest
    norm is returned.  Cheaper than the singular values, but only the
    same for Hermitian input, so a defect beyond
    HERMITICITY_RTOL * max(1, max|A|) anywhere in the stack is a contract
    violation.  Entries below rounding relative to the largest are
    dropped (_drop_negligible) before one (batched) eigvalsh.
    """
    a = _check_square(a, stack=True)
    if not a.size:
        return 0.0
    defect = float(np.abs(a - np.swapaxes(a, -1, -2).conj()).max())
    if defect > HERMITICITY_RTOL * max(1.0, float(np.abs(a).max())):
        raise ContractViolationError(
            f"hermitian_norm requires Hermitian input (defect {defect:.3e})"
        )
    return float(np.abs(np.linalg.eigvalsh(_drop_negligible(a))).max())


def banded_lowest(band: np.ndarray, m: int, start: int = 0) -> np.ndarray:
    """Eigenvalues start .. m - 1, ascending, of a real symmetric band matrix.

    Levels count from 0 at the smallest, so start = 0 gives the m
    smallest.  band is in lower banded storage, band[d, j] = A[j + d, j],
    with any number of rows: two for a tridiagonal matrix.  Only the
    requested eigenvalues are computed (LAPACK ?sbevx through eig_banded),
    so a caller can take more levels of a matrix later at the cost of the
    new ones alone.  Unless 0 <= start < m <= N it is a DimensionError.
    """
    band = np.asarray(band, dtype=float)
    if band.ndim != 2 or not 0 <= start < m <= band.shape[1]:
        raise DimensionError(
            f"band of shape {band.shape} cannot give eigenvalues {start}..{m - 1}"
        )
    try:
        return sla.eig_banded(
            band, lower=True, eigvals_only=True, select="i", select_range=(start, m - 1)
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


def band_times(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for the real symmetric band matrix A, in O(rows N k) for k columns.

    band is in lower banded storage, as for banded_lowest, with any
    number of rows, or a stack (..., rows, N) of such bands; x is
    (..., N, k), and the two broadcast over their leading axes.  Entries
    band[d, N - d:] lie outside the matrix and are never read.
    """
    band = np.asarray(band, dtype=float)
    x = np.asarray(x, dtype=float)
    n = band.shape[-1]
    if band.ndim < 2 or x.ndim < 2 or x.shape[-2] != n:
        raise DimensionError(f"band of shape {band.shape} cannot multiply x of shape {x.shape}")
    out = band[..., 0, :, None] * x
    for d in range(1, min(band.shape[-2], n)):
        sub = band[..., d, : n - d, None]
        out[..., d:, :] += sub * x[..., : n - d, :]
        out[..., : n - d, :] += sub * x[..., d:, :]
    return out


def banded_eigh(band: np.ndarray) -> EigenDecomposition:
    """All eigenpairs of a real symmetric tridiagonal matrix, eigenvalues ascending.

    band is in lower banded storage with two rows, band[0] the diagonal
    and band[1, :-1] the off-diagonal, as for banded_lowest; any other
    shape is a DimensionError.  One LAPACK dstevd, divide and conquer on
    the tridiagonal matrix itself; the vectors are real and orthonormal,
    in the basis of the band matrix.
    """
    band = np.asarray(band, dtype=float)
    if band.ndim != 2 or band.shape[0] != 2 or band.shape[1] < 1:
        raise DimensionError(f"band of shape {band.shape} is not a tridiagonal band")
    # The wrapper wants an off-diagonal of length >= 1, also for n = 1.
    values, vectors, info = lapack.dstevd(band[0], band[1, : max(band.shape[1] - 1, 1)])
    if info != 0:  # pragma: no cover - LAPACK rarely fails here
        raise SolverError(f"tridiagonal eigensolver failed (dstevd info {info})")
    return EigenDecomposition(values=values, vectors=vectors)


def skew_tridiagonal_exp(e: np.ndarray) -> np.ndarray:
    """exp(K) for the real skew-symmetric tridiagonal K with K[j+1, j] = e[j] = -K[j, j+1].

    K has n = len(e) + 1 rows.  With Phi = diag(i^j), Phi^dag K Phi = -i T
    for the real symmetric tridiagonal T with zero diagonal and
    off-diagonal e.  So exp(K) = Phi exp(-i T) Phi^dag, and with
    T = W diag(L) W^T (banded_eigh) entry (j, k) is C, S, -C or -S as
    (j - k) mod 4 is 0, 1, 2 or 3, where C = W cos(L) W^T and
    S = W sin(L) W^T: one real tridiagonal eigensolve (dstevd) and two
    real n x n products.  The result is real and orthogonal to solver
    precision.
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
