"""Linear algebra substrate: banded eigensolvers and the real band tools.

Each parity chain of the Hamiltonian (model.ParityChains) is a real
symmetric band matrix: tridiagonal in the squeezed frame that the
spectrum paths use, pentadiagonal for the truncated H in its own frame.
banded_lowest gives only the levels asked for, so spectral.lowest_k can
extend one chain later at the cost of the new levels alone; banded_norm
is two single-eigenvalue solves; band_times multiplies a band matrix, or
a stack of them, by dense columns in O(N) per column; banded_eigh gives
all eigenpairs of a tridiagonal chain through LAPACK dstevd, as
(values, vectors) like numpy's eigh, for the Witten index and for
skew_tridiagonal_exp, the one matrix exponential here (the displacement
and squeeze generators are real skew-symmetric tridiagonal).
_drop_negligible guards the dense eigensolves of transforms._leading_norm
and of the oracle in susyrabi.dense against entries far below the rest.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .errors import DimensionError, SolverError


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


def banded_eigh(band: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of a real symmetric tridiagonal matrix, eigenvalues ascending.

    band is in lower banded storage with two rows, band[0] the diagonal
    and band[1, :-1] the off-diagonal, as for banded_lowest; any other
    shape is a DimensionError.  One LAPACK dstevd, divide and conquer on
    the tridiagonal matrix itself.  Returns (values, vectors) as numpy's
    eigh does: vectors[:, i] belongs to values[i], real and orthonormal in
    the basis of the band matrix.
    """
    band = np.asarray(band, dtype=float)
    if band.ndim != 2 or band.shape[0] != 2 or band.shape[1] < 1:
        raise DimensionError(f"band of shape {band.shape} is not a tridiagonal band")
    # The wrapper wants an off-diagonal of length >= 1, also for n = 1.
    values, vectors, info = lapack.dstevd(band[0], band[1, : max(band.shape[1] - 1, 1)])
    if info != 0:  # pragma: no cover - LAPACK rarely fails here
        raise SolverError(f"tridiagonal eigensolver failed (dstevd info {info})")
    return values, vectors


def skew_tridiagonal_exp(e: np.ndarray) -> np.ndarray:
    """exp(K) for the real skew-symmetric tridiagonal K with K[j+1, j] = e[j] = -K[j, j+1].

    K has n = len(e) + 1 rows.  With Phi = diag(i^j), Phi^dag K Phi = -i T
    for the real symmetric tridiagonal T with zero diagonal and
    off-diagonal e.  So exp(K) = Phi exp(-i T) Phi^dag, and with
    T = W diag(L) W^T (banded_eigh) entry (j, k) is C, S, -C or -S as
    (j - k) mod 4 is 0, 1, 2 or 3, where C = W cos(L) W^T and
    S = W sin(L) W^T.  C is zero between even and odd levels and S within
    each set, since T joins only the two: with W's rows negated where
    j mod 4 >= 2, three n/2 x n by n x n/2 products give the even-even,
    odd-odd and odd-even blocks, and the even-odd one is minus the last
    transposed.  The result is real and orthogonal to solver precision.
    """
    n = len(e) + 1
    band = np.zeros((2, n))
    band[1, :-1] = e
    values, vectors = banded_eigh(band)
    w = vectors * np.where(np.arange(n) % 4 < 2, 1.0, -1.0)[:, None]
    even, odd = w[0::2], w[1::2]
    out = np.empty((n, n))
    out[0::2, 0::2] = (even * np.cos(values)) @ even.T
    out[1::2, 1::2] = (odd * np.cos(values)) @ odd.T
    out[1::2, 0::2] = (odd * np.sin(values)) @ even.T
    out[0::2, 1::2] = -out[1::2, 0::2].T
    return out
