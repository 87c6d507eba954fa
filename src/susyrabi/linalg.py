"""Linear algebra substrate: banded eigensolvers and the real band tools.

Each parity chain of the Hamiltonian (model.parity_chains) is a real
symmetric band matrix: tridiagonal in the squeezed frame that the
spectrum paths use, pentadiagonal for the truncated H in its own frame.
banded_lowest gives only the levels asked for, so spectral.lowest_k can
extend one chain later at the cost of the new levels alone;
band_times multiplies a band matrix, or a stack of them, by full
columns in O(N) per column, and band_matrix writes one out in full;
banded_eigh gives all eigenpairs of a tridiagonal chain through LAPACK
dstevd, as (values, vectors) like numpy's eigh, for the Witten index
and for skew_tridiagonal_exp, the one matrix exponential here (the
displacement and squeeze generators are real skew-symmetric
tridiagonal).  No residual norm solves an eigenproblem: the transform
checks' norms are closed forms (transforms._leading_norm).

The two LAPACK calls, dsbevx and dstevd, use the f2py wrappers of
scipy's extension module scipy.linalg._flapack, loaded on its own by its
file path (_load_flapack), without importing the scipy package:
importing scipy.linalg (0.3-0.4 s, most of it numpy.f2py, numpy.testing
and numpy.ma through scipy's array-API layer) would more than double
every command's start-up for code none of them runs, and scipy's own
__init__ (about 10 ms: subprocess, sysconfig, locale, signal) sets up
nothing the extension needs where it finds its OpenBLAS by itself, as in
the Linux wheels; where it cannot, loading it raises ImportError and the
plain import runs instead.  banded_lowest passes dsbevx the arguments
scipy.linalg.eig_banded does, so both give the same bits on any band
without subnormal entries (which it zeroes).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .errors import DimensionError, SolverError


def _load_flapack():
    """scipy.linalg._flapack, loaded by its file path in the scipy package.

    importlib.util.find_spec finds the package's folder without running
    scipy/__init__.  Where the spec or the file is missing, or loading
    the file raises ImportError (as where scipy's __init__ must first put
    its bundled OpenBLAS on the DLL search path), the plain import
    `from scipy.linalg import _flapack` gives the same module, only slower.
    """
    scipy = importlib.util.find_spec("scipy")
    paths = []
    if scipy is not None and scipy.origin is not None:
        folder = os.path.join(os.path.dirname(scipy.origin), "linalg")
        suffixes = importlib.machinery.EXTENSION_SUFFIXES
        paths = [os.path.join(folder, "_flapack" + suffix) for suffix in suffixes]
    for path in filter(os.path.isfile, paths):
        spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:
            break
        # An extension with single-phase init enters itself in
        # sys.modules; taken out, a later `import scipy.linalg` binds
        # its own copy as the package attribute, as in a plain import.
        if sys.modules.get(spec.name) is module:
            del sys.modules[spec.name]
        return module
    from scipy.linalg import _flapack

    return _flapack


_flapack = _load_flapack()
_TINY = np.finfo(np.float64).tiny
# eig_banded's abstol for dsbevx, 2 * dlamch('s'): the safe minimum is tiny.
_ABSTOL = 2.0 * _TINY


def banded_lowest(band: np.ndarray, m: int, start: int = 0) -> np.ndarray:
    """Eigenvalues start .. m - 1, ascending, of a real symmetric band matrix.

    Levels count from 0 at the smallest, so start = 0 gives the m
    smallest.  band is in lower banded storage, band[d, j] = A[j + d, j],
    with any number of rows: two for a tridiagonal matrix.  Only the
    requested eigenvalues are computed (LAPACK dsbevx, as eig_banded calls it),
    so a caller can take more levels of a matrix later at the cost of the
    new ones alone.  Unless 0 <= start < m <= N it is a DimensionError.
    Subnormal entries, which can stop dsbevx converging (as in eig_banded),
    are zeroed first; no eigenvalue moves by more than about N * tiny.
    """
    band = np.asarray(band, dtype=float)
    if band.ndim != 2 or not 0 <= start < m <= band.shape[1]:
        raise DimensionError(
            f"band of shape {band.shape} cannot give eigenvalues {start}..{m - 1}"
        )
    if not np.isfinite(band).all():
        raise ValueError("array must not contain infs or NaNs")
    subnormal = (np.abs(band) < _TINY) & (band != 0.0)
    if subnormal.any():
        band = np.where(subnormal, 0.0, band)
    # As eig_banded(band, lower=True, eigvals_only=True, select="i",
    # select_range=(start, m - 1)) calls it, band left unchanged.
    w, _, found, _, info = _flapack.dsbevx(
        band, 0.0, 1.0, start + 1, m, compute_v=0, range=2, lower=1,
        abstol=_ABSTOL, mmax=1, overwrite_ab=0,
    )
    if info != 0:  # pragma: no cover - LAPACK rarely fails here
        raise SolverError(f"banded eigensolver failed (dsbevx info {info})")
    return w[:found]


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


def band_matrix(band: np.ndarray) -> np.ndarray:
    """The full symmetric N x N matrix of a band in lower banded storage.

    band is (rows, N), as for banded_lowest, or a stack (..., rows, N) of
    such bands, which gives the (..., N, N) stack of their matrices.
    """
    n = band.shape[-1]
    out = np.zeros(band.shape[:-2] + (n, n))
    j = np.arange(n)
    for d in range(min(band.shape[-2], n)):
        out[..., j[d:], j[: n - d]] = out[..., j[: n - d], j[d:]] = band[..., d, : n - d]
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
    values, vectors, info = _flapack.dstevd(band[0], band[1, : max(band.shape[1] - 1, 1)])
    if info != 0:  # pragma: no cover - LAPACK rarely fails here
        raise SolverError(f"tridiagonal eigensolver failed (dstevd info {info})")
    return values, vectors


def skew_tridiagonal_exp(e: np.ndarray, m: int | None = None) -> np.ndarray:
    """The leading m columns of exp(K), all n of them by default, for the
    real skew-symmetric tridiagonal K with K[j+1, j] = e[j] = -K[j, j+1].

    K has n = len(e) + 1 rows, and the result is n x m.  With
    Phi = diag(i^j), Phi^dag K Phi = -i T for the real symmetric
    tridiagonal T with zero diagonal and off-diagonal e.  So
    exp(K) = Phi exp(-i T) Phi^dag, and with T = W diag(L) W^T
    (banded_eigh) entry (j, k) is C, S, -C or -S as (j - k) mod 4 is 0, 1,
    2 or 3, where C = W cos(L) W^T and S = W sin(L) W^T.  C is zero
    between even and odd levels and S within each set, since T joins only
    the two: with W's rows negated where j mod 4 >= 2, three products of
    its even rows E and odd rows O give the blocks, E cos(L) E^T and
    O cos(L) O^T on the leading columns alone, and O sin(L) E^T, whose
    transpose, negated, is the even-odd block.  E and O are contiguous
    copies, which BLAS multiplies faster than strided rows.  exp(K) is
    real and orthogonal to solver precision.
    """
    n = len(e) + 1
    m = n if m is None else m
    band = np.zeros((2, n))
    band[1, :-1] = e
    values, w = banded_eigh(band)
    w *= np.where(np.arange(n) % 4 < 2, 1.0, -1.0)[:, None]
    even, odd = w[0::2].copy(), w[1::2].copy()
    del w
    cos, sin = np.cos(values), np.sin(values)
    me, mo = (m + 1) // 2, m // 2  # even and odd columns among the leading m
    out = np.empty((n, m))
    out[0::2, 0::2] = (even * cos) @ even[:me].T
    out[1::2, 1::2] = (odd * cos) @ odd[:mo].T
    odd_even = (odd * sin) @ even.T
    out[1::2, 0::2] = odd_even[:, :me]
    out[0::2, 1::2] = -odd_even[:mo].T
    return out
