"""Linear algebra substrate: a banded eigensolver and dense complex tools.

banded_lowest is the spectral core: it returns the lowest eigenvalues of
a real symmetric band matrix, which is what each parity chain of the
Hamiltonian is (see model.ParityChains).  Everything else works on plain
square complex numpy arrays in double precision: hermitian_eigs is the
dense reference oracle for the chains and the solver for the operator
identities, unitary transforms and the Witten index, which need
eigenvectors on the full 2N space.  MAX_DIM bounds only the dense path.
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
PROJECTOR_TOL = 1e-10


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


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    a = _check_square(a)
    return float(np.linalg.norm(a, 2))


def projected_norm(a: np.ndarray, p: np.ndarray) -> float:
    """Spectral norm of P A P for an orthogonal projector P."""
    a = _check_square(a)
    p = _check_square(p, "projector")
    if a.shape != p.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {p.shape}")
    if np.max(np.abs(p @ p - p)) > PROJECTOR_TOL or np.max(np.abs(p - p.conj().T)) > PROJECTOR_TOL:
        raise ContractViolationError("P is not an orthogonal projector (P^2 = P = P^dagger)")
    return float(np.linalg.norm(p @ a @ p, 2))
