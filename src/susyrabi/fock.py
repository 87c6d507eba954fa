"""Truncated bosonic ladder operators, qubit operators and tensor embeddings.

Basis ordering is qubit-major and fixed globally:
index = s*N + n with s=0 the up-spin |up> = (1,0)^T, s=1 the down-spin,
and n the Fock level 0..N-1.  All golden data depends on this ordering.
hbar = 1 everywhere; energies are in the paper-style frequency units.
The interior on which operator identities are checked is an index set
of this basis, not a projector matrix.  Every operator here is real
(float64) except sigma_y, so products and solves built from them stay
in real arithmetic until a complex factor enters.  The qubit operators
are the module constants SX, SY, SZ, I2, S_PLUS and S_MINUS, read-only,
so that no caller can change them for the others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .linalg import kron

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
I2 = np.eye(2)
S_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]])
S_MINUS = S_PLUS.T.copy()
for _spin in (SX, SY, SZ, I2, S_PLUS, S_MINUS):
    _spin.flags.writeable = False
del _spin


@dataclass(frozen=True)
class FockParams:
    """Truncation dimension N and the interior-projector buffer B.

    The buffer excludes the top B boson levels from operator-identity
    checks, where truncation artifacts live.
    """

    n_fock: int = 256
    buffer: int = 64

    def __post_init__(self):
        if self.n_fock < 8:
            raise ValidationError(f"n_fock must be >= 8, got {self.n_fock}")
        if not 0 <= self.buffer <= self.n_fock // 2:
            raise ValidationError(
                f"buffer must satisfy 0 <= buffer <= n_fock/2, got {self.buffer}"
            )

    @property
    def total_dim(self) -> int:
        return 2 * self.n_fock


@dataclass(frozen=True)
class OperatorSet:
    """The boson ladder operators for one truncation size, each N x N.

    n_op is diag(sqrt(n)^2), bitwise the literal product a_dag @ a, so it
    is exactly consistent with the ladder matrices.
    """

    a: np.ndarray
    a_dag: np.ndarray
    n_op: np.ndarray


def make_operators(fp: FockParams) -> OperatorSet:
    """The truncated ladder operators for fp, built afresh on each call.

    <n-1|a|n> = sqrt(n); the commutator [a, a_dag] equals the identity on
    levels n < N-1 and carries the usual truncation defect at the corner.
    """
    n = fp.n_fock
    a = np.zeros((n, n))
    levels = np.arange(1, n)
    a[levels - 1, levels] = np.sqrt(levels)
    return OperatorSet(
        a=a, a_dag=a.T.copy(), n_op=np.diag(np.sqrt(np.arange(n, dtype=float)) ** 2)
    )


def embed_boson(op: np.ndarray, fp: FockParams) -> np.ndarray:
    """1 (x) op on the full 2N space, real when op is."""
    op = np.asarray(op)
    if op.shape != (fp.n_fock, fp.n_fock):
        raise DimensionError(
            f"boson operator must be {fp.n_fock}x{fp.n_fock}, got {op.shape}"
        )
    return kron(I2, op)


def embed_qubit(op: np.ndarray, fp: FockParams) -> np.ndarray:
    """op (x) 1 on the full 2N space, real when op is."""
    op = np.asarray(op)
    if op.shape != (2, 2):
        raise DimensionError(f"qubit operator must be 2x2, got {op.shape}")
    return kron(op, np.eye(fp.n_fock))


def interior_projector(fp: FockParams, cut: int | None = None) -> np.ndarray:
    """Basis indices of both spin sectors of boson levels 0..cut-1.

    cut defaults to N - B.  The indices, np.r_[0:cut, N:N+cut], are the
    support of the 0/1 diagonal interior projector.
    """
    cut = fp.n_fock - fp.buffer if cut is None else cut
    if not 0 <= cut <= fp.n_fock:
        raise ValidationError(f"interior cut {cut} outside 0..{fp.n_fock}")
    return np.r_[0:cut, fp.n_fock : fp.n_fock + cut]


def basis_state(spin: str, n: int, fp: FockParams) -> np.ndarray:
    """Unit vector |spin> (x) |n>, spin one of 'up'/'down'."""
    if spin not in ("up", "down"):
        raise ValidationError(f"spin must be 'up' or 'down', got {spin!r}")
    if not 0 <= n < fp.n_fock:
        raise ValidationError(f"Fock level {n} outside 0..{fp.n_fock - 1}")
    v = np.zeros(fp.total_dim, dtype=complex)
    v[(0 if spin == "up" else 1) * fp.n_fock + n] = 1.0
    return v
