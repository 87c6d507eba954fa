"""Truncated bosonic ladder operators, qubit operators and tensor embeddings.

Basis ordering is qubit-major and fixed globally:
index = s*N + n with s=0 the up-spin |up> = (1,0)^T, s=1 the down-spin,
and n the Fock level 0..N-1.  All golden data depends on this ordering.
hbar = 1 everywhere; energies are in the paper-style frequency units.
The interior on which operator identities are checked is an index set
of this basis, not a projector matrix.  Every operator here is real
(float64) except sigma_y, so products and solves built from them stay
in real arithmetic until a complex factor enters.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ValidationError
from .linalg import kron

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
I2 = np.eye(2)
S_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]])
S_MINUS = S_PLUS.T.copy()


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
    """Ladder and spin operators for one truncation size.

    a, a_dag, n_op live on the boson factor (N x N); the spin operators on
    the qubit factor (2 x 2).  n_op is the literal matrix product
    a_dag @ a, so it is exactly consistent with the ladder matrices.
    """

    a: np.ndarray
    a_dag: np.ndarray
    n_op: np.ndarray
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    s_plus: np.ndarray
    s_minus: np.ndarray
    basis: str = field(default="qubit-major; |up>=(1,0)")


def make_operators(fp: FockParams) -> OperatorSet:
    """The truncated ladder operators and the qubit operators for fp.

    <n-1|a|n> = sqrt(n); the commutator [a, a_dag] equals the identity on
    levels n < N-1 and carries the usual truncation defect at the corner.
    The set is cached per FockParams and its arrays are read-only, so
    every caller shares one copy.
    """
    # A plain function in front of the cache keeps the calls visible to
    # function-wrapping tracers such as perfbench/tracer.py.
    return _cached_operators(fp)


# Bounded: one set at N = 4096 holds three float64 N x N arrays, about 400 MB.
@functools.lru_cache(maxsize=4)
def _cached_operators(fp: FockParams) -> OperatorSet:
    n = fp.n_fock
    a = np.zeros((n, n))
    levels = np.arange(1, n)
    a[levels - 1, levels] = np.sqrt(levels)
    a_dag = a.T.copy()
    ops = OperatorSet(
        a=a,
        a_dag=a_dag,
        n_op=a_dag @ a,
        sx=SX.copy(),
        sy=SY.copy(),
        sz=SZ.copy(),
        s_plus=S_PLUS.copy(),
        s_minus=S_MINUS.copy(),
    )
    for value in vars(ops).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return ops


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
