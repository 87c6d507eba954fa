"""Qubit operators, the truncation parameters and the interior index set.

A basis state of the qubit (x) N-level boson is labelled by the index
s*N + n, with s=0 the up-spin |up> = (1,0)^T, s=1 the down-spin, and n
the Fock level 0..N-1.  The spin-flip pairs of model.charge_pairs and
the interior of interior_projector are sets of these labels; no command
builds a matrix on the whole 2N space (those live in susyrabi.dense, the
tests' oracle).  hbar = 1 everywhere; energies are in the paper-style
frequency units.  The qubit operators are the module constants SX, SY,
SZ, I2, S_PLUS and S_MINUS, read-only, so that no caller can change them
for the others; all are real (float64) except sigma_y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

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


def interior_projector(fp: FockParams, cut: int | None = None) -> np.ndarray:
    """Basis indices of both spin sectors of boson levels 0..cut-1.

    cut defaults to N - B.  The indices, np.r_[0:cut, N:N+cut], are the
    support of the 0/1 diagonal interior projector.
    """
    cut = fp.n_fock - fp.buffer if cut is None else cut
    if not 0 <= cut <= fp.n_fock:
        raise ValidationError(f"interior cut {cut} outside 0..{fp.n_fock}")
    return np.r_[0:cut, fp.n_fock : fp.n_fock + cut]
