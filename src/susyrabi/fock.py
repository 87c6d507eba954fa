"""Qubit operators and the truncation parameters.

A basis state of the qubit (x) N-level boson is labelled by the index
s*N + n, with s=0 the up-spin |up> = (1,0)^T, s=1 the down-spin, and n
the Fock level 0..N-1.  The spin-flip pairs of model.charge_pairs are
pairs of these labels; no command builds a matrix on the whole 2N
space.  hbar = 1 everywhere; energies are in the paper-style frequency
units.  The qubit operators the package uses are the module constants
SZ, I2, S_PLUS and S_MINUS, real (float64) and read-only, so that no
caller can change them for the others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
I2 = np.eye(2)
S_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]])
S_MINUS = S_PLUS.T.copy()
for _spin in (SZ, I2, S_PLUS, S_MINUS):
    _spin.flags.writeable = False
del _spin


@dataclass(frozen=True)
class FockParams:
    """Truncation dimension N and the interior buffer B.

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
