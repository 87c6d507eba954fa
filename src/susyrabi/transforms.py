"""Displacement, squeeze and polaron unitaries, and equivalence checking.

The frequency-renormalizing unitary is realized as a one-mode squeeze;
its correctness is established numerically against the conjugation
identity it must satisfy, with both squeeze signs tried and the better
one kept.  All residuals are measured away from the truncation boundary,
on an interior index set (the rows and columns kept by the interior
projector), and relative to the spectral norm of the Hermitian target.
U, lhs and rhs are split once on the components of their joint zero
pattern (linalg.BlockStack), and the conjugation U^dag lhs U and its
residual norm are taken block by block: a squeeze and its Hamiltonians
keep the parity, so they split into the two parity sectors, while the
polaron frame mixes them and stays one block.  The unitarity defect
|U^dag U - 1|_2 is computed from the blocks only when a report's
unitarity_defect is read.  Every unitary here is real: unitary_exp
gives the squeeze as a real matrix from its even and odd levels, and
the displacement D(beta) comes from one real symmetric tridiagonal
eigensolve (see displacement).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import TransformMismatchError, TruncationError, ValidationError
from .fock import (
    FockParams,
    I2,
    SZ,
    embed_boson,
    embed_qubit,
    interior_projector,
    kron,
    make_operators,
)
from .linalg import BlockStack, banded_eigh, hermitian_norm, projected_norm, unitary_exp
from .model import (
    ModelParams,
    Schedule,
    hamiltonian,
    heavy_field,
    h_total_r,
    renormalized_frequency,
)

MAX_SQUEEZE = 2.0


@dataclass(frozen=True)
class TransformReport:
    """Outcome of one unitary-equivalence check.

    unitary holds the blocks of the checked U, or None when no unitary is
    involved; unitarity_defect is computed from it on first read.
    """

    identity_name: str
    residual: float
    params_used: object
    fock: FockParams
    unitary: BlockStack | None = field(default=None, repr=False, compare=False)

    @cached_property
    def unitarity_defect(self) -> float:
        """|U^dag U - 1|_2, block by block over U's partition; 0 without a unitary."""
        if self.unitary is None:
            return 0.0
        u = self.unitary
        return (u.adjoint() @ u - BlockStack.split(np.eye(u.dim), u.partition)).norm()


def displacement(beta: float, fp: FockParams) -> np.ndarray:
    """D(beta) = exp[beta (a_dag - a)] on the boson factor, real.

    With Phi = diag(i^n), Phi^dag beta (a_dag - a) Phi = -i T for the real
    symmetric tridiagonal T with zero diagonal and off-diagonal
    beta sqrt(n+1).  So D = Phi exp(-i T) Phi^dag, and with T = W diag(L) W^T
    (linalg.banded_eigh) entry (m, n) is C, S, -C or -S as (m - n) mod 4
    is 0, 1, 2 or 3, where C = W cos(L) W^T and S = W sin(L) W^T: one real
    tridiagonal eigensolve and two real N x N products.
    """
    if beta**2 > fp.n_fock / 2:
        raise TruncationError(
            f"displacement amplitude {beta} too large for n_fock={fp.n_fock} "
            f"(need beta^2 < N/2)"
        )
    if beta**2 > fp.n_fock / 4:
        warnings.warn(
            f"displacement amplitude {beta} close to the truncation boundary "
            f"(beta^2 > N/4 at N={fp.n_fock})",
            RuntimeWarning,
            stacklevel=2,
        )
    n = fp.n_fock
    band = np.zeros((2, n))
    band[1, :-1] = beta * np.sqrt(np.arange(1.0, n))
    ed = banded_eigh(band)
    w = ed.vectors
    lag = np.subtract.outer(np.arange(n), np.arange(n)) % 4
    even = (w * np.cos(ed.values)) @ w.T
    odd = (w * np.sin(ed.values)) @ w.T
    return np.where(lag % 2 == 0, even, odd) * np.where(lag < 2, 1.0, -1.0)


def squeeze(zeta: float, fp: FockParams) -> np.ndarray:
    """S(zeta) = exp[(zeta/2)(a^2 - a_dag^2)] on the boson factor."""
    if abs(zeta) > MAX_SQUEEZE:
        raise ValidationError(
            f"|zeta| must be <= {MAX_SQUEEZE} for truncation safety, got {zeta}"
        )
    ops = make_operators(fp)
    return unitary_exp(zeta / 2.0 * (ops.a @ ops.a - ops.a_dag @ ops.a_dag))


def verify_equivalence(
    u: np.ndarray,
    lhs: np.ndarray,
    rhs: np.ndarray,
    fp: FockParams,
    identity_name: str = "",
    params_used: object = None,
    projector: np.ndarray | None = None,
) -> TransformReport:
    """Report | P (U^dag lhs U - rhs) P |_2 / max(1, |rhs|_2) and the unitarity defect.

    rhs must be Hermitian.  P is given by its index set and defaults to the
    buffer-based interior; callers whose unitary spreads Fock support
    (squeezes) pass a tighter one.  U, lhs and rhs are split on the
    components of their joint zero pattern (linalg.BlockStack), so the
    products and the residual norm are taken block by block; the
    unitarity defect |U^dag U - 1|_2 is computed when first read.
    """
    if u.shape != lhs.shape or lhs.shape != rhs.shape:
        raise ValidationError(
            f"shape mismatch: U {u.shape}, lhs {lhs.shape}, rhs {rhs.shape}"
        )
    partition = BlockStack.partition_of(u, lhs, rhs)
    us, lhs_b, rhs_b = (BlockStack.split(m, partition) for m in (u, lhs, rhs))
    return _equivalence_report(
        us, lhs_b, rhs_b, hermitian_norm(rhs), fp, identity_name, params_used, projector
    )


def _equivalence_report(
    u: BlockStack,
    lhs: BlockStack,
    rhs: BlockStack,
    rhs_norm: float,
    fp: FockParams,
    identity_name: str,
    params_used: object,
    projector: np.ndarray | None,
) -> TransformReport:
    """verify_equivalence with every matrix split and |rhs|_2 already taken."""
    p = interior_projector(fp) if projector is None else projector
    return TransformReport(
        identity_name=identity_name,
        residual=(u.adjoint() @ lhs @ u - rhs).norm(p) / max(1.0, rhs_norm),
        params_used=params_used,
        fock=fp,
        unitary=u,
    )


def squeeze_interior_projector(fp: FockParams, zeta: float) -> np.ndarray:
    """Interior index set safe under a squeeze of angle zeta.

    A squeeze spreads Fock level n up to about n*exp(2|zeta|), so identity
    checks are only meaningful on levels whose squeezed image stays inside
    the truncation.  The cut is the stricter of N - buffer and
    0.7 * N * exp(-2|zeta|); see interior_projector for the indices.
    """
    cut = min(fp.n_fock - fp.buffer, int(0.7 * fp.n_fock * math.exp(-2.0 * abs(zeta))))
    if cut < 8:
        raise TruncationError(
            f"squeeze angle {zeta} leaves fewer than 8 checkable levels at "
            f"n_fock={fp.n_fock}; increase the truncation"
        )
    return interior_projector(fp, cut)


def u_a2_with_report(
    p: ModelParams,
    fp: FockParams,
    check: bool = True,
    tol: float = 1e-6,
) -> tuple[np.ndarray, TransformReport]:
    """Squeeze unitary removing the A^2 term, plus its verification report.

    Conjugation by the result maps H(omega_a, omega_b, g, c) to the plain
    Rabi Hamiltonian at the renormalized frequency and coupling.  The
    squeeze angle is log(omega_g/omega_b)/2; the sign is fixed at build
    time by minimizing the residual.
    """
    omega_g, g_tilde = renormalized_frequency(p.omega_b, p.c, p.g)
    zeta = 0.5 * math.log(omega_g / p.omega_b)
    lhs = hamiltonian(p, fp)
    rhs = hamiltonian(ModelParams(p.omega_a, omega_g, g_tilde, 0.0), fp)
    projector = squeeze_interior_projector(fp, zeta)
    rhs_norm = hermitian_norm(rhs)
    # The generator is anti-Hermitian, so S(-zeta) = S(zeta)^dag, and the
    # two signs share one zero pattern and so one partition.
    s_plus = squeeze(zeta, fp)
    u_plus = embed_boson(s_plus, fp)
    partition = BlockStack.partition_of(u_plus, lhs, rhs)
    lhs_b, rhs_b = (BlockStack.split(m, partition) for m in (lhs, rhs))
    best: tuple[np.ndarray, TransformReport] | None = None
    for sign, u in ((1.0, u_plus), (-1.0, u_plus.conj().T)):
        rep = _equivalence_report(
            BlockStack.split(u, partition), lhs_b, rhs_b, rhs_norm, fp,
            "a2-removal", {"params": p, "zeta": sign * zeta}, projector,
        )
        if best is None or rep.residual < best[1].residual:
            best = (u, rep)
        if zeta == 0.0:
            break
    u, rep = best
    if check and rep.residual > tol:
        raise TransformMismatchError(
            f"A^2-removal residual {rep.residual:.3e} exceeds {tol:.1e}; "
            f"wrong convention or insufficient truncation (N={fp.n_fock})"
        )
    return u, rep


def u_a2(p: ModelParams, fp: FockParams, check: bool = True, tol: float = 1e-6) -> np.ndarray:
    """The A^2-removing squeeze unitary on the full 2N space."""
    return u_a2_with_report(p, fp, check=check, tol=tol)[0]


def u_polaron(beta: float, fp: FockParams) -> np.ndarray:
    """The spin-conditioned displacement diagonalizing the linear coupling.

    U(beta) = {(s- - 1) s+ D(beta) + (s+ + 1) s- D(-beta)} / sqrt(2).
    """
    return _polaron(displacement(beta, fp), fp)


def _polaron(d: np.ndarray, fp: FockParams) -> np.ndarray:
    """U(beta) of u_polaron from d = D(beta), with D(-beta) = D(beta)^dag."""
    ops = make_operators(fp)
    spin_a = (ops.s_minus - I2) @ ops.s_plus
    spin_b = (ops.s_plus + I2) @ ops.s_minus
    return (kron(spin_a, d) + kron(spin_b, d.conj().T)) / math.sqrt(2.0)


def field_identity_report(s: Schedule, r: float, fp: FockParams) -> TransformReport:
    """Check the heavy-field rewriting of H(r).

    omega_g(r) (B_r^dag B_r + 1/2) - (omega_a(r)/2)(D- + D+) = H(r),
    measured on the interior and relative to |H(r)|_2.  B_r is real and
    D- + D+ = -sz exactly, so only B_r is built.  B_r^dag B_r is the dense
    product: summed block by block, its terms come in another order and
    the residual moves at round-off.  No unitary is involved, so the
    unitarity defect is 0.
    """
    b_r = heavy_field(s, r, fp)
    og = s.omega_g(r)
    lhs = og * (b_r.T @ b_r + 0.5 * np.eye(fp.total_dim)) - (
        s.omega_a(r) / 2.0
    ) * embed_qubit(-SZ, fp)
    rhs = h_total_r(s, r, fp)
    return TransformReport(
        identity_name="field-rewriting",
        residual=projected_norm(lhs - rhs, interior_projector(fp))
        / max(1.0, hermitian_norm(rhs)),
        params_used={"schedule": s, "r": r},
        fock=fp,
    )


def polaron_equivalence_report(
    omega_a: float, omega_b: float, g: float, fp: FockParams
) -> TransformReport:
    """Check the polaron-frame identity for the c=0 Hamiltonian.

    U^dag {H(omega_a, omega_b, g, 0) + g^2/omega_b} U
      = H(0, omega_b, 0, 0)
        - (omega_a/2) {s+ D(g/omega_b)^2 + s- D(-g/omega_b)^2}.
    """
    d = displacement(g / omega_b, fp)
    u = _polaron(d, fp)
    ops = make_operators(fp)
    lhs = hamiltonian(ModelParams(omega_a, omega_b, g, 0.0), fp, shift=g**2 / omega_b)
    d2 = d @ d
    rhs = hamiltonian(ModelParams(0.0, omega_b, 0.0, 0.0), fp) - (omega_a / 2.0) * (
        kron(ops.s_plus, d2) + kron(ops.s_minus, d2.conj().T)
    )
    return verify_equivalence(
        u, lhs, rhs, fp,
        identity_name="polaron-frame",
        params_used={"omega_a": omega_a, "omega_b": omega_b, "g": g},
    )
