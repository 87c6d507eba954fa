"""Displacement, squeeze and polaron unitaries, and equivalence checking.

The frequency-renormalizing unitary is realized as a one-mode squeeze;
its correctness is established numerically against the conjugation
identity it must satisfy, with both squeeze signs tried and the better
one kept.  All residuals are measured away from the truncation boundary,
on an interior index set (the rows and columns kept by the interior
projector), and relative to the spectral norm of the Hermitian target.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import TransformMismatchError, TruncationError, ValidationError
from .fock import FockParams, I2, embed_boson, interior_projector, kron, make_operators
from .linalg import hermitian_norm, projected_norm, spectral_norm, unitary_exp
from .model import ModelParams, Schedule, fields, hamiltonian, h_total_r, renormalized_frequency

MAX_SQUEEZE = 2.0


@dataclass(frozen=True)
class TransformReport:
    """Outcome of one unitary-equivalence check."""

    identity_name: str
    residual: float
    unitarity_defect: float
    params_used: object
    fock: FockParams


def displacement(beta: float, fp: FockParams) -> np.ndarray:
    """D(beta) = exp[beta (a_dag - a)] on the boson factor."""
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
    ops = make_operators(fp)
    return unitary_exp(beta * (ops.a_dag - ops.a))


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
    (squeezes) pass a tighter one.
    """
    if u.shape != lhs.shape or lhs.shape != rhs.shape:
        raise ValidationError(
            f"shape mismatch: U {u.shape}, lhs {lhs.shape}, rhs {rhs.shape}"
        )
    p = interior_projector(fp) if projector is None else projector
    diff = u.conj().T @ lhs @ u - rhs
    residual = projected_norm(diff, p) / max(1.0, hermitian_norm(rhs))
    defect = spectral_norm(u.conj().T @ u - np.eye(u.shape[0]))
    return TransformReport(
        identity_name=identity_name,
        residual=residual,
        unitarity_defect=defect,
        params_used=params_used,
        fock=fp,
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
    best: tuple[np.ndarray, TransformReport] | None = None
    for sign in (1.0, -1.0):
        u = embed_boson(squeeze(sign * zeta, fp), fp)
        rep = verify_equivalence(
            u, lhs, rhs, fp,
            identity_name="a2-removal",
            params_used={"params": p, "zeta": sign * zeta},
            projector=projector,
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
    ops = make_operators(fp)
    d_plus = displacement(beta, fp)
    d_minus = displacement(-beta, fp)
    spin_a = (ops.s_minus - I2) @ ops.s_plus
    spin_b = (ops.s_plus + I2) @ ops.s_minus
    return (kron(spin_a, d_plus) + kron(spin_b, d_minus)) / math.sqrt(2.0)


def field_identity_report(s: Schedule, r: float, fp: FockParams) -> TransformReport:
    """Check the heavy-field rewriting of H(r).

    omega_g(r) (B_r^dag B_r + 1/2) - (omega_a(r)/2)(D- + D+) = H(r),
    measured on the interior and relative to |H(r)|_2.  No unitary is
    involved, so the unitarity defect is 0.
    """
    fs = fields(s, r, fp)
    og = s.omega_g(r)
    lhs = og * (fs.b_r.conj().T @ fs.b_r + 0.5 * np.eye(fp.total_dim)) - (
        s.omega_a(r) / 2.0
    ) * (fs.d_minus + fs.d_plus)
    rhs = h_total_r(s, r, fp)
    return TransformReport(
        identity_name="field-rewriting",
        residual=projected_norm(lhs - rhs, interior_projector(fp))
        / max(1.0, hermitian_norm(rhs)),
        unitarity_defect=0.0,
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
    beta = g / omega_b
    u = u_polaron(beta, fp)
    ops = make_operators(fp)
    lhs = hamiltonian(ModelParams(omega_a, omega_b, g, 0.0), fp) + (
        g**2 / omega_b
    ) * np.eye(fp.total_dim)
    d2 = displacement(beta, fp)
    d2 = d2 @ d2
    rhs = hamiltonian(ModelParams(0.0, omega_b, 0.0, 0.0), fp) - (omega_a / 2.0) * (
        kron(ops.s_plus, d2) + kron(ops.s_minus, d2.conj().T)
    )
    return verify_equivalence(
        u, lhs, rhs, fp,
        identity_name="polaron-frame",
        params_used={"omega_a": omega_a, "omega_b": omega_b, "g": g},
    )
