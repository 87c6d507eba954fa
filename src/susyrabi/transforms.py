"""Displacement, squeeze and polaron unitaries, and equivalence checking.

The frequency-renormalizing unitary is realized as a one-mode squeeze
S(+zeta); its correctness is established numerically against the
conjugation identity it must satisfy.  All residuals are measured away
from the truncation boundary, on the leading cut x cut block of each
N x N operand (boson levels 0..cut-1), and relative to the spectral norm
of the Hermitian target, or for the polaron frame a lower bound on it.
The cut is N - buffer, or less where a squeeze or a displacement spreads
Fock support: a rule in zeta or in beta sqrt(N), with TruncationError
where fewer than 8 levels would remain.

Each of the three checks holds its operands as the blocks its algebra
gives it, with no dense 2N x 2N operand:

- A^2 removal: S(zeta) couples only levels of equal parity, so 1 (x) S
  is S on each parity chain, and the check conjugates the chains of H
  (model.parity_chains) into the squeezed chains (model.squeezed_chains)
  on the leading columns of S, multiplying by the chains' bands
  (linalg.band_times).
- Field rewriting: B_r^dag B_r is one pentadiagonal band on each chain,
  compared with the model.parity_chains of Schedule.params(r) in band
  storage; its residual and scale are linalg.banded_norm, O(N).
- Polaron frame: U(beta) is a fixed spin rotation times diag(D^T, D), so
  the residual lives on the two N x N spin-diagonal blocks, formed on
  the leading columns of D and D^T against two tridiagonal bands; the
  scale is Weyl's lower bound on |rhs|_2, a closed form.

The squeeze and polaron residuals are symmetric (2, cut, cut) stacks, so
each norm is one batched eigvalsh (_leading_norm).  squeeze and
displacement are the paper's formulas, each one real
linalg.skew_tridiagonal_exp; the tests compare each check with numpy on
the dense operators that susyrabi.dense builds from them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import TruncationError
from .fock import FockParams
from .linalg import _drop_negligible, band_times, banded_norm, skew_tridiagonal_exp
from .model import (
    ModelParams,
    ParityChains,
    Schedule,
    heavy_field_coefficients,
    parity_chains,
    renormalized_frequency,
    self_energy,
    squeezed_chains,
)

MAX_SQUEEZE = 2.0

# The error of the truncated D(beta) spreads in from the top Fock level
# over about 2.3-2.5 beta sqrt(N) levels (measured at beta = 1 for N = 256
# to 2048, and at beta = 2 for N = 256 to 1024); the polaron check cuts
# ceil(POLARON_SPREAD beta sqrt(N)) levels.
POLARON_SPREAD = 3.0


@dataclass(frozen=True)
class TransformReport:
    """Outcome of one unitary-equivalence check: its relative interior residual.

    One field, but a type of its own: each of the three checks returns
    one, and verify and the tests read .residual from each alike.
    """

    residual: float


def displacement(beta: float, fp: FockParams) -> np.ndarray:
    """D(beta) = exp[beta (a_dag - a)] on the boson factor, real.

    The generator is real skew-symmetric tridiagonal with sub-diagonal
    beta sqrt(n+1), so D is one linalg.skew_tridiagonal_exp.
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
    return skew_tridiagonal_exp(beta * np.sqrt(np.arange(1.0, fp.n_fock)))


def squeeze(zeta: float, fp: FockParams) -> np.ndarray:
    """S(zeta) = exp[(zeta/2)(a^2 - a_dag^2)] on the boson factor, real.

    The generator couples level n only to n + 2, with entry
    -(zeta/2) sqrt((n+1)(n+2)) below the diagonal, so on the even levels
    and on the odd levels it is a real skew-symmetric tridiagonal chain
    and S is their two linalg.skew_tridiagonal_exp.  An angle beyond
    MAX_SQUEEZE is a TruncationError: a limit of the truncated squeeze,
    not bad input.
    """
    if abs(zeta) > MAX_SQUEEZE:
        raise TruncationError(
            f"|zeta| must be <= {MAX_SQUEEZE} for truncation safety, got {zeta}"
        )
    n = np.arange(fp.n_fock - 2)
    e = -zeta / 2.0 * np.sqrt((n + 1.0) * (n + 2.0))
    out = np.zeros((fp.n_fock, fp.n_fock))
    for s in (0, 1):
        out[s::2, s::2] = skew_tridiagonal_exp(e[s::2])
    return out


def squeeze_cut(fp: FockParams, zeta: float) -> int:
    """Number of leading levels checkable under a squeeze of angle zeta.

    A squeeze spreads Fock level n up to about n*exp(2|zeta|), so identity
    checks are only meaningful on levels whose squeezed image stays inside
    the truncation.  The cut is the stricter of N - buffer and
    0.7 * N * exp(-2|zeta|).
    """
    cut = int(0.7 * fp.n_fock * math.exp(-2.0 * abs(zeta)))
    return _checked_cut(fp, cut, f"squeeze angle {zeta}")


def _checked_cut(fp: FockParams, cut: int, cause: str) -> int:
    """The stricter of cut and N - buffer.

    Raises TruncationError below 8 levels, naming the cause, or the
    buffer where N - buffer is the stricter.
    """
    if fp.n_fock - fp.buffer < cut:
        cut, cause = fp.n_fock - fp.buffer, f"buffer {fp.buffer}"
    if cut < 8:
        raise TruncationError(
            f"{cause} leaves fewer than 8 checkable levels at "
            f"n_fock={fp.n_fock}; increase the truncation"
        )
    return cut


def _leading_norm(block: np.ndarray) -> float:
    """Largest spectral norm of a real (k, cut, cut) stack of leading residual blocks.

    Both residuals, S^T L S - R and U^T lhs U - F, are symmetric for any
    orthogonal S or U, since L, R, lhs and F are; only round-off breaks
    that.  So the stack is symmetrized, which cannot hide an error of S
    or U, and its norm is its largest |eigenvalue|, from one batched
    eigvalsh after linalg._drop_negligible, in place of the singular values.
    """
    sym = _drop_negligible((block + block.transpose(0, 2, 1)) / 2.0)
    return float(np.abs(np.linalg.eigvalsh(sym)).max(initial=0.0))


def u_a2_with_report(p: ModelParams, fp: FockParams) -> tuple[np.ndarray, TransformReport]:
    """Squeeze S removing the A^2 term, plus its verification report.

    Conjugation by U = 1 (x) S(zeta), zeta = log(omega_g/omega_b)/2, maps
    H(omega_a, omega_b, g, c) to the plain Rabi Hamiltonian at the
    renormalized frequency and coupling.  The sign is fixed: a wrong
    convention shows as a large residual in the report.  Like the other
    two checks, this one only measures; the caller compares the residual
    with its threshold.

    S couples only levels of equal parity, which on one parity chain carry
    the same spin, so U is S on each chain in the chain's position basis:
    the residual is S^T L S - R on the chains L of model.parity_chains and
    R of model.squeezed_chains, on their leading squeeze_cut levels, and
    the scale is the largest linalg.banded_norm of the R chains.  Only
    the leading cut columns S_c of S enter the residual's leading block,
    so it is S_c^T (L S_c) - R_c, with L S_c from L's bands
    (linalg.band_times) and R_c the leading cut x cut blocks of R, built
    from R's bands; no N x N chain matrix is formed.  The returned
    unitary is the full N x N S.
    """
    omega_g, _ = renormalized_frequency(p.omega_b, p.c, p.g)
    zeta = 0.5 * math.log(omega_g / p.omega_b)
    s = squeeze(zeta, fp)
    cut = squeeze_cut(fp, zeta)
    rhs = squeezed_chains(p, fp)
    lead = s[:, :cut]
    diff = lead.T @ band_times(parity_chains(p, fp).bands, lead)
    diff -= ParityChains(rhs.bands[:, :, :cut]).matrices()
    return s, TransformReport(
        _leading_norm(diff) / max(1.0, max(banded_norm(b) for b in rhs.bands))
    )


def field_identity_report(s: Schedule, r: float, fp: FockParams) -> TransformReport:
    """Check the heavy-field rewriting of H(r) on its two parity chains.

    omega_g(r) (B_r^dag B_r + 1/2) - (omega_a(r)/2)(D- + D+) = H(r),
    measured on the interior and relative to |H(r)|_2.  D- + D+ = -sz
    exactly.  B_r maps chain i to chain 1-i through the same real
    tridiagonal M = alpha a + gamma a_dag + kappa (model.heavy_field_coefficients),
    so B_r^dag B_r is M^T M on each chain: pentadiagonal, built in band
    storage with the truncated corner of the literal product.  The lhs on
    chain i is omega_g (M^T M + 1/2) + (omega_a/2) sz, with sz = (-1)^n on
    chain 0 and -(-1)^n on chain 1; the rhs is model.parity_chains of
    s.params(r), self-energy shift included.  The interior is the
    leading N - buffer positions of each chain, so the residual and
    |H(r)|_2 are linalg.banded_norm of the chains, O(N); TruncationError
    below 8 levels, as for the other two checks.
    """
    cut = _checked_cut(fp, fp.n_fock, "the truncation")
    alpha, gamma, kappa = heavy_field_coefficients(s, r)
    n = fp.n_fock
    # M[j, j+1] = up[j], M[j+1, j] = low[j], M[j, j] = kappa.
    up = alpha * np.sqrt(np.arange(1.0, n))
    low = gamma * np.sqrt(np.arange(1.0, n))
    mtm = np.zeros((3, n))
    mtm[0] = kappa**2 + 0.5
    mtm[0, 1:] += up**2
    mtm[0, :-1] += low**2
    mtm[1, :-1] = kappa * (up + low)
    mtm[2, :-2] = up[1:] * low[:-1]
    spin = s.omega_a(r) / 2.0 * (1.0 - 2.0 * (np.arange(n) % 2))
    diff = np.stack([s.omega_g(r) * mtm] * 2)  # the lhs chains, then lhs - rhs
    diff[0, 0] += spin
    diff[1, 0] -= spin
    rhs = parity_chains(s.params(r), fp).bands
    diff[:, : rhs.shape[1]] -= rhs
    residual = max(banded_norm(band, cut) for band in diff)
    return TransformReport(residual / max(1.0, max(banded_norm(band) for band in rhs)))


def polaron_equivalence_report(
    omega_a: float, omega_b: float, g: float, fp: FockParams
) -> TransformReport:
    """Check the polaron-frame identity for the c=0 Hamiltonian.

    U^dag {H(omega_a, omega_b, g, 0) + g^2/omega_b} U
      = H(0, omega_b, 0, 0)
        - (omega_a/2) {s+ D(g/omega_b)^2 + s- D(-g/omega_b)^2},

    with g^2/omega_b = model.self_energy(omega_b, 0, g), on the levels
    below the stricter of N - buffer and N - ceil(POLARON_SPREAD beta
    sqrt(N)), beta = g/omega_b, which keeps the truncation error of
    D(beta) out; TruncationError below 8 levels.

    U = (R (x) 1) diag(D^T, D) with D = D(beta) and the spin rotation
    R = [[1, -1], [1, 1]]/sqrt(2), for which R^dag sz R = -sx and
    R^dag sx R = sz.  So the spin-diagonal blocks of the lhs are
    D h+ D^T and D^T h- D, with h+/- = omega_b(n+1/2) +/- g x + g^2/omega_b,
    and its off-diagonal blocks are -(omega_a/2) D^2 and its transpose,
    those of the rhs.  The residual is the two diagonal blocks less
    F = omega_b(n+1/2); its leading cut x cut blocks are
    U_c^T (h+/- U_c) - F_c with U_c the leading cut columns of D^T and of
    D, h+/- held as tridiagonal bands (linalg.band_times), and F_c
    subtracted on the diagonal.  Its norm is _leading_norm, the check's
    one eigensolve.

    The scale is omega_b (N - 1/2) - |omega_a|/2, Weyl's lower bound on
    |rhs|_2: the rhs is F (+) F, whose norm is omega_b (N - 1/2), plus
    off-diagonal blocks O = -(omega_a/2) D^2 and O^T, of norm |omega_a|/2
    since D^2 is orthogonal.  Dividing by a lower bound can only make
    the relative residual read higher, by at most a factor
    1 + |omega_a| / (omega_b (N - 1/2) - |omega_a|/2).
    """
    beta = g / omega_b
    cut = _checked_cut(
        fp,
        fp.n_fock - math.ceil(POLARON_SPREAD * beta * math.sqrt(fp.n_fock)),
        f"displacement amplitude {beta}",
    )
    d = displacement(beta, fp)
    # h+ and h- in band storage, with the level n as sqrt(n)^2, the
    # diagonal of the literal a_dag @ a.
    root = np.sqrt(np.arange(fp.n_fock, dtype=float))
    free = omega_b * (root**2 + 0.5)
    h = np.zeros((2, 2, fp.n_fock))
    h[:, 0] = free + self_energy(omega_b, 0.0, g)
    h[0, 1, :-1] = g * root[1:]
    h[1, 1, :-1] = -g * root[1:]
    uc = np.stack([d.T[:, :cut], d[:, :cut]])
    diff = uc.transpose(0, 2, 1) @ band_times(h, uc)
    diff[:, np.arange(cut), np.arange(cut)] -= free[:cut]
    # Weyl: |rhs|_2 >= omega_b (N - 1/2) - |O|_2, and |O|_2 = |omega_a|/2.
    scale = omega_b * (fp.n_fock - 0.5) - abs(omega_a) / 2.0
    return TransformReport(_leading_norm(diff) / max(1.0, scale))
