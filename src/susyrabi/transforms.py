"""Displacement, squeeze and polaron unitaries, and equivalence checking.

The frequency-renormalizing unitary is realized as a one-mode squeeze
S(+zeta); its correctness is established numerically against the
conjugation identity it must satisfy.  All residuals are measured away
from the truncation boundary, on the leading cut x cut block of each
N x N operand (boson levels 0..cut-1), in the Frobenius norm, which
bounds the spectral norm from above, and relative to a lower bound on
the spectral norm of the Hermitian target: its largest |diagonal entry|,
or for the polaron frame Weyl's bound.  So each value reads at least
the relative spectral residual, and every norm is a closed form.
The cut is N - buffer, or for the squeeze and polaron checks the
leading columns of the formed S or D that stay clear of the truncation
edge, if fewer (truncation_cut); TruncationError below 8 levels.

Each of the three checks holds its operands as the blocks its algebra
gives it, with no 2N x 2N operand:

- A^2 removal: S(zeta) couples only levels of equal parity, so 1 (x) S
  is S on each parity chain (model.parity_chains, model.squeezed_chains).
- Field rewriting: B_r^dag B_r is one pentadiagonal band on each chain,
  compared with the model.parity_chains of Schedule.params(r) in band
  storage; its residual and scale are read off the bands, O(N).
- Polaron frame: U(beta) is a fixed spin rotation times diag(D^T, D),
  and the parity P = diag((-1)^n) maps one spin-diagonal block of the
  residual onto the other, so the check forms only the second.

The squeeze and polaron residuals share one path, _frame_residual, from
the leading columns of S or D and the chains' bands; the field
rewriting's is read off its bands (_band_norm).  squeeze and
displacement are each one real linalg.skew_tridiagonal_exp; the tests
compare each check with numpy on 2N x 2N operators built from them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import TruncationError
from .fock import FockParams
from .linalg import band_matrix, band_times, skew_tridiagonal_exp
from .model import (
    ModelParams,
    Schedule,
    chain_sz,
    heavy_field_coefficients,
    parity_chains,
    renormalized_frequency,
    self_energy,
    squeezed_chains,
)

MAX_SQUEEZE = 2.0


def displacement(beta: float, fp: FockParams, m: int | None = None) -> np.ndarray:
    """The leading m columns of D(beta) = exp[beta (a_dag - a)] on the
    boson factor, all N by default; real.

    The generator is real skew-symmetric tridiagonal with sub-diagonal
    beta sqrt(n+1), so D is one linalg.skew_tridiagonal_exp.
    """
    return skew_tridiagonal_exp(beta * np.sqrt(np.arange(1.0, fp.n_fock)), m)


def squeeze(zeta: float, fp: FockParams, m: int | None = None) -> np.ndarray:
    """The leading m columns of S(zeta) = exp[(zeta/2)(a^2 - a_dag^2)] on
    the boson factor, all N by default; real.

    The generator couples level n only to n + 2, with entry
    -(zeta/2) sqrt((n+1)(n+2)) below the diagonal, so on the even levels
    and on the odd levels it is a real skew-symmetric tridiagonal chain
    and S is their two linalg.skew_tridiagonal_exp, each on its own
    columns among the leading m.  An angle beyond MAX_SQUEEZE is a
    TruncationError (_check_squeeze_angle).
    """
    _check_squeeze_angle(zeta)
    m = fp.n_fock if m is None else m
    n = np.arange(fp.n_fock - 2)
    e = -zeta / 2.0 * np.sqrt((n + 1.0) * (n + 2.0))
    out = np.zeros((fp.n_fock, m))
    for s in (0, 1):
        out[s::2, s::2] = skew_tridiagonal_exp(e[s::2], len(range(s, m, 2)))
    return out


def _check_squeeze_angle(zeta: float) -> None:
    """TruncationError for an angle beyond MAX_SQUEEZE: a limit of the
    truncated squeeze, not bad input."""
    if abs(zeta) > MAX_SQUEEZE:
        raise TruncationError(
            f"|zeta| must be <= {MAX_SQUEEZE} for truncation safety, got {zeta}"
        )


def truncation_cut(fp: FockParams, columns: np.ndarray | None = None, cause: str = "") -> int:
    """The number of leading levels a check reads: N - buffer, or fewer
    where it conjugates by the leading columns of S or D.

    A column of the formed S or D whose last 4 rows reach 1e-10 in
    magnitude has spread to the truncation edge, where the truncated
    operator departs from the true one; the cut keeps the columns before
    the first such one.  It reads the operator, never a residual, so a
    wrong identity still reads as a FAIL.  Below 8 levels it is a
    TruncationError naming the cause, or the buffer where it is the stricter.
    """
    cut = fp.n_fock
    if columns is not None:
        leaks = np.abs(columns[-4:]).max(axis=0) >= 1e-10
        cut = int(leaks.argmax()) if leaks.any() else columns.shape[1]
    if fp.n_fock - fp.buffer <= cut:
        cut, cause = fp.n_fock - fp.buffer, f"buffer {fp.buffer}"
    if cut < 8:
        raise TruncationError(
            f"{cause} leaves fewer than 8 checkable levels at "
            f"n_fock={fp.n_fock}; increase the truncation"
        )
    return cut


def _frame_residual(fp: FockParams, columns: np.ndarray, cause: str,
                    bands: np.ndarray, targets: np.ndarray) -> float:
    """Frobenius norm of U_c^T (B U_c) - T_c over the chains B of bands and T of targets.

    U_c is columns, the formed leading columns of U, cut to truncation_cut;
    B and T are bands (linalg.band_times, band_matrix), one chain at a time.
    """
    cut = truncation_cut(fp, columns, cause)
    lead = columns[:, :cut]
    norms = []
    for band, target in zip(bands, targets):
        diff = lead.T @ band_times(band, lead)
        diff -= band_matrix(target[:, :cut])
        norms.append(_leading_norm(diff))
    return math.hypot(*norms)


def _leading_norm(block: np.ndarray) -> float:
    """Frobenius norm of a real array, all its entries together; overwrites it.

    block is a residual's leading blocks, the diagonal blocks of the dense
    check's P R P (both, or for the polaron frame one of two of equal
    norm, counted twice by its caller), so the norm is
    |P R P|_F >= |P R P|_2: a residual reads at least its spectral norm,
    and no check passes that would fail under that.  block is divided
    by its largest |entry| before it is squared, so no square overflows,
    and squared in place: callers pass an array of their own.
    """
    big = max(block.max(initial=0.0), -block.min(initial=0.0))
    if big == 0.0:
        return 0.0
    block /= big
    block *= block
    return float(big * math.sqrt(block.sum()))


def _band_norm(band: np.ndarray, cut: int) -> float:
    """Frobenius norm of the leading cut x cut blocks of a stack of real symmetric bands, together.

    band is (..., rows, N) in lower banded storage (linalg.band_times).
    An entry below the diagonal stands for two of the matrix, so the
    square of the norm is that of the band's leading entries plus that of
    its off-diagonal ones; O(rows N).
    """
    lead = band[..., :cut].copy()
    for d in range(1, lead.shape[-2]):
        lead[..., d, max(lead.shape[-1] - d, 0):] = 0.0
    return math.hypot(_leading_norm(lead[..., 1:, :].copy()), _leading_norm(lead))


def _diagonal_scale(chains: np.ndarray) -> float:
    """max(1, the largest |diagonal entry| of a stack of bands).

    |A_jj| <= |A|_2, so this is a lower bound on max(1, |rhs|_2) for the
    block-diagonal rhs the chains make up: dividing by it can only make a
    relative residual read higher.
    """
    return max(1.0, float(np.abs(chains[..., 0, :]).max()))


def a2_removal_report(p: ModelParams, fp: FockParams) -> float:
    """Check that the squeeze S(zeta) removes the A^2 term.

    Conjugation by U = 1 (x) S(zeta), zeta = log(omega_g/omega_b)/2, maps
    H(omega_a, omega_b, g, c) to the plain Rabi Hamiltonian at the
    renormalized frequency and coupling.  The sign is fixed: a wrong
    convention shows as a large residual.  Like the other two checks,
    this one only measures: it returns the relative interior residual,
    and the caller compares it with its threshold.

    S couples only levels of equal parity, which on one parity chain carry
    the same spin, so U is S on each chain in the chain's position basis:
    the residual is S^T L S - R on the chains L of model.parity_chains and
    R of model.squeezed_chains, on their leading truncation_cut levels
    (_frame_residual), and the scale is _diagonal_scale of the R chains.
    Only the leading columns of S enter, so only they are formed: at most
    N exp(-2|zeta|), the most any measured cut kept, since S spreads level
    n up to about n exp(2|zeta|).
    """
    omega_g, _ = renormalized_frequency(p.omega_b, p.c, p.g)
    zeta = 0.5 * math.log(omega_g / p.omega_b)
    m = min(fp.n_fock - fp.buffer, int(fp.n_fock * math.exp(-2.0 * abs(zeta))))
    rhs, lead = squeezed_chains(p, fp), squeeze(zeta, fp, m)
    norm = _frame_residual(fp, lead, f"squeeze angle {zeta}", parity_chains(p, fp), rhs)
    return norm / _diagonal_scale(rhs)


def field_identity_report(s: Schedule, r: float, fp: FockParams) -> float:
    """Check the heavy-field rewriting of H(r) on its two parity chains.

    omega_g(r) (B_r^dag B_r + 1/2) - (omega_a(r)/2)(D- + D+) = H(r),
    measured on the interior and relative to a lower bound on |H(r)|_2
    (_diagonal_scale).  D- + D+ = -sz exactly.  B_r maps chain i to
    chain 1-i through the same real tridiagonal
    M = alpha a + gamma a_dag + kappa (model.heavy_field_coefficients),
    so B_r^dag B_r is M^T M on each chain: pentadiagonal, built in band
    storage with the truncated corner of the literal product.  The lhs on
    chain i is omega_g (M^T M + 1/2) + (omega_a/2) sz, with sz the
    model.chain_sz diagonal; the rhs is model.parity_chains of
    s.params(r), self-energy shift included.  The interior is the
    leading N - buffer positions of each chain (truncation_cut), so the
    residual is _band_norm of the two difference chains, O(N).
    """
    cut = truncation_cut(fp)
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
    diff = np.stack([s.omega_g(r) * mtm] * 2)  # the lhs chains, then lhs - rhs
    diff[:, 0] += s.omega_a(r) / 2.0 * chain_sz(n)
    rhs = parity_chains(s.params(r), fp)
    diff[:, : rhs.shape[1]] -= rhs
    return _band_norm(diff, cut) / _diagonal_scale(rhs)


def polaron_equivalence_report(omega_a: float, omega_b: float, g: float, fp: FockParams) -> float:
    """Check the polaron-frame identity for the c=0 Hamiltonian.

    U^dag {H(omega_a, omega_b, g, 0) + g^2/omega_b} U
      = H(0, omega_b, 0, 0)
        - (omega_a/2) {s+ D(g/omega_b)^2 + s- D(-g/omega_b)^2},

    with g^2/omega_b = model.self_energy(omega_b, 0, g), on the leading
    truncation_cut levels of D = D(beta), beta = g/omega_b: those whose
    columns of D stay clear of the truncation edge, below N - buffer.

    U = (R (x) 1) diag(D^T, D) with D = D(beta) and the spin rotation
    R = [[1, -1], [1, 1]]/sqrt(2), for which R^dag sz R = -sx and
    R^dag sx R = sz.  So the spin-diagonal blocks of the lhs are
    D h+ D^T and D^T h- D, with h+/- = omega_b(n+1/2) +/- g x + g^2/omega_b,
    and its off-diagonal blocks are -(omega_a/2) D^2 and its transpose,
    those of the rhs.  The residual is the two diagonal blocks less
    F = omega_b(n+1/2).  With P = diag((-1)^n), P K P = -K for D's
    tridiagonal generator K, so D^T = P D P, and P h+ P = h-, P F P = F:
    the first block is P (second block) P, with the same Frobenius norm.
    So only the second is formed, from D's leading N - buffer columns,
    and the residual's norm is sqrt(2) times its _frame_residual, with h-
    a tridiagonal band and F a diagonal one.

    The scale is omega_b (N - 1/2) - |omega_a|/2, Weyl's lower bound on
    |rhs|_2: the rhs is F (+) F, whose norm is omega_b (N - 1/2), plus
    off-diagonal blocks O = -(omega_a/2) D^2 and O^T, of norm |omega_a|/2
    since D^2 is orthogonal.  Dividing by a lower bound can only make
    the relative residual read higher, by at most a factor
    1 + |omega_a| / (omega_b (N - 1/2) - |omega_a|/2).
    """
    beta = g / omega_b
    # h- in band storage, with the level n as sqrt(n)^2, the diagonal of
    # the literal a_dag @ a.
    root = np.sqrt(np.arange(fp.n_fock, dtype=float))
    free = omega_b * (root**2 + 0.5)
    h = np.zeros((1, 2, fp.n_fock))
    h[0, 0] = free + self_energy(omega_b, 0.0, g)
    h[0, 1, :-1] = -g * root[1:]
    lead = displacement(beta, fp, fp.n_fock - fp.buffer)
    norm = _frame_residual(fp, lead, f"displacement amplitude {beta}", h, free[None, None])
    # Weyl: |rhs|_2 >= omega_b (N - 1/2) - |O|_2, and |O|_2 = |omega_a|/2.
    scale = omega_b * (fp.n_fock - 0.5) - abs(omega_a) / 2.0
    return math.sqrt(2.0) * norm / max(1.0, scale)
