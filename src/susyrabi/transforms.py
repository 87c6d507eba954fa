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
The cut is N - buffer, or less where a squeeze or a displacement spreads
Fock support: a rule in zeta or in beta sqrt(N), with TruncationError
where fewer than 8 levels would remain.

Each of the three checks holds its operands as the blocks its algebra
gives it, with no 2N x 2N operand:

- A^2 removal: S(zeta) couples only levels of equal parity, so 1 (x) S
  is S on each parity chain, and the check conjugates the chains of H
  (model.parity_chains) into the squeezed chains (model.squeezed_chains)
  on the leading columns of S, the only ones it forms, multiplying them
  by the chains' bands (linalg.band_times).
- Field rewriting: B_r^dag B_r is one pentadiagonal band on each chain,
  compared with the model.parity_chains of Schedule.params(r) in band
  storage; its residual and scale are read off the bands, O(N).
- Polaron frame: U(beta) is a fixed spin rotation times diag(D^T, D), so
  the residual lives on the two N x N spin-diagonal blocks.  The parity
  P = diag((-1)^n) maps one onto the other (D^T = P D P), so the check
  forms only the second block, from D's leading columns alone and one
  tridiagonal band, and the residual's norm is sqrt(2) times that
  block's; the scale is Weyl's lower bound on |rhs|_2, a closed form.

The squeeze residual is a (2, cut, cut) stack and the polaron residual
one cut x cut block, whose norms are _leading_norm, and the field
rewriting's are bands (_band_norm).  squeeze and displacement are the
paper's formulas, each one real linalg.skew_tridiagonal_exp, on the
leading columns a check asks for or on all; the tests compare each check
with numpy on 2N x 2N reference operators built from them.
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

# The error of the truncated D(beta) spreads in from the top Fock level
# over about 2.3-2.5 beta sqrt(N) levels (measured at beta = 1 for N = 256
# to 2048, and at beta = 2 for N = 256 to 1024); the polaron check cuts
# ceil(POLARON_SPREAD beta sqrt(N)) levels.
POLARON_SPREAD = 3.0


def displacement(beta: float, fp: FockParams, m: int | None = None) -> np.ndarray:
    """The leading m columns of D(beta) = exp[beta (a_dag - a)] on the
    boson factor, all N by default; real.

    The generator is real skew-symmetric tridiagonal with sub-diagonal
    beta sqrt(n+1), so D is one linalg.skew_tridiagonal_exp.  It has no
    amplitude guard of its own: its one caller, the polaron check, keeps
    at least 8 levels below N - ceil(POLARON_SPREAD beta sqrt(N)), which
    holds beta^2 below N/9.
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


def squeeze_cut(fp: FockParams, zeta: float) -> int:
    """Number of leading levels checkable under a squeeze of angle zeta.

    A squeeze spreads Fock level n up to about n*exp(2|zeta|), so identity
    checks are only meaningful on levels whose squeezed image stays inside
    the truncation.  The cut is the stricter of N - buffer and
    0.7 * N * exp(-2|zeta|); an angle beyond MAX_SQUEEZE is a
    TruncationError, whatever the cut.
    """
    _check_squeeze_angle(zeta)
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
    R of model.squeezed_chains, on their leading squeeze_cut levels, and
    the scale is _diagonal_scale of the R chains.  Only
    the leading cut columns S_c of S enter the residual's leading block,
    so only they are formed (squeeze(zeta, fp, cut)), and the residual is
    S_c^T (L S_c) - R_c, with L S_c from L's bands (linalg.band_times)
    and R_c the leading cut x cut blocks of R, from the leading cut
    columns of R's bands (linalg.band_matrix); no N x N matrix is formed.
    """
    omega_g, _ = renormalized_frequency(p.omega_b, p.c, p.g)
    zeta = 0.5 * math.log(omega_g / p.omega_b)
    cut = squeeze_cut(fp, zeta)
    lead = squeeze(zeta, fp, cut)
    rhs = squeezed_chains(p, fp)
    diff = lead.T @ band_times(parity_chains(p, fp), lead)
    diff -= band_matrix(rhs[:, :, :cut])
    return _leading_norm(diff) / _diagonal_scale(rhs)


def field_identity_report(s: Schedule, r: float, fp: FockParams) -> float:
    """Check the heavy-field rewriting of H(r) on its two parity chains.

    omega_g(r) (B_r^dag B_r + 1/2) - (omega_a(r)/2)(D- + D+) = H(r),
    measured on the interior and relative to a lower bound on |H(r)|_2
    (_diagonal_scale).  D- + D+ = -sz
    exactly.  B_r maps chain i to chain 1-i through the same real
    tridiagonal M = alpha a + gamma a_dag + kappa (model.heavy_field_coefficients),
    so B_r^dag B_r is M^T M on each chain: pentadiagonal, built in band
    storage with the truncated corner of the literal product.  The lhs on
    chain i is omega_g (M^T M + 1/2) + (omega_a/2) sz, with sz the
    model.chain_sz diagonal; the rhs is model.parity_chains of
    s.params(r), self-energy shift included.  The interior is the
    leading N - buffer positions of each chain, so the residual is
    _band_norm of the two difference chains, O(N); TruncationError below
    8 levels, as for the other two checks.
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
    diff = np.stack([s.omega_g(r) * mtm] * 2)  # the lhs chains, then lhs - rhs
    diff[:, 0] += s.omega_a(r) / 2.0 * chain_sz(n)
    rhs = parity_chains(s.params(r), fp)
    diff[:, : rhs.shape[1]] -= rhs
    return _band_norm(diff, cut) / _diagonal_scale(rhs)


def polaron_equivalence_report(
    omega_a: float, omega_b: float, g: float, fp: FockParams
) -> float:
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
    F = omega_b(n+1/2).  With P = diag((-1)^n), P K P = -K for D's
    tridiagonal generator K, so D^T = P D P, and P h+ P = h-, P F P = F:
    the first block is P (second block) P, with the same Frobenius norm.
    So only the second is formed, and the residual's norm is sqrt(2)
    times its _leading_norm.  Its leading cut x cut block is
    D_c^T (h- D_c) - F_c, with D_c the leading cut columns of D
    (displacement(beta, fp, cut)), h- held as a tridiagonal band
    (linalg.band_times), and F_c subtracted on the diagonal.

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
    lead = displacement(beta, fp, cut)
    # h- in band storage, with the level n as sqrt(n)^2, the diagonal of
    # the literal a_dag @ a.
    root = np.sqrt(np.arange(fp.n_fock, dtype=float))
    free = omega_b * (root**2 + 0.5)
    h = np.zeros((2, fp.n_fock))
    h[0] = free + self_energy(omega_b, 0.0, g)
    h[1, :-1] = -g * root[1:]
    diff = lead.T @ band_times(h, lead)
    diff[np.arange(cut), np.arange(cut)] -= free[:cut]
    # Weyl: |rhs|_2 >= omega_b (N - 1/2) - |O|_2, and |O|_2 = |omega_a|/2.
    scale = omega_b * (fp.n_fock - 0.5) - abs(omega_a) / 2.0
    return math.sqrt(2.0) * _leading_norm(diff) / max(1.0, scale)
