"""Model points, their parity chains, the supercharge pairs and derived scalars.

The family H(omega_a, omega_b, g, c) is the quantum Rabi model plus the
quadratic (A^2-type) boson self-interaction c*g^2*(a+a_dag)^2; the
r-parameterized path runs from the free N=2 SUSY oscillator at r=0 to
the broken, frequency-renormalized one at r=1 (hbar = 1).  H is held as
its two parity chains (parity_chains), the charges as 2 x 2 blocks on
their spin-flip pairs (charge_pairs); no 2N x 2N matrix is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fock import I2, S_MINUS, S_PLUS, SZ, FockParams


@dataclass(frozen=True)
class ModelParams:
    """The tuple (omega_a, omega_b, g, c) selecting one Hamiltonian, plus its shift.

    shift is a scalar added to H: self_energy(omega, c, g) on the r path
    (Schedule.params) and the coupling sweep (spectral.sweep_params_g).
    """

    omega_a: float
    omega_b: float
    g: float = 0.0
    c: float = 0.0
    shift: float = 0.0

    def __post_init__(self):
        if self.omega_b <= 0:
            raise ValidationError(f"omega_b must be > 0, got {self.omega_b}")
        if self.omega_a < 0 or self.g < 0 or self.c < 0:
            raise ValidationError("omega_a, g and c must be non-negative")


def renormalized_frequency(omega: float, c: float, g: float) -> tuple[float, float]:
    """(omega_g, g_tilde): the A^2-renormalized frequency and coupling.

    omega_g = sqrt(omega^2 + 4*c*omega*g^2), g_tilde = g*sqrt(omega/omega_g).
    An omega_g that is not finite in float64 (a finite omega or g whose
    square overflows), or whose square is below the smallest normal
    float64 (a tiny omega: omega_g would lose digits or be 0), is a
    ValidationError.
    """
    if omega <= 0:
        raise ValidationError(f"omega must be > 0, got {omega}")
    if c < 0 or g < 0:
        raise ValidationError("c and g must be non-negative")
    # Python floats raise OverflowError where numpy scalars would warn and give inf.
    omega, c, g = float(omega), float(c), float(g)
    try:
        omega_g2 = omega**2 + 4.0 * c * omega * g**2
    except OverflowError:
        omega_g2 = math.inf
    if not np.finfo(np.float64).tiny <= omega_g2 < math.inf:
        flow = "underflows" if omega_g2 < 1.0 else "overflows"
        raise ValidationError(
            f"omega_g = sqrt(omega^2 + 4 c omega g^2) {flow} float64 at "
            f"omega={omega}, c={c}, g={g}"
        )
    omega_g = math.sqrt(omega_g2)
    return omega_g, g * math.sqrt(omega / omega_g)


def self_energy(omega: float, c: float, g: float) -> float:
    """The scalar shift g^2 / (4*c*g^2 + omega) = g_tilde^2/omega_g; 0 at g = 0.

    This one formula is the shift of the r path (Schedule.params) and of
    the coupling sweep (spectral.sweep_params_g); it saturates at 1/(4c)
    as g grows.  The inputs are checked by renormalized_frequency first.
    """
    renormalized_frequency(omega, c, g)
    return g**2 / (4.0 * c * g**2 + omega)


def mass_increment(omega: float, c: float, g: float) -> float:
    """Mass increment 2*sqrt(c*omega)*g; satisfies omega_g^2 = omega^2 + dm^2."""
    renormalized_frequency(omega, c, g)
    return 2.0 * math.sqrt(c * omega) * g


@dataclass(frozen=True)
class Schedule:
    """The paper's r path with fixed omega and c: a straight line in (omega_a, g).

    omega_a(r) = (1-r)*omega runs from omega to 0 and g(r) = r*g_max
    from 0 to g_max; no other path is offered.
    """

    omega: float
    g_max: float
    c: float = 0.0

    def __post_init__(self):
        if self.omega <= 0:
            raise ValidationError(f"omega must be > 0, got {self.omega}")
        if self.g_max < 0 or self.c < 0:
            raise ValidationError("g_max and c must be non-negative")

    def omega_a(self, r: float) -> float:
        _check_r(r)
        return (1.0 - r) * self.omega

    def g(self, r: float) -> float:
        _check_r(r)
        return r * self.g_max

    def omega_g(self, r: float) -> float:
        return renormalized_frequency(self.omega, self.c, self.g(r))[0]

    def g_tilde(self, r: float) -> float:
        return renormalized_frequency(self.omega, self.c, self.g(r))[1]

    def params(self, r: float) -> ModelParams:
        """The point H(r): (omega_a(r), omega, g(r), c), shifted by self_energy(omega, c, g(r))."""
        g = self.g(r)
        shift = self_energy(self.omega, self.c, g)
        return ModelParams(self.omega_a(r), self.omega, g, self.c, shift)


def _check_r(r: float) -> None:
    if not 0.0 <= r <= 1.0:
        raise ValidationError(f"r must lie in [0, 1], got {r}")


def chain_sz(n_fock: int) -> np.ndarray:
    """The (2, N) diagonal of sz on each parity chain, exactly +/-1.0.

    Chain 0 runs |up,0>, |down,1>, |up,2>, ..., so sz is (-1)^n on it;
    chain 1 starts at |down,0>, so sz is -(-1)^n there.
    """
    sign = 1.0 - 2.0 * (np.arange(n_fock) % 2)
    return np.stack([sign, -sign])


def parity_chains(p: ModelParams, fp: FockParams) -> np.ndarray:
    """The truncated H of the point p as its two parity blocks, in banded storage.

    The parity -sz*exp(i*pi*a_dag a) commutes with every H(omega_a,
    omega_b, g, c), since (a+a_dag)^2 is even.  Chain 0 is the basis
    |up,0>, |down,1>, |up,2>, ...; chain 1 starts at |down,0>.  Each is
    a real symmetric N x N band matrix.  The result h is a read-only
    (2, rows, N) array with h[i, d, j] = chain_i[j + d, j] for
    d = 0 .. rows - 1, the lower banded form of scipy.linalg.eig_banded;
    so N = h.shape[-1], and H has dimension 2N.  The chains have exactly
    the spectrum of the truncated H.

    With x = a + a_dag, chain entries are
    diagonal      omega_b(n+1/2) +/- (omega_a/2)(-1)^n + c g^2 (x^2)_nn + shift,
    first band    g sqrt(n+1),
    second band   c g^2 sqrt((n+1)(n+2)).
    (x^2)_nn is that of the literal truncated product x @ x:
    2n+1, except N-1 (not 2N-1) in the corner n = N-1.
    Without an A^2 term (c g^2 = 0) the second band is zero and left
    out, so the chains are tridiagonal (rows = 2), else pentadiagonal
    (rows = 3).
    """
    n = np.arange(fp.n_fock, dtype=float)
    a2 = p.c * p.g**2
    x2_diag = 2.0 * n + 1.0
    x2_diag[-1] = n[-1]
    common = p.omega_b * (n + 0.5) + a2 * x2_diag + p.shift
    bands = np.zeros((2, 3 if a2 else 2, fp.n_fock))
    bands[:, 0] = common + p.omega_a / 2.0 * chain_sz(fp.n_fock)
    bands[:, 1, :-1] = p.g * np.sqrt(n[1:])
    if a2:
        bands[:, 2, :-2] = a2 * np.sqrt(n[1:-1] * n[2:])
    bands.flags.writeable = False
    return bands


def squeezed_chains(p: ModelParams, fp: FockParams) -> np.ndarray:
    """The truncated H of p in the A^2-removing squeezed frame, as parity chains.

    The squeeze that verify checks (transforms.a2_removal_report) maps H(omega_a,
    omega_b, g, c) onto the Rabi Hamiltonian H(omega_a, omega_g, g_tilde,
    0) with (omega_g, g_tilde) = renormalized_frequency(omega_b, c, g),
    and leaves sz alone, so these are the parity_chains of that
    Hamiltonian, tridiagonal since it has no A^2 term; the squeeze leaves
    the scalar p.shift alone, so it carries over.  Truncated at N,
    they differ from the parity_chains of H only through the truncation,
    and converge at the N that required_n_fock sizes for
    beta = g_tilde/omega_g, where the unsqueezed chains may not.
    """
    omega_g, g_tilde = renormalized_frequency(p.omega_b, p.c, p.g)
    return parity_chains(ModelParams(p.omega_a, omega_g, g_tilde, shift=p.shift), fp)


@dataclass(frozen=True)
class SuperchargeSet:
    """Hermitian charges q1, q2, nilpotent q+/- = (q1 +/- i q2)/sqrt(2), grading -sz.

    Every array is float64 except q2, which is i times a real matrix.
    Each charge flips the qubit, and pairs holds the spin-flip pairs it
    acts within: an (N, 2) array of basis indices, one pair per row, each
    up-spin index of the 2N basis in exactly one row and each down-spin
    index too.  Every charge, the grading and the Hamiltonian the charges
    belong to have no entry outside these 2 x 2 blocks.  charge_pairs
    gives the operators as (N, 2, 2) stacks of those blocks.
    """

    q1: np.ndarray
    q2: np.ndarray
    q_plus: np.ndarray
    q_minus: np.ndarray
    grading: np.ndarray
    pairs: np.ndarray


def _spin_flip_pairs(fp: FockParams, lag: int) -> np.ndarray:
    """The rows ((n - lag) mod N, N + n): |up, n - lag> beside |down, n>."""
    n = np.arange(fp.n_fock)
    return np.stack([(n - lag) % fp.n_fock, fp.n_fock + n], axis=1)


def charge_pairs(
    variant: str, omega: float, fp: FockParams, n_pairs: int | None = None
) -> tuple[np.ndarray, SuperchargeSet]:
    """H and the "free" or "broken" charges as (N, 2, 2) stacks on their pairs.

    Row j of each stack is the operator's 2 x 2 block on pair j, in the
    order (up, down), so sz is diag(1, -1) there.  The free set belongs
    to H(omega, omega, 0, 0), with q+ = sqrt(omega) s+ a and
    q- = sqrt(omega) s- a_dag; its charges move the boson by one level,
    so pair n is (|up, n-1>, |down, n>), and row 0 holds the two states
    no charge reaches, |up, N-1> and |down, 0>, with no coupling between
    them.  The broken set belongs to H(0, omega, 0, 0), with
    Q+/- = s+/- sqrt(omega (n+1/2)); its charges leave the boson where it
    is, so pair n is (|up, n>, |down, n>).  In both, with s+ x and s- x
    the two ladder halves, q1 = sqrt(omega/2)(s+ x + s- x),
    q2 = i sqrt(omega/2)(s- x - s+ x) and q+/- = (q1 +/- i q2)/sqrt(2).
    The level n is sqrt(n)^2, the diagonal of the literal a_dag @ a, so
    every entry is bitwise that of the literal ladder product.  n_pairs, N by
    default, keeps only the first n_pairs pairs: the goldstino check
    reads pair 0 alone, and where omega (n + 1/2) overflows, H on the
    higher pairs would be inf.
    """
    if omega <= 0:
        raise ValidationError(f"omega must be > 0, got {omega}")
    if variant not in ("free", "broken"):
        raise ValidationError(f"unknown charge set {variant!r}; known: 'free', 'broken'")
    free = variant == "free"
    pairs = _spin_flip_pairs(fp, lag=1 if free else 0)[:n_pairs]
    n = np.arange(len(pairs), dtype=float)
    level = np.sqrt(n) ** 2
    # The boson factor on pair n: <n-1|a|n> = sqrt(n) (free), sqrt(n+1/2) (broken).
    x = (np.sqrt(n) if free else np.sqrt(level + 0.5))[:, None, None]
    up, down = x * S_PLUS, x * S_MINUS
    root = math.sqrt(omega / 2.0)
    q1 = root * (up + down)
    q2_over_i = root * (down - up)
    h = (omega if free else 0.0) / 2.0 * SZ
    h = h + (omega * (np.sqrt(pairs % fp.n_fock) ** 2 + 0.5))[:, :, None] * I2
    return h, SuperchargeSet(
        q1=q1,
        q2=1j * q2_over_i,
        q_plus=(q1 - q2_over_i) / math.sqrt(2.0),
        q_minus=(q1 + q2_over_i) / math.sqrt(2.0),
        grading=np.broadcast_to(-SZ, q1.shape),
        pairs=pairs,
    )


def heavy_field_coefficients(s: Schedule, r: float) -> tuple[float, float, float]:
    """(alpha, gamma, kappa) with B_r = alpha b + gamma b_dag + kappa sx at point r.

    alpha = c1+c2, gamma = c1-c2 and kappa = g_tilde/omega_g, with
    c1 = sqrt(omega_g/omega)/2 and c2 = sqrt(omega/omega_g)/2.
    """
    _check_r(r)
    og = s.omega_g(r)
    c1 = 0.5 * math.sqrt(og / s.omega)
    c2 = 0.5 * math.sqrt(s.omega / og)
    return c1 + c2, c1 - c2, s.g_tilde(r) / og
