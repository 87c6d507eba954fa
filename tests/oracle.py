"""The tests' reference oracles: the dense 2N x 2N matrices and the Juddian levels.

The one module that knows the dense layout of the qubit (x) boson space:
index s*N + n (s = 0 the up-spin, n the Fock level), so an operator is
kron(spin, boson).  Commands solve the model on its parity chains or its
2 x 2 spin-flip pairs instead; the tests check those against the
matrices and the one dense eigh here (hermitian_eigs, which returns
(values, vectors) as numpy's eigh does), with its own square-shape check
and Hermiticity tolerance, and against the exact levels of
juddian_points.  interior_projector gives the index set on which the
dense residuals are measured.  lowest_levels and graded_levels mirror
spectral.lowest_k and spectral.graded_levels, so
spectral.truncation_convergence and spectral.witten_index, which take
levels, run on either path.  No package module imports this one; pytest
puts tests/ on sys.path.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from susyrabi import transforms
from susyrabi.errors import DimensionError, SolverError, ValidationError
from susyrabi.fock import I2, S_MINUS, S_PLUS, SZ, FockParams
from susyrabi.model import (
    ModelParams, Schedule, SuperchargeSet, charge_pairs, heavy_field_coefficients,
    renormalized_frequency, self_energy,
)
from susyrabi.spectral import pair_algebra_report, sweep_params_g

# sigma_x and sigma_y, read-only like the qubit constants of susyrabi.fock.
SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SX.flags.writeable = SY.flags.writeable = False

# Hard cap on produced matrix dimension; protects kron from runaway sizes.
MAX_DIM = 8192
HERMITICITY_RTOL = 1e-12


def _check_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """a as a square float64 or complex array; real input stays real."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    return a.astype(np.result_type(a.dtype, np.float64), copy=False)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor index-major.

    Called as kron(spin, boson) this puts the qubit factor first, which is
    the basis ordering of this module.  A result above MAX_DIM, read at
    each call, is a DimensionError.
    """
    a = _check_square(a, "kron factor A")
    b = _check_square(b, "kron factor B")
    dim = a.shape[0] * b.shape[0]
    if dim > MAX_DIM:
        raise DimensionError(
            f"kron result dimension {dim} exceeds the configured maximum {MAX_DIM}"
        )
    return np.kron(a, b)


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


def basis_state(spin: str, n: int, fp: FockParams) -> np.ndarray:
    """Unit vector |spin> (x) |n>, spin one of 'up'/'down'."""
    if spin not in ("up", "down"):
        raise ValidationError(f"spin must be 'up' or 'down', got {spin!r}")
    if not 0 <= n < fp.n_fock:
        raise ValidationError(f"Fock level {n} outside 0..{fp.n_fock - 1}")
    v = np.zeros(2 * fp.n_fock, dtype=complex)
    v[(0 if spin == "up" else 1) * fp.n_fock + n] = 1.0
    return v


def interior_projector(fp: FockParams, cut: int | None = None) -> np.ndarray:
    """Basis indices of both spin sectors of boson levels 0..cut-1.

    cut defaults to N - B.  The indices, np.r_[0:cut, N:N+cut], are the
    support of the 0/1 diagonal interior projector.
    """
    cut = fp.n_fock - fp.buffer if cut is None else cut
    if not 0 <= cut <= fp.n_fock:
        raise ValidationError(f"interior cut {cut} outside 0..{fp.n_fock}")
    return np.r_[0:cut, fp.n_fock : fp.n_fock + cut]


def _drop_negligible(a: np.ndarray) -> np.ndarray:
    """Set every entry of a below eps * max|a| / n to exactly zero, in place; return a.

    a is an n x n matrix, or a stack of them with max|a| taken over the
    stack, and is modified: callers pass an array of their own.  The
    dropped part E of each matrix has |E|_2 <= |E|_F < eps * max|a|, and
    max|a| is at most the largest |a|_2, so by Weyl's inequality no
    eigenvalue moves by more than rounding relative to it.  LAPACK's
    Hermitian eigensolvers lose accuracy on entries far below the rest
    (near 1e-175 beside O(1) entries, real and complex calls alike).
    """
    if not a.size:
        return a
    mag = np.abs(a)
    small = mag < np.finfo(np.float64).eps * mag.max() / a.shape[-1]
    del mag
    a[small] = 0.0
    return a


def hermitian_eigs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (values, vectors) of a (nearly) Hermitian matrix, the dense oracle.

    The input is symmetrized as (A + A^dagger)/2 before solving; truncation
    of ladder operators routinely introduces 1-ulp asymmetries, so an
    asymmetry beyond HERMITICITY_RTOL is a RuntimeWarning, not an error.
    Entries below rounding relative to the largest are dropped
    (_drop_negligible) before one np.linalg.eigh, returned as it
    gives it.  Real symmetric input gives real eigenvectors.
    """
    a = _check_square(a)
    scale = np.max(np.abs(a)) if a.size else 0.0
    asym = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if scale > 0 and asym > HERMITICITY_RTOL * scale:
        warnings.warn(
            f"input not Hermitian (defect {asym:.3e}, scale {scale:.3e}); symmetrizing",
            RuntimeWarning,
            stacklevel=2,
        )
    h = _drop_negligible((a + a.conj().T) / 2)
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise SolverError(f"Hermitian eigensolver failed: {exc}") from exc


def lowest_levels(h: np.ndarray, k: int) -> np.ndarray:
    """The k smallest eigenvalues of a dense h, from one hermitian_eigs."""
    return hermitian_eigs(h)[0][:k]


def graded_levels(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All levels of a dense h, ascending, with their -sz expectations.

    The up-spin half of an eigenvector v is v[:N], so the expectation is
    sum |v_down|^2 - sum |v_up|^2.
    """
    values, vectors = hermitian_eigs(h)
    weights = np.abs(vectors) ** 2
    half = h.shape[0] // 2
    return values, weights[half:].sum(axis=0) - weights[:half].sum(axis=0)


def hamiltonian(p: ModelParams, fp: FockParams) -> np.ndarray:
    """H = (omega_a/2) sz + omega_b (n+1/2) + g sx (a+a_dag) + c g^2 (a+a_dag)^2 + shift.

    The scalar p.shift (a self-energy) is added last, as shift times the
    identity, and only when it is nonzero.  model.parity_chains gives the
    same matrix as its two parity chains.
    """
    ops = make_operators(fp)
    x2 = ops.a + ops.a_dag
    h = p.omega_a / 2.0 * embed_qubit(SZ, fp)
    h = h + p.omega_b * embed_boson(ops.n_op + 0.5 * np.eye(fp.n_fock), fp)
    if p.g != 0.0:
        h = h + p.g * kron(SX, x2)
    if p.c != 0.0 and p.g != 0.0:
        h = h + p.c * p.g**2 * embed_boson(x2 @ x2, fp)
    if p.shift != 0.0:
        h = h + p.shift * np.eye(2 * fp.n_fock)
    return h


def h_total_r(s: Schedule, r: float, fp: FockParams) -> np.ndarray:
    """H(r) = H_Rabi(r) + c g(r)^2 (a+a_dag)^2 + self_energy(omega, c, g(r)).

    Equal to h_susy_ss + h_interaction to rounding, not entrywise: the
    two build the same terms from differently rounded coefficients and
    sum them in a different order.
    """
    return hamiltonian(s.params(r), fp)


def sweep_hamiltonian_g(omega: float, c: float, g: float, fp: FockParams) -> np.ndarray:
    """H_Rabi(g) + c g^2 (a+a_dag)^2 + self_energy(omega, c, g) at omega_a=omega_b=omega."""
    return hamiltonian(sweep_params_g(omega, c, g), fp)


def h_susy_ss(omega: float, fp: FockParams) -> np.ndarray:
    """The free SUSY oscillator omega*(n+1/2) + (omega/2)*sz.

    This is the superpotential-W(x)=omega*x Hamiltonian written in
    number-operator form.  The literal half(p^2+W^2) matrix product differs
    from it only at the truncation corner, so the normal-ordered form is
    used to keep the algebraic identity with hamiltonian(omega,omega,0,0)
    exact entrywise.
    """
    if omega <= 0:
        raise ValidationError(f"omega must be > 0, got {omega}")
    boson = embed_boson(make_operators(fp).n_op + 0.5 * np.eye(fp.n_fock), fp)
    return omega * boson + (omega / 2.0) * embed_qubit(SZ, fp)


def h_interaction(s: Schedule, r: float, fp: FockParams) -> np.ndarray:
    """The switch-on interaction built from the superpotential W = omega*x.

    H_int(r) = g(r) sqrt(2/omega) sx W + (2c/omega) g(r)^2 W^2
               + g(r)^2/(4 c g(r)^2 + omega) + (1/2) sz (omega_a(r) - omega).
    """
    g = s.g(r)
    ops = make_operators(fp)
    # W = omega * x with x = (a + a_dag) / sqrt(2*omega)
    w = math.sqrt(s.omega / 2.0) * (ops.a + ops.a_dag)
    dim = 2 * fp.n_fock
    h = np.zeros((dim, dim))
    if g != 0.0:
        h = h + g * math.sqrt(2.0 / s.omega) * kron(SX, w)
        h = h + (2.0 * s.c / s.omega) * g**2 * embed_boson(w @ w, fp)
        h = h + self_energy(s.omega, s.c, g) * np.eye(dim)
    h = h + (s.omega_a(r) - s.omega) / 2.0 * embed_qubit(SZ, fp)
    return h


def heavy_hamiltonian(s: Schedule, fp: FockParams) -> np.ndarray:
    """The r=1 limit: omega_g*(n+1/2) on the boson factor, qubit identity.

    Spectrum omega_g*(n+1/2), each level doubly degenerate.
    """
    ops = make_operators(fp)
    return s.omega_g(1.0) * embed_boson(ops.n_op + 0.5 * np.eye(fp.n_fock), fp)


def heavy_field(s: Schedule, r: float, fp: FockParams) -> np.ndarray:
    """The heavy-boson annihilator B_r at interpolation point r, real.

    B_r = alpha b + gamma b_dag + kappa sx with the coefficients of
    model.heavy_field_coefficients.  [sx, B_r] = 0 exactly (spin-chiral
    symmetry).
    """
    alpha, gamma, kappa = heavy_field_coefficients(s, r)
    ops = make_operators(fp)
    b = alpha * embed_boson(ops.a, fp) + gamma * embed_boson(ops.a_dag, fp)
    return b + kappa * embed_qubit(SX, fp)


def _dense_charges(variant: str, omega: float, fp: FockParams) -> SuperchargeSet:
    """The charge_pairs stacks scattered into 2N x 2N arrays on their pairs."""
    c = charge_pairs(variant, omega, fp)[1]
    idx = c.pairs[:, :, None], c.pairs[:, None, :]
    dense = []
    for stack in (c.q1, c.q2, c.q_plus, c.q_minus, c.grading):
        dense.append(np.zeros((2 * fp.n_fock, 2 * fp.n_fock), dtype=stack.dtype))
        dense[-1][idx] = stack
    return SuperchargeSet(*dense, pairs=c.pairs)


def free_supercharges(omega: float, fp: FockParams) -> SuperchargeSet:
    """The charges of the unbroken SUSY of H(omega, omega, 0, 0), dense (charge_pairs)."""
    return _dense_charges("free", omega, fp)


def broken_supercharges(omega: float, fp: FockParams) -> SuperchargeSet:
    """The charges of the broken SUSY of H(0, omega, 0, 0), dense (charge_pairs)."""
    return _dense_charges("broken", omega, fp)


def susy_algebra_report(
    h: np.ndarray,
    charges: SuperchargeSet,
    fp: FockParams,
) -> tuple[dict[str, float], tuple[float, ...]]:
    """spectral.pair_algebra_report of a dense h and dense charges: (residuals, vacuum).

    h, the charges and the grading are gathered on charges.pairs into
    (N, 2, 2) stacks.  An operand with a nonzero entry outside the pairs
    is a ValidationError, since the gather would drop it.
    """
    if not h.shape == charges.q1.shape == (2 * fp.n_fock, 2 * fp.n_fock):
        raise ValidationError(
            f"shape mismatch: H {h.shape}, charges {charges.q1.shape}, n_fock {fp.n_fock}"
        )
    idx = charges.pairs[:, :, None], charges.pairs[:, None, :]
    ops = (h, charges.q1, charges.q2, charges.q_plus, charges.q_minus, charges.grading)
    stacks = [m[idx] for m in ops]  # H, then the SuperchargeSet fields in order
    for name, m, stack in zip(("H", "q1", "q2", "q+", "q-", "grading"), ops, stacks):
        if np.count_nonzero(stack) != np.count_nonzero(m):
            raise ValidationError(
                f"{name} has entries outside the charges' spin-flip pairs"
            )
    stacked = SuperchargeSet(*stacks[1:], pairs=charges.pairs)
    return pair_algebra_report(stacks[0], stacked, fp)


def u_polaron(beta: float, fp: FockParams) -> np.ndarray:
    """The spin-conditioned displacement diagonalizing the linear coupling.

    U(beta) = {(s- - 1) s+ D(beta) + (s+ + 1) s- D(-beta)} / sqrt(2),
    with D(-beta) = D(beta)^dag, D read from transforms.displacement at
    each call.
    """
    d = transforms.displacement(beta, fp)
    spin_a = (S_MINUS - I2) @ S_PLUS
    spin_b = (S_PLUS + I2) @ S_MINUS
    return (kron(spin_a, d) + kron(spin_b, d.conj().T)) / math.sqrt(2.0)


def juddian_polynomial(n: int, g: float, delta: float) -> float:
    """Kus's P_n(g; delta), in units of the boson frequency, delta = omega_a/2.

    P_0 = 1, P_1 = 4g^2 + delta^2 - 1 and, for k = 2 .. n,
    P_k = (4kg^2 + delta^2 - k^2) P_{k-1} - 4k(k-1)(n-k+1) g^2 P_{k-2}.
    Where P_n(g) = 0 (n >= 1), E = n - g^2 + 1/2 is an exact level of
    the untruncated H(2 delta, 1, g, 0), the +1/2 being this package's
    omega_b (n + 1/2): level n of each parity chain, so an exact crossing
    with 2n levels below it.  Kus, J. Math. Phys. 26, 2792 (1985);
    Braak, PRL 107, 100401 (2011).
    """
    prev, cur = 0.0, 1.0
    for k in range(1, n + 1):
        prev, cur = cur, (
            (4 * k * g**2 + delta**2 - k**2) * cur - 4 * k * (k - 1) * (n - k + 1) * g**2 * prev
        )
    return cur


def juddian_points(
    omega_a: float, omega_b: float, c: float, n: int, g_max: float
) -> list[tuple[float, float]]:
    """Couplings g in (0, g_max] where H(omega_a, omega_b, g, c) has a Juddian level n.

    The squeeze that removes the A^2 term maps H onto the Rabi model
    H(omega_a, omega_g, g_tilde, 0), (omega_g, g_tilde) =
    renormalized_frequency(omega_b, c, g), exactly in the untruncated
    space.  In units omega_g = 1 that model has coupling g_tilde/omega_g
    and delta = omega_a/(2 omega_g), so each g is a root of
    juddian_polynomial there, bracketed by a sign change over 400 equal
    steps of (0, g_max] and refined by brentq to rounding; two roots
    within one step are missed.  Returns (g, E) pairs, E =
    omega_g (n - (g_tilde/omega_g)^2 + 1/2).
    """

    def frame(g):
        omega_g, g_tilde = renormalized_frequency(omega_b, c, g)
        return omega_g, g_tilde / omega_g, omega_a / (2.0 * omega_g)

    def p_n(g):
        return juddian_polynomial(n, *frame(g)[1:])

    grid = np.linspace(0.0, g_max, 401)[1:]
    values = [p_n(g) for g in grid]
    points = []
    for lo, hi, p_lo, p_hi in zip(grid, grid[1:], values, values[1:]):
        if p_lo * p_hi < 0.0:
            g = brentq(p_n, lo, hi, xtol=np.finfo(float).tiny, rtol=4 * np.finfo(float).eps)
            omega_g, x, _ = frame(g)
            points.append((g, omega_g * (n - x**2 + 0.5)))
    return points
