"""Spectral flows, degeneracy grouping, Witten index and algebra reports.

The spectrum paths (the sweeps over r and g, the spectrum command, and
truncation convergence) solve the Hamiltonian in the squeezed frame
without the A^2 term, as its two tridiagonal parity chains
(model.squeezed_chains), with the banded core in lowest_k.  A
Hamiltonian point is one model.ModelParams, self-energy shift included
(Schedule.params(r) on the r path, sweep_params_g on the coupling
sweep).  spectral_flow takes one point per grid value, for either sweep
or for spectrum's single r, and solves each at required_n_fock's
truncation for it (point_fock: replace(fp, n_fock=n), up to
CONVERGENCE_N_CAP, read at each call), serially in grid order.  The
Witten index takes the levels of the same chains graded by -sz, which
the squeeze leaves alone (graded_levels).  witten_index and
truncation_convergence take levels, not H, so the tests also feed them
those of their own 2N x 2N reference matrices.  The algebra reports and
the goldstino check take H and the charges as the (N, 2, 2) stacks of
their spin-flip pairs (model.charge_pairs), so every product is a
batched 2 x 2 one and every block norm a closed-form one, O(N) in all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidBetaError, TruncationError, ValidationError
from .fock import FockParams
from .linalg import banded_eigh, banded_lowest
from .model import (
    ModelParams,
    SuperchargeSet,
    chain_sz,
    charge_pairs,
    renormalized_frequency,
    self_energy,
    squeezed_chains,
)

DEGENERACY_TOL = 1e-6
WITTEN_TAIL_MAX = 1e-8
CONVERGENCE_N_CAP = 2048


@dataclass(frozen=True)
class SpectrumTable:
    """Lowest-k eigenvalues (multiplicity included) with degeneracy groups."""

    energies: np.ndarray
    groups: tuple[tuple[int, int], ...]  # (start_index, size)
    n_fock_used: int
    converged: bool = False


@dataclass(frozen=True)
class FlowResult:
    """One spectrum table per grid point of an r- or g-sweep."""

    grid: np.ndarray
    tables: tuple[SpectrumTable, ...]
    sweep_kind: str  # "r_sweep" | "g_sweep"


def lowest_k(h: np.ndarray, k: int) -> np.ndarray:
    """k smallest eigenvalues of H, ascending, multiplicity included.

    h is H's two parity chains, a (2, rows, N) band array as
    model.parity_chains gives it, and H has dimension 2N.  The chains are
    merged lazily.  Each first yields its lowest m = ceil(k/2) levels; x
    is the k-th smallest of those 2m.  Every level not yet solved lies at or
    above the last solved level of its chain, so a chain whose last
    level is >= x can add nothing below x, and ties at x do not change
    the sorted values.  A chain whose last level is < x is extended to
    its lowest min(k, N) levels, which holds all of its levels below the
    k-th of the merge.  At most one chain is ever extended, since the
    larger of the two m-th levels is >= x.  Equal chains (as where
    omega_a = 0, at r = 1) are solved once: each then holds the m-th
    level x itself, so neither is extended.
    """
    n = h.shape[-1]
    if not 1 <= k <= 2 * n:
        raise ValidationError(f"k={k} outside 1..{2 * n} (the matrix dimension)")
    m, m_full = (k + 1) // 2, min(k, n)
    levels = [banded_lowest(h[0], m)]
    levels.append(levels[0] if np.array_equal(h[0], h[1]) else banded_lowest(h[1], m))
    x = np.sort(np.concatenate(levels))[k - 1]
    for i, band in enumerate(h):
        if m < m_full and levels[i][-1] < x:
            levels[i] = np.concatenate([levels[i], banded_lowest(band, m_full, start=m)])
    return np.sort(np.concatenate(levels))[:k]


def degeneracy_groups(
    energies: np.ndarray, tol_rel: float = DEGENERACY_TOL
) -> tuple[tuple[int, int], ...]:
    """Greedy grouping of ascending energies into near-degenerate clusters.

    Consecutive energies join a group while the gap stays below
    tol_rel * max(1, |E|) (_group_end); anchoring at max(1, |E|) makes
    the grouping invariant under constant energy shifts at fixed scale.
    """
    energies = np.asarray(energies, dtype=float)
    if energies.size == 0:
        return ()
    if np.any(np.diff(energies) < -1e-12 * max(1.0, np.max(np.abs(energies)))):
        raise ValidationError("energies must be ascending")
    values = energies.tolist()
    groups: list[tuple[int, int]] = []
    start = 0
    while start < len(values):
        end = _group_end(values, start + 1, tol_rel)
        groups.append((start, end - start))
        start = end
    return tuple(groups)


def _group_end(values: Sequence[float], i: int, tol: float = DEGENERACY_TOL) -> int:
    """End of the degeneracy group holding level i - 1 (i >= 1) of ascending values.

    The first j >= i with values[j] - values[j-1] > tol * max(1, |values[j]|),
    else len(values): the one rule by which levels join a group.
    """
    for j in range(i, len(values)):
        if values[j] - values[j - 1] > tol * max(1.0, abs(values[j])):
            return j
    return len(values)


def required_n_fock(omega: float, c: float, g: float, n_min: int = 8) -> int:
    """Smallest truncation n_min * 2^k safely holding the displaced states.

    The polaron displacement is beta = g_tilde/omega_g; we keep
    beta^2 < N/8, doubling N from max(n_min, 8) until that holds, so
    n_min = 100 gives 100, 200, 400, ...  Doubling stops at the first N
    past CONVERGENCE_N_CAP, which says only that the point needs more.
    """
    omega_g, g_tilde = renormalized_frequency(omega, c, g)
    beta = g_tilde / omega_g
    n = max(n_min, 8)
    while n < 8.0 * beta * beta and n <= CONVERGENCE_N_CAP:
        n *= 2
    return n


def sweep_params_g(omega: float, c: float, g: float) -> ModelParams:
    """The coupling sweep's point (omega, omega, g, c), shifted by self_energy(omega, c, g)."""
    return ModelParams(omega, omega, g, c, shift=self_energy(omega, c, g))


def point_fock(p: ModelParams, fp: FockParams) -> FockParams:
    """fp with n_fock = required_n_fock for the point p, from fp.n_fock up.

    fp itself where the point needs no more levels; an n_fock above
    CONVERGENCE_N_CAP is a TruncationError.  The size reads only p's
    omega_b, c and g, never its shift.
    """
    n_req = required_n_fock(p.omega_b, p.c, p.g, n_min=fp.n_fock)
    if n_req > CONVERGENCE_N_CAP:
        raise TruncationError(
            f"g={p.g} requires n_fock above the cap {CONVERGENCE_N_CAP}; reduce the coupling range"
        )
    return fp if n_req == fp.n_fock else replace(fp, n_fock=n_req)


def spectral_flow(
    grid: Sequence[float],
    points: Sequence[ModelParams],
    sweep_kind: str,
    k: int,
    fp: FockParams,
    tol_degeneracy: float = DEGENERACY_TOL,
) -> FlowResult:
    """The lowest k levels of each point, grouped at tol_degeneracy, over its grid.

    points[i] is the Hamiltonian point at grid[i], a strictly increasing,
    non-empty grid.  Each point is solved on its squeezed chains at
    point_fock's truncation, which its table's n_fock_used records.
    Every point is sized before any chain is built, so a grid with a
    point that needs more than CONVERGENCE_N_CAP levels is a
    TruncationError, for its first such point, at once.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or np.any(np.diff(grid) <= 0) or len(points) != grid.size:
        raise ValidationError(
            "grid must be non-empty and strictly increasing, with one point per value")
    sizes = [point_fock(p, fp) for p in points]
    tables = []
    for p, fp_p in zip(points, sizes):
        vals = lowest_k(squeezed_chains(p, fp_p), k)
        tables.append(SpectrumTable(vals, degeneracy_groups(vals, tol_degeneracy), fp_p.n_fock))
    return FlowResult(grid=grid, tables=tuple(tables), sweep_kind=sweep_kind)


@dataclass(frozen=True)
class ConvergenceReport:
    """Result of doubling the truncation until the low spectrum stabilizes.

    n_star is the first of fp0.n_fock, 2 fp0.n_fock, 4 fp0.n_fock, ...
    whose lowest levels agree with those of its own double: a floor set
    by the configured truncation, not the smallest truncation that has
    converged, which may lie below fp0.n_fock.  energies are the levels
    at n_star and drift their largest move on doubling it.  It is only
    made once the levels have converged: every other outcome of
    truncation_convergence is a TruncationError.
    """

    n_star: int
    drift: float
    energies: np.ndarray


def truncation_convergence(
    levels: Callable[[FockParams], np.ndarray], tol: float, fp0: FockParams
) -> ConvergenceReport:
    """Double n_fock until the lowest levels, levels(fp), move by <= tol.

    Only the doublings of fp0.n_fock are tried, so n_star is the first of
    them whose levels agree with those of its own double, never below
    fp0.n_fock, even where a smaller truncation would already agree (see
    ConvergenceReport).  Each doubling calls levels at fp0 with only
    n_fock changed; each call gives equally many levels, ascending.  A
    doubling past CONVERGENCE_N_CAP is a TruncationError.
    """
    if tol <= 0:
        raise ValidationError(f"tol must be > 0, got {tol}")
    n = fp0.n_fock
    prev = levels(fp0)
    while True:
        n2 = 2 * n
        if n2 > CONVERGENCE_N_CAP:
            raise TruncationError(
                f"no convergence to tol={tol} below the n_fock cap {CONVERGENCE_N_CAP}"
            )
        cur = levels(replace(fp0, n_fock=n2))
        drift = float(np.max(np.abs(cur - prev)))
        if drift <= tol:
            return ConvergenceReport(n_star=n, drift=drift, energies=prev)
        n, prev = n2, cur


@dataclass(frozen=True)
class WittenReport:
    """Regularized index tr(N_F exp(-beta H)) over the lowest levels."""

    beta: float
    index_value: float
    rounded: int
    truncation_tail: float


def graded_levels(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All levels of h, ascending, with their -sz expectations.

    The grading -sz is diagonal on each chain (model.chain_sz); with
    real eigenvectors v the expectation of a level is sum_n g_n v_n^2.
    The chains must be tridiagonal, as squeezed_chains are: banded_eigh,
    which solves each, raises DimensionError on wider bands.  Equal
    chains (as at r = 1) are solved once, each graded by its own -sz.
    Each chain's eigenvectors are squared in place and dropped before the next solve.
    """
    values, expectations = [], []
    for grading, band in zip(-chain_sz(h.shape[-1]), h):
        if not values or not np.array_equal(band, h[0]):
            squares = None  # the first chain's, freed before the second solve
            vals, squares = banded_eigh(band)
            squares **= 2
        values.append(vals)
        expectations.append(grading @ squares)
    order = np.argsort(np.concatenate(values), kind="stable")
    return np.concatenate(values)[order], np.concatenate(expectations)[order]


def witten_index(levels: tuple[np.ndarray, np.ndarray], beta: float, k: int = 60) -> WittenReport:
    """Sum of the -sz expectations of the lowest k levels, Boltzmann-weighted.

    levels is (values, expectations), every level ascending with its -sz
    expectation, as graded_levels gives them.  k is extended to the end
    of the degeneracy group it splits (_group_end), so the sum over each
    (near-)degenerate subspace is the basis-independent trace.  A beta
    that is not finite and > 0, or a k below 1, is a ValidationError.
    """
    if not (math.isfinite(beta) and beta > 0):
        raise ValidationError(f"beta must be finite and > 0, got {beta}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    values, expectations = levels
    k = _group_end(values, min(k, values.size))
    # Where beta E overflows, exp(-inf) = 0 is the right weight.
    with np.errstate(over="ignore"):
        weights = np.exp(-beta * values[:k])
    tail = float(weights[-1])
    if tail > WITTEN_TAIL_MAX:
        raise InvalidBetaError(
            f"Boltzmann tail {tail:.3e} at level {k - 1} exceeds {WITTEN_TAIL_MAX}; "
            f"increase beta or k"
        )
    value = float(np.sum(expectations[:k] * weights))
    return WittenReport(
        beta=beta,
        index_value=value,
        rounded=int(round(value)),
        truncation_tail=tail,
    )


def _pair_norms(m: np.ndarray) -> np.ndarray:
    """The largest singular value of each block of an (N, 2, 2) stack, in closed form.

    Each block M is scaled by s = max|M_ij| (a zero block stays zero) to
    B = M / s; with B^H B = [[p, r], [conj(r), q]] the larger singular
    value of B is sqrt((p + q)/2 + hypot((p - q)/2, |r|)), a sum of
    non-negative terms.  The scaling keeps p, q and |r| at most 2, so no
    square overflows, and one underflows only where an entry is below
    rounding relative to the largest.  Real and imaginary parts are
    divided by s apart: a complex division by a subnormal s forms 1/s,
    which overflows.
    """
    s = np.abs(m).max(axis=(1, 2))
    scale = np.where(s > 0.0, s, 1.0)[:, None, None]
    b = m.real / scale
    if np.iscomplexobj(m):
        b = b + 1j * (m.imag / scale)
    sq = np.abs(b) ** 2
    p = sq[:, 0, 0] + sq[:, 1, 0]
    q = sq[:, 0, 1] + sq[:, 1, 1]
    r = np.abs(b[:, 0, 0].conj() * b[:, 0, 1] + b[:, 1, 0].conj() * b[:, 1, 1])
    return s * np.sqrt((p + q) / 2.0 + np.hypot((p - q) / 2.0, r))


def pair_algebra_report(
    h: np.ndarray,
    charges: SuperchargeSet,
    fp: FockParams,
) -> tuple[dict[str, float], tuple[float, ...]]:
    """Measure every defining identity of the N=2 algebra against h, on the pairs.

    h and the charges are (N, 2, 2) stacks on charges.pairs, as
    model.charge_pairs gives them, so every product is a batched 2 x 2
    one, O(N) in all.  One batched eigh of the h stack gives the scale
    max(1, |H|_2) and the ground states, each on its own pair.  A
    residual is the largest singular value of its blocks, relative to
    that scale, with the rows and columns outside the interior zeroed:
    the interior is boson levels 0 .. N - buffer - 1 of both spins, and
    each block's norm is in closed form (_pair_norms).  An interior that
    reaches boson level N - 1 (buffer 0) is a TruncationError: there the
    truncated ladder breaks the algebra itself, as the free set's
    |up, N-1> has 2 q1^2 = 0 but H = omega N.

    Returns (residuals, vacuum).  residuals maps verify's row suffix of
    each identity ({q_i, q_j} = 2 H delta_ij, [q_i, H] = 0,
    {q_i, -sz} = 0, q+/-^2 = 0), in row order, to its residual.  vacuum
    holds sqrt(|q+ v|^2 + |q- v|^2) per numerically found ground state v,
    which is basis-independent within a degenerate ground pair.
    """
    if not h.shape == charges.q1.shape == (fp.n_fock, 2, 2):
        raise ValidationError(f"pair stacks {h.shape}, {charges.q1.shape}, n_fock {fp.n_fock}")
    if fp.buffer == 0:
        raise TruncationError(
            f"buffer 0 puts boson level {fp.n_fock - 1}, the truncation corner, inside "
            f"the interior of the algebra checks at n_fock={fp.n_fock}; use buffer >= 1"
        )
    q1, q2, gr = charges.q1, charges.q2, charges.grading
    q_plus, q_minus = charges.q_plus, charges.q_minus

    values, vectors = np.linalg.eigh(h)
    values = values.ravel()
    order = np.argsort(values, kind="stable")
    scale = max(1.0, float(np.max(np.abs(values))))
    ground = order[: _group_end(values[order], 1)]
    vacuum = tuple(
        float(
            math.sqrt(
                np.linalg.norm(q_plus[j] @ vectors[j, :, i]) ** 2
                + np.linalg.norm(q_minus[j] @ vectors[j, :, i]) ** 2
            )
        )
        for j, i in zip(*np.divmod(ground, 2))
    )

    keep = charges.pairs % fp.n_fock < fp.n_fock - fp.buffer
    mask = keep[:, :, None] & keep[:, None, :]

    def rel(m: np.ndarray) -> float:
        return float(_pair_norms(m * mask).max()) / scale

    residuals = {
        "anticommutator.11": rel(2.0 * (q1 @ q1) - h),
        "anticommutator.22": rel(2.0 * (q2 @ q2) - h),
        "anticommutator.12": rel(q1 @ q2 + q2 @ q1),
        "commutator_with_h.1": rel(q1 @ h - h @ q1),
        "commutator_with_h.2": rel(q2 @ h - h @ q2),
        "grading.1": rel(q1 @ gr + gr @ q1),
        "grading.2": rel(q2 @ gr + gr @ q2),
        "nilpotency.plus": rel(2.0 * (q_plus @ q_plus)),
        "nilpotency.minus": rel(2.0 * (q_minus @ q_minus)),
    }
    return residuals, vacuum


@dataclass(frozen=True)
class GoldstinoReport:
    """Eigen-relation residuals for supercharge excitations of the vacuums."""

    residual_plus: float
    residual_minus: float
    energy_increment: float


def goldstino_check(omega: float, fp: FockParams) -> GoldstinoReport:
    """Check H Q+|down,0> = (omega/2) Q+|down,0> and the sigma_x partner.

    The excitation energy equals the vacuum energy: zero energy increment.
    Q+|down,0> and Q-|up,0> both lie in pair 0 of the broken charges,
    (|up,0>, |down,0>), so H and the charges act on them as the real
    2 x 2 blocks of that pair (model.charge_pairs), and H is applied once
    per excitation; only that pair is built, so no higher level
    omega (n + 1/2) can overflow.  Each excitation is normalized first, so
    its residual and Rayleigh quotient are of the order of omega and
    neither overflows nor underflows.  An omega whose vacuum energy
    omega/2 is zero or subnormal in float64 is a ValidationError: the
    excitations would be zero vectors, or the energies lose precision.
    """
    if not omega / 2.0 >= np.finfo(np.float64).tiny:
        raise ValidationError(
            f"omega = {omega}: the vacuum energy omega/2 is zero or subnormal in float64"
        )
    h, charges = charge_pairs("broken", omega, fp, n_pairs=1)
    h = h[0]
    e0 = omega / 2.0

    def eigen_residual(vec: np.ndarray) -> tuple[float, float]:
        vec = vec / np.linalg.norm(vec)
        h_vec = h @ vec
        return float(np.linalg.norm(h_vec - e0 * vec)), float(vec @ h_vec)

    res_p, energy_p = eigen_residual(charges.q_plus[0, :, 1])
    res_m, energy_m = eigen_residual(charges.q_minus[0, :, 0])
    increment = max(abs(energy_p - e0), abs(energy_m - e0))
    return GoldstinoReport(
        residual_plus=res_p, residual_minus=res_m, energy_increment=increment
    )
