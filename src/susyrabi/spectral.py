"""Spectral flows, degeneracy grouping, Witten index and algebra reports.

Callers that need only the lowest levels (sweeps over r and g,
truncation convergence, the limit and no-go checks, and the CLI
spectrum and converge commands) build the Hamiltonian as its two parity
chains (model.ParityChains) and solve them with the banded core in
lowest_k.  The Witten index takes chains too: the grading -sz is
diagonal in the chain basis, so each level's expectation comes from its
real chain eigenvector.  The dense 2N x 2N builders stay as the
reference oracle for both and serve the checks that need operator
products: the algebra reports, whose residuals are measured on the
interior index set of fock.interior_projector.

Sweep grid points are evaluated serially in grid order.  The
SUSYRABI_WORKERS environment variable is still validated at sweep
entry, but it no longer schedules anything.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidBetaError, TruncationError, ValidationError
from .fock import FockParams, basis_state, interior_projector
from .linalg import banded_eigh, banded_lowest, hermitian_eigs, projected_norm
from .model import (
    ModelParams,
    ParityChains,
    Schedule,
    SuperchargeSet,
    broken_supercharges,
    hamiltonian,
    heavy_hamiltonian,
    parity_chains,
    parity_chains_r,
    renormalized_frequency,
)

DEGENERACY_TOL = 1e-6
WITTEN_TAIL_MAX = 1e-8
CONVERGENCE_N_CAP = 2048

WORKERS_ENV = "SUSYRABI_WORKERS"


def _check_workers_env() -> None:
    """Reject a malformed SUSYRABI_WORKERS; unset is fine.

    Sweeps run serially, so the value schedules nothing, but the README
    documents the variable and a bad value stays an input error.
    """
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            n = int(env)
        except ValueError as exc:
            raise ValidationError(f"{WORKERS_ENV} must be an integer, got {env!r}") from exc
        if n < 1:
            raise ValidationError(f"{WORKERS_ENV} must be >= 1, got {n}")


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
    meta: dict = field(default_factory=dict)


def lowest_k(h: np.ndarray | ParityChains, k: int) -> np.ndarray:
    """k smallest eigenvalues of H, ascending, multiplicity included.

    ParityChains take the banded core: each chain yields its lowest
    min(k, N) levels and the merged set is cut to k.  A dense matrix goes
    through a full eigendecomposition; that path is the reference oracle.
    """
    dim = h.dim if isinstance(h, ParityChains) else h.shape[0]
    if not 1 <= k <= dim:
        raise ValidationError(f"k={k} outside 1..{dim} (the matrix dimension)")
    if isinstance(h, ParityChains):
        m = min(k, h.n_fock)
        return np.sort(np.concatenate([banded_lowest(band, m) for band in h.bands]))[:k]
    return hermitian_eigs(h).values[:k]


def degeneracy_groups(
    energies: np.ndarray, tol_rel: float = DEGENERACY_TOL
) -> tuple[tuple[int, int], ...]:
    """Greedy grouping of ascending energies into near-degenerate clusters.

    Consecutive energies join a group while the gap stays below
    tol_rel * max(1, |E|); anchoring at max(1, |E|) makes the grouping
    invariant under constant energy shifts at fixed scale.
    """
    energies = np.asarray(energies, dtype=float)
    if energies.size == 0:
        return ()
    if np.any(np.diff(energies) < -1e-12 * max(1.0, np.max(np.abs(energies)))):
        raise ValidationError("energies must be ascending")
    groups: list[tuple[int, int]] = []
    start = 0
    for i in range(1, energies.size):
        gap = energies[i] - energies[i - 1]
        if gap > tol_rel * max(1.0, abs(energies[i])):
            groups.append((start, i - start))
            start = i
    groups.append((start, energies.size - start))
    return tuple(groups)


def _table(
    h: np.ndarray | ParityChains, k: int, fp: FockParams, tol_rel: float
) -> SpectrumTable:
    vals = lowest_k(h, k)
    return SpectrumTable(
        energies=vals,
        groups=degeneracy_groups(vals, tol_rel),
        n_fock_used=fp.n_fock,
    )


def spectral_flow_r(
    s: Schedule,
    grid: Sequence[float],
    k: int,
    fp: FockParams,
    tol_degeneracy: float = DEGENERACY_TOL,
) -> FlowResult:
    """Eigenvalue flow of H(r) over an increasing grid in [0, 1]."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or np.any(np.diff(grid) <= 0):
        raise ValidationError("grid must be non-empty and strictly increasing")
    if grid[0] < 0.0 or grid[-1] > 1.0:
        raise ValidationError("r grid must lie within [0, 1]")

    _check_workers_env()
    tables = tuple(
        _table(parity_chains_r(s, r, fp), k, fp, tol_degeneracy) for r in grid
    )
    return FlowResult(
        grid=grid,
        tables=tables,
        sweep_kind="r_sweep",
        meta={"schedule": s, "k": k, "fock": fp},
    )


def required_n_fock(omega: float, c: float, g: float, n_min: int = 8) -> int:
    """Smallest power-of-two truncation safely holding the displaced states.

    The polaron displacement is beta = g_tilde/omega_g; we keep
    beta^2 < N/8 with a power-of-two N.
    """
    omega_g, g_tilde = renormalized_frequency(omega, c, g) if g > 0 else (omega, 0.0)
    beta = g_tilde / omega_g if g > 0 else 0.0
    n = max(n_min, 8)
    while n < 8.0 * beta**2:
        n *= 2
    return n


def _self_energy_g(omega: float, c: float, g: float) -> float:
    """The coupling sweep's scalar shift g_tilde^2/omega(g); 0 at g = 0."""
    if g <= 0:
        return 0.0
    omega_g, g_tilde = renormalized_frequency(omega, c, g)
    return g_tilde**2 / omega_g


def sweep_hamiltonian_g(omega: float, c: float, g: float, fp: FockParams) -> np.ndarray:
    """H_Rabi(g) + c g^2 (a+a_dag)^2 + g_tilde^2/omega(g) at omega_a=omega_b=omega."""
    h = hamiltonian(ModelParams(omega, omega, g, c), fp)
    shift = _self_energy_g(omega, c, g)
    if shift != 0.0:
        h = h + shift * np.eye(fp.total_dim)
    return h


def _sweep_chains_g(omega: float, c: float, g: float, fp: FockParams) -> ParityChains:
    """sweep_hamiltonian_g as parity chains."""
    return parity_chains(
        ModelParams(omega, omega, g, c), fp, shift=_self_energy_g(omega, c, g)
    )


def spectral_flow_g(
    omega: float,
    c: float,
    g_grid: Sequence[float],
    k: int,
    fp: FockParams,
    tol_degeneracy: float = DEGENERACY_TOL,
    n_cap: int = CONVERGENCE_N_CAP,
) -> FlowResult:
    """Eigenvalue flow of the coupling sweep, raising truncation with g."""
    g_grid = np.asarray(g_grid, dtype=float)
    if g_grid.size == 0 or np.any(np.diff(g_grid) <= 0):
        raise ValidationError("g grid must be non-empty and strictly increasing")
    if g_grid[0] < 0.0:
        raise ValidationError("g values must be non-negative")

    def point(g: float) -> SpectrumTable:
        n_req = required_n_fock(omega, c, g, n_min=fp.n_fock)
        if n_req > n_cap:
            raise TruncationError(
                f"g={g} requires n_fock={n_req} (> cap {n_cap}); raise the cap "
                f"or reduce the coupling range"
            )
        fp_g = FockParams(n_fock=n_req, buffer=min(fp.buffer, n_req // 2))
        return _table(_sweep_chains_g(omega, c, g, fp_g), k, fp_g, tol_degeneracy)

    _check_workers_env()
    tables = tuple(point(g) for g in g_grid)
    return FlowResult(
        grid=g_grid,
        tables=tables,
        sweep_kind="g_sweep",
        meta={"omega": omega, "c": c, "k": k, "fock": fp},
    )


@dataclass(frozen=True)
class NoGoReport:
    """Strong-coupling comparison against the analytic limit pattern."""

    g: float
    c: float
    max_deviation: float
    self_energy: float
    self_energy_limit: float | None  # 1/(4c); None when c = 0
    target: np.ndarray


def no_go_asymptote_check(
    omega: float, c: float, g: float, k: int, fp: FockParams
) -> NoGoReport:
    """Compare the sweep spectrum at strong coupling with its limit.

    c = 0: target omega*(n+1/2) doubly degenerate (spontaneous breaking);
    c > 0: target omega(g)*(n+1/2) +/- omega/2 (explicit breaking).

    Both targets are g -> infinity limits.  At finite g with c > 0 the
    lowest pair is split by omega*exp(-2*beta^2), beta = g_tilde/omega(g),
    not by omega, so max_deviation is a sizeable fraction of omega there
    (0.17*omega at g = 5*omega, c = 0.2513); only a bound such as
    0.5*omega holds.
    """
    if g < 3.0 * omega:
        raise ValidationError(f"asymptote check needs g >= 3*omega, got g={g}")
    n_req = required_n_fock(omega, c, g, n_min=fp.n_fock)
    fp_g = FockParams(n_fock=n_req, buffer=min(fp.buffer, n_req // 2))
    vals = lowest_k(_sweep_chains_g(omega, c, g, fp_g), k)
    omega_g = renormalized_frequency(omega, c, g)[0]
    if c == 0.0:
        target = np.sort(np.repeat(omega * (np.arange(k) + 0.5), 2))[:k]
        limit = None
    else:
        ladder = omega_g * (np.arange(k) + 0.5)
        target = np.sort(np.concatenate([ladder - omega / 2, ladder + omega / 2]))[:k]
        limit = 1.0 / (4.0 * c)
    return NoGoReport(
        g=g,
        c=c,
        max_deviation=float(np.max(np.abs(vals - target))),
        self_energy=_self_energy_g(omega, c, g),
        self_energy_limit=limit,
        target=target,
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """Result of doubling the truncation until the low spectrum stabilizes."""

    n_star: int
    drift: float
    energies: np.ndarray
    converged: bool


def truncation_convergence(
    builder: Callable[[FockParams], np.ndarray | ParityChains],
    k: int,
    tol: float,
    fp0: FockParams,
    n_cap: int = CONVERGENCE_N_CAP,
) -> ConvergenceReport:
    """Double n_fock until the lowest k eigenvalues move by <= tol.

    n_star is the smallest truncation whose spectrum already agrees with
    the doubled one.  builder may return a dense matrix or ParityChains;
    lowest_k solves either.
    """
    if tol <= 0:
        raise ValidationError(f"tol must be > 0, got {tol}")
    n = fp0.n_fock
    fp = fp0
    prev = lowest_k(builder(fp), k)
    while True:
        n2 = 2 * n
        if n2 > n_cap:
            raise TruncationError(
                f"no convergence to tol={tol} below the n_fock cap {n_cap}"
            )
        fp2 = FockParams(n_fock=n2, buffer=min(fp0.buffer * n2 // fp0.n_fock, n2 // 2))
        cur = lowest_k(builder(fp2), k)
        drift = float(np.max(np.abs(cur - prev)))
        if drift <= tol:
            return ConvergenceReport(n_star=n, drift=drift, energies=prev, converged=True)
        n, fp, prev = n2, fp2, cur


@dataclass(frozen=True)
class WittenReport:
    """Regularized index tr(N_F exp(-beta H)) over the lowest levels."""

    beta: float
    index_value: float
    rounded: int
    truncation_tail: float


def _chain_graded_levels(h: ParityChains) -> tuple[np.ndarray, np.ndarray]:
    """All levels of both chains, ascending, with their -sz expectations.

    Chain 0 runs |up,0>, |down,1>, ..., so -sz is -(-1)^n on it and
    (-1)^n on chain 1; with real eigenvectors v the expectation of a
    level is sum_n g_n v_n^2.
    """
    sign = 1.0 - 2.0 * (np.arange(h.n_fock) % 2)
    values, expectations = [], []
    for grading, band in zip((-sign, sign), h.bands):
        ed = banded_eigh(band)
        values.append(ed.values)
        expectations.append(grading @ ed.vectors**2)
    order = np.argsort(np.concatenate(values), kind="stable")
    return np.concatenate(values)[order], np.concatenate(expectations)[order]


def witten_index(
    h: np.ndarray | ParityChains,
    grading: np.ndarray | None,
    beta: float,
    k: int = 60,
) -> WittenReport:
    """Sum of grading expectations weighted by Boltzmann factors.

    k is extended to the next degeneracy-group boundary so that the sum
    over each (near-)degenerate subspace is the basis-independent trace.
    ParityChains take the banded path with the grading -sz, which is
    diagonal in the chain basis, and grading must be None.  A dense h
    with its dense grading goes through a full eigendecomposition; that
    path is the reference oracle.
    """
    if beta <= 0:
        raise ValidationError(f"beta must be > 0, got {beta}")
    chains = isinstance(h, ParityChains)
    if chains != (grading is None):
        raise ValidationError("pass a dense grading with a dense h, and None with ParityChains")
    if chains:
        values, expectations = _chain_graded_levels(h)
    else:
        ed = hermitian_eigs(h)
        values = ed.values
    dim = values.size
    k = min(k, dim)
    groups = degeneracy_groups(values, DEGENERACY_TOL)
    for start, size in groups:
        if start < k < start + size:
            k = min(start + size, dim)
    tail = float(math.exp(-beta * values[k - 1]))
    if tail > WITTEN_TAIL_MAX:
        raise InvalidBetaError(
            f"Boltzmann tail {tail:.3e} at level {k - 1} exceeds {WITTEN_TAIL_MAX}; "
            f"increase beta or k"
        )
    if chains:
        expectations = expectations[:k]
    else:
        vecs = ed.vectors[:, :k]
        expectations = np.real(np.einsum("ij,ik,kj->j", vecs.conj(), grading, vecs))
    value = float(np.sum(expectations * np.exp(-beta * values[:k])))
    return WittenReport(
        beta=beta,
        index_value=value,
        rounded=int(round(value)),
        truncation_tail=tail,
    )


@dataclass(frozen=True)
class AlgebraReport:
    """Residuals of the SUSY algebra identities on the interior.

    Residuals are relative to max(1, |H|_2).  vacuum_annihilation holds
    sqrt(|q+ v|^2 + |q- v|^2) per numerically found ground state, which is
    basis-independent within a degenerate ground pair.
    """

    variant: str
    anticommutator: dict[str, float]  # "11", "12", "22"
    commutator_with_h: dict[str, float]  # "1", "2"
    anticommutator_with_grading: dict[str, float]  # "1", "2"
    nilpotency: dict[str, float]  # "plus", "minus"
    vacuum_annihilation: tuple[float, ...]
    passed: bool


def susy_algebra_report(
    h: np.ndarray,
    charges: SuperchargeSet,
    fp: FockParams,
    tol_algebra: float = 1e-10,
) -> AlgebraReport:
    """Measure every defining identity of the N=2 algebra against h."""
    if h.shape != charges.q1.shape:
        raise ValidationError(f"shape mismatch: H {h.shape}, charges {charges.q1.shape}")
    p = interior_projector(fp)
    ed = hermitian_eigs(h)
    scale = max(1.0, float(np.max(np.abs(ed.values))))

    def rel(m: np.ndarray) -> float:
        return projected_norm(m, p) / scale

    q = {"1": charges.q1, "2": charges.q2}
    anti = {
        "11": rel(2.0 * charges.q1 @ charges.q1 - h),
        "22": rel(2.0 * charges.q2 @ charges.q2 - h),
        "12": rel(charges.q1 @ charges.q2 + charges.q2 @ charges.q1),
    }
    comm = {name: rel(qi @ h - h @ qi) for name, qi in q.items()}
    grading = {
        name: rel(qi @ charges.grading + charges.grading @ qi) for name, qi in q.items()
    }
    nil = {
        "plus": rel(2.0 * charges.q_plus @ charges.q_plus),
        "minus": rel(2.0 * charges.q_minus @ charges.q_minus),
    }

    ground = degeneracy_groups(ed.values, DEGENERACY_TOL)[0]
    vac_norms = []
    for i in range(ground[0], ground[0] + ground[1]):
        v = ed.vectors[:, i]
        vac_norms.append(
            float(
                math.sqrt(
                    np.linalg.norm(charges.q_plus @ v) ** 2
                    + np.linalg.norm(charges.q_minus @ v) ** 2
                )
            )
        )
    passed = all(
        r <= tol_algebra
        for d in (anti, comm, grading, nil)
        for r in d.values()
    )
    return AlgebraReport(
        variant=charges.variant,
        anticommutator=anti,
        commutator_with_h=comm,
        anticommutator_with_grading=grading,
        nilpotency=nil,
        vacuum_annihilation=tuple(vac_norms),
        passed=passed,
    )


@dataclass(frozen=True)
class GoldstinoReport:
    """Eigen-relation residuals for supercharge excitations of the vacuums."""

    residual_plus: float
    residual_minus: float
    energy_increment: float


def goldstino_check(omega: float, fp: FockParams) -> GoldstinoReport:
    """Check H Q+|down,0> = (omega/2) Q+|down,0> and the sigma_x partner.

    The excitation energy equals the vacuum energy: zero energy increment.
    """
    h = hamiltonian(ModelParams(0.0, omega, 0.0, 0.0), fp)
    charges = broken_supercharges(omega, fp)
    e0 = omega / 2.0

    def eigen_residual(vec: np.ndarray) -> tuple[float, float]:
        norm = np.linalg.norm(vec)
        res = float(np.linalg.norm(h @ vec - e0 * vec))
        energy = float(np.real(vec.conj() @ h @ vec) / norm**2)
        return res, energy

    exc_plus = charges.q_plus @ basis_state("down", 0, fp)
    exc_minus = charges.q_minus @ basis_state("up", 0, fp)
    res_p, energy_p = eigen_residual(exc_plus)
    res_m, energy_m = eigen_residual(exc_minus)
    increment = max(abs(energy_p - e0), abs(energy_m - e0))
    return GoldstinoReport(
        residual_plus=res_p, residual_minus=res_m, energy_increment=increment
    )


@dataclass(frozen=True)
class LimitReport:
    """Comparison of the r=1 spectrum with the heavy-boson ladder."""

    max_deviation: float
    ground_energy: float
    omega_g: float
    groups_r0: tuple[int, ...]
    groups_r1: tuple[int, ...]


def limit_check(
    s: Schedule,
    fp: FockParams,
    k: int = 8,
    tol_degeneracy: float = DEGENERACY_TOL,
    pair_tol: float | None = None,
) -> LimitReport:
    """Compare lowest_k(H(1)) against the analytic omega_g*(n+1/2) ladder.

    pair_tol, when given, is the looser grouping tolerance for the r=1
    endpoint (the c=0 cat-state pairs split only exponentially).
    """
    vals_r1 = lowest_k(parity_chains_r(s, 1.0, fp), k)
    target = lowest_k(heavy_hamiltonian(s, fp), k)
    vals_r0 = lowest_k(parity_chains_r(s, 0.0, fp), k)
    groups_r0 = tuple(size for _, size in degeneracy_groups(vals_r0, tol_degeneracy))
    groups_r1 = tuple(
        size
        for _, size in degeneracy_groups(vals_r1, pair_tol or tol_degeneracy)
    )
    return LimitReport(
        max_deviation=float(np.max(np.abs(vals_r1 - target))),
        ground_energy=float(vals_r1[0]),
        omega_g=s.omega_g(1.0),
        groups_r0=groups_r0,
        groups_r1=groups_r1,
    )
