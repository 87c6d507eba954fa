"""Acceptance gate: one check per headline claim, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every tolerance here is pinned; nothing is tuned per run.

Criterion 6 (split part) checks that the A^2 term prevents level pairing
at strong coupling.  The qubit is the two-level approximation of a double
well, so the ground pair keeps the tunnelling split
omega*exp(-2*beta^2), beta = g_tilde/omega_g.  At g = 5*omega, C = 0.0377
the truncation-converged split matches that closed form to the
O((omega/omega_g)^2) next-order correction; it tends to omega only as
g -> infinity.  The C = 0 twin at the same coupling pairs up (split ~ 0).
"""

import math
import time

import numpy as np
import pytest

from susyrabi.fock import FockParams
from susyrabi.model import (
    ModelParams,
    Schedule,
    mass_increment,
    renormalized_frequency,
)
from susyrabi.output import emit_flow_csv
from susyrabi.spectral import (
    required_n_fock,
    goldstino_check,
    spectral_flow,
    truncation_convergence,
    witten_index,
)
from susyrabi.transforms import (
    a2_removal_report,
    field_identity_report,
    polaron_equivalence_report,
)

import oracle

OMEGA = 6.2832
G_MAX = 6.2832


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"criterion {criterion}: {'pass' if ok else 'FAIL'} ({detail})")
    return ok


def pair_ladder(spacing: float, k: int) -> np.ndarray:
    return np.sort(np.repeat(spacing * (np.arange(k) + 0.5), 2))[:k]


def test_criterion_01_free_susy_spectrum():
    t0 = time.monotonic()
    fp = FockParams(n_fock=128, buffer=32)
    vals = oracle.lowest_levels(oracle.hamiltonian(ModelParams(OMEGA, OMEGA, 0.0, 0.0), fp), 7)
    elapsed = time.monotonic() - t0
    expected = np.array([0, 1, 1, 2, 2, 3, 3]) * OMEGA
    dev = float(np.max(np.abs(vals - expected)))
    ok = dev <= 1e-8 and elapsed < 1.0
    assert report("1", ok, f"max dev {dev:.2e}, {elapsed:.2f}s")


def test_criterion_02_broken_spectrum():
    fp = FockParams(n_fock=128, buffer=32)
    vals = oracle.lowest_levels(oracle.hamiltonian(ModelParams(0.0, OMEGA, 0.0, 0.0), fp), 6)
    dev = float(np.max(np.abs(vals - pair_ladder(OMEGA, 6))))
    ok = dev <= 1e-8 and vals[0] > 0
    assert report("2", ok, f"max dev {dev:.2e}, ground {vals[0]:.4f} > 0")


def test_criterion_03_susy_algebra_suite():
    t0 = time.monotonic()
    fp = FockParams(n_fock=256, buffer=64)
    h_free = oracle.hamiltonian(ModelParams(OMEGA, OMEGA, 0.0, 0.0), fp)
    h_broken = oracle.hamiltonian(ModelParams(0.0, OMEGA, 0.0, 0.0), fp)
    free, free_vacuum = oracle.susy_algebra_report(
        h_free, oracle.free_supercharges(OMEGA, fp), fp)
    broken, broken_vacuum = oracle.susy_algebra_report(
        h_broken, oracle.broken_supercharges(OMEGA, fp), fp)
    worst = max(*free.values(), *broken.values())
    vac_free = max(free_vacuum)
    target = math.sqrt(OMEGA / 2.0)
    vac_broken = max(abs(v - target) for v in broken_vacuum)
    elapsed = time.monotonic() - t0
    ok = (worst <= 1e-10 and vac_free <= 1e-8 and vac_broken <= 1e-6
          and elapsed < 10.0)
    assert report(
        "3",
        ok,
        f"worst residual {worst:.2e}, vacuums {vac_free:.2e}/{vac_broken:.2e}, "
        f"{elapsed:.1f}s",
    )


@pytest.mark.parametrize("c", [0.0, 0.2513])
def test_criterion_04_witten_index_transition(c):
    fp = FockParams(n_fock=256, buffer=64)
    s = Schedule(omega=OMEGA, g_max=G_MAX, c=c)
    beta = 5.0 / OMEGA
    w0 = witten_index(oracle.graded_levels(oracle.h_total_r(s, 0.0, fp)), beta).index_value
    w1 = witten_index(oracle.graded_levels(oracle.h_total_r(s, 1.0, fp)), beta).index_value
    ok = abs(w0 - 1.0) <= 1e-3 and abs(w1) <= 1e-3
    assert report(f"4 (C={c})", ok, f"index {w0:.6f} -> {w1:.6f}")


@pytest.mark.parametrize(
    "c, tol_of_spacing",
    [(0.0, None), (0.2513, 1e-4)],  # None: absolute 1e-3
)
def test_criterion_05_interpolation_sweep_endpoints(c, tol_of_spacing):
    t0 = time.monotonic()
    fp = FockParams(n_fock=256, buffer=64)
    s = Schedule(omega=OMEGA, g_max=G_MAX, c=c)
    grid = np.linspace(0.0, 1.0, 51)
    flow = spectral_flow(grid, [s.params(r) for r in grid], "r_sweep", 7, fp)
    spacing = s.omega_g(1.0)
    target = pair_ladder(spacing, 7)
    dev = float(np.max(np.abs(flow.tables[-1].energies - target)))
    tol = 1e-3 if tol_of_spacing is None else tol_of_spacing * spacing
    elapsed = time.monotonic() - t0
    ok = dev <= tol and elapsed < 120.0
    assert report(
        f"5 (C={c})", ok,
        f"endpoint spacing {spacing:.4f}, max dev {dev:.2e} <= {tol:.1e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_06_no_level_pairing_split():
    c, g = 0.0377, 5.0 * OMEGA
    n = required_n_fock(OMEGA, c, g, n_min=256)
    fp = FockParams(n_fock=n, buffer=64)
    rep = truncation_convergence(
        lambda fp: oracle.lowest_levels(oracle.sweep_hamiltonian_g(OMEGA, c, g, fp), 2), 1e-9, fp
    )
    split = float(rep.energies[1] - rep.energies[0])
    omega_g, g_tilde = renormalized_frequency(OMEGA, c, g)
    closed_form = OMEGA * math.exp(-2.0 * (g_tilde / omega_g) ** 2)
    rel = (split - closed_form) / closed_form
    vals_c0 = oracle.lowest_levels(oracle.sweep_hamiltonian_g(OMEGA, 0.0, g, fp), 2)
    split_c0 = float(vals_c0[1] - vals_c0[0])
    # 1e-2 covers the O((omega/omega_g)^2) correction to the leading-order
    # polaron split, measured at -7.2e-3 here.
    ok = abs(rel) <= 1e-2 and split > 0.5 * OMEGA and split_c0 <= 1e-8 * OMEGA
    assert report(
        "6 (split)", ok,
        f"ground pair split {split:.6f} vs omega*exp(-2 beta^2) "
        f"{closed_form:.6f}, rel {rel:.2e}, n* {rep.n_star}, "
        f"C=0 split {split_c0:.1e}",
    )


def test_criterion_06_self_energy_saturation():
    c, g = 0.0377, 100.0
    omega_g, g_tilde = renormalized_frequency(OMEGA, c, g)
    self_energy = g_tilde**2 / omega_g
    limit = 1.0 / (4.0 * c)
    rel = abs(self_energy - limit) / limit
    ok = rel <= 1e-2
    assert report(
        "6 (self-energy)", ok,
        f"{self_energy:.4f} vs limit {limit:.4f}, rel {rel:.2e}",
    )


@pytest.mark.parametrize("c", [0.628, 1.257])
def test_criterion_07_mass_enhanced_ground_energy(c):
    s = Schedule(omega=OMEGA, g_max=G_MAX, c=c)
    rep = truncation_convergence(
        lambda fp: oracle.lowest_levels(oracle.h_total_r(s, 1.0, fp), 7),
        1e-6,
        FockParams(n_fock=64, buffer=16),
    )
    expected = s.omega_g(1.0) / 2.0
    rel = abs(rep.energies[0] - expected) / expected
    ok = rel <= 1e-3
    assert report(
        f"7 (C={c})", ok,
        f"ground {rep.energies[0]:.4f} vs {expected:.4f}, rel {rel:.2e}, "
        f"n* {rep.n_star}",
    )


def test_criterion_08_transform_identities():
    fp_squeeze = FockParams(n_fock=384, buffer=96)
    fp = FockParams(n_fock=256, buffer=64)
    worst_a2 = max(
        a2_removal_report(ModelParams(OMEGA, OMEGA, G_MAX, c), fp_squeeze)
        for c in (0.2513, 0.628, 1.257)
    )
    polaron = polaron_equivalence_report(OMEGA, OMEGA, G_MAX, fp)
    worst_field = max(
        field_identity_report(Schedule(omega=OMEGA, g_max=G_MAX, c=c), r, fp)
        for c in (0.0, 0.2513, 0.628, 1.257)
        for r in (0.5, 1.0)
    )
    ok = worst_a2 <= 1e-6 and polaron <= 1e-7 and worst_field <= 1e-8
    assert report(
        "8", ok,
        f"frequency-shift {worst_a2:.2e}, polaron {polaron:.2e}, "
        f"field rewriting {worst_field:.2e}",
    )


def test_criterion_09_mass_increment_consistency():
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for _ in range(100):
        omega = rng.uniform(0.1, 50.0)
        c = rng.uniform(0.0, 5.0)
        g = rng.uniform(0.0, 50.0)
        omega_g, _ = renormalized_frequency(omega, c, g)
        dm = mass_increment(omega, c, g)
        worst = max(worst, abs(omega_g**2 - (omega**2 + dm**2)) / omega_g**2)
    ok = worst <= 1e-12
    assert report("9", ok, f"worst rel defect {worst:.2e} over 100 samples")


def test_criterion_10_goldstino_relation():
    rep = goldstino_check(OMEGA, FockParams(n_fock=128, buffer=32))
    worst = max(rep.residual_plus, rep.residual_minus)
    ok = worst <= 1e-10 and rep.energy_increment <= 1e-10
    assert report(
        "10", ok,
        f"residuals {rep.residual_plus:.1e}/{rep.residual_minus:.1e}, "
        f"increment {rep.energy_increment:.1e}",
    )


def test_criterion_11_sweep_determinism(tmp_path):
    fp = FockParams(n_fock=256, buffer=64)
    s = Schedule(omega=OMEGA, g_max=G_MAX, c=0.2513)
    grid = np.linspace(0.0, 1.0, 51)
    points = [s.params(r) for r in grid]
    p_first = tmp_path / "first.csv"
    emit_flow_csv(spectral_flow(grid, points, "r_sweep", 7, fp), p_first)
    p_second = tmp_path / "second.csv"
    emit_flow_csv(spectral_flow(grid, points, "r_sweep", 7, fp), p_second)
    ok = p_first.read_bytes() == p_second.read_bytes()
    assert report("11", ok, "51-point sweep CSVs byte-identical across repeat runs")
