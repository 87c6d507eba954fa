"""Spectral flows, degeneracy grouping, Witten index, algebra reports."""

import numpy as np
import pytest

from susyrabi.errors import InvalidBetaError, TruncationError, ValidationError
from susyrabi.fock import FockParams
from susyrabi.model import (
    ModelParams,
    Schedule,
    broken_supercharges,
    free_supercharges,
    h_total_r,
    hamiltonian,
    parity_chains_r,
)
from susyrabi.spectral import (
    degeneracy_groups,
    goldstino_check,
    limit_check,
    lowest_k,
    no_go_asymptote_check,
    required_n_fock,
    spectral_flow_g,
    spectral_flow_r,
    susy_algebra_report,
    sweep_hamiltonian_g,
    truncation_convergence,
    witten_index,
)

OMEGA = 6.2832


def test_lowest_k_orders_and_bounds(fp_small):
    h = np.diag([3.0, -1.0, 2.0]).astype(complex)
    np.testing.assert_allclose(lowest_k(h, 2), [-1.0, 2.0])
    for k in (4, 0, -1):
        with pytest.raises(ValidationError):
            lowest_k(h, k)


def test_degeneracy_groups_basic():
    e = np.array([0.0, 1.0, 1.0 + 1e-9, 2.5])
    assert degeneracy_groups(e, 1e-6) == ((0, 1), (1, 2), (3, 1))
    assert degeneracy_groups(np.array([5.0]), 1e-6) == ((0, 1),)
    assert degeneracy_groups(np.array([]), 1e-6) == ()


def test_degeneracy_groups_shift_invariance():
    e = np.array([0.0, 1e-8, 1.0, 2.0, 2.0 + 1e-8])
    base = degeneracy_groups(e, 1e-6)
    shifted = degeneracy_groups(e + 0.37, 1e-6)
    assert base == shifted == ((0, 2), (2, 1), (3, 2))


def test_degeneracy_groups_rejects_descending():
    with pytest.raises(ValidationError):
        degeneracy_groups(np.array([1.0, 0.0]))


def test_spectral_flow_r_structure(fp_mid):
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=0.0)
    grid = np.linspace(0.0, 1.0, 5)
    flow = spectral_flow_r(s, grid, 7, fp_mid)
    assert flow.sweep_kind == "r_sweep"
    assert len(flow.tables) == 5
    # r=0 endpoint: SUSY pattern 1,2,2,2 ; ground exactly zero.
    t0 = flow.tables[0]
    assert t0.energies[0] == pytest.approx(0.0, abs=1e-9)
    assert tuple(size for _, size in t0.groups) == (1, 2, 2, 2)


def test_spectral_flow_r_grid_validation(fp_small):
    s = Schedule(omega=OMEGA, g_max=OMEGA)
    with pytest.raises(ValidationError):
        spectral_flow_r(s, [0.5, 0.5], 3, fp_small)
    with pytest.raises(ValidationError):
        spectral_flow_r(s, [0.0, 1.2], 3, fp_small)
    with pytest.raises(ValidationError):
        spectral_flow_r(s, [], 3, fp_small)


def test_required_n_fock_grows_with_coupling():
    base = required_n_fock(OMEGA, 0.0, 0.0)
    strong = required_n_fock(OMEGA, 0.0, 5.0 * OMEGA)
    assert base == 8
    assert strong == 256
    # A positive A^2 coefficient tames the displacement.
    assert required_n_fock(OMEGA, 0.2513, 5.0 * OMEGA) <= strong
    # Power of two at or above the floor.
    assert required_n_fock(OMEGA, 0.0, 2.0, n_min=100) == 100


def test_spectral_flow_g_auto_truncation():
    fp = FockParams(n_fock=64, buffer=16)
    flow = spectral_flow_g(OMEGA, 0.0, [0.0, 2 * OMEGA, 5 * OMEGA], 6, fp)
    assert flow.sweep_kind == "g_sweep"
    # Truncation was raised for the strong-coupling points.
    assert flow.tables[0].n_fock_used == 64
    assert flow.tables[-1].n_fock_used == 256
    # g=0: SUSY pattern with zero ground energy.
    assert flow.tables[0].energies[0] == pytest.approx(0.0, abs=1e-9)
    # g = 5 omega: three quasi-degenerate pairs near omega*(n+1/2).
    vals = flow.tables[-1].energies
    assert abs(vals[1] - vals[0]) < 1e-4 * OMEGA
    target = np.repeat(OMEGA * (np.arange(3) + 0.5), 2)
    assert np.max(np.abs(vals - target)) < 1e-2 * OMEGA


def test_spectral_flow_g_cap():
    fp = FockParams(n_fock=64, buffer=16)
    with pytest.raises(TruncationError):
        spectral_flow_g(OMEGA, 0.0, [0.0, 500.0], 4, fp, n_cap=512)


def test_sweep_hamiltonian_g_includes_self_energy(fp_small):
    g = 2.0
    h = sweep_hamiltonian_g(OMEGA, 0.0, g, fp_small)
    bare = hamiltonian(ModelParams(OMEGA, OMEGA, g, 0.0), fp_small)
    shift = (h - bare)[0, 0].real
    assert shift == pytest.approx(g**2 / OMEGA, rel=1e-12)


def test_no_go_deviation_shrinks_with_coupling():
    fp = FockParams(n_fock=64, buffer=16)
    devs = [
        no_go_asymptote_check(OMEGA, 0.0, m * OMEGA, 6, fp).max_deviation
        for m in (3.0, 4.0, 5.0)
    ]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 1e-2 * OMEGA


def test_no_go_explicit_breaking_pattern():
    fp = FockParams(n_fock=64, buffer=16)
    rep = no_go_asymptote_check(OMEGA, 0.2513, 5.0 * OMEGA, 6, fp)
    assert rep.self_energy_limit == pytest.approx(1.0 / (4 * 0.2513))
    assert rep.self_energy < rep.self_energy_limit
    # The split ladder target is not doubly degenerate.
    assert rep.max_deviation < 0.5 * OMEGA
    with pytest.raises(ValidationError):
        no_go_asymptote_check(OMEGA, 0.0, OMEGA, 6, fp)


def test_truncation_convergence_reports_fixed_point():
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=0.628)
    rep = truncation_convergence(
        lambda fp: h_total_r(s, 1.0, fp), 7, 1e-6, FockParams(n_fock=32, buffer=8)
    )
    assert rep.converged
    assert rep.n_star <= 256
    assert rep.drift <= 1e-6
    # The converged ground energy is the renormalized half-quantum.
    assert rep.energies[0] == pytest.approx(s.omega_g(1.0) / 2.0, rel=1e-9)


def test_truncation_convergence_cap():
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=0.628)
    with pytest.raises(TruncationError):
        truncation_convergence(
            lambda fp: h_total_r(s, 1.0, fp), 7, 1e-16,
            FockParams(n_fock=32, buffer=8), n_cap=64,
        )


def test_witten_index_endpoints(fp_mid):
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=0.2513)
    grading = free_supercharges(OMEGA, fp_mid).grading
    beta = 5.0 / OMEGA
    unbroken = witten_index(h_total_r(s, 0.0, fp_mid), grading, beta)
    broken = witten_index(h_total_r(s, 1.0, fp_mid), grading, beta)
    assert unbroken.index_value == pytest.approx(1.0, abs=1e-6)
    assert unbroken.rounded == 1
    assert broken.index_value == pytest.approx(0.0, abs=1e-6)
    assert broken.rounded == 0
    assert unbroken.truncation_tail < 1e-8


def test_witten_index_free_oscillator_analytic(fp_mid):
    # For the free SUSY pair the index is exactly 1 at any valid beta:
    # every excited level cancels between the graded sectors.
    h = hamiltonian(ModelParams(OMEGA, OMEGA, 0.0, 0.0), fp_mid)
    grading = free_supercharges(OMEGA, fp_mid).grading
    for beta in (0.5, 1.0, 2.0):
        rep = witten_index(h, grading, beta)
        assert rep.index_value == pytest.approx(1.0, abs=1e-9)


def test_witten_index_beta_guards(fp_mid):
    h = hamiltonian(ModelParams(OMEGA, OMEGA, 0.0, 0.0), fp_mid)
    grading = free_supercharges(OMEGA, fp_mid).grading
    with pytest.raises(ValidationError):
        witten_index(h, grading, 0.0)
    with pytest.raises(InvalidBetaError):
        witten_index(h, grading, 1e-3, k=10)


def test_witten_index_chains_match_dense_endpoints(fp_mid):
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=0.2513)
    grading = free_supercharges(OMEGA, fp_mid).grading
    beta = 5.0 / OMEGA
    for r in (0.0, 1.0):
        dense = witten_index(h_total_r(s, r, fp_mid), grading, beta)
        chains = witten_index(parity_chains_r(s, r, fp_mid), None, beta)
        assert chains.index_value == pytest.approx(dense.index_value, abs=1e-12)
        assert chains.rounded == dense.rounded
        assert chains.truncation_tail == pytest.approx(dense.truncation_tail, rel=1e-9)
    # The chains carry their own grading; a dense h needs one.
    with pytest.raises(ValidationError):
        witten_index(parity_chains_r(s, 0.0, fp_mid), grading, beta)
    with pytest.raises(ValidationError):
        witten_index(h_total_r(s, 0.0, fp_mid), None, beta)


def test_algebra_report_free(fp_mid):
    h = hamiltonian(ModelParams(OMEGA, OMEGA, 0.0, 0.0), fp_mid)
    rep = susy_algebra_report(h, free_supercharges(OMEGA, fp_mid), fp_mid)
    assert rep.passed
    assert rep.variant == "free"
    for d in (rep.anticommutator, rep.commutator_with_h,
              rep.anticommutator_with_grading, rep.nilpotency):
        for v in d.values():
            assert v <= 1e-10
    # Unique SUSY vacuum, annihilated.
    assert rep.vacuum_annihilation == (pytest.approx(0.0, abs=1e-8),)


def test_algebra_report_broken(fp_mid):
    h = hamiltonian(ModelParams(0.0, OMEGA, 0.0, 0.0), fp_mid)
    rep = susy_algebra_report(h, broken_supercharges(OMEGA, fp_mid), fp_mid)
    assert rep.passed
    # Two degenerate vacuums, neither annihilated; the combined charge
    # norm sqrt(|Q+ v|^2 + |Q- v|^2) is basis-independent in the pair.
    assert len(rep.vacuum_annihilation) == 2
    target = np.sqrt(OMEGA / 2.0)
    for v in rep.vacuum_annihilation:
        assert v == pytest.approx(target, abs=1e-6)


def test_algebra_report_detects_wrong_pairing(fp_mid):
    h_wrong = hamiltonian(ModelParams(0.0, OMEGA, 0.0, 0.0), fp_mid)
    rep = susy_algebra_report(h_wrong, free_supercharges(OMEGA, fp_mid), fp_mid)
    assert not rep.passed
    assert rep.anticommutator["11"] > 1e-3


def test_goldstino_zero_energy_excitations(fp_mid):
    rep = goldstino_check(OMEGA, fp_mid)
    assert rep.residual_plus <= 1e-10
    assert rep.residual_minus <= 1e-10
    assert rep.energy_increment <= 1e-10


def test_limit_check_pairing_structure():
    fp = FockParams(n_fock=256, buffer=64)
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=0.2513)
    rep = limit_check(s, fp, k=6)
    assert rep.max_deviation < 1e-4 * rep.omega_g
    assert rep.ground_energy == pytest.approx(rep.omega_g / 2.0, rel=1e-6)
    # SUSY pattern at the start; the final pair is cut by k=6.
    assert rep.groups_r0 == (1, 2, 2, 1)
    assert rep.groups_r1 == (2, 2, 2)  # degenerate pairs at the end


def test_worker_env_determinism(fp_small, monkeypatch):
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=0.2513)
    grid = np.linspace(0.0, 1.0, 7)
    flow_auto = spectral_flow_r(s, grid, 5, fp_small)
    monkeypatch.setenv("SUSYRABI_WORKERS", "1")
    flow_serial = spectral_flow_r(s, grid, 5, fp_small)
    for ta, ts in zip(flow_auto.tables, flow_serial.tables):
        np.testing.assert_array_equal(ta.energies, ts.energies)
        assert ta.groups == ts.groups


def test_worker_env_validation(fp_small, monkeypatch):
    monkeypatch.setenv("SUSYRABI_WORKERS", "zero")
    s = Schedule(omega=OMEGA, g_max=OMEGA)
    with pytest.raises(ValidationError):
        spectral_flow_r(s, [0.0, 1.0], 3, fp_small)
