"""Hamiltonian family, the r path, supercharges and field operators."""

import dataclasses
import math

import numpy as np
import pytest

from susyrabi.errors import ValidationError
from susyrabi.fock import (
    S_MINUS,
    S_PLUS,
    SZ,
    FockParams,
)
from susyrabi.model import (
    ModelParams,
    Schedule,
    mass_increment,
    renormalized_frequency,
    self_energy,
    squeezed_chains,
)
from susyrabi.spectral import sweep_params_g

from oracle import (
    SX,
    SY,
    basis_state,
    broken_supercharges,
    embed_boson,
    embed_qubit,
    free_supercharges,
    h_interaction,
    h_susy_ss,
    h_total_r,
    hamiltonian,
    heavy_field,
    heavy_hamiltonian,
    interior_projector,
    make_operators,
)

OMEGA = 6.2832


def lowest(h, k):
    return np.linalg.eigvalsh(h)[:k]


def interior_norm(a, idx):
    """|P a P|_2 for the projector P onto the index set idx."""
    return np.linalg.norm(a[np.ix_(idx, idx)], 2)


def test_real_operators_are_float64(fp_small):
    # Every operator of the model is real except sigma_y, so the real ones
    # are held as float64 and the linear algebra on them stays real.
    ops = make_operators(fp_small)
    for name in ("a", "a_dag", "n_op"):
        assert getattr(ops, name).dtype == np.float64, name
    for name, arr in (("sx", SX), ("sy", SY), ("sz", SZ), ("s+", S_PLUS), ("s-", S_MINUS)):
        assert arr.dtype == (np.complex128 if name == "sy" else np.float64), name
        assert not arr.flags.writeable, name
    assert hamiltonian(ModelParams(OMEGA, OMEGA, 1.3, 0.2513), fp_small).dtype == np.float64
    assert h_interaction(Schedule(OMEGA, OMEGA, 0.2513), 0.5, fp_small).dtype == np.float64
    assert free_supercharges(OMEGA, fp_small).q1.dtype == np.float64
    assert free_supercharges(OMEGA, fp_small).q2.dtype == np.complex128
    assert broken_supercharges(OMEGA, fp_small).q1.dtype == np.float64
    for name, ch in (("free", free_supercharges(OMEGA, fp_small)),
                     ("broken", broken_supercharges(OMEGA, fp_small))):
        assert ch.q_plus.dtype == ch.q_minus.dtype == np.float64, name


def test_model_params_validation():
    with pytest.raises(ValidationError):
        ModelParams(omega_a=1.0, omega_b=0.0)
    with pytest.raises(ValidationError):
        ModelParams(omega_a=-1.0, omega_b=1.0)
    with pytest.raises(ValidationError):
        ModelParams(omega_a=1.0, omega_b=1.0, g=-0.5)
    with pytest.raises(ValidationError):
        ModelParams(omega_a=1.0, omega_b=1.0, c=-0.1)


def test_renormalized_frequency_closed_form():
    omega_g, g_tilde = renormalized_frequency(OMEGA, 0.2513, OMEGA)
    assert omega_g == pytest.approx(
        math.sqrt(OMEGA**2 + 4 * 0.2513 * OMEGA * OMEGA**2), rel=1e-15
    )
    assert omega_g == pytest.approx(16.9947, rel=1e-4)
    assert g_tilde == pytest.approx(OMEGA * math.sqrt(OMEGA / omega_g), rel=1e-15)
    # c = 0 leaves the frequency and coupling untouched.
    assert renormalized_frequency(OMEGA, 0.0, 3.0) == (OMEGA, 3.0)


def test_self_energy_two_forms_agree():
    # g^2/(4 c g^2 + omega) equals g_tilde^2/omega_g identically.
    for c in (0.0377, 0.2513, 0.628, 1.257):
        for g in (0.5, OMEGA, 5 * OMEGA):
            omega_g, g_tilde = renormalized_frequency(OMEGA, c, g)
            assert self_energy(OMEGA, c, g) == pytest.approx(g_tilde**2 / omega_g, rel=1e-13)
    # An r-path point is the straight line (1-r)*omega, r*g_max, shifted
    # by the same formula as a coupling sweep point, bit for bit.
    g_max = 5 * OMEGA
    for c in (0.0, 0.0377, 1.257):
        s = Schedule(omega=OMEGA, g_max=g_max, c=c)
        for r in np.linspace(0.0, 1.0, 11):
            g = r * g_max
            assert s.params(r) == ModelParams(
                (1.0 - r) * OMEGA, OMEGA, g, c, self_energy(OMEGA, c, g)
            )
        for g in (0.0, 0.5, OMEGA, 5 * OMEGA):
            p = sweep_params_g(OMEGA, c, g)
            assert p == ModelParams(OMEGA, OMEGA, g, c, shift=self_energy(OMEGA, c, g))


@pytest.mark.parametrize("omega, c, g", [
    (1e200, 0.0, OMEGA),  # omega^2 overflows
    (OMEGA, 0.0, 1e200),  # g^2 overflows, even at c = 0
    (OMEGA, 0.2513, 1e154),  # g^2 is finite, 4 c omega g^2 is not
    (OMEGA, 0.2513, np.float64(1e200)),  # a grid value: no RuntimeWarning, an error
])
def test_overflowing_omega_g_is_a_validation_error(omega, c, g, recwarn):
    for f in (renormalized_frequency, self_energy, mass_increment):
        with pytest.raises(ValidationError, match="overflows float64"):
            f(omega, c, g)
    assert not recwarn.list


@pytest.mark.parametrize("omega, c, g", [
    (1e-300, 0.0, 0.0),  # omega^2 underflows to 0: omega / omega_g would divide by 0
    (1e-300, 1.0, 1e-5),  # 4 c omega g^2 = 4e-310 is subnormal
    (1e-160, 0.0, OMEGA),  # omega^2 is subnormal: sqrt(omega^2) is off omega by 5.6e-6
    (np.float64(1e-300), 0.2513, np.float64(0.0)),  # grid values: no RuntimeWarning
])
def test_underflowing_omega_g_is_a_validation_error(omega, c, g, recwarn):
    for f in (renormalized_frequency, self_energy, mass_increment):
        with pytest.raises(ValidationError, match="underflows float64"):
            f(omega, c, g)
    assert not recwarn.list
    # A tiny omega passes where the coupling term lifts omega_g^2 above
    # the normal range, and an omega whose square is normal keeps its digits.
    assert renormalized_frequency(1e-300, 1.0, 1e100)[0] == pytest.approx(2e-50, rel=1e-15)
    omega_min = math.sqrt(np.finfo(np.float64).tiny) * (1.0 + 1e-15)
    assert renormalized_frequency(omega_min, 0.0, 0.0) == (omega_min, 0.0)


def test_mass_increment_pythagoras():
    for c in (0.0, 0.2513, 1.257):
        for g in (0.0, 1.7, OMEGA):
            omega_g, _ = renormalized_frequency(OMEGA, c, g)
            dm = mass_increment(OMEGA, c, g)
            assert omega_g**2 == pytest.approx(OMEGA**2 + dm**2, rel=1e-13)
    assert mass_increment(OMEGA, 0.2513, OMEGA) == pytest.approx(15.7906, rel=1e-4)


def test_schedule_endpoints_and_forms():
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=0.1)
    assert s.omega_a(0.0) == OMEGA and s.omega_a(1.0) == 0.0
    assert s.g(0.0) == 0.0 and s.g(1.0) == OMEGA
    assert s.omega_a(0.25) == pytest.approx(0.75 * OMEGA)
    assert s.g(0.25) == pytest.approx(0.25 * OMEGA)
    with pytest.raises(ValidationError):
        s.g(1.5)


def test_free_spectrum_pattern(fp_mid):
    h = hamiltonian(ModelParams(OMEGA, OMEGA, 0.0, 0.0), fp_mid)
    expected = [0, OMEGA, OMEGA, 2 * OMEGA, 2 * OMEGA, 3 * OMEGA, 3 * OMEGA]
    np.testing.assert_allclose(lowest(h, 7), expected, atol=1e-10)


def test_broken_spectrum_pattern(fp_mid):
    h = hamiltonian(ModelParams(0.0, OMEGA, 0.0, 0.0), fp_mid)
    expected = np.repeat(OMEGA * (np.arange(3) + 0.5), 2)
    vals = lowest(h, 6)
    np.testing.assert_allclose(vals, expected, atol=1e-10)
    assert vals[0] > 0


def test_free_hamiltonian_equals_number_form(fp_mid):
    h = hamiltonian(ModelParams(OMEGA, OMEGA, 0.0, 0.0), fp_mid)
    np.testing.assert_allclose(h, h_susy_ss(OMEGA, fp_mid), atol=1e-12)


def test_x_flip_symmetry_of_broken_hamiltonian(fp_small):
    h = hamiltonian(ModelParams(0.0, OMEGA, 0.0, 0.0), fp_small)
    sx = embed_qubit(SX, fp_small)
    np.testing.assert_allclose(h @ sx, sx @ h, atol=1e-12)


def test_total_splits_into_free_plus_interaction(fp_mid):
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=0.2513)
    for r in (0.0, 0.3, 1.0):
        total = h_susy_ss(OMEGA, fp_mid) + h_interaction(s, r, fp_mid)
        np.testing.assert_allclose(total, h_total_r(s, r, fp_mid), atol=1e-10)


def test_interaction_vanishes_at_start(fp_small):
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=0.2513)
    assert np.linalg.norm(h_interaction(s, 0.0, fp_small), 2) == pytest.approx(0.0, abs=1e-14)


def test_endpoint_spectrum_without_a2_term():
    # At r=1, c=0 the shifted Hamiltonian is exactly the doubly degenerate
    # bare ladder: sector decomposition, no truncation error.
    fp = FockParams(n_fock=128, buffer=32)
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=0.0)
    vals = lowest(h_total_r(s, 1.0, fp), 6)
    expected = np.repeat(OMEGA * (np.arange(3) + 0.5), 2)
    np.testing.assert_allclose(vals, expected, atol=1e-9)


def test_endpoint_spectrum_with_a2_term():
    fp = FockParams(n_fock=256, buffer=64)
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=0.2513)
    omega_g = s.omega_g(1.0)
    vals = lowest(h_total_r(s, 1.0, fp), 6)
    expected = np.repeat(omega_g * (np.arange(3) + 0.5), 2)
    np.testing.assert_allclose(vals, expected, atol=1e-8)


def test_heavy_hamiltonian_ladder(fp_small):
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=0.628)
    vals = lowest(heavy_hamiltonian(s, fp_small), 4)
    omega_g = s.omega_g(1.0)
    np.testing.assert_allclose(
        vals, omega_g * np.array([0.5, 0.5, 1.5, 1.5]), atol=1e-10
    )


def test_nilpotent_charges_are_built_from_q1_and_q2(fp_small):
    for ch in (free_supercharges(OMEGA, fp_small), broken_supercharges(OMEGA, fp_small)):
        for q, sign in ((ch.q_plus, 1.0), (ch.q_minus, -1.0)):
            np.testing.assert_allclose(
                q, (ch.q1 + sign * 1j * ch.q2) / math.sqrt(2.0), rtol=0, atol=1e-14
            )


def test_free_supercharges_annihilate_vacuum(fp_small):
    ch = free_supercharges(OMEGA, fp_small)
    vac = basis_state("down", 0, fp_small)
    assert np.linalg.norm(ch.q_plus @ vac) == 0.0
    assert np.linalg.norm(ch.q_minus @ vac) == 0.0
    assert np.linalg.norm(ch.q1 @ vac) == 0.0


def test_free_supercharge_maps_sectors(fp_small):
    ch = free_supercharges(OMEGA, fp_small)
    src = basis_state("down", 1, fp_small)
    np.testing.assert_allclose(
        ch.q_minus.conj().T @ src, math.sqrt(OMEGA) * basis_state("up", 0, fp_small)
    )


def test_free_anticommutator_closes_on_h(fp_small):
    ch = free_supercharges(OMEGA, fp_small)
    h = hamiltonian(ModelParams(OMEGA, OMEGA, 0.0, 0.0), fp_small)
    p = interior_projector(fp_small)
    assert interior_norm(2 * ch.q1 @ ch.q1 - h, p) < 1e-12
    assert interior_norm(ch.q1 @ ch.q2 + ch.q2 @ ch.q1, p) < 1e-12


def test_broken_anticommutator_closes_exactly(fp_small):
    # The square-root charges close on H(0, omega, 0, 0) on the whole
    # truncated space, corner included.
    ch = broken_supercharges(OMEGA, fp_small)
    h = hamiltonian(ModelParams(0.0, OMEGA, 0.0, 0.0), fp_small)
    np.testing.assert_allclose(2 * ch.q1 @ ch.q1, h, atol=1e-12)
    np.testing.assert_allclose(
        ch.q_plus @ ch.q_minus + ch.q_minus @ ch.q_plus, h, atol=1e-12
    )


def test_broken_charge_action_on_vacuum(fp_small):
    ch = broken_supercharges(OMEGA, fp_small)
    out = ch.q_plus @ basis_state("down", 0, fp_small)
    np.testing.assert_allclose(
        out, math.sqrt(OMEGA / 2.0) * basis_state("up", 0, fp_small), atol=1e-14
    )


def test_grading_anticommutes_with_charges(fp_small):
    for ch in (free_supercharges(OMEGA, fp_small), broken_supercharges(OMEGA, fp_small)):
        for q in (ch.q1, ch.q2, ch.q_plus, ch.q_minus):
            assert np.linalg.norm(q @ ch.grading + ch.grading @ q, 2) < 1e-12


def test_supercharges_against_wrong_hamiltonian(fp_small):
    # Anti-test: the free charges do not close on the broken Hamiltonian.
    ch = free_supercharges(OMEGA, fp_small)
    h_wrong = hamiltonian(ModelParams(0.0, OMEGA, 0.0, 0.0), fp_small)
    p = interior_projector(fp_small)
    assert interior_norm(2 * ch.q1 @ ch.q1 - h_wrong, p) > 1.0


def test_field_b_r_commutes_with_sx(fp_small):
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=0.2513)
    b_r = heavy_field(s, 0.7, fp_small)
    sx = embed_qubit(SX, fp_small)
    np.testing.assert_allclose(b_r @ sx, sx @ b_r, atol=1e-12)


def test_field_b_r_reduces_to_bare_mode_at_start(fp_small):
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=0.2513)
    a_full = embed_boson(make_operators(fp_small).a, fp_small)
    np.testing.assert_allclose(heavy_field(s, 0.0, fp_small), a_full, atol=1e-13)


def test_field_commutator_interior(fp_mid):
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=0.628)
    b_r = heavy_field(s, 1.0, fp_mid)
    p = interior_projector(fp_mid)
    comm = b_r @ b_r.T - b_r.T @ b_r
    assert interior_norm(comm - np.eye(2 * fp_mid.n_fock), p) < 1e-10
    # Canonical pair for the heavy fields Phi_r and Pi_r, interior-projected.
    og = s.omega_g(1.0)
    phi_r = math.sqrt(1.0 / (2.0 * og)) * (b_r + b_r.T)
    pi_r = -1j * math.sqrt(og / 2.0) * (b_r - b_r.T)
    ccr = phi_r @ pi_r - pi_r @ phi_r
    assert interior_norm(ccr - 1j * np.eye(2 * fp_mid.n_fock), p) < 1e-10


def test_chiral_projectors_algebra(fp_small):
    d_plus = embed_qubit(-(SZ - 1j * SY) / 2.0, fp_small)
    d_minus = embed_qubit(-(SZ + 1j * SY) / 2.0, fp_small)
    eye = np.eye(2 * fp_small.n_fock)
    np.testing.assert_allclose(d_plus @ d_minus + d_minus @ d_plus, eye, atol=1e-13)
    assert np.linalg.norm(d_plus @ d_plus, 2) < 1e-13
    assert np.linalg.norm(d_minus @ d_minus, 2) < 1e-13


def test_squeezed_chains_carry_the_shift(fp_small):
    # The squeeze leaves the scalar shift alone: the squeezed chains of a
    # shifted point are those of the unshifted point plus the shift on the
    # diagonal, and off the diagonal they are bitwise equal.
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=0.2513)
    for r in (0.0, 0.5, 1.0):
        p = s.params(r)
        shifted = squeezed_chains(p, fp_small)
        bare = squeezed_chains(dataclasses.replace(p, shift=0.0), fp_small)
        np.testing.assert_array_equal(shifted[:, 1:], bare[:, 1:])
        np.testing.assert_allclose(shifted[:, 0] - bare[:, 0], p.shift, rtol=0, atol=1e-12)
        assert p.shift == self_energy(OMEGA, 0.2513, s.g(r))
    with pytest.raises(ValidationError):
        s.params(1.5)
