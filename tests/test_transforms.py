"""Displacement/squeeze/polaron unitaries and equivalence reports."""

import math

import numpy as np
import pytest

from susyrabi.errors import (
    TransformMismatchError,
    TruncationError,
    ValidationError,
)
from susyrabi.fock import FockParams, basis_state, embed_boson, interior_projector, make_operators
from susyrabi.linalg import projected_norm, spectral_norm
from susyrabi.model import ModelParams, Schedule, hamiltonian, renormalized_frequency
from susyrabi.transforms import (
    displacement,
    field_identity_report,
    polaron_equivalence_report,
    squeeze,
    squeeze_interior_projector,
    u_a2,
    u_a2_with_report,
    u_polaron,
    verify_equivalence,
)

OMEGA = 6.2832


def test_displacement_zero_is_identity(fp_small):
    np.testing.assert_allclose(
        displacement(0.0, fp_small), np.eye(fp_small.n_fock), atol=1e-14
    )


def test_displacement_vacuum_overlap(fp_mid):
    # <0| D(beta) |0> = exp(-beta^2/2)
    d = displacement(1.0, fp_mid)
    assert d[0, 0].real == pytest.approx(math.exp(-0.5), rel=1e-10)
    assert abs(d[0, 0].imag) < 1e-12
    # Coherent-state photon statistics: <n> = beta^2 in the displaced vacuum.
    ops = make_operators(fp_mid)
    coherent = d[:, 0]
    n_mean = float(np.real(coherent.conj() @ ops.n_op @ coherent))
    assert n_mean == pytest.approx(1.0, rel=1e-10)


def test_displacement_shifts_annihilator(fp_mid):
    # The conjugation identity holds on levels whose displaced image stays
    # inside the truncation; check the lower half of the ladder.
    beta = 1.3
    n = fp_mid.n_fock
    d = displacement(beta, fp_mid)
    ops = make_operators(fp_mid)
    shifted = d.conj().T @ ops.a @ d
    assert projected_norm(shifted - ops.a - beta * np.eye(n), np.arange(n // 2)) < 1e-10


def test_displacement_group_law(fp_mid):
    # The up-spin half of the interior index set is the boson interior.
    idx = interior_projector(fp_mid)
    p = idx[idx < fp_mid.n_fock]
    lhs = displacement(0.8, fp_mid) @ displacement(0.5, fp_mid)
    rhs = displacement(1.3, fp_mid)
    assert projected_norm(lhs - rhs, p) < 1e-8


def test_displacement_amplitude_guard():
    fp = FockParams(n_fock=16, buffer=4)
    with pytest.raises(TruncationError):
        displacement(4.0, fp)
    with pytest.warns(RuntimeWarning):
        displacement(2.1, fp)


def test_squeeze_zero_is_identity(fp_small):
    np.testing.assert_allclose(squeeze(0.0, fp_small), np.eye(fp_small.n_fock), atol=1e-14)


def test_squeeze_inverse(fp_mid):
    s = squeeze(0.4, fp_mid)
    np.testing.assert_allclose(
        s @ squeeze(-0.4, fp_mid), np.eye(fp_mid.n_fock), atol=1e-10
    )


def test_squeeze_scales_position_quadrature():
    fp = FockParams(n_fock=256, buffer=64)
    zeta = 0.3
    s = squeeze(zeta, fp)
    ops = make_operators(fp)
    x = ops.a + ops.a_dag
    idx = squeeze_interior_projector(fp, zeta)
    p = idx[idx < fp.n_fock]
    conj = s.conj().T @ x @ s
    assert projected_norm(conj - math.exp(-zeta) * x, p) < 1e-7


def test_squeeze_angle_guard(fp_small):
    with pytest.raises(ValidationError):
        squeeze(2.5, fp_small)


def test_squeeze_interior_projector_shrinks_with_angle():
    fp = FockParams(n_fock=256, buffer=64)
    rank = lambda z: squeeze_interior_projector(fp, z).size
    # At zero angle the cut is the plain 0.7*N safety margin.
    assert rank(0.0) == 2 * min(fp.n_fock - fp.buffer, int(0.7 * fp.n_fock))
    assert rank(0.5) < rank(0.0)
    with pytest.raises(TruncationError):
        squeeze_interior_projector(FockParams(n_fock=8, buffer=0), 2.0)


def test_verify_equivalence_identity_and_defect(fp_small):
    h = hamiltonian(ModelParams(OMEGA, OMEGA, 0.0, 0.0), fp_small)
    rep = verify_equivalence(
        np.eye(fp_small.total_dim, dtype=complex), h, h, fp_small, "self"
    )
    assert rep.residual == pytest.approx(0.0, abs=1e-14)
    assert rep.unitarity_defect == pytest.approx(0.0, abs=1e-14)
    assert rep.identity_name == "self"


def test_verify_equivalence_shape_check(fp_small):
    with pytest.raises(ValidationError):
        verify_equivalence(
            np.eye(4), np.eye(4), np.eye(6), fp_small
        )


@pytest.mark.parametrize("c", [0.2513, 0.628, 1.257])
def test_a2_removal_identity(c):
    fp = FockParams(n_fock=384, buffer=96)
    p = ModelParams(OMEGA, OMEGA, OMEGA, c)
    u, rep = u_a2_with_report(p, fp)
    assert rep.residual < 1e-6
    assert rep.unitarity_defect < 1e-10
    # The squeeze maps the full model onto the plain Rabi model at the
    # renormalized parameters; their low spectra must agree too.
    omega_g, g_tilde = renormalized_frequency(OMEGA, c, OMEGA)
    lhs = hamiltonian(p, fp)
    rhs = hamiltonian(ModelParams(OMEGA, omega_g, g_tilde, 0.0), fp)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(lhs)[:6], np.linalg.eigvalsh(rhs)[:6], atol=1e-8
    )


def test_a2_removal_trivial_without_a2_term(fp_mid):
    u = u_a2(ModelParams(OMEGA, OMEGA, OMEGA, 0.0), fp_mid)
    np.testing.assert_allclose(u, np.eye(fp_mid.total_dim), atol=1e-13)


def test_a2_removal_detects_wrong_target():
    # Feeding a mismatched frequency must trip the check.
    fp = FockParams(n_fock=128, buffer=32)
    p = ModelParams(OMEGA, OMEGA, OMEGA, 0.2513)
    omega_g, g_tilde = renormalized_frequency(OMEGA, p.c, p.g)
    u = u_a2(p, fp, check=False)
    lhs = hamiltonian(p, fp)
    wrong = hamiltonian(ModelParams(OMEGA, 2.0 * omega_g, g_tilde, 0.0), fp)
    zeta = 0.5 * math.log(omega_g / OMEGA)
    rep = verify_equivalence(
        u, lhs, wrong, fp, projector=squeeze_interior_projector(fp, zeta)
    )
    assert rep.residual > 0.05


def test_a2_removal_raises_on_mismatch(fp_mid):
    with pytest.raises(TransformMismatchError):
        u_a2(ModelParams(OMEGA, OMEGA, OMEGA, 0.2513), fp_mid, tol=1e-15)


def test_polaron_unitary_is_unitary(fp_mid):
    u = u_polaron(0.7, fp_mid)
    assert spectral_norm(u.conj().T @ u - np.eye(fp_mid.total_dim)) < 1e-10


def test_polaron_equivalence(fp_default):
    rep = polaron_equivalence_report(OMEGA, OMEGA, OMEGA, fp_default)
    assert rep.residual < 1e-7
    assert rep.unitarity_defect < 1e-10


def test_polaron_diagonalizes_coupling_at_zero_splitting(fp_mid):
    # With omega_a = 0 the polaron frame removes the linear coupling
    # entirely: U^dag (H + g^2/omega) U = H(0, omega, 0, 0).
    g = 2.0
    u = u_polaron(g / OMEGA, fp_mid)
    lhs = hamiltonian(ModelParams(0.0, OMEGA, g, 0.0), fp_mid) + (
        g**2 / OMEGA
    ) * np.eye(fp_mid.total_dim)
    rhs = hamiltonian(ModelParams(0.0, OMEGA, 0.0, 0.0), fp_mid)
    rep = verify_equivalence(u, lhs, rhs, fp_mid)
    assert rep.residual < 1e-9


def test_polaron_frame_ground_state(fp_mid):
    # U applied to |down, 0> gives a ground state of the zero-splitting
    # displaced Hamiltonian.
    g = 2.0
    u = u_polaron(g / OMEGA, fp_mid)
    h = hamiltonian(ModelParams(0.0, OMEGA, g, 0.0), fp_mid)
    v = u @ basis_state("down", 0, fp_mid)
    e0 = OMEGA / 2.0 - g**2 / OMEGA
    assert np.linalg.norm(h @ v - e0 * v) < 1e-9


def test_field_identity_across_r():
    fp = FockParams(n_fock=128, buffer=32)
    for c in (0.0, 0.2513, 1.257):
        s = Schedule(omega=OMEGA, g_max=OMEGA, c=c)
        for r in (0.0, 0.5, 1.0):
            rep = field_identity_report(s, r, fp)
            assert rep.residual < 1e-8, (c, r)
