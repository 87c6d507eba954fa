"""Displacement/squeeze/polaron unitaries and equivalence reports."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from susyrabi import cli, fock, linalg, model, spectral, transforms
from susyrabi.errors import TruncationError
from susyrabi.fock import (
    S_MINUS,
    S_PLUS,
    SZ,
    FockParams,
)
from susyrabi.model import (
    ModelParams,
    Schedule,
    parity_chains,
    renormalized_frequency,
)
from susyrabi.transforms import (
    a2_removal_report,
    displacement,
    field_identity_report,
    polaron_equivalence_report,
    squeeze,
    squeeze_cut,
)

import oracle
from oracle import (
    basis_state,
    embed_boson,
    embed_qubit,
    h_total_r,
    hamiltonian,
    heavy_field,
    interior_projector,
    kron,
    make_operators,
    u_polaron,
)

OMEGA = 6.2832


def dense_exp(k):
    """exp(K) for real skew-symmetric K, the textbook way: V diag(e^(-i lam)) V^dag
    from the eigenpairs (lam, V) of the Hermitian iK."""
    lam, v = np.linalg.eigh(1j * k)
    return (v * np.exp(-1j * lam)) @ v.conj().T


def interior_norm(a, idx, ord=2):
    """|P a P| for the projector P onto the index set idx, spectral unless ord says."""
    return np.linalg.norm(a[np.ix_(idx, idx)], ord)


def diagonal_scale(rhs):
    """max(1, max |rhs_jj|), the lower bound on max(1, |rhs|_2) the A^2 and field checks use."""
    return max(1.0, float(np.abs(np.diagonal(rhs)).max()))


def spectral_value(diff, rhs, idx):
    """|P diff P|_2 / max(1, |rhs|_2), the relative spectral residual."""
    return interior_norm(diff, idx) / max(1.0, np.linalg.norm(rhs, 2))


def frobenius_value(diff, rhs, idx):
    """|P diff P|_F / diagonal_scale(rhs), what the A^2 and field checks report."""
    return interior_norm(diff, idx, "fro") / diagonal_scale(rhs)


def dense_residual(u, lhs, rhs, idx, value=spectral_value):
    """The value of the residual U^dag lhs U - rhs on the index set idx."""
    return value(u.conj().T @ lhs @ u - rhs, rhs, idx)


def a2_angle(p):
    """The angle zeta = log(omega_g/omega_b)/2 of the squeeze that removes the A^2 term."""
    omega_g, _ = renormalized_frequency(p.omega_b, p.c, p.g)
    return 0.5 * math.log(omega_g / p.omega_b)


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
    assert interior_norm(shifted - ops.a - beta * np.eye(n), np.arange(n // 2)) < 1e-10


def test_displacement_group_law(fp_mid):
    # The up-spin half of the interior index set is the boson interior.
    idx = interior_projector(fp_mid)
    p = idx[idx < fp_mid.n_fock]
    lhs = displacement(0.8, fp_mid) @ displacement(0.5, fp_mid)
    rhs = displacement(1.3, fp_mid)
    assert interior_norm(lhs - rhs, p) < 1e-8


# The tridiagonal D(beta) against its oracle, the dense exponential of the
# generator.  Tolerances fixed in advance: 1e-13 absolute, entrywise.
@pytest.mark.parametrize("n", [16, 64, 256])
@pytest.mark.parametrize("beta", [0.3, -1.0, 1.9])
def test_displacement_is_real_orthogonal_and_matches_oracle(n, beta):
    fp = FockParams(n_fock=n, buffer=n // 4)
    ops = make_operators(fp)
    d = displacement(beta, fp)
    assert d.dtype == np.float64
    np.testing.assert_allclose(d, dense_exp(beta * (ops.a_dag - ops.a)), rtol=0, atol=1e-13)
    np.testing.assert_allclose(d.T @ d, np.eye(n), rtol=0, atol=1e-13)
    np.testing.assert_allclose(displacement(-beta, fp), d.T, rtol=0, atol=1e-13)


# The squeeze from its even and odd chains against the dense exponential
# of the generator.  Tolerances fixed in advance: 1e-13 absolute, entrywise.
@pytest.mark.parametrize("n", [16, 17, 64, 256])
@pytest.mark.parametrize("zeta", [0.3, -1.0, 2.0])
def test_squeeze_is_real_orthogonal_and_matches_oracle(n, zeta):
    fp = FockParams(n_fock=n, buffer=n // 4)
    ops = make_operators(fp)
    s = squeeze(zeta, fp)
    assert s.dtype == np.float64
    k = zeta / 2.0 * (ops.a @ ops.a - ops.a_dag @ ops.a_dag)
    np.testing.assert_allclose(s, dense_exp(k), rtol=0, atol=1e-13)
    np.testing.assert_allclose(s.T @ s, np.eye(n), rtol=0, atol=1e-13)


# squeeze and displacement on their leading m columns, for every m, against
# the full operators' columns at an odd and an even-chain-split truncation.
# The tolerance is fixed in advance: 1e-14 absolute, entrywise.
@pytest.mark.parametrize("n", [17, 255])
@pytest.mark.parametrize("make, x", [(squeeze, 0.3), (squeeze, -1.0), (squeeze, 2.0),
                                     (displacement, 1.0)])
def test_leading_columns_equal_the_full_operators(n, make, x):
    fp = FockParams(n_fock=n, buffer=n // 4)
    full = make(x, fp)
    for m in range(n + 1):
        lead = make(x, fp, m)
        assert lead.shape == (n, m)
        np.testing.assert_allclose(lead, full[:, :m], rtol=0, atol=1e-14)


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
    conj = s.conj().T @ x @ s
    assert interior_norm(conj - math.exp(-zeta) * x, np.arange(squeeze_cut(fp, zeta))) < 1e-7


def test_squeeze_angle_guard(fp_small):
    # An angle the truncated squeeze cannot hold is a truncation limit (exit 2).
    with pytest.raises(TruncationError):
        squeeze(2.5, fp_small)


def test_squeeze_interior_projector_shrinks_with_angle():
    fp = FockParams(n_fock=256, buffer=64)
    rank = lambda z: interior_projector(fp, squeeze_cut(fp, z)).size
    # At zero angle the cut is the plain 0.7*N safety margin.
    assert rank(0.0) == 2 * min(fp.n_fock - fp.buffer, int(0.7 * fp.n_fock))
    assert rank(0.5) < rank(0.0)
    with pytest.raises(TruncationError):
        squeeze_cut(FockParams(n_fock=8, buffer=0), 2.0)


@pytest.mark.parametrize("c", [0.2513, 0.628, 1.257])
def test_a2_removal_identity(c):
    fp = FockParams(n_fock=384, buffer=96)
    p = ModelParams(OMEGA, OMEGA, OMEGA, c)
    assert a2_removal_report(p, fp) < 1e-6
    s = squeeze(a2_angle(p), fp)
    assert np.linalg.norm(s.T @ s - np.eye(fp.n_fock), 2) < 1e-10
    # The squeeze maps the full model onto the plain Rabi model at the
    # renormalized parameters; their low spectra must agree too.
    omega_g, g_tilde = renormalized_frequency(OMEGA, c, OMEGA)
    lhs = hamiltonian(p, fp)
    rhs = hamiltonian(ModelParams(OMEGA, omega_g, g_tilde, 0.0), fp)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(lhs)[:6], np.linalg.eigvalsh(rhs)[:6], atol=1e-8
    )


def test_a2_removal_trivial_without_a2_term(fp_mid):
    s = squeeze(a2_angle(ModelParams(OMEGA, OMEGA, OMEGA, 0.0)), fp_mid)
    np.testing.assert_allclose(s, np.eye(fp_mid.n_fock), atol=1e-13)


def test_a2_removal_detects_wrong_target():
    # Feeding a mismatched frequency must trip the check.
    fp = FockParams(n_fock=128, buffer=32)
    p = ModelParams(OMEGA, OMEGA, OMEGA, 0.2513)
    omega_g, g_tilde = renormalized_frequency(OMEGA, p.c, p.g)
    zeta = a2_angle(p)
    u = embed_boson(squeeze(zeta, fp), fp)
    lhs = hamiltonian(p, fp)
    wrong = hamiltonian(ModelParams(OMEGA, 2.0 * omega_g, g_tilde, 0.0), fp)
    assert dense_residual(u, lhs, wrong, interior_projector(fp, squeeze_cut(fp, zeta))) > 0.05


def test_polaron_unitary_is_unitary(fp_mid):
    u = u_polaron(0.7, fp_mid)
    assert np.linalg.norm(u.conj().T @ u - np.eye(2 * fp_mid.n_fock), 2) < 1e-10


def test_negated_generator_is_the_adjoint(fp_mid):
    # Both generators are anti-Hermitian, so S(-zeta) = S(zeta)^dag and
    # D(-beta) = D(beta)^dag; the polaron frame builds D(-beta) as the adjoint.
    for make, x in ((squeeze, 0.4), (displacement, 0.7)):
        np.testing.assert_allclose(make(-x, fp_mid), make(x, fp_mid).conj().T, atol=1e-12)


def test_polaron_equivalence(fp_default):
    assert polaron_equivalence_report(OMEGA, OMEGA, OMEGA, fp_default) < 1e-7


@pytest.mark.parametrize("n", [256, 512])
def test_polaron_equivalence_at_strong_displacement(n):
    # beta = 2: the truncation error of D(beta) reaches below N - 64, so the
    # check must cut its interior by beta sqrt(N) to pass the 1e-7 threshold.
    assert polaron_equivalence_report(
        OMEGA, OMEGA, 2.0 * OMEGA, FockParams(n_fock=n, buffer=64)) <= 1e-7


def test_polaron_equivalence_raises_when_no_level_is_checkable():
    # beta = 3 at N = 64: 3 beta sqrt(N) = 72 levels exceed the truncation.
    with pytest.raises(TruncationError):
        polaron_equivalence_report(OMEGA, OMEGA, 3.0 * OMEGA, FockParams(n_fock=64, buffer=16))


def test_polaron_diagonalizes_coupling_at_zero_splitting(fp_mid):
    # With omega_a = 0 the polaron frame removes the linear coupling
    # entirely: U^dag (H + g^2/omega) U = H(0, omega, 0, 0).
    g = 2.0
    u = u_polaron(g / OMEGA, fp_mid)
    lhs = hamiltonian(ModelParams(0.0, OMEGA, g, 0.0), fp_mid) + (
        g**2 / OMEGA
    ) * np.eye(2 * fp_mid.n_fock)
    rhs = hamiltonian(ModelParams(0.0, OMEGA, 0.0, 0.0), fp_mid)
    assert dense_residual(u, lhs, rhs, interior_projector(fp_mid)) < 1e-9


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
            assert field_identity_report(s, r, fp) < 1e-8, (c, r)


def test_field_identity_raises_when_the_buffer_leaves_too_few_levels():
    # Buffer 4 at N = 8 leaves 4 levels, below the 8-level floor of every check.
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=0.2513)
    with pytest.raises(TruncationError, match="buffer 4 leaves fewer than 8"):
        field_identity_report(s, 0.5, FockParams(n_fock=8, buffer=4))


# The structured checks against their dense oracles: numpy's Frobenius norm
# of the interior residual on the 2N x 2N operands, over diagonal_scale, or
# for the polaron frame over Weyl's bound (polaron_scale).  Tolerances fixed
# in advance: 1e-14 * max(1, want) absolute where the identity holds and
# 1e-12 relative where it is made to fail.
STRUCTURED_N = (32, 64, 128)
STRUCTURED_C = (0.0, 0.2513, 1.257)
MISMATCH_RTOL = 1e-12


def dense_a2_residual(p, fp, target, value=frobenius_value):
    """S(zeta) and the dense A^2-removal residual against the target parameters."""
    zeta = a2_angle(p)
    idx = interior_projector(fp, squeeze_cut(fp, zeta))
    s = squeeze(zeta, fp)
    return s, dense_residual(
        embed_boson(s, fp), hamiltonian(p, fp), hamiltonian(target, fp), idx, value)


def dense_polaron_rhs(omega_a, beta, fp):
    """H(0, omega, 0, 0) - (omega_a/2) {s+ D(beta)^2 + s- D(-beta)^2}, dense."""
    d = transforms.displacement(beta, fp)
    d2 = d @ d
    return hamiltonian(ModelParams(0.0, OMEGA), fp) - (omega_a / 2.0) * (
        kron(S_PLUS, d2) + kron(S_MINUS, d2.T))


def polaron_scale(omega_a, fp):
    """Weyl's lower bound omega (N - 1/2) - |omega_a|/2 on the polaron rhs norm."""
    return OMEGA * (fp.n_fock - 0.5) - abs(omega_a) / 2.0


def dense_polaron_residual(omega_a, g, fp, ord="fro"):
    """The dense interior residual's norm, Frobenius unless ord says, over max(1, polaron_scale)."""
    beta = g / OMEGA
    cut = min(fp.n_fock - fp.buffer,
              fp.n_fock - math.ceil(transforms.POLARON_SPREAD * beta * math.sqrt(fp.n_fock)))
    u = u_polaron(beta, fp)
    lhs = hamiltonian(ModelParams(omega_a, OMEGA, g, 0.0, shift=g**2 / OMEGA), fp)
    residual = u.conj().T @ lhs @ u - dense_polaron_rhs(omega_a, beta, fp)
    return interior_norm(residual, interior_projector(fp, cut), ord) / max(
        1.0, polaron_scale(omega_a, fp))


def dense_field_residual(s, r, fp, rhs, value=frobenius_value):
    b_r = heavy_field(s, r, fp)
    lhs = s.omega_g(r) * (b_r.T @ b_r + 0.5 * np.eye(2 * fp.n_fock)) - (
        s.omega_a(r) / 2.0) * embed_qubit(-SZ, fp)
    return value(lhs - rhs, rhs, interior_projector(fp))


def assert_matches(got, want):
    assert abs(got - want) <= 1e-14 * max(1.0, want), (got, want)


def assert_mismatch_matches(got, want):
    assert want > 1e-6, want
    assert abs(got - want) <= MISMATCH_RTOL * want, (got, want)


@pytest.mark.parametrize("n", STRUCTURED_N)
@pytest.mark.parametrize("c", STRUCTURED_C)
def test_structured_a2_removal_equals_dense_oracle(n, c, monkeypatch):
    fp = FockParams(n_fock=n, buffer=n // 4)
    p = ModelParams(OMEGA, OMEGA, OMEGA, c)
    omega_g, g_tilde = renormalized_frequency(OMEGA, c, OMEGA)
    try:
        dense_s, want = dense_a2_residual(p, fp, ModelParams(OMEGA, omega_g, g_tilde, 0.0))
    except TruncationError:
        # C = 1.257 below N = 128: the squeeze leaves fewer than 8 levels.
        with pytest.raises(TruncationError):
            a2_removal_report(p, fp)
        return
    # The check conjugates by the leading cut columns of the oracle's S.
    used = []

    def recording_squeeze(zeta, fp, m):
        used.append(squeeze(zeta, fp, m))
        return used[-1]

    monkeypatch.setattr(transforms, "squeeze", recording_squeeze)
    residual = a2_removal_report(p, fp)
    cut = squeeze_cut(fp, a2_angle(p))
    assert used[0].shape == (n, cut)
    np.testing.assert_allclose(used[0], dense_s[:, :cut], rtol=0, atol=1e-14)
    assert_matches(residual, want)
    # A target at 1.01 omega_g, in the rhs chains and in the dense rhs alike.
    wrong = ModelParams(OMEGA, 1.01 * omega_g, g_tilde, 0.0)
    monkeypatch.setattr(transforms, "squeezed_chains", lambda p, fp: parity_chains(wrong, fp))
    _, want = dense_a2_residual(p, fp, wrong)
    assert_mismatch_matches(a2_removal_report(p, fp), want)


# At omega_a = omega/2 the off-diagonal blocks of the polaron rhs, and so its
# scale, differ from those at omega_a = omega_b.  The omega_a = omega cases are
# named by beta alone.
POLARON_CASES = [
    pytest.param(beta, omega_a, id=str(beta) if omega_a == OMEGA else f"{beta}-omega_a={omega_a}")
    for omega_a in (OMEGA, 0.5 * OMEGA)
    for beta in (0.25, 0.5, 1.0)
]


@pytest.mark.parametrize("n", STRUCTURED_N)
@pytest.mark.parametrize("beta, omega_a", POLARON_CASES)
def test_structured_polaron_frame_equals_dense_oracle(n, beta, omega_a, monkeypatch):
    # The polaron frame is the c = 0 check, so beta = g/omega takes the place of C.
    fp = FockParams(n_fock=n, buffer=n // 4)
    g = beta * OMEGA
    residual = polaron_equivalence_report(omega_a, OMEGA, g, fp)
    assert_matches(residual, dense_polaron_residual(omega_a, g, fp))
    # D(1.01 beta) in place of D(beta), in the structured and the dense frame alike.
    exact = transforms.displacement
    monkeypatch.setattr(transforms, "displacement", lambda b, fp, m=None: exact(1.01 * b, fp, m))
    want = dense_polaron_residual(omega_a, g, fp)
    got = polaron_equivalence_report(omega_a, OMEGA, g, fp)
    assert_mismatch_matches(got, want)


# The polaron check divides by Weyl's bound omega (N - 1/2) - |omega_a|/2 on
# |rhs|_2 in place of the norm itself: the rhs is F (+) F, F = omega (n + 1/2),
# plus off-diagonal blocks of norm |omega_a|/2, since D^2 is orthogonal.  The
# dense norm must lie within |omega_a|/2 of omega (N - 1/2); omega_a = 0 makes
# the bound exact and omega_a = 3 omega loosens it most.  The slack is fixed
# in advance: 1e-12 relative to the bound.
@pytest.mark.parametrize("n", STRUCTURED_N)
@pytest.mark.parametrize("beta, omega_a", POLARON_CASES + [
    pytest.param(beta, omega_a, id=f"{beta}-omega_a={omega_a}")
    for omega_a in (0.0, 3.0 * OMEGA) for beta in (0.25, 0.5, 1.0)
])
def test_polaron_scale_is_a_weyl_lower_bound_on_the_rhs_norm(n, beta, omega_a):
    fp = FockParams(n_fock=n, buffer=n // 4)
    norm = np.linalg.norm(dense_polaron_rhs(omega_a, beta, fp), 2)
    low = polaron_scale(omega_a, fp)
    high = OMEGA * (n - 0.5) + abs(omega_a) / 2.0
    assert low * (1.0 - 1e-12) <= norm <= high * (1.0 + 1e-12), (low, norm, high)


@pytest.mark.parametrize("n", STRUCTURED_N)
@pytest.mark.parametrize("c", STRUCTURED_C)
def test_structured_field_identity_equals_dense_oracle(n, c, monkeypatch):
    fp = FockParams(n_fock=n, buffer=n // 4)
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=c)
    for r in (0.0, 0.5, 1.0):
        want = dense_field_residual(s, r, fp, h_total_r(s, r, fp))
        assert_matches(field_identity_report(s, r, fp), want)
    # H(r) at 1.01 omega_b, in the rhs chains and in the dense rhs alike.
    def wrong(s, r):
        return dataclasses.replace(s.params(r), omega_b=1.01 * s.omega)
    monkeypatch.setattr(
        transforms, "parity_chains",
        lambda p, fp: parity_chains(dataclasses.replace(p, omega_b=1.01 * p.omega_b), fp),
    )
    for r in (0.5, 1.0):
        want = dense_field_residual(s, r, fp, hamiltonian(wrong(s, r), fp))
        assert_mismatch_matches(field_identity_report(s, r, fp), want)


# Each check reads at least its old value, the dense spectral residual
# |P R P|_2 / max(1, |rhs|_2), over Weyl's bound for the polaron frame:
# |P R P|_F >= |P R P|_2 and each scale is at most max(1, |rhs|_2).  The
# slack, fixed in advance, is 1e-12 relative: where R has rank one the two
# norms agree up to round-off.
LOWER_BOUND_RTOL = 1e-12


def assert_at_least(got, old):
    assert got >= old * (1.0 - LOWER_BOUND_RTOL), (got, old)


@pytest.mark.parametrize("n", STRUCTURED_N)
@pytest.mark.parametrize("c", STRUCTURED_C)
def test_a2_and_field_checks_read_at_least_the_spectral_residual(n, c):
    fp = FockParams(n_fock=n, buffer=n // 4)
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=c)
    for r in (0.0, 0.5, 1.0):
        old = dense_field_residual(s, r, fp, h_total_r(s, r, fp), spectral_value)
        assert_at_least(field_identity_report(s, r, fp), old)
    p = ModelParams(OMEGA, OMEGA, OMEGA, c)
    omega_g, g_tilde = renormalized_frequency(OMEGA, c, OMEGA)
    target = ModelParams(OMEGA, omega_g, g_tilde, 0.0)
    try:
        _, old = dense_a2_residual(p, fp, target, spectral_value)
    except TruncationError:
        return  # C = 1.257 below N = 128: the squeeze leaves fewer than 8 levels.
    assert_at_least(a2_removal_report(p, fp), old)


@pytest.mark.parametrize("n", STRUCTURED_N)
@pytest.mark.parametrize("beta, omega_a", POLARON_CASES)
def test_polaron_frame_reads_at_least_the_spectral_residual(n, beta, omega_a):
    fp = FockParams(n_fock=n, buffer=n // 4)
    g = beta * OMEGA
    old = dense_polaron_residual(omega_a, g, fp, ord=2)
    assert_at_least(polaron_equivalence_report(omega_a, OMEGA, g, fp), old)


# The A^2 and field checks divide by the largest |diagonal entry| of their
# rhs chains, a lower bound on |rhs|_2 (|A_jj| <= |A|_2): it must equal
# diagonal_scale of the dense rhs and lie at or below max(1, |rhs|_2).  The
# slack, fixed in advance, is 1e-12 relative.
@pytest.mark.parametrize("n", STRUCTURED_N)
@pytest.mark.parametrize("c", STRUCTURED_C)
def test_diagonal_scale_is_a_lower_bound_on_the_rhs_norm(n, c):
    fp = FockParams(n_fock=n, buffer=n // 4)
    omega_g, g_tilde = renormalized_frequency(OMEGA, c, OMEGA)
    target = ModelParams(OMEGA, omega_g, g_tilde, 0.0)
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=c)
    cases = [(model.squeezed_chains(ModelParams(OMEGA, OMEGA, OMEGA, c), fp),
              hamiltonian(target, fp))]
    cases += [(parity_chains(s.params(r), fp), h_total_r(s, r, fp)) for r in (0.0, 0.5, 1.0)]
    for chains, rhs in cases:
        scale = transforms._diagonal_scale(chains)
        assert abs(scale - diagonal_scale(rhs)) <= 1e-12 * scale
        assert scale <= max(1.0, np.linalg.norm(rhs, 2)) * (1.0 + 1e-12)


def test_transform_checks_build_no_dense_operand(monkeypatch, capsys):
    # No check builds a dense 2N x 2N operand: every kron, dense Hamiltonian,
    # embedding, dense charge set, dense eigensolve, np.block and the N x N
    # ladder-operator set is refused, in every module that could reach one,
    # and verify and goldstino still run end to end.  The dense algebra
    # report takes inputs built before the refusals and gathers them onto
    # the charges' spin-flip pairs.
    fp = FockParams(n_fock=64, buffer=16)
    algebra_inputs = [
        (hamiltonian(ModelParams(OMEGA, OMEGA), fp), oracle.free_supercharges(OMEGA, fp)),
        (hamiltonian(ModelParams(0.0, OMEGA), fp), oracle.broken_supercharges(OMEGA, fp)),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("dense 2N x 2N builder called")

    for module in (cli, oracle, fock, linalg, model, spectral, transforms):
        for name in ("kron", "hamiltonian", "embed_qubit", "embed_boson",
                     "free_supercharges", "broken_supercharges", "hermitian_eigs",
                     "make_operators"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    monkeypatch.setattr(np, "block", refuse)
    a2_removal_report(ModelParams(OMEGA, OMEGA, OMEGA, 0.2513), fp)
    polaron_equivalence_report(OMEGA, OMEGA, OMEGA, fp)
    field_identity_report(Schedule(omega=OMEGA, g_max=OMEGA, c=0.2513), 0.5, fp)
    for h, charges in algebra_inputs:
        residuals, _ = oracle.susy_algebra_report(h, charges, fp)
        assert max(residuals.values()) <= 1e-10
    # N = 128: at N = 64 the A^2 row reads 2.3e-6 against its 1e-6 bound.
    capsys.readouterr()
    assert cli.run_command(["verify", "--n-fock", "128", "--buffer", "32", "--c", "0.2513"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 25 and all(row.endswith(",pass") for row in rows)
    assert cli.run_command(["goldstino", "--n-fock", "128", "--buffer", "32"]) == 0


def test_transform_checks_make_no_n_by_n_eigensolve(monkeypatch):
    # Every norm of the three checks is a closed form: no eigvalsh of a
    # residual and no banded solve (dsbevx) of a residual or a scale.  Neither
    # the polaron nor the A^2 check forms a full N x N chain matrix: both
    # multiply by the bands, and the A^2 check forms only the rhs's leading
    # cut x cut blocks.
    fp = FockParams(n_fock=64, buffer=16)

    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve in a transform check")

    band_matrix = transforms.band_matrix
    widths = []

    def leading_matrices(band):
        assert band.shape[-1] < fp.n_fock, "band_matrix on a full-N chain"
        widths.append(band.shape[-1])
        return band_matrix(band)

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(linalg._flapack, "dsbevx", refuse)
    monkeypatch.setattr(transforms, "band_matrix", leading_matrices)
    polaron_equivalence_report(OMEGA, OMEGA, OMEGA, fp)
    a2_removal_report(ModelParams(OMEGA, OMEGA, OMEGA, 0.2513), fp)
    assert len(widths) == 1
    field_identity_report(Schedule(omega=OMEGA, g_max=OMEGA, c=0.2513), 0.5, fp)


def traced_peak(check):
    """The tracemalloc peak of check(), in bytes above what was traced before it."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        check()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_polaron_check_holds_at_most_three_residual_stacks():
    # numpy reports its buffers to tracemalloc.  At N = 512, buffer 32 and
    # beta = 1 (cut 444) the check's traced peak stays at or below three
    # float64 (2, cut, cut) stacks: it forms only D's leading cut columns
    # and one spin-diagonal block.  The bound is fixed in advance.
    fp = FockParams(n_fock=512, buffer=32)
    cut = fp.n_fock - math.ceil(transforms.POLARON_SPREAD * math.sqrt(fp.n_fock))
    assert cut == 444
    bound = 3 * 2 * cut * cut * 8
    peak = traced_peak(lambda: polaron_equivalence_report(OMEGA, OMEGA, OMEGA, fp))
    assert peak <= bound, f"{peak / (bound / 3):.2f} stacks"


def test_a2_check_peak_stays_below_one_point_six_n_squared():
    # At N = 512, buffer 32 and C = 0.2513 the A^2 check's traced peak
    # stays at or below 1.6 N^2 float64: it forms only the leading cut
    # columns of S, not S itself.  The bound is fixed in advance.
    fp = FockParams(n_fock=512, buffer=32)
    bound = 1.6 * fp.n_fock**2 * 8
    peak = traced_peak(lambda: a2_removal_report(ModelParams(OMEGA, OMEGA, OMEGA, 0.2513), fp))
    assert peak <= bound, f"{peak / (bound / 1.6):.2f} N^2"
