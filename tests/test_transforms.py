"""Displacement/squeeze/polaron unitaries and equivalence reports."""

import dataclasses
import math

import numpy as np
import pytest

from susyrabi.dense import (
    basis_state,
    embed_boson,
    embed_qubit,
    h_total_r,
    hamiltonian,
    heavy_field,
    kron,
    make_operators,
    u_polaron,
)
from susyrabi.errors import TruncationError
from susyrabi import cli, dense, fock, linalg, model, spectral, transforms
from susyrabi.fock import (
    S_MINUS,
    S_PLUS,
    SZ,
    FockParams,
    interior_projector,
)
from susyrabi.model import (
    ModelParams,
    Schedule,
    parity_chains,
    renormalized_frequency,
)
from susyrabi.transforms import (
    displacement,
    field_identity_report,
    polaron_equivalence_report,
    squeeze,
    squeeze_cut,
    u_a2_with_report,
)

OMEGA = 6.2832


def dense_exp(k):
    """exp(K) for real skew-symmetric K, the textbook way: V diag(e^(-i lam)) V^dag
    from the eigenpairs (lam, V) of the Hermitian iK."""
    lam, v = np.linalg.eigh(1j * k)
    return (v * np.exp(-1j * lam)) @ v.conj().T


def interior_norm(a, idx):
    """|P a P|_2 for the projector P onto the index set idx."""
    return np.linalg.norm(a[np.ix_(idx, idx)], 2)


def dense_residual(u, lhs, rhs, idx):
    """|P (U^dag lhs U - rhs) P|_2 / max(1, |rhs|_2), the A^2 check's residual.

    The polaron check divides by a lower bound on |rhs|_2 instead
    (dense_polaron_residual).
    """
    return interior_norm(u.conj().T @ lhs @ u - rhs, idx) / max(1.0, np.linalg.norm(rhs, 2))


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
    s, rep = u_a2_with_report(p, fp)
    assert rep.residual < 1e-6
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
    s = u_a2_with_report(ModelParams(OMEGA, OMEGA, OMEGA, 0.0), fp_mid)[0]
    np.testing.assert_allclose(s, np.eye(fp_mid.n_fock), atol=1e-13)


def test_a2_removal_detects_wrong_target():
    # Feeding a mismatched frequency must trip the check.
    fp = FockParams(n_fock=128, buffer=32)
    p = ModelParams(OMEGA, OMEGA, OMEGA, 0.2513)
    omega_g, g_tilde = renormalized_frequency(OMEGA, p.c, p.g)
    u = embed_boson(u_a2_with_report(p, fp)[0], fp)
    lhs = hamiltonian(p, fp)
    wrong = hamiltonian(ModelParams(OMEGA, 2.0 * omega_g, g_tilde, 0.0), fp)
    zeta = 0.5 * math.log(omega_g / OMEGA)
    assert dense_residual(u, lhs, wrong, interior_projector(fp, squeeze_cut(fp, zeta))) > 0.05


def test_polaron_unitary_is_unitary(fp_mid):
    u = u_polaron(0.7, fp_mid)
    assert np.linalg.norm(u.conj().T @ u - np.eye(fp_mid.total_dim), 2) < 1e-10


def test_negated_generator_is_the_adjoint(fp_mid):
    # Both generators are anti-Hermitian, so S(-zeta) = S(zeta)^dag and
    # D(-beta) = D(beta)^dag; the polaron frame builds D(-beta) as the adjoint.
    for make, x in ((squeeze, 0.4), (displacement, 0.7)):
        np.testing.assert_allclose(make(-x, fp_mid), make(x, fp_mid).conj().T, atol=1e-12)


def test_polaron_equivalence(fp_default):
    assert polaron_equivalence_report(OMEGA, OMEGA, OMEGA, fp_default).residual < 1e-7


@pytest.mark.parametrize("n", [256, 512])
def test_polaron_equivalence_at_strong_displacement(n):
    # beta = 2: the truncation error of D(beta) reaches below N - 64, so the
    # check must cut its interior by beta sqrt(N) to pass the 1e-7 threshold.
    rep = polaron_equivalence_report(OMEGA, OMEGA, 2.0 * OMEGA, FockParams(n_fock=n, buffer=64))
    assert rep.residual <= 1e-7


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
    ) * np.eye(fp_mid.total_dim)
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
            rep = field_identity_report(s, r, fp)
            assert rep.residual < 1e-8, (c, r)


def test_field_identity_raises_when_the_buffer_leaves_too_few_levels():
    # Buffer 4 at N = 8 leaves 4 levels, below the 8-level floor of every check.
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=0.2513)
    with pytest.raises(TruncationError, match="buffer 4 leaves fewer than 8"):
        field_identity_report(s, 0.5, FockParams(n_fock=8, buffer=4))


# The structured checks against their dense oracles: dense_residual on the
# 2N x 2N operands for the squeeze and the polaron frame, numpy's norms for
# the field rewriting.  Tolerances fixed in advance: 1e-14 * max(1, want)
# absolute where the identity holds and 1e-12 relative where it is made to
# fail.
STRUCTURED_N = (32, 64, 128)
STRUCTURED_C = (0.0, 0.2513, 1.257)
MISMATCH_RTOL = 1e-12


def dense_a2_residual(p, fp, target):
    """S(zeta) and the dense A^2-removal residual against the target parameters."""
    omega_g, _ = renormalized_frequency(p.omega_b, p.c, p.g)
    zeta = 0.5 * math.log(omega_g / p.omega_b)
    idx = interior_projector(fp, squeeze_cut(fp, zeta))
    s = squeeze(zeta, fp)
    return s, dense_residual(embed_boson(s, fp), hamiltonian(p, fp), hamiltonian(target, fp), idx)


def dense_polaron_rhs(omega_a, beta, fp):
    """H(0, omega, 0, 0) - (omega_a/2) {s+ D(beta)^2 + s- D(-beta)^2}, dense."""
    d = transforms.displacement(beta, fp)
    d2 = d @ d
    return hamiltonian(ModelParams(0.0, OMEGA), fp) - (omega_a / 2.0) * (
        kron(S_PLUS, d2) + kron(S_MINUS, d2.T))


def polaron_scale(omega_a, fp):
    """Weyl's lower bound omega (N - 1/2) - |omega_a|/2 on the polaron rhs norm."""
    return OMEGA * (fp.n_fock - 0.5) - abs(omega_a) / 2.0


def dense_polaron_residual(omega_a, g, fp):
    """The dense interior residual, divided by max(1, polaron_scale) as the check divides it."""
    beta = g / OMEGA
    cut = min(fp.n_fock - fp.buffer,
              fp.n_fock - math.ceil(transforms.POLARON_SPREAD * beta * math.sqrt(fp.n_fock)))
    u = u_polaron(beta, fp)
    lhs = hamiltonian(ModelParams(omega_a, OMEGA, g, 0.0, shift=g**2 / OMEGA), fp)
    residual = u.conj().T @ lhs @ u - dense_polaron_rhs(omega_a, beta, fp)
    return interior_norm(residual, interior_projector(fp, cut)) / max(
        1.0, polaron_scale(omega_a, fp))


def dense_field_residual(s, r, fp, rhs):
    b_r = heavy_field(s, r, fp)
    lhs = s.omega_g(r) * (b_r.T @ b_r + 0.5 * np.eye(fp.total_dim)) - (
        s.omega_a(r) / 2.0) * embed_qubit(-SZ, fp)
    return interior_norm(lhs - rhs, interior_projector(fp)) / max(1.0, np.linalg.norm(rhs, 2))


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
            u_a2_with_report(p, fp)
        return
    s, rep = u_a2_with_report(p, fp)
    np.testing.assert_array_equal(s, dense_s)
    assert_matches(rep.residual, want)
    # A target at 1.01 omega_g, in the rhs chains and in the dense rhs alike.
    wrong = ModelParams(OMEGA, 1.01 * omega_g, g_tilde, 0.0)
    monkeypatch.setattr(transforms, "squeezed_chains", lambda p, fp: parity_chains(wrong, fp))
    _, want = dense_a2_residual(p, fp, wrong)
    assert_mismatch_matches(u_a2_with_report(p, fp)[1].residual, want)


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
    rep = polaron_equivalence_report(omega_a, OMEGA, g, fp)
    assert_matches(rep.residual, dense_polaron_residual(omega_a, g, fp))
    # D(1.01 beta) in place of D(beta), in the structured and the dense frame alike.
    exact = transforms.displacement
    monkeypatch.setattr(transforms, "displacement", lambda b, fp: exact(1.01 * b, fp))
    want = dense_polaron_residual(omega_a, g, fp)
    got = polaron_equivalence_report(omega_a, OMEGA, g, fp).residual
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
        assert_matches(field_identity_report(s, r, fp).residual, want)
    # H(r) at 1.01 omega_b, in the rhs chains and in the dense rhs alike.
    def wrong(s, r):
        return dataclasses.replace(s.params(r), omega_b=1.01 * s.omega)
    monkeypatch.setattr(
        transforms, "parity_chains",
        lambda p, fp: parity_chains(dataclasses.replace(p, omega_b=1.01 * p.omega_b), fp),
    )
    for r in (0.5, 1.0):
        want = dense_field_residual(s, r, fp, hamiltonian(wrong(s, r), fp))
        assert_mismatch_matches(field_identity_report(s, r, fp).residual, want)


def test_transform_checks_build_no_dense_operand(monkeypatch, capsys):
    # No check builds a dense 2N x 2N operand: every kron, dense Hamiltonian,
    # embedding, dense charge set, dense eigensolve, np.block and the N x N
    # ladder-operator set is refused, in every module that could reach one,
    # and verify and goldstino still run end to end.  The algebra reports
    # also take dense inputs, built before the refusals, and gather them
    # onto the charges' spin-flip pairs.
    fp = FockParams(n_fock=64, buffer=16)
    algebra_inputs = [
        (hamiltonian(ModelParams(OMEGA, OMEGA), fp), model.free_supercharges(OMEGA, fp)),
        (hamiltonian(ModelParams(0.0, OMEGA), fp), model.broken_supercharges(OMEGA, fp)),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("dense 2N x 2N builder called")

    for module in (cli, dense, fock, linalg, model, spectral, transforms):
        for name in ("kron", "hamiltonian", "embed_qubit", "embed_boson",
                     "free_supercharges", "broken_supercharges", "hermitian_eigs",
                     "make_operators"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    monkeypatch.setattr(np, "block", refuse)
    u_a2_with_report(ModelParams(OMEGA, OMEGA, OMEGA, 0.2513), fp)
    polaron_equivalence_report(OMEGA, OMEGA, OMEGA, fp)
    field_identity_report(Schedule(omega=OMEGA, g_max=OMEGA, c=0.2513), 0.5, fp)
    for h, charges in algebra_inputs:
        rep = spectral.susy_algebra_report(h, charges, fp)
        residuals = (rep.anticommutator, rep.commutator_with_h,
                     rep.anticommutator_with_grading, rep.nilpotency)
        assert max(v for d in residuals for v in d.values()) <= 1e-10
    # N = 128: at N = 64 the A^2 row reads 2.3e-6 against its 1e-6 bound.
    capsys.readouterr()
    assert cli.run_command(["verify", "--n-fock", "128", "--buffer", "32", "--c", "0.2513"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 25 and all(row.endswith(",pass") for row in rows)
    assert cli.run_command(["goldstino", "--n-fock", "128", "--buffer", "32"]) == 0


def test_transform_checks_make_no_n_by_n_eigensolve(monkeypatch):
    # The polaron check's one full eigensolve is its residual norm, one
    # eigvalsh of the (2, cut, cut) leading blocks; its scale is a bound.
    # Neither it nor the A^2 check forms a full N x N chain matrix: both
    # multiply by the bands, and the A^2 check forms only the rhs's
    # leading cut x cut blocks.
    fp = FockParams(n_fock=64, buffer=16)
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recording_eigvalsh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    matrices = model.ParityChains.matrices

    def leading_matrices(chains):
        assert chains.n_fock < fp.n_fock, "ParityChains.matrices on a full-N chain"
        return matrices(chains)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    monkeypatch.setattr(model.ParityChains, "matrices", leading_matrices)
    polaron_equivalence_report(OMEGA, OMEGA, OMEGA, fp)
    cut = fp.n_fock - max(fp.buffer, math.ceil(transforms.POLARON_SPREAD * math.sqrt(fp.n_fock)))
    assert shapes == [(2, cut, cut)]
    u_a2_with_report(ModelParams(OMEGA, OMEGA, OMEGA, 0.2513), fp)
