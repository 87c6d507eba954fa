"""Dense linear-algebra substrate: kron, eigensolver, unitary exponential."""

import numpy as np
import pytest

from susyrabi.errors import ContractViolationError, DimensionError
from susyrabi.linalg import (
    EigenDecomposition,
    banded_eigh,
    hermitian_eigs,
    kron,
    projected_norm,
    spectral_norm,
    unitary_exp,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_kron_with_identity_is_block_diagonal():
    b = np.diag([0.0, 1.0, 2.0]).astype(complex)
    out = kron(np.eye(2, dtype=complex), b)
    assert out.shape == (6, 6)
    np.testing.assert_allclose(np.diagonal(out), [0, 1, 2, 0, 1, 2])


def test_kron_entry_expansion():
    # (sx (x) diag(0,1))[0, 3] couples |0>|1> with |1>|1>.
    out = kron(SX, np.diag([0.0, 1.0]).astype(complex))
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 3] = expected[3, 1] = 1.0
    np.testing.assert_array_equal(out, expected)


def test_kron_first_factor_is_index_major():
    out = kron(SZ, np.eye(3, dtype=complex))
    np.testing.assert_allclose(np.diagonal(out), [1, 1, 1, -1, -1, -1])


def test_kron_rejects_oversized_result():
    with pytest.raises(DimensionError):
        kron(np.eye(2, dtype=complex), np.eye(3, dtype=complex), max_dim=5)


def test_kron_rejects_nonsquare():
    with pytest.raises(DimensionError):
        kron(np.ones((2, 3)), np.eye(2))


def test_eigs_pauli_z():
    ed = hermitian_eigs(SZ)
    np.testing.assert_allclose(ed.values, [-1.0, 1.0])
    assert ed.dim == 2


def test_eigs_pauli_x_eigenvectors():
    ed = hermitian_eigs(SX)
    np.testing.assert_allclose(ed.values, [-1.0, 1.0])
    # Columns are eigenvectors up to phase.
    for i, lam in enumerate(ed.values):
        v = ed.vectors[:, i]
        np.testing.assert_allclose(SX @ v, lam * v, atol=1e-14)


def test_eigs_sorted_ascending():
    ed = hermitian_eigs(np.diag([3.0, 1.0, 2.0]).astype(complex))
    np.testing.assert_allclose(ed.values, [1.0, 2.0, 3.0])


def test_eigs_recovers_matrix():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    h = (m + m.conj().T) / 2
    ed = hermitian_eigs(h)
    recon = (ed.vectors * ed.values) @ ed.vectors.conj().T
    np.testing.assert_allclose(recon, h, atol=1e-12)
    # Orthonormal columns.
    np.testing.assert_allclose(
        ed.vectors.conj().T @ ed.vectors, np.eye(12), atol=1e-13
    )


def test_eigs_warns_and_symmetrizes_on_asymmetry():
    m = np.array([[1.0, 0.5], [0.0, 2.0]], dtype=complex)
    with pytest.warns(RuntimeWarning):
        ed = hermitian_eigs(m)
    sym = (m + m.conj().T) / 2
    np.testing.assert_allclose(ed.values, np.linalg.eigvalsh(sym))


def test_unitary_exp_zero_is_identity():
    np.testing.assert_allclose(unitary_exp(np.zeros((3, 3))), np.eye(3), atol=1e-15)


def test_unitary_exp_pauli_rotation():
    # exp(i pi/2 sz) = diag(i, -i)
    out = unitary_exp(1j * np.pi / 2 * SZ)
    np.testing.assert_allclose(out, np.diag([1j, -1j]), atol=1e-14)


def test_unitary_exp_is_unitary_and_inverts():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
    k = (m - m.conj().T) / 2
    u = unitary_exp(k)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(20), atol=1e-12)
    np.testing.assert_allclose(u @ unitary_exp(-k), np.eye(20), atol=1e-12)


def test_unitary_exp_rejects_non_skew():
    with pytest.raises(ContractViolationError):
        unitary_exp(SZ)


def test_spectral_norm_diag():
    assert spectral_norm(np.diag([1.0, -5.0, 2.0]).astype(complex)) == pytest.approx(5.0)


def test_projected_norm_basics():
    a = np.diag([1.0, 5.0]).astype(complex)
    assert projected_norm(a, np.arange(2)) == pytest.approx(5.0)
    assert projected_norm(a, np.array([0])) == pytest.approx(1.0)
    assert projected_norm(a, np.array([], dtype=int)) == pytest.approx(0.0)


def test_projected_norm_rejects_non_projector():
    # An interior is a set of distinct basis indices inside the matrix.
    malformed = [
        np.array([0.0, 1.0]),  # not integer
        np.array([True, False]),  # a mask, not an index set
        np.array([[0, 1]]),  # not 1-D
        np.array([0, 2]),  # past the end
        np.array([-1, 0]),  # negative
        np.array([1, 1]),  # duplicate
    ]
    for idx in malformed:
        with pytest.raises(ContractViolationError):
            projected_norm(np.eye(2), idx)


def test_banded_eigh_matches_dense():
    band = np.array([[2.0, 1.0, 3.0, 0.5], [0.3, -0.7, 0.2, 0.0], [0.1, 0.4, 0.0, 0.0]])
    dense = np.diag(band[0])
    for d in (1, 2):
        dense += np.diag(band[d, : 4 - d], -d) + np.diag(band[d, : 4 - d], d)
    ed = banded_eigh(band)
    np.testing.assert_allclose(ed.values, np.linalg.eigvalsh(dense), atol=1e-13)
    np.testing.assert_allclose(dense @ ed.vectors, ed.vectors * ed.values, atol=1e-13)
    np.testing.assert_allclose(ed.vectors.T @ ed.vectors, np.eye(4), atol=1e-13)
    with pytest.raises(DimensionError):
        banded_eigh(np.ones(3))


def test_eigendecomposition_dim_property():
    ed = EigenDecomposition(values=np.zeros(4), vectors=np.eye(4))
    assert ed.dim == 4
