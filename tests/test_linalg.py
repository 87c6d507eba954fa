"""Linear-algebra substrate: kron, eigensolvers, the residual-stack norm, banded products."""

import numpy as np
import pytest

from susyrabi import dense
from susyrabi.dense import hermitian_eigs, kron
from susyrabi.errors import DimensionError
from susyrabi.linalg import band_times, banded_eigh, banded_lowest
from susyrabi.transforms import _leading_norm

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


def test_kron_rejects_oversized_result(monkeypatch):
    monkeypatch.setattr(dense, "MAX_DIM", 5)
    with pytest.raises(DimensionError):
        kron(np.eye(2, dtype=complex), np.eye(3, dtype=complex))


def test_kron_rejects_nonsquare():
    with pytest.raises(DimensionError):
        kron(np.ones((2, 3)), np.eye(2))


def test_eigs_pauli_z():
    values, _ = hermitian_eigs(SZ)
    np.testing.assert_allclose(values, [-1.0, 1.0])


def test_eigs_pauli_x_eigenvectors():
    values, vectors = hermitian_eigs(SX)
    np.testing.assert_allclose(values, [-1.0, 1.0])
    # Columns are eigenvectors up to phase.
    for i, lam in enumerate(values):
        v = vectors[:, i]
        np.testing.assert_allclose(SX @ v, lam * v, atol=1e-14)


def test_eigs_sorted_ascending():
    values, _ = hermitian_eigs(np.diag([3.0, 1.0, 2.0]).astype(complex))
    np.testing.assert_allclose(values, [1.0, 2.0, 3.0])


def test_eigs_recovers_matrix():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    h = (m + m.conj().T) / 2
    values, vectors = hermitian_eigs(h)
    recon = (vectors * values) @ vectors.conj().T
    np.testing.assert_allclose(recon, h, atol=1e-12)
    # Orthonormal columns.
    np.testing.assert_allclose(vectors.conj().T @ vectors, np.eye(12), atol=1e-13)


def test_eigs_warns_and_symmetrizes_on_asymmetry():
    m = np.array([[1.0, 0.5], [0.0, 2.0]], dtype=complex)
    with pytest.warns(RuntimeWarning):
        values, _ = hermitian_eigs(m)
    sym = (m + m.conj().T) / 2
    np.testing.assert_allclose(values, np.linalg.eigvalsh(sym))


def test_spectral_norm_diag():
    assert _leading_norm(np.diag([1.0, -5.0, 2.0])[None]) == pytest.approx(5.0)
    assert _leading_norm(np.zeros((2, 0, 0))) == 0.0


def test_hermitian_eigs_of_sparse_complex_matrix_match_eigvalsh():
    # Exact zeros off a few entries, a complex coupling and an isolated level.
    a = np.zeros((4, 4), dtype=complex)
    a[2, 0] = 2.0j
    a[1, 1] = 3.0
    np.testing.assert_allclose(
        hermitian_eigs(a + a.conj().T)[0], np.linalg.eigvalsh(a + a.conj().T), atol=1e-14
    )


def test_banded_eigh_matches_dense():
    band = np.array([[2.0, 1.0, 3.0, 0.5], [0.3, -0.7, 0.2, 0.0]])
    full = np.diag(band[0]) + np.diag(band[1, :3], -1) + np.diag(band[1, :3], 1)
    values, vectors = banded_eigh(band)
    np.testing.assert_allclose(values, np.linalg.eigvalsh(full), atol=1e-13)
    np.testing.assert_allclose(full @ vectors, vectors * values, atol=1e-13)
    np.testing.assert_allclose(vectors.T @ vectors, np.eye(4), atol=1e-13)
    # Tridiagonal only: a pentadiagonal band and a bare vector are refused.
    with pytest.raises(DimensionError):
        banded_eigh(np.vstack([band, [[0.1, 0.4, 0.0, 0.0]]]))
    with pytest.raises(DimensionError):
        banded_eigh(np.ones(3))


def test_banded_lowest_slices_the_full_solve():
    # Levels start .. m - 1 of a pentadiagonal band are the matching slice
    # of all its eigenvalues; start outside 0 .. m - 1 is refused.
    rng = np.random.default_rng(7)
    band = rng.normal(size=(3, 9))
    full = np.diag(band[0])
    for d in (1, 2):
        full += np.diag(band[d, :-d], -d) + np.diag(band[d, :-d], d)
    want = np.linalg.eigvalsh(full)
    for m in range(1, 10):
        for start in range(m):
            np.testing.assert_allclose(banded_lowest(band, m, start), want[start:m],
                                       rtol=0, atol=1e-13)
        for start in (-1, m):
            with pytest.raises(DimensionError):
                banded_lowest(band, m, start)
    np.testing.assert_array_equal(banded_lowest(band, 4), banded_lowest(band, 4, 0))
    with pytest.raises(DimensionError):
        banded_lowest(band, 10)


def test_band_times_rejects_mismatched_columns():
    # A tridiagonal band of N = 4 against columns of length 3.
    with pytest.raises(DimensionError):
        band_times(np.ones((2, 4)), np.ones((3, 2)))
    with pytest.raises(DimensionError):
        band_times(np.ones(4), np.ones((4, 2)))
