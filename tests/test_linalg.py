"""Dense linear-algebra substrate: kron, eigensolver, block norms."""

import numpy as np
import pytest

from susyrabi.errors import ContractViolationError, DimensionError
from susyrabi.linalg import (
    BlockStack,
    EigenDecomposition,
    banded_eigh,
    hermitian_eigs,
    kron,
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


def split_own(a):
    """a as a BlockStack on its own zero pattern."""
    return BlockStack.split(a, BlockStack.partition_of(a))


def test_spectral_norm_diag():
    assert split_own(np.diag([1.0, -5.0, 2.0]).astype(complex)).norm() == pytest.approx(5.0)


def test_principal_blocks_follow_zero_pattern():
    # Components {0, 2} (joined by one off-diagonal entry) and {1}; index 3
    # is a zero singleton and is a component of its own.
    a = np.zeros((4, 4), dtype=complex)
    a[2, 0] = 2.0j
    a[1, 1] = 3.0
    x = split_own(a)
    singles, pairs = x.partition
    np.testing.assert_array_equal(singles, [[1], [3]])
    np.testing.assert_array_equal(x.blocks[0], [[[3.0]], [[0.0]]])
    np.testing.assert_array_equal(pairs, [[0, 2]])
    np.testing.assert_array_equal(x.blocks[1], [[[0.0, 0.0], [2.0j, 0.0]]])
    zeros = BlockStack.partition_of(np.zeros((3, 3), dtype=complex))
    assert [idx.tolist() for idx in zeros] == [[[0], [1], [2]]]
    dense = np.ones((3, 3), dtype=complex)
    whole = split_own(dense)
    ((idx,),) = whole.partition
    np.testing.assert_array_equal(idx, [0, 1, 2])
    assert whole.blocks[0].shape == (1, 3, 3) and np.shares_memory(whole.blocks[0], dense)
    assert x.norm() == pytest.approx(3.0)


def test_block_stack_partition_and_shape_checks():
    a = np.arange(16.0).reshape(4, 4) + 0j
    order = np.array([2, 0, 3, 1])
    # A matrix without a zero entry is one block, a view of itself.
    (whole,) = BlockStack.partition_of(a)
    np.testing.assert_array_equal(whole, [[0, 1, 2, 3]])
    np.testing.assert_array_equal(BlockStack.split(a, (whole,)).dense(), a)
    # Kept on the two halves of order only, it splits into those halves.
    sectors = np.zeros((4, 4), dtype=bool)
    for half in np.split(order, 2):
        sectors[np.ix_(half, half)] = True
    (pairs,) = BlockStack.partition_of(a * sectors)
    np.testing.assert_array_equal(pairs, [[0, 2], [1, 3]])
    x = BlockStack.split(a * sectors, (pairs,))
    np.testing.assert_array_equal(x.blocks[0][0], a[np.ix_([0, 2], [0, 2])])
    np.testing.assert_array_equal(x.dense(), a * sectors)
    # Every index is covered, one with no nonzero entry as its own block.
    (singles,) = BlockStack.partition_of(np.diag([1.0, 2.0, 3.0, 4.0]), np.zeros((4, 4)))
    np.testing.assert_array_equal(singles, [[0], [1], [2], [3]])
    assert [idx.tolist() for idx in BlockStack.partition_of(np.zeros((2, 2)))] == [[[0], [1]]]
    with pytest.raises(DimensionError):
        BlockStack.split(a, (np.arange(6)[None],))
    with pytest.raises(DimensionError):
        BlockStack.partition_of(np.eye(3), np.eye(4))
    with pytest.raises(DimensionError):
        BlockStack.partition_of(np.ones((2, 3)))


def test_projected_norm_basics():
    a = split_own(np.diag([1.0, 5.0]).astype(complex))
    assert a.norm(np.arange(2)) == pytest.approx(5.0)
    assert a.norm(np.array([0])) == pytest.approx(1.0)
    assert a.norm(np.array([], dtype=int)) == pytest.approx(0.0)


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
            split_own(np.eye(2)).norm(idx)


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
