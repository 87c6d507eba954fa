"""Truncated ladder operators, embeddings, projector and basis states."""

import numpy as np
import pytest

from susyrabi.dense import (
    basis_state,
    embed_boson,
    embed_qubit,
    make_operators,
)
from susyrabi.errors import DimensionError, ValidationError
from susyrabi.fock import (
    I2,
    S_MINUS,
    S_PLUS,
    SX,
    SY,
    SZ,
    FockParams,
    interior_projector,
)


def test_fock_params_validation():
    with pytest.raises(ValidationError):
        FockParams(n_fock=4)
    with pytest.raises(ValidationError):
        FockParams(n_fock=16, buffer=9)
    with pytest.raises(ValidationError):
        FockParams(n_fock=16, buffer=-1)
    assert FockParams(n_fock=16, buffer=8).total_dim == 32


def test_ladder_matrix_elements(fp_small):
    ops = make_operators(fp_small)
    # <n-1| a |n> = sqrt(n)
    assert ops.a[0, 1] == pytest.approx(1.0)
    assert ops.a[2, 3] == pytest.approx(np.sqrt(3.0))
    assert np.count_nonzero(ops.a) == fp_small.n_fock - 1
    np.testing.assert_array_equal(ops.a_dag, ops.a.conj().T)


def test_number_operator_is_diagonal_count(fp_small):
    ops = make_operators(fp_small)
    np.testing.assert_allclose(
        np.diagonal(ops.n_op).real, np.arange(fp_small.n_fock)
    )
    assert np.count_nonzero(ops.n_op - np.diag(np.diagonal(ops.n_op))) == 0
    np.testing.assert_array_equal(ops.n_op, ops.a_dag @ ops.a)


def test_commutator_identity_with_corner_defect(fp_small):
    ops = make_operators(fp_small)
    n = fp_small.n_fock
    comm = ops.a @ ops.a_dag - ops.a_dag @ ops.a
    np.testing.assert_allclose(comm[: n - 1, : n - 1], np.eye(n - 1), atol=1e-13)
    assert comm[n - 1, n - 1] == pytest.approx(1.0 - n)


def test_interior_projector_absorbs_commutator_defect(fp_small):
    ops = make_operators(fp_small)
    idx = interior_projector(fp_small)
    boson = idx[idx < fp_small.n_fock]
    comm = ops.a @ ops.a_dag - ops.a_dag @ ops.a
    np.testing.assert_allclose(
        comm[np.ix_(boson, boson)], np.eye(boson.size), atol=1e-13
    )


def test_spin_operator_relations():
    np.testing.assert_array_equal(S_PLUS, np.array([[0, 1], [0, 0]]))
    np.testing.assert_allclose(S_PLUS @ S_MINUS + S_MINUS @ S_PLUS, np.eye(2))
    assert np.all(S_PLUS @ S_PLUS == 0)
    assert np.all(S_MINUS @ S_MINUS == 0)
    np.testing.assert_allclose(SX @ SY - SY @ SX, 2j * SZ)
    # s+/- anticommute with the grading -sz
    np.testing.assert_allclose(S_PLUS @ (-SZ) + (-SZ) @ S_PLUS, np.zeros((2, 2)))


def test_spin_constants_read_only():
    for const in (SX, SY, SZ, I2, S_PLUS, S_MINUS):
        with pytest.raises(ValueError):
            const[0, 0] = 7.0


def test_embeddings_commute(fp_small):
    ops = make_operators(fp_small)
    qb = embed_qubit(SX, fp_small)
    bo = embed_boson(ops.a, fp_small)
    np.testing.assert_allclose(qb @ bo, bo @ qb, atol=1e-13)


def test_embed_qubit_ordering(fp_small):
    n = fp_small.n_fock
    sz_full = embed_qubit(SZ, fp_small)
    np.testing.assert_allclose(
        np.diagonal(sz_full).real, np.concatenate([np.ones(n), -np.ones(n)])
    )


def test_embed_shape_checks(fp_small):
    with pytest.raises(DimensionError):
        embed_boson(np.eye(3), fp_small)
    with pytest.raises(DimensionError):
        embed_qubit(np.eye(3), fp_small)


def test_interior_projector_pattern():
    fp = FockParams(n_fock=8, buffer=2)
    idx = interior_projector(fp)
    np.testing.assert_array_equal(idx, [0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13])
    assert np.issubdtype(idx.dtype, np.integer)
    assert np.unique(idx).size == idx.size
    # The index set is the support of the 0/1 diagonal projector.
    mask = np.zeros(fp.total_dim)
    mask[idx] = 1.0
    expected_block = [1, 1, 1, 1, 1, 1, 0, 0]
    np.testing.assert_array_equal(mask, expected_block * 2)
    np.testing.assert_array_equal(interior_projector(fp, 3), [0, 1, 2, 8, 9, 10])
    with pytest.raises(ValidationError):
        interior_projector(fp, 9)


def test_basis_state_indexing(fp_small):
    n = fp_small.n_fock
    up3 = basis_state("up", 3, fp_small)
    down0 = basis_state("down", 0, fp_small)
    assert up3[3] == 1.0 and np.linalg.norm(up3) == 1.0
    assert down0[n] == 1.0 and np.linalg.norm(down0) == 1.0
    with pytest.raises(ValidationError):
        basis_state("sideways", 0, fp_small)
    with pytest.raises(ValidationError):
        basis_state("up", n, fp_small)


def test_annihilator_acts_on_basis_states(fp_small):
    ops = make_operators(fp_small)
    a_full = embed_boson(ops.a, fp_small)
    np.testing.assert_allclose(
        a_full @ basis_state("up", 2, fp_small),
        np.sqrt(2.0) * basis_state("up", 1, fp_small),
    )
    assert np.linalg.norm(a_full @ basis_state("down", 0, fp_small)) == 0.0
