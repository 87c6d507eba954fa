"""Property-based checks of the operator algebra and derived scalars."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from susyrabi.errors import ContractViolationError, InvalidBetaError, ValidationError
from susyrabi.fock import FockParams
from susyrabi.linalg import (
    hermitian_eigs,
    hermitian_norm,
    kron,
    projected_norm,
    unitary_exp,
)
from susyrabi.model import (
    ModelParams,
    Schedule,
    broken_supercharges,
    free_supercharges,
    h_total_r,
    hamiltonian,
    mass_increment,
    parity_chains,
    parity_chains_r,
    renormalized_frequency,
)
from susyrabi.spectral import degeneracy_groups, lowest_k, witten_index

ints = st.integers(min_value=-5, max_value=5)


def int_matrix(n):
    return arrays(np.int64, (n, n), elements=ints)


@given(int_matrix(2), int_matrix(3), int_matrix(2))
def test_kron_is_associative(a, b, c):
    left = kron(kron(a, b), c)
    right = kron(a, kron(b, c))
    np.testing.assert_array_equal(left, right)


@given(int_matrix(3), int_matrix(2))
def test_kron_trace_is_product_of_traces(a, b):
    assert np.trace(kron(a, b)) == np.trace(a) * np.trace(b)


reals = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, (6, 6), elements=reals),
       arrays(np.float64, (6, 6), elements=reals))
def test_unitary_exp_inverse_property(re, im):
    m = re + 1j * im
    k = (m - m.conj().T) / 2
    u = unitary_exp(k)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(6), atol=1e-10)
    np.testing.assert_allclose(u @ unitary_exp(-k), np.eye(6), atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, (6, 6), elements=reals),
       arrays(np.float64, (6, 6), elements=reals))
def test_eigendecomposition_reconstructs(re, im):
    m = re + 1j * im
    h = (m + m.conj().T) / 2
    ed = hermitian_eigs(h)
    recon = (ed.vectors * ed.values) @ ed.vectors.conj().T
    np.testing.assert_allclose(recon, h, atol=1e-10)
    assert np.all(np.diff(ed.values) >= -1e-12)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
                min_size=1, max_size=12))
def test_degeneracy_groups_partition_and_pairing(values):
    e = np.sort(np.asarray(values))
    groups = degeneracy_groups(e, 1e-6)
    # The groups tile the index range exactly.
    covered = [i for start, size in groups for i in range(start, start + size)]
    assert covered == list(range(e.size))
    # Duplicating every energy cannot produce a singleton group.
    doubled = np.sort(np.concatenate([e, e]))
    for _, size in degeneracy_groups(doubled, 1e-6):
        assert size >= 2


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.1, max_value=50.0),
       st.floats(min_value=0.0, max_value=5.0),
       st.floats(min_value=0.0, max_value=50.0))
def test_mass_increment_consistency(omega, c, g):
    omega_g, g_tilde = renormalized_frequency(omega, c, g)
    dm = mass_increment(omega, c, g)
    assert math.isclose(omega_g**2, omega**2 + dm**2, rel_tol=1e-12)
    # Renormalization never lowers the frequency, never raises the coupling.
    assert omega_g >= omega
    assert g_tilde <= g + 1e-12


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=0.5, max_value=10.0))
def test_grading_expectations_are_bounded(omega):
    fp = FockParams(n_fock=16, buffer=4)
    h = hamiltonian(ModelParams(omega, omega, 0.3 * omega, 0.1), fp)
    grading = free_supercharges(omega, fp).grading
    ed = hermitian_eigs(h)
    exp = np.real(np.einsum("ij,ik,kj->j", ed.vectors.conj(), grading, ed.vectors))
    assert np.all(exp <= 1.0 + 1e-12)
    assert np.all(exp >= -1.0 - 1e-12)


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=0.5, max_value=10.0))
def test_broken_charges_close_for_any_frequency(omega):
    fp = FockParams(n_fock=16, buffer=4)
    ch = broken_supercharges(omega, fp)
    h = hamiltonian(ModelParams(0.0, omega, 0.0, 0.0), fp)
    np.testing.assert_allclose(2 * ch.q1 @ ch.q1, h, atol=1e-10)
    np.testing.assert_allclose(2 * ch.q2 @ ch.q2, h, atol=1e-10)


# Banded parity chains against the dense oracle.  The tolerance is fixed
# in advance: 1e-9 relative to max(1, |E|), far above double-precision
# solver error at these sizes.
CHAIN_RTOL = 1e-9

chain_cases = st.tuples(
    st.floats(min_value=0.0, max_value=10.0),  # omega_a
    st.floats(min_value=0.1, max_value=10.0),  # omega_b
    st.floats(min_value=0.0, max_value=10.0),  # g
    st.floats(min_value=0.0, max_value=1.0),  # c
    st.floats(min_value=-5.0, max_value=5.0),  # shift
    st.integers(min_value=8, max_value=48),  # n_fock
)


def case_params(case):
    omega_a, omega_b, g, c, shift, n = case
    return ModelParams(omega_a, omega_b, g, c), FockParams(n_fock=n, buffer=0), shift


def dense_case(case):
    p, fp, shift = case_params(case)
    return p, fp, shift, np.linalg.eigvalsh(hamiltonian(p, fp)) + shift


def assert_energies_close(got, want):
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    assert np.max(err) <= CHAIN_RTOL, f"max relative deviation {np.max(err):.3e}"


@settings(max_examples=60, deadline=None)
@given(chain_cases)
def test_parity_chains_full_spectrum_matches_dense(case):
    p, fp, shift, dense = dense_case(case)
    got = lowest_k(parity_chains(p, fp, shift), fp.total_dim)
    assert got.shape == dense.shape
    assert_energies_close(got, dense)


@settings(max_examples=60, deadline=None)
@given(chain_cases)
def test_parity_chains_lowest_seven_match_dense(case):
    p, fp, shift, dense = dense_case(case)
    assert_energies_close(lowest_k(parity_chains(p, fp, shift), 7), dense[:7])


def chain_matrix(band):
    """Full symmetric matrix of one chain from its lower banded storage."""
    n = band.shape[1]
    m = np.diag(band[0])
    for d in (1, 2):
        m += np.diag(band[d, : n - d], -d) + np.diag(band[d, : n - d], d)
    return m


@settings(max_examples=30, deadline=None)
@given(chain_cases)
def test_spectrum_is_union_of_the_two_chains(case):
    p, fp, shift, dense = dense_case(case)
    n = fp.n_fock
    levels = np.arange(n)
    # Chain 0 is |up,0>, |down,1>, |up,2>, ...; chain 1 starts at |down,0>.
    # Qubit-major index: s*N + n with s = 0 for up.
    idx = [levels + n * (levels % 2), levels + n * (1 - levels % 2)]
    h = hamiltonian(p, fp) + shift * np.eye(fp.total_dim)
    chains = parity_chains(p, fp, shift)
    for i in (0, 1):
        block = h[np.ix_(idx[i], idx[i])]
        scale = max(1.0, float(np.max(np.abs(block))))
        np.testing.assert_allclose(chain_matrix(chains.bands[i]), block.real,
                                   rtol=0, atol=1e-12 * scale)
        assert np.max(np.abs(block.imag)) == 0.0
    assert np.max(np.abs(h[np.ix_(idx[0], idx[1])])) == 0.0
    union = np.sort(np.concatenate(
        [np.linalg.eigvalsh(chain_matrix(band)) for band in chains.bands]))
    assert_energies_close(union, dense)


@settings(max_examples=10, deadline=None)
@given(chain_cases)
def test_parity_chains_reject_k_outside_dimension(case):
    p, fp, shift = case_params(case)
    for k in (fp.total_dim + 1, 0):
        with pytest.raises(ValidationError):
            lowest_k(parity_chains(p, fp, shift), k)


# Fast paths of the identity checks against their dense oracles.  The
# tolerances are fixed in advance: 1e-12 relative to max(1, |A|) for the
# norms, 1e-10 absolute for the Witten index.
NORM_RTOL = 1e-12
WITTEN_ATOL = 1e-10


@st.composite
def complex_with_index_set(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    re = draw(arrays(np.float64, (n, n), elements=reals))
    im = draw(arrays(np.float64, (n, n), elements=reals))
    idx = draw(st.lists(st.integers(min_value=0, max_value=n - 1), unique=True))
    return re + 1j * im, np.array(idx, dtype=int)


@settings(max_examples=60, deadline=None)
@given(complex_with_index_set())
def test_projected_norm_equals_dense_projector(case):
    a, idx = case
    p = np.zeros(a.shape)
    p[idx, idx] = 1.0
    want = np.linalg.norm(p @ a @ p, 2)
    assert abs(projected_norm(a, idx) - want) <= NORM_RTOL * max(1.0, want)


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, (7, 7), elements=reals),
       arrays(np.float64, (7, 7), elements=reals))
def test_hermitian_norm_equals_svd_norm(re, im):
    m = re + 1j * im
    h = m + m.conj().T
    want = np.linalg.norm(h, 2)
    assert abs(hermitian_norm(h) - want) <= NORM_RTOL * max(1.0, want)
    anti = m - m.conj().T
    if np.max(np.abs(anti)) > 1e-6:
        with pytest.raises(ContractViolationError):
            hermitian_norm(h + 1e-3 * anti)


witten_cases = st.tuples(
    st.floats(min_value=0.5, max_value=10.0),  # omega
    st.floats(min_value=0.0, max_value=2.0),  # g_max / omega
    st.floats(min_value=0.0, max_value=1.5),  # c
    st.floats(min_value=0.0, max_value=1.0),  # r
    st.integers(min_value=16, max_value=64),  # n_fock
    st.floats(min_value=2.0, max_value=10.0),  # beta * omega
)


@settings(max_examples=40, deadline=None)
@given(witten_cases)
def test_chain_witten_index_matches_dense(case):
    omega, g_ratio, c, r, n, beta_omega = case
    s = Schedule(omega=omega, g_max=g_ratio * omega, c=c)
    fp = FockParams(n_fock=n, buffer=n // 4)
    beta = beta_omega / omega
    grading = free_supercharges(omega, fp).grading
    try:
        dense = witten_index(h_total_r(s, r, fp), grading, beta)
    except InvalidBetaError:
        with pytest.raises(InvalidBetaError):
            witten_index(parity_chains_r(s, r, fp), None, beta)
        return
    chains = witten_index(parity_chains_r(s, r, fp), None, beta)
    assert abs(chains.index_value - dense.index_value) <= WITTEN_ATOL
    assert chains.rounded == dense.rounded
