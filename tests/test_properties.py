"""Property-based checks of the operator algebra and derived scalars."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from susyrabi.errors import InvalidBetaError, ValidationError
from susyrabi.fock import SZ, FockParams
from susyrabi.linalg import (
    band_matrix,
    band_times,
    banded_eigh,
    skew_tridiagonal_exp,
)
from susyrabi.model import (
    ModelParams,
    Schedule,
    chain_sz,
    mass_increment,
    parity_chains,
    renormalized_frequency,
    squeezed_chains,
)
from susyrabi.spectral import (
    DEGENERACY_TOL,
    WITTEN_TAIL_MAX,
    _group_end,
    _pair_norms,
    degeneracy_groups,
    graded_levels,
    lowest_k,
    required_n_fock,
    witten_index,
)
from susyrabi.transforms import _band_norm, _leading_norm

import oracle
from oracle import (
    _drop_negligible,
    broken_supercharges,
    free_supercharges,
    hamiltonian,
    hermitian_eigs,
    kron,
)

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
def test_eigendecomposition_reconstructs(re, im):
    m = re + 1j * im
    h = (m + m.conj().T) / 2
    values, vectors = hermitian_eigs(h)
    recon = (vectors * values) @ vectors.conj().T
    np.testing.assert_allclose(recon, h, atol=1e-10)
    assert np.all(np.diff(values) >= -1e-12)


def dense_exp(k):
    """exp(K) for real skew-symmetric K, the textbook way: V diag(e^(-i lam)) V^dag
    from the eigenpairs (lam, V) of the Hermitian iK."""
    lam, v = np.linalg.eigh(1j * k)
    return (v * np.exp(-1j * lam)) @ v.conj().T


# The real tridiagonal exponential against the dense one.  The tolerance
# is fixed in advance: 1e-13 absolute, entrywise.
@settings(max_examples=80, deadline=None)
@given(st.lists(reals, min_size=1, max_size=40))
def test_skew_tridiagonal_exp_matches_dense_exponential(e):
    e = np.array(e)
    k = np.diag(e, -1) - np.diag(e, 1)
    u = skew_tridiagonal_exp(e)
    assert u.dtype == np.float64
    np.testing.assert_allclose(u, dense_exp(k), rtol=0, atol=1e-13)


# The leading m columns, formed alone, against the full exponential's, for
# every m from 0 to n.  The tolerance is fixed in advance: 1e-14 absolute,
# entrywise (the products differ in shape, so BLAS may sum in another order).
@settings(max_examples=40, deadline=None)
@given(st.lists(reals, min_size=1, max_size=40))
@example(e=[0.0])
def test_skew_tridiagonal_exp_leading_columns_equal_the_full_ones(e):
    full = skew_tridiagonal_exp(np.array(e))
    for m in range(len(e) + 2):
        lead = skew_tridiagonal_exp(np.array(e), m)
        assert lead.shape == (len(e) + 1, m)
        np.testing.assert_allclose(lead, full[:, :m], rtol=0, atol=1e-14)


# The tridiagonal eigensolver (LAPACK dstevd) against scipy's
# lapack.dstevd and eig_banded (dsbevd, which runs the same divide and
# conquer and then multiplies by an identity Q): bitwise equal.  Against
# the dense eigh, tolerances fixed in advance: 1e-12 relative to
# max(1, |T|_2) for the eigenvalues and for
# |TV - V Lambda|_2, and 1e-12 absolute for |V^T V - 1|_2.  The dense
# eigenvalues are hermitian_eigs', which drops entries below rounding first:
# a raw eigvalsh puts the +/-2 of the pinned example with 1.46e-161 entries
# at +/-1.977.
TRIDIAGONAL_RTOL = 1e-12


@st.composite
def tridiagonal_bands(draw):
    """A (2, n) lower band, n in 1..64, whose diagonal is all zeros half the time."""
    n = draw(st.integers(min_value=1, max_value=64))
    band = draw(arrays(np.float64, (2, n), elements=reals))
    if draw(st.booleans()):
        band[0] = 0.0
    band[1, -1] = 0.0
    return band


@settings(max_examples=100, deadline=None)
@given(tridiagonal_bands())
@example(band=np.zeros((2, 1)))
@example(band=np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]]))
@example(band=np.array([[1.46434136e-161] * 4, [1.46434136e-161, 1.46434136e-161, 2.0, 0.0]]))
def test_banded_eigh_equals_eig_banded_and_dense_eigh(band):
    values, vectors = banded_eigh(band)
    n = band.shape[1]
    # banded_eigh calls the dstevd wrapper directly; so does lapack.dstevd.
    d_values, d_vectors, info = sla.lapack.dstevd(band[0], band[1, : max(n - 1, 1)])
    assert info == 0
    want_values, want_vectors = sla.eig_banded(band, lower=True)
    for want in (want_values, d_values):
        np.testing.assert_array_equal(values, want)
    for want in (want_vectors, d_vectors):
        np.testing.assert_array_equal(vectors, want)
    t = np.diag(band[0]) + np.diag(band[1, :-1], -1) + np.diag(band[1, :-1], 1)
    scale = max(1.0, np.linalg.norm(t, 2))
    assert np.max(np.abs(values - hermitian_eigs(t)[0])) <= TRIDIAGONAL_RTOL * scale
    assert np.linalg.norm(t @ vectors - vectors * values, 2) <= TRIDIAGONAL_RTOL * scale
    assert np.linalg.norm(vectors.T @ vectors - np.eye(n), 2) <= TRIDIAGONAL_RTOL


# Norms of real (k, n, n) stacks: _leading_norm, of the whole stack and of
# a leading cut x cut block, against the Frobenius norm of the stack from
# math.hypot, which neither overflows nor underflows (numpy's squares
# underflow at the stacks' 1e-100 scale).  The tolerance is fixed in
# advance: 1e-12 relative to math.hypot's norm, and exactly 0 for a zero
# stack.
STACK_RTOL = 1e-12


@st.composite
def real_stacks(draw):
    """A real (k, n, n) stack, k in 1..3, n in 1..12, symmetric or not, scaled
    by 10**e, e in -100..100, with a random share of exact zeros."""
    k = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=12))
    m = draw(arrays(np.float64, (k, n, n), elements=reals))
    keep = draw(arrays(np.bool_, (k, n, n)))
    if draw(st.booleans()):
        m, keep = m + m.transpose(0, 2, 1), keep & keep.transpose(0, 2, 1)
    scale = 10.0 ** draw(st.integers(min_value=-100, max_value=100))
    return scale * m * keep


def frobenius(a):
    """The Frobenius norm of a, from math.hypot."""
    return math.hypot(*np.ravel(a))


def assert_stack_norm(stack):
    want = frobenius(stack)
    got = _leading_norm(stack.copy())
    if want == 0.0:
        assert got == 0.0
    else:
        assert abs(got - want) <= STACK_RTOL * want, (got, want)


@settings(max_examples=80, deadline=None)
@given(real_stacks(), st.data())
def test_stack_norms_equal_frobenius_norm(stack, data):
    assert_stack_norm(stack)
    cut = data.draw(st.integers(min_value=1, max_value=stack.shape[1]))
    assert_stack_norm(stack[:, :cut, :cut])


# The closed-form largest singular value of 2 x 2 blocks against numpy's
# SVD.  The tolerance is fixed in advance: 1e-14 relative to the SVD
# value, and exactly 0 for a zero block.
PAIR_RTOL = 1e-14


def assert_pair_norms(stack):
    got = _pair_norms(stack)
    want = np.linalg.svd(stack, compute_uv=False)[:, 0]
    assert got.shape == want.shape
    np.testing.assert_array_equal(got[want == 0.0], 0.0)
    nonzero = want > 0.0
    assert np.all(np.abs(got - want)[nonzero] <= PAIR_RTOL * want[nonzero]), (got, want)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.booleans(), st.data())
def test_pair_norms_equal_svd(n, complex_, data):
    stack = data.draw(arrays(np.float64, (n, 2, 2), elements=reals))
    if complex_:
        stack = stack + 1j * data.draw(arrays(np.float64, (n, 2, 2), elements=reals))
    exponents = data.draw(arrays(np.int64, (n,), elements=st.integers(-170, 150)))
    assert_pair_norms(stack * (10.0 ** exponents.astype(float))[:, None, None])


def test_pair_norms_on_special_blocks():
    rot = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
    unitary = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2.0)
    u, v = np.array([1.0, -2.0]), np.array([0.5, 3.0])
    blocks = [
        2.0 * np.eye(2),  # equal singular values
        3.0 * rot,
        np.outer(u, v),  # rank 1
        np.outer(u + 1j * v, v - 2j * u),
        np.zeros((2, 2)),
        np.array([[1.0, 0.0], [0.0, 0.0]]),
    ]
    for scale in (1.0, 1e-170, 3e-170, 1e150, 7e150):
        real = np.stack([b * scale for b in blocks if np.isrealobj(b)])
        assert_pair_norms(real)
        assert_pair_norms(np.stack([b * scale for b in blocks] + [unitary * scale]))
        # Entries near 1e-170 beside entries near 1e150 in one stack.
        assert_pair_norms(np.stack([rot * 1e-170, rot * 1e150, np.outer(u, v) * scale]))


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


def oracle_groups(energies, tol):
    """Every degeneracy group of ascending energies, one gap at a time."""
    groups = []
    start = 0
    for i in range(1, energies.size):
        if energies[i] - energies[i - 1] > tol * max(1.0, abs(energies[i])):
            groups.append((start, i - start))
            start = i
    groups.append((start, energies.size - start))
    return tuple(groups)


def oracle_witten_k(values, k):
    """k cut to the dimension, then moved to the end of the group it splits."""
    k = min(k, values.size)
    for start, size in oracle_groups(values, DEGENERACY_TOL):
        if start < k < start + size:
            k = min(start + size, values.size)
    return k


def planted_levels(e0, factors):
    """Ascending levels from e0 with gaps factor * max(1, |E|) before each E."""
    values = [e0]
    for f in factors:
        values.append(values[-1] + f * max(1.0, abs(values[-1])))
    return np.array(values)


# Gaps at zero, far below, at and far above the degeneracy tolerance.
planted_cases = st.tuples(
    st.floats(min_value=-10.0, max_value=10.0),
    st.lists(st.sampled_from([0.0, 1e-9, 1e-6, 1e-4]), max_size=11),
)


@settings(max_examples=100, deadline=None)
@given(planted_cases)
def test_group_joins_match_the_all_groups_oracle(case):
    e0, factors = case
    for values in (planted_levels(e0, factors), planted_levels(e0 + 30.0, factors)):
        groups = oracle_groups(values, DEGENERACY_TOL)
        assert degeneracy_groups(values, DEGENERACY_TOL) == groups
        # The ground group, as pair_algebra_report reads it.
        assert _group_end(values, 1) == groups[0][1]
        for k in range(1, values.size + 2):
            assert _group_end(values, min(k, values.size)) == oracle_witten_k(values, k)

    # witten_index end to end: the planted levels sit where -sz is +1 on
    # diagonal chains (chain 0 odd, chain 1 even positions), every other
    # position far above them, so the index is the Boltzmann sum of the
    # lowest k levels and the tail is the weight of level k - 1.
    planted = planted_levels(e0 + 30.0, factors)
    m = planted.size
    positions = [(1 - n % 2, n) for n in range(m)]  # (chain, position) with -sz = +1
    diag = 1e6 + np.arange(2 * m, dtype=float).reshape(2, m)
    for (chain, n), e in zip(positions, planted):
        diag[chain, n] = e
    bands = np.zeros((2, 2, m))
    bands[:, 0] = diag
    values = np.sort(diag.ravel())
    levels = graded_levels(bands)
    for k in range(1, m + 1):
        rep = witten_index(levels, 1.0, k=k)
        k_want = oracle_witten_k(values, k)
        assert rep.index_value == pytest.approx(np.sum(np.exp(-planted[:k_want])), rel=1e-12)
        assert rep.truncation_tail == pytest.approx(math.exp(-planted[k_want - 1]), rel=1e-12)


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
    _, vectors = hermitian_eigs(h)
    exp = np.real(np.einsum("ij,ik,kj->j", vectors.conj(), grading, vectors))
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
    got = lowest_k(parity_chains(replace(p, shift=shift), fp), 2 * fp.n_fock)
    assert got.shape == dense.shape
    assert_energies_close(got, dense)


@settings(max_examples=60, deadline=None)
@given(chain_cases)
def test_parity_chains_lowest_seven_match_dense(case):
    p, fp, shift, dense = dense_case(case)
    assert_energies_close(lowest_k(parity_chains(replace(p, shift=shift), fp), 7), dense[:7])


def chain_matrix(band):
    """Full symmetric matrix of one chain from its lower banded storage."""
    n = band.shape[1]
    m = np.diag(band[0])
    for d in range(1, band.shape[0]):
        m += np.diag(band[d, : n - d], -d) + np.diag(band[d, : n - d], d)
    return m


def parity_order(fp):
    """Basis indices of chain 0 followed by those of chain 1.

    Chain position n holds Fock level n: on chain 0 with spin up for even
    n and down for odd n, on chain 1 the other way round (see
    model.parity_chains).
    """
    n = np.arange(fp.n_fock)
    flip = n % 2
    return np.concatenate([flip * fp.n_fock + n, (1 - flip) * fp.n_fock + n])


@pytest.mark.parametrize("n_fock", [8, 9])
def test_chain_sz_is_the_sz_diagonal_in_chain_order(n_fock):
    fp = FockParams(n_fock=n_fock, buffer=0)
    sz = np.diag(oracle.embed_qubit(SZ, fp))[parity_order(fp)]
    np.testing.assert_array_equal(chain_sz(n_fock).ravel(), sz)


@settings(max_examples=30, deadline=None)
@given(chain_cases)
def test_spectrum_is_union_of_the_two_chains(case):
    p, fp, shift, dense = dense_case(case)
    n = fp.n_fock
    levels = np.arange(n)
    # Chain 0 is |up,0>, |down,1>, |up,2>, ...; chain 1 starts at |down,0>.
    # Qubit-major index: s*N + n with s = 0 for up.
    idx = [levels + n * (levels % 2), levels + n * (1 - levels % 2)]
    h = hamiltonian(p, fp) + shift * np.eye(2 * fp.n_fock)
    chains = parity_chains(replace(p, shift=shift), fp)
    for i in (0, 1):
        block = h[np.ix_(idx[i], idx[i])]
        scale = max(1.0, float(np.max(np.abs(block))))
        np.testing.assert_allclose(chain_matrix(chains[i]), block.real,
                                   rtol=0, atol=1e-12 * scale)
        assert np.max(np.abs(block.imag)) == 0.0
    assert np.max(np.abs(h[np.ix_(idx[0], idx[1])])) == 0.0
    union = np.sort(np.concatenate(
        [np.linalg.eigvalsh(chain_matrix(band)) for band in chains]))
    assert_energies_close(union, dense)


@settings(max_examples=30, deadline=None)
@given(chain_cases)
def test_squeezed_chains_are_parity_blocks_of_squeezed_rabi_h(case):
    # The squeezed frame is the Rabi Hamiltonian at (omega_g, g_tilde), c = 0.
    p, fp, shift = case_params(case)
    omega_g, g_tilde = renormalized_frequency(p.omega_b, p.c, p.g)
    h = hamiltonian(ModelParams(p.omega_a, omega_g, g_tilde, 0.0), fp)
    h = h + shift * np.eye(2 * fp.n_fock)
    chains = squeezed_chains(replace(p, shift=shift), fp)
    assert chains.shape == (2, 2, fp.n_fock)
    for band, idx in zip(chains, np.split(parity_order(fp), 2)):
        block = h[np.ix_(idx, idx)]
        scale = max(1.0, float(np.max(np.abs(block))))
        np.testing.assert_allclose(chain_matrix(band), block, rtol=0, atol=1e-12 * scale)


@settings(max_examples=30, deadline=None)
@given(chain_cases)
def test_chain_matrices_are_the_band_storage(case):
    # band_matrix of one band, and of the stacked (2, rows, N) chains.
    p, fp, shift = case_params(case)
    chains = parity_chains(replace(p, shift=shift), fp)
    stacked = band_matrix(chains)
    assert stacked.shape == (2, fp.n_fock, fp.n_fock)
    for band, m in zip(chains, stacked):
        np.testing.assert_array_equal(m, chain_matrix(band))
        np.testing.assert_array_equal(band_matrix(band), chain_matrix(band))


# _band_norm against numpy's Frobenius norm of the leading block, of one
# band and of a stack of two together; the entries band[d, N - d:], outside
# the matrix, are drawn too.  The tolerance is fixed in advance: 1e-12
# relative to max(1, the dense norm).
BANDED_NORM_RTOL = 1e-12


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=2, max_value=3), st.integers(min_value=2, max_value=16),
       st.data())
def test_band_norm_equals_dense_leading_block_norm(rows, n, data):
    bands = data.draw(arrays(np.float64, (2, rows, n), elements=reals))
    full = band_matrix(bands)
    for cut in range(1, n + 1):
        want = np.linalg.norm(full[0, :cut, :cut])
        assert abs(_band_norm(bands[0], cut) - want) <= BANDED_NORM_RTOL * max(1.0, want)
        want = np.linalg.norm(full[:, :cut, :cut])
        assert abs(_band_norm(bands, cut) - want) <= BANDED_NORM_RTOL * max(1.0, want)


# band_times against the dense product with the chains' full matrices.  The
# tolerance is fixed in advance: 1e-14 relative to |A| |x| entrywise, about
# 45 ulp of the largest term in a sum of at most five.
BAND_TIMES_RTOL = 1e-14


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=2, max_value=3), st.integers(min_value=1, max_value=16),
       st.data())
def test_band_times_equals_dense_product(rows, n, data):
    bands = data.draw(arrays(np.float64, (2, rows, n), elements=reals))
    k = data.draw(st.integers(min_value=1, max_value=n))
    x = data.draw(arrays(np.float64, (n, k), elements=reals))
    full = band_matrix(bands)
    bound = BAND_TIMES_RTOL * (np.abs(full) @ np.abs(x))
    got = band_times(bands, x)
    assert got.shape == (2, n, k)
    assert np.all(np.abs(got - full @ x) <= bound)
    # One band against a stack of column blocks broadcasts the same way.
    assert np.all(np.abs(band_times(bands[0], np.stack([x, -x]))[1] + full[0] @ x) <= bound[0])


# Squeezed chains at the truncation required_n_fock sizes against the
# pentadiagonal chains at eight times that truncation.  The tolerance is
# fixed in advance: 1e-11 relative to max(1, |E|); the largest deviation
# seen over the range is about 1e-12, the reference chains' own error.
SQUEEZE_RTOL = 1e-11
OMEGA = 6.2832


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0),  # omega_a / omega
       st.floats(min_value=0.0, max_value=5.0),  # g / omega
       st.floats(min_value=0.0, max_value=1.5))  # c
def test_squeezed_chains_match_converged_pentadiagonal_chains(wa_ratio, g_ratio, c):
    p = ModelParams(wa_ratio * OMEGA, OMEGA, g_ratio * OMEGA, c)
    n = required_n_fock(OMEGA, c, p.g, n_min=128)
    got = lowest_k(squeezed_chains(p, FockParams(n_fock=n, buffer=0)), 8)
    want = lowest_k(parity_chains(p, FockParams(n_fock=8 * n, buffer=0)), 8)
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= SQUEEZE_RTOL


@settings(max_examples=10, deadline=None)
@given(chain_cases)
def test_parity_chains_reject_k_outside_dimension(case):
    p, fp, shift = case_params(case)
    for k in (2 * fp.n_fock + 1, 0):
        with pytest.raises(ValidationError):
            lowest_k(parity_chains(replace(p, shift=shift), fp), k)


# lowest_k's lazy merge of two chains against the sorted union of both
# chains' dense eigenvalues, for every k in 1..2N.  The tolerance is fixed
# in advance: 1e-12 relative to max(1, the largest |E|).
MERGE_RTOL = 1e-12


@st.composite
def synthetic_chains(draw):
    """Two tri- or pentadiagonal chains of n in 1..16 levels: independent,
    one shifted 100 above the other (which forces the merge to extend the
    lower one), diagonal with repeated integer levels (as at r = 0), or
    identical (as at r = 1)."""
    rows = draw(st.integers(min_value=2, max_value=3))
    n = draw(st.integers(min_value=1, max_value=16))
    bands = draw(arrays(np.float64, (2, rows, n), elements=reals))
    shape = draw(st.sampled_from(["independent", "shifted", "repeated", "identical"]))
    if shape == "shifted":
        bands[draw(st.integers(min_value=0, max_value=1)), 0] += 100.0
    elif shape == "repeated":
        bands[:, 1:] = 0.0
        bands[:, 0] = np.round(bands[:, 0])
    elif shape == "identical":
        bands[1] = bands[0]
    return bands


def subnormal_chains():
    """Bands of 2^-1023 entries with one 1.0: raw, dsbevx did not converge on
    them (info 2) at k = 4, 7 and 8."""
    bands = np.full((2, 3, 5), 2.0**-1023)
    bands[0, 2, 1] = 1.0
    return bands


@settings(max_examples=150, deadline=None)
@given(synthetic_chains())
@example(subnormal_chains())
def test_lowest_k_equals_sorted_dense_union(chains):
    union = np.sort(np.linalg.eigvalsh(band_matrix(chains)).ravel())
    scale = max(1.0, float(np.abs(union).max()))
    for k in range(1, 2 * chains.shape[-1] + 1):
        got = lowest_k(chains, k)
        assert got.shape == (k,)
        assert np.max(np.abs(got - union[:k])) <= MERGE_RTOL * scale, k


# Fast paths of the identity checks against their dense oracles.  The
# tolerances are fixed in advance: 1e-12 relative to max(1, |A|) for the
# norms, 1e-10 absolute for the Witten index.
NORM_RTOL = 1e-12
WITTEN_ATOL = 1e-10


# The residual norm (_leading_norm) of real symmetric block-diagonal
# matrices against their Frobenius norm from math.hypot (numpy's squares
# underflow on the entries near 1e-287 that the matrices can hold).  The
# tolerance is fixed in advance: 1e-12 relative to the dense norm, and
# exactly 0 for a zero matrix.
BLOCK_RTOL = 1e-12


def assert_same_norm(got, want):
    if want == 0.0:
        assert got == 0.0
    else:
        assert abs(got - want) <= BLOCK_RTOL * want


@st.composite
def permuted_block_diagonal(draw):
    """A symmetrically permuted direct sum of real blocks.

    Entries are x * 10**e with x in [-1, 1] and e in [-16, 2], and a
    random share of them is exactly zero.
    """
    sizes = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6))
    n = sum(sizes)
    a = np.zeros((n, n))
    start = 0
    for m in sizes:
        x = draw(arrays(np.float64, (m, m), elements=st.floats(-1.0, 1.0)))
        exp = draw(arrays(np.float64, (m, m), elements=st.floats(-16.0, 2.0)))
        keep = draw(arrays(np.bool_, (m, m)))
        a[start:start + m, start:start + m] = x * 10.0**exp * keep
        start += m
    perm = np.array(draw(st.permutations(range(n))))
    return a[np.ix_(perm, perm)]


@settings(max_examples=80, deadline=None)
@given(permuted_block_diagonal())
def test_block_norms_equal_dense_norm(a):
    h = a + a.T
    assert_same_norm(_leading_norm(h[None].copy()), frobenius(h))


@pytest.mark.parametrize("a", [
    np.zeros((5, 5)),
    np.diag([0.5, -3.0, 0.0, 2.0]),
    np.random.default_rng(5).normal(size=(9, 9)) + 1.0,
    np.array([[0.0, 0.3], [0.0, 0.0]]),
])
def test_block_norms_on_special_matrices(a):
    h = a + a.T
    assert_same_norm(_leading_norm(h[None].copy()), frobenius(h))


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
    # The chains the Witten index solves are tridiagonal, those of the
    # squeezed frame; at N down to 16 they differ from H's own truncation,
    # so the dense oracle is H of the squeezed-frame point, the same matrix.
    omega, g_ratio, c, r, n, beta_omega = case
    p = Schedule(omega=omega, g_max=g_ratio * omega, c=c).params(r)
    omega_g, g_tilde = renormalized_frequency(p.omega_b, p.c, p.g)
    frame = replace(p, omega_b=omega_g, g=g_tilde, c=0.0)
    fp = FockParams(n_fock=n, buffer=n // 4)
    beta = beta_omega / omega
    levels = graded_levels(squeezed_chains(p, fp))
    try:
        ref = witten_index(oracle.graded_levels(hamiltonian(frame, fp)), beta)
    except InvalidBetaError:
        with pytest.raises(InvalidBetaError):
            witten_index(levels, beta)
        return
    chains = witten_index(levels, beta)
    assert abs(chains.index_value - ref.index_value) <= WITTEN_ATOL
    assert chains.rounded == ref.rounded


# Block eigensolves against scipy's dense solvers.  The tolerances are
# fixed in advance: 1e-12 relative to max(1, |A|_2) for the eigenvalues and
# for |AV - V Lambda|_2, and 1e-12 absolute for |V^dag V - 1|_2.
EIG_TOL = 1e-12


@st.composite
def permuted_block_hermitian(draw):
    """A symmetrically permuted direct sum of Hermitian blocks W diag(lam) W^dag.

    Block sizes are mixed (1 to 5), a block may repeat the previous one,
    and the eigenvalues are drawn from a few fixed values (0 included) or
    freely from [-2, 2], so levels are degenerate within and across
    blocks.  W is a seeded random unitary.
    """
    level = st.one_of(st.sampled_from([0.0, 0.5, -1.5, 2.0]), st.floats(-2.0, 2.0))
    blocks = []
    for m in draw(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=6)):
        if blocks and blocks[-1].shape[0] == m and draw(st.booleans()):
            blocks.append(blocks[-1])
            continue
        lam = np.array(draw(st.lists(level, min_size=m, max_size=m)))
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        w, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
        blocks.append((w * lam) @ w.conj().T)
    a = sla.block_diag(*blocks)
    a = (a + a.conj().T) / 2
    perm = np.array(draw(st.permutations(range(a.shape[0]))))
    return a[np.ix_(perm, perm)]


@settings(max_examples=80, deadline=None)
@given(permuted_block_hermitian())
def test_block_hermitian_eigs_match_dense(a):
    n = a.shape[0]
    scale = max(1.0, np.linalg.norm(a, 2))
    values, vectors = hermitian_eigs(a)
    assert np.max(np.abs(values - sla.eigh(a, eigvals_only=True))) <= EIG_TOL * scale
    assert np.linalg.norm(a @ vectors - vectors * values, 2) <= EIG_TOL * scale
    assert np.linalg.norm(vectors.conj().T @ vectors - np.eye(n), 2) <= EIG_TOL


# Real input stays real.  The tolerance is fixed in advance: 1e-12
# relative to max(1, the complex call's value) for the eigenvalues.
REAL_RTOL = 1e-12


@st.composite
def real_with_zeros(draw):
    """A real n x n matrix with a random share of exact zeros."""
    n = draw(st.integers(min_value=1, max_value=12))
    a = draw(arrays(np.float64, (n, n), elements=reals))
    return a * draw(arrays(np.bool_, (n, n)))


def tiny_entries_beside_unit_ones():
    """Entries near 1e-175 beside O(1) ones: LAPACK's Hermitian solvers
    returned sqrt(6) + 5e-7 for the complex copy of this matrix."""
    a = np.full((10, 10), 5.23891913e-175)
    a[0, 1], a[0, 4], a[1, 6], a[5, 4] = 1.0, 2.0, 1.0, 1.0
    return a


@settings(max_examples=60, deadline=None)
@given(real_with_zeros())
@example(a=tiny_entries_beside_unit_ones())
def test_real_input_matches_complex_call(a):
    h = a + a.T
    values, vectors = hermitian_eigs(h)
    want = hermitian_eigs(h.astype(complex))[0]
    assert vectors.dtype == np.float64
    assert np.max(np.abs(values - want)) <= REAL_RTOL * max(1.0, np.max(np.abs(want)))


@st.composite
def symmetric_with_zeros(draw):
    """A real symmetric n x n matrix with a random share of exact zeros."""
    n = draw(st.integers(min_value=1, max_value=12))
    m = draw(arrays(np.float64, (n, n), elements=reals))
    keep = draw(arrays(np.bool_, (n, n)))
    return (m + m.T) * (keep & keep.T)


@settings(max_examples=80, deadline=None)
@given(symmetric_with_zeros())
@example(h=tiny_entries_beside_unit_ones() + tiny_entries_beside_unit_ones().T)
def test_block_hermitian_norm_equals_dense_norm(h):
    want = frobenius(h)
    assert abs(_leading_norm(h[None].copy()) - want) <= NORM_RTOL * max(1.0, want)


# _leading_norm divides and squares its argument in place: it gives the
# bits of the out-of-place form big sqrt(sum((B / big)^2)), big = max|B|.
@settings(max_examples=80, deadline=None)
@given(real_stacks())
@example(stack=tiny_entries_beside_unit_ones()[None])
def test_in_place_norm_steps_keep_every_bit(stack):
    big = np.abs(stack).max(initial=0.0)
    want = float(big * np.sqrt(np.sum((stack / big) ** 2))) if big else 0.0
    assert _leading_norm(stack.copy()) == want


# The oracle's _drop_negligible zeroes the small entries of its argument in
# place: it gives the bits of the out-of-place form np.where(small, 0.0, A).
@settings(max_examples=80, deadline=None)
@given(real_stacks())
@example(stack=tiny_entries_beside_unit_ones()[None])
def test_drop_negligible_zeroes_in_place_bit_for_bit(stack):
    small = np.zeros(stack.shape, dtype=bool)
    if stack.size:
        small = np.abs(stack) < np.finfo(np.float64).eps * np.abs(stack).max() / stack.shape[-1]
    want = np.where(small, 0.0, stack)
    got = stack.copy()
    assert _drop_negligible(got) is got
    assert got.tobytes() == want.tobytes()


# Adding levels k..K-1 to a sum that passed its tail check at level k-1
# moves it by at most (K - k) * WITTEN_TAIL_MAX, since each of their
# Boltzmann weights is at most that tail; fixed in advance as 2N times it.
squeezed_witten_cases = st.tuples(
    st.floats(min_value=0.5, max_value=10.0),  # omega
    st.floats(min_value=0.0, max_value=2.0),  # g_max / omega
    st.floats(min_value=0.0, max_value=1.5),  # c
    st.floats(min_value=0.0, max_value=1.0),  # r
    st.integers(min_value=48, max_value=128),  # n_fock
    st.floats(min_value=2.0, max_value=10.0),  # beta * omega
)


@settings(max_examples=40, deadline=None)
@given(squeezed_witten_cases)
def test_squeezed_witten_index_stable_in_k(case):
    omega, g_ratio, c, r, n, beta_omega = case
    s = Schedule(omega=omega, g_max=g_ratio * omega, c=c)
    fp = FockParams(n_fock=n, buffer=n // 4)
    levels = graded_levels(squeezed_chains(s.params(r), fp))
    beta = beta_omega / omega
    try:
        first = witten_index(levels, beta, k=60)
    except InvalidBetaError:
        assume(False)
    tol = 2 * n * WITTEN_TAIL_MAX
    for k in (90, 2 * n):
        rep = witten_index(levels, beta, k=k)
        assert abs(rep.index_value - first.index_value) <= tol
        assert rep.rounded == first.rounded
