"""Spectral flows, degeneracy grouping, Witten index, algebra reports."""

import dataclasses
import math

import numpy as np
import pytest

from susyrabi import spectral
from susyrabi.errors import DimensionError, InvalidBetaError, TruncationError, ValidationError
from susyrabi.fock import (
    S_MINUS,
    S_PLUS,
    SZ,
    FockParams,
)
from susyrabi.linalg import band_matrix
from susyrabi.model import (
    ModelParams,
    Schedule,
    chain_sz,
    charge_pairs,
    parity_chains,
    renormalized_frequency,
    self_energy,
    squeezed_chains,
)
from susyrabi.output import emit_flow_csv
from susyrabi.spectral import (
    degeneracy_groups,
    goldstino_check,
    graded_levels,
    lowest_k,
    pair_algebra_report,
    required_n_fock,
    spectral_flow,
    sweep_params_g,
    truncation_convergence,
    witten_index,
)

import oracle
from oracle import (
    SX,
    broken_supercharges,
    embed_qubit,
    free_supercharges,
    h_total_r,
    hamiltonian,
    interior_projector,
    kron,
    make_operators,
    susy_algebra_report,
    sweep_hamiltonian_g,
)

OMEGA = 6.2832


def test_lowest_k_orders_and_bounds(fp_small):
    # Diagonal chains (3, 2) and (-1, 5): a 4-dimensional H.
    h = np.array([[[3.0, 2.0], [0.0, 0.0]], [[-1.0, 5.0], [0.0, 0.0]]])
    np.testing.assert_allclose(lowest_k(h, 2), [-1.0, 2.0])
    for k in (5, 0, -1):
        with pytest.raises(ValidationError):
            lowest_k(h, k)
    # The dense oracle's mirror orders a complex matrix the same way.
    h = np.diag([3.0, -1.0, 2.0]).astype(complex)
    np.testing.assert_allclose(oracle.lowest_levels(h, 2), [-1.0, 2.0])


def test_lowest_k_extends_only_the_chain_below_the_cut(monkeypatch):
    # Chain 1 lies 100 above chain 0, so the lowest k levels all come from
    # chain 0: after ceil(k/2) levels of each chain, chain 0 alone is
    # extended to min(k, N).  Identical chains (as at r = 1) are solved
    # once and need no extension.  Each banded_lowest call is recorded as
    # (m, start).
    calls = []
    solve = spectral.banded_lowest

    def recorder(band, m, start=0):
        calls.append((m, start))
        return solve(band, m, start)

    monkeypatch.setattr(spectral, "banded_lowest", recorder)
    n = 12
    band = np.zeros((2, n))
    band[0] = np.arange(n, dtype=float)
    band[1, :-1] = 0.3
    far = band + [[100.0], [0.0]]
    shifted, identical = np.stack([band, far]), np.stack([band, band])
    want = np.sort(np.linalg.eigvalsh(band_matrix(shifted)).ravel())
    for k in (1, 2, 7, 12, 13, 24):
        m = (k + 1) // 2
        calls.clear()
        np.testing.assert_allclose(lowest_k(shifted, k), want[:k], rtol=0, atol=1e-12)
        extended = [(min(k, n), m)] if m < min(k, n) else []
        assert calls == [(m, 0), (m, 0)] + extended, (k, calls)
        calls.clear()
        np.testing.assert_allclose(lowest_k(identical, k), np.repeat(want[:n], 2)[:k],
                                   rtol=0, atol=1e-12)
        assert calls == [(m, 0)], (k, calls)


@pytest.mark.parametrize("c", [0.0, 0.2513, 1.257])
def test_equal_chains_are_solved_once_with_the_bits_of_two_solves(c, monkeypatch):
    # At r = 1, omega_a = 0 and the two squeezed chains are equal: lowest_k
    # and graded_levels each make one solver call there, two at r = 0, and
    # return bitwise what two independent solves of the chains give, merged
    # as their docstrings say.
    fp = FockParams(n_fock=64, buffer=16)
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=c)
    calls = []

    def counted(solve):
        def recorder(*args, **kwargs):
            calls.append(solve.__name__)
            return solve(*args, **kwargs)
        return recorder

    lowest, eigh = spectral.banded_lowest, spectral.banded_eigh
    monkeypatch.setattr(spectral, "banded_lowest", counted(lowest))
    monkeypatch.setattr(spectral, "banded_eigh", counted(eigh))
    for r, solves in ((1.0, 1), (0.0, 2)):
        h = squeezed_chains(s.params(r), fp)
        assert np.array_equal(h[0], h[1]) == (r == 1.0)
        for k in (1, 6, 7):
            calls.clear()
            got = lowest_k(h, k)
            # Unequal chains make two solves and maybe one extension.
            assert calls[:2] == ["banded_lowest"] * solves, (r, k, calls)
            if r == 1.0:
                assert len(calls) == 1, (k, calls)
                two = np.concatenate([lowest(band, (k + 1) // 2) for band in h])
                assert np.array_equal(got, np.sort(two)[:k])
        calls.clear()
        values, expectations = graded_levels(h)
        assert calls == ["banded_eigh"] * solves, (r, calls)
        pairs = [eigh(band) for band in h]
        want_values = np.concatenate([vals for vals, _ in pairs])
        order = np.argsort(want_values, kind="stable")
        want_expectations = np.concatenate(
            [grading @ vectors**2 for grading, (_, vectors) in zip(-chain_sz(64), pairs)])
        assert np.array_equal(values, want_values[order])
        assert np.array_equal(expectations, want_expectations[order])


def test_degeneracy_groups_basic():
    e = np.array([0.0, 1.0, 1.0 + 1e-9, 2.5])
    assert degeneracy_groups(e, 1e-6) == ((0, 1), (1, 2), (3, 1))
    assert degeneracy_groups(np.array([5.0]), 1e-6) == ((0, 1),)
    assert degeneracy_groups(np.array([]), 1e-6) == ()


def test_degeneracy_groups_shift_invariance():
    e = np.array([0.0, 1e-8, 1.0, 2.0, 2.0 + 1e-8])
    base = degeneracy_groups(e, 1e-6)
    shifted = degeneracy_groups(e + 0.37, 1e-6)
    assert base == shifted == ((0, 2), (2, 1), (3, 2))


def test_degeneracy_groups_rejects_descending():
    with pytest.raises(ValidationError):
        degeneracy_groups(np.array([1.0, 0.0]))


def flow_r(s, grid, k, fp):
    """The r-sweep of s over grid, as the sweep command builds it."""
    return spectral_flow(grid, [s.params(r) for r in grid], "r_sweep", k, fp)


def flow_g(omega, c, grid, k, fp):
    """The coupling sweep over grid, as the sweep command builds it."""
    return spectral_flow(grid, [sweep_params_g(omega, c, g) for g in grid], "g_sweep", k, fp)


def test_spectral_flow_r_structure(fp_mid):
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=0.0)
    grid = np.linspace(0.0, 1.0, 5)
    flow = flow_r(s, grid, 7, fp_mid)
    assert flow.sweep_kind == "r_sweep"
    assert len(flow.tables) == 5
    # r=0 endpoint: SUSY pattern 1,2,2,2 ; ground exactly zero.
    t0 = flow.tables[0]
    assert t0.energies[0] == pytest.approx(0.0, abs=1e-9)
    assert tuple(size for _, size in t0.groups) == (1, 2, 2, 2)


def test_spectral_flow_grid_validation(fp_small):
    s = Schedule(omega=OMEGA, g_max=OMEGA)
    with pytest.raises(ValidationError, match="strictly increasing"):
        flow_r(s, [0.5, 0.5], 3, fp_small)
    with pytest.raises(ValidationError, match="non-empty"):
        flow_r(s, [], 3, fp_small)
    with pytest.raises(ValidationError, match="one point per value"):
        spectral_flow([0.0, 0.5], [s.params(0.0)], "r_sweep", 3, fp_small)
    # The range checks are the points' own: Schedule.params for r, self_energy for g.
    with pytest.raises(ValidationError, match=r"r must lie in \[0, 1\]"):
        flow_r(s, [0.0, 1.2], 3, fp_small)
    with pytest.raises(ValidationError, match="must be non-negative"):
        flow_g(OMEGA, 0.0, [-1.0, 0.0], 3, fp_small)


def test_required_n_fock_grows_with_coupling():
    base = required_n_fock(OMEGA, 0.0, 0.0)
    strong = required_n_fock(OMEGA, 0.0, 5.0 * OMEGA)
    assert base == 8
    assert strong == 256
    # A positive A^2 coefficient tames the displacement.
    assert required_n_fock(OMEGA, 0.2513, 5.0 * OMEGA) <= strong
    # Power of two at or above the floor.
    assert required_n_fock(OMEGA, 0.0, 2.0, n_min=100) == 100


def test_spectral_flow_g_auto_truncation():
    fp = FockParams(n_fock=64, buffer=16)
    flow = flow_g(OMEGA, 0.0, [0.0, 2 * OMEGA, 5 * OMEGA], 6, fp)
    assert flow.sweep_kind == "g_sweep"
    # Truncation was raised for the strong-coupling points.
    assert flow.tables[0].n_fock_used == 64
    assert flow.tables[-1].n_fock_used == 256
    # g=0: SUSY pattern with zero ground energy.
    assert flow.tables[0].energies[0] == pytest.approx(0.0, abs=1e-9)
    # g = 5 omega: three quasi-degenerate pairs near omega*(n+1/2).
    vals = flow.tables[-1].energies
    assert abs(vals[1] - vals[0]) < 1e-4 * OMEGA
    target = np.repeat(OMEGA * (np.arange(3) + 0.5), 2)
    assert np.max(np.abs(vals - target)) < 1e-2 * OMEGA


def test_spectral_flow_g_writes_required_n_fock(tmp_path):
    # Each point's n_fock column holds the N it was solved at.
    fp = FockParams(n_fock=64, buffer=16)
    grid = [0.0, 2 * OMEGA, 4 * OMEGA, 5 * OMEGA]
    path = tmp_path / "g.csv"
    emit_flow_csv(flow_g(OMEGA, 0.0, grid, 3, fp), path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    want = [required_n_fock(OMEGA, 0.0, g, n_min=64) for g in grid]
    assert want == [64, 64, 128, 256]
    assert [int(row[6]) for row in rows] == [n for n in want for _ in range(3)]


def test_r_sweep_sizes_each_point_as_the_coupling_sweep_does():
    # At g_max = 14 omega, c = 0 the r = 1 point (beta = 14) needs N = 2048.  Solved at
    # the configured 256 instead, its level 6 read 22.705 against the exact 21.991.
    fp = FockParams(n_fock=256, buffer=64)
    flow = flow_r(Schedule(OMEGA, 87.9648, 0.0), [0.0, 0.5, 1.0], 7, fp)
    assert [t.n_fock_used for t in flow.tables] == [256, 512, 2048]
    top = flow.tables[-1]
    want = np.repeat(OMEGA * (np.arange(4) + 0.5), 2)[:7]
    np.testing.assert_allclose(top.energies, want, rtol=1e-12, atol=0.0)
    assert [size for _, size in top.groups] == [2, 2, 2, 1]
    # A point that needs no more levels keeps the configured truncation itself.
    assert spectral.point_fock(Schedule(OMEGA, OMEGA).params(1.0), fp) is fp


def test_squeezed_chains_converge_where_bare_chains_do_not():
    # At c = 1.257, g = 5 omega the bare-frame chains at N = 256 are about
    # 9e-5 (relative) off their N = 4096 levels; the squeezed frame, which
    # required_n_fock sizes, is converged there.
    p = ModelParams(OMEGA, OMEGA, 5.0 * OMEGA, 1.257)
    fp = FockParams(n_fock=256, buffer=64)
    ref = lowest_k(parity_chains(p, FockParams(n_fock=4096, buffer=0)), 8)

    def deviation(chains):
        return np.max(np.abs(lowest_k(chains, 8) - ref) / np.abs(ref))

    assert deviation(squeezed_chains(p, fp)) <= 1e-11
    assert deviation(parity_chains(p, fp)) > 1e-6


def test_spectral_flow_g_cap():
    # g = 500 needs N of about 5e4, past CONVERGENCE_N_CAP.
    fp = FockParams(n_fock=64, buffer=16)
    with pytest.raises(TruncationError, match="reduce the coupling range$"):
        flow_g(OMEGA, 0.0, [0.0, 500.0], 4, fp)


def test_spectral_flow_g_sizes_every_point_before_building_chains(monkeypatch):
    # g = 120 is the first point past the cap; no point below it is solved first.
    built = []

    def counting(*args):
        built.append(args)
        return squeezed_chains(*args)

    monkeypatch.setattr(spectral, "squeezed_chains", counting)
    fp = FockParams(n_fock=64, buffer=16)
    with pytest.raises(TruncationError, match=r"^g=120\.0 requires n_fock above the cap 2048"):
        flow_g(OMEGA, 0.0, [0.0, 50.0, 100.0, 120.0, 1000.0], 4, fp)
    assert built == []
    flow_g(OMEGA, 0.0, [0.0, 50.0], 4, fp)
    assert [args[1].n_fock for args in built] == [64, 512]
    # The r path is sized the same way: g = r g_max, so r = 1 at g_max = 120 is past the cap.
    built.clear()
    with pytest.raises(TruncationError, match=r"^g=120\.0 requires n_fock above the cap 2048"):
        flow_r(Schedule(OMEGA, 120.0), [0.0, 0.5, 1.0], 4, fp)
    assert built == []


def unbounded_n_fock(omega, c, g, n_min):
    """required_n_fock's doubling with no cap."""
    omega_g, g_tilde = renormalized_frequency(omega, c, g)
    n = max(n_min, 8)
    while n < 8.0 * (g_tilde / omega_g) ** 2:
        n *= 2
    return n


@pytest.mark.parametrize("c", [0.0, 0.0377, 0.2513])
def test_required_n_fock_stops_doubling_past_the_cap(c):
    # Every N at or under the cap is the unbounded rule's; past it the rule
    # stops at its first doubling above the cap, even where it would run to
    # hundreds of digits.
    cap = spectral.CONVERGENCE_N_CAP
    for g in [0.0, *np.geomspace(1.0, 1e150, 61)]:
        for n_min in (8, 64, 100, 256):
            want = unbounded_n_fock(OMEGA, c, g, n_min)
            got = required_n_fock(OMEGA, c, g, n_min=n_min)
            if want <= cap:
                assert got == want
            else:
                assert cap < got <= 2 * cap


def test_sweep_hamiltonian_g_includes_self_energy(fp_small):
    g = 2.0
    h = sweep_hamiltonian_g(OMEGA, 0.0, g, fp_small)
    bare = hamiltonian(ModelParams(OMEGA, OMEGA, g, 0.0), fp_small)
    shift = (h - bare)[0, 0].real
    assert shift == pytest.approx(g**2 / OMEGA, rel=1e-12)


@dataclasses.dataclass(frozen=True)
class NoGoReport:
    """Strong-coupling comparison against the analytic limit pattern."""

    max_deviation: float
    self_energy: float
    self_energy_limit: float | None  # 1/(4c); None when c = 0


def no_go_asymptote_check(
    omega: float, c: float, g: float, k: int, fp: FockParams
) -> NoGoReport:
    """Compare the sweep spectrum at strong coupling with its limit.

    c = 0: target omega*(n+1/2) doubly degenerate (spontaneous breaking);
    c > 0: target omega(g)*(n+1/2) +/- omega/2 (explicit breaking).

    Both targets are g -> infinity limits.  At finite g with c > 0 the
    lowest pair is split by omega*exp(-2*beta^2), beta = g_tilde/omega(g),
    not by omega, so max_deviation is a sizeable fraction of omega there
    (0.062*omega at g = 5*omega, c = 0.2513, k = 6); only a bound such as
    0.5*omega holds.  The point is the coupling sweep's
    (sweep_params_g), sized by spectral.point_fock, so one needing more
    than CONVERGENCE_N_CAP levels is a TruncationError.
    """
    if g < 3.0 * omega:
        raise ValidationError(f"asymptote check needs g >= 3*omega, got g={g}")
    p = sweep_params_g(omega, c, g)
    vals = lowest_k(squeezed_chains(p, spectral.point_fock(p, fp)), k)
    omega_g = renormalized_frequency(omega, c, g)[0]
    if c == 0.0:
        target = np.sort(np.repeat(omega * (np.arange(k) + 0.5), 2))[:k]
        limit = None
    else:
        ladder = omega_g * (np.arange(k) + 0.5)
        target = np.sort(np.concatenate([ladder - omega / 2, ladder + omega / 2]))[:k]
        limit = 1.0 / (4.0 * c)
    return NoGoReport(
        max_deviation=float(np.max(np.abs(vals - target))),
        self_energy=self_energy(omega, c, g),
        self_energy_limit=limit,
    )


def test_no_go_deviation_shrinks_with_coupling():
    fp = FockParams(n_fock=64, buffer=16)
    devs = [
        no_go_asymptote_check(OMEGA, 0.0, m * OMEGA, 6, fp).max_deviation
        for m in (3.0, 4.0, 5.0)
    ]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 1e-2 * OMEGA


def test_no_go_explicit_breaking_pattern():
    fp = FockParams(n_fock=64, buffer=16)
    rep = no_go_asymptote_check(OMEGA, 0.2513, 5.0 * OMEGA, 6, fp)
    assert rep.self_energy_limit == pytest.approx(1.0 / (4 * 0.2513))
    assert rep.self_energy < rep.self_energy_limit
    # The split ladder target is not doubly degenerate.
    assert rep.max_deviation < 0.5 * OMEGA
    with pytest.raises(ValidationError):
        no_go_asymptote_check(OMEGA, 0.0, OMEGA, 6, fp)


def test_no_go_caps_the_truncation():
    # The truncation it would need is sized and refused before any array
    # is built, as on the coupling sweep.
    with pytest.raises(TruncationError, match="reduce the coupling range$"):
        no_go_asymptote_check(OMEGA, 0.0, 1e100, 6, FockParams(n_fock=64, buffer=16))


def test_truncation_convergence_reports_fixed_point():
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=0.628)
    rep = truncation_convergence(
        lambda fp: oracle.lowest_levels(h_total_r(s, 1.0, fp), 7),
        1e-6,
        FockParams(n_fock=32, buffer=8),
    )
    assert rep.n_star <= 256
    assert rep.drift <= 1e-6
    # The converged ground energy is the renormalized half-quantum.
    assert rep.energies[0] == pytest.approx(s.omega_g(1.0) / 2.0, rel=1e-9)


def test_truncation_convergence_changes_only_n_fock():
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=0.628)
    fp0 = FockParams(n_fock=32, buffer=12)
    seen = []

    def levels(fp):
        seen.append(fp)
        return lowest_k(squeezed_chains(s.params(1.0), fp), 5)

    rep = truncation_convergence(levels, 1e-6, fp0)
    assert rep.drift <= 1e-6
    assert len(seen) >= 2
    assert seen == [dataclasses.replace(fp0, n_fock=32 * 2**i) for i in range(len(seen))]


def test_truncation_convergence_cap():
    # Levels that never settle double n_fock up to CONVERGENCE_N_CAP.
    seen = []

    def levels(fp):
        seen.append(fp.n_fock)
        return np.array([float(fp.n_fock)])

    with pytest.raises(TruncationError):
        truncation_convergence(levels, 1e-16, FockParams(n_fock=32, buffer=8))
    assert seen == [32 * 2**i for i in range(7)] and seen[-1] == spectral.CONVERGENCE_N_CAP


def test_witten_index_endpoints(fp_mid):
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=0.2513)
    beta = 5.0 / OMEGA
    unbroken = witten_index(oracle.graded_levels(h_total_r(s, 0.0, fp_mid)), beta)
    broken = witten_index(oracle.graded_levels(h_total_r(s, 1.0, fp_mid)), beta)
    assert unbroken.index_value == pytest.approx(1.0, abs=1e-6)
    assert unbroken.rounded == 1
    assert broken.index_value == pytest.approx(0.0, abs=1e-6)
    assert broken.rounded == 0
    assert unbroken.truncation_tail < 1e-8


def test_witten_index_free_oscillator_analytic(fp_mid):
    # For the free SUSY pair the index is exactly 1 at any valid beta:
    # every excited level cancels between the graded sectors.
    levels = oracle.graded_levels(hamiltonian(ModelParams(OMEGA, OMEGA, 0.0, 0.0), fp_mid))
    for beta in (0.5, 1.0, 2.0):
        rep = witten_index(levels, beta)
        assert rep.index_value == pytest.approx(1.0, abs=1e-9)


def test_witten_index_beta_guards(fp_mid):
    levels = oracle.graded_levels(hamiltonian(ModelParams(OMEGA, OMEGA, 0.0, 0.0), fp_mid))
    for beta in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="beta must be finite and > 0"):
            witten_index(levels, beta)
    with pytest.raises(InvalidBetaError):
        witten_index(levels, 1e-3, k=10)


def test_witten_index_rejects_k_below_one(fp_mid):
    # At r = 0 the index is 1; k = 0 would read the top level's tail and
    # sum nothing, and a negative k would cut levels off the top.
    s = Schedule(omega=OMEGA, g_max=OMEGA)
    levels = graded_levels(squeezed_chains(s.params(0.0), fp_mid))
    assert witten_index(levels, 5.0 / OMEGA).rounded == 1
    for k in (0, -3):
        with pytest.raises(ValidationError, match="k must be >= 1"):
            witten_index(levels, 5.0 / OMEGA, k=k)


# The Witten tail exp(-beta E) of the squeezed chains against that of the
# dense H in the bare frame.  Where the frames coincide (r = 0, or C = 0)
# the two are the same matrix and the tails agree to rounding: rel 1e-9.
# Elsewhere they are two truncations of H, whose level E at the cut moves
# between them, and the tail with it by beta times that move: rel 1e-4,
# pinned in advance above the largest gap on these grids at N = 128,
# 4.5e-5 at C = 1.257, r = 0.5.  abs = 0, since the tails are 1e-66 to
# 1e-192 and pytest.approx's default abs = 1e-12 would pass any of them.
def tail_rel(c, r):
    return 1e-9 if c == 0.0 or r == 0.0 else 1e-4


def test_witten_index_chains_match_dense_endpoints(fp_mid):
    # Both paths grade by -sz: the dense one from each eigenvector's spin halves.
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=0.2513)
    beta = 5.0 / OMEGA
    for r in (0.0, 1.0):
        ref = witten_index(oracle.graded_levels(h_total_r(s, r, fp_mid)), beta)
        chains = witten_index(graded_levels(squeezed_chains(s.params(r), fp_mid)), beta)
        assert chains.index_value == pytest.approx(ref.index_value, abs=1e-12)
        assert chains.rounded == ref.rounded
        assert chains.truncation_tail == pytest.approx(
            ref.truncation_tail, rel=tail_rel(s.c, r), abs=0
        )


@pytest.mark.parametrize("c", [0.0, 0.2513, 1.257])
def test_witten_index_on_squeezed_chains_matches_bare_chains(fp_mid, c):
    # The squeeze leaves sz alone, so the chain grading carries over.
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=c)
    beta = 5.0 / OMEGA
    for r in (0.0, 0.5, 1.0):
        squeezed = witten_index(graded_levels(squeezed_chains(s.params(r), fp_mid)), beta)
        bare = witten_index(oracle.graded_levels(h_total_r(s, r, fp_mid)), beta)
        assert squeezed.index_value == pytest.approx(bare.index_value, abs=1e-10)
        assert squeezed.truncation_tail == pytest.approx(
            bare.truncation_tail, rel=tail_rel(c, r), abs=0
        )


def test_witten_index_rejects_pentadiagonal_chains(fp_mid):
    # H's own chains with an A^2 term have no chain path (graded_levels
    # refuses them); the squeezed chains and the dense oracle do.
    p = ModelParams(OMEGA, OMEGA, OMEGA, 0.2513)
    with pytest.raises(DimensionError):
        witten_index(graded_levels(parity_chains(p, fp_mid)), 5.0 / OMEGA)


def test_algebra_report_free(fp_mid):
    h = hamiltonian(ModelParams(OMEGA, OMEGA, 0.0, 0.0), fp_mid)
    residuals, vacuum = susy_algebra_report(h, free_supercharges(OMEGA, fp_mid), fp_mid)
    assert max(residuals.values()) <= 1e-10
    # Unique SUSY vacuum, annihilated.
    assert vacuum == (pytest.approx(0.0, abs=1e-8),)


def test_algebra_report_broken(fp_mid):
    h = hamiltonian(ModelParams(0.0, OMEGA, 0.0, 0.0), fp_mid)
    residuals, vacuum = susy_algebra_report(h, broken_supercharges(OMEGA, fp_mid), fp_mid)
    assert max(residuals.values()) <= 1e-10
    # Two degenerate vacuums, neither annihilated; the combined charge
    # norm sqrt(|Q+ v|^2 + |Q- v|^2) is basis-independent in the pair.
    assert len(vacuum) == 2
    target = np.sqrt(OMEGA / 2.0)
    for v in vacuum:
        assert v == pytest.approx(target, abs=1e-6)


def test_algebra_report_detects_wrong_pairing(fp_mid):
    h_wrong = hamiltonian(ModelParams(0.0, OMEGA, 0.0, 0.0), fp_mid)
    residuals, _ = susy_algebra_report(h_wrong, free_supercharges(OMEGA, fp_mid), fp_mid)
    assert max(residuals.values()) > 1e-10
    assert residuals["anticommutator.11"] > 1e-3


def test_algebra_report_rejects_h_outside_the_pairs(fp_mid):
    # The coupling g sx (a + a_dag) joins (up, n) with (down, n + 1), which
    # no free pair holds: the report refuses it instead of dropping it.
    h = hamiltonian(ModelParams(OMEGA, OMEGA, 0.3 * OMEGA), fp_mid)
    with pytest.raises(ValidationError, match="H has entries outside"):
        susy_algebra_report(h, free_supercharges(OMEGA, fp_mid), fp_mid)


def kron_charges(variant, omega, fp):
    """The paper's charge formulas as dense kron products, the oracle for
    model.charge_pairs: the free q+ = sqrt(omega) s+ a, q- = sqrt(omega) s- a_dag;
    the broken Q1 = sqrt(omega/2) sx sqrt(n+1/2), Q2 the same with sy."""
    ops = make_operators(fp)
    root = math.sqrt(omega / 2.0)
    if variant == "free":
        up, down = kron(S_PLUS, ops.a), kron(S_MINUS, ops.a_dag)
        q1, q2_over_i = root * (up + down), root * (down - up)
    else:
        root_n = np.diag(np.sqrt(np.diagonal(ops.n_op) + 0.5))
        q1 = root * kron(SX, root_n)
        # sy = i (s- - s+), so Q2 = i * q2_over_i with q2_over_i real.
        q2_over_i = root * kron(S_MINUS - S_PLUS, root_n)
    return {
        "q1": q1,
        "q2": 1j * q2_over_i,
        "q_plus": (q1 - q2_over_i) / math.sqrt(2.0),
        "q_minus": (q1 + q2_over_i) / math.sqrt(2.0),
        "grading": embed_qubit(-SZ, fp),
    }


def test_algebra_reports_reject_mismatched_inputs(fp_mid):
    # Stacks of N = 64 checked at N = 128 would read the wrong interior,
    # and a charge set has one of two names.
    h, charges = charge_pairs("free", OMEGA, FockParams(n_fock=64, buffer=16))
    with pytest.raises(ValidationError, match="pair stacks"):
        pair_algebra_report(h, charges, fp_mid)
    with pytest.raises(ValidationError, match="shape mismatch"):
        susy_algebra_report(hamiltonian(ModelParams(OMEGA, OMEGA), fp_mid),
                            free_supercharges(OMEGA, FockParams(n_fock=64, buffer=16)), fp_mid)
    residuals, _ = pair_algebra_report(*charge_pairs("free", OMEGA, fp_mid), fp_mid)
    assert max(residuals.values()) <= 1e-10
    with pytest.raises(ValidationError, match="unknown charge set"):
        charge_pairs("unbroken", OMEGA, fp_mid)


def test_sector_products_of_charges_equal_dense():
    # The pair stacks and the dense charges are bitwise the kron formulas
    # and hamiltonian(...), gathered on the pairs: the free charges pair
    # (up, n - 1) with (down, n), so the uncoupled (up, N - 1) and (down, 0)
    # share row 0; the broken ones pair (up, n) with (down, n).  At the
    # smaller N every product the algebra report forms on the 2 x 2 pairs
    # is also the dense one.
    for n_fock in (8, 9, 64, 255, 256):
        fp = FockParams(n_fock=n_fock, buffer=n_fock // 4)
        n = np.arange(n_fock)
        for omega in (OMEGA, 0.5 * OMEGA, 0.37):
            for variant, dense, h, pairs in (
                ("free", free_supercharges(omega, fp),
                 hamiltonian(ModelParams(omega, omega), fp),
                 np.stack([(n - 1) % n_fock, n_fock + n], axis=1)),
                ("broken", broken_supercharges(omega, fp),
                 hamiltonian(ModelParams(0.0, omega), fp),
                 np.stack([n, n_fock + n], axis=1)),
            ):
                h_pairs, stacks = charge_pairs(variant, omega, fp)
                # The leading pairs alone are bitwise the leading rows.
                for count in (1, 3):
                    h_lead, lead = charge_pairs(variant, omega, fp, n_pairs=count)
                    assert np.array_equal(h_lead, h_pairs[:count])
                    for name in ("q1", "q2", "q_plus", "q_minus", "grading", "pairs"):
                        assert np.array_equal(getattr(lead, name), getattr(stacks, name)[:count])
                np.testing.assert_array_equal(dense.pairs, pairs)
                np.testing.assert_array_equal(stacks.pairs, pairs)
                rows, cols = pairs[:, :, None], pairs[:, None, :]
                assert np.array_equal(h_pairs, h[rows, cols])
                assert np.count_nonzero(h[rows, cols]) == np.count_nonzero(h)
                for name, want in kron_charges(variant, omega, fp).items():
                    case = (n_fock, omega, variant, name)
                    got = getattr(dense, name)
                    assert got.dtype == want.dtype and np.array_equal(got, want), case
                    assert np.array_equal(getattr(stacks, name), want[rows, cols]), case
                if n_fock > 64 or omega != OMEGA:
                    continue
                ops = (h, dense.q1, dense.q2, dense.q_plus, dense.q_minus, dense.grading)
                for x in ops:
                    for y in ops:
                        got = np.zeros((2 * n_fock, 2 * n_fock), dtype=complex)
                        got[rows, cols] = x[rows, cols] @ y[rows, cols]
                        np.testing.assert_allclose(got, x @ y, rtol=0, atol=1e-12)


def dense_algebra_residuals(h, charges, fp):
    """The nine residuals of susy_algebra_report, from dense products."""
    p = interior_projector(fp)
    scale = max(1.0, float(np.max(np.abs(np.linalg.eigvalsh(h)))))
    q1, q2, gr = charges.q1, charges.q2, charges.grading

    def rel(m):
        return np.linalg.norm(m[np.ix_(p, p)], 2) / scale

    return {
        "anticommutator.11": rel(2.0 * q1 @ q1 - h),
        "anticommutator.22": rel(2.0 * q2 @ q2 - h),
        "anticommutator.12": rel(q1 @ q2 + q2 @ q1),
        "commutator_with_h.1": rel(q1 @ h - h @ q1),
        "commutator_with_h.2": rel(q2 @ h - h @ q2),
        "grading.1": rel(q1 @ gr + gr @ q1),
        "grading.2": rel(q2 @ gr + gr @ q2),
        "nilpotency.plus": rel(2.0 * charges.q_plus @ charges.q_plus),
        "nilpotency.minus": rel(2.0 * charges.q_minus @ charges.q_minus),
    }


def dense_vacuum_norms(h, charges):
    """sqrt(|q+ v|^2 + |q- v|^2) per ground state v of a dense eigh of h."""
    values, vectors = np.linalg.eigh(h)
    start, size = degeneracy_groups(values)[0]
    return sorted(
        np.sqrt(np.linalg.norm(charges.q_plus @ v) ** 2 + np.linalg.norm(charges.q_minus @ v) ** 2)
        for v in vectors[:, start : start + size].T
    )


def test_algebra_residuals_equal_dense_oracle():
    # Matched and mismatched pairs, so both tiny and O(1) residuals occur;
    # N = 9 is odd, and every N has the free charges' wrap-around row.
    # Tolerances fixed in advance: 1e-14 absolute for the residuals and
    # 1e-14 * max(1, want) for the vacuum norms.
    for n in (8, 9, 64):
        fp = FockParams(n_fock=n, buffer=n // 4)
        for omega in (OMEGA, 0.5 * OMEGA):
            hams = (hamiltonian(ModelParams(omega, omega), fp),
                    hamiltonian(ModelParams(0.0, omega), fp))
            for variant, charges in (("free", free_supercharges(omega, fp)),
                                     ("broken", broken_supercharges(omega, fp))):
                for h in hams:
                    case = (n, omega, variant)
                    residuals, vacuum = susy_algebra_report(h, charges, fp)
                    want = dense_algebra_residuals(h, charges, fp)
                    # The same identities under the same verify row suffixes, in row order.
                    assert list(residuals) == list(want)
                    for name in want:
                        assert abs(residuals[name] - want[name]) <= 1e-14, (case, name)
                    want = dense_vacuum_norms(h, charges)
                    got = sorted(vacuum)
                    assert len(got) == len(want), case
                    for g, w in zip(got, want):
                        assert abs(g - w) <= 1e-14 * max(1.0, w), case


def test_goldstino_zero_energy_excitations(fp_mid):
    rep = goldstino_check(OMEGA, fp_mid)
    assert rep.residual_plus <= 1e-10
    assert rep.residual_minus <= 1e-10
    assert rep.energy_increment <= 1e-10


@pytest.mark.parametrize("omega", [1e200, 1e-300, 100.0, 1.7e308])
def test_goldstino_increment_is_zero_at_any_scale(fp_mid, omega, recwarn):
    # Each excitation is normalized before its Rayleigh quotient, whose
    # unnormalized form overflows to inf at omega = 1e200, underflows to
    # 5e-301 at omega = 1e-300 and rounds to 7.1e-15 at omega = 100.  At
    # omega = 1.7e308, omega (n + 1/2) overflows for every pair n >= 1,
    # which the check does not build.
    rep = goldstino_check(omega, fp_mid)
    assert rep.energy_increment == 0.0
    assert rep.residual_plus == rep.residual_minus == 0.0
    assert not recwarn.list


@pytest.mark.parametrize("omega", [5e-324, 1e-310, 4e-308])
def test_goldstino_rejects_subnormal_vacuum_energy(fp_mid, omega, recwarn):
    # omega/2 rounds to 0 at 5e-324 (the excitations would be zero
    # vectors, 0/0 on normalizing) and is subnormal at the other two.
    with pytest.raises(ValidationError, match="omega/2 is zero or subnormal"):
        goldstino_check(omega, fp_mid)
    assert not recwarn.list


@dataclasses.dataclass(frozen=True)
class LimitReport:
    """Comparison of the r=1 spectrum with the heavy-boson ladder."""

    max_deviation: float
    ground_energy: float
    omega_g: float
    groups_r0: tuple[int, ...]
    groups_r1: tuple[int, ...]


def limit_check(s: Schedule, fp: FockParams, k: int = 8) -> LimitReport:
    """Compare lowest_k(H(1)) against the analytic omega_g*(n+1/2) ladder.

    Each rung of the ladder is doubly degenerate (the spectrum of
    oracle.heavy_hamiltonian), so the target is its lowest k entries.
    Both endpoints are grouped at DEGENERACY_TOL.
    """
    vals_r1 = lowest_k(squeezed_chains(s.params(1.0), fp), k)
    target = np.repeat(s.omega_g(1.0) * (np.arange(k) + 0.5), 2)[:k]
    vals_r0 = lowest_k(squeezed_chains(s.params(0.0), fp), k)
    groups_r0 = tuple(size for _, size in degeneracy_groups(vals_r0))
    groups_r1 = tuple(size for _, size in degeneracy_groups(vals_r1))
    return LimitReport(
        max_deviation=float(np.max(np.abs(vals_r1 - target))),
        ground_energy=float(vals_r1[0]),
        omega_g=s.omega_g(1.0),
        groups_r0=groups_r0,
        groups_r1=groups_r1,
    )


def test_limit_check_pairing_structure():
    fp = FockParams(n_fock=256, buffer=64)
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=0.2513)
    rep = limit_check(s, fp, k=6)
    assert rep.max_deviation < 1e-4 * rep.omega_g
    assert rep.ground_energy == pytest.approx(rep.omega_g / 2.0, rel=1e-6)
    # SUSY pattern at the start; the final pair is cut by k=6.
    assert rep.groups_r0 == (1, 2, 2, 1)
    assert rep.groups_r1 == (2, 2, 2)  # degenerate pairs at the end


def test_flow_is_identical_across_repeat_runs(fp_small):
    s = Schedule(omega=OMEGA, g_max=OMEGA, c=0.2513)
    grid = np.linspace(0.0, 1.0, 7)
    first = flow_r(s, grid, 5, fp_small)
    second = flow_r(s, grid, 5, fp_small)
    for ta, ts in zip(first.tables, second.tables):
        np.testing.assert_array_equal(ta.energies, ts.energies)
        assert ta.groups == ts.groups
