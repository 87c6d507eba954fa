"""The spectrum paths against Juddian levels, exact with no truncation.

oracle.juddian_points gives couplings g at which H(omega_a, 1, g, c)
has the exact level E = omega_g (n - (g_tilde/omega_g)^2 + 1/2), level n
of each parity chain.  At c > 0 the point is found through the A^2 map
(model.renormalized_frequency), so the original-frame chains, which
never use that map, check it.  The tolerance is fixed in advance:
1e-11 relative to max(1, |E|).
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from susyrabi.fock import FockParams
from susyrabi.linalg import banded_lowest
from susyrabi.model import ModelParams, parity_chains, renormalized_frequency, squeezed_chains
from susyrabi.spectral import _group_end, lowest_k, required_n_fock

from oracle import juddian_points

JUDD_RTOL = 1e-11


@settings(max_examples=60, deadline=None)
@given(
    delta=st.floats(min_value=0.05, max_value=3.0),
    n=st.integers(min_value=1, max_value=8),
    g_max=st.floats(min_value=0.5, max_value=4.0),
    c=st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=0.5)),
)
@example(delta=0.3, n=4, g_max=4.0, c=0.0)
@example(delta=0.3, n=4, g_max=4.0, c=0.25)
def test_chains_hold_the_juddian_levels(delta, n, g_max, c):
    points = juddian_points(2.0 * delta, 1.0, c, n, g_max)
    assume(points)
    for g, energy in points:
        p = ModelParams(2.0 * delta, 1.0, g, c)
        tol = JUDD_RTOL * max(1.0, abs(energy))
        # The squeezed frame needs the truncation required_n_fock sizes,
        # and n + 1 levels well inside it; the original frame that times
        # omega_g/omega_b, the squeeze's spread of the Fock support.
        n_fock = max(required_n_fock(1.0, c, g, n_min=64), 8 * (n + 1))
        spread = math.ceil(renormalized_frequency(1.0, c, g)[0])
        for chains in (squeezed_chains(p, FockParams(n_fock, 0)),
                       parity_chains(p, FockParams(n_fock * spread, 0))):
            for band in chains:
                assert abs(banded_lowest(band, n + 1)[n] - energy) <= tol, (g, energy)
            # The merge puts the crossing at levels 2n and 2n + 1, one group.
            levels = lowest_k(chains, 2 * n + 2)
            np.testing.assert_allclose(levels[2 * n:], energy, rtol=0, atol=tol)
            assert _group_end(levels, 2 * n + 1) == 2 * n + 2
