"""Property tests of the blocked check route over random cutoffs and phases t*g.

Round-off in both routes grows with the phase: the closed form evaluates
cos and sin at arguments up to |t g| sqrt(d), d the largest spectral branch
(cutoff for one atom, 4 cutoff + 2 for two), and the oracle multiplies
eigenvalues of size sqrt(d) by t g.  The bound here is
8 eps (1 + |t g|) sqrt(d).  The largest deviation measured over random
draws (cutoff up to 2000, |t g| up to 1e6) is 1.5 eps (1 + |t g|) sqrt(d),
about 3e-9 at t g = 1e6 and cutoff 40.  Unitarity does not degrade with
t g, so it is held to the t g = 0 end of the same bound.

Cutoffs start at 4: below that the default guard band, clamped so two
levels stay trusted, is narrower than the two levels above the trusted band
that a complete two-atom sector needs, and the closed form and the
truncated oracle differ at order 1.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tcprop import (
    Blocked,
    FockSpace,
    block_eigh,
    closed_form_table,
    compare_blocks,
    coupling_entries,
    worst_entries,
)

EPS = np.finfo(float).eps


def _bound(tg: float, n: int, space: FockSpace) -> float:
    branch = space.cutoff if n == 1 else 4 * space.cutoff + 2
    return 8 * EPS * (1 + abs(tg)) * np.sqrt(branch)


def _largest(op: Blocked) -> float:
    return max(report.max_abs_deviation for report in worst_entries(op))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([1, 2]),
    cutoff=st.integers(min_value=4, max_value=2000),
    tg=st.floats(min_value=-1e6, max_value=1e6),
    share=st.floats(min_value=0.0, max_value=1.0),
)
def test_closed_form_agrees_with_the_oracle(n, cutoff, tg, share):
    space = FockSpace(cutoff)
    oracle = block_eigh(2**n, space, coupling_entries(n, space))
    split = oracle.split
    t1, t2 = share * tg, (1 - share) * tg
    u = split.gather(closed_form_table(n, space, [tg, t1, t2], 1.0).entries())
    bound = _bound(tg, n, space)
    assert compare_blocks(u[0], oracle.expm(tg)[0])[0].max_abs_deviation <= bound
    assert _largest(u.dagger() @ u - Blocked.identity(split)) <= _bound(0.0, n, space)
    assert _largest(u[1] @ u[2] - u[0]) <= bound
