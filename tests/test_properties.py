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
truncated oracle differ at order 1.  ``verify`` refuses such a guard; the
cutoffs 2 and 3 are drawn to check that refusal.

Near a zero of cos(t g sqrt(m)) the triangular factors carry entries up to
about 1/|cos|.  Either the factorization is refused (|cos| below 1e-8 at
some level) or its product deviates from the closed form by at most eight
ulps of the largest factor entry; the largest measured over 837 random
draws is four.
"""

import contextlib
import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tcprop import (
    Blocked,
    FockSpace,
    GaussSingularityError,
    block_eigh,
    closed_form,
    cosz,
    coupling_entries,
    gauss_tables,
    worst_entries,
)
from tcprop.cli import main
from tcprop.propagator import GAUSS_TAU_SING, largest_branch
from tcprop.verify import gauss_deviations

EPS = np.finfo(float).eps


def _bound(tg: float, n: int, space: FockSpace) -> float:
    return 8 * EPS * (1 + abs(tg)) * np.sqrt(largest_branch(n, space.cutoff))


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
    u = split.gather(closed_form(n, space).entries([tg, t1, t2], 1.0))
    bound = _bound(tg, n, space)
    assert _largest(u[0] - oracle.expm(tg)[0]) <= bound
    assert _largest(u.dagger() @ u - Blocked.identity(split)) <= _bound(0.0, n, space)
    assert _largest(u[1] @ u[2] - u[0]) <= bound


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    cutoff=st.integers(min_value=4, max_value=200),
    level=st.integers(min_value=1, max_value=199),
    zero=st.integers(min_value=0, max_value=200),
    offset=st.floats(min_value=-12.0, max_value=-3.0),
    side=st.sampled_from([-1.0, 1.0]),
)
def test_gauss_factorization_near_a_zero_of_cos(cutoff, level, zero, offset, side):
    # t g sqrt(m) lies 1e-12 to 1e-3 from the zero (zero + 1/2) pi of cos
    space = FockSpace(cutoff)
    m = 1 + level % (cutoff - 1)
    tg = ((zero + 0.5) * np.pi + side * 10.0**offset) / np.sqrt(m)
    closest = np.abs(cosz(tg * tg * np.arange(cutoff))).min()
    try:
        product_dev, variant_dev = gauss_deviations(space, tg, 1.0)
    except GaussSingularityError as exc:
        assert closest < GAUSS_TAU_SING and exc.value == closest
        return
    assert closest >= GAUSS_TAU_SING
    layout, coefficients = gauss_tables(space, tg, 1.0)
    largest = np.abs(layout.entries(coefficients).values).max()
    assert product_dev <= 8 * EPS * largest
    assert variant_dev == 0.0


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([1, 2]),
    cutoff=st.sampled_from([2, 3]),
    guard=st.one_of(st.none(), st.integers(min_value=0, max_value=1)),
)
def test_verify_at_the_smallest_cutoffs(n, cutoff, guard):
    # a complete excitation sector reaches n levels above the trusted band
    guard = min(guard, cutoff - 2) if guard is not None else None
    flags = [] if guard is None else ["--guard", str(guard)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["verify", "--atoms", str(n), "--cutoff", str(cutoff), *flags])
    if FockSpace(cutoff, guard).guard < n:
        assert rc == 2 and f"needs guard >= {n}" in err.getvalue()
    else:
        assert rc == 0 and "FAIL" not in out.getvalue()
