"""Closed-form propagators: structure, frozen amplitudes, oracle agreement.

The frozen column amplitudes below were produced by an eigendecomposition
of the coupling operator built from scratch (no package code), then copied
here verbatim.
"""

import math
import warnings

import numpy as np
import pytest

from tcprop import (
    CompositeOperator,
    Entries,
    FockSpace,
    GaussSingularityError,
    annihilator_entries,
    apply,
    closed_form,
    compare,
    cosz,
    coupling_operator,
    evolve_full,
    evolve_one_atom,
    evolve_states,
    evolve_two_atoms,
    expm_hermitian,
    free_phase,
    gauss_decompose_one_atom,
    gauss_tables,
    hamiltonian,
    reconstruct_two_atoms,
    reduced_form,
    reduction_entries,
    sincz,
    spectral_fn,
    trusted_mask,
)
from tcprop import propagator
from tcprop.cli import InitialStateSpec, build_state

SPACE = FockSpace(60, 8)
SMALL = FockSpace(40, 5)

# |ee,0> column of the two-atom propagator at t=0.7, g=1.3 (frozen from the
# independent eigendecomposition; phases are exactly -i on the middle pair)
AMP_EE0 = 0.46275833533992833
AMP_EG1 = -0.3229531781698155j
AMP_GG2 = -0.7597744484341714


def _trusted_submatrix(op: CompositeOperator) -> np.ndarray:
    keep = trusted_mask(op.n_blocks, op.space)
    return op.matrix[np.ix_(keep, keep)]


def _reduction(space: FockSpace) -> tuple[CompositeOperator, CompositeOperator]:
    """The similarity ST kron 1 and the spin-1 coupling B, assembled from their entries."""
    similarity, b, _ = reduction_entries(space)
    return (CompositeOperator.from_entries(4, space, similarity),
            CompositeOperator.from_entries(3, space, b))


def _max_dev(x, y) -> float:
    return float(np.max(np.abs(np.asarray(x) - np.asarray(y))))


def _dense(space: FockSpace, n_blocks: int, entries: Entries, i: int = 0) -> CompositeOperator:
    """The entries at the i-th time as a dense operator."""
    return CompositeOperator.from_entries(n_blocks, space, entries.at(i))


def _spin_one(space: FockSpace, t, g: float) -> Entries:
    """exp(-i t g B) at the time(s) t: the last three blocks of the reduced form."""
    e, c = reduced_form(space).entries(t, g), space.cutoff
    keep = (e.rows >= c) & (e.cols >= c)
    return Entries(e.rows[keep] - c, e.cols[keep] - c, e.values[..., keep])


def _rows_by_block(form, t, g: float) -> dict:
    """The closed form's coefficient rows (times, cutoff), from its rule, by atomic block."""
    rows = propagator._spectral(t, g, form.branch, form.at, form.scale, form.shift)
    return {(i, j): rows[:, term] for term, (i, j, _) in enumerate(form.layout.keys)}


def test_one_atom_identity_at_zero():
    u = evolve_one_atom(SPACE, 0.0, 1.7)
    np.testing.assert_array_equal(u.matrix, np.eye(2 * SPACE.cutoff))


def test_one_atom_block_structure():
    t, g = 0.45, 1.2
    tg = t * g
    u2 = tg * tg
    u = evolve_one_atom(SPACE, t, g)
    cos_up = spectral_fn(SPACE, lambda m: cosz(u2 * (m + 1)))
    np.testing.assert_array_equal(u.block(0, 0), cos_up)
    np.testing.assert_allclose(
        np.diag(u.block(1, 1)),
        [math.cos(tg * math.sqrt(m)) for m in range(SPACE.cutoff)],
        atol=1e-14,
    )
    # off-diagonal blocks carry a single ladder operator each
    assert np.count_nonzero(u.block(0, 1)) == SPACE.cutoff - 1
    np.testing.assert_array_equal(u.block(1, 0), -u.block(0, 1).conj().T)


# t g from zero to far past the trusted band's periods, for the two-atom and spin-1 pins
PIN_TG = (0.0, 1e-8, 1e-3, 0.1, 0.7, 2.5, 10.0, 20.0, 123.4, 1e3, 1e6)


@pytest.mark.parametrize("cutoff", [24, 400])
def test_two_atom_middle_blocks_and_spin1_middle_are_the_cosine_bitwise(cutoff):
    # r = (A^2 entry) / D is 1/2 on the middle two-atom blocks and 1 on the spin-1 middle
    space = FockSpace(cutoff)
    tg = np.array(PIN_TG)[:, None]
    cos = cosz(tg * tg * (2 * (2 * np.arange(cutoff) + 1.0)))
    two = _rows_by_block(closed_form(2, space), PIN_TG, 1.0)
    for i, j in ((1, 1), (2, 2)):
        np.testing.assert_array_equal(two[i, j], (1 + cos) / 2)
    for i, j in ((1, 2), (2, 1)):
        np.testing.assert_array_equal(two[i, j], (cos - 1) / 2)
    # the spin-1 middle is block (2, 2) of the reduced form
    np.testing.assert_array_equal(_rows_by_block(reduced_form(space), PIN_TG, 1.0)[2, 2], cos)


def _displayed_two_atom_rows(space: FockSpace, tg: np.ndarray, spin1: bool) -> list:
    """The two-atom (or spin-1) closed form with the paper's coefficients written out; the
    terms of A are imaginary, their rows -G(D) times A's entry."""
    m = np.arange(space.cutoff, dtype=float)
    u = (tg * tg)[:, None]
    d = np.maximum(4.0 * np.arange(-1, space.cutoff + 1) + 2, 0)
    cos_d, sin_d = cosz(u * d), tg[:, None] * sincz(u * d)
    top, mid, bot = cos_d[:, 2:], cos_d[:, 1:-1], cos_d[:, :-2]
    top_diag = (m + 2 + (m + 1) * top) / (2 * m + 3)
    top_two = (top - 1) / (2 * m + 3)
    bot_two = (bot - 1) / (2 * m - 1)
    bot_diag = (m - 1 + m * bot) / (2 * m - 1)
    ladder = math.sqrt(2.0) if spin1 else 1.0
    top_a, mid_a, bot_a = (-(ladder * sin_d[:, s]) for s in (slice(2, None),
                                                            slice(1, -1), slice(None, -2)))
    if spin1:
        return [
            [(0, top_diag), (1, top_a, True), (2, top_two)],
            [(-1, mid_a, True), (0, mid), (1, mid_a, True)],
            [(-2, bot_two), (-1, bot_a, True), (0, bot_diag)],
        ]
    plus, minus = (0, (1 + mid) / 2), (0, (mid - 1) / 2)
    return [
        [(0, top_diag), (1, top_a, True), (1, top_a, True), (2, top_two)],
        [(-1, mid_a, True), plus, minus, (1, mid_a, True)],
        [(-1, mid_a, True), minus, plus, (1, mid_a, True)],
        [(-2, bot_two), (-1, bot_a, True), (-1, bot_a, True), (0, bot_diag)],
    ]


@pytest.mark.parametrize("cutoff", [24, 60, 120, 400])
@pytest.mark.parametrize("spin1", [False, True])
def test_two_atom_and_spin1_tables_are_the_displayed_forms_to_four_ulps(cutoff, spin1):
    space = FockSpace(cutoff)
    tg = np.array(PIN_TG)
    layout, coefficients = propagator._layout(space, _displayed_two_atom_rows(space, tg, spin1))
    want = layout.entries(coefficients)
    got = _spin_one(space, tg, 1.0) if spin1 else closed_form(2, space).entries(tg, 1.0)
    np.testing.assert_array_equal(got.rows, want.rows)
    np.testing.assert_array_equal(got.cols, want.cols)
    largest = np.abs(want.values).max(axis=1, keepdims=True)
    assert np.all(np.abs(got.values - want.values) <= 4 * np.finfo(float).eps * largest)


def test_one_atom_flip_at_half_period():
    # tg = pi/2 sends |e,0> to -i|g,1>
    u = evolve_one_atom(SPACE, math.pi / 2, 1.0)
    col = u.matrix[:, 0]
    expected = np.zeros_like(col)
    expected[SPACE.cutoff + 1] = -1j
    assert _max_dev(col, expected) <= 1e-12


def test_one_atom_against_direct_eigendecomposition():
    # self-contained reference: coupling matrix built here, numpy eigh
    c = SPACE.cutoff
    m = np.arange(c)
    a = np.zeros((c, c), dtype=complex)
    a[m[:-1], m[1:]] = np.sqrt(m[1:])
    sp = np.array([[0, 1], [0, 0]], dtype=complex)
    big_a = np.kron(sp, a) + np.kron(sp.conj().T, a.conj().T)
    w, v = np.linalg.eigh(big_a)
    t, g = 0.7, 1.3
    ref = (v * np.exp(-1j * t * g * w)) @ v.conj().T
    got = evolve_one_atom(SPACE, t, g)
    keep = trusted_mask(2, SPACE)
    dev = np.abs((got.matrix - ref)[np.ix_(keep, keep)]).max()
    assert dev <= 1e-10


@pytest.mark.parametrize("t", [0.1, 0.7, 2.5, 10.0])
@pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
def test_one_atom_oracle_grid(t, g):
    closed = evolve_one_atom(SPACE, t, g)
    ref = expm_hermitian(coupling_operator(1, SPACE), t * g)
    assert compare(closed, ref).max_abs_deviation <= 1e-10


@pytest.mark.parametrize("t", [0.1, 0.7, 2.5, 10.0])
@pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
def test_two_atom_oracle_grid(t, g):
    closed = evolve_two_atoms(SPACE, t, g)
    ref = expm_hermitian(coupling_operator(2, SPACE), t * g)
    assert compare(closed, ref).max_abs_deviation <= 1e-10


def test_two_atom_identity_at_zero():
    u = evolve_two_atoms(SPACE, 0.0, 2.0)
    np.testing.assert_array_equal(u.matrix, np.eye(4 * SPACE.cutoff))


def test_two_atom_frozen_top_column():
    u = evolve_two_atoms(SPACE, 0.7, 1.3)
    c = SPACE.cutoff
    col = u.matrix[:, 0]
    assert abs(col[0] - AMP_EE0) <= 1e-12
    assert abs(col[c + 1] - AMP_EG1) <= 1e-12
    assert abs(col[2 * c + 1] - AMP_EG1) <= 1e-12
    assert abs(col[3 * c + 2] - AMP_GG2) <= 1e-12
    # everything else in the column vanishes, and the norm is exactly one
    rest = np.delete(col, [0, c + 1, 2 * c + 1, 3 * c + 2])
    assert _max_dev(rest, 0.0) <= 1e-12
    assert abs(np.linalg.norm(col) - 1.0) <= 1e-12


def test_two_atom_top_column_formulas():
    # the frozen values match the closed expressions through branch 2(2m+3)
    root6 = math.sqrt(6.0)
    u = 0.7 * 1.3
    c = math.cos(root6 * u)
    assert abs((2.0 + c) / 3.0 - AMP_EE0) <= 1e-12
    assert abs(-1j * math.sin(root6 * u) / root6 - AMP_EG1) <= 1e-12
    assert abs(math.sqrt(2.0) * (c - 1.0) / 3.0 - AMP_GG2) <= 1e-12


def test_two_atom_ground_column_stationary():
    u = evolve_two_atoms(SPACE, 3.1, 0.9)
    col = u.matrix[:, 3 * SPACE.cutoff]  # |gg,0>
    expected = np.zeros_like(col)
    expected[3 * SPACE.cutoff] = 1.0
    np.testing.assert_array_equal(col, expected)


def test_two_atom_middle_sum_blocks():
    # the two middle-to-last-column blocks agree with each other and carry
    # a single annihilator pattern; checked against the oracle entrywise
    t, g = 0.6, 1.1
    closed = evolve_two_atoms(SPACE, t, g)
    ref = expm_hermitian(coupling_operator(2, SPACE), t * g)
    tr = SPACE.trusted
    for i, j in ((1, 3), (2, 3), (3, 1), (3, 2)):
        dev = _max_dev(
            closed.block(i, j)[:tr, :tr], ref.block(i, j)[:tr, :tr]
        )
        assert dev <= 1e-10, f"block ({i}, {j})"
    np.testing.assert_array_equal(closed.block(1, 3), closed.block(2, 3))


def test_full_propagator_free_phase_only():
    # g = 0 leaves the pure free rotation
    t, omega = 0.8, 1.7
    u = evolve_full(1, SPACE, t, omega, 0.0)
    m = np.arange(SPACE.cutoff)
    phase = np.concatenate(
        [np.exp(-1j * t * omega * (0.5 + m)), np.exp(-1j * t * omega * (-0.5 + m))]
    )
    assert _max_dev(u.matrix, np.diag(phase)) <= 1e-15


@pytest.mark.parametrize("n", [1, 2])
def test_full_propagator_against_hamiltonian_oracle(n):
    t, omega, g = 0.7, 1.3, 0.8
    h = hamiltonian(n, SPACE, omega, omega, g)
    ref = expm_hermitian(h.total, t)
    got = evolve_full(n, SPACE, t, omega, g)
    assert compare(got, ref).max_abs_deviation <= 1e-10


def test_full_propagator_rejects_three_atoms():
    with pytest.raises(ValueError):
        evolve_full(3, SPACE, 0.1, 1.0, 1.0)


@pytest.mark.parametrize("n", [1, 2])
def test_closed_form_table_rows_are_the_single_time_forms(n):
    # verify reads a (t, g) grid from one table of t*g products at g = 1
    single = evolve_one_atom if n == 1 else evolve_two_atoms
    grid = [(0.1, 0.5), (0.7, 2.0), (10.0, 1.0)]
    table = closed_form(n, SMALL).entries([t * g for t, g in grid], 1.0)
    for i, (t, g) in enumerate(grid):
        np.testing.assert_array_equal(_dense(SMALL, 2**n, table, i).matrix,
                                      single(SMALL, t, g).matrix)


@pytest.mark.parametrize("kind", ["one", "two", "spin1"])
@pytest.mark.parametrize("t", [0.1, 1.0, 5.0, 20.0])
def test_unitarity_on_trusted(kind, t):
    g = 1.3
    builders = {
        "one": evolve_one_atom,
        "two": evolve_two_atoms,
        "spin1": lambda space, t, g: _dense(space, 3, _spin_one(space, t, g)),
    }
    u = builders[kind](SMALL, t, g)
    keep = trusted_mask(u.n_blocks, SMALL)
    gram = (u.dagger() @ u).matrix[np.ix_(keep, keep)]
    assert _max_dev(gram, np.eye(gram.shape[0])) <= 1e-10


@pytest.mark.parametrize("builder", [evolve_one_atom, evolve_two_atoms])
def test_group_law(builder):
    t1, t2, g = 0.4, 0.9, 1.3
    lhs = builder(SPACE, t1 + t2, g)
    rhs = builder(SPACE, t1, g) @ builder(SPACE, t2, g)
    assert compare(lhs, rhs).max_abs_deviation <= 1e-9


def test_gauss_product_matches_propagator():
    t, g = 0.3, 1.0
    lower, diagonal, upper = gauss_decompose_one_atom(SPACE, t, g)
    direct = evolve_one_atom(SPACE, t, g)
    assert compare(lower @ diagonal @ upper, direct).max_abs_deviation <= 1e-9


def test_gauss_factor_shapes():
    lower, diagonal, upper = gauss_decompose_one_atom(SPACE, 0.3, 1.0)
    eye = np.eye(SPACE.cutoff)
    zero = np.zeros((SPACE.cutoff, SPACE.cutoff))
    np.testing.assert_array_equal(lower.block(0, 0), eye)
    np.testing.assert_array_equal(lower.block(0, 1), zero)
    np.testing.assert_array_equal(upper.block(1, 0), zero)
    np.testing.assert_array_equal(diagonal.block(0, 1), zero)
    np.testing.assert_allclose(
        np.diag(diagonal.block(1, 1)),
        [1.0 / math.cos(0.3 * math.sqrt(m)) for m in range(SPACE.cutoff)],
        rtol=1e-12,
    )


def test_gauss_lower_variants_agree():
    # f(N) a+ = a+ f(N+1): the lower factor is the transpose of the upper one
    lower, _, upper = gauss_decompose_one_atom(SPACE, 0.3, 1.0)
    dev = _max_dev(lower.matrix, upper.matrix.T)
    assert dev <= 1e-12


def test_gauss_identity_at_zero():
    factors = gauss_decompose_one_atom(SPACE, 0.0, 1.0)
    eye = np.eye(2 * SPACE.cutoff)
    assert len(factors) == 3
    for f in factors:
        np.testing.assert_array_equal(f.matrix, eye)


def test_gauss_refuses_singular_point():
    # tg = pi/2 makes cos(tg sqrt(1)) vanish
    with pytest.raises(GaussSingularityError) as exc:
        gauss_decompose_one_atom(SPACE, math.pi / 2, 1.0)
    assert exc.value.level == 1
    assert exc.value.value <= 1e-8
    assert "m=1" in str(exc.value)


def test_gauss_threshold_is_adjustable(monkeypatch):
    # a generous threshold rejects points where the default succeeds
    gauss_decompose_one_atom(SPACE, 0.3, 1.0)
    monkeypatch.setattr(propagator, "GAUSS_TAU_SING", 0.999)
    with pytest.raises(GaussSingularityError) as exc:
        gauss_decompose_one_atom(SPACE, 0.3, 1.0)
    assert exc.value.level == 1


def test_reduction_similarity_is_unitary():
    similarity, _ = _reduction(SPACE)
    gram = (similarity.dagger() @ similarity).matrix
    assert _max_dev(gram, np.eye(4 * SPACE.cutoff)) <= 1e-15


def test_reduction_block_diagonalizes():
    similarity, reduced = _reduction(SPACE)
    a_op = coupling_operator(2, SPACE)
    conj = (similarity @ a_op @ similarity.dagger()).matrix
    c = SPACE.cutoff
    expected = np.zeros_like(conj)
    expected[c:, c:] = reduced.matrix
    assert _max_dev(conj, expected) <= 1e-14


def test_reduced_coupling_pattern():
    _, reduced = _reduction(SPACE)
    root2 = math.sqrt(2.0)
    a = CompositeOperator.from_entries(1, SPACE, Entries(*annihilator_entries(SPACE))).matrix
    ad = a.conj().T
    zero = np.zeros_like(a)
    expected = np.block(
        [
            [zero, root2 * a, zero],
            [root2 * ad, zero, root2 * a],
            [zero, root2 * ad, zero],
        ]
    )
    assert _max_dev(reduced.matrix, expected) <= 1e-15


def test_spin_one_against_oracle():
    t, g = 0.9, 0.8
    _, reduced = _reduction(SPACE)
    closed = _dense(SPACE, 3, _spin_one(SPACE, t, g))
    ref = expm_hermitian(reduced, t * g)
    assert compare(closed, ref).max_abs_deviation <= 1e-10


def test_spin_one_identity_at_zero():
    u = _dense(SPACE, 3, _spin_one(SPACE, 0.0, 1.0))
    np.testing.assert_array_equal(u.matrix, np.eye(3 * SPACE.cutoff))


def test_reconstruction_matches_two_atom_form():
    got = reconstruct_two_atoms(SPACE, 0.9, 0.8)
    want = evolve_two_atoms(SPACE, 0.9, 0.8)
    assert compare(got, want).max_abs_deviation <= 1e-10


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("g", [0.5, 1.0])
def test_schrodinger_residual_quadratic_in_step(n, g):
    # central-difference residual of i dU/dt = H U drops by ~4 when the
    # step is halved
    t, omega = 0.7, 1.0
    h = 1e-4 * max(1.0, 1.0 / g)
    h_total = hamiltonian(n, SPACE, omega, omega, g).total.matrix
    keep = trusted_mask(2**n, SPACE)

    def residual(step):
        up = evolve_full(n, SPACE, t + step, omega, g).matrix
        dn = evolve_full(n, SPACE, t - step, omega, g).matrix
        mid = evolve_full(n, SPACE, t, omega, g).matrix
        res = (up - dn) / (2.0 * step) + 1j * (h_total @ mid)
        return float(np.abs(res[np.ix_(keep, keep)]).max())

    ratio = residual(h) / residual(h / 2.0)
    assert 3.5 <= ratio <= 4.5


def test_apply_flips_excited_state():
    u = evolve_one_atom(SPACE, math.pi / 2, 1.0)
    state = np.zeros(2 * SPACE.cutoff, dtype=complex)
    state[0] = 1.0
    out = apply(u, state)
    assert abs(out[SPACE.cutoff + 1] + 1j) <= 1e-12
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


def test_apply_rejects_wrong_shape():
    u = evolve_one_atom(SPACE, 0.1, 1.0)
    with pytest.raises(ValueError):
        apply(u, np.zeros(3))


# Matrix-free batched evolution against the dense route.  Both read the same
# cosz/sincz values and differ only in how they are combined with the state
# (the identity 1 + F A^2 - i G A against the table's entries), so on
# unit-norm states they agree to a few ulp at any t g.  BATCH_TOL is that
# agreement with ample margin; it stays below the 1e-12 (1 + |t g|) the
# benchmark's output check allows at t g = 0.
BATCH_TOL = 1e-13
# with g = 1.6 the last time reaches t g = 1e3, where the unclamped bottom
# two-atom branch (cosz at d = -2, i.e. cosh(sqrt(2) t g)) would overflow
BATCH_TIMES = np.array([0.0, 0.37, 1.9, 12.5, 97.3, 333.0, 625.0])


def _spread_state(n_blocks: int, space: FockSpace, seed: int) -> np.ndarray:
    """Random unit state with weight on every level, guard band included."""
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=n_blocks * space.cutoff) + 1j * rng.normal(size=n_blocks * space.cutoff)
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("g", [1.6, -0.9])
def test_batched_states_match_dense_route(n, g):
    omega = 0.8
    psi0 = _spread_state(2**n, SMALL, seed=n)
    guard = psi0.reshape(2**n, SMALL.cutoff)[:, SMALL.trusted :]
    assert np.abs(guard).min() > 0  # the truncated ladder edge is exercised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = evolve_states(n, SMALL, BATCH_TIMES, omega, g, psi0)
        for i, t in enumerate(BATCH_TIMES):
            want = evolve_full(n, SMALL, t, omega, g).matrix @ psi0
            assert _max_dev(got[i], want) <= BATCH_TOL, f"t = {t}"


@pytest.mark.parametrize("g", [1.6, -1.6])
def test_batched_two_atom_bottom_branch_at_zero_photons(g):
    # |gg,0> spans an excitation sector of its own: only the free phase
    # exp(+i t omega) acts, through the clamped bottom-row branch at m = 0
    omega = 1.1
    c = SMALL.cutoff
    psi0 = np.zeros(4 * c, dtype=complex)
    psi0[3 * c] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = evolve_states(2, SMALL, BATCH_TIMES, omega, g, psi0)
    want = np.zeros_like(got)
    want[:, 3 * c] = np.exp(1j * BATCH_TIMES * omega)
    assert _max_dev(got, want) <= BATCH_TOL
    assert np.all(np.isfinite(got))


def test_batched_coefficients_match_single_time():
    table = closed_form(2, SPACE).entries(BATCH_TIMES, 1.6)
    for i, t in enumerate(BATCH_TIMES):
        got = _dense(SPACE, 4, table, i).matrix
        assert _max_dev(got, evolve_two_atoms(SPACE, t, 1.6).matrix) <= 1e-15


def test_batched_states_reject_wrong_shape():
    with pytest.raises(ValueError):
        evolve_states(1, SMALL, BATCH_TIMES, 1.0, 1.0, np.zeros(3))


# evolve_states evaluates only the levels of a window; a window that holds the state's
# support widened by n loses nothing, so the whole level range is the reference.
def _fock(n: int, space: FockSpace, block: int, level: int) -> np.ndarray:
    psi = np.zeros(2**n * space.cutoff, dtype=complex)
    psi[block * space.cutoff + level] = 1.0
    return psi


def _window_cases(n: int, space: FockSpace):
    c = space.cutoff
    for block in range(2**n):
        for level in (0, 1, space.trusted - 1, c - 1):
            yield f"fock({level}) on block {block}", _fock(n, space, block, level)
    far = _fock(n, space, 0, 2) + 0.5j * _fock(n, space, 2**n - 1, c - 6)
    yield "two blocks at distant levels", far / np.linalg.norm(far)
    yield "coherent", build_state(InitialStateSpec("e" * n, "coherent", alpha=1.2 - 0.7j), space)


def _support_window(n: int, psi: np.ndarray) -> tuple[int, int]:
    """The levels of the state's support, widened by n and cut to the level range."""
    c = psi.size // 2**n
    levels = np.flatnonzero(psi) % c
    return max(0, int(levels.min()) - n), min(c, int(levels.max()) + 1 + n)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("g", [1.6, -0.9])
def test_windowed_evolution_equals_the_full_window(n, g):
    omega = 0.8
    for name, psi0 in _window_cases(n, SMALL):
        got = evolve_states(n, SMALL, BATCH_TIMES, omega, g, psi0, _support_window(n, psi0))
        full = evolve_states(n, SMALL, BATCH_TIMES, omega, g, psi0, (0, SMALL.cutoff))
        assert np.array_equal(got, full), name


# the identity route against the dense closed-form table times the state, per amplitude
IDENTITY_ULPS = 4


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("g", [1.6, -0.9])
def test_identity_route_matches_the_dense_table_route(n, g):
    omega = 0.8
    eps = np.finfo(float).eps
    table = closed_form(n, SMALL).entries(BATCH_TIMES, g)
    phase = free_phase(n, SMALL, BATCH_TIMES, omega)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, psi0 in _window_cases(n, SMALL):
            got = evolve_states(n, SMALL, BATCH_TIMES, omega, g, psi0, _support_window(n, psi0))
            for i, t in enumerate(BATCH_TIMES):
                want = phase[i] * (_dense(SMALL, 2**n, table, i).matrix @ psi0)
                bound = IDENTITY_ULPS * eps * (1 + abs(t * g))
                assert _max_dev(got[i], want) <= bound, f"{name}, t = {t}"


@pytest.mark.parametrize("n", [1, 2])
def test_zero_state_evolves_to_zeros(n):
    got = evolve_states(n, SMALL, BATCH_TIMES, 0.8, 1.6, np.zeros(2**n * SMALL.cutoff))
    assert got.shape == (len(BATCH_TIMES), 2**n * SMALL.cutoff)
    assert not got.any()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("window", [(0, 5), (1, 9), (7, 19), (33, 40)])
def test_windowed_table_holds_the_full_rows_of_its_window(n, window):
    # a state on every level of the window, its edges included: the window's rows are those
    # of the whole level range bit for bit, and the rows outside it stay zero.  BATCH_TIMES
    # reach t g = 1e3: the bottom branch at m = 0 would overflow unclamped
    lo, hi = window
    inside = np.zeros((2**n, SMALL.cutoff), dtype=bool)
    inside[:, lo:hi] = True
    inside = inside.ravel()
    psi0 = np.where(inside, _spread_state(2**n, SMALL, seed=lo), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        part = evolve_states(n, SMALL, BATCH_TIMES, 0.8, 1.6, psi0, window)
        whole = evolve_states(n, SMALL, BATCH_TIMES, 0.8, 1.6, psi0)
    assert np.array_equal(part[:, inside], whole[:, inside])
    assert not part[:, ~inside].any()
    assert whole[:, ~inside].any()  # the coupling reaches past the window


# windows from level 0 reach the bottom two-atom row at m = 0, whose branch d = 2(2m - 1)
# would be -2 there: cosz refuses -2 (t g)^2, whose series is cosh(sqrt(2) t g) and overflows
# near t g = 503
CLAMP_TIMES = np.array([0.0, 0.37, 12.5, 503.0, 1e3, 1e4, 1e5, 1e6])


def test_closed_forms_pass_no_negative_argument_to_cosz_or_sincz(monkeypatch):
    smallest = []
    for name in ("cosz", "sincz"):
        fn = getattr(propagator, name)
        monkeypatch.setattr(propagator, name,
                            lambda x, fn=fn: smallest.append(float(np.min(x))) or fn(x))
    bottom = SMALL.cutoff * 3  # (gg, gg) at m = 0 in the two-atom table
    state = np.zeros(4 * SMALL.cutoff, dtype=complex)
    state[bottom] = 1.0
    with np.errstate(all="raise"):
        for n in (1, 2):
            closed_form(n, SMALL).entries(CLAMP_TIMES, 1.0)
            ground = _fock(n, SMALL, 2**n - 1, 0)  # the all-g row at m = 0, where D = 0
            for window in ((0, 1), (0, 5)):
                evolve_states(n, SMALL, CLAMP_TIMES, 0.8, 1.0, ground, window)
        _spin_one(SMALL, CLAMP_TIMES, 1.0)
        reduced_form(SMALL).entries(CLAMP_TIMES, 1.0)
        for tg in (0.3, 12.0, 1e6):
            layout, coefficients = gauss_tables(SMALL, tg, 1.0)
            layout.entries(coefficients)
        evolve_states(2, SMALL, CLAMP_TIMES, 0.8, 1.0, state)
        full = closed_form(2, SMALL).entries(CLAMP_TIMES, 1.0)
    # 13 builder calls (2 closed forms, 4 windowed evolutions, spin-1, reduced, 3 Gauss,
    # evolve, full), each one cosz and one sincz
    assert len(smallest) == 2 * 13 and min(smallest) >= 0.0
    at_bottom = (full.rows == bottom) & (full.cols == bottom)
    assert at_bottom.sum() == 1
    assert np.array_equal(full.values[:, at_bottom], np.ones((len(CLAMP_TIMES), 1)))


@pytest.mark.parametrize("cutoff", [2, 5, 60])
@pytest.mark.parametrize("n", [1, 2])
def test_largest_branch_is_the_largest_branch_the_closed_form_reads(monkeypatch, n, cutoff):
    seen = []
    branch = propagator._branch
    monkeypatch.setattr(propagator, "_branch",
                        lambda t, g, d: seen.append(float(np.max(d))) or branch(t, g, d))
    space = FockSpace(cutoff, 0)
    closed_form(n, space).entries(0.3, 1.0)
    evolve_states(n, space, [0.3], 0.8, 1.0, np.ones(2**n * cutoff))  # every level
    if n == 1:
        gauss_tables(space, 0.3, 1.0)
    assert seen and max(seen) == propagator.largest_branch(n, cutoff)
