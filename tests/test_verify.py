"""Contract of the verify check suite: which checks run, and that their bounds catch faults."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from tcprop import (
    CompositeOperator,
    Entries,
    FockSpace,
    Layout,
    annihilator_entries,
    closed_form,
    compare,
    coupling_operator,
    excitation,
    expm_hermitian,
    oracle,
    propagator,
    reduction_entries,
    relation_fits,
    verify,
)
from tcprop.cli import main
from tcprop.verify import gauss_deviations, run_checks

SPACE = FockSpace(24, 4)
FAST = ["--cutoff", "24", "--guard", "4"]
EPS = np.finfo(float).eps

ALGEBRAIC = ["su2-relations", "coupling-pattern", "coupling-hermitian", "excitation-commutes"]
CHECKS = {
    1: [
        *ALGEBRAIC,
        "key-relation-squared",
        "closed-vs-oracle",
        "full-vs-oracle",
        "gauss-product",
        "gauss-variants",
        "schrodinger-residual-ratio",
        "unitarity",
        "group-law",
    ],
    2: [
        *ALGEBRAIC,
        "key-relation-squared",
        "key-relation-cubed",
        "closed-vs-oracle",
        "full-vs-oracle",
        "reduction-orthogonal",
        "reduction-blockdiag",
        "spin1-pattern",
        "reduction-reconstruction",
        "two-atom-block-identities",
        "schrodinger-residual-ratio",
        "unitarity",
        "group-law",
    ],
    3: ALGEBRAIC,
}
THREE_ATOM_NOTE = "no closed-form propagator exists for three atoms; propagator checks skipped"


def _by_name(n: int, space: FockSpace = SPACE) -> dict:
    return {res.name: res for res in run_checks(n, space, 1e-9)[0]}


@pytest.mark.parametrize("n, count", [(1, 12), (2, 16), (3, 4)])
def test_check_names_order_and_count(n, count):
    results, notes = run_checks(n, SPACE, 1e-9)
    assert [res.name for res in results] == CHECKS[n]
    assert len(results) == count
    assert all(res.passed for res in results)
    assert notes == ([THREE_ATOM_NOTE] if n == 3 else [])


def _filled_from(table):
    """A stand-in for verify.closed_form whose every fill is the entries ``table(n, space, t, g)``
    gathered on the split, so a fault injected into them reaches the checks, outside entries
    too."""

    def form(n, space):
        return SimpleNamespace(on=lambda split: lambda t, g: split.gather(table(n, space, t, g)))

    return form


def _coefficients(n, space, t, g):
    """The closed form's layout and its coefficients (times, terms, cutoff) at the time(s) t."""
    form = closed_form(n, space)
    return form.layout, propagator._spectral(t, g, form.branch, form.at, form.scale, form.shift)


def _perturbed_table(n, space, t, g):
    """The closed form with its first term's coefficients shifted by 1e-6."""
    layout, coefficients = _coefficients(n, space, t, g)
    coefficients[:, 0] += 1e-6
    return layout.entries(coefficients)


@pytest.mark.parametrize("n", [1, 2])
def test_perturbed_closed_form_fails_its_checks(monkeypatch, capsys, n):
    monkeypatch.setattr(verify, "closed_form", _filled_from(_perturbed_table))
    failed = {name for name, res in _by_name(n).items() if not res.passed}
    assert {"closed-vs-oracle", "unitarity", "group-law"} <= failed
    assert main(["verify", "--atoms", str(n), *FAST]) == 1
    out = capsys.readouterr().out
    for name in ("closed-vs-oracle", "unitarity", "group-law"):
        assert f"FAIL {name} " in out


def _nan_at(scale: float):
    """The closed form with a NaN coefficient on a trusted entry at every time equal to ``scale``.

    run_checks fills the oracle and unitarity grids at g = 1, so their times are the t g scales.
    """

    def table(n, space, t, g):
        layout, coefficients = _coefficients(n, space, t, g)
        coefficients[np.atleast_1d(t) == scale, 0, 0] = np.nan
        return layout.entries(coefficients)

    return table


# the t g of every point of the closed-vs-oracle, full-vs-oracle and unitarity grids, in order:
# points 0 and 17 (t g = 0.05) are in both the oracle and the unitarity grid, point 5 (1.4)
# only in the oracle grid and point 20 (0.5) only in the unitarity grid
GRID_POINTS = (*verify.ORACLE_TG, *verify.FULL_TIMES, *verify.UNITARITY_TG)


@pytest.mark.parametrize("index, check", [(0, "closed-vs-oracle"), (5, "closed-vs-oracle"),
                                          (17, "unitarity"), (20, "unitarity")])
@pytest.mark.parametrize("n", [1, 2])
def test_a_nan_at_any_grid_point_fails_its_check(monkeypatch, capsys, n, index, check):
    scale = GRID_POINTS[index]
    monkeypatch.setattr(verify, "closed_form", _filled_from(_nan_at(scale)))
    results = _by_name(n)
    # a shared scale fails both checks, any other only its own
    failing = [name for name, grid in (("closed-vs-oracle", verify.ORACLE_TG),
                                       ("unitarity", verify.UNITARITY_TG)) if scale in grid]
    assert check in failing
    for name in ("closed-vs-oracle", "unitarity"):
        assert np.isnan(results[name].deviation) == (name in failing)
        assert results[name].passed == (name not in failing)
    if "closed-vs-oracle" in failing:
        t, g = verify.ORACLE_GRID[verify.ORACLE_TG.index(scale)]
        assert results["closed-vs-oracle"].note.startswith(f"worst at t={t:g} g={g:g}, ")
    assert main(["verify", "--atoms", str(n), *FAST]) == 1
    out = capsys.readouterr().out
    for name in failing:
        assert f"FAIL {name:28s} deviation nan" in out


def test_cubic_diagonal_shifted_one_level_fails(monkeypatch):
    # E + 1 turns D = 2(2E + 1) into the diagonal of the next photon level
    monkeypatch.setattr(verify, "excitation", lambda n, space: excitation(n, space) + 1)
    failed = [name for name, res in _by_name(2).items() if not res.passed]
    assert failed == ["key-relation-cubed"]


@pytest.mark.parametrize("n", [1, 2])
def test_key_relation_bound_is_four_ulps_of_the_reference(n):
    results = _by_name(n)
    # the largest trusted entry of A^2 is 2 * 20 for two atoms, 20 for one
    assert results["key-relation-squared"].tol == 4 * EPS * 20 * n
    if n == 2:
        # the largest trusted entry of D A is 2(2*18 + 3) * sqrt(19) on row (ee, 18)
        assert results["key-relation-cubed"].tol == pytest.approx(4 * EPS * 78 * np.sqrt(19))
        assert results["key-relation-cubed"].tol < 1e-12


def test_key_relations_pass_at_cutoff_200():
    results = _by_name(2, FockSpace(200))
    for name in ("key-relation-squared", "key-relation-cubed"):
        assert results[name].passed, results[name]
    assert results["key-relation-cubed"].tol > 1e-12


def test_gauss_checks_report_gauss_deviations():
    results = _by_name(1)
    product, variant = gauss_deviations(SPACE, 0.3, 1.0)
    assert results["gauss-product"].deviation == product
    assert results["gauss-variants"].deviation == variant


def _ladder(space):
    """The annihilator as a dense matrix, assembled from its entry list."""
    return CompositeOperator.from_entries(1, space, Entries(*annihilator_entries(space))).matrix


def _old_pattern_ref(n, space):
    """The coupling operator as hand-written np.block layouts, one per atom count."""
    a = _ladder(space)
    ad = a.conj().T
    z = np.zeros_like(a)
    if n == 1:
        return np.block([[z, a], [ad, z]])
    if n == 2:
        return np.block([[z, a, a, z], [ad, z, z, a], [ad, z, z, a], [z, ad, ad, z]])
    inner = _old_pattern_ref(2, space)
    eye4 = np.eye(4)
    return np.block([[inner, np.kron(eye4, a)], [np.kron(eye4, ad), inner]])


def _old_square_ref(n, space):
    """A^2 assembled with from_blocks from number, a @ a and a+ @ a+."""
    a = _ladder(space)
    ad = a.conj().T
    n_mat = np.diag(np.arange(space.cutoff, dtype=complex))
    eye_f = np.eye(space.cutoff, dtype=complex)
    if n == 1:
        return CompositeOperator.from_blocks(space, [[n_mat + eye_f, 0], [0, n_mat]])
    mid = 2 * n_mat + eye_f
    return CompositeOperator.from_blocks(
        space,
        [
            [2 * (n_mat + eye_f), 0, 0, 2 * (a @ a)],
            [0, mid, mid, 0],
            [0, mid, mid, 0],
            [2 * (ad @ ad), 0, 0, 2 * n_mat],
        ],
    )


def _old_spin1_ref(space):
    a = _ladder(space)
    ad = a.conj().T
    z = np.zeros_like(a)
    r2 = np.sqrt(2.0)
    return np.block([[z, r2 * a, z], [r2 * ad, z, r2 * a], [z, r2 * ad, z]])


def _old_spin1_square_ref(space):
    """B^2 from number, a @ a and a+ @ a+, every factor an exact integer times them."""
    a = _ladder(space)
    ad = a.conj().T
    n_mat = np.diag(np.arange(space.cutoff, dtype=complex))
    eye_f = np.eye(space.cutoff, dtype=complex)
    z = np.zeros_like(a)
    return np.block([[2 * (n_mat + eye_f), z, 2 * (a @ a)], [z, 2 * (2 * n_mat + eye_f), z],
                     [2 * (ad @ ad), z, 2 * n_mat]])


def _table_ref(space, rows):
    layout, coefficients = propagator._layout(space, rows)
    return CompositeOperator.from_entries(len(rows), space, layout.entries(coefficients)).matrix


@pytest.mark.parametrize("cutoff", [2, 5, 24])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_table_references_equal_the_block_layouts_bitwise(n, cutoff):
    space = FockSpace(cutoff)
    pattern, square = verify._rows(space, n)
    np.testing.assert_array_equal(_table_ref(space, pattern), _old_pattern_ref(n, space))
    if n < 3:
        np.testing.assert_array_equal(_table_ref(space, square), _old_square_ref(n, space).matrix)
    if n == 2:
        spin1, spin1_square = verify._rows(space, "spin1")
        np.testing.assert_array_equal(_table_ref(space, spin1), _old_spin1_ref(space))
        # 2 (2N + 1), not fl(sqrt 2)^2 (2N + 1), which is an ulp off
        np.testing.assert_array_equal(_table_ref(space, spin1_square),
                                      _old_spin1_square_ref(space))


def _patch_rows(monkeypatch, edit, q=1, which=0):
    """Replace verify._rows by the same rows with ``edit`` applied to the rows of A
    (``which`` 0) or A^2 (1) of the ladder matrices with that q."""
    original = verify._rows

    def patched(space, ladder):
        rows = original(space, ladder)
        if propagator._LADDERS[ladder][1] == q:
            edit(rows[which])
        return rows

    monkeypatch.setattr(verify, "_rows", patched)


@pytest.mark.parametrize("n", [1, 2])
def test_wrong_square_diagonal_fails_only_key_relation_squared(monkeypatch, n):
    def edit(rows):
        # 2m + 1 -> 2m on the (eg, eg) block; N + 1 -> N on the one-atom (e, e) block
        k, coef = rows[n - 1][n - 1]
        rows[n - 1][n - 1] = (k, coef - 1)

    _patch_rows(monkeypatch, edit, which=1)
    failed = [name for name, res in _by_name(n).items() if not res.passed]
    assert failed == ["key-relation-squared"]


def test_dropping_the_outer_ladder_blocks_fails_coupling_pattern(monkeypatch):
    def edit(rows):
        for i in range(4):
            rows[i][4 + i] = rows[4 + i][i] = None

    _patch_rows(monkeypatch, edit)
    failed = [name for name, res in _by_name(3).items() if not res.passed]
    assert failed == ["coupling-pattern"]


def test_wrong_spin1_factor_fails_spin1_pattern(monkeypatch):
    def edit(rows):
        k, coef = rows[0][1]
        rows[0][1] = (k, coef * (1 + 1e-15))

    _patch_rows(monkeypatch, edit, q=2)
    failed = [name for name, res in _by_name(2).items() if not res.passed]
    assert failed == ["spin1-pattern"]


def test_zeroed_ladder_matrix_entry_fails_the_independent_references(monkeypatch):
    # U_2 without its (eg, gg) entry: the references and the closed form lose the same
    # blocks, while the coupling and the oracle keep S_+- from the ground-bit table
    up = propagator._LADDERS[2][0].copy()
    up[1, 3] = 0.0
    excited = propagator._LADDERS[2][-1]
    monkeypatch.setitem(propagator._LADDERS, 2, (up, 1, up @ up, up @ up.T, up.T @ up, excited))
    failed = [name for name, res in _by_name(2).items() if not res.passed]
    assert {"coupling-pattern", "key-relation-squared", "closed-vs-oracle"} <= set(failed)


@pytest.mark.parametrize("cutoff", [24, 80])
def test_blockdiag_bound_is_four_ulps_of_the_spin1_block(cutoff):
    results = _by_name(2, FockSpace(cutoff))
    # the largest entry of blockdiag(0, B) is sqrt(2) sqrt(cutoff - 1), in the guard band
    assert results["reduction-blockdiag"].tol == pytest.approx(
        4 * EPS * np.sqrt(2.0) * np.sqrt(cutoff - 1)
    )
    assert results["reduction-blockdiag"].passed


def test_cross_sector_entry_of_b_fails_blockdiag_and_pattern(monkeypatch):
    def with_cross_sector_entry(space):
        similarity, b, order = reduction_entries(space)
        # B block (0, 0) at photon levels (0, 1): excitation 1 to excitation 2
        b = Entries(np.append(b.rows, 0), np.append(b.cols, 1), np.append(b.values, 1e-6))
        return similarity, b, order

    monkeypatch.setattr(verify, "reduction_entries", with_cross_sector_entry)
    failed = {name: res.deviation for name, res in _by_name(2).items() if not res.passed}
    assert failed == {"reduction-blockdiag": pytest.approx(1e-6),
                      "spin1-pattern": pytest.approx(1e-6)}


@pytest.mark.parametrize("order", [[0, 1, 2, 3], [0, 2, 1, 3], [3, 0, 2, 1]])
def test_wrong_swap_order_fails_the_reduction(monkeypatch, order):
    def with_order(space):
        similarity, b, _ = reduction_entries(space)
        return similarity, b, np.array(order)

    monkeypatch.setattr(verify, "reduction_entries", with_order)
    failed = [name for name, res in _by_name(2).items() if not res.passed]
    assert failed == ["reduction-orthogonal", "reduction-blockdiag", "reduction-reconstruction"]


def _with_cross_sector_term(n, space, t, g):
    """The closed form plus 1e-6 a on the (0, 0) block: a term that changes the excitation."""
    layout, coefficients = _coefficients(n, space, t, g)
    keys, imag = [*layout.keys, (0, 0, 1)], np.append(layout.imag, False)
    layout = Layout(space, keys, imag)
    term = np.full((np.size(t), 1, space.cutoff), 1e-6)
    return layout.entries(np.concatenate([coefficients, term], axis=1))


@pytest.mark.parametrize("n", [1, 2])
def test_entries_between_blocks_count_in_full(monkeypatch, n):
    monkeypatch.setattr(verify, "closed_form", _filled_from(_with_cross_sector_term))
    results = _by_name(n)
    # the largest extra entry is 1e-6 sqrt(23), on the guard row 22: never restricted or dropped
    for name in ("closed-vs-oracle", "unitarity"):
        assert not results[name].passed
        assert results[name].deviation == pytest.approx(1e-6 * np.sqrt(23))
    assert "photons (22, 23)" in results["closed-vs-oracle"].note


def _one_pass_components(rows, cols, dim):
    """The oracle's label propagation stopped after its first pass."""
    rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    label = np.arange(dim)
    new = label.copy()
    np.minimum.at(new, rows, label[cols])
    return new[new]


def test_unfinished_label_propagation_is_refused(monkeypatch):
    monkeypatch.setattr(oracle, "_components", _one_pass_components)
    with pytest.raises(ValueError, match="between two blocks"):
        run_checks(2, SPACE, 1e-9)
    with pytest.raises(ValueError, match="between two blocks"):
        relation_fits(3, SPACE, (3,))


def test_two_atom_checks_at_cutoff_3000_stay_small():
    # one dense 12000 x 12000 complex matrix would take 2.3 GB
    tracemalloc.start()
    try:
        results, _ = run_checks(2, FockSpace(3000), 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(res.passed for res in results)
    assert peak < 200e6


# 9 500 at two atoms: the oracle grid and the unitarity Gram product run SCALES_PER_PASS scales
# at a time over their fill
@pytest.mark.parametrize("n, bound", [(1, 4_000), (2, 15_000), (2, 9_500)])
def test_checks_at_cutoff_2000_hold_a_bounded_peak_per_level(n, bound):
    # each check fills the closed forms of its own grid where it uses them, and releases them
    run_checks(n, SPACE, 1e-9)  # first-call allocations stay out of the trace
    tracemalloc.start()
    try:
        results, _ = run_checks(n, FockSpace(2000), 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(res.passed for res in results)
    assert peak / 2000 < bound


@pytest.mark.parametrize("cutoff", [24, 120])
@pytest.mark.parametrize("n", [1, 2])
def test_results_do_not_depend_on_the_pass_size(monkeypatch, n, cutoff):
    # each scale is exponentiated, compared and squared on its own rows of its grid's fill
    space = FockSpace(cutoff)
    results = []
    for size in (1, 4, 12):
        monkeypatch.setattr(verify, "SCALES_PER_PASS", size)
        results.append(run_checks(n, space, 1e-9))
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("n", [1, 2])
def test_closed_vs_oracle_equals_the_dense_comparison(n):
    # the blocked route reads the same entries and runs the same eigh per block
    a_op = coupling_operator(n, SPACE)
    worst = max(
        compare(CompositeOperator.from_entries(2**n, SPACE,
                                               closed_form(n, SPACE).entries(t * g, 1.0).at(0)),
                expm_hermitian(a_op, t * g))
        .max_abs_deviation
        for t in verify.ORACLE_T
        for g in verify.ORACLE_G
    )
    assert _by_name(n)["closed-vs-oracle"].deviation == worst
