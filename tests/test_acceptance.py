"""Acceptance checks: one test and one printed line per criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import csv
import math
import time

import numpy as np

from tcprop import (
    CompositeOperator,
    FockSpace,
    GaussSingularityError,
    collective,
    compare,
    coupling_operator,
    evolve_full,
    evolve_one_atom,
    evolve_two_atoms,
    expm_hermitian,
    gauss_decompose_one_atom,
    hamiltonian,
    reconstruct_two_atoms,
    reduction_entries,
    relation_fit,
    spectral_fn,
    trusted_mask,
)
from tcprop.cli import main as cli_main
from tcprop.propagator import _SPIN1_UP, _UP, _layout, _rows

SPACE = FockSpace(60, 8)
T_GRID = (0.1, 0.7, 2.5, 10.0)
G_GRID = (0.5, 1.0, 2.0)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _grid_deviation(n: int) -> float:
    build = evolve_one_atom if n == 1 else evolve_two_atoms
    a_op = coupling_operator(n, SPACE)
    worst = 0.0
    for t in T_GRID:
        for g in G_GRID:
            ref = expm_hermitian(a_op, t * g)
            worst = max(worst, compare(build(SPACE, t, g), ref).max_abs_deviation)
    return worst


def test_criterion_1_one_atom_oracle_grid():
    start = time.perf_counter()
    worst = _grid_deviation(1)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(1, ok, f"one-atom closed form vs oracle, max dev {worst:.3e} "
                   f"(tol 1e-10), {elapsed:.2f}s (< 5s)")


def test_criterion_2_two_atom_oracle_grid():
    start = time.perf_counter()
    worst = _grid_deviation(2)
    # the two sum-pattern blocks feeding the last column, checked alone
    t, g = 0.7, 1.3
    closed = evolve_two_atoms(SPACE, t, g)
    ref = expm_hermitian(coupling_operator(2, SPACE), t * g)
    tr = SPACE.trusted
    block_dev = max(
        float(np.abs(closed.block(i, 3)[:tr, :tr] - ref.block(i, 3)[:tr, :tr]).max())
        for i in (1, 2)
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and block_dev <= 1e-10 and elapsed < 10.0
    _report(2, ok, f"two-atom closed form vs oracle, max dev {worst:.3e}, "
                   f"sum blocks {block_dev:.3e} (tol 1e-10), {elapsed:.2f}s (< 10s)")


def _displayed_squares(cutoff: int) -> dict:
    """A^2 of one and two atoms and the spin-1 B^2 as displayed, as block rows of (k, f(m))."""
    m = np.arange(cutoff, dtype=float)
    two = np.full_like(m, 2.0)
    mid = (0, 2 * m + 1)
    return {
        "one-atom A^2": [[(0, m + 1), None], [None, (0, m)]],
        "two-atom A^2": [[(0, 2 * (m + 1)), None, None, (2, two)], [None, mid, mid, None],
                         [None, mid, mid, None], [(-2, two), None, None, (0, 2 * m)]],
        "B^2": [[(0, 2 * (m + 1)), None, (2, two)], [None, (0, 2 * (2 * m + 1)), None],
                [(-2, two), None, (0, 2 * m)]],
    }


def _square_mismatches(cutoffs) -> list[str]:
    """The displayed squares whose keys or coefficient bytes differ from the rows the closed
    forms derive from their ladder matrices, as "name at cutoff c"."""
    bad = []
    for cutoff in cutoffs:
        space = FockSpace(cutoff)
        derived = {"one-atom A^2": _rows(space, _UP[1], 1)[1],
                   "two-atom A^2": _rows(space, _UP[2], 1)[1],
                   "B^2": _rows(space, _SPIN1_UP, 2)[1]}
        for name, rows in _displayed_squares(cutoff).items():
            (want, want_coef), (got, got_coef) = _layout(space, rows), _layout(space, derived[name])
            same = (want.keys == got.keys and want.imag.tolist() == got.imag.tolist()
                    and want_coef.dtype == got_coef.dtype and want_coef.shape == got_coef.shape
                    and want_coef.tobytes() == got_coef.tobytes())
            bad += [] if same else [f"{name} at cutoff {cutoff}"]
    return bad


def test_criterion_3_operator_relations():
    keep1 = trusted_mask(2, SPACE)
    a1 = coupling_operator(1, SPACE)
    sq = (a1 @ a1).matrix
    up = spectral_fn(SPACE, lambda m: m + 1.0)
    dn = spectral_fn(SPACE, lambda m: float(m))
    zero = np.zeros_like(up)
    expected_sq = np.block([[up, zero], [zero, dn]])
    dev_sq = float(np.abs((sq - expected_sq)[np.ix_(keep1, keep1)]).max())

    keep2 = trusted_mask(4, SPACE)
    a2 = coupling_operator(2, SPACE)
    cube = (a2 @ a2 @ a2).matrix
    branches = [lambda m: 2.0 * (2 * m + 3), lambda m: 2.0 * (2 * m + 1),
                lambda m: 2.0 * (2 * m + 1), lambda m: 2.0 * (2 * m - 1)]
    d_diag = np.concatenate([np.diag(spectral_fn(SPACE, f)) for f in branches])
    expected_cube = d_diag[:, None] * a2.matrix
    dev_cube = float(np.abs((cube - expected_cube)[np.ix_(keep2, keep2)]).max())

    # the displayed A^2 and B^2 hold exact integers: 2 (2N + 1), not fl(sqrt 2)^2 (2N + 1)
    bad = _square_mismatches((2, 4, 24, 120, 400))
    ok = dev_sq <= 1e-12 and dev_cube <= 1e-12 and not bad
    _report(3, ok, f"coupling-operator square/cube relations, dev {dev_sq:.3e} / "
                   f"{dev_cube:.3e} (tol 1e-12), displayed A^2 and B^2 rows bitwise at "
                   f"cutoffs 2-400: {', '.join(bad) or 'all equal'}")


def test_criterion_4_triangular_factorization():
    lower, diagonal, upper = gauss_decompose_one_atom(SPACE, 0.3, 1.0)
    product_dev = compare(lower @ diagonal @ upper,
                          evolve_one_atom(SPACE, 0.3, 1.0)).max_abs_deviation
    variant_dev = float(np.abs(lower.matrix - upper.matrix.T).max())
    try:
        gauss_decompose_one_atom(SPACE, math.pi / 2, 1.0)
        refused, named = False, False
    except GaussSingularityError as exc:
        refused, named = True, exc.level == 1 and "m=1" in str(exc)
    ok = product_dev <= 1e-9 and variant_dev <= 1e-12 and refused and named
    _report(4, ok, f"factorization product dev {product_dev:.3e} (tol 1e-9), "
                   f"variants {variant_dev:.3e} (tol 1e-12), singular point "
                   f"refused naming level 1: {refused and named}")


def test_criterion_5_reduction_and_reconstruction():
    similarity, b, _ = reduction_entries(SPACE)
    similarity = CompositeOperator.from_entries(4, SPACE, similarity)
    reduced = CompositeOperator.from_entries(3, SPACE, b)
    a_op = coupling_operator(2, SPACE)
    conj = (similarity @ a_op @ similarity.dagger()).matrix
    c = SPACE.cutoff
    expected = np.zeros_like(conj)
    expected[c:, c:] = reduced.matrix
    block_dev = float(np.abs(conj - expected).max())
    recon_dev = compare(
        reconstruct_two_atoms(SPACE, 0.9, 0.8), evolve_two_atoms(SPACE, 0.9, 0.8)
    ).max_abs_deviation
    ok = block_dev <= 1e-14 and recon_dev <= 1e-10
    _report(5, ok, f"block-diagonalization dev {block_dev:.3e} (tol 1e-14), "
                   f"reconstruction dev {recon_dev:.3e} (tol 1e-10)")


def test_criterion_6_schrodinger_residual():
    t, omega, g = 0.7, 1.0, 1.0
    h = 1e-4 * max(1.0, 1.0 / g)
    ratios = []
    for n in (1, 2):
        h_total = hamiltonian(n, SPACE, omega, omega, g).total.matrix
        keep = trusted_mask(2**n, SPACE)

        def residual(step, n=n, h_total=h_total, keep=keep):
            up = evolve_full(n, SPACE, t + step, omega, g).matrix
            dn = evolve_full(n, SPACE, t - step, omega, g).matrix
            mid = evolve_full(n, SPACE, t, omega, g).matrix
            res = (up - dn) / (2.0 * step) + 1j * (h_total @ mid)
            return float(np.abs(res[np.ix_(keep, keep)]).max())

        ratios.append(residual(h) / residual(h / 2.0))
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    _report(6, ok, "finite-difference residual drops by "
                   f"{ratios[0]:.2f}x / {ratios[1]:.2f}x when halving the step "
                   "(expected within [3.5, 4.5])")


def test_criterion_7_relation_search():
    start = time.perf_counter()
    tr = SPACE.trusted
    rep1 = relation_fit(1, SPACE, 3)
    vals1 = rep1.best_fit_values
    expected1 = [lambda m: m + 1.0, lambda m: float(m)]
    dev1 = max(
        abs(vals1[k, m] - expected1[k](m))
        for k in range(2) for m in range(tr) if not np.isnan(vals1[k, m])
    )
    rep2 = relation_fit(2, SPACE, 3)
    vals2 = rep2.best_fit_values
    expected2 = [lambda m: 2.0 * (2 * m + 3), lambda m: 2.0 * (2 * m + 1),
                 lambda m: 2.0 * (2 * m + 1), lambda m: 2.0 * (2 * m - 1)]
    dev2 = max(
        abs(vals2[k, m] - expected2[k](m))
        for k in range(4) for m in range(tr) if not np.isnan(vals2[k, m])
    )
    small = FockSpace(40, 5)
    res3 = min(relation_fit(3, small, p).relative_residual for p in (3, 5))
    elapsed = time.perf_counter() - start
    ok = (dev1 <= 1e-10 and rep1.relative_residual <= 1e-12
          and dev2 <= 1e-10 and rep2.relative_residual <= 1e-12
          and res3 > 1e-3 and elapsed < 30.0)
    _report(7, ok, f"diagonal recovery dev {max(dev1, dev2):.3e} (tol 1e-10), "
                   f"residuals {rep1.relative_residual:.1e}/{rep2.relative_residual:.1e} "
                   f"(tol 1e-12), three-atom best residual {res3:.3e} (> 1e-3), "
                   f"{elapsed:.2f}s (< 30s)")


def test_criterion_8_cli_trajectory(tmp_path):
    one = tmp_path / "one.csv"
    rc1 = cli_main([
        "evolve", "--atoms", "1", "--initial", "e:fock(0)", "--g", "1",
        "--omega", "1", "--t0", "0", "--t1", "10", "--steps", "500",
        "--out", str(one),
    ])
    with open(one, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    dev_one = max(
        abs(float(r[1]) - math.cos(float(r[0])) ** 2) for r in rows
    )
    two = tmp_path / "two.csv"
    rc2 = cli_main([
        "evolve", "--atoms", "2", "--initial", "gg:fock(0)", "--steps", "50",
        "--out", str(two),
    ])
    with open(two, newline="") as fh:
        rows2 = list(csv.reader(fh))[1:]
    dev_two = max(abs(float(r[4]) - 1.0) for r in rows2)
    ok = rc1 == 0 and rc2 == 0 and len(rows) == 501 and dev_one <= 1e-10 and dev_two <= 1e-12
    _report(8, ok, f"CLI excited-atom trajectory dev {dev_one:.3e} (tol 1e-10, "
                   f"{len(rows)} rows), ground pair stationary dev {dev_two:.3e} "
                   "(tol 1e-12)")


def test_criterion_9_collective_spin_algebra():
    worst = 0.0
    for n in (1, 2, 3):
        sp, sm, s3 = collective(n)
        worst = max(
            worst,
            float(np.abs(s3 @ sp - sp @ s3 - sp).max()),
            float(np.abs(s3 @ sm - sm @ s3 + sm).max()),
            float(np.abs(sp @ sm - sm @ sp - 2.0 * s3).max()),
        )
    ok = worst == 0.0
    _report(9, ok, f"collective spin commutators for 1, 2, 3 atoms, deviation {worst:.1e} "
                   "(exact)")
