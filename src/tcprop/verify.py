"""Invariant check suite behind the ``verify`` subcommand.

Grids are fixed so output depends only on atoms, cutoff, guard and tol.
Identities the construction makes exact carry tolerance 0; those checked
through a dense product carry four ulps of the largest reference entry.
Structured references are built from their displayed block rows as a
:class:`SpectralTable`, never from the kron sums they are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FockSpace
from .oracle import compare, expm_hermitian, trusted_mask
from .propagator import (
    SpectralTable,
    closed_form_table,
    evolve_full,
    evolve_one_atom,
    evolve_two_atoms,
    gauss_decompose_one_atom,
    reconstruct_two_atoms,
    reduction_transform,
)
from .spinchain import CompositeOperator, collective, coupling_operator, excitation, hamiltonian

__all__ = ["CheckResult", "gauss_deviations", "run_checks"]

ORACLE_T = (0.1, 0.7, 2.5, 10.0)
ORACLE_G = (0.5, 1.0, 2.0)
UNITARITY_T = (0.1, 1.0, 5.0, 20.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tol: float
    passed: bool
    note: str = ""


def _result(name: str, dev, tol, note: str = "") -> CheckResult:
    dev = float(dev)
    tol = float(tol)
    return CheckResult(name, dev, tol, dev <= tol, note)


def _tmax(matrix: np.ndarray, n_blocks: int, space: FockSpace) -> float:
    keep = trusted_mask(n_blocks, space)
    return float(np.abs(matrix[np.ix_(keep, keep)]).max())


def _pattern_rows(n: int, space: FockSpace) -> list:
    """Coupling operator as displayed: A_k = [[A_(k-1), a 1], [a+ 1, A_(k-1)]] from A_0 = 0."""
    ones = np.ones((1, space.cutoff))
    rows = [[None]]
    for _ in range(n):
        eye = range(len(rows))
        up = [[(1, ones) if i == j else None for j in eye] for i in eye]
        down = [[(-1, ones) if i == j else None for j in eye] for i in eye]
        rows = [row + u for row, u in zip(rows, up)] + [d + row for d, row in zip(down, rows)]
    return rows


def _square_rows(n: int, space: FockSpace) -> list:
    """A^2 as displayed: f(N) on the diagonal blocks, plus 2 a^2 and 2 a+^2 for two atoms."""
    m = np.arange(space.cutoff, dtype=float)[None, :]
    if n == 1:
        return [[(0, m + 1), None], [None, (0, m)]]
    two = np.full_like(m, 2.0)
    mid = (0, 2 * m + 1)
    return [
        [(0, 2 * (m + 1)), None, None, (2, two)],
        [None, mid, mid, None],
        [None, mid, mid, None],
        [(-2, two), None, None, (0, 2 * m)],
    ]


def _spin1_rows(space: FockSpace) -> list:
    """Spin-1 block B as displayed: sqrt(2) a above the diagonal, sqrt(2) a+ below."""
    r2 = np.full((1, space.cutoff), np.sqrt(2.0))
    return [[None, (1, r2), None], [(-1, r2), None, (1, r2)], [None, (-1, r2), None]]


def _four_ulps(largest: float) -> float:
    """Bound of an exact identity checked through dense products: four ulps of its largest entry."""
    return 4 * np.finfo(float).eps * largest


def _schrodinger_ratio(n: int, space: FockSpace, h_mat: np.ndarray, mid: np.ndarray) -> float:
    """Central-difference residual of i dU/dt = H U at U(0.7), step 1e-4 over step 5e-5.

    ``h_mat`` is H(omega = delta = g = 1) and ``mid`` the closed-form U(0.7).
    """
    t, h = 0.7, 1e-4

    def residual(step: float) -> float:
        up = evolve_full(n, space, t + step, 1.0, 1.0).matrix
        dn = evolve_full(n, space, t - step, 1.0, 1.0).matrix
        return _tmax(1j * (up - dn) / (2 * step) - h_mat @ mid, 2**n, space)

    return residual(h) / residual(h / 2)


def gauss_deviations(space: FockSpace, t: float, g: float) -> tuple[float, float]:
    """One-atom triangular factorization at (t, g): (product deviation, max|lower - upper^T|).

    The first is the trusted deviation of lower @ diagonal @ upper from the
    closed form; the second checks the shift identity f(N) a+ = a+ f(N+1).
    """
    factors = gauss_decompose_one_atom(space, t, g)
    product = compare(factors.product(), evolve_one_atom(space, t, g)).max_abs_deviation
    return product, float(np.abs(factors.lower.matrix - factors.upper.matrix.T).max())


def run_checks(n: int, space: FockSpace, tol: float) -> tuple[list[CheckResult], list[str]]:
    """Run the invariant suite for n atoms; returns (results, notes)."""
    results: list[CheckResult] = []
    notes: list[str] = []

    s_plus, s_minus, s_3 = collective(n)
    dev = max(
        np.abs(s_3 @ s_plus - s_plus @ s_3 - s_plus).max(),
        np.abs(s_3 @ s_minus - s_minus @ s_3 + s_minus).max(),
        np.abs(s_plus @ s_minus - s_minus @ s_plus - 2 * s_3).max(),
    )
    results.append(_result("su2-relations", dev, 0.0))

    a_op = coupling_operator(n, space)
    pattern = SpectralTable.from_rows(space, _pattern_rows(n, space)).to_dense()
    results.append(_result("coupling-pattern", np.abs(a_op.matrix - pattern.matrix).max(), 0.0))
    results.append(
        _result("coupling-hermitian", np.abs(a_op.matrix - a_op.matrix.conj().T).max(), 0.0)
    )
    # a diagonal operator multiplies as a vector: A E scales columns, E A rows
    e = excitation(n, space)
    commutator = a_op.matrix * e[None, :] - e[:, None] * a_op.matrix
    results.append(_result("excitation-commutes", np.abs(commutator).max(), 0.0))

    if n == 3:
        notes.append("no closed-form propagator exists for three atoms; propagator checks skipped")
        return results, notes

    sq_ref = SpectralTable.from_rows(space, _square_rows(n, space)).to_dense()
    a_sq = a_op @ a_op
    results.append(
        _result(
            "key-relation-squared",
            compare(a_sq, sq_ref).max_abs_deviation,
            _four_ulps(_tmax(sq_ref.matrix, 2**n, space)),
        )
    )
    if n == 2:
        # A^3 = D A with D = 2(2E + 1) = diag(2(2N+3), 2(2N+1), 2(2N+1), 2(2N-1))
        cube_ref = CompositeOperator(4, space, (2 * (2 * e + 1))[:, None] * a_op.matrix)
        results.append(
            _result(
                "key-relation-cubed",
                compare(a_sq @ a_op, cube_ref).max_abs_deviation,
                _four_ulps(_tmax(cube_ref.matrix, 4, space)),
            )
        )

    # the closed forms depend on t and g only through t*g: one table per grid, g = 1
    oracle_grid = [(t_val, g_val) for t_val in ORACLE_T for g_val in ORACLE_G]
    oracle_table = closed_form_table(n, space, [t * g for t, g in oracle_grid], 1.0)
    oracle_runs = []
    for i, (t_val, g_val) in enumerate(oracle_grid):
        report = compare(oracle_table.to_dense(i), expm_hermitian(a_op, t_val * g_val))
        oracle_runs.append((report, t_val, g_val))
    worst, t_val, g_val = max(oracle_runs, key=lambda run: run[0].max_abs_deviation)
    block_row, block_col, photon_row, photon_col = worst.location
    note = (f"worst at t={t_val:g} g={g_val:g}, blocks ({block_row}, {block_col}), "
            f"photons ({photon_row}, {photon_col})")
    results.append(_result("closed-vs-oracle", worst.max_abs_deviation, tol, note=note))

    h_total = hamiltonian(n, space, 1.0, 1.0, 1.0).total
    full_closed = evolve_full(n, space, 0.7, 1.0, 1.0)
    full_dev = compare(full_closed, expm_hermitian(h_total, 0.7)).max_abs_deviation
    results.append(_result("full-vs-oracle", full_dev, tol))

    if n == 1:
        product_dev, variant_dev = gauss_deviations(space, 0.3, 1.0)
        results.append(_result("gauss-product", product_dev, tol))
        results.append(_result("gauss-variants", variant_dev, 1e-12))

    if n == 2:
        similarity, b_op = reduction_transform(space)
        ortho = similarity @ similarity.dagger()
        eye_c = np.eye(4 * space.cutoff, dtype=complex)
        results.append(_result("reduction-orthogonal", np.abs(ortho.matrix - eye_c).max(), 1e-15))
        reduced = similarity @ a_op @ similarity.dagger()
        ref = np.zeros_like(reduced.matrix)
        ref[space.cutoff :, space.cutoff :] = b_op.matrix
        blockdiag_dev = np.abs(reduced.matrix - ref).max()
        results.append(
            _result("reduction-blockdiag", blockdiag_dev, _four_ulps(np.abs(ref).max()))
        )
        b_ref = SpectralTable.from_rows(space, _spin1_rows(space)).to_dense()
        results.append(_result("spin1-pattern", np.abs(b_op.matrix - b_ref.matrix).max(), 0.0))
        recon = reconstruct_two_atoms(space, 0.9, 0.8)
        results.append(
            _result(
                "reduction-reconstruction",
                compare(recon, evolve_two_atoms(space, 0.9, 0.8)).max_abs_deviation,
                1e-10,
            )
        )
        u_two = evolve_two_atoms(space, 0.7, 1.3)
        ident = max(
            np.abs(u_two.block(1, 1) - u_two.block(2, 2)).max(),
            np.abs(u_two.block(1, 2) - u_two.block(2, 1)).max(),
            np.abs(u_two.block(0, 1) - u_two.block(0, 2)).max(),
            np.abs(u_two.block(1, 0) - u_two.block(2, 0)).max(),
            np.abs(u_two.block(1, 3) - u_two.block(2, 3)).max(),
            np.abs(u_two.block(3, 1) - u_two.block(3, 2)).max(),
            np.abs(u_two.block(1, 1) - u_two.block(1, 2) - np.eye(space.cutoff)).max(),
        )
        results.append(_result("two-atom-block-identities", ident, 1e-12))

    ratio = _schrodinger_ratio(n, space, h_total.matrix, full_closed.matrix)
    results.append(
        _result("schrodinger-residual-ratio", abs(ratio - 4.0), 0.5, note=f"ratio {ratio:.4f}")
    )

    worst = 0.0
    eye_c = np.eye(2**n * space.cutoff, dtype=complex)
    unitarity_tg = [t_val * g_val for t_val in UNITARITY_T for g_val in ORACLE_G]
    unitarity_table = closed_form_table(n, space, unitarity_tg, 1.0)
    for i in range(len(unitarity_tg)):
        u = unitarity_table.to_dense(i)
        worst = max(worst, _tmax(u.matrix.conj().T @ u.matrix - eye_c, 2**n, space))
    results.append(_result("unitarity", worst, 1e-10))

    t1, t2, g_val = 0.4, 0.9, 1.3
    law_table = closed_form_table(n, space, [t1, t2, t1 + t2], g_val)
    prod = law_table.to_dense(0) @ law_table.to_dense(1)
    whole = law_table.to_dense(2)
    results.append(_result("group-law", compare(prod, whole).max_abs_deviation, 1e-9))

    return results, notes
