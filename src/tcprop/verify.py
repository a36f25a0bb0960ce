"""Invariant check suite behind the ``verify`` subcommand.

Grids are fixed so output depends only on atoms, cutoff, guard and tol.
Identities the construction makes exact carry tolerance 0; those checked
through a product carry four ulps of the largest reference entry.
Structured references are a :class:`~tcprop.propagator.Layout` and real
coefficient rows derived from the ladder matrix U and integer q of
:mod:`~tcprop.propagator`, A = sqrt(q) (U kron a + U^T kron a+) and its
normal-ordered square, from which the closed forms are built too, never
from the kron sums they are checked against.

No check forms a dense (2**n cutoff)^2 matrix.  The tolerance-0 checks
compare entry lists.  Every other check runs on the blocks the oracle
finds in the generator's entries, at most 2**n levels each, held in one
flat buffer per operator: every layout (closed forms, Gauss factors, A^2)
is written into it from its placed entries, every other operator is
scattered into it at once, every product is a stack of small ones
(:func:`~tcprop.spinchain.block_product`: broadcast products on blocks of
size 1 and 2, which is every one-atom block, because numpy's ``@`` loops
over a stack matrix by matrix; ``@`` on wider ones) and every comparison
reduces the blocks through
:func:`~tcprop.oracle.block_magnitudes`, to a bare value where no location
is printed.  That function decides how an entry between blocks counts: in
full.  Entries listed at one position there, or in the entry lists the
tolerance-0 checks compare, add in listing order by one merge
(:func:`~tcprop.spinchain._merge`).
The oracle splits the coupling once, lays the Hamiltonian out on the same
blocks, factors each generator once and exponentiates several scales in
one batched product.  The closed form is laid out and placed on those
blocks once; each check fills it at the times of its own grid where it
uses them, each distinct t g once.  The oracle grid and the unitarity Gram
product run over their fill in passes of at most :data:`SCALES_PER_PASS`
scales.  A comparison writes its difference into the operand the check
just made, never into a fill.  The two-atom block identities read each
field block of their fill at its buffer positions, found once per request
from the split's keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fock import FockSpace
from .oracle import (
    BlockEigen,
    ComparisonReport,
    block_eigh,
    block_magnitudes,
    block_split,
    worst_entries,
)
from .propagator import (
    Layout,
    _layout,
    _rows,
    closed_form,
    free_phase,
    gauss_tables,
    reduced_form,
    reduction_entries,
)
from .spinchain import (
    Blocked,
    BlockSplit,
    Entries,
    collective,
    coupling_entries,
    entry_deviation,
    excitation,
    hamiltonian_entries,
)

__all__ = ["CheckResult", "gauss_deviations", "run_checks"]

ORACLE_T = (0.1, 0.7, 2.5, 10.0)
ORACLE_G = (0.5, 1.0, 2.0)
ORACLE_GRID = tuple((t, g) for t in ORACLE_T for g in ORACLE_G)
ORACLE_TG = tuple(t * g for t, g in ORACLE_GRID)
UNITARITY_T = (0.1, 1.0, 5.0, 20.0)
UNITARITY_TG = tuple(t * g for t in UNITARITY_T for g in ORACLE_G)
# U(t) with the free phase at t = 0.7 and the four points of the central differences
FULL_STEP = 1e-4
FULL_TIMES = (0.7, 0.7 + FULL_STEP, 0.7 - FULL_STEP, 0.7 + FULL_STEP / 2, 0.7 - FULL_STEP / 2)
GROUP_LAW = (0.4, 0.9, 1.3)  # t1, t2, g
RECONSTRUCTION = (0.9, 0.8)  # t, g of the spin-1 reduction's rebuilt propagator
GAUSS = (0.3, 1.0)  # t, g of the one-atom triangular factorization
# grid scales exponentiated, compared or squared together: bounds the oracle side and the
# Gram product at O(2**n * cutoff * SCALES_PER_PASS) for any grid
SCALES_PER_PASS = 4
Fill = Callable[..., Blocked]  # a closed form on a split: (t, g) -> its blocks at the time(s) t


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


def _four_ulps(largest: float) -> float:
    """Bound of an exact identity checked through products: four ulps of its largest entry."""
    return 4 * np.finfo(float).eps * largest


def _tmax(op: Blocked, trusted: bool = True) -> float:
    """Largest |entry| of ``op`` over every batch index, NaN if any entry is NaN."""
    return float(block_magnitudes(op, trusted)[0].max())


def _reference(space: FockSpace, which) -> Entries:
    """The entries of A = sqrt(q) (U kron a + U^T kron a+) of ladder ``which``, from the rows
    the closed forms take."""
    layout, coefficients = _layout(space, _rows(space, which)[0])
    return layout.entries(coefficients)


def _placed(split: BlockSplit, layout: Layout, coefficients: np.ndarray) -> Blocked:
    """The layout's terms at ``coefficients`` written into the blocks of ``split``."""
    fill, values = layout.on(split, coefficients)
    return fill(values)


def _compare_into(own: Blocked, other: Blocked) -> list[ComparisonReport]:
    """:func:`~tcprop.oracle.worst_entries` of ``own - other``, written into ``own``.

    ``own``'s blocks must be the caller's, read no more after this; a
    difference and its negation have the same magnitude, bit for bit.
    """
    own -= other
    return worst_entries(own)


def gauss_deviations(
    space: FockSpace,
    t: float,
    g: float,
    split: BlockSplit | None = None,
    closed: Blocked | None = None,
) -> tuple[float, float]:
    """One-atom triangular factorization at (t, g): (product deviation, max|lower - upper^T|).

    Both run on ``split``, the blocks of the one-atom coupling (found here
    if not given).  The first is the trusted deviation of
    lower @ diagonal @ upper from ``closed``, the closed form at (t, g) on
    ``split`` (built here if not given); the second checks the shift
    identity f(N) a+ = a+ f(N+1) over every entry, guard levels included.
    """
    layout, coefficients = gauss_tables(space, t, g)
    if split is None:
        split = block_split(2, space, coupling_entries(1, space))
    factors = _placed(split, layout, coefficients)
    lower, diagonal, upper = factors[0], factors[1], factors[2]
    if closed is None:
        closed = closed_form(1, space).on(split)(t, g)
    variant = _tmax(lower - upper.transpose(), trusted=False)
    return _compare_into(lower @ diagonal @ upper, closed)[0].max_abs_deviation, variant


def _field_blocks(split: BlockSplit) -> dict[tuple[int, int], np.ndarray]:
    """Flat buffer positions of the entries of each atomic (i, j) field block of ``split``,
    in (photon row, photon col) order, from one sort of :attr:`BlockSplit.keys`."""
    c, n_blocks = split.space.cutoff, split.n_blocks
    (i, m), (j, k) = (np.divmod(x, c) for x in np.divmod(split.keys, n_blocks * c))
    order = np.lexsort((k, m, j, i))
    bounds = np.searchsorted((i * n_blocks + j)[order], np.arange(n_blocks**2 + 1))
    return {divmod(pair, n_blocks): order[lo:hi]
            for pair, (lo, hi) in enumerate(zip(bounds, bounds[1:]))}


def _reduction_checks(space: FockSpace, a_op: Blocked, fill: Fill) -> list[CheckResult]:
    """The spin-1 reduction on the split of ``a_op``, S undone by an index map; T kron 1 keeps
    every block.  ``fill`` fills the two-atom closed form on that split."""
    split = a_op.split
    similarity, b, order = reduction_entries(space)
    c = space.cutoff
    back = (np.argsort(order)[:, None] * c + np.arange(c)).ravel()  # reduced basis -> T basis
    sim = split.gather(Entries(back[similarity.rows], similarity.cols, similarity.values))
    results = [_result("reduction-orthogonal",
                       _tmax(sim @ sim.dagger() - Blocked.identity(split), False), 1e-15)]
    # blockdiag(0, B): B on the three atomic blocks after the singlet
    ref = split.gather(Entries(back[b.rows + c], back[b.cols + c], b.values))
    reduced = sim @ a_op @ sim.dagger()
    results.append(_result("reduction-blockdiag", _tmax(reduced - ref, False),
                           _four_ulps(_tmax(ref, False))))
    b_ref = _reference(space, "spin1")
    results.append(_result("spin1-pattern", entry_deviation(b, -b_ref), 0.0))
    inner = reduced_form(space).entries(*RECONSTRUCTION)
    inner = split.gather(Entries(back[inner.rows], back[inner.cols], inner.values))
    recon = sim.dagger() @ inner @ sim
    recon_dev = _compare_into(recon, fill(*RECONSTRUCTION))[0]
    results.append(_result("reduction-reconstruction", recon_dev.max_abs_deviation, 1e-10))
    # each (i, j) field block of the two-atom propagator read at its buffer positions; a fill
    # holds no entry outside its blocks (Layout.on refuses one) and lists each position once,
    # so x - y is the listing-order sum 0 + x + (-y) of _merge, bit for bit
    u_two = np.concatenate([x.ravel() for x in fill(0.7, 1.3)[0].blocks])
    field = _field_blocks(split)

    def diff(x: tuple[int, int], y: tuple[int, int]) -> np.ndarray:
        return u_two[field[x]] - u_two[field[y]]

    # np.max, unlike Python's max, keeps a NaN of any identity
    ident = np.max([np.abs(d).max() for d in (
        diff((1, 1), (2, 2)),
        diff((1, 2), (2, 1)),
        diff((0, 1), (0, 2)),
        diff((1, 0), (2, 0)),
        diff((1, 3), (2, 3)),
        diff((3, 1), (3, 2)),
        diff((1, 1), (1, 2)) - 1,
    )])
    results.append(_result("two-atom-block-identities", ident, 1e-12))
    return results


def _key_relations(n: int, space: FockSpace, a_op: Blocked, e: np.ndarray) -> list[CheckResult]:
    """A^2 against its derived blocks, and for two atoms A^3 = D A; E is the excitation."""
    sq_ref = _placed(a_op.split, *_layout(space, _rows(space, n)[1]))
    a_sq = a_op @ a_op
    results = [_result("key-relation-squared", _tmax(a_sq - sq_ref), _four_ulps(_tmax(sq_ref)))]
    if n == 2:
        # A^3 = D A with D = 2(2E + 1) = diag(2(2N+3), 2(2N+1), 2(2N+1), 2(2N-1))
        cube_ref = a_op.scale_rows(2 * (2 * e + 1))
        cube_dev = _tmax(a_sq @ a_op - cube_ref)
        results.append(_result("key-relation-cubed", cube_dev, _four_ulps(_tmax(cube_ref))))
    return results


def _passes(scales: tuple) -> list[slice]:
    """``scales`` cut into runs of at most SCALES_PER_PASS."""
    return [slice(i, i + SCALES_PER_PASS) for i in range(0, len(scales), SCALES_PER_PASS)]


def _closed_vs_oracle(fill: Fill, oracle: BlockEigen, tol: float) -> CheckResult:
    """The closed form against the oracle over ORACLE_GRID, each distinct t g once, in passes.

    Only one pass's exponentials and magnitudes are held at a time.  Each
    grid point reads the report of its t g, so the worst point named is the
    first at the worst t g.
    """
    scales = tuple(dict.fromkeys(ORACLE_TG))
    u = fill(scales, 1.0)
    reports = [report for part in _passes(scales)
               for report in _compare_into(oracle.expm(scales[part]), u[part])]
    # a NaN deviation is picked over every number, as worst_entries picks a NaN entry
    i = int(np.argmax([report.max_abs_deviation for report in reports]))
    (t_val, g_val), worst = ORACLE_GRID[ORACLE_TG.index(scales[i])], reports[i]
    block_row, block_col, photon_row, photon_col = worst.location
    note = (f"worst at t={t_val:g} g={g_val:g}, blocks ({block_row}, {block_col}), "
            f"photons ({photon_row}, {photon_col})")
    return _result("closed-vs-oracle", worst.max_abs_deviation, tol, note=note)


def _unitarity(fill: Fill) -> float:
    """max |U+ U - 1| over the distinct t g of UNITARITY_TG, the Gram products in passes."""
    scales = tuple(dict.fromkeys(UNITARITY_TG))
    u = fill(scales, 1.0)
    identity = Blocked.identity(u.split)

    def gram_deviation(part: slice) -> float:
        gram = u[part].dagger() @ u[part]
        gram -= identity
        return _tmax(gram)

    # np.max, unlike Python's max, keeps a NaN in any place
    return np.max([gram_deviation(part) for part in _passes(scales)])


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

    a = coupling_entries(n, space)
    pattern = _reference(space, n)
    results.append(_result("coupling-pattern", entry_deviation(a, -pattern), 0.0))
    results.append(_result("coupling-hermitian", entry_deviation(a, -a.dagger()), 0.0))
    # a diagonal operator multiplies as a vector: A E scales columns, E A rows
    e = excitation(n, space)
    commutator = a.values * e[a.cols] - e[a.rows] * a.values
    results.append(_result("excitation-commutes", np.abs(commutator).max(), 0.0))

    if n == 3:
        notes.append("no closed-form propagator exists for three atoms; propagator checks skipped")
        return results, notes

    oracle = block_eigh(2**n, space, a)
    results += _key_relations(n, space, oracle.generator, e)
    fill = closed_form(n, space).on(oracle.split)
    results.append(_closed_vs_oracle(fill, oracle, tol))
    # reported after schrodinger-residual-ratio, run before full-vs-oracle holds its operands
    unitarity = _result("unitarity", _unitarity(fill), 1e-10)

    # H is A plus a diagonal: its entries fit A's blocks, and it is factored on them
    h = hamiltonian_entries(n, space, 1.0, 1.0, 1.0)
    h_oracle = block_eigh(2**n, space, h, oracle.split)
    full = fill(FULL_TIMES, 1.0).scale_rows(free_phase(n, space, FULL_TIMES, 1.0))
    full_dev = _compare_into(h_oracle.expm(FULL_TIMES[0])[0], full[0])[0].max_abs_deviation
    results.append(_result("full-vs-oracle", full_dev, tol))

    if n == 1:
        product_dev, variant_dev = gauss_deviations(space, *GAUSS, oracle.split, fill(*GAUSS))
        results.append(_result("gauss-product", product_dev, tol))
        results.append(_result("gauss-variants", variant_dev, 1e-12))

    if n == 2:
        results += _reduction_checks(space, oracle.generator, fill)

    # central-difference residual of i dU/dt = H U at U(0.7), step 1e-4 over step 5e-5
    h_mid = h_oracle.generator @ full[0]

    def residual(i: int, step: float) -> float:
        return _tmax(1j * (full[i] - full[i + 1]) / (2 * step) - h_mid)

    ratio = residual(1, FULL_STEP) / residual(3, FULL_STEP / 2)
    results.append(
        _result("schrodinger-residual-ratio", abs(ratio - 4.0), 0.5, note=f"ratio {ratio:.4f}")
    )

    results.append(unitarity)
    t1, t2, g_law = GROUP_LAW
    law = fill((t1, t2, t1 + t2), g_law)
    results.append(_result("group-law", _tmax(law[0] @ law[1] - law[2]), 1e-9))

    return results, notes
