"""Independent numerical checks for the closed-form propagators.

The oracle route never touches the closed forms: exp(-i s M) is computed by
eigendecomposition of the Hermitian generator, comparisons are restricted
to the trusted photon levels, and the relation search does a per-row least
squares fit of a diagonal left factor.  Keeping the two routes separate is
the point; do not "simplify" one through the other.

The oracle reads nothing but the generator's nonzero entries.  Their
pattern splits the indices into connected blocks (:func:`block_split`), one
``eigh`` per block size factors the generator (:func:`block_eigh`), and the
phases for a whole grid of scales go through one batched product.  The
coupling and the Hamiltonian conserve excitation even under truncation, so
the blocks are the excitation sectors, at most 2**n levels each; the split
finds them from the entries, never from the excitation operator or a
closed form.  The Hamiltonian's entries are the coupling's plus a
diagonal, so :func:`block_eigh` may lay them out on the coupling's split
instead of finding the same blocks again.  It does so only after checking
that every entry fits that split, and then factors them with their own
``eigh``; an entry between its blocks is refused, never dropped.

The relation search (:func:`relation_fits`) runs in float64.  The
coupling's entries are real (1 and sqrt(m)), so it refuses a coupling with
any nonzero imaginary part and reads the real part of each gathered block.
The powers then have the bits the complex128 route gave, at the cost of
real products.  The row fits sum their real products in another order, so
a three-atom fitted value may move by an ulp, and the sector spectra come
from a real ``eigvalsh``.  The exponential route stays complex128:
exp(-i s M) is complex, and a real eigensolver for the generator would
round its eigenvectors differently and move the deviations ``verify``
prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock import FockSpace
from .spinchain import (
    Blocked,
    BlockSplit,
    CompositeOperator,
    Entries,
    _merge,
    coupling_entries,
    excitation,
    join_values,
    trusted_mask,
)

__all__ = [
    "BlockEigen",
    "ComparisonReport",
    "RelationFitReport",
    "Sector",
    "trusted_mask",
    "block_split",
    "block_eigh",
    "expm_hermitian",
    "compare",
    "block_magnitudes",
    "worst_entries",
    "fit_left_diagonal",
    "relation_fit",
    "relation_fits",
    "sector_decompose",
    "min_poly_degree",
]

HERMITICITY_TOL = 1e-12


def _components(rows: np.ndarray, cols: np.ndarray, dim: int) -> np.ndarray:
    """Connected-component label of each of ``dim`` indices, edges (rows[i], cols[i]).

    Each label is the smallest index in its component: labels only ever
    drop to a neighbour's label or to the label of the index they name,
    both of which lie in the same component, until no edge joins two
    different labels.
    """
    rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    label = np.arange(dim)
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _blocks(label: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, ...]:
    """``indices`` grouped by component ``label``: one (k, s) array per block size s.

    Rows are ascending, so a block keeps the lower triangle a whole eigh reads.
    Sizes come in ascending order.
    """
    order = indices[np.argsort(label[indices], kind="stable")]
    _, starts, sizes = np.unique(label[order], return_index=True, return_counts=True)
    # the distinct sizes, ascending; a plain np.unique would import numpy.ma (about 1.3 MB)
    return tuple(
        order[starts[sizes == size][:, None] + np.arange(size)]
        for size in np.flatnonzero(np.bincount(sizes))
    )


def block_split(n_blocks: int, space: FockSpace, entries: Entries) -> BlockSplit:
    """The connected blocks of an operator's nonzero entries, over every composite index.

    The only route from entries to a split; refuses if an entry joins two blocks.
    """
    dim = n_blocks * space.cutoff
    nonzero = entries.values != 0
    rows, cols = entries.rows[nonzero], entries.cols[nonzero]
    label = _components(rows, cols, dim)
    if not np.array_equal(label[rows], label[cols]):
        raise ValueError("block split left an entry between two blocks")
    return BlockSplit(n_blocks, space, _blocks(label, np.arange(dim)))


@dataclass(frozen=True, eq=False)
class BlockEigen:
    """A Hermitian generator factored block by block: one stacked ``eigh`` per block size."""

    generator: Blocked  # the blocks that were factored
    evals: tuple[np.ndarray, ...]
    vecs: tuple[np.ndarray, ...]

    @property
    def split(self) -> BlockSplit:
        return self.generator.split

    def expm(self, scales) -> Blocked:
        """exp(-i scale M) for every scale, stacked along a leading axis."""
        scales = np.atleast_1d(np.asarray(scales, dtype=float))[:, None, None]
        blocks = tuple(
            (vecs * np.exp(-1j * scales * evals)[:, :, None, :]) @ vecs.conj().swapaxes(1, 2)
            for evals, vecs in zip(self.evals, self.vecs)
        )
        return Blocked(self.split, blocks, Entries.none(scales.shape[:1]))


def block_eigh(
    n_blocks: int, space: FockSpace, entries: Entries, split: BlockSplit | None = None
) -> BlockEigen:
    """Factor the Hermitian operator with these (unbatched) entries, guard levels included.

    Refuses non-finite or non-Hermitian input (max deviation above 1e-12).
    The blocks come from the entries alone, or from ``split``, a split of
    another operator on the same space; then every entry must fall inside
    one of its blocks, or the input is refused.  Either way the operator is
    exactly the direct sum of its blocks, so exponentiating each block is
    the exact exponential.  Hermiticity is read on the blocks: an entry the
    split leaves between them is zero, and so is the one at its transpose.
    """
    if not np.isfinite(entries.values).all():
        raise ValueError("matrix has non-finite entries")
    if split is None:
        generator = block_split(n_blocks, space, entries).gather(entries)
    else:
        if split.n_blocks != n_blocks or split.space != space:
            raise ValueError("the split lives on a different composite space")
        generator = split.gather(entries)
        if generator.outside.rows.size:
            raise ValueError("an entry falls between two blocks of the given split")
    dev = max(float(np.abs(x - x.conj().swapaxes(-1, -2)).max()) for x in generator.blocks)
    if dev > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: max |M - M+| = {dev:.3e}")
    pairs = [np.linalg.eigh(block) for block in generator.blocks]
    return BlockEigen(generator, tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))


def expm_hermitian(m: CompositeOperator, scale: float) -> CompositeOperator:
    """exp(-i scale M) via eigendecomposition of the Hermitian matrix M.

    Refuses non-finite or non-Hermitian input (max deviation above 1e-12).
    M is split into the connected components of its nonzero pattern;
    exponentiating each block (one stacked ``eigh`` per block size) and
    scattering the blocks back gives the exponential of the whole matrix,
    guard levels included.  The split reads only the matrix entries.
    Exactly unitary up to eigensolver round-off; this is the reference
    route the closed forms are compared against.
    """
    mat = m.matrix
    rows, cols = np.nonzero(mat)
    u = block_eigh(m.n_blocks, m.space, Entries(rows, cols, mat[rows, cols])).expm(scale)
    return CompositeOperator.from_entries(m.n_blocks, m.space, u[0].entries())


@dataclass(frozen=True)
class ComparisonReport:
    """Entrywise deviation over the trusted subspace.

    ``location`` is (block_row, block_col, photon_row, photon_col) of the
    largest deviation.
    """

    max_abs_deviation: float
    location: tuple[int, int, int, int]


def compare(closed: CompositeOperator, reference: CompositeOperator) -> ComparisonReport:
    """Max-abs entrywise deviation restricted to trusted photon rows and columns."""
    if closed.n_blocks != reference.n_blocks or closed.space != reference.space:
        raise ValueError("operands live on different composite spaces")
    space = closed.space
    tr = space.trusted
    diff = closed.matrix - reference.matrix
    keep = trusted_mask(closed.n_blocks, space)
    sub = np.abs(diff[np.ix_(keep, keep)])
    flat = int(np.argmax(sub))
    row, col = divmod(flat, sub.shape[1])
    loc = (row // tr, col // tr, row % tr, col % tr)
    return ComparisonReport(max_abs_deviation=float(sub[row, col]), location=loc)


def block_magnitudes(op: Blocked, trusted: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """|entry| of every entry of ``op``, one row per batch index, and each entry's key.

    The key of entry (row, col) is row * dim + col.  Block entries come in
    the split's buffer order, then one per outside position, in key order.
    With ``trusted`` only block entries in trusted rows and columns are
    listed; entries outside the blocks always count.  Those listed at one
    position add first, in listing order, by :func:`~tcprop.spinchain._merge`.
    """
    split = op.split
    at, key = split.trusted if trusted else (slice(None), split.keys)
    values = join_values([np.abs(x).reshape(x.shape[:-3] + (-1,)) for x in op.blocks])[..., at]
    if op.outside.rows.size:
        out_key, total = _merge(op.outside, split.n_blocks * split.space.cutoff)
        values, key = join_values([values, np.abs(total)]), np.concatenate([key, out_key])
    return values.reshape(-1, key.size), key


def worst_entries(op: Blocked, trusted: bool = True) -> list[ComparisonReport]:
    """The largest |entry| of a blocked operator and where it sits, per leading batch index.

    The entries are those :func:`block_magnitudes` lists.  A NaN entry
    beats every number, and a tie goes to the smallest key, the first entry
    in row-major order, as in :func:`compare`, whatever the listing order.
    """
    split = op.split
    c = split.space.cutoff
    dim = split.n_blocks * c
    values, key = block_magnitudes(op, trusted)
    best = values.max(axis=1)
    hits = (values == best[:, None]) | np.isnan(values)
    row, col = np.divmod(np.array([key[hit].min() for hit in hits]), dim)
    locations = zip(*(x.tolist() for x in (row // c, col // c, row % c, col % c)))
    return [ComparisonReport(value, location) for value, location in zip(best.tolist(), locations)]


def _fit_rows(target: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, float]:
    """Real d per row with target ~ d basis (NaN on zero basis rows), relative residual."""
    xx = np.sum(np.abs(basis) ** 2, axis=1)
    fit = xx != 0.0
    d = np.full(xx.shape, np.nan)
    d[fit] = np.sum(basis[fit].conj() * target[fit], axis=1).real / xx[fit]
    y = target[fit]
    num = float(np.sum(np.abs(y - d[fit, None] * basis[fit]) ** 2))
    den = float(np.sum(np.abs(y) ** 2))
    return d, float(np.sqrt(num / den)) if den > 0.0 else 0.0


def fit_left_diagonal(
    target: CompositeOperator, basis: CompositeOperator
) -> tuple[np.ndarray, float]:
    """Least-squares diagonal left factor D with target ~ D @ basis.

    D is diagonal in both the atomic and photon index, real, fitted
    independently per trusted row; rows where basis vanishes on the trusted
    columns are unconstrained and marked NaN.  Returns (values, residual)
    with values of shape (n_blocks, trusted) and the relative Frobenius
    residual over constrained trusted rows.
    """
    if target.n_blocks != basis.n_blocks or target.space != basis.space:
        raise ValueError("operands live on different composite spaces")
    keep = trusted_mask(target.n_blocks, target.space)
    trusted = np.ix_(keep, keep)
    values, residual = _fit_rows(target.matrix[trusted], basis.matrix[trusted])
    return values.reshape(target.n_blocks, target.space.trusted), residual


class Sector(NamedTuple):
    """One excitation sector over the trusted subspace.

    ``indices`` are composite basis indices (the sector basis is the
    corresponding standard unit vectors); ``matrix`` is the coupling
    operator restricted to them.
    """

    excitation: float
    indices: np.ndarray
    matrix: np.ndarray


def _sectors(n: int, split: BlockSplit, entries: Entries) -> list[tuple]:
    """The coupling ``entries`` on its ``split`` cut to the trusted band: the trusted indices
    grouped by the block of ``split`` they lie in.

    One (excitations, indices, matrices) stack per cut block size s: (k,), (k, s), (k, s, s).
    """
    excitations, keep = excitation(n, split.space), trusted_mask(split.n_blocks, split.space)
    cut = BlockSplit(split.n_blocks, split.space, _blocks(split._layout[0], np.flatnonzero(keep)))
    return [(excitations[idx[:, 0]], idx, mats)
            for idx, mats in zip(cut.groups, cut.gather(entries).blocks)]


def sector_decompose(n: int, space: FockSpace) -> list[Sector]:
    """Split the trusted subspace into excitation sectors.

    The coupling operator commutes with the excitation operator, and a cutoff
    >= 2 keeps each sector connected, so its blocks are the excitation sectors;
    each restricted block is a small Hermitian matrix (dimension <= 2**n).
    """
    entries = coupling_entries(n, space)
    sectors = [Sector(*sector) for excitations, idx, mats
               in _sectors(n, block_split(2**n, space, entries), entries)
               for sector in zip(excitations.tolist(), idx, mats)]
    return sorted(sectors, key=lambda sector: sector.excitation)


def _min_poly_degrees(stack: np.ndarray) -> np.ndarray:
    """:func:`min_poly_degree` of every matrix of a (k, s, s) stack, from one ``eigvalsh``."""
    if stack.shape[-1] == 0:
        return np.zeros(stack.shape[0], dtype=int)
    evals = np.linalg.eigvalsh(stack)  # ascending along the last axis
    norm = np.maximum(np.abs(evals[:, 0]), np.abs(evals[:, -1]))
    tol = 1e-8 * norm[:, None]
    return np.where(norm == 0.0, 1, 1 + np.sum(np.diff(evals, axis=-1) > tol, axis=-1))


def min_poly_degree(matrix: np.ndarray) -> int:
    """Degree of the minimal polynomial of a Hermitian matrix.

    Counts distinct eigenvalues after clustering at 1e-8 times the
    spectral norm.
    """
    return int(_min_poly_degrees(np.asarray(matrix)[None])[0])


@dataclass(frozen=True)
class RelationFitReport:
    """Outcome of the search for A^p = D A^(p-2) with diagonal D.

    ``best_fit_values[k][m]`` is the fitted diagonal of block k at photon
    level m (NaN where unconstrained); ``relative_residual`` is the
    relative Frobenius residual of the best fit over constrained trusted
    rows; ``sector_min_poly_degrees`` maps excitation eigenvalue to the
    minimal-polynomial degree of the coupling operator on that sector,
    which bounds the degree any annihilating relation must reach.
    """

    target_power: int
    best_fit_values: np.ndarray
    relative_residual: float
    sector_min_poly_degrees: dict[float, int]


def _trusted_powers(split: BlockSplit, entries: Entries) -> np.ndarray:
    """Trusted row i of A, A^2, A^3 and A^5 = A^3 A^2 over the trusted columns of its block.

    The entries must be real (held in any dtype); the powers are float64.
    Shape (4, trusted rows, n_blocks); only trusted rows are ever stored, and
    the powers of the blocks are freed on return.
    """
    keep = trusted_mask(split.n_blocks, split.space)
    row_of = np.cumsum(keep) - 1  # the trusted row of each trusted composite index
    rows = np.zeros((4, row_of[-1] + 1, split.n_blocks))
    for idx, block in zip(split.groups, split.gather(entries).blocks):
        p1 = block.real
        trusted = keep[idx]
        at = row_of[idx[trusted]]
        columns = np.broadcast_to(trusted[:, None, :], p1.shape)[trusted]
        p2 = p1 @ p1
        p3 = p2 @ p1
        for out, power in zip(rows, (p1, p2, p3, p3 @ p2)):
            power = power[trusted]
            power *= columns  # untrusted columns to zero, as a product
            out[at, : idx.shape[1]] = power
    return rows


def relation_fits(
    n: int, space: FockSpace, powers: tuple[int, ...]
) -> list[RelationFitReport]:
    """:func:`relation_fit` for each of ``powers``, in order, from one A.

    Each block of A is raised to the powers, guard levels included, before
    rows and columns are restricted to the trusted band.  Everything runs
    in float64; a coupling entry with a nonzero imaginary part is refused.
    """
    for power in powers:
        if power not in (3, 5):
            raise ValueError(f"power must be 3 or 5, got {power!r}")
    entries = coupling_entries(n, space)
    if np.any(entries.values.imag):
        raise ValueError("relation search needs a real coupling")
    split = block_split(2**n, space, entries)
    a_pow = dict(zip((1, 2, 3, 5), _trusted_powers(split, entries)))
    degrees = dict(sorted(
        (e, d) for excitations, _, mats in _sectors(n, split, entries)
        for e, d in zip(excitations.tolist(), _min_poly_degrees(mats.real).tolist())
    ))
    reports = []
    for power in powers:
        values, residual = _fit_rows(a_pow[power], a_pow[power - 2])
        reports.append(
            RelationFitReport(
                target_power=power,
                best_fit_values=values.reshape(2**n, space.trusted),
                relative_residual=residual,
                sector_min_poly_degrees=dict(degrees),
            )
        )
    return reports


def relation_fit(n: int, space: FockSpace, power: int) -> RelationFitReport:
    """Best diagonal D for A^power = D A^(power-2), with diagnostics.

    ``power`` must be odd, 3 or 5.  For one and two atoms the residual is
    at round-off and D reproduces the known closed-form diagonals; for
    three atoms no such D exists and the residual stays large, which the
    sector minimal-polynomial degrees (up to 6) explain.
    """
    return relation_fits(n, space, (power,))[0]
