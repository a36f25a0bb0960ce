"""Independent numerical checks for the closed-form propagators.

The oracle route never touches the closed forms: exp(-i s M) is computed by
eigendecomposition of the Hermitian generator, comparisons are restricted
to the trusted photon levels, and the relation search does a per-row least
squares fit of a diagonal left factor.  Keeping the two routes separate is
the point; do not "simplify" one through the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock import FockSpace
from .spinchain import CompositeOperator, coupling_operator, excitation

__all__ = [
    "ComparisonReport",
    "RelationFitReport",
    "Sector",
    "trusted_mask",
    "expm_hermitian",
    "compare",
    "fit_left_diagonal",
    "relation_fit",
    "relation_fits",
    "sector_decompose",
    "min_poly_degree",
]

HERMITICITY_TOL = 1e-12


def trusted_mask(n_blocks: int, space: FockSpace) -> np.ndarray:
    """Boolean mask over composite indices with photon level in the trusted band."""
    return np.tile(np.arange(space.cutoff) < space.trusted, n_blocks)


def _components(mat: np.ndarray) -> np.ndarray:
    """Connected-component label of each index of the symmetrised nonzero pattern.

    Each label is the smallest index in its component: labels only ever
    drop to a neighbour's label or to the label of the index they name,
    both of which lie in the same component, until no edge joins two
    different labels.
    """
    nonzero = mat != 0
    rows, cols = np.nonzero(nonzero | nonzero.T)
    label = np.arange(mat.shape[0])
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _blocks(label: np.ndarray, indices: np.ndarray) -> list[np.ndarray]:
    """``indices`` grouped by component ``label``: one (k, s) array per block size s.

    Rows are ascending, so a block keeps the lower triangle a whole eigh reads.
    """
    order = indices[np.argsort(label[indices], kind="stable")]
    _, starts, sizes = np.unique(label[order], return_index=True, return_counts=True)
    return [order[starts[sizes == size][:, None] + np.arange(size)] for size in np.unique(sizes)]


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
    if not np.isfinite(mat).all():
        raise ValueError("matrix has non-finite entries")
    dev = np.abs(mat - mat.conj().T).max()
    if dev > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: max |M - M+| = {dev:.3e}")
    u = np.zeros_like(mat)
    for idx in _blocks(_components(mat), np.arange(mat.shape[0])):
        rows, cols = idx[:, :, None], idx[:, None, :]
        evals, vecs = np.linalg.eigh(mat[rows, cols])
        phases = np.exp(-1j * scale * evals)[:, None, :]
        u[rows, cols] = (vecs * phases) @ vecs.conj().swapaxes(1, 2)
    return CompositeOperator(m.n_blocks, m.space, u)


@dataclass(frozen=True)
class ComparisonReport:
    """Entrywise deviation over the trusted subspace.

    ``location`` is (block_row, block_col, photon_row, photon_col) of the
    largest deviation; ``trusted_dim`` is the dimension of the compared
    subspace (n_blocks times trusted levels).
    """

    max_abs_deviation: float
    location: tuple[int, int, int, int]
    trusted_dim: int


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
    return ComparisonReport(
        max_abs_deviation=float(sub[row, col]),
        location=loc,
        trusted_dim=closed.n_blocks * tr,
    )


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


def _sectors(n: int, space: FockSpace, a: np.ndarray, label: np.ndarray) -> list[Sector]:
    """Blocks of coupling matrix ``a`` (component ``label``) on the trusted indices."""
    excitations = excitation(n, space)
    sectors: list[Sector] = []
    for idx in _blocks(label, np.flatnonzero(trusted_mask(2**n, space))):
        mats = a[idx[:, :, None], idx[:, None, :]]
        sectors += map(Sector, excitations[idx[:, 0]].tolist(), idx, mats)
    return sorted(sectors, key=lambda sector: sector.excitation)


def sector_decompose(n: int, space: FockSpace) -> list[Sector]:
    """Split the trusted subspace into excitation sectors.

    The coupling operator commutes with the excitation operator, and a cutoff
    >= 2 keeps each sector connected, so its blocks are the excitation sectors;
    each restricted block is a small Hermitian matrix (dimension <= 2**n).
    """
    a = coupling_operator(n, space).matrix
    return _sectors(n, space, a, _components(a))


def min_poly_degree(matrix: np.ndarray, tol: float | None = None) -> int:
    """Degree of the minimal polynomial of a Hermitian matrix.

    Counts distinct eigenvalues after clustering; default clustering
    tolerance is 1e-8 times the spectral norm.
    """
    matrix = np.asarray(matrix)
    if matrix.shape[0] == 0:
        return 0
    evals = np.sort(np.linalg.eigvalsh(matrix))
    norm = float(max(abs(evals[0]), abs(evals[-1])))
    if tol is None:
        tol = 1e-8 * norm
    if norm == 0.0:
        return 1
    return 1 + int(np.sum(np.diff(evals) > tol))


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

    n_atoms: int
    target_power: int
    best_fit_values: np.ndarray
    relative_residual: float
    sector_min_poly_degrees: dict[float, int]

    @property
    def unconstrained(self) -> list[tuple[int, int]]:
        """(block, photon level) pairs where the fit row was identically zero."""
        bad = np.argwhere(np.isnan(self.best_fit_values))
        return [(int(k), int(m)) for k, m in bad]


def relation_fits(
    n: int, space: FockSpace, powers: tuple[int, ...]
) -> list[RelationFitReport]:
    """:func:`relation_fit` for each of ``powers``, in order, from one A.

    Each block of A is raised to the powers, guard levels included, before
    rows and columns are restricted to the trusted band.
    """
    for power in powers:
        if power not in (3, 5):
            raise ValueError(f"power must be 3 or 5, got {power!r}")
    a = coupling_operator(n, space).matrix
    label = _components(a)
    keep = trusted_mask(2**n, space)
    # row i of A, A^2, A^3 and A^5 = A^3 A^2 over the trusted columns of its block
    rows = np.zeros((4, a.shape[0], 2**n), dtype=complex)
    for idx in _blocks(label, np.arange(a.shape[0])):
        p1 = a[idx[:, :, None], idx[:, None, :]]
        p2 = p1 @ p1
        p3 = p2 @ p1
        rows[:, idx, : idx.shape[1]] = np.stack([p1, p2, p3, p3 @ p2]) * keep[idx][:, None, :]
    a_pow = dict(zip((1, 2, 3, 5), rows[:, keep]))
    degrees = {s.excitation: min_poly_degree(s.matrix) for s in _sectors(n, space, a, label)}
    reports = []
    for power in powers:
        values, residual = _fit_rows(a_pow[power], a_pow[power - 2])
        reports.append(
            RelationFitReport(
                n_atoms=n,
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
