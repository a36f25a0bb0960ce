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
from .spinchain import CompositeOperator, collective, coupling_operator

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
    keep = np.zeros(n_blocks * space.cutoff, dtype=bool)
    for k in range(n_blocks):
        keep[k * space.cutoff : k * space.cutoff + space.trusted] = True
    return keep


def _components(pattern: np.ndarray) -> np.ndarray:
    """Connected-component label of each index of a symmetric boolean pattern.

    Each label is the smallest index in its component: labels only ever
    drop to a neighbour's label or to the label of the index they name,
    both of which lie in the same component, until no edge joins two
    different labels.
    """
    rows, cols = np.nonzero(pattern)
    label = np.arange(pattern.shape[0])
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def expm_hermitian(m: CompositeOperator, scale: float) -> CompositeOperator:
    """exp(-i scale M) via eigendecomposition of the Hermitian matrix M.

    Refuses non-Hermitian input (max deviation above 1e-12).  M is split
    into the connected components of its nonzero pattern; it is exactly a
    permutation of the block-diagonal matrix of those components, so
    exponentiating each block (one stacked ``eigh`` per block size) and
    scattering the blocks back gives the exponential of the whole matrix,
    guard levels included.  The split reads only the matrix entries.
    Exactly unitary up to eigensolver round-off; this is the reference
    route the closed forms are compared against.
    """
    mat = m.matrix
    dev = np.abs(mat - mat.conj().T).max()
    if dev > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: max |M - M+| = {dev:.3e}")
    nonzero = mat != 0
    label = _components(nonzero | nonzero.T)
    # indices grouped by component, ascending inside each one, so every
    # block keeps the lower triangle eigh reads
    order = np.argsort(label, kind="stable")
    _, starts, sizes = np.unique(label[order], return_index=True, return_counts=True)
    u = np.zeros_like(mat)
    for size in np.unique(sizes):
        idx = order[starts[sizes == size][:, None] + np.arange(size)]
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
    space = target.space
    cutoff, tr = space.cutoff, space.trusted
    keep = trusted_mask(target.n_blocks, space)
    values = np.full((target.n_blocks, tr), np.nan)
    num = 0.0
    den = 0.0
    for k in range(target.n_blocks):
        for m in range(tr):
            row = k * cutoff + m
            x = basis.matrix[row, keep]
            y = target.matrix[row, keep]
            xx = np.vdot(x, x).real
            if xx == 0.0:
                continue
            d = np.vdot(x, y).real / xx
            values[k, m] = d
            num += float(np.sum(np.abs(y - d * x) ** 2))
            den += float(np.sum(np.abs(y) ** 2))
    residual = np.sqrt(num / den) if den > 0.0 else 0.0
    return values, float(residual)


class Sector(NamedTuple):
    """One excitation sector over the trusted subspace.

    ``indices`` are composite basis indices (the sector basis is the
    corresponding standard unit vectors); ``matrix`` is the coupling
    operator restricted to them.
    """

    excitation: float
    indices: np.ndarray
    matrix: np.ndarray


def sector_decompose(n: int, space: FockSpace) -> list[Sector]:
    """Split the trusted subspace into excitation sectors.

    The coupling operator commutes with the excitation operator, so it is
    block diagonal over these sectors; each restricted block is a small
    dense Hermitian matrix (dimension <= 2**n + n - 1).
    """
    a_op = coupling_operator(n, space)
    _, _, s_3 = collective(n)
    s3_diag = np.diag(s_3).real
    groups: dict[float, list[int]] = {}
    for k in range(2**n):
        for m in range(space.trusted):
            exc = float(s3_diag[k] + m)
            groups.setdefault(exc, []).append(k * space.cutoff + m)
    sectors = []
    for exc in sorted(groups):
        idx = np.array(groups[exc], dtype=int)
        sectors.append(Sector(exc, idx, a_op.matrix[np.ix_(idx, idx)].copy()))
    return sectors


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
    """:func:`relation_fit` for each of ``powers``, in order, from one set of
    powers of A and one pass over the sectors.
    """
    for power in powers:
        if power not in (3, 5):
            raise ValueError(f"power must be 3 or 5, got {power!r}")
    a_op = coupling_operator(n, space)
    a_pow = {1: a_op}
    a_pow[2] = a_op @ a_op
    a_pow[3] = a_pow[2] @ a_op
    if 5 in powers:
        a_pow[5] = a_pow[3] @ a_pow[2]
    degrees = {s.excitation: min_poly_degree(s.matrix) for s in sector_decompose(n, space)}
    reports = []
    for power in powers:
        values, residual = fit_left_diagonal(a_pow[power], a_pow[power - 2])
        reports.append(
            RelationFitReport(
                n_atoms=n,
                target_power=power,
                best_fit_values=values,
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
