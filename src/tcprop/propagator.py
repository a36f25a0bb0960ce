"""Closed-form interaction propagators exp(-i t g A) and the full evolution.

The coupling operator A of one or two atoms satisfies a low-degree
polynomial relation (A^2 is diagonal for one atom, A^3 = D A for two), so
exp(-i t g A) collapses to a few terms f(N) a^k on atomic blocks, f built
from the entire functions cosz and sincz of (t g)^2 d(m), all evaluated by
one kernel.  Each closed form is one :class:`SpectralTable` of such terms,
evaluated for a vector of times at once, that lists or assembles them; on a
state, :func:`evolve_states` applies exp(-i t g A) = 1 + F(D) A^2 - i G(D) A
instead, at O(2^n x levels) work per time point.  The lowest two-atom branch d(m) = 2(2m - 1) is negative
at m = 0, which cosz refuses (a cosh that overflows for large |t g|); it is
clamped to 0 there, where only a diagonal coefficient that is exactly 1
at any branch value is read, so no argument is ever negative.

With the resonant full Hamiltonian the free part commutes with the
coupling, so the full propagator is the free phase times the interaction
propagator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import sqrt
from typing import Iterator

import numpy as np

from .fock import FockSpace, annihilator_entries, cosz, sincz
from .spinchain import (
    Blocked,
    BlockSplit,
    CompositeOperator,
    Entries,
    collective,
    excitation,
    join_entries,
    join_values,
    kron_entries,
    _ground_bits,
)

__all__ = [
    "GaussSingularityError",
    "SpectralTable",
    "closed_form_table",
    "one_atom_table",
    "two_atom_table",
    "spin_one_table",
    "reduced_table",
    "gauss_tables",
    "free_phase",
    "reduction_entries",
    "evolve_one_atom",
    "evolve_two_atoms",
    "evolve_full",
    "evolve_states",
    "gauss_decompose_one_atom",
    "reconstruct_two_atoms",
    "apply",
]

_SQRT2 = sqrt(2.0)
# the triangular factorization is refused where |cos(tg sqrt(m))| falls below this
GAUSS_TAU_SING = 1e-8


@dataclass(frozen=True, eq=False)
class SpectralTable:
    """An operator on atomic blocks as a sum of terms f(N) a^k, at one or more times.

    Each term is (atomic row, atomic col, ladder shift k, coefficients):
    block (row, col) carries f(N) a^k, a negative k meaning (a+)^-k, and
    the coefficients of shape (times, cutoff) hold f(m) at every row level m.
    """

    n_blocks: int
    space: FockSpace
    terms: tuple[tuple[int, int, int, np.ndarray], ...]

    @classmethod
    def from_rows(cls, space: FockSpace, rows) -> "SpectralTable":
        """Build from the block layout: rows of (k, coefficients) pairs, None for a zero block."""
        terms = tuple(
            (i, j, *blk) for i, row in enumerate(rows) for j, blk in enumerate(row) if blk is not None
        )
        return cls(len(rows), space, terms)

    def _span(self, k: int) -> tuple[int, int]:
        """Row levels [m0, m1) where f(N) a^k has entries."""
        return max(0, -k), self.space.cutoff - max(0, k)

    def _term_values(self, coef: np.ndarray, k: int) -> np.ndarray:
        """Entries of f(N) a^k (a negative k means (a+)^-k) on the rows of :meth:`_span`.

        Ladder factors are multiplied in one at a time, as in f(N) @ a @ a, so
        the entries round as that product does.
        """
        m0, m1 = self._span(k)
        out = coef[..., m0:m1]
        for j in range(abs(k)):
            shift = j + 1 if k > 0 else -j
            out = out * self._roots[m0 + shift : m1 + shift]  # sqrt(m + shift) on the rows
        return out

    @cached_property
    def _roots(self) -> np.ndarray:
        """sqrt(m) for m = 0 .. cutoff: every ladder factor of every term."""
        return np.sqrt(np.arange(self.space.cutoff + 1, dtype=float))

    def _positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows and cols of every term's entries, term after term; no term repeats a position."""
        c = self.space.cutoff
        spans = [self._span(k) for _, _, k, _ in self.terms]
        m = np.concatenate([np.arange(*span) for span in spans])  # the row level of each entry
        counts = [m1 - m0 for m0, m1 in spans]
        rows = np.repeat([row * c for row, _, _, _ in self.terms], counts)
        cols = np.repeat([col * c + k for _, col, k, _ in self.terms], counts)
        rows += m
        cols += m
        return rows, cols

    def _values(self) -> Iterator[np.ndarray]:
        """Each term's entry values in turn, shape (times, count)."""
        for _, _, k, coef in self.terms:
            yield self._term_values(coef, k)

    def entries(self) -> Entries:
        """Every term's entries, values of shape (times, count): O(terms x levels) work."""
        return Entries(*self._positions(), join_values(list(self._values())))

    def blocked(self, split: BlockSplit, relabel: np.ndarray | None = None) -> Blocked:
        """The table as blocks of ``split``, each term written straight into them.

        Equals ``split.gather(self.entries())`` bit for bit.  ``relabel`` maps
        each composite index of the table to one of the split's.
        """
        rows, cols = self._positions()
        if relabel is not None:
            rows, cols = relabel[rows], relabel[cols]
        batch = np.broadcast_shapes(*(coef.shape[:-1] for *_, coef in self.terms))
        return split.gather_terms(rows, cols, self._values(), batch)

    def to_dense(self, i: int = 0) -> CompositeOperator:
        """The dense operator at the i-th time of the table."""
        return CompositeOperator.from_entries(self.n_blocks, self.space, self.entries().at(i))


def _column(t) -> np.ndarray:
    """The time(s) t as a column."""
    return np.atleast_1d(np.asarray(t, dtype=float))[:, None]


def _branch(t, g: float, d: np.ndarray) -> Iterator[np.ndarray]:
    """cos(tg sqrt(d)) and sin(tg sqrt(d))/sqrt(d) as cosz(u d), t g sincz(u d), u = (t g)^2.

    One row per time t, one column per branch value d.  Yields the cosine
    first, so a caller that refuses on it can stop before the sine.
    """
    tg = _column(t) * g
    u = tg * tg
    yield cosz(u * d)
    yield tg * sincz(u * d)


def largest_branch(n: int, cutoff: int) -> int:
    """Largest d of :func:`_branch` for n atoms: d = m or 2(2m + 1), m up to the cutoff."""
    return cutoff if n == 1 else 4 * cutoff + 2


def one_atom_table(space: FockSpace, t, g: float) -> SpectralTable:
    """Closed-form exp(-i t g A) for one atom at the time(s) t.

    Blocks (atomic order e, g):

        [[ cos(tg sqrt(N+1)),            -i sin(tg sqrt(N+1))/sqrt(N+1) a ],
         [ -i sin(tg sqrt(N))/sqrt(N) a+, cos(tg sqrt(N))                 ]]

    written with cosz/sincz so every factor is total.
    """
    cos_l, sin_l = _branch(t, g, np.arange(space.cutoff + 1, dtype=float))
    return SpectralTable.from_rows(space, [
        [(0, cos_l[:, 1:]), (1, -1j * sin_l[:, 1:])],
        [(-1, -1j * sin_l[:, :-1]), (0, cos_l[:, :-1])],
    ])


def _two_atom_spectral(space: FockSpace, t, g: float) -> dict[str, np.ndarray]:
    """The distinct spectral functions of the two-atom closed form.

    All branches are d_j = 2(2j+1): the top, middle and bottom atomic rows
    at level m use j = m+1, m and m-1.  At m = 0 the bottom row's j = -1
    is clamped to d = 0 (cosz refuses d = -2, a cosh that overflows for large |t g|);
    only its diagonal, (0 - 1 + 0 cosz(d)) / (-1) = 1 at any d, is read.
    """
    m = np.arange(space.cutoff, dtype=float)
    cos_d, sin_d = _branch(t, g, np.maximum(4.0 * np.arange(-1, space.cutoff + 1) + 2, 0))
    top, mid, bot = cos_d[:, 2:], cos_d[:, 1:-1], cos_d[:, :-2]
    return {
        "top_diag": (m + 2 + (m + 1) * top) / (2 * m + 3),
        "top_sin": sin_d[:, 2:],
        "top_two": (top - 1) / (2 * m + 3),
        "mid_sin": sin_d[:, 1:-1],
        "mid_plus": (1 + mid) / 2,
        "mid_minus": (mid - 1) / 2,
        "mid_cos": mid,
        "bot_two": (bot - 1) / (2 * m - 1),
        "bot_sin": sin_d[:, :-2],
        "bot_diag": (m - 1 + m * bot) / (2 * m - 1),
    }


def two_atom_table(space: FockSpace, t, g: float) -> SpectralTable:
    """Closed-form exp(-i t g A) for two atoms (ee, eg, ge, gg) at the time(s) t.

    Follows from exp(-i t g A) = 1 + D^-1 (cos(tg sqrt(D)) - 1) A^2
    - i D^-1/2 sin(tg sqrt(D)) A with the cubic relation A^3 = D A,
    D = diag(2(2N+3), 2(2N+1), 2(2N+1), 2(2N-1)).  The (1,3)/(2,3) blocks
    mirror (0,1)/(1,0): -i sin(tg sqrt(2(2N+1)))/sqrt(2(2N+1)) times a.
    """
    f = _two_atom_spectral(space, t, g)
    top, mid, bot = (-1j * f[k] for k in ("top_sin", "mid_sin", "bot_sin"))
    plus, minus = (0, f["mid_plus"]), (0, f["mid_minus"])
    return SpectralTable.from_rows(space, [
        [(0, f["top_diag"]), (1, top), (1, top), (2, f["top_two"])],
        [(-1, mid), plus, minus, (1, mid)],
        [(-1, mid), minus, plus, (1, mid)],
        [(-2, f["bot_two"]), (-1, bot), (-1, bot), (0, f["bot_diag"])],
    ])


def spin_one_table(space: FockSpace, t, g: float) -> SpectralTable:
    """Closed-form exp(-i t g B) for the spin-1 block of the reduction, at the time(s) t.

    Same structure as the two-atom form with the sqrt(2) ladder factors
    absorbed, e.g. the (1,2) block is -i sin(tg sqrt(2(2N+3)))/sqrt(2N+3) a.
    """
    f = _two_atom_spectral(space, t, g)
    top, mid, bot = (-1j * (_SQRT2 * f[k]) for k in ("top_sin", "mid_sin", "bot_sin"))
    return SpectralTable.from_rows(space, [
        [(0, f["top_diag"]), (1, top), (2, f["top_two"])],
        [(-1, mid), (0, f["mid_cos"]), (1, mid)],
        [(-2, f["bot_two"]), (-1, bot), (0, f["bot_diag"])],
    ])


def evolve_one_atom(space: FockSpace, t: float, g: float) -> CompositeOperator:
    """Closed-form exp(-i t g A) for one atom; see :func:`one_atom_table`."""
    return one_atom_table(space, t, g).to_dense()


def evolve_two_atoms(space: FockSpace, t: float, g: float) -> CompositeOperator:
    """Closed-form exp(-i t g A) for two atoms; see :func:`two_atom_table`."""
    return two_atom_table(space, t, g).to_dense()


class GaussSingularityError(ValueError):
    """Raised when the Gauss factorization does not exist at (t, g).

    The triangular factors contain tan(tg sqrt(m)); the factorization
    breaks down when cos(tg sqrt(m)) vanishes for some level m.
    """

    def __init__(self, level: int, value: float):
        self.level = level
        self.value = value
        super().__init__(
            f"cos(t g sqrt(m)) vanishes at level m={level} (|cos| = {value:.3e}); "
            "the triangular factorization does not exist at this (t, g)"
        )


def gauss_tables(
    space: FockSpace, t: float, g: float
) -> tuple[SpectralTable, SpectralTable, SpectralTable]:
    """The (lower, diagonal, upper) factors of :func:`gauss_decompose_one_atom` as tables.

    Refuses with :class:`GaussSingularityError` as that function does.
    """
    c = space.cutoff
    branch = _branch(t, g, np.arange(c + 1, dtype=float))
    cos_l = next(branch)
    bad = np.nonzero(np.abs(cos_l[0, :c]) < GAUSS_TAU_SING)[0]
    if bad.size:
        level = int(bad[0])
        raise GaussSingularityError(level, float(abs(cos_l[0, level])))
    sin_l = next(branch)

    # -i tan(tg sqrt(m))/sqrt(m) on levels 0..cutoff-1; total because sincz(0) = cosz(0) = 1
    tan = -1j * (sin_l[:, :c] / cos_l[:, :c])
    # the same function of N+1, at the row level m
    tan_up = np.pad(tan[:, 1:], ((0, 0), (0, 1)))
    one = (0, np.ones((1, c)))
    return (
        SpectralTable.from_rows(space, [[one, None], [(-1, tan), one]]),
        SpectralTable.from_rows(
            space, [[(0, cos_l[:, 1:]), None], [None, (0, 1.0 / cos_l[:, :c])]]
        ),
        SpectralTable.from_rows(space, [[one, (1, tan_up)], [None, one]]),
    )


def gauss_decompose_one_atom(
    space: FockSpace, t: float, g: float
) -> tuple[CompositeOperator, CompositeOperator, CompositeOperator]:
    """Triangular factorization (lower, diagonal, upper) of the one-atom propagator.

        exp(-i t g A) = lower @ diagonal @ upper

    with lower = [[1, 0], [-i tan(tg sqrt(N))/sqrt(N) a+, 1]],
    diagonal = [[cos(tg sqrt(N+1)), 0], [0, 1/cos(tg sqrt(N))]] and
    upper = [[1, -i tan(tg sqrt(N+1))/sqrt(N+1) a], [0, 1]].
    exp(-i t g A) is complex symmetric, and so is its factorization:
    ``lower`` is the transpose of ``upper``, which is the shifting identity
    f(N) a+ = a+ f(N+1) in matrix form.

    Refuses with :class:`GaussSingularityError` when |cos(tg sqrt(m))| falls
    below :data:`GAUSS_TAU_SING` for any level m in 0..cutoff-1.
    """
    return tuple(table.to_dense() for table in gauss_tables(space, t, g))


def closed_form_table(n: int, space: FockSpace, t, g: float) -> SpectralTable:
    """Closed-form exp(-i t g A) for n = 1 or 2 atoms at the time(s) t.

    The coefficients depend on t and g only through t*g.
    """
    if n not in (1, 2):
        raise ValueError(f"closed-form propagator exists for 1 or 2 atoms, got n={n!r}")
    return (one_atom_table if n == 1 else two_atom_table)(space, t, g)


def free_phase(n: int, space: FockSpace, t, omega: float) -> np.ndarray:
    """exp(-i t omega (S_3 + N)) on the composite basis, one row per time."""
    e = excitation(n, space) + n / 2
    # exp once per excitation value -n/2, 1 - n/2, ..., then gathered
    phase = np.exp(-1j * _column(t) * omega * (np.arange(space.cutoff + n) - n / 2))
    return phase[:, e.astype(int)]


def evolve_full(n: int, space: FockSpace, t: float, omega: float, g: float) -> CompositeOperator:
    """Resonant full propagator: free phase times the interaction propagator.

    U(t) = (exp(-i t omega S_3) kron exp(-i t omega N)) exp(-i t g A).
    Available for n = 1 and n = 2; no closed interaction form exists for
    three atoms.
    """
    interaction = closed_form_table(n, space, t, g).to_dense()
    phase = free_phase(n, space, t, omega)[0]
    return CompositeOperator(interaction.n_blocks, space, phase[:, None] * interaction.matrix)


# S_+ of n atoms as a real matrix, and the number of excited atoms of each atomic row
_LADDERS = {n: (collective(n)[0].real, n - _ground_bits(n).sum(axis=1)) for n in (1, 2)}


def _couple(x: np.ndarray, root: np.ndarray, s_plus: np.ndarray) -> np.ndarray:
    """A x with no cut at the cutoff, on all but the end levels m of x; root = sqrt(max(m, 0))."""
    out = np.einsum("hl,...lm->...hm", s_plus, x[..., 2:]) * root[2:]  # S_+ a
    out += np.einsum("lh,...lm->...hm", s_plus, x[..., :-2]) * root[1:-1]  # S_- a+
    return out


def evolve_states(
    n: int, space: FockSpace, times, omega: float, g: float, state: np.ndarray, window=None
) -> np.ndarray:
    """U(t) state for every t in ``times``, matrix-free; shape (len(times), 2**n * cutoff).

    Applies the paper's identity U(t) psi = phase(E) [psi + F(D) A^2 psi - i G(D) A psi],
    F = (cos(tg sqrt(D)) - 1)/D (0 where D = 0, where A psi = 0), G = sin(tg sqrt(D))/sqrt(D),
    phase = exp(-i t omega E), each taken once per value of the excitation E = S_3 + N, of
    which D = E + 1/2 (one atom) or 2(2E + 1) (two) is a function.  A^2 psi is A applied
    twice with no cut at the cutoff (a a+ = N + 1), as the closed-form table holds it.
    Only the levels of ``window`` = (lo, hi), by default all, are evaluated and read: A
    shifts N by at most n, so the state's support widened by n loses nothing.  Real float
    arithmetic gives each amplitude the same bits in any window that holds its level.
    """
    if n not in _LADDERS:
        raise ValueError(f"closed-form propagator exists for 1 or 2 atoms, got n={n!r}")
    c = space.cutoff
    vec = np.asarray(state, dtype=complex)
    if vec.shape != (2**n * c,):
        raise ValueError(f"state has shape {vec.shape}, operator expects ({2**n * c},)")
    lo, hi = window or (0, c)
    n_times = _column(times).shape[0]
    out = np.zeros((n_times, 2**n, c), dtype=complex)
    # the state on levels lo - 2 .. hi + 1 as (re/im, row, level) floats, zero off the window
    psi = np.zeros((2, 2**n, hi - lo + 4))
    psi[..., 2:-2] = np.stack((vec.real, vec.imag)).reshape(2, 2**n, c)[..., lo:hi]
    root = np.sqrt(np.maximum(np.arange(lo - 2, hi + 2), 0))
    s_plus, excited = _LADDERS[n]
    a_psi = _couple(psi, root, s_plus)  # levels lo - 1 .. hi
    a2_psi = _couple(a_psi, root[1:-1], s_plus)
    # F, G and the phase per excitation index k = E + n/2 = m + (excited atoms), lo .. hi + n - 1
    k = np.arange(lo, hi + n, dtype=float)
    d = k if n == 1 else np.maximum(4 * k - 2, 0)  # the m = 0 bottom two-atom row: 0, not -2
    cos_d, sin_d = _branch(times, g, d)
    f = np.divide(cos_d - 1, d, out=np.zeros_like(cos_d), where=d > 0)
    angle = _column(times) * omega * (k - n / 2)  # the phase is exp(-i angle)
    at_k = excited[:, None] + np.arange(hi - lo)  # (row, level) -> k - lo
    z = a2_psi * f[:, at_k][:, None]  # (time, re/im, row, level)
    z += psi[..., 2:-2]
    z += a_psi[::-1, :, 1:-1] * (np.array([1.0, -1.0])[:, None, None] * sin_d[:, at_k][:, None])
    cos_p, sin_p = np.cos(angle)[:, at_k], np.sin(angle)[:, at_k]
    np.add(cos_p * z[:, 0], sin_p * z[:, 1], out=out[..., lo:hi].real)
    np.subtract(cos_p * z[:, 1], sin_p * z[:, 0], out=out[..., lo:hi].imag)
    return out.reshape(n_times, -1)


def reduction_entries(space: FockSpace) -> tuple[Entries, Entries, np.ndarray]:
    """The similarity ST kron 1 and the spin-1 coupling B as entries, and S as an index map.

    ST kron 1 block-diagonalizes the two-atom coupling A.  T rotates the
    one-excitation pair into antisymmetric/symmetric combinations, S swaps
    the antisymmetric state to the front, and

        (ST kron 1) A (ST kron 1)+ = blockdiag(0, B),
        B = [[0, sqrt(2) a, 0], [sqrt(2) a+, 0, sqrt(2) a], [0, sqrt(2) a+, 0]].

    The singlet decouples; B is the spin-1 coupling operator on 3 blocks.
    ST acts on the atomic index alone; S is a permutation, which the
    returned order gives: S moves atomic state j to position order[j].
    """
    r = 1.0 / _SQRT2
    t_mat = np.array(
        [[1, 0, 0, 0], [0, r, -r, 0], [0, r, r, 0], [0, 0, 0, 1]], dtype=complex
    )
    s_mat = np.array(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex
    )
    c = space.cutoff
    levels = np.arange(c)
    similarity = kron_entries(s_mat @ t_mat, Entries(levels, levels, np.ones(c, dtype=complex)), c)
    j_plus = _SQRT2 * np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    a = Entries(*annihilator_entries(space))
    b = join_entries(kron_entries(j_plus, a, c), kron_entries(j_plus.conj().T, a.dagger(), c))
    return similarity, b, np.argmax(s_mat.real, axis=0)


def reduced_table(space: FockSpace, t, g: float) -> SpectralTable:
    """blockdiag(1, exp(-i t g B)) on the reduced basis (singlet first) at the time(s) t."""
    spin1 = spin_one_table(space, t, g)
    one = np.ones((np.size(t), space.cutoff))
    shifted = tuple((row + 1, col + 1, k, coef) for row, col, k, coef in spin1.terms)
    return SpectralTable(4, space, ((0, 0, 0, one), *shifted))


def reconstruct_two_atoms(space: FockSpace, t: float, g: float) -> CompositeOperator:
    """Two-atom propagator rebuilt through the spin-1 reduction.

    (ST)+ blockdiag(1, exp(-i t g B)) (ST); must agree with
    :func:`evolve_two_atoms` on the trusted subspace.
    """
    similarity = CompositeOperator.from_entries(4, space, reduction_entries(space)[0])
    inner = reduced_table(space, t, g).to_dense()
    return similarity.dagger() @ inner @ similarity


def apply(u: CompositeOperator, state: np.ndarray) -> np.ndarray:
    """Apply a composite operator to a state vector of matching dimension."""
    vec = np.asarray(state, dtype=complex)
    dim = u.n_blocks * u.space.cutoff
    if vec.shape != (dim,):
        raise ValueError(f"state has shape {vec.shape}, operator expects ({dim},)")
    return u.matrix @ vec
