"""Closed-form interaction propagators exp(-i t g A) and the full evolution.

The coupling operator A of one or two atoms, and the spin-1 block B of the
two-atom reduction, satisfy A^3 = D A, D a function of the excitation, so
exp(-i t g A) = 1 + F(D) A^2 - i G(D) A with F = (cos(tg sqrt(D)) - 1)/D and
G = sin(tg sqrt(D))/sqrt(D), from the entire functions cosz and sincz of
(t g)^2 D, all evaluated by one kernel from one rule for D.  Every operator
here is a :class:`Layout` of terms f(N) a^k plus real coefficient rows,
which become entries or, placed on a block split, its blocks.  One builder
lays each closed form out from the displayed rows of A and A^2 as a
:class:`ClosedForm`, the layout and the rule for its coefficients at any
times.  On a state, :func:`evolve_states` applies the identity at
O(2^n x levels) work per time point.  The two-atom
D = 2(2m - 1) of the bottom row is clamped to 0 at m = 0, where F(D) A^2 is
taken as 0, so cosz and sincz never see a negative argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Callable

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
    kron_entries,
    _ground_bits,
)

__all__ = [
    "GaussSingularityError",
    "Layout",
    "closed_form",
    "reduced_form",
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


def _ladder(cutoff: int, keys) -> tuple[np.ndarray, ...]:
    """Where the terms f(N) a^k whose (row, col, k) are ``keys`` have entries, term after term.

    Returns each entry's row, col, term and row level m, and its ladder factors in product
    order, sqrt(m + 1), sqrt(m + 2), ... for a^k and sqrt(m), sqrt(m - 1), ... for (a+)^-k,
    1 past its term's last: multiplied in one at a time, they round as f(N) @ a @ a does.
    """
    spans = [(max(0, -k), cutoff - max(0, k)) for *_, k in keys]
    count = [hi - lo for lo, hi in spans]
    m = np.concatenate([np.arange(lo, hi) for lo, hi in spans])
    rows = np.repeat([row * cutoff for row, *_ in keys], count) + m
    cols = np.repeat([col * cutoff + k for _, col, k in keys], count) + m
    roots, ones = np.sqrt(np.arange(cutoff + 1.0)), np.ones(cutoff)
    # the j-th factor: sqrt(m + 1 + j) on a^k, sqrt(m - j) on (a+)^-k while j < |k|, then 1
    ladder = [np.concatenate([roots[lo + j + 1 : hi + j + 1] if j < k else
                              roots[lo - j : hi - j] if j < -k else ones[: hi - lo]
                              for (*_, k), (lo, hi) in zip(keys, spans)])
              for j in range(max(abs(k) for *_, k in keys))]
    return rows, cols, np.repeat(np.arange(len(keys)), count), m, ladder


@dataclass(frozen=True, eq=False)
class Layout:
    """Terms f(N) a^k on the atomic blocks of an operator: all that their coefficients do not fix.

    ``keys`` are the (atomic row, atomic col, k) of the terms: block (row, col)
    carries f(N) a^k, a negative k meaning (a+)^-k, and i f(N) a^k for a term
    flagged in ``imag``.  Coefficients of shape (..., terms, cutoff) hold the
    real f(m) of each term at every row level m; leading axes index times.
    """

    n_blocks: int
    space: FockSpace
    keys: list[tuple[int, int, int]]
    imag: np.ndarray

    def entries(self, coefficients: np.ndarray) -> Entries:
        """The terms' entries at ``coefficients``, complex if a term is imaginary: O(entries)."""
        rows, cols, term, level, ladder = _ladder(self.space.cutoff, self.keys)
        values = coefficients[..., term, level]
        if self.imag.any():  # a layout with no imaginary term stays real
            values = values * np.where(self.imag[term], 1j, 1.0)
        for factor in ladder:
            values *= factor
        return Entries(rows, cols, values)

    def on(self, split: BlockSplit, *coefficients: np.ndarray) -> tuple:
        """A fill of the terms on ``split``, which must hold each of their entries inside a
        block, and each of ``coefficients`` (..., terms, cutoff) at those entries.

        The fill takes coefficients (..., entries) at the entries, multiplies their ladder
        factors into them and writes them into blocks of the split in float arithmetic,
        O(entries): the blocks equal ``split.gather(self.entries(...))``, entry for entry.
        """
        rows, cols, term, level, ladder = _ladder(self.space.cutoff, self.keys)
        flat, inside = split._place(rows, cols)
        if not inside.all():
            raise ValueError("a layout entry falls between two blocks of the split")
        # each entry's place in the flat buffer seen as floats: 2 p + 1 is the imaginary part
        # of position p, where an imaginary term's entries go
        where = 2 * flat + self.imag[term]

        def fill(values: np.ndarray) -> Blocked:
            for factor in ladder:
                values *= factor
            buf = np.zeros(values.shape[:-1] + (int(split.offsets[-1]),), dtype=complex)
            buf.view(float)[..., where] = values
            return split._blocked(buf, Entries.none(buf.shape[:-1]))

        return (fill, *(x[..., term, level] for x in coefficients))


def _layout(space: FockSpace, rows) -> tuple[Layout, np.ndarray]:
    """A layout and its coefficients (..., terms, cutoff) from block rows of (k, coefficients)
    pairs, None for a zero block; a block (k, coefficients, True) is an imaginary term."""
    terms = [(i, j, *blk) for i, row in enumerate(rows) for j, blk in enumerate(row) if blk]
    return (Layout(len(rows), space, [term[:3] for term in terms],
                   np.array([len(term) > 4 for term in terms])),
            np.stack([term[3] for term in terms], axis=-2))


def _column(t) -> np.ndarray:
    """The time(s) t as a column."""
    return np.atleast_1d(np.asarray(t, dtype=float))[:, None]


def _branch(t, g: float, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(tg sqrt(d)) and sin(tg sqrt(d))/sqrt(d) as cosz(u d), t g sincz(u d), u = (t g)^2.

    One row per time t, one column per branch value d.
    """
    tg = _column(t) * g
    ud = tg * tg * d
    return cosz(ud), tg * sincz(ud)


def _excitation_branch(n: int, k):
    """D of A^3 = D A at excitation index k = m + (excited atoms): k (one atom), 2(2k - 1) (two).

    The two-atom k = 0 (the bottom row at m = 0, where A vanishes) is clamped
    to D = 0, as cosz refuses -2, a cosh that overflows for large |t g|.
    """
    return k if n == 1 else np.maximum(4 * k - 2, 0)


def largest_branch(n: int, cutoff: int) -> int:
    """Largest D of :func:`_branch` for n atoms: the one at the top excitation index."""
    return int(_excitation_branch(n, cutoff + n - 1))


# S_+ of n atoms as a real matrix, and the number of excited atoms of each atomic row
_LADDERS = {n: (collective(n)[0].real, n - _ground_bits(n).sum(axis=1)) for n in (1, 2)}


def _pattern_rows(n: int, space: FockSpace) -> list:
    """Coupling operator as displayed: A_k = [[A_(k-1), a 1], [a+ 1, A_(k-1)]] from A_0 = 0."""
    ones = np.ones(space.cutoff)
    rows = [[None]]
    for _ in range(n):
        eye = range(len(rows))
        up = [[(1, ones) if i == j else None for j in eye] for i in eye]
        down = [[(-1, ones) if i == j else None for j in eye] for i in eye]
        rows = [row + u for row, u in zip(rows, up)] + [d + row for d, row in zip(down, rows)]
    return rows


def _square_rows(n: int, space: FockSpace) -> list:
    """A^2 as displayed: f(N) on the diagonal blocks, plus 2 a^2 and 2 a+^2 for two atoms."""
    m = np.arange(space.cutoff, dtype=float)
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
    r2 = np.full(space.cutoff, np.sqrt(2.0))
    return [[None, (1, r2), None], [(-1, r2), None, (1, r2)], [None, (-1, r2), None]]


def _spin1_square_rows(space: FockSpace) -> list:
    """B^2 as displayed: the outer rows of the two-atom A^2, its middle pair merged to 2(2N+1)."""
    top, (_, (k, mid), _, _), _, bottom = _square_rows(2, space)
    return [[top[0], None, top[3]], [None, (k, 2 * mid), None], [bottom[0], None, bottom[3]]]


def _spectral(t, g: float, branch: np.ndarray, at, scale, shift) -> np.ndarray:
    """trig[:, at] scale + shift, trig = [cos(tg sqrt(D)) | sin(tg sqrt(D))/sqrt(D)] at D = branch,
    one row per time t: on the positions of 1 and A^2, (delta - r) + r cos(tg sqrt(D))."""
    values = np.take(np.concatenate(_branch(t, g, branch), axis=1), at, axis=1)
    values *= scale
    values += shift
    return values


@dataclass(frozen=True, eq=False)
class ClosedForm:
    """1 + F(D) A^2 - i G(D) A for any times: its layout and the rule for its coefficients.

    The terms of A are the imaginary ones.  A coefficient at each row level is
    :func:`_spectral` at the level's excitation index, ``at`` adding the size of
    ``branch`` on the terms of A: (delta - r) + r cos(tg sqrt(D)),
    r = (A^2 entry)/D, on 1 and A^2, and -G(D) (A's entry) + 0 on A.
    """

    layout: Layout
    branch: np.ndarray
    at: np.ndarray
    scale: np.ndarray
    shift: np.ndarray

    def entries(self, t, g: float) -> Entries:
        """The closed form's entries at the time(s) t."""
        return self.layout.entries(_spectral(t, g, self.branch, self.at, self.scale, self.shift))

    def on(self, split: BlockSplit) -> Callable[..., Blocked]:
        """The form's fill on ``split``: (t, g) -> the form at the time(s) t as blocks of the
        split, its rule evaluated on the placed entries alone, the only ones it keeps."""
        fill, at, scale, shift = self.layout.on(split, self.at, self.scale, self.shift)
        branch = self.branch
        return lambda t, g: fill(_spectral(t, g, branch, at, scale, shift))


def _closed_form(n: int, space: FockSpace, offsets, a_rows, sq_rows) -> ClosedForm:
    """1 + F(D) A^2 - i G(D) A from the displayed rows of A and A^2, D at k = m + offsets[row].

    The positions of 1 and A^2 carry (delta - r) + r cos(tg sqrt(D)), exact
    where r = (A^2 entry)/D is 0, 1/2 or 1, and r = 0 where D = 0; the
    positions of A carry -i G(D) times A's entry.  A^2 has every diagonal block.
    """
    c, offsets = space.cutoff, np.asarray(offsets)
    branch = _excitation_branch(n, np.arange(c + offsets.max(), dtype=float))
    # A and A^2 share no block, as A changes the excited atoms by one and A^2 by zero or two
    layout, entry = _layout(space, [[(*a, True) if a else s for a, s in zip(*pair)]
                                    for pair in zip(a_rows, sq_rows)])
    sine = layout.imag[:, None]
    level = offsets[[i for i, *_ in layout.keys]][:, None] + np.arange(c)  # the excitation index
    d = branch[level]
    r = np.divide(entry, d, out=np.zeros_like(d), where=d > 0)
    delta = np.array([[i == j and k == 0] for i, j, k in layout.keys])
    return ClosedForm(layout, branch, level + sine * branch.size, np.where(sine, -entry, r),
                      np.where(sine, 0.0, delta - r))


def closed_form(n: int, space: FockSpace) -> ClosedForm:
    """Closed-form exp(-i t g A) for n = 1 or 2 atoms, for any times; see :func:`_closed_form`.

    D is N + 1 and N on the one-atom rows (e, g), and 2(2N+3), 2(2N+1),
    2(2N+1) and 2(2N-1) on the two-atom rows (ee, eg, ge, gg).  The
    coefficients depend on t and g only through t*g.
    """
    if n not in _LADDERS:
        raise ValueError(f"closed-form propagator exists for 1 or 2 atoms, got n={n!r}")
    return _closed_form(n, space, _LADDERS[n][1], _pattern_rows(n, space), _square_rows(n, space))


def reduced_form(space: FockSpace) -> ClosedForm:
    """blockdiag(1, exp(-i t g B)) on the reduced basis (singlet first), for any times.

    B is the spin-1 block, D = 2(2N+3), 2(2N+1) and 2(2N-1) on its rows.  The
    singlet's A^2 is 0, so its 1 is (1 - 0) + 0 cos(tg sqrt(D)), exactly 1.
    """
    def lead(rows, singlet):
        return [[singlet, None, None, None]] + [[None, *row] for row in rows]

    return _closed_form(2, space, (1, 2, 1, 0), lead(_spin1_rows(space), None),
                        lead(_spin1_square_rows(space), (0, np.zeros(space.cutoff))))


def evolve_one_atom(space: FockSpace, t: float, g: float) -> CompositeOperator:
    """Closed-form exp(-i t g A) for one atom; see :func:`closed_form`."""
    return CompositeOperator.from_entries(2, space, closed_form(1, space).entries(t, g).at(0))


def evolve_two_atoms(space: FockSpace, t: float, g: float) -> CompositeOperator:
    """Closed-form exp(-i t g A) for two atoms; see :func:`closed_form`."""
    return CompositeOperator.from_entries(4, space, closed_form(2, space).entries(t, g).at(0))


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


def gauss_tables(space: FockSpace, t: float, g: float) -> tuple[Layout, np.ndarray]:
    """The (lower, diagonal, upper) factors of :func:`gauss_decompose_one_atom`: one layout and
    their coefficients (3, 1, terms, cutoff), 0 on a term a factor lacks.

    Refuses with :class:`GaussSingularityError` as that function does.
    """
    c = space.cutoff
    cos_l, sin_l = _branch(t, g, np.arange(c + 1, dtype=float))
    bad = np.nonzero(np.abs(cos_l[0, :c]) < GAUSS_TAU_SING)[0]
    if bad.size:
        level = int(bad[0])
        raise GaussSingularityError(level, float(abs(cos_l[0, level])))

    # -tan(tg sqrt(m))/sqrt(m) on levels 0..cutoff-1, on an imaginary term; total because
    # sincz(0) = cosz(0) = 1
    tan = -(sin_l[:, :c] / cos_l[:, :c])
    # the same function of N+1, at the row level m
    tan_up = np.pad(tan[:, 1:], ((0, 0), (0, 1)))
    one, zero = np.ones((1, c)), np.zeros((1, c))
    # each block in the lower, diagonal and upper factor
    return _layout(space, [
        [(0, np.stack([one, cos_l[:, 1:], one])), (1, np.stack([zero, zero, tan_up]), True)],
        [(-1, np.stack([tan, zero, zero]), True), (0, np.stack([one, 1.0 / cos_l[:, :c], one]))],
    ])


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
    layout, coefficients = gauss_tables(space, t, g)
    return tuple(CompositeOperator.from_entries(2, space, layout.entries(factor))
                 for factor in coefficients[:, 0])


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
    interaction = CompositeOperator.from_entries(2**n, space,
                                                 closed_form(n, space).entries(t, g).at(0))
    phase = free_phase(n, space, t, omega)[0]
    return CompositeOperator(interaction.n_blocks, space, phase[:, None] * interaction.matrix)


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
    d = _excitation_branch(n, k)
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


def reconstruct_two_atoms(space: FockSpace, t: float, g: float) -> CompositeOperator:
    """Two-atom propagator rebuilt through the spin-1 reduction.

    (ST)+ blockdiag(1, exp(-i t g B)) (ST); must agree with
    :func:`evolve_two_atoms` on the trusted subspace.
    """
    similarity = CompositeOperator.from_entries(4, space, reduction_entries(space)[0])
    inner = CompositeOperator.from_entries(4, space, reduced_form(space).entries(t, g).at(0))
    return similarity.dagger() @ inner @ similarity


def apply(u: CompositeOperator, state: np.ndarray) -> np.ndarray:
    """Apply a composite operator to a state vector of matching dimension."""
    vec = np.asarray(state, dtype=complex)
    dim = u.n_blocks * u.space.cutoff
    if vec.shape != (dim,):
        raise ValueError(f"state has shape {vec.shape}, operator expects ({dim},)")
    return u.matrix @ vec
