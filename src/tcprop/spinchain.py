"""Tensor-product structure for n two-level atoms coupled to one field mode.

Atomic basis ordering is binary with the excited state first: |e..e> is
index 0 and |g..g> is index L-1, L = 2**n, atom 1 being the leftmost
(slowest) tensor factor, so bit n - i of the index is set when atom i is
in g.  S+-, S_3, the basis labels and the excitation are all read from
that one table of ground bits.  Composite operators use the layout
kron(atomic, field): atomic index slow, photon index fast.  With this
ordering the coupling operator of one atom is [[0, a], [a+, 0]] and larger
atom counts nest recursively.

An operator comes in one of three forms: a dense
:class:`CompositeOperator`; its nonzero :class:`Entries`, which the coupling
and the Hamiltonian are built as, from S+- and the ladder entries; or
:class:`Blocked`, its (k, s, s) blocks on a :class:`BlockSplit`, a grouping
of the composite indices into blocks the operator does not couple.  Every
product of stacked blocks goes through :func:`block_product`: blocks of
size 1 and 2, every one-atom block, as broadcast products, wider ones by
``@``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import NamedTuple, Sequence

import numpy as np

from .fock import FockSpace, annihilator_entries

__all__ = [
    "CompositeOperator",
    "Entries",
    "BlockSplit",
    "Blocked",
    "block_product",
    "Hamiltonian",
    "collective",
    "kron_entries",
    "join_entries",
    "join_values",
    "entry_deviation",
    "coupling_entries",
    "coupling_operator",
    "excitation",
    "hamiltonian",
    "hamiltonian_entries",
    "atomic_labels",
]


def _ground_bits(n: int) -> np.ndarray:
    """(2**n, n) table of 0/1: entry (k, i - 1) is bit n - i of k, set when atom i is in g."""
    if n not in (1, 2, 3):
        raise ValueError(f"atom count must be 1, 2 or 3, got {n!r}")
    return (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1


def _s3_diagonal(n: int) -> np.ndarray:
    """S_3 of each atomic basis state: half the count of e minus g atoms."""
    return (n - 2 * _ground_bits(n).sum(axis=1)) / 2


def collective(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collective spin operators (S_plus, S_minus, S_3) for n atoms.

    S_plus takes a basis state to each state with one g atom turned to e,
    S_minus is its transpose and S_3 is diagonal, half the count of e minus
    g atoms, so its eigenvalues step by 1 between n/2 and -n/2.  They satisfy
    the su(2) relations [S_3, S_pm] = +-S_pm and [S_plus, S_minus] = 2 S_3 exactly.
    """
    k, i = np.nonzero(_ground_bits(n))  # atom i + 1 of state k is in g
    s_plus = np.zeros((2**n, 2**n), dtype=complex)
    s_plus[k - (1 << (n - 1 - i)), k] = 1  # clear that g bit
    return s_plus, s_plus.T.copy(), np.diag(_s3_diagonal(n)).astype(complex)


def atomic_labels(n: int) -> tuple[str, ...]:
    """Basis labels in index order, e.g. ("ee", "eg", "ge", "gg") for n = 2."""
    return tuple("".join("eg"[bit] for bit in bits) for bits in _ground_bits(n).tolist())


def trusted_mask(n_blocks: int, space: FockSpace) -> np.ndarray:
    """Boolean mask over composite indices with photon level in the trusted band."""
    return np.tile(np.arange(space.cutoff) < space.trusted, n_blocks)


def excitation(n: int, space: FockSpace) -> np.ndarray:
    """Excitation S_3 + N of each composite basis index, in index order."""
    return (_s3_diagonal(n)[:, None] + np.arange(space.cutoff, dtype=float)[None, :]).ravel()


@dataclass(frozen=True, eq=False)
class CompositeOperator:
    """Operator on the (atomic x field) space as one dense complex matrix.

    ``n_blocks`` x ``n_blocks`` blocks of cutoff x cutoff field operators;
    block index is the atomic basis index.  For n-atom systems
    n_blocks = 2**n; the spin-1 reduced picture uses n_blocks = 3.  The
    stored matrix is write-locked, so instances can be shared freely.
    """

    n_blocks: int
    space: FockSpace
    matrix: np.ndarray

    def __post_init__(self):
        if self.n_blocks < 1:
            raise ValueError(f"n_blocks must be positive, got {self.n_blocks}")
        mat = np.array(self.matrix, dtype=complex, copy=True)
        dim = self.n_blocks * self.space.cutoff
        if mat.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {mat.shape} does not match "
                f"{self.n_blocks} blocks of cutoff {self.space.cutoff}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_entries(
        cls, n_blocks: int, space: FockSpace, entries: "Entries"
    ) -> "CompositeOperator":
        """Assemble from an entry list with unbatched values; entries listed twice add."""
        dim = n_blocks * space.cutoff
        mat = np.zeros((dim, dim), dtype=complex)
        np.add.at(mat, (entries.rows, entries.cols), entries.values)
        return cls(n_blocks, space, mat)

    @classmethod
    def from_blocks(cls, space: FockSpace, blocks: Sequence[Sequence]) -> "CompositeOperator":
        """Assemble from an L x L nested sequence of blocks.

        Each block is a cutoff x cutoff array, or a scalar c standing for
        c times the field identity (0 and 1 cover the common cases).
        """
        n_blocks = len(blocks)
        c = space.cutoff
        mat = np.zeros((n_blocks * c, n_blocks * c), dtype=complex)
        for i, row in enumerate(blocks):
            if len(row) != n_blocks:
                raise ValueError(f"block row {i} has {len(row)} entries, expected {n_blocks}")
            for j, blk in enumerate(row):
                if np.isscalar(blk):
                    if blk != 0:
                        mat[i * c : (i + 1) * c, j * c : (j + 1) * c] = blk * np.eye(c)
                else:
                    blk = np.asarray(blk, dtype=complex)
                    if blk.shape != (c, c):
                        raise ValueError(
                            f"block ({i}, {j}) has shape {blk.shape}, expected ({c}, {c})"
                        )
                    mat[i * c : (i + 1) * c, j * c : (j + 1) * c] = blk
        return cls(n_blocks, space, mat)

    def block(self, i: int, j: int) -> np.ndarray:
        """The (i, j) field block, 0-based atomic indices."""
        if not (0 <= i < self.n_blocks and 0 <= j < self.n_blocks):
            raise ValueError(f"block index ({i}, {j}) out of range for {self.n_blocks} blocks")
        c = self.space.cutoff
        return self.matrix[i * c : (i + 1) * c, j * c : (j + 1) * c]

    def dagger(self) -> "CompositeOperator":
        return CompositeOperator(self.n_blocks, self.space, self.matrix.conj().T)

    def __matmul__(self, other: "CompositeOperator") -> "CompositeOperator":
        if not isinstance(other, CompositeOperator):
            raise TypeError(f"expected CompositeOperator, got {type(other).__name__}")
        if self.n_blocks != other.n_blocks or self.space != other.space:
            raise ValueError("operands live on different composite spaces")
        return CompositeOperator(self.n_blocks, self.space, self.matrix @ other.matrix)


class Entries(NamedTuple):
    """Entries of a composite operator: ``values[..., i]`` sits at (rows[i], cols[i]).

    Leading axes of ``values`` index a batch, such as the times of a closed form;
    an entry listed twice adds.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __neg__(self) -> "Entries":
        return Entries(self.rows, self.cols, -self.values)

    def transpose(self) -> "Entries":
        return Entries(self.cols, self.rows, self.values)

    def dagger(self) -> "Entries":
        return Entries(self.cols, self.rows, np.conj(self.values))

    def at(self, i: int) -> "Entries":
        """The entries at batch index i."""
        return Entries(self.rows, self.cols, self.values[i])

    @classmethod
    def none(cls, batch: tuple[int, ...] = ()) -> "Entries":
        """An empty list with values of batch shape ``batch``."""
        return cls(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(batch + (0,)))


def join_values(values: Sequence[np.ndarray]) -> np.ndarray:
    """Values of several entry lists side by side, broadcast to a common batch shape."""
    batch = np.broadcast_shapes(*(x.shape[:-1] for x in values))
    return np.concatenate(
        [x if x.shape[:-1] == batch else np.broadcast_to(x, batch + x.shape[-1:]) for x in values],
        axis=-1,
    )


def join_entries(*parts: Entries) -> Entries:
    """One entry list holding every part, values broadcast to a common batch shape; the first
    part itself, not a copy, when every part is empty and of its batch shape."""
    first = parts[0]
    if all(not part.rows.size and part.values.shape == first.values.shape for part in parts):
        return first
    return Entries(
        np.concatenate([part.rows for part in parts]),
        np.concatenate([part.cols for part in parts]),
        join_values([part.values for part in parts]),
    )


def _merge(entries: Entries, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys row * dim + col, ascending, and the values listed at each key added
    from 0 in listing order, batch axes kept: the one rule for entries at one position."""
    rows, cols, values = entries
    key, inverse = np.unique(rows.astype(np.int64) * dim + cols, return_inverse=True)
    total = np.zeros(values.shape[:-1] + key.shape, dtype=complex)
    np.add.at(total, (..., inverse), values)
    return key, total


def entry_deviation(*terms: Entries) -> float:
    """max |sum of the terms| over the union of their positions, summed by :func:`_merge`.

    Subtract by passing a negated list: a position both lists hold sums to
    0 + x + (-y), which is x - y exactly, as a dense difference gives it.
    """
    both = join_entries(*terms)
    if both.rows.size == 0:
        return 0.0
    return float(np.abs(_merge(both, int(both.cols.max()) + 1)[1]).max())


def kron_entries(atomic: np.ndarray, field: Entries, cutoff: int) -> Entries:
    """Entries of kron(atomic, F) from a small atomic matrix and the entries of F."""
    i, j = np.nonzero(atomic)
    return Entries(
        (i[:, None] * cutoff + field.rows).ravel(),
        (j[:, None] * cutoff + field.cols).ravel(),
        (atomic[i, j][:, None] * field.values).ravel(),
    )


@dataclass(frozen=True, eq=False)
class BlockSplit:
    """Composite indices grouped into blocks: one (k, s) index array per block size s.

    Row b of a group lists the s indices of one block.  An operator with no
    entry between two blocks is the direct sum of its (k, s, s) blocks, so
    any product or comparison of such operators is a stack of small ones.
    The blocks of every group lie one after another, row-major, in one flat
    buffer: group i fills ``offsets[i]:offsets[i + 1]``.  Comparisons read
    entries in that buffer order alone, which is not row-major order across
    groups, so a position is named by its entry's key (:attr:`keys`).
    """

    n_blocks: int
    space: FockSpace
    groups: tuple[np.ndarray, ...]

    @cached_property
    def offsets(self) -> np.ndarray:
        """Start of each group's blocks in the flat buffer, and the buffer's size last."""
        return np.cumsum([0] + [idx.shape[0] * idx.shape[1] ** 2 for idx in self.groups])

    @cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per composite index: its block (-1 outside all), its row's flat start, its position.

        Entry (i, j) of a block sits at ``start[i] + position[j]`` of the flat buffer.
        """
        dim = self.n_blocks * self.space.cutoff
        block, start, position = np.full(dim, -1), np.zeros(dim, np.int64), np.zeros(dim, np.int64)
        first = 0
        for offset, idx in zip(self.offsets, self.groups):
            k, s = idx.shape
            block[idx] = first + np.arange(k)[:, None]
            start[idx] = offset + s * np.arange(k * s).reshape(k, s)
            position[idx] = np.arange(s)
            first += k
        return block, start, position

    @cached_property
    def keys(self) -> np.ndarray:
        """The key row * dim + col of the entry at each flat buffer position."""
        dim = self.n_blocks * self.space.cutoff
        return np.concatenate([(idx[:, :, None].astype(np.int64) * dim + idx[:, None, :]).ravel()
                               for idx in self.groups])

    @cached_property
    def trusted(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat buffer positions, in buffer order, of the entries whose row and column are
        trusted levels, and their :attr:`keys`."""
        levels = trusted_mask(self.n_blocks, self.space)
        row, col = np.divmod(self.keys, self.n_blocks * self.space.cutoff)
        keep = levels[row] & levels[col]
        return np.flatnonzero(keep), self.keys[keep]

    def _place(self, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat buffer index of each (row, col) pair inside one block, and the mask of them."""
        block, start, position = self._layout
        row_block = block[rows]
        inside = (row_block >= 0) & (row_block == block[cols])
        return start[rows[inside]] + position[cols[inside]], inside

    def _blocked(self, flat: np.ndarray, outside: Entries) -> "Blocked":
        """The (..., size) flat buffer as blocks, each a view of it."""
        batch = flat.shape[:-1]
        blocks = tuple(flat[..., lo:hi].reshape(batch + idx.shape + idx.shape[1:])
                       for lo, hi, idx in zip(self.offsets, self.offsets[1:], self.groups))
        return Blocked(self, blocks, outside)

    def gather(self, entries: Entries) -> "Blocked":
        """The entries as blocks of this split; entries listed at one position add.

        All batch indices scatter into one flat buffer with a single 1-D
        ``np.add.at``.  An entry whose row and column fall in different
        blocks, or outside every block, is kept in ``outside``, never dropped.
        """
        rows, cols, values = entries
        flat, inside = self._place(rows, cols)
        batch = values.shape[:-1]
        size = int(self.offsets[-1])
        buf = np.zeros(batch + (size,), dtype=complex)
        lead = size * np.arange(prod(batch))[:, None]  # batch index b starts at b * size
        np.add.at(buf.reshape(-1), (lead + flat).ravel(), values[..., inside].ravel())
        out = ~inside
        return self._blocked(buf, Entries(rows[out], cols[out], values[..., out]))


def block_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y on stacks of (..., s, s) blocks, batch axes broadcast as ``@`` broadcasts them.

    numpy runs ``@`` on a stack through a loop over its matrices, which costs more than a
    tiny block's arithmetic, so blocks of size 1 or 2 are multiplied as broadcast products
    instead: column j of x times row j of y, summed over j from the first.  They round
    differently from ``@``, within a few ulps.  Each entry is computed elementwise, so a
    block's product does not depend on the rest of its stack.  Wider blocks keep ``@``: at
    4 x 4 the broadcast form left two-atom ``verify`` no faster.
    """
    s = x.shape[-1]
    if s > 2:
        return x @ y
    out = x[..., :, :1] * y[..., :1, :]
    if s == 2:
        out += x[..., :, 1:] * y[..., 1:, :]
    return out


@dataclass(frozen=True, eq=False)
class Blocked:
    """An operator as (..., k, s, s) blocks on ``split``, rows and columns alike.

    Leading axes index a batch (e.g. times).  ``outside`` holds the entries
    that fell between blocks; products, sums and comparisons carry them
    along, so such an entry always counts at its full size.  They flag an
    operand that is not a direct sum of the blocks: each keeps its operand's
    value and position, and no cross term of a product is formed from them.
    """

    split: BlockSplit
    blocks: tuple[np.ndarray, ...]
    outside: Entries

    @classmethod
    def identity(cls, split: BlockSplit) -> "Blocked":
        eye = tuple(np.broadcast_to(np.eye(idx.shape[1]), idx.shape + idx.shape[1:])
                    for idx in split.groups)
        return cls(split, eye, Entries.none())

    def _map(self, fn) -> "Blocked":
        """Apply an elementwise ``fn`` to every block and outside value."""
        out = self.outside
        return Blocked(self.split, tuple(map(fn, self.blocks)),
                       Entries(out.rows, out.cols, fn(out.values)))

    def __getitem__(self, i) -> "Blocked":
        """Batch index i."""
        return self._map(lambda x: x[i])

    def __rmul__(self, scalar) -> "Blocked":
        return self._map(lambda x: scalar * x)

    def __truediv__(self, scalar) -> "Blocked":
        return self._map(lambda x: x / scalar)

    def __matmul__(self, other: "Blocked") -> "Blocked":
        if other.split is not self.split:
            raise ValueError("operands live on different block splits")
        blocks = tuple(map(block_product, self.blocks, other.blocks))
        return Blocked(self.split, blocks, join_entries(self.outside, other.outside))

    def __sub__(self, other: "Blocked") -> "Blocked":
        if other.split is not self.split:
            raise ValueError("operands live on different block splits")
        blocks = tuple(x - y for x, y in zip(self.blocks, other.blocks))
        return Blocked(self.split, blocks, join_entries(self.outside, -other.outside))

    def __isub__(self, other: "Blocked") -> "Blocked":
        """``self - other`` written into ``self``'s blocks, which its caller must own.

        The result shares those blocks; ``outside`` is joined as :meth:`__sub__` joins it.
        """
        if other.split is not self.split:
            raise ValueError("operands live on different block splits")
        for x, y in zip(self.blocks, other.blocks):
            x -= y
        return Blocked(self.split, self.blocks, join_entries(self.outside, -other.outside))

    def transpose(self) -> "Blocked":
        return Blocked(self.split, tuple(x.swapaxes(-1, -2) for x in self.blocks),
                       self.outside.transpose())

    def dagger(self) -> "Blocked":
        return Blocked(self.split, tuple(x.conj().swapaxes(-1, -2) for x in self.blocks),
                       self.outside.dagger())

    def scale_rows(self, vec: np.ndarray) -> "Blocked":
        """diag(vec) times the operator; ``vec`` is (..., dim) over composite indices."""
        out = self.outside
        blocks = tuple(vec[..., idx][..., None] * x
                       for idx, x in zip(self.split.groups, self.blocks))
        return Blocked(self.split, blocks,
                       Entries(out.rows, out.cols, vec[..., out.rows] * out.values))

    def entries(self) -> Entries:
        """Every stored entry: the block entries at :attr:`BlockSplit.keys`, in buffer order,
        then ``outside`` in listing order; values keep the batch axes."""
        out = self.outside
        rows, cols = np.divmod(self.split.keys, self.split.n_blocks * self.split.space.cutoff)
        values = [x.reshape(x.shape[:-3] + (-1,)) for x in self.blocks]
        return Entries(np.concatenate([rows, out.rows]), np.concatenate([cols, out.cols]),
                       join_values([*values, out.values]))


def coupling_entries(n: int, space: FockSpace) -> Entries:
    """Entries of the atom-field coupling S_plus kron a + S_minus kron a+, built from S+- and a."""
    s_plus, s_minus, _ = collective(n)
    a = Entries(*annihilator_entries(space))
    c = space.cutoff
    return join_entries(kron_entries(s_plus, a, c), kron_entries(s_minus, a.dagger(), c))


def coupling_operator(n: int, space: FockSpace) -> CompositeOperator:
    """Atom-field coupling S_plus kron a + S_minus kron a+.

    Hermitian, and commutes with the excitation operator exactly even under
    truncation (every nonzero entry connects states of equal excitation).
    """
    return CompositeOperator.from_entries(2**n, space, coupling_entries(n, space))


class Hamiltonian(NamedTuple):
    total: CompositeOperator
    free: CompositeOperator
    interaction: CompositeOperator


def hamiltonian(n: int, space: FockSpace, omega: float, delta: float, g: float) -> Hamiltonian:
    """Full Hamiltonian omega 1 kron N + delta S_3 kron 1 + g (S+ kron a + S- kron a+).

    Returns the total together with its free and interaction parts.  At
    resonance (delta = omega) the free part is omega times the excitation
    operator and commutes with the interaction.
    """
    a = coupling_entries(n, space)
    parts = (hamiltonian_entries(n, space, omega, delta, g), _free_entries(n, space, omega, delta),
             Entries(a.rows, a.cols, a.values * complex(g)))
    return Hamiltonian(*(CompositeOperator.from_entries(2**n, space, x) for x in parts))


def _free_entries(n: int, space: FockSpace, omega: float, delta: float) -> Entries:
    """Entries of the free part omega 1 kron N + delta S_3 kron 1, all on the diagonal."""
    diagonal = (omega * np.arange(space.cutoff)[None, :] + delta * _s3_diagonal(n)[:, None]).ravel()
    levels = np.arange(diagonal.size)
    return Entries(levels, levels, diagonal + 0j)


def hamiltonian_entries(n: int, space: FockSpace, omega: float, delta: float, g: float) -> Entries:
    """Entries of :func:`hamiltonian`'s total: omega N + delta S_3 on the diagonal, g A off it."""
    a = coupling_entries(n, space)
    return join_entries(_free_entries(n, space, omega, delta),
                        Entries(a.rows, a.cols, a.values * complex(g)))
