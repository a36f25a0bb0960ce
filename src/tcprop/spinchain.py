"""Tensor-product structure for n two-level atoms coupled to one field mode.

Atomic basis ordering is binary with the excited state first: |e..e> is
index 0 and |g..g> is index L-1, L = 2**n, atom 1 being the leftmost
(slowest) tensor factor.  Composite operators use the layout
kron(atomic, field): atomic index slow, photon index fast.  With this
ordering the coupling operator of one atom is [[0, a], [a+, 0]] and larger
atom counts nest recursively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .fock import FockSpace, annihilator, creator, number

__all__ = [
    "SIGMA_PLUS",
    "SIGMA_MINUS",
    "SIGMA_3",
    "CompositeOperator",
    "Hamiltonian",
    "embed_sigma",
    "collective",
    "coupling_operator",
    "excitation",
    "hamiltonian",
    "atomic_labels",
]

SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)

_PAULI = {"+": SIGMA_PLUS, "-": SIGMA_MINUS, "3": SIGMA_3}


def _check_atoms(n: int) -> None:
    if n not in (1, 2, 3):
        raise ValueError(f"atom count must be 1, 2 or 3, got {n!r}")


def embed_sigma(i: int, kind: str, n: int) -> np.ndarray:
    """Pauli operator of atom i (1-based) embedded in the n-atom space.

    ``kind`` is one of "+", "-", "3".  Returns a 2**n x 2**n matrix.
    """
    _check_atoms(n)
    if kind not in _PAULI:
        raise ValueError(f'kind must be "+", "-" or "3", got {kind!r}')
    if not 1 <= i <= n:
        raise ValueError(f"atom index must be in 1..{n}, got {i}")
    out = np.array([[1.0 + 0j]])
    for slot in range(1, n + 1):
        out = np.kron(out, _PAULI[kind] if slot == i else np.eye(2, dtype=complex))
    return out


def collective(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collective spin operators (S_plus, S_minus, S_3) for n atoms.

    S_plus and S_minus are sums of single-atom raising/lowering operators;
    S_3 is half the sum of single-atom sigma_3, so its eigenvalues step by 1
    between n/2 and -n/2.  They satisfy the su(2) relations
    [S_3, S_pm] = +-S_pm and [S_plus, S_minus] = 2 S_3 exactly.
    """
    _check_atoms(n)
    s_plus = sum(embed_sigma(i, "+", n) for i in range(1, n + 1))
    s_minus = sum(embed_sigma(i, "-", n) for i in range(1, n + 1))
    s_3 = sum(embed_sigma(i, "3", n) for i in range(1, n + 1)) / 2
    return s_plus, s_minus, s_3


def atomic_labels(n: int) -> tuple[str, ...]:
    """Basis labels in index order, e.g. ("ee", "eg", "ge", "gg") for n = 2."""
    _check_atoms(n)
    return tuple(
        "".join("g" if (k >> (n - 1 - bit)) & 1 else "e" for bit in range(n))
        for k in range(2**n)
    )


def excitation(n: int, space: FockSpace) -> np.ndarray:
    """Excitation S_3 + N of each composite basis index, in index order.

    S_3 is half the count of excited minus ground letters of the atomic label.
    """
    s_3 = [(lab.count("e") - lab.count("g")) / 2 for lab in atomic_labels(n)]
    return (np.array(s_3)[:, None] + np.arange(space.cutoff, dtype=float)[None, :]).ravel()


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
    def identity(cls, n_blocks: int, space: FockSpace) -> "CompositeOperator":
        return cls(n_blocks, space, np.eye(n_blocks * space.cutoff, dtype=complex))

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

    def _check_compatible(self, other: "CompositeOperator") -> None:
        if not isinstance(other, CompositeOperator):
            raise TypeError(f"expected CompositeOperator, got {type(other).__name__}")
        if self.n_blocks != other.n_blocks or self.space != other.space:
            raise ValueError("operands live on different composite spaces")

    def __matmul__(self, other: "CompositeOperator") -> "CompositeOperator":
        self._check_compatible(other)
        return CompositeOperator(self.n_blocks, self.space, self.matrix @ other.matrix)

    def __add__(self, other: "CompositeOperator") -> "CompositeOperator":
        self._check_compatible(other)
        return CompositeOperator(self.n_blocks, self.space, self.matrix + other.matrix)

    def __sub__(self, other: "CompositeOperator") -> "CompositeOperator":
        self._check_compatible(other)
        return CompositeOperator(self.n_blocks, self.space, self.matrix - other.matrix)

    def __mul__(self, scalar) -> "CompositeOperator":
        return CompositeOperator(self.n_blocks, self.space, self.matrix * complex(scalar))

    __rmul__ = __mul__


def coupling_operator(n: int, space: FockSpace) -> CompositeOperator:
    """Atom-field coupling S_plus kron a + S_minus kron a+.

    Hermitian, and commutes with the excitation operator exactly even under
    truncation (every nonzero entry connects states of equal excitation).
    """
    _check_atoms(n)
    s_plus, s_minus, _ = collective(n)
    mat = np.kron(s_plus, annihilator(space)) + np.kron(s_minus, creator(space))
    return CompositeOperator(2**n, space, mat)


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
    _check_atoms(n)
    s_plus, s_minus, s_3 = collective(n)
    eye_f = np.eye(space.cutoff, dtype=complex)
    eye_a = np.eye(2**n, dtype=complex)
    free = CompositeOperator(
        2**n, space, omega * np.kron(eye_a, number(space)) + delta * np.kron(s_3, eye_f)
    )
    interaction = g * coupling_operator(n, space)
    return Hamiltonian(free + interaction, free, interaction)
