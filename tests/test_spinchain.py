"""Collective spin operators, composite operators, and the Hamiltonian."""

import itertools

import numpy as np
import pytest

from tcprop import (
    Blocked,
    BlockSplit,
    CompositeOperator,
    Entries,
    FockSpace,
    annihilator_entries,
    atomic_labels,
    collective,
    coupling_operator,
    entry_deviation,
    excitation,
    hamiltonian,
    join_entries,
    kron_entries,
)


def _ladder(space: FockSpace) -> np.ndarray:
    """The annihilator as a dense matrix, assembled from its entry list."""
    return CompositeOperator.from_entries(1, space, Entries(*annihilator_entries(space))).matrix


def _number(space: FockSpace) -> np.ndarray:
    return np.diag(np.arange(space.cutoff, dtype=complex))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_su2_commutators_exact(n):
    sp, sm, s3 = collective(n)
    dim = 2**n
    zero = np.zeros((dim, dim), dtype=complex)
    np.testing.assert_array_equal(s3 @ sp - sp @ s3, sp)
    np.testing.assert_array_equal(s3 @ sm - sm @ s3, -sm)
    np.testing.assert_array_equal(sp @ sm - sm @ sp, 2.0 * s3)
    np.testing.assert_array_equal(sp.conj().T, sm)
    np.testing.assert_array_equal(s3.conj().T, s3)
    assert not np.array_equal(sp, zero)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_collective_placement(n):
    # S+ turns one g atom to e: entry (j, k) is 1 exactly when label j is label k
    # with one g changed to e, and 0 elsewhere
    labels = ["".join(letters) for letters in itertools.product("eg", repeat=n)]
    assert atomic_labels(n) == tuple(labels)
    sp, sm, s3 = collective(n)
    expected = np.zeros((2**n, 2**n), dtype=complex)
    for k, src in enumerate(labels):
        for i in (i for i, letter in enumerate(src) if letter == "g"):
            expected[labels.index(src[:i] + "e" + src[i + 1 :]), k] = 1.0
    np.testing.assert_array_equal(sp, expected)
    np.testing.assert_array_equal(sm, expected.T)
    np.testing.assert_array_equal(s3, np.diag([(lab.count("e") - lab.count("g")) / 2
                                               for lab in labels]))
    with pytest.raises(ValueError):
        collective(4)


def test_collective_s3_halves():
    _, _, s3 = collective(2)
    np.testing.assert_array_equal(np.diag(s3), [1.0, 0.0, 0.0, -1.0])
    _, _, s3 = collective(3)
    np.testing.assert_array_equal(np.diag(s3), [1.5, 0.5, 0.5, -0.5, 0.5, -0.5, -0.5, -1.5])


def test_atomic_labels():
    assert atomic_labels(1) == ("e", "g")
    assert atomic_labels(2) == ("ee", "eg", "ge", "gg")
    assert atomic_labels(3)[0] == "eee"
    assert atomic_labels(3)[-1] == "ggg"
    assert atomic_labels(3)[3] == "egg"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coupling_pattern(n):
    space = FockSpace(10, 2)
    sp, sm, _ = collective(n)
    a = _ladder(space)
    expected = np.kron(sp, a) + np.kron(sm, a.conj().T)
    got = coupling_operator(n, space)
    np.testing.assert_array_equal(got.matrix, expected)
    assert got.n_blocks == 2**n


def test_one_atom_coupling_blocks():
    space = FockSpace(8, 2)
    op = coupling_operator(1, space)
    np.testing.assert_array_equal(op.block(0, 1), _ladder(space))
    np.testing.assert_array_equal(op.block(1, 0), _ladder(space).conj().T)
    assert np.count_nonzero(op.block(0, 0)) == 0
    assert np.count_nonzero(op.block(1, 1)) == 0


def test_coupling_hermitian():
    space = FockSpace(12, 3)
    op = coupling_operator(2, space)
    np.testing.assert_array_equal(op.matrix, op.dagger().matrix)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_excitation_commutes_with_coupling(n):
    space = FockSpace(12, 3)
    e = np.diag(excitation(n, space))
    a = coupling_operator(n, space).matrix
    comm = e @ a - a @ e
    assert np.max(np.abs(comm)) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("cutoff", [2, 5, 24])
def test_excitation_is_collective_s3_plus_n(n, cutoff):
    space = FockSpace(cutoff)
    _, _, s_3 = collective(n)
    ref = np.kron(s_3, np.eye(cutoff)) + np.kron(np.eye(2**n), _number(space))
    np.testing.assert_array_equal(excitation(n, space), np.diag(ref).real)


def test_excitation_diagonal():
    space = FockSpace(5, 2)
    np.testing.assert_array_equal(
        excitation(1, space),
        [0.5 + m for m in range(5)] + [-0.5 + m for m in range(5)],
    )


def test_hamiltonian_assembly():
    space = FockSpace(10, 2)
    h = hamiltonian(2, space, omega=1.3, delta=0.7, g=0.4)
    np.testing.assert_array_equal(h.total.matrix, h.free.matrix + h.interaction.matrix)
    np.testing.assert_allclose(h.total.matrix, h.total.matrix.conj().T, atol=0.0)
    np.testing.assert_array_equal(
        h.interaction.matrix, 0.4 * coupling_operator(2, space).matrix
    )
    sp, sm, s3 = collective(2)
    free = 1.3 * np.kron(np.eye(4), _number(space)) + 0.7 * np.kron(s3, np.eye(10))
    np.testing.assert_array_equal(h.free.matrix, free)


def test_resonant_free_part_is_excitation():
    # at delta = omega the free Hamiltonian is omega times the excitation count
    space = FockSpace(10, 2)
    h = hamiltonian(1, space, omega=2.0, delta=2.0, g=0.3)
    np.testing.assert_array_equal(h.free.matrix, 2.0 * np.diag(excitation(1, space)))


def test_composite_from_blocks_scalars():
    space = FockSpace(6, 2)
    op = CompositeOperator.from_blocks(space, [[1.0, 0], [0, 2.0j]])
    np.testing.assert_array_equal(op.block(0, 0), np.eye(6))
    np.testing.assert_array_equal(op.block(0, 1), np.zeros((6, 6)))
    np.testing.assert_array_equal(op.block(1, 1), 2.0j * np.eye(6))


def test_composite_algebra():
    space = FockSpace(6, 2)
    a = coupling_operator(1, space)
    ident = CompositeOperator(2, space, np.eye(12))
    np.testing.assert_array_equal((a @ ident).matrix, a.matrix)
    np.testing.assert_array_equal((ident @ a).matrix, a.matrix)
    np.testing.assert_array_equal((a @ a).matrix, a.matrix @ a.matrix)
    np.testing.assert_array_equal((a.dagger() @ a).matrix, a.matrix.conj().T @ a.matrix)
    np.testing.assert_array_equal(a.dagger().matrix, a.matrix.conj().T)


def test_composite_rejects_mismatch():
    s6 = FockSpace(6, 2)
    s8 = FockSpace(8, 2)
    with pytest.raises(ValueError):
        CompositeOperator(2, s6, np.zeros((10, 10), dtype=complex))
    a6 = coupling_operator(1, s6)
    a8 = coupling_operator(1, s8)
    with pytest.raises(ValueError):
        a6 @ a8
    with pytest.raises(ValueError):
        a6 @ coupling_operator(2, s6)
    with pytest.raises(TypeError):
        a6 @ a6.matrix


def test_composite_matrix_is_frozen():
    space = FockSpace(6, 2)
    op = coupling_operator(1, space)
    with pytest.raises((ValueError, RuntimeError)):
        op.matrix[0, 0] = 5.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kron_entries_match_np_kron(n):
    space = FockSpace(7, 2)
    s_plus, _, s_3 = collective(n)
    a = Entries(*annihilator_entries(space))
    for atomic in (s_plus, s_3):
        got = CompositeOperator.from_entries(2**n, space, kron_entries(atomic, a, space.cutoff))
        np.testing.assert_array_equal(got.matrix, np.kron(atomic, _ladder(space)))


def test_entry_deviation_takes_the_union_of_positions():
    x = Entries(np.array([0, 1]), np.array([1, 2]), np.array([1.0, 2.0 + 1j]))
    y = Entries(np.array([1, 3]), np.array([2, 0]), np.array([2.0, 0.5]))
    # (1, 2) differs by 1j, (0, 1) and (3, 0) are held by one list only
    assert entry_deviation(x, -y) == 1.0
    assert entry_deviation(x, -x) == 0.0
    assert entry_deviation(x, x) == pytest.approx(2 * abs(2.0 + 1j))


def test_gather_keeps_entries_between_blocks():
    space = FockSpace(3, 1)
    split = BlockSplit(2, space, (np.array([[0, 4], [1, 5]]), np.array([[2], [3]])))
    rows, cols = np.array([0, 4, 1, 2]), np.array([4, 4, 2, 2])
    entries = Entries(rows, cols, np.array([1.0, 2.0, 3.0, 4.0]))
    op = split.gather(entries)
    np.testing.assert_array_equal(op.blocks[0], [[[0, 1], [0, 2]], [[0, 0], [0, 0]]])
    np.testing.assert_array_equal(op.blocks[1], [[[4]], [[0]]])
    # (1, 2) joins two blocks: kept aside, never dropped
    assert (op.outside.rows.tolist(), op.outside.cols.tolist()) == ([1], [2])
    assert op.outside.values.tolist() == [3.0]
    both = op.entries()
    assert np.abs(both.values).max() == 4.0


def test_join_of_empty_parts_of_one_batch_shape_is_the_first_part():
    first = Entries.none((3,))
    assert join_entries(first, Entries.none((3,)), -first) is first
    # batch shapes differ: a new list, its values broadcast to the common shape
    mixed = join_entries(Entries.none((3,)), Entries.none())
    assert mixed.values.shape == (3, 0)
    assert mixed.rows.size == mixed.cols.size == 0
    one = Entries(np.array([1]), np.array([2]), np.ones((3, 1)))
    joined = join_entries(Entries.none((3,)), one)
    assert joined is not one
    assert (joined.rows.tolist(), joined.cols.tolist()) == ([1], [2])
    assert joined.values.tolist() == [[1.0]] * 3


def test_blocked_entries_list_the_split_keys_then_the_outside_entries():
    # the entry-list worst entries and the two-atom block identities read entries in this order
    space = FockSpace(3, 1)
    split = BlockSplit(2, space, (np.array([[2], [3]]), np.array([[0, 4], [1, 5]])))
    rows, cols = np.array([1, 0, 4, 5, 1, 3]), np.array([2, 4, 0, 5, 2, 1])
    op = split.gather(Entries(rows, cols, np.arange(12.0).reshape(2, 6)))
    keys = [14, 21, 0, 4, 24, 28, 7, 11, 31, 35]  # row * 6 + col, in buffer order
    assert split.keys.tolist() == keys
    got = op.entries()
    # (1, 2), listed twice, and (3, 1) fall between two blocks; they follow as listed
    assert (got.rows * 6 + got.cols).tolist() == keys + [8, 8, 19]
    assert got.values.tolist() == [[0, 0, 0, 1, 2, 0, 0, 0, 0, 3, 0, 4, 5],
                                   [0, 0, 0, 7, 8, 0, 0, 0, 0, 9, 6, 10, 11]]
    # blocks without a batch axis, outside values with one: the blocks broadcast
    mixed = Blocked(split, tuple(x[0] for x in op.blocks), op.outside).entries()
    assert mixed.values.tolist() == [[0, 0, 0, 1, 2, 0, 0, 0, 0, 3, 0, 4, 5],
                                     [0, 0, 0, 1, 2, 0, 0, 0, 0, 3, 6, 10, 11]]
