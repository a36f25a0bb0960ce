"""The flat block layout: gather, layout-to-blocks writes and block-direct reductions.

Each kernel is checked bit for bit against a copy, kept here, of the code
it replaced: the per-block-size 4-D ``np.add.at`` gather, the per-term
entries of a table of f(N) a^k terms, the entry-list ``worst_entries``,
the full-width relation-fit rows, the level-by-level coherent-state loop,
the entry-list Hermiticity check of ``block_eigh`` and the maximum over
``worst_entries`` reports.  Every layout filled on a split is checked
against its per-term entries gathered on that split.
"""

import math
import re
from functools import reduce

import numpy as np
import pytest

import tcprop.verify
from tcprop import (
    Blocked,
    BlockSplit,
    Entries,
    FockSpace,
    Layout,
    block_eigh,
    block_split,
    closed_form,
    coupling_entries,
    entry_deviation,
    gauss_tables,
    hamiltonian_entries,
    join_values,
    propagator,
    reduced_form,
    reduction_entries,
    trusted_mask,
    worst_entries,
)
from tcprop.cli import (
    COHERENT_MEAN_MAX,
    COHERENT_WEIGHT_TOL,
    ConfigError,
    InitialStateSpec,
    build_state,
)
from tcprop.oracle import _blocks, _labels, _trusted_powers
from tcprop.verify import _tmax, gauss_deviations, run_checks

SPACE = FockSpace(20, 4)
TIMES = [0.3, 1.7, 9.0]


def _old_gather(split: BlockSplit, entries: Entries):
    """(blocks, outside) as ``BlockSplit.gather`` made them: one 4-D np.add.at per block size."""
    where = np.full((3, split.n_blocks * split.space.cutoff), -1)
    for group, idx in enumerate(split.groups):
        where[0, idx] = group
        where[1, idx] = np.arange(idx.shape[0])[:, None]
        where[2, idx] = np.arange(idx.shape[1])
    grp, blk, pos = where[:, entries.rows]
    col_grp, col_blk, col_pos = where[:, entries.cols]
    inside = (grp >= 0) & (grp == col_grp) & (blk == col_blk)
    batch = entries.values.shape[:-1]
    blocks = []
    for group, idx in enumerate(split.groups):
        k, s = idx.shape
        out = np.zeros(batch + (k, s, s), dtype=complex)
        sel = inside & (grp == group)
        np.add.at(out, (Ellipsis, blk[sel], pos[sel], col_pos[sel]), entries.values[..., sel])
        blocks.append(out)
    out = ~inside
    return tuple(blocks), Entries(entries.rows[out], entries.cols[out], entries.values[..., out])


def _old_worst_entries(op: Blocked, trusted: bool = True) -> list[tuple]:
    """(value, location) pairs as ``worst_entries`` found them, from the joined entry list."""
    space = op.split.space
    c, tr = space.cutoff, space.trusted
    rows, cols, values = op.entries()
    keep = np.ones(rows.size, dtype=bool)
    if trusted:
        inside = rows.size - op.outside.rows.size
        keep[:inside] = (rows[:inside] % c < tr) & (cols[:inside] % c < tr)
    dim = op.split.n_blocks * c
    key = rows[keep].astype(np.int64) * dim + cols[keep]
    values = values[..., keep].reshape(-1, key.size)
    if op.outside.rows.size:
        key, inverse = np.unique(key, return_inverse=True)
        total = np.zeros((values.shape[0], key.size), dtype=complex)
        np.add.at(total, (slice(None), inverse), values)
        values = total
    values = np.abs(values)
    best = values.max(axis=1)
    hit = (values == best[:, None]) | np.isnan(values)
    first = np.where(hit, key, np.iinfo(np.int64).max).min(axis=1)
    out = []
    for value, flat in zip(best, first):
        row, col = divmod(int(flat), dim)
        out.append((repr(float(value)), (row // c, col // c, row % c, col % c)))
    return out


def _reports(op: Blocked, trusted: bool = True) -> list[tuple]:
    return [(repr(r.max_abs_deviation), r.location) for r in worst_entries(op, trusted)]


def _assert_same_blocked(got: Blocked, blocks, outside: Entries):
    """Bit-for-bit equality of blocks and outside entries; empty outside lists match by shape."""
    assert len(got.blocks) == len(blocks)
    for x, y in zip(got.blocks, blocks):
        assert x.shape == y.shape and x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()
    assert got.outside.rows.tolist() == outside.rows.tolist()
    assert got.outside.cols.tolist() == outside.cols.tolist()
    assert got.outside.values.shape == outside.values.shape
    assert np.asarray(got.outside.values, dtype=complex).tobytes() == \
        np.asarray(outside.values, dtype=complex).tobytes()


def _random_split(rng, n_blocks: int, space: FockSpace, skip: int = 0) -> BlockSplit:
    """Composite indices shuffled into blocks of 1 to 4 indices; ``skip`` indices in none."""
    order = rng.permutation(n_blocks * space.cutoff)[skip:]
    sizes = []
    while sum(sizes) < order.size:
        sizes.append(int(min(rng.integers(1, 5), order.size - sum(sizes))))
    blocks = np.split(order, np.cumsum(sizes)[:-1])
    groups = tuple(np.array([b for b in blocks if b.size == s])
                   for s in sorted(set(sizes)))
    return BlockSplit(n_blocks, space, groups)


def _random_entries(rng, split: BlockSplit, count: int, batch=()) -> Entries:
    """Entries at random positions, about half inside one block, some listed more than once."""
    dim = split.n_blocks * split.space.cutoff
    blocks = [row for idx in split.groups for row in idx]
    rows, cols = [], []
    for _ in range(count):
        if rng.random() < 0.5:
            block = blocks[rng.integers(len(blocks))]
            rows.append(rng.choice(block))
            cols.append(rng.choice(block))
        else:
            rows.append(rng.integers(dim))
            cols.append(rng.integers(dim))
    rows, cols = np.array(rows + rows[:5]), np.array(cols + cols[:5])  # five listed twice
    values = rng.normal(size=batch + rows.shape) + 1j * rng.normal(size=batch + rows.shape)
    return Entries(rows, cols, values)


@pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
@pytest.mark.parametrize("skip", [0, 7])
def test_gather_matches_the_per_group_scatter(batch, skip):
    rng = np.random.default_rng(len(batch) + 10 * skip)
    split = _random_split(rng, 2, SPACE, skip)
    entries = _random_entries(rng, split, 60, batch)
    _assert_same_blocked(split.gather(entries), *_old_gather(split, entries))


def test_gather_adds_repeated_positions_and_keeps_outside_entries():
    space = FockSpace(3, 1)
    split = BlockSplit(2, space, (np.array([[2], [3]]), np.array([[0, 4], [1, 5]])))
    rows, cols = np.array([0, 4, 0, 1, 2, 1]), np.array([4, 4, 4, 2, 2, 2])
    entries = Entries(rows, cols, np.array([1.0, 2.0, 0.5, 3.0, 4.0, -1.0]))
    op = split.gather(entries)
    np.testing.assert_array_equal(op.blocks[0], [[[4]], [[0]]])  # a group of size 1
    np.testing.assert_array_equal(op.blocks[1], [[[0, 1.5], [0, 2]], [[0, 0], [0, 0]]])
    # (1, 2) joins two blocks: kept aside twice, never dropped or added
    assert (op.outside.rows.tolist(), op.outside.cols.tolist()) == ([1, 1], [2, 2])
    assert op.outside.values.tolist() == [3.0, -1.0]
    _assert_same_blocked(op, *_old_gather(split, entries))


@pytest.mark.parametrize("batch", [(), (4,)])
def test_gather_of_an_empty_list(batch):
    split = _random_split(np.random.default_rng(3), 2, SPACE)
    empty = Entries.none(batch)
    op = split.gather(empty)
    _assert_same_blocked(op, *_old_gather(split, empty))
    assert all(not x.any() for x in op.blocks)


def test_gathered_blocks_are_views_of_one_buffer():
    split = block_split(4, SPACE, coupling_entries(2, SPACE))
    op = split.gather(coupling_entries(2, SPACE))
    base = op.blocks[0].base
    assert all(x.base is base for x in op.blocks)
    assert split.offsets[-1] == sum(x.size for x in op.blocks)


@pytest.mark.parametrize("batch", [(), (3,)])
def test_in_place_difference_is_the_difference_in_the_left_blocks(batch):
    rng = np.random.default_rng(11 + len(batch))
    split = _random_split(rng, 2, SPACE, 7)
    a, b = (split.gather(_random_entries(rng, split, 60, batch)) for _ in range(2))
    assert a.outside.rows.size and b.outside.rows.size
    want, b_blocks, own = a - b, [x.copy() for x in b.blocks], a.blocks
    a -= b
    assert all(x is y for x, y in zip(a.blocks, own))
    _assert_same_blocked(a, want.blocks, want.outside)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(b.blocks, b_blocks))
    with pytest.raises(ValueError, match="different block splits"):
        a -= _random_split(rng, 2, SPACE).gather(Entries.none(batch))


def _random_blocked(rng, split: BlockSplit, batch=()) -> Blocked:
    blocks = tuple(rng.normal(size=batch + idx.shape + idx.shape[1:])
                   + 1j * rng.normal(size=batch + idx.shape + idx.shape[1:])
                   for idx in split.groups)
    return Blocked(split, blocks, Entries.none(batch))


@pytest.mark.parametrize("trusted", [True, False])
@pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
def test_block_direct_worst_entries_match_the_entry_list(trusted, batch):
    rng = np.random.default_rng(7 + len(batch))
    split = _random_split(rng, 2, SPACE, skip=5)
    op = _random_blocked(rng, split, batch)
    assert _reports(op, trusted) == _old_worst_entries(op, trusted)


@pytest.mark.parametrize("trusted", [True, False])
def test_block_direct_worst_entries_break_ties_and_keep_nan(trusted):
    rng = np.random.default_rng(11)
    split = block_split(4, SPACE, coupling_entries(2, SPACE))
    op = _random_blocked(rng, split, (4,))
    # batch 0: three entries of one largest magnitude; batch 1: a NaN among them;
    # batch 2: all zero, so every entry ties; batch 3: a guard-level entry is largest
    last = op.blocks[-1]
    last[0, :3, 0, 0] = [5.0, -5.0, 5j]
    last[1, :2, 0, 0] = [5.0, 5.0]
    last[1, 2, 1, 1] = np.nan
    for x in op.blocks:
        x[2] = 0.0
    idx = split.groups[-1]
    guard = np.argwhere(idx % SPACE.cutoff >= SPACE.trusted)[0]
    last[3, guard[0], guard[1], guard[1]] = 1e3
    got = _reports(op, trusted)
    assert got == _old_worst_entries(op, trusted)
    assert got[1][0] == "nan"
    assert got[2][0] == "0.0"
    assert (got[3][0] == "1000.0") == (not trusted)


def test_worst_entries_with_outside_entries_keep_the_entry_list_route():
    rng = np.random.default_rng(5)
    split = _random_split(rng, 2, SPACE)
    entries = _random_entries(rng, split, 80, (2,))
    op = split.gather(entries)
    assert op.outside.rows.size
    for trusted in (True, False):
        assert _reports(op, trusted) == _old_worst_entries(op, trusted)
        assert _reports(op - op, trusted) == _old_worst_entries(op - op, trusted)


@pytest.mark.parametrize("trusted", [True, False])
@pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
def test_outside_entries_reduce_without_the_joined_entry_list(monkeypatch, trusted, batch):
    rng = np.random.default_rng(23 + len(batch))
    split = _random_split(rng, 2, SPACE, skip=5)
    op = split.gather(_random_entries(rng, split, 80, batch))
    # blocks of batch shape ``batch`` with outside entries of batch (), broadcast when reduced
    unbatched = Blocked(split, _random_blocked(rng, split, batch).blocks,
                        split.gather(_random_entries(rng, split, 80)).outside)
    # an outside entry at (0, 1), listed twice, ties a later block entry: row-major order wins
    one_atom = _coupling_split(1)
    tie = one_atom.gather(Entries(np.array([5, 0, 0]), np.array([5, 1, 1]),
                                  np.broadcast_to([3.0, 1.5, 1.5], batch + (3,))))
    cases = [op, op - op, unbatched, tie]
    assert all(case.outside.rows.size for case in cases)
    wants = [_old_worst_entries(case, trusted) for case in cases]

    def no_entry_list(self):
        raise AssertionError("Blocked.entries was called")

    monkeypatch.setattr(Blocked, "entries", no_entry_list)
    for case, want in zip(cases, wants):
        assert _reports(case, trusted) == want
        assert repr(_tmax(case, trusted)) == repr(max(float(value) for value, _ in want))
    assert {location for _, location in wants[-1]} == {(0, 0, 0, 1)}


def _extreme_key(split: BlockSplit, group: int, trusted: bool, pick) -> tuple:
    """(block, i, j, key) of the entry of ``group`` whose key ``pick`` (max or min) chooses,
    among the entries ``worst_entries`` counts."""
    dim = split.n_blocks * split.space.cutoff
    idx = split.groups[group]
    keys = idx[:, :, None].astype(np.int64) * dim + idx[:, None, :]
    level = idx % split.space.cutoff < split.space.trusted
    counted = level[:, :, None] & level[:, None, :] if trusted else np.ones(keys.shape, bool)
    key = pick(keys[counted])
    return (*np.argwhere(keys == key)[0], int(key))


def _location(split: BlockSplit, key: int) -> tuple:
    c = split.space.cutoff
    row, col = divmod(key, split.n_blocks * c)
    return (row // c, col // c, row % c, col % c)


@pytest.mark.parametrize("outside", [False, True])
@pytest.mark.parametrize("trusted", [True, False])
def test_ties_across_groups_go_to_the_smallest_key(trusted, outside):
    rng = np.random.default_rng(31)
    split = _random_split(rng, 2, SPACE, skip=5)
    # the first group's largest key is listed ahead of the last group's smallest in buffer
    # order, behind it in row-major order
    *first, first_key = _extreme_key(split, 0, trusted, max)
    *last, last_key = _extreme_key(split, -1, trusted, min)
    assert last_key < first_key
    op = _random_blocked(rng, split, (3,))
    # batch 0: the two tie; batch 1: the same, and with outside entries one of a smaller key
    # ties them too; batch 2: a NaN at each, and two NaNs tie as numbers do
    op.blocks[0][(slice(None), *first)] = [10.0, 10.0, np.nan]
    op.blocks[-1][(slice(None), *last)] = [-10j, -10j, np.nan]
    want = [last_key] * 3
    if outside:
        # (0, col) for the columns outside composite index 0's block: between two blocks
        home = next((row for idx in split.groups for row in idx if 0 in row), [0])
        cols = np.setdiff1d(np.arange(6), home)
        values = 0.1 * rng.normal(size=(3, cols.size))
        values[1, 0] = 10.0
        op = Blocked(split, op.blocks, Entries(np.zeros_like(cols), cols, values))
        assert op.outside.rows.size and cols[0] < last_key
        want[1] = int(cols[0])
    got = _reports(op, trusted)
    assert got == _old_worst_entries(op, trusted)
    assert got == [(value, _location(split, key))
                   for value, key in zip(["10.0", "10.0", "nan"], want)]


def _coupling_split(n: int, space: FockSpace = SPACE) -> BlockSplit:
    return block_split(2**n, space, coupling_entries(n, space))


def _old_entries(layout: Layout, coefficients: np.ndarray) -> Entries:
    """The terms' entries as the per-term table made them: each term over the row levels
    [lo, hi) it spans, ``reduce(np.multiply, ladder, coef[..., lo:hi])`` with its ladder
    factors in product order, an imaginary term's coefficients times 1j, the terms joined."""
    c = layout.space.cutoff
    spans = [(max(0, -k), c - max(0, k)) for *_, k in layout.keys]
    m = np.concatenate([np.arange(lo, hi) for lo, hi in spans])
    count = [hi - lo for lo, hi in spans]
    rows = np.repeat([row * c for row, *_ in layout.keys], count) + m
    cols = np.repeat([col * c + k for _, col, k in layout.keys], count) + m
    roots = np.sqrt(np.arange(c + 1.0))
    values = []
    for term, ((*_, k), (lo, hi)) in enumerate(zip(layout.keys, spans)):
        coef = coefficients[..., term, :]
        coef = 1j * coef if layout.imag[term] else coef
        ladder = [roots[lo + j : hi + j] for j in (range(1, k + 1) if k > 0 else range(0, k, -1))]
        values.append(reduce(np.multiply, ladder, coef[..., lo:hi]))
    return Entries(rows, cols, join_values(values))


def _rows(form, t, g: float) -> np.ndarray:
    """A closed form's coefficients (times, terms, cutoff) at the time(s) t, from its rule."""
    return propagator._spectral(t, g, form.branch, form.at, form.scale, form.shift)


def _spin_one(space: FockSpace):
    """The spin-1 closed form from `_closed_form`: the last three blocks of the reduced form."""
    return propagator._closed_form(2, space, (2, 1, 0), propagator._spin1_rows(space),
                                   propagator._spin1_square_rows(space))


def _reduced_splits(space: FockSpace) -> tuple[BlockSplit, BlockSplit]:
    """The blocks of B on 3 atomic blocks, and of blockdiag(0, B) on 4."""
    _, b, _ = reduction_entries(space)
    c = space.cutoff
    return (block_split(3, space, b),
            block_split(4, space, Entries(b.rows + c, b.cols + c, b.values)))


def _forms(n: int, space: FockSpace):
    """(name, closed form, split) of every closed form `_closed_form` lays out, by atom count."""
    if n == 1:
        yield "one-atom", closed_form(1, space), _coupling_split(1, space)
        return
    spin1, reduced = _reduced_splits(space)
    yield "two-atom", closed_form(2, space), _coupling_split(2, space)
    yield "spin-1", _spin_one(space), spin1
    yield "reduced", reduced_form(space), reduced


def _tables(n: int, space: FockSpace):
    """(name, layout, coefficients, split) of every other layout the code builds: the Gauss
    factors and the displayed references of A, A^2 and B, by atom count (three atoms with two)."""
    if n == 1:
        layout, coefficients = gauss_tables(space, 0.3, 1.2)
        for name, factor in zip(("lower", "diagonal", "upper"), coefficients):
            yield f"gauss-{name}", layout, factor, _coupling_split(1, space)
    for atoms in (1,) if n == 1 else (2, 3):
        split = _coupling_split(atoms, space)
        pattern = propagator._layout(space, propagator._pattern_rows(atoms, space))
        yield f"pattern-{atoms}", *pattern, split
        if atoms < 3:
            square = propagator._layout(space, propagator._square_rows(atoms, space))
            yield f"square-{atoms}", *square, split
    if n == 2:
        spin1 = propagator._layout(space, propagator._spin1_rows(space))
        yield "spin1-pattern", *spin1, _reduced_splits(space)[0]


def _builders():
    for n, g in ((1, 1.1), (2, 0.7)):
        for name, form, split in _forms(n, SPACE):
            yield name, form.layout, _rows(form, TIMES, g), split
    for n in (1, 2):
        yield from _tables(n, SPACE)
    form = closed_form(1, SPACE)
    singletons = BlockSplit(2, SPACE, (np.arange(2 * SPACE.cutoff)[:, None],))
    yield "entries-outside", form.layout, _rows(form, TIMES, 1.1), singletons
    # two terms on one block share every position: the second adds to the first
    layout, coefficients = form.layout, _rows(form, TIMES, 1.1)
    shared = Layout(2, SPACE, layout.keys + layout.keys[:2],
                    np.append(layout.imag, layout.imag[:2]))
    yield ("shared-positions", shared, np.concatenate([coefficients, coefficients[:, :2]], axis=1),
           _coupling_split(1))


@pytest.mark.parametrize("name, layout, coefficients, split", list(_builders()),
                         ids=[name for name, *_ in _builders()])
def test_table_written_into_blocks_equals_the_gathered_entries(name, layout, coefficients, split):
    got, want = layout.entries(coefficients), _old_entries(layout, coefficients)
    np.testing.assert_array_equal(got.rows, want.rows)
    np.testing.assert_array_equal(got.cols, want.cols)
    assert got.values.dtype == want.values.dtype  # a table with no imaginary term stays real
    np.testing.assert_array_equal(got.values, want.values)
    _assert_same_blocked(split.gather(got), *_old_gather(split, want))


@pytest.mark.parametrize("n, cutoff", [(1, 24), (2, 30), (3, 24), (3, 41)])
def test_trusted_powers_equal_the_full_width_rows(n, cutoff):
    space = FockSpace(cutoff)
    entries = coupling_entries(n, space)
    dim = 2**n * cutoff
    split = BlockSplit(2**n, space, _blocks(_labels(entries, dim), np.arange(dim)))
    keep = trusted_mask(2**n, space)
    rows = np.zeros((4, dim, 2**n), dtype=complex)
    for idx, p1 in zip(split.groups, _old_gather(split, entries)[0]):
        p2 = p1 @ p1
        p3 = p2 @ p1
        rows[:, idx, : idx.shape[1]] = np.stack([p1, p2, p3, p3 @ p2]) * keep[idx][:, None, :]
    assert not rows.imag.any()
    assert _trusted_powers(split, entries).tobytes() == rows[:, keep].real.tobytes()


def test_gauss_deviations_on_the_coupling_split_it_is_given():
    split = _coupling_split(1)
    assert gauss_deviations(SPACE, 0.3, 1.0, split) == gauss_deviations(SPACE, 0.3, 1.0)
    # the closed form filled on the split, as verify passes it, and left unwritten
    closed = closed_form(1, SPACE).on(split)(0.3, 1.0)
    before = [x.copy() for x in closed.blocks]
    assert gauss_deviations(SPACE, 0.3, 1.0, split, closed) == gauss_deviations(SPACE, 0.3, 1.0)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(closed.blocks, before))


def test_gauss_variant_on_the_blocks_is_the_entry_list_deviation(monkeypatch):
    layout, coefficients = gauss_tables(SPACE, 0.3, 1.2)
    bumped = coefficients.copy()
    # the upper factor's -i tan(tg sqrt(N+1))/sqrt(N+1) a at row level cutoff - 2, in the
    # guard band
    bumped[2, 0, layout.keys.index((0, 1, 1)), -2] += 1e-3
    monkeypatch.setattr(tcprop.verify, "gauss_tables", lambda *args: (layout, bumped))
    _, variant = gauss_deviations(SPACE, 0.3, 1.2)
    lower, upper = (layout.entries(bumped[i, 0]) for i in (0, 2))
    want = entry_deviation(lower, -upper.transpose())
    assert variant == want > 1e-4


def test_run_checks_reuses_the_coupling_split_for_the_gauss_checks(monkeypatch):
    def no_split(*args):
        raise AssertionError("the one-atom coupling was split a second time")

    monkeypatch.setattr(tcprop.verify, "block_split", no_split)
    results, _ = run_checks(1, SPACE, 1e-9)
    assert {"gauss-product", "gauss-variants"} <= {res.name for res in results}
    assert all(res.passed for res in results)


def _old_coherent_state(alpha: complex, space: FockSpace) -> np.ndarray:
    """The coherent state as build_state made it, one level at a time in an array."""
    mean = abs(alpha) ** 2
    field = np.empty(space.cutoff, dtype=complex)
    field[0] = math.exp(-mean / 2)
    for m in range(1, space.cutoff):
        field[m] = field[m - 1] * alpha / math.sqrt(m)
    kept = float(np.sum(np.abs(field) ** 2))
    if max(0.0, 1.0 - kept) > COHERENT_WEIGHT_TOL:
        raise ConfigError(f"coherent state loses weight {max(0.0, 1.0 - kept):.3e}")
    field /= math.sqrt(kept)
    state = np.zeros(2 * space.cutoff, dtype=complex)
    state[space.cutoff:] = field  # atomic label "g"
    return state


@pytest.mark.parametrize("cutoff", [40, 160, 20000])
@pytest.mark.parametrize("kind", ["real", "complex", "negative", "imaginary", "large",
                                  "near-limit"])
def test_coherent_state_is_bitwise_the_level_by_level_loop(cutoff, kind):
    space = FockSpace(cutoff)
    limit = math.sqrt((space.trusted - 1) / 4)
    alpha = {"real": 1.3 + 0j, "complex": 0.8 - 0.6j, "negative": -2.5 + 1.5j,
             "imaginary": complex(-0.0, 1.1), "large": min(limit, 30.0) * (0.8 + 0.6j) * (1 - 1e-9),
             "near-limit": limit * (0.6 - 0.8j) * (1 - 1e-9)}[kind]
    spec = InitialStateSpec("g", "coherent", alpha=alpha)
    try:
        want = _old_coherent_state(alpha, space)
    except ConfigError as exc:
        # exp(-|alpha|^2 / 2) underflows near the limit at cutoff 20000: both refuse, and
        # build_state names the underflow before it runs the loop
        match = "underflows past" if abs(alpha) ** 2 > COHERENT_MEAN_MAX else re.escape(str(exc))
        with pytest.raises(ConfigError, match=match):
            build_state(spec, space)
        return
    assert build_state(spec, space).tobytes() == want.tobytes()


FILL_TG = (0.0, 1e-8, 1e-3, 0.1, 0.7, 2.5, 10.0, 20.0, 123.4, 1e3, 1e6, -3.3)


def _assert_equal_blocks(got: Blocked, want: Blocked):
    # == treats -0 as 0 and NaN as NaN: a fill is held to the per-term values, not their bytes
    for x, y in zip(got.blocks, want.blocks, strict=True):
        assert x.shape == y.shape
        np.testing.assert_array_equal(x, y)
    assert got.outside.values.shape == want.outside.values.shape
    assert got.outside.rows.size == 0


@pytest.mark.parametrize("cutoff", [4, 24, 120, 400])
@pytest.mark.parametrize("n", [1, 2])
def test_fill_equals_the_gathered_table(n, cutoff):
    # every layout the code builds for n atoms, filled on its split, against its per-term
    # entries gathered there: the closed forms at every time of a grid, the others as built
    space = FockSpace(cutoff)
    for name, form, split in _forms(n, space):
        fill = form.on(split)
        for t, g in ((FILL_TG, 1.0), ((0.4, 0.9, 0.4 + 0.9), 1.3)):
            want = split.gather(_old_entries(form.layout, _rows(form, t, g)))
            _assert_equal_blocks(fill(t, g), want)
            assert want.outside.values.shape == (len(t), 0), name
    for name, layout, coefficients, split in _tables(n, space):
        fill, values = layout.on(split, coefficients)
        _assert_equal_blocks(fill(values), split.gather(_old_entries(layout, coefficients)))
    # a closed form, a Gauss factor and the reduced form refuse a split with an entry of theirs
    # between two blocks
    singletons = BlockSplit(2**n, space, (np.arange(2**n * cutoff)[:, None],))
    gauss = gauss_tables(space, 0.3, 1.2)[0]
    for form in (closed_form(n, space), gauss if n == 1 else reduced_form(space)):
        with pytest.raises(ValueError, match="between two blocks"):
            form.on(singletons)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hamiltonian_on_the_coupling_split_factors_as_on_its_own(n):
    space = FockSpace(30)
    split = _coupling_split(n, space)
    for h in (hamiltonian_entries(n, space, 1.0, 1.0, 1.0),
              hamiltonian_entries(n, space, 1.3, 0.7, -0.9)):
        assert split.gather(h).outside.rows.size == 0  # every entry fits the layout
        shared, alone = block_eigh(2**n, space, h, split), block_eigh(2**n, space, h)
        assert shared.split is split
        for idx, other in zip(split.groups, alone.split.groups):
            np.testing.assert_array_equal(idx, other)
        _assert_same_blocked(shared.generator, alone.generator.blocks, alone.generator.outside)
        for x, y in zip(shared.evals + shared.vecs, alone.evals + alone.vecs):
            assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("value", [1e-3, 0.0])
def test_block_eigh_refuses_an_entry_outside_the_split_it_is_given(value):
    split = _coupling_split(2)
    h = hamiltonian_entries(2, SPACE, 1.0, 1.0, 1.0)
    # (ee, 0) and (ee, 1) lie in different excitation sectors; a Hermitian pair, even of zeros
    rows, cols = [0, 1], [1, 0]
    joined = Entries(np.append(h.rows, rows), np.append(h.cols, cols),
                     np.append(h.values, [value, value]))
    with pytest.raises(ValueError, match="between two blocks of the given split"):
        block_eigh(4, SPACE, joined, split)
    with pytest.raises(ValueError, match="different composite space"):
        block_eigh(4, FockSpace(21, 4), h, split)


def _old_hermiticity_refusal(entries: Entries) -> str | None:
    """block_eigh's refusal as the entry-list route worded it, None where it accepted."""
    dev = entry_deviation(entries, -entries.dagger())
    return f"matrix is not Hermitian: max |M - M+| = {dev:.3e}" if dev > 1e-12 else None


def _hermiticity_cases():
    a = coupling_entries(2, SPACE)
    for size in (3e-13, 1e-12, 2e-12, 1e-6, 3.0):
        values = a.values.copy()
        values[7] += size * (1 + 1j)
        yield f"bump-{size:g}", Entries(a.rows, a.cols, values)
    # zero entries between two sectors stay outside the blocks and add nothing to the deviation
    values = a.values.copy()
    values[7] += 1e-6
    yield "outside", Entries(np.append(a.rows, [0, 1]), np.append(a.cols, [1, 0]),
                             np.append(values, [0.0, 0.0]))


@pytest.mark.parametrize("name, entries", list(_hermiticity_cases()),
                         ids=[name for name, _ in _hermiticity_cases()])
def test_block_hermiticity_equals_the_entry_list_deviation(monkeypatch, name, entries):
    want = _old_hermiticity_refusal(entries)
    if want is None:
        block_eigh(4, SPACE, entries)
    else:
        with pytest.raises(ValueError, match=re.escape(want) + "$"):
            block_eigh(4, SPACE, entries)
    # the same value to the last bit: accepted at a bound equal to it, refused just below
    dev = entry_deviation(entries, -entries.dagger())
    monkeypatch.setattr(tcprop.oracle, "HERMITICITY_TOL", dev)
    block_eigh(4, SPACE, entries)
    monkeypatch.setattr(tcprop.oracle, "HERMITICITY_TOL", np.nextafter(dev, 0.0))
    with pytest.raises(ValueError, match="not Hermitian"):
        block_eigh(4, SPACE, entries)


def _operator(rng, split: BlockSplit, batch, outside: bool) -> Blocked:
    if outside:
        op = split.gather(_random_entries(rng, split, 80, batch))
        assert op.outside.rows.size
        return op
    return _random_blocked(rng, split, batch)


@pytest.mark.parametrize("outside", [False, True])
@pytest.mark.parametrize("trusted", [True, False])
@pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
def test_value_only_tmax_is_the_largest_worst_entry(batch, trusted, outside):
    rng = np.random.default_rng(13 + len(batch))
    for split in (_random_split(rng, 2, SPACE, skip=5), _coupling_split(2)):
        op = _operator(rng, split, batch, outside)
        want = max(report.max_abs_deviation for report in worst_entries(op, trusted))
        assert repr(_tmax(op, trusted)) == repr(want)
    identity = Blocked.identity(_coupling_split(1))
    assert _tmax(identity, trusted) == 1.0


@pytest.mark.parametrize("outside", [False, True])
@pytest.mark.parametrize("nan_at", [0, 1, 2])
def test_tmax_is_nan_when_any_batch_index_holds_a_nan(nan_at, outside):
    rng = np.random.default_rng(17)
    split = _coupling_split(1)
    op = _operator(rng, split, (3,), outside)
    blocks = op.blocks[-1]
    row = np.flatnonzero((split.groups[-1] % SPACE.cutoff < SPACE.trusted).all(axis=1))[0]
    blocks[nan_at, row, 0, 0] = np.nan  # a trusted entry
    maxima = [report.max_abs_deviation for report in worst_entries(op)]
    assert math.isnan(maxima[nan_at]) and sum(map(math.isnan, maxima)) == 1
    assert math.isnan(_tmax(op)) and math.isnan(_tmax(op, trusted=False))


@pytest.mark.parametrize("mean, builds", [(1400.0, True), (1450.0, False), (1452.0, False),
                                         (1482.25, False), (1487.0, False), (1505.44, False)])
def test_coherent_state_past_the_normal_floats_builds_or_names_the_underflow(mean, builds):
    space = FockSpace(8000)
    alpha = complex(math.sqrt(mean))
    spec = InitialStateSpec("g", "coherent", alpha=alpha)
    if builds:
        assert build_state(spec, space).tobytes() == _old_coherent_state(alpha, space).tobytes()
        return
    # past the normal floats every state is refused, whether or not the old loop lost weight
    with pytest.raises(ConfigError, match="underflows past"):
        build_state(spec, space)
