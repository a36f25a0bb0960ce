"""Reference exponentials, comparisons, and the diagonal-relation search.

The eigendecomposition route is itself cross-checked here against a
scaling-and-squaring Taylor sum written directly in the test, so the two
independent methods validate each other.
"""

import math
import warnings

import numpy as np
import pytest

import tcprop.oracle
from tcprop import (
    BlockSplit,
    CompositeOperator,
    Entries,
    FockSpace,
    annihilator_entries,
    block_eigh,
    block_magnitudes,
    block_split,
    collective,
    compare,
    coupling_entries,
    coupling_operator,
    default_guard,
    entry_deviation,
    excitation,
    expm_hermitian,
    fit_left_diagonal,
    hamiltonian,
    hamiltonian_entries,
    min_poly_degree,
    relation_fit,
    relation_fits,
    sector_decompose,
    trusted_mask,
    worst_entries,
)
from tcprop.oracle import _blocks, _sectors, _trusted_powers

SPACE = FockSpace(24, 4)


def _expm_taylor(matrix: np.ndarray) -> np.ndarray:
    """exp(matrix) by scaling and squaring with a plain Taylor sum."""
    norm = float(np.linalg.norm(matrix, 2))
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    small = matrix / (2.0**squarings)
    dim = matrix.shape[0]
    total = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for k in range(1, 30):
        term = term @ small / k
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


def test_expm_identity_at_zero_scale():
    u = expm_hermitian(coupling_operator(1, SPACE), 0.0)
    dev = np.abs(u.matrix - np.eye(2 * SPACE.cutoff)).max()
    assert dev <= 1e-13


def test_expm_diagonal_input():
    e = CompositeOperator(2, SPACE, np.diag(excitation(1, SPACE)))
    u = expm_hermitian(e, 0.37)
    expected = np.diag(np.exp(-1j * 0.37 * np.diag(e.matrix)))
    assert np.abs(u.matrix - expected).max() <= 1e-13


def test_expm_pi_rotation_of_sigma3():
    sigma3 = np.diag([1.0, -1.0]).astype(complex)
    op = CompositeOperator(2, SPACE, np.kron(sigma3, np.eye(SPACE.cutoff, dtype=complex)))
    u = expm_hermitian(op, math.pi)
    assert np.abs(u.matrix + np.eye(2 * SPACE.cutoff)).max() <= 1e-12


def test_expm_refuses_non_hermitian():
    op = CompositeOperator.from_entries(1, SPACE, Entries(*annihilator_entries(SPACE)))
    with pytest.raises(ValueError, match="Hermitian"):
        expm_hermitian(op, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_expm_refuses_non_finite(bad):
    space = FockSpace(8)
    mat = coupling_operator(1, space).matrix.copy()
    mat[3, 3] = bad
    # refused before any arithmetic on the bad entry can warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            expm_hermitian(CompositeOperator(2, space, mat), 1.0)


def test_expm_is_unitary():
    u = expm_hermitian(coupling_operator(2, SPACE), 2.7)
    gram = u.matrix.conj().T @ u.matrix
    assert np.abs(gram - np.eye(4 * SPACE.cutoff)).max() <= 1e-13


@pytest.mark.parametrize("scale", [0.3, 2.0, 5.0])
def test_expm_against_taylor_sum(scale):
    # norm(scale * A) <= 2 * 5 * sqrt(23) < 50, comfortably inside the
    # Taylor route's reliable range
    op = coupling_operator(1, SPACE)
    got = expm_hermitian(op, scale)
    ref = _expm_taylor(-1j * scale * op.matrix)
    assert np.abs(got.matrix - ref).max() <= 1e-11


def _expm_dense(matrix: np.ndarray, scale: float) -> np.ndarray:
    """exp(-i scale M) from one eigendecomposition of the whole matrix."""
    evals, vecs = np.linalg.eigh(matrix)
    return (vecs * np.exp(-1j * scale * evals)) @ vecs.conj().T


SCALES = [0.0, 0.7, -0.7, 20.0, 1e3]


def _assert_matches_dense(op: CompositeOperator, scale: float) -> None:
    # every level, guard band included
    got = expm_hermitian(op, scale).matrix
    bound = 1e-13 * (1 + abs(scale) * np.linalg.norm(op.matrix, 2))
    assert np.abs(got - _expm_dense(op.matrix, scale)).max() <= bound


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("cutoff", [12, 24])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("generator", ["coupling", "detuned-hamiltonian"])
def test_block_split_matches_dense_eigh(generator, n, cutoff, scale):
    space = FockSpace(cutoff)
    if generator == "coupling":
        op = coupling_operator(n, space)
    else:
        op = hamiltonian(n, space, 1.3, 0.7, -0.9).total
    _assert_matches_dense(op, scale)


def _random_hermitian(rng: np.random.Generator, size: int) -> np.ndarray:
    x = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    return (x + x.conj().T) / 2


def _permuted_blocks(sizes: list[int], seed: int) -> np.ndarray:
    """Random Hermitian matrix, block diagonal under a random permutation."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(sum(sizes))
    mat = np.zeros((perm.size, perm.size), dtype=complex)
    for idx in np.split(perm, np.cumsum(sizes)[:-1]):
        mat[np.ix_(idx, idx)] = _random_hermitian(rng, idx.size)
    return mat


@pytest.mark.parametrize("scale", SCALES)
def test_block_split_on_permuted_mixed_blocks(scale):
    # 1 + 2 + 3 + 5 + 10 + 27 = 48 = two atomic blocks of cutoff 24
    mat = _permuted_blocks([1, 2, 3, 5, 10, 27], seed=11)
    _assert_matches_dense(CompositeOperator(2, SPACE, mat), scale)


@pytest.mark.parametrize("scale", SCALES)
def test_block_split_on_dense_matrix(scale):
    mat = _random_hermitian(np.random.default_rng(12), 2 * SPACE.cutoff)
    _assert_matches_dense(CompositeOperator(2, SPACE, mat), scale)


def test_block_split_factors_each_block_alone(monkeypatch):
    # two blocks of each size, 96 = two atomic blocks of cutoff 48
    mat = _permuted_blocks([1, 2, 3, 5, 10, 27] * 2, seed=13)
    seen = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        seen.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    expm_hermitian(CompositeOperator(2, FockSpace(48), mat), 0.7)
    # one stacked call per block size
    assert sorted(seen) == [(2, 1, 1), (2, 2, 2), (2, 3, 3), (2, 5, 5), (2, 10, 10), (2, 27, 27)]
    assert sum(k * s for k, s, _ in seen) == mat.shape[0]


def test_compare_locates_worst_entry():
    space = FockSpace(12, 3)
    u = expm_hermitian(coupling_operator(1, space), 0.9)
    perturbed = u.matrix.copy()
    row = space.cutoff + 2  # block 1, photon 2
    col = 1  # block 0, photon 1
    perturbed[row, col] += 1e-3
    report = compare(u, CompositeOperator(2, space, perturbed))
    assert abs(report.max_abs_deviation - 1e-3) <= 1e-12
    assert report.location == (1, 0, 2, 1)


def test_compare_ignores_guard_levels():
    space = FockSpace(12, 3)
    u = expm_hermitian(coupling_operator(1, space), 0.9)
    perturbed = u.matrix.copy()
    perturbed[space.cutoff - 1, :] += 7.0  # guard photon row of block 0
    perturbed[:, 2 * space.cutoff - 1] += 7.0  # guard photon column of block 1
    report = compare(u, CompositeOperator(2, space, perturbed))
    assert report.max_abs_deviation == 0.0


def test_compare_rejects_mismatched_spaces():
    u1 = expm_hermitian(coupling_operator(1, SPACE), 0.5)
    u2 = expm_hermitian(coupling_operator(2, SPACE), 0.5)
    with pytest.raises(ValueError):
        compare(u1, u2)


def test_fit_recovers_synthetic_diagonal():
    basis = coupling_operator(1, SPACE)
    c, tr = SPACE.cutoff, SPACE.trusted
    diag = np.empty(2 * c)
    for k in range(2):
        for m in range(c):
            diag[k * c + m] = 0.5 + 2.0 * k + 0.1 * m
    target = CompositeOperator(2, SPACE, diag[:, None] * basis.matrix)
    values, residual = fit_left_diagonal(target, basis)
    assert residual <= 1e-13
    # row (0, tr-1) only reaches a guard column, row (1, 0) is empty
    nan_at = {tuple(map(int, idx)) for idx in np.argwhere(np.isnan(values))}
    assert nan_at == {(0, tr - 1), (1, 0)}
    for k in range(2):
        for m in range(tr):
            if (k, m) in nan_at:
                continue
            assert abs(values[k, m] - diag[k * c + m]) <= 1e-12


def test_relation_fit_one_atom():
    report = relation_fit(1, SPACE, 3)
    tr = SPACE.trusted
    assert report.relative_residual <= 1e-12
    nan_at = {tuple(idx) for idx in np.argwhere(np.isnan(report.best_fit_values)).tolist()}
    assert nan_at == {(0, tr - 1), (1, 0)}
    for m in range(tr - 1):
        assert abs(report.best_fit_values[0, m] - (m + 1)) <= 1e-10
    for m in range(1, tr):
        assert abs(report.best_fit_values[1, m] - m) <= 1e-10


def test_relation_fit_one_atom_higher_power():
    # A^5 = D A^3 holds with the same diagonal
    report = relation_fit(1, SPACE, 5)
    assert report.relative_residual <= 1e-12
    assert abs(report.best_fit_values[0, 3] - 4.0) <= 1e-10


def test_relation_fit_two_atoms():
    report = relation_fit(2, SPACE, 3)
    tr = SPACE.trusted
    assert report.relative_residual <= 1e-12
    expected = [
        lambda m: 2.0 * (2 * m + 3),
        lambda m: 2.0 * (2 * m + 1),
        lambda m: 2.0 * (2 * m + 1),
        lambda m: 2.0 * (2 * m - 1),
    ]
    values = report.best_fit_values
    for k in range(4):
        for m in range(tr):
            if np.isnan(values[k, m]):
                continue
            assert abs(values[k, m] - expected[k](m)) <= 1e-10, (k, m)
    assert np.isnan(values[3, 0])


def test_relation_fit_three_atoms_fails_to_fit():
    space = FockSpace(40, 5)
    res3 = relation_fit(3, space, 3)
    res5 = relation_fit(3, space, 5)
    assert res3.relative_residual > 1e-3
    assert res5.relative_residual > 1e-3
    # the degree-5 family gets closer but still fails
    assert res5.relative_residual < res3.relative_residual
    degrees = res3.sector_min_poly_degrees
    assert max(degrees.values()) == 6
    assert sorted(set(degrees.values())) == [1, 3, 5, 6]


def test_relation_fit_rejects_even_power():
    with pytest.raises(ValueError):
        relation_fit(1, SPACE, 4)


def test_sector_structure_one_atom():
    sectors = sector_decompose(1, SPACE)
    by_exc = {s.excitation: s for s in sectors}
    ground = by_exc[-0.5]
    assert list(ground.indices) == [SPACE.cutoff]
    np.testing.assert_array_equal(ground.matrix, [[0.0]])
    first = by_exc[0.5]
    assert list(first.indices) == [0, SPACE.cutoff + 1]
    np.testing.assert_array_equal(first.matrix, [[0, 1], [1, 0]])
    assert min_poly_degree(first.matrix) == 2


def test_sectors_partition_trusted_subspace():
    sectors = sector_decompose(2, SPACE)
    all_idx = np.concatenate([s.indices for s in sectors])
    keep = np.nonzero(trusted_mask(4, SPACE))[0]
    assert sorted(all_idx.tolist()) == keep.tolist()
    # the coupling operator has no matrix elements between different sectors
    owner = {int(i): num for num, s in enumerate(sectors) for i in s.indices}
    a = coupling_operator(2, SPACE).matrix
    for r, c in zip(*np.nonzero(a)):
        if int(r) in owner and int(c) in owner:
            assert owner[int(r)] == owner[int(c)], (r, c)


def test_sector_dimensions_bounded():
    # a full interior sector holds one photon level per atomic state
    space = FockSpace(20, 4)
    for n in (1, 2, 3):
        assert max(len(s.indices) for s in sector_decompose(n, space)) == 2**n


def test_min_poly_degree_basics():
    assert min_poly_degree(np.zeros((3, 3))) == 1
    assert min_poly_degree(np.eye(4)) == 1
    assert min_poly_degree(np.diag([0.0, 1.0, 2.0])) == 3
    assert min_poly_degree(np.diag([1.0, 1.0 + 1e-12])) == 1
    assert min_poly_degree(np.diag([1.0, 1.0 + 1e-4])) == 2
    assert min_poly_degree(np.zeros((0, 0))) == 0


def _min_poly_degree_one_by_one(matrix: np.ndarray) -> int:
    """Distinct eigenvalues of one Hermitian matrix, clustered at 1e-8 of its norm."""
    matrix = np.asarray(matrix)
    if matrix.shape[0] == 0:
        return 0
    evals = np.sort(np.linalg.eigvalsh(matrix))
    norm = float(max(abs(evals[0]), abs(evals[-1])))
    if norm == 0.0:
        return 1
    return 1 + int(np.sum(np.diff(evals) > 1e-8 * norm))


@pytest.mark.parametrize(
    "cutoff,guard", [(c, g) for c in (2, 3, 5, 24, 60) for g in sorted({0, default_guard(c)})]
)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sector_degrees_match_one_eigvalsh_per_sector(n, cutoff, guard):
    space = FockSpace(cutoff, guard)
    sectors = sector_decompose(n, space)
    expected = {s.excitation: _min_poly_degree_one_by_one(s.matrix) for s in sectors}
    assert {s.excitation: min_poly_degree(s.matrix) for s in sectors} == expected
    for report in relation_fits(n, space, (3, 5)):
        assert report.sector_min_poly_degrees == expected
        assert all(type(d) is int for d in report.sector_min_poly_degrees.values())


def test_relation_fits_run_one_eigvalsh_per_block_size(monkeypatch):
    space = FockSpace(60)
    sizes = {len(s.indices) for s in sector_decompose(3, space)}
    stacks = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        stacks.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("relation_fits called min_poly_degree")

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    monkeypatch.setattr(tcprop.oracle, "min_poly_degree", refused)
    relation_fits(3, space, (3, 5))
    assert len(stacks) <= len(sizes)
    assert len({shape[-1] for shape in stacks}) == len(stacks)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_relation_route_runs_in_float64(monkeypatch, n):
    space = FockSpace(24)
    entries = coupling_entries(n, space)
    split = block_split(2**n, space, entries)
    assert _trusted_powers(split, entries).dtype == np.float64
    dtypes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        dtypes.append(np.asarray(a).dtype)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(tcprop.oracle.np.linalg, "eigvalsh", recording)
    relation_fits(n, space, (3, 5))
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}


def test_relation_fits_refuse_a_complex_coupling(monkeypatch):
    def tilted(n, space):
        rows, cols, values = coupling_entries(n, space)
        values = values.copy()
        values[0] += 1e-300j
        return Entries(rows, cols, values)

    monkeypatch.setattr(tcprop.oracle, "coupling_entries", tilted)
    with pytest.raises(ValueError, match="relation search needs a real coupling"):
        relation_fits(2, FockSpace(24), (3, 5))


def _sectors_by_excitation(n: int, space: FockSpace) -> list[tuple[float, list[int]]]:
    """Trusted indices grouped by S_3 + m, one (atomic state, level) at a time."""
    s3_diag = np.diag(collective(n)[2]).real
    groups: dict[float, list[int]] = {}
    for k in range(2**n):
        for m in range(space.trusted):
            groups.setdefault(float(s3_diag[k] + m), []).append(k * space.cutoff + m)
    return sorted(groups.items())


def _guards(cutoff: int) -> list[int]:
    return sorted({g for g in (0, 1, default_guard(cutoff), cutoff - 2) if g <= cutoff - 2})


@pytest.mark.parametrize(
    "cutoff,guard", [(c, g) for c in (2, 3, 5, 12, 40) for g in _guards(c)]
)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sector_decompose_matches_excitation_grouping(n, cutoff, guard):
    space = FockSpace(cutoff, guard)
    a = coupling_operator(n, space).matrix
    sectors = sector_decompose(n, space)
    expected = _sectors_by_excitation(n, space)
    assert [(s.excitation, s.indices.tolist()) for s in sectors] == expected
    for sector in sectors:
        assert type(sector.excitation) is float
        np.testing.assert_array_equal(sector.matrix, a[np.ix_(sector.indices, sector.indices)])


@pytest.mark.parametrize("cutoff", [24, 60])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_relation_fits_match_dense_fit(n, cutoff):
    space = FockSpace(cutoff)
    a = coupling_operator(n, space)
    a_pow = {1: a, 2: a @ a}
    a_pow[3] = a_pow[2] @ a
    a_pow[5] = a_pow[3] @ a_pow[2]
    degrees = {s.excitation: _min_poly_degree_one_by_one(s.matrix)
               for s in sector_decompose(n, space)}
    reports = relation_fits(n, space, (3, 5))
    assert [r.target_power for r in reports] == [3, 5]
    for report in reports:
        power = report.target_power
        values, residual = fit_left_diagonal(a_pow[power], a_pow[power - 2])
        got = report.best_fit_values
        assert got.shape == values.shape
        np.testing.assert_array_equal(np.isnan(got), np.isnan(values))
        fitted = ~np.isnan(values)
        bound = 1e-12 * np.maximum(1.0, np.abs(values[fitted]))
        assert np.all(np.abs(got[fitted] - values[fitted]) <= bound)
        if n == 3:
            assert abs(report.relative_residual - residual) <= 1e-12 * residual
        else:
            assert report.relative_residual <= 1e-15
            assert residual <= 1e-15
        assert report.sector_min_poly_degrees == degrees


def _fit_row_by_row(target: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-row least-squares diagonal fit, one row at a time."""
    values = np.full(target.shape[0], np.nan)
    num = den = 0.0
    for row, (x, y) in enumerate(zip(basis, target)):
        xx = np.vdot(x, x).real
        if xx == 0.0:
            continue
        values[row] = np.vdot(x, y).real / xx
        num += float(np.sum(np.abs(y - values[row] * x) ** 2))
        den += float(np.sum(np.abs(y) ** 2))
    return values, float(np.sqrt(num / den)) if den > 0.0 else 0.0


def test_fit_left_diagonal_matches_row_by_row_fit():
    space = FockSpace(12, 3)
    rng = np.random.default_rng(21)
    dim = 4 * space.cutoff
    basis = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    basis[rng.random(dim) < 0.2] = 0.0  # unconstrained rows
    target = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    values, residual = fit_left_diagonal(
        CompositeOperator(4, space, target), CompositeOperator(4, space, basis)
    )
    keep = trusted_mask(4, space)
    trusted = np.ix_(keep, keep)
    ref_values, ref_residual = _fit_row_by_row(target[trusted], basis[trusted])
    ref_values = ref_values.reshape(4, space.trusted)
    np.testing.assert_array_equal(np.isnan(values), np.isnan(ref_values))
    assert np.isnan(values).any()
    fitted = ~np.isnan(ref_values)
    bound = 1e-13 * np.maximum(1.0, np.abs(ref_values[fitted]))
    assert np.all(np.abs(values[fitted] - ref_values[fitted]) <= bound)
    assert abs(residual - ref_residual) <= 1e-13 * ref_residual


def test_relation_fits_build_the_coupling_entries_once_and_no_dense_matrix(monkeypatch):
    built = []
    dense = []
    build = tcprop.oracle.coupling_entries
    init = CompositeOperator.__post_init__

    def recording_build(*args):
        built.append(args)
        return build(*args)

    def recording_init(self):
        dense.append(self.n_blocks)
        init(self)

    monkeypatch.setattr(tcprop.oracle, "coupling_entries", recording_build)
    monkeypatch.setattr(CompositeOperator, "__post_init__", recording_init)
    relation_fits(3, FockSpace(40), (3, 5))
    assert len(built) == 1
    assert dense == []


def _dense_blocks(mat: np.ndarray, split) -> list[np.ndarray]:
    """The blocks of a dense matrix on a split, gathered with fancy indexing."""
    return [mat[idx[:, :, None], idx[:, None, :]] for idx in split.groups]


@pytest.mark.parametrize("cutoff", [60, 140])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_entry_built_blocks_equal_the_dense_ones(n, cutoff):
    # the split and the blocks from the entry list match those of the dense
    # kron-built matrix bit for bit: coupling and detuned Hamiltonian
    space = FockSpace(cutoff)
    pairs = [
        (coupling_entries(n, space), coupling_operator(n, space).matrix),
        (hamiltonian_entries(n, space, 1.3, 0.7, -0.9),
         hamiltonian(n, space, 1.3, 0.7, -0.9).total.matrix),
    ]
    for entries, dense in pairs:
        rows, cols = np.nonzero(dense)
        split = block_split(2**n, space, entries)
        dense_split = block_split(2**n, space, Entries(rows, cols, dense[rows, cols]))
        assert len(split.groups) == len(dense_split.groups)
        for idx, dense_idx in zip(split.groups, dense_split.groups):
            np.testing.assert_array_equal(idx, dense_idx)
        assert max(idx.shape[1] for idx in split.groups) == 2**n
        gathered = split.gather(entries)
        assert gathered.outside.rows.size == 0
        for got, want in zip(gathered.blocks, _dense_blocks(dense, split)):
            np.testing.assert_array_equal(got, want)


def _assert_groups_ascend(groups, indices):
    # one group per block size, sizes strictly ascending, every index in exactly one block
    sizes = [idx.shape[1] for idx in groups]
    assert sizes == sorted(set(sizes))
    found = np.sort(np.concatenate([idx.ravel() for idx in groups]))
    np.testing.assert_array_equal(found, indices)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_split_groups_ascend_in_block_size(n):
    # _sectors, relation_fits and the zips over split.groups rely on this order
    space = FockSpace(24)
    entries = coupling_entries(n, space)
    dim = 2**n * space.cutoff
    split = block_split(2**n, space, entries)
    assert len(split.groups) == n + 1  # size 2**n, and n smaller sizes at the edges
    _assert_groups_ascend(split.groups, np.arange(dim))
    sectors = _sectors(n, split, entries)
    _assert_groups_ascend([idx for _, idx, _ in sectors],
                          np.flatnonzero(trusted_mask(2**n, space)))


def test_split_of_no_nonzero_entry_is_all_singletons():
    space = FockSpace(24)
    entries = coupling_entries(2, space)
    split = block_split(4, space, entries._replace(values=np.zeros_like(entries.values)))
    (group,) = split.groups
    assert group.shape == (4 * space.cutoff, 1)
    _assert_groups_ascend(split.groups, np.arange(4 * space.cutoff))


def test_split_of_no_index_has_no_groups():
    assert _blocks(np.arange(10), np.array([], dtype=np.intp)) == ()


@pytest.mark.parametrize("n", [1, 2])
def test_one_eigh_serves_every_scale(n):
    space = FockSpace(24)
    op = coupling_operator(n, space)
    scales = [0.0, 0.35, -2.0, 25.0, 1e3]
    batched = block_eigh(2**n, space, coupling_entries(n, space)).expm(scales)
    for i, scale in enumerate(scales):
        dense = CompositeOperator.from_entries(2**n, space, batched[i].entries())
        np.testing.assert_array_equal(dense.matrix, expm_hermitian(op, scale).matrix)


def test_block_eigh_refuses_non_hermitian_entries():
    space = FockSpace(8)
    rows, cols, values = annihilator_entries(space)
    with pytest.raises(ValueError, match="Hermitian"):
        block_eigh(1, space, Entries(rows, cols, values))


def test_worst_entries_of_the_difference_match_dense_compare():
    space = FockSpace(12, 3)
    entries = coupling_entries(1, space)
    oracle = block_eigh(2, space, entries)
    u = oracle.expm([0.9])[0]
    perturbed = CompositeOperator.from_entries(2, space, u.entries()).matrix.copy()
    perturbed[space.cutoff + 2, 1] += 1e-3  # block 1 photon 2, block 0 photon 1
    rows, cols = np.nonzero(perturbed)
    (report,) = worst_entries(oracle.split.gather(Entries(rows, cols, perturbed[rows, cols])) - u)
    reference = expm_hermitian(coupling_operator(1, space), 0.9)
    dense = compare(CompositeOperator(2, space, perturbed), reference)
    assert report == dense
    assert report.location == (1, 0, 2, 1)


def test_worst_entries_adds_entries_listed_at_one_position():
    space = FockSpace(12, 3)
    oracle = block_eigh(2, space, coupling_entries(1, space))
    u = oracle.expm([0.9])[0]
    dense = CompositeOperator.from_entries(2, space, u.entries()).matrix.copy()
    dense[space.cutoff + 2, 5] = 1e-3  # block 1 photon 2, block 0 photon 5: between sectors
    rows, cols = np.nonzero(dense)
    perturbed = oracle.split.gather(Entries(rows, cols, dense[rows, cols]))
    assert perturbed.outside.rows.tolist() == [space.cutoff + 2]
    # the outside entries of both operands sit at one position and cancel
    (same,) = worst_entries(perturbed - perturbed)
    assert same.max_abs_deviation == 0.0
    # listed twice, one entry counts twice
    (twice,) = worst_entries((u - perturbed) - (perturbed - u))
    assert twice.max_abs_deviation == pytest.approx(2e-3)
    assert twice.location == (1, 0, 2, 5)


@pytest.mark.parametrize("listed, total", [((1e16, 1.0, -1e16), 0.0), ((-1e16, 1e16, 1.0), 1.0)])
def test_entries_listed_at_one_position_add_in_listing_order(listed, total):
    # floating-point addition is not associative: each listing order has its own sum, and
    # every route that adds entries at one position must give that order's sum
    space = FockSpace(3, 1)
    split = BlockSplit(2, space, (np.array([[2], [3]]), np.array([[0, 4], [1, 5]])))
    values = np.array(listed)
    inside = Entries(np.zeros(3, int), np.full(3, 4), values)  # (0, 4): in one block
    between = Entries(np.ones(3, int), np.full(3, 2), values)  # (1, 2): between two blocks
    assert entry_deviation(inside) == total
    assert split.gather(inside).blocks[1][0, 0, 1] == total
    op = split.gather(between)
    assert op.outside.rows.size == 3
    key = 1 * 6 + 2  # row * dim + col
    for trusted in (True, False):
        magnitudes, keys = block_magnitudes(op, trusted)
        assert magnitudes[:, keys == key].tolist() == [[total]]
    # batched values add per batch index
    both = Entries(between.rows, between.cols, np.stack([values, values[::-1]]))
    magnitudes, keys = block_magnitudes(split.gather(both))
    assert magnitudes[:, keys == key].tolist() == [[total], [abs(sum(reversed(listed)))]]
