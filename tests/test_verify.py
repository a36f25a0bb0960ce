"""Contract of the verify check suite: which checks run, and that their bounds catch faults."""

import numpy as np
import pytest

from tcprop import FockSpace, SpectralTable, closed_form_table, excitation, verify
from tcprop.cli import main
from tcprop.verify import gauss_deviations, run_checks

SPACE = FockSpace(24, 4)
FAST = ["--cutoff", "24", "--guard", "4"]
EPS = np.finfo(float).eps

ALGEBRAIC = ["su2-relations", "coupling-pattern", "coupling-hermitian", "excitation-commutes"]
CHECKS = {
    1: [
        *ALGEBRAIC,
        "key-relation-squared",
        "closed-vs-oracle",
        "full-vs-oracle",
        "gauss-product",
        "gauss-variants",
        "schrodinger-residual-ratio",
        "unitarity",
        "group-law",
    ],
    2: [
        *ALGEBRAIC,
        "key-relation-squared",
        "key-relation-cubed",
        "closed-vs-oracle",
        "full-vs-oracle",
        "reduction-orthogonal",
        "reduction-blockdiag",
        "spin1-pattern",
        "reduction-reconstruction",
        "two-atom-block-identities",
        "schrodinger-residual-ratio",
        "unitarity",
        "group-law",
    ],
    3: ALGEBRAIC,
}
THREE_ATOM_NOTE = "no closed-form propagator exists for three atoms; propagator checks skipped"


def _by_name(n: int, space: FockSpace = SPACE) -> dict:
    return {res.name: res for res in run_checks(n, space, 1e-9)[0]}


@pytest.mark.parametrize("n, count", [(1, 12), (2, 16), (3, 4)])
def test_check_names_order_and_count(n, count):
    results, notes = run_checks(n, SPACE, 1e-9)
    assert [res.name for res in results] == CHECKS[n]
    assert len(results) == count
    assert all(res.passed for res in results)
    assert notes == ([THREE_ATOM_NOTE] if n == 3 else [])


def _perturbed_table(n, space, t, g):
    """The closed form with its first term's coefficients shifted by 1e-6."""
    table = closed_form_table(n, space, t, g)
    (row, col, k, coef), *rest = table.terms
    return SpectralTable(table.n_blocks, space, ((row, col, k, coef + 1e-6), *rest))


@pytest.mark.parametrize("n", [1, 2])
def test_perturbed_closed_form_fails_its_checks(monkeypatch, capsys, n):
    monkeypatch.setattr(verify, "closed_form_table", _perturbed_table)
    failed = {name for name, res in _by_name(n).items() if not res.passed}
    assert {"closed-vs-oracle", "unitarity", "group-law"} <= failed
    assert main(["verify", "--atoms", str(n), *FAST]) == 1
    out = capsys.readouterr().out
    for name in ("closed-vs-oracle", "unitarity", "group-law"):
        assert f"FAIL {name} " in out


def test_cubic_diagonal_shifted_one_level_fails(monkeypatch):
    # E + 1 turns D = 2(2E + 1) into the diagonal of the next photon level
    monkeypatch.setattr(verify, "excitation", lambda n, space: excitation(n, space) + 1)
    failed = [name for name, res in _by_name(2).items() if not res.passed]
    assert failed == ["key-relation-cubed"]


@pytest.mark.parametrize("n", [1, 2])
def test_key_relation_bound_is_four_ulps_of_the_reference(n):
    results = _by_name(n)
    # the largest trusted entry of A^2 is 2 * 20 for two atoms, 20 for one
    assert results["key-relation-squared"].tol == 4 * EPS * 20 * n
    if n == 2:
        # the largest trusted entry of D A is 2(2*18 + 3) * sqrt(19) on row (ee, 18)
        assert results["key-relation-cubed"].tol == pytest.approx(4 * EPS * 78 * np.sqrt(19))
        assert results["key-relation-cubed"].tol < 1e-12


def test_key_relations_pass_at_cutoff_200():
    results = _by_name(2, FockSpace(200))
    for name in ("key-relation-squared", "key-relation-cubed"):
        assert results[name].passed, results[name]
    assert results["key-relation-cubed"].tol > 1e-12


def test_gauss_checks_report_gauss_deviations():
    results = _by_name(1)
    product, variant = gauss_deviations(SPACE, 0.3, 1.0)
    assert results["gauss-product"].deviation == product
    assert results["gauss-variants"].deviation == variant
