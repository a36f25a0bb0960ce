"""Fock-space operators and the entire functions cosz/sincz.

Reference values come from two independent routes: a 30-term power series
summed with math.fsum (converges fast for small arguments), and mpmath at
50 digits for the accuracy sweep.  Neither route touches the package
implementation.
"""

import math

import mpmath
import numpy as np
import pytest

from tcprop import (
    FockSpace,
    annihilator_entries,
    cosz,
    default_guard,
    sincz,
    spectral_fn,
)


def series_cosz(x: float, terms: int = 30) -> float:
    return math.fsum((-x) ** k / math.factorial(2 * k) for k in range(terms))


def series_sincz(x: float, terms: int = 30) -> float:
    return math.fsum((-x) ** k / math.factorial(2 * k + 1) for k in range(terms))


@pytest.mark.parametrize("x", [0.0, 1e-8, 0.3, 2.0, 9.5])
def test_against_series_oracle(x):
    assert cosz(x) == pytest.approx(series_cosz(x), rel=1e-13, abs=1e-15)
    assert sincz(x) == pytest.approx(series_sincz(x), rel=1e-13, abs=1e-15)


def test_sincz_special_values():
    assert sincz(0.0) == 1.0
    # sin(pi)/pi = 0 at x = pi^2
    assert abs(sincz(math.pi**2)) <= 1e-15


def _accuracy_grid():
    return np.logspace(-6, 4, 40)


def test_accuracy_against_mpmath():
    # <= 1e-13 relative error over |x| <= 1e4; points near zeros of cos/sin
    # are judged relative to unit scale instead, since no double-precision
    # routine can do better there
    with mpmath.workdps(50):
        for x in _accuracy_grid():
            if abs(x) > 1e4:
                continue
            root = mpmath.sqrt(abs(x))
            ref_c, ref_s = mpmath.cos(root), mpmath.sin(root) / root
            for got, ref in ((cosz(x), ref_c), (sincz(x), ref_s)):
                err = abs(mpmath.mpf(got) - ref)
                assert err <= 1e-13 * max(1.0, abs(ref)), f"x={x}: err={err}"


def test_pythagoras_identity():
    # cosz^2 + x sincz^2 = 1, absolute for x >= 0
    for x in _accuracy_grid():
        lhs = cosz(x) ** 2 + x * sincz(x) ** 2
        assert abs(lhs - 1.0) <= 1e-12, f"x={x}"


def test_array_evaluation_matches_scalars():
    xs = np.array([0.0, 0.5, 7.0])
    np.testing.assert_array_equal(cosz(xs), [cosz(v) for v in xs])
    np.testing.assert_array_equal(sincz(xs), [sincz(v) for v in xs])


@pytest.mark.parametrize("fn", [cosz, sincz])
@pytest.mark.parametrize("x", [-1e-300, -0.3, -9.5, np.array([0.5, -2.0, 7.0]),
                               np.array([[0.0, 1.0], [2.0, -np.inf]])])
def test_negative_arguments_are_refused(fn, x):
    with pytest.raises(ValueError, match="x >= 0"):
        fn(x)


def test_negative_zero_is_zero():
    assert cosz(-0.0) == 1.0 and sincz(-0.0) == 1.0
    xs = np.array([-0.0, 0.0, 0.5])
    np.testing.assert_array_equal(cosz(xs), cosz(np.abs(xs)))
    np.testing.assert_array_equal(sincz(xs), sincz(np.abs(xs)))


def test_nan_propagates():
    # r != 0 holds for NaN, so sincz divides there and keeps the NaN, as cosz does
    assert math.isnan(cosz(math.nan)) and math.isnan(sincz(math.nan))
    got = sincz(np.array([math.nan, 4.0, 0.0]))
    assert math.isnan(got[0]) and got[1] == sincz(4.0) and got[2] == 1.0
    assert math.isnan(cosz(np.array([math.nan, 4.0]))[0])


def _ladder(space: FockSpace) -> np.ndarray:
    """The annihilator as a dense matrix, scattered from its entry list."""
    a = np.zeros((space.cutoff, space.cutoff), dtype=complex)
    rows, cols, values = annihilator_entries(space)
    a[rows, cols] = values
    return a


def test_ladder_entries():
    space = FockSpace(8, 2)
    a = _ladder(space)
    assert a[0, 1] == 1.0
    assert a[4, 5] == np.sqrt(5.0)
    # only the first superdiagonal is populated
    assert np.count_nonzero(a) == 7
    rows, cols, values = annihilator_entries(space)
    np.testing.assert_array_equal(rows, cols - 1)
    np.testing.assert_array_equal(values, np.sqrt(cols).astype(complex))


def test_number_matches_creator_annihilator():
    # agreement is up to the ulp lost squaring sqrt(m), not bitwise
    space = FockSpace(20, 4)
    a = _ladder(space)
    prod = a.conj().T @ a
    np.testing.assert_allclose(prod, np.diag(np.arange(space.cutoff, dtype=complex)), atol=1e-13)
    assert np.count_nonzero(prod - np.diag(np.diag(prod))) == 0


def test_commutator_truncation_artifact():
    # [a, a+] = 1 everywhere except the top level, which reads -(cutoff-1)
    space = FockSpace(12, 3)
    a = _ladder(space)
    ad = a.conj().T
    comm = a @ ad - ad @ a
    expected = np.eye(space.cutoff, dtype=complex)
    expected[-1, -1] = -(space.cutoff - 1)
    np.testing.assert_allclose(comm, expected, atol=1e-13)
    assert comm[-1, -1].real < -10.0  # the artifact really is O(cutoff)


def test_shifting_identity():
    # a f(N) = f(N+1) a and f(N) a+ = a+ f(N+1), exact even under truncation
    space = FockSpace(16, 4)
    a = _ladder(space)
    ad = a.conj().T

    def f(m):
        return 1.0 / (1.0 + m) + 0.25j * m

    fn = spectral_fn(space, f)
    fn_up = spectral_fn(space, lambda m: f(m + 1))
    np.testing.assert_array_equal(a @ fn, fn_up @ a)
    np.testing.assert_array_equal(fn @ ad, ad @ fn_up)


def test_spectral_fn_diagonal():
    space = FockSpace(6, 2)
    mat = spectral_fn(space, lambda m: m * m + 1j)
    np.testing.assert_array_equal(np.diag(mat), [m * m + 1j for m in range(6)])
    assert np.count_nonzero(mat - np.diag(np.diag(mat))) == 0


def test_spectral_fn_error_names_level():
    space = FockSpace(6, 2)

    def bad(m):
        if m == 3:
            raise ArithmeticError("boom")
        return 1.0

    with pytest.raises(ValueError, match="m=3"):
        spectral_fn(space, bad)


def test_space_validation():
    with pytest.raises(ValueError):
        FockSpace(1)
    with pytest.raises(ValueError):
        FockSpace(10, -1)
    with pytest.raises(ValueError):
        FockSpace(10, 9)
    assert FockSpace(10, 8).trusted == 2


def test_default_guard_policy():
    assert default_guard(60) == 8
    assert default_guard(40) == 5
    assert default_guard(16) == 4
    # clamped so two levels stay trusted
    assert default_guard(5) == 3
    assert FockSpace(60).guard == 8
    assert FockSpace(60).trusted == 52
