"""Output checks that do not use the code under test.

Every reference here is built from plain numpy (``np.kron`` and
``np.linalg.eigh``); nothing is imported from ``tcprop``, so a later change
to its oracle cannot grade itself.

Evolve tolerance: a CSV cell may differ from the reference by at most
``EVOLVE_TOL_PER_TG * (1 + |t g|) * max(1, |reference|)``.  Round-off in
both routes grows with the phase t g (measured about eps * t g * <N> with
eps = 2.2e-16, i.e. 6e-13 at t g = 200 with <N> = 20), so 1e-12 per unit of
t g leaves a margin of several hundred over what is inherent.
"""

from __future__ import annotations

import csv
import io
import math
import re
from functools import lru_cache

import numpy as np

EVOLVE_TOL_PER_TG = 1e-12
RELATION_FIT_MAX = 1e-10  # residual for 1 and 2 atoms: a relation exists
RELATION_NOFIT_MIN = 1e-6  # residual for 3 atoms: no relation of this shape
# verify prints one PASS/FAIL line per check: 12 checks for one atom
# (4 algebraic, key relation, 2 oracle, 2 Gauss, Schroedinger, unitarity,
# group law) and 16 for two (4 algebraic, 2 key relations, 2 oracle,
# 5 reduction, Schroedinger, unitarity, group law).
VERIFY_CHECKS = {1: 12, 2: 16}


def _labels(n: int) -> list[str]:
    return ["".join("g" if (k >> (n - 1 - b)) & 1 else "e" for b in range(n)) for k in range(2**n)]


def _s3(n: int) -> np.ndarray:
    """Collective S_3 eigenvalue per atomic basis index (excited state first)."""
    return np.array([sum(0.5 if ch == "e" else -0.5 for ch in lab) for lab in _labels(n)])


@lru_cache(maxsize=None)
def _coupling(n: int, cutoff: int) -> np.ndarray:
    """S_plus kron a + S_minus kron a+, atom 1 the slowest tensor factor."""
    a = np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), k=1).astype(complex)
    raise_one = np.array([[0, 1], [0, 0]], dtype=complex)
    s_plus = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n):
        op = np.eye(1, dtype=complex)
        for slot in range(n):
            op = np.kron(op, raise_one if slot == i else np.eye(2, dtype=complex))
        s_plus += op
    return np.kron(s_plus, a) + np.kron(s_plus.conj().T, a.conj().T)


@lru_cache(maxsize=None)
def _coupling_eigh(n: int, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    return np.linalg.eigh(_coupling(n, cutoff))


def _initial_state(p: dict) -> np.ndarray:
    n, c = p["atoms"], p["cutoff"]
    if p["kind"] == "fock":
        field = np.zeros(c, dtype=complex)
        field[p["level"]] = 1.0
    else:
        alpha = complex(*p["alpha"])
        m = np.arange(c)
        log_mag = m * math.log(abs(alpha)) - np.array([math.lgamma(k + 1) for k in m]) / 2
        field = np.exp(log_mag - abs(alpha) ** 2 / 2) * np.exp(1j * m * np.angle(alpha))
        field /= np.linalg.norm(field)
    state = np.zeros(2**n * c, dtype=complex)
    k = _labels(n).index(p["atomic"])
    state[k * c : (k + 1) * c] = field
    return state


def check_evolve(p: dict, stdout: str) -> str | None:
    """Compare every CSV row against exp(-i t H) psi0 from numpy's eigh.

    H = omega (S_3 kron 1 + 1 kron N) + g A at resonance; the first term
    commutes with A, so exp(-i t H) is the exact diagonal phase of the
    excitation number times exp(-i t g A) from one eigh of A per (atoms,
    cutoff).
    """
    n, c = p["atoms"], p["cutoff"]
    rows = list(csv.reader(io.StringIO(stdout)))
    header = ["t", *[f"P_{lab}" for lab in _labels(n)], "mean_photon", "norm"]
    if not rows or rows[0] != header:
        return f"bad CSV header {rows[0] if rows else None!r}"
    rows = rows[1:]
    if len(rows) != p["steps"] + 1:
        return f"{len(rows)} CSV rows, expected {p['steps'] + 1}"
    lam, vecs = _coupling_eigh(n, c)
    coeffs = vecs.conj().T @ _initial_state(p)
    excitation = (_s3(n)[:, None] + np.arange(c)[None, :]).ravel()
    m = np.arange(c)
    t0, t1, steps, g, omega = p["t0"], p["t1"], p["steps"], p["g"], p["omega"]
    for i, row in enumerate(rows):
        t = t0 + (t1 - t0) * i / steps
        psi = np.exp(-1j * omega * t * excitation) * (vecs @ (np.exp(-1j * g * t * lam) * coeffs))
        probs = np.abs(psi.reshape(2**n, c)) ** 2
        ref = [t, *probs.sum(axis=1), float((probs * m).sum()), math.sqrt(probs.sum())]
        try:
            got = [float(x) for x in row]
        except ValueError:
            return f"row {i}: non-numeric cell in {row!r}"
        if len(got) != len(ref):
            return f"row {i}: {len(got)} columns, expected {len(ref)}"
        scale = EVOLVE_TOL_PER_TG * (1 + abs(t * g))
        for col, (x, y) in enumerate(zip(got, ref)):
            if not abs(x - y) <= scale * max(1.0, abs(y)):
                return f"row {i} column {header[col]}: {x!r} vs reference {float(y)!r} (t g = {t * g:.3g})"
    return None


def check_verify(p: dict, stdout: str) -> str | None:
    lines = stdout.splitlines()
    results = [ln for ln in lines if ln.startswith(("PASS ", "FAIL "))]
    failed = [ln for ln in results if not ln.startswith("PASS ")]
    if failed:
        return f"check failed: {failed[0]!r}"
    expected = VERIFY_CHECKS[p["atoms"]]
    if len(results) != expected:
        return f"{len(results)} checks reported, expected {expected}"
    if not lines or lines[-1] != f"all {expected} checks passed":
        return f"bad summary line {lines[-1] if lines else None!r}"
    return None


_DEVIATION_RE = re.compile(r"product vs closed form deviation (\S+) \(tol (\S+)\)")


def check_decompose(p: dict, stdout: str) -> str | None:
    match = _DEVIATION_RE.search(stdout)
    if match is None:
        return "no product deviation line"
    dev = float(match.group(1))
    if not dev <= p["tol"]:
        return f"product deviation {dev:.3e} exceeds tol {p['tol']:.3e}"
    return None


@lru_cache(maxsize=None)
def sector_degree_histogram(n: int, cutoff: int, guard: int) -> dict[int, int]:
    """Minimal-polynomial degree -> number of excitation sectors on the trusted band.

    The degree of a Hermitian block is its number of distinct eigenvalues,
    clustered at 1e-8 times the spectral norm (a zero block has degree 1).
    """
    trusted = cutoff - guard
    coupling = _coupling(n, cutoff)
    sectors: dict[float, list[int]] = {}
    for k, s3 in enumerate(_s3(n)):
        for m in range(trusted):
            sectors.setdefault(s3 + m, []).append(k * cutoff + m)
    histo: dict[int, int] = {}
    for idx in sectors.values():
        evals = np.linalg.eigvalsh(coupling[np.ix_(idx, idx)])
        norm = float(np.abs(evals).max())
        degree = 1 if norm == 0.0 else 1 + int(np.sum(np.diff(evals) > 1e-8 * norm))
        histo[degree] = histo.get(degree, 0) + 1
    return histo


_RESIDUAL_RE = re.compile(r"^relative residual (\S+)$", re.M)
_HISTO_RE = re.compile(r"sector minimal-polynomial degrees: (.*)$", re.M)


def check_relation_search(p: dict, stdout: str) -> str | None:
    residuals = [float(x) for x in _RESIDUAL_RE.findall(stdout)]
    if len(residuals) != 2:
        return f"{len(residuals)} residual lines, expected 2 (powers 3 and 5)"
    for res in residuals:
        if p["atoms"] < 3 and not res < RELATION_FIT_MAX:
            return f"residual {res:.3e} not below {RELATION_FIT_MAX:.0e} for {p['atoms']} atoms"
        if p["atoms"] == 3 and not res > RELATION_NOFIT_MIN:
            return f"residual {res:.3e} not above {RELATION_NOFIT_MIN:.0e} for 3 atoms"
    want = sector_degree_histogram(p["atoms"], p["cutoff"], p["guard"])
    want_text = ", ".join(f"degree {d}: {c} sectors" for d, c in sorted(want.items()))
    found = _HISTO_RE.findall(stdout)
    if len(found) != 2:
        return f"{len(found)} sector histogram lines, expected 2"
    for got in found:
        if got != want_text:
            return f"sector histogram {got!r}, expected {want_text!r}"
    return None


def check_refusal(p: dict, stdout: str, stderr: str) -> str | None:
    if stdout:
        return f"refused request wrote to stdout: {stdout[:80]!r}"
    if p["phrase"] not in stderr:
        return f"refusal message {stderr.strip()[:120]!r} lacks {p['phrase']!r}"
    return None


_CHECKS = {
    "evolve": check_evolve,
    "verify": check_verify,
    "decompose": check_decompose,
    "relation-search": check_relation_search,
}


def check(label: str, params: dict, expect_rc: int, rc, stdout: str, stderr: str,
          error: str | None) -> str | None:
    """None if the request ended as expected, else the reason it did not."""
    if error is not None:
        return f"raised instead of returning: {error.strip().splitlines()[-1]}"
    if rc != expect_rc:
        return f"exit code {rc!r}, expected {expect_rc} ({stderr.strip()[:120]!r})"
    if label.startswith("refuse/"):
        return check_refusal(params, stdout, stderr)
    return _CHECKS[label.split("/", 1)[0]](params, stdout)
