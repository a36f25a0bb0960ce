"""Truncated single-mode Fock space and its operator calculus.

The annihilator comes as a list of its nonzero entries, the field factor of
the entry-built coupling and Hamiltonian; closed forms and check references
are coefficient rows over the levels, of the f(N) a^k terms of a
:class:`tcprop.propagator.Layout`.  Only :func:`spectral_fn` builds a
dense matrix, the diagonal f(N).  Row and column indices are photon
numbers, so the annihilator has entries ``a[m-1, m] = sqrt(m)``.

Truncation corrupts operator products near the top of the ladder (the
canonical commutator picks up a rank-one artifact at the last level), so a
guard band of top levels is excluded from all comparisons.  The trusted
subspace is span{|0>, ..., |cutoff-1-guard>}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "FockSpace",
    "default_guard",
    "annihilator_entries",
    "spectral_fn",
    "cosz",
    "sincz",
]


def default_guard(cutoff: int) -> int:
    """Guard-band width used when none is given.

    max(4, ceil(cutoff/8)), clamped so at least two levels stay trusted.
    """
    return min(cutoff - 2, max(4, -(-cutoff // 8)))


@dataclass(frozen=True)
class FockSpace:
    """Bosonic Hilbert space truncated to levels |0> .. |cutoff-1>.

    ``guard`` top levels are excluded from trusted comparisons; ``None``
    selects :func:`default_guard`.
    """

    cutoff: int
    guard: int | None = None

    def __post_init__(self):
        if not isinstance(self.cutoff, (int, np.integer)) or self.cutoff < 2:
            raise ValueError(f"cutoff must be an integer >= 2, got {self.cutoff!r}")
        if self.guard is None:
            object.__setattr__(self, "guard", default_guard(self.cutoff))
        if not isinstance(self.guard, (int, np.integer)) or not 0 <= self.guard <= self.cutoff - 2:
            raise ValueError(
                f"guard must satisfy 0 <= guard <= cutoff-2, got guard={self.guard!r} "
                f"with cutoff={self.cutoff}"
            )

    @property
    def trusted(self) -> int:
        """Number of trusted levels; the trusted subspace is |0> .. |trusted-1>."""
        return self.cutoff - self.guard


def annihilator_entries(space: FockSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero entries of the annihilator as (rows, cols, values): sqrt(m) at (m-1, m)."""
    m = np.arange(1, space.cutoff)
    return m - 1, m, np.sqrt(m).astype(complex)


def spectral_fn(space: FockSpace, f: Callable[[int], complex]) -> np.ndarray:
    """Diagonal operator f(N) with entries f(0), ..., f(cutoff-1)."""
    values = np.empty(space.cutoff, dtype=complex)
    for m in range(space.cutoff):
        try:
            values[m] = complex(f(m))
        except Exception as exc:
            raise ValueError(f"spectral function evaluation failed at level m={m}") from exc
    return np.diag(values)


def _root(x) -> np.ndarray:
    """sqrt(x) for x >= 0 (-0.0 included); a negative argument is refused."""
    x = np.asarray(x, dtype=float)
    if (x < 0.0).any():
        raise ValueError("cosz and sincz take arguments x >= 0")
    return np.sqrt(x)


def cosz(x):
    """Entire function cos(sqrt(x)), power series sum_k (-x)^k / (2k)!, for x >= 0.

    Every closed form passes (t g)^2 d with a branch d >= 0 (the lowest
    two-atom branch is clamped at 0), so a negative argument, where the
    series grows exponentially, is refused with ``ValueError``.  Accepts
    scalars or arrays; NaN propagates.
    """
    return np.cos(_root(x))[()]  # [()] gives a scalar for a scalar x, as in sincz


def sincz(x):
    """Entire function sin(sqrt(x))/sqrt(x), power series sum_k (-x)^k / (2k+1)!, for x >= 0.

    Evaluates to 1 at x = 0 and refuses x < 0, as :func:`cosz` does.
    Accepts scalars or arrays; NaN propagates.
    """
    r = _root(x)
    return np.divide(np.sin(r), r, out=np.ones_like(r), where=r != 0.0)[()]
