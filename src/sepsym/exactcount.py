"""Exact integer counting: orbit counts, floor logs, gamma, set sizes, the defect.

Every comparison of logarithms here is phrased as a comparison of integer
powers, so exact-power boundary cases are decided correctly. No floating
point is used anywhere in this module.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from sepsym.errors import ParameterError
from sepsym.esym import index_set_nq


def orbit_count(q: int, n: int) -> int:
    """Number of multiset orbits on F_q^n: binom(n+q-1, q-1)."""
    if q < 2:
        raise ParameterError(f"q must be >= 2, got {q}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    return math.comb(n + q - 1, q - 1)


def floor_log(base: int, m: int) -> int:
    """Largest k with base**k <= m, exactly."""
    if base < 2:
        raise ParameterError(f"base must be >= 2, got {base}")
    if m < 1:
        raise ParameterError(f"floor_log is defined for m >= 1, got {m}")
    k = 0
    power = base
    while power <= m:
        k += 1
        power *= base
    return k


def gamma(q: int, n: int) -> int:
    """Least conceivable separating-set size: smallest k with q**k >= orbit_count(q, n).

    A set of k index functions yields at most q**k distinct fingerprints, so
    fewer than gamma of them can never tell all orbits apart.
    """
    m = orbit_count(q, n)
    k = 0
    power = 1
    while power < m:
        power *= q
        k += 1
    return k


def size_sq(q: int, p: int, n: int) -> int:
    """Cardinality of the power-scaled index set behind the q-adapted family."""
    return len(index_set_nq(n, q, p))


def delta3_range(n_min: int, n_max: int):
    """The defects delta3(n) for n = n_min, ..., n_max, in order, as one upward sweep.

    Works from the definitions only, with O(1) amortised work per n: a
    pointer into index_set_nq(n_max, 3, 3) counts the scaled indices <= n,
    the orbit count binom(n+2, 2) grows by n+1 at each step, and
    power = 3**k is multiplied by 3 while it is below the orbit count, so
    k = gamma(3, n). An empty range yields nothing.
    """
    if n_min < 2:
        raise ParameterError(f"the defect is defined for n >= 2, got {n_min}")
    return _delta3_sweep(n_min, n_max)


def _delta3_sweep(n_min: int, n_max: int):
    indices = index_set_nq(max(n_min, n_max), 3, 3)
    size = bisect_right(indices, n_min - 1)
    last = len(indices)
    orbits = orbit_count(3, n_min - 1)
    k, power = 0, 1
    for n in range(n_min, n_max + 1):
        orbits += n + 1
        while power < orbits:
            power *= 3
            k += 1
        if size < last and indices[size] <= n:
            size += 1
        d = size - k
        if d < 0:
            raise RuntimeError(f"negative defect at n={n}: set size fell below gamma")
        yield d


def delta3(n: int) -> int:
    """Defect of the ternary family: size_sq(3, 3, n) - gamma(3, n), exact."""
    return next(delta3_range(n, n))


def least_possible_criterion(q: int, n: int) -> bool:
    """Exact truth of q**(n-1) < binom(n+q-1, n).

    Holds exactly when n index functions are few enough to be forced by the
    counting bound alone, making the full degree set {1..n} as small as any
    separating set can be.
    """
    if q < 2:
        raise ParameterError(f"q must be >= 2, got {q}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    return q ** (n - 1) < math.comb(n + q - 1, n)
