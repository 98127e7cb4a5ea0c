"""Exact integer counting: orbit counts, floor logs, gamma, set sizes, the defect.

Every comparison of logarithms here is phrased as a comparison of integer
powers, so exact-power boundary cases are decided correctly. No floating
point is used anywhere in this module.
"""

from __future__ import annotations

import heapq
import math

from sepsym.errors import ParameterError
from sepsym.esym import index_set_nq
from sepsym.gf import prime_power


def orbit_count(q: int, n: int) -> int:
    """Number of multiset orbits on F_q^n: binom(n+q-1, q-1)."""
    if q < 2:
        raise ParameterError(f"q must be >= 2, got {q}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    return math.comb(n + q - 1, q - 1)


def floor_log(base: int, m: int) -> int:
    """Largest k with base**k <= m, exactly.

    2**(L-1) <= m < 2**L for L = m.bit_length(), so (L-1) / log2(base) is at
    most one below the answer; exact comparisons of powers settle it, the
    first loop only when rounding of log2(base) put the estimate one above.
    """
    if base < 2:
        raise ParameterError(f"base must be >= 2, got {base}")
    if m < 1:
        raise ParameterError(f"floor_log is defined for m >= 1, got {m}")
    k = int((m.bit_length() - 1) / math.log2(base))
    power = base ** k
    while power > m:
        k -= 1
        power //= base
    power *= base
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
    """Cardinality of the power-scaled index set behind the q-adapted family.

    Each member of index_set_nq(n, q, p) is j * p**m for exactly one j < q
    that p does not divide, so the set has floor_log(p, n // j) + 1 members
    for each such j <= n.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    index_set_nq(1, q, p)  # checks that q is a power of the prime p
    return sum(floor_log(p, n // j) + 1 for j in range(1, min(q, n + 1)) if j % p)


def _certified_edge(t: int, q: int, power: int) -> int:
    """t, after checking that it is the least n with orbit_count(q, n) > power."""
    if math.comb(t + q - 1, q - 1) <= power or math.comb(t + q - 2, q - 1) > power:
        raise RuntimeError(f"gamma edge {t} for q={q} is not the least n with more than "
                           f"{power} orbits")
    return t


def _iroot(m: int, e: int) -> int:
    """floor(m ** (1/e)) for m >= 1, e >= 1, by Newton's method on integers, from above."""
    x = 1 << -(-m.bit_length() // e)
    while True:
        y = ((e - 1) * x + m // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def _gamma_edge(q: int, power: int) -> int:
    """The least n with orbit_count(q, n) > power, by exact bisection.

    The orbit count is prod_{i<q} (n+i) / (q-1)!, and that product lies
    between (n+1)**(q-1) and (n+q/2)**(q-1), so the edge lies in
    (r - q/2, r] for r = floor(((q-1)! * power) ** (1/(q-1))). The bisection
    runs on (max(r - q, 0), r], and the end it reaches is certified.
    """
    r = _iroot(math.factorial(q - 1) * power, q - 1)
    lo, hi = max(r - q, 0), r
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if math.comb(mid + q - 1, q - 1) > power:
            hi = mid
        else:
            lo = mid
    return _certified_edge(hi, q, power)


def defect_runs(q: int, n_min: int, n_max: int):
    """The defect size_sq(q, p, n) - gamma(q, n) over [n_min, n_max] as runs (n_lo, n_hi, delta).

    q = p**e is any prime power. The runs are maximal, in order, and cover
    the range; an empty range yields nothing. Both terms are step functions
    of n. The size steps up by one at each scaled index j * p**m (p does not
    divide j < q), and those edges come lazily from a heap with one entry
    per j. gamma steps up at the least n with binom(n+q-1, q-1) > q**k, where
    k is its current value. That edge is searched for only when the orbit
    count at n_max shows that it lies in the range; it is found by exact
    bisection on math.comb inside an integer-root bracket of width q, and
    certified at t and t - 1. The work grows with the number of runs, not
    with the length of the range.
    """
    pk = prime_power(q)
    if pk is None:
        raise ParameterError(f"q must be a prime power, got {q}")
    if n_min < 2:
        raise ParameterError(f"the defect is defined for n >= 2, got {n_min}")
    return _defect_runs(q, pk[0], n_min, n_max)


def _defect_runs(q: int, p: int, n_min: int, n_max: int):
    if n_min > n_max:
        return
    size, heap = 0, []
    for j in range(1, q):
        if j % p:
            m = floor_log(p, n_min // j) + 1 if j <= n_min else 0
            size += m
            heap.append(j * p ** m)
    heapq.heapify(heap)
    k = gamma(q, n_min)
    power = q ** k
    top = orbit_count(q, n_max)

    def next_edge():
        return _gamma_edge(q, power) if top > power else n_max + 1

    edge = next_edge()
    lo, delta = n_min, size - k
    while True:
        if delta < 0:
            raise RuntimeError(f"negative defect at n={lo}: set size fell below gamma")
        t = min(heap[0], edge)
        if t > n_max:
            yield lo, n_max, delta
            return
        if heap[0] == t:  # the j * p**m are distinct
            heapq.heapreplace(heap, t * p)
            size += 1
        if edge == t:
            k += 1
            power *= q
            edge = next_edge()
        if size - k != delta:
            yield lo, t - 1, delta
            lo, delta = t, size - k


def delta3(n: int) -> int:
    """Defect of the ternary family: size_sq(3, 3, n) - gamma(3, n), exact."""
    if n < 2:
        raise ParameterError(f"the defect is defined for n >= 2, got {n}")
    d = size_sq(3, 3, n) - gamma(3, n)
    if d < 0:
        raise RuntimeError(f"negative defect at n={n}: set size fell below gamma")
    return d


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
