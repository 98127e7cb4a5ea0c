"""Exact integer counting: orbit counts, floor logs, gamma, set sizes, the defect.

Every comparison of logarithms here is phrased as a comparison of integer
powers, so exact-power boundary cases are decided correctly. No floating
point is used anywhere in this module.
"""

from __future__ import annotations

import bisect
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
    fewer than gamma of them can never tell all orbits apart. The count is at
    least q, so q**(k-1) <= count - 1 < q**k.
    """
    return floor_log(q, orbit_count(q, n) - 1) + 1


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


def certified_least(t: int, holds, what: str) -> int:
    """t, after checking that it is the least integer n at which holds(n) is true.

    holds must be nondecreasing in n, so two exact tests certify t: holds(t)
    is true and holds(t - 1) false. An estimate that fails either raises
    RuntimeError naming the threshold, what.
    """
    if not holds(t) or holds(t - 1):
        raise RuntimeError(f"{what}: {t} is not the least integer where it holds")
    return t


def common_runs(a, b):
    """(lo, hi, *a_values, *b_values) on the union of the breakpoints of two run lists.

    Each run is (lo, hi, *values), both iterators cover the same range, and
    the runs come lazily, in order.
    """
    x, y = next(a, None), next(b, None)
    while x and y:
        lo, hi = max(x[0], y[0]), min(x[1], y[1])
        yield lo, hi, *x[2:], *y[2:]
        if x[1] == hi:
            x = next(a, None)
        if y[1] == hi:
            y = next(b, None)


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
    runs on (max(r - q, 0), r], and the n it ends at is certified.
    """
    def count(n):
        return math.comb(n + q - 1, q - 1)

    r = _iroot(math.factorial(q - 1) * power, q - 1)
    rest = range(max(r - q, 0) + 1, r + 1)
    t = rest.start + bisect.bisect_right(rest, power, key=count)
    return certified_least(t, lambda n: count(n) > power, f"gamma edge for q={q}")


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
    """Defect of the ternary family: size_sq(3, 3, n) - gamma(3, n), the one run of defect_runs."""
    return next(defect_runs(3, n, n))[2]


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
