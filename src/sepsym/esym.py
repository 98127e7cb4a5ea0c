"""Elementary symmetric evaluations and the power-scaled index sets.

esym_all reads the values s_1(v), ..., s_n(v) off the coefficients of the
product prod_i (1 + v_i z), multiplied in one nonzero factor at a time:
s'_j = s_j + x s_{j-1}, with s_0 = 1. A step costs one field product and
one sum per value held, and the values grow with the nonzero entries seen,
so a vector costs O(n^2) operations at most and no divisions: exact in every
characteristic (Newton-style recurrences would divide by small integers
that vanish mod p). The orbit walk in sepsym.separating takes the same step
for a whole batch of orbits at once, one new factor per orbit.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from sepsym.errors import ParameterError
from sepsym.gf import FieldSpec, is_prime


def esym_all(v: Sequence[int], spec: FieldSpec) -> tuple[int, ...]:
    """The full value vector (s_1(v), ..., s_n(v)) over the field."""
    n = len(v)
    q = spec.q
    for x in v:
        if not 0 <= x < q:
            raise ParameterError(f"element index {x} outside [0, {q})")
    if n < 2:  # no product: s_1 = v_1, and the tables stay unbuilt
        return tuple(v)
    add_t, mul_t = spec.tables
    values = ()  # s_1, ..., s_m of the product of the m nonzero factors so far
    for x in v:
        if x:  # times (1 + x z): s'_j = s_j + x s_{j-1}, with s_0 = 1 and s_{m+1} = 0
            mx = mul_t[x]
            values = tuple([add_t[a][mx[b]] for a, b in zip((*values, 0), (1, *values))])
    return values + (0,) * (n - len(values))


def normalize_indices(indices: Iterable[int], n: int) -> tuple[int, ...]:
    """The distinct indices in ascending order, each checked to lie in [1, n]."""
    idx = tuple(sorted(set(indices)))
    for t in idx:
        if not 1 <= t <= n:
            raise ParameterError(f"index {t} outside [1, {n}]")
    return idx


def fingerprint(v: Sequence[int], indices: Iterable[int], spec: FieldSpec) -> tuple[int, ...]:
    """Evaluations (s_t(v) for t in indices), in ascending index order."""
    idx = normalize_indices(indices, len(v))
    values = esym_all(v, spec)
    return tuple(values[t - 1] for t in idx)


def index_set_nq(n: int, q: int, p: int) -> tuple[int, ...]:
    """The index set {j * p^m : 1 <= j < q, m >= 0, j * p^m <= n}, sorted.

    These are the degrees kept by the power-scaled separating family; for
    prime q = p the set is the classical {j * p^m : 1 <= j < p} one.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if not is_prime(p):
        raise ParameterError(f"p must be prime, got {p}")
    m = q
    while m > 1 and m % p == 0:
        m //= p
    if m != 1 or q < p:
        raise ParameterError(f"q = {q} is not a power of p = {p}")
    vals = set()
    for j in range(1, min(q, n + 1)):
        t = j
        while t <= n:
            vals.add(t)
            t *= p
    return tuple(sorted(vals))
