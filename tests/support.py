"""Shared constants and independent oracles for the test suite."""

import itertools
import math

from sepsym.esym import esym_all

# q -> largest n for brute-force orbit work; each cell stays well under a
# second on commodity hardware.
BRUTE_GRID = {2: 16, 3: 12, 4: 9, 5: 8, 7: 6, 8: 5, 9: 5}

GRID_CELLS = [(q, n) for q, top in sorted(BRUTE_GRID.items())
              for n in range(1, top + 1)]


def brute_esym(v, spec):
    """Reference s_t values summed term by term over t-subsets."""
    n = len(v)
    out = []
    for t in range(1, n + 1):
        acc = 0
        for comb in itertools.combinations(range(n), t):
            term = 1
            for i in comb:
                term = spec.mul(term, v[i])
            acc = spec.add(acc, term)
        out.append(acc)
    return tuple(out)


def naive_check(spec, n, T):
    """(separates, witness, orbit_count, fingerprint_count) by one fresh scan for T.

    Every orbit is rebuilt from scratch and its value vector recomputed; the
    witness is the first repeated fingerprint in lexicographic order.
    """
    idx = sorted(set(T))
    seen = {}
    witness = None
    total = 0
    for rep in itertools.combinations_with_replacement(range(spec.q), n):
        values = esym_all(rep, spec)
        fp = tuple(values[t - 1] for t in idx)
        if fp in seen:
            witness = witness or (seen[fp], rep)
        else:
            seen[fp] = rep
        total += 1
    return len(seen) == total, witness, total, len(seen)


def naive_min_size(spec, n):
    """Smallest separating subset, trying every subset from size gamma up, in order.

    No smaller set can separate: q**k fingerprints cannot tell apart more
    than q**k orbits.
    """
    orbits = math.comb(n + spec.q - 1, n)
    k0 = next(k for k in range(n + 1) if spec.q ** k >= orbits)
    for k in range(k0, n + 1):
        for T in itertools.combinations(range(1, n + 1), k):
            if naive_check(spec, n, T)[0]:
                return k, T


def naive_redundant(spec, n, T):
    """The indices of T whose removal leaves a separating set."""
    idx = sorted(set(T))
    return [t for t in idx if naive_check(spec, n, [u for u in idx if u != t])[0]]


def pfree_part(t, p):
    while t % p == 0:
        t //= p
    return t


def scaled_index_member(t, n, q, p):
    """Whether t belongs to {j * p**m <= n : 1 <= j < q}."""
    return 1 <= t <= n and pfree_part(t, p) < q


def poly_mul_mod_p(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def all_monic_polys(p, degree):
    for tail in itertools.product(range(p), repeat=degree):
        yield list(tail) + [1]


def is_irreducible_by_products(coeffs, p):
    """Reducibility decided by trying every factor pair of monic products."""
    k = len(coeffs) - 1
    for d in range(1, k // 2 + 1):
        for f in all_monic_polys(p, d):
            for g in all_monic_polys(p, k - d):
                if poly_mul_mod_p(f, g, p) == list(coeffs):
                    return False
    return True


def interval_alpha(n):
    """Even/odd index of the half-power interval containing n, by scanning."""
    i = 0
    while 3 ** (i + 1) <= n * n:
        i += 1
    return 0 if i % 2 == 0 else -1


def interval_beta(n):
    """Position of n against b_r inside its half-power interval, by scanning."""
    r = 0
    while 3 ** (r + 1) <= n * n:
        r += 1
    below_b = (2 * n + 3) ** 2 < 8 * 3 ** r + 1
    return 0 if below_b else -1
