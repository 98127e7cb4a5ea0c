"""Shared constants and independent oracles for the test suite."""

import itertools
import math

import mpmath

from sepsym.chi import TOL, _gap
from sepsym.esym import esym_all
from sepsym.exactcount import least_possible_criterion

# q -> largest n for brute-force orbit work; each cell stays well under a
# second on commodity hardware.
BRUTE_GRID = {2: 16, 3: 12, 4: 9, 5: 8, 7: 6, 8: 5, 9: 5}

GRID_CELLS = [(q, n) for q, top in sorted(BRUTE_GRID.items())
              for n in range(1, top + 1)]


MP_GAP_DPS = 40


def mp_gap(q):
    """x -> (x-1)*ln(q) - sum_{i<q} ln(x/i + 1) in mpmath at MP_GAP_DPS digits.

    The sum is lgamma(x+q) - lgamma(x+1) - lgamma(q), the cancelling form;
    at 40 digits it still leaves an error below 1e-20 for q <= 10^15. A
    float x is taken exactly. Both the constants and each evaluation take
    their own precision, whatever the caller has set.
    """
    with mpmath.workdps(MP_GAP_DPS):
        ln_q, lg_q = mpmath.log(q), mpmath.loggamma(q)

    def gap(x):
        with mpmath.workdps(MP_GAP_DPS):
            x = mpmath.mpf(x)
            return (x - 1) * ln_q - (mpmath.loggamma(x + q) - mpmath.loggamma(x + 1) - lg_q)
    return gap


def scan_chi(q):
    """chi_exact(q) by an upward scan from n = 1: the criterion holds exactly for n < x_0."""
    n = 1
    while least_possible_criterion(q, n + 1):
        n += 1
    return n


def bisect_cell(gap, c):
    """The cell [lo, hi] that bisecting [c, c+1] on gap's sign ends in, width below TOL/2."""
    lo, hi = float(c), float(c + 1)
    while hi - lo > TOL / 2:
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def bisect_bracket(q, c):
    """The reference x0_bracket(q) for c == chi_exact(q), by 31 bisection steps.

    Bisects on sepsym's float gap, moves each end TOL/4 outward, keeps an
    integer root c+1 strictly inside and clamps the rest to [c, c+1].
    """
    lo, hi = bisect_cell(_gap(q), c)
    lo, hi = lo - TOL / 4, hi + TOL / 4
    if q ** c == math.comb(c + q, c + 1):
        return (lo, hi, True)
    return (max(lo, float(c)), min(hi, float(c + 1)), False)


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


def naive_rows(spec, n):
    """(rep, value vector) of every orbit, rebuilt from scratch, in lexicographic order."""
    return [(rep, esym_all(rep, spec))
            for rep in itertools.combinations_with_replacement(range(spec.q), n)]


def naive_check(spec, n, T, rows=None):
    """(separates, witness, orbit_count, fingerprint_count) by one scan for T.

    The scan reads rows, as naive_rows makes them, or makes them afresh; the
    witness is the first repeated fingerprint in lexicographic order.
    """
    idx = sorted(set(T))
    seen = {}
    witness = None
    total = 0
    for rep, values in naive_rows(spec, n) if rows is None else rows:
        fp = tuple(values[t - 1] for t in idx)
        if fp in seen:
            witness = witness or (seen[fp], rep)
        else:
            seen[fp] = rep
        total += 1
    return len(seen) == total, witness, total, len(seen)


def lucas_check(n, T):
    """naive_check at q = 2 by Lucas' theorem, with no field arithmetic.

    The orbit with w ones, (0, ..., 0, 1, ..., 1), has s_t = binom(w, t) mod 2
    = [t & w == t], so T separates iff w -> ([t & w == t] for t in T) is
    injective on [0, n]. The witness pairs the least weight whose vector
    repeats with the first weight that has that vector.
    """
    idx = sorted(set(T))
    first, witness = {}, None
    for w in range(n + 1):
        w0 = first.setdefault(tuple([t & w == t for t in idx]), w)
        if witness is None and w0 != w:
            witness = tuple((0,) * (n - v) + (1,) * v for v in (w0, w))
    return witness is None, witness, n + 1, len(first)


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


def naive_defect(q, n):
    """#{j * p**m <= n : 1 <= j < q} - gamma(q, n) for a prime power q = p**e.

    From a set and a plain comb loop: gamma(q, n) is the number of powers
    of q below binom(n+q-1, q-1).
    """
    p = next(f for f in range(2, q + 1) if q % f == 0)
    orbits = math.comb(n + q - 1, q - 1)
    powers = [1]
    while powers[-1] < orbits:
        powers.append(q * powers[-1])
    scaled = set()
    for j in range(1, q):
        t = j
        while t <= n:
            scaled.add(t)
            t *= p
    return len(scaled) - (len(powers) - 1)
