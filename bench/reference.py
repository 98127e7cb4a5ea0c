"""Reference computations for the checker, built apart from sepsym.

Nothing here imports sepsym. Field arithmetic comes from sympy's GF(p)
polynomial tools, the x0 gap from mpmath at 40 digits, and every count from
integer loops written afresh. Where sepsym uses one algorithm this module
prefers another (a prefix-sharing orbit walk instead of per-orbit
convolutions, integer square roots instead of squared comparisons), so a
shared mistake is unlikely.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath
from sympy import factorint
from sympy.polys import galoistools as gt
from sympy.polys.domains import ZZ

GAP_DPS = 40

# (alpha, beta, delta) per window, as tabulated in the paper.
KIND_TERMS = {
    "A": (0, 0, 1),
    "B": (0, -1, 1),
    "C": (-1, 0, 1),
    "D": (-1, 0, 2),
    "E": (-1, -1, 2),
}


# ---------------------------------------------------------------- counts --

def orbit_count(q: int, n: int) -> int:
    return math.comb(n + q - 1, q - 1)


def gamma(q: int, n: int) -> int:
    """Least k with q**k >= orbit_count(q, n), by an integer loop."""
    target = orbit_count(q, n)
    k, power = 0, 1
    while power < target:
        k, power = k + 1, power * q
    return k


def prime_power(q: int) -> tuple[int, int]:
    (p, k), = factorint(q).items()
    return p, k


def scaled_indices(n: int, q: int, p: int) -> tuple[int, ...]:
    """{j * p^m <= n : 1 <= j < q, m >= 0}, sorted."""
    out = set()
    for j in range(1, q):
        m = j
        while m <= n:
            out.add(m)
            m *= p
    return tuple(sorted(out))


# ----------------------------------------------------------------- field --

def _digits(a: int, p: int, k: int) -> list[int]:
    return [(a // p ** i) % p for i in range(k)]


def _poly(a: int, p: int, k: int) -> list:
    """Index -> sympy polynomial (high degree first) under sepsym's base-p encoding."""
    return gt.gf_strip([ZZ(c) for c in reversed(_digits(a, p, k))])


def _index(poly, p: int) -> int:
    return sum(int(c) * p ** i for i, c in enumerate(reversed(poly)))


class RefField:
    """F_q = F_p[y]/(m) with products taken by sympy's GF(p) polynomial arithmetic.

    Element indices use sepsym's public encoding (base-p digits are the
    coefficients of 1, y, ..., y^(k-1)), so results can be compared index by
    index when the modulus is the program's own, and through invariants when
    it is not. The modulus is given low degree first and must be monic and
    irreducible of degree k.
    """

    def __init__(self, p: int, k: int, modulus):
        self.p, self.k, self.q = p, k, p ** k
        self.modulus = tuple(modulus)
        self._mod = [ZZ(c) for c in reversed(self.modulus)]
        if (len(self.modulus) != k + 1 or self.modulus[-1] != 1
                or not gt.gf_irreducible_p(self._mod, p, ZZ)):
            raise ValueError(f"{self.modulus} is not a monic irreducible of degree {k} over F_{p}")
        q = self.q
        digits = [tuple(_digits(a, p, k)) for a in range(q)]
        index_of = {d: a for a, d in enumerate(digits)}
        self.add = [[index_of[tuple((x + y) % p for x, y in zip(da, db))] for db in digits]
                    for da in digits]
        # Products through the powers of a primitive element, each power a
        # sympy product reduced by the modulus.
        g = self._primitive()
        exp = [1]
        for _ in range(q - 2):
            exp.append(self.mul_poly(exp[-1], g))
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        exp2 = exp + exp
        self.mul = [[0] * q] + [[0] + [exp2[log[a] + log[b]] for b in range(1, q)]
                                for a in range(1, q)]

    def mul_poly(self, a: int, b: int) -> int:
        p, k = self.p, self.k
        prod = gt.gf_mul(_poly(a, p, k), _poly(b, p, k), p, ZZ)
        return _index(gt.gf_rem(prod, self._mod, p, ZZ), p)

    def add_poly(self, a: int, b: int) -> int:
        p, k = self.p, self.k
        return _index(gt.gf_add(_poly(a, p, k), _poly(b, p, k), p, ZZ), p)

    def _primitive(self) -> int:
        order = self.q - 1
        if order == 1:
            return 1
        primes = list(factorint(order))
        p, k = self.p, self.k
        for g in range(2, self.q):
            gp = _poly(g, p, k)
            if all(gt.gf_pow_mod(gp, order // r, self._mod, p, ZZ) != [ZZ(1)] for r in primes):
                return g
        raise ValueError("no primitive element; the modulus cannot be irreducible")

    def esym_poly(self, v) -> tuple[int, ...]:
        """(s_1, ..., s_n) of v from sympy arithmetic alone, with no tables."""
        coef = [1]
        for x in v:
            coef = coef + [0]
            for j in range(len(coef) - 1, 0, -1):
                coef[j] = self.add_poly(coef[j], self.mul_poly(x, coef[j - 1]))
        return tuple(coef[1:])


def other_modulus(p: int, k: int, avoid) -> tuple[int, ...]:
    """The irreducible of degree k that is largest in sepsym's base-p order, other than avoid.

    For k = 1 every x + c gives the same arithmetic, so the choice is only
    nominal. F_4 has a single irreducible, x^2 + x + 1; it gets avoid back.
    """
    for c in range(p ** k - 1, -1, -1):
        coeffs = tuple(_digits(c, p, k)) + (1,)
        if coeffs != tuple(avoid) and gt.gf_irreducible_p([ZZ(x) for x in reversed(coeffs)], p, ZZ):
            return coeffs
    return tuple(avoid)


@lru_cache(maxsize=None)
def ref_field(p: int, k: int, modulus: tuple[int, ...]) -> RefField:
    return RefField(p, k, modulus)


def orbit_values(field: RefField, n: int):
    """Yield (orbit, coefficients) for every weakly increasing length-n vector, in lex order.

    The coefficients are e_0 = 1, e_1, ..., e_n of prod (1 + v_i z), so
    coefficients[t] is s_t. Each step extends the longest shared prefix by
    one factor at a time. Both yielded lists are reused: copy what you keep.
    """
    q, add, mul = field.q, field.add, field.mul
    seq = [0] * n
    coefs = [[1] + [0] * d for d in range(n + 1)]
    while True:
        yield seq, coefs[n]
        i = n - 1
        while i >= 0 and seq[i] == q - 1:
            i -= 1
        if i < 0:
            return
        x = seq[i] + 1
        mx = mul[x]
        for d in range(i, n):
            seq[d] = x
            c = coefs[d]
            new = c + [0]
            for j in range(d + 1, 0, -1):
                new[j] = add[new[j]][mx[c[j - 1]]]
            coefs[d + 1] = new


def _projector(indices):
    idx = tuple(indices)
    return lambda coef: tuple(coef[t] for t in idx)


def separation(field: RefField, n: int, indices) -> tuple[int, int]:
    """(orbit count, distinct fingerprints) of the index set over every orbit."""
    project = _projector(indices)
    seen = set()
    total = 0
    for _, coef in orbit_values(field, n):
        seen.add(project(coef))
        total += 1
    return total, len(seen)


def first_collision(field: RefField, n: int, indices):
    """The first orbit, in lex order, whose fingerprint was met before, with that earlier orbit."""
    project = _projector(indices)
    first = {}
    for seq, coef in orbit_values(field, n):
        fp = project(coef)
        if fp in first:
            return first[fp], tuple(seq)
        first[fp] = tuple(seq)
    return None


def value_rows(field: RefField, n: int) -> list[tuple[int, ...]]:
    """(s_1, ..., s_n) for every orbit."""
    return [tuple(coef[1:]) for _, coef in orbit_values(field, n)]


def separates(rows, indices) -> bool:
    offsets = tuple(t - 1 for t in indices)
    seen = set()
    for row in rows:
        fp = tuple(row[o] for o in offsets)
        if fp in seen:
            return False
        seen.add(fp)
    return True


# ------------------------------------------------------------------- chi --

def criterion(q: int, n: int) -> bool:
    """q**(n-1) < binom(n+q-1, n), in integers."""
    return q ** (n - 1) < math.comb(n + q - 1, n)


def chi(q: int) -> int:
    n = 1
    while criterion(q, n + 1):
        n += 1
    return n


def root_is_integer(q: int, c: int) -> bool:
    """Whether the real root is exactly c + 1: q**c == binom(c+q, c+1)."""
    return q ** c == math.comb(c + q, c + 1)


def gap_signs(q: int, lo: float, hi: float) -> tuple[int, int]:
    """Signs of (x-1) ln q - ln prod_{i<q} (x/i + 1) at lo and hi, at GAP_DPS digits."""
    with mpmath.workdps(GAP_DPS):
        lq = mpmath.log(q)
        lgq = mpmath.loggamma(q)

        def sign(x):
            x = mpmath.mpf(x)
            g = (x - 1) * lq - (mpmath.loggamma(x + q) - mpmath.loggamma(x + 1) - lgq)
            return (g > 0) - (g < 0)

        return sign(lo), sign(hi)


@lru_cache(maxsize=None)
def _lnln_thresholds() -> tuple:
    """e**(e**k) for k = -1..5 at 50 digits; beyond k = 5 exceeds every q in use."""
    with mpmath.workdps(50):
        return tuple((k, mpmath.e ** (mpmath.e ** k)) for k in range(-1, 6))


def lnln_floor(q: int) -> int:
    """floor(ln ln q) for q >= 2, as the largest k with e**(e**k) <= q."""
    return max(k for k, t in _lnln_thresholds() if t <= q)


# --------------------------------------------------------------- ternary --

def ternary_defects(n_lo: int, n_hi: int) -> list[int]:
    """delta3(n) for n in [n_lo, n_hi]: #{3^m, 2*3^m <= n} minus gamma(3, n)."""
    marks = []
    m = 1
    while m <= n_hi:
        marks += [m, 2 * m]
        m *= 3
    marks.sort()
    out = []
    size = 0
    k, power = 0, 1
    for n in range(n_lo, n_hi + 1):
        while size < len(marks) and marks[size] <= n:
            size += 1
        orbits = (n + 2) * (n + 1) // 2
        while power < orbits:
            k, power = k + 1, power * 3
        out.append(size - k)
    return out


def _ceil_sqrt(d: int) -> int:
    return math.isqrt(d - 1) + 1


@lru_cache(maxsize=None)
def window_starts(r: int) -> tuple[int, int, int, int]:
    """Least integers n >= b_{2r}, a_{2r+1}, 2 a_{2r}, b_{2r+1}, where b_s = (sqrt(8*3^s+1)-3)/2."""
    def b_start(s):
        return (_ceil_sqrt(8 * 3 ** s + 1) - 2) // 2
    return (b_start(2 * r), _ceil_sqrt(3 ** (2 * r + 1)), 2 * 3 ** r, b_start(2 * r + 1))


def ternary_class(n: int) -> tuple[int, str]:
    """(r, kind) for n >= 9, with 3^r <= n < 3^(r+1)."""
    r = 0
    while 3 ** (r + 1) <= n:
        r += 1
    kind = "E"
    for name, start in zip("ABCD", window_starts(r)):
        if n < start:
            kind = name
            break
    return r, kind


def ternary_predicted(n: int) -> int:
    return 0 if n <= 8 else sum(KIND_TERMS[ternary_class(n)[1]])
