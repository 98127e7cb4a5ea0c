"""Arithmetic in small finite fields F_q with q = p^k.

Elements travel as integer indices in [0, q). The index encodes the
coefficient vector (c_0, ..., c_{k-1}) of the element in the power basis
1, z, ..., z^{k-1}, packed in base p as sum(c_i * p^i). Index 0 is the
additive identity and index 1 the multiplicative identity, for every field.

The reduction modulus is the lexicographically smallest monic irreducible
polynomial of degree k over F_p, where candidates are ordered by their
low-degree-first coefficient vector read as a base-p integer.

Every field has one representation: a q x q addition table and a q x q
multiplication table, both built the first time a sum or product is asked
for (FieldSpec.tables). Making a field, enumerating orbits and any walk at
n = 1 never build them. Products and inverses come from the discrete logs
of one generator g of the units (FieldSpec.logs; Lidl & Niederreiter,
Finite Fields), sums digit by digit from the table of F_p. The orbit
walk's step tables are its own (separating._steps), built from these.

Rows are lists up to q = TABLE_MAX_ORDER and array('H') above it; the two
tables of F_1024 take about 4.4 MB. The discrete logs are lists at every
order.

prime_power is the one prime-power and primality decision, cached so that a
command factors q once; an order above MAX_ORDER is refused before that.
"""

from __future__ import annotations

from array import array
from functools import cached_property, lru_cache, partial
from math import isqrt
from operator import itemgetter

from sepsym.errors import ParameterError, ScaleError

MAX_ORDER = 1024
# The largest order whose table rows are lists, which index fastest: their
# entries are CPython's shared small ints (up to 256), so a list row costs 8
# bytes per entry. Above it each entry would be an int object of its own, and
# array('H') rows hold 2 bytes per entry.
TABLE_MAX_ORDER = 256


@lru_cache(maxsize=256)
def prime_power(q: int):
    """(p, k) with q == p**k and p prime, or None; p is prime iff prime_power(p) == (p, 1)."""
    if q < 2:
        return None
    p = next((f for f in range(2, isqrt(q) + 1) if q % f == 0), q)  # least prime factor
    k, m = 0, q
    while m % p == 0:
        m //= p
        k += 1
    return (p, k) if m == 1 else None


def _digits(value: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        value, r = divmod(value, p)
        out.append(r)
    return out


def _poly_rem(f, g, p):
    """Remainder of f by monic g over F_p (coefficient lists, low degree first)."""
    r = list(f)
    dg = len(g) - 1
    for deg in range(len(r) - 1, dg - 1, -1):
        c = r[deg]
        if c:
            off = deg - dg
            for t in range(dg + 1):
                if g[t]:
                    r[off + t] = (r[off + t] - c * g[t]) % p
    return r[:dg]


def _is_irreducible(coeffs, p, k):
    """No monic factor of degree 1..k//2, by exhaustive trial division."""
    for d in range(1, k // 2 + 1):
        for c in range(p ** d):
            g = _digits(c, p, d) + [1]
            if not any(_poly_rem(coeffs, g, p)):
                return False
    return True


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    for c in range(p ** k):
        coeffs = _digits(c, p, k) + [1]
        if _is_irreducible(coeffs, p, k):
            return tuple(coeffs)
    raise RuntimeError(f"no irreducible polynomial of degree {k} over F_{p}")


class FieldSpec:
    """A finite field F_q set up for brute-force scans.

    The index encoding and the modulus are fixed at construction. The
    addition and multiplication tables are built the first time a sum or
    product is asked for, and cached on the instance (see tables). Instances
    are safe to share between concurrent consumers: two threads that ask at
    once may both build the tables, and either result is the same.
    Use make_field or field_for_order to obtain one.
    """

    def __init__(self, p: int, k: int, modulus):
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = tuple(modulus)

    def __repr__(self):
        return f"FieldSpec(q={self.q}, p={self.p}, k={self.k})"

    def _check(self, a):
        if not 0 <= a < self.q:
            raise ParameterError(f"element index {a} outside [0, {self.q})")

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self.tables[0][a][b]

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self.tables[1][a][b]

    @cached_property
    def tables(self):
        """(add_rows, mul_rows): add_rows[a][b] is the index of a + b, mul_rows[a][b] of a * b."""
        p, q = self.p, self.q
        as_row = list if q <= TABLE_MAX_ORDER else partial(array, "H")
        # Sums digit by digit, from F_p up. With a = lo + m * hi (lo < m = p^j,
        # hi < p), row a of the next table is row lo of this one shifted by
        # m * ((hi + h) % p) in its block h = 0, ..., p - 1: one slice of the
        # shifted blocks of row lo, laid out twice.
        base = list(range(p))
        add_rows = [as_row(base[a:] + base[:a]) for a in range(p)]
        m = p
        for _ in range(self.k - 1):
            rows = [None] * (m * p)
            for lo, r in enumerate(add_rows):
                blocks = [x + m * h for h in range(p) for x in r] * 2
                for hi in range(p):
                    rows[lo + m * hi] = as_row(blocks[m * hi:m * (hi + p)])
            add_rows = rows
            m *= p
        # Products through exp/log: row a lists g^(log a + log b) for b > 0,
        # after the 0 that serves b = 0
        exp, log = self.logs
        exp2 = exp + exp
        gather = itemgetter(0, *[1 + i for i in log[1:]])
        mul_rows = [as_row([0] * q)]
        mul_rows += [as_row(gather([0, *exp2[log[a]:log[a] + q - 1]])) for a in range(1, q)]
        return add_rows, mul_rows

    @cached_property
    def logs(self):
        """(exp, log), exp[i] = g^i and log[g^i] = i, g the first unit that generates all q - 1."""
        q = self.q
        for g in range(1, q):
            exp = [1]
            x = g
            while x != 1 and len(exp) < q:
                exp.append(x)
                x = self._mul_poly(x, g)
            if x == 1 and len(exp) == q - 1:
                break
        else:
            raise RuntimeError("multiplicative group is not cyclic; modulus is reducible")
        log = [0] * q
        for i, x in enumerate(exp):
            log[x] = i
        return exp, log

    def _mul_poly(self, a: int, b: int) -> int:
        """a * b by polynomial multiplication and reduction; used only to walk a generator."""
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(_digits(a, p, k)):
            for j, bj in enumerate(_digits(b, p, k)):
                prod[i + j] = (prod[i + j] + ai * bj) % p
        return sum(c * p ** i for i, c in enumerate(_poly_rem(prod, self.modulus, p)))


@lru_cache(maxsize=None)
def _build_field(p: int, k: int) -> FieldSpec:
    return FieldSpec(p, k, _smallest_irreducible(p, k))


def make_field(p: int, k: int) -> FieldSpec:
    """Construct F_{p^k} with the lexicographically smallest monic irreducible modulus.

    Repeated calls with the same (p, k) return the same cached, immutable
    instance. Checked in order: ParameterError for p < 2 or k < 1, ScaleError
    when p**k exceeds MAX_ORDER (not computed when 2**k does), and only then
    is p factored, ParameterError if it is not prime.
    """
    if p < 2:
        raise ParameterError(f"p must be prime, got {p}")
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if k >= MAX_ORDER.bit_length() or p ** k > MAX_ORDER:
        raise ScaleError(f"field order {p}^{k} exceeds the bound {MAX_ORDER}")
    if prime_power(p) != (p, 1):
        raise ParameterError(f"p must be prime, got {p}")
    return _build_field(p, k)


def field_for_order(q: int) -> FieldSpec:
    """make_field for a prime power given as a single order q, bounded before it is factored."""
    if q > MAX_ORDER:
        raise ScaleError(f"field order {q} exceeds the bound {MAX_ORDER}")
    pk = prime_power(q)
    if pk is None:
        raise ParameterError(f"{q} is not a prime power")
    return _build_field(*pk)
