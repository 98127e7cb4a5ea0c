"""Decide whether index sets of elementary symmetric functions separate orbits.

A set of indices T separates when the fingerprint map, sending an orbit
representative to its tuple of s_t values, is injective over all orbits.
Verdicts are exhaustive: every orbit is accounted for, none is assumed.

The walk, _orbit_batches: a sorted representative is (0, ..., 0, M), M its
k nonzero entries, so lexicographic order is k ascending, then M in
lexicographic order. Level k is built from level k - 1 (Knuth, TAOCP 4A,
7.2.1.3) by prepending the least entry: y = 1, ..., q - 1 goes before each
part M' whose first entry is >= y, a suffix of the level (its first entries
ascend), found by one bisection; y ascending, then M', is lexicographic
order again. Child y has s'_t = s_t + y s_{t-1} (s_0 = 1), from the
parent's values and the field's tables. For q * q <= 256 (q <= 16) a level
is one bytes block, a row (1, s_1, ..., s_k, 0, ..., 0) of n + 1 bytes per
part, and the children by y of a whole suffix are one step: read as an int
a, a + (q a << 8) holds s_t + q s_{t-1} in byte t, never carrying since
every byte is < q, and bytes.translate with _steps(spec)[y] maps it to
s_t + y s_{t-1}. For q >= 17 a level is a list per value, s'_t of a whole
suffix one comprehension for each y and t. A form gives only its step, its
column read and its join; fingerprints are read by columns, or by rows from
a block with no more parts than |T|. A level below n is kept until the next
is built. Level n has two routes: unsliced it streams one y at a time, each
y's suffix grown alone; under a slice it is solved, as below.

The slice, a result of this package rather than of the paper: let t0 = min
T, g = gcd(t0, q - 1), H the t0-th powers of the units, which are the g-th
powers, of order h = (q - 1) / g, and R = {gen**j : j < g}, gen the
generator of FieldSpec.logs, one unit of each coset of H. Each s_t is
homogeneous of degree t, so v -> lambda v maps orbits to orbits and
multiplies s_t by lambda**t. Two distinct orbits that collide on T share
s_t0 = c, and when c != 0 some lambda moves c into R, keeping the pair
distinct and colliding. So T separates iff no two orbits with s_t0 in S =
{0} + R collide, and the orbits, and the fingerprints, number their count
at s_t0 = 0 plus h times their count at s_t0 in R. The walk only streams
the slice's fingerprints, whose first entry is s_t0; check_separating
rebuilds both counts from them by that rule and checks the orbit count
against binom(n+q-1, q-1). At level n a part has at most |S| children in
it, y = (c - s_t0) / s_{t0-1} with 1 <= y <= its first entry, or, if
s_{t0-1} = 0, every y <= its first entry or none; both are solved for all
parts at once by the same list arithmetic. For g = 1 the slice is
s_t0 in {0, 1}; for h = 1 (q = 2, T empty, or (q - 1) | t0) it is every
orbit, kept whole.

check_separating counts the stream in chunks, holding only the distinct
fingerprints. A negative verdict's witness, the first collision in
lexicographic order, comes from a walk over every orbit, paired with
enumerate_orbits to name them; a negative count without one is a
RuntimeError.

For n >= 1 no T without 1 separates: the zero orbit and (0, ..., 0, 1) agree
on every s_t with t >= 2. So _separates_on_slice answers False for such a T
without a scan, and decides the rest on the slice of t0 = 1 alone (s_1 in
{0, 1}, h = q - 1; every orbit when q = 2), scanned up to the first
collision in one kept sliced walk, _slices, checked by the same rule. Each
verdict scanned there is kept beside the rows and decides by inclusion: a
pair colliding on F collides on every T inside F, and a T holding a
separating S separates (minsep --q 8 --n 5 scans 4 sets, not 10).
min_separating_size tries only the supersets of the indices that
check_minimal's drop-one scan finds essential in {1..n}; minsep walks once.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from sepsym.errors import NotSeparatingError, ScaleError
# esym_all is unused here; the benchmark's layer tracer patches it where it is looked up
from sepsym.esym import esym_all, normalize_indices  # noqa: F401
from sepsym.exactcount import gamma, orbit_count
from sepsym.gf import FieldSpec
from sepsym.orbits import enumerate_orbits

MAX_SUBSET_SEARCH_N = 16
# A bound on orbit_count(q, n) x |T| (x n for the walk that _slices keeps):
# the fingerprints a check may store, counted for every orbit. It does not
# count the walk's level n - 1, held whole while level n streams: 1 byte per
# value for q <= 16, a list entry per value above.
MAX_STORE_CELLS = 16_000_000


class SeparationVerdict(NamedTuple):
    separating: bool
    witness: tuple | None
    orbit_count: int
    fingerprint_count: int


def _gate(spec: FieldSpec, n: int, indices: Iterable[int], kept=False) -> tuple[int, ...]:
    """The sorted indices, checked after n and the orbit bound, then orbits x |T| (x n if kept)."""
    enumerate_orbits(spec, n)
    idx = normalize_indices(indices, n)
    total, width = orbit_count(spec.q, n), n if kept else len(idx)
    if total * width > MAX_STORE_CELLS:
        raise ScaleError(f"{total} orbits x {width} indices exceed the fingerprint store "
                         f"bound of {MAX_STORE_CELLS} entries")
    return idx


@lru_cache(maxsize=16)
def _steps(spec: FieldSpec) -> tuple[bytes, ...]:
    """For q * q <= 256, the walk's bytes.translate tables: [y][a + q * b] indexes a + y * b.

    Built from the field's tables on the first walk that needs them, and kept.
    """
    add_rows, mul_rows = spec.tables
    return tuple(b"".join([bytes(add_rows[x]) for x in mul_rows[y]]).ljust(256, b"\0")
                 for y in range(spec.q))


def _orbit_batches(spec: FieldSpec, n: int, idx: tuple[int, ...], cs=()
                   ) -> Iterator[Iterable[tuple[int, ...]]]:
    """Stream the fingerprints (s_t for t in idx) of the orbits with s_t0 in cs, t0 = idx[0].

    Without cs, every orbit in lexicographic order: the zero orbit, each level
    below n, then level n by its least entry y. The caller counts, and checks
    its inputs first (_gate).
    """
    q, t0, w = spec.q, idx[0] if cs else 0, n + 1
    if n == 1:  # no product: s_1 is the orbit itself, and no table is built
        yield [(x,) * len(idx) for x in range(q) if not cs or x in cs]
        return
    add_t, mul_t = spec.tables

    def spans(firsts):
        # (y, i) for y = 1, ..., firsts[-1]: y goes before the parts from the i-th on
        return enumerate(map(bisect_left, itertools.repeat(firsts), range(1, firsts[-1] + 1)), 1)

    if q * q <= 256:
        # a level is one bytes block, row j the part's (1, s_1, ..., s_k, 0, ..., 0)
        step = _steps(spec)

        def child(block, y, i):
            # the rows of the children by y of the parts from the i-th on: byte t
            # of a + (q a << 8) is s_t + q s_{t-1} <= q * q - 1, which step[y]
            # maps to s_t + y s_{t-1}; byte 0 of a row reads s_n of the row
            # before, 0, so s_0 stays 1. A block is stepped only below level n,
            # where it ends in s_n = 0, so the sum fits in its length (to_bytes
            # raises, and never wraps, if it did not).
            size = len(block) - i * w
            a = int.from_bytes(block[i * w:], "little")
            return (a + (q * a << 8)).to_bytes(size, "little").translate(step[y])

        def col(block, t):  # s_t of every part, s_0 = 1 and s_t = 0 past the level
            return block[t::w]

        def grow(block, starts):
            return b"".join([child(block, y, i) for y, i in starts])

        level = b"".join([bytes((1, x)) + bytes(n - 1) for x in range(1, q)])
    else:
        # a level is a list of columns [None, s_1, ..., s_k], s_t the s_t of every part
        def column(s, t, y, i):
            # s'_t = s_t + y s_{t-1} of the children by y of the parts from the i-th on
            my = mul_t[y]
            if t == 1:
                plus_y = add_t[y]
                return [plus_y[a] for a in s[1][i:]]
            if t == len(s):
                return [my[b] for b in s[t - 1][i:]]
            return [add_t[a][my[b]] for a, b in zip(s[t][i:], s[t - 1][i:])]

        def col(s, t):  # s_t of every part, s_0 = 1 and s_t = 0 past the level
            return s[t] if 0 < t < len(s) else [int(t == 0)] * len(s[1])

        def grow(s, starts):  # s holds s_1, ..., s_k, and the next level one more
            return [None, *[list(itertools.chain.from_iterable(
                column(s, t, y, i) for y, i in starts)) for t in range(1, len(s) + 1)]]

        level = [None, list(range(1, q))]

    get = itemgetter(*idx) if len(idx) > 1 else None

    def fingerprints(level, m):  # by columns, or by rows for a thin bytes block
        if get is not None and m <= len(idx) and isinstance(level, bytes):
            return [get(level[j:j + w]) for j in range(0, len(level), w)]
        return zip(*[col(level, t) for t in idx]) if idx else itertools.repeat((), m)

    yield [(0,) * len(idx)]  # the zero orbit, whose s_t0 = 0 is in cs
    # level k: firsts, the least entry of each nonzero part of length k,
    # ascending, and level, the parts' values in one of the two forms above
    firsts = list(range(1, q))
    in_cs = frozenset(cs).__contains__
    for k in range(1, n):
        if k > 1:
            starts = list(spans(firsts))
            firsts = list(itertools.chain.from_iterable(
                itertools.repeat(y, len(firsts) - i) for y, i in starts))
            level = grow(level, starts)
        fps = fingerprints(level, len(firsts))
        # for t0 > k, s_t0 = 0 is in cs
        yield itertools.compress(fps, map(in_cs, col(level, t0))) if 0 < t0 <= k else fps
    # level n computes the values of idx
    m = len(firsts)
    if not cs:  # every child of every part, y ascending
        for y, i in spans(firsts):
            yield fingerprints(grow(level, ((y, i),)), m - i)
        return
    # under a slice: a part's child y has s'_t0 = e + y d, with e = s_t0 and
    # d = s_{t0-1}
    cols = {t: col(level, t) for t in {*idx, *[t - 1 for t in idx]}}
    d, e = cols[t0 - 1], cols[t0]

    def solved(sel, my):  # the fingerprints of the child of part sel[r] by my[r] = mul_t[y]
        picked = {t: [c_t[j] for j in sel] for t, c_t in cols.items()}
        return zip(*[[add_t[a][r[b]] for a, b, r in zip(picked[t], picked[t - 1], my)]
                     for t in idx])

    if t0 > 1:  # where d = 0 every child y <= first has s'_t0 = e: all or none
        zero = [j for j in range(m) if not d[j] and in_cs(e[j])]
        yield solved([j for j in zero for _ in range(firsts[j])],
                     [mul_t[y] for j in zero for y in range(1, firsts[j] + 1)])
        exp, log = spec.logs
        inv = [0, *[exp[-i % (q - 1)] for i in log[1:]]]  # 1/0 read as 0
        over = [mul_t[inv[x]] for x in d]
    neg = mul_t[spec.p - 1]  # -1 is the index p - 1
    for c in cs:  # the one child y = (c - e) / d, if d != 0 and 1 <= y <= first
        minus = [add_t[c][x] for x in neg]  # minus[e] = c - e
        ys = [o[minus[x]] for o, x in zip(over, e)] if t0 > 1 else [minus[x] for x in e]
        sel = [j for j, y, f in zip(range(m), ys, firsts) if 0 < y <= f]
        yield solved(sel, [mul_t[ys[j]] for j in sel])


def _projector(idx: tuple[int, ...]):
    """Map a value vector to its fingerprint, a tuple, on the sorted index set idx."""
    if len(idx) < 2:
        return lambda values: tuple([values[t - 1] for t in idx])
    return itemgetter(*[t - 1 for t in idx])


def _separates(rows: Iterable, project) -> bool:
    """Whether project gives every row its own fingerprint; stops at the first collision."""
    seen = set()
    for fp in map(project, rows):
        if fp in seen:
            return False
        seen.add(fp)
    return True


def _slice_set(spec: FieldSpec, t0: int) -> tuple[tuple[int, ...], int]:
    """(cs, h): the values of s_t0 in the slice of min T = t0 (see the module docstring), and h.

    cs is () for every orbit, when H = {1}: t0 = 0 (T empty), q = 2 or (q - 1) | t0;
    R = {gen**j : j < g} is {1}, with no logs, when g = 1.
    """
    g = math.gcd(t0, spec.q - 1)
    h = (spec.q - 1) // g
    return () if h == 1 else (0, 1) if g == 1 else (0, *spec.logs[0][:g]), h


def _rebuilt(fps, h: int) -> int:
    """The orbits that the slice's rows fps stand for, s_t0 being each row's first entry.

    s_t0 = 0 stands for one orbit, a unit s_t0 for h; with h = 1 the rows may be empty tuples.
    """
    zero = list(map(itemgetter(0), fps)).count(0) if h > 1 else 0
    return zero + h * (len(fps) - zero)


def _orbit_total(spec: FieldSpec, n: int, total: int) -> int:
    """total, the orbits rebuilt from a slice; RuntimeError unless it is binom(n+q-1, q-1)."""
    if total != orbit_count(spec.q, n):
        raise RuntimeError(f"the slice rebuilds {total} orbits, not {orbit_count(spec.q, n)}")
    return total


@lru_cache(maxsize=1)
def _slices(spec: FieldSpec, n: int) -> tuple[list[tuple[int, ...]], list, list]:
    """(rows, failed, separating): the slice of min T = 1 and the sets scanned on it.

    rows, the value vectors (s_1, ..., s_n) of the slice in walk order, come
    from one sliced walk checked to rebuild the orbit count. failed and
    separating hold, as frozensets, each T that _separates_on_slice scanned on
    rows; they decide every T inside a failed one or holding a separating one.
    All three are kept, one cache entry, until a call for another field or n.
    """
    cs, h = _slice_set(spec, 1)
    rows = list(itertools.chain.from_iterable(_orbit_batches(spec, n, tuple(range(1, n + 1)), cs)))
    _orbit_total(spec, n, _rebuilt(rows, h))
    return rows, [], []


def _separates_on_slice(spec: FieldSpec, n: int, T: tuple[int, ...]) -> bool:
    """Whether the sorted set T separates, scanned on the slice of min T = 1.

    A T without 1 does not separate, and is not scanned: the zero orbit and
    (0, ..., 0, 1) agree on every s_t with t >= 2. Nor is a T that a kept
    verdict decides (see _slices); any other T is scanned, its verdict kept.
    """
    if T[:1] != (1,):
        return False
    rows, failed, separating = _slices(spec, n)
    key = frozenset(T)
    if any(map(key.issubset, failed)):
        return False
    if any(map(key.issuperset, separating)):
        return True
    verdict = _separates(rows, _projector(T))
    (separating if verdict else failed).append(key)
    return verdict


def check_separating(spec: FieldSpec, n: int, indices: Iterable[int]) -> SeparationVerdict:
    """Test injectivity of the fingerprint map over every orbit representative.

    The verdict and both counts come from the fingerprints of the slice (see
    the module docstring), by one rule. The witness, present iff the verdict
    is negative, is the first collision met while scanning representatives
    in lexicographic order: the earliest representative carrying the same
    fingerprint, paired with the current one.
    """
    idx = _gate(spec, n, indices)
    cs, h = _slice_set(spec, idx[0] if idx else 0)
    fps = itertools.chain.from_iterable(_orbit_batches(spec, n, idx, cs))
    total, seen = 0, set()
    for chunk in iter(lambda: list(itertools.islice(fps, 4096)), []):  # no list of every fp
        total += _rebuilt(chunk, h)
        seen.update(chunk)
    total, count = _orbit_total(spec, n, total), _rebuilt(seen, h)
    witness = None if count == total else _first_collision(spec, n, idx)
    if count != total and witness is None:
        raise RuntimeError(f"{count} fingerprints for {total} orbits, but no collision found")
    return SeparationVerdict(separating=witness is None, witness=witness,
                             orbit_count=total, fingerprint_count=count)


def _first_collision(spec: FieldSpec, n: int, idx: tuple[int, ...]) -> tuple:
    """(earlier, rep) of a non-separating idx, in lexicographic order.

    rep is the first orbit whose fingerprint an earlier one has, earlier the
    first with that fingerprint; enumerate_orbits names them in walk order.
    """
    first = {}
    fps = itertools.chain.from_iterable(_orbit_batches(spec, n, idx))
    for rep, fp in zip(enumerate_orbits(spec, n), fps):
        earlier = first.setdefault(fp, rep)
        if earlier is not rep:
            return earlier, rep


def _redundant(spec: FieldSpec, n: int, idx: tuple[int, ...]) -> list[int]:
    """The indices of the sorted set idx whose removal leaves a separating set."""
    return [t for t in idx if _separates_on_slice(spec, n, tuple(u for u in idx if u != t))]


def check_minimal(spec: FieldSpec, n: int, indices: Iterable[int]):
    """(is_minimal, redundant): whether no single index can be dropped.

    Requires a separating input set, else raises NotSeparatingError; each
    index whose removal leaves the set separating is reported as redundant.
    """
    idx = _gate(spec, n, indices, kept=True)
    if not _separates_on_slice(spec, n, idx):
        raise NotSeparatingError("minimality is defined only for separating sets")
    redundant = _redundant(spec, n, idx)
    return (not redundant, redundant)


def min_separating_size(spec: FieldSpec, n: int):
    """Smallest size of a separating index subset, with the first witness.

    A set inside one that does not separate does not separate either, so
    every separating set holds E, the t for which {1..n} minus t fails. E
    plus k others is tried, k ascending from gamma(q, n) - |E| (no set below
    gamma separates), each k in lexicographic order: the order of every set
    by size, then lexicographically, kept to the supersets of E.
    """
    if n > MAX_SUBSET_SEARCH_N:
        raise ScaleError(
            f"subset search over {{1..{n}}} exceeds the bound n <= {MAX_SUBSET_SEARCH_N}")
    full = _gate(spec, n, range(1, n + 1), kept=True)
    free = _redundant(spec, n, full)
    essential = [t for t in full if t not in free]
    for k in range(max(gamma(spec.q, n) - len(essential), 0), len(free) + 1):
        for extra in itertools.combinations(free, k):
            T = tuple(sorted((*essential, *extra)))
            if _separates_on_slice(spec, n, T):
                return len(T), T
    raise RuntimeError("no separating subset found, though the full set always separates")
