"""Decide whether index sets of elementary symmetric functions separate orbits.

A set of indices T separates when the fingerprint map, sending an orbit
representative to its tuple of s_t values, is injective over all orbits.
Verdicts are exhaustive: every orbit is accounted for, none is assumed.

The walk, _orbit_batches: a sorted representative is (0, ..., 0, M), M its
k nonzero entries, so lexicographic order is k ascending, then M in
lexicographic order. Level k is built from level k - 1 (Knuth, TAOCP 4A,
7.2.1.3), each part M' followed by x = a, ..., q - 1, a its last entry (0
for the empty part, whose x = 0 is the zero orbit); child x has s'_t = s_t
+ x s_{t-1} (s_0 = 1), from the parent's values and the field's tables, and
with more children than indices the column of s'_t is one map in C. A level
below n keeps its rows s_1, ..., s_k until the next level is built.

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
it, x = (c - s_t0) / s_{t0-1} >= a, or all or none if s_{t0-1} = 0, solved
for all parts at once. For g = 1 the slice is s_t0 in {0, 1}; for h = 1
(q = 2, T empty, or (q - 1) | t0) it is every orbit, kept whole.

check_separating counts the stream in chunks, holding only the distinct
fingerprints. A negative verdict's witness, the first collision in
lexicographic order, comes from a walk over every orbit, paired with
enumerate_orbits to name them; a negative count without one is a
RuntimeError. By the argument above, each index set T that check_minimal
and min_separating_size try is decided on the slice of min T alone (every
row if T is empty), projected to T and scanned only up to the first
collision. Their rows come from one kept walk, _slices, of one value tuple
per orbit; each slice is cut from it once by _cut, as the walk cuts its
levels below n, and checked by the same rule. minsep asks both questions
of one field and n, and so walks once.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from functools import cache, lru_cache
from operator import ge, getitem, itemgetter, not_
from typing import Iterable, Iterator, NamedTuple

from sepsym.errors import NotSeparatingError, ScaleError
# esym_all is not called here, but stays importable from this module: the
# benchmark's layer tracer patches names where they are looked up.
from sepsym.esym import esym_all, normalize_indices  # noqa: F401
from sepsym.exactcount import gamma, orbit_count
from sepsym.gf import FieldSpec
from sepsym.orbits import enumerate_orbits

MAX_SUBSET_SEARCH_N = 16


class SeparationVerdict(NamedTuple):
    separating: bool
    witness: tuple | None
    orbit_count: int
    fingerprint_count: int


def _orbit_batches(spec: FieldSpec, n: int, idx: tuple[int, ...], cs=()
                   ) -> Iterator[Iterable[tuple[int, ...]]]:
    """Stream the fingerprints (s_t for t in idx) of the orbits with s_t0 in cs, t0 = idx[0].

    Without cs, every orbit in lexicographic order: each level below n, then
    level n by parts. The caller counts; the orbit bound is enumerate_orbits'.
    """
    enumerate_orbits(spec, n)  # checks n and the orbit bound
    q, t0 = spec.q, idx[0] if cs else 0
    if n == 1:  # no product: s_1 is the orbit itself, and the tables stay unbuilt
        yield [v * len(idx) for v in _cut([(x,) for x in range(q)], cs, 0)]
        return
    add_t, mul_t = spec.tables
    get = [row.__getitem__ for row in add_t]

    def batch(s, a, ts):
        # s'_t = s_t + x s_{t-1}: by columns if the batch has more orbits
        # than ts has indices (a column with s_t = 0 is the row slice itself)
        if 0 < len(ts) < q - a:
            return zip(*[map(get[s[t]], mul_t[s[t - 1]][a:]) if s[t]
                         else mul_t[s[t - 1]][a:] for t in ts])
        return [tuple([add_t[s[t]][mx[s[t - 1]]] for t in ts]) for mx in mul_t[a:]]

    # level k: (a, (s_1, ..., s_k)) of each nonzero part of length k, a its last entry
    level = [(0, ())]
    for k in range(1, n):
        cut_k = bisect_right(idx, k)
        project, pad = _projector(idx[:cut_k]), (0,) * (len(idx) - cut_k)
        built = []
        for a, r in level:
            built += zip(range(a, q), batch((1, *r, 0), a, range(1, k + 1)))
        # for t0 > k, s_t0 = 0 is in cs
        yield [project(v) + pad for v in _cut(list(map(itemgetter(1), built)),
                                              cs if t0 <= k else (), t0 - 1)]
        if k == 1:
            del built[0]  # the zero orbit: its nonzero part is level 0's
        level = built
    if not cs:  # every child of every part
        yield from (batch((1, *r, 0), a, idx) for a, r in level)
        return
    # the rest of level n by columns: cols[t] holds s_t of every part, and a
    # part's child x has s'_t0 = e + x d, with e = s_t0 and d = s_{t0-1}
    heads = [a for a, _ in level]
    cols = [[1] * len(level), *zip(*[r for _, r in level]), [0] * len(level)]
    d, e = cols[t0 - 1], cols[t0]
    in_s = frozenset(cs).__contains__
    for (a, r), ei in itertools.compress(zip(level, e), map(not_, d)):  # s'_t0 = e on all
        if in_s(ei):
            yield batch((1, *r, 0), a, idx)
    if t0 > 1:  # the rows of 1/d, 1/0 read as 0
        exp, log = spec.logs
        inv = [0, *[exp[-i % (q - 1)] for i in log[1:]]]
        over = list(map(mul_t.__getitem__, map(inv.__getitem__, d)))
    neg = mul_t[spec.p - 1]  # -1 is the index p - 1
    for c in cs:  # the one child x = (c - e) / d, if d != 0 and x >= a
        minus = list(map(add_t[c].__getitem__, neg))  # minus[e] = c - e
        ce = map(minus.__getitem__, e)
        xs = list(map(getitem, over, ce) if t0 > 1 else ce)
        mask = list(map(ge, xs, heads))
        mx = list(map(mul_t.__getitem__, itertools.compress(xs, mask)))
        s = {t: list(itertools.compress(cols[t], mask)) for t in {*idx, *[t - 1 for t in idx]}}
        yield zip(*[map(getitem, map(add_t.__getitem__, s[t]), map(getitem, mx, s[t - 1]))
                    for t in idx])


def _cut(rows, cs, col: int):
    """The rows whose entry col, s_t0, lies in cs; rows itself when cs is empty."""
    in_cs = frozenset(cs).__contains__
    return list(itertools.compress(rows, map(in_cs, map(itemgetter(col), rows)))) if cs else rows


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


def _rebuilt(fps, h: int, col: int = 0) -> int:
    """The orbits that the slice's rows fps stand for, s_t0 being each row's entry col.

    s_t0 = 0 stands for one orbit, a unit s_t0 for h; with h = 1 the rows may be empty tuples.
    """
    zero = list(map(itemgetter(col), fps)).count(0) if h > 1 else 0
    return zero + h * (len(fps) - zero)


def _orbit_total(spec: FieldSpec, n: int, total: int) -> int:
    """total, the orbits rebuilt from a slice; RuntimeError unless it is binom(n+q-1, q-1)."""
    if total != orbit_count(spec.q, n):
        raise RuntimeError(f"the slice rebuilds {total} orbits, not {orbit_count(spec.q, n)}")
    return total


@lru_cache(maxsize=1)
def _slices(spec: FieldSpec, n: int):
    """t0 -> the value vectors (s_1, ..., s_n) of the slice of min T = t0; 0: of every orbit.

    One walk, in walk order, kept with the slices cut from it (each once, and
    checked to rebuild the orbit count) until a call for another field or n.
    """
    rows = tuple(itertools.chain.from_iterable(_orbit_batches(spec, n, tuple(range(1, n + 1)))))

    @cache
    def slice_rows(t0: int):
        cs, h = _slice_set(spec, t0)
        cut = _cut(rows, cs, t0 - 1)
        _orbit_total(spec, n, _rebuilt(cut, h, t0 - 1))
        return cut
    return slice_rows


def _separates_on_slice(spec: FieldSpec, n: int, T: tuple[int, ...]) -> bool:
    """Whether the sorted set T separates, scanned on its slice's rows; t0 = 0 if T is empty."""
    return _separates(_slices(spec, n)(T[0] if T else 0), _projector(T))


def check_separating(spec: FieldSpec, n: int, indices: Iterable[int]) -> SeparationVerdict:
    """Test injectivity of the fingerprint map over every orbit representative.

    The verdict and both counts come from the fingerprints of the slice (see
    the module docstring), by one rule. The witness, present iff the verdict
    is negative, is the first collision met while scanning representatives
    in lexicographic order: the earliest representative carrying the same
    fingerprint, paired with the current one.
    """
    idx = normalize_indices(indices, n)
    enumerate_orbits(spec, n)  # checks n and the orbit bound before any table or log is built
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


def check_minimal(spec: FieldSpec, n: int, indices: Iterable[int]):
    """(is_minimal, redundant): whether no single index can be dropped.

    Requires a separating input set, else raises NotSeparatingError; each
    index whose removal leaves the set separating is reported as redundant.
    """
    idx = normalize_indices(indices, n)
    if not _separates_on_slice(spec, n, idx):
        raise NotSeparatingError("minimality is defined only for separating sets")
    # idx without t starts at idx[0], or at idx[1] when t = idx[0]
    redundant = [t for t in idx if _separates_on_slice(spec, n, tuple(u for u in idx if u != t))]
    return (not redundant, redundant)


def min_separating_size(spec: FieldSpec, n: int):
    """Smallest size of a separating index subset, with the first witness.

    Sizes are tried in ascending order starting at gamma(q, n); sets below
    that size cannot separate, since q**|T| fingerprints cannot cover all
    orbits. Within a size, subsets are tried in lexicographic order and the
    first success is returned.
    """
    if n > MAX_SUBSET_SEARCH_N:
        raise ScaleError(
            f"subset search over {{1..{n}}} exceeds the bound n <= {MAX_SUBSET_SEARCH_N}")
    for k in range(gamma(spec.q, n), n + 1):
        for T in itertools.combinations(range(1, n + 1), k):
            if _separates_on_slice(spec, n, T):
                return k, T
    raise RuntimeError("no separating subset found, though the full set always separates")
