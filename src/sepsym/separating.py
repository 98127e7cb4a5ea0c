"""Decide whether index sets of elementary symmetric functions separate orbits.

A set of indices T separates when the fingerprint map, sending an orbit
representative to its tuple of s_t values, is injective over all orbits.
Everything here is exhaustive: verdicts come from scanning every orbit, not
from any closed-form shortcut.

All verdicts read one walk, _orbit_batches. A sorted representative is
(0, ..., 0, M) with M its k nonzero entries, so lexicographic order is k
ascending, then M in lexicographic order: the walk builds level k from level
k - 1 (Knuth, TAOCP 4A, 7.2.1.3), each part M' followed by x = a, ..., q - 1,
a its last entry (0 for the empty part, whose x = 0 is the zero orbit).
Those children come as one batch: child x has s'_t = s_t + x s_{t-1} (with
s_0 = 1), read from the parent's values and the field's tables. With more
children than indices to compute, the column of s'_t is the addition-table
row of s_t read along a slice of the multiplication-table row of s_{t-1},
which map runs in C, and zip of the columns gives the rows; otherwise, as on
long vectors, one pass per child is cheaper. So each orbit with a zero costs
one row s_1, ..., s_k, kept until the next level is built, and each orbit
without one only the requested s_t.

check_separating streams the walk and keeps only the set of distinct
fingerprints. When the set ends smaller than the number of orbits, a second
walk, paired with enumerate_orbits to name the orbits, maps each
fingerprint to the first orbit that has it and stops at the first orbit
whose fingerprint is already mapped: that pair is the witness.
check_minimal and min_separating_size hold one value tuple per orbit;
every index set they try is a projection of those rows, scanned only up to
its first collision. The last such walk is kept, so that minsep, which asks
both questions of one field and n, walks once.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from sepsym.errors import NotSeparatingError, ParameterError, ScaleError
# esym_all is not called here, but stays importable from this module: the
# benchmark's layer tracer patches names where they are looked up.
from sepsym.esym import esym_all, normalize_indices  # noqa: F401
from sepsym.exactcount import gamma
from sepsym.gf import FieldSpec
from sepsym.orbits import enumerate_orbits

MAX_SUBSET_SEARCH_N = 16


class SeparationVerdict(NamedTuple):
    separating: bool
    witness: tuple | None
    orbit_count: int
    fingerprint_count: int


def _orbit_batches(spec: FieldSpec, n: int, idx: tuple[int, ...]
                   ) -> Iterator[tuple[int, Iterable[tuple[int, ...]]]]:
    """Stream (a, fingerprints) for every batch of orbits, in lexicographic order.

    A batch is the orbits with nonzero part r + (x,), x = a, ..., q - 1, for
    one part r with last entry a (0 if r is empty: x = 0 is the zero orbit);
    fingerprints yields their (s_t for t in idx) once. The orbit bound is
    that of enumerate_orbits.
    """
    enumerate_orbits(spec, n)  # checks n and the orbit bound
    q = spec.q
    if n == 1:  # no product: s_1 is the orbit itself, and the tables stay unbuilt
        yield 0, [(x,) * len(idx) for x in range(q)]
        return
    add_t, mul_t = spec.tables
    get = [row.__getitem__ for row in add_t]

    def batch(r, a, ts):
        # s'_t = s_t + x s_{t-1}: by columns if the batch has more orbits
        # than ts has indices (a column with s_t = 0 is the row slice itself)
        s = (1, *r, 0)
        if 0 < len(ts) < q - a:
            return zip(*[map(get[s[t]], mul_t[s[t - 1]][a:]) if s[t]
                         else mul_t[s[t - 1]][a:] for t in ts])
        return [tuple([add_t[s[t]][mx[s[t - 1]]] for t in ts]) for mx in mul_t[a:]]

    # level k: (a, (s_1, ..., s_k)) of each nonzero part of length k, a its last entry
    level = [(0, ())]
    for k in range(1, n):
        cut = bisect_right(idx, k)
        project, pad = _projector(idx[:cut]), (0,) * (len(idx) - cut)
        built = []
        for a, r in level:
            rows = list(batch(r, a, range(1, k + 1)))
            yield a, [project(v) + pad for v in rows]
            built += zip(range(a, q), rows)
        if k == 1:
            del built[0]  # the zero orbit: its nonzero part is level 0's
        level = built
    for a, r in level:
        yield a, batch(r, a, idx)


def _projector(idx: tuple[int, ...]):
    """Map a value vector to its fingerprint, a tuple, on the sorted index set idx."""
    if len(idx) < 2:
        return lambda values: tuple([values[t - 1] for t in idx])
    return itemgetter(*[t - 1 for t in idx])


def _separates(rows: tuple, project) -> bool:
    """Whether project gives every row its own fingerprint; stops at the first collision."""
    seen = set()
    for fp in map(project, rows):
        if fp in seen:
            return False
        seen.add(fp)
    return True


@lru_cache(maxsize=1)
def _value_rows(spec: FieldSpec, n: int) -> tuple:
    """The value vectors (s_1, ..., s_n) of every orbit, in walk order.

    The last result is kept, immutable, until a call for another field or
    n: minsep asks min_separating_size and check_minimal about the same
    field and n, and so walks once.
    """
    batches = _orbit_batches(spec, n, tuple(range(1, n + 1)))
    return tuple(itertools.chain.from_iterable(rows for _, rows in batches))


def check_separating(spec: FieldSpec, n: int, indices: Iterable[int]) -> SeparationVerdict:
    """Test injectivity of the fingerprint map over every orbit representative.

    The witness, present iff the verdict is negative, is the first collision
    met while scanning representatives in lexicographic order: the earliest
    representative carrying the same fingerprint, paired with the current one.
    """
    idx = normalize_indices(indices, n)
    q = spec.q
    seen = set()
    total = 0
    for a, fps in _orbit_batches(spec, n, idx):
        seen.update(fps)
        total += q - a
    witness = None if len(seen) == total else _first_collision(spec, n, idx)
    return SeparationVerdict(separating=witness is None, witness=witness,
                             orbit_count=total, fingerprint_count=len(seen))


def _first_collision(spec: FieldSpec, n: int, idx: tuple[int, ...]) -> tuple:
    """(earlier, rep) of a non-separating idx, in lexicographic order.

    rep is the first orbit whose fingerprint an earlier one has, earlier the
    first with that fingerprint; enumerate_orbits names them in walk order.
    """
    first = {}
    fps = itertools.chain.from_iterable(rows for _, rows in _orbit_batches(spec, n, idx))
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
    rows = _value_rows(spec, n)
    if not _separates(rows, _projector(idx)):
        raise NotSeparatingError("minimality is defined only for separating sets")
    redundant = [t for t in idx
                 if _separates(rows, _projector(tuple(u for u in idx if u != t)))]
    return (not redundant, redundant)


def min_separating_size(spec: FieldSpec, n: int):
    """Smallest size of a separating index subset, with the first witness.

    Sizes are tried in ascending order starting at gamma(q, n); sets below
    that size cannot separate, since q**|T| fingerprints cannot cover all
    orbits. Within a size, subsets are tried in lexicographic order and the
    first success is returned.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if n > MAX_SUBSET_SEARCH_N:
        raise ScaleError(
            f"subset search over {{1..{n}}} exceeds the bound n <= {MAX_SUBSET_SEARCH_N}")
    rows = _value_rows(spec, n)
    for k in range(gamma(spec.q, n), n + 1):
        for T in itertools.combinations(range(1, n + 1), k):
            if _separates(rows, _projector(T)):
                return k, T
    raise RuntimeError("no separating subset found, though the full set always separates")
