"""Decide whether index sets of elementary symmetric functions separate orbits.

A set of indices T separates when the fingerprint map, sending an orbit
representative to its tuple of s_t values, is injective over all orbits.
Everything here is exhaustive: verdicts come from scanning every orbit, not
from any closed-form shortcut.

All verdicts read one walk, _leaf_batches. It visits the orbit
representatives in lexicographic order, as a depth-first walk of the tree
of their prefixes (combinations with repetition; Knuth, TAOCP 4A, 7.2.1.3).
Interior nodes, the prefixes of length n - 1, keep the values of
prod (1 + v_i z): a prefix shares all but its last run of equal entries
with the one before it, so its values cost one O(n) convolution step per
entry of that run. The leaves under a prefix with last entry a,
prefix + (x,) for x = a, ..., q - 1, come as one batch: leaf x has
s'_t = s_t + x s_{t-1} (with s_0 = 1), so only the requested s'_t are
computed, straight from the prefix's values and the field's tables. When
the batch has more leaves than there are requested indices, the column of
s'_t over the batch is the addition-table row of s_t read along a slice of
the multiplication-table row of s_{t-1}, which map runs in C, and zip of
the columns gives the fingerprints; otherwise, as on long vectors, where
most batches hold one or two leaves, one pass per leaf is cheaper.

check_separating streams the walk and keeps only the set of distinct
fingerprints. When the set ends smaller than the number of orbits, a second
walk maps each fingerprint to the first leaf that has it and stops at the
first leaf whose fingerprint is already mapped: that pair is the witness.
check_minimal and min_separating_size hold one value tuple per orbit;
every index set they try is a projection of those rows, scanned only up to
its first collision. The last such walk is kept, so that minsep, which asks
both questions of one field and n, walks once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator

from sepsym.errors import NotSeparatingError, ParameterError, ScaleError
# esym_all is not called here, but stays importable from this module: the
# benchmark's layer tracer patches names where they are looked up.
from sepsym.esym import convolution_step, esym_all, normalize_indices  # noqa: F401
from sepsym.exactcount import gamma
from sepsym.gf import FieldSpec
from sepsym.orbits import enumerate_orbits

MAX_SUBSET_SEARCH_N = 16


@dataclass(frozen=True)
class SeparationVerdict:
    separating: bool
    witness: tuple | None
    orbit_count: int
    fingerprint_count: int


def _leaf_batches(spec: FieldSpec, n: int, idx: tuple[int, ...]
                  ) -> Iterator[tuple[tuple[int, ...], int, Iterable[tuple[int, ...]]]]:
    """Stream (prefix, a, fingerprints) for every prefix of length n - 1, in lexicographic order.

    The prefix's leaves are prefix + (x,) for x = a, ..., q - 1, where a is
    its last entry (0 for the empty prefix of n = 1); fingerprints yields
    (s_t for t in idx) of each, in that order, once. The orbit bound is that
    of enumerate_orbits.
    """
    enumerate_orbits(spec, n)  # checks n and the orbit bound
    q = spec.q
    if n == 1:  # no product: s_1 is the leaf itself, and the tables stay unbuilt
        yield (), 0, [(x,) * len(idx) for x in range(q)]
        return
    add_t, mul_t = spec.tables
    get = [row.__getitem__ for row in add_t]
    step = convolution_step(spec)
    pads = [(0,) * k for k in range(n + 1)]
    # prefix[:d] has values values[d]; zeros leave them unchanged
    values = [()] * n
    for prefix in itertools.combinations_with_replacement(range(q), n - 1):
        a = prefix[-1]
        # prefix agrees with its predecessor up to its first copy of a
        d = prefix.index(a)
        s = values[d]
        for d in range(d, n - 1):
            x = prefix[d]
            if x:
                s = step(s, x)
            values[d + 1] = s
        s = (1, *s, *pads[n - len(s)])  # s_0, ..., s_n with s_n = 0
        # Leaf x has s'_t = s_t + x s_{t-1}. With more leaves than indices,
        # one map per index gives a column over the leaves (adding s_t = 0
        # changes nothing, so that column is the row slice itself); with
        # fewer, as on long vectors, one pass per leaf is cheaper.
        if 0 < len(idx) < q - a:
            yield prefix, a, zip(*[map(get[s[t]], mul_t[s[t - 1]][a:]) if s[t]
                                   else mul_t[s[t - 1]][a:] for t in idx])
        else:
            yield prefix, a, [tuple([add_t[s[t]][mx[s[t - 1]]] for t in idx])
                              for mx in mul_t[a:]]


def _projector(idx: tuple[int, ...]):
    """Map a value vector to its fingerprint on the sorted index set idx."""
    if not idx:
        return lambda values: ()
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
    batches = _leaf_batches(spec, n, tuple(range(1, n + 1)))
    return tuple(itertools.chain.from_iterable(rows for _, _, rows in batches))


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
    for _, a, fps in _leaf_batches(spec, n, idx):
        seen.update(fps)
        total += q - a
    witness = None if len(seen) == total else _first_collision(spec, n, idx)
    return SeparationVerdict(separating=witness is None, witness=witness,
                             orbit_count=total, fingerprint_count=len(seen))


def _first_collision(spec: FieldSpec, n: int, idx: tuple[int, ...]) -> tuple:
    """(earlier, rep) of a non-separating idx, in walk order.

    rep is the first leaf whose fingerprint an earlier leaf has, and earlier
    is the first leaf with that fingerprint.
    """
    first = {}
    for prefix, a, fps in _leaf_batches(spec, n, idx):
        for x, fp in enumerate(fps, a):
            rep = prefix + (x,)
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
