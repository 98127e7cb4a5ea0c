"""Decide whether index sets of elementary symmetric functions separate orbits.

A set of indices T separates when the fingerprint map, sending an orbit
representative to its tuple of s_t values, is injective over all orbits.
Everything here is exhaustive: verdicts come from scanning every orbit, not
from any closed-form shortcut.

All verdicts read one walk, orbit_rows. It visits the orbit representatives
in lexicographic order, as a depth-first walk of the tree of their prefixes
(combinations with repetition; Knuth, TAOCP 4A, 7.2.1.3), and keeps the
values of prod (1 + v_i z) for every prefix on the current path. A
representative shares all but its last run of equal entries with the one
before it, so its value vector costs one O(n) convolution step per entry of
that run instead of an O(n^2) rebuild.

check_separating streams the walk: it holds only its dict of distinct
fingerprints. check_minimal and min_separating_size walk once per call and
hold one value tuple per orbit until they return; every index set they try
is a projection of those rows, scanned only up to its first collision.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator

from sepsym.errors import ParameterError, ScaleError
# esym_all is not called here, but stays importable from this module: the
# benchmark's layer tracer patches names where they are looked up.
from sepsym.esym import convolution_step, esym_all, normalize_indices  # noqa: F401
from sepsym.exactcount import gamma
from sepsym.gf import FieldSpec
from sepsym.orbits import DEFAULT_ORBIT_BOUND, enumerate_orbits

MAX_SUBSET_SEARCH_N = 16


@dataclass(frozen=True)
class SeparationVerdict:
    separating: bool
    witness: tuple | None
    orbit_count: int
    fingerprint_count: int


def orbit_rows(spec: FieldSpec, n: int, bound: int = DEFAULT_ORBIT_BOUND
               ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Stream (rep, (s_1(rep), ..., s_n(rep))) for every orbit, in lexicographic order.

    The representatives and their order are those of enumerate_orbits, which
    also enforces the orbit bound.
    """
    step = convolution_step(spec)
    pads = [(0,) * k for k in range(n + 1)]
    # prefix[d]: the values of the product over rep[:d]; zeros leave it unchanged
    prefix = [()] * (n + 1)
    for rep in enumerate_orbits(spec, n, bound=bound):
        # rep agrees with its predecessor up to its first copy of rep[-1]
        d = rep.index(rep[-1])
        values = prefix[d]
        for d in range(d, n):
            x = rep[d]
            if x:
                values = step(values, x)
            prefix[d + 1] = values
        yield rep, values + pads[n - len(values)]


def _projector(idx: tuple[int, ...]):
    """Map a value vector to its fingerprint on the sorted index set idx."""
    if not idx:
        return lambda values: ()
    return itemgetter(*[t - 1 for t in idx])


def _first_collision(rows: list, project):
    """The first two rows with equal fingerprints under project, or None if there are none."""
    seen = {}
    for i, fp in enumerate(map(project, rows)):
        j = seen.setdefault(fp, i)
        if j != i:
            return rows[j], rows[i]
    return None


def _value_rows(spec: FieldSpec, n: int, bound: int) -> list:
    """The value vectors of orbit_rows, without their representatives."""
    return [values for _, values in orbit_rows(spec, n, bound)]


def check_separating(spec: FieldSpec, n: int, indices: Iterable[int],
                     bound: int = DEFAULT_ORBIT_BOUND) -> SeparationVerdict:
    """Test injectivity of the fingerprint map over every orbit representative.

    The witness, present iff the verdict is negative, is the first collision
    met while scanning representatives in lexicographic order: the earliest
    representative carrying the same fingerprint, paired with the current one.
    """
    project = _projector(normalize_indices(indices, n))
    seen: dict = {}
    witness = None
    total = 0
    for rep, values in orbit_rows(spec, n, bound):
        prev = seen.setdefault(project(values), rep)
        if prev is not rep and witness is None:
            witness = (prev, rep)
        total += 1
    distinct = len(seen)
    return SeparationVerdict(separating=distinct == total, witness=witness,
                             orbit_count=total, fingerprint_count=distinct)


def check_minimal(spec: FieldSpec, n: int, indices: Iterable[int],
                  bound: int = DEFAULT_ORBIT_BOUND):
    """(is_minimal, redundant): whether no single index can be dropped.

    Requires a separating input set; each index whose removal leaves the set
    separating is reported as redundant.
    """
    idx = normalize_indices(indices, n)
    rows = _value_rows(spec, n, bound)
    if _first_collision(rows, _projector(idx)) is not None:
        raise ParameterError("minimality is defined only for separating sets")
    redundant = [t for t in idx
                 if _first_collision(rows, _projector(tuple(u for u in idx if u != t))) is None]
    return (not redundant, redundant)


def min_separating_size(spec: FieldSpec, n: int, bound: int = DEFAULT_ORBIT_BOUND,
                        max_n: int = MAX_SUBSET_SEARCH_N):
    """Smallest size of a separating index subset, with the first witness.

    Sizes are tried in ascending order starting at gamma(q, n); sets below
    that size cannot separate, since q**|T| fingerprints cannot cover all
    orbits. Within a size, subsets are tried in lexicographic order and the
    first success is returned.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if n > max_n:
        raise ScaleError(f"subset search over {{1..{n}}} exceeds the bound n <= {max_n}")
    rows = _value_rows(spec, n, bound)
    # Pairs of rows that collided on an earlier candidate: a candidate on
    # which one of them agrees cannot separate.
    colliding = []
    for k in range(gamma(spec.q, n), n + 1):
        for T in itertools.combinations(range(1, n + 1), k):
            project = _projector(T)
            if any(project(u) == project(w) for u, w in colliding):
                continue
            pair = _first_collision(rows, project)
            if pair is None:
                return k, T
            colliding.append(pair)
    raise RuntimeError("no separating subset found, though the full set always separates")
