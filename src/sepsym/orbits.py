"""Orbits of coordinate permutations on F_q^n, as canonical sorted vectors.

Two vectors lie in the same orbit exactly when they agree as multisets, so
the weakly increasing reordering is a canonical representative and the
orbit space is the set of all weakly increasing length-n index vectors,
of which there are binom(n+q-1, q-1).
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

from sepsym.errors import ParameterError, ScaleError
from sepsym.gf import FieldSpec

MAX_ORBITS = 10_000_000


def enumerate_orbits(spec: FieldSpec, n: int) -> Iterator[tuple[int, ...]]:
    """Stream every orbit representative in lexicographic order.

    Yields each weakly increasing length-n vector over [0, q) exactly once,
    with constant memory. A single stream must not be shared between
    concurrent consumers; create one stream per consumer instead. More than
    MAX_ORBITS orbits raise ScaleError before any is yielded.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    total = math.comb(n + spec.q - 1, spec.q - 1)
    if total > MAX_ORBITS:
        raise ScaleError(f"{total} orbits exceed the enumeration bound {MAX_ORBITS}")
    return iter(itertools.combinations_with_replacement(range(spec.q), n))
