import random

import pytest

from sepsym import gf
from sepsym.errors import ParameterError, ScaleError
from sepsym.exactcount import orbit_count
from sepsym.orbits import enumerate_orbits
from support import GRID_CELLS


def test_enumerate_examples():
    F2 = gf.field_for_order(2)
    assert list(enumerate_orbits(F2, 3)) == [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
    F3 = gf.field_for_order(3)
    assert len(list(enumerate_orbits(F3, 2))) == 6
    assert len(list(enumerate_orbits(F3, 9))) == 55


def test_stream_counts_match_binomials():
    for q, n in GRID_CELLS:
        spec = gf.field_for_order(q)
        count = sum(1 for _ in enumerate_orbits(spec, n))
        assert count == orbit_count(q, n)


def test_stream_is_canonical_and_strictly_increasing():
    for q, n in [(2, 5), (3, 4), (4, 3), (9, 3)]:
        spec = gf.field_for_order(q)
        prev = None
        for rep in enumerate_orbits(spec, n):
            assert tuple(sorted(rep)) == rep
            assert all(0 <= x < q for x in rep)
            if prev is not None:
                assert rep > prev
            prev = rep


def test_sorting_invariance_random():
    rng = random.Random(894321)
    for _ in range(1000):
        q = rng.choice((2, 3, 4, 5, 9))
        n = rng.randrange(1, 9)
        v = [rng.randrange(q) for _ in range(n)]
        w = v[:]
        rng.shuffle(w)
        assert tuple(sorted(v)) == tuple(sorted(w))


def test_scale_bound():
    # binom(n + 1, 1) = n + 1 orbits over F_2; the stream is not iterated
    F2 = gf.field_for_order(2)
    enumerate_orbits(F2, 9_999_999)
    with pytest.raises(ScaleError):
        enumerate_orbits(F2, 10_000_000)
    F9 = gf.field_for_order(9)
    with pytest.raises(ScaleError):
        enumerate_orbits(F9, 30)  # binom(38, 8) > 10^7


def test_dimension_validation():
    F2 = gf.field_for_order(2)
    with pytest.raises(ParameterError):
        enumerate_orbits(F2, 0)
