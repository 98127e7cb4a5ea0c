import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepsym import gf
from sepsym.errors import ParameterError, ScaleError
from sepsym.esym import esym_all, index_set_nq
from sepsym.exactcount import gamma, orbit_count
from sepsym.orbits import enumerate_orbits
from sepsym.separating import (
    check_minimal,
    check_separating,
    min_separating_size,
    orbit_rows,
)
from support import GRID_CELLS, naive_check, naive_min_size, naive_redundant

TABLE_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64, 81, 125, 128, 243, 256)

# Table fields at every n with at most 2000 orbits; F_2 with long vectors;
# fields above 256, whose arithmetic is polynomial, at n <= 2.
WALK_CELLS = st.one_of(
    st.sampled_from([(q, n) for q in TABLE_ORDERS for n in range(1, 12)
                     if orbit_count(q, n) <= 2000]),
    st.tuples(st.just(2), st.integers(1, 200)),
    st.sampled_from([(257, 1), (257, 2), (289, 1), (289, 2), (343, 1), (512, 1),
                     (729, 1), (1024, 1)]),
)

# The minsep cells of the benchmark's search workload and the brute-force grid
# up to n = 8.
ORACLE_CELLS = sorted({(4, 8), (7, 6), (9, 5), (16, 4), (3, 10), (11, 5), (7, 5), (8, 5), (8, 6)}
                      | {(q, n) for q, n in GRID_CELLS if n <= 8})


def test_full_pair_separates_q2_n3():
    F2 = gf.field_for_order(2)
    v = check_separating(F2, 3, (1, 2))
    assert v.separating
    assert v.witness is None
    assert v.orbit_count == 4
    assert v.fingerprint_count == 4


def test_single_index_fails_q2_n3():
    F2 = gf.field_for_order(2)
    v = check_separating(F2, 3, (1,))
    assert not v.separating
    assert v.orbit_count == 4
    assert v.fingerprint_count == 2
    # s_1 vanishes on both the zero orbit and (0,1,1); that is the first
    # collision in lexicographic order
    assert v.witness == ((0, 0, 0), (0, 1, 1))


def test_scaled_set_separates_q3_n9():
    F3 = gf.field_for_order(3)
    T = index_set_nq(9, 3, 3)
    v = check_separating(F3, 9, T)
    assert v.separating
    assert v.orbit_count == 55


def test_verdict_invariant_on_samples():
    rng = random.Random(133700)
    for _ in range(60):
        q = rng.choice((2, 3, 4))
        n = rng.randrange(2, 7)
        spec = gf.field_for_order(q)
        size = rng.randrange(1, n + 1)
        T = tuple(rng.sample(range(1, n + 1), size))
        v = check_separating(spec, n, T)
        assert v.orbit_count == orbit_count(q, n)
        assert v.separating == (v.fingerprint_count == v.orbit_count)
        assert (v.witness is None) == v.separating


def test_monotone_under_supersets():
    rng = random.Random(20240)
    spec = gf.field_for_order(3)
    n = 5
    for _ in range(50):
        size = rng.randrange(1, n + 1)
        T = set(rng.sample(range(1, n + 1), size))
        if check_separating(spec, n, T).separating:
            extra = set(range(1, n + 1)) - T
            for t in extra:
                assert check_separating(spec, n, T | {t}).separating


def test_full_set_always_separates_small():
    for q in (2, 3, 4):
        spec = gf.field_for_order(q)
        for n in range(1, 7):
            assert check_separating(spec, n, range(1, n + 1)).separating


def test_check_minimal_examples():
    F2 = gf.field_for_order(2)
    assert check_minimal(F2, 3, (1, 2)) == (True, [])
    ok, redundant = check_minimal(F2, 3, (1, 2, 3))
    assert not ok
    assert redundant == [3]
    F3 = gf.field_for_order(3)
    assert check_minimal(F3, 3, (1, 2, 3)) == (True, [])


def test_check_minimal_requires_separating_input():
    F2 = gf.field_for_order(2)
    with pytest.raises(ParameterError):
        check_minimal(F2, 3, (1,))


def test_min_separating_size_examples():
    F2 = gf.field_for_order(2)
    assert min_separating_size(F2, 3) == (2, (1, 2))
    assert min_separating_size(F2, 2)[0] == 2
    F3 = gf.field_for_order(3)
    assert min_separating_size(F3, 2) == (2, (1, 2))


def test_min_size_bounded_below_by_gamma():
    from sepsym.chi import chi_exact
    for q in (2, 3, 4, 5):
        spec = gf.field_for_order(q)
        c = chi_exact(q)
        for n in range(1, 6):
            size, T = min_separating_size(spec, n)
            assert size >= gamma(q, n)
            assert check_separating(spec, n, T).separating
            if n <= c:
                assert size == gamma(q, n) == n


def test_scale_and_parameter_errors():
    F2 = gf.field_for_order(2)
    with pytest.raises(ScaleError):
        min_separating_size(F2, 17)
    with pytest.raises(ParameterError):
        min_separating_size(F2, 0)
    with pytest.raises(ParameterError):
        check_separating(F2, 3, (0,))
    with pytest.raises(ParameterError):
        check_separating(F2, 3, (4,))
    F9 = gf.field_for_order(9)
    with pytest.raises(ScaleError):
        check_separating(F9, 5, (1,), bound=100)


def test_exhaustive_small_subsets_q2_n4():
    # all subsets of {1..4} classified by brute force; gamma(2, 4) = 3 and the
    # only separating triple is the scaled index set {1, 2, 4}: dropping s_4
    # merges the all-ones orbit with the zero orbit because C(4, t) is even
    # for t = 1, 2, 3
    F2 = gf.field_for_order(2)
    separating = []
    for k in range(5):
        for T in itertools.combinations(range(1, 5), k):
            if check_separating(F2, 4, T).separating:
                separating.append(T)
    assert separating == [(1, 2, 4), (1, 2, 3, 4)]
    assert min_separating_size(F2, 4) == (3, (1, 2, 4))


@settings(max_examples=40, deadline=None)
@given(WALK_CELLS)
def test_orbit_rows_match_esym_all(cell):
    q, n = cell
    spec = gf.field_for_order(q)
    want = [(rep, esym_all(rep, spec)) for rep in enumerate_orbits(spec, n)]
    assert list(orbit_rows(spec, n)) == want


@pytest.mark.parametrize("q,n", ORACLE_CELLS)
def test_verdicts_match_naive_oracle(q, n):
    spec = gf.field_for_order(q)
    size, T = min_separating_size(spec, n)
    assert (size, T) == naive_min_size(spec, n)
    sq = index_set_nq(n, q, spec.p)
    for idx in (T[:-1], sq, range(1, n + 1)):
        v = check_separating(spec, n, idx)
        assert (v.separating, v.witness, v.orbit_count, v.fingerprint_count) == \
            naive_check(spec, n, idx)
    # a separating set of least size has no redundant index
    assert check_minimal(spec, n, T) == (True, [])
    if naive_check(spec, n, sq)[0]:
        redundant = naive_redundant(spec, n, sq)
        assert check_minimal(spec, n, sq) == (not redundant, redundant)
